//! FreeFlow endpoints: the address applications exchange out of band.

use freeflow_agent::proto::WireEp;
use freeflow_types::OverlayIp;
use std::fmt;

/// A (container overlay IP, queue-pair number) pair — what two
/// applications exchange before connecting, exactly like real verbs
/// deployments exchange GID + QPN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FfEndpoint {
    /// The container's overlay IP.
    pub ip: OverlayIp,
    /// The queue pair on that container's virtual NIC.
    pub qpn: u32,
}

impl FfEndpoint {
    /// Construct an endpoint.
    pub fn new(ip: OverlayIp, qpn: u32) -> Self {
        Self { ip, qpn }
    }

    /// Convert to the relay protocol representation.
    pub fn wire(self) -> WireEp {
        WireEp::new(self.ip, self.qpn)
    }

    /// Convert from the relay protocol representation.
    pub fn from_wire(ep: WireEp) -> Self {
        Self {
            ip: ep.ip,
            qpn: ep.qpn,
        }
    }

    /// Convert to the verbs fabric endpoint (local path).
    pub fn verbs(self) -> freeflow_verbs::QpEndpoint {
        freeflow_verbs::QpEndpoint {
            addr: self.ip,
            qpn: self.qpn,
        }
    }
}

impl fmt::Display for FfEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.ip, self.qpn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        let ep = FfEndpoint::new(OverlayIp::from_octets(10, 0, 0, 7), 42);
        assert_eq!(FfEndpoint::from_wire(ep.wire()), ep);
        let v = ep.verbs();
        assert_eq!(v.addr, ep.ip);
        assert_eq!(v.qpn, ep.qpn);
        assert_eq!(ep.to_string(), "10.0.0.7#42");
    }
}
