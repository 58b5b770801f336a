//! Host and NIC capability descriptors.
//!
//! The orchestrator's path-selection policy needs to know, per host, what
//! the hardware can do: is the NIC RDMA-capable? does it support a DPDK
//! poll-mode driver? what is its line rate? These descriptors are
//! registered by each host's agent at startup and kept in the
//! orchestrator's NIC database.

use crate::units::Bandwidth;
use std::fmt;

/// What kind of NIC a host has, in decreasing order of capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NicKind {
    /// RDMA-capable (RoCE/InfiniBand-style, e.g. the paper's Mellanox CX3):
    /// supports Verbs offload *and* a DPDK-style poll-mode driver.
    Rdma,
    /// Supports a kernel-bypass poll-mode driver (DPDK) but no transport
    /// offload.
    DpdkCapable,
    /// Plain NIC; only the kernel TCP/IP stack can drive it.
    Standard,
}

impl NicKind {
    /// Whether Verbs RDMA operations can be offloaded to this NIC.
    pub const fn supports_rdma(self) -> bool {
        matches!(self, NicKind::Rdma)
    }

    /// Whether a DPDK poll-mode driver can bind this NIC.
    pub const fn supports_dpdk(self) -> bool {
        matches!(self, NicKind::Rdma | NicKind::DpdkCapable)
    }
}

impl fmt::Display for NicKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NicKind::Rdma => "rdma",
            NicKind::DpdkCapable => "dpdk-capable",
            NicKind::Standard => "standard",
        })
    }
}

/// Capabilities of one physical NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicCaps {
    /// Hardware class of the NIC.
    pub kind: NicKind,
    /// Line rate of the port.
    pub line_rate: Bandwidth,
    /// Max queue pairs the NIC can host before on-NIC cache thrash degrades
    /// it (the paper's argument against SR-IOV at container scale: hundreds
    /// of containers per host overflow NIC state).
    pub max_queue_pairs: u32,
}

impl NicCaps {
    /// The paper's testbed NIC: 40 Gb/s Mellanox ConnectX-3.
    pub fn mellanox_cx3() -> Self {
        Self {
            kind: NicKind::Rdma,
            line_rate: Bandwidth::from_gbps(40),
            max_queue_pairs: 65_536,
        }
    }

    /// A plain 10 Gb/s NIC with no bypass support.
    pub fn standard_10g() -> Self {
        Self {
            kind: NicKind::Standard,
            line_rate: Bandwidth::from_gbps(10),
            max_queue_pairs: 0,
        }
    }

    /// A 40 Gb/s NIC that supports DPDK but not RDMA offload.
    pub fn dpdk_40g() -> Self {
        Self {
            kind: NicKind::DpdkCapable,
            line_rate: Bandwidth::from_gbps(40),
            max_queue_pairs: 0,
        }
    }
}

/// Capabilities of one host, registered with the orchestrator by its agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCaps {
    /// The host's NIC.
    pub nic: NicCaps,
    /// Number of physical cores.
    pub cores: u32,
    /// Core clock in MHz (the paper's testbed: 2.40 GHz Xeon).
    pub core_mhz: u32,
    /// Memory-bus bandwidth — the ceiling for shared-memory transport.
    pub memory_bandwidth: Bandwidth,
    /// Whether the host allows cross-container shared memory (an operator
    /// may disable it for compliance even between same-tenant containers).
    pub allow_shared_memory: bool,
}

impl HostCaps {
    /// The paper's testbed host: Xeon 2.40 GHz, 4 cores, 40 Gb/s CX3,
    /// quad-channel DDR3-class memory (~51 GB/s).
    pub fn paper_testbed() -> Self {
        Self {
            nic: NicCaps::mellanox_cx3(),
            cores: 4,
            core_mhz: 2400,
            memory_bandwidth: Bandwidth::from_gigabytes_per_sec(51),
            allow_shared_memory: true,
        }
    }

    /// A host with a plain NIC (forces TCP inter-host).
    pub fn commodity() -> Self {
        Self {
            nic: NicCaps::standard_10g(),
            ..Self::paper_testbed()
        }
    }

    /// Best inter-host transport this host's NIC supports.
    pub fn best_nic_transport(&self) -> crate::transport::TransportKind {
        use crate::transport::TransportKind;
        if self.nic.kind.supports_rdma() {
            TransportKind::Rdma
        } else if self.nic.kind.supports_dpdk() {
            TransportKind::Dpdk
        } else {
            TransportKind::TcpHost
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportKind;

    #[test]
    fn nic_kind_capability_lattice() {
        assert!(NicKind::Rdma.supports_rdma());
        assert!(NicKind::Rdma.supports_dpdk());
        assert!(!NicKind::DpdkCapable.supports_rdma());
        assert!(NicKind::DpdkCapable.supports_dpdk());
        assert!(!NicKind::Standard.supports_rdma());
        assert!(!NicKind::Standard.supports_dpdk());
    }

    #[test]
    fn paper_testbed_matches_calibration_anchors() {
        let host = HostCaps::paper_testbed();
        assert_eq!(host.nic.line_rate.as_gbps_f64(), 40.0);
        assert_eq!(host.cores, 4);
        assert_eq!(host.core_mhz, 2400);
        // Memory bus must dwarf the NIC for the shm-wins-intra-host shape.
        assert!(host.memory_bandwidth.as_bps() > 5 * host.nic.line_rate.as_bps());
    }

    #[test]
    fn best_transport_follows_nic_kind() {
        assert_eq!(
            HostCaps::paper_testbed().best_nic_transport(),
            TransportKind::Rdma
        );
        assert_eq!(
            HostCaps::commodity().best_nic_transport(),
            TransportKind::TcpHost
        );
        let dpdk_host = HostCaps {
            nic: NicCaps::dpdk_40g(),
            ..HostCaps::paper_testbed()
        };
        assert_eq!(dpdk_host.best_nic_transport(), TransportKind::Dpdk);
    }
}
