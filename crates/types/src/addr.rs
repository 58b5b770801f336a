//! Overlay network addressing.
//!
//! FreeFlow keeps the overlay-network property the paper insists on:
//! a container's IP address is independent of its physical location, so
//! peers never need to know (or notice) where it runs. These types model
//! that overlay address space without pulling in the host OS's socket
//! address types — overlay IPs are a *logical* namespace managed by the
//! orchestrator's IPAM, not addresses the host kernel knows about.

use crate::error::{Error, Result};
use std::fmt;
use std::str::FromStr;

/// An IPv4-style address in the overlay namespace.
///
/// Stored as a `u32` in host byte order for cheap arithmetic (IPAM hands
/// out consecutive addresses from CIDR pools).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OverlayIp(pub u32);

impl OverlayIp {
    /// The unspecified address `0.0.0.0`, used as a wildcard for listeners.
    pub const UNSPECIFIED: Self = Self(0);

    /// Construct from four dotted-quad octets.
    pub const fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Self {
        Self(u32::from_be_bytes([a, b, c, d]))
    }

    /// The four dotted-quad octets.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// The raw `u32` (host byte order).
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Whether this is the wildcard address.
    pub const fn is_unspecified(self) -> bool {
        self.0 == 0
    }

    /// The address immediately after this one, or `None` on wrap-around.
    pub fn next(self) -> Option<Self> {
        self.0.checked_add(1).map(Self)
    }
}

impl fmt::Display for OverlayIp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl FromStr for OverlayIp {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in &mut octets {
            let part = parts
                .next()
                .ok_or_else(|| Error::parse(format!("bad IPv4 literal: {s:?}")))?;
            *slot = part
                .parse()
                .map_err(|_| Error::parse(format!("bad IPv4 octet {part:?} in {s:?}")))?;
        }
        if parts.next().is_some() {
            return Err(Error::parse(format!("too many octets in {s:?}")));
        }
        let [a, b, c, d] = octets;
        Ok(Self::from_octets(a, b, c, d))
    }
}

/// A CIDR block in the overlay namespace, e.g. `10.1.0.0/16`.
///
/// IPAM carves the cluster's overlay space into per-tenant (or per-network)
/// pools described by these blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OverlayCidr {
    /// The network base address (host bits are zeroed at construction).
    pub base: OverlayIp,
    /// Prefix length in bits, `0..=32`.
    pub prefix_len: u8,
}

impl OverlayCidr {
    /// Construct a CIDR block. Host bits in `base` are masked off.
    ///
    /// Returns an error if `prefix_len > 32`.
    pub fn new(base: OverlayIp, prefix_len: u8) -> Result<Self> {
        if prefix_len > 32 {
            return Err(Error::parse(format!("prefix length {prefix_len} > 32")));
        }
        Ok(Self {
            base: OverlayIp(base.0 & Self::mask_bits(prefix_len)),
            prefix_len,
        })
    }

    fn mask_bits(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len as u32)
        }
    }

    /// The netmask as a raw `u32`.
    pub fn netmask(&self) -> u32 {
        Self::mask_bits(self.prefix_len)
    }

    /// Whether `ip` falls inside this block.
    pub fn contains(&self, ip: OverlayIp) -> bool {
        (ip.0 & self.netmask()) == self.base.0
    }

    /// Number of addresses in the block (including network/broadcast).
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.prefix_len as u32)
    }

    /// First usable host address (base + 1 for blocks smaller than /31;
    /// the base itself for /31 and /32, mirroring RFC 3021 semantics).
    pub fn first_host(&self) -> OverlayIp {
        if self.prefix_len >= 31 {
            self.base
        } else {
            OverlayIp(self.base.0 + 1)
        }
    }

    /// Last usable host address.
    pub fn last_host(&self) -> OverlayIp {
        let last = self.base.0 + (self.size() - 1) as u32;
        if self.prefix_len >= 31 {
            OverlayIp(last)
        } else {
            OverlayIp(last - 1)
        }
    }

    /// Whether two blocks overlap.
    pub fn overlaps(&self, other: &OverlayCidr) -> bool {
        let shorter = self.prefix_len.min(other.prefix_len);
        let mask = Self::mask_bits(shorter);
        (self.base.0 & mask) == (other.base.0 & mask)
    }
}

impl fmt::Display for OverlayCidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base, self.prefix_len)
    }
}

impl FromStr for OverlayCidr {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        let (ip, len) = s
            .split_once('/')
            .ok_or_else(|| Error::parse(format!("missing '/' in CIDR {s:?}")))?;
        let base: OverlayIp = ip.parse()?;
        let prefix_len: u8 = len
            .parse()
            .map_err(|_| Error::parse(format!("bad prefix length {len:?}")))?;
        Self::new(base, prefix_len)
    }
}

/// A full overlay endpoint: IP plus port.
///
/// Ports exist for the Socket API translation layer; native Verbs flows are
/// addressed by (ip, qpn) instead, but reuse the ip half.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OverlayAddr {
    /// Overlay IP of the container.
    pub ip: OverlayIp,
    /// Port within the container's private port space. Because every
    /// container owns a full overlay IP, port collisions across containers
    /// are impossible — the portability win over host-mode networking.
    pub port: u16,
}

impl OverlayAddr {
    /// Construct an endpoint address.
    pub const fn new(ip: OverlayIp, port: u16) -> Self {
        Self { ip, port }
    }
}

impl fmt::Display for OverlayAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

impl FromStr for OverlayAddr {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        let (ip, port) = s
            .rsplit_once(':')
            .ok_or_else(|| Error::parse(format!("missing ':' in address {s:?}")))?;
        Ok(Self {
            ip: ip.parse()?,
            port: port
                .parse()
                .map_err(|_| Error::parse(format!("bad port {port:?}")))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_roundtrips_through_display_and_parse() {
        let ip = OverlayIp::from_octets(10, 1, 2, 3);
        assert_eq!(ip.to_string(), "10.1.2.3");
        assert_eq!("10.1.2.3".parse::<OverlayIp>().unwrap(), ip);
    }

    #[test]
    fn ip_parse_rejects_garbage() {
        assert!("10.1.2".parse::<OverlayIp>().is_err());
        assert!("10.1.2.3.4".parse::<OverlayIp>().is_err());
        assert!("10.1.2.256".parse::<OverlayIp>().is_err());
        assert!("ten.one.two.three".parse::<OverlayIp>().is_err());
    }

    #[test]
    fn cidr_masks_host_bits() {
        let cidr: OverlayCidr = "10.1.2.3/16".parse().unwrap();
        assert_eq!(cidr.base.to_string(), "10.1.0.0");
        assert_eq!(cidr.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn cidr_contains() {
        let cidr: OverlayCidr = "10.1.0.0/16".parse().unwrap();
        assert!(cidr.contains("10.1.255.255".parse().unwrap()));
        assert!(!cidr.contains("10.2.0.0".parse().unwrap()));
    }

    #[test]
    fn cidr_host_range() {
        let cidr: OverlayCidr = "10.0.0.0/24".parse().unwrap();
        assert_eq!(cidr.size(), 256);
        assert_eq!(cidr.first_host().to_string(), "10.0.0.1");
        assert_eq!(cidr.last_host().to_string(), "10.0.0.254");
    }

    #[test]
    fn cidr_slash32_is_single_host() {
        let cidr: OverlayCidr = "10.0.0.5/32".parse().unwrap();
        assert_eq!(cidr.size(), 1);
        assert_eq!(cidr.first_host(), cidr.last_host());
        assert_eq!(cidr.first_host().to_string(), "10.0.0.5");
    }

    #[test]
    fn cidr_overlap() {
        let a: OverlayCidr = "10.0.0.0/8".parse().unwrap();
        let b: OverlayCidr = "10.1.0.0/16".parse().unwrap();
        let c: OverlayCidr = "11.0.0.0/8".parse().unwrap();
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn cidr_rejects_bad_prefix() {
        assert!(OverlayCidr::new(OverlayIp::UNSPECIFIED, 33).is_err());
        assert!("10.0.0.0/33".parse::<OverlayCidr>().is_err());
    }

    #[test]
    fn addr_roundtrip() {
        let addr: OverlayAddr = "10.1.2.3:8080".parse().unwrap();
        assert_eq!(addr.ip.to_string(), "10.1.2.3");
        assert_eq!(addr.port, 8080);
        assert_eq!(addr.to_string(), "10.1.2.3:8080");
    }

    #[test]
    fn unspecified_wildcard() {
        assert!(OverlayIp::UNSPECIFIED.is_unspecified());
        assert!(!OverlayIp::from_octets(1, 0, 0, 0).is_unspecified());
    }

    #[test]
    fn ip_next_wraps_to_none() {
        assert_eq!(OverlayIp(u32::MAX).next(), None);
        assert_eq!(OverlayIp(1).next(), Some(OverlayIp(2)));
    }
}
