//! Strongly-typed identifiers for cluster entities.
//!
//! Each identifier is a thin newtype over `u64` (or `u32` where the paper's
//! corresponding concept is small, e.g. RDMA queue-pair numbers are 24-bit
//! on real hardware). Newtypes prevent the classic bug of passing a host id
//! where a container id is expected — the control plane juggles four
//! different id spaces and the compiler should referee.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u64);

        impl $name {
            /// Construct from a raw integer.
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The raw integer value.
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }
    };
}

id_type!(
    /// Identifies one container in the cluster.
    ///
    /// A container keeps its id (and its overlay IP) across restarts and
    /// migrations — that is the portability contract FreeFlow preserves.
    ContainerId,
    "ctr-"
);

id_type!(
    /// Identifies a physical host (bare-metal machine).
    HostId,
    "host-"
);

id_type!(
    /// Identifies a virtual machine. Containers may run inside VMs
    /// (deployment cases (c) and (d) in the paper's Figure 2); the fabric
    /// controller maps a [`VmId`] to the [`HostId`] it currently runs on.
    VmId,
    "vm-"
);

id_type!(
    /// Identifies the per-host FreeFlow network agent.
    AgentId,
    "agent-"
);

id_type!(
    /// Identifies a tenant / application deployment. Shared-memory and RDMA
    /// data planes are only offered between containers of the *same* tenant
    /// (the paper's trust precondition for relaxing isolation).
    TenantId,
    "tenant-"
);

id_type!(
    /// Identifies one flow (a sender/receiver container pair plus transport)
    /// inside the simulator and the metrics pipeline.
    FlowId,
    "flow-"
);

/// An RDMA queue-pair number, unique per virtual (or simulated) NIC.
///
/// Real RDMA hardware uses 24-bit QPNs; we keep the same range so traces
/// look familiar and overflow behaviour can be tested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QpId(pub u32);

impl QpId {
    /// Maximum queue-pair number (24-bit, mirroring hardware).
    pub const MAX: u32 = (1 << 24) - 1;

    /// Construct from a raw QPN, which must fit in 24 bits.
    pub fn new(raw: u32) -> Self {
        assert!(raw <= Self::MAX, "QPN {raw} exceeds 24-bit range");
        Self(raw)
    }

    /// The raw queue-pair number.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for QpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qp-{:#08x}", self.0)
    }
}

/// Monotonic id allocator, used by registries that hand out fresh ids.
///
/// Wraps a plain counter; not thread-safe by itself (registries guard it
/// with their own lock, avoiding double synchronization).
#[derive(Debug, Default, Clone)]
pub struct IdAllocator {
    next: u64,
}

impl IdAllocator {
    /// New allocator starting at zero.
    pub const fn new() -> Self {
        Self { next: 0 }
    }

    /// New allocator starting at `start`.
    pub const fn starting_at(start: u64) -> Self {
        Self { next: start }
    }

    /// Allocate the next raw id.
    pub fn alloc(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// How many ids have been handed out.
    pub fn allocated(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_prefixed() {
        assert_eq!(ContainerId::new(7).to_string(), "ctr-7");
        assert_eq!(HostId::new(1).to_string(), "host-1");
        assert_eq!(VmId::new(3).to_string(), "vm-3");
        assert_eq!(AgentId::new(0).to_string(), "agent-0");
        assert_eq!(TenantId::new(42).to_string(), "tenant-42");
        assert_eq!(FlowId::new(9).to_string(), "flow-9");
    }

    #[test]
    fn qpn_display_is_hex() {
        assert_eq!(QpId::new(0x12).to_string(), "qp-0x000012");
    }

    #[test]
    #[should_panic(expected = "exceeds 24-bit range")]
    fn qpn_rejects_out_of_range() {
        let _ = QpId::new(1 << 24);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let a = ContainerId::new(1);
        let b = ContainerId::new(2);
        assert!(a < b);
        let set: HashSet<_> = [a, b, a].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn allocator_is_monotonic() {
        let mut alloc = IdAllocator::new();
        assert_eq!(alloc.alloc(), 0);
        assert_eq!(alloc.alloc(), 1);
        assert_eq!(alloc.allocated(), 2);
        let mut alloc = IdAllocator::starting_at(100);
        assert_eq!(alloc.alloc(), 100);
    }

    #[test]
    fn ids_roundtrip_through_from_u64() {
        let id: HostId = 5u64.into();
        assert_eq!(id.raw(), 5);
    }
}
