//! Data-plane transport selection.
//!
//! The heart of FreeFlow's argument: there is no single best transport.
//! Shared memory wins intra-host, RDMA wins inter-host when NICs allow it,
//! DPDK when only kernel bypass (not offload) is available, and plain
//! TCP/IP is the universal but slow fallback. The orchestrator picks from
//! this menu per flow; [`TransportKind`] is the currency of that decision.

use std::fmt;

/// Which data plane a flow rides on.
///
/// The variants are ordered best-first *within their placement class*; see
/// [`TransportKind::rank`] for the cross-placement preference order used by
/// the policy engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Shared-memory rings between co-located containers. Best possible
    /// throughput (memory-bandwidth-bound) and latency; requires the
    /// containers to be on the same host *and* the same tenant (trust).
    SharedMemory,
    /// Hardware RDMA between hosts (Verbs over an RDMA-capable NIC).
    /// Line-rate throughput, microsecond latency, near-zero CPU.
    Rdma,
    /// Kernel-bypass poll-mode I/O (DPDK-style) between hosts: line-rate-ish
    /// throughput but burns one polling core and has no transport offload.
    Dpdk,
    /// Plain host TCP/IP in host mode (container binds host IP/ports).
    /// Kernel stack traversal on both ends; the portability-compromising
    /// baseline.
    TcpHost,
    /// TCP/IP through the per-host software bridge (`docker0`-style
    /// default bridge networking): one veth/bridge hop on each side but no
    /// overlay router. A baseline mode, never selected by FreeFlow's
    /// policy.
    TcpBridge,
    /// TCP/IP through the overlay: bridge into a software router, encap,
    /// and the reverse on the far side. Most portable, slowest — the
    /// default of existing container networks and the paper's main foil.
    TcpOverlay,
}

impl TransportKind {
    /// All transports, best-rank-first.
    pub const ALL: [TransportKind; 6] = [
        TransportKind::SharedMemory,
        TransportKind::Rdma,
        TransportKind::Dpdk,
        TransportKind::TcpHost,
        TransportKind::TcpBridge,
        TransportKind::TcpOverlay,
    ];

    /// Preference rank used by the policy engine (lower is better).
    pub const fn rank(self) -> u8 {
        match self {
            TransportKind::SharedMemory => 0,
            TransportKind::Rdma => 1,
            TransportKind::Dpdk => 2,
            TransportKind::TcpHost => 3,
            TransportKind::TcpBridge => 4,
            TransportKind::TcpOverlay => 5,
        }
    }

    /// Whether this transport requires sender and receiver on one host.
    pub const fn intra_host_only(self) -> bool {
        matches!(self, TransportKind::SharedMemory)
    }

    /// Whether the transport bypasses the host kernel on the data path.
    pub const fn kernel_bypass(self) -> bool {
        matches!(
            self,
            TransportKind::SharedMemory | TransportKind::Rdma | TransportKind::Dpdk
        )
    }

    /// Whether using this transport relaxes inter-container isolation
    /// (and therefore requires mutual trust, i.e. same tenant).
    pub const fn requires_trust(self) -> bool {
        matches!(
            self,
            TransportKind::SharedMemory | TransportKind::Rdma | TransportKind::Dpdk
        )
    }

    /// Canonical short lowercase name, stable across versions. This is
    /// the *only* place a transport is spelled as a string; metrics keys,
    /// bench tables and docs all derive their labels from here.
    pub const fn as_str(self) -> &'static str {
        match self {
            TransportKind::SharedMemory => "shm",
            TransportKind::Rdma => "rdma",
            TransportKind::Dpdk => "dpdk",
            TransportKind::TcpHost => "tcp-host",
            TransportKind::TcpBridge => "tcp-bridge",
            TransportKind::TcpOverlay => "tcp-overlay",
        }
    }

    /// Alias for [`TransportKind::as_str`] (kept for existing callers).
    pub const fn name(self) -> &'static str {
        self.as_str()
    }

    /// Parse a canonical name back into a transport (inverse of
    /// [`TransportKind::as_str`]).
    pub fn from_str_canonical(s: &str) -> Option<TransportKind> {
        TransportKind::ALL.into_iter().find(|t| t.as_str() == s)
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why the policy engine picked (or refused) a transport — surfaced in
/// diagnostics so operators can answer "why is this flow on TCP?".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathDecision {
    /// The transport was selected.
    Selected {
        /// The chosen data plane.
        transport: TransportKind,
        /// Human-readable explanation.
        reason: String,
    },
    /// No transport is possible (e.g. unknown peer).
    Unreachable {
        /// Human-readable explanation.
        reason: String,
    },
}

impl PathDecision {
    /// Convenience constructor for a selection.
    pub fn selected(transport: TransportKind, reason: impl Into<String>) -> Self {
        PathDecision::Selected {
            transport,
            reason: reason.into(),
        }
    }

    /// Convenience constructor for an unreachable verdict.
    pub fn unreachable(reason: impl Into<String>) -> Self {
        PathDecision::Unreachable {
            reason: reason.into(),
        }
    }

    /// The chosen transport, if any.
    pub fn transport(&self) -> Option<TransportKind> {
        match self {
            PathDecision::Selected { transport, .. } => Some(*transport),
            PathDecision::Unreachable { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_total_and_distinct() {
        let mut ranks: Vec<u8> = TransportKind::ALL.iter().map(|t| t.rank()).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn all_is_sorted_by_rank() {
        for w in TransportKind::ALL.windows(2) {
            assert!(w[0].rank() < w[1].rank());
        }
    }

    #[test]
    fn shm_is_intra_host_only() {
        assert!(TransportKind::SharedMemory.intra_host_only());
        assert!(!TransportKind::Rdma.intra_host_only());
    }

    #[test]
    fn kernel_bypass_classification() {
        assert!(TransportKind::SharedMemory.kernel_bypass());
        assert!(TransportKind::Rdma.kernel_bypass());
        assert!(TransportKind::Dpdk.kernel_bypass());
        assert!(!TransportKind::TcpHost.kernel_bypass());
        assert!(!TransportKind::TcpBridge.kernel_bypass());
        assert!(!TransportKind::TcpOverlay.kernel_bypass());
    }

    #[test]
    fn trust_matches_kernel_bypass_for_now() {
        for t in TransportKind::ALL {
            assert_eq!(t.requires_trust(), t.kernel_bypass());
        }
    }

    #[test]
    fn names_are_unique() {
        use std::collections::HashSet;
        let names: HashSet<_> = TransportKind::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), TransportKind::ALL.len());
    }

    #[test]
    fn as_str_roundtrips_through_parse() {
        for t in TransportKind::ALL {
            assert_eq!(TransportKind::from_str_canonical(t.as_str()), Some(t));
            assert_eq!(t.to_string(), t.as_str());
        }
        assert_eq!(TransportKind::from_str_canonical("shared-memory"), None);
    }

    #[test]
    fn decision_accessors() {
        let d = PathDecision::selected(TransportKind::Rdma, "different hosts, both RDMA NICs");
        assert_eq!(d.transport(), Some(TransportKind::Rdma));
        let u = PathDecision::unreachable("peer not registered");
        assert_eq!(u.transport(), None);
    }
}
