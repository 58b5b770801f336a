//! The path-binding lifecycle: one state machine for every transition a
//! virtual queue pair's data plane can make.
//!
//! Before this module, connect-time binding, failure failover, and the
//! (unimplemented) migration/recovery transitions were hand-rolled across
//! `qp.rs`, `cluster.rs` and the library pump. [`PathBinding`] centralizes
//! them:
//!
//! ```text
//!              bind                      begin_rebind(reason)
//!   Unbound ────────▶ Bound{Local|Remote} ──────────────────▶ Rebinding
//!                       ▲     ▲                                  │  │
//!                       │     └──────────── abort_rebind ────────┘  │
//!                       └──── complete_rebind (epoch += 1) ─────────┘
//!   any phase ──fail──▶ Error
//! ```
//!
//! Three rules make live re-pathing safe:
//!
//! * **Epochs.** Each successful (re)bind starts a new *binding epoch*
//!   (`bind` → epoch 1, every `complete_rebind` increments). A rebind is
//!   the boundary between two epochs.
//! * **One rebind rule.** Every rebind — failover, upgrade, collapse or
//!   migration — carries the owner's unanswered operations across the
//!   boundary and never waits for them. The owner re-sends them oldest
//!   first on the path the rebind ends on, ahead of the sends parked
//!   while it was `Rebinding`, and the responder executes each exactly
//!   once. So every posted WR completes exactly once: the
//!   completion-conservation invariant.
//! * **Reasons.** Every rebind carries a [`RebindReason`]. A `Failover`
//!   that can't find a new path must error the QP; an `Upgrade`,
//!   `Collapse` or `Migrate` that can't complete aborts back to the old
//!   (still working) path.

use crate::qp::FfPath;
use freeflow_types::TransportKind;
use std::fmt;

/// Why a bound path is being torn down and re-established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebindReason {
    /// The current transport died (op deadline / nack): reactive
    /// re-path, the old path is unusable.
    Failover,
    /// The orchestrator reports a better transport became available
    /// (e.g. `restore_nic` → TCP back to RDMA): planned, the old path
    /// still works until the switch.
    Upgrade,
    /// The peer migrated onto this host: collapse the relay path onto
    /// host shared memory without reconnecting.
    Collapse,
    /// This container is being live-migrated to another host: the
    /// binding holds in `Rebinding` until the migration commits (thaw
    /// resolves the new path from the target host) or aborts (thaw falls
    /// back onto the old path).
    Migrate,
}

/// The lifecycle phase of a binding (the path itself is carried
/// separately — see [`PathBinding::path`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingPhase {
    /// No data plane selected yet (before RTR).
    Unbound,
    /// A path is live; operations flow.
    Bound,
    /// A rebind is in progress: new sends park until it completes or
    /// aborts.
    Rebinding,
    /// Terminal: no usable path remains.
    Error,
}

impl BindingPhase {
    /// Stable lowercase name (diagnostics).
    pub const fn name(self) -> &'static str {
        match self {
            BindingPhase::Unbound => "unbound",
            BindingPhase::Bound => "bound",
            BindingPhase::Rebinding => "rebinding",
            BindingPhase::Error => "error",
        }
    }
}

/// An illegal transition request, naming what was attempted from where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindingError {
    /// Phase the binding was in.
    pub phase: BindingPhase,
    /// The transition that was refused.
    pub attempted: &'static str,
    /// Why.
    pub detail: &'static str,
}

impl fmt::Display for BindingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "illegal binding transition {} from {}: {}",
            self.attempted,
            self.phase.name(),
            self.detail
        )
    }
}

impl std::error::Error for BindingError {}

/// The state machine owning a QP's data-plane binding.
///
/// Pure bookkeeping: no I/O, no locks — the owner (an `FfQp`) serializes
/// access and performs the re-sends and replays around these
/// transitions, which makes the machine directly property-testable.
#[derive(Debug, Clone)]
pub struct PathBinding {
    phase: BindingPhase,
    path: FfPath,
    /// Location-cache generation the current path resolved under.
    generation: u64,
    /// Binding epoch: 0 before the first bind, 1 after it, +1 per
    /// completed rebind. RC ordering holds within one epoch.
    epoch: u64,
    /// How many completed rebinds strictly improved the transport rank.
    upgrades: u64,
    /// Why the in-progress rebind was started (None when Bound).
    reason: Option<RebindReason>,
}

impl Default for PathBinding {
    fn default() -> Self {
        Self::new()
    }
}

impl PathBinding {
    /// A fresh, unbound binding.
    pub fn new() -> Self {
        Self {
            phase: BindingPhase::Unbound,
            path: FfPath::Unbound,
            generation: 0,
            epoch: 0,
            upgrades: 0,
            reason: None,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> BindingPhase {
        self.phase
    }

    /// The bound path (`FfPath::Unbound` before the first bind; while
    /// `Rebinding` this is still the *old* path).
    pub fn path(&self) -> FfPath {
        self.path
    }

    /// Location-cache generation of the current path.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Current binding epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Completed rebinds that moved to a strictly better transport.
    pub fn upgrades(&self) -> u64 {
        self.upgrades
    }

    /// Why the in-progress rebind was started, if one is.
    pub fn reason(&self) -> Option<RebindReason> {
        self.reason
    }

    fn err(&self, attempted: &'static str, detail: &'static str) -> BindingError {
        BindingError {
            phase: self.phase,
            attempted,
            detail,
        }
    }

    /// Connect-time bind: `Unbound → Bound`, starting epoch 1.
    pub fn bind(&mut self, path: FfPath, generation: u64) -> Result<(), BindingError> {
        if self.phase != BindingPhase::Unbound {
            return Err(self.err("bind", "only an unbound binding can bind"));
        }
        if matches!(path, FfPath::Unbound) {
            return Err(self.err("bind", "cannot bind to FfPath::Unbound"));
        }
        self.path = path;
        self.generation = generation;
        self.phase = BindingPhase::Bound;
        self.epoch = 1;
        Ok(())
    }

    /// Start a rebind: `Bound → Rebinding`. Whatever the owner still has
    /// unanswered crosses with it.
    pub fn begin_rebind(&mut self, reason: RebindReason) -> Result<(), BindingError> {
        if self.phase != BindingPhase::Bound {
            return Err(self.err("begin_rebind", "only a bound path can rebind"));
        }
        self.phase = BindingPhase::Rebinding;
        self.reason = Some(reason);
        Ok(())
    }

    /// New path established: `Rebinding → Bound`, epoch += 1. Counts an
    /// upgrade when the new transport strictly outranks the old one.
    pub fn complete_rebind(&mut self, path: FfPath, generation: u64) -> Result<(), BindingError> {
        if self.phase != BindingPhase::Rebinding {
            return Err(self.err("complete_rebind", "no rebind in progress"));
        }
        if matches!(path, FfPath::Unbound) {
            return Err(self.err("complete_rebind", "cannot rebind to FfPath::Unbound"));
        }
        if Self::outranks(path.transport(), self.path.transport()) {
            self.upgrades += 1;
        }
        self.path = path;
        self.generation = generation;
        self.phase = BindingPhase::Bound;
        self.epoch += 1;
        self.reason = None;
        Ok(())
    }

    /// Give up on an in-progress rebind and keep the old path:
    /// `Rebinding → Bound`. Only sound for planned rebinds (upgrade,
    /// collapse, migration) where the old path still works; a failover has
    /// no path to fall back to and must [`PathBinding::fail`] instead.
    pub fn abort_rebind(&mut self) -> Result<(), BindingError> {
        if self.phase != BindingPhase::Rebinding {
            return Err(self.err("abort_rebind", "no rebind in progress"));
        }
        if self.reason == Some(RebindReason::Failover) {
            return Err(self.err("abort_rebind", "a failover's old path is dead"));
        }
        self.phase = BindingPhase::Bound;
        self.reason = None;
        Ok(())
    }

    /// Terminal failure. Idempotent and legal from every phase.
    pub fn fail(&mut self) {
        self.phase = BindingPhase::Error;
        self.reason = None;
    }

    fn outranks(new: Option<TransportKind>, old: Option<TransportKind>) -> bool {
        match (new, old) {
            (Some(n), Some(o)) => n.rank() < o.rank(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::FfEndpoint;
    use freeflow_types::OverlayIp;

    fn peer() -> FfEndpoint {
        FfEndpoint::new(OverlayIp::from_octets(10, 0, 0, 9), 1)
    }

    fn remote(t: TransportKind) -> FfPath {
        FfPath::Remote {
            peer: peer(),
            transport: t,
        }
    }

    fn local() -> FfPath {
        FfPath::Local { peer: peer() }
    }

    #[test]
    fn happy_path_upgrade_counts() {
        let mut b = PathBinding::new();
        assert_eq!(b.epoch(), 0);
        b.bind(remote(TransportKind::TcpHost), 1).unwrap();
        assert_eq!((b.epoch(), b.upgrades()), (1, 0));
        b.begin_rebind(RebindReason::Upgrade).unwrap();
        b.complete_rebind(remote(TransportKind::Rdma), 2).unwrap();
        assert_eq!((b.epoch(), b.upgrades()), (2, 1));
        // Downgrade (failover) does not count as an upgrade.
        b.begin_rebind(RebindReason::Failover).unwrap();
        b.complete_rebind(remote(TransportKind::TcpHost), 3)
            .unwrap();
        assert_eq!((b.epoch(), b.upgrades()), (3, 1));
    }

    #[test]
    fn collapse_to_local_is_an_upgrade() {
        let mut b = PathBinding::new();
        b.bind(remote(TransportKind::Rdma), 1).unwrap();
        b.begin_rebind(RebindReason::Collapse).unwrap();
        b.complete_rebind(local(), 2).unwrap();
        assert_eq!(b.upgrades(), 1);
        assert!(matches!(b.path(), FfPath::Local { .. }));
    }

    #[test]
    fn a_failover_carries_unsettled_work_across_the_rebind() {
        // No reason waits for unsettled work: the machine takes no count
        // of it, and every rebind completes from `Rebinding`.
        for reason in [
            RebindReason::Failover,
            RebindReason::Upgrade,
            RebindReason::Collapse,
            RebindReason::Migrate,
        ] {
            let mut b = PathBinding::new();
            b.bind(remote(TransportKind::Rdma), 1).unwrap();
            b.begin_rebind(reason).unwrap();
            assert_eq!(b.reason(), Some(reason));
            b.complete_rebind(remote(TransportKind::TcpHost), 2)
                .unwrap();
            assert_eq!((b.phase(), b.epoch()), (BindingPhase::Bound, 2));
        }
    }

    #[test]
    fn abort_keeps_old_path_but_not_for_failover() {
        let mut b = PathBinding::new();
        b.bind(remote(TransportKind::TcpHost), 1).unwrap();
        b.begin_rebind(RebindReason::Upgrade).unwrap();
        b.abort_rebind().unwrap();
        assert_eq!(b.phase(), BindingPhase::Bound);
        assert_eq!(b.path(), remote(TransportKind::TcpHost));

        b.begin_rebind(RebindReason::Failover).unwrap();
        assert!(b.abort_rebind().is_err());
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut b = PathBinding::new();
        assert!(b.begin_rebind(RebindReason::Upgrade).is_err());
        assert!(b.complete_rebind(local(), 1).is_err());
        assert!(b.bind(FfPath::Unbound, 1).is_err());
        b.bind(local(), 1).unwrap();
        assert!(b.bind(local(), 2).is_err());
        assert!(b.complete_rebind(local(), 2).is_err());
        b.begin_rebind(RebindReason::Upgrade).unwrap();
        assert!(b.begin_rebind(RebindReason::Upgrade).is_err());
        b.fail();
        assert!(b.begin_rebind(RebindReason::Failover).is_err());
        b.fail(); // idempotent
        assert_eq!(b.phase(), BindingPhase::Error);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Every external stimulus the machine can receive, as generated
        /// by proptest.
        #[derive(Debug, Clone, Copy)]
        enum Op {
            Bind(TransportKind),
            Rebind(RebindReason),
            Complete(TransportKind),
            CompleteLocal,
            Abort,
            Fail,
        }

        fn transport() -> impl Strategy<Value = TransportKind> {
            prop::sample::select(TransportKind::ALL.to_vec())
        }

        fn reason() -> impl Strategy<Value = RebindReason> {
            prop::sample::select(vec![
                RebindReason::Failover,
                RebindReason::Upgrade,
                RebindReason::Collapse,
                RebindReason::Migrate,
            ])
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                transport().prop_map(Op::Bind),
                reason().prop_map(Op::Rebind),
                transport().prop_map(Op::Complete),
                Just(Op::CompleteLocal),
                Just(Op::Abort),
                Just(Op::Fail),
            ]
        }

        /// A model ledger mirroring what FfQp does around the machine:
        /// WRs post while Bound, settle whenever their answers come, and
        /// every posted WR must resolve exactly once.
        struct Ledger {
            posted: u64,
            resolved: u64,
            outstanding: usize,
        }

        proptest! {
            /// Whatever sequence of stimuli arrives, the machine either
            /// performs a legal transition or rejects it leaving its
            /// state untouched — and the phase/path/epoch invariants
            /// hold throughout.
            #[test]
            fn transitions_are_total_and_consistent(ops in prop::collection::vec(op(), 1..64)) {
                let mut b = PathBinding::new();
                for op in ops {
                    let before = (b.phase(), b.path(), b.epoch(), b.upgrades());
                    let result = match op {
                        Op::Bind(t) => b.bind(remote(t), 1),
                        Op::Rebind(r) => b.begin_rebind(r),
                        Op::Complete(t) => b.complete_rebind(remote(t), 2),
                        Op::CompleteLocal => b.complete_rebind(local(), 2),
                        Op::Abort => b.abort_rebind(),
                        Op::Fail => {
                            b.fail();
                            Ok(())
                        }
                    };
                    if result.is_err() {
                        // Rejected transitions must not mutate anything.
                        prop_assert_eq!(before, (b.phase(), b.path(), b.epoch(), b.upgrades()));
                    }
                    // Global invariants.
                    match b.phase() {
                        BindingPhase::Unbound => {
                            prop_assert_eq!(b.path(), FfPath::Unbound);
                            prop_assert_eq!(b.epoch(), 0);
                        }
                        BindingPhase::Bound | BindingPhase::Rebinding => {
                            prop_assert_ne!(b.path(), FfPath::Unbound);
                            prop_assert!(b.epoch() >= 1);
                        }
                        BindingPhase::Error => {}
                    }
                    prop_assert!(b.upgrades() < b.epoch().max(1));
                    prop_assert_eq!(
                        b.reason().is_some(),
                        b.phase() == BindingPhase::Rebinding
                    );
                }
            }

            /// Completion-conservation across randomized
            /// fail/upgrade/migrate sequences: drive the machine the way
            /// FfQp does (post while bound, carry the outstanding ops
            /// across every rebind, whatever its reason) and check every
            /// posted WR resolves exactly once.
            #[test]
            fn completion_conservation(
                script in prop::collection::vec(
                    prop_oneof![
                        Just("post"),
                        Just("fail_transport"),
                        Just("upgrade"),
                        Just("migrate"),
                        Just("settle"),
                    ],
                    1..128,
                )
            ) {
                let mut b = PathBinding::new();
                b.bind(remote(TransportKind::Rdma), 1).unwrap();
                let mut ledger = Ledger { posted: 0, resolved: 0, outstanding: 0 };
                let mut gen = 1u64;
                for step in script {
                    let (reason, next) = match step {
                        "post" => {
                            // Posts only land while Bound; mid-rebind the
                            // owner parks them (not in this ledger —
                            // parked WRs are not yet posted to a path).
                            if b.phase() == BindingPhase::Bound {
                                ledger.posted += 1;
                                ledger.outstanding += 1;
                            }
                            continue;
                        }
                        "settle" => {
                            if ledger.outstanding > 0 {
                                ledger.outstanding -= 1;
                                ledger.resolved += 1;
                            }
                            continue;
                        }
                        "fail_transport" => (RebindReason::Failover, remote(TransportKind::TcpHost)),
                        "upgrade" => (RebindReason::Upgrade, remote(TransportKind::Rdma)),
                        "migrate" => (RebindReason::Collapse, local()),
                        _ => unreachable!(),
                    };
                    // Every rebind: the outstanding ops cross onto the new
                    // path, re-sent there, and settle later like any other.
                    if b.phase() == BindingPhase::Bound {
                        b.begin_rebind(reason).unwrap();
                        gen += 1;
                        b.complete_rebind(next, gen).unwrap();
                    }
                    // No WR is ever lost or double-counted.
                    prop_assert_eq!(
                        ledger.posted,
                        ledger.resolved + ledger.outstanding as u64
                    );
                }
                // At the end, everything still outstanding resolves.
                ledger.resolved += ledger.outstanding as u64;
                ledger.outstanding = 0;
                prop_assert_eq!(ledger.posted, ledger.resolved);
            }
        }
    }
}
