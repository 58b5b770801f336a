//! The path-binding lifecycle: one state machine for every transition a
//! virtual queue pair's data plane can make.
//!
//! Before this module, connect-time binding, failure failover, and the
//! (unimplemented) migration/recovery transitions were hand-rolled across
//! `qp.rs`, `cluster.rs` and the library pump. [`PathBinding`] centralizes
//! them:
//!
//! ```text
//!              bind
//!   Unbound ────────▶ Bound{Local|Remote}
//!                       │  ▲          │
//!           begin_drain │  │ abort /  │ fail
//!                       ▼  │ complete ▼
//!                   Draining ─────▶ Error
//!                       │  begin_rebind
//!                       ▼
//!                   Rebinding ──complete_rebind──▶ Bound   (epoch += 1)
//! ```
//!
//! Three rules make live re-pathing safe:
//!
//! * **Epochs.** Each successful (re)bind starts a new *binding epoch*
//!   (`bind` → epoch 1, every `complete_rebind` increments). RC ordering
//!   is guaranteed *within* an epoch; a rebind is the explicit boundary at
//!   which in-flight work must already have settled.
//! * **Drain before rebind.** `begin_rebind` refuses while the caller
//!   still reports unsettled operations — every posted WR must resolve
//!   (success, `RETRY_EXC_ERR`, or flush) before the path may change.
//!   This is the completion-conservation invariant.
//! * **Reasons.** Every drain carries a [`RebindReason`]. A `Failover`
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
    /// This container is being live-migrated to another host: a planned
    /// quiesce that parks the binding in `Draining` until the migration
    /// commits (thaw resolves the new path from the target host) or
    /// aborts (thaw falls back onto the old, still-working path).
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
    /// A rebind was requested; new sends park while in-flight operations
    /// settle.
    Draining,
    /// In-flight work has settled; the new path is being established.
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
            BindingPhase::Draining => "draining",
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
/// access and performs the actual drains/replays around these
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
    /// Why the in-progress drain/rebind was started (None when Bound).
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

    /// The bound path (`FfPath::Unbound` before the first bind; during
    /// Draining/Rebinding this is still the *old* path).
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

    /// Why the in-progress drain/rebind was started, if one is.
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

    /// Start tearing down the current path: `Bound → Draining`.
    pub fn begin_drain(&mut self, reason: RebindReason) -> Result<(), BindingError> {
        if self.phase != BindingPhase::Bound {
            return Err(self.err("begin_drain", "only a bound path can drain"));
        }
        self.phase = BindingPhase::Draining;
        self.reason = Some(reason);
        Ok(())
    }

    /// Drain finished: `Draining → Rebinding`. Refused while the owner
    /// still has unsettled work — completion-conservation demands every
    /// posted WR resolve inside the old epoch.
    pub fn begin_rebind(&mut self, unsettled: usize) -> Result<(), BindingError> {
        if self.phase != BindingPhase::Draining {
            return Err(self.err("begin_rebind", "rebind must follow a drain"));
        }
        if unsettled != 0 {
            return Err(self.err("begin_rebind", "in-flight operations not yet settled"));
        }
        self.phase = BindingPhase::Rebinding;
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

    /// Give up on an in-progress drain/rebind and keep the old path:
    /// `Draining | Rebinding → Bound`. Only sound for planned rebinds
    /// (upgrade/collapse) where the old path still works; a failover has
    /// no path to fall back to and must [`PathBinding::fail`] instead.
    pub fn abort_rebind(&mut self) -> Result<(), BindingError> {
        match self.phase {
            BindingPhase::Draining | BindingPhase::Rebinding => {}
            _ => return Err(self.err("abort_rebind", "no drain or rebind in progress")),
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

/// A lock-free, subscribe-only view of one QP's binding, published by the
/// owning `FfQp` at every lifecycle transition.
///
/// Layers above the QP (the socket mux's transport-aware reliability, in
/// particular) need to ask two questions without taking the QP's inner
/// lock: *is the path settled right now?* and *has it changed since I
/// last looked?* — the first gates when a sequence-resync handshake may
/// be sent (resyncing into a still-draining path would race the parked
/// replay), the second lets a reader detect rebinds it slept through.
///
/// All loads/stores are individually atomic; a reader that needs a
/// consistent (phase, epoch) pair should read `version` before and after
/// and retry on mismatch — in practice the mux only needs the monotone
/// `settled`/`epoch` signals, which are safe to read independently.
///
/// Every publish rings the QP's receive-CQ bell, so a pump parked on that
/// CQ (the socket channel's) reacts to a transition without a timer.
#[derive(Debug)]
pub struct PathSignal {
    epoch: std::sync::atomic::AtomicU64,
    phase: std::sync::atomic::AtomicU8,
    transport: std::sync::atomic::AtomicU8,
    version: std::sync::atomic::AtomicU64,
    bell: std::sync::Arc<freeflow_shmem::Doorbell>,
}

impl PathSignal {
    const NO_TRANSPORT: u8 = u8::MAX;

    pub(crate) fn new(bell: std::sync::Arc<freeflow_shmem::Doorbell>) -> Self {
        Self {
            epoch: std::sync::atomic::AtomicU64::new(0),
            phase: std::sync::atomic::AtomicU8::new(Self::phase_code(BindingPhase::Unbound)),
            transport: std::sync::atomic::AtomicU8::new(Self::NO_TRANSPORT),
            version: std::sync::atomic::AtomicU64::new(0),
            bell,
        }
    }

    const fn phase_code(p: BindingPhase) -> u8 {
        match p {
            BindingPhase::Unbound => 0,
            BindingPhase::Bound => 1,
            BindingPhase::Draining => 2,
            BindingPhase::Rebinding => 3,
            BindingPhase::Error => 4,
        }
    }

    fn code_phase(c: u8) -> BindingPhase {
        match c {
            0 => BindingPhase::Unbound,
            1 => BindingPhase::Bound,
            2 => BindingPhase::Draining,
            3 => BindingPhase::Rebinding,
            _ => BindingPhase::Error,
        }
    }

    /// Publish the binding's current (phase, epoch, transport). Called by
    /// the owner under its own serialization; readers are lock-free.
    pub(crate) fn publish(&self, binding: &PathBinding) {
        use std::sync::atomic::Ordering;
        self.epoch.store(binding.epoch(), Ordering::Release);
        self.transport.store(
            binding
                .path()
                .transport()
                .map(|t| t.rank())
                .unwrap_or(Self::NO_TRANSPORT),
            Ordering::Release,
        );
        self.phase
            .store(Self::phase_code(binding.phase()), Ordering::Release);
        self.version.fetch_add(1, Ordering::AcqRel);
        self.bell.ring();
    }

    /// The binding epoch at the last publish.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::Acquire)
    }

    /// The lifecycle phase at the last publish.
    pub fn phase(&self) -> BindingPhase {
        Self::code_phase(self.phase.load(std::sync::atomic::Ordering::Acquire))
    }

    /// Whether the QP currently has a live, settled path (`Bound`). Every
    /// data plane FreeFlow binds — shared memory, RC RDMA, the relayed
    /// DPDK/TCP wires — delivers reliably *within* a binding epoch; it is
    /// the epoch boundaries (drain → rebind) where frames can be flushed.
    /// So "settled" is exactly the window in which the mux's seq layer
    /// may stay passive, and the window a resync handshake must wait for.
    pub fn settled(&self) -> bool {
        self.phase() == BindingPhase::Bound
    }

    /// Transport rank of the bound path (`None` while unbound/errored).
    pub fn transport_rank(&self) -> Option<u8> {
        match self.transport.load(std::sync::atomic::Ordering::Acquire) {
            Self::NO_TRANSPORT => None,
            r => Some(r),
        }
    }

    /// Monotone publish counter: bump ⇒ something changed.
    pub fn version(&self) -> u64 {
        self.version.load(std::sync::atomic::Ordering::Acquire)
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
        b.begin_drain(RebindReason::Upgrade).unwrap();
        b.begin_rebind(0).unwrap();
        b.complete_rebind(remote(TransportKind::Rdma), 2).unwrap();
        assert_eq!((b.epoch(), b.upgrades()), (2, 1));
        // Downgrade (failover) does not count as an upgrade.
        b.begin_drain(RebindReason::Failover).unwrap();
        b.begin_rebind(0).unwrap();
        b.complete_rebind(remote(TransportKind::TcpHost), 3)
            .unwrap();
        assert_eq!((b.epoch(), b.upgrades()), (3, 1));
    }

    #[test]
    fn collapse_to_local_is_an_upgrade() {
        let mut b = PathBinding::new();
        b.bind(remote(TransportKind::Rdma), 1).unwrap();
        b.begin_drain(RebindReason::Collapse).unwrap();
        b.begin_rebind(0).unwrap();
        b.complete_rebind(local(), 2).unwrap();
        assert_eq!(b.upgrades(), 1);
        assert!(matches!(b.path(), FfPath::Local { .. }));
    }

    #[test]
    fn rebind_refused_with_unsettled_work() {
        let mut b = PathBinding::new();
        b.bind(remote(TransportKind::Rdma), 1).unwrap();
        b.begin_drain(RebindReason::Upgrade).unwrap();
        assert!(b.begin_rebind(3).is_err());
        assert_eq!(b.phase(), BindingPhase::Draining);
        b.begin_rebind(0).unwrap();
    }

    #[test]
    fn abort_keeps_old_path_but_not_for_failover() {
        let mut b = PathBinding::new();
        b.bind(remote(TransportKind::TcpHost), 1).unwrap();
        b.begin_drain(RebindReason::Upgrade).unwrap();
        b.abort_rebind().unwrap();
        assert_eq!(b.phase(), BindingPhase::Bound);
        assert_eq!(b.path(), remote(TransportKind::TcpHost));

        b.begin_drain(RebindReason::Failover).unwrap();
        assert!(b.abort_rebind().is_err());
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut b = PathBinding::new();
        assert!(b.begin_drain(RebindReason::Upgrade).is_err());
        assert!(b.begin_rebind(0).is_err());
        assert!(b.complete_rebind(local(), 1).is_err());
        assert!(b.bind(FfPath::Unbound, 1).is_err());
        b.bind(local(), 1).unwrap();
        assert!(b.bind(local(), 2).is_err());
        assert!(b.complete_rebind(local(), 2).is_err());
        b.fail();
        assert!(b.begin_drain(RebindReason::Failover).is_err());
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
            Drain(RebindReason),
            /// `begin_rebind` with this many ops still unsettled.
            Rebind(usize),
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
                reason().prop_map(Op::Drain),
                (0usize..3).prop_map(Op::Rebind),
                transport().prop_map(Op::Complete),
                Just(Op::CompleteLocal),
                Just(Op::Abort),
                Just(Op::Fail),
            ]
        }

        /// A model ledger mirroring what FfQp does around the machine:
        /// WRs post while Bound, settle during a drain, and every posted
        /// WR must resolve exactly once.
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
                        Op::Drain(r) => b.begin_drain(r),
                        Op::Rebind(n) => b.begin_rebind(n),
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
                        BindingPhase::Bound
                        | BindingPhase::Draining
                        | BindingPhase::Rebinding => {
                            prop_assert_ne!(b.path(), FfPath::Unbound);
                            prop_assert!(b.epoch() >= 1);
                        }
                        BindingPhase::Error => {}
                    }
                    prop_assert!(b.upgrades() < b.epoch().max(1));
                    prop_assert_eq!(
                        b.reason().is_some(),
                        matches!(b.phase(), BindingPhase::Draining | BindingPhase::Rebinding)
                    );
                }
            }

            /// Completion-conservation across randomized
            /// fail/upgrade/migrate sequences: drive the machine the way
            /// FfQp does (post while bound, settle on drain) and check
            /// every posted WR resolves exactly once, with no resolution
            /// ever happening across an epoch boundary.
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
                    match step {
                        "post" => {
                            // Posts only land while Bound; during a drain
                            // the owner parks them (not in this ledger —
                            // parked WRs are not yet posted to a path).
                            if b.phase() == BindingPhase::Bound {
                                ledger.posted += 1;
                                ledger.outstanding += 1;
                            }
                        }
                        "settle" => {
                            if ledger.outstanding > 0 {
                                ledger.outstanding -= 1;
                                ledger.resolved += 1;
                            }
                        }
                        "fail_transport" => {
                            // Reactive failover: flush everything
                            // outstanding (RETRY_EXC_ERR), then rebind.
                            if b.phase() == BindingPhase::Bound {
                                b.begin_drain(RebindReason::Failover).unwrap();
                                ledger.resolved += ledger.outstanding as u64;
                                ledger.outstanding = 0;
                                b.begin_rebind(ledger.outstanding).unwrap();
                                b.complete_rebind(remote(TransportKind::TcpHost), {
                                    gen += 1;
                                    gen
                                }).unwrap();
                            }
                        }
                        "upgrade" | "migrate" => {
                            // Planned rebind: wait for natural settles
                            // (modelled by draining the ledger), then
                            // switch paths.
                            if b.phase() == BindingPhase::Bound {
                                b.begin_drain(if step == "upgrade" {
                                    RebindReason::Upgrade
                                } else {
                                    RebindReason::Collapse
                                }).unwrap();
                                while ledger.outstanding > 0 {
                                    ledger.outstanding -= 1;
                                    ledger.resolved += 1;
                                }
                                b.begin_rebind(ledger.outstanding).unwrap();
                                let next = if step == "upgrade" {
                                    remote(TransportKind::Rdma)
                                } else {
                                    local()
                                };
                                b.complete_rebind(next, { gen += 1; gen }).unwrap();
                            }
                        }
                        _ => unreachable!(),
                    }
                    // No WR is ever lost or double-counted.
                    prop_assert_eq!(
                        ledger.posted,
                        ledger.resolved + ledger.outstanding as u64
                    );
                }
                // Final drain: everything still outstanding resolves.
                ledger.resolved += ledger.outstanding as u64;
                ledger.outstanding = 0;
                prop_assert_eq!(ledger.posted, ledger.resolved);
            }
        }
    }
}
