//! The virtual queue pair: standard Verbs on top, path selection below.
//!
//! An [`FfQp`] presents exactly the `freeflow-verbs` surface — the same
//! state machine, work-request types and completion semantics — but binds
//! to one of two data planes at connection time (paper §5):
//!
//! * **Local** — the peer is on this host: the FfQp delegates to a real
//!   `freeflow-verbs` queue pair on the host's verbs fabric. Memory
//!   regions are arena-backed by default, so the resulting `WRITE`s and
//!   `SEND`s move bytes inside the host's shared segment — the paper's
//!   intra-host shared-memory flow.
//! * **Remote** — the peer is elsewhere: operations are encoded as
//!   [`RelayMsg`]s and handed to the host agent over the shared-memory
//!   channel (large payloads as arena descriptors, the §5 "pass the
//!   pointer" step). The agent ships them over the RDMA/DPDK/TCP wire
//!   the orchestrator chose; the peer's FfQp executes them (receive
//!   matching, rkey checks) and acks back. Completions carry the same
//!   verbs `WorkCompletion` type either way.
//!
//! The application cannot tell the difference — FreeFlow's transparency
//! claim, testable here because both paths run under one API.
//!
//! The *lifecycle* of a binding — connect-time bind, reactive failover,
//! planned TCP→RDMA upgrade after `restore_nic`, and Remote→Local
//! collapse after a peer migrates onto this host — is owned by
//! [`crate::binding::PathBinding`]; this module performs the drains,
//! replays and verbs bring-up around its transitions (see DESIGN.md §7).

use crate::binding::{BindingPhase, PathBinding, PathSignal, RebindReason};
use crate::endpoint::FfEndpoint;
use crate::library::LibShared;
use bytes::Bytes;
use freeflow_agent::proto::{status as st, RelayMsg, RelayPayload, WireEp};
use freeflow_agent::ZERO_COPY_THRESHOLD;
use freeflow_telemetry::{Counter, Event, Histogram, LabelSet, Telemetry, TransitionKind};
use freeflow_types::TransportKind;
use freeflow_verbs::wr::{RecvWr, SendWr, Sge, WcOpcode, WorkCompletion, WrOpcode};
use freeflow_verbs::{
    CompletionQueue, MemoryRegion, QpState, QueuePair, VerbsError, VerbsResult, WcStatus,
};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default bound on how long a remote operation may stay unanswered
/// before the QP declares the transport dead (see
/// [`FfQp::set_relay_timeout`]). This is the only timer on a relayed
/// operation, as on a real RC NIC: the agent nacks at once when a wire is
/// down or stays full, and keeps no per-request state to time the rest.
const DEFAULT_OP_TIMEOUT: Duration = Duration::from_secs(1);

/// Which data plane this QP is bound to (after RTR).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FfPath {
    /// Not yet connected.
    Unbound,
    /// Peer co-located: direct verbs over the host arena (shared memory).
    Local {
        /// The connected peer.
        peer: FfEndpoint,
    },
    /// Peer remote: relayed through agents over the given transport.
    Remote {
        /// The connected peer.
        peer: FfEndpoint,
        /// The wire transport the orchestrator selected.
        transport: TransportKind,
    },
}

impl FfPath {
    /// The effective transport (None before connect).
    pub fn transport(&self) -> Option<TransportKind> {
        match self {
            FfPath::Unbound => None,
            FfPath::Local { .. } => Some(TransportKind::SharedMemory),
            FfPath::Remote { transport, .. } => Some(*transport),
        }
    }

    /// Interned label for flight-recorder events: the transport name, or
    /// `"unbound"` before connect.
    pub fn label(&self) -> &'static str {
        match self.transport() {
            Some(t) => t.as_str(),
            None => "unbound",
        }
    }
}

/// Interned label for a drain/rebind reason.
fn reason_label(reason: Option<RebindReason>) -> Option<&'static str> {
    reason.map(|r| match r {
        RebindReason::Failover => "failover",
        RebindReason::Upgrade => "upgrade",
        RebindReason::Collapse => "collapse",
        RebindReason::Migrate => "migrate",
    })
}

struct PendingSend {
    wr_id: u64,
    signaled: bool,
    opcode: WcOpcode,
    /// When the op counts as lost if still unanswered.
    deadline: Instant,
    /// When the op was posted (remote-op latency histogram).
    posted_at: Instant,
}

struct PendingRead {
    wr_id: u64,
    signaled: bool,
    sge: Vec<Sge>,
    /// When the op counts as lost if still unanswered.
    deadline: Instant,
    /// When the op was posted (remote-op latency histogram).
    posted_at: Instant,
}

struct InboundSend {
    src: WireEp,
    op_id: u64,
    payload: Option<Bytes>,
    byte_len: u64,
    imm: Option<u32>,
}

struct QpInner {
    state: QpState,
    /// The data-plane binding: path + lifecycle phase + epoch/upgrade
    /// counters, one state machine for every transition.
    binding: PathBinding,
    /// Remote path: posted receives.
    rq: VecDeque<RecvWr>,
    /// Remote path: inbound sends parked for a receive (RNR semantics).
    inbound_pending: VecDeque<InboundSend>,
    /// Remote path: sends/writes awaiting Ack/Nack, keyed by wire op id.
    pending_sends: HashMap<u64, PendingSend>,
    /// Remote path: READs awaiting their response.
    pending_reads: HashMap<u64, PendingRead>,
    /// Sends accepted while the binding is draining/rebinding (or while
    /// a replay is dispatching): transmitted in order once Bound again.
    parked_sends: VecDeque<SendWr>,
    /// True while `replay_parked` is dispatching outside the lock; new
    /// application posts must park behind the queue to keep RC order.
    replaying: bool,
    next_op_id: u64,
}

/// A FreeFlow virtual queue pair.
pub struct FfQp {
    lib: Arc<LibShared>,
    verbs_qp: Arc<QueuePair>,
    send_cq: Arc<CompletionQueue>,
    recv_cq: Arc<CompletionQueue>,
    sq_depth: usize,
    rq_depth: usize,
    inner: Mutex<QpInner>,
    /// Lock-free binding view for layers above (socket mux reliability):
    /// published at every lifecycle transition, readable without the
    /// inner lock.
    signal: Arc<PathSignal>,
    /// Per-op answer timeout in nanoseconds.
    op_timeout_ns: AtomicU64,
    /// Set while the cluster's live-migration driver holds this QP's
    /// binding frozen in `Draining`: the pump must not advance the
    /// lifecycle until the migration commits or aborts (the thaw).
    migration_hold: AtomicBool,
    /// Held while the lifecycle advances. The pump's walk and a migration
    /// thaw both advance it; two at once could both bring the verbs QP up
    /// for a collapse, and the loser would abort the collapse.
    advancing: Mutex<()>,
    /// How many times this QP re-established its path after a transport
    /// failure (tests/diagnostics).
    failovers: AtomicU64,
    /// Pre-registered cluster-hub counters mirroring the binding
    /// lifecycle: every increment has a matching flight-recorder event.
    tm_failovers: Arc<Counter>,
    tm_rebinds: Arc<Counter>,
    tm_upgrades: Arc<Counter>,
    /// Post-to-answer latency of relayed (remote-path) operations.
    tm_remote_latency: Arc<Histogram>,
}

impl FfQp {
    pub(crate) fn create(
        lib: Arc<LibShared>,
        verbs_qp: Arc<QueuePair>,
        send_cq: Arc<CompletionQueue>,
        recv_cq: Arc<CompletionQueue>,
        sq_depth: usize,
        rq_depth: usize,
    ) -> Arc<Self> {
        let labels = LabelSet::host(lib.host().raw()).with_container(lib.id.raw());
        let reg = lib.telemetry.registry();
        let tm_failovers = reg.counter(
            "ff_qp_failovers_total",
            "reactive re-paths after a transport death",
            labels,
        );
        let tm_rebinds = reg.counter(
            "ff_qp_rebinds_total",
            "completed rebinds (failover, upgrade or collapse)",
            labels,
        );
        let tm_upgrades = reg.counter(
            "ff_qp_upgrades_total",
            "completed rebinds that strictly improved the transport",
            labels,
        );
        let tm_remote_latency = reg.histogram(
            "ff_qp_remote_op_latency_ns",
            "relayed operation post-to-answer latency, nanoseconds",
            labels,
        );
        let signal = Arc::new(PathSignal::new(Arc::clone(recv_cq.doorbell())));
        Arc::new(Self {
            lib,
            verbs_qp,
            send_cq,
            recv_cq,
            sq_depth: sq_depth.max(1),
            rq_depth: rq_depth.max(1),
            inner: Mutex::new(QpInner {
                state: QpState::Reset,
                binding: PathBinding::new(),
                rq: VecDeque::new(),
                inbound_pending: VecDeque::new(),
                pending_sends: HashMap::new(),
                pending_reads: HashMap::new(),
                parked_sends: VecDeque::new(),
                replaying: false,
                next_op_id: 1,
            }),
            signal,
            op_timeout_ns: AtomicU64::new(DEFAULT_OP_TIMEOUT.as_nanos() as u64),
            migration_hold: AtomicBool::new(false),
            advancing: Mutex::new(()),
            failovers: AtomicU64::new(0),
            tm_failovers,
            tm_rebinds,
            tm_upgrades,
            tm_remote_latency,
        })
    }

    /// The telemetry hub this QP reports into (the cluster's; exposed so
    /// higher layers — sockets, MPI — can share its registry and
    /// recorder).
    pub fn telemetry_hub(&self) -> Arc<Telemetry> {
        Arc::clone(&self.lib.telemetry)
    }

    /// Append one path-transition event to the flight recorder. Callers
    /// pass the epoch the event is *about*: the old epoch for drains and
    /// aborts, the new epoch for `Bound`/`Rebound`.
    fn record_transition(
        &self,
        kind: TransitionKind,
        reason: Option<RebindReason>,
        epoch: u64,
        from: &'static str,
        to: &'static str,
        upgrade: bool,
    ) {
        self.lib.telemetry.record(Event::PathTransition {
            container: self.lib.id.raw(),
            qpn: self.qp_num(),
            kind,
            reason: reason_label(reason),
            epoch,
            from,
            to,
            upgrade,
        });
    }

    /// The QP number (stable; shared with the underlying verbs QP).
    pub fn qp_num(&self) -> u32 {
        self.verbs_qp.qp_num()
    }

    /// The endpoint to hand to the peer out of band.
    pub fn endpoint(&self) -> FfEndpoint {
        FfEndpoint::new(self.lib.ip, self.qp_num())
    }

    /// Current state.
    pub fn state(&self) -> QpState {
        self.inner.lock().state
    }

    /// The bound path — lets tests and operators verify which data plane
    /// the orchestrator picked; applications never need it.
    pub fn path(&self) -> FfPath {
        self.inner.lock().binding.path()
    }

    /// The binding lifecycle phase (diagnostics/tests).
    pub fn binding_phase(&self) -> BindingPhase {
        self.inner.lock().binding.phase()
    }

    /// The lock-free binding signal: (phase, epoch, transport) published
    /// at every lifecycle transition. The socket mux subscribes to this
    /// to decide when its reliability layer must arm (a rebind epoch is
    /// crossing) and when a sequence resync may be sent (the path is
    /// settled again).
    pub fn path_signal(&self) -> Arc<PathSignal> {
        Arc::clone(&self.signal)
    }

    /// The current binding epoch: 1 after connect, +1 for every completed
    /// rebind (failover, upgrade or collapse). RC ordering is guaranteed
    /// within one epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().binding.epoch()
    }

    /// How many completed rebinds strictly improved the transport — e.g.
    /// TCP back to RDMA after `restore_nic`, or a Remote→Local collapse
    /// onto shared memory after the peer migrated here.
    pub fn upgrade_count(&self) -> u64 {
        self.inner.lock().binding.upgrades()
    }

    /// The send CQ.
    pub fn send_cq(&self) -> &Arc<CompletionQueue> {
        &self.send_cq
    }

    /// The recv CQ.
    pub fn recv_cq(&self) -> &Arc<CompletionQueue> {
        &self.recv_cq
    }

    // --- state machine ---------------------------------------------------

    /// `RESET → INIT`.
    pub fn modify_to_init(&self) -> VerbsResult<()> {
        let mut inner = self.inner.lock();
        if inner.state != QpState::Reset {
            return Err(VerbsError::InvalidQpState {
                actual: inner.state.name(),
                required: "RESET",
            });
        }
        inner.state = QpState::Init;
        Ok(())
    }

    /// `INIT → RTR`: resolve the peer's location through the library's
    /// cache + the orchestrator, and bind the data plane.
    pub fn modify_to_rtr(&self, peer: FfEndpoint) -> VerbsResult<()> {
        let resolved = self
            .lib
            .resolve(peer.ip)
            .map_err(|e| VerbsError::PeerUnreachable {
                detail: e.to_string(),
            })?;
        let mut inner = self.inner.lock();
        if inner.state != QpState::Init {
            return Err(VerbsError::InvalidQpState {
                actual: inner.state.name(),
                required: "INIT",
            });
        }
        // The direct (shared-segment) path binds only when the peer is
        // co-located *and* policy granted a kernel-bypass transport; a
        // co-located pair under a no-bypass policy rides the relay so the
        // isolation decision actually holds on the data path.
        let path = if resolved.local && resolved.transport.kernel_bypass() {
            self.verbs_qp.modify_to_init()?;
            self.verbs_qp.modify_to_rtr(peer.verbs())?;
            FfPath::Local { peer }
        } else {
            FfPath::Remote {
                peer,
                transport: resolved.transport,
            }
        };
        inner
            .binding
            .bind(path, resolved.generation)
            .map_err(|_| VerbsError::InvalidQpState {
                actual: inner.binding.phase().name(),
                required: "unbound binding",
            })?;
        inner.state = QpState::Rtr;
        self.signal.publish(&inner.binding);
        self.record_transition(
            TransitionKind::Bound,
            None,
            inner.binding.epoch(),
            "unbound",
            path.label(),
            false,
        );
        Ok(())
    }

    /// `RTR → RTS`.
    pub fn modify_to_rts(&self) -> VerbsResult<()> {
        let mut inner = self.inner.lock();
        if inner.state != QpState::Rtr {
            return Err(VerbsError::InvalidQpState {
                actual: inner.state.name(),
                required: "RTR",
            });
        }
        if matches!(inner.binding.path(), FfPath::Local { .. }) {
            self.verbs_qp.modify_to_rts()?;
        }
        inner.state = QpState::Rts;
        Ok(())
    }

    /// Convenience: full `RESET → RTS` connection.
    pub fn connect(&self, peer: FfEndpoint) -> VerbsResult<()> {
        self.modify_to_init()?;
        self.modify_to_rtr(peer)?;
        self.modify_to_rts()
    }

    /// Force the error state, flushing receives (both paths) and any
    /// sends still parked behind an unfinished rebind.
    pub fn enter_error(&self) {
        self.fail_with(None);
    }

    /// Enter the error state, *then* deliver the completion that caused it
    /// (if any), then the flushes. Verbs order: whoever observes an error
    /// completion must find the QP already in `Error`, exactly as a NIC
    /// moves the QP before it writes the CQE.
    fn fail_with(&self, cause: Option<(&CompletionQueue, WorkCompletion)>) {
        let flush = {
            let mut inner = self.inner.lock();
            if inner.state == QpState::Error {
                None
            } else {
                inner.state = QpState::Error;
                let old = inner.binding.path().label();
                let reason = inner.binding.reason();
                let epoch = inner.binding.epoch();
                inner.binding.fail();
                self.signal.publish(&inner.binding);
                self.record_transition(TransitionKind::Failed, reason, epoch, old, "error", false);
                let parked: Vec<SendWr> = inner.parked_sends.drain(..).collect();
                let recvs = if matches!(inner.binding.path(), FfPath::Local { .. }) {
                    self.verbs_qp.enter_error();
                    Vec::new() // verbs QP flushes its own queue
                } else {
                    inner.rq.drain(..).collect()
                };
                Some((recvs, parked))
            }
        };
        if let Some((cq, wc)) = cause {
            cq.push(wc);
        }
        let Some((flushed, parked)) = flush else {
            return;
        };
        for wr in flushed {
            let wc = self.wc(wr.wr_id, WcStatus::WrFlushError, WcOpcode::Recv, 0);
            self.recv_cq.push(wc);
        }
        for wr in parked {
            // Accepted but never transmitted: flush, exactly once.
            let wc = self.wc(wr.wr_id, WcStatus::WrFlushError, Self::wc_opcode_of(&wr), 0);
            self.send_cq.push(wc);
        }
    }

    /// Whether the peer's location entry is still the one this QP resolved
    /// its path under. `false` means the peer migrated: the connection is
    /// stale and should be re-established (see [`crate::migrate`]).
    pub fn path_is_current(&self) -> bool {
        let inner = self.inner.lock();
        let peer_ip = match inner.binding.path() {
            FfPath::Local { peer } | FfPath::Remote { peer, .. } => peer.ip,
            FfPath::Unbound => return true,
        };
        self.lib
            .cache
            .is_current(peer_ip, inner.binding.generation())
    }

    /// Bound how long a remote operation may stay unanswered before the
    /// QP declares the transport dead and fails over (default 1 s). A
    /// reply lost on the wire or at a crashed peer surfaces only here.
    pub fn set_relay_timeout(&self, timeout: Duration) {
        self.op_timeout_ns
            .store(timeout.as_nanos() as u64, Ordering::Relaxed);
    }

    /// How many times this QP survived a transport failure by re-pathing.
    pub fn failover_count(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    fn op_deadline(&self) -> Instant {
        Instant::now() + Duration::from_nanos(self.op_timeout_ns.load(Ordering::Relaxed))
    }

    // --- transport failure & failover ---------------------------------------

    /// Called from the library pump: if any pending remote op outlived its
    /// deadline, treat the transport as dead (no partial expiry — RC
    /// semantics are ordered, so one lost op means the path is gone). The
    /// flight recorder gets a [`Event::RelayExpired`] with the number of
    /// overdue ops, so a silent loss reads apart from a nacked one.
    /// Returns the earliest deadline still pending, if any.
    pub fn sweep_timeouts(&self) -> Option<Instant> {
        let now = Instant::now();
        let (mut expired, mut next) = (0, None::<Instant>);
        {
            let inner = self.inner.lock();
            let pending = (inner.pending_sends.values().map(|p| p.deadline))
                .chain(inner.pending_reads.values().map(|p| p.deadline));
            for at in pending {
                if at <= now {
                    expired += 1;
                } else {
                    next = Some(next.map_or(at, |n| n.min(at)));
                }
            }
        }
        if expired == 0 {
            return next;
        }
        self.lib.telemetry.record(Event::RelayExpired {
            host: self.lib.host().raw(),
            entries: expired as u32,
        });
        // Every pending op is flushed with the failure.
        self.on_transport_failure(false);
        None
    }

    /// The path to the peer died. Every outstanding send/write/read
    /// completes with [`WcStatus::RetryExcError`] — mirroring what a real
    /// RC QP reports when transport retries exhaust — and the QP asks the
    /// orchestrator for a fresh path. Posted receives survive: after a
    /// successful re-path the connection keeps working; only if no path
    /// remains does the QP fall into the error state. `stale_route`: the
    /// agent dropped the op on a downed wire while another wire to the
    /// peer's host is up ([`st::STALE_ROUTE`]).
    fn on_transport_failure(&self, stale_route: bool) {
        let (sends, reads, mid_rebind) = {
            let mut inner = self.inner.lock();
            (
                std::mem::take(&mut inner.pending_sends),
                std::mem::take(&mut inner.pending_reads),
                !matches!(inner.binding.phase(), BindingPhase::Bound),
            )
        };
        // Settle the QP first (re-path or error state), *then* deliver the
        // failed completions: a consumer that observes RETRY_EXC_ERR must
        // be able to rely on the QP having already reached its post-fault
        // state, exactly as a hardware NIC transitions the QP to error
        // before flushing its WRs. A binding already mid-drain/rebind
        // only needs the flush: the in-progress rebind supplies the new
        // path (or the error state) on the pump.
        if !mid_rebind && !self.try_repath(stale_route) {
            self.enter_error();
        }
        for (_, p) in sends {
            let wc = self.wc(p.wr_id, WcStatus::RetryExcError, p.opcode, 0);
            self.send_cq.push(wc);
        }
        for (_, p) in reads {
            let wc = self.wc(p.wr_id, WcStatus::RetryExcError, WcOpcode::RdmaRead, 0);
            self.send_cq.push(wc);
        }
    }

    /// Re-run path selection for the current peer (FreeFlow's failover:
    /// the orchestrator knows which transports still work). Returns
    /// whether a usable path is bound or a rebind is now in progress.
    fn try_repath(&self, stale_route: bool) -> bool {
        let (peer, dead) = {
            let inner = self.inner.lock();
            match (inner.state, inner.binding.phase(), inner.binding.path()) {
                (
                    QpState::Rts | QpState::Rtr,
                    BindingPhase::Bound,
                    FfPath::Remote { peer, transport },
                ) => (peer, transport),
                // Local paths ride the verbs fabric (no wire to fail
                // over); unbound/errored/mid-rebind QPs have nothing to
                // rebind here.
                _ => return false,
            }
        };
        // Drop the stale location entry so resolve() asks the
        // orchestrator, which has the current health picture.
        self.lib.cache.invalidate(peer.ip);
        let resolved = match self.lib.resolve(peer.ip) {
            Ok(r) => r,
            Err(_) => return false,
        };
        let collapses = resolved.local && resolved.transport.kernel_bypass();
        if !collapses && resolved.transport == dead {
            // The orchestrator handed back the very transport that just
            // died. After a stale-route loss that is right: the op died on
            // the old path's wire because forwarding has not converged
            // onto this one yet, so the QP stays bound — the flush is the
            // whole outcome and later posts ride the converged route.
            // Otherwise it would be a no-op rebind that spins (bumping
            // failover_count forever) instead of surfacing the failure:
            // fall through to the error state.
            return stale_route;
        }
        let mut inner = self.inner.lock();
        if inner.binding.begin_drain(RebindReason::Failover).is_err() {
            return false; // raced with another lifecycle transition
        }
        self.signal.publish(&inner.binding);
        self.failovers.fetch_add(1, Ordering::Relaxed);
        // Counter and flight-recorder event move together: every
        // failover_count increment has exactly one DrainStarted(failover)
        // event carrying the epoch the failure ended.
        self.tm_failovers.inc();
        self.record_transition(
            TransitionKind::DrainStarted,
            Some(RebindReason::Failover),
            inner.binding.epoch(),
            dead.as_str(),
            dead.as_str(),
            false,
        );
        if collapses {
            // The peer migrated onto this host: the pump finishes the
            // collapse onto shared memory (the caller already flushed
            // everything outstanding, so the drain settles immediately).
            self.lib.request_walk();
            return true;
        }
        let unsettled = inner.pending_sends.len() + inner.pending_reads.len();
        if inner.binding.begin_rebind(unsettled).is_err() {
            // Outstanding work the caller did not flush: the drain
            // finishes on the pump and the rebind completes there.
            self.lib.request_walk();
            return true;
        }
        self.signal.publish(&inner.binding);
        self.record_transition(
            TransitionKind::RebindStarted,
            Some(RebindReason::Failover),
            inner.binding.epoch(),
            dead.as_str(),
            dead.as_str(),
            false,
        );
        let ups = inner.binding.upgrades();
        inner
            .binding
            .complete_rebind(
                FfPath::Remote {
                    peer,
                    transport: resolved.transport,
                },
                resolved.generation,
            )
            .expect("rebinding phase was just entered");
        self.signal.publish(&inner.binding);
        let upgrade = inner.binding.upgrades() > ups;
        self.tm_rebinds.inc();
        if upgrade {
            self.tm_upgrades.inc();
        }
        self.record_transition(
            TransitionKind::Rebound,
            Some(RebindReason::Failover),
            inner.binding.epoch(),
            dead.as_str(),
            resolved.transport.as_str(),
            upgrade,
        );
        true
    }

    /// Called from the library pump after a location/health event:
    /// decide whether the current remote path should make way for a
    /// better one. Planned rebind — the old path keeps working while
    /// in-flight operations drain.
    pub(crate) fn consider_rebind(&self) {
        let (peer, current) = {
            let inner = self.inner.lock();
            match (inner.state, inner.binding.phase(), inner.binding.path()) {
                (QpState::Rts, BindingPhase::Bound, FfPath::Remote { peer, transport }) => {
                    (peer, transport)
                }
                _ => return,
            }
        };
        let resolved = match self.lib.resolve(peer.ip) {
            Ok(r) => r,
            Err(_) => return,
        };
        let reason = if resolved.local && resolved.transport.kernel_bypass() {
            RebindReason::Collapse
        } else if !resolved.local
            && freeflow_orchestrator::policy::is_upgrade(current, resolved.transport)
        {
            RebindReason::Upgrade
        } else {
            return;
        };
        let mut inner = self.inner.lock();
        if inner.state == QpState::Rts
            && inner.binding.phase() == BindingPhase::Bound
            && inner.binding.begin_drain(reason).is_ok()
        {
            self.signal.publish(&inner.binding);
            self.record_transition(
                TransitionKind::DrainStarted,
                Some(reason),
                inner.binding.epoch(),
                current.as_str(),
                current.as_str(),
                false,
            );
            // The pump advances the drain; this may run off the pump
            // (a rehome), so ask it to walk.
            self.lib.request_walk();
        }
    }

    /// Called from the library pump's QP walk, and by the migration
    /// coordinator after a thaw: advance an in-progress drain/rebind. All
    /// planned lifecycle work runs here, one caller at a time.
    pub(crate) fn poll_binding(&self) {
        let _one = self.advancing.lock();
        if self.migration_hold.load(Ordering::Acquire) {
            // Frozen for a live migration: the binding parks where it is
            // (normally `Draining`) until the 2PC driver thaws it. Acks
            // for in-flight work still arrive through `handle_inbound`,
            // so the drain settles under the hold.
            return;
        }
        {
            let mut inner = self.inner.lock();
            if inner.binding.phase() == BindingPhase::Draining {
                let unsettled = inner.pending_sends.len() + inner.pending_reads.len();
                if unsettled == 0 && inner.binding.begin_rebind(0).is_ok() {
                    self.signal.publish(&inner.binding);
                    let label = inner.binding.path().label();
                    self.record_transition(
                        TransitionKind::RebindStarted,
                        inner.binding.reason(),
                        inner.binding.epoch(),
                        label,
                        label,
                        false,
                    );
                }
            }
            if inner.binding.phase() != BindingPhase::Rebinding {
                return;
            }
        }
        self.finish_rebind();
    }

    // --- live migration (driven by the cluster's 2PC coordinator) -----------

    /// Quiesce this QP for a live migration: a planned
    /// `begin_drain(Migrate)` that parks the binding in `Draining` and
    /// holds it there (the pump skips lifecycle advancement while the
    /// hold is set) until [`FfQp::thaw_migration`]. In-flight acks still
    /// settle under the hold; new application posts park.
    ///
    /// Returns `false` when the QP was *not* frozen — today only the
    /// collapsed (shared-memory) binding. That is the un-collapse
    /// boundary: a `Local` path's receive queue lives inside the
    /// host-verbs QP and cannot be torn back out into a relay path, so
    /// the binding rides through the migration untouched and simply goes
    /// stale if the pair is torn apart ([`FfQp::path_is_current`] turns
    /// false; the application re-establishes explicitly, exactly as
    /// before cross-host migration existed). The migration itself still
    /// proceeds.
    pub fn freeze_for_migration(&self) -> bool {
        let mut inner = self.inner.lock();
        match inner.binding.phase() {
            // Nothing on a data plane yet / already terminal: hold so the
            // pump stays out of the way, nothing to drain.
            BindingPhase::Unbound | BindingPhase::Error => {
                self.migration_hold.store(true, Ordering::Release);
                return true;
            }
            // A drain/rebind already in progress (e.g. a planned upgrade
            // the event feed raced): freeze it where it stands; the thaw
            // re-resolves from the final placement.
            BindingPhase::Draining | BindingPhase::Rebinding => {
                self.migration_hold.store(true, Ordering::Release);
                return true;
            }
            BindingPhase::Bound => {}
        }
        if matches!(inner.binding.path(), FfPath::Local { .. }) {
            // The un-collapse boundary: a shared-memory binding cannot be
            // torn back out into a relay path. Leave it bound — it rides
            // the move untouched and observes staleness afterwards.
            return false;
        }
        let label = inner.binding.path().label();
        if inner.binding.begin_drain(RebindReason::Migrate).is_err() {
            return false;
        }
        self.migration_hold.store(true, Ordering::Release);
        self.signal.publish(&inner.binding);
        self.record_transition(
            TransitionKind::DrainStarted,
            Some(RebindReason::Migrate),
            inner.binding.epoch(),
            label,
            label,
            false,
        );
        true
    }

    /// Whether a frozen QP has fully quiesced: no send/write/read is
    /// still awaiting its answer on the old path. Parked sends don't
    /// count — they replay after the thaw, on whichever path wins.
    pub fn migration_settled(&self) -> bool {
        let inner = self.inner.lock();
        inner.pending_sends.is_empty() && inner.pending_reads.is_empty()
    }

    /// Release a migration freeze and ring the library pump, whose next
    /// walk advances the held drain through the ordinary lifecycle: after
    /// a *commit* the library has been rehomed, so the rebind resolves
    /// from the target host (same transport → abort back onto the
    /// identical path, new transport → `Rebound`, peer now co-located →
    /// collapse); after an *abort* it resolves from the unchanged source
    /// host and falls back onto the old, still-working path. Every outcome
    /// is a legal `PathBinding` transition.
    pub fn thaw_migration(&self) {
        self.migration_hold.store(false, Ordering::Release);
        self.lib.request_walk();
    }

    /// Whether this QP is currently frozen for a migration.
    pub fn migration_held(&self) -> bool {
        self.migration_hold.load(Ordering::Acquire)
    }

    /// Snapshot this QP's migrable state into a checkpoint record. Call
    /// only after the freeze settled: `in_flight` is carried so the
    /// restore side can verify the quiesce invariant held.
    pub(crate) fn capture_record(&self) -> crate::migrate::QpRecord {
        let inner = self.inner.lock();
        let (peer_octets, peer_qpn) = match inner.binding.path() {
            FfPath::Local { peer } | FfPath::Remote { peer, .. } => (peer.ip.octets(), peer.qpn),
            FfPath::Unbound => ([0; 4], 0),
        };
        crate::migrate::QpRecord {
            qpn: self.qp_num(),
            peer_octets,
            peer_qpn,
            phase: inner.binding.phase().name(),
            epoch: inner.binding.epoch(),
            generation: inner.binding.generation(),
            transport_rank: inner
                .binding
                .path()
                .transport()
                .map(|t| t.rank())
                .unwrap_or(u8::MAX),
            parked_sends: inner.parked_sends.len() as u32,
            posted_recvs: inner.rq.len() as u32,
            inbound_pending: inner.inbound_pending.len() as u32,
            in_flight: (inner.pending_sends.len() + inner.pending_reads.len()) as u32,
            next_op_id: inner.next_op_id,
        }
    }

    /// The drain settled; establish the new path. May run repeatedly —
    /// a collapse waits for the peer's half of the verbs connection.
    fn finish_rebind(&self) {
        let (peer, old, reason) = {
            let inner = self.inner.lock();
            match (inner.binding.phase(), inner.binding.path()) {
                (BindingPhase::Rebinding, FfPath::Remote { peer, transport }) => {
                    (peer, transport, inner.binding.reason())
                }
                _ => return,
            }
        };
        let resolved = match self.lib.resolve(peer.ip) {
            Ok(r) => r,
            Err(_) => {
                self.abort_or_fail(reason);
                return;
            }
        };
        if resolved.local && resolved.transport.kernel_bypass() {
            self.finish_collapse(peer, resolved.generation);
            return;
        }
        if resolved.transport == old {
            match reason {
                // A failover landing back on the transport it declared
                // dead is a no-op rebind: surface the failure.
                Some(RebindReason::Failover) => self.enter_error(),
                // A planned rebind that went stale (the event raced):
                // keep the old, still-working path.
                _ => self.abort_or_fail(reason),
            }
            return;
        }
        {
            let mut inner = self.inner.lock();
            if inner.binding.phase() != BindingPhase::Rebinding {
                return;
            }
            let ups = inner.binding.upgrades();
            if inner
                .binding
                .complete_rebind(
                    FfPath::Remote {
                        peer,
                        transport: resolved.transport,
                    },
                    resolved.generation,
                )
                .is_err()
            {
                return;
            }
            self.signal.publish(&inner.binding);
            let upgrade = inner.binding.upgrades() > ups;
            self.tm_rebinds.inc();
            if upgrade {
                self.tm_upgrades.inc();
            }
            self.record_transition(
                TransitionKind::Rebound,
                reason,
                inner.binding.epoch(),
                old.as_str(),
                resolved.transport.as_str(),
                upgrade,
            );
            inner.replaying = true;
        }
        self.replay_parked();
    }

    /// A rebind cannot proceed: keep the old path for planned rebinds,
    /// error out for failovers (their old path is dead).
    fn abort_or_fail(&self, reason: Option<RebindReason>) {
        if reason == Some(RebindReason::Failover) {
            self.enter_error();
            return;
        }
        {
            let mut inner = self.inner.lock();
            if inner.binding.abort_rebind().is_err() {
                return;
            }
            self.signal.publish(&inner.binding);
            let label = inner.binding.path().label();
            self.record_transition(
                TransitionKind::Aborted,
                reason,
                inner.binding.epoch(),
                label,
                label,
                false,
            );
            inner.replaying = true;
        }
        self.replay_parked();
    }

    /// Remote→Local collapse: the peer now shares this host. Bring up
    /// the dormant verbs QP (it stayed in RESET while the path was
    /// remote), wait for the peer's half, replay posted receives into
    /// it, and switch — the application keeps its QP, MRs and wr_ids;
    /// no reconnect.
    fn finish_collapse(&self, peer: FfEndpoint, generation: u64) {
        // Our half first, idempotent across retries. Driving the verbs
        // QP early is safe: the relay path keeps matching inbound work
        // until the commit below, and verbs sends from the peer park
        // under RNR semantics until our receives are replayed.
        if self.verbs_qp.state() == QpState::Reset {
            let up = self
                .verbs_qp
                .modify_to_init()
                .and_then(|()| self.verbs_qp.modify_to_rtr(peer.verbs()))
                .and_then(|()| self.verbs_qp.modify_to_rts());
            if up.is_err() {
                let reason = self.inner.lock().binding.reason();
                self.abort_or_fail(reason);
                return;
            }
        }
        // The peer's half must be ready or our first verbs send would be
        // refused; the pump retries while the rebind is unsettled (the
        // peer collapses on its own schedule, driven by the same
        // orchestrator event).
        let peer_ready = self
            .lib
            .device
            .network()
            .find_device(peer.ip)
            .and_then(|d| d.find_qp(peer.verbs().qpn))
            .map(|qp| matches!(qp.state(), QpState::Rtr | QpState::Rts))
            .unwrap_or(false);
        if !peer_ready {
            return;
        }
        let committed = {
            let mut inner = self.inner.lock();
            if inner.binding.phase() != BindingPhase::Rebinding {
                return;
            }
            // Relay deliveries still parked for a receive must match on
            // the old path first — their senders' drains wait on our
            // acks. They settle as the application posts receives.
            if !inner.inbound_pending.is_empty() {
                return;
            }
            let rq: Vec<RecvWr> = inner.rq.drain(..).collect();
            for wr in rq {
                // Fresh verbs QP, same rq_depth: re-posting cannot
                // overflow. A refusal still resolves the WR (flush).
                let wr_id = wr.wr_id;
                if self.verbs_qp.post_recv(wr).is_err() {
                    let wc = self.wc(wr_id, WcStatus::WrFlushError, WcOpcode::Recv, 0);
                    self.recv_cq.push(wc);
                }
            }
            let old = inner.binding.path().label();
            let reason = inner.binding.reason();
            let ups = inner.binding.upgrades();
            let ok = inner
                .binding
                .complete_rebind(FfPath::Local { peer }, generation)
                .is_ok();
            if ok {
                self.signal.publish(&inner.binding);
                let upgrade = inner.binding.upgrades() > ups;
                self.tm_rebinds.inc();
                if upgrade {
                    self.tm_upgrades.inc();
                }
                self.record_transition(
                    TransitionKind::Rebound,
                    reason,
                    inner.binding.epoch(),
                    old,
                    TransportKind::SharedMemory.as_str(),
                    upgrade,
                );
                inner.replaying = true;
            }
            ok
        };
        if committed {
            self.replay_parked();
        }
    }

    /// Re-dispatch sends parked during a drain/rebind, in order. Runs
    /// on the pump thread; `replaying` makes concurrent application
    /// posts park behind the queue instead of overtaking it.
    fn replay_parked(&self) {
        loop {
            let (wr, path) = {
                let mut inner = self.inner.lock();
                if inner.binding.phase() != BindingPhase::Bound {
                    // A new rebind started; the replay resumes after it.
                    inner.replaying = false;
                    return;
                }
                match inner.parked_sends.pop_front() {
                    Some(wr) => {
                        inner.replaying = true;
                        (wr, inner.binding.path())
                    }
                    None => {
                        inner.replaying = false;
                        return;
                    }
                }
            };
            let (wr_id, opcode) = (wr.wr_id, Self::wc_opcode_of(&wr));
            if self.dispatch(std::iter::once(wr), path).is_err() {
                // The WR was accepted at post time: it must still
                // resolve exactly once.
                let wc = self.wc(wr_id, WcStatus::WrFlushError, opcode, 0);
                self.send_cq.push(wc);
            }
        }
    }

    fn wc_opcode_of(wr: &SendWr) -> WcOpcode {
        match wr.opcode {
            WrOpcode::Send => WcOpcode::Send,
            WrOpcode::Write { .. } | WrOpcode::WriteWithImm { .. } => WcOpcode::RdmaWrite,
            WrOpcode::Read { .. } => WcOpcode::RdmaRead,
        }
    }

    // --- data path ----------------------------------------------------------

    /// Post a receive.
    pub fn post_recv(&self, wr: RecvWr) -> VerbsResult<()> {
        let pending = {
            let mut inner = self.inner.lock();
            match inner.state {
                QpState::Init | QpState::Rtr | QpState::Rts => {}
                s => {
                    return Err(VerbsError::InvalidQpState {
                        actual: s.name(),
                        required: "INIT/RTR/RTS",
                    })
                }
            }
            match inner.binding.path() {
                // Before RTR the path is unknown: park receives here; they
                // are replayed into the verbs QP at RTR time for local
                // paths via the rq (drained below on first use).
                FfPath::Local { .. } => {
                    // Delegate (the verbs QP is in lockstep ≥ INIT).
                    drop(inner);
                    return self.verbs_qp.post_recv(wr);
                }
                FfPath::Unbound | FfPath::Remote { .. } => {
                    match inner.inbound_pending.pop_front() {
                        Some(p) => Some((wr, p)),
                        None => {
                            if inner.rq.len() >= self.rq_depth {
                                return Err(VerbsError::QueueFull { which: "recv" });
                            }
                            inner.rq.push_back(wr);
                            None
                        }
                    }
                }
            }
        };
        if let Some((wr, p)) = pending {
            self.consume_inbound(wr, p);
        }
        Ok(())
    }

    /// Post a send-side work request: a chain of one (see
    /// [`FfQp::post_send_batch`]). Requires RTS.
    pub fn post_send(&self, wr: SendWr) -> VerbsResult<()> {
        self.post_chain(std::iter::once(wr))
    }

    /// Post a chain of send-side work requests. Requires RTS. Observable
    /// semantics are those of the verbs chained post — same completion
    /// order, same signaling rules, a local gather error returned
    /// synchronously — and the whole chain is admitted against the
    /// send-queue depth atomically (all WRs fit or none is accepted). The
    /// chain leaves the container in one shot: the Local path delegates
    /// to the verbs chain, the Remote path stages every payload and hands
    /// the agent one push (one ring reservation, one doorbell).
    ///
    /// While the binding is mid-drain/rebind the whole chain is accepted
    /// and *parked*, in order, behind any already-parked sends — it
    /// replays exactly once on the new path, never straddling the rebind
    /// boundary partially, so a live upgrade or collapse is invisible to
    /// the application.
    pub fn post_send_batch(&self, wrs: Vec<SendWr>) -> VerbsResult<()> {
        self.post_chain(wrs.into_iter())
    }

    /// The one send path: admission, parking, and dispatch on the bound
    /// path.
    fn post_chain(&self, wrs: impl ExactSizeIterator<Item = SendWr>) -> VerbsResult<()> {
        if wrs.len() == 0 {
            return Ok(());
        }
        let path = {
            let mut inner = self.inner.lock();
            if inner.state != QpState::Rts {
                return Err(VerbsError::InvalidQpState {
                    actual: inner.state.name(),
                    required: "RTS",
                });
            }
            let settled = inner.binding.phase() == BindingPhase::Bound
                && !inner.replaying
                && inner.parked_sends.is_empty();
            // In-flight plus parked work shares the send-queue depth; a
            // Local path's depth is the verbs QP's own.
            let in_flight = inner.pending_sends.len() + inner.pending_reads.len();
            let path = inner.binding.path();
            if !settled {
                if in_flight + inner.parked_sends.len() + wrs.len() > self.sq_depth {
                    return Err(VerbsError::QueueFull { which: "send" });
                }
                inner.parked_sends.extend(wrs);
                return Ok(());
            }
            if matches!(path, FfPath::Remote { .. }) && in_flight + wrs.len() > self.sq_depth {
                return Err(VerbsError::QueueFull { which: "send" });
            }
            path
        };
        self.dispatch(wrs, path)
    }

    /// Transmit an admitted chain on the bound `path`.
    fn dispatch(
        &self,
        wrs: impl ExactSizeIterator<Item = SendWr>,
        path: FfPath,
    ) -> VerbsResult<()> {
        match path {
            FfPath::Local { .. } => self.verbs_qp.post_send_chain(wrs),
            FfPath::Remote { peer, .. } => self.post_remote(wrs, peer),
            FfPath::Unbound => unreachable!("a bound phase implies a path"),
        }
    }

    /// Largest payload the inline (non-arena) relay path accepts. The
    /// container↔agent ring is 2 MiB per direction; anything bigger must
    /// ride an arena descriptor, so when the arena is exhausted *and* the
    /// payload exceeds this bound the post fails loudly instead of being
    /// silently undeliverable. A READ response always rides inline, so a
    /// READ longer than this is refused too.
    pub(crate) const MAX_INLINE_RELAY: usize = 1 << 20;

    /// Gather a WR's payload and stage it for the relay: big payloads go
    /// into the host arena (zero-copy to the agent), small ones inline.
    fn stage_payload(
        &self,
        wr: &SendWr,
        lkey: &mut Option<Arc<MemoryRegion>>,
    ) -> VerbsResult<RelayPayload> {
        let mut payload = Vec::new();
        self.lib.device.gather_into(wr, lkey, &mut payload)?;
        if payload.len() >= ZERO_COPY_THRESHOLD {
            let arena = self.lib.arena();
            if let Ok(handle) = arena.alloc(payload.len() as u64) {
                arena.write(handle, 0, &payload).expect("fresh block fits");
                return Ok(RelayPayload::Arena {
                    offset: handle.offset,
                    len: payload.len() as u64,
                });
            }
        }
        if payload.len() > Self::MAX_INLINE_RELAY {
            return Err(VerbsError::ResourceLimit {
                detail: format!(
                    "payload of {} bytes: host arena exhausted and too large \
                     for the inline relay channel",
                    payload.len()
                ),
            });
        }
        Ok(RelayPayload::Inline(Bytes::from(payload)))
    }

    /// Gather and stage one remote WR, register it as in flight — before
    /// its message can reach the agent, since the answer can race the
    /// post's return — and return the message to transmit.
    fn build_remote_op(
        &self,
        wr: SendWr,
        me: WireEp,
        dst: WireEp,
        lkey: &mut Option<Arc<MemoryRegion>>,
    ) -> VerbsResult<RelayMsg> {
        let opcode = Self::wc_opcode_of(&wr);
        let len = wr.total_len();
        // A READ's SGEs are where its response lands: nothing to gather.
        let payload = match opcode {
            WcOpcode::RdmaRead => RelayPayload::Inline(Bytes::new()),
            _ => self.stage_payload(&wr, lkey)?,
        };
        let (deadline, posted_at) = (self.op_deadline(), Instant::now());
        let SendWr {
            wr_id,
            opcode: op,
            sge,
            signaled,
            ..
        } = wr;
        let mut inner = self.inner.lock();
        let op_id = inner.next_op_id;
        inner.next_op_id += 1;
        let msg = match op {
            WrOpcode::Read { remote_addr, rkey } => {
                let read = PendingRead {
                    wr_id,
                    signaled,
                    sge,
                    deadline,
                    posted_at,
                };
                inner.pending_reads.insert(op_id, read);
                return Ok(RelayMsg::ReadReq {
                    src: me,
                    dst,
                    req_id: op_id,
                    addr: remote_addr,
                    rkey,
                    len,
                });
            }
            WrOpcode::Send => RelayMsg::Send {
                src: me,
                dst,
                wr_id: op_id,
                imm: None,
                payload,
            },
            WrOpcode::Write {
                remote_addr: addr,
                rkey,
            }
            | WrOpcode::WriteWithImm {
                remote_addr: addr,
                rkey,
                ..
            } => RelayMsg::Write {
                src: me,
                dst,
                wr_id: op_id,
                addr,
                rkey,
                imm: match op {
                    WrOpcode::WriteWithImm { imm, .. } => Some(imm),
                    _ => None,
                },
                payload,
            },
        };
        let send = PendingSend {
            wr_id,
            signaled,
            opcode,
            deadline,
            posted_at,
        };
        inner.pending_sends.insert(op_id, send);
        Ok(msg)
    }

    /// Remote post: every WR is gathered, staged and registered, then the
    /// chain leaves in one agent push. A WR that fails to build stops the
    /// chain there — WRs before it are transmitted and stand, it and the
    /// remainder are refused with the error, exactly like the verbs chain.
    fn post_remote(
        &self,
        wrs: impl ExactSizeIterator<Item = SendWr>,
        peer: FfEndpoint,
    ) -> VerbsResult<()> {
        let (me, dst) = (self.endpoint().wire(), peer.wire());
        // No op below is due before this.
        let due = self.op_deadline();
        let mut lkey = None;
        let mut msgs = Vec::with_capacity(wrs.len());
        let mut result = Ok(());
        for wr in wrs {
            match self.build_remote_op(wr, me, dst, &mut lkey) {
                Ok(msg) => msgs.push(msg),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if !msgs.is_empty() {
            // Registered: now the pump's idle deadline must cover them.
            self.lib.note_op_due(due);
        }
        self.lib.send_to_agent(&msgs);
        result
    }

    // --- inbound (called from the library pump) ----------------------------

    /// Materialize a relay payload into bytes (reading and freeing arena
    /// blocks — the receive-side copy out of shared memory). `None` for a
    /// descriptor outside the host arena: the sender wrote it.
    fn payload_bytes(&self, p: RelayPayload) -> Option<Bytes> {
        match p {
            RelayPayload::Inline(b) => Some(b),
            RelayPayload::Arena { offset, len } => {
                let bytes = self.lib.arena().take(offset, len).ok()?;
                Some(Bytes::from(bytes))
            }
        }
    }

    /// Handle one inbound relay message addressed to this QP. An
    /// operation whose payload cannot be read fails with REMOTE_ACCESS;
    /// nothing is delivered in its place.
    pub(crate) fn handle_inbound(&self, msg: RelayMsg) {
        match msg {
            RelayMsg::Send {
                src,
                wr_id: op_id,
                imm,
                payload,
                ..
            } => match self.payload_bytes(payload) {
                Some(bytes) => self.inbound_send(src, op_id, Some(bytes), imm),
                None => self.nack(src, op_id, st::REMOTE_ACCESS),
            },
            RelayMsg::Write {
                src,
                wr_id: op_id,
                addr,
                rkey,
                imm,
                payload,
                ..
            } => match self.payload_bytes(payload) {
                Some(bytes) => self.inbound_write(src, op_id, addr, rkey, imm, bytes),
                None => self.nack(src, op_id, st::REMOTE_ACCESS),
            },
            RelayMsg::ReadReq {
                src,
                req_id,
                addr,
                rkey,
                len,
                ..
            } => {
                self.inbound_read_req(src, req_id, addr, rkey, len);
            }
            RelayMsg::ReadResp {
                req_id,
                status,
                payload,
                ..
            } => match self.payload_bytes(payload) {
                Some(bytes) => self.inbound_read_resp(req_id, status, bytes),
                None => self.inbound_read_resp(req_id, st::REMOTE_ACCESS, Bytes::new()),
            },
            RelayMsg::Ack {
                wr_id: op_id,
                byte_len,
                ..
            } => self.inbound_ack(op_id, byte_len),
            RelayMsg::Nack {
                wr_id: op_id,
                status,
                ..
            } => self.inbound_nack(op_id, status),
        }
    }

    fn wire_status_to_wc(status: u8) -> WcStatus {
        match status {
            st::OK => WcStatus::Success,
            st::REMOTE_ACCESS => WcStatus::RemoteAccessError,
            st::LOCAL_LENGTH => WcStatus::LocalLengthError,
            st::TIMEOUT => WcStatus::RetryExcError,
            _ => WcStatus::RemoteOperationError,
        }
    }

    fn inbound_send(&self, src: WireEp, op_id: u64, payload: Option<Bytes>, imm: Option<u32>) {
        let byte_len = payload.as_ref().map(|b| b.len() as u64).unwrap_or(0);
        let inbound = InboundSend {
            src,
            op_id,
            payload,
            byte_len,
            imm,
        };
        let matched = {
            let mut inner = self.inner.lock();
            match inner.state {
                QpState::Rtr | QpState::Rts => {}
                _ => {
                    drop(inner);
                    self.nack(src, op_id, st::REMOTE_OP);
                    return;
                }
            }
            match inner.rq.pop_front() {
                Some(wr) => Some((wr, inbound)),
                None => {
                    inner.inbound_pending.push_back(inbound);
                    None
                }
            }
        };
        if let Some((wr, inbound)) = matched {
            self.consume_inbound(wr, inbound);
        }
    }

    /// Match one parked/incoming send against a receive WR: scatter,
    /// complete locally, ack the sender.
    fn consume_inbound(&self, wr: RecvWr, p: InboundSend) {
        let opcode = if p.payload.is_some() || p.imm.is_none() {
            WcOpcode::Recv
        } else {
            WcOpcode::RecvRdmaWithImm
        };
        let status = match &p.payload {
            Some(data) if wr.capacity() < data.len() as u64 => WcStatus::LocalLengthError,
            Some(data) if self.lib.device.scatter(&wr.sge, data).is_err() => {
                WcStatus::LocalProtectionError
            }
            _ => WcStatus::Success,
        };
        let wc = WorkCompletion {
            imm: p.imm,
            ..self.wc(wr.wr_id, status, opcode, p.byte_len)
        };
        if status.is_ok() {
            self.recv_cq.push(wc);
            self.reply(RelayMsg::Ack {
                src: self.endpoint().wire(),
                dst: p.src,
                wr_id: p.op_id,
                byte_len: p.byte_len,
            });
        } else {
            self.fail_with(Some((&self.recv_cq, wc)));
            self.nack(p.src, p.op_id, st::LOCAL_LENGTH);
        }
    }

    fn inbound_write(
        &self,
        src: WireEp,
        op_id: u64,
        addr: u64,
        rkey: u32,
        imm: Option<u32>,
        payload: Bytes,
    ) {
        if !matches!(self.state(), QpState::Rtr | QpState::Rts) {
            self.nack(src, op_id, st::REMOTE_OP);
            return;
        }
        let written = self
            .lib
            .device
            .mr_by_rkey(rkey)
            .ok()
            .filter(|mr| mr.access().remote_write)
            .is_some_and(|mr| mr.dma_write(addr, &payload).is_ok());
        if !written {
            self.nack(src, op_id, st::REMOTE_ACCESS);
        } else if imm.is_some() {
            // Consume a receive for the notification: that acks (or
            // nacks) the sender, at once or when a receive is posted.
            self.inbound_send(src, op_id, None, imm);
        } else {
            self.reply(RelayMsg::Ack {
                src: self.endpoint().wire(),
                dst: src,
                wr_id: op_id,
                byte_len: payload.len() as u64,
            });
        }
    }

    fn inbound_read_req(&self, src: WireEp, req_id: u64, addr: u64, rkey: u32, len: u64) {
        // The peer chose `len`: refuse one the inline reply cannot carry
        // before it sizes a copy of the MR or reaches the encoder.
        let data = if len > Self::MAX_INLINE_RELAY as u64 {
            Err(st::REMOTE_OP)
        } else {
            self.lib
                .device
                .mr_by_rkey(rkey)
                .ok()
                .filter(|mr| mr.access().remote_read)
                .and_then(|mr| mr.dma_read(addr, len).ok())
                .ok_or(st::REMOTE_ACCESS)
        };
        let (status, payload) = match data {
            Ok(bytes) => (st::OK, Bytes::from(bytes)),
            Err(status) => (status, Bytes::new()),
        };
        self.reply(RelayMsg::ReadResp {
            src: self.endpoint().wire(),
            dst: src,
            req_id,
            status,
            payload: RelayPayload::Inline(payload),
        });
    }

    fn inbound_read_resp(&self, req_id: u64, status: u8, payload: Bytes) {
        if matches!(status, st::TIMEOUT | st::STALE_ROUTE) {
            // The relay gave up on this READ: the transport is dead.
            // Flush everything outstanding (the request included) and
            // fail over instead of erroring out.
            if self.inner.lock().pending_reads.contains_key(&req_id) {
                self.on_transport_failure(status == st::STALE_ROUTE);
            }
            return;
        }
        let pending = self.inner.lock().pending_reads.remove(&req_id);
        let Some(p) = pending else { return };
        self.tm_remote_latency
            .record(p.posted_at.elapsed().as_nanos() as u64);
        let wc_status = if status != st::OK {
            Self::wire_status_to_wc(status)
        } else if self.lib.device.scatter(&p.sge, &payload).is_err() {
            WcStatus::LocalProtectionError
        } else {
            WcStatus::Success
        };
        let wc = self.wc(p.wr_id, wc_status, WcOpcode::RdmaRead, payload.len() as u64);
        if !wc_status.is_ok() {
            self.fail_with(Some((&self.send_cq, wc)));
        } else if p.signaled {
            self.send_cq.push(wc);
        }
    }

    fn inbound_ack(&self, op_id: u64, byte_len: u64) {
        let pending = self.inner.lock().pending_sends.remove(&op_id);
        let Some(p) = pending else { return };
        self.tm_remote_latency
            .record(p.posted_at.elapsed().as_nanos() as u64);
        if p.signaled {
            let wc = self.wc(p.wr_id, WcStatus::Success, p.opcode, byte_len);
            self.send_cq.push(wc);
        }
    }

    fn inbound_nack(&self, op_id: u64, status: u8) {
        if matches!(status, st::TIMEOUT | st::STALE_ROUTE) {
            // The relay declared the path dead (downed wire / no reply).
            // Flush everything outstanding (this op included) with
            // RETRY_EXC_ERR and re-path instead of erroring out.
            if self.inner.lock().pending_sends.contains_key(&op_id) {
                self.on_transport_failure(status == st::STALE_ROUTE);
            }
            return;
        }
        let pending = self.inner.lock().pending_sends.remove(&op_id);
        let Some(p) = pending else { return };
        let wc = self.wc(p.wr_id, Self::wire_status_to_wc(status), p.opcode, 0);
        self.fail_with(Some((&self.send_cq, wc)));
    }

    /// Refuse the peer's operation `op_id` with wire status `status`.
    fn nack(&self, dst: WireEp, op_id: u64, status: u8) {
        self.reply(RelayMsg::Nack {
            src: self.endpoint().wire(),
            dst,
            wr_id: op_id,
            status,
        });
    }

    fn reply(&self, msg: RelayMsg) {
        self.lib.send_to_agent(std::slice::from_ref(&msg));
    }

    /// A completion on this QP carrying no immediate.
    fn wc(&self, wr_id: u64, status: WcStatus, opcode: WcOpcode, byte_len: u64) -> WorkCompletion {
        WorkCompletion {
            wr_id,
            status,
            opcode,
            byte_len,
            imm: None,
            qp_num: self.qp_num(),
        }
    }
}

impl Drop for FfQp {
    fn drop(&mut self) {
        // Forget the library's dispatch entry with the QP. The strong
        // count tells ours (dead by now) from a live QP that took over a
        // wrapped QPN.
        let mut qps = self.lib.qps.lock();
        if qps
            .get(&self.qp_num())
            .is_some_and(|w| w.strong_count() == 0)
        {
            qps.remove(&self.qp_num());
        }
    }
}

impl std::fmt::Debug for FfQp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("FfQp")
            .field("qpn", &self.qp_num())
            .field("state", &inner.state.name())
            .field("path", &inner.binding.path())
            .field("phase", &inner.binding.phase().name())
            .field("epoch", &inner.binding.epoch())
            .finish()
    }
}
