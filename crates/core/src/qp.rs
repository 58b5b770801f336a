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
//!   channel (a payload of [`ZERO_COPY_THRESHOLD`] bytes or more is
//!   gathered straight from its MRs into an arena block and rides as its
//!   descriptor, the §5 "pass the pointer" step). The agent ships them
//!   over the RDMA/DPDK/TCP wire the orchestrator chose; the peer's verbs
//!   engine executes them (receive matching, rkey checks), landing a
//!   block straight into the target MR, and its FfQp acks back. Completions
//!   carry the same verbs `WorkCompletion` type either way.
//!
//! Either way the receive side is the verbs QP's: every receive is
//! posted into it, and it is the one responder, answering a co-located
//! peer directly and a relayed operation handed to it by
//! `FfQp::handle_inbound`. The FfQp steps it through the state machine
//! on every binding, so a Remote→Local collapse finds it ready.
//!
//! The application cannot tell the difference — FreeFlow's transparency
//! claim, testable here because both paths run under one API.
//!
//! The *lifecycle* of a binding — connect-time bind, reactive failover,
//! planned TCP→RDMA upgrade after `restore_nic`, Remote→Local collapse
//! after a peer migrates onto this host, and a migration freeze — is
//! owned by [`crate::binding::PathBinding`]; this module performs the
//! re-sends and replays around its transitions (see DESIGN.md §7).
//! Every rebind carries the unanswered ops across and re-sends them on
//! the path it ends on; none waits for an answer.
//!
//! ## Exactly once across a rebind
//!
//! A relayed op is reliable the way an RC QP is. Op ids are sequential
//! per QP, and the responder hears only its connected peer: it executes
//! op k only after op k−1, answers a duplicate again without executing it
//! (a SEND never takes a second receive; a READ executes again), drops a
//! duplicate of an op still parked for a receive, and refuses an op that
//! follows a gap with [`st::OUT_OF_ORDER`]. So the requester may re-send
//! whatever is unanswered, oldest first, gathering each payload again
//! from the application's SGEs: after any rebind (a failover onto a
//! surviving transport, an upgrade, a collapse, a migration's thaw), or
//! after a stale-route or out-of-order refusal on the bound one. An
//! answer is taken by op id from the connected peer, whichever transport
//! carried it, so one that arrives on the old transport after a rebind
//! settles its op like any other. A re-send
//! still unanswered after [`RESEND_INTERVAL`] goes again. Posts and
//! re-sends reach the agent ring in op-id order, so a settled path
//! re-sends nothing.
//! `RETRY_EXC_ERR` means what it means on a NIC: no path answered before
//! the op deadline, or the QP went to the error state.

use crate::binding::{BindingPhase, PathBinding, RebindReason};
use crate::endpoint::FfEndpoint;
use crate::library::{LibShared, ResolvedPath};
use bytes::Bytes;
use freeflow_agent::proto::{status as st, RelayMsg, RelayPayload, WireEp};
use freeflow_agent::ZERO_COPY_THRESHOLD;
use freeflow_shmem::{ArenaHandle, SharedArena};
use freeflow_telemetry::{Counter, Event, Histogram, LabelSet, Telemetry, TransitionKind};
use freeflow_types::TransportKind;
use freeflow_verbs::qp::{Answer, Requester};
use freeflow_verbs::wr::{RecvWr, SendWr, WcOpcode, WorkCompletion, WrOpcode};
use freeflow_verbs::{
    CompletionQueue, MemoryRegion, Payload, QpEndpoint, QpState, QueuePair, VerbsError,
    VerbsResult, WcStatus,
};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default bound on how long a remote operation may stay unanswered
/// before the QP declares the transport dead (see
/// [`FfQp::set_relay_timeout`]). This is the only timer on a relayed
/// operation, as on a real RC NIC: the agent nacks at once when a wire is
/// down or stays full, and keeps no per-request state to time the rest.
const DEFAULT_OP_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a re-send waits before the unanswered ops go again. A
/// stale-route refusal (forwarding has not converged onto the bound path
/// yet) waits this long rather than spin against the route, and so does a
/// re-send still unanswered: its answer may have died on a route back
/// that had not converged either. The op deadline bounds the whole wait.
pub const RESEND_INTERVAL: Duration = Duration::from_millis(250);

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

/// Interned label for a rebind reason.
fn reason_label(reason: Option<RebindReason>) -> Option<&'static str> {
    reason.map(|r| match r {
        RebindReason::Failover => "failover",
        RebindReason::Upgrade => "upgrade",
        RebindReason::Collapse => "collapse",
        RebindReason::Migrate => "migrate",
    })
}

/// A remote op awaiting its answer.
struct Pending {
    /// The work request, kept until answered: a re-send gathers its
    /// payload again, and a READ's response lands in its SGEs.
    wr: SendWr,
    /// When the op counts as lost if still unanswered.
    deadline: Instant,
    /// When the op was posted (remote-op latency histogram).
    posted_at: Instant,
}

/// The wire status that carries a responder's verdict to its requester.
/// A flushed operation travels as `REMOTE_OP`: its requester flushed it
/// already, at the refusal that preceded it.
fn wire_status(status: WcStatus) -> u8 {
    match status {
        WcStatus::Success => st::OK,
        WcStatus::RemoteAccessError => st::REMOTE_ACCESS,
        WcStatus::RetryExcError => st::TIMEOUT,
        _ => st::REMOTE_OP,
    }
}

/// The requester's completion status for a wire status: the inverse of
/// [`wire_status`].
fn wc_status(status: u8) -> WcStatus {
    match status {
        st::OK => WcStatus::Success,
        st::REMOTE_ACCESS => WcStatus::RemoteAccessError,
        st::TIMEOUT => WcStatus::RetryExcError,
        _ => WcStatus::RemoteOperationError,
    }
}

/// The message answering `requester`'s relayed op `op_id` with `status`.
fn answer_msg(
    me: WireEp,
    requester: WireEp,
    op_id: u64,
    status: WcStatus,
    byte_len: u64,
) -> RelayMsg {
    match status {
        WcStatus::Success => RelayMsg::Ack {
            src: me,
            dst: requester,
            wr_id: op_id,
            byte_len,
        },
        s => RelayMsg::Nack {
            src: me,
            dst: requester,
            wr_id: op_id,
            status: wire_status(s),
        },
    }
}

fn verbs_ep(ep: WireEp) -> QpEndpoint {
    FfEndpoint::from_wire(ep).verbs()
}

struct QpInner {
    /// The data-plane binding: path + lifecycle phase + epoch/upgrade
    /// counters, one state machine for every transition.
    binding: PathBinding,
    /// Remote path: ops awaiting their answer, by wire op id (post order).
    pending: BTreeMap<u64, Pending>,
    /// Sends accepted while the binding is rebinding (or while a replay
    /// is dispatching): transmitted in order once Bound again.
    parked_sends: VecDeque<SendWr>,
    /// True while `replay_parked` is dispatching outside the lock; new
    /// application posts must park behind the queue to keep RC order.
    replaying: bool,
    next_op_id: u64,
    /// When the unanswered ops go again; `None` on a settled path.
    resend_at: Option<Instant>,
    /// A stale-route refusal found the bound transport still the
    /// orchestrator's choice since the last re-send round or answer:
    /// later refusals wait for the armed re-send instead of asking again.
    stale_asked: bool,
    /// Responder: the peer's relayed ops accepted (executed, or parked
    /// for a receive) through this op id.
    accepted: u64,
    /// Responder: an op past `accepted + 1` was refused; later ones are
    /// dropped unanswered until the gap fills.
    gap_refused: bool,
    /// The peer's placement generation as last resolved: a peer that
    /// moved with ops unanswered has them sent again.
    peer_placement: u64,
}

/// What a relayed request is to the responder, by its op id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seq {
    /// The next op: execute it.
    Next,
    /// Accepted before: answer again, without executing.
    Duplicate,
    /// Past a gap: refuse the first such op, drop the rest.
    Gap { refuse: bool },
}

/// Where a payload is staged for the relay ([`FfQp::stage_bytes`]).
enum StageTo<'a> {
    /// A fresh block of the host arena, sized to the payload.
    Block(&'a SharedArena, ArenaHandle),
    /// A buffer that rides inline.
    Vec(&'a mut Vec<u8>),
}

/// How a re-path came out.
enum Repath {
    /// A new path is bound (or a collapse waits to complete onto one);
    /// the unanswered ops went again on it.
    Moved,
    /// The orchestrator still picks the bound transport: forwarding has
    /// not converged onto it yet.
    Same,
    /// No path remains.
    Gone,
}

/// A FreeFlow virtual queue pair.
pub struct FfQp {
    lib: Arc<LibShared>,
    verbs_qp: Arc<QueuePair>,
    send_cq: Arc<CompletionQueue>,
    recv_cq: Arc<CompletionQueue>,
    sq_depth: usize,
    inner: Mutex<QpInner>,
    /// Per-op answer timeout in nanoseconds.
    op_timeout_ns: AtomicU64,
    /// Set while the cluster's live-migration driver holds this QP's
    /// binding frozen in `Rebinding`: the pump must not advance the
    /// lifecycle until the migration commits or aborts (the thaw).
    migration_hold: AtomicBool,
    /// Held from a post's op-id assignment, a re-send's snapshot or a
    /// rebind's new path until its messages are on the agent ring, so the
    /// ring carries this QP's ops in op-id order: the responder refuses an
    /// op that overtakes its predecessor.
    sending: Mutex<()>,
    /// Held while the lifecycle advances. The pump's walk and a migration
    /// thaw both advance it; two at once could replay parked sends out of
    /// order.
    advancing: Mutex<()>,
    /// How many times this QP re-established its path after a transport
    /// failure (tests/diagnostics).
    failovers: AtomicU64,
    /// How many remote ops this QP re-sent (tests/diagnostics).
    resent: AtomicU64,
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
        // The verbs QP answers a relayed op that parked for a receive
        // through this sink, when a receive is posted or the QP fails. It
        // opens to the fabric when the binding is Local.
        verbs_qp.set_fabric_open(false);
        let (sink_lib, me) = (Arc::clone(&lib), FfEndpoint::new(lib.ip, verbs_qp.qp_num()));
        verbs_qp.set_relay_sink(Box::new(move |from, status, byte_len| {
            let src = FfEndpoint::new(from.qp.addr, from.qp.qpn).wire();
            let msg = answer_msg(me.wire(), src, from.wr_id, status, byte_len);
            sink_lib.send_to_agent(std::slice::from_ref(&msg));
        }));
        Arc::new(Self {
            lib,
            verbs_qp,
            send_cq,
            recv_cq,
            sq_depth: sq_depth.max(1),
            inner: Mutex::new(QpInner {
                binding: PathBinding::new(),
                pending: BTreeMap::new(),
                parked_sends: VecDeque::new(),
                replaying: false,
                next_op_id: 1,
                resend_at: None,
                stale_asked: false,
                accepted: 0,
                gap_refused: false,
                peer_placement: 0,
            }),
            op_timeout_ns: AtomicU64::new(DEFAULT_OP_TIMEOUT.as_nanos() as u64),
            migration_hold: AtomicBool::new(false),
            sending: Mutex::new(()),
            advancing: Mutex::new(()),
            failovers: AtomicU64::new(0),
            resent: AtomicU64::new(0),
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
    /// pass the epoch the event is *about*: the old epoch for a started
    /// or aborted rebind, the new epoch for `Bound`/`Rebound`.
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

    /// Current state: the verbs QP's, which every binding steps.
    pub fn state(&self) -> QpState {
        self.verbs_qp.state()
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
        self.verbs_qp.modify_to_init()
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
        // The direct (shared-segment) path binds only when the peer is
        // co-located *and* policy granted a kernel-bypass transport; a
        // co-located pair under a no-bypass policy rides the relay so the
        // isolation decision actually holds on the data path.
        let path = if resolved.local && resolved.transport.kernel_bypass() {
            self.verbs_qp.set_fabric_open(true);
            FfPath::Local { peer }
        } else {
            FfPath::Remote {
                peer,
                transport: resolved.transport,
            }
        };
        self.verbs_qp.modify_to_rtr(peer.verbs())?;
        inner.peer_placement = resolved.placement;
        inner
            .binding
            .bind(path, resolved.generation)
            .map_err(|_| VerbsError::InvalidQpState {
                actual: inner.binding.phase().name(),
                required: "unbound binding",
            })?;
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
        self.verbs_qp.modify_to_rts()
    }

    /// Convenience: full `RESET → RTS` connection.
    pub fn connect(&self, peer: FfEndpoint) -> VerbsResult<()> {
        self.modify_to_init()?;
        self.modify_to_rtr(peer)?;
        self.modify_to_rts()
    }

    /// Force the error state, flushing receives, remote operations still
    /// awaiting their answer, and any sends parked behind an unfinished
    /// rebind.
    pub fn enter_error(&self) {
        self.fail_with(Vec::new(), u64::MAX);
    }

    /// Enter the error state because of the completions in `first` — the
    /// failure of remote op `cause`, or none when the application or a
    /// dead path said so — *then* deliver them, then the flushes. Verbs order: whoever
    /// observes an error completion must find the QP already in `Error`,
    /// exactly as a NIC moves the QP before it writes the CQE.
    ///
    /// Remote ops still awaiting an answer flush as the verbs engine
    /// flushes its own: those posted after the cause with
    /// [`WcStatus::WrFlushError`] — the rest of its chain, which the
    /// peer's responder refuses unexecuted — and those posted before it,
    /// parked at the peer for a receive, with [`WcStatus::RetryExcError`].
    fn fail_with(&self, mut first: Vec<WorkCompletion>, cause: u64) {
        {
            let mut inner = self.inner.lock();
            if inner.binding.phase() != BindingPhase::Error {
                let old = inner.binding.path().label();
                let reason = inner.binding.reason();
                let epoch = inner.binding.epoch();
                inner.binding.fail();
                self.record_transition(TransitionKind::Failed, reason, epoch, old, "error", false);
                inner.resend_at = None;
                let (later, earlier): (Vec<_>, Vec<_>) = std::mem::take(&mut inner.pending)
                    .into_iter()
                    .partition(|&(op_id, _)| op_id > cause);
                let flush = |ops: Vec<(u64, Pending)>, status| {
                    (ops.into_iter()).map(move |(_, p)| {
                        self.wc(p.wr.wr_id, status, p.wr.opcode.completes_as(), 0)
                    })
                };
                first.extend(flush(later, WcStatus::WrFlushError));
                first.extend(flush(earlier, WcStatus::RetryExcError));
                // Accepted but never transmitted: flush, exactly once.
                let parked = inner.parked_sends.drain(..);
                first.extend(parked.map(|wr| {
                    let opcode = wr.opcode.completes_as();
                    self.wc(wr.wr_id, WcStatus::WrFlushError, opcode, 0)
                }));
            }
        }
        // The verbs QP moves to `Error`, then pushes these, then flushes
        // its receives and answers the operations parked at it.
        self.verbs_qp.fail_with(&self.send_cq, &first);
    }

    /// The verbs QP entered `Error` on its own — a receive it matched for
    /// a relayed op failed: fail this QP with it.
    fn sync_error(&self) {
        if self.verbs_qp.state() == QpState::Error {
            self.enter_error();
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

    /// How many remote ops this QP re-sent (each re-send of an op counts).
    /// Exactly zero on a path that never failed.
    pub fn resent_count(&self) -> u64 {
        self.resent.load(Ordering::Relaxed)
    }

    fn op_deadline(&self) -> Instant {
        Instant::now() + Duration::from_nanos(self.op_timeout_ns.load(Ordering::Relaxed))
    }

    // --- transport failure, failover and re-send ----------------------------

    /// Called from the library pump: fail the QP if a pending remote op
    /// outlived its deadline — no path answered it in time, which is what
    /// `RETRY_EXC_ERR` reports on a NIC — and re-send the unanswered ops
    /// if their re-send is due. The flight recorder gets an
    /// [`Event::RelayExpired`] with the number of overdue ops, so a silent
    /// loss reads apart from a refused one. Returns the earliest deadline
    /// or re-send still pending, if any.
    pub fn sweep_timeouts(&self) -> Option<Instant> {
        let now = Instant::now();
        let (expired, resend) = {
            let inner = self.inner.lock();
            let expired = inner.pending.values().filter(|p| p.deadline <= now);
            (expired.count(), inner.resend_at.is_some_and(|at| at <= now))
        };
        if expired > 0 {
            self.lib.telemetry.record(Event::RelayExpired {
                host: self.lib.host().raw(),
                entries: expired as u32,
            });
            self.fail_with(Vec::new(), u64::MAX);
            return None;
        }
        if resend {
            self.resend(self.sending.lock());
        }
        let inner = self.inner.lock();
        let deadlines = inner.pending.values().map(|p| p.deadline);
        deadlines.chain(inner.resend_at).min()
    }

    /// Re-send every unanswered remote op, oldest first, on the bound
    /// path, each payload gathered again from its SGEs, and arm the next
    /// round should they stay unanswered. The responder executes each
    /// exactly once. An op whose payload cannot be staged now stays
    /// pending for the next round or its deadline. `_order` is the
    /// [`FfQp::sending`] guard, held until the ops are on the ring.
    fn resend(&self, _order: MutexGuard<'_, ()>) {
        let (ops, peer) = {
            let mut inner = self.inner.lock();
            let peer = match (inner.binding.phase(), inner.binding.path()) {
                (BindingPhase::Error, _) | (_, FfPath::Unbound | FfPath::Local { .. }) => None,
                (_, FfPath::Remote { peer, .. }) => Some(peer),
            };
            let Some(peer) = peer.filter(|_| !inner.pending.is_empty()) else {
                inner.resend_at = None;
                return;
            };
            let at = Instant::now() + RESEND_INTERVAL;
            inner.resend_at = Some(at);
            // A refusal of this round asks the orchestrator again.
            inner.stale_asked = false;
            self.lib.note_op_due(at);
            let ops: Vec<_> = (inner.pending.iter())
                .map(|(&id, p)| (id, p.wr.clone()))
                .collect();
            (ops, peer)
        };
        let (me, dst, mut lkey) = (self.endpoint().wire(), peer.wire(), None);
        let msgs: Vec<_> = (ops.iter())
            .filter_map(|(id, wr)| {
                let payload = self.stage(wr, &mut lkey).ok()?;
                Some(Self::relay_msg(*id, wr, me, dst, payload))
            })
            .collect();
        self.lib.send_to_agent(&msgs);
        self.resent.fetch_add(msgs.len() as u64, Ordering::Relaxed);
        let help = "remote operations re-sent after a failover or a refusal";
        self.rare_counter("ff_qp_resent_total", help)
            .add(msgs.len() as u64);
        self.lib.telemetry.record(Event::QpResend {
            container: self.lib.id.raw(),
            qpn: self.qp_num(),
            first_op: ops[0].0,
            ops: msgs.len() as u32,
        });
    }

    /// The agent refused an op on a downed wire while another wire to the
    /// peer's host is up, or a host the peer left refused it
    /// ([`st::STALE_ROUTE`]). Fail over if the
    /// orchestrator now picks another transport; otherwise forwarding has
    /// not converged onto the bound one yet, and the ops go again after
    /// [`RESEND_INTERVAL`]. The ops stay pending either way.
    fn on_stale_route(&self) {
        {
            let mut inner = self.inner.lock();
            if inner.binding.phase() != BindingPhase::Bound || inner.stale_asked {
                // Mid-rebind, the rebind supplies the path; asked already
                // for this round, its re-send is armed.
                self.arm_resend(&mut inner);
                return;
            }
        }
        match self.try_repath() {
            Repath::Moved => {}
            Repath::Same => {
                let mut inner = self.inner.lock();
                inner.stale_asked = true;
                self.arm_resend(&mut inner);
            }
            Repath::Gone => self.fail_with(Vec::new(), u64::MAX),
        }
    }

    /// Arm a re-send one [`RESEND_INTERVAL`] out, unless one is armed.
    fn arm_resend(&self, inner: &mut QpInner) {
        if inner.resend_at.is_none() {
            let at = Instant::now() + RESEND_INTERVAL;
            inner.resend_at = Some(at);
            self.lib.note_op_due(at);
        }
    }

    /// The bound remote path's peer and transport, while a failover may
    /// start from it. Local paths ride the verbs fabric (no wire to fail
    /// over); unbound, errored and mid-rebind QPs have nothing to rebind.
    fn failover_from(&self, inner: &QpInner) -> Option<(FfEndpoint, TransportKind)> {
        match (self.state(), inner.binding.phase(), inner.binding.path()) {
            (
                QpState::Rts | QpState::Rtr,
                BindingPhase::Bound,
                FfPath::Remote { peer, transport },
            ) => Some((peer, transport)),
            _ => None,
        }
    }

    /// Re-run path selection for the current peer (FreeFlow's failover:
    /// the orchestrator knows which transports still work), and fail over
    /// onto its answer.
    fn try_repath(&self) -> Repath {
        let Some((peer, _)) = self.failover_from(&self.inner.lock()) else {
            return Repath::Gone;
        };
        // Drop the stale location entry so resolve() asks the
        // orchestrator, which has the current health picture.
        self.lib.cache.invalidate(peer.ip);
        let Ok(resolved) = self.lib.resolve(peer.ip) else {
            return Repath::Gone;
        };
        self.rebind_onto(RebindReason::Failover, resolved)
    }

    /// Start a rebind for `reason` and record it, with the epoch it ends.
    /// False when the binding is not bound.
    fn begin_rebind(&self, inner: &mut QpInner, reason: RebindReason) -> bool {
        let label = inner.binding.path().label();
        if inner.binding.begin_rebind(reason).is_err() {
            return false;
        }
        if reason == RebindReason::Failover {
            // Counter and flight-recorder event move together: every
            // failover_count increment has exactly one
            // RebindStarted(failover) event.
            self.failovers.fetch_add(1, Ordering::Relaxed);
            self.tm_failovers.inc();
        }
        let epoch = inner.binding.epoch();
        self.record_transition(
            TransitionKind::RebindStarted,
            Some(reason),
            epoch,
            label,
            label,
            false,
        );
        true
    }

    /// Rebind onto `resolved`, the orchestrator's choice for the peer,
    /// unless it is the bound transport still. The unanswered ops cross
    /// with the binding: on a new transport it rebinds at once and they go
    /// again on it, ahead of any send parked meanwhile; onto a peer now on
    /// this host they go again through the local agent while the pump
    /// finishes the collapse.
    fn rebind_onto(&self, reason: RebindReason, resolved: ResolvedPath) -> Repath {
        let order = self.sending.lock();
        let mut inner = self.inner.lock();
        let Some((peer, old)) = self.failover_from(&inner) else {
            return Repath::Gone;
        };
        let collapses = resolved.local && resolved.transport.kernel_bypass();
        if !collapses && resolved.transport == old {
            return Repath::Same;
        }
        if !self.begin_rebind(&mut inner, reason) {
            return Repath::Gone; // raced with another lifecycle transition
        }
        if collapses {
            drop((inner, order));
            self.lib.request_walk();
            return Repath::Moved;
        }
        let path = FfPath::Remote {
            peer,
            transport: resolved.transport,
        };
        let rebound = self.complete_rebind(&mut inner, path, resolved.generation);
        debug_assert!(rebound, "the rebinding phase was just entered");
        drop(inner);
        self.carry_across(order);
        Repath::Moved
    }

    /// Complete the rebind in progress onto `path`: count and record it.
    /// False when no rebind is in progress.
    fn complete_rebind(&self, inner: &mut QpInner, path: FfPath, generation: u64) -> bool {
        let b = &mut inner.binding;
        let (from, reason, ups) = (b.path().label(), b.reason(), b.upgrades());
        if b.complete_rebind(path, generation).is_err() {
            return false;
        }
        let upgrade = b.upgrades() > ups;
        self.tm_rebinds.inc();
        if upgrade {
            self.tm_upgrades.inc();
        }
        let epoch = b.epoch();
        self.record_transition(
            TransitionKind::Rebound,
            reason,
            epoch,
            from,
            path.label(),
            upgrade,
        );
        true
    }

    /// Called from the library pump after a location/health event:
    /// decide whether the current remote path should make way for a
    /// better one — an upgrade, or a collapse onto a peer now on this
    /// host — and rebind onto it at once. When the orchestrator now picks
    /// a worse transport, the bound one died: a QP with ops unanswered,
    /// whose answers may have been lost with it, fails over at once and
    /// re-sends them. One with none fails over when a send of its meets
    /// the dead wire. When the peer moved and kept its transport, the
    /// binding stays, but answers sent from the host it left, and ops
    /// sent there, may be lost: the unanswered ops go again.
    pub(crate) fn consider_rebind(&self) {
        let (peer, current) = {
            let inner = self.inner.lock();
            match (self.state(), inner.binding.phase(), inner.binding.path()) {
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
        // A degraded resolution knows no placement (0), so it moves nothing.
        let moved = resolved.placement != 0 && {
            let last = &mut self.inner.lock().peer_placement;
            std::mem::replace(last, resolved.placement) != resolved.placement
        };
        let reason = if resolved.local && resolved.transport.kernel_bypass() {
            RebindReason::Collapse
        } else if !resolved.local
            && freeflow_orchestrator::policy::is_upgrade(current, resolved.transport)
        {
            RebindReason::Upgrade
        } else if resolved.transport != current && self.unanswered() > 0 {
            RebindReason::Failover
        } else {
            let mut inner = self.inner.lock();
            if moved && !inner.pending.is_empty() {
                self.arm_resend(&mut inner);
            }
            return;
        };
        self.rebind_onto(reason, resolved);
    }

    /// Called from the library pump's QP walk, and by the migration
    /// coordinator after a thaw: finish a rebind left in progress — a
    /// collapse waiting on its peer, or a thawed migration. One caller at
    /// a time.
    pub(crate) fn poll_binding(&self) {
        let _one = self.advancing.lock();
        // Frozen for a live migration: the binding holds in `Rebinding`
        // until the migration coordinator thaws it.
        if !self.migration_hold.load(Ordering::Acquire)
            && self.inner.lock().binding.phase() == BindingPhase::Rebinding
        {
            self.finish_rebind();
        }
    }

    // --- live migration (driven by the cluster's 2PC coordinator) -----------

    /// Freeze this QP for a live migration: a planned
    /// `begin_rebind(Migrate)` that holds the binding in `Rebinding` (the
    /// pump leaves it there while the hold is set) until
    /// [`FfQp::thaw_migration`]. New application posts park; nothing is
    /// waited for — the unanswered ops cross with the binding and go
    /// again after the thaw.
    ///
    /// Returns `false` when the QP was *not* frozen — today only the
    /// collapsed (shared-memory) binding. That is the un-collapse
    /// boundary: a `Local` path's peer sends straight into the host-verbs
    /// QP, with no relay in between, so the binding rides through the
    /// migration untouched and simply goes stale if the pair is torn
    /// apart ([`FfQp::path_is_current`] turns false; the application
    /// re-establishes explicitly, exactly as before cross-host migration
    /// existed). The migration itself still proceeds.
    pub fn freeze_for_migration(&self) -> bool {
        let mut inner = self.inner.lock();
        if inner.binding.phase() == BindingPhase::Bound {
            if matches!(inner.binding.path(), FfPath::Local { .. }) {
                return false;
            }
            self.begin_rebind(&mut inner, RebindReason::Migrate);
        }
        // Unbound, errored, or a rebind already in progress (a collapse
        // waiting on its peer): hold it where it stands; the thaw
        // re-resolves from the final placement.
        self.migration_hold.store(true, Ordering::Release);
        true
    }

    /// Remote operations still awaiting their answer. A Local binding's
    /// own posts are answered at once or park at the peer; it holds only
    /// relayed ops a collapse carried across, parked at the peer.
    pub fn unanswered(&self) -> usize {
        self.inner.lock().pending.len()
    }

    /// Responder: the peer's relayed ops accepted through this op id.
    #[cfg(test)]
    pub(crate) fn accepted(&self) -> u64 {
        self.inner.lock().accepted
    }

    /// Inbound operations parked at this QP for a receive (RNR), relayed
    /// or direct.
    pub fn parked_inbound(&self) -> usize {
        self.verbs_qp.parked_inbound()
    }

    /// Receives posted at this QP and not yet matched.
    pub fn posted_recvs(&self) -> usize {
        self.verbs_qp.posted_recvs()
    }

    /// Release a migration freeze and ring the library pump, whose next
    /// walk finishes the held rebind through the ordinary lifecycle: after
    /// a *commit* the library has been rehomed, so the rebind resolves
    /// from the target host (same transport → back onto the identical
    /// path, new transport → `Rebound`, peer now co-located → collapse);
    /// after an *abort* it resolves from the unchanged source host and
    /// falls back onto the old path. Either way the unanswered ops go
    /// again — after a commit their answers went to the source host — and
    /// then the parked sends. Every outcome is a legal `PathBinding`
    /// transition.
    pub fn thaw_migration(&self) {
        self.migration_hold.store(false, Ordering::Release);
        self.lib.request_walk();
    }

    /// Whether this QP is currently frozen for a migration.
    pub fn migration_held(&self) -> bool {
        self.migration_hold.load(Ordering::Acquire)
    }

    /// Snapshot this QP's migrable state into a checkpoint record. Call
    /// under the freeze, which issues no op id: `in_flight` is carried so
    /// the restore side can check no unanswered op joined those captured.
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
            posted_recvs: self.verbs_qp.posted_recvs() as u32,
            inbound_pending: self.verbs_qp.parked_inbound() as u32,
            in_flight: (inner.pending.len()) as u32,
            next_op_id: inner.next_op_id,
            accepted: inner.accepted,
        }
    }

    /// Establish the new path of the rebind in progress. May run
    /// repeatedly — a collapse waits for its peer.
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
                // A planned rebind that went stale (the event raced), or
                // a migration that kept its transport: the old path.
                _ => self.abort_or_fail(reason),
            }
            return;
        }
        let path = FfPath::Remote {
            peer,
            transport: resolved.transport,
        };
        self.commit_rebind(path, resolved.generation);
    }

    /// Complete the rebind in progress onto `path`, then carry the
    /// unanswered ops and the parked sends across.
    fn commit_rebind(&self, path: FfPath, generation: u64) {
        let order = self.sending.lock();
        if self.complete_rebind(&mut self.inner.lock(), path, generation) {
            self.carry_across(order);
        }
    }

    /// A rebind cannot proceed: keep the old path for planned rebinds,
    /// then carry the unanswered ops and the parked sends across; error
    /// out for failovers (their old path is dead).
    fn abort_or_fail(&self, reason: Option<RebindReason>) {
        if reason == Some(RebindReason::Failover) {
            self.enter_error();
            return;
        }
        let order = self.sending.lock();
        {
            let mut inner = self.inner.lock();
            if inner.binding.abort_rebind().is_err() {
                return;
            }
            let label = inner.binding.path().label();
            self.record_transition(
                TransitionKind::Aborted,
                reason,
                inner.binding.epoch(),
                label,
                label,
                false,
            );
        }
        self.carry_across(order);
    }

    /// The end of every rebind: re-send the unanswered ops on the path it
    /// ended on, oldest first, then replay the sends parked behind them.
    /// The rebind took `order` before its new path was bound, so a post
    /// meanwhile waits behind the re-send, as behind another post, and
    /// does not overtake it.
    fn carry_across(&self, order: MutexGuard<'_, ()>) {
        self.resend(order);
        self.replay_parked();
    }

    /// Remote→Local collapse: the peer now shares this host. The verbs QP
    /// has held this QP's receives, and answered relayed ops, all along:
    /// the application keeps its QP, MRs, wr_ids and posted receives; no
    /// reconnect. The switch waits for two things. The peer's half of the
    /// verbs connection must be on this host's fabric, or the first direct
    /// send would be refused. And no direct post may overtake a carried op
    /// the responder has not accepted yet: each must be answered, or
    /// parked at the peer's verbs QP for a receive — which answers it
    /// ahead of anything sent directly. Once the peer's half is open, the
    /// carried ops go again through the local agent until then. An op
    /// parked for a receive never holds the collapse up.
    fn finish_collapse(&self, peer: FfEndpoint, generation: u64) {
        // Our half first, idempotent across retries: the peer may now
        // post to us directly. The peer collapses on its own schedule,
        // driven by the same orchestrator event — and not while it is
        // frozen for a migration that may yet roll back.
        self.verbs_qp.set_fabric_open(true);
        let (carried, armed) = {
            let inner = self.inner.lock();
            let carried: Vec<u64> = inner.pending.keys().copied().collect();
            (carried, inner.resend_at.is_some())
        };
        let me = self.endpoint().verbs();
        let peer_qp = (self.lib.device.network().find_device(peer.ip))
            .and_then(|d| d.find_qp(peer.verbs().qpn))
            .filter(|qp| qp.fabric_open() && matches!(qp.state(), QpState::Rtr | QpState::Rts));
        // Until the peer's half is open here, the peer may not be either:
        // the local agent would refuse what went to it.
        let Some(peer_qp) = peer_qp else { return };
        let accepted = |wr_id| {
            peer_qp.parks(Requester {
                qp: me,
                wr_id,
                relayed: true,
            })
        };
        if carried.into_iter().all(accepted) {
            self.commit_rebind(FfPath::Local { peer }, generation);
        } else if !armed {
            self.resend(self.sending.lock());
        }
    }

    /// Re-dispatch sends parked during a rebind, in order. `replaying`
    /// makes concurrent application posts park behind the queue instead
    /// of overtaking it.
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
            let (wr_id, opcode) = (wr.wr_id, wr.opcode.completes_as());
            if self.dispatch(std::iter::once(wr), path).is_err() {
                // The WR was accepted at post time: it must still
                // resolve exactly once.
                let wc = self.wc(wr_id, WcStatus::WrFlushError, opcode, 0);
                self.send_cq.push(wc);
            }
        }
    }

    // --- data path ----------------------------------------------------------

    /// Post a receive, on any binding, into the verbs QP: its receive
    /// side answers relayed and direct operations alike.
    pub fn post_recv(&self, wr: RecvWr) -> VerbsResult<()> {
        self.verbs_qp.post_recv(wr)?;
        self.sync_error();
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
    /// While the binding is rebinding the whole chain is accepted and
    /// *parked*, in order, behind any already-parked sends — its local
    /// side vetted at once, as on a bound path, and it replays exactly once
    /// on the new path, behind the re-sent unanswered ops, never
    /// straddling the rebind boundary partially, so a live upgrade or
    /// collapse is invisible to the application.
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
            // A failing QP is `Error` from its binding on, a moment before
            // the verbs QP follows.
            let state = match inner.binding.phase() {
                BindingPhase::Error => QpState::Error,
                _ => self.state(),
            };
            if state != QpState::Rts {
                return Err(VerbsError::InvalidQpState {
                    actual: state.name(),
                    required: "RTS",
                });
            }
            let settled = inner.binding.phase() == BindingPhase::Bound
                && !inner.replaying
                && inner.parked_sends.is_empty();
            // In-flight plus parked work shares the send-queue depth; a
            // Local path's depth is the verbs QP's own.
            let in_flight = inner.pending.len();
            let path = inner.binding.path();
            if !settled {
                if in_flight + inner.parked_sends.len() + wrs.len() > self.sq_depth {
                    return Err(VerbsError::QueueFull { which: "send" });
                }
                // Vetted as a settled post stages it: the chain parks up
                // to a WR whose local side fails, which refuses the rest.
                for wr in wrs {
                    self.lib.device.check_local(&wr)?;
                    inner.parked_sends.push_back(wr);
                }
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
    /// silently undeliverable.
    pub(crate) const MAX_INLINE_RELAY: usize = 1 << 20;

    /// Stage `len` payload bytes for the relay, copied by `copy`: from
    /// [`ZERO_COPY_THRESHOLD`] bytes on, straight into a fresh block of
    /// the host arena (zero-copy to the agent); below it, or when the
    /// arena is full, into a `Vec` that rides inline. `Ok(None)` when the
    /// arena is full and the payload too large for the inline path.
    fn stage_bytes(
        &self,
        len: u64,
        copy: impl FnOnce(StageTo<'_>) -> VerbsResult<()>,
    ) -> VerbsResult<Option<RelayPayload>> {
        if len >= ZERO_COPY_THRESHOLD as u64 {
            let arena = self.lib.arena();
            if let Ok(block) = arena.alloc(len) {
                if let Err(e) = copy(StageTo::Block(&arena, block)) {
                    let _ = arena.free(block);
                    return Err(e);
                }
                let offset = block.offset;
                return Ok(Some(RelayPayload::Arena { offset, len }));
            }
        }
        let mut data = Vec::new();
        copy(StageTo::Vec(&mut data))?;
        Ok((data.len() <= Self::MAX_INLINE_RELAY).then(|| RelayPayload::Inline(data.into())))
    }

    /// Gather a WR's payload and stage it for the relay: big payloads go
    /// straight into the host arena, small ones inline.
    fn stage_payload(
        &self,
        wr: &SendWr,
        lkey: &mut Option<Arc<MemoryRegion>>,
    ) -> VerbsResult<RelayPayload> {
        let device = &self.lib.device;
        let len = wr.total_len();
        let staged = self.stage_bytes(len, |to| match to {
            StageTo::Block(arena, block) => device.gather_to_block(wr, lkey, arena, block),
            StageTo::Vec(out) => device.gather_into(wr, lkey, out),
        })?;
        staged.ok_or_else(|| VerbsError::ResourceLimit {
            detail: format!(
                "payload of {len} bytes: host arena exhausted and too large \
                 for the inline relay channel"
            ),
        })
    }

    /// Stage a WR's payload for the relay. A READ's SGEs are where its
    /// response lands: nothing to gather, but they are vetted now, as the
    /// verbs engine vets them.
    fn stage(
        &self,
        wr: &SendWr,
        lkey: &mut Option<Arc<MemoryRegion>>,
    ) -> VerbsResult<RelayPayload> {
        match wr.opcode {
            WrOpcode::Read { .. } => {
                self.lib.device.check_scatter(&wr.sge)?;
                Ok(RelayPayload::Inline(Bytes::new()))
            }
            _ => self.stage_payload(wr, lkey),
        }
    }

    /// The message carrying `wr` as remote op `op_id`.
    fn relay_msg(
        op_id: u64,
        wr: &SendWr,
        src: WireEp,
        dst: WireEp,
        payload: RelayPayload,
    ) -> RelayMsg {
        match wr.opcode {
            WrOpcode::Read { remote_addr, rkey } => RelayMsg::ReadReq {
                src,
                dst,
                req_id: op_id,
                addr: remote_addr,
                rkey,
                len: wr.total_len(),
            },
            WrOpcode::Send => RelayMsg::Send {
                src,
                dst,
                wr_id: op_id,
                imm: None,
                payload,
            },
            WrOpcode::Write { remote_addr, rkey }
            | WrOpcode::WriteWithImm {
                remote_addr, rkey, ..
            } => RelayMsg::Write {
                src,
                dst,
                wr_id: op_id,
                addr: remote_addr,
                rkey,
                imm: match wr.opcode {
                    WrOpcode::WriteWithImm { imm, .. } => Some(imm),
                    _ => None,
                },
                payload,
            },
        }
    }

    /// Remote post: every WR is gathered and staged, then the chain is
    /// registered as in flight under one lock — before its messages can
    /// reach the agent, since an answer can race the post's return, and
    /// all at once, so a re-send never sees part of it — and leaves in one
    /// agent push, ahead of any later post or re-send. A WR that fails to
    /// stage stops the chain there — WRs before it are transmitted and
    /// stand, it and the remainder are refused with the error, exactly
    /// like the verbs chain.
    fn post_remote(
        &self,
        wrs: impl ExactSizeIterator<Item = SendWr>,
        peer: FfEndpoint,
    ) -> VerbsResult<()> {
        let (me, dst) = (self.endpoint().wire(), peer.wire());
        let (mut lkey, mut staged, mut result) = (None, Vec::with_capacity(wrs.len()), Ok(()));
        for wr in wrs {
            match self.stage(&wr, &mut lkey) {
                Ok(payload) => staged.push((wr, payload)),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        let (due, posted_at) = (self.op_deadline(), Instant::now());
        let order = self.sending.lock();
        let msgs = {
            let mut inner = self.inner.lock();
            if inner.binding.phase() == BindingPhase::Error {
                // The QP failed since it admitted the chain: flushed, as
                // the failure flushed everything else.
                drop((inner, order));
                for (wr, payload) in staged {
                    self.unstage(payload);
                    let wc = self.wc(
                        wr.wr_id,
                        WcStatus::WrFlushError,
                        wr.opcode.completes_as(),
                        0,
                    );
                    self.send_cq.push(wc);
                }
                return result;
            }
            let mut register = |(wr, payload)| {
                let op_id = inner.next_op_id;
                inner.next_op_id += 1;
                let msg = Self::relay_msg(op_id, &wr, me, dst, payload);
                let pending = Pending {
                    wr,
                    deadline: due,
                    posted_at,
                };
                inner.pending.insert(op_id, pending);
                msg
            };
            staged.into_iter().map(&mut register).collect::<Vec<_>>()
        };
        if !msgs.is_empty() {
            // Registered: now the pump's idle deadline must cover them.
            self.lib.note_op_due(due);
        }
        self.lib.send_to_agent(&msgs);
        drop(order);
        result
    }

    // --- inbound (called from the library pump) ----------------------------

    /// Free the arena block of a payload staged here and never sent.
    fn unstage(&self, p: RelayPayload) {
        if let RelayPayload::Arena { offset, len } = p {
            Payload::Block {
                arena: &self.lib.arena(),
                offset,
                len,
            }
            .discard();
        }
    }

    /// A relay payload as the responder lands it: inline bytes, or an
    /// arena block, taken from `arena` as it lands (the receive-side copy
    /// out of shared memory, straight into the MR). `None` for a
    /// descriptor naming a block the host arena does not hold: the sender
    /// wrote it, and nothing lands from it.
    fn landing<'a>(p: &'a RelayPayload, arena: &'a SharedArena) -> Option<Payload<'a>> {
        match *p {
            RelayPayload::Inline(ref bytes) => Some(Payload::Bytes(bytes)),
            RelayPayload::Arena { offset, len } => {
                (arena.holds(offset, len)).then_some(Payload::Block { arena, offset, len })
            }
        }
    }

    /// Handle one inbound relay message addressed to this QP. Only the
    /// connected peer is heard, as on an RC QP: anything else is counted
    /// and refused, a request with `REMOTE_ACCESS` and an answer by
    /// dropping it. A request passes the sequence check to the verbs QP's
    /// responder, and its answer goes back to the requester; an answer
    /// settles one of this QP's remote ops.
    pub(crate) fn handle_inbound(&self, msg: RelayMsg) {
        let src = msg.src();
        match msg {
            RelayMsg::Send {
                wr_id,
                imm,
                payload,
                ..
            } => self.respond(src, wr_id, payload, |from, data| {
                self.verbs_qp.answer_send(from, data, imm)
            }),
            RelayMsg::Write {
                wr_id,
                addr,
                rkey,
                imm,
                payload,
                ..
            } => self.respond(src, wr_id, payload, |from, data| {
                self.verbs_qp.answer_write(from, addr, rkey, data, imm)
            }),
            RelayMsg::ReadReq {
                req_id,
                addr,
                rkey,
                len,
                ..
            } => self.respond_read(src, req_id, addr, rkey, len),
            RelayMsg::ReadResp {
                req_id,
                status,
                payload,
                ..
            } => {
                let arena = self.lib.arena();
                match (self.hears(src), status, Self::landing(&payload, &arena)) {
                    (true, st::OK, Some(data)) => {
                        let len = data.len();
                        self.answered(req_id, Some(data), len);
                    }
                    (heard, status, unlanded) => {
                        if let Some(unlanded) = unlanded {
                            unlanded.discard();
                        }
                        if heard {
                            // An OK whose block the arena does not hold.
                            let status = if status == st::OK {
                                st::REMOTE_ACCESS
                            } else {
                                status
                            };
                            self.refused(req_id, status);
                        }
                    }
                }
            }
            RelayMsg::Ack {
                wr_id, byte_len, ..
            } => {
                if self.hears(src) {
                    self.answered(wr_id, None, byte_len);
                }
            }
            RelayMsg::Nack { wr_id, status, .. } => {
                if self.hears(src) {
                    self.refused(wr_id, status);
                }
            }
        }
    }

    /// The connected peer's endpoint, once there is one.
    fn peer(inner: &QpInner) -> Option<WireEp> {
        match inner.binding.path() {
            FfPath::Local { peer } | FfPath::Remote { peer, .. } => Some(peer.wire()),
            FfPath::Unbound => None,
        }
    }

    /// A counter of this QP's that a settled QP never moves, registered on
    /// first use so that creating a QP pays nothing for it.
    fn rare_counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        let labels = LabelSet::host(self.lib.host().raw()).with_container(self.lib.id.raw());
        self.lib.telemetry.registry().counter(name, help, labels)
    }

    fn count_refusal(&self) {
        let help = "relayed messages refused for not coming from the connected peer";
        self.rare_counter("ff_qp_refused_total", help).inc();
    }

    /// Whether `src` is the connected peer; a refusal is counted if not.
    fn hears(&self, src: WireEp) -> bool {
        let heard = Self::peer(&self.inner.lock()) == Some(src);
        if !heard {
            self.count_refusal();
        }
        heard
    }

    /// Where relayed request `op_id` from `src` stands, accepting it if it
    /// is the next; `None` (counted) when `src` is not the connected peer.
    fn sequence(&self, src: WireEp, op_id: u64) -> Option<Seq> {
        let mut inner = self.inner.lock();
        if Self::peer(&inner) != Some(src) {
            drop(inner);
            self.count_refusal();
            return None;
        }
        let next = inner.accepted + 1;
        Some(if op_id == next {
            inner.accepted = next;
            inner.gap_refused = false;
            Seq::Next
        } else if op_id < next {
            Seq::Duplicate
        } else {
            Seq::Gap {
                refuse: !std::mem::replace(&mut inner.gap_refused, true),
            }
        })
    }

    /// Whether the verbs QP still answers: a responder in `Error` drops a
    /// duplicate, as a NIC drops what reaches a QP in error, and its
    /// requester's op deadline decides.
    fn receiving(&self) -> bool {
        matches!(self.state(), QpState::Rtr | QpState::Rts)
    }

    /// Refuse relayed op `op_id` of `requester` unexecuted with `status`.
    fn refuse(&self, requester: WireEp, op_id: u64, read: bool, status: u8) {
        let (me, empty) = (self.endpoint().wire(), RelayPayload::Inline(Bytes::new()));
        self.reply(match read {
            true => RelayMsg::ReadResp {
                src: me,
                dst: requester,
                req_id: op_id,
                status,
                payload: empty,
            },
            false => RelayMsg::Nack {
                src: me,
                dst: requester,
                wr_id: op_id,
                status,
            },
        });
    }

    /// Hand a relayed SEND or WRITE to the verbs QP's responder through
    /// `answer`, and send back what it answers at once; one that parks is
    /// answered through the relay sink later. An op whose payload cannot
    /// be read fails with REMOTE_ACCESS; nothing is delivered in its place.
    /// A duplicate is answered again unexecuted, or dropped while it is
    /// parked: its answer comes through the sink.
    fn respond(
        &self,
        src: WireEp,
        op_id: u64,
        payload: RelayPayload,
        answer: impl FnOnce(Requester, Payload<'_>) -> Answer,
    ) {
        let from = Requester {
            qp: verbs_ep(src),
            wr_id: op_id,
            relayed: true,
        };
        let arena = self.lib.arena();
        let data = Self::landing(&payload, &arena);
        let len = data.as_ref().map_or(0, Payload::len);
        let seq = self.sequence(src, op_id);
        // Only the next op lands: any other's arena block is freed here.
        let data = match (seq, data) {
            (Some(Seq::Next), data) => data,
            (_, Some(unlanded)) => {
                unlanded.discard();
                None
            }
            (_, None) => None,
        };
        let status = match (seq, data) {
            (None, _) => return self.refuse(src, op_id, false, st::REMOTE_ACCESS),
            (Some(Seq::Gap { refuse }), _) => {
                if refuse {
                    self.refuse(src, op_id, false, st::OUT_OF_ORDER);
                }
                return;
            }
            (Some(Seq::Duplicate), _) if self.verbs_qp.parks(from) || !self.receiving() => return,
            (Some(Seq::Duplicate), _) => WcStatus::Success,
            (Some(Seq::Next), Some(data)) => match answer(from, data) {
                Answer::Now(status) => status,
                Answer::Parked => return,
            },
            (Some(Seq::Next), None) => WcStatus::RemoteAccessError,
        };
        self.reply(answer_msg(self.endpoint().wire(), src, op_id, status, len));
        if !status.is_ok() {
            // A receive that failed its match took the verbs QP to `Error`.
            self.sync_error();
        }
    }

    /// Answer a relayed READ, a duplicate too: it executes again, as on
    /// RC. The MR bounds its length; a response of [`ZERO_COPY_THRESHOLD`]
    /// bytes or more is read straight into an arena block, as a WRITE's
    /// payload is gathered.
    fn respond_read(&self, src: WireEp, req_id: u64, addr: u64, rkey: u32, len: u64) {
        match self.sequence(src, req_id) {
            None => return self.refuse(src, req_id, true, st::REMOTE_ACCESS),
            Some(Seq::Gap { refuse }) => {
                if refuse {
                    self.refuse(src, req_id, true, st::OUT_OF_ORDER);
                }
                return;
            }
            Some(Seq::Duplicate) if !self.receiving() => return,
            Some(Seq::Next | Seq::Duplicate) => {}
        }
        let read = (self.verbs_qp).answer_read(verbs_ep(src), addr, rkey, len, |mr| {
            self.stage_bytes(len, |to| match to {
                StageTo::Block(arena, block) => mr.dma_read_to_block(addr, len, arena, block, 0),
                StageTo::Vec(out) => mr.dma_read_into(addr, len, out),
            })
        });
        let (status, payload) = match read {
            Ok(Some(payload)) => (st::OK, payload),
            // The arena is full and the response too long to ride inline.
            Ok(None) => (st::REMOTE_OP, RelayPayload::Inline(Bytes::new())),
            Err(status) => (wire_status(status), RelayPayload::Inline(Bytes::new())),
        };
        self.reply(RelayMsg::ReadResp {
            src: self.endpoint().wire(),
            dst: src,
            req_id,
            status,
            payload,
        });
    }

    /// The peer answered remote op `op_id`: `byte_len` bytes delivered,
    /// or a READ's `data`, which lands in its SGEs. An answer to an op no
    /// longer pending — a duplicate's — is dropped.
    fn answered(&self, op_id: u64, data: Option<Payload<'_>>, byte_len: u64) {
        // A READ's bytes land before the op leaves `pending`, so whoever
        // sees it answered (`unanswered`) finds them in place.
        let placed = match data {
            None => true,
            Some(data) => {
                let sge = (self.inner.lock().pending.get(&op_id)).map(|p| p.wr.sge.clone());
                let Some(sge) = sge else {
                    return data.discard();
                };
                self.lib.device.scatter(&sge, data).is_ok()
            }
        };
        let pending = {
            let mut inner = self.inner.lock();
            let pending = inner.pending.remove(&op_id);
            // The path answers: a later refusal asks the orchestrator anew.
            inner.stale_asked = false;
            if inner.pending.is_empty() {
                inner.resend_at = None;
            }
            pending
        };
        let Some(p) = pending else { return };
        self.tm_remote_latency
            .record(p.posted_at.elapsed().as_nanos() as u64);
        let (wr_id, opcode) = (p.wr.wr_id, p.wr.opcode.completes_as());
        if !placed {
            let wc = self.wc(wr_id, WcStatus::LocalProtectionError, opcode, 0);
            self.fail_with(vec![wc], op_id);
        } else if p.wr.signaled {
            self.send_cq
                .push(self.wc(wr_id, WcStatus::Success, opcode, byte_len));
        }
    }

    /// The peer, or an agent on the way, refused remote op `op_id` with
    /// wire status `status`. A stale route or a gap is not an answer: the
    /// op stays pending and goes again. A `TIMEOUT` means no path
    /// survives, or the peer failed with the op parked there: every
    /// unanswered op completes `RETRY_EXC_ERR` with the QP in `Error`. Any
    /// other status is the op's own error completion.
    fn refused(&self, op_id: u64, status: u8) {
        if !self.inner.lock().pending.contains_key(&op_id) {
            return;
        }
        match status {
            st::STALE_ROUTE => self.on_stale_route(),
            st::OUT_OF_ORDER => self.resend(self.sending.lock()),
            st::TIMEOUT => self.fail_with(Vec::new(), u64::MAX),
            _ => {
                let Some(p) = self.inner.lock().pending.remove(&op_id) else {
                    return;
                };
                let opcode = p.wr.opcode.completes_as();
                let wc = self.wc(p.wr.wr_id, wc_status(status), opcode, 0);
                self.fail_with(vec![wc], op_id);
            }
        }
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
            .field("state", &self.state().name())
            .field("path", &inner.binding.path())
            .field("phase", &inner.binding.phase().name())
            .field("epoch", &inner.binding.epoch())
            .finish()
    }
}
