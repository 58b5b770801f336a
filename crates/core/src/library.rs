//! The per-container FreeFlow network library.
//!
//! Paper §3.2: *"FreeFlow's network library is the core component which
//! decides which communication paradigm to use. It supports standard
//! network programming APIs ... and keeps pulling the newest container
//! location information from the network orchestrator."*
//!
//! One [`NetLibrary`] lives inside each container. It owns:
//!
//! * the container's **virtual NIC** — a `freeflow-verbs` device bound to
//!   the container's overlay IP on its host's verbs fabric;
//! * the channel to the **host agent** (shared memory both ways);
//! * the **location cache** fed by the orchestrator's event stream;
//! * the **progress pump** — a thread that dispatches inbound relay
//!   messages to the right [`FfQp`], applies cache invalidations and runs
//!   the steps socket channels hand it ([`LibHandle::adopt`]).
//!
//! Memory registrations are arena-backed when the host segment has room,
//! so that the intra-host data plane is genuinely zero-copy shared memory.

use crate::binding::BindingPhase;
use crate::cache::{degraded_host, LocationCache};
use crate::orch_client::OrchClient;
use crate::qp::FfQp;
use freeflow_agent::proto::RelayMsg;
use freeflow_agent::AgentHandle;
use freeflow_orchestrator::{FeedPoll, FeedSubscription, Orchestrator, OrchestratorEvent};
use freeflow_shmem::{Doorbell, Pump, SharedArena, ShmMessage, ShmReceiver, ShmSender, Step};
use freeflow_telemetry::{Event, LabelSet, Telemetry};
use freeflow_types::{ContainerId, Error, HostId, OverlayIp, Result, TenantId, TransportKind};
use freeflow_verbs::wr::AccessFlags;
use freeflow_verbs::{
    CompletionQueue, CqInstruments, Device, MemoryRegion, ProtectionDomain, VerbsResult, WakeBatch,
};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Frames the library pump pulls from the agent ring per drain sweep.
/// One sweep costs one coalesced space doorbell regardless of size.
const PUMP_DRAIN: usize = 64;

/// How soon an idle pump retries work that waits on something that cannot
/// ring it: a snapshot resync while the control plane is unreachable, or a
/// rebind waiting on its peer's half. Nothing else gives it a deadline.
const RETRY_AFTER: Duration = Duration::from_millis(1);

/// A resolved path to a destination IP.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedPath {
    /// Whether the destination shares this container's host.
    pub local: bool,
    /// The transport the policy engine selected.
    pub transport: TransportKind,
    /// Physical host of the destination.
    pub host: HostId,
    /// Location-cache generation this resolution is valid under.
    pub generation: u64,
}

/// A step handed to the library pump ([`LibHandle::adopt`]), run when
/// its bell moves past `seen` or `due` passes.
struct Adopted {
    bell: Weak<Doorbell>,
    seen: u64,
    due: Option<Instant>,
    step: Box<dyn FnMut() -> Step + Send>,
}

/// Shared state between the library facade, its QPs and the pump.
pub(crate) struct LibShared {
    /// The container this library serves.
    pub id: ContainerId,
    /// Its overlay IP.
    pub ip: OverlayIp,
    /// Its tenant.
    pub tenant: TenantId,
    /// The physical host it runs on (swapped on migration — see
    /// [`NetLibrary::rehome`]).
    pub host: RwLock<HostId>,
    /// The virtual NIC.
    pub device: Arc<Device>,
    /// Channel to the host agent (sender half; the pump owns the receiver).
    pub agent_tx: Mutex<ShmSender>,
    /// The host's shared segment (zero-copy payloads); swapped on
    /// migration.
    pub arena: RwLock<Arc<SharedArena>>,
    /// The bell the pump parks on, for the library's whole life: each
    /// agent→container ring's data bell (as its idle bell), the control
    /// feed, a migration thaw and every adopted step's bell ring it.
    pump_bell: Arc<Doorbell>,
    /// Steps adopted from socket channels ([`LibHandle::adopt`]).
    adopted: Mutex<Vec<Adopted>>,
    /// A QP walk asked for from outside one: a migration thaw, or a drain
    /// a rehome or a failover started.
    walk_asked: AtomicBool,
    /// No later than the earliest deadline of a remote op any QP may still
    /// have pending, in nanoseconds since `epoch`; `u64::MAX` for none.
    /// Posts lower it and a walk recomputes it, so the pump may wake early
    /// for it, never late.
    op_due: AtomicU64,
    /// Origin of `op_due`.
    epoch: Instant,
    /// The control-plane client (deadlines, bounded retries, degraded
    /// flag — every orchestrator call this library makes goes through it).
    pub client: OrchClient,
    /// The location cache.
    pub cache: LocationCache,
    /// Live QPs by QPN, for inbound dispatch. An [`FfQp`] removes its own
    /// entry when it drops, so the map holds the live count.
    pub qps: Mutex<HashMap<u32, Weak<FfQp>>>,
    /// The cluster telemetry hub (counters, histograms, flight recorder).
    pub telemetry: Arc<Telemetry>,
}

impl LibShared {
    /// The host this container currently runs on.
    pub fn host(&self) -> HostId {
        *self.host.read()
    }

    /// The shared segment of the current host.
    pub fn arena(&self) -> Arc<SharedArena> {
        Arc::clone(&self.arena.read())
    }

    /// Subscribe to the control feed, rung on the pump's bell.
    fn subscribe(&self) -> FeedSubscription {
        self.client.subscribe(Arc::clone(&self.pump_bell))
    }

    /// Ask the pump for a QP walk: its next step runs one.
    pub(crate) fn request_walk(&self) {
        self.walk_asked.store(true, Ordering::Release);
        self.pump_bell.ring();
    }

    /// A remote op due at `at` is now pending: make sure the pump's idle
    /// deadline is no later, ringing it when this moves the deadline in.
    /// Call after the op is registered with its QP.
    pub(crate) fn note_op_due(&self, at: Instant) {
        if self.lower_op_due(at) {
            self.pump_bell.ring();
        }
    }

    /// Lower `op_due` to `at`; whether it moved. Under traffic it stays at
    /// an older, earlier deadline, so a post reads it and writes nothing.
    fn lower_op_due(&self, at: Instant) -> bool {
        let ns = at.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.op_due.load(Ordering::SeqCst) > ns && self.op_due.fetch_min(ns, Ordering::SeqCst) > ns
    }

    /// The earliest op deadline the pump must wake for, if any.
    fn op_due(&self) -> Option<Instant> {
        match self.op_due.load(Ordering::SeqCst) {
            u64::MAX => None,
            ns => Some(self.epoch + Duration::from_nanos(ns)),
        }
    }

    /// Run each adopted step whose bell moved or whose deadline passed,
    /// with no library lock held; drop those done or whose bell is gone.
    /// Returns the earliest deadline left: `now` after a step worked.
    fn run_adopted(&self, now: Instant) -> Option<Instant> {
        let mut steps = std::mem::take(&mut *self.adopted.lock());
        let mut due = None;
        steps.retain_mut(|a| {
            let Some(seen) = a.bell.upgrade().map(|bell| bell.current()) else {
                return false;
            };
            if seen != a.seen || a.due.is_some_and(|at| at <= now) {
                a.seen = seen;
                a.due = match (a.step)() {
                    Step::Done => return false,
                    Step::Worked => Some(now),
                    Step::Idle(at) => at,
                };
            }
            due = due.into_iter().chain(a.due).min();
            true
        });
        self.adopted.lock().append(&mut steps);
        due
    }

    /// Resolve where `dst` lives and which transport to use.
    ///
    /// Degraded-mode contract (DESIGN.md §9): a cache hit is served even
    /// when the control plane is unreachable (a *stale serve* — counted),
    /// so established paths never stall on an orchestrator outage. A cache
    /// miss during an outage falls back to the universal TCP path (a
    /// *degraded decision* — counted) instead of erroring; the fallback is
    /// re-verified the moment the control plane answers again.
    pub fn resolve(&self, dst: OverlayIp) -> Result<ResolvedPath> {
        if let Some(hit) = self.cache.lookup(dst) {
            let reachable = self.client.reachable();
            if hit.degraded && reachable {
                // Blind fallback taken during an outage, and the control
                // plane is back: re-verify instead of serving it.
                self.cache.invalidate(dst);
            } else {
                if !reachable {
                    self.telemetry
                        .registry()
                        .counter(
                            "ff_orch_stale_serves_total",
                            "cache hits served while the control plane was unreachable",
                            LabelSet::none(),
                        )
                        .inc();
                    self.telemetry.record(Event::ControlPlane {
                        kind: "stale_serve",
                        host: self.host().raw(),
                        detail: 0,
                    });
                }
                return Ok(ResolvedPath {
                    local: !hit.degraded && hit.host == self.host(),
                    transport: hit.transport,
                    host: hit.host,
                    generation: hit.generation,
                });
            }
        }
        match self.client.resolve_route(self.ip, dst) {
            Ok((host, registry_gen, transport)) => {
                let generation = self.cache.insert(dst, host, registry_gen, transport);
                Ok(ResolvedPath {
                    local: host == self.host(),
                    transport,
                    host,
                    generation,
                })
            }
            Err(Error::Unavailable(_)) => {
                self.telemetry
                    .registry()
                    .counter(
                        "ff_orch_degraded_decisions_total",
                        "path decisions made blind (control plane unreachable): universal TCP fallback",
                        LabelSet::none(),
                    )
                    .inc();
                self.telemetry.record(Event::ControlPlane {
                    kind: "degraded_decision",
                    host: self.host().raw(),
                    detail: 0,
                });
                let transport = TransportKind::TcpHost;
                let generation = self.cache.insert_degraded(dst, transport);
                Ok(ResolvedPath {
                    local: false,
                    transport,
                    host: degraded_host(),
                    generation,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Apply pending control-plane events to the location cache, and pull
    /// a snapshot resync after a feed gap or a prune. Returns whether
    /// paths may have improved, i.e. whether every QP should re-evaluate
    /// its binding.
    fn poll_feed(&self, sub: &mut FeedSubscription, needs_resync: &mut bool) -> bool {
        // Only *improvement* events (PathUpdated, ContainerMoved) trigger
        // planned rebinds: degradations are handled reactively by the
        // failover path, which keeps fault handling deterministic under
        // chaos testing.
        let mut paths_dirty = false;
        loop {
            let ev = match sub.try_next() {
                FeedPoll::Event(ev) => ev,
                FeedPoll::Gap { missed, event } => {
                    // Events were lost (outage, partition, or a wedged
                    // feed): whatever state they carried is unknown —
                    // schedule a snapshot resync.
                    *needs_resync = true;
                    let reg = self.telemetry.registry();
                    reg.counter(
                        "ff_orch_feed_gaps_total",
                        "event-feed sequence gaps observed",
                        LabelSet::none(),
                    )
                    .inc();
                    reg.counter(
                        "ff_orch_feed_gap_events_total",
                        "control-plane events missed across all gaps",
                        LabelSet::none(),
                    )
                    .add(missed);
                    self.telemetry.record(Event::ControlPlane {
                        kind: "gap",
                        host: self.host().raw(),
                        detail: missed,
                    });
                    event
                }
                FeedPoll::Empty => break,
                FeedPoll::Disconnected => {
                    // The feed pruned us (our queue filled while the pump
                    // was blocked): everything since is lost. Resubscribe
                    // and resync, or this library never hears another
                    // event.
                    *sub = self.subscribe();
                    *needs_resync = true;
                    break;
                }
            };
            match ev {
                OrchestratorEvent::ContainerMoved { ip, .. } => {
                    self.cache.invalidate(ip);
                    paths_dirty = true;
                }
                OrchestratorEvent::ContainerDown { ip, .. } => {
                    self.cache.invalidate(ip);
                }
                OrchestratorEvent::HostHealthChanged { host, .. } => {
                    // Paths through this host may have changed transport
                    // (NIC death) or died entirely (crash): drop every
                    // cached entry for it. A cached entry holds the
                    // *pair* decision, so when the event is about our own
                    // host every entry is suspect.
                    if host == self.host() {
                        self.cache.clear();
                    } else {
                        self.cache.invalidate_host(host);
                    }
                }
                OrchestratorEvent::PathUpdated { host } => {
                    // A host's connectivity *improved*: stale entries may
                    // name a worse transport than the orchestrator would
                    // now pick.
                    if host == self.host() {
                        self.cache.clear();
                    } else {
                        self.cache.invalidate_host(host);
                    }
                    paths_dirty = true;
                }
                OrchestratorEvent::ContainerUp { .. } => {}
                OrchestratorEvent::ControlRestored { scope } => {
                    // The control plane answers again. Even if no events
                    // were missed, degraded fallback paths taken during
                    // the outage should now upgrade — let every QP
                    // re-evaluate.
                    if scope.is_none() || scope == Some(self.host()) {
                        paths_dirty = true;
                    }
                }
            }
        }
        // Gap recovery: pull a full snapshot and reconcile the cache
        // against it, then resume the feed from the sequence the snapshot
        // covers. A migration that happened while we were deaf surfaces
        // here as an evicted entry — the owning QP re-paths exactly as if
        // the ContainerMoved event had been seen live.
        if *needs_resync && self.client.reachable() {
            if let Ok(snap) = self.client.snapshot(self.host()) {
                let report = self.cache.reconcile(&snap);
                sub.advance_to(snap.seq);
                *needs_resync = false;
                paths_dirty = true;
                self.telemetry
                    .registry()
                    .counter(
                        "ff_orch_resyncs_total",
                        "snapshot resyncs completed after an event gap",
                        LabelSet::none(),
                    )
                    .inc();
                self.telemetry.record(Event::ControlPlane {
                    kind: "resync",
                    host: self.host().raw(),
                    detail: (report.evicted_unknown + report.evicted_moved) as u64,
                });
            }
        }
        paths_dirty
    }

    /// Every live QP, in QPN order.
    fn live_qps(&self) -> Vec<Arc<FfQp>> {
        let mut qps: Vec<Arc<FfQp>> = self.qps.lock().values().filter_map(Weak::upgrade).collect();
        qps.sort_by_key(|qp| qp.qp_num());
        qps
    }

    /// Walk every live QP: advance drains/rebinds, sweep op deadlines,
    /// recompute the earliest one and, when `paths_dirty`, look for better
    /// paths. Returns whether some binding is left mid-transition, which
    /// later sweeps or a retry must advance.
    fn walk_qps(&self, paths_dirty: bool) -> bool {
        // Reset before the scan: a post the scan misses registered its op
        // after the reset, so its `note_op_due` lowers the result again.
        self.op_due.store(u64::MAX, Ordering::SeqCst);
        let (mut due, mut unsettled) = (None::<Instant>, false);
        for qp in self.live_qps() {
            if paths_dirty {
                // Better paths may exist: start planned drains
                // (upgrade / collapse).
                qp.consider_rebind();
            }
            // Advance any in-progress drain/rebind.
            qp.poll_binding();
            // The op deadline, the only timer on a remote op: expire
            // ops whose replies never arrived, failing over.
            if let Some(at) = qp.sweep_timeouts() {
                due = Some(due.map_or(at, |d| d.min(at)));
            }
            // A drain settles when its last answer arrives and a collapse
            // waits on its peer's half; a held one waits for the thaw.
            let phase = qp.binding_phase();
            unsettled |= matches!(phase, BindingPhase::Draining | BindingPhase::Rebinding)
                && !qp.migration_held();
        }
        // The pump reads the result before it parks: no ring needed.
        if let Some(at) = due {
            self.lower_op_due(at);
        }
        unsettled
    }

    /// Hand relay messages to the host agent as one push. A lone frame
    /// takes the ring's plain send; several are serialized into one
    /// scratch buffer (no per-message `Vec<u8>`) and written under a
    /// single ring reservation, so the agent's data doorbell rings once
    /// for the whole chain instead of once per message. Sends block: the
    /// agent pump drains this channel continuously.
    pub fn send_to_agent(&self, msgs: &[RelayMsg]) {
        if let [only] = msgs {
            let _ = self.agent_tx.lock().send(&only.encode());
            return;
        }
        let mut buf = bytes::BytesMut::with_capacity(64 * msgs.len());
        let mut bounds = Vec::with_capacity(msgs.len());
        for msg in msgs {
            let start = buf.len();
            msg.encode_into(&mut buf);
            bounds.push((start, buf.len()));
        }
        let frames: Vec<&[u8]> = bounds.iter().map(|&(s, e)| &buf[s..e]).collect();
        let _ = self.agent_tx.lock().send_batch(&frames);
    }
}

/// A cloneable, `'static` handle onto one container's network library.
///
/// [`NetLibrary`] itself owns the pump thread and cannot be cloned; the
/// handle carries only the shared state plus the PD, which is everything
/// the data-plane entry points need. Long-lived networking objects that
/// outlive the caller's borrow of the [`crate::container::Container`] — the socket stack's
/// listeners and channel pools in particular — hold one of these instead
/// of a `&Container`.
///
/// The handle does not keep the library alive in any meaningful sense:
/// if the container is torn down its agent channel closes and operations
/// fail with completions, exactly as they would for a stale `&Container`.
#[derive(Clone)]
pub struct LibHandle {
    shared: Arc<LibShared>,
    pd: ProtectionDomain,
}

impl LibHandle {
    /// The container's cluster-wide id.
    pub fn id(&self) -> ContainerId {
        self.shared.id
    }

    /// The container's overlay IP.
    pub fn ip(&self) -> OverlayIp {
        self.shared.ip
    }

    /// The physical host currently underneath (diagnostics).
    pub fn host(&self) -> HostId {
        self.shared.host()
    }

    /// The cluster telemetry hub.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.shared.telemetry)
    }

    /// Register `len` bytes of memory (arena-backed when possible).
    pub fn register(&self, len: u64, access: AccessFlags) -> VerbsResult<Arc<MemoryRegion>> {
        let arena = self.shared.arena();
        if let Ok(handle) = arena.alloc(len) {
            return self.pd.register_arena(arena, handle, access);
        }
        self.pd.register(len, access)
    }

    /// Create a completion queue, instrumented under this container's
    /// `(host, container)` telemetry labels. Labels snapshot the host at
    /// creation time; CQs created before a migration keep reporting under
    /// the original host, which preserves the timeline's continuity.
    pub fn create_cq(&self, depth: usize) -> Arc<CompletionQueue> {
        self.create_cq_ringing(depth, Arc::default())
    }

    /// [`LibHandle::create_cq`] whose pushes ring `bell` — another CQ's,
    /// so one pump parked on that bell hears both.
    pub fn create_cq_ringing(&self, depth: usize, bell: Arc<Doorbell>) -> Arc<CompletionQueue> {
        let cq = CompletionQueue::with_doorbell(depth, bell);
        let hub = &self.shared.telemetry;
        let labels = LabelSet::host(self.shared.host().raw()).with_container(self.shared.id.raw());
        cq.instrument(CqInstruments {
            completions: hub.registry().counter(
                "ff_cq_completions_total",
                "work completions pushed (success and error)",
                labels,
            ),
            completion_errors: hub.registry().counter(
                "ff_cq_completion_errors_total",
                "work completions with a non-success status",
                labels,
            ),
            wait_blocks: hub.registry().counter(
                "ff_cq_wait_blocks_total",
                "CQ waits that actually parked on the doorbell",
                labels,
            ),
            wr_latency_ns: hub.registry().histogram(
                "ff_wr_latency_ns",
                "work-request post-to-completion latency, nanoseconds",
                labels,
            ),
        });
        cq
    }

    /// Create a virtual queue pair.
    pub fn create_qp(
        &self,
        send_cq: &Arc<CompletionQueue>,
        recv_cq: &Arc<CompletionQueue>,
        sq_depth: usize,
        rq_depth: usize,
    ) -> VerbsResult<Arc<FfQp>> {
        let verbs_qp = self.pd.create_qp(send_cq, recv_cq, sq_depth, rq_depth)?;
        let qp = FfQp::create(
            Arc::clone(&self.shared),
            verbs_qp,
            Arc::clone(send_cq),
            Arc::clone(recv_cq),
            sq_depth,
        );
        self.shared
            .qps
            .lock()
            .insert(qp.qp_num(), Arc::downgrade(&qp));
        Ok(qp)
    }

    /// Resolve a destination (socket/MPI layers).
    pub fn resolve(&self, dst: OverlayIp) -> Result<ResolvedPath> {
        self.shared.resolve(dst)
    }

    /// Hand `step` to the library pump, which runs it when the returned
    /// bell rings or its last [`Step::Idle`] deadline passes, until `Done`
    /// or the bell's drop. The bell's own rings reach the pump.
    pub fn adopt(&self, step: impl FnMut() -> Step + Send + 'static) -> Arc<Doorbell> {
        let bell = Arc::new(Doorbell::new());
        bell.set_idle_bell(Arc::clone(&self.shared.pump_bell));
        self.shared.adopted.lock().push(Adopted {
            bell: Arc::downgrade(&bell),
            seen: 0,
            due: None,
            step: Box::new(step),
        });
        bell
    }
}

impl std::fmt::Debug for LibHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LibHandle")
            .field("container", &self.shared.id)
            .field("ip", &self.shared.ip)
            .finish()
    }
}

/// The FreeFlow network library of one container.
pub struct NetLibrary {
    shared: Arc<LibShared>,
    pd: ProtectionDomain,
    /// The inbound pump; `None` only inside [`NetLibrary::rehome`].
    pump: Option<Pump>,
}

impl NetLibrary {
    /// Assemble the library for a freshly attached container.
    pub(crate) fn new(
        id: ContainerId,
        tenant: TenantId,
        host: HostId,
        device: Arc<Device>,
        handle: AgentHandle,
        orchestrator: Arc<Orchestrator>,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        let AgentHandle { ip, channel, arena } = handle;
        let shared = Arc::new(LibShared {
            id,
            ip,
            tenant,
            host: RwLock::new(host),
            device: Arc::clone(&device),
            agent_tx: Mutex::new(channel.tx),
            arena: RwLock::new(arena),
            pump_bell: Arc::default(),
            adopted: Mutex::default(),
            walk_asked: AtomicBool::new(false),
            op_due: AtomicU64::new(u64::MAX),
            epoch: Instant::now(),
            client: OrchClient::new(
                Arc::clone(&orchestrator),
                Some(host),
                Arc::clone(&telemetry),
            ),
            cache: LocationCache::new(),
            qps: Mutex::new(HashMap::new()),
            telemetry: Arc::clone(&telemetry),
        });
        // Scrape-time gauge: cache footprint, so bounded growth is
        // observable (no-ops once the library is gone).
        {
            let weak = Arc::downgrade(&shared);
            let labels = LabelSet::none().with_container(id.raw());
            telemetry.register_collector(move |reg| {
                if let Some(s) = weak.upgrade() {
                    reg.gauge(
                        "ff_location_cache_entries",
                        "location-cache entries currently held, per container",
                        labels,
                    )
                    .set(s.cache.len() as i64);
                }
            });
        }
        let pd = device.alloc_pd();
        let pump = Self::spawn_pump(Arc::clone(&shared), channel.rx);
        Self {
            shared,
            pd,
            pump: Some(pump),
        }
    }

    /// The library's inbound loop as a step on the one [`Pump`] driver,
    /// parked on the library's bell, which the agent→container ring's data
    /// bell and the control feed ring. A step drains one `PUMP_DRAIN`
    /// sweep and dispatches it to the QPs, applies control events, walks
    /// every QP when an event, a thaw or an overdue op asks for it, or
    /// after every step while a binding is mid-transition, and runs the
    /// adopted steps that are due. Idle, it parks until the earliest
    /// pending op or adopted-step deadline (with none when neither is
    /// pending), or for `RETRY_AFTER` while a resync or a transition waits
    /// on something that cannot ring. The agent closing the ring (detach,
    /// migration) ends it.
    fn spawn_pump(shared: Arc<LibShared>, rx: ShmReceiver) -> Pump {
        let mut sub = shared.subscribe();
        // Set when a sequence gap (or feed loss) shows events were missed;
        // cleared by a successful snapshot resync.
        let mut needs_resync = false;
        // Scratch for batched inbound drains (reused across steps).
        let mut inbound: Vec<ShmMessage> = Vec::with_capacity(PUMP_DRAIN);
        // Whether the last walk left a binding mid-transition. True at
        // start: a rehome asked every QP to reconsider its path.
        let mut unsettled = true;
        let name = format!("ff-lib-{}", shared.ip);
        let bell = Arc::clone(&shared.pump_bell);
        rx.data_bell().set_idle_bell(Arc::clone(&bell));
        Pump::spawn(name, bell, Duration::ZERO, move || {
            // One sweep per step: the space doorbell back to the agent
            // rings once per sweep, not once per frame.
            let drained = rx.try_recv_many(PUMP_DRAIN, &mut inbound);
            let worked = !inbound.is_empty();
            // One wake per CQ per sweep: the completions a sweep pushes are
            // visible at once, and each CQ's bell rings when it ends, so a
            // waiter is not preempting this thread once per relayed ACK.
            let sweep = WakeBatch::open();
            for m in inbound.drain(..) {
                let ShmMessage::Inline(raw) = m else { continue };
                if let Ok(msg) = RelayMsg::decode(raw) {
                    let qp = shared
                        .qps
                        .lock()
                        .get(&msg.dst().qpn)
                        .and_then(Weak::upgrade);
                    if let Some(qp) = qp {
                        qp.handle_inbound(msg);
                    }
                    // Unknown QPN: drop. The sender times out into an
                    // error completion via agent nacks when the whole
                    // container is missing; a missing QP on a live
                    // container is an application teardown race.
                }
            }
            drop(sweep);
            if !matches!(drained, Ok(_) | Err(Error::WouldBlock)) {
                return Step::Done; // agent gone
            }
            let paths_dirty = shared.poll_feed(&mut sub, &mut needs_resync);
            let now = Instant::now();
            // A drain settles when a sweep delivers its last answer, and an
            // op can fall overdue while the pump never goes idle.
            if paths_dirty
                || unsettled
                || shared.walk_asked.swap(false, Ordering::AcqRel)
                || shared.op_due().is_some_and(|at| at <= now)
            {
                unsettled = shared.walk_qps(paths_dirty);
            }
            let due = shared.run_adopted(now);
            if worked || due.is_some_and(|at| at <= now) {
                return Step::Worked;
            }
            if unsettled || needs_resync {
                return Step::Idle(Some(now + RETRY_AFTER));
            }
            Step::Idle(due.into_iter().chain(shared.op_due()).min())
        })
    }

    /// The container's overlay IP.
    pub fn ip(&self) -> OverlayIp {
        self.shared.ip
    }

    /// The owning tenant.
    pub fn tenant(&self) -> TenantId {
        self.shared.tenant
    }

    /// The physical host (tests/diagnostics; applications should not care).
    pub fn host(&self) -> HostId {
        self.shared.host()
    }

    /// Re-home this library onto another host after `cluster.migrate`
    /// moved the container: swap the agent channel, arena and host,
    /// restart the pump, and let live QPs re-evaluate their paths. The
    /// virtual NIC (and with it every QP, CQ and MR the application
    /// holds) survives — that is what makes migration invisible above
    /// the verbs API.
    pub(crate) fn rehome(&mut self, host: HostId, handle: AgentHandle) {
        debug_assert_eq!(handle.ip, self.shared.ip, "rehome keeps the overlay IP");
        // Stop the old pump before its QPs' host state changes under it.
        self.pump = None;
        let AgentHandle {
            ip: _,
            channel,
            arena,
        } = handle;
        *self.shared.agent_tx.lock() = channel.tx;
        // Arena-backed MRs still alias the *source* host's shared segment;
        // copy each registration's bytes into the new host's arena before
        // any data-plane traffic resumes (real hardware cannot DMA into
        // another machine's memory). Registrations the new arena cannot
        // fit degrade to private storage — counted, not fatal.
        for mr in self.shared.device.mrs() {
            let was_arena = mr.is_arena_backed();
            if was_arena && !mr.rehome(&arena) {
                self.shared
                    .telemetry
                    .registry()
                    .counter(
                        "ff_mr_rehome_degraded_total",
                        "migrated MRs that lost arena backing (target arena full)",
                        LabelSet::none(),
                    )
                    .inc();
            }
        }
        *self.shared.arena.write() = arena;
        *self.shared.host.write() = host;
        // The control-plane client now calls from the new host (per-host
        // partitions must apply to where the library actually runs).
        self.shared.client.set_host(host);
        // Every cached location was resolved relative to the old host.
        self.shared.cache.clear();
        self.pump = Some(Self::spawn_pump(Arc::clone(&self.shared), channel.rx));
        // Live QPs re-evaluate their paths relative to the new host —
        // a remote path to a now-co-located peer collapses onto shared
        // memory from here (the pump completes it).
        for qp in self.live_qps() {
            qp.consider_rebind();
        }
    }

    /// Every live QP of this library, in QPN order (migration freezing
    /// and checkpoint capture iterate these).
    pub(crate) fn live_qps(&self) -> Vec<Arc<FfQp>> {
        self.shared.live_qps()
    }

    /// The bell the inbound pump parks on.
    #[cfg(test)]
    pub(crate) fn pump_bell(&self) -> Arc<Doorbell> {
        Arc::clone(&self.shared.pump_bell)
    }

    /// Push raw relay messages to the host agent, as a container that
    /// bypasses the QP layer could.
    #[cfg(test)]
    pub(crate) fn send_raw(&self, msgs: &[RelayMsg]) {
        self.shared.send_to_agent(msgs);
    }

    /// Entries in the QPN → QP dispatch map.
    #[cfg(test)]
    pub(crate) fn qp_entries(&self) -> usize {
        self.shared.qps.lock().len()
    }

    /// The virtual NIC device.
    pub fn device(&self) -> &Arc<Device> {
        &self.shared.device
    }

    /// The location cache (ablation/diagnostics).
    pub fn cache(&self) -> &LocationCache {
        &self.shared.cache
    }

    /// A cloneable handle onto this library for long-lived networking
    /// objects (listeners, channel pools) that must not borrow the
    /// container.
    pub fn handle(&self) -> LibHandle {
        LibHandle {
            shared: Arc::clone(&self.shared),
            pd: self.pd.clone(),
        }
    }

    /// Register `len` bytes of memory. Arena-backed (zero-copy capable)
    /// when the host segment has room, private otherwise.
    pub fn register(&self, len: u64, access: AccessFlags) -> VerbsResult<Arc<MemoryRegion>> {
        self.handle().register(len, access)
    }

    /// Create a completion queue, instrumented under this container's
    /// `(host, container)` telemetry labels (see [`LibHandle::create_cq`]).
    pub fn create_cq(&self, depth: usize) -> Arc<CompletionQueue> {
        self.handle().create_cq(depth)
    }

    /// Create a virtual queue pair.
    pub fn create_qp(
        &self,
        send_cq: &Arc<CompletionQueue>,
        recv_cq: &Arc<CompletionQueue>,
        sq_depth: usize,
        rq_depth: usize,
    ) -> VerbsResult<Arc<FfQp>> {
        self.handle()
            .create_qp(send_cq, recv_cq, sq_depth, rq_depth)
    }

    /// Resolve a destination (exposed for the socket/MPI layers).
    pub fn resolve(&self, dst: OverlayIp) -> Result<ResolvedPath> {
        self.shared.resolve(dst)
    }
}

impl std::fmt::Debug for NetLibrary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetLibrary")
            .field("container", &self.shared.id)
            .field("ip", &self.shared.ip)
            .field("host", &self.shared.host())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeflow_agent::Agent;
    use freeflow_types::HostCaps;
    use freeflow_verbs::VerbsNetwork;

    #[test]
    fn pruned_feed_subscription_resubscribes_and_resyncs() {
        // A library without a pump, so only this test polls its feed.
        let orch = Orchestrator::with_defaults();
        let host = HostId::new(0);
        orch.add_host(host, HostCaps::paper_testbed()).unwrap();
        let ip = OverlayIp::from_octets(10, 0, 0, 1);
        let handle = Agent::new(host, 1 << 20).attach_container(ip).unwrap();
        let telemetry = Telemetry::new();
        let lib = LibShared {
            id: ContainerId::new(1),
            ip,
            tenant: TenantId::new(1),
            host: RwLock::new(host),
            device: VerbsNetwork::new().create_device(ip),
            pump_bell: Arc::default(),
            adopted: Mutex::default(),
            agent_tx: Mutex::new(handle.channel.tx),
            arena: RwLock::new(handle.arena),
            walk_asked: AtomicBool::new(false),
            op_due: AtomicU64::new(u64::MAX),
            epoch: Instant::now(),
            client: OrchClient::new(Arc::clone(&orch), Some(host), Arc::clone(&telemetry)),
            cache: LocationCache::new(),
            qps: Mutex::new(HashMap::new()),
            telemetry: Arc::clone(&telemetry),
        };
        let resyncs = || {
            telemetry
                .snapshot()
                .counter_value("ff_orch_resyncs_total", LabelSet::none())
                .unwrap_or(0)
        };
        let (mut sub, mut needs_resync) = (lib.subscribe(), false);
        // Three events per cycle: more than the 1 024 the feed queues for
        // a subscriber that does not poll, so it is pruned.
        for _ in 0..350 {
            orch.mark_nic_down(host).unwrap();
            orch.mark_nic_up(host).unwrap();
        }
        lib.poll_feed(&mut sub, &mut needs_resync);
        assert_eq!(resyncs(), 1, "a pruned subscription resyncs at once");
        assert!(!needs_resync);
        assert!(!lib.poll_feed(&mut sub, &mut needs_resync));
        // The next event (PathUpdated on the NIC's recovery) reaches it.
        orch.mark_nic_down(host).unwrap();
        orch.mark_nic_up(host).unwrap();
        assert!(lib.poll_feed(&mut sub, &mut needs_resync));
        assert_eq!(resyncs(), 1);
    }
}
