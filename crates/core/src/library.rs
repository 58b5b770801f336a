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
//!   messages to the right [`FfQp`] and applies cache invalidations.
//!
//! Memory registrations are arena-backed when the host segment has room,
//! so that the intra-host data plane is genuinely zero-copy shared memory.

use crate::cache::{degraded_host, LocationCache};
use crate::orch_client::OrchClient;
use crate::qp::FfQp;
use freeflow_agent::proto::RelayMsg;
use freeflow_agent::AgentHandle;
use freeflow_orchestrator::{FeedPoll, FeedSubscription, Orchestrator, OrchestratorEvent};
use freeflow_shmem::{Doorbell, Pump, ShmFabric, ShmMessage, ShmReceiver, ShmSender, Step};
use freeflow_telemetry::{Event, LabelSet, Telemetry};
use freeflow_types::{ContainerId, Error, HostId, OverlayIp, Result, TenantId, TransportKind};
use freeflow_verbs::wr::AccessFlags;
use freeflow_verbs::{
    CompletionQueue, CqInstruments, Device, MemoryRegion, ProtectionDomain, VerbsResult,
};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Frames the library pump pulls from the agent ring per drain sweep.
/// One sweep costs one coalesced space doorbell regardless of size.
const PUMP_DRAIN: usize = 64;

/// Cadence of the pump's housekeeping: its idle deadline, i.e. how long it
/// parks on the agent ring before looking at the control-plane feed, and
/// how often it walks every QP to advance drains/rebinds and sweep op
/// deadlines when no control event asked for a walk sooner.
const HOUSEKEEPING_TICK: Duration = Duration::from_millis(1);

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
    /// The host's shm fabric (arena for zero-copy payloads); swapped on
    /// migration.
    pub fabric: RwLock<Arc<ShmFabric>>,
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

    /// The shm fabric of the current host.
    pub fn fabric(&self) -> Arc<ShmFabric> {
        Arc::clone(&self.fabric.read())
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
    /// a snapshot resync after a feed gap. Returns whether paths may have
    /// improved, i.e. whether every QP should re-evaluate its binding.
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
                FeedPoll::Empty | FeedPoll::Disconnected => break,
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

    /// Housekeeping walk over every live QP: advance drains/rebinds, sweep
    /// op deadlines and, when `paths_dirty`, look for better paths.
    fn walk_qps(&self, paths_dirty: bool) {
        for qp in self.live_qps() {
            if paths_dirty {
                // Better paths may exist: start planned drains
                // (upgrade / collapse).
                qp.consider_rebind();
            }
            // Advance any in-progress drain/rebind.
            qp.poll_binding();
            // Transport-death backstop: expire remote ops whose
            // replies never arrived, failing over.
            qp.sweep_timeouts();
        }
    }

    /// Hand a relay message to the host agent.
    pub fn send_to_agent(&self, msg: &RelayMsg) {
        let bytes = msg.encode();
        // Blocking send: the agent pump drains this channel continuously.
        let _ = self.agent_tx.lock().send(&bytes);
    }

    /// Hand a batch of relay messages to the host agent as one vectored
    /// push: every frame is serialized into one scratch buffer (no
    /// per-message `Vec<u8>`), the ring is written under a single
    /// reservation, and the agent's data doorbell rings once for the
    /// whole batch instead of once per message.
    pub fn send_to_agent_batch(&self, msgs: &[RelayMsg]) {
        match msgs {
            [] => {}
            [only] => self.send_to_agent(only),
            _ => {
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
        let fabric = self.shared.fabric();
        if let Ok(handle) = fabric.arena().alloc(len) {
            return self
                .pd
                .register_arena(Arc::clone(fabric.arena()), handle, access);
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
        let host = self.shared.host().raw();
        let labels = LabelSet::host(host).with_container(self.shared.id.raw());
        cq.instrument(CqInstruments {
            hub: Arc::clone(hub),
            host,
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
            rq_depth,
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
        let AgentHandle {
            ip,
            channel,
            fabric,
        } = handle;
        let shared = Arc::new(LibShared {
            id,
            ip,
            tenant,
            host: RwLock::new(host),
            device: Arc::clone(&device),
            agent_tx: Mutex::new(channel.tx),
            fabric: RwLock::new(fabric),
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
        let pump = Self::spawn_pump(Arc::clone(&shared), channel.rx, shared.client.subscribe());
        Self {
            shared,
            pd,
            pump: Some(pump),
        }
    }

    /// The library's inbound loop as a step on the one [`Pump`] driver,
    /// parked on the agent→container ring's data bell. A step drains one
    /// `PUMP_DRAIN` sweep and dispatches it to the QPs, applies control
    /// events, and walks every QP on a control event or once
    /// `HOUSEKEEPING_TICK` has passed since the last walk — the idle
    /// deadline. The agent closing the ring (detach, migration) ends it.
    fn spawn_pump(shared: Arc<LibShared>, rx: ShmReceiver, mut sub: FeedSubscription) -> Pump {
        // Set when a sequence gap (or feed loss) shows events were missed;
        // cleared by a successful snapshot resync.
        let mut needs_resync = false;
        // Scratch for batched inbound drains (reused across steps).
        let mut inbound: Vec<ShmMessage> = Vec::with_capacity(PUMP_DRAIN);
        let mut last_walk = Instant::now();
        let name = format!("ff-lib-{}", shared.ip);
        let bell = Arc::clone(rx.data_bell());
        Pump::spawn(name, bell, Duration::ZERO, move || {
            // One sweep per step: the space doorbell back to the agent
            // rings once per sweep, not once per frame.
            let drained = rx.try_recv_many(PUMP_DRAIN, &mut inbound);
            let worked = !inbound.is_empty();
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
            if !matches!(drained, Ok(_) | Err(Error::WouldBlock)) {
                return Step::Done; // agent gone
            }
            let paths_dirty = shared.poll_feed(&mut sub, &mut needs_resync);
            // The QP walk is housekeeping, not per-message work.
            let now = Instant::now();
            if paths_dirty || now.duration_since(last_walk) >= HOUSEKEEPING_TICK {
                last_walk = now;
                shared.walk_qps(paths_dirty);
            }
            if worked {
                Step::Worked
            } else {
                Step::Idle(Some(last_walk + HOUSEKEEPING_TICK))
            }
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
    /// moved the container: swap the agent channel, fabric and host,
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
            fabric,
        } = handle;
        *self.shared.agent_tx.lock() = channel.tx;
        // Arena-backed MRs still alias the *source* host's shared segment;
        // copy each registration's bytes into the new host's arena before
        // any data-plane traffic resumes (real hardware cannot DMA into
        // another machine's memory). Registrations the new arena cannot
        // fit degrade to private storage — counted, not fatal.
        for mr in self.shared.device.mrs() {
            let was_arena = mr.is_arena_backed();
            if was_arena && !mr.rehome(fabric.arena()) {
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
        *self.shared.fabric.write() = fabric;
        *self.shared.host.write() = host;
        // The control-plane client now calls from the new host (per-host
        // partitions must apply to where the library actually runs).
        self.shared.client.set_host(host);
        // Every cached location was resolved relative to the old host.
        self.shared.cache.clear();
        self.pump = Some(Self::spawn_pump(
            Arc::clone(&self.shared),
            channel.rx,
            self.shared.client.subscribe(),
        ));
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

    /// The bell the inbound pump parks on (the agent→container ring's).
    #[cfg(test)]
    pub(crate) fn pump_bell(&self) -> Arc<Doorbell> {
        Arc::clone(self.pump.as_ref().expect("pump runs").bell())
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
