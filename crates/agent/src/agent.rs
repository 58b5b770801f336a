//! The agent proper: attachment, routing and the forwarding engine.
//!
//! One [`Agent`] runs per host. Containers attach and get an
//! [`AgentHandle`] — a shared-memory duplex channel plus access to the
//! host's arena (their "virtual NIC cable"). Agents connect to each other
//! with [`connect_agents`], and the forwarding engine routes
//! [`RelayMsg`]s by destination overlay IP:
//!
//! * local destination → straight into that container's channel (arena
//!   payload descriptors stay valid — same segment, zero copies);
//! * remote destination → materialize arena payloads into bytes and send
//!   over the peer wire; on arrival the remote agent re-stages large
//!   payloads into *its* arena and hands the descriptor to the target
//!   container;
//! * unknown destination → a `Nack` back to the sender, so endpoints see
//!   failures as failed completions instead of silence.
//!
//! The forwarding engine is one step function, [`Agent::poll`], which can
//! be driven by hand; [`Agent::spawn_pump`] runs it on a thread that is
//! *event-driven*: every producer of work for this agent — container
//! rings, peer wires, control changes — rings the agent's one wake
//! doorbell, and the pump parks on it when traffic stops (DESIGN.md §12,
//! "Wake protocol").

use crate::proto::{status, RelayMsg, RelayPayload, WireEp};
use crate::wire::PeerWire;
use bytes::{Bytes, BytesMut};
use freeflow_shmem::{
    Doorbell, DoorbellStats, Pump, ShmDuplex, ShmFabric, ShmMessage, ShmReceiver, ShmSender, Step,
};
use freeflow_telemetry::{Counter, Event, Histogram, LabelSet, Telemetry};
use freeflow_types::{Error, HostId, OverlayIp, Result, TransportKind};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Payloads at or above this size are re-staged into the arena on local
/// delivery instead of being copied inline through the ring.
pub const ZERO_COPY_THRESHOLD: usize = 4096;

/// Ring capacity of each container↔agent channel direction.
const CONTAINER_CHANNEL_CAP: usize = 1 << 21; // 2 MiB

/// How many times a full wire is retried before the message is nacked
/// with [`status::TIMEOUT`]. The peer pump drains the wire, so a healthy
/// link clears in a handful of yields; exhausting the budget means the
/// peer is wedged or gone.
const WIRE_SEND_RETRIES: usize = 256;

/// How long a relayed request may stay unanswered before the agent
/// synthesizes a [`status::TIMEOUT`] nack to its local source.
const DEFAULT_RELAY_TIMEOUT: Duration = Duration::from_secs(1);

/// Ceiling on how many relay frames one coalesced wire message may carry.
/// The adaptive per-wire limit grows toward this under backlog and decays
/// toward one when traffic thins (see [`Agent::adapt_batch_limit`]).
const MAX_WIRE_BATCH: usize = 64;

/// How many frames one vectored container-channel drain pulls per call.
const DRAIN_CHUNK: usize = 64;

/// How long the pump stays in poll mode (yielding between polls) after the
/// last message it moved before it arms the doorbell and parks. While
/// traffic flows the next frame is picked up without a futex wake; once it
/// stops the agent is asleep within this window and costs nothing.
const POLL_WINDOW: Duration = Duration::from_micros(100);

/// Identity of one in-flight relayed request awaiting its reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RelayKey {
    /// Originating endpoint (the local container's QP).
    src: WireEp,
    /// Remote endpoint the request targets.
    dst: WireEp,
    /// `wr_id` for Send/Write, `req_id` for ReadReq.
    id: u64,
    /// Whether the reply is a ReadResp (vs. Ack/Nack).
    is_read: bool,
}

/// Forwarding counters.
#[derive(Debug, Default)]
pub struct AgentStats {
    /// Messages delivered container → container on this host.
    pub local_delivered: AtomicU64,
    /// Messages relayed out over a wire.
    pub relayed_out: AtomicU64,
    /// Messages received from wires and delivered locally.
    pub relayed_in: AtomicU64,
    /// Nacks generated for unroutable messages.
    pub nacked: AtomicU64,
    /// Payload bytes moved via arena handoff (zero-copy deliveries).
    pub zero_copy_bytes: AtomicU64,
}

struct ContainerLink {
    tx: ShmSender,
    rx: ShmReceiver,
}

/// Pre-registered telemetry handles for the forwarding hot paths. Rebuilt
/// whenever a hub is attached, so the hot paths only touch atomics.
struct AgentInstruments {
    hub: Arc<Telemetry>,
    /// Wire-full retries spent before a relay eventually went out.
    wire_retries: Arc<Counter>,
    /// Relays dropped after exhausting the full retry budget.
    retry_exhausted: Arc<Counter>,
    /// Nacks synthesized toward local sources (unroutable, timeout, ...).
    nacks: Arc<Counter>,
    /// In-flight relay entries expired without a reply.
    relays_expired: Arc<Counter>,
    /// Frames per coalesced wire message (a lone message records 1).
    batch_size: Arc<Histogram>,
    /// Container doorbell rings saved by batched delivery: a batch of `n`
    /// frames to one container adds `n - 1`.
    doorbells_coalesced: Arc<Counter>,
}

impl AgentInstruments {
    fn new(hub: Arc<Telemetry>, host: HostId) -> Self {
        let labels = LabelSet::host(host.raw());
        let reg = hub.registry();
        Self {
            wire_retries: reg.counter(
                "ff_agent_wire_retries_total",
                "full-wire retries spent before a relay went out",
                labels,
            ),
            retry_exhausted: reg.counter(
                "ff_agent_retry_exhausted_total",
                "relays nacked after exhausting the wire retry budget",
                labels,
            ),
            nacks: reg.counter(
                "ff_agent_nacks_total",
                "nacks synthesized by the forwarding engine",
                labels,
            ),
            relays_expired: reg.counter(
                "ff_agent_relays_expired_total",
                "in-flight relays expired without a reply",
                labels,
            ),
            batch_size: reg.histogram(
                "ff_batch_size",
                "relay frames per coalesced wire message",
                labels,
            ),
            doorbells_coalesced: reg.counter(
                "ff_doorbells_coalesced_total",
                "container doorbell rings saved by batched delivery",
                labels,
            ),
            hub,
        }
    }
}

struct AgentInner {
    containers: HashMap<OverlayIp, ContainerLink>,
    wires: Vec<PeerWire>,
    /// Per-wire adaptive coalescing limit (frames per wire message),
    /// parallel to `wires`. Grows ×2 toward [`MAX_WIRE_BATCH`] when a
    /// poll's backlog fills whole batches; halves toward 1 when the wire
    /// runs near-idle. Because the forwarding engine only coalesces frames
    /// already waiting in the same poll, a lone message always ships
    /// immediately regardless of the limit — adaptation trades per-message
    /// wire overhead against fan-out granularity, never latency.
    batch_limits: Vec<usize>,
    /// Overlay IP → wire index, installed from orchestrator routes.
    routes: HashMap<OverlayIp, usize>,
}

/// The per-host FreeFlow network agent.
pub struct Agent {
    host: HostId,
    fabric: Arc<ShmFabric>,
    inner: Mutex<AgentInner>,
    /// The one wake doorbell: shared as the data bell of every
    /// container→agent ring, handed to every peer wire, rung on control
    /// changes. The pump parks on it.
    bell: Arc<Doorbell>,
    stats: AgentStats,
    /// Whether large local deliveries use arena handoff (ablation A3
    /// toggles this off to measure the copy cost).
    zero_copy: AtomicBool,
    /// Relayed requests awaiting a reply from a remote host, with their
    /// expiry deadlines. A lost reply (dead wire, crashed peer) becomes a
    /// synthesized [`status::TIMEOUT`] nack instead of a hung QP.
    in_flight: Mutex<HashMap<RelayKey, Instant>>,
    /// Relay timeout in nanoseconds (see [`Agent::set_relay_timeout`]).
    relay_timeout_ns: AtomicU64,
    /// Telemetry handles. Standalone agents get a private hub; a cluster
    /// swaps in its shared one via [`Agent::attach_telemetry`].
    telemetry: RwLock<AgentInstruments>,
}

/// What a container holds after attaching: its channel to the agent and
/// access to the host's shared arena.
pub struct AgentHandle {
    /// The container's overlay IP (its identity on this fabric).
    pub ip: OverlayIp,
    /// Duplex channel to the agent.
    pub channel: ShmDuplex,
    /// The host's shared-memory fabric (arena access for zero-copy
    /// payloads).
    pub fabric: Arc<ShmFabric>,
}

impl Agent {
    /// Create an agent for `host` with an `arena_size`-byte shared arena.
    pub fn new(host: HostId, arena_size: usize) -> Arc<Self> {
        Arc::new(Self {
            host,
            fabric: ShmFabric::new(arena_size),
            inner: Mutex::new(AgentInner {
                containers: HashMap::new(),
                wires: Vec::new(),
                batch_limits: Vec::new(),
                routes: HashMap::new(),
            }),
            bell: Arc::new(Doorbell::new()),
            stats: AgentStats::default(),
            zero_copy: AtomicBool::new(true),
            in_flight: Mutex::new(HashMap::new()),
            relay_timeout_ns: AtomicU64::new(DEFAULT_RELAY_TIMEOUT.as_nanos() as u64),
            telemetry: RwLock::new(AgentInstruments::new(Telemetry::new(), host)),
        })
    }

    /// Replace the private telemetry hub with a shared (cluster-wide) one
    /// and install a collector that exports this agent's forwarding stats
    /// and per-container channel health as gauges at snapshot time.
    pub fn attach_telemetry(self: &Arc<Self>, hub: &Arc<Telemetry>) {
        *self.telemetry.write() = AgentInstruments::new(Arc::clone(hub), self.host);
        let weak: Weak<Agent> = Arc::downgrade(self);
        let host = self.host.raw();
        hub.register_collector(move |reg| {
            let Some(agent) = weak.upgrade() else { return };
            let labels = LabelSet::host(host);
            let stats = &agent.stats;
            // The container→agent rings share the agent's wake bell, so
            // its parks are the agent's own.
            let bell = agent.bell.stats();
            let export = [
                (
                    "ff_agent_local_delivered",
                    "messages delivered container-to-container on this host",
                    stats.local_delivered.load(Ordering::Relaxed),
                ),
                (
                    "ff_agent_relayed_out",
                    "messages relayed out over a wire",
                    stats.relayed_out.load(Ordering::Relaxed),
                ),
                (
                    "ff_agent_relayed_in",
                    "messages received from wires and delivered locally",
                    stats.relayed_in.load(Ordering::Relaxed),
                ),
                (
                    "ff_agent_nacked",
                    "nacks generated for unroutable messages",
                    stats.nacked.load(Ordering::Relaxed),
                ),
                (
                    "ff_agent_zero_copy_bytes",
                    "payload bytes moved via arena handoff",
                    stats.zero_copy_bytes.load(Ordering::Relaxed),
                ),
                (
                    "ff_agent_chan_recv_waits",
                    "agent parks on its wake doorbell (shared data bell of every container-to-agent ring)",
                    bell.waits,
                ),
                (
                    "ff_agent_bell_wakes",
                    "agent parks ended by a ring (container ring, peer wire or control change)",
                    bell.wakes,
                ),
                (
                    "ff_agent_bell_timeouts",
                    "agent parks ended by a deadline (relay expiry or the park cap)",
                    bell.timeouts,
                ),
            ];
            for (name, help, value) in export {
                reg.gauge(name, help, labels).set(value as i64);
            }
            let inner = agent.inner.lock();
            for (ip, link) in &inner.containers {
                let labels = LabelSet::host(host).with_container(u64::from(ip.raw()));
                let tx = link.tx.telemetry();
                let rx = link.rx.telemetry();
                let export = [
                    (
                        "ff_agent_chan_msgs_to_container",
                        "messages queued agent-to-container",
                        tx.stats.msgs_sent,
                    ),
                    (
                        "ff_agent_chan_msgs_from_container",
                        "messages drained container-to-agent",
                        rx.stats.msgs_received,
                    ),
                    (
                        "ff_agent_chan_backpressure_waits",
                        "sender parks waiting for ring space, agent-to-container",
                        tx.space_bell.waits,
                    ),
                ];
                for (name, help, value) in export {
                    reg.gauge(name, help, labels).set(value as i64);
                }
            }
        });
    }

    /// The telemetry hub currently in use.
    pub fn telemetry_hub(&self) -> Arc<Telemetry> {
        Arc::clone(&self.telemetry.read().hub)
    }

    /// This agent's host.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The host's shm fabric.
    pub fn fabric(&self) -> &Arc<ShmFabric> {
        &self.fabric
    }

    /// Forwarding statistics.
    pub fn stats(&self) -> &AgentStats {
        &self.stats
    }

    /// Toggle zero-copy arena delivery (on by default).
    pub fn set_zero_copy(&self, on: bool) {
        self.zero_copy.store(on, Ordering::Relaxed);
    }

    /// Attach a container at `ip`. Returns the container-side handle.
    pub fn attach_container(self: &Arc<Self>, ip: OverlayIp) -> Result<AgentHandle> {
        let mut inner = self.inner.lock();
        if inner.containers.contains_key(&ip) {
            return Err(Error::already_exists(format!(
                "container {ip} on {}",
                self.host
            )));
        }
        let (to_ctr_tx, to_ctr_rx) = freeflow_shmem::channel_pair(CONTAINER_CHANNEL_CAP);
        // The ring's data bell *is* the agent's wake bell.
        let (to_agent_tx, to_agent_rx) =
            freeflow_shmem::channel_pair_on(CONTAINER_CHANNEL_CAP, Arc::clone(&self.bell));
        inner.containers.insert(
            ip,
            ContainerLink {
                tx: to_ctr_tx,
                rx: to_agent_rx,
            },
        );
        Ok(AgentHandle {
            ip,
            channel: ShmDuplex {
                tx: to_agent_tx,
                rx: to_ctr_rx,
            },
            fabric: Arc::clone(&self.fabric),
        })
    }

    /// Detach a container (stop / migration away).
    pub fn detach_container(&self, ip: OverlayIp) {
        self.inner.lock().containers.remove(&ip);
    }

    /// Quiesce a container that is about to migrate away: forget every
    /// in-flight relayed request it originated or targets. Returns how
    /// many entries were dropped.
    ///
    /// Without this, a reply arriving *after* the container detached (or
    /// a timeout firing for one) would synthesize a nack toward a channel
    /// that no longer exists — harmless but noisy, and on the new host the
    /// same `(src, dst, id)` identity could collide with a fresh request.
    /// The migrating library re-drives anything genuinely unanswered via
    /// its own timeout sweep after rehoming.
    pub fn quiesce_container(&self, ip: OverlayIp) -> usize {
        let mut map = self.in_flight.lock();
        let before = map.len();
        map.retain(|k, _| k.src.ip != ip && k.dst.ip != ip);
        before - map.len()
    }

    /// Attach a peer wire; returns its index for routing.
    pub fn attach_wire(&self, wire: PeerWire) -> usize {
        let mut inner = self.inner.lock();
        inner.wires.push(wire);
        inner.batch_limits.push(1);
        inner.wires.len() - 1
    }

    /// Current adaptive coalescing limit of wire `idx` (for tests and
    /// observability; the forwarding engine reads it internally).
    pub fn wire_batch_limit(&self, idx: usize) -> Option<usize> {
        self.inner.lock().batch_limits.get(idx).copied()
    }

    /// Install/replace the route for one remote container IP.
    pub fn install_route(&self, ip: OverlayIp, wire_idx: usize) -> Result<()> {
        let mut inner = self.inner.lock();
        if wire_idx >= inner.wires.len() {
            return Err(Error::not_found(format!("wire {wire_idx}")));
        }
        inner.routes.insert(ip, wire_idx);
        Ok(())
    }

    /// Remove the route for a departed remote container.
    pub fn remove_route(&self, ip: OverlayIp) {
        self.inner.lock().routes.remove(&ip);
    }

    /// Wire index for the peer agent on `host`, if connected.
    pub fn wire_to(&self, host: HostId) -> Option<usize> {
        self.inner
            .lock()
            .wires
            .iter()
            .position(|w| w.peer_host == host)
    }

    /// The transport kind of wire `idx`.
    pub fn wire_kind(&self, idx: usize) -> Option<TransportKind> {
        self.inner.lock().wires.get(idx).map(|w| w.kind)
    }

    /// Wire index for the peer agent on `host` over a specific transport.
    pub fn wire_of_kind(&self, host: HostId, kind: TransportKind) -> Option<usize> {
        self.inner
            .lock()
            .wires
            .iter()
            .position(|w| w.peer_host == host && w.kind == kind)
    }

    /// Best *live* wire to `host`: the up wire whose transport ranks
    /// fastest (RDMA before DPDK before TCP). `None` when every wire to
    /// the host is down or none exists.
    pub fn best_wire_to(&self, host: HostId) -> Option<usize> {
        let inner = self.inner.lock();
        inner
            .wires
            .iter()
            .enumerate()
            .filter(|(_, w)| w.peer_host == host && w.is_up())
            .min_by_key(|(_, w)| w.kind.rank())
            .map(|(i, _)| i)
    }

    /// Bring wire `idx` down or back up (fault injection; the state is
    /// shared with the remote endpoint).
    pub fn set_wire_up(&self, idx: usize, up: bool) -> Result<()> {
        let inner = self.inner.lock();
        match inner.wires.get(idx) {
            Some(w) => {
                w.set_up(up);
                Ok(())
            }
            None => Err(Error::not_found(format!("wire {idx}"))),
        }
    }

    /// Set how long a relayed request may wait for its reply before the
    /// agent nacks it back to the local source with [`status::TIMEOUT`].
    pub fn set_relay_timeout(&self, timeout: Duration) {
        self.relay_timeout_ns
            .store(timeout.as_nanos() as u64, Ordering::Relaxed);
        self.bell.ring();
    }

    /// Counters of the agent's wake doorbell: `waits` is how often the
    /// pump parked, `wakes`/`timeouts` whether a ring or a deadline ended
    /// the park.
    pub fn bell_stats(&self) -> DoorbellStats {
        self.bell.stats()
    }

    /// Number of relayed requests currently awaiting a reply.
    pub fn relay_in_flight(&self) -> usize {
        self.in_flight.lock().len()
    }

    // --- forwarding engine -------------------------------------------------

    /// Drain pending work once. Returns the number of messages processed.
    pub fn poll(&self) -> usize {
        let mut work = 0;
        // Container → agent: a vectored drain, so the space doorbell rings
        // once per burst instead of once per frame.
        let from_containers: Vec<Bytes> = {
            let inner = self.inner.lock();
            let mut msgs = Vec::new();
            let mut scratch: Vec<ShmMessage> = Vec::with_capacity(DRAIN_CHUNK);
            for link in inner.containers.values() {
                loop {
                    scratch.clear();
                    let got = link
                        .rx
                        .try_recv_many(DRAIN_CHUNK, &mut scratch)
                        .unwrap_or(0);
                    for m in scratch.drain(..) {
                        if let ShmMessage::Inline(b) = m {
                            msgs.push(b);
                        }
                    }
                    if got < DRAIN_CHUNK {
                        break;
                    }
                }
            }
            msgs
        };
        // Route: local destinations deliver immediately; remote frames
        // bucket per wire so everything bound for the same peer host in
        // this poll shares coalesced wire messages.
        let mut outbound: HashMap<usize, Vec<RelayMsg>> = HashMap::new();
        for raw in from_containers {
            work += 1;
            if let Some((idx, msg)) = self.route_from_local(raw) {
                outbound.entry(idx).or_default().push(msg);
            }
        }
        for (idx, msgs) in outbound {
            self.flush_to_wire(idx, msgs);
        }
        // Wire → agent.
        let from_wires: Vec<Bytes> = {
            let inner = self.inner.lock();
            let mut msgs = Vec::new();
            for wire in &inner.wires {
                while let Ok(b) = wire.try_recv() {
                    msgs.push(b);
                }
            }
            msgs
        };
        for raw in from_wires {
            work += self.deliver_from_wire(raw);
        }
        // Expire after draining, so replies that just arrived clear their
        // entries before the deadline check.
        work += self.expire_relays();
        work
    }

    /// Time out relayed requests whose replies never came back. Returns
    /// how many were expired.
    fn expire_relays(&self) -> usize {
        let now = Instant::now();
        let expired: Vec<RelayKey> = {
            let mut map = self.in_flight.lock();
            if map.is_empty() {
                return 0;
            }
            let keys: Vec<RelayKey> = map
                .iter()
                .filter(|(_, deadline)| **deadline <= now)
                .map(|(k, _)| *k)
                .collect();
            for k in &keys {
                map.remove(k);
            }
            keys
        };
        if !expired.is_empty() {
            let tm = self.telemetry.read();
            tm.relays_expired.add(expired.len() as u64);
            tm.hub.record(Event::RelayExpired {
                host: self.host.raw(),
                entries: expired.len() as u32,
            });
        }
        for k in &expired {
            // Reconstruct just enough of the original request for nack()
            // to synthesize the right reply shape toward the source.
            let skeleton = if k.is_read {
                RelayMsg::ReadReq {
                    src: k.src,
                    dst: k.dst,
                    req_id: k.id,
                    addr: 0,
                    rkey: 0,
                    len: 0,
                }
            } else {
                RelayMsg::Send {
                    src: k.src,
                    dst: k.dst,
                    wr_id: k.id,
                    imm: None,
                    payload: RelayPayload::Inline(Bytes::new()),
                }
            };
            self.nack(&skeleton, status::TIMEOUT);
        }
        expired.len()
    }

    /// Record a relayed request so a lost reply times out, keyed by the
    /// identity its Ack/Nack/ReadResp will echo back.
    fn track_relay(&self, msg: &RelayMsg) {
        let key = match msg {
            RelayMsg::Send {
                src, dst, wr_id, ..
            }
            | RelayMsg::Write {
                src, dst, wr_id, ..
            } => RelayKey {
                src: *src,
                dst: *dst,
                id: *wr_id,
                is_read: false,
            },
            RelayMsg::ReadReq {
                src, dst, req_id, ..
            } => RelayKey {
                src: *src,
                dst: *dst,
                id: *req_id,
                is_read: true,
            },
            // Replies are terminal: nothing further comes back for them.
            _ => return,
        };
        let timeout = Duration::from_nanos(self.relay_timeout_ns.load(Ordering::Relaxed));
        self.in_flight.lock().insert(key, Instant::now() + timeout);
    }

    /// Clear the in-flight entry a reply settles. Replies carry the
    /// original endpoints swapped (`src` = responder, `dst` = requester).
    fn settle_relay(&self, msg: &RelayMsg) {
        let key = match msg {
            RelayMsg::Ack {
                src, dst, wr_id, ..
            }
            | RelayMsg::Nack {
                src, dst, wr_id, ..
            } => RelayKey {
                src: *dst,
                dst: *src,
                id: *wr_id,
                is_read: false,
            },
            RelayMsg::ReadResp {
                src, dst, req_id, ..
            } => RelayKey {
                src: *dst,
                dst: *src,
                id: *req_id,
                is_read: true,
            },
            _ => return,
        };
        self.in_flight.lock().remove(&key);
    }

    /// When the earliest in-flight relay expires, if any is outstanding.
    fn next_relay_deadline(&self) -> Option<Instant> {
        self.in_flight.lock().values().min().copied()
    }

    /// Spawn the pump: [`Agent::poll`] as a step on the agent's wake bell,
    /// running until the returned [`Pump`] is dropped. Work found → poll
    /// again; nothing found within the poll window (100 µs) of the last
    /// message → yield and poll again, so a live exchange needs no futex
    /// wake; otherwise park until a ring or the earliest relay expiry. An
    /// idle agent does not wake at all.
    pub fn spawn_pump(self: &Arc<Self>) -> Pump {
        let agent = Arc::clone(self);
        Pump::spawn(
            format!("ff-agent-{}", self.host),
            Arc::clone(&self.bell),
            POLL_WINDOW,
            move || match agent.poll() {
                0 => Step::Idle(agent.next_relay_deadline()),
                _ => Step::Worked,
            },
        )
    }

    /// Route a message originating from a local container. Local
    /// destinations are delivered (and unroutable ones nacked) here;
    /// remote frames come back as `(wire index, materialized message)` so
    /// the caller can coalesce everything sharing a wire into batched
    /// wire messages.
    fn route_from_local(&self, raw: Bytes) -> Option<(usize, RelayMsg)> {
        let msg = match RelayMsg::decode(raw.clone()) {
            Ok(m) => m,
            Err(_) => return None, // corrupt local message: drop
        };
        let dst_ip = msg.dst().ip;
        // Local destination?
        if self.deliver_local(dst_ip, raw, &msg) {
            return None;
        }
        // Remote: find a route.
        let wire_idx = { self.inner.lock().routes.get(&dst_ip).copied() };
        match wire_idx {
            Some(idx) => Some((idx, self.materialize_for_wire(msg))),
            None => {
                self.nack(&msg, status::REMOTE_OP);
                None
            }
        }
    }

    /// Ship one poll's backlog for wire `idx`, coalescing frames into
    /// wire messages of at most the wire's adaptive batch limit, then
    /// adapt the limit to the observed backlog. Frames are encoded into
    /// one borrowed buffer per wire message — no per-frame allocation —
    /// and a backlog of one goes out in the plain single-message format.
    fn flush_to_wire(&self, idx: usize, msgs: Vec<RelayMsg>) {
        let limit = self.adapt_batch_limit(idx, msgs.len());
        for chunk in msgs.chunks(limit) {
            let mut buf = BytesMut::with_capacity(64 * chunk.len());
            RelayMsg::encode_coalesced(chunk, &mut buf);
            let bytes = buf.freeze();
            // The peer pump drains the wire; retry with backoff on a
            // full queue, but *bounded* — a wire that never drains
            // (wedged or dead peer) must surface as failed completions,
            // not a hung forwarding thread.
            let mut budget_exhausted = true;
            let mut sent_ok = false;
            // Count before the frames become visible to the peer: its
            // reply can complete at the application before `send` even
            // returns here, and whoever observes that completion must
            // find the counter already moved. Undone if nothing ships.
            let frames = chunk.len() as u64;
            self.stats.relayed_out.fetch_add(frames, Ordering::Relaxed);
            for attempt in 0..WIRE_SEND_RETRIES {
                let sent = {
                    let inner = self.inner.lock();
                    inner.wires[idx].send(bytes.clone())
                };
                match sent {
                    Ok(()) => {
                        let tm = self.telemetry.read();
                        tm.batch_size.record(chunk.len() as u64);
                        if attempt > 0 {
                            tm.wire_retries.add(attempt as u64);
                            tm.hub.record(Event::RelayRetry {
                                host: self.host.raw(),
                                attempts: attempt as u32,
                                exhausted: false,
                            });
                        }
                        drop(tm);
                        for m in chunk {
                            self.track_relay(m);
                        }
                        sent_ok = true;
                        break;
                    }
                    Err(Error::Exhausted(_)) => {
                        if attempt < 32 {
                            std::thread::yield_now();
                        } else {
                            std::thread::sleep(Duration::from_micros(50));
                        }
                    }
                    // Wire down or peer gone: fail over immediately.
                    Err(_) => {
                        budget_exhausted = false;
                        break;
                    }
                }
            }
            if sent_ok {
                continue;
            }
            self.stats.relayed_out.fetch_sub(frames, Ordering::Relaxed);
            let code = if budget_exhausted {
                let tm = self.telemetry.read();
                tm.retry_exhausted.inc();
                tm.hub.record(Event::RelayRetry {
                    host: self.host.raw(),
                    attempts: WIRE_SEND_RETRIES as u32,
                    exhausted: true,
                });
                status::TIMEOUT
            } else if self.route_is_stale(idx) {
                status::STALE_ROUTE
            } else {
                status::TIMEOUT
            };
            for m in chunk {
                self.nack(m, code);
            }
        }
    }

    /// Whether wire `idx` is down while another wire to the same host is
    /// up: routes through it have not been moved onto the survivor yet
    /// (the host itself is still reachable).
    fn route_is_stale(&self, idx: usize) -> bool {
        let inner = self.inner.lock();
        let dead = &inner.wires[idx];
        !dead.is_up()
            && inner
                .wires
                .iter()
                .any(|w| w.peer_host == dead.peer_host && w.is_up())
    }

    /// Adapt wire `idx`'s coalescing limit to the backlog one poll
    /// observed, returning the limit to flush with: a backlog that
    /// overflows one batch doubles the limit (toward [`MAX_WIRE_BATCH`]);
    /// a backlog of no more than half the limit halves it (toward 1), so
    /// a wire that goes quiet returns to single-message framing. A lone
    /// message is never held back by any limit — coalescing only ever
    /// groups frames already waiting in the same poll.
    fn adapt_batch_limit(&self, idx: usize, backlog: usize) -> usize {
        let mut inner = self.inner.lock();
        let Some(slot) = inner.batch_limits.get_mut(idx) else {
            return 1;
        };
        let limit = (*slot).clamp(1, MAX_WIRE_BATCH);
        let next = if backlog > limit {
            (limit * 2).min(MAX_WIRE_BATCH)
        } else if backlog * 2 <= limit {
            (limit / 2).max(1)
        } else {
            limit
        };
        *slot = next;
        next
    }

    /// Deliver a message whose destination is on this host. Returns false
    /// if the destination is not local.
    fn deliver_local(&self, dst_ip: OverlayIp, raw: Bytes, msg: &RelayMsg) -> bool {
        let inner = self.inner.lock();
        match inner.containers.get(&dst_ip) {
            Some(link) => {
                if link.tx.send(&raw).is_ok() {
                    self.stats.local_delivered.fetch_add(1, Ordering::Relaxed);
                    if let RelayMsg::Send {
                        payload: RelayPayload::Arena { len, .. },
                        ..
                    }
                    | RelayMsg::Write {
                        payload: RelayPayload::Arena { len, .. },
                        ..
                    } = msg
                    {
                        self.stats
                            .zero_copy_bytes
                            .fetch_add(*len, Ordering::Relaxed);
                    }
                }
                true
            }
            None => false,
        }
    }

    /// Convert arena payloads to inline bytes before a message leaves the
    /// host (descriptors are meaningless on another machine).
    fn materialize_for_wire(&self, msg: RelayMsg) -> RelayMsg {
        let fix = |payload: RelayPayload| -> RelayPayload {
            match payload {
                RelayPayload::Arena { offset, len } => {
                    // Blocks are allocated at 64-byte granularity; the
                    // descriptor carries the exact data length, so the
                    // free must use the rounded block length or the
                    // padding leaks from the allocator.
                    let handle = freeflow_shmem::ArenaHandle {
                        offset,
                        len: len.next_multiple_of(64),
                    };
                    let mut buf = vec![0u8; len as usize];
                    let arena = self.fabric.arena();
                    if arena.read(handle, 0, &mut buf).is_ok() {
                        let _ = arena.free(handle);
                    }
                    RelayPayload::Inline(Bytes::from(buf))
                }
                inline => inline,
            }
        };
        match msg {
            RelayMsg::Send {
                src,
                dst,
                wr_id,
                imm,
                payload,
            } => RelayMsg::Send {
                src,
                dst,
                wr_id,
                imm,
                payload: fix(payload),
            },
            RelayMsg::Write {
                src,
                dst,
                wr_id,
                addr,
                rkey,
                imm,
                payload,
            } => RelayMsg::Write {
                src,
                dst,
                wr_id,
                addr,
                rkey,
                imm,
                payload: fix(payload),
            },
            RelayMsg::ReadResp {
                src,
                dst,
                req_id,
                status,
                payload,
            } => RelayMsg::ReadResp {
                src,
                dst,
                req_id,
                status,
                payload: fix(payload),
            },
            other => other,
        }
    }

    /// Deliver a wire message — possibly a coalesced batch — to local
    /// containers, re-staging big inline payloads into the arena when
    /// zero-copy is on. Consecutive frames for the same container are
    /// pushed with one vectored channel send, so that container's data
    /// doorbell rings once per run instead of once per frame. Returns the
    /// number of frames processed.
    fn deliver_from_wire(&self, raw: Bytes) -> usize {
        struct Prepared {
            msg: RelayMsg,
            restaged: RelayMsg,
            raw: Bytes,
            zero_copied: u64,
        }
        let frames = match RelayMsg::split_frames(raw) {
            Ok(f) => f,
            Err(_) => return 1, // corrupt envelope: drop, but it was work
        };
        let total = frames.len();
        let use_arena = self.zero_copy.load(Ordering::Relaxed);
        let mut prepared: Vec<Prepared> = Vec::with_capacity(total);
        for raw in frames {
            let msg = match RelayMsg::decode(raw.clone()) {
                Ok(m) => m,
                Err(_) => continue, // corrupt frame: drop it alone
            };
            // A returning reply settles the request we relayed out earlier.
            self.settle_relay(&msg);
            let (restaged, zero_copied) = if use_arena {
                self.restage_into_arena(msg.clone())
            } else {
                (msg.clone(), 0)
            };
            let raw_out = if zero_copied > 0 {
                restaged.encode()
            } else {
                raw
            };
            prepared.push(Prepared {
                msg,
                restaged,
                raw: raw_out,
                zero_copied,
            });
        }
        self.stats
            .relayed_in
            .fetch_add(prepared.len() as u64, Ordering::Relaxed);
        // Deliver runs of consecutive frames sharing a destination with
        // one vectored send each; wire order within a container holds.
        let mut i = 0;
        while i < prepared.len() {
            let dst_ip = prepared[i].msg.dst().ip;
            let mut j = i + 1;
            while j < prepared.len() && prepared[j].msg.dst().ip == dst_ip {
                j += 1;
            }
            let run = &prepared[i..j];
            i = j;
            let delivered = {
                let inner = self.inner.lock();
                match inner.containers.get(&dst_ip) {
                    Some(link) => {
                        let parts: Vec<&[u8]> = run.iter().map(|p| &p.raw[..]).collect();
                        link.tx.send_batch(&parts).is_ok()
                    }
                    None => false,
                }
            };
            if delivered {
                let zero: u64 = run.iter().map(|p| p.zero_copied).sum();
                if zero > 0 {
                    self.stats
                        .zero_copy_bytes
                        .fetch_add(zero, Ordering::Relaxed);
                }
                if run.len() > 1 {
                    self.telemetry
                        .read()
                        .doorbells_coalesced
                        .add(run.len() as u64 - 1);
                }
            } else {
                for p in run {
                    // Undo any staged block, then nack the remote sender.
                    if let RelayMsg::Send {
                        payload: RelayPayload::Arena { offset, len },
                        ..
                    }
                    | RelayMsg::Write {
                        payload: RelayPayload::Arena { offset, len },
                        ..
                    } = &p.restaged
                    {
                        let _ = self.fabric.arena().free(freeflow_shmem::ArenaHandle {
                            offset: *offset,
                            len: len.next_multiple_of(64),
                        });
                    }
                    self.nack(&p.msg, status::REMOTE_OP);
                }
            }
        }
        total
    }

    /// Stage big inline payloads into the host arena. Returns the possibly
    /// rewritten message and how many bytes went zero-copy.
    fn restage_into_arena(&self, msg: RelayMsg) -> (RelayMsg, u64) {
        let mut staged = 0u64;
        let mut fix = |payload: RelayPayload| -> RelayPayload {
            match payload {
                RelayPayload::Inline(b) if b.len() >= ZERO_COPY_THRESHOLD => {
                    let arena = self.fabric.arena();
                    match arena.alloc(b.len() as u64) {
                        Ok(handle) => {
                            arena.write(handle, 0, &b).expect("fresh block fits");
                            staged += b.len() as u64;
                            RelayPayload::Arena {
                                offset: handle.offset,
                                // Keep the *data* length, not the rounded
                                // block length, so receivers read exactly
                                // the payload. The block is freed by the
                                // receiver using arena granularity.
                                len: b.len() as u64,
                            }
                        }
                        Err(_) => RelayPayload::Inline(b), // arena full: copy path
                    }
                }
                other => other,
            }
        };
        let out = match msg {
            RelayMsg::Send {
                src,
                dst,
                wr_id,
                imm,
                payload,
            } => RelayMsg::Send {
                src,
                dst,
                wr_id,
                imm,
                payload: fix(payload),
            },
            RelayMsg::Write {
                src,
                dst,
                wr_id,
                addr,
                rkey,
                imm,
                payload,
            } => RelayMsg::Write {
                src,
                dst,
                wr_id,
                addr,
                rkey,
                imm,
                payload: fix(payload),
            },
            RelayMsg::ReadResp {
                src,
                dst,
                req_id,
                status,
                payload,
            } => RelayMsg::ReadResp {
                src,
                dst,
                req_id,
                status,
                payload: fix(payload),
            },
            other => other,
        };
        (out, staged)
    }

    /// Send a Nack for an unroutable operation back toward its source.
    fn nack(&self, msg: &RelayMsg, code: u8) {
        let reply = match msg {
            RelayMsg::Send {
                src, dst, wr_id, ..
            }
            | RelayMsg::Write {
                src, dst, wr_id, ..
            } => RelayMsg::Nack {
                src: *dst,
                dst: *src,
                wr_id: *wr_id,
                status: code,
            },
            RelayMsg::ReadReq {
                src, dst, req_id, ..
            } => RelayMsg::ReadResp {
                src: *dst,
                dst: *src,
                req_id: *req_id,
                status: code,
                payload: RelayPayload::Inline(Bytes::new()),
            },
            // Acks/Nacks/ReadResps are not themselves nacked (no loops).
            _ => return,
        };
        self.stats.nacked.fetch_add(1, Ordering::Relaxed);
        {
            let tm = self.telemetry.read();
            tm.nacks.inc();
            tm.hub.record(Event::RelayNack {
                host: self.host.raw(),
                status: code,
            });
        }
        let raw = reply.encode();
        let back_ip = reply.dst().ip;
        // Try local first, then a route.
        let msg2 = reply;
        if self.deliver_local(back_ip, raw.clone(), &msg2) {
            return;
        }
        let wire_idx = { self.inner.lock().routes.get(&back_ip).copied() };
        if let Some(idx) = wire_idx {
            let inner = self.inner.lock();
            let _ = inner.wires[idx].send(raw);
        }
    }
}

impl std::fmt::Debug for Agent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Agent")
            .field("host", &self.host)
            .field("containers", &inner.containers.len())
            .field("wires", &inner.wires.len())
            .field("routes", &inner.routes.len())
            .finish()
    }
}

/// Connect two agents with a wire of the given transport kind; each end
/// rings the other agent's wake bell. Returns `(index on a, index on b)`.
pub fn connect_agents(a: &Agent, b: &Agent, kind: TransportKind) -> (usize, usize) {
    let (wa, wb) = PeerWire::pair(
        (a.host(), Arc::clone(&a.bell)),
        (b.host(), Arc::clone(&b.bell)),
        kind,
        4096,
    );
    (a.attach_wire(wa), b.attach_wire(wb))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> OverlayIp {
        OverlayIp::from_octets(10, 0, 0, last)
    }

    fn ep(last: u8, qpn: u32) -> crate::proto::WireEp {
        crate::proto::WireEp::new(ip(last), qpn)
    }

    fn send_msg(from: u8, to: u8, wr: u64, payload: &'static [u8]) -> RelayMsg {
        RelayMsg::Send {
            src: ep(from, 1),
            dst: ep(to, 1),
            wr_id: wr,
            imm: None,
            payload: RelayPayload::Inline(Bytes::from_static(payload)),
        }
    }

    fn recv_inline(handle: &AgentHandle) -> RelayMsg {
        match handle
            .channel
            .rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap()
            .expect("message")
        {
            ShmMessage::Inline(b) => RelayMsg::decode(b).unwrap(),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn local_container_to_container_forwarding() {
        let agent = Agent::new(HostId::new(0), 1 << 20);
        let a = agent.attach_container(ip(1)).unwrap();
        let b = agent.attach_container(ip(2)).unwrap();
        a.channel
            .tx
            .send(&send_msg(1, 2, 7, b"hi").encode())
            .unwrap();
        assert!(agent.poll() > 0);
        let got = recv_inline(&b);
        assert_eq!(got, send_msg(1, 2, 7, b"hi"));
        assert_eq!(agent.stats().local_delivered.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn duplicate_attach_rejected() {
        let agent = Agent::new(HostId::new(0), 1 << 16);
        let _a = agent.attach_container(ip(1)).unwrap();
        assert!(agent.attach_container(ip(1)).is_err());
    }

    #[test]
    fn cross_host_relay() {
        let a0 = Agent::new(HostId::new(0), 1 << 20);
        let a1 = Agent::new(HostId::new(1), 1 << 20);
        let (w0, _w1) = connect_agents(&a0, &a1, TransportKind::Rdma);
        let src = a0.attach_container(ip(1)).unwrap();
        let dst = a1.attach_container(ip(2)).unwrap();
        a0.install_route(ip(2), w0).unwrap();

        src.channel
            .tx
            .send(&send_msg(1, 2, 9, b"inter-host").encode())
            .unwrap();
        a0.poll();
        a1.poll();
        let got = recv_inline(&dst);
        assert_eq!(got, send_msg(1, 2, 9, b"inter-host"));
        assert_eq!(a0.stats().relayed_out.load(Ordering::Relaxed), 1);
        assert_eq!(a1.stats().relayed_in.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn arena_payload_materialized_before_wire_and_restaged_after() {
        let a0 = Agent::new(HostId::new(0), 1 << 20);
        let a1 = Agent::new(HostId::new(1), 1 << 20);
        let (w0, _w1) = connect_agents(&a0, &a1, TransportKind::Rdma);
        let src = a0.attach_container(ip(1)).unwrap();
        let dst = a1.attach_container(ip(2)).unwrap();
        a0.install_route(ip(2), w0).unwrap();

        // Sender stages a big payload in host 0's arena (zero-copy hop 1).
        let data = vec![0xAB; 8192];
        let arena0 = src.fabric.arena();
        let block = arena0.alloc(data.len() as u64).unwrap();
        arena0.write(block, 0, &data).unwrap();
        let msg = RelayMsg::Send {
            src: ep(1, 1),
            dst: ep(2, 1),
            wr_id: 1,
            imm: None,
            payload: RelayPayload::Arena {
                offset: block.offset,
                len: data.len() as u64,
            },
        };
        src.channel.tx.send(&msg.encode()).unwrap();
        a0.poll();
        // Host 0's block was freed after materialization.
        assert_eq!(arena0.allocated(), 0);
        a1.poll();
        // Delivered as an arena descriptor on host 1 (≥ threshold).
        match recv_inline(&dst) {
            RelayMsg::Send {
                payload: RelayPayload::Arena { offset, len },
                ..
            } => {
                assert_eq!(len, 8192);
                let mut out = vec![0u8; 8192];
                let handle = freeflow_shmem::ArenaHandle { offset, len };
                dst.fabric.arena().read(handle, 0, &mut out).unwrap();
                assert_eq!(out, data);
                dst.fabric.arena().free(handle).unwrap();
            }
            other => panic!("expected arena delivery, got {other:?}"),
        }
        assert!(a1.stats().zero_copy_bytes.load(Ordering::Relaxed) >= 8192);
    }

    #[test]
    fn zero_copy_off_delivers_inline() {
        let a0 = Agent::new(HostId::new(0), 1 << 20);
        let a1 = Agent::new(HostId::new(1), 1 << 20);
        a1.set_zero_copy(false);
        let (w0, _w1) = connect_agents(&a0, &a1, TransportKind::Rdma);
        let src = a0.attach_container(ip(1)).unwrap();
        let dst = a1.attach_container(ip(2)).unwrap();
        a0.install_route(ip(2), w0).unwrap();
        let big = Bytes::from(vec![7u8; 8192]);
        let msg = RelayMsg::Send {
            src: ep(1, 1),
            dst: ep(2, 1),
            wr_id: 1,
            imm: None,
            payload: RelayPayload::Inline(big.clone()),
        };
        src.channel.tx.send(&msg.encode()).unwrap();
        a0.poll();
        a1.poll();
        match recv_inline(&dst) {
            RelayMsg::Send {
                payload: RelayPayload::Inline(b),
                ..
            } => assert_eq!(b, big),
            other => panic!("expected inline delivery, got {other:?}"),
        }
        assert_eq!(a1.stats().zero_copy_bytes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn unroutable_destination_gets_nack() {
        let agent = Agent::new(HostId::new(0), 1 << 16);
        let a = agent.attach_container(ip(1)).unwrap();
        a.channel
            .tx
            .send(&send_msg(1, 99, 42, b"void").encode())
            .unwrap();
        agent.poll();
        match recv_inline(&a) {
            RelayMsg::Nack { wr_id, status, .. } => {
                assert_eq!(wr_id, 42);
                assert_eq!(status, status::REMOTE_OP);
            }
            other => panic!("expected nack, got {other:?}"),
        }
        assert_eq!(agent.stats().nacked.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unknown_local_container_on_remote_host_nacks_back_over_wire() {
        let a0 = Agent::new(HostId::new(0), 1 << 20);
        let a1 = Agent::new(HostId::new(1), 1 << 20);
        let (w0, w1) = connect_agents(&a0, &a1, TransportKind::Rdma);
        let src = a0.attach_container(ip(1)).unwrap();
        a0.install_route(ip(2), w0).unwrap();
        a1.install_route(ip(1), w1).unwrap(); // return route
        src.channel
            .tx
            .send(&send_msg(1, 2, 5, b"ghost").encode())
            .unwrap();
        a0.poll(); // relay out
        a1.poll(); // dst missing → nack back
        a0.poll(); // deliver nack to src
        match recv_inline(&src) {
            RelayMsg::Nack { wr_id, .. } => assert_eq!(wr_id, 5),
            other => panic!("expected nack, got {other:?}"),
        }
    }

    #[test]
    fn pump_threads_move_traffic() {
        let a0 = Agent::new(HostId::new(0), 1 << 20);
        let a1 = Agent::new(HostId::new(1), 1 << 20);
        let (w0, _) = connect_agents(&a0, &a1, TransportKind::Dpdk);
        let src = a0.attach_container(ip(1)).unwrap();
        let dst = a1.attach_container(ip(2)).unwrap();
        a0.install_route(ip(2), w0).unwrap();
        let pump0 = a0.spawn_pump();
        let pump1 = a1.spawn_pump();
        for i in 0..50u64 {
            src.channel
                .tx
                .send(&send_msg(1, 2, i, b"pumped").encode())
                .unwrap();
        }
        for i in 0..50u64 {
            match recv_inline(&dst) {
                RelayMsg::Send { wr_id, .. } => assert_eq!(wr_id, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        drop((pump0, pump1));
    }

    /// Two pumped agents joined by an RDMA wire, one raw container each,
    /// routes installed both ways.
    struct PumpedPair {
        a0: Arc<Agent>,
        a1: Arc<Agent>,
        src: AgentHandle,
        dst: AgentHandle,
        _pumps: [Pump; 2],
    }

    fn pumped_pair() -> PumpedPair {
        let a0 = Agent::new(HostId::new(0), 1 << 20);
        let a1 = Agent::new(HostId::new(1), 1 << 20);
        let (w0, w1) = connect_agents(&a0, &a1, TransportKind::Rdma);
        let src = a0.attach_container(ip(1)).unwrap();
        let dst = a1.attach_container(ip(2)).unwrap();
        a0.install_route(ip(2), w0).unwrap();
        a1.install_route(ip(1), w1).unwrap();
        let _pumps = [a0.spawn_pump(), a1.spawn_pump()];
        PumpedPair {
            a0,
            a1,
            src,
            dst,
            _pumps,
        }
    }

    #[test]
    fn idle_pumps_park_instead_of_ticking() {
        let p = pumped_pair();
        // The idle stretch under measurement (not a wait for progress).
        std::thread::sleep(Duration::from_millis(100));
        for agent in [&p.a0, &p.a1] {
            let bell = agent.bell_stats();
            assert!(
                (1..=3).contains(&bell.waits),
                "an idle agent parks once and stays parked, not ~1000 ticks: {bell:?}"
            );
        }
    }

    #[test]
    fn sequential_round_trips_never_time_out_a_park() {
        let p = pumped_pair();
        // Relay expiry must not be what ends a park here.
        p.a0.set_relay_timeout(Duration::from_secs(60));
        p.a1.set_relay_timeout(Duration::from_secs(60));
        for i in 0..1_000u64 {
            p.src
                .channel
                .tx
                .send(&send_msg(1, 2, i, b"ping").encode())
                .unwrap();
            match recv_inline(&p.dst) {
                RelayMsg::Send { wr_id, .. } => assert_eq!(wr_id, i),
                other => panic!("unexpected {other:?}"),
            }
            let ack = RelayMsg::Ack {
                src: ep(2, 1),
                dst: ep(1, 1),
                wr_id: i,
                byte_len: 4,
            };
            p.dst.channel.tx.send(&ack.encode()).unwrap();
            match recv_inline(&p.src) {
                RelayMsg::Ack { wr_id, .. } => assert_eq!(wr_id, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(p.a0.relay_in_flight(), 0);
        for agent in [&p.a0, &p.a1] {
            let bell = agent.bell_stats();
            assert_eq!(bell.timeouts, 0, "every park ended by a ring: {bell:?}");
            assert_eq!(bell.waits, bell.wakes);
        }
        assert_eq!(p.a0.stats().relayed_out.load(Ordering::Relaxed), 1_000);
        assert_eq!(p.a1.stats().relayed_out.load(Ordering::Relaxed), 1_000);
    }

    #[test]
    fn relay_deadline_wakes_a_parked_pump() {
        let p = pumped_pair();
        p.a0.set_relay_timeout(Duration::from_millis(30));
        // `dst` never answers, and once the frame is delivered nobody
        // rings either bell again: only the expiry deadline can wake a0.
        let before = p.a0.bell_stats();
        p.src
            .channel
            .tx
            .send(&send_msg(1, 2, 77, b"lost").encode())
            .unwrap();
        match recv_inline(&p.src) {
            RelayMsg::Nack { wr_id, status, .. } => {
                assert_eq!(wr_id, 77);
                assert_eq!(status, status::TIMEOUT);
            }
            other => panic!("expected timeout nack, got {other:?}"),
        }
        assert!(matches!(
            recv_inline(&p.dst),
            RelayMsg::Send { wr_id: 77, .. }
        ));
        let after = p.a0.bell_stats();
        assert!(
            after.timeouts > before.timeouts,
            "the deadline ended a park"
        );
        assert!(
            after.waits - before.waits <= 3,
            "one park until the deadline, not a tick every 100 us: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn relayed_out_counts_only_frames_that_shipped() {
        // `relayed_out` moves before the send (the peer may answer before
        // `send` returns), so a send that ships nothing must undo it.
        let a0 = Agent::new(HostId::new(0), 1 << 20);
        let a1 = Agent::new(HostId::new(1), 1 << 20);
        let (w0, _w1) = connect_agents(&a0, &a1, TransportKind::Rdma);
        let src = a0.attach_container(ip(1)).unwrap();
        a0.install_route(ip(2), w0).unwrap();
        // A downed wire ships nothing: the count is undone.
        a0.set_wire_up(w0, false).unwrap();
        src.channel
            .tx
            .send(&send_msg(1, 2, 1, b"down").encode())
            .unwrap();
        a0.poll();
        assert!(matches!(recv_inline(&src), RelayMsg::Nack { .. }));
        assert_eq!(a0.stats().relayed_out.load(Ordering::Relaxed), 0);
        a0.set_wire_up(w0, true).unwrap();
        src.channel
            .tx
            .send(&send_msg(1, 2, 2, b"up").encode())
            .unwrap();
        a0.poll();
        assert_eq!(a0.stats().relayed_out.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn detach_makes_destination_unroutable() {
        let agent = Agent::new(HostId::new(0), 1 << 16);
        let a = agent.attach_container(ip(1)).unwrap();
        let b = agent.attach_container(ip(2)).unwrap();
        agent.detach_container(ip(2));
        drop(b);
        a.channel
            .tx
            .send(&send_msg(1, 2, 1, b"late").encode())
            .unwrap();
        agent.poll();
        assert!(matches!(recv_inline(&a), RelayMsg::Nack { .. }));
    }

    #[test]
    fn downed_wire_nacks_timeout_to_source() {
        let a0 = Agent::new(HostId::new(0), 1 << 20);
        let a1 = Agent::new(HostId::new(1), 1 << 20);
        let (w0, _w1) = connect_agents(&a0, &a1, TransportKind::Rdma);
        let src = a0.attach_container(ip(1)).unwrap();
        let _dst = a1.attach_container(ip(2)).unwrap();
        a0.install_route(ip(2), w0).unwrap();
        a0.set_wire_up(w0, false).unwrap();
        src.channel
            .tx
            .send(&send_msg(1, 2, 11, b"doomed").encode())
            .unwrap();
        a0.poll();
        match recv_inline(&src) {
            RelayMsg::Nack { wr_id, status, .. } => {
                assert_eq!(wr_id, 11);
                assert_eq!(status, status::TIMEOUT);
            }
            other => panic!("expected timeout nack, got {other:?}"),
        }
        // Nothing left pending: the failure already surfaced.
        assert_eq!(a0.relay_in_flight(), 0);
    }

    #[test]
    fn downed_route_wire_with_a_live_sibling_nacks_stale_route() {
        let a0 = Agent::new(HostId::new(0), 1 << 20);
        let a1 = Agent::new(HostId::new(1), 1 << 20);
        let (rdma0, _) = connect_agents(&a0, &a1, TransportKind::Rdma);
        let _tcp = connect_agents(&a0, &a1, TransportKind::TcpHost);
        let src = a0.attach_container(ip(1)).unwrap();
        let _dst = a1.attach_container(ip(2)).unwrap();
        a0.install_route(ip(2), rdma0).unwrap();
        a0.set_wire_up(rdma0, false).unwrap();
        src.channel
            .tx
            .send(&send_msg(1, 2, 12, b"stale").encode())
            .unwrap();
        a0.poll();
        match recv_inline(&src) {
            RelayMsg::Nack { wr_id, status, .. } => {
                assert_eq!(wr_id, 12);
                assert_eq!(status, status::STALE_ROUTE);
            }
            other => panic!("expected stale-route nack, got {other:?}"),
        }
    }

    #[test]
    fn unanswered_relay_times_out_with_nack() {
        let a0 = Agent::new(HostId::new(0), 1 << 20);
        let a1 = Agent::new(HostId::new(1), 1 << 20);
        let (w0, _w1) = connect_agents(&a0, &a1, TransportKind::Rdma);
        let src = a0.attach_container(ip(1)).unwrap();
        a0.install_route(ip(2), w0).unwrap();
        a0.set_relay_timeout(Duration::from_millis(10));
        src.channel
            .tx
            .send(&send_msg(1, 2, 21, b"lost").encode())
            .unwrap();
        a0.poll(); // relays out and starts the timer
        assert_eq!(a0.relay_in_flight(), 1);
        // The remote agent is never polled: the reply will never come.
        std::thread::sleep(Duration::from_millis(20));
        assert!(a0.poll() > 0);
        assert_eq!(a0.relay_in_flight(), 0);
        match recv_inline(&src) {
            RelayMsg::Nack { wr_id, status, .. } => {
                assert_eq!(wr_id, 21);
                assert_eq!(status, status::TIMEOUT);
            }
            other => panic!("expected timeout nack, got {other:?}"),
        }
    }

    #[test]
    fn returning_reply_settles_in_flight_relay() {
        let a0 = Agent::new(HostId::new(0), 1 << 20);
        let a1 = Agent::new(HostId::new(1), 1 << 20);
        let (w0, w1) = connect_agents(&a0, &a1, TransportKind::Rdma);
        let src = a0.attach_container(ip(1)).unwrap();
        let dst = a1.attach_container(ip(2)).unwrap();
        a0.install_route(ip(2), w0).unwrap();
        a1.install_route(ip(1), w1).unwrap();
        src.channel
            .tx
            .send(&send_msg(1, 2, 31, b"answered").encode())
            .unwrap();
        a0.poll();
        assert_eq!(a0.relay_in_flight(), 1);
        a1.poll();
        let _ = recv_inline(&dst);
        // The destination container acks the receive.
        dst.channel
            .tx
            .send(
                &RelayMsg::Ack {
                    src: ep(2, 1),
                    dst: ep(1, 1),
                    wr_id: 31,
                    byte_len: 8,
                }
                .encode(),
            )
            .unwrap();
        a1.poll(); // relay ack back
        a0.poll(); // deliver ack, settling the entry
        assert_eq!(a0.relay_in_flight(), 0);
        assert!(matches!(recv_inline(&src), RelayMsg::Ack { wr_id: 31, .. }));
    }

    #[test]
    fn best_wire_prefers_fastest_live_transport() {
        let a0 = Agent::new(HostId::new(0), 1 << 16);
        let a1 = Agent::new(HostId::new(1), 1 << 16);
        let (rdma0, _) = connect_agents(&a0, &a1, TransportKind::Rdma);
        let (tcp0, _) = connect_agents(&a0, &a1, TransportKind::TcpHost);
        assert_eq!(a0.best_wire_to(HostId::new(1)), Some(rdma0));
        assert_eq!(
            a0.wire_of_kind(HostId::new(1), TransportKind::TcpHost),
            Some(tcp0)
        );
        // RDMA NIC dies: the best live wire falls back to TCP.
        a0.set_wire_up(rdma0, false).unwrap();
        assert_eq!(a0.best_wire_to(HostId::new(1)), Some(tcp0));
        a0.set_wire_up(tcp0, false).unwrap();
        assert_eq!(a0.best_wire_to(HostId::new(1)), None);
        assert!(a0.set_wire_up(99, true).is_err());
    }

    #[test]
    fn wire_kind_is_queryable() {
        let a0 = Agent::new(HostId::new(0), 1 << 16);
        let a1 = Agent::new(HostId::new(1), 1 << 16);
        let (w0, w1) = connect_agents(&a0, &a1, TransportKind::TcpHost);
        assert_eq!(a0.wire_kind(w0), Some(TransportKind::TcpHost));
        assert_eq!(a1.wire_kind(w1), Some(TransportKind::TcpHost));
        assert_eq!(a0.wire_to(HostId::new(1)), Some(w0));
        assert_eq!(a0.wire_to(HostId::new(9)), None);
    }

    #[test]
    fn backlog_coalesces_wire_messages_and_adapts_batch_limit() {
        let a0 = Agent::new(HostId::new(0), 1 << 20);
        let a1 = Agent::new(HostId::new(1), 1 << 20);
        let hub = Telemetry::new();
        a0.attach_telemetry(&hub);
        a1.attach_telemetry(&hub);
        let (w0, _w1) = connect_agents(&a0, &a1, TransportKind::Rdma);
        let src = a0.attach_container(ip(1)).unwrap();
        let dst = a1.attach_container(ip(2)).unwrap();
        a0.install_route(ip(2), w0).unwrap();
        assert_eq!(a0.wire_batch_limit(w0), Some(1));

        // Build up a backlog, then poll once: every frame this poll saw
        // for host 1 must share coalesced wire messages, and the adaptive
        // limit must grow.
        const BURST: u64 = 48;
        for i in 0..BURST {
            src.channel
                .tx
                .send(&send_msg(1, 2, i, b"burst").encode())
                .unwrap();
        }
        let wire_msgs_before = {
            let inner = a0.inner.lock();
            inner.wires[w0].stats().msgs.load(Ordering::Relaxed)
        };
        a0.poll();
        let wire_msgs = {
            let inner = a0.inner.lock();
            inner.wires[w0].stats().msgs.load(Ordering::Relaxed)
        } - wire_msgs_before;
        assert!(
            wire_msgs < BURST,
            "48 frames must not take 48 wire messages, took {wire_msgs}"
        );
        assert_eq!(a0.stats().relayed_out.load(Ordering::Relaxed), BURST);
        assert!(a0.wire_batch_limit(w0).unwrap() > 1, "limit must grow");

        // The receiving agent fans the batch out in order with coalesced
        // container doorbells.
        a1.poll();
        for i in 0..BURST {
            match recv_inline(&dst) {
                RelayMsg::Send { wr_id, .. } => assert_eq!(wr_id, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(a1.stats().relayed_in.load(Ordering::Relaxed), BURST);
        let labels0 = LabelSet::host(0);
        let labels1 = LabelSet::host(1);
        let snap = hub.snapshot();
        let hist = snap.histogram("ff_batch_size", labels0).expect("histogram");
        assert_eq!(hist.count(), wire_msgs, "one sample per wire message");
        assert_eq!(hist.sum, BURST, "samples sum to the frames shipped");
        let saved = snap
            .counter_value("ff_doorbells_coalesced_total", labels1)
            .unwrap();
        assert!(saved > 0, "batched delivery must coalesce doorbells");

        // Idle polls decay the limit back toward single-message framing.
        for _ in 0..16 {
            src.channel
                .tx
                .send(&send_msg(1, 2, 999, b"lone").encode())
                .unwrap();
            a0.poll();
        }
        assert_eq!(a0.wire_batch_limit(w0), Some(1), "idle wire decays");
    }

    #[test]
    fn telemetry_counts_nacks_expiry_and_exports_stats() {
        use freeflow_telemetry::TimedEvent;

        let agent = Agent::new(HostId::new(3), 1 << 20);
        let hub = Telemetry::new();
        agent.attach_telemetry(&hub);
        assert!(Arc::ptr_eq(&agent.telemetry_hub(), &hub));
        let labels = LabelSet::host(3);

        let a = agent.attach_container(ip(1)).unwrap();
        // Unroutable destination → nack counter + RelayNack event.
        a.channel
            .tx
            .send(&send_msg(1, 99, 42, b"void").encode())
            .unwrap();
        agent.poll();
        assert!(matches!(recv_inline(&a), RelayMsg::Nack { .. }));

        // Relay out over a wire that never answers → expiry + timeout nack.
        let peer = Agent::new(HostId::new(4), 1 << 20);
        let (w, _) = connect_agents(&agent, &peer, TransportKind::Rdma);
        agent.install_route(ip(2), w).unwrap();
        agent.set_relay_timeout(Duration::from_millis(10));
        a.channel
            .tx
            .send(&send_msg(1, 2, 7, b"lost").encode())
            .unwrap();
        agent.poll();
        std::thread::sleep(Duration::from_millis(20));
        agent.poll();
        assert!(matches!(recv_inline(&a), RelayMsg::Nack { .. }));

        let snap = hub.snapshot();
        assert_eq!(snap.counter_value("ff_agent_nacks_total", labels), Some(2));
        assert_eq!(
            snap.counter_value("ff_agent_relays_expired_total", labels),
            Some(1)
        );
        assert_eq!(
            snap.counter_value("ff_agent_retry_exhausted_total", labels),
            Some(0)
        );
        // Collector-exported gauges mirror AgentStats and channel health.
        assert_eq!(snap.gauge_value("ff_agent_nacked", labels), Some(2));
        assert_eq!(snap.gauge_value("ff_agent_relayed_out", labels), Some(1));
        let chan = LabelSet::host(3).with_container(u64::from(ip(1).raw()));
        assert_eq!(
            snap.gauge_value("ff_agent_chan_msgs_from_container", chan),
            Some(2)
        );
        // Event order: unroutable nack, expiry, then the timeout nack it
        // synthesized.
        let kinds: Vec<&TimedEvent> = snap.events.iter().collect();
        assert!(matches!(
            kinds[..],
            [
                TimedEvent {
                    event: Event::RelayNack { host: 3, .. },
                    ..
                },
                TimedEvent {
                    event: Event::RelayExpired {
                        host: 3,
                        entries: 1
                    },
                    ..
                },
                TimedEvent {
                    event: Event::RelayNack { host: 3, .. },
                    ..
                },
            ]
        ));
        snap.verify_exposition_round_trip().unwrap();
    }
}
