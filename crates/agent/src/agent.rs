//! The agent proper: attachment, routing and the forwarding engine.
//!
//! One [`Agent`] runs per host. Containers attach and get an
//! [`AgentHandle`] — a shared-memory duplex channel plus access to the
//! host's arena (their "virtual NIC cable"). Agents connect to each other
//! with [`connect_agents`], and the forwarding engine routes relay frames
//! by destination overlay IP. It forwards the bytes a container wrote and
//! reads only their [`RelayHeader`]; no message is built on the way:
//!
//! * local destination → straight into that container's channel (arena
//!   payload descriptors stay valid — same segment, zero copies);
//! * remote destination → over the peer wire, an arena payload copied
//!   once from the arena into the wire message; on arrival the remote
//!   agent re-stages large payloads into *its* arena and hands the
//!   descriptor to the target container, and refuses a wire frame that
//!   carries a descriptor (it would name *this* host's arena);
//! * unknown destination → a `Nack` back to the sender, so endpoints see
//!   failures as failed completions instead of silence.
//!
//! The forwarding engine is one step function, [`Agent::poll`], which can
//! be driven by hand; [`Agent::spawn_pump`] runs it on a thread that is
//! *event-driven*: every producer of work for this agent — container
//! rings, peer wires, control changes — rings the agent's one wake
//! doorbell, and the pump parks on it when traffic stops (DESIGN.md §12,
//! "Wake protocol").

use crate::proto::{status, PayloadDesc, RelayHeader, RelayMsg};
use crate::wire::PeerWire;
use bytes::{Bytes, BytesMut};
use freeflow_shmem::{
    ArenaHandle, Doorbell, DoorbellStats, Pump, SharedArena, ShmDuplex, ShmMessage, ShmReceiver,
    ShmSender, Step,
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

/// How long a send waits for room on a full wire before its frames are
/// nacked with [`status::TIMEOUT`]. The peer pump drains the wire and each
/// pop rings the space the sender parks on, so a healthy link clears long
/// before this; running it out means the peer is wedged or gone.
#[cfg(not(test))]
const WIRE_FULL_WAIT: Duration = Duration::from_millis(10);
/// The unit tests park a send on a full wire and then pop or down it
/// from the test thread, which a loaded machine may not run for more
/// than 10 ms; the wedged-peer test still sees this deadline fire.
#[cfg(test)]
const WIRE_FULL_WAIT: Duration = Duration::from_secs(2);

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

/// A frame bound for a peer host: its wire, the bytes as written, their header.
type Outbound = (usize, Bytes, RelayHeader);

/// Pre-registered telemetry handles for the forwarding hot paths. Rebuilt
/// whenever a hub is attached, so the hot paths only touch atomics.
struct AgentInstruments {
    hub: Arc<Telemetry>,
    /// Relay sends that found the wire full and waited for room.
    wire_retries: Arc<Counter>,
    /// Relays nacked because the wire stayed full past its deadline.
    retry_exhausted: Arc<Counter>,
    /// Nacks synthesized toward local sources (unroutable, timeout, ...).
    nacks: Arc<Counter>,
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
                "relay sends that found the wire full and waited for room",
                labels,
            ),
            retry_exhausted: reg.counter(
                "ff_agent_retry_exhausted_total",
                "relays nacked because the wire stayed full past its deadline",
                labels,
            ),
            nacks: reg.counter(
                "ff_agent_nacks_total",
                "nacks synthesized by the forwarding engine",
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
    /// The host's shared segment: zero-copy payload blocks live here.
    arena: Arc<SharedArena>,
    inner: Mutex<AgentInner>,
    /// The one wake doorbell: shared as the data bell of every
    /// container→agent ring, handed to every peer wire, rung on control
    /// changes. The pump parks on it.
    bell: Arc<Doorbell>,
    stats: AgentStats,
    /// Whether large local deliveries use arena handoff (ablation A3
    /// toggles this off to measure the copy cost).
    zero_copy: AtomicBool,
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
    /// The host's shared segment (zero-copy payloads).
    pub arena: Arc<SharedArena>,
}

impl Agent {
    /// Create an agent for `host` with an `arena_size`-byte shared arena.
    pub fn new(host: HostId, arena_size: usize) -> Arc<Self> {
        Arc::new(Self {
            host,
            arena: SharedArena::new(arena_size),
            inner: Mutex::new(AgentInner {
                containers: HashMap::new(),
                wires: Vec::new(),
                batch_limits: Vec::new(),
                routes: HashMap::new(),
            }),
            bell: Arc::new(Doorbell::new()),
            stats: AgentStats::default(),
            zero_copy: AtomicBool::new(true),
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
                    "agent parks ended by the pump's park cap (the agent sets no deadline)",
                    bell.timeouts,
                ),
                (
                    "ff_agent_bell_notifies",
                    "rings of the agent's wake bell that found it parked and issued a futex wake",
                    bell.notifies,
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

    /// The host's shared segment.
    pub fn arena(&self) -> &Arc<SharedArena> {
        &self.arena
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
            arena: Arc::clone(&self.arena),
        })
    }

    /// Detach a container (stop / migration away).
    pub fn detach_container(&self, ip: OverlayIp) {
        self.inner.lock().containers.remove(&ip);
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

    /// Counters of the agent's wake doorbell: `waits` is how often the
    /// pump parked, `wakes`/`timeouts` whether a ring or a deadline ended
    /// the park.
    pub fn bell_stats(&self) -> DoorbellStats {
        self.bell.stats()
    }

    // --- forwarding engine -------------------------------------------------

    /// Drain pending work once. Returns the number of messages processed.
    pub fn poll(&self) -> usize {
        // Container → agent: a vectored drain, so the space doorbell rings
        // once per burst instead of once per frame.
        let mut drained: Vec<ShmMessage> = Vec::new();
        for link in self.inner.lock().containers.values() {
            while link.rx.try_recv_many(DRAIN_CHUNK, &mut drained) == Ok(DRAIN_CHUNK) {}
        }
        let work = drained.len();
        // Route: local destinations deliver now; remote frames are grouped
        // per wire (a stable sort keeps arrival order), so the frames for one
        // peer host in this poll share coalesced wire messages.
        let mut outbound: Vec<Outbound> = drained
            .into_iter()
            .filter_map(|m| match m {
                ShmMessage::Inline(frame) => self.route_from_local(frame),
                ShmMessage::Handle(_) => None,
            })
            .collect();
        outbound.sort_by_key(|&(idx, ..)| idx);
        let mut rest = &outbound[..];
        while let Some(&(idx, ..)) = rest.first() {
            let (frames, tail) = rest.split_at(rest.partition_point(|o| o.0 == idx));
            self.flush_to_wire(idx, frames);
            rest = tail;
        }
        // Wire → agent: a vectored drain too. A sender it wakes from a
        // full wire lands in the next poll, not in this one.
        let mut from_wires: Vec<Bytes> = Vec::new();
        for wire in &self.inner.lock().wires {
            wire.recv_all(&mut from_wires);
        }
        work + from_wires
            .into_iter()
            .map(|raw| self.deliver_from_wire(raw))
            .sum::<usize>()
    }

    /// Spawn the pump: [`Agent::poll`] as a step on the agent's wake bell,
    /// running until the returned [`Pump`] is dropped. Work found → poll
    /// again; nothing found within the poll window (100 µs) of the last
    /// message → yield and poll again, so a live exchange needs no futex
    /// wake; otherwise park until a ring. The agent keeps no per-request
    /// state, so it has no deadline of its own: an unanswered operation
    /// is timed by the QP that posted it, and an idle agent does not wake
    /// at all.
    pub fn spawn_pump(self: &Arc<Self>) -> Pump {
        let agent = Arc::clone(self);
        Pump::spawn(
            format!("ff-agent-{}", self.host),
            Arc::clone(&self.bell),
            POLL_WINDOW,
            move || match agent.poll() {
                0 => Step::Idle(None),
                _ => Step::Worked,
            },
        )
    }

    /// Route a frame from a local container by its header. Local
    /// destinations are delivered (and unroutable frames nacked) here; a
    /// frame bound for a peer host comes back so the caller can coalesce
    /// everything sharing a wire.
    fn route_from_local(&self, frame: Bytes) -> Option<Outbound> {
        let h = RelayHeader::peek(&frame).ok()?; // corrupt local frame: drop
        let arena = h.arena();
        if self.deliver_local(h.dst.ip, &frame, arena.map_or(0, |(_, len)| len)) {
            return None;
        }
        let wire_idx = self.inner.lock().routes.get(&h.dst.ip).copied();
        // An arena payload leaves the host as bytes: the container's
        // descriptor must name bytes inside the arena.
        let outside = |(offset, len)| self.arena.block(offset, len).is_err();
        let refusal = match wire_idx {
            None => status::REMOTE_OP,
            Some(_) if arena.is_some_and(outside) => status::REMOTE_ACCESS,
            Some(idx) => return Some((idx, frame, h)),
        };
        self.nack(&h, refusal);
        None
    }

    /// Ship one poll's backlog for wire `idx`, coalescing frames into
    /// wire messages of at most the wire's adaptive batch limit, then
    /// adapt the limit to the observed backlog. A lone frame with nothing
    /// to materialize ships as the very bytes its container wrote.
    fn flush_to_wire(&self, idx: usize, frames: &[Outbound]) {
        let limit = self.adapt_batch_limit(idx, frames.len());
        for chunk in frames.chunks(limit) {
            let bytes = match chunk {
                [(_, frame, h)] if h.arena().is_none() => frame.clone(),
                _ => self.wire_message(chunk),
            };
            // Count before the frames become visible to the peer: its
            // reply can complete at the application before `send` even
            // returns here, and whoever observes that completion must
            // find the counter already moved. Undone if nothing ships.
            let frames = chunk.len() as u64;
            self.stats.relayed_out.fetch_add(frames, Ordering::Relaxed);
            // One try under the agent lock. A full wire is waited on with
            // a handle taken out from under it, parked on the wire's space
            // bell until one deadline: a wedged or dead peer surfaces as
            // failed completions, not a hung forwarding thread.
            let tried = {
                let inner = self.inner.lock();
                match inner.wires[idx].send(bytes.clone()) {
                    Err(Error::Exhausted(_)) => Err(inner.wires[idx].clone()),
                    sent => Ok(sent),
                }
            };
            let sent = tried.unwrap_or_else(|wire| {
                let sent = wire.send_until(bytes, Instant::now() + WIRE_FULL_WAIT);
                let tm = self.telemetry.read();
                tm.wire_retries.inc();
                tm.hub.record(Event::RelayRetry {
                    host: self.host.raw(),
                    // The try that found the wire full, then the parked send.
                    attempts: 2,
                    exhausted: matches!(sent, Err(Error::Exhausted(_))),
                });
                sent
            });
            let code = match sent {
                Ok(()) => {
                    self.telemetry.read().batch_size.record(frames);
                    continue;
                }
                Err(Error::Exhausted(_)) => {
                    self.telemetry.read().retry_exhausted.inc();
                    status::TIMEOUT
                }
                // Wire down or peer gone: fail over immediately.
                Err(_) if self.route_is_stale(idx) => status::STALE_ROUTE,
                Err(_) => status::TIMEOUT,
            };
            self.stats.relayed_out.fetch_sub(frames, Ordering::Relaxed);
            for (_, _, h) in chunk {
                self.nack(h, code);
            }
        }
    }

    /// Write `chunk`'s frames into one wire message, each once, an arena
    /// payload copied from the arena straight in and its block freed. One
    /// the arena refuses (a block the container no longer owns) ships as its
    /// descriptor, which the peer refuses with `REMOTE_ACCESS`.
    fn wire_message(&self, chunk: &[Outbound]) -> Bytes {
        let arena = &self.arena;
        let (framed, named) = chunk.iter().fold((0, 0), |(f, n), (_, frame, h)| {
            (f + frame.len(), n + h.arena().map_or(0, |(_, len)| len))
        });
        // Taken blocks never overlap, so the arena bounds what they add.
        let len = framed + named.min(arena.size()) as usize;
        let mut refused = false;
        let msg = RelayMsg::encode_frames(chunk.len(), len, |i, buf| {
            let (_, frame, h) = &chunk[i];
            if let Some((offset, len)) = h.arena() {
                let taken = arena.take_into(offset, len, |data| {
                    h.reframe(frame, PayloadDesc::Inline(data.len()), buf);
                    buf.extend_from_slice(data);
                });
                if taken.is_ok() {
                    return;
                }
                refused = true;
            }
            buf.extend_from_slice(frame);
        });
        // Room sized for a block that was not taken is not kept queued.
        if refused {
            Bytes::copy_from_slice(&msg)
        } else {
            msg
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

    /// Deliver a frame whose destination is on this host, counting the
    /// `zero_copy` arena bytes it hands over. Returns false if the
    /// destination is not local.
    fn deliver_local(&self, dst_ip: OverlayIp, frame: &[u8], zero_copy: u64) -> bool {
        let inner = self.inner.lock();
        let Some(link) = inner.containers.get(&dst_ip) else {
            return false;
        };
        if link.tx.send(frame).is_ok() {
            self.stats.local_delivered.fetch_add(1, Ordering::Relaxed);
            self.stats
                .zero_copy_bytes
                .fetch_add(zero_copy, Ordering::Relaxed);
        }
        true
    }

    /// Deliver a wire message — possibly a coalesced batch — to local
    /// containers by each frame's header, re-staging big inline payloads
    /// into the arena when zero-copy is on. A frame carrying an arena
    /// descriptor is refused: it names a block of *this* host's arena, which
    /// no peer owns. A run of frames for one container is one vectored send,
    /// so its data doorbell rings once per run. Returns the frames processed.
    fn deliver_from_wire(&self, raw: Bytes) -> usize {
        let Ok(frames) = RelayMsg::split_frames(raw) else {
            return 1; // corrupt envelope: drop, but it was work
        };
        let total = frames.len();
        // Each frame as delivered, its header, and its restaged block and bytes.
        let mut prepared = Vec::with_capacity(total);
        for frame in frames {
            match RelayHeader::peek(&frame) {
                Err(_) => {} // corrupt frame: drop it alone
                Ok(h) if h.arena().is_some() => self.nack(&h, status::REMOTE_ACCESS),
                Ok(h) => {
                    let (frame, staged) = self.restage(frame, &h);
                    prepared.push((frame, h, staged));
                }
            }
        }
        self.stats
            .relayed_in
            .fetch_add(prepared.len() as u64, Ordering::Relaxed);
        // Deliver runs of consecutive frames sharing a destination with
        // one vectored send each; wire order within a container holds.
        let mut rest = &prepared[..];
        while let Some(dst) = rest.first().map(|p| p.1.dst.ip) {
            let (run, tail) = rest.split_at(rest.iter().take_while(|p| p.1.dst.ip == dst).count());
            rest = tail;
            let delivered = self.inner.lock().containers.get(&dst).is_some_and(|link| {
                let parts: Vec<&[u8]> = run.iter().map(|(frame, ..)| &frame[..]).collect();
                link.tx.send_batch(&parts).is_ok()
            });
            if !delivered {
                for (_, h, staged) in run {
                    // Undo any staged block, then nack the remote sender.
                    if let Some((block, _)) = staged {
                        let _ = self.arena.free(*block);
                    }
                    self.nack(h, status::REMOTE_OP);
                }
                continue;
            }
            let zero: u64 = run.iter().filter_map(|(.., s)| s.map(|s| s.1)).sum();
            self.stats
                .zero_copy_bytes
                .fetch_add(zero, Ordering::Relaxed);
            if run.len() > 1 {
                self.telemetry
                    .read()
                    .doorbells_coalesced
                    .add(run.len() as u64 - 1);
            }
        }
        total
    }

    /// Stage a big inline payload into the host arena when zero-copy is on,
    /// rewriting the frame to carry the block's descriptor. Returns the
    /// frame to deliver and, if staged, the block and its payload bytes.
    fn restage(&self, frame: Bytes, h: &RelayHeader) -> (Bytes, Option<(ArenaHandle, u64)>) {
        let Some(PayloadDesc::Inline(data)) = h.payload else {
            return (frame, None);
        };
        if data < ZERO_COPY_THRESHOLD || !self.zero_copy.load(Ordering::Relaxed) {
            return (frame, None);
        }
        let arena = &self.arena;
        let Ok(block) = arena.alloc(data as u64) else {
            return (frame, None); // arena full: copy path
        };
        arena
            .write(block, 0, &frame[frame.len() - data..])
            .expect("fresh block fits");
        // The descriptor keeps the *data* length, so receivers read exactly
        // the payload; the receiver frees the block at arena granularity.
        let (offset, len) = (block.offset, data as u64);
        // A descriptor is shorter than the bytes it replaces.
        let mut out = BytesMut::with_capacity(frame.len());
        h.reframe(&frame, PayloadDesc::Arena { offset, len }, &mut out);
        (out.freeze(), Some((block, len)))
    }

    /// Refuse an operation with `code`, replying toward its source.
    fn nack(&self, h: &RelayHeader, code: u8) {
        let Some(reply) = h.refusal(code) else {
            return;
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
        // Try local first, then a route.
        if self.deliver_local(h.src.ip, &raw, 0) {
            return;
        }
        let inner = self.inner.lock();
        if let Some(&idx) = inner.routes.get(&h.src.ip) {
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
    use crate::proto::RelayPayload;

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
        let arena0 = &src.arena;
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
                dst.arena.read(handle, 0, &mut out).unwrap();
                assert_eq!(out, data);
                dst.arena.free(handle).unwrap();
            }
            other => panic!("expected arena delivery, got {other:?}"),
        }
        assert!(a1.stats().zero_copy_bytes.load(Ordering::Relaxed) >= 8192);
    }

    #[test]
    fn arena_descriptor_outside_the_arena_is_nacked_not_fatal() {
        // A container writes the descriptors it hands its agent. One that
        // names bytes outside the arena, or claims a terabyte, must cost
        // that container a nack — not the host agent a panic or an abort.
        let a0 = Agent::new(HostId::new(0), 1 << 20);
        let a1 = Agent::new(HostId::new(1), 1 << 20);
        let (w0, _w1) = connect_agents(&a0, &a1, TransportKind::Rdma);
        let src = a0.attach_container(ip(1)).unwrap();
        let dst = a1.attach_container(ip(2)).unwrap();
        a0.install_route(ip(2), w0).unwrap();
        let arena = &src.arena;
        let _held = arena.alloc(4096).unwrap();
        let allocated = arena.allocated();
        for (wr_id, offset, len) in [(1, 1 << 30, 64), (2, 0, 1 << 40)] {
            let msg = RelayMsg::Send {
                src: ep(1, 1),
                dst: ep(2, 1),
                wr_id,
                imm: None,
                payload: RelayPayload::Arena { offset, len },
            };
            src.channel.tx.send(&msg.encode()).unwrap();
            a0.poll();
            match recv_inline(&src) {
                RelayMsg::Nack {
                    wr_id: id,
                    status: code,
                    ..
                } => assert_eq!((id, code), (wr_id, status::REMOTE_ACCESS)),
                other => panic!("expected a nack, got {other:?}"),
            }
        }
        assert_eq!(arena.allocated(), allocated, "no block freed or leaked");
        assert_eq!(a0.stats().relayed_out.load(Ordering::Relaxed), 0);
        // The agent keeps relaying.
        let ok = send_msg(1, 2, 3, b"still relaying");
        src.channel.tx.send(&ok.encode()).unwrap();
        a0.poll();
        a1.poll();
        assert_eq!(recv_inline(&dst), ok);
    }

    /// Two agents joined by an RDMA wire with routes both ways, a container
    /// on each, driven by hand.
    fn wired_pair() -> (Arc<Agent>, Arc<Agent>, usize, AgentHandle, AgentHandle) {
        let a0 = Agent::new(HostId::new(0), 1 << 20);
        let a1 = Agent::new(HostId::new(1), 1 << 20);
        let (w0, w1) = connect_agents(&a0, &a1, TransportKind::Rdma);
        let src = a0.attach_container(ip(1)).unwrap();
        let dst = a1.attach_container(ip(2)).unwrap();
        a0.install_route(ip(2), w0).unwrap();
        a1.install_route(ip(1), w1).unwrap();
        (a0, a1, w0, src, dst)
    }

    fn arena_send(wr_id: u64, offset: u64, len: u64) -> RelayMsg {
        RelayMsg::Send {
            src: ep(1, 1),
            dst: ep(2, 1),
            wr_id,
            imm: None,
            payload: RelayPayload::Arena { offset, len },
        }
    }

    fn expect_nack(handle: &AgentHandle, wr_id: u64, code: u8) {
        match recv_inline(handle) {
            RelayMsg::Nack {
                wr_id: id,
                status: got,
                ..
            } => assert_eq!((id, got), (wr_id, code)),
            other => panic!("expected a nack, got {other:?}"),
        }
    }

    #[test]
    fn wire_frame_naming_an_arena_block_is_refused() {
        // A descriptor arriving on a wire names a block of the *receiving*
        // host's arena — here one a tenant there holds. Delivered, the
        // target library would read that block and free it. The receiving
        // agent refuses the frame toward its sender instead, and delivers
        // the legitimate frame batched behind it.
        let (a0, a1, w0, src, dst) = wired_pair();
        let arena1 = &dst.arena;
        let victim = arena1.alloc(4096).unwrap();
        let legit = send_msg(1, 2, 8, b"legit");
        let mut batch = BytesMut::new();
        RelayMsg::encode_coalesced(
            &[arena_send(7, victim.offset, 64), legit.clone()],
            &mut batch,
        );
        a0.inner.lock().wires[w0].send(batch.freeze()).unwrap();
        a1.poll();
        assert_eq!(arena1.allocated(), 4096, "the held block stays held");
        assert_eq!(recv_inline(&dst), legit);
        assert!(matches!(dst.channel.rx.try_recv(), Err(Error::WouldBlock)));
        assert_eq!(a1.stats().relayed_in.load(Ordering::Relaxed), 1);
        a0.poll();
        expect_nack(&src, 7, status::REMOTE_ACCESS);
    }

    #[test]
    fn batched_arena_payloads_are_materialized_into_the_wire_message() {
        let (a0, a1, _, src, dst) = wired_pair();
        let arena0 = &src.arena;
        let stage = |data: &[u8]| {
            let block = arena0.alloc(data.len() as u64).unwrap();
            arena0.write(block, 0, data).unwrap();
            block.offset
        };
        let (big, small) = (vec![0xAB; 8192], vec![0xCD; 100]);
        let frames = [
            arena_send(1, stage(&big), 8192),
            send_msg(1, 2, 2, b"inline"),
            arena_send(3, stage(&small), 100),
        ];
        for f in &frames {
            src.channel.tx.send(&f.encode()).unwrap();
        }
        a0.poll();
        assert_eq!(arena0.allocated(), 0, "each block freed once it is copied");
        a1.poll();
        match recv_inline(&dst) {
            RelayMsg::Send {
                wr_id: 1,
                payload: RelayPayload::Arena { offset, len: 8192 },
                ..
            } => assert_eq!(dst.arena.take(offset, 8192).unwrap(), big),
            other => panic!("expected the big payload restaged, got {other:?}"),
        }
        assert_eq!(recv_inline(&dst), frames[1]);
        match recv_inline(&dst) {
            RelayMsg::Send {
                wr_id: 3,
                payload: RelayPayload::Inline(b),
                ..
            } => assert_eq!(b, small),
            other => panic!("expected the small payload inline, got {other:?}"),
        }
    }

    #[test]
    fn a_block_handed_off_twice_is_refused_the_second_time() {
        // Both frames name the same block; the first takes it, so the
        // second ships as its descriptor and comes back refused.
        let (a0, a1, _, src, dst) = wired_pair();
        let arena0 = &src.arena;
        let block = arena0.alloc(64).unwrap();
        arena0.write(block, 0, &[5; 64]).unwrap();
        for wr_id in [1, 2] {
            let frame = arena_send(wr_id, block.offset, 64);
            src.channel.tx.send(&frame.encode()).unwrap();
        }
        a0.poll();
        a1.poll();
        match recv_inline(&dst) {
            RelayMsg::Send {
                wr_id: 1,
                payload: RelayPayload::Inline(b),
                ..
            } => assert_eq!(b, vec![5; 64]),
            other => panic!("expected the first handoff inline, got {other:?}"),
        }
        a0.poll();
        expect_nack(&src, 2, status::REMOTE_ACCESS);
        assert_eq!(arena0.allocated(), 0);
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
        // Both pumps have parked once before the stretch starts: on a
        // loaded machine a new pump thread may not have run for a while.
        let deadline = Instant::now() + Duration::from_secs(10);
        while [&p.a0, &p.a1].iter().any(|a| a.bell_stats().waits == 0) {
            assert!(Instant::now() < deadline, "a pump never parked");
            std::thread::yield_now();
        }
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
        // Stop the pumps first: one parked since the last ack ends that
        // park on the stop ring, so no park is still open at the count.
        let PumpedPair { a0, a1, _pumps, .. } = p;
        drop(_pumps);
        for agent in [&a0, &a1] {
            let bell = agent.bell_stats();
            assert_eq!(bell.timeouts, 0, "every park ended by a ring: {bell:?}");
            assert_eq!(bell.waits, bell.wakes);
        }
        assert_eq!(a0.stats().relayed_out.load(Ordering::Relaxed), 1_000);
        assert_eq!(a1.stats().relayed_out.load(Ordering::Relaxed), 1_000);
    }

    #[test]
    fn agent_keeps_no_per_request_state() {
        // Requests relayed out and never answered leave nothing behind in
        // the agents: the QP that posted one times it, so an idle agent
        // has no deadline to wake for, however many are outstanding.
        const N: u64 = 10_000;
        let p = pumped_pair();
        for i in 0..N {
            p.src
                .channel
                .tx
                .send(&send_msg(1, 2, i, b"unanswered").encode())
                .unwrap();
        }
        for i in 0..N {
            match recv_inline(&p.dst) {
                RelayMsg::Send { wr_id, .. } => assert_eq!(wr_id, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        let before = [p.a0.bell_stats(), p.a1.bell_stats()];
        // The idle stretch under measurement (not a wait for progress).
        std::thread::sleep(Duration::from_millis(100));
        for (agent, before) in [&p.a0, &p.a1].into_iter().zip(before) {
            let after = agent.bell_stats();
            assert!(
                after.waits - before.waits <= 3,
                "an idle agent parks once and stays parked: {before:?} -> {after:?}"
            );
            assert_eq!(
                after.timeouts, before.timeouts,
                "no deadline ended an idle park: {before:?} -> {after:?}"
            );
        }
        assert_eq!(p.a0.stats().relayed_out.load(Ordering::Relaxed), N);
        assert_eq!(p.a0.stats().nacked.load(Ordering::Relaxed), 0);
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
        // The failure surfaced once; nothing waits to surface it again.
        assert_eq!(a0.poll(), 0);
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

        // Relay out over a downed wire → timeout nack at once.
        let peer = Agent::new(HostId::new(4), 1 << 20);
        let (w, _) = connect_agents(&agent, &peer, TransportKind::Rdma);
        agent.install_route(ip(2), w).unwrap();
        agent.set_wire_up(w, false).unwrap();
        a.channel
            .tx
            .send(&send_msg(1, 2, 7, b"lost").encode())
            .unwrap();
        agent.poll();
        assert!(matches!(recv_inline(&a), RelayMsg::Nack { .. }));

        let snap = hub.snapshot();
        assert_eq!(snap.counter_value("ff_agent_nacks_total", labels), Some(2));
        assert_eq!(
            snap.counter_value("ff_agent_retry_exhausted_total", labels),
            Some(0)
        );
        // Collector-exported gauges mirror AgentStats and channel health.
        assert_eq!(snap.gauge_value("ff_agent_nacked", labels), Some(2));
        assert_eq!(snap.gauge_value("ff_agent_relayed_out", labels), Some(0));
        // No pump parks on this agent's bell, so no ring issued a wake.
        assert_eq!(snap.gauge_value("ff_agent_bell_notifies", labels), Some(0));
        let chan = LabelSet::host(3).with_container(u64::from(ip(1).raw()));
        assert_eq!(
            snap.gauge_value("ff_agent_chan_msgs_from_container", chan),
            Some(2)
        );
        // Event order: the unroutable nack, then the downed wire's.
        let kinds: Vec<&TimedEvent> = snap.events.iter().collect();
        assert!(matches!(
            kinds[..],
            [
                TimedEvent {
                    event: Event::RelayNack {
                        host: 3,
                        status: status::REMOTE_OP
                    },
                    ..
                },
                TimedEvent {
                    event: Event::RelayNack {
                        host: 3,
                        status: status::TIMEOUT
                    },
                    ..
                },
            ]
        ));
        snap.verify_exposition_round_trip().unwrap();
    }

    /// Two agents joined by an RDMA wire that holds one message, a
    /// container on each, the route host 0 → host 1 installed, both on one
    /// hub; driven by hand.
    fn narrow_pair() -> (
        Arc<Agent>,
        Arc<Agent>,
        usize,
        AgentHandle,
        AgentHandle,
        Arc<Telemetry>,
    ) {
        let a0 = Agent::new(HostId::new(0), 1 << 20);
        let a1 = Agent::new(HostId::new(1), 1 << 20);
        let hub = Telemetry::new();
        a0.attach_telemetry(&hub);
        let (wa, wb) = PeerWire::pair(
            (a0.host(), Arc::clone(&a0.bell)),
            (a1.host(), Arc::clone(&a1.bell)),
            TransportKind::Rdma,
            1,
        );
        let w0 = a0.attach_wire(wa);
        a1.attach_wire(wb);
        let src = a0.attach_container(ip(1)).unwrap();
        let dst = a1.attach_container(ip(2)).unwrap();
        a0.install_route(ip(2), w0).unwrap();
        // The first frame fills the wire.
        src.channel
            .tx
            .send(&send_msg(1, 2, 1, b"fills").encode())
            .unwrap();
        assert_eq!(a0.poll(), 1);
        src.channel
            .tx
            .send(&send_msg(1, 2, 2, b"waits").encode())
            .unwrap();
        (a0, a1, w0, src, dst, hub)
    }

    /// Poll `agent` on a thread and return once that poll is parked on
    /// wire `idx`'s space bell. Taking the agent lock to look also shows
    /// the parked sender does not hold it.
    fn poll_until_parked(agent: &Arc<Agent>, idx: usize) -> std::thread::JoinHandle<usize> {
        let poller = {
            let agent = Arc::clone(agent);
            std::thread::spawn(move || agent.poll())
        };
        while agent.inner.lock().wires[idx].space_stats().waits == 0 {
            assert!(!poller.is_finished(), "the send never parked");
            std::thread::yield_now();
        }
        poller
    }

    fn counter(hub: &Telemetry, name: &str) -> Option<u64> {
        hub.snapshot().counter_value(name, LabelSet::host(0))
    }

    #[test]
    fn a_send_parked_on_a_full_wire_completes_when_the_peer_pops() {
        let (a0, a1, w0, src, dst, hub) = narrow_pair();
        let poller = poll_until_parked(&a0, w0);
        // The peer's poll pops the one queued message, which rings the
        // space the sender is parked on.
        assert_eq!(a1.poll(), 1);
        assert_eq!(poller.join().unwrap(), 1);
        let space = a0.inner.lock().wires[w0].space_stats();
        assert_eq!((space.waits, space.wakes, space.timeouts), (1, 1, 0));
        a1.poll();
        for wr in [1, 2] {
            assert!(matches!(recv_inline(&dst), RelayMsg::Send { wr_id, .. } if wr_id == wr));
        }
        assert_eq!(counter(&hub, "ff_agent_wire_retries_total"), Some(1));
        assert_eq!(counter(&hub, "ff_agent_retry_exhausted_total"), Some(0));
        assert_eq!(a0.stats().relayed_out.load(Ordering::Relaxed), 2);
        assert_eq!(a0.stats().nacked.load(Ordering::Relaxed), 0);
        assert!(src.channel.rx.try_recv().is_err(), "nothing came back");
    }

    #[test]
    fn a_wedged_peer_gets_the_frames_nacked_at_the_wire_deadline() {
        let (a0, _a1, w0, src, _dst, hub) = narrow_pair();
        let t0 = Instant::now();
        assert_eq!(a0.poll(), 1);
        assert!(t0.elapsed() >= WIRE_FULL_WAIT, "{:?}", t0.elapsed());
        expect_nack(&src, 2, status::TIMEOUT);
        assert_eq!(counter(&hub, "ff_agent_wire_retries_total"), Some(1));
        assert_eq!(counter(&hub, "ff_agent_retry_exhausted_total"), Some(1));
        assert_eq!(a0.inner.lock().wires[w0].space_stats().timeouts, 1);
        assert_eq!(a0.stats().relayed_out.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn downing_the_wire_wakes_a_parked_sender_and_nacks_at_once() {
        let (a0, _a1, w0, src, _dst, hub) = narrow_pair();
        let poller = poll_until_parked(&a0, w0);
        a0.set_wire_up(w0, false).unwrap();
        assert_eq!(poller.join().unwrap(), 1);
        expect_nack(&src, 2, status::TIMEOUT);
        // Woken by the link change, not by the deadline.
        let space = a0.inner.lock().wires[w0].space_stats();
        assert_eq!((space.waits, space.wakes, space.timeouts), (1, 1, 0));
        assert_eq!(counter(&hub, "ff_agent_retry_exhausted_total"), Some(0));
    }
}
