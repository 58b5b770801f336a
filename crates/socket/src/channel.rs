//! The channel pool: shared RC queue pairs carrying thousands of
//! multiplexed streams per container pair.
//!
//! TSoR's layering (PAPERS.md): socket connections are cheap stream ids
//! on a small pool of expensive RC connections, not QPs of their own.
//! A [`Channel`] is one such shared connection — one `FfQp`, two CQs and
//! two slotted MRs, no thread of its own — and a [`ChannelPool`] holds every
//! channel a container has open, keyed by peer overlay IP (per
//! container *pair*: each pool belongs to one container, so a pool
//! entry is exactly one ordered pair). `connect` reuses a live channel
//! to the peer when one exists and only falls back to creating a QP
//! when none does; `ff_channel_qp_reuse_total` counts how often the
//! fast path wins.
//!
//! The channel's step drains the shared recv CQ in batches under the run
//! lock, queues each data frame on its stream where it lies, in its
//! receive slot, reaps send completions and sends held control frames.
//! It recovers nothing itself: the QP delivers every frame exactly once
//! and in order across a rebind of its path, so a failed completion is
//! the QP's error state and kills the channel. The thread that waits runs
//! the step, through the one caller-runs wait of `freeflow_types`
//! ([`freeflow_types::block_on`]): a
//! blocked reader or writer registers on the recv CQ's bell and the
//! library's inbound bell, runs the library's inbound drain
//! ([`LibHandle::drain_inbound`]) and then the channel's step, looks, and
//! parks once on both bells — so on a relayed channel the reader drains
//! the agent ring itself. Failed sends and — while a writer is out of
//! slots or a post met a full send queue — successful sends ring the recv
//! CQ's bell, so the channel has no timer. Rings no waiter hears reach the
//! container's library pump, which runs the step too
//! ([`LibHandle::adopt`]). A received byte is copied once, from its
//! receive slot into the reader's buffer ([`HELD_SLOTS`] bounds the slots
//! so held). Locks nest as in a send: the mux lock, then an MR's storage.

use crate::mux::{
    data_header, Deferred, Frame, MuxCore, Rx, CTRL_WR_ID, DATA_HDR, FRAME_SIZE, HELD_SLOTS,
    MAX_PAYLOAD, RECV_SLOTS, SEND_SLOTS, STREAM_WINDOW,
};
use freeflow::{FfEndpoint, FfQp, LibHandle, Step};
use freeflow_telemetry::{Counter, Gauge, Histogram, LabelSet};
use freeflow_types::{block_on, Error, Look, OverlayIp, Result};
use freeflow_verbs::wr::{AccessFlags, RecvWr, SendWr, WcOpcode};
use freeflow_verbs::{CompletionQueue, MemoryRegion, VerbsError, WorkCompletion};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Send-queue depth: the data-slot window plus generous headroom for
/// inline control traffic (credits from many streams at once).
const CHANNEL_SQ: usize = SEND_SLOTS + 192;
const CHANNEL_RQ: usize = RECV_SLOTS;

/// How long a blocked reader waits before declaring the stream dead.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Telemetry instruments shared by a container's channels (labels are
/// per `(host, container)`, snapshot at pool creation).
#[derive(Clone)]
pub(crate) struct ChannelMetrics {
    /// `ff_socket_streams` gauge (open stream handles).
    pub streams: Arc<Gauge>,
    /// `ff_socket_credit_stall_ns` histogram.
    pub credit_stall_ns: Arc<Histogram>,
    /// `ff_channel_qp_reuse_total`.
    pub qp_reuse: Arc<Counter>,
}

impl ChannelMetrics {
    fn new(handle: &LibHandle) -> Self {
        let hub = handle.telemetry();
        let labels = LabelSet::host(handle.host().raw()).with_container(handle.id().raw());
        let reg = hub.registry();
        let streams = reg.gauge(
            "ff_socket_streams",
            "open multiplexed socket streams",
            labels,
        );
        let credit_stall_ns = reg.histogram(
            "ff_socket_credit_stall_ns",
            "time writers spent blocked on per-stream credits or channel send slots, nanoseconds",
            labels,
        );
        let qp_reuse = reg.counter(
            "ff_channel_qp_reuse_total",
            "streams allocated onto an already-established shared channel",
            labels,
        );
        Self {
            streams,
            credit_stall_ns,
            qp_reuse,
        }
    }
}

/// One shared RC connection between two containers, multiplexing many
/// streams (see module docs).
pub(crate) struct Channel {
    qp: Arc<FfQp>,
    send_cq: Arc<CompletionQueue>,
    recv_cq: Arc<CompletionQueue>,
    send_mr: Arc<MemoryRegion>,
    recv_mr: Arc<MemoryRegion>,
    core: Mutex<MuxCore>,
    /// The run lock, held by whoever runs the step: the drain's scratch.
    run: Mutex<Vec<WorkCompletion>>,
    /// The container's library, whose inbound drain a waiter runs first.
    lib: LibHandle,
    /// The peer's QPN (what a reuse handshake names); set at establish.
    peer_qpn: AtomicU32,
    metrics: ChannelMetrics,
}

impl Channel {
    /// Build the channel's verbs objects. Does not connect the QP or
    /// adopt the step — [`Channel::establish`] does, once the
    /// side-channel handshake has exchanged endpoints.
    pub fn new(handle: &LibHandle, initiator: bool, metrics: ChannelMetrics) -> Result<Arc<Self>> {
        let recv_cq = handle.create_cq(CHANNEL_RQ * 2);
        let send_cq = handle.create_cq_ringing(CHANNEL_SQ * 2, Arc::clone(recv_cq.doorbell()));
        let qp = handle
            .create_qp(&send_cq, &recv_cq, CHANNEL_SQ, CHANNEL_RQ)
            .map_err(|e| Error::config(e.to_string()))?;
        let send_mr = handle
            .register((FRAME_SIZE * SEND_SLOTS) as u64, AccessFlags::local_rw())
            .map_err(|e| Error::config(e.to_string()))?;
        let recv_mr = handle
            .register((FRAME_SIZE * RECV_SLOTS) as u64, AccessFlags::local_rw())
            .map_err(|e| Error::config(e.to_string()))?;
        Ok(Arc::new(Self {
            qp,
            send_cq,
            recv_cq,
            send_mr,
            recv_mr,
            core: Mutex::new(MuxCore::new(initiator)),
            run: Mutex::new(Vec::with_capacity(RECV_SLOTS)),
            lib: handle.clone(),
            peer_qpn: AtomicU32::new(0),
            metrics,
        }))
    }

    /// Connect the QP to the peer endpoint, pre-post every receive slot
    /// and hand the step to the library pump. The connecting side also
    /// sends its READY signal (the accepting side's tx gate opens on it).
    pub fn establish(self: &Arc<Self>, peer: FfEndpoint) -> Result<()> {
        self.qp
            .connect(peer)
            .map_err(|e| Error::unreachable(e.to_string()))?;
        self.peer_qpn.store(peer.qpn, Ordering::Release);
        let mut core = self.core.lock();
        for slot in 0..RECV_SLOTS as u64 {
            self.repost(&mut core.dead, slot);
        }
        if core.tx_open {
            // Connecting side: tell the acceptor our QP is RTS.
            self.post_ctrl(&mut core, Deferred::Ready)?;
        }
        core.dead_err().map_or(Ok(()), Err)?;
        drop(core);
        // The library pump holds only a weak handle: the channel must die
        // when the last stream / pool reference goes. The step's first run,
        // after the route is in place, covers rings from before.
        let me = Arc::downgrade(self);
        let idle = self
            .lib
            .adopt(move || me.upgrade().map_or(Step::Done, |ch| ch.step()));
        self.recv_cq.doorbell().set_idle_bell(Arc::clone(&idle));
        idle.ring();
        Ok(())
    }

    /// The channel's own QP.
    pub fn qp(&self) -> &Arc<FfQp> {
        &self.qp
    }

    /// This side's endpoint (what a `NewChannel` handshake carries).
    pub fn endpoint(&self) -> FfEndpoint {
        self.qp.endpoint()
    }

    /// The peer's QPN (what an `Existing` handshake names).
    pub fn peer_qpn(&self) -> u32 {
        self.peer_qpn.load(Ordering::Acquire)
    }

    /// Whether the channel has failed terminally.
    pub fn is_dead(&self) -> bool {
        self.core.lock().dead.is_some()
    }

    /// Allocate a locally initiated stream id.
    pub fn open_local_stream(&self) -> Result<u32> {
        let mut core = self.core.lock();
        if let Some(e) = core.dead_err() {
            return Err(e);
        }
        let id = core.alloc_stream();
        self.metrics.streams.add(1);
        Ok(id)
    }

    /// Register a stream id the peer allocated (side-channel handshake).
    pub fn open_remote_stream(&self, id: u32) -> Result<()> {
        let mut core = self.core.lock();
        if let Some(e) = core.dead_err() {
            return Err(e);
        }
        core.register_remote_stream(id)?;
        self.metrics.streams.add(1);
        Ok(())
    }

    /// Roll back a locally allocated stream whose handshake failed.
    pub fn abort_stream(&self, id: u32) {
        let core = &mut *self.core.lock();
        if let Some(mut s) = core.streams.remove(&id) {
            s.discard(|slot| self.release(&mut core.held, &mut core.dead, slot));
            self.metrics.streams.add(-1);
        }
    }

    // --- the step ---------------------------------------------------------

    /// One step, under the run lock: drain the recv CQ, reap sends and
    /// send held control frames. A dead channel is done; an idle one
    /// waits for a ring.
    fn step(&self) -> Step {
        let mut progressed = false;
        let mut batch = self.run.lock();
        loop {
            batch.clear();
            if self.recv_cq.poll_many(RECV_SLOTS, &mut batch) == 0 {
                break;
            }
            for wc in batch.drain(..) {
                progressed |= self.handle_recv(wc);
            }
        }
        let mut core = self.core.lock();
        progressed |= self.reap_sends(&mut core);
        progressed |= self.advance(&mut core);
        if core.dead.is_some() {
            Step::Done
        } else if progressed {
            Step::Worked
        } else {
            Step::Idle(None)
        }
    }

    /// The one wait ([`block_on`]): ask `ready` under the mux lock; until
    /// it answers, run the library's inbound drain and the step, ask again,
    /// and park on the recv CQ's and the inbound bell until a ring or
    /// `deadline`. Rings `ready`'s posts owe the peer fire after the lock,
    /// never across a park. `Ok(None)` past `deadline`.
    fn block_on<T>(
        &self,
        deadline: Option<Instant>,
        mut ready: impl FnMut(&mut MuxCore) -> Result<Option<T>>,
    ) -> Result<Option<T>> {
        let bells = [&**self.recv_cq.doorbell(), self.lib.inbound_bell()];
        let waited = block_on(
            &bells,
            || {
                self.lib.drain_inbound();
                self.step();
            },
            deadline,
            || {
                let _batch = freeflow_verbs::WakeBatch::open();
                match ready(&mut self.core.lock()) {
                    Ok(None) => Look::Wait(None),
                    done => Look::Ready(done),
                }
            },
        );
        waited.got.unwrap_or(Ok(None))
    }

    /// Process one receive completion: decode, apply, and re-post the slot
    /// unless a data frame holds it. Whether anything observable happened.
    fn handle_recv(&self, wc: WorkCompletion) -> bool {
        if wc.opcode != WcOpcode::Recv {
            return false;
        }
        let mut core = self.core.lock();
        if !wc.status.is_ok() {
            core.kill(format!("channel recv failed: {}", wc.status));
            return true;
        }
        let slot = wc.wr_id;
        let frame = Frame::decode(wc.byte_len as usize, |head| self.read_slot(slot, 0, head));
        let held = match frame {
            Ok(frame) => {
                // Any inbound frame proves the peer's QP transmits: the
                // accepting side's tx gate opens.
                core.tx_open = true;
                self.apply_frame(&mut core, frame, slot)
            }
            Err(e) => {
                core.kill(format!("bad frame: {e}"));
                false
            }
        };
        if !held {
            self.repost(&mut core.dead, slot);
        }
        true
    }

    /// Apply one in-order frame (data, credits, FIN) from receive slot
    /// `slot`; whether a data frame now holds the slot.
    fn apply_frame(&self, core: &mut MuxCore, frame: Frame, slot: u64) -> bool {
        match frame {
            Frame::Ready => {}
            Frame::Data { stream, len } => {
                // Unknown stream: data after teardown; drop.
                let Some(s) = core.streams.get_mut(&stream) else {
                    return false;
                };
                if s.detached {
                    // Handle dropped: discard bytes, return the credit
                    // immediately so the peer's writer can run into the
                    // FIN instead of a stalled window.
                    s.pending_credit += 1;
                    let _ = self.return_credits(core, stream, true);
                    return false;
                }
                let hold = len > 0 && core.held < HELD_SLOTS;
                let frame = if hold {
                    core.held += 1;
                    Rx::Held { slot, len }
                } else {
                    let at = slot * FRAME_SIZE as u64 + DATA_HDR as u64;
                    let bytes = self.recv_mr.read_with(at, len as u64, <[u8]>::to_vec);
                    Rx::Copied(bytes.expect("a decoded frame lies in its slot"))
                };
                if s.push_frame(frame) {
                    let _ = self.return_credits(core, stream, false);
                }
                return hold;
            }
            Frame::Credit { stream, n } => {
                if let Some(s) = core.streams.get_mut(&stream) {
                    s.tx_credits = (s.tx_credits + n as usize).min(STREAM_WINDOW);
                }
            }
            Frame::Fin { stream } => {
                if let Some(s) = core.streams.get_mut(&stream) {
                    s.peer_fin = true;
                }
                core.gc_stream(stream);
            }
        }
        false
    }

    /// Reap the shared send CQ: a data frame's success recycles its slot;
    /// any failure kills the channel (the QP went to `Error`). Returns
    /// whether a waiter could act on it: a slot for writers that ran out,
    /// or a failure.
    fn reap_sends(&self, core: &mut MuxCore) -> bool {
        let mut progressed = false;
        let mut batch = std::mem::take(&mut core.send_wcs);
        loop {
            batch.clear();
            if self.send_cq.poll_many(SEND_SLOTS, &mut batch) == 0 {
                // Failed sends always ring; a routine success wakes no one
                // unless a writer is out of slots or a post met a full
                // queue. Arm, then poll once more so no completion slips
                // in between.
                let hear = core.free_slots.is_empty() || core.sq_full;
                self.send_cq.ring_on_success(hear);
                if !hear || self.send_cq.pending() == 0 {
                    break;
                }
                continue;
            }
            // Any completion frees a send-queue entry.
            progressed |= std::mem::take(&mut core.sq_full);
            for wc in batch.drain(..) {
                if wc.opcode != WcOpcode::Send {
                    continue;
                }
                if !wc.status.is_ok() {
                    core.kill(format!("channel send failed: {}", wc.status));
                    progressed = true;
                } else if wc.wr_id != CTRL_WR_ID {
                    progressed |= core.free_slots.is_empty();
                    core.free_slots.push_back(wc.wr_id as u32);
                }
            }
        }
        core.send_wcs = batch;
        progressed
    }

    /// Send held control frames, in order, until none is left or one
    /// meets a full send queue.
    fn advance(&self, core: &mut MuxCore) -> bool {
        if core.dead.is_some() || !core.tx_open {
            return false;
        }
        let mut progressed = false;
        while let Some(&d) = core.deferred.front() {
            let frame = match d {
                Deferred::Credit { stream, n } => Frame::Credit { stream, n },
                Deferred::Fin { stream } => Frame::Fin { stream },
                Deferred::Ready => Frame::Ready,
            }
            .encode();
            if !self.post(core, || SendWr::send_inline(CTRL_WR_ID, frame.clone())) {
                break;
            }
            core.deferred.pop_front();
            progressed = true;
        }
        progressed
    }

    // --- posting helpers ------------------------------------------------

    /// Post receive slot `slot`. A failed post kills the channel (`dead`).
    fn repost(&self, dead: &mut Option<String>, slot: u64) {
        let sge = (self.recv_mr).sge(slot * FRAME_SIZE as u64, FRAME_SIZE as u32);
        if let Err(e) = self.qp.post_recv(RecvWr::new(slot, sge)) {
            dead.get_or_insert(format!("recv repost failed: {e}"));
        }
    }

    /// Fill `out` from receive slot `slot`'s byte `at`, inside the slot.
    fn read_slot(&self, slot: u64, at: usize, out: &mut [u8]) {
        let at = slot * FRAME_SIZE as u64 + at as u64;
        (self.recv_mr.read(at, out)).expect("a decoded frame lies in its slot");
    }

    /// Take receive slot `slot` back from the data frame that held it.
    fn release(&self, held: &mut usize, dead: &mut Option<String>, slot: u64) {
        *held -= 1;
        self.repost(dead, slot);
    }

    /// Post one WR; whether it went. Fatal errors kill the channel. A full
    /// send queue sets `sq_full` and reaps to arm the ring of the completion
    /// that frees it; nothing waits for room: relayed completions come
    /// through the library's inbound drain, and the library pump, which
    /// runs it for rings nobody waits on, may be waiting for this
    /// channel's locks.
    fn post(&self, core: &mut MuxCore, make: impl Fn() -> SendWr) -> bool {
        while core.dead.is_none() {
            match self.qp.post_send(make()) {
                Ok(()) => return true,
                Err(VerbsError::QueueFull { .. }) => {
                    core.sq_full = true;
                    self.reap_sends(core);
                    if core.sq_full {
                        return false;
                    }
                }
                Err(e) => core.kill(format!("post failed: {e}")),
            }
        }
        false
    }

    /// Queue a control frame behind any held before it, and post what the
    /// tx gate and the send queue let through.
    fn post_ctrl(&self, core: &mut MuxCore, d: Deferred) -> Result<()> {
        core.deferred.push_back(d);
        self.advance(core);
        core.dead_err().map_or(Ok(()), Err)
    }

    /// Return a stream's accumulated credits when worthwhile (half the
    /// window batches credit traffic 8×; `force` flushes the rest at
    /// FIN/detach).
    fn return_credits(&self, core: &mut MuxCore, stream: u32, force: bool) -> Result<()> {
        let n = {
            let Some(s) = core.streams.get_mut(&stream) else {
                return Ok(());
            };
            let threshold = if force { 1 } else { (STREAM_WINDOW / 2) as u32 };
            if s.pending_credit < threshold {
                return Ok(());
            }
            std::mem::take(&mut s.pending_credit)
        };
        self.post_ctrl(core, Deferred::Credit { stream, n })
    }

    // --- the stream-facing data plane ----------------------------------

    /// Write the whole buffer on `stream` (blocking on credits/slots).
    pub fn write_stream(&self, stream: u32, buf: &[u8]) -> Result<usize> {
        let (mut off, mut stalled) = (0, None);
        let wrote = self.block_on(None, |core| loop {
            if off == buf.len() {
                return Ok(Some(off));
            }
            if let Some(e) = core.dead_err() {
                return Err(e);
            }
            match core.streams.get(&stream) {
                None => return Err(Error::invalid_state("stream torn down")),
                Some(s) if s.local_fin => return Err(Error::invalid_state("stream closed")),
                Some(_) => {}
            }
            if !core.can_send(stream) {
                stalled.get_or_insert_with(Instant::now);
                return Ok(None);
            }
            if let Some(t0) = stalled.take() {
                let stall = t0.elapsed().as_nanos() as u64;
                self.metrics.credit_stall_ns.record(stall);
            }
            let slot = core.free_slots.pop_front().expect("checked non-empty");
            let chunk = (buf.len() - off).min(MAX_PAYLOAD);
            let base = u64::from(slot) * FRAME_SIZE as u64;
            let frame_len = (DATA_HDR + chunk) as u32;
            self.send_mr
                .write(base, &data_header(stream))
                .and_then(|()| {
                    self.send_mr
                        .write(base + DATA_HDR as u64, &buf[off..off + chunk])
                })
                .map_err(|e| Error::config(e.to_string()))?;
            let sge = self.send_mr.sge(base, frame_len);
            if !self.post(core, || SendWr::send(u64::from(slot), sge)) {
                // A full queue is no free slot (`post` armed the ring); a
                // dead channel is seen above.
                core.free_slots.push_front(slot);
                continue;
            }
            core.streams
                .get_mut(&stream)
                .expect("checked above")
                .tx_credits -= 1;
            off += chunk;
            if core.free_slots.is_empty() {
                // The last slot is gone: arm the ring of the send that frees one.
                self.reap_sends(core);
            }
        })?;
        Ok(wrote.expect("a write has no deadline"))
    }

    /// Read up to `buf.len()` bytes from `stream`. Blocking variant
    /// waits for at least one byte unless the peer closed (returns 0);
    /// non-blocking returns `Error::WouldBlock` when nothing is buffered.
    pub fn read_stream(&self, stream: u32, buf: &mut [u8], block: bool) -> Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let wait = if block { READ_TIMEOUT } else { Duration::ZERO };
        let read = self.block_on(Some(Instant::now() + wait), |core| {
            let Some(s) = core.streams.get_mut(&stream) else {
                return Err(Error::invalid_state("stream torn down"));
            };
            if s.rx.is_empty() {
                if s.peer_fin {
                    return Ok(Some(0)); // EOF
                }
                return core.dead_err().map_or(Ok(None), Err);
            }
            let (n, freed) = s.read_into(
                buf,
                |slot, at, out| self.read_slot(slot, DATA_HDR + at, out),
                |slot| self.release(&mut core.held, &mut core.dead, slot),
            );
            s.pending_credit += freed;
            // Bytes consumed → credits can flow back.
            self.return_credits(core, stream, false)?;
            Ok(Some(n))
        })?;
        read.ok_or_else(|| match block {
            true => Error::unreachable("stream receive timed out"),
            false => Error::WouldBlock,
        })
    }

    /// Half-close `stream`: flush withheld credits, send FIN. Reads
    /// continue to drain.
    pub fn shutdown_stream(&self, stream: u32) -> Result<()> {
        let mut core = self.core.lock();
        if let Some(e) = core.dead_err() {
            return Err(e);
        }
        let already = {
            let Some(s) = core.streams.get_mut(&stream) else {
                return Ok(());
            };
            std::mem::replace(&mut s.local_fin, true)
        };
        if already {
            return Ok(());
        }
        self.return_credits(&mut core, stream, true)?;
        self.post_ctrl(&mut core, Deferred::Fin { stream })
    }

    /// The application dropped its handle: best-effort FIN, discard
    /// buffered inbound, release its credits, GC once the peer closes.
    pub fn detach_stream(&self, stream: u32) {
        let core = &mut *self.core.lock();
        let Some(s) = core.streams.get_mut(&stream) else {
            return;
        };
        if s.detached {
            return;
        }
        s.detached = true;
        let need_fin = !std::mem::replace(&mut s.local_fin, true);
        // Frames still buffered never reached the application; their
        // credits go back so the peer's writer reaches our FIN.
        s.pending_credit += s.discard(|slot| self.release(&mut core.held, &mut core.dead, slot));
        self.metrics.streams.add(-1);
        if core.dead.is_none() {
            let _ = self.return_credits(core, stream, true);
            if need_fin {
                let _ = self.post_ctrl(core, Deferred::Fin { stream });
            }
        }
        core.gc_stream(stream);
    }

    /// Run the step without transferring data (event-loop callers that
    /// may go a long time without reads or writes).
    pub fn flush(&self) -> Result<()> {
        self.step();
        self.core.lock().dead_err().map_or(Ok(()), Err)
    }

    /// Whether `stream` has buffered bytes or a pending EOF (readiness
    /// probe for poll-style servers; never blocks).
    pub fn stream_readable(&self, stream: u32) -> bool {
        let core = self.core.lock();
        (core.streams.get(&stream)).is_some_and(|s| !s.rx.is_empty() || s.peer_fin)
    }
}

impl std::fmt::Debug for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core = self.core.lock();
        f.debug_struct("Channel")
            .field("qpn", &self.qp.qp_num())
            .field("streams", &core.live_streams())
            .field("free_slots", &core.free_slots.len())
            .field("dead", &core.dead)
            .finish()
    }
}

/// Every channel one container has open, keyed by peer overlay IP.
pub(crate) struct ChannelPool {
    handle: LibHandle,
    metrics: ChannelMetrics,
    inner: Mutex<PoolInner>,
}

#[derive(Default)]
struct PoolInner {
    by_peer: HashMap<OverlayIp, Vec<Arc<Channel>>>,
    by_qpn: HashMap<u32, Arc<Channel>>,
}

impl ChannelPool {
    pub fn new(handle: LibHandle) -> Arc<Self> {
        let metrics = ChannelMetrics::new(&handle);
        Arc::new(Self {
            handle,
            metrics,
            inner: Mutex::new(PoolInner::default()),
        })
    }

    pub fn handle(&self) -> &LibHandle {
        &self.handle
    }

    pub fn metrics(&self) -> &ChannelMetrics {
        &self.metrics
    }

    /// A live channel to `peer`, if one exists (dead ones are pruned).
    pub fn reusable(&self, peer: OverlayIp) -> Option<Arc<Channel>> {
        let mut inner = self.inner.lock();
        let list = inner.by_peer.get_mut(&peer)?;
        list.retain(|ch| !ch.is_dead());
        let found = list.first().cloned();
        if list.is_empty() {
            inner.by_peer.remove(&peer);
        }
        found
    }

    /// The channel whose *own* QPN is `qpn` (what a peer's `Existing`
    /// handshake names), if live.
    pub fn lookup_qpn(&self, qpn: u32) -> Option<Arc<Channel>> {
        let inner = self.inner.lock();
        inner.by_qpn.get(&qpn).filter(|ch| !ch.is_dead()).cloned()
    }

    /// Track an established channel for reuse.
    pub fn insert(&self, peer: OverlayIp, ch: Arc<Channel>) {
        let mut inner = self.inner.lock();
        inner.by_qpn.insert(ch.qp().qp_num(), Arc::clone(&ch));
        inner.by_peer.entry(peer).or_default().push(ch);
    }

    /// A stream landed on an existing channel (the TSoR fast path).
    pub fn note_reuse(&self) {
        self.metrics.qp_reuse.inc();
    }

    /// Live channels in the pool (diagnostics: the examples assert
    /// channel count ≪ stream count).
    pub fn live_channels(&self) -> usize {
        self.inner
            .lock()
            .by_qpn
            .values()
            .filter(|ch| !ch.is_dead())
            .count()
    }
}
