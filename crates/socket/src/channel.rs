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
//! lock, recycles receive slots at once, queues each data frame's payload
//! on its stream, reaps send completions and drives the resync handshake
//! across rebind epochs. The thread that waits runs it: a blocked reader
//! or writer arms the recv CQ's bell, runs the step, looks, and parks.
//! Binding transitions, failed sends and — while a writer is out of slots,
//! a post met a full send queue or recovery waits on the send CQ —
//! successful sends ring that bell, so the only timer is recovery's
//! `RESYNC_RETRY`. Rings no waiter hears reach the container's library
//! pump, which runs the step too ([`LibHandle::adopt`]). A received byte
//! is copied twice: from its slot into the payload `Vec` queued on its
//! stream, then into the reader's buffer.

use crate::mux::{
    data_header, CtrlKind, Deferred, Frame, MuxCore, SeqFrame, CTRL_BIT, DATA_HDR, FRAME_SIZE,
    MAX_PAYLOAD, RECV_SLOTS, RESYNC_RETRY, SEND_SLOTS, STREAM_WINDOW,
};
use crate::reliability::TxPayload;
use freeflow::binding::{BindingPhase, PathSignal};
use freeflow::{FfEndpoint, FfQp, LibHandle, Step};
use freeflow_telemetry::{Counter, Event, Gauge, Histogram, LabelSet, Telemetry};
use freeflow_types::{Error, OverlayIp, Result};
use freeflow_verbs::wr::{AccessFlags, RecvWr, SendWr, WcOpcode};
use freeflow_verbs::{CompletionQueue, MemoryRegion, VerbsError, WcStatus, WorkCompletion};
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
    pub hub: Arc<Telemetry>,
    /// `ff_stream_retransmits_total`.
    pub retransmits: Arc<Counter>,
    /// `ff_stream_reorders_total`.
    pub reorders: Arc<Counter>,
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
        let retransmits = reg.counter(
            "ff_stream_retransmits_total",
            "stream frames retransmitted after a failed completion",
            labels,
        );
        let reorders = reg.counter(
            "ff_stream_reorders_total",
            "stream frames that arrived out of order and were parked",
            labels,
        );
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
            hub,
            retransmits,
            reorders,
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
    signal: Arc<PathSignal>,
    core: Mutex<MuxCore>,
    /// The run lock, held by whoever runs the step: the drain's scratch.
    run: Mutex<Vec<WorkCompletion>>,
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
        let signal = qp.path_signal();
        Ok(Arc::new(Self {
            qp,
            send_cq,
            recv_cq,
            send_mr,
            recv_mr,
            signal,
            core: Mutex::new(MuxCore::new(initiator)),
            run: Mutex::new(Vec::with_capacity(RECV_SLOTS)),
            peer_qpn: AtomicU32::new(0),
            metrics,
        }))
    }

    /// Connect the QP to the peer endpoint, pre-post every receive slot
    /// and hand the step to the library pump. The connecting side also
    /// queues its READY signal (the accepting side's tx gate opens on it).
    pub fn establish(self: &Arc<Self>, handle: &LibHandle, peer: FfEndpoint) -> Result<()> {
        self.qp
            .connect(peer)
            .map_err(|e| Error::unreachable(e.to_string()))?;
        self.peer_qpn.store(peer.qpn, Ordering::Release);
        for slot in 0..RECV_SLOTS as u64 {
            self.qp
                .post_recv(RecvWr::new(
                    slot,
                    self.recv_mr
                        .sge(slot * FRAME_SIZE as u64, FRAME_SIZE as u32),
                ))
                .map_err(|e| Error::config(e.to_string()))?;
        }
        {
            let mut core = self.core.lock();
            if core.tx_open {
                // Connecting side: tell the acceptor our QP is RTS.
                core.ready_due = true;
                self.advance(&mut core);
            }
        }
        // The library pump holds only a weak handle: the channel must die
        // when the last stream / pool reference goes. The step's first run,
        // after the route is in place, covers rings from before.
        let me = Arc::downgrade(self);
        let idle = handle.adopt(move || me.upgrade().map_or(Step::Done, |ch| ch.step()));
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

    /// Snapshot this channel's reliability-ledger watermarks as a
    /// migration record: the sequence-space state a checkpoint must
    /// conserve for streams to continue after a cross-host move. Reaps
    /// first: a routine send completion rings no one, so one may still sit
    /// in the CQ.
    pub fn ledger_record(&self) -> freeflow::migrate::LedgerRecord {
        let mut core = self.core.lock();
        self.reap_sends(&mut core);
        freeflow::migrate::LedgerRecord {
            qpn: self.qp.qp_num(),
            tx_next_seq: core.tx.next_seq(),
            tx_in_flight: core.tx.in_flight() as u32,
            rx_received: core.rx.received(),
            rx_parked: core.rx.parked() as u32,
        }
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
        let mut core = self.core.lock();
        if core.streams.remove(&id).is_some() {
            self.metrics.streams.add(-1);
        }
    }

    // --- the step ---------------------------------------------------------

    /// One step, under the run lock: drain the recv CQ, reap sends and
    /// drive recovery. A dead channel is done; an idle one waits for a
    /// ring, or recovery's retry deadline if one is pending.
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
            Step::Idle(core.retry_wakeup())
        }
    }

    /// The one wait: ask `ready` under the mux lock; until it answers,
    /// arm the recv CQ's bell, run the step, ask again, and park until a
    /// ring or the earlier of `deadline` and recovery's. Asking after the
    /// step means a frame another thread drained is never slept through;
    /// arming before it means a ring that lands meanwhile is this thread's
    /// to serve, not the library pump's. Rings `ready`'s posts owe the peer
    /// fire after the lock, never across a park. `Ok(None)` past `deadline`.
    fn block_on<T>(
        &self,
        deadline: Option<Instant>,
        mut ready: impl FnMut(&mut MuxCore) -> Result<Option<T>>,
    ) -> Result<Option<T>> {
        let bell = self.recv_cq.doorbell();
        // The first look runs no step: what is there already needs none.
        let mut run = false;
        loop {
            let seen = bell.arm();
            if run {
                self.step();
            }
            let (retry, done) = {
                let _batch = freeflow_verbs::WakeBatch::open();
                let mut core = self.core.lock();
                (core.retry_wakeup(), ready(&mut core))
            };
            if !matches!(done, Ok(None)) || deadline.is_some_and(|at| at <= Instant::now()) {
                // Serve a ring heard while armed; later rings reach the
                // library pump, as does a recovery deadline left unkept.
                if bell.disarm(seen) {
                    self.step();
                }
                if let (Some(_), Some(idle)) = (retry, bell.idle_bell()) {
                    idle.ring();
                }
                return done;
            }
            if run {
                bell.park_armed(seen, [deadline, retry].into_iter().flatten().min());
            } else {
                bell.disarm(seen);
            }
            run = true;
        }
    }

    /// Process one receive completion: recycle the slot, decode, apply.
    /// Returns whether anything observable happened.
    fn handle_recv(&self, wc: WorkCompletion) -> bool {
        if wc.opcode != WcOpcode::Recv {
            return false;
        }
        if !wc.status.is_ok() {
            self.core
                .lock()
                .kill(format!("channel recv failed: {}", wc.status));
            return true;
        }
        let slot = wc.wr_id;
        let base = slot * FRAME_SIZE as u64;
        // The frame is copied out — a payload straight into the `Vec` it
        // is delivered in — so the slot goes back on the wire at once and
        // stream buffering never backs up the shared RQ.
        let frame = Frame::decode(wc.byte_len as usize, |at, buf| {
            self.recv_mr
                .read(base + at as u64, buf)
                .map_err(|e| Error::config(e.to_string()))
        });
        if let Err(e) = self
            .qp
            .post_recv(RecvWr::new(slot, self.recv_mr.sge(base, FRAME_SIZE as u32)))
        {
            self.core.lock().kill(format!("recv repost failed: {e}"));
            return true;
        }
        let frame = match frame {
            Ok(f) => f,
            Err(e) => {
                self.core.lock().kill(format!("bad frame: {e}"));
                return true;
            }
        };
        let mut core = self.core.lock();
        // Any inbound frame proves the peer's QP transmits: the
        // accepting side's tx gate opens.
        core.tx_open = true;
        self.apply_frame(&mut core, frame);
        true
    }

    fn apply_frame(&self, core: &mut MuxCore, frame: Frame) {
        match frame {
            Frame::Ready => {}
            // Answered with our in-order high-water mark; idempotent.
            Frame::Resync { sent: _ } => core.ack_due = true,
            Frame::ResyncAck { received } => self.apply_ack(core, received),
            Frame::Data {
                seq,
                stream,
                payload,
            } => self.accept_sequenced(core, seq, SeqFrame::Data { stream, payload }),
            Frame::Credit { seq, stream, n } => {
                self.accept_sequenced(core, seq, SeqFrame::Credit { stream, n })
            }
            Frame::Fin { seq, stream } => {
                self.accept_sequenced(core, seq, SeqFrame::Fin { stream })
            }
        }
    }

    fn accept_sequenced(&self, core: &mut MuxCore, seq: u64, frame: SeqFrame) {
        let acc = core.rx.accept(seq, frame);
        if acc.parked {
            // Only possible in the shadow of a rebind: a retransmission
            // raced frames the peer posted after recovery.
            self.metrics.reorders.inc();
            self.metrics.hub.record(Event::StreamReorder {
                qpn: self.qp.qp_num(),
                seq,
            });
        }
        for f in acc.deliver {
            self.dispatch(core, f);
        }
    }

    /// Deliver one in-order frame to its stream.
    fn dispatch(&self, core: &mut MuxCore, frame: SeqFrame) {
        match frame {
            SeqFrame::Data { stream, payload } => {
                // Unknown stream: data after teardown; drop.
                let Some(s) = core.streams.get_mut(&stream) else {
                    return;
                };
                if s.detached {
                    // Handle dropped: discard bytes, return the credit
                    // immediately so the peer's writer can run into the
                    // FIN instead of a stalled window.
                    s.pending_credit += 1;
                    let _ = self.return_credits(core, stream, true);
                } else if s.push_frame(payload) {
                    let _ = self.return_credits(core, stream, false);
                }
            }
            SeqFrame::Credit { stream, n } => {
                if let Some(s) = core.streams.get_mut(&stream) {
                    s.tx_credits = (s.tx_credits + n as usize).min(STREAM_WINDOW);
                }
            }
            SeqFrame::Fin { stream } => {
                if let Some(s) = core.streams.get_mut(&stream) {
                    s.peer_fin = true;
                }
                core.gc_stream(stream);
            }
        }
    }

    /// Reap the shared send CQ: successes recycle slots and pop the tx
    /// ledger; `RETRY_EXC_ERR` arms recovery; flushes kill the channel.
    /// Returns whether a waiter could act on it: a slot for writers that
    /// ran out, or a failure.
    fn reap_sends(&self, core: &mut MuxCore) -> bool {
        let mut progressed = false;
        let mut batch = std::mem::take(&mut core.send_wcs);
        loop {
            batch.clear();
            if self.send_cq.poll_many(SEND_SLOTS, &mut batch) == 0 {
                // Failed sends always ring; a routine success wakes no one
                // unless a writer is out of slots, a post met a full queue
                // or recovery waits for every send to be reaped. Arm, then
                // poll once more so no completion slips in between.
                let hear = core.free_slots.is_empty() || core.sq_full || core.tx.recovering();
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
                progressed |= !wc.status.is_ok();
                match wc.status {
                    WcStatus::Success => {
                        if wc.wr_id & CTRL_BIT != 0 {
                            core.inflight_ctrl.remove(&wc.wr_id);
                        } else if let Some(e) = core.tx.complete_ok(wc.wr_id) {
                            if let TxPayload::Slot { slot, .. } = e.payload {
                                progressed |= core.free_slots.is_empty();
                                core.free_slots.push_back(slot);
                            }
                        }
                    }
                    WcStatus::RetryExcError => {
                        if wc.wr_id & CTRL_BIT != 0 {
                            let Some((kind, epoch)) = core.inflight_ctrl.remove(&wc.wr_id) else {
                                continue;
                            };
                            match kind {
                                CtrlKind::Resync => core.tx.resync_failed(),
                                CtrlKind::Ready => core.ready_due = true,
                                // A flushed ack is the peer's problem to
                                // re-ask; nothing to resend.
                                CtrlKind::ResyncAck => continue,
                            }
                            // Lost without a re-path: the route onto this
                            // path has not converged, so wait it out
                            // rather than spin into it. After a re-path,
                            // go again at once.
                            let now = Instant::now();
                            core.retry_at = if epoch == self.signal.epoch() {
                                now + RESYNC_RETRY
                            } else {
                                now
                            };
                        } else {
                            // Outcome ambiguous: the resync handshake
                            // settles it once the path is back.
                            core.tx.complete_failed(wc.wr_id);
                        }
                    }
                    other => core.kill(format!("channel send failed: {other}")),
                }
            }
        }
        core.send_wcs = batch;
        progressed
    }

    /// Drive non-data progress: channel death on a dead binding, READY
    /// (re)sends, the resync handshake, and held control frames.
    fn advance(&self, core: &mut MuxCore) -> bool {
        if core.dead.is_some() {
            return false;
        }
        if self.signal.phase() == BindingPhase::Error {
            core.kill("transport failed with no surviving path");
            return true;
        }
        let mut progressed = false;
        let settled = self.signal.settled();
        if core.ready_due && core.tx_open && settled && Instant::now() >= core.retry_at {
            core.ready_due = !self.post_ctrl(core, CtrlKind::Ready, Frame::Ready);
            progressed |= !core.ready_due;
        }
        if core.ack_due {
            let received = core.rx.received();
            core.ack_due =
                !self.post_ctrl(core, CtrlKind::ResyncAck, Frame::ResyncAck { received });
            progressed |= !core.ack_due;
        }
        // The path is settled again and no send still owes a completion:
        // ask the receiver where the cut actually fell.
        if settled && core.tx.recovering() && core.resync_due(Instant::now()) {
            let resync = Frame::Resync {
                sent: core.tx.next_seq(),
            };
            if self.post_ctrl(core, CtrlKind::Resync, resync) {
                core.tx.resync_sent();
                core.retry_at = Instant::now() + RESYNC_RETRY;
                progressed = true;
            }
        }
        if !core.tx.recovering() && core.tx_open {
            progressed |= self.drain_deferred(core);
        }
        progressed
    }

    /// Sequence and post held control frames, in order, until none is
    /// left or one meets a full send queue (no sequence is spent on it).
    fn drain_deferred(&self, core: &mut MuxCore) -> bool {
        let mut progressed = false;
        while let Some(&d) = core.deferred.front() {
            let seq = core.tx.next_seq();
            let (stream, frame) = match d {
                Deferred::Credit { stream, n } => (stream, Frame::Credit { seq, stream, n }),
                Deferred::Fin { stream } => (stream, Frame::Fin { seq, stream }),
            };
            let frame = frame.encode();
            if !self.post(core, || SendWr::send_inline(seq, frame.clone())) {
                break;
            }
            let assigned = core.tx.assign(stream, TxPayload::Inline(frame));
            debug_assert_eq!(assigned, seq);
            core.deferred.pop_front();
            progressed = true;
        }
        progressed
    }

    /// Apply a resync ack: free confirmed slots, retransmit the suffix
    /// in sequence order, release held traffic.
    fn apply_ack(&self, core: &mut MuxCore, received: u64) {
        let out = core.tx.on_ack(received);
        if !core.tx.recovering() {
            // Handshake done: the next failure resyncs at once.
            core.retry_at = Instant::now();
        }
        for e in out.confirmed {
            if let TxPayload::Slot { slot, .. } = e.payload {
                core.free_slots.push_back(slot);
            }
        }
        let mut full = false;
        for seq in out.retransmit {
            let Some((stream, payload)) = core.tx.entry(seq).map(|e| (e.stream, e.payload.clone()))
            else {
                continue;
            };
            let make = || match &payload {
                TxPayload::Slot { slot, len } => {
                    let at = u64::from(*slot) * FRAME_SIZE as u64;
                    SendWr::send(seq, self.send_mr.sge(at, *len))
                }
                TxPayload::Inline(bytes) => SendWr::send_inline(seq, bytes.clone()),
            };
            full = full || !self.post(core, make);
            if core.dead.is_some() {
                return; // channel died mid-recovery
            }
            if full {
                // A full send queue sends this frame and the rest back to
                // recovery: the next resync asks again.
                core.tx.complete_failed(seq);
                continue;
            }
            if let Some(s) = core.streams.get_mut(&stream) {
                s.retransmits += 1;
            }
            self.metrics.retransmits.inc();
            self.metrics.hub.record(Event::StreamRetransmit {
                qpn: self.qp.qp_num(),
                wr_id: seq,
            });
        }
    }

    // --- posting helpers ------------------------------------------------

    /// Post one WR; whether it went. Fatal errors kill the channel. A full
    /// send queue sets `sq_full` and reaps to arm the ring of the completion
    /// that frees it; nothing waits for room: relayed completions come
    /// through the library pump, which may be waiting for this channel's locks.
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

    /// Post an unsequenced (recovery/handshake) control frame; whether it
    /// went. One that did not stays due with its caller.
    fn post_ctrl(&self, core: &mut MuxCore, kind: CtrlKind, frame: Frame) -> bool {
        let wr_id = CTRL_BIT | core.next_ctrl;
        core.next_ctrl += 1;
        let frame = frame.encode();
        let posted = self.post(core, || SendWr::send_inline(wr_id, frame.clone()));
        if posted {
            core.inflight_ctrl
                .insert(wr_id, (kind, self.signal.epoch()));
        }
        posted
    }

    /// Queue a sequenced control frame behind any held before it, and post
    /// what the sequence space and the send queue let through.
    fn post_seq(&self, core: &mut MuxCore, d: Deferred) -> Result<()> {
        core.deferred.push_back(d);
        if !core.tx.recovering() && core.tx_open {
            self.drain_deferred(core);
        }
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
        self.post_seq(core, Deferred::Credit { stream, n })
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
            let seq = core.tx.next_seq();
            let frame_len = (DATA_HDR + chunk) as u32;
            self.send_mr
                .write(base, &data_header(seq, stream))
                .and_then(|()| {
                    self.send_mr
                        .write(base + DATA_HDR as u64, &buf[off..off + chunk])
                })
                .map_err(|e| Error::config(e.to_string()))?;
            if !self.post(core, || {
                SendWr::send(seq, self.send_mr.sge(base, frame_len))
            }) {
                // A full queue is no free slot (`post` armed the ring); a
                // dead channel is seen above.
                core.free_slots.push_front(slot);
                continue;
            }
            let assigned = core.tx.assign(
                stream,
                TxPayload::Slot {
                    slot,
                    len: frame_len,
                },
            );
            debug_assert_eq!(assigned, seq);
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
            let (n, freed) = s.read_into(buf);
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
        self.post_seq(&mut core, Deferred::Fin { stream })
    }

    /// The application dropped its handle: best-effort FIN, discard
    /// buffered inbound, release its credits, GC once the peer closes.
    pub fn detach_stream(&self, stream: u32) {
        let mut core = self.core.lock();
        let Some(s) = core.streams.get_mut(&stream) else {
            return;
        };
        if s.detached {
            return;
        }
        s.detached = true;
        // Frames still buffered never reached the application; their
        // credits go back so the peer's writer reaches our FIN.
        s.pending_credit += s.rx.len() as u32;
        s.rx.clear();
        s.rx_read = 0;
        let need_fin = !std::mem::replace(&mut s.local_fin, true);
        self.metrics.streams.add(-1);
        if core.dead.is_none() {
            let _ = self.return_credits(&mut core, stream, true);
            if need_fin {
                let _ = self.post_seq(&mut core, Deferred::Fin { stream });
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

    /// Frames retransmitted on behalf of `stream`.
    pub fn stream_retransmits(&self, stream: u32) -> u64 {
        self.core
            .lock()
            .streams
            .get(&stream)
            .map_or(0, |s| s.retransmits)
    }
}

impl std::fmt::Debug for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core = self.core.lock();
        f.debug_struct("Channel")
            .field("qpn", &self.qp.qp_num())
            .field("streams", &core.live_streams())
            .field("tx_phase", &core.tx.phase())
            .field("in_flight", &core.tx.in_flight())
            .field("parked", &core.rx.parked())
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

    /// Ledger records for every live channel, sorted by QPN — the
    /// socket-layer slice of a migration checkpoint.
    pub fn export_ledgers(&self) -> Vec<freeflow::migrate::LedgerRecord> {
        let channels: Vec<Arc<Channel>> = {
            let inner = self.inner.lock();
            inner
                .by_qpn
                .values()
                .filter(|ch| !ch.is_dead())
                .cloned()
                .collect()
        };
        let mut records: Vec<_> = channels.iter().map(|ch| ch.ledger_record()).collect();
        records.sort_by_key(|r| r.qpn);
        records
    }
}
