//! The channel pool: shared RC queue pairs carrying thousands of
//! multiplexed streams per container pair.
//!
//! TSoR's layering (PAPERS.md): socket connections are cheap stream ids
//! on a small pool of expensive RC connections, not QPs of their own.
//! A [`Channel`] is one such shared connection — one `FfQp`, two CQs,
//! two slotted MRs and a pump thread — and a [`ChannelPool`] holds every
//! channel a container has open, keyed by peer overlay IP (per
//! container *pair*: each pool belongs to one container, so a pool
//! entry is exactly one ordered pair). `connect` reuses a live channel
//! to the peer when one exists and only falls back to creating a QP
//! when none does; `ff_channel_qp_reuse_total` counts how often the
//! fast path wins.
//!
//! The pump is the channel's receive engine, a step on the one [`Pump`]
//! driver parked on the recv CQ's bell: it drains the shared recv CQ in
//! batches (`poll_many`), recycles receive slots immediately, demuxes
//! frames to per-stream buffers under the mux lock, reaps send
//! completions, and drives the reliability layer's resync handshake
//! across rebind epochs. Every binding transition, every failed send and
//! — while a writer is out of slots or recovery waits on the send CQ —
//! every successful send ring the same bell, so the only timer is
//! recovery's `RESYNC_RETRY`.
//! Application threads block on one condvar and are woken whenever the
//! pump makes progress.

use crate::mux::{
    data_header, CtrlKind, Deferred, Frame, MuxCore, SeqFrame, CTRL_BIT, DATA_HDR, FRAME_SIZE,
    MAX_PAYLOAD, RECV_SLOTS, RESYNC_RETRY, SEND_SLOTS, STREAM_WINDOW,
};
use crate::reliability::TxPayload;
use freeflow::binding::{BindingPhase, PathSignal};
use freeflow::{FfEndpoint, FfQp, LibHandle, Pump, Step};
use freeflow_telemetry::{Counter, Event, Gauge, Histogram, LabelSet, Telemetry};
use freeflow_types::{Error, OverlayIp, Result};
use freeflow_verbs::wr::{AccessFlags, RecvWr, SendWr, WcOpcode};
use freeflow_verbs::{CompletionQueue, MemoryRegion, VerbsError, WcStatus, WorkCompletion};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Send-queue depth: the data-slot window plus generous headroom for
/// inline control traffic (credits from many streams at once).
const CHANNEL_SQ: usize = SEND_SLOTS + 192;
const CHANNEL_RQ: usize = RECV_SLOTS;

/// How long a blocked reader waits before declaring the stream dead.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Writer wakeup granularity while blocked on credits/slots.
const WRITE_POLL: Duration = Duration::from_millis(100);

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
    /// One condvar for all waiters (readers on bytes, writers on
    /// credits/slots); the pump notifies on any progress.
    progress: Condvar,
    /// Set by [`Channel::establish`]; dropping it stops the pump.
    pump: OnceLock<Pump>,
    /// The peer's QPN (what a reuse handshake names); set at establish.
    peer_qpn: AtomicU32,
    metrics: ChannelMetrics,
}

impl Channel {
    /// Build the channel's verbs objects. Does not connect the QP or
    /// start the pump — [`Channel::establish`] does, once the
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
            progress: Condvar::new(),
            pump: OnceLock::new(),
            peer_qpn: AtomicU32::new(0),
            metrics,
        }))
    }

    /// Connect the QP to the peer endpoint, pre-post every receive slot
    /// and start the pump. The connecting side also queues its READY
    /// signal (the accepting side's tx gate opens on it).
    pub fn establish(self: &Arc<Self>, peer: FfEndpoint) -> Result<()> {
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
        // The pump holds only a weak handle: the channel must die when the
        // last stream / pool reference goes, not be pinned by its own
        // thread.
        let me = Arc::downgrade(self);
        let mut batch = Vec::with_capacity(RECV_SLOTS);
        let pump = Pump::spawn(
            format!("ff-sock-ch-{}", self.qp.qp_num()),
            Arc::clone(self.recv_cq.doorbell()),
            Duration::ZERO,
            move || me.upgrade().map_or(Step::Done, |ch| ch.step(&mut batch)),
        );
        let _ = self.pump.set(pump);
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

    // --- the pump -------------------------------------------------------

    /// One pump step: drain the recv CQ, reap sends, drive recovery and
    /// wake waiters on progress. A dead channel ends the pump; an idle one
    /// parks until a ring, or recovery's retry deadline if one is pending.
    fn step(&self, batch: &mut Vec<WorkCompletion>) -> Step {
        let mut progressed = false;
        loop {
            batch.clear();
            if self.recv_cq.poll_many(RECV_SLOTS, batch) == 0 {
                break;
            }
            for wc in batch.drain(..) {
                progressed |= self.handle_recv(wc);
            }
        }
        let (dead, retry) = {
            let mut core = self.core.lock();
            progressed |= self.reap_sends(&mut core);
            progressed |= self.advance(&mut core);
            (core.dead.is_some(), core.retry_wakeup())
        };
        if progressed || dead {
            self.progress.notify_all();
        }
        if dead {
            Step::Done
        } else if progressed {
            Step::Worked
        } else {
            Step::Idle(retry)
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
            Frame::Resync { sent: _ } => {
                // Answer with our in-order high-water mark; idempotent.
                let ack = Frame::ResyncAck {
                    received: core.rx.received(),
                }
                .encode();
                let _ = self.post_ctrl(core, CtrlKind::ResyncAck, ack);
            }
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
                let credit_now = match core.streams.get_mut(&stream) {
                    Some(s) if !s.detached => {
                        s.rx_frame_bytes.push_back(payload.len() as u32);
                        s.rx.extend(&payload);
                        false
                    }
                    Some(s) => {
                        // Handle dropped: discard bytes, return the
                        // credit immediately so the peer's writer can
                        // run into the FIN instead of a stalled window.
                        s.pending_credit += 1;
                        true
                    }
                    // Unknown stream: data after teardown; drop.
                    None => false,
                };
                if credit_now {
                    let _ = self.return_credits(core, stream, true);
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
        let mut batch: Vec<WorkCompletion> = Vec::with_capacity(SEND_SLOTS);
        loop {
            batch.clear();
            if self.send_cq.poll_many(SEND_SLOTS, &mut batch) == 0 {
                // Failed sends always ring the pump; a routine success
                // wakes no one unless a writer is out of slots or recovery
                // waits for every send to be reaped. Arm, then poll once
                // more so no completion slips in between.
                let hear = core.free_slots.is_empty() || core.tx.recovering();
                self.send_cq.ring_on_success(hear);
                if !hear || self.send_cq.pending() == 0 {
                    return progressed;
                }
                continue;
            }
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
    }

    /// Drive non-data progress: channel death on a dead binding, READY
    /// (re)sends, the resync handshake, and deferred control frames.
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
            let ready = Frame::Ready.encode();
            if self.post_ctrl(core, CtrlKind::Ready, ready).is_ok() {
                core.ready_due = false;
                progressed = true;
            }
        }
        // The path is settled again and no send still owes a completion:
        // ask the receiver where the cut actually fell.
        if settled && core.tx.recovering() && core.resync_due(Instant::now()) {
            let resync = Frame::Resync {
                sent: core.tx.next_seq(),
            }
            .encode();
            if self.post_ctrl(core, CtrlKind::Resync, resync).is_ok() {
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

    /// Post sequenced control traffic that recovery had on hold.
    fn drain_deferred(&self, core: &mut MuxCore) -> bool {
        let mut progressed = false;
        while let Some(d) = core.deferred.pop_front() {
            let ok = match d {
                Deferred::Credit { stream, n } => self.post_seq_credit(core, stream, n).is_ok(),
                Deferred::Fin { stream } => self.post_seq_fin(core, stream).is_ok(),
            };
            progressed |= ok;
            if core.tx.recovering() || core.dead.is_some() {
                break;
            }
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
        for seq in out.retransmit {
            let Some((stream, payload)) = core.tx.entry(seq).map(|e| (e.stream, e.payload.clone()))
            else {
                continue;
            };
            let posted = match payload {
                TxPayload::Slot { slot, len } => self.post_with_reap(core, || {
                    SendWr::send(
                        seq,
                        self.send_mr.sge(u64::from(slot) * FRAME_SIZE as u64, len),
                    )
                }),
                TxPayload::Inline(bytes) => {
                    self.post_with_reap(core, || SendWr::send_inline(seq, bytes.clone()))
                }
            };
            if posted.is_err() {
                return; // channel died mid-recovery
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
        // Recovery over: deferred control traffic may flow again (the
        // condvar wakes writers from the pump).
        self.drain_deferred(core);
    }

    // --- posting helpers ------------------------------------------------

    /// Post one WR, reaping the send CQ on a full queue instead of
    /// failing. Fatal errors kill the channel.
    fn post_with_reap(&self, core: &mut MuxCore, make: impl Fn() -> SendWr) -> Result<()> {
        loop {
            if let Some(e) = core.dead_err() {
                return Err(e);
            }
            match self.qp.post_send(make()) {
                Ok(()) => return Ok(()),
                Err(VerbsError::QueueFull { .. }) => {
                    self.reap_sends(core);
                    std::thread::yield_now();
                }
                Err(e) => {
                    core.kill(format!("post failed: {e}"));
                    return Err(core.dead_err().expect("just killed"));
                }
            }
        }
    }

    /// Post an unsequenced (recovery/handshake) control frame.
    fn post_ctrl(&self, core: &mut MuxCore, kind: CtrlKind, frame: Vec<u8>) -> Result<()> {
        let wr_id = CTRL_BIT | core.next_ctrl;
        core.next_ctrl += 1;
        core.inflight_ctrl
            .insert(wr_id, (kind, self.signal.epoch()));
        let res = self.post_with_reap(core, || SendWr::send_inline(wr_id, frame.clone()));
        if res.is_err() {
            core.inflight_ctrl.remove(&wr_id);
        }
        res
    }

    /// Assign the next sequence to an inline control frame and post it.
    fn post_seq_inline(
        &self,
        core: &mut MuxCore,
        stream: u32,
        encode: impl Fn(u64) -> Vec<u8>,
    ) -> Result<()> {
        debug_assert!(!core.tx.recovering());
        let seq = core.tx.next_seq();
        let frame = encode(seq);
        let assigned = core.tx.assign(stream, TxPayload::Inline(frame.clone()));
        debug_assert_eq!(assigned, seq);
        self.post_with_reap(core, || SendWr::send_inline(seq, frame.clone()))
    }

    fn post_seq_credit(&self, core: &mut MuxCore, stream: u32, n: u32) -> Result<()> {
        self.post_seq_inline(core, stream, |seq| {
            Frame::Credit { seq, stream, n }.encode()
        })
    }

    fn post_seq_fin(&self, core: &mut MuxCore, stream: u32) -> Result<()> {
        self.post_seq_inline(core, stream, |seq| Frame::Fin { seq, stream }.encode())
    }

    /// Return a stream's accumulated credits when worthwhile (half the
    /// window batches credit traffic 8×; `force` flushes the rest at
    /// FIN/detach). Defers when the sequence space is closed.
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
        if core.tx.recovering() || !core.tx_open {
            core.deferred.push_back(Deferred::Credit { stream, n });
            return Ok(());
        }
        self.post_seq_credit(core, stream, n)
    }

    // --- the stream-facing data plane ----------------------------------

    /// Write the whole buffer on `stream` (blocking on credits/slots).
    pub fn write_stream(&self, stream: u32, buf: &[u8]) -> Result<usize> {
        let mut off = 0;
        let mut core = self.core.lock();
        while off < buf.len() {
            if let Some(e) = core.dead_err() {
                return Err(e);
            }
            let open = {
                let s = core
                    .streams
                    .get(&stream)
                    .ok_or_else(|| Error::invalid_state("stream torn down"))?;
                !s.local_fin
            };
            if !open {
                return Err(Error::invalid_state("stream closed"));
            }
            let sendable = core.tx_open
                && !core.tx.recovering()
                && !core.free_slots.is_empty()
                && core
                    .streams
                    .get(&stream)
                    .map(|s| s.tx_credits > 0)
                    .unwrap_or(false);
            if !sendable {
                // Try to make progress ourselves before parking.
                self.reap_sends(&mut core);
                self.advance(&mut core);
                let ready = core.tx_open
                    && !core.tx.recovering()
                    && !core.free_slots.is_empty()
                    && core
                        .streams
                        .get(&stream)
                        .map(|s| s.tx_credits > 0)
                        .unwrap_or(false);
                if !ready {
                    let t0 = Instant::now();
                    self.progress.wait_for(&mut core, WRITE_POLL);
                    self.metrics
                        .credit_stall_ns
                        .record(t0.elapsed().as_nanos() as u64);
                    continue;
                }
            }
            let slot = core.free_slots.pop_front().expect("checked non-empty");
            core.streams
                .get_mut(&stream)
                .expect("checked above")
                .tx_credits -= 1;
            let chunk = (buf.len() - off).min(MAX_PAYLOAD);
            let base = u64::from(slot) * FRAME_SIZE as u64;
            let seq = core.tx.next_seq();
            let hdr = data_header(seq, stream);
            let frame_len = (DATA_HDR + chunk) as u32;
            self.send_mr
                .write(base, &hdr)
                .and_then(|()| {
                    self.send_mr
                        .write(base + DATA_HDR as u64, &buf[off..off + chunk])
                })
                .map_err(|e| Error::config(e.to_string()))?;
            let assigned = core.tx.assign(
                stream,
                TxPayload::Slot {
                    slot,
                    len: frame_len,
                },
            );
            debug_assert_eq!(assigned, seq);
            self.post_with_reap(&mut core, || {
                SendWr::send(seq, self.send_mr.sge(base, frame_len))
            })?;
            off += chunk;
        }
        Ok(buf.len())
    }

    /// Read up to `buf.len()` bytes from `stream`. Blocking variant
    /// waits for at least one byte unless the peer closed (returns 0);
    /// non-blocking returns `Error::WouldBlock` when nothing is buffered.
    pub fn read_stream(&self, stream: u32, buf: &mut [u8], block: bool) -> Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut core = self.core.lock();
        loop {
            let n = {
                let s = core
                    .streams
                    .get_mut(&stream)
                    .ok_or_else(|| Error::invalid_state("stream torn down"))?;
                if s.rx.is_empty() {
                    if s.peer_fin {
                        return Ok(0); // EOF
                    }
                    None
                } else {
                    let n = buf.len().min(s.rx.len());
                    for b in buf.iter_mut().take(n) {
                        *b = s.rx.pop_front().expect("non-empty");
                    }
                    let freed = s.consume(n);
                    s.pending_credit += freed;
                    Some(n)
                }
            };
            if let Some(n) = n {
                // Bytes consumed → credits can flow back.
                self.return_credits(&mut core, stream, false)?;
                return Ok(n);
            }
            if let Some(e) = core.dead_err() {
                return Err(e);
            }
            if !block {
                return Err(Error::WouldBlock);
            }
            // Keep the send side honest while blocked on reads.
            self.reap_sends(&mut core);
            self.advance(&mut core);
            if self.progress.wait_for(&mut core, READ_TIMEOUT).timed_out() {
                return Err(Error::unreachable("stream receive timed out"));
            }
        }
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
        if core.tx.recovering() || !core.tx_open {
            core.deferred.push_back(Deferred::Fin { stream });
            Ok(())
        } else {
            self.post_seq_fin(&mut core, stream)
        }
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
        s.rx.clear();
        // Frames still buffered never reached the application; their
        // credits go back so the peer's writer reaches our FIN.
        s.pending_credit += s.rx_frame_bytes.len() as u32;
        s.rx_frame_bytes.clear();
        s.rx_partial = 0;
        let need_fin = !std::mem::replace(&mut s.local_fin, true);
        self.metrics.streams.add(-1);
        if core.dead.is_none() {
            let _ = self.return_credits(&mut core, stream, true);
            if need_fin {
                if core.tx.recovering() || !core.tx_open {
                    core.deferred.push_back(Deferred::Fin { stream });
                } else {
                    let _ = self.post_seq_fin(&mut core, stream);
                }
            }
        }
        core.gc_stream(stream);
    }

    /// Make send-side progress without transferring data (event-loop
    /// callers that may go a long time without reads or writes).
    pub fn flush(&self) -> Result<()> {
        let mut core = self.core.lock();
        self.reap_sends(&mut core);
        self.advance(&mut core);
        match core.dead_err() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Whether `stream` has buffered bytes or a pending EOF (readiness
    /// probe for poll-style servers; never blocks).
    pub fn stream_readable(&self, stream: u32) -> bool {
        let core = self.core.lock();
        core.streams
            .get(&stream)
            .map(|s| !s.rx.is_empty() || s.peer_fin)
            .unwrap_or(false)
    }

    /// Frames retransmitted on behalf of `stream`.
    pub fn stream_retransmits(&self, stream: u32) -> u64 {
        self.core
            .lock()
            .streams
            .get(&stream)
            .map(|s| s.retransmits)
            .unwrap_or(0)
    }

    fn lock_core(&self) -> MutexGuard<'_, MuxCore> {
        self.core.lock()
    }
}

impl std::fmt::Debug for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core = self.lock_core();
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
