//! Stream multiplexing over one shared channel: stream-id framing,
//! per-stream credit accounting, and the fair drain of the channel's
//! shared completion queues.
//!
//! One [`crate::channel::Channel`] carries many streams. Every frame on
//! the wire names its stream, every sequenced frame carries the
//! channel-level sequence number the reliability ledgers key on
//! ([`crate::reliability`]), and flow control is *per stream*: a sender
//! holds [`STREAM_WINDOW`] credits per stream and a receiver returns
//! them only as the application actually consumes bytes — so one stalled
//! reader exhausts its own window and blocks only its own writer, never
//! the channel (no head-of-line blocking across streams).
//!
//! [`MuxCore`] is the single-lock mutable state of a channel: stream
//! table, send-slot free list, both sequence ledgers, and the recovery
//! gates. The channel serializes all of it under one mutex; application
//! threads and the library pump, which runs the channel's step for rings
//! no waiter heard, drive progress through the methods here.

use crate::reliability::{RxLedger, TxLedger};
use freeflow_types::wire::{Reader, WireError, Writer};
use freeflow_types::{Error, Result};
use freeflow_verbs::WorkCompletion;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Bytes per frame slot (header + payload).
pub const FRAME_SIZE: usize = 16 * 1024;
/// Send slots per channel — the channel-wide in-flight data bound,
/// shared fairly by every stream (FIFO slot grants).
pub const SEND_SLOTS: usize = 64;
/// Pre-posted receive slots per channel. Recycled immediately by the
/// step (frames are copied out), so this bounds wire burst, not stream
/// buffering.
pub const RECV_SLOTS: usize = 64;
/// Per-stream credit window, in frames: a writer may have this many
/// unconsumed frames at the peer. 16 × 16 KiB = 256 KiB per stream,
/// matching the old per-stream-QP receive window.
pub const STREAM_WINDOW: usize = 16;
/// Data-frame header: tag + u64 sequence + u32 stream id.
pub const DATA_HDR: usize = 1 + 8 + 4;
/// Payload bytes per data frame.
pub const MAX_PAYLOAD: usize = FRAME_SIZE - DATA_HDR;
/// Recovery's one timer: a sent resync waits this long for its ack before
/// it is re-asked (a lost ack would otherwise wedge recovery forever), and
/// a READY or RESYNC flushed on the very path it was posted on waits this
/// long before it is sent again (the QP did not re-path, so the route onto
/// that path has not converged yet; re-sending at once would spin against
/// it).
pub const RESYNC_RETRY: Duration = Duration::from_millis(250);

/// `wr_id`s of unsequenced control frames set this bit; sequenced frames
/// use their sequence number directly (which never reaches bit 63).
pub(crate) const CTRL_BIT: u64 = 1 << 63;

pub(crate) const TAG_DATA: u8 = 0;
pub(crate) const TAG_CREDIT: u8 = 1;
pub(crate) const TAG_FIN: u8 = 2;
pub(crate) const TAG_RESYNC: u8 = 3;
pub(crate) const TAG_RESYNC_ACK: u8 = 4;
pub(crate) const TAG_READY: u8 = 5;

/// Longest fixed-size frame, a credit: tag + sequence + stream + count.
const MAX_CTRL: usize = DATA_HDR + 4;

/// One frame on a channel's wire, in the [`freeflow_types::wire`] format.
/// Exported, undocumented, only for its hostile-input harness.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Sequenced: stream payload bytes.
    Data {
        seq: u64,
        stream: u32,
        payload: Vec<u8>,
    },
    /// Sequenced: return `n` credits to `stream`'s writer.
    Credit { seq: u64, stream: u32, n: u32 },
    /// Sequenced: half-close of `stream`.
    Fin { seq: u64, stream: u32 },
    /// Unsequenced: resync request carrying the sender's watermark.
    Resync { sent: u64 },
    /// Unsequenced: resync answer carrying the receiver's in-order mark.
    ResyncAck { received: u64 },
    /// Unsequenced: the connecting side's QP is RTS; the accepting side
    /// may start transmitting.
    Ready,
}

impl Frame {
    /// The frame's wire bytes. A data frame's payload follows its
    /// [`DATA_HDR`]-byte header, so an empty one encodes just the header.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MAX_CTRL);
        match self {
            Frame::Data {
                seq,
                stream,
                payload,
            } => out.put(&data_header(*seq, *stream)).put(payload),
            Frame::Credit { seq, stream, n } => out.u8(TAG_CREDIT).u64(*seq).u32(*stream).u32(*n),
            Frame::Fin { seq, stream } => out.u8(TAG_FIN).u64(*seq).u32(*stream),
            Frame::Resync { sent } => out.u8(TAG_RESYNC).u64(*sent),
            Frame::ResyncAck { received } => out.u8(TAG_RESYNC_ACK).u64(*received),
            Frame::Ready => out.u8(TAG_READY),
        };
        out
    }

    /// Decode a `len`-byte frame that `read(offset, buf)` copies out of
    /// wherever it lies: the header first, then a data frame's payload
    /// straight into the `Vec` it is delivered in, so a receive slot is
    /// copied out exactly once.
    pub fn decode(
        len: usize,
        mut read: impl FnMut(usize, &mut [u8]) -> Result<()>,
    ) -> Result<Self> {
        let mut head = [0u8; MAX_CTRL];
        let head = &mut head[..len.min(MAX_CTRL)];
        read(0, head)?;
        let r = &mut Reader::new(head);
        let mut frame = match r.u8()? {
            TAG_DATA => Frame::Data {
                seq: r.u64()?,
                stream: r.u32()?,
                payload: vec![0; len - DATA_HDR],
            },
            TAG_CREDIT => Frame::Credit {
                seq: r.u64()?,
                stream: r.u32()?,
                n: r.u32()?,
            },
            TAG_FIN => Frame::Fin {
                seq: r.u64()?,
                stream: r.u32()?,
            },
            TAG_RESYNC => Frame::Resync { sent: r.u64()? },
            TAG_RESYNC_ACK => Frame::ResyncAck { received: r.u64()? },
            TAG_READY => Frame::Ready,
            tag => return Err(Error::parse(format!("bad mux frame tag {tag}"))),
        };
        match &mut frame {
            Frame::Data { payload, .. } => read(DATA_HDR, payload)?,
            _ if r.pos() != len => return Err(WireError::Trailing.into()),
            _ => {}
        }
        Ok(frame)
    }
}

/// A data frame's header, on the stack: the send path writes it and the
/// payload straight into a send slot, with no `Frame` in between.
pub(crate) fn data_header(seq: u64, stream: u32) -> [u8; DATA_HDR] {
    let mut hdr = [TAG_DATA; DATA_HDR];
    hdr[1..9].copy_from_slice(&seq.to_le_bytes());
    hdr[9..].copy_from_slice(&stream.to_le_bytes());
    hdr
}

/// A sequenced frame after the reliability ledger (what actually gets
/// dispatched to streams, in order).
#[derive(Debug)]
pub(crate) enum SeqFrame {
    Data { stream: u32, payload: Vec<u8> },
    Credit { stream: u32, n: u32 },
    Fin { stream: u32 },
}

/// Why an unsequenced control frame was posted — consulted when its
/// completion fails, because each kind recovers differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CtrlKind {
    /// Flushed resync request → back to `ResyncDue`, resend on settle.
    Resync,
    /// Flushed resync answer → drop; the peer re-asks.
    ResyncAck,
    /// Flushed ready signal → resend on settle (the accepting side's tx
    /// gate would otherwise never open).
    Ready,
}

/// Sequenced control traffic held while the sequence space is closed or
/// the send queue full; drained in order, and only then sequenced.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Deferred {
    Credit { stream: u32, n: u32 },
    Fin { stream: u32 },
}

/// Per-stream mux state.
#[derive(Debug, Default)]
pub(crate) struct StreamState {
    /// Received, in-order data frames the application has not finished
    /// reading, oldest first: each is the payload `Vec` it was decoded
    /// into, so the queue is the buffer and the record of frame
    /// boundaries at once. A frame's credit returns when its last byte is
    /// read (receiver-window semantics). Never holds an empty frame.
    pub rx: VecDeque<Vec<u8>>,
    /// Bytes already read from the front frame.
    pub rx_read: usize,
    /// Credits earned back but not yet returned to the peer (batched).
    pub pending_credit: u32,
    /// Frames this side may still send before the peer returns credits.
    pub tx_credits: usize,
    /// Peer sent FIN.
    pub peer_fin: bool,
    /// This side sent (or deferred) FIN.
    pub local_fin: bool,
    /// The application dropped its `FfStream` handle: discard inbound
    /// data, return credits immediately, GC when the peer closes too.
    pub detached: bool,
    /// Data/control frames retransmitted on behalf of this stream.
    pub retransmits: u64,
}

impl StreamState {
    pub fn new() -> Self {
        Self {
            tx_credits: STREAM_WINDOW,
            ..Self::default()
        }
    }

    /// Queue an in-order data frame's payload. An empty one has no byte
    /// to wait for: it is credited at once instead (returns `true`), so a
    /// blocked reader never wakes to an empty frame.
    pub fn push_frame(&mut self, payload: Vec<u8>) -> bool {
        if payload.is_empty() {
            self.pending_credit += 1;
            return true;
        }
        self.rx.push_back(payload);
        false
    }

    /// Copy buffered bytes into `buf` across frame boundaries, one
    /// `copy_from_slice` per frame touched. Returns the bytes copied and
    /// how many frames that drained (each one is a credit to return).
    pub fn read_into(&mut self, buf: &mut [u8]) -> (usize, u32) {
        let (mut n, mut drained) = (0, 0);
        while let Some(front) = self.rx.front() {
            let k = (front.len() - self.rx_read).min(buf.len() - n);
            if k == 0 {
                break;
            }
            buf[n..n + k].copy_from_slice(&front[self.rx_read..self.rx_read + k]);
            n += k;
            self.rx_read += k;
            if self.rx_read == front.len() {
                self.rx.pop_front();
                self.rx_read = 0;
                drained += 1;
            }
        }
        (n, drained)
    }
}

/// The single-lock mutable state of one channel.
pub(crate) struct MuxCore {
    /// Live streams by id.
    pub streams: HashMap<u32, StreamState>,
    /// Next locally allocated stream id (initiator even, acceptor odd;
    /// step 2 keeps the two sides' allocations disjoint).
    pub next_stream_id: u32,
    /// Free send-slot indices (FIFO → fair across writers).
    pub free_slots: VecDeque<u32>,
    /// Send-side sequence ledger.
    pub tx: TxLedger,
    /// Receive-side sequence ledger.
    pub rx: RxLedger<SeqFrame>,
    /// Unsequenced control frames in flight, by wr_id, with the binding
    /// epoch each was posted on.
    pub inflight_ctrl: HashMap<u64, (CtrlKind, u64)>,
    /// Next unsequenced wr_id (CTRL_BIT is ORed in).
    pub next_ctrl: u64,
    /// Sequenced control traffic held back, oldest first.
    pub deferred: VecDeque<Deferred>,
    /// A post met a full send queue; the next send completion clears it.
    pub sq_full: bool,
    /// Accepting side: no transmission until the connecting side's QP
    /// proved itself (READY or any inbound frame).
    pub tx_open: bool,
    /// A READY must be (re)sent (connect-side setup, or the first one
    /// flushed).
    pub ready_due: bool,
    /// The peer asked for a resync ack that has not gone out yet.
    pub ack_due: bool,
    /// No READY or RESYNC goes out before this: set [`RESYNC_RETRY`]
    /// ahead when a resync is sent or one of them is flushed on the path
    /// it was posted on; cleared by the ack and by a re-path.
    pub retry_at: Instant,
    /// Terminal channel failure, if any (every stream errors with it).
    pub dead: Option<String>,
    /// Scratch the send CQ is drained into, reused across reaps.
    pub send_wcs: Vec<WorkCompletion>,
}

impl MuxCore {
    pub fn new(initiator: bool) -> Self {
        Self {
            streams: HashMap::new(),
            next_stream_id: if initiator { 0 } else { 1 },
            free_slots: (0..SEND_SLOTS as u32).collect(),
            tx: TxLedger::new(),
            rx: RxLedger::new(),
            inflight_ctrl: HashMap::new(),
            next_ctrl: 0,
            deferred: VecDeque::new(),
            sq_full: false,
            // The connecting side created the QP and connects it before
            // any peer traffic can exist; only the accepting side gates.
            tx_open: initiator,
            ready_due: false,
            ack_due: false,
            retry_at: Instant::now(),
            dead: None,
            send_wcs: Vec::with_capacity(SEND_SLOTS),
        }
    }

    /// Whether a resync should be posted at `now`. Time, not calls,
    /// decides — blocked readers and writers drive `advance` too. Before
    /// `retry_at` nothing is (re-)asked; at or past it an `AwaitAck`
    /// whose ack never came falls back to `ResyncDue`, which asks once
    /// every in-flight send is reaped.
    pub fn resync_due(&mut self, now: Instant) -> bool {
        if now < self.retry_at {
            return false;
        }
        self.tx.resync_failed();
        self.tx.resync_ready()
    }

    /// When the step must run again with nobody ringing: `retry_at`,
    /// while a READY or the resync handshake waits on it.
    pub fn retry_wakeup(&self) -> Option<Instant> {
        (self.ready_due || self.tx.recovering())
            .then_some(self.retry_at)
            .filter(|&at| at > Instant::now())
    }

    /// Fail the whole channel: every stream unblocks with the reason.
    pub fn kill(&mut self, reason: impl Into<String>) {
        if self.dead.is_none() {
            self.dead = Some(reason.into());
        }
    }

    pub fn dead_err(&self) -> Option<Error> {
        self.dead.as_ref().map(|r| Error::disconnected(r.clone()))
    }

    /// Whether `stream` may post a data frame now: the tx gate is open,
    /// recovery is not running, a send slot and queue room are free, and
    /// it holds a credit.
    pub fn can_send(&self, stream: u32) -> bool {
        self.tx_open
            && !self.tx.recovering()
            && !self.sq_full
            && !self.free_slots.is_empty()
            && self.streams.get(&stream).is_some_and(|s| s.tx_credits > 0)
    }

    /// Allocate a locally initiated stream id.
    pub fn alloc_stream(&mut self) -> u32 {
        let id = self.next_stream_id;
        self.next_stream_id += 2;
        self.streams.insert(id, StreamState::new());
        id
    }

    /// Register a remotely initiated stream id (side-channel handshake).
    /// Refuses ids that collide with the local parity or are in use.
    pub fn register_remote_stream(&mut self, id: u32) -> Result<()> {
        let local_parity = self.next_stream_id % 2;
        if id % 2 == local_parity {
            return Err(Error::invalid_state(format!(
                "stream id {id} has this side's parity"
            )));
        }
        if self.streams.contains_key(&id) {
            return Err(Error::already_exists(format!("stream id {id}")));
        }
        self.streams.insert(id, StreamState::new());
        Ok(())
    }

    /// Number of live (not yet GC'd) streams.
    pub fn live_streams(&self) -> usize {
        self.streams.len()
    }

    /// Whether a stream finished both directions and lost its handle.
    pub fn gc_stream(&mut self, id: u32) -> bool {
        let done = self
            .streams
            .get(&id)
            .map(|s| s.detached && s.peer_fin)
            .unwrap_or(false);
        if done {
            self.streams.remove(&id);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::{TxPayload, TxPhase};

    fn decode(bytes: &[u8]) -> Result<Frame> {
        Frame::decode(bytes.len(), |at, buf| {
            buf.copy_from_slice(&bytes[at..at + buf.len()]);
            Ok(())
        })
    }

    #[test]
    fn frames_round_trip() {
        for frame in [
            Frame::Data {
                seq: 42,
                stream: 7,
                payload: b"payload".to_vec(),
            },
            Frame::Credit {
                seq: 9,
                stream: 3,
                n: 8,
            },
            Frame::Fin { seq: 1, stream: 2 },
            Frame::Resync { sent: 100 },
            Frame::ResyncAck { received: 99 },
            Frame::Ready,
        ] {
            assert_eq!(decode(&frame.encode()).unwrap(), frame);
        }
        assert!(decode(&[9, 9]).is_err());
    }

    #[test]
    fn data_frames_carry_empty_and_full_payloads() {
        for len in [0, MAX_PAYLOAD] {
            let frame = Frame::Data {
                seq: 5,
                stream: 1,
                payload: vec![0xA5; len],
            };
            let wire = frame.encode();
            assert_eq!(wire.len(), DATA_HDR + len);
            assert!(wire.len() <= FRAME_SIZE, "a full payload fills one slot");
            assert_eq!(decode(&wire).unwrap(), frame);
            assert!(decode(&wire[..DATA_HDR - 1]).is_err());
        }
    }

    #[test]
    fn stream_ids_are_disjoint_by_side() {
        let mut a = MuxCore::new(true);
        let mut b = MuxCore::new(false);
        assert_eq!(a.alloc_stream(), 0);
        assert_eq!(b.alloc_stream(), 1);
        assert_eq!(a.alloc_stream(), 2);
        assert_eq!(b.alloc_stream(), 3);
        // Cross-registration works; same-parity registration refuses.
        a.register_remote_stream(1).unwrap();
        assert!(a.register_remote_stream(4).is_err());
        b.register_remote_stream(0).unwrap();
        assert!(b.register_remote_stream(5).is_err());
    }

    #[test]
    fn resync_reask_counts_time_not_calls() {
        let mut core = MuxCore::new(true);
        let seq = core.tx.assign(0, TxPayload::Inline(vec![0]));
        core.tx.complete_failed(seq);
        let sent = Instant::now();
        assert!(core.resync_due(sent), "the first ask goes at once");
        core.tx.resync_sent();
        core.retry_at = sent + RESYNC_RETRY;
        assert_eq!(core.retry_wakeup(), Some(core.retry_at));
        // Blocked readers and writers call `advance` in a tight loop.
        for i in 0..1_000 {
            assert!(!core.resync_due(sent + Duration::from_micros(i)));
        }
        assert_eq!(core.tx.phase(), TxPhase::AwaitAck, "re-asked early");
        assert!(
            core.resync_due(sent + RESYNC_RETRY),
            "re-asked at the deadline"
        );
        assert_eq!(core.tx.phase(), TxPhase::ResyncDue);
        // Asked once: the next ask is a full interval away again.
        core.tx.resync_sent();
        core.retry_at = sent + 2 * RESYNC_RETRY;
        assert!(!core.resync_due(sent + RESYNC_RETRY + Duration::from_millis(1)));
        assert_eq!(core.tx.phase(), TxPhase::AwaitAck);
    }

    #[test]
    fn flushed_resync_waits_out_the_retry_interval() {
        let mut core = MuxCore::new(true);
        let seq = core.tx.assign(0, TxPayload::Inline(vec![0]));
        core.tx.complete_failed(seq);
        let sent = Instant::now();
        core.tx.resync_sent();
        core.retry_at = sent + RESYNC_RETRY;
        // The resync itself flushed: the route to the new path is stale.
        core.tx.resync_failed();
        assert!(
            !core.resync_due(sent + Duration::from_millis(1)),
            "spun against the stale route"
        );
        assert_eq!(core.retry_wakeup(), Some(sent + RESYNC_RETRY));
        assert!(core.resync_due(sent + RESYNC_RETRY));
    }

    #[test]
    fn credits_return_only_when_bytes_leave_the_buffer() {
        let mut s = StreamState::new();
        assert!(!s.push_frame((0..100).collect()));
        assert!(!s.push_frame((100..150).collect()));
        let mut buf = [0u8; 100];
        assert_eq!(
            s.read_into(&mut buf[..99]),
            (99, 0),
            "frame not fully drained"
        );
        assert_eq!(s.read_into(&mut buf[99..]), (1, 1), "first frame drained");
        assert_eq!(buf.to_vec(), (0..100).collect::<Vec<u8>>());
        assert_eq!(s.read_into(&mut buf[..25]), (25, 0));
        assert_eq!(
            s.read_into(&mut buf[25..50]),
            (25, 1),
            "second frame drained across reads"
        );
        assert_eq!(buf[..50].to_vec(), (100..150).collect::<Vec<u8>>());
        assert!(s.rx.is_empty());
    }
}
