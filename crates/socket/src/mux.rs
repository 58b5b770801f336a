//! Stream multiplexing over one shared channel: stream-id framing,
//! per-stream credit accounting, and the fair drain of the channel's
//! shared completion queues.
//!
//! One [`crate::channel::Channel`] carries many streams. Every frame on
//! the wire names its stream, and flow control is *per stream*: a sender
//! holds [`STREAM_WINDOW`] credits per stream and a receiver returns
//! them only as the application actually consumes bytes — so one stalled
//! reader exhausts its own window and blocks only its own writer, never
//! the channel (no head-of-line blocking across streams). The channel's
//! QP delivers every frame exactly once and in order, across any rebind
//! of its path, so frames carry no sequence number of their own.
//!
//! [`MuxCore`] is the single-lock mutable state of a channel: stream
//! table, send-slot free list, held control frames and the tx gate. The
//! channel serializes all of it under one mutex; application
//! threads and the library pump, which runs the channel's step for rings
//! no waiter heard, drive progress through the methods here.

use freeflow_types::wire::{Reader, WireError, Writer};
use freeflow_types::{Error, Result};
use freeflow_verbs::WorkCompletion;
use std::collections::{HashMap, VecDeque};

/// Bytes per frame slot: a full data frame.
pub const FRAME_SIZE: usize = DATA_HDR + MAX_PAYLOAD;
/// Send slots per channel — the channel-wide in-flight data bound,
/// shared fairly by every stream (FIFO slot grants).
pub const SEND_SLOTS: usize = 64;
/// Pre-posted receive slots per channel. A slot is re-posted once its
/// frame is applied, or, if the frame holds it, read to its last byte.
pub const RECV_SLOTS: usize = 64;
/// Receive slots a channel's unread data frames may hold at once; past it
/// the step copies a frame out, so stalled streams never starve the RQ.
pub const HELD_SLOTS: usize = RECV_SLOTS / 2;
/// Per-stream credit window, in frames: a writer may have this many
/// unconsumed frames at the peer. 16 × 16 KiB = 256 KiB per stream,
/// matching the old per-stream-QP receive window.
pub const STREAM_WINDOW: usize = 16;
/// Data-frame header: tag + u32 stream id.
pub const DATA_HDR: usize = 1 + 4;
/// Payload bytes per data frame: a 64 KiB write is four full frames.
pub const MAX_PAYLOAD: usize = 16 * 1024;

/// The `wr_id` of a control frame's send; a data frame's is its send slot.
pub(crate) const CTRL_WR_ID: u64 = 1 << 63;

pub(crate) const TAG_DATA: u8 = 0;
pub(crate) const TAG_CREDIT: u8 = 1;
pub(crate) const TAG_FIN: u8 = 2;
pub(crate) const TAG_READY: u8 = 3;

/// Longest fixed-size frame, a credit: tag + stream + count.
const MAX_CTRL: usize = DATA_HDR + 4;

/// One frame on a channel's wire, in the [`freeflow_types::wire`] format.
/// Exported, undocumented, only for its hostile-input harness.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A data frame's header: `len` bytes of `stream`'s payload follow it.
    Data { stream: u32, len: usize },
    /// Return `n` credits to `stream`'s writer.
    Credit { stream: u32, n: u32 },
    /// Half-close of `stream`.
    Fin { stream: u32 },
    /// The connecting side's QP is RTS; the accepting side may start
    /// transmitting.
    Ready,
}

impl Frame {
    /// The frame's wire bytes; a data frame's are its [`DATA_HDR`]-byte
    /// header, which its `len` payload bytes follow.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MAX_CTRL);
        match self {
            Frame::Data { stream, .. } => out.put(&data_header(*stream)),
            Frame::Credit { stream, n } => out.u8(TAG_CREDIT).u32(*stream).u32(*n),
            Frame::Fin { stream } => out.u8(TAG_FIN).u32(*stream),
            Frame::Ready => out.u8(TAG_READY),
        };
        out
    }

    /// Decode a `len`-byte frame from its first bytes, which `read` copies
    /// into the buffer it is handed: headers only. A data frame's payload,
    /// what `len` leaves and at most a slot's worth, is never read here.
    pub fn decode(len: usize, read: impl FnOnce(&mut [u8])) -> Result<Self> {
        let mut head = [0u8; MAX_CTRL];
        let head = &mut head[..len.min(MAX_CTRL)];
        read(head);
        let r = &mut Reader::new(head);
        let frame = match r.u8()? {
            TAG_DATA => Frame::Data {
                stream: r.u32()?,
                len: len - DATA_HDR,
            },
            TAG_CREDIT => Frame::Credit {
                stream: r.u32()?,
                n: r.u32()?,
            },
            TAG_FIN => Frame::Fin { stream: r.u32()? },
            TAG_READY => Frame::Ready,
            tag => return Err(Error::parse(format!("bad mux frame tag {tag}"))),
        };
        match frame {
            Frame::Data { len: payload, .. } if payload <= MAX_PAYLOAD => Ok(frame),
            _ if r.pos() != len => Err(WireError::Trailing.into()),
            _ => Ok(frame),
        }
    }
}

/// A data frame's header, on the stack: the send path writes it and the
/// payload straight into a send slot, with no `Frame` in between.
pub(crate) fn data_header(stream: u32) -> [u8; DATA_HDR] {
    let mut hdr = [TAG_DATA; DATA_HDR];
    hdr[1..].copy_from_slice(&stream.to_le_bytes());
    hdr
}

/// Control traffic held while the tx gate is closed or the send queue
/// full; drained in order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Deferred {
    Credit { stream: u32, n: u32 },
    Fin { stream: u32 },
    Ready,
}

/// A received data frame's payload, queued on its stream until read.
#[derive(Debug)]
pub(crate) enum Rx {
    /// `len` bytes in receive slot `slot`, past the header.
    Held { slot: u64, len: usize },
    /// Copied out of its slot, which went back at once.
    Copied(Vec<u8>),
}

impl Rx {
    pub fn len(&self) -> usize {
        match self {
            Rx::Held { len, .. } => *len,
            Rx::Copied(bytes) => bytes.len(),
        }
    }
}

/// Per-stream mux state.
#[derive(Debug, Default)]
pub(crate) struct StreamState {
    /// Received, in-order data frames the application has not finished
    /// reading, oldest first — held in their receive slots, or copied out —
    /// so the queue is the buffer and the record of frame boundaries at
    /// once. A frame's credit returns when its last byte is read
    /// (receiver-window semantics). Never holds an empty frame.
    pub rx: VecDeque<Rx>,
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
}

impl StreamState {
    pub fn new() -> Self {
        Self {
            tx_credits: STREAM_WINDOW,
            ..Self::default()
        }
    }

    /// Queue an in-order data frame. An empty one (never held) has no byte
    /// to wait for: it is credited at once instead (returns `true`), so a
    /// blocked reader never wakes to an empty frame.
    pub fn push_frame(&mut self, frame: Rx) -> bool {
        if frame.len() == 0 {
            self.pending_credit += 1;
            return true;
        }
        self.rx.push_back(frame);
        false
    }

    /// Copy buffered bytes into `buf` across frame boundaries, one copy per
    /// frame touched: `read(slot, at, out)` fills `out` from a held frame's
    /// byte `at`, and `release(slot)` takes back each slot whose frame was
    /// read to its end. Returns the bytes copied and how many frames that
    /// drained (each one is a credit to return).
    pub fn read_into(
        &mut self,
        buf: &mut [u8],
        mut read: impl FnMut(u64, usize, &mut [u8]),
        mut release: impl FnMut(u64),
    ) -> (usize, u32) {
        let (mut n, mut drained) = (0, 0);
        while let Some(front) = self.rx.front() {
            let k = (front.len() - self.rx_read).min(buf.len() - n);
            if k == 0 {
                break;
            }
            match front {
                Rx::Held { slot, .. } => read(*slot, self.rx_read, &mut buf[n..n + k]),
                Rx::Copied(b) => buf[n..n + k].copy_from_slice(&b[self.rx_read..self.rx_read + k]),
            }
            n += k;
            self.rx_read += k;
            if self.rx_read == front.len() {
                if let Some(Rx::Held { slot, .. }) = self.rx.pop_front() {
                    release(slot);
                }
                self.rx_read = 0;
                drained += 1;
            }
        }
        (n, drained)
    }

    /// Drop every queued frame unread, handing each held slot to
    /// `release`; returns how many frames that was (a credit each).
    pub fn discard(&mut self, mut release: impl FnMut(u64)) -> u32 {
        let frames = self.rx.len() as u32;
        for frame in self.rx.drain(..) {
            if let Rx::Held { slot, .. } = frame {
                release(slot);
            }
        }
        self.rx_read = 0;
        frames
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
    /// Control traffic held back, oldest first.
    pub deferred: VecDeque<Deferred>,
    /// A post met a full send queue; the next send completion clears it.
    pub sq_full: bool,
    /// Accepting side: no transmission until the connecting side's QP
    /// proved itself (READY or any inbound frame).
    pub tx_open: bool,
    /// Receive slots data frames hold unread (at most [`HELD_SLOTS`]).
    pub held: usize,
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
            deferred: VecDeque::new(),
            sq_full: false,
            // The connecting side created the QP and connects it before
            // any peer traffic can exist; only the accepting side gates.
            tx_open: initiator,
            held: 0,
            dead: None,
            send_wcs: Vec::with_capacity(SEND_SLOTS),
        }
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

    /// Whether `stream` may post a data frame now: the tx gate is open, a
    /// send slot and queue room are free, and it holds a credit.
    pub fn can_send(&self, stream: u32) -> bool {
        self.tx_open
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

    fn decode(bytes: &[u8]) -> Result<Frame> {
        Frame::decode(bytes.len(), |head| {
            head.copy_from_slice(&bytes[..head.len()])
        })
    }

    #[test]
    fn frames_round_trip() {
        for frame in [
            Frame::Data { stream: 7, len: 0 },
            Frame::Credit { stream: 3, n: 8 },
            Frame::Fin { stream: 2 },
            Frame::Ready,
        ] {
            assert_eq!(decode(&frame.encode()).unwrap(), frame);
        }
        assert!(decode(&[9, 9]).is_err());
    }

    #[test]
    fn data_frames_carry_empty_and_full_payloads() {
        for len in [0, MAX_PAYLOAD] {
            let frame = Frame::Data { stream: 1, len };
            let mut wire = frame.encode();
            wire.resize(DATA_HDR + len, 0xA5);
            assert_eq!(
                wire.len() == FRAME_SIZE,
                len == MAX_PAYLOAD,
                "a full frame fills one slot"
            );
            assert_eq!(decode(&wire).unwrap(), frame);
            assert!(decode(&wire[..DATA_HDR - 1]).is_err());
            wire.resize(FRAME_SIZE + 1, 0xA5);
            assert!(decode(&wire).is_err(), "a frame longer than its slot");
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
    fn credits_return_only_when_bytes_leave_the_buffer() {
        // Frame one lies in slot 3 of `slots`; frame two was copied out.
        let slots: Vec<u8> = (0..=255).collect();
        let mut s = StreamState::new();
        assert!(!s.push_frame(Rx::Held { slot: 3, len: 100 }));
        assert!(!s.push_frame(Rx::Copied((100..150).collect())));
        let mut released = Vec::new();
        let mut read_into = |s: &mut StreamState, buf: &mut [u8]| {
            let read = |slot: u64, at: usize, out: &mut [u8]| {
                assert_eq!(slot, 3);
                out.copy_from_slice(&slots[at..at + out.len()]);
            };
            s.read_into(buf, read, |slot| released.push(slot))
        };
        let mut buf = [0u8; 100];
        assert_eq!(
            read_into(&mut s, &mut buf[..99]),
            (99, 0),
            "frame not fully drained"
        );
        assert_eq!(
            read_into(&mut s, &mut buf[99..]),
            (1, 1),
            "first frame drained"
        );
        assert_eq!(buf.to_vec(), (0..100).collect::<Vec<u8>>());
        assert_eq!(read_into(&mut s, &mut buf[..25]), (25, 0));
        assert_eq!(
            read_into(&mut s, &mut buf[25..50]),
            (25, 1),
            "second frame drained across reads"
        );
        assert_eq!(buf[..50].to_vec(), (100..150).collect::<Vec<u8>>());
        assert!(s.rx.is_empty());
        assert_eq!(
            released,
            [3],
            "the held slot goes back once, on its last byte"
        );
    }
}
