//! Framed, bidirectional shared-memory message channels.
//!
//! A channel is two [`SpscRing`]s (one per direction) plus doorbells for
//! data-available and space-available wakeups. Messages are either:
//!
//! * **inline** — bytes framed into the ring (one copy in, one copy out),
//!   right for small messages where copying beats coordination; or
//! * **handles** — an [`ArenaHandle`] descriptor (16 bytes) framed into the
//!   ring while the payload stays in a [`crate::arena::SharedArena`] — the zero-copy
//!   segment handoff the paper's Section 5 describes for intra-host RDMA
//!   `WRITE` (pass the pointer, not the data).
//!
//! Senders block (or return [`Error::WouldBlock`] in `try_` forms) when the
//! ring is full — backpressure, not unbounded buffering.

use crate::arena::ArenaHandle;
use crate::ring::SpscRing;
use crate::stats::{ChannelStats, StatsSnapshot};
use bytes::Bytes;
use freeflow_types::{deadline_in, Doorbell, DoorbellStats};
use freeflow_types::{Error, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frame kind tags on the wire.
const KIND_INLINE: u8 = 0;
const KIND_HANDLE: u8 = 1;

/// Frame header: 1-byte kind + 4-byte little-endian payload length.
const HDR: usize = 5;

/// Longest single park of a blocking call: bounded, so a peer that exits
/// without closing cannot hang it.
const PARK_SLICE: Duration = Duration::from_millis(50);

/// The one blocking loop: retry `attempt` while it reports
/// [`Error::WouldBlock`], parking on `bell` between tries on the count
/// captured before each. `Ok(None)` once `deadline` has passed.
fn block<T>(
    bell: &Doorbell,
    deadline: Option<Instant>,
    mut attempt: impl FnMut() -> Result<T>,
) -> Result<Option<T>> {
    loop {
        let seen = bell.current();
        match attempt() {
            Err(Error::WouldBlock) => {}
            other => return other.map(Some),
        }
        let left = deadline.map_or(PARK_SLICE, |at| {
            at.saturating_duration_since(Instant::now())
        });
        if left.is_zero() {
            return Ok(None);
        }
        let _ = bell.wait_timeout(seen, left.min(PARK_SLICE));
    }
}

/// A message received from a channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShmMessage {
    /// Payload bytes copied out of the ring.
    Inline(Bytes),
    /// Zero-copy descriptor of a block in the host's shared arena.
    /// The receiver owns the block and must free it after use.
    Handle(ArenaHandle),
}

impl ShmMessage {
    /// Payload length in bytes (data bytes, not descriptor size).
    pub fn len(&self) -> usize {
        match self {
            ShmMessage::Inline(b) => b.len(),
            ShmMessage::Handle(h) => h.len as usize,
        }
    }

    /// Whether the message carries zero payload bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct Shared {
    ring: SpscRing,
    /// Rung by the producer after a push. Shareable: a consumer that
    /// drains many rings hands every one of them the same bell
    /// ([`channel_pair_on`]) and parks on it once for all of them.
    data_bell: Arc<Doorbell>,
    /// Rung by the consumer after a pop (space freed).
    space_bell: Doorbell,
    tx_closed: AtomicBool,
    rx_closed: AtomicBool,
    stats: ChannelStats,
}

impl Shared {
    fn telemetry(&self) -> ChannelTelemetry {
        ChannelTelemetry {
            stats: self.stats.snapshot(),
            data_bell: self.data_bell.stats(),
            space_bell: self.space_bell.stats(),
        }
    }
}

/// A combined point-in-time copy of one channel's traffic counters and
/// both of its doorbells. The bell stats expose the blocking behaviour
/// that [`StatsSnapshot`] alone cannot show: `data_bell.waits` counts
/// receiver parks (consumer outran producer), `space_bell.waits` counts
/// sender parks (backpressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelTelemetry {
    /// Message/byte counters.
    pub stats: StatsSnapshot,
    /// The data-available doorbell (rung on push, awaited by the receiver).
    pub data_bell: DoorbellStats,
    /// The space-available doorbell (rung on pop, awaited by the sender).
    pub space_bell: DoorbellStats,
}

/// Sending half of a unidirectional channel.
pub struct ShmSender {
    shared: Arc<Shared>,
}

/// Receiving half of a unidirectional channel.
pub struct ShmReceiver {
    shared: Arc<Shared>,
}

/// Create a unidirectional channel whose ring holds `capacity` bytes
/// (power of two; includes per-message 5-byte framing overhead).
pub fn channel_pair(capacity: usize) -> (ShmSender, ShmReceiver) {
    channel_pair_on(capacity, Arc::new(Doorbell::new()))
}

/// Like [`channel_pair`], but the producer rings `data_bell` instead of a
/// bell private to this ring. One consumer thread serving many rings (the
/// host agent) shares a single bell across all of them and waits on that:
/// capture [`Doorbell::current`], drain every ring, then
/// [`Doorbell::wait_timeout`] on the captured count — a push to *any* ring
/// after the capture ends the wait, so no wakeup is lost across sources.
/// [`ChannelTelemetry::data_bell`] then reports the shared bell.
pub fn channel_pair_on(capacity: usize, data_bell: Arc<Doorbell>) -> (ShmSender, ShmReceiver) {
    let shared = Arc::new(Shared {
        ring: SpscRing::new(capacity),
        data_bell,
        space_bell: Doorbell::new(),
        tx_closed: AtomicBool::new(false),
        rx_closed: AtomicBool::new(false),
        stats: ChannelStats::new(),
    });
    (
        ShmSender {
            shared: Arc::clone(&shared),
        },
        ShmReceiver { shared },
    )
}

impl ShmSender {
    /// Maximum inline payload a single message can carry on this channel
    /// (the ring must fit header + payload at once).
    pub fn max_message_len(&self) -> usize {
        self.shared.ring.capacity() - HDR
    }

    fn frame_hdr(kind: u8, payload_len: usize) -> [u8; HDR] {
        let mut hdr = [0u8; HDR];
        hdr[0] = kind;
        hdr[1..5].copy_from_slice(&(payload_len as u32).to_le_bytes());
        hdr
    }

    /// Frame `payload` straight out of the caller's buffer: the header
    /// lives on the stack and the payload is copied into the ring in
    /// place — no intermediate frame allocation.
    fn push_frame(&self, kind: u8, payload: &[u8], data_len: usize) -> Result<()> {
        if self.shared.rx_closed.load(Ordering::Acquire) {
            return Err(Error::disconnected("receiver dropped"));
        }
        // The consumer only ever *adds* free space, so a frame that fits
        // now still fits at the push below.
        if HDR + payload.len() > self.shared.ring.free() {
            return Err(Error::WouldBlock);
        }
        // Count the send before the frame is visible: a receiver that pops
        // it must never see more messages received than sent.
        self.shared.stats.record_send(data_len as u64);
        let hdr = Self::frame_hdr(kind, payload.len());
        let pushed = self.shared.ring.push_vectored(&[&hdr, payload]);
        debug_assert!(pushed, "reserved space vanished from an SPSC ring");
        self.shared.data_bell.ring();
        Ok(())
    }

    /// Non-blocking send of an inline message.
    pub fn try_send(&self, payload: &[u8]) -> Result<()> {
        if payload.len() > self.max_message_len() {
            return Err(Error::too_large(format!(
                "message of {} bytes exceeds channel max {}",
                payload.len(),
                self.max_message_len()
            )));
        }
        self.push_frame(KIND_INLINE, payload, payload.len())
    }

    /// Non-blocking send of several inline messages with one doorbell ring.
    ///
    /// Pushes the longest prefix of `payloads` that fits in the ring right
    /// now — each message individually framed, the whole prefix published
    /// atomically — and rings the data doorbell once for all of them
    /// ([`Doorbell::ring_coalesced`]). Returns how many messages were sent.
    /// A single-element batch behaves exactly like [`ShmSender::try_send`]:
    /// batching never delays a lone message.
    ///
    /// Errors: [`Error::WouldBlock`] if not even the first message fits,
    /// [`Error::TooLarge`] if any message exceeds the channel maximum (the
    /// batch is rejected whole so a later caller cannot see a reordered
    /// stream), [`Error::Disconnected`] if the receiver is gone.
    pub fn try_send_batch(&self, payloads: &[&[u8]]) -> Result<usize> {
        if payloads.is_empty() {
            return Ok(0);
        }
        if self.shared.rx_closed.load(Ordering::Acquire) {
            return Err(Error::disconnected("receiver dropped"));
        }
        let max = self.max_message_len();
        if let Some(p) = payloads.iter().find(|p| p.len() > max) {
            return Err(Error::too_large(format!(
                "batched message of {} bytes exceeds channel max {max}",
                p.len(),
            )));
        }
        // Take the longest prefix that fits in the space free right now.
        // The consumer only ever *adds* free space, so the vectored push
        // below cannot fail.
        let free = self.shared.ring.free();
        let mut take = 0usize;
        let mut need = 0usize;
        for p in payloads {
            if need + HDR + p.len() > free {
                break;
            }
            need += HDR + p.len();
            take += 1;
        }
        if take == 0 {
            return Err(Error::WouldBlock);
        }
        let hdrs: Vec<[u8; HDR]> = payloads[..take]
            .iter()
            .map(|p| Self::frame_hdr(KIND_INLINE, p.len()))
            .collect();
        let mut parts: Vec<&[u8]> = Vec::with_capacity(take * 2);
        for (hdr, payload) in hdrs.iter().zip(&payloads[..take]) {
            parts.push(&hdr[..]);
            parts.push(payload);
        }
        // Counted before the frames are visible, as in `push_frame`.
        for p in &payloads[..take] {
            self.shared.stats.record_send(p.len() as u64);
        }
        let pushed = self.shared.ring.push_vectored(&parts);
        debug_assert!(pushed, "reserved space vanished from an SPSC ring");
        self.shared.data_bell.ring_coalesced(take as u64);
        Ok(take)
    }

    /// Blocking send of several inline messages, coalescing doorbells.
    /// Delivers all of `payloads` in order, waiting for ring space as
    /// needed (backpressure splits the batch, never reorders it).
    pub fn send_batch(&self, payloads: &[&[u8]]) -> Result<()> {
        let mut sent = 0usize;
        while sent < payloads.len() {
            let n = block(&self.shared.space_bell, None, || {
                self.try_send_batch(&payloads[sent..])
            })?;
            sent += n.unwrap_or(0);
        }
        Ok(())
    }

    /// Blocking send of an inline message; waits for ring space.
    pub fn send(&self, payload: &[u8]) -> Result<()> {
        block(&self.shared.space_bell, None, || self.try_send(payload)).map(drop)
    }

    /// Non-blocking send of a zero-copy arena handle. Ownership of the
    /// block transfers to the receiver.
    pub fn try_send_handle(&self, handle: ArenaHandle) -> Result<()> {
        let mut payload = [0u8; 16];
        payload[..8].copy_from_slice(&handle.offset.to_le_bytes());
        payload[8..].copy_from_slice(&handle.len.to_le_bytes());
        self.push_frame(KIND_HANDLE, &payload, handle.len as usize)
    }

    /// Blocking send of a zero-copy arena handle.
    pub fn send_handle(&self, handle: ArenaHandle) -> Result<()> {
        block(&self.shared.space_bell, None, || {
            self.try_send_handle(handle)
        })
        .map(drop)
    }

    /// Channel statistics (shared with the receiver side).
    pub fn stats(&self) -> &ChannelStats {
        &self.shared.stats
    }

    /// Combined traffic + doorbell snapshot (shared with the receiver side).
    pub fn telemetry(&self) -> ChannelTelemetry {
        self.shared.telemetry()
    }
}

impl Drop for ShmSender {
    fn drop(&mut self) {
        self.shared.tx_closed.store(true, Ordering::Release);
        self.shared.data_bell.ring(); // wake a blocked receiver
    }
}

impl ShmReceiver {
    /// Non-blocking receive.
    ///
    /// Returns [`Error::WouldBlock`] when the ring is empty but the sender
    /// is alive, [`Error::Disconnected`] when empty and the sender is gone.
    pub fn try_recv(&self) -> Result<ShmMessage> {
        let msg = self.take_frame()?;
        self.shared.space_bell.ring();
        Ok(msg)
    }

    /// Pop and decode one frame without ringing the space doorbell (the
    /// caller rings once per pop — or once per batch). The header lands on
    /// the stack and the payload straight in its own buffer: one copy.
    fn take_frame(&self) -> Result<ShmMessage> {
        let mut hdr = [0u8; HDR];
        if !self.shared.ring.pop_exact(&mut hdr) {
            return if self.shared.tx_closed.load(Ordering::Acquire) && self.shared.ring.is_empty() {
                Err(Error::disconnected("sender dropped"))
            } else {
                Err(Error::WouldBlock)
            };
        }
        let kind = hdr[0];
        let len = u32::from_le_bytes(hdr[1..5].try_into().expect("4 bytes")) as usize;
        let mut payload = vec![0u8; len];
        if !self.shared.ring.pop_exact(&mut payload) {
            // Producer pushes frames atomically, so a visible header implies
            // the full frame is visible.
            unreachable!("partial frame in ring");
        }
        match kind {
            KIND_INLINE => {
                self.shared.stats.record_recv(len as u64);
                Ok(ShmMessage::Inline(Bytes::from(payload)))
            }
            KIND_HANDLE => {
                let offset = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
                let blen = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
                self.shared.stats.record_recv(blen);
                Ok(ShmMessage::Handle(ArenaHandle { offset, len: blen }))
            }
            other => Err(Error::invalid_state(format!("corrupt frame kind {other}"))),
        }
    }

    /// Non-blocking receive of up to `max` messages, appended to `out`,
    /// with a single coalesced space-doorbell ring for the whole drain.
    ///
    /// Returns how many messages were appended. Like [`ShmReceiver::try_recv`],
    /// an empty ring yields [`Error::WouldBlock`] (sender alive) or
    /// [`Error::Disconnected`] (sender gone and drained); if any frames
    /// were taken before the ring emptied, they are returned instead.
    pub fn try_recv_many(&self, max: usize, out: &mut Vec<ShmMessage>) -> Result<usize> {
        let mut got = 0usize;
        let mut stopped = None;
        while got < max {
            match self.take_frame() {
                Ok(msg) => {
                    out.push(msg);
                    got += 1;
                }
                Err(e) => {
                    stopped = Some(e);
                    break;
                }
            }
        }
        self.shared.space_bell.ring_coalesced(got as u64);
        match stopped {
            None => Ok(got),
            // Emptying the ring mid-batch is success if anything was taken;
            // a decode error (corrupt frame) must surface even then — the
            // messages already appended to `out` remain valid.
            Some(Error::WouldBlock) | Some(Error::Disconnected(_)) if got > 0 => Ok(got),
            Some(e) => Err(e),
        }
    }

    /// Blocking receive; waits for a message or sender close.
    pub fn recv(&self) -> Result<ShmMessage> {
        let msg = block(&self.shared.data_bell, None, || self.try_recv())?;
        Ok(msg.expect("a wait without a deadline ends only on a message"))
    }

    /// Blocking receive with a deadline; `None` on timeout. A timeout too
    /// long to be an instant waits without one.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<ShmMessage>> {
        block(&self.shared.data_bell, deadline_in(timeout), || {
            self.try_recv()
        })
    }

    /// Busy-poll receive: spin (kernel-bypass style) until a message lands
    /// or the sender closes. Lowest latency, one core at 100% — the DPDK
    /// trade-off, measurable in the benches.
    pub fn poll_recv(&self) -> Result<ShmMessage> {
        loop {
            match self.try_recv() {
                Err(Error::WouldBlock) => std::hint::spin_loop(),
                other => return other,
            }
        }
    }

    /// Channel statistics (shared with the sender side).
    pub fn stats(&self) -> &ChannelStats {
        &self.shared.stats
    }

    /// Combined traffic + doorbell snapshot (shared with the sender side).
    pub fn telemetry(&self) -> ChannelTelemetry {
        self.shared.telemetry()
    }

    /// The data-available bell: rung by every push and by the sender's
    /// drop. A consumer driven by a [`crate::Pump`] parks on it.
    pub fn data_bell(&self) -> &Arc<Doorbell> {
        &self.shared.data_bell
    }
}

impl Drop for ShmReceiver {
    fn drop(&mut self) {
        self.shared.rx_closed.store(true, Ordering::Release);
        self.shared.space_bell.ring(); // wake a blocked sender
    }
}

/// One end of a bidirectional channel: a sender to the peer plus a receiver
/// from the peer.
pub struct ShmDuplex {
    /// Outgoing direction.
    pub tx: ShmSender,
    /// Incoming direction.
    pub rx: ShmReceiver,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_roundtrip() {
        let (tx, rx) = channel_pair(1024);
        tx.send(b"hello freeflow").unwrap();
        match rx.recv().unwrap() {
            ShmMessage::Inline(b) => assert_eq!(&b[..], b"hello freeflow"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_message_roundtrip() {
        let (tx, rx) = channel_pair(64);
        tx.send(b"").unwrap();
        let msg = rx.recv().unwrap();
        assert!(msg.is_empty());
    }

    #[test]
    fn handle_roundtrip_preserves_descriptor() {
        let (tx, rx) = channel_pair(1024);
        let h = ArenaHandle {
            offset: 4096,
            len: 64,
        };
        tx.send_handle(h).unwrap();
        assert_eq!(rx.recv().unwrap(), ShmMessage::Handle(h));
    }

    #[test]
    fn frames_straddling_the_ring_wrap_arrive_intact() {
        // Frames of 5 + len bytes for len = 0..=59 walk a 64-byte ring's
        // wrap point through the header and through the payload.
        const CAP: usize = 64;
        let (tx, rx) = channel_pair(CAP);
        let (mut at, mut split_hdr, mut split_payload) = (0usize, 0, 0);
        for len in 0..=CAP - HDR {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let pos = at % CAP;
            if pos + HDR > CAP {
                split_hdr += 1;
            } else if len > 0 && pos + HDR < CAP && pos + HDR + len > CAP {
                split_payload += 1;
            }
            at += HDR + len;
            tx.try_send(&payload).unwrap();
            match rx.try_recv().unwrap() {
                ShmMessage::Inline(b) => assert_eq!(&b[..], &payload[..], "len {len}"),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(
            split_hdr > 0 && split_payload > 0,
            "{split_hdr} / {split_payload}"
        );
    }

    #[test]
    fn try_recv_would_block_when_empty() {
        let (_tx, rx) = channel_pair(64);
        assert_eq!(rx.try_recv().unwrap_err(), Error::WouldBlock);
    }

    #[test]
    fn try_send_would_block_when_full() {
        let (tx, _rx) = channel_pair(64);
        // Fill: each message takes HDR+16 bytes.
        while tx.try_send(&[0u8; 16]).is_ok() {}
        assert_eq!(tx.try_send(&[0u8; 16]).unwrap_err(), Error::WouldBlock);
    }

    #[test]
    fn oversized_message_rejected() {
        let (tx, _rx) = channel_pair(64);
        let err = tx.try_send(&[0u8; 64]).unwrap_err();
        assert!(matches!(err, Error::TooLarge(_)), "{err}");
    }

    #[test]
    fn sender_drop_disconnects_after_drain() {
        let (tx, rx) = channel_pair(1024);
        tx.send(b"last words").unwrap();
        drop(tx);
        // Queued message still delivered...
        assert!(matches!(rx.recv().unwrap(), ShmMessage::Inline(_)));
        // ...then disconnect.
        assert!(matches!(rx.recv(), Err(Error::Disconnected(_))));
    }

    #[test]
    fn receiver_drop_fails_sender() {
        let (tx, rx) = channel_pair(1024);
        drop(rx);
        assert!(matches!(tx.send(b"x"), Err(Error::Disconnected(_))));
    }

    #[test]
    fn recv_timeout_expires() {
        let (_tx, rx) = channel_pair(64);
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)).unwrap(), None);
    }

    #[test]
    fn recv_timeout_given_duration_max_waits_without_a_deadline() {
        let (tx, rx) = channel_pair(64);
        tx.send(b"ready").unwrap();
        let got = rx.recv_timeout(Duration::MAX).unwrap();
        assert!(matches!(got, Some(ShmMessage::Inline(b)) if &b[..] == b"ready"));
        let sender = std::thread::spawn(move || {
            tx.send(b"later").unwrap();
            tx
        });
        assert!(rx.recv_timeout(Duration::MAX).unwrap().is_some());
        sender.join().unwrap();
    }

    #[test]
    fn duplex_ping_pong() {
        let (a_tx, b_rx) = channel_pair(1024);
        let (b_tx, a_rx) = channel_pair(1024);
        let (a, b) = (
            ShmDuplex { tx: a_tx, rx: a_rx },
            ShmDuplex { tx: b_tx, rx: b_rx },
        );
        let echo = std::thread::spawn(move || {
            for _ in 0..100 {
                let msg = b.rx.recv().unwrap();
                if let ShmMessage::Inline(bytes) = msg {
                    b.tx.send(&bytes).unwrap();
                }
            }
        });
        for i in 0..100u32 {
            a.tx.send(&i.to_le_bytes()).unwrap();
            match a.rx.recv().unwrap() {
                ShmMessage::Inline(bytes) => {
                    assert_eq!(u32::from_le_bytes(bytes[..].try_into().unwrap()), i)
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        echo.join().unwrap();
    }

    #[test]
    fn blocking_send_applies_backpressure_then_completes() {
        let (tx, rx) = channel_pair(256);
        let producer = std::thread::spawn(move || {
            for i in 0..500u32 {
                tx.send(&i.to_le_bytes()).unwrap();
            }
        });
        let mut expected = 0u32;
        while expected < 500 {
            if let Ok(ShmMessage::Inline(b)) = rx.recv() {
                assert_eq!(u32::from_le_bytes(b[..].try_into().unwrap()), expected);
                expected += 1;
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let (tx, rx) = channel_pair(1024);
        tx.send(&[0u8; 100]).unwrap();
        tx.send(&[0u8; 50]).unwrap();
        rx.recv().unwrap();
        rx.recv().unwrap();
        let snap = tx.stats().snapshot();
        assert_eq!(snap.msgs_sent, 2);
        assert_eq!(snap.bytes_sent, 150);
        assert_eq!(snap.msgs_received, 2);
        assert_eq!(snap.bytes_received, 150);
    }

    #[test]
    fn telemetry_exposes_blocking_behaviour() {
        let (tx, rx) = channel_pair(64);
        // Backpressure: fill the ring, then block the sender until the
        // receiver drains one message.
        while tx.try_send(&[0u8; 16]).is_ok() {}
        let sender = std::thread::spawn(move || {
            tx.send(&[0u8; 16]).unwrap();
            tx
        });
        while rx.telemetry().space_bell.waits == 0 {
            std::thread::yield_now();
        }
        rx.recv().unwrap();
        let tx = sender.join().unwrap();
        let t = tx.telemetry();
        assert!(t.space_bell.waits >= 1, "sender park must be visible");

        // Receiver-side blocking: drain everything, then a recv_timeout on
        // the idle channel parks on the data bell and times out.
        while rx.try_recv().is_ok() {}
        assert_eq!(rx.recv_timeout(Duration::from_millis(200)).unwrap(), None);
        let t = rx.telemetry();
        assert!(t.data_bell.waits >= 1);
        assert!(t.data_bell.timeouts >= 1);
    }

    #[test]
    fn stats_snapshots_consistent_under_concurrent_traffic() {
        let (tx, rx) = channel_pair(1024);
        const MSGS: u64 = 20_000;
        let producer = std::thread::spawn(move || {
            for _ in 0..MSGS {
                tx.send(&[7u8; 32]).unwrap();
            }
            tx
        });
        let consumer = std::thread::spawn(move || {
            for _ in 0..MSGS {
                rx.recv().unwrap();
            }
            rx
        });
        let tx = producer.join().unwrap();
        let rx = consumer.join().unwrap();
        let (ts, rs) = (tx.telemetry(), rx.telemetry());
        // Both halves read the same shared counters.
        assert_eq!(ts, rs);
        assert_eq!(ts.stats.msgs_sent, MSGS);
        assert_eq!(ts.stats.msgs_received, MSGS);
        assert_eq!(ts.stats.bytes_sent, MSGS * 32);
        assert_eq!(ts.stats.in_flight(), 0);
        // Every park must have resolved as a wake or a timeout.
        for bell in [ts.data_bell, ts.space_bell] {
            assert_eq!(bell.waits, bell.wakes + bell.timeouts);
        }
        assert!(ts.data_bell.rings >= MSGS);
    }

    #[test]
    fn stats_snapshots_are_monotone_while_hammered() {
        let (tx, rx) = channel_pair(512);
        let producer = std::thread::spawn(move || {
            for _ in 0..5_000u32 {
                tx.send(&[1u8; 16]).unwrap();
            }
        });
        let mut prev = StatsSnapshot::default();
        let mut received = 0u32;
        while received < 5_000 {
            if rx.recv().is_ok() {
                received += 1;
            }
            let cur = rx.stats().snapshot();
            assert!(cur.msgs_sent >= prev.msgs_sent);
            assert!(cur.bytes_sent >= prev.bytes_sent);
            assert!(cur.msgs_received >= prev.msgs_received);
            assert!(cur.msgs_sent >= cur.msgs_received);
            prev = cur;
        }
        producer.join().unwrap();
    }

    #[test]
    fn batch_send_recv_roundtrip_with_one_doorbell_per_side() {
        let (tx, rx) = channel_pair(1024);
        let msgs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 10 + i as usize]).collect();
        let parts: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        assert_eq!(tx.try_send_batch(&parts).unwrap(), 8);
        let t = tx.telemetry();
        assert_eq!(t.data_bell.rings, 1, "one physical ring for the batch");
        assert_eq!(t.data_bell.coalesced, 7);

        let mut out = Vec::new();
        assert_eq!(rx.try_recv_many(64, &mut out).unwrap(), 8);
        for (i, m) in out.iter().enumerate() {
            match m {
                ShmMessage::Inline(b) => assert_eq!(&b[..], &msgs[i][..]),
                other => panic!("unexpected {other:?}"),
            }
        }
        let t = rx.telemetry();
        assert_eq!(t.space_bell.rings, 1, "one space ring for the drain");
        assert_eq!(t.space_bell.coalesced, 7);
        assert!(matches!(
            rx.try_recv_many(4, &mut out),
            Err(Error::WouldBlock)
        ));
    }

    #[test]
    fn lone_message_batch_is_a_plain_send() {
        let (tx, rx) = channel_pair(256);
        assert_eq!(tx.try_send_batch(&[b"solo"]).unwrap(), 1);
        let t = tx.telemetry();
        assert_eq!((t.data_bell.rings, t.data_bell.coalesced), (1, 0));
        match rx.recv().unwrap() {
            ShmMessage::Inline(b) => assert_eq!(&b[..], b"solo"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_send_takes_prefix_under_backpressure() {
        let (tx, rx) = channel_pair(64);
        // Each 16-byte message occupies 21 ring bytes: at most 3 fit.
        let m = [7u8; 16];
        let sent = tx.try_send_batch(&[&m, &m, &m, &m, &m]).unwrap();
        assert_eq!(sent, 3, "prefix that fits, in order");
        assert!(matches!(
            tx.try_send_batch(&[&m]).unwrap_err(),
            Error::WouldBlock
        ));
        let mut out = Vec::new();
        assert_eq!(rx.try_recv_many(64, &mut out).unwrap(), 3);
        // Space freed: the remainder goes through.
        assert_eq!(tx.try_send_batch(&[&m, &m]).unwrap(), 2);
    }

    #[test]
    fn oversized_batch_element_rejected_whole() {
        let (tx, rx) = channel_pair(64);
        let big = [0u8; 64];
        assert!(matches!(
            tx.try_send_batch(&[b"ok", &big]).unwrap_err(),
            Error::TooLarge(_)
        ));
        assert!(
            matches!(rx.try_recv(), Err(Error::WouldBlock)),
            "nothing sent"
        );
    }

    #[test]
    fn blocking_send_batch_delivers_everything_in_order() {
        let (tx, rx) = channel_pair(256);
        const MSGS: u32 = 2_000;
        let producer = std::thread::spawn(move || {
            let payloads: Vec<[u8; 4]> = (0..MSGS).map(|i| i.to_le_bytes()).collect();
            for chunk in payloads.chunks(32) {
                let parts: Vec<&[u8]> = chunk.iter().map(|p| &p[..]).collect();
                tx.send_batch(&parts).unwrap();
            }
            tx
        });
        let mut expected = 0u32;
        let mut out = Vec::new();
        while expected < MSGS {
            out.clear();
            match rx.try_recv_many(64, &mut out) {
                Ok(_) => {}
                Err(Error::WouldBlock) => continue,
                Err(e) => panic!("{e}"),
            }
            for m in &out {
                match m {
                    ShmMessage::Inline(b) => {
                        assert_eq!(u32::from_le_bytes(b[..].try_into().unwrap()), expected);
                        expected += 1;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        let tx = producer.join().unwrap();
        let t = tx.telemetry();
        assert_eq!(t.stats.msgs_sent, MSGS as u64);
        assert_eq!(t.stats.msgs_received, MSGS as u64);
        assert!(
            t.data_bell.rings + t.data_bell.coalesced >= MSGS as u64,
            "accounting covers every message"
        );
        assert!(
            t.data_bell.coalesced > 0,
            "batching must actually coalesce doorbells"
        );
    }

    #[test]
    fn recv_many_reports_disconnect_after_drain() {
        let (tx, rx) = channel_pair(256);
        tx.try_send_batch(&[b"a", b"b"]).unwrap();
        drop(tx);
        let mut out = Vec::new();
        assert_eq!(rx.try_recv_many(8, &mut out).unwrap(), 2);
        assert!(matches!(
            rx.try_recv_many(8, &mut out),
            Err(Error::Disconnected(_))
        ));
    }

    #[test]
    fn shared_bell_loses_no_wakeup_across_sources() {
        // Four producers on four rings ring one bell; one consumer drains
        // all four and parks on that bell when it finds nothing. A push to
        // any ring after the consumer's capture must end its wait, so no
        // park may ever run into the timeout.
        const PRODUCERS: usize = 4;
        const MSGS: u32 = 10_000;
        let bell = Arc::new(Doorbell::new());
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..PRODUCERS)
            .map(|_| channel_pair_on(4096, Arc::clone(&bell)))
            .unzip();
        let producers: Vec<_> = txs
            .into_iter()
            .map(|tx| {
                std::thread::spawn(move || {
                    for i in 0..MSGS {
                        tx.send(&i.to_le_bytes()).unwrap();
                    }
                    tx
                })
            })
            .collect();
        let mut next = [0u32; PRODUCERS];
        while next.iter().any(|&n| n < MSGS) {
            let seen = bell.current();
            let mut found = false;
            for (rx, next) in rxs.iter().zip(&mut next) {
                while let Ok(ShmMessage::Inline(b)) = rx.try_recv() {
                    assert_eq!(u32::from_le_bytes(b[..].try_into().unwrap()), *next);
                    *next += 1;
                    found = true;
                }
            }
            if !found {
                let woke = bell.wait_timeout(seen, Duration::from_secs(5));
                assert!(
                    woke.is_some(),
                    "lost wakeup: parked 5 s with {next:?} drained"
                );
            }
        }
        // Senders stay alive until here so their drop-rings cannot stand
        // in for a lost data ring.
        let txs: Vec<_> = producers.into_iter().map(|p| p.join().unwrap()).collect();
        let stats = bell.stats();
        assert_eq!(stats.timeouts, 0);
        assert_eq!(stats.waits, stats.wakes);
        assert_eq!(
            txs[0].telemetry().data_bell,
            stats,
            "every ring reports the shared bell"
        );
    }

    #[test]
    fn poll_recv_gets_message() {
        let (tx, rx) = channel_pair(256);
        let t = std::thread::spawn(move || tx.send(b"polled").unwrap());
        match rx.poll_recv().unwrap() {
            ShmMessage::Inline(b) => assert_eq!(&b[..], b"polled"),
            other => panic!("unexpected {other:?}"),
        }
        t.join().unwrap();
    }
}
