//! Transport-aware reliability: the sequence ledgers and the resync
//! protocol that carry a multiplexed channel across a rebind epoch.
//!
//! Pure bookkeeping — no I/O, no locks, no clocks — so the recovery
//! protocol is directly property-testable (see `tests/properties.rs`).
//! The [`crate::channel`] layer owns the wire and drives these ledgers
//! from completions.
//!
//! ## The conditional contract
//!
//! Every sequenced frame carries a channel-level sequence number, but on
//! a *settled* path (the QP's [`PathSignal`] reports `Bound`) the ledgers
//! do no reliability work beyond what slot recycling needs anyway:
//! frames complete in order, [`TxLedger::complete_ok`] pops them, the
//! receive side sees exactly `next` and never parks or drops. Zero
//! retransmissions, zero reorders, zero recovery state — provably, via
//! the counters the channel exports.
//!
//! The machinery arms only when a send completes with `RETRY_EXC_ERR`:
//! the binding failed mid-flight, and for every in-flight frame the
//! outcome is now ambiguous (delivered before the cut, or flushed). The
//! sender cannot guess — only the receiver knows — so recovery is a
//! *resync handshake*:
//!
//! 1. TX marks every flushed frame and enters `ResyncDue`. New sequenced
//!    traffic holds.
//! 2. Once the QP has settled on its new path *and every in-flight
//!    send has been reaped* — a flush completion still sitting in the CQ,
//!    or a frame posted on the new path before the first flush was seen,
//!    would otherwise be retransmitted while its own completion is
//!    pending — TX sends `RESYNC(sent)` (unsequenced) and enters
//!    `AwaitAck`.
//! 3. RX answers `RESYNC_ACK(received)` with its in-order high-water
//!    mark. The ack is idempotent; a lost ack is re-requested.
//! 4. TX confirms everything below `received` (delivered — the ack is
//!    the acknowledgment the flushed completion never was) and
//!    retransmits `received..sent` *in sequence order*, then returns to
//!    `Passive` and releases held traffic.
//!
//! RX-side, duplicates (seq < expected) are dropped and stragglers
//! (seq > expected) park in a reorder window — both can only occur in
//! the shadow of a rebind, because RC order holds within an epoch.

use std::collections::BTreeMap;

/// What a sequenced frame's payload is, from the ledger's point of view:
/// either a send-slot in the channel MR (data frames — the bytes stay in
/// the slot until confirmed, so retransmission re-posts the identical
/// frame) or an owned inline control frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxPayload {
    /// MR-backed data frame: slot index and full frame length.
    Slot {
        /// Send-slot index in the channel's send MR.
        slot: u32,
        /// Total frame length (header + payload), bytes.
        len: u32,
    },
    /// Inline control frame (credit / FIN), bytes as posted.
    Inline(Vec<u8>),
}

/// One in-flight sequenced frame.
#[derive(Debug, Clone)]
pub struct TxEntry {
    /// The stream the frame belongs to (retransmit attribution).
    pub stream: u32,
    /// The frame payload.
    pub payload: TxPayload,
    /// Set when the frame's send completed `RETRY_EXC_ERR`: outcome
    /// unknown until the next resync ack.
    pub flushed: bool,
}

/// Send-side recovery phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxPhase {
    /// Settled operation: no recovery state, zero per-frame overhead.
    Passive,
    /// At least one frame flushed; a resync must be sent once the
    /// binding settles.
    ResyncDue,
    /// Resync sent; waiting for the receiver's high-water mark.
    AwaitAck,
}

/// The outcome of applying a resync ack: frames the ack confirmed
/// delivered (their slots free), and the sequences to retransmit in
/// order.
#[derive(Debug, Default)]
pub struct AckOutcome {
    /// Entries confirmed delivered by the ack (removed from the ledger).
    pub confirmed: Vec<TxEntry>,
    /// Sequences that must be retransmitted, ascending. The entries stay
    /// in the ledger (still in flight); read them via [`TxLedger::entry`].
    pub retransmit: Vec<u64>,
}

/// The send-side sequence ledger of one channel direction.
#[derive(Debug)]
pub struct TxLedger {
    next_seq: u64,
    inflight: BTreeMap<u64, TxEntry>,
    phase: TxPhase,
}

impl Default for TxLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl TxLedger {
    /// An empty ledger in `Passive`.
    pub fn new() -> Self {
        Self {
            next_seq: 0,
            inflight: BTreeMap::new(),
            phase: TxPhase::Passive,
        }
    }

    /// Next sequence number to be assigned (== frames ever assigned).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Frames posted and not yet confirmed.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Current recovery phase.
    pub fn phase(&self) -> TxPhase {
        self.phase
    }

    /// Whether recovery is in progress (new sequenced traffic must hold:
    /// a frame posted now would land *ahead* of the retransmissions in
    /// the peer's sequence space).
    pub fn recovering(&self) -> bool {
        self.phase != TxPhase::Passive
    }

    /// Assign the next sequence to `payload`. Callers must not assign
    /// while [`TxLedger::recovering`] — the channel gates that.
    pub fn assign(&mut self, stream: u32, payload: TxPayload) -> u64 {
        debug_assert!(!self.recovering(), "no new sequenced frames mid-recovery");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inflight.insert(
            seq,
            TxEntry {
                stream,
                payload,
                flushed: false,
            },
        );
        seq
    }

    /// A send completed successfully: the frame is delivered, pop it.
    pub fn complete_ok(&mut self, seq: u64) -> Option<TxEntry> {
        self.inflight.remove(&seq)
    }

    /// A send completed `RETRY_EXC_ERR`: outcome ambiguous, arm recovery.
    /// Returns false for an unknown seq (already confirmed — a stale
    /// completion).
    pub fn complete_failed(&mut self, seq: u64) -> bool {
        match self.inflight.get_mut(&seq) {
            Some(e) => {
                e.flushed = true;
                // From AwaitAck this means the retransmissions (or the
                // path under them) failed again: a fresh resync is due.
                self.phase = TxPhase::ResyncDue;
                true
            }
            None => false,
        }
    }

    /// Whether a due resync may be posted: every in-flight frame's send
    /// has been reaped as flushed. An unflushed frame still owes a
    /// completion — success pops it, failure flushes it — and the
    /// retransmit set is only well defined once none is outstanding.
    pub fn resync_ready(&self) -> bool {
        self.phase == TxPhase::ResyncDue && self.inflight.values().all(|e| e.flushed)
    }

    /// The resync request was posted: record the watermark it carried
    /// and await the ack. Returns the watermark (`sent`).
    pub fn resync_sent(&mut self) -> u64 {
        debug_assert!(self.resync_ready());
        self.phase = TxPhase::AwaitAck;
        self.next_seq
    }

    /// The resync request itself was flushed (the new path died too):
    /// go back to `ResyncDue` and try again after the next settle.
    pub fn resync_failed(&mut self) {
        if self.phase == TxPhase::AwaitAck {
            self.phase = TxPhase::ResyncDue;
        }
    }

    /// Apply the receiver's high-water mark. Everything below `received`
    /// is confirmed delivered; everything at or above it retransmits in
    /// sequence order. Acks are only acted on in `AwaitAck` — a stale ack
    /// in `ResyncDue` still confirms the delivered prefix (safe: the
    /// receiver's mark is monotone) but retransmission waits for the
    /// fresh handshake.
    pub fn on_ack(&mut self, received: u64) -> AckOutcome {
        let mut out = AckOutcome::default();
        let confirmed: Vec<u64> = self.inflight.range(..received).map(|(&s, _)| s).collect();
        for seq in confirmed {
            if let Some(e) = self.inflight.remove(&seq) {
                out.confirmed.push(e);
            }
        }
        if self.phase == TxPhase::AwaitAck {
            for (&seq, e) in self.inflight.range_mut(received..) {
                debug_assert!(e.flushed, "unflushed frame above the ack mark mid-recovery");
                e.flushed = false;
                out.retransmit.push(seq);
            }
            self.phase = TxPhase::Passive;
        }
        out
    }

    /// Look up an in-flight entry (retransmission reads payloads here).
    pub fn entry(&self, seq: u64) -> Option<&TxEntry> {
        self.inflight.get(&seq)
    }
}

/// What [`RxLedger::accept`] did with a frame.
#[derive(Debug)]
pub struct RxAccept<T> {
    /// Frames now deliverable in sequence order (empty if the frame was
    /// a duplicate or parked).
    pub deliver: Vec<T>,
    /// The frame was a duplicate of one already delivered (dropped).
    pub duplicate: bool,
    /// The frame arrived ahead of the expected sequence and was parked.
    pub parked: bool,
}

/// The receive-side sequence ledger of one channel direction.
///
/// Generic over the frame type so the property tests can model frames as
/// plain values; the channel instantiates it with decoded mux frames.
#[derive(Debug)]
pub struct RxLedger<T> {
    next: u64,
    parked: BTreeMap<u64, T>,
}

impl<T> Default for RxLedger<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RxLedger<T> {
    /// An empty ledger expecting sequence 0.
    pub fn new() -> Self {
        Self {
            next: 0,
            parked: BTreeMap::new(),
        }
    }

    /// The in-order high-water mark: every sequence below this has been
    /// delivered exactly once. This is the `received` a resync ack
    /// carries.
    pub fn received(&self) -> u64 {
        self.next
    }

    /// Frames parked ahead of the expected sequence.
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    /// Accept a sequenced frame: deliver in order, drop duplicates, park
    /// stragglers until the gap fills.
    pub fn accept(&mut self, seq: u64, frame: T) -> RxAccept<T> {
        let mut out = RxAccept {
            deliver: Vec::new(),
            duplicate: false,
            parked: false,
        };
        if seq < self.next || self.parked.contains_key(&seq) {
            // Delivered before the cut; the sender couldn't know. Its
            // retransmission is the duplicate — drop it.
            out.duplicate = true;
            return out;
        }
        if seq == self.next {
            self.next += 1;
            out.deliver.push(frame);
            while let Some(f) = self.parked.remove(&self.next) {
                self.next += 1;
                out.deliver.push(f);
            }
        } else {
            self.parked.insert(seq, frame);
            out.parked = true;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settled_path_does_zero_recovery_work() {
        let mut tx = TxLedger::new();
        let mut rx: RxLedger<u64> = RxLedger::new();
        for i in 0..100u64 {
            let seq = tx.assign(0, TxPayload::Inline(vec![i as u8]));
            assert_eq!(seq, i);
            let acc = rx.accept(seq, seq);
            assert_eq!(acc.deliver, vec![seq]);
            assert!(!acc.duplicate && !acc.parked);
            assert!(tx.complete_ok(seq).is_some());
        }
        assert_eq!(tx.phase(), TxPhase::Passive);
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(rx.received(), 100);
        assert_eq!(rx.parked(), 0);
    }

    #[test]
    fn resync_confirms_prefix_and_retransmits_suffix() {
        let mut tx = TxLedger::new();
        // Post 4 frames; 2 delivered, then the path cuts.
        for i in 0..4u32 {
            tx.assign(7, TxPayload::Slot { slot: i, len: 10 });
        }
        tx.complete_ok(0);
        tx.complete_ok(1);
        // Frames 2 and 3 flush.
        assert!(tx.complete_failed(2));
        assert!(tx.complete_failed(3));
        assert_eq!(tx.phase(), TxPhase::ResyncDue);
        let sent = tx.resync_sent();
        assert_eq!(sent, 4);
        // Receiver actually got frame 2 before the cut.
        let out = tx.on_ack(3);
        assert_eq!(out.confirmed.len(), 1);
        assert_eq!(out.retransmit, vec![3]);
        assert_eq!(tx.phase(), TxPhase::Passive);
        assert_eq!(tx.in_flight(), 1);
    }

    #[test]
    fn resync_waits_until_every_in_flight_send_is_reaped() {
        let mut tx = TxLedger::new();
        for i in 0..4u32 {
            tx.assign(7, TxPayload::Slot { slot: i, len: 10 });
        }
        // The first flush arms recovery, but 1..=3 still owe completions:
        // 1 and 2 flushed with 0 (not reaped yet), 3 was posted on the new
        // path before the flush was seen and is genuinely in flight.
        assert!(tx.complete_failed(0));
        assert_eq!(tx.phase(), TxPhase::ResyncDue);
        assert!(!tx.resync_ready());
        assert!(tx.complete_failed(1));
        assert!(tx.complete_failed(2));
        assert!(!tx.resync_ready(), "frame 3 still owes its completion");
        // It lands; delivered frames are never retransmitted.
        assert!(tx.complete_ok(3).is_some());
        assert!(tx.resync_ready());
        assert_eq!(tx.resync_sent(), 4);
        let out = tx.on_ack(1);
        assert_eq!(out.confirmed.len(), 1);
        assert_eq!(out.retransmit, vec![1, 2]);
        assert_eq!(tx.phase(), TxPhase::Passive);
    }

    #[test]
    fn double_failure_rearms() {
        let mut tx = TxLedger::new();
        tx.assign(0, TxPayload::Inline(vec![1]));
        assert!(tx.complete_failed(0));
        tx.resync_sent();
        // The retransmission (or the resync) flushed again.
        assert!(tx.complete_failed(0));
        assert_eq!(tx.phase(), TxPhase::ResyncDue);
        // A stale ack from the first handshake confirms nothing here but
        // must not unstick the phase.
        let out = tx.on_ack(0);
        assert!(out.confirmed.is_empty() && out.retransmit.is_empty());
        assert_eq!(tx.phase(), TxPhase::ResyncDue);
        let _ = tx.resync_sent();
        let out = tx.on_ack(0);
        assert_eq!(out.retransmit, vec![0]);
        assert_eq!(tx.phase(), TxPhase::Passive);
    }

    #[test]
    fn rx_dedups_and_reorders() {
        let mut rx: RxLedger<&'static str> = RxLedger::new();
        assert_eq!(rx.accept(0, "a").deliver, vec!["a"]);
        // Straggler: 2 before 1.
        let acc = rx.accept(2, "c");
        assert!(acc.parked && acc.deliver.is_empty());
        let acc = rx.accept(1, "b");
        assert_eq!(acc.deliver, vec!["b", "c"]);
        // Duplicate of 0 (retransmitted after an ambiguous cut).
        let acc = rx.accept(0, "a");
        assert!(acc.duplicate && acc.deliver.is_empty());
        assert_eq!(rx.received(), 3);
    }
}
