//! Mux-layer property tests: for arbitrary interleavings of N streams —
//! arbitrary chunking, an arbitrary failure cut, duplicated deliveries —
//! every stream's delivered bytes are exactly the bytes written, and a
//! run with no failure does zero recovery work.
//!
//! The model mirrors the RC transport contract the channel builds on:
//! the receiver sees a *prefix* of the posted sequence (in order) up to
//! an arbitrary cut; the sender's completions flip from `Success` to
//! `RETRY_EXC_ERR` at an arbitrary (earlier or equal) point, so frames
//! between the two are delivered-but-unconfirmed — exactly the ambiguity
//! the resync handshake exists to resolve.

use crate::mux::{StreamState, MAX_PAYLOAD};
use crate::reliability::{RxLedger, TxLedger, TxPayload, TxPhase};
use proptest::prelude::*;

/// One posted frame in the model: `(seq, stream, bytes)`.
type Wire = Vec<(u64, u32, Vec<u8>)>;

/// Deterministic per-stream payload so mismatches localize.
fn stream_bytes(stream: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u32).wrapping_mul(31).wrapping_add(stream * 7) as u8)
        .collect()
}

/// Write every stream's bytes through the tx ledger following the
/// interleaving `schedule` (stream picks + chunk sizes), returning the
/// posted wire.
fn post_all(tx: &mut TxLedger, data: &[Vec<u8>], schedule: &[(usize, usize)]) -> Wire {
    let mut cursors = vec![0usize; data.len()];
    let mut wire = Wire::new();
    let mut sched = schedule.iter().cycle();
    while cursors.iter().zip(data).any(|(c, d)| *c < d.len()) {
        let &(pick, chunk) = sched.next().expect("cycle");
        let mut s = pick % data.len();
        // The scheduled stream may be drained; take the next live one so
        // every schedule terminates.
        while cursors[s] >= data[s].len() {
            s = (s + 1) % data.len();
        }
        let (cur, total) = (cursors[s], data[s].len());
        let end = (cur + chunk.max(1)).min(total);
        let payload = data[s][cur..end].to_vec();
        let seq = tx.assign(s as u32, TxPayload::Inline(payload.clone()));
        wire.push((seq, s as u32, payload));
        cursors[s] = end;
    }
    wire
}

/// Feed one frame to the rx ledger, appending in-order deliveries to the
/// per-stream outputs.
fn deliver(
    rx: &mut RxLedger<(u32, Vec<u8>)>,
    seq: u64,
    stream: u32,
    bytes: Vec<u8>,
    out: &mut [Vec<u8>],
) {
    for (s, b) in rx.accept(seq, (stream, bytes)).deliver {
        out[s as usize].extend_from_slice(&b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No failure: every interleaving delivers byte-identical streams
    /// with the ledgers provably idle — `Passive` throughout, nothing
    /// left in flight, nothing parked.
    #[test]
    fn settled_interleavings_deliver_byte_identical_with_zero_recovery(
        nstreams in 1usize..6,
        lens in prop::collection::vec(0usize..3000, 6),
        schedule in prop::collection::vec((any::<usize>(), 1usize..600), 1..40),
    ) {
        let data: Vec<Vec<u8>> = (0..nstreams)
            .map(|s| stream_bytes(s as u32, lens[s]))
            .collect();
        let mut tx = TxLedger::new();
        let mut rx = RxLedger::new();
        let mut out = vec![Vec::new(); nstreams];

        let wire = post_all(&mut tx, &data, &schedule);
        for (seq, stream, bytes) in wire {
            deliver(&mut rx, seq, stream, bytes, &mut out);
            prop_assert!(tx.complete_ok(seq).is_some());
        }
        prop_assert_eq!(out, data);
        prop_assert_eq!(tx.phase(), TxPhase::Passive, "no recovery armed");
        prop_assert_eq!(tx.in_flight(), 0);
        prop_assert_eq!(rx.parked(), 0, "nothing ever reordered");
    }

    /// A failure cut anywhere in the sequence — with the sender's
    /// knowledge lagging the receiver's, and arbitrary duplicate
    /// re-deliveries — resolves through one resync round to
    /// byte-identical streams.
    #[test]
    fn failure_cut_resync_and_duplicates_converge_byte_identical(
        nstreams in 1usize..5,
        lens in prop::collection::vec(1usize..2500, 5),
        schedule in prop::collection::vec((any::<usize>(), 1usize..400), 1..30),
        cut_pick in any::<u64>(),
        fail_pick in any::<u64>(),
        dups in prop::collection::vec(any::<u64>(), 0..8),
    ) {
        let data: Vec<Vec<u8>> = (0..nstreams)
            .map(|s| stream_bytes(s as u32, lens[s]))
            .collect();
        let mut tx = TxLedger::new();
        let mut rx = RxLedger::new();
        let mut out = vec![Vec::new(); nstreams];

        let wire = post_all(&mut tx, &data, &schedule);
        let n = wire.len() as u64;
        // Receiver got frames [0, cut); sender's completions failed from
        // fail_at on (fail_at <= cut: RC delivers in order, so anything
        // confirmed Success was delivered before the cut).
        let cut = cut_pick % (n + 1);
        let fail_at = if cut == 0 { 0 } else { fail_pick % (cut + 1) };

        for (seq, stream, bytes) in wire.iter().take(cut as usize) {
            deliver(&mut rx, *seq, *stream, bytes.clone(), &mut out);
        }
        for seq in 0..fail_at {
            prop_assert!(tx.complete_ok(seq).is_some());
        }
        for seq in fail_at..n {
            tx.complete_failed(seq);
        }
        if fail_at == n {
            // Every frame confirmed: nothing armed recovery.
            prop_assert_eq!(tx.phase(), TxPhase::Passive);
        } else {
            prop_assert_eq!(tx.phase(), TxPhase::ResyncDue);
            tx.resync_sent();
            // Stale duplicate deliveries of already-received frames
            // (retransmits racing the resync) must all dedup.
            for d in &dups {
                if cut > 0 {
                    let i = (*d % cut) as usize;
                    let (seq, stream, bytes) = &wire[i];
                    let before: usize = out.iter().map(Vec::len).sum();
                    deliver(&mut rx, *seq, *stream, bytes.clone(), &mut out);
                    let after: usize = out.iter().map(Vec::len).sum();
                    prop_assert_eq!(before, after, "duplicate delivered bytes");
                }
            }
            let ack = rx.received();
            prop_assert_eq!(ack, cut, "in-order high-water mark is the cut");
            let outcome = tx.on_ack(ack);
            prop_assert_eq!(tx.phase(), TxPhase::Passive, "recovery closed");
            // Retransmit the suffix in order; it completes normally.
            for seq in outcome.retransmit {
                let entry = tx.entry(seq).expect("still in flight").clone();
                let TxPayload::Inline(bytes) = entry.payload else {
                    panic!("model posts inline only");
                };
                deliver(&mut rx, seq, entry.stream, bytes, &mut out);
                prop_assert!(tx.complete_ok(seq).is_some());
            }
        }
        prop_assert_eq!(out, data);
        prop_assert_eq!(tx.in_flight(), 0);
    }

    /// A stream's receive buffer is the queue of frames it arrived in:
    /// frames of any length up to a full slot, empty ones included, read
    /// back in reads of any size — ending mid-frame, exactly at a frame's
    /// end, spanning frames — give exactly the concatenated payloads, each
    /// non-empty frame is credited once, on its last byte, and an empty
    /// one is credited on arrival without ever being queued.
    #[test]
    fn frame_queue_reads_of_any_size_credit_each_frame_once(
        lens in prop::collection::vec(
            prop_oneof![Just(0usize), 1usize..64, 0..=MAX_PAYLOAD],
            1..10,
        ),
        steps in prop::collection::vec((0usize..4, 0u8..3, 1usize..3 * MAX_PAYLOAD), 1..24),
    ) {
        let frames: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| stream_bytes(i as u32, len))
            .collect();
        let mut s = StreamState::new();
        let (mut pushed, mut credited, mut out) = (0, 0u32, Vec::new());
        // Push `push` more frames, then read `size` bytes — or, by `mode`,
        // exactly to the front frame's end or exactly what is buffered.
        // Once the steps run out, push the rest and read it all.
        let rest = std::iter::repeat((usize::MAX, 2, 0));
        let mut steps = steps.into_iter().chain(rest);
        while pushed < frames.len() || !s.rx.is_empty() {
            let (push, mode, size) = steps.next().expect("repeats forever");
            for f in frames.iter().skip(pushed).take(push) {
                let queued = s.rx.len();
                let empty = s.push_frame(f.clone());
                prop_assert_eq!(empty, f.is_empty());
                if empty {
                    prop_assert_eq!(s.rx.len(), queued, "an empty frame was queued");
                    prop_assert_eq!(std::mem::take(&mut s.pending_credit), 1);
                    credited += 1;
                }
                pushed += 1;
            }
            let buffered = frames[..pushed].iter().map(Vec::len).sum::<usize>() - out.len();
            let read = match (mode, s.rx.front()) {
                (1, Some(front)) => front.len() - s.rx_read,
                (2, Some(_)) => buffered,
                _ => size.max(1),
            };
            let mut buf = vec![0u8; read];
            let (n, drained) = s.read_into(&mut buf);
            prop_assert_eq!(n, read.min(buffered), "a read stopped short of the buffer");
            out.extend_from_slice(&buf[..n]);
            credited += drained;
            prop_assert!(s.rx.iter().all(|f| !f.is_empty()), "an empty frame is queued");
            prop_assert_eq!(s.rx.is_empty(), n == buffered, "bytes left but none queued");
            // The frames fully read: every pushed frame whose last byte is
            // within what came out (an empty one has none to wait for).
            let mut end = 0;
            let done = frames[..pushed]
                .iter()
                .filter(|f| {
                    end += f.len();
                    f.is_empty() || end <= out.len()
                })
                .count();
            prop_assert_eq!(credited as usize, done, "credits != frames fully read");
        }
        prop_assert_eq!(out, frames.concat());
        prop_assert_eq!(s.rx_read, 0);
    }
}
