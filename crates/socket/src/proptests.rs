//! Mux-layer property tests: a stream's receive buffer, the queue of
//! frames it arrived in, read back in reads of any size.

use crate::mux::{Rx, StreamState, MAX_PAYLOAD};
use proptest::prelude::*;

/// Deterministic per-stream payload so mismatches localize.
fn stream_bytes(stream: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u32).wrapping_mul(31).wrapping_add(stream * 7) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A stream's receive buffer is the queue of frames it arrived in,
    /// each held in its receive slot or copied out: frames of any length
    /// up to a full slot, empty ones included, read back in reads of any
    /// size — ending mid-frame, exactly at a frame's end, spanning frames —
    /// give exactly the concatenated payloads, each non-empty frame is
    /// credited once, on its last byte, and an empty one is credited on
    /// arrival without ever being queued. Every held slot is handed back
    /// exactly once, when its frame's last byte is read, and only then.
    #[test]
    fn frame_queue_reads_of_any_size_credit_each_frame_once(
        frames in prop::collection::vec(
            (prop_oneof![Just(0usize), 1usize..64, 0..=MAX_PAYLOAD], any::<bool>()),
            1..10,
        ),
        steps in prop::collection::vec((0usize..4, 0u8..3, 1usize..3 * MAX_PAYLOAD), 1..24),
    ) {
        // Frame `i` is held in slot `i` when it asks to be and has a byte.
        let (lens, hold): (Vec<usize>, Vec<bool>) = frames.into_iter().unzip();
        let payloads: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| stream_bytes(i as u32, len))
            .collect();
        let held = |i: usize| hold[i] && !payloads[i].is_empty();
        let mut s = StreamState::new();
        let (mut pushed, mut credited, mut out) = (0, 0u32, Vec::new());
        let mut released = Vec::new();
        // Push `push` more frames, then read `size` bytes — or, by `mode`,
        // exactly to the front frame's end or exactly what is buffered.
        // Once the steps run out, push the rest and read it all.
        let rest = std::iter::repeat((usize::MAX, 2, 0));
        let mut steps = steps.into_iter().chain(rest);
        while pushed < payloads.len() || !s.rx.is_empty() {
            let (push, mode, size) = steps.next().expect("repeats forever");
            for (i, f) in payloads.iter().enumerate().skip(pushed).take(push) {
                let queued = s.rx.len();
                let frame = match held(i) {
                    true => Rx::Held { slot: i as u64, len: f.len() },
                    false => Rx::Copied(f.clone()),
                };
                let empty = s.push_frame(frame);
                prop_assert_eq!(empty, f.is_empty());
                if empty {
                    prop_assert_eq!(s.rx.len(), queued, "an empty frame was queued");
                    prop_assert_eq!(std::mem::take(&mut s.pending_credit), 1);
                    credited += 1;
                }
                pushed += 1;
            }
            let buffered = payloads[..pushed].iter().map(Vec::len).sum::<usize>() - out.len();
            let read = match (mode, s.rx.front()) {
                (1, Some(front)) => front.len() - s.rx_read,
                (2, Some(_)) => buffered,
                _ => size.max(1),
            };
            let mut buf = vec![0u8; read];
            let from_slot = |slot: u64, at: usize, to: &mut [u8]| {
                let slot = &payloads[slot as usize];
                to.copy_from_slice(&slot[at..at + to.len()]);
            };
            let (n, drained) = s.read_into(&mut buf, from_slot, |slot| released.push(slot as usize));
            prop_assert_eq!(n, read.min(buffered), "a read stopped short of the buffer");
            out.extend_from_slice(&buf[..n]);
            credited += drained;
            prop_assert!(s.rx.iter().all(|f| f.len() > 0), "an empty frame is queued");
            prop_assert_eq!(s.rx.is_empty(), n == buffered, "bytes left but none queued");
            // The frames fully read: every pushed frame whose last byte is
            // within what came out (an empty one has none to wait for).
            let mut end = 0;
            let done: Vec<usize> = (0..pushed)
                .filter(|&i| {
                    end += payloads[i].len();
                    payloads[i].is_empty() || end <= out.len()
                })
                .collect();
            prop_assert_eq!(credited as usize, done.len(), "credits != frames fully read");
            let expect: Vec<usize> = done.into_iter().filter(|&i| held(i)).collect();
            prop_assert_eq!(&released, &expect, "held slots handed back != held frames read");
        }
        prop_assert_eq!(out, payloads.concat());
        prop_assert_eq!(s.rx_read, 0);
    }

    /// Dropping a stream's queue unread hands back each held slot once and
    /// credits every queued frame.
    #[test]
    fn discarding_the_queue_releases_every_held_slot_once(
        frames in prop::collection::vec((1usize..64, any::<bool>()), 0..10),
        read in 0usize..256,
    ) {
        let mut s = StreamState::new();
        for (i, &(len, hold)) in frames.iter().enumerate() {
            let frame = match hold {
                true => Rx::Held { slot: i as u64, len },
                false => Rx::Copied(stream_bytes(i as u32, len)),
            };
            prop_assert!(!s.push_frame(frame));
        }
        let mut released = Vec::new();
        let mut buf = vec![0u8; read];
        let (_, drained) = s.read_into(&mut buf, |_, _, _| {}, |slot| released.push(slot as usize));
        let queued = s.rx.len() as u32;
        prop_assert_eq!(s.discard(|slot| released.push(slot as usize)), queued);
        prop_assert_eq!(drained + queued, frames.len() as u32);
        prop_assert!(s.rx.is_empty() && s.rx_read == 0);
        let held: Vec<usize> = (0..frames.len()).filter(|&i| frames[i].1).collect();
        prop_assert_eq!(released, held);
    }
}
