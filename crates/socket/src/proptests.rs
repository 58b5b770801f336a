//! Mux-layer property tests: a stream's receive buffer, the queue of
//! frames it arrived in, read back in reads of any size.

use crate::mux::{StreamState, MAX_PAYLOAD};
use proptest::prelude::*;

/// Deterministic per-stream payload so mismatches localize.
fn stream_bytes(stream: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u32).wrapping_mul(31).wrapping_add(stream * 7) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
