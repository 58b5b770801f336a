//! Workload generators driving each flow.
//!
//! Two shapes cover every figure in the paper:
//!
//! * [`Workload::Stream`] — a closed-loop bulk transfer keeping `window`
//!   messages in flight; measures throughput and CPU (the `iperf`-style
//!   runs behind the throughput/CPU figures).
//! * [`Workload::PingPong`] — strictly alternating request/response of one
//!   message each way; measures round-trip latency (the latency figures).

use crate::rng::SimRng;
use freeflow_types::ByteSize;

/// The traffic a flow generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop bulk stream: keep `window` messages of `msg_size` in
    /// flight until `messages` have been delivered (0 = until sim end).
    Stream {
        /// Size of each message.
        msg_size: ByteSize,
        /// Messages kept concurrently in flight.
        window: u32,
        /// Total messages to deliver; 0 means unbounded.
        messages: u64,
    },
    /// Strict request/response alternation for `iterations` round trips.
    /// Each direction carries one `msg_size` message; the reverse path of
    /// the flow is assumed symmetric (the sim sends the "response" back
    /// through the mirrored pipeline).
    PingPong {
        /// Size of each message (both directions).
        msg_size: ByteSize,
        /// Number of round trips.
        iterations: u64,
    },
}

impl Workload {
    /// Convenience: a bulk stream of `n` messages of `mib` MiB with a
    /// window of 8 (enough to keep every modelled pipeline full).
    pub fn bulk(mib: u64, n: u64) -> Self {
        Workload::Stream {
            msg_size: ByteSize::from_mib(mib),
            window: 8,
            messages: n,
        }
    }

    /// Convenience: `n` round trips of `bytes`-byte messages.
    pub fn rtt(bytes: u64, n: u64) -> Self {
        Workload::PingPong {
            msg_size: ByteSize::from_bytes(bytes),
            iterations: n,
        }
    }

    /// The message size this workload emits.
    pub fn msg_size(&self) -> ByteSize {
        match self {
            Workload::Stream { msg_size, .. } | Workload::PingPong { msg_size, .. } => *msg_size,
        }
    }

    /// Whether this workload measures latency (ping-pong) rather than
    /// throughput.
    pub fn is_latency(&self) -> bool {
        matches!(self, Workload::PingPong { .. })
    }

    /// Draw a bounded workload from an explicit seeded generator — the
    /// only sanctioned source of workload randomness, so every
    /// simulation-backed test is reproducible from a logged seed.
    pub fn random(rng: &mut SimRng) -> Self {
        if rng.index(2) == 0 {
            Workload::Stream {
                msg_size: ByteSize::from_kib(rng.gen_range(4, 1025)),
                window: rng.gen_range(1, 9) as u32,
                messages: rng.gen_range(5, 51),
            }
        } else {
            Workload::PingPong {
                msg_size: ByteSize::from_bytes(rng.gen_range(64, 8193)),
                iterations: rng.gen_range(5, 31),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let w = Workload::bulk(1, 100);
        assert_eq!(w.msg_size(), ByteSize::from_mib(1));
        assert!(!w.is_latency());
        let p = Workload::rtt(4096, 50);
        assert_eq!(p.msg_size(), ByteSize::from_bytes(4096));
        assert!(p.is_latency());
    }

    #[test]
    fn random_workloads_reproduce_from_seed() {
        let draw = |seed| {
            let mut rng = SimRng::new(seed);
            (0..16)
                .map(|_| Workload::random(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(99), draw(99));
        assert_ne!(draw(99), draw(100));
        for w in draw(7) {
            match w {
                Workload::Stream {
                    window, messages, ..
                } => {
                    assert!((1..=8).contains(&window));
                    assert!((5..=50).contains(&messages));
                }
                Workload::PingPong { iterations, .. } => {
                    assert!((5..=30).contains(&iterations));
                }
            }
        }
    }
}
