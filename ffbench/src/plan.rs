//! The five phases every workload runs and how `--seconds` is split
//! between them.
//!
//! The phases use the same layers differently — depth-1 latency, windowed
//! small messages, bulk in each direction, endpoint set-up — so a gain for
//! one use that costs another shows as a regression in a sibling metric of
//! the same workload.

use crate::stats::{Extent, Slicer};
use std::time::Duration;

/// One way of using the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Depth 1, 64 B: WRITE + completion, or socket echo round trip.
    Lat,
    /// Window 32, small messages: 1 KiB SEND/RECV chains, or 4 KiB one-way
    /// socket writes.
    Rate,
    /// 64 KiB pushed forward, window 8.
    Bulk,
    /// 64 KiB pulled back: one-sided READ, or server-to-client stream.
    Pull,
    /// Establish one more endpoint on a warm pair, then drop it.
    Conn,
}

impl Phase {
    /// Every phase, in run order.
    pub const ALL: [Phase; 5] = [
        Phase::Lat,
        Phase::Rate,
        Phase::Bulk,
        Phase::Pull,
        Phase::Conn,
    ];
    /// Phase names, indexed by discriminant.
    pub const NAMES: [&'static str; 5] = ["lat", "rate", "bulk", "pull", "conn"];

    /// The phase's name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// Share of the measured time this phase gets; `conn` is counted in
    /// connections, not seconds.
    fn share(self) -> f64 {
        match self {
            Phase::Lat | Phase::Rate => 0.3,
            Phase::Bulk | Phase::Pull => 0.2,
            Phase::Conn => 0.0,
        }
    }
}

/// Connections per slice of the `conn` phase.
const CONN_SLICE: u64 = 50;

/// Durations of one run.
///
/// The phases are interleaved: the run makes `rounds` passes over all
/// five, each pass giving every phase an equal part of its time. A
/// neighbour that steals the machine for seconds then spoils a few slices
/// of every phase rather than most of one, and threads that settle into a
/// slow rhythm are re-rolled every round.
///
/// `conn` runs for a number of connections, not for a time: the library
/// keeps an entry for every queue pair ever created and its pump walks
/// them all, so connections made by the clock would slow the later rounds
/// by an amount that depends on how fast the earlier ones went.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Passes over the five phases.
    pub rounds: usize,
    /// Unrecorded lead-in of every timed phase in the first round.
    pub warmup: Duration,
    /// Unrecorded lead-in of every timed phase in later rounds (caches
    /// and lazy set-up are warm; only the pipeline refills).
    pub rewarm: Duration,
    /// Slice length within a timed phase.
    pub slice: Duration,
    /// Total measured time over the four timed phases and all rounds.
    pub measure: Duration,
}

impl Plan {
    /// A plan that measures for `seconds` in total: one round per two
    /// seconds (at most ten), 0.5 s warm-up, 0.1 s re-warm and 50 ms
    /// slices, the last three shrunk for runs under ten seconds.
    pub fn for_seconds(seconds: f64) -> Self {
        let scale = (seconds / 10.0).min(1.0);
        Self {
            rounds: ((seconds / 2.0).round() as usize).clamp(1, 10),
            warmup: Duration::from_secs_f64(0.5 * scale),
            rewarm: Duration::from_secs_f64(0.1 * scale),
            slice: Duration::from_secs_f64(0.05 * scale),
            measure: Duration::from_secs_f64(seconds),
        }
    }

    /// The same plan with the measured time multiplied by `factor`.
    pub fn scaled(self, factor: f64) -> Self {
        Self {
            measure: self.measure.mul_f64(factor),
            ..self
        }
    }

    /// The slicer for timed `phase` in `round` (0-based).
    pub fn slicer(&self, phase: Phase, round: usize) -> Slicer {
        let warmup = if round == 0 { self.warmup } else { self.rewarm };
        let stretch = self.measure.mul_f64(phase.share() / self.rounds as f64);
        let slices = (stretch.as_secs_f64() / self.slice.as_secs_f64()).round() as usize;
        Slicer::start(Extent::Time(warmup), Extent::Time(self.slice), slices)
    }

    /// The slicer for the `conn` phase in `round`: `per_second`
    /// connections for every measured second of the run, spread over the
    /// rounds in slices of 50, after one slice of warm-up in the first.
    pub fn conn_slicer(&self, round: usize, per_second: f64) -> Slicer {
        let per_round = per_second * self.measure.as_secs_f64() / self.rounds as f64;
        let slices = (per_round / CONN_SLICE as f64).round() as usize;
        let warmup = if round == 0 { CONN_SLICE } else { 1 };
        Slicer::start(Extent::Ops(warmup), Extent::Ops(CONN_SLICE), slices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_twenty_second_plan_is_ten_rounds_of_fifty_millisecond_slices() {
        let plan = Plan::for_seconds(20.0);
        assert_eq!(plan.rounds, 10);
        assert_eq!(plan.scaled(0.5).rounds, 10);
        assert_eq!(plan.slice, Duration::from_millis(50));
        let quick = Plan::for_seconds(2.0);
        assert_eq!((quick.rounds, quick.slice), (1, Duration::from_millis(10)));
        assert_eq!(Phase::Pull.name(), "pull");
    }
}
