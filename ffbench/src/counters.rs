//! Reads of the stack's existing telemetry, taken before and after each
//! traced phase so per-layer counts are measured where the work happens.

use freeflow::FreeFlowCluster;
use freeflow_telemetry::SampleValue;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One scrape of `cluster.telemetry()`, summed over label sets (hosts,
/// containers, QPs): the workloads have one connection, so the sum is the
/// workload's own traffic.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    scalars: BTreeMap<&'static str, f64>,
    /// Histogram `(count, sum)` by name.
    histograms: BTreeMap<&'static str, (f64, f64)>,
    /// Flight-recorder events lost to overwriting so far.
    pub dropped_events: u64,
    /// How long the scrape took.
    pub took: Duration,
}

impl Scrape {
    /// Scrape `cluster`'s hub (runs the collectors, so `AgentStats` and
    /// the shm channel doorbell counts are current).
    pub fn take(cluster: &FreeFlowCluster) -> Self {
        let t0 = Instant::now();
        let snap = cluster.telemetry();
        let took = t0.elapsed();
        let mut out = Self {
            dropped_events: snap.dropped_events,
            took,
            ..Self::default()
        };
        for s in &snap.samples {
            match s.value {
                SampleValue::Counter(v) => *out.scalars.entry(s.name).or_default() += v as f64,
                SampleValue::Gauge(v) => *out.scalars.entry(s.name).or_default() += v as f64,
                SampleValue::Histogram(h) => {
                    let e = out.histograms.entry(s.name).or_default();
                    e.0 += h.count() as f64;
                    e.1 += h.sum as f64;
                }
            }
        }
        out
    }

    /// Counter or gauge `name`, summed over label sets; 0 if unregistered.
    pub fn get(&self, name: &str) -> f64 {
        self.scalars.get(name).copied().unwrap_or(0.0)
    }

    /// Histogram `name` as `(count, sum)`; zeros if unregistered.
    pub fn histogram(&self, name: &str) -> (f64, f64) {
        self.histograms.get(name).copied().unwrap_or((0.0, 0.0))
    }
}

/// Counter increases summed over one or more stretches of a run (a phase
/// is one stretch per round).
#[derive(Debug, Clone, Default)]
pub struct Delta {
    scalars: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, (f64, f64)>,
}

impl Delta {
    /// Add the change from `before` to `after`.
    pub fn add(&mut self, before: &Scrape, after: &Scrape) {
        for (name, v) in &after.scalars {
            *self.scalars.entry(name).or_default() += v - before.get(name);
        }
        for (name, (count, sum)) in &after.histograms {
            let (c0, s0) = before.histogram(name);
            let e = self.histograms.entry(name).or_default();
            e.0 += count - c0;
            e.1 += sum - s0;
        }
    }

    /// Increase of counter or gauge `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.scalars.get(name).copied().unwrap_or(0.0)
    }

    /// Increase of histogram `name` as `(count, sum)`.
    pub fn histogram(&self, name: &str) -> (f64, f64) {
        self.histograms.get(name).copied().unwrap_or((0.0, 0.0))
    }
}
