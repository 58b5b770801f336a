//! Unified telemetry for the FreeFlow live stack.
//!
//! FreeFlow's contract is that path selection — shared memory vs. RDMA vs.
//! kernel TCP — is invisible to the application, which makes telemetry the
//! only witness to what the system actually did. This crate provides the
//! three pieces every layer shares:
//!
//! 1. **[`MetricRegistry`]** — named, labelled counters, gauges, and
//!    log2-bucket latency histograms. Updates are lock-free atomics; label
//!    sets ([`LabelSet`]) are `Copy` and interned, so instrumenting a hot
//!    path never allocates.
//! 2. **[`FlightRecorder`]** — a bounded lock-free ring of timestamped
//!    structured [`Event`]s (QP path transitions with epochs, agent relay
//!    retries and Nacks, QP re-sends, orchestrator events, doorbell
//!    waits). Drained after a chaos run, it reconstructs the exact ordered
//!    timeline of what the `PathBinding` machine did.
//! 3. **[`TelemetrySnapshot`]** — an owned snapshot of both, with
//!    Prometheus-style text exposition ([`TelemetrySnapshot::to_prometheus_text`]),
//!    a JSON dump, and a parser ([`parse_exposition`]) so tests can verify
//!    the exposition round-trips.
//!
//! The pieces meet in the [`Telemetry`] hub: one `Arc<Telemetry>` per
//! cluster, shared by the orchestrator, every agent, and every library.
//! Layers that the hub cannot reach at snapshot time (completion queues,
//! per-container channels) register *collectors* — closures holding `Weak`
//! references that copy native stats into registry gauges when a snapshot
//! is taken.
//!
//! ```
//! use freeflow_telemetry::{LabelSet, Telemetry};
//!
//! let hub = Telemetry::new();
//! let sends = hub
//!     .registry()
//!     .counter("ff_sends_total", "messages sent", LabelSet::host(0));
//! sends.inc();
//! let snap = hub.snapshot();
//! assert_eq!(snap.counter_value("ff_sends_total", LabelSet::host(0)), Some(1));
//! snap.verify_exposition_round_trip().unwrap();
//! ```

#![warn(missing_docs)]

mod labels;
mod metrics;
mod recorder;
mod registry;
mod snapshot;

pub use labels::LabelSet;
pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS,
};
pub use recorder::{Event, FlightRecorder, TimedEvent, TransitionKind, DEFAULT_RECORDER_CAPACITY};
pub use registry::{MetricRegistry, MetricSample, SampleValue};
pub use snapshot::{parse_exposition, ParsedExposition, ParsedSample, TelemetrySnapshot};

use parking_lot::Mutex;
use std::sync::Arc;

/// A collector copies stats the hub cannot reach into the registry at
/// snapshot time (typically via `Weak` upgrades that quietly no-op once
/// the source object is gone).
pub type Collector = Box<dyn Fn(&MetricRegistry) + Send + Sync>;

/// The per-cluster telemetry hub: one registry, one flight recorder, and
/// the scrape-time collectors.
pub struct Telemetry {
    registry: MetricRegistry,
    recorder: FlightRecorder,
    collectors: Mutex<Vec<Collector>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("registry", &self.registry)
            .field("recorder", &self.recorder)
            .field("collectors", &self.collectors.lock().len())
            .finish()
    }
}

impl Telemetry {
    /// New hub with the default flight-recorder capacity.
    pub fn new() -> Arc<Self> {
        Self::with_recorder_capacity(DEFAULT_RECORDER_CAPACITY)
    }

    /// New hub whose recorder keeps the most recent `capacity` events.
    pub fn with_recorder_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            registry: MetricRegistry::new(),
            recorder: FlightRecorder::with_capacity(capacity),
            collectors: Mutex::new(Vec::new()),
        })
    }

    /// The metric registry.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Record one flight-recorder event (shorthand for
    /// `hub.recorder().record(..)`).
    pub fn record(&self, event: Event) {
        self.recorder.record(event);
    }

    /// Register a scrape-time collector. Collectors run (in registration
    /// order) at every [`Telemetry::snapshot`] before the registry is read.
    pub fn register_collector(&self, collector: impl Fn(&MetricRegistry) + Send + Sync + 'static) {
        self.collectors.lock().push(Box::new(collector));
    }

    /// Run the collectors, then snapshot the registry and drain the
    /// recorder into an owned [`TelemetrySnapshot`].
    pub fn snapshot(&self) -> TelemetrySnapshot {
        {
            let collectors = self.collectors.lock();
            for c in collectors.iter() {
                c(&self.registry);
            }
        }
        TelemetrySnapshot {
            samples: self.registry.snapshot(),
            events: self.recorder.events(),
            dropped_events: self.recorder.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Weak;

    #[test]
    fn hub_snapshot_combines_registry_and_recorder() {
        let hub = Telemetry::new();
        hub.registry()
            .counter("ff_t_total", "t", LabelSet::none())
            .inc();
        hub.record(Event::RelayNack { host: 4, status: 1 });
        let snap = hub.snapshot();
        assert_eq!(snap.counter_value("ff_t_total", LabelSet::none()), Some(1));
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.dropped_events, 0);
        snap.verify_exposition_round_trip().unwrap();
    }

    #[test]
    fn collectors_run_at_snapshot_time() {
        let hub = Telemetry::new();
        let source = Arc::new(AtomicU64::new(0));
        let weak: Weak<AtomicU64> = Arc::downgrade(&source);
        hub.register_collector(move |reg| {
            if let Some(src) = weak.upgrade() {
                reg.gauge("ff_scraped", "scraped", LabelSet::host(1))
                    .set(src.load(Ordering::Relaxed) as i64);
            }
        });
        source.store(41, Ordering::Relaxed);
        assert_eq!(
            hub.snapshot().gauge_value("ff_scraped", LabelSet::host(1)),
            Some(41)
        );
        source.store(42, Ordering::Relaxed);
        assert_eq!(
            hub.snapshot().gauge_value("ff_scraped", LabelSet::host(1)),
            Some(42)
        );
        // Once the source is dropped the collector no-ops but the last
        // scraped value remains registered.
        drop(source);
        assert_eq!(
            hub.snapshot().gauge_value("ff_scraped", LabelSet::host(1)),
            Some(42)
        );
    }
}
