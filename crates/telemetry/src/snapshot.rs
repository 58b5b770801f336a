//! Owned telemetry snapshots, text exposition, JSON dump, and a parser
//! for round-trip checks.
//!
//! The exposition follows the Prometheus text format: `# HELP` / `# TYPE`
//! headers per metric name, counters and gauges as single sample lines,
//! histograms as cumulative `_bucket{le=...}` lines plus `_sum` and
//! `_count`. The workspace has no serialization library, so the JSON dump
//! is hand-rendered — every string that reaches it is an interned
//! identifier, so no escaping is required.

use crate::labels::LabelSet;
use crate::metrics::{bucket_upper_bound, HistogramSnapshot, BUCKETS};
use crate::recorder::{Event, TimedEvent};
use crate::registry::{MetricSample, SampleValue};
use std::fmt::Write as _;

/// A point-in-time copy of everything the telemetry hub knows: sorted
/// metric samples plus the drained flight-recorder timeline.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// All registered metrics, sorted by `(name, labels)`.
    pub samples: Vec<MetricSample>,
    /// Flight-recorder events in global write order.
    pub events: Vec<TimedEvent>,
    /// Events lost to ring overwriting before this snapshot.
    pub dropped_events: u64,
}

impl TelemetrySnapshot {
    /// The value of the counter `(name, labels)`, if registered.
    pub fn counter_value(&self, name: &str, labels: LabelSet) -> Option<u64> {
        self.samples.iter().find_map(|s| match s.value {
            SampleValue::Counter(v) if s.name == name && s.labels == labels => Some(v),
            _ => None,
        })
    }

    /// The value of the gauge `(name, labels)`, if registered.
    pub fn gauge_value(&self, name: &str, labels: LabelSet) -> Option<i64> {
        self.samples.iter().find_map(|s| match s.value {
            SampleValue::Gauge(v) if s.name == name && s.labels == labels => Some(v),
            _ => None,
        })
    }

    /// The histogram registered under `(name, labels)`, if any.
    pub fn histogram(&self, name: &str, labels: LabelSet) -> Option<HistogramSnapshot> {
        self.samples.iter().find_map(|s| match s.value {
            SampleValue::Histogram(h) if s.name == name && s.labels == labels => Some(h),
            _ => None,
        })
    }

    /// Sum of a counter's values across every label set it was registered
    /// under (e.g. total failovers across all QPs).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match s.value {
                SampleValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }

    /// The ordered path-transition timeline for one QP. QPNs are only
    /// unique per device, so the owning container disambiguates.
    pub fn path_timeline(&self, container: u64, qpn: u32) -> Vec<TimedEvent> {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    Event::PathTransition { container: c, qpn: q, .. }
                        if c == container && q == qpn
                )
            })
            .copied()
            .collect()
    }

    /// Render the Prometheus text exposition.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for s in &self.samples {
            if s.name != last_name {
                if !s.help.is_empty() {
                    let _ = writeln!(out, "# HELP {} {}", s.name, s.help);
                }
                let _ = writeln!(out, "# TYPE {} {}", s.name, s.value.type_name());
                last_name = s.name;
            }
            match s.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {}", s.name, s.labels, v);
                }
                SampleValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", s.name, s.labels, v);
                }
                SampleValue::Histogram(h) => {
                    render_histogram(&mut out, s.name, s.labels, &h);
                }
            }
        }
        out
    }

    /// Render the whole snapshot as a JSON document (hand-rolled; the
    /// workspace has no serialization library).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"labels\":{{", s.name);
            let mut sep = "";
            if let Some(h) = s.labels.host {
                let _ = write!(out, "\"host\":{h}");
                sep = ",";
            }
            if let Some(c) = s.labels.container {
                let _ = write!(out, "{sep}\"container\":{c}");
                sep = ",";
            }
            if let Some(t) = s.labels.transport {
                let _ = write!(out, "{sep}\"transport\":\"{t}\"");
                sep = ",";
            }
            if let Some((k, v)) = s.labels.extra {
                let _ = write!(out, "{sep}\"{k}\":\"{v}\"");
            }
            let _ = write!(out, "}},\"type\":\"{}\",", s.value.type_name());
            match s.value {
                SampleValue::Counter(v) => {
                    let _ = write!(out, "\"value\":{v}}}");
                }
                SampleValue::Gauge(v) => {
                    let _ = write!(out, "\"value\":{v}}}");
                }
                SampleValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p99\":{}}}",
                        h.count(),
                        h.sum,
                        h.max,
                        h.p50(),
                        h.p99()
                    );
                }
            }
        }
        out.push_str("],\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"t_ns\":{},\"seq\":{},", e.t_ns, e.seq);
            event_json(&mut out, &e.event);
            out.push('}');
        }
        let _ = write!(out, "],\"dropped_events\":{}}}", self.dropped_events);
        out
    }

    /// Render the exposition, parse it back, and check that every metric
    /// survives the trip with the same value. Returns a description of the
    /// first mismatch, if any.
    pub fn verify_exposition_round_trip(&self) -> Result<(), String> {
        let text = self.to_prometheus_text();
        let parsed = parse_exposition(&text)?;
        for s in &self.samples {
            let labels = label_pairs(s.labels);
            match s.value {
                SampleValue::Counter(v) => {
                    expect_value(&parsed, s.name, &labels, v as f64)?;
                }
                SampleValue::Gauge(v) => {
                    expect_value(&parsed, s.name, &labels, v as f64)?;
                }
                SampleValue::Histogram(h) => {
                    let count_name = format!("{}_count", s.name);
                    let sum_name = format!("{}_sum", s.name);
                    expect_value(&parsed, &count_name, &labels, h.count() as f64)?;
                    expect_value(&parsed, &sum_name, &labels, h.sum as f64)?;
                    let mut inf_labels = labels.clone();
                    inf_labels.push(("le".into(), "+Inf".into()));
                    expect_value(
                        &parsed,
                        &format!("{}_bucket", s.name),
                        &inf_labels,
                        h.count() as f64,
                    )?;
                }
            }
        }
        Ok(())
    }
}

fn event_json(out: &mut String, event: &Event) {
    match *event {
        Event::PathTransition {
            container,
            qpn,
            kind,
            reason,
            epoch,
            from,
            to,
            upgrade,
        } => {
            let _ = write!(
                out,
                "\"type\":\"path_transition\",\"container\":{container},\"qpn\":{qpn},\
                 \"kind\":\"{}\",\"reason\":{},\
                 \"epoch\":{epoch},\"from\":\"{from}\",\"to\":\"{to}\",\"upgrade\":{upgrade}",
                kind.name(),
                match reason {
                    Some(r) => format!("\"{r}\""),
                    None => "null".into(),
                }
            );
        }
        Event::RelayRetry {
            host,
            attempts,
            exhausted,
        } => {
            let _ = write!(
                out,
                "\"type\":\"relay_retry\",\"host\":{host},\"attempts\":{attempts},\
                 \"exhausted\":{exhausted}"
            );
        }
        Event::RelayNack { host, status } => {
            let _ = write!(
                out,
                "\"type\":\"relay_nack\",\"host\":{host},\"status\":{status}"
            );
        }
        Event::RelayExpired { host, entries } => {
            let _ = write!(
                out,
                "\"type\":\"relay_expired\",\"host\":{host},\"entries\":{entries}"
            );
        }
        Event::QpResend {
            container,
            qpn,
            first_op,
            ops,
        } => {
            let _ = write!(
                out,
                "\"type\":\"qp_resend\",\"container\":{container},\"qpn\":{qpn},\
                 \"first_op\":{first_op},\"ops\":{ops}"
            );
        }
        Event::Orchestrator { kind, host } => {
            let _ = write!(
                out,
                "\"type\":\"orchestrator\",\"kind\":\"{kind}\",\"host\":{host}"
            );
        }
        Event::ControlPlane { kind, host, detail } => {
            let _ = write!(
                out,
                "\"type\":\"control_plane\",\"kind\":\"{kind}\",\"host\":{host},\"detail\":{detail}"
            );
        }
        Event::Migration {
            container,
            from_host,
            to_host,
            kind,
            blackout_ns,
        } => {
            let _ = write!(
                out,
                "\"type\":\"migration\",\"container\":{container},\"from_host\":{from_host},\
                 \"to_host\":{to_host},\"kind\":\"{kind}\",\"blackout_ns\":{blackout_ns}"
            );
        }
        Event::DoorbellWait { host, bell } => {
            let _ = write!(
                out,
                "\"type\":\"doorbell_wait\",\"host\":{host},\"bell\":\"{bell}\""
            );
        }
    }
}

fn render_histogram(out: &mut String, name: &str, labels: LabelSet, h: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for i in 0..BUCKETS {
        if h.buckets[i] == 0 {
            continue; // only emit edges where the cumulative count moves
        }
        cumulative += h.buckets[i];
        let _ = writeln!(
            out,
            "{name}_bucket{} {cumulative}",
            labels_with_le(labels, &bucket_upper_bound(i).to_string())
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{} {cumulative}",
        labels_with_le(labels, "+Inf")
    );
    let _ = writeln!(out, "{name}_sum{labels} {}", h.sum);
    let _ = writeln!(out, "{name}_count{labels} {cumulative}");
}

/// Merge the `le` label into a rendered label block.
fn labels_with_le(labels: LabelSet, le: &str) -> String {
    let rendered = labels.to_string();
    if rendered.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        format!("{},le=\"{le}\"}}", &rendered[..rendered.len() - 1])
    }
}

/// A [`LabelSet`] as owned `(key, value)` pairs, in rendering order.
fn label_pairs(labels: LabelSet) -> Vec<(String, String)> {
    let mut out = Vec::new();
    if let Some(h) = labels.host {
        out.push(("host".into(), h.to_string()));
    }
    if let Some(c) = labels.container {
        out.push(("container".into(), c.to_string()));
    }
    if let Some(t) = labels.transport {
        out.push(("transport".into(), t.to_string()));
    }
    if let Some((k, v)) = labels.extra {
        out.push((k.into(), v.into()));
    }
    out
}

fn expect_value(
    parsed: &ParsedExposition,
    name: &str,
    labels: &[(String, String)],
    want: f64,
) -> Result<(), String> {
    match parsed.value_of(name, labels) {
        Some(got) if got == want => Ok(()),
        Some(got) => Err(format!("{name}{labels:?}: parsed {got}, snapshot {want}")),
        None => Err(format!("{name}{labels:?}: missing from parsed exposition")),
    }
}

/// One sample line recovered by [`parse_exposition`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    /// Metric name as it appears on the line (including `_bucket` etc.).
    pub name: String,
    /// Label pairs in file order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// The result of parsing a text exposition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedExposition {
    /// `(name, type)` pairs from `# TYPE` lines, in file order.
    pub types: Vec<(String, String)>,
    /// All sample lines, in file order.
    pub samples: Vec<ParsedSample>,
}

impl ParsedExposition {
    /// Find a sample by name and exact label multiset.
    pub fn value_of(&self, name: &str, labels: &[(String, String)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| {
                if s.name != name || s.labels.len() != labels.len() {
                    return false;
                }
                let mut a = s.labels.clone();
                let mut b = labels.to_vec();
                a.sort();
                b.sort();
                a == b
            })
            .map(|s| s.value)
    }

    /// All sample names, in exposition order (with repeats — one entry
    /// per sample, not per family).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.samples.iter().map(|s| s.name.as_str())
    }
}

/// Parse a Prometheus text exposition. Strict enough for round-trip tests:
/// it rejects malformed lines, labels, and values instead of skipping them.
pub fn parse_exposition(text: &str) -> Result<ParsedExposition, String> {
    let mut out = ParsedExposition::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or(format!("line {lineno}: bare TYPE"))?;
            let ty = it
                .next()
                .ok_or(format!("line {lineno}: TYPE without kind"))?;
            out.types.push((name.to_string(), ty.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        out.samples.push(parse_sample(line, lineno)?);
    }
    Ok(out)
}

fn parse_sample(line: &str, lineno: usize) -> Result<ParsedSample, String> {
    let (name_and_labels, value) = line
        .rsplit_once(' ')
        .ok_or(format!("line {lineno}: no value"))?;
    let value: f64 = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v
            .parse()
            .map_err(|_| format!("line {lineno}: bad value {v:?}"))?,
    };
    let (name, labels) = match name_and_labels.split_once('{') {
        None => (name_and_labels.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .ok_or(format!("line {lineno}: unterminated label block"))?;
            let mut labels = Vec::new();
            for pair in body.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or(format!("line {lineno}: bad label {pair:?}"))?;
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or(format!("line {lineno}: unquoted label value {v:?}"))?;
                labels.push((k.to_string(), v.to_string()));
            }
            (name.to_string(), labels)
        }
    };
    if name.is_empty() {
        return Err(format!("line {lineno}: empty metric name"));
    }
    Ok(ParsedSample {
        name,
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricRegistry;

    fn sample_snapshot() -> TelemetrySnapshot {
        let r = MetricRegistry::new();
        r.counter("ff_a_total", "things", LabelSet::host(1)).add(7);
        r.counter("ff_a_total", "things", LabelSet::host(2)).add(3);
        r.gauge("ff_depth", "queue depth", LabelSet::none()).set(-2);
        let h = r.histogram(
            "ff_lat_ns",
            "latency",
            LabelSet::host(1).with_transport("rdma"),
        );
        for v in [0u64, 1, 5, 5, 900, 70_000] {
            h.record(v);
        }
        TelemetrySnapshot {
            samples: r.snapshot(),
            events: vec![TimedEvent {
                t_ns: 42,
                seq: 0,
                event: Event::RelayNack { host: 1, status: 3 },
            }],
            dropped_events: 0,
        }
    }

    #[test]
    fn exposition_contains_typed_samples() {
        let text = sample_snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE ff_a_total counter"));
        assert!(text.contains("ff_a_total{host=\"1\"} 7"));
        assert!(text.contains("# TYPE ff_depth gauge"));
        assert!(text.contains("ff_depth -2"));
        assert!(text.contains("# TYPE ff_lat_ns histogram"));
        assert!(text.contains("ff_lat_ns_bucket{host=\"1\",transport=\"rdma\",le=\"+Inf\"} 6"));
        assert!(text.contains("ff_lat_ns_count{host=\"1\",transport=\"rdma\"} 6"));
    }

    #[test]
    fn exposition_round_trips() {
        sample_snapshot().verify_exposition_round_trip().unwrap();
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_exposition() {
        let text = sample_snapshot().to_prometheus_text();
        let parsed = parse_exposition(&text).unwrap();
        let mut last = 0.0;
        let mut bucket_lines = 0;
        for s in parsed
            .samples
            .iter()
            .filter(|s| s.name == "ff_lat_ns_bucket")
        {
            assert!(s.value >= last, "buckets must be cumulative");
            last = s.value;
            bucket_lines += 1;
        }
        // 5 distinct nonzero buckets (0, 1, 4-7, 512-1023, 65536-131071) + +Inf.
        assert_eq!(bucket_lines, 6);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_exposition("ff_a{host=\"1\" 3").is_err());
        assert!(parse_exposition("ff_a{host=1} 3").is_err());
        assert!(parse_exposition("ff_a notanumber").is_err());
        assert!(parse_exposition("# TYPE ff_a").is_err());
    }

    #[test]
    fn round_trip_detects_tampering() {
        let snap = sample_snapshot();
        let text = snap.to_prometheus_text();
        let tampered = text.replace("ff_a_total{host=\"1\"} 7", "ff_a_total{host=\"1\"} 8");
        let parsed = parse_exposition(&tampered).unwrap();
        assert_eq!(
            parsed.value_of("ff_a_total", &[("host".into(), "1".into())]),
            Some(8.0)
        );
        // The snapshot's own round-trip must still pass on untampered text.
        snap.verify_exposition_round_trip().unwrap();
    }

    #[test]
    fn json_dump_mentions_every_section() {
        let json = sample_snapshot().to_json();
        assert!(json.starts_with("{\"metrics\":["));
        assert!(json.contains("\"type\":\"histogram\""));
        assert!(json.contains("\"p99\":"));
        assert!(json.contains("\"type\":\"relay_nack\""));
        assert!(json.ends_with("\"dropped_events\":0}"));
    }

    #[test]
    fn timeline_helpers_filter_by_qpn() {
        let mut snap = sample_snapshot();
        snap.events.push(TimedEvent {
            t_ns: 50,
            seq: 1,
            event: Event::PathTransition {
                container: 3,
                qpn: 9,
                kind: crate::recorder::TransitionKind::Bound,
                reason: None,
                epoch: 1,
                from: "none",
                to: "rdma",
                upgrade: false,
            },
        });
        assert_eq!(snap.path_timeline(3, 9).len(), 1);
        assert_eq!(snap.path_timeline(3, 8).len(), 0);
        assert_eq!(snap.path_timeline(4, 9).len(), 0);
        assert_eq!(snap.counter_total("ff_a_total"), 10);
    }
}
