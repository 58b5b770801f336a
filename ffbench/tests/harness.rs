//! The harness end to end, in the debug profile: short runs of all four
//! workloads and the probes, the result document through `compare`, and
//! the committed `BENCHMARK.json` against the metric tables. These compile
//! against every layer's public API, so drift there fails here first.

use ffbench::metrics::{self, Source, END_TO_END, PER_LAYER};
use ffbench::oracle::Ledger;
use ffbench::report::{self, Json, RunSet, Verdict};
use ffbench::run::{self, Config, Metric, RunResult};
use ffbench::world::Workload;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn quick(workload: Workload, trace: bool) -> RunResult {
    let cfg = Config {
        workload,
        seed: 42,
        // Five phases share this; a traced run halves it.
        seconds: if trace { 1.0 } else { 2.0 },
        trace,
        setup_builds: 2,
        probe_budget: Duration::ZERO,
        trace_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    };
    run::run(&cfg, &Ledger::new()).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

fn assert_bound_as_placed(r: &RunResult) {
    // `FfPath::label()`: "shm" for Local, the wire transport for Remote.
    assert_eq!(
        r.path == "shm",
        r.workload.same_host(),
        "{} bound to {}",
        r.workload.name(),
        r.path
    );
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_no_failures() {
    for workload in Workload::ALL {
        let r = quick(workload, false);
        assert_bound_as_placed(&r);
        assert_eq!(r.failed, 0, "{}", workload.name());
        assert!(r.attempted > 0);
        assert!(r.lat_samples > 0);
        assert_eq!(r.metrics.len(), END_TO_END.len());
        for (def, m) in END_TO_END.iter().zip(&r.metrics) {
            assert_eq!(def.name, m.name);
            // CPU time is summed over the process's live threads, and this
            // process also runs the other tests, whose threads come and go.
            let positive = m.value > 0.0 || m.name == "cpu_us_per_op";
            assert!(
                m.value.is_finite() && positive,
                "{} {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        // The driver's line is strict: four keys, value + unit per metric.
        let Json::Obj(doc) = Json::parse(&report::result_line(&r)).unwrap() else {
            panic!("result line is not an object");
        };
        let keys: Vec<&str> = doc.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc[0].1, Json::Bool(true));
        let Json::Obj(metrics) = &doc[3].1 else {
            panic!("metrics is not an object");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        for (_, m) in metrics {
            let Json::Obj(fields) = m else {
                panic!("metric is not an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"]);
        }
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric_and_writes_spans() {
    for workload in Workload::ALL {
        let r = quick(workload, true);
        assert_bound_as_placed(&r);
        assert_eq!(r.failed, 0, "{}", workload.name());
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        for (def, m) in PER_LAYER.iter().zip(&r.metrics) {
            assert_eq!(def.name, m.name);
            assert!(
                m.value.is_finite(),
                "{} {} = {}",
                workload.name(),
                m.name,
                m.value
            );
            // A probe times real work, whatever the workload.
            if def.source == Source::Probe && def.name != "core.shm_tax_ns" {
                assert!(m.value > 0.0, "{} = {}", m.name, m.value);
            }
        }
        let value = |name: &str| r.metric(name).unwrap().value;
        // The layer the workload's API enters from the harness was seen;
        // the other API's spans stay empty.
        let (own, other) = if workload.is_socket() {
            ("socket.write_all_self_us", "core.post_send_self_ns")
        } else {
            ("core.post_send_self_ns", "socket.write_all_self_us")
        };
        assert!(value(own) > 0.0, "{} {own}", workload.name());
        assert_eq!(value(other), 0.0, "{} {other}", workload.name());
        // Only a cross-host pair relays.
        assert_eq!(
            value("agent.relayed_msgs_per_op") > 0.0,
            !workload.same_host(),
            "{}",
            workload.name()
        );
        assert_eq!(value("agent.nacks"), 0.0);
        assert_eq!(value("socket.retransmits"), 0.0);
        assert_eq!(value("socket.reorders"), 0.0);

        let file = r
            .trace_file
            .as_ref()
            .expect("traced run names its span file");
        let text = std::fs::read_to_string(file).unwrap();
        let first = Json::parse(text.lines().next().expect("at least one span")).unwrap();
        assert_eq!(first.get("name").and_then(Json::as_str), Some("app.op"));
        assert_eq!(first.get("parent"), Some(&Json::Null));
        for line in text.lines() {
            let span = Json::parse(line).unwrap();
            let at = |k: &str| span.get(k).and_then(Json::as_f64).unwrap();
            assert!(at("end_ns") >= at("start_ns"), "{line}");
            assert!(at("self_ns") <= at("end_ns") - at("start_ns"), "{line}");
        }
    }
}

/// Slices whose interquartile range is about 1 % of their median.
const TIGHT: [f64; 3] = [100.0, 100.5, 101.0];
/// Slices whose interquartile range equals their median.
const WIDE: [f64; 3] = [50.0, 100.0, 150.0];

fn hand_built(workload: Workload, seed: u64, values: [f64; 8], slices: &[f64]) -> RunResult {
    RunResult {
        workload,
        seed,
        seconds: 20.0,
        trace: false,
        attempted: 1000,
        failed: 0,
        path: "shm",
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(def, value)| Metric {
                name: def.name,
                value,
                unit: def.unit,
                slices: slices.to_vec(),
            })
            .collect(),
        lat_samples: 500,
        wall_s: 23.0,
        trace_file: None,
    }
}

#[test]
fn results_round_trip_through_compare() {
    //            setup conn  lat   rate   bulk  pull  cpu  rss
    let base = [0.002, 3.0, 0.80, 1300.0, 68.0, 47.0, 0.9, 73.0];
    let set = |rows: &[[f64; 8]], slices: &[f64]| {
        let text: String = rows
            .iter()
            .enumerate()
            .map(|(i, v)| {
                report::record_line(&hand_built(Workload::VerbsShm, i as u64, *v, slices)) + "\n"
            })
            .collect();
        RunSet::parse(&text).unwrap()
    };
    let a = set(&[base, base, base], &TIGHT);

    // Same numbers: every gated metric is ok.
    let rows = report::compare(&a, &set(&[base], &TIGHT));
    assert_eq!(rows.len(), END_TO_END.len());
    assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));

    // Latency up 40 % (lower is better) and rate down 40 % (higher is
    // better) are both worse; bulk up 40 % is an improvement, not a
    // regression; setup up 20 % stays inside its 0.25 bound.
    let mut b = base;
    b[0] *= 1.2;
    b[2] *= 1.4;
    b[3] *= 0.6;
    b[4] *= 1.4;
    let rows = report::compare(&a, &set(&[b, b, b], &TIGHT));
    let verdict = |name: &str| rows.iter().find(|r| r.metric == name).unwrap().verdict;
    assert_eq!(verdict("lat_p50_us"), Verdict::Worse);
    assert_eq!(verdict("rate_kops"), Verdict::Worse);
    assert_eq!(verdict("bulk_gbps"), Verdict::Ok);
    assert_eq!(verdict("setup_s"), Verdict::Ok);
    let lat = rows.iter().find(|r| r.metric == "lat_p50_us").unwrap();
    assert!((lat.worsening - 0.4).abs() < 1e-9, "{lat:?}");
    assert!(report::compare_table(&rows).contains("worse"));

    // A slice spread wider than the bound: the data cannot say.
    let rows = report::compare(&a, &set(&[b], &WIDE));
    assert!(rows.iter().all(|r| r.verdict == Verdict::Unresolved));

    // With four or more runs the run-to-run spread is what counts.
    let mut noisy = [base; 4];
    noisy[0][2] *= 0.5;
    noisy[3][2] *= 1.5;
    let rows = report::compare(&a, &set(&noisy, &[]));
    let verdict = |name: &str| rows.iter().find(|r| r.metric == name).unwrap().verdict;
    assert_eq!(verdict("lat_p50_us"), Verdict::Unresolved);
    assert_eq!(verdict("rate_kops"), Verdict::Ok);

    assert!(RunSet::parse("").is_err());
    assert!(RunSet::parse("{\"workload\": \"x\"}").is_err());
    assert!(RunSet::parse("not json").is_err());
}

#[test]
fn json_reader_handles_the_documents_we_write() {
    let doc = Json::parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"yA"}} "#).unwrap();
    assert_eq!(
        doc.get("a"),
        Some(&Json::Arr(vec![
            Json::Num(1.0),
            Json::Num(-2500.0),
            Json::Bool(true),
            Json::Null
        ]))
    );
    assert_eq!(
        doc.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
        Some("x\"yA")
    );
    for bad in ["", "{", "{\"a\" 1}", "[1,]", "1 2", "\"open", "nul"] {
        assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
    }
    let deep = "[".repeat(40) + &"]".repeat(40);
    assert!(Json::parse(&deep).is_err());
}

fn well_formed_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[test]
fn committed_benchmark_json_is_the_manifest_and_within_the_contract() {
    let manifest = metrics::manifest();
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    assert_eq!(
        std::fs::read_to_string(&committed).unwrap(),
        manifest,
        "regenerate with `ffbench manifest > BENCHMARK.json`"
    );
    assert!(manifest.len() <= 64 << 10);
    let doc = Json::parse(&manifest).unwrap();
    let list = |key: &str| match doc.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("{key}: {other:?}"),
    };
    let text = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_string();

    let workloads = list("workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in &workloads {
        let why = text(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why:?}");
    }
    let end_to_end = list("end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    for m in &end_to_end {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    assert!(end_to_end.iter().any(|m| {
        text(m, "name") == "setup_s" && text(m, "unit") == "s" && text(m, "better") == "lower"
    }));
    let per_layer = list("per_layer");
    assert!((1..=128).contains(&per_layer.len()));

    let mut names = Vec::new();
    for item in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        let name = text(item, "name");
        assert!(well_formed_name(&name), "{name:?}");
        names.push(name);
    }
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    for m in end_to_end.iter().chain(&per_layer) {
        let unit = text(m, "unit");
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        assert!(
            !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok),
            "{unit:?}"
        );
        assert!(["lower", "higher"].contains(&text(m, "better").as_str()));
    }
    let Some(Json::Num(run_seconds)) = doc.get("run_seconds") else {
        panic!("run_seconds");
    };
    assert!((1.0..=60.0).contains(run_seconds) && run_seconds.fract() == 0.0);
    assert_eq!(list("paths"), vec![Json::Str("ffbench".into())]);
    assert!(list("command").len() <= 32);
}
