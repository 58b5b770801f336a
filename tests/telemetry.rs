//! End-to-end telemetry: one chaos/lifecycle run (NIC death → restore →
//! migrate) must leave the cluster hub with (a) counters that agree
//! exactly with the flight recorder's path-transition timeline, epoch by
//! epoch, and (b) a text exposition that round-trips through a parser.
//!
//! This is the acceptance test for the unified telemetry layer: the
//! counters live on the metric-registry side, the timeline on the
//! flight-recorder side, and both are fed from the *same* call sites in
//! `FfQp` — so any drift between them is an instrumentation bug, not a
//! test flake.

use freeflow::binding::BindingPhase;
use freeflow::qp::FfPath;
use freeflow::{Container, FreeFlowCluster};
use freeflow_socket::{FfStream, SocketStack};
use freeflow_telemetry::{Event, LabelSet, TimedEvent, TransitionKind};
use freeflow_types::{HostCaps, TenantId, TransportKind};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[allow(clippy::type_complexity)]
fn streaming_pair() -> (
    Arc<FreeFlowCluster>,
    Container,
    Container,
    FfStream,
    FfStream,
) {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let a = cluster.launch(TenantId::new(1), h0).unwrap();
    let b = cluster.launch(TenantId::new(1), h1).unwrap();

    let stack = SocketStack::new();
    let listener = stack.bind(&b, 7100).unwrap();
    let server_ip = b.ip();
    let accept = std::thread::spawn(move || {
        let s = listener.accept(Duration::from_secs(10)).unwrap();
        (s, b)
    });
    let client = stack.connect(&a, server_ip, 7100).unwrap();
    let (server, b) = accept.join().unwrap();
    (cluster, a, b, client, server)
}

fn roundtrip(client: &mut FfStream, server: &mut FfStream, msg: &[u8]) {
    client.write_all(msg).unwrap();
    let mut got = vec![0u8; msg.len()];
    server.read_exact(&mut got).unwrap();
    assert_eq!(got, msg);
    server.write_all(&got).unwrap();
    let mut back = vec![0u8; msg.len()];
    client.read_exact(&mut back).unwrap();
    assert_eq!(back, msg);
}

/// Pull the `PathTransition` payloads out of a QP's timeline.
fn transitions(timeline: &[TimedEvent]) -> Vec<(TransitionKind, Option<&'static str>, u64, bool)> {
    timeline
        .iter()
        .filter_map(|te| match te.event {
            Event::PathTransition {
                kind,
                reason,
                epoch,
                upgrade,
                ..
            } => Some((kind, reason, epoch, upgrade)),
            _ => None,
        })
        .collect()
}

#[test]
fn chaos_run_yields_consistent_counters_timeline_and_exposition() {
    let (cluster, a, b, mut client, mut server) = streaming_pair();
    let h0 = a.host();
    let client_qpn = client.qp().qp_num();
    let client_labels = LabelSet::host(h0.raw()).with_container(a.id().raw());

    // Phase 1: baseline over RDMA.
    roundtrip(&mut client, &mut server, b"over rdma");
    let epoch0 = client.qp().epoch();
    assert_eq!(epoch0, 1, "first bind starts epoch 1");

    // Phase 2: NIC death → reactive failover onto kernel TCP.
    cluster.fail_nic(h0).unwrap();
    client.write_all(b"through the outage").unwrap();
    wait_until("reactive failover onto TCP", Duration::from_secs(5), || {
        client.qp().failover_count() == 1
    });
    cluster.refresh_routes();
    client.flush().unwrap();
    let mut got = vec![0u8; b"through the outage".len()];
    server.read_exact(&mut got).unwrap();
    roundtrip(&mut client, &mut server, b"settled on tcp");

    // Phase 3: NIC restore → planned upgrade back onto RDMA.
    cluster.restore_nic(h0).unwrap();
    cluster.refresh_routes();
    wait_until(
        "planned upgrade back onto RDMA",
        Duration::from_secs(5),
        || {
            matches!(
                client.qp().path(),
                FfPath::Remote {
                    transport: TransportKind::Rdma,
                    ..
                }
            ) && client.qp().binding_phase() == BindingPhase::Bound
        },
    );
    roundtrip(&mut client, &mut server, b"back on rdma");

    // Phase 4: migrate the server onto our host → Remote→Local collapse.
    let b = cluster.migrate(b, h0).unwrap();
    wait_until(
        "collapse onto shared memory",
        Duration::from_secs(5),
        || {
            matches!(client.qp().path(), FfPath::Local { .. })
                && client.qp().binding_phase() == BindingPhase::Bound
                && matches!(server.qp().path(), FfPath::Local { .. })
                && server.qp().binding_phase() == BindingPhase::Bound
        },
    );
    roundtrip(&mut client, &mut server, b"co-located now");

    let failovers = client.qp().failover_count();
    let upgrades = client.qp().upgrade_count();
    let final_epoch = client.qp().epoch();
    assert_eq!(failovers, 1);
    // Upgrade back to RDMA plus the collapse onto shared memory.
    assert_eq!(upgrades, 2);
    assert_eq!(final_epoch, epoch0 + 3, "failover + upgrade + collapse");

    let snap = cluster.telemetry();

    // --- counters agree with the QP's own view -------------------------
    assert_eq!(
        snap.counter_value("ff_qp_failovers_total", client_labels),
        Some(failovers)
    );
    assert_eq!(
        snap.counter_value("ff_qp_upgrades_total", client_labels),
        Some(upgrades)
    );
    assert_eq!(
        snap.counter_value("ff_qp_rebinds_total", client_labels),
        Some(final_epoch - 1),
        "every epoch past the first came from a completed rebind"
    );

    // --- the flight recorder reconstructs the exact timeline -----------
    assert_eq!(snap.dropped_events, 0, "ring must hold the whole run");
    let timeline = snap.path_timeline(a.id().raw(), client_qpn);
    let trans = transitions(&timeline);
    assert!(!trans.is_empty(), "timeline must not be empty");

    // It starts with the connect-time bind at epoch 1.
    assert_eq!(trans[0].0, TransitionKind::Bound);
    assert_eq!(trans[0].2, 1);

    // Every failover counter increment has exactly one matching ordered
    // RebindStarted(failover) event...
    let failover_rebinds: Vec<_> = trans
        .iter()
        .filter(|(k, r, _, _)| *k == TransitionKind::RebindStarted && *r == Some("failover"))
        .collect();
    assert_eq!(failover_rebinds.len() as u64, failovers);
    // ...carrying the epoch that the failure ended (the first one ends
    // the connect epoch).
    assert_eq!(failover_rebinds[0].2, epoch0);

    // Every upgrade counter increment has exactly one Rebound event with
    // the upgrade flag set.
    let upgrade_rebounds: Vec<_> = trans
        .iter()
        .filter(|(k, _, _, up)| *k == TransitionKind::Rebound && *up)
        .collect();
    assert_eq!(upgrade_rebounds.len() as u64, upgrades);

    // Rebound events carry the *new* epoch, strictly increasing, ending
    // at the QP's final epoch; count matches the rebind counter.
    let rebound_epochs: Vec<u64> = trans
        .iter()
        .filter(|(k, _, _, _)| *k == TransitionKind::Rebound)
        .map(|(_, _, e, _)| *e)
        .collect();
    assert_eq!(rebound_epochs.len() as u64, final_epoch - 1);
    assert!(
        rebound_epochs.windows(2).all(|w| w[0] < w[1]),
        "rebound epochs must be strictly increasing: {rebound_epochs:?}"
    );
    assert_eq!(*rebound_epochs.last().unwrap(), final_epoch);

    // The run's story in order: bind, failover, upgrade, collapse —
    // with a Rebound after each rebind it started.
    let rebind_reasons: Vec<_> = trans
        .iter()
        .filter(|(k, _, _, _)| *k == TransitionKind::RebindStarted)
        .map(|(_, r, _, _)| r.unwrap())
        .collect();
    assert_eq!(rebind_reasons, ["failover", "upgrade", "collapse"]);

    // Timestamps are monotone (the recorder orders by ticket).
    assert!(timeline.windows(2).all(|w| w[0].seq < w[1].seq));

    // --- the wider stack reported in too -------------------------------
    assert!(
        snap.counter_total("ff_orchestrator_events_total") >= 4,
        "health changes, path updates and the migration all publish"
    );
    assert!(
        snap.counter_value("ff_qp_resent_total", client_labels)
            .unwrap_or(0)
            >= 1,
        "the frame posted into the outage was re-sent"
    );
    assert!(snap.counter_total("ff_cq_completions_total") > 0);
    let lat = snap
        .histogram("ff_qp_remote_op_latency_ns", client_labels)
        .expect("remote-op latency histogram");
    assert!(lat.count() > 0);
    assert!(lat.p50() <= lat.p99());

    // --- text exposition round-trips through the parser ----------------
    snap.verify_exposition_round_trip().unwrap();
    let text = snap.to_prometheus_text();
    let parsed = freeflow_telemetry::parse_exposition(&text).unwrap();
    let labels = vec![
        ("host".to_string(), h0.raw().to_string()),
        ("container".to_string(), a.id().raw().to_string()),
    ];
    assert_eq!(
        parsed.value_of("ff_qp_failovers_total", &labels),
        Some(failovers as f64)
    );
    // And the JSON dump carries the same counter.
    let json = snap.to_json();
    assert!(json.contains("\"ff_qp_failovers_total\""));

    client.shutdown().unwrap();
    drop(b);
}

/// A quiet cluster still exposes a parseable (if sparse) snapshot, and
/// two consecutive snapshots are monotone on counters.
#[test]
fn snapshots_are_monotone_and_parseable_on_a_live_cluster() {
    let (cluster, _a, _b, mut client, mut server) = streaming_pair();
    roundtrip(&mut client, &mut server, b"first");
    let s1 = cluster.telemetry();
    roundtrip(&mut client, &mut server, b"second");
    let s2 = cluster.telemetry();
    let total1 = s1.counter_total("ff_cq_completions_total");
    let total2 = s2.counter_total("ff_cq_completions_total");
    assert!(total1 > 0);
    assert!(total2 >= total1, "counters never go backwards");
    s1.verify_exposition_round_trip().unwrap();
    s2.verify_exposition_round_trip().unwrap();
    client.shutdown().unwrap();
}
