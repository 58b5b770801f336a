//! Chaos suite: deterministic fault injection across both halves of the
//! reproduction.
//!
//! * **Simulator**: seeded [`FaultPlan`]s inject NIC death, link flaps and
//!   host crashes mid-traffic; scenarios must converge (every surviving
//!   flow finishes) and the same seed must produce a byte-identical
//!   [`freeflow_netsim::SimReport`].
//! * **Runtime**: a live cluster loses a kernel-bypass NIC under an open
//!   QP. The QP must never hang — outstanding work requests complete with
//!   `RETRY_EXC_ERR` within the configured timeout, the QP re-paths
//!   through the orchestrator, and the next send succeeds over host TCP.
//! * **Control plane**: the orchestrator itself fails (or a host is
//!   partitioned from it). Established shm and RDMA traffic must keep
//!   flowing on cached routes with zero errors, new decisions degrade to
//!   universal TCP, and after `restore_orchestrator()` a snapshot resync
//!   reconciles everything that happened while deaf — including a live
//!   migration (DESIGN.md §9).

use freeflow::binding::BindingPhase;
use freeflow::qp::FfPath;
use freeflow::{Container, FreeFlowCluster, MigrationCrashPoint, MigrationOutcome};
use freeflow_netsim::{FaultPlan, MigrationCrashPhase, NetSim, SimRng, Workload};
use freeflow_socket::{FfStream, SocketStack};
use freeflow_telemetry::{Event, TelemetrySnapshot, TransitionKind};
use freeflow_types::{HostCaps, Nanos, TenantId, TransportKind};
use freeflow_verbs::wr::{AccessFlags, RecvWr, SendWr};
use freeflow_verbs::{CompletionQueue, MemoryRegion, QpState, WcStatus};
use std::sync::Arc;
use std::time::{Duration, Instant};

const T: Duration = Duration::from_secs(15);

// --- simulator scenarios ---------------------------------------------------

/// NIC death mid-stream: in-flight messages are lost, the flow re-paths
/// onto host TCP and still delivers everything.
#[test]
fn chaos_nic_death_converges_on_tcp() {
    let mut sim = NetSim::testbed();
    let h0 = sim.add_host(HostCaps::paper_testbed());
    let h1 = sim.add_host(HostCaps::paper_testbed());
    let a = sim.add_container(h0);
    let b = sim.add_container(h1);
    sim.add_flow(a, b, TransportKind::Rdma, Workload::bulk(1, 200));
    sim.set_fault_plan(FaultPlan::new(11).nic_down(Nanos::from_micros(300), h0));
    let r = sim.run_to_completion(Nanos::from_secs(30));
    assert!(sim.all_finished(), "flow must converge after NIC death");
    let f = &r.flows[0];
    assert_eq!(f.delivered_msgs, 200);
    assert_eq!(f.failovers, 1);
    assert!(f.lost_msgs > 0, "a mid-stream fault loses in-flight data");
    assert_eq!(f.transport, TransportKind::TcpHost);
    assert!(!f.killed);
    assert_eq!(r.faults.len(), 1);
    assert_eq!(r.faults[0].flows_affected, 1);
}

/// Link flap: traffic pauses for the outage, resumes on the *same*
/// transport (no failover), and everything is delivered.
#[test]
fn chaos_link_flap_recovers_without_failover() {
    let mut sim = NetSim::testbed();
    let h0 = sim.add_host(HostCaps::paper_testbed());
    let h1 = sim.add_host(HostCaps::paper_testbed());
    let a = sim.add_container(h0);
    let b = sim.add_container(h1);
    sim.add_flow(a, b, TransportKind::Rdma, Workload::bulk(1, 80));
    let flap_at = Nanos::from_micros(250);
    let outage = Nanos::from_millis(1);
    sim.set_fault_plan(FaultPlan::new(12).link_flap(flap_at, h1, outage));
    let r = sim.run_to_completion(Nanos::from_secs(30));
    assert!(sim.all_finished());
    let f = &r.flows[0];
    assert_eq!(f.delivered_msgs, 80);
    assert_eq!(f.failovers, 0, "a flap is transient: same transport");
    assert_eq!(f.transport, TransportKind::Rdma);
    assert!(f.lost_msgs > 0);
    assert!(
        sim.now() >= flap_at + outage,
        "completion cannot predate the outage end"
    );
}

/// Host crash: flows touching the dead host are killed (and count as
/// finished so the sim converges); everyone else completes untouched.
#[test]
fn chaos_host_crash_partitions_cleanly() {
    let mut sim = NetSim::testbed();
    let h0 = sim.add_host(HostCaps::paper_testbed());
    let h1 = sim.add_host(HostCaps::paper_testbed());
    let h2 = sim.add_host(HostCaps::paper_testbed());
    let a = sim.add_container(h0);
    let b = sim.add_container(h1);
    let c = sim.add_container(h0);
    let d = sim.add_container(h2);
    sim.add_flow(a, b, TransportKind::Rdma, Workload::bulk(1, 60));
    sim.add_flow(c, d, TransportKind::Rdma, Workload::bulk(1, 60));
    sim.set_fault_plan(FaultPlan::new(13).host_crash(Nanos::from_micros(400), h2));
    let r = sim.run_to_completion(Nanos::from_secs(30));
    assert!(sim.all_finished(), "killed flows must not wedge the sim");
    assert!(!r.flows[0].killed);
    assert_eq!(r.flows[0].delivered_msgs, 60);
    assert!(r.flows[1].killed);
    assert!(r.flows[1].delivered_msgs < 60);
}

/// The reproducibility contract: a randomized fault plan over randomized
/// workloads, run twice from the same seed, yields byte-identical reports.
/// A different seed yields a different schedule.
#[test]
fn chaos_same_seed_reproduces_byte_identical_reports() {
    let run = |seed: u64| {
        let mut sim = NetSim::testbed();
        let h0 = sim.add_host(HostCaps::paper_testbed());
        let h1 = sim.add_host(HostCaps::paper_testbed());
        let h2 = sim.add_host(HostCaps::paper_testbed());
        let mut rng = SimRng::new(seed);
        for (src_h, dst_h) in [(h0, h1), (h1, h2), (h0, h2), (h2, h0)] {
            let a = sim.add_container(src_h);
            let b = sim.add_container(dst_h);
            sim.add_flow(a, b, TransportKind::Rdma, Workload::random(&mut rng));
        }
        sim.set_fault_plan(FaultPlan::randomized(seed, 3, 2, Nanos::from_millis(2)));
        let report = sim.run_to_completion(Nanos::from_secs(60));
        assert!(sim.all_finished(), "seed {seed} failed to converge");
        format!("{report:?}")
    };
    assert_eq!(run(2024), run(2024), "same seed, same bytes");
    assert_ne!(run(2024), run(2025), "different seed, different schedule");
}

/// Every fault class drawn from one randomized plan is recorded in the
/// report with the fault's scheduled time, in order.
#[test]
fn chaos_fault_records_match_the_plan() {
    let plan = FaultPlan::randomized(7, 2, 6, Nanos::from_millis(3));
    // Records surface in firing (time) order; the plan is in insertion order.
    let mut expected: Vec<_> = plan.faults().iter().map(|f| (f.at, f.kind)).collect();
    expected.sort_by_key(|(at, _)| *at);
    let mut sim = NetSim::testbed();
    let h0 = sim.add_host(HostCaps::paper_testbed());
    let h1 = sim.add_host(HostCaps::paper_testbed());
    let a = sim.add_container(h0);
    let b = sim.add_container(h1);
    sim.add_flow(a, b, TransportKind::Rdma, Workload::bulk(1, 100));
    sim.set_fault_plan(plan);
    let r = sim.run_to_completion(Nanos::from_secs(60));
    assert_eq!(r.faults.len(), expected.len());
    for (rec, (at, kind)) in r.faults.iter().zip(expected) {
        assert_eq!(rec.at, at);
        assert_eq!(rec.kind, kind);
    }
}

// --- runtime failover ------------------------------------------------------

/// The acceptance scenario for the live stack: a QP riding RDMA loses its
/// NIC mid-connection. The outstanding send completes with
/// `RETRY_EXC_ERR` (it does NOT hang), the QP transparently re-paths via
/// the orchestrator, and once the agents' routes converge the next send
/// arrives over host TCP — same QP, same API.
#[test]
fn chaos_qp_fails_over_from_rdma_to_tcp() {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let tenant = TenantId::new(1);
    let a = cluster.launch(tenant, h0).unwrap();
    let b = cluster.launch(tenant, h1).unwrap();

    let mr_a = a.register(4096, AccessFlags::all()).unwrap();
    let mr_b = b.register(4096, AccessFlags::all()).unwrap();
    let cq_a = a.create_cq(16);
    let cq_b = b.create_cq(16);
    let qp_a = a.create_qp(&cq_a, &cq_a, 8, 8).unwrap();
    let qp_b = b.create_qp(&cq_b, &cq_b, 8, 8).unwrap();
    qp_a.connect(qp_b.endpoint()).unwrap();
    qp_b.connect(qp_a.endpoint()).unwrap();
    match qp_a.path() {
        FfPath::Remote { transport, .. } => assert_eq!(transport, TransportKind::Rdma),
        other => panic!("expected remote RDMA path, got {other:?}"),
    }

    // Send #1: healthy RDMA path.
    qp_b.post_recv(RecvWr::new(1, mr_b.sge(0, 4096))).unwrap();
    mr_a.write(0, b"before").unwrap();
    qp_a.post_send(SendWr::send(101, mr_a.sge(0, 6))).unwrap();
    assert!(cq_b.wait_one(T).unwrap().status.is_ok());
    assert!(cq_a.wait_one(T).unwrap().status.is_ok());

    // The RDMA NIC dies. Routes are NOT refreshed yet: the forwarding
    // plane still points at the dead wire, exactly the window where a
    // naive implementation hangs.
    cluster.fail_nic(h0).unwrap();

    // Send #2: must fail loudly within the timeout, not hang.
    qp_b.post_recv(RecvWr::new(2, mr_b.sge(0, 4096))).unwrap();
    mr_a.write(0, b"doomed").unwrap();
    qp_a.post_send(SendWr::send(102, mr_a.sge(0, 6))).unwrap();
    let wc = cq_a
        .wait_one(Duration::from_secs(5))
        .expect("failure must surface as a completion, not a hang");
    assert_eq!(wc.wr_id, 102);
    assert_eq!(wc.status, WcStatus::RetryExcError);

    // The QP re-pathed itself through the orchestrator, which already
    // knows the NIC is dead: the new path is host TCP.
    assert_eq!(qp_a.failover_count(), 1);
    match qp_a.path() {
        FfPath::Remote { transport, .. } => assert_eq!(transport, TransportKind::TcpHost),
        other => panic!("expected re-pathed remote QP, got {other:?}"),
    }

    // Forwarding converges onto the surviving TCP wires; send #3 works.
    cluster.refresh_routes();
    mr_a.write(0, b"after!").unwrap();
    qp_a.post_send(SendWr::send(103, mr_a.sge(0, 6))).unwrap();
    let wc_b = cq_b.wait_one(T).unwrap();
    assert!(wc_b.status.is_ok(), "post-failover delivery: {wc_b:?}");
    let wc_a = cq_a.wait_one(T).unwrap();
    assert_eq!(wc_a.wr_id, 103);
    assert!(wc_a.status.is_ok(), "post-failover send: {wc_a:?}");
    let mut got = [0u8; 6];
    mr_b.read(0, &mut got).unwrap();
    assert_eq!(&got, b"after!");
}

/// Routes that converge late are not a second failure: after the failover
/// a send the agent still forwards onto the dead wire flushes with
/// `RETRY_EXC_ERR`, but the QP stays bound to TCP — no second failover,
/// no error state — and once the routes converge the next send lands.
#[test]
fn chaos_send_on_a_stale_route_after_failover_is_not_a_second_failure() {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let a = cluster.launch(TenantId::new(1), h0).unwrap();
    let b = cluster.launch(TenantId::new(1), h1).unwrap();
    let mr_a = a.register(4096, AccessFlags::all()).unwrap();
    let mr_b = b.register(4096, AccessFlags::all()).unwrap();
    let (cq_a, cq_b) = (a.create_cq(16), b.create_cq(16));
    let qp_a = a.create_qp(&cq_a, &cq_a, 8, 8).unwrap();
    let qp_b = b.create_qp(&cq_b, &cq_b, 8, 8).unwrap();
    qp_a.connect(qp_b.endpoint()).unwrap();
    qp_b.connect(qp_a.endpoint()).unwrap();
    qp_b.post_recv(RecvWr::new(1, mr_b.sge(0, 4096))).unwrap();

    cluster.fail_nic(h0).unwrap();
    mr_a.write(0, b"twice!").unwrap();
    // #1 fails the QP over; #2 dies on the route still at the dead wire.
    for wr_id in [1, 2] {
        qp_a.post_send(SendWr::send(wr_id, mr_a.sge(0, 6))).unwrap();
        let wc = cq_a.wait_one(T).expect("a completion, not a hang");
        assert_eq!((wc.wr_id, wc.status), (wr_id, WcStatus::RetryExcError));
        assert_eq!(qp_a.failover_count(), 1, "after send #{wr_id}");
        assert_eq!(qp_a.state(), QpState::Rts, "after send #{wr_id}");
        match qp_a.path() {
            FfPath::Remote { transport, .. } => assert_eq!(transport, TransportKind::TcpHost),
            other => panic!("send #{wr_id} left the QP on {other:?}"),
        }
    }

    cluster.refresh_routes();
    qp_a.post_send(SendWr::send(3, mr_a.sge(0, 6))).unwrap();
    assert!(cq_b.wait_one(T).unwrap().status.is_ok());
    let wc = cq_a.wait_one(T).unwrap();
    assert_eq!((wc.wr_id, wc.status), (3, WcStatus::Success));
    assert_eq!(qp_a.failover_count(), 1);
}

/// Batched chained posts under failover: a chain posted onto a dead wire
/// surfaces exactly one `RETRY_EXC_ERR` per WR (no hang, no duplicate),
/// the QP re-paths, and the next chain flows end to end over TCP —
/// completion conservation across the fault, with the lifecycle counters
/// matching the flight-recorder timeline event for event.
#[test]
fn chaos_batched_chain_fails_over_and_conserves_completions() {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let tenant = TenantId::new(1);
    let a = cluster.launch(tenant, h0).unwrap();
    let b = cluster.launch(tenant, h1).unwrap();
    let mr_a = a.register(16 << 10, AccessFlags::all()).unwrap();
    let mr_b = b.register(16 << 10, AccessFlags::all()).unwrap();
    let cq_a = a.create_cq(64);
    let cq_b = b.create_cq(64);
    let qp_a = a.create_qp(&cq_a, &cq_a, 32, 32).unwrap();
    let qp_b = b.create_qp(&cq_b, &cq_b, 32, 32).unwrap();
    qp_a.connect(qp_b.endpoint()).unwrap();
    qp_b.connect(qp_a.endpoint()).unwrap();

    const N: u64 = 8;
    let chain = |base: u64, tag: u8| -> Vec<SendWr> {
        (0..N)
            .map(|i| {
                mr_a.write(i * 512, &[tag ^ i as u8; 64]).unwrap();
                SendWr::send(base + i, mr_a.sge(i * 512, 64))
            })
            .collect()
    };
    let drain_sends = |n: u64, wait: Duration| -> Vec<(u64, WcStatus)> {
        let mut got: Vec<(u64, WcStatus)> = (0..n)
            .map(|_| {
                let wc = cq_a.wait_one(wait).expect("send completion, not a hang");
                (wc.wr_id, wc.status)
            })
            .collect();
        got.sort_unstable_by_key(|(id, _)| *id);
        got
    };

    // Healthy chain over RDMA: every frame lands, in order.
    for i in 0..N {
        qp_b.post_recv(RecvWr::new(i, mr_b.sge(i * 512, 512)))
            .unwrap();
    }
    qp_a.post_send_batch(chain(100, 0x5A)).unwrap();
    for i in 0..N {
        let rwc = cq_b.wait_one(T).unwrap();
        assert!(rwc.status.is_ok(), "{rwc:?}");
        assert_eq!(rwc.wr_id, i, "chained frames arrive in posted order");
        let mut got = [0u8; 64];
        mr_b.read(i * 512, &mut got).unwrap();
        assert_eq!(got, [0x5Au8 ^ i as u8; 64]);
    }
    for (k, (id, status)) in drain_sends(N, T).into_iter().enumerate() {
        assert_eq!(id, 100 + k as u64);
        assert!(status.is_ok(), "{status:?}");
    }

    // The NIC dies with routes still pointing at it: the whole chain must
    // flush with RETRY_EXC_ERR — one completion per WR, exactly once.
    cluster.fail_nic(h0).unwrap();
    qp_a.post_send_batch(chain(200, 0xC3)).unwrap();
    for (k, (id, status)) in drain_sends(N, Duration::from_secs(5))
        .into_iter()
        .enumerate()
    {
        assert_eq!(id, 200 + k as u64, "each WR flushes exactly once");
        assert_eq!(status, WcStatus::RetryExcError);
    }
    assert_eq!(qp_a.failover_count(), 1);

    // Routes converge onto TCP: a fresh chain flows end to end.
    cluster.refresh_routes();
    for i in 0..N {
        qp_b.post_recv(RecvWr::new(16 + i, mr_b.sge(i * 512, 512)))
            .unwrap();
    }
    qp_a.post_send_batch(chain(300, 0x99)).unwrap();
    for i in 0..N {
        let rwc = cq_b.wait_one(T).unwrap();
        assert!(rwc.status.is_ok(), "post-failover delivery: {rwc:?}");
        assert_eq!(rwc.wr_id, 16 + i);
    }
    for (k, (id, status)) in drain_sends(N, T).into_iter().enumerate() {
        assert_eq!(id, 300 + k as u64);
        assert!(status.is_ok(), "{status:?}");
    }
    assert!(cq_a.poll_one().is_none(), "no surplus send completions");
    assert!(cq_b.poll_one().is_none(), "no surplus recv completions");

    // Lifecycle counters match the flight-recorder timeline.
    let snap = cluster.telemetry();
    let drains = snap
        .events
        .iter()
        .filter(|te| {
            matches!(
                te.event,
                Event::PathTransition {
                    kind: TransitionKind::DrainStarted,
                    reason: Some("failover"),
                    ..
                }
            )
        })
        .count() as u64;
    assert_eq!(drains, 1, "one failover drain in the timeline");
    assert_eq!(snap.counter_total("ff_qp_failovers_total"), drains);
    let rebounds = snap
        .events
        .iter()
        .filter(|te| {
            matches!(
                te.event,
                Event::PathTransition {
                    kind: TransitionKind::Rebound,
                    ..
                }
            )
        })
        .count() as u64;
    assert_eq!(snap.counter_total("ff_qp_rebinds_total"), rebounds);
    // The chains actually coalesced below the API: the wire batches
    // saved container doorbells on delivery.
    assert!(
        snap.counter_total("ff_doorbells_coalesced_total") >= 1,
        "batched delivery must coalesce at least one doorbell"
    );
}

/// A crashed peer host: the orchestrator marks it down, pending work
/// errors out, and re-pathing fails (nothing survives) — the QP lands in
/// the error state instead of hanging, and later sends are rejected.
#[test]
fn chaos_host_crash_errors_qp_without_hanging() {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let tenant = TenantId::new(1);
    let a = cluster.launch(tenant, h0).unwrap();
    let b = cluster.launch(tenant, h1).unwrap();

    let mr_a = a.register(4096, AccessFlags::all()).unwrap();
    let cq_a = a.create_cq(16);
    let cq_b = b.create_cq(16);
    let qp_a = a.create_qp(&cq_a, &cq_a, 8, 8).unwrap();
    let qp_b = b.create_qp(&cq_b, &cq_b, 8, 8).unwrap();
    qp_a.connect(qp_b.endpoint()).unwrap();
    qp_b.connect(qp_a.endpoint()).unwrap();

    // Host 1 crashes: every transport toward it is gone. Down the wires
    // and tell the control plane.
    cluster.fail_nic(h1).unwrap();
    let a1 = cluster.agent_of(h1).unwrap();
    if let Some(idx) = a1.wire_of_kind(h0, TransportKind::TcpHost) {
        a1.set_wire_up(idx, false).unwrap();
    }
    cluster.orchestrator().mark_host_down(h1).unwrap();

    // The send must surface RETRY_EXC_ERR; with no path left the QP
    // enters the error state.
    mr_a.write(0, b"lost").unwrap();
    qp_a.post_send(SendWr::send(7, mr_a.sge(0, 4))).unwrap();
    let wc = cq_a
        .wait_one(Duration::from_secs(5))
        .expect("crash must produce an error completion, not a hang");
    assert_eq!(wc.wr_id, 7);
    assert_eq!(wc.status, WcStatus::RetryExcError);
    assert_eq!(qp_a.failover_count(), 0, "no surviving path to fail onto");
    assert!(qp_a.post_send(SendWr::send(8, mr_a.sge(0, 4))).is_err());
}

// --- control-plane resilience ----------------------------------------------

fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Count flight-recorder `ControlPlane` records of one kind.
fn control_events(snap: &TelemetrySnapshot, kind: &str) -> u64 {
    snap.events
        .iter()
        .filter(|te| matches!(te.event, Event::ControlPlane { kind: k, .. } if k == kind))
        .count() as u64
}

type QpPair = (
    Arc<MemoryRegion>,
    Arc<MemoryRegion>,
    Arc<CompletionQueue>,
    Arc<CompletionQueue>,
    Arc<freeflow::FfQp>,
    Arc<freeflow::FfQp>,
);

fn connect_pair(x: &Container, y: &Container) -> QpPair {
    let mr_x = x.register(4096, AccessFlags::all()).unwrap();
    let mr_y = y.register(4096, AccessFlags::all()).unwrap();
    let cq_x = x.create_cq(64);
    let cq_y = y.create_cq(64);
    let qp_x = x.create_qp(&cq_x, &cq_x, 32, 32).unwrap();
    let qp_y = y.create_qp(&cq_y, &cq_y, 32, 32).unwrap();
    qp_x.connect(qp_y.endpoint()).unwrap();
    qp_y.connect(qp_x.endpoint()).unwrap();
    (mr_x, mr_y, cq_x, cq_y, qp_x, qp_y)
}

/// Exchange `n` messages over a pair, asserting every completion on both
/// sides is clean — the "zero errors" half of the acceptance criterion.
fn exchange(pair: &QpPair, n: u64) {
    let (mr_x, mr_y, cq_x, cq_y, qp_x, qp_y) = pair;
    for i in 0..n {
        qp_y.post_recv(RecvWr::new(i, mr_y.sge(0, 4096))).unwrap();
        let msg = [i as u8; 64];
        mr_x.write(0, &msg).unwrap();
        qp_x.post_send(SendWr::send(1000 + i, mr_x.sge(0, 64)))
            .unwrap();
        let rwc = cq_y.wait_one(T).expect("recv completion");
        assert!(rwc.status.is_ok(), "recv errored: {rwc:?}");
        let swc = cq_x.wait_one(T).expect("send completion");
        assert!(swc.status.is_ok(), "send errored: {swc:?}");
        let mut got = [0u8; 64];
        mr_y.read(0, &mut got).unwrap();
        assert_eq!(got, msg);
    }
}

/// The control-plane acceptance scenario: with the orchestrator failed,
/// an established shared-memory pair and an established RDMA pair both
/// complete a full message exchange with zero errors (stale serves
/// counted), a new connection between already-known peers rides the stale
/// cache, a connection to an unknown peer degrades to universal TCP —
/// and after `restore_orchestrator()` the degraded decision is
/// re-verified and upgraded to RDMA. Counters must match the flight
/// recorder throughout.
#[test]
fn chaos_established_paths_survive_orchestrator_outage() {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let tenant = TenantId::new(1);
    let a = cluster.launch(tenant, h0).unwrap();
    let b = cluster.launch(tenant, h0).unwrap();
    let c = cluster.launch(tenant, h0).unwrap();
    let d = cluster.launch(tenant, h1).unwrap();
    // Launched before the outage but never resolved by `c`: the degraded
    // cache-miss case.
    let e = cluster.launch(tenant, h1).unwrap();

    // Establish both data planes while the control plane is healthy.
    let shm = connect_pair(&a, &b);
    assert!(
        matches!(shm.4.path(), FfPath::Local { .. }),
        "co-located pair binds shm"
    );
    let rdma = connect_pair(&c, &d);
    match rdma.4.path() {
        FfPath::Remote { transport, .. } => assert_eq!(transport, TransportKind::Rdma),
        other => panic!("expected remote RDMA path, got {other:?}"),
    }
    exchange(&shm, 4);
    exchange(&rdma, 4);

    // The orchestrator dies. Established traffic must not notice.
    cluster.fail_orchestrator();
    assert!(cluster.orchestrator().is_control_down());
    exchange(&shm, 16);
    exchange(&rdma, 16);

    // A new connection between peers whose location is cached rides the
    // stale entry (counted as stale serves) on the same transport.
    let rdma2 = connect_pair(&c, &d);
    match rdma2.4.path() {
        FfPath::Remote { transport, .. } => assert_eq!(transport, TransportKind::Rdma),
        other => panic!("expected stale-served RDMA path, got {other:?}"),
    }
    exchange(&rdma2, 4);

    // A connection to a peer we never resolved cannot ask the dead
    // orchestrator: the decision degrades to the universal TCP path.
    let deg = connect_pair(&c, &e);
    match deg.4.path() {
        FfPath::Remote { transport, .. } => assert_eq!(transport, TransportKind::TcpHost),
        other => panic!("expected degraded TcpHost path, got {other:?}"),
    }
    exchange(&deg, 4);

    // Counters and flight recorder agree mid-outage.
    let snap = cluster.telemetry();
    let stale = snap.counter_total("ff_orch_stale_serves_total");
    let degraded = snap.counter_total("ff_orch_degraded_decisions_total");
    assert!(stale >= 1, "stale serves must be counted: {stale}");
    assert!(
        degraded >= 1,
        "degraded decisions must be counted: {degraded}"
    );
    assert_eq!(control_events(&snap, "stale_serve"), stale);
    assert_eq!(control_events(&snap, "degraded_decision"), degraded);
    assert_eq!(control_events(&snap, "outage"), 1);
    assert!(
        snap.counter_total("ff_orch_client_failures_total") >= 1,
        "exhausted retry budgets must be visible"
    );

    // Control returns: degraded entries are re-verified on the next
    // resolve and the universal-TCP fallback upgrades onto RDMA.
    cluster.restore_orchestrator();
    wait_until(
        "degraded path upgraded to RDMA",
        Duration::from_secs(5),
        || {
            matches!(
                deg.4.path(),
                FfPath::Remote {
                    transport: TransportKind::Rdma,
                    ..
                }
            ) && deg.4.binding_phase() == BindingPhase::Bound
        },
    );
    exchange(&deg, 4);
    exchange(&shm, 4);
    exchange(&rdma, 4);

    let snap = cluster.telemetry();
    assert_eq!(control_events(&snap, "restore"), 1);
    assert_eq!(
        deg.4.upgrade_count(),
        1,
        "one planned upgrade off the degraded path"
    );
}

fn streaming_pair(cluster: &Arc<FreeFlowCluster>) -> (Container, Container, FfStream, FfStream) {
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let a = cluster.launch(TenantId::new(1), h0).unwrap();
    let b = cluster.launch(TenantId::new(1), h1).unwrap();
    let stack = SocketStack::new();
    let listener = stack.bind(&b, 7300).unwrap();
    let server_ip = b.ip();
    let accept = std::thread::spawn(move || {
        let s = listener.accept(Duration::from_secs(10)).unwrap();
        (s, b)
    });
    let client = stack.connect(&a, server_ip, 7300).unwrap();
    let (server, b) = accept.join().unwrap();
    (a, b, client, server)
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

/// One migration soak: an RDMA stream, optionally with the orchestrator
/// dead around the migration, ending co-located. Returns the client QP's
/// `(failovers, upgrades, epoch)` plus the final telemetry snapshot.
fn migration_soak(outage: bool) -> (u64, u64, u64, TelemetrySnapshot) {
    let cluster = FreeFlowCluster::with_defaults();
    let (a, b, mut client, mut server) = streaming_pair(&cluster);
    let h0 = a.host();
    roundtrip(&mut client, &mut server, b"established on rdma");

    if outage {
        // The orchestrator dies; the established stream keeps flowing on
        // the cached route.
        cluster.fail_orchestrator();
        roundtrip(&mut client, &mut server, b"deaf but flowing");
    }

    // The server migrates onto the client's host. With the control plane
    // down the ContainerMoved event is withheld: the client's library
    // only learns of it from the post-restore snapshot resync.
    let b = cluster.migrate(b, h0).unwrap();

    if outage {
        cluster.restore_orchestrator();
    }

    wait_until(
        "collapse onto shared memory",
        Duration::from_secs(10),
        || {
            matches!(client.qp().path(), FfPath::Local { .. })
                && client.qp().binding_phase() == BindingPhase::Bound
                && matches!(server.qp().path(), FfPath::Local { .. })
                && server.qp().binding_phase() == BindingPhase::Bound
        },
    );
    roundtrip(&mut client, &mut server, b"co-located after resync");

    let out = (
        client.qp().failover_count(),
        client.qp().upgrade_count(),
        client.qp().epoch(),
        cluster.telemetry(),
    );
    client.shutdown().unwrap();
    drop(b);
    out
}

/// The tentpole soak (deterministic, seedless by construction — the only
/// schedule is the program order): a migration that happens while the
/// orchestrator is dead must, after restore + resync, leave the stream
/// exactly where a fully-live migration leaves it — same final transport,
/// same failover/upgrade/epoch counters — with the resync visible in
/// telemetry and the counters matching the flight-recorder timeline.
#[test]
fn chaos_migration_during_orchestrator_outage_matches_live_run() {
    let (live_fo, live_up, live_epoch, live_snap) = migration_soak(false);
    let (deaf_fo, deaf_up, deaf_epoch, deaf_snap) = migration_soak(true);

    // Identical endpoint state: the outage was invisible to the data path.
    assert_eq!(deaf_fo, live_fo, "failovers must match the live run");
    assert_eq!(deaf_up, live_up, "upgrades must match the live run");
    assert_eq!(deaf_epoch, live_epoch, "epochs must match the live run");

    // The live run never resyncs; the deaf run must have reconciled the
    // missed migration through at least one snapshot resync.
    assert_eq!(live_snap.counter_total("ff_orch_resyncs_total"), 0);
    let resyncs = deaf_snap.counter_total("ff_orch_resyncs_total");
    let gaps = deaf_snap.counter_total("ff_orch_feed_gaps_total");
    assert!(resyncs >= 1, "the deaf migration must trigger a resync");
    assert!(gaps >= 1, "the withheld events must surface as a feed gap");

    // Counters match the flight-recorder timeline, event for event.
    assert_eq!(control_events(&deaf_snap, "resync"), resyncs);
    assert_eq!(control_events(&deaf_snap, "gap"), gaps);
    assert_eq!(
        deaf_snap
            .events
            .iter()
            .filter_map(|te| match te.event {
                Event::ControlPlane {
                    kind: "gap",
                    detail,
                    ..
                } => Some(detail),
                _ => None,
            })
            .sum::<u64>(),
        deaf_snap.counter_total("ff_orch_feed_gap_events_total"),
        "gap sizes in the timeline must sum to the gap-event counter"
    );
    assert_eq!(control_events(&deaf_snap, "outage"), 1);
    assert_eq!(control_events(&deaf_snap, "restore"), 1);
}

/// Per-host control partition: the partitioned host's library degrades
/// new decisions, the rest of the cluster still resolves authoritatively,
/// and healing the partition upgrades the degraded path.
#[test]
fn chaos_control_partition_degrades_only_the_partitioned_host() {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let h2 = cluster.add_host(HostCaps::paper_testbed());
    let tenant = TenantId::new(1);
    let a = cluster.launch(tenant, h0).unwrap();
    let b = cluster.launch(tenant, h1).unwrap();
    let c = cluster.launch(tenant, h2).unwrap();
    let d = cluster.launch(tenant, h1).unwrap();

    cluster.partition_control(h0);

    // h0 is deaf: a → b degrades to universal TCP.
    let deg = connect_pair(&a, &b);
    match deg.4.path() {
        FfPath::Remote { transport, .. } => assert_eq!(transport, TransportKind::TcpHost),
        other => panic!("expected degraded TcpHost path, got {other:?}"),
    }
    exchange(&deg, 4);

    // h2 is fine: c → d resolves authoritatively onto RDMA.
    let fine = connect_pair(&c, &d);
    match fine.4.path() {
        FfPath::Remote { transport, .. } => assert_eq!(transport, TransportKind::Rdma),
        other => panic!("expected authoritative RDMA path, got {other:?}"),
    }
    exchange(&fine, 4);

    cluster.heal_control(h0);
    wait_until(
        "healed partition upgrades to RDMA",
        Duration::from_secs(5),
        || {
            matches!(
                deg.4.path(),
                FfPath::Remote {
                    transport: TransportKind::Rdma,
                    ..
                }
            ) && deg.4.binding_phase() == BindingPhase::Bound
        },
    );
    exchange(&deg, 4);

    let snap = cluster.telemetry();
    assert_eq!(control_events(&snap, "partition"), 1);
    assert_eq!(control_events(&snap, "heal"), 1);
    assert!(snap.counter_total("ff_orch_degraded_decisions_total") >= 1);
}

// --- rolling-migration drills ----------------------------------------------

/// The tentpole fleet drill: 240 containers in 120 cross-host pairs under
/// load while a rolling wave live-migrates every receiver, with link
/// flaps, an orchestrator outage, a NIC death and two mid-window
/// migration-daemon crashes layered on top. Every flow must converge with
/// zero lost completions, every blackout stays inside the calibrated
/// window, the torn 2PCs abort in place — and the whole drill replays
/// byte-identically from the same schedule.
#[test]
fn chaos_rolling_migration_drill_at_fleet_scale() {
    const PAIRS: usize = 120;
    const MSGS: u64 = 12;
    let run = || {
        let mut sim = NetSim::testbed();
        let hosts: Vec<usize> = (0..8)
            .map(|_| sim.add_host(HostCaps::paper_testbed()))
            .collect();
        let mut receivers = Vec::new();
        for i in 0..PAIRS {
            let a = sim.add_container(hosts[i % 8]);
            let b = sim.add_container(hosts[(i + 3) % 8]);
            sim.add_flow(a, b, TransportKind::Rdma, Workload::bulk(1, MSGS));
            receivers.push(b);
        }
        // The rolling wave: one migration every 40 µs against a 250 µs
        // blackout, so half a dozen windows are always open at once.
        for (i, b) in receivers.iter().enumerate() {
            let to = hosts[(i + 4) % 8];
            sim.schedule_migration(Nanos::from_micros(100 + 40 * i as u64), *b, to);
        }
        // Plus guarded no-ops: four receivers "migrate" onto the host the
        // wave already put them on.
        for (i, b) in receivers.iter().enumerate().take(4) {
            let to = hosts[(i + 4) % 8];
            sim.schedule_migration(Nanos::from_millis(20), *b, to);
        }
        // Faults tuned to land inside specific windows (deterministic):
        // migration 30 begins at 1300 µs targeting hosts[2]; migration 46
        // begins at 1940 µs from hosts[1].
        sim.set_fault_plan(
            FaultPlan::new(77)
                .link_flap(Nanos::from_micros(500), hosts[2], Nanos::from_micros(300))
                .orchestrator_outage(Nanos::from_micros(800), Nanos::from_millis(2))
                .migration_crash(
                    Nanos::from_micros(1400),
                    hosts[2],
                    MigrationCrashPhase::Target,
                )
                .migration_crash(
                    Nanos::from_micros(2000),
                    hosts[1],
                    MigrationCrashPhase::Source,
                )
                .nic_down(Nanos::from_millis(3), hosts[5]),
        );
        let r = sim.run_to_completion(Nanos::from_secs(120));
        assert!(sim.all_finished(), "every flow must converge");
        r
    };
    let r = run();

    // Zero lost completions: nothing was killed, everything arrived.
    for f in &r.flows {
        assert!(!f.killed, "flow {} was killed", f.flow);
        assert_eq!(f.delivered_msgs, MSGS, "flow {} lost completions", f.flow);
    }

    // Every scheduled migration resolved: the wave plus the four no-ops.
    assert_eq!(r.migrations.len(), PAIRS + 4);
    assert_eq!(
        r.migrations_aborted(),
        2,
        "exactly the two crash-torn 2PCs abort"
    );
    assert_eq!(r.migrations_committed(), PAIRS + 4 - 2);

    // Blackouts are bounded by the calibrated freeze window; the no-ops
    // never opened one.
    let cap = NetSim::testbed().params().migration_blackout;
    for m in &r.migrations {
        assert!(m.blackout <= cap, "unbounded blackout: {:?}", m.blackout);
    }
    assert!(r.blackout_percentile(0.99).unwrap() <= cap);
    let noops: Vec<_> = r.migrations.iter().filter(|m| m.from == m.to).collect();
    assert_eq!(noops.len(), 4);
    for m in noops {
        assert!(m.committed && m.blackout == Nanos::ZERO && m.flows_affected == 0);
    }

    // The drill is a deterministic program: same schedule, same bytes.
    assert_eq!(format!("{:?}", run()), format!("{:?}", r));
}

/// Live-stack rolling drill with crash injection: a wave of cross-host
/// migrations where every third 2PC is torn at the source checkpoint and
/// every fourth at the target restore. Torn migrations must abort in
/// place (container still home, traffic flowing immediately); the rest
/// commit and rebind. Counters must agree with the flight-recorder
/// timeline and every freeze window must land in
/// `ff_migration_blackout_ns`.
#[test]
fn chaos_rolling_migration_crash_injection_never_wedges() {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let h2 = cluster.add_host(HostCaps::paper_testbed());
    let tenant = TenantId::new(1);

    let n = 6;
    let mut pairs = Vec::new();
    for _ in 0..n {
        let a = cluster.launch(tenant, h0).unwrap();
        let b = cluster.launch(tenant, h1).unwrap();
        let qps = connect_pair(&a, &b);
        exchange(&qps, 2);
        pairs.push((a, b, qps));
    }

    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut settled = Vec::new();
    for (i, (a, b, qps)) in pairs.into_iter().enumerate() {
        let crash = match i % 3 {
            1 => Some(MigrationCrashPoint::SourceCheckpoint),
            2 => Some(MigrationCrashPoint::TargetRestore),
            _ => None,
        };
        let (moved, report) = cluster.migrate_with(b, h2, crash).unwrap();
        match report.outcome {
            MigrationOutcome::Committed => {
                committed += 1;
                assert_eq!(moved.host(), h2, "committed 2PC must move");
                assert!(report.moved);
                assert!(report.qps >= 1 && report.mrs >= 1);
                assert!(report.checkpoint_bytes > 0);
            }
            MigrationOutcome::Aborted => {
                aborted += 1;
                assert_eq!(moved.host(), h1, "aborted 2PC must stay home");
                assert!(!report.moved);
            }
        }
        // Never wedged: whatever the outcome, both ends settle Bound and
        // the pair keeps exchanging.
        wait_until("pair settles after 2PC", Duration::from_secs(10), || {
            qps.4.binding_phase() == BindingPhase::Bound
                && qps.5.binding_phase() == BindingPhase::Bound
        });
        exchange(&qps, 2);
        settled.push((a, moved, qps));
    }
    drop(settled);
    assert_eq!(committed, 2, "i % 3 == 0 of six migrations commit");
    assert_eq!(aborted, 4);

    // Counters agree with the flight-recorder timeline, and every freeze
    // window (commit or abort) was recorded in the blackout histogram.
    let snap = cluster.telemetry();
    assert_eq!(
        snap.counter_total("ff_migrations_committed_total"),
        committed
    );
    assert_eq!(snap.counter_total("ff_migrations_aborted_total"), aborted);
    let migration_events = |kind: &str| {
        snap.events
            .iter()
            .filter(|te| matches!(te.event, Event::Migration { kind: k, .. } if k == kind))
            .count() as u64
    };
    assert_eq!(migration_events("commit"), committed);
    assert_eq!(migration_events("abort"), aborted);
    assert_eq!(migration_events("begin"), committed + aborted);
    let blackout = snap
        .histogram(
            "ff_migration_blackout_ns",
            freeflow_telemetry::LabelSet::none(),
        )
        .expect("blackout histogram must exist");
    assert_eq!(blackout.count(), committed + aborted);
    assert!(
        blackout.max < 5_000_000_000,
        "blackout must stay inside the settle budget: {} ns",
        blackout.max
    );
}
