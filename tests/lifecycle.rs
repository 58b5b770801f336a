//! Path-lifecycle end-to-end tests: one socket stream survives the full
//! binding lifecycle without an application-visible reconnect.
//!
//! Two scenarios, mirroring DESIGN.md §7:
//!
//! 1. **Failover then upgrade** — a NIC dies mid-stream (reactive failover
//!    onto kernel TCP, the stream retransmits the lost frame), then comes
//!    back (`PathUpdated` triggers a planned drain-and-rebind back onto
//!    RDMA). The application keeps calling `write_all`/`read_exact`.
//! 2. **Remote→Local collapse** — the peer migrates onto our host; both
//!    ends drain their relay bindings and continue over shared memory
//!    with the same QPs and the same stream.

use freeflow::binding::BindingPhase;
use freeflow::qp::FfPath;
use freeflow::{Container, FreeFlowCluster};
use freeflow_socket::{FfStream, SocketStack};
use freeflow_telemetry::{Event, TransitionKind};
use freeflow_types::{HostCaps, TenantId, TransportKind};
use freeflow_verbs::wr::{AccessFlags, RecvWr, SendWr};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Stand up two hosts, a container on each, and a connected stream pair.
/// Both ends are returned to the caller so a single thread can drive the
/// whole conversation deterministically.
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
    let listener = stack.bind(&b, 7000).unwrap();
    let server_ip = b.ip();
    let accept = std::thread::spawn(move || {
        let s = listener.accept(Duration::from_secs(10)).unwrap();
        (s, b)
    });
    let client = stack.connect(&a, server_ip, 7000).unwrap();
    let (server, b) = accept.join().unwrap();
    (cluster, a, b, client, server)
}

/// One application-level round trip: client writes, server echoes, client
/// verifies. Any transport drama below must be invisible here.
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

#[test]
fn stream_survives_failover_then_upgrade_back_to_rdma() {
    let (cluster, a, _b, mut client, mut server) = streaming_pair();
    let h0 = a.host();

    // Baseline: the paper-testbed NICs bind RDMA across hosts.
    roundtrip(&mut client, &mut server, b"over rdma");
    assert!(matches!(
        client.qp().path(),
        FfPath::Remote {
            transport: TransportKind::Rdma,
            ..
        }
    ));
    let epoch0 = client.qp().epoch();

    // Kill the bypass NIC. The next frame dies on the downed wire, the QP
    // fails over onto kernel TCP, and the stream queues a retransmit. The
    // application sees none of it.
    cluster.fail_nic(h0).unwrap();
    client.write_all(b"through the outage").unwrap();
    wait_until("reactive failover onto TCP", Duration::from_secs(5), || {
        client.qp().failover_count() == 1
    });
    // Converge the agents onto the surviving TCP wires, then let the
    // stream's reaper retransmit the lost frame over the new path.
    cluster.refresh_routes();
    client.flush().unwrap();
    let mut got = vec![0u8; b"through the outage".len()];
    server.read_exact(&mut got).unwrap();
    assert_eq!(got, b"through the outage");
    assert!(matches!(
        client.qp().path(),
        FfPath::Remote {
            transport: TransportKind::TcpHost,
            ..
        }
    ));
    assert!(
        client.retransmit_count() >= 1,
        "the frame posted into the outage must have been retransmitted"
    );
    roundtrip(&mut client, &mut server, b"settled on tcp");

    // Bring the NIC back. `restore_nic` publishes `PathUpdated`; the
    // library plans a drain-and-rebind and the binding walks
    // Bound(tcp) → Draining → Rebinding → Bound(rdma) on pump ticks.
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
    assert_eq!(
        client.qp().failover_count(),
        1,
        "the upgrade is planned, not a failover"
    );
    assert_eq!(client.qp().upgrade_count(), 1);
    // One epoch for the reactive failover, one for the planned upgrade.
    assert_eq!(client.qp().epoch(), epoch0 + 2);

    // The same stream keeps working on the restored fast path.
    roundtrip(&mut client, &mut server, b"back on rdma");
    client.shutdown().unwrap();
}

#[test]
fn stream_survives_remote_to_local_collapse_on_migration() {
    let (cluster, a, b, mut client, mut server) = streaming_pair();
    let h0 = a.host();

    roundtrip(&mut client, &mut server, b"before migration");
    assert!(matches!(
        client.qp().path(),
        FfPath::Remote {
            transport: TransportKind::Rdma,
            ..
        }
    ));
    let client_epoch0 = client.qp().epoch();

    // Migrate the server's container onto the client's host. Both ends
    // observe the move (the migrated library by being rehomed, the peer
    // via `ContainerMoved`), drain, and collapse onto shared memory —
    // same QPs, same stream, no reconnect.
    let b = cluster.migrate(b, h0).unwrap();
    assert_eq!(b.host(), h0);
    wait_until(
        "both bindings collapsed onto shared memory",
        Duration::from_secs(5),
        || {
            matches!(client.qp().path(), FfPath::Local { .. })
                && client.qp().binding_phase() == BindingPhase::Bound
                && matches!(server.qp().path(), FfPath::Local { .. })
                && server.qp().binding_phase() == BindingPhase::Bound
        },
    );
    assert_eq!(
        client.qp().failover_count(),
        0,
        "a collapse is planned, not reactive"
    );
    assert_eq!(client.qp().epoch(), client_epoch0 + 1);
    assert!(
        client.qp().upgrade_count() >= 1,
        "shared memory outranks RDMA-over-relay"
    );

    // Data still flows both ways over the collapsed path.
    roundtrip(&mut client, &mut server, b"co-located now");
    roundtrip(&mut client, &mut server, b"and still streaming");
    client.shutdown().unwrap();
    drop(b);
}

// --- parked batched sends across planned rebinds ---------------------------

/// Which planned rebind interrupts the chained batch.
#[derive(Clone, Copy)]
enum ParkScenario {
    /// TCP→RDMA upgrade after `restore_nic`.
    Upgrade,
    /// Remote→Local collapse after the peer migrates onto our host.
    Collapse,
}

/// A chained batch posted while a planned drain is in progress must park
/// whole and replay exactly once on the new path, in order, with every
/// completion accounted for and the lifecycle counters matching the
/// flight-recorder timeline.
///
/// The drain is *held open* deterministically: one send is posted with no
/// receive waiting at the peer, so it parks there under RNR semantics,
/// unacked — the sender's drain cannot settle until the test posts the
/// receives. A second "probe" QP pair confirms (by FIFO ordering of the
/// shared relay path) that the held send reached the peer before the
/// scenario's fault is injected.
fn parked_chain_replays_exactly_once(scenario: ParkScenario) {
    const CHAIN: u64 = 6;
    const SLOT: u64 = 256;

    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let a = cluster.launch(TenantId::new(1), h0).unwrap();
    let b = cluster.launch(TenantId::new(1), h1).unwrap();
    if matches!(scenario, ParkScenario::Upgrade) {
        // Connect with the bypass NIC down so the pair starts on kernel
        // TCP and has an upgrade to perform once the NIC returns.
        cluster.fail_nic(h0).unwrap();
        cluster.refresh_routes();
    }

    let mr_a = a.register(8 << 10, AccessFlags::all()).unwrap();
    let mr_b = b.register(8 << 10, AccessFlags::all()).unwrap();
    let cq_a = a.create_cq(64);
    let cq_b = b.create_cq(64);
    let qp_a = a.create_qp(&cq_a, &cq_a, 32, 32).unwrap();
    let qp_b = b.create_qp(&cq_b, &cq_b, 32, 32).unwrap();
    qp_a.connect(qp_b.endpoint()).unwrap();
    qp_b.connect(qp_a.endpoint()).unwrap();
    // Generous op deadlines: the held send stays deliberately unanswered
    // and must not trip the failure sweep.
    for qp in [&qp_a, &qp_b] {
        qp.set_relay_timeout(Duration::from_secs(30));
    }
    // Probe pair: rides the same container↔agent rings and the same wire,
    // so its traffic is FIFO-ordered behind the held send.
    let qp_a2 = a.create_qp(&cq_a, &cq_a, 8, 8).unwrap();
    let qp_b2 = b.create_qp(&cq_b, &cq_b, 8, 8).unwrap();
    qp_a2.connect(qp_b2.endpoint()).unwrap();
    qp_b2.connect(qp_a2.endpoint()).unwrap();
    for qp in [&qp_a2, &qp_b2] {
        qp.set_relay_timeout(Duration::from_secs(30));
    }

    // The held send: no receive exists at the peer, so it parks there
    // unacked and the coming planned drain cannot settle.
    mr_a.write(0, &[0xA0; 64]).unwrap();
    qp_a.post_send(SendWr::send(0, mr_a.sge(0, 64))).unwrap();
    // The probe completes strictly after the held send was delivered.
    qp_b2
        .post_recv(RecvWr::new(900, mr_b.sge(7 * SLOT, 64)))
        .unwrap();
    mr_a.write(7 * SLOT, b"probe---").unwrap();
    qp_a2
        .post_send(SendWr::send(901, mr_a.sge(7 * SLOT, 8)))
        .unwrap();
    assert!(cq_b
        .wait_one(Duration::from_secs(15))
        .unwrap()
        .status
        .is_ok());
    assert!(cq_a
        .wait_one(Duration::from_secs(15))
        .unwrap()
        .status
        .is_ok());

    // Inject the planned-rebind trigger.
    let _b = match scenario {
        ParkScenario::Upgrade => {
            // NIC back: `PathUpdated` plans the TCP→RDMA upgrade drain.
            cluster.restore_nic(h0).unwrap();
            cluster.refresh_routes();
            b
        }
        ParkScenario::Collapse => {
            // The peer migrates onto our host: `ContainerMoved` plans the
            // collapse drain. The QPs survive the move untouched.
            cluster.migrate(b, h0).unwrap()
        }
    };
    wait_until(
        "planned drain held open by the unanswered send",
        Duration::from_secs(5),
        || qp_a.binding_phase() == BindingPhase::Draining,
    );

    // A chain posted mid-drain parks whole — it must neither force the
    // rebind nor transmit anything out of order.
    let wrs: Vec<SendWr> = (1..=CHAIN)
        .map(|i| {
            mr_a.write(i * SLOT, &[i as u8; 64]).unwrap();
            SendWr::send(i, mr_a.sge(i * SLOT, 64))
        })
        .collect();
    qp_a.post_send_batch(wrs).unwrap();
    assert_eq!(
        qp_a.binding_phase(),
        BindingPhase::Draining,
        "a parked chain must not short-circuit the drain"
    );

    // Receives appear: the held send settles, the drain completes, the
    // rebind lands, and the parked chain replays — exactly once.
    for i in 0..=CHAIN {
        qp_b.post_recv(RecvWr::new(i, mr_b.sge(i * SLOT, SLOT as u32)))
            .unwrap();
    }
    wait_until("rebind completed", Duration::from_secs(10), || {
        qp_a.binding_phase() == BindingPhase::Bound
            && match scenario {
                ParkScenario::Upgrade => matches!(
                    qp_a.path(),
                    FfPath::Remote {
                        transport: TransportKind::Rdma,
                        ..
                    }
                ),
                ParkScenario::Collapse => {
                    matches!(qp_a.path(), FfPath::Local { .. })
                        && matches!(qp_b.path(), FfPath::Local { .. })
                        && qp_b.binding_phase() == BindingPhase::Bound
                }
            }
    });

    for i in 0..=CHAIN {
        let rwc = cq_b.wait_one(Duration::from_secs(15)).unwrap();
        assert!(rwc.status.is_ok(), "{rwc:?}");
        assert_eq!(rwc.wr_id, i, "held send first, then the chain in order");
        let mut got = [0u8; 64];
        mr_b.read(i * SLOT, &mut got).unwrap();
        let expect = if i == 0 { [0xA0u8; 64] } else { [i as u8; 64] };
        assert_eq!(got, expect, "payload {i} byte-identical after replay");
    }
    let mut send_ids: Vec<u64> = (0..=CHAIN)
        .map(|_| {
            let wc = cq_a.wait_one(Duration::from_secs(15)).unwrap();
            assert!(wc.status.is_ok(), "{wc:?}");
            wc.wr_id
        })
        .collect();
    send_ids.sort_unstable();
    assert_eq!(
        send_ids,
        (0..=CHAIN).collect::<Vec<u64>>(),
        "every WR completes exactly once — none lost, none duplicated"
    );
    assert!(cq_a.poll_one().is_none(), "no surplus send completions");
    assert!(cq_b.poll_one().is_none(), "no surplus recv completions");
    assert_eq!(qp_a.upgrade_count(), 1);
    assert_eq!(
        qp_a.failover_count(),
        0,
        "planned rebinds are not failovers"
    );

    // Counters match the flight-recorder timeline, event for event.
    let snap = cluster.telemetry();
    let rebounds = |want_upgrade: bool| {
        snap.events
            .iter()
            .filter(|te| {
                matches!(
                    te.event,
                    Event::PathTransition {
                        kind: TransitionKind::Rebound,
                        upgrade,
                        ..
                    } if upgrade || !want_upgrade
                )
            })
            .count() as u64
    };
    assert_eq!(snap.counter_total("ff_qp_upgrades_total"), rebounds(true));
    assert_eq!(snap.counter_total("ff_qp_rebinds_total"), rebounds(false));
}

/// A chained batch posted while a planned TCP→RDMA *upgrade* drains
/// parks whole and replays exactly once on the upgraded path.
#[test]
fn batched_chain_parks_through_planned_upgrade_and_replays_exactly_once() {
    parked_chain_replays_exactly_once(ParkScenario::Upgrade);
}

/// A chained batch posted while a Remote→Local *collapse* drains (the
/// peer migrated onto our host) parks whole and replays exactly once
/// over shared memory — same QPs, same wr_ids, no reconnect.
#[test]
fn batched_chain_parks_through_collapse_and_replays_exactly_once() {
    parked_chain_replays_exactly_once(ParkScenario::Collapse);
}

// --- cross-host migration of a loaded stream pool ---------------------------

/// A thousand streams multiplexed over one pooled channel cross a *real*
/// cross-host migration of the server container: the socket ledgers ride
/// the checkpoint wire format losslessly, the quiesced watermarks are
/// byte-identical across the move, and every stream keeps delivering
/// byte-exact payloads afterwards — no reconnect, no lost or duplicated
/// frame, counters agreeing with the flight recorder.
#[test]
fn thousand_stream_pool_survives_cross_host_migration() {
    use freeflow::migrate::{ContainerImage, MigrationCheckpoint};

    const STREAMS: usize = 1000;
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let h2 = cluster.add_host(HostCaps::paper_testbed());
    let a = cluster.launch(TenantId::new(1), h0).unwrap();
    let b = cluster.launch(TenantId::new(1), h1).unwrap();

    let stack = SocketStack::new();
    let listener = stack.bind(&b, 9000).unwrap();
    let server_ip = b.ip();
    let accept = std::thread::spawn(move || {
        let servers: Vec<FfStream> = (0..STREAMS)
            .map(|_| listener.accept(Duration::from_secs(30)).unwrap())
            .collect();
        servers
    });
    let mut clients: Vec<FfStream> = (0..STREAMS)
        .map(|_| stack.connect(&a, server_ip, 9000).unwrap())
        .collect();
    let mut servers = accept.join().unwrap();
    for s in clients.iter().chain(servers.iter()) {
        s.qp().set_relay_timeout(Duration::from_secs(30));
    }

    // Load every stream before the move and let it settle.
    for (i, (c, s)) in clients.iter_mut().zip(servers.iter_mut()).enumerate() {
        let msg = format!("pre-move stream {i:04}");
        c.write_all(msg.as_bytes()).unwrap();
        let mut got = vec![0u8; msg.len()];
        s.read_exact(&mut got).unwrap();
        assert_eq!(got, msg.as_bytes());
    }

    // The server container's slice of a checkpoint: its live ledgers.
    let before = stack.export_ledgers(&b);
    assert!(
        !before.is_empty(),
        "a loaded pool exports at least one channel ledger"
    );
    // The thousand streams mux over pooled channels — far fewer QPs than
    // streams (that is the TSoR fast path the pool exists for).
    assert!(before.len() < STREAMS / 10);

    // The ledgers survive the checkpoint wire format bit-for-bit — the
    // same attach path `migrate_with` drives through `with_ledgers`.
    let cp = MigrationCheckpoint {
        image: ContainerImage::of(&b),
        from_host: b.host(),
        to_host: h2,
        qps: Vec::new(),
        mrs: Vec::new(),
        ledgers: Vec::new(),
    }
    .with_ledgers(before.clone());
    let decoded = MigrationCheckpoint::decode(&cp.encode()).unwrap();
    assert_eq!(decoded.ledgers, before, "ledgers ride the wire losslessly");

    // The move itself: h1 → h2, with the pool under management.
    let b = cluster.migrate(b, h2).unwrap();
    assert_eq!(b.host(), h2);

    // A settled freeze conserves the sequence space exactly: the exported
    // watermarks after the move are identical to the checkpointed ones.
    let after = stack.export_ledgers(&b);
    assert_eq!(after, before, "quiesced ledgers are conserved by the move");

    wait_until(
        "bindings settled after the move",
        Duration::from_secs(10),
        || {
            clients
                .iter()
                .chain(servers.iter())
                .all(|s| s.qp().binding_phase() == BindingPhase::Bound)
        },
    );

    // Every stream continues, both directions, byte-exact.
    for (i, (c, s)) in clients.iter_mut().zip(servers.iter_mut()).enumerate() {
        let msg = format!("post-move stream {i:04}");
        c.write_all(msg.as_bytes()).unwrap();
        let mut got = vec![0u8; msg.len()];
        s.read_exact(&mut got).unwrap();
        assert_eq!(got, msg.as_bytes());
        s.write_all(&got).unwrap();
        let mut back = vec![0u8; msg.len()];
        c.read_exact(&mut back).unwrap();
        assert_eq!(back, msg.as_bytes());
    }

    // Watermarks only ever advance: same channels, monotone sequence
    // space — nothing replayed twice, nothing rewound.
    let settled = stack.export_ledgers(&b);
    assert_eq!(
        settled.iter().map(|l| l.qpn).collect::<Vec<_>>(),
        before.iter().map(|l| l.qpn).collect::<Vec<_>>(),
        "the same channels carry the pool across the move"
    );
    for (now, then) in settled.iter().zip(before.iter()) {
        assert!(now.tx_next_seq >= then.tx_next_seq, "tx watermark rewound");
        assert!(now.rx_received >= then.rx_received, "rx watermark rewound");
    }

    // Flight recorder agrees: exactly one committed migration, with its
    // blackout recorded.
    let snap = cluster.telemetry();
    assert_eq!(snap.counter_total("ff_migrations_committed_total"), 1);
    assert_eq!(snap.counter_total("ff_migrations_aborted_total"), 0);
    assert_eq!(
        snap.histogram(
            "ff_migration_blackout_ns",
            freeflow_telemetry::LabelSet::none()
        )
        .map(|h| h.count())
        .unwrap_or(0),
        1
    );
    for c in clients.iter_mut() {
        c.shutdown().unwrap();
    }
    // Drop order matters: streams and the stack go before the migrated
    // container — tearing the container down first strands the streams'
    // FIN handshakes on a dead library and wedges the teardown.
    drop(servers);
    drop(clients);
    drop(stack);
    drop(b);
    drop(a);
    drop(cluster);
}
