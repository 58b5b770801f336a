//! Whole-system integration tests spanning every crate: the cluster facade
//! (`freeflow`), control plane (`freeflow-orchestrator`), agents
//! (`freeflow-agent`), verbs engine (`freeflow-verbs`), socket and MPI
//! layers, the overlay baseline, and the simulator — exercised together.

use freeflow::qp::FfPath;
use freeflow::FreeFlowCluster;
use freeflow_mpi::{Op, World};
use freeflow_orchestrator::PolicyConfig;
use freeflow_socket::SocketStack;
use freeflow_types::{HostCaps, Nanos, NicCaps, TenantId, TransportKind};
use freeflow_verbs::wr::{AccessFlags, RecvWr, SendWr};
use std::time::Duration;

const T: Duration = Duration::from_secs(15);

/// A heterogeneous cluster (RDMA, DPDK-only and plain-NIC hosts) routes
/// each pair over the best transport both ends support, while the
/// application API stays identical.
#[test]
fn heterogeneous_cluster_picks_best_common_transport() {
    let cluster = FreeFlowCluster::with_defaults();
    let h_rdma = cluster.add_host(HostCaps::paper_testbed());
    let h_dpdk = cluster.add_host(HostCaps {
        nic: NicCaps::dpdk_40g(),
        ..HostCaps::paper_testbed()
    });
    let h_plain = cluster.add_host(HostCaps::commodity());
    let tenant = TenantId::new(1);

    let on_rdma = cluster.launch(tenant, h_rdma).unwrap();
    let on_dpdk = cluster.launch(tenant, h_dpdk).unwrap();
    let on_plain = cluster.launch(tenant, h_plain).unwrap();

    let expect = [
        (&on_rdma, &on_dpdk, TransportKind::Dpdk),
        (&on_rdma, &on_plain, TransportKind::TcpHost),
        (&on_dpdk, &on_plain, TransportKind::TcpHost),
    ];
    for (a, b, want) in expect {
        // Policy agrees...
        let d = cluster
            .orchestrator()
            .decide_path_by_ip(a.ip(), b.ip())
            .unwrap();
        assert_eq!(d.transport(), Some(want), "{} -> {}", a.ip(), b.ip());
        // ...and traffic actually flows on a QP bound to that transport.
        let mr_a = a.register(4096, AccessFlags::all()).unwrap();
        let mr_b = b.register(4096, AccessFlags::all()).unwrap();
        let cq_a = a.create_cq(16);
        let cq_b = b.create_cq(16);
        let qp_a = a.create_qp(&cq_a, &cq_a, 8, 8).unwrap();
        let qp_b = b.create_qp(&cq_b, &cq_b, 8, 8).unwrap();
        qp_a.connect(qp_b.endpoint()).unwrap();
        qp_b.connect(qp_a.endpoint()).unwrap();
        match qp_a.path() {
            FfPath::Remote { transport, .. } => assert_eq!(transport, want),
            other => panic!("expected remote path, got {other:?}"),
        }
        qp_b.post_recv(RecvWr::new(1, mr_b.sge(0, 4096))).unwrap();
        mr_a.write(0, b"hetero").unwrap();
        qp_a.post_send(SendWr::send(2, mr_a.sge(0, 6))).unwrap();
        assert!(cq_b.wait_one(T).unwrap().status.is_ok());
    }
}

/// The paper's trust story, end to end: two tenants sharing a host get the
/// overlay path; the same-tenant pair next to them gets shared memory.
/// Both run identical socket code.
#[test]
fn tenant_isolation_degrades_transport_not_functionality() {
    let cluster = FreeFlowCluster::with_defaults();
    let h = cluster.add_host(HostCaps::paper_testbed());
    let alice_web = cluster.launch(TenantId::new(1), h).unwrap();
    let alice_db = cluster.launch(TenantId::new(1), h).unwrap();
    let bob_web = cluster.launch(TenantId::new(2), h).unwrap();

    let stack = SocketStack::new();
    let run_pair = |server: freeflow::Container,
                    client: &freeflow::Container,
                    port: u16|
     -> (String, freeflow::Container) {
        let listener = stack.bind(&server, port).unwrap();
        let ip = server.ip();
        let th = std::thread::spawn(move || {
            let mut s = listener.accept(T).unwrap();
            let mut buf = [0u8; 5];
            s.read_exact(&mut buf).unwrap();
            s.write_all(&buf).unwrap();
            server
        });
        let mut c = stack.connect(client, ip, port).unwrap();
        c.write_all(b"probe").unwrap();
        let mut back = [0u8; 5];
        c.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"probe");
        let path = match c.qp().path() {
            FfPath::Local { .. } => "shm".to_string(),
            FfPath::Remote { transport, .. } => transport.name().to_string(),
            FfPath::Unbound => "?".into(),
        };
        drop(c);
        (path, th.join().unwrap())
    };

    let (same_tenant_path, _alice_db) = run_pair(alice_db, &alice_web, 5432);
    assert_eq!(same_tenant_path, "shm");
    let (cross_tenant_path, _bob_web) = run_pair(bob_web, &alice_web, 8081);
    assert_eq!(cross_tenant_path, "tcp-overlay");
}

/// MPI allreduce over a 6-rank world spread across three hosts with mixed
/// NICs — collectives must survive heterogeneous links.
#[test]
fn mpi_allreduce_across_heterogeneous_hosts() {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps {
        nic: NicCaps::dpdk_40g(),
        ..HostCaps::paper_testbed()
    });
    let h2 = cluster.add_host(HostCaps::commodity());
    let ranks = World::create(&cluster, TenantId::new(1), &[h0, h0, h1, h1, h2, h2]).unwrap();
    let n = ranks.len();
    std::thread::scope(|s| {
        for mut rank in ranks {
            s.spawn(move || {
                let x = vec![(rank.rank() + 1) as f64];
                let sum = rank.allreduce(&x, Op::Sum).unwrap();
                assert_eq!(sum, vec![(n * (n + 1) / 2) as f64]);
                rank.barrier().unwrap();
            });
        }
    });
}

/// The simulator and the policy engine agree: for each placement, the
/// transport the policy picks is also the one the simulator measures as
/// fastest among the feasible ones — FreeFlow's choice is not just
/// permitted, it wins.
#[test]
fn policy_choice_is_simulator_optimal() {
    use freeflow_netsim::workload::Workload;
    use freeflow_netsim::NetSim;

    let measure = |transport: TransportKind, intra: bool| -> f64 {
        let mut sim = NetSim::testbed();
        let h0 = sim.add_host(HostCaps::paper_testbed());
        let h1 = if intra {
            h0
        } else {
            sim.add_host(HostCaps::paper_testbed())
        };
        let a = sim.add_container(h0);
        let b = sim.add_container(h1);
        sim.add_flow(a, b, transport, Workload::bulk(1, 50));
        sim.run_to_completion(Nanos::from_secs(10)).flows[0]
            .throughput
            .as_gbps_f64()
    };

    // Intra-host feasible set.
    let intra: Vec<(TransportKind, f64)> = [
        TransportKind::SharedMemory,
        TransportKind::Rdma,
        TransportKind::TcpBridge,
        TransportKind::TcpOverlay,
    ]
    .into_iter()
    .map(|t| (t, measure(t, true)))
    .collect();
    let best_intra = intra.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap().0;
    assert_eq!(best_intra, TransportKind::SharedMemory);

    // Inter-host feasible set.
    let inter: Vec<(TransportKind, f64)> = [
        TransportKind::Rdma,
        TransportKind::Dpdk,
        TransportKind::TcpHost,
        TransportKind::TcpOverlay,
    ]
    .into_iter()
    .map(|t| (t, measure(t, false)))
    .collect();
    let best_inter = inter.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap().0;
    // RDMA and DPDK tie at line rate; policy prefers RDMA (no burnt core).
    assert!(matches!(
        best_inter,
        TransportKind::Rdma | TransportKind::Dpdk
    ));
}

/// Scale smoke test: 24 containers across 3 hosts, all-to-one traffic into
/// a single sink container over mixed paths, nothing lost.
#[test]
fn many_containers_fan_in() {
    let cluster = FreeFlowCluster::with_defaults();
    let hosts = [
        cluster.add_host(HostCaps::paper_testbed()),
        cluster.add_host(HostCaps::paper_testbed()),
        cluster.add_host(HostCaps::paper_testbed()),
    ];
    let tenant = TenantId::new(1);
    let sink = cluster.launch(tenant, hosts[0]).unwrap();
    let cq_sink = sink.create_cq(1024);
    let mr_sink = sink.register(1 << 16, AccessFlags::all()).unwrap();

    const SENDERS: usize = 24;
    const PER_SENDER: u64 = 10;

    // One QP per sender on the sink side.
    let mut sink_qps = Vec::new();
    let mut senders = Vec::new();
    for i in 0..SENDERS {
        let host = hosts[i % hosts.len()];
        let c = cluster.launch(tenant, host).unwrap();
        let sqp = sink.create_qp(&cq_sink, &cq_sink, 64, 64).unwrap();
        senders.push(c);
        sink_qps.push(sqp);
    }
    let handles: Vec<_> = senders
        .into_iter()
        .zip(&sink_qps)
        .enumerate()
        .map(|(i, (c, sqp))| {
            let sink_ep = sqp.endpoint();
            // Two-phase handshake: the sender publishes its endpoint, the
            // main thread connects the sink side and posts receives, then
            // releases the sender to stream.
            let (ep_tx, ep_rx) = std::sync::mpsc::sync_channel(1);
            let (go_tx, go_rx) = std::sync::mpsc::sync_channel::<()>(1);
            let client_thread = std::thread::spawn(move || {
                let mr = c.register(4096, AccessFlags::all()).unwrap();
                let cq = c.create_cq(128);
                let qp = c.create_qp(&cq, &cq, 64, 64).unwrap();
                qp.connect(sink_ep).unwrap();
                ep_tx.send(qp.endpoint()).unwrap();
                go_rx.recv().unwrap();
                for m in 0..PER_SENDER {
                    mr.write(0, &(i as u64 * 1000 + m).to_le_bytes()).unwrap();
                    loop {
                        match qp.post_send(SendWr::send(m, mr.sge(0, 8))) {
                            Ok(()) => break,
                            Err(freeflow_verbs::VerbsError::QueueFull { .. }) => {
                                std::thread::yield_now()
                            }
                            Err(e) => panic!("{e}"),
                        }
                    }
                    assert!(cq.wait_one(T).unwrap().status.is_ok());
                }
                (c, qp)
            });
            (ep_rx, go_tx, client_thread)
        })
        .collect();

    // Connect each sink QP to its sender, post receives, release senders.
    let mut released = Vec::new();
    for ((ep_rx, go_tx, th), sqp) in handles.into_iter().zip(&sink_qps) {
        let sender_ep = ep_rx.recv_timeout(T).unwrap();
        sqp.connect(sender_ep).unwrap();
        for m in 0..PER_SENDER {
            sqp.post_recv(RecvWr::new(m, mr_sink.sge(0, 8))).unwrap();
        }
        go_tx.send(()).unwrap();
        released.push(th);
    }
    let mut total = 0u64;
    let _client_keepalive: Vec<_> = released.into_iter().map(|th| th.join().unwrap()).collect();
    // Drain all completions.
    while total < (SENDERS as u64) * PER_SENDER {
        let wc = cq_sink.wait_one(T).expect("fan-in completion");
        assert!(wc.status.is_ok(), "{:?}", wc.status);
        total += 1;
    }
    assert_eq!(total, (SENDERS as u64) * PER_SENDER);
}

/// The no-bypass cluster still runs the full socket workload — the
/// "w/o trust" column of the constraint matrix as a live system.
#[test]
fn no_bypass_cluster_full_socket_workload() {
    let cluster = FreeFlowCluster::new(PolicyConfig {
        allow_kernel_bypass: false,
        ..Default::default()
    });
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let a = cluster.launch(TenantId::new(1), h0).unwrap();
    let b = cluster.launch(TenantId::new(1), h0).unwrap();
    let stack = SocketStack::new();
    let listener = stack.bind(&b, 80).unwrap();
    let ip = b.ip();
    let th = std::thread::spawn(move || {
        let mut s = listener.accept(T).unwrap();
        let mut total = 0usize;
        let mut buf = [0u8; 4096];
        loop {
            let n = s.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            total += n;
        }
        (total, b)
    });
    let mut c = stack.connect(&a, ip, 80).unwrap();
    assert!(matches!(
        c.qp().path(),
        FfPath::Remote {
            transport: TransportKind::TcpOverlay,
            ..
        }
    ));
    let data = vec![3u8; 200_000];
    c.write_all(&data).unwrap();
    c.shutdown().unwrap();
    let (total, _b) = th.join().unwrap();
    assert_eq!(total, data.len());
}
