//! Standalone probes: each times one crate's public entry points in
//! isolation, on one thread unless noted, for a fixed time budget, and
//! reports the median over batches. They say what a layer costs when
//! nothing waits for anything — set beside the traced run they show where
//! time is work and where it is waiting.

use crate::stats::median;
use bytes::{Bytes, BytesMut};
use freeflow::FreeFlowCluster;
use freeflow_agent::{connect_agents, Agent, RelayMsg, RelayPayload, WireEp};
use freeflow_bench::realpath::{bench_pair, BenchPair};
use freeflow_mpi::{Op, World as MpiWorld};
use freeflow_shmem::{channel_pair, SharedArena, ShmMessage, SpscRing};
use freeflow_socket::SocketStack;
use freeflow_telemetry::{Event, LabelSet, Telemetry};
use freeflow_types::{HostCaps, HostId, OverlayIp, TenantId, TransportKind};
use freeflow_verbs::wr::{AccessFlags, RecvWr, SendWr};
use freeflow_verbs::{CompletionQueue, VerbsNetwork, WorkCompletion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT: Duration = crate::oracle::OP_DEADLINE;
const CHAIN: usize = 32;

type Probed = Vec<(&'static str, f64)>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("probe {what}: {e}")
}

/// Median nanoseconds per operation: `batch` performs `ops` operations and
/// is repeated until `budget` is spent (at least three times; the first
/// repetition warms caches and is dropped when more follow).
fn per_op_ns(
    budget: Duration,
    ops: u64,
    mut batch: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let deadline = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 3 || Instant::now() < deadline {
        let t0 = Instant::now();
        batch()?;
        samples.push(t0.elapsed().as_nanos() as f64 / ops as f64);
    }
    if samples.len() > 3 {
        samples.remove(0);
    }
    Ok(median(&mut samples))
}

fn shmem(budget: Duration, out: &mut Probed) -> Result<(), String> {
    let ring = SpscRing::new(1 << 16);
    let (msg, mut got) = ([7u8; 64], [0u8; 64]);
    let ns = per_op_ns(budget, 10_000, || {
        for _ in 0..10_000 {
            if !ring.push(black_box(&msg)) || ring.pop(&mut got) != msg.len() {
                return Err("probe ring: push/pop failed".into());
            }
        }
        Ok(())
    })?;
    out.push(("shmem.ring_push_pop_ns", ns));

    let (tx, rx) = channel_pair(1 << 16);
    let kib = [3u8; 1024];
    let ns = per_op_ns(budget, 5_000, || {
        for _ in 0..5_000 {
            tx.try_send(black_box(&kib)).map_err(err("chan send"))?;
            black_box(rx.try_recv().map_err(err("chan recv"))?);
        }
        Ok(())
    })?;
    out.push(("shmem.chan_send_recv_ns", ns));

    // Two threads: the peer blocks in `recv()`, so every message pays a
    // doorbell park and wake. A round trip is two wakes; the pause before
    // each send lets the peer reach its park.
    let (ping_tx, ping_rx) = channel_pair(1 << 12);
    let (pong_tx, pong_rx) = channel_pair(1 << 12);
    let wake_us = std::thread::scope(|s| -> Result<f64, String> {
        let peer = s.spawn(move || {
            while let Ok(ShmMessage::Inline(b)) = ping_rx.recv() {
                if b.is_empty() || pong_tx.send(&b).is_err() {
                    break;
                }
            }
        });
        let deadline = Instant::now() + budget;
        let mut rtts = Vec::new();
        while rtts.len() < 20 || Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
            let t0 = Instant::now();
            ping_tx.send(&[1u8; 64]).map_err(err("wake ping"))?;
            pong_rx
                .recv_timeout(WAIT)
                .map_err(err("wake pong"))?
                .ok_or("probe wake: no pong")?;
            rtts.push(t0.elapsed().as_nanos() as f64 / 2e3);
        }
        ping_tx.send(&[]).map_err(err("wake stop"))?;
        peer.join().map_err(|_| "probe wake: peer panicked")?;
        Ok(median(&mut rtts))
    })?;
    out.push(("shmem.chan_wake_us", wake_us));

    let arena = SharedArena::new(16 << 20);
    let block = vec![5u8; 64 << 10];
    let ns = per_op_ns(budget, 200, || {
        for _ in 0..200 {
            let h = arena
                .alloc(block.len() as u64)
                .map_err(err("arena alloc"))?;
            arena.write(h, 0, &block).map_err(err("arena write"))?;
            arena.free(h).map_err(err("arena free"))?;
        }
        Ok(())
    })?;
    out.push(("shmem.arena_alloc_free_ns", ns));
    Ok(())
}

fn spin(cq: &CompletionQueue, n: usize, scratch: &mut Vec<WorkCompletion>) -> Result<(), String> {
    scratch.clear();
    let deadline = Instant::now() + WAIT;
    while scratch.len() < n {
        if cq.poll_many(n - scratch.len(), scratch) == 0 && Instant::now() > deadline {
            return Err("probe verbs: completion never arrived".into());
        }
    }
    match scratch.iter().find(|wc| !wc.status.is_ok()) {
        Some(bad) => Err(format!("probe verbs: completion status {:?}", bad.status)),
        None => Ok(()),
    }
}

/// The bare verbs engine: no FreeFlow library, agents or rings.
fn verbs(budget: Duration, out: &mut Probed) -> Result<(), String> {
    let e = err("verbs");
    let net = VerbsNetwork::new();
    let dev_a = net.create_device(OverlayIp::from_octets(10, 9, 0, 1));
    let dev_b = net.create_device(OverlayIp::from_octets(10, 9, 0, 2));
    let (pd_a, pd_b) = (dev_a.alloc_pd(), dev_b.alloc_pd());
    let mr_a = pd_a.register(1 << 20, AccessFlags::all()).map_err(&e)?;
    let mr_b = pd_b.register(1 << 20, AccessFlags::all()).map_err(&e)?;
    let pair = || -> Result<_, String> {
        let cq_a = dev_a.create_cq(2 * CHAIN);
        let cq_b = dev_b.create_cq(2 * CHAIN);
        let qp_a = pd_a
            .create_qp(&cq_a, &cq_a, 2 * CHAIN, 2 * CHAIN)
            .map_err(&e)?;
        let qp_b = pd_b
            .create_qp(&cq_b, &cq_b, 2 * CHAIN, 2 * CHAIN)
            .map_err(&e)?;
        qp_a.connect(qp_b.endpoint()).map_err(&e)?;
        qp_b.connect(qp_a.endpoint()).map_err(&e)?;
        Ok((cq_a, cq_b, qp_a, qp_b))
    };
    let (cq_a, cq_b, qp_a, qp_b) = pair()?;
    let mut wcs = Vec::with_capacity(CHAIN);
    let write = |len: u32| SendWr::write(1, mr_a.sge(0, len), mr_b.addr(), mr_b.rkey());

    for (name, len, iters) in [
        ("verbs.write64_ns", 64, 5_000),
        ("verbs.write4k_ns", 4096, 2_000),
    ] {
        let ns = per_op_ns(budget, iters, || {
            for _ in 0..iters {
                qp_a.post_send(write(len)).map_err(&e)?;
                spin(&cq_a, 1, &mut wcs)?;
            }
            Ok(())
        })?;
        out.push((name, ns));
    }
    let ns = per_op_ns(budget, 100 * CHAIN as u64, || {
        for _ in 0..100 {
            qp_a.post_send_batch((0..CHAIN).map(|_| write(64)).collect())
                .map_err(&e)?;
            spin(&cq_a, CHAIN, &mut wcs)?;
        }
        Ok(())
    })?;
    out.push(("verbs.write64_batched_ns", ns));

    let ns = per_op_ns(budget, 2_000, || {
        for _ in 0..2_000 {
            qp_b.post_recv(RecvWr::new(2, mr_b.sge(0, 1024)))
                .map_err(&e)?;
            qp_a.post_send(SendWr::send(3, mr_a.sge(0, 1024)))
                .map_err(&e)?;
            spin(&cq_a, 1, &mut wcs)?;
            spin(&cq_b, 1, &mut wcs)?;
        }
        Ok(())
    })?;
    out.push(("verbs.send_recv1k_ns", ns));

    let read = || SendWr::read(4, mr_a.sge(0, 64 << 10), mr_b.addr(), mr_b.rkey());
    let ns = per_op_ns(budget, 200, || {
        for _ in 0..200 {
            qp_a.post_send(read()).map_err(&e)?;
            spin(&cq_a, 1, &mut wcs)?;
        }
        Ok(())
    })?;
    out.push(("verbs.read64k_ns", ns));

    let ns = per_op_ns(budget, 50, || {
        for _ in 0..50 {
            black_box(pair()?);
        }
        Ok(())
    })?;
    out.push(("verbs.qp_setup_us", ns / 1e3));

    let ns = per_op_ns(budget, 20, || {
        for _ in 0..20 {
            let mr = pd_a.register(1 << 20, AccessFlags::all()).map_err(&e)?;
            dev_a.deregister_mr(mr.lkey()).map_err(&e)?;
        }
        Ok(())
    })?;
    out.push(("verbs.mr_register_us", ns / 1e3));
    Ok(())
}

fn kib_send(wr_id: u64, payload: &Bytes) -> RelayMsg {
    RelayMsg::Send {
        src: WireEp::new(OverlayIp::from_octets(10, 0, 0, 1), 1),
        dst: WireEp::new(OverlayIp::from_octets(10, 0, 0, 2), 1),
        wr_id,
        imm: None,
        payload: RelayPayload::Inline(payload.clone()),
    }
}

/// Two agents driven by hand (no pump threads): what relaying costs in
/// CPU when nothing parks. Every SEND is acked back, as the library does.
fn agent(budget: Duration, out: &mut Probed) -> Result<(), String> {
    let e = err("agent");
    let a0 = Agent::new(HostId::new(0), 16 << 20);
    let a1 = Agent::new(HostId::new(1), 16 << 20);
    let (w0, w1) = connect_agents(&a0, &a1, TransportKind::Rdma);
    let (ip_src, ip_dst) = (
        OverlayIp::from_octets(10, 0, 0, 1),
        OverlayIp::from_octets(10, 0, 0, 2),
    );
    let src = a0.attach_container(ip_src).map_err(&e)?;
    let dst = a1.attach_container(ip_dst).map_err(&e)?;
    a0.install_route(ip_dst, w0).map_err(&e)?;
    a1.install_route(ip_src, w1).map_err(&e)?;
    let payload = Bytes::from(vec![9u8; 1024]);
    let frames: Vec<Bytes> = (0..CHAIN as u64)
        .map(|i| kib_send(i, &payload).encode())
        .collect();
    let mut inbox = Vec::with_capacity(CHAIN);
    let ns = per_op_ns(budget, 2 * CHAIN as u64, || {
        for f in &frames {
            src.channel.tx.try_send(f).map_err(err("agent send"))?;
        }
        a0.poll();
        a1.poll();
        inbox.clear();
        dst.channel
            .rx
            .try_recv_many(CHAIN, &mut inbox)
            .map_err(err("agent relayed frames"))?;
        if inbox.len() != CHAIN {
            return Err(format!(
                "probe agent: {} of {CHAIN} frames relayed",
                inbox.len()
            ));
        }
        for m in inbox.drain(..) {
            let ShmMessage::Inline(raw) = m else {
                return Err("probe agent: 1 KiB frame left the inline path".into());
            };
            let RelayMsg::Send {
                src: from,
                dst: to,
                wr_id,
                payload,
                ..
            } = RelayMsg::decode(raw).map_err(&e)?
            else {
                return Err("probe agent: relayed frame is not a SEND".into());
            };
            let ack = RelayMsg::Ack {
                src: to,
                dst: from,
                wr_id,
                byte_len: payload.len(),
            };
            dst.channel.tx.try_send(&ack.encode()).map_err(&e)?;
        }
        a1.poll();
        a0.poll();
        let acks = src
            .channel
            .rx
            .try_recv_many(CHAIN, &mut inbox)
            .map_err(err("agent relayed acks"))?;
        inbox.clear();
        if acks != CHAIN {
            return Err(format!("probe agent: {acks} of {CHAIN} acks relayed"));
        }
        Ok(())
    })?;
    out.push(("agent.relay_cpu_ns_per_msg", ns));

    let msg = kib_send(1, &payload);
    let ns = per_op_ns(budget, 5_000, || {
        for _ in 0..5_000 {
            let mut buf = BytesMut::with_capacity(1100);
            black_box(&msg).encode_into(&mut buf);
            black_box(buf);
        }
        Ok(())
    })?;
    out.push(("agent.codec_encode_ns", ns));
    let wire = msg.encode();
    let ns = per_op_ns(budget, 5_000, || {
        for _ in 0..5_000 {
            black_box(RelayMsg::decode(wire.clone()).map_err(&e)?);
        }
        Ok(())
    })?;
    out.push(("agent.codec_decode_ns", ns));
    let chain: Vec<RelayMsg> = (0..CHAIN as u64).map(|i| kib_send(i, &payload)).collect();
    let mut decoded = Vec::with_capacity(CHAIN);
    let ns = per_op_ns(budget, 100 * CHAIN as u64, || {
        for _ in 0..100 {
            let mut buf = BytesMut::with_capacity(CHAIN * 1100);
            RelayMsg::encode_coalesced(black_box(&chain), &mut buf);
            decoded.clear();
            RelayMsg::decode_many(buf.freeze(), &mut decoded).map_err(&e)?;
        }
        Ok(())
    })?;
    out.push(("agent.codec_batch_decode_ns", ns));
    Ok(())
}

/// `create_cq` + `create_qp` + `connect` on one side against a live peer.
fn qp_connect_us(budget: Duration, p: &BenchPair) -> Result<f64, String> {
    let e = err("qp connect");
    let ns = per_op_ns(budget, 20, || {
        for _ in 0..20 {
            let cq = p.a.create_cq(16);
            let qp = p.a.create_qp(&cq, &cq, 16, 16).map_err(&e)?;
            qp.connect(p.qp_b.endpoint()).map_err(&e)?;
        }
        Ok(())
    })?;
    Ok(ns / 1e3)
}

fn core_and_orchestrator(budget: Duration, out: &mut Probed) -> Result<(), String> {
    let shm = bench_pair(true);
    let relay = bench_pair(false);

    let orch = relay.cluster.orchestrator();
    let (ip_a, ip_b) = (relay.a.ip(), relay.b.ip());
    let ns = per_op_ns(budget, 2_000, || {
        for _ in 0..2_000 {
            black_box(orch.decide_path_by_ip(ip_a, ip_b).map_err(err("core"))?);
        }
        Ok(())
    })?;
    out.push(("orchestrator.decide_path_ns", ns));
    let host = relay.a.host();
    let ns = per_op_ns(budget, 5, || {
        for _ in 0..5 {
            let c = relay
                .cluster
                .launch(TenantId::new(1), host)
                .map_err(err("core"))?;
            relay.cluster.stop(c).map_err(err("core"))?;
        }
        Ok(())
    })?;
    // Launch and stop are timed together: a launched container cannot be
    // left running without growing the cluster under the later probes.
    out.push(("orchestrator.launch_us", ns / 1e3));

    let lib = relay.a.lib();
    for (name, cached) in [
        ("core.resolve_hit_ns", true),
        ("core.resolve_miss_ns", false),
    ] {
        lib.cache().set_enabled(cached);
        let ns = per_op_ns(budget, 1_000, || {
            for _ in 0..1_000 {
                black_box(lib.resolve(ip_b).map_err(err("core"))?);
            }
            Ok(())
        })?;
        out.push((name, ns));
    }
    lib.cache().set_enabled(true);

    // The same loop as `verbs.write64_ns`, through the FreeFlow QP.
    let mut wcs = Vec::with_capacity(1);
    let ns = per_op_ns(budget, 5_000, || {
        for _ in 0..5_000 {
            shm.qp_a
                .post_send(SendWr::write(
                    1,
                    shm.mr_a.sge(0, 64),
                    shm.mr_b.addr(),
                    shm.mr_b.rkey(),
                ))
                .map_err(err("core"))?;
            spin(&shm.cq_a, 1, &mut wcs)?;
        }
        Ok(())
    })?;
    out.push(("core.shm_write64_ns", ns));
    let bare = out
        .iter()
        .find(|(n, _)| *n == "verbs.write64_ns")
        .map_or(0.0, |(_, v)| *v);
    out.push(("core.shm_tax_ns", ns - bare));

    out.push(("core.qp_connect_shm_us", qp_connect_us(budget, &shm)?));
    out.push(("core.qp_connect_relay_us", qp_connect_us(budget, &relay)?));

    let report = freeflow_bench::migration::run_migration_suite(true);
    let idle = report
        .runs
        .iter()
        .find(|r| r.name == "migration/blackout_p50_idle")
        .ok_or("probe migrate: no idle blackout in the migration suite")?;
    out.push(("core.migrate_idle_p50_ms", idle.elapsed_ns as f64 / 1e6));
    Ok(())
}

fn cross_host_cluster() -> (Arc<FreeFlowCluster>, [HostId; 2]) {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    (cluster, [h0, h1])
}

fn socket(out: &mut Probed) -> Result<(), String> {
    let e = err("socket");
    // First connect between a pair: pays channel establishment (QP, CQs,
    // slotted MRs, pump thread). One sample per fresh world.
    let mut cold = Vec::new();
    for _ in 0..5 {
        let (cluster, [h0, h1]) = cross_host_cluster();
        let a = cluster.launch(TenantId::new(1), h0).map_err(&e)?;
        let b = cluster.launch(TenantId::new(1), h1).map_err(&e)?;
        let stack = SocketStack::new();
        let listener = stack.bind(&b, 80).map_err(&e)?;
        let (us, streams) = std::thread::scope(|s| {
            let accept = s.spawn(|| listener.accept(WAIT));
            let t0 = Instant::now();
            let client = stack.connect(&a, b.ip(), 80);
            let us = t0.elapsed().as_nanos() as f64 / 1e3;
            (us, (client, accept.join().expect("accept thread panicked")))
        });
        let (client, server) = (streams.0.map_err(&e)?, streams.1.map_err(&e)?);
        cold.push(us);
        drop((client, server, listener));
        drop(stack);
        drop((a, b));
    }
    out.push(("socket.connect_cold_us", median(&mut cold)));

    // The dedicated-QP baseline the pooled stream is judged against.
    let mut perqp = Vec::new();
    let mut ratio = Vec::new();
    for _ in 0..3 {
        let report = freeflow_bench::socket::run_socket_suite(true);
        let of = |name: &str| {
            report
                .mops_of(name)
                .ok_or_else(|| format!("probe socket: no {name} in the socket suite"))
        };
        let (p, q) = (of("socket/msg_4KB_pooled")?, of("socket/msg_4KB_perqp")?);
        perqp.push(q * 1e3);
        ratio.push(p / q);
    }
    out.push(("socket.perqp_msg4k_kops", median(&mut perqp)));
    out.push(("socket.pooled_over_perqp", median(&mut ratio)));
    Ok(())
}

/// Two ranks, one thread each: on two cores an allreduce is a socket
/// ping-pong, which is why MPI is a probe and not a fifth workload.
fn mpi(budget: Duration, out: &mut Probed) -> Result<(), String> {
    let e = err("mpi");
    for (name, same_host) in [
        ("mpi.allreduce_1k_shm_us", true),
        ("mpi.allreduce_1k_relay_us", false),
    ] {
        let (cluster, [h0, h1]) = cross_host_cluster();
        let placements = [h0, if same_host { h0 } else { h1 }];
        let mut ranks = MpiWorld::create(&cluster, TenantId::new(1), &placements).map_err(&e)?;
        let mut peer = ranks.pop().ok_or("probe mpi: no second rank")?;
        let mut root = ranks.pop().ok_or("probe mpi: no first rank")?;
        let data = vec![1.5f64; 1024];
        const ROUNDS: usize = 20;
        let us = std::thread::scope(|s| -> Result<f64, String> {
            // The root broadcasts one byte before every batch: 1 = another
            // batch of allreduces follows, 0 = stop.
            let peer_data = &data;
            let peer_thread = s.spawn(move || -> Result<(), String> {
                loop {
                    let mut go = Vec::new();
                    peer.broadcast(0, &mut go).map_err(err("mpi"))?;
                    if go != [1] {
                        return Ok(());
                    }
                    for _ in 0..ROUNDS {
                        peer.allreduce(peer_data, Op::Sum).map_err(err("mpi"))?;
                    }
                }
            });
            let ns = per_op_ns(budget, ROUNDS as u64, || {
                root.broadcast(0, &mut vec![1]).map_err(&e)?;
                for _ in 0..ROUNDS {
                    let sum = root.allreduce(&data, Op::Sum).map_err(&e)?;
                    if sum.len() != data.len() || sum[0] != 3.0 {
                        return Err("probe mpi: wrong allreduce result".into());
                    }
                }
                Ok(())
            });
            root.broadcast(0, &mut vec![0]).map_err(&e)?;
            peer_thread
                .join()
                .map_err(|_| "probe mpi: peer panicked")??;
            Ok(ns? / 1e3)
        })?;
        out.push((name, us));
    }
    Ok(())
}

fn telemetry(budget: Duration, out: &mut Probed) -> Result<(), String> {
    let hub = Telemetry::new();
    let labels = LabelSet::host(0);
    let counter = hub
        .registry()
        .counter("ffbench_probe_total", "probe counter", labels);
    let histogram = hub
        .registry()
        .histogram("ffbench_probe_ns", "probe histogram", labels);
    let ns = per_op_ns(budget, 100_000, || {
        for _ in 0..100_000 {
            black_box(&counter).inc();
        }
        Ok(())
    })?;
    out.push(("telemetry.counter_inc_ns", ns));
    let ns = per_op_ns(budget, 100_000, || {
        for i in 0..100_000u64 {
            black_box(&histogram).record(i);
        }
        Ok(())
    })?;
    out.push(("telemetry.histogram_record_ns", ns));
    let ns = per_op_ns(budget, 100_000, || {
        for i in 0..100_000u64 {
            hub.record(black_box(Event::DoorbellWait {
                host: i,
                bell: "probe",
            }));
        }
        Ok(())
    })?;
    out.push(("telemetry.recorder_record_ns", ns));
    Ok(())
}

/// Every [`crate::metrics::Source::Probe`] metric. `budget` is the time
/// each timed loop may take; the world-building probes (`socket.*`,
/// `core.migrate_idle_p50_ms`) take what they take.
pub fn run_all(budget: Duration) -> Result<Probed, String> {
    let mut out = Vec::new();
    shmem(budget, &mut out)?;
    verbs(budget, &mut out)?;
    agent(budget, &mut out)?;
    core_and_orchestrator(budget, &mut out)?;
    socket(&mut out)?;
    mpi(budget, &mut out)?;
    telemetry(budget, &mut out)?;
    Ok(out)
}
