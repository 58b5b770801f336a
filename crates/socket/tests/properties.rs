//! End-to-end socket properties: arbitrary interleavings of N
//! multiplexed streams — all sharing one channel — deliver byte-identical
//! per-stream sequences, both on a settled path (with the re-send counter
//! provably zero) and straight through a NIC failure + restore injected
//! mid-transfer (failover to TCP, upgrade back to RDMA, the channel QP's
//! unanswered frames re-sent across the failover).

use freeflow::binding::BindingPhase;
use freeflow::{Container, FreeFlowCluster};
use freeflow_socket::{FfListener, FfStream, SocketStack};
use freeflow_telemetry::LabelSet;
use freeflow_types::{HostCaps, OverlayIp, TenantId, TransportKind};
use proptest::prelude::*;
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Deterministic pseudo-random payload (xorshift), unique per seed.
fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

struct Pair {
    _cluster: Arc<FreeFlowCluster>,
    a: Container,
    _b: Container,
    stack: Arc<SocketStack>,
    listener: FfListener,
    server_ip: OverlayIp,
    port: u16,
    clients: Vec<FfStream>,
    servers: Vec<FfStream>,
}

/// Open `n` connected streams over `stack` — concurrently accepting and
/// connecting — and assert they all land on one shared QP.
fn open_streams(
    stack: &Arc<SocketStack>,
    a: &Container,
    listener: &FfListener,
    server_ip: OverlayIp,
    port: u16,
    n: usize,
) -> (Vec<FfStream>, Vec<FfStream>) {
    let (clients, servers) = std::thread::scope(|s| {
        let acc = s.spawn(|| {
            (0..n)
                .map(|_| listener.accept(Duration::from_secs(10)).unwrap())
                .collect::<Vec<FfStream>>()
        });
        let clients: Vec<FfStream> = (0..n)
            .map(|_| stack.connect(a, server_ip, port).unwrap())
            .collect();
        (clients, acc.join().unwrap())
    });
    let qpn = clients[0].qp().qp_num();
    for c in &clients {
        assert_eq!(c.qp().qp_num(), qpn, "all client streams share one QP");
    }
    (clients, servers)
}

/// N connected streams between a container pair on two hosts, all on one
/// shared channel.
fn multiplexed_pair(n: usize, port: u16) -> Pair {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let a = cluster.launch(TenantId::new(1), h0).unwrap();
    let b = cluster.launch(TenantId::new(1), h1).unwrap();
    let stack = SocketStack::new();
    let listener = stack.bind(&b, port).unwrap();
    let server_ip = b.ip();
    let (clients, servers) = open_streams(&stack, &a, &listener, server_ip, port, n);
    Pair {
        _cluster: cluster,
        a,
        _b: b,
        stack,
        listener,
        server_ip,
        port,
        clients,
        servers,
    }
}

/// Replace the pair's (consumed, half-closed) streams with fresh ones —
/// new sockets, same pooled channel.
fn reopen_streams(pair: &mut Pair, n: usize) {
    pair.clients.clear();
    pair.servers.clear();
    let (clients, servers) = open_streams(
        &pair.stack,
        &pair.a,
        &pair.listener,
        pair.server_ip,
        pair.port,
        n,
    );
    pair.clients = clients;
    pair.servers = servers;
}

/// Drive `data[i]` down stream `i` in `chunk`-sized writes while readers
/// collect; returns what each reader saw. `fault` (if any) runs once
/// every writer has posted its first bulk chunk and still has the rest
/// to go — mid-transfer by construction, not by sleep.
fn transfer(
    pair: &mut Pair,
    data: &[Vec<u8>],
    chunk: usize,
    fault: Option<Box<dyn FnOnce() + Send>>,
) -> Vec<Vec<u8>> {
    let n = data.len();
    // Writers + the fault injector meet here after the greeting round,
    // and again right after every writer's first bulk chunk.
    let barrier = Arc::new(Barrier::new(n + 1));
    let fault_gate = Arc::new(Barrier::new(n + 1));
    let mut handles = Vec::new();
    for (i, stream) in pair.clients.drain(..).enumerate() {
        let bytes = data[i].clone();
        let barrier = Arc::clone(&barrier);
        let fault_gate = Arc::clone(&fault_gate);
        let chunk = chunk.max(1);
        handles.push(std::thread::spawn(move || {
            let mut s = stream;
            s.write_all(&(bytes.len() as u64).to_le_bytes()).unwrap();
            barrier.wait();
            let mut chunks = bytes.chunks(chunk);
            if let Some(c) = chunks.next() {
                s.write_all(c).unwrap();
            }
            fault_gate.wait();
            for c in chunks {
                s.write_all(c).unwrap();
            }
            s.shutdown().unwrap();
            s
        }));
    }
    let mut readers = Vec::new();
    for stream in pair.servers.drain(..) {
        readers.push(std::thread::spawn(move || {
            let mut s = stream;
            let mut hdr = [0u8; 8];
            s.read_exact(&mut hdr).unwrap();
            let total = u64::from_le_bytes(hdr) as usize;
            let mut got = vec![0u8; total];
            s.read_exact(&mut got).unwrap();
            let mut probe = [0u8; 1];
            assert_eq!(s.read(&mut probe).unwrap(), 0, "EOF after payload");
            (got, s)
        }));
    }
    barrier.wait();
    fault_gate.wait();
    if let Some(f) = fault {
        // Every writer has in-flight bulk data and more queued behind
        // it; fail underneath them right now.
        f();
    }
    for h in handles {
        pair.clients.push(h.join().unwrap());
    }
    let mut out = Vec::new();
    for r in readers {
        let (got, s) = r.join().unwrap();
        out.push(got);
        pair.servers.push(s);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Settled path: arbitrary stream counts, lengths and chunkings
    /// deliver byte-identically with the re-send counter — per QP and
    /// cluster-wide — exactly zero.
    #[test]
    fn settled_path_is_byte_identical_with_zero_recovery_counters(
        nstreams in 2usize..6,
        lens in prop::collection::vec(1usize..60_000, 6),
        chunk in 100usize..4000,
        seed in any::<u64>(),
    ) {
        let mut pair = multiplexed_pair(nstreams, 7400);
        let data: Vec<Vec<u8>> = (0..nstreams)
            .map(|i| payload(seed ^ (i as u64 + 1), lens[i]))
            .collect();
        let got = transfer(&mut pair, &data, chunk, None);
        prop_assert_eq!(&got, &data);
        for s in pair.clients.iter().chain(&pair.servers) {
            prop_assert_eq!(s.qp().resent_count(), 0, "settled path re-sent");
        }
        let snap = pair._cluster.telemetry();
        prop_assert_eq!(snap.counter_total("ff_qp_resent_total"), 0);
    }

    /// A NIC failure + restore injected mid-transfer (failover rebind,
    /// then upgrade rebind) is invisible at the byte level: every stream
    /// delivers exactly its bytes, and once the path settles again a
    /// follow-up transfer does zero new recovery work.
    #[test]
    fn streams_survive_nic_failover_byte_identical(
        nstreams in 2usize..5,
        lens in prop::collection::vec(20_000usize..120_000, 5),
        chunk in 100usize..4000,
        seed in any::<u64>(),
    ) {
        let mut pair = multiplexed_pair(nstreams, 7500);
        let cluster = Arc::clone(&pair._cluster);
        let h0 = pair.a.host();
        let data: Vec<Vec<u8>> = (0..nstreams)
            .map(|i| payload(seed ^ (i as u64 + 1), lens[i]))
            .collect();
        let fault = {
            let cluster = Arc::clone(&cluster);
            Box::new(move || {
                cluster.fail_nic(h0).unwrap();
                cluster.refresh_routes();
                std::thread::sleep(Duration::from_millis(20));
                cluster.restore_nic(h0).unwrap();
                cluster.refresh_routes();
            }) as Box<dyn FnOnce() + Send>
        };
        let got = transfer(&mut pair, &data, chunk, Some(fault));
        prop_assert_eq!(&got, &data);

        // Settle, then prove the recovery machinery disarmed: a fresh
        // transfer — on fresh sockets, which must land on the *same*
        // surviving pooled channel — adds nothing to the re-send counter.
        // Settled means both ends bound on RDMA again: a QP that failed
        // over sits bound on TCP until the library pump upgrades it, and
        // that upgrade re-sends whatever is unanswered when it comes.
        wait_until("path settles post-restore", Duration::from_secs(10), || {
            [&pair.clients[0], &pair.servers[0]].iter().all(|s| {
                s.qp().binding_phase() == BindingPhase::Bound
                    && s.qp().path().transport() == Some(TransportKind::Rdma)
            })
        });
        let qpn = pair.clients[0].qp().qp_num();
        reopen_streams(&mut pair, nstreams);
        prop_assert_eq!(
            pair.clients[0].qp().qp_num(),
            qpn,
            "reconnects must reuse the channel that survived the failover"
        );
        let before = pair._cluster.telemetry();
        let data2: Vec<Vec<u8>> = (0..nstreams)
            .map(|i| payload(seed ^ (i as u64 + 101), 10_000))
            .collect();
        let got2 = transfer(&mut pair, &data2, chunk, None);
        prop_assert_eq!(&got2, &data2);
        let after = pair._cluster.telemetry();
        prop_assert_eq!(
            after.counter_total("ff_qp_resent_total"),
            before.counter_total("ff_qp_resent_total"),
            "settled path did recovery work"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Reads of any size — one byte up to two 16 KiB frame slots, so
    /// they end mid-frame and span frames — see exactly the bytes
    /// written, with the re-send counter at zero.
    #[test]
    fn reads_of_any_size_see_exactly_the_bytes_written(
        nstreams in 1usize..4,
        lens in prop::collection::vec(1usize..100_000, 3),
        chunk in 50usize..40_000,
        reads in prop::collection::vec(1usize..=2 * 16 * 1024, 1..32),
        seed in any::<u64>(),
    ) {
        let mut pair = multiplexed_pair(nstreams, 7700);
        let data: Vec<Vec<u8>> = (0..nstreams)
            .map(|i| payload(seed ^ (i as u64 + 1), lens[i]))
            .collect();
        let got: Vec<Vec<u8>> = std::thread::scope(|sc| {
            for (c, bytes) in pair.clients.iter_mut().zip(&data) {
                sc.spawn(move || {
                    for part in bytes.chunks(chunk) {
                        c.write_all(part).unwrap();
                    }
                    c.shutdown().unwrap();
                });
            }
            let readers: Vec<_> = pair
                .servers
                .iter_mut()
                .enumerate()
                .map(|(i, s)| {
                    let reads = &reads;
                    sc.spawn(move || {
                        let mut got = Vec::new();
                        let mut buf = vec![0u8; 2 * 16 * 1024];
                        for &len in reads.iter().cycle().skip(i) {
                            match s.read(&mut buf[..len]).unwrap() {
                                0 => return got,
                                n => got.extend_from_slice(&buf[..n]),
                            }
                        }
                        unreachable!("the read sizes cycle forever")
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        prop_assert_eq!(&got, &data);
        for s in pair.clients.iter().chain(&pair.servers) {
            prop_assert_eq!(s.qp().resent_count(), 0, "settled path re-sent");
        }
        let snap = pair._cluster.telemetry();
        prop_assert_eq!(snap.counter_total("ff_qp_resent_total"), 0);
    }
}

/// Far below the 30 s read timeout, far above the ≈ 0.1 s a transfer
/// takes: a reader that sleeps through its frame runs into it.
const WAKE_BUDGET: Duration = Duration::from_secs(10);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// One writer and one reader thread per stream, all streams on one
    /// channel, one chunk in flight at a time: writer `i` sends its chunk
    /// of a round when reader `i - 1` has read all of its own, in reads
    /// smaller than a frame. So every reader but one is parked on the
    /// channel when a frame lands, all wake, and whichever runs the
    /// channel's step first drains the frame for the reader it belongs
    /// to. A reader that looked at its buffer before that drain and slept
    /// on would stall the whole ring — nobody else has anything to send —
    /// so the transfer must end within [`WAKE_BUDGET`]: such a lost
    /// wakeup fails here instead of passing slowly.
    #[test]
    fn readers_that_drain_each_others_frames_lose_no_wakeup(
        nstreams in 2usize..6,
        sizes in prop::collection::vec(1usize..3000, 5),
        rounds in 1usize..60,
        read in 1usize..64,
        seed in any::<u64>(),
    ) {
        let mut pair = multiplexed_pair(nstreams, 7800);
        let data: Vec<Vec<u8>> = (0..nstreams)
            .map(|i| payload(seed ^ (i as u64 + 1), rounds * sizes[i]))
            .collect();
        // `turns[i]` tells writer `i` to send its next chunk; reader `i`
        // holds `turns[(i + 1) % nstreams]`, and only it, so a reader
        // that dies ends the ring instead of hanging it.
        let (mut turns, waits): (Vec<_>, Vec<_>) = (0..nstreams).map(|_| mpsc::channel()).unzip();
        turns[0].send(()).unwrap();
        turns.rotate_left(1);
        let t0 = Instant::now();
        let got: Vec<Vec<u8>> = std::thread::scope(|sc| {
            for ((c, bytes), wait) in pair.clients.iter_mut().zip(&data).zip(waits) {
                sc.spawn(move || {
                    for part in bytes.chunks(bytes.len() / rounds) {
                        wait.recv().unwrap();
                        c.write_all(part).unwrap();
                    }
                    c.shutdown().unwrap();
                });
            }
            let readers: Vec<_> = (pair.servers.iter_mut().zip(turns).zip(&sizes))
                .map(|((s, next), &size)| {
                    sc.spawn(move || {
                        let (mut got, mut buf) = (Vec::new(), [0u8; 64]);
                        for round in 1..=rounds {
                            while got.len() < round * size {
                                let want = read.min(round * size - got.len());
                                match s.read(&mut buf[..want]).unwrap() {
                                    0 => panic!("EOF at {} of {}", got.len(), rounds * size),
                                    n => got.extend_from_slice(&buf[..n]),
                                }
                            }
                            // Writer 0 is gone after the last round.
                            let _ = next.send(());
                        }
                        assert_eq!(s.read(&mut buf).unwrap(), 0, "EOF after payload");
                        got
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        prop_assert_eq!(&got, &data);
        prop_assert!(t0.elapsed() < WAKE_BUDGET, "took {:?}", t0.elapsed());
    }
}

/// The open-streams gauge tracks handle lifetime: N streams drive it to
/// 2N (both ends), dropping them drives it back to zero.
#[test]
fn stream_gauge_returns_to_zero() {
    let mut pair = multiplexed_pair(4, 7600);
    let snap = pair._cluster.telemetry();
    let labels = LabelSet::host(pair.a.host().raw()).with_container(pair.a.id().raw());
    assert_eq!(snap.gauge_value("ff_socket_streams", labels), Some(4));
    pair.clients.clear();
    pair.servers.clear();
    let snap = pair._cluster.telemetry();
    assert_eq!(
        snap.gauge_value("ff_socket_streams", labels),
        Some(0),
        "client-side gauge after drop"
    );
}
