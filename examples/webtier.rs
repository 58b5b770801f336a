//! A multi-tier web service — the paper's other motivating architecture:
//! "a web service can include layers, such as load balancer, web server,
//! in-memory cache ... and each layer can be a distributed system with
//! multiple containerized nodes."
//!
//! Topology (5 containers over 2 hosts):
//!
//! ```text
//!   client ── lb ──┬── web-0 ──┐
//!                  └── web-1 ──┴── cache     (cache co-located with web-0)
//! ```
//!
//! Every tier speaks plain sockets on its own port-80/6379-style ports —
//! both web servers bind :80, which host-mode networking cannot do at all.
//! The lb round-robins requests; webs consult the cache. FreeFlow silently
//! uses shared memory for the co-located hops and the RDMA wire for the
//! rest.
//!
//! After the tier demo, a **connection storm** opens `--streams N`
//! (default 1000) sockets between one container pair and echoes a payload
//! down every one. All N ride a handful of shared RC channels — the
//! channel pool multiplexes thousands of streams per QP — and on a
//! settled path the re-send counter stays exactly zero. With `--soak`,
//! a NIC failure + restore is injected mid-storm and every echo must
//! still come back byte-identical.
//!
//! Run: `cargo run --release --example webtier -- --streams 1000 [--soak]`

use freeflow::binding::BindingPhase;
use freeflow::FreeFlowCluster;
use freeflow_socket::{FfStream, SocketStack};
use freeflow_types::{HostCaps, OverlayIp, TenantId};
use std::time::{Duration, Instant};

const REQUESTS: usize = 200;
const STORM_PAYLOAD: usize = 2048;

fn send_msg(s: &mut FfStream, data: &[u8]) {
    s.write_all(&(data.len() as u32).to_le_bytes()).unwrap();
    s.write_all(data).unwrap();
}

fn recv_msg(s: &mut FfStream) -> Option<Vec<u8>> {
    let mut len = [0u8; 4];
    if s.read_exact(&mut len).is_err() {
        return None;
    }
    let mut data = vec![0u8; u32::from_le_bytes(len) as usize];
    s.read_exact(&mut data).ok()?;
    Some(data)
}

/// Deterministic per-stream payload so a corrupted echo localizes.
fn storm_payload(seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..STORM_PAYLOAD)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

fn parse_args() -> (usize, bool) {
    let mut streams = 1000usize;
    let mut soak = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--streams" => {
                streams = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--streams takes a count");
            }
            "--soak" => soak = true,
            other => panic!("unknown arg {other} (expected --streams N / --soak)"),
        }
    }
    (streams, soak)
}

fn main() {
    let (nstreams, soak) = parse_args();
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let tenant = TenantId::new(7);
    let stack = SocketStack::new();

    // Placement: lb + web-0 + cache on h0; web-1 on h1.
    let lb = cluster.launch(tenant, h0).unwrap();
    let web0 = cluster.launch(tenant, h0).unwrap();
    let web1 = cluster.launch(tenant, h1).unwrap();
    let cache = cluster.launch(tenant, h0).unwrap();
    let client = cluster.launch(tenant, h1).unwrap();

    let cache_ip = cache.ip();
    let lb_ip = lb.ip();
    let web_ips = [web0.ip(), web1.ip()];

    // --- cache tier: GET <key> → "value-of-<key>" -------------------------
    let cache_listener = stack.bind(&cache, 6379).unwrap();
    let cache_thread = std::thread::spawn(move || {
        let mut conns = Vec::new();
        for _ in 0..2 {
            conns.push(cache_listener.accept(Duration::from_secs(10)).unwrap());
        }
        let mut workers = Vec::new();
        for mut conn in conns {
            workers.push(std::thread::spawn(move || {
                while let Some(req) = recv_msg(&mut conn) {
                    let key = String::from_utf8_lossy(&req).to_string();
                    send_msg(&mut conn, format!("value-of-{key}").as_bytes());
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        cache
    });

    // --- web tier: both servers bind :80 (impossible in host mode!) ------
    let mut web_threads = Vec::new();
    for (idx, web) in [web0, web1].into_iter().enumerate() {
        let listener = stack.bind(&web, 80).unwrap();
        let stack = stack.clone();
        web_threads.push(std::thread::spawn(move || {
            let mut cache_conn = stack.connect(&web, cache_ip, 6379).unwrap();
            let mut lb_conn = listener.accept(Duration::from_secs(10)).unwrap();
            while let Some(req) = recv_msg(&mut lb_conn) {
                // "GET /k" → ask the cache, render a response.
                send_msg(&mut cache_conn, &req);
                let val = recv_msg(&mut cache_conn).expect("cache reply");
                let body = format!(
                    "HTTP/1.0 200 OK (web-{idx})\n{}",
                    String::from_utf8_lossy(&val)
                );
                send_msg(&mut lb_conn, body.as_bytes());
            }
            web
        }));
    }

    // --- load balancer: round robin over the web tier ---------------------
    let lb_listener = stack.bind(&lb, 80).unwrap();
    let lb_stack = stack.clone();
    let lb_thread = std::thread::spawn(move || {
        let mut webs: Vec<FfStream> = web_ips
            .iter()
            .map(|ip| lb_stack.connect(&lb, *ip, 80).unwrap())
            .collect();
        let mut client_conn = lb_listener.accept(Duration::from_secs(10)).unwrap();
        let mut rr = 0usize;
        while let Some(req) = recv_msg(&mut client_conn) {
            let n = webs.len();
            let web = &mut webs[rr % n];
            rr += 1;
            send_msg(web, &req);
            let resp = recv_msg(web).expect("web reply");
            send_msg(&mut client_conn, &resp);
        }
        lb
    });

    // --- client ------------------------------------------------------------
    let mut conn = stack.connect(&client, lb_ip, 80).unwrap();
    let start = Instant::now();
    let mut hits = [0usize; 2];
    for i in 0..REQUESTS {
        send_msg(&mut conn, format!("item-{}", i % 16).as_bytes());
        let resp = recv_msg(&mut conn).expect("response");
        let text = String::from_utf8_lossy(&resp).to_string();
        assert!(
            text.contains(&format!("value-of-item-{}", i % 16)),
            "{text}"
        );
        if text.contains("web-0") {
            hits[0] += 1;
        } else {
            hits[1] += 1;
        }
    }
    let elapsed = start.elapsed();
    conn.shutdown().unwrap();
    drop(conn);

    let lb = lb_thread.join().unwrap();
    let webs: Vec<_> = web_threads.into_iter().map(|t| t.join().unwrap()).collect();
    let cache = cache_thread.join().unwrap();

    println!("web tier: {REQUESTS} requests through client → lb → web[0..2] → cache");
    println!(
        "  responses: web-0 served {}, web-1 served {} (round robin)",
        hits[0], hits[1]
    );
    println!(
        "  mean end-to-end latency: {:.1} us (4 hops, mixed shm/RDMA)",
        elapsed.as_secs_f64() * 1e6 / REQUESTS as f64
    );
    let show = |name: &str, ip: OverlayIp, host: freeflow_types::HostId| {
        println!("  {name:<6} {ip:<12} on {host}");
    };
    show("lb", lb.ip(), lb.host());
    for (i, w) in webs.iter().enumerate() {
        show(&format!("web-{i}"), w.ip(), w.host());
    }
    show("cache", cache.ip(), cache.host());
    println!("both web servers bound :80 — per-container port spaces, the overlay's gift.");

    // --- connection storm: N streams over a shared channel -----------------
    //
    // Open `nstreams` sockets client(h1) → cache(h0) and echo a payload
    // down each. Every stream is an id allocation on the *same* pooled RC
    // channel — QPs scale with container pairs, not connections.
    println!();
    println!(
        "connection storm: {nstreams} streams client → cache{}",
        if soak {
            " (with NIC failover soak)"
        } else {
            ""
        }
    );
    let storm_listener = stack.bind(&cache, 9000).unwrap();
    let echo_thread = std::thread::spawn(move || {
        let mut conns: Vec<FfStream> = (0..nstreams)
            .map(|_| storm_listener.accept(Duration::from_secs(30)).unwrap())
            .collect();
        for conn in &mut conns {
            let msg = recv_msg(conn).expect("storm payload");
            send_msg(conn, &msg);
        }
        (conns, cache)
    });

    let setup_start = Instant::now();
    let mut streams: Vec<FfStream> = (0..nstreams)
        .map(|_| stack.connect(&client, cache_ip, 9000).unwrap())
        .collect();
    let setup = setup_start.elapsed();

    let fault = soak.then(|| {
        let cluster = std::sync::Arc::clone(&cluster);
        std::thread::spawn(move || {
            // Fire while the write storm below is in full swing.
            std::thread::sleep(Duration::from_millis(30));
            cluster.fail_nic(h0).unwrap();
            cluster.refresh_routes();
            std::thread::sleep(Duration::from_millis(30));
            cluster.restore_nic(h0).unwrap();
            cluster.refresh_routes();
        })
    });

    let storm_start = Instant::now();
    let payloads: Vec<Vec<u8>> = (0..nstreams).map(|i| storm_payload(i as u64 + 1)).collect();
    for (s, p) in streams.iter_mut().zip(&payloads) {
        send_msg(s, p);
    }
    for (i, (s, p)) in streams.iter_mut().zip(&payloads).enumerate() {
        let echo = recv_msg(s).expect("echo");
        assert_eq!(&echo, p, "stream {i} echo not byte-identical");
    }
    let storm = storm_start.elapsed();
    if let Some(f) = fault {
        f.join().unwrap();
    }

    // The pool invariant the refactor exists for: channels ≪ streams.
    let channels = stack.channel_count(&client);
    assert!(
        channels * 100 <= nstreams.max(100),
        "expected channels ≪ streams, got {channels} channels for {nstreams} streams"
    );
    let snap = cluster.telemetry();
    let reuse = snap.counter_total("ff_channel_qp_reuse_total");
    assert!(
        reuse >= (nstreams as u64).saturating_sub(1),
        "storm must reuse the pooled channel: reuse={reuse}, streams={nstreams}"
    );
    let resent = snap.counter_total("ff_qp_resent_total");
    if soak {
        // Settle back onto RDMA, then prove recovery disarmed: one more
        // settled echo round adds nothing to the re-send counter.
        let deadline = Instant::now() + Duration::from_secs(10);
        while streams[0].qp().binding_phase() != BindingPhase::Bound {
            assert!(Instant::now() < deadline, "path never settled post-restore");
            std::thread::sleep(Duration::from_millis(2));
        }
    } else {
        assert_eq!(resent, 0, "settled-path storm did recovery work");
    }

    for s in &mut streams {
        s.shutdown().unwrap();
    }
    drop(streams);
    let (conns, cache) = echo_thread.join().unwrap();
    drop(conns);
    let _ = cache;

    println!(
        "  setup: {nstreams} connects in {:.1} ms ({:.0} conn/s) — {channels} shared channel(s), {reuse} QP reuses",
        setup.as_secs_f64() * 1e3,
        nstreams as f64 / setup.as_secs_f64()
    );
    println!(
        "  echo: {} KiB round-tripped in {:.1} ms, re-sent ops={resent}{}",
        nstreams * STORM_PAYLOAD / 1024,
        storm.as_secs_f64() * 1e3,
        if soak {
            " (NIC failed + restored mid-storm; every echo byte-identical)"
        } else {
            " (settled path: provably zero recovery work)"
        }
    );
    println!(
        "  streams per QP: {} — connections are cheap, channels are pooled.",
        nstreams.checked_div(channels).unwrap_or(0)
    );
}
