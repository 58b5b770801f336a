//! The Socket half of the 2×2: one pooled `FfStream` between two
//! containers, same-host or cross-host, driven through the five phases by
//! a client thread (which measures, and is the only one traced) and a
//! peer thread that echoes, sinks, sources or accepts.
//!
//! The peer is told what to do in-band: every session opens with a
//! 24-byte header on the stream itself and ends with a message stamped
//! [`SEQ_END`], so the two harness threads share nothing but the stack
//! (and one counter that ends the accept loop of `conn`).

use crate::oracle::{self, Ledger, Rng, OP_DEADLINE, SEQ_END};
use crate::plan::{Phase, Plan};
use crate::stats::{PhaseStats, Slicer};
use crate::trace::{NoTrace, SpanName, Tracer};
use crate::world::{require_path, World};
use freeflow::qp::FfPath;
use freeflow::{Container, FreeFlowCluster};
use freeflow_socket::{FfListener, FfStream, SocketStack};
use freeflow_types::{HostCaps, OverlayIp, TenantId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Echo payload of the `lat` phase.
pub const LAT_MSG: usize = 64;
/// Message size of the `rate` phase (crosses the agent's
/// `ZERO_COPY_THRESHOLD`; continuity with `socket/msg_4KB_pooled`).
pub const RATE_MSG: usize = 4096;
/// Message size of `bulk` and `pull`.
pub const BULK_MSG: usize = 64 * 1024;
/// Outstanding requests in `pull`.
pub const PULL_WINDOW: u64 = 8;
/// Streams connected per measured second: 5000 in a 20 s run (a stream is
/// released when both ends drop it, so these do not pile up).
const CONN_PER_SECOND: f64 = 250.0;

const PORT: u16 = 80;
const HEADER: usize = 24;

/// What a session header asks the peer to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
enum Session {
    /// Read `len` bytes, verify, write them back.
    Echo = 1,
    /// Read `len`-byte messages, verify; answer the end marker with the
    /// count verified.
    Sink = 2,
    /// For every 8-byte request, write `len` stamped bytes back.
    Source = 3,
    /// Accept and drop connections until the target count is reached.
    Accept = 4,
    /// Return.
    Quit = 5,
}

fn sock<T>(res: freeflow_types::Result<T>, what: &str) -> Result<T, String> {
    res.map_err(|e| format!("{what}: {e}"))
}

/// The peer thread's state.
struct Peer {
    stream: FfStream,
    listener: FfListener,
    /// What the client sends (stamps aside).
    pattern_a: Vec<u8>,
    /// What this side sends in `Source` sessions.
    pattern_b: Vec<u8>,
    ledger: Arc<Ledger>,
    accept_target: Arc<AtomicU64>,
}

impl Peer {
    fn serve(mut self) -> Result<(FfStream, FfListener), String> {
        let mut buf = vec![0u8; BULK_MSG];
        loop {
            let mut hdr = [0u8; HEADER];
            sock(
                self.stream.read_exact(&mut hdr),
                "peer: read session header",
            )?;
            let word = |i: usize| oracle::stamped(&hdr[8 * i..]);
            let (kind, len, mut expect) = (word(0), word(1) as usize, word(2));
            if len > buf.len() {
                return Err(format!("peer: session asks for {len}-byte messages"));
            }
            match kind {
                k if k == Session::Echo as u64 => loop {
                    sock(self.stream.read_exact(&mut buf[..len]), "peer: echo read")?;
                    if oracle::stamped(&buf) == SEQ_END {
                        break;
                    }
                    oracle::check(&buf[..len], expect, &self.pattern_a)?;
                    expect += 1;
                    sock(self.stream.write_all(&buf[..len]), "peer: echo write")?;
                    self.ledger.tick(1);
                },
                k if k == Session::Sink as u64 => {
                    let mut verified = 0u64;
                    loop {
                        sock(self.stream.read_exact(&mut buf[..len]), "peer: sink read")?;
                        if oracle::stamped(&buf) == SEQ_END {
                            break;
                        }
                        oracle::check(&buf[..len], expect, &self.pattern_a)?;
                        expect += 1;
                        verified += 1;
                        self.ledger.tick(1);
                    }
                    sock(
                        self.stream.write_all(&verified.to_le_bytes()),
                        "peer: sink count",
                    )?;
                }
                k if k == Session::Source as u64 => {
                    buf[..len].copy_from_slice(&self.pattern_b[..len]);
                    loop {
                        let mut req = [0u8; 8];
                        sock(self.stream.read_exact(&mut req), "peer: source request")?;
                        let seq = u64::from_le_bytes(req);
                        if seq == SEQ_END {
                            break;
                        }
                        oracle::stamp(&mut buf, seq);
                        sock(self.stream.write_all(&buf[..len]), "peer: source write")?;
                        self.ledger.tick(1);
                    }
                }
                k if k == Session::Accept as u64 => {
                    let mut accepted = 0u64;
                    while accepted != self.accept_target.load(Ordering::SeqCst) {
                        drop(sock(self.listener.accept(OP_DEADLINE), "peer: accept")?);
                        accepted += 1;
                        self.ledger.tick(1);
                    }
                }
                k if k == Session::Quit as u64 => return Ok((self.stream, self.listener)),
                other => return Err(format!("peer: unknown session kind {other}")),
            }
        }
    }
}

/// A connected stream pair with its peer thread running.
pub struct SocketWorld {
    // Declaration order is teardown order: streams before the stack, the
    // stack before the containers, the containers before the cluster.
    client: FfStream,
    peer: Option<JoinHandle<Result<(FfStream, FfListener), String>>>,
    stack: Arc<SocketStack>,
    a: Container,
    b: Container,
    cluster: Arc<FreeFlowCluster>,
    same_host: bool,
    server_ip: OverlayIp,
    accept_target: Arc<AtomicU64>,
    pattern_a: Vec<u8>,
    pattern_b: Vec<u8>,
    buf: Vec<u8>,
    seq: u64,
}

impl SocketWorld {
    /// Cold build: cluster, hosts, containers, socket stack, listener, one
    /// connected stream (which establishes the pooled channel), one
    /// verified echo, and the peer thread.
    pub fn build(same_host: bool, seed: u64, ledger: &Arc<Ledger>) -> Result<Self, String> {
        let cluster = FreeFlowCluster::with_defaults();
        let h0 = cluster.add_host(HostCaps::paper_testbed());
        let h1 = if same_host {
            h0
        } else {
            cluster.add_host(HostCaps::paper_testbed())
        };
        let tenant = TenantId::new(1);
        let a = sock(cluster.launch(tenant, h0), "launch client container")?;
        let b = sock(cluster.launch(tenant, h1), "launch server container")?;
        let stack = SocketStack::new();
        let listener = sock(stack.bind(&b, PORT), "bind")?;
        let server_ip = b.ip();
        let (client, server) = std::thread::scope(|s| {
            let accept = s.spawn(|| listener.accept(OP_DEADLINE));
            let client = stack.connect(&a, server_ip, PORT);
            let server = accept.join().expect("accept thread panicked");
            (client, server)
        });
        let client = sock(client, "connect")?;
        let server = sock(server, "accept")?;
        require_path(client.qp().path(), same_host)?;

        let mut rng = Rng::new(seed);
        let pattern_a = rng.bytes(BULK_MSG);
        let pattern_b = rng.bytes(BULK_MSG);
        let accept_target = Arc::new(AtomicU64::new(u64::MAX));
        let peer = Peer {
            stream: server,
            listener,
            pattern_a: pattern_a.clone(),
            pattern_b: pattern_b.clone(),
            ledger: Arc::clone(ledger),
            accept_target: Arc::clone(&accept_target),
        };
        let peer = std::thread::Builder::new()
            .name("ffbench-peer".into())
            .spawn(move || {
                let ledger = Arc::clone(&peer.ledger);
                peer.serve().map_err(|why| {
                    ledger.fail(why.clone());
                    why
                })
            })
            .map_err(|e| format!("spawn peer thread: {e}"))?;
        let mut world = Self {
            client,
            peer: Some(peer),
            stack,
            a,
            b,
            cluster,
            same_host,
            server_ip,
            accept_target,
            buf: pattern_a.clone(),
            pattern_a,
            pattern_b,
            seq: 0,
        };
        // First operation: one verified 64 B round trip.
        world.open(Session::Echo, LAT_MSG)?;
        world.echo(&mut NoTrace)?;
        world.close(LAT_MSG)?;
        Ok(world)
    }

    /// Open a session of `kind` with `len`-byte messages.
    fn open(&mut self, kind: Session, len: usize) -> Result<(), String> {
        let mut hdr = [0u8; HEADER];
        for (i, word) in [kind as u64, len as u64, self.seq + 1].iter().enumerate() {
            hdr[8 * i..8 * i + 8].copy_from_slice(&word.to_le_bytes());
        }
        sock(self.client.write_all(&hdr), "session header").map(drop)
    }

    /// End the current session with a `len`-byte end marker.
    fn close(&mut self, len: usize) -> Result<(), String> {
        oracle::stamp(&mut self.buf, SEQ_END);
        sock(self.client.write_all(&self.buf[..len]), "end marker").map(drop)
    }

    /// One 64 B echo round trip; returns its duration in nanoseconds.
    fn echo<T: Tracer>(&mut self, tr: &mut T) -> Result<u64, String> {
        self.seq += 1;
        oracle::stamp(&mut self.buf, self.seq);
        let mut back = [0u8; LAT_MSG];
        let t0 = Instant::now();
        let op = tr.begin(SpanName::AppOp);
        let s = tr.begin(SpanName::SocketWriteAll);
        let wrote = self.client.write_all(&self.buf[..LAT_MSG]);
        tr.end(s);
        let s = tr.begin(SpanName::SocketReadExact);
        let read = wrote.and_then(|_| self.client.read_exact(&mut back));
        tr.end(s);
        tr.end(op);
        let lat = t0.elapsed().as_nanos() as u64;
        sock(read, "echo 64 B")?;
        oracle::check(&back, self.seq, &self.pattern_a)?;
        Ok(lat)
    }

    fn lat<T: Tracer>(
        &mut self,
        mut sl: Slicer,
        ledger: &Ledger,
        tr: &mut T,
    ) -> Result<PhaseStats, String> {
        self.open(Session::Echo, LAT_MSG)?;
        while sl.running() {
            ledger.tick(0);
            let lat = self.echo(tr)?;
            let now = sl.now_ns();
            sl.record_lat(lat, now);
        }
        self.close(LAT_MSG)?;
        Ok(sl.finish())
    }

    /// One-way `len`-byte messages, verified and counted by the peer; the
    /// peer's count must equal ours when the session ends.
    fn push<T: Tracer>(
        &mut self,
        len: usize,
        mut sl: Slicer,
        ledger: &Ledger,
        tr: &mut T,
    ) -> Result<PhaseStats, String> {
        self.open(Session::Sink, len)?;
        let first = self.seq;
        while sl.running() {
            ledger.tick(0);
            self.seq += 1;
            oracle::stamp(&mut self.buf, self.seq);
            let op = tr.begin(SpanName::AppOp);
            let s = tr.begin(SpanName::SocketWriteAll);
            let wrote = self.client.write_all(&self.buf[..len]);
            tr.end(s);
            tr.end(op);
            sock(wrote, "write_all")?;
            let now = sl.now_ns();
            sl.record_ops(1, now);
        }
        let stats = sl.finish();
        self.close(len)?;
        let mut count = [0u8; 8];
        sock(self.client.read_exact(&mut count), "read peer's count")?;
        let (sent, verified) = (self.seq - first, u64::from_le_bytes(count));
        if sent != verified {
            return Err(format!("sent {sent} messages, peer verified {verified}"));
        }
        Ok(stats)
    }

    /// The reverse direction: [`PULL_WINDOW`] 8-byte requests outstanding,
    /// each answered with 64 KiB that this thread reads and verifies.
    fn pull<T: Tracer>(
        &mut self,
        mut sl: Slicer,
        ledger: &Ledger,
        tr: &mut T,
    ) -> Result<PhaseStats, String> {
        self.open(Session::Source, BULK_MSG)?;
        let mut got = vec![0u8; BULK_MSG];
        let (mut asked, mut done) = (self.seq, self.seq);
        loop {
            // Past the deadline nothing new is requested; the window drains.
            let open = sl.running();
            if !open && asked == done {
                break;
            }
            ledger.tick(0);
            let op = tr.begin(SpanName::AppOp);
            while open && asked - done < PULL_WINDOW {
                asked += 1;
                let s = tr.begin(SpanName::SocketWriteAll);
                let wrote = self.client.write_all(&asked.to_le_bytes());
                tr.end(s);
                sock(wrote, "pull request")?;
            }
            let s = tr.begin(SpanName::SocketReadExact);
            let read = self.client.read_exact(&mut got);
            tr.end(s);
            tr.end(op);
            sock(read, "pull read")?;
            done += 1;
            oracle::check(&got, done, &self.pattern_b)?;
            let now = sl.now_ns();
            sl.record_ops(1, now);
        }
        self.seq = done;
        sock(
            self.client.write_all(&SEQ_END.to_le_bytes()),
            "pull end marker",
        )?;
        Ok(sl.finish())
    }

    /// One more stream on the already-open channel, then dropped.
    fn conn<T: Tracer>(
        &mut self,
        mut sl: Slicer,
        ledger: &Ledger,
        tr: &mut T,
    ) -> Result<PhaseStats, String> {
        self.accept_target.store(u64::MAX, Ordering::SeqCst);
        self.open(Session::Accept, 0)?;
        let mut connects = 0u64;
        while sl.running() {
            ledger.tick(0);
            let t0 = Instant::now();
            let op = tr.begin(SpanName::AppOp);
            let s = tr.begin(SpanName::SocketConnect);
            let stream = self.stack.connect(&self.a, self.server_ip, PORT);
            tr.end(s);
            tr.end(op);
            let lat = t0.elapsed().as_nanos() as u64;
            let stream = sock(stream, "SocketStack::connect")?;
            require_path(stream.qp().path(), self.same_host)?;
            drop(stream);
            connects += 1;
            let now = sl.now_ns();
            sl.record_lat(lat, now);
        }
        // One connect beyond the target wakes the peer's blocked accept.
        self.accept_target.store(connects + 1, Ordering::SeqCst);
        drop(sock(
            self.stack.connect(&self.a, self.server_ip, PORT),
            "closing connect",
        )?);
        Ok(sl.finish())
    }
}

impl World for SocketWorld {
    fn cluster(&self) -> &Arc<FreeFlowCluster> {
        &self.cluster
    }

    fn path(&self) -> FfPath {
        self.client.qp().path()
    }

    fn run_phase<T: Tracer>(
        &mut self,
        phase: Phase,
        round: usize,
        plan: &Plan,
        ledger: &Ledger,
        tr: &mut T,
    ) -> Result<PhaseStats, String> {
        let sl = match phase {
            Phase::Conn => plan.conn_slicer(round, CONN_PER_SECOND),
            timed => plan.slicer(timed, round),
        };
        let stats = match phase {
            Phase::Lat => self.lat(sl, ledger, tr),
            Phase::Rate => self.push(RATE_MSG, sl, ledger, tr),
            Phase::Bulk => self.push(BULK_MSG, sl, ledger, tr),
            Phase::Pull => self.pull(sl, ledger, tr),
            Phase::Conn => self.conn(sl, ledger, tr),
        }?;
        ledger.add_attempted(stats.all_ops);
        Ok(stats)
    }

    fn finish(mut self) -> Result<(), String> {
        self.open(Session::Quit, 0)?;
        let peer = self.peer.take().expect("peer thread joined once");
        let (server, listener) = peer.join().map_err(|_| "peer thread panicked")??;
        let Self {
            client,
            stack,
            a,
            b,
            cluster,
            ..
        } = self;
        drop((client, server, listener));
        drop(stack);
        drop((a, b));
        drop(cluster);
        Ok(())
    }
}
