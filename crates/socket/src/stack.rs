//! The connection manager: `bind` / `accept` / `connect` — and the
//! channel-reuse handshake.
//!
//! Verbs has no notion of listening; real RDMA socket layers broker the
//! (GID, QPN) exchange over a side channel. [`SocketStack`] is that side
//! channel: a cluster-wide registry mapping bound `ip:port` addresses to
//! listener queues. What travels over it changed with the channel pool:
//! a connect request is now either *"here is my new channel's endpoint"*
//! (first connection between a container pair) or *"put this stream on
//! the channel you know as QPN x"* (every connection after that). The
//! expensive QP handshake happens once per container pair; every further
//! socket is a stream-id allocation — the TSoR fast path.
//!
//! The data path never touches this stack again.

use crate::channel::{Channel, ChannelPool};
use crate::stream::FfStream;
use freeflow::{Container, FfEndpoint};
use freeflow_types::{
    deadline_in, ContainerId, Error, OverlayAddr, OverlayIp, Queue, QueueSender, Result,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const BACKLOG: usize = 64;
const DEFAULT_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// How a connect request wants its stream carried.
enum ReqKind {
    /// First connection between the pair: the client built a fresh
    /// channel; here is its endpoint — connect yours and reply in kind.
    NewChannel { client_ep: FfEndpoint },
    /// The client already has a channel to this container — the one the
    /// acceptor knows by its own QPN `server_qpn` — and allocated
    /// `stream_id` on it.
    Existing { server_qpn: u32 },
}

enum ConnectReply {
    /// New channel accepted; the server's endpoint to connect to.
    NewChannel { server_ep: FfEndpoint },
    /// Stream registered on the existing channel.
    Existing,
    /// The acceptor does not know that channel (died or pruned on its
    /// side); the client should fall back to a fresh one.
    Refused,
}

struct ConnectReq {
    stream_id: u32,
    kind: ReqKind,
    /// Dropped unanswered (an abandoned listener drops its backlog), it
    /// disconnects the waiting client at once.
    reply: QueueSender<ConnectReply>,
}

/// The cluster-wide socket connection manager.
#[derive(Default)]
pub struct SocketStack {
    listeners: Mutex<HashMap<OverlayAddr, QueueSender<ConnectReq>>>,
    /// One channel pool per container that has touched the stack.
    pools: Mutex<HashMap<ContainerId, Arc<ChannelPool>>>,
    /// Milliseconds a connect waits for the listener's reply (0 = default).
    handshake_timeout_ms: AtomicU64,
}

/// A listening socket.
///
/// Holds a cloneable library handle taken at bind time, so accepting
/// needs no further reference to the [`Container`] — listeners move
/// freely into server threads.
pub struct FfListener {
    addr: OverlayAddr,
    stack: Arc<SocketStack>,
    pool: Arc<ChannelPool>,
    incoming: Queue<ConnectReq>,
}

impl SocketStack {
    /// Create an empty connection manager.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Override how long `connect` waits for a listener to accept before
    /// failing with [`Error::Unreachable`] (default 10 s). Tests of the
    /// abandoned-listener path use this to fail fast.
    pub fn set_handshake_timeout(&self, timeout: Duration) {
        self.handshake_timeout_ms
            .store(timeout.as_millis().max(1) as u64, Ordering::Relaxed);
    }

    fn handshake_timeout(&self) -> Duration {
        match self.handshake_timeout_ms.load(Ordering::Relaxed) {
            0 => DEFAULT_HANDSHAKE_TIMEOUT,
            ms => Duration::from_millis(ms),
        }
    }

    fn listener_tx(&self, remote: &OverlayAddr) -> Result<QueueSender<ConnectReq>> {
        self.listeners
            .lock()
            .get(remote)
            .cloned()
            .ok_or_else(|| Error::unreachable(format!("connection refused: {remote}")))
    }

    /// The container's channel pool (created on first use).
    fn pool_for(&self, container: &Container) -> Arc<ChannelPool> {
        let mut pools = self.pools.lock();
        Arc::clone(
            pools
                .entry(container.id())
                .or_insert_with(|| ChannelPool::new(container.handle())),
        )
    }

    /// Reliability-ledger records for every live channel `container`
    /// holds, sorted by QPN.
    ///
    /// This is the socket layer's contribution to a
    /// [`freeflow::migrate::MigrationCheckpoint`]: feed it to
    /// [`freeflow::migrate::MigrationCheckpoint::with_ledgers`] before a
    /// move and re-export afterwards to prove the sequence spaces
    /// survived the migration unchanged.
    pub fn export_ledgers(&self, container: &Container) -> Vec<freeflow::migrate::LedgerRecord> {
        self.pools
            .lock()
            .get(&container.id())
            .map(|p| p.export_ledgers())
            .unwrap_or_default()
    }

    /// Live shared channels `container` currently holds (diagnostics:
    /// the examples assert this stays ≪ the stream count).
    pub fn channel_count(&self, container: &Container) -> usize {
        self.pools
            .lock()
            .get(&container.id())
            .map(|p| p.live_channels())
            .unwrap_or(0)
    }

    /// Bind `container` to `port`, returning a listener.
    ///
    /// Unlike host-mode networking, the bind key includes the container's
    /// own overlay IP — two containers can both own port 80 (the
    /// portability property host mode loses).
    pub fn bind(self: &Arc<Self>, container: &Container, port: u16) -> Result<FfListener> {
        let addr = OverlayAddr::new(container.ip(), port);
        let pool = self.pool_for(container);
        let mut listeners = self.listeners.lock();
        if listeners.contains_key(&addr) {
            return Err(Error::already_exists(format!("socket {addr}")));
        }
        let (tx, rx) = Queue::bounded(BACKLOG, Arc::default());
        listeners.insert(addr, tx);
        Ok(FfListener {
            addr,
            stack: Arc::clone(self),
            pool,
            incoming: rx,
        })
    }

    /// Connect from `container` to `remote`. Blocks for the handshake.
    ///
    /// Reuses an established channel to the peer when one exists (no new
    /// QP — the stream is an id allocation plus one side-channel round
    /// trip); otherwise builds one. Fails with [`Error::Unreachable`] if
    /// nothing listens on `remote`, or if a listener exists but nobody
    /// accepts within the handshake timeout (e.g. the listener was bound
    /// and then abandoned).
    pub fn connect(
        self: &Arc<Self>,
        container: &Container,
        remote_ip: OverlayIp,
        remote_port: u16,
    ) -> Result<FfStream> {
        let remote = OverlayAddr::new(remote_ip, remote_port);
        self.listener_tx(&remote)?; // fail fast when nothing listens
        let pool = self.pool_for(container);
        let timeout = self.handshake_timeout();

        // Fast path: a live channel to this peer already exists.
        if let Some(ch) = pool.reusable(remote_ip) {
            let stream_id = ch.open_local_stream()?;
            let (reply_tx, reply_rx) = Queue::bounded(1, Arc::default());
            let req = ConnectReq {
                stream_id,
                kind: ReqKind::Existing {
                    server_qpn: ch.peer_qpn(),
                },
                reply: reply_tx,
            };
            // The sender clone must not outlive the send: a dropped
            // listener frees the queued request (and with it our reply
            // sender) only once no handle pins the channel — that is
            // what lets the wait below fail promptly instead of
            // sleeping out the full timeout.
            match self
                .listener_tx(&remote)
                .and_then(|tx| send_req(&tx, req, &remote))
            {
                Ok(()) => {}
                Err(e) => {
                    ch.abort_stream(stream_id);
                    return Err(e);
                }
            }
            match reply_rx.pop_until(deadline_in(timeout)) {
                Ok(Some(ConnectReply::Existing)) => {
                    pool.note_reuse();
                    return Ok(FfStream::new(ch, stream_id));
                }
                Ok(Some(ConnectReply::Refused)) => {
                    // The acceptor no longer knows the channel; fall
                    // through and build a fresh one.
                    ch.abort_stream(stream_id);
                }
                Ok(Some(ConnectReply::NewChannel { .. })) => {
                    ch.abort_stream(stream_id);
                    return Err(Error::invalid_state("mismatched handshake reply"));
                }
                Ok(None) | Err(_) => {
                    ch.abort_stream(stream_id);
                    return Err(Error::unreachable(format!("accept timed out at {remote}")));
                }
            }
        }

        // Slow path: build a channel, offer our endpoint, connect to the
        // acceptor's.
        let ch = Channel::new(pool.handle(), true, pool.metrics().clone())?;
        let stream_id = ch.open_local_stream()?;
        let (reply_tx, reply_rx) = Queue::bounded(1, Arc::default());
        let req = ConnectReq {
            stream_id,
            kind: ReqKind::NewChannel {
                client_ep: ch.endpoint(),
            },
            reply: reply_tx,
        };
        self.listener_tx(&remote)
            .and_then(|tx| send_req(&tx, req, &remote))?;
        match reply_rx.pop_until(deadline_in(timeout)) {
            Ok(Some(ConnectReply::NewChannel { server_ep })) => {
                ch.establish(pool.handle(), server_ep)?;
                pool.insert(remote_ip, Arc::clone(&ch));
                Ok(FfStream::new(ch, stream_id))
            }
            Ok(Some(_)) => Err(Error::invalid_state("mismatched handshake reply")),
            Ok(None) | Err(_) => Err(Error::unreachable(format!("accept timed out at {remote}"))),
        }
    }
}

fn send_req(tx: &QueueSender<ConnectReq>, req: ConnectReq, remote: &OverlayAddr) -> Result<()> {
    tx.try_push(req).map_err(|e| match e {
        Error::Exhausted(_) => Error::exhausted(format!("backlog full at {remote}")),
        // The listener was dropped between lookup and send.
        _ => Error::unreachable(format!("connection refused: {remote}")),
    })
}

impl FfListener {
    /// The bound address.
    pub fn addr(&self) -> OverlayAddr {
        self.addr
    }

    /// Accept one connection, blocking up to `timeout` (a timeout too
    /// long to be an instant has no deadline).
    ///
    /// The accept-side networking objects come from the library handle
    /// captured at bind time — no container reference needed here.
    pub fn accept(&self, timeout: Duration) -> Result<FfStream> {
        let deadline = deadline_in(timeout);
        loop {
            // The stack holds a sender while the listener lives: only a
            // timeout ends this wait empty-handed.
            let Ok(Some(req)) = self.incoming.pop_until(deadline) else {
                return Err(Error::WouldBlock);
            };
            match req.kind {
                ReqKind::Existing { server_qpn } => {
                    let Some(ch) = self.pool.lookup_qpn(server_qpn) else {
                        // Unknown (or dead) channel: tell the client to
                        // fall back to a fresh one; keep accepting.
                        let _ = req.reply.try_push(ConnectReply::Refused);
                        continue;
                    };
                    if ch.open_remote_stream(req.stream_id).is_err() {
                        let _ = req.reply.try_push(ConnectReply::Refused);
                        continue;
                    }
                    if req.reply.try_push(ConnectReply::Existing).is_err() {
                        // Client gave up while we registered; roll back
                        // and keep accepting.
                        ch.abort_stream(req.stream_id);
                        continue;
                    }
                    self.pool.note_reuse();
                    return Ok(FfStream::new(ch, req.stream_id));
                }
                ReqKind::NewChannel { client_ep } => {
                    let ch = Channel::new(self.pool.handle(), false, self.pool.metrics().clone())?;
                    ch.open_remote_stream(req.stream_id)?;
                    // Connect + pre-post receives *before* replying, so
                    // nothing the client sends can beat our RQ.
                    ch.establish(self.pool.handle(), client_ep)?;
                    if req
                        .reply
                        .try_push(ConnectReply::NewChannel {
                            server_ep: ch.endpoint(),
                        })
                        .is_err()
                    {
                        // Stale request from a client that timed out;
                        // the channel never carried data — drop it.
                        continue;
                    }
                    self.pool.insert(client_ep.ip, Arc::clone(&ch));
                    return Ok(FfStream::new(ch, req.stream_id));
                }
            }
        }
    }
}

impl Drop for FfListener {
    fn drop(&mut self) {
        self.stack.listeners.lock().remove(&self.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeflow::FreeFlowCluster;
    use freeflow_types::{HostCaps, TenantId};
    use std::time::Instant;

    fn two_containers(same_host: bool) -> (Arc<FreeFlowCluster>, Container, Container) {
        let cluster = FreeFlowCluster::with_defaults();
        let h0 = cluster.add_host(HostCaps::paper_testbed());
        let h1 = if same_host {
            h0
        } else {
            cluster.add_host(HostCaps::paper_testbed())
        };
        let a = cluster.launch(TenantId::new(1), h0).unwrap();
        let b = cluster.launch(TenantId::new(1), h1).unwrap();
        (cluster, a, b)
    }

    fn echo_roundtrip(same_host: bool) {
        let (_cluster, a, b) = two_containers(same_host);
        let stack = SocketStack::new();
        let listener = stack.bind(&b, 80).unwrap();
        let server_ip = b.ip();

        let server = std::thread::spawn(move || {
            let mut stream = listener.accept(Duration::from_secs(10)).unwrap();
            let mut buf = [0u8; 4096];
            loop {
                let n = stream.read(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                stream.write_all(&buf[..n]).unwrap();
            }
            b // keep the container alive until done
        });

        let mut client = stack.connect(&a, server_ip, 80).unwrap();
        for i in 0..50u32 {
            let msg = format!("echo message {i}");
            client.write_all(msg.as_bytes()).unwrap();
            let mut out = vec![0u8; msg.len()];
            client.read_exact(&mut out).unwrap();
            assert_eq!(out, msg.as_bytes());
        }
        client.shutdown().unwrap();
        let _b = server.join().unwrap();
    }

    #[test]
    fn echo_intra_host_rides_shared_memory() {
        echo_roundtrip(true);
    }

    #[test]
    fn echo_inter_host_rides_the_wire() {
        echo_roundtrip(false);
    }

    #[test]
    fn stream_transport_matches_placement() {
        let (_cluster, a, b) = two_containers(true);
        let stack = SocketStack::new();
        let listener = stack.bind(&b, 9000).unwrap();
        let server_ip = b.ip();
        let t = std::thread::spawn(move || {
            let s = listener.accept(Duration::from_secs(10)).unwrap();
            (s, b)
        });
        let client = stack.connect(&a, server_ip, 9000).unwrap();
        assert!(matches!(
            client.qp().path(),
            freeflow::qp::FfPath::Local { .. }
        ));
        let (_s, _b) = t.join().unwrap();
    }

    #[test]
    fn large_transfer_integrity_inter_host() {
        let (_cluster, a, b) = two_containers(false);
        let stack = SocketStack::new();
        let listener = stack.bind(&b, 80).unwrap();
        let server_ip = b.ip();
        const LEN: usize = 1 << 20; // 1 MiB
        let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
        let expect = data.clone();

        let server = std::thread::spawn(move || {
            let mut stream = listener.accept(Duration::from_secs(10)).unwrap();
            let mut got = vec![0u8; LEN];
            stream.read_exact(&mut got).unwrap();
            (got, b)
        });
        let mut client = stack.connect(&a, server_ip, 80).unwrap();
        client.write_all(&data).unwrap();
        client.shutdown().unwrap();
        let (got, _b) = server.join().unwrap();
        assert_eq!(got, expect, "1 MiB survives segmentation + credits");
    }

    #[test]
    fn two_containers_can_both_bind_port_80() {
        // The portability win over host mode, at the socket layer.
        let (_cluster, a, b) = two_containers(true);
        let stack = SocketStack::new();
        let _l1 = stack.bind(&a, 80).unwrap();
        let _l2 = stack.bind(&b, 80).unwrap();
    }

    #[test]
    fn double_bind_same_container_rejected() {
        let (_cluster, a, _b) = two_containers(true);
        let stack = SocketStack::new();
        let _l = stack.bind(&a, 80).unwrap();
        assert!(matches!(stack.bind(&a, 80), Err(Error::AlreadyExists(_))));
    }

    #[test]
    fn connect_to_unbound_port_refused() {
        let (_cluster, a, b) = two_containers(true);
        let stack = SocketStack::new();
        assert!(matches!(
            stack.connect(&a, b.ip(), 81),
            Err(Error::Unreachable(_))
        ));
    }

    #[test]
    fn listener_drop_unbinds() {
        let (_cluster, a, b) = two_containers(true);
        let stack = SocketStack::new();
        {
            let _l = stack.bind(&b, 8080).unwrap();
        }
        assert!(stack.connect(&a, b.ip(), 8080).is_err());
        let _l2 = stack.bind(&b, 8080).unwrap();
    }

    #[test]
    fn accept_given_duration_max_waits_without_a_deadline() {
        let (_cluster, a, b) = two_containers(true);
        let stack = SocketStack::new();
        let listener = stack.bind(&b, 8081).unwrap();
        let server_ip = b.ip();
        let client = {
            let stack = Arc::clone(&stack);
            std::thread::spawn(move || (stack.connect(&a, server_ip, 8081).map(drop), a))
        };
        let stream = listener.accept(Duration::MAX).unwrap();
        assert!(client.join().unwrap().0.is_ok());
        drop((stream, b));
    }

    #[test]
    fn abandoned_listener_times_out_with_unreachable() {
        // A listener that exists but never accepts must not hang connect
        // forever: the handshake times out with Unreachable.
        let (_cluster, a, b) = two_containers(true);
        let stack = SocketStack::new();
        stack.set_handshake_timeout(Duration::from_millis(100));
        let _l = stack.bind(&b, 7000).unwrap();
        let t0 = Instant::now();
        assert!(matches!(
            stack.connect(&a, b.ip(), 7000),
            Err(Error::Unreachable(_))
        ));
        assert!(t0.elapsed() < Duration::from_secs(5), "must not hang");
    }

    #[test]
    fn listener_dropped_after_enqueue_fails_promptly() {
        // Connect's request is already queued when the listener goes
        // away: the reply channel disconnects and connect errors out
        // without waiting for the full timeout.
        let (_cluster, a, b) = two_containers(true);
        let stack = SocketStack::new();
        stack.set_handshake_timeout(Duration::from_secs(30));
        let listener = stack.bind(&b, 7001).unwrap();
        let stack2 = Arc::clone(&stack);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            drop(listener);
        });
        let t0 = Instant::now();
        assert!(stack2.connect(&a, b.ip(), 7001).is_err());
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "disconnect must beat the timeout"
        );
        t.join().unwrap();
    }

    #[test]
    fn eof_after_shutdown() {
        let (_cluster, a, b) = two_containers(true);
        let stack = SocketStack::new();
        let listener = stack.bind(&b, 80).unwrap();
        let server_ip = b.ip();
        let server = std::thread::spawn(move || {
            let mut stream = listener.accept(Duration::from_secs(10)).unwrap();
            let mut buf = [0u8; 16];
            let n = stream.read(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"bye");
            assert_eq!(stream.read(&mut buf).unwrap(), 0, "EOF after FIN");
            b
        });
        let mut client = stack.connect(&a, server_ip, 80).unwrap();
        client.write_all(b"bye").unwrap();
        client.shutdown().unwrap();
        let _b = server.join().unwrap();
    }

    #[test]
    fn backpressure_slow_reader_does_not_lose_bytes() {
        let (_cluster, a, b) = two_containers(false);
        let stack = SocketStack::new();
        let listener = stack.bind(&b, 80).unwrap();
        let server_ip = b.ip();
        const LEN: usize = 600 * 1024; // ≫ window (16 × 16 KiB)
        let server = std::thread::spawn(move || {
            let mut stream = listener.accept(Duration::from_secs(10)).unwrap();
            let mut got = Vec::new();
            let mut buf = [0u8; 1000]; // tiny reads → slow drain
            loop {
                let n = stream.read(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            (got, b)
        });
        let data: Vec<u8> = (0..LEN).map(|i| (i % 241) as u8).collect();
        let mut client = stack.connect(&a, server_ip, 80).unwrap();
        client.write_all(&data).unwrap();
        client.shutdown().unwrap();
        let (got, _b) = server.join().unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn many_streams_share_one_channel() {
        // The tentpole property at the unit level: N sockets between one
        // container pair ride one QP, counted by the reuse metric.
        let (_cluster, a, b) = two_containers(true);
        let stack = SocketStack::new();
        let listener = stack.bind(&b, 80).unwrap();
        let server_ip = b.ip();
        const N: usize = 32;

        let server = std::thread::spawn(move || {
            let mut streams = Vec::new();
            for _ in 0..N {
                streams.push(listener.accept(Duration::from_secs(10)).unwrap());
            }
            for (i, s) in streams.iter_mut().enumerate() {
                let mut buf = [0u8; 16];
                let n = s.read(&mut buf).unwrap();
                assert_eq!(&buf[..n], format!("hello {i}").as_bytes());
                s.write_all(&buf[..n]).unwrap();
            }
            (streams, b)
        });

        let mut clients = Vec::new();
        for _ in 0..N {
            clients.push(stack.connect(&a, server_ip, 80).unwrap());
        }
        assert_eq!(
            stack.channel_count(&a),
            1,
            "one shared channel for {N} streams"
        );
        let qpn = clients[0].qp().qp_num();
        for c in &clients {
            assert_eq!(c.qp().qp_num(), qpn, "all streams on the same QP");
        }
        for (i, c) in clients.iter_mut().enumerate() {
            c.write_all(format!("hello {i}").as_bytes()).unwrap();
        }
        for (i, c) in clients.iter_mut().enumerate() {
            let msg = format!("hello {i}");
            let mut out = vec![0u8; msg.len()];
            c.read_exact(&mut out).unwrap();
            assert_eq!(out, msg.as_bytes());
        }
        let (_streams, _b) = server.join().unwrap();
    }

    #[test]
    fn interleaved_streams_stay_isolated() {
        // Two streams alternating writes on one channel: bytes never
        // bleed across stream ids.
        let (_cluster, a, b) = two_containers(false);
        let stack = SocketStack::new();
        let listener = stack.bind(&b, 80).unwrap();
        let server_ip = b.ip();

        let server = std::thread::spawn(move || {
            let mut s1 = listener.accept(Duration::from_secs(10)).unwrap();
            let mut s2 = listener.accept(Duration::from_secs(10)).unwrap();
            let mut got1 = Vec::new();
            let mut got2 = Vec::new();
            let mut buf = [0u8; 512];
            loop {
                let mut progress = false;
                match s1.try_read(&mut buf) {
                    Ok(0) => {}
                    Ok(n) => {
                        got1.extend_from_slice(&buf[..n]);
                        progress = true;
                    }
                    Err(Error::WouldBlock) => {}
                    Err(e) => panic!("{e}"),
                }
                match s2.try_read(&mut buf) {
                    Ok(0) => {}
                    Ok(n) => {
                        got2.extend_from_slice(&buf[..n]);
                        progress = true;
                    }
                    Err(Error::WouldBlock) => {}
                    Err(e) => panic!("{e}"),
                }
                if got1.len() >= 40_000 && got2.len() >= 40_000 {
                    break;
                }
                if !progress {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            (got1, got2, b)
        });

        let mut c1 = stack.connect(&a, server_ip, 80).unwrap();
        let mut c2 = stack.connect(&a, server_ip, 80).unwrap();
        let d1: Vec<u8> = (0..40_000).map(|i| (i % 7) as u8).collect();
        let d2: Vec<u8> = (0..40_000).map(|i| (i % 11) as u8).collect();
        for (x, y) in d1.chunks(1000).zip(d2.chunks(1000)) {
            c1.write_all(x).unwrap();
            c2.write_all(y).unwrap();
        }
        let (got1, got2, _b) = server.join().unwrap();
        assert_eq!(got1, d1);
        assert_eq!(got2, d2);
    }

    /// A connected client/server stream pair between `a` and `b`.
    fn stream_pair(stack: &Arc<SocketStack>, a: &Container, b: &Container) -> (FfStream, FfStream) {
        let listener = stack.bind(b, 80).unwrap();
        let accept = std::thread::spawn(move || listener.accept(Duration::from_secs(10)).unwrap());
        let client = stack.connect(a, b.ip(), 80).unwrap();
        (client, accept.join().unwrap())
    }

    /// Yield until `cond` holds; panics after `timeout`.
    fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + timeout;
        while !cond() {
            assert!(Instant::now() < deadline, "timed out: {what}");
            std::thread::yield_now();
        }
    }

    /// Fresh streams each write their whole credit window at once, more
    /// frames than the channel has send slots, and nothing is read until
    /// every write has returned. No credit comes back meanwhile, so a
    /// writer out of slots hears only the send completions that free them:
    /// it must have armed their ring, or it sleeps forever.
    fn writers_out_of_send_slots_hear_the_sends_that_free_them(same_host: bool) {
        use crate::mux::{MAX_PAYLOAD, SEND_SLOTS, STREAM_WINDOW};
        let n = SEND_SLOTS / STREAM_WINDOW + 2;
        let (_cluster, a, b) = two_containers(same_host);
        let stack = SocketStack::new();
        let listener = Arc::new(stack.bind(&b, 80).unwrap());
        let window = vec![7u8; STREAM_WINDOW * MAX_PAYLOAD];
        for round in 0..10 {
            let accept = {
                let listener = Arc::clone(&listener);
                std::thread::spawn(move || {
                    let accepted = (0..n).map(|_| listener.accept(Duration::from_secs(10)));
                    accepted.map(Result::unwrap).collect::<Vec<_>>()
                })
            };
            let mut clients: Vec<_> = (0..n)
                .map(|_| stack.connect(&a, b.ip(), 80).unwrap())
                .collect();
            let mut servers = accept.join().unwrap();
            let (done, finished) = std::sync::mpsc::channel();
            let in_time = std::thread::scope(|sc| {
                for c in &mut clients {
                    let (done, window) = (done.clone(), &window);
                    sc.spawn(move || {
                        c.write_all(window).unwrap();
                        done.send(()).unwrap();
                    });
                }
                let deadline = Instant::now() + Duration::from_secs(10);
                let in_time = (0..n).all(|_| {
                    let left = deadline.saturating_duration_since(Instant::now());
                    finished.recv_timeout(left).is_ok()
                });
                // Reading returns credits, whose frames wake a writer that
                // slept through its completions, so a failure ends here.
                let mut got = vec![0u8; window.len()];
                for s in &mut servers {
                    s.read_exact(&mut got).unwrap();
                }
                in_time
            });
            assert!(in_time, "round {round}: a writer out of slots slept on");
        }
    }

    #[test]
    fn writers_out_of_send_slots_on_shared_memory_lose_no_wakeup() {
        writers_out_of_send_slots_hear_the_sends_that_free_them(true);
    }

    #[test]
    fn writers_out_of_send_slots_on_the_wire_lose_no_wakeup() {
        writers_out_of_send_slots_hear_the_sends_that_free_them(false);
    }

    /// The server reads one frame, then drops its stream and makes no
    /// further call, while the client writes four credit windows. Only the
    /// library pump can return the discarded frames' credits and send FIN.
    fn a_dropped_stream_drains_its_writer(same_host: bool) {
        use crate::mux::{MAX_PAYLOAD, STREAM_WINDOW};
        let (_cluster, a, b) = two_containers(same_host);
        let stack = SocketStack::new();
        let (mut client, mut server) = stream_pair(&stack, &a, &b);
        let data = vec![5u8; 4 * STREAM_WINDOW * MAX_PAYLOAD];
        let (done, finished) = std::sync::mpsc::channel();
        let writer = std::thread::spawn(move || {
            client.write_all(&data).unwrap();
            let mut buf = [0u8; 1];
            let eof = client.read(&mut buf).unwrap();
            done.send(()).unwrap();
            (eof, b)
        });
        let mut first = vec![0u8; MAX_PAYLOAD];
        server.read_exact(&mut first).unwrap();
        drop(server);
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("the writer stalled on its window");
        assert_eq!(writer.join().unwrap().0, 0, "the client reads EOF");
    }

    #[test]
    fn a_dropped_stream_drains_its_writer_on_shared_memory() {
        a_dropped_stream_drains_its_writer(true);
    }

    #[test]
    fn a_dropped_stream_drains_its_writer_on_the_wire() {
        a_dropped_stream_drains_its_writer(false);
    }

    /// 256 streams on one relay channel each hold an unread frame, and the
    /// client drops them all at once: a credit and a FIN each, more
    /// control frames than the send queue's headroom. The ones that meet a
    /// full queue are held and go out as completions free it.
    #[test]
    fn a_burst_of_detaches_past_the_send_queue_gets_every_fin_out() {
        const STREAMS: usize = 256;
        let (_cluster, a, b) = two_containers(false);
        let stack = SocketStack::new();
        let listener = stack.bind(&b, 80).unwrap();
        let accept = std::thread::spawn(move || {
            let accepted = (0..STREAMS).map(|_| listener.accept(Duration::from_secs(10)));
            accepted.map(Result::unwrap).collect::<Vec<_>>()
        });
        let clients: Vec<_> = (0..STREAMS)
            .map(|_| stack.connect(&a, b.ip(), 80).unwrap())
            .collect();
        let mut servers = accept.join().unwrap();
        for s in &mut servers {
            s.write_all(b"x").unwrap();
        }
        wait_until("every frame buffered", Duration::from_secs(5), || {
            clients.iter().all(|c| c.readable())
        });
        let t0 = Instant::now();
        drop(clients);
        let mut buf = [0u8; 1];
        for s in &mut servers {
            assert_eq!(s.read(&mut buf).unwrap(), 0, "FIN arrives");
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "FINs took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn idle_settled_channel_pump_stays_parked() {
        let (_cluster, a, b) = two_containers(false);
        let stack = SocketStack::new();
        let (mut client, mut server) = stream_pair(&stack, &a, &b);
        client.write_all(b"ping").unwrap();
        let mut got = [0u8; 4];
        server.read_exact(&mut got).unwrap();
        wait_until("every send reaped", Duration::from_secs(5), || {
            [&a, &b]
                .iter()
                .all(|c| stack.export_ledgers(c).iter().all(|r| r.tx_in_flight == 0))
        });
        // The recv CQ's bell and the library pump's, which the bell's idle
        // bell (the adopted step's) rings.
        let bells = [client.qp(), server.qp()].map(|qp| Arc::clone(qp.recv_cq().doorbell()));
        let bells: Vec<_> = (bells.iter())
            .flat_map(|bell| {
                let lib = bell.idle_bell().unwrap().idle_bell().unwrap();
                [Arc::clone(bell), Arc::clone(lib)]
            })
            .collect();
        let before: Vec<_> = bells.iter().map(|bell| bell.stats().waits).collect();
        // The idle stretch under measurement (not a wait for progress).
        std::thread::sleep(Duration::from_millis(100));
        for (bell, before) in bells.iter().zip(before) {
            let parks = bell.stats().waits - before;
            assert!(parks <= 2, "{parks} parks in 100 ms: the idle pump ticks");
        }
    }

    /// One write across a NIC failure, then neither application touches
    /// its socket until the library pump alone has resynced and retransmitted.
    /// Routes converge onto the surviving TCP wires either the moment the
    /// client's QP flushes (the resync rides the settle ring) or only once
    /// the failover is observed (the first resync is lost to the stale
    /// route, which must not count as a second failure, and is re-asked at
    /// `RESYNC_RETRY`).
    fn failover_recovers_with_no_socket_calls(converge_at_flush: bool) {
        let (cluster, a, b) = two_containers(false);
        let stack = SocketStack::new();
        let (mut client, mut server) = stream_pair(&stack, &a, &b);
        // One round trip first, until both sides reaped their sends: the
        // fault below then catches the one write alone, not the connect
        // side's READY still in flight.
        let mut two = [0u8; 2];
        client.write_all(b"hi").unwrap();
        server.read_exact(&mut two).unwrap();
        server.write_all(b"ok").unwrap();
        client.read_exact(&mut two).unwrap();
        wait_until("round trip reaped", Duration::from_secs(5), || {
            [&a, &b]
                .iter()
                .all(|c| stack.export_ledgers(c)[0].tx_in_flight == 0)
        });
        if converge_at_flush {
            let weak = Arc::downgrade(&cluster);
            client.qp().send_cq().observe_pushes(move |wc| {
                if let (false, Some(cluster)) = (wc.status.is_ok(), weak.upgrade()) {
                    cluster.refresh_routes();
                }
            });
        }
        cluster.fail_nic(a.host()).unwrap();
        let msg = b"across the failover";
        let t0 = Instant::now();
        client.write_all(msg).unwrap();
        wait_until("reactive failover", Duration::from_secs(5), || {
            client.qp().failover_count() == 1
        });
        if !converge_at_flush {
            // The data frame's nack, then the first resync's.
            let agent = cluster.agent_of(a.host()).unwrap();
            wait_until(
                "resync lost to the stale route",
                Duration::from_secs(5),
                || agent.stats().nacked.load(Ordering::Relaxed) >= 2,
            );
        }
        cluster.refresh_routes();
        wait_until("resync and retransmit", Duration::from_secs(5), || {
            stack.export_ledgers(&a)[0].tx_in_flight == 0
                && stack.export_ledgers(&b)[0].rx_received == 2
        });
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "recovery sat out a 1 s park"
        );
        assert_eq!(client.qp().failover_count(), 1, "one failure, one failover");
        assert_eq!(client.retransmit_count(), 1, "the flushed frame went again");
        let mut got = vec![0u8; msg.len()];
        server.read_exact(&mut got).unwrap();
        assert_eq!(got, msg);
        server.write_all(b"back").unwrap();
        let mut back = [0u8; 4];
        client.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"back");
    }

    #[test]
    fn nic_failover_recovers_with_no_socket_calls_during_recovery() {
        failover_recovers_with_no_socket_calls(true);
    }

    #[test]
    fn failover_survives_routes_converging_after_it() {
        failover_recovers_with_no_socket_calls(false);
    }
}
