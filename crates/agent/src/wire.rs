//! Inter-agent wire links.
//!
//! A [`PeerWire`] is one direction-pair of the "host network" between two
//! agents, tagged with the [`TransportKind`] the orchestrator chose for it
//! (RDMA, DPDK or TCP). Functionally every kind moves the same bytes —
//! the *performance* difference between the kinds is the simulator's
//! domain (`freeflow-netsim`) — but the tag and per-wire counters let
//! experiments assert which plane traffic actually used, and the capacity
//! bound gives inter-host backpressure.
//!
//! Wires are event-driven: each direction is a [`Queue`] whose pushes
//! ring the *receiving* agent's wake doorbell, so a parked agent learns of
//! inbound wire traffic the same way it learns of container traffic, and
//! a sender that finds the wire full parks on the queue's space bell
//! (DESIGN.md §12, "Wake protocol"). A link-state change rings all four
//! bells: both agents re-evaluate, and a parked sender fails over at once.

use bytes::Bytes;
use freeflow_shmem::{Doorbell, Queue, QueueSender};
use freeflow_types::{Error, HostId, Result, TransportKind};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counters and link state shared by both endpoints of a wire.
#[derive(Debug)]
pub struct WireStats {
    /// Messages sent a → b plus b → a.
    pub msgs: AtomicU64,
    /// Payload bytes carried.
    pub bytes: AtomicU64,
    /// Link state — one flag per wire, shared by both ends, because a
    /// physical NIC/link failure takes out both directions at once.
    up: AtomicBool,
}

impl Default for WireStats {
    fn default() -> Self {
        Self {
            msgs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            up: AtomicBool::new(true),
        }
    }
}

/// One agent's endpoint of a peer link. Cloning it yields another handle
/// on the same endpoint, so a sender that must wait for room can take one
/// out from under the agent lock.
#[derive(Clone)]
pub struct PeerWire {
    /// The remote agent's host.
    pub peer_host: HostId,
    /// Data plane this link models.
    pub kind: TransportKind,
    /// Toward the peer; pushes ring the remote agent's wake doorbell.
    tx: QueueSender<Bytes>,
    /// From the peer; its pushes ring this end's own agent's doorbell.
    rx: Arc<Queue<Bytes>>,
    stats: Arc<WireStats>,
}

impl PeerWire {
    /// Create a connected pair with `depth`-message queues per direction.
    /// Each end is `(host, that host's agent's wake doorbell)`: a send
    /// rings the *receiving* agent's bell.
    pub fn pair(
        (a_host, a_bell): (HostId, Arc<Doorbell>),
        (b_host, b_bell): (HostId, Arc<Doorbell>),
        kind: TransportKind,
        depth: usize,
    ) -> (PeerWire, PeerWire) {
        let (a_tx, b_rx) = Queue::bounded(depth, b_bell);
        let (b_tx, a_rx) = Queue::bounded(depth, a_bell);
        let stats = Arc::new(WireStats::default());
        (
            PeerWire {
                peer_host: b_host,
                kind,
                tx: a_tx,
                rx: Arc::new(a_rx),
                stats: Arc::clone(&stats),
            },
            PeerWire {
                peer_host: a_host,
                kind,
                tx: b_tx,
                rx: Arc::new(b_rx),
                stats,
            },
        )
    }

    /// Whether the link is up (both directions share the state).
    pub fn is_up(&self) -> bool {
        self.stats.up.load(Ordering::Acquire)
    }

    /// Bring the link down or back up, for both endpoints at once —
    /// the fault-injection hook that models a NIC or link dying.
    pub fn set_up(&self, up: bool) {
        self.stats.up.store(up, Ordering::Release);
        // A control change: both agents re-evaluate instead of sleeping
        // through it, and a sender parked on either direction's space
        // re-checks the link.
        for bell in [self.rx.bell(), self.tx.bell()] {
            bell.ring();
        }
        self.tx.space().ring();
        self.rx.space().ring();
    }

    fn check_up(&self) -> Result<()> {
        if self.is_up() {
            return Ok(());
        }
        Err(Error::disconnected(format!(
            "{} wire to {} is down",
            self.kind, self.peer_host
        )))
    }

    fn count(&self, len: u64) {
        self.stats.msgs.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(len, Ordering::Relaxed);
    }

    /// Send an encoded message to the peer agent without waiting:
    /// [`Error::Exhausted`] when the wire is full.
    pub fn send(&self, msg: Bytes) -> Result<()> {
        self.check_up()?;
        let len = msg.len() as u64;
        self.tx.try_push(msg)?;
        self.count(len);
        Ok(())
    }

    /// Send, parking on the wire's space bell while it is full until
    /// `deadline` ([`Error::Exhausted`] after it). A link brought down
    /// ends the wait at once with [`Error::Disconnected`].
    pub fn send_until(&self, msg: Bytes, deadline: Instant) -> Result<()> {
        let len = msg.len() as u64;
        self.tx.push_until(msg, deadline, || self.check_up())?;
        self.count(len);
        Ok(())
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<Bytes> {
        self.rx.try_pop()?.ok_or(Error::WouldBlock)
    }

    /// Move every message the peer has queued now into `out` (one lock,
    /// at most one space ring); returns how many.
    pub fn recv_all(&self, out: &mut Vec<Bytes>) -> usize {
        self.rx.drain_into(out)
    }

    /// Shared counters.
    pub fn stats(&self) -> &WireStats {
        &self.stats
    }

    /// Counters of the bell a sender parks on while this end's outbound
    /// direction is full.
    #[cfg(test)]
    pub(crate) fn space_stats(&self) -> freeflow_shmem::DoorbellStats {
        self.tx.space().stats()
    }
}

impl std::fmt::Debug for PeerWire {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerWire")
            .field("peer_host", &self.peer_host)
            .field("kind", &self.kind)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(kind: TransportKind, depth: usize) -> (PeerWire, PeerWire) {
        let end = |host| (HostId::new(host), Arc::new(Doorbell::new()));
        PeerWire::pair(end(0), end(1), kind, depth)
    }

    #[test]
    fn pair_is_cross_connected() {
        let (a, b) = pair(TransportKind::Rdma, 16);
        assert_eq!(a.peer_host, HostId::new(1));
        assert_eq!(b.peer_host, HostId::new(0));
        a.send(Bytes::from_static(b"ping")).unwrap();
        assert_eq!(&b.try_recv().unwrap()[..], b"ping");
        b.send(Bytes::from_static(b"pong")).unwrap();
        assert_eq!(&a.try_recv().unwrap()[..], b"pong");
    }

    #[test]
    fn stats_are_shared() {
        let (a, b) = pair(TransportKind::Dpdk, 16);
        a.send(Bytes::from_static(b"12345")).unwrap();
        b.send(Bytes::from_static(b"123")).unwrap();
        assert_eq!(a.stats().msgs.load(Ordering::Relaxed), 2);
        assert_eq!(b.stats().bytes.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn full_wire_backpressures() {
        let (a, _b) = pair(TransportKind::TcpHost, 1);
        a.send(Bytes::from_static(b"x")).unwrap();
        assert!(matches!(
            a.send(Bytes::from_static(b"y")),
            Err(Error::Exhausted(_))
        ));
    }

    #[test]
    fn downed_wire_rejects_sends_from_both_ends() {
        let (a, b) = pair(TransportKind::Rdma, 4);
        assert!(a.is_up() && b.is_up());
        a.set_up(false);
        assert!(!b.is_up(), "link state is shared");
        assert!(matches!(
            a.send(Bytes::from_static(b"x")),
            Err(Error::Disconnected(_))
        ));
        assert!(matches!(
            b.send(Bytes::from_static(b"x")),
            Err(Error::Disconnected(_))
        ));
        b.set_up(true);
        assert!(a.send(Bytes::from_static(b"x")).is_ok());
    }

    #[test]
    fn sends_and_link_changes_ring_the_receiving_agents_bell() {
        let (bell_a, bell_b) = (Arc::new(Doorbell::new()), Arc::new(Doorbell::new()));
        let (a, b) = PeerWire::pair(
            (HostId::new(0), Arc::clone(&bell_a)),
            (HostId::new(1), Arc::clone(&bell_b)),
            TransportKind::Rdma,
            1,
        );
        a.send(Bytes::from_static(b"x")).unwrap();
        assert_eq!((bell_a.current(), bell_b.current()), (0, 1));
        // A refused send publishes nothing, so it wakes nobody.
        assert!(a.send(Bytes::from_static(b"y")).is_err());
        assert_eq!(bell_b.current(), 1);
        b.send(Bytes::from_static(b"z")).unwrap();
        assert_eq!(bell_a.current(), 1);
        b.set_up(false);
        assert_eq!((bell_a.current(), bell_b.current()), (2, 2));
    }

    #[test]
    fn dropped_peer_is_disconnected() {
        let (a, b) = pair(TransportKind::TcpHost, 4);
        drop(b);
        assert!(matches!(
            a.send(Bytes::from_static(b"x")),
            Err(Error::Disconnected(_))
        ));
    }
}
