//! The control-plane update feed, sequenced.
//!
//! The paper's network library "keeps pulling the newest container
//! location information from the network orchestrator"; a push feed is
//! the efficient realization. Subscribers (per-container libraries, agents)
//! receive [`OrchestratorEvent`]s over a bounded [`Queue`] whose every
//! push rings the subscriber's own doorbell, so a pump parked on that bell
//! wakes for a control event instead of polling for one. A subscriber
//! that stops draining is dropped rather than allowed to wedge the
//! control plane.
//!
//! Every published event carries a **monotonic sequence number**, stamped
//! under the feed lock so the numbering is gap-free at the source. A
//! subscriber therefore *knows* when it missed something: a pruned
//! (wedged) subscriber, a control-plane outage, or a per-host partition
//! all surface as [`FeedPoll::Gap`] on the receiving side instead of
//! silence — the trigger for a snapshot resync
//! (`Orchestrator::snapshot_for`).

use crate::registry::ContainerLocation;
use freeflow_types::{ContainerId, Doorbell, HostId, OverlayIp, Queue, QueueSender};
use parking_lot::Mutex;
use std::sync::Arc;

/// What changed in the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrchestratorEvent {
    /// A container joined and got an IP.
    ContainerUp {
        /// The new container.
        id: ContainerId,
        /// Its assigned overlay IP.
        ip: OverlayIp,
        /// Where it runs.
        location: ContainerLocation,
        /// The physical machine that resolves to.
        physical_host: HostId,
    },
    /// A container moved (migration / reschedule). Peers must re-run path
    /// selection: a former shm peer may now need RDMA, and vice versa.
    ContainerMoved {
        /// The container that moved.
        id: ContainerId,
        /// Its (unchanged) overlay IP — the key peers' caches invalidate.
        ip: OverlayIp,
        /// New placement.
        location: ContainerLocation,
        /// New physical machine.
        physical_host: HostId,
        /// Registry placement generation after the move.
        generation: u64,
    },
    /// A container left; its IP returned to the pool.
    ContainerDown {
        /// The departed container.
        id: ContainerId,
        /// The IP it released.
        ip: OverlayIp,
    },
    /// A host's health changed (NIC failure, crash, or recovery).
    /// Libraries must invalidate cached paths through this host and
    /// re-run path selection; with the kernel-bypass NIC down the
    /// orchestrator will now steer traffic onto host TCP.
    HostHealthChanged {
        /// The affected host.
        host: HostId,
        /// Whether its kernel-bypass NIC still works.
        nic_up: bool,
        /// Whether the host is reachable at all.
        alive: bool,
    },
    /// A host's connectivity *improved* (NIC restored, host back up).
    /// Published alongside the corresponding `HostHealthChanged` so that
    /// libraries holding degraded (failed-over) paths through this host
    /// know a planned upgrade is worth attempting. Degradations never
    /// produce this event — downgrades stay reactive (failover on error).
    PathUpdated {
        /// The recovered host.
        host: HostId,
    },
    /// The control plane came back: the orchestrator recovered from an
    /// outage (`scope: None`) or a host's control partition healed
    /// (`scope: Some(host)`). Guarantees that subscribers who were deaf
    /// during the outage promptly observe their sequence gap — even if no
    /// further state change ever happens — and resync.
    ControlRestored {
        /// `None` for a cluster-wide restore, the healed host otherwise.
        scope: Option<HostId>,
    },
}

impl OrchestratorEvent {
    /// Interned event-kind name, used as a telemetry label and in the
    /// flight recorder.
    pub fn kind(&self) -> &'static str {
        match self {
            OrchestratorEvent::ContainerUp { .. } => "container_up",
            OrchestratorEvent::ContainerMoved { .. } => "container_moved",
            OrchestratorEvent::ContainerDown { .. } => "container_down",
            OrchestratorEvent::HostHealthChanged { .. } => "host_health_changed",
            OrchestratorEvent::PathUpdated { .. } => "path_updated",
            OrchestratorEvent::ControlRestored { .. } => "control_restored",
        }
    }

    /// The physical host the event concerns, when it names one.
    pub fn host(&self) -> Option<HostId> {
        match *self {
            OrchestratorEvent::ContainerUp { physical_host, .. }
            | OrchestratorEvent::ContainerMoved { physical_host, .. } => Some(physical_host),
            OrchestratorEvent::HostHealthChanged { host, .. }
            | OrchestratorEvent::PathUpdated { host } => Some(host),
            OrchestratorEvent::ControlRestored { scope } => scope,
            OrchestratorEvent::ContainerDown { .. } => None,
        }
    }
}

/// An event plus the feed sequence number it was published under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencedEvent {
    /// Gap-free publish sequence (0-based).
    pub seq: u64,
    /// The payload.
    pub event: OrchestratorEvent,
}

/// One poll of a [`FeedSubscription`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedPoll {
    /// The next event, in sequence.
    Event(OrchestratorEvent),
    /// The next event arrived, but `missed` events before it were never
    /// delivered (outage, partition, or this subscriber was wedged and
    /// skipped). The receiver should apply the event *and* resync.
    Gap {
        /// How many events were skipped.
        missed: u64,
        /// The event that revealed the gap.
        event: OrchestratorEvent,
    },
    /// Nothing pending right now.
    Empty,
    /// The feed pruned this subscriber (it wedged) or the orchestrator is
    /// gone: resubscribe and resync.
    Disconnected,
}

impl FeedPoll {
    /// The carried event, if any (test/convenience helper).
    pub fn event(self) -> Option<OrchestratorEvent> {
        match self {
            FeedPoll::Event(e) | FeedPoll::Gap { event: e, .. } => Some(e),
            FeedPoll::Empty | FeedPoll::Disconnected => None,
        }
    }
}

/// The receiving end of the feed, with gap detection.
#[derive(Debug)]
pub struct FeedSubscription {
    rx: Queue<SequencedEvent>,
    /// The next sequence number this subscriber expects.
    next: u64,
    /// Host this subscription is read from (partition filtering); `None`
    /// subscribers (tests, dashboards) are never partitioned away.
    host: Option<HostId>,
}

impl FeedSubscription {
    /// The sequence number this subscription expects next.
    pub fn expected_seq(&self) -> u64 {
        self.next
    }

    /// The host tag this subscription was registered under.
    pub fn host(&self) -> Option<HostId> {
        self.host
    }

    /// After a snapshot resync at `seq`, skip everything the snapshot
    /// already covers: events below `seq` still buffered in the channel
    /// are dropped silently on the next poll.
    pub fn advance_to(&mut self, seq: u64) {
        self.next = self.next.max(seq);
    }

    /// Non-blocking poll with gap detection.
    pub fn try_next(&mut self) -> FeedPoll {
        loop {
            match self.rx.try_pop() {
                Ok(Some(se)) if se.seq < self.next => {
                    // Covered by a snapshot we already applied.
                    continue;
                }
                Ok(Some(se)) if se.seq == self.next => {
                    self.next = se.seq + 1;
                    return FeedPoll::Event(se.event);
                }
                Ok(Some(se)) => {
                    let missed = se.seq - self.next;
                    self.next = se.seq + 1;
                    return FeedPoll::Gap {
                        missed,
                        event: se.event,
                    };
                }
                Ok(None) => return FeedPoll::Empty,
                Err(_) => return FeedPoll::Disconnected,
            }
        }
    }
}

const FEED_DEPTH: usize = 1024;

struct Subscriber {
    tx: QueueSender<SequencedEvent>,
    host: Option<HostId>,
}

struct FeedInner {
    subscribers: Vec<Subscriber>,
    /// Sequence the next published event will carry.
    next_seq: u64,
}

/// What one publish did (telemetry input for the orchestrator).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishOutcome {
    /// Subscribers the event was delivered to.
    pub delivered: usize,
    /// Subscribers skipped because the reachability filter said their host
    /// cannot currently be reached (outage / partition) — they will see a
    /// sequence gap later.
    pub unreachable: usize,
    /// Wedged or dropped subscribers pruned by this publish. Each pruned
    /// *live* subscriber has lost events permanently; the sequence gap on
    /// its (drained, then disconnected) receiver is the signal.
    pub pruned: usize,
}

/// Fan-out of [`OrchestratorEvent`]s to any number of subscribers, with
/// source-side sequencing.
pub struct EventFeed {
    inner: Mutex<FeedInner>,
}

impl std::fmt::Debug for EventFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("EventFeed")
            .field("subscribers", &inner.subscribers.len())
            .field("next_seq", &inner.next_seq)
            .finish()
    }
}

impl Default for EventFeed {
    fn default() -> Self {
        Self::new()
    }
}

impl EventFeed {
    /// Empty feed.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(FeedInner {
                subscribers: Vec::new(),
                next_seq: 0,
            }),
        }
    }

    /// Subscribe without a host tag (never partitioned away). Every
    /// delivered event rings `bell`.
    pub fn subscribe(&self, bell: Arc<Doorbell>) -> FeedSubscription {
        self.subscribe_tagged(None, bell)
    }

    /// Subscribe on behalf of a reader on `host`: a control partition of
    /// that host withholds delivery (the subscriber sees a gap on heal).
    /// Every delivered event rings `bell`.
    pub fn subscribe_from(&self, host: HostId, bell: Arc<Doorbell>) -> FeedSubscription {
        self.subscribe_tagged(Some(host), bell)
    }

    fn subscribe_tagged(&self, host: Option<HostId>, bell: Arc<Doorbell>) -> FeedSubscription {
        let (tx, rx) = Queue::bounded(FEED_DEPTH, bell);
        let mut inner = self.inner.lock();
        inner.subscribers.push(Subscriber { tx, host });
        FeedSubscription {
            rx,
            next: inner.next_seq,
            host,
        }
    }

    /// Publish to all subscribers whose host passes `reachable`. The
    /// sequence number advances exactly once regardless of delivery, so
    /// undelivered events surface as gaps, never as silence.
    pub fn publish_filtered(
        &self,
        event: OrchestratorEvent,
        reachable: impl Fn(Option<HostId>) -> bool,
    ) -> PublishOutcome {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let mut outcome = PublishOutcome::default();
        inner.subscribers.retain(|sub| {
            if !reachable(sub.host) {
                outcome.unreachable += 1;
                return true; // kept; it will observe the gap on heal
            }
            let ok = sub
                .tx
                .try_push(SequencedEvent {
                    seq,
                    event: event.clone(),
                })
                .is_ok();
            if ok {
                outcome.delivered += 1;
            } else {
                outcome.pruned += 1;
            }
            ok
        });
        outcome
    }

    /// Publish to every subscriber (no partition filter).
    pub fn publish(&self, event: OrchestratorEvent) -> PublishOutcome {
        self.publish_filtered(event, |_| true)
    }

    /// The sequence number the next published event will carry. A
    /// snapshot taken now covers every event below this.
    pub fn next_seq(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Live subscriber count (wedged ones are pruned on publish).
    pub fn subscriber_count(&self) -> usize {
        self.inner.lock().subscribers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn up(id: u64) -> OrchestratorEvent {
        OrchestratorEvent::ContainerUp {
            id: ContainerId::new(id),
            ip: OverlayIp::from_octets(10, 0, 0, id as u8),
            location: ContainerLocation::BareMetal(HostId::new(0)),
            physical_host: HostId::new(0),
        }
    }

    #[test]
    fn fan_out_to_all_subscribers() {
        let feed = EventFeed::new();
        let mut a = feed.subscribe(Arc::default());
        let mut b = feed.subscribe(Arc::default());
        let outcome = feed.publish(up(1));
        assert_eq!(outcome.delivered, 2);
        assert_eq!(a.try_next(), FeedPoll::Event(up(1)));
        assert_eq!(b.try_next(), FeedPoll::Event(up(1)));
        assert_eq!(a.try_next(), FeedPoll::Empty);
    }

    #[test]
    fn dropped_subscriber_is_pruned_and_counted() {
        let feed = EventFeed::new();
        let mut a = feed.subscribe(Arc::default());
        {
            let _b = feed.subscribe(Arc::default());
        }
        let outcome = feed.publish(up(1));
        assert_eq!(feed.subscriber_count(), 1);
        assert_eq!(outcome.pruned, 1);
        assert!(a.try_next().event().is_some());
    }

    #[test]
    fn wedged_subscriber_is_pruned_not_blocking() {
        let feed = EventFeed::new();
        let _stuck = feed.subscribe(Arc::default()); // never drained
        let mut pruned = 0;
        for i in 0..(FEED_DEPTH + 10) as u64 {
            pruned += feed.publish(up(i)).pruned;
        }
        // Once the buffer filled, the subscriber was dropped — and the
        // drop was surfaced, not silent.
        assert_eq!(feed.subscriber_count(), 0);
        assert_eq!(pruned, 1);
    }

    #[test]
    fn wedged_subscriber_sees_gap_through_disconnect() {
        let feed = EventFeed::new();
        let mut stuck = feed.subscribe(Arc::default());
        for i in 0..(FEED_DEPTH + 5) as u64 {
            feed.publish(up(i));
        }
        // The subscriber drains what fit in its channel...
        let mut got = 0u64;
        loop {
            match stuck.try_next() {
                FeedPoll::Event(_) => got += 1,
                FeedPoll::Disconnected => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(got, FEED_DEPTH as u64);
        // ...then observes the disconnect; its expected_seq tells it how
        // far it got, and a fresh subscription starts past the loss.
        assert_eq!(stuck.expected_seq(), FEED_DEPTH as u64);
        let fresh = feed.subscribe(Arc::default());
        assert!(fresh.expected_seq() > stuck.expected_seq());
    }

    #[test]
    fn sequence_numbers_are_monotonic_and_gap_free() {
        let feed = EventFeed::new();
        let mut sub = feed.subscribe(Arc::default());
        for i in 0..5u64 {
            feed.publish(up(i));
        }
        for _ in 0..5 {
            assert!(matches!(sub.try_next(), FeedPoll::Event(_)));
        }
        assert_eq!(sub.expected_seq(), 5);
        assert_eq!(feed.next_seq(), 5);
    }

    #[test]
    fn unreachable_subscriber_sees_gap_on_heal() {
        let feed = EventFeed::new();
        let mut sub = feed.subscribe_from(HostId::new(3), Arc::default());
        feed.publish(up(0));
        assert_eq!(sub.try_next(), FeedPoll::Event(up(0)));
        // Partition host 3: the publish skips it but seq advances.
        let outcome = feed.publish_filtered(up(1), |h| h != Some(HostId::new(3)));
        assert_eq!(outcome.unreachable, 1);
        assert_eq!(outcome.delivered, 0);
        assert_eq!(sub.try_next(), FeedPoll::Empty);
        // Heal: the next delivered event reveals the gap.
        feed.publish(up(2));
        assert_eq!(
            sub.try_next(),
            FeedPoll::Gap {
                missed: 1,
                event: up(2)
            }
        );
        assert_eq!(sub.expected_seq(), 3);
    }

    #[test]
    fn a_delivered_event_rings_the_subscribers_bell() {
        let feed = EventFeed::new();
        let (bell, deaf) = (Arc::new(Doorbell::new()), Arc::new(Doorbell::new()));
        let mut sub = feed.subscribe(Arc::clone(&bell));
        let _cut_off = feed.subscribe_from(HostId::new(3), Arc::clone(&deaf));
        let outcome = feed.publish_filtered(
            OrchestratorEvent::PathUpdated {
                host: HostId::new(1),
            },
            |h| h != Some(HostId::new(3)),
        );
        assert_eq!((outcome.delivered, outcome.unreachable), (1, 1));
        assert_eq!(bell.current(), 1, "one ring per delivered event");
        assert_eq!(deaf.current(), 0, "an undelivered event rings nobody");
        assert!(matches!(
            sub.try_next(),
            FeedPoll::Event(OrchestratorEvent::PathUpdated { .. })
        ));
    }

    #[test]
    fn advance_to_skips_snapshot_covered_events() {
        let feed = EventFeed::new();
        let mut sub = feed.subscribe(Arc::default());
        feed.publish(up(0));
        feed.publish(up(1));
        feed.publish(up(2));
        // A resync whose snapshot covers seqs 0..2 was applied.
        sub.advance_to(2);
        // Buffered 0 and 1 are dropped; 2 arrives in-sequence, no gap.
        assert_eq!(sub.try_next(), FeedPoll::Event(up(2)));
        assert_eq!(sub.try_next(), FeedPoll::Empty);
    }
}
