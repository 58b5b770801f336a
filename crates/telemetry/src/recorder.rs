//! The flight recorder: a bounded, lock-free, overwriting ring of
//! timestamped structured events.
//!
//! The recorder answers "what did the system *do*, in what order?" after a
//! chaos run. Writers grab a ticket with one `fetch_add` and publish into
//! `slot = ticket mod capacity` under a per-slot seqlock; when the ring is
//! full, new events overwrite the oldest — a flight recorder keeps the
//! most recent history, not the first. Draining is non-destructive and
//! returns events in ticket (i.e. global write) order, skipping any slot
//! that is mid-overwrite at read time.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::Instant;

/// The kind of a QP path transition, mirroring the `PathBinding` machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionKind {
    /// First bind: `Unbound → Bound` (epoch 1).
    Bound,
    /// `Bound → Draining` (a rebind was planned or forced).
    DrainStarted,
    /// `Draining → Rebinding` (drain settled, new path being resolved).
    RebindStarted,
    /// `Rebinding → Bound` on the new path (epoch advanced).
    Rebound,
    /// `Rebinding → Bound` back on the old path (rebind abandoned).
    Aborted,
    /// Any state `→ Error` (terminal).
    Failed,
}

impl TransitionKind {
    /// Interned name, also used as a label value.
    pub fn name(self) -> &'static str {
        match self {
            TransitionKind::Bound => "bound",
            TransitionKind::DrainStarted => "drain_started",
            TransitionKind::RebindStarted => "rebind_started",
            TransitionKind::Rebound => "rebound",
            TransitionKind::Aborted => "aborted",
            TransitionKind::Failed => "failed",
        }
    }
}

/// One structured event. Every variant is `Copy` and allocation-free so
/// recording never touches the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// An `FfQp`'s `PathBinding` changed state.
    PathTransition {
        /// Container owning the QP. QPNs are only unique per device, so
        /// timelines key on `(container, qpn)`.
        container: u64,
        /// Queue pair number.
        qpn: u32,
        /// Which transition fired.
        kind: TransitionKind,
        /// Why a drain/rebind was planned (`failover` / `upgrade` /
        /// `collapse`), when the transition has a reason.
        reason: Option<&'static str>,
        /// The binding epoch *after* the transition.
        epoch: u64,
        /// Transport before the transition (interned; `"none"` if unbound).
        from: &'static str,
        /// Transport after the transition (interned; `"none"` if unbound).
        to: &'static str,
        /// Whether this transition bumped the binding's upgrade counter.
        upgrade: bool,
    },
    /// An agent wire send needed retries (or exhausted its budget).
    RelayRetry {
        /// The agent's host.
        host: u64,
        /// Attempts consumed (including the final one).
        attempts: u32,
        /// True if the retry budget ran out and the message was Nacked.
        exhausted: bool,
    },
    /// An agent sent a Nack back to a local library.
    RelayNack {
        /// The agent's host.
        host: u64,
        /// Wire status code carried in the Nack.
        status: u8,
    },
    /// Remote operations outlived their QP's op deadline with no reply:
    /// the QP declares the transport dead and fails over.
    RelayExpired {
        /// The host of the library that posted them.
        host: u64,
        /// How many of the QP's operations were overdue together.
        entries: u32,
    },
    /// A socket stream re-posted an unacked frame.
    StreamRetransmit {
        /// Queue pair number carrying the stream.
        qpn: u32,
        /// Work request id of the retransmitted frame.
        wr_id: u64,
    },
    /// A socket stream parked an out-of-order frame for reassembly.
    StreamReorder {
        /// Queue pair number carrying the stream.
        qpn: u32,
        /// Sequence number of the early frame.
        seq: u64,
    },
    /// The orchestrator published a control-plane event.
    Orchestrator {
        /// Interned event kind (`container_up`, `host_health`, ...).
        kind: &'static str,
        /// Host the event concerns.
        host: u64,
    },
    /// A control-plane availability transition or degraded-mode decision:
    /// outage begin/end, per-host partition/heal, a stale cache entry
    /// served while the orchestrator was unreachable, a path decision that
    /// fell back to the universal TCP path, a feed gap detected by a
    /// subscriber, or a snapshot resync.
    ControlPlane {
        /// Interned kind (`outage`, `restore`, `partition`, `heal`,
        /// `stale_serve`, `degraded_decision`, `gap`, `resync`).
        kind: &'static str,
        /// Host the record concerns (`u64::MAX` for cluster-wide).
        host: u64,
        /// Kind-specific detail: gap size for `gap`, feed sequence for
        /// `resync`/`restore`, zero otherwise.
        detail: u64,
    },
    /// A live-migration protocol milestone: the 2PC coordinator began,
    /// committed or aborted a cross-host container move. `begin` brackets
    /// the freeze; `commit`/`abort` carry the measured blackout, so the
    /// flight recorder alone reconstructs every migration's timeline and
    /// outcome.
    Migration {
        /// The migrating container.
        container: u64,
        /// Host the container was leaving.
        from_host: u64,
        /// Host the container was moving to.
        to_host: u64,
        /// Interned milestone kind (`begin`, `commit`, `abort`).
        kind: &'static str,
        /// Freeze-to-thaw blackout in nanoseconds (zero for `begin`).
        blackout_ns: u64,
    },
    /// A waiter actually blocked on a doorbell.
    DoorbellWait {
        /// Host of the waiting side.
        host: u64,
        /// Interned doorbell name (e.g. `"cq"`).
        bell: &'static str,
    },
}

impl Event {
    /// The QPN this event concerns, if any (filter helper for timelines).
    pub fn qpn(&self) -> Option<u32> {
        match *self {
            Event::PathTransition { qpn, .. }
            | Event::StreamRetransmit { qpn, .. }
            | Event::StreamReorder { qpn, .. } => Some(qpn),
            _ => None,
        }
    }
}

/// An [`Event`] plus its global sequence number and a timestamp in
/// nanoseconds since the recorder was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Nanoseconds since recorder creation.
    pub t_ns: u64,
    /// Global write order (ticket); strictly increasing across the process.
    pub seq: u64,
    /// The event payload.
    pub event: Event,
}

struct Slot {
    /// Seqlock word: `2*(ticket+1)` when slot holds ticket's event,
    /// odd while a write is in flight, 0 when never written.
    seq: AtomicU64,
    data: UnsafeCell<MaybeUninit<TimedEvent>>,
}

/// Bounded lock-free overwriting event ring. See module docs.
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    mask: u64,
    next: AtomicU64,
    start: Instant,
}

// Slots are only accessed through the seqlock protocol.
unsafe impl Send for FlightRecorder {}
unsafe impl Sync for FlightRecorder {}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

/// Default ring capacity (must be a power of two).
pub const DEFAULT_RECORDER_CAPACITY: usize = 4096;

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_RECORDER_CAPACITY)
    }
}

impl FlightRecorder {
    /// New recorder holding the most recent `capacity` events
    /// (rounded up to a power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                data: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            slots,
            mask: (cap - 1) as u64,
            next: AtomicU64::new(0),
            start: Instant::now(),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Acquire)
    }

    /// Events lost to overwriting so far.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Record one event. Lock-free: one `fetch_add` plus a seqlocked slot
    /// write; never blocks a reader or another writer.
    pub fn record(&self, event: Event) {
        let t_ns = self.start.elapsed().as_nanos() as u64;
        let ticket = self.next.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(ticket & self.mask) as usize];
        // Odd value marks the write in progress; readers retry/skip.
        slot.seq.store(2 * ticket + 1, Ordering::Release);
        unsafe {
            std::ptr::write_volatile(
                slot.data.get(),
                MaybeUninit::new(TimedEvent {
                    t_ns,
                    seq: ticket,
                    event,
                }),
            );
        }
        slot.seq.store(2 * (ticket + 1), Ordering::Release);
    }

    /// Drain (non-destructively) the surviving events in global write
    /// order. Slots being overwritten concurrently are skipped; the result
    /// is always a consistent, ordered subsequence of everything recorded.
    pub fn events(&self) -> Vec<TimedEvent> {
        let end = self.next.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let first = end.saturating_sub(cap);
        let mut out = Vec::with_capacity((end - first) as usize);
        for ticket in first..end {
            let slot = &self.slots[(ticket & self.mask) as usize];
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 != 2 * (ticket + 1) {
                continue; // never written, mid-write, or already overwritten
            }
            let data = unsafe { std::ptr::read_volatile(slot.data.get()).assume_init() };
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == seq1 {
                out.push(data);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(host: u64) -> Event {
        Event::DoorbellWait { host, bell: "cq" }
    }

    #[test]
    fn records_in_order_with_monotonic_timestamps() {
        let r = FlightRecorder::with_capacity(8);
        for i in 0..5 {
            r.record(ev(i));
        }
        let events = r.events();
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.event, ev(i as u64));
            if i > 0 {
                assert!(e.t_ns >= events[i - 1].t_ns);
            }
        }
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn overwrites_keep_the_most_recent_events() {
        let r = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            r.record(ev(i));
        }
        let events = r.events();
        assert_eq!(events.len(), 4);
        let hosts: Vec<u64> = events
            .iter()
            .map(|e| match e.event {
                Event::DoorbellWait { host, .. } => host,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(hosts, vec![6, 7, 8, 9]);
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.dropped(), 6);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(FlightRecorder::with_capacity(5).capacity(), 8);
        assert_eq!(FlightRecorder::with_capacity(0).capacity(), 2);
    }

    #[test]
    fn concurrent_writers_never_corrupt_the_ring() {
        let r = Arc::new(FlightRecorder::with_capacity(64));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        r.record(ev(w * 10_000 + i));
                    }
                })
            })
            .collect();
        // Reader hammers drains while writers are live; every drain must be
        // internally ordered even if slots are skipped.
        for _ in 0..200 {
            let events = r.events();
            for pair in events.windows(2) {
                assert!(pair[0].seq < pair[1].seq);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(r.recorded(), 4000);
        let events = r.events();
        assert_eq!(events.len(), 64);
        assert_eq!(events.last().unwrap().seq, 3999);
    }
}
