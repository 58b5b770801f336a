//! Edge-triggered wakeups between two threads.
//!
//! A [`Doorbell`] is the shm analog of an eventfd or an RDMA completion
//! interrupt: the producer *rings* after publishing work; the consumer
//! either *polls* (kernel-bypass style, burning a core for latency — what
//! DPDK does) or *waits* (blocking, cheap but adds wakeup latency — what a
//! socket read does). Channels expose both so the benches can show the
//! poll-vs-interrupt latency/CPU trade-off.
//!
//! The counter is monotonic: a ring is never lost, even if it happens
//! between the consumer's check and its sleep (the classic lost-wakeup
//! race) — the consumer passes the last count it *observed* and the wait
//! returns immediately if the counter has moved past it.
//!
//! The bell is an eventcount: a ring enters the kernel only when a thread
//! is parked. Waiters register in `sleepers` *before* their last look at
//! the counter; a ring bumps the counter and then reads `sleepers`, and
//! skips the mutex and the futex wake when it reads zero. Both sides use
//! `SeqCst`, so the increment of `sleepers` and the increment of the
//! counter sit in one total order with the two loads: either the waiter's
//! load sees the new count (it returns without parking), or the ringer's
//! load sees the sleeper. In the second case the ringer takes the mutex,
//! which the waiter holds from its look under it until `Condvar::wait`
//! releases it atomically with parking, and lets it go again *before* its
//! `notify_all`: the waiter has read the condvar's futex word by then, so
//! the notify is not lost, and the woken thread never blocks on a mutex
//! its waker still holds (on one CPU that cost a switch back to the ringer
//! and another to the waiter).
//!
//! A bell may carry an *idle bell* ([`Doorbell::set_idle_bell`]): a ring
//! that finds no waiter registered rings it instead of returning. A
//! consumer whose waiters do the work themselves routes it to a fallback
//! runner, which wakes only for rings nobody waits on. A waiter arms
//! ([`Doorbell::arm`]) before its last look, so a ring before its park is
//! its own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The instant `timeout` from now, or `None` — no deadline — when that
/// overflows, so a wait given `Duration::MAX` waits without one instead
/// of panicking.
pub fn deadline_in(timeout: Duration) -> Option<Instant> {
    Instant::now().checked_add(timeout)
}

/// A monotonic-counter doorbell shared by one ringer and one waiter
/// (more of either is safe, just unusual).
#[derive(Debug, Default)]
pub struct Doorbell {
    count: AtomicU64,
    /// Waiters between registration and exit.
    sleepers: AtomicU64,
    waits: AtomicU64,
    wakes: AtomicU64,
    timeouts: AtomicU64,
    coalesced: AtomicU64,
    notifies: AtomicU64,
    /// Rung in place of a notify when no waiter is registered.
    idle: OnceLock<Arc<Doorbell>>,
    mutex: Mutex<()>,
    condvar: Condvar,
}

/// A point-in-time copy of a doorbell's counters. `rings` alone says how
/// busy the producer was; `waits`/`wakes` reveal how often the consumer
/// actually *blocked* rather than finding work ready — the distinction
/// between the polling and interrupt-driven regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DoorbellStats {
    /// Total rings (the monotonic counter's value).
    pub rings: u64,
    /// Blocking calls that actually parked on the condvar (calls that
    /// found the counter already advanced, and zero-length waits, are not
    /// counted).
    pub waits: u64,
    /// Parked waiters that resumed because the counter advanced.
    pub wakes: u64,
    /// Parked waiters that gave up on a timeout.
    pub timeouts: u64,
    /// Logical rings absorbed into a batched physical ring: a
    /// [`Doorbell::ring_coalesced`] covering `n` published items counts
    /// `n - 1` here. `rings + coalesced` is therefore the number of rings
    /// an unbatched producer would have issued.
    pub coalesced: u64,
    /// Rings that found a registered waiter and issued a condvar wake;
    /// `rings - notifies` rings cost one atomic add and no syscall.
    pub notifies: u64,
}

impl Doorbell {
    /// New doorbell with counter zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ring: increment the counter and wake any parked waiter. With no
    /// waiter registered this is one atomic add and one load, plus a ring
    /// of the idle bell if one is set.
    pub fn ring(&self) {
        self.count.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            if let Some(idle) = self.idle.get() {
                idle.ring();
            }
            return;
        }
        self.notifies.fetch_add(1, Ordering::Relaxed);
        // A waiter holds the mutex from its last look until it is parked,
        // so taking it here orders this notify after the park. Releasing it
        // first spares the woken thread a block on its waker.
        drop(self.lock());
        self.condvar.notify_all();
    }

    /// Route every ring that finds no waiter registered to `bell` as well.
    /// Set once: the first call wins. Sound only when whoever registers
    /// on this bell does, after every park or disarm, the work a ring
    /// announces — the ring that notifies it does not reach `bell`.
    pub fn set_idle_bell(&self, bell: Arc<Doorbell>) {
        let _ = self.idle.set(bell);
    }

    /// The bell [`Doorbell::set_idle_bell`] installed, if any.
    pub fn idle_bell(&self) -> Option<&Arc<Doorbell>> {
        self.idle.get()
    }

    fn lock(&self) -> MutexGuard<'_, ()> {
        self.mutex.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Ring once on behalf of `batched` published items.
    ///
    /// The counter still advances by exactly one — a waiter wakes once per
    /// batch, not once per item — and the `batched - 1` rings a per-item
    /// producer would have issued are recorded as coalesced. `batched == 0`
    /// is a no-op (nothing was published, so nothing to announce).
    pub fn ring_coalesced(&self, batched: u64) {
        if batched == 0 {
            return;
        }
        self.coalesced.fetch_add(batched - 1, Ordering::Relaxed);
        self.ring();
    }

    /// Current counter value. Use as the `seen` argument of a later wait.
    pub fn current(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    /// Copy the wait/wake counters.
    pub fn stats(&self) -> DoorbellStats {
        DoorbellStats {
            rings: self.current(),
            waits: self.waits.load(Ordering::Relaxed),
            wakes: self.wakes.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            notifies: self.notifies.load(Ordering::Relaxed),
        }
    }

    /// Block until the counter moves past `seen` or `timeout` elapses.
    /// Returns the new counter value, or `None` on timeout. A zero
    /// `timeout` only checks the counter: it neither parks nor counts. A
    /// timeout too long to be an instant is no deadline.
    pub fn wait_timeout(&self, seen: u64, timeout: Duration) -> Option<u64> {
        self.park(seen, deadline_in(timeout))
    }

    /// Register as a waiter before the last look for work; returns the
    /// count to park on. Until [`Doorbell::park_armed`] or [`Doorbell::disarm`],
    /// a ring notifies instead of ringing the idle bell.
    pub fn arm(&self) -> u64 {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        self.count.load(Ordering::SeqCst)
    }

    /// End an [`Doorbell::arm`] without parking; whether a ring landed
    /// since, whose work this waiter now owes.
    pub fn disarm(&self, seen: u64) -> bool {
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        self.count.load(Ordering::SeqCst) > seen
    }

    /// Register, then [`Doorbell::park_armed`].
    pub fn park(&self, seen: u64, deadline: Option<Instant>) -> Option<u64> {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        self.park_armed(seen, deadline)
    }

    /// The one wait loop, for a registered waiter: park on the condvar
    /// until the counter passes `seen` or `deadline` (if any) passes, then
    /// deregister. Returns the new counter value, or `None` on timeout. A
    /// deadline already passed only checks the counter.
    pub fn park_armed(&self, seen: u64, deadline: Option<Instant>) -> Option<u64> {
        if deadline.is_some_and(|at| at <= Instant::now()) {
            return self.disarm(seen).then(|| self.current());
        }
        let mut guard = self.lock();
        let (mut parked, mut timed_out) = (false, false);
        let got = loop {
            let now = self.count.load(Ordering::SeqCst);
            if now > seen {
                break Some(now);
            }
            // Checked after the count, so a ring that raced the timeout
            // still counts as a wake.
            if timed_out {
                break None;
            }
            if !parked {
                parked = true;
                self.waits.fetch_add(1, Ordering::Relaxed);
            }
            timed_out = match deadline {
                None => {
                    guard = self
                        .condvar
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner);
                    false
                }
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    let (g, res) = (self.condvar.wait_timeout(guard, left))
                        .unwrap_or_else(PoisonError::into_inner);
                    guard = g;
                    res.timed_out()
                }
            };
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        if got.is_none() {
            self.timeouts.fetch_add(1, Ordering::Relaxed);
        } else if parked {
            self.wakes.fetch_add(1, Ordering::Relaxed);
        }
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn check_sees_ring() {
        let bell = Doorbell::new();
        let seen = bell.current();
        assert_eq!(bell.current(), seen);
        bell.ring();
        assert!(bell.current() > seen);
    }

    #[test]
    fn wait_returns_after_ring_from_other_thread() {
        let bell = Arc::new(Doorbell::new());
        let seen = bell.current();
        let ringer = {
            let bell = Arc::clone(&bell);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                bell.ring();
            })
        };
        let now = bell.park(seen, None).unwrap();
        assert!(now > seen);
        ringer.join().unwrap();
    }

    #[test]
    fn wait_does_not_block_if_already_rung() {
        let bell = Doorbell::new();
        let seen = bell.current();
        bell.ring();
        // Must return immediately — no ringer will come.
        assert_eq!(bell.park(seen, None), Some(seen + 1));
    }

    #[test]
    fn wait_timeout_expires() {
        let bell = Doorbell::new();
        let seen = bell.current();
        assert_eq!(bell.wait_timeout(seen, Duration::from_millis(5)), None);
    }

    #[test]
    fn a_wait_given_duration_max_has_no_deadline() {
        let bell = Arc::new(Doorbell::new());
        bell.ring();
        assert_eq!(bell.wait_timeout(0, Duration::MAX), Some(1));
        let ringer = {
            let bell = Arc::clone(&bell);
            std::thread::spawn(move || bell.ring())
        };
        assert_eq!(bell.wait_timeout(1, Duration::MAX), Some(2));
        ringer.join().unwrap();
        assert_eq!(bell.stats().timeouts, 0);
    }

    #[test]
    fn wait_timeout_sees_ring() {
        let bell = Arc::new(Doorbell::new());
        let seen = bell.current();
        let ringer = {
            let bell = Arc::clone(&bell);
            std::thread::spawn(move || bell.ring())
        };
        let got = bell.wait_timeout(seen, Duration::from_secs(5));
        assert!(got.is_some());
        ringer.join().unwrap();
    }

    #[test]
    fn stats_track_parks_wakes_and_timeouts() {
        let bell = Arc::new(Doorbell::new());
        assert_eq!(bell.stats(), DoorbellStats::default());

        // A wait that finds the counter already advanced never parks.
        bell.ring();
        bell.park(0, None);
        let s = bell.stats();
        assert_eq!((s.rings, s.waits, s.wakes, s.timeouts), (1, 0, 0, 0));

        // A timed-out wait parks once and records the timeout.
        assert_eq!(bell.wait_timeout(1, Duration::from_millis(5)), None);
        let s = bell.stats();
        assert_eq!((s.waits, s.wakes, s.timeouts), (1, 0, 1));

        // A parked waiter woken by a ring records exactly one wake.
        let waiter = {
            let bell = Arc::clone(&bell);
            std::thread::spawn(move || bell.park(1, None))
        };
        while bell.stats().waits < 2 {
            std::thread::yield_now();
        }
        bell.ring();
        assert_eq!(waiter.join().unwrap(), Some(2));
        let s = bell.stats();
        assert_eq!((s.rings, s.waits, s.wakes, s.timeouts), (2, 2, 1, 1));
    }

    #[test]
    fn zero_length_wait_neither_parks_nor_counts() {
        let bell = Doorbell::new();
        assert_eq!(bell.wait_timeout(0, Duration::ZERO), None);
        bell.ring();
        assert_eq!(bell.wait_timeout(0, Duration::ZERO), Some(1));
        let s = bell.stats();
        assert_eq!((s.waits, s.wakes, s.timeouts), (0, 0, 0));
        assert_eq!(bell.sleepers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn unwaited_rings_issue_no_notify() {
        let bell = Doorbell::new();
        for _ in 0..1_000 {
            bell.ring();
        }
        bell.ring_coalesced(4);
        let s = bell.stats();
        assert_eq!((s.rings, s.notifies), (1_001, 0));
    }

    #[test]
    fn ring_to_a_parked_waiter_notifies_and_wakes_once() {
        let bell = Arc::new(Doorbell::new());
        let waiter = {
            let bell = Arc::clone(&bell);
            std::thread::spawn(move || bell.wait_timeout(0, Duration::from_secs(10)))
        };
        while bell.stats().waits == 0 {
            std::thread::yield_now();
        }
        bell.ring();
        assert_eq!(waiter.join().unwrap(), Some(1));
        let s = bell.stats();
        assert_eq!((s.waits, s.wakes, s.timeouts, s.notifies), (1, 1, 0, 1));
        assert_eq!(bell.sleepers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_ring_with_no_waiter_rings_the_idle_bell() {
        let (bell, idle) = (Doorbell::new(), Arc::new(Doorbell::new()));
        bell.ring();
        bell.set_idle_bell(Arc::clone(&idle));
        bell.ring();
        bell.ring_coalesced(3);
        assert_eq!((bell.current(), idle.current()), (3, 2));
        assert_eq!(bell.stats().notifies, 0);
        assert!(Arc::ptr_eq(bell.idle_bell().unwrap(), &idle));
    }

    #[test]
    fn a_ring_to_a_parked_waiter_does_not_ring_the_idle_bell() {
        let (bell, idle) = (Arc::new(Doorbell::new()), Arc::new(Doorbell::new()));
        bell.set_idle_bell(Arc::clone(&idle));
        let waiter = {
            let bell = Arc::clone(&bell);
            std::thread::spawn(move || bell.wait_timeout(0, Duration::from_secs(10)))
        };
        while bell.stats().waits == 0 {
            std::thread::yield_now();
        }
        bell.ring();
        assert_eq!(waiter.join().unwrap(), Some(1));
        let s = bell.stats();
        assert_eq!((s.wakes, s.timeouts, s.notifies), (1, 0, 1));
        assert_eq!(idle.current(), 0, "the waiter heard this ring");
        bell.ring();
        assert_eq!(idle.current(), 1, "nobody waits for this one");
    }

    #[test]
    fn a_ring_between_arming_and_parking_ends_the_park_not_the_idle_bell() {
        let (bell, idle) = (Doorbell::new(), Arc::new(Doorbell::new()));
        bell.set_idle_bell(Arc::clone(&idle));
        let seen = bell.arm();
        // The waiter's last look found nothing; this ring lands before its park.
        bell.ring();
        let woke = bell.park_armed(seen, deadline_in(Duration::from_secs(10)));
        assert_eq!(woke, Some(1));
        assert_eq!(idle.current(), 0, "the armed waiter heard this ring");
        let s = bell.stats();
        assert_eq!((s.waits, s.wakes, s.timeouts, s.notifies), (0, 0, 0, 1));
        assert_eq!(bell.sleepers.load(Ordering::SeqCst), 0);
        // A waiter that leaves instead learns of the ring it heard.
        let seen = bell.arm();
        bell.ring();
        assert!(bell.disarm(seen));
        assert_eq!(idle.current(), 0);
        bell.ring();
        assert_eq!(idle.current(), 1, "nobody waits for this one");
    }

    #[test]
    fn ping_pong_through_two_bells_loses_no_wakeup() {
        // Two threads pass a ball back and forth 100 000 times, each
        // parking with the pump's pattern: capture the bell, look for
        // work, park on the captured count. Most rings find the peer not
        // yet parked and skip the notify, so this exercises the window
        // between a waiter's registration and its park from both sides.
        const ROUNDS: u64 = 100_000;
        let bells: Arc<[Doorbell; 2]> = Arc::default();
        let ball = Arc::new(AtomicU64::new(0)); // even: side 0 holds it
        let players: Vec<_> = (0..2u64)
            .map(|side| {
                let (bells, ball) = (Arc::clone(&bells), Arc::clone(&ball));
                std::thread::spawn(move || {
                    let (mine, theirs) = (&bells[side as usize], &bells[1 - side as usize]);
                    let mut hits = 0;
                    while hits < ROUNDS {
                        let seen = mine.current();
                        let b = ball.load(Ordering::SeqCst);
                        if b % 2 == side {
                            ball.store(b + 1, Ordering::SeqCst);
                            theirs.ring();
                            hits += 1;
                        } else {
                            let woke = mine.wait_timeout(seen, Duration::from_secs(10));
                            assert!(woke.is_some(), "lost wakeup at ball {b}");
                        }
                    }
                })
            })
            .collect();
        for p in players {
            p.join().unwrap();
        }
        assert_eq!(ball.load(Ordering::SeqCst), 2 * ROUNDS);
        for bell in bells.iter() {
            let s = bell.stats();
            assert_eq!(s.timeouts, 0, "{s:?}");
            assert_eq!(s.waits, s.wakes, "{s:?}");
        }
    }

    #[test]
    fn ring_coalesced_advances_once_and_accounts_the_rest() {
        let bell = Doorbell::new();
        bell.ring_coalesced(0); // no-op
        assert_eq!(bell.current(), 0);
        bell.ring_coalesced(1); // degenerate batch: a plain ring
        bell.ring_coalesced(8); // one wakeup standing in for 8
        let s = bell.stats();
        assert_eq!(s.rings, 2, "one physical ring per batch");
        assert_eq!(s.coalesced, 7, "only the 8-batch saved rings");
    }

    #[test]
    fn coalesced_ring_is_never_lost_or_double_fired() {
        // Satellite: a waiter parked across coalesced rings wakes exactly
        // once per batch (no double fire) and never misses one (no loss),
        // even when batches race the park/wake cycle.
        let bell = Arc::new(Doorbell::new());
        const BATCHES: u64 = 5_000;
        let ringer = {
            let bell = Arc::clone(&bell);
            std::thread::spawn(move || {
                for i in 0..BATCHES {
                    bell.ring_coalesced(1 + i % 7);
                }
            })
        };
        let mut seen = 0;
        let mut observed_batches = 0u64;
        while seen < BATCHES {
            let now = bell.park(seen, None).unwrap();
            // Each observation consumes >= 1 whole batch; the counter
            // never moves by fractions of one.
            assert!(now > seen);
            observed_batches += now - seen;
            seen = now;
        }
        ringer.join().unwrap();
        assert_eq!(seen, BATCHES, "no batch wakeup was lost");
        assert_eq!(observed_batches, BATCHES, "no batch was double-counted");
        let s = bell.stats();
        assert_eq!(s.rings, BATCHES);
        // sum over i of (1 + i%7 - 1) = sum of i%7.
        let expected: u64 = (0..BATCHES).map(|i| i % 7).sum();
        assert_eq!(s.coalesced, expected);
    }

    #[test]
    fn no_lost_wakeup_under_stress() {
        // Many rapid rings; the waiter must observe all increments
        // eventually (counter is monotonic — nothing is lost).
        let bell = Arc::new(Doorbell::new());
        const RINGS: u64 = 10_000;
        let ringer = {
            let bell = Arc::clone(&bell);
            std::thread::spawn(move || {
                for _ in 0..RINGS {
                    bell.ring();
                }
            })
        };
        let mut seen = 0;
        while seen < RINGS {
            seen = bell.park(seen, None).unwrap();
        }
        assert_eq!(seen, RINGS);
        ringer.join().unwrap();
    }
}
