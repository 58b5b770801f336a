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
//! runner, which wakes only for rings nobody waits on.
//!
//! Bells made with [`Doorbell::sharing`] park their waiters on one mutex
//! and condvar, the `ibv_comp_channel` of real Verbs: one wait hears many
//! bells. [`block_on`] is the one wait of a thread that runs the step
//! itself: it registers on every bell it hears *before* the step and its
//! last look, so a ring that lands before its park is its own, parks once
//! on all of them, and runs the step once more if it leaves after a ring
//! it heard. A ring notifies only when a waiter is parked on the condvar:
//! a ring from the registered waiter's own step costs no syscall.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The most bells one [`block_on`] hears: a waiter's own, and the one that
/// announces the work its step does.
const MAX_BELLS: usize = 2;

/// The instant `timeout` from now, or `None` — no deadline — when that
/// overflows, so a wait given `Duration::MAX` waits without one instead
/// of panicking.
pub fn deadline_in(timeout: Duration) -> Option<Instant> {
    Instant::now().checked_add(timeout)
}

/// The mutex and condvar waiters park on, shared by bells made with
/// [`Doorbell::sharing`]. The mutex holds how many are parked.
#[derive(Debug, Default)]
struct Parker {
    parked: Mutex<usize>,
    condvar: Condvar,
}

impl Parker {
    fn lock(&self) -> MutexGuard<'_, usize> {
        self.parked.lock().unwrap_or_else(PoisonError::into_inner)
    }
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
    parker: Arc<Parker>,
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
    /// counted). A park on several bells counts on the first.
    pub waits: u64,
    /// Parked waiters that resumed because a counter advanced.
    pub wakes: u64,
    /// Parked waiters that gave up on a timeout.
    pub timeouts: u64,
    /// Logical rings absorbed into a batched physical ring: a
    /// [`Doorbell::ring_coalesced`] covering `n` published items counts
    /// `n - 1` here. `rings + coalesced` is therefore the number of rings
    /// an unbatched producer would have issued.
    pub coalesced: u64,
    /// Rings that found a waiter parked and issued a condvar wake;
    /// `rings - notifies` rings cost no syscall.
    pub notifies: u64,
}

impl Doorbell {
    /// New doorbell with counter zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// New doorbell whose waiters park with `other`'s, so one
    /// [`block_on`] hears both.
    pub fn sharing(other: &Doorbell) -> Self {
        Self {
            parker: Arc::clone(&other.parker),
            ..Self::default()
        }
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
        // A waiter holds the mutex from its last look until it is parked,
        // so what the mutex says here is exact: one not parked yet looks
        // again under it and sees this ring. Releasing it before the notify
        // spares the woken thread a block on its waker.
        let parked = *self.parker.lock();
        if parked > 0 {
            self.notifies.fetch_add(1, Ordering::Relaxed);
            self.parker.condvar.notify_all();
        }
    }

    /// Route every ring that finds no waiter registered to `bell` as well.
    /// Set once: the first call wins. Sound only when whoever registers
    /// on this bell does, after every park and on leaving, the work a ring
    /// announces — the ring that notifies it does not reach `bell`.
    pub fn set_idle_bell(&self, bell: Arc<Doorbell>) {
        let _ = self.idle.set(bell);
    }

    /// The bell [`Doorbell::set_idle_bell`] installed, if any.
    pub fn idle_bell(&self) -> Option<&Arc<Doorbell>> {
        self.idle.get()
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

    /// Block until the counter moves past `seen` or `deadline` (if any)
    /// passes. Returns the new counter value, or `None` on timeout. A
    /// deadline already passed only checks the counter.
    pub fn park(&self, seen: u64, deadline: Option<Instant>) -> Option<u64> {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let (woke, _) = park_on(&[self], &[seen], deadline);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        woke.then(|| self.current())
    }
}

/// The one park, for a waiter registered on every bell of `bells` (all on
/// one parker): sleep until one counter passes its entry in `seen` or
/// `deadline` passes. Returns whether one did, and whether the waiter
/// slept on the condvar; that park counts once, on the first bell. A
/// deadline already passed only checks the counters.
fn park_on(bells: &[&Doorbell], seen: &[u64], deadline: Option<Instant>) -> (bool, bool) {
    let moved = || (bells.iter().zip(seen)).any(|(b, &s)| b.count.load(Ordering::SeqCst) > s);
    if deadline.is_some_and(|at| at <= Instant::now()) {
        return (moved(), false);
    }
    let first = bells[0];
    debug_assert!(
        (bells.iter()).all(|b| Arc::ptr_eq(&b.parker, &first.parker)),
        "one park hears only bells sharing a parker"
    );
    let parker = &*first.parker;
    let mut parked = parker.lock();
    let (mut waited, mut timed_out) = (false, false);
    let woke = loop {
        if moved() {
            break true;
        }
        // Checked after the counters, so a ring that raced the timeout
        // still counts as a wake.
        if timed_out {
            break false;
        }
        if !waited {
            waited = true;
            first.waits.fetch_add(1, Ordering::Relaxed);
        }
        *parked += 1;
        timed_out = match deadline {
            None => {
                parked = (parker.condvar.wait(parked)).unwrap_or_else(PoisonError::into_inner);
                false
            }
            Some(at) => {
                let left = at.saturating_duration_since(Instant::now());
                let (g, res) = (parker.condvar.wait_timeout(parked, left))
                    .unwrap_or_else(PoisonError::into_inner);
                parked = g;
                res.timed_out()
            }
        };
        *parked -= 1;
    };
    drop(parked);
    if !woke {
        first.timeouts.fetch_add(1, Ordering::Relaxed);
    } else if waited {
        first.wakes.fetch_add(1, Ordering::Relaxed);
    }
    (woke, waited)
}

/// What a waiter's look found ([`block_on`]).
#[derive(Debug)]
pub enum Look<T> {
    /// Leave with this.
    Ready(T),
    /// Nothing yet: park, until this instant at the latest if one is given.
    Wait(Option<Instant>),
}

/// How a [`block_on`] ended.
#[derive(Debug)]
pub struct Waited<T> {
    /// What the last look found; `None` when the deadline passed first.
    pub got: Option<T>,
    /// Whether the waiter slept at least once: a wait that found its
    /// answer at once, or through its own step, or a ring before its park
    /// did not.
    pub parked: bool,
}

/// A waiter registered on every bell it hears, with the counts it saw.
/// Dropping it deregisters, on unwind too.
struct Armed<'a> {
    bells: &'a [&'a Doorbell],
    seen: [u64; MAX_BELLS],
}

impl<'a> Armed<'a> {
    fn new(bells: &'a [&'a Doorbell]) -> Self {
        assert!(
            (1..=MAX_BELLS).contains(&bells.len()),
            "a wait hears one to {MAX_BELLS} bells"
        );
        for bell in bells {
            bell.sleepers.fetch_add(1, Ordering::SeqCst);
        }
        let mut armed = Self {
            bells,
            seen: [0; MAX_BELLS],
        };
        armed.capture();
        armed
    }

    /// Take the counts to park on. Still registered, so a ring after this
    /// notifies instead of ringing an idle bell.
    fn capture(&mut self) {
        for (seen, bell) in self.seen.iter_mut().zip(self.bells) {
            *seen = bell.count.load(Ordering::SeqCst);
        }
    }

    /// Park; whether the waiter slept.
    fn park(&mut self, deadline: Option<Instant>) -> bool {
        let (_, slept) = park_on(self.bells, &self.seen[..self.bells.len()], deadline);
        self.capture();
        slept
    }

    /// Deregister; whether a ring landed since the last capture, whose
    /// work this waiter now owes. A later ring reaches the idle bells.
    fn leave(self) -> bool {
        let (bells, seen) = (self.bells, self.seen);
        drop(self);
        (bells.iter().zip(seen)).any(|(b, s)| b.count.load(Ordering::SeqCst) > s)
    }
}

impl Drop for Armed<'_> {
    fn drop(&mut self) {
        for bell in self.bells {
            bell.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The one wait of a thread that runs the step itself. The waiter
/// registers on every bell in `bells` (one to two, sharing a parker: its
/// own, and the one that announces its step's work) and looks; the first
/// look runs no step, as what is there already needs none. Until a look is
/// ready, or `deadline` (if any) passes, it runs `step`, looks again and
/// parks once on all the bells, until a ring or the earlier of `deadline`
/// and the look's own instant. Registering before the step and the look
/// means a ring that lands before the park is this waiter's to serve, not
/// an idle bell's; so a waiter that leaves after a ring it heard runs
/// `step` once more.
///
/// `step` takes its own run lock; the waiter holds no lock across a park.
pub fn block_on<T>(
    bells: &[&Doorbell],
    mut step: impl FnMut(),
    deadline: Option<Instant>,
    mut look: impl FnMut() -> Look<T>,
) -> Waited<T> {
    let passed = || deadline.is_some_and(|at| at <= Instant::now());
    let mut armed = Armed::new(bells);
    let (mut stepped, mut parked) = (false, false);
    let got = loop {
        match look() {
            Look::Ready(got) => break Some(got),
            Look::Wait(_) if passed() => break None,
            Look::Wait(until) if stepped => {
                parked |= armed.park([deadline, until].into_iter().flatten().min());
            }
            Look::Wait(_) => {}
        }
        step();
        stepped = true;
    };
    if armed.leave() {
        step();
    }
    Waited { got, parked }
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
        let deadline = deadline_in(Duration::from_secs(10));
        // The first step stands in for a ring that lands after the waiter
        // registered, before its last look and its park.
        let (mut steps, mut looks) = (0, 0);
        let waited = block_on(
            &[&bell],
            || {
                steps += 1;
                if steps == 1 {
                    bell.ring();
                }
            },
            deadline,
            || {
                looks += 1;
                if looks < 3 {
                    Look::Wait(None)
                } else {
                    Look::Ready(())
                }
            },
        );
        assert!(waited.got.is_some() && !waited.parked, "{waited:?}");
        assert_eq!((steps, looks), (2, 3), "the park ended at once");
        assert_eq!(idle.current(), 0, "the armed waiter heard this ring");
        let s = bell.stats();
        assert_eq!((s.waits, s.wakes, s.timeouts, s.notifies), (0, 0, 0, 0));
        assert_eq!(bell.sleepers.load(Ordering::SeqCst), 0);
        // A waiter that leaves instead runs the step for the ring it heard.
        let mut steps = 0;
        let mut first = true;
        let waited = block_on(
            &[&bell],
            || {
                steps += 1;
                if steps == 1 {
                    bell.ring();
                }
            },
            deadline,
            || match std::mem::replace(&mut first, false) {
                true => Look::Wait(None),
                false => Look::Ready(()),
            },
        );
        assert!(waited.got.is_some());
        assert_eq!(steps, 2, "the step ran once more for the ring it heard");
        assert_eq!(idle.current(), 0);
        bell.ring();
        assert_eq!(idle.current(), 1, "nobody waits for this one");
    }

    #[test]
    fn a_ring_on_either_shared_bell_ends_one_park() {
        // A library's bells: a CQ's bell and the inbound bell share a
        // parker. The agent ring's data bell rings the inbound bell when no
        // waiter registered on it, which rings the pump's bell when none
        // registered on it.
        let pump = Arc::new(Doorbell::new());
        let inbound = Arc::new(Doorbell::new());
        inbound.set_idle_bell(Arc::clone(&pump));
        let cq = Doorbell::sharing(&inbound);
        let data = Doorbell::new();
        data.set_idle_bell(Arc::clone(&inbound));
        data.ring();
        assert_eq!(pump.current(), 1, "a ring nobody waits on reaches the pump");
        cq.ring();
        assert_eq!(pump.current(), 1, "a CQ ring nobody waits on rings nothing");
        let ringers: [&Doorbell; 2] = [&cq, &data];
        for (round, ringer) in ringers.into_iter().enumerate() {
            let before = cq.stats();
            let start = [cq.current(), inbound.current()];
            std::thread::scope(|s| {
                let waiter = s.spawn(|| {
                    block_on(
                        &[&cq, &*inbound],
                        || {},
                        deadline_in(Duration::from_secs(10)),
                        || match [cq.current(), inbound.current()] == start {
                            true => Look::Wait(None),
                            false => Look::Ready(()),
                        },
                    )
                });
                while cq.stats().waits == before.waits {
                    std::thread::yield_now();
                }
                ringer.ring();
                let waited = waiter.join().unwrap();
                assert!(waited.got.is_some() && waited.parked, "round {round}");
            });
            let s = cq.stats();
            assert_eq!(
                (s.waits, s.wakes, s.timeouts),
                (before.waits + 1, before.wakes + 1, before.timeouts),
                "round {round}: one park, ended by a wake"
            );
            assert_eq!(pump.current(), 1, "round {round}: the waiter heard it");
        }
        assert_eq!(cq.stats().notifies + inbound.stats().notifies, 2);
        for bell in [&cq, &*inbound] {
            assert_eq!(bell.sleepers.load(Ordering::SeqCst), 0);
        }
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
