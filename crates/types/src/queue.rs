//! A bounded queue that rings.
//!
//! A [`Queue`] moves owned values between threads that park on
//! [`Doorbell`]s, so a pump parked on its one bell also hears its queues
//! (DESIGN.md §12, "Wake protocol"). Values move, they are not copied: a
//! queued `Bytes` stays zero-copy.
//!
//! * A push rings the consumer's bell, given at construction. A producer
//!   that finds the queue full can park on the queue's own space bell,
//!   which a pop from a full queue rings.
//! * A pop never blocks; [`Queue::pop_until`] parks on the consumer bell.
//! * Dropping every [`QueueSender`] disconnects the [`Queue`] once it is
//!   drained. Dropping the [`Queue`] disconnects its senders and drops
//!   what it still holds, so a queued value that carries a reply sender
//!   tells its waiter at once.
//!
//! The values sit in a `VecDeque` under a mutex that no one holds while
//! ringing or parking. With nobody parked, each ring is the [`Doorbell`]
//! fast path: one atomic add and one load.

use crate::doorbell::Doorbell;
use crate::{Error, Result};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

struct State<T> {
    items: VecDeque<T>,
    /// The consumer is gone: pushes fail.
    closed: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    cap: usize,
    /// The consumer's bell: rung by every push and by the last sender's drop.
    bell: Arc<Doorbell>,
    /// Producers park here: rung by a pop that made room and by the
    /// consumer's drop.
    space: Doorbell,
    senders: AtomicUsize,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The consuming end of a bounded queue.
pub struct Queue<T> {
    shared: Arc<Shared<T>>,
}

/// A producing end of a [`Queue`]; clone it for more producers.
pub struct QueueSender<T> {
    shared: Arc<Shared<T>>,
}

/// Why a push did not land. A full queue hands the value back, so a
/// parked push can retry it.
enum Refused<T> {
    Full(T),
    Closed,
}

impl<T> Queue<T> {
    /// A queue holding at most `cap` values (at least one), whose pushes
    /// ring `bell`.
    pub fn bounded(cap: usize, bell: Arc<Doorbell>) -> (QueueSender<T>, Queue<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            cap: cap.max(1),
            bell,
            space: Doorbell::new(),
            senders: AtomicUsize::new(1),
        });
        let tx = QueueSender {
            shared: Arc::clone(&shared),
        };
        (tx, Queue { shared })
    }

    /// Take the oldest value without blocking: `Ok(None)` when the queue
    /// is empty, [`Error::Disconnected`] when it is empty and every
    /// sender is gone.
    pub fn try_pop(&self) -> Result<Option<T>> {
        // Read before the pop: a sender pushes before it drops, so a
        // queue found orphaned here still shows every value it was sent.
        let orphaned = self.shared.senders.load(Ordering::SeqCst) == 0;
        let (item, was_full) = {
            let mut st = self.shared.lock();
            let was_full = st.items.len() >= self.shared.cap;
            (st.items.pop_front(), was_full)
        };
        match item {
            Some(item) => {
                // Only a full queue can have a producer parked on it.
                if was_full {
                    self.shared.space.ring();
                }
                Ok(Some(item))
            }
            None if orphaned => Err(Error::disconnected("every queue sender dropped")),
            None => Ok(None),
        }
    }

    /// Move every value queued now into `out`, under one lock, and return
    /// how many. A drain that made room in a full queue rings the space
    /// bell once, after the values are out: a producer it wakes pushes
    /// into the next drain, never into this one.
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        let (n, was_full) = {
            let mut st = self.shared.lock();
            let was_full = st.items.len() >= self.shared.cap;
            let n = st.items.len();
            out.extend(st.items.drain(..));
            (n, was_full)
        };
        if was_full {
            self.shared.space.ring();
        }
        n
    }

    /// Take the oldest value, parking on the consumer bell while the queue
    /// is empty until `deadline` (`None`: no deadline). `Ok(None)` on
    /// timeout.
    pub fn pop_until(&self, deadline: Option<Instant>) -> Result<Option<T>> {
        loop {
            let seen = self.shared.bell.current();
            if let Some(item) = self.try_pop()? {
                return Ok(Some(item));
            }
            if self.shared.bell.park(seen, deadline).is_none() {
                return Ok(None);
            }
        }
    }

    /// The consumer bell every push rings.
    pub fn bell(&self) -> &Arc<Doorbell> {
        &self.shared.bell
    }

    /// The bell producers park on while the queue is full.
    pub fn space(&self) -> &Doorbell {
        &self.shared.space
    }
}

impl<T> QueueSender<T> {
    fn offer(&self, item: T) -> std::result::Result<(), Refused<T>> {
        {
            let mut st = self.shared.lock();
            if st.closed {
                return Err(Refused::Closed);
            }
            if st.items.len() >= self.shared.cap {
                return Err(Refused::Full(item));
            }
            st.items.push_back(item);
        }
        self.shared.bell.ring();
        Ok(())
    }

    /// Queue `item` without blocking and ring the consumer bell.
    /// [`Error::Exhausted`] when the queue is full, [`Error::Disconnected`]
    /// when the consumer is gone; either way `item` is dropped.
    pub fn try_push(&self, item: T) -> Result<()> {
        match self.offer(item) {
            Ok(()) => Ok(()),
            Err(Refused::Full(_)) => Err(Error::exhausted("queue full")),
            Err(Refused::Closed) => Err(Error::disconnected("queue consumer dropped")),
        }
    }

    /// Queue `item`, parking on the space bell while the queue is full
    /// until `deadline`, then [`Error::Exhausted`]. `gate` runs before
    /// every attempt and its error ends the wait: whoever makes it fail
    /// rings [`QueueSender::space`] so a parked push hears it at once.
    pub fn push_until(
        &self,
        mut item: T,
        deadline: Instant,
        gate: impl Fn() -> Result<()>,
    ) -> Result<()> {
        loop {
            // Captured before the gate, so a ring that follows a gate
            // change is never slept through.
            let seen = self.shared.space.current();
            gate()?;
            match self.offer(item) {
                Ok(()) => return Ok(()),
                Err(Refused::Closed) => return Err(Error::disconnected("queue consumer dropped")),
                Err(Refused::Full(back)) => item = back,
            }
            if self.shared.space.park(seen, Some(deadline)).is_none() {
                return Err(Error::exhausted("queue still full at the deadline"));
            }
        }
    }

    /// The consumer bell this sender's pushes ring.
    pub fn bell(&self) -> &Arc<Doorbell> {
        &self.shared.bell
    }

    /// The bell producers park on while the queue is full.
    pub fn space(&self) -> &Doorbell {
        &self.shared.space
    }
}

impl<T> Clone for QueueSender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::SeqCst);
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for QueueSender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // A consumer parked on an empty queue learns it is orphaned.
            self.shared.bell.ring();
        }
    }
}

impl<T> Drop for Queue<T> {
    fn drop(&mut self) {
        let items = {
            let mut st = self.shared.lock();
            st.closed = true;
            std::mem::take(&mut st.items)
        };
        self.shared.space.ring();
        // Dropped outside the lock: a value's own drop may ring or push.
        drop(items);
    }
}

impl<T> std::fmt::Debug for Queue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Queue")
            .field("len", &self.shared.lock().items.len())
            .field("cap", &self.shared.cap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const LONG: Duration = Duration::from_secs(10);

    fn queue<T>(cap: usize) -> (QueueSender<T>, Queue<T>) {
        Queue::bounded(cap, Arc::default())
    }

    /// Spin until `n` threads are parked on `bell`.
    fn until_parked(bell: &Doorbell, n: u64) {
        let deadline = Instant::now() + LONG;
        while bell.stats().waits < n {
            assert!(Instant::now() < deadline, "nobody parked");
            std::thread::yield_now();
        }
    }

    fn open() -> Result<()> {
        Ok(())
    }

    #[test]
    fn a_push_rings_the_consumer_bell_once() {
        let (tx, rx) = queue(4);
        tx.try_push(1).unwrap();
        let s = rx.bell().stats();
        assert_eq!((s.rings, s.notifies), (1, 0));
        assert_eq!(rx.space().stats().rings, 0, "a push rings no space");
        assert_eq!(rx.try_pop().unwrap(), Some(1));
        assert_eq!(rx.try_pop().unwrap(), None);
    }

    #[test]
    fn a_pop_rings_nothing_when_no_producer_is_parked() {
        let (tx, rx) = queue(2);
        tx.try_push(1).unwrap();
        assert_eq!(rx.try_pop().unwrap(), Some(1));
        assert_eq!(rx.space().stats().rings, 0, "a pop from a non-full queue");
        // A pop from a full queue rings, but with nobody parked the ring
        // is the fast path: no notify.
        tx.try_push(2).unwrap();
        tx.try_push(3).unwrap();
        assert!(matches!(tx.try_push(4), Err(Error::Exhausted(_))));
        assert_eq!(rx.try_pop().unwrap(), Some(2));
        let s = rx.space().stats();
        assert_eq!((s.rings, s.notifies), (1, 0));
        assert_eq!(rx.bell().stats().notifies, 0);
    }

    #[test]
    fn a_parked_producer_resumes_after_exactly_one_pop() {
        let (tx, rx) = queue(1);
        tx.try_push(1).unwrap();
        let producer = std::thread::spawn(move || {
            let got = tx.push_until(2, Instant::now() + LONG, open);
            (got, tx)
        });
        until_parked(rx.space(), 1);
        assert_eq!(rx.try_pop().unwrap(), Some(1));
        let (got, _tx) = producer.join().unwrap();
        assert_eq!(got, Ok(()));
        let s = rx.space().stats();
        assert_eq!((s.waits, s.wakes, s.timeouts), (1, 1, 0));
        assert_eq!(rx.try_pop().unwrap(), Some(2));
    }

    #[test]
    fn a_drain_takes_what_is_queued_and_rings_space_once_after() {
        let (tx, rx) = queue(2);
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out), 0);
        tx.try_push(1).unwrap();
        assert_eq!(rx.drain_into(&mut out), 1);
        assert_eq!(rx.space().stats().rings, 0, "the queue was not full");
        tx.try_push(2).unwrap();
        tx.try_push(3).unwrap();
        let producer = std::thread::spawn(move || {
            let got = tx.push_until(4, Instant::now() + LONG, open);
            (got, tx)
        });
        until_parked(rx.space(), 1);
        // The producer it wakes cannot push into this drain.
        assert_eq!(rx.drain_into(&mut out), 2);
        let (got, _tx) = producer.join().unwrap();
        assert_eq!(got, Ok(()));
        assert_eq!(rx.space().stats().rings, 1);
        assert_eq!(rx.drain_into(&mut out), 1);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn a_parked_producer_gives_up_at_its_deadline() {
        let (tx, rx) = queue(1);
        tx.try_push(1).unwrap();
        let t0 = Instant::now();
        let got = tx.push_until(2, t0 + Duration::from_millis(20), open);
        assert!(matches!(got, Err(Error::Exhausted(_))), "{got:?}");
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_eq!(rx.space().stats().timeouts, 1);
        assert_eq!(rx.try_pop().unwrap(), Some(1));
        assert_eq!(
            rx.try_pop().unwrap(),
            None,
            "the refused value is not queued"
        );
    }

    #[test]
    fn a_failing_gate_ends_a_parked_push_at_the_next_space_ring() {
        use std::sync::atomic::AtomicBool;
        let (tx, rx) = queue(1);
        tx.try_push(1).unwrap();
        let down = Arc::new(AtomicBool::new(false));
        let producer = {
            let down = Arc::clone(&down);
            std::thread::spawn(move || {
                tx.push_until(2, Instant::now() + LONG, || {
                    match down.load(Ordering::SeqCst) {
                        true => Err(Error::disconnected("link down")),
                        false => Ok(()),
                    }
                })
            })
        };
        until_parked(rx.space(), 1);
        down.store(true, Ordering::SeqCst);
        rx.space().ring();
        assert!(matches!(
            producer.join().unwrap(),
            Err(Error::Disconnected(_))
        ));
        assert_eq!(rx.space().stats().timeouts, 0);
    }

    #[test]
    fn dropping_every_sender_disconnects_the_queue_after_a_drain() {
        let (tx, rx) = queue(4);
        let tx2 = tx.clone();
        tx.try_push(1).unwrap();
        drop(tx);
        assert_eq!(rx.try_pop().unwrap(), Some(1));
        assert_eq!(rx.try_pop().unwrap(), None, "one sender is left");
        tx2.try_push(2).unwrap();
        drop(tx2);
        assert_eq!(
            rx.try_pop().unwrap(),
            Some(2),
            "queued values outlive senders"
        );
        assert!(matches!(rx.try_pop(), Err(Error::Disconnected(_))));
        assert!(matches!(rx.pop_until(None), Err(Error::Disconnected(_))));
    }

    #[test]
    fn the_last_sender_drop_wakes_a_parked_consumer() {
        let bell = Arc::new(Doorbell::new());
        let (tx, rx) = Queue::<u32>::bounded(1, Arc::clone(&bell));
        let consumer = std::thread::spawn(move || rx.pop_until(None).map_err(|_| ()));
        until_parked(&bell, 1);
        drop(tx);
        assert_eq!(consumer.join().unwrap(), Err(()));
    }

    #[test]
    fn dropping_the_queue_disconnects_senders_and_drops_what_it_holds() {
        let (tx, rx) = queue(2);
        let held = Arc::new(());
        tx.try_push(Arc::clone(&held)).unwrap();
        tx.try_push(Arc::clone(&held)).unwrap();
        assert_eq!(Arc::strong_count(&held), 3);
        let producer = {
            let tx = tx.clone();
            let extra = Arc::clone(&held);
            std::thread::spawn(move || tx.push_until(extra, Instant::now() + LONG, open))
        };
        until_parked(rx.space(), 1);
        drop(rx);
        assert!(matches!(
            producer.join().unwrap(),
            Err(Error::Disconnected(_))
        ));
        assert_eq!(
            Arc::strong_count(&held),
            1,
            "queued and refused values dropped"
        );
        assert!(matches!(tx.try_push(held), Err(Error::Disconnected(_))));
    }

    #[test]
    fn pop_until_times_out_and_sees_a_later_push() {
        let (tx, rx) = queue(1);
        let soon = Instant::now() + Duration::from_millis(5);
        assert_eq!(rx.pop_until(Some(soon)).unwrap(), None);
        let producer = std::thread::spawn(move || {
            tx.try_push(7).unwrap();
            tx
        });
        assert_eq!(rx.pop_until(Some(Instant::now() + LONG)).unwrap(), Some(7));
        producer.join().unwrap();
    }

    #[test]
    fn seeded_producers_at_small_capacity_keep_every_item_in_order() {
        // Four producers push through queues of capacity 1–4, each parking
        // whenever the queue is full; the consumer parks whenever it is
        // empty. Every item must arrive once, in order per producer, and
        // no park may run into its deadline (a lost wakeup).
        const PRODUCERS: u64 = 4;
        const ITEMS: u64 = 5_000;
        for cap in 1..=4 {
            let mut seed = 0x9E37_79B9_7F4A_7C15u64 ^ cap as u64;
            let (tx, rx) = queue::<(u64, u64)>(cap);
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let tx = tx.clone();
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    let mut rng = seed;
                    std::thread::spawn(move || {
                        for i in 0..ITEMS {
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            if rng % 3 == 0 && tx.try_push((p, i)).is_ok() {
                                continue;
                            }
                            tx.push_until((p, i), Instant::now() + LONG, open).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            let mut next = [0u64; PRODUCERS as usize];
            while let Some((p, i)) = rx.pop_until(Some(Instant::now() + LONG)).unwrap_or(None) {
                assert_eq!(
                    i, next[p as usize],
                    "producer {p} out of order at cap {cap}"
                );
                next[p as usize] += 1;
            }
            for p in producers {
                p.join().unwrap();
            }
            assert_eq!(next, [ITEMS; PRODUCERS as usize], "cap {cap}");
            assert!(matches!(rx.try_pop(), Err(Error::Disconnected(_))));
            assert_eq!(rx.space().stats().timeouts, 0, "cap {cap}");
            assert_eq!(rx.bell().stats().timeouts, 0, "cap {cap}");
        }
    }
}
