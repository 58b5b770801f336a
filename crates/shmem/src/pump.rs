//! The one event loop: a thread that runs a step function and parks on a
//! [`Doorbell`] between steps. The agent, each library and each socket
//! channel are step functions on it, so the no-lost-wakeup rule — capture
//! the bell count *before* the step, park on that count — and the
//! shutdown path exist once.

use crate::doorbell::Doorbell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ceiling on one park: every source of work rings and every timer is a
/// step's deadline, so this only bounds a producer that forgot to ring.
const PARK_CAP: Duration = Duration::from_secs(1);

/// What one call of a pump's step function found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Moved work: step again at once.
    Worked,
    /// Nothing to do: park until a ring or the deadline, if any.
    Idle(Option<Instant>),
    /// Finished for good: the thread exits.
    Done,
}

/// A running pump thread. Dropping it sets the stop flag, rings the bell
/// and joins the thread — unless the drop runs on the pump thread itself
/// (a step may hold the last reference to whatever owns its pump).
pub struct Pump {
    stop: Arc<AtomicBool>,
    bell: Arc<Doorbell>,
    thread: Option<JoinHandle<()>>,
}

impl Pump {
    /// Spawn thread `name` running `step` until [`Step::Done`] or drop. An
    /// idle step within `poll_window` of the last [`Step::Worked`] yields
    /// and steps again (a live exchange needs no futex wake); otherwise
    /// the thread parks on `bell` until a ring or the step's deadline.
    pub fn spawn(
        name: String,
        bell: Arc<Doorbell>,
        poll_window: Duration,
        mut step: impl FnMut() -> Step + Send + 'static,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let (flag, ring) = (Arc::clone(&stop), Arc::clone(&bell));
        let thread = std::thread::Builder::new().name(name).spawn(move || {
            let mut last_work = Instant::now();
            loop {
                let seen = ring.current();
                // Relaxed suffices: the stop is published by the ring that
                // follows it, and `current()` acquires that ring.
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                let deadline = match step() {
                    Step::Worked => {
                        last_work = Instant::now();
                        continue;
                    }
                    Step::Done => return,
                    Step::Idle(deadline) => deadline,
                };
                let now = Instant::now();
                if now.duration_since(last_work) < poll_window {
                    std::thread::yield_now();
                } else {
                    let park = deadline.map_or(PARK_CAP, |at| at.saturating_duration_since(now));
                    let _ = ring.wait_timeout(seen, park.min(PARK_CAP));
                }
            }
        });
        Self {
            stop,
            bell,
            thread: Some(thread.expect("spawn pump thread")),
        }
    }

    /// The bell this pump parks on.
    pub fn bell(&self) -> &Arc<Doorbell> {
        &self.bell
    }
}

impl Drop for Pump {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.bell.ring();
        if let Some(thread) = self.thread.take() {
            // Joining ourselves would deadlock; the loop sees the stop
            // flag as soon as the current step returns.
            if thread.thread().id() != std::thread::current().id() {
                let _ = thread.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{channel_pair_on, ShmMessage};
    use std::sync::mpsc;

    #[test]
    fn ring_between_capture_and_park_is_never_lost() {
        // Four producers on four rings ring one bell; the pump drains all
        // four and parks when it finds nothing. A push landing after the
        // capture but before the park must end that park at once, so no
        // park may ever run into its (1 s) cap.
        const PRODUCERS: usize = 4;
        const MSGS: u32 = 10_000;
        let bell = Arc::new(Doorbell::new());
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..PRODUCERS)
            .map(|_| channel_pair_on(4096, Arc::clone(&bell)))
            .unzip();
        let (done_tx, done_rx) = mpsc::channel();
        let mut next = [0u32; PRODUCERS];
        let pump = Pump::spawn(
            "drain".into(),
            Arc::clone(&bell),
            Duration::ZERO,
            move || {
                let mut found = false;
                for (rx, next) in rxs.iter().zip(&mut next) {
                    while let Ok(ShmMessage::Inline(b)) = rx.try_recv() {
                        assert_eq!(u32::from_le_bytes(b[..].try_into().unwrap()), *next);
                        *next += 1;
                        found = true;
                    }
                }
                if next.iter().all(|&n| n == MSGS) {
                    done_tx.send(()).unwrap();
                    Step::Done
                } else if found {
                    Step::Worked
                } else {
                    Step::Idle(None)
                }
            },
        );
        let producers: Vec<_> = txs
            .into_iter()
            .map(|tx| {
                std::thread::spawn(move || {
                    for i in 0..MSGS {
                        tx.send(&i.to_le_bytes()).unwrap();
                    }
                    tx
                })
            })
            .collect();
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("pump drained every ring");
        // Senders stay alive until here so their drop-rings cannot stand
        // in for a lost data ring.
        let _txs: Vec<_> = producers.into_iter().map(|p| p.join().unwrap()).collect();
        drop(pump);
        let stats = bell.stats();
        assert_eq!(stats.timeouts, 0, "a wakeup was lost: {stats:?}");
        assert_eq!(stats.waits, stats.wakes);
    }

    #[test]
    fn idle_deadline_with_nobody_ringing_wakes_once_at_the_deadline() {
        let bell = Arc::new(Doorbell::new());
        let (done_tx, done_rx) = mpsc::channel();
        let due = Instant::now() + Duration::from_millis(20);
        let mut calls = 0;
        let pump = Pump::spawn(
            "deadline".into(),
            Arc::clone(&bell),
            Duration::ZERO,
            move || {
                calls += 1;
                if calls == 1 {
                    return Step::Idle(Some(due));
                }
                done_tx.send(Instant::now()).unwrap();
                Step::Done
            },
        );
        let woke = done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(woke >= due, "woke {:?} early", due - woke);
        let s = pump.bell().stats();
        assert_eq!((s.waits, s.wakes, s.timeouts), (1, 0, 1));
    }

    #[test]
    fn dropping_a_parked_pump_ends_in_a_wake_not_a_timeout() {
        let bell = Arc::new(Doorbell::new());
        let pump = Pump::spawn("parked".into(), Arc::clone(&bell), Duration::ZERO, || {
            Step::Idle(None)
        });
        while bell.stats().waits == 0 {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        drop(pump); // joins
        assert!(t0.elapsed() < PARK_CAP, "drop waited out the park cap");
        let s = bell.stats();
        assert_eq!((s.waits, s.wakes, s.timeouts), (1, 1, 0));
    }

    #[test]
    fn dropping_the_pump_from_inside_its_step_does_not_deadlock() {
        let bell = Arc::new(Doorbell::new());
        let slot: Arc<parking_lot::Mutex<Option<Pump>>> = Arc::default();
        let (done_tx, done_rx) = mpsc::channel();
        let pump = {
            let slot = Arc::clone(&slot);
            Pump::spawn(
                "self-drop".into(),
                Arc::clone(&bell),
                Duration::ZERO,
                move || {
                    // The step holds the last owner of its own pump.
                    if let Some(own) = slot.lock().take() {
                        drop(own);
                        done_tx.send(()).unwrap();
                    }
                    Step::Idle(None)
                },
            )
        };
        *slot.lock() = Some(pump);
        bell.ring(); // let the step see the pump in its slot
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("self-drop returned");
    }
}
