//! Completion queues.
//!
//! Bounded queues of [`WorkCompletion`]s, polled by the application
//! (`ibv_poll_cq` style) or waited on via a doorbell (the comp-channel
//! analog). Overflow marks the CQ errored — real hardware raises a fatal
//! async event in that case, and silently dropping completions would hide
//! protocol bugs.
//!
//! [`CompletionQueue::wait_one`] is the caller-runs wait of
//! `freeflow_types`: a CQ that produces its own completions on the waiting
//! thread — a FreeFlow library's CQ, whose relayed completions come from
//! the agent ring — installs that work as its wait step
//! ([`CompletionQueue::run_while_waiting`]), and the waiter runs it before
//! it parks on the CQ's bell and the step's bell at once. A bare CQ has no
//! step and parks on its own bell.

use crate::error::WcStatus;
use crate::wr::WorkCompletion;
use freeflow_shmem::Doorbell;
use freeflow_telemetry::{Counter, Histogram};
use freeflow_types::{block_on, deadline_in, Look};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Bells a [`WakeBatch`] deferred, each with the completions it announces.
type Deferred = Vec<(Arc<Doorbell>, u64)>;

thread_local! {
    /// This thread's open [`WakeBatch`] scopes and the rings they deferred.
    static WAKE_BATCH: RefCell<(usize, Deferred)> = const { RefCell::new((0, Vec::new())) };
}

/// A scope in which this thread's completion pushes defer their doorbell
/// ring, so a parked waiter wakes once per sweep of pushes, not once per
/// completion. A push is queued at once, so pollers see it immediately and
/// in order; only the ring waits, and each distinct bell rings once when
/// the outermost scope closes — on unwind too.
#[must_use = "the scope closes, and rings, when this is dropped"]
pub struct WakeBatch(PhantomData<*const ()>);

impl WakeBatch {
    /// Open a scope on this thread (scopes nest).
    pub fn open() -> Self {
        WAKE_BATCH.with_borrow_mut(|(depth, _)| *depth += 1);
        WakeBatch(PhantomData)
    }
}

impl Drop for WakeBatch {
    fn drop(&mut self) {
        WAKE_BATCH.with_borrow_mut(|(depth, bells)| {
            *depth -= 1;
            if *depth == 0 {
                for (bell, n) in bells.drain(..) {
                    bell.ring_coalesced(n);
                }
            }
        });
    }
}

/// Defer a ring of `bell` for `n` completions to this thread's open
/// [`WakeBatch`]; false when none is open.
fn defer_ring(bell: &Arc<Doorbell>, n: u64) -> bool {
    WAKE_BATCH.with_borrow_mut(|(depth, bells)| {
        if *depth == 0 {
            return false;
        }
        match bells.iter_mut().find(|(b, _)| Arc::ptr_eq(b, bell)) {
            Some((_, pending)) => *pending += n,
            None => bells.push((Arc::clone(bell), n)),
        }
        true
    })
}

struct CqInner {
    queue: VecDeque<WorkCompletion>,
    overflowed: bool,
    /// Whether a successful push rings the doorbell (errors always do).
    ring_successes: bool,
}

/// Telemetry handles a library installs on a CQ it creates. All counters
/// come from the cluster hub's registry, pre-registered under the owning
/// `(host, container)` labels, so the hot path touches only atomics.
#[derive(Debug)]
pub struct CqInstruments {
    /// Total completions pushed (success and error).
    pub completions: Arc<Counter>,
    /// Completions with a non-success status.
    pub completion_errors: Arc<Counter>,
    /// `wait_one` calls that parked: not those that found a completion at
    /// once or through their own wait step.
    pub wait_blocks: Arc<Counter>,
    /// Work-request latency histogram (nanoseconds).
    pub wr_latency_ns: Arc<Histogram>,
}

/// A completion queue shared by any number of QPs.
pub struct CompletionQueue {
    depth: usize,
    inner: Mutex<CqInner>,
    doorbell: Arc<Doorbell>,
    instruments: OnceLock<CqInstruments>,
    push_observer: OnceLock<PushObserver>,
    wait_step: OnceLock<WaitStep>,
}

type PushObserver = Box<dyn Fn(&WorkCompletion) + Send + Sync>;

/// Work a waiter runs itself before it parks, and the bell that announces
/// it ([`CompletionQueue::run_while_waiting`]).
struct WaitStep {
    bell: Arc<Doorbell>,
    run: Box<dyn Fn() + Send + Sync>,
}

impl CompletionQueue {
    /// Create a CQ holding at most `depth` completions.
    pub fn new(depth: usize) -> Arc<Self> {
        Self::with_doorbell(depth, Arc::default())
    }

    /// Create a CQ whose pushes ring `doorbell` — another CQ's, so one
    /// waiter parked on that bell hears both.
    pub fn with_doorbell(depth: usize, doorbell: Arc<Doorbell>) -> Arc<Self> {
        Arc::new(Self {
            depth: depth.max(1),
            inner: Mutex::new(CqInner {
                queue: VecDeque::new(),
                overflowed: false,
                ring_successes: true,
            }),
            doorbell,
            instruments: OnceLock::new(),
            push_observer: OnceLock::new(),
            wait_step: OnceLock::new(),
        })
    }

    /// Have [`CompletionQueue::wait_one`] run `step` before each park and
    /// hear `bell` as well as this CQ's own: `bell` announces the work
    /// `step` does, which may push this CQ's completions. `bell` must park
    /// with this CQ's ([`Doorbell::sharing`]). The first caller wins.
    pub fn run_while_waiting(&self, bell: Arc<Doorbell>, step: impl Fn() + Send + Sync + 'static) {
        let _ = self.wait_step.set(WaitStep {
            bell,
            run: Box::new(step),
        });
    }

    /// Install telemetry handles. The first caller wins; later calls are
    /// ignored (a CQ belongs to exactly one library).
    pub fn instrument(&self, instruments: CqInstruments) {
        let _ = self.instruments.set(instruments);
    }

    /// Install an observer that runs on the *pushing* thread for every
    /// completion, just before it becomes visible to pollers. It sees
    /// exactly the state a consumer of that completion could see, which
    /// lets tests pin "state first, completion second" orderings without
    /// racing the pusher. The first caller wins.
    pub fn observe_pushes(&self, observer: impl Fn(&WorkCompletion) + Send + Sync + 'static) {
        let _ = self.push_observer.set(Box::new(observer));
    }

    /// Record the latency of one completed work request, if instrumented.
    pub fn record_wr_latency(&self, nanos: u64) {
        if let Some(ins) = self.instruments.get() {
            ins.wr_latency_ns.record(nanos);
        }
    }

    /// Whether a successful completion rings the doorbell (default: yes).
    /// A consumer that needs to hear only errors turns it off — the
    /// `ibv_req_notify_cq(solicited_only)` analog: error completions
    /// always ring. A consumer turning it on must poll once more after.
    pub fn ring_on_success(&self, ring: bool) {
        self.inner.lock().ring_successes = ring;
    }

    /// Capacity.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether the CQ overflowed (fatal).
    pub fn is_overflowed(&self) -> bool {
        self.inner.lock().overflowed
    }

    /// Fabric side: push a completion — a batch of one. Returns `false` on
    /// overflow.
    ///
    /// Public so fabric implementations (the FreeFlow library's relayed
    /// paths) can complete work they executed on the QP's behalf.
    pub fn push(&self, wc: WorkCompletion) -> bool {
        self.push_batch(std::slice::from_ref(&wc))
    }

    /// Fabric side: push a whole batch of completions under one lock
    /// acquisition and one coalesced doorbell ring — deferred to the close
    /// of this thread's [`WakeBatch`], if one is open.
    ///
    /// Order is preserved. On overflow the prefix that fits is queued, the
    /// CQ is flagged overflowed (fatal) and `false` is returned. An empty
    /// batch is a no-op that does not ring.
    pub fn push_batch(&self, wcs: &[WorkCompletion]) -> bool {
        if wcs.is_empty() {
            return true;
        }
        if let Some(ins) = self.instruments.get() {
            ins.completions.add(wcs.len() as u64);
            let errors = wcs
                .iter()
                .filter(|wc| wc.status != WcStatus::Success)
                .count();
            if errors > 0 {
                ins.completion_errors.add(errors as u64);
            }
        }
        if let Some(observe) = self.push_observer.get() {
            wcs.iter().for_each(observe);
        }
        let (accepted, ring) = {
            let mut inner = self.inner.lock();
            let mut n = 0usize;
            for wc in wcs {
                if inner.queue.len() >= self.depth {
                    inner.overflowed = true;
                    break;
                }
                inner.queue.push_back(*wc);
                n += 1;
            }
            let ring = inner.ring_successes || wcs[..n].iter().any(|wc| !wc.status.is_ok());
            (n, ring)
        };
        if ring && !defer_ring(&self.doorbell, accepted as u64) {
            self.doorbell.ring_coalesced(accepted as u64);
        }
        accepted == wcs.len()
    }

    /// Poll up to `max` completions (non-blocking).
    pub fn poll(&self, max: usize) -> Vec<WorkCompletion> {
        let mut inner = self.inner.lock();
        let n = max.min(inner.queue.len());
        inner.queue.drain(..n).collect()
    }

    /// Drain up to `max` completions into `out` (non-blocking), returning
    /// how many were appended. Unlike [`CompletionQueue::poll`] this
    /// allocates nothing when `out` has capacity — the hot-path form of a
    /// completion drain, one lock acquisition per batch.
    pub fn poll_many(&self, max: usize, out: &mut Vec<WorkCompletion>) -> usize {
        let mut inner = self.inner.lock();
        let n = max.min(inner.queue.len());
        out.extend(inner.queue.drain(..n));
        n
    }

    /// Poll a single completion (non-blocking).
    pub fn poll_one(&self) -> Option<WorkCompletion> {
        self.inner.lock().queue.pop_front()
    }

    /// The bell every push rings: [`CompletionQueue::wait_one`] parks on
    /// it, and so does a pump that drains this CQ.
    pub fn doorbell(&self) -> &Arc<Doorbell> {
        &self.doorbell
    }

    /// Number of completions currently queued.
    pub fn pending(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Block until a completion is available or `timeout` passes, running
    /// the installed wait step, if any, before each park. A timeout too
    /// long to be an instant waits without a deadline.
    pub fn wait_one(&self, timeout: Duration) -> Option<WorkCompletion> {
        // A completion already queued needs neither the step nor a
        // registration: `ibv_poll_cq` on the caller's thread.
        if let Some(wc) = self.poll_one() {
            return Some(wc);
        }
        let step = self.wait_step.get();
        let own = &*self.doorbell;
        let both;
        let bells = match step {
            Some(step) => {
                both = [own, &*step.bell];
                &both[..]
            }
            None => std::slice::from_ref(&own),
        };
        let waited = block_on(
            bells,
            || step.iter().for_each(|step| (step.run)()),
            deadline_in(timeout),
            || self.poll_one().map_or(Look::Wait(None), Look::Ready),
        );
        // Count only waits that parked, mirroring the doorbell's own wait
        // accounting. A count, not a flight-recorder event: one event per
        // park would evict every rare one.
        if let (true, Some(ins)) = (waited.parked, self.instruments.get()) {
            ins.wait_blocks.inc();
        }
        waited.got
    }

    /// Busy-poll until a completion arrives (kernel-bypass style; burns a
    /// core — the benches show this against `wait_one`).
    pub fn spin_one(&self) -> WorkCompletion {
        loop {
            if let Some(wc) = self.poll_one() {
                return wc;
            }
            std::hint::spin_loop();
        }
    }
}

impl std::fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionQueue")
            .field("depth", &self.depth)
            .field("pending", &self.pending())
            .field("overflowed", &self.is_overflowed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WcStatus;
    use crate::wr::WcOpcode;

    fn wc(id: u64) -> WorkCompletion {
        WorkCompletion {
            wr_id: id,
            status: WcStatus::Success,
            opcode: WcOpcode::Send,
            byte_len: 0,
            imm: None,
            qp_num: 1,
        }
    }

    #[test]
    fn push_poll_fifo() {
        let cq = CompletionQueue::new(8);
        assert!(cq.push(wc(1)));
        assert!(cq.push(wc(2)));
        let got = cq.poll(10);
        assert_eq!(got.iter().map(|c| c.wr_id).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(cq.pending(), 0);
    }

    #[test]
    fn poll_respects_max() {
        let cq = CompletionQueue::new(8);
        for i in 0..5 {
            cq.push(wc(i));
        }
        assert_eq!(cq.poll(2).len(), 2);
        assert_eq!(cq.pending(), 3);
    }

    #[test]
    fn overflow_is_fatal_flagged() {
        let cq = CompletionQueue::new(2);
        assert!(cq.push(wc(1)));
        assert!(cq.push(wc(2)));
        assert!(!cq.push(wc(3)), "third push overflows depth-2 CQ");
        assert!(cq.is_overflowed());
        // Existing completions still pollable.
        assert_eq!(cq.poll(10).len(), 2);
    }

    #[test]
    fn wait_one_times_out_and_succeeds() {
        let cq = CompletionQueue::new(4);
        assert!(cq.wait_one(Duration::from_millis(5)).is_none());
        let cq2 = Arc::clone(&cq);
        let t = std::thread::spawn(move || {
            cq2.push(wc(9));
        });
        let got = cq.wait_one(Duration::from_secs(5)).unwrap();
        assert_eq!(got.wr_id, 9);
        t.join().unwrap();
    }

    #[test]
    fn wait_one_given_duration_max_waits_without_a_deadline() {
        let cq = CompletionQueue::new(4);
        cq.push(wc(1));
        assert_eq!(cq.wait_one(Duration::MAX).unwrap().wr_id, 1);
        let cq2 = Arc::clone(&cq);
        let t = std::thread::spawn(move || cq2.push(wc(2)));
        assert_eq!(cq.wait_one(Duration::MAX).unwrap().wr_id, 2);
        t.join().unwrap();
    }

    #[test]
    fn instrumented_cq_counts_completions_and_waits() {
        use freeflow_telemetry::{LabelSet, Telemetry};

        let hub = Telemetry::new();
        let labels = LabelSet::host(3).with_container(1);
        let cq = CompletionQueue::new(4);
        cq.instrument(CqInstruments {
            completions: hub
                .registry()
                .counter("ff_cq_completions_total", "completions", labels),
            completion_errors: hub.registry().counter(
                "ff_cq_completion_errors_total",
                "errored completions",
                labels,
            ),
            wait_blocks: hub
                .registry()
                .counter("ff_cq_wait_blocks_total", "blocked waits", labels),
            wr_latency_ns: hub
                .registry()
                .histogram("ff_wr_latency_ns", "WR latency", labels),
        });

        cq.push(wc(1));
        let mut err = wc(2);
        err.status = WcStatus::RetryExcError;
        cq.push(err);
        cq.record_wr_latency(1500);
        // Waits that find work ready must not count as blocked...
        assert!(cq.wait_one(Duration::from_secs(1)).is_some());
        assert!(cq.wait_one(Duration::from_secs(1)).is_some());
        // ...but an empty-queue wait must.
        assert!(cq.wait_one(Duration::from_millis(5)).is_none());

        let snap = hub.snapshot();
        assert_eq!(
            snap.counter_value("ff_cq_completions_total", labels),
            Some(2)
        );
        assert_eq!(
            snap.counter_value("ff_cq_completion_errors_total", labels),
            Some(1)
        );
        assert_eq!(
            snap.counter_value("ff_cq_wait_blocks_total", labels),
            Some(1)
        );
        let h = snap.histogram("ff_wr_latency_ns", labels).unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max, 1500);
        assert!(
            snap.events.is_empty(),
            "a blocked wait is counted, not logged: {:?}",
            snap.events
        );
    }

    /// Park a thread in `wait_one` on `cq` and return it once its park has
    /// registered on the bell.
    fn parked_waiter(
        cq: &Arc<CompletionQueue>,
    ) -> std::thread::JoinHandle<(Option<WorkCompletion>, usize)> {
        let waits = cq.doorbell().stats().waits;
        let cq2 = Arc::clone(cq);
        let waiter = std::thread::spawn(move || {
            let first = cq2.wait_one(Duration::from_secs(10));
            let mut rest = Vec::new();
            (first, cq2.poll_many(64, &mut rest))
        });
        while cq.doorbell().stats().waits == waits {
            std::thread::yield_now();
        }
        waiter
    }

    #[test]
    fn wake_batch_rings_each_bell_once_when_it_closes() {
        let bell = Arc::new(Doorbell::new());
        let (a, b) = (
            CompletionQueue::with_doorbell(64, Arc::clone(&bell)),
            CompletionQueue::with_doorbell(64, Arc::clone(&bell)),
        );
        let own = CompletionQueue::new(64);
        {
            let _sweep = WakeBatch::open();
            for i in 0..10 {
                a.push(wc(i));
                b.push(wc(100 + i));
                own.push_batch(&[wc(200 + i), wc(300 + i)]);
            }
            assert_eq!(
                a.pending() + b.pending() + own.pending(),
                40,
                "queued at once"
            );
            assert_eq!((bell.current(), own.doorbell().current()), (0, 0));
            let _nested = WakeBatch::open();
        }
        let (shared, own) = (bell.stats(), own.doorbell().stats());
        assert_eq!(
            (shared.rings, shared.coalesced),
            (1, 19),
            "one ring, two CQs"
        );
        assert_eq!((own.rings, own.coalesced), (1, 19));
        // Outside a scope every push rings as before.
        a.push(wc(1));
        a.push_batch(&[wc(2), wc(3)]);
        assert_eq!(bell.current(), 3);
    }

    #[test]
    fn wake_batch_wakes_a_parked_waiter_once_for_the_whole_sweep() {
        let cq = CompletionQueue::new(64);
        let waiter = parked_waiter(&cq);
        {
            let _sweep = WakeBatch::open();
            for i in 0..32 {
                cq.push(wc(i));
            }
        }
        let (first, rest) = waiter.join().unwrap();
        assert_eq!(first.map(|c| c.wr_id), Some(0));
        assert_eq!(rest, 31, "the waiter drains the whole sweep");
        let s = cq.doorbell().stats();
        assert_eq!((s.rings, s.notifies), (1, 1), "one futex wake: {s:?}");
    }

    #[test]
    fn wake_batch_still_rings_for_an_error_among_quiet_successes() {
        let cq = CompletionQueue::new(8);
        cq.ring_on_success(false);
        let waiter = parked_waiter(&cq);
        {
            let _sweep = WakeBatch::open();
            cq.push(wc(1));
            cq.push(WorkCompletion {
                status: WcStatus::RetryExcError,
                ..wc(2)
            });
            assert_eq!(cq.doorbell().current(), 0);
        }
        let (first, rest) = waiter.join().unwrap();
        assert_eq!((first.map(|c| c.wr_id), rest), (Some(1), 1));
        assert_eq!(cq.doorbell().stats().rings, 1);
    }

    #[test]
    fn wake_batch_rings_on_unwind() {
        let cq = CompletionQueue::new(8);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _sweep = WakeBatch::open();
            cq.push(wc(1));
            panic!("dispatch failed mid-sweep");
        }));
        assert!(panicked.is_err());
        assert_eq!(cq.doorbell().current(), 1, "the unwound scope rang");
        cq.push(wc(2));
        assert_eq!(cq.doorbell().current(), 2, "and closed: pushes ring again");
    }

    #[test]
    fn push_batch_preserves_order_and_coalesces_the_doorbell() {
        let cq = CompletionQueue::new(16);
        let batch: Vec<WorkCompletion> = (0..5).map(wc).collect();
        assert!(cq.push_batch(&batch));
        // One wakeup for the whole batch: a waiter sees all five.
        let mut out = Vec::new();
        assert_eq!(cq.poll_many(3, &mut out), 3);
        assert_eq!(cq.poll_many(10, &mut out), 2);
        assert_eq!(
            out.iter().map(|c| c.wr_id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(cq.pending(), 0);
        assert!(cq.push_batch(&[]), "empty batch is a no-op");
    }

    #[test]
    fn quiet_successes_still_ring_on_errors() {
        let cq = CompletionQueue::new(8);
        let rings = || cq.doorbell().stats().rings;
        cq.ring_on_success(false);
        cq.push(wc(1));
        cq.push_batch(&[wc(2), wc(3)]);
        assert_eq!(rings(), 0, "routine successes wake no one");
        let failed = WorkCompletion {
            status: WcStatus::RetryExcError,
            ..wc(4)
        };
        cq.push_batch(&[wc(4), failed]);
        assert_eq!(rings(), 1, "a batch holding an error rings");
        cq.ring_on_success(true);
        cq.push(wc(6));
        assert_eq!(rings(), 2);
        assert_eq!(cq.pending(), 6, "nothing is dropped either way");
    }

    #[test]
    fn push_batch_overflow_keeps_prefix_and_flags_fatal() {
        let cq = CompletionQueue::new(3);
        let batch: Vec<WorkCompletion> = (0..5).map(wc).collect();
        assert!(!cq.push_batch(&batch), "batch exceeds depth-3 CQ");
        assert!(cq.is_overflowed());
        let mut out = Vec::new();
        assert_eq!(cq.poll_many(10, &mut out), 3);
        assert_eq!(
            out.iter().map(|c| c.wr_id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn batched_wait_wakes_once_for_many_completions() {
        let cq = CompletionQueue::new(64);
        let cq2 = Arc::clone(&cq);
        let t = std::thread::spawn(move || {
            cq2.push_batch(&(0..32).map(wc).collect::<Vec<_>>());
        });
        // The single coalesced ring must wake the waiter; the rest of the
        // batch is drained without further sleeps.
        assert!(cq.wait_one(Duration::from_secs(5)).is_some());
        t.join().unwrap();
        let mut out = Vec::new();
        assert_eq!(cq.poll_many(64, &mut out), 31);
    }

    #[test]
    fn spin_one_gets_completion() {
        let cq = CompletionQueue::new(4);
        let cq2 = Arc::clone(&cq);
        let t = std::thread::spawn(move || cq2.push(wc(5)));
        assert_eq!(cq.spin_one().wr_id, 5);
        t.join().unwrap();
    }
}
