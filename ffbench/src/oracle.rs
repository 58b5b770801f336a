//! The correctness oracle: seeded payloads, sequence stamps, one ledger of
//! attempted / failed operations, and a watchdog that turns a hang into a
//! recorded failure and a non-zero exit.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Deadline of every blocking wait the harness makes.
pub const OP_DEADLINE: Duration = Duration::from_secs(5);
/// One buffer in this many is compared in full (all carry a checked
/// sequence number).
pub const FULL_COMPARE_EVERY: u64 = 64;
/// Sequence stamp that ends a socket session.
pub const SEQ_END: u64 = u64::MAX;

/// xorshift64*: the only randomness in the benchmark, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` (any value; 0 is remapped).
    pub fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// `len` seeded bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// Write `seq` into the first eight bytes of `buf`.
pub fn stamp(buf: &mut [u8], seq: u64) {
    buf[..8].copy_from_slice(&seq.to_le_bytes());
}

/// The sequence number in the first eight bytes of `buf`.
pub fn stamped(buf: &[u8]) -> u64 {
    u64::from_le_bytes(buf[..8].try_into().expect("eight bytes"))
}

/// Whether operation `seq` is one of those compared in full.
pub fn full_compare(seq: u64) -> bool {
    seq % FULL_COMPARE_EVERY == 0
}

/// Check a received buffer: its stamp must be `seq`, and when `seq` is a
/// full-compare operation the rest must equal `pattern`.
pub fn check(got: &[u8], seq: u64, pattern: &[u8]) -> Result<(), String> {
    let have = stamped(got);
    if have != seq {
        return Err(format!("sequence mismatch: expected {seq}, got {have}"));
    }
    if full_compare(seq) && got[8..] != pattern[8..got.len()] {
        return Err(format!("payload mismatch in operation {seq}"));
    }
    Ok(())
}

/// The one ledger `attempted` / `failed` / `correct` come from. Threads
/// count operations locally and add them in at phase boundaries; the
/// first failure ends the workload, so `failed` is 0 on every run that
/// prints a result.
#[derive(Debug, Default)]
pub struct Ledger {
    attempted: AtomicU64,
    failed: AtomicU64,
    first_error: Mutex<Option<String>>,
    /// Per-thread progress counters the watchdog sums.
    progress: [AtomicU64; 2],
    armed: AtomicBool,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Add `n` operations a thread started.
    pub fn add_attempted(&self, n: u64) {
        self.attempted.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a failed operation and keep the first reason.
    pub fn fail(&self, why: String) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        self.first_error
            .lock()
            .expect("ledger mutex poisoned")
            .get_or_insert(why);
    }

    /// Operations started so far.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Operations failed so far.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// The first failure's reason, if any operation failed.
    pub fn first_error(&self) -> Option<String> {
        self.first_error
            .lock()
            .expect("ledger mutex poisoned")
            .clone()
    }

    /// Note progress of harness thread `who` (0 = client, 1 = peer).
    #[inline]
    pub fn tick(&self, who: usize) {
        self.progress[who].fetch_add(1, Ordering::Relaxed);
    }

    /// Arm or disarm the watchdog (armed only while phases run).
    pub fn arm(&self, on: bool) {
        self.tick(0);
        self.armed.store(on, Ordering::SeqCst);
    }

    fn progress(&self) -> u64 {
        self.progress
            .iter()
            .map(|p| p.load(Ordering::Relaxed))
            .sum()
    }
}

/// A thread that ends the process with exit code 3 when no harness thread
/// made progress for [`OP_DEADLINE`] while the ledger was armed. The
/// stack's own blocking calls have deadlines of up to 30 s or none; this
/// bounds them all.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Start watching `ledger`.
    pub fn spawn(ledger: Arc<Ledger>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("ffbench-watchdog".into())
            .spawn(move || {
                let mut last = (ledger.progress(), Instant::now());
                while !flag.load(Ordering::SeqCst) {
                    std::thread::park_timeout(Duration::from_millis(250));
                    let now = ledger.progress();
                    if now != last.0 || !ledger.armed.load(Ordering::SeqCst) {
                        last = (now, Instant::now());
                    } else if last.1.elapsed() >= OP_DEADLINE {
                        let why = ledger
                            .first_error()
                            .unwrap_or_else(|| "no recorded failure".into());
                        eprintln!(
                            "ffbench: no operation completed for {OP_DEADLINE:?} \
                             (attempted {}, failed {}): {why}",
                            ledger.attempted(),
                            ledger.failed() + 1
                        );
                        std::process::exit(3);
                    }
                }
            })
            .expect("spawn watchdog");
        Self {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_seeds_differ() {
        assert_eq!(Rng::new(7).bytes(100), Rng::new(7).bytes(100));
        assert_ne!(Rng::new(7).bytes(100), Rng::new(8).bytes(100));
        assert_eq!(Rng::new(0).bytes(13).len(), 13);
    }

    #[test]
    fn check_catches_wrong_sequence_and_wrong_payload() {
        let pattern = Rng::new(1).bytes(64);
        let mut msg = pattern.clone();
        stamp(&mut msg, 64);
        assert!(check(&msg, 64, &pattern).is_ok());
        assert!(check(&msg, 65, &pattern).unwrap_err().contains("sequence"));
        msg[40] ^= 1;
        assert!(check(&msg, 64, &pattern).unwrap_err().contains("payload"));
        // Not a full-compare operation: only the stamp is checked.
        stamp(&mut msg, 65);
        assert!(check(&msg, 65, &pattern).is_ok());
    }

    #[test]
    fn ledger_counts_and_keeps_the_first_error() {
        let l = Ledger::new();
        l.add_attempted(10);
        l.fail("first".into());
        l.fail("second".into());
        assert_eq!((l.attempted(), l.failed()), (10, 2));
        assert_eq!(l.first_error().as_deref(), Some("first"));
    }
}
