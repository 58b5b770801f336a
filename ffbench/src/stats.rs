//! Order statistics and the time-sliced estimators every phase reports.
//!
//! A phase is cut into fixed-length slices and the reported value is the
//! undisturbed decile over slices ([`undisturbed`]): a descheduling burst
//! on a shared 2-core box spoils a few slices, not the run.

use std::time::{Duration, Instant};

/// Median of `v` (mean of the middle two for an even count). Sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending sample, `q` in `[0, 1]`.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A median that is not quantised to the clock's tick: the mean of the
/// samples between the 40th and the 60th percentile of an ascending
/// sample. A nearest-rank median of nanosecond readings takes only whole
/// values and can read the same on every run; this moves smoothly and is
/// as robust to the tails.
pub fn mid_mean(sorted: &[u32]) -> f64 {
    assert!(!sorted.is_empty(), "mid-mean of an empty sample");
    let lo = sorted.len() * 2 / 5;
    let hi = (sorted.len() * 3 / 5).max(lo + 1);
    let band = &sorted[lo..hi];
    band.iter().map(|&v| v as f64).sum::<f64>() / band.len() as f64
}

/// The 99th percentile of an ascending sample, only where at least ten
/// samples lie beyond it (1000 samples or more).
pub fn p99<T: Copy>(sorted: &[T]) -> Option<T> {
    (sorted.len() >= 1000).then(|| quantile_sorted(sorted, 0.99))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the spread rule the acceptance check
/// applies. Needs at least two values.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(v.len() >= 2, "quartiles need two values");
    let mut s = v.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    let m = s.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median; 0 for fewer
/// than two values or a zero median.
pub fn iqr_share(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    let med = median(&mut v.to_vec());
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Coefficient of variation (population standard deviation over mean).
pub fn cov(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
    var.sqrt() / mean
}

/// Latency samples kept verbatim per phase. A depth-1 shared-memory WRITE
/// completes over a million times a second; keeping them all would make
/// the harness, not the stack, the process's peak memory.
pub const KEPT_SAMPLES: usize = 200_000;

/// What one timed phase measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Operations per second, one entry per closed slice.
    pub slice_rates: Vec<f64>,
    /// Median latency ([`mid_mean`]) per closed slice, nanoseconds
    /// (latency phases only).
    pub slice_lat_medians: Vec<f64>,
    /// The first [`KEPT_SAMPLES`] measured latency samples, nanoseconds, in
    /// arrival order (the tail diagnostic; the headline needs only slices).
    pub lat_samples: Vec<u32>,
    /// Measured latency samples taken, kept or not.
    pub lat_count: u64,
    /// CPU time of all the process's threads from the end of warm-up to
    /// the end of the phase, over the operations completed in that window,
    /// in microseconds; one entry per round.
    pub round_cpu_us_per_op: Vec<f64>,
    /// Every operation of the phase, warm-up included — the divisor for
    /// counter deltas taken around the whole phase.
    pub all_ops: u64,
}

/// The decile of `values` least disturbed: the 10th percentile when lower
/// is better, the 90th when higher is.
///
/// Interference on a shared machine is one-sided — a neighbour, an
/// interrupt or a descheduled pump only ever slows a slice down — so the
/// best decile repeats from run to run where the median follows how busy
/// the neighbours were (measured in `README.md`). A decile of 40 to 120
/// slices still rests on several slices, not on one lucky one.
pub fn undisturbed(values: &[f64], lower_is_better: bool) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    quantile_sorted(&sorted, if lower_is_better { 0.1 } else { 0.9 })
}

impl PhaseStats {
    /// Operations per second: the undisturbed decile of the slice rates.
    pub fn rate(&self) -> f64 {
        undisturbed(&self.slice_rates, false)
    }

    /// Median operation latency in nanoseconds: the undisturbed decile of
    /// the per-slice medians.
    pub fn lat_p50_ns(&self) -> f64 {
        undisturbed(&self.slice_lat_medians, true)
    }

    /// Process CPU microseconds per operation: the median of the
    /// per-round values (ten of them: too few for a decile).
    pub fn cpu_us_per_op(&self) -> f64 {
        median(&mut self.round_cpu_us_per_op.clone())
    }

    /// Fold in another stretch of the same phase (a later round).
    pub fn absorb(&mut self, other: PhaseStats) {
        self.slice_rates.extend(other.slice_rates);
        self.slice_lat_medians.extend(other.slice_lat_medians);
        let room = KEPT_SAMPLES.saturating_sub(self.lat_samples.len());
        self.lat_samples
            .extend(other.lat_samples.into_iter().take(room));
        self.lat_count += other.lat_count;
        self.round_cpu_us_per_op.extend(other.round_cpu_us_per_op);
        self.all_ops += other.all_ops;
    }
}

/// CPU time the process's live threads have run so far, in seconds.
///
/// Summed from `/proc/self/task/*/schedstat`, which the scheduler keeps to
/// the nanosecond at every context switch. `utime`/`stime` would not do:
/// this kernel charges them by sampling at the 250 Hz tick, and pump
/// threads that run for microseconds every 100 µs are sampled so unevenly
/// that `cpu_us_per_op` swung by a quarter between identical runs. Zero
/// where the files are not readable.
pub fn process_cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let ns: u64 = tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// How long a phase's warm-up and slices are: by the clock, or by count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extent {
    /// This much time.
    Time(Duration),
    /// This many operations.
    Ops(u64),
}

impl Extent {
    fn reached(self, ns: u64, ops: u64) -> bool {
        match self {
            Extent::Time(d) => ns >= d.as_nanos() as u64,
            Extent::Ops(n) => ops >= n,
        }
    }
}

/// Cuts a running phase into a discarded warm-up and `slices` measured
/// slices, and ends it when the last one closes. The caller reads the
/// clock once per operation (or batch) and passes it in, so slicing adds
/// no clock reads.
pub struct Slicer {
    origin: Instant,
    warmup: Extent,
    slice: Extent,
    slices: usize,
    measuring: bool,
    cpu_start_s: f64,
    /// Operations since the warm-up ended, trailing partial slice included.
    window_ops: u64,
    slice_start_ns: u64,
    slice_ops: u64,
    slice_lat: Vec<u32>,
    stats: PhaseStats,
}

impl Slicer {
    /// Start a phase: `warmup` unrecorded, then `slices` slices of `slice`.
    pub fn start(warmup: Extent, slice: Extent, slices: usize) -> Self {
        Self {
            origin: Instant::now(),
            warmup,
            slice,
            slices: slices.max(1),
            measuring: false,
            cpu_start_s: 0.0,
            window_ops: 0,
            slice_start_ns: 0,
            slice_ops: 0,
            slice_lat: Vec::new(),
            stats: PhaseStats::default(),
        }
    }

    /// Nanoseconds since the phase started.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Whether slices remain to be filled.
    pub fn running(&self) -> bool {
        self.stats.slice_rates.len() < self.slices
    }

    /// Account `n` operations completed at `now_ns`.
    pub fn record_ops(&mut self, n: u64, now_ns: u64) {
        self.stats.all_ops += n;
        if !self.measuring {
            // The operation that ends the warm-up is dropped; slices and
            // the CPU window start at its completion.
            if self.warmup.reached(now_ns, self.stats.all_ops) {
                self.measuring = true;
                self.slice_start_ns = now_ns;
                self.cpu_start_s = process_cpu_s();
            }
            return;
        }
        self.slice_ops += n;
        self.window_ops += n;
        if self
            .slice
            .reached(now_ns - self.slice_start_ns, self.slice_ops)
        {
            self.close_slice(now_ns);
        }
    }

    /// Account one operation that took `lat_ns` and completed at `now_ns`.
    pub fn record_lat(&mut self, lat_ns: u64, now_ns: u64) {
        if self.measuring {
            self.slice_lat.push(lat_ns.min(u32::MAX as u64) as u32);
        }
        self.record_ops(1, now_ns);
    }

    fn close_slice(&mut self, now_ns: u64) {
        let secs = (now_ns - self.slice_start_ns).max(1) as f64 / 1e9;
        self.stats.slice_rates.push(self.slice_ops as f64 / secs);
        if !self.slice_lat.is_empty() {
            self.slice_lat.sort_unstable();
            self.stats.slice_lat_medians.push(mid_mean(&self.slice_lat));
            self.stats.lat_count += self.slice_lat.len() as u64;
            let room = KEPT_SAMPLES.saturating_sub(self.stats.lat_samples.len());
            self.stats
                .lat_samples
                .extend(self.slice_lat.iter().take(room));
            self.slice_lat.clear();
        }
        self.slice_start_ns = now_ns;
        self.slice_ops = 0;
    }

    /// End the phase. Operations since the last slice closed (the drain
    /// of a window) belong to no slice.
    pub fn finish(mut self) -> PhaseStats {
        let cpu_us = (process_cpu_s() - self.cpu_start_s) * 1e6;
        self.stats
            .round_cpu_us_per_op
            .push(cpu_us / self.window_ops.max(1) as f64);
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank_quantiles() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 50);
        assert_eq!(quantile_sorted(&s, 0.99), 99);
        assert_eq!(quantile_sorted(&s, 1.0), 100);
        assert_eq!(quantile_sorted(&s, 0.0), 1);
    }

    #[test]
    fn mid_mean_is_a_smooth_median() {
        assert_eq!(mid_mean(&[7]), 7.0);
        assert_eq!(mid_mean(&[1, 2, 3, 4, 1000]), 3.0);
        // 40th..60th percentile of 1..=10 is {5, 6}.
        let s: Vec<u32> = (1..=10).collect();
        assert_eq!(mid_mean(&s), 5.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let s: Vec<u32> = (0..999).collect();
        assert!(p99(&s).is_none());
        let s: Vec<u32> = (0..1000).collect();
        assert_eq!(p99(&s), Some(989));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }

    #[test]
    fn cov_of_a_constant_is_zero() {
        assert_eq!(cov(&[2.0, 2.0, 2.0]), 0.0);
        assert!((cov(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn undisturbed_decile_ignores_the_slow_tail() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(undisturbed(&v, true), 2.0);
        assert_eq!(undisturbed(&v, false), 18.0);
        // A neighbour that slows a third of the slices tenfold moves
        // neither decile's good end.
        for x in v.iter_mut().skip(13) {
            *x *= 10.0;
        }
        assert_eq!(undisturbed(&v, true), 2.0);
    }

    #[test]
    fn slicer_drops_warmup_and_slices_by_the_clock() {
        // Hand-driven clock: 1 µs slices. Three ordinary slices and one
        // ten times slower; the outlier must not move the headline.
        // The first microsecond is warm-up and its samples are dropped.
        let us = Duration::from_micros;
        let mut s = Slicer::start(Extent::Time(us(1)), Extent::Time(us(1)), 4);
        s.record_lat(9999, 500);
        s.record_lat(9999, 1000);
        let mut now = 1000;
        for (ops_per_slice, lat) in [(10u64, 100u64), (10, 100), (1, 1000), (10, 100)] {
            assert!(s.running());
            for _ in 0..ops_per_slice {
                now += 1000 / ops_per_slice;
                s.record_lat(lat, now);
            }
        }
        assert!(!s.running());
        let mut done = s.finish();
        assert_eq!(done.slice_rates.len(), 4);
        assert_eq!(done.all_ops, 33);
        assert!((done.rate() - 1e7).abs() < 1.0, "{done:?}");
        assert_eq!(done.lat_p50_ns(), 100.0);
        assert_eq!(done.round_cpu_us_per_op.len(), 1);
        assert_eq!((done.lat_samples.len(), done.lat_count), (31, 31));
        assert_eq!(done.lat_samples.iter().max(), Some(&1000));
        done.absorb(done.clone());
        assert_eq!(
            (done.all_ops, done.slice_rates.len(), done.lat_count),
            (66, 8, 62)
        );
    }

    #[test]
    fn counted_phase_slices_by_operations() {
        // Two warm-up operations, then two slices of three.
        let mut s = Slicer::start(Extent::Ops(2), Extent::Ops(3), 2);
        let mut now = 0;
        for lat in [900, 900, 10, 20, 30, 40, 50, 60] {
            assert!(s.running());
            now += 100;
            s.record_lat(lat, now);
        }
        assert!(!s.running());
        let done = s.finish();
        assert_eq!(done.slice_lat_medians, vec![20.0, 50.0]);
        assert_eq!(done.all_ops, 8);
        assert!((done.slice_rates[0] - 1e7).abs() < 1.0);
    }
}
