//! Bandwidth, byte-size and time units.
//!
//! The simulator, the cost models and the benchmark harness all juggle
//! quantities in different customary units (Gb/s for NICs, GB/s for memory
//! buses, ns for event timestamps, µs/ms for reported latencies). These
//! newtypes keep the arithmetic honest and the conversions in one place.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration or timestamp in nanoseconds of *virtual* time.
///
/// The discrete-event simulator advances a virtual clock measured in these.
/// `u64` nanoseconds cover ~584 years of simulated time, plenty for any
/// experiment.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Zero duration / the epoch.
    pub const ZERO: Self = Self(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Self(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to nearest ns).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid duration {s}");
        Self((s * 1e9).round() as u64)
    }

    /// Value in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Self) -> Option<Self> {
        self.0.checked_add(rhs.0).map(Self)
    }

    /// The larger of two durations.
    pub fn max(self, rhs: Self) -> Self {
        Self(self.0.max(rhs.0))
    }

    /// The smaller of two durations.
    pub fn min(self, rhs: Self) -> Self {
        Self(self.0.min(rhs.0))
    }
}

impl Add for Nanos {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Self;
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Self;
    fn div(self, rhs: u64) -> Self {
        Self(self.0 / rhs)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A byte count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: Self = Self(0);

    /// Construct from bytes.
    pub const fn from_bytes(b: u64) -> Self {
        Self(b)
    }

    /// Construct from binary kibibytes.
    pub const fn from_kib(k: u64) -> Self {
        Self(k * 1024)
    }

    /// Construct from binary mebibytes.
    pub const fn from_mib(m: u64) -> Self {
        Self(m * 1024 * 1024)
    }

    /// Construct from binary gibibytes.
    pub const fn from_gib(g: u64) -> Self {
        Self(g * 1024 * 1024 * 1024)
    }

    /// Value in bytes.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Value in fractional MiB.
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }
}

impl Add for ByteSize {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KIB: u64 = 1024;
        const MIB: u64 = 1024 * KIB;
        const GIB: u64 = 1024 * MIB;
        if self.0 >= GIB {
            write!(f, "{:.2}GiB", self.0 as f64 / GIB as f64)
        } else if self.0 >= MIB {
            write!(f, "{:.2}MiB", self.0 as f64 / MIB as f64)
        } else if self.0 >= KIB {
            write!(f, "{:.2}KiB", self.0 as f64 / KIB as f64)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// A data rate in bits per second.
///
/// NIC line rates are quoted in Gb/s (decimal), memory buses in GB/s;
/// constructors for both exist and everything is stored as bits/s.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// Zero bandwidth (a dead link).
    pub const ZERO: Self = Self(0);

    /// Construct from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Self(bps)
    }

    /// Construct from decimal gigabits per second (how NICs are marketed:
    /// a "40 Gb/s" NIC moves 40e9 bits per second).
    pub const fn from_gbps(gbps: u64) -> Self {
        Self(gbps * 1_000_000_000)
    }

    /// Construct from fractional decimal gigabits per second.
    pub fn from_gbps_f64(gbps: f64) -> Self {
        assert!(gbps >= 0.0 && gbps.is_finite(), "invalid bandwidth {gbps}");
        Self((gbps * 1e9).round() as u64)
    }

    /// Construct from decimal gigabytes per second (how memory bandwidth is
    /// usually quoted; 1 GB/s = 8e9 bits/s).
    pub const fn from_gigabytes_per_sec(gbs: u64) -> Self {
        Self(gbs * 8_000_000_000)
    }

    /// Value in bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Value in fractional Gb/s.
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time to serialize `size` bytes at this rate. Returns `None` for zero
    /// bandwidth (nothing ever gets through a dead link).
    pub fn transfer_time(self, size: ByteSize) -> Option<Nanos> {
        if self.0 == 0 {
            return None;
        }
        let bits = size.as_bytes() as u128 * 8;
        let ns = (bits * 1_000_000_000u128).div_ceil(self.0 as u128);
        Some(Nanos(ns as u64))
    }

    /// Observed rate given `size` bytes moved in `elapsed` time.
    pub fn observed(size: ByteSize, elapsed: Nanos) -> Self {
        if elapsed.0 == 0 {
            return Self::ZERO;
        }
        let bits = size.as_bytes() as u128 * 8;
        Self(((bits * 1_000_000_000u128) / elapsed.0 as u128) as u64)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}Gb/s", self.as_gbps_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}Mb/s", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}b/s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_constructors_agree() {
        assert_eq!(Nanos::from_secs(1), Nanos::from_millis(1000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1000));
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1000));
        assert_eq!(Nanos::from_secs_f64(0.5), Nanos::from_millis(500));
    }

    #[test]
    fn nanos_display_picks_unit() {
        assert_eq!(Nanos::from_nanos(500).to_string(), "500ns");
        assert_eq!(Nanos::from_micros(5).to_string(), "5.000us");
        assert_eq!(Nanos::from_millis(5).to_string(), "5.000ms");
        assert_eq!(Nanos::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::from_micros(10);
        let b = Nanos::from_micros(4);
        assert_eq!(a + b, Nanos::from_micros(14));
        assert_eq!(a - b, Nanos::from_micros(6));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a * 2, Nanos::from_micros(20));
        assert_eq!(a / 2, Nanos::from_micros(5));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn bytesize_constructors_and_display() {
        assert_eq!(ByteSize::from_kib(1).as_bytes(), 1024);
        assert_eq!(ByteSize::from_mib(1).as_bytes(), 1024 * 1024);
        assert_eq!(ByteSize::from_gib(1).to_string(), "1.00GiB");
        assert_eq!(ByteSize::from_bytes(512).to_string(), "512B");
    }

    #[test]
    fn bandwidth_transfer_time() {
        // 1 GiB at 8 Gb/s = (2^30 * 8) / 8e9 seconds ≈ 1.0737 s.
        let bw = Bandwidth::from_gbps(8);
        let t = bw.transfer_time(ByteSize::from_gib(1)).unwrap();
        assert!((t.as_secs_f64() - 1.0737).abs() < 0.001, "{t}");
        assert_eq!(Bandwidth::ZERO.transfer_time(ByteSize::from_kib(1)), None);
    }

    #[test]
    fn bandwidth_observed_inverts_transfer_time() {
        let bw = Bandwidth::from_gbps(40);
        let size = ByteSize::from_mib(64);
        let t = bw.transfer_time(size).unwrap();
        let obs = Bandwidth::observed(size, t);
        let err = (obs.as_gbps_f64() - 40.0).abs() / 40.0;
        assert!(err < 1e-6, "observed {obs}");
    }

    #[test]
    fn bandwidth_memory_bus_units() {
        // 51.2 GB/s (4-channel DDR3-1600) = 409.6 Gb/s.
        let bus = Bandwidth::from_gigabytes_per_sec(51);
        assert!((bus.as_gbps_f64() - 408.0).abs() < 1e-9);
    }

    #[test]
    fn observed_zero_elapsed_is_zero() {
        assert_eq!(
            Bandwidth::observed(ByteSize::from_mib(1), Nanos::ZERO),
            Bandwidth::ZERO
        );
    }
}
