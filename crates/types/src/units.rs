//! Physical units: simulation time, data size, and bandwidth.
//!
//! All three are thin integer newtypes with saturating-free, panicking
//! arithmetic (overflow is a logic bug, not a runtime condition we tolerate)
//! and the cross-unit conversions the storage model needs, e.g.
//! [`Bytes::transfer_time`] and [`Bandwidth::bytes_in`].

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// Microseconds per second, the resolution of the simulation clock.
const MICROS_PER_SEC: u64 = 1_000_000;

// ---------------------------------------------------------------------------
// SimDuration
// ---------------------------------------------------------------------------

/// A span of simulated time, in integer microseconds.
///
/// One microsecond of resolution is ~20 bits finer than any quantity the
/// paper's model distinguishes (seek times are milliseconds, time intervals
/// are hundreds of milliseconds), so rounding error is negligible while the
/// arithmetic stays exact and platform-independent.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from integer microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from integer milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a duration from integer seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Builds a duration from fractional seconds, rounding to the nearest
    /// microsecond. Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        SimDuration((s * MICROS_PER_SEC as f64).round() as u64)
    }

    /// The raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration in (truncated) whole milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// This duration in fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// True iff this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction; `None` if `rhs > self`.
    pub const fn checked_sub(self, rhs: SimDuration) -> Option<SimDuration> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(SimDuration(v)),
            None => None,
        }
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(rhs.0).map(SimDuration)
    }

    /// Checked multiplication; `None` on overflow.
    pub fn checked_mul(self, rhs: u64) -> Option<SimDuration> {
        self.0.checked_mul(rhs).map(SimDuration)
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// How many whole `rhs` spans fit in `self` (integer division).
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= MICROS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

// ---------------------------------------------------------------------------
// SimTime
// ---------------------------------------------------------------------------

/// An instant on the simulation clock, in microseconds since simulation
/// start. Instants and durations are distinct types so that `time + time`
/// (meaningless) does not typecheck while `time + duration` does.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// An instant `us` microseconds after simulation start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// An instant `s` whole seconds after simulation start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// The duration from `earlier` to `self`. Panics if `earlier` is later.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier is later than self"),
        )
    }

    /// Saturating version of [`SimTime::duration_since`]: zero if `earlier`
    /// is actually later.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

// ---------------------------------------------------------------------------
// Bytes
// ---------------------------------------------------------------------------

/// A data size in bytes.
///
/// The paper (like most early-90s storage literature) uses *decimal*
/// multiples — a 1.512 "megabyte" cylinder is 1 512 000 bytes — so the
/// constructors here are decimal too.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// `n` bytes.
    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    /// `n` decimal kilobytes (10³ bytes).
    pub const fn kilobytes(n: u64) -> Self {
        Bytes(n * 1_000)
    }

    /// `n` decimal megabytes (10⁶ bytes).
    pub const fn megabytes(n: u64) -> Self {
        Bytes(n * 1_000_000)
    }

    /// `n` decimal gigabytes (10⁹ bytes).
    pub const fn gigabytes(n: u64) -> Self {
        Bytes(n * 1_000_000_000)
    }

    /// Fractional megabytes, rounded to the nearest byte (e.g. the paper's
    /// 1.512 MB cylinder).
    pub fn from_megabytes_f64(mb: f64) -> Self {
        assert!(mb.is_finite() && mb >= 0.0, "invalid size: {mb} MB");
        Bytes((mb * 1e6).round() as u64)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// This size in bits.
    pub const fn as_bits(self) -> u64 {
        self.0 * 8
    }

    /// This size in fractional decimal megabytes (for reporting).
    pub fn as_megabytes_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True iff zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction; `None` if `rhs > self`.
    pub const fn checked_sub(self, rhs: Bytes) -> Option<Bytes> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Bytes(v)),
            None => None,
        }
    }

    /// Saturating subtraction (floors at zero).
    pub const fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two sizes.
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }

    /// The time needed to move this many bytes at `bw`, rounded **up** to
    /// the next microsecond (pessimistic, so modelled transfers never finish
    /// early). Panics if `bw` is zero.
    pub fn transfer_time(self, bw: Bandwidth) -> SimDuration {
        assert!(bw.as_bits_per_sec() > 0, "zero bandwidth");
        self.checked_transfer_time(bw)
            .expect("transfer time overflow")
    }

    /// [`Self::transfer_time`], or `None` when `bw` is zero or the time
    /// does not fit a [`SimDuration`].
    pub fn checked_transfer_time(self, bw: Bandwidth) -> Option<SimDuration> {
        // micros = bits * 1e6 / bps, rounded up. Compute in u128 to avoid
        // overflow for multi-terabyte sizes.
        let bits = u128::from(self.0) * 8;
        let bps = u128::from(bw.as_bits_per_sec());
        if bps == 0 {
            return None;
        }
        let micros = (bits * u128::from(MICROS_PER_SEC)).div_ceil(bps);
        u64::try_from(micros).ok().map(SimDuration)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.checked_add(rhs.0).expect("Bytes overflow"))
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        *self = *self + rhs;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.checked_sub(rhs.0).expect("Bytes underflow"))
    }
}

impl SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0.checked_mul(rhs).expect("Bytes overflow"))
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0 / rhs)
    }
}

impl Div<Bytes> for Bytes {
    type Output = u64;
    /// How many whole `rhs`-sized pieces fit in `self`.
    fn div(self, rhs: Bytes) -> u64 {
        self.0 / rhs.0
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}GB", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}MB", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}KB", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

// ---------------------------------------------------------------------------
// Bandwidth
// ---------------------------------------------------------------------------

/// A data rate in bits per second.
///
/// The paper quotes every rate in megabits per second (mbps): disks deliver
/// 20 mbps effective, NTSC needs ~45 mbps, the simulated media type needs
/// 100 mbps, tertiary delivers 40 mbps.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// `bps` bits per second.
    pub const fn from_bits_per_sec(bps: u64) -> Self {
        Bandwidth(bps)
    }

    /// `m` megabits per second (10⁶ bits).
    pub const fn mbps(m: u64) -> Self {
        Bandwidth(m * 1_000_000)
    }

    /// Fractional megabits per second, rounded to the nearest bit/s (e.g. a
    /// disk's 24.19 mbps peak transfer rate).
    pub fn from_mbps_f64(m: f64) -> Self {
        assert!(m.is_finite() && m >= 0.0, "invalid bandwidth: {m} mbps");
        Bandwidth((m * 1e6).round() as u64)
    }

    /// Raw bits per second.
    pub const fn as_bits_per_sec(self) -> u64 {
        self.0
    }

    /// This rate in fractional mbps (for reporting).
    pub fn as_mbps_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True iff zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Bytes deliverable in `d`, rounded **down** (pessimistic: the model
    /// never credits data that has not fully arrived).
    pub fn bytes_in(self, d: SimDuration) -> Bytes {
        let bits = self.0 as u128 * d.as_micros() as u128 / MICROS_PER_SEC as u128;
        Bytes(u64::try_from(bits / 8).expect("bytes_in overflow"))
    }

    /// Ceil-divide `self / unit`: the number of `unit`-sized channels needed
    /// to carry this rate. This is the paper's degree of declustering
    /// `M_X = ceil(B_display(X) / B_disk)`. Panics if `unit` is zero.
    pub fn div_ceil(self, unit: Bandwidth) -> u64 {
        assert!(unit.0 > 0, "zero unit bandwidth");
        self.0.div_ceil(unit.0)
    }

    /// Saturating subtraction (floors at zero).
    pub const fn saturating_sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.checked_add(rhs.0).expect("Bandwidth overflow"))
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, rhs: Bandwidth) {
        *self = *self + rhs;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.checked_sub(rhs.0).expect("Bandwidth underflow"))
    }
}

impl Mul<u64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: u64) -> Bandwidth {
        Bandwidth(self.0.checked_mul(rhs).expect("Bandwidth overflow"))
    }
}

impl Div<u64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, rhs: u64) -> Bandwidth {
        Bandwidth(self.0 / rhs)
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}mbps", self.as_mbps_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2_000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3_000));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(300);
        let b = SimDuration::from_millis(200);
        assert_eq!(a + b, SimDuration::from_millis(500));
        assert_eq!(a - b, SimDuration::from_millis(100));
        assert_eq!(a * 3, SimDuration::from_millis(900));
        assert_eq!(a / 3, SimDuration::from_micros(100_000));
        assert_eq!(a / b, 1);
        assert_eq!(a % b, SimDuration::from_millis(100));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(a.checked_sub(b), Some(SimDuration::from_millis(100)));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_underflow_panics() {
        let _ = SimDuration::from_millis(1) - SimDuration::from_millis(2);
    }

    #[test]
    fn time_vs_duration() {
        let t0 = SimTime::from_secs(10);
        let t1 = t0 + SimDuration::from_millis(1500);
        assert_eq!(t1.duration_since(t0), SimDuration::from_millis(1500));
        assert_eq!(t0.saturating_duration_since(t1), SimDuration::ZERO);
        assert_eq!(t1 - SimDuration::from_millis(1500), t0);
    }

    #[test]
    fn bytes_constructors_are_decimal() {
        assert_eq!(Bytes::megabytes(1).as_u64(), 1_000_000);
        assert_eq!(Bytes::gigabytes(1), Bytes::megabytes(1000));
        assert_eq!(Bytes::from_megabytes_f64(1.512).as_u64(), 1_512_000);
    }

    #[test]
    fn transfer_time_rounds_up() {
        // 1 byte at 1 mbps = 8 us exactly.
        assert_eq!(
            Bytes::new(1).transfer_time(Bandwidth::mbps(1)),
            SimDuration::from_micros(8)
        );
        // 1 byte at 3 mbps = 2.67 us -> 3 us.
        assert_eq!(
            Bytes::new(1).transfer_time(Bandwidth::mbps(3)),
            SimDuration::from_micros(3)
        );
        // Paper: a 1.512 MB cylinder at the 24.19 mbps peak rate is ~0.5 s.
        let t = Bytes::from_megabytes_f64(1.512).transfer_time(Bandwidth::from_mbps_f64(24.19));
        let secs = t.as_secs_f64();
        assert!((secs - 0.50004).abs() < 1e-3, "got {secs}");
    }

    #[test]
    fn bytes_in_rounds_down() {
        // 1 mbps for 1 us = 1 bit -> 0 bytes.
        assert_eq!(
            Bandwidth::mbps(1).bytes_in(SimDuration::from_micros(1)),
            Bytes::ZERO
        );
        // 8 mbps for 1 s = 1 MB.
        assert_eq!(
            Bandwidth::mbps(8).bytes_in(SimDuration::from_secs(1)),
            Bytes::megabytes(1)
        );
    }

    #[test]
    fn transfer_roundtrip_is_consistent() {
        let size = Bytes::megabytes(100);
        let bw = Bandwidth::mbps(20);
        let t = size.transfer_time(bw);
        // After waiting the computed transfer time, at least `size` bytes fit.
        assert!(bw.bytes_in(t) >= size - Bytes::new(3)); // rounding slack
    }

    #[test]
    fn degree_of_declustering_examples_from_paper() {
        let disk = Bandwidth::mbps(20);
        assert_eq!(Bandwidth::mbps(60).div_ceil(disk), 3); // object X, Sec. 1
        assert_eq!(Bandwidth::mbps(100).div_ceil(disk), 5); // Table 3
        assert_eq!(Bandwidth::mbps(45).div_ceil(disk), 3); // NTSC
        assert_eq!(Bandwidth::mbps(800).div_ceil(disk), 40); // HDTV
        assert_eq!(Bandwidth::mbps(30).div_ceil(disk), 2); // Sec. 3.2.3
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", Bytes::megabytes(2)), "2.000MB");
        assert_eq!(format!("{}", Bandwidth::mbps(20)), "20.000mbps");
    }
}
