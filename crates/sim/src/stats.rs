//! Statistics collectors for experiment reports.
//!
//! * [`Counter`] — monotone event counts with rate-per-hour helpers (the
//!   paper reports throughput in *displays per hour*).
//! * [`Tally`] — streaming mean/min/max for quantities like display
//!   latency.
//! * [`TimeWeighted`] — time-integrated averages (disk utilisation, queue
//!   lengths) that weight each value by how long it was held.
//! * [`Histogram`] — fixed-width-bucket histogram with quantile estimation
//!   for latency distributions.

use ss_types::SimTime;

/// A monotone event counter with a start time, able to report rates.
#[derive(Debug, Clone)]
pub struct Counter {
    count: u64,
    since: SimTime,
}

impl Counter {
    /// A counter measuring from `since`.
    pub fn new(since: SimTime) -> Self {
        Counter { count: 0, since }
    }

    /// Increments by one.
    pub fn incr(&mut self) {
        self.count += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.count += n;
    }

    /// The current count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Events per simulated hour over `[since, now]`. Returns 0 for an
    /// empty window.
    pub fn per_hour(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_duration_since(self.since);
        if elapsed.is_zero() {
            return 0.0;
        }
        self.count as f64 * 3600.0 / elapsed.as_secs_f64()
    }

    /// Resets the count and moves the measurement origin to `now` (used to
    /// discard a warm-up window).
    pub fn reset(&mut self, now: SimTime) {
        self.count = 0;
        self.since = now;
    }
}

/// Streaming mean (the running update `mean += (x − mean) / n`) and
/// extrema.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    n: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Tally {
            n: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// A time-weighted average: each recorded value is weighted by how long it
/// was in effect. This is the right statistic for utilisations and queue
/// lengths.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_value: f64,
    last_change: SimTime,
    weighted_sum: f64,
    origin: SimTime,
}

impl TimeWeighted {
    /// Starts tracking at `now` with initial value `value`.
    pub fn new(now: SimTime, value: f64) -> Self {
        TimeWeighted {
            last_value: value,
            last_change: now,
            weighted_sum: 0.0,
            origin: now,
        }
    }

    /// Records that the tracked quantity changed to `value` at `now`.
    /// Panics if `now` precedes the previous change.
    pub fn set(&mut self, now: SimTime, value: f64) {
        let held = now.duration_since(self.last_change);
        self.weighted_sum += self.last_value * held.as_secs_f64();
        self.last_value = value;
        self.last_change = now;
    }

    /// Adds `delta` to the tracked quantity at `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.last_value + delta;
        self.set(now, v);
    }

    /// The current instantaneous value.
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// The time-weighted mean over `[origin, now]` (0 for an empty window).
    pub fn mean(&self, now: SimTime) -> f64 {
        let total = now.saturating_duration_since(self.origin).as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        let tail = now
            .saturating_duration_since(self.last_change)
            .as_secs_f64();
        (self.weighted_sum + self.last_value * tail) / total
    }

    /// Discards history: restarts the window at `now` keeping the current
    /// value (warm-up handling).
    pub fn reset(&mut self, now: SimTime) {
        self.weighted_sum = 0.0;
        self.last_change = now;
        self.origin = now;
    }
}

/// A fixed-bucket histogram over `[0, max)` with an overflow bucket, plus
/// quantile estimation by linear interpolation within buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    bucket_width: f64,
    buckets: Vec<u64>,
    overflow: u64,
    n: u64,
}

impl Histogram {
    /// `buckets` equal-width buckets covering `[0, max)`; values ≥ `max`
    /// land in an overflow bucket. Panics on non-positive `max` or zero
    /// bucket count.
    pub fn new(max: f64, buckets: usize) -> Self {
        assert!(max > 0.0 && max.is_finite());
        assert!(buckets > 0);
        Histogram {
            bucket_width: max / buckets as f64,
            buckets: vec![0; buckets],
            overflow: 0,
            n: 0,
        }
    }

    /// Records one non-negative observation.
    pub fn record(&mut self, x: f64) {
        assert!(x >= 0.0 && x.is_finite(), "histogram value {x}");
        self.n += 1;
        let idx = (x / self.bucket_width) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Number of observations.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Count that exceeded the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Estimates quantile `q ∈ [0,1]` by interpolating inside the bucket
    /// containing it. Returns `None` if empty; returns the range max when
    /// the quantile falls in the overflow bucket.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q));
        if self.n == 0 {
            return None;
        }
        let target = q * self.n as f64;
        let mut cum = 0.0;
        for (i, &c) in self.buckets.iter().enumerate() {
            let next = cum + c as f64;
            if next >= target && c > 0 {
                let frac = if c == 0 {
                    0.0
                } else {
                    (target - cum) / c as f64
                };
                return Some((i as f64 + frac.clamp(0.0, 1.0)) * self.bucket_width);
            }
            cum = next;
        }
        Some(self.bucket_width * self.buckets.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_rates() {
        let mut c = Counter::new(SimTime::ZERO);
        for _ in 0..100 {
            c.incr();
        }
        // 100 events in half an hour = 200/hour.
        assert_eq!(c.per_hour(SimTime::from_secs(1800)), 200.0);
        assert_eq!(c.per_hour(SimTime::ZERO), 0.0);
        c.reset(SimTime::from_secs(1800));
        assert_eq!(c.count(), 0);
        c.add(50);
        assert_eq!(c.per_hour(SimTime::from_secs(3600)), 100.0);
    }

    #[test]
    fn tally_matches_naive_moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut t = Tally::new();
        for &x in &xs {
            t.record(x);
        }
        assert_eq!(t.n(), 8);
        assert!((t.mean() - 5.0).abs() < 1e-12);
        assert_eq!(t.min(), Some(2.0));
        assert_eq!(t.max(), Some(9.0));
    }

    #[test]
    fn empty_tally_is_sane() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.min(), None);
        assert_eq!(t.max(), None);
    }

    #[test]
    fn time_weighted_mean_weights_by_holding_time() {
        let mut u = TimeWeighted::new(SimTime::ZERO, 0.0);
        u.set(SimTime::from_secs(10), 1.0); // 0 for 10 s
        u.set(SimTime::from_secs(40), 0.0); // 1 for 30 s
                                            // At t=50: 30 s of "1" over 50 s = 0.6.
        assert!((u.mean(SimTime::from_secs(50)) - 0.6).abs() < 1e-12);
        assert_eq!(u.current(), 0.0);
    }

    #[test]
    fn time_weighted_add_and_reset() {
        let mut q = TimeWeighted::new(SimTime::ZERO, 0.0);
        q.add(SimTime::from_secs(5), 2.0); // queue length 2 from t=5
        q.reset(SimTime::from_secs(5));
        q.add(SimTime::from_secs(10), 1.0); // 2 held for 5s, then 3
        assert!((q.mean(SimTime::from_secs(15)) - 2.5).abs() < 1e-12);
        assert_eq!(q.current(), 3.0);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(100.0, 100);
        for i in 0..1000 {
            h.record(i as f64 / 10.0); // uniform on [0, 100)
        }
        let med = h.quantile(0.5).unwrap();
        assert!((med - 50.0).abs() < 2.0, "median {med}");
        let p95 = h.quantile(0.95).unwrap();
        assert!((p95 - 95.0).abs() < 2.0, "p95 {p95}");
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn histogram_overflow_counted() {
        let mut h = Histogram::new(10.0, 10);
        h.record(5.0);
        h.record(500.0);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.n(), 2);
    }

    #[test]
    fn histogram_empty_quantile_is_none() {
        let h = Histogram::new(10.0, 10);
        assert_eq!(h.quantile(0.5), None);
    }
}
