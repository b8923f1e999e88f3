//! Summary statistics: medians and quartiles over repetitions, the
//! percentile-reporting rule, and a fixed-memory histogram for per-tick
//! durations.

/// Median of `xs` (the mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones Python computes. A single
/// sample is its own quartiles; `None` when empty.
fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    match ld {
        0 => None,
        1 => Some((s[0], s[0])),
        _ => {
            let q = |i: usize| {
                let (n, m) = (4usize, ld + 1);
                let j = (i * m / n).clamp(1, ld - 1);
                // Negative when the clamp raised `j`: Python extrapolates.
                let delta = (i * m) as f64 - (j * n) as f64;
                (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
            };
            Some((q(1), q(3)))
        }
    }
}

/// Sum that is `0.0`, not `-0.0`, when empty.
pub fn total(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(0.0, |a, b| a + b)
}

/// Interquartile range (`q3 - q1`); 0 for fewer than two samples.
pub fn iqr(xs: &[f64]) -> f64 {
    quartiles(xs).map_or(0.0, |(q1, q3)| q3 - q1)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The percentiles a timing may be reported at, lowest first.
const LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`LADDER`] that still has at least ten of
/// `n` samples beyond it; `None` when even the median has fewer.
pub fn reportable_percentile(n: u64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Sub-buckets per power of two: 2^5 = 32, so a bucket spans at most
/// 1/32 of its value (about 3% resolution).
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// Log-linear histogram of nanosecond durations: constant memory however
/// many ticks a workload runs, with the exact count, sum and maximum kept
/// beside the buckets.
#[derive(Debug, Clone)]
pub struct TickHistogram {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
    max: u64,
}

impl Default for TickHistogram {
    fn default() -> Self {
        TickHistogram {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl TickHistogram {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) - SUB;
        (SUB + u64::from(e - SUB_BITS) * SUB + sub) as usize
    }

    /// The midpoint of bucket `idx`.
    fn value(idx: usize) -> f64 {
        let idx = idx as u64;
        if idx < SUB {
            return idx as f64;
        }
        let e = (idx - SUB) / SUB + u64::from(SUB_BITS);
        let sub = (idx - SUB) % SUB;
        let width = 1u64 << (e - u64::from(SUB_BITS));
        ((SUB + sub) * width) as f64 + width as f64 / 2.0
    }

    /// Records one duration in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
        self.sum += u128::from(ns);
        self.max = self.max.max(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of all samples, nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum
    }

    /// Largest sample, nanoseconds (exact).
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// The `p`-th percentile in nanoseconds (bucket midpoint, capped at
    /// the exact maximum); 0 when empty.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.n as f64).ceil().max(1.0) as u64;
        if rank >= self.n {
            return self.max as f64;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(idx).min(self.max as f64);
            }
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert_eq!(iqr(&xs), 5.5);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(iqr(&[]), 0.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(reportable_percentile(19), None);
        assert_eq!(reportable_percentile(20), Some(50.0));
        assert_eq!(reportable_percentile(100), Some(90.0));
        assert_eq!(reportable_percentile(999), Some(95.0));
        assert_eq!(reportable_percentile(1000), Some(99.0));
        assert_eq!(reportable_percentile(10_000), Some(99.9));
        assert_eq!(reportable_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn histogram_percentiles_are_within_bucket_resolution() {
        let mut h = TickHistogram::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.max_ns(), 100_000);
        for (p, want) in [(50.0, 50_000.0), (99.0, 99_000.0)] {
            let got = h.percentile_ns(p);
            assert!(
                (got - want).abs() / want < 1.0 / 32.0,
                "p{p}: {got} vs {want}"
            );
        }
        assert_eq!(h.percentile_ns(100.0), 100_000.0);
        assert_eq!(h.sum_ns(), 100_000 * 100_001 / 2);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = TickHistogram::default();
        for v in [0u64, 1, 7, 31] {
            h.record(v);
        }
        assert_eq!(h.percentile_ns(25.0), 0.0);
        assert_eq!(h.percentile_ns(100.0), 31.0);
        assert_eq!(TickHistogram::index(u64::MAX), BUCKETS - 1);
    }
}
