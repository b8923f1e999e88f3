//! Object-popularity distributions.

use serde::{Deserialize, Serialize};
use ss_sim::{DeterministicRng, TruncatedGeometric, Zipf};
use ss_types::{Error, ObjectId, Result};

/// Which popularity law requests follow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Popularity {
    /// The paper's truncated geometric with the given mean (10 / 20 / 43.5
    /// in §4.1). Object 0 is the most popular.
    TruncatedGeometric {
        /// Target mean of the truncated distribution.
        mean: f64,
    },
    /// Zipf with exponent `alpha` (modern VoD ablation; `alpha ≈ 0.73` is
    /// the classic video-store fit).
    Zipf {
        /// Skew exponent; 0 is uniform.
        alpha: f64,
    },
    /// Uniform over all objects.
    Uniform,
}

impl Popularity {
    /// Canonical short label used everywhere a report row names its
    /// popularity law: `geom(20.0)`, `zipf(0.73)`, or `Uniform`. The float
    /// is rendered with `{:?}` so tags round-trip exactly (e.g. mean 43.5
    /// becomes `geom(43.5)`, never `geom(43.50)`).
    pub fn tag(&self) -> String {
        match *self {
            Popularity::TruncatedGeometric { mean } => format!("geom({mean:?})"),
            Popularity::Zipf { alpha } => format!("zipf({alpha:?})"),
            Popularity::Uniform => "Uniform".to_string(),
        }
    }

    /// Checks that a sampler over `n` objects can be built: every law needs
    /// at least one object, the truncated geometric two and a mean in
    /// `(0, (n − 1)/2)` (the upper end is the uniform mean), and Zipf a
    /// finite, non-negative `alpha`. [`Self::sampler`] panics on anything
    /// this rejects.
    pub fn validate(&self, n: usize) -> Result<()> {
        let reason = match *self {
            _ if n == 0 => "popularity over an empty database".to_string(),
            Popularity::TruncatedGeometric { .. } if n < 2 => {
                "a truncated geometric needs at least two objects".to_string()
            }
            Popularity::TruncatedGeometric { mean } => {
                let uniform_mean = (n as f64 - 1.0) / 2.0;
                if mean > 0.0 && mean < uniform_mean {
                    return Ok(());
                }
                format!(
                    "truncated geometric mean {mean} not in (0, {uniform_mean}) for {n} objects"
                )
            }
            Popularity::Zipf { alpha } if !(alpha >= 0.0 && alpha.is_finite()) => {
                format!("Zipf alpha {alpha} must be finite and non-negative")
            }
            Popularity::Zipf { .. } | Popularity::Uniform => return Ok(()),
        };
        Err(Error::InvalidConfig { reason })
    }

    /// Instantiates a sampler over a database of `n` objects. Panics unless
    /// [`Self::validate`] accepts `n`.
    pub fn sampler(&self, n: usize) -> PopularitySampler {
        assert!(n >= 1, "empty database");
        let kind = match *self {
            Popularity::TruncatedGeometric { mean } => {
                Kind::Geometric(TruncatedGeometric::with_mean(n, mean))
            }
            Popularity::Zipf { alpha } => Kind::Zipf(Zipf::new(n, alpha)),
            Popularity::Uniform => Kind::Uniform(n),
        };
        PopularitySampler { kind }
    }
}

#[derive(Debug, Clone)]
enum Kind {
    Geometric(TruncatedGeometric),
    Zipf(Zipf),
    Uniform(usize),
}

/// A ready-to-draw popularity sampler.
#[derive(Debug, Clone)]
pub struct PopularitySampler {
    kind: Kind,
}

impl PopularitySampler {
    /// Draws the object referenced by the next request.
    pub fn sample(&self, rng: &mut DeterministicRng) -> ObjectId {
        let i = match &self.kind {
            Kind::Geometric(g) => g.sample(rng),
            Kind::Zipf(z) => z.sample(rng),
            Kind::Uniform(n) => rng.index(*n),
        };
        ObjectId(i as u32)
    }

    /// The probability of object `i`.
    pub fn pmf(&self, i: usize) -> f64 {
        match &self.kind {
            Kind::Geometric(g) => g.pmf(i),
            Kind::Zipf(z) => z.pmf(i),
            Kind::Uniform(n) => 1.0 / *n as f64,
        }
    }

    /// The q-quantile working-set size (number of hottest objects covering
    /// probability `q`).
    pub fn working_set(&self, q: f64, n: usize) -> usize {
        match &self.kind {
            Kind::Geometric(g) => g.working_set(q),
            _ => {
                let mut cum = 0.0;
                for i in 0..n {
                    cum += self.pmf(i);
                    if cum >= q {
                        return i + 1;
                    }
                }
                n
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_distributions_have_expected_working_sets() {
        // §4.1: means 10 / 20 / 43.5 over 2000 objects reference roughly
        // 100 / 200 / 400 unique objects.
        let n = 2000;
        for (mean, lo, hi) in [(10.0, 40, 120), (20.0, 90, 240), (43.5, 180, 480)] {
            let s = Popularity::TruncatedGeometric { mean }.sampler(n);
            let ws = s.working_set(0.99, n);
            assert!((lo..=hi).contains(&ws), "mean {mean}: ws {ws}");
        }
    }

    #[test]
    fn geometric_favours_low_ids() {
        let s = Popularity::TruncatedGeometric { mean: 10.0 }.sampler(2000);
        let mut rng = DeterministicRng::seed_from_u64(11);
        let mut low = 0u32;
        let draws = 10_000;
        for _ in 0..draws {
            if s.sample(&mut rng).index() < 10 {
                low += 1;
            }
        }
        // P(X < 10) for geometric mean 10 ≈ 1 − (1−p)^10 ≈ 0.63.
        let frac = f64::from(low) / f64::from(draws);
        assert!((0.58..0.68).contains(&frac), "frac {frac}");
    }

    #[test]
    fn validate_accepts_exactly_what_the_sampler_builds() {
        let geom = |mean| Popularity::TruncatedGeometric { mean };
        let zipf = |alpha| Popularity::Zipf { alpha };
        for (p, n) in [
            (geom(2.0), 10),
            (geom(20.0), 2000),
            (zipf(0.0), 1),
            (zipf(0.73), 50),
        ] {
            p.validate(n).unwrap();
            p.sampler(n);
        }
        for (p, n) in [
            (geom(2.0), 1),
            (geom(20.0), 10),
            (geom(4.5), 10),
            (geom(0.0), 10),
            (geom(f64::NAN), 10),
            (zipf(-1.0), 10),
            (zipf(f64::INFINITY), 10),
            (zipf(f64::NAN), 10),
            (Popularity::Uniform, 0),
        ] {
            assert!(p.validate(n).is_err(), "{p:?} over {n}");
            let built = std::panic::catch_unwind(|| p.sampler(n));
            assert!(built.is_err(), "{p:?} over {n} built a sampler");
        }
    }

    #[test]
    fn uniform_is_flat() {
        let s = Popularity::Uniform.sampler(4);
        for i in 0..4 {
            assert!((s.pmf(i) - 0.25).abs() < 1e-12);
        }
        assert_eq!(s.working_set(0.5, 4), 2);
    }

    #[test]
    fn zipf_working_set_is_between_geometric_and_uniform() {
        let n = 2000;
        let geo = Popularity::TruncatedGeometric { mean: 10.0 }
            .sampler(n)
            .working_set(0.9, n);
        let zipf = Popularity::Zipf { alpha: 0.73 }
            .sampler(n)
            .working_set(0.9, n);
        let uni = Popularity::Uniform.sampler(n).working_set(0.9, n);
        assert!(geo < zipf && zipf < uni, "{geo} < {zipf} < {uni}");
    }

    #[test]
    fn tags_are_canonical() {
        assert_eq!(
            Popularity::TruncatedGeometric { mean: 43.5 }.tag(),
            "geom(43.5)"
        );
        assert_eq!(
            Popularity::TruncatedGeometric { mean: 20.0 }.tag(),
            "geom(20.0)"
        );
        assert_eq!(Popularity::Zipf { alpha: 0.73 }.tag(), "zipf(0.73)");
        assert_eq!(Popularity::Uniform.tag(), "Uniform");
    }

    #[test]
    fn samples_are_in_range() {
        for p in [
            Popularity::TruncatedGeometric { mean: 5.0 },
            Popularity::Zipf { alpha: 1.0 },
            Popularity::Uniform,
        ] {
            let s = p.sampler(50);
            let mut rng = DeterministicRng::seed_from_u64(3);
            for _ in 0..1000 {
                assert!(s.sample(&mut rng).index() < 50);
            }
        }
    }
}
