//! Service-time distributions: how long does one task take on one
//! reference worker?

use rand::Rng;

/// A per-task service-time distribution. Samples may depend on the current
/// time (hot spots) and are scaled by node speed at the point of use.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceDist {
    /// Every task takes exactly `t` seconds.
    Deterministic(f64),
    /// Exponentially distributed with the given mean.
    Exponential {
        /// Mean service time, seconds.
        mean: f64,
    },
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Lower bound, seconds.
        lo: f64,
        /// Upper bound, seconds.
        hi: f64,
    },
    /// A base distribution whose samples are multiplied by `factor` inside
    /// the `[start, end)` time window — the paper's "temporary hot spots
    /// in image processing".
    HotSpot {
        /// Base distribution.
        base: Box<ServiceDist>,
        /// Cost multiplier during the hot spot.
        factor: f64,
        /// Hot-spot start time, seconds.
        start: f64,
        /// Hot-spot end time, seconds.
        end: f64,
    },
}

impl ServiceDist {
    /// Deterministic builder.
    pub fn det(t: f64) -> Self {
        assert!(t >= 0.0 && t.is_finite(), "service time must be >= 0");
        ServiceDist::Deterministic(t)
    }

    /// Exponential builder.
    pub fn exp(mean: f64) -> Self {
        assert!(mean > 0.0, "mean service time must be positive");
        ServiceDist::Exponential { mean }
    }

    /// Wraps `self` in a hot-spot window.
    pub fn with_hot_spot(self, factor: f64, start: f64, end: f64) -> Self {
        assert!(factor > 0.0 && start <= end, "bad hot spot");
        ServiceDist::HotSpot {
            base: Box::new(self),
            factor,
            start,
            end,
        }
    }

    /// The long-run mean service time outside any hot spot.
    pub fn mean(&self) -> f64 {
        match self {
            ServiceDist::Deterministic(t) => *t,
            ServiceDist::Exponential { mean } => *mean,
            ServiceDist::Uniform { lo, hi } => (lo + hi) / 2.0,
            ServiceDist::HotSpot { base, .. } => base.mean(),
        }
    }

    /// Samples the service time of a task starting at `now`.
    pub fn sample(&self, now: f64, rng: &mut impl Rng) -> f64 {
        match self {
            ServiceDist::Deterministic(t) => *t,
            ServiceDist::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                -u.ln() * mean
            }
            ServiceDist::Uniform { lo, hi } => {
                if lo == hi {
                    *lo
                } else {
                    rng.gen_range(*lo..*hi)
                }
            }
            ServiceDist::HotSpot {
                base,
                factor,
                start,
                end,
            } => {
                let s = base.sample(now, rng);
                if now >= *start && now < *end {
                    s * factor
                } else {
                    s
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl ServiceDist {
        fn uniform(lo: f64, hi: f64) -> Self {
            ServiceDist::Uniform { lo, hi }
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn deterministic_is_constant() {
        let d = ServiceDist::det(5.0);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(0.0, &mut r), 5.0);
        }
        assert_eq!(d.mean(), 5.0);
    }

    #[test]
    fn exponential_mean_converges() {
        let d = ServiceDist::exp(2.0);
        let mut r = rng();
        let n = 50_000;
        let total: f64 = (0..n).map(|_| d.sample(0.0, &mut r)).sum();
        let mean = total / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "empirical mean {mean}");
    }

    #[test]
    fn uniform_bounds_respected() {
        let d = ServiceDist::uniform(1.0, 3.0);
        let mut r = rng();
        for _ in 0..1000 {
            let s = d.sample(0.0, &mut r);
            assert!((1.0..3.0).contains(&s));
        }
        assert_eq!(d.mean(), 2.0);
        // Degenerate uniform.
        assert_eq!(ServiceDist::uniform(2.0, 2.0).sample(0.0, &mut r), 2.0);
    }

    #[test]
    fn hot_spot_inflates_inside_window_only() {
        let d = ServiceDist::det(1.0).with_hot_spot(3.0, 10.0, 20.0);
        let mut r = rng();
        assert_eq!(d.sample(5.0, &mut r), 1.0);
        assert_eq!(d.sample(10.0, &mut r), 3.0);
        assert_eq!(d.sample(19.9, &mut r), 3.0);
        assert_eq!(d.sample(20.0, &mut r), 1.0);
        assert_eq!(d.mean(), 1.0, "mean reports the base distribution");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = ServiceDist::exp(1.0);
        let a: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(9);
            (0..20).map(|_| d.sample(0.0, &mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(9);
            (0..20).map(|_| d.sample(0.0, &mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bad_exponential_rejected() {
        ServiceDist::exp(0.0);
    }
}
