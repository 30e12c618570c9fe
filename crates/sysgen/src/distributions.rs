//! Small, self-contained random distributions built on top of `rand`'s
//! uniform generator.
//!
//! The workspace deliberately depends only on `rand` (not `rand_distr`), so
//! the normal and Poisson samplers needed by the generator are implemented
//! here: Box–Muller for the normal distribution and Knuth's multiplication
//! method for Poisson counts. Both are textbook algorithms; determinism
//! across platforms comes from seeding `StdRng` and from never consuming a
//! data-dependent *number of uniform draws for the normal sampler* (the
//! Poisson sampler is inherently data-dependent, which is fine because the
//! whole sequence is still a pure function of the seed).

use rand::Rng;

/// Samples a standard normal variate using the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by drawing u1 from the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples a normal variate with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    if std_dev <= 0.0 {
        return mean;
    }
    mean + std_dev * standard_normal(rng)
}

/// Samples a Poisson-distributed count with the given rate `lambda`, using
/// Knuth's multiplication method. For the rates used by the generator
/// (a handful of events per server period) this is both exact and fast.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    Poisson::new(lambda).sample(rng)
}

/// A Poisson distribution with its rate's constant `exp(-lambda)` computed
/// once, for callers drawing many counts at one rate. Draws exactly what
/// [`poisson`] draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
    exp_neg_lambda: f64,
}

impl Poisson {
    /// The distribution of rate `lambda` (non-positive rates always draw 0).
    pub fn new(lambda: f64) -> Self {
        Poisson {
            lambda,
            exp_neg_lambda: (-lambda).exp(),
        }
    }

    /// Samples one count.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let lambda = self.lambda;
        if lambda <= 0.0 {
            return 0;
        }
        // For large lambda fall back on a normal approximation to avoid the
        // O(lambda) loop; the generator never goes near this regime but the
        // sampler is public and should stay robust.
        if lambda > 700.0 {
            let sample = normal(rng, lambda, lambda.sqrt());
            return sample.max(0.0).round() as u64;
        }
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= self.exp_neg_lambda {
                return k;
            }
            k += 1;
        }
    }
}

/// Samples an exponential inter-arrival time with the given rate (events per
/// time unit).
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1983)
    }

    #[test]
    fn normal_with_zero_std_is_constant() {
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(normal(&mut r, 3.0, 0.0), 3.0);
        }
    }

    #[test]
    fn normal_sample_statistics_are_plausible() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut r, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean} too far from 3.0");
        assert!(
            (var.sqrt() - 2.0).abs() < 0.1,
            "std {} too far from 2.0",
            var.sqrt()
        );
    }

    #[test]
    fn poisson_sample_statistics_are_plausible() {
        let mut r = rng();
        let n = 20_000;
        let lambda = 2.5;
        let samples: Vec<u64> = (0..n).map(|_| poisson(&mut r, lambda)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / n as f64;
        assert!(
            (mean - lambda).abs() < 0.1,
            "mean {mean} too far from {lambda}"
        );
    }

    #[test]
    fn poisson_zero_rate_is_always_zero() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
        assert_eq!(poisson(&mut r, -1.0), 0);
    }

    #[test]
    fn poisson_large_rate_uses_normal_approximation() {
        let mut r = rng();
        let sample = poisson(&mut r, 10_000.0);
        assert!(sample > 9_000 && sample < 11_000);
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut r = rng();
        let n = 20_000;
        let rate = 0.5;
        let mean = (0..n).map(|_| exponential(&mut r, rate)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean} too far from 2.0");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_nonpositive_rate() {
        exponential(&mut rng(), 0.0);
    }

    #[test]
    fn sequences_are_deterministic_for_a_seed() {
        let mut a = rng();
        let mut b = rng();
        for _ in 0..100 {
            assert_eq!(normal(&mut a, 3.0, 2.0), normal(&mut b, 3.0, 2.0));
            assert_eq!(poisson(&mut a, 2.0), poisson(&mut b, 2.0));
        }
    }
}
