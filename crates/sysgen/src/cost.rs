//! Aperiodic-event cost models.
//!
//! The paper draws costs from a normal distribution with the set's average
//! and standard deviation, and notes a "bad-design issue on our costs
//! generations: if a cost lower than 0.1ms is generated, we set it to 0.1ms.
//! So the average cost has no longer the correct value." The default model
//! reproduces that clamping quirk faithfully (it contributes to the measured
//! difference between homogeneous and heterogeneous sets); an alternative
//! resampling model is provided so the effect of the quirk can be quantified.

use crate::distributions::normal;
use rand::Rng;
use rt_model::Span;

/// Smallest cost the paper's generator allows (0.1 time units).
pub const MIN_COST_UNITS: f64 = 0.1;

/// How sampled costs below the minimum are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClampMode {
    /// Reproduce the paper: clamp to 0.1 tu, biasing the average upwards.
    PaperClamp,
    /// Resample until the draw is at least 0.1 tu, keeping the distribution
    /// conditional but unbiased by a hard floor artefact.
    Resample,
}

/// A cost generator: normal distribution with a floor policy, plus an upper
/// cap at the server capacity so the generated system always satisfies the
/// framework's admission constraint (handler cost ≤ server capacity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Mean of the normal distribution, in time units.
    pub mean: f64,
    /// Standard deviation, in time units.
    pub std_dev: f64,
    /// Floor policy for tiny draws.
    pub clamp: ClampMode,
    /// Upper cap, in time units (the server capacity).
    pub cap: f64,
}

impl CostModel {
    /// The paper's model for a given set: normal(mean, std), clamped at 0.1,
    /// capped at the server capacity.
    pub fn paper(mean: f64, std_dev: f64, capacity: Span) -> Self {
        CostModel {
            mean,
            std_dev,
            clamp: ClampMode::PaperClamp,
            cap: capacity.as_units(),
        }
    }

    /// The unbiased variant that resamples instead of clamping.
    pub fn resampling(mean: f64, std_dev: f64, capacity: Span) -> Self {
        CostModel {
            mean,
            std_dev,
            clamp: ClampMode::Resample,
            cap: capacity.as_units(),
        }
    }

    /// Draws one cost.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Span {
        let value = match self.clamp {
            ClampMode::PaperClamp => {
                let draw = normal(rng, self.mean, self.std_dev);
                draw.max(MIN_COST_UNITS)
            }
            ClampMode::Resample => {
                // Bounded retries: with pathological parameters (mean far
                // below the floor) fall back to the floor rather than loop.
                let mut draw = normal(rng, self.mean, self.std_dev);
                let mut attempts = 0;
                while draw < MIN_COST_UNITS && attempts < 64 {
                    draw = normal(rng, self.mean, self.std_dev);
                    attempts += 1;
                }
                draw.max(MIN_COST_UNITS)
            }
        };
        Span::from_units_f64(value.min(self.cap))
    }
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
    fn homogeneous_model_is_constant() {
        let m = CostModel::paper(3.0, 0.0, Span::from_units(4));
        let mut r = rng();
        for _ in 0..20 {
            assert_eq!(m.sample(&mut r), Span::from_units(3));
        }
    }

    #[test]
    fn costs_stay_within_floor_and_cap() {
        let m = CostModel::paper(3.0, 2.0, Span::from_units(4));
        let mut r = rng();
        for _ in 0..5_000 {
            let c = m.sample(&mut r);
            assert!(c >= Span::from_units_f64(MIN_COST_UNITS));
            assert!(c <= Span::from_units(4));
        }
    }

    #[test]
    fn clamping_biases_the_mean_upwards() {
        // With mean 0.5 and std 2 most of the left tail is clamped to 0.1,
        // so the empirical mean exceeds the nominal mean noticeably more
        // under PaperClamp than under Resample... both are floored, but the
        // clamped model piles probability mass exactly at the floor.
        let clamped = CostModel::paper(0.5, 2.0, Span::from_units(100));
        let resampled = CostModel::resampling(0.5, 2.0, Span::from_units(100));
        let mut r = rng();
        let n = 10_000;
        let at_floor = |model: &CostModel, r: &mut StdRng| {
            (0..n)
                .filter(|_| model.sample(r) == Span::from_units_f64(MIN_COST_UNITS))
                .count()
        };
        let clamped_floor = at_floor(&clamped, &mut r);
        let resampled_floor = at_floor(&resampled, &mut r);
        assert!(
            clamped_floor > resampled_floor * 2,
            "clamping should concentrate mass at the floor ({clamped_floor} vs {resampled_floor})"
        );
    }

    #[test]
    fn cap_is_enforced_even_for_heavy_tails() {
        let m = CostModel::paper(10.0, 5.0, Span::from_units(4));
        let mut r = rng();
        for _ in 0..1_000 {
            assert!(m.sample(&mut r) <= Span::from_units(4));
        }
    }
}
