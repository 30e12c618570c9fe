//! Aperiodic-event cost models.
//!
//! The paper draws costs from a normal distribution with the set's average
//! and standard deviation, and notes a "bad-design issue on our costs
//! generations: if a cost lower than 0.1ms is generated, we set it to 0.1ms.
//! So the average cost has no longer the correct value." The model
//! reproduces that clamping quirk faithfully (it contributes to the measured
//! difference between homogeneous and heterogeneous sets).

use crate::distributions::normal;
use rand::Rng;
use rt_model::Span;

/// Smallest cost the paper's generator allows (0.1 time units).
pub const MIN_COST_UNITS: f64 = 0.1;

/// A cost generator: normal distribution clamped at the paper's 0.1 tu
/// floor, plus an upper cap at the server capacity so the generated system
/// always satisfies the framework's admission constraint (handler cost ≤
/// server capacity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Mean of the normal distribution, in time units.
    pub mean: f64,
    /// Standard deviation, in time units.
    pub std_dev: f64,
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
            cap: capacity.as_units(),
        }
    }

    /// Draws one cost.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Span {
        let value = normal(rng, self.mean, self.std_dev).max(MIN_COST_UNITS);
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
    fn cap_is_enforced_even_for_heavy_tails() {
        let m = CostModel::paper(10.0, 5.0, Span::from_units(4));
        let mut r = rng();
        for _ in 0..1_000 {
            assert!(m.sample(&mut r) <= Span::from_units(4));
        }
    }
}
