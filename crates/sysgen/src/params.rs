//! Generator parameters, mirroring the paper's
//! `fr.umlv.randomGenerator.randomSystemGenerator` interface (§6.1).
//!
//! The paper generates six sets of ten systems from tuples of the form
//! `(taskDensity, averageCost, stdDeviation, serverCapacity, serverPeriod,
//! nbGeneration, seed)`; for example `(1, 3, 0, 4, 6, 10, 1983)` is the first
//! homogeneous set.

use rt_model::Span;

/// Parameters of the random real-time system generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorParams {
    /// Average number of aperiodic events per server period (`taskDensity`).
    pub task_density: f64,
    /// Average cost of aperiodic events, in time units (`averageCost`).
    pub average_cost: f64,
    /// Standard deviation of the aperiodic-event costs (`stdDeviation`).
    pub std_deviation: f64,
    /// Server capacity, in time units (`serverCapacity`).
    pub server_capacity: Span,
    /// Server period, in time units (`serverPeriod`).
    pub server_period: Span,
    /// Number of systems to generate (`nbGeneration`).
    pub nb_generation: usize,
    /// Random seed, "in order to generate the same systems on multiple
    /// platforms" (`seed`).
    pub seed: u64,
    /// Number of server periods covered by each generated system. The paper
    /// limits simulations and executions to ten server periods.
    pub horizon_periods: u64,
}

impl GeneratorParams {
    /// Builds a parameter set from the paper's seven-value tuple, with the
    /// paper's ten-server-period horizon.
    pub fn from_tuple(
        task_density: f64,
        average_cost: f64,
        std_deviation: f64,
        server_capacity: f64,
        server_period: f64,
        nb_generation: usize,
        seed: u64,
    ) -> Self {
        GeneratorParams {
            task_density,
            average_cost,
            std_deviation,
            server_capacity: Span::from_units_f64(server_capacity),
            server_period: Span::from_units_f64(server_period),
            nb_generation,
            seed,
            horizon_periods: 10,
        }
    }

    /// The first set of the paper's evaluation: `(1, 3, 0, 4, 6, 10, 1983)`.
    pub fn paper_baseline() -> Self {
        Self::from_tuple(1.0, 3.0, 0.0, 4.0, 6.0, 10, 1983)
    }

    /// The paper's set identified by `(density, std-deviation)` — the other
    /// five parameters are fixed at (cost 3, capacity 4, period 6, 10
    /// systems, seed 1983).
    pub fn paper_set(density: u32, std_deviation: u32) -> Self {
        Self::from_tuple(
            density as f64,
            3.0,
            std_deviation as f64,
            4.0,
            6.0,
            10,
            1983,
        )
    }

    /// Observation horizon of one generated system.
    pub fn horizon(&self) -> rt_model::Instant {
        rt_model::Instant::ZERO + self.server_period.saturating_mul(self.horizon_periods)
    }

    /// Checks that the parameters are usable.
    pub fn validate(&self) -> Result<(), String> {
        if self.task_density <= 0.0 || !self.task_density.is_finite() {
            return Err("task density must be a positive finite number".into());
        }
        if self.average_cost <= 0.0 || !self.average_cost.is_finite() {
            return Err("average cost must be a positive finite number".into());
        }
        if self.std_deviation < 0.0 || !self.std_deviation.is_finite() {
            return Err("standard deviation must be non-negative".into());
        }
        if self.server_capacity.is_zero() || self.server_period.is_zero() {
            return Err("server capacity and period must be positive".into());
        }
        if self.server_capacity > self.server_period {
            return Err("server capacity cannot exceed its period".into());
        }
        if self.nb_generation == 0 {
            return Err("at least one system must be generated".into());
        }
        if self.horizon_periods == 0 {
            return Err("the horizon must cover at least one server period".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_the_tuple() {
        let p = GeneratorParams::paper_baseline();
        assert_eq!(p.task_density, 1.0);
        assert_eq!(p.average_cost, 3.0);
        assert_eq!(p.std_deviation, 0.0);
        assert_eq!(p.server_capacity, Span::from_units(4));
        assert_eq!(p.server_period, Span::from_units(6));
        assert_eq!(p.nb_generation, 10);
        assert_eq!(p.seed, 1983);
        assert_eq!(p.horizon(), rt_model::Instant::from_units(60));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut p = GeneratorParams::paper_baseline();
        p.task_density = 0.0;
        assert!(p.validate().is_err());
        let mut p = GeneratorParams::paper_baseline();
        p.server_capacity = Span::from_units(10);
        assert!(p.validate().is_err());
        let mut p = GeneratorParams::paper_baseline();
        p.nb_generation = 0;
        assert!(p.validate().is_err());
        let mut p = GeneratorParams::paper_baseline();
        p.std_deviation = -1.0;
        assert!(p.validate().is_err());
    }
}
