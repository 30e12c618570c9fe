//! # rt-sysgen — random real-time system generator
//!
//! Rust counterpart of the paper's `fr.umlv.randomGenerator` package (§6.1):
//! given a tuple *(taskDensity, averageCost, stdDeviation, serverCapacity,
//! serverPeriod, nbGeneration, seed)* it produces deterministic batches of
//! [`rt_model::SystemSpec`] values containing the aperiodic server and the
//! random aperiodic traffic, ready to be fed both to the RTSS simulator and
//! to the task-server execution engine.
//!
//! ```
//! use rt_sysgen::{GeneratorParams, RandomSystemGenerator};
//! use rt_model::ServerPolicyKind;
//!
//! let params = GeneratorParams::paper_set(2, 0); // density 2, homogeneous costs
//! let generator = RandomSystemGenerator::new(params, ServerPolicyKind::Polling).unwrap();
//! let systems = generator.generate();
//! assert_eq!(systems.len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod distributions;
pub mod generator;
pub mod params;

pub use cost::{CostModel, MIN_COST_UNITS};
pub use generator::{
    uunifast, ExtraServer, FaultModel, PeriodicLoad, RandomSystemGenerator, ValueModel,
};
pub use params::GeneratorParams;

#[cfg(test)]
mod proptests {
    //! Randomised property tests. The offline build environment has no
    //! `proptest`, so the same properties are exercised over seeded,
    //! deterministic random cases instead of shrinking strategies.

    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rt_model::ServerPolicyKind;

    /// Every generated system is structurally valid, for any reasonable
    /// parameter tuple.
    #[test]
    fn generated_systems_are_always_valid() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0100);
        for _ in 0..16 {
            let density = rng.gen_range(1u64..5) as u32;
            let std_dev = rng.gen_range(0u64..3) as u32;
            let seed = rng.gen_range(0u64..10_000);
            let capacity = rng.gen_range(2u64..6);
            let mut params = GeneratorParams::paper_set(density, std_dev);
            params.seed = seed;
            params.server_capacity = rt_model::Span::from_units(capacity);
            params.nb_generation = 3;
            let generator =
                RandomSystemGenerator::new(params, ServerPolicyKind::Deferrable).unwrap();
            for sys in generator.generate() {
                assert!(sys.validate().is_ok());
                for e in &sys.aperiodics {
                    assert!(e.declared_cost <= rt_model::Span::from_units(capacity));
                    assert!(e.release < sys.horizon);
                }
            }
        }
    }

    /// Generation is a pure function of (params, index).
    #[test]
    fn generation_is_reproducible() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0101);
        for _ in 0..16 {
            let seed = rng.gen_range(0u64..10_000);
            let index = rng.gen_range(0u64..10) as usize;
            let mut params = GeneratorParams::paper_set(2, 2);
            params.seed = seed;
            let g1 = RandomSystemGenerator::new(params.clone(), ServerPolicyKind::Polling).unwrap();
            let g2 = RandomSystemGenerator::new(params, ServerPolicyKind::Polling).unwrap();
            assert_eq!(g1.generate_one(index), g2.generate_one(index));
        }
    }
}
