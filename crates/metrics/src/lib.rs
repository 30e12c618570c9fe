//! # rt-metrics — the paper's evaluation measures
//!
//! Per-run measures (average response time of served events, interrupted
//! ratio, served ratio), the cross-set aggregates AART / AIR / ASR of Tables
//! 2–5, paper-style table formatting, the published reference values and the
//! qualitative shape checks used to compare the reproduction against them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod hist;
pub mod measures;
pub mod quantile;
pub mod table;

pub use aggregate::{ContainmentAggregate, OverloadAggregate, SetAggregate};
pub use hist::TickHistogram;
pub use measures::{ContainmentMeasures, RunMeasures};
pub use quantile::{nearest_rank, percentile_sorted, Quantiles};
pub use table::{paper, shape, ResultTable, SET_ORDER};

#[cfg(test)]
mod proptests {
    //! Randomised property tests. The offline build environment has no
    //! `proptest`, so the same properties are exercised over many seeded,
    //! deterministic random cases instead of shrinking strategies.

    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rt_model::{AperiodicFate, AperiodicOutcome, EventId, Instant, Span};

    fn random_outcome(rng: &mut StdRng) -> AperiodicOutcome {
        let id: u32 = rng.gen_range(0u64..1000) as u32;
        let release = Instant::from_units(rng.gen_range(0u64..100));
        let cost = rng.gen_range(1u64..10);
        let kind = rng.gen_range(0u64..3);
        let extra = rng.gen_range(0u64..50);
        let fate = match kind {
            0 => AperiodicFate::Served {
                started: release + Span::from_units(extra),
                completed: release + Span::from_units(extra + cost),
            },
            1 => AperiodicFate::Interrupted {
                started: release + Span::from_units(extra),
                interrupted_at: release + Span::from_units(extra + 1),
            },
            _ => AperiodicFate::Unserved,
        };
        AperiodicOutcome::new(EventId::new(id), release, Span::from_units(cost), fate)
    }

    fn random_outcomes(rng: &mut StdRng, min: usize, max: usize) -> Vec<AperiodicOutcome> {
        let n = rng.gen_range(min..max);
        (0..n).map(|_| random_outcome(rng)).collect()
    }

    /// Ratios always lie in [0, 1] and served + interrupted never exceeds
    /// the number of released events.
    #[test]
    fn ratios_are_well_bounded() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0001);
        for _ in 0..256 {
            let outcomes = random_outcomes(&mut rng, 0, 50);
            let m = RunMeasures::from_outcomes(&outcomes);
            assert!(m.served + m.interrupted <= m.released);
            assert!((0.0..=1.0).contains(&m.served_ratio()));
            assert!((0.0..=1.0).contains(&m.interrupted_ratio()));
            if let Some(aart) = m.average_response_time {
                assert!(aart >= 0.0);
            }
        }
    }

    /// Aggregating identical runs reproduces the per-run values.
    #[test]
    fn aggregate_of_identical_runs_is_the_run() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0002);
        for _ in 0..256 {
            let outcomes = random_outcomes(&mut rng, 1, 20);
            let copies = rng.gen_range(1u64..10) as usize;
            let run = RunMeasures::from_outcomes(&outcomes);
            let agg = SetAggregate::from_runs(&vec![run; copies]);
            assert_eq!(agg.runs, copies);
            assert!((agg.asr - run.served_ratio()).abs() < 1e-9);
            assert!((agg.air - run.interrupted_ratio()).abs() < 1e-9);
            if let Some(aart) = run.average_response_time {
                assert!((agg.aart - aart).abs() < 1e-9);
            }
        }
    }
}
