//! Cross-set aggregates: AART, AIR and ASR, plus the admission/overload and
//! fault-containment row aggregates with their p50/p95/p99 columns (all
//! percentiles go through [`crate::quantile`], the workspace's single
//! quantile implementation).
//!
//! For every set of ten generated systems the paper reports
//!
//! * **AART** — the average of the per-run average response times,
//! * **AIR** — the average of the per-run interrupted-aperiodics ratios,
//! * **ASR** — the average of the per-run served-aperiodics ratios,
//!
//! which is what [`SetAggregate::from_runs`] computes. Every fold sums in
//! run order, so a harness that produces the runs on several workers hands
//! them over in generation order to stay bit-identical.

use crate::measures::{ContainmentMeasures, RunMeasures};
use crate::quantile::Quantiles;

/// The (AART, AIR, ASR) triple of one set of systems under one policy and
/// one evaluation mode (simulation or execution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetAggregate {
    /// Number of runs aggregated.
    pub runs: usize,
    /// Average of the average response times (time units). Runs in which
    /// nothing was served do not contribute (the paper's averages are over
    /// served events).
    pub aart: f64,
    /// Average interrupted-aperiodics ratio.
    pub air: f64,
    /// Average served-aperiodics ratio.
    pub asr: f64,
}

impl SetAggregate {
    /// Aggregates a set of per-run measures.
    pub fn from_runs(runs: &[RunMeasures]) -> Self {
        let n = runs.len();
        if n == 0 {
            return SetAggregate {
                runs: 0,
                aart: 0.0,
                air: 0.0,
                asr: 0.0,
            };
        }
        let with_service: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.average_response_time)
            .collect();
        let aart = if with_service.is_empty() {
            0.0
        } else {
            with_service.iter().sum::<f64>() / with_service.len() as f64
        };
        let air = runs.iter().map(|r| r.interrupted_ratio()).sum::<f64>() / n as f64;
        let asr = runs.iter().map(|r| r.served_ratio()).sum::<f64>() / n as f64;
        SetAggregate {
            runs: n,
            aart,
            air,
            asr,
        }
    }
}

/// Aggregate of the fault-containment columns of a set of runs: the mean
/// miss ratio among the *unaffected* accepted events, the mean share of
/// overrun-injected events cut off by budget enforcement, and the mean
/// value retained per run — the row format of the fault tables
/// (`rt-experiments::reproduce_faults_table`). Folding follows
/// [`SetAggregate::from_runs`]: plain run-order averages, bit-identical
/// for any worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContainmentAggregate {
    /// Number of runs aggregated.
    pub runs: usize,
    /// Mean per-run deadline-miss ratio among unaffected accepted events.
    pub unaffected_miss: f64,
    /// Mean per-run share of overrun-injected events aborted by
    /// enforcement.
    pub abort_ratio: f64,
    /// Mean accrued value per run (the measure carried across mode
    /// switches).
    pub mean_value: f64,
    /// Percentiles of the per-run accrued value, by the workspace
    /// nearest-rank rule ([`crate::quantile`]) — the same implementation
    /// the `rt-observe` summary uses, so the two can never disagree.
    pub value_quantiles: Quantiles,
}

impl ContainmentAggregate {
    /// Aggregates a set of per-run containment measures.
    pub fn from_runs(runs: &[ContainmentMeasures]) -> Self {
        let n = runs.len();
        if n == 0 {
            return ContainmentAggregate {
                runs: 0,
                unaffected_miss: 0.0,
                abort_ratio: 1.0,
                mean_value: 0.0,
                value_quantiles: Quantiles::default(),
            };
        }
        let values: Vec<f64> = runs.iter().map(|r| r.accrued_value as f64).collect();
        ContainmentAggregate {
            runs: n,
            unaffected_miss: runs.iter().map(|r| r.unaffected_miss_ratio()).sum::<f64>() / n as f64,
            abort_ratio: runs.iter().map(|r| r.abort_ratio()).sum::<f64>() / n as f64,
            mean_value: values.iter().sum::<f64>() / n as f64,
            value_quantiles: Quantiles::from_samples(&values),
        }
    }
}

/// Aggregate of the admission/overload columns of a set of runs: the mean
/// per-run acceptance ratio, the mean miss ratio among accepted
/// deadline-carrying events, the mean accrued value per run, and the AART
/// over the served events — the row format of the overload tables
/// (`rt-experiments::reproduce_overload_table`). Folding follows
/// [`SetAggregate::from_runs`]: plain run-order averages, bit-identical
/// for any worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadAggregate {
    /// Number of runs aggregated.
    pub runs: usize,
    /// Mean per-run acceptance ratio (accepted / released).
    pub acceptance: f64,
    /// Mean per-run deadline-miss ratio among accepted events.
    pub accepted_miss: f64,
    /// Mean accrued value per run (value tags of events completed by their
    /// deadlines).
    pub mean_value: f64,
    /// Average of the per-run average response times over served events.
    pub aart: f64,
    /// Percentiles of the per-run average response times (runs that served
    /// nothing do not contribute, matching the `aart` column), computed by
    /// the workspace nearest-rank rule ([`crate::quantile`]) shared with
    /// the `rt-observe` histograms.
    pub response_quantiles: Quantiles,
}

impl OverloadAggregate {
    /// Aggregates a set of per-run measures.
    pub fn from_runs(runs: &[RunMeasures]) -> Self {
        let n = runs.len();
        if n == 0 {
            return OverloadAggregate {
                runs: 0,
                acceptance: 1.0,
                accepted_miss: 0.0,
                mean_value: 0.0,
                aart: 0.0,
                response_quantiles: Quantiles::default(),
            };
        }
        let with_service: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.average_response_time)
            .collect();
        let aart = if with_service.is_empty() {
            0.0
        } else {
            with_service.iter().sum::<f64>() / with_service.len() as f64
        };
        OverloadAggregate {
            runs: n,
            acceptance: runs.iter().map(|r| r.acceptance_ratio()).sum::<f64>() / n as f64,
            accepted_miss: runs.iter().map(|r| r.accepted_miss_ratio()).sum::<f64>() / n as f64,
            mean_value: runs.iter().map(|r| r.accrued_value as f64).sum::<f64>() / n as f64,
            aart,
            response_quantiles: Quantiles::from_samples(&with_service),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(avg: Option<f64>, served: usize, interrupted: usize, released: usize) -> RunMeasures {
        RunMeasures {
            released,
            served,
            interrupted,
            average_response_time: avg,
            ..RunMeasures::default()
        }
    }

    #[test]
    fn aggregate_averages_the_per_run_measures() {
        let runs = vec![run(Some(4.0), 2, 0, 4), run(Some(8.0), 3, 1, 4)];
        let agg = SetAggregate::from_runs(&runs);
        assert_eq!(agg.runs, 2);
        assert_eq!(agg.aart, 6.0);
        assert_eq!(agg.air, 0.125);
        assert_eq!(agg.asr, 0.625);
    }

    #[test]
    fn runs_without_service_do_not_drag_the_aart() {
        let runs = vec![run(Some(10.0), 1, 0, 2), run(None, 0, 0, 3)];
        let agg = SetAggregate::from_runs(&runs);
        assert_eq!(agg.aart, 10.0);
        assert!((agg.asr - (0.5 + 0.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_set_is_all_zero() {
        let agg = SetAggregate::from_runs(&[]);
        assert_eq!(agg.runs, 0);
        assert_eq!(agg.aart, 0.0);
    }

    #[test]
    fn overload_and_containment_aggregates_carry_shared_quantiles() {
        let runs: Vec<RunMeasures> = (1..=20).map(|i| run(Some(i as f64), 1, 0, 1)).collect();
        let agg = OverloadAggregate::from_runs(&runs);
        // Nearest rank over 1..=20: p50 → rank 10, p95 → rank 19, p99 → 20.
        assert_eq!(agg.response_quantiles.p50, 10.0);
        assert_eq!(agg.response_quantiles.p95, 19.0);
        assert_eq!(agg.response_quantiles.p99, 20.0);

        let cruns: Vec<ContainmentMeasures> = (1..=10)
            .map(|i| ContainmentMeasures {
                released: 1,
                accrued_value: i,
                ..ContainmentMeasures::default()
            })
            .collect();
        let cagg = ContainmentAggregate::from_runs(&cruns);
        assert_eq!(cagg.value_quantiles.p50, 5.0);
        assert_eq!(cagg.value_quantiles.p99, 10.0);
        assert_eq!(cagg.mean_value, 5.5);
    }
}
