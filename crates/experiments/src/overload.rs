//! The overload workload family: sustained aperiodic overload swept across
//! load multipliers and admission policies, on both execution substrates.
//!
//! This is the evaluation surface of the `rt-admission` subsystem: the
//! generator's paper baseline is pushed from half load to four times its
//! nominal arrival rate, every event carries a cost-proportional deadline
//! and a random value tag, and the same systems run under each
//! [`AdmissionPolicy`]. The table reports, per (load, policy) cell and per
//! engine: the acceptance ratio, the deadline-miss ratio *among accepted
//! events* (what a predictive policy buys with its rejections), the mean
//! accrued value per run, and the AART of the served events.
//!
//! The whole sweep is one pool pass ([`crate::pool`]) over every
//! `(cell, index)` pair: the worker that claims one generates that system,
//! executes and simulates it, and returns both measures. The pool returns
//! them in generation order, so the rows are bit-identical for any worker
//! count.

use crate::tables::{paper_generator, run_system, stream_systems, EvaluationMode, TableConfig};
use rt_metrics::{OverloadAggregate, RunMeasures};
use rt_model::{AdmissionPolicy, ServerPolicyKind, SystemSpec};
use rt_sysgen::{RandomSystemGenerator, ValueModel};
use std::fmt;

/// Load multipliers of the sweep: half load → nominal → 2× → 4× overload.
pub const OVERLOAD_LOADS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

/// The admission policies compared by the sweep.
pub const OVERLOAD_POLICIES: [AdmissionPolicy; 3] = [
    AdmissionPolicy::AcceptAll,
    AdmissionPolicy::DeadlinePredictive,
    AdmissionPolicy::ValueDensity,
];

/// One `(load, policy)` cell of the overload table, evaluated on both
/// engines over the same generated systems.
#[derive(Debug, Clone, Copy)]
pub struct OverloadRow {
    /// Arrival-rate multiplier applied to the generator's task density.
    pub load: f64,
    /// Admission policy stamped on the generated server.
    pub policy: AdmissionPolicy,
    /// Aggregate over the framework executions (reference overheads).
    pub execution: OverloadAggregate,
    /// Aggregate over the literature-exact simulations.
    pub simulation: OverloadAggregate,
}

/// The overload sweep: one row per `(load, policy)` pair.
#[derive(Debug, Clone)]
pub struct OverloadTable {
    /// Table caption.
    pub caption: String,
    /// Rows in `(load, policy)` sweep order.
    pub rows: Vec<OverloadRow>,
}

impl OverloadTable {
    /// The row of one `(load, policy)` cell.
    pub fn get(&self, load: f64, policy: AdmissionPolicy) -> Option<&OverloadRow> {
        self.rows
            .iter()
            .find(|r| r.load == load && r.policy == policy)
    }
}

impl fmt::Display for OverloadTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.caption)?;
        writeln!(
            f,
            "{:>5} {:>10} | {:>7} {:>7} {:>10} {:>8} | {:>7} {:>7} {:>10} {:>8}",
            "load",
            "policy",
            "acc(ex)",
            "miss(ex)",
            "value(ex)",
            "AART(ex)",
            "acc(si)",
            "miss(si)",
            "value(si)",
            "AART(si)"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:>4}x {:>10} | {:>7.2} {:>8.2} {:>10.0} {:>8.2} | {:>7.2} {:>8.2} {:>10.0} {:>8.2}",
                row.load,
                row.policy.label(),
                row.execution.acceptance,
                row.execution.accepted_miss,
                row.execution.mean_value,
                row.execution.aart,
                row.simulation.acceptance,
                row.simulation.accepted_miss,
                row.simulation.mean_value,
                row.simulation.aart,
            )?;
        }
        Ok(())
    }
}

/// The generator of [`generate_overload_set`].
fn overload_generator(
    load: f64,
    policy: AdmissionPolicy,
    config: &TableConfig,
) -> RandomSystemGenerator {
    paper_generator((2, 0), ServerPolicyKind::Polling, config)
        .with_overload_factor(load)
        .with_aperiodic_deadline_factor(6)
        .with_value_model(ValueModel::UniformDensity { lo: 1, hi: 8 })
        .with_admission(policy)
}

/// Generates the overload set of one `(load, policy)` cell: the paper's
/// (2,0) baseline server (polling — the policy whose arrival-time
/// predictions are exact) with the arrival rate multiplied by `load`,
/// cost-proportional deadlines (factor 6), uniform random value densities
/// 1..=8 from the dedicated value stream, and the admission policy stamped
/// on the server. For a fixed `load` every policy sees byte-identical
/// traffic (the knobs are stream-preserving).
pub fn generate_overload_set(
    load: f64,
    policy: AdmissionPolicy,
    config: &TableConfig,
) -> Vec<SystemSpec> {
    overload_generator(load, policy, config).generate()
}

/// Reproduces the overload table: `OVERLOAD_LOADS` × `OVERLOAD_POLICIES`,
/// each cell executed (reference overheads) and simulated over the same
/// generated systems, streamed over `workers` threads. Bit-identical for
/// any worker count.
pub fn reproduce_overload_table(config: &TableConfig, workers: usize) -> OverloadTable {
    let cells: Vec<(f64, AdmissionPolicy)> = OVERLOAD_LOADS
        .iter()
        .flat_map(|&load| OVERLOAD_POLICIES.iter().map(move |&policy| (load, policy)))
        .collect();
    let generators: Vec<RandomSystemGenerator> = cells
        .iter()
        .map(|&(load, policy)| overload_generator(load, policy, config))
        .collect();
    let runs = stream_systems(&generators, workers, |system| {
        let measure = |mode| RunMeasures::from_trace(&run_system(&system, mode));
        (
            measure(EvaluationMode::Execution),
            measure(EvaluationMode::Simulation),
        )
    });
    let rows = cells
        .into_iter()
        .zip(runs)
        .map(|((load, policy), runs)| {
            let (execution, simulation): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
            OverloadRow {
                load,
                policy,
                execution: OverloadAggregate::from_runs(&execution),
                simulation: OverloadAggregate::from_runs(&simulation),
            }
        })
        .collect();
    OverloadTable {
        caption: format!(
            "Overload sweep — paper set (2,0), PS, deadlines 6x cost, values U(1..8), \
             {} systems/cell ({} discipline)",
            config.systems_per_set,
            config.discipline.label()
        ),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> TableConfig {
        TableConfig {
            systems_per_set: 3,
            seed: 1983,
            ..TableConfig::default()
        }
    }

    #[test]
    fn policies_see_identical_traffic_per_load() {
        for &load in &OVERLOAD_LOADS {
            let accept = generate_overload_set(load, AdmissionPolicy::AcceptAll, &quick());
            let predictive =
                generate_overload_set(load, AdmissionPolicy::DeadlinePredictive, &quick());
            for (a, b) in accept.iter().zip(predictive.iter()) {
                assert_eq!(a.aperiodics, b.aperiodics, "load {load}");
                assert_eq!(
                    b.server().unwrap().admission,
                    AdmissionPolicy::DeadlinePredictive
                );
            }
        }
    }

    #[test]
    fn overload_sweep_shows_graceful_degradation() {
        let table = reproduce_overload_table(&quick(), 1);
        assert_eq!(
            table.rows.len(),
            OVERLOAD_LOADS.len() * OVERLOAD_POLICIES.len()
        );
        // Accept-all admits everything, at every load.
        for &load in &OVERLOAD_LOADS {
            let row = table.get(load, AdmissionPolicy::AcceptAll).unwrap();
            assert_eq!(row.execution.acceptance, 1.0);
            assert_eq!(row.simulation.acceptance, 1.0);
        }
        let heavy_accept = table.get(4.0, AdmissionPolicy::AcceptAll).unwrap();
        let heavy_predictive = table.get(4.0, AdmissionPolicy::DeadlinePredictive).unwrap();
        // Under 4× overload the predictive policy sheds load at arrival…
        assert!(
            heavy_predictive.execution.acceptance < 1.0,
            "predictive admission must reject under overload"
        );
        // …and pays for it with a near-clean record among the accepted
        // events on both engines (exact on the simulator; the execution may
        // graze deadlines by the unmodelled dispatch overheads).
        assert_eq!(heavy_predictive.simulation.accepted_miss, 0.0);
        assert!(
            heavy_predictive.execution.accepted_miss < heavy_accept.execution.accepted_miss,
            "predictive admission must miss less among accepted events \
             ({} vs {})",
            heavy_predictive.execution.accepted_miss,
            heavy_accept.execution.accepted_miss
        );
        assert!(
            heavy_accept.execution.accepted_miss > 0.3,
            "accept-all must thrash under 4x overload"
        );
    }

    #[test]
    fn rendering_lists_every_cell() {
        let mut config = quick();
        config.systems_per_set = 1;
        let table = reproduce_overload_table(&config, 2);
        let rendered = table.to_string();
        assert!(rendered.contains("acc(ex)"));
        assert!(rendered.contains("dover"));
        assert!(rendered.contains("predictive"));
    }
}
