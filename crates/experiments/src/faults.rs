//! The fault-injection workload family: overrun, arrival-noise and
//! mode-change scenarios over the paper's overload baseline, evaluated for
//! **containment** on both execution substrates.
//!
//! This is the evaluation surface of the fault-injection layer
//! (`rt_model::FaultPlan`): the same 2× overload traffic runs once clean
//! and once under each fault family, and the table reports how well budget
//! enforcement isolated the injected faults — the deadline-miss ratio among
//! the *unaffected* accepted events (zero when overruns never propagate),
//! the share of overrun-injected events cut off at their declared budgets
//! (`Aborted` fates), and the value retained per run (the measure carried
//! across mode switches).
//!
//! The whole sweep is one pool pass ([`crate::pool`]) over every
//! `(scenario, index)` pair: the worker that claims one generates that
//! system, executes and simulates it, and returns both measures. The pool
//! returns them in generation order, so the rows are bit-identical for any
//! worker count.

use crate::tables::{
    config_systems, paper_generator, run_system, stream_systems, EvaluationMode, TableConfig,
};
use rt_metrics::{ContainmentAggregate, ContainmentMeasures};
use rt_model::{AdmissionPolicy, Instant, ModeChange, ServerPolicyKind, Span, SystemSpec};
use rt_sysgen::{FaultModel, RandomSystemGenerator, ValueModel};
use std::fmt;

/// The fault scenarios of the sweep, all over byte-identical 2× overload
/// traffic (the fault knobs are stream-preserving).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScenario {
    /// No faults: the containment reference row.
    Baseline,
    /// 25% of the events overrun their declared cost by 2×.
    OverrunLight,
    /// Half of the events overrun their declared cost by 3×.
    OverrunHeavy,
    /// Arrival noise: 25% of the releases jittered by up to 2 units, 10%
    /// dropped before release.
    ArrivalNoise,
    /// A capacity mode change: the server budget shrinks 4 → 2 units at
    /// mid-horizon (applied at the first quiescent instant).
    ModeShrink,
    /// A policy mode change: the deferrable server degrades to background
    /// servicing at mid-horizon, lifting its capacity cap.
    ModeSwap,
}

/// Sweep order of the fault table.
pub const FAULT_SCENARIOS: [FaultScenario; 6] = [
    FaultScenario::Baseline,
    FaultScenario::OverrunLight,
    FaultScenario::OverrunHeavy,
    FaultScenario::ArrivalNoise,
    FaultScenario::ModeShrink,
    FaultScenario::ModeSwap,
];

/// Instant of the mode-change scenarios: the middle of the ten-period
/// observation horizon of the paper set (period 6 → horizon 60).
const MODE_CHANGE_AT: Instant = Instant::from_units(30);

impl FaultScenario {
    /// Row label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultScenario::Baseline => "baseline",
            FaultScenario::OverrunLight => "overrun-25%",
            FaultScenario::OverrunHeavy => "overrun-50%",
            FaultScenario::ArrivalNoise => "arrival-noise",
            FaultScenario::ModeShrink => "mode-shrink",
            FaultScenario::ModeSwap => "mode-swap-bg",
        }
    }

    /// Server policy of the scenario's generated systems: polling (exact
    /// arrival-time predictions) everywhere except the policy-swap
    /// scenario, which needs a deferrable lane (polling lanes cannot swap:
    /// their schedulable body is a periodic thread).
    fn server_policy(&self) -> ServerPolicyKind {
        match self {
            FaultScenario::ModeSwap => ServerPolicyKind::Deferrable,
            _ => ServerPolicyKind::Polling,
        }
    }

    /// The stochastic fault family of the scenario, if any.
    pub fn fault_model(&self) -> Option<FaultModel> {
        match self {
            FaultScenario::OverrunLight => Some(FaultModel::overruns(0.25, 2)),
            FaultScenario::OverrunHeavy => Some(FaultModel::overruns(0.5, 3)),
            FaultScenario::ArrivalNoise => {
                Some(FaultModel::arrivals(0.25, Span::from_units(2), 0.1))
            }
            _ => None,
        }
    }

    /// The deterministic mode schedule of the scenario, if any.
    pub fn mode_schedule(&self) -> Vec<ModeChange> {
        match self {
            FaultScenario::ModeShrink => {
                vec![ModeChange::at(MODE_CHANGE_AT, 0).with_capacity(Span::from_units(2))]
            }
            FaultScenario::ModeSwap => {
                vec![ModeChange::at(MODE_CHANGE_AT, 0).with_policy(ServerPolicyKind::Background)]
            }
            _ => Vec::new(),
        }
    }
}

/// One scenario row of the fault table, evaluated on both engines over the
/// same generated systems.
#[derive(Debug, Clone, Copy)]
pub struct FaultRow {
    /// The injected fault scenario.
    pub scenario: FaultScenario,
    /// Aggregate over the framework executions (reference overheads).
    pub execution: ContainmentAggregate,
    /// Aggregate over the literature-exact simulations.
    pub simulation: ContainmentAggregate,
}

/// The fault-containment sweep: one row per scenario.
#[derive(Debug, Clone)]
pub struct FaultTable {
    /// Table caption.
    pub caption: String,
    /// Rows in [`FAULT_SCENARIOS`] order.
    pub rows: Vec<FaultRow>,
}

impl FaultTable {
    /// The row of one scenario.
    pub fn get(&self, scenario: FaultScenario) -> Option<&FaultRow> {
        self.rows.iter().find(|r| r.scenario == scenario)
    }
}

impl fmt::Display for FaultTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.caption)?;
        writeln!(
            f,
            "{:>13} | {:>8} {:>9} {:>10} | {:>8} {:>9} {:>10}",
            "scenario", "miss(ex)", "abort(ex)", "value(ex)", "miss(si)", "abort(si)", "value(si)"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:>13} | {:>8.2} {:>9.2} {:>10.0} | {:>8.2} {:>9.2} {:>10.0}",
                row.scenario.label(),
                row.execution.unaffected_miss,
                row.execution.abort_ratio,
                row.execution.mean_value,
                row.simulation.unaffected_miss,
                row.simulation.abort_ratio,
                row.simulation.mean_value,
            )?;
        }
        Ok(())
    }
}

/// The generator of [`generate_fault_set`].
fn fault_generator(scenario: FaultScenario, config: &TableConfig) -> RandomSystemGenerator {
    let generator = paper_generator((2, 0), scenario.server_policy(), config)
        .with_overload_factor(2.0)
        .with_aperiodic_deadline_factor(6)
        .with_value_model(ValueModel::UniformDensity { lo: 1, hi: 8 })
        .with_admission(AdmissionPolicy::DeadlinePredictive);
    let generator = match scenario.fault_model() {
        Some(model) => generator
            .with_fault_model(model)
            // rt-lint: allow(panic, reason = "the fault scenarios enumerate hand-written, well-formed fault models")
            .expect("scenario fault models are well-formed"),
        None => generator,
    };
    generator.with_mode_schedule(scenario.mode_schedule())
}

/// Generates the system set of one fault scenario: the paper's (2,0)
/// baseline at 2× overload, cost-proportional deadlines (factor 6),
/// uniform random value densities 1..=8, deadline-predictive admission,
/// and the scenario's fault model / mode schedule stamped on top. The
/// fault knobs draw from a dedicated RNG stream, so every scenario sees
/// byte-identical traffic.
pub fn generate_fault_set(scenario: FaultScenario, config: &TableConfig) -> Vec<SystemSpec> {
    config_systems(&fault_generator(scenario, config), config)
}

/// Reproduces the fault-containment table: every [`FAULT_SCENARIOS`] row
/// executed (reference overheads) and simulated over the same generated
/// systems, streamed over `workers` threads. Bit-identical for any worker
/// count.
pub fn reproduce_faults_table(config: &TableConfig, workers: usize) -> FaultTable {
    let generators = FAULT_SCENARIOS.map(|scenario| fault_generator(scenario, config));
    let runs = stream_systems(&generators, config, workers, |system| {
        let measure =
            |mode| ContainmentMeasures::from_trace(&run_system(&system, mode), &system.faults);
        (
            measure(EvaluationMode::Execution),
            measure(EvaluationMode::Simulation),
        )
    });
    let rows = FAULT_SCENARIOS
        .into_iter()
        .zip(runs)
        .map(|(scenario, runs)| {
            let (execution, simulation): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
            FaultRow {
                scenario,
                execution: ContainmentAggregate::from_runs(&execution),
                simulation: ContainmentAggregate::from_runs(&simulation),
            }
        })
        .collect();
    FaultTable {
        caption: format!(
            "Fault containment — paper set (2,0) at 2x load, predictive admission, \
             deadlines 6x cost, values U(1..8), {} systems/row ({} discipline)",
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
    fn every_scenario_sees_identical_traffic() {
        let baseline = generate_fault_set(FaultScenario::Baseline, &quick());
        for &scenario in &FAULT_SCENARIOS[1..] {
            let faulted = generate_fault_set(scenario, &quick());
            for (a, b) in baseline.iter().zip(faulted.iter()) {
                assert_eq!(
                    a.aperiodics,
                    b.aperiodics,
                    "scenario {} must not perturb the traffic",
                    scenario.label()
                );
                assert!(!b.faults.is_empty(), "scenario {}", scenario.label());
                assert!(b.validate().is_ok());
            }
        }
    }

    #[test]
    fn overruns_are_contained_on_both_engines() {
        // The acceptance scenario of the fault layer: under an
        // overrun-injected overload, every overrun is cut off at its
        // declared budget and no unaffected accepted event misses its
        // deadline — on either engine.
        let systems = generate_fault_set(FaultScenario::OverrunHeavy, &quick());
        for mode in [EvaluationMode::Simulation, EvaluationMode::Execution] {
            let mut aborted = 0;
            for system in &systems {
                let trace = run_system(system, mode);
                let measures = ContainmentMeasures::from_trace(&trace, &system.faults);
                assert!(measures.affected > 0, "the 50% model must tag events");
                assert_eq!(
                    measures.unaffected_misses, 0,
                    "{mode:?}: an injected overrun leaked past its budget"
                );
                aborted += measures.aborted_affected;
            }
            assert!(aborted > 0, "{mode:?}: enforcement must abort overruns");
        }
    }

    #[test]
    fn mode_switches_retain_value() {
        let table = reproduce_faults_table(&quick(), 1);
        assert_eq!(table.rows.len(), FAULT_SCENARIOS.len());
        let baseline = table.get(FaultScenario::Baseline).unwrap();
        let shrink = table.get(FaultScenario::ModeShrink).unwrap();
        let swap = table.get(FaultScenario::ModeSwap).unwrap();
        for row in [baseline, shrink, swap] {
            assert!(row.simulation.mean_value > 0.0);
            assert!(row.execution.mean_value > 0.0);
        }
        // Shrinking the budget can only lose value against the baseline.
        assert!(shrink.simulation.mean_value <= baseline.simulation.mean_value);
    }

    #[test]
    fn rendering_lists_every_scenario() {
        let mut config = quick();
        config.systems_per_set = 1;
        let table = reproduce_faults_table(&config, 2);
        let rendered = table.to_string();
        for &scenario in &FAULT_SCENARIOS {
            assert!(rendered.contains(scenario.label()));
        }
    }
}
