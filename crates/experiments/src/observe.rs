//! `repro observe` — probe-instrumented reproduction.
//!
//! Re-runs the paper's generated sets with an [`rt_observe::MetricsProbe`]
//! attached to every engine run and renders a per-set summary of what the
//! schedulers actually did: decision points, dispatches, preemptions,
//! admission verdicts, and the virtual-time response / backlog quantiles.
//! The runs stream through the same one-pass worker pool the tables use,
//! each worker folding its per-run probes into per-set shards; because
//! [`MetricsProbe::merge`] is element-wise `u64` addition (commutative and
//! associative), the printed summary is **bit-identical for any
//! `--workers` count and any work interleaving** — the harness determinism
//! guarantee extended from traces to metrics.
//!
//! `repro observe --trace-out <path>` additionally runs the paper's Figure
//! scenarios with an [`rt_observe::SpanProbe`] on the execution engine and
//! writes the recording as Chrome trace-event JSON, loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).

use crate::pool;
use crate::scenarios::{scenario_system, Scenario};
use crate::tables::{paper_generator, stream_items, EvaluationMode, PaperTable, TableConfig};
use rt_metrics::SET_ORDER;
use rt_model::{SystemSpec, Trace, TICKS_PER_UNIT};
use rt_observe::{chrome_trace_json, MetricsProbe, Probe, SpanProbe, UnitNames};
use rt_taskserver::{execute_with_probe, ExecutionConfig};
use std::fmt;

/// Runs one system in the requested mode with `probe` attached — the
/// observed counterpart of [`crate::tables::run_system`]. The produced
/// trace is byte-identical to the unobserved run (probes observe, they
/// never decide); pass `&mut probe` to keep the recording.
pub fn run_system_observed<P: Probe>(system: &SystemSpec, mode: EvaluationMode, probe: P) -> Trace {
    match mode {
        EvaluationMode::Simulation => rtss_sim::simulate_with_probe(system, probe),
        EvaluationMode::Execution => {
            execute_with_probe(system, &ExecutionConfig::reference(), probe)
        }
    }
}

/// The merged observation of one paper set: every generated system of the
/// set run once, all per-run probes folded together.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedSet {
    /// The paper set `(density, std deviation)`.
    pub set: (u32, u32),
    /// Systems observed.
    pub systems: usize,
    /// The merged per-run probes (trace-derived histograms absorbed).
    pub probe: MetricsProbe,
}

/// The observed reproduction of one paper table: one [`ObservedSet`] per
/// set, in [`SET_ORDER`].
#[derive(Debug, Clone, PartialEq)]
pub struct ObserveReport {
    /// Table caption the observation belongs to.
    pub caption: String,
    /// Per-set merged observations.
    pub sets: Vec<ObservedSet>,
}

/// Re-runs a paper table with a metrics probe on every run and returns the
/// per-set merged observations.
///
/// Determinism: one pool pass over the same `(set, index)` items as the
/// table harness; the worker that claims one generates that system with the
/// set's identically seeded generator, records its run into a fresh probe
/// and merges it into its own per-set shard, and the shards merge by
/// element-wise addition — so the report is bit-identical for any
/// `workers`, including 1.
pub fn observe_table(table: PaperTable, config: &TableConfig, workers: usize) -> ObserveReport {
    let mode = table.mode();
    let generators = SET_ORDER.map(|set| paper_generator(set, table.policy(), config));
    let shards = pool::parallel_shards(
        &stream_items(&generators),
        workers,
        || SET_ORDER.map(|_| MetricsProbe::new()),
        |acc, _, &(set_index, index)| {
            let mut probe = MetricsProbe::new();
            let system = generators[set_index].generate_one(index);
            let trace = run_system_observed(&system, mode, &mut probe);
            probe.absorb_trace(&trace);
            acc[set_index].merge(&probe);
        },
    );
    let mut merged = SET_ORDER.map(|_| MetricsProbe::new());
    for shard in shards {
        for (into, partial) in merged.iter_mut().zip(shard.iter()) {
            into.merge(partial);
        }
    }
    ObserveReport {
        caption: table.caption().to_string(),
        sets: SET_ORDER
            .iter()
            .zip(merged)
            .map(|(&set, probe)| ObservedSet {
                set,
                systems: config.systems_per_set,
                probe,
            })
            .collect(),
    }
}

/// Ticks → paper time units, for printing histogram quantiles.
fn units(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_UNIT as f64
}

impl fmt::Display for ObserveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== observed: {} ===", self.caption)?;
        writeln!(
            f,
            "{:>8} {:>10} {:>10} {:>8} {:>9} {:>7} {:>7} {:>7} {:>9} {:>9} {:>9} {:>9}",
            "set",
            "decisions",
            "dispatches",
            "preempt",
            "releases",
            "acc",
            "rej",
            "abort",
            "resp-p50",
            "resp-p95",
            "resp-p99",
            "qdep-p95",
        )?;
        for observed in &self.sets {
            let c = &observed.probe.counters;
            writeln!(
                f,
                "{:>8} {:>10} {:>10} {:>8} {:>9} {:>7} {:>7} {:>7} {:>9.2} {:>9.2} {:>9.2} {:>9}",
                format!("({},{})", observed.set.0, observed.set.1),
                c.decisions,
                c.dispatches,
                c.preemptions,
                c.releases,
                c.admission_accepted,
                c.admission_rejected,
                c.admission_aborted,
                units(observed.probe.response.percentile(50.0)),
                units(observed.probe.response.percentile(95.0)),
                units(observed.probe.response.percentile(99.0)),
                observed.probe.queue_depth.percentile(95.0),
            )?;
        }
        Ok(())
    }
}

/// Runs one Figure scenario on the execution engine with a span probe and
/// renders the recording as Chrome trace-event JSON — the payload behind
/// `repro observe --trace-out <path>` (which exports Figure 4's Scenario
/// Three, the richest of the paper's hand-worked schedules).
///
/// The execution driver is used because its recording is the richest:
/// event fires and the overhead lanes appear alongside the named task
/// and handler slices. One run, one virtual timeline — so the exported
/// slice and mark streams are monotone in `ts`, the property the CI
/// parse-check (`rt_bench::validate_chrome_trace`) pins.
pub fn chrome_trace_for_scenario(scenario: Scenario) -> String {
    let spec = scenario_system(scenario);
    let mut spans = SpanProbe::new();
    let _ = execute_with_probe(&spec, &ExecutionConfig::reference(), &mut spans);
    chrome_trace_json(&spans, &UnitNames::from_spec(&spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> TableConfig {
        TableConfig {
            systems_per_set: 2,
            ..TableConfig::default()
        }
    }

    #[test]
    fn observed_tables_are_worker_count_invariant() {
        let config = quick();
        let sequential = observe_table(PaperTable::Table2PsSimulation, &config, 1);
        for workers in [2, 3, 8] {
            assert_eq!(
                sequential,
                observe_table(PaperTable::Table2PsSimulation, &config, workers),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn observed_tables_count_real_work_on_both_engines() {
        let config = quick();
        for table in [
            PaperTable::Table2PsSimulation,
            PaperTable::Table3PsExecution,
        ] {
            let report = observe_table(table, &config, 2);
            assert_eq!(report.sets.len(), SET_ORDER.len());
            for observed in &report.sets {
                assert!(observed.probe.counters.decisions > 0, "{}", report.caption);
                assert!(observed.probe.counters.releases > 0, "{}", report.caption);
                assert!(observed.probe.response.count() > 0, "{}", report.caption);
            }
        }
    }

    #[test]
    fn scenario_chrome_trace_has_spans_and_marks() {
        let json = chrome_trace_for_scenario(Scenario::Three);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("tau1"));
        // A handler slice is named by its event's id.
        assert!(json.contains("{\"name\":\"e0\",\"cat\":\"handler\",\"ph\":\"X\""));
    }
}
