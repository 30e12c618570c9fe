//! Regeneration of Tables 2–5: the six generated sets, simulated and
//! executed under the Polling and Deferrable server policies.
//!
//! Every system of a table is independent, so the harness streams the work
//! over a [`crate::pool`] worker pool in one pass: the worker that claims
//! the `index`-th system of a set generates it with
//! [`RandomSystemGenerator::generate_one`] (each system owns its RNG
//! stream, seeded exactly as the sequential path seeds it), runs it at once
//! and returns its measures. The pool hands the measures back in generation
//! order and each set folds them as [`reproduce_table`] does, so the table
//! is bit-identical to it for any worker count.

use crate::pool;
use rt_analysis::{edf_feasible_system, periodic_set_feasible_with_servers};
use rt_metrics::{ResultTable, RunMeasures, SetAggregate, SET_ORDER};
use rt_model::{QueueDiscipline, SchedulingPolicy, ServerPolicyKind, SystemSpec, Trace};
use rt_sysgen::{ExtraServer, GeneratorParams, PeriodicLoad, RandomSystemGenerator};
use rt_taskserver::{execute, ExecutionConfig};
use rtss_sim::simulate;
use std::fmt;

/// Whether a table reports simulations (literature-exact policies, RTSS) or
/// executions (the task-server framework on the emulated RTSJ runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvaluationMode {
    /// Discrete-event simulation of the textbook policy.
    Simulation,
    /// Execution of the framework implementation with the reference
    /// overhead model.
    Execution,
}

/// Identifies one of the paper's four result tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperTable {
    /// Table 2: Polling Server simulations.
    Table2PsSimulation,
    /// Table 3: Polling Server executions.
    Table3PsExecution,
    /// Table 4: Deferrable Server simulations.
    Table4DsSimulation,
    /// Table 5: Deferrable Server executions.
    Table5DsExecution,
}

impl PaperTable {
    /// The server policy evaluated by the table.
    pub fn policy(&self) -> ServerPolicyKind {
        match self {
            PaperTable::Table2PsSimulation | PaperTable::Table3PsExecution => {
                ServerPolicyKind::Polling
            }
            PaperTable::Table4DsSimulation | PaperTable::Table5DsExecution => {
                ServerPolicyKind::Deferrable
            }
        }
    }

    /// Simulation or execution.
    pub fn mode(&self) -> EvaluationMode {
        match self {
            PaperTable::Table2PsSimulation | PaperTable::Table4DsSimulation => {
                EvaluationMode::Simulation
            }
            PaperTable::Table3PsExecution | PaperTable::Table5DsExecution => {
                EvaluationMode::Execution
            }
        }
    }

    /// Caption used when printing.
    pub fn caption(&self) -> &'static str {
        match self {
            PaperTable::Table2PsSimulation => "Table 2 — Measures on Polling Server simulations",
            PaperTable::Table3PsExecution => "Table 3 — Measures on Polling Server executions",
            PaperTable::Table4DsSimulation => "Table 4 — Measures on Deferrable Server simulations",
            PaperTable::Table5DsExecution => "Table 5 — Measures on Deferrable Server executions",
        }
    }

    /// The values published in the paper for this table.
    fn paper_values(&self) -> rt_metrics::paper::PaperRows {
        match self {
            PaperTable::Table2PsSimulation => rt_metrics::paper::TABLE2_PS_SIMULATION,
            PaperTable::Table3PsExecution => rt_metrics::paper::TABLE3_PS_EXECUTION,
            PaperTable::Table4DsSimulation => rt_metrics::paper::TABLE4_DS_SIMULATION,
            PaperTable::Table5DsExecution => rt_metrics::paper::TABLE5_DS_EXECUTION,
        }
    }

    /// All four tables.
    pub fn all() -> [PaperTable; 4] {
        [
            PaperTable::Table2PsSimulation,
            PaperTable::Table3PsExecution,
            PaperTable::Table4DsSimulation,
            PaperTable::Table5DsExecution,
        ]
    }
}

/// Configuration of a table reproduction run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableConfig {
    /// Number of systems per set (the paper uses 10).
    pub systems_per_set: usize,
    /// Random seed (the paper uses 1983).
    pub seed: u64,
    /// Scheduling policy stamped on every generated system (fixed
    /// priorities, the paper's scheduler, by default). Generation streams
    /// are identical either way; only the dispatching of the runs changes.
    pub scheduling: SchedulingPolicy,
    /// Queue-service discipline stamped on every generated server
    /// (FIFO-with-skip, the paper's rule, by default).
    pub discipline: QueueDiscipline,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig {
            systems_per_set: 10,
            seed: 1983,
            scheduling: SchedulingPolicy::FixedPriority,
            discipline: QueueDiscipline::FifoSkip,
        }
    }
}

/// The generator of one paper set under the given policy. Its batch size is
/// at least 1, the least a generator accepts; reproductions take
/// `config.systems_per_set` of its systems ([`config_systems`],
/// [`stream_systems`]), so a config of 0 systems gives empty sets.
pub(crate) fn paper_generator(
    set: (u32, u32),
    policy: ServerPolicyKind,
    config: &TableConfig,
) -> RandomSystemGenerator {
    let mut params = GeneratorParams::paper_set(set.0, set.1);
    params.nb_generation = config.systems_per_set.max(1);
    params.seed = config.seed;
    RandomSystemGenerator::new(params, policy)
        // rt-lint: allow(panic, reason = "the paper's fixed generator parameter sets are statically known to pass validation")
        .expect("paper parameters are valid")
        .with_scheduling(config.scheduling)
        .with_discipline(config.discipline)
}

/// The first `config.systems_per_set` systems of `generator`, in generation
/// order.
pub(crate) fn config_systems(
    generator: &RandomSystemGenerator,
    config: &TableConfig,
) -> Vec<SystemSpec> {
    (0..config.systems_per_set)
        .map(|index| generator.generate_one(index))
        .collect()
}

/// Generates the systems of one paper set under the given policy.
pub fn generate_set(
    set: (u32, u32),
    policy: ServerPolicyKind,
    config: &TableConfig,
) -> Vec<SystemSpec> {
    config_systems(&paper_generator(set, policy, config), config)
}

/// The generator of [`generate_multi_server_set`].
fn multi_server_generator(
    set: (u32, u32),
    policies: &[ServerPolicyKind],
    config: &TableConfig,
) -> RandomSystemGenerator {
    assert!(!policies.is_empty(), "at least one server policy required");
    let generator = paper_generator(set, policies[0], config);
    let params = generator.params();
    let extras: Vec<ExtraServer> = policies[1..]
        .iter()
        .map(|&policy| ExtraServer::new(policy, params.server_capacity, params.server_period))
        .collect();
    generator
        .with_extra_servers(extras)
        // rt-lint: allow(panic, reason = "the multi-server table uses at most three extra servers, which fits the priority range by construction")
        .expect("paper-sized multi-server sets fit the priority range")
}

/// Generates the systems of one paper set on a **multi-server** system: the
/// first policy is the primary (paper-parameter) server, every further
/// policy adds a server of the same capacity/period directly below it, and
/// the generator routes each aperiodic event uniformly at random across the
/// servers. With a single policy this is exactly [`generate_set`].
pub fn generate_multi_server_set(
    set: (u32, u32),
    policies: &[ServerPolicyKind],
    config: &TableConfig,
) -> Vec<SystemSpec> {
    config_systems(&multi_server_generator(set, policies, config), config)
}

/// Streams the first `config.systems_per_set` systems of every generator
/// through one pool pass: the worker that claims the `index`-th system of
/// a generator generates it with [`RandomSystemGenerator::generate_one`]
/// and hands it straight to `run`. Returns each generator's results in
/// generation order, so folding one gives what a sequential loop over its
/// [`config_systems`] gives, for any worker count.
pub(crate) fn stream_systems<R: Send>(
    generators: &[RandomSystemGenerator],
    config: &TableConfig,
    workers: usize,
    run: impl Fn(SystemSpec) -> R + Sync,
) -> Vec<Vec<R>> {
    let items = stream_items(generators.len(), config);
    let mut results = pool::parallel_map(&items, workers, |_, &(group, index)| {
        run(generators[group].generate_one(index))
    })
    .into_iter();
    generators
        .iter()
        .map(|_| results.by_ref().take(config.systems_per_set).collect())
        .collect()
}

/// The `(generator, index)` items of [`stream_systems`] over `groups`
/// generators, generator-major.
pub(crate) fn stream_items(groups: usize, config: &TableConfig) -> Vec<(usize, usize)> {
    let systems = config.systems_per_set;
    (0..groups)
        .flat_map(|group| (0..systems).map(move |index| (group, index)))
        .collect()
}

/// One pool pass over the six paper sets' generators (in [`SET_ORDER`]),
/// every system run in `mode` and each set folded into its aggregate.
fn streamed_table(
    caption: impl Into<String>,
    generators: &[RandomSystemGenerator; 6],
    config: &TableConfig,
    mode: EvaluationMode,
    workers: usize,
) -> ResultTable {
    let runs = stream_systems(generators, config, workers, |system| {
        RunMeasures::from_trace(&run_system(&system, mode))
    });
    let sets = SET_ORDER
        .iter()
        .zip(runs)
        .map(|(&set, runs)| (set, SetAggregate::from_runs(&runs)))
        .collect();
    ResultTable::new(caption, sets)
}

/// One row of the EDF column family: the same generated set evaluated under
/// fixed priorities and under EDF, with the matching feasibility verdicts.
#[derive(Debug, Clone, Copy)]
pub struct EdfRow {
    /// The paper set `(density, std deviation)`.
    pub set: (u32, u32),
    /// Aggregate measures of the fixed-priority executions.
    pub fp: SetAggregate,
    /// Aggregate measures of the EDF executions of the *same* systems.
    pub edf: SetAggregate,
    /// Periodic deadline misses across the set's fixed-priority executions.
    pub fp_deadline_misses: usize,
    /// Periodic deadline misses across the set's EDF executions.
    pub edf_deadline_misses: usize,
    /// Periodic jobs observed per policy (the miss denominators).
    pub periodic_jobs: usize,
    /// Systems of the set whose periodic load + servers pass the
    /// fixed-priority response-time analysis.
    pub fp_rta_feasible: usize,
    /// Systems of the set passing the EDF processor-demand (`dbf`) test.
    pub edf_dbf_feasible: usize,
    /// Systems evaluated.
    pub systems: usize,
}

/// The EDF column family: FP vs EDF executions of identical generated
/// systems, with per-set FP-RTA and EDF-`dbf` feasibility verdicts.
#[derive(Debug, Clone)]
pub struct EdfComparisonTable {
    /// Table caption.
    pub caption: String,
    /// One row per paper set, in [`SET_ORDER`].
    pub rows: Vec<EdfRow>,
}

impl fmt::Display for EdfComparisonTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.caption)?;
        writeln!(
            f,
            "{:>6} {:>10} {:>10} {:>9} {:>9} {:>10} {:>10} {:>8} {:>8}",
            "set",
            "AART(FP)",
            "AART(EDF)",
            "ASR(FP)",
            "ASR(EDF)",
            "miss(FP)",
            "miss(EDF)",
            "RTA-ok",
            "dbf-ok"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:>6} {:>10.2} {:>10.2} {:>9.2} {:>9.2} {:>10} {:>10} {:>5}/{:<2} {:>5}/{:<2}",
                format!("({},{})", row.set.0, row.set.1),
                row.fp.aart,
                row.edf.aart,
                row.fp.asr,
                row.edf.asr,
                format!("{}/{}", row.fp_deadline_misses, row.periodic_jobs),
                format!("{}/{}", row.edf_deadline_misses, row.periodic_jobs),
                row.fp_rta_feasible,
                row.systems,
                row.edf_dbf_feasible,
                row.systems,
            )?;
        }
        Ok(())
    }
}

/// The synthetic periodic load carried by the EDF-comparison systems: with
/// only the server and the aperiodic traffic (the paper's sets), FP and EDF
/// dispatch identically on most instants — a periodic underlay is what the
/// scheduling policy actually reorders, and what the feasibility verdicts
/// have to say something about.
fn edf_comparison_load() -> PeriodicLoad {
    PeriodicLoad {
        count: 3,
        utilization: 0.3,
        min_period: 9.0,
        max_period: 30.0,
    }
}

/// The generator of one EDF-comparison set: a sporadic primary server,
/// deadline-stamped aperiodics and a three-task periodic underlay, stamped
/// with fixed priorities whatever `config` says (the EDF run re-stamps its
/// copy). The sporadic server folds into both analyses as a plain periodic
/// task (no Deferrable back-to-back penalty), so the FP-RTA and EDF-dbf
/// verdicts speak about the same demand the executions actually generate.
fn edf_generator(set: (u32, u32), config: &TableConfig) -> RandomSystemGenerator {
    paper_generator(set, ServerPolicyKind::Sporadic, config)
        .with_scheduling(SchedulingPolicy::FixedPriority)
        .with_aperiodic_deadline_factor(4)
        .with_periodic_load(edf_comparison_load())
        // rt-lint: allow(panic, reason = "the EDF-comparison load is three tasks, which fits the priority range by construction")
        .expect("three periodic tasks fit the priority range")
}

/// What one system contributes to its [`EdfRow`].
struct EdfRun {
    fp: RunMeasures,
    edf: RunMeasures,
    fp_misses: usize,
    edf_misses: usize,
    jobs: usize,
    rta_ok: bool,
    dbf_ok: bool,
}

/// Reproduces the EDF column family over the six paper sets: each generated
/// system (sporadic server, deadline-stamped aperiodics, a three-task
/// periodic underlay) is executed twice — under fixed priorities and under
/// EDF — and reported next to its FP-RTA and EDF-`dbf` verdicts. Each run
/// also reports its periodic deadline misses, the measure the scheduling
/// policy actually moves (the aperiodics ride the same server either way,
/// so AART/ASR mostly coincide).
///
/// One pool pass over `workers` threads: the worker that claims a system
/// generates it, judges it and runs it under both policies. The table is
/// bit-identical for any worker count.
pub fn reproduce_edf_table(config: &TableConfig, workers: usize) -> EdfComparisonTable {
    let generators = SET_ORDER.map(|set| edf_generator(set, config));
    let runs = stream_systems(&generators, config, workers, |mut system| {
        let rta_ok = periodic_set_feasible_with_servers(&system.periodic_tasks, &system.servers);
        let dbf_ok = edf_feasible_system(&system);
        let fp = run_system(&system, EvaluationMode::Execution);
        system.scheduling = SchedulingPolicy::Edf;
        let edf = run_system(&system, EvaluationMode::Execution);
        debug_assert_eq!(
            fp.periodic_jobs.len(),
            edf.periodic_jobs.len(),
            "same system, same job grid"
        );
        EdfRun {
            fp: RunMeasures::from_trace(&fp),
            edf: RunMeasures::from_trace(&edf),
            fp_misses: fp.periodic_deadline_misses(),
            edf_misses: edf.periodic_deadline_misses(),
            jobs: fp.periodic_jobs.len(),
            rta_ok,
            dbf_ok,
        }
    });
    let rows = SET_ORDER
        .iter()
        .zip(runs)
        .map(|(&set, runs)| {
            let fold = |pick: fn(&EdfRun) -> RunMeasures| {
                SetAggregate::from_runs(&runs.iter().map(pick).collect::<Vec<_>>())
            };
            EdfRow {
                set,
                fp: fold(|r| r.fp),
                edf: fold(|r| r.edf),
                fp_deadline_misses: runs.iter().map(|r| r.fp_misses).sum(),
                edf_deadline_misses: runs.iter().map(|r| r.edf_misses).sum(),
                periodic_jobs: runs.iter().map(|r| r.jobs).sum(),
                fp_rta_feasible: runs.iter().filter(|r| r.rta_ok).count(),
                edf_dbf_feasible: runs.iter().filter(|r| r.dbf_ok).count(),
                systems: runs.len(),
            }
        })
        .collect();
    EdfComparisonTable {
        caption: format!(
            "EDF column family — FP vs EDF executions (SS, deadline factor 4, {} discipline)",
            config.discipline.label()
        ),
        rows,
    }
}

/// Reproduces a table-shaped aggregate (AART/AIR/ASR per generated set) for
/// a multi-server configuration, streamed over `workers` threads — the
/// multi-server workload family the server-policy layer opens, reported in
/// the same format as the four paper tables.
pub fn reproduce_multi_server_table(
    policies: &[ServerPolicyKind],
    mode: EvaluationMode,
    config: &TableConfig,
    workers: usize,
) -> ResultTable {
    let caption = format!(
        "Multi-server {} — {}",
        policies
            .iter()
            .map(|p| p.label())
            .collect::<Vec<_>>()
            .join("+"),
        match mode {
            EvaluationMode::Simulation => "simulations",
            EvaluationMode::Execution => "executions",
        }
    );
    let generators = SET_ORDER.map(|set| multi_server_generator(set, policies, config));
    streamed_table(caption, &generators, config, mode, workers)
}

/// Runs one system in the requested mode.
pub fn run_system(system: &SystemSpec, mode: EvaluationMode) -> Trace {
    match mode {
        EvaluationMode::Simulation => simulate(system),
        EvaluationMode::Execution => execute(system, &ExecutionConfig::reference()),
    }
}

/// Runs a batch of systems in the requested mode across `workers` threads,
/// returning the per-run measures **in input order** — bit-identical to a
/// sequential loop for any worker count. This is the generic entry point for
/// `sysgen`-driven experiments outside the four paper tables.
pub fn run_systems(
    systems: &[SystemSpec],
    mode: EvaluationMode,
    workers: usize,
) -> Vec<RunMeasures> {
    pool::parallel_map(systems, workers, |_, system| {
        RunMeasures::from_trace(&run_system(system, mode))
    })
}

/// Reproduces one of the paper's tables sequentially, one system at a time.
///
/// This is the reference the parallel harness is pinned against:
/// [`reproduce_table_with_workers`] must return exactly this table.
pub fn reproduce_table(table: PaperTable, config: &TableConfig) -> ResultTable {
    let policy = table.policy();
    let mode = table.mode();
    let sets = SET_ORDER
        .iter()
        .map(|&set| {
            let systems = generate_set(set, policy, config);
            let runs: Vec<RunMeasures> = systems
                .iter()
                .map(|system| RunMeasures::from_trace(&run_system(system, mode)))
                .collect();
            (set, SetAggregate::from_runs(&runs))
        })
        .collect();
    ResultTable::new(table.caption(), sets)
}

/// Reproduces one of the paper's tables with the work streamed over
/// `workers` threads.
///
/// Determinism: one pool pass over every `(set, index)` pair; the worker
/// that claims a pair generates that system with the set's identically
/// seeded [`RandomSystemGenerator`] (each system owns its RNG stream, so no
/// stream ever crosses a worker boundary) and runs it. The measures come
/// back in generation order and each set folds them as the sequential path
/// does. The result is bit-identical to [`reproduce_table`] for any
/// `workers`, including 1 (pinned by `tests/harness_determinism.rs`).
pub fn reproduce_table_with_workers(
    table: PaperTable,
    config: &TableConfig,
    workers: usize,
) -> ResultTable {
    let generators = SET_ORDER.map(|set| paper_generator(set, table.policy(), config));
    streamed_table(table.caption(), &generators, config, table.mode(), workers)
}

/// Renders a reproduced table next to the paper's published values.
pub fn side_by_side(table: PaperTable, reproduced: &ResultTable) -> String {
    use std::fmt::Write as _;
    let paper = table.paper_values();
    let mut out = String::new();
    let _ = writeln!(out, "{}", table.caption());
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "set", "AART(rep)", "AART(pap)", "AIR(rep)", "AIR(pap)", "ASR(rep)", "ASR(pap)"
    );
    for (i, &set) in SET_ORDER.iter().enumerate() {
        let aggregate = reproduced.get(set).copied().unwrap_or(SetAggregate {
            runs: 0,
            aart: 0.0,
            air: 0.0,
            asr: 0.0,
        });
        let (p_aart, p_air, p_asr) = paper[i];
        let _ = writeln!(
            out,
            "{:>6} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            format!("({},{})", set.0, set.1),
            aggregate.aart,
            p_aart,
            aggregate.air,
            p_air,
            aggregate.asr,
            p_asr
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_metrics::shape;

    /// A reduced configuration (3 systems per set) keeps the unit tests fast;
    /// the full 10-system tables are exercised by the integration tests and
    /// the `repro` binary.
    fn quick() -> TableConfig {
        TableConfig {
            systems_per_set: 3,
            seed: 1983,
            ..TableConfig::default()
        }
    }

    #[test]
    fn every_reproduction_is_total_on_zero_systems_per_set() {
        use crate::{
            generate_fault_set, generate_overload_set, observe_table, reproduce_faults_table,
            reproduce_overload_table, FaultScenario,
        };
        use rt_model::AdmissionPolicy;
        let empty = TableConfig {
            systems_per_set: 0,
            ..TableConfig::default()
        };
        let policies = [ServerPolicyKind::Polling, ServerPolicyKind::Deferrable];
        for set in SET_ORDER {
            assert!(generate_set(set, ServerPolicyKind::Polling, &empty).is_empty());
            assert!(generate_multi_server_set(set, &policies, &empty).is_empty());
        }
        assert!(generate_overload_set(4.0, AdmissionPolicy::ValueDensity, &empty).is_empty());
        assert!(generate_fault_set(FaultScenario::Baseline, &empty).is_empty());
        for table in PaperTable::all() {
            for result in [
                reproduce_table(table, &empty),
                reproduce_table_with_workers(table, &empty, 2),
            ] {
                assert_eq!(result.sets.len(), SET_ORDER.len());
                assert!(result.sets.iter().all(|(_, a)| a.runs == 0));
            }
            let observed = observe_table(table, &empty, 2);
            assert!(observed.sets.iter().all(|s| s.systems == 0));
        }
        let multi = reproduce_multi_server_table(&policies, EvaluationMode::Simulation, &empty, 2);
        assert!(multi.sets.iter().all(|(_, a)| a.runs == 0));
        let edf = reproduce_edf_table(&empty, 2);
        assert!(edf.rows.iter().all(|row| row.systems == 0));
        let overload = reproduce_overload_table(&empty, 2);
        assert!(overload
            .rows
            .iter()
            .all(|row| row.execution.runs == 0 && row.simulation.runs == 0));
        let faults = reproduce_faults_table(&empty, 2);
        assert!(faults
            .rows
            .iter()
            .all(|row| row.execution.runs == 0 && row.simulation.runs == 0));
    }

    #[test]
    fn table_metadata_is_consistent() {
        for table in PaperTable::all() {
            let _ = table.caption();
            let _ = table.paper_values();
        }
        assert_eq!(
            PaperTable::Table2PsSimulation.policy(),
            ServerPolicyKind::Polling
        );
        assert_eq!(
            PaperTable::Table5DsExecution.mode(),
            EvaluationMode::Execution
        );
    }

    #[test]
    fn generated_sets_share_traffic_across_policies() {
        let ps = generate_set((2, 2), ServerPolicyKind::Polling, &quick());
        let ds = generate_set((2, 2), ServerPolicyKind::Deferrable, &quick());
        assert_eq!(ps.len(), 3);
        for (a, b) in ps.iter().zip(ds.iter()) {
            assert_eq!(a.aperiodics, b.aperiodics);
        }
    }

    #[test]
    fn simulated_tables_have_zero_air_and_the_paper_shape() {
        // With only 3 systems per set the per-set averages are noisy, so the
        // strict per-family monotonicity is only asserted on the PS table
        // here; the full-size shape checks (10 systems per set, all four
        // tables) live in the workspace integration tests.
        let t2 = reproduce_table(PaperTable::Table2PsSimulation, &quick());
        let t4 = reproduce_table(PaperTable::Table4DsSimulation, &quick());
        assert!(shape::air_is_negligible(&t2, 0.0));
        assert!(shape::air_is_negligible(&t4, 0.0));
        assert!(shape::asr_shrinks_with_density(&t2));
        assert!(
            shape::dominates_on_aart(&t4, &t2),
            "DS must beat PS on response times"
        );
        assert!(
            shape::dominates_on_asr(&t4, &t2),
            "DS must beat PS on served ratio"
        );
    }

    #[test]
    fn executed_tables_interrupt_mostly_on_heterogeneous_sets() {
        let t3 = reproduce_table(PaperTable::Table3PsExecution, &quick());
        assert!(shape::heterogeneous_sets_interrupt_more(&t3));
        // Homogeneous executions barely interrupt (slack 1 tu ≫ overhead).
        assert!(t3.air_row()[..3].iter().all(|&v| v < 0.05));
    }

    #[test]
    fn executions_never_serve_more_than_simulations() {
        let quick = quick();
        let sim = reproduce_table(PaperTable::Table2PsSimulation, &quick);
        let exec = reproduce_table(PaperTable::Table3PsExecution, &quick);
        assert!(shape::dominates_on_asr(&sim, &exec));
    }

    #[test]
    fn multi_server_sets_validate_and_reduce_to_single_server() {
        use rt_model::ServerPolicyKind::{Deferrable, Polling, Sporadic};
        let multi = generate_multi_server_set((2, 2), &[Polling, Deferrable, Sporadic], &quick());
        assert_eq!(multi.len(), 3);
        for sys in &multi {
            assert!(sys.validate().is_ok());
            assert_eq!(sys.servers.len(), 3);
        }
        // One policy == the plain single-server generator.
        let single = generate_multi_server_set((2, 2), &[Polling], &quick());
        let plain = generate_set((2, 2), Polling, &quick());
        assert_eq!(single, plain);
    }

    #[test]
    fn multi_server_table_aggregates_every_set() {
        use rt_model::ServerPolicyKind::{Deferrable, Sporadic};
        let table = reproduce_multi_server_table(
            &[Deferrable, Sporadic],
            EvaluationMode::Execution,
            &quick(),
            1,
        );
        assert!(table.caption.contains("DS+SS"));
        for &set in SET_ORDER.iter() {
            let aggregate = table.get(set).expect("every set present");
            assert_eq!(aggregate.runs, 3);
            assert!(aggregate.asr > 0.0, "some events must be served");
        }
    }

    #[test]
    fn edf_table_reports_verdicts_and_is_worker_invariant() {
        let sequential = reproduce_edf_table(&quick(), 1);
        let parallel = reproduce_edf_table(&quick(), 3);
        assert_eq!(
            sequential.to_string(),
            parallel.to_string(),
            "the EDF table must be bit-identical for any worker count"
        );
        assert_eq!(sequential.rows.len(), SET_ORDER.len());
        for row in &sequential.rows {
            assert_eq!(row.systems, 3);
            assert!(row.fp_rta_feasible <= row.systems);
            assert!(row.edf_dbf_feasible <= row.systems);
            assert!(
                row.edf_dbf_feasible >= row.fp_rta_feasible,
                "EDF's exact test dominates the FP-RTA verdict on folded sets"
            );
            assert!(row.periodic_jobs > 0, "the underlay must generate jobs");
        }
        let fp_misses: usize = sequential.rows.iter().map(|r| r.fp_deadline_misses).sum();
        let edf_misses: usize = sequential.rows.iter().map(|r| r.edf_deadline_misses).sum();
        assert!(
            edf_misses <= fp_misses,
            "EDF must not miss more periodic deadlines than FP on these sets \
             ({edf_misses} vs {fp_misses})"
        );
        let rendered = sequential.to_string();
        assert!(rendered.contains("AART(EDF)"));
        assert!(rendered.contains("dbf-ok"));
    }

    #[test]
    fn table_config_scheduling_knob_stamps_generated_systems() {
        let mut config = quick();
        config.scheduling = SchedulingPolicy::Edf;
        config.discipline = QueueDiscipline::DeadlineOrdered;
        for spec in generate_set((2, 2), ServerPolicyKind::Polling, &config) {
            assert_eq!(spec.scheduling, SchedulingPolicy::Edf);
            assert!(spec
                .servers
                .iter()
                .all(|s| s.discipline == QueueDiscipline::DeadlineOrdered));
        }
        // Traffic is knob-independent: the same systems modulo the stamps.
        let plain = generate_set((2, 2), ServerPolicyKind::Polling, &quick());
        let stamped = generate_set((2, 2), ServerPolicyKind::Polling, &config);
        for (a, b) in plain.iter().zip(stamped.iter()) {
            assert_eq!(a.aperiodics, b.aperiodics);
        }
    }

    #[test]
    fn side_by_side_rendering_contains_both_columns() {
        let t2 = reproduce_table(PaperTable::Table2PsSimulation, &quick());
        let rendered = side_by_side(PaperTable::Table2PsSimulation, &t2);
        assert!(rendered.contains("AART(rep)"));
        assert!(rendered.contains("8.86"), "the paper value must appear");
    }
}
