//! Regeneration of Tables 2–5: the six generated sets, simulated and
//! executed under the Polling and Deferrable server policies.
//!
//! Every system of a table is independent, so the harness fans the work out
//! over a [`crate::pool`] worker pool: generation is parallel across the six
//! sets (each set owns its own RNG stream, seeded exactly as the sequential
//! path seeds it), the runs are parallel across all systems, and the
//! per-worker [`PartialRuns`] are merged in generation order — the resulting
//! table is bit-identical to [`reproduce_table`] for any worker count.

use crate::pool;
use rt_analysis::{edf_feasible_system, periodic_set_feasible_with_servers};
use rt_metrics::{PartialRuns, ResultTable, RunMeasures, SetAggregate, SET_ORDER};
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

/// Generates the systems of one paper set under the given policy.
pub fn generate_set(
    set: (u32, u32),
    policy: ServerPolicyKind,
    config: &TableConfig,
) -> Vec<SystemSpec> {
    let mut params = GeneratorParams::paper_set(set.0, set.1);
    params.nb_generation = config.systems_per_set;
    params.seed = config.seed;
    RandomSystemGenerator::new(params, policy)
        // rt-lint: allow(panic, reason = "the paper's fixed generator parameter sets are statically known to pass validation")
        .expect("paper parameters are valid")
        .with_scheduling(config.scheduling)
        .with_discipline(config.discipline)
        .generate()
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
    assert!(!policies.is_empty(), "at least one server policy required");
    let mut params = GeneratorParams::paper_set(set.0, set.1);
    params.nb_generation = config.systems_per_set;
    params.seed = config.seed;
    let capacity = params.server_capacity;
    let period = params.server_period;
    let extras: Vec<ExtraServer> = policies[1..]
        .iter()
        .map(|&policy| ExtraServer::new(policy, capacity, period))
        .collect();
    RandomSystemGenerator::new(params, policies[0])
        // rt-lint: allow(panic, reason = "the paper's fixed generator parameter sets are statically known to pass validation")
        .expect("paper parameters are valid")
        .with_scheduling(config.scheduling)
        .with_discipline(config.discipline)
        .with_extra_servers(extras)
        // rt-lint: allow(panic, reason = "the multi-server table uses at most three extra servers, which fits the priority range by construction")
        .expect("paper-sized multi-server sets fit the priority range")
        .generate()
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

/// Reproduces the EDF column family over the six paper sets: each generated
/// system (deferrable server, deadline-stamped aperiodics, a three-task
/// periodic underlay) is executed twice — under fixed priorities and under
/// EDF — and reported next to its FP-RTA and EDF-`dbf` verdicts.
///
/// The runs fan out over `workers` threads with the same deterministic
/// reduction as the paper tables; the table is bit-identical for any worker
/// count.
pub fn reproduce_edf_table(config: &TableConfig, workers: usize) -> EdfComparisonTable {
    let rows = SET_ORDER
        .iter()
        .map(|&set| {
            let mut params = GeneratorParams::paper_set(set.0, set.1);
            params.nb_generation = config.systems_per_set;
            params.seed = config.seed;
            // Sporadic primary server: it folds into both analyses as a
            // plain periodic task (no Deferrable back-to-back penalty), so
            // the FP-RTA and EDF-dbf verdicts speak about the same demand
            // the executions actually generate.
            let fp_systems: Vec<SystemSpec> =
                RandomSystemGenerator::new(params, ServerPolicyKind::Sporadic)
                    // rt-lint: allow(panic, reason = "the paper's fixed generator parameter sets are statically known to pass validation")
                    .expect("paper parameters are valid")
                    .with_discipline(config.discipline)
                    .with_aperiodic_deadline_factor(4)
                    .with_periodic_load(edf_comparison_load())
                    // rt-lint: allow(panic, reason = "the EDF-comparison load is three tasks, which fits the priority range by construction")
                    .expect("three periodic tasks fit the priority range")
                    .generate();
            let edf_systems: Vec<SystemSpec> = fp_systems
                .iter()
                .map(|spec| {
                    let mut spec = spec.clone();
                    spec.scheduling = SchedulingPolicy::Edf;
                    spec
                })
                .collect();
            // One worker-pool pass per policy; each run also reports its
            // periodic deadline misses — the measure the scheduling policy
            // actually moves (the aperiodics ride the same server either
            // way, so AART/ASR mostly coincide).
            let evaluate = |systems: &[SystemSpec]| -> (Vec<RunMeasures>, usize, usize) {
                let per_run = pool::parallel_map(systems, workers, |_, spec| {
                    let trace = run_system(spec, EvaluationMode::Execution);
                    (
                        RunMeasures::from_trace(&trace),
                        trace.periodic_deadline_misses(),
                        trace.periodic_jobs.len(),
                    )
                });
                let misses = per_run.iter().map(|&(_, m, _)| m).sum();
                let jobs = per_run.iter().map(|&(_, _, j)| j).sum();
                (
                    per_run.into_iter().map(|(r, _, _)| r).collect(),
                    misses,
                    jobs,
                )
            };
            let (fp_runs, fp_deadline_misses, periodic_jobs) = evaluate(&fp_systems);
            let (edf_runs, edf_deadline_misses, edf_jobs) = evaluate(&edf_systems);
            debug_assert_eq!(periodic_jobs, edf_jobs, "same systems, same job grid");
            let fp_rta_feasible = fp_systems
                .iter()
                .filter(|s| periodic_set_feasible_with_servers(&s.periodic_tasks, &s.servers))
                .count();
            let edf_dbf_feasible = fp_systems.iter().filter(|s| edf_feasible_system(s)).count();
            EdfRow {
                set,
                fp: SetAggregate::from_runs(&fp_runs),
                edf: SetAggregate::from_runs(&edf_runs),
                fp_deadline_misses,
                edf_deadline_misses,
                periodic_jobs,
                fp_rta_feasible,
                edf_dbf_feasible,
                systems: fp_systems.len(),
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
/// a multi-server configuration, fanned out over `workers` threads — the
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
    let sets = SET_ORDER
        .iter()
        .map(|&set| {
            let systems = generate_multi_server_set(set, policies, config);
            let runs = run_systems(&systems, mode, workers);
            (set, SetAggregate::from_runs(&runs))
        })
        .collect();
    ResultTable::new(caption, sets)
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

/// Reproduces one of the paper's tables with the work fanned out over
/// `workers` threads.
///
/// Determinism: generation runs one work item per set, and each item builds
/// the same identically-seeded [`RandomSystemGenerator`] the sequential path
/// builds — per-item RNG streams, so no stream ever crosses a worker
/// boundary. The runs are then fanned out over all `(set, system)` pairs,
/// each worker folding its share into one [`PartialRuns`] per set, and the
/// partials merge in generation order. The result is bit-identical to
/// [`reproduce_table`] for any `workers`, including 1 (pinned by
/// `tests/harness_determinism.rs`).
pub fn reproduce_table_with_workers(
    table: PaperTable,
    config: &TableConfig,
    workers: usize,
) -> ResultTable {
    let policy = table.policy();
    let mode = table.mode();
    let sets: Vec<Vec<SystemSpec>> = pool::parallel_map(&SET_ORDER, workers, |_, &set| {
        generate_set(set, policy, config)
    });
    let items: Vec<(usize, usize, &SystemSpec)> = sets
        .iter()
        .enumerate()
        .flat_map(|(set_index, systems)| {
            systems
                .iter()
                .enumerate()
                .map(move |(run_index, system)| (set_index, run_index, system))
        })
        .collect();
    let shards = pool::parallel_shards(
        &items,
        workers,
        || SET_ORDER.map(|_| PartialRuns::new()),
        |acc, _, &(set_index, run_index, system)| {
            acc[set_index].record(
                run_index,
                RunMeasures::from_trace(&run_system(system, mode)),
            );
        },
    );
    // Transpose the per-worker shards into per-set partial lists; the
    // order-insensitive merge + index-ordered fold lives in `from_partials`.
    let mut per_set = SET_ORDER.map(|_| Vec::new());
    for shard in shards {
        for (partials, partial) in per_set.iter_mut().zip(shard) {
            partials.push(partial);
        }
    }
    let sets = SET_ORDER
        .iter()
        .zip(per_set)
        .map(|(&set, partials)| (set, SetAggregate::from_partials(partials)))
        .collect();
    ResultTable::new(table.caption(), sets)
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
