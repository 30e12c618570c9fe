//! The three workloads and the pipeline passes that run them.
//!
//! Every pass is a closed batch loop over the `rt-experiments` worker pool:
//! each worker claims the next system only when its previous one finished.
//! The benchmark generates the specs from the seed and hands the engines
//! nothing else. Only entry points meant to outlive the engine collapse are
//! called: `reproduce_table_with_workers`, `simulate`, `execute`, their
//! `*_with_probe` forms, `RandomSystemGenerator`, `SystemSpec::validate`,
//! `CompiledSystem::compile`, `RunMeasures::from_trace` and `SetAggregate`.

use crate::spans::{Lane, Tracer, NO_SYSTEM};
use crate::stats::Digest;
use rt_compile::CompiledSystem;
use rt_experiments::{parallel_shards, reproduce_table_with_workers, PaperTable, TableConfig};
use rt_metrics::{ResultTable, RunMeasures, SetAggregate, SET_ORDER};
use rt_model::{
    AdmissionPolicy, Instant, ModeChange, QueueDiscipline, SchedulingPolicy, ServerPolicyKind,
    Span, SystemSpec, Trace,
};
use rt_observe::MetricsProbe;
use rt_sysgen::{
    ExtraServer, FaultModel, GeneratorParams, PeriodicLoad, RandomSystemGenerator, ValueModel,
};
use rt_taskserver::{execute, execute_with_probe, ExecutionConfig};
use rtss_sim::{simulate, simulate_with_probe};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};

/// The seed whose output digests are recorded in [`Workload::recorded_digest`].
pub const DEFAULT_SEED: u64 = 1983;

/// The admission policies of the soak, in the order their traffic is laid
/// out; every policy sees byte-identical arrivals.
pub const SOAK_POLICIES: [AdmissionPolicy; 3] = [
    AdmissionPolicy::AcceptAll,
    AdmissionPolicy::DeadlinePredictive,
    AdmissionPolicy::ValueDensity,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TablesWide,
    OverloadSoak,
    MixedPolicy,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TablesWide,
        Workload::OverloadSoak,
        Workload::MixedPolicy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TablesWide => "tables-wide",
            Workload::OverloadSoak => "overload-soak",
            Workload::MixedPolicy => "mixed-policy",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured size.
    pub fn full_size(self) -> Size {
        match self {
            Workload::TablesWide => Size {
                systems: 1000,
                exec_systems: 1000,
                horizon_periods: 10,
            },
            Workload::OverloadSoak => Size {
                systems: 80,
                exec_systems: 4,
                horizon_periods: 500,
            },
            Workload::MixedPolicy => Size {
                systems: 500,
                exec_systems: 500,
                horizon_periods: 100,
            },
        }
    }

    /// A size small enough for unit tests.
    pub fn reduced_size(self) -> Size {
        match self {
            Workload::TablesWide => Size {
                systems: 6,
                exec_systems: 6,
                horizon_periods: 10,
            },
            Workload::OverloadSoak => Size {
                systems: 4,
                exec_systems: 2,
                horizon_periods: 80,
            },
            Workload::MixedPolicy => Size {
                systems: 12,
                exec_systems: 12,
                horizon_periods: 40,
            },
        }
    }

    /// Digest of every simulated statistic at [`DEFAULT_SEED`] and full size.
    pub fn recorded_digest(self) -> u64 {
        match self {
            Workload::TablesWide => 0x3343_3394_0fa7_b7a1,
            Workload::OverloadSoak => 0xaecc_9d38_24d2_c487,
            Workload::MixedPolicy => 0xb477_dd99_802d_9053,
        }
    }
}

/// How much work one pass does. For `tables-wide`, `systems` is the number
/// of systems per paper set; otherwise it is the number of systems simulated
/// per traffic group, of which the first `exec_systems` are also executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    pub systems: usize,
    pub exec_systems: usize,
    pub horizon_periods: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Sim,
    Exec,
}

impl Engine {
    fn run(self, spec: &SystemSpec) -> Trace {
        match self {
            Engine::Sim => simulate(spec),
            Engine::Exec => execute(spec, &ExecutionConfig::reference()),
        }
    }

    fn run_with_probe(self, spec: &SystemSpec, probe: &mut MetricsProbe) -> Trace {
        match self {
            Engine::Sim => simulate_with_probe(spec, probe),
            Engine::Exec => execute_with_probe(spec, &ExecutionConfig::reference(), probe),
        }
    }

    /// Name of the span around the engine call.
    pub fn span_name(self) -> &'static str {
        match self {
            Engine::Sim => "rtss.simulate",
            Engine::Exec => "taskserver.execute",
        }
    }

    fn of_table(table: PaperTable) -> Engine {
        match table {
            PaperTable::Table2PsSimulation | PaperTable::Table4DsSimulation => Engine::Sim,
            PaperTable::Table3PsExecution | PaperTable::Table5DsExecution => Engine::Exec,
        }
    }
}

/// Metric-name suffix of an admission policy.
pub fn policy_label(policy: AdmissionPolicy) -> &'static str {
    match policy {
        AdmissionPolicy::AcceptAll => "accept-all",
        AdmissionPolicy::DeadlinePredictive => "predictive",
        AdmissionPolicy::ValueDensity => "dover",
    }
}

/// One run of a pass: which spec, on which engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    pub spec: usize,
    pub engine: Engine,
    pub policy: AdmissionPolicy,
}

/// Generated specs and the runs a pass makes over them. Execution jobs come
/// first so the pool starts the long runs early and fills the tail with
/// short ones.
#[derive(Debug)]
pub struct Inputs {
    pub specs: Vec<SystemSpec>,
    pub jobs: Vec<Job>,
}

impl Inputs {
    pub fn events(&self) -> u64 {
        self.specs.iter().map(|s| s.aperiodics.len() as u64).sum()
    }
}

fn paper_generator(
    set: (u32, u32),
    policy: ServerPolicyKind,
    size: Size,
    seed: u64,
) -> RandomSystemGenerator {
    let config = table_config(size, seed);
    let mut params = GeneratorParams::paper_set(set.0, set.1);
    params.nb_generation = config.systems_per_set;
    params.seed = config.seed;
    params.horizon_periods = size.horizon_periods;
    RandomSystemGenerator::new(params, policy)
        // rt-lint: allow(panic, reason = "the paper's fixed generator parameter sets pass validation")
        .expect("the paper's parameter sets are valid")
        .with_scheduling(config.scheduling)
        .with_discipline(config.discipline)
}

fn table_config(size: Size, seed: u64) -> TableConfig {
    TableConfig {
        systems_per_set: size.systems,
        seed,
        ..TableConfig::default()
    }
}

/// The `repro overload` family at 4x load (set (2,0), polling server,
/// deadlines 6x cost, values U(1..8)) over a long horizon.
fn soak_generator(policy: AdmissionPolicy, size: Size, seed: u64) -> RandomSystemGenerator {
    let mut params = GeneratorParams::paper_set(2, 0);
    params.nb_generation = size.systems;
    params.seed = seed;
    params.horizon_periods = size.horizon_periods;
    RandomSystemGenerator::new(params, ServerPolicyKind::Polling)
        // rt-lint: allow(panic, reason = "the paper's fixed generator parameter sets pass validation")
        .expect("the paper's parameter sets are valid")
        .with_overload_factor(4.0)
        .with_aperiodic_deadline_factor(6)
        .with_value_model(ValueModel::UniformDensity { lo: 1, hi: 8 })
        .with_admission(policy)
}

/// DS + SS + PS servers over a small periodic load, under EDF with
/// deadline-ordered queues; a quarter of the events overrun their cost and
/// the primary server's budget halves at mid-horizon.
fn mixed_generator(size: Size, seed: u64) -> RandomSystemGenerator {
    let mut params = GeneratorParams::from_tuple(2.0, 1.5, 1.0, 2.0, 6.0, size.systems, seed);
    params.horizon_periods = size.horizon_periods;
    let mid = Instant::ZERO
        + params
            .server_period
            .saturating_mul(size.horizon_periods / 2);
    RandomSystemGenerator::new(params, ServerPolicyKind::Deferrable)
        // rt-lint: allow(panic, reason = "the mixed-policy parameters are fixed and pass validation")
        .expect("the mixed-policy parameters are valid")
        .with_scheduling(SchedulingPolicy::Edf)
        .with_discipline(QueueDiscipline::DeadlineOrdered)
        .with_aperiodic_deadline_factor(6)
        .with_extra_servers(vec![
            ExtraServer::new(
                ServerPolicyKind::Sporadic,
                Span::from_units(2),
                Span::from_units(8),
            ),
            ExtraServer::new(
                ServerPolicyKind::Polling,
                Span::from_units(2),
                Span::from_units(12),
            ),
        ])
        // rt-lint: allow(panic, reason = "two extra servers fit the priority range by construction")
        .expect("two extra servers fit the priority range")
        .with_periodic_load(PeriodicLoad {
            count: 3,
            utilization: 0.2,
            min_period: 9.0,
            max_period: 30.0,
        })
        // rt-lint: allow(panic, reason = "three periodic tasks fit the priority range by construction")
        .expect("three periodic tasks fit the priority range")
        .with_fault_model(FaultModel::overruns(0.25, 1))
        // rt-lint: allow(panic, reason = "a fixed 25% overrun model passes validation")
        .expect("a 25% overrun model is valid")
        .with_mode_schedule(vec![
            ModeChange::at(mid, 0).with_capacity(Span::from_units(1))
        ])
}

/// The generators of a workload and, per generator, how many of its systems
/// are simulated and executed.
fn generators(workload: Workload, size: Size, seed: u64) -> Vec<Group> {
    match workload {
        Workload::TablesWide => PaperTable::all()
            .into_iter()
            .flat_map(|table| {
                SET_ORDER.iter().map(move |&set| {
                    let engine = Engine::of_table(table);
                    Group {
                        generator: paper_generator(set, table.policy(), size, seed),
                        policy: AdmissionPolicy::AcceptAll,
                        simulated: if engine == Engine::Sim {
                            size.systems
                        } else {
                            0
                        },
                        executed: if engine == Engine::Exec {
                            size.systems
                        } else {
                            0
                        },
                    }
                })
            })
            .collect(),
        Workload::OverloadSoak => SOAK_POLICIES
            .into_iter()
            .map(|policy| Group {
                generator: soak_generator(policy, size, seed),
                policy,
                simulated: size.systems,
                executed: size.exec_systems,
            })
            .collect(),
        Workload::MixedPolicy => vec![Group {
            generator: mixed_generator(size, seed),
            policy: AdmissionPolicy::AcceptAll,
            simulated: size.systems,
            executed: size.exec_systems,
        }],
    }
}

struct Group {
    generator: RandomSystemGenerator,
    policy: AdmissionPolicy,
    simulated: usize,
    executed: usize,
}

/// Generates a workload's specs over the pool, one `sysgen.generate` span
/// per system.
pub fn generate_inputs(
    workload: Workload,
    size: Size,
    seed: u64,
    workers: usize,
    lane: &mut Lane<'_>,
    parent: u64,
) -> Inputs {
    let groups = generators(workload, size, seed);
    let slots: Vec<(usize, usize)> = groups
        .iter()
        .enumerate()
        .flat_map(|(g, group)| (0..group.simulated.max(group.executed)).map(move |i| (g, i)))
        .collect();
    let specs = pool_stage(
        lane,
        "pool.generate",
        parent,
        &slots,
        workers,
        |wl, stage, index, &(g, i)| {
            wl.span("sysgen.generate", stage, index as i64, |_, _| {
                groups[g].generator.generate_one(i)
            })
        },
    );
    let mut exec_jobs = Vec::new();
    let mut sim_jobs = Vec::new();
    for (spec, &(g, i)) in slots.iter().enumerate() {
        let group = &groups[g];
        if i < group.executed {
            exec_jobs.push(Job {
                spec,
                engine: Engine::Exec,
                policy: group.policy,
            });
        }
        if i < group.simulated {
            sim_jobs.push(Job {
                spec,
                engine: Engine::Sim,
                policy: group.policy,
            });
        }
    }
    exec_jobs.extend(sim_jobs);
    Inputs {
        specs,
        jobs: exec_jobs,
    }
}

/// Fans `items` out over the `rt-experiments` pool inside a `name` span;
/// each worker records into its own lane, merged into `lane` afterwards.
/// Results come back in input order.
pub fn pool_stage<T, R, F>(
    lane: &mut Lane<'_>,
    name: &'static str,
    parent: u64,
    items: &[T],
    workers: usize,
    step: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&mut Lane<'_>, u64, usize, &T) -> R + Sync,
{
    lane.span(name, parent, NO_SYSTEM, |lane, stage| {
        let tracer = lane.tracer();
        // Relaxed: worker ids only need to be distinct.
        let next_tid = AtomicU32::new(1);
        let shards = parallel_shards(
            items,
            workers,
            || {
                let tid = next_tid.fetch_add(1, Ordering::Relaxed);
                (Lane::new(tracer, tid), Vec::new())
            },
            |(worker, out): &mut (Lane<'_>, Vec<(usize, R)>), index, item| {
                out.push((index, step(worker, stage, index, item)));
            },
        );
        let mut tagged = Vec::with_capacity(items.len());
        for (worker, out) in shards {
            lane.spans.extend(worker.spans);
            tagged.extend(out);
        }
        tagged.sort_by_key(|&(index, _)| index);
        tagged.into_iter().map(|(_, result)| result).collect()
    })
}

/// What one run produced: its measures and trace size, and the host time of
/// the engine call plus `RunMeasures::from_trace`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    pub measures: RunMeasures,
    pub segments: u64,
    pub run_ns: u64,
}

impl RunResult {
    /// Equality of everything the run computed (not of its timing).
    pub fn same_output(&self, other: &RunResult) -> bool {
        self.measures == other.measures && self.segments == other.segments
    }

    fn digest_into(&self, digest: &mut Digest) {
        let m = &self.measures;
        for count in [
            m.released,
            m.served,
            m.interrupted,
            m.rejected,
            m.aborted,
            m.accepted_with_deadline,
            m.accepted_deadline_misses,
        ] {
            digest.word(count as u64);
        }
        digest.word(m.accrued_value);
        digest.float(m.average_response_time.unwrap_or(-1.0));
        digest.word(self.segments);
    }
}

/// A run that panicked or whose trace broke an invariant.
pub type RunOutcome = Result<RunResult, String>;

/// Nanoseconds since `start`.
fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one system and its measures, catching a panic as a failed run.
/// With `check`, the trace must also pass `Trace::check_invariants`.
pub fn run_one(
    spec: &SystemSpec,
    engine: Engine,
    check: bool,
    lane: &mut Lane<'_>,
    parent: u64,
    system: i64,
) -> RunOutcome {
    let start = std::time::Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        lane.span("run", parent, system, |lane, run| {
            let trace = lane.span(engine.span_name(), run, system, |_, _| engine.run(spec));
            let measures = lane.span("metrics.measure", run, system, |_, _| {
                RunMeasures::from_trace(&trace)
            });
            (trace, measures)
        })
    }));
    let run_ns = elapsed_ns(start);
    let (trace, measures) = outcome.map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        format!("{} run panicked: {message}", engine.span_name())
    })?;
    if check {
        trace
            .check_invariants()
            .map_err(|e| format!("{} trace invariant broken: {e}", engine.span_name()))?;
    }
    Ok(RunResult {
        measures,
        segments: trace.segments.len() as u64,
        run_ns,
    })
}

/// The output of one pass: per-run outcomes in job order plus the set
/// aggregates the pass reduced them to.
#[derive(Debug, Clone, Default)]
pub struct PassOutput {
    pub runs: Vec<RunOutcome>,
    pub policies: Vec<AdmissionPolicy>,
    pub aggregates: Vec<SetAggregate>,
    /// Aperiodic events generated inside the pass (`tables-wide` only).
    pub generated_events: u64,
    /// Host time of each paper set's generation inside the pass, in table
    /// then set order (`tables-wide` only).
    pub generate_ns: Vec<u64>,
}

impl PassOutput {
    /// Digest of every run's output and every aggregate.
    pub fn digest(&self) -> Digest {
        let mut digest = Digest::default();
        for run in &self.runs {
            match run {
                Ok(r) => r.digest_into(&mut digest),
                Err(_) => digest.word(u64::MAX),
            }
        }
        digest_aggregates(&mut digest, &self.aggregates);
        digest
    }

    pub fn segments(&self) -> u64 {
        self.runs.iter().flatten().map(|r| r.segments).sum()
    }

    /// Host time of every run, in run order. A failed run, which fails the
    /// benchmark anyway, counts 0.
    pub fn run_ns(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().map(|r| r.as_ref().map_or(0, |r| r.run_ns))
    }
}

pub fn digest_aggregates(digest: &mut Digest, aggregates: &[SetAggregate]) {
    for a in aggregates {
        digest.word(a.runs as u64);
        digest.float(a.aart);
        digest.float(a.air);
        digest.float(a.asr);
    }
}

/// One pass over pre-generated inputs (`overload-soak`, `mixed-policy`, and
/// the sweeps): every job through the pool, then one `SetAggregate` per
/// (policy, engine) group.
pub fn jobs_pass(
    specs: &[SystemSpec],
    jobs: &[Job],
    workers: usize,
    check: bool,
    lane: &mut Lane<'_>,
    parent: u64,
) -> PassOutput {
    lane.span("pass", parent, NO_SYSTEM, |lane, pass| {
        let runs = pool_stage(
            lane,
            "pool.run",
            pass,
            jobs,
            workers,
            |wl, stage, index, job| {
                run_one(&specs[job.spec], job.engine, check, wl, stage, index as i64)
            },
        );
        let mut aggregates = Vec::new();
        for policy in SOAK_POLICIES {
            for engine in [Engine::Exec, Engine::Sim] {
                let group: Vec<RunMeasures> = jobs
                    .iter()
                    .zip(&runs)
                    .filter(|(job, _)| job.policy == policy && job.engine == engine)
                    .filter_map(|(_, run)| run.as_ref().ok().map(|r| r.measures))
                    .collect();
                if !group.is_empty() {
                    aggregates.push(lane.span("metrics.aggregate", pass, NO_SYSTEM, |_, _| {
                        SetAggregate::from_runs(&group)
                    }));
                }
            }
        }
        PassOutput {
            runs,
            policies: jobs.iter().map(|j| j.policy).collect(),
            aggregates,
            generated_events: 0,
            generate_ns: Vec::new(),
        }
    })
}

/// The `tables-wide` pipeline decomposed into its layer calls, mirroring
/// `reproduce_table_with_workers` table by table: generation fanned out per
/// paper set, runs fanned out per system, one aggregate per set.
pub fn tables_pass(
    size: Size,
    seed: u64,
    workers: usize,
    check: bool,
    lane: &mut Lane<'_>,
) -> PassOutput {
    lane.span("pass", 0, NO_SYSTEM, |lane, pass| {
        let mut out = PassOutput::default();
        for table in PaperTable::all() {
            let engine = Engine::of_table(table);
            let first_system = out.runs.len();
            lane.span("table", pass, NO_SYSTEM, |lane, t| {
                let generated: Vec<(Vec<SystemSpec>, u64)> = pool_stage(
                    lane,
                    "pool.generate",
                    t,
                    &SET_ORDER,
                    workers,
                    |wl, stage, _, &set| {
                        let start = std::time::Instant::now();
                        let specs = wl.span("sysgen.generate", stage, NO_SYSTEM, |_, _| {
                            paper_generator(set, table.policy(), size, seed).generate()
                        });
                        (specs, elapsed_ns(start))
                    },
                );
                let (sets, generate_ns): (Vec<Vec<SystemSpec>>, Vec<u64>) =
                    generated.into_iter().unzip();
                out.generate_ns.extend(generate_ns);
                out.generated_events += sets
                    .iter()
                    .flatten()
                    .map(|s| s.aperiodics.len() as u64)
                    .sum::<u64>();
                let items: Vec<&SystemSpec> = sets.iter().flatten().collect();
                let runs = pool_stage(
                    lane,
                    "pool.run",
                    t,
                    &items,
                    workers,
                    |wl, stage, i, spec| {
                        run_one(spec, engine, check, wl, stage, (first_system + i) as i64)
                    },
                );
                for (set_index, set) in sets.iter().enumerate() {
                    let offset: usize = sets[..set_index].iter().map(Vec::len).sum();
                    let measures: Vec<RunMeasures> = runs[offset..offset + set.len()]
                        .iter()
                        .filter_map(|r| r.as_ref().ok().map(|r| r.measures))
                        .collect();
                    out.aggregates
                        .push(lane.span("metrics.aggregate", t, NO_SYSTEM, |_, _| {
                            SetAggregate::from_runs(&measures)
                        }));
                }
                out.policies
                    .extend(std::iter::repeat_n(AdmissionPolicy::AcceptAll, runs.len()));
                out.runs.extend(runs);
            });
        }
        out
    })
}

/// The digest of a `tables-wide` run: the reproduced tables' aggregates
/// (`tables_digest`), then every run of the decomposed, checked pass.
pub fn tables_output_digest(tables_digest: u64, check: &PassOutput) -> u64 {
    let mut digest = Digest::default();
    digest.word(tables_digest);
    digest.word(check.digest().value());
    digest.value()
}

/// The digest of every simulated statistic one checked pass of `workload`
/// produces (what an untraced run compares with the recorded digest), or
/// the first failure.
pub fn output_digest(
    workload: Workload,
    size: Size,
    seed: u64,
    workers: usize,
) -> Result<u64, String> {
    let mut lane = Lane::new(None, 0);
    let check = match workload {
        Workload::TablesWide => tables_pass(size, seed, workers, true, &mut lane),
        _ => {
            let inputs = generate_inputs(workload, size, seed, workers, &mut lane, 0);
            jobs_pass(&inputs.specs, &inputs.jobs, workers, true, &mut lane, 0)
        }
    };
    if let Some(Err(e)) = check.runs.iter().find(|r| r.is_err()) {
        return Err(e.clone());
    }
    Ok(match workload {
        Workload::TablesWide => {
            let tables = reference_tables(size, seed, workers);
            let mut digest = Digest::default();
            digest_aggregates(&mut digest, &table_aggregates(&tables));
            tables_output_digest(digest.value(), &check)
        }
        _ => check.digest().value(),
    })
}

/// The four paper tables through `reproduce_table_with_workers`: the
/// untraced `tables-wide` pass. A panicking table is reported as an error.
pub fn reference_tables(size: Size, seed: u64, workers: usize) -> Vec<Result<ResultTable, String>> {
    let config = table_config(size, seed);
    PaperTable::all()
        .into_iter()
        .map(|table| {
            catch_unwind(|| reproduce_table_with_workers(table, &config, workers))
                .map_err(|_| format!("{} panicked", table.caption()))
        })
        .collect()
}

/// The set aggregates of reproduced tables, in table then set order.
pub fn table_aggregates(tables: &[Result<ResultTable, String>]) -> Vec<SetAggregate> {
    tables
        .iter()
        .flatten()
        .flat_map(|t| t.sets.iter().map(|&(_, aggregate)| aggregate))
        .collect()
}

/// The simulation tables (2 and 4) must report no interrupted events.
pub fn simulation_air_is_zero(tables: &[Result<ResultTable, String>]) -> bool {
    PaperTable::all()
        .into_iter()
        .zip(tables)
        .all(|(table, result)| {
            Engine::of_table(table) == Engine::Exec
                || result
                    .as_ref()
                    .is_ok_and(|t| t.sets.iter().all(|&(_, a)| a.air == 0.0))
        })
}

/// Times `SystemSpec::validate` and `CompiledSystem::compile` on every spec
/// of the workload. Both are already inside the pipeline (generation builds
/// validated specs; the engines validate again), so they are measured in
/// this separate sweep rather than added to a pass. Returns the first error.
pub fn layer_sweep(
    inputs: &Inputs,
    workers: usize,
    lane: &mut Lane<'_>,
    parent: u64,
) -> Result<(), String> {
    let errors = pool_stage(
        lane,
        "pool.layers",
        parent,
        &inputs.specs,
        workers,
        |wl, stage, index, spec| {
            let system = index as i64;
            let valid = wl.span("model.validate", stage, system, |_, _| spec.validate());
            let compiled = wl.span("compile.compile", stage, system, |_, _| {
                CompiledSystem::compile(spec).map(|c| c.spec().aperiodics.len())
            });
            valid
                .map_err(|e| format!("validate: {e}"))
                .and(compiled.map(|_| ()).map_err(|e| format!("compile: {e}")))
        },
    );
    errors.into_iter().find(Result::is_err).unwrap_or(Ok(()))
}

/// Runs every job with a `MetricsProbe` attached through the public
/// `*_with_probe` entry points. Returns the merged probe and the per-run
/// outputs, which must equal the unobserved ones.
pub fn probe_sweep(inputs: &Inputs, workers: usize) -> (MetricsProbe, Vec<RunOutcome>) {
    let shards = parallel_shards(
        &inputs.jobs,
        workers,
        || (MetricsProbe::new(), Vec::new()),
        |(probe, out): &mut (MetricsProbe, Vec<(usize, RunOutcome)>), index, job| {
            let spec = &inputs.specs[job.spec];
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let trace = job.engine.run_with_probe(spec, probe);
                probe.absorb_trace(&trace);
                RunResult {
                    measures: RunMeasures::from_trace(&trace),
                    segments: trace.segments.len() as u64,
                    run_ns: 0,
                }
            }))
            .map_err(|_| format!("{} probed run panicked", job.engine.span_name()));
            out.push((index, outcome));
        },
    );
    let mut merged = MetricsProbe::new();
    let mut tagged = Vec::new();
    for (probe, out) in shards {
        merged.merge(&probe);
        tagged.extend(out);
    }
    tagged.sort_by_key(|&(index, _)| index);
    (merged, tagged.into_iter().map(|(_, r)| r).collect())
}

/// Execution-engine ns per trace segment (summed `taskserver.execute`
/// spans over summed segments) at the workload's horizon and at a quarter of
/// it (rounded down, at least one period), from the same generators.
pub fn horizon_growth(
    workload: Workload,
    size: Size,
    seed: u64,
    workers: usize,
) -> Result<(f64, f64), String> {
    let ns_per_segment = |horizon_periods: u64| -> Result<f64, String> {
        let size = Size {
            systems: size.exec_systems,
            horizon_periods,
            ..size
        };
        let tracer = Tracer::default();
        let mut lane = Lane::new(Some(&tracer), 0);
        let mut inputs = generate_inputs(workload, size, seed, workers, &mut Lane::new(None, 0), 0);
        inputs.jobs.retain(|j| j.engine == Engine::Exec);
        let pass = jobs_pass(&inputs.specs, &inputs.jobs, workers, false, &mut lane, 0);
        let mut segments = 0u64;
        for run in pass.runs {
            segments += run?.segments;
        }
        let ns: u64 = lane
            .spans
            .iter()
            .filter(|s| s.name == Engine::Exec.span_name())
            .map(|s| s.dur_ns())
            .sum();
        Ok(ns as f64 / segments.max(1) as f64)
    };
    Ok((
        ns_per_segment(size.horizon_periods)?,
        ns_per_segment((size.horizon_periods / 4).max(1))?,
    ))
}
