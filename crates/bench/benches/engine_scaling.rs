//! The workspace benchmark: each world's fast engine against its reference
//! oracle, and the costs around the decision loop.
//!
//! ```sh
//! cargo bench -p rt-bench --bench engine_scaling               # every group
//! cargo bench -p rt-bench --bench engine_scaling -- paper edf  # just these
//! ```
//!
//! Positional arguments name the groups to run, from [`rt_bench::GROUPS`];
//! an unknown name exits non-zero with the valid ones listed. Every row a
//! run measures is printed and written to `BENCH_engine_scaling.json` in
//! Cargo's `target/tmp`. The snapshot at the repository root changes only
//! when a full run's file is copied over it on purpose. The run then checks
//! its rows against [`rt_bench::GATES`] and exits non-zero naming each gate
//! that fails. A gate applies when the run measured both of its rows.
//!
//! A row is the fastest of several runs after a warm-up run, divided by the
//! run's decisions (trace segments, which the fast engine and its oracle
//! share byte for byte). The runs are deterministic, so a disturbance only
//! ever adds time, and the fastest run estimates the true cost. The spread
//! printed beside each row is its slowest run over its fastest.
//!
//! The groups, with the gates asserted on them:
//!
//! * `scaling` — 3 → 300 periodic tasks under a deferrable server, horizon
//!   10³ units: the simulation at every size and the execution at 300 tasks,
//!   oracle (`simulate_reference`, `execute_reference`) against fast
//!   (`simulate`, a prepared `ExecutionPlan`). Gate: at 300 tasks the fast
//!   engine is at least 5× its oracle, in both worlds.
//! * `edf` — the 300-task system under EDF, both worlds, oracle against
//!   fast. Divided by the `scaling` rows, these give EDF's cost per
//!   decision over fixed priorities'.
//! * `admission` — the 300-task simulation under `DeadlinePredictive`
//!   admission, oracle against fast; and one admission prediction at
//!   backlogs 256, 1024 and 4096, the incremental packer against the
//!   O(backlog) repack. Gate: `incremental/4096` costs at most 1.5× (log₂
//!   4096 / log₂ 256) `incremental/256`, i.e. O(log backlog).
//! * `overload` — a 16-events/10-units burst into a capacity-5/period-10
//!   deferrable server: the execution at horizons 10³, 3·10³ and 10⁴
//!   against 10³ (gate: at most 2× per decision at 10⁴); the simulation at
//!   3·10³, oracle against fast; and the same burst with deadlines and
//!   values under `DeadlinePredictive` and `ValueDensity`, which refuse
//!   arrivals, oracle against fast (no gate).
//! * `horizon` — 30 tasks at horizons 10³, 10⁵ and 10⁶, both fast engines
//!   against their 10³ row. Gate: the execution costs at most 2× per
//!   decision at 10⁵. The other rows carry no gate: the simulation's 10⁵
//!   row and both 10⁶ rows have read 2–3× their 10³ row. Each run
//!   allocates its trace afresh, and past glibc's mmap and trim thresholds
//!   every run faults those pages in again; with the thresholds raised,
//!   the rows stay within 1.5× of each other.
//! * `faults` — the 300-task system with half its arrivals overrunning
//!   and a mid-horizon mode change, against the fault-free system, both
//!   fast engines.
//! * `observe` — a recording `MetricsProbe` against the `NoopProbe`, 300
//!   tasks, both fast engines. `simulate` and `execute` are the `NoopProbe`
//!   instantiations, so disabled observability costs nothing by
//!   construction; there is no probe-free loop to compare with.
//! * `compile-cost` — `CompiledSystem::compile` of 30 tasks while the event
//!   count grows 10² → 10⁵, in ns per compilation. Gate: at most 1.2× from
//!   10² to 10⁵ events.
//! * `harness` — `run_systems` over 6 000 generated table systems in
//!   execution mode, 1, 2, 4 and N workers up to the host's hardware
//!   threads, against 1 worker. Gate: at least 2× at 4 workers; a host with
//!   fewer than 4 threads has no `workers/4` row and cannot evaluate it.
//! * `paper` — 10³ systems of paper set (2,2) per engine and server (PS,
//!   DS), whole batches, ns per event printed beside ns per decision, each
//!   against the same systems at a 1-tick horizon (`…/horizon-1`, a run's
//!   fixed cost) and, for the execution, under ideal overheads (`…/ideal`)
//!   and with the events removed (`…/no-events`); every row also prints ns
//!   per system. No gate. The synthetic rows above overstate what a table
//!   run sees, where set-up and finalisation cost about as much as the
//!   decision loop.

use rt_admission::{AdmissionPolicy, ArrivingEvent, ServerAdmission};
use rt_bench::{gate_failures, render_bench_trajectory, BenchRecord, GATES, GROUPS};
use rt_compile::CompiledSystem;
use rt_experiments::{available_workers, generate_set, run_systems, EvaluationMode, TableConfig};
use rt_metrics::SET_ORDER;
use rt_model::{
    Instant, ModeChange, Priority, SchedulingPolicy, ServerPolicyKind, ServerSpec, Span,
    SystemSpec, Trace,
};
use rt_observe::{MetricsProbe, NoopProbe};
use rt_taskserver::{
    execute, execute_reference, execute_with_probe, ExecutionConfig, ExecutionPlan,
};
use rtss_sim::{simulate, simulate_reference, simulate_with_probe};
use std::hint::black_box;

/// Wall-clock seconds the timed rounds of one comparison aim to fill.
const BUDGET_S: f64 = 0.25;

/// Fewest and most timed rounds of one comparison.
const ROUNDS: std::ops::RangeInclusive<usize> = 3..=25;

/// Wall-clock seconds a row's timed runs fill within one round (at least
/// one run), after an untimed one.
const SLICE_S: f64 = 0.005;

/// The fastest run of each of `runs`, in seconds, with its spread: the
/// slowest timed run over the fastest.
///
/// After one warm-up run of each, the runs are timed in rounds: a round
/// gives each run [`SLICE_S`] in turn, and the rounds repeat until they
/// fill [`BUDGET_S`], within [`ROUNDS`]. The host this was tuned on
/// changes speed by 1.5–2× from one moment to the next, so rows timed one
/// after the other can land in different modes; taking turns lets the
/// rows of a comparison see the same moments, and their ratio does not
/// depend on which moment each row got. Each slice starts with an untimed
/// run, since the other rows have just evicted the run's data from the
/// caches. The runs are deterministic, so a disturbance only adds time,
/// and the fastest run estimates the cost.
fn fastest_of(runs: &[&dyn Fn()]) -> Vec<(f64, f64)> {
    let elapsed = |run: &dyn Fn()| {
        let start = std::time::Instant::now();
        run();
        start.elapsed().as_secs_f64()
    };
    let warm_up: Vec<f64> = runs.iter().map(|run| elapsed(*run)).collect();
    let repeats: Vec<usize> = warm_up
        .iter()
        .map(|secs| ((SLICE_S / secs) as usize).max(1))
        .collect();
    let round: f64 = warm_up
        .iter()
        .zip(&repeats)
        .map(|(secs, &n)| secs * (n + 1) as f64)
        .sum();
    let rounds = ((BUDGET_S / round) as usize).clamp(*ROUNDS.start(), *ROUNDS.end());
    let mut times = vec![Vec::new(); runs.len()];
    for _ in 0..rounds {
        for ((run, &n), times) in runs.iter().zip(&repeats).zip(&mut times) {
            run();
            times.extend((0..n).map(|_| elapsed(*run)));
        }
    }
    times
        .iter()
        .map(|times| {
            let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
            let slowest = times.iter().copied().fold(0.0, f64::max);
            (fastest, slowest / fastest)
        })
        .collect()
}

/// A row to time: its config within the group, the decisions one run
/// makes, and the run.
struct Row<'a> {
    config: String,
    decisions: usize,
    run: Box<dyn Fn() + 'a>,
}

impl<'a> Row<'a> {
    fn new(config: impl Into<String>, decisions: usize, run: impl Fn() + 'a) -> Self {
        Row {
            config: config.into(),
            decisions,
            run: Box::new(run),
        }
    }

    /// A row whose run returns a trace; its decisions are the trace's
    /// segments.
    fn trace(config: impl Into<String>, run: impl Fn() -> Trace + 'a) -> Self {
        let decisions = run().segments.len();
        Row::new(config, decisions, move || {
            black_box(run());
        })
    }
}

/// The rows of one run, each printed as it is measured.
struct Rows(Vec<BenchRecord>);

impl Rows {
    /// Times the rows of one comparison together ([`fastest_of`]) and
    /// records each at its fastest run divided by its decisions, with its
    /// speedup over the first row. Returns each row's ns per decision.
    fn compare(&mut self, group: &str, rows: Vec<Row>) -> Vec<f64> {
        let runs: Vec<&dyn Fn()> = rows.iter().map(|row| &*row.run).collect();
        let timings = fastest_of(&runs);
        let ns: Vec<f64> = rows
            .iter()
            .zip(&timings)
            .map(|(row, (fastest, _))| fastest * 1e9 / row.decisions as f64)
            .collect();
        for (i, (row, (_, spread))) in rows.into_iter().zip(timings).enumerate() {
            let speedup = ns[0] / ns[i];
            println!(
                "{:<36} {:>12.1} {speedup:>9.2}x {spread:>7.2}x",
                format!("{group}/{}", row.config),
                ns[i]
            );
            self.0.push(BenchRecord {
                group: group.into(),
                config: row.config,
                ns_per_decision: ns[i],
                speedup,
            });
        }
        ns
    }

    /// The oracle and the fast simulation of `spec`, as rows
    /// `config/oracle` and `config/fast`.
    fn simulation(&mut self, group: &str, config: &str, spec: &SystemSpec) {
        self.compare(
            group,
            vec![
                Row::trace(format!("{config}/oracle"), || simulate_reference(spec)),
                Row::trace(format!("{config}/fast"), || simulate(spec)),
            ],
        );
    }

    /// The oracle and the fast execution of `spec`, as rows
    /// `config/oracle` and `config/fast`. The fast row reuses a prepared
    /// plan: validation, event planning and the substrate analysis are paid
    /// once, and every run drives the execution driver alone.
    fn execution(&mut self, group: &str, config: &str, spec: &SystemSpec) {
        let plan = ExecutionPlan::prepare(spec, &ExecutionConfig::reference())
            .expect("bench systems are valid");
        self.compare(
            group,
            vec![
                Row::trace(format!("{config}/oracle"), || {
                    execute_reference(spec, &ExecutionConfig::reference())
                }),
                Row::trace(format!("{config}/fast"), || plan.run()),
            ],
        );
    }
}

fn compile(spec: &SystemSpec) -> CompiledSystem<'_> {
    CompiledSystem::compile(spec).expect("bench systems are valid")
}

/// One run of a system through a fast engine's public entry point.
type Run = fn(&SystemSpec) -> Trace;

/// Each world's fast engine, with its row label.
const ENGINES: [(&str, Run); 2] = [
    ("sim", |spec| simulate(spec)),
    ("exec", |spec| execute(spec, &ExecutionConfig::reference())),
];

/// Horizon of the 3 → 300-task systems, in units.
const TASK_SWEEP_HORIZON: u64 = 1_000;

/// A system whose decision *rate* is independent of `n`, so per-decision
/// cost is what the sweep exposes: `n` periodic tasks share a 10-unit
/// period with total utilisation 0.8, a deferrable server (capacity 1,
/// period 10) sits on top, and `n` aperiodic events spread over the horizon.
fn scaled_system(n: usize, horizon_units: u64) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("scale-{n}-{horizon_units}"));
    b.server(ServerSpec::deferrable(
        Span::from_units(1),
        Span::from_units(10),
        Priority::new(99),
    ));
    let cost_ticks = (8_000 / n as u64).max(1);
    for i in 0..n {
        b.periodic(
            format!("t{i}"),
            Span::from_ticks(cost_ticks),
            Span::from_units(10),
            Priority::new(1 + (i % 90) as u8),
        );
    }
    let spacing = (horizon_units / n as u64).max(1);
    for j in 0..n {
        b.aperiodic(
            Instant::from_units(j as u64 * spacing),
            Span::from_ticks(500),
        );
    }
    b.horizon(Instant::from_units(horizon_units));
    b.build().expect("scaled systems are valid")
}

fn scaling(rows: &mut Rows) {
    for n in [3, 10, 30, 100, 300] {
        let spec = scaled_system(n, TASK_SWEEP_HORIZON);
        rows.simulation("scaling", &format!("sim/{n}"), &spec);
    }
    let spec = scaled_system(300, TASK_SWEEP_HORIZON);
    rows.execution("scaling", "exec/300", &spec);
}

/// The 300-task system re-stamped for EDF dispatching: identical traffic
/// and task set, only the ready-queue key changes (absolute deadlines
/// instead of priorities).
fn edf(rows: &mut Rows) {
    let mut spec = scaled_system(300, TASK_SWEEP_HORIZON);
    spec.scheduling = SchedulingPolicy::Edf;
    rows.simulation("edf", "sim/300", &spec);
    rows.execution("edf", "exec/300", &spec);
}

/// Backlogs swept by the admission-decision rows.
const ADMISSION_BACKLOGS: [usize; 3] = [256, 1024, 4096];

/// Incremental predictions per timed batch.
const PREDICTIONS: usize = 10_000;

/// An admission state holding `backlog` admitted (deadline-free) events —
/// the virtual plan a 4x-overload burst builds up.
fn admission_backlog_state(backlog: usize) -> ServerAdmission {
    let mut state = ServerAdmission::with_params(
        AdmissionPolicy::DeadlinePredictive,
        Span::from_units(4),
        Span::from_units(6),
    );
    for i in 0..backlog {
        state.on_arrival(&ArrivingEvent {
            event: rt_model::EventId::new(i as u32),
            release: Instant::ZERO,
            declared_cost: Span::from_units(1 + (i as u64 % 3)),
            deadline: None,
            value: 1,
        });
    }
    assert_eq!(state.backlog(), backlog);
    state
}

/// The 300-task simulation with every arrival paying a `DeadlinePredictive`
/// decision; and the cost of one prediction, which the incremental
/// virtual-plan packer answers in amortised O(1) and a naive predictor
/// answers by repacking the O(backlog) plan.
fn admission(rows: &mut Rows) {
    let mut spec = scaled_system(300, TASK_SWEEP_HORIZON);
    spec.servers[0].admission = AdmissionPolicy::DeadlinePredictive;
    rows.simulation("admission", "sim/300", &spec);
    let cost = Span::from_units(2);
    let states = ADMISSION_BACKLOGS.map(|backlog| (backlog, admission_backlog_state(backlog)));
    let incremental = states
        .iter()
        .map(|(backlog, state)| {
            Row::new(format!("incremental/{backlog}"), PREDICTIONS, move || {
                for _ in 0..PREDICTIONS {
                    black_box(black_box(state).predicted_completion(Instant::ZERO, cost));
                }
            })
        })
        .collect();
    rows.compare("admission", incremental);
    let repack = states
        .iter()
        .map(|(backlog, state)| {
            let repacks = (PREDICTIONS / backlog).max(4);
            Row::new(format!("repack/{backlog}"), repacks, move || {
                for _ in 0..repacks {
                    black_box(black_box(state).predicted_completion_repack(Instant::ZERO, cost));
                }
            })
        })
        .collect();
    rows.compare("admission", repack);
}

/// The overload hot-spot: a 16-events/10-units burst (cost 1 each) into a
/// capacity-5/period-10 deferrable server — arrival bandwidth 1.6, service
/// bandwidth 0.5, so the backlog grows linearly with the horizon and the
/// pending-queue bookkeeping dominates. Before the indexed pending queue
/// the per-dispatch cost scanned the whole backlog (~255 s at horizon 10⁴).
fn overloaded_system(horizon_units: u64) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("overload-{horizon_units}"));
    b.server(ServerSpec::deferrable(
        Span::from_units(5),
        Span::from_units(10),
        Priority::new(99),
    ));
    b.periodic(
        "t0",
        Span::from_units(2),
        Span::from_units(10),
        Priority::new(10),
    );
    for instant in (0..horizon_units).step_by(10) {
        for _ in 0..16 {
            b.aperiodic(Instant::from_units(instant), Span::from_units(1));
        }
    }
    b.horizon(Instant::from_units(horizon_units));
    b.build().expect("overloaded systems are valid")
}

fn overload(rows: &mut Rows) {
    let specs = [1_000, 3_000, 10_000].map(|horizon| (horizon, overloaded_system(horizon)));
    let sweep = specs
        .iter()
        .map(|(horizon, spec)| {
            Row::trace(format!("exec/{horizon}"), || {
                execute(spec, &ExecutionConfig::reference())
            })
        })
        .collect();
    rows.compare("overload", sweep);
    rows.simulation("overload", "sim/3000", &overloaded_system(3_000));
    // Every event carries a 30-unit relative deadline and a cycling value,
    // so both policies refuse arrivals at 3.2× the server's bandwidth.
    for (label, policy) in [
        ("predictive", AdmissionPolicy::DeadlinePredictive),
        ("value-density", AdmissionPolicy::ValueDensity),
    ] {
        let mut spec = overloaded_system(3_000);
        spec.servers[0].admission = policy;
        for (i, event) in spec.aperiodics.iter_mut().enumerate() {
            event.relative_deadline = Some(Span::from_units(30));
            event.value = (i as u64 % 7 + 1) * event.declared_cost.ticks();
        }
        assert!(
            simulate(&spec).outcomes.iter().any(|o| o.is_rejected()),
            "the {label} rows must time the refusal path"
        );
        rows.simulation("overload", &format!("{label}/sim/3000"), &spec);
    }
}

/// 30 tasks over a growing horizon, their 30 arrivals spread over it:
/// decisions grow linearly with the horizon.
fn horizon(rows: &mut Rows) {
    let specs = [1_000, 100_000, 1_000_000].map(|horizon| (horizon, scaled_system(30, horizon)));
    for (engine, run) in ENGINES {
        let sweep = specs
            .iter()
            .map(|(horizon, spec)| Row::trace(format!("{engine}/{horizon}"), move || run(spec)))
            .collect();
        rows.compare("horizon", sweep);
    }
}

/// The 300-task system with an active fault plan: every other aperiodic
/// arrival is tagged with a cost overrun (declared 500 ticks, actual 1000),
/// so half the dispatches exercise the declared-budget enforcement path and
/// surface `Aborted` fates, and the server lane swaps to background service
/// at mid-horizon, so the mode-change quiescence machinery fires once.
fn faulted_system(n: usize, horizon_units: u64) -> SystemSpec {
    let mut spec = scaled_system(n, horizon_units);
    spec.name = format!("faulted-{n}-{horizon_units}");
    let mut faults = std::mem::take(&mut spec.faults);
    for event in spec.aperiodics.iter().step_by(2) {
        faults = faults.overrun(event.id, Span::from_ticks(500));
    }
    faults = faults.mode_change(
        ModeChange::at(Instant::from_units(horizon_units / 2), 0)
            .with_policy(ServerPolicyKind::Background),
    );
    faults.normalise();
    spec.faults = faults;
    spec.validate().expect("faulted systems are valid");
    spec
}

/// The cost of carrying a fault plan through a run. Decisions are each
/// trace's own segment count: aborted overruns shorten the faulted trace.
fn faults(rows: &mut Rows) {
    let clean = scaled_system(300, TASK_SWEEP_HORIZON);
    let faulted = faulted_system(300, TASK_SWEEP_HORIZON);
    for (engine, run) in ENGINES {
        rows.compare(
            "faults",
            vec![
                Row::trace(format!("{engine}/300/clean"), || run(&clean)),
                Row::trace(format!("{engine}/300/faulted"), || run(&faulted)),
            ],
        );
    }
}

fn observe(rows: &mut Rows) {
    let spec = scaled_system(300, TASK_SWEEP_HORIZON);
    let config = ExecutionConfig::reference();
    rows.compare(
        "observe",
        vec![
            Row::trace("sim/300/noop", || simulate(&spec)),
            Row::trace("sim/300/metrics", || {
                let mut probe = MetricsProbe::new();
                let trace = simulate_with_probe(&spec, &mut probe);
                black_box(probe);
                trace
            }),
        ],
    );
    rows.compare(
        "observe",
        vec![
            Row::trace("exec/300/noop", || {
                execute_with_probe(&spec, &config, NoopProbe)
            }),
            Row::trace("exec/300/metrics", || {
                let mut probe = MetricsProbe::new();
                let trace = execute_with_probe(&spec, &config, &mut probe);
                black_box(probe);
                trace
            }),
        ],
    );
}

/// Compilations per timed batch.
const COMPILES: usize = 200;

/// The compile-cost input: structural size pinned (30 periodic tasks under
/// one deferrable server) while the aperiodic event count spans 10²..10⁵ at
/// unit spacing. Compilation walks structure only — the workload stays
/// behind the borrowed [`rt_model::WorkloadView`].
fn event_sweep_system(events: usize) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("events-{events}"));
    b.server(ServerSpec::deferrable(
        Span::from_units(1),
        Span::from_units(10),
        Priority::new(99),
    ));
    for i in 0..30 {
        b.periodic(
            format!("t{i}"),
            Span::from_ticks(266),
            Span::from_units(10),
            Priority::new(1 + (i % 90) as u8),
        );
    }
    for j in 0..events {
        b.aperiodic(Instant::from_units(j as u64), Span::from_ticks(500));
    }
    b.horizon(Instant::from_units(events as u64));
    b.build().expect("event-sweep systems are valid")
}

fn compile_cost(rows: &mut Rows) {
    let specs = [100, 1_000, 10_000, 100_000].map(event_sweep_system);
    let sweep = specs
        .iter()
        .map(|spec| {
            let events = spec.aperiodics.len();
            Row::new(format!("events/{events}"), COMPILES, move || {
                for _ in 0..COMPILES {
                    black_box(compile(black_box(spec)));
                }
            })
        })
        .collect();
    rows.compare("compile-cost", sweep);
}

/// Throughput of the table harness over every generated set under both
/// server policies, 500 systems per set: a paper-sized table (10 per set)
/// runs in under a millisecond, too little to spread over workers.
fn harness(rows: &mut Rows) {
    let config = TableConfig {
        systems_per_set: 500,
        seed: 1983,
        ..TableConfig::default()
    };
    let mut batch = Vec::new();
    for policy in [ServerPolicyKind::Polling, ServerPolicyKind::Deferrable] {
        for &set in SET_ORDER.iter() {
            batch.extend(generate_set(set, policy, &config));
        }
    }
    let hardware = available_workers();
    println!(
        "({} systems in execution mode; {hardware} hardware threads)",
        batch.len()
    );
    let decisions = batch
        .iter()
        .map(|spec| execute(spec, &ExecutionConfig::reference()).segments.len())
        .sum();
    let mut workers: Vec<usize> = [1, 2, 4, hardware]
        .into_iter()
        .filter(|&k| k <= hardware)
        .collect();
    workers.dedup();
    let batch = &batch;
    let sweep = workers
        .into_iter()
        .map(|k| {
            Row::new(format!("workers/{k}"), decisions, move || {
                black_box(run_systems(batch, EvaluationMode::Execution, k));
            })
        })
        .collect();
    rows.compare("harness", sweep);
}

/// A row running `run` over every system of `batch`; its decisions are the
/// batch's trace segments.
fn batch_row<'a>(
    config: String,
    batch: &'a [SystemSpec],
    run: impl Fn(&SystemSpec) -> Trace + 'a,
) -> Row<'a> {
    let decisions = batch.iter().map(|spec| run(spec).segments.len()).sum();
    Row::new(config, decisions, move || {
        for spec in batch {
            black_box(run(black_box(spec)));
        }
    })
}

/// 10³ systems of paper set (2,2) per server policy, seed 1983: one
/// server, 10–30 events over ten server periods, no periodic tasks. Each
/// engine's full runs are timed beside the same systems at a 1-tick
/// horizon, the fixed cost of a run; the execution also runs them under
/// ideal overheads, and with their events removed (the periodic path
/// alone). The full runs print ns per event, and every row ns per system.
fn paper(rows: &mut Rows) {
    let config = TableConfig {
        systems_per_set: 1_000,
        seed: 1983,
        ..TableConfig::default()
    };
    let reference = ExecutionConfig::reference();
    let ideal = ExecutionConfig::ideal();
    let exec = |spec: &SystemSpec| execute(spec, &reference);
    for (label, policy) in [
        ("ps", ServerPolicyKind::Polling),
        ("ds", ServerPolicyKind::Deferrable),
    ] {
        let batch = generate_set((2, 2), policy, &config);
        let events: usize = batch
            .iter()
            .map(|spec| spec.workload().within_horizon_count())
            .sum();
        let one_tick: Vec<SystemSpec> = batch
            .iter()
            .map(|spec| SystemSpec {
                horizon: Instant::from_ticks(1),
                ..spec.clone()
            })
            .collect();
        let no_events: Vec<SystemSpec> = batch
            .iter()
            .map(|spec| SystemSpec {
                aperiodics: Vec::new(),
                ..spec.clone()
            })
            .collect();
        let comparisons = [
            vec![
                batch_row(format!("sim/{label}"), &batch, simulate),
                batch_row(format!("sim/{label}/horizon-1"), &one_tick, simulate),
            ],
            vec![
                batch_row(format!("exec/{label}"), &batch, exec),
                batch_row(format!("exec/{label}/horizon-1"), &one_tick, exec),
                batch_row(format!("exec/{label}/ideal"), &batch, |spec| {
                    execute(spec, &ideal)
                }),
                batch_row(format!("exec/{label}/no-events"), &no_events, exec),
            ],
        ];
        for comparison in comparisons {
            let decisions: Vec<usize> = comparison.iter().map(|row| row.decisions).collect();
            let configs: Vec<String> = comparison.iter().map(|row| row.config.clone()).collect();
            let ns = rows.compare("paper", comparison);
            let per_event = ns[0] * decisions[0] as f64 / events as f64;
            println!("{:>36} {per_event:>12.1} ns per event", "");
            for ((config, ns), decisions) in configs.iter().zip(&ns).zip(&decisions) {
                let per_system = ns * *decisions as f64 / batch.len() as f64;
                println!("{config:>36} {per_system:>12.1} ns per system");
            }
        }
    }
}

fn main() {
    // `cargo bench` passes `--bench`; every other argument names a group.
    let asked: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    if let Some(unknown) = asked.iter().find(|a| !GROUPS.contains(&a.as_str())) {
        eprintln!(
            "unknown group {unknown:?}; the groups are: {}",
            GROUPS.join(" ")
        );
        std::process::exit(2);
    }
    let selected: Vec<&str> = GROUPS
        .into_iter()
        .filter(|group| asked.is_empty() || asked.iter().any(|a| a == group))
        .collect();

    println!(
        "{:<36} {:>12} {:>10} {:>8}",
        "row", "ns/decision", "speedup", "spread"
    );
    let mut rows = Rows(Vec::new());
    for &group in &selected {
        match group {
            "scaling" => scaling(&mut rows),
            "edf" => edf(&mut rows),
            "admission" => admission(&mut rows),
            "overload" => overload(&mut rows),
            "horizon" => horizon(&mut rows),
            "faults" => faults(&mut rows),
            "observe" => observe(&mut rows),
            "compile-cost" => compile_cost(&mut rows),
            "harness" => harness(&mut rows),
            "paper" => paper(&mut rows),
            other => unreachable!("group {other} has no runner"),
        }
    }

    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_engine_scaling.json");
    std::fs::write(&path, render_bench_trajectory(&rows.0))
        .unwrap_or_else(|e| panic!("{} not written: {e}", path.display()));
    println!("\nrows written to {}", path.display());

    for gate in GATES.iter().filter(|gate| selected.contains(&gate.group)) {
        match gate.ratio(&rows.0) {
            Some(ratio) => println!("gate {gate}: {ratio:.3}"),
            None => println!("gate {gate}: cannot be evaluated, a row is absent"),
        }
    }
    let failures = gate_failures(&rows.0);
    for failure in &failures {
        eprintln!("{failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
