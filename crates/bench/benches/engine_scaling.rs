//! Scaling benchmark for the two worlds' engines.
//!
//! Sweeps the system size (periodic task count and aperiodic timer count,
//! 3 → 300) and the horizon (10³ → 10⁶ time units), comparing each world's
//! fast engine — `simulate` (the specialized simulation driver) and
//! `execute` (the table-driven execution driver) — against its linear-scan
//! reference oracle (`simulate_reference` in `rtss-sim`, `execute_reference`
//! over `rtsj-emu`).
//!
//! Besides the criterion measurements, the run prints a per-decision cost
//! and speedup summary; the 300-task row is the acceptance gate (≥5× vs the
//! linear scan for both engines).
//!
//! Further sweeps ride along:
//!
//! * **worker scaling** — systems/sec of the table harness
//!   (`run_systems`) over a paper-sized batch, 1 → N workers; the
//!   acceptance gate is ≥2× at 4 workers over the sequential path;
//! * **overload scaling** — executions of the ROADMAP overload hot-spot
//!   (16-events/10-units burst into a capacity-5/period-10 DS) across
//!   horizons 10³..10⁴ (run just this sweep with
//!   `cargo bench -p rt-bench --bench engine_scaling -- overload`); with the
//!   indexed pending queue and the id-keyed outcome completion of
//!   finalisation the cost is linear in the horizon. The summary's
//!   fastest-of-7 rows are persisted as `exec/{horizon}` in the `overload`
//!   trajectory group with the 10³ row as baseline; the gate is a `speedup`
//!   of at least 0.5 on `exec/10000`, i.e. at most 2× growth in the cost
//!   per trace segment;
//! * **reference vs fast** (the `interpreted-vs-compiled` group, whose
//!   fast rows keep their `compiled` names) — each world's fast engine
//!   against its reference oracle across the scaling, EDF, overload and
//!   admission workloads (`-- compiled` runs just this sweep); the summary
//!   is persisted to `BENCH_engine_scaling.json` at the repository root on
//!   every run, `reference` rows as the baseline; the `exec` rows drive a
//!   prepared `ExecutionPlan`, whose `run` takes the execution driver;
//! * **compile cost** — `CompiledSystem::compile` over a fixed 30-task
//!   structure while the aperiodic event count sweeps 10²..10⁵
//!   (`-- compile_cost` runs just this sweep); compilation is
//!   O(tasks + servers), so the acceptance gate is a flat cost, ≤1.2× from
//!   the 10²-event row to the 10⁵-event row, persisted as the
//!   `compile-cost` trajectory group;
//! * **fault-plan enforcement overhead** — the scaling workload with an
//!   active fault plan (half the arrivals tagged with cost overruns, a
//!   mid-horizon mode change on the server lane) against the fault-free
//!   baseline, on both fast engines (`-- faults` runs just this sweep); the
//!   persisted `faults` trajectory group uses the fault-free run as its
//!   baseline, so its `speedup` column reads as the enforcement overhead
//!   factor;
//! * **probe overhead** — the 300-task scaling point with `NoopProbe`
//!   (the default instantiation — must compile to probe-free machine code,
//!   so the acceptance gate is ≤1.05× the probe-free per-decision cost)
//!   against a recording `MetricsProbe`, on the simulation driver and the
//!   execution driver (`-- observe` runs just this sweep);
//!   persisted as the `observe` trajectory group with the noop run as
//!   baseline, so its `speedup` column reads as the recording overhead
//!   factor;
//! * **paper-shaped runs** — simulations and executions of 10³ systems of
//!   paper set (2,2) under the polling and the deferrable server: one
//!   server, 10–30 events over ten server periods, no periodic tasks
//!   (`-- paper` runs just this sweep). The synthetic 300-task rows above
//!   overstate what a table run sees, where the set-up and finalisation
//!   around the decision loop cost about as much as the loop. The summary
//!   times whole batches (fastest of several, spread printed) and reports
//!   ns per event beside ns per decision; the `paper` trajectory group
//!   persists `{sim,exec}/{ps,ds}` in ns per decision with no baseline
//!   (`speedup` 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rt_admission::{AdmissionPolicy, ArrivingEvent, ServerAdmission};
use rt_bench::{write_bench_trajectory, BenchRecord};
use rt_compile::CompiledSystem;
use rt_experiments::{available_workers, generate_set, run_systems, EvaluationMode, TableConfig};
use rt_metrics::SET_ORDER;
use rt_model::{
    Instant, ModeChange, Priority, SchedulingPolicy, ServerPolicyKind, ServerSpec, Span,
    SystemSpec, Trace,
};
use rt_observe::{MetricsProbe, NoopProbe};
use rt_taskserver::{execute, execute_reference, execute_with_probe, ExecutionConfig};
use rtss_sim::{simulate, simulate_reference, simulate_with_probe};
use std::hint::black_box;

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

/// Wall-clock seconds for one run of `f` (single shot: the workloads are
/// large enough that per-call noise is negligible for the summary table).
fn time_once(f: impl FnOnce()) -> f64 {
    let start = std::time::Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Fastest of `runs` timed runs of `f`, after one warm-up run. The runs are
/// deterministic, so every disturbance (scheduler, page cache, allocator
/// state) is strictly additive and the minimum estimates the true cost.
fn fastest_of(runs: usize, f: &dyn Fn()) -> f64 {
    f();
    (0..runs)
        .map(|_| time_once(f))
        .fold(f64::INFINITY, f64::min)
}

/// A table-harness workload: every generated set under both policies
/// (2 × 6 × `systems_per_set` independent systems). A single paper-sized
/// table (10 per set) simulates in under a millisecond, so the throughput
/// sweep uses the "thousands of generated systems" scale the paper's
/// aggregation methodology implies.
fn harness_batch(systems_per_set: usize) -> Vec<SystemSpec> {
    let config = TableConfig {
        systems_per_set,
        seed: 1983,
        ..TableConfig::default()
    };
    let mut systems = Vec::new();
    for policy in [ServerPolicyKind::Polling, ServerPolicyKind::Deferrable] {
        for &set in SET_ORDER.iter() {
            systems.extend(generate_set(set, policy, &config));
        }
    }
    systems
}

/// The task-sweep system re-stamped for EDF dispatching: identical traffic
/// and task set, only the ready-queue key changes (absolute deadlines
/// instead of priorities). Comparing it against the fixed-priority run at
/// the same size measures the cost of the deadline re-keying.
fn edf_scaled_system(n: usize, horizon_units: u64) -> SystemSpec {
    let mut spec = scaled_system(n, horizon_units);
    spec.scheduling = SchedulingPolicy::Edf;
    spec
}

/// Horizons of the overload execution sweep and its persisted summary rows.
const OVERLOAD_HORIZONS: [u64; 3] = [1_000, 3_000, 10_000];

/// The ROADMAP overload hot-spot: a 16-events/10-units burst (cost 1 each)
/// into a capacity-5/period-10 deferrable server — arrival bandwidth 1.6,
/// service bandwidth 0.5, so the backlog grows linearly with the horizon and
/// the pending-queue bookkeeping dominates. Before the indexed pending queue
/// the per-dispatch cost scanned the whole backlog (superlinear executions:
/// ~0.2 s at horizon 10³ vs ~255 s at 10⁴ on the CI container); with it the
/// execution stays linear in the horizon.
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

/// The task-sweep system with on-line admission enabled on its server lane:
/// every arrival pays a `DeadlinePredictive` decision, so comparing it with
/// the plain sweep at the same size exposes the cost of the admission
/// machinery — and, on the simulation driver, of the inlined admission plan.
fn admission_scaled_system(n: usize, horizon_units: u64) -> SystemSpec {
    let mut spec = scaled_system(n, horizon_units);
    spec.servers[0].admission = AdmissionPolicy::DeadlinePredictive;
    spec
}

/// The task-sweep system with an active fault plan: every other aperiodic
/// arrival is tagged with a cost overrun (declared 500 ticks, actual 1000),
/// so half the dispatches exercise the declared-budget enforcement path and
/// surface `Aborted` fates, and the server lane swaps to background service
/// at mid-horizon, so the mode-change quiescence machinery fires once.
/// Comparing it with the fault-free system at the same size measures the
/// cost of carrying a fault plan through a run.
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

/// Systems per server policy in the `paper` group.
const PAPER_SYSTEMS: usize = 1_000;

/// Timed batches per row of the `paper` summary. A batch takes a few
/// milliseconds, so many of them are cheap, and the fastest of many lands
/// in a quiet moment of a shared host.
const PAPER_BATCHES: usize = 25;

/// The `paper` group's input: [`PAPER_SYSTEMS`] systems of paper set (2,2)
/// under `policy`, seed 1983.
fn paper_batch(policy: ServerPolicyKind) -> Vec<SystemSpec> {
    let config = TableConfig {
        systems_per_set: PAPER_SYSTEMS,
        seed: 1983,
        ..TableConfig::default()
    };
    generate_set((2, 2), policy, &config)
}

/// One run of a system through an engine's public entry point.
type Run = fn(&SystemSpec) -> Trace;

/// The `paper` group's runs: each world's fast engine on one system.
const PAPER_ENGINES: [(&str, Run); 2] = [
    ("sim", |spec| simulate(spec)),
    ("exec", |spec| execute(spec, &ExecutionConfig::reference())),
];

/// The `paper` group's server policies, with their row labels.
const PAPER_POLICIES: [(&str, ServerPolicyKind); 2] = [
    ("ps", ServerPolicyKind::Polling),
    ("ds", ServerPolicyKind::Deferrable),
];

/// Event counts swept by the compile-cost benchmark (10² → 10⁵).
const EVENT_SWEEP: [usize; 4] = [100, 1_000, 10_000, 100_000];

/// The compile-cost sweep input: structural size pinned (30 periodic tasks
/// under one deferrable server) while the aperiodic event count spans
/// 10²..10⁵ at unit spacing. Compilation walks structure only — the
/// workload stays behind the borrowed [`rt_model::WorkloadView`] — so its
/// cost must stay flat across this sweep.
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

/// Backlogs swept by the admission-decision benchmark.
const ADMISSION_BACKLOGS: [usize; 3] = [256, 1024, 4096];

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

fn bench(c: &mut Criterion) {
    const TASK_SWEEP: [usize; 5] = [3, 10, 30, 100, 300];
    const HORIZON_SWEEP: [u64; 4] = [1_000, 10_000, 100_000, 1_000_000];
    const TASK_SWEEP_HORIZON: u64 = 1_000;

    let mut group = c.benchmark_group("engine_scaling");
    for n in TASK_SWEEP {
        let spec = scaled_system(n, TASK_SWEEP_HORIZON);
        group.bench_with_input(BenchmarkId::new("rtsj_indexed", n), &spec, |b, s| {
            b.iter(|| black_box(execute(black_box(s), &ExecutionConfig::reference())))
        });
        group.bench_with_input(BenchmarkId::new("rtsj_linear_scan", n), &spec, |b, s| {
            b.iter(|| {
                black_box(execute_reference(
                    black_box(s),
                    &ExecutionConfig::reference(),
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("rtss_indexed", n), &spec, |b, s| {
            b.iter(|| black_box(simulate(black_box(s))))
        });
        group.bench_with_input(BenchmarkId::new("rtss_linear_scan", n), &spec, |b, s| {
            b.iter(|| black_box(simulate_reference(black_box(s))))
        });
    }
    // Horizon sweep at a fixed moderate size: decisions grow linearly with
    // the horizon, per-decision cost must stay flat for the fast engines.
    for horizon in HORIZON_SWEEP {
        let spec = scaled_system(30, horizon);
        group.bench_with_input(
            BenchmarkId::new("rtsj_indexed_horizon", horizon),
            &spec,
            |b, s| b.iter(|| black_box(execute(black_box(s), &ExecutionConfig::reference()))),
        );
        group.bench_with_input(
            BenchmarkId::new("rtss_indexed_horizon", horizon),
            &spec,
            |b, s| b.iter(|| black_box(simulate(black_box(s)))),
        );
    }
    group.finish();

    // EDF vs fixed priorities at the acceptance size (300 tasks): the EDF
    // ready-heap re-keying must stay within a small constant factor of the
    // fixed-priority dispatch in both drivers.
    let mut group = c.benchmark_group("edf_scaling");
    {
        let n = 300usize;
        let fp = scaled_system(n, TASK_SWEEP_HORIZON);
        let edf = edf_scaled_system(n, TASK_SWEEP_HORIZON);
        group.bench_with_input(BenchmarkId::new("rtsj_fp", n), &fp, |b, s| {
            b.iter(|| black_box(execute(black_box(s), &ExecutionConfig::reference())))
        });
        group.bench_with_input(BenchmarkId::new("rtsj_edf", n), &edf, |b, s| {
            b.iter(|| black_box(execute(black_box(s), &ExecutionConfig::reference())))
        });
        group.bench_with_input(BenchmarkId::new("rtss_fp", n), &fp, |b, s| {
            b.iter(|| black_box(simulate(black_box(s))))
        });
        group.bench_with_input(BenchmarkId::new("rtss_edf", n), &edf, |b, s| {
            b.iter(|| black_box(simulate(black_box(s))))
        });
    }
    group.finish();

    // Overloaded-execution sweep: horizons 10³..10⁴ of the ROADMAP burst
    // workload (the acceptance gate for the indexed pending queue).
    let mut group = c.benchmark_group("overload_scaling");
    for horizon in OVERLOAD_HORIZONS {
        let spec = overloaded_system(horizon);
        group.bench_with_input(
            BenchmarkId::new("overload_execution", horizon),
            &spec,
            |b, s| b.iter(|| black_box(execute(black_box(s), &ExecutionConfig::reference()))),
        );
    }
    {
        let spec = overloaded_system(10_000);
        group.bench_with_input(
            BenchmarkId::new("overload_simulation", 10_000u64),
            &spec,
            |b, s| b.iter(|| black_box(simulate(black_box(s)))),
        );
    }
    group.finish();

    // Admission-decision scaling: the incremental virtual-plan predictor
    // (amortised O(1) per arrival — better than the promised O(log
    // backlog)) against the O(backlog) repack reference a naive
    // arrival-time predictor pays. Run just this sweep with
    // `cargo bench -p rt-bench --bench engine_scaling -- admission`.
    let mut group = c.benchmark_group("admission_scaling");
    for backlog in ADMISSION_BACKLOGS {
        let state = admission_backlog_state(backlog);
        group.bench_with_input(
            BenchmarkId::new("decision_incremental", backlog),
            &state,
            |b, s| b.iter(|| black_box(s.predicted_completion(Instant::ZERO, Span::from_units(2)))),
        );
        group.bench_with_input(
            BenchmarkId::new("decision_repack", backlog),
            &state,
            |b, s| {
                b.iter(|| {
                    black_box(s.predicted_completion_repack(Instant::ZERO, Span::from_units(2)))
                })
            },
        );
    }
    group.finish();

    // Fault-plan enforcement overhead: the same workloads with overruns
    // tagged on half the arrivals and one mid-horizon mode change. Run just
    // this sweep with `cargo bench -p rt-bench --bench engine_scaling --
    // faults`.
    let mut group = c.benchmark_group("faults");
    for n in [30usize, 300] {
        let clean = scaled_system(n, TASK_SWEEP_HORIZON);
        let faulted = faulted_system(n, TASK_SWEEP_HORIZON);
        group.bench_with_input(BenchmarkId::new("rtsj_clean", n), &clean, |b, s| {
            b.iter(|| black_box(execute(black_box(s), &ExecutionConfig::reference())))
        });
        group.bench_with_input(BenchmarkId::new("rtsj_faulted", n), &faulted, |b, s| {
            b.iter(|| black_box(execute(black_box(s), &ExecutionConfig::reference())))
        });
        group.bench_with_input(BenchmarkId::new("rtss_clean", n), &clean, |b, s| {
            b.iter(|| black_box(simulate(black_box(s))))
        });
        group.bench_with_input(BenchmarkId::new("rtss_faulted", n), &faulted, |b, s| {
            b.iter(|| black_box(simulate(black_box(s))))
        });
    }
    group.finish();

    // Reference-vs-fast dispatch: each world's fast engine against its
    // linear-scan reference oracle, across the scaling, EDF, overload and
    // admission workloads. Run just this sweep with
    // `cargo bench -p rt-bench --bench engine_scaling -- compiled`.
    fn compile(spec: &SystemSpec) -> CompiledSystem<'_> {
        CompiledSystem::compile(spec).expect("bench systems are valid")
    }
    let mut group = c.benchmark_group("interpreted-vs-compiled");
    for n in TASK_SWEEP {
        let spec = scaled_system(n, TASK_SWEEP_HORIZON);
        group.bench_with_input(BenchmarkId::new("sim_reference", n), &spec, |b, s| {
            b.iter(|| black_box(simulate_reference(black_box(s))))
        });
        group.bench_with_input(BenchmarkId::new("sim_compiled", n), &spec, |b, s| {
            b.iter(|| black_box(simulate(black_box(s))))
        });
    }
    {
        let n = 300usize;
        let spec = scaled_system(n, TASK_SWEEP_HORIZON);
        group.bench_with_input(BenchmarkId::new("exec_reference", n), &spec, |b, s| {
            b.iter(|| {
                black_box(execute_reference(
                    black_box(s),
                    &ExecutionConfig::reference(),
                ))
            })
        });
        // The fast row reuses a prepared plan: validation, policy
        // resolution, event planning and the substrate analysis are paid
        // once, and every run drives the zero-allocation driver.
        let compiled = compile(&spec);
        let plan = compiled.execution_plan(&ExecutionConfig::reference());
        group.bench_with_input(BenchmarkId::new("exec_compiled", n), &plan, |b, p| {
            b.iter(|| black_box(p.run()))
        });
        for (label, spec) in [
            ("edf_sim", edf_scaled_system(n, TASK_SWEEP_HORIZON)),
            (
                "admission_sim",
                admission_scaled_system(n, TASK_SWEEP_HORIZON),
            ),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("{label}_reference"), n),
                &spec,
                |b, s| b.iter(|| black_box(simulate_reference(black_box(s)))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{label}_compiled"), n),
                &spec,
                |b, s| b.iter(|| black_box(simulate(black_box(s)))),
            );
        }
    }
    {
        let spec = overloaded_system(3_000);
        group.bench_with_input(
            BenchmarkId::new("overload_sim_reference", 3_000u64),
            &spec,
            |b, s| b.iter(|| black_box(simulate_reference(black_box(s)))),
        );
        group.bench_with_input(
            BenchmarkId::new("overload_sim_compiled", 3_000u64),
            &spec,
            |b, s| b.iter(|| black_box(simulate(black_box(s)))),
        );
    }
    group.finish();

    // Probe overhead at the acceptance size: the NoopProbe rows must match
    // the probe-free loops (disabled observability is zero code — `simulate`
    // *is* the driver's NoopProbe monomorphization), and the MetricsProbe
    // rows measure the cost of live counters + histograms, on the simulation
    // and execution drivers alike (`execute` is the execution driver's
    // NoopProbe monomorphization). Run just this sweep with
    // `cargo bench -p rt-bench --bench engine_scaling -- observe`.
    let mut group = c.benchmark_group("observe");
    {
        let n = 300usize;
        let spec = scaled_system(n, TASK_SWEEP_HORIZON);
        group.bench_with_input(BenchmarkId::new("sim_noop", n), &spec, |b, s| {
            b.iter(|| black_box(simulate(black_box(s))))
        });
        group.bench_with_input(BenchmarkId::new("sim_metrics", n), &spec, |b, s| {
            b.iter(|| {
                let mut probe = MetricsProbe::new();
                black_box(simulate_with_probe(black_box(s), &mut probe));
                black_box(probe);
            })
        });
        group.bench_with_input(BenchmarkId::new("exec_noop", n), &spec, |b, s| {
            b.iter(|| {
                black_box(execute_with_probe(
                    black_box(s),
                    &ExecutionConfig::reference(),
                    NoopProbe,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("exec_metrics", n), &spec, |b, s| {
            b.iter(|| {
                let mut probe = MetricsProbe::new();
                black_box(execute_with_probe(
                    black_box(s),
                    &ExecutionConfig::reference(),
                    &mut probe,
                ));
                black_box(probe);
            })
        });
    }
    group.finish();

    // Compile-cost sweep: `CompiledSystem::compile` against a growing
    // workload (10²..10⁵ events) with the structure pinned. Compilation
    // borrows the spec and never walks the events, so it is
    // O(tasks + servers) — the measured cost must be flat across this
    // sweep. Run just this sweep
    // with `cargo bench -p rt-bench --bench engine_scaling -- compile_cost`.
    let mut group = c.benchmark_group("compile_cost");
    for events in EVENT_SWEEP {
        let spec = event_sweep_system(events);
        group.bench_with_input(BenchmarkId::new("compile", events), &spec, |b, s| {
            b.iter(|| black_box(compile(black_box(s))))
        });
    }
    group.finish();

    // Paper-shaped runs: every system of a 10³-system batch of set (2,2),
    // per engine and server policy. Run just this sweep with
    // `cargo bench -p rt-bench --bench engine_scaling -- paper`.
    let mut group = c.benchmark_group("paper");
    for (policy_label, policy) in PAPER_POLICIES {
        let batch = paper_batch(policy);
        for (engine, run) in PAPER_ENGINES {
            group.bench_with_input(
                BenchmarkId::new(format!("{engine}_{policy_label}"), PAPER_SYSTEMS),
                &batch,
                |b, systems| {
                    b.iter(|| {
                        for spec in systems {
                            black_box(run(black_box(spec)));
                        }
                    })
                },
            );
        }
    }
    group.finish();

    // Harness worker scaling over a thousands-of-systems batch.
    let batch = harness_batch(100);
    let mut group = c.benchmark_group("harness_scaling");
    let mut worker_counts = vec![1usize, 2, 4];
    if !worker_counts.contains(&available_workers()) {
        worker_counts.push(available_workers());
    }
    for workers in worker_counts {
        group.bench_with_input(
            BenchmarkId::new("run_systems", workers),
            &workers,
            |b, &w| b.iter(|| black_box(run_systems(&batch, EvaluationMode::Execution, w))),
        );
    }
    group.finish();

    // Speedup summary (single-shot timings; the acceptance gate is the
    // 300-task row).
    println!();
    println!("per-run speedup, indexed vs linear scan (horizon {TASK_SWEEP_HORIZON} units):");
    println!(
        "{:>6} {:>12} {:>12} {:>8} {:>12} {:>12} {:>8}",
        "tasks", "rtsj idx", "rtsj scan", "speedup", "rtss idx", "rtss scan", "speedup"
    );
    for n in TASK_SWEEP {
        let spec = scaled_system(n, TASK_SWEEP_HORIZON);
        // Warm up allocators and caches once per size.
        black_box(execute(&spec, &ExecutionConfig::reference()));
        black_box(simulate(&spec));
        let rtsj_indexed = time_once(|| {
            black_box(execute(&spec, &ExecutionConfig::reference()));
        });
        let rtsj_scan = time_once(|| {
            black_box(execute_reference(&spec, &ExecutionConfig::reference()));
        });
        let rtss_indexed = time_once(|| {
            black_box(simulate(&spec));
        });
        let rtss_scan = time_once(|| {
            black_box(simulate_reference(&spec));
        });
        println!(
            "{:>6} {:>11.2}ms {:>11.2}ms {:>7.1}x {:>11.2}ms {:>11.2}ms {:>7.1}x",
            n,
            rtsj_indexed * 1e3,
            rtsj_scan * 1e3,
            rtsj_scan / rtsj_indexed,
            rtss_indexed * 1e3,
            rtss_scan * 1e3,
            rtss_scan / rtss_indexed,
        );
    }

    // Harness throughput summary (the acceptance gate is ≥2× systems/sec at
    // 4 workers over the sequential path — reachable only on ≥4 hardware
    // threads, since the runs are CPU-bound).
    let batch = harness_batch(500);
    black_box(run_systems(&batch, EvaluationMode::Execution, 1)); // warm-up
    println!();
    println!(
        "harness throughput, {} independent table systems (execution mode, \
         {} hardware threads):",
        batch.len(),
        available_workers()
    );
    println!(
        "{:>8} {:>12} {:>14} {:>8}",
        "workers", "seconds", "systems/sec", "speedup"
    );
    let sequential = time_once(|| {
        black_box(run_systems(&batch, EvaluationMode::Execution, 1));
    });
    let mut worker_sweep = vec![1, 2, 4];
    let hardware = available_workers();
    if !worker_sweep.contains(&hardware) {
        worker_sweep.push(hardware);
    }
    for workers in worker_sweep {
        let elapsed = time_once(|| {
            black_box(run_systems(&batch, EvaluationMode::Execution, workers));
        });
        println!(
            "{:>8} {:>11.3}s {:>14.1} {:>7.2}x",
            workers,
            elapsed,
            batch.len() as f64 / elapsed,
            sequential / elapsed,
        );
    }

    // Median of several runs: the summaries below compare constant
    // factors, easily drowned by a single noisy measurement.
    let median = |f: &dyn Fn()| {
        f(); // warm-up
        let mut times: Vec<f64> = (0..5).map(|_| time_once(f)).collect();
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };

    // EDF summary: FP vs EDF per-run cost at the acceptance size.
    println!();
    println!("EDF vs fixed-priority dispatch (300 tasks, horizon {TASK_SWEEP_HORIZON} units):");
    println!(
        "{:>6} {:>12} {:>12} {:>8} {:>12} {:>12} {:>8}",
        "tasks", "rtsj FP", "rtsj EDF", "ratio", "rtss FP", "rtss EDF", "ratio"
    );
    {
        let n = 300usize;
        let fp = scaled_system(n, TASK_SWEEP_HORIZON);
        let edf = edf_scaled_system(n, TASK_SWEEP_HORIZON);
        black_box(execute(&fp, &ExecutionConfig::reference()));
        black_box(execute(&edf, &ExecutionConfig::reference()));
        let rtsj_fp = time_once(|| {
            black_box(execute(&fp, &ExecutionConfig::reference()));
        });
        let rtsj_edf = time_once(|| {
            black_box(execute(&edf, &ExecutionConfig::reference()));
        });
        black_box(simulate(&fp));
        black_box(simulate(&edf));
        let rtss_fp = time_once(|| {
            black_box(simulate(&fp));
        });
        let rtss_edf = time_once(|| {
            black_box(simulate(&edf));
        });
        println!(
            "{:>6} {:>11.2}ms {:>11.2}ms {:>7.2}x {:>11.2}ms {:>11.2}ms {:>7.2}x",
            n,
            rtsj_fp * 1e3,
            rtsj_edf * 1e3,
            rtsj_edf / rtsj_fp,
            rtss_fp * 1e3,
            rtss_edf * 1e3,
            rtss_edf / rtss_fp,
        );
    }

    // Overload summary: executions of the burst workload must scale linearly
    // with the horizon, i.e. hold their cost per trace segment. The indexed
    // pending queue removed the backlog scan (~255 s at horizon 10⁴ before
    // it) and the id-keyed outcome completion the per-run quadratic
    // finalisation. The rows are persisted in the `overload` trajectory
    // group with the 10³ row as baseline, so a `speedup` of at
    // least 0.5 on `exec/10000` certifies at most 2× growth per segment.
    println!();
    println!("overloaded-DS execution (16 events/10 units, capacity 5, period 10):");
    println!(
        "{:>8} {:>12} {:>14} {:>12} {:>8}",
        "horizon", "seconds", "events", "ns/segment", "vs 10^3"
    );
    let mut overload_rows: Vec<BenchRecord> = Vec::new();
    let mut base_ns = 0.0_f64;
    for horizon in OVERLOAD_HORIZONS {
        let spec = overloaded_system(horizon);
        let segments = execute(&spec, &ExecutionConfig::reference()).segments.len();
        let elapsed = fastest_of(7, &|| {
            black_box(execute(&spec, &ExecutionConfig::reference()));
        });
        let ns = elapsed * 1e9 / segments as f64;
        if horizon == OVERLOAD_HORIZONS[0] {
            base_ns = ns;
        }
        println!(
            "{:>8} {:>11.4}s {:>14} {:>10.0}ns {:>7.2}x",
            horizon,
            elapsed,
            spec.aperiodics.len(),
            ns,
            ns / base_ns
        );
        overload_rows.push(BenchRecord {
            group: "overload".into(),
            config: format!("exec/{horizon}"),
            ns_per_decision: ns,
            speedup: base_ns / ns,
        });
    }

    // Admission summary: per-decision cost of the incremental virtual-plan
    // predictor vs the O(backlog) repack reference. The incremental column
    // must stay flat as the backlog grows (the O(log backlog) acceptance
    // gate — it is in fact amortised O(1)); the repack column grows
    // linearly.
    println!();
    println!("admission decision cost (DeadlinePredictive, per arrival):");
    println!(
        "{:>8} {:>14} {:>14} {:>8}",
        "backlog", "incremental", "repack", "ratio"
    );
    for backlog in ADMISSION_BACKLOGS {
        let state = admission_backlog_state(backlog);
        let probes = 10_000u32;
        black_box(state.predicted_completion(Instant::ZERO, Span::from_units(2)));
        let incremental = time_once(|| {
            for _ in 0..probes {
                black_box(state.predicted_completion(Instant::ZERO, Span::from_units(2)));
            }
        }) / probes as f64;
        let repack_probes = (probes / backlog as u32).max(4);
        black_box(state.predicted_completion_repack(Instant::ZERO, Span::from_units(2)));
        let repack = time_once(|| {
            for _ in 0..repack_probes {
                black_box(state.predicted_completion_repack(Instant::ZERO, Span::from_units(2)));
            }
        }) / repack_probes as f64;
        println!(
            "{:>8} {:>12.0}ns {:>12.0}ns {:>7.1}x",
            backlog,
            incremental * 1e9,
            repack * 1e9,
            repack / incremental
        );
    }

    // Reference-vs-fast summary and the persisted bench trajectory. The
    // per-decision denominator is the segment count of the trace, which is
    // engine-independent: the fast and reference traces are byte-identical
    // (pinned by `tests/engine_differential.rs`). The fast rows keep their
    // `compiled` names.
    println!();
    println!("reference vs fast dispatch (per-decision cost; decisions = trace segments):");
    println!(
        "{:>22} {:>10} {:>13} {:>13} {:>8}",
        "workload", "decisions", "reference", "fast", "speedup"
    );
    let mut records: Vec<BenchRecord> = Vec::new();
    fn compiled_row(
        records: &mut Vec<BenchRecord>,
        group: &str,
        label: String,
        decisions: usize,
        reference: f64,
        fast: f64,
    ) {
        let reference_ns = reference * 1e9 / decisions as f64;
        let fast_ns = fast * 1e9 / decisions as f64;
        println!(
            "{:>22} {:>10} {:>11.1}ns {:>11.1}ns {:>7.2}x",
            label,
            decisions,
            reference_ns,
            fast_ns,
            reference_ns / fast_ns
        );
        records.push(BenchRecord {
            group: group.into(),
            config: format!("{label}/reference"),
            ns_per_decision: reference_ns,
            speedup: 1.0,
        });
        records.push(BenchRecord {
            group: group.into(),
            config: format!("{label}/compiled"),
            ns_per_decision: fast_ns,
            speedup: reference_ns / fast_ns,
        });
    }
    let sim_point =
        |records: &mut Vec<BenchRecord>, group: &str, label: String, spec: &SystemSpec| {
            let decisions = simulate(spec).segments.len();
            let reference = median(&|| {
                black_box(simulate_reference(spec));
            });
            let fast = median(&|| {
                black_box(simulate(spec));
            });
            compiled_row(&mut *records, group, label, decisions, reference, fast);
        };
    for n in TASK_SWEEP {
        let spec = scaled_system(n, TASK_SWEEP_HORIZON);
        sim_point(&mut records, "scaling", format!("sim/{n}"), &spec);
    }
    {
        let spec = scaled_system(300, TASK_SWEEP_HORIZON);
        let compiled_sys = compile(&spec);
        let plan = compiled_sys.execution_plan(&ExecutionConfig::reference());
        let decisions = plan.run().segments.len();
        let reference = median(&|| {
            black_box(execute_reference(&spec, &ExecutionConfig::reference()));
        });
        let fast = median(&|| {
            black_box(plan.run());
        });
        compiled_row(
            &mut records,
            "scaling",
            "exec/300".into(),
            decisions,
            reference,
            fast,
        );
    }
    sim_point(
        &mut records,
        "edf",
        "sim/300".into(),
        &edf_scaled_system(300, TASK_SWEEP_HORIZON),
    );
    sim_point(
        &mut records,
        "admission",
        "sim/300".into(),
        &admission_scaled_system(300, TASK_SWEEP_HORIZON),
    );
    sim_point(
        &mut records,
        "overload",
        "sim/3000".into(),
        &overloaded_system(3_000),
    );
    records.append(&mut overload_rows);

    // Fault-enforcement summary: per-decision cost with an active fault
    // plan against the fault-free baseline. Decisions are each trace's own
    // segment count (aborted overruns shorten the faulted trace). The
    // persisted `faults` group keeps the trajectory's speedup convention
    // with the fault-free run as baseline, so a value below 1 is the
    // enforcement overhead.
    println!();
    println!("fault-plan enforcement overhead (per-decision cost; baseline = fault-free):");
    println!(
        "{:>22} {:>10} {:>13} {:>13} {:>8}",
        "workload", "decisions", "clean", "faulted", "overhead"
    );
    fn faults_row(
        records: &mut Vec<BenchRecord>,
        label: &str,
        clean: (usize, f64),
        faulted: (usize, f64),
    ) {
        let clean_ns = clean.1 * 1e9 / clean.0 as f64;
        let faulted_ns = faulted.1 * 1e9 / faulted.0 as f64;
        println!(
            "{:>22} {:>10} {:>11.1}ns {:>11.1}ns {:>7.2}x",
            label,
            faulted.0,
            clean_ns,
            faulted_ns,
            faulted_ns / clean_ns
        );
        records.push(BenchRecord {
            group: "faults".into(),
            config: format!("{label}/clean"),
            ns_per_decision: clean_ns,
            speedup: 1.0,
        });
        records.push(BenchRecord {
            group: "faults".into(),
            config: format!("{label}/faulted"),
            ns_per_decision: faulted_ns,
            speedup: clean_ns / faulted_ns,
        });
    }
    {
        let n = 300usize;
        let clean = scaled_system(n, TASK_SWEEP_HORIZON);
        let faulted = faulted_system(n, TASK_SWEEP_HORIZON);
        let exec_clean = (
            execute(&clean, &ExecutionConfig::reference())
                .segments
                .len(),
            median(&|| {
                black_box(execute(&clean, &ExecutionConfig::reference()));
            }),
        );
        let exec_faulted = (
            execute(&faulted, &ExecutionConfig::reference())
                .segments
                .len(),
            median(&|| {
                black_box(execute(&faulted, &ExecutionConfig::reference()));
            }),
        );
        faults_row(&mut records, "exec/300", exec_clean, exec_faulted);
        let sim_clean = (
            simulate(&clean).segments.len(),
            median(&|| {
                black_box(simulate(&clean));
            }),
        );
        let sim_faulted = (
            simulate(&faulted).segments.len(),
            median(&|| {
                black_box(simulate(&faulted));
            }),
        );
        faults_row(&mut records, "sim-compiled/300", sim_clean, sim_faulted);
    }

    // Probe-overhead summary: per-decision cost with a recording
    // MetricsProbe against the NoopProbe default (for both drivers the
    // plain entry point — disabled observability compiles to probe-free
    // machine code). The persisted
    // `observe` group keeps the trajectory's speedup convention with the
    // noop run as baseline, so a value below 1 is the recording overhead.
    println!();
    println!("probe overhead (per-decision cost; baseline = NoopProbe):");
    println!(
        "{:>22} {:>10} {:>13} {:>13} {:>8}",
        "workload", "decisions", "noop", "metrics", "overhead"
    );
    fn observe_row(
        records: &mut Vec<BenchRecord>,
        label: &str,
        decisions: usize,
        noop: f64,
        metrics: f64,
    ) {
        let noop_ns = noop * 1e9 / decisions as f64;
        let metrics_ns = metrics * 1e9 / decisions as f64;
        println!(
            "{:>22} {:>10} {:>11.1}ns {:>11.1}ns {:>7.2}x",
            label,
            decisions,
            noop_ns,
            metrics_ns,
            metrics_ns / noop_ns
        );
        records.push(BenchRecord {
            group: "observe".into(),
            config: format!("{label}/noop"),
            ns_per_decision: noop_ns,
            speedup: 1.0,
        });
        records.push(BenchRecord {
            group: "observe".into(),
            config: format!("{label}/metrics"),
            ns_per_decision: metrics_ns,
            speedup: noop_ns / metrics_ns,
        });
    }
    {
        // Minimum over several runs, not the median (see `fastest_of`). The
        // simulator rows pin a code-path *identity* — noop IS the plain
        // entry point — and median-of-5 noise on a loaded host was observed
        // to swing them well past the 1.05x gate.
        let min_of = |f: &dyn Fn()| fastest_of(25, f);
        let n = 300usize;
        let spec = scaled_system(n, TASK_SWEEP_HORIZON);
        let decisions = simulate(&spec).segments.len();
        let noop = min_of(&|| {
            black_box(simulate(&spec));
        });
        let metrics = min_of(&|| {
            let mut probe = MetricsProbe::new();
            black_box(simulate_with_probe(&spec, &mut probe));
            black_box(probe);
        });
        observe_row(&mut records, "sim-compiled/300", decisions, noop, metrics);
        let exec_decisions = execute(&spec, &ExecutionConfig::reference()).segments.len();
        let noop = min_of(&|| {
            black_box(execute_with_probe(
                &spec,
                &ExecutionConfig::reference(),
                NoopProbe,
            ));
        });
        let metrics = min_of(&|| {
            let mut probe = MetricsProbe::new();
            black_box(execute_with_probe(
                &spec,
                &ExecutionConfig::reference(),
                &mut probe,
            ));
            black_box(probe);
        });
        observe_row(&mut records, "exec/300", exec_decisions, noop, metrics);
    }

    // Compile-cost summary: zero-copy compilation must stay flat as the
    // event count grows 10² → 10⁵ with the structure pinned (the
    // acceptance gate is ≤1.2× from the first to the last row). The
    // persisted `compile-cost` group reuses the trajectory's speedup
    // convention with the 10²-event row as baseline, so a `speedup` at or
    // above 1/1.2 on the 10⁵ row certifies flatness; `ns_per_decision`
    // here is nanoseconds per compilation.
    println!();
    println!("compile cost vs event count (structure pinned: 30 tasks + 1 server):");
    println!("{:>8} {:>14} {:>8}", "events", "compile", "vs 10^2");
    {
        let mut base_ns = 0.0_f64;
        for events in EVENT_SWEEP {
            let spec = event_sweep_system(events);
            // Minimum over several probe batches, not the median: compile
            // cost is deterministic, so every disturbance (scheduler, page
            // cache, allocator state) is strictly additive and the minimum
            // is the unbiased estimate of the true cost. The median of a
            // handful of batches was observed to swing the 10⁵-event row by
            // 1.5× between otherwise identical runs.
            let probes = 200u32;
            for _ in 0..probes {
                black_box(compile(&spec)); // warm-up batch
            }
            let per_compile = (0..9)
                .map(|_| {
                    time_once(|| {
                        for _ in 0..probes {
                            black_box(compile(&spec));
                        }
                    })
                })
                .fold(f64::INFINITY, f64::min)
                / probes as f64;
            let ns = per_compile * 1e9;
            if events == EVENT_SWEEP[0] {
                base_ns = ns;
            }
            println!("{:>8} {:>12.0}ns {:>7.2}x", events, ns, ns / base_ns);
            records.push(BenchRecord {
                group: "compile-cost".into(),
                config: format!("events/{events}"),
                ns_per_decision: ns,
                speedup: base_ns / ns,
            });
        }
    }

    // Paper-shaped summary: a batch is one run of every system, timed as
    // the fastest of several batches (the runs are deterministic, so
    // disturbances only add); the spread is the slowest batch over the
    // fastest. Decisions are trace segments, events the in-horizon
    // arrivals.
    println!();
    println!(
        "paper set (2,2), {PAPER_SYSTEMS} systems per batch (fastest of {PAPER_BATCHES} batches; \
         spread = slowest / fastest):"
    );
    println!(
        "{:>10} {:>8} {:>10} {:>11} {:>11} {:>13} {:>8}",
        "run", "events", "decisions", "batch", "ns/event", "ns/decision", "spread"
    );
    for (policy_label, policy) in PAPER_POLICIES {
        let batch = paper_batch(policy);
        let events: usize = batch
            .iter()
            .map(|spec| spec.workload().within_horizon_count())
            .sum();
        for (engine, run) in PAPER_ENGINES {
            let decisions: usize = batch.iter().map(|spec| run(spec).segments.len()).sum();
            let pass = || {
                for spec in &batch {
                    black_box(run(black_box(spec)));
                }
            };
            pass(); // warm-up
            let times: Vec<f64> = (0..PAPER_BATCHES).map(|_| time_once(pass)).collect();
            let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
            let slowest = times.iter().copied().fold(0.0, f64::max);
            let config = format!("{engine}/{policy_label}");
            let ns_per_decision = fastest * 1e9 / decisions as f64;
            println!(
                "{:>10} {:>8} {:>10} {:>9.2}ms {:>9.0}ns {:>11.1}ns {:>7.2}x",
                config,
                events,
                decisions,
                fastest * 1e3,
                fastest * 1e9 / events as f64,
                ns_per_decision,
                slowest / fastest
            );
            records.push(BenchRecord {
                group: "paper".into(),
                config,
                ns_per_decision,
                speedup: 1.0,
            });
        }
    }

    match write_bench_trajectory(&records) {
        Ok(path) => println!("bench trajectory written to {}", path.display()),
        Err(err) => println!("bench trajectory NOT written: {err}"),
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
