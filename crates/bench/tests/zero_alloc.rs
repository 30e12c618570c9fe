//! Zero-allocations-per-decision regression test for the execution driver,
//! plus amortized-only allocation checks for every other decision loop (the
//! simulation driver and its reference, the execution driver under EDF and
//! the linear-scan execution reference, and the probe-enabled loops), and
//! for the per-event set-up that builds a workload and prepares its plan.
//! A last test caps the allocations per system of each stage of the paper
//! pipeline (generate, validate, prepare, execute, simulate, measure).
//!
//! Strategy: run the same prepared [`ExecutionPlan`] — whose `run` takes the
//! execution driver — over two horizons, H and 4·H, with an identical
//! aperiodic workload entirely inside the first horizon. The 4·H run makes
//! roughly four times as many scheduling decisions (periodic releases,
//! server activations, dispatches), so if the decision loop allocated
//! anything per decision the global allocation *count* would grow with the
//! horizon. Asserting the counts are exactly equal pins the invariant: every
//! allocation belongs to per-run setup (table construction, reservations,
//! finalisation sorts), none to the steady-state loop.
//!
//! The counting allocator wraps the system allocator with per-thread
//! counters — the test harness runs tests on parallel threads, and a
//! process-wide count would charge one test's allocations to another; the
//! engines run single-threaded, so a thread's own count is the run's. The
//! test file hosts it (rather than `rt-bench`'s library)
//! because implementing `GlobalAlloc` requires `unsafe`, which the library
//! forbids.

use rt_admission::{AdmissionPolicy, ArrivingEvent, ServerAdmission};
use rt_metrics::RunMeasures;
use rt_model::{
    Instant, Priority, QueueDiscipline, SchedulingPolicy, ServerPolicyKind, ServerSpec, Span,
    SystemSpec, Trace,
};
use rt_sysgen::{GeneratorParams, RandomSystemGenerator};
use rt_taskserver::{ExecutionConfig, ExecutionPlan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Static↔dynamic coverage manifest: every `// rt-lint: zero-alloc` region in
/// the workspace, as `(file, fn)` pairs. rt-lint's workspace self-test parses
/// this table out of this file and cross-checks it against the regions the
/// static pass discovers, in both directions: a marker without a manifest
/// entry means the hot loop is not exercised under the counting allocator
/// below; a manifest entry without a marker means the static half of the
/// guarantee was dropped. Keep the list sorted by path then name.
const ZERO_ALLOC_COVERED_FNS: &[(&str, &str)] = &[
    ("crates/admission/src/lib.rs", "try_displace"),
    ("crates/core/src/fastpath.rs", "pick"),
    ("crates/core/src/fastpath.rs", "pick_edf"),
    ("crates/core/src/fastpath.rs", "run"),
    ("crates/metrics/src/hist.rs", "record"),
    ("crates/metrics/src/measures.rs", "with_horizon"),
    ("crates/observe/src/lib.rs", "admission"),
    ("crates/observe/src/lib.rs", "cap_exhausted"),
    ("crates/observe/src/lib.rs", "decision"),
    ("crates/observe/src/lib.rs", "dispatch"),
    ("crates/observe/src/lib.rs", "fire"),
    ("crates/observe/src/lib.rs", "mode_change"),
    ("crates/observe/src/lib.rs", "preemption"),
    ("crates/observe/src/lib.rs", "queue_depth"),
    ("crates/observe/src/lib.rs", "release"),
    ("crates/observe/src/lib.rs", "slice"),
    ("crates/rtsj/src/engine.rs", "pick_runnable"),
    ("crates/rtss/src/driver.rs", "pick_runner_edf"),
    ("crates/rtss/src/driver.rs", "pick_runner_fp"),
    ("crates/rtss/src/driver.rs", "run_server"),
    ("crates/rtss/src/driver.rs", "run_task"),
    ("crates/rtss/src/engine.rs", "pick_runner_edf"),
    ("crates/rtss/src/engine.rs", "pick_runner_fp"),
    ("crates/rtss/src/engine.rs", "run_server"),
    ("crates/rtss/src/engine.rs", "run_task"),
];

struct CountingAllocator;

thread_local! {
    // Const-initialised, destructor-free cells: touching them never
    // allocates, so the allocator can bump them without recursing.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static REALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Bumps one of this thread's counters (a no-op once the thread's locals are
/// gone, during thread teardown).
fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>) {
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// rt-lint: allow(unsafe, reason = "a GlobalAlloc impl is unavoidably unsafe; every method delegates straight to the System allocator and only bumps per-thread counters")
unsafe impl GlobalAlloc for CountingAllocator {
    // rt-lint: allow(unsafe, reason = "required unsafe signature of the GlobalAlloc trait; delegates to System")
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    // rt-lint: allow(unsafe, reason = "required unsafe signature of the GlobalAlloc trait; delegates to System")
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // rt-lint: allow(unsafe, reason = "required unsafe signature of the GlobalAlloc trait; delegates to System")
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// (allocations, reallocations) performed while running `f`.
fn count_allocations(f: impl FnOnce()) -> (usize, usize) {
    let a0 = ALLOCS.with(Cell::get);
    let r0 = REALLOCS.with(Cell::get);
    f();
    (ALLOCS.with(Cell::get) - a0, REALLOCS.with(Cell::get) - r0)
}

/// The `engine_scaling` exec workload shape: a deferrable server over a
/// periodic task set, with every aperiodic released strictly inside the
/// *base* horizon so the two variants see identical traffic.
fn workload(horizon_units: u64) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("zero-alloc-{horizon_units}"));
    b.server(ServerSpec::deferrable(
        Span::from_units(2),
        Span::from_units(10),
        Priority::new(99),
    ));
    for i in 0..40 {
        b.periodic(
            format!("t{i}"),
            Span::from_ticks(180),
            Span::from_units(10),
            Priority::new(1 + (i % 90) as u8),
        );
    }
    for j in 0..60 {
        b.aperiodic(Instant::from_units(j * 3), Span::from_ticks(500));
    }
    b.horizon(Instant::from_units(horizon_units));
    b.build().expect("zero-alloc workloads are valid")
}

#[test]
fn execution_fast_path_allocation_count_is_horizon_independent() {
    const BASE: u64 = 200; // last arrival at 177, well inside
    let config = ExecutionConfig::reference();

    let spec_base = workload(BASE);
    let spec_long = workload(4 * BASE);
    let plan_base = ExecutionPlan::prepare(&spec_base, &config).expect("valid spec");
    let plan_long = ExecutionPlan::prepare(&spec_long, &config).expect("valid spec");

    // Warm-up outside the counted region (lazy statics, first-touch caches).
    let warm_base = plan_base.run();
    let warm_long = plan_long.run();
    assert!(
        warm_long.segments.len() > 2 * warm_base.segments.len(),
        "the long run must actually make more decisions ({} vs {})",
        warm_long.segments.len(),
        warm_base.segments.len()
    );

    let mut base_trace = None;
    let (base_allocs, base_reallocs) = count_allocations(|| {
        base_trace = Some(plan_base.run());
    });
    let mut long_trace = None;
    let (long_allocs, long_reallocs) = count_allocations(|| {
        long_trace = Some(plan_long.run());
    });

    // Sanity: the runs were real (traces dropped only after counting).
    assert_eq!(base_trace.unwrap().outcomes.len(), 60);
    assert_eq!(long_trace.unwrap().outcomes.len(), 60);

    assert_eq!(
        (base_allocs, base_reallocs),
        (long_allocs, long_reallocs),
        "4x the horizon must not change the allocation count: every \
         allocation must be per-run setup, none per decision"
    );
}

/// Variant of [`workload`] with the scheduling policy forced, so the EDF
/// pickers (`pick_runner_edf`) are driven too.
fn workload_with(horizon_units: u64, scheduling: SchedulingPolicy) -> SystemSpec {
    let mut spec = workload(horizon_units);
    spec.scheduling = scheduling;
    spec
}

/// Runs `run` on the base and 4x horizons and asserts the allocation growth
/// is amortized-only: the long run makes several times the decisions, so any
/// per-decision allocation would add thousands of allocations, while legal
/// amortized growth (a trace vector doubling past its reservation) adds at
/// most a handful. The budget is deliberately far below the decision delta
/// and far above any doubling schedule.
fn assert_amortized_only(label: &str, run: impl Fn(&SystemSpec) -> Trace) {
    const BASE: u64 = 200;
    const AMORTIZED_BUDGET: usize = 48;
    let spec_base = workload(BASE);
    let spec_long = workload(4 * BASE);

    // Warm-up outside the counted region (lazy statics, first-touch caches).
    let warm_base = run(&spec_base);
    let warm_long = run(&spec_long);
    assert!(
        warm_long.segments.len() > 2 * warm_base.segments.len(),
        "{label}: the long run must make more decisions ({} vs {})",
        warm_long.segments.len(),
        warm_base.segments.len()
    );

    let (base_allocs, base_reallocs) = count_allocations(|| {
        std::hint::black_box(run(&spec_base));
    });
    let (long_allocs, long_reallocs) = count_allocations(|| {
        std::hint::black_box(run(&spec_long));
    });
    let base_total = base_allocs + base_reallocs;
    let long_total = long_allocs + long_reallocs;
    let growth = long_total.saturating_sub(base_total);
    assert!(
        growth <= AMORTIZED_BUDGET,
        "{label}: 4x the horizon grew the allocation count by {growth} \
         ({base_total} -> {long_total}); the decision loops must not allocate \
         per decision (amortized budget: {AMORTIZED_BUDGET})"
    );
}

#[test]
fn simulator_decision_loops_allocate_amortized_only() {
    for (label, simulate) in [
        ("rtss-sim", rtss_sim::simulate as fn(&SystemSpec) -> Trace),
        ("rtss-sim reference", rtss_sim::simulate_reference),
    ] {
        assert_amortized_only(&format!("{label} fp"), simulate);
        assert_amortized_only(&format!("{label} edf"), |spec| {
            simulate(&workload_with(
                spec.horizon.ticks() / 1000,
                SchedulingPolicy::Edf,
            ))
        });
    }
}

#[test]
fn emulation_engine_decision_loop_allocates_amortized_only() {
    let config = ExecutionConfig::reference();
    for (label, execute) in [
        (
            "execution driver",
            rt_taskserver::execute as fn(&SystemSpec, &ExecutionConfig) -> Trace,
        ),
        ("rtsj-emu reference", rt_taskserver::execute_reference),
    ] {
        assert_amortized_only(&format!("{label} fp"), |spec| execute(spec, &config));
        assert_amortized_only(&format!("{label} edf"), |spec| {
            execute(
                &workload_with(spec.horizon.ticks() / 1000, SchedulingPolicy::Edf),
                &config,
            )
        });
    }
}

/// The probe-*enabled* decision loops obey the same discipline: a recording
/// [`rt_observe::MetricsProbe`] is preallocated (fixed-bucket histograms,
/// plain counters), so attaching it must not add a single allocation per
/// decision on any engine. This is the dynamic half of the manifest entries
/// for `crates/observe/src/lib.rs` and `crates/metrics/src/hist.rs`
/// (`TickHistogram::record` is the only operation the hooks perform in the
/// hot loops).
#[test]
fn probe_enabled_decision_loops_allocate_amortized_only() {
    use rt_observe::MetricsProbe;
    assert_amortized_only("rtss-sim observed", |spec| {
        let mut probe = MetricsProbe::new();
        rtss_sim::simulate_with_probe(spec, &mut probe)
    });
    let config = ExecutionConfig::reference();
    assert_amortized_only("execution driver observed fp", |spec| {
        let mut probe = MetricsProbe::new();
        rt_taskserver::execute_with_probe(spec, &config, &mut probe)
    });
    assert_amortized_only("execution driver observed edf", |spec| {
        let mut probe = MetricsProbe::new();
        rt_taskserver::execute_with_probe(
            &workload_with(spec.horizon.ticks() / 1000, SchedulingPolicy::Edf),
            &config,
            &mut probe,
        )
    });
}

/// Per-event set-up allocates amortized-only too: an aperiodic event owns no
/// heap data, so building a workload (the builder's `aperiodic` calls plus
/// `build()`) and preparing its execution plan allocate the same for N and
/// 4N in-horizon events, up to the `Vec` doublings of the growing tables.
#[test]
fn per_event_setup_allocates_amortized_only() {
    const N: u64 = 256;
    const DOUBLINGS: usize = 8;
    let config = ExecutionConfig::reference();
    let setup_allocations = |events: u64| {
        let mut b = SystemSpec::builder("per-event-setup");
        b.server(ServerSpec::deferrable(
            Span::from_units(2),
            Span::from_units(10),
            Priority::new(99),
        ));
        b.periodic(
            "tau1",
            Span::from_units(2),
            Span::from_units(10),
            Priority::new(10),
        );
        b.horizon(Instant::from_units(4 * N + 10));
        let mut spec = None;
        let (build_allocs, build_reallocs) = count_allocations(|| {
            for j in 0..events {
                b.aperiodic(Instant::from_units(j), Span::from_ticks(500));
            }
            spec = Some(b.build().expect("set-up workloads are valid"));
        });
        let spec = spec.expect("built above");
        let mut plan = None;
        let (prepare_allocs, prepare_reallocs) = count_allocations(|| {
            plan = Some(ExecutionPlan::prepare(&spec, &config).expect("valid spec"));
        });
        assert_eq!(
            plan.expect("prepared above").run().outcomes.len() as u64,
            events
        );
        (
            build_allocs + build_reallocs,
            prepare_allocs + prepare_reallocs,
        )
    };
    let (build_n, prepare_n) = setup_allocations(N);
    let (build_4n, prepare_4n) = setup_allocations(4 * N);
    assert!(
        build_4n <= build_n + DOUBLINGS,
        "building {} events allocated {build_4n} times against {build_n} for {N}: \
         the builder must not allocate per event",
        4 * N
    );
    assert!(
        prepare_4n <= prepare_n + DOUBLINGS,
        "preparing {} events allocated {prepare_4n} times against {prepare_n} for {N}: \
         the execution plan must not allocate per event",
        4 * N
    );
}

/// A sustained 4× overload burst into a polling server (the shape of the
/// admission differential suite's burst): server bandwidth 5/10 = 0.5, one
/// cost-2 event per unit with a 30-unit relative deadline and a cycling
/// value tag, for `units` units. The traffic — and with it every admission
/// decision and D-OVER displacement — grows with the horizon.
fn overload_burst(policy: AdmissionPolicy, units: u64) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("overload-burst-{units}"));
    b.server(
        ServerSpec::polling(Span::from_units(5), Span::from_units(10), Priority::new(30))
            .with_admission(policy),
    );
    b.periodic(
        "tau1",
        Span::from_units(2),
        Span::from_units(10),
        Priority::new(20),
    );
    for t in 0..units {
        b.aperiodic(Instant::from_units(t), Span::from_units(2));
        let event = b.last_aperiodic_mut().expect("event just added");
        event.relative_deadline = Some(Span::from_units(30));
        event.value = (t % 7 + 1) * event.declared_cost.ticks();
    }
    b.horizon(Instant::from_units(units));
    b.build().expect("overload bursts are valid")
}

/// An overload burst into a deadline-ordered queue, with costs that make
/// the most urgent entry oversized: one event every two units, alternating
/// between cost 4 with a 25-unit deadline and cost 1 with a 40-unit one
/// (2.5× the server's bandwidth of 5/10). Once a cost-4 service leaves one
/// unit of the instance, a more urgent cost-4 entry no longer fits and the
/// selection skips it for a cost-1 entry, instance after instance.
fn deadline_ordered_burst(units: u64) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("deadline-ordered-burst-{units}"));
    b.server(
        ServerSpec::polling(Span::from_units(5), Span::from_units(10), Priority::new(30))
            .with_discipline(QueueDiscipline::DeadlineOrdered)
            .with_admission(AdmissionPolicy::DeadlinePredictive),
    );
    b.periodic(
        "tau1",
        Span::from_units(2),
        Span::from_units(10),
        Priority::new(20),
    );
    for (i, t) in (0..units).step_by(2).enumerate() {
        let (cost, deadline) = if i % 2 == 0 { (4, 25) } else { (1, 40) };
        b.aperiodic(Instant::from_units(t), Span::from_units(cost));
        let event = b.last_aperiodic_mut().expect("event just added");
        event.relative_deadline = Some(Span::from_units(deadline));
    }
    b.horizon(Instant::from_units(units));
    b.build().expect("overload bursts are valid")
}

/// A burst shape, by the number of units of traffic.
type Burst = fn(u64) -> SystemSpec;

/// The overload paths allocate amortized-only: replaying a burst's arrivals
/// through the admission machine (with a reused abort buffer), simulating
/// it and executing it allocate about the same for N and 4N units of
/// traffic under both predictive policies, and with a deadline-ordered
/// queue whose selections skip. Any per-arrival, per-abort or per-skip
/// allocation — a displacement that collects its survivors, a queue
/// compaction that rebuilds into fresh buffers, a selection that collects
/// the entries it skips — would add thousands; the budget covers the few
/// extra doublings of the growing tables.
#[test]
fn overload_paths_allocate_amortized_only() {
    const N: u64 = 1_000;
    const AMORTIZED_BUDGET: usize = 16;
    let config = ExecutionConfig::reference();
    let bursts: [(&str, Burst); 3] = [
        ("ValueDensity", |units| {
            overload_burst(AdmissionPolicy::ValueDensity, units)
        }),
        ("DeadlinePredictive", |units| {
            overload_burst(AdmissionPolicy::DeadlinePredictive, units)
        }),
        ("DeadlineOrdered", deadline_ordered_burst),
    ];
    for (input, burst) in bursts {
        let allocations = |units: u64| {
            let spec = burst(units);
            let arrivals: Vec<ArrivingEvent> = spec
                .aperiodics
                .iter()
                .map(|e| ArrivingEvent {
                    event: e.id,
                    release: e.release,
                    declared_cost: e.declared_cost,
                    deadline: e.absolute_deadline(),
                    value: e.value,
                })
                .collect();
            // Warm-up outside the counted regions.
            std::hint::black_box(rtss_sim::simulate(&spec));
            std::hint::black_box(rt_taskserver::execute(&spec, &config));
            let mut machine = ServerAdmission::for_server(&spec.servers[0]);
            let mut aborted = Vec::new();
            let (a, r) = count_allocations(|| {
                for arrival in &arrivals {
                    std::hint::black_box(machine.on_arrival_into(arrival, &mut aborted));
                }
            });
            let (_, rejected, displaced) = machine.counters();
            assert!(rejected > 0, "{input}: the burst must overload the server");
            if spec.servers[0].admission == AdmissionPolicy::ValueDensity {
                assert!(
                    displaced as u64 > units / 10,
                    "{input}: D-OVER must displace throughout the burst ({displaced})"
                );
            }
            let (sa, sr) = count_allocations(|| {
                std::hint::black_box(rtss_sim::simulate(&spec));
            });
            let (ea, er) = count_allocations(|| {
                std::hint::black_box(rt_taskserver::execute(&spec, &config));
            });
            [a + r, sa + sr, ea + er]
        };
        let base = allocations(N);
        let long = allocations(4 * N);
        for ((label, base), long) in ["admission replay", "simulate", "execute"]
            .into_iter()
            .zip(base)
            .zip(long)
        {
            assert!(
                long <= base + AMORTIZED_BUDGET,
                "{input} {label}: {} units of overload allocated {long} times against \
                 {base} for {N}: the overload paths must not allocate per arrival \
                 (amortized budget: {AMORTIZED_BUDGET})",
                4 * N
            );
        }
    }
}

/// A sporadic server's chunk timers allocate amortized-only: SS(2, 10) over
/// one periodic task, one cost-0.5 event every 3 units for `units` units.
/// Every consumption chunk the server closes arms a replenishment timer
/// through its body's context, so a request buffer built per pump would add
/// one allocation per chunk — hundreds for 4N units against N.
#[test]
fn sporadic_server_execution_allocates_amortized_only() {
    const N: u64 = 180;
    const AMORTIZED_BUDGET: usize = 16;
    let config = ExecutionConfig::reference();
    let allocations = |units: u64| {
        let mut b = SystemSpec::builder(format!("sporadic-chunks-{units}"));
        b.server(ServerSpec::sporadic(
            Span::from_units(2),
            Span::from_units(10),
            Priority::new(99),
        ));
        b.periodic(
            "tau1",
            Span::from_units(2),
            Span::from_units(10),
            Priority::new(10),
        );
        for t in (0..units).step_by(3) {
            b.aperiodic(Instant::from_units(t), Span::from_ticks(500));
        }
        b.horizon(Instant::from_units(units));
        let spec = b.build().expect("sporadic workloads are valid");
        let plan = ExecutionPlan::prepare(&spec, &config).expect("valid spec");
        // Warm-up outside the counted region (lazy statics, the thread's
        // scratch).
        std::hint::black_box(plan.run());
        let (a, r) = count_allocations(|| {
            std::hint::black_box(plan.run());
        });
        a + r
    };
    let base = allocations(N);
    let long = allocations(4 * N);
    assert!(
        long <= base + AMORTIZED_BUDGET,
        "{} units of sporadic-server traffic allocated {long} times against {base} for \
         {N}: arming a chunk's replenishment must not allocate (amortized budget: \
         {AMORTIZED_BUDGET})",
        4 * N
    );
}

/// Mean (allocations + reallocations) per system of each stage of the paper
/// pipeline (generate → validate → prepare/run → measure) over 100 systems
/// of paper set (2,2).
fn paper_pipeline_allocations(policy: ServerPolicyKind) -> [(&'static str, f64); 6] {
    const SYSTEMS: usize = 100;
    let mut params = GeneratorParams::paper_set(2, 2);
    params.nb_generation = SYSTEMS;
    let generator = RandomSystemGenerator::new(params, policy).expect("paper parameters are valid");
    let config = ExecutionConfig::reference();
    // Warm-up outside the counted regions (lazy statics, first-touch caches).
    let warm = generator.generate();
    std::hint::black_box(rtss_sim::simulate(&warm[0]));
    std::hint::black_box(rt_taskserver::execute(&warm[0], &config));
    drop(warm);

    let total = |(allocs, reallocs): (usize, usize)| (allocs + reallocs) as f64 / SYSTEMS as f64;
    let mut specs = Vec::new();
    let generate = total(count_allocations(|| specs = generator.generate()));
    let validate = total(count_allocations(|| {
        for spec in &specs {
            spec.validate().expect("generated systems are valid");
        }
    }));
    let prepare = total(count_allocations(|| {
        for spec in &specs {
            std::hint::black_box(ExecutionPlan::prepare(spec, &config).expect("valid spec"));
        }
    }));
    let traces: Vec<Trace> = specs.iter().map(rtss_sim::simulate).collect();
    let simulate = total(count_allocations(|| {
        for spec in &specs {
            std::hint::black_box(rtss_sim::simulate(spec));
        }
    }));
    let execute = total(count_allocations(|| {
        for spec in &specs {
            std::hint::black_box(rt_taskserver::execute(spec, &config));
        }
    }));
    let measure = total(count_allocations(|| {
        for trace in &traces {
            std::hint::black_box(RunMeasures::from_trace(trace));
        }
    }));
    [
        ("generate()", generate),
        ("validate", validate),
        ("ExecutionPlan::prepare", prepare),
        ("execute", execute),
        ("simulate", simulate),
        ("RunMeasures::from_trace", measure),
    ]
}

/// Ceilings on the per-system bookkeeping of the paper tables: a paper
/// system (one server, 10–30 events, no periodic tasks) is generated,
/// validated, run and measured thousands of times per table, so every
/// allocation around the decision loops is paid per system. Each ceiling
/// is the mean count this tree reaches, rounded up to a tenth; a regression
/// that adds one allocation per system to any stage trips it. After one
/// run on the thread, `execute` and `simulate` allocate their trace's two
/// buffers (segments and outcome slots) and otherwise only grow the
/// thread's scratch when a system outsizes every earlier one.
#[test]
fn paper_pipeline_allocations_stay_under_their_ceilings() {
    for (policy, ceilings) in [
        (ServerPolicyKind::Polling, [4.1, 0.0, 5.0, 2.1, 2.0, 0.0]),
        (ServerPolicyKind::Deferrable, [4.1, 0.0, 3.0, 2.0, 2.0, 0.0]),
    ] {
        for ((stage, count), ceiling) in
            paper_pipeline_allocations(policy).into_iter().zip(ceilings)
        {
            assert!(
                count <= ceiling,
                "{policy:?} {stage}: {count:.2} allocations + reallocations per paper \
                 system, above the ceiling of {ceiling}"
            );
        }
    }
}

#[test]
fn coverage_manifest_is_sorted_and_names_real_files() {
    assert!(
        ZERO_ALLOC_COVERED_FNS.windows(2).all(|w| w[0] < w[1]),
        "manifest must be sorted and duplicate-free"
    );
    // The engines driven above are exactly the crates the manifest spans.
    for (file, _) in ZERO_ALLOC_COVERED_FNS {
        assert!(
            file.starts_with("crates/admission/")
                || file.starts_with("crates/core/")
                || file.starts_with("crates/metrics/")
                || file.starts_with("crates/observe/")
                || file.starts_with("crates/rtsj/")
                || file.starts_with("crates/rtss/"),
            "unexpected manifest file {file}: extend the dynamic tests to \
             drive its engine before listing it"
        );
    }
}
