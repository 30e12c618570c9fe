//! Differential tests for the EDF scheduling policy across both engines.
//!
//! The anchor property is the **deadline-monotonic reduction**: on a system
//! whose fixed priorities follow the deadline order — at every instant the
//! ready entity with the earliest absolute deadline is also the
//! highest-priority one, with identical tie-breaks — the EDF trace must be
//! byte-identical to the fixed-priority trace. The suite pins that reduction
//! on both engines, pins EDF loop agreement (every fast loop against its
//! linear-scan reference), and exercises the cases where EDF *must* diverge
//! from fixed priorities (deadline inversion, the classic U = 1
//! non-harmonic set).

use rtsj_event_framework::model::{
    Instant, Priority, QueueDiscipline, SchedulingPolicy, ServerPolicyKind, ServerSpec, Span,
    SystemSpec,
};
use rtsj_event_framework::observe::MetricsProbe;
use rtsj_event_framework::simulator::{simulate, simulate_reference};
use rtsj_event_framework::sysgen::{GeneratorParams, RandomSystemGenerator};
use rtsj_event_framework::taskserver::{
    execute, execute_reference, execute_with_probe, ExecutionConfig,
};

/// The Table 1 shape: server + two tasks, all on period 6 with implicit
/// deadlines and priorities descending in spawn order — the deadline order
/// equals the priority order at every instant, with identical tie-breaks.
///
/// The premise also requires a miss-free run: a job overrunning its period
/// keeps its (now earliest) old deadline, which EDF honours and fixed
/// priorities do not — so the traffic below is sized to leave every period
/// schedulable under the reference overheads.
fn reduction_system(policy: ServerPolicyKind, events: &[(u64, u64)]) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("dm-reduction-{policy:?}"));
    let server = match policy {
        // Background must sit at the *lowest* priority for the reduction
        // premise to hold (its EDF rank is Instant::MAX, i.e. last).
        ServerPolicyKind::Background => ServerSpec::background(Priority::new(1)),
        _ => ServerSpec {
            policy,
            capacity: Span::from_units(3),
            period: Span::from_units(6),
            priority: Priority::new(30),
            discipline: QueueDiscipline::FifoSkip,
            admission: Default::default(),
        },
    };
    b.server(server);
    b.periodic(
        "tau1",
        Span::from_units(2),
        Span::from_units(6),
        Priority::new(20),
    );
    b.periodic(
        "tau2",
        Span::from_units(1),
        Span::from_units(6),
        Priority::new(10),
    );
    for &(release, cost) in events {
        b.aperiodic(Instant::from_units(release), Span::from_units(cost));
    }
    b.horizon(Instant::from_units(60));
    b.build().expect("reduction systems are valid")
}

/// EDF and FP executions of the same spec, compared byte for byte.
fn assert_execution_reduction(spec: &SystemSpec, config: &ExecutionConfig) {
    let fp = execute(spec, config).render_canonical();
    let mut edf_spec = spec.clone();
    edf_spec.scheduling = SchedulingPolicy::Edf;
    let edf = execute(&edf_spec, config).render_canonical();
    assert_eq!(
        fp, edf,
        "execution: deadline-monotonic reduction failed on {}",
        spec.name
    );
}

#[test]
fn deadline_monotonic_reduction_holds_on_executions() {
    // The traffic mixes immediate service, skips and replenishment waits.
    let events: &[(u64, u64)] = &[(0, 2), (2, 2), (4, 2), (13, 1), (25, 2)];
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Background,
    ] {
        let spec = reduction_system(policy, events);
        assert!(
            execute(&spec, &ExecutionConfig::reference()).all_periodic_deadlines_met(),
            "the reduction premise needs a miss-free run on {}",
            spec.name
        );
        assert_execution_reduction(&spec, &ExecutionConfig::ideal());
        assert_execution_reduction(&spec, &ExecutionConfig::reference());
    }
}

#[test]
fn deadline_monotonic_reduction_holds_on_simulations() {
    let events: &[(u64, u64)] = &[(0, 2), (2, 2), (4, 2), (13, 1), (25, 2)];
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Background,
    ] {
        let fp = reduction_system(policy, events);
        let mut edf = fp.clone();
        edf.scheduling = SchedulingPolicy::Edf;
        assert_eq!(
            simulate(&fp).render_canonical(),
            simulate(&edf).render_canonical(),
            "simulation: deadline-monotonic reduction failed for {policy:?}"
        );
    }
}

#[test]
fn constrained_deadline_reduction_holds_without_servers() {
    // Same period, distinct constrained deadlines, deadline-monotonic
    // priorities: jobs of one release instant are ordered identically by
    // deadline and by priority.
    let mut b = SystemSpec::builder("dm-constrained");
    b.periodic(
        "d4",
        Span::from_units(2),
        Span::from_units(12),
        Priority::new(30),
    );
    b.periodic(
        "d6",
        Span::from_units(2),
        Span::from_units(12),
        Priority::new(20),
    );
    b.periodic(
        "d9",
        Span::from_units(3),
        Span::from_units(12),
        Priority::new(10),
    );
    b.horizon(Instant::from_units(48));
    let mut fp = b.build().unwrap();
    fp.periodic_tasks[0].deadline = Span::from_units(4);
    fp.periodic_tasks[1].deadline = Span::from_units(6);
    fp.periodic_tasks[2].deadline = Span::from_units(9);
    let mut edf = fp.clone();
    edf.scheduling = SchedulingPolicy::Edf;
    assert_eq!(
        simulate(&fp).render_canonical(),
        simulate(&edf).render_canonical(),
        "simulation reduction with constrained deadlines"
    );
    assert_execution_reduction(&fp, &ExecutionConfig::ideal());
}

#[test]
fn edf_schedules_the_classic_set_that_fixed_priorities_miss() {
    // The textbook U = 1 non-harmonic pair: (3, 6) and (4, 8). Any fixed
    // assignment misses a deadline; EDF meets them all.
    let mut b = SystemSpec::builder("u1-pair");
    b.periodic(
        "a",
        Span::from_units(3),
        Span::from_units(6),
        Priority::new(20),
    );
    b.periodic(
        "b",
        Span::from_units(4),
        Span::from_units(8),
        Priority::new(10),
    );
    b.horizon(Instant::from_units(48));
    let fp = b.build().unwrap();
    let mut edf = fp.clone();
    edf.scheduling = SchedulingPolicy::Edf;

    assert!(
        !simulate(&fp).all_periodic_deadlines_met(),
        "RM misses on the U=1 non-harmonic pair"
    );
    assert!(
        simulate(&edf).all_periodic_deadlines_met(),
        "EDF simulation must meet every deadline at U=1"
    );
    assert!(
        !execute(&fp, &ExecutionConfig::ideal()).all_periodic_deadlines_met(),
        "fixed-priority execution misses too"
    );
    assert!(
        execute(&edf, &ExecutionConfig::ideal()).all_periodic_deadlines_met(),
        "EDF execution must meet every deadline at U=1"
    );
}

/// Seeded generator of EDF-stamped systems (single- and multi-server,
/// sporadic servers included) over the paper's traffic parameters.
fn edf_systems(policy: ServerPolicyKind, seed: u64, count: usize) -> Vec<SystemSpec> {
    let mut params = GeneratorParams::paper_set(2, 2);
    params.nb_generation = count;
    params.seed = seed;
    RandomSystemGenerator::new(params, policy)
        .expect("paper parameters are valid")
        .with_scheduling(SchedulingPolicy::Edf)
        .with_aperiodic_deadline_factor(3)
        .generate()
}

/// Every engine loop must agree on one EDF spec: each fast loop against
/// its linear-scan reference, both engines.
fn assert_edf_modes_agree(spec: &SystemSpec) {
    assert_eq!(spec.scheduling, SchedulingPolicy::Edf);
    assert_eq!(
        simulate(spec).render_canonical(),
        simulate_reference(spec).render_canonical(),
        "EDF simulate vs simulate_reference diverged on {}",
        spec.name
    );
    let config = ExecutionConfig::reference();
    let fast = execute(spec, &config).render_canonical();
    assert_eq!(
        fast,
        execute_reference(spec, &config).render_canonical(),
        "EDF execution vs the linear-scan reference diverged on {}",
        spec.name
    );
    assert_eq!(
        fast,
        execute_with_probe(spec, &config, &mut MetricsProbe::new()).render_canonical(),
        "EDF execution vs the observed driver diverged on {}",
        spec.name
    );
}

#[test]
fn edf_traces_agree_across_every_engine_mode() {
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Sporadic,
    ] {
        for spec in edf_systems(policy, 0xED0F + policy as u64, 4) {
            assert_edf_modes_agree(&spec);
        }
    }
}

#[test]
fn edf_execution_is_deterministic() {
    for spec in edf_systems(ServerPolicyKind::Sporadic, 0xABBA, 3) {
        let a = execute(&spec, &ExecutionConfig::reference());
        let b = execute(&spec, &ExecutionConfig::reference());
        assert_eq!(a, b);
    }
}

#[test]
fn deadline_ordered_execution_reorders_service_and_modes_agree() {
    // Three events queue behind an exhausted polling server; the third has
    // the tightest deadline and must be served before the second under the
    // deadline-ordered discipline, while FIFO keeps arrival order.
    let build = |discipline: QueueDiscipline| {
        let mut b = SystemSpec::builder(format!("edd-exec-{}", discipline.label()));
        b.server(ServerSpec::polling(
            Span::from_units(3),
            Span::from_units(6),
            Priority::new(30),
        ));
        b.periodic(
            "tau1",
            Span::from_units(2),
            Span::from_units(6),
            Priority::new(20),
        );
        b.aperiodic(Instant::from_units(0), Span::from_units(3));
        b.aperiodic(Instant::from_units(1), Span::from_units(2));
        b.aperiodic(Instant::from_units(2), Span::from_units(2));
        b.horizon(Instant::from_units(36));
        let mut spec = b.build().unwrap();
        spec.servers[0].discipline = discipline;
        spec.aperiodics[1].relative_deadline = Some(Span::from_units(30));
        spec.aperiodics[2].relative_deadline = Some(Span::from_units(6));
        spec
    };
    let service_order = |spec: &SystemSpec| -> Vec<u32> {
        let trace = execute(spec, &ExecutionConfig::ideal());
        let mut seen = Vec::new();
        for seg in &trace.segments {
            if let rtsj_event_framework::model::ExecUnit::Handler(id) = seg.unit {
                if !seen.contains(&id.raw()) {
                    seen.push(id.raw());
                }
            }
        }
        seen
    };
    assert_eq!(
        service_order(&build(QueueDiscipline::FifoSkip)),
        vec![0, 1, 2]
    );
    assert_eq!(
        service_order(&build(QueueDiscipline::DeadlineOrdered)),
        vec![0, 2, 1],
        "the urgent event must jump the queue"
    );
    // The deadline-ordered spec agrees across all execution modes.
    let spec = build(QueueDiscipline::DeadlineOrdered);
    let config = ExecutionConfig::ideal();
    let fast = execute(&spec, &config).render_canonical();
    assert_eq!(fast, execute_reference(&spec, &config).render_canonical());
    assert_eq!(
        fast,
        execute_with_probe(&spec, &config, &mut MetricsProbe::new()).render_canonical()
    );
}

#[test]
fn deadline_ordered_discipline_is_invisible_on_deadline_free_traffic() {
    // Without relative deadlines the discipline keys on releases and must
    // reproduce the FIFO-with-skip trace exactly — on both engines, under
    // both scheduling policies.
    let mut params = GeneratorParams::paper_set(3, 2);
    params.nb_generation = 4;
    params.seed = 0x05EE_DEDD;
    let systems = RandomSystemGenerator::new(params, ServerPolicyKind::Deferrable)
        .expect("paper parameters are valid")
        .generate();
    for spec in systems {
        for scheduling in [SchedulingPolicy::FixedPriority, SchedulingPolicy::Edf] {
            let mut fifo = spec.clone();
            fifo.scheduling = scheduling;
            let mut edd = fifo.clone();
            for server in &mut edd.servers {
                server.discipline = QueueDiscipline::DeadlineOrdered;
            }
            assert_eq!(
                simulate(&fifo).render_canonical(),
                simulate(&edd).render_canonical(),
                "simulation: discipline must be invisible on {} under {scheduling:?}",
                spec.name
            );
            assert_eq!(
                execute(&fifo, &ExecutionConfig::reference()).render_canonical(),
                execute(&edd, &ExecutionConfig::reference()).render_canonical(),
                "execution: discipline must be invisible on {} under {scheduling:?}",
                spec.name
            );
        }
    }
}
