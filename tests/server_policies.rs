//! Differential and property tests for the server-policy layer: Sporadic
//! Server and multi-server systems on both engines, every fast loop against
//! its linear-scan reference, plus the N=1 reduction property — a
//! multi-server system with a single server produces exactly the
//! single-server trace.

use rtsj_event_framework::model::{
    Instant, Priority, ServerPolicyKind, ServerSpec, Span, SystemSpec,
};
use rtsj_event_framework::observe::MetricsProbe;
use rtsj_event_framework::simulator::{simulate, simulate_reference};
use rtsj_event_framework::sysgen::{ExtraServer, GeneratorParams, RandomSystemGenerator};
use rtsj_event_framework::taskserver::{
    execute, execute_reference, execute_with_probe, ExecutionConfig,
};

/// Seeded generator of multi-server systems over the paper's traffic
/// parameters: primary policy + `extras` servers, events routed uniformly.
fn multi_server_systems(
    primary: ServerPolicyKind,
    extras: &[ServerPolicyKind],
    seed: u64,
    count: usize,
) -> Vec<SystemSpec> {
    let mut params = GeneratorParams::paper_set(2, 2);
    params.nb_generation = count;
    params.seed = seed;
    let extras: Vec<ExtraServer> = extras
        .iter()
        .map(|&policy| ExtraServer::new(policy, Span::from_units(3), Span::from_units(8)))
        .collect();
    RandomSystemGenerator::new(params, primary)
        .expect("paper parameters are valid")
        .with_extra_servers(extras)
        .expect("test-sized multi-server sets fit the priority range")
        .generate()
}

/// Every engine loop must agree on one spec: the simulation driver and its
/// linear-scan reference; `execute`, the observed driver and the
/// linear-scan reference.
fn assert_all_modes_agree(spec: &SystemSpec) {
    assert_eq!(
        simulate(spec).render_canonical(),
        simulate_reference(spec).render_canonical(),
        "simulate vs simulate_reference diverged on {}",
        spec.name
    );
    let config = ExecutionConfig::reference();
    let fast = execute(spec, &config).render_canonical();
    assert_eq!(
        fast,
        execute_reference(spec, &config).render_canonical(),
        "execute vs the linear-scan reference diverged on {}",
        spec.name
    );
    assert_eq!(
        fast,
        execute_with_probe(spec, &config, &mut MetricsProbe::new()).render_canonical(),
        "execute vs the observed driver diverged on {}",
        spec.name
    );
}

#[test]
fn sporadic_server_traces_agree_across_every_engine_mode() {
    for spec in multi_server_systems(ServerPolicyKind::Sporadic, &[], 0xA11CE, 6) {
        assert_all_modes_agree(&spec);
    }
}

/// The engine-loop matrix, extended across the scheduling policy and
/// queue-service discipline dimensions: every loop must produce the same
/// trace as its siblings.
#[test]
fn scheduling_and_discipline_matrix_agrees_across_engine_modes() {
    use rtsj_event_framework::model::{QueueDiscipline, SchedulingPolicy};
    for spec in multi_server_systems(
        ServerPolicyKind::Deferrable,
        &[ServerPolicyKind::Sporadic],
        0xED0,
        3,
    ) {
        for scheduling in [SchedulingPolicy::FixedPriority, SchedulingPolicy::Edf] {
            for discipline in [QueueDiscipline::FifoSkip, QueueDiscipline::DeadlineOrdered] {
                let mut variant = spec.clone();
                variant.scheduling = scheduling;
                for server in &mut variant.servers {
                    server.discipline = discipline;
                }
                // Give the traffic deadlines so the discipline axis is not
                // vacuous: a deterministic cost-proportional stamp.
                for event in &mut variant.aperiodics {
                    event.relative_deadline = Some(event.declared_cost.saturating_mul(3));
                }
                variant.name = format!(
                    "{}-{}-{}",
                    spec.name,
                    scheduling.label(),
                    discipline.label()
                );
                assert_all_modes_agree(&variant);
            }
        }
    }
}

#[test]
fn two_server_traces_agree_across_every_engine_mode() {
    for spec in multi_server_systems(
        ServerPolicyKind::Deferrable,
        &[ServerPolicyKind::Sporadic],
        0xB0B,
        5,
    ) {
        assert_eq!(spec.servers.len(), 2);
        assert_all_modes_agree(&spec);
    }
}

#[test]
fn three_server_traces_agree_across_every_engine_mode() {
    for spec in multi_server_systems(
        ServerPolicyKind::Polling,
        &[ServerPolicyKind::Sporadic, ServerPolicyKind::Deferrable],
        0xCAFE,
        4,
    ) {
        assert_eq!(spec.servers.len(), 3);
        assert_all_modes_agree(&spec);
    }
}

/// Seeded property: a system built through the multi-server API with N=1
/// reduces to the single-server system — identical spec, identical traces
/// on both engines.
#[test]
fn single_server_multi_system_reduces_to_the_single_server_trace() {
    for seed in [1u64, 7, 1983, 0xDEAD] {
        let single = multi_server_systems(ServerPolicyKind::Deferrable, &[], seed, 3);
        for spec in &single {
            // Rebuild the same system through add_server + aperiodic_for.
            let mut b = SystemSpec::builder(spec.name.clone());
            let index = b.add_server(spec.servers[0].clone());
            assert_eq!(index, 0);
            for task in &spec.periodic_tasks {
                b.push_periodic(task.clone());
            }
            for event in &spec.aperiodics {
                b.push_aperiodic(event.clone());
            }
            b.horizon(spec.horizon);
            let rebuilt = b.build().expect("rebuilt system is valid");
            assert_eq!(
                &rebuilt, spec,
                "N=1 multi-server spec is the single-server spec"
            );
            assert_eq!(
                simulate(&rebuilt).render_canonical(),
                simulate(spec).render_canonical()
            );
            assert_eq!(
                execute(&rebuilt, &ExecutionConfig::reference()).render_canonical(),
                execute(spec, &ExecutionConfig::reference()).render_canonical()
            );
        }
    }
}

/// An extra server that receives no traffic leaves the trace untouched: the
/// N=1 behaviour is the fixed point of the multi-server engine, not a
/// separate code path.
#[test]
fn idle_extra_server_does_not_perturb_the_trace() {
    for spec in multi_server_systems(ServerPolicyKind::Deferrable, &[], 42, 3) {
        let mut widened = spec.clone();
        // A sporadic server that never receives events arms no timers and
        // runs nothing, so even the reference overhead model sees no
        // difference.
        widened.servers.push(ServerSpec::sporadic(
            Span::from_units(2),
            Span::from_units(8),
            widened.servers[0].priority.lower(),
        ));
        widened.validate().expect("widened system is valid");
        assert_eq!(
            simulate(&widened).render_canonical(),
            simulate(&spec).render_canonical(),
            "an idle server must not change the simulated trace"
        );
        assert_eq!(
            execute(&widened, &ExecutionConfig::reference()).render_canonical(),
            execute(&spec, &ExecutionConfig::reference()).render_canonical(),
            "an idle server must not change the executed trace"
        );
    }
}

/// Sporadic capacity conservation: over any window the served handler time
/// cannot exceed the initial capacity plus what replenishments returned —
/// which is itself bounded by one capacity per elapsed period plus one.
#[test]
fn sporadic_bandwidth_is_bounded_by_capacity_per_period() {
    for spec in multi_server_systems(ServerPolicyKind::Sporadic, &[], 0xF00D, 6) {
        let trace = simulate(&spec);
        let server = spec.server().unwrap();
        let served: Span = trace
            .segments
            .iter()
            .filter(|s| matches!(s.unit, rtsj_event_framework::model::ExecUnit::Handler(_)))
            .map(|s| s.duration())
            .sum();
        let periods = (spec.horizon - Instant::ZERO).div_ceil_span(server.period);
        let bound = server.capacity.saturating_mul(periods + 1);
        assert!(
            served <= bound,
            "{}: served {served} exceeds the sporadic bound {bound}",
            spec.name
        );
    }
}

/// The validator rejects events routed past the server table and accepts
/// priority-stacked multi-server systems (regression guard for the
/// validation layer the engines rely on).
#[test]
fn multi_server_validation_guards_hold() {
    let mut b = SystemSpec::builder("guard");
    b.add_server(ServerSpec::deferrable(
        Span::from_units(3),
        Span::from_units(6),
        Priority::new(32),
    ));
    b.add_server(ServerSpec::sporadic(
        Span::from_units(2),
        Span::from_units(8),
        Priority::new(31),
    ));
    b.periodic(
        "tau",
        Span::from_units(1),
        Span::from_units(6),
        Priority::new(10),
    );
    b.aperiodic_for(1, Instant::from_units(0), Span::from_units(2));
    b.horizon(Instant::from_units(24));
    let spec = b.build().expect("stacked multi-server system is valid");
    assert_eq!(spec.servers.len(), 2);

    let mut bad = SystemSpec::builder("bad-route");
    bad.server(ServerSpec::polling(
        Span::from_units(3),
        Span::from_units(6),
        Priority::new(30),
    ));
    bad.aperiodic_for(2, Instant::from_units(0), Span::from_units(1));
    assert!(bad.build().is_err());
}
