//! Fast-vs-reference differential tests: each world's fast engine must
//! produce traces identical to its deliberately simple reference oracle —
//! same segments, same outcomes, same periodic job records, event by event.
//!
//! * **Simulation** — `simulate` (the driver specialized per server-policy
//!   kind × scheduling policy: ready bitmap, rate-group release wheel,
//!   same-instant batching) against `simulate_reference` (the seed's
//!   linear-scan, one-job-per-dispatch loop).
//! * **Execution** — `execute` (the table-driven driver, monomorphized per
//!   scheduling policy) and `execute_with_probe` (the same driver with a
//!   recording probe) against `execute_reference` (the seed's linear-scan
//!   `rtsj-emu` engine).
//!
//! The inputs cover the paper scenarios, generated systems, the server
//! policy × queue discipline × admission × scheduling matrix, multi-server
//! and serverless systems, homogeneous rate groups, and coincident,
//! saturating and backlogged bursts — the shapes where batching and the
//! static dispatch tables could diverge. The golden files in
//! `tests/goldens/` additionally pin every loop to the recorded history.

use rtsj_event_framework::compile::CompiledSystem;
use rtsj_event_framework::model::{
    AdmissionPolicy, AperiodicFate, Instant, Priority, QueueDiscipline, SchedulingPolicy,
    ServerPolicyKind, ServerSpec, Span, SystemSpec,
};
use rtsj_event_framework::observe::MetricsProbe;
use rtsj_event_framework::simulator::{simulate, simulate_reference};
use rtsj_event_framework::sysgen::{GeneratorParams, RandomSystemGenerator};
use rtsj_event_framework::taskserver::{
    execute, execute_reference, execute_with_probe, ExecutionConfig,
};

mod common;
use common::diff::assert_same_rendering;
use common::invariants::assert_trace_invariants;

/// Asserts the execution loops agree on one system under one configuration:
/// `execute`, the driver with a recording probe and the linear-scan
/// reference.
fn assert_execution_agrees(spec: &SystemSpec, config: ExecutionConfig) {
    let fast = execute(spec, &config);
    let reference = execute_reference(spec, &config);
    let rendered = fast.render_canonical();
    assert_same_rendering(
        &reference.render_canonical(),
        &rendered,
        &format!(
            "execute and the linear-scan reference diverged on {}",
            spec.name
        ),
    );
    // PartialEq covers everything render_canonical might abstract away.
    assert_eq!(fast, reference, "trace equality mismatch on {}", spec.name);
    let observed = execute_with_probe(spec, &config, &mut MetricsProbe::new());
    assert_same_rendering(
        &rendered,
        &observed.render_canonical(),
        &format!("execute and the observed driver diverged on {}", spec.name),
    );
    assert_eq!(
        fast, observed,
        "execute and the observed driver diverged on {}",
        spec.name
    );
    assert_trace_invariants(spec, &fast);
}

/// Asserts the simulation driver agrees with the linear-scan reference.
fn assert_simulation_agrees(spec: &SystemSpec) {
    let fast = simulate(spec);
    let reference = simulate_reference(spec);
    assert_same_rendering(
        &reference.render_canonical(),
        &fast.render_canonical(),
        &format!(
            "simulate and the linear-scan reference diverged on {}",
            spec.name
        ),
    );
    assert_eq!(fast, reference, "trace equality mismatch on {}", spec.name);
    assert_trace_invariants(spec, &fast);
}

/// Both worlds, under the paper's reference and the ideal configuration.
fn assert_both_worlds_agree(spec: &SystemSpec) {
    assert_simulation_agrees(spec);
    for config in [ExecutionConfig::reference(), ExecutionConfig::ideal()] {
        assert_execution_agrees(spec, config);
    }
}

/// The Table 1 pair with the given policy and traffic.
fn table1(policy: ServerPolicyKind, events: &[(u64, u64)], horizon_units: u64) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("diff-{policy:?}"));
    let server = match policy {
        ServerPolicyKind::Background => ServerSpec::background(Priority::new(1)),
        _ => ServerSpec {
            policy,
            capacity: Span::from_units(3),
            period: Span::from_units(6),
            priority: Priority::new(30),
            discipline: rt_model::QueueDiscipline::FifoSkip,
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
    // Fixed horizon: `horizon_server_periods` would explode for the
    // background server, whose "period" is not a real activation period.
    b.horizon(Instant::from_units(horizon_units));
    b.build().unwrap()
}

/// The Table 1 pair under a configurable server, discipline, admission and
/// scheduling policy, with deadline- and value-tagged traffic.
fn matrix_system(
    policy: ServerPolicyKind,
    discipline: QueueDiscipline,
    admission: AdmissionPolicy,
    scheduling: SchedulingPolicy,
    events: &[(u64, u64)],
) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("matrix-{policy:?}-{discipline:?}-{admission:?}"));
    let server = match policy {
        ServerPolicyKind::Background => ServerSpec::background(Priority::new(1)),
        _ => ServerSpec {
            policy,
            capacity: Span::from_units(3),
            period: Span::from_units(6),
            priority: Priority::new(30),
            discipline,
            admission,
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
        let id = b.aperiodic(Instant::from_units(release), Span::from_units(cost));
        // Deadlines make the admission predictors and deadline-ordered
        // service meaningful; values drive the density drop rule.
        let event = b.last_aperiodic_mut().expect("event just added");
        event.relative_deadline = Some(Span::from_units(6 + u64::from(id.raw()) % 5));
        event.value = 1 + u64::from(id.raw()) * 3 % 7;
    }
    b.scheduling(scheduling);
    b.horizon(Instant::from_units(60));
    b.build().unwrap()
}

/// Reverses the event ids inside every same-release burst of `spec`, so ids
/// descend at equal releases. `build()` sorts the stream by
/// `(release, id)`, so only an edit after it yields such a stream;
/// `validate` still accepts it (releases ascend, ids stay unique).
fn with_descending_ids_per_burst(mut spec: SystemSpec) -> SystemSpec {
    for burst in spec.aperiodics.chunk_by_mut(|a, b| a.release == b.release) {
        let ids: Vec<_> = burst.iter().rev().map(|e| e.id).collect();
        for (event, id) in burst.iter_mut().zip(ids) {
            event.id = id;
        }
    }
    spec.validate()
        .expect("a release-sorted stream with unique ids is valid");
    spec
}

/// Paper scenarios, a saturating burst, and same-release bursts.
const SCENARIOS: [&[(u64, u64)]; 6] = [
    &[(0, 2), (6, 2)],
    &[(2, 2), (4, 2)],
    &[(1, 2), (7, 2), (14, 2), (20, 1), (27, 2)],
    &[],
    &[
        (0, 2),
        (1, 2),
        (2, 3),
        (3, 1),
        (5, 2),
        (8, 3),
        (9, 1),
        (13, 2),
        (14, 3),
        (20, 2),
        (21, 2),
        (22, 2),
    ],
    &[
        (0, 2),
        (0, 2),
        (0, 3),
        (0, 1),
        (5, 1),
        (5, 2),
        (5, 2),
        (12, 1),
        (12, 1),
        (12, 2),
        (20, 2),
        (20, 2),
        (20, 1),
    ],
];

#[test]
fn paper_scenarios_agree_between_schedulers() {
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Background,
    ] {
        for events in &SCENARIOS[..4] {
            let spec = table1(policy, events, 60);
            assert_execution_agrees(&spec, ExecutionConfig::reference());
            assert_execution_agrees(&spec, ExecutionConfig::ideal());
            assert_simulation_agrees(&spec);
        }
    }
}

#[test]
fn generated_systems_agree_between_schedulers() {
    // The paper's six sets are (density, deviation) pairs; sweep a diagonal
    // of them plus both policies, several systems per generator.
    for policy in [ServerPolicyKind::Polling, ServerPolicyKind::Deferrable] {
        for (density, deviation) in [(1u32, 0u32), (2, 1), (3, 2)] {
            let generator =
                RandomSystemGenerator::new(GeneratorParams::paper_set(density, deviation), policy)
                    .expect("paper parameters are valid");
            for index in 0..4 {
                let spec = generator.generate_one(index);
                assert_execution_agrees(&spec, ExecutionConfig::reference());
                assert_simulation_agrees(&spec);
            }
        }
    }
}

#[test]
fn saturated_traffic_agrees_between_schedulers() {
    // Heavy overload exercises the skip/interrupt/unserved paths where
    // stale heap entries are most likely to accumulate.
    let events: Vec<(u64, u64)> = (0..40).map(|i| (i * 3 / 2, 1 + i % 3)).collect();
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Background,
    ] {
        let spec = table1(policy, &events, 60);
        assert_execution_agrees(&spec, ExecutionConfig::reference());
        assert_simulation_agrees(&spec);
    }
}

#[test]
fn policy_discipline_admission_and_scheduling_matrix_agrees_with_the_reference() {
    // Whether the bursts with descending ids were refused in part by the
    // predictive policy and displaced in part by the density rule.
    let (mut rejected, mut displaced) = (false, false);
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Sporadic,
        ServerPolicyKind::Background,
    ] {
        for discipline in [QueueDiscipline::FifoSkip, QueueDiscipline::DeadlineOrdered] {
            for admission in [
                AdmissionPolicy::AcceptAll,
                AdmissionPolicy::DeadlinePredictive,
                AdmissionPolicy::ValueDensity,
            ] {
                for scheduling in [SchedulingPolicy::FixedPriority, SchedulingPolicy::Edf] {
                    for events in SCENARIOS {
                        let spec = matrix_system(policy, discipline, admission, scheduling, events);
                        // The same traffic with ids descending inside each
                        // same-release burst: stream order then differs from
                        // `(release, event)` order.
                        let reordered = with_descending_ids_per_burst(spec.clone());
                        for spec in [&spec, &reordered] {
                            assert_simulation_agrees(spec);
                            assert_execution_agrees(spec, ExecutionConfig::reference());
                        }
                        if reordered != spec {
                            for o in simulate(&reordered).outcomes {
                                match (admission, o.fate) {
                                    (
                                        AdmissionPolicy::DeadlinePredictive,
                                        AperiodicFate::Rejected { .. },
                                    ) => rejected = true,
                                    (
                                        AdmissionPolicy::ValueDensity,
                                        AperiodicFate::Aborted { .. },
                                    ) => displaced = true,
                                    _ => {}
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        rejected && displaced,
        "the bursts must overload the lanes: rejected {rejected}, displaced {displaced}"
    );
}

#[test]
fn execution_agrees_with_the_reference_across_configurations() {
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Background,
    ] {
        for events in SCENARIOS {
            let spec = matrix_system(
                policy,
                QueueDiscipline::FifoSkip,
                AdmissionPolicy::AcceptAll,
                SchedulingPolicy::FixedPriority,
                events,
            );
            for config in [ExecutionConfig::reference(), ExecutionConfig::ideal()] {
                assert_execution_agrees(&spec, config);
            }
        }
    }
}

#[test]
fn execution_plan_is_reusable() {
    let spec = matrix_system(
        ServerPolicyKind::Deferrable,
        QueueDiscipline::FifoSkip,
        AdmissionPolicy::AcceptAll,
        SchedulingPolicy::FixedPriority,
        SCENARIOS[2],
    );
    let compiled = CompiledSystem::compile(&spec).expect("valid spec");
    let config = ExecutionConfig::reference();
    let plan = compiled.execution_plan(&config);
    let first = plan.run();
    let rendered = first.render_canonical();
    for (label, trace) in [
        ("its rerun", plan.run()),
        ("execute", execute(&spec, &config)),
        ("execute_reference", execute_reference(&spec, &config)),
    ] {
        assert_same_rendering(
            &rendered,
            &trace.render_canonical(),
            &format!("a plan's run and {label} diverged"),
        );
        assert_eq!(first, trace, "a plan's run and {label} diverged");
    }
}

#[test]
fn multi_server_systems_agree_with_the_reference() {
    // Mixed-policy lanes take the driver's inline-enum lane instantiation;
    // same-priority lanes exercise the install-order tie-break.
    for scheduling in [SchedulingPolicy::FixedPriority, SchedulingPolicy::Edf] {
        let mut b = SystemSpec::builder("diff-multi");
        b.add_server(ServerSpec::polling(
            Span::from_units(2),
            Span::from_units(8),
            Priority::new(40),
        ));
        b.add_server(ServerSpec::deferrable(
            Span::from_units(2),
            Span::from_units(10),
            Priority::new(40),
        ));
        b.add_server(ServerSpec::sporadic(
            Span::from_units(2),
            Span::from_units(12),
            Priority::new(35),
        ));
        b.periodic(
            "tau1",
            Span::from_units(2),
            Span::from_units(7),
            Priority::new(20),
        );
        b.periodic(
            "tau2",
            Span::from_units(3),
            Span::from_units(13),
            Priority::new(10),
        );
        for (i, &(release, cost)) in [(0u64, 2u64), (3, 1), (5, 2), (9, 2), (12, 1), (15, 2)]
            .iter()
            .enumerate()
        {
            b.aperiodic_for(i % 3, Instant::from_units(release), Span::from_units(cost));
        }
        b.scheduling(scheduling);
        b.horizon(Instant::from_units(80));
        let spec = b.build().unwrap();
        assert_simulation_agrees(&spec);
        assert_execution_agrees(&spec, ExecutionConfig::reference());
    }
}

#[test]
fn serverless_systems_with_orphans_agree_with_the_reference() {
    // No servers: arrivals become orphans, reported unserved at the horizon.
    let mut b = SystemSpec::builder("diff-orphans");
    b.periodic(
        "tau",
        Span::from_units(2),
        Span::from_units(5),
        Priority::new(10),
    );
    b.aperiodic(Instant::from_units(3), Span::from_units(1));
    b.horizon(Instant::from_units(20));
    let spec = b.build().unwrap();
    assert_simulation_agrees(&spec);
    assert_execution_agrees(&spec, ExecutionConfig::reference());
}

#[test]
fn homogeneous_rate_groups_agree_with_the_reference() {
    // Many tasks sharing (offset, period) collapse to one release-wheel
    // group in both fast engines — the shape the 300-task benchmark point
    // has; pin it at a testable size.
    for scheduling in [SchedulingPolicy::FixedPriority, SchedulingPolicy::Edf] {
        let mut b = SystemSpec::builder("diff-groups");
        b.server(ServerSpec::deferrable(
            Span::from_units(1),
            Span::from_units(10),
            Priority::new(99),
        ));
        for i in 0..24u8 {
            b.periodic(
                format!("tau{i}"),
                Span::from_ticks(300),
                Span::from_units(10),
                Priority::new(1 + (i % 9) * 10),
            );
        }
        for i in 0..12u64 {
            b.aperiodic(Instant::from_units(i * 8), Span::from_ticks(500));
        }
        b.scheduling(scheduling);
        b.horizon(Instant::from_units(100));
        let spec = b.build().unwrap();
        assert_simulation_agrees(&spec);
        assert_execution_agrees(&spec, ExecutionConfig::reference());
    }
}

#[test]
fn coincident_bursts_agree_with_the_reference() {
    // Four events at one instant (mid-period), then three more exactly at a
    // server activation instant: the server's queue holds several jobs per
    // window, so the batched dispatch loops run multiple iterations.
    let burst: &[(u64, u64)] = &[(5, 1), (5, 1), (5, 2), (5, 1), (12, 1), (12, 1), (12, 1)];
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Background,
    ] {
        assert_both_worlds_agree(&table1(policy, burst, 96));
    }
}

#[test]
fn saturating_burst_at_time_zero_agrees_with_the_reference() {
    // Ten cost-2 events all at t = 0 overload the capacity-3 servers for
    // many periods: the queue stays backlogged, so every server window
    // serves as much as capacity allows and the burst also collides with
    // the initial periodic releases at t = 0.
    let burst: Vec<(u64, u64)> = (0..10).map(|_| (0, 2)).collect();
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Background,
    ] {
        assert_both_worlds_agree(&table1(policy, &burst, 96));
    }
}

#[test]
fn backlogged_periodic_task_agrees_with_the_reference() {
    // tau_high (cost 8, period 18) starves tau_low (cost 3, period 8) past a
    // full period: at t = 8 tau_low has two pending jobs and completes the
    // first strictly inside its window, so the batched driver serves the
    // second from the same dispatch.
    let mut b = SystemSpec::builder("diff-backlog");
    b.server(ServerSpec::background(Priority::new(1)));
    b.periodic(
        "tau_high",
        Span::from_units(8),
        Span::from_units(18),
        Priority::new(20),
    );
    b.periodic(
        "tau_low",
        Span::from_units(3),
        Span::from_units(8),
        Priority::new(10),
    );
    b.aperiodic(Instant::from_units(4), Span::from_units(1));
    b.aperiodic(Instant::from_units(4), Span::from_units(1));
    b.aperiodic(Instant::from_units(4), Span::from_units(1));
    b.horizon(Instant::from_units(72));
    assert_both_worlds_agree(&b.build().unwrap());
}
