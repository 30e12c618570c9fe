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
//! and serverless systems, homogeneous rate groups, coincident,
//! saturating and backlogged bursts, and the boundaries of the simulation
//! driver's service rule (arrivals admitted inside a service) — the shapes
//! where batching and the static dispatch tables could diverge. The golden
//! files in `tests/goldens/` additionally pin every loop to the recorded
//! history.

use rtsj_event_framework::model::{
    AdmissionPolicy, AperiodicFate, Instant, ModeChange, Priority, QueueDiscipline,
    SchedulingPolicy, ServerPolicyKind, ServerSpec, Span, SystemSpec,
};
use rtsj_event_framework::observe::MetricsProbe;
use rtsj_event_framework::simulator::{simulate, simulate_reference};
use rtsj_event_framework::sysgen::{GeneratorParams, RandomSystemGenerator};
use rtsj_event_framework::taskserver::{
    execute, execute_reference, execute_with_probe, ExecutionConfig, ExecutionPlan,
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
    let config = ExecutionConfig::reference();
    let plan = ExecutionPlan::prepare(&spec, &config).expect("valid spec");
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

/// Ticks per time unit, for the hand-built boundary cases below.
const U: u64 = 1_000;

/// One hand-built arrival: `(lane, release, cost, relative deadline,
/// value)`, times in ticks.
type Arrival = (usize, u64, u64, Option<u64>, u64);

/// `servers` above one low-priority periodic task, with `events` in
/// insertion order (ids ascend in it, so it is the stream order within one
/// release) and the horizon in ticks.
fn boundary_system(
    name: &str,
    servers: &[ServerSpec],
    events: &[Arrival],
    horizon: u64,
) -> SystemSpec {
    let mut b = SystemSpec::builder(name);
    for server in servers {
        b.add_server(server.clone());
    }
    b.periodic(
        "tau",
        Span::from_units(1),
        Span::from_units(7),
        Priority::new(10),
    );
    for &(lane, release, cost, deadline, value) in events {
        b.aperiodic_for(lane, Instant::from_ticks(release), Span::from_ticks(cost));
        let event = b.last_aperiodic_mut().expect("event just added");
        event.relative_deadline = deadline.map(Span::from_ticks);
        event.value = value;
    }
    b.horizon(Instant::from_ticks(horizon));
    b.build().unwrap()
}

/// A capacity-limited server of `policy` at priority 30.
fn server(
    policy: ServerPolicyKind,
    capacity: u64,
    period: u64,
    admission: AdmissionPolicy,
) -> ServerSpec {
    ServerSpec {
        policy,
        capacity: Span::from_units(capacity),
        period: Span::from_units(period),
        priority: Priority::new(30),
        discipline: QueueDiscipline::FifoSkip,
        admission,
    }
}

/// Asserts `simulate` agrees with `simulate_reference` under fixed
/// priorities and under EDF; returns the fixed-priority trace.
fn assert_simulation_agrees_under_both_schedulers(spec: &SystemSpec) -> rt_model::Trace {
    let mut edf = spec.clone();
    edf.scheduling = SchedulingPolicy::Edf;
    assert_simulation_agrees(&edf);
    let mut fp = spec.clone();
    fp.scheduling = SchedulingPolicy::FixedPriority;
    assert_simulation_agrees(&fp);
    simulate(&fp)
}

fn count_fates(trace: &rt_model::Trace, pick: fn(&AperiodicFate) -> bool) -> usize {
    trace.outcomes.iter().filter(|o| pick(&o.fate)).count()
}

#[test]
fn a_queue_draining_at_an_arrival_agrees_with_the_reference() {
    // Every 8 units a job is in service when a second arrives (admitted
    // inside the slice). In even periods the second drains the queue at
    // the instant a third arrives: a polling server forfeits its capacity
    // there and a sporadic one closes its chunk, so the third goes back to
    // the full loop. In odd periods the first job ends where the third
    // arrives with the second still queued.
    let events: Vec<Arrival> = (0..6u64)
        .flat_map(|k| {
            let third = if k % 2 == 0 { 3 } else { 2 };
            [
                (0, 8 * k * U, 2 * U, None, 1),
                (0, (8 * k + 1) * U, U, None, 1),
                (0, (8 * k + third) * U, U, None, 1),
            ]
        })
        .collect();
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Sporadic,
    ] {
        let spec = boundary_system(
            &format!("drain-{policy:?}"),
            &[server(policy, 4, 8, AdmissionPolicy::AcceptAll)],
            &events,
            56 * U,
        );
        assert_simulation_agrees_under_both_schedulers(&spec);
    }
}

#[test]
fn a_burst_inside_one_service_agrees_with_the_reference() {
    // X is in service over [4, 7) on a sporadic server. The burst at 6, a
    // period boundary of the admission plan, lands inside that slice:
    // under ValueDensity the dense C displaces the queued B there; under
    // DeadlinePredictive C is refused. A second burst inside a later slice
    // (at 10.5) meets a backlog with deadlines.
    let events: [Arrival; 8] = [
        (0, 4 * U, 3 * U, None, 1),
        (0, 6 * U, 3 * U, None, 1),
        (0, 6 * U, 3 * U, Some(9 * U), 1_000),
        (0, 6 * U, U, Some(4 * U), 2),
        (0, 10 * U + 500, U, Some(3 * U), 40),
        (0, 10 * U + 500, 2 * U, Some(20 * U), 1),
        (0, 11 * U, U, Some(12 * U), 90),
        (0, 12 * U + 250, U, None, 3),
    ];
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Sporadic,
    ] {
        for admission in [
            AdmissionPolicy::AcceptAll,
            AdmissionPolicy::DeadlinePredictive,
            AdmissionPolicy::ValueDensity,
        ] {
            let spec = boundary_system(
                &format!("burst-{policy:?}-{admission:?}"),
                &[server(policy, 3, 6, admission)],
                &events,
                40 * U,
            );
            let trace = assert_simulation_agrees_under_both_schedulers(&spec);
            if policy == ServerPolicyKind::Sporadic {
                let aborted = count_fates(&trace, |f| matches!(f, AperiodicFate::Aborted { .. }));
                let rejected = count_fates(&trace, |f| matches!(f, AperiodicFate::Rejected { .. }));
                match admission {
                    AdmissionPolicy::ValueDensity => {
                        assert!(aborted > 0, "B is displaced mid-service")
                    }
                    AdmissionPolicy::DeadlinePredictive => {
                        assert!(rejected > 0, "C is refused mid-service")
                    }
                    AdmissionPolicy::AcceptAll => assert_eq!(aborted + rejected, 0),
                }
            }
        }
    }
}

#[test]
fn displacement_spares_a_job_started_inside_the_service() {
    // A deferrable server serves from retained capacity long before the
    // polling plan of its admission machine would: A runs over [1, 2) and
    // B, arriving at 1.5, starts at 2 in the same service. At 3, C (dense,
    // deadline 11) displaces B in the plan, where B has not yet started;
    // the lane has started B, so B keeps running and C queues behind it.
    let events: [Arrival; 3] = [
        (0, U, U, None, 1),
        (0, U + 500, 2 * U, None, 1),
        (0, 3 * U, 2 * U, Some(8 * U), 100),
    ];
    let spec = boundary_system(
        "started-inside",
        &[server(
            ServerPolicyKind::Deferrable,
            4,
            8,
            AdmissionPolicy::ValueDensity,
        )],
        &events,
        24 * U,
    );
    let trace = assert_simulation_agrees_under_both_schedulers(&spec);
    let b = spec.aperiodics[1].id;
    assert_eq!(
        trace.outcomes.iter().find(|o| o.event == b).unwrap().fate,
        AperiodicFate::Served {
            started: Instant::from_units(2),
            completed: Instant::from_units(4),
        }
    );
}

#[test]
fn an_arrival_to_another_lane_inside_a_service_agrees_with_the_reference() {
    // Lane 0 serves [0, 3); at 1 arrivals for lanes 0, 1 and 0 again (in
    // that stream order) land inside the slice, and the lane-1 one ends
    // it. Later lane 1 is in service when lane 0 (higher priority) and
    // lane 2 (lower) receive arrivals. Mixed policies take the inline-enum
    // lane, one policy the monomorphized one.
    let events: [Arrival; 9] = [
        (0, 0, 3 * U, None, 1),
        (0, U, U, None, 1),
        (1, U, U, None, 1),
        (0, U, U, None, 1),
        (2, 2 * U + 500, U, None, 1),
        (1, 13 * U, 2 * U, None, 1),
        (0, 13 * U + 500, U, None, 1),
        (2, 14 * U, U, None, 1),
        (1, 14 * U + 500, U, None, 1),
    ];
    let lanes = |policies: [ServerPolicyKind; 3]| -> Vec<ServerSpec> {
        policies
            .iter()
            .zip([40u8, 38, 36])
            .map(|(&policy, priority)| ServerSpec {
                priority: Priority::new(priority),
                ..server(policy, 3, 8, AdmissionPolicy::AcceptAll)
            })
            .collect()
    };
    for policies in [
        [
            ServerPolicyKind::Deferrable,
            ServerPolicyKind::Polling,
            ServerPolicyKind::Sporadic,
        ],
        [ServerPolicyKind::Deferrable; 3],
    ] {
        let spec = boundary_system("other-lane", &lanes(policies), &events, 40 * U);
        assert_simulation_agrees_under_both_schedulers(&spec);
    }
}

#[test]
fn an_overrun_cut_mid_service_agrees_with_the_reference() {
    // X declares 3 units but demands 5: enforcement cuts it at 3, with
    // arrivals inside its slice before the cut, one exactly at it and one
    // after, so the admission plan's release of X's slot falls between
    // in-slice admissions.
    let events: [Arrival; 6] = [
        (0, 0, 3 * U, Some(8 * U), 5),
        (0, U, 2 * U, Some(6 * U), 3),
        (0, 2 * U + 500, U, Some(4 * U), 8),
        (0, 3 * U, U, Some(10 * U), 1),
        (0, 4 * U, 2 * U, Some(5 * U), 6),
        (0, 4 * U + 500, U, None, 2),
    ];
    for policy in [ServerPolicyKind::Deferrable, ServerPolicyKind::Sporadic] {
        for admission in [
            AdmissionPolicy::AcceptAll,
            AdmissionPolicy::DeadlinePredictive,
            AdmissionPolicy::ValueDensity,
        ] {
            let mut spec = boundary_system(
                &format!("overrun-{policy:?}-{admission:?}"),
                &[server(policy, 4, 8, admission)],
                &events,
                32 * U,
            );
            let x = spec.aperiodics[0].id;
            spec.faults = std::mem::take(&mut spec.faults).overrun(x, Span::from_units(2));
            let trace = assert_simulation_agrees_under_both_schedulers(&spec);
            let fate = trace.outcomes.iter().find(|o| o.event == x).unwrap().fate;
            assert_eq!(
                fate,
                AperiodicFate::Aborted {
                    at: Instant::from_units(3)
                },
                "X is cut at its declared cost"
            );
        }
    }
}

#[test]
fn a_pending_mode_change_agrees_with_the_reference() {
    // The change at 5 finds X in service over [4, 7) and waits until X
    // completes; arrivals meanwhile are decision points of their own. A
    // second change, far ahead, keeps one pending through the services in
    // between, and the swap to background servicing takes the inline-enum
    // lane.
    let events: Vec<Arrival> = [4u64, 5, 6, 9, 15, 16, 23, 24, 25]
        .iter()
        .map(|&t| (0, t * U + 250, 2 * U, Some(12 * U), 1 + t % 4))
        .collect();
    for (policy, later) in [
        (ServerPolicyKind::Deferrable, None),
        (
            ServerPolicyKind::Sporadic,
            Some(ServerPolicyKind::Background),
        ),
    ] {
        for admission in [
            AdmissionPolicy::AcceptAll,
            AdmissionPolicy::DeadlinePredictive,
        ] {
            let mut spec = boundary_system(
                &format!("mode-{policy:?}-{admission:?}"),
                &[server(policy, 3, 6, admission)],
                &events,
                40 * U,
            );
            let mut second = ModeChange::at(Instant::from_units(24), 0);
            second = match later {
                Some(kind) => second.with_policy(kind),
                None => second.with_capacity(Span::from_units(3)),
            };
            spec.faults = std::mem::take(&mut spec.faults)
                .mode_change(
                    ModeChange::at(Instant::from_units(5), 0).with_capacity(Span::from_units(2)),
                )
                .mode_change(second);
            spec.faults.normalise();
            assert_simulation_agrees_under_both_schedulers(&spec);
        }
    }
}

#[test]
fn the_horizon_inside_a_service_agrees_with_the_reference() {
    // A 10-unit job starts at 40 and the horizon falls at 45: arrivals
    // inside its slice are admitted and queued, one exactly at the horizon
    // and one past it never enter the run.
    let events: [Arrival; 6] = [
        (0, 40 * U, 10 * U, None, 1),
        (0, 41 * U, U, None, 1),
        (0, 43 * U + 500, 2 * U, None, 1),
        (0, 44 * U + 999, U, None, 1),
        (0, 45 * U, U, None, 1),
        (0, 46 * U, U, None, 1),
    ];
    let background = ServerSpec::background(Priority::new(30));
    for lane in [
        background,
        server(
            ServerPolicyKind::Deferrable,
            10,
            50,
            AdmissionPolicy::AcceptAll,
        ),
    ] {
        let spec = boundary_system("horizon", &[lane], &events, 45 * U);
        let trace = assert_simulation_agrees_under_both_schedulers(&spec);
        assert_eq!(
            count_fates(&trace, |f| matches!(f, AperiodicFate::Unserved)),
            4,
            "the job cut by the horizon and the three queued behind it"
        );
    }
}
