//! Differential tests for the admission/overload subsystem.
//!
//! Four guarantees are pinned here:
//!
//! 1. **AcceptAll is invisible** — stamping the default admission policy on
//!    a system (even one carrying deadlines and value tags) produces traces
//!    byte-identical to the unstamped system across the whole engine matrix
//!    (engine loop × scheduling), on both engines. Together
//!    with the 53 pre-admission goldens this proves the admission layer
//!    reduces to today's behaviour when switched off.
//! 2. **Cross-engine decision identity** — `DeadlinePredictive` decisions
//!    are a pure function of the arrival history (`rt-admission`), so the
//!    execution engine (ideal overheads) and the simulator classify every
//!    event identically (accepted vs rejected), under fixed priorities and
//!    under EDF, single- and multi-server.
//! 3. **The 4× burst acceptance criterion** — under a sustained 4× overload
//!    burst, `DeadlinePredictive` admission yields **zero deadline misses
//!    among accepted events on both engines** (fixed priorities, ideal
//!    overheads — the regime where the §7 prediction is exact/conservative),
//!    while `AcceptAll` thrashes on the same traffic.
//! 4. **The value-density record** — on a fixed valued burst, every fate
//!    the `ValueDensity` drop rule hands out is pinned by event.

use rtsj_event_framework::model::{
    AdmissionPolicy, AperiodicFate, EventId, Instant, Priority, QueueDiscipline, SchedulingPolicy,
    ServerPolicyKind, ServerSpec, Span, SystemSpec, Trace,
};
use rtsj_event_framework::observe::MetricsProbe;
use rtsj_event_framework::simulator::{simulate, simulate_reference};
use rtsj_event_framework::taskserver::{
    execute, execute_reference, execute_with_probe, ExecutionConfig,
};

/// A sustained 4× overload burst into a polling server: server bandwidth
/// 5/10 = 0.5, arrival bandwidth one cost-2 event per unit = 2.0. Every
/// event carries a 30-unit relative deadline and a cycling value tag.
fn overload_burst(policy: AdmissionPolicy, scheduling: SchedulingPolicy) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("burst-{}-{scheduling:?}", policy.label()));
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
    for t in 0..200u64 {
        b.aperiodic(Instant::from_units(t), Span::from_units(2));
        let event = b.last_aperiodic_mut().expect("event just added");
        event.relative_deadline = Some(Span::from_units(30));
        event.value = (t % 7 + 1) * event.declared_cost.ticks();
    }
    b.scheduling(scheduling);
    b.horizon(Instant::from_units(200));
    b.build().expect("burst system is valid")
}

/// The 2-server variant: a deferrable and a sporadic server with round-robin
/// routed, deadline-tagged traffic, both under the given admission policy.
fn multi_server_burst(policy: AdmissionPolicy, scheduling: SchedulingPolicy) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("burst-multi-{}", policy.label()));
    b.add_server(
        ServerSpec::deferrable(Span::from_units(3), Span::from_units(6), Priority::new(33))
            .with_admission(policy),
    );
    b.add_server(
        ServerSpec::sporadic(Span::from_units(2), Span::from_units(8), Priority::new(32))
            .with_admission(policy),
    );
    b.periodic(
        "tau1",
        Span::from_units(2),
        Span::from_units(12),
        Priority::new(20),
    );
    for t in 0..120u64 {
        b.aperiodic_for(
            (t % 2) as usize,
            Instant::from_units(t),
            Span::from_units(2),
        );
        let event = b.last_aperiodic_mut().expect("event just added");
        event.relative_deadline = Some(Span::from_units(24));
        event.value = (t % 5 + 1) * event.declared_cost.ticks();
    }
    b.scheduling(scheduling);
    b.horizon(Instant::from_units(120));
    b.build().expect("multi-server burst is valid")
}

/// Per-event classification: true = rejected at arrival.
fn rejection_profile(trace: &Trace) -> Vec<(u32, bool)> {
    trace
        .outcomes
        .iter()
        .map(|o| (o.event.raw(), o.is_rejected()))
        .collect()
}

fn accepted_misses(trace: &Trace) -> usize {
    trace
        .outcomes
        .iter()
        .filter(|o| {
            o.missed_deadline_after_acceptance() && o.deadline.is_some_and(|d| d <= trace.horizon)
        })
        .count()
}

#[test]
fn accept_all_reduces_byte_identically_across_the_engine_matrix() {
    for scheduling in [SchedulingPolicy::FixedPriority, SchedulingPolicy::Edf] {
        let stamped = overload_burst(AdmissionPolicy::AcceptAll, scheduling);
        let mut unstamped = stamped.clone();
        for server in &mut unstamped.servers {
            server.admission = AdmissionPolicy::default();
        }
        // Execution matrix: every engine loop.
        let config = ExecutionConfig::reference();
        let executed = execute(&unstamped, &config).render_canonical();
        assert_eq!(
            execute(&stamped, &config).render_canonical(),
            executed,
            "{scheduling:?}"
        );
        assert_eq!(
            execute_with_probe(&stamped, &config, &mut MetricsProbe::new()).render_canonical(),
            executed,
            "{scheduling:?} (observed)"
        );
        assert_eq!(
            execute_reference(&stamped, &config).render_canonical(),
            executed,
            "{scheduling:?} (reference)"
        );
        // Simulation matrix: the driver and the reference.
        let reference = simulate(&unstamped).render_canonical();
        assert_eq!(simulate(&stamped).render_canonical(), reference);
        assert_eq!(simulate_reference(&stamped).render_canonical(), reference);
    }
}

#[test]
fn predictive_decisions_agree_across_engines_and_engine_modes() {
    for scheduling in [SchedulingPolicy::FixedPriority, SchedulingPolicy::Edf] {
        for spec in [
            overload_burst(AdmissionPolicy::DeadlinePredictive, scheduling),
            multi_server_burst(AdmissionPolicy::DeadlinePredictive, scheduling),
        ] {
            let executed = execute(&spec, &ExecutionConfig::ideal());
            let simulated = simulate(&spec);
            assert_eq!(
                rejection_profile(&executed),
                rejection_profile(&simulated),
                "{}: accept/reject traces must be identical across engines",
                spec.name
            );
            assert!(
                executed.outcomes.iter().any(|o| o.is_rejected()),
                "{}: the burst must actually trigger rejections",
                spec.name
            );
            // Engine-internal loop matrix agrees too.
            assert_eq!(
                simulate(&spec).render_canonical(),
                simulate_reference(&spec).render_canonical()
            );
            let config = ExecutionConfig::ideal();
            for (label, trace) in [
                ("execute", execute(&spec, &config)),
                ("execute_reference", execute_reference(&spec, &config)),
            ] {
                assert_eq!(
                    trace.render_canonical(),
                    executed.render_canonical(),
                    "{}: {label}",
                    spec.name
                );
            }
        }
    }
}

/// The tentpole acceptance criterion: on the 4× burst, predictive admission
/// yields zero deadline misses among accepted events on both engines, with
/// identical accept/reject traces — while accept-all misses heavily on the
/// same traffic.
#[test]
fn predictive_admission_eliminates_misses_among_accepted_on_both_engines() {
    let predictive = overload_burst(
        AdmissionPolicy::DeadlinePredictive,
        SchedulingPolicy::FixedPriority,
    );
    let executed = execute(&predictive, &ExecutionConfig::ideal());
    let simulated = simulate(&predictive);
    assert_eq!(
        rejection_profile(&executed),
        rejection_profile(&simulated),
        "identical accept/reject traces"
    );
    assert_eq!(
        accepted_misses(&executed),
        0,
        "execution: accepted events must all meet their deadlines"
    );
    assert_eq!(
        accepted_misses(&simulated),
        0,
        "simulation: accepted events must all meet their deadlines"
    );
    // The policy is not vacuous: a healthy share is accepted and served.
    let served = executed.outcomes.iter().filter(|o| o.is_served()).count();
    assert!(served >= 20, "only {served} events served");
    // Accept-all on the same traffic misses massively.
    let accept_all = overload_burst(AdmissionPolicy::AcceptAll, SchedulingPolicy::FixedPriority);
    for trace in [
        execute(&accept_all, &ExecutionConfig::ideal()),
        simulate(&accept_all),
    ] {
        let misses = accepted_misses(&trace);
        assert!(
            misses > 50,
            "accept-all must thrash under the 4x burst (got {misses} misses)"
        );
    }
}

/// A displacement decision must never abort work an engine has already
/// started: the simulator (which serves *earlier* than the virtual plan —
/// here a deferrable server picks the event up on arrival) keeps the
/// in-service event's served fate, exactly like the execution engine whose
/// dispatch removed it from the queue. Regression for the cross-engine
/// divergence where the simulator aborted a mid-service job.
#[test]
fn displacement_never_aborts_in_service_work() {
    let mut b = SystemSpec::builder("abort-in-service");
    b.server(
        ServerSpec::deferrable(Span::from_units(4), Span::from_units(6), Priority::new(30))
            .with_admission(AdmissionPolicy::ValueDensity),
    );
    // A: cheap, deadline-free, arrives mid-instance — the DS serves it
    // immediately, but the virtual (polling-conservative) plan only starts
    // it at the next activation.
    b.aperiodic(Instant::from_units(1), Span::from_units(3));
    b.last_aperiodic_mut().unwrap().value = 1;
    // B: very dense with a tight deadline — it displaces A *virtually*.
    b.aperiodic(Instant::from_units(2), Span::from_units(3));
    {
        let event = b.last_aperiodic_mut().unwrap();
        event.relative_deadline = Some(Span::from_units(9));
        event.value = 1_000_000;
    }
    b.horizon(Instant::from_units(30));
    let spec = b.build().unwrap();
    let executed = execute(&spec, &ExecutionConfig::ideal());
    let simulated = simulate(&spec);
    for (name, trace) in [("execution", &executed), ("simulation", &simulated)] {
        let a = trace.outcomes.iter().find(|o| o.event.raw() == 0).unwrap();
        assert!(
            a.is_served(),
            "{name}: the in-service event must keep its served fate, got {:?}",
            a.fate
        );
    }
}

/// Value-density admission accrues at least as much value as predictive
/// admission on value-skewed traffic, and every displaced event is recorded
/// as a first-class aborted outcome.
#[test]
fn value_density_displacement_is_recorded_and_pays_off() {
    let dover = overload_burst(
        AdmissionPolicy::ValueDensity,
        SchedulingPolicy::FixedPriority,
    );
    let executed = execute(&dover, &ExecutionConfig::ideal());
    let simulated = simulate(&dover);
    // Decisions are shared state: the rejection profiles agree here too.
    assert_eq!(rejection_profile(&executed), rejection_profile(&simulated));
    for (name, trace) in [("execution", &executed), ("simulation", &simulated)] {
        let aborted = trace.outcomes.iter().filter(|o| o.is_aborted()).count();
        assert!(aborted > 0, "{name}: the drop rule must displace something");
        // Every event has exactly one outcome.
        let mut ids: Vec<u32> = trace.outcomes.iter().map(|o| o.event.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), dover.aperiodics.len(), "{name}");
    }
}

/// An injected overrun that aborts in service must release its
/// equation-(5) plan slot: later arrivals are admitted against the real
/// residual load, not a ghost of the aborted job. The fates are pinned
/// byte-exactly on both engines and their reference oracles.
#[test]
fn an_overrun_abort_releases_its_equation5_slot() {
    let mut b = SystemSpec::builder("abort-releases-slot");
    b.server(
        ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30))
            .with_admission(AdmissionPolicy::DeadlinePredictive),
    );
    // e0 declares 2 units but demands 5: enforcement cuts it off at 2.
    let e0 = b.aperiodic(Instant::from_units(0), Span::from_units(2));
    b.last_aperiodic_mut().unwrap().relative_deadline = Some(Span::from_units(20));
    // e1's deadline only holds if e0's slot is gone when e1 arrives.
    b.aperiodic(Instant::from_units(6), Span::from_units(3));
    b.last_aperiodic_mut().unwrap().relative_deadline = Some(Span::from_units(8));
    b.aperiodic(Instant::from_units(12), Span::from_units(2));
    b.last_aperiodic_mut().unwrap().relative_deadline = Some(Span::from_units(6));
    *b.faults_mut() = std::mem::take(b.faults_mut()).overrun(e0, Span::from_units(3));
    b.horizon(Instant::from_units(30));
    let spec = b.build().expect("slot-release system is valid");

    let config = ExecutionConfig::ideal();
    let simulated = simulate(&spec);
    let executed = execute(&spec, &config);
    assert_eq!(
        simulated.render_canonical(),
        simulate_reference(&spec).render_canonical()
    );
    assert_eq!(
        executed.render_canonical(),
        execute_reference(&spec, &config).render_canonical()
    );
    for trace in [&simulated, &executed] {
        let fates: Vec<AperiodicFate> = trace.outcomes.iter().map(|o| o.fate).collect();
        assert_eq!(
            fates,
            vec![
                AperiodicFate::Aborted {
                    at: Instant::from_units(2)
                },
                AperiodicFate::Served {
                    started: Instant::from_units(6),
                    completed: Instant::from_units(9),
                },
                AperiodicFate::Served {
                    started: Instant::from_units(12),
                    completed: Instant::from_units(14),
                },
            ],
            "fates diverged on {}",
            trace.outcomes.len()
        );
        // The only accepted miss is the injected overrun itself — the
        // containment guarantee covers the unaffected events.
        assert_eq!(accepted_misses(trace), 1);
        assert!(trace
            .outcomes
            .iter()
            .filter(|o| o.event != e0)
            .all(|o| o.completed_by_deadline()));
    }
}

/// A valued overload burst under EDF: the Table 1 periodic pair (utilization
/// 1/2), a (3,6) deadline-ordered polling server under `ValueDensity`
/// admission, and a front-loaded aperiodic burst worth far more than the
/// server's bandwidth (demand 16 over [0, 24) against 3 per 6). Every event
/// carries a deadline and a value tag, with densities from 0.5 to 6 so the
/// victim ordering is unambiguous.
fn valued_burst() -> SystemSpec {
    let mut b = SystemSpec::builder("value-density-burst");
    b.server(ServerSpec {
        policy: ServerPolicyKind::Polling,
        capacity: Span::from_units(3),
        period: Span::from_units(6),
        priority: Priority::new(30),
        discipline: QueueDiscipline::DeadlineOrdered,
        admission: AdmissionPolicy::ValueDensity,
    });
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
    // (release, cost, relative deadline, value).
    for &(release, cost, deadline, value) in &[
        (0u64, 2u64, 6u64, 2u64), // e0: density 1, first comer
        (1, 2, 6, 12),            // e1: density 6, the burst's crown jewel
        (2, 3, 9, 3),             // e2: density 1, bulky
        (3, 1, 4, 4),             // e3: density 4, tight deadline
        (8, 2, 8, 1),             // e4: density 0.5, the designated victim
        (9, 2, 6, 8),             // e5: density 4
        (14, 2, 10, 2),           // e6: density 1
        (20, 2, 8, 6),            // e7: density 3
    ] {
        b.aperiodic(Instant::from_units(release), Span::from_units(cost));
        let event = b.last_aperiodic_mut().expect("event just added");
        event.relative_deadline = Some(Span::from_units(deadline));
        event.value = value;
    }
    b.scheduling(SchedulingPolicy::Edf);
    b.horizon(Instant::from_units(36));
    b.build().expect("the valued burst is a valid system")
}

/// The value-density drop rule decides at arrival only: an event is
/// rejected on the spot or admitted, and an admitted backlog entry is
/// aborted only when a denser arrival displaces it. On the valued burst the
/// lane's complete accept/drop record is pinned, so any drift in the rule
/// moves a named event to another tag (`S` served, `R` rejected at arrival,
/// `A` aborted from the backlog).
#[test]
fn value_density_fates_are_pinned_on_a_valued_burst() {
    let spec = valued_burst();
    let lane = simulate(&spec);
    let fates: Vec<String> = lane
        .outcomes
        .iter()
        .map(|o| {
            let tag = match o.fate {
                AperiodicFate::Served { .. } => 'S',
                AperiodicFate::Unserved => 'U',
                AperiodicFate::Rejected { .. } => 'R',
                AperiodicFate::Aborted { .. } => 'A',
                AperiodicFate::Interrupted { .. } => 'I',
            };
            format!("e{}:{tag}", o.event.raw())
        })
        .collect();
    assert_eq!(fates.join(" "), "e0:S e1:R e2:A e3:S e4:A e5:S e6:S e7:S");
    let fate_of = |id: u32| {
        lane.outcomes
            .iter()
            .find(|o| o.event == EventId::new(id))
            .expect("every event has an outcome")
            .fate
    };
    // e1, the burst's most valuable event, is refused the moment it
    // arrives: with 3 units per 6 and the backlog already committed, no
    // displacement can make its deadline feasible. The first comer e0 was
    // admitted before the burst revealed itself and is served; the
    // designated victim e4 is displaced when e5 arrives.
    assert_eq!(
        fate_of(1),
        AperiodicFate::Rejected {
            at: Instant::from_units(1)
        }
    );
    assert!(matches!(fate_of(0), AperiodicFate::Served { .. }));
    assert!(matches!(fate_of(4), AperiodicFate::Aborted { .. }));
    // Every loss is a named admission decision, never a horizon leftover,
    // and every event served completes by its deadline.
    let served: Vec<u32> = lane
        .outcomes
        .iter()
        .filter(|o| o.is_served())
        .map(|o| o.event.raw())
        .collect();
    assert_eq!(served, [0, 3, 5, 6, 7]);
    let accrued: u64 = lane
        .outcomes
        .iter()
        .filter(|o| o.is_served())
        .map(|o| o.value)
        .sum();
    assert_eq!(accrued, 22);
    for o in &lane.outcomes {
        assert!(
            o.is_served() || o.is_rejected() || o.is_aborted(),
            "e{} lost without an admission decision: {:?}",
            o.event.raw(),
            o.fate
        );
        assert!(
            !o.is_served() || o.completed_by_deadline(),
            "served event e{} finished late",
            o.event.raw()
        );
    }
    // The periodic tasks run outside the server and stay clean.
    assert_eq!(lane.periodic_jobs.len(), 12);
    assert_eq!(lane.periodic_deadline_misses(), 0);
}
