//! D-OVER differential: the lane-level `ValueDensity` admission policy of
//! the server engine vs the job-level D-OVER policy of the dynamic-priority
//! engine, on one shared overload scenario.
//!
//! Both implement the same Koren & Shasha idea — under overload, sacrifice
//! the lowest value-density work first — but at different decision points
//! and against different capacity models, and this test pins exactly where
//! and why their accept/drop records diverge:
//!
//! * **decision instant** — the lane policy decides at *arrival* time only:
//!   an event is `Rejected` on the spot or admitted, and an admitted
//!   backlog entry can later be `Aborted` only when a new arrival displaces
//!   it. D-OVER re-evaluates at *every* decision instant: it abandons a job
//!   the moment it becomes hopeless (`now + remaining > deadline`) and
//!   sheds the lowest-density job whenever the ready set goes
//!   EDF-infeasible, with no arrival needed to trigger the drop.
//! * **drop vocabulary** — the lane trace distinguishes `Rejected`
//!   (arrival-time refusal) from `Aborted` (displaced from the backlog);
//!   D-OVER records every loss as `Unserved` — it has no admission layer,
//!   so nothing is ever refused entry.
//! * **capacity model** — the lane serves from a bandwidth-limited server
//!   (3 units per 6) while the periodic tasks run outside it; D-OVER
//!   schedules the aperiodic jobs against the whole processor alongside
//!   the periodic jobs. Neither served set contains the other: the lane
//!   greedily serves the first arrival (`e0`) that D-OVER later sheds as
//!   the burst's lowest-density member, while D-OVER serves high-value
//!   work (`e1`, `e2`) whose deadlines the lane's bandwidth can never
//!   meet — the lane's predictive refusal of the burst's most valuable
//!   event is the price of deciding at arrival time with server-sized
//!   capacity.
//!
//! The scenario is fixed and the assertions pin the exact per-event fates
//! of both engines, so any behavioural drift in either drop rule shows up
//! as a named event changing sides.

use rtsj_event_framework::model::{
    AdmissionPolicy, AperiodicFate, EventId, Instant, Priority, QueueDiscipline, SchedulingPolicy,
    ServerPolicyKind, ServerSpec, Span, SystemSpec, Trace,
};
use rtsj_event_framework::simulator::{simulate, simulate_dover};

/// The shared overload scenario: the Table 1 periodic pair (utilization
/// 1/2), a (3,6) polling server under `ValueDensity` admission, and a
/// front-loaded aperiodic burst worth far more than the server's bandwidth
/// (demand 16 over [0, 24) against 3 per 6). Every event carries a deadline
/// (so D-OVER's hopeless rule can fire) and a value tag (so both density
/// rules have something to rank), with densities from 0.5 to 6 so the
/// victim orderings are unambiguous.
fn overload_scenario() -> SystemSpec {
    let mut b = SystemSpec::builder("dover-differential");
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
    b.build().expect("scenario is a valid system")
}

/// Renders the per-event fates of a trace as `id:tag` pairs, release-ordered
/// — `S` served, `U` unserved, `R` rejected at arrival, `A` aborted from
/// the backlog, `I` interrupted.
fn fate_line(trace: &Trace) -> String {
    let mut out = String::new();
    for o in &trace.outcomes {
        if !out.is_empty() {
            out.push(' ');
        }
        let tag = match o.fate {
            AperiodicFate::Served { .. } => 'S',
            AperiodicFate::Unserved => 'U',
            AperiodicFate::Rejected { .. } => 'R',
            AperiodicFate::Aborted { .. } => 'A',
            AperiodicFate::Interrupted { .. } => 'I',
        };
        out.push_str(&format!("e{}:{}", o.event.raw(), tag));
    }
    out
}

fn fate_of(trace: &Trace, id: u32) -> AperiodicFate {
    trace
        .outcomes
        .iter()
        .find(|o| o.event == EventId::new(id))
        .expect("every event has an outcome")
        .fate
}

fn accrued_value(trace: &Trace) -> u64 {
    trace
        .outcomes
        .iter()
        .filter(|o| o.is_served())
        .map(|o| o.value)
        .sum()
}

#[test]
fn lane_and_dover_fates_are_pinned() {
    let spec = overload_scenario();
    let lane = simulate(&spec);
    let dover = simulate_dover(&spec);

    // The complete accept/drop record of both engines, byte-pinned. Any
    // change to either drop rule moves a named event to another tag.
    assert_eq!(
        fate_line(&lane),
        "e0:S e1:R e2:A e3:S e4:A e5:S e6:S e7:S",
        "lane-level ValueDensity record changed"
    );
    assert_eq!(
        fate_line(&dover),
        "e0:U e1:S e2:S e3:S e4:U e5:S e6:S e7:S",
        "job-level D-OVER record changed"
    );
}

#[test]
fn dover_losses_have_no_admission_vocabulary() {
    let spec = overload_scenario();
    let dover = simulate_dover(&spec);
    // D-OVER has no admission layer: nothing is refused entry and nothing
    // is displaced from a backlog — every loss is a plain `Unserved`.
    for o in &dover.outcomes {
        assert!(
            o.is_served() || o.fate == AperiodicFate::Unserved,
            "D-OVER must only serve or lose, e{} got {:?}",
            o.event.raw(),
            o.fate
        );
    }
    // The lane engine, by contrast, names its drops: in this scenario every
    // loss is an arrival-time rejection or a displacement, never a silent
    // horizon leftover.
    let lane = simulate(&spec);
    for o in &lane.outcomes {
        assert!(
            o.is_served() || o.is_rejected() || o.is_aborted(),
            "lane losses must be named admission decisions, e{} got {:?}",
            o.event.raw(),
            o.fate
        );
    }
}

#[test]
fn capacity_model_splits_the_served_sets() {
    let spec = overload_scenario();
    let lane = simulate(&spec);
    let dover = simulate_dover(&spec);

    // e1 (density 6, the most valuable event of the burst) is *rejected* by
    // the lane at its arrival instant: with 3 units per 6 and the backlog
    // already committed, no displacement can make its deadline feasible, so
    // the predictive refusal fires. D-OVER, free to preempt the whole
    // processor, serves it on time.
    assert_eq!(
        fate_of(&lane, 1),
        AperiodicFate::Rejected {
            at: Instant::from_units(1)
        },
        "the lane must refuse e1 the moment it arrives"
    );
    assert!(matches!(fate_of(&dover, 1), AperiodicFate::Served { .. }));

    // e0 goes the other way: the lane admitted and served the first comer
    // before the burst revealed itself (arrival-time decisions are final),
    // while D-OVER re-evaluates mid-burst and sheds e0 as the ready set's
    // lowest value-density member.
    assert!(matches!(fate_of(&lane, 0), AperiodicFate::Served { .. }));
    assert_eq!(fate_of(&dover, 0), AperiodicFate::Unserved);

    // On the designated victim the two rules agree: e4 (density 0.5) loses
    // in both worlds — the lane displaces it from the backlog when e5
    // arrives, D-OVER sheds it — differing only in vocabulary and instant.
    assert!(matches!(fate_of(&lane, 4), AperiodicFate::Aborted { .. }));
    assert_eq!(fate_of(&dover, 4), AperiodicFate::Unserved);

    // Job-level control of the whole processor accrues strictly more value
    // than arrival-time lane admission under this burst (35 vs 22)…
    assert_eq!(accrued_value(&lane), 22);
    assert_eq!(accrued_value(&dover), 35);

    // …but neither served set contains the other.
    let lane_served: Vec<u32> = lane
        .outcomes
        .iter()
        .filter(|o| o.is_served())
        .map(|o| o.event.raw())
        .collect();
    let dover_served: Vec<u32> = dover
        .outcomes
        .iter()
        .filter(|o| o.is_served())
        .map(|o| o.event.raw())
        .collect();
    assert_eq!(lane_served, [0, 3, 5, 6, 7]);
    assert_eq!(dover_served, [1, 2, 3, 5, 6, 7]);
}

#[test]
fn both_drop_rules_keep_completions_on_time_and_tasks_clean() {
    let spec = overload_scenario();
    let lane = simulate(&spec);
    let dover = simulate_dover(&spec);

    // What shedding buys, in both worlds: every event actually served
    // completes by its deadline. The lane gets this from the predictive
    // admission test; D-OVER from abandoning hopeless jobs before they can
    // finish late.
    for (engine, trace) in [("lane", &lane), ("dover", &dover)] {
        for o in &trace.outcomes {
            if o.is_served() {
                assert!(
                    o.completed_by_deadline(),
                    "{engine}: served event e{} finished late",
                    o.event.raw()
                );
            }
        }
    }

    // And the periodic tasks stay clean on both sides: the lane protects
    // them by construction (they run outside the server), D-OVER because
    // the shed aperiodic load leaves the EDF set feasible.
    assert_eq!(lane.periodic_jobs.len(), 12);
    assert_eq!(dover.periodic_jobs.len(), 12);
    assert_eq!(lane.periodic_deadline_misses(), 0);
    assert_eq!(dover.periodic_deadline_misses(), 0);
}
