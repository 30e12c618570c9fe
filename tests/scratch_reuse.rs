//! Runs on one thread share its scratch, and no run can tell.
//!
//! `execute`, `execute_with_probe`, `ExecutionPlan::run`, `simulate` and
//! `simulate_with_probe` keep the buffers a run uses but does not return
//! in a per-thread scratch, and each run hands them back empty. This suite
//! runs systems of different shapes one after the other on one thread — a
//! faulted EDF system with three lanes and three periodic tasks, a paper
//! system with one lane and none, then the first system again — each
//! through every entry point, with and without a recording probe. Every
//! trace and every recording must equal, byte for byte, the same run made
//! alone on a fresh thread, whose scratch is empty: a buffer that kept a
//! value from an earlier run would show here.

use rtsj_event_framework::model::{
    AdmissionPolicy, FaultPlan, Instant, ModeChange, Priority, QueueDiscipline, SchedulingPolicy,
    ServerPolicyKind, ServerSpec, Span, SystemSpec,
};
use rtsj_event_framework::observe::MetricsProbe;
use rtsj_event_framework::simulator::{simulate, simulate_with_probe};
use rtsj_event_framework::sysgen::{GeneratorParams, RandomSystemGenerator};
use rtsj_event_framework::taskserver::{
    execute, execute_with_probe, ExecutionConfig, ExecutionPlan,
};

mod common;
use common::diff::assert_same_rendering;

/// A deferrable, a sporadic and a polling lane under EDF, with
/// deadline-ordered service, predictive admission, three periodic tasks in
/// two rate groups, cost overruns, a jittered and a dropped arrival, and
/// mode changes (one of them a policy swap).
fn faulted_edf_lanes() -> SystemSpec {
    let unit = Span::from_units;
    let mut b = SystemSpec::builder("scratch-faulted-edf");
    b.add_server(
        ServerSpec::deferrable(unit(3), unit(10), Priority::new(40))
            .with_discipline(QueueDiscipline::DeadlineOrdered),
    );
    b.add_server(ServerSpec::sporadic(unit(2), unit(12), Priority::new(39)));
    b.add_server(
        ServerSpec::polling(unit(2), unit(8), Priority::new(38))
            .with_admission(AdmissionPolicy::DeadlinePredictive),
    );
    b.periodic("tau1", unit(2), unit(10), Priority::new(20));
    b.periodic("tau2", unit(1), unit(10), Priority::new(15));
    b.periodic("tau3", unit(3), unit(15), Priority::new(10));
    for k in 0..45u64 {
        let lane = (k % 3) as usize;
        b.aperiodic_for(lane, Instant::from_units(k * 3 + k % 2), unit(1 + k % 2));
        if k % 4 == 0 {
            let event = b.last_aperiodic_mut().expect("an event was just added");
            event.relative_deadline = Some(unit(12));
        }
    }
    b.scheduling(SchedulingPolicy::Edf);
    b.horizon(Instant::from_units(150));
    let mut spec = b.build().expect("the faulted system is valid");
    let id = |index: usize| spec.aperiodics[index].id;
    spec.faults = FaultPlan::new()
        .overrun(id(4), unit(2))
        .overrun(id(10), unit(1))
        .jitter(id(7), unit(2))
        .drop_arrival(id(13))
        .mode_change(ModeChange::at(Instant::from_units(60), 2).with_capacity(unit(1)))
        .mode_change(
            ModeChange::at(Instant::from_units(90), 0)
                .with_policy(ServerPolicyKind::Sporadic)
                .with_capacity(unit(3))
                .with_period(unit(12)),
        );
    spec.validate().expect("the fault plan is valid");
    spec
}

/// The first system of paper set (2,2) under a polling server.
fn paper_system() -> SystemSpec {
    let generator =
        RandomSystemGenerator::new(GeneratorParams::paper_set(2, 2), ServerPolicyKind::Polling)
            .expect("paper parameters are valid");
    generator.generate_one(0)
}

/// The entry points that use the scratch, in the order the shared thread
/// runs them.
const ENTRY_POINTS: [&str; 5] = [
    "simulate",
    "simulate_with_probe",
    "execute",
    "execute_with_probe",
    "ExecutionPlan::run",
];

/// `spec` run through entry point `entry`: its canonical trace and, for a
/// probed run, the probe's recording.
fn run(spec: &SystemSpec, entry: usize) -> (String, Option<MetricsProbe>) {
    let reference = ExecutionConfig::reference();
    let mut probe = MetricsProbe::new();
    let (trace, probed) = match entry {
        0 => (simulate(spec), false),
        1 => (simulate_with_probe(spec, &mut probe), true),
        2 => (execute(spec, &reference), false),
        3 => (execute_with_probe(spec, &reference, &mut probe), true),
        _ => {
            let plan = ExecutionPlan::prepare(spec, &ExecutionConfig::ideal()).expect("valid spec");
            (plan.run(), false)
        }
    };
    (trace.render_canonical(), probed.then_some(probe))
}

#[test]
fn runs_sharing_a_thread_match_runs_on_fresh_threads() {
    let faulted = faulted_edf_lanes();
    let paper = paper_system();
    let systems = [&faulted, &paper, &faulted];
    // Every run after the first on this thread reuses its scratch.
    let shared = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                systems
                    .iter()
                    .flat_map(|&spec| (0..ENTRY_POINTS.len()).map(move |entry| run(spec, entry)))
                    .collect::<Vec<_>>()
            })
            .join()
            .expect("the shared runs do not panic")
    });
    let cases = systems
        .iter()
        .flat_map(|&spec| (0..ENTRY_POINTS.len()).map(move |entry| (spec, entry)));
    for ((spec, entry), (trace, probe)) in cases.zip(shared) {
        // The same run alone on a new thread, whose scratch is empty.
        let (fresh_trace, fresh_probe) = std::thread::scope(|scope| {
            scope
                .spawn(|| run(spec, entry))
                .join()
                .expect("a fresh run does not panic")
        });
        let what = format!("{}: {} on a used thread", spec.name, ENTRY_POINTS[entry]);
        assert_same_rendering(&fresh_trace, &trace, &what);
        assert_eq!(probe, fresh_probe, "{what}: the recordings differ");
    }
}

#[test]
fn the_suite_systems_exercise_what_the_scratch_holds() {
    let spec = faulted_edf_lanes();
    let trace = execute(&spec, &ExecutionConfig::reference());
    assert_eq!(spec.servers.len(), 3);
    assert!(trace.periodic_jobs.len() > 30, "the periodic tasks run");
    assert!(
        trace.outcomes.iter().any(|o| o.is_served()),
        "the lanes serve events"
    );
    assert!(!paper_system().aperiodics.is_empty());
}
