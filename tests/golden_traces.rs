//! Golden-trace regression tests for the execution and simulation engines.
//!
//! The goldens under `tests/goldens/` were captured from the seed engines
//! (linear-scan scheduling) and pin down the *event-by-event* scheduling
//! order of every paper scenario under every server policy. Every loop of
//! each world is checked against them here:
//!
//! * simulation — the linear-scan reference (`simulate_reference`) and the
//!   specialized driver (`simulate`);
//! * execution — the linear-scan reference (`execute_reference`), `execute`
//!   (the table-driven driver) and `execute_with_probe` (the same driver
//!   with a recording probe).
//!
//! The documented deterministic tie-breaks (spawn order, timer creation
//! order) are part of the contract.
//!
//! Regenerate with `UPDATE_GOLDENS=1 cargo test --test golden_traces` and
//! review the diff; regeneration renders from the linear-scan reference
//! path so fixture provenance stays with the seed implementation, and an
//! unreviewed golden update defeats the tests.

use rtsj_event_framework::model::{
    Instant, Priority, ServerPolicyKind, ServerSpec, Span, SystemSpec,
};
use rtsj_event_framework::observe::MetricsProbe;
use rtsj_event_framework::simulator::{simulate, simulate_reference};
use rtsj_event_framework::taskserver::{
    execute, execute_reference, execute_with_probe, ExecutionConfig,
};

mod common;
use common::diff::assert_same_rendering;

/// The three figure scenarios' traffic: (release, actual cost, declared cost).
fn scenario_events(scenario: u32) -> &'static [(u64, u64, Option<u64>)] {
    match scenario {
        1 => &[(0, 2, None), (6, 2, None)],
        2 => &[(2, 2, None), (4, 2, None)],
        3 => &[(2, 2, None), (4, 2, Some(1))],
        _ => unreachable!(),
    }
}

/// The Table 1 periodic pair under the given server policy, with the
/// scenario's traffic, over ten server periods (long enough for background
/// servicing to drain the queue).
fn system(scenario: u32, policy: ServerPolicyKind) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("golden-s{scenario}-{policy:?}"));
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
    for &(release, actual, declared) in scenario_events(scenario) {
        b.aperiodic_with(
            Instant::from_units(release),
            Span::from_units(declared.unwrap_or(actual)),
            Span::from_units(actual),
        );
    }
    b.horizon(Instant::from_units(60));
    b.build().expect("golden systems are valid")
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.txt"))
}

/// Every simulation loop's canonical rendering, the reference first.
fn sim_loops(spec: &SystemSpec) -> Vec<(&'static str, String)> {
    vec![
        (
            "simulate_reference",
            simulate_reference(spec).render_canonical(),
        ),
        ("simulate", simulate(spec).render_canonical()),
    ]
}

/// Every execution loop's canonical rendering under `config`, the
/// linear-scan reference first.
fn exec_loops(spec: &SystemSpec, config: ExecutionConfig) -> Vec<(&'static str, String)> {
    vec![
        (
            "execute_reference",
            execute_reference(spec, &config).render_canonical(),
        ),
        ("execute", execute(spec, &config).render_canonical()),
        (
            "execute_with_probe",
            execute_with_probe(spec, &config, &mut MetricsProbe::new()).render_canonical(),
        ),
    ]
}

/// Checks (or, with `UPDATE_GOLDENS=1`, regenerates) one golden against
/// every loop of its world.
///
/// The first loop is the retained linear-scan reference and is what
/// regeneration writes, so fixture provenance always stays with the seed
/// implementation; every other loop must match the same bytes. A mismatch
/// names the first differing line of the rendering.
fn check_golden(name: &str, loops: &[(&str, String)]) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &loops[0].1).unwrap();
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path:?} ({e}); run with UPDATE_GOLDENS=1"));
    for (label, rendered) in loops {
        assert_same_rendering(
            &expected,
            rendered,
            &format!(
                "{label} diverged from golden {name}; if the change is intentional, \
                 regenerate with UPDATE_GOLDENS=1 and review the diff"
            ),
        );
    }
}

#[test]
fn executions_match_goldens_for_every_scenario_and_policy() {
    for scenario in [1u32, 2, 3] {
        for policy in [
            ServerPolicyKind::Polling,
            ServerPolicyKind::Deferrable,
            ServerPolicyKind::Background,
            ServerPolicyKind::Sporadic,
        ] {
            let spec = system(scenario, policy);
            let name = format!("exec_s{scenario}_{policy:?}_fifo").to_lowercase();
            check_golden(&name, &exec_loops(&spec, ExecutionConfig::reference()));
        }
    }
}

#[test]
fn simulations_match_goldens_for_every_scenario_and_policy() {
    for scenario in [1u32, 2, 3] {
        for policy in [
            ServerPolicyKind::Polling,
            ServerPolicyKind::Deferrable,
            ServerPolicyKind::Background,
            ServerPolicyKind::Sporadic,
        ] {
            let spec = system(scenario, policy);
            let name = format!("sim_s{scenario}_{policy:?}").to_lowercase();
            check_golden(&name, &sim_loops(&spec));
        }
    }
}

/// A multi-server system with `n` servers (2 ≤ n ≤ 3): a deferrable server
/// on top, a sporadic server below it, optionally a polling server below
/// that, all above the Table 1 periodic pair, with bursty traffic routed
/// round-robin across the servers.
fn multi_server_system(n: usize) -> SystemSpec {
    assert!((2..=3).contains(&n));
    let mut b = SystemSpec::builder(format!("golden-multi{n}"));
    b.add_server(ServerSpec::deferrable(
        Span::from_units(3),
        Span::from_units(6),
        Priority::new(33),
    ));
    b.add_server(ServerSpec::sporadic(
        Span::from_units(2),
        Span::from_units(8),
        Priority::new(32),
    ));
    if n == 3 {
        b.add_server(ServerSpec::polling(
            Span::from_units(2),
            Span::from_units(6),
            Priority::new(31),
        ));
    }
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
    // Bursty releases (several per instant at 0 and 12) so the servers
    // contend; costs cycle 1/2 so skips and replenishments all trigger.
    let releases = [0u64, 0, 0, 4, 7, 12, 12, 13, 19, 25, 31, 40];
    for (i, &release) in releases.iter().enumerate() {
        b.aperiodic_for(
            i % n,
            Instant::from_units(release),
            Span::from_units(1 + (i as u64 % 2)),
        );
    }
    b.horizon(Instant::from_units(60));
    b.build().expect("multi-server golden systems are valid")
}

/// Multi-server goldens: 2- and 3-server systems, executed and simulated,
/// pinned event by event for both schedulers.
#[test]
fn multi_server_systems_match_goldens() {
    for n in [2usize, 3] {
        let spec = multi_server_system(n);
        check_golden(
            &format!("exec_multi{n}_fifo"),
            &exec_loops(&spec, ExecutionConfig::reference()),
        );
        check_golden(&format!("sim_multi{n}"), &sim_loops(&spec));
    }
}

/// The scenario systems re-stamped for EDF dispatching: same traffic, same
/// servers, but both engines rank ready entities by absolute deadline
/// (periodic jobs by release + period, servers by their
/// replenishment-derived deadlines, background servicing last).
fn edf_system(scenario: u32, policy: ServerPolicyKind) -> SystemSpec {
    let mut spec = system(scenario, policy);
    spec.name = format!("golden-edf-s{scenario}-{policy:?}");
    spec.scheduling = rtsj_event_framework::model::SchedulingPolicy::Edf;
    spec
}

/// EDF goldens for both engines: scenario 2 traffic (arrivals mid-period, a
/// skip, a replenishment wait) under every server policy, pinned event by
/// event for both schedulers. Regeneration renders the linear-scan
/// reference, like every other golden.
#[test]
fn edf_traces_match_goldens_for_every_policy() {
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Background,
        ServerPolicyKind::Sporadic,
    ] {
        let spec = edf_system(2, policy);
        check_golden(
            &format!("exec_edf_s2_{policy:?}").to_lowercase(),
            &exec_loops(&spec, ExecutionConfig::reference()),
        );
        check_golden(
            &format!("sim_edf_s2_{policy:?}").to_lowercase(),
            &sim_loops(&spec),
        );
    }
}

/// A deadline-carrying multi-server system under the deadline-ordered
/// queue discipline: the 2-server golden system with deadline-ordered lanes
/// and deterministic cost-proportional event deadlines, so urgent releases
/// jump their queues in a pinned order.
fn deadline_ordered_system() -> SystemSpec {
    let mut spec = multi_server_system(2);
    spec.name = "golden-edd-multi2".to_string();
    for server in &mut spec.servers {
        server.discipline = rtsj_event_framework::model::QueueDiscipline::DeadlineOrdered;
    }
    for (i, event) in spec.aperiodics.iter_mut().enumerate() {
        // Cycle loose/tight/medium deadlines; the 3-cycle is coprime with
        // the 2-server round-robin routing, so every lane sees mixed
        // urgencies and the service order visibly differs from arrival
        // order.
        let factor = [20, 2, 9][i % 3];
        event.relative_deadline = Some(event.declared_cost.saturating_mul(factor));
    }
    spec
}

/// Deadline-ordered service goldens, executed and simulated.
#[test]
fn deadline_ordered_service_matches_goldens() {
    let spec = deadline_ordered_system();
    check_golden(
        "exec_edd_multi2_fifo",
        &exec_loops(&spec, ExecutionConfig::reference()),
    );
    check_golden("sim_edd_multi2", &sim_loops(&spec));
}

/// A rejecting/aborting workload for the admission goldens: a sustained 4×
/// overload burst (one cost-2 event per unit, 30-unit deadlines, cycling
/// value tags) into a polling server under the given admission policy.
fn admission_system(
    policy: rt_model::AdmissionPolicy,
    scheduling: rtsj_event_framework::model::SchedulingPolicy,
) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("golden-adm-{}-{scheduling:?}", policy.label()));
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
    for t in 0..80u64 {
        b.aperiodic(Instant::from_units(t), Span::from_units(2));
        let event = b.last_aperiodic_mut().expect("event just added");
        event.relative_deadline = Some(Span::from_units(30));
        event.value = (t % 7 + 1) * event.declared_cost.ticks();
    }
    b.scheduling(scheduling);
    b.horizon(Instant::from_units(80));
    b.build().expect("admission golden systems are valid")
}

/// The multi-server admission fixture: the 2-server golden system with both
/// servers under the given admission policy and deadline/value-tagged
/// traffic dense enough to reject.
fn admission_multi_system(policy: rt_model::AdmissionPolicy) -> SystemSpec {
    let mut spec = multi_server_system(2);
    spec.name = format!("golden-adm-multi2-{}", policy.label());
    for server in &mut spec.servers {
        server.admission = policy;
    }
    // Densify: a second burst of short-deadline events on top of the base
    // traffic so both lanes overload and the policies have work to refuse.
    let mut b = SystemSpec::builder(spec.name.clone());
    for task in &spec.periodic_tasks {
        b.push_periodic(task.clone());
    }
    for server in &spec.servers {
        b.add_server(server.clone());
    }
    for event in &spec.aperiodics {
        b.push_aperiodic(
            event
                .clone()
                .with_relative_deadline(Span::from_units(12))
                .with_value((event.id.raw() as u64 % 5 + 1) * event.declared_cost.ticks()),
        );
    }
    for t in 0..30u64 {
        b.aperiodic_for(
            (t % 2) as usize,
            Instant::from_units(2 * t),
            Span::from_units(2),
        );
        let event = b.last_aperiodic_mut().expect("event just added");
        event.relative_deadline = Some(Span::from_units(10));
        event.value = (t % 3 + 1) * event.declared_cost.ticks();
    }
    b.horizon(Instant::from_units(60));
    b.build().expect("multi-server admission goldens are valid")
}

/// Admission goldens, single server: rejecting (predictive) and aborting
/// (value-density) runs under fixed priorities and EDF, executed and
/// simulated, pinned event by event for both schedulers.
#[test]
fn admission_traces_match_goldens() {
    use rt_model::AdmissionPolicy;
    use rtsj_event_framework::model::SchedulingPolicy;
    for policy in [
        AdmissionPolicy::DeadlinePredictive,
        AdmissionPolicy::ValueDensity,
    ] {
        for scheduling in [SchedulingPolicy::FixedPriority, SchedulingPolicy::Edf] {
            let spec = admission_system(policy, scheduling);
            let tag = format!(
                "{}_{}",
                policy.label(),
                if scheduling == SchedulingPolicy::Edf {
                    "edf"
                } else {
                    "fp"
                }
            );
            let config = ExecutionConfig::reference();
            check_golden(&format!("exec_adm_{tag}"), &exec_loops(&spec, config));
            // The workload must genuinely reject (or displace) work.
            assert!(
                execute(&spec, &config)
                    .outcomes
                    .iter()
                    .any(|o| !o.is_accepted()),
                "exec_adm_{tag}: nothing was rejected"
            );
            check_golden(&format!("sim_adm_{tag}"), &sim_loops(&spec));
        }
    }
}

/// Admission goldens, multi-server: both engines, both policies.
#[test]
fn multi_server_admission_traces_match_goldens() {
    use rt_model::AdmissionPolicy;
    for policy in [
        AdmissionPolicy::DeadlinePredictive,
        AdmissionPolicy::ValueDensity,
    ] {
        let spec = admission_multi_system(policy);
        let config = ExecutionConfig::reference();
        check_golden(
            &format!("exec_adm_multi2_{}", policy.label()),
            &exec_loops(&spec, config),
        );
        assert!(
            execute(&spec, &config)
                .outcomes
                .iter()
                .any(|o| !o.is_accepted()),
            "multi2 {policy:?}: nothing was rejected"
        );
        check_golden(
            &format!("sim_adm_multi2_{}", policy.label()),
            &sim_loops(&spec),
        );
    }
}

/// A fault-injected variant of the Table 1 system: richer traffic under
/// the given server policy with the variant's fault plan stamped on top.
///
/// * `overrun`  — two events demand more than they declared; enforcement
///   must cut both off at their declared budgets (`Aborted` fates).
/// * `arrival`  — one release jittered, one dropped, one overrun: the
///   normalization and enforcement paths compose.
/// * `shrink`   — the server capacity shrinks 3 → 2 at t=18, applied at
///   the first quiescent decision instant.
/// * `swap`     — the server degrades to background servicing at t=18
///   (capacity-limited lanes only; polling lanes cannot swap).
fn fault_system(variant: &str, policy: ServerPolicyKind) -> SystemSpec {
    use rtsj_event_framework::model::{ModeChange, ServerPolicyKind as Kind};
    let mut b = SystemSpec::builder(format!("golden-fault-{variant}-{policy:?}"));
    b.server(ServerSpec {
        policy,
        capacity: Span::from_units(3),
        period: Span::from_units(6),
        priority: Priority::new(30),
        discipline: rt_model::QueueDiscipline::FifoSkip,
        admission: Default::default(),
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
    let mut ids = Vec::new();
    for &(release, cost) in &[(0u64, 2u64), (4, 2), (7, 3), (13, 2), (20, 1), (26, 2)] {
        ids.push(b.aperiodic(Instant::from_units(release), Span::from_units(cost)));
    }
    *b.faults_mut() = match variant {
        "overrun" => std::mem::take(b.faults_mut())
            .overrun(ids[0], Span::from_units(2))
            .overrun(ids[2], Span::from_units(1)),
        "arrival" => std::mem::take(b.faults_mut())
            .jitter(ids[1], Span::from_units(3))
            .drop_arrival(ids[3])
            .overrun(ids[4], Span::from_units(1)),
        "shrink" => std::mem::take(b.faults_mut()).mode_change(
            ModeChange::at(Instant::from_units(18), 0).with_capacity(Span::from_units(2)),
        ),
        "swap" => std::mem::take(b.faults_mut())
            .mode_change(ModeChange::at(Instant::from_units(18), 0).with_policy(Kind::Background)),
        _ => unreachable!(),
    };
    b.horizon(Instant::from_units(60));
    b.build().expect("fault golden systems are valid")
}

/// The fault-golden matrix: overrun / arrival / shrink variants on polling
/// and deferrable lanes, the policy swap on the two lanes that may swap.
fn fault_matrix() -> Vec<(&'static str, ServerPolicyKind)> {
    vec![
        ("overrun", ServerPolicyKind::Polling),
        ("overrun", ServerPolicyKind::Deferrable),
        ("arrival", ServerPolicyKind::Polling),
        ("arrival", ServerPolicyKind::Deferrable),
        ("shrink", ServerPolicyKind::Polling),
        ("shrink", ServerPolicyKind::Deferrable),
        ("swap", ServerPolicyKind::Deferrable),
        ("swap", ServerPolicyKind::Sporadic),
    ]
}

/// Fault-injection simulation goldens.
#[test]
fn fault_simulations_match_goldens() {
    for (variant, policy) in fault_matrix() {
        let spec = fault_system(variant, policy);
        let name = format!("fault_sim_{variant}_{policy:?}").to_lowercase();
        check_golden(&name, &sim_loops(&spec));
    }
}

/// Fault-injection execution goldens.
#[test]
fn fault_executions_match_goldens() {
    for (variant, policy) in fault_matrix() {
        let spec = fault_system(variant, policy);
        let name = format!("fault_exec_{variant}_{policy:?}").to_lowercase();
        check_golden(&name, &exec_loops(&spec, ExecutionConfig::reference()));
    }
}

/// The helper every golden check reports through: a mismatch names the
/// first differing line, with context from each side, in at most 20 lines.
#[test]
fn divergence_reports_name_the_first_differing_line_with_context() {
    let expected = "a\nb\nc\nd\ne\n";
    let actual = "a\nb\nX\nd\ne\n";
    let report = common::diff::first_divergence(expected, actual, "demo");
    assert_eq!(
        report,
        "demo\nfirst difference at line 3\n\
         --- expected (5 lines)\n      2 | b\n>     3 | c\n      4 | d\n\
         --- actual (5 lines)\n      2 | b\n>     3 | X\n      4 | d\n"
    );
    assert!(report.lines().count() <= 20);
    let truncated = common::diff::first_divergence("a\nb\n", "a\n", "cut");
    assert!(truncated.contains(">     2 | <end>"), "{truncated}");
}
