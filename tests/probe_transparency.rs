//! Probe-transparency differential suite.
//!
//! The `rt-observe` layer promises that attaching a probe never changes what
//! an engine computes: every hook site is gated on `Probe::ENABLED`, reads
//! engine state without mutating it, and reports through `&mut` side
//! channels only. This suite pins that promise:
//!
//! * **transparency** — canonical traces are byte-identical with and
//!   without a recording [`MetricsProbe`] across the scheduling × admission
//!   × server-policy matrix, in both worlds (the simulation driver and the
//!   execution driver; the reference oracles carry no probe);
//! * **counter pinning** — the execution driver's recording instantiation
//!   reports exactly the counters the event-calendar engine it replaced
//!   reported over the same matrix;
//! * **counter/fate agreement** — the simulator's admission counters agree
//!   with the fates its trace records: one rejection report per `Rejected`
//!   fate, one displacement or budget-exhaustion report per `Aborted` fate,
//!   and one verdict per arrival routed to a lane;
//! * **fuzz extension** — the same seeded generator the cross-engine fuzzer
//!   uses (`tests/common/specgen.rs`) drives randomized transparency and
//!   counter checks, so the matrix keeps covering whatever the fuzz grammar
//!   can produce.
//!
//! The execution world is transparency-checked but *not* metrics-compared to
//! the simulation world: its substrate (non-resumable handlers, overhead
//! phases, event fires) is structurally different, so its counter stream
//! is its own reference.

use rtsj_event_framework::model::{
    AdmissionPolicy, AperiodicFate, Instant, Priority, SchedulingPolicy, ServerPolicyKind,
    ServerSpec, Span, SystemSpec,
};
use rtsj_event_framework::observe::{
    chrome_trace_json, Counters, MetricsProbe, SpanProbe, UnitNames,
};
use rtsj_event_framework::simulator::{simulate, simulate_with_probe};
use rtsj_event_framework::taskserver::{execute, execute_with_probe, ExecutionConfig};

mod common;
use common::specgen::random_spec;

/// One Table-1-shaped spec per matrix point.
fn matrix_spec(
    policy: ServerPolicyKind,
    admission: AdmissionPolicy,
    scheduling: SchedulingPolicy,
) -> SystemSpec {
    let mut b = SystemSpec::builder(format!(
        "probe-matrix-{policy:?}-{admission:?}-{scheduling:?}"
    ));
    if policy == ServerPolicyKind::Background {
        b.server(ServerSpec::background(Priority::new(30)));
    } else {
        b.server(ServerSpec {
            policy,
            capacity: Span::from_units(3),
            period: Span::from_units(6),
            priority: Priority::new(30),
            discipline: rtsj_event_framework::model::QueueDiscipline::FifoSkip,
            admission,
        });
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
    // Enough traffic to exercise accepts, skips, rejections and backlog.
    for (release, cost) in [(0, 2), (1, 3), (6, 2), (7, 1), (13, 3), (14, 2), (40, 3)] {
        let id = b.aperiodic(Instant::from_units(release), Span::from_units(cost));
        let event = b.last_aperiodic_mut().expect("event just added");
        event.relative_deadline = Some(Span::from_units(8));
        event.value = 1 + (id.index() as u64 % 4);
    }
    b.scheduling(scheduling);
    // Ten 6-unit server periods; the Background points (sentinel period)
    // fall through to the builder default, which lands on the same 60 units.
    b.horizon_server_periods(10);
    b.build().expect("matrix specs are valid by construction")
}

fn matrix() -> Vec<SystemSpec> {
    let mut specs = Vec::new();
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Sporadic,
        ServerPolicyKind::Background,
    ] {
        for admission in [
            AdmissionPolicy::AcceptAll,
            AdmissionPolicy::DeadlinePredictive,
            AdmissionPolicy::ValueDensity,
        ] {
            for scheduling in [SchedulingPolicy::FixedPriority, SchedulingPolicy::Edf] {
                specs.push(matrix_spec(policy, admission, scheduling));
            }
        }
    }
    specs
}

/// Asserts both worlds produce byte-identical canonical traces with and
/// without a recording probe attached.
fn assert_probe_transparent(spec: &SystemSpec) {
    let mut probe = MetricsProbe::new();
    assert_eq!(
        simulate(spec).render_canonical(),
        simulate_with_probe(spec, &mut probe).render_canonical(),
        "{}: simulator changed under observation",
        spec.name
    );

    for config in [ExecutionConfig::reference(), ExecutionConfig::ideal()] {
        let mut probe = MetricsProbe::new();
        assert_eq!(
            execute(spec, &config).render_canonical(),
            execute_with_probe(spec, &config, &mut probe).render_canonical(),
            "{}: execution driver changed under observation",
            spec.name
        );
    }
}

/// Asserts the simulator's admission counters agree with the fates of the
/// trace it produced for `spec`; returns the counters.
fn assert_sim_counters_match_fates(spec: &SystemSpec) -> Counters {
    let mut probe = MetricsProbe::new();
    let trace = simulate_with_probe(spec, &mut probe);
    let fates = |is: fn(&AperiodicFate) -> bool| {
        trace.outcomes.iter().filter(|o| is(&o.fate)).count() as u64
    };
    let rejected = fates(|f| matches!(f, AperiodicFate::Rejected { .. }));
    let aborted = fates(|f| matches!(f, AperiodicFate::Aborted { .. }));
    // Arrivals routed to an existing lane within the horizon, after the
    // arrival faults reshaped the stream: each gets exactly one verdict.
    let faulted = spec.apply_arrival_faults();
    let routed = faulted
        .as_ref()
        .unwrap_or(spec)
        .workload()
        .within_horizon()
        .iter()
        .filter(|e| e.server < spec.servers.len())
        .count() as u64;
    let counters = probe.counters;
    assert_eq!(
        counters.admission_rejected, rejected,
        "{}: rejection reports vs Rejected fates",
        spec.name
    );
    assert_eq!(
        counters.admission_aborted + counters.cap_exhaustions,
        aborted,
        "{}: displacement and budget-exhaustion reports vs Aborted fates",
        spec.name
    );
    assert_eq!(
        counters.admission_accepted + counters.admission_rejected,
        routed,
        "{}: one admission verdict per routed arrival",
        spec.name
    );
    counters
}

#[test]
fn recording_probes_are_transparent_across_the_matrix() {
    for spec in matrix() {
        assert_probe_transparent(&spec);
    }
}

/// The execution driver's recording instantiation reports the hook stream
/// of the event-calendar `rtsj-emu` engine that served observed runs before
/// it: per scheduling policy, the counters and slice count merged over the
/// matrix under both overhead models equal the values that engine recorded.
/// The driver's trace-invisible shortcuts (pre-pumped releases, the fused
/// pump → slice dispatch, spurious wheel stops) are exactly what these
/// numbers would expose.
#[test]
fn execution_counters_match_the_indexed_engine() {
    let recorded = |decisions, dispatches, preemptions| Counters {
        decisions,
        dispatches,
        preemptions,
        releases: 540,
        fires: 468,
        admission_accepted: 162,
        admission_rejected: 6,
        admission_aborted: 6,
        cap_exhaustions: 21,
        mode_changes: 0,
    };
    for (scheduling, counters, slices) in [
        (
            SchedulingPolicy::FixedPriority,
            recorded(2724, 932, 38),
            1236,
        ),
        (SchedulingPolicy::Edf, recorded(2734, 934, 30), 1246),
    ] {
        let mut probe = MetricsProbe::new();
        for spec in matrix().iter().filter(|s| s.scheduling == scheduling) {
            for config in [ExecutionConfig::reference(), ExecutionConfig::ideal()] {
                execute_with_probe(spec, &config, &mut probe);
            }
        }
        assert_eq!(probe.counters, counters, "{scheduling:?}");
        assert_eq!(probe.slice_len.count(), slices, "{scheduling:?}");
    }
}

#[test]
fn simulator_admission_counters_match_trace_fates() {
    let mut seen = Counters::default();
    for spec in matrix() {
        seen.merge(&assert_sim_counters_match_fates(&spec));
    }
    // Not vacuous: the matrix both refuses and displaces work.
    assert!(seen.admission_rejected > 0, "no rejection in the matrix");
    assert!(seen.admission_aborted > 0, "no displacement in the matrix");
}

#[test]
fn observed_runs_count_real_work() {
    // Spot-check the hook stream is live, not vacuously equal: the Table 1
    // polling system makes decisions, dispatches and accepts events.
    let spec = matrix_spec(
        ServerPolicyKind::Polling,
        AdmissionPolicy::AcceptAll,
        SchedulingPolicy::FixedPriority,
    );
    let mut probe = MetricsProbe::new();
    let trace = simulate_with_probe(&spec, &mut probe);
    probe.absorb_trace(&trace);
    assert!(probe.counters.decisions > 0);
    assert!(probe.counters.dispatches > 0);
    assert!(probe.counters.releases > 0);
    assert!(probe.counters.admission_accepted > 0);
    assert!(probe.response.count() > 0);
    assert!(probe.queue_depth.count() > 0);
}

#[test]
fn span_probes_are_transparent_and_export_chrome_trace_json() {
    let spec = matrix_spec(
        ServerPolicyKind::Deferrable,
        AdmissionPolicy::DeadlinePredictive,
        SchedulingPolicy::FixedPriority,
    );
    let mut spans = SpanProbe::new();
    let observed = simulate_with_probe(&spec, &mut spans);
    assert_eq!(
        simulate(&spec).render_canonical(),
        observed.render_canonical(),
        "span recording changed the simulated trace"
    );
    let json = chrome_trace_json(&spans, &UnitNames::from_spec(&spec));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\":\"X\""), "no duration spans recorded");
}

#[test]
fn seeded_fuzz_probe_transparency() {
    // Same derivation as the cross-engine fuzzer, offset into its own seed
    // stream so the two suites cover different cases.
    let cases = std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60u64);
    let base = std::env::var("FUZZ_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x0B0B_5EED_u64);
    for case in 0..cases {
        let seed = base.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(case);
        let spec = random_spec(seed);
        assert_probe_transparent(&spec);
        assert_sim_counters_match_fates(&spec);
    }
}
