//! Seeded cross-engine differential fuzzer.
//!
//! Generates random systems across the full configuration space — server
//! policies × queue disciplines × admission policies × scheduling policies,
//! single- and multi-lane, with randomly injected cost overruns, arrival
//! faults and mode changes — and pins the engine pairs that are locked
//! byte-identical to each other:
//!
//! * **simulation world** — the driver behind `simulate` and the
//!   linear-scan `simulate_reference` must render identical canonical
//!   traces;
//! * **execution world** — `execute` (the table-driven driver), the same
//!   driver behind `execute_with_probe` with a recording `MetricsProbe`
//!   attached, and the linear-scan `execute_reference` must render
//!   identical canonical traces per configuration.
//!
//! Every trace additionally passes the spec-aware invariant checker
//! (`tests/common/invariants.rs`). The two worlds are *not* compared to
//! each other: the execution substrate is non-resumable and carries
//! overheads by design.
//!
//! The case budget is `FUZZ_CASES` (default 200) and the base seed
//! `FUZZ_SEED` (default 1983); every case derives a deterministic per-case
//! seed, so any failure reproduces from the printed seed alone. On a
//! failure the offending spec is first shrunk — halving the event list,
//! then dropping fault records and periodic tasks — and the minimal
//! reproducer is printed with its seed and the divergence.

use rtsj_event_framework::model::SystemSpec;
use rtsj_event_framework::observe::MetricsProbe;
use rtsj_event_framework::simulator::{simulate, simulate_reference};
use rtsj_event_framework::taskserver::{
    execute, execute_reference, execute_with_probe, ExecutionConfig,
};

mod common;
use common::invariants::check_trace_invariants;

const DEFAULT_CASES: usize = 200;
const DEFAULT_SEED: u64 = 1983;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

use common::specgen::random_spec;

/// Runs one spec through both worlds; returns the first divergence or
/// invariant violation.
fn check_case(spec: &SystemSpec) -> Result<(), String> {
    let simulated = simulate(spec);
    if simulate_reference(spec).render_canonical() != simulated.render_canonical() {
        return Err("simulation world diverged: simulate vs simulate_reference".into());
    }
    check_trace_invariants(spec, &simulated)?;

    for config in [ExecutionConfig::reference(), ExecutionConfig::ideal()] {
        let executed = execute(spec, &config);
        let canonical = executed.render_canonical();
        let scanned = execute_reference(spec, &config);
        if scanned.render_canonical() != canonical {
            return Err("execution world diverged: execute vs execute_reference".into());
        }
        let observed = execute_with_probe(spec, &config, &mut MetricsProbe::new());
        if observed.render_canonical() != canonical {
            return Err("execution world diverged: execute vs execute_with_probe".into());
        }
        check_trace_invariants(spec, &executed)?;
    }
    Ok(())
}

/// Shrinks a failing spec by halving: repeatedly tries to drop half of the
/// aperiodic events (keeping the fault plan consistent), then single
/// events, then fault records and periodic tasks — keeping every removal
/// that still fails. Returns the minimal failing spec and its error.
fn shrink(spec: &SystemSpec) -> (SystemSpec, String) {
    let mut best = spec.clone();
    let mut error = check_case(&best).expect_err("shrink starts from a failing spec");
    let still_fails = |candidate: &SystemSpec| -> Option<String> {
        candidate.validate().ok()?;
        check_case(candidate).err()
    };
    let drop_events = |spec: &SystemSpec, start: usize, len: usize| -> SystemSpec {
        let mut candidate = spec.clone();
        let removed: Vec<_> = candidate
            .aperiodics
            .iter()
            .skip(start)
            .take(len)
            .map(|e| e.id)
            .collect();
        candidate.aperiodics.retain(|e| !removed.contains(&e.id));
        candidate
            .faults
            .overruns
            .retain(|o| !removed.contains(&o.event));
        candidate
            .faults
            .arrival_faults
            .retain(|f| !removed.contains(&f.event()));
        candidate
    };

    let mut chunk = (best.aperiodics.len() / 2).max(1);
    while chunk >= 1 {
        let mut start = 0;
        while start < best.aperiodics.len() {
            let candidate = drop_events(&best, start, chunk);
            if let Some(e) = still_fails(&candidate) {
                best = candidate;
                error = e;
            } else {
                start += chunk;
            }
        }
        chunk /= 2;
    }
    loop {
        let mut candidates: Vec<SystemSpec> = Vec::new();
        for index in 0..best.faults.mode_changes.len() {
            let mut c = best.clone();
            c.faults.mode_changes.remove(index);
            candidates.push(c);
        }
        for index in 0..best.faults.overruns.len() {
            let mut c = best.clone();
            c.faults.overruns.remove(index);
            candidates.push(c);
        }
        for index in 0..best.faults.arrival_faults.len() {
            let mut c = best.clone();
            c.faults.arrival_faults.remove(index);
            candidates.push(c);
        }
        for index in 0..best.periodic_tasks.len() {
            let mut c = best.clone();
            c.periodic_tasks.remove(index);
            candidates.push(c);
        }
        let Some((candidate, e)) = candidates
            .into_iter()
            .find_map(|c| still_fails(&c).map(|e| (c, e)))
        else {
            break;
        };
        best = candidate;
        error = e;
    }
    (best, error)
}

#[test]
fn seeded_cross_engine_fuzz() {
    let cases = env_u64("FUZZ_CASES", DEFAULT_CASES as u64) as usize;
    let base = env_u64("FUZZ_SEED", DEFAULT_SEED);
    for case in 0..cases {
        let seed = base
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(case as u64);
        let spec = random_spec(seed);
        if let Err(first) = check_case(&spec) {
            let (minimal, error) = shrink(&spec);
            panic!(
                "fuzz case {case} (seed {seed}, FUZZ_SEED={base}) failed: {first}\n\
                 minimized to ({}): {error}\n{minimal:#?}",
                minimal.name
            );
        }
    }
}

#[test]
fn fuzz_cases_are_deterministic_per_seed() {
    let spec_a = random_spec(42);
    let spec_b = random_spec(42);
    assert_eq!(spec_a, spec_b);
    assert_eq!(
        simulate(&spec_a).render_canonical(),
        simulate(&spec_b).render_canonical()
    );
}
