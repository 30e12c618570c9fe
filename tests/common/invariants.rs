//! Spec-aware trace invariants, checked on every trace the differential
//! tests and the fuzzer produce — regardless of which engine produced it.
//!
//! On top of the structural checks every trace already carries
//! ([`Trace::check_invariants`]: ordered non-overlapping segments, nothing
//! beyond the horizon, fate instants consistent), these tie the trace back
//! to the spec that produced it:
//!
//! 1. **No service before release** — a handler segment for an event never
//!    starts before the event's (fault-normalized) release instant.
//! 2. **Fates only from their mechanisms** — `Rejected` only under an
//!    admission policy that rejects, `Aborted` only from its two sources:
//!    declared-cost enforcement cutting off an injected overrun (per
//!    event, on any lane — background lanes enforce the declared budget
//!    too), or the D-OVER value-density drop rule shedding admitted work
//!    under overload.
//! 3. **Capacity conservation** — per lane and per period-aligned
//!    replenishment window, handler service never exceeds the lane budget:
//!    ≤ C for polling and deferrable lanes (both replenish at window
//!    boundaries only), ≤ 2C for sporadic lanes (replenishments land
//!    mid-window, so one aligned window can see the tail of one budget and
//!    the head of the next). Background lanes have no budget and
//!    mode-changed lanes no fixed one; both are skipped.
//!
//! A violation is reported with the spec name, so matrix tests point at
//! the offending configuration directly.

use rtsj_event_framework::model::{
    AdmissionPolicy, AperiodicEvent, AperiodicFate, ExecUnit, Instant, ServerPolicyKind, Span,
    SystemSpec, Trace,
};
use std::collections::HashMap;

/// Every admission policy `event`'s lane runs under: the installed one and
/// each a mode change installs (none when the event is an orphan).
fn admissions<'a>(
    spec: &'a SystemSpec,
    event: &AperiodicEvent,
) -> impl Iterator<Item = AdmissionPolicy> + 'a {
    let installed = spec.server_of(event).map(|s| s.admission);
    let changed = spec
        .faults
        .mode_changes_for(event.server)
        .filter_map(|change| change.admission);
    installed.into_iter().chain(changed)
}

/// Checks every spec-aware invariant of `trace` against `spec` (the
/// original, possibly fault-carrying spec handed to the engine). Returns
/// the first violation as a message.
pub fn check_trace_invariants(spec: &SystemSpec, trace: &Trace) -> Result<(), String> {
    trace
        .check_invariants()
        .map_err(|e| format!("{}: {e}", spec.name))?;
    // Engines normalize arrival faults (jitter/drops) before running, so
    // releases and routing are read from the normalized twin.
    let normalized = spec.apply_arrival_faults();
    let spec_view = normalized.as_ref().unwrap_or(spec);
    let events: HashMap<_, _> = spec_view.aperiodics.iter().map(|e| (e.id, e)).collect();

    for outcome in &trace.outcomes {
        let Some(event) = events.get(&outcome.event) else {
            return Err(format!(
                "{}: outcome for unknown event {}",
                spec.name, outcome.event
            ));
        };
        match outcome.fate {
            AperiodicFate::Rejected { .. } => {
                let admits_all = admissions(spec_view, event)
                    .all(|admission| admission == AdmissionPolicy::AcceptAll);
                if admits_all {
                    return Err(format!(
                        "{}: {} rejected without a rejecting admission policy",
                        spec.name, outcome.event
                    ));
                }
            }
            AperiodicFate::Aborted { .. } => {
                let dover_drop = admissions(spec_view, event)
                    .any(|admission| admission == AdmissionPolicy::ValueDensity);
                let enforcement = !spec_view.faults.overrun_extra(outcome.event).is_zero();
                if !dover_drop && !enforcement {
                    return Err(format!(
                        "{}: {} aborted without an injected overrun or a \
                         value-density drop rule",
                        spec.name, outcome.event
                    ));
                }
            }
            _ => {}
        }
    }

    for segment in &trace.segments {
        let ExecUnit::Handler(id) = segment.unit else {
            continue;
        };
        let Some(event) = events.get(&id) else {
            return Err(format!("{}: service for unknown event {id}", spec.name));
        };
        if segment.start < event.release {
            return Err(format!(
                "{}: {id} served at {} before its release {}",
                spec.name, segment.start, event.release
            ));
        }
    }

    for (lane, server) in spec_view.servers.iter().enumerate() {
        if !server.policy.is_capacity_limited() || server.period.is_zero() {
            continue;
        }
        if spec_view.faults.mode_changes_for(lane).next().is_some() {
            continue;
        }
        let bound = match server.policy {
            ServerPolicyKind::Sporadic => server.capacity.saturating_mul(2),
            _ => server.capacity,
        };
        let period = server.period.ticks();
        let mut windows: HashMap<u64, Span> = HashMap::new();
        for segment in &trace.segments {
            let ExecUnit::Handler(id) = segment.unit else {
                continue;
            };
            if events.get(&id).map(|e| e.server) != Some(lane) {
                continue;
            }
            // Split the segment across window boundaries.
            let mut start = segment.start.ticks();
            while start < segment.end.ticks() {
                let window = start / period;
                let boundary = (window + 1) * period;
                let end = segment.end.ticks().min(boundary);
                let slice = windows.entry(window).or_insert(Span::ZERO);
                *slice += Span::from_ticks(end - start);
                start = end;
            }
        }
        for (window, served) in windows {
            if served > bound {
                return Err(format!(
                    "{}: lane {lane} ({}) served {} in window {} at {}, budget {}",
                    spec.name,
                    server.policy.label(),
                    served,
                    window,
                    Instant::from_ticks(window * period),
                    bound
                ));
            }
        }
    }
    Ok(())
}

/// Panics with the violation message on the first broken invariant.
#[allow(dead_code)] // each test binary uses the panicking or Result shape
#[track_caller]
pub fn assert_trace_invariants(spec: &SystemSpec, trace: &Trace) {
    if let Err(message) = check_trace_invariants(spec, trace) {
        panic!("trace invariant violated — {message}");
    }
}
