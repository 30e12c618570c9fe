//! # rt-observe — the zero-cost probe layer
//!
//! Observability for the engines (`rtss-sim`'s simulation driver and
//! `rt-taskserver`'s execution driver) that is **zero code when disabled**
//! and
//! **allocation-free when enabled**:
//!
//! * every engine decision loop is generic over a [`Probe`] parameter whose
//!   default instantiation is [`NoopProbe`]; each hook body is gated on the
//!   associated `const ENABLED`, so the `NoopProbe` monomorphization
//!   compiles to probe-free machine code — the golden traces,
//!   the zero-alloc markers and the per-decision cost are untouched;
//! * the enabled side ([`MetricsProbe`]) records monotonic [`Counters`] and
//!   preallocated fixed-bucket virtual-time histograms
//!   ([`rt_metrics::TickHistogram`] — the same nearest-rank quantile
//!   implementation the table aggregates use), both of which merge by plain
//!   `u64` addition: per-worker probes fold **bit-identically for any worker
//!   count and any work interleaving**, the `harness_determinism.rs`
//!   guarantee extended to metrics;
//! * [`SpanProbe`] records span-structured decision traces
//!   (release → dispatch → slice → completion, keyed by execution unit)
//!   and [`span::chrome_trace_json`] renders them as Chrome trace-event /
//!   Perfetto JSON for flamegraph UIs, labelling a task by its spec name
//!   and a handler by its event id ([`UnitNames`]).
//!
//! Everything here is virtual time: the crate reads no machine clock, so
//! rt-lint's determinism pass holds for it like for the engines. Wall-clock
//! attribution of a run's time is measured from outside the engines, by
//! the pipeline benchmark's spans (`perfbench`).
//!
//! Probes observe; they never decide. A probe cannot return values into an
//! engine, so a recording run's canonical trace is byte-identical to the
//! unobserved run by construction — pinned across the full matrix by
//! `tests/probe_transparency.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod span;

pub use span::{chrome_trace_json, SpanProbe, UnitNames};

use rt_metrics::TickHistogram;
use rt_model::{AperiodicFate, ExecUnit, Instant, Trace};

/// Why an arrival left the admission layer the way it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// The arrival entered a pending queue.
    Accepted,
    /// The arrival was refused at its release instant.
    Rejected,
    /// An admitted event was later dropped by an overload decision.
    Aborted,
}

/// The engine-side observation interface.
///
/// Engines call these hooks from their decision loops; every call site is
/// gated on [`Probe::ENABLED`], so a disabled probe costs literally nothing
/// (the branch is a compile-time constant and the empty inline bodies fold
/// away). Implementations must not allocate in any hook except
/// [`Probe::attach`], which runs at setup — that boundary is what lets
/// probe-enabled decision loops keep the zero-allocations-per-decision
/// invariant. Both worlds report every hook live, where the engine decides
/// it.
pub trait Probe {
    /// Compile-time switch every engine call site is gated on. `true` for
    /// every recording probe; `false` only for [`NoopProbe`].
    const ENABLED: bool = true;

    /// Called once before the run starts, with the number of server lanes.
    /// The one hook that may allocate (sizing per-lane storage).
    fn attach(&mut self, lanes: usize) {
        let _ = lanes;
    }

    /// A scheduler decision point was evaluated at `now`.
    fn decision(&mut self, now: Instant) {
        let _ = now;
    }

    /// The decision dispatched `unit` at `now`.
    fn dispatch(&mut self, unit: ExecUnit, now: Instant) {
        let _ = (unit, now);
    }

    /// `unit` occupied the processor over `[start, end)`.
    fn slice(&mut self, unit: ExecUnit, start: Instant, end: Instant) {
        let _ = (unit, start, end);
    }

    /// A dispatch switched away from `unit` before it completed.
    fn preemption(&mut self, unit: ExecUnit, now: Instant) {
        let _ = (unit, now);
    }

    /// A periodic job or aperiodic arrival was released at `now`.
    fn release(&mut self, now: Instant) {
        let _ = now;
    }

    /// An asynchronous event fired at `now` — a timer (armed before the run
    /// or by a body) or a fire-hook cascade (execution world only; the
    /// simulation driver has no events and never calls it).
    fn fire(&mut self, now: Instant) {
        let _ = now;
    }

    /// The admission layer of `lane` decided `verdict` at `now`.
    fn admission(&mut self, lane: usize, verdict: AdmissionVerdict, now: Instant) {
        let _ = (lane, verdict, now);
    }

    /// A dispatch on `lane` was cut short by capacity exhaustion at `now`.
    fn cap_exhausted(&mut self, lane: usize, now: Instant) {
        let _ = (lane, now);
    }

    /// A quiescent mode change was applied to `lane` at `now`.
    fn mode_change(&mut self, lane: usize, now: Instant) {
        let _ = (lane, now);
    }

    /// Pending-queue depth of `lane` observed after an arrival was routed.
    fn queue_depth(&mut self, lane: usize, depth: u64) {
        let _ = (lane, depth);
    }
}

/// The default probe: observability compiled out. Every probe-capable engine
/// entry point that does not take an explicit probe instantiates its
/// decision loop with this type, and `ENABLED = false` turns every hook call site into dead
/// code the optimizer removes — disabled observability is zero code, not
/// merely cheap code.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ENABLED: bool = false;
}

/// Probes pass through mutable references, so callers keep ownership of the
/// recording probe across a run: `simulate_with_probe(&spec, &mut probe)`.
impl<P: Probe + ?Sized> Probe for &mut P {
    const ENABLED: bool = true;

    fn attach(&mut self, lanes: usize) {
        (**self).attach(lanes);
    }
    fn decision(&mut self, now: Instant) {
        (**self).decision(now);
    }
    fn dispatch(&mut self, unit: ExecUnit, now: Instant) {
        (**self).dispatch(unit, now);
    }
    fn slice(&mut self, unit: ExecUnit, start: Instant, end: Instant) {
        (**self).slice(unit, start, end);
    }
    fn preemption(&mut self, unit: ExecUnit, now: Instant) {
        (**self).preemption(unit, now);
    }
    fn release(&mut self, now: Instant) {
        (**self).release(now);
    }
    fn fire(&mut self, now: Instant) {
        (**self).fire(now);
    }
    fn admission(&mut self, lane: usize, verdict: AdmissionVerdict, now: Instant) {
        (**self).admission(lane, verdict, now);
    }
    fn cap_exhausted(&mut self, lane: usize, now: Instant) {
        (**self).cap_exhausted(lane, now);
    }
    fn mode_change(&mut self, lane: usize, now: Instant) {
        (**self).mode_change(lane, now);
    }
    fn queue_depth(&mut self, lane: usize, depth: u64) {
        (**self).queue_depth(lane, depth);
    }
}

/// Monotonic event counters of one observed run (or of many merged runs).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Scheduler decision points evaluated.
    pub decisions: u64,
    /// Dispatches performed.
    pub dispatches: u64,
    /// Dispatches that switched away from an uncompleted runner.
    pub preemptions: u64,
    /// Periodic releases and aperiodic arrivals processed.
    pub releases: u64,
    /// Asynchronous event fires (execution world).
    pub fires: u64,
    /// Arrivals admitted into a pending queue.
    pub admission_accepted: u64,
    /// Arrivals refused at release.
    pub admission_rejected: u64,
    /// Admitted events later dropped by an overload decision.
    pub admission_aborted: u64,
    /// Dispatches cut short by capacity exhaustion.
    pub cap_exhaustions: u64,
    /// Quiescent mode changes applied.
    pub mode_changes: u64,
}

impl Counters {
    /// Element-wise accumulation — commutative and associative, so any
    /// merge order over per-worker counters yields identical values.
    pub fn merge(&mut self, other: &Counters) {
        self.decisions += other.decisions;
        self.dispatches += other.dispatches;
        self.preemptions += other.preemptions;
        self.releases += other.releases;
        self.fires += other.fires;
        self.admission_accepted += other.admission_accepted;
        self.admission_rejected += other.admission_rejected;
        self.admission_aborted += other.admission_aborted;
        self.cap_exhaustions += other.cap_exhaustions;
        self.mode_changes += other.mode_changes;
    }
}

/// Maximum number of per-lane backlog histograms kept inline. Systems with
/// more lanes fold the excess lanes into the last histogram (the paper's
/// systems have at most three servers; the cap exists so recording can stay
/// allocation-free without `attach` being mandatory).
const MAX_LANE_HISTOGRAMS: usize = 8;

/// The metrics-recording probe: counters plus preallocated virtual-time
/// histograms, in `rt-metrics` form.
///
/// Recording is allocation-free (inline arrays only); merging is element-
/// wise `u64` addition. The response-time and lateness histograms are
/// filled from the finished trace by [`MetricsProbe::absorb_trace`] — the
/// trace is the engine-independent record of every fate, so those two
/// histograms agree across engines byte for byte whenever the traces do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsProbe {
    /// Monotonic event counters.
    pub counters: Counters,
    /// Pending-queue depth observed after each arrival routing.
    pub queue_depth: TickHistogram,
    /// Processor-slice lengths, in ticks.
    pub slice_len: TickHistogram,
    /// Per-lane backlog histograms; lanes past the last one fold into it.
    pub lane_backlog: [TickHistogram; MAX_LANE_HISTOGRAMS],
    /// Number of lanes the probe was attached to.
    pub lanes: usize,
    /// Response times of served events, in ticks (from the trace).
    pub response: TickHistogram,
    /// Lateness of served deadline-carrying events, in ticks, 0 when on
    /// time (from the trace).
    pub lateness: TickHistogram,
}

impl Default for MetricsProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsProbe {
    /// An empty probe. All storage is inline — construction never reaches
    /// the heap, and neither does any hook.
    pub const fn new() -> Self {
        MetricsProbe {
            counters: Counters {
                decisions: 0,
                dispatches: 0,
                preemptions: 0,
                releases: 0,
                fires: 0,
                admission_accepted: 0,
                admission_rejected: 0,
                admission_aborted: 0,
                cap_exhaustions: 0,
                mode_changes: 0,
            },
            queue_depth: TickHistogram::new(),
            slice_len: TickHistogram::new(),
            lane_backlog: [TickHistogram::new(); MAX_LANE_HISTOGRAMS],
            lanes: 0,
            response: TickHistogram::new(),
            lateness: TickHistogram::new(),
        }
    }

    /// Folds the fate-derived histograms and admission totals of a finished
    /// trace into the probe: response times and lateness of served events.
    /// Call once per observed run, after the engine returns.
    pub fn absorb_trace(&mut self, trace: &Trace) {
        for outcome in &trace.outcomes {
            if let AperiodicFate::Served { completed, .. } = outcome.fate {
                self.response
                    .record(completed.since(outcome.release).ticks());
                if let Some(deadline) = outcome.deadline {
                    let late = if completed > deadline {
                        completed.since(deadline).ticks()
                    } else {
                        0
                    };
                    self.lateness.record(late);
                }
            }
        }
    }

    /// Absorbs another probe. All fields merge by element-wise addition,
    /// so the fold is bit-identical for any split of the runs across
    /// workers and any merge order — the property `repro observe` relies
    /// on to print identical summaries at every `--workers` count.
    pub fn merge(&mut self, other: &MetricsProbe) {
        self.counters.merge(&other.counters);
        self.queue_depth.merge(&other.queue_depth);
        self.slice_len.merge(&other.slice_len);
        for (a, b) in self.lane_backlog.iter_mut().zip(other.lane_backlog.iter()) {
            a.merge(b);
        }
        if other.lanes > self.lanes {
            self.lanes = other.lanes;
        }
        self.response.merge(&other.response);
        self.lateness.merge(&other.lateness);
    }

    #[inline]
    fn lane_slot(lane: usize) -> usize {
        lane.min(MAX_LANE_HISTOGRAMS - 1)
    }
}

impl Probe for MetricsProbe {
    const ENABLED: bool = true;

    fn attach(&mut self, lanes: usize) {
        if lanes > self.lanes {
            self.lanes = lanes;
        }
    }

    // rt-lint: zero-alloc
    #[inline]
    fn decision(&mut self, _now: Instant) {
        self.counters.decisions += 1;
    }

    // rt-lint: zero-alloc
    #[inline]
    fn dispatch(&mut self, _unit: ExecUnit, _now: Instant) {
        self.counters.dispatches += 1;
    }

    // rt-lint: zero-alloc
    #[inline]
    fn slice(&mut self, _unit: ExecUnit, start: Instant, end: Instant) {
        self.slice_len.record(end.since(start).ticks());
    }

    // rt-lint: zero-alloc
    #[inline]
    fn preemption(&mut self, _unit: ExecUnit, _now: Instant) {
        self.counters.preemptions += 1;
    }

    // rt-lint: zero-alloc
    #[inline]
    fn release(&mut self, _now: Instant) {
        self.counters.releases += 1;
    }

    // rt-lint: zero-alloc
    #[inline]
    fn fire(&mut self, _now: Instant) {
        self.counters.fires += 1;
    }

    // rt-lint: zero-alloc
    #[inline]
    fn admission(&mut self, _lane: usize, verdict: AdmissionVerdict, _now: Instant) {
        match verdict {
            AdmissionVerdict::Accepted => self.counters.admission_accepted += 1,
            AdmissionVerdict::Rejected => self.counters.admission_rejected += 1,
            AdmissionVerdict::Aborted => self.counters.admission_aborted += 1,
        }
    }

    // rt-lint: zero-alloc
    #[inline]
    fn cap_exhausted(&mut self, _lane: usize, _now: Instant) {
        self.counters.cap_exhaustions += 1;
    }

    // rt-lint: zero-alloc
    #[inline]
    fn mode_change(&mut self, _lane: usize, _now: Instant) {
        self.counters.mode_changes += 1;
    }

    // rt-lint: zero-alloc
    #[inline]
    fn queue_depth(&mut self, lane: usize, depth: u64) {
        self.queue_depth.record(depth);
        self.lane_backlog[Self::lane_slot(lane)].record(depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_model::{AperiodicOutcome, EventId, Span, TaskId};

    #[test]
    fn noop_probe_is_disabled_and_references_are_enabled() {
        const { assert!(!NoopProbe::ENABLED) };
        const { assert!(MetricsProbe::ENABLED) };
        const { assert!(<&mut MetricsProbe as Probe>::ENABLED) };
    }

    #[test]
    fn hooks_accumulate_into_counters_and_histograms() {
        let mut p = MetricsProbe::new();
        p.attach(2);
        let t0 = Instant::from_units(0);
        let t1 = Instant::from_units(1);
        p.decision(t0);
        p.dispatch(ExecUnit::Task(TaskId::new(0)), t0);
        p.slice(ExecUnit::Task(TaskId::new(0)), t0, t1);
        p.preemption(ExecUnit::Task(TaskId::new(0)), t1);
        p.release(t0);
        p.fire(t0);
        p.admission(0, AdmissionVerdict::Accepted, t0);
        p.admission(1, AdmissionVerdict::Rejected, t0);
        p.admission(0, AdmissionVerdict::Aborted, t1);
        p.cap_exhausted(0, t1);
        p.mode_change(1, t1);
        p.queue_depth(0, 3);
        p.queue_depth(99, 5); // folded into the last inline lane slot
        assert_eq!(p.counters.decisions, 1);
        assert_eq!(p.counters.dispatches, 1);
        assert_eq!(p.counters.preemptions, 1);
        assert_eq!(p.counters.releases, 1);
        assert_eq!(p.counters.fires, 1);
        assert_eq!(p.counters.admission_accepted, 1);
        assert_eq!(p.counters.admission_rejected, 1);
        assert_eq!(p.counters.admission_aborted, 1);
        assert_eq!(p.counters.cap_exhaustions, 1);
        assert_eq!(p.counters.mode_changes, 1);
        assert_eq!(p.queue_depth.count(), 2);
        assert_eq!(p.lane_backlog[0].count(), 1);
        assert_eq!(p.lane_backlog[MAX_LANE_HISTOGRAMS - 1].count(), 1);
        assert_eq!(p.slice_len.count(), 1);
    }

    #[test]
    fn absorb_trace_fills_response_and_lateness() {
        let mut trace = Trace::new(Instant::from_units(20));
        trace.push_outcome(
            AperiodicOutcome::new(
                EventId::new(0),
                Instant::from_units(2),
                Span::from_units(1),
                AperiodicFate::Served {
                    started: Instant::from_units(3),
                    completed: Instant::from_units(6),
                },
            )
            .with_deadline(Some(Instant::from_units(5))),
        );
        trace.push_outcome(AperiodicOutcome::new(
            EventId::new(1),
            Instant::from_units(4),
            Span::from_units(1),
            AperiodicFate::Unserved,
        ));
        let mut p = MetricsProbe::new();
        p.absorb_trace(&trace);
        assert_eq!(p.response.count(), 1);
        assert_eq!(p.response.sum(), 4 * rt_model::TICKS_PER_UNIT);
        assert_eq!(p.lateness.count(), 1);
        assert_eq!(p.lateness.sum(), rt_model::TICKS_PER_UNIT);
    }

    #[test]
    fn merge_is_split_and_order_invariant() {
        // Simulate three workers recording disjoint shares of one stream of
        // probe events, then merge in two different orders.
        let record = |p: &mut MetricsProbe, i: u64| {
            p.decision(Instant::from_units(i));
            p.queue_depth((i % 3) as usize, i % 17);
            if i.is_multiple_of(4) {
                p.admission(0, AdmissionVerdict::Accepted, Instant::from_units(i));
            }
        };
        let mut whole = MetricsProbe::new();
        for i in 0..300 {
            record(&mut whole, i);
        }
        let mut parts = [
            MetricsProbe::new(),
            MetricsProbe::new(),
            MetricsProbe::new(),
        ];
        for i in 0..300 {
            record(&mut parts[(i % 3) as usize], i);
        }
        let mut fwd = MetricsProbe::new();
        for p in parts.iter() {
            fwd.merge(p);
        }
        let mut rev = MetricsProbe::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, whole);
        assert_eq!(rev, whole);
    }
}
