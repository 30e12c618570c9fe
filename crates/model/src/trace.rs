//! Execution traces: what ran when, and what happened to every aperiodic
//! event.
//!
//! Both the discrete-event simulator and the RTSJ execution engine emit the
//! same [`Trace`] structure. That is what makes the paper's comparison
//! methodology reproducible here: the metrics crate computes AART/AIR/ASR from
//! a `Trace` without knowing whether it came from a simulation or an
//! execution, and the Gantt renderer draws the temporal diagrams (Figures
//! 2–4) from the same data.

use crate::ids::{EventId, TaskId};
use crate::time::{Instant, Span};
use std::collections::BTreeMap;
use std::fmt;

/// What occupied the processor during a trace segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExecUnit {
    /// A periodic task's job.
    Task(TaskId),
    /// The server (or background servicing) executing an aperiodic handler.
    Handler(EventId),
    /// Server bookkeeping that consumes processor time: dispatching a
    /// handler, enforcing a budget, replenishing capacity.
    ServerOverhead,
    /// Timer machinery firing asynchronous events above every application
    /// priority.
    TimerOverhead,
    /// The processor was idle.
    Idle,
}

impl ExecUnit {
    /// True for the two overhead pseudo-units.
    pub fn is_overhead(self) -> bool {
        matches!(self, ExecUnit::ServerOverhead | ExecUnit::TimerOverhead)
    }
}

impl fmt::Display for ExecUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecUnit::Task(t) => write!(f, "{t}"),
            ExecUnit::Handler(e) => write!(f, "handler({e})"),
            ExecUnit::ServerOverhead => write!(f, "server-overhead"),
            ExecUnit::TimerOverhead => write!(f, "timer-overhead"),
            ExecUnit::Idle => write!(f, "idle"),
        }
    }
}

/// A maximal interval during which one unit occupied the processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// What ran.
    pub unit: ExecUnit,
    /// Inclusive start.
    pub start: Instant,
    /// Exclusive end.
    pub end: Instant,
}

impl Segment {
    /// Duration of the segment.
    pub fn duration(&self) -> Span {
        self.end - self.start
    }
}

/// Final status of one aperiodic event occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AperiodicFate {
    /// The handler ran to completion.
    Served {
        /// First instant the handler received processor time.
        started: Instant,
        /// Completion instant.
        completed: Instant,
    },
    /// The handler was started but interrupted by budget enforcement before
    /// completing (counts towards the AIR metric).
    Interrupted {
        /// First instant the handler received processor time.
        started: Instant,
        /// Instant of the asynchronous interruption.
        interrupted_at: Instant,
    },
    /// The handler never completed within the observation horizon (it may
    /// never have started, or still be pending in the server queue).
    Unserved,
    /// The release was refused by the server's on-line admission policy at
    /// its arrival instant and never entered the pending queue.
    Rejected {
        /// Instant of the admission decision (the arrival instant).
        at: Instant,
    },
    /// The release was admitted but later dropped from the pending queue by
    /// an overload-management decision (the D-OVER-style value-density rule)
    /// before completing.
    Aborted {
        /// Instant of the drop decision.
        at: Instant,
    },
}

/// Outcome record for one aperiodic event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AperiodicOutcome {
    /// The event.
    pub event: EventId,
    /// When it was fired.
    pub release: Instant,
    /// Cost declared to the server.
    pub declared_cost: Span,
    /// Completion value of the event (the D-OVER value tag; defaults to the
    /// declared cost in ticks for value-free workloads).
    pub value: u64,
    /// Absolute deadline of the event, when it carries one.
    pub deadline: Option<Instant>,
    /// What happened.
    pub fate: AperiodicFate,
}

impl AperiodicOutcome {
    /// Creates an outcome record with the default value tag (declared cost in
    /// ticks) and no deadline — the shape of every pre-admission workload.
    pub fn new(event: EventId, release: Instant, declared_cost: Span, fate: AperiodicFate) -> Self {
        AperiodicOutcome {
            event,
            release,
            declared_cost,
            value: declared_cost.ticks(),
            deadline: None,
            fate,
        }
    }

    /// Attaches the event's value tag.
    pub fn with_value(mut self, value: u64) -> Self {
        self.value = value;
        self
    }

    /// Attaches the event's absolute deadline.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Response time (completion − release) when the event was served.
    pub fn response_time(&self) -> Option<Span> {
        match self.fate {
            AperiodicFate::Served { completed, .. } => Some(completed - self.release),
            _ => None,
        }
    }

    /// True when the event was served to completion.
    pub fn is_served(&self) -> bool {
        matches!(self.fate, AperiodicFate::Served { .. })
    }

    /// True when the event was interrupted by budget enforcement.
    pub fn is_interrupted(&self) -> bool {
        matches!(self.fate, AperiodicFate::Interrupted { .. })
    }

    /// True when the event was refused at arrival by the admission policy.
    pub fn is_rejected(&self) -> bool {
        matches!(self.fate, AperiodicFate::Rejected { .. })
    }

    /// True when the event was admitted and later dropped by the overload
    /// manager.
    pub fn is_aborted(&self) -> bool {
        matches!(self.fate, AperiodicFate::Aborted { .. })
    }

    /// True when the event entered the pending queue at all (everything but
    /// an arrival-time rejection).
    pub fn is_accepted(&self) -> bool {
        !self.is_rejected()
    }

    /// True when the event completed at or before its deadline (events
    /// without a deadline count as on time whenever they are served).
    pub fn completed_by_deadline(&self) -> bool {
        match (self.fate, self.deadline) {
            (AperiodicFate::Served { completed, .. }, Some(d)) => completed <= d,
            (AperiodicFate::Served { .. }, None) => true,
            _ => false,
        }
    }

    /// True when the event was *accepted*, carries a deadline, and did not
    /// complete by it — the numerator of the miss-ratio-among-accepted
    /// metric. Rejected events never count (the admission layer turned them
    /// away up front); aborted, interrupted, unserved and late-served
    /// deadline-carrying events all do.
    pub fn missed_deadline_after_acceptance(&self) -> bool {
        self.is_accepted() && self.deadline.is_some() && !self.completed_by_deadline()
    }

    /// The value the event accrued: its value tag when it completed by its
    /// deadline, zero otherwise (the D-OVER accrual rule).
    pub fn accrued_value(&self) -> u64 {
        if self.completed_by_deadline() {
            self.value
        } else {
            0
        }
    }
}

/// Completion record for one periodic job, used for deadline-miss checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodicJobRecord {
    /// The task.
    pub task: TaskId,
    /// Activation index (0-based).
    pub activation: u64,
    /// Absolute release.
    pub release: Instant,
    /// Absolute deadline.
    pub deadline: Instant,
    /// Completion instant, `None` when the job did not finish within the
    /// horizon.
    pub completed: Option<Instant>,
}

impl PeriodicJobRecord {
    /// True when the job finished at or before its deadline.
    pub fn met_deadline(&self) -> bool {
        matches!(self.completed, Some(c) if c <= self.deadline)
    }

    /// Response time when the job completed.
    pub fn response_time(&self) -> Option<Span> {
        self.completed.map(|c| c - self.release)
    }
}

/// A complete record of one run (simulation or execution).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Processor occupation segments, ordered by start time, non-overlapping.
    pub segments: Vec<Segment>,
    /// One outcome per aperiodic event released within the horizon.
    pub outcomes: Vec<AperiodicOutcome>,
    /// One record per periodic job released within the horizon.
    pub periodic_jobs: Vec<PeriodicJobRecord>,
    /// Observation horizon of the run.
    pub horizon: Instant,
}

impl Trace {
    /// Creates an empty trace for the given horizon.
    pub fn new(horizon: Instant) -> Self {
        Trace {
            segments: Vec::new(),
            outcomes: Vec::new(),
            periodic_jobs: Vec::new(),
            horizon,
        }
    }

    /// Appends a processor-occupation segment, merging it with the previous
    /// one when they are contiguous and belong to the same unit.
    ///
    /// Zero-length segments are ignored.
    ///
    /// # Panics
    /// Panics when the segment starts before the end of the last recorded
    /// segment (traces are built in time order by construction).
    pub fn push_segment(&mut self, unit: ExecUnit, start: Instant, end: Instant) {
        if end <= start {
            return;
        }
        if let Some(last) = self.segments.last_mut() {
            assert!(
                start >= last.end,
                "segment [{start}, {end}) overlaps previous segment ending at {}",
                last.end
            );
            if last.unit == unit && last.end == start {
                last.end = end;
                return;
            }
        }
        self.segments.push(Segment { unit, start, end });
    }

    /// Records the fate of an aperiodic event.
    pub fn push_outcome(&mut self, outcome: AperiodicOutcome) {
        self.outcomes.push(outcome);
    }

    /// Records a periodic job completion record.
    pub fn push_periodic_job(&mut self, record: PeriodicJobRecord) {
        self.periodic_jobs.push(record);
    }

    /// Total processor time consumed by a unit.
    pub fn busy_time(&self, unit: ExecUnit) -> Span {
        self.segments
            .iter()
            .filter(|s| s.unit == unit)
            .map(|s| s.duration())
            .sum()
    }

    /// Total processor time spent on any overhead pseudo-unit.
    pub fn overhead_time(&self) -> Span {
        self.segments
            .iter()
            .filter(|s| s.unit.is_overhead())
            .map(|s| s.duration())
            .sum()
    }

    /// Processor time not covered by any segment plus explicit idle segments,
    /// within the horizon.
    pub fn idle_time(&self) -> Span {
        let busy: Span = self
            .segments
            .iter()
            .filter(|s| s.unit != ExecUnit::Idle)
            .map(|s| s.duration())
            .sum();
        self.horizon.since(Instant::ZERO).minus(busy)
    }

    /// Busy time per unit, for reporting.
    pub fn busy_by_unit(&self) -> BTreeMap<ExecUnit, Span> {
        let mut map = BTreeMap::new();
        for s in &self.segments {
            *map.entry(s.unit).or_insert(Span::ZERO) += s.duration();
        }
        map
    }

    /// All segments of one unit, in time order.
    pub fn segments_of(&self, unit: ExecUnit) -> impl Iterator<Item = &Segment> {
        self.segments.iter().filter(move |s| s.unit == unit)
    }

    /// True when every periodic job met its deadline.
    pub fn all_periodic_deadlines_met(&self) -> bool {
        self.periodic_jobs.iter().all(|j| j.met_deadline())
    }

    /// Number of periodic deadline misses.
    pub fn periodic_deadline_misses(&self) -> usize {
        self.periodic_jobs
            .iter()
            .filter(|j| !j.met_deadline())
            .count()
    }

    /// Renders the trace as a canonical, line-oriented text form: one line
    /// per segment, aperiodic outcome and periodic job, in trace order.
    ///
    /// The format is stable and used by the golden-trace regression tests to
    /// assert event-by-event equality of scheduling decisions across engine
    /// refactors; any change to it invalidates the stored goldens.
    pub fn render_canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // fmt::Write into a String is infallible, so the results are ignored.
        let _ = writeln!(out, "horizon {}", self.horizon.ticks());
        for s in &self.segments {
            let _ = writeln!(out, "seg {} {} {}", s.unit, s.start.ticks(), s.end.ticks());
        }
        for o in &self.outcomes {
            let fate = match o.fate {
                AperiodicFate::Served { started, completed } => {
                    format!("served {} {}", started.ticks(), completed.ticks())
                }
                AperiodicFate::Interrupted {
                    started,
                    interrupted_at,
                } => {
                    format!("interrupted {} {}", started.ticks(), interrupted_at.ticks())
                }
                AperiodicFate::Unserved => "unserved".to_string(),
                AperiodicFate::Rejected { at } => format!("rejected {}", at.ticks()),
                AperiodicFate::Aborted { at } => format!("aborted {}", at.ticks()),
            };
            let _ = writeln!(
                out,
                "out {} release {} declared {} {}",
                o.event,
                o.release.ticks(),
                o.declared_cost.ticks(),
                fate
            );
        }
        for j in &self.periodic_jobs {
            let _ = writeln!(
                out,
                "job {} act {} release {} deadline {} completed {}",
                j.task,
                j.activation,
                j.release.ticks(),
                j.deadline.ticks(),
                j.completed
                    .map_or("never".to_string(), |c| c.ticks().to_string())
            );
        }
        out
    }

    /// Checks the structural invariants of the trace: segments ordered and
    /// non-overlapping, nothing beyond the horizon, outcomes strictly
    /// ascending by `(release, event)`, outcome instants consistent with
    /// their release times.
    pub fn check_invariants(&self) -> Result<(), String> {
        for w in self.segments.windows(2) {
            if w[1].start < w[0].end {
                return Err(format!(
                    "segments overlap: [{}, {}) then [{}, {})",
                    w[0].start, w[0].end, w[1].start, w[1].end
                ));
            }
        }
        if let Some(last) = self.segments.last() {
            if last.end > self.horizon {
                return Err(format!(
                    "segment ends at {} beyond horizon {}",
                    last.end, self.horizon
                ));
            }
        }
        for w in self.outcomes.windows(2) {
            if (w[1].release, w[1].event) <= (w[0].release, w[0].event) {
                return Err(format!(
                    "outcome of {} at {} follows {} at {}",
                    w[1].event, w[1].release, w[0].event, w[0].release
                ));
            }
        }
        for o in &self.outcomes {
            match o.fate {
                AperiodicFate::Served { started, completed } => {
                    if started < o.release || completed < started {
                        return Err(format!("outcome of {} has inconsistent instants", o.event));
                    }
                }
                AperiodicFate::Interrupted {
                    started,
                    interrupted_at,
                } => {
                    if started < o.release || interrupted_at < started {
                        return Err(format!(
                            "interrupted outcome of {} has inconsistent instants",
                            o.event
                        ));
                    }
                }
                AperiodicFate::Unserved => {}
                AperiodicFate::Rejected { at } | AperiodicFate::Aborted { at } => {
                    if at < o.release {
                        return Err(format!(
                            "admission outcome of {} precedes its release",
                            o.event
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_segment_merges_contiguous_same_unit() {
        let mut t = Trace::new(Instant::from_units(10));
        t.push_segment(
            ExecUnit::Task(TaskId::new(0)),
            Instant::from_units(0),
            Instant::from_units(1),
        );
        t.push_segment(
            ExecUnit::Task(TaskId::new(0)),
            Instant::from_units(1),
            Instant::from_units(2),
        );
        t.push_segment(
            ExecUnit::Idle,
            Instant::from_units(2),
            Instant::from_units(3),
        );
        assert_eq!(t.segments.len(), 2);
        assert_eq!(t.segments[0].duration(), Span::from_units(2));
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn zero_length_segments_are_ignored() {
        let mut t = Trace::new(Instant::from_units(10));
        t.push_segment(
            ExecUnit::Idle,
            Instant::from_units(3),
            Instant::from_units(3),
        );
        assert!(t.segments.is_empty());
    }

    #[test]
    #[should_panic(expected = "overlaps previous segment")]
    fn overlapping_segments_panic() {
        let mut t = Trace::new(Instant::from_units(10));
        t.push_segment(
            ExecUnit::Idle,
            Instant::from_units(0),
            Instant::from_units(5),
        );
        t.push_segment(
            ExecUnit::Idle,
            Instant::from_units(4),
            Instant::from_units(6),
        );
    }

    #[test]
    fn busy_idle_and_overhead_accounting() {
        let mut t = Trace::new(Instant::from_units(10));
        t.push_segment(
            ExecUnit::Handler(EventId::new(0)),
            Instant::from_units(0),
            Instant::from_units(2),
        );
        t.push_segment(
            ExecUnit::ServerOverhead,
            Instant::from_units(2),
            Instant::from_units(3),
        );
        t.push_segment(
            ExecUnit::Task(TaskId::new(0)),
            Instant::from_units(3),
            Instant::from_units(5),
        );
        assert_eq!(
            t.busy_time(ExecUnit::Handler(EventId::new(0))),
            Span::from_units(2)
        );
        assert_eq!(t.overhead_time(), Span::from_units(1));
        assert_eq!(t.idle_time(), Span::from_units(5));
        let by_unit = t.busy_by_unit();
        assert_eq!(
            by_unit[&ExecUnit::Task(TaskId::new(0))],
            Span::from_units(2)
        );
        assert_eq!(t.segments_of(ExecUnit::ServerOverhead).count(), 1);
    }

    #[test]
    fn outcome_response_times() {
        let served = AperiodicOutcome::new(
            EventId::new(0),
            Instant::from_units(2),
            Span::from_units(2),
            AperiodicFate::Served {
                started: Instant::from_units(6),
                completed: Instant::from_units(8),
            },
        );
        assert_eq!(served.response_time(), Some(Span::from_units(6)));
        assert!(served.is_served());
        let interrupted = AperiodicOutcome {
            fate: AperiodicFate::Interrupted {
                started: Instant::from_units(6),
                interrupted_at: Instant::from_units(7),
            },
            ..served
        };
        assert!(interrupted.is_interrupted());
        assert_eq!(interrupted.response_time(), None);
    }

    #[test]
    fn periodic_records_and_deadline_misses() {
        let mut t = Trace::new(Instant::from_units(12));
        t.push_periodic_job(PeriodicJobRecord {
            task: TaskId::new(0),
            activation: 0,
            release: Instant::from_units(0),
            deadline: Instant::from_units(6),
            completed: Some(Instant::from_units(5)),
        });
        t.push_periodic_job(PeriodicJobRecord {
            task: TaskId::new(0),
            activation: 1,
            release: Instant::from_units(6),
            deadline: Instant::from_units(12),
            completed: None,
        });
        assert!(!t.all_periodic_deadlines_met());
        assert_eq!(t.periodic_deadline_misses(), 1);
        assert_eq!(
            t.periodic_jobs[0].response_time(),
            Some(Span::from_units(5))
        );
    }

    #[test]
    fn invariants_reject_segments_beyond_horizon() {
        let mut t = Trace::new(Instant::from_units(4));
        t.push_segment(
            ExecUnit::Idle,
            Instant::from_units(0),
            Instant::from_units(6),
        );
        assert!(t.check_invariants().is_err());
    }

    #[test]
    fn invariants_reject_inconsistent_outcomes() {
        let mut t = Trace::new(Instant::from_units(10));
        t.push_outcome(AperiodicOutcome::new(
            EventId::new(0),
            Instant::from_units(5),
            Span::from_units(1),
            AperiodicFate::Served {
                started: Instant::from_units(2),
                completed: Instant::from_units(3),
            },
        ));
        assert!(t.check_invariants().is_err());
    }

    #[test]
    fn invariants_reject_outcomes_out_of_release_event_order() {
        let unserved = |id, release| {
            AperiodicOutcome::new(
                EventId::new(id),
                Instant::from_units(release),
                Span::from_units(1),
                AperiodicFate::Unserved,
            )
        };
        let mut t = Trace::new(Instant::from_units(10));
        t.push_outcome(unserved(0, 2));
        t.push_outcome(unserved(1, 2));
        t.push_outcome(unserved(0, 3));
        assert!(t.check_invariants().is_ok());
        // Equal releases must ascend by event id...
        t.outcomes.swap(0, 1);
        assert!(t.check_invariants().is_err());
        // ...and releases must not descend.
        t.outcomes.swap(0, 1);
        t.outcomes.swap(1, 2);
        assert!(t.check_invariants().is_err());
        // A duplicated record is not strictly ascending either.
        t.outcomes[2] = t.outcomes[1];
        assert!(t.check_invariants().is_err());
    }
}
