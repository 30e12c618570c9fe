//! Fixed priorities and priority-assignment helpers.
//!
//! The paper assumes a preemptive fixed-priority scheduler where the task
//! server runs at the *highest* priority of the system, the periodic tasks
//! below it, and (optionally) a background server at the lowest priority.
//! Timers that fire the asynchronous events conceptually execute above
//! everything else (§7 of the paper discusses exactly this point).

use std::fmt;

/// A fixed scheduling priority. **Higher numeric value means higher priority**,
/// matching the RTSJ `PriorityParameters` convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u8);

impl Priority {
    /// Lowest priority usable by application code (RTSJ real-time range floor).
    pub const MIN: Priority = Priority(1);
    /// Highest priority usable by application code.
    pub const MAX: Priority = Priority(99);
    /// Priority reserved for the timer machinery that releases events; it is
    /// above every application priority, mirroring the paper's observation
    /// that "there is also more highest priority tasks: the timers charged to
    /// fire the asynchronous events".
    pub const TIMER: Priority = Priority(u8::MAX);

    /// Creates a priority clamped into the application range.
    pub fn new(level: u8) -> Self {
        Priority(level.clamp(Self::MIN.0, Self::MAX.0))
    }

    /// Raw priority level.
    pub const fn level(self) -> u8 {
        self.0
    }

    /// The next lower priority, saturating at [`Priority::MIN`].
    pub fn lower(self) -> Priority {
        Priority(self.0.saturating_sub(1).max(Self::MIN.0))
    }

    /// The next higher priority, saturating at [`Priority::MAX`].
    pub fn higher(self) -> Priority {
        Priority((self.0.saturating_add(1)).min(Self::MAX.0))
    }

    /// True when `self` strictly preempts `other`.
    pub fn preempts(self, other: Priority) -> bool {
        self.0 > other.0
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Which scheduling policy orders the ready schedulables of a system.
///
/// The paper's framework is built on the RTSJ's preemptive fixed-priority
/// scheduler; the RTSS simulator it is compared against also offers EDF
/// (paper §5). [`SchedulingPolicy`] is the knob that selects between the two
/// on a whole system ([`crate::SystemSpec::scheduling`]) and on both
/// execution substrates:
///
/// * [`SchedulingPolicy::FixedPriority`] — ready entities are ordered by
///   their static [`Priority`], ties broken by spawn/install order.
/// * [`SchedulingPolicy::Edf`] — ready entities are ordered by the absolute
///   deadline of their current job (periodic jobs: release + relative
///   deadline; servers: their replenishment-derived deadline), ties broken
///   by the same spawn/install order. Static priorities are ignored for
///   dispatching but are kept in the spec so the same system can be run
///   under either policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulingPolicy {
    /// Preemptive fixed priorities (the paper's RTSJ scheduler). Default.
    #[default]
    FixedPriority,
    /// Earliest Deadline First over the jobs' absolute deadlines.
    Edf,
}

impl SchedulingPolicy {
    /// Short label used in tables and benchmark ids.
    pub fn label(self) -> &'static str {
        match self {
            SchedulingPolicy::FixedPriority => "FP",
            SchedulingPolicy::Edf => "EDF",
        }
    }
}

impl fmt::Display for SchedulingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The three symbolic levels used by the paper's example task set (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolicPriority {
    /// "High" — the server priority.
    High,
    /// "Medium" — τ1.
    Medium,
    /// "Low" — τ2.
    Low,
}

impl SymbolicPriority {
    /// Maps the symbolic level onto a concrete priority, leaving headroom
    /// below for background servicing and above for the timer machinery.
    pub fn to_priority(self) -> Priority {
        match self {
            SymbolicPriority::High => Priority::new(30),
            SymbolicPriority::Medium => Priority::new(20),
            SymbolicPriority::Low => Priority::new(10),
        }
    }
}

/// Assigns rate-monotonic priorities to a list of periods: the shorter the
/// period, the higher the priority. Ties keep their input order (deterministic).
///
/// Returns one priority per input period, in input order.
pub fn rate_monotonic(periods: &[crate::time::Span]) -> Vec<Priority> {
    let mut order: Vec<usize> = (0..periods.len()).collect();
    order.sort_by_key(|&i| (periods[i], i));
    // order[0] has the shortest period -> highest priority.
    let n = periods.len();
    let mut result = vec![Priority::MIN; n];
    for (rank, &idx) in order.iter().enumerate() {
        let level = Priority::MAX
            .level()
            .saturating_sub(rank as u8)
            .max(Priority::MIN.level());
        result[idx] = Priority::new(level);
    }
    result
}

/// Assigns deadline-monotonic priorities: the shorter the relative deadline,
/// the higher the priority. Ties keep their input order.
pub fn deadline_monotonic(deadlines: &[crate::time::Span]) -> Vec<Priority> {
    rate_monotonic(deadlines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Span;

    #[test]
    fn higher_value_preempts_lower() {
        assert!(Priority::new(30).preempts(Priority::new(20)));
        assert!(!Priority::new(20).preempts(Priority::new(20)));
        assert!(Priority::TIMER.preempts(Priority::MAX));
    }

    #[test]
    fn new_clamps_into_application_range() {
        assert_eq!(Priority::new(0), Priority::MIN);
        assert_eq!(Priority::new(200), Priority::MAX);
    }

    #[test]
    fn lower_and_higher_saturate() {
        assert_eq!(Priority::MIN.lower(), Priority::MIN);
        assert_eq!(Priority::MAX.higher(), Priority::MAX);
        assert_eq!(Priority::new(20).lower(), Priority::new(19));
        assert_eq!(Priority::new(20).higher(), Priority::new(21));
    }

    #[test]
    fn symbolic_priorities_are_strictly_ordered() {
        let high = SymbolicPriority::High.to_priority();
        let medium = SymbolicPriority::Medium.to_priority();
        let low = SymbolicPriority::Low.to_priority();
        assert!(high.preempts(medium));
        assert!(medium.preempts(low));
        assert!(Priority::TIMER.preempts(high));
    }

    #[test]
    fn rate_monotonic_orders_by_period() {
        let periods = [
            Span::from_units(10),
            Span::from_units(5),
            Span::from_units(20),
        ];
        let prios = rate_monotonic(&periods);
        assert!(prios[1].preempts(prios[0]));
        assert!(prios[0].preempts(prios[2]));
    }

    #[test]
    fn rate_monotonic_breaks_ties_deterministically() {
        let periods = [Span::from_units(10), Span::from_units(10)];
        let prios = rate_monotonic(&periods);
        assert!(prios[0].preempts(prios[1]), "first task wins the tie");
        let again = rate_monotonic(&periods);
        assert_eq!(prios, again);
    }

    #[test]
    fn display_formats_level() {
        assert_eq!(Priority::new(42).to_string(), "P42");
    }
}
