//! RTSJ-style parameter objects.
//!
//! The paper's framework is expressed in terms of the RTSJ parameter classes
//! (`PriorityParameters`, `PeriodicParameters`, `AperiodicParameters`,
//! `ProcessingGroupParameters`, and its own `TaskServerParameters` subclass of
//! `ReleaseParameters`). This module provides the same vocabulary as plain
//! data types so the task-server crate can mirror the paper's Figure 1
//! class diagram faithfully.
//!
//! `ProcessingGroupParameters` deserves a note: the paper (following Burns &
//! Wellings) observes that PGP cost enforcement is optional for a compliant
//! VM and is in fact absent from the reference implementation, making PGP
//! "useless" as a task-server substitute. The emulation reproduces that
//! behaviour: [`ProcessingGroupParameters`] is carried around but never
//! enforced by the engine, and a test documents exactly that.

use rt_model::{Instant, Priority, Span};

/// Scheduling eligibility expressed as a fixed priority
/// (`javax.realtime.PriorityParameters`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriorityParameters {
    /// The priority level (higher = more eligible).
    pub priority: Priority,
}

impl PriorityParameters {
    /// Creates priority parameters.
    pub fn new(priority: Priority) -> Self {
        PriorityParameters { priority }
    }
}

/// Release characteristics of a schedulable object
/// (`javax.realtime.ReleaseParameters` and its concrete subclasses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseParameters {
    /// Periodic release (`PeriodicParameters`): first release at `start`,
    /// then every `period`; each release may consume up to `cost` and must
    /// finish within `deadline`.
    Periodic {
        /// First release instant.
        start: Instant,
        /// Release period.
        period: Span,
        /// Worst-case cost per release.
        cost: Span,
        /// Relative deadline.
        deadline: Span,
    },
    /// Aperiodic release (`AperiodicParameters`): no bound on the arrival
    /// pattern; `cost` and `deadline` describe one release.
    Aperiodic {
        /// Worst-case cost per release.
        cost: Span,
        /// Relative deadline (may be unbounded).
        deadline: Option<Span>,
    },
    /// Sporadic release (`SporadicParameters`): aperiodic with a minimum
    /// inter-arrival time, which is what makes it analysable as a periodic
    /// task in the feasibility test.
    Sporadic {
        /// Minimum inter-arrival time.
        min_interarrival: Span,
        /// Worst-case cost per release.
        cost: Span,
        /// Relative deadline.
        deadline: Span,
    },
}

impl ReleaseParameters {
    /// Worst-case cost of one release.
    pub fn cost(&self) -> Span {
        match self {
            ReleaseParameters::Periodic { cost, .. }
            | ReleaseParameters::Aperiodic { cost, .. }
            | ReleaseParameters::Sporadic { cost, .. } => *cost,
        }
    }

    /// The period used when the release pattern enters a periodic feasibility
    /// analysis: the period itself for periodic parameters, the minimum
    /// inter-arrival time for sporadic ones, and `None` for aperiodic ones
    /// (which is precisely why the paper needs task servers).
    pub fn analysable_period(&self) -> Option<Span> {
        match self {
            ReleaseParameters::Periodic { period, .. } => Some(*period),
            ReleaseParameters::Sporadic {
                min_interarrival, ..
            } => Some(*min_interarrival),
            ReleaseParameters::Aperiodic { .. } => None,
        }
    }
}

/// The paper's `TaskServerParameters`: a `ReleaseParameters` subclass used to
/// construct a `TaskServer` — a capacity (the cost) replenished every period,
/// plus the priority the server runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskServerParameters {
    /// Server capacity (the budget available per period).
    pub capacity: Span,
    /// Replenishment period.
    pub period: Span,
    /// Priority of the server thread. The framework requires this to be the
    /// highest priority of the application.
    pub priority: Priority,
}

impl TaskServerParameters {
    /// Creates server parameters.
    ///
    /// # Panics
    /// Panics when the capacity is zero, the period is zero, or the capacity
    /// exceeds the period (such a server could never be schedulable).
    pub fn new(capacity: Span, period: Span, priority: Priority) -> Self {
        assert!(
            !capacity.is_zero(),
            "a task server needs a positive capacity"
        );
        assert!(!period.is_zero(), "a task server needs a positive period");
        assert!(
            capacity <= period,
            "the server capacity cannot exceed its period"
        );
        TaskServerParameters {
            capacity,
            period,
            priority,
        }
    }

    /// The equivalent periodic release parameters: this is exactly the
    /// "a periodic task server is a periodic task" observation of §2.
    pub fn as_periodic_release(&self) -> ReleaseParameters {
        ReleaseParameters::Periodic {
            start: Instant::ZERO,
            period: self.period,
            cost: self.capacity,
            deadline: self.period,
        }
    }

    /// Server utilisation.
    pub fn utilization(&self) -> f64 {
        self.capacity.as_units() / self.period.as_units()
    }
}

/// `javax.realtime.ProcessingGroupParameters`: a cost budget shared by a
/// group of schedulables and replenished periodically.
///
/// Carried for fidelity with the RTSJ API but **never enforced** by the
/// engine, mirroring the reference implementation the paper ran on ("since
/// cost enforcement is an optional feature for an RTSJ-compliant virtual Java
/// machine, PGP can have no effect at all. This is the case with the Timesys
/// Reference Implementation"). The task-server framework exists precisely
/// because of this gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessingGroupParameters {
    /// Cost budget shared by the group.
    pub cost: Span,
    /// Replenishment period of the budget.
    pub period: Span,
    /// Whether the runtime enforces the budget. Always `false` here, as on
    /// the reference implementation.
    pub cost_enforced: bool,
}

impl ProcessingGroupParameters {
    /// Creates (non-enforced) processing group parameters.
    pub fn new(cost: Span, period: Span) -> Self {
        ProcessingGroupParameters {
            cost,
            period,
            cost_enforced: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_parameters_expose_cost_and_period() {
        let periodic = ReleaseParameters::Periodic {
            start: Instant::ZERO,
            period: Span::from_units(6),
            cost: Span::from_units(3),
            deadline: Span::from_units(6),
        };
        assert_eq!(periodic.cost(), Span::from_units(3));
        assert_eq!(periodic.analysable_period(), Some(Span::from_units(6)));

        let sporadic = ReleaseParameters::Sporadic {
            min_interarrival: Span::from_units(10),
            cost: Span::from_units(1),
            deadline: Span::from_units(10),
        };
        assert_eq!(sporadic.analysable_period(), Some(Span::from_units(10)));

        let aperiodic = ReleaseParameters::Aperiodic {
            cost: Span::from_units(2),
            deadline: None,
        };
        assert_eq!(
            aperiodic.analysable_period(),
            None,
            "aperiodic releases cannot be analysed as periodic tasks"
        );
    }

    #[test]
    fn task_server_parameters_reduce_to_a_periodic_task() {
        let params =
            TaskServerParameters::new(Span::from_units(3), Span::from_units(6), Priority::new(30));
        assert!((params.utilization() - 0.5).abs() < 1e-12);
        match params.as_periodic_release() {
            ReleaseParameters::Periodic {
                cost,
                period,
                deadline,
                ..
            } => {
                assert_eq!(cost, Span::from_units(3));
                assert_eq!(period, Span::from_units(6));
                assert_eq!(deadline, Span::from_units(6));
            }
            other => panic!("expected periodic release parameters, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "capacity cannot exceed its period")]
    fn oversized_server_parameters_are_rejected() {
        TaskServerParameters::new(Span::from_units(7), Span::from_units(6), Priority::new(30));
    }

    #[test]
    fn processing_group_parameters_are_never_enforced() {
        // This is the RI behaviour the paper criticises: the budget exists
        // syntactically but has no effect on scheduling.
        let pgp = ProcessingGroupParameters::new(Span::from_units(2), Span::from_units(10));
        assert!(!pgp.cost_enforced);
    }

    #[test]
    fn priority_parameters_wrap_a_priority() {
        let p = PriorityParameters::new(Priority::new(30));
        assert_eq!(p.priority, Priority::new(30));
    }
}
