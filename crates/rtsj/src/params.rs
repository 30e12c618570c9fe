//! The paper's `TaskServerParameters`.
//!
//! The paper's framework is expressed in terms of the RTSJ parameter
//! classes; the one it adds, `TaskServerParameters` (a `ReleaseParameters`
//! subclass), is the one the framework constructs its servers from. RTSJ's
//! `ProcessingGroupParameters` would be the natural substitute, but the
//! paper (following Burns & Wellings) notes that its cost enforcement is
//! optional and absent from the reference implementation — the gap the
//! task-server framework exists to fill.

use rt_model::{Priority, Span};

/// The paper's `TaskServerParameters`: a `ReleaseParameters` subclass used to
/// construct a `TaskServer` — a capacity (the cost) replenished every period,
/// plus the priority the server runs at. As a release pattern it is the
/// periodic task "a periodic task server is" (§2).
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

    /// Server utilisation.
    pub fn utilization(&self) -> f64 {
        self.capacity.as_units() / self.period.as_units()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_server_parameters_carry_their_utilization() {
        let params =
            TaskServerParameters::new(Span::from_units(3), Span::from_units(6), Priority::new(30));
        assert!((params.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity cannot exceed its period")]
    fn oversized_server_parameters_are_rejected() {
        TaskServerParameters::new(Span::from_units(7), Span::from_units(6), Priority::new(30));
    }
}
