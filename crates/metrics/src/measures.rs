//! Per-run measures over the aperiodic outcomes of one trace.
//!
//! The paper measures, for each execution and simulation, "the average
//! response time of aperiodics, the interrupted-aperiodics ratio and the
//! served-aperiodics ratio" (§6.1). A [`RunMeasures`] value holds exactly
//! those three quantities for one run.

use rt_model::{AperiodicOutcome, FaultPlan, Instant, Trace};

/// The per-run measures: the paper's three (served/interrupted counts and
/// the average response time) plus the admission-layer columns introduced
/// with the `rt-admission` subsystem (acceptance, deadline misses among the
/// accepted events, accrued value).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunMeasures {
    /// Number of aperiodic events released within the horizon.
    pub released: usize,
    /// Number of events served to completion.
    pub served: usize,
    /// Number of events interrupted by budget enforcement.
    pub interrupted: usize,
    /// Events refused by the on-line admission policy at arrival.
    pub rejected: usize,
    /// Admitted events later dropped by an overload decision.
    pub aborted: usize,
    /// Accepted events that carry a deadline (the miss-ratio denominator).
    pub accepted_with_deadline: usize,
    /// Accepted, deadline-carrying events that did not complete by their
    /// deadline (late, interrupted, aborted or unserved).
    pub accepted_deadline_misses: usize,
    /// Total value accrued (value tags of events completed by their
    /// deadline — the D-OVER accrual rule).
    pub accrued_value: u64,
    /// Average response time of the *served* events, in time units
    /// (`None` when nothing was served).
    pub average_response_time: Option<f64>,
}

impl RunMeasures {
    /// Computes the measures from a list of outcomes, without an
    /// observation horizon: every accepted deadline-carrying event counts
    /// towards the miss ratio. Prefer [`RunMeasures::from_trace`], which
    /// censors deadlines falling beyond the horizon.
    pub fn from_outcomes(outcomes: &[AperiodicOutcome]) -> Self {
        Self::with_horizon(outcomes, None)
    }

    /// Computes the measures, censoring the deadline-miss columns at the
    /// observation horizon: an accepted event whose deadline lies *beyond*
    /// the horizon cannot be observed either way (the run ends before its
    /// deadline), so it joins neither the miss numerator nor the
    /// denominator. Without the censoring every sufficiently late arrival
    /// would count as a "miss" against even a perfect admission policy.
    ///
    /// One pass over the outcomes, allocation-free; the response times are
    /// summed in outcome order.
    // rt-lint: zero-alloc
    pub fn with_horizon(outcomes: &[AperiodicOutcome], horizon: Option<Instant>) -> Self {
        let mut measures = RunMeasures {
            released: outcomes.len(),
            ..RunMeasures::default()
        };
        let mut response_sum = 0.0;
        for o in outcomes {
            if let Some(response) = o.response_time() {
                measures.served += 1;
                response_sum += response.as_units();
            }
            measures.interrupted += usize::from(o.is_interrupted());
            measures.rejected += usize::from(o.is_rejected());
            measures.aborted += usize::from(o.is_aborted());
            if o.deadline.is_some_and(|d| horizon.is_none_or(|h| d <= h)) {
                measures.accepted_with_deadline += usize::from(o.is_accepted());
                measures.accepted_deadline_misses +=
                    usize::from(o.missed_deadline_after_acceptance());
            }
            measures.accrued_value += o.accrued_value();
        }
        if measures.served > 0 {
            measures.average_response_time = Some(response_sum / measures.served as f64);
        }
        measures
    }

    /// Computes the measures directly from a trace, censoring the
    /// deadline-miss columns at the trace horizon.
    pub fn from_trace(trace: &Trace) -> Self {
        Self::with_horizon(&trace.outcomes, Some(trace.horizon))
    }

    /// Served-aperiodics ratio (the per-run contribution to ASR).
    pub fn served_ratio(&self) -> f64 {
        if self.released == 0 {
            return 1.0;
        }
        self.served as f64 / self.released as f64
    }

    /// Interrupted-aperiodics ratio (the per-run contribution to AIR).
    pub fn interrupted_ratio(&self) -> f64 {
        if self.released == 0 {
            return 0.0;
        }
        self.interrupted as f64 / self.released as f64
    }

    /// Events admitted into a pending queue (everything not rejected).
    pub fn accepted(&self) -> usize {
        self.released - self.rejected
    }

    /// Acceptance ratio: accepted / released (1.0 for event-free runs).
    pub fn acceptance_ratio(&self) -> f64 {
        if self.released == 0 {
            return 1.0;
        }
        self.accepted() as f64 / self.released as f64
    }

    /// Deadline-miss ratio among the accepted, deadline-carrying events
    /// (0.0 when none of the accepted events carries a deadline). This is
    /// the quantity a predictive admission policy drives to zero: it pays
    /// for its rejections by guaranteeing the work it does accept.
    pub fn accepted_miss_ratio(&self) -> f64 {
        if self.accepted_with_deadline == 0 {
            return 0.0;
        }
        self.accepted_deadline_misses as f64 / self.accepted_with_deadline as f64
    }
}

/// Fault-containment measures of one run: how well the enforcement layer
/// isolated the *injected* faults from the rest of the workload.
///
/// The outcomes are split into the **affected** events (tagged with a cost
/// overrun in the run's [`FaultPlan`]) and the **unaffected** remainder. A
/// containing system aborts the overruns at their declared budgets
/// ([`rt_model::AperiodicFate::Aborted`]) and keeps the unaffected accepted
/// events meeting their deadlines — the overrun never propagates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ContainmentMeasures {
    /// Events released within the horizon.
    pub released: usize,
    /// Released events tagged with an injected cost overrun.
    pub affected: usize,
    /// Affected events cut off by budget enforcement (`Aborted` fate).
    pub aborted_affected: usize,
    /// Unaffected accepted events with an observable deadline (the
    /// containment-miss denominator, censored at the horizon).
    pub unaffected_with_deadline: usize,
    /// Unaffected accepted events that still missed their deadlines — the
    /// quantity a containing enforcement layer drives to zero.
    pub unaffected_misses: usize,
    /// Total value accrued by the run (events completed by their
    /// deadlines), the measure carried across mode switches.
    pub accrued_value: u64,
}

impl ContainmentMeasures {
    /// Computes the containment measures of one trace against the fault
    /// plan that produced it, censoring deadline observations at the trace
    /// horizon exactly like [`RunMeasures::from_trace`].
    pub fn from_trace(trace: &Trace, faults: &FaultPlan) -> Self {
        let affected_ids: Vec<_> = faults.overruns.iter().map(|o| o.event).collect();
        let is_affected = |o: &AperiodicOutcome| affected_ids.contains(&o.event);
        let observable = |o: &AperiodicOutcome| -> bool {
            o.deadline.is_some_and(|d| d <= trace.horizon) && o.is_accepted()
        };
        ContainmentMeasures {
            released: trace.outcomes.len(),
            affected: trace.outcomes.iter().filter(|o| is_affected(o)).count(),
            aborted_affected: trace
                .outcomes
                .iter()
                .filter(|o| is_affected(o) && o.is_aborted())
                .count(),
            unaffected_with_deadline: trace
                .outcomes
                .iter()
                .filter(|o| !is_affected(o) && observable(o))
                .count(),
            unaffected_misses: trace
                .outcomes
                .iter()
                .filter(|o| !is_affected(o) && observable(o))
                .filter(|o| o.missed_deadline_after_acceptance())
                .count(),
            accrued_value: trace.outcomes.iter().map(|o| o.accrued_value()).sum(),
        }
    }

    /// Deadline-miss ratio among the unaffected accepted events (0.0 when
    /// none carries an observable deadline). Zero means the injected
    /// overruns were fully contained.
    pub fn unaffected_miss_ratio(&self) -> f64 {
        if self.unaffected_with_deadline == 0 {
            return 0.0;
        }
        self.unaffected_misses as f64 / self.unaffected_with_deadline as f64
    }

    /// Share of the overrun-injected events cut off by budget enforcement
    /// (1.0 for fault-free runs: nothing escaped because nothing was
    /// injected).
    pub fn abort_ratio(&self) -> f64 {
        if self.affected == 0 {
            return 1.0;
        }
        self.aborted_affected as f64 / self.affected as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_model::{AperiodicFate, EventId, Instant, Span};

    fn outcome(id: u32, fate: AperiodicFate) -> AperiodicOutcome {
        AperiodicOutcome::new(
            EventId::new(id),
            Instant::from_units(2),
            Span::from_units(2),
            fate,
        )
    }

    #[test]
    fn measures_over_mixed_outcomes() {
        let outcomes = vec![
            outcome(
                0,
                AperiodicFate::Served {
                    started: Instant::from_units(2),
                    completed: Instant::from_units(6),
                },
            ),
            outcome(
                1,
                AperiodicFate::Served {
                    started: Instant::from_units(8),
                    completed: Instant::from_units(10),
                },
            ),
            outcome(
                2,
                AperiodicFate::Interrupted {
                    started: Instant::from_units(12),
                    interrupted_at: Instant::from_units(13),
                },
            ),
            outcome(3, AperiodicFate::Unserved),
        ];
        let measures = RunMeasures::from_outcomes(&outcomes);
        assert_eq!(measures.released, 4);
        assert_eq!(measures.served, 2);
        assert_eq!(measures.interrupted, 1);
        // Responses: 4 and 8 → average 6.
        assert_eq!(measures.average_response_time, Some(6.0));
        assert_eq!(measures.served_ratio(), 0.5);
        assert_eq!(measures.interrupted_ratio(), 0.25);
    }

    #[test]
    fn empty_runs_have_neutral_ratios() {
        let measures = RunMeasures::from_outcomes(&[]);
        assert_eq!(measures.average_response_time, None);
        assert_eq!(measures.served_ratio(), 1.0);
        assert_eq!(measures.interrupted_ratio(), 0.0);
    }

    #[test]
    fn containment_splits_affected_from_unaffected() {
        let mut trace = Trace::new(Instant::from_units(40));
        // e0: overrun-injected, aborted at its declared budget.
        trace.push_outcome(outcome(
            0,
            AperiodicFate::Aborted {
                at: Instant::from_units(4),
            },
        ));
        // e1: unaffected, served before its deadline.
        trace.push_outcome(
            outcome(
                1,
                AperiodicFate::Served {
                    started: Instant::from_units(4),
                    completed: Instant::from_units(6),
                },
            )
            .with_deadline(Some(Instant::from_units(10)))
            .with_value(7),
        );
        // e2: unaffected, misses its observable deadline.
        trace.push_outcome(
            outcome(
                2,
                AperiodicFate::Served {
                    started: Instant::from_units(10),
                    completed: Instant::from_units(20),
                },
            )
            .with_deadline(Some(Instant::from_units(12))),
        );
        // e3: unaffected, deadline beyond the horizon — censored.
        trace.push_outcome(
            outcome(3, AperiodicFate::Unserved).with_deadline(Some(Instant::from_units(50))),
        );
        let faults = FaultPlan::new().overrun(EventId::new(0), Span::from_units(3));
        let measures = ContainmentMeasures::from_trace(&trace, &faults);
        assert_eq!(measures.released, 4);
        assert_eq!(measures.affected, 1);
        assert_eq!(measures.aborted_affected, 1);
        assert_eq!(measures.abort_ratio(), 1.0);
        assert_eq!(measures.unaffected_with_deadline, 2);
        assert_eq!(measures.unaffected_misses, 1);
        assert_eq!(measures.unaffected_miss_ratio(), 0.5);
        assert_eq!(measures.accrued_value, 7);
    }

    #[test]
    fn fault_free_runs_have_neutral_containment() {
        let trace = Trace::new(Instant::from_units(10));
        let measures = ContainmentMeasures::from_trace(&trace, &FaultPlan::new());
        assert_eq!(measures.abort_ratio(), 1.0);
        assert_eq!(measures.unaffected_miss_ratio(), 0.0);
    }

    #[test]
    fn from_trace_uses_the_trace_outcomes() {
        let mut trace = Trace::new(Instant::from_units(10));
        trace.push_outcome(outcome(0, AperiodicFate::Unserved));
        let measures = RunMeasures::from_trace(&trace);
        assert_eq!(measures.released, 1);
        assert_eq!(measures.served, 0);
    }
}
