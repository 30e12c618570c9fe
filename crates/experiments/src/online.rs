//! The §7 experiment: on-line response-time computation for aperiodic events
//! under a highest-priority polling server.
//!
//! The paper proposes (as near-future work) computing, at the arrival of each
//! event, its response time in constant time thanks to a list of lists of
//! handlers, and validating the prediction against the measured executions.
//! That structure is [`InstancePacker`], which also runs the admission plan of
//! `rt-admission`; the executed server keeps the paper's FIFO list. This
//! module performs that validation in the setting where the prediction is
//! exact for the non-resumable implementation — homogeneous declared costs,
//! so the FIFO-with-skip rule never reorders service — and reports
//! prediction-vs-measurement for every served event.

use rt_analysis::{InstancePacker, ServerParams};
use rt_model::{Instant, Priority, ServerSpec, Span, SystemSpec};
use rt_taskserver::{execute, ExecutionConfig};

/// One event's predicted and measured response time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlinePrediction {
    /// Release instant of the event.
    pub release: Instant,
    /// Equation-(5) prediction made from the event's [`InstancePacker`] slot.
    pub predicted: Span,
    /// Response time measured on the execution (`None` if unserved).
    pub measured: Option<Span>,
}

/// Report of the on-line RTA experiment.
#[derive(Debug, Clone)]
pub struct OnlineRtaReport {
    /// Per-event predictions and measurements.
    pub predictions: Vec<OnlinePrediction>,
    /// Number of events whose prediction matched the measurement exactly.
    pub exact_matches: usize,
}

/// Builds a burst workload of `count` events with homogeneous cost, released
/// `spacing` apart starting at `first_release`, served by a polling server of
/// the given capacity/period, and compares equation (5) against the measured
/// execution.
pub fn online_rta_experiment(
    count: usize,
    cost: Span,
    first_release: Instant,
    spacing: Span,
    capacity: Span,
    period: Span,
) -> OnlineRtaReport {
    assert!(
        cost <= capacity,
        "the framework cannot serve handlers above the capacity"
    );
    let mut builder = SystemSpec::builder("online-rta");
    builder.server(ServerSpec::polling(capacity, period, Priority::new(30)));
    let mut releases = Vec::new();
    for i in 0..count {
        let release = first_release + spacing.saturating_mul(i as u64);
        releases.push(release);
        builder.aperiodic(release, cost);
    }
    builder.horizon(Instant::ZERO + period.saturating_mul((count as u64 + 2) * 2));
    // rt-lint: allow(panic, reason = "the experiment builds its system from fixed, known-valid parameters")
    let spec = builder.build().expect("online-rta system is valid");

    let trace = execute(&spec, &ExecutionConfig::ideal());

    // Predictions: replay the admissions with an InstancePacker. Because the
    // costs are homogeneous and the server is the highest-priority task, the
    // slot assigned at admission time is exactly where the implementation
    // serves the handler.
    let params = ServerParams::new(capacity, period);
    let mut packer: Option<InstancePacker> = None;
    let mut predictions = Vec::new();
    for (release, outcome) in releases.iter().zip(trace.outcomes.iter()) {
        // Re-seed the packer when the pending queue has necessarily drained
        // before this release (every packed handler completes no later than
        // instance_start(current) + current_load): the polling server is then
        // idle and has forfeited its capacity, so the new event can only be
        // served from the next activation onwards — which is exactly what a
        // packer seeded with zero remaining capacity at the release time
        // predicts.
        let drained = packer.as_ref().is_none_or(|p| {
            params.instance_start(p.current_instance()) + p.current_load() <= *release
        });
        if drained {
            packer = Some(InstancePacker::new(params, *release, Span::ZERO));
        }
        // rt-lint: allow(panic, reason = "the packer was re-seeded on the drained branch immediately above")
        let slot = packer.as_mut().expect("packer was just seeded").push(cost);
        let predicted = slot.response_time(params, *release);
        predictions.push(OnlinePrediction {
            release: *release,
            predicted,
            measured: outcome.response_time(),
        });
    }
    let exact_matches = predictions
        .iter()
        .filter(|p| p.measured == Some(p.predicted))
        .count();
    OnlineRtaReport {
        predictions,
        exact_matches,
    }
}

/// The default instance of the experiment used by the `repro` binary: a burst
/// of twelve cost-3 events released together at t = 1 under the paper's
/// capacity-4 / period-6 server.
pub fn default_online_rta() -> OnlineRtaReport {
    online_rta_experiment(
        12,
        Span::from_units(3),
        Instant::from_units(1),
        Span::ZERO,
        Span::from_units(4),
        Span::from_units(6),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_predictions_match_the_execution_exactly() {
        let report = default_online_rta();
        assert_eq!(report.predictions.len(), 12);
        for p in &report.predictions {
            assert_eq!(
                p.measured,
                Some(p.predicted),
                "prediction mismatch at {:?}",
                p.release
            );
        }
        assert_eq!(report.exact_matches, 12);
    }

    #[test]
    fn spaced_arrivals_are_also_predicted_exactly() {
        // One event per period: each is served in the activation following
        // its release, with nothing ahead of it.
        let report = online_rta_experiment(
            5,
            Span::from_units(2),
            Instant::from_units(1),
            Span::from_units(6),
            Span::from_units(4),
            Span::from_units(6),
        );
        // Released at 1, 7, 13, …: some are picked up while the server is
        // still inside an activation (response 3), others have to wait for
        // the following activation (response 7); equation (5) through the
        // packer predicts both cases exactly.
        for p in &report.predictions {
            assert_eq!(p.measured, Some(p.predicted));
        }
        assert_eq!(report.exact_matches, 5);
    }

    #[test]
    #[should_panic(expected = "above the capacity")]
    fn oversized_costs_are_rejected() {
        online_rta_experiment(
            1,
            Span::from_units(5),
            Instant::ZERO,
            Span::ZERO,
            Span::from_units(4),
            Span::from_units(6),
        );
    }
}
