//! Integration tests for Figures 2–4: the Table 1 example executed on the
//! task-server framework and simulated with the literature-exact policies,
//! checked against the exact timelines described in the paper.

use rtsj_event_framework::experiments::{run_scenario, Scenario};
use rtsj_event_framework::prelude::*;

fn handler_segments(trace: &Trace, event: u32) -> Vec<(u64, u64)> {
    trace
        .segments_of(ExecUnit::Handler(
            rtsj_event_framework::model::EventId::new(event),
        ))
        .map(|s| (s.start.ticks() / 1000, s.end.ticks() / 1000))
        .collect()
}

fn task_segments(trace: &Trace, task: u32) -> Vec<(u64, u64)> {
    trace
        .segments_of(ExecUnit::Task(rtsj_event_framework::model::TaskId::new(
            task,
        )))
        .map(|s| (s.start.ticks() / 1000, s.end.ticks() / 1000))
        .collect()
}

#[test]
fn figure_2_scenario_1_timeline() {
    let report = run_scenario(Scenario::One);
    // "e1 and e2 are fired respectively at time 0 and 6. Since the server has
    // its entire capacity at these two instants, h1 and h2 are immediately
    // processed by the server."
    assert_eq!(handler_segments(&report.execution, 0), vec![(0, 2)]);
    assert_eq!(handler_segments(&report.execution, 1), vec![(6, 8)]);
    // The periodic tasks run below the server: tau1 at 2..4 and 8..10, tau2
    // at 4..5 and 10..11 in the first two periods.
    let tau1 = task_segments(&report.execution, 0);
    assert_eq!(&tau1[..2], &[(2, 4), (8, 10)]);
    let tau2 = task_segments(&report.execution, 1);
    assert_eq!(&tau2[..2], &[(4, 5), (10, 11)]);
    assert!(report.execution.all_periodic_deadlines_met());
    // In this scenario the implementation behaves exactly like the theory.
    assert_eq!(
        handler_segments(&report.simulation, 1),
        handler_segments(&report.execution, 1)
    );
}

#[test]
fn figure_3_scenario_2_timeline() {
    let report = run_scenario(Scenario::Two);
    // "h2 does not begin its execution at time 8 because the remaining
    // capacity of the server is 1, which is less than the cost of h2."
    assert_eq!(handler_segments(&report.execution, 0), vec![(6, 8)]);
    assert_eq!(handler_segments(&report.execution, 1), vec![(12, 14)]);
    // "With the real PS policy, h2 should begin its execution at time 8,
    // suspend it at time 9 and resume it at time 12."
    assert_eq!(
        handler_segments(&report.simulation, 1),
        vec![(8, 9), (12, 13)]
    );
    // Responses: execution 6 and 10; simulation 6 and 9.
    assert_eq!(
        report.execution.outcomes[1].response_time(),
        Some(Span::from_units(10))
    );
    assert_eq!(
        report.simulation.outcomes[1].response_time(),
        Some(Span::from_units(9))
    );
}

#[test]
fn figure_4_scenario_3_timeline() {
    let report = run_scenario(Scenario::Three);
    // "h2 begins its execution at time 8 because its cost parameter is set to
    // 1, that is the remaining capacity, and is interrupted at time 9 because
    // the server has consumed all its capacity and because h2 has not
    // finished."
    assert_eq!(handler_segments(&report.execution, 1), vec![(8, 9)]);
    match report.execution.outcomes[1].fate {
        AperiodicFate::Interrupted {
            started,
            interrupted_at,
        } => {
            assert_eq!(started, Instant::from_units(8));
            assert_eq!(interrupted_at, Instant::from_units(9));
        }
        other => panic!("h2 must be interrupted, got {other:?}"),
    }
    // h1 is unaffected.
    assert_eq!(handler_segments(&report.execution, 0), vec![(6, 8)]);
    assert!(report.execution.outcomes[0].is_served());
}

#[test]
fn scenario_gantt_charts_render_every_actor() {
    for scenario in [Scenario::One, Scenario::Two, Scenario::Three] {
        let report = run_scenario(scenario);
        for chart in [&report.execution_gantt, &report.simulation_gantt] {
            assert!(
                chart.contains("tau1"),
                "figure {}: {chart}",
                scenario.figure()
            );
            assert!(chart.contains("tau2"));
            assert!(chart.contains('#'));
        }
    }
}

#[test]
fn deferrable_server_improves_scenario_2_response_times() {
    // Running the scenario-2 traffic under a DS (execution) serves both
    // events on arrival, which is the motivation for the DS policy.
    let mut spec = rtsj_event_framework::experiments::scenario_system(Scenario::Two);
    spec.server_mut().unwrap().policy = ServerPolicyKind::Deferrable;
    let trace = execute(&spec, &ExecutionConfig::ideal());
    assert_eq!(trace.outcomes[0].response_time(), Some(Span::from_units(2)));
    assert!(trace.outcomes[1].response_time().unwrap() < Span::from_units(10));
    assert!(trace.all_periodic_deadlines_met());
}
