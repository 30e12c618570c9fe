//! The paper's worked example: the Table 1 task set and the three scenarios
//! of Figures 2–4.
//!
//! Each scenario is executed on the task-server framework (the paper's
//! figures illustrate the *implementation* behaviour) and simulated with the
//! literature-exact policy for comparison; both traces and their temporal
//! diagrams are returned.

use rt_model::{Instant, Priority, ServerPolicyKind, ServerSpec, Span, SystemSpec, Trace};
use rt_taskserver::{execute, ExecutionConfig};
use rtss_sim::{render_ascii, simulate, GanttOptions};

/// Which of the paper's scenarios to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Figure 2: e1 fired at 0 and e2 at 6, both served immediately.
    One,
    /// Figure 3: e1 at 2 and e2 at 4; h2 is delayed to the next activation.
    Two,
    /// Figure 4: like scenario 2 but h2 declares a cost of 1 and is
    /// interrupted by budget enforcement.
    Three,
}

impl Scenario {
    /// Figure number in the paper.
    pub fn figure(&self) -> u32 {
        match self {
            Scenario::One => 2,
            Scenario::Two => 3,
            Scenario::Three => 4,
        }
    }
}

/// The Table 1 task set (PS capacity 3, period 6 at the highest priority;
/// τ1 cost 2 and τ2 cost 1, both period 6) with the given aperiodic firings.
pub fn table1_system(
    policy: ServerPolicyKind,
    events: &[(u64, u64, Option<u64>)],
    horizon_periods: u64,
) -> SystemSpec {
    let mut b = SystemSpec::builder("table-1");
    b.server(ServerSpec {
        policy,
        capacity: Span::from_units(3),
        period: Span::from_units(6),
        priority: Priority::new(30),
        discipline: rt_model::QueueDiscipline::FifoSkip,
        admission: Default::default(),
    });
    b.periodic(
        "tau1",
        Span::from_units(2),
        Span::from_units(6),
        Priority::new(20),
    );
    b.periodic(
        "tau2",
        Span::from_units(1),
        Span::from_units(6),
        Priority::new(10),
    );
    for &(release, actual, declared) in events {
        b.aperiodic_with(
            Instant::from_units(release),
            Span::from_units(declared.unwrap_or(actual)),
            Span::from_units(actual),
        );
    }
    b.horizon_server_periods(horizon_periods);
    // rt-lint: allow(panic, reason = "the Table 1 scenario is the paper's hand-written example system, statically known to be valid")
    b.build().expect("the Table 1 system is valid")
}

/// The system of one scenario.
pub fn scenario_system(scenario: Scenario) -> SystemSpec {
    let events: &[(u64, u64, Option<u64>)] = match scenario {
        Scenario::One => &[(0, 2, None), (6, 2, None)],
        Scenario::Two => &[(2, 2, None), (4, 2, None)],
        Scenario::Three => &[(2, 2, None), (4, 2, Some(1))],
    };
    table1_system(ServerPolicyKind::Polling, events, 3)
}

/// Execution + simulation of one scenario, with rendered temporal diagrams.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario.
    pub scenario: Scenario,
    /// The system that was run.
    pub system: SystemSpec,
    /// Trace of the framework execution (what the paper's figure shows).
    pub execution: Trace,
    /// Trace of the literature-exact simulation.
    pub simulation: Trace,
    /// ASCII temporal diagram of the execution.
    pub execution_gantt: String,
    /// ASCII temporal diagram of the simulation.
    pub simulation_gantt: String,
}

/// Runs one scenario. The execution uses the ideal (zero-overhead)
/// configuration, matching the idealised timeline the paper draws.
pub fn run_scenario(scenario: Scenario) -> ScenarioReport {
    let system = scenario_system(scenario);
    let execution = execute(&system, &ExecutionConfig::ideal());
    let simulation = simulate(&system);
    let options = GanttOptions {
        column_units: 1.0,
        max_columns: 20,
    };
    let execution_gantt = render_ascii(&execution, Some(&system), options);
    let simulation_gantt = render_ascii(&simulation, Some(&system), options);
    ScenarioReport {
        scenario,
        system,
        execution,
        simulation,
        execution_gantt,
        simulation_gantt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_model::{AperiodicFate, ExecUnit};

    fn handler_window(trace: &Trace, event: u32) -> Vec<(u64, u64)> {
        trace
            .segments_of(ExecUnit::Handler(rt_model::EventId::new(event)))
            .map(|s| (s.start.ticks() / 1000, s.end.ticks() / 1000))
            .collect()
    }

    #[test]
    fn scenario1_matches_figure_2() {
        let report = run_scenario(Scenario::One);
        assert_eq!(report.scenario.figure(), 2);
        assert_eq!(handler_window(&report.execution, 0), vec![(0, 2)]);
        assert_eq!(handler_window(&report.execution, 1), vec![(6, 8)]);
        // Scenario 1 is a case where implementation and theory agree.
        assert_eq!(handler_window(&report.simulation, 0), vec![(0, 2)]);
        assert_eq!(handler_window(&report.simulation, 1), vec![(6, 8)]);
        assert!(report.execution_gantt.contains("tau1"));
        // The event row is labelled by the event's id.
        assert!(report
            .execution_gantt
            .lines()
            .any(|row| row.starts_with("e1   ......##")));
    }

    #[test]
    fn scenario2_matches_figure_3_and_diverges_from_theory() {
        let report = run_scenario(Scenario::Two);
        // Implementation: h2 delayed to the next activation (12..14).
        assert_eq!(handler_window(&report.execution, 1), vec![(12, 14)]);
        // Theory (simulation): h2 split across 8..9 and 12..13.
        assert_eq!(
            handler_window(&report.simulation, 1),
            vec![(8, 9), (12, 13)]
        );
    }

    #[test]
    fn scenario3_matches_figure_4() {
        let report = run_scenario(Scenario::Three);
        assert_eq!(handler_window(&report.execution, 1), vec![(8, 9)]);
        let h2 = &report.execution.outcomes[1];
        match h2.fate {
            AperiodicFate::Interrupted {
                started,
                interrupted_at,
            } => {
                assert_eq!(started, Instant::from_units(8));
                assert_eq!(interrupted_at, Instant::from_units(9));
            }
            other => panic!("h2 must be interrupted, got {other:?}"),
        }
    }

    #[test]
    fn periodic_tasks_meet_their_deadlines_in_every_scenario() {
        for scenario in [Scenario::One, Scenario::Two, Scenario::Three] {
            let report = run_scenario(scenario);
            assert!(report.execution.all_periodic_deadlines_met());
            assert!(report.simulation.all_periodic_deadlines_met());
        }
    }
}
