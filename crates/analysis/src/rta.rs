//! Exact response-time analysis (RTA) for preemptive fixed-priority systems.
//!
//! This is the off-line feasibility machinery the paper assumes for the
//! periodic part of the system ("a periodic task server is a periodic task,
//! for which classical response time determination and admission control
//! methods are applicable"). The recurrence solved here is the classical
//! Joseph & Pandya / Audsley formulation with release jitter:
//!
//! ```text
//! R_i = C_i + Σ_{j ∈ hp(i)} ⌈ (R_i + J_j) / T_j ⌉ · C_j
//! ```
//!
//! Release jitter is what lets the same code analyse a Deferrable Server:
//! a DS of capacity `C_s` and period `T_s` behaves, from the point of view of
//! lower-priority tasks, like a periodic task with jitter `T_s − C_s`
//! (it may execute back-to-back at the end of one period and the start of
//! the next). See [`crate::server`]. The jitter models interference only:
//! the DS is not released late, so a task's own jitter does not enter its
//! own response time.

use rt_model::{Priority, Span};

/// A task as seen by the analysis: the scheduling parameters only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisTask {
    /// Descriptive name used in analysis reports.
    pub name: String,
    /// Worst-case execution time.
    pub cost: Span,
    /// Period (or minimum inter-arrival time).
    pub period: Span,
    /// Relative deadline.
    pub deadline: Span,
    /// Fixed priority (higher value = higher priority).
    pub priority: Priority,
    /// Release jitter the task imposes on lower-priority tasks (the DS
    /// back-to-back effect); it does not delay the task's own response.
    pub jitter: Span,
}

impl AnalysisTask {
    /// Creates an implicit-deadline task with no jitter.
    pub fn new(name: impl Into<String>, cost: Span, period: Span, priority: Priority) -> Self {
        AnalysisTask {
            name: name.into(),
            cost,
            period,
            deadline: period,
            priority,
            jitter: Span::ZERO,
        }
    }

    /// Sets the relative deadline.
    pub fn with_deadline(mut self, deadline: Span) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the release jitter.
    pub fn with_jitter(mut self, jitter: Span) -> Self {
        self.jitter = jitter;
        self
    }

    /// Converts a [`rt_model::PeriodicTask`] descriptor.
    pub fn from_periodic(task: &rt_model::PeriodicTask) -> Self {
        AnalysisTask {
            name: task.name.clone(),
            cost: task.cost,
            period: task.period,
            deadline: task.deadline,
            priority: task.priority,
            jitter: Span::ZERO,
        }
    }
}

/// Outcome of the analysis for one task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskResponse {
    /// The analysed task's name.
    pub name: String,
    /// Worst-case response time, `None` when the recurrence diverged (the
    /// task set is unschedulable at this priority level).
    pub response_time: Option<Span>,
    /// Relative deadline the response time is compared against.
    pub deadline: Span,
}

impl TaskResponse {
    /// True when a finite response time exists and meets the deadline.
    fn is_schedulable(&self) -> bool {
        matches!(self.response_time, Some(r) if r <= self.deadline)
    }
}

/// Result of analysing a complete task set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtaResult {
    /// Per-task responses, in the order the tasks were supplied.
    pub tasks: Vec<TaskResponse>,
}

impl RtaResult {
    /// True when every task is schedulable.
    pub fn all_schedulable(&self) -> bool {
        self.tasks.iter().all(|t| t.is_schedulable())
    }

    /// Response time of the task with the given name, if it was analysed and
    /// converged.
    pub fn response_of(&self, name: &str) -> Option<Span> {
        self.tasks
            .iter()
            .find(|t| t.name == name)
            .and_then(|t| t.response_time)
    }
}

/// Upper bound on the iterations of the fixpoint loop, to guard against a
/// pathological non-converging instance with enormous hyperperiods.
const MAX_ITERATIONS: u32 = 100_000;

/// Worst-case response time of one task given the set of strictly
/// higher-priority tasks, solving the jitter-aware recurrence by fixed-point
/// iteration: the higher-priority tasks' jitter widens their interference,
/// and the task's own jitter is left out. Returns `None` when the demand
/// never stabilises within the task's deadline-bounded search window
/// (unschedulable).
pub fn response_time(task: &AnalysisTask, higher_priority: &[AnalysisTask]) -> Option<Span> {
    // The search is abandoned once the candidate response exceeds the
    // deadline and the period: past that point the task is unschedulable
    // for the purpose of a feasibility verdict.
    let give_up = task.deadline.max(task.period).saturating_mul(1_000);
    let mut r = task.cost;
    for _ in 0..MAX_ITERATIONS {
        let mut demand = task.cost;
        for hp in higher_priority {
            if hp.period.is_zero() {
                return None;
            }
            let interference_jobs = (r + hp.jitter).div_ceil_span(hp.period);
            demand += hp.cost.saturating_mul(interference_jobs);
        }
        if demand == r {
            return Some(r);
        }
        if demand > give_up {
            return None;
        }
        r = demand;
    }
    None
}

/// Runs the response-time analysis for a whole task set under preemptive
/// fixed priorities. Tasks of equal priority are assumed to interfere with
/// each other (FIFO within a level would be needed otherwise), which is the
/// conservative choice.
pub fn analyse(tasks: &[AnalysisTask]) -> RtaResult {
    let mut out = Vec::with_capacity(tasks.len());
    for (i, task) in tasks.iter().enumerate() {
        let higher: Vec<AnalysisTask> = tasks
            .iter()
            .enumerate()
            .filter(|(j, other)| {
                *j != i
                    && (other.priority.preempts(task.priority) || other.priority == task.priority)
            })
            .map(|(_, t)| t.clone())
            .collect();
        out.push(TaskResponse {
            name: task.name.clone(),
            response_time: response_time(task, &higher),
            deadline: task.deadline,
        });
    }
    RtaResult { tasks: out }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(name: &str, cost: u64, period: u64, prio: u8) -> AnalysisTask {
        AnalysisTask::new(
            name,
            Span::from_units(cost),
            Span::from_units(period),
            Priority::new(prio),
        )
    }

    #[test]
    fn single_task_response_is_its_cost() {
        let task = t("solo", 3, 10, 10);
        assert_eq!(response_time(&task, &[]), Some(Span::from_units(3)));
    }

    #[test]
    fn textbook_three_task_example() {
        // Classic example: C=(1,2,3), T=(4,6,12), RM priorities.
        let tasks = vec![t("t1", 1, 4, 30), t("t2", 2, 6, 20), t("t3", 3, 12, 10)];
        let result = analyse(&tasks);
        assert_eq!(result.response_of("t1"), Some(Span::from_units(1)));
        assert_eq!(result.response_of("t2"), Some(Span::from_units(3)));
        // t3: R = 3 + 2*1 + 1*2 ... fixpoint at 10: ceil(10/4)*1 + ceil(10/6)*2 = 3 + 4 = 7, 3+7 = 10.
        assert_eq!(result.response_of("t3"), Some(Span::from_units(10)));
        assert!(result.all_schedulable());
    }

    #[test]
    fn paper_table1_periodic_tasks_under_the_server() {
        // PS (3,6) at top priority, tau1 (2,6), tau2 (1,6): utilisation 1,
        // schedulable because the periods are identical.
        let tasks = vec![t("ps", 3, 6, 30), t("tau1", 2, 6, 20), t("tau2", 1, 6, 10)];
        let result = analyse(&tasks);
        assert_eq!(result.response_of("ps"), Some(Span::from_units(3)));
        assert_eq!(result.response_of("tau1"), Some(Span::from_units(5)));
        assert_eq!(result.response_of("tau2"), Some(Span::from_units(6)));
        assert!(result.all_schedulable());
    }

    #[test]
    fn overloaded_set_is_reported_unschedulable() {
        // U = 5/6 + 3/6 > 1: the victim's busy window still converges (to 18,
        // three hog jobs plus its own cost) but far beyond its deadline of 6.
        let tasks = vec![t("hog", 5, 6, 30), t("victim", 3, 6, 10)];
        let result = analyse(&tasks);
        assert_eq!(result.response_of("hog"), Some(Span::from_units(5)));
        assert_eq!(result.response_of("victim"), Some(Span::from_units(18)));
        assert!(!result.tasks[1].is_schedulable());
        assert!(!result.all_schedulable());
    }

    #[test]
    fn diverging_recurrence_returns_none() {
        // The victim can never catch up: every window of length w contains
        // strictly more higher-priority work than w (two hogs saturate the
        // processor on their own), so the recurrence diverges.
        let tasks = vec![
            t("hog1", 3, 6, 30),
            t("hog2", 4, 6, 29),
            t("victim", 3, 6, 10),
        ];
        let result = analyse(&tasks);
        assert_eq!(result.tasks[2].response_time, None);
        assert!(!result.all_schedulable());
    }

    #[test]
    fn jitter_increases_interference_and_response() {
        let victim = t("victim", 2, 20, 10);
        let plain_hp = vec![t("hp", 4, 10, 30)];
        let jittery_hp = vec![t("hp", 4, 10, 30).with_jitter(Span::from_units(6))];
        let plain = response_time(&victim, &plain_hp).unwrap();
        let jittery = response_time(&victim, &jittery_hp).unwrap();
        assert!(jittery > plain, "jitter must not reduce the response time");
        // With jitter 6: first window of 6 already counts ceil((6+6)/10)=2 jobs.
        assert_eq!(plain, Span::from_units(6));
        assert_eq!(jittery, Span::from_units(10));
    }

    #[test]
    fn own_jitter_only_delays_lower_priority_tasks() {
        let task = t("j", 2, 20, 10).with_jitter(Span::from_units(3));
        assert_eq!(response_time(&task, &[]), Some(Span::from_units(2)));
    }

    #[test]
    fn equal_priorities_interfere_conservatively() {
        let tasks = vec![t("a", 2, 10, 20), t("b", 2, 10, 20)];
        let result = analyse(&tasks);
        assert_eq!(result.response_of("a"), Some(Span::from_units(4)));
        assert_eq!(result.response_of("b"), Some(Span::from_units(4)));
    }

    #[test]
    fn from_periodic_conversion() {
        let p = rt_model::PeriodicTask::new(
            rt_model::TaskId::new(0),
            "tau1",
            Span::from_units(2),
            Span::from_units(6),
            Priority::new(20),
        );
        let a = AnalysisTask::from_periodic(&p);
        assert_eq!(a.cost, Span::from_units(2));
        assert_eq!(a.deadline, Span::from_units(6));
        assert_eq!(a.jitter, Span::ZERO);
    }
}
