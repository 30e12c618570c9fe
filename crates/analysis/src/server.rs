//! Feasibility analysis of the periodic task set in the presence of an
//! aperiodic task server.
//!
//! * A **Polling Server** "can be included in the feasibility analysis like
//!   any periodic task" (paper §2.1): it becomes an [`AnalysisTask`] with
//!   cost = capacity and period = period.
//! * A **Deferrable Server** can execute back-to-back across a replenishment
//!   boundary, so "the feasibility analysis for the periodic tasks must be
//!   modified" (paper §2.2, citing Strosnider et al. and Ghazalie & Baker).
//!   The standard way to capture the extra interference in RTA is to model
//!   the server as a periodic task with release jitter `T_s − C_s`.
//! * **Background servicing** never interferes with the periodic tasks: the
//!   analysis is that of the bare periodic set.

use crate::rta::{analyse, AnalysisTask, RtaResult};
use rt_model::{PeriodicTask, ServerPolicyKind, ServerSpec, Span};

/// How a server is folded into the periodic response-time analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerAnalysisModel {
    /// The equivalent analysis task injected at the server's priority, when
    /// the policy interferes with lower-priority tasks.
    pub equivalent_task: Option<AnalysisTask>,
}

/// Builds the equivalent analysis task of a server specification.
pub fn server_analysis_model(server: &ServerSpec) -> ServerAnalysisModel {
    match server.policy {
        ServerPolicyKind::Background => ServerAnalysisModel {
            equivalent_task: None,
        },
        ServerPolicyKind::Polling => ServerAnalysisModel {
            equivalent_task: Some(AnalysisTask::new(
                "server(PS)",
                server.capacity,
                server.period,
                server.priority,
            )),
        },
        ServerPolicyKind::Deferrable => ServerAnalysisModel {
            equivalent_task: Some(
                AnalysisTask::new(
                    "server(DS)",
                    server.capacity,
                    server.period,
                    server.priority,
                )
                .with_jitter(server.period - server.capacity),
            ),
        },
        // Sprunt, Sha & Lehoczky's theorem: a sporadic server is equivalent,
        // for worst-case interference, to a periodic task with the same
        // capacity and period — no back-to-back jitter, unlike the DS.
        ServerPolicyKind::Sporadic => ServerAnalysisModel {
            equivalent_task: Some(AnalysisTask::new(
                "server(SS)",
                server.capacity,
                server.period,
                server.priority,
            )),
        },
    }
}

/// Runs the response-time analysis of the periodic tasks together with the
/// server's equivalent task. The returned result contains one entry per
/// periodic task plus (when applicable) one entry for the server itself.
pub fn analyse_with_server(tasks: &[PeriodicTask], server: &ServerSpec) -> RtaResult {
    analyse_with_servers(tasks, std::slice::from_ref(server))
}

/// Runs the response-time analysis of the periodic tasks together with the
/// equivalent task of *every* server of a multi-server system: each server
/// folds in independently (PS and SS as plain periodic tasks, DS with
/// back-to-back jitter), so the result contains one entry per periodic task
/// plus one per interfering server.
pub fn analyse_with_servers(tasks: &[PeriodicTask], servers: &[ServerSpec]) -> RtaResult {
    let mut analysis_tasks: Vec<AnalysisTask> = Vec::with_capacity(tasks.len() + servers.len());
    for server in servers {
        if let Some(equivalent) = server_analysis_model(server).equivalent_task {
            analysis_tasks.push(equivalent);
        }
    }
    analysis_tasks.extend(tasks.iter().map(AnalysisTask::from_periodic));
    analyse(&analysis_tasks)
}

/// True when every periodic task (and the server, dimensioned as a periodic
/// task) meets its deadline under the given server policy.
pub fn periodic_set_feasible_with_server(tasks: &[PeriodicTask], server: &ServerSpec) -> bool {
    analyse_with_server(tasks, server).all_schedulable()
}

/// True when every periodic task and every server's equivalent task meet
/// their deadlines in a multi-server system.
pub fn periodic_set_feasible_with_servers(tasks: &[PeriodicTask], servers: &[ServerSpec]) -> bool {
    analyse_with_servers(tasks, servers).all_schedulable()
}

/// Largest server capacity (at the given period and priority, for the given
/// policy) that keeps the periodic task set schedulable, found by binary
/// search on the capacity in ticks. Returns [`Span::ZERO`] when even a
/// minimal server does not fit.
///
/// This is the dimensioning question a system designer using the framework
/// has to answer before constructing a `TaskServerParameters`.
pub fn max_feasible_capacity(
    tasks: &[PeriodicTask],
    period: Span,
    priority: rt_model::Priority,
    policy: ServerPolicyKind,
) -> Span {
    let make = |capacity: Span| ServerSpec {
        policy,
        capacity,
        period,
        priority,
        discipline: rt_model::QueueDiscipline::FifoSkip,
        admission: Default::default(),
    };
    if !periodic_set_feasible_with_server(tasks, &make(Span::from_ticks(1))) {
        return Span::ZERO;
    }
    let mut lo = 1u64; // feasible
    let mut hi = period.ticks(); // capacity cannot exceed the period
    if periodic_set_feasible_with_server(tasks, &make(period)) {
        return period;
    }
    // Invariant: lo feasible, hi infeasible.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if periodic_set_feasible_with_server(tasks, &make(Span::from_ticks(mid))) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Span::from_ticks(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_model::{Priority, TaskId};

    fn task(id: u32, cost: u64, period: u64, prio: u8) -> PeriodicTask {
        PeriodicTask::new(
            TaskId::new(id),
            format!("tau{id}"),
            Span::from_units(cost),
            Span::from_units(period),
            Priority::new(prio),
        )
    }

    fn table1_tasks() -> Vec<PeriodicTask> {
        vec![task(1, 2, 6, 20), task(2, 1, 6, 10)]
    }

    #[test]
    fn background_server_has_no_equivalent_task() {
        let model = server_analysis_model(&ServerSpec::background(Priority::MIN));
        assert!(model.equivalent_task.is_none());
    }

    #[test]
    fn polling_server_is_a_plain_periodic_task() {
        let s = ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30));
        let eq = server_analysis_model(&s).equivalent_task.unwrap();
        assert_eq!(eq.jitter, Span::ZERO);
        assert_eq!(eq.cost, Span::from_units(3));
    }

    #[test]
    fn sporadic_server_analyses_like_a_periodic_task() {
        let s = ServerSpec::sporadic(Span::from_units(3), Span::from_units(6), Priority::new(30));
        let eq = server_analysis_model(&s).equivalent_task.unwrap();
        assert_eq!(eq.jitter, Span::ZERO, "no DS back-to-back penalty");
        assert_eq!(eq.cost, Span::from_units(3));
        // Consequence: the Table 1 set that a DS of the same size breaks
        // stays feasible under an SS, exactly as under a PS.
        assert!(periodic_set_feasible_with_server(&table1_tasks(), &s));
    }

    #[test]
    fn multi_server_analysis_folds_every_server_in() {
        let tasks = vec![task(1, 1, 10, 20), task(2, 2, 30, 10)];
        let one = ServerSpec::polling(Span::from_units(2), Span::from_units(10), Priority::new(31));
        let two =
            ServerSpec::sporadic(Span::from_units(2), Span::from_units(12), Priority::new(30));
        let result = analyse_with_servers(&tasks, &[one.clone(), two.clone()]);
        assert!(result.all_schedulable());
        // Both servers appear in the result, and the two-server response of
        // tau2 is no smaller than the single-server one.
        assert!(result.response_of("server(PS)").is_some());
        assert!(result.response_of("server(SS)").is_some());
        let single = analyse_with_server(&tasks, &one)
            .response_of("tau2")
            .unwrap();
        let multi = result.response_of("tau2").unwrap();
        assert!(multi >= single);
        assert!(periodic_set_feasible_with_servers(&tasks, &[one, two]));
    }

    #[test]
    fn deferrable_server_carries_jitter() {
        let s = ServerSpec::deferrable(Span::from_units(3), Span::from_units(6), Priority::new(30));
        let eq = server_analysis_model(&s).equivalent_task.unwrap();
        assert_eq!(eq.jitter, Span::from_units(3));
    }

    /// Regression: a DS below another server is judged by its busy window
    /// alone. Its back-to-back jitter (9 tu here) widens only what it
    /// inflicts on the entries below it; added to its own response, it made
    /// the DS "respond" in 11 tu against its 10 tu deadline.
    #[test]
    fn a_deferrable_server_below_another_server_meets_its_own_deadline() {
        let ps = ServerSpec::polling(Span::from_units(1), Span::from_units(10), Priority::new(30));
        let ds =
            ServerSpec::deferrable(Span::from_units(1), Span::from_units(10), Priority::new(29));
        let servers = [ps, ds];
        let result = analyse_with_servers(&[], &servers);
        assert_eq!(result.response_of("server(DS)"), Some(Span::from_units(2)));
        assert!(periodic_set_feasible_with_servers(&[], &servers));
    }

    #[test]
    fn paper_example_is_feasible_with_polling_server() {
        let s = ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30));
        let result = analyse_with_server(&table1_tasks(), &s);
        assert!(result.all_schedulable());
        assert_eq!(result.response_of("tau2"), Some(Span::from_units(6)));
    }

    #[test]
    fn paper_example_is_infeasible_with_deferrable_server_of_same_size() {
        // The DS back-to-back effect makes capacity 3 / period 6 too much for
        // tau2 (utilisation is already 1.0 without jitter headroom).
        let s = ServerSpec::deferrable(Span::from_units(3), Span::from_units(6), Priority::new(30));
        let result = analyse_with_server(&table1_tasks(), &s);
        assert!(!result.all_schedulable());
    }

    #[test]
    fn deferrable_analysis_is_more_pessimistic_than_polling() {
        let tasks = vec![task(1, 2, 10, 20), task(2, 3, 30, 10)];
        let ps = ServerSpec::polling(Span::from_units(2), Span::from_units(8), Priority::new(30));
        let ds =
            ServerSpec::deferrable(Span::from_units(2), Span::from_units(8), Priority::new(30));
        let r_ps = analyse_with_server(&tasks, &ps)
            .response_of("tau2")
            .unwrap();
        let r_ds = analyse_with_server(&tasks, &ds)
            .response_of("tau2")
            .unwrap();
        assert!(r_ds >= r_ps);
    }

    #[test]
    fn max_feasible_capacity_binary_search() {
        let tasks = vec![task(1, 2, 10, 20), task(2, 2, 20, 10)];
        let cap_ps = max_feasible_capacity(
            &tasks,
            Span::from_units(6),
            Priority::new(30),
            ServerPolicyKind::Polling,
        );
        assert!(cap_ps > Span::ZERO);
        // The found capacity is feasible…
        let spec = ServerSpec::polling(cap_ps, Span::from_units(6), Priority::new(30));
        assert!(periodic_set_feasible_with_server(&tasks, &spec));
        // …and one more tick is not (unless the whole period fits).
        if cap_ps < Span::from_units(6) {
            let spec = ServerSpec::polling(
                cap_ps + Span::from_ticks(1),
                Span::from_units(6),
                Priority::new(30),
            );
            assert!(!periodic_set_feasible_with_server(&tasks, &spec));
        }
        // The DS capacity can never exceed the PS capacity.
        let cap_ds = max_feasible_capacity(
            &tasks,
            Span::from_units(6),
            Priority::new(30),
            ServerPolicyKind::Deferrable,
        );
        assert!(cap_ds <= cap_ps);
    }

    #[test]
    fn max_feasible_capacity_zero_when_nothing_fits() {
        // A periodic set already at utilisation 1 with the same period leaves
        // no room for any server at top priority.
        let tasks = vec![task(1, 6, 6, 20)];
        let cap = max_feasible_capacity(
            &tasks,
            Span::from_units(6),
            Priority::new(30),
            ServerPolicyKind::Polling,
        );
        assert_eq!(cap, Span::ZERO);
    }
}
