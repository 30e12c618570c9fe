//! The body of a plain periodic `RealtimeThread`: the τ1, τ2 tasks of
//! Table 1, which consume a fixed cost every period.
//!
//! The task-server framework supplies its own, more elaborate bodies (the
//! polling and deferrable server loops). A handler bound directly to an
//! asynchronous event, outside any server, is a closure body
//! ([`crate::ThreadBody`] is implemented for closures) that waits for the
//! event and computes its cost at every fire.

use crate::body::{Action, BodyCtx, Completion, ThreadBody};
use rt_model::{ExecUnit, Span};

/// A periodic real-time thread body: waits for each periodic release, then
/// computes a fixed cost attributed to the given trace unit.
#[derive(Debug)]
pub struct PeriodicThreadBody {
    cost: Span,
    unit: ExecUnit,
}

impl PeriodicThreadBody {
    /// Creates the body.
    pub fn new(cost: Span, unit: ExecUnit) -> Self {
        PeriodicThreadBody { cost, unit }
    }
}

impl<W> ThreadBody<W> for PeriodicThreadBody {
    fn next_action(&mut self, _ctx: &mut BodyCtx<'_, W>, completion: Completion) -> Action {
        match completion {
            Completion::Started | Completion::Computed { .. } | Completion::Interrupted { .. } => {
                Action::WaitForNextPeriod
            }
            Completion::PeriodStarted => Action::Compute {
                amount: self.cost,
                unit: self.unit,
            },
            Completion::EventFired => {
                // A plain periodic thread never waits on events; treat a
                // stray wake-up as the start of a period so the thread keeps
                // its budget discipline rather than panicking.
                Action::Compute {
                    amount: self.cost,
                    unit: self.unit,
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig, EventHandle, World};
    use crate::overhead::OverheadModel;
    use rt_model::{EventId, Instant, Priority, TaskId};

    /// The `(started, finished)` instants of every completed run of the
    /// bound handlers of one engine, in completion order.
    #[derive(Debug, Default, PartialEq, Eq)]
    pub(crate) struct Runs(pub(crate) Vec<(Instant, Instant)>);

    impl World for Runs {}

    /// A handler bound to `event`, outside any server: every fire runs
    /// `cost` at the thread's own priority, and each completed run is
    /// logged into the engine's world.
    pub(crate) fn bound_handler(event: EventHandle, cost: Span) -> Box<dyn ThreadBody<Runs>> {
        let mut started = None;
        Box::new(
            move |ctx: &mut BodyCtx<'_, Runs>, completion: Completion| match completion {
                Completion::EventFired => {
                    started = Some(ctx.now());
                    Action::Compute {
                        amount: cost,
                        unit: ExecUnit::Handler(EventId::new(0)),
                    }
                }
                Completion::Computed { .. } => {
                    if let Some(start) = started.take() {
                        let finished = ctx.now();
                        ctx.world().0.push((start, finished));
                    }
                    Action::WaitForEvent(event)
                }
                _ => Action::WaitForEvent(event),
            },
        )
    }

    fn config(horizon: u64) -> EngineConfig {
        EngineConfig::new(Instant::from_units(horizon)).with_overhead(OverheadModel::none())
    }

    #[test]
    fn periodic_thread_body_runs_once_per_period() {
        let mut engine = Engine::new(config(18));
        engine.spawn_periodic(
            Priority::new(10),
            Instant::ZERO,
            Span::from_units(6),
            Box::new(PeriodicThreadBody::new(
                Span::from_units(2),
                ExecUnit::Task(TaskId::new(0)),
            )),
        );
        let trace = engine.run();
        assert_eq!(
            trace.busy_time(ExecUnit::Task(TaskId::new(0))),
            Span::from_units(6)
        );
        assert_eq!(trace.segments_of(ExecUnit::Task(TaskId::new(0))).count(), 3);
    }

    #[test]
    fn bound_handler_runs_once_per_fire_and_logs_response_times() {
        let mut engine = Engine::with_world(config(20), Runs::default());
        let event = engine.create_event();
        engine.add_one_shot_timer(Instant::from_units(2), event);
        engine.add_one_shot_timer(Instant::from_units(9), event);
        engine.spawn(Priority::new(20), bound_handler(event, Span::from_units(3)));
        let (trace, Runs(runs)) = engine.run_with_world();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].0, Instant::from_units(2));
        assert_eq!(runs[0].1, Instant::from_units(5));
        assert_eq!(runs[1].0, Instant::from_units(9));
        assert_eq!(runs[1].1, Instant::from_units(12));
        assert_eq!(
            trace.busy_time(ExecUnit::Handler(EventId::new(0))),
            Span::from_units(6)
        );
    }

    #[test]
    fn bound_handler_coexists_with_periodic_threads_by_priority() {
        let mut engine = Engine::with_world(config(12), Runs::default());
        let event = engine.create_event();
        engine.add_one_shot_timer(Instant::from_units(1), event);
        // Handler at high priority preempts the periodic task.
        engine.spawn(Priority::new(30), bound_handler(event, Span::from_units(2)));
        engine.spawn_periodic(
            Priority::new(10),
            Instant::ZERO,
            Span::from_units(12),
            Box::new(PeriodicThreadBody::new(
                Span::from_units(4),
                ExecUnit::Task(TaskId::new(0)),
            )),
        );
        let (trace, Runs(runs)) = engine.run_with_world();
        assert_eq!(runs[0].0, Instant::from_units(1));
        // The periodic task runs [0, 1), is preempted during [1, 3) and
        // finishes its remaining three units at 6.
        let task_segments: Vec<_> = trace.segments_of(ExecUnit::Task(TaskId::new(0))).collect();
        assert_eq!(task_segments.len(), 2);
        assert_eq!(task_segments[1].end, Instant::from_units(6));
    }
}
