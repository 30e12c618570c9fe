//! Reusable schedulable bodies: the emulation-level equivalents of
//! `AsyncEventHandler` and of a plain periodic `RealtimeThread`.
//!
//! The task-server framework supplies its own, more elaborate bodies (the
//! polling and deferrable server loops); the ones here cover the two simpler
//! RTSJ patterns the paper's systems also contain:
//!
//! * [`PeriodicThreadBody`] — a periodic real-time thread that consumes a
//!   fixed cost every period (the τ1, τ2 tasks of Table 1);
//! * [`BoundHandlerBody`] — a handler bound directly to an asynchronous
//!   event, released once per fire, running at its own priority *outside*
//!   any server (the standard RTSJ way, which the paper points out can only
//!   be analysed if the event has a known worst-case arrival rate).

use crate::body::{Action, BodyCtx, Completion, ThreadBody};
use crate::engine::EventHandle;
use rt_model::{ExecUnit, Span};
use std::cell::RefCell;
use std::rc::Rc;

/// Completion log entry produced by [`BoundHandlerBody`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandlerRun {
    /// Virtual instant at which the handler started this run.
    pub started: rt_model::Instant,
    /// Virtual instant at which the handler finished this run.
    pub finished: rt_model::Instant,
}

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

/// A handler bound to an asynchronous event: each fire releases one execution
/// of the handler's cost, at the handler's own priority. Starts and
/// completions are appended to a shared log so tests and examples can observe
/// response times.
pub struct BoundHandlerBody {
    event: EventHandle,
    cost: Span,
    unit: ExecUnit,
    runs: Rc<RefCell<Vec<HandlerRun>>>,
    current_start: Option<rt_model::Instant>,
}

impl BoundHandlerBody {
    /// Creates the body and returns it together with the shared run log.
    pub fn new(
        event: EventHandle,
        cost: Span,
        unit: ExecUnit,
    ) -> (Self, Rc<RefCell<Vec<HandlerRun>>>) {
        let runs = Rc::new(RefCell::new(Vec::new()));
        (
            BoundHandlerBody {
                event,
                cost,
                unit,
                runs: runs.clone(),
                current_start: None,
            },
            runs,
        )
    }
}

impl<W> ThreadBody<W> for BoundHandlerBody {
    fn next_action(&mut self, ctx: &mut BodyCtx<'_, W>, completion: Completion) -> Action {
        match completion {
            Completion::Started => Action::WaitForEvent(self.event),
            Completion::EventFired => {
                self.current_start = Some(ctx.now());
                Action::Compute {
                    amount: self.cost,
                    unit: self.unit,
                }
            }
            Completion::Computed { .. } => {
                if let Some(started) = self.current_start.take() {
                    self.runs.borrow_mut().push(HandlerRun {
                        started,
                        finished: ctx.now(),
                    });
                }
                Action::WaitForEvent(self.event)
            }
            Completion::Interrupted { .. } => {
                // A bound handler outside a server has no budget; an
                // interruption can only come from a future extension. Drop
                // the partial run and wait for the next fire.
                self.current_start = None;
                Action::WaitForEvent(self.event)
            }
            Completion::PeriodStarted => Action::WaitForEvent(self.event),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::overhead::OverheadModel;
    use rt_model::{Instant, Priority, TaskId};

    fn engine(horizon: u64) -> Engine {
        Engine::new(
            EngineConfig::new(Instant::from_units(horizon)).with_overhead(OverheadModel::none()),
        )
    }

    #[test]
    fn periodic_thread_body_runs_once_per_period() {
        let mut engine = engine(18);
        engine.spawn_periodic(
            "tau",
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
        let mut engine = engine(20);
        let event = engine.create_event();
        engine.add_one_shot_timer(Instant::from_units(2), event);
        engine.add_one_shot_timer(Instant::from_units(9), event);
        let (body, runs) = BoundHandlerBody::new(
            event,
            Span::from_units(3),
            ExecUnit::Handler(rt_model::EventId::new(0)),
        );
        engine.spawn("handler", Priority::new(20), Box::new(body));
        let trace = engine.run();
        let runs = runs.borrow();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].started, Instant::from_units(2));
        assert_eq!(runs[0].finished, Instant::from_units(5));
        assert_eq!(runs[1].started, Instant::from_units(9));
        assert_eq!(runs[1].finished, Instant::from_units(12));
        assert_eq!(
            trace.busy_time(ExecUnit::Handler(rt_model::EventId::new(0))),
            Span::from_units(6)
        );
    }

    #[test]
    fn bound_handler_coexists_with_periodic_threads_by_priority() {
        let mut engine = engine(12);
        let event = engine.create_event();
        engine.add_one_shot_timer(Instant::from_units(1), event);
        // Handler at high priority preempts the periodic task.
        let (body, runs) = BoundHandlerBody::new(
            event,
            Span::from_units(2),
            ExecUnit::Handler(rt_model::EventId::new(0)),
        );
        engine.spawn("handler", Priority::new(30), Box::new(body));
        engine.spawn_periodic(
            "tau",
            Priority::new(10),
            Instant::ZERO,
            Span::from_units(12),
            Box::new(PeriodicThreadBody::new(
                Span::from_units(4),
                ExecUnit::Task(TaskId::new(0)),
            )),
        );
        let trace = engine.run();
        assert_eq!(runs.borrow()[0].started, Instant::from_units(1));
        // The periodic task runs [0, 1), is preempted during [1, 3) and
        // finishes its remaining three units at 6.
        let task_segments: Vec<_> = trace.segments_of(ExecUnit::Task(TaskId::new(0))).collect();
        assert_eq!(task_segments.len(), 2);
        assert_eq!(task_segments[1].end, Instant::from_units(6));
    }
}
