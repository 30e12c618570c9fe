//! The Deferrable Task Server (`DeferrableTaskServer`, paper §4.2) and the
//! background-servicing baseline.
//!
//! "Unlike the PS, the DS can serve an aperiodic task at any time as it has
//! enough capacity. So the `run()` method can no longer be delegated to a
//! periodic real-time thread. Instead, it is delegated to an AEH bound to a
//! specific AE we call `wakeUp`. Each time an aperiodic event occurs, if the
//! server is not already running, this event is fired. Moreover, we add a
//! periodic timer which fires `wakeUp` if the server is not already running."
//!
//! The same event-driven body also implements background servicing (the
//! baseline of §2: all aperiodic work at a low priority, no capacity limit):
//! the only difference is the policy stored in the shared state, which makes
//! [`crate::state::ServerShared::granted_budget`] unlimited and capacity
//! consumption a no-op.
//!
//! ## Capacity accounting across a replenishment boundary
//!
//! When the DS serves an event across its replenishment boundary (the §4.2
//! extension rule), the replenishment timer refills the capacity mid-service
//! and the whole consumed time is then debited from the refreshed capacity
//! (saturating at zero). This is marginally more conservative than splitting
//! the consumption across the two periods, and matches what an implementation
//! that simply "measures the time passed in the run method and decreases the
//! remaining capacity accordingly" does.

use crate::serve::{ServeStep, ServiceLoop};
use crate::state::SharedServer;
use rtsj_emu::{Action, BodyCtx, Completion, EventHandle, ThreadBody};

/// The schedulable body of an event-driven server (Deferrable Server or
/// background servicing): an asynchronous event handler bound to a `wakeUp`
/// event, serving the pending queue whenever it is woken and capacity allows.
#[derive(Debug)]
pub struct EventDrivenServerBody {
    service: ServiceLoop,
    wakeup: EventHandle,
    /// Chunk-replenishment event of a lane that may mode-swap into the
    /// Sporadic policy (`None` otherwise): once the lane runs as a sporadic
    /// server, going idle closes the open consumption chunk and arms its
    /// replenishment timer exactly like [`crate::sporadic`] does.
    replenish: Option<EventHandle>,
}

impl EventDrivenServerBody {
    /// Creates the body over the shared server state; `wakeup` is the event
    /// fired both by servable events and by the replenishment timer.
    pub fn new(shared: SharedServer, wakeup: EventHandle) -> Self {
        EventDrivenServerBody {
            service: ServiceLoop::new(shared),
            wakeup,
            replenish: None,
        }
    }

    /// Attaches the chunk-replenishment event armed when the lane runs under
    /// a mode-swapped Sporadic policy.
    pub fn with_replenish(mut self, replenish: EventHandle) -> Self {
        self.replenish = Some(replenish);
        self
    }

    fn idle_action(&self, ctx: &mut BodyCtx) -> Action {
        // A no-op unless the lane currently runs as a sporadic server
        // (close_sporadic_chunk is policy-gated): mode-swapped lanes arm
        // their replenishment timers here, original DS/BG lanes never do.
        if let Some(replenish) = self.replenish {
            if let Some(at) = self.service.shared().borrow_mut().close_sporadic_chunk() {
                ctx.arm_timer(at, replenish);
            }
        }
        Action::WaitForEvent(self.wakeup)
    }
}

impl ThreadBody for EventDrivenServerBody {
    fn next_action(&mut self, ctx: &mut BodyCtx, completion: Completion) -> Action {
        // Publish the replenishment-derived deadline at every pump so an
        // EDF engine ranks the server correctly; a no-op under fixed
        // priorities (background servicing publishes Instant::MAX, the
        // unchanged default).
        let deadline = self.service.shared().borrow().edf_deadline(ctx.now());
        ctx.set_deadline(deadline);
        match completion {
            Completion::Started => self.idle_action(ctx),
            Completion::EventFired | Completion::PeriodStarted | Completion::TimeReached => {
                match self.service.try_dispatch(ctx.now()) {
                    ServeStep::Continue(action) => action,
                    ServeStep::Idle => self.idle_action(ctx),
                }
            }
            Completion::Computed { .. } | Completion::Interrupted { .. } => {
                match self.service.on_completion(ctx, completion) {
                    ServeStep::Continue(action) => action,
                    ServeStep::Idle => self.idle_action(ctx),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::{QueuedRelease, ServableHandler};
    use crate::queue::QueueKind;
    use crate::state::ServerShared;
    use rt_model::{
        EventId, ExecUnit, HandlerId, Instant, Priority, ServerPolicyKind, Span, TaskId,
    };
    use rtsj_emu::{Engine, EngineConfig, OverheadModel, PeriodicThreadBody, TaskServerParameters};

    /// Builds the Table 1 periodic pair plus an event-driven server of the
    /// given policy and capacity, with the given (release, cost) firings.
    fn run_event_driven(
        policy: ServerPolicyKind,
        capacity: u64,
        priority: u8,
        events: &[(u64, u64)],
        horizon: u64,
    ) -> (SharedServer, rt_model::Trace) {
        let params = TaskServerParameters::new(
            Span::from_units(capacity),
            Span::from_units(6),
            Priority::new(30),
        );
        let shared = ServerShared::new(
            params,
            policy,
            OverheadModel::none(),
            QueueKind::Fifo,
            rt_model::QueueDiscipline::FifoSkip,
        );
        let mut engine = Engine::new(
            EngineConfig::new(Instant::from_units(horizon)).with_overhead(OverheadModel::none()),
        );
        let wakeup = engine.create_event();
        engine.spawn(
            "server",
            Priority::new(priority),
            Box::new(EventDrivenServerBody::new(shared.clone(), wakeup)),
        );
        if policy == ServerPolicyKind::Deferrable {
            // Replenishment timer: refill the capacity and wake the server.
            let replenish = engine.create_event();
            let replenish_state = shared.clone();
            engine.add_fire_hook(
                replenish,
                Box::new(move |ctx| {
                    replenish_state.borrow_mut().replenish(ctx.now());
                    ctx.fire(wakeup);
                }),
            );
            engine.add_periodic_timer(Instant::from_units(6), Span::from_units(6), replenish);
        }
        engine.spawn_periodic(
            "tau1",
            Priority::new(20),
            Instant::ZERO,
            Span::from_units(6),
            Box::new(PeriodicThreadBody::new(
                Span::from_units(2),
                ExecUnit::Task(TaskId::new(0)),
            )),
        );
        engine.spawn_periodic(
            "tau2",
            Priority::new(10),
            Instant::ZERO,
            Span::from_units(6),
            Box::new(PeriodicThreadBody::new(
                Span::from_units(1),
                ExecUnit::Task(TaskId::new(1)),
            )),
        );
        for (i, (release, cost)) in events.iter().enumerate() {
            let event = engine.create_event();
            let handler = ServableHandler::new(HandlerId::new(i as u32), Span::from_units(*cost));
            let shared_hook = shared.clone();
            let release_at = Instant::from_units(*release);
            let event_id = EventId::new(i as u32);
            engine.add_fire_hook(
                event,
                Box::new(move |ctx| {
                    shared_hook
                        .borrow_mut()
                        .released(QueuedRelease::new(event_id, handler, release_at), ctx.now());
                    ctx.fire(wakeup);
                }),
            );
            engine.add_one_shot_timer(release_at, event);
        }
        let trace = engine.run();
        (shared, trace)
    }

    fn handler_segments(trace: &rt_model::Trace, event: u32) -> Vec<(u64, u64)> {
        trace
            .segments_of(ExecUnit::Handler(EventId::new(event)))
            .map(|s| (s.start.ticks() / 1000, s.end.ticks() / 1000))
            .collect()
    }

    #[test]
    fn deferrable_server_serves_on_arrival() {
        // e1@2 cost 2: served immediately (2..4), unlike the polling server
        // which would wait for its next activation at 6.
        let (shared, trace) = run_event_driven(ServerPolicyKind::Deferrable, 3, 30, &[(2, 2)], 24);
        assert_eq!(handler_segments(&trace, 0), vec![(2, 4)]);
        let outcomes = shared.borrow_mut().finalise();
        assert_eq!(outcomes[0].response_time(), Some(Span::from_units(2)));
    }

    #[test]
    fn deferrable_server_extends_the_budget_across_the_boundary() {
        // Capacity 3. e1@2 cost 2 consumes down to 1. e2@5 costs 2 > 1, but
        // 5 + 2 > 6 (the next replenishment), so the §4.2 rule grants
        // 1 + 3 = 4 and the event is served 5..7 without interruption.
        let (shared, trace) =
            run_event_driven(ServerPolicyKind::Deferrable, 3, 30, &[(2, 2), (5, 2)], 24);
        assert_eq!(handler_segments(&trace, 0), vec![(2, 4)]);
        assert_eq!(handler_segments(&trace, 1), vec![(5, 7)]);
        let outcomes = shared.borrow_mut().finalise();
        assert!(outcomes.iter().all(|o| o.is_served()));
        assert_eq!(outcomes[1].response_time(), Some(Span::from_units(2)));
    }

    #[test]
    fn deferrable_capacity_is_replenished_by_the_timer() {
        // Saturate the first period, then check a later event is still served
        // after the replenishment.
        let (shared, trace) = run_event_driven(
            ServerPolicyKind::Deferrable,
            3,
            30,
            &[(0, 3), (1, 3), (13, 2)],
            24,
        );
        // First event exhausts the capacity 0..3; the second must wait for
        // the replenishment at 6 (6..9); the third is served on arrival.
        assert_eq!(handler_segments(&trace, 0), vec![(0, 3)]);
        assert_eq!(handler_segments(&trace, 1), vec![(6, 9)]);
        assert_eq!(handler_segments(&trace, 2), vec![(13, 15)]);
        let outcomes = shared.borrow_mut().finalise();
        assert!(outcomes.iter().all(|o| o.is_served()));
    }

    #[test]
    fn deferrable_improves_response_times_over_polling_semantics() {
        // The same single event under DS is served 4 time units earlier than
        // the polling activation would allow (arrival mid-period).
        let (ds_shared, _) = run_event_driven(ServerPolicyKind::Deferrable, 3, 30, &[(2, 2)], 24);
        let ds = ds_shared.borrow_mut().finalise();
        assert_eq!(ds[0].response_time(), Some(Span::from_units(2)));
    }

    #[test]
    fn background_server_runs_below_the_periodic_tasks() {
        // Background servicing at priority 1: the handler only gets the idle
        // time left by tau1 (0..2) and tau2 (2..3): served 3..5.
        let (shared, trace) = run_event_driven(ServerPolicyKind::Background, 4, 1, &[(0, 2)], 24);
        assert_eq!(handler_segments(&trace, 0), vec![(3, 5)]);
        let outcomes = shared.borrow_mut().finalise();
        assert_eq!(outcomes[0].response_time(), Some(Span::from_units(5)));
    }

    #[test]
    fn background_server_has_no_capacity_limit() {
        // A single huge request (cost 10 > any capacity) is still served by
        // the background policy, spread across the idle time.
        let (shared, trace) = run_event_driven(ServerPolicyKind::Background, 4, 1, &[(0, 10)], 48);
        let segments = handler_segments(&trace, 0);
        assert!(!segments.is_empty());
        let total: u64 = segments.iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, 10);
        let outcomes = shared.borrow_mut().finalise();
        assert!(outcomes[0].is_served());
    }

    #[test]
    fn unserved_events_remain_in_the_queue_until_finalised() {
        // More work than ten periods of capacity can absorb.
        let events: Vec<(u64, u64)> = (0..30).map(|i| (i * 2, 3)).collect();
        let (shared, _trace) = run_event_driven(ServerPolicyKind::Deferrable, 3, 30, &events, 60);
        let outcomes = shared.borrow_mut().finalise();
        assert_eq!(outcomes.len(), 30);
        let served = outcomes.iter().filter(|o| o.is_served()).count();
        let unserved = outcomes
            .iter()
            .filter(|o| !o.is_served() && !o.is_interrupted())
            .count();
        assert!(served > 0);
        assert!(unserved > 0);
        assert_eq!(served + unserved, 30);
    }
}
