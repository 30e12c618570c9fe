//! The Sporadic Task Server (`SporadicTaskServer`), extending the paper's
//! framework with Sprunt, Sha & Lehoczky's third server policy.
//!
//! Like the Deferrable Server, the sporadic server is event-driven: its
//! `run()` is delegated to an AEH bound to a `wakeUp` event fired whenever a
//! servable event is released. Unlike the DS, its capacity is not refilled by
//! a periodic timer: each *consumption chunk* — a maximal service burst,
//! anchored at the instant its first dispatch started — schedules one
//! replenishment of exactly the consumed amount, one server period after the
//! anchor. The replenishment is an engine-level one-shot timer armed at
//! runtime ([`rtsj_emu::BodyCtx::arm_timer`]) and fired like every other
//! timer; its fire hook credits the capacity and fires `wakeUp` so the
//! server re-examines its queue.
//!
//! Handlers remain non-resumable (the framework's §4 constraint), so the
//! granted budget is the remaining capacity, exactly as for the Polling
//! Server; what changes is *when* capacity comes back.

use crate::serve::{ServeStep, ServiceLoop};
use crate::state::SharedServer;
use rtsj_emu::{Action, BodyCtx, Completion, EventHandle, ThreadBody};

/// The schedulable body of a sporadic task server: an asynchronous event
/// handler bound to `wakeUp`, serving the pending queue whenever it is woken
/// and capacity allows, and arming a replenishment timer each time a
/// consumption chunk closes.
#[derive(Debug)]
pub struct SporadicServerBody {
    service: ServiceLoop,
    wakeup: EventHandle,
    replenish: EventHandle,
}

impl SporadicServerBody {
    /// Creates the body over the shared server state; `wakeup` is fired by
    /// servable events and by the replenishment hook, `replenish` is the
    /// event the chunk-close timers fire.
    pub fn new(shared: SharedServer, wakeup: EventHandle, replenish: EventHandle) -> Self {
        SporadicServerBody {
            service: ServiceLoop::new(shared),
            wakeup,
            replenish,
        }
    }

    /// Going idle: close the open consumption chunk (if any) and arm its
    /// replenishment timer, then wait for the next wake-up.
    fn idle_action(&self, ctx: &mut BodyCtx) -> Action {
        if let Some(at) = self.service.shared().borrow_mut().close_sporadic_chunk() {
            ctx.arm_timer(at, self.replenish);
        }
        Action::WaitForEvent(self.wakeup)
    }
}

impl ThreadBody for SporadicServerBody {
    fn next_action(&mut self, ctx: &mut BodyCtx, completion: Completion) -> Action {
        // Publish the chunk-derived deadline (anchor + period, else the
        // earliest scheduled replenishment, else now + period) for EDF
        // dispatching; a no-op under fixed priorities.
        let deadline = self.service.shared().borrow().edf_deadline(ctx.now());
        ctx.set_deadline(deadline);
        match completion {
            Completion::Started => Action::WaitForEvent(self.wakeup),
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
    use crate::framework::{ServableAsyncEvent, SporadicTaskServer, TaskServer};
    use crate::handler::ServableHandler;
    use crate::queue::QueueKind;
    use rt_model::{EventId, ExecUnit, HandlerId, Instant, NameId, Priority, Span, TaskId};
    use rtsj_emu::{Engine, EngineConfig, OverheadModel, PeriodicThreadBody, TaskServerParameters};

    /// Installs a sporadic server (capacity 3, period 6, priority 30) above
    /// the Table 1 periodic pair, fires the given (release, cost) events and
    /// returns the outcomes plus the trace.
    fn run_sporadic(
        events: &[(u64, u64)],
        horizon: u64,
    ) -> (Vec<rt_model::AperiodicOutcome>, rt_model::Trace) {
        let mut engine = Engine::new(
            EngineConfig::new(Instant::from_units(horizon)).with_overhead(OverheadModel::none()),
        );
        let server = SporadicTaskServer::install(
            &mut engine,
            TaskServerParameters::new(Span::from_units(3), Span::from_units(6), Priority::new(30)),
            QueueKind::Fifo,
            rt_model::QueueDiscipline::FifoSkip,
            rt_model::AdmissionPolicy::AcceptAll,
        );
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
        for (i, &(release, cost)) in events.iter().enumerate() {
            let handler = ServableHandler::new(
                HandlerId::new(i as u32),
                NameId::from_raw(i as u32),
                Span::from_units(cost),
            );
            let sae =
                ServableAsyncEvent::create(&mut engine, EventId::new(i as u32), handler, &server);
            sae.schedule_fire(&mut engine, Instant::from_units(release));
        }
        let trace = engine.run();
        let outcomes = server.shared().borrow_mut().finalise();
        (outcomes, trace)
    }

    fn handler_segments(trace: &rt_model::Trace, event: u32) -> Vec<(u64, u64)> {
        trace
            .segments_of(ExecUnit::Handler(EventId::new(event)))
            .map(|s| (s.start.ticks() / 1000, s.end.ticks() / 1000))
            .collect()
    }

    #[test]
    fn sporadic_server_serves_on_arrival_like_the_ds() {
        // e1@2 cost 2: the SS starts full and serves immediately (2..4).
        let (outcomes, trace) = run_sporadic(&[(2, 2)], 24);
        assert_eq!(handler_segments(&trace, 0), vec![(2, 4)]);
        assert_eq!(outcomes[0].response_time(), Some(Span::from_units(2)));
    }

    #[test]
    fn consumed_capacity_comes_back_one_period_after_the_chunk_anchor() {
        // e1@0 cost 3 exhausts the capacity in a chunk anchored at 0: the
        // replenishment of 3 arrives at 6. e2@1 cost 2 must wait for it and
        // is served 6..8.
        let (outcomes, trace) = run_sporadic(&[(0, 3), (1, 2)], 24);
        assert_eq!(handler_segments(&trace, 0), vec![(0, 3)]);
        assert_eq!(handler_segments(&trace, 1), vec![(6, 8)]);
        assert!(outcomes.iter().all(|o| o.is_served()));
    }

    #[test]
    fn replenishment_anchor_follows_the_activation_not_the_period_grid() {
        // e1@4 cost 2 (chunk anchored at 4, replenished at 10), then e2@11
        // cost 3: at 11 the capacity is back to full, served 11..14.
        let (outcomes, trace) = run_sporadic(&[(4, 2), (11, 3)], 24);
        assert_eq!(handler_segments(&trace, 0), vec![(4, 6)]);
        assert_eq!(handler_segments(&trace, 1), vec![(11, 14)]);
        assert!(outcomes.iter().all(|o| o.is_served()));
        // Contrast with a DS: its periodic refill at 6 would already have
        // restored the capacity at 6, and with a PS: e1 would have waited
        // for the activation at 6. The SS anchors on consumption instead.
    }

    #[test]
    fn sporadic_preserves_capacity_across_idle_periods() {
        // Nothing arrives until t=20; the untouched capacity is still full
        // (no periodic forfeits), so a cost-3 burst is served at once.
        let (outcomes, trace) = run_sporadic(&[(20, 3)], 36);
        assert_eq!(handler_segments(&trace, 0), vec![(20, 23)]);
        assert!(outcomes[0].is_served());
    }

    #[test]
    fn overload_leaves_later_events_unserved_within_the_horizon() {
        let events: Vec<(u64, u64)> = (0..12).map(|i| (i, 3)).collect();
        let (outcomes, _trace) = run_sporadic(&events, 30);
        let served = outcomes.iter().filter(|o| o.is_served()).count();
        let unserved = outcomes.iter().filter(|o| !o.is_served()).count();
        assert!(served >= 4, "one chunk per period must keep being served");
        assert!(unserved > 0, "the horizon caps the replenished bandwidth");
    }
}
