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
//! the budget [`crate::state::ServerShared::choose_next`] grants unlimited
//! and capacity consumption a no-op.
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

use crate::framework::ExecWorld;
use crate::serve::{ServeStep, ServiceLoop};
use rt_observe::Probe;
use rtsj_emu::{Action, BodyCtx, Completion, EventHandle, ThreadBody};

/// The schedulable body of an event-driven server (Deferrable Server or
/// background servicing): an asynchronous event handler bound to a `wakeUp`
/// event, serving the pending queue whenever it is woken and capacity allows.
#[derive(Debug)]
pub(crate) struct EventDrivenServerBody {
    service: ServiceLoop,
    wakeup: EventHandle,
    /// Chunk-replenishment event, armed only once a mode change swaps the
    /// lane into the Sporadic policy: going idle then closes the open
    /// consumption chunk and arms its replenishment timer exactly like
    /// [`crate::sporadic`] does.
    replenish: EventHandle,
}

impl EventDrivenServerBody {
    /// Creates the body serving lane `lane`; `wakeup` is the event fired
    /// both by servable events and by the replenishment timer, `replenish`
    /// the chunk-replenishment event of a mode-swapped sporadic lane.
    pub(crate) fn new(lane: usize, wakeup: EventHandle, replenish: EventHandle) -> Self {
        EventDrivenServerBody {
            service: ServiceLoop::new(lane),
            wakeup,
            replenish,
        }
    }

    fn idle_action<P: Probe>(&self, ctx: &mut BodyCtx<'_, ExecWorld<'_, P>>) -> Action {
        // A no-op unless the lane currently runs as a sporadic server
        // (close_sporadic_chunk is policy-gated): mode-swapped lanes arm
        // their replenishment timers here, original DS/BG lanes never do.
        if let Some(at) = ctx.world().lanes[self.service.lane()].close_sporadic_chunk() {
            ctx.arm_timer(at, self.replenish);
        }
        Action::WaitForEvent(self.wakeup)
    }
}

impl<'p, P: Probe> ThreadBody<ExecWorld<'p, P>> for EventDrivenServerBody {
    fn next_action(
        &mut self,
        ctx: &mut BodyCtx<'_, ExecWorld<'p, P>>,
        completion: Completion,
    ) -> Action {
        // Publish the replenishment-derived deadline at every pump so an
        // EDF engine ranks the server correctly; a no-op under fixed
        // priorities (background servicing publishes Instant::MAX, the
        // unchanged default).
        let now = ctx.now();
        let deadline = ctx.world().lanes[self.service.lane()].edf_deadline(now);
        ctx.set_deadline(deadline);
        let step = match completion {
            Completion::Started => ServeStep::Idle,
            Completion::EventFired | Completion::PeriodStarted => {
                self.service.try_dispatch(ctx.world(), now)
            }
            Completion::Computed { .. } | Completion::Interrupted { .. } => {
                self.service.on_completion(ctx, completion)
            }
        };
        match step {
            ServeStep::Continue(action) => action,
            ServeStep::Idle => self.idle_action(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::system::{execute_reference, ExecutionConfig};
    use rt_model::{
        EventId, ExecUnit, Instant, Priority, ServerPolicyKind, ServerSpec, Span, SystemSpec, Trace,
    };

    /// Runs the Table 1 periodic pair plus a server of the given policy
    /// (capacity `capacity`, period 6) at `priority`, with the given
    /// (release, cost) firings, on the reference engine.
    fn run_table1(
        policy: ServerPolicyKind,
        capacity: u64,
        priority: u8,
        events: &[(u64, u64)],
        horizon: u64,
    ) -> Trace {
        let mut b = SystemSpec::builder("event-driven");
        b.server(match policy {
            ServerPolicyKind::Background => ServerSpec::background(Priority::new(priority)),
            ServerPolicyKind::Polling => ServerSpec::polling(
                Span::from_units(capacity),
                Span::from_units(6),
                Priority::new(priority),
            ),
            _ => ServerSpec::deferrable(
                Span::from_units(capacity),
                Span::from_units(6),
                Priority::new(priority),
            ),
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
        for &(release, cost) in events {
            b.aperiodic(Instant::from_units(release), Span::from_units(cost));
        }
        b.horizon(Instant::from_units(horizon));
        execute_reference(&b.build().unwrap(), &ExecutionConfig::ideal())
    }

    fn handler_segments(trace: &Trace, event: u32) -> Vec<(u64, u64)> {
        trace
            .segments_of(ExecUnit::Handler(EventId::new(event)))
            .map(|s| (s.start.ticks() / 1000, s.end.ticks() / 1000))
            .collect()
    }

    #[test]
    fn deferrable_server_serves_on_arrival() {
        // e1@2 cost 2: served immediately (2..4), unlike the polling server
        // which would wait for its next activation at 6.
        let trace = run_table1(ServerPolicyKind::Deferrable, 3, 30, &[(2, 2)], 24);
        assert_eq!(handler_segments(&trace, 0), vec![(2, 4)]);
        assert_eq!(trace.outcomes[0].response_time(), Some(Span::from_units(2)));
    }

    #[test]
    fn deferrable_server_extends_the_budget_across_the_boundary() {
        // Capacity 3. e1@2 cost 2 consumes down to 1. e2@5 costs 2 > 1, but
        // 5 + 2 > 6 (the next replenishment), so the §4.2 rule grants
        // 1 + 3 = 4 and the event is served 5..7 without interruption.
        let trace = run_table1(ServerPolicyKind::Deferrable, 3, 30, &[(2, 2), (5, 2)], 24);
        assert_eq!(handler_segments(&trace, 0), vec![(2, 4)]);
        assert_eq!(handler_segments(&trace, 1), vec![(5, 7)]);
        assert!(trace.outcomes.iter().all(|o| o.is_served()));
        assert_eq!(trace.outcomes[1].response_time(), Some(Span::from_units(2)));
    }

    #[test]
    fn deferrable_capacity_is_replenished_by_the_timer() {
        // Saturate the first period, then check a later event is still served
        // after the replenishment.
        let trace = run_table1(
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
        assert!(trace.outcomes.iter().all(|o| o.is_served()));
    }

    #[test]
    fn deferrable_improves_response_times_over_polling_semantics() {
        // The same single event under DS is served 4 time units earlier than
        // the polling activation would allow (arrival mid-period).
        let ds = run_table1(ServerPolicyKind::Deferrable, 3, 30, &[(2, 2)], 24);
        assert_eq!(ds.outcomes[0].response_time(), Some(Span::from_units(2)));
        let ps = run_table1(ServerPolicyKind::Polling, 3, 30, &[(2, 2)], 24);
        assert_eq!(ps.outcomes[0].response_time(), Some(Span::from_units(6)));
    }

    #[test]
    fn background_server_runs_below_the_periodic_tasks() {
        // Background servicing at priority 1: the handler only gets the idle
        // time left by tau1 (0..2) and tau2 (2..3): served 3..5.
        let trace = run_table1(ServerPolicyKind::Background, 4, 1, &[(0, 2)], 24);
        assert_eq!(handler_segments(&trace, 0), vec![(3, 5)]);
        assert_eq!(trace.outcomes[0].response_time(), Some(Span::from_units(5)));
    }

    #[test]
    fn background_server_has_no_capacity_limit() {
        // A single huge request (cost 10 > any capacity) is still served by
        // the background policy, spread across the idle time.
        let trace = run_table1(ServerPolicyKind::Background, 4, 1, &[(0, 10)], 48);
        let segments = handler_segments(&trace, 0);
        assert!(!segments.is_empty());
        let total: u64 = segments.iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, 10);
        assert!(trace.outcomes[0].is_served());
    }

    #[test]
    fn unserved_events_remain_in_the_queue_until_finalised() {
        // More work than ten periods of capacity can absorb.
        let events: Vec<(u64, u64)> = (0..30).map(|i| (i * 2, 3)).collect();
        let trace = run_table1(ServerPolicyKind::Deferrable, 3, 30, &events, 60);
        let outcomes = &trace.outcomes;
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
