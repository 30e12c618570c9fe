//! The Polling Task Server (`PollingTaskServer`, paper §4.1).
//!
//! "Our class `PollingTaskServer` encapsulates a `RealtimeThread` with
//! `PeriodicParameters`. The `run()` method of the server is delegated to
//! this periodic real-time thread. When an asynchronous servable event is
//! fired, its handler is added in a FIFO list. At each periodic activation, a
//! method `chooseNextEvent()` is called. […] While the chosen event is not
//! null, it is executed (with the method `doInterruptible()` of `Timed`), the
//! capacity is decreased and the `chooseNextEvent()` method is called again."
//!
//! The implementation constraints of the paper apply: the handler is not
//! resumable, so it is only dispatched when its whole declared cost fits in
//! the remaining capacity, and it is interrupted if its real demand (plus the
//! runtime overheads charged inside the budget) exceeds the granted budget.

use crate::framework::ExecWorld;
use crate::serve::{ServeStep, ServiceLoop};
use rt_observe::Probe;
use rtsj_emu::{Action, BodyCtx, Completion, ThreadBody};

/// The schedulable body of a polling task server: a periodic real-time
/// thread that replenishes its capacity at every activation and serves the
/// pending queue until nothing more fits.
#[derive(Debug)]
pub(crate) struct PollingServerBody {
    service: ServiceLoop,
}

impl PollingServerBody {
    /// Creates the body serving lane `lane`.
    pub(crate) fn new(lane: usize) -> Self {
        PollingServerBody {
            service: ServiceLoop::new(lane),
        }
    }
}

impl<'p, P: Probe> ThreadBody<ExecWorld<'p, P>> for PollingServerBody {
    fn next_action(
        &mut self,
        ctx: &mut BodyCtx<'_, ExecWorld<'p, P>>,
        completion: Completion,
    ) -> Action {
        let step = match completion {
            Completion::Started => ServeStep::Idle,
            Completion::PeriodStarted => {
                // An activation is a decision instant: reconfigure first
                // (when quiescent) so the refill below restores the *new*
                // capacity, then — "the PS is activated every period with
                // its full capacity."
                let now = ctx.now();
                let lane = self.service.lane();
                let world = ctx.world();
                world.apply_due_mode_changes(lane, now);
                world.lanes[lane].replenish(now);
                self.service.try_dispatch(world, now)
            }
            Completion::Computed { .. } | Completion::Interrupted { .. } => {
                self.service.on_completion(ctx, completion)
            }
            // A polling server never waits on events.
            Completion::EventFired => ServeStep::Idle,
        };
        match step {
            ServeStep::Continue(action) => action,
            // "If there are aperiodic tasks pending, it serves them … and
            // then loses its remaining capacity until its next activation"
            // — losing the capacity needs no bookkeeping here because the
            // next activation replenishes it anyway and nothing can run the
            // server in between.
            ServeStep::Idle => Action::WaitForNextPeriod,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::system::{execute_reference, ExecutionConfig};
    use rt_model::{
        EventId, ExecUnit, Instant, Priority, ServerSpec, Span, SystemSpec, TaskId, Trace,
    };

    /// Runs the Table 1 system (PS capacity `capacity`, period 6, τ1, τ2)
    /// with the given aperiodic firings on the reference engine.
    fn run_table1(
        capacity: u64,
        events: &[(u64, u64, Option<u64>)], // (release, actual cost, declared override)
        horizon: u64,
    ) -> Trace {
        let mut b = SystemSpec::builder("polling-table-1");
        b.server(ServerSpec::polling(
            Span::from_units(capacity),
            Span::from_units(6),
            Priority::new(30),
        ));
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
    fn scenario1_both_events_served_immediately() {
        // Figure 2: e1@0 and e2@6, PS capacity 3.
        let trace = run_table1(3, &[(0, 2, None), (6, 2, None)], 24);
        assert_eq!(handler_segments(&trace, 0), vec![(0, 2)]);
        assert_eq!(handler_segments(&trace, 1), vec![(6, 8)]);
        let outcomes = &trace.outcomes;
        assert!(outcomes.iter().all(|o| o.is_served()));
        assert_eq!(outcomes[0].response_time(), Some(Span::from_units(2)));
        assert_eq!(outcomes[1].response_time(), Some(Span::from_units(2)));
        // tau1 runs right after the server in each period.
        let tau1: Vec<_> = trace.segments_of(ExecUnit::Task(TaskId::new(0))).collect();
        assert_eq!(tau1[0].start, Instant::from_units(2));
    }

    #[test]
    fn scenario2_h2_waits_for_the_next_activation() {
        // Figure 3: e1@2 and e2@4, PS capacity 3. The implementation serves
        // h1 at 6..8; h2 (cost 2) does not fit in the remaining capacity (1)
        // and is delayed to the next activation, 12..14.
        let trace = run_table1(3, &[(2, 2, None), (4, 2, None)], 24);
        assert_eq!(handler_segments(&trace, 0), vec![(6, 8)]);
        assert_eq!(handler_segments(&trace, 1), vec![(12, 14)]);
        let outcomes = &trace.outcomes;
        assert_eq!(outcomes[0].response_time(), Some(Span::from_units(6)));
        assert_eq!(outcomes[1].response_time(), Some(Span::from_units(10)));
        assert!(outcomes.iter().all(|o| !o.is_interrupted()));
    }

    #[test]
    fn scenario3_underdeclared_h2_is_interrupted_by_budget_enforcement() {
        // Figure 4: same firings, but h2 declares a cost of 1 while really
        // needing 2. It is dispatched at 8 (declared 1 ≤ remaining 1) and the
        // budget enforcement interrupts it at 9.
        let trace = run_table1(3, &[(2, 2, None), (4, 2, Some(1))], 24);
        assert_eq!(handler_segments(&trace, 0), vec![(6, 8)]);
        assert_eq!(handler_segments(&trace, 1), vec![(8, 9)]);
        let outcomes = &trace.outcomes;
        assert!(outcomes[0].is_served());
        assert!(outcomes[1].is_interrupted());
        match outcomes[1].fate {
            rt_model::AperiodicFate::Interrupted {
                started,
                interrupted_at,
            } => {
                assert_eq!(started, Instant::from_units(8));
                assert_eq!(interrupted_at, Instant::from_units(9));
            }
            other => panic!("expected an interruption, got {other:?}"),
        }
    }

    #[test]
    fn periodic_tasks_keep_their_deadlines_under_the_server() {
        let events: Vec<(u64, u64, Option<u64>)> = (0..8).map(|i| (i * 5, 3, None)).collect();
        let trace = run_table1(3, &events, 60);
        // tau1 gets 2 units in every period of 6: check its busy time.
        assert_eq!(
            trace.busy_time(ExecUnit::Task(TaskId::new(0))),
            Span::from_units(20)
        );
        assert_eq!(
            trace.busy_time(ExecUnit::Task(TaskId::new(1))),
            Span::from_units(10)
        );
        assert!(trace.check_invariants().is_ok());
    }

    #[test]
    fn overheads_cause_interruptions_when_the_slack_is_too_small() {
        // Capacity 4, a single event of cost 3.95: with the reference
        // overheads (0.1 dispatch + 0.05 enforcement) the work budget is
        // 3.85 < 3.95, so the handler is interrupted — the paper's "remaining
        // capacity too close to the cost of the event".
        let mut b = SystemSpec::builder("polling-overhead");
        b.server(ServerSpec::polling(
            Span::from_units(4),
            Span::from_units(6),
            Priority::new(30),
        ));
        b.aperiodic(Instant::ZERO, Span::from_ticks(3_950));
        b.horizon(Instant::from_units(12));
        let trace = execute_reference(&b.build().unwrap(), &ExecutionConfig::reference());
        assert_eq!(trace.outcomes.len(), 1);
        assert!(
            trace.outcomes[0].is_interrupted(),
            "overhead must eat the slack and trigger enforcement"
        );

        // The same reference overheads leave a cost-3 handler untouched
        // (slack 1 ≫ overhead), which the scenario tests above already cover.
    }
}
