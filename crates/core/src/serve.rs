//! The policy-independent service loop of a task server.
//!
//! Whatever the activation policy (periodic polling, event-driven deferrable
//! servicing, background servicing), once a server decides to serve its
//! pending queue the sequence is the same and mirrors the paper's
//! implementation (§4):
//!
//! 1. `chooseNextEvent()` — pick the first pending handler whose declared
//!    cost fits in the budget the policy grants it;
//! 2. pay the dispatch overhead (queue manipulation, setting up the `Timed`
//!    interruptible section);
//! 3. run the handler inside `Timed.doInterruptible` with the granted budget
//!    minus the runtime overheads — if the handler's real demand does not
//!    fit, it is asynchronously interrupted;
//! 4. pay the enforcement overhead, debit the capacity, record the outcome
//!    (in the run's slot table, see [`crate::framework`]);
//! 5. loop back to 1 until nothing is servable.
//!
//! `ServiceLoop` implements steps 2–5 as a small state machine driven by
//! the engine completions; the concrete server bodies own step 1's activation
//! policy and what to do when the loop goes idle. The loop holds its lane's
//! index and reaches the lane through the `ExecWorld` of the run.

use crate::framework::ExecWorld;
use crate::state::{GrantedService, ServerShared};
use rt_model::{AperiodicFate, ExecUnit, Instant, Span};
use rt_observe::{AdmissionVerdict, Probe};
use rtsj_emu::{Action, BodyCtx, Completion};

/// Where the service loop currently is.
#[derive(Debug, Clone)]
enum Phase {
    /// Nothing in flight.
    Idle,
    /// Paying the dispatch overhead before running `service`.
    Dispatching { service: GrantedService },
    /// The handler is running under its budget.
    Working {
        service: GrantedService,
        started: Instant,
        /// True when the budget is the declared-cost cap of a fault-injected
        /// overrun: an interruption is then an enforcement *abort*, not the
        /// legacy capacity-bound interruption.
        abort_on_interrupt: bool,
    },
    /// Paying the enforcement overhead after the handler finished or was
    /// interrupted.
    Enforcing {
        service: GrantedService,
        started: Instant,
        finished: Instant,
        interrupted: bool,
        abort_on_interrupt: bool,
    },
}

/// Outcome of feeding a completion to the service loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ServeStep {
    /// The loop wants the engine to perform this action next.
    Continue(Action),
    /// Nothing is servable right now; the body should apply its policy's
    /// idle behaviour (wait for the next period, wait for the wake-up event).
    Idle,
}

/// The dispatch → work → enforce → record loop shared by every server policy.
#[derive(Debug)]
pub(crate) struct ServiceLoop {
    lane: usize,
    phase: Phase,
}

impl ServiceLoop {
    /// Creates an idle loop serving lane `lane`.
    pub(crate) fn new(lane: usize) -> Self {
        ServiceLoop {
            lane,
            phase: Phase::Idle,
        }
    }

    /// The lane the loop serves.
    pub(crate) fn lane(&self) -> usize {
        self.lane
    }

    /// Tries to start serving the lane's next pending release at `now`.
    pub(crate) fn try_dispatch<P: Probe>(
        &mut self,
        world: &mut ExecWorld<'_, P>,
        now: Instant,
    ) -> ServeStep {
        // Between services the lane is quiescent: any due mode change
        // applies here, before the next choice is made under the (new)
        // configuration — the quiescence protocol's decision instant.
        world.lanes[self.lane].in_service = false;
        world.apply_due_mode_changes(self.lane, now);
        let lane = &mut world.lanes[self.lane];
        let chosen = lane.choose_next(now);
        lane.in_service = chosen.is_some();
        let Some(service) = chosen else {
            self.phase = Phase::Idle;
            return ServeStep::Idle;
        };
        let dispatch = lane.overhead.dispatch;
        if dispatch.is_zero() {
            ServeStep::Continue(self.begin_work(lane, service, now))
        } else {
            self.phase = Phase::Dispatching { service };
            ServeStep::Continue(Action::Compute {
                amount: dispatch,
                unit: ExecUnit::ServerOverhead,
            })
        }
    }

    fn begin_work(&mut self, lane: &ServerShared, service: GrantedService, now: Instant) -> Action {
        let overhead = lane.overhead;
        // The work budget is the grant minus the dispatch/enforcement
        // overheads charged inside it. When the overheads alone exceed
        // the grant (a grant at the overhead floor: tiny remaining
        // capacity, tiny declared cost) the handler gets an empty
        // budget and budget enforcement interrupts it immediately, so
        // the overrun surfaces as an Interrupted outcome — a legitimate
        // runtime state, not a bug, which is why this is a documented
        // `unwrap_or` rather than a debug assertion. The value equals
        // what two saturating subtractions would produce; the checked
        // chain exists so the underflow case reads as one explicit
        // branch instead of two silent clamps, and
        // `overheads_exceeding_the_grant_yield_an_explicit_empty_budget`
        // pins the resulting behaviour.
        let budget = service
            .granted
            .checked_sub(overhead.dispatch)
            .and_then(|left| left.checked_sub(overhead.enforcement))
            .unwrap_or(Span::ZERO);
        // A fault-injected overrun is additionally enforced at the
        // *declared* cost. When that cap is the binding limit the cutoff
        // surfaces as an Aborted fate; when the capacity grant is
        // already smaller, the legacy interruption semantics of plain
        // under-declaration apply unchanged.
        let declared = service.release.declared_cost();
        let (budget, abort_on_interrupt) =
            if service.release.handler.is_fault_injected() && declared <= budget {
                (declared, true)
            } else {
                (budget, false)
            };
        let amount = service.release.demanded_cost();
        let unit = ExecUnit::Handler(service.release.event);
        self.phase = Phase::Working {
            service,
            started: now,
            abort_on_interrupt,
        };
        Action::ComputeInterruptible {
            amount,
            budget,
            unit,
        }
    }

    /// Feeds the completion of the loop's previous action and returns what to
    /// do next.
    ///
    /// # Panics
    /// Panics if called while the loop is idle (the body must route
    /// activation completions to [`Self::try_dispatch`] instead).
    pub(crate) fn on_completion<P: Probe>(
        &mut self,
        ctx: &mut BodyCtx<'_, ExecWorld<'_, P>>,
        completion: Completion,
    ) -> ServeStep {
        let now = ctx.now();
        let world = ctx.world();
        let phase = std::mem::replace(&mut self.phase, Phase::Idle);
        match phase {
            Phase::Idle => panic!("service loop received a completion while idle: {completion:?}"),
            Phase::Dispatching { service } => {
                debug_assert!(!completion.was_interrupted());
                let lane = &mut world.lanes[self.lane];
                lane.consume(lane.overhead.dispatch);
                ServeStep::Continue(self.begin_work(lane, service, now))
            }
            Phase::Working {
                service,
                started,
                abort_on_interrupt,
            } => {
                let lane = &mut world.lanes[self.lane];
                lane.consume(completion.consumed());
                let interrupted = completion.was_interrupted();
                let enforcement = lane.overhead.enforcement;
                if enforcement.is_zero() {
                    self.record(
                        world,
                        &service,
                        started,
                        now,
                        interrupted,
                        abort_on_interrupt,
                    );
                    self.try_dispatch(world, now)
                } else {
                    self.phase = Phase::Enforcing {
                        service,
                        started,
                        finished: now,
                        interrupted,
                        abort_on_interrupt,
                    };
                    ServeStep::Continue(Action::Compute {
                        amount: enforcement,
                        unit: ExecUnit::ServerOverhead,
                    })
                }
            }
            Phase::Enforcing {
                service,
                started,
                finished,
                interrupted,
                abort_on_interrupt,
            } => {
                let lane = &mut world.lanes[self.lane];
                lane.consume(lane.overhead.enforcement);
                self.record(
                    world,
                    &service,
                    started,
                    finished,
                    interrupted,
                    abort_on_interrupt,
                );
                self.try_dispatch(world, now)
            }
        }
    }

    /// Records how the service ended and reports a budget cut.
    fn record<P: Probe>(
        &self,
        world: &mut ExecWorld<'_, P>,
        service: &GrantedService,
        started: Instant,
        finished: Instant,
        interrupted: bool,
        abort_on_interrupt: bool,
    ) {
        let release = &service.release;
        let fate = if !interrupted {
            AperiodicFate::Served {
                started,
                completed: finished,
            }
        } else if abort_on_interrupt {
            // A fault-injected job cut off at its declared cost releases its
            // equation-(5) plan slot, so the admission state stays
            // consistent with the capacity the abort freed.
            let lane = &mut world.lanes[self.lane];
            lane.admission.on_abort(release.event, finished);
            AperiodicFate::Aborted { at: finished }
        } else {
            AperiodicFate::Interrupted {
                started,
                interrupted_at: finished,
            }
        };
        world.record(release, fate);
        if P::ENABLED && interrupted {
            // Every budget cut exhausts its grant; an enforcement abort
            // also drops the event.
            world.probe.cap_exhausted(self.lane, finished);
            if abort_on_interrupt {
                world
                    .probe
                    .admission(self.lane, AdmissionVerdict::Aborted, finished);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::{QueuedRelease, ServableHandler};
    use rt_model::{EventId, HandlerId, Priority, ServerPolicyKind};
    use rt_observe::NoopProbe;
    use rtsj_emu::{OverheadModel, TaskServerParameters};

    type World = ExecWorld<'static, NoopProbe>;

    /// A world with one polling lane (capacity 4, period 6) under
    /// `overhead`, and ten outcome slots: the tests queue event `i` in slot
    /// `i`.
    fn world(overhead: OverheadModel) -> World {
        let lane = ServerShared::with_admission(
            TaskServerParameters::new(Span::from_units(4), Span::from_units(6), Priority::new(30)),
            ServerPolicyKind::Polling,
            overhead,
            rt_model::QueueDiscipline::FifoSkip,
            rt_model::AdmissionPolicy::AcceptAll,
        );
        ExecWorld::of_lanes(vec![lane], 10)
    }

    /// Queues `handler`'s release of event `id` at `at`, in slot `id`.
    fn push_handler(world: &mut World, id: u32, handler: ServableHandler, at: Instant) {
        let release = QueuedRelease::new(EventId::new(id), handler, at).in_slot(id as usize);
        world.lanes[0].released(release);
    }

    fn push(world: &mut World, id: u32, cost: u64, at: u64) {
        let handler = ServableHandler::new(HandlerId::new(id), Span::from_units(cost));
        push_handler(world, id, handler, Instant::from_units(at));
    }

    /// Feeds `completion` to the loop at `now`, as the engine would.
    fn complete(
        service: &mut ServiceLoop,
        world: &mut World,
        now: Instant,
        completion: Completion,
    ) -> ServeStep {
        service.on_completion(&mut BodyCtx::new(now, world), completion)
    }

    #[test]
    fn idle_when_nothing_is_pending() {
        let mut world = world(OverheadModel::none());
        let mut service = ServiceLoop::new(0);
        assert_eq!(
            service.try_dispatch(&mut world, Instant::ZERO),
            ServeStep::Idle
        );
    }

    #[test]
    fn zero_overhead_dispatch_goes_straight_to_work() {
        let mut world = world(OverheadModel::none());
        push(&mut world, 0, 2, 0);
        let mut service = ServiceLoop::new(0);
        match service.try_dispatch(&mut world, Instant::ZERO) {
            ServeStep::Continue(Action::ComputeInterruptible {
                amount,
                budget,
                unit,
            }) => {
                assert_eq!(amount, Span::from_units(2));
                assert_eq!(budget, Span::from_units(4));
                assert_eq!(unit, ExecUnit::Handler(EventId::new(0)));
            }
            other => panic!("expected interruptible work, got {other:?}"),
        }
    }

    #[test]
    fn dispatch_overhead_precedes_the_work_and_shrinks_the_budget() {
        let overhead = OverheadModel {
            timer_fire: Span::ZERO,
            dispatch: Span::from_ticks(100),
            enforcement: Span::from_ticks(50),
        };
        let mut world = world(overhead);
        push(&mut world, 0, 2, 0);
        let mut service = ServiceLoop::new(0);
        match service.try_dispatch(&mut world, Instant::ZERO) {
            ServeStep::Continue(Action::Compute { amount, unit }) => {
                assert_eq!(amount, Span::from_ticks(100));
                assert_eq!(unit, ExecUnit::ServerOverhead);
            }
            other => panic!("expected dispatch overhead, got {other:?}"),
        }
        // Simulate the engine completing the dispatch at t = 0.1.
        match complete(
            &mut service,
            &mut world,
            Instant::from_ticks(100),
            Completion::Computed {
                consumed: Span::from_ticks(100),
            },
        ) {
            ServeStep::Continue(Action::ComputeInterruptible { budget, .. }) => {
                // 4 (granted) − 0.1 (dispatch) − 0.05 (enforcement) = 3.85.
                assert_eq!(budget, Span::from_ticks(3_850));
            }
            other => panic!("expected interruptible work, got {other:?}"),
        }
        assert_eq!(world.lanes[0].remaining, Span::from_ticks(3_900));
    }

    #[test]
    fn completed_work_is_recorded_and_the_loop_continues() {
        let mut world = world(OverheadModel::none());
        push(&mut world, 0, 2, 0);
        push(&mut world, 1, 1, 0);
        let mut service = ServiceLoop::new(0);
        let _ = service.try_dispatch(&mut world, Instant::ZERO);
        // First handler completes; the loop immediately dispatches the second.
        match complete(
            &mut service,
            &mut world,
            Instant::from_units(2),
            Completion::Computed {
                consumed: Span::from_units(2),
            },
        ) {
            ServeStep::Continue(Action::ComputeInterruptible { amount, budget, .. }) => {
                assert_eq!(amount, Span::from_units(1));
                assert_eq!(
                    budget,
                    Span::from_units(2),
                    "capacity shrank by the first service"
                );
            }
            other => panic!("expected the second handler, got {other:?}"),
        }
        assert!(world.outcomes[0].is_served());
        assert_eq!(
            world.outcomes[1].fate,
            AperiodicFate::Unserved,
            "the second handler is in service"
        );
    }

    #[test]
    fn interrupted_work_is_recorded_as_interrupted() {
        let mut world = world(OverheadModel::none());
        push(&mut world, 0, 4, 0);
        let mut service = ServiceLoop::new(0);
        world.lanes[0].remaining = Span::from_units(1);
        // granted = 1 < cost 4 … nothing servable: Idle.
        assert_eq!(
            service.try_dispatch(&mut world, Instant::ZERO),
            ServeStep::Idle
        );
        // Give it capacity 4 but a handler that overruns its declaration.
        world.lanes[0].remaining = Span::from_units(4);
        let overrun = ServableHandler::new(HandlerId::new(9), Span::from_units(6))
            .with_declared_cost(Span::from_units(2));
        push_handler(&mut world, 9, overrun, Instant::ZERO);
        // The declared cost (2) fits; but the first pending is still the
        // cost-4 one, served first.
        let _ = service.try_dispatch(&mut world, Instant::ZERO);
        let step = complete(
            &mut service,
            &mut world,
            Instant::from_units(4),
            Completion::Computed {
                consumed: Span::from_units(4),
            },
        );
        // Capacity is now exhausted: the overrunning handler is not servable.
        assert_eq!(step, ServeStep::Idle);
        // Replenish and dispatch it: its work (6) exceeds its budget (4), so
        // the engine would interrupt; emulate that completion here.
        world.lanes[0].replenish(Instant::from_units(6));
        let _ = service.try_dispatch(&mut world, Instant::from_units(6));
        let step = complete(
            &mut service,
            &mut world,
            Instant::from_units(10),
            Completion::Interrupted {
                consumed: Span::from_units(4),
            },
        );
        assert_eq!(step, ServeStep::Idle);
        assert!(world.outcomes[0].is_served());
        assert!(world.outcomes[9].is_interrupted());
    }

    /// Regression test for the masked-underflow audit: a grant smaller than
    /// the per-dispatch overheads must produce an *explicit* empty work
    /// budget (handler interrupted at once, outcome recorded), not a
    /// silently clamped subtraction hiding the overrun.
    #[test]
    fn overheads_exceeding_the_grant_yield_an_explicit_empty_budget() {
        let overhead = OverheadModel {
            timer_fire: Span::ZERO,
            dispatch: Span::from_ticks(100),
            enforcement: Span::from_ticks(50),
        };
        let mut world = world(overhead);
        world.lanes[0].remaining = Span::from_ticks(120);
        let tiny = ServableHandler::new(HandlerId::new(0), Span::from_ticks(100));
        push_handler(&mut world, 0, tiny, Instant::ZERO);
        let mut service = ServiceLoop::new(0);
        // Grant = 120 ticks; dispatch alone eats 100 of them.
        match service.try_dispatch(&mut world, Instant::ZERO) {
            ServeStep::Continue(Action::Compute { amount, .. }) => {
                assert_eq!(amount, Span::from_ticks(100));
            }
            other => panic!("expected the dispatch overhead, got {other:?}"),
        }
        match complete(
            &mut service,
            &mut world,
            Instant::from_ticks(100),
            Completion::Computed {
                consumed: Span::from_ticks(100),
            },
        ) {
            ServeStep::Continue(Action::ComputeInterruptible { budget, .. }) => {
                assert_eq!(
                    budget,
                    Span::ZERO,
                    "120 − 100 − 50 underflows: the work budget must be explicitly empty"
                );
            }
            other => panic!("expected budget-less work, got {other:?}"),
        }
        // The engine would interrupt a zero-budget computation immediately;
        // the loop then pays the enforcement overhead and goes idle.
        match complete(
            &mut service,
            &mut world,
            Instant::from_ticks(100),
            Completion::Interrupted {
                consumed: Span::ZERO,
            },
        ) {
            ServeStep::Continue(Action::Compute { amount, unit }) => {
                assert_eq!(amount, Span::from_ticks(50));
                assert_eq!(unit, ExecUnit::ServerOverhead);
            }
            other => panic!("expected the enforcement overhead, got {other:?}"),
        }
        let step = complete(
            &mut service,
            &mut world,
            Instant::from_ticks(150),
            Completion::Computed {
                consumed: Span::from_ticks(50),
            },
        );
        assert_eq!(step, ServeStep::Idle);
        assert!(
            world.outcomes[0].is_interrupted(),
            "the overrun is visible as an interruption, not hidden"
        );
    }

    #[test]
    #[should_panic(expected = "while idle")]
    fn completions_while_idle_are_a_bug() {
        let mut world = world(OverheadModel::none());
        let mut service = ServiceLoop::new(0);
        let _ = complete(
            &mut service,
            &mut world,
            Instant::ZERO,
            Completion::Computed {
                consumed: Span::ZERO,
            },
        );
    }
}
