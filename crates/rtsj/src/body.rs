//! Schedulable bodies: the coroutine-style protocol between the virtual-time
//! engine and the code it schedules.
//!
//! An RTSJ schedulable object (a `RealtimeThread`, an `AsyncEventHandler`, a
//! task server) is represented here by a [`ThreadBody`]: a state machine the
//! engine drives by asking "what do you do next?" and answering with how the
//! previous action ended. Bodies never block the host thread; "waiting" and
//! "computing" are virtual-time actions interpreted by the engine, which is
//! what makes executions deterministic and independent of the host machine.
//!
//! The vocabulary maps onto the RTSJ primitives the paper's framework uses:
//!
//! | RTSJ                                   | here                              |
//! |----------------------------------------|-----------------------------------|
//! | `RealtimeThread.waitForNextPeriod()`   | [`Action::WaitForNextPeriod`]     |
//! | `AsyncEvent.fire()` / bound handler    | [`Action::WaitForEvent`] + hooks  |
//! | `Timed.doInterruptible(...)`           | [`Action::ComputeInterruptible`]  |
//! | plain `run()` code                     | [`Action::Compute`]               |
//! | `sleep` / absolute waits               | [`Action::WaitUntil`]             |

use crate::engine::EventHandle;
use rt_model::{ExecUnit, Instant, Span};

/// What a schedulable asks the engine to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Consume `amount` of processor time, attributed to `unit` in the trace.
    Compute {
        /// Virtual processor time to consume.
        amount: Span,
        /// Trace attribution.
        unit: ExecUnit,
    },
    /// Consume `amount` of processor time under a `Timed` budget: if the
    /// budget runs out first, the computation is abandoned and the body is
    /// resumed with [`Completion::Interrupted`] — the engine-level equivalent
    /// of `AsynchronouslyInterruptedException`.
    ComputeInterruptible {
        /// Processor time the work actually needs.
        amount: Span,
        /// Budget granted by the `Timed` object.
        budget: Span,
        /// Trace attribution.
        unit: ExecUnit,
    },
    /// Block until the schedulable's next periodic release
    /// (`waitForNextPeriod`). Only meaningful for periodic schedulables.
    WaitForNextPeriod,
    /// Block until the given absolute instant.
    WaitUntil(Instant),
    /// Block until the given asynchronous event is fired (one pending fire is
    /// consumed if the event was fired while the schedulable was not waiting).
    WaitForEvent(EventHandle),
    /// The schedulable is done and will never run again.
    Terminate,
}

/// How the previous action ended; passed back to the body when the engine
/// asks for the next action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// First invocation: the schedulable has just been started.
    Started,
    /// The previous [`Action::Compute`] (or interruptible compute) ran to
    /// completion; `consumed` is the processor time it received.
    Computed {
        /// Processor time consumed by the completed computation.
        consumed: Span,
    },
    /// The previous [`Action::ComputeInterruptible`] exhausted its budget
    /// before finishing; `consumed` is the processor time it received before
    /// the asynchronous interruption.
    Interrupted {
        /// Processor time consumed before the interruption.
        consumed: Span,
    },
    /// The periodic release waited for by [`Action::WaitForNextPeriod`] has
    /// arrived.
    PeriodStarted,
    /// The instant waited for by [`Action::WaitUntil`] has been reached.
    TimeReached,
    /// The event waited for by [`Action::WaitForEvent`] has been fired.
    EventFired,
}

impl Completion {
    /// Processor time consumed by the completed/interrupted computation, zero
    /// for non-compute completions.
    pub fn consumed(&self) -> Span {
        match self {
            Completion::Computed { consumed } | Completion::Interrupted { consumed } => *consumed,
            _ => Span::ZERO,
        }
    }

    /// True when the previous interruptible computation was cut short.
    pub fn was_interrupted(&self) -> bool {
        matches!(self, Completion::Interrupted { .. })
    }
}

/// Context handed to a body while it decides its next action.
#[derive(Debug)]
pub struct BodyCtx {
    now: Instant,
    fire_requests: Vec<EventHandle>,
    timer_requests: Vec<(Instant, EventHandle)>,
    deadline_request: Option<Instant>,
}

impl BodyCtx {
    /// Creates a context for the given instant. The engine builds these
    /// internally; the constructor is public so unit tests of custom
    /// [`ThreadBody`] implementations can drive them without an engine.
    pub fn new(now: Instant) -> Self {
        BodyCtx {
            now,
            fire_requests: Vec::new(),
            timer_requests: Vec::new(),
            deadline_request: None,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Requests that the given event be fired as soon as the body yields its
    /// action (the firing is processed by the engine before anything else
    /// runs, but after the body call returns — firing is not re-entrant).
    pub fn fire(&mut self, event: EventHandle) {
        self.fire_requests.push(event);
    }

    /// Arms a one-shot timer firing `event` at `at` — the runtime equivalent
    /// of constructing an RTSJ `OneShotTimer` from application code. The
    /// timer fires like any pre-run timer (the Sporadic Server schedules its
    /// per-consumption replenishments this way); an instant at or before the
    /// current time fires immediately.
    pub fn arm_timer(&mut self, at: Instant, event: EventHandle) {
        self.timer_requests.push((at, event));
    }

    /// Declares the absolute deadline of the work this schedulable is
    /// currently responsible for — the dynamic-priority analogue of the RTSJ
    /// `SchedulingParameters`. Under [`rt_model::SchedulingPolicy::Edf`] the
    /// engine ranks the schedulable by this instant (periodic schedulables
    /// are re-keyed automatically at every release and need not call this);
    /// under fixed priorities the value is stored but ignored. Server bodies
    /// use it to publish their replenishment-derived deadlines.
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline_request = Some(deadline);
    }

    /// Drains the fire requests queued by [`Self::fire`]. Public so drivers
    /// other than the engine (`rt-taskserver`'s execution fast path, unit tests of
    /// custom bodies) can pump a [`ThreadBody`] and apply its requests with
    /// the engine's exact ordering: deadline, action, fires, timers.
    pub fn take_fire_requests(&mut self) -> Vec<EventHandle> {
        std::mem::take(&mut self.fire_requests)
    }

    /// Drains the deadline published by [`Self::set_deadline`] (see
    /// [`Self::take_fire_requests`] for why this is public).
    pub fn take_deadline_request(&mut self) -> Option<Instant> {
        self.deadline_request.take()
    }

    /// Drains the timers armed by [`Self::arm_timer`] (see
    /// [`Self::take_fire_requests`] for why this is public).
    pub fn take_timer_requests(&mut self) -> Vec<(Instant, EventHandle)> {
        std::mem::take(&mut self.timer_requests)
    }
}

/// A schedulable body driven by the engine.
pub trait ThreadBody {
    /// Decides the next action, given how the previous one ended.
    fn next_action(&mut self, ctx: &mut BodyCtx, completion: Completion) -> Action;
}

/// Blanket implementation so closures can be used as simple bodies in tests
/// and examples.
impl<F> ThreadBody for F
where
    F: FnMut(&mut BodyCtx, Completion) -> Action,
{
    fn next_action(&mut self, ctx: &mut BodyCtx, completion: Completion) -> Action {
        self(ctx, completion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_accessors() {
        assert_eq!(Completion::Started.consumed(), Span::ZERO);
        assert_eq!(
            Completion::Computed {
                consumed: Span::from_units(2)
            }
            .consumed(),
            Span::from_units(2)
        );
        assert!(Completion::Interrupted {
            consumed: Span::ZERO
        }
        .was_interrupted());
        assert!(!Completion::PeriodStarted.was_interrupted());
    }

    #[test]
    fn body_ctx_queues_fire_requests() {
        let mut ctx = BodyCtx::new(Instant::from_units(3));
        assert_eq!(ctx.now(), Instant::from_units(3));
        ctx.fire(EventHandle::from_raw(1));
        ctx.fire(EventHandle::from_raw(2));
        let fired = ctx.take_fire_requests();
        assert_eq!(fired.len(), 2);
        assert!(ctx.take_fire_requests().is_empty());
    }

    #[test]
    fn closures_are_bodies() {
        let mut body = |_ctx: &mut BodyCtx, _c: Completion| Action::Terminate;
        let mut ctx = BodyCtx::new(Instant::ZERO);
        assert_eq!(
            body.next_action(&mut ctx, Completion::Started),
            Action::Terminate
        );
    }
}
