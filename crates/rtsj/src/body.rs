//! Schedulable bodies: the coroutine-style protocol between the virtual-time
//! engine and the code it schedules.
//!
//! An RTSJ schedulable object (a `RealtimeThread`, an `AsyncEventHandler`, a
//! task server) is represented here by a [`ThreadBody`]: a state machine the
//! engine drives by asking "what do you do next?" and answering with how the
//! previous action ended. Bodies never block the host thread; "waiting" and
//! "computing" are virtual-time actions interpreted by the engine, which is
//! what makes executions deterministic and independent of the host machine.
//! State that bodies share with each other and with event fires lives in the
//! world the engine carries, reached through [`BodyCtx::world`] by whoever
//! is running rather than co-owned.
//!
//! The vocabulary maps onto the RTSJ primitives the paper's framework uses:
//!
//! | RTSJ                                   | here                              |
//! |----------------------------------------|-----------------------------------|
//! | `RealtimeThread.waitForNextPeriod()`   | [`Action::WaitForNextPeriod`]     |
//! | `AsyncEvent.fire()` / bound handler    | [`Action::WaitForEvent`] + world  |
//! | `Timed.doInterruptible(...)`           | [`Action::ComputeInterruptible`]  |
//! | plain `run()` code                     | [`Action::Compute`]               |

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
    /// Block until the given asynchronous event is fired (one pending fire is
    /// consumed if the event was fired while the schedulable was not waiting).
    WaitForEvent(EventHandle),
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

/// Context handed to a body while it decides its next action: the current
/// instant, the world the engine carries (`W`, `()` by default — see
/// [`crate::engine::World`]) and the requests the engine applies once the
/// body returns.
#[derive(Debug)]
pub struct BodyCtx<'w, W = ()> {
    now: Instant,
    world: &'w mut W,
    timer_requests: Vec<(Instant, EventHandle)>,
    deadline_request: Option<Instant>,
}

impl<'w, W> BodyCtx<'w, W> {
    /// Creates a context for the given instant over `world`. The engine
    /// builds these internally; the constructor is public so other drivers
    /// (`rt-taskserver`'s execution driver) and unit tests of custom
    /// [`ThreadBody`] implementations can pump bodies without an engine.
    pub fn new(now: Instant, world: &'w mut W) -> Self {
        BodyCtx {
            now,
            world,
            timer_requests: Vec::new(),
            deadline_request: None,
        }
    }

    /// Lends the context an empty buffer for the timers [`Self::arm_timer`]
    /// queues; [`Self::take_timer_requests`] hands it back with them. A
    /// driver that keeps the buffer between pumps (`rt-taskserver`'s
    /// execution fast path) arms timers without allocating.
    pub fn with_timer_buffer(mut self, buffer: Vec<(Instant, EventHandle)>) -> Self {
        debug_assert!(buffer.is_empty(), "a lent timer buffer starts empty");
        self.timer_requests = buffer;
        self
    }

    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// The world the engine carries: the state bodies share with each other
    /// and with the engine's event fires, reached by whoever is running
    /// instead of co-owned.
    pub fn world(&mut self) -> &mut W {
        self.world
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

    /// Drains the deadline published by [`Self::set_deadline`]. Public so
    /// drivers other than the engine (`rt-taskserver`'s execution fast path,
    /// unit tests of custom bodies) can pump a [`ThreadBody`] and apply its
    /// requests with the engine's exact ordering: deadline, action, timers.
    pub fn take_deadline_request(&mut self) -> Option<Instant> {
        self.deadline_request.take()
    }

    /// Drains the timers armed by [`Self::arm_timer`] (see
    /// [`Self::take_deadline_request`] for why this is public).
    pub fn take_timer_requests(&mut self) -> Vec<(Instant, EventHandle)> {
        std::mem::take(&mut self.timer_requests)
    }
}

/// A schedulable body driven by an engine carrying the world `W`.
pub trait ThreadBody<W = ()> {
    /// Decides the next action, given how the previous one ended.
    fn next_action(&mut self, ctx: &mut BodyCtx<'_, W>, completion: Completion) -> Action;
}

/// Blanket implementation so closures can be used as simple bodies in tests
/// and examples.
impl<W, F> ThreadBody<W> for F
where
    F: FnMut(&mut BodyCtx<'_, W>, Completion) -> Action,
{
    fn next_action(&mut self, ctx: &mut BodyCtx<'_, W>, completion: Completion) -> Action {
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
    fn body_ctx_queues_requests_and_reaches_its_world() {
        let mut log = vec![1];
        let mut ctx = BodyCtx::new(Instant::from_units(3), &mut log);
        assert_eq!(ctx.now(), Instant::from_units(3));
        ctx.world().push(2);
        let wake = (Instant::from_units(5), EventHandle::from_raw(1));
        ctx.arm_timer(wake.0, wake.1);
        assert_eq!(ctx.take_timer_requests(), vec![wake]);
        assert!(ctx.take_timer_requests().is_empty());
        assert_eq!(log, vec![1, 2]);

        // A lent buffer comes back holding the armed timers.
        let buffer = Vec::with_capacity(4);
        let lent = buffer.as_ptr();
        let mut ctx = BodyCtx::new(Instant::ZERO, &mut log).with_timer_buffer(buffer);
        ctx.arm_timer(wake.0, wake.1);
        let timers = ctx.take_timer_requests();
        assert_eq!(timers, vec![wake]);
        assert_eq!(timers.as_ptr(), lent, "the lent buffer, not a fresh one");
    }

    #[test]
    fn closures_are_bodies() {
        let parked = EventHandle::from_raw(0);
        let mut body = |_ctx: &mut BodyCtx, _c: Completion| Action::WaitForEvent(parked);
        assert_eq!(
            body.next_action(
                &mut BodyCtx::new(Instant::ZERO, &mut ()),
                Completion::Started
            ),
            Action::WaitForEvent(parked)
        );
    }
}
