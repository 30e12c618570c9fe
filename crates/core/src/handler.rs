//! Servable handlers: the framework's `ServableAsyncEventHandler` (SAEH).
//!
//! A servable handler "embodies the code which can be associated with an SAE"
//! (paper §3). In the emulation the *code* is characterised by its processor
//! demand: the cost declared to the server (used for admission and budget
//! decisions) and the cost it actually needs (which may be larger — that is
//! Scenario 3 and one of the two causes of interruptions the paper lists).

use rt_model::{EventId, HandlerId, Instant, Span};

/// A servable asynchronous event handler.
///
/// The handler is plain `Copy` data with no heap-owning field, so queuing a
/// release copies a few machine words — one of the properties behind the
/// execution driver's zero-allocations-per-decision guarantee. The event it
/// serves identifies it in traces and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServableHandler {
    /// Handler identifier.
    pub id: HandlerId,
    /// Cost declared to the task server.
    pub declared_cost: Span,
    /// Processor time the handler really needs.
    pub actual_cost: Span,
    /// Optional relative deadline of the events bound to this handler (d_k
    /// in the paper's on-line equations). Deadline-ordered servers serve the
    /// earliest `release + relative_deadline` first; handlers without one
    /// are ranked by their release instant, the FIFO fallback.
    pub relative_deadline: Option<Span>,
    /// Completion value of the handler's events (the D-OVER value tag used
    /// by value-density admission and the accrued-value metric). Defaults to
    /// the handler's cost in ticks, i.e. unit value density.
    pub value: u64,
    /// Fault-injected extra demand beyond the actual cost
    /// ([`rt_model::FaultPlan`] overruns). A non-zero value marks the
    /// release as *fault-injected*: the server enforces the declared cost as
    /// a hard service cap on it and surfaces the cutoff as
    /// [`rt_model::AperiodicFate::Aborted`] instead of the legacy
    /// `Interrupted` fate of plain under-declaration.
    pub overrun_extra: Span,
}

impl ServableHandler {
    /// Creates a handler whose declared and actual costs agree.
    pub fn new(id: HandlerId, cost: Span) -> Self {
        ServableHandler {
            id,
            declared_cost: cost,
            actual_cost: cost,
            relative_deadline: None,
            value: cost.ticks(),
            overrun_extra: Span::ZERO,
        }
    }

    /// Attaches an explicit completion value (the D-OVER value tag).
    pub fn with_value(mut self, value: u64) -> Self {
        self.value = value;
        self
    }

    /// Declares a cost different from the real demand.
    pub fn with_declared_cost(mut self, declared: Span) -> Self {
        self.declared_cost = declared;
        self
    }

    /// Attaches a relative deadline to the handler's events.
    pub fn with_relative_deadline(mut self, deadline: Span) -> Self {
        self.relative_deadline = Some(deadline);
        self
    }

    /// True when the handler carries an injected overrun.
    pub fn is_fault_injected(&self) -> bool {
        !self.overrun_extra.is_zero()
    }

    /// True when the handler will overrun its declaration.
    pub fn underdeclared(&self) -> bool {
        self.actual_cost > self.declared_cost
    }
}

/// One pending release of a servable handler, queued inside a task server.
///
/// The paper binds each SAEH to a unique server and adds it to "the
/// pending-events list of this server" when one of its events fires; this is
/// that list's element type. Fully `Copy` (see [`ServableHandler`]), so the
/// pending list's churn is memcpy, never allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedRelease {
    /// The event occurrence that fired.
    pub event: EventId,
    /// The handler to execute.
    pub handler: ServableHandler,
    /// Fire instant (the release time used for response-time measurements).
    pub release: Instant,
    /// Absolute deadline used by deadline-ordered service:
    /// `release + relative_deadline` when the handler declares one, the
    /// release instant otherwise (so deadline order degenerates to FIFO on
    /// deadline-free traffic).
    pub deadline: Instant,
    /// The run's outcome slot of this release: the plan index of its event
    /// (zero for a release queued outside a run, which records nothing).
    pub(crate) slot: u32,
}

impl QueuedRelease {
    /// Creates a queued release.
    pub fn new(event: EventId, handler: ServableHandler, release: Instant) -> Self {
        let deadline = match handler.relative_deadline {
            Some(relative) => release + relative,
            None => release,
        };
        QueuedRelease {
            event,
            handler,
            release,
            deadline,
            slot: 0,
        }
    }

    /// The same release, recorded in outcome slot `slot` of its run.
    pub(crate) fn in_slot(mut self, slot: usize) -> Self {
        self.slot = slot as u32;
        self
    }

    /// Cost declared to the server.
    pub fn declared_cost(&self) -> Span {
        self.handler.declared_cost
    }

    /// Real processor demand of the handler.
    pub fn actual_cost(&self) -> Span {
        self.handler.actual_cost
    }

    /// Effective processor demand of this release: the actual cost plus any
    /// fault-injected extra.
    pub fn demanded_cost(&self) -> Span {
        self.handler.actual_cost + self.handler.overrun_extra
    }

    /// Completion value of the release (the D-OVER value tag).
    pub fn value(&self) -> u64 {
        self.handler.value
    }

    /// The release's absolute deadline when its handler declares one —
    /// unlike [`QueuedRelease::deadline`], which keys deadline-free releases
    /// by their release instant for the deadline-ordered service fallback.
    pub fn admission_deadline(&self) -> Option<Instant> {
        self.handler
            .relative_deadline
            .map(|relative| self.release + relative)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handler_costs_and_underdeclaration() {
        let h = ServableHandler::new(HandlerId::new(1), Span::from_units(2));
        assert_eq!(h.declared_cost, Span::from_units(2));
        assert_eq!(h.actual_cost, Span::from_units(2));
        assert!(!h.underdeclared());
        let h = h.with_declared_cost(Span::from_units(1));
        assert!(h.underdeclared());
    }

    #[test]
    fn queued_release_exposes_costs() {
        let h = ServableHandler::new(HandlerId::new(1), Span::from_units(3));
        let q = QueuedRelease::new(EventId::new(7), h, Instant::from_units(4));
        assert_eq!(q.declared_cost(), Span::from_units(3));
        assert_eq!(q.actual_cost(), Span::from_units(3));
        assert_eq!(q.release, Instant::from_units(4));
        assert_eq!(q.event, EventId::new(7));
    }
}
