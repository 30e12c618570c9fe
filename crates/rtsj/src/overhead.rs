//! Runtime overhead model of the RTSJ execution engine.
//!
//! The paper's measurements differ from its simulations partly because the
//! real runtime pays for things the simulator ignores: the timers that fire
//! the asynchronous events execute above every application priority, the
//! server pays a dispatch cost before a handler starts, and the
//! `Timed`/`Interruptible` budget enforcement itself eats into the budget
//! ("an event can be interrupted only if the server has theoretically enough
//! resources to serve the event, but not enough in practice", §6.1).
//!
//! The virtual-time engine makes those costs explicit and configurable, so
//! the execution-vs-simulation gap of Tables 2–5 has the same causes here as
//! in the paper, and so the ablation benches can turn each cost off
//! individually.

use rt_model::Span;

/// Explicit processor costs charged by the execution engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadModel {
    /// Cost of firing one asynchronous event (the timer machinery runs above
    /// every application priority and delays whatever was running).
    pub timer_fire: Span,
    /// Cost paid by a task server to dispatch one handler (queue manipulation,
    /// starting the `Timed` interruptible section). Charged *inside* the
    /// budget granted to the handler, exactly like the RTSJ implementation.
    pub dispatch: Span,
    /// Cost of tearing down the interruptible section and updating the
    /// remaining capacity after a handler finishes or is interrupted. Also
    /// charged against the server capacity.
    pub enforcement: Span,
}

impl OverheadModel {
    /// A zero-overhead model: the execution engine then behaves like an ideal
    /// runtime (useful for differential tests against the simulator).
    pub const fn none() -> Self {
        OverheadModel {
            timer_fire: Span::ZERO,
            dispatch: Span::ZERO,
            enforcement: Span::ZERO,
        }
    }

    /// The reference model used by the experiments: a 0.02 tu timer fire,
    /// a 0.10 tu dispatch and a 0.05 tu enforcement cost. With the paper's
    /// 1 tu ≈ 1 s scale these are conservative figures for the RTSJ
    /// reference implementation on the paper's hardware; what matters for the
    /// reproduction is that they are small compared to the event costs but
    /// not negligible compared to the slack between a handler's cost and the
    /// server capacity.
    pub const fn reference() -> Self {
        OverheadModel {
            timer_fire: Span::from_ticks(20),
            dispatch: Span::from_ticks(100),
            enforcement: Span::from_ticks(50),
        }
    }

    /// Scales every component by an integer factor (used by the ablation
    /// benches to sweep the overhead magnitude).
    pub fn scaled(&self, factor: u64) -> Self {
        OverheadModel {
            timer_fire: self.timer_fire.saturating_mul(factor),
            dispatch: self.dispatch.saturating_mul(factor),
            enforcement: self.enforcement.saturating_mul(factor),
        }
    }

    /// True when every component is zero.
    pub fn is_none(&self) -> bool {
        self.timer_fire.is_zero() && self.dispatch.is_zero() && self.enforcement.is_zero()
    }
}

impl Default for OverheadModel {
    fn default() -> Self {
        Self::reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_all_zero() {
        let none = OverheadModel::none();
        assert!(none.is_none());
    }

    #[test]
    fn reference_is_small_but_nonzero() {
        let reference = OverheadModel::reference();
        assert!(!reference.is_none());
        assert!(reference.dispatch + reference.enforcement < Span::from_units(1));
    }

    #[test]
    fn scaling_multiplies_every_component() {
        let scaled = OverheadModel::reference().scaled(3);
        assert_eq!(scaled.timer_fire, Span::from_ticks(60));
        assert_eq!(scaled.dispatch, Span::from_ticks(300));
        assert_eq!(scaled.enforcement, Span::from_ticks(150));
        assert_eq!(OverheadModel::reference().scaled(0), OverheadModel::none());
    }
}
