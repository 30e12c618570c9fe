//! The per-thread scratch of the execution entry points.
//!
//! The paper's tables execute thousands of small systems, so what a run
//! costs before its first decision and after its last matters as much as
//! the decisions. Every buffer a run uses but does not return lives in one
//! [`Scratch`] per thread: the planned-event and substrate tables
//! [`crate::execute`] builds, the install's lanes, queue buffers, hook
//! table, server list and timers ([`crate::framework`]), the driver's
//! thread table, wheel, bitmap, heaps, wake list and the timer-request
//! buffer it lends the server bodies ([`crate::fastpath`])
//! and finalisation's per-task buckets. It is the discipline of an SCJ
//! mission, whose handlers run in memory set up once, at the mission's
//! initialisation. [`crate::execute`], [`crate::execute_with_probe`] and
//! [`crate::ExecutionPlan::run`] take the scratch when a run starts and put
//! it back when the run ends, so after one run on a thread an execution
//! allocates only the trace it returns. [`crate::execute_reference`] and
//! [`crate::ExecutionPlan::prepare`] allocate their own tables.
//!
//! The scratch holds capacity only. Between runs every buffer is empty and
//! holds owned values (indices, never borrowed slices), and emptying it
//! costs what the last run used. A run nested in another (from a probe
//! hook), or the first run after one that panicked, finds the slot empty
//! and allocates afresh, so no run reads what another left.

use crate::fastpath::{RunScratch, SubstratePlan};
use crate::system::PlannedEvent;
use std::cell::Cell;

/// Every buffer an execution uses but does not return, empty.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The planned-event table [`crate::execute`] builds.
    pub(crate) events: Vec<PlannedEvent>,
    /// The substrate [`crate::execute`] analyses.
    pub(crate) substrate: SubstratePlan,
    /// The install's, the driver's and finalisation's buffers.
    pub(crate) run: RunScratch,
}

// rt-lint: allow(determinism, reason = "capacity-only scratch: a run takes it and puts it back with every buffer empty, so no run reads a value another left")
thread_local! {
    static SCRATCH: Cell<Option<Box<Scratch>>> = const { Cell::new(None) };
}

/// Runs `run` with this thread's scratch, or with a fresh one when the slot
/// is empty, and keeps the scratch for the thread's next run.
pub(crate) fn with_scratch<R>(run: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = SCRATCH.take().unwrap_or_default();
    let result = run(&mut scratch);
    SCRATCH.set(Some(scratch));
    result
}
