//! The per-thread scratch of the simulation entry points.
//!
//! The paper's tables simulate thousands of small systems, so what a run
//! costs before its first decision and after its last matters as much as
//! the decisions. Every buffer a run uses but does not return lives in one
//! [`Scratch`] per thread: the lane, task and group tables of the frozen
//! spec ([`crate::tables`]) and the driver's lanes, job queues, release
//! wheel, ready sets and admission buffer ([`crate::driver`]).
//! [`crate::simulate`] and [`crate::simulate_with_probe`] take the scratch
//! when a run starts and put it back when the run ends, so after one run on
//! a thread a simulation allocates only the trace it returns.
//! [`crate::simulate_reference`] allocates its own state.
//!
//! The scratch holds capacity only. Between runs every buffer is empty and
//! holds owned values (indices, never borrowed slices), and emptying it
//! costs what the last run used. A run nested in another (from a probe
//! hook), or the first run after one that panicked, finds the slot empty
//! and allocates afresh, so no run reads what another left.

use crate::driver::DriverScratch;
use crate::tables::TableBuffers;
use std::cell::Cell;

/// Every buffer a simulation uses but does not return, empty.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The frozen spec's tables.
    pub(crate) tables: TableBuffers,
    /// The driver's buffers.
    pub(crate) driver: DriverScratch,
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
