//! # rt-compile — validate a spec's structure once
//!
//! Specialization is not a mode beside the engines, it *is* the engines
//! (after RTFM: "let the hardware do the bulk of the scheduling"):
//! `rtss_sim::simulate` freezes a spec into dispatch tables and runs a
//! driver monomorphized per server-policy kind × scheduling policy, and
//! `rt_taskserver::execute` drives the real server bodies through a
//! table-driven driver monomorphized per scheduling policy. Each world
//! keeps one deliberately simple reference oracle beside its fast engine
//! (`rtss_sim::simulate_reference`, `rt_taskserver::execute_reference`).
//!
//! What remains here is a thin front-end: [`CompiledSystem::compile`]
//! validates the spec's structure and resolves its arrival faults once,
//! borrowing the spec when it has none — O(tasks + servers), no per-event
//! work or allocation. A caller that executes one spec repeatedly prepares
//! an `rt_taskserver::ExecutionPlan` of it once and reruns the plan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rt_model::{ModelError, SystemSpec};
use std::borrow::Cow;

/// A structurally validated [`SystemSpec`] with its arrival faults
/// resolved, ready to execute. Borrows the spec it was compiled from (owned
/// only when arrival faults force a normalised copy).
///
/// ```
/// use rt_model::{Instant, Priority, ServerSpec, Span, SystemSpec};
/// use rt_compile::CompiledSystem;
/// use rt_taskserver::{execute, ExecutionConfig, ExecutionPlan};
///
/// let mut b = SystemSpec::builder("doc");
/// b.server(ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30)));
/// b.periodic("tau1", Span::from_units(2), Span::from_units(6), Priority::new(20));
/// b.aperiodic(Instant::from_units(0), Span::from_units(2));
/// b.horizon_server_periods(4);
/// let spec = b.build().unwrap();
///
/// let compiled = CompiledSystem::compile(&spec).unwrap();
/// let config = ExecutionConfig::reference();
/// let plan = ExecutionPlan::prepare(compiled.spec(), &config).unwrap();
/// assert_eq!(plan.run(), execute(&spec, &config));
/// ```
#[derive(Debug, Clone)]
pub struct CompiledSystem<'a> {
    /// The validated source spec — borrowed from the caller, or owned when
    /// arrival faults required normalisation.
    spec: Cow<'a, SystemSpec>,
}

impl<'a> CompiledSystem<'a> {
    /// Structurally validates `spec` and resolves its arrival faults.
    ///
    /// Compilation is O(tasks + servers): the aperiodic traffic is neither
    /// copied nor walked. Workload validation — the O(events)
    /// id/sortedness/routing sweep — is the spec builder's job and is
    /// re-asserted here in debug builds only.
    ///
    /// # Errors
    /// Returns the [`ModelError`] of [`SystemSpec::validate_structure`] when
    /// the task/server tables are not well formed; a compiled system always
    /// corresponds to a structurally valid spec.
    pub fn compile(spec: &'a SystemSpec) -> Result<CompiledSystem<'a>, ModelError> {
        spec.validate_structure()?;
        debug_assert!(
            spec.validate_workload().is_ok(),
            "compile() requires a workload-valid spec: {:?}",
            spec.validate_workload()
        );
        // Arrival faults (release jitter, dropped arrivals) are a pure spec
        // normalization, resolved here once. Fault-free specs stay borrowed.
        let spec = match spec.apply_arrival_faults() {
            Some(faulted) => Cow::Owned(faulted),
            None => Cow::Borrowed(spec),
        };
        Ok(CompiledSystem { spec })
    }

    /// The validated (fault-normalised) specification this system was
    /// compiled from.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }
}
