//! # rt-taskserver — the Task Server Framework
//!
//! Rust implementation of the paper's primary contribution: an RTSJ extension
//! for designing real-time event-based applications with aperiodic task
//! servers. It provides the classes of the paper's Figure 1 —
//! [`ServableAsyncEvent`], [`ServableHandler`] (the SAEH), the abstract
//! `TaskServer` as one lane's [`ServerShared`] state and its service loop,
//! the [`PollingTaskServer`] and [`DeferrableTaskServer`] policies plus a
//! [`BackgroundServer`] baseline and a [`SporadicTaskServer`], and
//! [`rtsj_emu::TaskServerParameters`] — installed as data by one routine
//! that both execution loops run ([`framework`]), together with:
//!
//! * the pending-event queue of §4, the paper's FIFO list, indexed for
//!   FIFO-with-skip service ([`queue::PendingQueue`]); the §7 list of lists
//!   that prices an arrival in O(1) is `rt_analysis::InstancePacker`, which
//!   the admission plan of `rt-admission` runs per arrival;
//! * the policy-independent service loop with `Timed` budget enforcement and
//!   overhead accounting ([`serve`]);
//! * on-line response-time prediction and admission control
//!   ([`admission`]);
//! * a runner that executes a complete [`rt_model::SystemSpec`] as a
//!   task-server application in virtual time ([`system::execute`], with the
//!   linear-scan RTSJ engine behind [`system::execute_reference`]) — the
//!   "execution" side of the paper's evaluation.
//!
//! ## Implementation constraints (paper §4)
//!
//! Handlers are not resumable: a handler is only dispatched when its whole
//! declared cost fits in the budget its policy grants, and it is
//! asynchronously interrupted (and counted in the AIR metric) when its actual
//! demand — plus the dispatch/enforcement overheads charged inside the budget
//! — exceeds that budget. The server must be the highest-priority task of the
//! system; `rt_model::SystemSpec::validate` enforces it.
//!
//! ## Fault injection & mode changes (enforcement complexity)
//!
//! A spec's [`rt_model::FaultPlan`] is enforced by this engine at three
//! points, none of which costs anything on fault-free specs:
//!
//! * **Arrival faults** (release jitter, drops) are normalised away by
//!   `rt_model::SystemSpec::apply_arrival_faults` before the engine is
//!   built — zero runtime cost, and the same normalised stream every
//!   other engine sees.
//! * **Cost overruns** ride the `Timed` budget machinery the paper's §4
//!   already requires: an overrun-tagged release demands
//!   `declared + extra` but its service is capped at the *declared*
//!   cost on any lane — including background lanes, which otherwise
//!   grant unbounded budget. The cap is one extra `min` per dispatch,
//!   O(1); exhausting it surfaces as [`rt_model::AperiodicFate::Aborted`]
//!   (distinct from a plain `Interrupted` budget collision) and releases
//!   the event's admission-plan slot
//!   ([`rt_admission::ServerAdmission::on_abort`]), which pays the
//!   admission repack — O(backlog) — only when an abort actually fires.
//! * **Mode changes** are applied by the service loop between services
//!   ([`state::ServerShared::apply_due_mode_changes`]): the lane is
//!   quiescent there by construction (no in-service handler), so
//!   in-flight work always drains under the old parameters and the
//!   reconfiguration lands at the same instant the simulator picks. The
//!   sweep is O(pending mode changes) per service-loop pass with
//!   per-record applied flags — amortised O(1) per decision.
//!
//! ## Per-run cost model
//!
//! Preparing a run ([`system::ExecutionPlan::prepare`]) is
//! O(structure + events-within-horizon · log overruns): validation and one
//! planned-event table of `Copy` handler templates, each resolving its
//! injected overrun by binary search in an [`rt_model::OverrunTable`].
//! Nothing is allocated per event (pinned by `rt-bench`'s `zero_alloc`
//! test), and fault-free specs are borrowed (`Cow`), never cloned.
//! Running the driver ([`fastpath`]) is O(decisions) under fixed
//! priorities and O(decisions · log n) under EDF, with or without a probe,
//! and performs zero heap allocations per decision (pinned by the same
//! test); the linear-scan reference costs O(t + m) per decision.
//! Post-run trace finalisation buckets execution segments by task in two
//! passes — O(segments + tasks), *not* O(tasks × segments); at 300 tasks
//! the difference is the bulk of the per-run cost — and takes the aperiodic
//! outcomes from the run's slot table ([`framework`]), which needs one
//! walk over the live backlog and one sort that is a linear pass when the
//! slots are already in `(release, event)` order.
//!
//! Every buffer a run uses but does not return — the planned-event and
//! substrate tables [`execute`] builds, the install's lanes, queue buffers,
//! hook table, server list and timers, the driver's tables and
//! finalisation's buckets — is kept by the thread between runs, empty,
//! like the memory an SCJ mission sets up before releasing its handlers.
//! [`execute`], [`execute_with_probe`] and [`ExecutionPlan::run`] take it
//! when a run starts and give it back when the run ends, so after one run
//! on a thread an execution allocates only its trace (the segments and the
//! outcome slots), unless the system outsizes every earlier one. A run
//! nested in another, or the first after a run that panicked, allocates
//! afresh. [`execute_reference`] and [`ExecutionPlan::prepare`] allocate
//! their own tables.
//!
//! ```
//! use rt_model::{Instant, Priority, ServerPolicyKind, ServerSpec, Span, SystemSpec};
//! use rt_taskserver::{execute, ExecutionConfig};
//!
//! // The paper's Table 1 example with e1 fired at t=0.
//! let mut b = SystemSpec::builder("quickstart");
//! b.server(ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30)));
//! b.periodic("tau1", Span::from_units(2), Span::from_units(6), Priority::new(20));
//! b.periodic("tau2", Span::from_units(1), Span::from_units(6), Priority::new(10));
//! b.aperiodic(Instant::from_units(0), Span::from_units(2));
//! b.horizon_server_periods(10);
//! let spec = b.build().unwrap();
//!
//! let trace = execute(&spec, &ExecutionConfig::ideal());
//! assert_eq!(trace.outcomes[0].response_time(), Some(Span::from_units(2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod deferrable;
pub mod fastpath;
pub mod framework;
pub mod handler;
pub mod polling;
pub mod queue;
mod scratch;
pub mod serve;
pub mod sporadic;
pub mod state;
pub mod system;

pub use admission::{
    predicted_response, textbook_prediction, AdmissionController, AdmissionOracle,
};
pub use framework::{
    BackgroundServer, DeferrableTaskServer, PollingTaskServer, ServableAsyncEvent,
    SporadicTaskServer,
};
pub use handler::{QueuedRelease, ServableHandler};
pub use queue::PendingQueue;
pub use rtsj_emu::TaskServerParameters;
pub use state::{GrantedService, ServerShared};
pub use system::{execute, execute_reference, execute_with_probe, ExecutionConfig, ExecutionPlan};

#[cfg(test)]
mod proptests {
    //! Randomised property tests. The offline build environment has no
    //! `proptest`, so the same properties are exercised over many seeded,
    //! deterministic random cases instead of shrinking strategies.

    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rt_model::{Instant, Priority, ServerPolicyKind, ServerSpec, Span, SystemSpec, Trace};
    use rtsj_emu::OverheadModel;

    fn random_spec(rng: &mut StdRng) -> SystemSpec {
        let capacity = rng.gen_range(2u64..=4);
        let policy = if rng.gen() {
            ServerPolicyKind::Polling
        } else {
            ServerPolicyKind::Deferrable
        };
        let mut b = SystemSpec::builder("prop-exec");
        b.server(ServerSpec {
            policy,
            capacity: Span::from_units(capacity),
            period: Span::from_units(6),
            priority: Priority::new(30),
            discipline: rt_model::QueueDiscipline::FifoSkip,
            admission: Default::default(),
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
        for _ in 0..rng.gen_range(0u64..=11) {
            let release = rng.gen_range(0u64..=54);
            let cost = rng.gen_range(1u64..=2);
            b.aperiodic(
                Instant::from_units(release),
                Span::from_units(cost.min(capacity)),
            );
        }
        b.horizon_server_periods(10);
        b.build().unwrap()
    }

    fn served(trace: &Trace) -> usize {
        trace.outcomes.iter().filter(|o| o.is_served()).count()
    }

    const CASES: u64 = 48;

    /// Executions always produce well-formed traces with one outcome per
    /// released event.
    #[test]
    fn executions_are_well_formed() {
        let mut rng = StdRng::seed_from_u64(0xA11C_E001);
        for _ in 0..CASES {
            let spec = random_spec(&mut rng);
            let trace = execute(&spec, &ExecutionConfig::reference());
            assert!(trace.check_invariants().is_ok());
            assert_eq!(trace.outcomes.len(), spec.aperiodics.len());
        }
    }

    /// With no overheads and no underdeclared handlers, nothing is ever
    /// interrupted.
    #[test]
    fn ideal_executions_never_interrupt() {
        let mut rng = StdRng::seed_from_u64(0xA11C_E002);
        for _ in 0..CASES {
            let spec = random_spec(&mut rng);
            let trace = execute(&spec, &ExecutionConfig::ideal());
            assert!(trace.outcomes.iter().all(|o| !o.is_interrupted()));
        }
    }

    /// Adding runtime overhead can only reduce the number of served events.
    #[test]
    fn overhead_never_helps() {
        let mut rng = StdRng::seed_from_u64(0xA11C_E003);
        for _ in 0..CASES {
            let spec = random_spec(&mut rng);
            let ideal = execute(&spec, &ExecutionConfig::ideal());
            let heavy = execute(
                &spec,
                &ExecutionConfig::ideal().with_overhead(OverheadModel::reference().scaled(4)),
            );
            assert!(served(&heavy) <= served(&ideal));
        }
    }

    /// The periodic tasks keep their deadlines whenever the server's
    /// capacity keeps the total utilisation within 1 on the harmonic
    /// Table 1 set (capacity ≤ 3) and the runtime is ideal.
    #[test]
    fn periodic_tasks_are_protected_in_ideal_executions() {
        let mut rng = StdRng::seed_from_u64(0xA11C_E005);
        for _ in 0..CASES {
            let spec = random_spec(&mut rng);
            if spec.server().unwrap().capacity > Span::from_units(3) {
                continue;
            }
            let trace = execute(&spec, &ExecutionConfig::ideal());
            assert!(trace.all_periodic_deadlines_met());
        }
    }
}
