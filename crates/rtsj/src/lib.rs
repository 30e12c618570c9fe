//! # rtsj-emu — emulation of the RTSJ execution substrate
//!
//! The paper implements its task-server framework on top of the Real-Time
//! Specification for Java and measures it on the TimeSys reference
//! implementation. This crate provides the corresponding substrate for the
//! Rust reproduction:
//!
//! * [`params`] — the paper's `TaskServerParameters`;
//! * [`body`] — the coroutine-style protocol ([`body::ThreadBody`]) through
//!   which schedulable objects describe their behaviour to the engine,
//!   covering `waitForNextPeriod`, event waits and `Timed.doInterruptible`,
//!   and reach shared state through their context's world;
//! * [`engine`] — a deterministic virtual-time, preemptive fixed-priority
//!   (or EDF) execution engine with asynchronous events, timers running
//!   above every application priority, and `Timed` budget enforcement. It
//!   carries one world value ([`World`]) that its bodies reach through
//!   their context and that runs each event's fire hook, so bodies and
//!   hooks share state without co-owning it;
//! * [`overhead`] — the explicit runtime-cost model that recreates the
//!   execution-vs-simulation gap measured by the paper;
//! * [`handlers`] — the ready-made body of a periodic real-time thread.
//!
//! The task-server framework itself (the paper's contribution) lives in the
//! `rt-taskserver` crate and is built entirely on this API.
//!
//! ## Per-decision cost model
//!
//! The engine is the seed's linear-scan loop, kept as the execution world's
//! reference oracle (`rt_taskserver::execute_reference`): it advances
//! decision by decision in integer virtual time, and each decision rescans
//! every timer and thread — O(t + m) for `t` threads and `m` timers. It
//! allocates nothing once its buffers are warm (scratch buffers for due
//! timer fires, event cascades and waiter lists are reused across
//! decisions; pinned by `rt-bench`'s `zero_alloc` test). The execution
//! driver in `rt-taskserver::fastpath` — what `rt_taskserver::execute` and
//! `execute_with_probe` run under both scheduling policies — replaces the
//! scans with precomputed rank/ceiling tables and a deadline heap while
//! reproducing this engine's traces byte-identically.
//!
//! ```
//! use rt_model::{ExecUnit, Instant, Priority, Span, TaskId};
//! use rtsj_emu::{Engine, EngineConfig, OverheadModel, PeriodicThreadBody};
//!
//! // A periodic real-time thread (cost 2, period 10) on an ideal runtime,
//! // observed for 30 virtual time units.
//! let mut engine = Engine::new(
//!     EngineConfig::new(Instant::from_units(30)).with_overhead(OverheadModel::none()),
//! );
//! engine.spawn_periodic(
//!     Priority::new(10),
//!     Instant::ZERO,
//!     Span::from_units(10),
//!     Box::new(PeriodicThreadBody::new(
//!         Span::from_units(2),
//!         ExecUnit::Task(TaskId::new(0)),
//!     )),
//! );
//! let trace = engine.run();
//! // Three releases, two units of service each — deterministically.
//! assert_eq!(trace.busy_time(ExecUnit::Task(TaskId::new(0))), Span::from_units(6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod body;
pub mod engine;
pub mod handlers;
pub mod overhead;
pub mod params;

pub use body::{Action, BodyCtx, Completion, ThreadBody};
pub use engine::{Engine, EngineConfig, EventHandle, FireCtx, ThreadHandle, World};
pub use handlers::PeriodicThreadBody;
pub use overhead::OverheadModel;
pub use params::TaskServerParameters;

#[cfg(test)]
mod proptests {
    //! Randomised property tests. The offline build environment has no
    //! `proptest`, so the same properties are exercised over seeded,
    //! deterministic random cases instead of shrinking strategies.

    use super::*;
    use crate::handlers::tests::{bound_handler, Runs};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rt_model::{ExecUnit, Instant, Priority, Span, TaskId};

    const CASES: usize = 32;

    /// A random set of periodic workers: (priority, cost, period).
    fn random_workers(rng: &mut StdRng) -> Vec<(u8, u64, u64)> {
        let n = rng.gen_range(1u64..5) as usize;
        (0..n)
            .map(|_| {
                (
                    rng.gen_range(1u64..90) as u8,
                    rng.gen_range(1u64..4),
                    rng.gen_range(5u64..20),
                )
            })
            .collect()
    }

    /// The engine produces well-formed traces and conserves processor
    /// time for arbitrary periodic workloads.
    #[test]
    fn engine_traces_are_well_formed() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0300);
        for _ in 0..CASES {
            let workers = random_workers(&mut rng);
            let horizon = Instant::from_units(60);
            let mut engine =
                Engine::new(EngineConfig::new(horizon).with_overhead(OverheadModel::none()));
            for (i, (prio, cost, period)) in workers.iter().enumerate() {
                engine.spawn_periodic(
                    Priority::new(*prio),
                    Instant::ZERO,
                    Span::from_units(*period),
                    Box::new(PeriodicThreadBody::new(
                        Span::from_units(*cost),
                        ExecUnit::Task(TaskId::new(i as u32)),
                    )),
                );
            }
            let trace = engine.run();
            assert!(trace.check_invariants().is_ok());
            let busy: Span = trace
                .segments
                .iter()
                .filter(|s| s.unit != ExecUnit::Idle)
                .map(|s| s.duration())
                .sum();
            assert!(busy <= horizon - Instant::ZERO);
            assert_eq!(busy + trace.idle_time(), horizon - Instant::ZERO);
        }
    }

    /// The top-priority worker is never preempted, so it receives at
    /// least one full cost of service per complete period of the horizon.
    #[test]
    fn highest_priority_worker_gets_its_full_demand() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0301);
        for _ in 0..CASES {
            let workers = random_workers(&mut rng);
            let (_, cost, period) = workers[0];
            if cost > period {
                continue;
            }
            let horizon_units = 60u64;
            let horizon = Instant::from_units(horizon_units);
            let mut engine =
                Engine::new(EngineConfig::new(horizon).with_overhead(OverheadModel::none()));
            for (i, (prio, cost, period)) in workers.iter().enumerate() {
                let prio = if i == 0 { 99 } else { (*prio).min(90) };
                engine.spawn_periodic(
                    Priority::new(prio),
                    Instant::ZERO,
                    Span::from_units(*period),
                    Box::new(PeriodicThreadBody::new(
                        Span::from_units(*cost),
                        ExecUnit::Task(TaskId::new(i as u32)),
                    )),
                );
            }
            let trace = engine.run();
            let full_periods = horizon_units / period;
            let expected_min = Span::from_units(cost * full_periods);
            assert!(trace.busy_time(ExecUnit::Task(TaskId::new(0))) >= expected_min);
        }
    }

    /// Determinism: two identical engines produce identical traces, and
    /// their bound handler logs the same runs.
    #[test]
    fn engine_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0302);
        for _ in 0..CASES {
            let workers = random_workers(&mut rng);
            let build = || {
                let mut engine = Engine::with_world(
                    EngineConfig::new(Instant::from_units(40))
                        .with_overhead(OverheadModel::reference()),
                    Runs::default(),
                );
                let event = engine.create_event();
                engine.add_periodic_timer(Instant::from_units(1), Span::from_units(7), event);
                engine.spawn(Priority::new(95), bound_handler(event, Span::from_units(1)));
                for (i, (prio, cost, period)) in workers.iter().enumerate() {
                    engine.spawn_periodic(
                        Priority::new(*prio),
                        Instant::ZERO,
                        Span::from_units(*period),
                        Box::new(PeriodicThreadBody::new(
                            Span::from_units(*cost),
                            ExecUnit::Task(TaskId::new(i as u32)),
                        )),
                    );
                }
                engine.run_with_world()
            };
            assert_eq!(build(), build());
        }
    }
}
