//! # rtss-sim — a discrete-event real-time system simulator
//!
//! Rust re-implementation of RTSS, the simulator the paper uses to establish
//! the reference behaviour of the task-server policies (§5): "a Java program
//! which can simulate the execution of a real-time system and display a
//! temporal diagram of the simulated execution".
//!
//! * [`simulate`] / [`simulate_with_probe`] — preemptive fixed-priority or
//!   EDF simulation with literature-exact Polling, Deferrable, Sporadic or
//!   Background servers (the policies "described in literature: this is not
//!   a simulation of our implementations"), producing a
//!   [`rt_model::Trace`]. The spec is frozen into dispatch tables and run by
//!   a driver specialized per server-policy kind × scheduling policy;
//! * [`simulate_reference`] — the seed's linear-scan loop, the deliberately
//!   simple oracle the specialized driver is pinned against byte-for-byte;
//! * [`simulate_dover`] — the D-OVER policy of the RTSS policy menu, EDF
//!   with overload shedding over periodic and aperiodic jobs and no server;
//! * [`gantt`] — ASCII and SVG temporal diagrams.
//!
//! ```
//! use rt_model::{Instant, Priority, ServerPolicyKind, ServerSpec, Span, SystemSpec};
//!
//! let mut b = SystemSpec::builder("quick");
//! b.server(ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30)));
//! b.periodic("tau1", Span::from_units(2), Span::from_units(6), Priority::new(20));
//! b.aperiodic(Instant::from_units(0), Span::from_units(2));
//! b.horizon_server_periods(10);
//! let spec = b.build().unwrap();
//!
//! let trace = rtss_sim::simulate(&spec);
//! assert!(trace.outcomes[0].is_served());
//! assert_eq!(trace, rtss_sim::simulate_reference(&spec));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
pub mod dynamic;
pub mod engine;
pub mod gantt;
mod scratch;
pub mod server;
mod tables;

pub use dynamic::simulate_dover;
pub use engine::{simulate, simulate_reference, simulate_with_probe};
pub use gantt::{render_ascii, render_svg, GanttOptions};
pub use server::{
    BackgroundPolicy, DeferrablePolicy, PollingPolicy, ServerPolicy, ServerState, SporadicPolicy,
};

#[cfg(test)]
mod proptests {
    //! Randomised property tests. The offline build environment has no
    //! `proptest`, so the same properties are exercised over seeded,
    //! deterministic random cases instead of shrinking strategies.

    use super::*;
    use crate::engine::tests::simulate_with_policy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rt_model::{
        ExecUnit, Instant, Priority, ServerPolicyKind, ServerSpec, Span, SystemSpec, Trace,
    };

    const CASES: usize = 64;

    /// A random but always-valid system: the Table 1 periodic pair plus a
    /// random server capacity and random aperiodic traffic.
    fn random_system(rng: &mut StdRng) -> SystemSpec {
        let capacity = rng.gen_range(2u64..=4);
        let policy = if rng.gen() {
            ServerPolicyKind::Polling
        } else {
            ServerPolicyKind::Deferrable
        };
        let mut b = SystemSpec::builder("prop");
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
        for _ in 0..rng.gen_range(0u64..12) {
            let release = rng.gen_range(0u64..55);
            let cost = rng.gen_range(1u64..=2);
            b.aperiodic(
                Instant::from_units(release),
                Span::from_units(cost.min(capacity)),
            );
        }
        b.horizon_server_periods(10);
        b.build().unwrap()
    }

    fn served_time(trace: &Trace) -> Span {
        trace
            .segments
            .iter()
            .filter(|s| matches!(s.unit, ExecUnit::Handler(_)))
            .map(|s| s.duration())
            .sum()
    }

    /// The simulator always produces a structurally valid trace with one
    /// outcome per released event and never reports interruptions.
    #[test]
    fn traces_are_well_formed() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0500);
        for _ in 0..CASES {
            let spec = random_system(&mut rng);
            let trace = simulate(&spec);
            assert!(trace.check_invariants().is_ok());
            assert_eq!(trace.outcomes.len(), spec.aperiodics.len());
            assert!(trace.outcomes.iter().all(|o| !o.is_interrupted()));
        }
    }

    /// Periodic tasks never miss deadlines when the server fits in the
    /// schedulability margin (capacity ≤ 3 keeps total utilisation ≤ 1 on
    /// the harmonic Table 1 set).
    #[test]
    fn periodic_tasks_are_protected() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0501);
        for _ in 0..CASES {
            let spec = random_system(&mut rng);
            if spec.server().unwrap().capacity > Span::from_units(3) {
                continue;
            }
            let trace = simulate(&spec);
            assert!(trace.all_periodic_deadlines_met());
        }
    }

    /// Served handler time never exceeds what the capacity allows:
    /// at most one full capacity per elapsed server period (plus one for
    /// the in-progress period).
    #[test]
    fn capacity_is_never_exceeded() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0502);
        for _ in 0..CASES {
            let spec = random_system(&mut rng);
            let trace = simulate(&spec);
            let server = spec.server().unwrap();
            let periods = (spec.horizon - Instant::ZERO).div_ceil_span(server.period);
            let bound = server.capacity.saturating_mul(periods);
            assert!(served_time(&trace) <= bound);
        }
    }

    /// The deferrable server serves at least as much aperiodic work as
    /// the polling server on the same traffic, and never serves any event
    /// later.
    #[test]
    fn deferrable_dominates_polling_in_served_work() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0503);
        for _ in 0..CASES {
            let spec = random_system(&mut rng);
            let ps = simulate_with_policy(&spec, ServerPolicyKind::Polling);
            let ds = simulate_with_policy(&spec, ServerPolicyKind::Deferrable);
            assert!(served_time(&ds) >= served_time(&ps));
            let served = |t: &Trace| t.outcomes.iter().filter(|o| o.is_served()).count();
            assert!(served(&ds) >= served(&ps));
        }
    }

    /// Simulation is deterministic.
    #[test]
    fn simulation_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0504);
        for _ in 0..CASES {
            let spec = random_system(&mut rng);
            assert_eq!(simulate(&spec), simulate(&spec));
        }
    }
}
