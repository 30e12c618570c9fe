//! # rt-model — shared real-time system model
//!
//! Common vocabulary for the reproduction of *"The Design and Implementation
//! of Real-time Event-based Applications with RTSJ"* (Masson & Midonnet,
//! 2007): virtual time, priorities, task/event descriptors, complete system
//! specifications and execution traces.
//!
//! Every other crate of the workspace depends on this one:
//!
//! * `rt-sysgen` produces [`SystemSpec`] values,
//! * `rtss-sim` and the `rtsj-emu` + `rt-taskserver` pair both consume a
//!   [`SystemSpec`] and produce a [`Trace`],
//! * `rt-metrics` turns traces into the paper's AART / AIR / ASR measures,
//! * `rt-analysis` reasons about the descriptors off-line.
//!
//! Keeping the model in a dependency-free crate is what guarantees that the
//! "execution" and "simulation" paths of the paper are fed exactly the same
//! systems and are measured exactly the same way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fault;
pub mod ids;
pub mod priority;
pub mod system;
pub mod task;
pub mod time;
pub mod trace;

pub use error::ModelError;
pub use fault::{ArrivalFault, CostOverrun, FaultPlan, ModeChange, OverrunTable};
pub use ids::{EventId, HandlerId, TaskId};
pub use priority::{
    deadline_monotonic, rate_monotonic, Priority, SchedulingPolicy, SymbolicPriority,
};
pub use system::{SystemBuilder, SystemSpec, WorkloadView};
pub use task::{
    AdmissionPolicy, AperiodicEvent, PeriodicTask, QueueDiscipline, ServerPolicyKind, ServerSpec,
};
pub use time::{Instant, Span, TICKS_PER_UNIT};
pub use trace::{AperiodicFate, AperiodicOutcome, ExecUnit, PeriodicJobRecord, Segment, Trace};

#[cfg(test)]
mod proptests {
    //! Randomised property tests. The offline build environment has no
    //! `proptest`, so the same properties are exercised over seeded,
    //! deterministic random cases instead of shrinking strategies.

    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const CASES: usize = 256;

    fn random_span(rng: &mut StdRng) -> Span {
        Span::from_ticks(rng.gen_range(0u64..=1_000_000))
    }

    fn random_instant(rng: &mut StdRng) -> Instant {
        Instant::from_ticks(rng.gen_range(0u64..=1_000_000))
    }

    /// Instant + Span - Span round-trips whenever no saturation occurs.
    #[test]
    fn instant_add_sub_round_trip() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0200);
        for _ in 0..CASES {
            let i = random_instant(&mut rng);
            let s = random_span(&mut rng);
            let forward = i + s;
            assert_eq!(forward - s, i);
            assert_eq!(forward - i, s);
        }
    }

    /// Span subtraction saturates at zero and never panics.
    #[test]
    fn span_sub_saturates() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0201);
        for _ in 0..CASES {
            let a = random_span(&mut rng);
            let b = random_span(&mut rng);
            let d = a - b;
            if a >= b {
                assert_eq!(d + b, a);
            } else {
                assert_eq!(d, Span::ZERO);
            }
        }
    }

    /// Ceiling division is consistent with ordinary division.
    #[test]
    fn span_div_ceil_consistency() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0202);
        for _ in 0..CASES {
            let a = random_span(&mut rng);
            let b = Span::from_ticks(rng.gen_range(1u64..=100_000));
            let floor = a.div_span(b);
            let ceil = a.div_ceil_span(b);
            assert!(ceil == floor || ceil == floor + 1);
            assert!(b.saturating_mul(ceil) >= a);
            assert!(b.saturating_mul(floor) <= a);
        }
    }

    /// Unit conversion is monotone.
    #[test]
    fn units_conversion_monotone() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0203);
        for _ in 0..CASES {
            let a = rng.gen_range(0.0f64..1_000.0);
            let b = rng.gen_range(0.0f64..1_000.0);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(Span::from_units_f64(lo) <= Span::from_units_f64(hi));
        }
    }

    /// Rate-monotonic assignment gives strictly higher priority to
    /// strictly shorter periods.
    #[test]
    fn rate_monotonic_respects_period_order() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0204);
        for _ in 0..CASES {
            let n = rng.gen_range(1u64..10) as usize;
            let spans: Vec<Span> = (0..n)
                .map(|_| Span::from_units(rng.gen_range(1u64..1_000)))
                .collect();
            let prios = rate_monotonic(&spans);
            for i in 0..spans.len() {
                for j in 0..spans.len() {
                    if spans[i] < spans[j] {
                        assert!(
                            prios[i].preempts(prios[j]) || prios[i] == prios[j],
                            "shorter period must not get lower priority"
                        );
                    }
                }
            }
        }
    }
}
