//! # rt-analysis — feasibility and response-time analysis
//!
//! Off-line and on-line schedulability machinery for the RTSJ task-server
//! reproduction:
//!
//! * [`utilization`] — utilisation-based sufficient tests (Liu & Layland,
//!   hyperbolic bound, deferrable-server bound);
//! * [`rta`] — exact response-time analysis for preemptive fixed priorities,
//!   with release jitter;
//! * [`server`] — folding a Polling or Deferrable server into the periodic
//!   analysis, and dimensioning helpers;
//! * [`aperiodic`] — the paper's §7 on-line response-time equations (1)–(5)
//!   for aperiodic events under a highest-priority polling server, together
//!   with the O(1) list-of-lists [`aperiodic::InstancePacker`];
//! * [`edf`] — utilisation and processor-demand (`dbf`) tests matching the
//!   EDF policy offered by both engines, including
//!   [`edf_feasible_with_servers`] / [`edf_feasible_system`], which fold
//!   capacity-limited task servers into the demand the same way the
//!   fixed-priority analysis does — the EDF verdict the table harness
//!   reports next to the FP-RTA one.
//!
//! ```
//! use rt_analysis::periodic_set_feasible_with_server;
//! use rt_model::{Priority, ServerSpec, Span, SystemSpec};
//!
//! // The paper's Table 1 set: a polling server (capacity 3, period 6) above
//! // tau1 (2, 6) and tau2 (1, 6) is exactly feasible ("the server is a
//! // periodic task" for the off-line analysis).
//! let mut b = SystemSpec::builder("table-1");
//! b.server(ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30)));
//! b.periodic("tau1", Span::from_units(2), Span::from_units(6), Priority::new(20));
//! b.periodic("tau2", Span::from_units(1), Span::from_units(6), Priority::new(10));
//! b.horizon_server_periods(1);
//! let spec = b.build().unwrap();
//! assert!(periodic_set_feasible_with_server(
//!     &spec.periodic_tasks,
//!     spec.server().unwrap(),
//! ));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aperiodic;
pub mod edf;
pub mod rta;
pub mod server;
pub mod utilization;

pub use aperiodic::{
    implementation_ps_response_time, multi_server_response_bound, textbook_ps_response_time,
    InstancePacker, InstanceSlot, ServerParams,
};
pub use edf::{
    demand_bound, edf_demand_test, edf_feasible_system, edf_feasible_with_servers,
    edf_utilization_test, server_demand_tasks,
};
pub use rta::{analyse, response_time, AnalysisTask, RtaResult, TaskResponse};
pub use server::{
    analyse_with_server, analyse_with_servers, max_feasible_capacity,
    periodic_set_feasible_with_server, periodic_set_feasible_with_servers, server_analysis_model,
    ServerAnalysisModel,
};
pub use utilization::{
    deferrable_server_test, deferrable_server_utilization_bound, hyperbolic_test,
    liu_layland_bound, liu_layland_test, polling_server_test, total_utilization,
    utilization_with_server,
};

#[cfg(test)]
mod proptests {
    //! Randomised property tests. The offline build environment has no
    //! `proptest`, so the same properties are exercised over seeded,
    //! deterministic random cases instead of shrinking strategies.

    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rt_model::{Instant, Priority, Span};

    const CASES: usize = 256;

    fn random_tasks(rng: &mut StdRng) -> Vec<rta::AnalysisTask> {
        let n = rng.gen_range(1u64..6) as usize;
        (0..n)
            .map(|i| {
                let c = rng.gen_range(1u64..10);
                let t = rng.gen_range(10u64..100);
                let p = rng.gen_range(1u64..90) as u8;
                rta::AnalysisTask::new(
                    format!("t{i}"),
                    Span::from_units(c),
                    Span::from_units(t.max(c + 1)),
                    Priority::new(p),
                )
            })
            .collect()
    }

    /// A converged response time is never smaller than the task's own cost.
    #[test]
    fn response_time_at_least_cost() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0400);
        for _ in 0..CASES {
            let tasks = random_tasks(&mut rng);
            let result = analyse(&tasks);
            for (task, resp) in tasks.iter().zip(result.tasks.iter()) {
                if let Some(r) = resp.response_time {
                    assert!(r >= task.cost);
                }
            }
        }
    }

    /// Adding a higher-priority task never decreases anyone's response time.
    #[test]
    fn adding_interference_is_monotone() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0401);
        for _ in 0..CASES {
            let tasks = random_tasks(&mut rng);
            let base = analyse(&tasks);
            let mut augmented = tasks.clone();
            augmented.push(rta::AnalysisTask::new(
                "intruder",
                Span::from_units(1),
                Span::from_units(50),
                Priority::MAX,
            ));
            let after = analyse(&augmented);
            for (i, task) in tasks.iter().enumerate() {
                let before_r = base.tasks[i].response_time;
                let after_r = after.tasks[i].response_time;
                match (before_r, after_r) {
                    (Some(b), Some(a)) => assert!(a >= b, "task {} got faster", task.name),
                    (None, Some(_)) => panic!("unschedulable became schedulable"),
                    _ => {}
                }
            }
        }
    }

    /// The textbook PS response time is never smaller than the pending work
    /// and is achieved exactly when everything fits in the current capacity.
    #[test]
    fn textbook_ps_response_lower_bound() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0402);
        for _ in 0..CASES {
            let capacity = rng.gen_range(1u64..10);
            let extra_period = rng.gen_range(0u64..10);
            let remaining = rng.gen_range(0u64..10);
            let pending = rng.gen_range(1u64..40);
            let release = rng.gen_range(0u64..30);
            let period = capacity + extra_period.max(1);
            let server = ServerParams::new(Span::from_units(capacity), Span::from_units(period));
            let remaining = Span::from_units(remaining.min(capacity));
            let pending = Span::from_units(pending);
            let t = Instant::from_units(release);
            let r = textbook_ps_response_time(server, t, remaining, pending, t);
            if pending <= remaining {
                assert_eq!(r, pending);
            } else {
                // In the spill-over case the equations credit the whole
                // remaining capacity at once, so the response is bounded
                // below by the work that has to wait for later instances.
                assert!(
                    r >= pending - remaining,
                    "response cannot beat the spilled work"
                );
            }
        }
    }

    /// InstancePacker never overfills an instance and keeps FIFO order.
    #[test]
    fn packer_never_overfills() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0403);
        for _ in 0..CASES {
            let capacity = rng.gen_range(2u64..10);
            let count = rng.gen_range(1u64..30) as usize;
            let costs: Vec<u64> = (0..count).map(|_| rng.gen_range(1u64..10)).collect();
            let period = capacity + 2;
            let server = ServerParams::new(Span::from_units(capacity), Span::from_units(period));
            let mut packer = InstancePacker::from_instance(server, 0);
            let mut slots = Vec::new();
            for c in &costs {
                let cost = Span::from_units((*c).min(capacity));
                slots.push(packer.push(cost));
            }
            // Per-instance load never exceeds the capacity.
            let mut load = std::collections::BTreeMap::new();
            for s in &slots {
                *load.entry(s.instance).or_insert(Span::ZERO) += s.cost;
            }
            for (_, l) in load {
                assert!(l <= Span::from_units(capacity));
            }
            // FIFO: instances are non-decreasing, prior costs strictly
            // increase within an instance.
            for w in slots.windows(2) {
                assert!(w[1].instance >= w[0].instance);
                if w[1].instance == w[0].instance {
                    assert!(w[1].prior_cost >= w[0].prior_cost + w[0].cost);
                }
            }
        }
    }

    /// Equation (5) through a packer is consistent with replaying the
    /// instances by hand.
    #[test]
    fn packer_response_times_are_consistent() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0404);
        for _ in 0..CASES {
            let count = rng.gen_range(1u64..15) as usize;
            let costs: Vec<u64> = (0..count).map(|_| rng.gen_range(1u64..5)).collect();
            let server = ServerParams::new(Span::from_units(5), Span::from_units(8));
            let mut packer = InstancePacker::from_instance(server, 0);
            let release = Instant::from_units(0);
            for c in costs {
                let cost = Span::from_units(c);
                let slot = packer.push(cost);
                let r = slot.response_time(server, release);
                let manual =
                    server.instance_start(slot.instance) + slot.prior_cost + cost - release;
                assert_eq!(r, manual);
            }
        }
    }
}
