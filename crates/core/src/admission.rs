//! On-line response-time prediction and admission control for aperiodic
//! events (paper §7).
//!
//! "Since the servers have to execute at the highest priority, a response
//! time computation can reasonably be performed on-line at the arrival time
//! of the event." Two predictions are provided:
//!
//! * [`predicted_response`] — equation (5) applied to the slot a pending
//!   event holds in the packing of the server's backlog, which the queue
//!   replays in O(backlog) ([`crate::queue::PendingQueue::predicted_slot`]);
//!   the constant-time form of the same packing, the §7 list of lists
//!   ([`rt_analysis::InstancePacker`]), runs per arrival in the admission
//!   plan of `rt-admission`;
//! * [`textbook_prediction`] — equations (1)–(4) for the textbook polling
//!   server, useful to compare the implementation's prediction against the
//!   theoretical one.
//!
//! [`AdmissionController`] turns the prediction into an accept/reject
//! decision against a relative deadline — the paper's suggestion that the
//! constant-time computation "permits … possibly to cancel its execution".
//! Two oracles are available ([`AdmissionOracle`]):
//!
//! * [`AdmissionOracle::Textbook`] — equations (1)–(4). **Exact** for a
//!   highest-priority polling server with ideal overheads serving its queue
//!   in FIFO order (the paper's §7 premise); **optimistic** once dispatch /
//!   enforcement overheads are charged inside the budget (they are not
//!   modelled), and not meaningful for background servicing.
//! * [`AdmissionOracle::EdfDemand`] — the EDF processor-demand criterion
//!   ([`rt_analysis::edf_feasible_with_servers`]) over the system's periodic
//!   tasks plus every server (folded as periodic demand) plus the server's
//!   pending backlog and the candidate, each modelled as a one-shot job
//!   (a surrogate task with a period far beyond the testing bound). This is
//!   **conservative** in two independent ways: the server backlog is
//!   charged as plain processor demand next to every other server's *full*
//!   capacity (capacity the candidate's own server could be using for it),
//!   and one-shot jobs are rounded up to whole-task demand. It never
//!   accepts a load a clairvoyant EDF scheduler could not serve, so it is a
//!   safe oracle under either scheduling policy — at the price of refusing
//!   work the textbook oracle would correctly accept.
//!
//! On-line, per-decision: the textbook oracle is O(backlog) (the pending
//! sum); the demand oracle is O((tasks + servers + backlog) · points) for
//! the dbf evaluation — both are admission-time costs, never per-dispatch.
//!
//! The live, per-arrival accept/reject/abort machinery both engines embed is
//! the `rt-admission` crate ([`rt_admission::ServerAdmission`]); this module
//! is the analysis-side controller the §7 experiment and the oracles ride.

use crate::state::ServerShared;
use rt_analysis::{edf_feasible_with_servers, textbook_ps_response_time, ServerParams};
use rt_model::{EventId, Instant, PeriodicTask, Priority, ServerSpec, Span, TaskId};

/// Equation (5) prediction for a *pending* event, from the slot the queue's
/// replay of the backlog packing assigns it. Returns `None` when the event is
/// not pending, when its cost exceeds the capacity, or while the packing is
/// invalidated (between a removal that skipped the head and the next
/// release).
pub fn predicted_response(server: &ServerShared, event: EventId) -> Option<Span> {
    let slot = server.queue.predicted_slot(event)?;
    let release = server.queue.iter().find(|r| r.event == event)?.release;
    let params = ServerParams::new(server.params.capacity, server.params.period);
    Some(slot.response_time(params, release))
}

/// Equations (1)–(4) prediction for a hypothetical event of cost `cost`
/// arriving now, given the server's current remaining capacity and the total
/// pending work ahead of it.
pub fn textbook_prediction(server: &ServerShared, now: Instant, cost: Span) -> Span {
    let params = ServerParams::new(server.params.capacity, server.params.period);
    let pending_ahead: Span = server.queue.iter().map(|r| r.declared_cost()).sum();
    textbook_ps_response_time(params, now, server.remaining, pending_ahead + cost, now)
}

/// Accept/reject decision for incoming aperiodic events based on their
/// predicted response time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionController {
    /// Maximum acceptable response time; events predicted to exceed it are
    /// rejected.
    pub max_response: Span,
}

impl AdmissionController {
    /// Creates a controller with the given response-time ceiling.
    pub fn new(max_response: Span) -> Self {
        AdmissionController { max_response }
    }

    /// Decides whether an event of the given cost arriving now should be
    /// admitted, using the textbook prediction (which does not require the
    /// event to be queued first).
    pub fn admit(&self, server: &ServerShared, now: Instant, cost: Span) -> bool {
        textbook_prediction(server, now, cost) <= self.max_response
    }

    /// Decides through the chosen oracle. [`AdmissionOracle::Textbook`] is
    /// [`Self::admit`]; [`AdmissionOracle::EdfDemand`] additionally needs
    /// the system context (periodic tasks and the full server table) it
    /// folds into the demand test. See the module docs for when each oracle
    /// is exact versus conservative.
    pub fn admit_with(
        &self,
        oracle: AdmissionOracle,
        server: &ServerShared,
        now: Instant,
        cost: Span,
        tasks: &[PeriodicTask],
        servers: &[ServerSpec],
    ) -> bool {
        match oracle {
            AdmissionOracle::Textbook => self.admit(server, now, cost),
            AdmissionOracle::EdfDemand => self.admit_by_demand(server, now, cost, tasks, servers),
        }
    }

    /// The EDF `dbf` oracle: models the pending backlog and the candidate as
    /// one-shot constrained-deadline jobs next to the periodic tasks and the
    /// folded servers, and asks [`rt_analysis::edf_feasible_with_servers`]
    /// whether the combined demand stays below the available time at every
    /// testing point.
    fn admit_by_demand(
        &self,
        server: &ServerShared,
        now: Instant,
        cost: Span,
        tasks: &[PeriodicTask],
        servers: &[ServerSpec],
    ) -> bool {
        let mut combined: Vec<PeriodicTask> = tasks.to_vec();
        let mut next_id = 0u32;
        let mut one_shot = |cost: Span, deadline: Span, combined: &mut Vec<PeriodicTask>| -> bool {
            if cost > deadline {
                // The job alone cannot fit before its deadline.
                return false;
            }
            if cost.is_zero() {
                return true;
            }
            let task = PeriodicTask::new(
                TaskId::new(u32::MAX / 2 + next_id),
                format!("one-shot-{next_id}"),
                cost,
                ONE_SHOT_PERIOD,
                Priority::MIN,
            )
            .with_deadline(deadline);
            next_id += 1;
            combined.push(task);
            true
        };
        // Pending backlog: each queued release keeps its own deadline slack
        // (its handler deadline when declared, the controller ceiling
        // otherwise), measured from `now`.
        for release in server.queue.iter() {
            let absolute = release
                .admission_deadline()
                .unwrap_or(release.release + self.max_response);
            let Some(slack) = absolute.checked_since(now) else {
                // A pending release already past its deadline: the backlog
                // is not schedulable, so nothing more can be admitted.
                return false;
            };
            if !one_shot(release.declared_cost(), slack, &mut combined) {
                return false;
            }
        }
        if !one_shot(cost, self.max_response, &mut combined) {
            return false;
        }
        edf_feasible_with_servers(&combined, servers)
    }
}

/// Which feasibility oracle an [`AdmissionController`] consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionOracle {
    /// Equations (1)–(4): exact for the §7 premise (top-priority polling
    /// server, ideal overheads, FIFO service), optimistic with overheads.
    #[default]
    Textbook,
    /// The EDF processor-demand test with servers folded in
    /// ([`rt_analysis::edf_feasible_with_servers`]): conservative under
    /// either scheduling policy. See the module docs.
    EdfDemand,
}

/// Surrogate period for one-shot jobs inside the demand oracle: far beyond
/// any testing bound the oracle can produce, so exactly one job of each
/// surrogate is ever counted, while staying far from tick-arithmetic
/// saturation.
const ONE_SHOT_PERIOD: Span = Span::from_ticks(1 << 40);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::{QueuedRelease, ServableHandler};
    use crate::state::ServerShared;
    use rt_model::{HandlerId, Priority, ServerPolicyKind};
    use rtsj_emu::{OverheadModel, TaskServerParameters};

    fn lane(policy: ServerPolicyKind) -> ServerShared {
        ServerShared::new(
            TaskServerParameters::new(Span::from_units(4), Span::from_units(6), Priority::new(30)),
            policy,
            OverheadModel::none(),
            rt_model::QueueDiscipline::FifoSkip,
        )
    }

    fn server() -> ServerShared {
        lane(ServerPolicyKind::Polling)
    }

    fn release(id: u32, cost: u64, at: u64) -> QueuedRelease {
        QueuedRelease::new(
            EventId::new(id),
            ServableHandler::new(HandlerId::new(id), Span::from_units(cost)),
            Instant::from_units(at),
        )
    }

    #[test]
    fn predicted_response_prices_the_replayed_slot() {
        let mut s = server();
        s.remaining = Span::from_units(1);
        // Released at t=2; remaining capacity 1 cannot hold cost 2, so the
        // slot is instance 1 (starting at 6): response = 6 + 0 + 2 − 2 = 6.
        s.released(release(0, 2, 2), Instant::from_units(2));
        assert_eq!(
            predicted_response(&s, EventId::new(0)),
            Some(Span::from_units(6))
        );
        assert_eq!(predicted_response(&s, EventId::new(9)), None);
    }

    #[test]
    fn a_release_packed_into_the_current_instance_completes_after_its_cost() {
        // The polling lane still holds its full capacity at t=1: the cost-3
        // release fits the current instance, which began at 0, and runs
        // 1..4 — a response of 3, not the 2 that pricing the slot from the
        // instance's start would give.
        let mut s = server();
        s.released(release(0, 3, 1), Instant::from_units(1));
        assert_eq!(
            predicted_response(&s, EventId::new(0)),
            Some(Span::from_units(3))
        );
        // A second one no longer fits and waits for instance 1 (6..9).
        s.released(release(1, 3, 1), Instant::from_units(1));
        assert_eq!(
            predicted_response(&s, EventId::new(1)),
            Some(Span::from_units(8))
        );
    }

    #[test]
    fn a_deferrable_lane_predicts_retained_capacity_from_now() {
        // A deferrable lane that kept 1 unit of its capacity at t=2 serves a
        // cost-1 release right away: it completes at 3.
        let mut s = lane(ServerPolicyKind::Deferrable);
        s.remaining = Span::from_units(1);
        s.released(release(0, 1, 2), Instant::from_units(2));
        assert_eq!(
            predicted_response(&s, EventId::new(0)),
            Some(Span::from_units(1))
        );
    }

    #[test]
    fn textbook_prediction_counts_the_queue_ahead() {
        let mut s = server();
        s.released(release(0, 3, 0), Instant::ZERO);
        // Pending work 3 + new cost 2 = 5 > remaining 4: spills into the next
        // instance.
        let prediction = textbook_prediction(&s, Instant::ZERO, Span::from_units(2));
        assert!(prediction > Span::from_units(4));
        // Without the queue the same event fits immediately.
        let empty = server();
        let fast = textbook_prediction(&empty, Instant::ZERO, Span::from_units(2));
        assert_eq!(fast, Span::from_units(2));
    }

    #[test]
    fn edf_demand_oracle_is_conservative_but_sound() {
        use rt_model::{PeriodicTask, ServerSpec, TaskId};
        let servers = vec![ServerSpec::polling(
            Span::from_units(4),
            Span::from_units(6),
            Priority::new(30),
        )];
        // A light periodic underlay: server 4/6 + task 1/6 → U = 5/6.
        let tasks = vec![PeriodicTask::new(
            TaskId::new(0),
            "tau",
            Span::from_units(1),
            Span::from_units(6),
            Priority::new(10),
        )];
        let controller = AdmissionController::new(Span::from_units(12));
        let empty = server();
        // A small job over a loose ceiling passes both oracles.
        for oracle in [AdmissionOracle::Textbook, AdmissionOracle::EdfDemand] {
            assert!(
                controller.admit_with(
                    oracle,
                    &empty,
                    Instant::ZERO,
                    Span::from_units(2),
                    &tasks,
                    &servers
                ),
                "{oracle:?} must admit a trivially feasible job"
            );
        }
        // With a heavy backlog the demand oracle refuses what the textbook
        // oracle (which ignores the periodic tasks entirely) still takes:
        // conservative, never unsound.
        let mut s = server();
        for id in 0..3 {
            s.released(release(id, 4, 0), Instant::ZERO);
        }
        // Eq. (1)-(4): remaining 4 serves the first chunk, leftover 10 spills
        // F=2 full instances + R=2 → completion (2+1)·6 + 2 = 20.
        let tight = AdmissionController::new(Span::from_units(20));
        let textbook = tight.admit_with(
            AdmissionOracle::Textbook,
            &s,
            Instant::ZERO,
            Span::from_units(2),
            &tasks,
            &servers,
        );
        let demand = tight.admit_with(
            AdmissionOracle::EdfDemand,
            &s,
            Instant::ZERO,
            Span::from_units(2),
            &tasks,
            &servers,
        );
        assert!(textbook, "eq. (1)-(4): the prediction lands exactly on 20");
        assert!(
            !demand,
            "the dbf oracle charges the backlog next to the folded servers \
             and must refuse here"
        );
    }

    #[test]
    fn edf_demand_oracle_rejects_expired_backlog() {
        use rt_model::ServerSpec;
        let servers = vec![ServerSpec::polling(
            Span::from_units(4),
            Span::from_units(6),
            Priority::new(30),
        )];
        let mut shared = server();
        shared.released(release(0, 2, 0), Instant::ZERO);
        let controller = AdmissionController::new(Span::from_units(4));
        // By t = 10 the pending release's implicit deadline (release +
        // ceiling = 4) has passed: nothing further is admissible.
        assert!(!controller.admit_with(
            AdmissionOracle::EdfDemand,
            &shared,
            Instant::from_units(10),
            Span::from_units(1),
            &[],
            &servers
        ));
    }

    #[test]
    fn admission_controller_rejects_slow_predictions() {
        let mut s = server();
        s.released(release(0, 4, 0), Instant::ZERO);
        s.released(release(1, 4, 0), Instant::ZERO);
        let controller = AdmissionController::new(Span::from_units(5));
        assert!(!controller.admit(&s, Instant::ZERO, Span::from_units(3)));
        let empty = server();
        assert!(controller.admit(&empty, Instant::ZERO, Span::from_units(3)));
    }
}
