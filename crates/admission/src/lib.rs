//! # rt-admission — on-line admission control & overload management
//!
//! Turns the paper's §7 arrival-time response-time computation into live
//! accept / reject / abort decisions for aperiodic task servers. The same
//! [`ServerAdmission`] state machine is embedded in **both** execution
//! substrates — the task-server framework on the `rtsj-emu` engine and the
//! `rtss-sim` discrete-event simulator — and its decisions are a pure
//! function of the *arrival history* of a server (release instants, declared
//! costs, deadlines, values, in release order). Runtime state that differs
//! between the two worlds (actual capacity consumption, overheads, service
//! progress) never enters a decision, which is what makes the accept/reject
//! sequences of the two engines identical by construction.
//!
//! ## The virtual service plan
//!
//! The decision state is a *virtual plan* of the admitted backlog: an
//! incremental equation-(5) instance packing ([`rt_analysis::InstancePacker`])
//! of every admitted, not-yet-virtually-completed release. A new arrival is
//! (provisionally) packed and its equation-(5) completion compared against
//! its absolute deadline. For a highest-priority Polling Server with ideal
//! overheads the plan is *exact* — the non-resumable FIFO-with-skip service
//! provably follows the FIFO packing — and for the other capacity-limited
//! policies it is *conservative*:
//!
//! * **Deferrable Server** — may serve mid-period from retained capacity,
//!   i.e. earlier than the polling plan; predictions over-estimate, accepted
//!   events still meet their deadlines.
//! * **Sporadic Server** — replenishes one period after each chunk anchor,
//!   which is never later than the polling plan's aligned instance grid for
//!   a backlogged server; same conservative direction.
//! * **Background servicing** — has no capacity to plan against; admission
//!   degenerates to [`AdmissionPolicy::AcceptAll`].
//!
//! Two premises matter and are documented rather than enforced: the server
//! must dominate the periodic tasks (the validator guarantees it for
//! capacity-limited servers under fixed priorities; under EDF a
//! deadline-urgent task can preempt the server, making the prediction a
//! heuristic), and with reference overheads the service pays dispatch /
//! enforcement costs the plan does not model (predictions become optimistic
//! by the per-dispatch overhead; the cross-engine guarantees are stated for
//! the ideal overhead model).
//!
//! ## Per-decision complexity
//!
//! Admitting under [`AdmissionPolicy::DeadlinePredictive`] is one packer
//! push — **O(1)** — plus the pruning of virtually-completed entries, which
//! is amortised O(1) because equation-(5) completions are monotone in
//! arrival order (each entry is pushed and popped once). This beats the
//! O(backlog) re-packing a naive arrival-time predictor pays (the
//! `engine_scaling -- admission` benchmark measures both).
//! [`AdmissionPolicy::ValueDensity`] pays O(backlog) per provisional drop on
//! the overload path (min-density scan + repack of the survivors) and O(1)
//! on the accept path. A refusal whose newcomer is strictly denser than no
//! not-yet-started entry costs one scan of the plan and copies nothing:
//! that is where the drop loop's first, least-dense candidate would stop
//! (the verdicts of a seeded 4× stream are pinned by digest). Its D-OVER
//! displacement is allocation-free: the survivors and their repacked plan
//! live in two scratch buffers the machine keeps across arrivals, and an
//! accepted newcomer refills the plan in place, so
//! [`ServerAdmission::on_arrival_into`] fed with a reused buffer allocates
//! nothing per arrival beyond the amortized growth of the plan itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rt_analysis::{InstancePacker, ServerParams};
use rt_model::{EventId, Instant, ServerSpec, Span};
use std::collections::VecDeque;

pub use rt_model::AdmissionPolicy;

/// One arriving aperiodic release, as the admission layer sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivingEvent {
    /// The event occurrence.
    pub event: EventId,
    /// Arrival (fire) instant — the decision instant.
    pub release: Instant,
    /// Cost declared to the server.
    pub declared_cost: Span,
    /// Absolute deadline, when the event carries one.
    pub deadline: Option<Instant>,
    /// Completion value (the D-OVER value tag).
    pub value: u64,
}

/// The admission layer's answer for one arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionVerdict {
    /// Whether the release enters the pending queue.
    pub accepted: bool,
    /// Equation-(5) completion predicted for the release at its arrival
    /// instant (`None` under [`AdmissionPolicy::AcceptAll`], for background
    /// servers, and for releases whose cost can never fit the capacity).
    pub predicted_completion: Option<Instant>,
    /// Already-admitted releases dropped to make room for this one
    /// ([`AdmissionPolicy::ValueDensity`] only; empty unless the newcomer
    /// was accepted through displacement). The engines must remove these
    /// from their pending queues and record them as aborted.
    pub aborted: Vec<EventId>,
}

/// An admitted release inside the virtual service plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VirtualEntry {
    event: EventId,
    /// Arrival order is the packing order; kept for repacking after drops.
    cost: Span,
    value: u64,
    /// Equation-(5) completion under the current plan. Monotone in arrival
    /// order (packer property), so the plan prunes from the front.
    completion: Instant,
}

impl VirtualEntry {
    /// Virtual service start: the completion minus the entry's own cost.
    fn virtual_start(&self) -> Instant {
        Instant::from_ticks(self.completion.ticks().saturating_sub(self.cost.ticks()))
    }
}

/// Compares two value densities (`value / cost`) without floating point:
/// returns true when `a` is strictly denser than `b`. Zero-cost entries are
/// treated as infinitely dense (they are free to serve).
fn denser_than(a_value: u64, a_cost: Span, b_value: u64, b_cost: Span) -> bool {
    if a_cost.is_zero() {
        return !b_cost.is_zero();
    }
    if b_cost.is_zero() {
        return false;
    }
    (a_value as u128) * (b_cost.ticks() as u128) > (b_value as u128) * (a_cost.ticks() as u128)
}

/// Per-server admission/overload state: the policy plus the virtual plan of
/// the admitted backlog. Decisions depend only on the arrival history fed
/// through [`ServerAdmission::on_arrival`], never on engine runtime state.
#[derive(Debug, Clone)]
pub struct ServerAdmission {
    policy: AdmissionPolicy,
    /// `None` for background servicing (no capacity to plan against): every
    /// policy degenerates to accept-all.
    params: Option<ServerParams>,
    /// Incremental packing of the admitted backlog; `None` when the plan is
    /// empty (reseeded on the next arrival).
    packer: Option<InstancePacker>,
    /// Admitted, not yet virtually-completed releases, in arrival order
    /// (completion-monotone — see [`VirtualEntry::completion`]).
    pending: VecDeque<VirtualEntry>,
    /// Displacement's scratch buffers — the provisional survivors and their
    /// repacked plan, each entry with its frozen victim eligibility — kept
    /// across arrivals so [`Self::try_displace`] never allocates once they
    /// have grown to the largest backlog seen.
    survivors: Vec<(VirtualEntry, bool)>,
    repacked: Vec<(VirtualEntry, bool)>,
    accepted: usize,
    rejected: usize,
    aborted: usize,
}

impl ServerAdmission {
    /// Builds the admission state for one installed server. Background
    /// servers (and any other capacity-unlimited configuration) always
    /// accept: they have no capacity plan to predict against.
    pub fn for_server(spec: &ServerSpec) -> Self {
        if spec.policy.is_capacity_limited() && spec.is_well_formed() {
            Self::new(
                spec.admission,
                Some(ServerParams::new(spec.capacity, spec.period)),
            )
        } else {
            Self::accept_all()
        }
    }

    /// Builds the admission state for a capacity-limited server given its
    /// raw parameters (the execution engine's `TaskServerParameters` shape).
    ///
    /// # Panics
    /// Panics when `capacity`/`period` are not a valid server configuration
    /// (zero, or capacity above the period) — the same precondition
    /// [`rt_analysis::ServerParams::new`] enforces.
    pub fn with_params(policy: AdmissionPolicy, capacity: Span, period: Span) -> Self {
        Self::new(policy, Some(ServerParams::new(capacity, period)))
    }

    /// An accept-everything state (used where no server spec exists).
    pub fn accept_all() -> Self {
        Self::new(AdmissionPolicy::AcceptAll, None)
    }

    fn new(policy: AdmissionPolicy, params: Option<ServerParams>) -> Self {
        ServerAdmission {
            policy,
            params,
            packer: None,
            pending: VecDeque::new(),
            survivors: Vec::new(),
            repacked: Vec::new(),
            accepted: 0,
            rejected: 0,
            aborted: 0,
        }
    }

    /// The policy in force (background servers report
    /// [`AdmissionPolicy::AcceptAll`] whatever was configured).
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Number of releases currently in the virtual plan.
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// `(accepted, rejected, aborted)` counters since construction.
    pub fn counters(&self) -> (usize, usize, usize) {
        (self.accepted, self.rejected, self.aborted)
    }

    /// Seeds a fresh packer for a plan that is empty at `now`: at an exact
    /// period boundary the arrival is visible to the activation (both
    /// engines process arrivals before activations), so the current instance
    /// has its full capacity; mid-instance a polling-style server has
    /// already forfeited the instance (nothing was pending at its
    /// activation), so the plan starts at the next one.
    fn seed(&self, now: Instant) -> InstancePacker {
        // rt-lint: allow(panic, reason = "the predictive admission machine installs its capacity plan at construction; a missing plan is a constructor bug, not a runtime condition")
        let params = self.params.expect("seed() requires a capacity plan");
        let remaining = if now.ticks().is_multiple_of(params.period.ticks()) {
            params.capacity
        } else {
            Span::ZERO
        };
        InstancePacker::new(params, now, remaining)
    }

    /// Drops every virtually-completed entry. Amortised O(1) per arrival:
    /// completions are monotone, so only the front is ever inspected.
    fn prune(&mut self, now: Instant) {
        while self
            .pending
            .front()
            .is_some_and(|entry| entry.completion <= now)
        {
            self.pending.pop_front();
        }
        if self.pending.is_empty() {
            self.packer = None;
        }
    }

    /// Equation-(5) completion a release of `cost` arriving at `now` would
    /// get under the current plan, without committing anything — the
    /// incremental (amortised O(1)) predictor. `None` when the server has no
    /// capacity plan or can never hold the cost.
    pub fn predicted_completion(&self, now: Instant, cost: Span) -> Option<Instant> {
        let params = self.params?;
        if cost > params.capacity {
            return None;
        }
        let mut packer = match &self.packer {
            Some(packer) => packer.clone(),
            None => self.seed(now),
        };
        let slot = packer.push(cost);
        Some(now + slot.response_time(params, now))
    }

    /// The O(backlog) reference predictor: re-packs the whole admitted
    /// backlog from scratch before answering — what an arrival-time
    /// predictor costs *without* the incremental plan. Kept public for the
    /// `engine_scaling -- admission` benchmark and differential tests; the
    /// answer is identical to [`ServerAdmission::predicted_completion`]
    /// whenever the stored packer was seeded at the same state.
    pub fn predicted_completion_repack(&self, now: Instant, cost: Span) -> Option<Instant> {
        let params = self.params?;
        if cost > params.capacity {
            return None;
        }
        let mut packer = self.repack(now);
        let slot = packer.push(cost);
        Some(now + slot.response_time(params, now))
    }

    /// Packs the surviving pending entries, in arrival order, into a fresh
    /// plan seeded at `now`.
    fn repack(&self, now: Instant) -> InstancePacker {
        let mut packer = self.seed(now);
        for entry in &self.pending {
            packer.push(entry.cost);
        }
        packer
    }

    /// Feeds one arrival and returns the decision. Arrivals must be fed in
    /// release order (ties in their fire order), which is how both engines
    /// naturally observe them.
    pub fn on_arrival(&mut self, arrival: &ArrivingEvent) -> AdmissionVerdict {
        let mut aborted = Vec::new();
        let (accepted, predicted_completion) = self.on_arrival_into(arrival, &mut aborted);
        AdmissionVerdict {
            accepted,
            predicted_completion,
            aborted,
        }
    }

    /// The allocation-free form of [`ServerAdmission::on_arrival`]: the
    /// displaced event ids are written into the caller-owned `aborted`
    /// scratch buffer (cleared first) instead of a fresh verdict `Vec`, and
    /// the decision comes back as `(accepted, predicted_completion)`. The
    /// engines' decision loops call this with a reused per-instant buffer,
    /// so a steady-state arrival allocates nothing here (the packer is all
    /// scalars; displacement's provisional repacks remain O(backlog) but
    /// reuse the machine's scratch buffers).
    pub fn on_arrival_into(
        &mut self,
        arrival: &ArrivingEvent,
        aborted: &mut Vec<EventId>,
    ) -> (bool, Option<Instant>) {
        aborted.clear();
        let Some(params) = self.params else {
            self.accepted += 1;
            return (true, None);
        };
        if self.policy == AdmissionPolicy::AcceptAll {
            // Zero bookkeeping: the admission layer must be invisible.
            self.accepted += 1;
            return (true, None);
        }
        self.prune(arrival.release);
        if arrival.declared_cost > params.capacity {
            // Can never be served by a non-resumable capacity-limited
            // server; spec validation normally rejects this upstream.
            self.rejected += 1;
            return (false, None);
        }
        let mut packer = match &self.packer {
            Some(packer) => packer.clone(),
            None => self.seed(arrival.release),
        };
        let slot = packer.push(arrival.declared_cost);
        let completion = arrival.release + slot.response_time(params, arrival.release);
        let fits = arrival.deadline.is_none_or(|d| completion <= d);
        if fits {
            self.commit(packer, arrival, completion);
            return (true, Some(completion));
        }
        match self.policy {
            AdmissionPolicy::AcceptAll => unreachable!("handled above"),
            AdmissionPolicy::DeadlinePredictive => {
                self.rejected += 1;
                (false, Some(completion))
            }
            AdmissionPolicy::ValueDensity => self.try_displace(arrival, completion, aborted),
        }
    }

    /// The D-OVER-style drop rule: provisionally remove the lowest
    /// value-density pending entries (strictly less dense than the newcomer,
    /// not yet virtually started) until the newcomer's repacked completion
    /// meets its deadline. Commits — including the aborts — only when the
    /// newcomer ends up accepted; otherwise nothing changes, `dropped` is
    /// left empty and the newcomer alone is rejected. O(backlog) per
    /// provisional drop, and allocation-free: the survivors and their
    /// repacked plan live in the machine's reused scratch buffers, and an
    /// accepted newcomer refills `pending` in place.
    // rt-lint: zero-alloc
    fn try_displace(
        &mut self,
        arrival: &ArrivingEvent,
        first_prediction: Instant,
        dropped: &mut Vec<EventId>,
    ) -> (bool, Option<Instant>) {
        // rt-lint: allow(panic, reason = "displacement runs only inside the predictive policies, which always carry a capacity plan")
        let params = self.params.expect("displacement requires a capacity plan");
        let deadline = arrival
            .deadline
            // rt-lint: allow(panic, reason = "displacement is entered only after a miss was predicted, which requires the deadline to exist")
            .expect("displacement is only reached on a predicted miss");
        let now = arrival.release;
        // The loop's first victim is the least dense eligible entry, and it
        // stops there unless the newcomer is strictly denser: so when the
        // newcomer is denser than no eligible entry, that rejection needs no
        // copy of the plan.
        if !self.pending.iter().any(|e| {
            e.virtual_start() > now
                && denser_than(arrival.value, arrival.declared_cost, e.value, e.cost)
        }) {
            self.rejected += 1;
            return (false, Some(first_prediction));
        }
        let mut survivors = std::mem::take(&mut self.survivors);
        let mut repacked = std::mem::take(&mut self.repacked);
        // Victim eligibility is frozen against the *committed* plan: an
        // entry already virtually started under the plan the engines have
        // been following must never become a victim just because a
        // provisional repack (seeded mid-instance with zero remaining)
        // pushed its start into the future. Re-deriving eligibility from
        // the repacked completions would do exactly that on the second
        // displacement iteration.
        survivors.clear();
        survivors.extend(self.pending.iter().map(|e| (*e, e.virtual_start() > now)));
        let admitted = loop {
            // Lowest-density victim not yet virtually started (entries whose
            // committed plan already has them in service are left alone, so
            // engines only ever abort releases still sitting in their
            // queues).
            let victim = survivors
                .iter()
                .enumerate()
                .filter(|(_, (_, eligible))| *eligible)
                .map(|(i, (e, _))| (i, e))
                .min_by(|(ai, a), (bi, b)| {
                    if denser_than(a.value, a.cost, b.value, b.cost) {
                        std::cmp::Ordering::Greater
                    } else if denser_than(b.value, b.cost, a.value, a.cost) {
                        std::cmp::Ordering::Less
                    } else {
                        ai.cmp(bi)
                    }
                })
                .map(|(i, e)| (i, *e));
            let Some((index, victim)) = victim else {
                break None;
            };
            if !denser_than(
                arrival.value,
                arrival.declared_cost,
                victim.value,
                victim.cost,
            ) {
                break None;
            }
            survivors.remove(index);
            dropped.push(victim.event);
            // Repack the survivors plus the newcomer and re-test. The
            // eligibility flags carry over unchanged (committed plan only).
            let mut packer = self.seed(now);
            repacked.clear();
            for &(entry, eligible) in &survivors {
                let slot = packer.push(entry.cost);
                let completion = now + slot.response_time(params, now);
                repacked.push((
                    VirtualEntry {
                        completion,
                        ..entry
                    },
                    eligible,
                ));
            }
            let slot = packer.push(arrival.declared_cost);
            let completion = now + slot.response_time(params, now);
            if completion <= deadline {
                break Some((packer, completion));
            }
            std::mem::swap(&mut survivors, &mut repacked);
        };
        let verdict = match admitted {
            Some((packer, completion)) => {
                self.pending.clear();
                self.pending
                    .extend(repacked.iter().map(|&(entry, _)| entry));
                self.aborted += dropped.len();
                self.commit(packer, arrival, completion);
                (true, Some(completion))
            }
            None => {
                dropped.clear();
                self.rejected += 1;
                (false, Some(first_prediction))
            }
        };
        self.survivors = survivors;
        self.repacked = repacked;
        verdict
    }

    /// Releases the plan slot of an admitted release the engine had to abort
    /// (budget-enforcement cut-off of an overrunning job). The surviving
    /// backlog is repacked from scratch at `now` — an abort breaks the
    /// incremental plan's premise that admitted work runs to virtual
    /// completion, so every survivor's equation-(5) completion is re-derived
    /// under the post-abort plan. O(backlog), but aborts are faults, not the
    /// steady state. A no-op when the event is not in the plan (already
    /// virtually completed, or the server runs accept-all).
    pub fn on_abort(&mut self, event: EventId, now: Instant) {
        let Some(params) = self.params else {
            return;
        };
        if self.policy == AdmissionPolicy::AcceptAll {
            return;
        }
        self.prune(now);
        let Some(index) = self.pending.iter().position(|e| e.event == event) else {
            return;
        };
        self.pending.remove(index);
        self.aborted += 1;
        if self.pending.is_empty() {
            self.packer = None;
            return;
        }
        let mut packer = self.seed(now);
        for entry in self.pending.iter_mut() {
            let slot = packer.push(entry.cost);
            entry.completion = now + slot.response_time(params, now);
        }
        self.packer = Some(packer);
    }

    fn commit(&mut self, packer: InstancePacker, arrival: &ArrivingEvent, completion: Instant) {
        debug_assert!(
            self.pending
                .back()
                .is_none_or(|last| last.completion <= completion),
            "equation-(5) completions must be monotone in arrival order"
        );
        self.packer = Some(packer);
        self.pending.push_back(VirtualEntry {
            event: arrival.event,
            cost: arrival.declared_cost,
            value: arrival.value,
            completion,
        });
        self.accepted += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_model::{Priority, ServerSpec};

    fn arrival(id: u32, at: u64, cost: u64, deadline: Option<u64>, value: u64) -> ArrivingEvent {
        ArrivingEvent {
            event: EventId::new(id),
            release: Instant::from_units(at),
            declared_cost: Span::from_units(cost),
            deadline: deadline.map(|d| Instant::from_units(at) + Span::from_units(d)),
            value,
        }
    }

    fn server(policy: AdmissionPolicy) -> ServerAdmission {
        ServerAdmission::for_server(
            &ServerSpec::polling(Span::from_units(4), Span::from_units(6), Priority::new(30))
                .with_admission(policy),
        )
    }

    #[test]
    fn accept_all_is_stateless_and_always_accepts() {
        let mut state = server(AdmissionPolicy::AcceptAll);
        for i in 0..100 {
            let verdict = state.on_arrival(&arrival(i, 0, 4, Some(1), 1));
            assert!(verdict.accepted);
            assert!(verdict.aborted.is_empty());
        }
        assert_eq!(state.backlog(), 0, "accept-all keeps no plan");
        assert_eq!(state.counters(), (100, 0, 0));
    }

    #[test]
    fn background_servers_accept_everything() {
        let mut state = ServerAdmission::for_server(
            &ServerSpec::background(Priority::MIN)
                .with_admission(AdmissionPolicy::DeadlinePredictive),
        );
        assert_eq!(state.policy(), AdmissionPolicy::AcceptAll);
        assert!(state.on_arrival(&arrival(0, 1, 50, Some(1), 1)).accepted);
    }

    #[test]
    fn predictive_accepts_what_fits_and_rejects_what_misses() {
        let mut state = server(AdmissionPolicy::DeadlinePredictive);
        // Boundary arrival: served in instance 0, completion 3 ≤ deadline 4.
        let a = state.on_arrival(&arrival(0, 0, 3, Some(4), 1));
        assert!(a.accepted);
        assert_eq!(a.predicted_completion, Some(Instant::from_units(3)));
        // Second cost-3 event at t=1: instance 0 holds only 4 − 3 = 1, so it
        // packs into instance 1 → completion 9; deadline 5 → rejected.
        let b = state.on_arrival(&arrival(1, 1, 3, Some(4), 1));
        assert!(!b.accepted);
        assert_eq!(b.predicted_completion, Some(Instant::from_units(9)));
        // Same event with a loose deadline is accepted at the same slot.
        let c = state.on_arrival(&arrival(2, 1, 3, Some(20), 1));
        assert!(c.accepted);
        assert_eq!(c.predicted_completion, Some(Instant::from_units(9)));
        assert_eq!(state.counters(), (2, 1, 0));
    }

    #[test]
    fn deadline_free_releases_are_always_admitted() {
        let mut state = server(AdmissionPolicy::DeadlinePredictive);
        for i in 0..20 {
            assert!(state.on_arrival(&arrival(i, 0, 4, None, 1)).accepted);
        }
        assert_eq!(state.backlog(), 20);
    }

    #[test]
    fn mid_instance_seed_starts_at_the_next_activation() {
        let mut state = server(AdmissionPolicy::DeadlinePredictive);
        // Arrival at t=1: the polling plan cannot serve before t=6.
        let verdict = state.on_arrival(&arrival(0, 1, 2, Some(30), 1));
        assert_eq!(verdict.predicted_completion, Some(Instant::from_units(8)));
    }

    #[test]
    fn completed_entries_are_pruned_and_the_plan_reseeds() {
        let mut state = server(AdmissionPolicy::DeadlinePredictive);
        assert!(state.on_arrival(&arrival(0, 0, 2, Some(10), 1)).accepted);
        assert_eq!(state.backlog(), 1);
        // By t=12 the first event has long completed: fresh plan.
        let verdict = state.on_arrival(&arrival(1, 12, 2, Some(10), 1));
        assert_eq!(state.backlog(), 1);
        assert_eq!(verdict.predicted_completion, Some(Instant::from_units(14)));
    }

    #[test]
    fn incremental_and_repack_predictors_agree() {
        // Same-instant arrivals: the incremental plan and the from-scratch
        // repack share their seeding state, so their answers must coincide
        // (the benchmark's correctness premise). At *later* instants the two
        // legitimately differ — the incremental plan remembers the capacity
        // the backlog already claimed; the repack strawman forgets it.
        let mut state = server(AdmissionPolicy::DeadlinePredictive);
        let costs = [3u64, 2, 1, 4, 2, 3, 1, 2];
        for (i, &cost) in costs.iter().enumerate() {
            let now = Instant::ZERO;
            let probe = Span::from_units(2);
            assert_eq!(
                state.predicted_completion(now, probe),
                state.predicted_completion_repack(now, probe),
                "prediction divergence before arrival {i}"
            );
            state.on_arrival(&arrival(i as u32, 0, cost, None, 1));
        }
    }

    #[test]
    fn value_density_displaces_strictly_less_dense_pending_work() {
        let mut state = server(AdmissionPolicy::ValueDensity);
        // Fill the plan with low-value work far from its virtual start.
        assert!(state.on_arrival(&arrival(0, 0, 4, None, 1)).accepted);
        assert!(state.on_arrival(&arrival(1, 0, 4, None, 1)).accepted);
        // A dense newcomer with a tight deadline must displace one of them:
        // packed behind both it completes at 16 > 0 + 10; dropping the
        // second low-density entry brings it to instance 1 → completion 10.
        let verdict = state.on_arrival(&arrival(2, 0, 4, Some(10), 1_000_000));
        assert!(verdict.accepted, "the dense newcomer displaces");
        assert_eq!(verdict.aborted, vec![EventId::new(1)]);
        assert_eq!(verdict.predicted_completion, Some(Instant::from_units(10)));
        assert_eq!(state.counters(), (3, 0, 1));
    }

    #[test]
    fn value_density_rejects_when_it_cannot_improve() {
        let mut state = server(AdmissionPolicy::ValueDensity);
        assert!(
            state
                .on_arrival(&arrival(0, 0, 4, None, 1_000_000))
                .accepted
        );
        assert!(
            state
                .on_arrival(&arrival(1, 0, 4, None, 1_000_000))
                .accepted
        );
        // A low-density newcomer cannot displace denser work: rejected, and
        // nothing is aborted.
        let verdict = state.on_arrival(&arrival(2, 0, 4, Some(10), 1));
        assert!(!verdict.accepted);
        assert!(verdict.aborted.is_empty());
        assert_eq!(state.backlog(), 2);
    }

    #[test]
    fn value_density_never_drops_virtually_started_work() {
        let mut state = server(AdmissionPolicy::ValueDensity);
        // In service at its arrival instant (virtual start == release == 0).
        assert!(state.on_arrival(&arrival(0, 0, 4, None, 1)).accepted);
        // The newcomer cannot fit by its deadline and the only candidate is
        // already virtually started: rejected.
        let verdict = state.on_arrival(&arrival(1, 0, 4, Some(5), 1_000_000));
        assert!(!verdict.accepted);
        assert!(verdict.aborted.is_empty());
    }

    #[test]
    fn displacement_eligibility_is_frozen_against_the_committed_plan() {
        // Regression: a provisional repack (seeded mid-instance, zero
        // remaining) pushes every survivor's virtual start into the future;
        // an entry in service under the *committed* plan must not become a
        // victim on a later displacement iteration because of that shift.
        let mut state = server(AdmissionPolicy::ValueDensity);
        // A: committed at t=0, virtual start 0 — in service.
        assert!(state.on_arrival(&arrival(0, 0, 4, None, 1)).accepted);
        // B: packed behind A (instance 1), low density.
        assert!(state.on_arrival(&arrival(1, 1, 4, None, 10)).accepted);
        // C: very dense, deadline 11; dropping B is not enough (repacked
        // mid-instance, C still completes late), and A must stay protected —
        // so C is rejected and *nothing* is aborted.
        let verdict = state.on_arrival(&arrival(2, 1, 4, Some(10), 1_000_000));
        assert!(!verdict.accepted);
        assert!(
            verdict.aborted.is_empty(),
            "the in-service entry must never be displaced: {:?}",
            verdict.aborted
        );
        assert_eq!(state.backlog(), 2);
    }

    #[test]
    fn oversized_costs_are_rejected_outright() {
        let mut state = server(AdmissionPolicy::DeadlinePredictive);
        let verdict = state.on_arrival(&arrival(0, 0, 9, Some(100), 1));
        assert!(!verdict.accepted);
        assert_eq!(verdict.predicted_completion, None);
    }

    #[test]
    fn an_overrun_abort_releases_its_plan_slot() {
        let mut state = server(AdmissionPolicy::DeadlinePredictive);
        // Two cost-4 releases at t=0 fill instances 0 and 1.
        assert!(state.on_arrival(&arrival(0, 0, 4, Some(8), 1)).accepted);
        assert!(state.on_arrival(&arrival(1, 0, 4, Some(16), 1)).accepted);
        // A third cost-4 release at t=0 would complete at 16 > 14: rejected
        // while the plan is full...
        assert!(!state.on_arrival(&arrival(2, 0, 4, Some(14), 1)).accepted);
        // ...but once enforcement aborts the overrunning head, the freed
        // slot must admit the same arrival shape again.
        state.on_abort(EventId::new(0), Instant::ZERO);
        let verdict = state.on_arrival(&arrival(3, 0, 4, Some(14), 1));
        assert!(verdict.accepted, "the aborted slot must be reusable");
        assert_eq!(verdict.predicted_completion, Some(Instant::from_units(10)));
        assert_eq!(state.counters(), (3, 1, 1));
    }

    #[test]
    fn aborting_an_unknown_or_completed_event_is_a_no_op() {
        let mut state = server(AdmissionPolicy::DeadlinePredictive);
        assert!(state.on_arrival(&arrival(0, 0, 2, Some(10), 1)).accepted);
        let before = state.counters();
        // Never admitted.
        state.on_abort(EventId::new(42), Instant::ZERO);
        assert_eq!(state.counters(), before);
        // Virtually completed (pruned) by t=12.
        state.on_abort(EventId::new(0), Instant::from_units(12));
        assert_eq!(state.counters(), before);
        assert_eq!(state.backlog(), 0);

        let mut free = server(AdmissionPolicy::AcceptAll);
        assert!(free.on_arrival(&arrival(0, 0, 4, Some(1), 1)).accepted);
        free.on_abort(EventId::new(0), Instant::ZERO);
        assert_eq!(free.counters(), (1, 0, 0), "accept-all keeps no plan");
    }

    #[test]
    fn survivor_completions_are_rederived_after_an_abort() {
        let mut state = server(AdmissionPolicy::DeadlinePredictive);
        assert!(state.on_arrival(&arrival(0, 0, 4, None, 1)).accepted);
        assert!(state.on_arrival(&arrival(1, 0, 4, None, 1)).accepted);
        assert!(state.on_arrival(&arrival(2, 0, 4, None, 1)).accepted);
        // Aborting the head at t=0 promotes the survivors one instance each:
        // the probe that previously packed into instance 3 (completion 22)
        // now lands in instance 2 → completion 16.
        state.on_abort(EventId::new(0), Instant::ZERO);
        assert_eq!(state.backlog(), 2);
        assert_eq!(
            state.predicted_completion(Instant::ZERO, Span::from_units(4)),
            Some(Instant::from_units(16))
        );
    }

    /// FNV-1a over `bytes`, continuing from `hash`.
    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn value_density_verdicts_are_pinned_on_a_seeded_overload_stream() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // PS(4, 6) serves 2/3 of a unit per unit; declared costs average 2
        // units and arrivals come every 0.75 units on average, so the offered
        // load is 4x the capacity. Every verdict, with the ids it displaced,
        // is folded into one digest recorded before displacement was last
        // changed: both engines and both oracles embed this machine, so no
        // differential suite sees a change in its decisions.
        let mut rng = StdRng::seed_from_u64(1983);
        let mut state = server(AdmissionPolicy::ValueDensity);
        let mut scratch = Vec::new();
        let mut now = 0u64;
        let (mut digest, mut displacing, mut rejected) = (0xcbf2_9ce4_8422_2325u64, 0, 0);
        for id in 0..20_000u32 {
            now += rng.gen_range(0..=1_500u64);
            let cost = rng.gen_range(500..=3_500u64);
            let deadline =
                (rng.gen_range(0..10u32) != 0).then(|| now + rng.gen_range(2_000..=40_000u64));
            let event = ArrivingEvent {
                event: EventId::new(id),
                release: Instant::from_ticks(now),
                declared_cost: Span::from_ticks(cost),
                deadline: deadline.map(Instant::from_ticks),
                value: rng.gen_range(1..=100_000u64),
            };
            let (accepted, _) = state.on_arrival_into(&event, &mut scratch);
            displacing += usize::from(!scratch.is_empty());
            rejected += usize::from(!accepted);
            digest = fnv1a(digest, &[u8::from(accepted)]);
            digest = fnv1a(digest, &(scratch.len() as u64).to_le_bytes());
            for dropped in &scratch {
                digest = fnv1a(digest, &(dropped.index() as u64).to_le_bytes());
            }
        }
        assert!(
            displacing > 1_000 && rejected > 1_000,
            "the stream exercises displacement ({displacing}) and rejection ({rejected})"
        );
        assert_eq!(digest, 0x29f0_ef16_0fd8_0c69, "verdict digest");
    }

    #[test]
    fn decisions_are_a_pure_function_of_the_arrival_history() {
        // Two independently-fed states observing the same arrivals make the
        // same decisions — the cross-engine identity argument in miniature.
        let arrivals: Vec<ArrivingEvent> = (0..200)
            .map(|i| {
                arrival(
                    i,
                    (i as u64) / 3,
                    1 + (i as u64 * 7) % 4,
                    Some(3 + (i as u64 * 5) % 15),
                    1 + (i as u64 * 13) % 9,
                )
            })
            .collect();
        for policy in [
            AdmissionPolicy::DeadlinePredictive,
            AdmissionPolicy::ValueDensity,
        ] {
            let mut a = server(policy);
            let mut b = server(policy);
            for event in &arrivals {
                assert_eq!(a.on_arrival(event), b.on_arrival(event), "{policy:?}");
            }
            assert_eq!(a.counters(), b.counters());
        }
    }
}
