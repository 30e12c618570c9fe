//! Runtime state of one task-server lane.
//!
//! The paper's abstract `TaskServer` class owns the pending-events list, the
//! capacity accounting and the policy-independent bookkeeping; the concrete
//! `PollingTaskServer` and `DeferrableTaskServer` subclasses add their
//! activation logic. Here that shared part is [`ServerShared`], a plain
//! value. Where the RTSJ design has `fire()` call `servableEventReleased()`
//! on a server object that the server thread, its events and its timers all
//! reference, the loop that runs a system owns every lane in one `Vec`
//! (the run's `ExecWorld`, see [`crate::framework`]), and the server body,
//! the servable events and the replenishment hooks reach their lane by
//! index through their context. Decisions return what they decided; that
//! owner stores each fate in its outcome slot table and reports it to its
//! probe. A lane keeps no log of its own, so [`ServerShared::released`]
//! also serves a standalone lane (the on-line admission example drives
//! one).
//!
//! The pending-events list is the paper's FIFO list ([`PendingQueue`]). The
//! §7 list of lists that prices an arrival in O(1),
//! [`rt_analysis::InstancePacker`], runs in the lane's admission machine
//! ([`ServerAdmission`]), which decides before the queue sees the release.

use crate::handler::QueuedRelease;
use crate::queue::PendingQueue;
use rt_admission::{ArrivingEvent, ServerAdmission};
use rt_model::{
    AdmissionPolicy, EventId, Instant, ModeChange, QueueDiscipline, ServerPolicyKind, Span,
};
use rtsj_emu::{OverheadModel, TaskServerParameters};
use std::collections::VecDeque;

/// A chosen release together with the budget granted to its service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrantedService {
    /// The release to serve.
    pub release: QueuedRelease,
    /// Total budget granted (dispatch + handler work + enforcement must fit
    /// within it).
    pub granted: Span,
}

/// Policy-independent runtime state of one lane, reached by the server body,
/// the servable-event hooks and the replenishment hooks through the lane
/// index.
#[derive(Debug)]
pub struct ServerShared {
    /// Construction parameters (capacity, period, priority).
    pub params: TaskServerParameters,
    /// Service policy.
    pub policy: ServerPolicyKind,
    /// Overhead model of the runtime.
    pub overhead: OverheadModel,
    /// Capacity remaining in the current replenishment period.
    pub remaining: Span,
    /// Next replenishment instant.
    pub next_replenishment: Instant,
    /// Pending releases.
    pub queue: PendingQueue,
    /// Sporadic Server only: scheduled replenishments `(when, amount)`,
    /// time-ordered (chunk anchors are nondecreasing).
    pub pending_replenishments: VecDeque<(Instant, Span)>,
    /// Sporadic Server only: anchor of the open consumption chunk — the
    /// instant its first dispatch started.
    pub active_since: Option<Instant>,
    /// Sporadic Server only: capacity actually debited since the anchor.
    pub consumed_since_active: Span,
    /// On-line admission/overload state. Decisions are a pure function of
    /// the arrival history (see `rt-admission`), so they agree with the
    /// simulator's for identical arrival sequences.
    pub admission: ServerAdmission,
    /// The admission policy the lane is *configured* with. Kept separately
    /// from the machine (which degenerates to accept-all for background
    /// lanes and malformed parameter pairs) so a mode change can rebuild the
    /// machine under the configured policy — e.g. a Background → Sporadic
    /// swap restores the original admission behaviour.
    pub configured_admission: AdmissionPolicy,
    /// Scheduled lane reconfigurations not yet applied, in scheduled order
    /// (front = next). Drained by [`Self::apply_due_mode_changes`] at
    /// quiescent decision instants.
    pub mode_changes: VecDeque<ModeChange>,
    /// True while a dispatched service (including its overhead phases) is in
    /// flight. Mode changes are deferred while set — the quiescence
    /// protocol: in-service work drains under the configuration that
    /// dispatched it.
    pub in_service: bool,
    /// Reused buffer for the events an admission decision displaces — the
    /// release path stays allocation-free in the steady state.
    aborted_scratch: Vec<EventId>,
    /// The releases the last [`Self::released`] call removed from the queue
    /// (reused like `aborted_scratch`).
    displaced: Vec<QueuedRelease>,
}

impl ServerShared {
    /// Creates the state under [`AdmissionPolicy::AcceptAll`].
    pub fn new(
        params: TaskServerParameters,
        policy: ServerPolicyKind,
        overhead: OverheadModel,
        discipline: QueueDiscipline,
    ) -> Self {
        Self::with_admission(
            params,
            policy,
            overhead,
            discipline,
            AdmissionPolicy::AcceptAll,
        )
    }

    /// Creates the state with an on-line admission policy. Background
    /// servicing has no capacity plan to predict against and always accepts.
    pub fn with_admission(
        params: TaskServerParameters,
        policy: ServerPolicyKind,
        overhead: OverheadModel,
        discipline: QueueDiscipline,
        admission: AdmissionPolicy,
    ) -> Self {
        let queue = PendingQueue::new(params.capacity, params.period, discipline);
        let machine = if policy == ServerPolicyKind::Background {
            ServerAdmission::accept_all()
        } else {
            ServerAdmission::with_params(admission, params.capacity, params.period)
        };
        ServerShared {
            params,
            policy,
            overhead,
            remaining: params.capacity,
            next_replenishment: Instant::ZERO + params.period,
            queue,
            pending_replenishments: VecDeque::new(),
            active_since: None,
            consumed_since_active: Span::ZERO,
            admission: machine,
            configured_admission: admission,
            mode_changes: VecDeque::new(),
            in_service: false,
            aborted_scratch: Vec::new(),
            displaced: Vec::new(),
        }
    }

    /// Replenishes the capacity to its full value (called at each server
    /// period — by the periodic thread for the PS, by the replenishment timer
    /// for the DS).
    pub fn replenish(&mut self, now: Instant) {
        self.remaining = self.params.capacity;
        self.next_replenishment = now + self.params.period;
    }

    /// Loads the lane's scheduled mode changes (install time, scheduled
    /// order).
    pub fn set_mode_changes(&mut self, changes: Vec<ModeChange>) {
        self.mode_changes = changes.into();
    }

    /// Applies every scheduled mode change due at or before `now`, provided
    /// the lane is quiescent (no service in flight — otherwise the change
    /// waits for the next decision instant). Returns how many changes were
    /// applied. O(1) when nothing is due.
    pub fn apply_due_mode_changes(&mut self, now: Instant) -> usize {
        if self.in_service {
            return 0;
        }
        let mut applied = 0;
        while self.mode_changes.front().is_some_and(|c| c.at <= now) {
            if let Some(change) = self.mode_changes.pop_front() {
                self.apply_mode_change(&change);
                applied += 1;
            }
        }
        applied
    }

    /// Applies one reconfiguration record (see [`ModeChange`] for the field
    /// semantics; spec validation guarantees the resulting configuration is
    /// well formed — in particular capacity ≤ period on capacity-limited
    /// lanes).
    fn apply_mode_change(&mut self, change: &ModeChange) {
        if let Some(capacity) = change.capacity {
            self.params.capacity = capacity;
        }
        if let Some(period) = change.period {
            self.params.period = period;
        }
        if let Some(policy) = change.admission {
            self.configured_admission = policy;
        }
        if let Some(kind) = change.policy {
            self.policy = kind;
            // The swapped lane restarts fresh: full (new) capacity, no
            // scheduled replenishments, no open consumption chunk.
            self.remaining = self.params.capacity;
            self.pending_replenishments.clear();
            self.active_since = None;
            self.consumed_since_active = Span::ZERO;
        } else if change.capacity.is_some() {
            self.remaining = self.remaining.min(self.params.capacity);
        }
        let discipline = change.discipline.unwrap_or(self.queue.discipline());
        self.queue
            .set_server(self.params.capacity, self.params.period, discipline);
        // Rebuild the admission machine under the (possibly new) configured
        // policy. The backlog already admitted is grandfathered: it stays
        // queued and the fresh machine starts with no virtual entries.
        self.admission = if self.policy == ServerPolicyKind::Background
            || self.params.capacity.is_zero()
            || self.params.period.is_zero()
            || self.params.capacity > self.params.period
        {
            ServerAdmission::accept_all()
        } else {
            ServerAdmission::with_params(
                self.configured_admission,
                self.params.capacity,
                self.params.period,
            )
        };
    }

    /// Registers a release (the `servableEventReleased` entry point a
    /// `ServableAsyncEvent` fire reaches), consulting the server's on-line
    /// admission policy first. Returns whether the release was admitted into
    /// the pending queue. The backlog entries a value-density decision
    /// displaced to make room are removed from the queue and kept until the
    /// next call, for the run that owns the lane: the lane records no fate,
    /// the run stores the rejection and the displacements (see
    /// [`crate::framework`]). Under the default
    /// [`AdmissionPolicy::AcceptAll`] this is exactly the pre-admission
    /// behaviour (always admitted, nothing displaced).
    ///
    /// The equation-(5) slot of an admitted release is available afterwards
    /// through [`PendingQueue::predicted_slot`] or
    /// [`crate::admission::predicted_response`].
    pub fn released(&mut self, release: QueuedRelease, now: Instant) -> bool {
        let mut aborted = std::mem::take(&mut self.aborted_scratch);
        let (accepted, _prediction) = self.admission.on_arrival_into(
            &ArrivingEvent {
                event: release.event,
                release: release.release,
                declared_cost: release.declared_cost(),
                deadline: release.admission_deadline(),
                value: release.value(),
            },
            &mut aborted,
        );
        self.displaced.clear();
        for &event in &aborted {
            // Only still-pending releases can be dropped; one already being
            // served (possible under the non-polling policies, which run
            // ahead of the virtual plan) keeps its in-flight fate.
            if let Some(dropped) = self.queue.remove_event(event) {
                self.displaced.push(dropped);
            }
        }
        aborted.clear();
        self.aborted_scratch = aborted;
        if accepted {
            self.queue.push(release, now, self.remaining);
        }
        accepted
    }

    /// The pending releases the last [`Self::released`] call displaced, in
    /// the order the admission policy dropped them.
    pub(crate) fn displaced(&self) -> &[QueuedRelease] {
        &self.displaced
    }

    /// Budget the policy would grant to a release chosen at `now`.
    ///
    /// * Polling Server: the remaining capacity — the handler must fit
    ///   entirely in the current instance because it cannot be resumed.
    /// * Sporadic Server: the remaining capacity, like the PS — sporadic
    ///   replenishments arrive as discrete events, never mid-budget.
    /// * Deferrable Server: the remaining capacity, extended by one full
    ///   capacity when the service would span the next replenishment
    ///   ("if the current date plus the chosen event cost is bigger than the
    ///   next period of the server, the time budget associated with the event
    ///   is equal to the remaining capacity plus the total capacity", §4.2).
    /// * Background servicing: unlimited.
    pub fn granted_budget(&self, release: &QueuedRelease, now: Instant) -> Span {
        match self.policy {
            ServerPolicyKind::Background => Span::MAX,
            ServerPolicyKind::Polling | ServerPolicyKind::Sporadic => self.remaining,
            ServerPolicyKind::Deferrable => {
                // §4.2: the budget is extended by one full capacity when the
                // service would span the next replenishment ("the current
                // date plus the chosen event cost is bigger than the next
                // period") *and* the replenishment arrives before the current
                // remaining capacity would run out ("if the next refill of
                // the capacity is in a time lesser than [the remaining
                // capacity], the event can be served") — otherwise the server
                // would be running on capacity it does not have yet.
                let crosses_boundary = now + release.declared_cost() > self.next_replenishment;
                let refill_before_exhaustion = self.next_replenishment.since(now) <= self.remaining;
                if crosses_boundary && refill_before_exhaustion {
                    self.remaining + self.params.capacity
                } else {
                    self.remaining
                }
            }
        }
    }

    /// The largest declared cost the policy would accept for service at
    /// `now`. The per-release acceptance rule `declared ≤ granted_budget` of
    /// every policy collapses to a single cost threshold:
    ///
    /// * PS / SS: the remaining capacity;
    /// * DS: when the next refill arrives before the remaining capacity
    ///   could run out, the two §4.2 intervals (`[0, remaining]` and the
    ///   boundary-extended one) are contiguous and the threshold is
    ///   `remaining + capacity`; otherwise it is `remaining`.
    ///
    /// This is what lets [`Self::choose_next`] use the queue's O(log n)
    /// indexed selection instead of re-evaluating every pending budget per
    /// dispatch (the seed's O(n²)-per-dispatch overload hot-spot).
    fn servable_cost_ceiling(&self, now: Instant) -> Span {
        match self.policy {
            ServerPolicyKind::Background => Span::MAX,
            ServerPolicyKind::Polling | ServerPolicyKind::Sporadic => self.remaining,
            ServerPolicyKind::Deferrable => {
                let refill_before_exhaustion = self.next_replenishment.since(now) <= self.remaining;
                if refill_before_exhaustion {
                    // Any cost in (next_replenishment − now, remaining +
                    // capacity] crosses the boundary and gets the extended
                    // budget; anything at or below `remaining` fits the plain
                    // budget; with the gap ≤ remaining the union is one
                    // contiguous interval.
                    self.remaining + self.params.capacity
                } else {
                    self.remaining
                }
            }
        }
    }

    /// Chooses the next release to serve at `now`, together with its granted
    /// budget: the first pending release (FIFO order) whose declared cost
    /// fits in the budget its policy grants it. O(log n) in the backlog via
    /// the queue's cost index.
    pub fn choose_next(&mut self, now: Instant) -> Option<GrantedService> {
        if self.policy == ServerPolicyKind::Background {
            return self.queue.pop_front().map(|release| GrantedService {
                release,
                granted: Span::MAX,
            });
        }
        let ceiling = self.servable_cost_ceiling(now);
        let release = self.queue.choose_next(ceiling)?;
        if self.policy == ServerPolicyKind::Sporadic && self.active_since.is_none() {
            // Sprunt's rule: the replenishment anchor is the instant the
            // server becomes active. The server runs above every periodic
            // task, so the first dispatch of a chunk happens at that instant.
            self.active_since = Some(now);
        }
        let granted = self.granted_budget(&release, now);
        Some(GrantedService { release, granted })
    }

    /// Consumes capacity (saturating at zero — see the module documentation
    /// of [`crate::deferrable`] for the boundary-crossing simplification).
    /// For the Sporadic Server the actually-debited amount is also charged
    /// to the open chunk, so a later replenishment returns exactly what was
    /// taken.
    pub fn consume(&mut self, amount: Span) {
        if self.policy != ServerPolicyKind::Background {
            let debit = amount.min(self.remaining);
            self.remaining = self.remaining.minus(debit);
            if self.policy == ServerPolicyKind::Sporadic && self.active_since.is_some() {
                self.consumed_since_active += debit;
            }
        }
    }

    /// Sporadic Server: closes the open consumption chunk, scheduling its
    /// replenishment one server period after the chunk's anchor. Returns the
    /// replenishment instant so the server body can arm the one-shot timer
    /// that will apply it. Call when the server goes idle (queue drained or
    /// capacity exhausted).
    pub fn close_sporadic_chunk(&mut self) -> Option<Instant> {
        if self.policy != ServerPolicyKind::Sporadic {
            return None;
        }
        let anchor = self.active_since.take()?;
        let amount = std::mem::replace(&mut self.consumed_since_active, Span::ZERO);
        if amount.is_zero() {
            return None;
        }
        let when = anchor + self.params.period;
        self.pending_replenishments.push_back((when, amount));
        Some(when)
    }

    /// The absolute deadline an EDF dispatcher ranks this server by — its
    /// *replenishment-derived deadline*:
    ///
    /// * Polling / Deferrable Server: the next replenishment instant (the
    ///   end of the current server period, the classic deadline assignment
    ///   for periodic-capacity servers);
    /// * Sporadic Server: the open chunk's `anchor + period` when the server
    ///   is active, else the earliest scheduled replenishment, else
    ///   `now + period` (the deadline a chunk opened right now would get);
    /// * Background servicing: [`Instant::MAX`] — it never carries a
    ///   deadline and ranks last.
    ///
    /// Server bodies publish this through
    /// [`rtsj_emu::BodyCtx::set_deadline`] at every pump; between pumps the
    /// stored value can only be *earlier* than the true one (replenishments
    /// always wake the server), which the engine tolerates — see the EDF
    /// notes in `rtsj_emu::engine`.
    pub fn edf_deadline(&self, now: Instant) -> Instant {
        match self.policy {
            ServerPolicyKind::Background => Instant::MAX,
            ServerPolicyKind::Polling | ServerPolicyKind::Deferrable => self.next_replenishment,
            ServerPolicyKind::Sporadic => {
                match (self.active_since, self.pending_replenishments.front()) {
                    (Some(anchor), _) => anchor + self.params.period,
                    (None, Some(&(when, _))) => when,
                    (None, None) => now + self.params.period,
                }
            }
        }
    }

    /// Sporadic Server: applies every scheduled replenishment due at or
    /// before `now`, returning `true` when capacity came back.
    pub fn apply_due_replenishments(&mut self, now: Instant) -> bool {
        let mut applied = false;
        while let Some(&(when, amount)) = self.pending_replenishments.front() {
            if when > now {
                break;
            }
            self.pending_replenishments.pop_front();
            self.remaining = (self.remaining + amount).min(self.params.capacity);
            applied = true;
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::ServableHandler;
    use rt_model::{EventId, HandlerId, Priority};

    fn params() -> TaskServerParameters {
        TaskServerParameters::new(Span::from_units(4), Span::from_units(6), Priority::new(30))
    }

    fn release(id: u32, cost: u64, at: u64) -> QueuedRelease {
        QueuedRelease::new(
            EventId::new(id),
            ServableHandler::new(HandlerId::new(id), Span::from_units(cost)),
            Instant::from_units(at),
        )
    }

    fn shared(policy: ServerPolicyKind) -> ServerShared {
        ServerShared::new(
            params(),
            policy,
            OverheadModel::none(),
            QueueDiscipline::FifoSkip,
        )
    }

    #[test]
    fn polling_budget_is_the_remaining_capacity() {
        let mut s = shared(ServerPolicyKind::Polling);
        s.remaining = Span::from_units(2);
        let r = release(0, 3, 0);
        assert_eq!(
            s.granted_budget(&r, Instant::from_units(1)),
            Span::from_units(2)
        );
    }

    #[test]
    fn deferrable_budget_extends_across_the_boundary() {
        let mut s = shared(ServerPolicyKind::Deferrable);
        s.remaining = Span::from_units(1);
        s.next_replenishment = Instant::from_units(6);
        let r = release(0, 2, 5);
        // Serving cost 2 from t=5 crosses the boundary at 6: the budget is
        // extended by the full capacity.
        assert_eq!(
            s.granted_budget(&r, Instant::from_units(5)),
            Span::from_units(5)
        );
        // Served well before the boundary, no extension applies.
        assert_eq!(
            s.granted_budget(&r, Instant::from_units(1)),
            Span::from_units(1)
        );
    }

    #[test]
    fn choose_next_applies_the_policy_budgets() {
        let mut s = shared(ServerPolicyKind::Deferrable);
        s.remaining = Span::from_units(1);
        s.next_replenishment = Instant::from_units(6);
        s.released(release(0, 2, 5), Instant::from_units(5));
        // At t=5 the boundary rule grants 1 + 4 = 5 ≥ 2: chosen.
        let granted = s.choose_next(Instant::from_units(5)).unwrap();
        assert_eq!(granted.release.event, EventId::new(0));
        assert_eq!(granted.granted, Span::from_units(5));
        // Same state but analysed at t=1: nothing is servable.
        s.released(release(1, 2, 0), Instant::from_units(0));
        assert!(s.choose_next(Instant::from_units(1)).is_none());
    }

    #[test]
    fn polling_choose_skips_oversized_releases() {
        let mut s = shared(ServerPolicyKind::Polling);
        s.remaining = Span::from_units(2);
        s.released(release(0, 3, 0), Instant::ZERO);
        s.released(release(1, 1, 1), Instant::ZERO);
        let granted = s.choose_next(Instant::from_units(6)).unwrap();
        assert_eq!(
            granted.release.event,
            EventId::new(1),
            "the later, smaller release skips ahead"
        );
    }

    #[test]
    fn background_serves_fifo_without_budget() {
        let mut s = shared(ServerPolicyKind::Background);
        s.released(release(0, 50, 0), Instant::ZERO);
        let granted = s.choose_next(Instant::ZERO).unwrap();
        assert_eq!(granted.granted, Span::MAX);
        s.consume(Span::from_units(50));
        assert_eq!(
            s.remaining,
            params().capacity,
            "background consumes no capacity"
        );
    }

    #[test]
    fn consume_and_replenish() {
        let mut s = shared(ServerPolicyKind::Polling);
        s.consume(Span::from_units(3));
        assert_eq!(s.remaining, Span::from_units(1));
        s.consume(Span::from_units(5));
        assert_eq!(s.remaining, Span::ZERO);
        s.replenish(Instant::from_units(6));
        assert_eq!(s.remaining, Span::from_units(4));
        assert_eq!(s.next_replenishment, Instant::from_units(12));
    }

    #[test]
    fn released_leaves_rejections_and_displacements_to_the_run() {
        // Value-density admission on the capacity-4 / period-6 lane: two
        // low-value cost-4 releases fill the plan, a dense newcomer with a
        // tight deadline displaces the second, and a low-value newcomer with
        // the same deadline is refused. The lane only decides: the displaced
        // release is handed back and nothing is recorded.
        let mut s = ServerShared::with_admission(
            params(),
            ServerPolicyKind::Polling,
            OverheadModel::none(),
            QueueDiscipline::FifoSkip,
            AdmissionPolicy::ValueDensity,
        );
        let valued = |id: u32, value: u64, deadline: Option<u64>| {
            let mut handler =
                ServableHandler::new(HandlerId::new(id), Span::from_units(4)).with_value(value);
            if let Some(relative) = deadline {
                handler = handler.with_relative_deadline(Span::from_units(relative));
            }
            QueuedRelease::new(EventId::new(id), handler, Instant::ZERO)
        };
        assert!(s.released(valued(0, 1, None), Instant::ZERO));
        assert!(s.released(valued(1, 1, None), Instant::ZERO));
        assert!(s.displaced().is_empty());
        let dense = valued(2, 1_000_000, Some(10));
        assert!(s.released(dense, Instant::ZERO));
        assert_eq!(s.displaced(), [valued(1, 1, None)]);
        let queued: Vec<EventId> = s.queue.iter().map(|r| r.event).collect();
        assert_eq!(queued, [EventId::new(0), EventId::new(2)]);
        assert!(!s.released(valued(3, 1, Some(10)), Instant::ZERO));
        assert!(s.displaced().is_empty());
        assert_eq!(s.queue.len(), 2);
    }
}
