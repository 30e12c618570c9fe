//! Shared runtime state of a task server.
//!
//! The paper's abstract `TaskServer` class owns the pending-events list, the
//! capacity accounting and the policy-independent bookkeeping; the concrete
//! `PollingTaskServer` and `DeferrableTaskServer` subclasses add their
//! activation logic. Here the shared part is [`ServerShared`], owned jointly
//! (via `Rc<RefCell<…>>`) by the server's schedulable body, the fire hooks of
//! its servable events and the replenishment timer hook — exactly the
//! sharing pattern of the RTSJ design, where `fire()` calls
//! `servableEventReleased()` on the server object.

use crate::handler::QueuedRelease;
use crate::queue::{PendingQueue, QueueKind};
use rt_admission::{ArrivingEvent, ServerAdmission};
use rt_model::{
    AdmissionPolicy, AperiodicFate, AperiodicOutcome, EventId, Instant, ModeChange,
    QueueDiscipline, ServerPolicyKind, Span,
};
use rt_observe::LaneTotals;
use rtsj_emu::{OverheadModel, TaskServerParameters};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A chosen release together with the budget granted to its service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrantedService {
    /// The release to serve.
    pub release: QueuedRelease,
    /// Total budget granted (dispatch + handler work + enforcement must fit
    /// within it).
    pub granted: Span,
}

/// Policy-independent runtime state shared between the server body, the
/// servable-event fire hooks and the replenishment machinery.
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
    /// Outcomes recorded so far (served and interrupted events).
    pub outcomes: Vec<AperiodicOutcome>,
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
    /// Reused buffer for the releases an admission decision displaces — the
    /// release path stays allocation-free in the steady state.
    aborted_scratch: Vec<EventId>,
    /// Always-on per-lane observability tally: plain `u64` increments at the
    /// decision sites below, drained once after the run by
    /// [`crate::execute_with_probe`] through
    /// [`rt_observe::Probe::lane_totals`]. Kept unconditional (no probe
    /// generic in the shared state) because the bumps are cheaper than the
    /// `Rc<RefCell>` traffic already paid on every one of these paths.
    pub totals: LaneTotals,
}

/// Shared handle to a server's state.
pub type SharedServer = Rc<RefCell<ServerShared>>;

impl ServerShared {
    /// Creates the state and wraps it for sharing.
    pub fn new(
        params: TaskServerParameters,
        policy: ServerPolicyKind,
        overhead: OverheadModel,
        queue_kind: QueueKind,
        discipline: QueueDiscipline,
    ) -> SharedServer {
        Self::with_admission(
            params,
            policy,
            overhead,
            queue_kind,
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
        queue_kind: QueueKind,
        discipline: QueueDiscipline,
        admission: AdmissionPolicy,
    ) -> SharedServer {
        let queue = PendingQueue::new(queue_kind, params.capacity, params.period, discipline);
        let machine = if policy == ServerPolicyKind::Background {
            ServerAdmission::accept_all()
        } else {
            ServerAdmission::with_params(admission, params.capacity, params.period)
        };
        Rc::new(RefCell::new(ServerShared {
            params,
            policy,
            overhead,
            remaining: params.capacity,
            next_replenishment: Instant::ZERO + params.period,
            queue,
            outcomes: Vec::new(),
            pending_replenishments: VecDeque::new(),
            active_since: None,
            consumed_since_active: Span::ZERO,
            admission: machine,
            configured_admission: admission,
            mode_changes: VecDeque::new(),
            in_service: false,
            aborted_scratch: Vec::new(),
            totals: LaneTotals::default(),
        }))
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
    /// waits for the next decision instant). Returns `true` when a change
    /// was applied. O(1) when nothing is due.
    pub fn apply_due_mode_changes(&mut self, now: Instant) -> bool {
        if self.in_service {
            return false;
        }
        let mut applied = false;
        while self.mode_changes.front().is_some_and(|c| c.at <= now) {
            if let Some(change) = self.mode_changes.pop_front() {
                self.apply_mode_change(&change);
                applied = true;
            }
        }
        applied
    }

    /// Applies one reconfiguration record (see [`ModeChange`] for the field
    /// semantics; spec validation guarantees the resulting configuration is
    /// well formed — in particular capacity ≤ period on capacity-limited
    /// lanes).
    fn apply_mode_change(&mut self, change: &ModeChange) {
        self.totals.mode_changes += 1;
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

    /// Registers a release (the `servableEventReleased` entry point called by
    /// `ServableAsyncEvent::fire`), consulting the server's on-line
    /// admission policy first. Returns `true` when the release was admitted
    /// into the pending queue; a refused release is recorded as
    /// [`AperiodicFate::Rejected`] and any backlog entries displaced by a
    /// value-density decision are removed from the queue and recorded as
    /// [`AperiodicFate::Aborted`]. Under the default
    /// [`AdmissionPolicy::AcceptAll`] this is exactly the pre-admission
    /// behaviour (always `true`, no extra bookkeeping).
    ///
    /// The equation-(5) slot predicted by the queue structure, when it
    /// maintains one, is available afterwards through
    /// [`PendingQueue::predicted_slot`] or
    /// [`crate::admission::predicted_response`].
    pub fn released(&mut self, release: QueuedRelease, now: Instant) -> bool {
        // An arrival is a decision instant: reconfigure first (when
        // quiescent) so the release is admitted under the new configuration,
        // mirroring the simulator's decision ordering.
        self.apply_due_mode_changes(now);
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
        for &event in &aborted {
            // Only still-pending releases can be dropped; one already being
            // served (possible under the non-polling policies, which run
            // ahead of the virtual plan) keeps its in-flight fate.
            if let Some(dropped) = self.queue.remove_event(event) {
                self.record_aborted(&dropped, now);
            }
        }
        aborted.clear();
        self.aborted_scratch = aborted;
        if accepted {
            self.totals.accepted += 1;
            let _ = self.queue.push(release, now, self.remaining);
        } else {
            self.record_rejected(&release, now);
        }
        accepted
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

    /// Records a successfully served event.
    pub fn record_served(&mut self, release: &QueuedRelease, started: Instant, completed: Instant) {
        self.outcomes
            .push(self.outcome(release, AperiodicFate::Served { started, completed }));
    }

    /// Builds an outcome record carrying the release's value and deadline.
    fn outcome(&self, release: &QueuedRelease, fate: AperiodicFate) -> AperiodicOutcome {
        AperiodicOutcome {
            event: release.event,
            release: release.release,
            declared_cost: release.declared_cost(),
            value: release.value(),
            deadline: release.admission_deadline(),
            fate,
        }
    }

    /// Records a release refused by the admission policy at arrival.
    pub fn record_rejected(&mut self, release: &QueuedRelease, at: Instant) {
        self.totals.rejected += 1;
        self.outcomes
            .push(self.outcome(release, AperiodicFate::Rejected { at }));
    }

    /// Records a pending release dropped by an overload decision.
    pub fn record_aborted(&mut self, release: &QueuedRelease, at: Instant) {
        self.totals.aborted += 1;
        self.outcomes
            .push(self.outcome(release, AperiodicFate::Aborted { at }));
    }

    /// Records a fault-injected job cut off by budget enforcement at its
    /// declared cost, and releases its equation-(5) plan slot so the
    /// admission state stays consistent with the capacity the abort freed.
    pub fn record_enforcement_abort(&mut self, release: &QueuedRelease, at: Instant) {
        self.totals.cap_exhaustions += 1;
        self.record_aborted(release, at);
        self.admission.on_abort(release.event, at);
    }

    /// Records an event interrupted by budget enforcement.
    pub fn record_interrupted(
        &mut self,
        release: &QueuedRelease,
        started: Instant,
        interrupted_at: Instant,
    ) {
        self.totals.cap_exhaustions += 1;
        self.outcomes.push(self.outcome(
            release,
            AperiodicFate::Interrupted {
                started,
                interrupted_at,
            },
        ));
    }

    /// Reports everything still pending as unserved (called once the horizon
    /// is reached) and returns the complete outcome list.
    pub fn finalise(&mut self) -> Vec<AperiodicOutcome> {
        for release in self.queue.drain() {
            let outcome = self.outcome(&release, AperiodicFate::Unserved);
            self.outcomes.push(outcome);
        }
        let mut outcomes = std::mem::take(&mut self.outcomes);
        outcomes.sort_by_key(|o| (o.release, o.event));
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::ServableHandler;
    use rt_model::NameId;
    use rt_model::{EventId, HandlerId, Priority};

    fn params() -> TaskServerParameters {
        TaskServerParameters::new(Span::from_units(4), Span::from_units(6), Priority::new(30))
    }

    fn release(id: u32, cost: u64, at: u64) -> QueuedRelease {
        QueuedRelease::new(
            EventId::new(id),
            ServableHandler::new(
                HandlerId::new(id),
                NameId::from_raw(id),
                Span::from_units(cost),
            ),
            Instant::from_units(at),
        )
    }

    fn shared(policy: ServerPolicyKind) -> SharedServer {
        ServerShared::new(
            params(),
            policy,
            OverheadModel::none(),
            QueueKind::Fifo,
            QueueDiscipline::FifoSkip,
        )
    }

    #[test]
    fn polling_budget_is_the_remaining_capacity() {
        let server = shared(ServerPolicyKind::Polling);
        let mut s = server.borrow_mut();
        s.remaining = Span::from_units(2);
        let r = release(0, 3, 0);
        assert_eq!(
            s.granted_budget(&r, Instant::from_units(1)),
            Span::from_units(2)
        );
    }

    #[test]
    fn deferrable_budget_extends_across_the_boundary() {
        let server = shared(ServerPolicyKind::Deferrable);
        let mut s = server.borrow_mut();
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
        let server = shared(ServerPolicyKind::Deferrable);
        let mut s = server.borrow_mut();
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
        let server = shared(ServerPolicyKind::Polling);
        let mut s = server.borrow_mut();
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
        let server = shared(ServerPolicyKind::Background);
        let mut s = server.borrow_mut();
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
        let server = shared(ServerPolicyKind::Polling);
        let mut s = server.borrow_mut();
        s.consume(Span::from_units(3));
        assert_eq!(s.remaining, Span::from_units(1));
        s.consume(Span::from_units(5));
        assert_eq!(s.remaining, Span::ZERO);
        s.replenish(Instant::from_units(6));
        assert_eq!(s.remaining, Span::from_units(4));
        assert_eq!(s.next_replenishment, Instant::from_units(12));
    }

    #[test]
    fn finalise_reports_unserved_and_sorts_outcomes() {
        let server = shared(ServerPolicyKind::Polling);
        let mut s = server.borrow_mut();
        let first = release(0, 2, 0);
        let second = release(1, 2, 3);
        s.released(second, Instant::from_units(3));
        s.record_served(&first, Instant::from_units(6), Instant::from_units(8));
        let outcomes = s.finalise();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].event, EventId::new(0));
        assert!(outcomes[0].is_served());
        assert_eq!(outcomes[1].fate, AperiodicFate::Unserved);
        assert!(s.queue.is_empty());
    }
}
