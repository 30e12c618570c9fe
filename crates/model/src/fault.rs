//! Deterministic fault-injection and mode-change plans.
//!
//! The paper's model assumes declared handler costs are honest and server
//! configurations are static for the whole mission. A [`FaultPlan`] relaxes
//! both assumptions *deterministically*: it is part of the [`SystemSpec`]
//! (so both worlds — the literature-exact simulation and the RTSJ execution
//! framework — see exactly the same injected faults) and contains
//!
//! * **cost overruns** ([`CostOverrun`]): a chosen event instance demands
//!   `extra` processor time beyond its recorded actual cost. Both engines
//!   enforce the *declared* cost as a hard service cap on fault-injected
//!   jobs and surface the cutoff through the first-class
//!   [`AperiodicFate::Aborted`](crate::trace::AperiodicFate::Aborted) fate,
//!   so an overrun is contained to the lying job;
//! * **arrival faults** ([`ArrivalFault`]): release jitter (the event fires
//!   late; its absolute deadline stays anchored to the nominal release, so
//!   jitter eats the event's own slack) and dropped arrivals (the event
//!   never fires and produces no outcome). These are resolved *before* any
//!   engine runs, by [`SystemSpec::apply_arrival_faults`] — a pure spec
//!   normalisation, identical for every engine by construction;
//! * **mode changes** ([`ModeChange`]): at a scheduled instant a server lane
//!   swaps its capacity, period, service discipline, admission policy or
//!   (within the event-driven kinds) its server policy. Changes follow a
//!   *quiescence protocol*: a lane reconfigures only at a decision instant
//!   with no job in service, so in-flight work always drains under the
//!   configuration that dispatched it.
//!
//! [`SystemSpec`]: crate::system::SystemSpec
//! [`SystemSpec::apply_arrival_faults`]: crate::system::SystemSpec::apply_arrival_faults

use crate::error::ModelError;
use crate::ids::EventId;
use crate::task::{AdmissionPolicy, QueueDiscipline, ServerPolicyKind};
use crate::time::{Instant, Span};
use std::collections::BTreeSet;

/// A handler cost overrun: at its (single) release, `event`'s job demands
/// `extra` processor time beyond the actual cost recorded in the spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostOverrun {
    /// The faulty event.
    pub event: EventId,
    /// Extra demand beyond the recorded actual cost (strictly positive).
    pub extra: Span,
}

/// A fault on the release of one aperiodic event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalFault {
    /// The event fires `delay` later than specified. Its absolute deadline
    /// stays anchored to the *nominal* release (the relative deadline
    /// shrinks, saturating at zero), so jitter consumes the event's slack.
    Jitter {
        /// The jittered event.
        event: EventId,
        /// Release delay (strictly positive).
        delay: Span,
    },
    /// The event never fires: it is removed from the workload and produces
    /// no outcome record.
    Drop {
        /// The dropped event.
        event: EventId,
    },
}

impl ArrivalFault {
    /// The event the fault applies to.
    pub fn event(&self) -> EventId {
        match *self {
            ArrivalFault::Jitter { event, .. } | ArrivalFault::Drop { event } => event,
        }
    }
}

/// A scheduled reconfiguration of one server lane. Every `Some` field is
/// applied atomically at the first quiescent decision instant at or after
/// `at` (quiescent: the lane has no job in service).
///
/// Semantics per field:
///
/// * `capacity` — the lane's capacity becomes the new value; capacity
///   currently available is clamped to it, and every later replenishment
///   refills to the new value;
/// * `period` — the lane's period becomes the new value. Only lanes whose
///   policy at that instant is Sporadic or Background accept a period
///   change (Polling/Deferrable replenishment cadence is an install-time
///   periodic timer in the execution framework, fixed for the mission);
/// * `policy` — the lane swaps its server policy. Swaps are restricted to
///   event-driven lanes (the installed schedulable body is an AEH, not a
///   periodic thread) and to targets that arm their own timers at runtime:
///   from {Deferrable, Background, Sporadic} into {Background, Sporadic}.
///   The swapped lane restarts fresh: full (new) capacity, no scheduled
///   replenishments, no open consumption chunk;
/// * `discipline` — the pending queue is re-ordered under the new service
///   discipline from the application instant on;
/// * `admission` — the admission machine is rebuilt from scratch under the
///   new policy at the application instant. The backlog already admitted is
///   *grandfathered*: it stays queued and is never re-admitted or displaced
///   by the new machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeChange {
    /// Scheduled instant of the change.
    pub at: Instant,
    /// Index of the target server lane.
    pub server: usize,
    /// New capacity, if changed.
    pub capacity: Option<Span>,
    /// New period, if changed.
    pub period: Option<Span>,
    /// New server policy, if swapped.
    pub policy: Option<ServerPolicyKind>,
    /// New queue discipline, if changed.
    pub discipline: Option<QueueDiscipline>,
    /// New admission policy, if changed.
    pub admission: Option<AdmissionPolicy>,
}

impl ModeChange {
    /// A change record with no effect yet, targeting `server` at `at`.
    pub fn at(at: Instant, server: usize) -> Self {
        ModeChange {
            at,
            server,
            capacity: None,
            period: None,
            policy: None,
            discipline: None,
            admission: None,
        }
    }

    /// Sets the new capacity.
    pub fn with_capacity(mut self, capacity: Span) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Sets the new period.
    pub fn with_period(mut self, period: Span) -> Self {
        self.period = Some(period);
        self
    }

    /// Sets the new server policy.
    pub fn with_policy(mut self, policy: ServerPolicyKind) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Sets the new queue discipline.
    pub fn with_discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = Some(discipline);
        self
    }

    /// Sets the new admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = Some(admission);
        self
    }

    /// True when the record changes nothing.
    pub fn is_noop(&self) -> bool {
        self.capacity.is_none()
            && self.period.is_none()
            && self.policy.is_none()
            && self.discipline.is_none()
            && self.admission.is_none()
    }
}

/// The deterministic fault plan of one system: injected overruns, arrival
/// faults and scheduled mode changes. An empty plan (the default) changes
/// nothing anywhere — fault-free specs behave exactly as before the fault
/// layer existed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Handler cost overruns, at most one per event.
    pub overruns: Vec<CostOverrun>,
    /// Release jitter / dropped arrivals, at most one per event.
    pub arrival_faults: Vec<ArrivalFault>,
    /// Scheduled lane reconfigurations, sorted by instant.
    pub mode_changes: Vec<ModeChange>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a cost overrun.
    pub fn overrun(mut self, event: EventId, extra: Span) -> Self {
        self.overruns.push(CostOverrun { event, extra });
        self
    }

    /// Adds release jitter.
    pub fn jitter(mut self, event: EventId, delay: Span) -> Self {
        self.arrival_faults
            .push(ArrivalFault::Jitter { event, delay });
        self
    }

    /// Drops an arrival.
    pub fn drop_arrival(mut self, event: EventId) -> Self {
        self.arrival_faults.push(ArrivalFault::Drop { event });
        self
    }

    /// Adds a mode change (records are sorted by instant at build time).
    pub fn mode_change(mut self, change: ModeChange) -> Self {
        self.mode_changes.push(change);
        self
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.overruns.is_empty() && self.arrival_faults.is_empty() && self.mode_changes.is_empty()
    }

    /// True when the plan perturbs releases (jitter or drops).
    pub fn has_arrival_faults(&self) -> bool {
        !self.arrival_faults.is_empty()
    }

    /// Extra demand injected into `event`'s job ([`Span::ZERO`] when the
    /// event is not overrun). A linear scan; per-event lookups over a whole
    /// workload go through an [`OverrunTable`] instead.
    pub fn overrun_extra(&self, event: EventId) -> Span {
        self.overruns
            .iter()
            .find(|o| o.event == event)
            .map(|o| o.extra)
            .unwrap_or(Span::ZERO)
    }

    /// The mode changes targeting one lane, in scheduled order.
    pub fn mode_changes_for(&self, server: usize) -> impl Iterator<Item = &ModeChange> {
        self.mode_changes.iter().filter(move |m| m.server == server)
    }

    /// True when any mode change swaps a lane's server policy (such specs
    /// compile through the dynamic lane driver).
    pub fn has_policy_swap(&self) -> bool {
        self.mode_changes.iter().any(|m| m.policy.is_some())
    }

    /// Sorts the mode-change records by `(at, server)`, keeping same-instant
    /// records for one lane in insertion order (they apply in sequence).
    pub fn normalise(&mut self) {
        self.mode_changes.sort_by_key(|m| (m.at, m.server));
    }

    /// Validates the plan against the system it belongs to. `event_exists`
    /// answers id membership; `servers` lists the install-time
    /// `(policy, capacity, period)` of every lane, which seeds the per-lane
    /// configuration trajectory the records are checked against.
    pub(crate) fn validate(
        &self,
        event_exists: impl Fn(EventId) -> bool,
        servers: &[(ServerPolicyKind, Span, Span)],
    ) -> Result<(), ModelError> {
        let mut seen_overrun = BTreeSet::new();
        for o in &self.overruns {
            if !event_exists(o.event) {
                return Err(ModelError::invalid(format!(
                    "overrun targets unknown event {}",
                    o.event
                )));
            }
            if o.extra.is_zero() {
                return Err(ModelError::invalid(format!(
                    "overrun on event {} injects zero extra demand",
                    o.event
                )));
            }
            if !seen_overrun.insert(o.event) {
                return Err(ModelError::invalid(format!(
                    "event {} has more than one overrun record",
                    o.event
                )));
            }
        }
        let mut seen_arrival = BTreeSet::new();
        for f in &self.arrival_faults {
            let event = f.event();
            if !event_exists(event) {
                return Err(ModelError::invalid(format!(
                    "arrival fault targets unknown event {event}"
                )));
            }
            if let ArrivalFault::Jitter { delay, .. } = f {
                if delay.is_zero() {
                    return Err(ModelError::invalid(format!(
                        "jitter on event {event} has zero delay"
                    )));
                }
            }
            if !seen_arrival.insert(event) {
                return Err(ModelError::invalid(format!(
                    "event {event} has more than one arrival fault"
                )));
            }
        }
        if self.mode_changes.windows(2).any(|w| w[0].at > w[1].at) {
            return Err(ModelError::invalid(
                "mode changes must be sorted by instant",
            ));
        }
        // Walk the per-lane configuration trajectory so chained records
        // validate against the policy/capacity/period the lane will actually
        // have at each change.
        let mut current: Vec<ServerPolicyKind> = servers.iter().map(|s| s.0).collect();
        let mut capacities: Vec<Span> = servers.iter().map(|s| s.1).collect();
        let mut periods: Vec<Span> = servers.iter().map(|s| s.2).collect();
        for (index, m) in self.mode_changes.iter().enumerate() {
            let Some(&policy_then) = current.get(m.server) else {
                return Err(ModelError::invalid(format!(
                    "mode change {index} targets server {} but the system has {}",
                    m.server,
                    current.len()
                )));
            };
            if m.is_noop() {
                return Err(ModelError::invalid(format!(
                    "mode change {index} changes nothing"
                )));
            }
            if let Some(target) = m.policy {
                if policy_then == ServerPolicyKind::Polling {
                    return Err(ModelError::invalid(format!(
                        "mode change {index}: a polling lane cannot swap policy \
                         (its schedulable body is a periodic thread)"
                    )));
                }
                if !matches!(
                    target,
                    ServerPolicyKind::Background | ServerPolicyKind::Sporadic
                ) {
                    return Err(ModelError::invalid(format!(
                        "mode change {index}: policy swaps may only target \
                         Background or Sporadic (got {})",
                        target.label()
                    )));
                }
                if target == ServerPolicyKind::Sporadic
                    && (m.capacity.is_none() || m.period.is_none())
                {
                    return Err(ModelError::invalid(format!(
                        "mode change {index}: a swap to Sporadic must carry \
                         an explicit capacity and period"
                    )));
                }
                current[m.server] = target;
            }
            if m.period.is_some() && m.policy.is_none() && policy_then != ServerPolicyKind::Sporadic
            {
                return Err(ModelError::invalid(format!(
                    "mode change {index}: only Sporadic lanes accept a bare \
                     period change (the {} replenishment timer is fixed at \
                     install)",
                    policy_then.label()
                )));
            }
            // The policy the lane has once this record is applied.
            let resulting = current[m.server];
            if resulting == ServerPolicyKind::Background
                && (m.capacity.is_some() || m.period.is_some())
            {
                return Err(ModelError::invalid(format!(
                    "mode change {index}: a background lane has no capacity or \
                     period to change"
                )));
            }
            if let Some(c) = m.capacity {
                if c.is_zero() {
                    return Err(ModelError::invalid(format!(
                        "mode change {index}: new capacity must be positive"
                    )));
                }
                capacities[m.server] = c;
            }
            if let Some(p) = m.period {
                if p.is_zero() {
                    return Err(ModelError::invalid(format!(
                        "mode change {index}: new period must be positive"
                    )));
                }
                periods[m.server] = p;
            }
            // A capacity-limited lane must keep a well-formed configuration:
            // both engines rebuild their admission machines (and the exec
            // side its equation-(5) packing parameters) from the resulting
            // `(capacity, period)` pair, which requires capacity ≤ period.
            if resulting != ServerPolicyKind::Background && capacities[m.server] > periods[m.server]
            {
                return Err(ModelError::invalid(format!(
                    "mode change {index}: resulting capacity {} exceeds the \
                     lane period {}",
                    capacities[m.server], periods[m.server]
                )));
            }
        }
        Ok(())
    }
}

/// A validated plan's cost overruns sorted by event id, so resolving the
/// extra demand of every event in a workload costs a binary search per event
/// instead of [`FaultPlan::overrun_extra`]'s scan.
#[derive(Debug, Clone)]
pub struct OverrunTable(Vec<(EventId, Span)>);

impl OverrunTable {
    /// Sorts the plan's overrun records by event id.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut rows: Vec<(EventId, Span)> =
            plan.overruns.iter().map(|o| (o.event, o.extra)).collect();
        rows.sort_unstable_by_key(|&(id, _)| id);
        OverrunTable(rows)
    }

    /// Extra demand injected into `event`'s job ([`Span::ZERO`] when the
    /// event is not overrun); agrees with [`FaultPlan::overrun_extra`].
    #[inline]
    pub fn extra(&self, event: EventId) -> Span {
        match self.0.binary_search_by_key(&event, |&(id, _)| id) {
            Ok(k) => self.0[k].1,
            Err(_) => Span::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exists(upto: u32) -> impl Fn(EventId) -> bool {
        move |e: EventId| e.raw() < upto
    }

    /// An install-time lane triple with the Table 1 capacity/period.
    fn lane(policy: ServerPolicyKind) -> (ServerPolicyKind, Span, Span) {
        (policy, Span::from_units(3), Span::from_units(6))
    }

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(plan
            .validate(exists(0), &[lane(ServerPolicyKind::Polling)])
            .is_ok());
        assert_eq!(plan.overrun_extra(EventId::new(0)), Span::ZERO);
    }

    #[test]
    fn overrun_lookup_and_duplicates() {
        let plan = FaultPlan::new().overrun(EventId::new(1), Span::from_units(2));
        assert!(plan.validate(exists(3), &[]).is_ok());
        assert_eq!(plan.overrun_extra(EventId::new(1)), Span::from_units(2));
        assert_eq!(plan.overrun_extra(EventId::new(0)), Span::ZERO);
        let table = OverrunTable::new(&plan.clone().overrun(EventId::new(0), Span::from_units(5)));
        assert_eq!(table.extra(EventId::new(1)), Span::from_units(2));
        assert_eq!(table.extra(EventId::new(0)), Span::from_units(5));
        assert_eq!(table.extra(EventId::new(2)), Span::ZERO);
        let dup = plan.clone().overrun(EventId::new(1), Span::from_units(1));
        assert!(dup.validate(exists(3), &[]).is_err());
        let unknown = FaultPlan::new().overrun(EventId::new(9), Span::from_units(1));
        assert!(unknown.validate(exists(3), &[]).is_err());
        let zero = FaultPlan::new().overrun(EventId::new(0), Span::ZERO);
        assert!(zero.validate(exists(3), &[]).is_err());
    }

    #[test]
    fn arrival_faults_are_exclusive_per_event() {
        let plan = FaultPlan::new()
            .jitter(EventId::new(0), Span::from_units(1))
            .drop_arrival(EventId::new(1));
        assert!(plan.validate(exists(2), &[]).is_ok());
        assert!(plan.has_arrival_faults());
        let conflicted = plan.clone().drop_arrival(EventId::new(0));
        assert!(conflicted.validate(exists(2), &[]).is_err());
        let zero_jitter = FaultPlan::new().jitter(EventId::new(0), Span::ZERO);
        assert!(zero_jitter.validate(exists(2), &[]).is_err());
    }

    #[test]
    fn mode_change_policy_swap_rules() {
        let lanes = [
            lane(ServerPolicyKind::Deferrable),
            lane(ServerPolicyKind::Polling),
        ];
        // Deferrable -> Background is fine.
        let ok = FaultPlan::new().mode_change(
            ModeChange::at(Instant::from_units(6), 0).with_policy(ServerPolicyKind::Background),
        );
        assert!(ok.validate(exists(0), &lanes).is_ok());
        // Polling lanes cannot swap.
        let polling = FaultPlan::new().mode_change(
            ModeChange::at(Instant::from_units(6), 1).with_policy(ServerPolicyKind::Background),
        );
        assert!(polling.validate(exists(0), &lanes).is_err());
        // Swapping into Deferrable is rejected.
        let into_ds = FaultPlan::new().mode_change(
            ModeChange::at(Instant::from_units(6), 0).with_policy(ServerPolicyKind::Deferrable),
        );
        assert!(into_ds.validate(exists(0), &lanes).is_err());
        // A sporadic target must carry capacity + period.
        let bare_ss = FaultPlan::new().mode_change(
            ModeChange::at(Instant::from_units(6), 0).with_policy(ServerPolicyKind::Sporadic),
        );
        assert!(bare_ss.validate(exists(0), &lanes).is_err());
        let full_ss = FaultPlan::new().mode_change(
            ModeChange::at(Instant::from_units(6), 0)
                .with_policy(ServerPolicyKind::Sporadic)
                .with_capacity(Span::from_units(2))
                .with_period(Span::from_units(8)),
        );
        assert!(full_ss.validate(exists(0), &lanes).is_ok());
    }

    #[test]
    fn period_changes_follow_the_policy_trajectory() {
        let lanes = [lane(ServerPolicyKind::Deferrable)];
        // A bare period change on a Deferrable lane is rejected...
        let bare = FaultPlan::new().mode_change(
            ModeChange::at(Instant::from_units(6), 0).with_period(Span::from_units(9)),
        );
        assert!(bare.validate(exists(0), &lanes).is_err());
        // ...but allowed after the lane swapped to Sporadic.
        let mut chained = FaultPlan::new()
            .mode_change(
                ModeChange::at(Instant::from_units(6), 0)
                    .with_policy(ServerPolicyKind::Sporadic)
                    .with_capacity(Span::from_units(2))
                    .with_period(Span::from_units(8)),
            )
            .mode_change(
                ModeChange::at(Instant::from_units(12), 0).with_period(Span::from_units(10)),
            );
        chained.normalise();
        assert!(chained.validate(exists(0), &lanes).is_ok());
    }

    #[test]
    fn mode_changes_must_be_sorted_and_meaningful() {
        let lanes = [lane(ServerPolicyKind::Deferrable)];
        let unsorted = FaultPlan::new()
            .mode_change(
                ModeChange::at(Instant::from_units(12), 0).with_capacity(Span::from_units(1)),
            )
            .mode_change(
                ModeChange::at(Instant::from_units(6), 0).with_capacity(Span::from_units(2)),
            );
        assert!(unsorted.validate(exists(0), &lanes).is_err());
        let noop = FaultPlan::new().mode_change(ModeChange::at(Instant::from_units(6), 0));
        assert!(noop.validate(exists(0), &lanes).is_err());
        let out_of_range = FaultPlan::new().mode_change(
            ModeChange::at(Instant::from_units(6), 7).with_capacity(Span::from_units(1)),
        );
        assert!(out_of_range.validate(exists(0), &lanes).is_err());
        let zero_cap = FaultPlan::new()
            .mode_change(ModeChange::at(Instant::from_units(6), 0).with_capacity(Span::ZERO));
        assert!(zero_cap.validate(exists(0), &lanes).is_err());
    }

    #[test]
    fn resulting_configurations_must_stay_well_formed() {
        let lanes = [lane(ServerPolicyKind::Deferrable)];
        // Raising the capacity of a period-6 lane beyond 6 is rejected: both
        // engines rebuild admission machinery from (capacity, period).
        let oversized = FaultPlan::new().mode_change(
            ModeChange::at(Instant::from_units(6), 0).with_capacity(Span::from_units(7)),
        );
        assert!(oversized.validate(exists(0), &lanes).is_err());
        // The trajectory is walked: shrinking the period first (via a swap to
        // Sporadic) makes a later capacity raise above it invalid too.
        let mut chained = FaultPlan::new()
            .mode_change(
                ModeChange::at(Instant::from_units(6), 0)
                    .with_policy(ServerPolicyKind::Sporadic)
                    .with_capacity(Span::from_units(2))
                    .with_period(Span::from_units(4)),
            )
            .mode_change(
                ModeChange::at(Instant::from_units(12), 0).with_capacity(Span::from_units(5)),
            );
        chained.normalise();
        assert!(chained.validate(exists(0), &lanes).is_err());
        // Background lanes have no capacity or period to change...
        let bg = [lane(ServerPolicyKind::Background)];
        let bg_cap = FaultPlan::new().mode_change(
            ModeChange::at(Instant::from_units(6), 0).with_capacity(Span::from_units(2)),
        );
        assert!(bg_cap.validate(exists(0), &bg).is_err());
        // ...but accept a swap into Sporadic carrying both explicitly.
        let bg_swap = FaultPlan::new().mode_change(
            ModeChange::at(Instant::from_units(6), 0)
                .with_policy(ServerPolicyKind::Sporadic)
                .with_capacity(Span::from_units(2))
                .with_period(Span::from_units(6)),
        );
        assert!(bg_swap.validate(exists(0), &bg).is_ok());
    }
}
