//! Static task descriptors: periodic tasks, aperiodic events, handlers and
//! aperiodic-server specifications.
//!
//! These are *specifications* (what the paper calls the task set properties,
//! Table 1), not runtime state: each engine keeps its own, and what actually
//! happened during a run lives in [`crate::trace`].

use crate::ids::{EventId, HandlerId, TaskId};
use crate::priority::Priority;
use crate::time::{Instant, Span};

/// A hard periodic task: released every `period`, executes for `cost`, must
/// finish within `deadline` of its release.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeriodicTask {
    /// Identifier, also the index of the task in the system's task table.
    pub id: TaskId,
    /// Human-readable name used in traces and temporal diagrams ("tau1").
    pub name: String,
    /// Worst-case execution time of one job.
    pub cost: Span,
    /// Release period.
    pub period: Span,
    /// Relative deadline; by default equal to the period (implicit deadline).
    pub deadline: Span,
    /// Release offset of the first job.
    pub offset: Span,
    /// Fixed priority.
    pub priority: Priority,
}

impl PeriodicTask {
    /// Creates an implicit-deadline task released at time zero.
    pub fn new(
        id: TaskId,
        name: impl Into<String>,
        cost: Span,
        period: Span,
        priority: Priority,
    ) -> Self {
        PeriodicTask {
            id,
            name: name.into(),
            cost,
            period,
            deadline: period,
            offset: Span::ZERO,
            priority,
        }
    }

    /// Sets an explicit relative deadline (constrained-deadline task).
    pub fn with_deadline(mut self, deadline: Span) -> Self {
        self.deadline = deadline;
        self
    }

    /// Processor utilisation of the task (`cost / period`).
    pub fn utilization(&self) -> f64 {
        if self.period.is_zero() {
            return f64::INFINITY;
        }
        self.cost.as_units() / self.period.as_units()
    }

    /// Absolute release instant of the `k`-th job (0-based).
    pub fn release_of(&self, k: u64) -> Instant {
        Instant::ZERO + self.offset + self.period.saturating_mul(k)
    }

    /// Absolute deadline of the `k`-th job (0-based).
    pub fn deadline_of(&self, k: u64) -> Instant {
        self.release_of(k) + self.deadline
    }

    /// True when the descriptor is well formed (non-zero period, non-zero
    /// cost, cost not larger than deadline).
    pub fn is_well_formed(&self) -> bool {
        !self.period.is_zero() && !self.cost.is_zero() && self.cost <= self.deadline
    }
}

/// One occurrence of an aperiodic event together with the handler work it
/// triggers.
///
/// The distinction between `declared_cost` and `actual_cost` is central to the
/// paper's evaluation: the framework grants a handler a time budget derived
/// from its *declared* cost, and interrupts it (via `Timed`) when its *actual*
/// execution — including the server overhead charged inside the budget —
/// exceeds that budget. Scenario 3 (Figure 4) is exactly an event whose
/// declared cost (1) is smaller than its actual cost (2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AperiodicEvent {
    /// Identifier of the event occurrence.
    pub id: EventId,
    /// Handler bound to the event.
    pub handler: HandlerId,
    /// Absolute instant at which the event fires.
    pub release: Instant,
    /// Cost announced to the server / admission test.
    pub declared_cost: Span,
    /// Execution time the handler really needs.
    pub actual_cost: Span,
    /// Optional relative deadline used by deadline-ordered service policies
    /// and by the on-line response-time equations (d_k in the paper).
    pub relative_deadline: Option<Span>,
    /// Abstract value accrued when the event completes by its deadline, used
    /// by the [`AdmissionPolicy::ValueDensity`] drop rule (the D-OVER
    /// value-density ordering) and the accrued-value metric. Defaults to the
    /// event's cost in ticks, i.e. unit value density.
    pub value: u64,
    /// Index (into [`crate::SystemSpec::servers`]) of the task server that
    /// services this event. Zero for single-server systems, which keeps the
    /// original one-server format a special case of the multi-server one.
    pub server: usize,
}

impl AperiodicEvent {
    /// Creates an event whose declared and actual cost agree.
    pub fn new(id: EventId, handler: HandlerId, release: Instant, cost: Span) -> Self {
        AperiodicEvent {
            id,
            handler,
            release,
            declared_cost: cost,
            actual_cost: cost,
            relative_deadline: None,
            value: cost.ticks(),
            server: 0,
        }
    }

    /// Declares a cost different from the actual execution time (Scenario 3).
    pub fn with_declared_cost(mut self, declared: Span) -> Self {
        self.declared_cost = declared;
        self
    }

    /// Attaches a relative deadline to the event.
    pub fn with_relative_deadline(mut self, deadline: Span) -> Self {
        self.relative_deadline = Some(deadline);
        self
    }

    /// Attaches an explicit completion value (the D-OVER value tag).
    pub fn with_value(mut self, value: u64) -> Self {
        self.value = value;
        self
    }

    /// Absolute deadline, when a relative deadline is attached.
    pub fn absolute_deadline(&self) -> Option<Instant> {
        self.relative_deadline.map(|d| self.release + d)
    }

    /// True when the handler's real demand exceeds what was declared.
    pub fn underdeclared(&self) -> bool {
        self.actual_cost > self.declared_cost
    }
}

/// The aperiodic-server policies covered by the paper and its related work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerPolicyKind {
    /// Polling Server: full capacity at each periodic activation, unused
    /// capacity is lost immediately.
    Polling,
    /// Deferrable Server: capacity is preserved across the period and
    /// replenished to full at every period boundary; the server may run at
    /// any point while it has capacity.
    Deferrable,
    /// Background servicing: aperiodics run at the lowest priority with no
    /// capacity limit (the "easiest way" baseline from §2 of the paper).
    Background,
    /// Sporadic Server (Sprunt, Sha & Lehoczky): capacity consumed while the
    /// server is active is replenished one server period after the activation
    /// that consumed it, so the server preserves its bandwidth without the
    /// Deferrable Server's back-to-back penalty on the periodic analysis.
    Sporadic,
}

impl ServerPolicyKind {
    /// Short label used in tables and Gantt charts.
    pub fn label(self) -> &'static str {
        match self {
            ServerPolicyKind::Polling => "PS",
            ServerPolicyKind::Deferrable => "DS",
            ServerPolicyKind::Background => "BG",
            ServerPolicyKind::Sporadic => "SS",
        }
    }

    /// True when the policy maintains a finite, replenished capacity.
    pub fn is_capacity_limited(self) -> bool {
        self != ServerPolicyKind::Background
    }
}

/// How a server picks the next pending release to serve.
///
/// The paper's base implementation serves its pending list FIFO, skipping
/// handlers whose declared cost does not fit the remaining capacity (§4.1).
/// [`QueueDiscipline::DeadlineOrdered`] replaces the arrival order with the
/// events' absolute deadlines, so urgent releases jump ahead — the service
/// policy deadline-driven workloads need once the system itself runs EDF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueDiscipline {
    /// FIFO with skip: the earliest release whose declared cost fits the
    /// granted budget (the paper's §4.1 rule). Default.
    #[default]
    FifoSkip,
    /// Deadline-ordered with skip: the pending release with the earliest
    /// absolute deadline whose declared cost fits the granted budget.
    /// Events without a relative deadline use their release instant as the
    /// deadline, so on deadline-free traffic this discipline degenerates to
    /// [`QueueDiscipline::FifoSkip`] exactly.
    DeadlineOrdered,
}

impl QueueDiscipline {
    /// Short label used in tables and golden names.
    pub fn label(self) -> &'static str {
        match self {
            QueueDiscipline::FifoSkip => "fifo",
            QueueDiscipline::DeadlineOrdered => "edd",
        }
    }
}

/// On-line admission policy of a task server: what the server does with an
/// aperiodic release *at its arrival instant*, before it enters the pending
/// queue (paper §7: the constant-time response-time computation "permits …
/// possibly to cancel its execution").
///
/// The decision machinery lives in the `rt-admission` crate and is shared
/// verbatim by both execution substrates, so accept/reject decisions are a
/// pure function of the arrival history and identical across engines.
///
/// Per-decision complexity (see `rt_admission::ServerAdmission`):
///
/// * [`AdmissionPolicy::AcceptAll`] — O(1), and behaviourally invisible:
///   traces are byte-identical to a system without an admission layer;
/// * [`AdmissionPolicy::DeadlinePredictive`] — amortised O(1) per arrival
///   (one incremental equation-(5) packer push; pruning completed virtual
///   entries is amortised O(1) because packed completions are monotone);
/// * [`AdmissionPolicy::ValueDensity`] — O(1) on the accept path, O(backlog)
///   per provisional drop on the overload path (a min-density scan plus a
///   repack of the surviving backlog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AdmissionPolicy {
    /// Every release is queued — the pre-admission behaviour. Default.
    #[default]
    AcceptAll,
    /// Reject a release at arrival when its predicted completion (equation
    /// (5) over the currently admitted backlog) exceeds its absolute
    /// deadline. Releases without a deadline are always accepted.
    DeadlinePredictive,
    /// D-OVER-style drop rule: a release predicted to miss its deadline may
    /// displace already-admitted (still pending) releases of strictly lower
    /// value density (`value / declared_cost`), which are aborted; when no
    /// sequence of such drops makes the newcomer feasible, the newcomer is
    /// rejected and nothing is dropped.
    ValueDensity,
}

impl AdmissionPolicy {
    /// Short label used in tables and golden names.
    pub fn label(self) -> &'static str {
        match self {
            AdmissionPolicy::AcceptAll => "accept",
            AdmissionPolicy::DeadlinePredictive => "predictive",
            AdmissionPolicy::ValueDensity => "dover",
        }
    }
}

/// Specification of the aperiodic task server of a system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerSpec {
    /// Service policy.
    pub policy: ServerPolicyKind,
    /// Capacity replenished every period (ignored for background servicing).
    pub capacity: Span,
    /// Replenishment period (ignored for background servicing).
    pub period: Span,
    /// Fixed priority of the server. The paper requires the server to be the
    /// highest-priority task of the system for the on-line analysis to hold.
    pub priority: Priority,
    /// Order in which pending releases are served (FIFO-with-skip by
    /// default, the paper's rule).
    pub discipline: QueueDiscipline,
    /// On-line admission policy applied at each release's arrival instant
    /// (accept everything by default, the pre-admission behaviour).
    /// Background servers have no admission constraint and always behave as
    /// [`AdmissionPolicy::AcceptAll`], whatever is configured here.
    pub admission: AdmissionPolicy,
}

impl ServerSpec {
    /// Creates a polling server specification.
    pub fn polling(capacity: Span, period: Span, priority: Priority) -> Self {
        ServerSpec {
            policy: ServerPolicyKind::Polling,
            capacity,
            period,
            priority,
            discipline: QueueDiscipline::FifoSkip,
            admission: AdmissionPolicy::AcceptAll,
        }
    }

    /// Creates a deferrable server specification.
    pub fn deferrable(capacity: Span, period: Span, priority: Priority) -> Self {
        ServerSpec {
            policy: ServerPolicyKind::Deferrable,
            capacity,
            period,
            priority,
            discipline: QueueDiscipline::FifoSkip,
            admission: AdmissionPolicy::AcceptAll,
        }
    }

    /// Creates a sporadic server specification.
    pub fn sporadic(capacity: Span, period: Span, priority: Priority) -> Self {
        ServerSpec {
            policy: ServerPolicyKind::Sporadic,
            capacity,
            period,
            priority,
            discipline: QueueDiscipline::FifoSkip,
            admission: AdmissionPolicy::AcceptAll,
        }
    }

    /// Creates a background-servicing specification (no capacity, lowest
    /// priority by convention).
    pub fn background(priority: Priority) -> Self {
        ServerSpec {
            policy: ServerPolicyKind::Background,
            capacity: Span::MAX,
            period: Span::MAX,
            priority,
            discipline: QueueDiscipline::FifoSkip,
            admission: AdmissionPolicy::AcceptAll,
        }
    }

    /// Replaces the queue-service discipline.
    pub fn with_discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Replaces the on-line admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Server utilisation (`capacity / period`), the quantity that enters the
    /// periodic feasibility analysis.
    pub fn utilization(&self) -> f64 {
        match self.policy {
            ServerPolicyKind::Background => 0.0,
            _ => {
                if self.period.is_zero() {
                    f64::INFINITY
                } else {
                    self.capacity.as_units() / self.period.as_units()
                }
            }
        }
    }

    /// True when the specification makes sense for its policy.
    pub fn is_well_formed(&self) -> bool {
        match self.policy {
            ServerPolicyKind::Background => true,
            _ => !self.period.is_zero() && !self.capacity.is_zero() && self.capacity <= self.period,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tau(cost: u64, period: u64) -> PeriodicTask {
        PeriodicTask::new(
            TaskId::new(0),
            "tau0",
            Span::from_units(cost),
            Span::from_units(period),
            Priority::new(20),
        )
    }

    #[test]
    fn periodic_task_releases_and_deadlines() {
        let t = PeriodicTask {
            offset: Span::from_units(1),
            ..tau(2, 6)
        };
        assert_eq!(t.release_of(0), Instant::from_units(1));
        assert_eq!(t.release_of(3), Instant::from_units(19));
        assert_eq!(t.deadline_of(0), Instant::from_units(7));
    }

    #[test]
    fn periodic_task_utilization() {
        assert!((tau(2, 6).utilization() - 1.0 / 3.0).abs() < 1e-12);
        let degenerate = PeriodicTask::new(
            TaskId::new(1),
            "bad",
            Span::from_units(1),
            Span::ZERO,
            Priority::MIN,
        );
        assert!(degenerate.utilization().is_infinite());
        assert!(!degenerate.is_well_formed());
    }

    #[test]
    fn constrained_deadline_well_formedness() {
        let t = tau(4, 10).with_deadline(Span::from_units(3));
        assert!(!t.is_well_formed(), "cost exceeds deadline");
        let t = tau(3, 10).with_deadline(Span::from_units(3));
        assert!(t.is_well_formed());
    }

    #[test]
    fn aperiodic_event_declared_vs_actual() {
        let e = AperiodicEvent::new(
            EventId::new(1),
            HandlerId::new(1),
            Instant::from_units(2),
            Span::from_units(2),
        )
        .with_declared_cost(Span::from_units(1));
        assert!(e.underdeclared());
        assert_eq!(e.declared_cost, Span::from_units(1));
        assert_eq!(e.actual_cost, Span::from_units(2));
        assert_eq!(e.absolute_deadline(), None);
        let e = e.with_relative_deadline(Span::from_units(10));
        assert_eq!(e.absolute_deadline(), Some(Instant::from_units(12)));
    }

    #[test]
    fn server_spec_utilization_and_validity() {
        let ps = ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30));
        assert!((ps.utilization() - 0.5).abs() < 1e-12);
        assert!(ps.is_well_formed());
        let too_big =
            ServerSpec::deferrable(Span::from_units(7), Span::from_units(6), Priority::new(30));
        assert!(!too_big.is_well_formed());
        let bg = ServerSpec::background(Priority::MIN);
        assert_eq!(bg.utilization(), 0.0);
        assert!(bg.is_well_formed());
    }

    #[test]
    fn policy_labels() {
        assert_eq!(ServerPolicyKind::Polling.label(), "PS");
        assert_eq!(ServerPolicyKind::Deferrable.label(), "DS");
        assert_eq!(ServerPolicyKind::Background.label(), "BG");
    }
}
