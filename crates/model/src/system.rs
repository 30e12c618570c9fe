//! Complete system specifications: the periodic task set, the aperiodic
//! server and the aperiodic traffic observed over a finite horizon.
//!
//! A [`SystemSpec`] is the common input format consumed by both worlds the
//! paper compares:
//!
//! * the **simulation** path (`rtss-sim`), which replays it under the
//!   literature-exact server policies, and
//! * the **execution** path (`rt-taskserver` + `rtsj-emu`), which instantiates
//!   the task-server framework and runs it on the virtual-time RTSJ engine.
//!
//! The random system generator (`rt-sysgen`) produces `SystemSpec` values, so
//! one generated system is guaranteed to be fed identically to both paths.

use crate::error::ModelError;
use crate::fault::{ArrivalFault, FaultPlan};
use crate::ids::{EventId, HandlerId, TaskId};
use crate::priority::{Priority, SchedulingPolicy};
use crate::task::{AperiodicEvent, PeriodicTask, ServerSpec};
use crate::time::{Instant, Span};

/// A complete real-time system over a finite observation horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// Descriptive name ("set (2,0) system 4", "table-1 example", …).
    pub name: String,
    /// The hard periodic tasks.
    pub periodic_tasks: Vec<PeriodicTask>,
    /// The aperiodic task servers, in install order. The index of a server in
    /// this table is the routing key stored in
    /// [`AperiodicEvent::server`](crate::task::AperiodicEvent::server);
    /// single-server systems are the one-element case, and
    /// [`SystemSpec::server`] keeps the original accessor shape.
    pub servers: Vec<ServerSpec>,
    /// The aperiodic traffic, sorted by release time.
    pub aperiodics: Vec<AperiodicEvent>,
    /// Observation horizon. The paper limits both simulations and executions
    /// to ten server periods.
    pub horizon: Instant,
    /// Scheduling policy the system is meant to run under (preemptive fixed
    /// priorities by default, the paper's scheduler). Both engines honour
    /// it; the static priorities are kept either way so one system can be
    /// compared across policies.
    pub scheduling: SchedulingPolicy,
    /// Deterministic fault-injection and mode-change plan (empty by
    /// default: fault-free specs are byte-identical to the pre-fault-layer
    /// behaviour in every engine).
    pub faults: FaultPlan,
}

impl SystemSpec {
    /// Starts building a system.
    pub fn builder(name: impl Into<String>) -> SystemBuilder {
        SystemBuilder::new(name)
    }

    /// The primary (first-installed) server — the only server of every
    /// pre-multi-server system, kept as the back-compat accessor.
    pub fn server(&self) -> Option<&ServerSpec> {
        self.servers.first()
    }

    /// Mutable access to the primary server.
    pub fn server_mut(&mut self) -> Option<&mut ServerSpec> {
        self.servers.first_mut()
    }

    /// The server an event is routed to, if the system has one at its index.
    pub fn server_of(&self, event: &AperiodicEvent) -> Option<&ServerSpec> {
        self.servers.get(event.server)
    }

    /// Total utilisation of the periodic tasks plus every server.
    pub fn total_utilization(&self) -> f64 {
        let periodic: f64 = self.periodic_tasks.iter().map(|t| t.utilization()).sum();
        let servers: f64 = self.servers.iter().map(|s| s.utilization()).sum();
        periodic + servers
    }

    /// Looks up a periodic task by id.
    pub fn task(&self, id: TaskId) -> Option<&PeriodicTask> {
        self.periodic_tasks.iter().find(|t| t.id == id)
    }

    /// Looks up an aperiodic event by id.
    pub fn aperiodic(&self, id: EventId) -> Option<&AperiodicEvent> {
        self.aperiodics.iter().find(|e| e.id == id)
    }

    /// Number of aperiodic events released strictly before the horizon.
    pub fn aperiodics_within_horizon(&self) -> usize {
        self.aperiodics
            .iter()
            .filter(|e| e.release < self.horizon)
            .count()
    }

    /// Checks structural validity: well-formed tasks and servers, unique ids,
    /// sorted aperiodic releases, every capacity-limited server strictly
    /// above every periodic priority — the framework's "highest priority
    /// task in the system" requirement, applied per server — every event
    /// routed to an existing server, and handler costs within the capacity
    /// of their own server (the framework's admission constraint).
    ///
    /// Equivalent to [`Self::validate_structure`] followed by
    /// [`Self::validate_workload`]; callers on a compile-cost-sensitive path
    /// (the compile layer, whose cost must not scale with traffic) run only
    /// the structural half eagerly.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.validate_structure()?;
        self.validate_workload()
    }

    /// The structural half of [`Self::validate`]: everything that does not
    /// look at the aperiodic arrival stream — well-formed tasks and servers,
    /// unique task ids, per-server priority domination, a positive horizon.
    /// O(tasks + servers) (task-id deduplication is `O(t log t)`), never
    /// O(events).
    pub fn validate_structure(&self) -> Result<(), ModelError> {
        for t in &self.periodic_tasks {
            if !t.is_well_formed() {
                return Err(ModelError::invalid(format!(
                    "periodic task {} is malformed (cost {}, period {}, deadline {})",
                    t.name, t.cost, t.period, t.deadline
                )));
            }
        }
        let mut task_ids: Vec<TaskId> = self.periodic_tasks.iter().map(|t| t.id).collect();
        task_ids.sort();
        task_ids.dedup();
        if task_ids.len() != self.periodic_tasks.len() {
            return Err(ModelError::invalid("duplicate periodic task id"));
        }
        for (index, server) in self.servers.iter().enumerate() {
            if !server.is_well_formed() {
                return Err(ModelError::invalid(format!(
                    "server {index} specification is malformed"
                )));
            }
            if server.policy.is_capacity_limited() {
                if let Some(t) = self
                    .periodic_tasks
                    .iter()
                    .find(|t| !server.priority.preempts(t.priority))
                {
                    return Err(ModelError::invalid(format!(
                        "server priority {} does not dominate periodic task {} ({})",
                        server.priority, t.name, t.priority
                    )));
                }
            }
        }
        if self.horizon == Instant::ZERO {
            return Err(ModelError::invalid("horizon must be positive"));
        }
        Ok(())
    }

    /// The workload half of [`Self::validate`]: the O(events) checks over the
    /// aperiodic arrival stream — unique event ids, release-sorted order,
    /// routing to existing servers, declared costs within the routed server's
    /// capacity, and the fault plan's cross-references.
    ///
    /// Whatever their positions, the errors come in that order: a duplicate
    /// id, then a release out of order, then the first routing or capacity
    /// error in stream order, then the fault plan's first error.
    ///
    /// Allocates nothing when the event ids strictly ascend in stream order
    /// (every spec whose events were added in release order, which includes
    /// every generated one) and the fault plan is empty.
    pub fn validate_workload(&self) -> Result<(), ModelError> {
        // Strictly ascending ids are unique and already sorted, so the
        // stream itself answers the fault plan's membership queries; any
        // other order pays for a sorted copy.
        let ascending = self.aperiodics.windows(2).all(|w| w[0].id < w[1].id);
        let mut event_ids: Vec<EventId> = Vec::new();
        if !ascending {
            event_ids.extend(self.aperiodics.iter().map(|e| e.id));
            event_ids.sort();
            event_ids.dedup();
            if event_ids.len() != self.aperiodics.len() {
                return Err(ModelError::invalid("duplicate aperiodic event id"));
            }
        }
        if self
            .aperiodics
            .windows(2)
            .any(|w| w[0].release > w[1].release)
        {
            return Err(ModelError::invalid(
                "aperiodic events must be sorted by release time",
            ));
        }
        if !self.servers.is_empty() {
            for e in &self.aperiodics {
                let Some(server) = self.servers.get(e.server) else {
                    return Err(ModelError::invalid(format!(
                        "aperiodic {} routes to server {} but the system has {}",
                        e.id,
                        e.server,
                        self.servers.len()
                    )));
                };
                if server.policy.is_capacity_limited() && e.declared_cost > server.capacity {
                    return Err(ModelError::invalid(format!(
                        "aperiodic {} declares cost {} above the server capacity {}",
                        e.id, e.declared_cost, server.capacity
                    )));
                }
            }
        }
        if self.faults.is_empty() {
            return Ok(());
        }
        let lanes: Vec<_> = self
            .servers
            .iter()
            .map(|s| (s.policy, s.capacity, s.period))
            .collect();
        let event_exists = |id: EventId| {
            if ascending {
                self.aperiodics.binary_search_by_key(&id, |e| e.id).is_ok()
            } else {
                event_ids.binary_search(&id).is_ok()
            }
        };
        self.faults.validate(event_exists, &lanes)
    }

    /// A borrowed view of the system's aperiodic workload — the arrival
    /// stream plus the fault plan that modulates it. The compile layer works
    /// through this view instead of cloning the spec, which is what keeps
    /// compilation O(tasks + servers).
    pub fn workload(&self) -> WorkloadView<'_> {
        WorkloadView {
            aperiodics: &self.aperiodics,
            faults: &self.faults,
            horizon: self.horizon,
        }
    }

    /// Resolves the plan's arrival faults into a normalised spec: jittered
    /// events move to their delayed release (their absolute deadline stays
    /// anchored to the nominal release, so the relative deadline shrinks,
    /// saturating at zero), dropped events are removed entirely, events are
    /// re-sorted by `(release, id)` and the arrival-fault list is cleared
    /// (normalisation is idempotent). Returns `None` when the plan carries
    /// no arrival faults, so fault-free paths pay nothing.
    ///
    /// Every engine entry point applies this normalisation first, which is
    /// what makes arrival faults identical across worlds by construction.
    ///
    /// One walk over the events and one over the overruns, each looking its
    /// event up in the id-sorted fault records (validation allows at most one
    /// per event): O((events + faults) · log faults).
    pub fn apply_arrival_faults(&self) -> Option<SystemSpec> {
        if !self.faults.has_arrival_faults() {
            return None;
        }
        let mut spec = self.clone();
        let mut faults = std::mem::take(&mut spec.faults.arrival_faults);
        faults.sort_unstable_by_key(ArrivalFault::event);
        let fault_of = |event| {
            faults
                .binary_search_by_key(&event, ArrivalFault::event)
                .ok()
                .map(|index| faults[index])
        };
        spec.aperiodics.retain_mut(|e| match fault_of(e.id) {
            Some(ArrivalFault::Drop { .. }) => false,
            Some(ArrivalFault::Jitter { delay, .. }) => {
                e.release += delay;
                e.relative_deadline = e.relative_deadline.map(|d| d.saturating_sub(delay));
                true
            }
            None => true,
        });
        spec.faults
            .overruns
            .retain(|o| !matches!(fault_of(o.event), Some(ArrivalFault::Drop { .. })));
        spec.aperiodics.sort_by_key(|e| (e.release, e.id));
        Some(spec)
    }
}

/// A borrowed view of a system's aperiodic workload: the (release, id)-sorted
/// arrival stream, the fault plan modulating it, and the horizon that bounds
/// observation. Produced by [`SystemSpec::workload`].
///
/// Consumers that only need to *walk* the traffic (the compile layer's
/// arrival tables, the execution plan's release schedule) take this view
/// instead of cloning event vectors, so their setup cost does not scale with
/// traffic volume.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadView<'a> {
    /// The aperiodic traffic, sorted by (release, id).
    pub aperiodics: &'a [AperiodicEvent],
    /// The deterministic fault/mode-change plan.
    pub faults: &'a FaultPlan,
    /// Observation horizon.
    pub horizon: Instant,
}

impl WorkloadView<'_> {
    /// Number of arrivals strictly before the horizon. Because the stream is
    /// release-sorted, these form a prefix of [`Self::aperiodics`].
    pub fn within_horizon_count(&self) -> usize {
        self.aperiodics
            .partition_point(|e| e.release < self.horizon)
    }

    /// The prefix of arrivals released strictly before the horizon.
    pub fn within_horizon(&self) -> &[AperiodicEvent] {
        &self.aperiodics[..self.within_horizon_count()]
    }
}

/// Incremental builder for [`SystemSpec`].
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    name: String,
    periodic_tasks: Vec<PeriodicTask>,
    servers: Vec<ServerSpec>,
    aperiodics: Vec<AperiodicEvent>,
    horizon: Option<Instant>,
    scheduling: SchedulingPolicy,
    faults: FaultPlan,
    next_task: u32,
    next_event: u32,
    next_handler: u32,
}

impl SystemBuilder {
    /// Creates an empty builder.
    pub fn new(name: impl Into<String>) -> Self {
        SystemBuilder {
            name: name.into(),
            periodic_tasks: Vec::new(),
            servers: Vec::new(),
            aperiodics: Vec::new(),
            horizon: None,
            scheduling: SchedulingPolicy::FixedPriority,
            faults: FaultPlan::default(),
            next_task: 0,
            next_event: 0,
            next_handler: 0,
        }
    }

    /// Adds a periodic task with an automatically assigned id, returning the id.
    pub fn periodic(
        &mut self,
        name: impl Into<String>,
        cost: Span,
        period: Span,
        priority: Priority,
    ) -> TaskId {
        let id = TaskId::new(self.next_task);
        self.next_task += 1;
        self.periodic_tasks
            .push(PeriodicTask::new(id, name, cost, period, priority));
        id
    }

    /// Adds an already-constructed periodic task (id must be unique).
    pub fn push_periodic(&mut self, task: PeriodicTask) -> &mut Self {
        self.next_task = self.next_task.max(task.id.raw() + 1);
        self.periodic_tasks.push(task);
        self
    }

    /// Sets the (single) aperiodic server — the back-compat builder of every
    /// pre-multi-server call site. Replaces the whole server table with the
    /// one entry, so repeated calls keep the original "last one wins"
    /// behaviour.
    pub fn server(&mut self, server: ServerSpec) -> &mut Self {
        self.servers = vec![server];
        self
    }

    /// Appends a server to the system's server table and returns its index
    /// (the routing key for [`Self::aperiodic_for`]).
    pub fn add_server(&mut self, server: ServerSpec) -> usize {
        self.servers.push(server);
        self.servers.len() - 1
    }

    /// Adds an aperiodic event occurrence whose declared and actual cost
    /// agree, routed to the primary server.
    pub fn aperiodic(&mut self, release: Instant, cost: Span) -> EventId {
        self.aperiodic_with(release, cost, cost)
    }

    /// Adds an aperiodic event occurrence routed to the server at the given
    /// index of the server table.
    pub fn aperiodic_for(&mut self, server: usize, release: Instant, cost: Span) -> EventId {
        let id = self.aperiodic_with(release, cost, cost);
        let event = self
            .aperiodics
            .last_mut()
            // rt-lint: allow(panic, reason = "aperiodic_with appended the event on the previous line")
            .expect("aperiodic_with just appended the event");
        debug_assert_eq!(event.id, id);
        event.server = server;
        id
    }

    /// Adds an aperiodic event occurrence with distinct declared/actual costs.
    pub fn aperiodic_with(&mut self, release: Instant, declared: Span, actual: Span) -> EventId {
        let id = EventId::new(self.next_event);
        let handler = HandlerId::new(self.next_handler);
        self.next_event += 1;
        self.next_handler += 1;
        self.aperiodics
            .push(AperiodicEvent::new(id, handler, release, actual).with_declared_cost(declared));
        id
    }

    /// Reserves room for `additional` more aperiodic events, so a caller that
    /// knows its event count fills the table without regrowing it.
    pub fn reserve_aperiodics(&mut self, additional: usize) -> &mut Self {
        self.aperiodics.reserve(additional);
        self
    }

    /// Mutable access to the most recently added aperiodic event, for
    /// post-processing (deadline stamping) before [`Self::build`].
    pub fn last_aperiodic_mut(&mut self) -> Option<&mut AperiodicEvent> {
        self.aperiodics.last_mut()
    }

    /// Adds an already-constructed aperiodic event.
    pub fn push_aperiodic(&mut self, event: AperiodicEvent) -> &mut Self {
        self.next_event = self.next_event.max(event.id.raw() + 1);
        self.next_handler = self.next_handler.max(event.handler.raw() + 1);
        self.aperiodics.push(event);
        self
    }

    /// Sets the observation horizon explicitly.
    pub fn horizon(&mut self, horizon: Instant) -> &mut Self {
        self.horizon = Some(horizon);
        self
    }

    /// Selects the scheduling policy the system runs under (fixed priorities
    /// by default).
    pub fn scheduling(&mut self, scheduling: SchedulingPolicy) -> &mut Self {
        self.scheduling = scheduling;
        self
    }

    /// Attaches the system's fault-injection / mode-change plan (mode
    /// changes are sorted by instant at build time).
    pub fn faults(&mut self, faults: FaultPlan) -> &mut Self {
        self.faults = faults;
        self
    }

    /// Mutable access to the fault plan under construction.
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// Sets the horizon to `n` periods of the primary server, the paper's
    /// convention. A background server's sentinel period (`Span::MAX`) is
    /// ignored — the horizon falls through to [`Self::build`]'s default
    /// instead of saturating to the end of virtual time.
    pub fn horizon_server_periods(&mut self, n: u64) -> &mut Self {
        if let Some(server) = self.servers.first() {
            if !server.period.is_zero() && server.period != Span::MAX {
                self.horizon = Some(Instant::ZERO + server.period.saturating_mul(n));
            }
        }
        self
    }

    /// Finalises and validates the system.
    pub fn build(&mut self) -> Result<SystemSpec, ModelError> {
        let mut aperiodics = std::mem::take(&mut self.aperiodics);
        aperiodics.sort_by_key(|e| (e.release, e.id));
        let horizon = self.horizon.unwrap_or_else(|| {
            // Default: ten primary-server periods, or the periodic
            // hyper-window if there is no server.
            match self.servers.first() {
                Some(s) if !s.period.is_zero() && s.period != Span::MAX => {
                    Instant::ZERO + s.period.saturating_mul(10)
                }
                _ => {
                    let longest = self
                        .periodic_tasks
                        .iter()
                        .map(|t| t.period)
                        .max()
                        .unwrap_or(Span::from_units(10));
                    Instant::ZERO + longest.saturating_mul(10)
                }
            }
        });
        let mut faults = std::mem::take(&mut self.faults);
        faults.normalise();
        let spec = SystemSpec {
            name: std::mem::take(&mut self.name),
            periodic_tasks: std::mem::take(&mut self.periodic_tasks),
            servers: std::mem::take(&mut self.servers),
            aperiodics,
            horizon,
            scheduling: self.scheduling,
            faults,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ServerPolicyKind;

    fn table1_system() -> SystemSpec {
        let mut b = SystemSpec::builder("table-1");
        b.server(ServerSpec::polling(
            Span::from_units(3),
            Span::from_units(6),
            Priority::new(30),
        ));
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
        b.aperiodic(Instant::from_units(0), Span::from_units(2));
        b.aperiodic(Instant::from_units(6), Span::from_units(2));
        b.horizon_server_periods(10);
        b.build().expect("table-1 system is valid")
    }

    #[test]
    fn builder_produces_the_paper_example() {
        let sys = table1_system();
        assert_eq!(sys.periodic_tasks.len(), 2);
        assert_eq!(sys.aperiodics.len(), 2);
        assert_eq!(sys.horizon, Instant::from_units(60));
        assert!((sys.total_utilization() - 1.0).abs() < 1e-12);
        assert!(sys.task(TaskId::new(0)).is_some());
        assert!(sys.aperiodic(EventId::new(1)).is_some());
        assert_eq!(sys.aperiodics_within_horizon(), 2);
    }

    #[test]
    fn aperiodics_are_sorted_on_build() {
        let mut b = SystemSpec::builder("unsorted");
        b.server(ServerSpec::polling(
            Span::from_units(4),
            Span::from_units(6),
            Priority::new(30),
        ));
        b.aperiodic(Instant::from_units(9), Span::from_units(1));
        b.aperiodic(Instant::from_units(3), Span::from_units(1));
        let sys = b.build().unwrap();
        assert!(sys.aperiodics[0].release <= sys.aperiodics[1].release);
    }

    #[test]
    fn arrival_faults_normalise_the_workload() {
        let mut b = SystemSpec::builder("arrival-faults");
        b.server(ServerSpec::polling(
            Span::from_units(4),
            Span::from_units(6),
            Priority::new(30),
        ));
        let ids: Vec<EventId> = (0..4)
            .map(|i| {
                let id = b.aperiodic(Instant::from_units(2 * i), Span::from_units(1));
                b.last_aperiodic_mut()
                    .expect("just added")
                    .relative_deadline = Some(Span::from_units(3));
                id
            })
            .collect();
        let (late, dropped, kept) = (ids[0], ids[1], ids[3]);
        b.faults(
            FaultPlan::new()
                .overrun(dropped, Span::from_units(1))
                .overrun(kept, Span::from_units(1))
                .jitter(late, Span::from_units(5))
                .drop_arrival(dropped),
        );
        let spec = b.build().unwrap();
        let faulted = spec
            .apply_arrival_faults()
            .expect("the plan has arrival faults");
        let stream: Vec<_> = faulted
            .aperiodics
            .iter()
            .map(|e| (e.id, e.release, e.relative_deadline))
            .collect();
        let at = Instant::from_units;
        // e0 now fires at 5, after e2 at 4; its absolute deadline stays at
        // 3, so the relative one saturates at zero. e1 is gone, and so is
        // its overrun.
        let three = Some(Span::from_units(3));
        assert_eq!(
            stream,
            vec![
                (ids[2], at(4), three),
                (late, at(5), Some(Span::ZERO)),
                (kept, at(6), three)
            ]
        );
        assert_eq!(faulted.faults.overruns.len(), 1);
        assert_eq!(faulted.faults.overruns[0].event, kept);
        assert!(faulted.faults.arrival_faults.is_empty());
        assert!(faulted.apply_arrival_faults().is_none(), "idempotent");
    }

    #[test]
    fn validation_takes_both_id_orders_and_rejects_duplicates() {
        let polling =
            || ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30));
        let event = |id: u32, release: u64| {
            AperiodicEvent::new(
                EventId::new(id),
                HandlerId::new(id),
                Instant::from_units(release),
                Span::from_units(1),
            )
        };
        // Release-sorted, but the ids descend: the sorted-copy path.
        let mut b = SystemSpec::builder("descending-ids");
        b.server(polling());
        b.push_aperiodic(event(7, 1)).push_aperiodic(event(3, 2));
        b.faults(FaultPlan::new().overrun(EventId::new(3), Span::from_units(1)));
        let spec = b.build().expect("unique ids in any order validate");
        assert!(spec.aperiodics.windows(2).any(|w| w[0].id > w[1].id));

        let mut duplicated = spec.clone();
        duplicated.aperiodics[1].id = EventId::new(7);
        let err = duplicated.validate().unwrap_err();
        assert!(err.to_string().contains("duplicate aperiodic event id"));

        // Ascending ids answer the plan's lookups from the stream itself.
        let mut b = SystemSpec::builder("ascending-ids");
        b.server(polling());
        let first = b.aperiodic(Instant::from_units(1), Span::from_units(1));
        b.aperiodic(Instant::from_units(2), Span::from_units(1));
        let mut spec = b.build().expect("builder ids ascend");
        spec.faults = FaultPlan::new().overrun(first, Span::from_units(1));
        assert!(spec.validate().is_ok());
        spec.faults = FaultPlan::new().overrun(EventId::new(5), Span::from_units(1));
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("overrun targets unknown event"));
    }

    #[test]
    fn workload_errors_come_in_a_fixed_order_whatever_their_positions() {
        // Two defects per spec, the later rule's defect placed first in the
        // stream: validation must still report the earlier rule's error.
        let event = |id: u32, release: u64, server: usize, cost: u64| {
            let mut e = AperiodicEvent::new(
                EventId::new(id),
                HandlerId::new(id),
                Instant::from_units(release),
                Span::from_units(cost),
            );
            e.server = server;
            e
        };
        let spec = |events: Vec<AperiodicEvent>, faults: FaultPlan| SystemSpec {
            name: "two-defects".into(),
            periodic_tasks: Vec::new(),
            servers: vec![ServerSpec::polling(
                Span::from_units(3),
                Span::from_units(6),
                Priority::new(30),
            )],
            aperiodics: events,
            horizon: Instant::from_units(60),
            scheduling: SchedulingPolicy::FixedPriority,
            faults,
        };
        let overrun = || FaultPlan::new().overrun(EventId::new(99), Span::from_units(1));
        let cases = [
            // Out of order at the start, a duplicate id at the end.
            (
                vec![event(0, 5, 0, 1), event(1, 2, 0, 1), event(0, 9, 0, 1)],
                FaultPlan::new(),
                "duplicate aperiodic event id",
            ),
            // A dangling route first, then a duplicate id.
            (
                vec![event(0, 1, 4, 1), event(1, 2, 0, 1), event(1, 3, 0, 1)],
                FaultPlan::new(),
                "duplicate aperiodic event id",
            ),
            // A cost above capacity first, then a release out of order.
            (
                vec![event(0, 1, 0, 5), event(1, 4, 0, 1), event(2, 3, 0, 1)],
                FaultPlan::new(),
                "must be sorted by release time",
            ),
            // A cost above capacity, then a dangling route: the first wins.
            (
                vec![event(0, 1, 0, 1), event(1, 2, 0, 5), event(2, 3, 7, 1)],
                FaultPlan::new(),
                "aperiodic e1 declares cost",
            ),
            // A dangling route, then a cost above capacity: the first wins.
            (
                vec![event(0, 1, 7, 1), event(1, 2, 0, 5)],
                FaultPlan::new(),
                "aperiodic e0 routes to server 7",
            ),
            // A fault plan naming an unknown event, then a dangling route.
            (
                vec![event(0, 1, 0, 1), event(1, 2, 2, 1)],
                overrun(),
                "routes to server 2",
            ),
            // Descending ids with a duplicate, and a fault plan error.
            (
                vec![event(3, 1, 0, 1), event(3, 2, 0, 1)],
                overrun(),
                "duplicate aperiodic event id",
            ),
        ];
        for (events, faults, expected) in cases {
            let err = spec(events, faults).validate_workload().unwrap_err();
            assert!(
                err.to_string().contains(expected),
                "expected {expected:?}, got {err}"
            );
        }
        let only_faults = spec(vec![event(0, 1, 0, 1)], overrun());
        let err = only_faults.validate_workload().unwrap_err();
        assert!(err.to_string().contains("overrun targets unknown event"));
    }

    #[test]
    fn validation_rejects_server_not_at_top_priority() {
        let mut b = SystemSpec::builder("bad-prio");
        b.server(ServerSpec::polling(
            Span::from_units(3),
            Span::from_units(6),
            Priority::new(10),
        ));
        b.periodic(
            "tau1",
            Span::from_units(2),
            Span::from_units(6),
            Priority::new(20),
        );
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("does not dominate"));
    }

    #[test]
    fn validation_rejects_cost_above_capacity() {
        let mut b = SystemSpec::builder("too-big");
        b.server(ServerSpec::polling(
            Span::from_units(3),
            Span::from_units(6),
            Priority::new(30),
        ));
        b.aperiodic(Instant::from_units(0), Span::from_units(5));
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("above the server capacity"));
    }

    #[test]
    fn background_server_accepts_any_cost() {
        let mut b = SystemSpec::builder("bg");
        b.server(ServerSpec::background(Priority::MIN));
        b.periodic(
            "tau1",
            Span::from_units(2),
            Span::from_units(6),
            Priority::new(20),
        );
        b.aperiodic(Instant::from_units(0), Span::from_units(50));
        b.horizon(Instant::from_units(100));
        let sys = b.build().unwrap();
        assert_eq!(sys.server().unwrap().policy, ServerPolicyKind::Background);
    }

    #[test]
    fn multi_server_builder_routes_events() {
        let mut b = SystemSpec::builder("multi");
        let ps = b.add_server(ServerSpec::polling(
            Span::from_units(2),
            Span::from_units(6),
            Priority::new(31),
        ));
        let ss = b.add_server(ServerSpec::sporadic(
            Span::from_units(2),
            Span::from_units(8),
            Priority::new(30),
        ));
        b.periodic(
            "tau1",
            Span::from_units(1),
            Span::from_units(6),
            Priority::new(20),
        );
        b.aperiodic_for(ps, Instant::from_units(0), Span::from_units(1));
        b.aperiodic_for(ss, Instant::from_units(3), Span::from_units(2));
        b.horizon(Instant::from_units(48));
        let sys = b.build().unwrap();
        assert_eq!(sys.servers.len(), 2);
        assert_eq!(sys.aperiodics[0].server, 0);
        assert_eq!(sys.aperiodics[1].server, 1);
        assert_eq!(
            sys.server_of(&sys.aperiodics[1]).unwrap().policy,
            ServerPolicyKind::Sporadic
        );
        // Utilisation sums every server: 2/6 + 2/8 + 1/6.
        assert!((sys.total_utilization() - (2.0 / 6.0 + 0.25 + 1.0 / 6.0)).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_dangling_server_routes() {
        let mut b = SystemSpec::builder("dangling");
        b.server(ServerSpec::polling(
            Span::from_units(3),
            Span::from_units(6),
            Priority::new(30),
        ));
        b.aperiodic_for(4, Instant::from_units(0), Span::from_units(1));
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("routes to server"));
    }

    #[test]
    fn every_capacity_limited_server_must_dominate_the_tasks() {
        let mut b = SystemSpec::builder("low-second-server");
        b.add_server(ServerSpec::polling(
            Span::from_units(3),
            Span::from_units(6),
            Priority::new(30),
        ));
        b.add_server(ServerSpec::sporadic(
            Span::from_units(1),
            Span::from_units(6),
            Priority::new(15),
        ));
        b.periodic(
            "tau1",
            Span::from_units(2),
            Span::from_units(6),
            Priority::new(20),
        );
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("does not dominate"));
    }

    #[test]
    fn default_horizon_without_server_uses_periods() {
        let mut b = SystemSpec::builder("no-server");
        b.periodic(
            "tau1",
            Span::from_units(2),
            Span::from_units(8),
            Priority::new(20),
        );
        let sys = b.build().unwrap();
        assert_eq!(sys.horizon, Instant::from_units(80));
    }

    #[test]
    fn clone_preserves_spec_and_debug_names_it() {
        let sys = table1_system();
        let cloned = sys.clone();
        assert_eq!(cloned, sys);
        assert!(format!("{cloned:?}").contains("table-1"));
    }
}
