//! Executing a complete [`SystemSpec`] on the RTSJ emulation engine.
//!
//! This is the "execution" side of the paper's methodology: the same system
//! descriptions that `rtss-sim` replays under the idealised policies are
//! instantiated here as a real task-server application — periodic real-time
//! threads for the periodic tasks, an installed task server, one servable
//! asynchronous event (fired by a one-shot timer) per aperiodic occurrence —
//! and run on the virtual-time engine with its overhead model. The result is
//! the same [`Trace`] type the simulator produces, so the metrics crate
//! treats executions and simulations identically.
//!
//! # One fast engine, one reference oracle
//!
//! [`ExecutionPlan::run`] — and therefore [`execute`] and, with a probe
//! attached, [`execute_with_probe`] — drives the server bodies through the
//! table-driven driver of [`crate::fastpath`] under both scheduling
//! policies. [`execute_reference`] loads the same install
//! ([`crate::framework`]) into the `rtsj-emu` engine, which rescans every
//! thread and timer per decision — the seed implementation, kept as the
//! reference oracle. Both loops produce byte-identical traces (pinned by the
//! goldens, the differential suites and the fuzzer).

use crate::fastpath::{self, RunScratch, SubstratePlan};
use crate::framework::{Install, InstallScratch};
use crate::handler::ServableHandler;
use crate::scratch::with_scratch;
use rt_model::{
    AperiodicOutcome, EventId, ExecUnit, Instant, ModelError, OverrunTable, PeriodicJobRecord,
    PeriodicTask, SchedulingPolicy, Span, SystemSpec, Trace,
};
use rt_observe::{NoopProbe, Probe};
use rtsj_emu::{Engine, EngineConfig, EventHandle, OverheadModel};
use std::borrow::Cow;

/// Configuration of an execution run: the runtime overhead model. The
/// scheduling policy, the queue discipline and the admission policy are the
/// executed system's own ([`SystemSpec::scheduling`] and each
/// [`rt_model::ServerSpec`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionConfig {
    /// Runtime overhead model.
    pub overhead: OverheadModel,
}

impl ExecutionConfig {
    /// The configuration used for the paper's tables: reference overheads.
    pub fn reference() -> Self {
        ExecutionConfig {
            overhead: OverheadModel::reference(),
        }
    }

    /// An idealised configuration (no overhead): used for the scenario
    /// figures and for differential tests against the simulator.
    pub fn ideal() -> Self {
        ExecutionConfig {
            overhead: OverheadModel::none(),
        }
    }

    /// Replaces the overhead model.
    pub fn with_overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        Self::reference()
    }
}

/// Executes the system through the table-driven execution driver and
/// returns its trace.
///
/// ```
/// use rt_model::{Instant, Priority, ServerSpec, Span, SystemSpec};
/// use rt_taskserver::{execute, ExecutionConfig};
///
/// let mut b = SystemSpec::builder("doc");
/// b.server(ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30)));
/// b.periodic("tau1", Span::from_units(2), Span::from_units(6), Priority::new(20));
/// b.aperiodic(Instant::from_units(0), Span::from_units(2));
/// b.horizon_server_periods(4);
/// let trace = execute(&b.build().unwrap(), &ExecutionConfig::ideal());
/// assert!(trace.outcomes[0].is_served());
/// ```
///
/// # Panics
/// Panics when the specification fails validation.
pub fn execute(spec: &SystemSpec, config: &ExecutionConfig) -> Trace {
    spec.validate()
        // rt-lint: allow(panic, reason = "documented '# Panics' contract: the convenience entry point fails loudly on invalid specs")
        .expect("execute() requires a valid system specification");
    execute_validated(spec, config, NoopProbe)
}

/// [`execute`] with an observation probe attached — the execution-world
/// entry of the `rt-observe` layer. The trace is byte-identical to the
/// probe-free [`execute`]; pass `&mut probe` to keep the recording (the
/// blanket `&mut P: Probe` impl forwards every hook).
///
/// Every hook is reported live: the decision loop's (decisions, dispatches,
/// preemptions, slices, releases, fires) and the lanes' admission verdicts,
/// capacity exhaustions and mode changes, which the run's world
/// (`ExecWorld`, see [`crate::framework`]) reports where they are decided.
///
/// # Panics
/// Panics when the specification fails validation.
pub fn execute_with_probe<P: Probe>(
    spec: &SystemSpec,
    config: &ExecutionConfig,
    probe: P,
) -> Trace {
    spec.validate()
        // rt-lint: allow(panic, reason = "documented '# Panics' contract: the convenience entry point fails loudly on invalid specs")
        .expect("execute_with_probe() requires a valid system specification");
    execute_validated(spec, config, probe)
}

/// Prepares the plan of a validated spec and runs it with `probe`, with
/// the plan's tables built in the buffers of the thread's scratch
/// ([`crate::scratch`]) rather than allocated, so the run allocates only
/// its trace.
fn execute_validated<P: Probe>(spec: &SystemSpec, config: &ExecutionConfig, probe: P) -> Trace {
    with_scratch(|scratch| {
        let events = std::mem::take(&mut scratch.events);
        let substrate = std::mem::take(&mut scratch.substrate);
        let plan = ExecutionPlan::plan(spec, config, events, substrate);
        let trace = plan.run_in(probe, &mut scratch.run);
        let ExecutionPlan {
            mut events,
            substrate,
            ..
        } = plan;
        events.clear();
        scratch.events = events;
        scratch.substrate = substrate.cleared();
        trace
    })
}

/// Executes the system with the seed's linear-scan decision loop: the
/// framework installed on the `rtsj-emu` engine, which rescans every thread
/// and timer per decision (O(t + m)) and carries no probe.
///
/// Produces byte-identical traces to [`execute`]; kept as the reference
/// oracle for the differential tests, the goldens and the `engine_scaling`
/// benchmark, like `rtss_sim::simulate_reference` in the simulation world.
///
/// # Panics
/// Panics when the specification fails validation.
pub fn execute_reference(spec: &SystemSpec, config: &ExecutionConfig) -> Trace {
    ExecutionPlan::prepare(spec, config)
        // rt-lint: allow(panic, reason = "documented '# Panics' contract: the convenience entry point fails loudly on invalid specs")
        .expect("execute_reference() requires a valid system specification")
        .run_reference()
}

/// One aperiodic occurrence as the engine installs it: the routed server
/// index, the handler template and the fire instant, precomputed so a run
/// does not re-derive them from the spec. Fully `Copy`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlannedEvent {
    pub(crate) server: usize,
    pub(crate) event: EventId,
    pub(crate) handler: ServableHandler,
    pub(crate) release: Instant,
}

/// The compiled schedulable table of one system × configuration: everything
/// [`execute`] derives from the spec before the driver starts — validation,
/// the servable handler templates of the
/// events that actually install (released within the horizon, routed to an
/// existing server) and the driver's scheduling substrate — computed once in
/// [`ExecutionPlan::prepare`] and replayed by [`ExecutionPlan::run`] as many
/// times as needed. [`execute`] is `prepare().run()`, so planned and direct
/// executions are byte-identical by construction.
///
/// The plan borrows the spec it was prepared from (`Cow`): a fault-free spec
/// is never cloned, and preparing allocates the planned-event table and
/// the substrate but nothing per event. A run allocates only its trace
/// once the thread has run a system (see the crate's per-run cost model).
#[derive(Debug, Clone)]
pub struct ExecutionPlan<'a> {
    pub(crate) spec: Cow<'a, SystemSpec>,
    pub(crate) config: ExecutionConfig,
    pub(crate) events: Vec<PlannedEvent>,
    pub(crate) substrate: SubstratePlan,
}

impl<'a> ExecutionPlan<'a> {
    /// Validates the spec and freezes the installation plan.
    ///
    /// # Errors
    /// Returns the [`ModelError`] of [`SystemSpec::validate`] when the spec
    /// is not well formed.
    pub fn prepare(spec: &'a SystemSpec, config: &ExecutionConfig) -> Result<Self, ModelError> {
        spec.validate()?;
        Ok(Self::plan(
            spec,
            config,
            Vec::new(),
            SubstratePlan::default(),
        ))
    }

    /// Freezes the installation plan of a valid spec into the buffers of
    /// `events` and `substrate`.
    fn plan(
        spec: &'a SystemSpec,
        config: &ExecutionConfig,
        mut events: Vec<PlannedEvent>,
        substrate: SubstratePlan,
    ) -> Self {
        // Arrival faults (release jitter, dropped arrivals) are a pure spec
        // normalization: the plan is frozen over the faulted arrival stream,
        // so the engine below never sees them. Fault-free specs stay borrowed.
        let spec = match spec.apply_arrival_faults() {
            Some(faulted) => Cow::Owned(faulted),
            None => Cow::Borrowed(spec),
        };
        let overruns = OverrunTable::new(&spec.faults);
        let workload = spec.workload();
        let in_horizon = workload.within_horizon();
        // Sized for the whole in-horizon stream: exact unless some event
        // routes past the installed lanes.
        events.clear();
        events.reserve(in_horizon.len());
        events.extend(
            in_horizon
                .iter()
                .filter(|event| event.server < spec.servers.len())
                .map(|event| PlannedEvent {
                    server: event.server,
                    event: event.id,
                    handler: ServableHandler {
                        id: event.handler,
                        declared_cost: event.declared_cost,
                        actual_cost: event.actual_cost,
                        relative_deadline: event.relative_deadline,
                        value: event.value,
                        overrun_extra: overruns.extra(event.id),
                    },
                    release: event.release,
                }),
        );
        ExecutionPlan {
            substrate: SubstratePlan::analyze(&spec, substrate),
            spec,
            config: *config,
            events,
        }
    }

    /// The validated system this plan executes.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// The configuration the plan was prepared for.
    pub fn config(&self) -> &ExecutionConfig {
        &self.config
    }

    /// Runs the plan through the execution driver and returns its trace.
    /// Reusable: the plan holds no run state, and the run's working buffers
    /// are the thread's.
    pub fn run(&self) -> Trace {
        with_scratch(|scratch| self.run_in(NoopProbe, &mut scratch.run))
    }

    /// Runs the plan with an observation probe attached (see
    /// [`execute_with_probe`]) and the working buffers of `scratch`. Every
    /// hook site is gated on [`Probe::ENABLED`], so the trace is
    /// byte-identical to the probe-free run.
    fn run_in<P: Probe>(&self, probe: P, scratch: &mut RunScratch) -> Trace {
        match self.spec.scheduling {
            SchedulingPolicy::FixedPriority => fastpath::run::<P, false>(self, probe, scratch),
            SchedulingPolicy::Edf => fastpath::run::<P, true>(self, probe, scratch),
        }
    }

    /// Runs the plan on the linear-scan `rtsj-emu` engine (see
    /// [`execute_reference`]): the install loaded into the engine, whose
    /// world it becomes, with the periodic tasks and one fire timer per
    /// planned release.
    pub(crate) fn run_reference(&self) -> Trace {
        let spec = &self.spec;
        let Install {
            world,
            servers,
            timers,
            sae_base,
        } = Install::new(
            spec,
            &self.config,
            &self.events,
            NoopProbe,
            &mut InstallScratch::default(),
        );
        let events = world.kinds.len();
        let mut engine = Engine::with_world(
            EngineConfig::new(spec.horizon)
                .with_overhead(self.config.overhead)
                .with_policy(spec.scheduling),
            world,
        );
        for _ in 0..events {
            engine.create_event();
        }

        // The server threads, in lane order, ahead of the periodic tasks.
        for (server, thread) in spec.servers.iter().zip(servers) {
            let handle = match thread.period {
                Some(period) => engine.spawn_periodic(
                    server.priority,
                    Instant::ZERO,
                    period,
                    Box::new(thread.body),
                ),
                None => engine.spawn(server.priority, Box::new(thread.body)),
            };
            engine.set_thread_deadline(handle, thread.deadline);
        }
        for timer in timers {
            let event = EventHandle::from_raw(timer.event);
            match timer.period {
                Some(period) => engine.add_periodic_timer(timer.next, period, event),
                None => engine.add_one_shot_timer(timer.next, event),
            }
        }

        // The periodic tasks, as periodic real-time threads whose bodies
        // live inline in the engine's thread table (no per-spawn boxing).
        for task in &spec.periodic_tasks {
            let thread = engine.spawn_periodic_worker(
                task.priority,
                Instant::ZERO + task.offset,
                task.period,
                task.cost,
                ExecUnit::Task(task.id),
            );
            if task.deadline != task.period {
                // Constrained deadlines re-key the EDF dispatcher; under
                // fixed priorities the value is stored but unused.
                engine.set_relative_deadline(thread, task.deadline);
            }
        }

        // The servable events' fire timers, after every install-time timer,
        // one per planned release.
        for (index, planned) in self.events.iter().enumerate() {
            engine.add_one_shot_timer(planned.release, EventHandle::from_raw(sae_base + index));
        }

        let (mut trace, world) = engine.run_with_world();
        let outcomes = world.into_outcomes(&mut InstallScratch::default());
        finalise_trace(spec, outcomes, &mut trace, &mut FinaliseScratch::default());
        trace
    }
}

/// Finalisation's buffers: per-task segment counts and the segments
/// bucketed by task, kept empty between the runs of one thread
/// ([`crate::scratch`]).
#[derive(Debug, Default)]
pub(crate) struct FinaliseScratch {
    counts: Vec<usize>,
    spans: Vec<(Instant, Instant)>,
}

/// Shared post-run finalisation of an execution trace, used by both the
/// driver and the reference engine: attach the run's outcome slot table
/// (one record per planned release, see [`crate::framework`]) in
/// `(release, event)` order, and reconstruct the periodic job records from
/// the execution segments, bucketing them in the buffers of `scratch`.
///
/// Slot order is plan order, the stream order that `build()` makes
/// `(release, id)` order, so the sort is one linear pass over a sorted run
/// unless a record moved: a record may carry the instant its release's
/// fire was *observed*, which a timer-overhead slice may have delayed past
/// a later event's spec release, and a spec edited after `build()` may
/// carry descending ids at one release.
pub(crate) fn finalise_trace(
    spec: &SystemSpec,
    mut outcomes: Vec<AperiodicOutcome>,
    trace: &mut Trace,
    scratch: &mut FinaliseScratch,
) {
    // The ids are distinct, so `(release, event)` keys are too and the
    // unstable sort orders exactly like a stable one.
    outcomes.sort_unstable_by_key(|o| (o.release, o.event));
    trace.outcomes = outcomes;

    // One reservation for all records: the job count is computable from the
    // spec, so the record vector never grows incrementally (part of the
    // horizon-independent allocation discipline the zero-allocation
    // regression test in `rt-bench` pins).
    let job_total: usize = spec
        .periodic_tasks
        .iter()
        .map(|task| jobs_within(task, spec.horizon))
        .sum();
    trace.periodic_jobs.reserve(job_total);
    if spec.periodic_tasks.is_empty() {
        debug_assert!(trace.check_invariants().is_ok());
        return;
    }
    // Bucket the execution segments by task (a counting sort) in two passes
    // over the trace rather than one filtered scan per task: O(segments +
    // tasks) instead of O(tasks × segments), which otherwise dominates
    // post-run cost for large task sets. After the fill, `counts[i]` is
    // where task `i`'s bucket ends and task `i + 1`'s starts.
    let slots = spec
        .periodic_tasks
        .iter()
        .map(|task| task.id.index() + 1)
        .max()
        .unwrap_or(0);
    let FinaliseScratch { counts, spans } = scratch;
    counts.resize(slots + 1, 0);
    for segment in &trace.segments {
        if let ExecUnit::Task(id) = segment.unit {
            counts[id.index() + 1] += 1;
        }
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    spans.resize(counts[slots], (Instant::ZERO, Instant::ZERO));
    for segment in &trace.segments {
        if let ExecUnit::Task(id) = segment.unit {
            spans[counts[id.index()]] = (segment.start, segment.end);
            counts[id.index()] += 1;
        }
    }
    for task in &spec.periodic_tasks {
        let index = task.id.index();
        let start = if index == 0 { 0 } else { counts[index - 1] };
        reconstruct_periodic_records(
            &spans[start..counts[index]],
            task,
            spec.horizon,
            &mut trace.periodic_jobs,
        );
    }
    counts.clear();
    spans.clear();

    debug_assert!(trace.check_invariants().is_ok());
}

/// Number of releases of `task` strictly before `horizon`.
fn jobs_within(task: &PeriodicTask, horizon: Instant) -> usize {
    let first = task.release_of(0);
    if first >= horizon {
        return 0;
    }
    let window = horizon.since(first).ticks();
    (1 + (window - 1) / task.period.ticks()) as usize
}

/// Appends the periodic job records of one task, rebuilt from its trace
/// segments, to `records`: the k-th job completes when the task has
/// accumulated `(k+1) · cost` of processor time.
fn reconstruct_periodic_records(
    segments: &[(Instant, Instant)],
    task: &PeriodicTask,
    horizon: Instant,
    records: &mut Vec<PeriodicJobRecord>,
) {
    let mut segment_index = 0usize;
    // Processor time of the current segment already attributed to earlier jobs.
    let mut consumed_in_segment = Span::ZERO;
    let mut activation = 0u64;
    loop {
        let release = task.release_of(activation);
        if release >= horizon {
            break;
        }
        let mut needed = task.cost;
        let mut completed = None;
        while !needed.is_zero() {
            let Some(&(start, end)) = segments.get(segment_index) else {
                break;
            };
            let available = end.since(start).minus(consumed_in_segment);
            if available <= needed {
                needed = needed.minus(available);
                segment_index += 1;
                consumed_in_segment = Span::ZERO;
                if needed.is_zero() {
                    completed = Some(end);
                }
            } else {
                consumed_in_segment += needed;
                completed = Some(start + consumed_in_segment);
                needed = Span::ZERO;
            }
        }
        records.push(PeriodicJobRecord {
            task: task.id,
            activation,
            release,
            deadline: task.deadline_of(activation),
            completed,
        });
        activation += 1;
        if completed.is_none() {
            // Later jobs cannot have completed either: record them as
            // incomplete and stop.
            while task.release_of(activation) < horizon {
                records.push(PeriodicJobRecord {
                    task: task.id,
                    activation,
                    release: task.release_of(activation),
                    deadline: task.deadline_of(activation),
                    completed: None,
                });
                activation += 1;
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_model::{AperiodicFate, Priority, ServerPolicyKind, ServerSpec, SystemSpec};

    fn table1(policy: ServerPolicyKind, capacity: u64, events: &[(u64, u64)]) -> SystemSpec {
        let mut b = SystemSpec::builder("table-1");
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
        for &(release, cost) in events {
            b.aperiodic(Instant::from_units(release), Span::from_units(cost));
        }
        b.horizon_server_periods(10);
        b.build().unwrap()
    }

    #[test]
    fn execution_produces_outcomes_for_every_released_event() {
        let spec = table1(ServerPolicyKind::Polling, 3, &[(0, 2), (6, 2), (40, 3)]);
        let trace = execute(&spec, &ExecutionConfig::ideal());
        assert_eq!(trace.outcomes.len(), 3);
        assert!(trace.outcomes.iter().all(|o| o.is_served()));
        assert!(trace.check_invariants().is_ok());
    }

    /// A deferrable server (capacity 4, period 6) alone, with cost-1 events
    /// released at the given ticks.
    fn ds_events(releases: &[u64], horizon: u64) -> SystemSpec {
        let mut b = SystemSpec::builder("slot-table");
        b.server(ServerSpec::deferrable(
            Span::from_units(4),
            Span::from_units(6),
            Priority::new(30),
        ));
        for &at in releases {
            b.aperiodic(Instant::from_ticks(at), Span::from_units(1));
        }
        b.horizon(Instant::from_ticks(horizon));
        b.build().unwrap()
    }

    #[test]
    fn only_a_release_still_queued_at_the_horizon_reports_its_observed_release() {
        // Under the reference overheads e0's fire at 10 000 costs a 20-tick
        // slice, so e1 (10 010) and e2 (10 015) fire at 10 020. e0 is
        // served; the horizon cuts e1 in service, and e1 reports its spec
        // release; e2 is still queued and reports the instant its fire was
        // observed at.
        let spec = ds_events(&[10_000, 10_010, 10_015], 11_500);
        let config = ExecutionConfig::reference();
        for trace in [execute(&spec, &config), execute_reference(&spec, &config)] {
            let reported: Vec<(u32, u64, AperiodicFate)> = trace
                .outcomes
                .iter()
                .map(|o| (o.event.raw(), o.release.ticks(), o.fate))
                .collect();
            let served = AperiodicFate::Served {
                started: Instant::from_ticks(10_160),
                completed: Instant::from_ticks(11_160),
            };
            assert_eq!(
                reported,
                [
                    (0, 10_000, served),
                    (1, 10_010, AperiodicFate::Unserved),
                    (2, 10_020, AperiodicFate::Unserved),
                ]
            );
            let e1 = trace.segments_of(ExecUnit::Handler(EventId::new(1))).last();
            assert_eq!(e1.map(|s| s.end), Some(spec.horizon), "e1 is in service");
        }
    }

    #[test]
    fn releases_fired_together_report_in_id_order_whatever_their_service_order() {
        // e0's 20-tick fire slice makes the releases at 1 005 and 1 010 fire
        // together at 1 020. Their ids descend (an edit after `build()` that
        // validation accepts), so the earlier one, e9, is served first, but
        // both report 1 020 and only the final sort puts e8 first.
        let mut spec = ds_events(&[1_000, 1_005, 1_010], 12_000);
        spec.aperiodics[1].id = EventId::new(9);
        spec.aperiodics[2].id = EventId::new(8);
        spec.validate().expect("release-sorted with unique ids");
        let config = ExecutionConfig::reference();
        for trace in [execute(&spec, &config), execute_reference(&spec, &config)] {
            let reported: Vec<(u32, u64)> = trace
                .outcomes
                .iter()
                .map(|o| (o.event.raw(), o.release.ticks()))
                .collect();
            assert_eq!(reported, [(0, 1_000), (8, 1_020), (9, 1_020)]);
            let started = |i: usize| match trace.outcomes[i].fate {
                AperiodicFate::Served { started, .. } => started,
                ref other => panic!("expected served, got {other:?}"),
            };
            assert!(started(2) < started(1), "e9 is served before e8");
        }
    }

    #[test]
    fn execution_matches_simulation_for_scenario_1() {
        // When every handler fits in the capacity at its activation, the
        // implementation and the textbook policy coincide; compare against
        // the simulator.
        let spec = table1(ServerPolicyKind::Polling, 3, &[(0, 2), (6, 2)]);
        let executed = execute(&spec, &ExecutionConfig::ideal());
        let simulated = rtss_sim_simulate(&spec);
        let exec_responses: Vec<_> = executed
            .outcomes
            .iter()
            .map(|o| o.response_time())
            .collect();
        let sim_responses: Vec<_> = simulated
            .outcomes
            .iter()
            .map(|o| o.response_time())
            .collect();
        assert_eq!(exec_responses, sim_responses);
    }

    /// Minimal local re-implementation shim so this crate's tests do not
    /// depend on `rtss-sim` (which would create a dev-dependency cycle with
    /// the workspace layering); the integration tests at the workspace root
    /// compare against the real simulator.
    fn rtss_sim_simulate(spec: &SystemSpec) -> Trace {
        // Scenario 1 is simple enough to compute by hand: both events are
        // served immediately at their release for 2 time units.
        let mut trace = Trace::new(spec.horizon);
        for event in &spec.aperiodics {
            trace.push_outcome(AperiodicOutcome {
                event: event.id,
                release: event.release,
                declared_cost: event.declared_cost,
                value: event.value,
                deadline: event.absolute_deadline(),
                fate: AperiodicFate::Served {
                    started: event.release,
                    completed: event.release + event.actual_cost,
                },
            });
        }
        trace
    }

    #[test]
    fn periodic_records_are_reconstructed() {
        let spec = table1(ServerPolicyKind::Polling, 3, &[(0, 2)]);
        let trace = execute(&spec, &ExecutionConfig::ideal());
        // 10 jobs per task over 10 periods.
        assert_eq!(trace.periodic_jobs.len(), 20);
        assert!(trace.all_periodic_deadlines_met());
        // tau1's first job runs after the server: released 0, completed 4.
        let tau1_first = trace
            .periodic_jobs
            .iter()
            .find(|j| j.task == spec.periodic_tasks[0].id && j.activation == 0)
            .unwrap();
        assert_eq!(tau1_first.completed, Some(Instant::from_units(4)));
    }

    #[test]
    fn overheads_reduce_the_served_ratio() {
        // Heavy traffic: with reference overheads strictly fewer events
        // complete than with the ideal runtime.
        let events: Vec<(u64, u64)> = (0..25).map(|i| (i * 2, 3)).collect();
        let spec = table1(ServerPolicyKind::Polling, 4, &events);
        let ideal = execute(&spec, &ExecutionConfig::ideal());
        let real = execute(&spec, &ExecutionConfig::reference());
        let served = |t: &Trace| t.outcomes.iter().filter(|o| o.is_served()).count();
        assert!(served(&real) <= served(&ideal));
        assert!(real.overhead_time() > Span::ZERO);
        assert_eq!(ideal.overhead_time(), Span::ZERO);
    }

    #[test]
    fn deferrable_execution_served_ratio_not_lower_than_polling() {
        let events: Vec<(u64, u64)> = (0..12).map(|i| (i * 4 + 1, 2)).collect();
        let ps_spec = table1(ServerPolicyKind::Polling, 3, &events);
        let ds_spec = table1(ServerPolicyKind::Deferrable, 3, &events);
        let ps = execute(&ps_spec, &ExecutionConfig::reference());
        let ds = execute(&ds_spec, &ExecutionConfig::reference());
        let served = |t: &Trace| t.outcomes.iter().filter(|o| o.is_served()).count();
        assert!(served(&ds) >= served(&ps));
    }

    #[test]
    fn systems_without_servers_run_their_periodic_tasks_only() {
        let mut b = SystemSpec::builder("no-server");
        b.periodic(
            "tau",
            Span::from_units(2),
            Span::from_units(5),
            Priority::new(10),
        );
        b.horizon(Instant::from_units(20));
        let spec = b.build().unwrap();
        let trace = execute(&spec, &ExecutionConfig::ideal());
        assert!(trace.outcomes.is_empty());
        assert_eq!(trace.periodic_jobs.len(), 4);
        assert!(trace.all_periodic_deadlines_met());
    }

    #[test]
    fn execution_is_deterministic() {
        let events: Vec<(u64, u64)> = (0..10).map(|i| (i * 3 + 1, 2)).collect();
        let spec = table1(ServerPolicyKind::Deferrable, 3, &events);
        let a = execute(&spec, &ExecutionConfig::reference());
        let b = execute(&spec, &ExecutionConfig::reference());
        assert_eq!(a, b);
    }

    #[test]
    fn overrun_injected_event_is_aborted_at_its_declared_cost() {
        // e0 declares 2 but a fault injects 2 extra units of demand. The
        // declared cost becomes a hard service cap: the handler runs 0..2 and
        // is cut off with the first-class `Aborted` fate (not `Interrupted`,
        // which is reserved for capacity-bound cutoffs of honest releases).
        let mut spec = table1(ServerPolicyKind::Polling, 3, &[(0, 2)]);
        spec.faults =
            rt_model::FaultPlan::new().overrun(spec.aperiodics[0].id, Span::from_units(2));
        let trace = execute(&spec, &ExecutionConfig::ideal());
        assert_eq!(trace.outcomes.len(), 1);
        match trace.outcomes[0].fate {
            AperiodicFate::Aborted { at } => assert_eq!(at, Instant::from_units(2)),
            ref other => panic!("expected an enforcement abort, got {other:?}"),
        }
        let segments: Vec<_> = trace
            .segments_of(ExecUnit::Handler(spec.aperiodics[0].id))
            .map(|s| (s.start, s.end))
            .collect();
        assert_eq!(
            segments,
            vec![(Instant::from_units(0), Instant::from_units(2))]
        );
    }

    #[test]
    fn arrival_faults_shift_and_drop_releases_before_the_engine_runs() {
        let mut spec = table1(ServerPolicyKind::Polling, 3, &[(0, 2), (6, 2)]);
        spec.faults = rt_model::FaultPlan::new()
            .jitter(spec.aperiodics[0].id, Span::from_units(6))
            .drop_arrival(spec.aperiodics[1].id);
        let trace = execute(&spec, &ExecutionConfig::ideal());
        // The dropped arrival never reaches the engine; the jittered one is
        // released — and served — at its shifted instant.
        assert_eq!(trace.outcomes.len(), 1);
        assert_eq!(trace.outcomes[0].release, Instant::from_units(6));
        assert!(trace.outcomes[0].is_served());
    }

    #[test]
    fn capacity_mode_change_waits_for_quiescence_and_caps_the_refill() {
        // DS capacity 3: e0 (cost 3) is in service 0..3 when the change at 1
        // (capacity → 1) comes due, so it applies at the completion decision
        // instant. e1 (cost 1, released 4) then has to wait for the period-6
        // replenishment, which refills to the *new* capacity only.
        let mut spec = table1(ServerPolicyKind::Deferrable, 3, &[(0, 3), (4, 1)]);
        spec.faults = rt_model::FaultPlan::new().mode_change(
            rt_model::ModeChange::at(Instant::from_units(1), 0).with_capacity(Span::from_units(1)),
        );
        let trace = execute(&spec, &ExecutionConfig::ideal());
        let started = |i: usize| match trace.outcomes[i].fate {
            AperiodicFate::Served { started, .. } => started,
            ref other => panic!("expected served, got {other:?}"),
        };
        assert_eq!(started(0), Instant::from_units(0));
        assert_eq!(started(1), Instant::from_units(6));
    }

    #[test]
    fn policy_swap_to_background_lifts_the_capacity_cap() {
        // e0 exhausts the DS capacity at 0..2, so e1 (released 3) would wait
        // for the period-6 replenishment. The scheduled swap to Background at
        // 4 removes the budget entirely: the lane wakes on the one-shot
        // mode-change timer and serves the backlog 4..6 instead.
        let mut spec = table1(ServerPolicyKind::Deferrable, 2, &[(0, 2), (3, 2)]);
        spec.faults = rt_model::FaultPlan::new().mode_change(
            rt_model::ModeChange::at(Instant::from_units(4), 0)
                .with_policy(ServerPolicyKind::Background),
        );
        let trace = execute(&spec, &ExecutionConfig::ideal());
        assert_eq!(trace.outcomes.len(), 2);
        match trace.outcomes[1].fate {
            AperiodicFate::Served { started, completed } => {
                assert_eq!(started, Instant::from_units(4));
                assert_eq!(completed, Instant::from_units(6));
            }
            ref other => panic!("expected served after the swap, got {other:?}"),
        }
    }

    #[test]
    fn background_spec_is_executed_at_low_priority() {
        let mut b = SystemSpec::builder("bg");
        b.server(ServerSpec::background(Priority::new(1)));
        b.periodic(
            "tau1",
            Span::from_units(2),
            Span::from_units(6),
            Priority::new(20),
        );
        b.aperiodic(Instant::from_units(0), Span::from_units(2));
        b.horizon(Instant::from_units(30));
        let spec = b.build().unwrap();
        let trace = execute(&spec, &ExecutionConfig::ideal());
        assert_eq!(trace.outcomes.len(), 1);
        // Served only after tau1's first job (0..2): response 4.
        assert_eq!(trace.outcomes[0].response_time(), Some(Span::from_units(4)));
    }
}
