//! The RTSS discrete-event simulation engine for preemptive systems with
//! aperiodic task servers — fixed-priority by default, EDF when the
//! simulated [`SystemSpec::scheduling`] says so.
//!
//! The engine advances from decision point to decision point (periodic
//! release, aperiodic arrival, server replenishment, job completion,
//! capacity exhaustion, horizon) instead of ticking a quantum, so simulation
//! time is exact and the cost of a run is proportional to the number of
//! scheduling decisions, not to the length of the horizon.
//!
//! The simulated policies are the literature-exact ones ("this is not a
//! simulation of our implementations", paper §5): handlers are resumable,
//! there is no server overhead and no timer overhead, so the interrupted
//! ratio of a simulation is always zero.
//!
//! # One fast engine, one reference oracle
//!
//! * [`simulate`] and [`simulate_with_probe`] validate the spec once, freeze
//!   it into dispatch tables (`crate::tables`, O(tasks + servers)) and run
//!   the specialized driver (`crate::driver`): monomorphized lane policies,
//!   a ready bitmap, a release wheel per rate group and same-instant
//!   batching, with zero heap allocations per decision.
//! * [`simulate_reference`] runs the seed's linear-scan loop kept in this
//!   module: every periodic task is rescanned at every decision (O(t)) and
//!   every dispatch serves one slice of one job. It carries no probe. It is
//!   the deliberately simple oracle the driver is pinned against
//!   byte-for-byte (the differential suites, the goldens and the seeded
//!   fuzzer) and the baseline of the `engine_scaling` benchmark.
//!
//! Both share the rules below; the server capacity machines of the
//! reference are [`crate::server`]'s policy states, an implementation
//! independent of the driver's.
//!
//! # Multi-server systems
//!
//! The engine runs every server of [`SystemSpec::servers`] concurrently:
//! each server owns a *lane* (its capacity machine plus its own pending
//! queue), arrivals are routed by [`rt_model::AperiodicEvent::server`], and
//! the dispatcher picks among ready lanes and tasks by priority with the
//! seed's tie-breaks (servers before equal-priority tasks, earlier install
//! index before later). Arrivals routed to a missing server are orphans,
//! reported unserved at the horizon.
//!
//! # Scheduling policy and service discipline
//!
//! [`SystemSpec::scheduling`] selects the dispatcher: under
//! [`SchedulingPolicy::Edf`] tasks are ranked by their front job's absolute
//! deadline (release + relative deadline) and server lanes by their
//! *replenishment-derived deadlines*
//! ([`crate::server::ServerState::edf_deadline`]); ties go to servers
//! before tasks and to the earlier index, exactly the fixed-priority
//! tie-break. Within a lane, [`rt_model::QueueDiscipline`] picks the job:
//! FIFO (the textbook order — resumable servers never need the
//! implementation's cost skip) or earliest-deadline-first over the events'
//! absolute deadlines (an O(backlog) sweep per dispatch; lanes are short in
//! the simulated workloads, the execution engine's indexed `PendingQueue`
//! is the scalable structure).
//!
//! # On-line admission
//!
//! Each lane embeds the `rt-admission` decision machine
//! ([`rt_admission::ServerAdmission`]) its [`rt_model::ServerSpec`]
//! configures: arrivals are classified accept / reject / abort *before*
//! they enter the lane queue, rejected events become
//! [`rt_model::AperiodicFate::Rejected`] records and displaced ones
//! [`rt_model::AperiodicFate::Aborted`]. Decisions depend only on the
//! arrival history — never on lane runtime state — so they are identical
//! to the execution engine's for the same system. Under the default
//! [`rt_model::AdmissionPolicy::AcceptAll`] the machinery is stateless.
//! Per-arrival cost: O(1) for accept-all, amortised O(1) for the predictive
//! policy, O(backlog) per provisional drop for the value-density rule.
//!
//! # Fault injection & mode changes
//!
//! When the spec carries a [`rt_model::FaultPlan`], three things change —
//! none of which costs anything on fault-free specs:
//!
//! * **Arrival faults** (release jitter, dropped arrivals) are resolved by
//!   [`SystemSpec::apply_arrival_faults`] *before* the run starts, so both
//!   loops (and the execution world) see the same already-normalised
//!   arrival stream. Zero runtime cost.
//! * **Cost overruns** give the faulted job a service cap equal to its
//!   declared budget while its real demand grows by the injected extra;
//!   exhausting the cap mid-job surfaces as [`AperiodicFate::Aborted`] and
//!   releases the job's admission-plan slot
//!   ([`rt_admission::ServerAdmission::on_abort`]). Enforcement is one
//!   extra `min` + subtraction per served slice — O(1) per decision; the
//!   abort itself pays the admission repack, O(backlog), only when it fires.
//! * **Mode changes** apply at the first *quiescent* decision point at or
//!   after their instant (no in-service job on the lane — in-flight work
//!   drains first), reconfiguring capacity/period/policy/discipline/
//!   admission ([`crate::server::ServerState::reconfigure`]). The sweep is
//!   O(mode changes) per decision point with per-record applied flags, and
//!   each pending instant is a decision point, so reconfiguration lands at
//!   the same instant in both loops.

use crate::driver;
use crate::server::ServerState;
use crate::tables::SimTables;
use rt_admission::{ArrivingEvent, ServerAdmission};
use rt_model::{
    AperiodicFate, AperiodicOutcome, EventId, ExecUnit, Instant, PeriodicJobRecord, PeriodicTask,
    Priority, QueueDiscipline, SchedulingPolicy, Span, SystemSpec, Trace,
};
use rt_observe::{NoopProbe, Probe};
use std::collections::VecDeque;

/// Simulates the execution of the system under its configured server
/// policies and scheduling policy, returning the full trace. Runs the
/// specialized driver (see the module docs).
///
/// ```
/// use rt_model::{Instant, Priority, ServerSpec, Span, SystemSpec};
///
/// let mut b = SystemSpec::builder("doc");
/// b.server(ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30)));
/// b.periodic("tau1", Span::from_units(2), Span::from_units(6), Priority::new(20));
/// b.aperiodic(Instant::from_units(0), Span::from_units(2));
/// b.horizon_server_periods(4);
/// let trace = rtss_sim::simulate(&b.build().unwrap());
/// // The textbook polling server picks the event up at its activation.
/// assert_eq!(trace.outcomes[0].response_time(), Some(Span::from_units(2)));
/// ```
///
/// # Panics
/// Panics when the specification fails validation; callers are expected to
/// build specs through [`rt_model::SystemBuilder`], which validates.
pub fn simulate(spec: &SystemSpec) -> Trace {
    spec.validate()
        // rt-lint: allow(panic, reason = "documented '# Panics' contract: the convenience entry point fails loudly on invalid specs")
        .expect("simulate() requires a valid system specification");
    driver::run(&SimTables::build(spec), NoopProbe)
}

/// Simulates with an attached [`Probe`] observing every decision, dispatch,
/// slice, release, admission verdict and mode change of the run. The trace
/// is byte-identical to [`simulate`]'s — probes observe, they never decide
/// (pinned by `tests/probe_transparency.rs`). Pass `&mut probe` to keep the
/// recording:
///
/// ```
/// use rt_model::{Instant, Priority, ServerSpec, Span, SystemSpec};
/// use rt_observe::MetricsProbe;
///
/// let mut b = SystemSpec::builder("observed");
/// b.server(ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30)));
/// b.periodic("tau1", Span::from_units(2), Span::from_units(6), Priority::new(20));
/// b.aperiodic(Instant::from_units(0), Span::from_units(2));
/// b.horizon_server_periods(4);
/// let spec = b.build().unwrap();
///
/// let mut probe = MetricsProbe::new();
/// let trace = rtss_sim::simulate_with_probe(&spec, &mut probe);
/// assert_eq!(trace.render_canonical(), rtss_sim::simulate(&spec).render_canonical());
/// assert!(probe.counters.decisions > 0);
/// ```
///
/// # Panics
/// Panics when the specification fails validation.
pub fn simulate_with_probe<P: Probe>(spec: &SystemSpec, probe: P) -> Trace {
    spec.validate()
        // rt-lint: allow(panic, reason = "documented '# Panics' contract: the convenience entry point fails loudly on invalid specs")
        .expect("simulate_with_probe() requires a valid system specification");
    driver::run(&SimTables::build(spec), probe)
}

/// Simulates with the seed's linear-scan decision loop (O(t) per decision,
/// one job slice per dispatch, no probe).
///
/// Produces bit-identical traces to [`simulate`]; kept as the reference
/// oracle for the differential tests, the goldens and the `engine_scaling`
/// benchmark.
///
/// # Panics
/// Panics when the specification fails validation.
pub fn simulate_reference(spec: &SystemSpec) -> Trace {
    spec.validate()
        // rt-lint: allow(panic, reason = "documented '# Panics' contract: the convenience entry point fails loudly on invalid specs")
        .expect("simulate_reference() requires a valid system specification");
    match spec.apply_arrival_faults() {
        Some(normalized) => Simulator::new(&normalized).run(),
        None => Simulator::new(spec).run(),
    }
}

/// One pending periodic job inside the simulator.
#[derive(Debug, Clone)]
struct PendingPeriodicJob {
    activation: u64,
    release: Instant,
    deadline: Instant,
    remaining: Span,
}

/// Per-task simulation state.
#[derive(Debug, Clone)]
struct PeriodicState {
    task: PeriodicTask,
    next_release: Instant,
    next_activation: u64,
    pending: VecDeque<PendingPeriodicJob>,
}

impl PeriodicState {
    fn new(task: PeriodicTask) -> Self {
        let next_release = task.release_of(0);
        PeriodicState {
            task,
            next_release,
            next_activation: 0,
            pending: VecDeque::new(),
        }
    }
}

/// One pending aperiodic job inside a server's pending queue.
#[derive(Debug, Clone)]
struct PendingAperiodic {
    index: usize,
    remaining: Span,
    started: Option<Instant>,
    /// Absolute deadline used by deadline-ordered lane service: the event's
    /// `release + relative_deadline`, or the release itself when the event
    /// carries no deadline (so deadline order degenerates to FIFO).
    deadline: Instant,
    /// Service budget still allowed before enforcement cuts the job off:
    /// the declared cost for jobs carrying an injected overrun
    /// ([`rt_model::FaultPlan::overrun_extra`]), [`Span::MAX`] otherwise.
    /// Exhausting it with work remaining surfaces as
    /// [`AperiodicFate::Aborted`].
    cap_left: Span,
}

/// One installed server: its capacity-policy state plus its own pending
/// queue and its on-line admission state — the same `rt-admission` machine
/// the execution engine embeds, fed the same arrival history, so
/// accept/reject decisions agree across engines by construction.
#[derive(Debug, Clone)]
struct ServerLane {
    state: ServerState,
    queue: VecDeque<PendingAperiodic>,
    admission: ServerAdmission,
}

/// Which entity the simulator decided to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Runner {
    Server(usize),
    Task(usize),
}

/// Builds the outcome record of one spec event, carrying its value tag and
/// absolute deadline.
fn outcome(event: &rt_model::AperiodicEvent, fate: AperiodicFate) -> AperiodicOutcome {
    AperiodicOutcome {
        event: event.id,
        release: event.release,
        declared_cost: event.declared_cost,
        value: event.value,
        deadline: event.absolute_deadline(),
        fate,
    }
}

/// The reference simulator: the seed's linear-scan, one-slice-per-dispatch
/// loop.
struct Simulator<'a> {
    spec: &'a SystemSpec,
    now: Instant,
    horizon: Instant,
    periodic: Vec<PeriodicState>,
    servers: Vec<ServerLane>,
    /// Arrivals with no server to run on (systems without servers); reported
    /// unserved at the horizon, as the seed engine did.
    orphans: Vec<usize>,
    next_arrival: usize,
    trace: Trace,
    /// Reused buffer for the events an admission decision displaces.
    aborted_scratch: Vec<EventId>,
    /// Scheduling policy of the simulated system ([`SystemSpec::scheduling`]).
    scheduling: SchedulingPolicy,
    /// Per-record applied flag for the spec's mode changes (same order as
    /// [`rt_model::FaultPlan::mode_changes`]). A record stays unapplied past
    /// its instant while its lane has in-service work — the quiescence
    /// protocol — and is retried at every decision point.
    mode_applied: Vec<bool>,
}

impl<'a> Simulator<'a> {
    fn new(spec: &'a SystemSpec) -> Self {
        Simulator {
            spec,
            now: Instant::ZERO,
            horizon: spec.horizon,
            periodic: spec
                .periodic_tasks
                .iter()
                .cloned()
                .map(PeriodicState::new)
                .collect(),
            servers: spec
                .servers
                .iter()
                .cloned()
                .map(|s| ServerLane {
                    admission: ServerAdmission::for_server(&s),
                    state: ServerState::new(s),
                    queue: VecDeque::new(),
                })
                .collect(),
            orphans: Vec::new(),
            next_arrival: 0,
            trace: Trace::new(spec.horizon),
            aborted_scratch: Vec::new(),
            scheduling: spec.scheduling,
            mode_applied: vec![false; spec.faults.mode_changes.len()],
        }
    }

    fn run(mut self) -> Trace {
        while self.now < self.horizon {
            self.process_due_events();
            let next = self.next_decision_point();
            debug_assert!(next > self.now, "decision points must advance time");
            match self.pick_runner() {
                None => {
                    self.trace.push_segment(ExecUnit::Idle, self.now, next);
                    self.now = next;
                }
                Some(Runner::Server(s)) => self.run_server(s, next),
                Some(Runner::Task(i)) => self.run_task(i, next),
            }
        }
        self.finalise();
        self.trace
    }

    /// Injects every arrival, release and replenishment due at the current
    /// instant.
    fn process_due_events(&mut self) {
        // Mode changes first: a same-instant arrival must be admitted under
        // the reconfigured lane, exactly as the execution engine applies due
        // changes before routing a fired event.
        self.apply_due_mode_changes();
        // Aperiodic arrivals next, so that an event arriving exactly at a
        // server activation instant is visible to the activation (the polling
        // server would otherwise discard its fresh capacity).
        while self.next_arrival < self.spec.aperiodics.len()
            && self.spec.aperiodics[self.next_arrival].release <= self.now
        {
            let event = &self.spec.aperiodics[self.next_arrival];
            if event.release < self.horizon {
                // The simulator executes the real demand of the handler —
                // plus any injected overrun, capped at the declared budget
                // for the faulted jobs (for generated systems declared and
                // actual agree, so unfaulted jobs never hit the cap).
                let extra = self.spec.faults.overrun_extra(event.id);
                let (remaining, cap_left) = if extra.is_zero() {
                    (event.actual_cost, Span::MAX)
                } else {
                    (event.actual_cost + extra, event.declared_cost)
                };
                let job = PendingAperiodic {
                    index: self.next_arrival,
                    remaining,
                    started: None,
                    deadline: event.absolute_deadline().unwrap_or(event.release),
                    cap_left,
                };
                match self.servers.get_mut(event.server) {
                    Some(lane) => {
                        let lane_index = event.server;
                        let mut scratch = std::mem::take(&mut self.aborted_scratch);
                        let (accepted, _prediction) = lane.admission.on_arrival_into(
                            &ArrivingEvent {
                                event: event.id,
                                release: event.release,
                                declared_cost: event.declared_cost,
                                deadline: event.absolute_deadline(),
                                value: event.value,
                            },
                            &mut scratch,
                        );
                        for &aborted in &scratch {
                            self.abort_pending(lane_index, aborted);
                        }
                        scratch.clear();
                        self.aborted_scratch = scratch;
                        if accepted {
                            self.servers[lane_index].queue.push_back(job);
                        } else {
                            let event = &self.spec.aperiodics[self.next_arrival];
                            self.trace.push_outcome(outcome(
                                event,
                                AperiodicFate::Rejected { at: self.now },
                            ));
                        }
                    }
                    None => self.orphans.push(self.next_arrival),
                }
            }
            self.next_arrival += 1;
        }
        // Periodic releases: every task is scanned, each releasing its due
        // jobs in chronological order.
        for state in &mut self.periodic {
            while state.next_release <= self.now && state.next_release < self.horizon {
                state.pending.push_back(PendingPeriodicJob {
                    activation: state.next_activation,
                    release: state.next_release,
                    deadline: state.task.deadline_of(state.next_activation),
                    remaining: state.task.cost,
                });
                state.next_activation += 1;
                state.next_release = state.task.release_of(state.next_activation);
            }
        }
        // Server replenishments, in install order.
        for lane in &mut self.servers {
            let queue_empty = lane.queue.is_empty();
            lane.state.replenish_due(self.now, queue_empty);
        }
    }

    /// Removes an admitted-but-displaced job from a lane's pending queue,
    /// recording it as aborted (the value-density drop rule). Mirrors the
    /// execution engine's in-service exemption: a job the (resumable)
    /// textbook server has already started — or completed — keeps its
    /// in-flight fate, exactly as the framework's non-resumable dispatch
    /// removes a release from its queue when service begins, putting it out
    /// of the abort path's reach. Only never-started queue entries are
    /// dropped, so the two engines abort the same releases whenever their
    /// service starts agree.
    fn abort_pending(&mut self, lane_index: usize, event_id: EventId) {
        let spec = self.spec;
        let lane = &mut self.servers[lane_index];
        let Some(position) = lane
            .queue
            .iter()
            .position(|job| job.started.is_none() && spec.aperiodics[job.index].id == event_id)
        else {
            return;
        };
        let job = lane
            .queue
            .remove(position)
            // rt-lint: allow(panic, reason = "the position was selected from this queue above; losing it mid-dispatch is an engine bug worth a crash over a corrupted trace")
            .expect("position came from the queue");
        if lane.queue.is_empty() {
            lane.state.on_queue_emptied(self.now);
        }
        let event = &spec.aperiodics[job.index];
        self.trace
            .push_outcome(outcome(event, AperiodicFate::Aborted { at: self.now }));
    }

    /// Applies every mode change due at the current instant whose lane is
    /// quiescent — no in-service (started, unfinished) job in its queue.
    /// Non-quiescent lanes keep their record pending and retry at the next
    /// decision point; other lanes' records are not blocked (per-record
    /// flags, not a cursor). Applying a record reconfigures the capacity
    /// state ([`ServerState::reconfigure`]) and rebuilds the admission
    /// machine from the updated spec — the already-admitted backlog is
    /// grandfathered: it stays queued, owns no virtual plan entries, and is
    /// never displaced by post-change arrivals.
    fn apply_due_mode_changes(&mut self) {
        let spec = self.spec;
        for (k, change) in spec.faults.mode_changes.iter().enumerate() {
            if self.mode_applied[k] || change.at > self.now {
                continue;
            }
            let lane = &mut self.servers[change.server];
            if lane.queue.iter().any(|job| job.started.is_some()) {
                continue;
            }
            lane.state.reconfigure(change);
            lane.admission = ServerAdmission::for_server(&lane.state.spec);
            self.mode_applied[k] = true;
        }
    }

    /// The next instant at which the scheduling decision could change: an
    /// O(t) sweep over every periodic task plus the arrival cursor, the
    /// capacity-limited lanes' replenishments and the pending mode changes.
    fn next_decision_point(&self) -> Instant {
        let mut next = self.horizon;
        if self.next_arrival < self.spec.aperiodics.len() {
            next = next.min(self.spec.aperiodics[self.next_arrival].release);
        }
        for state in &self.periodic {
            if state.next_release < self.horizon {
                next = next.min(state.next_release);
            }
        }
        for lane in &self.servers {
            if lane.state.is_capacity_limited() {
                next = next.min(lane.state.next_replenishment());
            }
        }
        for (k, change) in self.spec.faults.mode_changes.iter().enumerate() {
            if !self.mode_applied[k] && change.at > self.now {
                next = next.min(change.at);
            }
        }
        next.max(self.now + Span::from_ticks(1))
            .min(self.horizon.max(self.now + Span::from_ticks(1)))
    }

    /// Chooses the ready entity to run under the configured scheduling
    /// policy: the highest-priority one under fixed priorities, the
    /// earliest-deadline one under EDF (tasks by their front job's absolute
    /// deadline, servers by their replenishment-derived deadline). Under
    /// both policies ties go to servers before tasks, and to the earlier
    /// install/scan index within each group. O(S + t).
    fn pick_runner(&self) -> Option<Runner> {
        match self.scheduling {
            SchedulingPolicy::FixedPriority => self.pick_runner_fp(),
            SchedulingPolicy::Edf => self.pick_runner_edf(),
        }
    }

    // rt-lint: zero-alloc
    fn pick_runner_fp(&self) -> Option<Runner> {
        let mut best: Option<(Priority, Runner)> = None;
        let mut consider = |priority: Priority, runner: Runner| match best {
            Some((p, _)) if !priority.preempts(p) => {}
            _ => best = Some((priority, runner)),
        };
        for (s, lane) in self.servers.iter().enumerate() {
            if lane.state.is_ready(lane.queue.is_empty()) {
                consider(lane.state.spec.priority, Runner::Server(s));
            }
        }
        for (i, state) in self.periodic.iter().enumerate() {
            if !state.pending.is_empty() {
                consider(state.task.priority, Runner::Task(i));
            }
        }
        best.map(|(_, runner)| runner)
    }

    // rt-lint: zero-alloc
    fn pick_runner_edf(&self) -> Option<Runner> {
        let mut best: Option<(Instant, Runner)> = None;
        let mut consider = |deadline: Instant, runner: Runner| match best {
            Some((d, _)) if deadline >= d => {}
            _ => best = Some((deadline, runner)),
        };
        for (s, lane) in self.servers.iter().enumerate() {
            if lane.state.is_ready(lane.queue.is_empty()) {
                consider(lane.state.edf_deadline(self.now), Runner::Server(s));
            }
        }
        for (i, state) in self.periodic.iter().enumerate() {
            if let Some(job) = state.pending.front() {
                consider(job.deadline, Runner::Task(i));
            }
        }
        best.map(|(_, runner)| runner)
    }

    /// Serves one slice of server `s`'s chosen pending job: until the
    /// decision window closes, the job completes, its overrun cap runs out
    /// or the lane's capacity does.
    // rt-lint: zero-alloc
    fn run_server(&mut self, s: usize, next: Instant) {
        let lane = &mut self.servers[s];
        // Which pending job the lane serves is the per-server queue
        // discipline: the front (FIFO) or the earliest absolute deadline,
        // ties to the earlier arrival.
        let position = match lane.state.spec.discipline {
            QueueDiscipline::FifoSkip => 0,
            QueueDiscipline::DeadlineOrdered => {
                let mut best = 0;
                for (k, job) in lane.queue.iter().enumerate() {
                    if job.deadline < lane.queue[best].deadline {
                        best = k;
                    }
                }
                best
            }
        };
        let job = lane
            .queue
            .get_mut(position)
            // rt-lint: allow(panic, reason = "the lane is run only while its queue is non-empty; a silent fallback would corrupt the trace")
            .expect("server runner requires pending work");
        // Decision points strictly advance time (asserted in `run`): an
        // inverted window is an engine bug, not a clamp.
        let window = next.since(self.now);
        let slice = job
            .remaining
            .min(job.cap_left)
            .min(lane.state.max_slice())
            .min(window);
        debug_assert!(
            !slice.is_zero(),
            "the server was picked but cannot make progress"
        );
        let event = self.spec.aperiodics[job.index].id;
        if job.started.is_none() {
            job.started = Some(self.now);
        }
        self.trace
            .push_segment(ExecUnit::Handler(event), self.now, self.now + slice);
        job.remaining = job.remaining.minus(slice);
        job.cap_left = job.cap_left.minus(slice);
        lane.state.consume(slice, self.now);
        self.now += slice;
        let fate = if job.remaining.is_zero() {
            AperiodicFate::Served {
                // rt-lint: allow(panic, reason = "a job only completes after executing, and execution records the start instant")
                started: job.started.expect("a completed job has started"),
                completed: self.now,
            }
        } else if job.cap_left.is_zero() {
            // Budget enforcement: the job exhausted its declared budget with
            // work remaining — cut it off, surface the overrun as an abort
            // and release its slot in the admission plan so equation-(5)
            // stops charging for work that will never run.
            lane.admission.on_abort(event, self.now);
            AperiodicFate::Aborted { at: self.now }
        } else {
            return;
        };
        let spec_event = &self.spec.aperiodics[job.index];
        self.trace.push_outcome(outcome(spec_event, fate));
        lane.queue.remove(position);
        if lane.queue.is_empty() {
            lane.state.on_queue_emptied(self.now);
        }
    }

    /// Runs one slice of task `index`'s front job, until the decision window
    /// closes or the job completes.
    // rt-lint: zero-alloc
    fn run_task(&mut self, index: usize, next: Instant) {
        let state = &mut self.periodic[index];
        let job = state
            .pending
            .front_mut()
            // rt-lint: allow(panic, reason = "the task runner is entered only while the task has pending jobs")
            .expect("task runner requires pending work");
        let slice = job.remaining.min(next.since(self.now));
        debug_assert!(!slice.is_zero());
        self.trace
            .push_segment(ExecUnit::Task(state.task.id), self.now, self.now + slice);
        job.remaining = job.remaining.minus(slice);
        self.now += slice;
        if job.remaining.is_zero() {
            self.trace.push_periodic_job(PeriodicJobRecord {
                task: state.task.id,
                activation: job.activation,
                release: job.release,
                deadline: job.deadline,
                completed: Some(self.now),
            });
            state.pending.pop_front();
        }
    }

    /// Records the fate of everything that did not finish within the horizon.
    fn finalise(&mut self) {
        // Anything still queued (or partially served) is unserved; events
        // released before the horizon but never enqueued do not exist here
        // because every arrival strictly before the horizon is a decision
        // point processed by the loop.
        for lane in &mut self.servers {
            for job in lane.queue.drain(..) {
                let event = &self.spec.aperiodics[job.index];
                self.trace
                    .push_outcome(outcome(event, AperiodicFate::Unserved));
            }
        }
        for index in std::mem::take(&mut self.orphans) {
            let event = &self.spec.aperiodics[index];
            self.trace
                .push_outcome(outcome(event, AperiodicFate::Unserved));
        }
        for state in &mut self.periodic {
            for job in state.pending.drain(..) {
                self.trace.push_periodic_job(PeriodicJobRecord {
                    task: state.task.id,
                    activation: job.activation,
                    release: job.release,
                    deadline: job.deadline,
                    completed: None,
                });
            }
        }
        self.trace.outcomes.sort_by_key(|o| (o.release, o.event));
        debug_assert!(self.trace.check_invariants().is_ok());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rt_model::{Priority, ServerPolicyKind, ServerSpec, SystemSpec};

    /// Simulates the same traffic under a different server policy (applied
    /// to every server of the system).
    pub(crate) fn simulate_with_policy(spec: &SystemSpec, policy: ServerPolicyKind) -> Trace {
        let mut spec = spec.clone();
        for server in &mut spec.servers {
            server.policy = policy;
        }
        simulate(&spec)
    }

    /// The paper's Table 1 task set with a configurable server policy and
    /// aperiodic traffic.
    fn table1(policy: ServerPolicyKind, capacity: u64, events: &[(u64, u64)]) -> SystemSpec {
        let mut b = SystemSpec::builder("table-1");
        let server = ServerSpec {
            policy,
            capacity: Span::from_units(capacity),
            period: Span::from_units(6),
            priority: Priority::new(30),
            discipline: rt_model::QueueDiscipline::FifoSkip,
            admission: Default::default(),
        };
        b.server(server);
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

    fn response_of(trace: &Trace, nth: usize) -> Option<Span> {
        trace.outcomes[nth].response_time()
    }

    #[test]
    fn scenario1_polling_server_serves_both_events_immediately() {
        // Figure 2: e1@0 and e2@6, both cost 2, PS capacity 3.
        let spec = table1(ServerPolicyKind::Polling, 3, &[(0, 2), (6, 2)]);
        let trace = simulate(&spec);
        assert_eq!(response_of(&trace, 0), Some(Span::from_units(2)));
        assert_eq!(response_of(&trace, 1), Some(Span::from_units(2)));
        assert!(trace.all_periodic_deadlines_met());
        assert!(trace.check_invariants().is_ok());
    }

    #[test]
    fn scenario2_literature_polling_server_splits_h2_across_instances() {
        // Figure 3 traffic: e1@2 and e2@4, both cost 2. Under the *textbook*
        // PS, h2 starts at 8, is suspended at 9 when the capacity runs out
        // and resumes at 12, completing at 13 (the paper points out its
        // implementation cannot do this).
        let spec = table1(ServerPolicyKind::Polling, 3, &[(2, 2), (4, 2)]);
        let trace = simulate(&spec);
        // h1 is served 6..8 -> response 6.
        assert_eq!(response_of(&trace, 0), Some(Span::from_units(6)));
        // h2 completes at 13 -> response 9.
        assert_eq!(response_of(&trace, 1), Some(Span::from_units(9)));
        // Check the actual service segments of h2: [8,9) and [12,13).
        let h2 = spec.aperiodics[1].id;
        let segs: Vec<_> = trace.segments_of(ExecUnit::Handler(h2)).collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(
            (segs[0].start, segs[0].end),
            (Instant::from_units(8), Instant::from_units(9))
        );
        assert_eq!(
            (segs[1].start, segs[1].end),
            (Instant::from_units(12), Instant::from_units(13))
        );
        assert!(trace.all_periodic_deadlines_met());
    }

    #[test]
    fn deferrable_server_serves_mid_period() {
        // Same traffic as scenario 2, DS capacity 3: e1@2 is served as soon
        // as it arrives because the DS retained its capacity.
        let spec = table1(ServerPolicyKind::Deferrable, 3, &[(2, 2), (4, 2)]);
        let trace = simulate(&spec);
        // e1 served 2..4 -> response 2.
        assert_eq!(response_of(&trace, 0), Some(Span::from_units(2)));
        // e2@4: remaining capacity 1 -> served 4..5, then resumes at 6..7.
        assert_eq!(response_of(&trace, 1), Some(Span::from_units(3)));
    }

    #[test]
    fn deferrable_beats_polling_on_average_response_time() {
        let events = &[(1, 2), (7, 2), (14, 2), (20, 1), (27, 2)];
        let ps = simulate(&table1(ServerPolicyKind::Polling, 3, events));
        let ds = simulate(&table1(ServerPolicyKind::Deferrable, 3, events));
        let avg = |t: &Trace| {
            let served: Vec<Span> = t
                .outcomes
                .iter()
                .filter_map(|o| o.response_time())
                .collect();
            served.iter().map(|s| s.as_units()).sum::<f64>() / served.len() as f64
        };
        assert!(
            avg(&ds) < avg(&ps),
            "DS must give better average response times"
        );
    }

    #[test]
    fn background_servicing_waits_for_idle_time() {
        let mut b = SystemSpec::builder("bg");
        b.server(ServerSpec::background(Priority::new(1)));
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
        b.horizon(Instant::from_units(30));
        let spec = b.build().unwrap();
        let trace = simulate(&spec);
        // The background handler only runs after tau1 (0..2) and tau2 (2..3):
        // served 3..5, response 5.
        assert_eq!(response_of(&trace, 0), Some(Span::from_units(5)));
    }

    #[test]
    fn unserved_events_are_reported_at_the_horizon() {
        // Saturate the PS with far more work than ten periods can absorb.
        let events: Vec<(u64, u64)> = (0..20).map(|i| (i * 3, 3)).collect();
        let spec = table1(ServerPolicyKind::Polling, 3, &events);
        let trace = simulate(&spec);
        assert_eq!(trace.outcomes.len(), 20);
        let unserved = trace.outcomes.iter().filter(|o| !o.is_served()).count();
        assert!(
            unserved > 0,
            "an overloaded server must leave events unserved"
        );
        // Simulations never interrupt anything.
        assert!(trace.outcomes.iter().all(|o| !o.is_interrupted()));
    }

    #[test]
    fn periodic_tasks_always_meet_deadlines_in_the_paper_configuration() {
        let events: Vec<(u64, u64)> = (0..15).map(|i| (i * 4, 3)).collect();
        for policy in [ServerPolicyKind::Polling, ServerPolicyKind::Deferrable] {
            let spec = table1(policy, 3, &events);
            let trace = simulate(&spec);
            assert!(
                trace.all_periodic_deadlines_met(),
                "{policy:?}: the server must not jeopardise the periodic tasks"
            );
        }
    }

    #[test]
    fn processor_time_is_conserved() {
        let spec = table1(ServerPolicyKind::Deferrable, 3, &[(1, 2), (5, 3), (13, 2)]);
        let trace = simulate(&spec);
        let busy: Span = trace
            .segments
            .iter()
            .filter(|s| s.unit != ExecUnit::Idle)
            .map(|s| s.duration())
            .sum();
        assert_eq!(busy + trace.idle_time(), Span::from_units(60));
    }

    #[test]
    fn simulate_with_policy_overrides_the_server() {
        let spec = table1(ServerPolicyKind::Polling, 3, &[(2, 2)]);
        let ds_trace = simulate_with_policy(&spec, ServerPolicyKind::Deferrable);
        // Under DS the event is served on arrival.
        assert_eq!(
            ds_trace.outcomes[0].response_time(),
            Some(Span::from_units(2))
        );
    }

    #[test]
    fn edf_simulation_orders_tasks_by_deadline() {
        // Two tasks, no server: the lower-priority short-period task must
        // run first under EDF.
        let mut b = SystemSpec::builder("edf-order");
        b.periodic(
            "long",
            Span::from_units(4),
            Span::from_units(20),
            Priority::new(50),
        );
        b.periodic(
            "short",
            Span::from_units(1),
            Span::from_units(5),
            Priority::new(1),
        );
        b.scheduling(rt_model::SchedulingPolicy::Edf);
        b.horizon(Instant::from_units(20));
        let spec = b.build().unwrap();
        for trace in [simulate(&spec), simulate_reference(&spec)] {
            let first = trace.segments.first().unwrap();
            assert_eq!(first.unit, ExecUnit::Task(spec.periodic_tasks[1].id));
            assert!(trace.all_periodic_deadlines_met());
            assert!(trace.check_invariants().is_ok());
        }
    }

    #[test]
    fn edf_simulation_matches_the_reference() {
        // The driver and the linear-scan reference must stay bit-identical
        // under EDF, servers included.
        let mut spec = table1(ServerPolicyKind::Deferrable, 3, &[(1, 2), (5, 3), (13, 2)]);
        spec.scheduling = rt_model::SchedulingPolicy::Edf;
        assert_eq!(
            simulate(&spec).render_canonical(),
            simulate_reference(&spec).render_canonical()
        );
    }

    #[test]
    fn edf_reduces_to_fp_when_priorities_follow_deadlines() {
        // Table 1: server and both tasks share period 6 (implicit
        // deadlines), and priorities descend with spawn order — at every
        // instant the deadline order equals the priority order, so the EDF
        // trace must be byte-identical to the fixed-priority one.
        for policy in [ServerPolicyKind::Polling, ServerPolicyKind::Deferrable] {
            let fp = table1(policy, 3, &[(0, 2), (2, 2), (4, 2), (13, 1)]);
            let mut edf = fp.clone();
            edf.scheduling = rt_model::SchedulingPolicy::Edf;
            assert_eq!(
                simulate(&fp).render_canonical(),
                simulate(&edf).render_canonical(),
                "{policy:?}: deadline-monotonic reduction must hold"
            );
        }
        // Background servicing reduces too, but only with the conventional
        // *lowest* priority (its EDF rank is Instant::MAX, i.e. last): the
        // table1 fixture's top-priority background server deliberately
        // violates the reduction premise and is excluded.
        let mut b = SystemSpec::builder("bg-reduction");
        b.server(ServerSpec::background(Priority::new(1)));
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
        for &(release, cost) in &[(0u64, 2u64), (2, 2), (13, 1)] {
            b.aperiodic(Instant::from_units(release), Span::from_units(cost));
        }
        b.horizon(Instant::from_units(60));
        let fp = b.build().unwrap();
        let mut edf = fp.clone();
        edf.scheduling = rt_model::SchedulingPolicy::Edf;
        assert_eq!(
            simulate(&fp).render_canonical(),
            simulate(&edf).render_canonical(),
            "background: deadline-monotonic reduction must hold at the lowest priority"
        );
    }

    #[test]
    fn deadline_ordered_lane_serves_urgent_events_first() {
        // Two events queue up while the server has no capacity; once it
        // replenishes, FIFO serves the earlier arrival but the
        // deadline-ordered lane serves the more urgent one.
        let events: &[(u64, u64)] = &[(0, 3), (1, 2), (2, 2)];
        let fifo = table1(ServerPolicyKind::Polling, 3, events);
        let mut edd = fifo.clone();
        edd.servers[0].discipline = rt_model::QueueDiscipline::DeadlineOrdered;
        // e1 (released 1) gets a loose deadline, e2 (released 2) a tight one.
        edd.aperiodics[1].relative_deadline = Some(Span::from_units(30));
        edd.aperiodics[2].relative_deadline = Some(Span::from_units(5));
        let fifo_trace = simulate(&fifo);
        let edd_trace = simulate(&edd);
        let order = |t: &Trace| -> Vec<u32> {
            let mut seen = Vec::new();
            for seg in &t.segments {
                if let ExecUnit::Handler(id) = seg.unit {
                    if !seen.contains(&id.raw()) {
                        seen.push(id.raw());
                    }
                }
            }
            seen
        };
        assert_eq!(order(&fifo_trace), vec![0, 1, 2], "FIFO serves by arrival");
        assert_eq!(
            order(&edd_trace),
            vec![0, 2, 1],
            "deadline order serves the urgent event first"
        );
        // The driver agrees with the reference engine.
        assert_eq!(
            simulate(&edd).render_canonical(),
            simulate_reference(&edd).render_canonical()
        );
    }

    #[test]
    fn deadline_ordered_without_deadlines_matches_fifo() {
        let events: &[(u64, u64)] = &[(0, 2), (1, 2), (3, 1), (13, 2)];
        let fifo = table1(ServerPolicyKind::Deferrable, 3, events);
        let mut edd = fifo.clone();
        edd.servers[0].discipline = rt_model::QueueDiscipline::DeadlineOrdered;
        assert_eq!(
            simulate(&fifo).render_canonical(),
            simulate(&edd).render_canonical(),
            "deadline order keyed by release must degenerate to FIFO"
        );
    }

    #[test]
    fn injected_overruns_are_cut_off_at_the_declared_budget() {
        // e1@0 declares 2 but demands 4: the PS serves exactly the declared
        // budget and enforcement aborts the rest; the unaffected e2@6 is
        // served exactly as in the fault-free run.
        let mut spec = table1(ServerPolicyKind::Polling, 3, &[(0, 2), (6, 2)]);
        let e1 = spec.aperiodics[0].id;
        spec.faults = rt_model::FaultPlan::new().overrun(e1, Span::from_units(2));
        let trace = simulate(&spec);
        assert_eq!(
            trace.outcomes[0].fate,
            AperiodicFate::Aborted {
                at: Instant::from_units(2)
            }
        );
        assert_eq!(response_of(&trace, 1), Some(Span::from_units(2)));
        assert!(trace.all_periodic_deadlines_met());
        assert_eq!(
            trace.render_canonical(),
            simulate_reference(&spec).render_canonical()
        );
    }

    #[test]
    fn arrival_faults_reshape_the_stream_before_simulation() {
        // Jitter moves e1@0 to 3; the drop removes e2 entirely. The faulted
        // run must be byte-identical to simulating the reshaped stream.
        let base = table1(ServerPolicyKind::Deferrable, 3, &[(0, 2), (6, 2)]);
        let mut faulted = base.clone();
        let e1 = faulted.aperiodics[0].id;
        let e2 = faulted.aperiodics[1].id;
        faulted.faults = rt_model::FaultPlan::new()
            .jitter(e1, Span::from_units(3))
            .drop_arrival(e2);
        let trace = simulate(&faulted);
        assert_eq!(trace.outcomes.len(), 1);
        assert_eq!(trace.outcomes[0].release, Instant::from_units(3));
        let mut reshaped = base.clone();
        reshaped.aperiodics[0].release = Instant::from_units(3);
        reshaped.aperiodics.remove(1);
        assert_eq!(
            trace.render_canonical(),
            simulate(&reshaped).render_canonical()
        );
    }

    #[test]
    fn mode_changes_wait_for_quiescence_before_reconfiguring() {
        // DS capacity 3: e1@1 (cost 3) is in service when the capacity cut
        // to 1 falls due at t=2 — the change waits for e1 to drain (t=4),
        // so e1 keeps its full-capacity service; e2@4 then lives under the
        // shrunk server and needs two one-unit periods.
        let mut spec = table1(ServerPolicyKind::Deferrable, 3, &[(1, 3), (4, 2)]);
        spec.faults = rt_model::FaultPlan::new().mode_change(
            rt_model::ModeChange::at(Instant::from_units(2), 0).with_capacity(Span::from_units(1)),
        );
        let trace = simulate(&spec);
        assert_eq!(
            trace.outcomes[0].fate,
            AperiodicFate::Served {
                started: Instant::from_units(1),
                completed: Instant::from_units(4),
            },
            "in-service work drains under the old configuration"
        );
        let e2 = spec.aperiodics[1].id;
        let segs: Vec<_> = trace.segments_of(ExecUnit::Handler(e2)).collect();
        assert_eq!(segs.len(), 2, "e2 is served in one-unit slices");
        assert_eq!(
            (segs[0].start, segs[0].end),
            (Instant::from_units(6), Instant::from_units(7))
        );
        assert_eq!(
            (segs[1].start, segs[1].end),
            (Instant::from_units(12), Instant::from_units(13))
        );
        assert_eq!(
            trace.render_canonical(),
            simulate_reference(&spec).render_canonical()
        );
    }

    #[test]
    fn policy_swap_to_background_lifts_the_capacity_limit() {
        // DS capacity 3 exhausted by e1; e2 would wait for the t=6
        // replenishment, but the swap to background servicing at t=4 frees
        // it immediately (at the server's priority).
        let mut spec = table1(ServerPolicyKind::Deferrable, 3, &[(0, 3), (1, 3)]);
        spec.faults = rt_model::FaultPlan::new().mode_change(
            rt_model::ModeChange::at(Instant::from_units(4), 0)
                .with_policy(ServerPolicyKind::Background),
        );
        let trace = simulate(&spec);
        assert_eq!(
            trace.outcomes[1].fate,
            AperiodicFate::Served {
                started: Instant::from_units(4),
                completed: Instant::from_units(7),
            }
        );
        assert_eq!(
            trace.render_canonical(),
            simulate_reference(&spec).render_canonical()
        );
    }

    #[test]
    fn empty_system_is_all_idle() {
        let mut b = SystemSpec::builder("empty");
        b.periodic(
            "tau1",
            Span::from_units(1),
            Span::from_units(10),
            Priority::new(10),
        );
        b.horizon(Instant::from_units(20));
        let spec = b.build().unwrap();
        let trace = simulate(&spec);
        assert_eq!(
            trace.busy_time(ExecUnit::Task(spec.periodic_tasks[0].id)),
            Span::from_units(2)
        );
        assert_eq!(trace.idle_time(), Span::from_units(18));
    }
}
