//! The deterministic virtual-time execution engine.
//!
//! This is the substrate that plays the role of the RTSJ virtual machine in
//! the paper's executions: a single processor, preemptive fixed-priority
//! scheduling, asynchronous events fired by timers that run above every
//! application priority, periodic real-time threads, and `Timed` budget
//! enforcement. Unlike the simulator (`rtss-sim`), which replays idealised
//! policies, this engine executes *code* — the [`crate::body::ThreadBody`]
//! state machines supplied by the task-server framework — and charges the
//! configured [`crate::overhead::OverheadModel`] for the runtime machinery.
//!
//! Time is virtual and integer (see [`rt_model::time`]), so runs are exactly
//! reproducible; the engine never blocks the host thread.
//!
//! # Per-decision complexity
//!
//! This is the seed implementation, kept deliberately simple as the
//! execution world's reference oracle (`rt_taskserver::execute_reference`):
//! with `t` threads and `m` timers every decision rescans the whole timer
//! list for due fires, the whole thread table for due wakes and releases and
//! for the highest-priority runnable thread, and both lists again for the
//! next preemption instant — O(t + m) per decision. The table-driven
//! execution driver in `rt-taskserver` (behind `rt_taskserver::execute`)
//! reproduces its traces byte for byte; the differential tests, the goldens
//! and the fuzzer pin the two against each other, and the `engine_scaling`
//! benchmark measures the gap.
//!
//! **Steady-state allocations.** Decisions allocate nothing once the
//! engine's buffers are warm: due timer fires are collected into a reused
//! scratch vector, the event-fire loop walks its cascade with the reused
//! `fire_queue` and `cascade_scratch` buffers, and waiter lists are walked
//! by reference and handed back empty so every event keeps its buffer
//! capacity. The only allocations left are amortised growth of these
//! buffers (pinned by `rt-bench`'s `zero_alloc` test).
//!
//! **The world.** An engine carries one value of a [`World`] type `W`
//! (default `()`): the state its bodies and event fires share. Bodies reach
//! it through [`BodyCtx::world`], and every event fire asks it to run the
//! event's hook ([`World::fire`]), so bodies and hooks share state without
//! co-owning it.
//!
//! **Body storage.** The thread table doubles as a body arena: bodies whose
//! concrete type the engine knows (the periodic workers of
//! [`Engine::spawn_periodic_worker`]) live inline in their thread slot, so
//! spawning the `n`-task population of an executed system performs no
//! per-spawn heap allocation; only the handful of framework server bodies
//! still arrive boxed through the generic [`Engine::spawn`].
//!
//! # Scheduling policy
//!
//! Dispatching is governed by [`EngineConfig::policy`]
//! ([`rt_model::SchedulingPolicy`]): preemptive fixed priorities (the RTSJ
//! scheduler, default) or **EDF** by each thread's current absolute
//! deadline. Ties are broken by spawn order under both policies. Periodic
//! schedulables are re-keyed by the engine at every release
//! (`release + relative_deadline`, the relative deadline defaulting to the
//! period — see [`Engine::set_relative_deadline`]); event-driven
//! schedulables publish their deadlines through
//! [`crate::body::BodyCtx::set_deadline`] (task servers publish their
//! replenishment-derived deadlines this way) and default to
//! [`Instant::MAX`], the background rank. A woken server may briefly carry
//! the deadline of its *previous* activation; bodies only publish deadlines
//! that shrink over an idle period (replenishment-derived deadlines are
//! refreshed at every pump), so the error is always toward an earlier
//! deadline — the thread is pumped at most one zero-time decision too
//! early, re-publishes, and the compute dispatch that follows uses the
//! corrected key. Timer machinery is unaffected: it still runs above every
//! application thread under both policies.
//!
//! **Runtime-armed timers.** Bodies can arm one-shot timers mid-run through
//! [`crate::body::BodyCtx::arm_timer`]; a future instant joins the timer
//! list like any pre-run timer, which is how the Sporadic Server schedules
//! its per-consumption replenishments.

use crate::body::{Action, BodyCtx, Completion, ThreadBody};
use crate::overhead::OverheadModel;
use rt_model::{ExecUnit, Instant, Priority, SchedulingPolicy, Span, Trace};
use std::collections::VecDeque;

/// Handle to an engine-level asynchronous event (the emulation of an RTSJ
/// `AsyncEvent` instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle(usize);

impl EventHandle {
    /// Builds a handle from its raw index (tests and serialisation only;
    /// handles are normally obtained from [`Engine::create_event`]).
    pub fn from_raw(raw: usize) -> Self {
        EventHandle(raw)
    }

    /// Raw index of the event.
    pub fn raw(self) -> usize {
        self.0
    }
}

/// Handle to a schedulable spawned on the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadHandle(usize);

impl ThreadHandle {
    /// Raw index of the schedulable.
    pub fn raw(self) -> usize {
        self.0
    }
}

/// Context passed to [`World::fire`].
#[derive(Debug)]
pub struct FireCtx {
    now: Instant,
    cascade: Vec<EventHandle>,
}

impl FireCtx {
    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Requests that another event be fired as part of this firing (processed
    /// iteratively, so hooks can chain events without re-entrancy).
    pub fn fire(&mut self, event: EventHandle) {
        self.cascade.push(event);
    }
}

/// The state an engine carries for its bodies and events.
///
/// Bodies reach it through [`BodyCtx::world`]; every event fire asks it to
/// run that event's hook. This is how the task-server framework's
/// `ServableAsyncEvent` notifies its server (`servableEventReleased`) at
/// fire time: its world owns the server lanes and a hook table indexed by
/// event.
pub trait World {
    /// Runs the hook of `event`, fired at `ctx.now()`, before its waiters
    /// are woken. Fires requested through `ctx` cascade iteratively, after
    /// this one. The default hook does nothing.
    fn fire(&mut self, event: EventHandle, ctx: &mut FireCtx) {
        let _ = (event, ctx);
    }
}

/// The default world: no shared state, no hooks.
impl World for () {}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Observation horizon: the engine stops at this instant.
    pub horizon: Instant,
    /// Overhead model charged for timers (the dispatch/enforcement components
    /// are consumed by server bodies, which read them from this model).
    pub overhead: OverheadModel,
    /// Dispatching policy: preemptive fixed priorities (the RTSJ scheduler,
    /// default) or EDF over the schedulables' absolute deadlines.
    pub policy: SchedulingPolicy,
}

impl EngineConfig {
    /// Configuration with the given horizon and the reference overhead model.
    pub fn new(horizon: Instant) -> Self {
        EngineConfig {
            horizon,
            overhead: OverheadModel::reference(),
            policy: SchedulingPolicy::FixedPriority,
        }
    }

    /// Replaces the overhead model.
    pub fn with_overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }

    /// Replaces the dispatching policy (fixed priorities by default).
    pub fn with_policy(mut self, policy: SchedulingPolicy) -> Self {
        self.policy = policy;
        self
    }
}

#[derive(Debug)]
struct ComputeState {
    remaining: Span,
    budget: Option<Span>,
    unit: ExecUnit,
    consumed: Span,
}

#[derive(Debug)]
enum ThreadStatus {
    /// The body must be asked for its next action; `Completion` explains how
    /// the previous one ended.
    Ready(Completion),
    /// A computation is in progress (possibly preempted).
    Computing(ComputeState),
    /// Blocked until the next periodic release (stored in `PeriodicRelease`).
    BlockedForPeriod,
    /// Blocked waiting for an event fire (the event's waiter list holds the
    /// back-reference).
    BlockedOnEvent,
    /// Finished.
    Terminated,
}

#[derive(Debug, Clone, Copy)]
struct PeriodicRelease {
    next: Instant,
    period: Span,
    /// Relative deadline of each job (defaults to the period). Under EDF the
    /// thread's absolute deadline is re-keyed to `release + relative_deadline`
    /// at every release.
    relative_deadline: Span,
}

/// Engine-internal storage of a schedulable's body. The thread table itself
/// is the arena: bodies whose concrete type the engine knows are stored
/// *inline* in their [`ThreadState`] slot — no per-spawn heap box — while
/// framework-supplied bodies still arrive as trait objects through
/// [`Engine::spawn`]. In the scaling workloads the inline periodic workers
/// are the dominant population (`n` tasks vs a handful of server bodies), so
/// spawning a large system costs O(1) allocations beyond the table growth.
enum StoredBody<W> {
    /// A framework-supplied body behind a trait object.
    Boxed(Box<dyn ThreadBody<W>>),
    /// An engine-owned periodic worker ([`PeriodicThreadBody`]) stored
    /// inline.
    Periodic(crate::handlers::PeriodicThreadBody),
}

impl<W> StoredBody<W> {
    fn next_action(&mut self, ctx: &mut BodyCtx<'_, W>, completion: Completion) -> Action {
        match self {
            StoredBody::Boxed(body) => body.next_action(ctx, completion),
            StoredBody::Periodic(body) => body.next_action(ctx, completion),
        }
    }
}

struct ThreadState<W> {
    name: String,
    priority: Priority,
    body: StoredBody<W>,
    periodic: Option<PeriodicRelease>,
    status: ThreadStatus,
    /// Absolute deadline of the thread's current job, the EDF dispatching
    /// key. [`Instant::MAX`] (the default) ranks the thread after every
    /// deadline-carrying schedulable — background servicing. Maintained by
    /// the engine for periodic schedulables and by the bodies (via
    /// [`BodyCtx::set_deadline`]) for event-driven ones; ignored under
    /// fixed-priority dispatching.
    deadline: Instant,
}

struct EventState {
    pending: u32,
    waiters: Vec<usize>,
}

#[derive(Debug, Clone, Copy)]
struct TimerState {
    event: EventHandle,
    next: Instant,
    period: Option<Span>,
    enabled: bool,
}

/// Safety bound on body invocations without time advancing, to turn an
/// accidentally non-progressing body into a diagnosable panic instead of an
/// infinite loop.
const MAX_ZERO_TIME_STEPS: u32 = 100_000;

/// The virtual-time execution engine, carrying the world `W` its bodies and
/// event fires share.
pub struct Engine<W = ()> {
    config: EngineConfig,
    now: Instant,
    threads: Vec<ThreadState<W>>,
    events: Vec<EventState>,
    timers: Vec<TimerState>,
    pending_timer_overhead: Span,
    trace: Trace,
    zero_time_steps: u32,
    /// Reusable scratch for the events of the timers one scan finds due, so
    /// steady-state decisions allocate nothing.
    due_events: Vec<EventHandle>,
    /// Reusable breadth-first fire queue walked by
    /// [`Self::fire_event_now`] — same reuse discipline as `due_events`.
    fire_queue: VecDeque<EventHandle>,
    /// Reusable cascade buffer handed to [`World::fire`] through
    /// [`FireCtx`], threaded through the fire loop so hook cascades allocate
    /// nothing in the steady state.
    cascade_scratch: Vec<EventHandle>,
    world: W,
}

impl Engine {
    /// Creates an engine with the given configuration and no world.
    pub fn new(config: EngineConfig) -> Self {
        Engine::with_world(config, ())
    }
}

impl<W: World> Engine<W> {
    /// Creates an engine with the given configuration, carrying `world`.
    pub fn with_world(config: EngineConfig, world: W) -> Self {
        Engine {
            now: Instant::ZERO,
            threads: Vec::new(),
            events: Vec::new(),
            timers: Vec::new(),
            pending_timer_overhead: Span::ZERO,
            trace: Trace::new(config.horizon),
            zero_time_steps: 0,
            due_events: Vec::new(),
            fire_queue: VecDeque::new(),
            cascade_scratch: Vec::new(),
            config,
            world,
        }
    }

    /// Sets a thread's current absolute deadline (the EDF dispatching key;
    /// stored but unused under fixed priorities).
    fn set_deadline(&mut self, tid: usize, deadline: Instant) {
        self.threads[tid].deadline = deadline;
    }

    /// The configured overhead model (server bodies read their dispatch /
    /// enforcement costs from here).
    pub fn overhead(&self) -> OverheadModel {
        self.config.overhead
    }

    /// The configured horizon.
    pub fn horizon(&self) -> Instant {
        self.config.horizon
    }

    /// Creates an asynchronous event.
    pub fn create_event(&mut self) -> EventHandle {
        let handle = EventHandle(self.events.len());
        self.events.push(EventState {
            pending: 0,
            waiters: Vec::new(),
        });
        handle
    }

    /// Arms a one-shot timer that fires the event at the given instant.
    pub fn add_one_shot_timer(&mut self, at: Instant, event: EventHandle) {
        self.timers.push(TimerState {
            event,
            next: at,
            period: None,
            enabled: true,
        });
    }

    /// Arms a periodic timer that fires the event at `start`, `start+period`, …
    pub fn add_periodic_timer(&mut self, start: Instant, period: Span, event: EventHandle) {
        assert!(!period.is_zero(), "periodic timers need a positive period");
        self.timers.push(TimerState {
            event,
            next: start,
            period: Some(period),
            enabled: true,
        });
    }

    /// Spawns an aperiodic schedulable.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        priority: Priority,
        body: Box<dyn ThreadBody<W>>,
    ) -> ThreadHandle {
        self.spawn_stored(name, priority, StoredBody::Boxed(body))
    }

    fn spawn_stored(
        &mut self,
        name: impl Into<String>,
        priority: Priority,
        body: StoredBody<W>,
    ) -> ThreadHandle {
        let handle = ThreadHandle(self.threads.len());
        self.threads.push(ThreadState {
            name: name.into(),
            priority,
            body,
            periodic: None,
            status: ThreadStatus::Ready(Completion::Started),
            deadline: Instant::MAX,
        });
        handle
    }

    /// Spawns a periodic schedulable (an emulated `RealtimeThread` with
    /// `PeriodicParameters{start, period}`); [`Action::WaitForNextPeriod`]
    /// blocks it until its next release.
    pub fn spawn_periodic(
        &mut self,
        name: impl Into<String>,
        priority: Priority,
        start: Instant,
        period: Span,
        body: Box<dyn ThreadBody<W>>,
    ) -> ThreadHandle {
        assert!(
            !period.is_zero(),
            "periodic schedulables need a positive period"
        );
        let handle = self.spawn(name, priority, body);
        self.threads[handle.0].periodic = Some(PeriodicRelease {
            next: start,
            period,
            relative_deadline: period,
        });
        self.set_deadline(handle.0, start + period);
        handle
    }

    /// Spawns a periodic worker that computes `cost` attributed to `unit`
    /// every `period`, with its [`crate::handlers::PeriodicThreadBody`]
    /// stored inline in the engine's thread table instead of behind a
    /// per-spawn heap box — the fast path for the periodic task population
    /// of executed [`rt_model::SystemSpec`] systems.
    pub fn spawn_periodic_worker(
        &mut self,
        name: impl Into<String>,
        priority: Priority,
        start: Instant,
        period: Span,
        cost: Span,
        unit: ExecUnit,
    ) -> ThreadHandle {
        assert!(
            !period.is_zero(),
            "periodic schedulables need a positive period"
        );
        let body = crate::handlers::PeriodicThreadBody::new(cost, unit);
        let handle = self.spawn_stored(name, priority, StoredBody::Periodic(body));
        self.threads[handle.0].periodic = Some(PeriodicRelease {
            next: start,
            period,
            relative_deadline: period,
        });
        self.set_deadline(handle.0, start + period);
        handle
    }

    /// Overrides the relative deadline of a periodic schedulable (defaults to
    /// its period — the implicit-deadline case). Under EDF every job of the
    /// thread is then dispatched by `release + relative_deadline`.
    ///
    /// # Panics
    /// Panics when the handle does not refer to a periodic schedulable.
    pub fn set_relative_deadline(&mut self, handle: ThreadHandle, relative_deadline: Span) {
        let periodic = self.threads[handle.0]
            .periodic
            .as_mut()
            // rt-lint: allow(panic, reason = "documented '# Panics' contract: the handle kind is part of the API")
            .expect("set_relative_deadline requires a periodic schedulable");
        periodic.relative_deadline = relative_deadline;
        // Re-key the not-yet-released first job: `next` still holds the
        // first release at this point (the engine has not run).
        let first = periodic.next;
        self.set_deadline(handle.0, first + relative_deadline);
    }

    /// Sets the initial absolute deadline of an aperiodic schedulable (the
    /// EDF dispatching key until its body publishes a new one through
    /// [`BodyCtx::set_deadline`]). Threads start at [`Instant::MAX`] —
    /// background rank — when this is never called.
    pub fn set_thread_deadline(&mut self, handle: ThreadHandle, deadline: Instant) {
        self.set_deadline(handle.0, deadline);
    }

    /// Name of a schedulable (for diagnostics).
    pub fn thread_name(&self, handle: ThreadHandle) -> &str {
        &self.threads[handle.0].name
    }

    /// Runs the system until the horizon and returns the trace.
    pub fn run(self) -> Trace {
        self.run_with_world().0
    }

    /// Runs the system until the horizon and returns the trace together
    /// with the world, as the run left it.
    pub fn run_with_world(mut self) -> (Trace, W) {
        while self.now < self.config.horizon {
            self.fire_due_timers();
            self.wake_due_threads();

            // The timer machinery runs above everything: charge its pending
            // cost before any application code.
            if !self.pending_timer_overhead.is_zero() {
                // now < horizon is the loop invariant: an inverted pair here
                // is an engine bug, so use the debug-checked subtraction.
                let slice = self
                    .pending_timer_overhead
                    .min(self.config.horizon.since(self.now));
                self.trace
                    .push_segment(ExecUnit::TimerOverhead, self.now, self.now + slice);
                self.now += slice;
                self.pending_timer_overhead = self.pending_timer_overhead.minus(slice);
                self.note_progress(slice);
                continue;
            }

            let Some(tid) = self.pick_runnable() else {
                // Idle: jump to the next instant anything can happen
                // (next_preemption_time is already capped at the horizon).
                let next = self.next_preemption_time();
                debug_assert!(next > self.now);
                self.trace.push_segment(ExecUnit::Idle, self.now, next);
                self.now = next;
                self.zero_time_steps = 0;
                continue;
            };

            // If the chosen thread needs to decide its next action, pump its
            // body once and re-evaluate (the decision may fire events or
            // block, which can change who should run).
            if matches!(self.threads[tid].status, ThreadStatus::Ready(_)) {
                self.pump_body(tid);
                self.note_progress(Span::ZERO);
                continue;
            }

            // Otherwise run the in-progress computation until the next
            // preemption opportunity.
            let limit = self.next_preemption_time();
            debug_assert!(limit > self.now);
            let window = limit.since(self.now);
            let state = match &mut self.threads[tid].status {
                ThreadStatus::Computing(state) => state,
                _ => unreachable!("pick_runnable returned a non-runnable thread"),
            };
            let mut slice = state.remaining.min(window);
            if let Some(budget) = state.budget {
                slice = slice.min(budget);
            }
            debug_assert!(!slice.is_zero(), "computations always make progress");
            self.trace
                .push_segment(state.unit, self.now, self.now + slice);
            self.now += slice;
            // The slice was clamped to both bounds above; underflow here
            // would mean the engine over-ran a computation or its budget.
            state.remaining = state.remaining.minus(slice);
            state.consumed += slice;
            if let Some(budget) = &mut state.budget {
                *budget = budget.minus(slice);
            }
            if state.remaining.is_zero() {
                let consumed = state.consumed;
                self.threads[tid].status = ThreadStatus::Ready(Completion::Computed { consumed });
            } else if state.budget == Some(Span::ZERO) {
                let consumed = state.consumed;
                self.threads[tid].status =
                    ThreadStatus::Ready(Completion::Interrupted { consumed });
            }
            self.note_progress(slice);
        }
        debug_assert!(self.trace.check_invariants().is_ok());
        (self.trace, self.world)
    }

    fn note_progress(&mut self, advanced: Span) {
        if advanced.is_zero() {
            self.zero_time_steps += 1;
            assert!(
                self.zero_time_steps < MAX_ZERO_TIME_STEPS,
                "engine made {MAX_ZERO_TIME_STEPS} scheduling decisions at {now} without \
                 advancing time: a ThreadBody is not making progress",
                now = self.now
            );
        } else {
            self.zero_time_steps = 0;
        }
    }

    /// Fires every timer due at or before the current instant by scanning the
    /// whole timer list, in (timer creation order, occurrence instant) order
    /// — O(m) per decision.
    fn fire_due_timers(&mut self) {
        let mut due = std::mem::take(&mut self.due_events);
        for timer in &mut self.timers {
            while timer.enabled && timer.next <= self.now && timer.next < self.config.horizon {
                due.push(timer.event);
                match timer.period {
                    Some(period) => timer.next += period,
                    None => {
                        timer.enabled = false;
                    }
                }
            }
        }
        for &event in &due {
            self.pending_timer_overhead += self.config.overhead.timer_fire;
            self.fire_event_now(event);
        }
        due.clear();
        self.due_events = due;
    }

    /// Fires an event immediately: runs its hook in the world (which may
    /// cascade into more fires) and wakes or credits its waiters.
    fn fire_event_now(&mut self, event: EventHandle) {
        let mut queue = std::mem::take(&mut self.fire_queue);
        let mut cascade = std::mem::take(&mut self.cascade_scratch);
        queue.push_back(event);
        while let Some(event) = queue.pop_front() {
            // The cascade buffer is threaded through the context and drained
            // back into the fire queue, so a steady-state fire reuses both
            // buffers.
            let mut ctx = FireCtx {
                now: self.now,
                cascade,
            };
            self.world.fire(event, &mut ctx);
            cascade = ctx.cascade;
            queue.extend(cascade.drain(..));

            // Wake every waiter; if nobody is waiting the fire is remembered.
            // The waiter list is detached, walked by reference and handed
            // back empty so the event keeps its buffer capacity (hooks never
            // re-enter the engine, so nothing can repopulate it meanwhile).
            let mut waiters = std::mem::take(&mut self.events[event.0].waiters);
            if waiters.is_empty() {
                self.events[event.0].pending = self.events[event.0].pending.saturating_add(1);
            } else {
                for &tid in &waiters {
                    self.threads[tid].status = ThreadStatus::Ready(Completion::EventFired);
                }
                waiters.clear();
            }
            self.events[event.0].waiters = waiters;
        }
        self.fire_queue = queue;
        self.cascade_scratch = cascade;
    }

    /// Releases every periodic thread whose next release is due, by
    /// scanning the whole thread list — O(t) per decision.
    fn wake_due_threads(&mut self) {
        for tid in 0..self.threads.len() {
            let thread = &mut self.threads[tid];
            if !matches!(thread.status, ThreadStatus::BlockedForPeriod) {
                continue;
            }
            let release = thread
                .periodic
                .as_mut()
                // rt-lint: allow(panic, reason = "BlockedForPeriod is only entered by periodic schedulables")
                .expect("BlockedForPeriod requires periodic parameters");
            if release.next <= self.now {
                let job_deadline = release.next + release.relative_deadline;
                release.next += release.period;
                thread.status = ThreadStatus::Ready(Completion::PeriodStarted);
                self.set_deadline(tid, job_deadline);
            }
        }
    }

    /// The thread to dispatch among those ready or computing: the
    /// highest-priority one under fixed priorities, the earliest-deadline one
    /// under EDF; ties are broken by spawn order (earlier spawn wins) under
    /// both policies, which keeps runs deterministic. O(t) sweep over every
    /// thread.
    // rt-lint: zero-alloc
    fn pick_runnable(&self) -> Option<usize> {
        let mut best: Option<(Priority, Instant, usize)> = None;
        for (i, thread) in self.threads.iter().enumerate() {
            if !matches!(
                thread.status,
                ThreadStatus::Ready(_) | ThreadStatus::Computing(_)
            ) {
                continue;
            }
            let wins = match (&best, self.config.policy) {
                (None, _) => true,
                (Some((p, _, _)), SchedulingPolicy::FixedPriority) => thread.priority.preempts(*p),
                (Some((_, d, _)), SchedulingPolicy::Edf) => thread.deadline < *d,
            };
            if wins {
                best = Some((thread.priority, thread.deadline, i));
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// Asks the body of a Ready thread for its next action and applies it.
    fn pump_body(&mut self, tid: usize) {
        let completion = match &self.threads[tid].status {
            ThreadStatus::Ready(completion) => *completion,
            _ => unreachable!("pump_body requires a Ready thread"),
        };
        let mut ctx = BodyCtx::new(self.now, &mut self.world);
        let action = self.threads[tid].body.next_action(&mut ctx, completion);
        let fires = ctx.take_fire_requests();
        let timers = ctx.take_timer_requests();
        let deadline = ctx.take_deadline_request();

        // A deadline published by the body re-keys its EDF rank first, so a
        // release processed by the action below (the WaitForNextPeriod
        // released-in-place path) overrides it with the fresh job's
        // deadline — a body that both publishes and crosses a release is
        // never left keyed by its previous job.
        if let Some(deadline) = deadline {
            self.set_deadline(tid, deadline);
        }

        match action {
            Action::Compute { amount, unit } => {
                if amount.is_zero() {
                    self.threads[tid].status = ThreadStatus::Ready(Completion::Computed {
                        consumed: Span::ZERO,
                    });
                } else {
                    self.threads[tid].status = ThreadStatus::Computing(ComputeState {
                        remaining: amount,
                        budget: None,
                        unit,
                        consumed: Span::ZERO,
                    });
                }
            }
            Action::ComputeInterruptible {
                amount,
                budget,
                unit,
            } => {
                if amount.is_zero() {
                    self.threads[tid].status = ThreadStatus::Ready(Completion::Computed {
                        consumed: Span::ZERO,
                    });
                } else if budget.is_zero() {
                    self.threads[tid].status = ThreadStatus::Ready(Completion::Interrupted {
                        consumed: Span::ZERO,
                    });
                } else {
                    self.threads[tid].status = ThreadStatus::Computing(ComputeState {
                        remaining: amount,
                        budget: Some(budget),
                        unit,
                        consumed: Span::ZERO,
                    });
                }
            }
            Action::WaitForNextPeriod => {
                let periodic = self.threads[tid]
                    .periodic
                    .as_mut()
                    // rt-lint: allow(panic, reason = "WaitForNextPeriod is emitted only by periodic workers, which carry period parameters")
                    .expect("WaitForNextPeriod requires a periodic schedulable");
                if periodic.next <= self.now {
                    // The release has already happened (including the very
                    // first release at the start instant): proceed without
                    // blocking and move on to the following release.
                    let job_deadline = periodic.next + periodic.relative_deadline;
                    periodic.next += periodic.period;
                    self.threads[tid].status = ThreadStatus::Ready(Completion::PeriodStarted);
                    self.set_deadline(tid, job_deadline);
                } else {
                    self.threads[tid].status = ThreadStatus::BlockedForPeriod;
                }
            }
            Action::WaitForEvent(event) => {
                if self.events[event.0].pending > 0 {
                    self.events[event.0].pending -= 1;
                    self.threads[tid].status = ThreadStatus::Ready(Completion::EventFired);
                } else {
                    self.events[event.0].waiters.push(tid);
                    self.threads[tid].status = ThreadStatus::BlockedOnEvent;
                }
            }
            Action::Terminate => {
                self.threads[tid].status = ThreadStatus::Terminated;
            }
        }

        // Fires requested by the body are processed after its state is
        // settled, so a body can fire the event it is about to wait on.
        for event in fires {
            self.fire_event_now(event);
        }
        // Runtime-armed timers: a future instant joins the timer list like
        // any pre-run timer; a past or present instant fires immediately,
        // charging the same timer overhead a scanned fire would.
        for (at, event) in timers {
            if at <= self.now {
                self.pending_timer_overhead += self.config.overhead.timer_fire;
                self.fire_event_now(event);
            } else {
                self.add_one_shot_timer(at, event);
            }
        }
    }

    /// The next instant at which the set of runnable threads could change
    /// while some thread is computing: the next timer fire, the next
    /// periodic release, or the horizon — an O(t + m) sweep over every
    /// thread and timer.
    fn next_preemption_time(&self) -> Instant {
        let mut next = Instant::MAX;
        for timer in &self.timers {
            if timer.enabled && timer.next < self.config.horizon {
                next = next.min(timer.next);
            }
        }
        for thread in &self.threads {
            if let (ThreadStatus::BlockedForPeriod, Some(p)) = (&thread.status, &thread.periodic) {
                next = next.min(p.next);
            }
        }
        next.min(self.config.horizon)
            .max(self.now + Span::from_ticks(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(horizon_units: u64) -> EngineConfig {
        EngineConfig::new(Instant::from_units(horizon_units)).with_overhead(OverheadModel::none())
    }

    /// A log is a world without hooks: bodies append to it through their
    /// context, and the test reads it back from the finished run.
    impl<T> World for Vec<T> {}

    /// A periodic body that computes a fixed cost each period, forever.
    struct PeriodicWorker {
        cost: Span,
        unit: ExecUnit,
    }

    impl ThreadBody for PeriodicWorker {
        fn next_action(&mut self, _ctx: &mut BodyCtx, completion: Completion) -> Action {
            match completion {
                Completion::Started | Completion::Computed { .. } => Action::WaitForNextPeriod,
                Completion::PeriodStarted => Action::Compute {
                    amount: self.cost,
                    unit: self.unit,
                },
                other => panic!("unexpected completion {other:?}"),
            }
        }
    }

    fn task_unit(raw: u32) -> ExecUnit {
        ExecUnit::Task(rt_model::TaskId::new(raw))
    }

    /// Regression: a periodic body that publishes a (stale) deadline on the
    /// same pump whose `WaitForNextPeriod` crosses a release must end up
    /// keyed by the *fresh job's* deadline — the engine-side release re-key
    /// wins over the body's publication, so the stale value cannot make the
    /// thread wrongly preempt a more urgent one under EDF.
    #[test]
    fn release_rekey_overrides_a_stale_published_deadline() {
        struct PublishingWorker;
        impl ThreadBody for PublishingWorker {
            fn next_action(&mut self, ctx: &mut BodyCtx, completion: Completion) -> Action {
                match completion {
                    Completion::Started | Completion::Computed { .. } => {
                        // A stale, maximally urgent deadline published on the
                        // release-crossing pump.
                        ctx.set_deadline(Instant::ZERO);
                        Action::WaitForNextPeriod
                    }
                    Completion::PeriodStarted => Action::Compute {
                        amount: Span::from_units(10),
                        unit: task_unit(0),
                    },
                    other => panic!("unexpected completion {other:?}"),
                }
            }
        }
        let mut engine = Engine::new(config(20).with_policy(rt_model::SchedulingPolicy::Edf));
        // Saturating worker: its compute ends exactly on its next release,
        // so the released-in-place WaitForNextPeriod path is taken at t=10.
        engine.spawn_periodic(
            "publisher",
            Priority::new(10),
            Instant::ZERO,
            Span::from_units(10),
            Box::new(PublishingWorker),
        );
        // A genuinely more urgent thread released at 10 (deadline 15).
        engine.spawn_periodic(
            "urgent",
            Priority::new(10),
            Instant::from_units(10),
            Span::from_units(5),
            Box::new(PeriodicWorker {
                cost: Span::from_units(1),
                unit: task_unit(1),
            }),
        );
        let trace = engine.run();
        let urgent = trace.segments_of(task_unit(1)).next().unwrap();
        assert_eq!(
            urgent.start,
            Instant::from_units(10),
            "deadline 15 must beat the publisher's fresh job (deadline 20); \
             the stale published ZERO must not survive the release re-key"
        );
    }

    #[test]
    fn single_periodic_thread_runs_every_period() {
        let mut engine = Engine::new(config(30));
        engine.spawn_periodic(
            "tau",
            Priority::new(10),
            Instant::ZERO,
            Span::from_units(10),
            Box::new(PeriodicWorker {
                cost: Span::from_units(2),
                unit: task_unit(0),
            }),
        );
        let trace = engine.run();
        let segments: Vec<_> = trace.segments_of(task_unit(0)).collect();
        assert_eq!(segments.len(), 3);
        assert_eq!(segments[0].start, Instant::ZERO);
        assert_eq!(segments[1].start, Instant::from_units(10));
        assert_eq!(segments[2].start, Instant::from_units(20));
        assert_eq!(trace.busy_time(task_unit(0)), Span::from_units(6));
        assert_eq!(trace.idle_time(), Span::from_units(24));
    }

    #[test]
    fn higher_priority_thread_preempts_lower() {
        let mut engine = Engine::new(config(20));
        // Low-priority long job released at 0.
        engine.spawn_periodic(
            "low",
            Priority::new(10),
            Instant::ZERO,
            Span::from_units(20),
            Box::new(PeriodicWorker {
                cost: Span::from_units(6),
                unit: task_unit(0),
            }),
        );
        // High-priority short job released at 2.
        engine.spawn_periodic(
            "high",
            Priority::new(20),
            Instant::from_units(2),
            Span::from_units(20),
            Box::new(PeriodicWorker {
                cost: Span::from_units(3),
                unit: task_unit(1),
            }),
        );
        let trace = engine.run();
        let low: Vec<_> = trace.segments_of(task_unit(0)).collect();
        let high: Vec<_> = trace.segments_of(task_unit(1)).collect();
        // Low runs 0..2, is preempted 2..5, resumes 5..9.
        assert_eq!(low.len(), 2);
        assert_eq!(
            (low[0].start, low[0].end),
            (Instant::ZERO, Instant::from_units(2))
        );
        assert_eq!(
            (low[1].start, low[1].end),
            (Instant::from_units(5), Instant::from_units(9))
        );
        assert_eq!(high.len(), 1);
        assert_eq!(
            (high[0].start, high[0].end),
            (Instant::from_units(2), Instant::from_units(5))
        );
    }

    #[test]
    fn timers_fire_events_and_wake_waiting_threads() {
        let mut engine = Engine::with_world(config(20), Vec::new());
        let event = engine.create_event();
        engine.add_one_shot_timer(Instant::from_units(4), event);
        struct Waiter {
            event: EventHandle,
        }
        impl ThreadBody<Vec<Instant>> for Waiter {
            fn next_action(
                &mut self,
                ctx: &mut BodyCtx<'_, Vec<Instant>>,
                completion: Completion,
            ) -> Action {
                match completion {
                    Completion::Started | Completion::Computed { .. } => {
                        Action::WaitForEvent(self.event)
                    }
                    Completion::EventFired => {
                        let now = ctx.now();
                        ctx.world().push(now);
                        Action::Compute {
                            amount: Span::from_units(2),
                            unit: task_unit(0),
                        }
                    }
                    other => panic!("unexpected completion {other:?}"),
                }
            }
        }
        engine.spawn("waiter", Priority::new(10), Box::new(Waiter { event }));
        let (trace, served_at) = engine.run_with_world();
        assert_eq!(served_at, vec![Instant::from_units(4)]);
        assert_eq!(trace.busy_time(task_unit(0)), Span::from_units(2));
    }

    #[test]
    fn fires_before_the_wait_are_remembered_as_pending() {
        let mut engine = Engine::with_world(config(20), Vec::new());
        let event = engine.create_event();
        engine.add_one_shot_timer(Instant::from_units(1), event);
        // The waiter only starts waiting at t=5 (it computes first); the fire
        // at t=1 must not be lost.
        struct LateWaiter {
            event: EventHandle,
            phase: u8,
        }
        impl ThreadBody<Vec<Instant>> for LateWaiter {
            fn next_action(
                &mut self,
                ctx: &mut BodyCtx<'_, Vec<Instant>>,
                completion: Completion,
            ) -> Action {
                self.phase += 1;
                match self.phase {
                    1 => Action::Compute {
                        amount: Span::from_units(5),
                        unit: task_unit(0),
                    },
                    2 => Action::WaitForEvent(self.event),
                    3 => {
                        assert_eq!(completion, Completion::EventFired);
                        let now = ctx.now();
                        ctx.world().push(now);
                        Action::Terminate
                    }
                    _ => Action::Terminate,
                }
            }
        }
        engine.spawn(
            "late",
            Priority::new(10),
            Box::new(LateWaiter { event, phase: 0 }),
        );
        let (trace, woke) = engine.run_with_world();
        assert_eq!(woke, vec![Instant::from_units(5)]);
        assert!(trace.check_invariants().is_ok());
    }

    /// A body that issues one interruptible compute of `amount` under
    /// `budget`, logs how it ended into the world and terminates.
    struct Budgeted {
        amount: Span,
        budget: Span,
        issued: bool,
    }

    impl ThreadBody<Vec<Completion>> for Budgeted {
        fn next_action(
            &mut self,
            ctx: &mut BodyCtx<'_, Vec<Completion>>,
            completion: Completion,
        ) -> Action {
            if !self.issued {
                self.issued = true;
                return Action::ComputeInterruptible {
                    amount: self.amount,
                    budget: self.budget,
                    unit: task_unit(0),
                };
            }
            ctx.world().push(completion);
            Action::Terminate
        }
    }

    /// Runs one [`Budgeted`] body and returns its logged completions.
    fn run_budgeted(amount: u64, budget: u64) -> (Trace, Vec<Completion>) {
        let mut engine = Engine::with_world(config(20), Vec::new());
        engine.spawn(
            "budgeted",
            Priority::new(10),
            Box::new(Budgeted {
                amount: Span::from_units(amount),
                budget: Span::from_units(budget),
                issued: false,
            }),
        );
        engine.run_with_world()
    }

    #[test]
    fn interruptible_compute_is_cut_at_the_budget() {
        let (trace, outcomes) = run_budgeted(5, 3);
        assert_eq!(
            outcomes,
            vec![Completion::Interrupted {
                consumed: Span::from_units(3)
            }]
        );
        assert_eq!(trace.busy_time(task_unit(0)), Span::from_units(3));
    }

    #[test]
    fn interruptible_compute_completes_within_budget() {
        let (_, outcomes) = run_budgeted(2, 3);
        assert_eq!(
            outcomes,
            vec![Completion::Computed {
                consumed: Span::from_units(2)
            }]
        );
    }

    #[test]
    fn timer_overhead_delays_application_threads() {
        let overhead = OverheadModel {
            timer_fire: Span::from_units(1),
            dispatch: Span::ZERO,
            enforcement: Span::ZERO,
        };
        let mut engine =
            Engine::new(EngineConfig::new(Instant::from_units(20)).with_overhead(overhead));
        let event = engine.create_event();
        engine.add_one_shot_timer(Instant::from_units(2), event);
        engine.spawn_periodic(
            "tau",
            Priority::new(10),
            Instant::ZERO,
            Span::from_units(20),
            Box::new(PeriodicWorker {
                cost: Span::from_units(4),
                unit: task_unit(0),
            }),
        );
        let trace = engine.run();
        // The task runs 0..2, the timer machinery takes 2..3, the task
        // resumes 3..5.
        assert_eq!(
            trace.busy_time(ExecUnit::TimerOverhead),
            Span::from_units(1)
        );
        let segs: Vec<_> = trace.segments_of(task_unit(0)).collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[1].start, Instant::from_units(3));
    }

    #[test]
    fn the_world_runs_fire_hooks_and_they_can_cascade() {
        /// Event 0's hook cascades into event 1; both log their fires.
        struct Cascade(Vec<(usize, Instant)>);
        impl World for Cascade {
            fn fire(&mut self, event: EventHandle, ctx: &mut FireCtx) {
                self.0.push((event.raw(), ctx.now()));
                if event.raw() == 0 {
                    ctx.fire(EventHandle::from_raw(1));
                }
            }
        }
        let mut engine = Engine::with_world(config(10), Cascade(Vec::new()));
        let first = engine.create_event();
        engine.create_event();
        engine.add_one_shot_timer(Instant::from_units(3), first);
        let (_, Cascade(log)) = engine.run_with_world();
        assert_eq!(
            log,
            vec![(0, Instant::from_units(3)), (1, Instant::from_units(3))]
        );
    }

    #[test]
    fn equal_priorities_are_scheduled_in_spawn_order() {
        let mut engine = Engine::new(config(10));
        engine.spawn_periodic(
            "a",
            Priority::new(10),
            Instant::ZERO,
            Span::from_units(10),
            Box::new(PeriodicWorker {
                cost: Span::from_units(2),
                unit: task_unit(0),
            }),
        );
        engine.spawn_periodic(
            "b",
            Priority::new(10),
            Instant::ZERO,
            Span::from_units(10),
            Box::new(PeriodicWorker {
                cost: Span::from_units(2),
                unit: task_unit(1),
            }),
        );
        let trace = engine.run();
        let a = trace.segments_of(task_unit(0)).next().unwrap();
        let b = trace.segments_of(task_unit(1)).next().unwrap();
        assert!(a.end <= b.start, "the first spawned thread runs first");
    }

    #[test]
    fn edf_dispatches_by_deadline_not_priority() {
        // Under EDF the *lower-priority* thread with the shorter period (and
        // therefore the earlier absolute deadline) runs first.
        let mut engine = Engine::new(config(20).with_policy(rt_model::SchedulingPolicy::Edf));
        engine.spawn_periodic(
            "high-prio-long-deadline",
            Priority::new(50),
            Instant::ZERO,
            Span::from_units(20),
            Box::new(PeriodicWorker {
                cost: Span::from_units(4),
                unit: task_unit(0),
            }),
        );
        engine.spawn_periodic(
            "low-prio-short-deadline",
            Priority::new(10),
            Instant::ZERO,
            Span::from_units(5),
            Box::new(PeriodicWorker {
                cost: Span::from_units(1),
                unit: task_unit(1),
            }),
        );
        let trace = engine.run();
        let first = trace.segments.first().unwrap();
        assert_eq!(
            first.unit,
            task_unit(1),
            "deadline 5 must beat deadline 20 regardless of priority"
        );
    }

    #[test]
    fn edf_equal_deadlines_fall_back_to_spawn_order() {
        let mut engine = Engine::new(config(10).with_policy(rt_model::SchedulingPolicy::Edf));
        for (i, _) in [0u32, 1].iter().enumerate() {
            engine.spawn_periodic(
                format!("w{i}"),
                Priority::new(10 + i as u8), // later spawn has *higher* priority
                Instant::ZERO,
                Span::from_units(10),
                Box::new(PeriodicWorker {
                    cost: Span::from_units(2),
                    unit: task_unit(i as u32),
                }),
            );
        }
        let trace = engine.run();
        let a = trace.segments_of(task_unit(0)).next().unwrap();
        let b = trace.segments_of(task_unit(1)).next().unwrap();
        assert!(
            a.end <= b.start,
            "equal deadlines: the first spawned thread runs first, not the higher priority"
        );
    }

    #[test]
    fn edf_mid_run_release_preempts_a_later_deadline() {
        // A long job (deadline 30) is preempted at t=4 by a release whose
        // deadline (4+6=10) is earlier.
        let mut engine = Engine::new(config(30).with_policy(rt_model::SchedulingPolicy::Edf));
        engine.spawn_periodic(
            "long",
            Priority::new(50),
            Instant::ZERO,
            Span::from_units(30),
            Box::new(PeriodicWorker {
                cost: Span::from_units(10),
                unit: task_unit(0),
            }),
        );
        engine.spawn_periodic(
            "urgent",
            Priority::new(1),
            Instant::from_units(4),
            Span::from_units(6),
            Box::new(PeriodicWorker {
                cost: Span::from_units(2),
                unit: task_unit(1),
            }),
        );
        let trace = engine.run();
        let urgent: Vec<_> = trace.segments_of(task_unit(1)).collect();
        assert_eq!(
            (urgent[0].start, urgent[0].end),
            (Instant::from_units(4), Instant::from_units(6))
        );
    }

    #[test]
    fn set_relative_deadline_rekeys_the_jobs() {
        // Same periods, but the second thread's constrained deadline makes it
        // more urgent under EDF despite its later spawn.
        let mut engine = Engine::new(config(10).with_policy(rt_model::SchedulingPolicy::Edf));
        engine.spawn_periodic(
            "implicit",
            Priority::new(10),
            Instant::ZERO,
            Span::from_units(10),
            Box::new(PeriodicWorker {
                cost: Span::from_units(2),
                unit: task_unit(0),
            }),
        );
        let constrained = engine.spawn_periodic(
            "constrained",
            Priority::new(10),
            Instant::ZERO,
            Span::from_units(10),
            Box::new(PeriodicWorker {
                cost: Span::from_units(2),
                unit: task_unit(1),
            }),
        );
        engine.set_relative_deadline(constrained, Span::from_units(4));
        let trace = engine.run();
        let first = trace.segments.first().unwrap();
        assert_eq!(first.unit, task_unit(1), "deadline 4 beats deadline 10");
    }

    #[test]
    fn deadlineless_threads_rank_as_background_under_edf() {
        // An aperiodic thread that never publishes a deadline only runs once
        // every deadline-carrying thread is blocked.
        let mut engine = Engine::new(config(10).with_policy(rt_model::SchedulingPolicy::Edf));
        engine.spawn(
            "no-deadline",
            Priority::new(90),
            Box::new(|_: &mut BodyCtx, c: Completion| match c {
                Completion::Started => Action::Compute {
                    amount: Span::from_units(1),
                    unit: ExecUnit::ServerOverhead,
                },
                _ => Action::Terminate,
            }),
        );
        engine.spawn_periodic(
            "deadline",
            Priority::new(1),
            Instant::ZERO,
            Span::from_units(10),
            Box::new(PeriodicWorker {
                cost: Span::from_units(3),
                unit: task_unit(0),
            }),
        );
        let trace = engine.run();
        let task = trace.segments_of(task_unit(0)).next().unwrap();
        let bg = trace.segments_of(ExecUnit::ServerOverhead).next().unwrap();
        assert!(task.end <= bg.start, "Instant::MAX ranks after deadline 10");
    }

    #[test]
    #[should_panic(expected = "not making progress")]
    fn non_progressing_bodies_are_detected() {
        let mut engine = Engine::new(config(10));
        engine.spawn(
            "spin",
            Priority::new(10),
            Box::new(|_ctx: &mut BodyCtx, _c: Completion| Action::Compute {
                amount: Span::ZERO,
                unit: ExecUnit::ServerOverhead,
            }),
        );
        engine.run();
    }

    #[test]
    fn names_are_retained_for_diagnostics() {
        let mut engine = Engine::new(config(10));
        let e = engine.create_event();
        let t = engine.spawn(
            "server",
            Priority::new(10),
            Box::new(|_: &mut BodyCtx, _: Completion| Action::Terminate),
        );
        assert_eq!(engine.thread_name(t), "server");
        assert_eq!(e.raw(), 0);
        assert_eq!(t.raw(), 0);
    }
}
