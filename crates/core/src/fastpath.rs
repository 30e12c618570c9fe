//! The execution driver: a specialized dispatch loop that drives the *real*
//! task-server bodies over precomputed SRP-style tables. [`ExecutionPlan::run`]
//! and [`crate::execute_with_probe`] run it under both scheduling policies,
//! so it is what [`crate::execute`] runs; the linear-scan `rtsj-emu` engine
//! behind [`crate::execute_reference`] is the only other execution loop.
//!
//! ## What is precomputed (the substrate)
//!
//! An RTFM-style analyze pass (`SubstratePlan::analyze`, after Real-Time For
//! the Masses' compile-time Stack Resource Policy ceilings) derives, once per
//! plan, from the spec:
//!
//! * a **static dispatch order** — every schedulable ranked by
//!   (priority desc, spawn index asc), the exact fixed-priority tie-break of
//!   the reference engine, so dispatching is a find-first-set scan over a
//!   rank bitmap instead of a heap;
//! * a **release wheel** — periodic schedulables grouped by (first release,
//!   period) with a per-group *preemption ceiling* (the best rank in the
//!   group), so a release drain costs O(groups) when nothing is due and the
//!   "does this release preempt the running thread?" question is one integer
//!   compare against the ceiling;
//! * a **segment reservation hint**, so the trace records into preallocated
//!   storage.
//!
//! ## Scheduling policies
//!
//! The driver is monomorphized on the policy (`const EDF`), like `rtss-sim`'s
//! simulation driver. The fixed-priority instantiation dispatches through
//! the rank bitmap with the ceiling-gated fast resume and fuses a pump with
//! the compute slice that follows it. The EDF instantiation keeps the same
//! bitmap as its runnable set and dispatches from a `(deadline, thread id)`
//! min-heap whose stale entries (threads that blocked or were re-keyed) are
//! dropped lazily at the peek — the spawn-order tie-break is the same under
//! both policies. Deadlines follow the reference engine's rules: install-time
//! initial deadlines (period-derived for periodic schedulables and the DS/SS
//! servers, [`Instant::MAX`] — background rank — for the BG server), the
//! release instant plus the relative deadline at every periodic release, and
//! whatever the bodies publish through [`BodyCtx::set_deadline`].
//!
//! ## What stays real
//!
//! The driver runs the same install as the reference engine
//! ([`crate::framework`]): the same lanes, the same polling
//! ([`crate::polling`]), event-driven ([`crate::deferrable`]) and sporadic
//! ([`crate::sporadic`]) server-body state machines, pumped through the
//! public [`BodyCtx`] protocol with the engine's exact ordering (deadline,
//! action, timers), and the same hook table, interpreted by the same
//! `ExecWorld`, which the driver owns. It only replaces the
//! *scheduling substrate* around them — timer scans and thread rescans —
//! with table-driven equivalents, which is why its traces are
//! byte-identical to the reference's; the goldens,
//! `tests/engine_differential.rs` and the fuzzer pin it.
//!
//! ## Probes
//!
//! Every hook is gated on [`Probe::ENABLED`], so the
//! [`rt_observe::NoopProbe`] instantiation behind [`ExecutionPlan::run`]
//! compiles to the probe-free loop. A recording instantiation reports the decision stream the
//! event-calendar engine this driver replaced reported; three shortcuts
//! that are invisible in the trace but not in that stream are switched off
//! (or accounted for) when `P::ENABLED`:
//!
//! * periodic workers are not pre-pumped through their period start at a
//!   release, so the pump shows up as its own decision;
//! * the fused pump → slice dispatch reports the decision it skips;
//! * the next due instant only counts wheel grid points at which some
//!   member is blocked, so spurious grid points do not split idle and
//!   compute slices.
//!
//! `tests/probe_transparency.rs` pins the recorded counters.
//!
//! ## Complexity per decision
//!
//! With `t` threads, `g` wheel groups and `s` servers: a drain is O(g + s)
//! when nothing is due (one compare per group/static timer, one cursor peek
//! for the arrival stream); a fixed-priority dispatch is O(1) when the
//! ceiling check proves the running thread keeps the processor, O(t/64) for
//! the bitmap scan otherwise; an EDF dispatch is an amortized O(log t) heap
//! peek. Per-release work is O(1) amortized and allocation-free: the
//! handler templates are `Copy`, a drain fires the due install-time timers
//! and releases in place (they are already in timer-creation order, so only
//! the runtime-armed one-shots that fall due together go through a reused
//! scratch list and a sort), each fate is a store into the release's
//! outcome slot, and the heaps and the lanes' queues, sized from the plan
//! at install, are reused. A recording run additionally pays O(t) per
//! drain for the exact wheel instant.
//!
//! Per run, the driver's tables — the thread table, the wheel, the rank
//! bitmap, the heaps, the timer-request buffer a pump lends its body's
//! [`BodyCtx`] — and the install's are taken
//! from the thread's scratch (`RunScratch`) and handed back empty at the
//! horizon, so after one run on a thread the driver allocates only the
//! trace's segments and outcome slots.

use crate::framework::{EventKind, ExecWorld, Install, InstallScratch, ServerBody, Timer};
use crate::system::{finalise_trace, ExecutionPlan, FinaliseScratch, PlannedEvent};
use rt_model::{ExecUnit, Instant, ServerPolicyKind, Span, SystemSpec, Trace};
use rt_observe::Probe;
use rtsj_emu::{Action, BodyCtx, Completion, EventHandle, PeriodicThreadBody, ThreadBody};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Safety net against non-progressing bodies, mirroring the engine's guard.
const MAX_ZERO_TIME_STEPS: u32 = 100_000;

/// One release-wheel group: periodic schedulables sharing a release grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SubstrateGroup {
    /// First release instant of the grid.
    first: Instant,
    /// Release period of the grid.
    period: Span,
    /// Where the member thread ids (spawn order: servers first, then
    /// tasks) start in [`SubstratePlan::members`].
    start: u32,
    /// How many members the group has.
    len: u32,
    /// Preemption ceiling: the best (smallest) dispatch rank in the group.
    /// A running thread with a rank below this value cannot be preempted by
    /// any release of the group — the SRP-style O(1) preemption test.
    ceiling: u32,
}

impl SubstrateGroup {
    /// The group's members, as a range of [`SubstratePlan::members`].
    fn members(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The precomputed scheduling substrate of one plan: the static dispatch
/// order, the release wheel with preemption ceilings, and the trace
/// reservation hint. See the module docs for the derivation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SubstratePlan {
    /// Thread id → dispatch rank (0 = dispatched first).
    rank_of: Vec<u32>,
    /// Dispatch rank → thread id (the inverse of `rank_of`).
    order: Vec<u32>,
    /// The release wheel.
    groups: Vec<SubstrateGroup>,
    /// The wheel groups' member thread ids, group after group.
    members: Vec<u32>,
    /// Reservation hint for the trace's segment storage (an upper-bound
    /// estimate; undershooting only costs a reallocation).
    segment_hint: usize,
}

/// The periodic schedulables of a spec in spawn order, as (thread id,
/// first release, period): the polling servers (thread id = lane index),
/// then the periodic tasks.
fn periodic_threads(spec: &SystemSpec) -> impl Iterator<Item = (u32, Instant, Span)> + '_ {
    let servers = spec
        .servers
        .iter()
        .enumerate()
        .filter(|(_, server)| server.policy == ServerPolicyKind::Polling)
        .map(|(index, server)| (index as u32, Instant::ZERO, server.period));
    let tasks = spec.periodic_tasks.iter().enumerate().map(|(index, task)| {
        (
            (spec.servers.len() + index) as u32,
            Instant::ZERO + task.offset,
            task.period,
        )
    });
    servers.chain(tasks)
}

impl SubstratePlan {
    /// Derives the substrate of a (fault-normalised) spec in
    /// O(threads · groups), into the buffers of `reuse` (cleared first):
    /// thread ids follow `ExecutionPlan::run`'s spawn order — servers first
    /// (thread id = lane index), then periodic tasks — which is what makes
    /// the static ranks reproduce the engine's `(priority, Reverse(thread
    /// id))` ready-heap tie-break.
    pub(crate) fn analyze(spec: &SystemSpec, reuse: SubstratePlan) -> Self {
        let SubstratePlan {
            mut rank_of,
            mut order,
            mut groups,
            mut members,
            ..
        } = reuse.cleared();
        let server_count = spec.servers.len();
        let thread_count = server_count + spec.periodic_tasks.len();
        let priority = |tid: u32| match spec.servers.get(tid as usize) {
            Some(server) => server.priority,
            None => spec.periodic_tasks[tid as usize - server_count].priority,
        };
        // Fixed-priority dispatch order: priority descending, spawn index
        // ascending. The keys are distinct, so an unstable sort orders like
        // a stable one.
        order.extend(0..thread_count as u32);
        order.sort_unstable_by_key(|&tid| (Reverse(priority(tid)), tid));
        rank_of.resize(thread_count, 0);
        for (rank, &tid) in order.iter().enumerate() {
            rank_of[tid as usize] = rank as u32;
        }

        // The groups in first-seen order, then each group's members in
        // spawn order, contiguously.
        for (_, first, period) in periodic_threads(spec) {
            if !groups
                .iter()
                .any(|g| g.first == first && g.period == period)
            {
                groups.push(SubstrateGroup {
                    first,
                    period,
                    start: 0,
                    len: 0,
                    ceiling: u32::MAX,
                });
            }
        }
        for group in &mut groups {
            group.start = members.len() as u32;
            for (tid, first, period) in periodic_threads(spec) {
                if (first, period) == (group.first, group.period) {
                    members.push(tid);
                    group.ceiling = group.ceiling.min(rank_of[tid as usize]);
                }
            }
            group.len = members.len() as u32 - group.start;
        }

        let horizon = spec.horizon.ticks();
        let releases_before_horizon = |first: u64, period: u64| -> u64 {
            if first >= horizon || period == 0 {
                0
            } else {
                (horizon - first).div_ceil(period)
            }
        };
        let mut activity: u64 = 0;
        for task in &spec.periodic_tasks {
            activity += releases_before_horizon(task.offset.ticks(), task.period.ticks());
        }
        for server in &spec.servers {
            match server.policy {
                // PS activations and DS replenishment fires both recur once
                // per server period.
                ServerPolicyKind::Polling | ServerPolicyKind::Deferrable => {
                    activity += releases_before_horizon(0, server.period.ticks());
                }
                ServerPolicyKind::Background | ServerPolicyKind::Sporadic => {}
            }
        }
        activity += spec.workload().within_horizon_count() as u64;
        // Three segments per activity plus 64 held each of 1 000 systems per
        // paper set and server policy under reference overheads; long runs
        // record 0.7-2.2 per activity. A run that needs more grows by doubling.
        let segment_hint = usize::try_from(activity.saturating_mul(3))
            .unwrap_or(usize::MAX)
            .saturating_add(64);

        SubstratePlan {
            rank_of,
            order,
            groups,
            members,
            segment_hint,
        }
    }

    /// The substrate's buffers, empty.
    pub(crate) fn cleared(mut self) -> Self {
        self.rank_of.clear();
        self.order.clear();
        self.groups.clear();
        self.members.clear();
        self.segment_hint = 0;
        self
    }
}

/// Runs a plan through the driver instantiation of its policy: attaches the
/// probe, drives the bodies to the horizon and finalises the trace, with
/// the working buffers of `scratch`, which it hands back empty.
pub(crate) fn run<P: Probe, const EDF: bool>(
    plan: &ExecutionPlan<'_>,
    mut probe: P,
    scratch: &mut RunScratch,
) -> Trace {
    if P::ENABLED {
        probe.attach(plan.spec.servers.len());
    }
    let mut driver = FastDriver::<P, EDF>::new(plan, probe, scratch);
    driver.run();
    driver.finish(&plan.spec, scratch)
}

/// Every buffer one execution uses but does not return — the install's,
/// the driver's tables and finalisation's — kept empty between the runs
/// of one thread ([`crate::scratch`]).
#[derive(Default)]
pub(crate) struct RunScratch {
    install: InstallScratch,
    threads: Vec<ThreadSlot>,
    wheel: Vec<Instant>,
    runnable: Vec<u64>,
    dynamic: BinaryHeap<Reverse<(Instant, usize, usize)>>,
    ready_edf: BinaryHeap<Reverse<(Instant, usize)>>,
    due: Vec<(usize, usize)>,
    armed: Vec<(Instant, EventHandle)>,
    finalise: FinaliseScratch,
}

/// Mirror of the reference engine's thread status (the EDF deadline key
/// lives in [`ThreadSlot::deadline`]).
#[derive(Debug, Clone, Copy)]
enum Status {
    Ready(Completion),
    Computing {
        remaining: Span,
        budget: Option<Span>,
        unit: ExecUnit,
        consumed: Span,
    },
    BlockedForPeriod,
    BlockedOnEvent,
}

/// A schedulable body, inline (no heap box): a periodic worker or a lane's
/// server body.
enum Body {
    Task(PeriodicThreadBody),
    Server(ServerBody),
}

impl Body {
    fn next_action<P: Probe>(
        &mut self,
        ctx: &mut BodyCtx<'_, ExecWorld<'_, P>>,
        completion: Completion,
    ) -> Action {
        match self {
            Body::Task(body) => body.next_action(ctx, completion),
            Body::Server(body) => body.next_action(ctx, completion),
        }
    }
}

/// The status a thread enters when its body asks to compute `amount` on
/// `unit` (the engine's zero-amount short-circuit included).
#[inline]
fn start_compute(amount: Span, unit: ExecUnit) -> Status {
    if amount.is_zero() {
        Status::Ready(Completion::Computed {
            consumed: Span::ZERO,
        })
    } else {
        Status::Computing {
            remaining: amount,
            budget: None,
            unit,
            consumed: Span::ZERO,
        }
    }
}

/// Pre-pumps an effect-free periodic worker through its period start: the
/// real [`PeriodicThreadBody`] yields its `Compute` action (it never touches
/// the ctx — no timers or deadlines), and the thread transitions
/// straight into the computing state without a separate dispatch round. The
/// pump it elides is trace-silent, so traces are unaffected; a recording
/// run keeps the pump (see the module docs), so `P::ENABLED` callers skip
/// this.
#[inline]
fn start_period(body: &mut PeriodicThreadBody, now: Instant) -> Status {
    let no_world = &mut ();
    let mut ctx = BodyCtx::new(now, no_world);
    let action = body.next_action(&mut ctx, Completion::PeriodStarted);
    debug_assert!(ctx.take_timer_requests().is_empty());
    debug_assert!(ctx.take_deadline_request().is_none());
    match action {
        Action::Compute { amount, unit } => start_compute(amount, unit),
        _ => unreachable!("a periodic worker always computes at a period start"),
    }
}

#[derive(Debug, Clone, Copy)]
struct Periodic {
    next: Instant,
    period: Span,
    /// Relative deadline of each job: under EDF a release re-keys the
    /// thread to `release + relative_deadline`.
    relative_deadline: Span,
}

impl Periodic {
    /// The periodic parameters of a schedulable whose first release is
    /// `first`.
    fn new(first: Instant, period: Span, relative_deadline: Span) -> Self {
        Periodic {
            next: first,
            period,
            relative_deadline,
        }
    }

    /// Consumes the due release at `next`: advances to the following one
    /// and returns the released job's absolute deadline.
    #[inline]
    fn release(&mut self) -> Instant {
        let deadline = self.next + self.relative_deadline;
        self.next += self.period;
        deadline
    }
}

struct ThreadSlot {
    body: Body,
    periodic: Option<Periodic>,
    status: Status,
    /// Absolute deadline of the current job, the EDF dispatch key
    /// ([`Instant::MAX`] ranks last); unused under fixed priorities.
    deadline: Instant,
    /// Fires of the lane's `wakeUp` no wait has consumed yet (server threads
    /// only). A server body waits on its own lane's `wakeUp` and on no other
    /// event, and nothing else waits on one, so a per-server count is all
    /// the engine's per-event pending/waiter bookkeeping amounts to here.
    wakeups: u32,
}

struct FastDriver<'p, P: Probe, const EDF: bool> {
    // --- immutable tables ---
    plan_events: &'p [PlannedEvent],
    rank_of: &'p [u32],
    order: &'p [u32],
    /// The release-wheel groups and their members.
    groups: &'p [SubstrateGroup],
    members: &'p [u32],
    horizon: Instant,
    timer_fire: Span,
    /// Event index of the first planned servable event; the others follow
    /// in plan order.
    sae_event_base: usize,

    // --- mutable run state ---
    now: Instant,
    threads: Vec<ThreadSlot>,
    /// The lanes, the hook table and the probe.
    world: ExecWorld<'p, P>,
    /// The install-time timers (per-lane replenishments and mode-change
    /// wake-ups); a fired one-shot moves to [`Instant::MAX`]. Servable-event
    /// fire timers are not materialized: the planned events are
    /// release-sorted, so a single cursor replays them.
    static_timers: Vec<Timer>,
    /// Next release instant of each wheel group.
    wheel: Vec<Instant>,
    sae_cursor: usize,
    /// Runtime-armed one-shots (SS chunk replenishments): (fire instant,
    /// arming index, event index). The engine creates them after every
    /// install-time and servable-event fire timer, so among timers due
    /// together they fire last, in arming order.
    dynamic: BinaryHeap<Reverse<(Instant, usize, usize)>>,
    /// Arming index of the next runtime-armed one-shot.
    next_timer_idx: usize,
    /// Ready/Computing bitmap indexed by dispatch rank (the runnable set
    /// under both policies).
    runnable: Vec<u64>,
    /// Best (smallest) rank made runnable since the last dispatch decision;
    /// the ceiling-gated preemption test compares it to the running rank.
    /// Fixed priorities only.
    woken_min_rank: u32,
    running: Option<(usize, u32)>,
    /// EDF ready heap, `(deadline, thread id)` min-first. An entry is live
    /// while its thread is runnable *and* still keyed by that deadline;
    /// stale entries are dropped lazily by [`Self::pick_edf`]. Empty under
    /// fixed priorities.
    ready_edf: BinaryHeap<Reverse<(Instant, usize)>>,
    pending_overhead: Span,
    /// Earliest instant at which anything can become due (timer, wheel grid
    /// point, planned release). Maintained exactly: recomputed by
    /// [`Self::drain`], lowered in place when a pump arms a timer. Lets the
    /// run loop skip the drain entirely between due points and reuse the
    /// value as the compute-slice preemption limit.
    next_due: Instant,
    zero_steps: u32,
    trace: Trace,
    /// The unit whose last compute slice ended with work remaining — the
    /// candidate for a preemption report when the next dispatch picks
    /// someone else. Only maintained when `P::ENABLED`.
    incomplete: Option<ExecUnit>,
    // --- reused scratch ---
    /// Runtime-armed one-shots due at one drain, as (arming index, event
    /// index); empty until a sporadic lane arms one.
    due_scratch: Vec<(usize, usize)>,
    /// The timers a pumped body arms, lent to its [`BodyCtx`] and drained
    /// in place; empty until a sporadic lane arms one.
    armed: Vec<(Instant, EventHandle)>,
}

impl<'p, P: Probe, const EDF: bool> FastDriver<'p, P, EDF> {
    fn new(plan: &'p ExecutionPlan<'_>, probe: P, scratch: &mut RunScratch) -> Self {
        let spec: &SystemSpec = &plan.spec;
        let config = &plan.config;
        let substrate = &plan.substrate;
        let thread_count = spec.servers.len() + spec.periodic_tasks.len();
        debug_assert_eq!(
            substrate.rank_of.len(),
            thread_count,
            "substrate was analyzed for a different system"
        );

        debug_assert!(
            scratch.threads.is_empty()
                && scratch.wheel.is_empty()
                && scratch.runnable.is_empty()
                && scratch.dynamic.is_empty()
                && scratch.ready_edf.is_empty()
                && scratch.due.is_empty()
                && scratch.armed.is_empty(),
            "a run starts from empty buffers"
        );

        // The servers as the install creates them (thread id = lane index),
        // then the periodic tasks.
        let Install {
            world,
            mut servers,
            timers,
            sae_base: sae_event_base,
        } = Install::new(spec, config, &plan.events, probe, &mut scratch.install);
        let mut threads = std::mem::take(&mut scratch.threads);
        threads.reserve(thread_count);
        threads.extend(servers.drain(..).map(|server| {
            ThreadSlot {
                body: Body::Server(server.body),
                periodic: server
                    .period
                    .map(|period| Periodic::new(Instant::ZERO, period, period)),
                status: Status::Ready(Completion::Started),
                deadline: server.deadline,
                wakeups: 0,
            }
        }));
        for task in &spec.periodic_tasks {
            let first = Instant::ZERO + task.offset;
            threads.push(ThreadSlot {
                body: Body::Task(PeriodicThreadBody::new(task.cost, ExecUnit::Task(task.id))),
                periodic: Some(Periodic::new(first, task.period, task.deadline)),
                status: Status::Ready(Completion::Started),
                deadline: first + task.deadline,
                wakeups: 0,
            });
        }
        scratch.install.servers = servers;

        // Steady-state allocation freedom: reserve the segment storage up
        // front (the install sized the outcome slot table and each lane's
        // queue).
        let mut trace = Trace::new(spec.horizon);
        trace.segments.reserve(substrate.segment_hint);

        let mut wheel = std::mem::take(&mut scratch.wheel);
        wheel.extend(substrate.groups.iter().map(|g| g.first));
        let mut runnable = std::mem::take(&mut scratch.runnable);
        runnable.resize(thread_count.div_ceil(64).max(1), 0);
        let mut driver = FastDriver {
            plan_events: &plan.events,
            rank_of: &substrate.rank_of,
            order: &substrate.order,
            groups: &substrate.groups,
            members: &substrate.members,
            horizon: spec.horizon,
            timer_fire: config.overhead.timer_fire,
            sae_event_base,
            now: Instant::ZERO,
            threads,
            world,
            static_timers: timers,
            wheel,
            sae_cursor: 0,
            dynamic: std::mem::take(&mut scratch.dynamic),
            next_timer_idx: 0,
            runnable,
            woken_min_rank: u32::MAX,
            running: None,
            ready_edf: std::mem::take(&mut scratch.ready_edf),
            pending_overhead: Span::ZERO,
            next_due: Instant::ZERO,
            zero_steps: 0,
            trace,
            incomplete: None,
            due_scratch: std::mem::take(&mut scratch.due),
            armed: std::mem::take(&mut scratch.armed),
        };
        for tid in 0..driver.threads.len() {
            driver.mark_runnable(tid);
        }
        driver
    }

    /// Finalises the run's trace and hands every working buffer back to
    /// `scratch`, empty.
    fn finish(self, spec: &SystemSpec, scratch: &mut RunScratch) -> Trace {
        let FastDriver {
            mut threads,
            world,
            mut static_timers,
            mut wheel,
            mut dynamic,
            mut runnable,
            mut ready_edf,
            mut trace,
            due_scratch,
            armed,
            ..
        } = self;
        let outcomes = world.into_outcomes(&mut scratch.install);
        finalise_trace(spec, outcomes, &mut trace, &mut scratch.finalise);
        threads.clear();
        static_timers.clear();
        wheel.clear();
        dynamic.clear();
        runnable.clear();
        ready_edf.clear();
        scratch.install.timers = static_timers;
        scratch.threads = threads;
        scratch.wheel = wheel;
        scratch.runnable = runnable;
        scratch.dynamic = dynamic;
        scratch.ready_edf = ready_edf;
        scratch.due = due_scratch;
        scratch.armed = armed;
        trace
    }

    #[inline]
    fn is_runnable(&self, tid: usize) -> bool {
        let rank = self.rank_of[tid];
        self.runnable[(rank / 64) as usize] & (1u64 << (rank % 64)) != 0
    }

    #[inline]
    fn mark_runnable(&mut self, tid: usize) {
        let rank = self.rank_of[tid];
        if EDF {
            if !self.is_runnable(tid) {
                self.runnable[(rank / 64) as usize] |= 1u64 << (rank % 64);
                self.ready_edf
                    .push(Reverse((self.threads[tid].deadline, tid)));
            }
        } else {
            self.runnable[(rank / 64) as usize] |= 1u64 << (rank % 64);
            self.woken_min_rank = self.woken_min_rank.min(rank);
        }
    }

    #[inline]
    fn unmark_runnable(&mut self, tid: usize) {
        let rank = self.rank_of[tid];
        self.runnable[(rank / 64) as usize] &= !(1u64 << (rank % 64));
    }

    /// Re-keys a thread's EDF deadline. A runnable thread gets a fresh heap
    /// entry (the old one turns stale); a no-op under fixed priorities.
    #[inline]
    fn set_deadline(&mut self, tid: usize, deadline: Instant) {
        if !EDF || self.threads[tid].deadline == deadline {
            return;
        }
        self.threads[tid].deadline = deadline;
        if self.is_runnable(tid) {
            self.ready_edf.push(Reverse((deadline, tid)));
        }
    }

    /// Highest-priority runnable thread: the first set bit of the rank
    /// bitmap (the substrate's static dispatch order).
    fn pick_scan(&self) -> Option<usize> {
        for (word_index, &word) in self.runnable.iter().enumerate() {
            if word != 0 {
                let rank = word_index * 64 + word.trailing_zeros() as usize;
                return Some(self.order[rank] as usize);
            }
        }
        None
    }

    /// Dispatch decision. Fixed priorities: the ceiling-gated fast resume —
    /// while the previously dispatched thread is still mid-computation and
    /// everything woken since the last decision ranks below it, it keeps the
    /// processor without a scan. EDF: [`Self::pick_edf`].
    // rt-lint: zero-alloc
    fn pick(&mut self) -> Option<usize> {
        if EDF {
            return self.pick_edf();
        }
        if let Some((tid, rank)) = self.running {
            if self.woken_min_rank > rank
                && matches!(self.threads[tid].status, Status::Computing { .. })
            {
                self.woken_min_rank = u32::MAX;
                return Some(tid);
            }
        }
        self.woken_min_rank = u32::MAX;
        let tid = self.pick_scan()?;
        self.running = Some((tid, self.rank_of[tid]));
        Some(tid)
    }

    /// Earliest-deadline runnable thread, ties to the earlier spawn: an
    /// amortized O(1) peek of the ready heap, dropping stale entries
    /// (threads no longer runnable or since re-keyed).
    // rt-lint: zero-alloc
    fn pick_edf(&mut self) -> Option<usize> {
        while let Some(&Reverse((deadline, tid))) = self.ready_edf.peek() {
            if self.is_runnable(tid) && self.threads[tid].deadline == deadline {
                return Some(tid);
            }
            self.ready_edf.pop();
        }
        None
    }

    fn note_progress(&mut self, advanced: Span) {
        if advanced.is_zero() {
            self.zero_steps += 1;
            assert!(
                self.zero_steps < MAX_ZERO_TIME_STEPS,
                "fast path made {MAX_ZERO_TIME_STEPS} scheduling decisions at {now} without \
                 advancing time: a ThreadBody is not making progress",
                now = self.now
            );
        } else {
            self.zero_steps = 0;
        }
    }

    /// Everything due at or before `now`: wheel releases first, then the
    /// timer fires replayed in (timer creation order, occurrence instant)
    /// order — the reference engine's exact semantics.
    fn drain(&mut self) {
        let (groups, members) = (self.groups, self.members);
        for (gi, group) in groups.iter().enumerate() {
            while self.wheel[gi] <= self.now {
                let mut released_any = false;
                for &tid in &members[group.members()] {
                    let tid = tid as usize;
                    let slot = &mut self.threads[tid];
                    if !matches!(slot.status, Status::BlockedForPeriod) {
                        continue;
                    }
                    // rt-lint: allow(panic, reason = "only periodic schedulables are enrolled in the timer wheel groups")
                    let periodic = slot.periodic.as_mut().expect("wheel members are periodic");
                    if periodic.next > self.now {
                        continue;
                    }
                    let deadline = periodic.release();
                    slot.status = match &mut slot.body {
                        Body::Task(body) if !P::ENABLED => start_period(body, self.now),
                        _ => Status::Ready(Completion::PeriodStarted),
                    };
                    if EDF {
                        self.set_deadline(tid, deadline);
                        self.mark_runnable(tid);
                    } else {
                        let rank = self.rank_of[tid];
                        self.runnable[(rank / 64) as usize] |= 1u64 << (rank % 64);
                        released_any = true;
                    }
                    if P::ENABLED {
                        self.world.probe.release(self.now);
                    }
                }
                if released_any {
                    // One O(1) update for the whole group: the precomputed
                    // ceiling is the best rank any member can contribute.
                    self.woken_min_rank = self.woken_min_rank.min(group.ceiling);
                }
                self.wheel[gi] += group.period;
            }
        }

        // The timer fires, in (timer creation order, occurrence instant)
        // order. A fire arms no timer, so each source fires in place: the
        // static timers in creation order, each periodic one's occurrences
        // in time order, then the release cursor in plan order (created
        // after every static timer). Only the runtime-armed one-shots,
        // created last and popped by instant, are put back in arming order.
        for index in 0..self.static_timers.len() {
            while self.static_timers[index].next <= self.now {
                let timer = &mut self.static_timers[index];
                let event = timer.event;
                timer.next = match timer.period {
                    Some(period) => timer.next + period,
                    None => Instant::MAX,
                };
                self.fire_timer(event);
            }
        }
        while self.sae_cursor < self.plan_events.len()
            && self.plan_events[self.sae_cursor].release <= self.now
        {
            let event = self.sae_event_base + self.sae_cursor;
            self.sae_cursor += 1;
            self.fire_timer(event);
        }
        let mut due = std::mem::take(&mut self.due_scratch);
        while let Some(&Reverse((at, index, event))) = self.dynamic.peek() {
            if at > self.now {
                break;
            }
            self.dynamic.pop();
            due.push((index, event));
        }
        due.sort_unstable();
        for &(_, event) in &due {
            self.fire_timer(event);
        }
        due.clear();
        self.due_scratch = due;
        self.next_due = self.earliest_due();
        debug_assert!(
            self.next_due > self.now,
            "drain must consume everything due"
        );
    }

    /// Recomputes the earliest-due instant over every timed source (the
    /// cache invariant of [`Self::next_due`]). A wheel group counts with its
    /// next grid point; a recording run counts only the releases of blocked
    /// members (see the module docs).
    fn earliest_due(&self) -> Instant {
        let mut next = Instant::MAX;
        for timer in &self.static_timers {
            next = next.min(timer.next);
        }
        if self.sae_cursor < self.plan_events.len() {
            next = next.min(self.plan_events[self.sae_cursor].release);
        }
        if let Some(&Reverse((at, _, _))) = self.dynamic.peek() {
            next = next.min(at);
        }
        if P::ENABLED {
            for &tid in self.members {
                let slot = &self.threads[tid as usize];
                if let (Status::BlockedForPeriod, Some(periodic)) = (slot.status, slot.periodic) {
                    next = next.min(periodic.next);
                }
            }
        } else {
            for &at in &self.wheel {
                next = next.min(at);
            }
        }
        next
    }

    /// Fires `event` from a timer: the engine charges the timer machinery's
    /// overhead, then fires it.
    fn fire_timer(&mut self, event: usize) {
        self.pending_overhead += self.timer_fire;
        self.fire_event(event);
    }

    /// Fires an event now: run its hook in the world, then wake or credit
    /// its lane's server when it is a `wakeUp` — the reference engine's
    /// `fire_event_now` over the hook table. Every hook fires at most one
    /// follow-up (its lane's hook-free `wakeUp`), so the cascade is a chain
    /// of at most two fires.
    fn fire_event(&mut self, event: usize) {
        let mut next = Some(event);
        while let Some(event) = next {
            if P::ENABLED {
                self.world.probe.fire(self.now);
            }
            next = self.world.hook(event, self.now);
            if let EventKind::Wakeup { lane } = self.world.kinds[event] {
                if matches!(self.threads[lane].status, Status::BlockedOnEvent) {
                    self.threads[lane].status = Status::Ready(Completion::EventFired);
                    self.mark_runnable(lane);
                } else {
                    self.threads[lane].wakeups = self.threads[lane].wakeups.saturating_add(1);
                }
            }
        }
    }

    /// Specialized pump for the periodic workers: [`PeriodicThreadBody`]
    /// never touches its ctx (debug-asserted in [`start_period`]), so the
    /// request plumbing of the generic pump is skipped, and an in-place
    /// release transitions straight into the computing state.
    fn pump_task(&mut self, tid: usize, completion: Completion) {
        let now = self.now;
        let slot = &mut self.threads[tid];
        let Body::Task(body) = &mut slot.body else {
            unreachable!("pump_task requires a periodic worker")
        };
        let no_world = &mut ();
        let mut ctx = BodyCtx::new(now, no_world);
        let action = body.next_action(&mut ctx, completion);
        debug_assert!(ctx.take_timer_requests().is_empty());
        debug_assert!(ctx.take_deadline_request().is_none());
        match action {
            Action::Compute { amount, unit } => {
                slot.status = start_compute(amount, unit);
            }
            Action::WaitForNextPeriod => self.wait_for_next_period(tid),
            _ => unreachable!("periodic workers only compute or wait for their period"),
        }
    }

    /// Applies [`Action::WaitForNextPeriod`]: a release already due is taken
    /// in place (the thread stays runnable, re-keyed to the fresh job's
    /// deadline; the wheel's grid point for it, if still ahead, drains as a
    /// no-op), otherwise the thread blocks until the wheel releases it.
    fn wait_for_next_period(&mut self, tid: usize) {
        let now = self.now;
        let slot = &mut self.threads[tid];
        let periodic = slot
            .periodic
            .as_mut()
            // rt-lint: allow(panic, reason = "WaitForNextPeriod is emitted only by periodic schedulables, which carry period parameters")
            .expect("WaitForNextPeriod requires a periodic schedulable");
        if periodic.next > now {
            let next = periodic.next;
            slot.status = Status::BlockedForPeriod;
            self.unmark_runnable(tid);
            if P::ENABLED {
                self.next_due = self.next_due.min(next);
            }
            return;
        }
        let deadline = periodic.release();
        slot.status = match &mut slot.body {
            Body::Task(body) if !P::ENABLED => start_period(body, now),
            _ => Status::Ready(Completion::PeriodStarted),
        };
        self.set_deadline(tid, deadline);
        if P::ENABLED {
            self.world.probe.release(now);
        }
    }

    /// Pumps a Ready thread's body once, applying its action and requests
    /// with the reference engine's ordering: deadline (ignored under fixed
    /// priorities), action, timers.
    fn pump(&mut self, tid: usize) {
        let completion = match self.threads[tid].status {
            Status::Ready(completion) => completion,
            _ => unreachable!("pump requires a Ready thread"),
        };
        if matches!(self.threads[tid].body, Body::Task(_)) {
            return self.pump_task(tid, completion);
        }
        let mut ctx = BodyCtx::new(self.now, &mut self.world)
            .with_timer_buffer(std::mem::take(&mut self.armed));
        let action = self.threads[tid].body.next_action(&mut ctx, completion);
        let mut timers = ctx.take_timer_requests();
        // Published first, so a release the action takes in place re-keys
        // over it; fixed-priority dispatch ignores deadlines.
        if let Some(deadline) = ctx.take_deadline_request() {
            self.set_deadline(tid, deadline);
        }

        match action {
            Action::Compute { amount, unit } => {
                self.threads[tid].status = if amount.is_zero() {
                    Status::Ready(Completion::Computed {
                        consumed: Span::ZERO,
                    })
                } else {
                    Status::Computing {
                        remaining: amount,
                        budget: None,
                        unit,
                        consumed: Span::ZERO,
                    }
                };
            }
            Action::ComputeInterruptible {
                amount,
                budget,
                unit,
            } => {
                self.threads[tid].status = if amount.is_zero() {
                    Status::Ready(Completion::Computed {
                        consumed: Span::ZERO,
                    })
                } else if budget.is_zero() {
                    Status::Ready(Completion::Interrupted {
                        consumed: Span::ZERO,
                    })
                } else {
                    Status::Computing {
                        remaining: amount,
                        budget: Some(budget),
                        unit,
                        consumed: Span::ZERO,
                    }
                };
            }
            Action::WaitForNextPeriod => self.wait_for_next_period(tid),
            Action::WaitForEvent(event) => {
                debug_assert!(
                    matches!(self.world.kinds[event.raw()], EventKind::Wakeup { lane } if lane == tid),
                    "a server body waits only on its own lane's wakeUp"
                );
                let slot = &mut self.threads[tid];
                if slot.wakeups > 0 {
                    slot.wakeups -= 1;
                    slot.status = Status::Ready(Completion::EventFired);
                } else {
                    slot.status = Status::BlockedOnEvent;
                    self.unmark_runnable(tid);
                }
            }
        }

        for (at, event) in timers.drain(..) {
            if at <= self.now {
                self.pending_overhead += self.timer_fire;
                self.fire_event(event.raw());
            } else {
                let index = self.next_timer_idx;
                self.next_timer_idx += 1;
                self.dynamic.push(Reverse((at, index, event.raw())));
                self.next_due = self.next_due.min(at);
            }
        }
        self.armed = timers;
    }

    /// The next instant the runnable set could change: the cached
    /// earliest-due instant — clamped to the horizon, floored one tick
    /// ahead. Spurious wheel points (a grid instant none of the group's
    /// members is blocked on) merely split a compute or idle span;
    /// `Trace::push_segment` merges the pieces back, so traces are
    /// unaffected (a recording run never stops at them).
    #[inline]
    fn next_preemption_time(&self) -> Instant {
        self.next_due
            .min(self.horizon)
            .max(self.now + Span::from_ticks(1))
    }

    /// The decision loop over the substrate tables.
    // rt-lint: zero-alloc
    fn run(&mut self) {
        while self.now < self.horizon {
            if self.now >= self.next_due {
                self.drain();
            }

            if !self.pending_overhead.is_zero() {
                let slice = self.pending_overhead.min(self.horizon.since(self.now));
                if P::ENABLED {
                    self.world
                        .probe
                        .slice(ExecUnit::TimerOverhead, self.now, self.now + slice);
                }
                self.trace
                    .push_segment(ExecUnit::TimerOverhead, self.now, self.now + slice);
                self.now += slice;
                self.pending_overhead = self.pending_overhead.minus(slice);
                self.note_progress(slice);
                continue;
            }

            if P::ENABLED {
                self.world.probe.decision(self.now);
            }
            let Some(tid) = self.pick() else {
                let next = self.next_preemption_time();
                debug_assert!(next > self.now);
                if P::ENABLED {
                    self.world.probe.slice(ExecUnit::Idle, self.now, next);
                }
                self.trace.push_segment(ExecUnit::Idle, self.now, next);
                self.now = next;
                self.zero_steps = 0;
                continue;
            };

            if matches!(self.threads[tid].status, Status::Ready(_)) {
                self.pump(tid);
                self.note_progress(Span::ZERO);
                // Fused dispatch (fixed priorities): when the pump left this
                // thread computing, woke nothing that outranks it and charged
                // no overhead, the next decision would re-pick it — slice
                // immediately. Under EDF the pump may have re-keyed anyone,
                // so the next decision always re-picks.
                if EDF
                    || !self.pending_overhead.is_zero()
                    || self.woken_min_rank <= self.rank_of[tid]
                    || !matches!(self.threads[tid].status, Status::Computing { .. })
                {
                    continue;
                }
                self.woken_min_rank = u32::MAX;
                if P::ENABLED {
                    self.world.probe.decision(self.now);
                }
            }

            let limit = self.next_preemption_time();
            debug_assert!(limit > self.now);
            let window = limit.since(self.now);
            let Status::Computing {
                remaining,
                budget,
                unit,
                consumed,
            } = &mut self.threads[tid].status
            else {
                unreachable!("pick returned a non-runnable thread");
            };
            let mut slice = (*remaining).min(window);
            if let Some(budget) = *budget {
                slice = slice.min(budget);
            }
            debug_assert!(!slice.is_zero(), "computations always make progress");
            let unit = *unit;
            if P::ENABLED {
                if let Some(prev) = self.incomplete.take() {
                    if prev != unit {
                        self.world.probe.preemption(prev, self.now);
                    }
                }
                self.world.probe.dispatch(unit, self.now);
                self.world.probe.slice(unit, self.now, self.now + slice);
            }
            self.trace.push_segment(unit, self.now, self.now + slice);
            self.now += slice;
            *remaining = remaining.minus(slice);
            *consumed += slice;
            if let Some(budget) = budget {
                *budget = budget.minus(slice);
            }
            if P::ENABLED {
                // A budget cut ends the job (the body sees `Interrupted`), so
                // only a genuinely unfinished computation is a preemption
                // candidate.
                self.incomplete =
                    (!remaining.is_zero() && *budget != Some(Span::ZERO)).then_some(unit);
            }
            if remaining.is_zero() {
                let consumed = *consumed;
                self.threads[tid].status = Status::Ready(Completion::Computed { consumed });
            } else if *budget == Some(Span::ZERO) {
                let consumed = *consumed;
                self.threads[tid].status = Status::Ready(Completion::Interrupted { consumed });
            }
            self.note_progress(slice);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::ExecutionConfig;
    use rt_model::{Priority, SchedulingPolicy, ServerSpec, SystemSpec};

    fn table1(policy: ServerPolicyKind, capacity: u64, events: &[(u64, u64)]) -> SystemSpec {
        let mut b = SystemSpec::builder("fastpath-table-1");
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

    /// The driver (`run`) against the linear-scan reference engine on one
    /// prepared plan.
    fn assert_fastpath_matches_the_reference(spec: &SystemSpec, config: &ExecutionConfig) {
        let plan = ExecutionPlan::prepare(spec, config).expect("valid spec");
        let reference = crate::execute_reference(spec, config);
        let fast = plan.run();
        assert_eq!(
            reference.render_canonical(),
            fast.render_canonical(),
            "{}: driver diverged from the reference ({:?})",
            spec.name,
            spec.scheduling
        );
        assert_eq!(reference, fast);
    }

    #[test]
    fn fastpath_matches_the_reference_across_policies_and_overheads() {
        let events: Vec<(u64, u64)> = (0..12).map(|i| (i * 3 + 1, 2)).collect();
        for policy in [
            ServerPolicyKind::Polling,
            ServerPolicyKind::Deferrable,
            ServerPolicyKind::Background,
            ServerPolicyKind::Sporadic,
        ] {
            let mut spec = table1(policy, 3, &events);
            for scheduling in [SchedulingPolicy::FixedPriority, SchedulingPolicy::Edf] {
                spec.scheduling = scheduling;
                for config in [ExecutionConfig::ideal(), ExecutionConfig::reference()] {
                    assert_fastpath_matches_the_reference(&spec, &config);
                }
            }
        }
    }

    #[test]
    fn fastpath_matches_the_reference_with_faults_and_mode_changes() {
        let mut spec = table1(ServerPolicyKind::Deferrable, 3, &[(0, 3), (4, 1), (9, 2)]);
        spec.faults = rt_model::FaultPlan::new()
            .overrun(spec.aperiodics[2].id, Span::from_units(2))
            .mode_change(
                rt_model::ModeChange::at(Instant::from_units(1), 0)
                    .with_capacity(Span::from_units(1)),
            );
        assert_fastpath_matches_the_reference(&spec, &ExecutionConfig::reference());

        let mut spec = table1(ServerPolicyKind::Deferrable, 2, &[(0, 2), (3, 2)]);
        spec.faults = rt_model::FaultPlan::new().mode_change(
            rt_model::ModeChange::at(Instant::from_units(4), 0)
                .with_policy(ServerPolicyKind::Sporadic)
                .with_capacity(Span::from_units(2))
                .with_period(Span::from_units(6)),
        );
        assert_fastpath_matches_the_reference(&spec, &ExecutionConfig::reference());
    }

    #[test]
    fn edf_keys_a_constrained_deadline_task_by_its_relative_deadline() {
        // tau2 has the lowest priority but a constrained deadline of 2: under
        // EDF its first job (deadline 2) runs before tau1's (deadline 6).
        let mut spec = table1(ServerPolicyKind::Deferrable, 3, &[(1, 2), (7, 2)]);
        spec.periodic_tasks[1].deadline = Span::from_units(2);
        spec.scheduling = SchedulingPolicy::Edf;
        assert_fastpath_matches_the_reference(&spec, &ExecutionConfig::ideal());
        assert_fastpath_matches_the_reference(&spec, &ExecutionConfig::reference());
        let trace = ExecutionPlan::prepare(&spec, &ExecutionConfig::ideal())
            .expect("valid spec")
            .run();
        let first = trace
            .segments
            .iter()
            .find(|s| matches!(s.unit, ExecUnit::Task(_)))
            .expect("the tasks run");
        assert_eq!(first.unit, ExecUnit::Task(spec.periodic_tasks[1].id));
    }

    #[test]
    fn substrate_ranks_follow_priority_then_spawn_order() {
        let spec = table1(ServerPolicyKind::Polling, 3, &[(0, 2)]);
        let substrate = SubstratePlan::analyze(&spec, SubstratePlan::default());
        // Server (priority 30) ranks first, then tau1 (20), then tau2 (10).
        assert_eq!(substrate.order, vec![0, 1, 2]);
        assert_eq!(substrate.rank_of, vec![0, 1, 2]);
        // One wheel group: all three share the (0, period 6) grid.
        assert_eq!(substrate.groups.len(), 1);
        assert_eq!(substrate.members[substrate.groups[0].members()], [0, 1, 2]);
        assert_eq!(substrate.groups[0].ceiling, 0);
        // Analysed again into the same buffers, it comes out the same.
        let again = SubstratePlan::analyze(&spec, substrate.clone());
        assert_eq!(again, substrate);
    }
}
