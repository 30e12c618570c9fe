//! The simulation driver behind [`crate::simulate`]: the RTSS decision loop
//! specialized over the frozen dispatch tables of a [`SimTables`].
//!
//! Every rule is the reference engine's rule (`crate::engine`'s linear-scan
//! simulator) — same decision points, same tie-breaks, same policy state
//! machines — but the *representation* is specialized per spec:
//!
//! * one [`Driver`] instantiation per server-policy kind × scheduling policy
//!   (selected by [`run`] from the table's [`PolicySet`]), so capacity
//!   accounting is direct field arithmetic with no enum dispatch and no
//!   per-call spec clones;
//! * the fixed-priority ready set is a [`ReadyBits`] occupancy bitmap
//!   (find-highest-set scan), with the reference scan's exact
//!   `(priority, lowest index)` tie-break by construction; the EDF ready set
//!   is a lazily re-keyed `(deadline, index)` heap;
//! * periodic releases ride a per-*rate-group* wheel: tasks sharing
//!   `(offset, period)` release together forever, so one heap entry covers
//!   the whole group (same-instant releases across groups land in disjoint
//!   per-task queues, so group order is unobservable);
//! * same-instant batching: between two decision points nothing new can
//!   become due (that is the definition of a decision point), so a runner
//!   keeps serving its own queue until the window closes, the queue drains
//!   or (for a server) capacity runs out, instead of paying a dispatcher
//!   re-entry per job — k coincident arrivals cost one dispatch, not k;
//! * when a task runner exits with the decision window still open, the
//!   driver re-picks *within the window* instead of paying a full
//!   `process_due_events` + `next_decision_point` re-entry: no event is due
//!   strictly inside a window, and a task runner cannot move a lane
//!   replenishment, so the re-pick is equivalent (a *server* runner can —
//!   sporadic consumption schedules replenishments — so server exits
//!   re-enter the full loop);
//! * admission is an inlined plan: `AcceptAll` lanes compile to an
//!   unconditional accept, stateful lanes embed the identical
//!   [`ServerAdmission`] machine through its allocation-free
//!   `on_arrival_into` entry point with a reused scratch buffer.
//!
//! # Per-decision allocations: zero
//!
//! All growth points are preallocated from the spec (trace vectors, job
//! queues, the wheel, the ready structures), so a steady-state decision
//! instant performs no heap allocation; the only amortised growth left is a
//! pending queue exceeding its initial estimate and the admission machine's
//! displacement repacks (O(backlog), overload-only). Byte-identity with the
//! reference engine is pinned by `tests/engine_differential.rs`, the
//! goldens and the seeded fuzzer.

use crate::tables::{ArrivalTable, LaneTable, PolicySet, SimTables};
use rt_admission::{AdmissionPolicy, ArrivingEvent, ServerAdmission};
use rt_model::{
    AperiodicFate, AperiodicOutcome, EventId, ExecUnit, Instant, ModeChange, PeriodicJobRecord,
    QueueDiscipline, SchedulingPolicy, Span, Trace,
};
use rt_observe::{AdmissionVerdict, Probe};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Runs the tables through the driver instantiation they select. Every probe
/// call site is gated on `PR::ENABLED`, so the [`rt_observe::NoopProbe`]
/// instantiation (the plain [`crate::simulate`] path) compiles to a
/// probe-free decision loop.
pub(crate) fn run<PR: Probe>(sys: &SimTables<'_>, probe: PR) -> Trace {
    match (sys.lane_set, sys.scheduling) {
        (PolicySet::Polling, SchedulingPolicy::FixedPriority) => {
            Driver::<CPolling, PR, false>::new(sys, probe).run()
        }
        (PolicySet::Polling, SchedulingPolicy::Edf) => {
            Driver::<CPolling, PR, true>::new(sys, probe).run()
        }
        (PolicySet::Deferrable, SchedulingPolicy::FixedPriority) => {
            Driver::<CDeferrable, PR, false>::new(sys, probe).run()
        }
        (PolicySet::Deferrable, SchedulingPolicy::Edf) => {
            Driver::<CDeferrable, PR, true>::new(sys, probe).run()
        }
        (PolicySet::Background, SchedulingPolicy::FixedPriority) => {
            Driver::<CBackground, PR, false>::new(sys, probe).run()
        }
        (PolicySet::Background, SchedulingPolicy::Edf) => {
            Driver::<CBackground, PR, true>::new(sys, probe).run()
        }
        (PolicySet::Sporadic, SchedulingPolicy::FixedPriority) => {
            Driver::<CSporadic, PR, false>::new(sys, probe).run()
        }
        (PolicySet::Sporadic, SchedulingPolicy::Edf) => {
            Driver::<CSporadic, PR, true>::new(sys, probe).run()
        }
        (PolicySet::Mixed, SchedulingPolicy::FixedPriority) => {
            Driver::<AnyLanePolicy, PR, false>::new(sys, probe).run()
        }
        (PolicySet::Mixed, SchedulingPolicy::Edf) => {
            Driver::<AnyLanePolicy, PR, true>::new(sys, probe).run()
        }
    }
}

/// The capacity state machine of one lane: the same policy rules as the
/// reference engine's [`crate::server::ServerState`], but monomorphized — statics come from the
/// borrowed [`LaneTable`], so there is no per-call spec clone and (outside
/// [`AnyLanePolicy`]) no dispatch.
pub(crate) trait LanePolicy {
    /// State as it is just before time zero.
    fn init(table: &LaneTable) -> Self;
    /// Applies every replenishment due at or before `now`.
    fn replenish_due(&mut self, table: &LaneTable, now: Instant, queue_empty: bool);
    /// Debits `amount` for a slice that started at `start`.
    fn consume(&mut self, table: &LaneTable, amount: Span, start: Instant);
    /// The pending queue just became empty at `now`.
    fn on_queue_emptied(&mut self, table: &LaneTable, now: Instant);
    /// Capacity currently available.
    fn available(&self) -> Span;
    /// Next instant the capacity can grow.
    fn next_replenishment(&self) -> Instant;
    /// Whether the policy maintains a finite capacity.
    fn is_capacity_limited(&self) -> bool;
    /// Replenishment-derived EDF deadline.
    fn edf_deadline(&self, table: &LaneTable, now: Instant) -> Instant;
    /// Applies one validated mode-change record at a quiescent instant;
    /// `table` already carries the post-change statics. Mirrors the
    /// reference `ServerState::reconfigure`: a capacity change clamps the
    /// available capacity to the new ceiling, a policy swap (only reachable
    /// through [`AnyLanePolicy`] — table building forces the mixed lane when
    /// the plan swaps policies) rebuilds the state fresh.
    fn reconfigure(&mut self, table: &LaneTable, change: &ModeChange);
}

/// Polling Server: full capacity at each activation, forfeited when idle.
#[derive(Debug, Clone)]
pub(crate) struct CPolling {
    capacity: Span,
    next_rep: Instant,
}

impl LanePolicy for CPolling {
    fn init(_table: &LaneTable) -> Self {
        CPolling {
            capacity: Span::ZERO,
            next_rep: Instant::ZERO,
        }
    }

    fn replenish_due(&mut self, table: &LaneTable, now: Instant, queue_empty: bool) {
        let mut replenished = false;
        while self.next_rep <= now {
            self.capacity = table.capacity;
            self.next_rep += table.period;
            replenished = true;
        }
        if replenished && queue_empty {
            self.capacity = Span::ZERO;
        }
    }

    fn consume(&mut self, _table: &LaneTable, amount: Span, _start: Instant) {
        debug_assert!(amount <= self.capacity, "server executed beyond capacity");
        self.capacity = self.capacity.saturating_sub(amount);
    }

    fn on_queue_emptied(&mut self, _table: &LaneTable, _now: Instant) {
        self.capacity = Span::ZERO;
    }

    fn available(&self) -> Span {
        self.capacity
    }

    fn next_replenishment(&self) -> Instant {
        self.next_rep
    }

    fn is_capacity_limited(&self) -> bool {
        true
    }

    fn edf_deadline(&self, _table: &LaneTable, _now: Instant) -> Instant {
        self.next_rep
    }

    fn reconfigure(&mut self, table: &LaneTable, change: &ModeChange) {
        debug_assert!(change.policy.is_none(), "no swap reaches a mono lane");
        if change.capacity.is_some() {
            self.capacity = self.capacity.min(table.capacity);
        }
    }
}

/// Deferrable Server: capacity preserved while idle, refilled every period.
#[derive(Debug, Clone)]
pub(crate) struct CDeferrable {
    capacity: Span,
    next_rep: Instant,
}

impl LanePolicy for CDeferrable {
    fn init(_table: &LaneTable) -> Self {
        CDeferrable {
            capacity: Span::ZERO,
            next_rep: Instant::ZERO,
        }
    }

    fn replenish_due(&mut self, table: &LaneTable, now: Instant, _queue_empty: bool) {
        while self.next_rep <= now {
            self.capacity = table.capacity;
            self.next_rep += table.period;
        }
    }

    fn consume(&mut self, _table: &LaneTable, amount: Span, _start: Instant) {
        debug_assert!(amount <= self.capacity, "server executed beyond capacity");
        self.capacity = self.capacity.saturating_sub(amount);
    }

    fn on_queue_emptied(&mut self, _table: &LaneTable, _now: Instant) {}

    fn available(&self) -> Span {
        self.capacity
    }

    fn next_replenishment(&self) -> Instant {
        self.next_rep
    }

    fn is_capacity_limited(&self) -> bool {
        true
    }

    fn edf_deadline(&self, _table: &LaneTable, _now: Instant) -> Instant {
        self.next_rep
    }

    fn reconfigure(&mut self, table: &LaneTable, change: &ModeChange) {
        debug_assert!(change.policy.is_none(), "no swap reaches a mono lane");
        if change.capacity.is_some() {
            self.capacity = self.capacity.min(table.capacity);
        }
    }
}

/// Background servicing: no capacity limit, no replenishments.
#[derive(Debug, Clone)]
pub(crate) struct CBackground;

impl LanePolicy for CBackground {
    fn init(_table: &LaneTable) -> Self {
        CBackground
    }

    fn replenish_due(&mut self, _table: &LaneTable, _now: Instant, _queue_empty: bool) {}

    fn consume(&mut self, _table: &LaneTable, _amount: Span, _start: Instant) {}

    fn on_queue_emptied(&mut self, _table: &LaneTable, _now: Instant) {}

    fn available(&self) -> Span {
        Span::MAX
    }

    fn next_replenishment(&self) -> Instant {
        Instant::MAX
    }

    fn is_capacity_limited(&self) -> bool {
        false
    }

    fn edf_deadline(&self, _table: &LaneTable, _now: Instant) -> Instant {
        Instant::MAX
    }

    fn reconfigure(&mut self, _table: &LaneTable, change: &ModeChange) {
        debug_assert!(change.policy.is_none(), "no swap reaches a mono lane");
    }
}

/// Sporadic Server: per-chunk replenishment one period after the chunk's
/// anchor (`rtss_sim`'s simplified Sprunt rule, verbatim).
#[derive(Debug, Clone)]
pub(crate) struct CSporadic {
    capacity: Span,
    /// Scheduled replenishments `(when, amount)`, time-ordered (anchors are
    /// nondecreasing).
    pending: VecDeque<(Instant, Span)>,
    anchor: Option<Instant>,
    consumed: Span,
}

impl CSporadic {
    fn close_chunk(&mut self, table: &LaneTable) {
        if let Some(anchor) = self.anchor.take() {
            if !self.consumed.is_zero() {
                self.pending
                    .push_back((anchor + table.period, self.consumed));
            }
            self.consumed = Span::ZERO;
        }
    }
}

impl LanePolicy for CSporadic {
    fn init(table: &LaneTable) -> Self {
        CSporadic {
            capacity: table.capacity,
            pending: VecDeque::new(),
            anchor: None,
            consumed: Span::ZERO,
        }
    }

    fn replenish_due(&mut self, table: &LaneTable, now: Instant, _queue_empty: bool) {
        while let Some(&(when, amount)) = self.pending.front() {
            if when > now {
                break;
            }
            self.pending.pop_front();
            self.capacity = (self.capacity + amount).min(table.capacity);
        }
    }

    fn consume(&mut self, table: &LaneTable, amount: Span, start: Instant) {
        debug_assert!(amount <= self.capacity, "server executed beyond capacity");
        if self.anchor.is_none() {
            self.anchor = Some(start);
        }
        let debit = amount.min(self.capacity);
        self.capacity = self.capacity.minus(debit);
        self.consumed += debit;
        if self.capacity.is_zero() {
            self.close_chunk(table);
        }
    }

    fn on_queue_emptied(&mut self, table: &LaneTable, _now: Instant) {
        self.close_chunk(table);
    }

    fn available(&self) -> Span {
        self.capacity
    }

    fn next_replenishment(&self) -> Instant {
        self.pending
            .front()
            .map(|&(when, _)| when)
            .unwrap_or(Instant::MAX)
    }

    fn is_capacity_limited(&self) -> bool {
        true
    }

    fn edf_deadline(&self, table: &LaneTable, now: Instant) -> Instant {
        match (self.anchor, self.pending.front()) {
            (Some(anchor), _) => anchor + table.period,
            (None, Some(&(when, _))) => when,
            (None, None) => now + table.period,
        }
    }

    fn reconfigure(&mut self, table: &LaneTable, change: &ModeChange) {
        debug_assert!(change.policy.is_none(), "no swap reaches a mono lane");
        if change.capacity.is_some() {
            self.capacity = self.capacity.min(table.capacity);
        }
    }
}

/// Fallback for systems mixing server-policy kinds: a per-call kind branch,
/// still clone-free.
#[derive(Debug, Clone)]
pub(crate) enum AnyLanePolicy {
    Polling(CPolling),
    Deferrable(CDeferrable),
    Background(CBackground),
    Sporadic(CSporadic),
}

macro_rules! any_lane {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyLanePolicy::Polling($p) => $body,
            AnyLanePolicy::Deferrable($p) => $body,
            AnyLanePolicy::Background($p) => $body,
            AnyLanePolicy::Sporadic($p) => $body,
        }
    };
}

impl LanePolicy for AnyLanePolicy {
    fn init(table: &LaneTable) -> Self {
        use rt_model::ServerPolicyKind as K;
        match table.kind {
            K::Polling => AnyLanePolicy::Polling(CPolling::init(table)),
            K::Deferrable => AnyLanePolicy::Deferrable(CDeferrable::init(table)),
            K::Background => AnyLanePolicy::Background(CBackground::init(table)),
            K::Sporadic => AnyLanePolicy::Sporadic(CSporadic::init(table)),
        }
    }

    fn replenish_due(&mut self, table: &LaneTable, now: Instant, queue_empty: bool) {
        any_lane!(self, p => p.replenish_due(table, now, queue_empty))
    }

    fn consume(&mut self, table: &LaneTable, amount: Span, start: Instant) {
        any_lane!(self, p => p.consume(table, amount, start))
    }

    fn on_queue_emptied(&mut self, table: &LaneTable, now: Instant) {
        any_lane!(self, p => p.on_queue_emptied(table, now))
    }

    fn available(&self) -> Span {
        any_lane!(self, p => p.available())
    }

    fn next_replenishment(&self) -> Instant {
        any_lane!(self, p => p.next_replenishment())
    }

    fn is_capacity_limited(&self) -> bool {
        any_lane!(self, p => p.is_capacity_limited())
    }

    fn edf_deadline(&self, table: &LaneTable, now: Instant) -> Instant {
        any_lane!(self, p => p.edf_deadline(table, now))
    }

    fn reconfigure(&mut self, table: &LaneTable, change: &ModeChange) {
        if change.policy.is_some() {
            // `table.kind` already names the swap target: rebuild the variant
            // fresh (full capacity, no pending replenishments, no open
            // chunk), the reference swap semantics.
            *self = AnyLanePolicy::init(table);
        } else {
            any_lane!(self, p => p.reconfigure(table, change))
        }
    }
}

/// The inlined admission plan of one lane.
enum LaneAdmission {
    /// `AcceptAll`: unconditional accept (the reference engine's machine
    /// only bumps counters the trace never sees).
    Pass,
    /// Stateful policy: the identical machine the reference engine embeds.
    Machine(ServerAdmission),
}

/// One pending aperiodic job (indexes the frozen arrival table).
#[derive(Debug, Clone, Copy)]
struct ApJob {
    arrival: u32,
    remaining: Span,
    /// Enforced service cap left (the frozen [`ArrivalTable::cap`] counting
    /// down); hitting zero with work remaining is an enforcement abort.
    cap_left: Span,
    started: Option<Instant>,
    deadline: Instant,
}

/// One pending periodic job.
#[derive(Debug, Clone, Copy)]
struct PJob {
    activation: u64,
    release: Instant,
    deadline: Instant,
    remaining: Span,
}

/// One server lane.
struct Lane<P> {
    policy: P,
    queue: VecDeque<ApJob>,
    admission: LaneAdmission,
}

impl<P: LanePolicy> Lane<P> {
    fn is_ready(&self) -> bool {
        !self.queue.is_empty() && !self.policy.available().is_zero()
    }
}

/// The fixed-priority ready set as an occupancy bitmap: one 256-bit priority
/// occupancy word plus one task-index row per priority level. `peek` is the
/// highest set priority bit then the lowest set index bit — exactly the
/// reference scan's pick (highest priority, ties to the lowest index) — with
/// no comparisons. Bits are cleared eagerly when a queue drains.
struct ReadyBits {
    /// Words per priority row (`ceil(tasks / 64)`, at least 1).
    words: usize,
    /// Which priority levels have at least one ready task.
    occ: [u64; 4],
    /// Per-priority task-index bitmaps, 256 rows of `words` words.
    rows: Vec<u64>,
}

impl ReadyBits {
    fn new(tasks: usize) -> Self {
        let words = tasks.div_ceil(64).max(1);
        ReadyBits {
            words,
            occ: [0; 4],
            rows: vec![0; 256 * words],
        }
    }

    fn mark(&mut self, level: u8, index: usize) {
        let level = level as usize;
        self.rows[level * self.words + index / 64] |= 1u64 << (index % 64);
        self.occ[level / 64] |= 1u64 << (level % 64);
    }

    fn clear(&mut self, level: u8, index: usize) {
        let level = level as usize;
        let row = &mut self.rows[level * self.words..(level + 1) * self.words];
        row[index / 64] &= !(1u64 << (index % 64));
        if row.iter().all(|&w| w == 0) {
            self.occ[level / 64] &= !(1u64 << (level % 64));
        }
    }

    /// Highest ready priority level and its lowest task index.
    fn peek(&self) -> Option<(u8, usize)> {
        let (word, bits) = (0..4)
            .rev()
            .map(|w| (w, self.occ[w]))
            .find(|&(_, b)| b != 0)?;
        let level = word * 64 + (63 - bits.leading_zeros() as usize);
        let row = &self.rows[level * self.words..(level + 1) * self.words];
        let (k, w) = row
            .iter()
            .enumerate()
            .find(|&(_, &w)| w != 0)
            .map(|(k, &w)| (k, w))
            // rt-lint: allow(panic, reason = "the priority level was found via its non-zero occupancy summary bit, so one word in it is non-zero")
            .expect("occupied priority level has a set index bit");
        Some((level as u8, k * 64 + w.trailing_zeros() as usize))
    }
}

/// Which entity the driver decided to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Runner {
    Server(usize),
    Task(usize),
}

/// The monomorphized decision loop: one instantiation per lane-policy type ×
/// scheduling policy (`EDF` const-folds the dispatcher branch away).
struct Driver<'a, P, PR, const EDF: bool> {
    sys: &'a SimTables<'a>,
    now: Instant,
    /// Per-task pending job queues (indexes match `sys.tasks`).
    pending: Vec<VecDeque<PJob>>,
    lanes: Vec<Lane<P>>,
    /// Per-run lane statics: borrowed straight from `sys.lanes` on the
    /// fault-free path, copied only when the plan schedules mode changes
    /// (applied changes reconfigure the copy).
    tables: Cow<'a, [LaneTable]>,
    /// Which mode-change records have been applied (per-record flags, not a
    /// cursor: a busy lane defers its record without blocking other lanes').
    mode_applied: Vec<bool>,
    orphans: Vec<u32>,
    next_arrival: usize,
    /// The release wheel: min-first by `(next release, group index)`; one
    /// live entry per rate group, below the horizon.
    wheel: BinaryHeap<Reverse<(Instant, u32)>>,
    /// Releases taken so far per group (the members' activation counter).
    released: Vec<u64>,
    /// Fixed-priority ready set (unused under EDF).
    ready: ReadyBits,
    /// EDF ready set, min-first by `(front-job deadline, task index)`; an
    /// entry is live only while its task's front job still carries the
    /// recorded deadline (unused under fixed priorities).
    ready_edf: BinaryHeap<Reverse<(Instant, usize)>>,
    /// Whether task `i` has pending jobs (EDF staleness check).
    has_pending: Vec<bool>,
    /// Reused buffer for admission-displaced event ids.
    aborted_scratch: Vec<EventId>,
    /// The observation hooks. Every call site is gated on `PR::ENABLED`, so
    /// the [`rt_observe::NoopProbe`] instantiation compiles to a probe-free
    /// loop.
    probe: PR,
    /// The unit whose last slice ended with work remaining — the candidate
    /// for a preemption report when the next dispatch picks someone else.
    /// Only maintained when `PR::ENABLED`.
    incomplete: Option<ExecUnit>,
    trace: Trace,
}

impl<'a, P: LanePolicy, PR: Probe, const EDF: bool> Driver<'a, P, PR, EDF> {
    fn new(sys: &'a SimTables<'a>, probe: PR) -> Self {
        let mut wheel = BinaryHeap::with_capacity(sys.groups.len());
        for (g, group) in sys.groups.iter().enumerate() {
            if group.first < sys.horizon {
                wheel.push(Reverse((group.first, g as u32)));
            }
        }
        let lanes = sys
            .lanes
            .iter()
            .map(|table| Lane {
                policy: P::init(table),
                queue: VecDeque::new(),
                admission: if table.admission == AdmissionPolicy::AcceptAll {
                    LaneAdmission::Pass
                } else {
                    LaneAdmission::Machine(ServerAdmission::for_server(&table.spec))
                },
            })
            .collect();
        let mut trace = Trace::new(sys.horizon);
        trace.segments.reserve(sys.segment_hint);
        trace.outcomes.reserve(sys.arrival_count);
        trace.periodic_jobs.reserve(sys.job_count);
        Driver {
            sys,
            now: Instant::ZERO,
            pending: sys.tasks.iter().map(|_| VecDeque::new()).collect(),
            lanes,
            tables: if sys.spec().faults.mode_changes.is_empty() {
                Cow::Borrowed(&sys.lanes[..])
            } else {
                Cow::Owned(sys.lanes.clone())
            },
            mode_applied: vec![false; sys.spec().faults.mode_changes.len()],
            orphans: Vec::new(),
            next_arrival: 0,
            wheel,
            released: vec![0; sys.groups.len()],
            ready: ReadyBits::new(if EDF { 0 } else { sys.tasks.len() }),
            ready_edf: BinaryHeap::new(),
            has_pending: vec![false; sys.tasks.len()],
            aborted_scratch: Vec::new(),
            probe,
            incomplete: None,
            trace,
        }
    }

    fn run(mut self) -> Trace {
        if PR::ENABLED {
            self.probe.attach(self.lanes.len());
        }
        while self.now < self.sys.horizon {
            self.process_due_events();
            let next = self.next_decision_point();
            debug_assert!(next > self.now, "decision points must advance time");
            // Window inner loop: re-pick without a full dispatcher re-entry
            // while only *task* runners have executed — nothing is due
            // strictly inside the window and tasks cannot move lane
            // replenishments, so `process_due_events` would be a no-op and
            // the decision point is unchanged. A server runner CAN schedule
            // an earlier replenishment (sporadic consumption), so it breaks
            // back to the full loop.
            loop {
                // One `decision` report per `pick_runner` call: a probe
                // counts dispatcher picks, whichever loop level makes them.
                if PR::ENABLED {
                    self.probe.decision(self.now);
                }
                match self.pick_runner() {
                    None => {
                        if PR::ENABLED {
                            self.probe.slice(ExecUnit::Idle, self.now, next);
                        }
                        self.trace.push_segment(ExecUnit::Idle, self.now, next);
                        self.now = next;
                        break;
                    }
                    Some(Runner::Server(s)) => {
                        self.run_server(s, next);
                        break;
                    }
                    Some(Runner::Task(i)) => {
                        self.run_task(i, next);
                        if self.now >= next {
                            break;
                        }
                    }
                }
            }
        }
        self.finalise();
        self.trace
    }

    /// Marks task `i` ready in the active policy's structure. Must be called
    /// after the job was pushed; only acts on the empty→non-empty transition
    /// (under EDF the heap entry is keyed by the front job's deadline).
    fn mark_ready(&mut self, i: usize) {
        if !self.has_pending[i] {
            self.has_pending[i] = true;
            if EDF {
                let deadline = self.pending[i]
                    .front()
                    // rt-lint: allow(panic, reason = "mark_ready is called exactly when a job was pushed onto this queue")
                    .expect("mark_ready requires a pending job")
                    .deadline;
                self.ready_edf.push(Reverse((deadline, i)));
            } else {
                self.ready.mark(self.sys.tasks[i].priority.level(), i);
            }
        }
    }

    fn process_due_events(&mut self) {
        let sys = self.sys;
        // Mode changes first: a same-instant arrival must be admitted under
        // the reconfigured lane, the reference ordering.
        self.apply_due_mode_changes();
        // Aperiodic arrivals next (visible to a same-instant activation),
        // in spec order — the admission machines are order-sensitive.
        while self.next_arrival < sys.arrival_count
            && sys.arrival_release(self.next_arrival) <= self.now
        {
            let arrival = sys.arrival(self.next_arrival);
            let index = self.next_arrival as u32;
            self.next_arrival += 1;
            if PR::ENABLED {
                self.probe.release(self.now);
            }
            match self.lanes.get_mut(arrival.server) {
                Some(lane) => {
                    let mut scratch = std::mem::take(&mut self.aborted_scratch);
                    let accepted = match &mut lane.admission {
                        LaneAdmission::Pass => true,
                        LaneAdmission::Machine(m) => {
                            m.on_arrival_into(
                                &ArrivingEvent {
                                    event: arrival.id,
                                    release: arrival.release,
                                    declared_cost: arrival.declared_cost,
                                    deadline: arrival.deadline,
                                    value: arrival.value,
                                },
                                &mut scratch,
                            )
                            .0
                        }
                    };
                    for &aborted in &scratch {
                        self.abort_pending(arrival.server, aborted);
                    }
                    scratch.clear();
                    self.aborted_scratch = scratch;
                    if accepted {
                        self.lanes[arrival.server].queue.push_back(ApJob {
                            arrival: index,
                            remaining: arrival.demand,
                            cap_left: arrival.cap,
                            started: None,
                            deadline: arrival.lane_deadline,
                        });
                        if PR::ENABLED {
                            self.probe.admission(
                                arrival.server,
                                AdmissionVerdict::Accepted,
                                self.now,
                            );
                            let depth = self.lanes[arrival.server].queue.len() as u64;
                            self.probe.queue_depth(arrival.server, depth);
                        }
                    } else {
                        if PR::ENABLED {
                            self.probe.admission(
                                arrival.server,
                                AdmissionVerdict::Rejected,
                                self.now,
                            );
                        }
                        self.trace.push_outcome(outcome(
                            &arrival,
                            AperiodicFate::Rejected { at: self.now },
                        ));
                    }
                }
                None => self.orphans.push(index),
            }
        }
        // Periodic releases: pop due rate groups, release one job per
        // member. Jobs of distinct tasks land in disjoint queues and the
        // ready structures are order-insensitive within one instant, so
        // group-pop order and the reference per-task order coincide
        // observationally.
        while let Some(&Reverse((at, g))) = self.wheel.peek() {
            if at > self.now {
                break;
            }
            self.wheel.pop();
            let g = g as usize;
            let group = &sys.groups[g];
            let activation = self.released[g];
            for &m in &group.members {
                let m = m as usize;
                let task = &sys.tasks[m];
                self.pending[m].push_back(PJob {
                    activation,
                    release: at,
                    deadline: at + task.deadline,
                    remaining: task.cost,
                });
                if PR::ENABLED {
                    self.probe.release(self.now);
                }
                self.mark_ready(m);
            }
            self.released[g] = activation + 1;
            let next = group.first + group.period.saturating_mul(activation + 1);
            if next < sys.horizon {
                self.wheel.push(Reverse((next, g as u32)));
            }
        }
        // Lane replenishments, in install order.
        for (lane, table) in self.lanes.iter_mut().zip(self.tables.iter()) {
            let queue_empty = lane.queue.is_empty();
            lane.policy.replenish_due(table, self.now, queue_empty);
        }
    }

    /// Applies every mode change due at the current instant whose lane is
    /// quiescent — no in-service (started, unfinished) job in its queue; a
    /// busy lane keeps its record pending and retries at the next decision
    /// point. Applying a record rewrites the lane's run-local statics,
    /// reconfigures its policy state and rebuilds the admission plan from
    /// the updated spec (the admitted backlog is grandfathered), exactly the
    /// reference engine's rule.
    fn apply_due_mode_changes(&mut self) {
        let sys = self.sys;
        if sys.spec().faults.mode_changes.is_empty() {
            return;
        }
        for (k, change) in sys.spec().faults.mode_changes.iter().enumerate() {
            if self.mode_applied[k] || change.at > self.now {
                continue;
            }
            if self.lanes[change.server]
                .queue
                .iter()
                .any(|job| job.started.is_some())
            {
                continue;
            }
            let table = &mut self.tables.to_mut()[change.server];
            if let Some(capacity) = change.capacity {
                table.spec.capacity = capacity;
            }
            if let Some(period) = change.period {
                table.spec.period = period;
            }
            if let Some(discipline) = change.discipline {
                table.spec.discipline = discipline;
            }
            if let Some(admission) = change.admission {
                table.spec.admission = admission;
            }
            if let Some(kind) = change.policy {
                table.spec.policy = kind;
            }
            table.kind = table.spec.policy;
            table.capacity = table.spec.capacity;
            table.period = table.spec.period;
            table.discipline = table.spec.discipline;
            table.admission = table.spec.admission;
            let lane = &mut self.lanes[change.server];
            lane.policy.reconfigure(table, change);
            lane.admission = if table.admission == AdmissionPolicy::AcceptAll {
                LaneAdmission::Pass
            } else {
                LaneAdmission::Machine(ServerAdmission::for_server(&table.spec))
            };
            self.mode_applied[k] = true;
            if PR::ENABLED {
                self.probe.mode_change(change.server, self.now);
            }
        }
    }

    /// Removes an admitted-but-displaced, never-started job from a lane's
    /// queue, recording it aborted (same in-service exemption as the
    /// reference engine).
    fn abort_pending(&mut self, lane_index: usize, event_id: EventId) {
        let sys = self.sys;
        let table = &self.tables[lane_index];
        let lane = &mut self.lanes[lane_index];
        let Some(position) = lane.queue.iter().position(|job| {
            job.started.is_none() && sys.arrival(job.arrival as usize).id == event_id
        }) else {
            return;
        };
        let job = lane
            .queue
            .remove(position)
            // rt-lint: allow(panic, reason = "the position was selected from this queue two lines above; losing it mid-dispatch is an engine bug worth a crash over a corrupted trace")
            .expect("position came from the queue");
        if lane.queue.is_empty() {
            lane.policy.on_queue_emptied(table, self.now);
        }
        if PR::ENABLED {
            self.probe
                .admission(lane_index, AdmissionVerdict::Aborted, self.now);
        }
        self.trace.push_outcome(outcome(
            &sys.arrival(job.arrival as usize),
            AperiodicFate::Aborted { at: self.now },
        ));
    }

    /// Next instant the scheduling decision could change: arrival cursor,
    /// wheel peek, capacity-limited lane replenishments — all O(1) per
    /// source (the capacity-limited test is const-folded per instantiation).
    fn next_decision_point(&self) -> Instant {
        let sys = self.sys;
        let mut next = sys.horizon;
        if self.next_arrival < sys.arrival_count {
            next = next.min(sys.arrival_release(self.next_arrival));
        }
        if let Some(&Reverse((at, _))) = self.wheel.peek() {
            next = next.min(at);
        }
        for lane in &self.lanes {
            if lane.policy.is_capacity_limited() {
                next = next.min(lane.policy.next_replenishment());
            }
        }
        for (k, change) in sys.spec().faults.mode_changes.iter().enumerate() {
            if !self.mode_applied[k] && change.at > self.now {
                next = next.min(change.at);
            }
        }
        next.max(self.now + Span::from_ticks(1))
            .min(sys.horizon.max(self.now + Span::from_ticks(1)))
    }

    fn pick_runner(&mut self) -> Option<Runner> {
        if EDF {
            self.pick_runner_edf()
        } else {
            self.pick_runner_fp()
        }
    }

    // rt-lint: zero-alloc
    fn pick_runner_fp(&mut self) -> Option<Runner> {
        let mut best_server: Option<(u8, usize)> = None;
        for (s, lane) in self.lanes.iter().enumerate() {
            if !lane.is_ready() {
                continue;
            }
            let level = self.tables[s].priority.level();
            match best_server {
                None => best_server = Some((level, s)),
                Some((p, _)) if level > p => best_server = Some((level, s)),
                _ => {}
            }
        }
        let top_task = self.ready.peek();
        match (best_server, top_task) {
            (None, None) => None,
            (Some((_, s)), None) => Some(Runner::Server(s)),
            (None, Some((_, i))) => Some(Runner::Task(i)),
            (Some((server_level, s)), Some((level, i))) => {
                // Strict preemption: equal priority goes to the server, the
                // reference tie-break.
                if level > server_level {
                    Some(Runner::Task(i))
                } else {
                    Some(Runner::Server(s))
                }
            }
        }
    }

    // rt-lint: zero-alloc
    fn pick_runner_edf(&mut self) -> Option<Runner> {
        let mut best_server: Option<(Instant, usize)> = None;
        for (s, lane) in self.lanes.iter().enumerate() {
            if !lane.is_ready() {
                continue;
            }
            let deadline = lane.policy.edf_deadline(&self.tables[s], self.now);
            match best_server {
                None => best_server = Some((deadline, s)),
                Some((d, _)) if deadline < d => best_server = Some((deadline, s)),
                _ => {}
            }
        }
        let top_task = loop {
            match self.ready_edf.peek() {
                None => break None,
                Some(&Reverse((deadline, i))) => {
                    let live = self.has_pending[i]
                        && self.pending[i]
                            .front()
                            .is_some_and(|job| job.deadline == deadline);
                    if live {
                        break Some((deadline, i));
                    }
                    self.ready_edf.pop();
                }
            }
        };
        match (best_server, top_task) {
            (None, None) => None,
            (Some((_, s)), None) => Some(Runner::Server(s)),
            (None, Some((_, i))) => Some(Runner::Task(i)),
            (Some((server_deadline, s)), Some((deadline, i))) => {
                // Ties go to the server, the reference scan order.
                if deadline < server_deadline {
                    Some(Runner::Task(i))
                } else {
                    Some(Runner::Server(s))
                }
            }
        }
    }

    /// Serves lane `s` until the window closes, capacity runs out or the
    /// queue drains (same-instant batching), with the policy calls inlined.
    // rt-lint: zero-alloc
    fn run_server(&mut self, s: usize, next: Instant) {
        let sys = self.sys;
        // A mode change deferred by the quiescence rule (due before this
        // window opened, lane busy then) may become applicable the moment a
        // job completes: force a dispatcher re-entry instead of batching on,
        // so the change lands at the same instant as in the reference
        // engine's one-job-per-dispatch loop.
        let deferred_change = sys
            .spec()
            .faults
            .mode_changes
            .iter()
            .enumerate()
            .any(|(k, c)| !self.mode_applied[k] && c.server == s && c.at <= self.now);
        let table = &self.tables[s];
        let lane = &mut self.lanes[s];
        loop {
            let position = match table.discipline {
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
            let window = next.since(self.now);
            let slice = job
                .remaining
                .min(job.cap_left)
                .min(lane.policy.available())
                .min(window);
            debug_assert!(!slice.is_zero(), "picked server cannot make progress");
            let arrival = sys.arrival(job.arrival as usize);
            if job.started.is_none() {
                job.started = Some(self.now);
            }
            if PR::ENABLED {
                let unit = ExecUnit::Handler(arrival.id);
                if let Some(prev) = self.incomplete.take() {
                    if prev != unit {
                        self.probe.preemption(prev, self.now);
                    }
                }
                self.probe.dispatch(unit, self.now);
                self.probe.slice(unit, self.now, self.now + slice);
            }
            self.trace
                .push_segment(ExecUnit::Handler(arrival.id), self.now, self.now + slice);
            job.remaining = job.remaining.minus(slice);
            job.cap_left = job.cap_left.minus(slice);
            if PR::ENABLED {
                self.incomplete = (!job.remaining.is_zero() && !job.cap_left.is_zero())
                    .then_some(ExecUnit::Handler(arrival.id));
            }
            lane.policy.consume(table, slice, self.now);
            self.now += slice;
            if job.remaining.is_zero() {
                // rt-lint: allow(panic, reason = "a job only completes after executing, and execution records the start instant")
                let started = job.started.expect("a completed job has started");
                self.trace.push_outcome(outcome(
                    &arrival,
                    AperiodicFate::Served {
                        started,
                        completed: self.now,
                    },
                ));
                lane.queue.remove(position);
                if lane.queue.is_empty() {
                    lane.policy.on_queue_emptied(table, self.now);
                }
            } else if job.cap_left.is_zero() {
                // Budget enforcement: the job exhausted its declared budget
                // with work remaining — cut it off, surface the overrun as an
                // abort and release its slot in the admission plan so
                // equation-(5) stops charging for work that will never run.
                if PR::ENABLED {
                    self.probe.cap_exhausted(s, self.now);
                }
                self.trace
                    .push_outcome(outcome(&arrival, AperiodicFate::Aborted { at: self.now }));
                lane.queue.remove(position);
                if lane.queue.is_empty() {
                    lane.policy.on_queue_emptied(table, self.now);
                }
                if let LaneAdmission::Machine(machine) = &mut lane.admission {
                    machine.on_abort(arrival.id, self.now);
                }
            }
            if self.now >= next || deferred_change || !lane.is_ready() {
                break;
            }
        }
    }

    /// Runs task `index` until the window closes or (under EDF) a completion
    /// forces a re-pick (same-instant batching).
    // rt-lint: zero-alloc
    fn run_task(&mut self, index: usize, next: Instant) {
        let task = &self.sys.tasks[index];
        let queue = &mut self.pending[index];
        loop {
            let job = queue
                .front_mut()
                // rt-lint: allow(panic, reason = "the task runner is entered only while the task has pending jobs")
                .expect("task runner requires pending work");
            let window = next.since(self.now);
            let slice = job.remaining.min(window);
            debug_assert!(!slice.is_zero());
            if PR::ENABLED {
                let unit = ExecUnit::Task(task.id);
                if let Some(prev) = self.incomplete.take() {
                    if prev != unit {
                        self.probe.preemption(prev, self.now);
                    }
                }
                self.probe.dispatch(unit, self.now);
                self.probe.slice(unit, self.now, self.now + slice);
            }
            self.trace
                .push_segment(ExecUnit::Task(task.id), self.now, self.now + slice);
            job.remaining = job.remaining.minus(slice);
            if PR::ENABLED && !job.remaining.is_zero() {
                self.incomplete = Some(ExecUnit::Task(task.id));
            }
            self.now += slice;
            if job.remaining.is_zero() {
                let done = *job;
                self.trace.push_periodic_job(PeriodicJobRecord {
                    task: task.id,
                    activation: done.activation,
                    release: done.release,
                    deadline: done.deadline,
                    completed: Some(self.now),
                });
                queue.pop_front();
                if queue.is_empty() {
                    self.has_pending[index] = false;
                    if !EDF {
                        self.ready.clear(task.priority.level(), index);
                    }
                    break;
                }
                if EDF {
                    // Re-key to the new front deadline and force a re-pick.
                    // rt-lint: allow(panic, reason = "the queue was checked non-empty in the branch condition just above")
                    let deadline = queue.front().expect("non-empty checked above").deadline;
                    self.ready_edf.push(Reverse((deadline, index)));
                    break;
                }
            }
            if self.now >= next {
                break;
            }
        }
    }

    fn finalise(&mut self) {
        let sys = self.sys;
        for lane in &mut self.lanes {
            for job in lane.queue.drain(..) {
                self.trace.push_outcome(outcome(
                    &sys.arrival(job.arrival as usize),
                    AperiodicFate::Unserved,
                ));
            }
        }
        for index in std::mem::take(&mut self.orphans) {
            self.trace.push_outcome(outcome(
                &sys.arrival(index as usize),
                AperiodicFate::Unserved,
            ));
        }
        for (i, queue) in self.pending.iter_mut().enumerate() {
            for job in queue.drain(..) {
                self.trace.push_periodic_job(PeriodicJobRecord {
                    task: sys.tasks[i].id,
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

/// Builds the outcome record of one frozen arrival.
fn outcome(arrival: &ArrivalTable, fate: AperiodicFate) -> AperiodicOutcome {
    AperiodicOutcome {
        event: arrival.id,
        release: arrival.release,
        declared_cost: arrival.declared_cost,
        value: arrival.value,
        deadline: arrival.deadline,
        fate,
    }
}
