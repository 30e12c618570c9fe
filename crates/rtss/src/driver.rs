//! The simulation driver behind [`crate::simulate`]: the RTSS decision loop
//! specialized over the frozen dispatch tables of a [`SimTables`].
//!
//! Every rule is the reference engine's rule (`crate::engine`'s linear-scan
//! simulator) — same tie-breaks, same policy state machines, the same trace
//! to the byte — but the *representation* is specialized per spec, and the
//! loop skips the decision points that cannot change a decision:
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
//! * per-service decisions: under fixed priorities a FIFO-with-skip lane
//!   serves through the arrivals of its window
//!   ([`Driver::serves_through_arrivals`]). An arrival routed to the lane
//!   in service changes neither the pick (the lane stays on top and every
//!   other runner stays as it was) nor the job in service (it stays at the
//!   FIFO front, and displacement spares started jobs), so it is admitted
//!   inside the slice at its release, and the service runs to the next
//!   decision point other than an arrival. An arrival routed to another
//!   lane ends the service at its release, and one due where a job ends
//!   goes back to `process_due_events` (a drain there can close a sporadic
//!   chunk inside the old window). EDF, deadline-ordered lanes, unapplied
//!   mode changes and recording probes keep one decision per arrival;
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
//!   `on_arrival_into` entry point with a reused scratch buffer;
//! * the outcome log is a slot table: slot `i` is in-horizon arrival `i`'s
//!   outcome, prefilled `Unserved`, and every fate is a store where it is
//!   decided, so finalisation drains no queue and its sort finds the log
//!   already in order (one linear pass) unless ids descend at one release.
//!
//! # Per-decision allocations: zero
//!
//! The trace vectors are sized up front (outcomes and periodic job records
//! exactly, segments to a hint), the wheel and the ready bitmap once. The
//! job queues, lane queues, EDF heap and sporadic replenishment queues grow
//! by doubling, as do the segments past their hint and the admission
//! machine's reused displacement buffers (overload-only), so a steady-state
//! decision instant allocates nothing. Byte-identity with the reference
//! engine is pinned by `tests/engine_differential.rs`, the goldens and the
//! seeded fuzzer.
//!
//! # Per-run allocations: the trace
//!
//! The lanes, the job queues, the wheel, the ready sets and the admission
//! buffer come from the thread's scratch ([`DriverScratch`]) with the
//! capacity earlier runs left them, and go back empty at the horizon; so
//! do the tables' buffers. After one run on a thread, a run allocates its
//! trace's segments and outcome slots, and grows a scratch buffer only when
//! it outsizes every earlier run.

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

/// Runs the tables through the driver instantiation they select, with the
/// working buffers of `scratch`, which it hands back empty. Every probe call
/// site is gated on `PR::ENABLED`, so the [`rt_observe::NoopProbe`]
/// instantiation (the plain [`crate::simulate`] path) compiles to a
/// probe-free decision loop.
pub(crate) fn run<PR: Probe>(sys: &SimTables<'_>, probe: PR, scratch: &mut DriverScratch) -> Trace {
    fn drive<P: LanePolicy, PR: Probe, const EDF: bool>(
        sys: &SimTables<'_>,
        probe: PR,
        scratch: &mut DriverScratch,
    ) -> Trace {
        Driver::<P, PR, EDF>::new(sys, probe, scratch).run(scratch)
    }
    match (sys.lane_set, sys.scheduling) {
        (PolicySet::Polling, SchedulingPolicy::FixedPriority) => {
            drive::<CPolling, PR, false>(sys, probe, scratch)
        }
        (PolicySet::Polling, SchedulingPolicy::Edf) => {
            drive::<CPolling, PR, true>(sys, probe, scratch)
        }
        (PolicySet::Deferrable, SchedulingPolicy::FixedPriority) => {
            drive::<CDeferrable, PR, false>(sys, probe, scratch)
        }
        (PolicySet::Deferrable, SchedulingPolicy::Edf) => {
            drive::<CDeferrable, PR, true>(sys, probe, scratch)
        }
        (PolicySet::Background, SchedulingPolicy::FixedPriority) => {
            drive::<CBackground, PR, false>(sys, probe, scratch)
        }
        (PolicySet::Background, SchedulingPolicy::Edf) => {
            drive::<CBackground, PR, true>(sys, probe, scratch)
        }
        (PolicySet::Sporadic, SchedulingPolicy::FixedPriority) => {
            drive::<CSporadic, PR, false>(sys, probe, scratch)
        }
        (PolicySet::Sporadic, SchedulingPolicy::Edf) => {
            drive::<CSporadic, PR, true>(sys, probe, scratch)
        }
        (PolicySet::Mixed, SchedulingPolicy::FixedPriority) => {
            drive::<AnyLanePolicy, PR, false>(sys, probe, scratch)
        }
        (PolicySet::Mixed, SchedulingPolicy::Edf) => {
            drive::<AnyLanePolicy, PR, true>(sys, probe, scratch)
        }
    }
}

/// Every buffer the driver uses but does not return, kept empty between
/// the runs of one thread ([`crate::scratch`]).
#[derive(Default)]
pub(crate) struct DriverScratch {
    lanes: LaneSlots,
    /// The job queues of the lanes of earlier runs.
    lane_queues: Vec<VecDeque<ApJob>>,
    pending: Vec<VecDeque<PJob>>,
    wheel: BinaryHeap<Reverse<(Instant, u32)>>,
    released: Vec<u64>,
    ready_rows: Vec<u64>,
    ready_edf: BinaryHeap<Reverse<(Instant, usize)>>,
    has_pending: Vec<bool>,
    aborted: Vec<EventId>,
    mode_applied: Vec<bool>,
}

/// The lane table of each lane-policy type, kept empty between runs: the
/// driver is generic over the type, so each instantiation keeps its own.
#[derive(Default)]
pub(crate) struct LaneSlots {
    polling: Vec<Lane<CPolling>>,
    deferrable: Vec<Lane<CDeferrable>>,
    background: Vec<Lane<CBackground>>,
    sporadic: Vec<Lane<CSporadic>>,
    mixed: Vec<Lane<AnyLanePolicy>>,
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
    /// This type's lane table in the scratch.
    fn slot(slots: &mut LaneSlots) -> &mut Vec<Lane<Self>>
    where
        Self: Sized;
}

/// Polling Server: full capacity at each activation, forfeited when idle.
#[derive(Debug, Clone)]
pub(crate) struct CPolling {
    capacity: Span,
    next_rep: Instant,
}

impl LanePolicy for CPolling {
    fn slot(slots: &mut LaneSlots) -> &mut Vec<Lane<Self>> {
        &mut slots.polling
    }

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
    fn slot(slots: &mut LaneSlots) -> &mut Vec<Lane<Self>> {
        &mut slots.deferrable
    }

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
    fn slot(slots: &mut LaneSlots) -> &mut Vec<Lane<Self>> {
        &mut slots.background
    }

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
    fn slot(slots: &mut LaneSlots) -> &mut Vec<Lane<Self>> {
        &mut slots.sporadic
    }

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
    fn slot(slots: &mut LaneSlots) -> &mut Vec<Lane<Self>> {
        &mut slots.mixed
    }

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
    /// The arrival's event id, cached like the demand and cap so that
    /// service and abort read it without assembling the arrival row.
    id: EventId,
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
pub(crate) struct Lane<P> {
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
    /// The empty set over `tasks` tasks, its rows in the (empty) buffer
    /// `rows`. Without tasks nothing is ever marked, so no rows are laid out.
    fn new(tasks: usize, mut rows: Vec<u64>) -> Self {
        let words = tasks.div_ceil(64).max(1);
        if tasks > 0 {
            rows.resize(256 * words, 0);
        }
        ReadyBits {
            words,
            occ: [0; 4],
            rows,
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
    fn new(sys: &'a SimTables<'a>, probe: PR, scratch: &mut DriverScratch) -> Self {
        debug_assert!(
            P::slot(&mut scratch.lanes).is_empty()
                && scratch.lane_queues.iter().all(VecDeque::is_empty)
                && scratch.pending.iter().all(VecDeque::is_empty)
                && scratch.wheel.is_empty()
                && scratch.released.is_empty()
                && scratch.ready_rows.is_empty()
                && scratch.ready_edf.is_empty()
                && scratch.has_pending.is_empty()
                && scratch.aborted.is_empty()
                && scratch.mode_applied.is_empty(),
            "a run starts from empty buffers"
        );
        let mut wheel = std::mem::take(&mut scratch.wheel);
        wheel.reserve(sys.groups.len());
        for (g, group) in sys.groups.iter().enumerate() {
            if group.first < sys.horizon {
                wheel.push(Reverse((group.first, g as u32)));
            }
        }
        let mut lanes = std::mem::take(P::slot(&mut scratch.lanes));
        lanes.reserve(sys.lanes.len());
        lanes.extend(sys.lanes.iter().map(|table| Lane {
            policy: P::init(table),
            queue: scratch.lane_queues.pop().unwrap_or_default(),
            admission: if table.admission == AdmissionPolicy::AcceptAll {
                LaneAdmission::Pass
            } else {
                LaneAdmission::Machine(ServerAdmission::for_server(&table.spec))
            },
        }));
        let mut pending = std::mem::take(&mut scratch.pending);
        pending.resize_with(sys.tasks.len(), VecDeque::new);
        let mut mode_applied = std::mem::take(&mut scratch.mode_applied);
        mode_applied.resize(sys.spec().faults.mode_changes.len(), false);
        let mut released = std::mem::take(&mut scratch.released);
        released.resize(sys.groups.len(), 0);
        let mut has_pending = std::mem::take(&mut scratch.has_pending);
        has_pending.resize(sys.tasks.len(), false);
        let rows = std::mem::take(&mut scratch.ready_rows);
        let mut trace = Trace::new(sys.horizon);
        trace.segments.reserve(sys.segment_hint);
        trace.periodic_jobs.reserve(sys.job_count);
        // The slot table: slot `i` is the outcome of in-horizon arrival `i`
        // for the whole run, `Unserved` until a fate is stored into it.
        trace.outcomes.reserve(sys.arrival_count);
        for event in &sys.spec().aperiodics[..sys.arrival_count] {
            trace.outcomes.push(AperiodicOutcome {
                event: event.id,
                release: event.release,
                declared_cost: event.declared_cost,
                value: event.value,
                deadline: event.absolute_deadline(),
                fate: AperiodicFate::Unserved,
            });
        }
        Driver {
            sys,
            now: Instant::ZERO,
            pending,
            lanes,
            tables: if sys.spec().faults.mode_changes.is_empty() {
                Cow::Borrowed(&sys.lanes[..])
            } else {
                Cow::Owned(sys.lanes.clone())
            },
            mode_applied,
            next_arrival: 0,
            wheel,
            released,
            ready: ReadyBits::new(if EDF { 0 } else { sys.tasks.len() }, rows),
            ready_edf: std::mem::take(&mut scratch.ready_edf),
            has_pending,
            aborted_scratch: std::mem::take(&mut scratch.aborted),
            probe,
            incomplete: None,
            trace,
        }
    }

    /// Runs to the horizon, finalises the trace and hands every working
    /// buffer back to `scratch`, empty.
    fn run(mut self, scratch: &mut DriverScratch) -> Trace {
        if PR::ENABLED {
            self.probe.attach(self.lanes.len());
        }
        while self.now < self.sys.horizon {
            self.process_due_events();
            // A server that serves through arrivals runs to `hard`; every
            // other runner stops at the next arrival too.
            let hard = self.next_decision_point();
            let next = if self.next_arrival < self.sys.arrival_count {
                hard.min(self.sys.arrival_release(self.next_arrival))
            } else {
                hard
            };
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
                        let end = if self.serves_through_arrivals(s) {
                            hard
                        } else {
                            next
                        };
                        self.run_server(s, end);
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
        let Driver {
            pending,
            mut lanes,
            mut mode_applied,
            mut wheel,
            mut released,
            mut ready,
            mut ready_edf,
            mut has_pending,
            aborted_scratch,
            trace,
            ..
        } = self;
        // `finalise` drained the task queues; the admission buffer is
        // cleared after every arrival.
        scratch.pending = pending;
        scratch.lane_queues.extend(lanes.drain(..).map(|mut lane| {
            lane.queue.clear();
            lane.queue
        }));
        *P::slot(&mut scratch.lanes) = lanes;
        mode_applied.clear();
        scratch.mode_applied = mode_applied;
        wheel.clear();
        scratch.wheel = wheel;
        released.clear();
        scratch.released = released;
        ready.rows.clear();
        scratch.ready_rows = ready.rows;
        ready_edf.clear();
        scratch.ready_edf = ready_edf;
        has_pending.clear();
        scratch.has_pending = has_pending;
        scratch.aborted = aborted_scratch;
        trace
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
            self.admit_next_arrival(sys.arrival(self.next_arrival));
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
            for &m in &sys.members[group.members()] {
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

    /// Admits `arrival`, the one at the cursor, at its release: its lane's
    /// admission plan decides, the queued jobs it displaces are aborted, and
    /// a refused arrival is stamped `Rejected`. An orphan (routed to no
    /// lane) leaves its slot `Unserved`.
    fn admit_next_arrival(&mut self, arrival: ArrivalTable) {
        let index = self.next_arrival as u32;
        self.next_arrival += 1;
        let at = arrival.release;
        if PR::ENABLED {
            self.probe.release(at);
        }
        let Some(lane) = self.lanes.get_mut(arrival.server) else {
            return;
        };
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
            self.abort_pending(arrival.server, aborted, at);
        }
        scratch.clear();
        self.aborted_scratch = scratch;
        if accepted {
            self.lanes[arrival.server].queue.push_back(ApJob {
                arrival: index,
                id: arrival.id,
                remaining: arrival.demand,
                cap_left: arrival.cap,
                started: None,
                deadline: arrival.lane_deadline,
            });
            if PR::ENABLED {
                self.probe
                    .admission(arrival.server, AdmissionVerdict::Accepted, at);
                let depth = self.lanes[arrival.server].queue.len() as u64;
                self.probe.queue_depth(arrival.server, depth);
            }
        } else {
            if PR::ENABLED {
                self.probe
                    .admission(arrival.server, AdmissionVerdict::Rejected, at);
            }
            self.trace.outcomes[index as usize].fate = AperiodicFate::Rejected { at };
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
    /// queue, recording it aborted at `at` (same in-service exemption as the
    /// reference engine).
    fn abort_pending(&mut self, lane_index: usize, event_id: EventId, at: Instant) {
        let table = &self.tables[lane_index];
        let lane = &mut self.lanes[lane_index];
        let Some(position) = lane
            .queue
            .iter()
            .position(|job| job.started.is_none() && job.id == event_id)
        else {
            return;
        };
        let job = lane
            .queue
            .remove(position)
            // rt-lint: allow(panic, reason = "the position was selected from this queue two lines above; losing it mid-dispatch is an engine bug worth a crash over a corrupted trace")
            .expect("position came from the queue");
        if lane.queue.is_empty() {
            lane.policy.on_queue_emptied(table, at);
        }
        if PR::ENABLED {
            self.probe
                .admission(lane_index, AdmissionVerdict::Aborted, at);
        }
        self.trace.outcomes[job.arrival as usize].fate = AperiodicFate::Aborted { at };
    }

    /// Next instant other than an arrival at which the scheduling decision
    /// could change: wheel peek, capacity-limited lane replenishments,
    /// unapplied mode changes, the horizon — all O(1) per source (the
    /// capacity-limited test is const-folded per instantiation). The caller
    /// adds the arrival cursor where an arrival can change the decision.
    fn next_decision_point(&self) -> Instant {
        let sys = self.sys;
        let mut next = sys.horizon;
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

    /// Whether lane `s`, just picked, serves through the arrivals of its
    /// window: only where no arrival can change the pick or the job in
    /// service. Fixed priorities keep the lane on top (an arrival to it
    /// leaves every other runner as it was), FIFO-with-skip keeps the job in
    /// service at the front (arrivals join the back, and displacement spares
    /// started jobs), and with every mode change applied no arrival meets a
    /// reconfiguration. EDF stays out, because a sporadic lane's key jumps
    /// from its replenishment to `anchor + period` once service starts, as
    /// do deadline-ordered lanes, where an earlier deadline preempts; and a
    /// recording probe keeps one decision per arrival.
    fn serves_through_arrivals(&self, s: usize) -> bool {
        !EDF && !PR::ENABLED
            && self.tables[s].discipline == QueueDiscipline::FifoSkip
            && self.mode_applied.iter().all(|&applied| applied)
    }

    /// Serves lane `s` until `end`, capacity runs out or the queue drains
    /// (same-instant batching), with the policy calls inlined. When `end`
    /// lies past the next arrival ([`Self::serves_through_arrivals`]), each
    /// arrival routed to `s` is admitted inside the slice that spans its
    /// release, while one routed elsewhere, or one due where a job ends,
    /// ends the service at its release and goes to `process_due_events`.
    // rt-lint: zero-alloc
    fn run_server(&mut self, s: usize, end: Instant) {
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
        loop {
            let lane = &mut self.lanes[s];
            let position = match self.tables[s].discipline {
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
            let window = end.since(self.now);
            let slice = job
                .remaining
                .min(job.cap_left)
                .min(lane.policy.available())
                .min(window);
            debug_assert!(!slice.is_zero(), "picked server cannot make progress");
            // Started before the slice's arrivals are admitted, so that
            // displacement spares it as the reference's first slice does.
            if job.started.is_none() {
                job.started = Some(self.now);
            }
            let mut until = self.now + slice;
            while self.next_arrival < sys.arrival_count
                && sys.arrival_release(self.next_arrival) < until
            {
                let arrival = sys.arrival(self.next_arrival);
                if arrival.server != s {
                    until = arrival.release;
                    break;
                }
                // Joins the back of the queue or is refused; the job in
                // service stays at `position`, the FIFO front.
                self.admit_next_arrival(arrival);
            }
            let slice = until.since(self.now);
            let table = &self.tables[s];
            let lane = &mut self.lanes[s];
            let job = &mut lane.queue[position];
            let id = job.id;
            if PR::ENABLED {
                let unit = ExecUnit::Handler(id);
                if let Some(prev) = self.incomplete.take() {
                    if prev != unit {
                        self.probe.preemption(prev, self.now);
                    }
                }
                self.probe.dispatch(unit, self.now);
                self.probe.slice(unit, self.now, until);
            }
            self.trace
                .push_segment(ExecUnit::Handler(id), self.now, until);
            job.remaining = job.remaining.minus(slice);
            job.cap_left = job.cap_left.minus(slice);
            if PR::ENABLED {
                self.incomplete = (!job.remaining.is_zero() && !job.cap_left.is_zero())
                    .then_some(ExecUnit::Handler(id));
            }
            lane.policy.consume(table, slice, self.now);
            self.now = until;
            if job.remaining.is_zero() {
                // rt-lint: allow(panic, reason = "a job only completes after executing, and execution records the start instant")
                let started = job.started.expect("a completed job has started");
                self.trace.outcomes[job.arrival as usize].fate = AperiodicFate::Served {
                    started,
                    completed: self.now,
                };
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
                self.trace.outcomes[job.arrival as usize].fate =
                    AperiodicFate::Aborted { at: self.now };
                lane.queue.remove(position);
                if lane.queue.is_empty() {
                    lane.policy.on_queue_emptied(table, self.now);
                }
                if let LaneAdmission::Machine(machine) = &mut lane.admission {
                    machine.on_abort(id, self.now);
                }
            }
            let arrival_due = self.next_arrival < sys.arrival_count
                && sys.arrival_release(self.next_arrival) <= self.now;
            if self.now >= end || deferred_change || arrival_due || !lane.is_ready() {
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
        // Queued jobs and orphans need no record: their slots still hold
        // `Unserved`.
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
        // Slot order is stream order, which `build()` makes `(release, id)`
        // order, so this sort is one pass over a sorted run. It reorders
        // only a spec edited after `build()` to carry descending ids at one
        // release, which `validate` accepts. Ids are distinct, so unstable
        // sorting orders like a stable sort.
        self.trace
            .outcomes
            .sort_unstable_by_key(|o| (o.release, o.event));
        debug_assert!(self.trace.check_invariants().is_ok());
    }
}
