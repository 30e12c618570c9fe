//! Pending-event queue of a task server.
//!
//! The paper's base implementation keeps the pending handlers "in a simple
//! FIFO list", and so does this queue: [`PendingQueue::choose_next`] returns
//! "the first handler in the list which has a cost lower than the remaining
//! capacity", the FIFO-with-skip rule of §4.1, and that is all the queue
//! does. The §7 list of lists, which prices an arrival by equation (5), is
//! `rt_analysis::InstancePacker`; the admission plan of `rt-admission`
//! runs it per arrival, before the queue sees the release.
//!
//! # Indexed FIFO-with-skip
//!
//! Service-side, the queue is *indexed*: entries live in an arrival-ordered
//! slab paired with a tournament tree holding the minimum declared cost of
//! every subtree, so "earliest release whose declared cost fits the budget"
//! is answered by one O(log n) descent instead of the seed's O(n) scan —
//! and, worse, the seed's per-dispatch re-evaluation of every pending
//! budget, which made overloaded executions superlinear in the backlog
//! (the ROADMAP hot-spot). Pushes are O(log n), removals O(log n), and the
//! slab is compacted in place whenever the queue empties or dead slots
//! dominate, so steady-state memory tracks the live backlog and a
//! compaction reuses the buffers it rebuilds into. An execution reserves
//! each lane's queue once, before its first release, for the releases
//! routed to the lane, capped at the compaction threshold: a queue whose
//! backlog stays within the cap never regrows, and the reservation does
//! not grow with the horizon. The buffers come from the lanes of the
//! thread's previous execution, so after one run a lane's queue allocates
//! only to grow past what earlier runs used.
//!
//! # Service discipline
//!
//! The *order* of service is a per-server knob
//! ([`rt_model::QueueDiscipline`]) riding the same indexed slab:
//!
//! * [`QueueDiscipline::FifoSkip`] —
//!   the paper's rule above, answered by the cost tree in O(log n);
//! * [`QueueDiscipline::DeadlineOrdered`]
//!   — earliest absolute deadline first (ties by arrival), answered by a
//!   companion min-deadline heap with the same lazy-staleness rule as the
//!   drivers' EDF ready heaps: O(log n) when the most urgent entry fits the
//!   budget, O(k·log n) after skipping `k` oversized more-urgent entries,
//!   which wait in a buffer the queue keeps, so a selection that skips
//!   allocates nothing once the buffer has grown to the deepest skip.
//!   Events without a relative deadline are keyed by their release instant,
//!   so on deadline-free traffic both disciplines serve identically.

use crate::handler::QueuedRelease;
use rt_model::{Instant, QueueDiscipline, Span};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Slab length below which dead slots are never compacted away; also the
/// cap of [`PendingQueue::reserve`].
pub(crate) const COMPACTION_THRESHOLD: usize = 64;

/// Sentinel marking a vacant leaf of the cost index. Live costs are clamped
/// one below it, which cannot change any selection (a cost that large is
/// unreachable by every finite budget that matters).
const VACANT: u64 = u64::MAX;

/// Tournament tree over the arrival-ordered slab: `tree[cap + i]` holds the
/// declared cost (in ticks) of slab slot `i`, interior nodes hold subtree
/// minima, and the leftmost leaf `≤ budget` — the FIFO-with-skip choice — is
/// found by a root-to-leaf descent in O(log n).
#[derive(Debug, Clone, Default)]
struct CostIndex {
    /// Leaf capacity (a power of two, zero until the first push).
    cap: usize,
    /// `2 * cap` nodes; `tree[1]` is the root.
    tree: Vec<u64>,
    /// Leaf slots handed out so far (== the paired slab length).
    len: usize,
}

impl CostIndex {
    /// Reserves the tree's buffer for `leaves` leaves, so the doublings of
    /// [`Self::grow`] up to that many reallocate nothing.
    fn reserve(&mut self, leaves: usize) {
        if leaves > 0 {
            let nodes = 2 * leaves.next_power_of_two().max(4);
            self.tree.reserve(nodes.saturating_sub(self.tree.len()));
        }
    }

    /// Empties the index, keeping the tree's buffer and up to
    /// [`COMPACTION_THRESHOLD`] leaves of its capacity. Only the leaves
    /// handed out and their ancestors are reset, so a queue that drains and
    /// refills pays for the leaves it used, not for regrowing the tree from
    /// four leaves. A tree grown past the threshold restarts at it, which
    /// keeps the descents of the next backlog short.
    fn clear(&mut self) {
        if self.cap > COMPACTION_THRESHOLD {
            self.cap = COMPACTION_THRESHOLD;
            self.tree.truncate(2 * self.cap);
            self.tree.fill(VACANT);
        } else if self.len > 0 && self.tree[1] != VACANT {
            // Live leaves remain (a compaction; a drained tree is vacant to
            // its root already): the used leaves `[cap, cap + len)`, then
            // their parents, level by level up to the root.
            let (mut lo, mut hi) = (self.cap, self.cap + self.len);
            while lo > 0 {
                self.tree[lo..hi].fill(VACANT);
                lo /= 2;
                hi = hi.div_ceil(2);
            }
        }
        self.len = 0;
    }

    /// Appends a leaf, growing (amortised O(1) per push) when full.
    fn push(&mut self, cost: u64) -> usize {
        if self.len == self.cap {
            self.grow();
        }
        let index = self.len;
        self.len += 1;
        self.set(index, cost);
        index
    }

    /// Doubles the leaf capacity in place: the tree buffer only reallocates
    /// when it has never been this large (a cleared index refills the
    /// buffer it kept). Starts at four leaves: a queue that drains often
    /// rewrites the whole tree at its first push after every drain.
    fn grow(&mut self) {
        let new_cap = (self.cap * 2).max(4);
        self.tree.resize(2 * new_cap, VACANT);
        if self.len > 0 {
            // The old leaves sit in `[cap, cap + len)`, below the new leaf
            // row `[new_cap, 2 * new_cap)` that the resize filled with
            // VACANT; move them up and rebuild the interior minima.
            self.tree
                .copy_within(self.cap..self.cap + self.len, new_cap);
            for node in (1..new_cap).rev() {
                self.tree[node] = self.tree[2 * node].min(self.tree[2 * node + 1]);
            }
        }
        self.cap = new_cap;
    }

    /// Stores `cost` at leaf `index` and updates the minima above it,
    /// stopping at the first ancestor whose minimum does not change (the
    /// ones above it cannot change either).
    fn set(&mut self, index: usize, cost: u64) {
        let mut node = self.cap + index;
        self.tree[node] = cost;
        while node > 1 {
            node /= 2;
            let min = self.tree[2 * node].min(self.tree[2 * node + 1]);
            if self.tree[node] == min {
                break;
            }
            self.tree[node] = min;
        }
    }

    /// Vacates leaf `index`.
    fn remove(&mut self, index: usize) {
        self.set(index, VACANT);
    }

    /// Leftmost leaf whose cost is at most `budget` (ticks), if any.
    fn first_at_most(&self, budget: u64) -> Option<usize> {
        let budget = budget.min(VACANT - 1);
        if self.cap == 0 || self.tree[1] > budget {
            return None;
        }
        let mut node = 1;
        while node < self.cap {
            node = if self.tree[2 * node] <= budget {
                2 * node
            } else {
                2 * node + 1
            };
        }
        Some(node - self.cap)
    }
}

/// The buffers of a [`PendingQueue`], empty. An execution keeps its lanes'
/// between runs on the same thread ([`crate::scratch`]), so a lane's queue
/// starts with the capacity an earlier run left instead of allocating.
#[derive(Debug, Default)]
pub(crate) struct QueueBuffers {
    slots: Vec<Option<QueuedRelease>>,
    tree: Vec<u64>,
    deadline_index: BinaryHeap<Reverse<(Instant, usize)>>,
    skipped: Vec<Reverse<(Instant, usize)>>,
}

/// The pending-event queue of one task server.
#[derive(Debug, Clone)]
pub struct PendingQueue {
    discipline: QueueDiscipline,
    /// Arrival-ordered slab; `None` marks a served (removed) entry. Compacted
    /// whenever the queue empties.
    slots: Vec<Option<QueuedRelease>>,
    /// Cost index paired with `slots` (same indices).
    index: CostIndex,
    /// Deadline index paired with `slots`: min-`(deadline, slot)` heap over
    /// the live entries, maintained only under
    /// [`QueueDiscipline::DeadlineOrdered`]. Entries of removed slots are
    /// discarded lazily; compaction rebuilds the heap (slot indices move).
    deadline_index: BinaryHeap<Reverse<(Instant, usize)>>,
    /// The deadline-heap entries one deadline-ordered selection skipped,
    /// held until it re-pushes them; empty between selections.
    skipped: Vec<Reverse<(Instant, usize)>>,
    /// Number of live entries.
    live: usize,
}

impl PendingQueue {
    /// Creates an empty queue with the given service discipline.
    pub fn new(discipline: QueueDiscipline) -> Self {
        PendingQueue {
            discipline,
            slots: Vec::new(),
            index: CostIndex::default(),
            deadline_index: BinaryHeap::new(),
            skipped: Vec::new(),
            live: 0,
        }
    }

    /// Switches the service discipline (the mode-change path). A switch
    /// rebuilds the deadline heap over the live entries (O(n), paid once per
    /// mode change, never per dispatch).
    pub fn set_discipline(&mut self, discipline: QueueDiscipline) {
        if discipline == self.discipline {
            return;
        }
        self.discipline = discipline;
        self.deadline_index.clear();
        if discipline == QueueDiscipline::DeadlineOrdered {
            for (index, entry) in self.slots.iter().enumerate() {
                if let Some(release) = entry {
                    self.deadline_index.push(Reverse((release.deadline, index)));
                }
            }
        }
    }

    /// Reserves the slab and the cost tree for `releases` pending releases,
    /// capped at the compaction threshold: past it the slab compacts, or
    /// holds a live backlog that large and grows by doubling, so the
    /// reservation stays independent of the horizon.
    pub(crate) fn reserve(&mut self, releases: usize) {
        let releases = releases.min(COMPACTION_THRESHOLD);
        self.slots.reserve(releases);
        self.index.reserve(releases);
    }

    /// Moves `buffers` into this queue, which holds nothing yet.
    pub(crate) fn adopt(&mut self, buffers: QueueBuffers) {
        debug_assert!(self.slots.is_empty() && self.index.cap == 0 && self.live == 0);
        self.slots = buffers.slots;
        self.index.tree = buffers.tree;
        self.deadline_index = buffers.deadline_index;
        self.skipped = buffers.skipped;
    }

    /// Empties the queue and returns its buffers, in time proportional to
    /// the slots the queue used.
    pub(crate) fn into_buffers(self) -> QueueBuffers {
        let PendingQueue {
            mut slots,
            index,
            mut deadline_index,
            skipped,
            ..
        } = self;
        let mut tree = index.tree;
        slots.clear();
        tree.clear();
        deadline_index.clear();
        debug_assert!(skipped.is_empty(), "a selection re-pushes what it skips");
        QueueBuffers {
            slots,
            tree,
            deadline_index,
            skipped,
        }
    }

    /// Number of pending releases.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Registers a release in O(log n).
    pub fn push(&mut self, release: QueuedRelease) {
        let cost = release.declared_cost().ticks().min(VACANT - 1);
        let index = self.index.push(cost);
        debug_assert_eq!(index, self.slots.len(), "slab and cost index in step");
        if self.discipline == QueueDiscipline::DeadlineOrdered {
            self.deadline_index.push(Reverse((release.deadline, index)));
        }
        self.slots.push(Some(release));
        self.live += 1;
    }

    /// Index of the earliest live entry, if any.
    fn head(&self) -> Option<usize> {
        self.index.first_at_most(VACANT - 1)
    }

    /// Removes slot `index`.
    fn take(&mut self, index: usize) -> QueuedRelease {
        let release = self.slots[index]
            .take()
            // rt-lint: allow(panic, reason = "take() is an internal helper whose callers pass indices of live slots; a dead slot is a queue-invariant bug")
            .expect("take() requires a live slot");
        self.index.remove(index);
        self.live -= 1;
        self.maybe_compact();
        release
    }

    /// Compacts the slab once dead slots dominate, so memory and every
    /// O(slab) walk (`iter`, `remove_event`) track the *live* backlog, not
    /// the total arrivals of the run. The slab is compacted in place, which
    /// keeps the live entries in arrival order; the indexes are rebuilt into
    /// the buffers they already own, so a compaction allocates nothing and
    /// each removal pays amortised O(1).
    fn maybe_compact(&mut self) {
        if self.live == 0 {
            self.slots.clear();
            self.index.clear();
            self.deadline_index.clear();
            return;
        }
        if self.slots.len() < COMPACTION_THRESHOLD || self.live * 2 >= self.slots.len() {
            return;
        }
        self.slots.retain(Option::is_some);
        self.index.clear();
        // Slot indices move: the deadline heap is rebuilt against the
        // compacted slab (its stale entries would otherwise point at the
        // wrong slots).
        self.deadline_index.clear();
        for (slot, release) in self.slots.iter().flatten().enumerate() {
            let cost = release.declared_cost().ticks().min(VACANT - 1);
            let index = self.index.push(cost);
            debug_assert_eq!(index, slot);
            if self.discipline == QueueDiscipline::DeadlineOrdered {
                self.deadline_index.push(Reverse((release.deadline, index)));
            }
        }
        debug_assert_eq!(self.slots.len(), self.live);
    }

    /// Removes and returns the next servable pending release under the
    /// queue's discipline, given the granted `budget`:
    ///
    /// * [`QueueDiscipline::FifoSkip`] — the first pending release (arrival
    ///   order) whose declared cost fits within `budget`, the §4.1 rule:
    ///   "this implies that if there is two handlers in the list, if the
    ///   first has a cost greater than the remaining capacity and if the
    ///   second has a cost lesser than the remaining capacity, the event
    ///   released last is served first". O(log n) via the cost index.
    /// * [`QueueDiscipline::DeadlineOrdered`] — the pending release with the
    ///   earliest absolute deadline (ties by arrival) whose declared cost
    ///   fits within `budget`. O(log n) when the earliest-deadline entry
    ///   fits; O(k·log n) after skipping `k` oversized earlier-deadline
    ///   entries, which stay pending.
    pub fn choose_next(&mut self, budget: Span) -> Option<QueuedRelease> {
        match self.discipline {
            QueueDiscipline::FifoSkip => {
                let index = self.index.first_at_most(budget.ticks())?;
                Some(self.take(index))
            }
            QueueDiscipline::DeadlineOrdered => self.choose_next_by_deadline(budget),
        }
    }

    /// Deadline-ordered selection: pops the deadline heap until a live entry
    /// fitting the budget is found, re-pushing the skipped (oversized but
    /// still pending) entries before the removal so a compaction triggered
    /// by [`Self::take`] rebuilds a complete heap. The skipped entries wait
    /// in the queue's own buffer, so skipping allocates nothing once that
    /// buffer has grown to the deepest skip.
    fn choose_next_by_deadline(&mut self, budget: Span) -> Option<QueuedRelease> {
        // The cost tree answers "does anything fit at all?" in O(log n):
        // without this guard an overloaded queue whose entries are all
        // oversized would drain and re-push the whole deadline heap on
        // every failed dispatch — the superlinear backlog behaviour the
        // indexed queue exists to prevent.
        self.index.first_at_most(budget.ticks())?;
        let mut found = None;
        while let Some(&Reverse((deadline, slot))) = self.deadline_index.peek() {
            // rt-lint: allow(panic, reason = "the entry was peeked non-empty in the loop condition")
            let entry = self.deadline_index.pop().expect("peeked entry exists");
            let live = self.slots[slot]
                .as_ref()
                .is_some_and(|release| release.deadline == deadline);
            if !live {
                continue;
            }
            let fits = self.slots[slot]
                .as_ref()
                // rt-lint: allow(panic, reason = "the slot was checked live earlier in this iteration")
                .expect("checked live above")
                .declared_cost()
                <= budget;
            if fits {
                found = Some(slot);
                break;
            }
            self.skipped.push(entry);
        }
        self.deadline_index.extend(self.skipped.drain(..));
        found.map(|slot| self.take(slot))
    }

    /// Removes and returns the next pending release regardless of its cost
    /// (used by background servicing, which has no capacity limit): arrival
    /// order under [`QueueDiscipline::FifoSkip`], earliest deadline under
    /// [`QueueDiscipline::DeadlineOrdered`].
    pub fn pop_front(&mut self) -> Option<QueuedRelease> {
        match self.discipline {
            QueueDiscipline::FifoSkip => {
                let index = self.head()?;
                Some(self.take(index))
            }
            QueueDiscipline::DeadlineOrdered => self.choose_next_by_deadline(Span::MAX),
        }
    }

    /// Iterates over the pending releases in FIFO order.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedRelease> {
        self.slots.iter().flatten()
    }

    /// Removes a pending release by event id (the overload manager's abort
    /// path), maintaining the same index invariants as a service removal. O(n) to locate the slot, O(log n) to remove it; aborts are
    /// rare decisions on the overload path, never per-dispatch work.
    pub fn remove_event(&mut self, event: rt_model::EventId) -> Option<QueuedRelease> {
        let index = self
            .slots
            .iter()
            .position(|entry| entry.as_ref().is_some_and(|release| release.event == event))?;
        Some(self.take(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::ServableHandler;
    use rt_model::{EventId, HandlerId};

    fn release(id: u32, cost: u64, at: u64) -> QueuedRelease {
        QueuedRelease::new(
            EventId::new(id),
            ServableHandler::new(HandlerId::new(id), Span::from_units(cost)),
            Instant::from_units(at),
        )
    }

    fn queue_with(discipline: QueueDiscipline) -> PendingQueue {
        PendingQueue::new(discipline)
    }

    fn queue() -> PendingQueue {
        queue_with(QueueDiscipline::FifoSkip)
    }

    fn deadline_queue() -> PendingQueue {
        queue_with(QueueDiscipline::DeadlineOrdered)
    }

    /// A release with an explicit relative deadline.
    fn deadline_release(id: u32, cost: u64, at: u64, relative_deadline: u64) -> QueuedRelease {
        QueuedRelease::new(
            EventId::new(id),
            ServableHandler::new(HandlerId::new(id), Span::from_units(cost))
                .with_relative_deadline(Span::from_units(relative_deadline)),
            Instant::from_units(at),
        )
    }

    #[test]
    fn fifo_with_skip_serves_the_first_fitting_handler() {
        let mut q = queue();
        q.push(release(0, 3, 0));
        q.push(release(1, 1, 1));
        // Remaining capacity 2: the first handler (cost 3) is skipped, the
        // second (cost 1) is served first — the paper's example verbatim.
        let chosen = q.choose_next(Span::from_units(2)).unwrap();
        assert_eq!(chosen.event, EventId::new(1));
        // The skipped handler is still pending.
        assert_eq!(q.len(), 1);
        assert_eq!(q.iter().next().unwrap().event, EventId::new(0));
        // With a full budget it is served next.
        assert_eq!(
            q.choose_next(Span::from_units(4)).unwrap().event,
            EventId::new(0)
        );
        assert!(q.is_empty());
    }

    #[test]
    fn choose_next_returns_none_when_nothing_fits() {
        let mut q = queue();
        q.push(release(0, 3, 0));
        assert!(q.choose_next(Span::from_units(2)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_front_ignores_costs() {
        let mut q = queue();
        q.push(release(0, 4, 0));
        q.push(release(1, 1, 0));
        assert_eq!(q.pop_front().unwrap().event, EventId::new(0));
        assert_eq!(q.pop_front().unwrap().event, EventId::new(1));
        assert!(q.pop_front().is_none());
    }

    #[test]
    fn a_reserved_queue_grows_without_reallocating_up_to_the_cap() {
        let mut q = queue();
        q.reserve(10_000);
        let (slab, tree) = (q.slots.capacity(), q.index.tree.capacity());
        // Capped at the threshold (an allocator may round a capacity up).
        let capped = COMPACTION_THRESHOLD..2 * COMPACTION_THRESHOLD;
        assert!(capped.contains(&slab), "slab capacity {slab}");
        assert!(
            (2 * capped.start..2 * capped.end).contains(&tree),
            "tree capacity {tree}"
        );
        // A backlog of the reserved size, then in-order head services.
        for i in 0..COMPACTION_THRESHOLD as u32 {
            q.push(release(i, 1, 0));
        }
        while q.len() > 1 {
            assert!(q.choose_next(Span::from_units(4)).is_some());
        }
        assert_eq!(
            (q.slots.capacity(), q.index.tree.capacity()),
            (slab, tree),
            "growth within the reservation must not reallocate"
        );
    }

    #[test]
    fn slab_compacts_while_a_release_stays_stuck() {
        // A cost-4 head that never fits the small budgets below stays
        // pending for the whole run while thousands of cost-1 releases pass
        // through out of order (FIFO-with-skip): the slab must track the
        // live backlog, not the total arrivals.
        let mut q = queue();
        q.push(release(0, 4, 0));
        for i in 1..=2000u32 {
            q.push(release(i, 1, i as u64));
            let taken = q.choose_next(Span::from_units(1)).unwrap();
            assert_eq!(taken.event, EventId::new(i));
            assert_eq!(q.len(), 1);
        }
        assert!(
            q.slots.len() <= 64,
            "slab holds {} slots for 1 live entry",
            q.slots.len()
        );
        // FIFO order survives compaction: the stuck head is still first.
        assert_eq!(q.iter().next().unwrap().event, EventId::new(0));
        assert_eq!(
            q.choose_next(Span::from_units(4)).unwrap().event,
            EventId::new(0)
        );
        assert!(q.is_empty());
    }

    #[test]
    fn deadline_ordered_serves_the_most_urgent_fitting_release() {
        let mut q = deadline_queue();
        q.push(deadline_release(0, 2, 0, 20));
        q.push(deadline_release(1, 2, 1, 5));
        q.push(deadline_release(2, 2, 2, 10));
        // Deadlines: e0@20, e1@6, e2@12 — service order e1, e2, e0.
        for expected in [1u32, 2, 0] {
            assert_eq!(
                q.choose_next(Span::from_units(4)).unwrap().event,
                EventId::new(expected)
            );
        }
        assert!(q.is_empty());
    }

    #[test]
    fn deadline_ordered_skips_oversized_urgent_entries_without_losing_them() {
        let mut q = deadline_queue();
        q.push(deadline_release(0, 4, 0, 3));
        q.push(deadline_release(1, 1, 1, 30));
        // Budget 2: the urgent cost-4 entry does not fit and is skipped; the
        // later-deadline cost-1 entry is served; the skipped one survives.
        assert_eq!(
            q.choose_next(Span::from_units(2)).unwrap().event,
            EventId::new(1)
        );
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.choose_next(Span::from_units(4)).unwrap().event,
            EventId::new(0)
        );
    }

    #[test]
    fn deadline_ordered_without_deadlines_degenerates_to_fifo_with_skip() {
        // Events without a relative deadline are keyed by release: both
        // disciplines must produce identical service orders on arbitrary
        // push/choose interleavings.
        let mut seed = 0xDEAD_BEEF_1234_5678u64;
        let mut next_rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _case in 0..20 {
            let mut fifo = queue();
            let mut edd = deadline_queue();
            let mut id = 0u32;
            let mut at = 0u64;
            for _step in 0..200 {
                if next_rand() % 3 != 0 {
                    let cost = 1 + next_rand() % 4;
                    at += next_rand() % 2;
                    fifo.push(release(id, cost, at));
                    edd.push(release(id, cost, at));
                    id += 1;
                } else {
                    let budget = Span::from_units(next_rand() % 5);
                    assert_eq!(
                        fifo.choose_next(budget).map(|r| r.event),
                        edd.choose_next(budget).map(|r| r.event),
                        "disciplines diverged on deadline-free traffic"
                    );
                }
            }
        }
    }

    #[test]
    fn deadline_ties_break_by_arrival_order() {
        let mut q = deadline_queue();
        // Same absolute deadline (release+deadline = 10) for both.
        q.push(deadline_release(0, 1, 2, 8));
        q.push(deadline_release(1, 1, 4, 6));
        assert_eq!(
            q.choose_next(Span::from_units(4)).unwrap().event,
            EventId::new(0),
            "equal deadlines: earlier arrival first"
        );
    }

    #[test]
    fn deadline_index_survives_compaction() {
        // Force compaction while deadline-ordered entries are live: the
        // rebuilt heap must keep serving by deadline with remapped slots.
        let mut q = deadline_queue();
        // A stuck oversized release with a *late* deadline.
        q.push(deadline_release(0, 4, 0, 500));
        for i in 1..=2000u32 {
            q.push(deadline_release(i, 1, i as u64, 3));
            let taken = q.choose_next(Span::from_units(1)).unwrap();
            assert_eq!(taken.event, EventId::new(i));
            assert_eq!(q.len(), 1);
        }
        assert!(q.slots.len() <= 64, "slab must compact");
        // After thousands of compactions the stuck entry is still served
        // once the budget allows.
        assert_eq!(
            q.choose_next(Span::from_units(4)).unwrap().event,
            EventId::new(0)
        );
        assert!(q.is_empty());
    }

    // ----- tournament-tree edge cases (regression suite) -----

    #[test]
    fn compaction_when_every_slot_is_dead_resets_the_indexes() {
        // Push past the compaction threshold, then remove everything via
        // choose_next so the final take() sees live == 0: the slab, the cost
        // tree and the deadline heap must all reset, and a fresh push must
        // land in slot 0 again.
        for discipline in [QueueDiscipline::FifoSkip, QueueDiscipline::DeadlineOrdered] {
            let mut q = queue_with(discipline);
            for i in 0..100u32 {
                q.push(release(i, 2, i as u64));
            }
            for _ in 0..100 {
                assert!(q.choose_next(Span::from_units(4)).is_some());
            }
            assert!(q.is_empty());
            assert_eq!(q.slots.len(), 0, "{discipline:?}: slab must be cleared");
            assert_eq!(q.index.len, 0, "{discipline:?}: cost index must be cleared");
            assert!(q.deadline_index.is_empty());
            // Push-after-full-drain: indexes restart consistently.
            q.push(release(999, 1, 0));
            assert_eq!(q.len(), 1);
            assert_eq!(
                q.choose_next(Span::from_units(1)).unwrap().event,
                EventId::new(999)
            );
        }
    }

    #[test]
    fn threshold_below_every_cost_selects_nothing_and_keeps_the_queue_intact() {
        for discipline in [QueueDiscipline::FifoSkip, QueueDiscipline::DeadlineOrdered] {
            let mut q = queue_with(discipline);
            for i in 0..5u32 {
                q.push(release(i, 3, i as u64));
            }
            // Threshold smaller than every declared cost: no selection, no
            // structural damage, repeatedly.
            for _ in 0..3 {
                assert!(
                    q.choose_next(Span::from_units(2)).is_none(),
                    "{discipline:?}"
                );
                assert!(q.choose_next(Span::ZERO).is_none(), "{discipline:?}");
                assert_eq!(q.len(), 5, "{discipline:?}");
            }
            // The full FIFO order is still intact afterwards.
            let order: Vec<u32> = std::iter::from_fn(|| q.choose_next(Span::from_units(3)))
                .map(|r| r.event.raw())
                .collect();
            assert_eq!(order, vec![0, 1, 2, 3, 4], "{discipline:?}");
        }
    }

    #[test]
    fn push_after_the_queue_empties_restarts_cleanly() {
        for discipline in [QueueDiscipline::FifoSkip, QueueDiscipline::DeadlineOrdered] {
            let mut q = queue_with(discipline);
            for i in 0..80u32 {
                q.push(release(i, 2, i as u64));
            }
            let emptied = std::iter::from_fn(|| q.pop_front()).count();
            assert_eq!(emptied, 80);
            assert!(q.is_empty());
            // Everything restarts from slot 0.
            q.push(release(100, 2, 0));
            assert_eq!(q.len(), 1);
            assert_eq!(
                (q.slots.len(), q.index.len),
                (1, 1),
                "{discipline:?}: the slab and the cost index restart at slot 0"
            );
            assert_eq!(
                q.pop_front().unwrap().event,
                EventId::new(100),
                "{discipline:?}"
            );
        }
    }

    #[test]
    fn indexed_selection_matches_a_linear_scan_on_random_backlogs() {
        // Seeded differential test: the tournament-tree selection must agree
        // with the straightforward linear FIFO-with-skip scan for arbitrary
        // push/choose interleavings.
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut next_rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _case in 0..50 {
            let mut q = queue();
            let mut reference: Vec<(u32, u64)> = Vec::new();
            let mut id = 0u32;
            for _step in 0..200 {
                if next_rand() % 3 != 0 {
                    let cost = 1 + next_rand() % 4;
                    q.push(release(id, cost, 0));
                    reference.push((id, cost));
                    id += 1;
                } else {
                    let budget = next_rand() % 5;
                    let expected = reference
                        .iter()
                        .position(|&(_, c)| c <= budget)
                        .map(|p| reference.remove(p).0);
                    let got = q
                        .choose_next(Span::from_units(budget))
                        .map(|r| r.event.raw());
                    assert_eq!(got, expected);
                }
            }
            assert_eq!(q.len(), reference.len());
            let pending: Vec<u32> = q.iter().map(|r| r.event.raw()).collect();
            let expected: Vec<u32> = reference.iter().map(|&(i, _)| i).collect();
            assert_eq!(pending, expected, "the backlog stays in FIFO order");
        }
    }

    #[test]
    fn indexed_selection_matches_a_linear_scan_across_drains_and_refills() {
        // Hundreds of backlogs, each drained before the next refills the
        // queue: the tree `CostIndex::clear` keeps must select like a fresh
        // one, whether the backlog stayed under the compaction threshold or
        // outgrew it.
        let mut seed = 0x0bad_cafe_f00d_1234u64;
        let mut next_rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut q = queue();
        let mut reference: Vec<(u32, u64)> = Vec::new();
        let mut id = 0u32;
        for cycle in 0..400 {
            let most = if cycle % 10 == 0 { 200 } else { 40 };
            for _ in 0..1 + next_rand() % most {
                let cost = 1 + next_rand() % 4;
                q.push(release(id, cost, 0));
                reference.push((id, cost));
                id += 1;
            }
            while !reference.is_empty() {
                let budget = next_rand() % 5;
                let expected = reference
                    .iter()
                    .position(|&(_, c)| c <= budget)
                    .map(|p| reference.remove(p).0);
                let got = q
                    .choose_next(Span::from_units(budget))
                    .map(|r| r.event.raw());
                assert_eq!(got, expected, "cycle {cycle}");
            }
            assert!(q.is_empty());
            assert_eq!(q.index.len, 0);
            assert!(q.index.cap <= COMPACTION_THRESHOLD, "cycle {cycle}");
        }
    }
}
