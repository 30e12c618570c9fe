//! Pending-event queues of a task server.
//!
//! The paper's base implementation keeps the pending handlers "in a simple
//! FIFO list"; §7 proposes replacing it with "a structure with a list of
//! lists of handlers", each inner list holding the handlers that fit together
//! in one server instance alongside their cumulative cost, so the response
//! time of a newly released event can be computed in constant time at
//! registration (equation (5)).
//!
//! Both structures share the same *service* semantics —
//! [`PendingQueue::choose_next`] returns "the first handler in the list which
//! has a cost lower than the remaining capacity", the FIFO-with-skip rule of
//! §4.1 — and differ only in the cost of predicting a response time at
//! admission ([`PendingQueue::predict_slot`]): O(n) for the flat FIFO (the
//! packing has to be recomputed), O(1) for the list of lists. The
//! `ablation_queue` benchmark measures exactly that difference.
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
//! slab is compacted whenever the queue drains, so steady-state memory
//! tracks the live backlog.
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
//!   budget, O(k·log n) after skipping `k` oversized more-urgent entries.
//!   Events without a relative deadline are keyed by their release instant,
//!   so on deadline-free traffic both disciplines serve identically.

use crate::handler::QueuedRelease;
use rt_analysis::{InstancePacker, InstanceSlot, ServerParams};
use rt_model::{Instant, QueueDiscipline, Span};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which queue structure a server uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// The paper's base implementation: a flat FIFO list.
    Fifo,
    /// The §7 improvement: a list of lists with cumulative costs.
    ListOfLists,
}

/// A pending release annotated with its predicted service slot (only
/// maintained by the list-of-lists structure).
#[derive(Debug, Clone, PartialEq, Eq)]
struct QueuedEntry {
    release: QueuedRelease,
    slot: Option<InstanceSlot>,
}

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
    fn clear(&mut self) {
        self.cap = 0;
        self.tree.clear();
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

    fn grow(&mut self) {
        let new_cap = (self.cap * 2).max(64);
        let mut tree = vec![VACANT; 2 * new_cap];
        if self.len > 0 {
            tree[new_cap..new_cap + self.len]
                .copy_from_slice(&self.tree[self.cap..self.cap + self.len]);
            for node in (1..new_cap).rev() {
                tree[node] = tree[2 * node].min(tree[2 * node + 1]);
            }
        }
        self.cap = new_cap;
        self.tree = tree;
    }

    fn set(&mut self, index: usize, cost: u64) {
        let mut node = self.cap + index;
        self.tree[node] = cost;
        while node > 1 {
            node /= 2;
            self.tree[node] = self.tree[2 * node].min(self.tree[2 * node + 1]);
        }
    }

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

/// The pending-event queue of one task server.
#[derive(Debug, Clone)]
pub struct PendingQueue {
    kind: QueueKind,
    discipline: QueueDiscipline,
    server: ServerParams,
    /// Arrival-ordered slab; `None` marks a served (removed) entry. Compacted
    /// whenever the queue drains.
    slots: Vec<Option<QueuedEntry>>,
    /// Cost index paired with `slots` (same indices).
    index: CostIndex,
    /// Deadline index paired with `slots`: min-`(deadline, slot)` heap over
    /// the live entries, maintained only under
    /// [`QueueDiscipline::DeadlineOrdered`]. Entries of removed slots are
    /// discarded lazily; compaction rebuilds the heap (slot indices move).
    deadline_index: BinaryHeap<Reverse<(Instant, usize)>>,
    /// Number of live entries.
    live: usize,
    /// Incremental packer used by the list-of-lists structure.
    packer: Option<InstancePacker>,
    /// The `(now, remaining_capacity)` pair the current packing is seeded
    /// with, recorded for **both** queue kinds with exactly the packer's
    /// staleness lifecycle (set at the first push after an invalidation,
    /// cleared by out-of-order removals and drains). It is what lets the
    /// flat-FIFO structure answer [`Self::predicted_slot`] by an O(n)
    /// replay of the live queue — the §7 cost the list of lists avoids —
    /// instead of returning `None`.
    packing_seed: Option<(Instant, Span)>,
    /// Declared costs of the entries served *in order from the head* since
    /// the packing reference was recorded. Head removals keep the packing
    /// valid but still consumed their planned capacity, so the flat-FIFO
    /// replay must pack them first or it would hand their slots to the
    /// survivors. Cleared together with `packing_seed`; grows with the
    /// in-order services of one uninterrupted backlog episode (bounded by
    /// the arrivals of that episode, like the outcome log).
    replayed_heads: Vec<Span>,
}

impl PendingQueue {
    /// Creates an empty queue for a server with the given capacity/period
    /// and service discipline.
    pub fn new(kind: QueueKind, capacity: Span, period: Span, discipline: QueueDiscipline) -> Self {
        let server = ServerParams::new(capacity, period);
        PendingQueue {
            kind,
            discipline,
            server,
            slots: Vec::new(),
            index: CostIndex::default(),
            deadline_index: BinaryHeap::new(),
            live: 0,
            packer: None,
            packing_seed: None,
            replayed_heads: Vec::new(),
        }
    }

    /// The queue structure in use.
    pub fn kind(&self) -> QueueKind {
        self.kind
    }

    /// The service discipline in use.
    pub fn discipline(&self) -> QueueDiscipline {
        self.discipline
    }

    /// Reconfigures the queue for new server parameters and/or a new service
    /// discipline (the mode-change path). The stored packing belongs to the
    /// old configuration, so it is invalidated — the next push or prediction
    /// re-packs the live backlog against the new `(capacity, period)` pair.
    /// A discipline switch rebuilds the deadline heap over the live entries
    /// (O(n), paid once per mode change, never per dispatch).
    pub fn set_server(&mut self, capacity: Span, period: Span, discipline: QueueDiscipline) {
        self.server = ServerParams::new(capacity, period);
        self.packer = None;
        self.packing_seed = None;
        self.replayed_heads.clear();
        if discipline != self.discipline {
            self.discipline = discipline;
            self.deadline_index.clear();
            if discipline == QueueDiscipline::DeadlineOrdered {
                for (index, entry) in self.slots.iter().enumerate() {
                    if let Some(e) = entry {
                        self.deadline_index
                            .push(Reverse((e.release.deadline, index)));
                    }
                }
            }
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

    /// Registers a release in O(log n), returning the predicted service slot
    /// (instance index and cumulative prior cost) used by equation (5) when
    /// the structure maintains one:
    ///
    /// * with [`QueueKind::ListOfLists`] the slot comes from the incremental
    ///   packer in O(1) and is remembered for [`Self::predicted_slot`];
    /// * with [`QueueKind::Fifo`] no packing is maintained — `None` is
    ///   returned, and an admission-time prediction costs O(n) through
    ///   [`Self::predict_slot`], which is exactly the cost the §7 structure
    ///   eliminates.
    ///
    /// `now` and `remaining_capacity` describe the server state at
    /// registration time and seed the packer for its first element. Releases
    /// whose declared cost exceeds the server capacity (possible only under
    /// background servicing, which has no admission constraint) are queued
    /// without a prediction.
    pub fn push(
        &mut self,
        release: QueuedRelease,
        now: Instant,
        remaining_capacity: Span,
    ) -> Option<InstanceSlot> {
        if self.packing_seed.is_none() {
            // Same lifecycle as the packer: the packing reference is the
            // server state at the first push after an invalidation.
            self.packing_seed = Some((now, remaining_capacity));
        }
        let predictable = release.declared_cost() <= self.server.capacity;
        let slot = if predictable && self.kind == QueueKind::ListOfLists {
            if self.packer.is_none() {
                // Rebuild against the live queue: after an out-of-order
                // removal or a drain the previous packing no longer matches
                // the entries, so the surviving releases are replayed before
                // the new one is packed. This is the only O(n) moment of the
                // structure; steady-state pushes stay O(1).
                self.packer = Some(self.pack_entries(now, remaining_capacity));
            }
            Some(
                self.packer
                    .as_mut()
                    // rt-lint: allow(panic, reason = "the packer was rebuilt on the branch immediately above")
                    .expect("packer was just rebuilt")
                    .push(release.declared_cost()),
            )
        } else {
            None
        };
        let cost = release.declared_cost().ticks().min(VACANT - 1);
        let index = self.index.push(cost);
        debug_assert_eq!(index, self.slots.len(), "slab and cost index in step");
        if self.discipline == QueueDiscipline::DeadlineOrdered {
            self.deadline_index.push(Reverse((release.deadline, index)));
        }
        self.slots.push(Some(QueuedEntry { release, slot }));
        self.live += 1;
        slot
    }

    /// Packs every pending, servable release into a fresh packer seeded with
    /// the given server state — the equation-(5) packing of the live queue.
    fn pack_entries(&self, now: Instant, remaining_capacity: Span) -> InstancePacker {
        let mut packer = InstancePacker::new(self.server, now, remaining_capacity);
        for entry in self.slots.iter().flatten() {
            if entry.release.declared_cost() <= self.server.capacity {
                packer.push(entry.release.declared_cost());
            }
        }
        packer
    }

    /// The equation-(5) slot a hypothetical new release of `cost` would be
    /// assigned if pushed now: O(1) for the list of lists (the stored packer
    /// answers directly), O(n) for the flat FIFO (the packing is recomputed
    /// from the live queue). Returns `None` for costs above the server
    /// capacity, which the non-resumable implementation can never serve.
    pub fn predict_slot(
        &self,
        cost: Span,
        now: Instant,
        remaining_capacity: Span,
    ) -> Option<InstanceSlot> {
        if cost > self.server.capacity {
            return None;
        }
        let mut packer = match (&self.packer, self.kind) {
            (Some(packer), QueueKind::ListOfLists) => packer.clone(),
            _ => self.pack_entries(now, remaining_capacity),
        };
        Some(packer.push(cost))
    }

    /// Index of the earliest live entry, if any.
    fn head(&self) -> Option<usize> {
        self.index.first_at_most(VACANT - 1)
    }

    /// Removes slot `index`, maintaining the packer-staleness rule: the
    /// stored packing survives only a strict head removal that leaves the
    /// queue non-empty (an out-of-order removal breaks the packing, and a
    /// drained queue's packing must be reseeded from live server state).
    fn take(&mut self, index: usize) -> QueuedRelease {
        let was_head = self.head() == Some(index);
        let entry = self.slots[index]
            .take()
            // rt-lint: allow(panic, reason = "take() is an internal helper whose callers pass indices of live slots; a dead slot is a queue-invariant bug")
            .expect("take() requires a live slot");
        self.index.remove(index);
        self.live -= 1;
        self.maybe_compact();
        if !was_head || self.live == 0 {
            self.packer = None;
            self.packing_seed = None;
            self.replayed_heads.clear();
        } else {
            // An in-order head service keeps the packing valid; remember its
            // cost so the flat-FIFO replay still charges the capacity it
            // consumed under the plan.
            self.replayed_heads.push(entry.release.declared_cost());
        }
        entry.release
    }

    /// Compacts the slab once dead slots dominate, so memory and every
    /// O(slab) walk (`pack_entries`, `iter`, `choose_where`) track the
    /// *live* backlog, not the total arrivals of the run. Rebuilding keeps
    /// the live entries in arrival order, so the stored packer — a function
    /// of that order only — stays valid; each removal pays amortised O(1).
    fn maybe_compact(&mut self) {
        if self.live == 0 {
            self.slots.clear();
            self.index.clear();
            self.deadline_index.clear();
            return;
        }
        if self.slots.len() < 64 || self.live * 2 >= self.slots.len() {
            return;
        }
        let entries: Vec<QueuedEntry> = self.slots.drain(..).flatten().collect();
        self.index.clear();
        // Slot indices move: the deadline heap is rebuilt against the
        // compacted slab (its stale entries would otherwise point at the
        // wrong slots).
        self.deadline_index.clear();
        for entry in entries {
            let cost = entry.release.declared_cost().ticks().min(VACANT - 1);
            let index = self.index.push(cost);
            debug_assert_eq!(index, self.slots.len());
            if self.discipline == QueueDiscipline::DeadlineOrdered {
                self.deadline_index
                    .push(Reverse((entry.release.deadline, index)));
            }
            self.slots.push(Some(entry));
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
    /// by [`Self::take`] rebuilds a complete heap.
    fn choose_next_by_deadline(&mut self, budget: Span) -> Option<QueuedRelease> {
        // The cost tree answers "does anything fit at all?" in O(log n):
        // without this guard an overloaded queue whose entries are all
        // oversized would drain and re-push the whole deadline heap on
        // every failed dispatch — the superlinear backlog behaviour the
        // indexed queue exists to prevent.
        self.index.first_at_most(budget.ticks())?;
        let mut skipped: Vec<Reverse<(Instant, usize)>> = Vec::new();
        let mut found = None;
        while let Some(&Reverse((deadline, slot))) = self.deadline_index.peek() {
            // rt-lint: allow(panic, reason = "the entry was peeked non-empty in the loop condition")
            let entry = self.deadline_index.pop().expect("peeked entry exists");
            let live = self.slots[slot]
                .as_ref()
                .is_some_and(|e| e.release.deadline == deadline);
            if !live {
                continue;
            }
            let fits = self.slots[slot]
                .as_ref()
                // rt-lint: allow(panic, reason = "the slot was checked live earlier in this iteration")
                .expect("checked live above")
                .release
                .declared_cost()
                <= budget;
            if fits {
                found = Some(slot);
                break;
            }
            skipped.push(entry);
        }
        for entry in skipped {
            self.deadline_index.push(entry);
        }
        found.map(|slot| self.take(slot))
    }

    /// Removes and returns the first pending release (in FIFO order)
    /// satisfying an arbitrary predicate — the O(n) generalisation of
    /// [`Self::choose_next`], kept for callers whose acceptance rule is not
    /// a cost threshold.
    pub fn choose_where(
        &mut self,
        accept: impl Fn(&QueuedRelease) -> bool,
    ) -> Option<QueuedRelease> {
        let index = self
            .slots
            .iter()
            .position(|entry| entry.as_ref().is_some_and(|e| accept(&e.release)))?;
        Some(self.take(index))
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
        self.slots.iter().flatten().map(|e| &e.release)
    }

    /// The equation-(5) slot predicted for a pending release.
    ///
    /// * [`QueueKind::ListOfLists`] answers from the slot stored at push
    ///   time — O(1), the §7 structure's whole point. After an out-of-order
    ///   removal the stored slots of the *surviving* entries reflect the
    ///   packing as it was when they were pushed (newly pushed entries are
    ///   packed against the rebuilt live queue).
    /// * [`QueueKind::Fifo`] answers by replaying the live queue from the
    ///   recorded packing reference — O(n) per query, exactly the cost the
    ///   list of lists eliminates. Before the PR-3 tournament-tree refactor
    ///   grew this path, the flat FIFO returned `None` unconditionally.
    ///
    /// Returns `None` for events that are not pending, whose declared cost
    /// exceeds the capacity (never servable by the non-resumable
    /// implementation), or — flat FIFO only — while the packing reference is
    /// invalidated (between an out-of-order removal and the next push).
    pub fn predicted_slot(&self, event: rt_model::EventId) -> Option<InstanceSlot> {
        let entry = self
            .slots
            .iter()
            .flatten()
            .find(|e| e.release.event == event)?;
        if let Some(slot) = entry.slot {
            return Some(slot);
        }
        if entry.release.declared_cost() > self.server.capacity {
            return None;
        }
        // Flat-FIFO replay: re-pack the full episode from the recorded
        // seed — first the heads already served in order (their capacity is
        // spent under the plan), then the live entries — until the event is
        // reached.
        let (now, remaining) = self.packing_seed?;
        let mut packer = InstancePacker::new(self.server, now, remaining);
        for &cost in &self.replayed_heads {
            if cost <= self.server.capacity {
                packer.push(cost);
            }
        }
        for e in self.slots.iter().flatten() {
            if e.release.declared_cost() <= self.server.capacity {
                let slot = packer.push(e.release.declared_cost());
                if e.release.event == event {
                    return Some(slot);
                }
            }
        }
        None
    }

    /// Removes a pending release by event id (the overload manager's abort
    /// path), maintaining the same index/packer invariants as a service
    /// removal. O(n) to locate the slot, O(log n) to remove it; aborts are
    /// rare decisions on the overload path, never per-dispatch work.
    pub fn remove_event(&mut self, event: rt_model::EventId) -> Option<QueuedRelease> {
        let index = self
            .slots
            .iter()
            .position(|entry| entry.as_ref().is_some_and(|e| e.release.event == event))?;
        Some(self.take(index))
    }

    /// Drains every remaining release (used at the horizon to report
    /// unserved events).
    pub fn drain(&mut self) -> Vec<QueuedRelease> {
        self.packer = None;
        self.packing_seed = None;
        self.replayed_heads.clear();
        self.live = 0;
        self.index.clear();
        self.deadline_index.clear();
        let drained = self.slots.drain(..).flatten().map(|e| e.release).collect();
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::ServableHandler;
    use rt_model::NameId;
    use rt_model::{EventId, HandlerId};

    fn release(id: u32, cost: u64, at: u64) -> QueuedRelease {
        QueuedRelease::new(
            EventId::new(id),
            ServableHandler::new(
                HandlerId::new(id),
                NameId::from_raw(id),
                Span::from_units(cost),
            ),
            Instant::from_units(at),
        )
    }

    fn queue(kind: QueueKind) -> PendingQueue {
        PendingQueue::new(
            kind,
            Span::from_units(4),
            Span::from_units(6),
            QueueDiscipline::FifoSkip,
        )
    }

    fn deadline_queue() -> PendingQueue {
        PendingQueue::new(
            QueueKind::Fifo,
            Span::from_units(4),
            Span::from_units(6),
            QueueDiscipline::DeadlineOrdered,
        )
    }

    /// A release with an explicit relative deadline.
    fn deadline_release(id: u32, cost: u64, at: u64, relative_deadline: u64) -> QueuedRelease {
        QueuedRelease::new(
            EventId::new(id),
            ServableHandler::new(
                HandlerId::new(id),
                NameId::from_raw(id),
                Span::from_units(cost),
            )
            .with_relative_deadline(Span::from_units(relative_deadline)),
            Instant::from_units(at),
        )
    }

    #[test]
    fn fifo_with_skip_serves_the_first_fitting_handler() {
        for kind in [QueueKind::Fifo, QueueKind::ListOfLists] {
            let mut q = queue(kind);
            q.push(release(0, 3, 0), Instant::ZERO, Span::from_units(4));
            q.push(release(1, 1, 1), Instant::ZERO, Span::from_units(4));
            // Remaining capacity 2: the first handler (cost 3) is skipped, the
            // second (cost 1) is served first — the paper's example verbatim.
            let chosen = q.choose_next(Span::from_units(2)).unwrap();
            assert_eq!(chosen.event, EventId::new(1), "{kind:?}");
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
    }

    #[test]
    fn choose_next_returns_none_when_nothing_fits() {
        let mut q = queue(QueueKind::Fifo);
        q.push(release(0, 3, 0), Instant::ZERO, Span::from_units(4));
        assert!(q.choose_next(Span::from_units(2)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn both_kinds_predict_the_same_slots() {
        // Pushing a sequence of releases must give identical equation-(5)
        // predictions whichever structure computes them: the flat FIFO
        // recomputes on demand (`predict_slot`), the list of lists maintains
        // the packing incrementally (`push` return).
        let costs = [3u64, 2, 2, 4, 1, 3, 1];
        let mut fifo = queue(QueueKind::Fifo);
        let mut lol = queue(QueueKind::ListOfLists);
        for (i, &c) in costs.iter().enumerate() {
            let predicted_fifo =
                fifo.predict_slot(Span::from_units(c), Instant::ZERO, Span::from_units(4));
            fifo.push(
                release(i as u32, c, i as u64),
                Instant::ZERO,
                Span::from_units(4),
            );
            let predicted_lol =
                lol.predict_slot(Span::from_units(c), Instant::ZERO, Span::from_units(4));
            let slot_lol = lol.push(
                release(i as u32, c, i as u64),
                Instant::ZERO,
                Span::from_units(4),
            );
            assert_eq!(predicted_fifo, predicted_lol, "prediction mismatch at {i}");
            assert_eq!(predicted_lol, slot_lol, "stored slot mismatch at {i}");
        }
    }

    #[test]
    fn list_of_lists_remembers_predicted_slots() {
        let mut q = queue(QueueKind::ListOfLists);
        q.push(release(0, 3, 0), Instant::ZERO, Span::from_units(4));
        q.push(release(1, 2, 0), Instant::ZERO, Span::from_units(4));
        let slot = q.predicted_slot(EventId::new(1)).unwrap();
        // Cost 3 fills instance 0 (capacity 4 leaves only 1), so the cost-2
        // handler is predicted in instance 1 with no prior cost.
        assert_eq!(slot.instance, 1);
        assert_eq!(slot.prior_cost, Span::ZERO);
        // The flat FIFO stores no slots but replays the same packing from
        // its recorded seed, so the answer is identical (at O(n) cost).
        let mut fifo = queue(QueueKind::Fifo);
        fifo.push(release(0, 3, 0), Instant::ZERO, Span::from_units(4));
        fifo.push(release(1, 2, 0), Instant::ZERO, Span::from_units(4));
        assert_eq!(fifo.predicted_slot(EventId::new(1)), Some(slot));
    }

    #[test]
    fn skip_invalidates_the_stored_packing() {
        // Regression test for the stale-packer bug: after an out-of-order
        // (FIFO-with-skip) removal, the list-of-lists predictions must be
        // computed against the queue as it actually is — i.e. agree with the
        // flat FIFO, which recomputes the packing from scratch on demand.
        let mut lol = queue(QueueKind::ListOfLists);
        let mut fifo = queue(QueueKind::Fifo);
        for q in [&mut lol, &mut fifo] {
            q.push(release(0, 3, 0), Instant::ZERO, Span::from_units(4));
            q.push(release(1, 1, 1), Instant::ZERO, Span::from_units(4));
            // Budget 1: the cost-3 head is skipped, the cost-1 entry leaves
            // out of order, so entry 0 is alone again but the old packing
            // said instance 0 already holds cost 3 + 1.
            let taken = q.choose_next(Span::from_units(1)).unwrap();
            assert_eq!(taken.event, EventId::new(1));
        }
        let slot_lol = lol.push(release(2, 2, 2), Instant::ZERO, Span::from_units(4));
        let slot_fifo = fifo.predict_slot(Span::from_units(2), Instant::ZERO, Span::from_units(4));
        assert_eq!(
            slot_lol, slot_fifo,
            "after a skip the incremental packer must be rebuilt against the live queue"
        );
        // The cost-3 survivor fills instance 0 past 4-2: the new cost-2
        // release lands in instance 1 with no prior cost.
        let slot = slot_lol.unwrap();
        assert_eq!(slot.instance, 1);
        assert_eq!(slot.prior_cost, Span::ZERO);
    }

    #[test]
    fn fifo_replay_remembers_heads_served_in_order() {
        // Regression: after an in-order head service (which keeps the
        // packing valid) the flat-FIFO replay must still charge the served
        // head's capacity — otherwise the survivor inherits its slot and
        // the prediction disagrees with the list-of-lists answer.
        let mut fifo = queue(QueueKind::Fifo);
        let mut lol = queue(QueueKind::ListOfLists);
        for q in [&mut fifo, &mut lol] {
            q.push(release(0, 3, 0), Instant::ZERO, Span::from_units(4));
            q.push(release(1, 2, 0), Instant::ZERO, Span::from_units(4));
            // Serve the head A in order: packing stays valid.
            assert_eq!(
                q.choose_next(Span::from_units(4)).unwrap().event,
                EventId::new(0)
            );
        }
        let expected = lol.predicted_slot(EventId::new(1)).unwrap();
        assert_eq!(expected.instance, 1, "B was packed behind the cost-3 head");
        assert_eq!(
            fifo.predicted_slot(EventId::new(1)),
            Some(expected),
            "the replay must pack the served head first"
        );
        // A second in-order service: both structures drain and reset.
        for q in [&mut fifo, &mut lol] {
            assert_eq!(
                q.choose_next(Span::from_units(4)).unwrap().event,
                EventId::new(1)
            );
            assert!(q.is_empty());
        }
    }

    #[test]
    fn pop_front_ignores_costs() {
        let mut q = queue(QueueKind::Fifo);
        q.push(release(0, 4, 0), Instant::ZERO, Span::from_units(4));
        q.push(release(1, 1, 0), Instant::ZERO, Span::from_units(4));
        assert_eq!(q.pop_front().unwrap().event, EventId::new(0));
        assert_eq!(q.pop_front().unwrap().event, EventId::new(1));
        assert!(q.pop_front().is_none());
    }

    #[test]
    fn choose_where_takes_the_first_acceptable_release() {
        let mut q = queue(QueueKind::Fifo);
        q.push(release(0, 3, 0), Instant::ZERO, Span::from_units(4));
        q.push(release(1, 1, 1), Instant::ZERO, Span::from_units(4));
        q.push(release(2, 2, 2), Instant::ZERO, Span::from_units(4));
        let taken = q
            .choose_where(|r| r.declared_cost() <= Span::from_units(2))
            .unwrap();
        assert_eq!(taken.event, EventId::new(1));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drain_empties_the_queue() {
        let mut q = queue(QueueKind::ListOfLists);
        q.push(release(0, 2, 0), Instant::ZERO, Span::from_units(4));
        q.push(release(1, 2, 3), Instant::ZERO, Span::from_units(4));
        let drained = q.drain();
        assert_eq!(drained.len(), 2);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn slab_compacts_while_a_release_stays_stuck() {
        // A cost-4 head that never fits the small budgets below stays
        // pending for the whole run while thousands of cost-1 releases pass
        // through out of order (FIFO-with-skip): the slab must track the
        // live backlog, not the total arrivals.
        let mut q = queue(QueueKind::ListOfLists);
        q.push(release(0, 4, 0), Instant::ZERO, Span::from_units(4));
        for i in 1..=2000u32 {
            q.push(release(i, 1, i as u64), Instant::ZERO, Span::from_units(4));
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
        q.push(
            deadline_release(0, 2, 0, 20),
            Instant::ZERO,
            Span::from_units(4),
        );
        q.push(
            deadline_release(1, 2, 1, 5),
            Instant::ZERO,
            Span::from_units(4),
        );
        q.push(
            deadline_release(2, 2, 2, 10),
            Instant::ZERO,
            Span::from_units(4),
        );
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
        q.push(
            deadline_release(0, 4, 0, 3),
            Instant::ZERO,
            Span::from_units(4),
        );
        q.push(
            deadline_release(1, 1, 1, 30),
            Instant::ZERO,
            Span::from_units(4),
        );
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
            let mut fifo = queue(QueueKind::Fifo);
            let mut edd = deadline_queue();
            let mut id = 0u32;
            let mut at = 0u64;
            for _step in 0..200 {
                if next_rand() % 3 != 0 {
                    let cost = 1 + next_rand() % 4;
                    at += next_rand() % 2;
                    fifo.push(release(id, cost, at), Instant::ZERO, Span::from_units(4));
                    edd.push(release(id, cost, at), Instant::ZERO, Span::from_units(4));
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
        q.push(
            deadline_release(0, 1, 2, 8),
            Instant::ZERO,
            Span::from_units(4),
        );
        q.push(
            deadline_release(1, 1, 4, 6),
            Instant::ZERO,
            Span::from_units(4),
        );
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
        q.push(
            deadline_release(0, 4, 0, 500),
            Instant::ZERO,
            Span::from_units(4),
        );
        for i in 1..=2000u32 {
            q.push(
                deadline_release(i, 1, i as u64, 3),
                Instant::ZERO,
                Span::from_units(4),
            );
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
            let mut q = PendingQueue::new(
                QueueKind::Fifo,
                Span::from_units(4),
                Span::from_units(6),
                discipline,
            );
            for i in 0..100u32 {
                q.push(release(i, 2, i as u64), Instant::ZERO, Span::from_units(4));
            }
            for _ in 0..100 {
                assert!(q.choose_next(Span::from_units(4)).is_some());
            }
            assert!(q.is_empty());
            assert_eq!(q.slots.len(), 0, "{discipline:?}: slab must be cleared");
            assert_eq!(q.index.len, 0, "{discipline:?}: cost index must be cleared");
            assert!(q.deadline_index.is_empty());
            // Push-after-full-drain: indexes restart consistently.
            q.push(release(999, 1, 0), Instant::ZERO, Span::from_units(4));
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
            let mut q = PendingQueue::new(
                QueueKind::Fifo,
                Span::from_units(4),
                Span::from_units(6),
                discipline,
            );
            for i in 0..5u32 {
                q.push(release(i, 3, i as u64), Instant::ZERO, Span::from_units(4));
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
    fn push_after_explicit_drain_restarts_cleanly() {
        for discipline in [QueueDiscipline::FifoSkip, QueueDiscipline::DeadlineOrdered] {
            let mut q = PendingQueue::new(
                QueueKind::ListOfLists,
                Span::from_units(4),
                Span::from_units(6),
                discipline,
            );
            for i in 0..80u32 {
                q.push(release(i, 2, i as u64), Instant::ZERO, Span::from_units(4));
            }
            let drained = q.drain();
            assert_eq!(drained.len(), 80);
            assert!(q.is_empty());
            // Everything restarts from slot 0 with a clean packer.
            let slot = q.push(release(100, 2, 0), Instant::ZERO, Span::from_units(4));
            assert_eq!(q.len(), 1);
            if q.kind() == QueueKind::ListOfLists {
                assert!(slot.is_some(), "packer must be reseeded after drain");
            }
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
            let mut q = queue(QueueKind::Fifo);
            let mut reference: Vec<(u32, u64)> = Vec::new();
            let mut id = 0u32;
            for _step in 0..200 {
                if next_rand() % 3 != 0 {
                    let cost = 1 + next_rand() % 4;
                    q.push(release(id, cost, 0), Instant::ZERO, Span::from_units(4));
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
            let drained: Vec<u32> = q.drain().into_iter().map(|r| r.event.raw()).collect();
            let expected: Vec<u32> = reference.iter().map(|&(i, _)| i).collect();
            assert_eq!(drained, expected, "drain preserves FIFO order");
        }
    }
}
