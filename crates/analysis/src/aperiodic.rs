//! On-line response-time computation for aperiodic events served by a
//! highest-priority Polling Server (paper §7, equations (1)–(5)).
//!
//! Two flavours are provided:
//!
//! * [`textbook_ps_response_time`] — equations (1)–(4): the response time of
//!   an aperiodic job under the *textbook* Polling Server, assuming pending
//!   aperiodic work is served in ascending-deadline order and the server is
//!   the highest-priority task of the system.
//! * [`implementation_ps_response_time`] — equation (5): the response time
//!   under the paper's *implementation*, whose handlers are not resumable, so
//!   a handler only starts in an instance that can accommodate its whole
//!   declared cost. The instance assignment (`I_a`) and the cumulative cost of
//!   the handlers scheduled before it in the same instance (`Cp_a`) come from
//!   the list-of-lists structure the paper proposes; [`InstancePacker`] is
//!   that structure, and it answers both quantities in O(1) per insertion.

use rt_model::{Instant, Span};

/// Static parameters of the polling server used by the on-line analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerParams {
    /// Full capacity `C_s` replenished at every period.
    pub capacity: Span,
    /// Replenishment period `T_s`.
    pub period: Span,
}

impl ServerParams {
    /// Creates the parameter pair.
    pub fn new(capacity: Span, period: Span) -> Self {
        assert!(!period.is_zero(), "server period must be positive");
        assert!(!capacity.is_zero(), "server capacity must be positive");
        assert!(
            capacity <= period,
            "server capacity cannot exceed its period"
        );
        ServerParams { capacity, period }
    }

    /// Index of the server instance active at (or starting right after) `t`:
    /// `G_k = ⌈ t / T_s ⌉` (equation (3)).
    fn next_instance_index(&self, t: Instant) -> u64 {
        Span::from_ticks(t.ticks()).div_ceil_span(self.period)
    }

    /// Start instant of the instance with the given index.
    pub fn instance_start(&self, index: u64) -> Instant {
        Instant::ZERO + self.period.saturating_mul(index)
    }
}

/// Equations (1)–(4): on-line worst-case response time of an aperiodic job
/// `J_a` released at `release` (= the computation instant `t`), given
///
/// * `remaining_capacity` — `c_s(t)`, the capacity left in the current server
///   instance,
/// * `pending_work` — `Cape(t, d_k)`, the total cost of the pending aperiodic
///   work with a deadline no later than `J_a`'s, *including* `J_a` itself.
///
/// The server must be the highest-priority task of the system, which is what
/// makes this computation valid on-line (paper §2.1).
pub fn textbook_ps_response_time(
    server: ServerParams,
    t: Instant,
    remaining_capacity: Span,
    pending_work: Span,
    release: Instant,
) -> Span {
    assert!(
        release <= t,
        "the analysis instant cannot precede the release"
    );
    if pending_work <= remaining_capacity {
        // Equation (1), first case: everything fits in the current instance.
        return (t + pending_work).since(release);
    }
    // Equation (2): number of *full* further instances needed.
    let leftover = pending_work.minus(remaining_capacity);
    let f_k = leftover.div_span(server.capacity);
    // Equation (3): index of the instance that begins the spill-over
    // service, `G_k = ⌈ t / T_s ⌉`. When `t` falls exactly on an activation
    // instant the ceiling degenerates to the *current* instance — whose
    // capacity `c_s(t)` has already been accounted for — so the spill-over
    // must start at the following activation; the computation below uses
    // `⌊ t / T_s ⌋ + 1`, which coincides with the ceiling everywhere else.
    let g_k = Span::from_ticks(t.ticks()).div_span(server.period) + 1;
    // Equation (4): work served in the last (partial) instance.
    let r_k = leftover.minus(server.capacity.saturating_mul(f_k));
    // Equation (1), second case.
    let completion = server.instance_start(f_k + g_k) + r_k;
    completion.since(release)
}

/// Equation (5): response time of an aperiodic event under the paper's
/// non-resumable implementation, given the instance `I_a` in which its
/// handler will run (absolute index, instance `i` spanning
/// `[i·T_s, (i+1)·T_s)`), the cumulative cost `Cp_a` of the handlers
/// scheduled before it within that instance, and its own cost `C_a`.
pub fn implementation_ps_response_time(
    server: ServerParams,
    instance: u64,
    prior_cost_in_instance: Span,
    cost: Span,
    release: Instant,
) -> Span {
    let completion = server.instance_start(instance) + prior_cost_in_instance + cost;
    completion.since(release)
}

/// Assignment of one handler to a server instance, as computed by
/// [`InstancePacker::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceSlot {
    /// Absolute index of the server instance the handler will execute in.
    pub instance: u64,
    /// Cumulative declared cost of the handlers scheduled before this one in
    /// the same instance (`Cp_a`). In the instance that was already running
    /// when the packer was seeded, the time elapsed in it before the seed
    /// counts as prior cost too, so the handler never completes earlier
    /// than its own cost after the seed instant.
    pub prior_cost: Span,
    /// The handler's own declared cost (`C_a`).
    pub cost: Span,
}

impl InstanceSlot {
    /// Equation (5) applied to this slot.
    pub fn response_time(&self, server: ServerParams, release: Instant) -> Span {
        implementation_ps_response_time(server, self.instance, self.prior_cost, self.cost, release)
    }
}

/// Conservative equation-(5) bound for a server that is **not** the
/// top-priority server of a multi-server system.
///
/// Equation (5) assumes the server runs above everything, so its instance
/// `i` really delivers its capacity starting at `i·T_s`. With servers above
/// it, every instance the prediction touches — from the one containing the
/// release to the one the handler is served in — can additionally be pushed
/// back by the full capacity of each higher-priority server (their worst
/// per-period demand). The bound adds that interference once per touched
/// instance; with `higher_capacity_per_period == 0` it degenerates to
/// equation (5) exactly.
pub fn multi_server_response_bound(
    server: ServerParams,
    slot: InstanceSlot,
    release: Instant,
    higher_capacity_per_period: Span,
) -> Span {
    let base = slot.response_time(server, release);
    if higher_capacity_per_period.is_zero() {
        return base;
    }
    let release_instance = Span::from_ticks(release.ticks()).div_span(server.period);
    // A slot earlier than the release's own instance would mean the handler
    // is predicted to be served *before* its event fired — a packer-misuse
    // bug a saturating subtraction would silently flatten into "one
    // instance touched", under-counting the interference. Surface it.
    debug_assert!(
        slot.instance >= release_instance,
        "slot instance {} precedes the release instance {release_instance}: \
         the packer was seeded after the release it predicts",
        slot.instance
    );
    let instances_touched = match slot.instance.checked_sub(release_instance) {
        Some(spanned) => spanned + 1,
        // Release-build fallback: count at least the release instance.
        None => 1,
    };
    base + higher_capacity_per_period.saturating_mul(instances_touched)
}

/// The list-of-lists structure proposed in §7 of the paper: each inner list
/// holds the handlers that fit together in one server instance, alongside the
/// cumulative cost of that list. Pushing a handler assigns it to the first
/// instance (from the current one onwards) whose residual capacity can hold
/// its whole cost, in FIFO order — i.e. handlers never jump ahead of an
/// already-queued handler, matching the structure's purpose of making the
/// *admission-time* response-time computation constant-time.
#[derive(Debug, Clone)]
pub struct InstancePacker {
    server: ServerParams,
    /// Absolute index of the instance the list currently being filled maps to.
    last_instance: u64,
    /// Cumulative declared cost already assigned to that instance; for the
    /// instance current at the seed, starting with the time elapsed in it.
    last_load: Span,
    /// Capacity of the instance currently being filled: for the very first
    /// (current) instance the elapsed time plus the remaining capacity, the
    /// full capacity for every later one.
    last_capacity: Span,
    /// Number of handlers assigned so far (for reporting).
    assigned: usize,
}

impl InstancePacker {
    /// Creates a packer whose first list corresponds to the server instance
    /// active at `now`, with `remaining_capacity` left in it. The part of
    /// that instance already elapsed at `now` is the first list's initial
    /// load, so a handler packed there completes at `now` plus the cost
    /// packed before it plus its own, and fits exactly when those costs fit
    /// the remaining capacity.
    pub fn new(server: ServerParams, now: Instant, remaining_capacity: Span) -> Self {
        let next = server.next_instance_index(now);
        let current = if now.ticks().is_multiple_of(server.period.ticks()) {
            next
        } else {
            next - 1
        };
        let elapsed = now.since(server.instance_start(current));
        InstancePacker {
            server,
            last_instance: current,
            last_load: elapsed,
            last_capacity: elapsed + remaining_capacity.min(server.capacity),
            assigned: 0,
        }
    }

    /// Creates a packer starting from an explicit instance index with the
    /// full capacity available (useful for tests and simulations).
    pub fn from_instance(server: ServerParams, instance: u64) -> Self {
        InstancePacker {
            server,
            last_instance: instance,
            last_load: Span::ZERO,
            last_capacity: server.capacity,
            assigned: 0,
        }
    }

    /// Assigns a handler of the given declared cost, returning its slot.
    ///
    /// # Panics
    /// Panics when the cost exceeds the server capacity — such a handler can
    /// never be served by the non-resumable implementation and must be
    /// rejected by admission control beforehand.
    pub fn push(&mut self, cost: Span) -> InstanceSlot {
        assert!(
            cost <= self.server.capacity,
            "handler cost {cost} exceeds the server capacity {}",
            self.server.capacity
        );
        self.assigned += 1;
        if self.last_load + cost <= self.last_capacity {
            let slot = InstanceSlot {
                instance: self.last_instance,
                prior_cost: self.last_load,
                cost,
            };
            self.last_load += cost;
            slot
        } else {
            // Open a new list mapped to the next instance, which always has
            // the full capacity available.
            self.last_instance += 1;
            self.last_load = cost;
            self.last_capacity = self.server.capacity;
            InstanceSlot {
                instance: self.last_instance,
                prior_cost: Span::ZERO,
                cost,
            }
        }
    }

    /// Number of handlers assigned so far.
    pub fn len(&self) -> usize {
        self.assigned
    }

    /// True when no handler has been assigned yet.
    pub fn is_empty(&self) -> bool {
        self.assigned == 0
    }

    /// Index of the instance currently being filled.
    pub fn current_instance(&self) -> u64 {
        self.last_instance
    }

    /// Load already assigned to the instance currently being filled; in the
    /// instance current at the seed it includes the time elapsed before it.
    pub fn current_load(&self) -> Span {
        self.last_load
    }

    /// The server parameters the packer was built with.
    pub fn server(&self) -> ServerParams {
        self.server
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> ServerParams {
        ServerParams::new(Span::from_units(4), Span::from_units(6))
    }

    #[test]
    #[should_panic(expected = "capacity cannot exceed")]
    fn server_params_validate_capacity() {
        ServerParams::new(Span::from_units(7), Span::from_units(6));
    }

    #[test]
    fn instance_index_and_start() {
        let s = server();
        assert_eq!(s.next_instance_index(Instant::from_units(0)), 0);
        assert_eq!(s.next_instance_index(Instant::from_units(1)), 1);
        assert_eq!(s.next_instance_index(Instant::from_units(6)), 1);
        assert_eq!(s.next_instance_index(Instant::from_units(7)), 2);
        assert_eq!(s.instance_start(3), Instant::from_units(18));
    }

    #[test]
    fn textbook_response_fits_in_current_capacity() {
        // Released at t=2 with 3 units of pending work and 4 units of
        // remaining capacity: finishes at t + 3.
        let r = textbook_ps_response_time(
            server(),
            Instant::from_units(2),
            Span::from_units(4),
            Span::from_units(3),
            Instant::from_units(2),
        );
        assert_eq!(r, Span::from_units(3));
    }

    #[test]
    fn textbook_response_spills_into_later_instances() {
        // t = ra = 2, remaining capacity 1, pending work 6 (this job + queue).
        // leftover = 5, Fk = floor(5/4) = 1, Gk = ceil(2/6) = 1, Rk = 1.
        // Completion = (1+1)*6 + 1 = 13 -> response 11.
        let r = textbook_ps_response_time(
            server(),
            Instant::from_units(2),
            Span::from_units(1),
            Span::from_units(6),
            Instant::from_units(2),
        );
        assert_eq!(r, Span::from_units(11));
    }

    #[test]
    fn textbook_response_with_analysis_later_than_release() {
        // Release at 1, analysed at 2 (e.g. after the firing overhead):
        // the elapsed time is included in the response.
        let r = textbook_ps_response_time(
            server(),
            Instant::from_units(2),
            Span::from_units(4),
            Span::from_units(2),
            Instant::from_units(1),
        );
        assert_eq!(r, Span::from_units(3));
    }

    #[test]
    #[should_panic(expected = "cannot precede the release")]
    fn textbook_response_rejects_time_travel() {
        textbook_ps_response_time(
            server(),
            Instant::from_units(1),
            Span::from_units(4),
            Span::from_units(2),
            Instant::from_units(2),
        );
    }

    #[test]
    fn equation_five_matches_manual_computation() {
        // Instance 2 starts at 12; prior cost 1, own cost 2, released at 4:
        // response = 12 + 1 + 2 - 4 = 11.
        let r = implementation_ps_response_time(
            server(),
            2,
            Span::from_units(1),
            Span::from_units(2),
            Instant::from_units(4),
        );
        assert_eq!(r, Span::from_units(11));
    }

    #[test]
    fn packer_fills_instances_fifo() {
        let mut p = InstancePacker::from_instance(server(), 0);
        let a = p.push(Span::from_units(3));
        let b = p.push(Span::from_units(2)); // does not fit with a (3+2 > 4)
        let c = p.push(Span::from_units(2)); // fits with b
        let d = p.push(Span::from_units(4)); // full next instance
        assert_eq!((a.instance, a.prior_cost), (0, Span::ZERO));
        assert_eq!((b.instance, b.prior_cost), (1, Span::ZERO));
        assert_eq!((c.instance, c.prior_cost), (1, Span::from_units(2)));
        assert_eq!((d.instance, d.prior_cost), (2, Span::ZERO));
        assert_eq!(p.len(), 4);
        assert_eq!(p.current_instance(), 2);
        assert_eq!(p.current_load(), Span::from_units(4));
    }

    #[test]
    fn packer_respects_reduced_first_capacity() {
        // The current instance has only 1 unit left: a cost-2 handler must go
        // to the next instance.
        let mut p = InstancePacker::new(server(), Instant::from_units(2), Span::from_units(1));
        let slot = p.push(Span::from_units(2));
        assert_eq!(slot.instance, 1);
        assert_eq!(slot.prior_cost, Span::ZERO);
        // A cost-1 handler queued *after* still goes behind it (FIFO), not in
        // the earlier hole.
        let second = p.push(Span::from_units(1));
        assert_eq!(second.instance, 1);
        assert_eq!(second.prior_cost, Span::from_units(2));
    }

    #[test]
    fn packer_small_job_can_use_first_instance_when_it_fits() {
        let mut p = InstancePacker::new(server(), Instant::from_units(2), Span::from_units(1));
        let slot = p.push(Span::from_units(1));
        assert_eq!(
            slot.instance, 0,
            "fits in the remaining capacity of the current instance"
        );
    }

    #[test]
    fn packer_seeded_mid_instance_counts_the_elapsed_time() {
        // Seeded at t=2 with 3 units left in instance 0 (which began at 0):
        // the first two units of the instance are load, so a cost-2 handler
        // runs 2..4 and a cost-1 one after it 4..5; a further cost-1
        // handler exceeds the remaining 3 and opens instance 1.
        let mut p = InstancePacker::new(server(), Instant::from_units(2), Span::from_units(3));
        assert_eq!(p.current_load(), Span::from_units(2));
        assert_eq!(p.last_capacity, Span::from_units(5));
        let first = p.push(Span::from_units(2));
        let second = p.push(Span::from_units(1));
        let third = p.push(Span::from_units(1));
        assert_eq!((first.instance, first.prior_cost), (0, Span::from_units(2)));
        assert_eq!(
            (second.instance, second.prior_cost),
            (0, Span::from_units(4))
        );
        assert_eq!((third.instance, third.prior_cost), (1, Span::ZERO));
        let released = Instant::from_units(2);
        let responses = [first, second, third].map(|slot| slot.response_time(server(), released));
        assert_eq!(responses, [2, 3, 5].map(Span::from_units));
        // At an instance boundary nothing has elapsed.
        let p = InstancePacker::new(server(), Instant::from_units(6), Span::from_units(4));
        assert_eq!((p.current_instance(), p.current_load()), (1, Span::ZERO));
    }

    #[test]
    fn online_admission_prices_every_query_by_both_equations() {
        // The `online_admission` example: eight queries arrive at t = 1 at a
        // capacity-4 / period-6 server that still holds its full capacity.
        // Equations (1)–(4) price each one behind the admitted backlog, a
        // query is admitted when that prediction is at most 15, and each
        // admitted query is priced again by equation (5) from its slot in
        // the packing of the backlog.
        let now = Instant::from_units(1);
        let remaining = server().capacity;
        let mut packer = InstancePacker::new(server(), now, remaining);
        let mut pending = Span::ZERO;
        let (mut textbook, mut implementation) = (Vec::new(), Vec::new());
        for cost in [3.0, 2.0, 3.5, 1.0, 4.0, 2.0, 3.0, 1.5].map(Span::from_units_f64) {
            let predicted =
                textbook_ps_response_time(server(), now, remaining, pending + cost, now);
            textbook.push(predicted.as_units());
            if predicted <= Span::from_units(15) {
                pending += cost;
                implementation.push(packer.push(cost).response_time(server(), now).as_units());
            }
        }
        assert_eq!(
            textbook,
            [3.0, 6.0, 11.5, 12.5, 18.5, 14.5, 19.5, 18.0],
            "eq(1)-(4) column"
        );
        assert_eq!(
            implementation,
            [3.0, 7.0, 14.5, 18.0, 20.0],
            "eq(5) column of the five admitted queries"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the server capacity")]
    fn packer_rejects_oversized_handlers() {
        let mut p = InstancePacker::from_instance(server(), 0);
        p.push(Span::from_units(5));
    }

    #[test]
    fn slot_response_time_uses_equation_five() {
        let mut p = InstancePacker::from_instance(server(), 1);
        let slot = p.push(Span::from_units(2));
        // Instance 1 starts at 6; release at 4 -> response 6 + 0 + 2 - 4 = 4.
        assert_eq!(
            slot.response_time(server(), Instant::from_units(4)),
            Span::from_units(4)
        );
    }

    #[test]
    fn multi_server_bound_reduces_to_equation_five_at_the_top() {
        let mut p = InstancePacker::from_instance(server(), 1);
        let slot = p.push(Span::from_units(2));
        let release = Instant::from_units(4);
        assert_eq!(
            multi_server_response_bound(server(), slot, release, Span::ZERO),
            slot.response_time(server(), release)
        );
        // One higher server of capacity 1: the release instance (0) and the
        // service instance (1) can each be pushed back by 1 → +2.
        assert_eq!(
            multi_server_response_bound(server(), slot, release, Span::from_units(1)),
            slot.response_time(server(), release) + Span::from_units(2)
        );
    }

    #[test]
    fn packer_is_empty_then_not() {
        let mut p = InstancePacker::from_instance(server(), 0);
        assert!(p.is_empty());
        p.push(Span::from_units(1));
        assert!(!p.is_empty());
        assert_eq!(p.server().capacity, Span::from_units(4));
        assert_eq!(p.last_capacity, Span::from_units(4));
    }
}
