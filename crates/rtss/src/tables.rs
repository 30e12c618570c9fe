//! The frozen dispatch tables the simulation driver reads: a validated
//! [`SystemSpec`] flattened into exactly the fields the decision loop
//! touches.
//!
//! Building the tables is O(tasks + servers): the aperiodic traffic is
//! neither copied nor walked (beyond one binary search locating the horizon
//! boundary in the sorted stream) — arrival rows are assembled on demand
//! from the borrowed spec events ([`SimTables::arrival`]), with injected
//! overruns resolved through a small sorted side table. The spec is
//! borrowed, and owned only when arrival faults force a normalised copy.

use rt_model::{
    AdmissionPolicy, EventId, Instant, Priority, QueueDiscipline, SchedulingPolicy,
    ServerPolicyKind, ServerSpec, Span, SystemSpec, TaskId,
};
use std::borrow::Cow;

/// One periodic task, frozen: exactly the fields the decision loop touches,
/// laid out flat (the `name` string and spec bookkeeping stay behind in the
/// retained [`SystemSpec`]).
#[derive(Debug, Clone)]
pub(crate) struct TaskTable {
    pub(crate) id: TaskId,
    pub(crate) cost: Span,
    /// Relative deadline (absolute deadline = release + this).
    pub(crate) deadline: Span,
    pub(crate) priority: Priority,
}

/// A release-rate group: every task sharing `(offset, period)` releases at
/// the same instants forever, so the release wheel tracks the group, not the
/// tasks. Same-instant releases land in distinct per-task queues and the
/// ready structures are order-insensitive at one instant, so group order is
/// unobservable — the reference engine's per-task release order is preserved
/// trace-byte-for-byte.
#[derive(Debug, Clone)]
pub(crate) struct ReleaseGroup {
    /// First release (the common task offset).
    pub(crate) first: Instant,
    pub(crate) period: Span,
    /// Member task indices, ascending.
    pub(crate) members: Vec<u32>,
}

/// One aperiodic arrival as the decision loop sees it: outcome fields plus
/// the lane-service deadline precomputed (`release + relative_deadline`, or
/// the release when the event carries no deadline). Assembled on demand
/// ([`SimTables::arrival`]) from the borrowed spec events, which is what
/// keeps table building independent of the traffic volume.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArrivalTable {
    pub(crate) id: EventId,
    /// Routed server index (may be out of range: orphan).
    pub(crate) server: usize,
    pub(crate) release: Instant,
    /// Demand actually executed: the real cost plus any injected overrun
    /// ([`rt_model::FaultPlan::overrun_extra`]), resolved per access through
    /// the sorted overrun side table.
    pub(crate) demand: Span,
    /// Service cap enforced against the demand: the declared cost for
    /// overrun-injected jobs, [`Span::MAX`] otherwise.
    pub(crate) cap: Span,
    pub(crate) declared_cost: Span,
    /// Absolute deadline, if the event carries one.
    pub(crate) deadline: Option<Instant>,
    /// Deadline key used by deadline-ordered lane service.
    pub(crate) lane_deadline: Instant,
    pub(crate) value: u64,
}

/// One server lane, frozen: the scalar fields the inlined policies read,
/// plus the original [`ServerSpec`] for seeding the admission machine.
#[derive(Debug, Clone)]
pub(crate) struct LaneTable {
    pub(crate) kind: ServerPolicyKind,
    pub(crate) capacity: Span,
    pub(crate) period: Span,
    pub(crate) priority: Priority,
    pub(crate) discipline: QueueDiscipline,
    pub(crate) admission: AdmissionPolicy,
    pub(crate) spec: ServerSpec,
}

/// Which single server-policy kind every lane shares, selecting the
/// monomorphized driver instantiation ([`PolicySet::Mixed`] falls back to an
/// inline-enum lane — still clone-free, but with a per-call kind branch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PolicySet {
    Polling,
    Deferrable,
    Background,
    Sporadic,
    Mixed,
}

/// A validated [`SystemSpec`] frozen into the driver's dispatch tables.
#[derive(Debug, Clone)]
pub(crate) struct SimTables<'a> {
    /// The source spec — borrowed from the caller, or owned when arrival
    /// faults required normalisation.
    spec: Cow<'a, SystemSpec>,
    pub(crate) scheduling: SchedulingPolicy,
    pub(crate) horizon: Instant,
    pub(crate) tasks: Vec<TaskTable>,
    pub(crate) groups: Vec<ReleaseGroup>,
    pub(crate) lanes: Vec<LaneTable>,
    /// In-horizon prefix length of the (release, id)-sorted arrival stream;
    /// [`Self::arrival`] indexes into that prefix.
    pub(crate) arrival_count: usize,
    /// Injected cost overruns, sorted by event id for binary search.
    overruns: Vec<(EventId, Span)>,
    pub(crate) lane_set: PolicySet,
    /// Exact periodic-job count within the horizon (trace preallocation).
    pub(crate) job_count: usize,
    /// Segment-vector preallocation hint.
    pub(crate) segment_hint: usize,
}

impl<'a> SimTables<'a> {
    /// Freezes a spec the caller has already validated
    /// ([`SystemSpec::validate`]); validation is not repeated here.
    pub(crate) fn build(spec: &'a SystemSpec) -> SimTables<'a> {
        // Arrival faults (release jitter, dropped arrivals) are a pure spec
        // normalization, resolved here once — the tables below freeze the
        // faulted arrival stream. Fault-free specs stay borrowed.
        let spec: Cow<'a, SystemSpec> = match spec.apply_arrival_faults() {
            Some(faulted) => Cow::Owned(faulted),
            None => Cow::Borrowed(spec),
        };
        let tasks: Vec<TaskTable> = spec
            .periodic_tasks
            .iter()
            .map(|t| TaskTable {
                id: t.id,
                cost: t.cost,
                deadline: t.deadline,
                priority: t.priority,
            })
            .collect();

        // Group tasks by (offset, period); first-seen order, members
        // ascending by construction.
        let mut groups: Vec<ReleaseGroup> = Vec::new();
        let mut job_count = 0usize;
        for (i, t) in spec.periodic_tasks.iter().enumerate() {
            let first = t.release_of(0);
            let key = (first, t.period);
            match groups.iter_mut().find(|g| (g.first, g.period) == key) {
                Some(group) => group.members.push(i as u32),
                None => groups.push(ReleaseGroup {
                    first,
                    period: t.period,
                    members: vec![i as u32],
                }),
            }
            if first < spec.horizon {
                let window = spec.horizon.since(first).ticks();
                // Releases at first, first+p, ... strictly below the horizon.
                job_count += (1 + (window - 1) / t.period.ticks()) as usize;
            }
        }

        // Arrivals at or past the horizon are invisible to the decision loop
        // (it stops strictly before the horizon) and produce no outcome. The
        // stream is (release, id)-sorted, so the in-horizon traffic is a
        // prefix — one binary search, no walk, no copy.
        let arrival_count = spec.workload().within_horizon_count();

        // The overrun side table: tiny (one row per injected fault), sorted
        // by event id so on-demand arrival assembly is a binary search.
        let mut overruns: Vec<(EventId, Span)> = spec
            .faults
            .overruns
            .iter()
            .map(|o| (o.event, o.extra))
            .collect();
        overruns.sort_unstable_by_key(|&(id, _)| id);

        let lanes: Vec<LaneTable> = spec
            .servers
            .iter()
            .map(|s| LaneTable {
                kind: s.policy,
                capacity: s.capacity,
                period: s.period,
                priority: s.priority,
                discipline: s.discipline,
                admission: s.admission,
                spec: s.clone(),
            })
            .collect();

        // A scheduled policy swap changes a lane's kind at runtime, which the
        // single-kind monomorphized drivers cannot represent: fall back to
        // the inline-enum lane, which rebuilds its variant on the swap.
        let lane_set = if spec.faults.has_policy_swap() {
            PolicySet::Mixed
        } else {
            match lanes.split_first() {
                None => PolicySet::Background,
                Some((head, tail)) => {
                    if tail.iter().all(|l| l.kind == head.kind) {
                        match head.kind {
                            ServerPolicyKind::Polling => PolicySet::Polling,
                            ServerPolicyKind::Deferrable => PolicySet::Deferrable,
                            ServerPolicyKind::Background => PolicySet::Background,
                            ServerPolicyKind::Sporadic => PolicySet::Sporadic,
                        }
                    } else {
                        PolicySet::Mixed
                    }
                }
            }
        };

        SimTables {
            scheduling: spec.scheduling,
            horizon: spec.horizon,
            tasks,
            groups,
            lanes,
            arrival_count,
            overruns,
            lane_set,
            job_count,
            segment_hint: job_count + 2 * arrival_count + 64,
            spec,
        }
    }

    /// The (fault-normalised) specification the tables were built from.
    pub(crate) fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Assembles the `index`-th in-horizon arrival row on demand from the
    /// borrowed spec event (a handful of field copies plus one binary search
    /// in the overrun side table — no allocation).
    #[inline]
    pub(crate) fn arrival(&self, index: usize) -> ArrivalTable {
        debug_assert!(index < self.arrival_count);
        let e = &self.spec.aperiodics[index];
        let extra = match self.overruns.binary_search_by_key(&e.id, |&(id, _)| id) {
            Ok(k) => self.overruns[k].1,
            Err(_) => Span::ZERO,
        };
        ArrivalTable {
            id: e.id,
            server: e.server,
            release: e.release,
            demand: e.actual_cost + extra,
            cap: if extra.is_zero() {
                Span::MAX
            } else {
                e.declared_cost
            },
            declared_cost: e.declared_cost,
            deadline: e.absolute_deadline(),
            lane_deadline: e.absolute_deadline().unwrap_or(e.release),
            value: e.value,
        }
    }

    /// Release instant of the `index`-th in-horizon arrival (the decision
    /// loop's next-arrival peek, cheaper than assembling the full row).
    #[inline]
    pub(crate) fn arrival_release(&self, index: usize) -> Instant {
        self.spec.aperiodics[index].release
    }
}
