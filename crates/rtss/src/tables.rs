//! The frozen dispatch tables the simulation driver reads: a validated
//! [`SystemSpec`] flattened into exactly the fields the decision loop
//! touches.
//!
//! Building the tables is O(tasks + servers): the aperiodic traffic is
//! neither copied nor walked (beyond one binary search locating the horizon
//! boundary in the sorted stream) — arrival rows are assembled on demand
//! from the borrowed spec events ([`SimTables::arrival`]), with injected
//! overruns resolved through a small sorted [`OverrunTable`]. The spec is
//! borrowed, and owned only when arrival faults force a normalised copy.
//! The task, group and lane tables are built in buffers the thread keeps
//! between runs ([`TableBuffers`]).

use rt_model::{
    AdmissionPolicy, EventId, Instant, OverrunTable, Priority, QueueDiscipline, SchedulingPolicy,
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
    /// Where the member task indices (ascending) start in
    /// [`SimTables::members`].
    start: u32,
    /// How many members the group has.
    len: u32,
}

impl ReleaseGroup {
    /// The group's members, as a range of [`SimTables::members`].
    pub(crate) fn members(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
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
    /// The release groups' member task indices, group after group.
    pub(crate) members: Vec<u32>,
    pub(crate) lanes: Vec<LaneTable>,
    /// In-horizon prefix length of the (release, id)-sorted arrival stream;
    /// [`Self::arrival`] indexes into that prefix.
    pub(crate) arrival_count: usize,
    /// Injected cost overruns, sorted by event id for binary search.
    overruns: OverrunTable,
    pub(crate) lane_set: PolicySet,
    /// Exact periodic-job count within the horizon (trace preallocation).
    pub(crate) job_count: usize,
    /// Segment-vector preallocation hint.
    pub(crate) segment_hint: usize,
}

/// The buffers of the tables, kept empty between the runs of one thread
/// ([`crate::scratch`]).
#[derive(Debug, Default)]
pub(crate) struct TableBuffers {
    tasks: Vec<TaskTable>,
    groups: Vec<ReleaseGroup>,
    members: Vec<u32>,
    lanes: Vec<LaneTable>,
}

impl<'a> SimTables<'a> {
    /// Freezes a spec the caller has already validated
    /// ([`SystemSpec::validate`]) into `buffers`; validation is not repeated
    /// here.
    pub(crate) fn build(spec: &'a SystemSpec, buffers: TableBuffers) -> SimTables<'a> {
        // Arrival faults (release jitter, dropped arrivals) are a pure spec
        // normalization, resolved here once — the tables below freeze the
        // faulted arrival stream. Fault-free specs stay borrowed.
        let spec: Cow<'a, SystemSpec> = match spec.apply_arrival_faults() {
            Some(faulted) => Cow::Owned(faulted),
            None => Cow::Borrowed(spec),
        };
        let TableBuffers {
            mut tasks,
            mut groups,
            mut members,
            mut lanes,
        } = buffers;
        debug_assert!(
            tasks.is_empty() && groups.is_empty() && members.is_empty() && lanes.is_empty()
        );
        tasks.extend(spec.periodic_tasks.iter().map(|t| TaskTable {
            id: t.id,
            cost: t.cost,
            deadline: t.deadline,
            priority: t.priority,
        }));

        // Group tasks by (offset, period) in first-seen order, then lay each
        // group's members out contiguously, ascending.
        let mut job_count = 0usize;
        for t in &spec.periodic_tasks {
            let first = t.release_of(0);
            if !groups
                .iter()
                .any(|g| (g.first, g.period) == (first, t.period))
            {
                groups.push(ReleaseGroup {
                    first,
                    period: t.period,
                    start: 0,
                    len: 0,
                });
            }
            if first < spec.horizon {
                let window = spec.horizon.since(first).ticks();
                // Releases at first, first+p, ... strictly below the horizon.
                job_count += (1 + (window - 1) / t.period.ticks()) as usize;
            }
        }
        for group in &mut groups {
            group.start = members.len() as u32;
            members.extend((0..spec.periodic_tasks.len() as u32).filter(|&i| {
                let t = &spec.periodic_tasks[i as usize];
                (t.release_of(0), t.period) == (group.first, group.period)
            }));
            group.len = members.len() as u32 - group.start;
        }

        // Arrivals at or past the horizon are invisible to the decision loop
        // (it stops strictly before the horizon) and produce no outcome. The
        // stream is (release, id)-sorted, so the in-horizon traffic is a
        // prefix — one binary search, no walk, no copy.
        let arrival_count = spec.workload().within_horizon_count();

        // The overrun side table: tiny (one row per injected fault), sorted
        // by event id so on-demand arrival assembly is a binary search.
        let overruns = OverrunTable::new(&spec.faults);

        lanes.extend(spec.servers.iter().map(|s| LaneTable {
            kind: s.policy,
            capacity: s.capacity,
            period: s.period,
            priority: s.priority,
            discipline: s.discipline,
            admission: s.admission,
            spec: s.clone(),
        }));

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
            members,
            lanes,
            arrival_count,
            overruns,
            lane_set,
            job_count,
            segment_hint: job_count + 2 * arrival_count + 64,
            spec,
        }
    }

    /// The tables' buffers, emptied for the next build.
    pub(crate) fn into_buffers(self) -> TableBuffers {
        let SimTables {
            mut tasks,
            mut groups,
            mut members,
            mut lanes,
            ..
        } = self;
        tasks.clear();
        groups.clear();
        members.clear();
        lanes.clear();
        TableBuffers {
            tasks,
            groups,
            members,
            lanes,
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
        let extra = self.overruns.extra(e.id);
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
