//! The public face of the Task Server Framework: the RTSJ-style classes of
//! the paper's Figure 1, installed as data that both execution loops run.
//!
//! | Paper class (Figure 1)        | Here                                   |
//! |-------------------------------|----------------------------------------|
//! | `TaskServerParameters`        | [`rtsj_emu::TaskServerParameters`]     |
//! | `TaskServer` (abstract)       | [`ServerShared`] (pending queue, capacity) + the service loop ([`crate::serve`]) |
//! | `PollingTaskServer`           | [`PollingTaskServer`]                  |
//! | `DeferrableTaskServer`        | [`DeferrableTaskServer`]               |
//! | `ServableAsyncEventHandler`   | [`crate::handler::ServableHandler`]    |
//! | `ServableAsyncEvent`          | [`ServableAsyncEvent`]                 |
//!
//! [`BackgroundServer`] (the paper's background-servicing baseline) and
//! [`SporadicTaskServer`] (Sprunt's third policy) complete the set.
//!
//! Installing a system is one routine shared by both execution loops. Per
//! lane, in spec order, it creates what that lane's class creates: the
//! lane's [`ServerShared`], its server body, its events and its install-time
//! timers, the mode-change one-shots included. Then it creates one
//! [`ServableAsyncEvent`] per planned release. An event is an entry of a
//! hook table (its kind, as data), and the loop
//! that runs the system owns the lanes and that table in one
//! `ExecWorld`, which interprets an event's entry when the event fires.
//! Firing a servable event thus reaches its lane by index and registers the
//! handler in the lane's pending queue, like `fire()` →
//! `servableEventReleased()` in the paper's design. The execution driver
//! ([`crate::fastpath`]) takes the install into its tables; the `rtsj-emu`
//! reference loads it into an engine whose [`World`] is the `ExecWorld`.
//!
//! The install also sizes the run once, before its first release, the way a
//! mission's initialisation precedes its handler releases: the world's
//! outcome log is a slot table with one `Unserved` record per planned
//! release, and each lane's pending queue is reserved for the releases
//! routed to it. A queued release carries its plan index, so every fate the
//! lanes decide — a rejection or a D-OVER displacement at the arrival, a
//! service, an interruption or an enforcement abort at the end of service —
//! is a store into that slot, and the log needs no drain and no lookup at
//! the horizon. The outcome slots become the trace; every other table the
//! install builds — the lanes, their queues' buffers, the hook table, the
//! server list and the timers — lives in buffers the execution driver
//! takes from the thread's scratch and hands back empty (`InstallScratch`).
//!
//! Timer fire order follows creation order, so the install keeps the
//! order: per lane, whichever of `wakeUp`, swap-replenish, replenish and the
//! DS periodic timer its policy creates, then that lane's mode-change
//! timers; then the periodic tasks, which each loop adds itself; then the
//! servable events.

use crate::deferrable::EventDrivenServerBody;
use crate::handler::QueuedRelease;
use crate::polling::PollingServerBody;
use crate::queue::{QueueBuffers, COMPACTION_THRESHOLD};
use crate::sporadic::SporadicServerBody;
use crate::state::ServerShared;
use crate::system::{ExecutionConfig, PlannedEvent};
use rt_model::{
    AdmissionPolicy, AperiodicFate, AperiodicOutcome, FaultPlan, Instant, ModeChange,
    ServerPolicyKind, ServerSpec, Span, SystemSpec,
};
use rt_observe::{AdmissionVerdict, Probe};
use rtsj_emu::{
    Action, BodyCtx, Completion, EventHandle, FireCtx, TaskServerParameters, ThreadBody, World,
};

/// What firing an event does, as data: the hook table holds one entry per
/// event, and [`ExecWorld`] interprets it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    /// A lane's `wakeUp`: no hook; waking the lane's server thread is all a
    /// fire does.
    Wakeup { lane: usize },
    /// Chunk replenishment of a DS/BG lane that a mode change may swap into
    /// the Sporadic policy: credit due replenishments, wake on success.
    SwapReplenish { lane: usize, wakeup: usize },
    /// The DS periodic replenishment: apply due mode changes, refill while
    /// still deferrable, always wake.
    DsReplenish { lane: usize, wakeup: usize },
    /// The SS replenishment: credit due replenishments, wake on success.
    SsReplenish { lane: usize, wakeup: usize },
    /// A servable async event: register its planned release with its lane,
    /// and wake the lane when the release is admitted.
    Sae {
        lane: usize,
        wakeup: Option<usize>,
        plan_index: usize,
    },
}

/// The world one execution runs in: every server lane by index, the hook
/// table of its events, the outcome slot of every planned release and the
/// probe the lanes' decisions are reported to.
///
/// The execution driver owns one; the `rtsj-emu` reference engine carries
/// one as its [`World`]. Server bodies reach it through their context
/// ([`BodyCtx::world`]), so both loops interpret the same table, record
/// each fate where it is decided and report admission verdicts, capacity
/// exhaustions and mode changes live.
pub(crate) struct ExecWorld<'p, P> {
    /// The lanes, in spec order.
    pub(crate) lanes: Vec<ServerShared>,
    /// The hook table, indexed by event.
    pub(crate) kinds: Vec<EventKind>,
    /// The planned releases the servable events fire.
    plan: &'p [PlannedEvent],
    /// The slot table: slot `i` is planned release `i`'s outcome for the
    /// whole run, `Unserved` at its spec release until a fate is stored.
    pub(crate) outcomes: Vec<AperiodicOutcome>,
    /// The run's probe.
    pub(crate) probe: P,
}

/// The outcome record of `release` with `fate`: the release instant is the
/// one its fire was observed at, which a timer-overhead slice may have
/// delayed past the spec's.
fn outcome(release: &QueuedRelease, fate: AperiodicFate) -> AperiodicOutcome {
    AperiodicOutcome {
        event: release.event,
        release: release.release,
        declared_cost: release.declared_cost(),
        value: release.value(),
        deadline: release.admission_deadline(),
        fate,
    }
}

impl<P: Probe> ExecWorld<'_, P> {
    /// Runs the hook of `event` at `now` and returns the event it fires in
    /// turn: a hook fires at most its lane's `wakeUp`, which has no hook.
    pub(crate) fn hook(&mut self, event: usize, now: Instant) -> Option<usize> {
        match self.kinds[event] {
            EventKind::Wakeup { .. } => None,
            EventKind::SwapReplenish { lane, wakeup } | EventKind::SsReplenish { lane, wakeup } => {
                self.lanes[lane]
                    .apply_due_replenishments(now)
                    .then_some(wakeup)
            }
            EventKind::DsReplenish { lane, wakeup } => {
                // A replenishment boundary is a decision instant: apply due
                // mode changes first so a coincident capacity change refills
                // to the new value, and stop refilling altogether once the
                // lane has swapped away from the deferrable policy (the
                // periodic timer itself is fixed at install).
                self.apply_due_mode_changes(lane, now);
                let state = &mut self.lanes[lane];
                if state.policy == ServerPolicyKind::Deferrable {
                    state.replenish(now);
                }
                Some(wakeup)
            }
            EventKind::Sae {
                lane,
                wakeup,
                plan_index,
            } => {
                let planned = &self.plan[plan_index];
                let release =
                    QueuedRelease::new(planned.event, planned.handler, now).in_slot(plan_index);
                // A refused release never entered the queue: waking the
                // server would be a spurious (if harmless) activation.
                if self.release(lane, release, now) {
                    wakeup
                } else {
                    None
                }
            }
        }
    }

    /// Applies the mode changes of `lane` due at `now` (see
    /// [`ServerShared::apply_due_mode_changes`]) and reports each.
    pub(crate) fn apply_due_mode_changes(&mut self, lane: usize, now: Instant) {
        let applied = self.lanes[lane].apply_due_mode_changes(now);
        if P::ENABLED {
            for _ in 0..applied {
                self.probe.mode_change(lane, now);
            }
        }
    }

    /// Stores `fate` into the outcome slot of `release`.
    pub(crate) fn record(&mut self, release: &QueuedRelease, fate: AperiodicFate) {
        self.outcomes[release.slot as usize] = outcome(release, fate);
    }

    /// Registers `release` with `lane` (`servableEventReleased`), records
    /// and reports its verdict and every release it displaced, and returns
    /// whether it was admitted.
    fn release(&mut self, lane: usize, release: QueuedRelease, now: Instant) -> bool {
        // An arrival is a decision instant: reconfigure first (when
        // quiescent) so the release is admitted under the new configuration,
        // mirroring the simulator's decision ordering.
        self.apply_due_mode_changes(lane, now);
        let accepted = self.lanes[lane].released(release, now);
        for dropped in self.lanes[lane].displaced() {
            self.outcomes[dropped.slot as usize] =
                outcome(dropped, AperiodicFate::Aborted { at: now });
            if P::ENABLED {
                self.probe.admission(lane, AdmissionVerdict::Aborted, now);
            }
        }
        if !accepted {
            self.record(&release, AperiodicFate::Rejected { at: now });
        }
        if P::ENABLED {
            let verdict = if accepted {
                AdmissionVerdict::Accepted
            } else {
                AdmissionVerdict::Rejected
            };
            self.probe.admission(lane, verdict, now);
        }
        accepted
    }

    /// The run's outcome log, in plan order, once the horizon is reached: a
    /// release still queued reports the instant its fire was observed, while
    /// one the horizon cut in service keeps the spec release of its
    /// prefilled slot (ROADMAP.md records the asymmetry as an open
    /// question). The lanes, their queues' buffers and the hook table go
    /// back to `scratch`, empty.
    pub(crate) fn into_outcomes(self, scratch: &mut InstallScratch) -> Vec<AperiodicOutcome> {
        let ExecWorld {
            mut lanes,
            mut kinds,
            mut outcomes,
            ..
        } = self;
        for release in lanes.iter().flat_map(|lane| lane.queue.iter()) {
            outcomes[release.slot as usize] = outcome(release, AperiodicFate::Unserved);
        }
        scratch
            .queues
            .extend(lanes.drain(..).map(|lane| lane.queue.into_buffers()));
        kinds.clear();
        scratch.lanes = lanes;
        scratch.kinds = kinds;
        outcomes
    }
}

#[cfg(test)]
impl ExecWorld<'static, rt_observe::NoopProbe> {
    /// A world over `lanes` with `slots` outcome slots, no events and no
    /// probe, for unit tests of the bodies and the service loop.
    pub(crate) fn of_lanes(lanes: Vec<ServerShared>, slots: usize) -> Self {
        let placeholder = AperiodicOutcome {
            event: rt_model::EventId::new(0),
            release: Instant::ZERO,
            declared_cost: Span::ZERO,
            value: 0,
            deadline: None,
            fate: AperiodicFate::Unserved,
        };
        ExecWorld {
            lanes,
            kinds: Vec::new(),
            plan: &[],
            outcomes: vec![placeholder; slots],
            probe: rt_observe::NoopProbe,
        }
    }
}

impl<P: Probe> World for ExecWorld<'_, P> {
    fn fire(&mut self, event: EventHandle, ctx: &mut FireCtx) {
        if let Some(next) = self.hook(event.raw(), ctx.now()) {
            ctx.fire(EventHandle::from_raw(next));
        }
    }
}

/// A lane's server body.
#[derive(Debug)]
pub(crate) enum ServerBody {
    Polling(PollingServerBody),
    EventDriven(EventDrivenServerBody),
    Sporadic(SporadicServerBody),
}

impl<'p, P: Probe> ThreadBody<ExecWorld<'p, P>> for ServerBody {
    fn next_action(
        &mut self,
        ctx: &mut BodyCtx<'_, ExecWorld<'p, P>>,
        completion: Completion,
    ) -> Action {
        match self {
            ServerBody::Polling(body) => body.next_action(ctx, completion),
            ServerBody::EventDriven(body) => body.next_action(ctx, completion),
            ServerBody::Sporadic(body) => body.next_action(ctx, completion),
        }
    }
}

/// A lane's server thread, as the install creates it.
pub(crate) struct ServerThread {
    pub(crate) body: ServerBody,
    /// The `wakeUp` event the body waits on (`None` for the polling server).
    pub(crate) wakeup: Option<usize>,
    /// Release period of a periodic server thread (the PS), first released
    /// at time zero.
    pub(crate) period: Option<Span>,
    /// EDF key until the body first publishes one.
    pub(crate) deadline: Instant,
}

/// An install-time timer: fires `event` at `next`, then every `period` when
/// it is periodic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Timer {
    pub(crate) next: Instant,
    pub(crate) period: Option<Span>,
    pub(crate) event: usize,
}

/// The buffers an install fills, kept empty between the runs of one thread
/// ([`crate::scratch`]): the execution driver hands them back when its run
/// ends, while the reference engine keeps none.
#[derive(Default)]
pub(crate) struct InstallScratch {
    pub(crate) lanes: Vec<ServerShared>,
    /// The queue buffers of the lanes of earlier runs.
    pub(crate) queues: Vec<QueueBuffers>,
    pub(crate) kinds: Vec<EventKind>,
    pub(crate) servers: Vec<ServerThread>,
    pub(crate) timers: Vec<Timer>,
}

/// One system's task-server machinery as data: built by [`Install::new`]
/// and run by both execution loops (see the module docs).
pub(crate) struct Install<'p, P> {
    /// The lanes and the hook table.
    pub(crate) world: ExecWorld<'p, P>,
    /// One server thread per lane, in lane order.
    pub(crate) servers: Vec<ServerThread>,
    /// The install-time timers, in creation order.
    pub(crate) timers: Vec<Timer>,
    /// Event of the first planned release; the others follow in plan order.
    pub(crate) sae_base: usize,
}

impl<'p, P: Probe> Install<'p, P> {
    /// The one install routine: every lane of `spec` in spec order, then
    /// one servable event and one outcome slot per entry of `plan`,
    /// reporting to `probe`. Every table but the outcome slots, which the
    /// trace keeps, is built in the buffers of `scratch`.
    pub(crate) fn new(
        spec: &SystemSpec,
        config: &ExecutionConfig,
        plan: &'p [PlannedEvent],
        probe: P,
        scratch: &mut InstallScratch,
    ) -> Self {
        debug_assert!(
            scratch.lanes.is_empty()
                && scratch.kinds.is_empty()
                && scratch.servers.is_empty()
                && scratch.timers.is_empty(),
            "an install starts from empty buffers"
        );
        let lanes = spec.servers.len();
        let mut outcomes = Vec::with_capacity(plan.len());
        outcomes.extend(plan.iter().map(|planned| {
            let release = QueuedRelease::new(planned.event, planned.handler, planned.release);
            outcome(&release, AperiodicFate::Unserved)
        }));
        let mut install = Install {
            world: ExecWorld {
                lanes: std::mem::take(&mut scratch.lanes),
                kinds: std::mem::take(&mut scratch.kinds),
                plan,
                outcomes,
                probe,
            },
            servers: std::mem::take(&mut scratch.servers),
            timers: std::mem::take(&mut scratch.timers),
            sae_base: 0,
        };
        install.world.lanes.reserve(lanes);
        // At most three events per lane (the DS's), then one per planned
        // release.
        install.world.kinds.reserve(lanes * 3 + plan.len());
        install.servers.reserve(lanes);
        for (lane, server) in spec.servers.iter().enumerate() {
            let queue = scratch.queues.pop().unwrap_or_default();
            install.lane(lane, server, config, &spec.faults, queue);
        }
        install.sae_base = install.world.kinds.len();
        for (plan_index, planned) in plan.iter().enumerate() {
            ServableAsyncEvent::create(&mut install, planned.server, plan_index);
        }
        install
    }

    /// Installs one lane the way its class does, its queue in `queue`'s
    /// buffers, then its mode changes.
    fn lane(
        &mut self,
        lane: usize,
        server: &ServerSpec,
        config: &ExecutionConfig,
        faults: &FaultPlan,
        queue: QueueBuffers,
    ) {
        let (params, admission) = match server.policy {
            // Background servicing has no meaningful capacity or period;
            // a nominal pair gives the queue a packing reference
            // (it is never used to reject work).
            ServerPolicyKind::Background => (
                TaskServerParameters::new(
                    Span::from_units(1),
                    Span::from_units(1),
                    server.priority,
                ),
                AdmissionPolicy::AcceptAll,
            ),
            _ => (
                TaskServerParameters::new(server.capacity, server.period, server.priority),
                server.admission,
            ),
        };
        let thread = match server.policy {
            ServerPolicyKind::Polling => PollingTaskServer::install(lane, params),
            ServerPolicyKind::Deferrable => DeferrableTaskServer::install(self, lane, params),
            ServerPolicyKind::Background => BackgroundServer::install(self, lane),
            ServerPolicyKind::Sporadic => SporadicTaskServer::install(self, lane, params),
        };
        let mut state = ServerShared::with_admission(
            params,
            server.policy,
            config.overhead,
            server.discipline,
            admission,
        );
        state.queue.adopt(queue);
        // The reservation is capped, so the count stops there.
        let routed = self.world.plan.iter().filter(|p| p.server == lane);
        state
            .queue
            .reserve(routed.take(COMPACTION_THRESHOLD).count());
        let changes: Vec<ModeChange> = faults.mode_changes_for(lane).cloned().collect();
        if !changes.is_empty() {
            // Each change instant also fires the lane's `wakeUp`
            // (event-driven lanes only), so an otherwise idle lane
            // reconfigures — and re-examines its backlog under the new
            // configuration — at the scheduled instant rather than at its
            // next arrival; a polling lane applies due changes at its next
            // activation.
            if let Some(wakeup) = thread.wakeup {
                for change in &changes {
                    self.timers.push(Timer {
                        next: change.at,
                        period: None,
                        event: wakeup,
                    });
                }
            }
            state.set_mode_changes(changes);
        }
        self.world.lanes.push(state);
        self.servers.push(thread);
    }

    /// Creates an event with the given hook.
    fn event(&mut self, kind: EventKind) -> usize {
        self.world.kinds.push(kind);
        self.world.kinds.len() - 1
    }
}

/// The paper's `PollingTaskServer`: its `run()` is delegated to a periodic
/// real-time thread at the server priority (see [`crate::polling`]),
/// released every server period with its full capacity. It creates no event
/// and no timer; being periodic, its EDF deadline (release + period, the
/// replenishment-derived deadline) is re-keyed at every activation.
#[derive(Debug, Clone, Copy)]
pub struct PollingTaskServer;

impl PollingTaskServer {
    fn install(lane: usize, params: TaskServerParameters) -> ServerThread {
        ServerThread {
            body: ServerBody::Polling(PollingServerBody::new(lane)),
            wakeup: None,
            period: Some(params.period),
            deadline: Instant::ZERO + params.period,
        }
    }
}

/// The paper's `DeferrableTaskServer`: its `run()` is delegated to a handler
/// bound to a `wakeUp` event (see [`crate::deferrable`]), and a periodic
/// replenishment timer refills the capacity and fires `wakeUp` every server
/// period. It also creates the swap-replenish event that a mode change into
/// the Sporadic policy arms.
#[derive(Debug, Clone, Copy)]
pub struct DeferrableTaskServer;

impl DeferrableTaskServer {
    fn install<P: Probe>(
        install: &mut Install<'_, P>,
        lane: usize,
        params: TaskServerParameters,
    ) -> ServerThread {
        let wakeup = install.event(EventKind::Wakeup { lane });
        let swap = install.event(EventKind::SwapReplenish { lane, wakeup });
        let replenish = install.event(EventKind::DsReplenish { lane, wakeup });
        install.timers.push(Timer {
            next: Instant::ZERO + params.period,
            period: Some(params.period),
            event: replenish,
        });
        ServerThread {
            body: ServerBody::EventDriven(EventDrivenServerBody::new(
                lane,
                EventHandle::from_raw(wakeup),
                EventHandle::from_raw(swap),
            )),
            wakeup: Some(wakeup),
            period: None,
            // EDF rank until the first pump: the first replenishment instant.
            deadline: Instant::ZERO + params.period,
        }
    }
}

/// The background-servicing baseline: every servable event is executed at
/// the (low) priority of an event-driven thread, with no capacity limit and
/// no timer. Like the DS it creates a swap-replenish event for a mode change
/// into the Sporadic policy. It never publishes a deadline, so under EDF it
/// keeps the [`Instant::MAX`] background rank.
#[derive(Debug, Clone, Copy)]
pub struct BackgroundServer;

impl BackgroundServer {
    fn install<P: Probe>(install: &mut Install<'_, P>, lane: usize) -> ServerThread {
        let wakeup = install.event(EventKind::Wakeup { lane });
        let swap = install.event(EventKind::SwapReplenish { lane, wakeup });
        ServerThread {
            body: ServerBody::EventDriven(EventDrivenServerBody::new(
                lane,
                EventHandle::from_raw(wakeup),
                EventHandle::from_raw(swap),
            )),
            wakeup: Some(wakeup),
            period: None,
            deadline: Instant::MAX,
        }
    }
}

/// A sporadic task server (Sprunt-style replenishment events; see
/// [`crate::sporadic`]): a handler bound to `wakeUp` and a `replenish`
/// event whose hook credits the due replenishments and re-wakes the server.
/// The replenishment timers themselves are armed at runtime by the body,
/// one per closed consumption chunk.
#[derive(Debug, Clone, Copy)]
pub struct SporadicTaskServer;

impl SporadicTaskServer {
    fn install<P: Probe>(
        install: &mut Install<'_, P>,
        lane: usize,
        params: TaskServerParameters,
    ) -> ServerThread {
        let wakeup = install.event(EventKind::Wakeup { lane });
        let replenish = install.event(EventKind::SsReplenish { lane, wakeup });
        ServerThread {
            body: ServerBody::Sporadic(SporadicServerBody::new(
                lane,
                EventHandle::from_raw(wakeup),
                EventHandle::from_raw(replenish),
            )),
            wakeup: Some(wakeup),
            period: None,
            // EDF rank until the first pump: the deadline a chunk opened at
            // time zero would get.
            deadline: Instant::ZERO + params.period,
        }
    }
}

/// A servable asynchronous event: an event bound to one servable handler
/// and one server lane. Firing it registers the handler in the lane's
/// pending queue (`servableEventReleased`) and, when the lane admits the
/// release, fires the lane's `wakeUp`. The install creates one per planned
/// release, after every lane.
#[derive(Debug, Clone, Copy)]
pub struct ServableAsyncEvent;

impl ServableAsyncEvent {
    fn create<P: Probe>(install: &mut Install<'_, P>, lane: usize, plan_index: usize) {
        let wakeup = install.servers[lane].wakeup;
        install.event(EventKind::Sae {
            lane,
            wakeup,
            plan_index,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{execute_reference, ExecutionPlan};
    use rt_model::Priority;
    use rt_observe::NoopProbe;

    /// One server lane with the given releases (instant, cost) and horizon.
    fn one_lane(server: ServerSpec, releases: &[(u64, u64)], horizon: u64) -> SystemSpec {
        let mut b = SystemSpec::builder("one-lane");
        b.server(server);
        for &(at, cost) in releases {
            b.aperiodic(Instant::from_units(at), Span::from_units(cost));
        }
        b.horizon(Instant::from_units(horizon));
        b.build().expect("valid spec")
    }

    /// Installs the lanes of `spec` alone (no planned release).
    fn install_lanes(spec: &SystemSpec) -> Install<'static, NoopProbe> {
        Install::new(
            spec,
            &ExecutionConfig::ideal(),
            &[],
            NoopProbe,
            &mut InstallScratch::default(),
        )
    }

    #[test]
    fn install_polling_server_and_fire_an_event() {
        let unit = Span::from_units;
        let spec = one_lane(
            ServerSpec::polling(unit(3), unit(6), Priority::new(30)),
            &[(0, 2)],
            12,
        );
        let install = install_lanes(&spec);
        assert!(install.servers[0].wakeup.is_none());
        assert_eq!(install.world.lanes[0].policy, ServerPolicyKind::Polling);
        let trace = execute_reference(&spec, &ExecutionConfig::ideal());
        assert_eq!(trace.outcomes.len(), 1);
        assert!(trace.outcomes[0].is_served());
        assert_eq!(trace.outcomes[0].response_time(), Some(unit(2)));
        assert!(trace.check_invariants().is_ok());
    }

    #[test]
    fn install_deferrable_server_with_replenishment_timer() {
        let unit = Span::from_units;
        // Two events of cost 2: the first consumes the whole capacity, the
        // second must wait for the replenishment at 6.
        let spec = one_lane(
            ServerSpec::deferrable(unit(2), unit(6), Priority::new(30)),
            &[(0, 2), (1, 2)],
            18,
        );
        let install = install_lanes(&spec);
        assert!(install.servers[0].wakeup.is_some());
        let timers: Vec<(Instant, Option<Span>)> =
            install.timers.iter().map(|t| (t.next, t.period)).collect();
        assert_eq!(timers, [(Instant::from_units(6), Some(unit(6)))]);
        let trace = execute_reference(&spec, &ExecutionConfig::ideal());
        assert_eq!(trace.outcomes.len(), 2);
        assert_eq!(trace.outcomes[0].response_time(), Some(unit(2)));
        // Second event: released at 1, served 6..8 → response 7.
        assert_eq!(trace.outcomes[1].response_time(), Some(unit(7)));
    }

    #[test]
    fn install_from_server_spec_selects_the_right_variant() {
        let unit = Span::from_units;
        let spec = one_lane(
            ServerSpec::polling(unit(3), unit(6), Priority::new(30)),
            &[],
            10,
        );
        let install = install_lanes(&spec);
        assert!(matches!(install.servers[0].body, ServerBody::Polling(_)));
        assert_eq!(install.world.lanes[0].policy, ServerPolicyKind::Polling);
        assert_eq!(install.world.lanes[0].params.capacity, unit(3));

        let spec = one_lane(ServerSpec::background(Priority::new(1)), &[], 10);
        let install = install_lanes(&spec);
        assert!(matches!(
            install.servers[0].body,
            ServerBody::EventDriven(_)
        ));
        assert_eq!(install.world.lanes[0].policy, ServerPolicyKind::Background);
        assert!(install.servers[0].wakeup.is_some());
    }

    /// A DS, an SS, a PS and a BG lane, with a mode change on the DS and
    /// the PS lanes and one release per lane.
    fn four_lanes() -> SystemSpec {
        let mut b = SystemSpec::builder("install-order");
        let unit = Span::from_units;
        b.add_server(ServerSpec::deferrable(unit(2), unit(6), Priority::new(33)));
        b.add_server(ServerSpec::sporadic(unit(2), unit(8), Priority::new(32)));
        b.add_server(ServerSpec::polling(unit(2), unit(6), Priority::new(31)));
        b.add_server(ServerSpec::background(Priority::new(1)));
        for lane in 0..4 {
            b.aperiodic_for(lane, Instant::from_units(lane as u64), unit(1));
        }
        b.horizon(Instant::from_units(30));
        let mut spec = b.build().expect("valid spec");
        for lane in [0, 2] {
            spec.faults = std::mem::take(&mut spec.faults)
                .mode_change(ModeChange::at(Instant::from_units(9), lane).with_capacity(unit(1)));
        }
        spec
    }

    #[test]
    fn install_creates_events_and_timers_in_creation_order() {
        let spec = four_lanes();
        let config = ExecutionConfig::reference();
        let plan = ExecutionPlan::prepare(&spec, &config).expect("valid spec");
        let install = Install::new(
            &spec,
            &config,
            &plan.events,
            NoopProbe,
            &mut InstallScratch::default(),
        );
        let kinds: Vec<String> = install
            .world
            .kinds
            .iter()
            .map(|kind| format!("{kind:?}"))
            .collect();
        assert_eq!(
            kinds,
            [
                "Wakeup { lane: 0 }",
                "SwapReplenish { lane: 0, wakeup: 0 }",
                "DsReplenish { lane: 0, wakeup: 0 }",
                "Wakeup { lane: 1 }",
                "SsReplenish { lane: 1, wakeup: 3 }",
                "Wakeup { lane: 3 }",
                "SwapReplenish { lane: 3, wakeup: 5 }",
                "Sae { lane: 0, wakeup: Some(0), plan_index: 0 }",
                "Sae { lane: 1, wakeup: Some(3), plan_index: 1 }",
                "Sae { lane: 2, wakeup: None, plan_index: 2 }",
                "Sae { lane: 3, wakeup: Some(5), plan_index: 3 }",
            ]
        );
        assert_eq!(install.sae_base, 7);
        // The DS replenishment timer, then the DS lane's mode-change
        // one-shot; the polling lane's change arms no timer.
        let timers: Vec<(Instant, Option<Span>, usize)> = install
            .timers
            .iter()
            .map(|t| (t.next, t.period, t.event))
            .collect();
        assert_eq!(
            timers,
            [
                (Instant::from_units(6), Some(Span::from_units(6)), 2),
                (Instant::from_units(9), None, 0),
            ]
        );
        let deadlines: Vec<Instant> = install.servers.iter().map(|s| s.deadline).collect();
        assert_eq!(
            deadlines,
            [
                Instant::from_units(6),
                Instant::from_units(8),
                Instant::from_units(6),
                Instant::MAX
            ]
        );
        assert_eq!(install.world.lanes.len(), 4);
        assert_eq!(install.world.lanes[2].mode_changes.len(), 1);
    }
}
