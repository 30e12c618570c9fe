//! The public face of the Task Server Framework: the RTSJ-style classes of
//! the paper's Figure 1, wired onto the `rtsj-emu` engine.
//!
//! | Paper class (Figure 1)        | Here                                   |
//! |-------------------------------|----------------------------------------|
//! | `TaskServerParameters`        | [`rtsj_emu::TaskServerParameters`]     |
//! | `TaskServer` (abstract)       | [`TaskServer`] trait + [`AnyTaskServer`] |
//! | `PollingTaskServer`           | [`PollingTaskServer`]                  |
//! | `DeferrableTaskServer`        | [`DeferrableTaskServer`]               |
//! | `ServableAsyncEventHandler`   | [`crate::handler::ServableHandler`]    |
//! | `ServableAsyncEvent`          | [`ServableAsyncEvent`]                 |
//!
//! A server is *installed* into an [`Engine`]: installing spawns its
//! schedulable body at the server priority and (for the event-driven
//! policies) creates its `wakeUp` event and replenishment timer. A
//! [`ServableAsyncEvent`] is then bound to one handler and one server; firing
//! it — typically from a timer — registers the handler in the server's
//! pending queue exactly like `fire()` → `servableEventReleased()` in the
//! paper's design.

use crate::deferrable::EventDrivenServerBody;
use crate::handler::{QueuedRelease, ServableHandler};
use crate::polling::PollingServerBody;
use crate::queue::QueueKind;
use crate::sporadic::SporadicServerBody;
use crate::state::{ServerShared, SharedServer};
use rt_model::{
    AdmissionPolicy, EventId, Instant, ModeChange, QueueDiscipline, ServerPolicyKind, ServerSpec,
};
use rtsj_emu::{Engine, EventHandle, TaskServerParameters, ThreadHandle};

/// Behaviour common to every installed task server.
pub trait TaskServer {
    /// Shared runtime state (pending queue, capacity, outcomes).
    fn shared(&self) -> &SharedServer;
    /// The `wakeUp` event of event-driven servers, `None` for the polling
    /// server (whose activation is purely periodic).
    fn wakeup(&self) -> Option<EventHandle>;
    /// The construction parameters.
    fn params(&self) -> TaskServerParameters;
    /// The policy implemented by the server.
    fn policy(&self) -> ServerPolicyKind;
}

/// A polling task server installed on an engine.
#[derive(Debug)]
pub struct PollingTaskServer {
    shared: SharedServer,
    params: TaskServerParameters,
    thread: ThreadHandle,
}

impl PollingTaskServer {
    /// Installs the server: spawns its periodic real-time thread at the
    /// server priority with the server period. Being periodic, the engine
    /// re-keys its EDF deadline (release + period = the replenishment-derived
    /// deadline) automatically at every activation.
    pub fn install(
        engine: &mut Engine,
        params: TaskServerParameters,
        queue: QueueKind,
        discipline: QueueDiscipline,
        admission: AdmissionPolicy,
    ) -> Self {
        let shared = ServerShared::with_admission(
            params,
            ServerPolicyKind::Polling,
            engine.overhead(),
            queue,
            discipline,
            admission,
        );
        let thread = engine.spawn_periodic(
            "server(PS)",
            params.priority,
            Instant::ZERO,
            params.period,
            Box::new(PollingServerBody::new(shared.clone())),
        );
        PollingTaskServer {
            shared,
            params,
            thread,
        }
    }

    /// Handle of the server's periodic thread.
    pub fn thread(&self) -> ThreadHandle {
        self.thread
    }
}

impl TaskServer for PollingTaskServer {
    fn shared(&self) -> &SharedServer {
        &self.shared
    }
    fn wakeup(&self) -> Option<EventHandle> {
        None
    }
    fn params(&self) -> TaskServerParameters {
        self.params
    }
    fn policy(&self) -> ServerPolicyKind {
        ServerPolicyKind::Polling
    }
}

/// A deferrable task server installed on an engine.
#[derive(Debug)]
pub struct DeferrableTaskServer {
    shared: SharedServer,
    params: TaskServerParameters,
    wakeup: EventHandle,
    thread: ThreadHandle,
}

impl DeferrableTaskServer {
    /// Installs the server: creates its `wakeUp` event, spawns the handler
    /// body bound to it, and arms the periodic replenishment timer that
    /// refills the capacity and fires `wakeUp` every period.
    pub fn install(
        engine: &mut Engine,
        params: TaskServerParameters,
        queue: QueueKind,
        discipline: QueueDiscipline,
        admission: AdmissionPolicy,
    ) -> Self {
        let shared = ServerShared::with_admission(
            params,
            ServerPolicyKind::Deferrable,
            engine.overhead(),
            queue,
            discipline,
            admission,
        );
        let wakeup = engine.create_event();
        // Chunk-replenishment machinery used only if a mode change swaps the
        // lane into the Sporadic policy: idle as long as the lane stays a DS.
        let swap_replenish = engine.create_event();
        let swap_state = shared.clone();
        engine.add_fire_hook(
            swap_replenish,
            Box::new(move |ctx| {
                if swap_state.borrow_mut().apply_due_replenishments(ctx.now()) {
                    ctx.fire(wakeup);
                }
            }),
        );
        let thread = engine.spawn(
            "server(DS)",
            params.priority,
            Box::new(
                EventDrivenServerBody::new(shared.clone(), wakeup).with_replenish(swap_replenish),
            ),
        );
        // EDF rank until the first pump: the first replenishment instant.
        engine.set_thread_deadline(thread, Instant::ZERO + params.period);
        let replenish = engine.create_event();
        let replenish_state = shared.clone();
        engine.add_fire_hook(
            replenish,
            Box::new(move |ctx| {
                let mut state = replenish_state.borrow_mut();
                // A replenishment boundary is a decision instant: apply due
                // mode changes first so a coincident capacity change refills
                // to the new value, and stop refilling altogether once the
                // lane has swapped away from the deferrable policy (the
                // periodic timer itself is fixed at install).
                state.apply_due_mode_changes(ctx.now());
                if state.policy == ServerPolicyKind::Deferrable {
                    state.replenish(ctx.now());
                }
                drop(state);
                ctx.fire(wakeup);
            }),
        );
        engine.add_periodic_timer(Instant::ZERO + params.period, params.period, replenish);
        DeferrableTaskServer {
            shared,
            params,
            wakeup,
            thread,
        }
    }

    /// Handle of the server's handler thread.
    pub fn thread(&self) -> ThreadHandle {
        self.thread
    }
}

impl TaskServer for DeferrableTaskServer {
    fn shared(&self) -> &SharedServer {
        &self.shared
    }
    fn wakeup(&self) -> Option<EventHandle> {
        Some(self.wakeup)
    }
    fn params(&self) -> TaskServerParameters {
        self.params
    }
    fn policy(&self) -> ServerPolicyKind {
        ServerPolicyKind::Deferrable
    }
}

/// The background-servicing baseline: every servable event is executed at the
/// (low) priority of the background thread, with no capacity limit.
#[derive(Debug)]
pub struct BackgroundServer {
    shared: SharedServer,
    params: TaskServerParameters,
    wakeup: EventHandle,
    thread: ThreadHandle,
}

impl BackgroundServer {
    /// Installs the background server. Its thread never publishes a
    /// deadline, so under EDF it keeps the [`Instant::MAX`] background rank.
    pub fn install(
        engine: &mut Engine,
        params: TaskServerParameters,
        queue: QueueKind,
        discipline: QueueDiscipline,
    ) -> Self {
        let shared = ServerShared::new(
            params,
            ServerPolicyKind::Background,
            engine.overhead(),
            queue,
            discipline,
        );
        let wakeup = engine.create_event();
        // As for the DS: chunk-replenishment machinery that stays idle
        // unless a mode change swaps this lane into the Sporadic policy.
        let swap_replenish = engine.create_event();
        let swap_state = shared.clone();
        engine.add_fire_hook(
            swap_replenish,
            Box::new(move |ctx| {
                if swap_state.borrow_mut().apply_due_replenishments(ctx.now()) {
                    ctx.fire(wakeup);
                }
            }),
        );
        let thread = engine.spawn(
            "server(BG)",
            params.priority,
            Box::new(
                EventDrivenServerBody::new(shared.clone(), wakeup).with_replenish(swap_replenish),
            ),
        );
        BackgroundServer {
            shared,
            params,
            wakeup,
            thread,
        }
    }

    /// Handle of the background thread.
    pub fn thread(&self) -> ThreadHandle {
        self.thread
    }
}

impl TaskServer for BackgroundServer {
    fn shared(&self) -> &SharedServer {
        &self.shared
    }
    fn wakeup(&self) -> Option<EventHandle> {
        Some(self.wakeup)
    }
    fn params(&self) -> TaskServerParameters {
        self.params
    }
    fn policy(&self) -> ServerPolicyKind {
        ServerPolicyKind::Background
    }
}

/// A sporadic task server installed on an engine (Sprunt-style replenishment
/// events; see [`crate::sporadic`]).
#[derive(Debug)]
pub struct SporadicTaskServer {
    shared: SharedServer,
    params: TaskServerParameters,
    wakeup: EventHandle,
    thread: ThreadHandle,
}

impl SporadicTaskServer {
    /// Installs the server: creates its `wakeUp` and `replenish` events,
    /// spawns the handler body bound to `wakeUp`, and hooks `replenish` to
    /// credit the due replenishments and re-wake the server. The
    /// replenishment timers themselves are armed at runtime by the body,
    /// one per closed consumption chunk.
    pub fn install(
        engine: &mut Engine,
        params: TaskServerParameters,
        queue: QueueKind,
        discipline: QueueDiscipline,
        admission: AdmissionPolicy,
    ) -> Self {
        let shared = ServerShared::with_admission(
            params,
            ServerPolicyKind::Sporadic,
            engine.overhead(),
            queue,
            discipline,
            admission,
        );
        let wakeup = engine.create_event();
        let replenish = engine.create_event();
        let replenish_state = shared.clone();
        engine.add_fire_hook(
            replenish,
            Box::new(move |ctx| {
                if replenish_state
                    .borrow_mut()
                    .apply_due_replenishments(ctx.now())
                {
                    ctx.fire(wakeup);
                }
            }),
        );
        let thread = engine.spawn(
            "server(SS)",
            params.priority,
            Box::new(SporadicServerBody::new(shared.clone(), wakeup, replenish)),
        );
        // EDF rank until the first pump: the deadline a chunk opened at time
        // zero would get.
        engine.set_thread_deadline(thread, Instant::ZERO + params.period);
        SporadicTaskServer {
            shared,
            params,
            wakeup,
            thread,
        }
    }

    /// Handle of the server's handler thread.
    pub fn thread(&self) -> ThreadHandle {
        self.thread
    }
}

impl TaskServer for SporadicTaskServer {
    fn shared(&self) -> &SharedServer {
        &self.shared
    }
    fn wakeup(&self) -> Option<EventHandle> {
        Some(self.wakeup)
    }
    fn params(&self) -> TaskServerParameters {
        self.params
    }
    fn policy(&self) -> ServerPolicyKind {
        ServerPolicyKind::Sporadic
    }
}

/// A task server of any policy, installed from a [`ServerSpec`].
#[derive(Debug)]
pub enum AnyTaskServer {
    /// Polling server.
    Polling(PollingTaskServer),
    /// Deferrable server.
    Deferrable(DeferrableTaskServer),
    /// Background servicing.
    Background(BackgroundServer),
    /// Sporadic server.
    Sporadic(SporadicTaskServer),
}

impl AnyTaskServer {
    /// Installs the server described by a [`ServerSpec`] (the spec's own
    /// queue discipline applies).
    pub fn install(engine: &mut Engine, spec: &ServerSpec, queue: QueueKind) -> Self {
        let discipline = spec.discipline;
        let admission = spec.admission;
        match spec.policy {
            ServerPolicyKind::Polling => AnyTaskServer::Polling(PollingTaskServer::install(
                engine,
                TaskServerParameters::new(spec.capacity, spec.period, spec.priority),
                queue,
                discipline,
                admission,
            )),
            ServerPolicyKind::Deferrable => {
                AnyTaskServer::Deferrable(DeferrableTaskServer::install(
                    engine,
                    TaskServerParameters::new(spec.capacity, spec.period, spec.priority),
                    queue,
                    discipline,
                    admission,
                ))
            }
            ServerPolicyKind::Sporadic => AnyTaskServer::Sporadic(SporadicTaskServer::install(
                engine,
                TaskServerParameters::new(spec.capacity, spec.period, spec.priority),
                queue,
                discipline,
                admission,
            )),
            ServerPolicyKind::Background => {
                // Background servicing has no meaningful capacity or period;
                // carry a nominal pair so the queue structure has a packing
                // reference (it is never used to reject work).
                let params = TaskServerParameters::new(
                    rt_model::Span::from_units(1),
                    rt_model::Span::from_units(1),
                    spec.priority,
                );
                AnyTaskServer::Background(BackgroundServer::install(
                    engine, params, queue, discipline,
                ))
            }
        }
    }

    /// Installs the server and loads its scheduled mode changes. Each change
    /// instant additionally arms a one-shot firing of the lane's `wakeUp`
    /// event (event-driven lanes only) so an otherwise idle lane
    /// reconfigures — and re-examines its backlog under the new
    /// configuration — at the scheduled instant rather than at its next
    /// arrival; a polling lane applies due changes at its next activation.
    pub fn install_with_faults(
        engine: &mut Engine,
        spec: &ServerSpec,
        queue: QueueKind,
        changes: Vec<ModeChange>,
    ) -> Self {
        let server = Self::install(engine, spec, queue);
        if !changes.is_empty() {
            if let Some(wakeup) = server.wakeup() {
                for change in &changes {
                    engine.add_one_shot_timer(change.at, wakeup);
                }
            }
            server.shared().borrow_mut().set_mode_changes(changes);
        }
        server
    }

    fn as_task_server(&self) -> &dyn TaskServer {
        match self {
            AnyTaskServer::Polling(s) => s,
            AnyTaskServer::Deferrable(s) => s,
            AnyTaskServer::Background(s) => s,
            AnyTaskServer::Sporadic(s) => s,
        }
    }
}

impl TaskServer for AnyTaskServer {
    fn shared(&self) -> &SharedServer {
        self.as_task_server().shared()
    }
    fn wakeup(&self) -> Option<EventHandle> {
        self.as_task_server().wakeup()
    }
    fn params(&self) -> TaskServerParameters {
        self.as_task_server().params()
    }
    fn policy(&self) -> ServerPolicyKind {
        self.as_task_server().policy()
    }
}

/// A servable asynchronous event: an engine-level `AsyncEvent` bound to one
/// servable handler and one task server. Firing it registers the handler in
/// the server's pending queue (and wakes an event-driven server).
#[derive(Debug, Clone, Copy)]
pub struct ServableAsyncEvent {
    event_id: EventId,
    engine_event: EventHandle,
}

impl ServableAsyncEvent {
    /// Creates the servable event and binds it to the server.
    pub fn create(
        engine: &mut Engine,
        event_id: EventId,
        handler: ServableHandler,
        server: &dyn TaskServer,
    ) -> Self {
        let engine_event = engine.create_event();
        let shared = server.shared().clone();
        let wakeup = server.wakeup();
        engine.add_fire_hook(
            engine_event,
            Box::new(move |ctx| {
                let accepted = shared
                    .borrow_mut()
                    .released(QueuedRelease::new(event_id, handler, ctx.now()), ctx.now());
                // A refused release never entered the queue: waking the
                // server would be a spurious (if harmless) activation, and
                // under AcceptAll this is exactly the pre-admission path.
                if accepted {
                    if let Some(wakeup) = wakeup {
                        ctx.fire(wakeup);
                    }
                }
            }),
        );
        ServableAsyncEvent {
            event_id,
            engine_event,
        }
    }

    /// Schedules a fire of this event at the given instant (the emulation of
    /// the timer that releases the aperiodic event).
    pub fn schedule_fire(&self, engine: &mut Engine, at: Instant) {
        engine.add_one_shot_timer(at, self.engine_event);
    }

    /// The model-level identifier of the event occurrence.
    pub fn event_id(&self) -> EventId {
        self.event_id
    }

    /// The underlying engine event handle.
    pub fn engine_event(&self) -> EventHandle {
        self.engine_event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_model::{HandlerId, Priority, Span};
    use rtsj_emu::{EngineConfig, OverheadModel};

    fn engine(horizon: u64) -> Engine {
        Engine::new(
            EngineConfig::new(Instant::from_units(horizon)).with_overhead(OverheadModel::none()),
        )
    }

    #[test]
    fn install_polling_server_and_fire_an_event() {
        let mut engine = engine(12);
        let server = PollingTaskServer::install(
            &mut engine,
            TaskServerParameters::new(Span::from_units(3), Span::from_units(6), Priority::new(30)),
            QueueKind::Fifo,
            QueueDiscipline::FifoSkip,
            AdmissionPolicy::AcceptAll,
        );
        assert!(server.wakeup().is_none());
        assert_eq!(server.policy(), ServerPolicyKind::Polling);
        let handler = ServableHandler::new(HandlerId::new(0), Span::from_units(2));
        let sae = ServableAsyncEvent::create(&mut engine, EventId::new(0), handler, &server);
        sae.schedule_fire(&mut engine, Instant::from_units(0));
        assert_eq!(sae.event_id(), EventId::new(0));
        let _ = sae.engine_event();
        let _ = server.thread();
        let trace = engine.run();
        let outcomes = server.shared().borrow_mut().finalise();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].is_served());
        assert_eq!(outcomes[0].response_time(), Some(Span::from_units(2)));
        assert!(trace.check_invariants().is_ok());
    }

    #[test]
    fn install_deferrable_server_with_replenishment_timer() {
        let mut engine = engine(18);
        let server = DeferrableTaskServer::install(
            &mut engine,
            TaskServerParameters::new(Span::from_units(2), Span::from_units(6), Priority::new(30)),
            QueueKind::ListOfLists,
            QueueDiscipline::FifoSkip,
            AdmissionPolicy::AcceptAll,
        );
        assert!(server.wakeup().is_some());
        let _ = server.thread();
        // Two events of cost 2: the first consumes the whole capacity, the
        // second must wait for the replenishment at 6.
        for (i, at) in [(0u32, 0u64), (1, 1)] {
            let handler = ServableHandler::new(HandlerId::new(i), Span::from_units(2));
            let sae = ServableAsyncEvent::create(&mut engine, EventId::new(i), handler, &server);
            sae.schedule_fire(&mut engine, Instant::from_units(at));
        }
        engine.run();
        let outcomes = server.shared().borrow_mut().finalise();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].response_time(), Some(Span::from_units(2)));
        // Second event: released at 1, served 6..8 → response 7.
        assert_eq!(outcomes[1].response_time(), Some(Span::from_units(7)));
    }

    #[test]
    fn install_from_server_spec_selects_the_right_variant() {
        let mut engine = engine(10);
        let spec = rt_model::ServerSpec::polling(
            Span::from_units(3),
            Span::from_units(6),
            Priority::new(30),
        );
        let any = AnyTaskServer::install(&mut engine, &spec, QueueKind::Fifo);
        assert!(matches!(any, AnyTaskServer::Polling(_)));
        assert_eq!(any.policy(), ServerPolicyKind::Polling);
        assert_eq!(any.params().capacity, Span::from_units(3));

        let mut engine = self::tests_engine_helper();
        let spec = rt_model::ServerSpec::background(Priority::new(1));
        let any = AnyTaskServer::install(&mut engine, &spec, QueueKind::Fifo);
        assert!(matches!(any, AnyTaskServer::Background(_)));
        assert!(any.wakeup().is_some());
    }

    fn tests_engine_helper() -> Engine {
        engine(10)
    }
}
