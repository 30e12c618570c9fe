//! The random real-time system generator (paper §6.1).
//!
//! For each generated system the generator draws, independently for every
//! server period of the horizon, a Poisson-distributed number of aperiodic
//! events (mean = `taskDensity`), places them uniformly at random within the
//! period, and draws their costs from the configured [`CostModel`]. The
//! result is a [`SystemSpec`] containing the server and the aperiodic
//! traffic — exactly what both the simulator and the execution engine
//! consume — optionally augmented with a synthetic periodic task set
//! (UUniFast) running below the server.

use crate::cost::CostModel;
use crate::distributions::Poisson;
use crate::params::GeneratorParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_model::{
    AdmissionPolicy, ArrivalFault, CostOverrun, Instant, ModeChange, Priority, QueueDiscipline,
    SchedulingPolicy, ServerPolicyKind, ServerSpec, Span, SymbolicPriority, SystemSpec,
};
use std::fmt::Write;

/// How the generator tags aperiodic events with completion values (the
/// D-OVER value used by value-density admission and the accrued-value
/// metric).
///
/// Values are drawn from a **dedicated RNG stream** derived from the
/// generator seed with a distinct salt, so attaching (or changing) a value
/// model never perturbs the release/cost streams: a valued set carries
/// exactly the traffic of its value-free twin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueModel {
    /// `value = factor × declared cost` (in ticks): uniform value density
    /// `factor`, deterministic, no randomness consumed.
    CostProportional {
        /// Density factor.
        factor: u64,
    },
    /// Value density drawn uniformly from `lo..=hi` per event and multiplied
    /// by the declared cost, so workloads mix urgent-and-valuable with
    /// large-but-worthless work — the regime where the D-OVER drop rule has
    /// something to decide.
    UniformDensity {
        /// Smallest density.
        lo: u64,
        /// Largest density (inclusive).
        hi: u64,
    },
}

/// How the generator injects deterministic faults into each generated
/// system's [`rt_model::FaultPlan`].
///
/// **Stream-preserving**: fault decisions are drawn from a **dedicated RNG
/// stream** derived from the generator seed with a distinct salt, so a
/// faulted set carries exactly the traffic (releases, costs, values) of its
/// fault-free twin — the containment experiments compare like with like.
/// Per event the model draws one placement roll (drop, else jitter, else
/// clean) and one independent overrun roll, in release order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Probability an event's job demands extra processor time beyond its
    /// declared cost (drawn independently of the arrival faults).
    pub overrun_rate: f64,
    /// Injected extra demand = `declared cost × overrun_factor`.
    pub overrun_factor: u64,
    /// Probability an event's release is jittered.
    pub jitter_rate: f64,
    /// Largest injected release delay (uniform over `1..=max_jitter` ticks).
    pub max_jitter: Span,
    /// Probability an event's arrival is dropped entirely.
    pub drop_rate: f64,
}

impl FaultModel {
    /// A model injecting only cost overruns.
    pub fn overruns(rate: f64, factor: u64) -> Self {
        FaultModel {
            overrun_rate: rate,
            overrun_factor: factor,
            jitter_rate: 0.0,
            max_jitter: Span::ZERO,
            drop_rate: 0.0,
        }
    }

    /// A model injecting only arrival faults (jitter and drops).
    pub fn arrivals(jitter_rate: f64, max_jitter: Span, drop_rate: f64) -> Self {
        FaultModel {
            overrun_rate: 0.0,
            overrun_factor: 0,
            jitter_rate,
            max_jitter,
            drop_rate,
        }
    }

    fn validate(&self) -> Result<(), String> {
        let prob = |name: &str, p: f64| -> Result<(), String> {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(format!("{name} must be a probability in [0, 1], got {p}"));
            }
            Ok(())
        };
        prob("overrun_rate", self.overrun_rate)?;
        prob("jitter_rate", self.jitter_rate)?;
        prob("drop_rate", self.drop_rate)?;
        if self.jitter_rate + self.drop_rate > 1.0 {
            return Err(format!(
                "jitter_rate + drop_rate must not exceed 1 (got {})",
                self.jitter_rate + self.drop_rate
            ));
        }
        if self.overrun_rate > 0.0 && self.overrun_factor == 0 {
            return Err("overrun_factor must be >= 1 when overruns are enabled".into());
        }
        if self.jitter_rate > 0.0 && self.max_jitter.is_zero() {
            return Err("max_jitter must be positive when jitter is enabled".into());
        }
        Ok(())
    }
}

/// Optional periodic load generated below the server (an extension over the
/// paper, whose generated systems contain only the server and the aperiodic
/// traffic because a highest-priority server makes the aperiodic response
/// times independent of what runs below it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodicLoad {
    /// Number of periodic tasks.
    pub count: usize,
    /// Total utilisation to share among them (UUniFast).
    pub utilization: f64,
    /// Smallest period, in time units.
    pub min_period: f64,
    /// Largest period, in time units.
    pub max_period: f64,
}

/// An additional server generated below the primary one (multi-server
/// systems). Priorities are assigned automatically: the primary server keeps
/// the paper's "High" level and extras stack directly underneath it, all
/// above every generated periodic task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtraServer {
    /// Service policy of the extra server.
    pub policy: ServerPolicyKind,
    /// Capacity replenished per period.
    pub capacity: Span,
    /// Replenishment period.
    pub period: Span,
}

impl ExtraServer {
    /// Creates an extra-server descriptor.
    pub fn new(policy: ServerPolicyKind, capacity: Span, period: Span) -> Self {
        ExtraServer {
            policy,
            capacity,
            period,
        }
    }
}

/// The random system generator.
#[derive(Debug, Clone)]
pub struct RandomSystemGenerator {
    params: GeneratorParams,
    cost_model: CostModel,
    policy: ServerPolicyKind,
    periodic_load: Option<PeriodicLoad>,
    extra_servers: Vec<ExtraServer>,
    scheduling: SchedulingPolicy,
    discipline: QueueDiscipline,
    deadline_factor: Option<u64>,
    admission: AdmissionPolicy,
    overload: f64,
    value_model: Option<ValueModel>,
    fault_model: Option<FaultModel>,
    mode_schedule: Vec<ModeChange>,
    /// `gen(density=…, std=…, seed=…, #`: the part of every system name the
    /// parameters fix, formatted once.
    name_prefix: String,
}

impl RandomSystemGenerator {
    /// Creates a generator with the paper's cost model (normal distribution
    /// clamped at 0.1 tu, capped at the server capacity).
    pub fn new(params: GeneratorParams, policy: ServerPolicyKind) -> Result<Self, String> {
        params.validate()?;
        let cost_model = CostModel::paper(
            params.average_cost,
            params.std_deviation,
            params.server_capacity,
        );
        let name_prefix = format!(
            "gen(density={}, std={}, seed={}, #",
            params.task_density, params.std_deviation, params.seed
        );
        Ok(RandomSystemGenerator {
            params,
            cost_model,
            policy,
            periodic_load: None,
            extra_servers: Vec::new(),
            scheduling: SchedulingPolicy::FixedPriority,
            discipline: QueueDiscipline::FifoSkip,
            deadline_factor: None,
            admission: AdmissionPolicy::AcceptAll,
            overload: 1.0,
            value_model: None,
            fault_model: None,
            mode_schedule: Vec::new(),
            name_prefix,
        })
    }

    /// Number of priority levels a generated system consumes below the
    /// primary server: one per extra server, then one per periodic task.
    fn priority_levels_needed(extras: usize, load: Option<PeriodicLoad>) -> usize {
        extras + load.map_or(0, |l| l.count)
    }

    /// Rejects configurations whose server/task count exceeds the priority
    /// range below the primary server. The generator stacks priorities
    /// strictly downward from [`SymbolicPriority::High`]; running out of
    /// levels would silently clamp distinct schedulables onto the same
    /// priority and change the tie-break semantics, so it is an error
    /// instead.
    fn check_priority_range(extras: usize, load: Option<PeriodicLoad>) -> Result<(), String> {
        let top = SymbolicPriority::High.to_priority().level() as usize;
        let needed = Self::priority_levels_needed(extras, load);
        // Levels available strictly below the primary server, down to and
        // including Priority::MIN.
        let available = top - Priority::MIN.level() as usize;
        if needed > available {
            return Err(format!(
                "{needed} distinct priority levels needed below the primary server (P{top}) \
                 but only {available} exist down to {}: the generated system would flatten \
                 distinct schedulables onto one clamped priority",
                Priority::MIN
            ));
        }
        Ok(())
    }

    /// Adds a synthetic periodic task set below the server.
    ///
    /// # Errors
    /// Rejects loads whose task count (together with the already-configured
    /// extra servers) exceeds the available priority range — see
    /// [`Self::with_extra_servers`].
    pub fn with_periodic_load(mut self, load: PeriodicLoad) -> Result<Self, String> {
        Self::check_priority_range(self.extra_servers.len(), Some(load))?;
        self.periodic_load = Some(load);
        Ok(self)
    }

    /// Adds extra servers below the primary one, turning the generator into
    /// a multi-server system generator: each aperiodic event is routed
    /// uniformly at random to one of the `1 + extras` servers, and its cost
    /// is clamped to the target server's capacity so the admission
    /// constraint holds. With no extras the generated systems (and RNG
    /// streams) are exactly the single-server ones.
    ///
    /// # Errors
    /// Rejects configurations whose server count (together with any
    /// configured periodic load) exceeds the priority range below the
    /// primary server: the priorities stack strictly downward, and a count
    /// past [`Priority::MIN`] would silently assign the same clamped
    /// priority to distinct servers/tasks, changing tie-break semantics.
    pub fn with_extra_servers(mut self, extras: Vec<ExtraServer>) -> Result<Self, String> {
        Self::check_priority_range(extras.len(), self.periodic_load)?;
        self.extra_servers = extras;
        Ok(self)
    }

    /// Selects the scheduling policy stamped on every generated system
    /// ([`SystemSpec::scheduling`]); both engines honour it when running the
    /// system. Generation itself (and the RNG streams) is unaffected.
    pub fn with_scheduling(mut self, scheduling: SchedulingPolicy) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// Selects the queue-service discipline stamped on every generated
    /// server. Generation itself (and the RNG streams) is unaffected.
    pub fn with_discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Attaches a relative deadline of `factor × declared cost` to every
    /// generated aperiodic event — the deterministic deadline assignment
    /// used by the deadline-ordered service and EDF experiments. Derived
    /// from already-drawn quantities, so the RNG streams (and therefore the
    /// releases and costs of existing sets) are unchanged.
    pub fn with_aperiodic_deadline_factor(mut self, factor: u64) -> Self {
        self.deadline_factor = Some(factor);
        self
    }

    /// Stamps an on-line admission policy on every generated server.
    /// Generation itself (and the RNG streams) is unaffected.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Scales the aperiodic arrival rate: the Poisson mean per server period
    /// becomes `factor × taskDensity`. The overload knob of the
    /// `reproduce_overload_table` sweep (0.5× → 4×). At the default `1.0`
    /// the generated systems — and the RNG streams — are byte-identical to
    /// the unscaled generator; any other factor legitimately draws a
    /// different arrival stream.
    pub fn with_overload_factor(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "overload factor must be a non-negative finite number"
        );
        self.overload = factor;
        self
    }

    /// Tags every generated aperiodic event with a completion value drawn
    /// from the given model. Values come from a dedicated RNG stream (seed ⊕
    /// a fixed salt), so the release/cost streams are untouched — a valued
    /// set is its value-free twin plus tags.
    pub fn with_value_model(mut self, model: ValueModel) -> Self {
        self.value_model = Some(model);
        self
    }

    /// Attaches a deterministic fault-injection model: each generated event
    /// may be tagged with a cost overrun, release jitter or a dropped
    /// arrival, recorded in the spec's [`rt_model::FaultPlan`]. Decisions
    /// come from a dedicated RNG stream (seed ⊕ a fixed salt), so the
    /// release/cost/value streams are untouched — a faulted set is its
    /// fault-free twin plus the plan.
    ///
    /// # Errors
    /// Rejects models whose rates are not probabilities, whose jitter/drop
    /// rates together exceed 1, or whose enabled families carry a zero
    /// magnitude (factor or maximum jitter).
    pub fn with_fault_model(mut self, model: FaultModel) -> Result<Self, String> {
        model.validate()?;
        self.fault_model = Some(model);
        Ok(self)
    }

    /// Stamps an explicit mode-change schedule on every generated system
    /// (records are sorted into plan order). Purely deterministic — no
    /// randomness is consumed, so the traffic streams are unchanged. The
    /// schedule must be valid for the generated server configuration
    /// (`SystemSpec::validate` checks it per system at build time).
    pub fn with_mode_schedule(mut self, changes: Vec<ModeChange>) -> Self {
        self.mode_schedule = changes;
        self
    }

    /// The generator parameters.
    pub fn params(&self) -> &GeneratorParams {
        &self.params
    }

    /// Generates all `nbGeneration` systems.
    pub fn generate(&self) -> Vec<SystemSpec> {
        (0..self.params.nb_generation)
            .map(|i| self.generate_one(i))
            .collect()
    }

    /// Generates the `index`-th system of the batch. Each system gets its own
    /// RNG stream derived from (seed, index) so systems are independent and
    /// any one of them can be regenerated without replaying the whole batch.
    pub fn generate_one(&self, index: usize) -> SystemSpec {
        let mut rng = StdRng::seed_from_u64(
            self.params
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(index as u64),
        );
        let period = self.params.server_period;
        let horizon = self.params.horizon();

        let mut name = String::with_capacity(self.name_prefix.len() + 21);
        name.push_str(&self.name_prefix);
        // Writing into a `String` cannot fail.
        let _ = write!(name, "{index})");
        let mut builder = SystemSpec::builder(name);
        let server_priority = SymbolicPriority::High.to_priority();
        let server = ServerSpec {
            policy: self.policy,
            capacity: self.params.server_capacity,
            period,
            priority: server_priority,
            discipline: self.discipline,
            admission: self.admission,
        };
        builder.server(server);
        builder.scheduling(self.scheduling);

        // Extra servers stack directly below the primary one; periodic tasks
        // (when generated) sit below every server.
        for (j, extra) in self.extra_servers.iter().enumerate() {
            // In range by construction: `with_extra_servers` rejected any
            // configuration that would clamp here.
            let level = server_priority
                .level()
                .checked_sub(1 + j as u8)
                // rt-lint: allow(panic, reason = "with_extra_servers rejected configurations that would underflow the priority range")
                .expect("priority range was validated at configuration time");
            debug_assert!(level >= Priority::MIN.level());
            builder.add_server(ServerSpec {
                policy: extra.policy,
                capacity: extra.capacity,
                period: extra.period,
                priority: Priority::new(level),
                discipline: self.discipline,
                admission: self.admission,
            });
        }
        let lowest_server_level = server_priority
            .level()
            .checked_sub(self.extra_servers.len() as u8)
            // rt-lint: allow(panic, reason = "with_extra_servers rejected configurations that would underflow the priority range")
            .expect("priority range was validated at configuration time");

        if let Some(load) = self.periodic_load {
            let utilizations = uunifast(&mut rng, load.count, load.utilization);
            let drawn: Vec<(Span, Span)> = utilizations
                .into_iter()
                .map(|u| {
                    let period_units =
                        rng.gen_range(load.min_period..=load.max_period.max(load.min_period));
                    let period = Span::from_units_f64(period_units);
                    let cost = Span::from_units_f64(u * period_units).max(Span::from_ticks(1));
                    (cost, period)
                })
                .collect();
            // Rate-monotonic assignment over the drawn periods (derived from
            // already-drawn quantities — no extra randomness), so the
            // fixed-priority feasibility verdicts are about RM, not about an
            // arbitrary index order. Periodic tasks sit strictly below every
            // server priority; ranks are in range by construction
            // (`with_periodic_load` rejected any count that would clamp).
            let ranks =
                rt_model::rate_monotonic(&drawn.iter().map(|&(_, p)| p).collect::<Vec<_>>());
            let mut order: Vec<usize> = (0..drawn.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(ranks[i]));
            let mut levels = vec![0u8; drawn.len()];
            for (rank, &i) in order.iter().enumerate() {
                levels[i] = lowest_server_level
                    .checked_sub(1 + rank as u8)
                    // rt-lint: allow(panic, reason = "with_periodic_load rejected task counts that would underflow the priority range")
                    .expect("priority range was validated at configuration time");
                debug_assert!(levels[i] >= Priority::MIN.level());
            }
            for (i, &(cost, period)) in drawn.iter().enumerate() {
                builder.periodic(
                    format!("gen-tau{i}"),
                    cost,
                    period,
                    Priority::new(levels[i]),
                );
            }
        }

        // Poisson arrivals: one draw per server period, uniform placement.
        // The overload knob scales the mean; at 1.0 the draws — and the
        // whole stream — are byte-identical to the unscaled generator.
        let arrival_density = self.params.task_density * self.overload;
        let arrivals = Poisson::new(arrival_density);
        // Dedicated value stream (same (seed, index) derivation, distinct
        // salt): tagging values never perturbs the release/cost draws.
        let mut value_rng = self.value_model.map(|_| {
            StdRng::seed_from_u64(
                self.params
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(index as u64)
                    ^ 0xA5A5_5A5A_D0E5_11AD,
            )
        });
        // Dedicated fault stream (distinct salt): fault tagging never
        // perturbs the release/cost/value draws.
        let mut fault_rng = self.fault_model.map(|_| {
            StdRng::seed_from_u64(
                self.params
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(index as u64)
                    ^ 0xFA17_1217_FA17_1217,
            )
        });
        // Room for the mean count plus four standard deviations, so the
        // release buffer practically never regrows (capped: a huge horizon
        // grows it as it fills instead of reserving up front).
        let expected = arrival_density * self.params.horizon_periods as f64;
        let reserve = (expected + 4.0 * expected.sqrt()) as usize + 4;
        let mut releases: Vec<Instant> = Vec::with_capacity(reserve.min(1 << 16));
        for k in 0..self.params.horizon_periods {
            let count = arrivals.sample(&mut rng);
            let start = Instant::ZERO + period.saturating_mul(k);
            let first = releases.len();
            for _ in 0..count {
                let offset_ticks = rng.gen_range(0..period.ticks());
                releases.push(start + Span::from_ticks(offset_ticks));
            }
            // Period k's releases lie in [kP, (k+1)P) (saturating at
            // `Instant::MAX`, which keeps the periods in order), so sorting
            // each period's slice sorts the whole horizon.
            releases[first..].sort_unstable();
        }
        builder.reserve_aperiodics(releases.len());
        for release in releases {
            if self.extra_servers.is_empty() {
                // Single-server path: byte-identical draws to the original
                // generator, so existing sets are reproducible.
                let cost = self.cost_model.sample(&mut rng);
                builder.aperiodic(release, cost);
            } else {
                let target = rng.gen_range(0..1 + self.extra_servers.len());
                let capacity = match target {
                    0 => self.params.server_capacity,
                    extra => self.extra_servers[extra - 1].capacity,
                };
                let cost = self.cost_model.sample(&mut rng).min(capacity);
                builder.aperiodic_for(target, release, cost);
            }
            if let Some(factor) = self.deadline_factor {
                let event = builder
                    .last_aperiodic_mut()
                    // rt-lint: allow(panic, reason = "the builder appended the event in the loop body above")
                    .expect("an event was just appended");
                event.relative_deadline = Some(event.declared_cost.saturating_mul(factor));
            }
            if let Some(model) = self.value_model {
                let event = builder
                    .last_aperiodic_mut()
                    // rt-lint: allow(panic, reason = "the builder appended the event in the loop body above")
                    .expect("an event was just appended");
                event.value = match model {
                    ValueModel::CostProportional { factor } => {
                        event.declared_cost.ticks().saturating_mul(factor)
                    }
                    ValueModel::UniformDensity { lo, hi } => {
                        let density = value_rng
                            .as_mut()
                            // rt-lint: allow(panic, reason = "the value rng is seeded whenever a value model is configured")
                            .expect("value_rng exists whenever a model is set")
                            .gen_range(lo..=hi.max(lo));
                        event.declared_cost.ticks().saturating_mul(density)
                    }
                };
            }
            if let Some(model) = self.fault_model {
                let rng = fault_rng
                    .as_mut()
                    // rt-lint: allow(panic, reason = "the fault rng is seeded whenever a fault model is configured")
                    .expect("fault_rng exists whenever a model is set");
                let (id, declared) = {
                    let event = builder
                        .last_aperiodic_mut()
                        // rt-lint: allow(panic, reason = "the builder appended the event in the loop body above")
                        .expect("an event was just appended");
                    (event.id, event.declared_cost)
                };
                // One placement roll (drop, else jitter, else clean) and one
                // independent overrun roll per event, in release order, so
                // any single rate being zero still consumes the same
                // randomness and the tagged subsets stay comparable across
                // model variants.
                let placement: f64 = rng.gen();
                if placement < model.drop_rate {
                    builder
                        .faults_mut()
                        .arrival_faults
                        .push(ArrivalFault::Drop { event: id });
                } else if placement < model.drop_rate + model.jitter_rate {
                    let delay = Span::from_ticks(rng.gen_range(1..=model.max_jitter.ticks()));
                    builder
                        .faults_mut()
                        .arrival_faults
                        .push(ArrivalFault::Jitter { event: id, delay });
                }
                let overrun: f64 = rng.gen();
                if overrun < model.overrun_rate {
                    let extra = declared
                        .saturating_mul(model.overrun_factor)
                        .max(Span::from_ticks(1));
                    builder
                        .faults_mut()
                        .overruns
                        .push(CostOverrun { event: id, extra });
                }
            }
        }
        if !self.mode_schedule.is_empty() {
            let plan = builder.faults_mut();
            plan.mode_changes.extend(self.mode_schedule.iter().cloned());
            plan.normalise();
        }
        builder.horizon(horizon);
        builder
            .build()
            // rt-lint: allow(panic, reason = "the generator draws from validated parameter ranges, so the built spec satisfies the same validator")
            .expect("generated systems are valid by construction")
    }
}

/// The UUniFast algorithm (Bini & Buttazzo): draws `n` task utilisations
/// summing to `total`, uniformly over the simplex.
pub fn uunifast<R: Rng + ?Sized>(rng: &mut R, n: usize, total: f64) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    let mut utilizations = Vec::with_capacity(n);
    let mut remaining = total;
    for i in 1..n {
        let exponent = 1.0 / (n - i) as f64;
        let next = remaining * rng.gen::<f64>().powf(exponent);
        utilizations.push(remaining - next);
        remaining = next;
    }
    utilizations.push(remaining);
    utilizations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator(density: u32, std_dev: u32) -> RandomSystemGenerator {
        RandomSystemGenerator::new(
            GeneratorParams::paper_set(density, std_dev),
            ServerPolicyKind::Polling,
        )
        .unwrap()
    }

    #[test]
    fn generates_the_requested_number_of_systems() {
        let systems = generator(1, 0).generate();
        assert_eq!(systems.len(), 10);
        for sys in &systems {
            assert!(sys.validate().is_ok());
            assert_eq!(sys.horizon, Instant::from_units(60));
            assert_eq!(sys.server().unwrap().capacity, Span::from_units(4));
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = generator(2, 2).generate();
        let b = generator(2, 2).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_traffic() {
        let mut params = GeneratorParams::paper_set(2, 2);
        params.seed = 2024;
        let other = RandomSystemGenerator::new(params, ServerPolicyKind::Polling).unwrap();
        let a = generator(2, 2).generate();
        let b = other.generate();
        assert_ne!(a, b);
    }

    #[test]
    fn homogeneous_sets_have_constant_costs() {
        for sys in generator(1, 0).generate() {
            for e in &sys.aperiodics {
                assert_eq!(e.declared_cost, Span::from_units(3));
                assert_eq!(e.actual_cost, Span::from_units(3));
            }
        }
    }

    #[test]
    fn density_controls_the_average_number_of_events() {
        // Aggregate over the ten systems of each set: densities 1 vs 3 per
        // period over 10 periods and 10 systems → expected 100 vs 300 events.
        let count = |d| -> usize {
            generator(d, 0)
                .generate()
                .iter()
                .map(|s| s.aperiodics.len())
                .sum()
        };
        let low = count(1);
        let high = count(3);
        assert!(
            low > 50 && low < 150,
            "density-1 sets produced {low} events"
        );
        assert!(
            high > 220 && high < 380,
            "density-3 sets produced {high} events"
        );
        assert!(high > low);
    }

    #[test]
    fn heterogeneous_costs_vary_but_respect_bounds() {
        let systems = generator(2, 2).generate();
        let mut distinct = std::collections::BTreeSet::new();
        for sys in &systems {
            for e in &sys.aperiodics {
                assert!(e.declared_cost <= Span::from_units(4));
                assert!(e.declared_cost >= Span::from_units_f64(0.1));
                distinct.insert(e.declared_cost);
            }
        }
        assert!(distinct.len() > 10, "costs should vary across events");
    }

    #[test]
    fn events_fall_within_the_horizon_and_are_sorted() {
        for sys in generator(3, 2).generate() {
            assert!(sys
                .aperiodics
                .windows(2)
                .all(|w| w[0].release <= w[1].release));
            assert!(sys.aperiodics.iter().all(|e| e.release < sys.horizon));
        }
    }

    #[test]
    fn deferrable_flavour_only_changes_the_policy() {
        let ps = generator(1, 2).generate();
        let ds = RandomSystemGenerator::new(
            GeneratorParams::paper_set(1, 2),
            ServerPolicyKind::Deferrable,
        )
        .unwrap()
        .generate();
        assert_eq!(ps.len(), ds.len());
        for (a, b) in ps.iter().zip(ds.iter()) {
            assert_eq!(
                a.aperiodics, b.aperiodics,
                "same seed must give the same traffic"
            );
            assert_eq!(a.server().unwrap().policy, ServerPolicyKind::Polling);
            assert_eq!(b.server().unwrap().policy, ServerPolicyKind::Deferrable);
        }
    }

    #[test]
    fn periodic_load_is_generated_below_the_server() {
        let gen = generator(1, 0)
            .with_periodic_load(PeriodicLoad {
                count: 3,
                utilization: 0.3,
                min_period: 10.0,
                max_period: 40.0,
            })
            .expect("three tasks fit the priority range");
        let sys = gen.generate_one(0);
        assert_eq!(sys.periodic_tasks.len(), 3);
        let server_prio = sys.server().unwrap().priority;
        for t in &sys.periodic_tasks {
            assert!(server_prio.preempts(t.priority));
        }
        let u: f64 = sys.periodic_tasks.iter().map(|t| t.utilization()).sum();
        assert!(u > 0.0 && u < 0.5);
    }

    #[test]
    fn extra_servers_produce_valid_multi_server_systems() {
        let gen = generator(2, 2)
            .with_extra_servers(vec![
                ExtraServer::new(
                    ServerPolicyKind::Sporadic,
                    Span::from_units(3),
                    Span::from_units(8),
                ),
                ExtraServer::new(
                    ServerPolicyKind::Deferrable,
                    Span::from_units(2),
                    Span::from_units(12),
                ),
            ])
            .expect("two extra servers fit the priority range");
        let systems = gen.generate();
        let mut routed_beyond_primary = 0usize;
        for sys in &systems {
            assert!(sys.validate().is_ok());
            assert_eq!(sys.servers.len(), 3);
            // Priorities stack strictly downward from the primary server.
            assert!(sys.servers[0].priority.preempts(sys.servers[1].priority));
            assert!(sys.servers[1].priority.preempts(sys.servers[2].priority));
            for e in &sys.aperiodics {
                assert!(e.server < 3);
                let target = &sys.servers[e.server];
                assert!(e.declared_cost <= target.capacity);
                if e.server > 0 {
                    routed_beyond_primary += 1;
                }
            }
        }
        assert!(
            routed_beyond_primary > 0,
            "uniform routing must hit the extra servers"
        );
    }

    #[test]
    fn no_extras_keeps_the_original_streams() {
        let plain = generator(2, 2).generate();
        let with_empty = generator(2, 2)
            .with_extra_servers(Vec::new())
            .expect("no extras always fit")
            .generate();
        assert_eq!(plain, with_empty);
    }

    #[test]
    fn oversized_configurations_are_rejected_not_flattened() {
        let extra = || {
            ExtraServer::new(
                ServerPolicyKind::Polling,
                Span::from_units(1),
                Span::from_units(10),
            )
        };
        let load = |count: usize| PeriodicLoad {
            count,
            utilization: 0.2,
            min_period: 10.0,
            max_period: 40.0,
        };
        // 29 levels exist below the primary server (P30 → P1): 29 extras
        // fit exactly, 30 would clamp two servers onto one priority.
        let fits: Vec<ExtraServer> = (0..29).map(|_| extra()).collect();
        assert!(generator(1, 0).with_extra_servers(fits).is_ok());
        let overflow: Vec<ExtraServer> = (0..30).map(|_| extra()).collect();
        let err = generator(1, 0).with_extra_servers(overflow).unwrap_err();
        assert!(err.contains("priority levels"), "unexpected message: {err}");
        // Periodic loads are bounded the same way…
        assert!(generator(1, 0).with_periodic_load(load(29)).is_ok());
        assert!(generator(1, 0).with_periodic_load(load(30)).is_err());
        // …and the two budgets are combined, whichever is configured first.
        let twenty: Vec<ExtraServer> = (0..20).map(|_| extra()).collect();
        let gen = generator(1, 0).with_extra_servers(twenty).unwrap();
        assert!(gen.clone().with_periodic_load(load(9)).is_ok());
        assert!(gen.with_periodic_load(load(10)).is_err());
    }

    #[test]
    fn accepted_configurations_assign_distinct_priorities() {
        // Regression for the silent-clamp bug: every accepted system must
        // give each server and task its own priority level.
        let extras: Vec<ExtraServer> = (0..10)
            .map(|_| {
                ExtraServer::new(
                    ServerPolicyKind::Deferrable,
                    Span::from_units(1),
                    Span::from_units(10),
                )
            })
            .collect();
        let sys = generator(1, 0)
            .with_extra_servers(extras)
            .unwrap()
            .with_periodic_load(PeriodicLoad {
                count: 10,
                utilization: 0.2,
                min_period: 10.0,
                max_period: 40.0,
            })
            .unwrap()
            .generate_one(0);
        let mut levels: Vec<u8> = sys
            .servers
            .iter()
            .map(|s| s.priority.level())
            .chain(sys.periodic_tasks.iter().map(|t| t.priority.level()))
            .collect();
        let total = levels.len();
        levels.sort_unstable();
        levels.dedup();
        assert_eq!(levels.len(), total, "priorities must be pairwise distinct");
    }

    #[test]
    fn scheduling_and_discipline_knobs_stamp_the_spec_without_touching_the_streams() {
        use rt_model::{QueueDiscipline, SchedulingPolicy};
        let plain = generator(2, 2).generate();
        let stamped = generator(2, 2)
            .with_scheduling(SchedulingPolicy::Edf)
            .with_discipline(QueueDiscipline::DeadlineOrdered)
            .generate();
        assert_eq!(plain.len(), stamped.len());
        for (a, b) in plain.iter().zip(stamped.iter()) {
            assert_eq!(b.scheduling, SchedulingPolicy::Edf);
            assert!(b
                .servers
                .iter()
                .all(|s| s.discipline == QueueDiscipline::DeadlineOrdered));
            // Identical traffic: the knobs never consume randomness.
            assert_eq!(a.aperiodics, b.aperiodics);
            assert_eq!(a.horizon, b.horizon);
        }
    }

    #[test]
    fn deadline_factor_attaches_cost_proportional_deadlines() {
        let plain = generator(2, 2).generate();
        let with_deadlines = generator(2, 2).with_aperiodic_deadline_factor(4).generate();
        for (a, b) in plain.iter().zip(with_deadlines.iter()) {
            for (ea, eb) in a.aperiodics.iter().zip(b.aperiodics.iter()) {
                assert_eq!(ea.release, eb.release, "streams must be unchanged");
                assert_eq!(ea.declared_cost, eb.declared_cost);
                assert_eq!(
                    eb.relative_deadline,
                    Some(eb.declared_cost.saturating_mul(4))
                );
            }
        }
    }

    #[test]
    fn overload_factor_one_preserves_the_streams_and_four_multiplies_arrivals() {
        let plain = generator(2, 0).generate();
        let unit = generator(2, 0).with_overload_factor(1.0).generate();
        assert_eq!(plain, unit, "factor 1.0 must be byte-identical");
        let count =
            |systems: &[SystemSpec]| -> usize { systems.iter().map(|s| s.aperiodics.len()).sum() };
        let overloaded = generator(2, 0).with_overload_factor(4.0).generate();
        let base = count(&plain);
        let heavy = count(&overloaded);
        // Poisson mean ×4 over 10 systems × 10 periods: solidly separated.
        assert!(
            heavy > base * 2,
            "4× overload produced {heavy} events vs {base} at 1×"
        );
    }

    #[test]
    fn admission_stamp_applies_to_every_server_without_touching_traffic() {
        let plain = generator(2, 2).generate();
        let stamped = generator(2, 2)
            .with_admission(AdmissionPolicy::DeadlinePredictive)
            .with_extra_servers(vec![ExtraServer::new(
                ServerPolicyKind::Sporadic,
                Span::from_units(3),
                Span::from_units(8),
            )])
            .expect("one extra fits")
            .generate();
        for sys in &stamped {
            assert!(sys
                .servers
                .iter()
                .all(|s| s.admission == AdmissionPolicy::DeadlinePredictive));
        }
        // Single-server traffic is untouched by the stamp alone.
        let stamped_single = generator(2, 2)
            .with_admission(AdmissionPolicy::ValueDensity)
            .generate();
        for (a, b) in plain.iter().zip(stamped_single.iter()) {
            assert_eq!(a.aperiodics, b.aperiodics);
        }
    }

    #[test]
    fn value_models_tag_without_perturbing_the_streams() {
        let plain = generator(2, 2).generate();
        let proportional = generator(2, 2)
            .with_value_model(ValueModel::CostProportional { factor: 3 })
            .generate();
        let random = generator(2, 2)
            .with_value_model(ValueModel::UniformDensity { lo: 1, hi: 8 })
            .generate();
        for ((a, b), c) in plain.iter().zip(proportional.iter()).zip(random.iter()) {
            for ((ea, eb), ec) in a
                .aperiodics
                .iter()
                .zip(b.aperiodics.iter())
                .zip(c.aperiodics.iter())
            {
                assert_eq!(ea.release, eb.release, "streams must be unchanged");
                assert_eq!(ea.release, ec.release, "streams must be unchanged");
                assert_eq!(ea.declared_cost, ec.declared_cost);
                assert_eq!(eb.value, ea.declared_cost.ticks() * 3);
                let density = ec.value / ec.declared_cost.ticks().max(1);
                assert!((1..=8).contains(&density), "density {density} out of range");
            }
        }
        // The uniform model actually varies.
        let densities: std::collections::BTreeSet<u64> = random
            .iter()
            .flat_map(|s| s.aperiodics.iter())
            .map(|e| e.value / e.declared_cost.ticks().max(1))
            .collect();
        assert!(densities.len() > 2, "uniform densities must vary");
    }

    #[test]
    fn fault_models_tag_without_perturbing_the_streams() {
        let plain = generator(2, 2).generate();
        let faulted = generator(2, 2)
            .with_fault_model(FaultModel {
                overrun_rate: 0.3,
                overrun_factor: 2,
                jitter_rate: 0.2,
                max_jitter: Span::from_units(3),
                drop_rate: 0.1,
            })
            .expect("a well-formed model")
            .generate();
        let mut overruns = 0usize;
        let mut arrivals = 0usize;
        for (a, b) in plain.iter().zip(faulted.iter()) {
            assert_eq!(
                a.aperiodics, b.aperiodics,
                "the fault stream must not perturb the traffic"
            );
            assert!(b.validate().is_ok());
            overruns += b.faults.overruns.len();
            arrivals += b.faults.arrival_faults.len();
        }
        assert!(overruns > 0, "a 30% overrun rate must tag some events");
        assert!(arrivals > 0, "30% jitter+drop must tag some events");
        assert!(plain.iter().all(|s| s.faults.is_empty()));
    }

    #[test]
    fn overrun_only_and_arrival_only_models_stay_in_their_family() {
        let overruns = generator(2, 2)
            .with_fault_model(FaultModel::overruns(0.5, 3))
            .expect("valid")
            .generate();
        assert!(overruns.iter().any(|s| !s.faults.overruns.is_empty()));
        assert!(overruns.iter().all(|s| s.faults.arrival_faults.is_empty()));
        for sys in &overruns {
            for o in &sys.faults.overruns {
                let event = sys.aperiodics.iter().find(|e| e.id == o.event).unwrap();
                assert_eq!(o.extra, event.declared_cost.saturating_mul(3));
            }
        }
        let arrivals = generator(2, 2)
            .with_fault_model(FaultModel::arrivals(0.4, Span::from_units(2), 0.2))
            .expect("valid")
            .generate();
        assert!(arrivals.iter().any(|s| !s.faults.arrival_faults.is_empty()));
        assert!(arrivals.iter().all(|s| s.faults.overruns.is_empty()));
    }

    #[test]
    fn mode_schedules_are_stamped_sorted_and_validated() {
        let gen = RandomSystemGenerator::new(
            GeneratorParams::paper_set(2, 2),
            ServerPolicyKind::Deferrable,
        )
        .unwrap()
        .with_mode_schedule(vec![
            ModeChange::at(Instant::from_units(30), 0).with_capacity(Span::from_units(2)),
            ModeChange::at(Instant::from_units(12), 0).with_capacity(Span::from_units(3)),
        ]);
        for sys in gen.generate() {
            assert!(sys.validate().is_ok());
            assert_eq!(sys.faults.mode_changes.len(), 2);
            assert!(sys.faults.mode_changes[0].at < sys.faults.mode_changes[1].at);
        }
    }

    #[test]
    fn malformed_fault_models_are_rejected() {
        assert!(generator(1, 0)
            .with_fault_model(FaultModel::overruns(1.5, 2))
            .is_err());
        assert!(generator(1, 0)
            .with_fault_model(FaultModel::overruns(0.5, 0))
            .is_err());
        assert!(generator(1, 0)
            .with_fault_model(FaultModel::arrivals(0.7, Span::from_units(1), 0.7))
            .is_err());
        assert!(generator(1, 0)
            .with_fault_model(FaultModel::arrivals(0.2, Span::ZERO, 0.0))
            .is_err());
    }

    #[test]
    fn uunifast_sums_to_total() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in 1..10 {
            let us = uunifast(&mut rng, n, 0.7);
            assert_eq!(us.len(), n);
            let sum: f64 = us.iter().sum();
            assert!((sum - 0.7).abs() < 1e-9);
            assert!(us.iter().all(|&u| u >= 0.0));
        }
        assert!(uunifast(&mut rng, 0, 0.7).is_empty());
    }

    #[test]
    fn invalid_params_are_rejected_at_construction() {
        let mut params = GeneratorParams::paper_baseline();
        params.task_density = -1.0;
        assert!(RandomSystemGenerator::new(params, ServerPolicyKind::Polling).is_err());
    }
}
