//! Seeded random-system generator shared by the differential fuzzers
//! (`fuzz_differential.rs`) and the probe-transparency suite
//! (`probe_transparency.rs`): random systems across the full configuration
//! space — server policies × queue disciplines × admission policies ×
//! scheduling policies, single- and multi-lane, with randomly injected cost
//! overruns, arrival faults and mode changes — valid by construction and
//! deterministic per seed.

#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtsj_event_framework::model::{
    AdmissionPolicy, Instant, ModeChange, Priority, QueueDiscipline, SchedulingPolicy,
    ServerPolicyKind, ServerSpec, Span, SystemSpec,
};

/// Draws a random system spec, valid by construction, from the case seed.
pub fn random_spec(seed: u64) -> SystemSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let policies = [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Sporadic,
        ServerPolicyKind::Background,
    ];
    let disciplines = [QueueDiscipline::FifoSkip, QueueDiscipline::DeadlineOrdered];
    let admissions = [
        AdmissionPolicy::AcceptAll,
        AdmissionPolicy::DeadlinePredictive,
        AdmissionPolicy::ValueDensity,
    ];
    let mut b = SystemSpec::builder(format!("fuzz-{seed}"));

    let n_servers = rng.gen_range(1..=2u64) as usize;
    let mut lanes = Vec::new();
    for lane in 0..n_servers {
        let policy = policies[rng.gen_range(0..policies.len() as u64) as usize];
        let server = if policy == ServerPolicyKind::Background {
            ServerSpec::background(Priority::new(30 - lane as u8))
        } else {
            let period = Span::from_units(rng.gen_range(5..=8));
            ServerSpec {
                policy,
                capacity: Span::from_units(rng.gen_range(2..=4u64)),
                period,
                priority: Priority::new(30 - lane as u8),
                discipline: disciplines[rng.gen_range(0..2u64) as usize],
                admission: admissions[rng.gen_range(0..3u64) as usize],
            }
        };
        lanes.push(server.clone());
        b.add_server(server);
    }

    for task in 0..rng.gen_range(1..=2u64) {
        let period = Span::from_units(rng.gen_range(6..=12));
        b.periodic(
            format!("tau{task}"),
            Span::from_units(rng.gen_range(1..=2)),
            period,
            Priority::new(20 - task as u8),
        );
    }

    let horizon = 48u64;
    // Releases must be sorted before insertion.
    let mut arrivals: Vec<(u64, usize)> = (0..rng.gen_range(0..=10u64))
        .map(|_| {
            let release = rng.gen_range(0..horizon);
            let lane = rng.gen_range(0..n_servers as u64) as usize;
            (release, lane)
        })
        .collect();
    arrivals.sort();
    for (release, lane) in arrivals {
        let max_cost = if lanes[lane].policy.is_capacity_limited() {
            lanes[lane].capacity.ticks() / Span::from_units(1).ticks()
        } else {
            4
        };
        let cost = Span::from_units(rng.gen_range(1..=max_cost.max(1)));
        let id = b.aperiodic_for(lane, Instant::from_units(release), cost);
        let event = b.last_aperiodic_mut().expect("event just added");
        if rng.gen_range(0..4u64) != 0 {
            event.relative_deadline = Some(Span::from_units(rng.gen_range(4..=16)));
        }
        event.value = rng.gen_range(1..=8);
        // Random fault tags: a cost overrun beyond the declared budget
        // and/or an arrival perturbation, each on ~1 in 4 events.
        if rng.gen_range(0..4u64) == 0 {
            let extra = Span::from_units(rng.gen_range(1..=3));
            *b.faults_mut() = std::mem::take(b.faults_mut()).overrun(id, extra);
        }
        if rng.gen_range(0..4u64) == 0 {
            *b.faults_mut() = if rng.gen_range(0..2u64) == 0 {
                std::mem::take(b.faults_mut()).drop_arrival(id)
            } else {
                std::mem::take(b.faults_mut()).jitter(id, Span::from_units(rng.gen_range(1..=4)))
            };
        }
    }

    // At most one mode change per lane, drawn from the legal trajectory
    // moves of the lane's policy.
    for (lane, server) in lanes.iter().enumerate() {
        if rng.gen_range(0..3u64) != 0 {
            continue;
        }
        let at = Instant::from_units(rng.gen_range(6..horizon));
        let change = match server.policy {
            ServerPolicyKind::Polling => ModeChange::at(at, lane).with_capacity(Span::from_units(
                rng.gen_range(1..=server.capacity.ticks() / Span::from_units(1).ticks()),
            )),
            ServerPolicyKind::Deferrable | ServerPolicyKind::Sporadic => {
                if rng.gen_range(0..2u64) == 0 {
                    ModeChange::at(at, lane).with_capacity(Span::from_units(
                        rng.gen_range(1..=server.capacity.ticks() / Span::from_units(1).ticks()),
                    ))
                } else {
                    ModeChange::at(at, lane).with_policy(ServerPolicyKind::Background)
                }
            }
            ServerPolicyKind::Background => continue,
        };
        *b.faults_mut() = std::mem::take(b.faults_mut()).mode_change(change);
    }
    b.faults_mut().normalise();

    b.scheduling(if rng.gen_range(0..2u64) == 0 {
        SchedulingPolicy::FixedPriority
    } else {
        SchedulingPolicy::Edf
    });
    b.horizon(Instant::from_units(horizon));
    b.build()
        .unwrap_or_else(|e| panic!("fuzz case {seed} generated an invalid spec: {e:?}"))
}

/// Draws a random overloaded system from the case seed: 1–2 lanes, each
/// offered 4–8× the work its capacity serves (a background lane the work of
/// a 3-in-6 server), releases on a quarter-unit grid so that arrivals meet
/// job ends, capacity exhaustion and replenishments, with random policy,
/// discipline, admission, deadlines, values, overruns, arrival faults, mode
/// changes and scheduler. Valid by construction and deterministic per seed;
/// the long services with arrivals inside them are the shape the
/// simulation driver's service batching must get right.
pub fn random_overload_spec(seed: u64) -> SystemSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let policies = [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Sporadic,
        ServerPolicyKind::Background,
    ];
    let disciplines = [QueueDiscipline::FifoSkip, QueueDiscipline::DeadlineOrdered];
    let admissions = [
        AdmissionPolicy::AcceptAll,
        AdmissionPolicy::DeadlinePredictive,
        AdmissionPolicy::ValueDensity,
    ];
    let mut b = SystemSpec::builder(format!("overload-{seed}"));
    let quarter = Span::from_units(1).ticks() / 4;
    let horizon = 48u64;

    let n_servers = rng.gen_range(1..=2u64) as usize;
    let mut lanes = Vec::new();
    for lane in 0..n_servers {
        let policy = policies[rng.gen_range(0..policies.len() as u64) as usize];
        let discipline = disciplines[rng.gen_range(0..2u64) as usize];
        let server = if policy == ServerPolicyKind::Background {
            ServerSpec {
                discipline,
                ..ServerSpec::background(Priority::new(30 - lane as u8))
            }
        } else {
            ServerSpec {
                policy,
                capacity: Span::from_units(rng.gen_range(2..=4u64)),
                period: Span::from_units(rng.gen_range(5..=8)),
                priority: Priority::new(30 - lane as u8),
                discipline,
                admission: admissions[rng.gen_range(0..3u64) as usize],
            }
        };
        lanes.push(server.clone());
        b.add_server(server);
    }

    for task in 0..rng.gen_range(0..=2u64) {
        b.periodic(
            format!("tau{task}"),
            Span::from_units(1),
            Span::from_units(rng.gen_range(6..=12)),
            Priority::new(20 - task as u8),
        );
    }

    // Per lane: costs in quarter units up to the lane's capacity, drawn
    // until the offered work is `load` times what the capacity serves over
    // the horizon.
    let mut arrivals: Vec<(u64, usize, u64)> = Vec::new();
    for (lane, server) in lanes.iter().enumerate() {
        let (capacity, period) = if server.policy.is_capacity_limited() {
            (server.capacity.ticks(), server.period.ticks())
        } else {
            (Span::from_units(3).ticks(), Span::from_units(6).ticks())
        };
        let load = rng.gen_range(4..=8u64);
        let max_cost = capacity / quarter;
        let mut offered = 0u64;
        let target = load * capacity * Span::from_units(horizon).ticks() / period;
        while offered < target {
            let cost = rng.gen_range(1..=max_cost) * quarter;
            let release = rng.gen_range(0..horizon * 4) * quarter;
            arrivals.push((release, lane, cost));
            offered += cost;
        }
    }
    arrivals.sort();
    for (release, lane, cost) in arrivals {
        let id = b.aperiodic_for(lane, Instant::from_ticks(release), Span::from_ticks(cost));
        let event = b.last_aperiodic_mut().expect("event just added");
        if rng.gen_range(0..4u64) != 0 {
            event.relative_deadline = Some(Span::from_units(rng.gen_range(2..=16)));
        }
        event.value = rng.gen_range(1..=8);
        if rng.gen_range(0..4u64) == 0 {
            let extra = Span::from_ticks(rng.gen_range(1..=8u64) * quarter);
            *b.faults_mut() = std::mem::take(b.faults_mut()).overrun(id, extra);
        }
        if rng.gen_range(0..8u64) == 0 {
            *b.faults_mut() = if rng.gen_range(0..2u64) == 0 {
                std::mem::take(b.faults_mut()).drop_arrival(id)
            } else {
                std::mem::take(b.faults_mut())
                    .jitter(id, Span::from_ticks(rng.gen_range(1..=8u64) * quarter))
            };
        }
    }

    // At most one mode change per capacity-limited lane.
    for (lane, server) in lanes.iter().enumerate() {
        if !server.policy.is_capacity_limited() || rng.gen_range(0..3u64) != 0 {
            continue;
        }
        let at = Instant::from_ticks(rng.gen_range(4..horizon * 4) * quarter);
        let capacity =
            Span::from_ticks(rng.gen_range(1..=server.capacity.ticks() / quarter) * quarter);
        let change = match rng.gen_range(0..3u64) {
            0 => ModeChange::at(at, lane).with_capacity(capacity),
            1 => ModeChange::at(at, lane)
                .with_discipline(disciplines[rng.gen_range(0..2u64) as usize]),
            _ if server.policy != ServerPolicyKind::Polling => {
                ModeChange::at(at, lane).with_policy(ServerPolicyKind::Background)
            }
            _ => {
                ModeChange::at(at, lane).with_admission(admissions[rng.gen_range(0..3u64) as usize])
            }
        };
        *b.faults_mut() = std::mem::take(b.faults_mut()).mode_change(change);
    }
    b.faults_mut().normalise();

    b.scheduling(if rng.gen_range(0..2u64) == 0 {
        SchedulingPolicy::FixedPriority
    } else {
        SchedulingPolicy::Edf
    });
    b.horizon(Instant::from_units(horizon));
    b.build()
        .unwrap_or_else(|e| panic!("overload case {seed} generated an invalid spec: {e:?}"))
}
