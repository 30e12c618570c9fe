//! Interning property tests (phase-2 compile layer).
//!
//! The symbol table in `rt-model::intern` exists so per-release handler
//! state can carry a fixed-width [`NameId`] instead of a `String`. That is
//! only sound if two properties hold, and this file pins both across a
//! seeded family of random systems:
//!
//! 1. **Round-trip** — every name a prepared [`ExecutionPlan`] interns
//!    resolves back to the exact spec string, interning is idempotent, and
//!    the plan's table is byte-for-byte the table obtained by re-interning
//!    the installed events in plan order.
//! 2. **Behaviour invariance** — renaming every event (forcing completely
//!    different interner contents) leaves the canonical trace of both the
//!    execution driver and the linear-scan reference untouched, and no name
//!    ever leaks into the canonical rendering.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtsj_event_framework::model::{
    Instant, NameTable, Priority, ServerPolicyKind, ServerSpec, Span, SystemSpec,
};
use rtsj_event_framework::taskserver::{execute_reference, ExecutionConfig, ExecutionPlan};

const CASES: u64 = 48;

/// A seeded multi-lane system with duplicate, unicode and default-shaped
/// event names, exercising the interner's dedup path.
fn random_named_spec(seed: u64) -> SystemSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let policies = [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Sporadic,
    ];
    let mut b = SystemSpec::builder(format!("intern-{seed}"));
    let lanes = rng.gen_range(1..=2u64) as usize;
    for lane in 0..lanes {
        let policy = policies[rng.gen_range(0..policies.len() as u64) as usize];
        b.add_server(ServerSpec {
            policy,
            capacity: Span::from_units(rng.gen_range(2..=4u64)),
            period: Span::from_units(rng.gen_range(5..=8u64)),
            priority: Priority::new(40 - lane as u8),
            ..ServerSpec::deferrable(Span::from_units(2), Span::from_units(6), Priority::new(40))
        });
    }
    for task in 0..rng.gen_range(1..=3u64) {
        b.periodic(
            format!("τ-{task}"),
            Span::from_units(rng.gen_range(1..=2)),
            Span::from_units(rng.gen_range(6..=12)),
            Priority::new(20 - task as u8),
        );
    }
    let horizon = 48u64;
    let mut arrivals: Vec<(u64, usize)> = (0..rng.gen_range(1..=12u64))
        .map(|_| {
            (
                rng.gen_range(0..horizon + 4),
                rng.gen_range(0..lanes as u64) as usize,
            )
        })
        .collect();
    arrivals.sort_unstable();
    for (index, (release, lane)) in arrivals.into_iter().enumerate() {
        b.aperiodic_for(lane, Instant::from_units(release), Span::from_units(1));
        let event = b.last_aperiodic_mut().expect("event was just appended");
        // A mix of name shapes: keep the default "e{id}" sometimes, force
        // duplicates sometimes, otherwise a distinctive unicode name.
        match index % 3 {
            0 => {}
            1 => event.name = "shared-name".to_owned(),
            _ => event.name = format!("évènement-{index}-{seed}"),
        }
    }
    b.horizon(Instant::from_units(horizon));
    b.build().expect("intern fuzz specs are valid")
}

#[test]
fn prepared_plan_names_round_trip_to_the_spec_strings() {
    let config = ExecutionConfig::reference();
    for seed in 0..CASES {
        let spec = random_named_spec(seed);
        let plan = ExecutionPlan::prepare(&spec, &config).expect("spec is valid");

        // Re-intern the installed workload in plan order: the result must be
        // the exact table the plan built, and every id must resolve back to
        // the original string.
        let mut expected = NameTable::new();
        for event in spec.workload().within_horizon() {
            if event.server >= spec.servers.len() {
                continue;
            }
            let id = expected.intern(&event.name);
            assert_eq!(
                expected.resolve(id),
                Some(event.name.as_str()),
                "seed {seed}: interned name must resolve to the spec string"
            );
            // Idempotence: re-interning is a lookup, not a new slot.
            assert_eq!(expected.intern(&event.name), id, "seed {seed}");
        }
        assert_eq!(
            plan.names(),
            &expected,
            "seed {seed}: the plan's symbol table must equal the re-interned workload"
        );
        assert!(
            plan.names().len() <= spec.workload().within_horizon().len(),
            "seed {seed}: duplicates must share a slot"
        );
    }
}

#[test]
fn renaming_events_never_changes_canonical_traces() {
    let config = ExecutionConfig::reference();
    for seed in 0..CASES {
        let spec = random_named_spec(seed);
        let mut renamed = spec.clone();
        for (index, event) in renamed.aperiodics.iter_mut().enumerate() {
            event.name = format!("renamed/{index}/{seed}/☂");
        }

        let base_plan = ExecutionPlan::prepare(&spec, &config).expect("spec is valid");
        let renamed_plan =
            ExecutionPlan::prepare(&renamed, &config).expect("renamed spec is valid");

        let base_fast = base_plan.run().render_canonical();
        let renamed_fast = renamed_plan.run().render_canonical();
        assert_eq!(
            base_fast, renamed_fast,
            "seed {seed}: fast-path canonical trace must ignore names"
        );

        let base_reference = execute_reference(&spec, &config).render_canonical();
        let renamed_reference = execute_reference(&renamed, &config).render_canonical();
        assert_eq!(
            base_reference, renamed_reference,
            "seed {seed}: reference canonical trace must ignore names"
        );

        assert!(
            !renamed_fast.contains("renamed/"),
            "seed {seed}: canonical traces must not leak names"
        );
    }
}
