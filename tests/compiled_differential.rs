//! Compiled-path differential test: a system that goes through the
//! `rt-compile` front-end (`CompiledSystem::compile`, then the table-driven
//! simulation driver and a reusable execution plan of the compiled spec)
//! must produce traces identical to each world's linear-scan reference
//! oracle on the paper's generated systems.
//!
//! `tests/engine_differential.rs` checks the fast engines against the
//! references when called directly on a spec; this file checks the same
//! engines reached through a compiled system, whose spec has been validated
//! once and had its arrival faults resolved.

use rtsj_event_framework::compile::CompiledSystem;
use rtsj_event_framework::model::{
    Instant, Priority, ServerPolicyKind, ServerSpec, Span, SystemSpec,
};
use rtsj_event_framework::observe::{MetricsProbe, NoopProbe};
use rtsj_event_framework::simulator::{simulate, simulate_reference, simulate_with_probe};
use rtsj_event_framework::sysgen::{GeneratorParams, RandomSystemGenerator};
use rtsj_event_framework::taskserver::{
    execute_reference, execute_with_probe, ExecutionConfig, ExecutionPlan,
};

mod common;
use common::invariants::assert_trace_invariants;

#[test]
fn compiled_simulation_matches_on_generated_systems() {
    for policy in [ServerPolicyKind::Polling, ServerPolicyKind::Deferrable] {
        for (density, deviation) in [(1u32, 0u32), (2, 1), (3, 2)] {
            let generator =
                RandomSystemGenerator::new(GeneratorParams::paper_set(density, deviation), policy)
                    .expect("paper parameters are valid");
            for index in 0..4 {
                let spec = generator.generate_one(index);
                let compiled = CompiledSystem::compile(&spec).expect("generated specs are valid");

                let reference = simulate_reference(&spec);
                let simulated = simulate(compiled.spec());
                assert_eq!(
                    simulated.render_canonical(),
                    reference.render_canonical(),
                    "compiled simulation and the linear-scan reference diverged on {}",
                    spec.name
                );
                assert_eq!(
                    simulated, reference,
                    "trace equality mismatch on {}",
                    spec.name
                );
                assert_eq!(
                    simulated,
                    simulate_with_probe(compiled.spec(), NoopProbe),
                    "probe-threaded compiled simulation diverged on {}",
                    spec.name
                );
                assert_trace_invariants(&spec, &simulated);

                let config = ExecutionConfig::reference();
                let reference = execute_reference(&spec, &config);
                let plan = ExecutionPlan::prepare(compiled.spec(), &config)
                    .expect("compiled specs are valid");
                let executed = plan.run();
                assert_eq!(
                    executed.render_canonical(),
                    reference.render_canonical(),
                    "compiled execution and the linear-scan reference diverged on {}",
                    spec.name
                );
                assert_eq!(
                    executed, reference,
                    "trace equality mismatch on {}",
                    spec.name
                );
                assert_eq!(
                    executed,
                    execute_with_probe(compiled.spec(), &config, &mut MetricsProbe::new()),
                    "observed compiled execution diverged on {}",
                    spec.name
                );
                assert_trace_invariants(&spec, &executed);
            }
        }
    }
}

/// An invalid spec is an error, never a panic: `ExecutionPlan::prepare`
/// returns what `SystemSpec::validate` returns, and `CompiledSystem::compile`
/// what `SystemSpec::validate_structure` returns.
#[test]
fn invalid_specs_are_the_errors_validation_reports() {
    let mut b = SystemSpec::builder("invalid");
    b.server(ServerSpec::polling(
        Span::from_units(3),
        Span::from_units(6),
        Priority::new(30),
    ));
    b.periodic(
        "tau1",
        Span::from_units(2),
        Span::from_units(6),
        Priority::new(20),
    );
    b.aperiodic(Instant::from_units(0), Span::from_units(2));
    b.aperiodic(Instant::from_units(6), Span::from_units(2));
    b.horizon_server_periods(4);
    let valid = b.build().expect("the base spec is valid");
    let config = ExecutionConfig::reference();

    let mut unsorted = valid.clone();
    unsorted.aperiodics.swap(0, 1);
    let mut malformed = valid;
    malformed.periodic_tasks[0].period = Span::ZERO;
    for spec in [&unsorted, &malformed] {
        let expected = spec.validate().expect_err("the spec is invalid");
        assert_eq!(ExecutionPlan::prepare(spec, &config).err(), Some(expected));
    }
    let expected = malformed
        .validate_structure()
        .expect_err("the structure is invalid");
    assert_eq!(CompiledSystem::compile(&malformed).err(), Some(expected));
}
