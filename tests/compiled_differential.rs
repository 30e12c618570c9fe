//! Compiled-path differential test: a system that goes through the
//! `rt-compile` front-end (`CompiledSystem::compile`, then the table-driven
//! simulation driver and the reusable execution plan) must produce traces
//! identical to each world's linear-scan reference oracle on the paper's
//! generated systems.
//!
//! `tests/engine_differential.rs` checks the fast engines against the
//! references when called directly on a spec; this file checks the same
//! engines reached through a compiled system, whose spec has been validated
//! once and had its arrival faults resolved.

use rtsj_event_framework::compile::CompiledSystem;
use rtsj_event_framework::model::ServerPolicyKind;
use rtsj_event_framework::observe::{MetricsProbe, NoopProbe};
use rtsj_event_framework::simulator::{simulate, simulate_reference, simulate_with_probe};
use rtsj_event_framework::sysgen::{GeneratorParams, RandomSystemGenerator};
use rtsj_event_framework::taskserver::{execute_reference, execute_with_probe, ExecutionConfig};

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
                let plan = compiled.execution_plan(&config);
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
