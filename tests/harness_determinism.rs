//! Determinism of the parallel experiment harness: streaming the systems
//! over the worker pool must be invisible in the results. Every aggregate —
//! down to the last floating-point bit — must match the sequential
//! reference for any worker count, because every system owns its
//! generation stream and the pool hands results back in generation order.

use rtsj_event_framework::experiments::{
    available_workers, generate_set, observe_table, reproduce_edf_table, reproduce_faults_table,
    reproduce_multi_server_table, reproduce_overload_table, reproduce_table,
    reproduce_table_with_workers, run_systems, EvaluationMode, PaperTable, TableConfig,
};
use rtsj_event_framework::model::ServerPolicyKind;

fn quick() -> TableConfig {
    TableConfig {
        systems_per_set: 3,
        seed: 1983,
        ..TableConfig::default()
    }
}

/// Worker counts to sweep: sequential, small, more workers than sets, more
/// workers than work items, and whatever the host actually has.
fn worker_sweep() -> Vec<usize> {
    let mut sweep = vec![1, 2, 5, 64];
    sweep.push(available_workers());
    sweep
}

#[test]
fn parallel_tables_are_bit_identical_to_sequential_for_any_worker_count() {
    for table in [
        PaperTable::Table2PsSimulation,
        PaperTable::Table3PsExecution,
        PaperTable::Table4DsSimulation,
        PaperTable::Table5DsExecution,
    ] {
        let sequential = reproduce_table(table, &quick());
        for workers in worker_sweep() {
            let parallel = reproduce_table_with_workers(table, &quick(), workers);
            assert_eq!(
                parallel, sequential,
                "{table:?} diverged with {workers} workers"
            );
        }
    }
}

#[test]
fn full_size_simulation_table_is_bit_identical_in_parallel() {
    // One table at the paper's full 10 systems per set, to make sure the
    // quick configuration is not hiding a partition-dependent fold.
    let config = TableConfig::default();
    let table = PaperTable::Table2PsSimulation;
    let sequential = reproduce_table(table, &config);
    let parallel = reproduce_table_with_workers(table, &config, available_workers().max(4));
    assert_eq!(parallel, sequential);
}

/// Asserts that `render(workers)` prints the same bytes for every worker
/// count of [`worker_sweep`] as for one worker.
fn assert_renders_identically(label: &str, render: impl Fn(usize) -> String) {
    let reference = render(1);
    for workers in worker_sweep() {
        assert_eq!(
            render(workers),
            reference,
            "{label} diverged with {workers} workers"
        );
    }
}

/// The `repro overload --workers N` determinism smoke: the overload sweep
/// (admission decisions included — they are pure functions of the arrival
/// history, never of worker scheduling) renders bit-identically for any
/// worker count.
#[test]
fn overload_table_is_bit_identical_for_any_worker_count() {
    assert_renders_identically("overload table", |workers| {
        reproduce_overload_table(&quick(), workers).to_string()
    });
}

/// Every other streamed reproduction renders bit-identically for any worker
/// count: the EDF column family (both policies and both verdicts per
/// system), the multi-server tables in both modes, the fault-containment
/// sweep and the probe-instrumented observation of every paper table.
#[test]
fn streamed_reproductions_render_bit_identically_for_any_worker_count() {
    use ServerPolicyKind::{Deferrable, Polling, Sporadic};
    assert_renders_identically("EDF table", |workers| {
        reproduce_edf_table(&quick(), workers).to_string()
    });
    for policies in [
        &[Polling, Sporadic][..],
        &[Deferrable, Sporadic, Polling][..],
    ] {
        for mode in [EvaluationMode::Simulation, EvaluationMode::Execution] {
            assert_renders_identically(&format!("multi-server {policies:?} {mode:?}"), |workers| {
                reproduce_multi_server_table(policies, mode, &quick(), workers).to_string()
            });
        }
    }
    assert_renders_identically("faults table", |workers| {
        reproduce_faults_table(&quick(), workers).to_string()
    });
    for table in PaperTable::all() {
        assert_renders_identically(&format!("observed {table:?}"), |workers| {
            observe_table(table, &quick(), workers).to_string()
        });
    }
}

#[test]
fn run_systems_preserves_input_order_for_any_worker_count() {
    let systems = generate_set((2, 2), ServerPolicyKind::Deferrable, &quick());
    let sequential = run_systems(&systems, EvaluationMode::Simulation, 1);
    assert_eq!(sequential.len(), systems.len());
    for workers in worker_sweep() {
        let parallel = run_systems(&systems, EvaluationMode::Simulation, workers);
        assert_eq!(parallel, sequential, "diverged with {workers} workers");
    }
}
