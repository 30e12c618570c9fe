//! # rt-experiments — the reproduction harness
//!
//! Everything needed to regenerate the paper's evaluation:
//!
//! * [`scenarios`] — the Table 1 example and the three scenarios of
//!   Figures 2–4, executed and simulated, with temporal diagrams;
//! * [`tables`] — Tables 2–5 (Polling/Deferrable × simulation/execution over
//!   the six generated sets), with side-by-side rendering against the
//!   published values;
//! * [`online`] — the §7 on-line response-time computation, validated
//!   against measured executions;
//! * [`overload`] — the admission/overload sweep: load 0.5×→4× across the
//!   admission policies, on both engines;
//! * [`observe`] — the probe-instrumented reproduction: per-set metrics
//!   summaries (counters + virtual-time quantiles, worker-count-invariant)
//!   and Chrome-trace export of the Figure scenarios;
//! * [`pool`] — the std-thread worker pool every reproduction streams its
//!   systems through in one pass, with deterministic (bit-identical for
//!   any worker count) reduction.
//!
//! The `repro` binary exposes each experiment as a subcommand; the Criterion
//! benches in `rt-bench` wrap the same entry points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod observe;
pub mod online;
pub mod overload;
pub mod pool;
pub mod scenarios;
pub mod tables;

pub use faults::{
    generate_fault_set, reproduce_faults_table, FaultRow, FaultScenario, FaultTable,
    FAULT_SCENARIOS,
};
pub use observe::{
    chrome_trace_for_scenario, observe_table, run_system_observed, ObserveReport, ObservedSet,
};
pub use online::{default_online_rta, online_rta_experiment, OnlinePrediction, OnlineRtaReport};
pub use overload::{
    generate_overload_set, reproduce_overload_table, OverloadRow, OverloadTable, OVERLOAD_LOADS,
    OVERLOAD_POLICIES,
};
pub use pool::{available_workers, parallel_map, parallel_shards};
pub use scenarios::{run_scenario, scenario_system, table1_system, Scenario, ScenarioReport};
pub use tables::{
    generate_multi_server_set, generate_set, reproduce_edf_table, reproduce_multi_server_table,
    reproduce_table, reproduce_table_with_workers, run_system, run_systems, side_by_side,
    EdfComparisonTable, EdfRow, EvaluationMode, PaperTable, TableConfig,
};
