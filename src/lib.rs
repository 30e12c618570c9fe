//! # rtsj-event-framework
//!
//! A Rust reproduction of *"The Design and Implementation of Real-time
//! Event-based Applications with RTSJ"* (Damien Masson & Serge Midonnet,
//! WPDRTS / IPDPS 2007): an RTSJ-style task-server framework for servicing
//! aperiodic events (Polling Server, Deferrable Server, background
//! servicing), the discrete-event simulator used as its reference, the random
//! system generator, the feasibility/response-time analysis, and the full
//! evaluation harness that regenerates every table and figure of the paper.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names and hosts the runnable examples and the cross-crate
//! integration tests.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`model`] | `rt-model` | time, priorities, task/event descriptors, system specs, traces |
//! | [`analysis`] | `rt-analysis` | utilisation bounds, RTA, server analysis, on-line equations (1)–(5), EDF tests |
//! | [`admission`] | `rt-admission` | on-line admission control & overload management shared by both engines |
//! | [`simulator`] | `rtss-sim` | the RTSS discrete-event simulator (FP/EDF/D-OVER, textbook PS/DS/BG servers, Gantt) |
//! | [`sysgen`] | `rt-sysgen` | the random real-time system generator |
//! | [`rtsj`] | `rtsj-emu` | the RTSJ substrate emulation and virtual-time execution engine |
//! | [`taskserver`] | `rt-taskserver` | **the paper's contribution**: the task-server framework |
//! | [`compile`] | `rt-compile` | validate-once front-end: compile a spec once, execute it through the fast path repeatedly |
//! | [`metrics`] | `rt-metrics` | AART / AIR / ASR, paper tables, shape checks |
//! | [`observe`] | `rt-observe` | zero-cost probe layer: virtual-time histograms, Chrome-trace export |
//! | [`experiments`] | `rt-experiments` | the reproduction harness (figures 2–4, tables 2–5, §7) |
//!
//! ## Quick start
//!
//! ```
//! use rtsj_event_framework::prelude::*;
//!
//! // The paper's Table 1 system: a polling server (capacity 3, period 6) at
//! // the highest priority above two periodic tasks, with one event fired at
//! // t = 0 and one at t = 6.
//! let mut b = SystemSpec::builder("quickstart");
//! b.server(ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30)));
//! b.periodic("tau1", Span::from_units(2), Span::from_units(6), Priority::new(20));
//! b.periodic("tau2", Span::from_units(1), Span::from_units(6), Priority::new(10));
//! b.aperiodic(Instant::from_units(0), Span::from_units(2));
//! b.aperiodic(Instant::from_units(6), Span::from_units(2));
//! b.horizon_server_periods(10);
//! let spec = b.build().unwrap();
//!
//! // Execute it on the task-server framework…
//! let execution = execute(&spec, &ExecutionConfig::ideal());
//! // …and simulate it with the literature-exact policy.
//! let simulation = simulate(&spec);
//!
//! assert_eq!(execution.outcomes[0].response_time(), Some(Span::from_units(2)));
//! assert_eq!(simulation.outcomes[0].response_time(), Some(Span::from_units(2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rt_admission as admission;
pub use rt_analysis as analysis;
pub use rt_compile as compile;
pub use rt_experiments as experiments;
pub use rt_metrics as metrics;
pub use rt_model as model;
pub use rt_observe as observe;
pub use rt_sysgen as sysgen;
pub use rt_taskserver as taskserver;
pub use rtsj_emu as rtsj;
pub use rtss_sim as simulator;

/// The most common imports, for examples and downstream users.
pub mod prelude {
    pub use rt_admission::ServerAdmission;
    pub use rt_compile::CompiledSystem;
    pub use rt_metrics::{ResultTable, RunMeasures, SetAggregate};
    pub use rt_model::{
        AdmissionPolicy, AperiodicEvent, AperiodicFate, AperiodicOutcome, ExecUnit, Instant,
        PeriodicTask, Priority, ServerPolicyKind, ServerSpec, Span, SystemSpec, Trace,
    };
    pub use rt_sysgen::{GeneratorParams, RandomSystemGenerator};
    pub use rt_taskserver::{
        execute, execute_reference, AdmissionController, ExecutionConfig, TaskServerParameters,
    };
    pub use rtsj_emu::OverheadModel;
    pub use rtss_sim::{render_ascii, render_svg, simulate, simulate_reference, GanttOptions};
}
