//! # perfbench — the pipeline benchmark
//!
//! Runs the paper's batch pipeline (generate → validate → run → measure →
//! aggregate, spread over the worker pool) on three seeded workloads and
//! reports host-time metrics end to end (untraced run) or per layer (traced
//! run). See `perfbench/README.md` for the workloads, the metrics and which
//! layer metric should move which end-to-end metric.

#![forbid(unsafe_code)]

pub mod json;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workload;

/// The end-to-end metrics of an untraced run, as `(name, unit)`; exactly
/// the `end_to_end` list of `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("work_s", "s"),
    ("systems_per_s", "1/s"),
    ("ns_per_segment", "ns"),
    ("run_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// A per-layer metric of the traced run: its layer, and the end-to-end
/// metrics it should move, each on a named workload.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub layer: &'static str,
    pub moves: &'static [(&'static str, &'static str)],
}

const GENERATION: &[(&str, &str)] = &[
    ("work_s", "tables-wide"),
    ("systems_per_s", "tables-wide"),
    ("setup_s", "overload-soak"),
    ("setup_s", "mixed-policy"),
];
const TABLES_WORK: &[(&str, &str)] = &[("work_s", "tables-wide")];
const SIMULATION: &[(&str, &str)] = &[
    ("ns_per_segment", "overload-soak"),
    ("work_s", "overload-soak"),
    ("work_s", "tables-wide"),
    ("work_s", "mixed-policy"),
];
const EXECUTION: &[(&str, &str)] = &[
    ("ns_per_segment", "overload-soak"),
    ("work_s", "overload-soak"),
    ("run_p50_us", "overload-soak"),
    ("work_s", "tables-wide"),
    ("work_s", "mixed-policy"),
];
const SOAK_SEGMENT: &[(&str, &str)] = &[("ns_per_segment", "overload-soak")];
// The pool's hand-off and idle tails are outside `work_s`, which sums each
// item's own time; they show in the printed pass walls. A pool change
// reaches `work_s` only through per-item costs such as cache sharing.
const POOL: &[(&str, &str)] = &[("work_s", "tables-wide")];
const OBSERVE: &[(&str, &str)] = &[
    ("ns_per_segment", "overload-soak"),
    ("work_s", "mixed-policy"),
];
const EVERY_WORK: &[(&str, &str)] = &[
    ("work_s", "tables-wide"),
    ("work_s", "overload-soak"),
    ("work_s", "mixed-policy"),
];

const fn metric(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        layer,
        moves,
    }
}

/// The per-layer metrics of a traced run; exactly the `per_layer` list of
/// `BENCHMARK.json`, in the same order.
pub const PER_LAYER: [LayerMetric; 33] = [
    metric("sysgen.generate_s", "s", "rt-sysgen", GENERATION),
    metric("sysgen.events", "count", "rt-sysgen", GENERATION),
    metric("sysgen.ns_per_event", "ns", "rt-sysgen", GENERATION),
    metric("model.validate_s", "s", "rt-model", TABLES_WORK),
    metric("compile.compile_s", "s", "rt-compile", TABLES_WORK),
    metric("rtss.simulate_s", "s", "rtss-sim", SIMULATION),
    metric("rtss.segments", "count", "rtss-sim", SIMULATION),
    metric("rtss.ns_per_segment", "ns", "rtss-sim", SIMULATION),
    metric(
        "rtss.ns_per_segment.accept-all",
        "ns",
        "rtss-sim",
        SIMULATION,
    ),
    metric(
        "rtss.ns_per_segment.predictive",
        "ns",
        "rtss-sim",
        SIMULATION,
    ),
    metric("rtss.ns_per_segment.dover", "ns", "rtss-sim", SIMULATION),
    metric("taskserver.execute_s", "s", "rt-taskserver", EXECUTION),
    metric("taskserver.segments", "count", "rt-taskserver", EXECUTION),
    metric(
        "taskserver.ns_per_segment",
        "ns",
        "rt-taskserver",
        EXECUTION,
    ),
    metric(
        "taskserver.ns_per_segment.accept-all",
        "ns",
        "rt-taskserver",
        EXECUTION,
    ),
    metric(
        "taskserver.ns_per_segment.predictive",
        "ns",
        "rt-taskserver",
        EXECUTION,
    ),
    metric(
        "taskserver.ns_per_segment.dover",
        "ns",
        "rt-taskserver",
        EXECUTION,
    ),
    metric(
        "taskserver.horizon_growth",
        "ratio",
        "rt-taskserver",
        SOAK_SEGMENT,
    ),
    metric("admission.accepted", "count", "rt-admission", SOAK_SEGMENT),
    metric("admission.rejected", "count", "rt-admission", SOAK_SEGMENT),
    metric("admission.aborted", "count", "rt-admission", SOAK_SEGMENT),
    metric(
        "admission.accept_ratio",
        "ratio",
        "rt-admission",
        SOAK_SEGMENT,
    ),
    metric("metrics.measure_s", "s", "rt-metrics", TABLES_WORK),
    metric("metrics.aggregate_s", "s", "rt-metrics", TABLES_WORK),
    metric("pool.items", "count", "rt-experiments", POOL),
    metric("pool.busy_s", "s", "rt-experiments", POOL),
    metric("pool.idle_s", "s", "rt-experiments", POOL),
    metric("pool.efficiency", "ratio", "rt-experiments", POOL),
    metric("observe.decisions", "count", "rt-observe", OBSERVE),
    metric("observe.dispatches", "count", "rt-observe", OBSERVE),
    metric("observe.preemptions", "count", "rt-observe", OBSERVE),
    metric("observe.queue_depth_p99", "count", "rt-observe", OBSERVE),
    metric("trace.overhead_ratio", "ratio", "perfbench", EVERY_WORK),
];

/// True when `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
