//! The benchmark's own checks: metric names, `BENCHMARK.json` against the
//! metric tables in the source, worker-count invariance of every workload's
//! output digest, and failure counting.

use perfbench::json::{self, Value};
use perfbench::runner::Report;
use perfbench::spans::{Lane, NO_SYSTEM};
use perfbench::workload::{output_digest, run_one, Engine, Workload, DEFAULT_SEED};
use perfbench::{valid_metric_name, END_TO_END, PER_LAYER};
use std::collections::BTreeSet;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<&str> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("a name"))
        .collect()
}

fn keys(value: &Value) -> Vec<&str> {
    value
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect()
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let unit_ok = |u: &str| {
        (1..=16).contains(&u.len())
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    };
    let mut seen = BTreeSet::new();
    let all = END_TO_END
        .iter()
        .copied()
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
    for (name, unit) in all {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        assert!(unit_ok(unit), "bad unit {unit:?} of {name}");
        assert!(seen.insert(name), "metric {name} listed twice");
    }
    for workload in Workload::ALL {
        assert!(valid_metric_name(workload.name()));
    }
    assert!(!valid_metric_name("-leading-dash"));
    assert!(!valid_metric_name("has space"));
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let bench = benchmark_json();
    assert_eq!(
        keys(&bench),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let workloads = bench.get("workloads").expect("workloads");
    assert_eq!(
        names(workloads),
        Workload::ALL.map(Workload::name).to_vec(),
        "one BENCHMARK.json workload per benchmark workload"
    );
    for w in workloads.as_array().unwrap() {
        assert_eq!(keys(w), ["name", "why"]);
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'));
    }

    let end_to_end = bench.get("end_to_end").expect("end_to_end");
    let mut largest_bound = 0.0f64;
    for (m, &(name, unit)) in end_to_end.as_array().unwrap().iter().zip(&END_TO_END) {
        assert_eq!(keys(m), ["better", "bound", "name", "unit"]);
        assert_eq!(m.get("name").and_then(Value::as_str), Some(name));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        largest_bound = largest_bound.max(bound);
    }
    assert_eq!(names(end_to_end), END_TO_END.map(|(n, _)| n).to_vec());
    let setup = &end_to_end.as_array().unwrap()[0];
    assert_eq!(setup.get("name").and_then(Value::as_str), Some("setup_s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    assert_eq!(
        setup.get("bound").and_then(Value::as_f64),
        Some(largest_bound)
    );

    let per_layer = bench.get("per_layer").expect("per_layer");
    assert_eq!(
        names(per_layer),
        PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    for (m, layer) in per_layer.as_array().unwrap().iter().zip(&PER_LAYER) {
        assert_eq!(keys(m), ["better", "name", "unit"]);
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(layer.unit));
        assert!(matches!(
            m.get("better").and_then(Value::as_str),
            Some("higher" | "lower")
        ));
    }
}

#[test]
fn every_per_layer_metric_names_an_end_to_end_metric_and_workload() {
    let bench = benchmark_json();
    let end_to_end = names(bench.get("end_to_end").unwrap());
    let workloads = names(bench.get("workloads").unwrap());
    for m in PER_LAYER {
        assert!(!m.moves.is_empty(), "{} moves nothing", m.name);
        for &(metric, workload) in m.moves {
            assert!(end_to_end.contains(&metric), "{}: unknown {metric}", m.name);
            assert!(
                workloads.contains(&workload),
                "{}: unknown {workload}",
                m.name
            );
        }
    }
}

#[test]
fn digests_do_not_depend_on_the_worker_count() {
    let workers = rt_experiments::available_workers().max(2);
    for workload in Workload::ALL {
        let size = workload.reduced_size();
        let one = output_digest(workload, size, DEFAULT_SEED, 1).expect("no failed run");
        let many = output_digest(workload, size, DEFAULT_SEED, workers).expect("no failed run");
        assert_eq!(one, many, "{}: 1 vs {workers} workers", workload.name());
        let other =
            output_digest(workload, size, DEFAULT_SEED + 1, workers).expect("no failed run");
        assert_ne!(
            one,
            other,
            "{}: the seed must change the inputs",
            workload.name()
        );
    }
}

#[test]
fn a_panicking_run_is_caught_and_failed() {
    let mut b = rt_model::SystemSpec::builder("broken");
    b.server(rt_model::ServerSpec::polling(
        rt_model::Span::from_units(3),
        rt_model::Span::from_units(6),
        rt_model::Priority::new(30),
    ));
    b.aperiodic(
        rt_model::Instant::from_units(0),
        rt_model::Span::from_units(2),
    );
    b.horizon_server_periods(4);
    let mut spec = b.build().expect("a valid spec");
    // Invalidate the spec after `build()` validated it: the engines panic.
    spec.servers[0].capacity = rt_model::Span::ZERO;
    let mut lane = Lane::new(None, 0);
    for engine in [Engine::Sim, Engine::Exec] {
        let outcome = run_one(&spec, engine, true, &mut lane, 0, NO_SYSTEM);
        let error = outcome.expect_err("the run must fail, not abort the benchmark");
        assert!(error.contains("panicked"), "{error}");
    }
}

#[test]
fn the_result_line_is_one_json_object_with_four_keys() {
    let report = Report {
        correct: true,
        attempted: 3,
        failed: 0,
        metrics: vec![("work_s", "s", 0.25), ("peak_rss_mb", "MB", 31.5)],
        lines: Vec::new(),
    };
    let line = report.json();
    assert!(!line.contains('\n'));
    let value = json::parse(&line).expect("the result line parses");
    assert_eq!(keys(&value), ["attempted", "correct", "failed", "metrics"]);
    let work = value.get("metrics").and_then(|m| m.get("work_s")).unwrap();
    assert_eq!(work.get("value").and_then(Value::as_f64), Some(0.25));
    assert_eq!(work.get("unit").and_then(Value::as_str), Some("s"));
}
