//! The two kinds of run: an untraced run measuring the end-to-end metrics,
//! and a traced run measuring the per-layer metrics.

use crate::spans::{chrome_trace_json, totals_by_name, Lane, SpanRec, Tracer, NO_SYSTEM};
use crate::stats::{
    median, peak_rss_mb, percentile, BestTimes, Calibration, Digest, CALIBRATION_REFERENCE_NS,
};
use crate::workload::{
    digest_aggregates, generate_inputs, horizon_growth, jobs_pass, layer_sweep, policy_label,
    probe_sweep, reference_tables, simulation_air_is_zero, table_aggregates, tables_output_digest,
    tables_pass, Engine, Inputs, Job, PassOutput, RunOutcome, Size, Workload, DEFAULT_SEED,
    SOAK_POLICIES,
};
use crate::{END_TO_END, PER_LAYER};
use rt_metrics::{ResultTable, SET_ORDER};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 25;
/// Fewest timed passes of an untraced run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Fewest rounds of alternating untraced and traced passes.
const MIN_TRACED_PASSES: usize = 2;
/// Systems per paper set in the `tables-wide` warm-up.
const WARMUP_TABLE_SYSTEMS: usize = 200;
/// Systems whose spans the trace file keeps.
const TRACE_FILE_SYSTEMS: i64 = 40;
/// A pass needs this many runs before its p99 has ten samples beyond it.
const P99_MIN_RUNS: usize = 1000;

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workers: usize,
    pub size: Size,
}

#[derive(Debug, Clone)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

pub fn run(config: &Config) -> Report {
    if config.trace {
        traced_run(config)
    } else {
        untraced_run(config)
    }
}

/// Runs counted and runs failed, with the first few failure messages.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, runs: u64, why: impl Into<String>) {
        self.failed += runs;
        if self.errors.len() < 5 {
            self.errors.push(why.into());
        }
    }

    fn runs(&mut self, runs: &[RunOutcome]) {
        self.attempted += runs.len() as u64;
        for error in runs.iter().filter_map(|r| r.as_ref().err()) {
            self.fail(1, error.clone());
        }
    }

    /// Counts every run whose output differs from the reference run.
    fn compare(&mut self, reference: &[RunOutcome], runs: &[RunOutcome], what: &str) {
        if reference.len() != runs.len() {
            self.fail(runs.len() as u64, format!("{what}: run count differs"));
            return;
        }
        for (i, (a, b)) in reference.iter().zip(runs).enumerate() {
            if let (Ok(a), Ok(b)) = (a, b) {
                if !a.same_output(b) {
                    self.fail(1, format!("{what}: run {i} differs from the reference"));
                }
            }
        }
    }

    fn finish(
        self,
        metrics: Vec<(&'static str, &'static str, f64)>,
        mut lines: Vec<String>,
    ) -> Report {
        let mut failed = self.failed;
        let mut errors = self.errors;
        for (name, _, value) in &metrics {
            if !value.is_finite() {
                failed += 1;
                errors.push(format!("metric {name} is not finite"));
            }
        }
        let attempted = self.attempted.max(1);
        lines.push(format!(
            "failed_ratio = {:.6} ({failed} of {attempted} runs)",
            failed as f64 / attempted as f64
        ));
        lines.extend(errors.iter().map(|e| format!("FAILED: {e}")));
        Report {
            correct: failed == 0,
            attempted,
            failed,
            metrics: metrics
                .into_iter()
                .map(|(n, u, v)| (n, u, if v.is_finite() { v } else { 0.0 }))
                .collect(),
            lines,
        }
    }
}

/// What set-up leaves for the timed passes.
enum Prepared {
    /// `tables-wide` generates inside each pass.
    Tables,
    /// Specs generated in set-up.
    Jobs(Inputs),
}

/// Generation (where the workload puts it in set-up) and a warm-up: the
/// four tables at a small size, or the first `workers` runs of each engine.
fn set_up(config: &Config, lane: &mut Lane<'_>, parent: u64) -> Prepared {
    let workers = config.workers;
    match config.workload {
        Workload::TablesWide => {
            let warm = Size {
                systems: WARMUP_TABLE_SYSTEMS,
                ..config.size
            };
            lane.span("warmup", parent, NO_SYSTEM, |_, _| {
                reference_tables(warm, config.seed, workers)
            });
            Prepared::Tables
        }
        _ => {
            // One generating thread: the specs then land in one allocator
            // arena in the same order on every repetition, which keeps
            // `peak_rss_mb` steady.
            let inputs =
                generate_inputs(config.workload, config.size, config.seed, 1, lane, parent);
            let warm: Vec<Job> = [Engine::Exec, Engine::Sim]
                .into_iter()
                .flat_map(|engine| {
                    inputs
                        .jobs
                        .iter()
                        .filter(move |j| j.engine == engine)
                        .take(workers)
                        .copied()
                })
                .collect();
            lane.span("warmup", parent, NO_SYSTEM, |lane, w| {
                jobs_pass(&inputs.specs, &warm, workers, false, lane, w)
            });
            Prepared::Jobs(inputs)
        }
    }
}

/// Runs `pass` until `seconds` have elapsed and at least `min` passes ran,
/// handing each result and its wall time in seconds to `each`. The
/// calibration kernel runs after every pass, outside its wall.
fn timed_passes<T>(
    seconds: f64,
    min: usize,
    calibration: &mut Calibration,
    mut pass: impl FnMut() -> T,
    mut each: impl FnMut(f64, T),
) {
    let window = Instant::now();
    let mut passes = 0;
    while passes < min || window.elapsed().as_secs_f64() < seconds {
        let start = Instant::now();
        let out = pass();
        each(start.elapsed().as_secs_f64(), out);
        calibration.sample();
        passes += 1;
    }
}

/// Runs per `tables-wide` table.
fn runs_per_table(size: Size) -> u64 {
    (size.systems * SET_ORDER.len()) as u64
}

fn aggregates_digest(aggregates: &[rt_metrics::SetAggregate]) -> u64 {
    let mut digest = Digest::default();
    digest_aggregates(&mut digest, aggregates);
    digest.value()
}

/// Checks one pass of the four reproduced tables: every table completed,
/// the simulation tables report AIR = 0, and the aggregates equal those of
/// the first pass, whose digest `reference` keeps.
fn check_tables(
    tally: &mut Tally,
    tables: &[Result<ResultTable, String>],
    size: Size,
    reference: &mut Option<u64>,
) {
    let per_table = runs_per_table(size);
    tally.attempted += per_table * tables.len() as u64;
    for error in tables.iter().filter_map(|t| t.as_ref().err()) {
        tally.fail(per_table, error.clone());
    }
    if !simulation_air_is_zero(tables) {
        tally.fail(per_table, "a simulation table reports AIR > 0");
    }
    let digest = aggregates_digest(&table_aggregates(tables));
    if *reference.get_or_insert(digest) != digest {
        tally.fail(
            per_table * tables.len() as u64,
            "table aggregates differ from the first pass",
        );
    }
}

/// Checks one pass over pre-generated inputs against the first pass, which
/// `first` keeps.
fn check_jobs(tally: &mut Tally, out: PassOutput, first: &mut Option<PassOutput>) {
    tally.runs(&out.runs);
    match first {
        None => *first = Some(out),
        Some(f) => compare_pass(tally, f, &out, "pass"),
    }
}

/// Alternates two kinds of pass, `false` then `true`, until `seconds` have
/// elapsed and at least `min` of each ran, handing each result and its wall
/// time to `each`. Alternating spreads both kinds over the whole window, so
/// drift in the machine's speed affects them alike. The calibration kernel
/// runs after every pass, outside its wall.
fn alternate<T>(
    seconds: f64,
    min: usize,
    calibration: &mut Calibration,
    mut pass: impl FnMut(bool) -> T,
    mut each: impl FnMut(f64, T),
) {
    let window = Instant::now();
    let mut rounds = 0;
    while rounds < min || window.elapsed().as_secs_f64() < seconds {
        for second in [false, true] {
            let start = Instant::now();
            let out = pass(second);
            each(start.elapsed().as_secs_f64(), out);
            calibration.sample();
        }
        rounds += 1;
    }
}

/// One `tables-wide` pass: the four tables through
/// `reproduce_table_with_workers`, or the same pipeline decomposed into its
/// layer calls, with the spans it recorded.
enum TablePass {
    Reference(Vec<Result<ResultTable, String>>),
    Decomposed(PassOutput, Vec<SpanRec>),
}

/// What the alternating `tables-wide` passes measured.
#[derive(Default)]
struct TableRounds {
    /// Walls of the `reproduce_table_with_workers` passes.
    reference_walls: Vec<f64>,
    /// Walls of the decomposed passes.
    decomposed_walls: Vec<f64>,
    /// The first decomposed pass; every later one must equal it.
    first: PassOutput,
    /// Each run's fastest host time over the decomposed passes.
    run_best: BestTimes,
    /// Each paper set's fastest generation time over the decomposed passes.
    generate_best: BestTimes,
    /// Digest of the reproduced tables' aggregates.
    tables_digest: u64,
    /// Spans of the last decomposed pass.
    spans: Vec<SpanRec>,
}

/// Alternates `reproduce_table_with_workers` passes, whose walls are
/// printed, with the decomposed pipeline, which gives what the tables do not
/// expose: per-set generation and per-run times, trace sizes, trace checks
/// (`check`) and, with a tracer, spans. Both must agree on every aggregate.
fn table_rounds(
    config: &Config,
    min: usize,
    tracer: Option<&Tracer>,
    check: bool,
    tally: &mut Tally,
    calibration: &mut Calibration,
) -> TableRounds {
    let mut rounds = TableRounds::default();
    let mut reference = None;
    let mut first = None;
    alternate(
        config.seconds,
        min,
        calibration,
        |decomposed| {
            if decomposed {
                let mut lane = Lane::new(tracer, 0);
                let out = tables_pass(config.size, config.seed, config.workers, check, &mut lane);
                TablePass::Decomposed(out, lane.spans)
            } else {
                TablePass::Reference(reference_tables(config.size, config.seed, config.workers))
            }
        },
        |wall, pass| match pass {
            TablePass::Reference(tables) => {
                rounds.reference_walls.push(wall);
                check_tables(tally, &tables, config.size, &mut reference);
            }
            TablePass::Decomposed(out, spans) => {
                rounds.decomposed_walls.push(wall);
                if Some(aggregates_digest(&out.aggregates)) != reference {
                    tally.fail(
                        out.runs.len() as u64,
                        "the decomposed pipeline disagrees with reproduce_table_with_workers",
                    );
                }
                rounds.run_best.record(out.run_ns());
                rounds.generate_best.record(out.generate_ns.iter().copied());
                rounds.spans = spans;
                check_jobs(tally, out, &mut first);
            }
        },
    );
    rounds.first = first.unwrap_or_default();
    rounds.tables_digest = reference.unwrap_or_default();
    rounds
}

/// The timed passes over pre-generated inputs: returns the pass walls, the
/// first pass and each run's fastest host time.
fn job_passes(
    config: &Config,
    inputs: &Inputs,
    tally: &mut Tally,
    calibration: &mut Calibration,
) -> (Vec<f64>, PassOutput, BestTimes) {
    let mut walls = Vec::new();
    let mut first = None;
    let mut run_best = BestTimes::default();
    timed_passes(
        config.seconds,
        MIN_PASSES,
        calibration,
        || {
            jobs_pass(
                &inputs.specs,
                &inputs.jobs,
                config.workers,
                false,
                &mut Lane::new(None, 0),
                0,
            )
        },
        |wall, out| {
            walls.push(wall);
            run_best.record(out.run_ns());
            check_jobs(tally, out, &mut first);
        },
    );
    (walls, first.unwrap_or_default(), run_best)
}

fn compare_pass(tally: &mut Tally, reference: &PassOutput, out: &PassOutput, what: &str) {
    tally.compare(&reference.runs, &out.runs, what);
    if aggregates_digest(&reference.aggregates) != aggregates_digest(&out.aggregates) {
        tally.fail(
            1,
            format!("{what}: set aggregates differ from the reference"),
        );
    }
}

fn check_recorded_digest(config: &Config, digest: u64, runs: u64, tally: &mut Tally) {
    let recorded = config.workload.recorded_digest();
    if config.seed == DEFAULT_SEED
        && config.size == config.workload.full_size()
        && digest != recorded
    {
        tally.fail(
            runs,
            format!("output digest {digest:016x} differs from the recorded {recorded:016x}"),
        );
    }
}

fn untraced_run(config: &Config) -> Report {
    let mut tally = Tally::default();
    let mut calibration = Calibration::default();
    let mut setup = Vec::new();
    let mut prepared = Prepared::Tables;
    for _ in 0..SETUP_REPS {
        // Free the previous repetition's specs before generating again.
        drop(std::mem::replace(&mut prepared, Prepared::Tables));
        let start = Instant::now();
        prepared = set_up(config, &mut Lane::new(None, 0), 0);
        setup.push(start.elapsed().as_secs_f64());
        calibration.sample();
    }
    let (walls, runs_per_pass, segments, run_best, generate_best, digest) = match &prepared {
        Prepared::Tables => {
            let rounds = table_rounds(config, MIN_PASSES, None, true, &mut tally, &mut calibration);
            let digest = tables_output_digest(rounds.tables_digest, &rounds.first);
            (
                rounds.reference_walls,
                rounds.first.runs.len(),
                rounds.first.segments(),
                rounds.run_best,
                rounds.generate_best,
                digest,
            )
        }
        Prepared::Jobs(inputs) => {
            let (walls, first, run_best) = job_passes(config, inputs, &mut tally, &mut calibration);
            let check = jobs_pass(
                &inputs.specs,
                &inputs.jobs,
                config.workers,
                true,
                &mut Lane::new(None, 0),
                0,
            );
            tally.runs(&check.runs);
            compare_pass(&mut tally, &first, &check, "checked pass");
            (
                walls,
                inputs.jobs.len(),
                first.segments(),
                run_best,
                BestTimes::default(),
                first.digest().value(),
            )
        }
    };
    check_recorded_digest(config, digest, runs_per_pass as u64, &mut tally);

    // Every host time is scaled to the reference host's speed.
    let scale = calibration.scale();
    let work = (run_best.total_ns() + generate_best.total_ns()) as f64 / 1e9 * scale;
    let peak_rss = peak_rss_mb().unwrap_or_else(|e| {
        tally.fail(1, e);
        0.0
    });
    let values = [
        median(&setup) * scale,
        work,
        runs_per_pass as f64 / work,
        work * 1e9 / segments.max(1) as f64,
        percentile(run_best.ns(), 50.0) as f64 / 1e3 * scale,
        peak_rss,
    ];
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect();

    let mut lines = vec![
        format!(
            "perfbench {} seed={} workers={} passes={} runs/pass={} segments/pass={} digest={digest:016x}",
            config.workload.name(),
            config.seed,
            config.workers,
            walls.len(),
            runs_per_pass,
            segments
        ),
        format!(
            "pass walls (s): min {:.4} median {:.4} max {:.4}",
            walls.iter().copied().fold(f64::INFINITY, f64::min),
            median(&walls),
            walls.iter().copied().fold(0.0, f64::max),
        ),
        format!(
            "work (s, unscaled): runs {:.4} + generation {:.4}, each item at its fastest over {} passes",
            run_best.total_ns() as f64 / 1e9,
            generate_best.total_ns() as f64 / 1e9,
            walls.len()
        ),
        format!(
            "calibration: fastest {:.4} ms of {} samples (reference {:.4} ms); host times below are scaled by {scale:.4}",
            calibration.best_ns() as f64 / 1e6,
            calibration.samples(),
            CALIBRATION_REFERENCE_NS / 1e6
        ),
        format!(
            "setup reps (s, unscaled): {}",
            setup.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(" ")
        ),
    ];
    for (name, unit, value) in &metrics {
        lines.push(format!("{name} = {value:.6} {unit}"));
    }
    if runs_per_pass >= P99_MIN_RUNS {
        lines.push(format!(
            "run_p99_us = {:.6} us ({} runs, each at its fastest)",
            percentile(run_best.ns(), 99.0) as f64 / 1e3 * scale,
            run_best.ns().len()
        ));
    } else {
        lines.push(format!(
            "run_p99_us = n/a (a pass has {runs_per_pass} < {P99_MIN_RUNS} runs)"
        ));
    }
    tally.finish(metrics, lines)
}

/// Host time and trace segments of one engine's runs, overall and per
/// admission policy (`SOAK_POLICIES` order).
#[derive(Debug, Default, Clone, Copy)]
struct EngineTotals {
    ns: u64,
    segments: u64,
    per_policy: [(u64, u64); 3],
}

impl EngineTotals {
    fn of(engine: Engine, spans: &[SpanRec], out: &PassOutput) -> EngineTotals {
        let mut totals = EngineTotals::default();
        for span in spans.iter().filter(|s| s.name == engine.span_name()) {
            let Ok(system) = usize::try_from(span.system) else {
                continue;
            };
            let Some(Ok(run)) = out.runs.get(system) else {
                continue;
            };
            totals.ns += span.dur_ns();
            totals.segments += run.segments;
            if let Some(p) = SOAK_POLICIES
                .iter()
                .position(|&p| p == out.policies[system])
            {
                totals.per_policy[p].0 += span.dur_ns();
                totals.per_policy[p].1 += run.segments;
            }
        }
        totals
    }
}

fn ns_per(ns: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        ns as f64 / count as f64
    }
}

/// Where the traced run writes its span file.
fn trace_path(config: &Config) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(root).join("perfbench-traces").join(format!(
        "{}-seed{}.json",
        config.workload.name(),
        config.seed
    ))
}

/// The spans written to the trace file: every span not tied to one system,
/// and the per-system spans of about `TRACE_FILE_SYSTEMS` systems spread
/// evenly over the ids. The file stays small enough for
/// `rt_bench::validate_chrome_trace`; the metrics use every span.
fn sample_spans(spans: &[SpanRec]) -> Vec<SpanRec> {
    let max_system = spans.iter().map(|s| s.system).max().unwrap_or(0).max(0);
    let stride = max_system / TRACE_FILE_SYSTEMS + 1;
    spans
        .iter()
        .filter(|s| s.system == NO_SYSTEM || s.system % stride == 0)
        .copied()
        .collect()
}

fn write_trace(path: &PathBuf, spans: &[SpanRec]) -> Result<usize, String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, chrome_trace_json(spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    rt_bench::validate_chrome_trace(&text)
        .map(|summary| summary.spans)
        .map_err(|e| format!("{} is not a valid Chrome trace: {e}", path.display()))
}

fn traced_run(config: &Config) -> Report {
    let workers = config.workers;
    let mut tally = Tally::default();
    let tracer = Tracer::default();
    let mut lane = Lane::new(Some(&tracer), 0);
    let prepared = lane.span("setup", 0, NO_SYSTEM, |lane, s| set_up(config, lane, s));
    let setup_spans = std::mem::take(&mut lane.spans);

    // Untraced and traced passes alternate; the traced outputs must equal
    // the untraced ones. The last traced pass's spans give the per-layer
    // numbers.
    let mut pass_spans = Vec::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let (out, inputs) = match prepared {
        Prepared::Tables => {
            let rounds = table_rounds(
                config,
                MIN_TRACED_PASSES,
                Some(&tracer),
                false,
                &mut tally,
                &mut Calibration::default(),
            );
            untraced = rounds.reference_walls;
            traced = rounds.decomposed_walls;
            pass_spans = rounds.spans;
            let inputs = generate_inputs(
                config.workload,
                config.size,
                config.seed,
                workers,
                &mut Lane::new(None, 0),
                0,
            );
            (rounds.first, inputs)
        }
        Prepared::Jobs(inputs) => {
            let mut first: Option<PassOutput> = None;
            alternate(
                config.seconds,
                MIN_TRACED_PASSES,
                &mut Calibration::default(),
                |traced_pass| {
                    let mut lane = Lane::new(traced_pass.then_some(&tracer), 0);
                    let out = jobs_pass(&inputs.specs, &inputs.jobs, workers, false, &mut lane, 0);
                    (traced_pass, out, lane.spans)
                },
                |wall, (traced_pass, out, spans)| {
                    if traced_pass {
                        traced.push(wall);
                        pass_spans = spans;
                    } else {
                        untraced.push(wall);
                    }
                    check_jobs(&mut tally, out, &mut first);
                },
            );
            (first.unwrap_or_default(), inputs)
        }
    };

    // Sweeps outside the passes: validate + compile, the probe counters, and
    // the execution engine's cost at a quarter of the horizon.
    let sweep = lane.span("sweep.layers", 0, NO_SYSTEM, |lane, s| {
        layer_sweep(&inputs, workers, lane, s)
    });
    if let Err(e) = sweep {
        tally.fail(1, e);
    }
    let sweep_spans = std::mem::take(&mut lane.spans);
    let (probe, probed) = probe_sweep(&inputs, workers);
    tally.runs(&probed);
    // Pass outputs are in spec order for tables-wide and in job order
    // otherwise.
    let reference: Vec<RunOutcome> = inputs
        .jobs
        .iter()
        .enumerate()
        .map(|(j, job)| {
            let index = match config.workload {
                Workload::TablesWide => job.spec,
                _ => j,
            };
            out.runs
                .get(index)
                .cloned()
                .unwrap_or(Err("missing run".into()))
        })
        .collect();
    tally.compare(&reference, &probed, "probed run");
    let growth = match horizon_growth(config.workload, config.size, config.seed, workers) {
        Ok((full, quarter)) => full / quarter,
        Err(e) => {
            tally.fail(1, e);
            0.0
        }
    };

    // Per-layer numbers.
    let pass_totals = totals_by_name(&pass_spans);
    let sweep_totals = totals_by_name(&sweep_spans);
    let secs = |totals: &BTreeMap<&'static str, crate::spans::NameTotals>, name: &str| {
        totals.get(name).map_or(0, |t| t.total_ns) as f64 / 1e9
    };
    let (generate_s, events) = match config.workload {
        Workload::TablesWide => (secs(&pass_totals, "sysgen.generate"), out.generated_events),
        _ => (
            secs(&totals_by_name(&setup_spans), "sysgen.generate"),
            inputs.events(),
        ),
    };
    let sim = EngineTotals::of(Engine::Sim, &pass_spans, &out);
    let exec = EngineTotals::of(Engine::Exec, &pass_spans, &out);
    let (released, rejected, aborted) =
        out.runs
            .iter()
            .flatten()
            .fold((0u64, 0u64, 0u64), |(rel, rej, abo), r| {
                (
                    rel + r.measures.released as u64,
                    rej + r.measures.rejected as u64,
                    abo + r.measures.aborted as u64,
                )
            });
    let accepted = released - rejected;
    let pool_stages: BTreeMap<u64, u64> = pass_spans
        .iter()
        .filter(|s| s.name.starts_with("pool."))
        .map(|s| (s.id, s.dur_ns()))
        .collect();
    let pool_items: Vec<&SpanRec> = pass_spans
        .iter()
        .filter(|s| pool_stages.contains_key(&s.parent))
        .collect();
    let busy_ns: u64 = pool_items.iter().map(|s| s.dur_ns()).sum();
    let capacity_ns = pool_stages.values().sum::<u64>() * workers as u64;

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    put("sysgen.generate_s", generate_s);
    put("sysgen.events", events as f64);
    put(
        "sysgen.ns_per_event",
        generate_s * 1e9 / events.max(1) as f64,
    );
    put("model.validate_s", secs(&sweep_totals, "model.validate"));
    put("compile.compile_s", secs(&sweep_totals, "compile.compile"));
    for (prefix, time, totals) in [
        ("rtss", "simulate_s", sim),
        ("taskserver", "execute_s", exec),
    ] {
        put(&format!("{prefix}.{time}"), totals.ns as f64 / 1e9);
        put(&format!("{prefix}.segments"), totals.segments as f64);
        put(
            &format!("{prefix}.ns_per_segment"),
            ns_per(totals.ns, totals.segments),
        );
        for (policy, (ns, segments)) in SOAK_POLICIES.iter().zip(totals.per_policy) {
            put(
                &format!("{prefix}.ns_per_segment.{}", policy_label(*policy)),
                ns_per(ns, segments),
            );
        }
    }
    put("taskserver.horizon_growth", growth);
    put("admission.accepted", accepted as f64);
    put("admission.rejected", rejected as f64);
    put("admission.aborted", aborted as f64);
    put("admission.accept_ratio", ns_per(accepted, released));
    put("metrics.measure_s", secs(&pass_totals, "metrics.measure"));
    put(
        "metrics.aggregate_s",
        secs(&pass_totals, "metrics.aggregate"),
    );
    put("pool.items", pool_items.len() as f64);
    put("pool.busy_s", busy_ns as f64 / 1e9);
    put(
        "pool.idle_s",
        capacity_ns.saturating_sub(busy_ns) as f64 / 1e9,
    );
    put("pool.efficiency", ns_per(busy_ns, capacity_ns));
    put("observe.decisions", probe.counters.decisions as f64);
    put("observe.dispatches", probe.counters.dispatches as f64);
    put("observe.preemptions", probe.counters.preemptions as f64);
    put(
        "observe.queue_depth_p99",
        probe.queue_depth.percentile(99.0) as f64,
    );
    put("trace.overhead_ratio", median(&traced) / median(&untraced));

    let mut metrics = Vec::new();
    for m in PER_LAYER {
        let value = values.get(m.name).copied().unwrap_or_else(|| {
            tally.fail(1, format!("per-layer metric {} was not computed", m.name));
            0.0
        });
        metrics.push((m.name, m.unit, value));
    }

    // The span file and the per-layer table with self time.
    let all_spans: Vec<SpanRec> = setup_spans
        .iter()
        .chain(&pass_spans)
        .chain(&sweep_spans)
        .copied()
        .collect();
    let path = trace_path(config);
    let mut lines = vec![format!(
        "perfbench {} seed={} workers={} traced passes={} untraced passes={}",
        config.workload.name(),
        config.seed,
        workers,
        traced.len(),
        untraced.len()
    )];
    match write_trace(&path, &sample_spans(&all_spans)) {
        Ok(n) => lines.push(format!(
            "spans: {n} of {} written to {}",
            all_spans.len(),
            path.display()
        )),
        Err(e) => tally.fail(1, e),
    }
    lines.push(format!(
        "{:<22} {:>9} {:>12} {:>12}",
        "span", "calls", "total_s", "self_s"
    ));
    let layers: BTreeSet<&'static str> = all_spans.iter().map(|s| s.name).collect();
    let all_totals = totals_by_name(&all_spans);
    for name in layers {
        let t = all_totals[name];
        lines.push(format!(
            "{name:<22} {:>9} {:>12.6} {:>12.6}",
            t.calls,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        ));
    }
    for (m, (name, unit, value)) in PER_LAYER.iter().zip(&metrics) {
        lines.push(format!("{name} = {value} {unit} [{}]", m.layer));
    }
    tally.finish(metrics, lines)
}
