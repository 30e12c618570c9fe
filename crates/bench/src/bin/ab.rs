//! `ab` — alternating A/B runs of the pipeline benchmark between two
//! revisions.
//!
//! ```text
//! cargo run --release -p rt-bench --bin ab -- <base-rev> <change-rev> \
//!     [--workload tables-wide] [--pairs 10] [--seed 1983] [--seconds 20] \
//!     [-- <further perfbench arguments>]
//! ```
//!
//! Run it from a clean checkout: each revision is a commit, checked out
//! with `git worktree add --detach` under `target/ab/<sha>`, where its
//! `perfbench` is built offline. It then runs `--pairs` alternating pairs of
//! one workload, the base first in odd pairs and the change first in even
//! ones, and prints, per end-to-end metric of `BENCHMARK.json`: each side's
//! median with its quartiles, the change's wins (ties count for neither),
//! whether the medians differ by more than the base's interquartile range,
//! whether the change is worse than the base by more than the metric's
//! bound, and every run's value. Runs whose result line reads
//! `correct: false` or counts failed runs are named.
//!
//! The checkouts and their builds stay under `target/ab/` for the next
//! comparison of the same commits; delete the directory and run
//! `git worktree prune` to drop them.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: ab <base-rev> <change-rev> [--workload NAME] [--pairs N] \
     [--seed N] [--seconds S] [-- <perfbench arguments>]";

/// One end-to-end metric of `BENCHMARK.json`.
struct Metric {
    name: String,
    unit: String,
    lower_is_better: bool,
    /// Largest allowed relative worsening.
    bound: f64,
}

/// The result line of one perfbench run.
struct RunResult {
    correct: bool,
    failed: u64,
    /// `(name, value)` in the order the line lists them.
    metrics: Vec<(String, f64)>,
}

impl RunResult {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// The text after `"key":` in `text`, with leading whitespace trimmed.
fn after_key<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let quoted = format!("\"{key}\"");
    let rest = &text[text.find(&quoted)? + quoted.len()..];
    Some(rest.trim_start().strip_prefix(':')?.trim_start())
}

fn string_field(text: &str, key: &str) -> Option<String> {
    let rest = after_key(text, key)?.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn number_field(text: &str, key: &str) -> Option<f64> {
    let rest = after_key(text, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `end_to_end` metrics of a `BENCHMARK.json`, in file order.
fn end_to_end_metrics(benchmark: &str) -> Result<Vec<Metric>, String> {
    let list = after_key(benchmark, "end_to_end").ok_or("no end_to_end list")?;
    let list = &list[..list.find(']').ok_or("unterminated end_to_end list")?];
    list.split('}')
        .filter(|object| object.contains("\"name\""))
        .map(|object| {
            let field = |key| string_field(object, key).ok_or(format!("metric without {key}"));
            Ok(Metric {
                name: field("name")?,
                unit: field("unit")?,
                lower_is_better: field("better")? == "lower",
                bound: number_field(object, "bound").ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// Parses perfbench's result line:
/// `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`.
fn parse_result(line: &str) -> Result<RunResult, String> {
    let correct = after_key(line, "correct").ok_or("no correct field")?;
    let failed = number_field(line, "failed").ok_or("no failed field")?;
    let metrics = after_key(line, "metrics").ok_or("no metrics object")?;
    let metrics = metrics
        .strip_prefix('{')
        .ok_or("metrics is not an object")?;
    let metrics = metrics
        .split("},")
        .filter_map(|entry| {
            let entry = entry.trim_start();
            let name = entry.strip_prefix('"')?;
            let name = &name[..name.find('"')?];
            Some((name.to_string(), number_field(entry, "value")?))
        })
        .collect();
    Ok(RunResult {
        correct: correct.starts_with("true"),
        failed: failed as u64,
        metrics,
    })
}

/// The `q`-quantile of sorted samples, interpolating linearly between the
/// closest ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let rank = q * last as f64;
    let (low, high) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// `(q1, median, q3)` of the samples.
fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (
        quantile(&sorted, 0.25),
        quantile(&sorted, 0.5),
        quantile(&sorted, 0.75),
    )
}

/// The report for one metric over `pairs` of `(base, change)` values.
fn render_metric(metric: &Metric, pairs: &[(f64, f64)]) -> String {
    let base: Vec<f64> = pairs.iter().map(|&(b, _)| b).collect();
    let change: Vec<f64> = pairs.iter().map(|&(_, c)| c).collect();
    let (b1, bm, b3) = quartiles(&base);
    let (c1, cm, c3) = quartiles(&change);
    let better = |c: f64, b: f64| if metric.lower_is_better { c < b } else { c > b };
    let wins = pairs.iter().filter(|&&(b, c)| better(c, b)).count();
    let worse_by = if metric.lower_is_better {
        cm / bm - 1.0
    } else {
        1.0 - cm / bm
    };
    let runs = |values: &[f64]| {
        values
            .iter()
            .map(|v| format!("{v:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "{name} ({unit}, {direction} is better, bound {bound:.0}%)\n  \
         base    median {bm:.6} [q1 {b1:.6}, q3 {b3:.6}]\n  \
         change  median {cm:.6} [q1 {c1:.6}, q3 {c3:.6}]\n  \
         change/base {ratio:.4}; change wins {wins}/{n}; |median gap| {gap:.6} {cmp} base IQR {iqr:.6}; \
         worse than base by more than the bound: {beyond}\n  \
         base runs:   {base_runs}\n  \
         change runs: {change_runs}",
        name = metric.name,
        unit = metric.unit,
        direction = if metric.lower_is_better { "lower" } else { "higher" },
        bound = metric.bound * 100.0,
        ratio = cm / bm,
        n = pairs.len(),
        gap = (cm - bm).abs(),
        cmp = if (cm - bm).abs() > b3 - b1 { ">" } else { "<=" },
        iqr = b3 - b1,
        beyond = if worse_by > metric.bound { "YES" } else { "no" },
        base_runs = runs(&base),
        change_runs = runs(&change),
    )
}

/// Runs `command`, returning its stdout, or why it failed.
fn output(command: &mut Command) -> Result<String, String> {
    let out = command
        .output()
        .map_err(|e| format!("cannot start {command:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{command:?} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Checks `rev` out under `target/ab/<sha>` (unless an earlier comparison
/// did) and builds its perfbench; returns the commit, the checkout and the
/// binary.
fn build_revision(root: &Path, rev: &str) -> Result<(String, PathBuf, PathBuf), String> {
    let sha = output(
        Command::new("git")
            .current_dir(root)
            .args(["rev-parse", "--verify"])
            .arg(format!("{rev}^{{commit}}")),
    )?
    .trim()
    .to_string();
    let checkout = root.join("target").join("ab").join(&sha);
    if !checkout.join("perfbench").join("Cargo.toml").exists() {
        output(
            Command::new("git")
                .current_dir(root)
                .args(["worktree", "add", "--detach"])
                .arg(&checkout)
                .arg(&sha),
        )?;
    }
    eprintln!("ab: building perfbench at {rev} ({sha})");
    output(
        Command::new("cargo")
            .current_dir(&checkout)
            .env("CARGO_TARGET_DIR", checkout.join("target"))
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["--manifest-path", "perfbench/Cargo.toml"]),
    )?;
    let binary = checkout.join("target").join("release").join("perfbench");
    Ok((sha, checkout, binary))
}

/// One perfbench run of the revision checked out at `checkout`.
fn run_once(checkout: &Path, binary: &Path, args: &[String]) -> Result<RunResult, String> {
    let out = Command::new(binary)
        .current_dir(checkout)
        .env_remove("CARGO_TARGET_DIR")
        .args(args)
        .output()
        .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
    // Exit code 1 reports failed runs on a valid result line; 2 is a usage
    // error.
    if out.status.code() == Some(2) {
        return Err(String::from_utf8_lossy(&out.stderr).trim().to_string());
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .ok_or_else(|| format!("{} printed no result line", binary.display()))?;
    parse_result(line)
}

struct Options {
    base: String,
    change: String,
    pairs: usize,
    /// Every argument handed to perfbench.
    perfbench: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut revisions = Vec::new();
    let mut pairs = 10;
    // Indices 1, 3 and 5 hold the workload, seed and seconds options set.
    let mut perfbench: Vec<String> = [
        "--workload",
        "tables-wide",
        "--seed",
        "1983",
        "--seconds",
        "20",
        "--trace",
        "0",
    ]
    .map(String::from)
    .to_vec();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => perfbench[1] = value()?,
            "--seed" => perfbench[3] = value()?,
            "--seconds" => perfbench[5] = value()?,
            "--pairs" => {
                pairs = value()?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--pairs needs a positive integer")?
            }
            "--" => perfbench.extend(args.by_ref()),
            _ if arg.starts_with("--") => return Err(format!("unknown option {arg}")),
            _ => revisions.push(arg),
        }
    }
    let [base, change] = <[String; 2]>::try_from(revisions)
        .map_err(|_| "name exactly two revisions, the base then the change")?;
    Ok(Options {
        base,
        change,
        pairs,
        perfbench,
    })
}

fn run(options: &Options) -> Result<bool, String> {
    let root =
        PathBuf::from(output(Command::new("git").args(["rev-parse", "--show-toplevel"]))?.trim());
    let benchmark = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let metrics = end_to_end_metrics(&benchmark)?;
    let (base_sha, base_dir, base_bin) = build_revision(&root, &options.base)?;
    let (change_sha, change_dir, change_bin) = build_revision(&root, &options.change)?;

    let run_base = || run_once(&base_dir, &base_bin, &options.perfbench);
    let run_change = || run_once(&change_dir, &change_bin, &options.perfbench);
    let mut results: Vec<(RunResult, RunResult)> = Vec::new();
    for pair in 0..options.pairs {
        results.push(if pair % 2 == 0 {
            let base = run_base()?;
            (base, run_change()?)
        } else {
            let change = run_change()?;
            (run_base()?, change)
        });
        eprintln!("ab: pair {} of {} done", pair + 1, options.pairs);
    }

    println!(
        "ab: {} alternating pairs (base first in odd pairs) of perfbench {}",
        options.pairs,
        options.perfbench.join(" ")
    );
    println!(
        "base {} ({base_sha}) vs change {} ({change_sha})",
        options.base, options.change
    );
    let mut all_correct = true;
    for (pair, (base, change)) in results.iter().enumerate() {
        for (side, result) in [("base", base), ("change", change)] {
            if !result.correct || result.failed > 0 {
                all_correct = false;
                println!(
                    "pair {}: {side} run correct={} with {} failed runs",
                    pair + 1,
                    result.correct,
                    result.failed
                );
            }
        }
    }
    if all_correct {
        println!("every run correct, 0 failed");
    }
    for metric in &metrics {
        let pairs: Option<Vec<(f64, f64)>> = results
            .iter()
            .map(|(b, c)| Some((b.value(&metric.name)?, c.value(&metric.name)?)))
            .collect();
        match pairs {
            Some(pairs) => println!("{}", render_metric(metric, &pairs)),
            None => println!("{}: missing from a result line", metric.name),
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("ab: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ab: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_end_to_end_metrics_of_the_checked_in_benchmark() {
        let text = include_str!("../../../../BENCHMARK.json");
        let metrics = end_to_end_metrics(text).expect("BENCHMARK.json parses");
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "work_s",
                "systems_per_s",
                "ns_per_segment",
                "run_p50_us",
                "peak_rss_mb"
            ]
        );
        assert!(metrics[0].lower_is_better && !metrics[2].lower_is_better);
        assert_eq!(metrics[5].bound, 0.2);
    }

    #[test]
    fn parses_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 24000, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.0194, \"unit\": \"s\"}, \
                    \"systems_per_s\": {\"value\": 2.1e5, \"unit\": \"1/s\"}}}";
        let result = parse_result(line).expect("parses");
        assert!(result.correct);
        assert_eq!(result.failed, 0);
        assert_eq!(result.value("setup_s"), Some(0.0194));
        assert_eq!(result.value("systems_per_s"), Some(2.1e5));
        assert_eq!(result.value("work_s"), None);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let (q1, median, q3) = quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q1, median, q3), (2.0, 3.0, 4.0));
        let (q1, median, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((q1, median, q3), (1.75, 2.5, 3.25));
    }

    #[test]
    fn wins_count_the_better_side_by_direction() {
        let metric = Metric {
            name: "setup_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: 0.25,
        };
        let report = render_metric(&metric, &[(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)]);
        assert!(report.contains("change wins 1/3"), "{report}");
        assert!(report.contains("worse than base by more than the bound: no"));
    }
}
