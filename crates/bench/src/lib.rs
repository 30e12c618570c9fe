//! # rt-bench — benchmark harness
//!
//! Criterion benchmarks that regenerate every table and figure of the paper
//! (`table2_ps_simulation`, `table3_ps_execution`, `table4_ds_simulation`,
//! `table5_ds_execution`, `figures_scenarios`, `online_rta`) plus two
//! ablations (`ablation_queue`: flat FIFO vs list-of-lists admission cost;
//! `ablation_engine`: simulator vs execution-engine throughput and the effect
//! of the overhead model). Each table bench prints the reproduced AART / AIR /
//! ASR rows next to the paper's published values once per run, then measures
//! the cost of regenerating the table.
//!
//! The crate also hosts the **persisted bench trajectory**: the
//! `engine_scaling` bench writes its reference-vs-fast per-decision
//! summary to `BENCH_engine_scaling.json` at the repository root through
//! [`write_bench_trajectory`], and [`parse_bench_trajectory`] reads it back
//! (the CI bench smoke regenerates the file and checks it parses). The JSON
//! is hand-rolled because the offline `serde` shim has no JSON backend.
//!
//! The same cursor backs [`validate_chrome_trace`], the CI parse-check for
//! the Perfetto/Chrome trace files `repro observe --trace-out` emits.

#![forbid(unsafe_code)]

use rt_experiments::{reproduce_table, side_by_side, PaperTable, TableConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Reproduces a table with the full paper configuration and prints it next to
/// the published values; returns the reproduced table so benches can keep it
/// as the measured workload's result.
pub fn print_and_reproduce(table: PaperTable) -> rt_metrics::ResultTable {
    let config = TableConfig::default();
    let reproduced = reproduce_table(table, &config);
    println!("{}", side_by_side(table, &reproduced));
    reproduced
}

/// One row of the persisted bench trajectory: a workload configuration inside
/// a benchmark group, its per-decision cost (a decision instant is one trace
/// segment — the denominator is engine-independent because the fast and
/// reference traces are byte-identical), and its speedup against the
/// group's baseline row (`1.0` for the baseline rows themselves).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark group the row belongs to (`scaling`, `edf`, `overload`, …).
    pub group: String,
    /// Workload configuration inside the group (e.g. `sim/300/compiled`).
    pub config: String,
    /// Mean wall-clock nanoseconds per decision instant.
    pub ns_per_decision: f64,
    /// Speedup against the baseline row of the same workload.
    pub speedup: f64,
}

/// Location of the persisted trajectory: `BENCH_engine_scaling.json` at the
/// repository root, resolved relative to this crate's manifest.
pub fn bench_trajectory_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine_scaling.json")
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the trajectory as pretty-printed JSON (`group` → `config` →
/// ns/decision + speedup, flattened into a record list so consumers do not
/// need a schema-aware parser).
pub fn render_bench_trajectory(records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"engine_scaling\",\n");
    out.push_str("  \"unit\": \"ns per decision (trace segment)\",\n");
    out.push_str("  \"records\": [\n");
    for (i, record) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"group\": \"{}\", \"config\": \"{}\", \
             \"ns_per_decision\": {:.2}, \"speedup\": {:.3}}}{comma}",
            escape_json(&record.group),
            escape_json(&record.config),
            record.ns_per_decision,
            record.speedup,
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Writes the trajectory to [`bench_trajectory_path`] and returns the path.
pub fn write_bench_trajectory(records: &[BenchRecord]) -> std::io::Result<PathBuf> {
    let path = bench_trajectory_path();
    std::fs::write(&path, render_bench_trajectory(records))?;
    Ok(path)
}

/// Minimal JSON cursor for [`parse_bench_trajectory`]: just enough grammar
/// (objects, arrays, strings, numbers) for the trajectory file, with byte
/// offsets in error messages.
struct JsonCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonCursor<'a> {
    fn new(text: &'a str) -> Self {
        JsonCursor {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Strings are valid UTF-8 (the input is a &str); copy the
                    // whole multi-byte character.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

/// Shape summary of a validated Chrome trace: how many `ph:"X"` complete
/// events (processor slices) and `ph:"i"` instant events (decision marks)
/// the file carries. Returned by [`validate_chrome_trace`] so callers can
/// assert the trace is non-trivial, not just well-formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Number of `ph:"X"` complete events.
    pub spans: usize,
    /// Number of `ph:"i"` instant events.
    pub marks: usize,
}

/// Validates a Chrome trace-event JSON file as produced by
/// `rt_observe::chrome_trace_json` (and consumed by `chrome://tracing` /
/// Perfetto): the top level must be an object with a `traceEvents` array of
/// flat event objects; every event needs a non-empty `name`, a `ph` of `"X"`
/// or `"i"`, and a finite non-negative `ts`; `X` events need a finite
/// non-negative `dur`; and each phase stream must be monotone in `ts` (the
/// exporter emits slices then marks, each in virtual-time order). There must
/// be at least one span — an empty trace means the probe was never driven.
///
/// This is the CI parse-check behind `repro observe --trace-out`; it shares
/// the recursive JSON cursor with the bench-trajectory parser so both
/// persisted JSON artifacts go through one grammar.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceSummary, String> {
    let mut cursor = JsonCursor::new(text);
    cursor.eat(b'{')?;
    let mut summary: Option<ChromeTraceSummary> = None;
    loop {
        let key = cursor.parse_string()?;
        cursor.eat(b':')?;
        match key.as_str() {
            "traceEvents" => summary = Some(validate_trace_events(&mut cursor)?),
            // Chrome's trace format allows top-level metadata alongside the
            // event array; accept string-valued extras for forward
            // compatibility.
            _ => {
                cursor.parse_string()?;
            }
        }
        match cursor.peek() {
            Some(b',') => cursor.eat(b',')?,
            _ => {
                cursor.eat(b'}')?;
                break;
            }
        }
    }
    let summary = summary.ok_or("missing \"traceEvents\" array")?;
    if summary.spans == 0 {
        return Err("trace has no ph:\"X\" spans — the probe never saw a slice".into());
    }
    Ok(summary)
}

fn validate_trace_events(cursor: &mut JsonCursor<'_>) -> Result<ChromeTraceSummary, String> {
    cursor.eat(b'[')?;
    let mut summary = ChromeTraceSummary { spans: 0, marks: 0 };
    // Per-phase monotonicity watermarks: the exporter writes all slices,
    // then all marks, each stream sorted by virtual time.
    let (mut last_span_ts, mut last_mark_ts) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    if cursor.peek() == Some(b']') {
        cursor.eat(b']')?;
        return Ok(summary);
    }
    loop {
        let index = summary.spans + summary.marks;
        let event = parse_trace_event(cursor)?;
        let name = event
            .name
            .ok_or(format!("event #{index} missing \"name\""))?;
        if name.is_empty() {
            return Err(format!("event #{index} has an empty name"));
        }
        let ph = event.ph.ok_or(format!("event #{index} missing \"ph\""))?;
        let ts = event.ts.ok_or(format!("event #{index} missing \"ts\""))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event #{index} ({name:?}) has bad ts {ts}"));
        }
        match ph.as_str() {
            "X" => {
                let dur = event
                    .dur
                    .ok_or(format!("span #{index} ({name:?}) missing \"dur\""))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("span #{index} ({name:?}) has bad dur {dur}"));
                }
                if summary.marks > 0 {
                    return Err(format!(
                        "span #{index} ({name:?}) appears after an instant event; \
                         the exporter writes all slices first"
                    ));
                }
                if ts < last_span_ts {
                    return Err(format!(
                        "span #{index} ({name:?}) breaks ts monotonicity: {ts} < {last_span_ts}"
                    ));
                }
                last_span_ts = ts;
                summary.spans += 1;
            }
            "i" => {
                if ts < last_mark_ts {
                    return Err(format!(
                        "mark #{index} ({name:?}) breaks ts monotonicity: {ts} < {last_mark_ts}"
                    ));
                }
                last_mark_ts = ts;
                summary.marks += 1;
            }
            other => return Err(format!("event #{index} ({name:?}) has bad ph {other:?}")),
        }
        match cursor.peek() {
            Some(b',') => cursor.eat(b',')?,
            _ => {
                cursor.eat(b']')?;
                break;
            }
        }
    }
    Ok(summary)
}

/// The fields of one trace event [`validate_chrome_trace`] cares about.
#[derive(Default)]
struct TraceEventFields {
    name: Option<String>,
    ph: Option<String>,
    ts: Option<f64>,
    dur: Option<f64>,
}

fn parse_trace_event(cursor: &mut JsonCursor<'_>) -> Result<TraceEventFields, String> {
    cursor.eat(b'{')?;
    let mut event = TraceEventFields::default();
    loop {
        let key = cursor.parse_string()?;
        cursor.eat(b':')?;
        match key.as_str() {
            "name" => event.name = Some(cursor.parse_string()?),
            "ph" => event.ph = Some(cursor.parse_string()?),
            "ts" => event.ts = Some(cursor.parse_number()?),
            "dur" => event.dur = Some(cursor.parse_number()?),
            // cat / s are strings; pid / tid are numbers — skip either form.
            _ => match cursor.peek() {
                Some(b'"') => {
                    cursor.parse_string()?;
                }
                _ => {
                    cursor.parse_number()?;
                }
            },
        }
        match cursor.peek() {
            Some(b',') => cursor.eat(b',')?,
            _ => {
                cursor.eat(b'}')?;
                break;
            }
        }
    }
    Ok(event)
}

/// Parses a trajectory file produced by [`render_bench_trajectory`], checking
/// the header fields and that every record carries the four expected keys
/// with finite numbers. Used by the CI smoke to validate the regenerated
/// `BENCH_engine_scaling.json`.
pub fn parse_bench_trajectory(text: &str) -> Result<Vec<BenchRecord>, String> {
    let mut cursor = JsonCursor::new(text);
    cursor.eat(b'{')?;
    let mut records: Option<Vec<BenchRecord>> = None;
    loop {
        let key = cursor.parse_string()?;
        cursor.eat(b':')?;
        match key.as_str() {
            "benchmark" => {
                let name = cursor.parse_string()?;
                if name != "engine_scaling" {
                    return Err(format!("unexpected benchmark name {name:?}"));
                }
            }
            "unit" => {
                cursor.parse_string()?;
            }
            "records" => {
                let mut list = Vec::new();
                cursor.eat(b'[')?;
                if cursor.peek() == Some(b']') {
                    cursor.eat(b']')?;
                } else {
                    loop {
                        list.push(parse_record(&mut cursor)?);
                        match cursor.peek() {
                            Some(b',') => cursor.eat(b',')?,
                            _ => {
                                cursor.eat(b']')?;
                                break;
                            }
                        }
                    }
                }
                records = Some(list);
            }
            other => return Err(format!("unexpected key {other:?}")),
        }
        match cursor.peek() {
            Some(b',') => cursor.eat(b',')?,
            _ => {
                cursor.eat(b'}')?;
                break;
            }
        }
    }
    records.ok_or_else(|| "missing \"records\" array".into())
}

fn parse_record(cursor: &mut JsonCursor<'_>) -> Result<BenchRecord, String> {
    cursor.eat(b'{')?;
    let (mut group, mut config) = (None, None);
    let (mut ns_per_decision, mut speedup) = (None, None);
    loop {
        let key = cursor.parse_string()?;
        cursor.eat(b':')?;
        match key.as_str() {
            "group" => group = Some(cursor.parse_string()?),
            "config" => config = Some(cursor.parse_string()?),
            "ns_per_decision" => ns_per_decision = Some(cursor.parse_number()?),
            "speedup" => speedup = Some(cursor.parse_number()?),
            other => return Err(format!("unexpected record key {other:?}")),
        }
        match cursor.peek() {
            Some(b',') => cursor.eat(b',')?,
            _ => {
                cursor.eat(b'}')?;
                break;
            }
        }
    }
    let record = BenchRecord {
        group: group.ok_or("record missing \"group\"")?,
        config: config.ok_or("record missing \"config\"")?,
        ns_per_decision: ns_per_decision.ok_or("record missing \"ns_per_decision\"")?,
        speedup: speedup.ok_or("record missing \"speedup\"")?,
    };
    if !record.ns_per_decision.is_finite() || !record.speedup.is_finite() {
        return Err(format!("non-finite measurement in {:?}", record.config));
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<BenchRecord> {
        vec![
            BenchRecord {
                group: "scaling".into(),
                config: "sim/300/reference".into(),
                ns_per_decision: 1234.56,
                speedup: 1.0,
            },
            BenchRecord {
                group: "scaling".into(),
                config: "sim/300/compiled".into(),
                ns_per_decision: 345.67,
                speedup: 3.571,
            },
        ]
    }

    #[test]
    fn trajectory_roundtrips_through_json() {
        let rendered = render_bench_trajectory(&sample());
        let parsed = parse_bench_trajectory(&rendered).expect("well-formed JSON");
        assert_eq!(parsed, sample());
    }

    #[test]
    fn empty_trajectory_roundtrips() {
        let rendered = render_bench_trajectory(&[]);
        assert_eq!(parse_bench_trajectory(&rendered).unwrap(), Vec::new());
    }

    #[test]
    fn escaped_strings_roundtrip() {
        let records = vec![BenchRecord {
            group: "a\"b\\c".into(),
            config: "line\nbreak\ttab µs".into(),
            ns_per_decision: 0.25,
            speedup: 12.125,
        }];
        let rendered = render_bench_trajectory(&records);
        assert_eq!(parse_bench_trajectory(&rendered).unwrap(), records);
    }

    #[test]
    fn malformed_trajectories_are_rejected() {
        assert!(parse_bench_trajectory("{}").is_err());
        assert!(parse_bench_trajectory("").is_err());
        assert!(parse_bench_trajectory("{\"benchmark\": \"other\"}").is_err());
        let truncated = render_bench_trajectory(&sample());
        let truncated = &truncated[..truncated.len() - 4];
        assert!(parse_bench_trajectory(truncated).is_err());
    }

    #[test]
    fn valid_chrome_traces_pass_with_the_right_counts() {
        let json = r#"{"traceEvents":[
            {"name":"tau1","cat":"task","ph":"X","ts":0,"dur":2,"pid":1,"tid":16},
            {"name":"idle","cat":"idle","ph":"X","ts":2,"dur":1,"pid":1,"tid":3},
            {"name":"release","cat":"mark","ph":"i","s":"t","ts":0,"pid":1,"tid":0},
            {"name":"dispatch:tau1","cat":"mark","ph":"i","s":"t","ts":0,"pid":1,"tid":16}
        ]}"#;
        assert_eq!(
            validate_chrome_trace(json).unwrap(),
            ChromeTraceSummary { spans: 2, marks: 2 }
        );
    }

    #[test]
    fn chrome_traces_from_the_exporter_pass() {
        use rt_model::{ExecUnit, Instant, TaskId};
        use rt_observe::{chrome_trace_json, Probe, SpanProbe, UnitNames};
        let mut probe = SpanProbe::new();
        probe.release(Instant::from_units(0));
        probe.dispatch(ExecUnit::Task(TaskId::new(0)), Instant::from_units(0));
        probe.slice(
            ExecUnit::Task(TaskId::new(0)),
            Instant::from_units(0),
            Instant::from_units(3),
        );
        probe.slice(
            ExecUnit::Idle,
            Instant::from_units(3),
            Instant::from_units(5),
        );
        let json = chrome_trace_json(&probe, &UnitNames::default());
        assert_eq!(
            validate_chrome_trace(&json).unwrap(),
            ChromeTraceSummary { spans: 2, marks: 2 }
        );
    }

    #[test]
    fn malformed_chrome_traces_are_rejected() {
        // Not an object / wrong key / no events at all.
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"otherEvents\":\"x\"}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        // Marks alone are not a trace.
        assert!(
            validate_chrome_trace(r#"{"traceEvents":[{"name":"release","ph":"i","ts":0}]}"#)
                .is_err()
        );
        // Non-monotone span timestamps.
        assert!(validate_chrome_trace(
            r#"{"traceEvents":[
                {"name":"a","ph":"X","ts":5,"dur":1},
                {"name":"b","ph":"X","ts":2,"dur":1}
            ]}"#
        )
        .is_err());
        // A span after a mark violates the exporter's stream order.
        assert!(validate_chrome_trace(
            r#"{"traceEvents":[
                {"name":"a","ph":"X","ts":0,"dur":1},
                {"name":"m","ph":"i","ts":0},
                {"name":"b","ph":"X","ts":1,"dur":1}
            ]}"#
        )
        .is_err());
        // Missing dur, negative ts, unknown phase, empty name.
        assert!(
            validate_chrome_trace(r#"{"traceEvents":[{"name":"a","ph":"X","ts":0}]}"#).is_err()
        );
        assert!(validate_chrome_trace(
            r#"{"traceEvents":[{"name":"a","ph":"X","ts":-1,"dur":1}]}"#
        )
        .is_err());
        assert!(
            validate_chrome_trace(r#"{"traceEvents":[{"name":"a","ph":"B","ts":0,"dur":1}]}"#)
                .is_err()
        );
        assert!(
            validate_chrome_trace(r#"{"traceEvents":[{"name":"","ph":"X","ts":0,"dur":1}]}"#)
                .is_err()
        );
    }

    #[test]
    fn checked_in_trajectory_parses() {
        // The CI bench smoke regenerates the file and re-runs this test; a
        // missing file means the bench has never run in this tree, which the
        // repository must not ship.
        let path = bench_trajectory_path();
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()));
        let records = parse_bench_trajectory(&text)
            .unwrap_or_else(|e| panic!("{} malformed: {e}", path.display()));
        assert!(
            !records.is_empty(),
            "trajectory must contain at least one record"
        );
        // Every scaling point pairs the fast engine (its rows keep the
        // `compiled` name) with the reference oracle it is measured against.
        for side in ["compiled", "reference"] {
            assert!(
                records
                    .iter()
                    .any(|r| r.group == "scaling" && r.config.ends_with(side)),
                "trajectory must cover the {side} side of the scaling sweep"
            );
        }
        // The compile-cost-vs-event-count sweep must be present (flatness
        // is its acceptance gate), and the execution fast path must record
        // a real speedup over the linear-scan reference.
        let compile_cost: Vec<_> = records
            .iter()
            .filter(|r| r.group == "compile-cost")
            .collect();
        assert!(
            !compile_cost.is_empty(),
            "trajectory must cover the compile-cost event sweep"
        );
        assert!(
            compile_cost.iter().all(|r| r.ns_per_decision > 0.0),
            "compile-cost rows must carry real timings"
        );
        assert!(
            records
                .iter()
                .any(|r| r.group == "scaling" && r.config.contains("exec") && r.speedup > 1.0),
            "trajectory must record a fast-path speedup on the execution engine"
        );
        // The probe-overhead rows: a noop/metrics pair per probe-capable
        // engine at the 300-task acceptance point. The simulator's noop row
        // is the zero-cost gate's paper trail — it is measured through the
        // plain entry point, which *is* the NoopProbe monomorphization.
        for workload in ["exec/300", "sim-compiled/300"] {
            for side in ["noop", "metrics"] {
                let config = format!("{workload}/{side}");
                assert!(
                    records.iter().any(|r| r.group == "observe"
                        && r.config == config
                        && r.ns_per_decision > 0.0),
                    "trajectory must carry the probe-overhead row {config}"
                );
            }
        }
    }
}
