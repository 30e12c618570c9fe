//! # rt-bench — the bench trajectory and its gates
//!
//! The workspace's one benchmark is the `engine_scaling` bench target of
//! this crate, a plain binary (`cargo bench -p rt-bench --bench
//! engine_scaling [group…]`). It writes the rows it measures to
//! `BENCH_engine_scaling.json` under Cargo's target directory; the copy at
//! the repository root is a snapshot, refreshed only on purpose. This
//! library holds what the binary and the tests share:
//!
//! * [`BenchRecord`] and the hand-rolled JSON of the trajectory
//!   ([`render_bench_trajectory`], [`parse_bench_trajectory`]) — hand-rolled
//!   because the offline workspace has no JSON library;
//! * [`GROUPS`], the groups a full run measures, and [`GATES`] with
//!   [`gate_failures`], every bound the benchmark asserts. The binary checks
//!   its fresh rows against them, and a unit test checks the snapshot.
//!
//! The same JSON cursor backs [`validate_chrome_trace`], the parse-check
//! for the Perfetto/Chrome trace files `repro observe --trace-out` emits.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

/// One row of the persisted bench trajectory: a workload configuration
/// inside a benchmark group, its cost per decision, and its speedup against
/// the first row of the comparison it was timed in (`1.0` for that row).
///
/// A decision is one trace segment for an engine run — the count is
/// engine-independent, because the fast and oracle traces are
/// byte-identical — one admission prediction in the `admission` group's
/// `incremental`/`repack` rows, and one compilation in `compile-cost`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark group the row belongs to (one of [`GROUPS`]).
    pub group: String,
    /// Workload configuration inside the group (e.g. `sim/300/fast`).
    pub config: String,
    /// Wall-clock nanoseconds per decision, fastest of several runs.
    pub ns_per_decision: f64,
    /// Speedup against the first row of its comparison.
    pub speedup: f64,
}

/// The groups of the `engine_scaling` bench, in the order a full run
/// measures them. Each is also the positional argument that selects it.
pub const GROUPS: [&str; 10] = [
    "scaling",
    "edf",
    "admission",
    "overload",
    "horizon",
    "faults",
    "observe",
    "compile-cost",
    "harness",
    "paper",
];

/// An asserted bound: within `group`, the `row` may cost at most
/// `max_ratio` times the `base` row per decision.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Group both rows belong to.
    pub group: &'static str,
    /// The bounded row.
    pub row: &'static str,
    /// The row it is bounded against.
    pub base: &'static str,
    /// Largest allowed `row / base` ratio of ns per decision.
    pub max_ratio: f64,
    /// What the bound certifies.
    pub claim: &'static str,
}

impl Gate {
    /// `row / base` in ns per decision, or `None` unless both rows are
    /// present.
    pub fn ratio(&self, records: &[BenchRecord]) -> Option<f64> {
        let ns = |config: &str| {
            records
                .iter()
                .find(|r| r.group == self.group && r.config == config)
                .map(|r| r.ns_per_decision)
        };
        Some(ns(self.row)? / ns(self.base)?)
    }
}

impl std::fmt::Display for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{g}/{} <= {}x {g}/{} ({})",
            self.row,
            self.max_ratio,
            self.base,
            self.claim,
            g = self.group
        )
    }
}

/// Every gate the `engine_scaling` bench asserts.
pub const GATES: [Gate; 7] = [
    Gate {
        group: "scaling",
        row: "sim/300/fast",
        base: "sim/300/oracle",
        max_ratio: 0.2,
        claim: "the fast simulation is at least 5x the oracle at 300 tasks",
    },
    Gate {
        group: "scaling",
        row: "exec/300/fast",
        base: "exec/300/oracle",
        max_ratio: 0.2,
        claim: "the fast execution is at least 5x the oracle at 300 tasks",
    },
    Gate {
        group: "admission",
        row: "incremental/4096",
        base: "incremental/256",
        max_ratio: 1.5,
        claim: "an admission decision costs O(log backlog): log2 4096 / log2 256",
    },
    Gate {
        group: "overload",
        row: "exec/10000",
        base: "exec/1000",
        max_ratio: 2.0,
        claim: "the overloaded execution stays linear in the horizon",
    },
    Gate {
        group: "horizon",
        row: "exec/100000",
        base: "exec/1000",
        max_ratio: 2.0,
        claim: "the execution's cost per decision stays flat up to 10^5 units",
    },
    Gate {
        group: "compile-cost",
        row: "events/100000",
        base: "events/100",
        max_ratio: 1.2,
        claim: "compilation does not walk the events",
    },
    Gate {
        group: "harness",
        row: "workers/4",
        base: "workers/1",
        max_ratio: 0.5,
        claim: "4 workers give at least 2x the systems per second of 1",
    },
];

/// One message per gate of [`GATES`] that `records` violate, naming the
/// gate and the measured ratio. A gate applies whenever both of its rows
/// are present.
pub fn gate_failures(records: &[BenchRecord]) -> Vec<String> {
    GATES
        .iter()
        .filter_map(|gate| {
            let ratio = gate.ratio(records)?;
            (ratio > gate.max_ratio || ratio.is_nan())
                .then(|| format!("gate {gate} failed: ratio {ratio:.3}"))
        })
        .collect()
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
/// with finite numbers.
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
                config: "sim/300/oracle".into(),
                ns_per_decision: 1234.56,
                speedup: 1.0,
            },
            BenchRecord {
                group: "scaling".into(),
                config: "sim/300/fast".into(),
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

    /// Two rows per gate whose ratio is `ratio` times the gate's bound.
    fn gate_rows(ratio: f64) -> Vec<BenchRecord> {
        let row = |group: &str, config: &str, ns_per_decision: f64| BenchRecord {
            group: group.into(),
            config: config.into(),
            ns_per_decision,
            speedup: 1.0,
        };
        GATES
            .iter()
            .flat_map(|gate| {
                [
                    row(gate.group, gate.base, 100.0),
                    row(gate.group, gate.row, 100.0 * gate.max_ratio * ratio),
                ]
            })
            .collect()
    }

    #[test]
    fn every_gate_is_named_when_violated() {
        let failures = gate_failures(&gate_rows(1.01));
        assert_eq!(failures.len(), GATES.len(), "{failures:#?}");
        for (gate, failure) in GATES.iter().zip(&failures) {
            assert!(
                failure.contains(&format!("{}/{}", gate.group, gate.row)),
                "{failure:?} does not name {gate}"
            );
        }
        assert_eq!(gate_failures(&gate_rows(0.99)), Vec::<String>::new());
    }

    #[test]
    fn a_gate_applies_only_when_both_rows_are_present() {
        let mut rows = gate_rows(2.0);
        rows.retain(|r| r.config != "workers/4");
        let failures = gate_failures(&rows);
        assert_eq!(failures.len(), GATES.len() - 1);
        assert!(failures.iter().all(|f| !f.contains("workers/4")));
    }

    #[test]
    fn checked_in_trajectory_parses() {
        // The snapshot at the repository root: refreshed only on purpose, by
        // copying a full run's fresh file over it.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_engine_scaling.json"
        );
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path} unreadable: {e}"));
        let records =
            parse_bench_trajectory(&text).unwrap_or_else(|e| panic!("{path} malformed: {e}"));
        for group in GROUPS {
            assert!(
                records.iter().any(|r| r.group == group),
                "{path} lacks the {group} group"
            );
        }
        assert_eq!(gate_failures(&records), Vec::<String>::new());
    }
}
