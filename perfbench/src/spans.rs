//! Wall-clock spans recorded from the benchmark's side of every layer call.
//!
//! The crates under test carry no tracing: each span brackets one call the
//! benchmark makes into a layer's public function (`sysgen.generate`,
//! `rtss.simulate`, `taskserver.execute`, `metrics.measure`, ...). Every
//! thread fills its own [`Lane`] in memory; the lanes are merged after the
//! pass and written out once, as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// `system` value of a span that belongs to no single system.
pub const NO_SYSTEM: i64 = -1;

/// One closed span. Times are nanoseconds since the tracer's epoch; `parent`
/// is 0 for a root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub system: i64,
    pub tid: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The clock and id source shared by every thread of a traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One thread's span buffer. With no tracer attached every `span` call runs
/// its body directly and records nothing.
#[derive(Debug)]
pub struct Lane<'t> {
    tracer: Option<&'t Tracer>,
    tid: u32,
    pub spans: Vec<SpanRec>,
}

impl<'t> Lane<'t> {
    pub fn new(tracer: Option<&'t Tracer>, tid: u32) -> Self {
        Lane {
            tracer,
            tid,
            spans: Vec::new(),
        }
    }

    pub fn tracer(&self) -> Option<&'t Tracer> {
        self.tracer
    }

    /// Runs `body` inside a span named `name`. The body receives the lane
    /// and the new span's id, to parent nested spans on.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        system: i64,
        body: impl FnOnce(&mut Self, u64) -> R,
    ) -> R {
        let Some(tracer) = self.tracer else {
            return body(self, 0);
        };
        // Relaxed: the counter only hands out unique ids, it publishes
        // nothing else.
        let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = tracer.now_ns();
        let result = body(self, id);
        let end_ns = tracer.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            system,
            tid: self.tid,
        });
        result
    }
}

/// Per-name totals over a set of spans: call count, summed duration, and
/// summed self time (duration minus the part its children cover).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Totals per span name. A child interval counts once however many children
/// overlap it (children on different worker threads run concurrently).
pub fn totals_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let entry = out.entry(s.name).or_default();
        entry.calls += 1;
        entry.total_ns += s.dur_ns();
        entry.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Renders spans as Chrome trace-event JSON (`ph:"X"` complete events sorted
/// by start, one flat object each, so `rt_bench::validate_chrome_trace`
/// accepts the file). The layer is the name's prefix before the first dot.
pub fn chrome_trace_json(spans: &[SpanRec]) -> String {
    let mut sorted = spans.to_vec();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (i, s) in sorted.iter().enumerate() {
        let comma = if i + 1 < sorted.len() { "," } else { "" };
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{layer}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": {}, \"span_id\": {}, \"parent_id\": {}, \"system_id\": {}}}{comma}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.system,
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, id: u64, parent: u64) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            id,
            parent,
            system: NO_SYSTEM,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            rec("pass", 0, 100, 1, 0),
            rec("run", 10, 40, 2, 1),
            rec("run", 30, 60, 3, 1),
            rec("run", 90, 120, 4, 1),
        ];
        let totals = totals_by_name(&spans);
        // Children cover [10, 60) and [90, 100) of the pass: 60 ns.
        assert_eq!(totals["pass"].self_ns, 40);
        assert_eq!(totals["run"].calls, 3);
        assert_eq!(totals["run"].total_ns, 90);
        assert_eq!(totals["run"].self_ns, 90);
    }

    #[test]
    fn untraced_lanes_record_nothing_and_traced_lanes_nest() {
        let mut off = Lane::new(None, 0);
        assert_eq!(off.span("a", 0, NO_SYSTEM, |_, id| id), 0);
        assert!(off.spans.is_empty());

        let tracer = Tracer::default();
        let mut on = Lane::new(Some(&tracer), 3);
        on.span("outer", 0, 7, |lane, outer| {
            lane.span("inner", outer, 7, |_, _| ());
        });
        assert_eq!(on.spans.len(), 2);
        let (inner, outer) = (on.spans[0], on.spans[1]);
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let json = chrome_trace_json(&on.spans);
        let summary = rt_bench::validate_chrome_trace(&json).expect("valid chrome trace");
        assert_eq!(summary.spans, 2);
    }
}
