//! Span-structured decision tracing and Chrome trace-event export.
//!
//! [`SpanProbe`] records the engine's decision path — releases, event
//! fires, dispatches and processor slices, in virtual-time order — and
//! [`chrome_trace_json`] renders the recording as Chrome trace-event JSON
//! (the `chrome://tracing` / Perfetto interchange format): one `ph:"X"`
//! complete event per processor slice on a per-unit track, plus `ph:"i"`
//! instant events for releases, fires and dispatches. One virtual tick maps
//! to one microsecond of trace time, so the paper's time units read as
//! milliseconds in the viewer.
//!
//! Unlike [`MetricsProbe`](crate::MetricsProbe), the span recorder *does*
//! allocate (`Vec` pushes) — tracing is a diagnosis tool, not a metrics
//! path, and it is deliberately excluded from the zero-alloc manifest. It
//! still never feeds anything back into the engine, so recorded runs stay
//! byte-identical to unobserved ones.

use crate::Probe;
use rt_model::{ExecUnit, Instant, SystemSpec};
use std::borrow::Cow;

/// One contiguous processor slice, as reported by [`Probe::slice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceRecord {
    /// What ran.
    pub unit: ExecUnit,
    /// Inclusive start.
    pub start: Instant,
    /// Exclusive end.
    pub end: Instant,
}

/// Kind of an instant mark on the decision path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkKind {
    /// A periodic release or aperiodic arrival.
    Release,
    /// An asynchronous event fire (execution world).
    Fire,
    /// A scheduler dispatch of the carried unit.
    Dispatch,
    /// A preemption of the carried unit.
    Preemption,
}

impl MarkKind {
    fn label(self) -> &'static str {
        match self {
            MarkKind::Release => "release",
            MarkKind::Fire => "fire",
            MarkKind::Dispatch => "dispatch",
            MarkKind::Preemption => "preemption",
        }
    }
}

/// One instant event on the decision path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    /// What happened.
    pub kind: MarkKind,
    /// The unit involved, when the hook carries one.
    pub unit: Option<ExecUnit>,
    /// When.
    pub at: Instant,
}

/// The span-recording probe: an append-only log of the decision path.
///
/// Slices arrive in virtual-time order (engines emit them as time
/// advances), so the exported `ph:"X"` events have monotone timestamps by
/// construction — the property the CI parse-check pins.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SpanProbe {
    /// Processor slices, in virtual-time order.
    pub slices: Vec<SliceRecord>,
    /// Instant marks (releases, fires, dispatches, preemptions), in
    /// virtual-time order.
    pub marks: Vec<Mark>,
}

impl SpanProbe {
    /// An empty recorder.
    pub fn new() -> Self {
        SpanProbe::default()
    }

    /// A unit's completion instant is the exclusive end of its last slice;
    /// `None` when the unit never ran.
    pub fn completion_of(&self, unit: ExecUnit) -> Option<Instant> {
        self.slices
            .iter()
            .rev()
            .find(|s| s.unit == unit)
            .map(|s| s.end)
    }
}

impl Probe for SpanProbe {
    const ENABLED: bool = true;

    fn slice(&mut self, unit: ExecUnit, start: Instant, end: Instant) {
        self.slices.push(SliceRecord { unit, start, end });
    }

    fn dispatch(&mut self, unit: ExecUnit, now: Instant) {
        self.marks.push(Mark {
            kind: MarkKind::Dispatch,
            unit: Some(unit),
            at: now,
        });
    }

    fn preemption(&mut self, unit: ExecUnit, now: Instant) {
        self.marks.push(Mark {
            kind: MarkKind::Preemption,
            unit: Some(unit),
            at: now,
        });
    }

    fn release(&mut self, now: Instant) {
        self.marks.push(Mark {
            kind: MarkKind::Release,
            unit: None,
            at: now,
        });
    }

    fn fire(&mut self, now: Instant) {
        self.marks.push(Mark {
            kind: MarkKind::Fire,
            unit: None,
            at: now,
        });
    }
}

/// First per-unit track id; tracks 1–3 carry the overhead and idle lanes.
const FIRST_UNIT_TID: u32 = 16;

/// Unit labels plus the deterministic track-id assignment used by the
/// Chrome export: tasks get tracks `16..16+T` in spec order, handlers the
/// tracks after them — stable across runs and engines because both are
/// dense spec indices. A task is labelled by its spec name, a handler by
/// its event id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitNames {
    tasks: Vec<String>,
    /// Number of aperiodic events in the spec; a handler whose event index
    /// is past it lies outside the spec.
    events: usize,
}

impl UnitNames {
    /// Copies a spec's task names and counts its events.
    pub fn from_spec(spec: &SystemSpec) -> Self {
        UnitNames {
            tasks: spec.periodic_tasks.iter().map(|t| t.name.clone()).collect(),
            events: spec.aperiodics.len(),
        }
    }

    /// Display label of a unit: a task's spec name, a handler's event id, a
    /// fixed label for the overhead and idle lanes, and `<unnamed>` for
    /// units outside the spec.
    pub fn label(&self, unit: ExecUnit) -> Cow<'_, str> {
        match unit {
            ExecUnit::ServerOverhead => "server-overhead".into(),
            ExecUnit::TimerOverhead => "timer-overhead".into(),
            ExecUnit::Idle => "idle".into(),
            ExecUnit::Task(t) => self
                .tasks
                .get(t.index())
                .map_or("<unnamed>", String::as_str)
                .into(),
            ExecUnit::Handler(e) if e.index() < self.events => e.to_string().into(),
            ExecUnit::Handler(_) => "<unnamed>".into(),
        }
    }

    /// Deterministic per-unit track id for the Chrome export.
    pub fn track(&self, unit: ExecUnit) -> u32 {
        match unit {
            ExecUnit::ServerOverhead => 1,
            ExecUnit::TimerOverhead => 2,
            ExecUnit::Idle => 3,
            ExecUnit::Task(t) => FIRST_UNIT_TID + t.raw(),
            ExecUnit::Handler(e) => FIRST_UNIT_TID + self.tasks.len() as u32 + e.raw(),
        }
    }
}

fn category(unit: ExecUnit) -> &'static str {
    match unit {
        ExecUnit::Task(_) => "task",
        ExecUnit::Handler(_) => "handler",
        ExecUnit::ServerOverhead | ExecUnit::TimerOverhead => "overhead",
        ExecUnit::Idle => "idle",
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Renders a recording as Chrome trace-event JSON (the object form:
/// `{"traceEvents":[...]}`), loadable in `chrome://tracing` and Perfetto.
///
/// Slices become `ph:"X"` complete events (`ts` = start tick as µs, `dur`
/// = slice length in ticks); marks become `ph:"i"` thread-scoped instant
/// events on the same tracks. Slice events appear first, in recorded
/// (virtual-time) order, then marks in recorded order — both streams are
/// individually monotone in `ts`.
pub fn chrome_trace_json(probe: &SpanProbe, names: &UnitNames) -> String {
    let mut out = String::with_capacity(64 * (probe.slices.len() + probe.marks.len()) + 64);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for s in &probe.slices {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":\"");
        push_json_escaped(&mut out, &names.label(s.unit));
        out.push_str("\",\"cat\":\"");
        out.push_str(category(s.unit));
        out.push_str("\",\"ph\":\"X\",\"ts\":");
        out.push_str(&s.start.ticks().to_string());
        out.push_str(",\"dur\":");
        out.push_str(&s.end.since(s.start).ticks().to_string());
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&names.track(s.unit).to_string());
        out.push('}');
    }
    for m in &probe.marks {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":\"");
        out.push_str(m.kind.label());
        if let Some(unit) = m.unit {
            out.push(':');
            push_json_escaped(&mut out, &names.label(unit));
        }
        out.push_str("\",\"cat\":\"mark\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
        out.push_str(&m.at.ticks().to_string());
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&m.unit.map(|u| names.track(u)).unwrap_or(0).to_string());
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_model::{EventId, TaskId};

    fn probe_with_two_slices() -> SpanProbe {
        let mut p = SpanProbe::new();
        p.release(Instant::from_units(0));
        p.dispatch(ExecUnit::Task(TaskId::new(0)), Instant::from_units(0));
        p.slice(
            ExecUnit::Task(TaskId::new(0)),
            Instant::from_units(0),
            Instant::from_units(2),
        );
        p.slice(
            ExecUnit::Handler(EventId::new(0)),
            Instant::from_units(2),
            Instant::from_units(3),
        );
        p
    }

    #[test]
    fn slices_and_marks_are_recorded_in_order() {
        let p = probe_with_two_slices();
        assert_eq!(p.slices.len(), 2);
        assert_eq!(p.marks.len(), 2);
        assert_eq!(
            p.completion_of(ExecUnit::Task(TaskId::new(0))),
            Some(Instant::from_units(2))
        );
        assert_eq!(p.completion_of(ExecUnit::Idle), None);
    }

    #[test]
    fn chrome_export_has_the_trace_events_shape() {
        let p = probe_with_two_slices();
        let names = UnitNames::default();
        let json = chrome_trace_json(&p, &names);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"dur\":2000"));
        // Units outside any spec fall back to the unnamed label.
        assert!(json.contains("<unnamed>"));
    }

    #[test]
    fn labels_and_tracks_are_stable() {
        let names = UnitNames::default();
        assert_eq!(names.label(ExecUnit::Idle), "idle");
        assert_eq!(names.label(ExecUnit::ServerOverhead), "server-overhead");
        assert_eq!(names.track(ExecUnit::Idle), 3);
        assert_eq!(
            names.track(ExecUnit::Task(TaskId::new(2))),
            FIRST_UNIT_TID + 2
        );
    }

    #[test]
    fn json_escaping_handles_quotes_and_controls() {
        let mut s = String::new();
        push_json_escaped(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }
}
