//! Temporal diagrams ("the simulator … can display a temporal diagram of the
//! simulated execution", paper §5).
//!
//! [`render_ascii`] draws the shared [`rt_model::Trace`] as a fixed-width
//! chart, one row per execution unit, one column per time quantum, suitable
//! for terminals, log files and the integration tests that assert the shape
//! of Figures 2–4.

use rt_model::{ExecUnit, Instant, Span, SystemSpec, Trace};
use std::fmt::Write as _;

/// Options controlling the ASCII rendering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GanttOptions {
    /// Width of one rendered column, in time units.
    pub column_units: f64,
    /// Maximum number of columns before the chart is truncated.
    pub max_columns: usize,
}

impl Default for GanttOptions {
    fn default() -> Self {
        GanttOptions {
            column_units: 1.0,
            max_columns: 200,
        }
    }
}

/// Returns the label used for a unit's row: with a spec, a task's name and
/// a handler's event id.
fn unit_label(unit: ExecUnit, spec: Option<&SystemSpec>) -> String {
    match (unit, spec) {
        (ExecUnit::Task(id), Some(spec)) => spec
            .task(id)
            .map(|t| t.name.clone())
            .unwrap_or_else(|| id.to_string()),
        (ExecUnit::Handler(id), Some(_)) => id.to_string(),
        (unit, _) => unit.to_string(),
    }
}

/// Stable ordering of the rows: server handlers first (they run at the top
/// priority in the paper's systems), then periodic tasks, then overheads.
fn row_order(unit: ExecUnit) -> (u8, ExecUnit) {
    let class = match unit {
        ExecUnit::TimerOverhead => 0,
        ExecUnit::ServerOverhead => 1,
        ExecUnit::Handler(_) => 2,
        ExecUnit::Task(_) => 3,
        ExecUnit::Idle => 4,
    };
    (class, unit)
}

/// Renders the trace as a fixed-width ASCII chart.
pub fn render_ascii(trace: &Trace, spec: Option<&SystemSpec>, options: GanttOptions) -> String {
    let column = Span::from_units_f64(options.column_units.max(1e-3));
    let total_columns = (trace.horizon.since(Instant::ZERO).div_ceil_span(column) as usize)
        .min(options.max_columns);

    // Collect the units that actually appear, keep a stable row order.
    let mut units: Vec<ExecUnit> = trace
        .segments
        .iter()
        .map(|s| s.unit)
        .filter(|u| *u != ExecUnit::Idle)
        .collect();
    units.sort_by_key(|u| row_order(*u));
    units.dedup();

    let labels: Vec<String> = units.iter().map(|u| unit_label(*u, spec)).collect();
    let label_width = labels.iter().map(|l| l.len()).max().unwrap_or(4).max(4);

    let mut out = String::new();
    // Header: a tick every 5 columns.
    let _ = write!(out, "{:width$} ", "", width = label_width);
    for col in 0..total_columns {
        if col % 5 == 0 {
            let t = (col as f64 * options.column_units).round() as u64;
            let marker = format!("{t}");
            out.push_str(&marker);
            for _ in marker.len()..5.min(total_columns - col) {
                out.push(' ');
            }
        }
    }
    out.push('\n');

    for (unit, label) in units.iter().zip(labels.iter()) {
        let _ = write!(out, "{label:label_width$} ");
        for col in 0..total_columns {
            let start = Instant::ZERO + column.saturating_mul(col as u64);
            let end = start + column;
            let busy = trace
                .segments
                .iter()
                .filter(|s| s.unit == *unit)
                .any(|s| s.start < end && s.end > start);
            out.push(if busy { '#' } else { '.' });
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use rt_model::{Priority, ServerPolicyKind, ServerSpec, SystemSpec};

    fn example_trace() -> (SystemSpec, Trace) {
        let mut b = SystemSpec::builder("gantt-example");
        b.server(ServerSpec {
            policy: ServerPolicyKind::Polling,
            capacity: Span::from_units(3),
            period: Span::from_units(6),
            priority: Priority::new(30),
            discipline: rt_model::QueueDiscipline::FifoSkip,
            admission: Default::default(),
        });
        b.periodic(
            "tau1",
            Span::from_units(2),
            Span::from_units(6),
            Priority::new(20),
        );
        b.periodic(
            "tau2",
            Span::from_units(1),
            Span::from_units(6),
            Priority::new(10),
        );
        b.aperiodic(Instant::from_units(0), Span::from_units(2));
        b.aperiodic(Instant::from_units(6), Span::from_units(2));
        b.horizon(Instant::from_units(12));
        let spec = b.build().unwrap();
        let trace = simulate(&spec);
        (spec, trace)
    }

    #[test]
    fn ascii_chart_has_one_row_per_unit_and_marks_busy_columns() {
        let (spec, trace) = example_trace();
        let chart = render_ascii(&trace, Some(&spec), GanttOptions::default());
        let lines: Vec<&str> = chart.lines().collect();
        // Header + e1 + e2 + tau1 + tau2.
        assert_eq!(lines.len(), 5, "unexpected chart: \n{chart}");
        let e1_row = lines.iter().find(|l| l.starts_with("e0")).unwrap();
        // e1 is served during [0, 2): the first two columns are busy.
        let cells: String = e1_row.split_whitespace().last().unwrap().to_string();
        assert!(cells.starts_with("##.."), "e1 row: {e1_row}");
        let tau1_row = lines.iter().find(|l| l.starts_with("tau1")).unwrap();
        assert!(tau1_row.contains('#'));
    }

    #[test]
    fn ascii_chart_respects_max_columns() {
        let (spec, trace) = example_trace();
        let chart = render_ascii(
            &trace,
            Some(&spec),
            GanttOptions {
                column_units: 1.0,
                max_columns: 5,
            },
        );
        for line in chart.lines().skip(1) {
            let cells = line.split_whitespace().last().unwrap();
            assert!(cells.len() <= 5);
        }
    }

    #[test]
    fn labels_fall_back_to_ids_without_a_spec() {
        let (_, trace) = example_trace();
        let chart = render_ascii(&trace, None, GanttOptions::default());
        assert!(chart.contains("handler(e0)") || chart.contains("tau0"));
    }
}
