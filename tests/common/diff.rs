//! First-divergence reports for canonical trace renderings.
//!
//! When a golden or a differential comparison fails, dumping both whole
//! traces buries the one segment that matters. [`assert_same_rendering`]
//! names the first line where the two renderings differ instead, with a
//! few lines of context from each side.

#![allow(dead_code)]

/// Lines shown from each side: the line before the first difference, the
/// differing line and the line after it.
const CONTEXT: usize = 3;

/// Panics unless `expected` and `actual` are the same rendering. The panic
/// message (at most 20 lines) starts with `what`, then names the first
/// differing line and shows up to [`CONTEXT`] lines around it from each
/// side.
pub fn assert_same_rendering(expected: &str, actual: &str, what: &str) {
    if expected != actual {
        panic!("{}", first_divergence(expected, actual, what));
    }
}

/// The report [`assert_same_rendering`] panics with.
pub fn first_divergence(expected: &str, actual: &str, what: &str) -> String {
    let left: Vec<&str> = expected.lines().collect();
    let right: Vec<&str> = actual.lines().collect();
    let Some(line) = (0..left.len().max(right.len())).find(|&i| left.get(i) != right.get(i)) else {
        return format!("{what}\nthe renderings differ only in line endings");
    };
    let from = line.saturating_sub(1);
    let side = |name: &str, lines: &[&str]| {
        let mut out = format!("--- {name} ({} lines)\n", lines.len());
        for i in from..from + CONTEXT {
            let marker = if i == line { '>' } else { ' ' };
            match lines.get(i) {
                Some(text) => out.push_str(&format!("{marker} {:>5} | {text}\n", i + 1)),
                None if i == line => out.push_str(&format!("{marker} {:>5} | <end>\n", i + 1)),
                None => {}
            }
        }
        out
    };
    format!(
        "{what}\nfirst difference at line {}\n{}{}",
        line + 1,
        side("expected", &left),
        side("actual", &right)
    )
}
