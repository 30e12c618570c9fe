//! Findings, lint identifiers, rustc-style rendering, and the baseline
//! file.
//!
//! Baseline policy: the checked-in baseline (`lint.baseline` at the
//! workspace root) exists so a lint can be *introduced* before the last
//! grandfathered finding is fixed, without turning CI red. Entries are
//! `path:line:lint-id` triples; a finding that matches an entry is reported
//! as baselined and does not fail `--deny-warnings`. Stale entries (matching
//! nothing) are themselves findings, so the file can only shrink — a
//! ratchet. The target state is an **empty** baseline; today it parks the
//! `unread-pub` findings left when that lint was introduced, and no other
//! lint's.

use std::fmt;
use std::path::Path;

/// The lint catalogue. Each variant is one compile-gated invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// L1: raw clamping `-`/`-=` between `Instant`/`Span` values outside
    /// the whitelisted operator impls in `rt-model::time`.
    TimeArith,
    /// L2: sources of nondeterminism in the engine crates.
    Determinism,
    /// L3: allocating constructs inside a `// rt-lint: zero-alloc` region.
    ZeroAlloc,
    /// L4: `unwrap`/`expect` in library code.
    Panic,
    /// L5: `unsafe` without a reason, or a missing `#![forbid(unsafe_code)]`
    /// ratchet attribute.
    Unsafe,
    /// Malformed rt-lint directives (unknown lint id, missing reason, ...).
    Suppression,
    /// L6: a `pub` item of library code that no other file reads.
    UnreadPub,
}

impl Lint {
    pub const ALL: [Lint; 7] = [
        Lint::TimeArith,
        Lint::Determinism,
        Lint::ZeroAlloc,
        Lint::Panic,
        Lint::Unsafe,
        Lint::Suppression,
        Lint::UnreadPub,
    ];

    /// Stable identifier used in diagnostics, `allow(...)` directives and
    /// the baseline file.
    pub fn id(self) -> &'static str {
        match self {
            Lint::TimeArith => "time-arith",
            Lint::Determinism => "determinism",
            Lint::ZeroAlloc => "zero-alloc",
            Lint::Panic => "panic",
            Lint::Unsafe => "unsafe",
            Lint::Suppression => "suppression",
            Lint::UnreadPub => "unread-pub",
        }
    }

    /// Parses a lint id as written in an `allow(...)` directive.
    pub fn from_id(id: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|l| l.id() == id)
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    pub lint: Lint,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    /// True when a baseline entry matched this finding.
    pub baselined: bool,
}

impl Finding {
    pub fn render(&self) -> String {
        let status = if self.baselined {
            "note[baselined "
        } else {
            "warning["
        };
        format!(
            "{}:{}:{}: {}{}]: {}",
            self.path, self.line, self.col, status, self.lint, self.message
        )
    }
}

/// Parsed baseline file: `path:line:lint-id` per non-comment line.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: Vec<(String, u32, Lint)>,
    used: Vec<bool>,
}

impl Baseline {
    /// Parses baseline text. Malformed lines become `suppression` findings
    /// attributed to the baseline file itself.
    pub fn parse(path_label: &str, text: &str) -> (Baseline, Vec<Finding>) {
        let mut baseline = Baseline::default();
        let mut findings = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parsed = (|| {
                let (rest, lint) = line.rsplit_once(':')?;
                let (path, lineno) = rest.rsplit_once(':')?;
                Some((
                    path.to_string(),
                    lineno.parse::<u32>().ok()?,
                    Lint::from_id(lint)?,
                ))
            })();
            match parsed {
                Some(entry) => baseline.entries.push(entry),
                None => findings.push(Finding {
                    lint: Lint::Suppression,
                    path: path_label.to_string(),
                    line: (idx + 1) as u32,
                    col: 1,
                    message: format!(
                        "malformed baseline entry {line:?} (expected path:line:lint-id)"
                    ),
                    baselined: false,
                }),
            }
        }
        baseline.used = vec![false; baseline.entries.len()];
        (baseline, findings)
    }

    /// Marks `finding` baselined when an entry matches it.
    pub fn apply(&mut self, finding: &mut Finding) {
        for (i, (path, line, lint)) in self.entries.iter().enumerate() {
            if *lint == finding.lint && *line == finding.line && *path == finding.path {
                self.used[i] = true;
                finding.baselined = true;
                return;
            }
        }
    }

    /// Findings for baseline entries that matched nothing — the ratchet
    /// that keeps the file from rotting.
    pub fn stale_entries(&self, path_label: &str) -> Vec<Finding> {
        self.entries
            .iter()
            .zip(&self.used)
            .filter(|(_, used)| !**used)
            .map(|((path, line, lint), _)| Finding {
                lint: Lint::Suppression,
                path: path_label.to_string(),
                line: 1,
                col: 1,
                message: format!(
                    "stale baseline entry {path}:{line}:{lint} — the finding no longer \
                     exists, delete the entry"
                ),
                baselined: false,
            })
            .collect()
    }
}

/// Normalizes a path for diagnostics: workspace-relative, `/`-separated.
pub fn display_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let s = rel.to_string_lossy();
    if std::path::MAIN_SEPARATOR == '/' {
        s.into_owned()
    } else {
        s.replace(std::path::MAIN_SEPARATOR, "/")
    }
}
