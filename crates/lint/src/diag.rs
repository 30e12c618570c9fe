//! Findings, lint identifiers and rustc-style rendering.

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

    /// Stable identifier used in diagnostics and `allow(...)` directives.
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
}

impl Finding {
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: warning[{}]: {}",
            self.path, self.line, self.col, self.lint, self.message
        )
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
