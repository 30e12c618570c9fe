//! rt-lint — the workspace's static-analysis pass.
//!
//! Turns the repo's strongest *dynamic* invariants into compile-gated
//! lints, so a regression is caught by `cargo run -p rt-lint --
//! --deny-warnings` in under two seconds instead of hours later by a
//! golden diff, the fuzzer, or the counting allocator:
//!
//! | id            | invariant                                            |
//! |---------------|------------------------------------------------------|
//! | `time-arith`  | no raw clamping `-`/`-=` on `Instant`/`Span` outside the whitelisted operator impls in `rt-model::time` |
//! | `determinism` | no `HashMap`/`HashSet`/wall-clock/thread-id/env reads in the engine crates |
//! | `zero-alloc`  | no allocating constructs inside `// rt-lint: zero-alloc` fn regions |
//! | `panic`       | no `unwrap`/`expect` in library code                 |
//! | `unsafe`      | `unsafe` needs a written reason; unsafe-free crates keep `#![forbid(unsafe_code)]` |
//! | `suppression` | rt-lint's own directives are well-formed and reasons are mandatory |
//! | `unread-pub`  | every `pub` item of library code is named by some other file (the pipeline benchmark's sources included) |
//!
//! The tool is hand-rolled (lexer + token-pattern visitors, std only) to
//! match the workspace's offline compat-shim policy: no crates.io
//! dependency, no rustc internals, deterministic output.
//!
//! Suppression policy: `// rt-lint: allow(<lint>, reason = "...")` on the
//! finding's line or the line above; `allow-file(...)` at most once per
//! lint for whole-file exemptions (e.g. a module whose purpose is reading
//! the machine clock vs. `determinism`). Reasons are mandatory and checked.
//! There is no baseline: every finding is fixed or suppressed with a reason.

#![forbid(unsafe_code)]

pub mod context;
pub mod diag;
pub mod index;
pub mod lexer;
pub mod lints;
pub mod walk;

use context::{FileCtx, FileKind};
use diag::Finding;
pub use diag::Lint;
pub use lints::zero_alloc::Region;
use std::io;
use std::path::Path;

/// Crates that vendor third-party API surfaces (the offline compat shims).
/// They only get the unsafe-hygiene tier: their code deliberately mirrors
/// external idioms the other lints would fight.
fn is_compat(crate_dir: &str) -> bool {
    crate_dir.starts_with("crates/compat")
}

/// One in-memory source file for [`lint_sources`].
#[derive(Debug, Clone)]
pub struct Input {
    /// Workspace-relative `/`-separated path; drives file classification.
    pub path: String,
    pub src: String,
}

impl Input {
    pub fn new(path: impl Into<String>, src: impl Into<String>) -> Input {
        Input {
            path: path.into(),
            src: src.into(),
        }
    }
}

/// Lint result for a workspace or fixture set.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, `(path, line, col)`-sorted; each one gates
    /// `--deny-warnings`.
    pub findings: Vec<Finding>,
    /// Discovered zero-alloc regions as `(path, region)`.
    pub regions: Vec<(String, Region)>,
    pub files_scanned: usize,
}

/// Lints a set of in-memory sources — the engine behind both the CLI and
/// the fixture self-tests.
pub fn lint_sources(inputs: &[Input]) -> Report {
    let mut report = Report::default();

    // Pass 1: lex + directives for every file; the reader-only files are
    // lexed into the unread-pub census and nothing else.
    let mut ctxs: Vec<FileCtx> = Vec::new();
    let mut census = lints::unread_pub::Census::default();
    for input in inputs {
        if walk::is_reader_only(&input.path) {
            census.add(&lexer::lex(&input.src));
            continue;
        }
        let Some((kind, crate_dir)) = walk::classify(&input.path) else {
            continue;
        };
        let ctx = FileCtx::new(input.path.clone(), kind, crate_dir, &input.src);
        census.add(&ctx.lexed);
        ctxs.push(ctx);
    }
    report.files_scanned = ctxs.len();

    // Pass 2: the workspace time-type index (library code of non-compat
    // crates only — test fixtures must not poison field names).
    let mut index = index::TimeIndex::default();
    for ctx in &ctxs {
        if !is_compat(&ctx.crate_dir) && matches!(ctx.kind, FileKind::LibSrc | FileKind::BinSrc) {
            index.add_file(ctx);
        }
    }
    if index.clamp_forms.is_empty() {
        report.findings.push(Finding {
            lint: Lint::Suppression,
            path: "crates/model/src/time.rs".to_string(),
            line: 1,
            col: 1,
            message: "no time-arith-clamp(...) forms declared — the time-arith lint has \
                      no whitelist to enforce; annotate the clamping operator impls in \
                      rt-model::time"
                .to_string(),
        });
    }

    // Pass 3: per-file lints.
    let mut crate_has_unsafe: std::collections::BTreeMap<String, bool> =
        std::collections::BTreeMap::new();
    for ctx in &ctxs {
        let out = &mut report.findings;
        // Malformed-directive findings apply to every tier, compat included.
        out.extend(ctx.directives.findings.iter().cloned());

        let unsafe_here = lints::unsafe_hygiene::run(ctx, out);
        if matches!(ctx.kind, FileKind::LibSrc | FileKind::BinSrc) {
            let e = crate_has_unsafe
                .entry(ctx.crate_dir.clone())
                .or_insert(false);
            *e = *e || unsafe_here;
        }

        if is_compat(&ctx.crate_dir) {
            continue;
        }
        lints::time_arith::run(ctx, &index, out);
        lints::determinism::run(ctx, out);
        lints::panic_policy::run(ctx, out);
        lints::unread_pub::run(ctx, &census, out);
        for region in lints::zero_alloc::run(ctx, out) {
            report.regions.push((ctx.path.clone(), region));
        }
    }

    // Pass 4: the forbid(unsafe_code) ratchet, per crate root present.
    for ctx in &ctxs {
        let is_root = ctx.path == format!("{}/src/lib.rs", ctx.crate_dir)
            || (ctx.crate_dir == "." && ctx.path == "src/lib.rs");
        if !is_root {
            continue;
        }
        let has_unsafe = crate_has_unsafe
            .get(&ctx.crate_dir)
            .copied()
            .unwrap_or(false);
        if !has_unsafe && !lints::unsafe_hygiene::has_forbid_unsafe(ctx) {
            let finding = lints::unsafe_hygiene::missing_forbid_finding(&ctx.path, &ctx.crate_dir);
            if !ctx.is_suppressed(Lint::Unsafe, finding.line) {
                report.findings.push(finding);
            }
        }
    }

    report.findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.lint).cmp(&(b.path.as_str(), b.line, b.col, b.lint))
    });
    report
}

/// Walks `root`, reads every lintable file, and lints the lot.
pub fn run_workspace(root: &Path) -> io::Result<Report> {
    let files = walk::discover(root)?;
    let mut inputs = Vec::with_capacity(files.len());
    for f in &files {
        let src = std::fs::read_to_string(&f.abs_path)?;
        inputs.push(Input::new(f.rel_path.clone(), src));
    }
    Ok(lint_sources(&inputs))
}
