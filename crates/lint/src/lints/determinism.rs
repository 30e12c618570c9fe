//! L2 — determinism: sources of nondeterminism in the engine crates.
//!
//! The repo's strongest invariant is that every engine loop (the
//! simulation driver and its reference, the execution fast path, the
//! RTSJ-emulation engine and its linear-scan reference) produces
//! *byte-identical* canonical traces — the goldens, the differential
//! matrices and the cross-engine fuzzer all pin it. Two classes of std
//! constructs can silently break that without failing a single unit test
//! locally: hash-order-dependent iteration (`HashMap`/`HashSet` with the
//! default `RandomState` — per-process random seeds) and wall-clock reads
//! (`std::time`, `SystemTime`), plus thread-identity / environment leaks
//! and per-thread state (`thread_local!`), which a later run on the same
//! thread could read. This lint forbids them in the engine crates outright;
//! intentionally wall-clock-driven modules (the demo wallclock executor) opt
//! out with `allow-file(determinism, reason = ...)` so the exception is
//! documented at the top of the file it covers, and the per-thread scratch
//! of the run entry points, which holds capacity only, carries a reasoned
//! `allow` at its declaration.

use crate::context::{FileCtx, FileKind};
use crate::diag::{Finding, Lint};
use crate::lexer::TokenKind;

/// Workspace crate directories whose library code must stay deterministic:
/// everything that computes or transforms a trace.
pub const ENGINE_CRATE_DIRS: &[&str] = &[
    "crates/model",
    "crates/core",
    "crates/rtsj",
    "crates/rtss",
    "crates/admission",
    "crates/compile",
    "crates/observe",
];

/// Single forbidden identifiers with the hazard they carry.
const FORBIDDEN_IDENTS: &[(&str, &str)] = &[
    (
        "HashMap",
        "hash-order iteration is seeded per process; use BTreeMap (or an index keyed by \
         insertion order) so trace bytes cannot depend on RandomState",
    ),
    (
        "HashSet",
        "hash-order iteration is seeded per process; use BTreeSet or a sorted Vec",
    ),
    (
        "SystemTime",
        "wall-clock reads differ across runs; engines must use rt-model virtual time",
    ),
    (
        "RandomState",
        "per-process random hash seeds are the exact nondeterminism this lint exists to stop",
    ),
    (
        "thread_rng",
        "thread-local RNGs are unseeded; use the workspace's seeded rand shim streams",
    ),
    (
        "thread_local",
        "per-thread state outlives a run, so a later run on the thread could read it; it may \
         only be capacity-only scratch that every run takes and gives back empty, behind a \
         reasoned allow",
    ),
];

/// Forbidden `::`-joined path patterns (matched against the token stream).
const FORBIDDEN_PATHS: &[(&[&str], &str)] = &[
    (
        &["std", "time"],
        "std::time is wall-clock time; engines must use rt-model virtual Instant/Span",
    ),
    (
        &["Instant", "now"],
        "Instant::now() reads the machine clock; rt-model::Instant has no now() by design",
    ),
    (
        &["thread", "current"],
        "thread identity varies across runs and worker counts",
    ),
    (
        &["env", "var"],
        "environment reads make engine behaviour host-dependent; plumb configuration \
         through SystemSpec / ExecutionConfig instead",
    ),
    (
        &["env", "vars"],
        "environment reads make engine behaviour host-dependent",
    ),
];

pub fn run(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !ENGINE_CRATE_DIRS.contains(&ctx.crate_dir.as_str()) {
        return;
    }
    // Library code only: tests may freely read env overrides etc.
    if !matches!(ctx.kind, FileKind::LibSrc | FileKind::BinSrc) {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokenKind::Ident || ctx.in_cfg_test(i) {
            continue;
        }
        for (ident, why) in FORBIDDEN_IDENTS {
            if tok.text == *ident {
                ctx.push(
                    out,
                    Lint::Determinism,
                    tok.line,
                    tok.col,
                    format!("`{ident}` in an engine crate: {why}"),
                );
            }
        }
        for (path, why) in FORBIDDEN_PATHS {
            if matches_path(ctx, i, path) {
                ctx.push(
                    out,
                    Lint::Determinism,
                    toks[i].line,
                    toks[i].col,
                    format!("`{}` in an engine crate: {why}", path.join("::")),
                );
            }
        }
    }
}

/// True when tokens at `i` spell `path[0] :: path[1] :: ...`.
fn matches_path(ctx: &FileCtx, i: usize, path: &[&str]) -> bool {
    let toks = &ctx.lexed.tokens;
    let mut j = i;
    for (n, seg) in path.iter().enumerate() {
        if j >= toks.len() || toks[j].kind != TokenKind::Ident || toks[j].text != *seg {
            return false;
        }
        if n + 1 < path.len() {
            if toks.get(j + 1).map(|t| t.text.as_str()) != Some("::") {
                return false;
            }
            j += 2;
        }
    }
    true
}
