//! L5 — unsafe hygiene: every `unsafe` carries a written justification,
//! and crates that need none stay that way.
//!
//! Two checks:
//!
//! 1. **Justification**: each `unsafe` token must be covered by an
//!    `allow(unsafe, reason = "...")` directive on its own line or the
//!    line above. The reason is the useful artifact — the next reader
//!    learns *why* the block is sound, not merely that someone was
//!    confident.
//! 2. **Static ratchet**: every workspace crate whose `src/` tree contains
//!    no `unsafe` must carry `#![forbid(unsafe_code)]` in its crate root,
//!    so introducing unsafe to a clean crate is a two-step, visible act
//!    (remove the attribute → lint finding; add unsafe → compile error
//!    until then). The ratchet check runs at workspace level in the
//!    runner; this module provides the per-file primitives.

use crate::context::FileCtx;
use crate::diag::{Finding, Lint};
use crate::lexer::TokenKind;

/// Per-file pass: returns whether the file contains any `unsafe` code.
pub fn run(ctx: &FileCtx, out: &mut Vec<Finding>) -> bool {
    let toks = &ctx.lexed.tokens;
    let mut any_unsafe = false;
    for t in toks {
        if t.kind == TokenKind::Ident && t.text == "unsafe" {
            any_unsafe = true;
            ctx.push(
                out,
                Lint::Unsafe,
                t.line,
                t.col,
                "`unsafe` requires a justification: add rt-lint allow(unsafe, \
                 reason = \"why this is sound\") on this line or the line above"
                    .to_string(),
            );
        }
    }
    any_unsafe
}

/// True when the file's tokens contain `#![forbid(unsafe_code)]`.
pub fn has_forbid_unsafe(ctx: &FileCtx) -> bool {
    let toks = &ctx.lexed.tokens;
    toks.windows(7).any(|w| {
        w[0].text == "#"
            && w[1].text == "!"
            && w[2].text == "["
            && w[3].text == "forbid"
            && w[4].text == "("
            && w[5].text == "unsafe_code"
            && w[6].text == ")"
    })
}

/// Ratchet finding for a crate root missing the attribute.
pub fn missing_forbid_finding(path: &str, crate_dir: &str) -> Finding {
    Finding {
        lint: Lint::Unsafe,
        path: path.to_string(),
        line: 1,
        col: 1,
        message: format!(
            "crate `{crate_dir}` contains no unsafe code but its root is missing \
             `#![forbid(unsafe_code)]` — the ratchet attribute must stay so unsafe \
             cannot slip in silently"
        ),
    }
}
