//! Per-file analysis context shared by all lints: lexed tokens, bracket
//! pairing, `#[cfg(test)]` spans, and parsed `rt-lint:` directives.
//!
//! Directive grammar (written in line or block comments):
//!
//! * `zero-alloc` after the `rt-lint:` prefix — marks the next `fn` as a
//!   zero-allocation region (L3).
//! * `allow(<lint-id>, reason = "...")` — suppresses findings of that lint
//!   on the same line (trailing comment) or on the next code line. The
//!   reason is mandatory and must be non-empty.
//! * `allow-file(<lint-id>, reason = "...")` — suppresses the lint for the
//!   whole file. Reserved for files whose *purpose* conflicts with a lint
//!   (e.g. a module that reads the machine clock vs. the determinism lint).
//! * `time-arith-clamp(<Lhs> <op> <Rhs>)` — only meaningful in
//!   `rt-model::time`: declares one operator impl as a measurement-only
//!   clamp. The set of declared forms *is* the L1 whitelist; the lint
//!   refuses to run if the file defines none.

use crate::diag::{Finding, Lint};
use crate::lexer::{lex, Lexed, TokenKind};

/// What kind of compilation target a file belongs to, derived from its
/// workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/` library code — the strictest tier.
    LibSrc,
    /// `src/bin/` binaries (CLI front-ends).
    BinSrc,
    /// Integration tests under `tests/`.
    TestCode,
    /// Benchmarks under `benches/`.
    Bench,
    /// Examples under `examples/`.
    Example,
}

/// A line-targeted suppression.
#[derive(Debug, Clone)]
pub struct Suppression {
    pub lint: Lint,
    /// Code line the suppression applies to.
    pub target_line: u32,
}

/// A parsed, well-formed directive set for one file plus any findings the
/// parsing itself produced.
#[derive(Debug, Default)]
pub struct Directives {
    pub suppressions: Vec<Suppression>,
    pub file_allows: Vec<Lint>,
    /// Lines of `zero-alloc` markers (the directive's own line).
    pub zero_alloc_markers: Vec<u32>,
    /// Declared clamp forms (L1 whitelist), e.g. `"Instant - Instant"`.
    pub clamp_forms: Vec<String>,
    pub findings: Vec<Finding>,
}

/// Everything the lints need to know about one file.
pub struct FileCtx {
    /// Workspace-relative display path (`/`-separated).
    pub path: String,
    pub kind: FileKind,
    /// `crates/<name>` directory prefix, or `"."` for the facade crate.
    pub crate_dir: String,
    pub lexed: Lexed,
    /// `pairs[i]` is the index of the bracket matching token `i`, for
    /// `(`/`[`/`{` and their closers.
    pub pairs: Vec<Option<usize>>,
    /// Token-index ranges `[start, end]` covered by `#[cfg(test)]`.
    pub cfg_test_spans: Vec<(usize, usize)>,
    pub directives: Directives,
}

impl FileCtx {
    pub fn new(path: String, kind: FileKind, crate_dir: String, src: &str) -> FileCtx {
        let lexed = lex(src);
        let pairs = match_brackets(&lexed);
        let cfg_test_spans = find_cfg_test_spans(&lexed, &pairs);
        let directives = parse_directives(&path, &lexed);
        FileCtx {
            path,
            kind,
            crate_dir,
            lexed,
            pairs,
            cfg_test_spans,
            directives,
        }
    }

    /// True when token index `i` is inside a `#[cfg(test)]` item.
    pub fn in_cfg_test(&self, i: usize) -> bool {
        self.cfg_test_spans
            .iter()
            .any(|&(start, end)| i >= start && i <= end)
    }

    /// True when a finding of `lint` on `line` is suppressed by an
    /// `allow`/`allow-file` directive.
    pub fn is_suppressed(&self, lint: Lint, line: u32) -> bool {
        self.directives.file_allows.contains(&lint)
            || self
                .directives
                .suppressions
                .iter()
                .any(|s| s.lint == lint && s.target_line == line)
    }

    /// Emits `finding` unless suppressed; used by every lint.
    pub fn push(&self, out: &mut Vec<Finding>, lint: Lint, line: u32, col: u32, message: String) {
        if self.is_suppressed(lint, line) {
            return;
        }
        out.push(Finding {
            lint,
            path: self.path.clone(),
            line,
            col,
            message,
        });
    }
}

/// One `fn` item: its tokens, name, and brace-matched body span.
#[derive(Debug, Clone, Copy)]
pub struct FnSpan {
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token index of the function name.
    pub name_tok: usize,
    /// `(open, close)` token indices of the body braces; `None` for
    /// bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
}

impl FileCtx {
    /// Every `fn` item in the file, in token order. Nested fns are listed
    /// separately (their spans overlap the enclosing fn's).
    pub fn fn_spans(&self) -> Vec<FnSpan> {
        let toks = &self.lexed.tokens;
        let mut out = Vec::new();
        for i in 0..toks.len() {
            if toks[i].kind != TokenKind::Ident || toks[i].text != "fn" {
                continue;
            }
            // `fn` in fn-pointer types (`fn(u8) -> u8`) has no name ident.
            let Some(name) = toks.get(i + 1) else {
                continue;
            };
            if name.kind != TokenKind::Ident {
                continue;
            }
            // Find the body `{`, skipping parameter/where groups; a `;`
            // first means a bodyless declaration.
            let mut j = i + 2;
            let mut body = None;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" => j = self.pairs[j].map_or(toks.len(), |c| c + 1),
                    "{" => {
                        body = Some((j, self.pairs[j].unwrap_or(toks.len() - 1)));
                        break;
                    }
                    ";" => break,
                    _ => j += 1,
                }
            }
            out.push(FnSpan {
                fn_tok: i,
                name_tok: i + 1,
                body,
            });
        }
        out
    }
}

/// Pairs `(`/`[`/`{` with their closers. Unbalanced brackets (possible in
/// fixtures) leave `None`s, which the lints treat as "span to end of file".
fn match_brackets(lexed: &Lexed) -> Vec<Option<usize>> {
    let mut pairs = vec![None; lexed.tokens.len()];
    let mut stack: Vec<(usize, char)> = Vec::new();
    for (i, tok) in lexed.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Punct {
            continue;
        }
        match tok.text.as_str() {
            "(" | "[" | "{" => stack.push((i, tok.text.chars().next().unwrap_or('('))),
            ")" | "]" | "}" => {
                let expected = match tok.text.as_str() {
                    ")" => '(',
                    "]" => '[',
                    _ => '{',
                };
                if let Some(pos) = stack.iter().rposition(|&(_, c)| c == expected) {
                    let (open, _) = stack.remove(pos);
                    pairs[open] = Some(i);
                    pairs[i] = Some(open);
                }
            }
            _ => {}
        }
    }
    pairs
}

/// Finds `#[cfg(test)]` attributes and the item span each one gates.
fn find_cfg_test_spans(lexed: &Lexed, pairs: &[Option<usize>]) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].text == "#"
            && toks[i + 1].text == "["
            && toks[i + 2].text == "cfg"
            && toks[i + 3].text == "("
            && toks[i + 4].text == "test"
            && toks[i + 5].text == ")"
            && toks[i + 6].text == "]";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // The gated item runs to the first top-level `;` or the close of
        // the first top-level `{...}` block after the attribute.
        let mut j = i + 7;
        let end = loop {
            if j >= toks.len() {
                break toks.len().saturating_sub(1);
            }
            match toks[j].text.as_str() {
                "(" | "[" => {
                    j = pairs[j].unwrap_or(toks.len().saturating_sub(1)) + 1;
                }
                "{" => break pairs[j].unwrap_or(toks.len().saturating_sub(1)),
                ";" => break j,
                _ => j += 1,
            }
        };
        spans.push((i, end));
        i += 7;
    }
    spans
}

/// Parses every `rt-lint:` comment in the file.
fn parse_directives(path: &str, lexed: &Lexed) -> Directives {
    let mut out = Directives::default();
    for comment in &lexed.comments {
        let Some(body) = comment.text.strip_prefix("rt-lint:") else {
            continue;
        };
        let body = body.trim();
        let mut malformed = |msg: String| {
            out.findings.push(Finding {
                lint: Lint::Suppression,
                path: path.to_string(),
                line: comment.line,
                col: 1,
                message: msg,
            });
        };

        if body == "zero-alloc" {
            out.zero_alloc_markers.push(comment.line);
        } else if let Some(args) = strip_call(body, "allow") {
            match parse_allow(args) {
                Ok(lint) => {
                    // Trailing comment → same line; standalone comment →
                    // next code line.
                    let target_line = if lexed.line_has_code(comment.line) {
                        comment.line
                    } else {
                        lexed.next_code_line(comment.line).unwrap_or(comment.line)
                    };
                    out.suppressions.push(Suppression { lint, target_line });
                }
                Err(msg) => malformed(msg),
            }
        } else if let Some(args) = strip_call(body, "allow-file") {
            match parse_allow(args) {
                Ok(lint) => out.file_allows.push(lint),
                Err(msg) => malformed(msg),
            }
        } else if let Some(args) = strip_call(body, "time-arith-clamp") {
            out.clamp_forms.push(args.trim().to_string());
        } else {
            malformed(format!(
                "unknown rt-lint directive {body:?} (expected zero-alloc, allow(..), \
                 allow-file(..) or time-arith-clamp(..))"
            ));
        }
    }
    out
}

/// `name(args)...` → `Some(args)`. Anything after the closing paren is
/// ignored so directives can carry trailing prose.
fn strip_call<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    let rest = body.strip_prefix(name)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.rfind(')')?;
    Some(&rest[..close])
}

/// Parses `<lint-id>, reason = "..."`, enforcing the mandatory reason.
fn parse_allow(args: &str) -> Result<Lint, String> {
    let (id, rest) = match args.split_once(',') {
        Some((id, rest)) => (id.trim(), rest.trim()),
        None => (args.trim(), ""),
    };
    let lint = Lint::from_id(id)
        .ok_or_else(|| format!("unknown lint id {id:?} in allow(...) directive"))?;
    let reason = rest
        .strip_prefix("reason")
        .map(|r| r.trim_start())
        .and_then(|r| r.strip_prefix('='))
        .map(|r| r.trim())
        .ok_or_else(|| {
            format!("allow({id}) is missing its mandatory `reason = \"...\"` argument")
        })?;
    let reason = reason.strip_prefix('"').unwrap_or(reason);
    let reason = reason.strip_suffix('"').unwrap_or(reason);
    if reason.trim().is_empty() {
        return Err(format!(
            "allow({id}) has an empty reason — say why the finding is fine"
        ));
    }
    Ok(lint)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::new(
            "fixture.rs".to_string(),
            FileKind::LibSrc,
            "crates/fixture".to_string(),
            src,
        )
    }

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let c = ctx("let x = f(); // rt-lint: allow(panic, reason = \"fixture\")\n");
        assert_eq!(c.directives.suppressions.len(), 1);
        assert_eq!(c.directives.suppressions[0].target_line, 1);
        assert!(c.is_suppressed(Lint::Panic, 1));
    }

    #[test]
    fn standalone_allow_targets_next_code_line() {
        let c = ctx(
            "// rt-lint: allow(unsafe, reason = \"fixture\")\n// another comment\nlet x = 1;\n",
        );
        assert_eq!(c.directives.suppressions[0].target_line, 3);
    }

    #[test]
    fn missing_reason_is_a_finding() {
        let c = ctx("// rt-lint: allow(panic)\nlet x = 1;\n");
        assert_eq!(c.directives.suppressions.len(), 0);
        assert_eq!(c.directives.findings.len(), 1);
        assert!(c.directives.findings[0].message.contains("mandatory"));
    }

    #[test]
    fn unknown_lint_id_is_a_finding() {
        let c = ctx("// rt-lint: allow(speling, reason = \"oops\")\n");
        assert_eq!(c.directives.findings.len(), 1);
        assert!(c.directives.findings[0].message.contains("unknown lint id"));
    }

    #[test]
    fn cfg_test_spans_cover_the_gated_block() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() {}\n}\nfn c() {}\n";
        let c = ctx(src);
        let a_pos = c
            .lexed
            .tokens
            .iter()
            .position(|t| t.text == "b")
            .unwrap_or(0);
        let c_pos = c
            .lexed
            .tokens
            .iter()
            .position(|t| t.text == "c")
            .unwrap_or(0);
        assert!(c.in_cfg_test(a_pos));
        assert!(!c.in_cfg_test(c_pos));
    }
}
