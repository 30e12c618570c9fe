//! L1 — time-arithmetic: raw clamping operators on `Instant`/`Span`.
//!
//! `rt-model::time` deliberately implements `Instant - Instant`,
//! `Instant - Span`, `Span - Span` and `Span -= Span` as *saturating*
//! operations: measurement call sites (elapsed time, slack, possibly-empty
//! windows) want the clamp. But the same clamp silently masks real bugs —
//! a completion before its start, a budget under-run — which is exactly
//! what the PR-4 masked-underflow audit dug out by hand. This lint makes
//! the audit permanent: outside `rt-model::time` itself, the clamping
//! operator forms (declared *in* that file via `time-arith-clamp(...)`
//! annotations on the operator impls — code, docs and lint share one list)
//! are forbidden. Call sites must pick an explicit subtraction:
//!
//! * `a.since(b)` / `s.minus(t)` — debug-checked, for "b is earlier by
//!   construction" sites where inversion means a bug;
//! * `a.saturating_since(b)` / `s.saturating_sub(t)` — for legitimate
//!   clamp-to-zero measurements;
//! * `a.checked_since(b)` / `s.checked_sub(t)` — when the caller branches.
//!
//! The operand classifier is a local, best-effort type inference: explicit
//! ascriptions and time-typed initializers bind locals, the workspace
//! [`TimeIndex`] classifies field accesses and method returns, and anything
//! `Unknown` is *not* flagged — the lint is a ratchet, not a prover.

use crate::context::{FileCtx, FileKind};
use crate::diag::{Finding, Lint};
use crate::index::{TimeIndex, TimeKind};
use crate::lexer::TokenKind;
use std::collections::BTreeMap;

/// Classification of one expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Time(Option<TimeKind>),
    NotTime,
    Unknown,
}

impl Class {
    fn is_time(self) -> bool {
        matches!(self, Class::Time(_))
    }

    fn merge_binding(self, other: Class) -> Class {
        match (self, other) {
            (Class::Time(a), Class::Time(b)) => Class::Time(if a == b { a } else { None }),
            (a, b) if a == b => a,
            _ => Class::Unknown,
        }
    }
}

/// Std methods that exist on integers too — classified by receiver, never
/// by the workspace method index.
const AMBIGUOUS_STD: &[&str] = &[
    "min",
    "max",
    "clamp",
    "clone",
    "abs_diff",
    "saturating_sub",
    "saturating_add",
    "saturating_mul",
    "checked_sub",
    "checked_add",
    "checked_mul",
    "wrapping_sub",
    "wrapping_add",
    "pow",
    "rem_euclid",
    "len",
    "capacity",
];

/// Time-type constructors (associated fns on `Instant`/`Span`).
const TIME_CTORS: &[&str] = &["from_ticks", "from_units", "from_units_f64"];

/// Time-type associated consts.
const TIME_CONSTS: &[&str] = &["ZERO", "MAX"];

/// Runs L1 on one file. `index` carries the workspace field/method types
/// and the clamp-form whitelist parsed from `rt-model::time`.
pub fn run(ctx: &FileCtx, index: &TimeIndex, out: &mut Vec<Finding>) {
    // Only shipped code: the operators' semantics are *asserted* by tests,
    // which legitimately exercise the raw forms.
    if !matches!(ctx.kind, FileKind::LibSrc | FileKind::BinSrc) {
        return;
    }
    // The declaring file is the whitelist: the clamp impls live here.
    if !ctx.directives.clamp_forms.is_empty() {
        return;
    }
    let policed = index.policed_ops();
    if policed.is_empty() {
        return; // runner reports the missing-whitelist configuration error
    }

    let toks = &ctx.lexed.tokens;
    for f in ctx.fn_spans() {
        let Some((body_open, body_close)) = f.body else {
            continue;
        };
        let locals = collect_locals(ctx, index, f.fn_tok, body_close);
        let last = body_close.min(toks.len().saturating_sub(1));
        for (i, tok) in toks.iter().enumerate().take(last + 1).skip(body_open) {
            if tok.kind != TokenKind::Punct || !policed.contains(&tok.text) {
                continue;
            }
            if tok.text == "-" && !is_binary_minus(ctx, i) {
                continue;
            }
            if ctx.in_cfg_test(i) {
                continue;
            }
            let lhs = operand_before(ctx, i)
                .map(|s| classify_postfix(ctx, index, &locals, s, i))
                .unwrap_or(Class::Unknown);
            let rhs = operand_after(ctx, i)
                .map(|(s, e)| classify_postfix(ctx, index, &locals, s, e))
                .unwrap_or(Class::Unknown);
            if lhs.is_time() || rhs.is_time() {
                let form = describe_form(lhs, rhs, &tok.text);
                ctx.push(
                    out,
                    Lint::TimeArith,
                    tok.line,
                    tok.col,
                    format!(
                        "raw `{form}` saturates silently — use since()/minus() (debug-checked), \
                         saturating_since()/saturating_sub() (intentional clamp) or the \
                         checked_* forms; the operator clamps are whitelisted only inside \
                         rt-model::time"
                    ),
                );
            }
        }
    }
}

fn describe_form(lhs: Class, rhs: Class, op: &str) -> String {
    let name = |c: Class| match c {
        Class::Time(Some(k)) => k.name(),
        Class::Time(None) => "time",
        _ => "_",
    };
    format!("{} {} {}", name(lhs), op, name(rhs))
}

/// A `-` is binary when something that can end an expression precedes it.
fn is_binary_minus(ctx: &FileCtx, i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).map(|j| &ctx.lexed.tokens[j]) else {
        return false;
    };
    matches!(
        prev.kind,
        TokenKind::Ident | TokenKind::Num | TokenKind::Str | TokenKind::Char
    ) && prev.text != "return"
        && prev.text != "as"
        && prev.text != "match"
        && prev.text != "in"
        || (prev.kind == TokenKind::Punct && (prev.text == ")" || prev.text == "]"))
}

/// Start index of the postfix chain ending just before token `i`.
fn operand_before(ctx: &FileCtx, i: usize) -> Option<usize> {
    let toks = &ctx.lexed.tokens;
    let mut j = i; // exclusive upper bound of the remaining walk
    let mut start: Option<usize> = None;
    loop {
        let Some(k) = j.checked_sub(1) else {
            return start;
        };
        let t = &toks[k];
        match start {
            None => {
                // Consume the primary.
                if t.text == ")" || t.text == "]" {
                    let open = ctx.pairs[k]?;
                    start = Some(open);
                    j = open;
                } else if matches!(t.kind, TokenKind::Ident | TokenKind::Num) {
                    start = Some(k);
                    j = k;
                } else {
                    return None;
                }
            }
            Some(_) => {
                // Extend left over call bases, field chains and paths.
                if t.kind == TokenKind::Ident && (toks[j].text == "(" || toks[j].text == "[") {
                    start = Some(k);
                    j = k;
                } else if t.text == "." || t.text == "::" {
                    let Some(b) = k.checked_sub(1) else {
                        return start;
                    };
                    if matches!(toks[b].kind, TokenKind::Ident | TokenKind::Num) {
                        start = Some(b);
                        j = b;
                    } else if toks[b].text == ")" || toks[b].text == "]" {
                        let Some(open) = ctx.pairs[b] else {
                            return start;
                        };
                        start = Some(open);
                        j = open;
                    } else {
                        return start;
                    }
                } else {
                    return start;
                }
            }
        }
    }
}

/// `(start, end_exclusive)` of the postfix chain starting just after `i`.
fn operand_after(ctx: &FileCtx, i: usize) -> Option<(usize, usize)> {
    let toks = &ctx.lexed.tokens;
    let mut j = i + 1;
    // Skip prefix operators.
    while j < toks.len()
        && toks[j].kind == TokenKind::Punct
        && matches!(toks[j].text.as_str(), "&" | "&&" | "*" | "!" | "-")
    {
        j += 1;
    }
    let start = j;
    if j >= toks.len() {
        return None;
    }
    // Primary.
    match toks[j].kind {
        TokenKind::Ident | TokenKind::Num => j += 1,
        TokenKind::Punct if toks[j].text == "(" || toks[j].text == "[" => {
            j = ctx.pairs[j]? + 1;
        }
        _ => return None,
    }
    // Postfix extensions.
    while j < toks.len() {
        let t = &toks[j];
        if t.text == "." || t.text == "::" {
            let Some(next) = toks.get(j + 1) else { break };
            if matches!(next.kind, TokenKind::Ident | TokenKind::Num) {
                j += 2;
                continue;
            }
            break;
        }
        if t.text == "(" || t.text == "[" {
            j = ctx.pairs[j]? + 1;
            continue;
        }
        if t.text == "?" {
            j += 1;
            continue;
        }
        break;
    }
    Some((start, j))
}

/// Local bindings of a fn: explicit ascriptions plus classified `let`s.
fn collect_locals(
    ctx: &FileCtx,
    index: &TimeIndex,
    fn_tok: usize,
    fn_end: usize,
) -> BTreeMap<String, Class> {
    let toks = &ctx.lexed.tokens;
    let mut locals: BTreeMap<String, Class> = BTreeMap::new();
    let bind = |name: &str, class: Class, locals: &mut BTreeMap<String, Class>| {
        locals
            .entry(name.to_string())
            .and_modify(|c| *c = c.merge_binding(class))
            .or_insert(class);
    };

    // Pass 1: `name: Type` ascriptions (params, typed lets, closure args).
    let mut i = fn_tok;
    while i + 2 <= fn_end && i + 2 < toks.len() {
        if toks[i].kind == TokenKind::Ident && toks[i + 1].text == ":" {
            let mut j = i + 2;
            while j < toks.len()
                && (toks[j].text == "&"
                    || toks[j].text == "&&"
                    || toks[j].text == "mut"
                    || toks[j].kind == TokenKind::Lifetime)
            {
                j += 1;
            }
            if j < toks.len() && toks[j].kind == TokenKind::Ident {
                let followed_by = toks.get(j + 1).map(|t| t.text.as_str());
                if followed_by != Some("::") && followed_by != Some("(") {
                    let class = match crate::index::type_token_class(&toks[j].text) {
                        Some(true) => Some(Class::Time(TimeKind::from_type(&toks[j].text))),
                        Some(false) => Some(Class::NotTime),
                        None => None,
                    };
                    if let Some(class) = class {
                        bind(&toks[i].text.clone(), class, &mut locals);
                    }
                }
            }
        }
        i += 1;
    }

    // Pass 2: untyped `let name = init;` classified by the initializer.
    let mut i = fn_tok;
    while i + 3 <= fn_end && i + 3 < toks.len() {
        if toks[i].text == "let" && toks[i].kind == TokenKind::Ident {
            let mut j = i + 1;
            if j < toks.len() && toks[j].text == "mut" {
                j += 1;
            }
            if j + 1 < toks.len() && toks[j].kind == TokenKind::Ident && toks[j + 1].text == "=" {
                let name = toks[j].text.clone();
                let init_start = j + 2;
                // Initializer runs to the `;` at bracket depth 0.
                let mut k = init_start;
                while k < toks.len() && k <= fn_end && toks[k].text != ";" {
                    if matches!(toks[k].text.as_str(), "(" | "[" | "{") {
                        k = ctx.pairs[k].map_or(toks.len(), |c| c);
                    }
                    k += 1;
                }
                let class = classify_expr(ctx, index, &locals, init_start, k);
                bind(&name, class, &mut locals);
            }
        }
        i += 1;
    }
    locals
}

/// Classifies a full expression span: handles casts, comparisons and
/// top-level additive/multiplicative structure, then defers to the postfix
/// classifier.
fn classify_expr(
    ctx: &FileCtx,
    index: &TimeIndex,
    locals: &BTreeMap<String, Class>,
    start: usize,
    end: usize,
) -> Class {
    let toks = &ctx.lexed.tokens;
    if start >= end || end > toks.len() {
        return Class::Unknown;
    }
    // Strip one level of full-span parentheses.
    if toks[start].text == "(" && ctx.pairs[start] == Some(end - 1) {
        return classify_expr(ctx, index, locals, start + 1, end - 1);
    }
    // Scan depth 0.
    let mut i = start;
    let mut last_additive: Option<usize> = None;
    let mut has_mul = false;
    while i < end {
        let t = &toks[i];
        match t.text.as_str() {
            "(" | "[" | "{" => {
                i = ctx.pairs[i].map_or(end, |c| c + 1);
                continue;
            }
            "as" if t.kind == TokenKind::Ident => return Class::NotTime,
            "if" | "match" | "return" if t.kind == TokenKind::Ident => return Class::Unknown,
            "==" | "!=" | "<=" | ">=" | "<" | ">" | "&&" | "||" | ".." | "..=" => {
                return Class::NotTime
            }
            "+" => last_additive = Some(i),
            "-" if is_binary_minus(ctx, i) => last_additive = Some(i),
            "*" | "/" | "%" if i > start => has_mul = true,
            _ => {}
        }
        i += 1;
    }
    if let Some(op) = last_additive {
        let lhs = classify_expr(ctx, index, locals, start, op);
        let rhs = classify_expr(ctx, index, locals, op + 1, end);
        return if lhs.is_time() || rhs.is_time() {
            Class::Time(None)
        } else if lhs == Class::NotTime && rhs == Class::NotTime {
            Class::NotTime
        } else {
            Class::Unknown
        };
    }
    if has_mul {
        // `span * n` stays a span; classify the leading factor.
        let mut op = start;
        while op < end {
            match toks[op].text.as_str() {
                "(" | "[" | "{" => op = ctx.pairs[op].map_or(end, |c| c + 1),
                "*" | "/" | "%" if op > start => break,
                _ => op += 1,
            }
        }
        let lhs = classify_expr(ctx, index, locals, start, op);
        return if lhs.is_time() {
            Class::Time(None)
        } else {
            lhs
        };
    }
    classify_postfix(ctx, index, locals, start, end)
}

/// Classifies a postfix chain `base.seg.seg(...)...` by its *last* segment.
fn classify_postfix(
    ctx: &FileCtx,
    index: &TimeIndex,
    locals: &BTreeMap<String, Class>,
    start: usize,
    end: usize,
) -> Class {
    let toks = &ctx.lexed.tokens;
    if start >= end || end > toks.len() {
        return Class::Unknown;
    }
    let last = end - 1;
    let t = &toks[last];

    // `expr?` — propagate to the inner chain.
    if t.text == "?" {
        return classify_postfix(ctx, index, locals, start, last);
    }

    // Call or group or index.
    if t.text == ")" {
        let Some(open) = ctx.pairs[last] else {
            return Class::Unknown;
        };
        if open == start {
            // Parenthesized group: classify as an expression.
            return classify_expr(ctx, index, locals, start + 1, last);
        }
        if open == 0 || open <= start {
            return Class::Unknown;
        }
        let callee = &toks[open - 1];
        if callee.kind != TokenKind::Ident {
            return Class::Unknown;
        }
        let before = if open - 1 > start {
            Some(&toks[open - 2])
        } else {
            None
        };
        match before.map(|t| t.text.as_str()) {
            Some(".") => {
                let name = callee.text.as_str();
                if AMBIGUOUS_STD.contains(&name) {
                    // Receiver-typed: u64 has these too.
                    return match classify_postfix(ctx, index, locals, start, open - 2) {
                        Class::Time(k) => Class::Time(k),
                        other => other,
                    };
                }
                match index.method_returns_time(name) {
                    Some(true) => Class::Time(None),
                    Some(false) => Class::NotTime,
                    None => Class::Unknown,
                }
            }
            Some("::") => {
                // Path call: `Instant::from_units(...)`, `Span::from_ticks(..)`.
                let comp = open.checked_sub(3).map(|k| &toks[k]);
                match comp.and_then(|c| TimeKind::from_type(&c.text)) {
                    Some(kind) if TIME_CTORS.contains(&callee.text.as_str()) => {
                        Class::Time(Some(kind))
                    }
                    Some(_) => match index.method_returns_time(&callee.text) {
                        Some(true) => Class::Time(None),
                        Some(false) => Class::NotTime,
                        None => Class::Unknown,
                    },
                    None => match index.method_returns_time(&callee.text) {
                        Some(true) => Class::Time(None),
                        _ => Class::Unknown,
                    },
                }
            }
            _ => {
                // Free function call.
                match index.method_returns_time(&callee.text) {
                    Some(true) => Class::Time(None),
                    Some(false) => Class::NotTime,
                    None => Class::Unknown,
                }
            }
        }
    } else if t.text == "]" {
        Class::Unknown
    } else if t.kind == TokenKind::Num {
        // Numeric literal, or tuple index (`.0` on a newtype is its raw
        // integer payload).
        Class::NotTime
    } else if t.kind == TokenKind::Ident {
        let before = if last > start {
            Some(&toks[last - 1])
        } else {
            None
        };
        match before.map(|t| t.text.as_str()) {
            Some("::") => {
                let comp = last.checked_sub(2).map(|k| &toks[k]);
                match comp.and_then(|c| TimeKind::from_type(&c.text)) {
                    Some(kind) if TIME_CONSTS.contains(&t.text.as_str()) => Class::Time(Some(kind)),
                    _ => Class::Unknown,
                }
            }
            Some(".") => {
                if index.field_is_time(&t.text) {
                    Class::Time(index.field_time(&t.text))
                } else {
                    Class::Unknown
                }
            }
            _ => locals.get(&t.text).copied().unwrap_or(Class::Unknown),
        }
    } else {
        Class::Unknown
    }
}
