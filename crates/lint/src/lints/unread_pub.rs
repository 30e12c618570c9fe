//! L6 — unread-pub: a `pub` item of library code that no other file reads.
//!
//! The reproduction grew entry points, types and helpers that nothing ever
//! called, and each one was found by hand. This lint keeps the census
//! running: a `pub` fn, method, struct, enum, trait, const, static or type
//! alias in library code is a finding when no *other* `.rs` file contains
//! its name as a code token. Comments and strings do not count, so a name
//! that only a doc link or a message mentions is still unread. Every
//! workspace file is a reader — library code, tests, benches, examples and
//! binaries — and so are the pipeline benchmark's `perfbench/src` and
//! `perfbench/tests`, which rt-lint reads but does not lint.
//!
//! The census keeps two blind spots, and errs towards silence in both:
//!
//! * it goes by bare name, not by owner: an item whose name is a common
//!   word (`new`, `len`, `raw`) is read by any file that uses that word,
//!   whichever type the use belongs to;
//! * a test file counts as a reader: an item that only tests call is not
//!   flagged, though nothing the program runs reads it.
//!
//! Items in these blind spots are found by hand, by searching for their
//! callers. Modules, fields and enum variants are out of scope, and so are
//! the compat shims and rt-lint itself. A finding is resolved by deleting
//! the item, making it private, or keeping it with
//! `// rt-lint: allow(unread-pub, reason = "...")`.

use crate::context::{FileCtx, FileKind};
use crate::diag::{Finding, Lint};
use crate::lexer::{Lexed, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// For every identifier, how many files contain it as a code token.
#[derive(Debug, Default)]
pub struct Census {
    files: BTreeMap<String, u32>,
}

impl Census {
    /// Counts the identifiers of one file, each once.
    pub fn add(&mut self, lexed: &Lexed) {
        let names: BTreeSet<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        for name in names {
            *self.files.entry(name.to_string()).or_default() += 1;
        }
    }

    /// Number of files containing `name` as a code token.
    fn files_containing(&self, name: &str) -> u32 {
        self.files.get(name).copied().unwrap_or(0)
    }
}

/// True for the crates whose items the lint checks: every crate but the
/// compat shims and rt-lint itself.
fn applies_to(crate_dir: &str) -> bool {
    !crate_dir.starts_with("crates/compat") && crate_dir != "crates/lint"
}

pub fn run(ctx: &FileCtx, census: &Census, out: &mut Vec<Finding>) {
    if ctx.kind != FileKind::LibSrc || !applies_to(&ctx.crate_dir) {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident || toks[i].text != "pub" || ctx.in_cfg_test(i) {
            continue;
        }
        let Some((item, name)) = item_after_pub(toks, i) else {
            continue;
        };
        // The declaring file always contains the name.
        if census.files_containing(&name.text) > 1 {
            continue;
        }
        ctx.push(
            out,
            Lint::UnreadPub,
            name.line,
            name.col,
            format!(
                "`pub {item} {}` is read by no other file — delete it, make it private, or \
                 keep it with rt-lint allow(unread-pub, reason = \"...\")",
                name.text
            ),
        );
    }
}

/// The item kind and name token of the item a `pub` at `pub_tok` declares,
/// when it is one the lint checks. Qualifiers (`const fn`, `unsafe`,
/// `async`, `extern "C"`) are skipped; `pub(crate)`, `pub mod`, `pub use`
/// and fields give `None`.
fn item_after_pub(toks: &[Token], pub_tok: usize) -> Option<(&'static str, &Token)> {
    let named = |item: &'static str, at: usize| {
        toks.get(at)
            .filter(|t| t.kind == TokenKind::Ident && t.text != "_")
            .map(|t| (item, t))
    };
    let mut j = pub_tok + 1;
    loop {
        let t = toks.get(j)?;
        if t.kind != TokenKind::Ident {
            return None;
        }
        match t.text.as_str() {
            "unsafe" | "async" => j += 1,
            "extern" => {
                j += 1;
                if toks.get(j)?.kind == TokenKind::Str {
                    j += 1;
                }
            }
            "const" => {
                let next = toks.get(j + 1)?;
                if matches!(next.text.as_str(), "fn" | "unsafe" | "async" | "extern") {
                    j += 1;
                } else {
                    return named("const", j + 1);
                }
            }
            "static" => {
                let mutable = toks.get(j + 1)?.text == "mut";
                return named("static", j + 1 + usize::from(mutable));
            }
            "fn" => return named("fn", j + 1),
            "struct" => return named("struct", j + 1),
            "enum" => return named("enum", j + 1),
            "trait" => return named("trait", j + 1),
            "type" => return named("type", j + 1),
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn declared(src: &str) -> Vec<(&'static str, String)> {
        let lexed = lex(src);
        let toks = &lexed.tokens;
        (0..toks.len())
            .filter(|&i| toks[i].text == "pub")
            .filter_map(|i| item_after_pub(toks, i))
            .map(|(item, name)| (item, name.text.clone()))
            .collect()
    }

    #[test]
    fn every_checked_item_kind_is_recognised() {
        let src = "pub fn a() {}\npub const fn b() {}\npub unsafe fn c() {}\n\
                   pub extern \"C\" fn d() {}\npub struct E;\npub enum F {}\n\
                   pub trait G {}\npub type H = u8;\npub const I: u8 = 0;\n\
                   pub static J: u8 = 0;\npub static mut K: u8 = 0;\n";
        let items = declared(src);
        let expected = [
            ("fn", "a"),
            ("fn", "b"),
            ("fn", "c"),
            ("fn", "d"),
            ("struct", "E"),
            ("enum", "F"),
            ("trait", "G"),
            ("type", "H"),
            ("const", "I"),
            ("static", "J"),
            ("static", "K"),
        ];
        assert_eq!(
            items,
            expected
                .map(|(item, name)| (item, name.to_string()))
                .to_vec()
        );
    }

    #[test]
    fn modules_reexports_fields_and_restricted_items_are_out_of_scope() {
        let src = "pub mod m;\npub use m::X;\npub(crate) fn f() {}\n\
                   pub struct S { pub field: u8 }\npub struct T(pub u8);\n";
        assert_eq!(
            declared(src),
            vec![("struct", "S".to_string()), ("struct", "T".to_string())]
        );
    }
}
