//! Workspace file discovery.
//!
//! The walker is deliberately dumb and deterministic: it collects every
//! `.rs` file under the workspace root except `target/` and hidden
//! directories, sorted by path, that is either classified by its path shape
//! or only read (the pipeline benchmark's sources, see
//! [`is_reader_only`]). No Cargo metadata is consulted — the linter must
//! work on a tree that does not currently compile.

use crate::context::FileKind;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A discovered source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative `/`-separated path.
    pub rel_path: String,
    pub abs_path: PathBuf,
}

/// True for the files rt-lint reads but does not lint: the sources and
/// tests of the pipeline benchmark, its own workspace, whose uses of the
/// library count for the `unread-pub` census.
pub fn is_reader_only(rel_path: &str) -> bool {
    rel_path.ends_with(".rs")
        && (rel_path.starts_with("perfbench/src/") || rel_path.starts_with("perfbench/tests/"))
}

/// Classifies a workspace-relative path; `None` for files rt-lint does not
/// look at (e.g. generated code under target/).
pub fn classify(rel_path: &str) -> Option<(FileKind, String)> {
    if !rel_path.ends_with(".rs") {
        return None;
    }
    let crate_dir = if let Some(rest) = rel_path.strip_prefix("crates/") {
        let mut parts = rest.split('/');
        let first = parts.next()?;
        if first == "compat" {
            format!("crates/compat/{}", parts.next()?)
        } else {
            format!("crates/{first}")
        }
    } else {
        ".".to_string()
    };
    let within = if crate_dir == "." {
        rel_path
    } else {
        rel_path.strip_prefix(&crate_dir)?.trim_start_matches('/')
    };
    let kind = if within.starts_with("src/bin/") {
        FileKind::BinSrc
    } else if within.starts_with("src/") {
        FileKind::LibSrc
    } else if within.starts_with("tests/") {
        FileKind::TestCode
    } else if within.starts_with("benches/") {
        FileKind::Bench
    } else if within.starts_with("examples/") {
        FileKind::Example
    } else {
        return None; // build.rs etc. — out of scope
    };
    Some((kind, crate_dir))
}

/// Walks the workspace and returns every lintable or reader-only source
/// file, path-sorted.
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue, // unreadable directory — skip, not fatal
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = crate::diag::display_path(root, &path);
                if classify(&rel).is_some() || is_reader_only(&rel) {
                    files.push(SourceFile {
                        rel_path: rel,
                        abs_path: path,
                    });
                }
            }
        }
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]` — the linter's root when none is given.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
