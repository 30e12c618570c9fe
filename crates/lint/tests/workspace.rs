//! Workspace-level self-tests: rt-lint run against the repository it ships
//! in. These pin the headline guarantee — the tree is lint-clean — plus the
//! static↔dynamic zero-alloc bridge and the "fast enough to gate every CI
//! run" requirement.

use rt_lint::{run_workspace, Report};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

fn workspace_root() -> PathBuf {
    let start = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    rt_lint::walk::find_workspace_root(&start).expect("rt-lint lives inside the workspace")
}

fn lint_workspace() -> Report {
    run_workspace(&workspace_root()).expect("workspace sources are readable")
}

#[test]
fn the_workspace_is_lint_clean() {
    let report = lint_workspace();
    let stray: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        stray.is_empty(),
        "the tree must stay lint-clean; fix or suppress (with a reason):\n{}",
        stray.join("\n")
    );
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned ({}) — did discovery break?",
        report.files_scanned
    );
}

/// The static zero-alloc regions and the dynamic coverage manifest in
/// `crates/bench/tests/zero_alloc.rs` must agree exactly, in both
/// directions: a marker without a manifest entry is a hot loop nobody runs
/// under the counting allocator; a manifest entry without a marker is a
/// dynamic test whose static half was dropped.
#[test]
fn zero_alloc_markers_match_the_dynamic_coverage_manifest() {
    let report = lint_workspace();
    let marked: BTreeSet<(String, String)> = report
        .regions
        .iter()
        .map(|(path, region)| (path.clone(), region.fn_name.clone()))
        .collect();

    let manifest_src =
        std::fs::read_to_string(workspace_root().join("crates/bench/tests/zero_alloc.rs"))
            .expect("the dynamic zero-alloc test must exist");
    let covered = parse_manifest(&manifest_src);
    assert!(
        !covered.is_empty(),
        "failed to parse ZERO_ALLOC_COVERED_FNS out of crates/bench/tests/zero_alloc.rs"
    );

    let unmarked: Vec<_> = covered.difference(&marked).collect();
    let untested: Vec<_> = marked.difference(&covered).collect();
    assert!(
        unmarked.is_empty() && untested.is_empty(),
        "static markers and dynamic manifest diverged\n\
         in manifest but not marked `// rt-lint: zero-alloc`: {unmarked:?}\n\
         marked but missing from ZERO_ALLOC_COVERED_FNS: {untested:?}"
    );
}

/// Extracts the `(file, fn)` pairs from the `ZERO_ALLOC_COVERED_FNS` table.
/// Parsing is intentionally dumb — string-literal pairs between the table's
/// declaration and the closing `];` — so the manifest stays a plain array.
fn parse_manifest(src: &str) -> BTreeSet<(String, String)> {
    let mut pairs = BTreeSet::new();
    let Some(start) = src.find("ZERO_ALLOC_COVERED_FNS") else {
        return pairs;
    };
    let Some(end) = src[start..].find("];") else {
        return pairs;
    };
    let table = &src[start..start + end];
    for line in table.lines() {
        // `("<file>", "<fn>"),` → split on `"` → [<file>, ", ", <fn>, "),"]
        let Some(inner) = line.trim().strip_prefix("(\"") else {
            continue;
        };
        let parts: Vec<&str> = inner.split('"').collect();
        if let (Some(file), Some(fn_name)) = (parts.first(), parts.get(2)) {
            if !file.is_empty() && !fn_name.is_empty() {
                pairs.insert((file.to_string(), fn_name.to_string()));
            }
        }
    }
    pairs
}

/// rt-lint gates every CI run, so a full workspace pass must stay cheap.
/// Best-of-three absorbs cold-cache noise; the bound is loose (the observed
/// debug-build time is well under a second).
#[test]
fn a_full_workspace_pass_is_fast_enough_to_gate_ci() {
    let root = workspace_root();
    let mut best = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let report = run_workspace(&root).expect("workspace sources are readable");
        let elapsed = t0.elapsed();
        std::hint::black_box(report);
        best = Some(best.map_or(elapsed, |b: std::time::Duration| b.min(elapsed)));
    }
    let best = best.expect("ran at least once");
    assert!(
        best.as_secs_f64() < 2.0,
        "a workspace lint pass took {best:.0?}; it must stay under ~2s to \
         gate every CI run"
    );
}
