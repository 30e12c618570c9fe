//! Fixture self-tests: every lint must fire on a minimal positive case,
//! stay silent on the matching negative case, and honour (only) well-formed
//! suppressions. The fixtures go through [`rt_lint::lint_sources`], the same
//! engine the CLI uses, with workspace-shaped paths driving classification.

use rt_lint::{lint_sources, Input, Lint, Report};

/// A minimal stand-in for `rt-model::time`: declares the clamp whitelist so
/// the time-arith lint has policed operator forms, and the time newtypes so
/// the workspace index sees them declared somewhere.
const TIME_FIXTURE: &str = "#![forbid(unsafe_code)]\n\
     pub struct Instant(u64);\n\
     pub struct Span(u64);\n\
     // rt-lint: time-arith-clamp(Instant - Instant)\n\
     // rt-lint: time-arith-clamp(Instant - Span)\n\
     // rt-lint: time-arith-clamp(Span - Span)\n\
     // rt-lint: time-arith-clamp(Span -= Span)\n";

fn lint_with_time(path: &str, src: &str) -> Report {
    lint_sources(
        &[
            Input::new("crates/model/src/time.rs", TIME_FIXTURE),
            Input::new(path, src),
        ],
        None,
    )
}

fn ids(report: &Report) -> Vec<(&'static str, u32)> {
    report.active().map(|f| (f.lint.id(), f.line)).collect()
}

#[test]
fn time_arith_fires_on_raw_instant_subtraction() {
    let report = lint_with_time(
        "crates/core/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         pub fn slack(a: Instant, b: Instant) -> Span {\n\
             a - b\n\
         }\n",
    );
    assert_eq!(ids(&report), vec![("time-arith", 3)]);
}

#[test]
fn time_arith_fires_on_span_sub_assign() {
    let report = lint_with_time(
        "crates/core/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         pub fn burn(mut left: Span, used: Span) -> Span {\n\
             left -= used;\n\
             left\n\
         }\n",
    );
    assert_eq!(ids(&report), vec![("time-arith", 3)]);
}

#[test]
fn time_arith_ignores_named_subtractions_and_integers() {
    let report = lint_with_time(
        "crates/core/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         pub fn fine(a: Instant, b: Instant, x: u64, y: u64) -> u64 {\n\
             let _s = a.since(b);\n\
             let _t = a.saturating_since(b);\n\
             x - y\n\
         }\n",
    );
    assert_eq!(ids(&report), Vec::<(&str, u32)>::new());
}

#[test]
fn time_arith_leaves_addition_alone() {
    // `+` saturates at the unreachable MAX sentinel and is the documented
    // construction idiom — only the zero-clamping subtractions are policed.
    let report = lint_with_time(
        "crates/core/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         pub fn deadline(release: Instant, relative: Span) -> Instant {\n\
             release + relative\n\
         }\n",
    );
    assert_eq!(ids(&report), Vec::<(&str, u32)>::new());
}

#[test]
fn time_arith_does_not_flag_unknown_operands() {
    // The classifier is a ratchet, not a prover: operands it cannot type
    // must never produce findings.
    let report = lint_with_time(
        "crates/core/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         pub fn opaque(v: &[u64]) -> u64 {\n\
             v[0] - v[1]\n\
         }\n",
    );
    assert_eq!(ids(&report), Vec::<(&str, u32)>::new());
}

#[test]
fn time_arith_is_skipped_in_test_code() {
    let report = lint_with_time(
        "crates/core/tests/ops.rs",
        "fn check(a: Instant, b: Instant) -> Span {\n\
             a - b\n\
         }\n",
    );
    assert_eq!(ids(&report), Vec::<(&str, u32)>::new());
}

#[test]
fn missing_clamp_whitelist_is_a_configuration_finding() {
    let report = lint_sources(
        &[Input::new(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
        )],
        None,
    );
    assert_eq!(ids(&report), vec![("suppression", 1)]);
}

#[test]
fn determinism_fires_on_hashmap_in_engine_crates() {
    let report = lint_with_time(
        "crates/rtss/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         use std::collections::HashMap;\n\
         pub fn build() -> HashMap<u32, u32> {\n\
             HashMap::new()\n\
         }\n",
    );
    let found = ids(&report);
    assert!(
        found.iter().all(|(id, _)| *id == "determinism") && found.len() == 3,
        "expected 3 determinism findings, got {found:?}"
    );
}

#[test]
fn determinism_fires_on_wall_clock_reads() {
    let report = lint_with_time(
        "crates/rtsj/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         pub fn now() -> std::time::Instant {\n\
             std::time::Instant::now()\n\
         }\n",
    );
    assert!(
        report.active().all(|f| f.lint == Lint::Determinism) && report.active_count() >= 2,
        "expected determinism findings, got {:?}",
        ids(&report)
    );
}

#[test]
fn determinism_ignores_non_engine_crates_and_tests() {
    for path in [
        "crates/metrics/src/lib.rs", // not an engine crate
        "crates/rtss/tests/any.rs",  // engine crate, test code
    ] {
        let src = if path.ends_with("lib.rs") {
            "#![forbid(unsafe_code)]\nuse std::collections::HashMap;\npub type M = HashMap<u32, u32>;\n"
        } else {
            "use std::collections::HashMap;\npub type M = HashMap<u32, u32>;\n"
        };
        let report = lint_with_time(path, src);
        assert_eq!(ids(&report), Vec::<(&str, u32)>::new(), "path {path}");
    }
}

#[test]
fn determinism_file_allow_exempts_the_whole_file() {
    let report = lint_with_time(
        "crates/rtsj/src/demo.rs",
        "// rt-lint: allow-file(determinism, reason = \"wall-clock demo adapter\")\n\
         pub fn now() -> std::time::Instant {\n\
             std::time::Instant::now()\n\
         }\n",
    );
    assert_eq!(ids(&report), Vec::<(&str, u32)>::new());
}

#[test]
fn determinism_fires_on_thread_local_state_in_engine_crates() {
    let report = lint_with_time(
        "crates/core/src/scratch.rs",
        "use std::cell::Cell;\n\
         thread_local! {\n\
             static RUNS: Cell<u32> = const { Cell::new(0) };\n\
         }\n",
    );
    assert_eq!(ids(&report), vec![("determinism", 2)]);
}

#[test]
fn determinism_honours_a_reasoned_allow_on_thread_local_scratch() {
    let report = lint_with_time(
        "crates/rtss/src/scratch.rs",
        "use std::cell::Cell;\n\
         // rt-lint: allow(determinism, reason = \"capacity-only scratch, empty between runs\")\n\
         thread_local! {\n\
             static SCRATCH: Cell<Option<Vec<u32>>> = const { Cell::new(None) };\n\
         }\n",
    );
    assert_eq!(ids(&report), Vec::<(&str, u32)>::new());
}

#[test]
fn determinism_exempts_thread_local_state_in_cfg_test_code() {
    let report = lint_with_time(
        "crates/core/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         #[cfg(test)]\n\
         mod tests {\n\
             thread_local! {\n\
                 static CALLS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };\n\
             }\n\
         }\n",
    );
    assert_eq!(ids(&report), Vec::<(&str, u32)>::new());
}

#[test]
fn zero_alloc_fires_inside_marked_fn_only() {
    let report = lint_with_time(
        "crates/rtss/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         pub fn setup() -> Vec<u32> {\n\
             vec![1, 2, 3]\n\
         }\n\
         // rt-lint: zero-alloc\n\
         pub fn hot(buf: &mut Vec<u32>) {\n\
             let spill = vec![4];\n\
             buf.extend(spill);\n\
         }\n",
    );
    assert_eq!(ids(&report), vec![("zero-alloc", 7)]);
}

#[test]
fn zero_alloc_sees_through_nesting_and_reports_each_site_once() {
    // A marked fn nested inside a marked fn: the overlapping regions must
    // not double-report the shared violation.
    let report = lint_with_time(
        "crates/rtss/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         // rt-lint: zero-alloc\n\
         pub fn outer() {\n\
             // rt-lint: zero-alloc\n\
             fn inner() -> String {\n\
                 String::new()\n\
             }\n\
             inner();\n\
         }\n",
    );
    assert_eq!(ids(&report), vec![("zero-alloc", 6)]);
    assert_eq!(report.regions.len(), 2);
}

#[test]
fn zero_alloc_allows_plain_pushes() {
    let report = lint_with_time(
        "crates/rtss/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         // rt-lint: zero-alloc\n\
         pub fn hot(buf: &mut Vec<u32>, x: u32) {\n\
             buf.push(x);\n\
         }\n",
    );
    assert_eq!(ids(&report), Vec::<(&str, u32)>::new());
    assert_eq!(report.regions.len(), 1);
    assert_eq!(report.regions[0].1.fn_name, "hot");
}

#[test]
fn unmatched_zero_alloc_marker_is_reported() {
    let report = lint_with_time(
        "crates/rtss/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         pub fn f() {}\n\
         // rt-lint: zero-alloc\n",
    );
    assert_eq!(ids(&report), vec![("suppression", 3)]);
}

#[test]
fn panic_policy_fires_in_library_code_only() {
    let lib = "#![forbid(unsafe_code)]\n\
         pub fn get(v: &[u32]) -> u32 {\n\
             *v.first().unwrap()\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
             #[test]\n\
             fn t() {\n\
                 super::get(&[1]);\n\
                 Some(1).unwrap();\n\
             }\n\
         }\n";
    let report = lint_with_time("crates/core/src/lib.rs", lib);
    assert_eq!(ids(&report), vec![("panic", 3)]);

    for path in ["crates/core/tests/t.rs", "crates/core/benches/b.rs"] {
        let report = lint_with_time(path, "fn f() { Some(1).unwrap(); }\n");
        assert_eq!(ids(&report), Vec::<(&str, u32)>::new(), "path {path}");
    }
}

#[test]
fn panic_policy_suppression_with_reason_is_honoured() {
    let report = lint_with_time(
        "crates/core/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         pub fn get(v: &[u32]) -> u32 {\n\
             // rt-lint: allow(panic, reason = \"callers guarantee non-empty input\")\n\
             *v.first().unwrap()\n\
         }\n",
    );
    assert_eq!(ids(&report), Vec::<(&str, u32)>::new());
}

#[test]
fn suppression_without_reason_is_rejected_and_does_not_suppress() {
    let report = lint_with_time(
        "crates/core/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         pub fn get(v: &[u32]) -> u32 {\n\
             // rt-lint: allow(panic)\n\
             *v.first().unwrap()\n\
         }\n",
    );
    // Both the malformed directive and the unsuppressed finding surface.
    assert_eq!(ids(&report), vec![("suppression", 3), ("panic", 4)]);
}

#[test]
fn unknown_lint_id_in_allow_is_rejected() {
    let report = lint_with_time(
        "crates/core/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         // rt-lint: allow(speed, reason = \"no such lint\")\n\
         pub fn f() {}\n",
    );
    assert_eq!(ids(&report), vec![("suppression", 2)]);
}

#[test]
fn unsafe_requires_a_reasoned_allow() {
    let bare = lint_with_time(
        "crates/core/src/lib.rs",
        "pub fn read(p: *const u32) -> u32 {\n\
             unsafe { *p }\n\
         }\n",
    );
    assert_eq!(ids(&bare), vec![("unsafe", 2)]);

    let allowed = lint_with_time(
        "crates/core/src/lib.rs",
        "pub fn read(p: *const u32) -> u32 {\n\
             // rt-lint: allow(unsafe, reason = \"caller contract: p is valid and aligned\")\n\
             unsafe { *p }\n\
         }\n",
    );
    assert_eq!(ids(&allowed), Vec::<(&str, u32)>::new());
}

#[test]
fn forbid_unsafe_ratchet_guards_unsafe_free_crate_roots() {
    let missing = lint_with_time("crates/core/src/lib.rs", "pub fn f() {}\n");
    assert_eq!(ids(&missing), vec![("unsafe", 1)]);

    let present = lint_with_time(
        "crates/core/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f() {}\n",
    );
    assert_eq!(ids(&present), Vec::<(&str, u32)>::new());
}

#[test]
fn compat_crates_only_get_the_unsafe_tier() {
    let report = lint_with_time(
        "crates/compat/rand/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         use std::collections::HashMap;\n\
         pub fn f(v: &[u32]) -> u32 {\n\
             *v.first().unwrap()\n\
         }\n",
    );
    assert_eq!(ids(&report), Vec::<(&str, u32)>::new());
}

#[test]
fn baseline_downgrades_matching_findings_and_flags_stale_entries() {
    let inputs = [
        Input::new("crates/model/src/time.rs", TIME_FIXTURE),
        Input::new(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn get(v: &[u32]) -> u32 {\n\
                 *v.first().unwrap()\n\
             }\n",
        ),
    ];

    // Matching entry: the finding is reported but no longer gates.
    let report = lint_sources(&inputs, Some("crates/core/src/lib.rs:3:panic\n"));
    assert_eq!(report.active_count(), 0);
    assert_eq!(report.findings.iter().filter(|f| f.baselined).count(), 1);

    // Stale entry: itself a finding, so baselines cannot rot silently.
    let report = lint_sources(&inputs, Some("crates/core/src/lib.rs:99:panic\n"));
    let stale: Vec<_> = report
        .active()
        .filter(|f| f.lint == Lint::Suppression)
        .collect();
    assert_eq!(stale.len(), 1, "stale baseline entry must surface");
    assert_eq!(report.active_count(), 2); // the panic finding still gates

    // Malformed line: reported, nothing suppressed.
    let report = lint_sources(&inputs, Some("not-a-baseline-line\n"));
    assert_eq!(report.active_count(), 2);
}
