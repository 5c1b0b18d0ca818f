//! Acceptance tests for `cargo xtask analyze`: each pass is proven to
//! fire against a fixture crate (`tests/fixtures/*_fire.rs`) and to be
//! silenced by a justified suppression (`*_suppressed.rs`), and the
//! real tree must come out clean against the committed baseline.
//!
//! The fixtures live as standalone files (not inline strings) so they
//! stay readable as Rust and can seed new violation classes without
//! touching this test.

use xtask::analyze::{self, Workspace};
use xtask::diag::{Baseline, Report, Severity};
use xtask::scans;

/// A one-file workspace under the given crate name and path.
fn ws_one(krate: &str, rel: &str, src: &str) -> Workspace {
    let mut ws = Workspace::default();
    ws.add_source(krate, rel, src.to_string());
    ws
}

/// Run the full pipeline (passes → suppressions → empty baseline).
fn analyze(ws: &Workspace) -> Report {
    analyze::run_on(ws, Baseline::default())
}

fn gating<'a>(r: &'a Report, rule: &str) -> Vec<&'a xtask::diag::Diagnostic> {
    r.findings
        .iter()
        .filter(|d| d.rule == rule && matches!(d.severity, Severity::Deny | Severity::Warn))
        .collect()
}

// --- unit-consistency -----------------------------------------------------

#[test]
fn unit_consistency_fires_on_all_three_classes() {
    let ws = ws_one(
        "noc",
        "crates/noc/src/fixture.rs",
        include_str!("fixtures/unit_fire.rs"),
    );
    let r = analyze(&ws);
    let hits = gating(&r, "unit-consistency");
    assert_eq!(hits.len(), 3, "findings: {:?}", r.findings);
    assert!(hits.iter().any(|d| d.message.contains("raw `.0`")));
    assert!(hits
        .iter()
        .any(|d| d.message.contains("tuple construction")));
    assert!(hits.iter().any(|d| d.message.contains("cycle count")));
}

#[test]
fn unit_consistency_suppressions_silence_each_class() {
    let ws = ws_one(
        "noc",
        "crates/noc/src/fixture.rs",
        include_str!("fixtures/unit_suppressed.rs"),
    );
    let r = analyze(&ws);
    assert!(
        gating(&r, "unit-consistency").is_empty(),
        "{:?}",
        r.findings
    );
    assert_eq!(r.suppressed, 3);
}

#[test]
fn unit_consistency_exempts_the_types_crate() {
    let ws = ws_one(
        "types",
        "crates/types/src/fixture.rs",
        include_str!("fixtures/unit_fire.rs"),
    );
    let r = analyze(&ws);
    assert!(
        gating(&r, "unit-consistency").is_empty(),
        "{:?}",
        r.findings
    );
}

// --- panic-reachability ---------------------------------------------------

#[test]
fn panic_reachability_fires_only_on_the_reachable_unwrap() {
    let ws = ws_one(
        "noc",
        "crates/noc/src/fixture.rs",
        include_str!("fixtures/panic_fire.rs"),
    );
    let r = analyze(&ws);
    let hits = gating(&r, "panic-reachability");
    assert_eq!(hits.len(), 1, "findings: {:?}", r.findings);
    assert!(hits[0].message.contains("Network::drain"));
    assert!(
        !r.findings
            .iter()
            .any(|d| d.message.contains("not_reachable")),
        "dead code must not be flagged: {:?}",
        r.findings
    );
}

#[test]
fn panic_reachability_suppression_silences_the_unwrap() {
    let ws = ws_one(
        "noc",
        "crates/noc/src/fixture.rs",
        include_str!("fixtures/panic_suppressed.rs"),
    );
    let r = analyze(&ws);
    assert!(
        gating(&r, "panic-reachability").is_empty(),
        "{:?}",
        r.findings
    );
    assert_eq!(r.suppressed, 1);
}

// --- engine behaviour -----------------------------------------------------

#[test]
fn unparseable_source_is_a_deny_finding() {
    let ws = ws_one("noc", "crates/noc/src/fixture.rs", "fn broken( {");
    let r = analyze(&ws);
    assert_eq!(gating(&r, "parse-error").len(), 1, "{:?}", r.findings);
}

#[test]
fn baseline_absorbs_a_grandfathered_finding() {
    let ws = ws_one(
        "noc",
        "crates/noc/src/fixture.rs",
        include_str!("fixtures/panic_fire.rs"),
    );
    // First run records the finding; the rendered baseline must absorb
    // it on the second run.
    let first = analyze(&ws);
    let text = Baseline::render(&first.findings);
    let dir = std::env::temp_dir().join("xtask-analyze-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("baseline.json");
    std::fs::write(&path, text).expect("write baseline");

    let baseline = Baseline::load(&path).expect("load baseline");
    let second = analyze::run_on(&ws, baseline);
    assert!(!second.failed(), "{:?}", second.findings);
    assert_eq!(second.baselined, 1);
}

/// The acceptance criterion for the whole PR: the real tree, analyzed
/// against the committed baseline, has zero gating findings. Runs the
/// same pipeline as `cargo xtask analyze` so plain `cargo test` also
/// enforces it.
#[test]
fn real_tree_is_clean_with_committed_baseline() {
    let root = scans::workspace_root();
    let report = analyze::run(&root).expect("committed baseline parses");
    assert!(
        !report.failed(),
        "cargo xtask analyze would fail:\n{}",
        report.render_human("xtask analyze")
    );
}
