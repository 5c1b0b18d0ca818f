//! Acceptance tests for the dataflow passes (`determinism-taint`,
//! `unit-flow`): each is proven to fire on a fixture crate and to be
//! silenced by justified suppressions, the exemption table is proven to
//! carve out the measurement region, the JSON pipeline is proven
//! deterministic, and — the headline self-test — an `Instant::now`
//! seeded into the real tree's engine region is caught.

use xtask::analyze::{self, Workspace};
use xtask::diag::{Baseline, Report, Severity};
use xtask::scans;

fn ws_one(krate: &str, rel: &str, src: &str) -> Workspace {
    let mut ws = Workspace::default();
    ws.add_source(krate, rel, src.to_string());
    ws
}

fn analyze(ws: &Workspace) -> Report {
    analyze::run_on(ws, Baseline::default())
}

fn gating<'a>(r: &'a Report, rule: &str) -> Vec<&'a xtask::diag::Diagnostic> {
    r.findings
        .iter()
        .filter(|d| d.rule == rule && matches!(d.severity, Severity::Deny | Severity::Warn))
        .collect()
}

// --- determinism-taint -----------------------------------------------------

#[test]
fn determinism_taint_fires_on_all_four_classes() {
    let ws = ws_one(
        "noc",
        "crates/noc/src/fixture.rs",
        include_str!("fixtures/determinism_fire.rs"),
    );
    let r = analyze(&ws);
    let hits = gating(&r, "determinism-taint");
    assert!(hits.len() >= 4, "findings: {:?}", r.findings);
    for class in ["Instant", ".elapsed()", "HashMap", "std::env"] {
        assert!(
            hits.iter().any(|d| d.message.contains(class)),
            "no {class} finding in {:?}",
            hits
        );
    }
}

#[test]
fn determinism_taint_suppressions_silence_each_site() {
    let ws = ws_one(
        "noc",
        "crates/noc/src/fixture.rs",
        include_str!("fixtures/determinism_suppressed.rs"),
    );
    let r = analyze(&ws);
    assert!(
        gating(&r, "determinism-taint").is_empty(),
        "{:?}",
        r.findings
    );
    assert!(r.suppressed >= 4);
}

#[test]
fn determinism_taint_respects_the_measure_exemption() {
    // The same tainted code under the measurement region's path stays
    // silent: the standing waiver comes from diag::EXEMPTIONS, not from
    // per-line markers.
    let ws = ws_one(
        "core",
        "crates/core/src/measure.rs",
        include_str!("fixtures/determinism_fire.rs"),
    );
    let r = analyze(&ws);
    assert!(
        gating(&r, "determinism-taint").is_empty(),
        "{:?}",
        r.findings
    );
}

#[test]
fn determinism_taint_ignores_the_cli_layer() {
    // Ambient reads in the experiments crate are out of the engine
    // region by construction.
    let ws = ws_one(
        "experiments",
        "crates/experiments/src/fixture.rs",
        include_str!("fixtures/determinism_fire.rs"),
    );
    let r = analyze(&ws);
    assert!(
        gating(&r, "determinism-taint").is_empty(),
        "{:?}",
        r.findings
    );
}

// --- unit-flow -------------------------------------------------------------

#[test]
fn unit_flow_fires_on_cross_function_mixing() {
    let ws = ws_one(
        "noc",
        "crates/noc/src/fixture.rs",
        include_str!("fixtures/unitflow_fire.rs"),
    );
    let r = analyze(&ws);
    let hits = gating(&r, "unit-flow");
    assert_eq!(hits.len(), 2, "findings: {:?}", r.findings);
    assert!(hits
        .iter()
        .all(|d| d.message.contains("domain cycles") && d.message.contains("expects ticks")));
}

#[test]
fn unit_flow_suppressions_silence_both_sites() {
    let ws = ws_one(
        "noc",
        "crates/noc/src/fixture.rs",
        include_str!("fixtures/unitflow_suppressed.rs"),
    );
    let r = analyze(&ws);
    assert!(gating(&r, "unit-flow").is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 2);
}

#[test]
fn unit_flow_stays_silent_on_ambiguous_overloads() {
    // Two same-name callees that disagree on a position: no finding.
    let ws = ws_one(
        "noc",
        "crates/noc/src/fixture.rs",
        "use dozznoc_types::{DomainCycles, SimTime};\n\
         pub fn f(t: SimTime) -> u64 { t.ticks() }\n\
         pub mod other { use dozznoc_types::DomainCycles;\n\
             pub fn f(c: DomainCycles) -> u64 { c.count() } }\n\
         pub fn call(c: DomainCycles) -> u64 { f(c) }\n",
    );
    let r = analyze(&ws);
    assert!(gating(&r, "unit-flow").is_empty(), "{:?}", r.findings);
}

// --- the seeded-taint self-test on the real tree ---------------------------

#[test]
fn seeded_instant_in_the_engine_region_is_caught() {
    let root = scans::workspace_root();
    let network_rel = "crates/noc/src/network.rs";
    let path = root.join(network_rel);
    let src = std::fs::read_to_string(&path).expect("read network.rs");

    // Plant a wall-clock read at the top of the engine loop.
    let anchor = src
        .find("fn run_instrumented")
        .expect("network.rs must contain the engine loop");
    let brace = src[anchor..]
        .find('{')
        .map(|i| anchor + i + 1)
        .expect("engine loop has a body");
    let mut seeded = src.clone();
    seeded.insert_str(brace, " let __seeded = std::time::Instant::now(); ");

    let mut ws = Workspace::load(&root);
    for f in &mut ws.files {
        if f.rel == network_rel {
            *f = {
                let mut one = Workspace::default();
                one.add_source(f.krate.clone(), f.rel.clone(), seeded.clone());
                assert!(one.parse_errors.is_empty(), "{:?}", one.parse_errors);
                one.files.pop().expect("just added")
            };
        }
    }

    let baseline =
        Baseline::load(&root.join(analyze::BASELINE_REL)).expect("committed baseline loads");
    let r = analyze::run_on(&ws, baseline);
    let hits = gating(&r, "determinism-taint");
    assert_eq!(hits.len(), 1, "findings: {:?}", r.findings);
    assert_eq!(hits[0].file, network_rel);
    assert!(hits[0].message.contains("Instant"), "{}", hits[0].message);
}

// --- JSON determinism ------------------------------------------------------

#[test]
fn repeated_runs_emit_identical_findings_and_time_every_pass() {
    let root = scans::workspace_root();
    let ws = Workspace::load(&root);
    let r1 = analyze::run_on(&ws, Baseline::default());
    let r2 = analyze::run_on(&ws, Baseline::default());
    assert_eq!(r1.findings, r2.findings, "findings must be order-stable");
    let ids: Vec<&str> = r1.timings.iter().map(|(id, _)| id.as_str()).collect();
    let expected: Vec<&str> = analyze::passes().iter().map(|p| p.id()).collect();
    assert_eq!(ids, expected, "one timing entry per pass, in pass order");
    assert!(r1.timings.iter().all(|(_, ms)| *ms >= 0.0));
}
