//! The no-parse fast path: string scans over the source tree.
//!
//! These checks predate the AST analyzer (`crate::analyze`) and stay
//! string-level on purpose — they need no compilation and no parsing,
//! so `cargo xtask lint --skip-clippy` gives sub-second feedback. They
//! report through the same [`Diagnostic`] shape as the analyzer, so
//! `lint` and `analyze` share one report format and one exit-code gate.
//!
//! Rules (all `deny`):
//! - `lossy-cast` — no lossy `as` casts in the tick/mode arithmetic
//!   (`types/src/time.rs`, `types/src/mode.rs`); the single authorized
//!   float→tick conversion carries an `xtask-lint: allow(lossy-cast)`
//!   marker,
//! - `tick-narrowing` — no narrowing casts of `.ticks()` anywhere (a
//!   u64 tick count squeezed into `u32` truncates after ~4 simulated
//!   seconds at 18 GHz),
//! - `thread-spawn` — threads are created only by the cell scheduler
//!   (`crates/core/src/schedule.rs`, waived in [`crate::diag::EXEMPTIONS`]),
//!   so the determinism suite and the schedule stress test vouch for
//!   every parallel caller at once,
//! - `stats-coverage` — every public `RunStats` counter is referenced
//!   by at least one integration test.
//!
//! The old hot-path-unwrap string scan was superseded by the analyzer's
//! `panic-reachability` pass, which follows the call graph from
//! `Network::run` instead of trusting a hard-coded module list.

use std::fs;
use std::path::{Path, PathBuf};

use crate::diag::{Diagnostic, Severity};

/// Marker that exempts a line (or the line directly below it) from the
/// lossy-cast scan. Kept deliberately verbose so it cannot appear by
/// accident.
pub const LOSSY_CAST_ALLOW: &str = "xtask-lint: allow(lossy-cast)";

/// Marker that exempts a line (or the line directly below it) from the
/// thread-spawn scan.
pub const THREAD_SPAWN_ALLOW: &str = "xtask-lint: allow(thread-spawn)";

/// The work-stealing cell scheduler — the one module that spawns
/// threads, and the fan-out path the spawn scan's message points
/// callers at. Its waiver lives in the shared exemption table
/// ([`crate::diag::EXEMPTIONS`]) so this scan and the analyze passes
/// cannot disagree.
pub const SCHEDULER_MODULE: &str = "crates/core/src/schedule.rs";

/// Thread-creation forms the spawn scan rejects outside the scheduler.
const THREAD_SPAWN_FORMS: [&str; 3] = ["thread::spawn", "thread::scope", "thread::Builder"];

/// Cast targets considered lossy in tick/mode arithmetic: every integer
/// target (truncating from float, narrowing from wider ints) plus `f32`
/// (drops precision from `u64`). `f64` stays allowed — the reporting
/// helpers convert tick counts to nanoseconds as their last step.
const LOSSY_TARGETS: [&str; 13] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
];

/// Targets narrower than the `u64` returned by `.ticks()`.
const NARROW_TARGETS: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Workspace root, resolved relative to this crate (crates/xtask → repo).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// All source scans over the real tree.
pub fn scan_tree(root: &Path) -> Vec<Diagnostic> {
    let mut findings = Vec::new();

    for rel in ["crates/types/src/time.rs", "crates/types/src/mode.rs"] {
        findings.extend(scan_lossy_casts(rel, &read(root, rel)));
    }

    for rel in rust_sources(root) {
        let src = read(root, &rel);
        findings.extend(scan_tick_narrowing(&rel, &src));
        if !crate::diag::is_exempt("thread-spawn", &rel) {
            findings.extend(scan_thread_spawns(&rel, &src));
        }
    }

    let stats_rel = "crates/noc/src/stats.rs";
    let fields = run_stats_fields(&read(root, stats_rel));
    if fields.is_empty() {
        findings.push(deny(
            "stats-coverage",
            stats_rel,
            1,
            "could not parse any RunStats fields — scanner out of sync with the struct".into(),
        ));
    }
    let tests: Vec<String> = test_sources(root)
        .iter()
        .map(|rel| read(root, rel))
        .collect();
    for field in uncovered_stats_fields(&fields, &tests) {
        findings.push(deny(
            "stats-coverage",
            stats_rel,
            1,
            format!(
                "RunStats.{field} is not referenced by any integration test \
                 (tests/*.rs, crates/noc/tests/*.rs) — add a conservation or \
                 invariant assertion for it"
            ),
        ));
    }

    findings
}

pub fn read(root: &Path, rel: &str) -> String {
    let path = root.join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every `.rs` file under `crates/*/src` and the root `src/`, as
/// root-relative forward-slash paths.
pub fn rust_sources(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut dirs = vec![root.join("src")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            // xtask itself is excluded: its tests seed deliberately
            // forbidden code into the scanners.
            if e.file_name() != "xtask" {
                dirs.push(e.path().join("src"));
            }
        }
    }
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                dirs.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                if let Ok(rel) = p.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    out.sort();
    out
}

/// Integration-test files whose contents count as RunStats coverage.
pub fn test_sources(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    for dir in ["tests", "crates/noc/tests"] {
        let Ok(entries) = fs::read_dir(root.join(dir)) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.extension().is_some_and(|x| x == "rs") {
                if let Ok(rel) = p.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    out.sort();
    out
}

fn deny(rule: &'static str, file: &str, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Deny,
        file: file.to_string(),
        line,
        column: 0,
        message,
    }
}

/// Drop a trailing `// …` line comment. Good enough for this codebase:
/// the scanned files do not put `//` inside string literals.
fn strip_line_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// The identifier starting at `code[at..]`, if any.
fn ident_at(code: &str, at: usize) -> &str {
    let rest = &code[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .unwrap_or(rest.len());
    &rest[..end]
}

/// Cast targets of every `<expr> as <ty>` on a comment-stripped line.
fn cast_targets(code: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(i) = code[from..].find(" as ") {
        let at = from + i + 4;
        let ty = ident_at(code, at);
        if !ty.is_empty() {
            out.push(ty);
        }
        from = at;
    }
    out
}

/// `lossy-cast`: no lossy `as` casts in the tick/mode arithmetic, except
/// on lines carrying (or directly below) the allow marker.
pub fn scan_lossy_casts(file: &str, src: &str) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    let mut prev_allows = false;
    for (idx, raw) in src.lines().enumerate() {
        let allows = raw.contains(LOSSY_CAST_ALLOW);
        if !allows && !prev_allows {
            let code = strip_line_comment(raw);
            for ty in cast_targets(code) {
                if LOSSY_TARGETS.contains(&ty) {
                    findings.push(deny(
                        "lossy-cast",
                        file,
                        idx + 1,
                        format!(
                            "lossy `as {ty}` cast in tick arithmetic — use the checked \
                             constructors or mark with `{LOSSY_CAST_ALLOW}`"
                        ),
                    ));
                }
            }
        }
        prev_allows = allows;
    }
    findings
}

/// `tick-narrowing`: `.ticks()` (a `u64` count of 1/18 ns base ticks)
/// must never be narrowed — `u32` overflows after ~4 simulated seconds.
pub fn scan_tick_narrowing(file: &str, src: &str) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let code = strip_line_comment(raw);
        let mut from = 0;
        while let Some(i) = code[from..].find(".ticks() as ") {
            let at = from + i + ".ticks() as ".len();
            let ty = ident_at(code, at);
            if NARROW_TARGETS.contains(&ty) {
                findings.push(deny(
                    "tick-narrowing",
                    file,
                    idx + 1,
                    format!("`.ticks() as {ty}` narrows a u64 tick count — keep tick math in u64"),
                ));
            }
            from = at;
        }
    }
    findings
}

/// `thread-spawn`: `thread::spawn`, `thread::scope` or `thread::Builder`
/// bypasses the injector/indexed-slot machinery that keeps parallel
/// campaign runs bit-identical to sequential ones. Fan work out through
/// `dozznoc_core::schedule::run_indexed`, or carry the allow marker
/// (same line or the line directly above).
pub fn scan_thread_spawns(file: &str, src: &str) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    let mut prev_allows = false;
    for (idx, raw) in src.lines().enumerate() {
        let allows = raw.contains(THREAD_SPAWN_ALLOW);
        if !allows && !prev_allows {
            let code = strip_line_comment(raw);
            for form in THREAD_SPAWN_FORMS {
                let mut from = 0;
                while let Some(i) = code[from..].find(form) {
                    let at = from + i;
                    from = at + form.len();
                    findings.push(deny(
                        "thread-spawn",
                        file,
                        idx + 1,
                        format!(
                            "raw `{form}` — fan work out via \
                             dozznoc_core::schedule::run_indexed in {SCHEDULER_MODULE} so \
                             the determinism tests cover it, or mark with \
                             `{THREAD_SPAWN_ALLOW}`"
                        ),
                    ));
                }
            }
        }
        prev_allows = allows;
    }
    findings
}

/// Public field names of `RunStats`, parsed from its source.
pub fn run_stats_fields(src: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut in_struct = false;
    for line in src.lines() {
        if line.starts_with("pub struct RunStats") {
            in_struct = true;
            continue;
        }
        if in_struct {
            if line.starts_with('}') {
                break;
            }
            if let Some(rest) = line.trim_start().strip_prefix("pub ") {
                if let Some((name, _)) = rest.split_once(':') {
                    fields.push(name.trim().to_string());
                }
            }
        }
    }
    fields
}

/// `stats-coverage`: fields not mentioned in any of the given test
/// sources.
pub fn uncovered_stats_fields(fields: &[String], test_sources: &[String]) -> Vec<String> {
    fields
        .iter()
        .filter(|f| !test_sources.iter().any(|src| src.contains(f.as_str())))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each scan is demonstrated against seeded *forbidden* code — the
    // acceptance test for the linter is that it actually fails things.

    #[test]
    fn lossy_cast_is_flagged() {
        let src = "fn f(t: f64) -> u64 {\n    t as u64\n}\n";
        let found = scan_lossy_casts("time.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 2);
        assert_eq!(found[0].rule, "lossy-cast");
        assert!(found[0].message.contains("as u64"));
    }

    #[test]
    fn widening_and_f64_casts_are_not_lossy() {
        let src = "let ns = ticks as f64 / TICKS_PER_NS as f64;\n";
        assert!(scan_lossy_casts("time.rs", src).is_empty());
    }

    #[test]
    fn allow_marker_on_same_line_suppresses() {
        let src = "    t as u64 // xtask-lint: allow(lossy-cast) — saturating\n";
        assert!(scan_lossy_casts("time.rs", src).is_empty());
    }

    #[test]
    fn allow_marker_on_previous_line_suppresses() {
        let src = "// xtask-lint: allow(lossy-cast) — saturating by construction\nt as u64\n";
        assert!(scan_lossy_casts("time.rs", src).is_empty());
    }

    #[test]
    fn allow_marker_does_not_leak_past_one_line() {
        let src = "// xtask-lint: allow(lossy-cast)\nt as u64\nu as u32\n";
        let found = scan_lossy_casts("time.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn cast_in_comment_is_ignored() {
        let src = "// converting ticks as u64 would truncate here\nlet x = 1;\n";
        assert!(scan_lossy_casts("time.rs", src).is_empty());
    }

    #[test]
    fn tick_narrowing_is_flagged() {
        let src = "let c = (span.ticks() as u32).min(7);\n";
        let found = scan_tick_narrowing("x.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "tick-narrowing");
        assert!(found[0].message.contains("as u32"));
    }

    #[test]
    fn tick_to_f64_and_unrelated_casts_pass() {
        // The second line is the histogram's leading_zeros cast that a
        // naive "ticks + as" scan would false-positive on.
        let src = "let f = span.ticks() as f64;\nlet bucket = v.leading_zeros() as usize;\n";
        assert!(scan_tick_narrowing("x.rs", src).is_empty());
    }

    #[test]
    fn thread_spawn_is_flagged() {
        let src = "fn fan_out() {\n    let h = std::thread::spawn(|| work());\n}\n";
        let found = scan_thread_spawns("crates/core/src/experiment.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 2);
        assert_eq!(found[0].rule, "thread-spawn");
        assert!(found[0].message.contains("thread::spawn"));
        assert!(found[0].message.contains("schedule.rs"));
    }

    #[test]
    fn thread_scope_and_builder_are_flagged() {
        let src = "std::thread::scope(|s| {});\nthread::Builder::new();\n";
        let found = scan_thread_spawns("x.rs", src);
        assert_eq!(found.len(), 2);
        assert!(found[0].message.contains("thread::scope"));
        assert!(found[1].message.contains("thread::Builder"));
    }

    #[test]
    fn thread_spawn_allow_marker_suppresses() {
        let same = "std::thread::spawn(f); // xtask-lint: allow(thread-spawn) — watchdog\n";
        assert!(scan_thread_spawns("x.rs", same).is_empty());
        let above = "// xtask-lint: allow(thread-spawn) — watchdog\nstd::thread::spawn(f);\n";
        assert!(scan_thread_spawns("x.rs", above).is_empty());
        let leak = "// xtask-lint: allow(thread-spawn)\nthread::spawn(f);\nthread::spawn(g);\n";
        assert_eq!(scan_thread_spawns("x.rs", leak).len(), 1);
    }

    #[test]
    fn thread_spawn_in_comment_is_ignored() {
        let src = "// the engine used to call thread::spawn per benchmark\nlet x = 1;\n";
        assert!(scan_thread_spawns("x.rs", src).is_empty());
    }

    /// The scheduler really spawns (so its waiver is load-bearing), and
    /// the tree scan honours the waiver.
    #[test]
    fn scheduler_module_spawns_but_tree_scan_is_clean() {
        let root = workspace_root();
        let src = read(&root, SCHEDULER_MODULE);
        assert!(
            !scan_thread_spawns(SCHEDULER_MODULE, &src).is_empty(),
            "schedule.rs is expected to fan out through std::thread::scope"
        );
        assert!(crate::diag::is_exempt("thread-spawn", SCHEDULER_MODULE));
        // repo_sources_are_clean covers the whole tree end-to-end.
    }

    #[test]
    fn run_stats_fields_parse() {
        let src = "pub struct RunStats {\n    /// doc\n    pub packets_injected: u64,\n    pub last_delivery: SimTime,\n}\n";
        assert_eq!(
            run_stats_fields(src),
            vec!["packets_injected".to_string(), "last_delivery".to_string()]
        );
    }

    #[test]
    fn uncovered_field_is_reported() {
        let fields = vec![
            "packets_injected".to_string(),
            "secure_underflows".to_string(),
        ];
        let tests = vec!["assert_eq!(stats.packets_injected, 5);".to_string()];
        assert_eq!(
            uncovered_stats_fields(&fields, &tests),
            vec!["secure_underflows".to_string()]
        );
    }

    /// The real tree must pass every scan — this makes plain `cargo test`
    /// catch violations even when `cargo xtask lint` is not run.
    #[test]
    fn repo_sources_are_clean() {
        let root = workspace_root();
        let findings = scan_tree(&root);
        assert!(
            findings.is_empty(),
            "source scans found violations:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// The field parser must stay in sync with the real struct: it parses
    /// the canonical counters the conservation suite asserts on.
    #[test]
    fn real_run_stats_struct_parses() {
        let root = workspace_root();
        let fields = run_stats_fields(&read(&root, "crates/noc/src/stats.rs"));
        for expected in ["packets_injected", "flits_delivered", "secure_underflows"] {
            assert!(
                fields.iter().any(|f| f == expected),
                "RunStats parser lost field {expected}: got {fields:?}"
            );
        }
    }
}
