//! The shared diagnostics engine behind `cargo xtask lint` and
//! `cargo xtask analyze`.
//!
//! Every check — string scan or AST pass — reports through the same
//! [`Diagnostic`] shape: a stable rule ID, a `file:line:column` span, a
//! severity, and a human message. On top of that the engine provides:
//!
//! - **Suppressions**: `// xtask-analyze: allow(<rule-id>) — <why>` on
//!   the finding's line or the line directly above. The marker *must*
//!   name the rule and *must* carry a justification after the closing
//!   paren; a bare marker suppresses nothing and is itself reported
//!   (rule `suppression-hygiene`).
//! - **Baseline**: a checked-in JSON file of grandfathered findings
//!   keyed on (rule, file, message) — line numbers drift too easily to
//!   key on. Baselined findings are counted but do not gate.
//! - **Gate**: `deny` and `warn` findings fail the build; `advisory`
//!   findings are informational only.
//! - **Rendering**: one human format and one JSON report format shared
//!   by both subcommands (CI uploads the JSON report as an artifact).

use std::fmt;
use std::fs;
use std::path::Path;

use serde_json::{Number, Value};

/// Marker prefix for analyzer suppressions. Deliberately verbose so it
/// cannot appear by accident.
pub const ANALYZE_ALLOW: &str = "xtask-analyze: allow(";

/// One standing, file-scoped waiver: `file` is exempt from `rule`, with
/// the justification recorded here instead of scattered across the
/// checks. This is the single source of truth consumed by both the
/// `xtask lint` string scans and the `xtask analyze` passes — the two
/// tools can no longer disagree about which module is allowed to do
/// what (`tests::lint_and_analyze_exemptions_agree` proves it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemption {
    /// Rule ID the waiver applies to.
    pub rule: &'static str,
    /// Workspace-root-relative path, forward slashes.
    pub file: &'static str,
    /// Why the waiver is justified — rendered into diagnostics so the
    /// argument travels with the finding.
    pub why: &'static str,
}

/// Every standing file-scoped exemption in the workspace. Keep this
/// list short: each entry is a module whose *design* justifies the
/// waiver, not a grandfathered finding (those belong in the baseline).
pub const EXEMPTIONS: [Exemption; 2] = [
    Exemption {
        rule: "thread-spawn",
        file: "crates/core/src/schedule.rs",
        why: "the cell scheduler is the workspace's one fan-out point: run_indexed \
              spawns its scoped workers here, and tests/stress_schedule.rs plus the \
              nightly ThreadSanitizer job cover it",
    },
    Exemption {
        rule: "determinism-taint",
        file: "crates/core/src/measure.rs",
        why: "the measurement region reads wall/CPU clocks by design; readings flow \
              into reports only, never back into simulation state",
    },
];

/// Files exempt from `rule`, in table order.
pub fn exempt_files(rule: &str) -> impl Iterator<Item = &'static str> + '_ {
    EXEMPTIONS
        .iter()
        .filter(move |e| e.rule == rule)
        .map(|e| e.file)
}

/// True when `file` carries a standing waiver for `rule`.
pub fn is_exempt(rule: &str, file: &str) -> bool {
    exempt_files(rule).any(|f| f == file)
}

/// How a finding gates the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: reported and counted, never fails.
    Advisory,
    /// Fails the gate; suitable for rules with rare, justified escapes.
    Warn,
    /// Fails the gate; the rule should hold unconditionally.
    Deny,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
            Severity::Advisory => "advisory",
        }
    }
}

/// One finding from any check.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable rule ID (`unit-consistency`, `lossy-cast`, …).
    pub rule: &'static str,
    pub severity: Severity,
    /// Workspace-root-relative path, forward slashes.
    pub file: String,
    /// 1-based; 0 when the finding is file- or workspace-scoped.
    pub line: usize,
    /// 1-based; 0 when unknown.
    pub column: usize,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}[{}] {}",
            self.file,
            self.line,
            self.column,
            self.severity.as_str(),
            self.rule,
            self.message
        )
    }
}

/// The outcome of running a set of checks: surviving findings plus the
/// counts of what the engine filtered out.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Diagnostic>,
    pub suppressed: usize,
    pub baselined: usize,
    /// Per-pass wall time, `(pass id, milliseconds)`, in execution
    /// order. Surfaced in the JSON report so slow passes show up in CI
    /// artifacts; excluded from equality/determinism concerns (the
    /// findings themselves are what must be byte-stable).
    pub timings: Vec<(String, f64)>,
}

impl Report {
    /// True when the gate fails: any surviving `deny` or `warn` finding.
    pub fn failed(&self) -> bool {
        self.findings
            .iter()
            .any(|d| matches!(d.severity, Severity::Deny | Severity::Warn))
    }

    /// Human rendering: one line per finding plus a summary.
    pub fn render_human(&self, tool: &str) -> String {
        let mut out = String::new();
        for d in &self.findings {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let (deny, warn, advisory) = self.counts();
        out.push_str(&format!(
            "{tool}: {deny} deny, {warn} warn, {advisory} advisory \
             ({} suppressed, {} baselined)\n",
            self.suppressed, self.baselined
        ));
        out
    }

    fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.findings {
            match d.severity {
                Severity::Deny => c.0 += 1,
                Severity::Warn => c.1 += 1,
                Severity::Advisory => c.2 += 1,
            }
        }
        c
    }

    /// JSON report shared by `lint` and `analyze` (and uploaded by CI).
    pub fn to_json(&self, tool: &str) -> Value {
        let findings = self
            .findings
            .iter()
            .map(|d| {
                Value::Object(vec![
                    ("rule".into(), Value::String(d.rule.into())),
                    ("severity".into(), Value::String(d.severity.as_str().into())),
                    ("file".into(), Value::String(d.file.clone())),
                    ("line".into(), Value::Number(Number::PosInt(d.line as u64))),
                    (
                        "column".into(),
                        Value::Number(Number::PosInt(d.column as u64)),
                    ),
                    ("message".into(), Value::String(d.message.clone())),
                ])
            })
            .collect();
        let (deny, warn, advisory) = self.counts();
        let passes = self
            .timings
            .iter()
            .map(|(id, ms)| {
                Value::Object(vec![
                    ("id".into(), Value::String(id.clone())),
                    ("wall_ms".into(), Value::Number(Number::Float(*ms))),
                ])
            })
            .collect();
        Value::Object(vec![
            ("version".into(), Value::Number(Number::PosInt(2))),
            ("tool".into(), Value::String(tool.into())),
            ("findings".into(), Value::Array(findings)),
            ("passes".into(), Value::Array(passes)),
            (
                "summary".into(),
                Value::Object(vec![
                    ("deny".into(), Value::Number(Number::PosInt(deny as u64))),
                    ("warn".into(), Value::Number(Number::PosInt(warn as u64))),
                    (
                        "advisory".into(),
                        Value::Number(Number::PosInt(advisory as u64)),
                    ),
                    (
                        "suppressed".into(),
                        Value::Number(Number::PosInt(self.suppressed as u64)),
                    ),
                    (
                        "baselined".into(),
                        Value::Number(Number::PosInt(self.baselined as u64)),
                    ),
                ]),
            ),
        ])
    }
}

/// One suppression marker found in a source file.
#[derive(Debug, Clone, PartialEq)]
pub struct Suppression {
    /// 1-based line the marker sits on.
    pub line: usize,
    /// The rule the marker names.
    pub rule: String,
    /// True when text follows the closing paren (the required "why").
    pub justified: bool,
}

/// Scan one file's source for `xtask-analyze: allow(...)` markers.
pub fn suppressions(src: &str) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let mut rest = line;
        while let Some(at) = rest.find(ANALYZE_ALLOW) {
            let after = &rest[at + ANALYZE_ALLOW.len()..];
            let Some(close) = after.find(')') else { break };
            let rule = after[..close].trim().to_string();
            let justified = !after[close + 1..].trim().is_empty();
            out.push(Suppression {
                line: idx + 1,
                rule,
                justified,
            });
            rest = &after[close + 1..];
        }
    }
    out
}

/// Apply suppression markers to `findings`. A justified marker for rule
/// R suppresses R-findings on its own line and the line directly below.
/// Markers that are unjustified or name a rule no check ever emits are
/// reported as `suppression-hygiene` findings via `known_rules`.
pub fn apply_suppressions(
    findings: Vec<Diagnostic>,
    sources: &dyn Fn(&str) -> Option<String>,
    known_rules: &[&'static str],
    report: &mut Report,
) -> Vec<Diagnostic> {
    let mut by_file: std::collections::BTreeMap<String, Vec<Suppression>> = Default::default();
    let mut files: Vec<String> = findings.iter().map(|d| d.file.clone()).collect();
    files.sort();
    files.dedup();
    for f in &files {
        if let Some(src) = sources(f) {
            by_file.insert(f.clone(), suppressions(&src));
        }
    }

    let mut kept = Vec::new();
    for d in findings {
        let sup = by_file.get(&d.file).map(Vec::as_slice).unwrap_or(&[]);
        let hit = sup
            .iter()
            .any(|s| s.justified && s.rule == d.rule && (s.line == d.line || s.line + 1 == d.line));
        if hit {
            report.suppressed += 1;
        } else {
            kept.push(d);
        }
    }

    // Hygiene: every marker must be justified and must name a real rule.
    for (file, sups) in &by_file {
        for s in sups {
            if !s.justified {
                kept.push(Diagnostic {
                    rule: "suppression-hygiene",
                    severity: Severity::Warn,
                    file: file.clone(),
                    line: s.line,
                    column: 1,
                    message: format!(
                        "suppression for `{}` has no justification — add one after the \
                         closing paren (e.g. `… allow({}) — <why>`); unjustified markers \
                         suppress nothing",
                        s.rule, s.rule
                    ),
                });
            } else if !known_rules.contains(&s.rule.as_str()) {
                kept.push(Diagnostic {
                    rule: "suppression-hygiene",
                    severity: Severity::Warn,
                    file: file.clone(),
                    line: s.line,
                    column: 1,
                    message: format!("suppression names unknown rule `{}`", s.rule),
                });
            }
        }
    }
    kept
}

/// A checked-in baseline of grandfathered findings.
#[derive(Debug, Default)]
pub struct Baseline {
    /// Remaining (rule, file, message) entries; matching consumes one.
    entries: Vec<(String, String, String)>,
}

impl Baseline {
    /// Load from a JSON file; a missing file is an empty baseline.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let Ok(text) = fs::read_to_string(path) else {
            return Ok(Baseline::default());
        };
        let v: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
        let mut entries = Vec::new();
        if let Some(arr) = v.get("findings").and_then(Value::as_array) {
            for e in arr {
                let field = |k: &str| {
                    e.get(k)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                entries.push((field("rule"), field("file"), field("message")));
            }
        }
        Ok(Baseline { entries })
    }

    /// Partition `findings` into surviving and baselined, consuming one
    /// baseline entry per match so a fixed finding cannot mask a new one.
    pub fn filter(&mut self, findings: Vec<Diagnostic>, report: &mut Report) -> Vec<Diagnostic> {
        let mut kept = Vec::new();
        for d in findings {
            let hit = self
                .entries
                .iter()
                .position(|(r, f, m)| r == d.rule && f == &d.file && m == &d.message);
            match hit {
                Some(i) => {
                    self.entries.swap_remove(i);
                    report.baselined += 1;
                }
                None => kept.push(d),
            }
        }
        kept
    }

    /// Serialize findings as a fresh baseline file.
    pub fn render(findings: &[Diagnostic]) -> String {
        let arr = findings
            .iter()
            .map(|d| {
                Value::Object(vec![
                    ("rule".into(), Value::String(d.rule.into())),
                    ("file".into(), Value::String(d.file.clone())),
                    ("message".into(), Value::String(d.message.clone())),
                ])
            })
            .collect();
        let v = Value::Object(vec![
            ("version".into(), Value::Number(Number::PosInt(1))),
            ("findings".into(), Value::Array(arr)),
        ]);
        serde_json::to_string_pretty(&v).unwrap_or_else(|_| "{}".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, file: &str, line: usize, msg: &str) -> Diagnostic {
        Diagnostic {
            rule,
            severity: Severity::Deny,
            file: file.into(),
            line,
            column: 1,
            message: msg.into(),
        }
    }

    #[test]
    fn suppression_parses_rule_and_justification() {
        let src = "let x = 1; // xtask-analyze: allow(unit-consistency) — raw tick seed\n\
                   // xtask-analyze: allow(unit-flow)\n";
        let s = suppressions(src);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].rule, "unit-consistency");
        assert!(s[0].justified);
        assert_eq!(s[1].rule, "unit-flow");
        assert!(!s[1].justified);
    }

    #[test]
    fn justified_marker_suppresses_same_and_next_line() {
        let src = "// xtask-analyze: allow(unit-consistency) — seed\nlet x = t.0;\n";
        let findings = vec![diag("unit-consistency", "a.rs", 2, "raw field access")];
        let mut report = Report::default();
        let kept = apply_suppressions(
            findings,
            &|f| (f == "a.rs").then(|| src.to_string()),
            &["unit-consistency"],
            &mut report,
        );
        assert!(kept.is_empty());
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn bare_marker_does_not_suppress_and_is_reported() {
        let src = "let x = t.0; // xtask-analyze: allow(unit-consistency)\n";
        let findings = vec![diag("unit-consistency", "a.rs", 1, "raw field access")];
        let mut report = Report::default();
        let kept = apply_suppressions(
            findings,
            &|f| (f == "a.rs").then(|| src.to_string()),
            &["unit-consistency"],
            &mut report,
        );
        assert_eq!(kept.len(), 2, "original finding + hygiene finding");
        assert!(kept.iter().any(|d| d.rule == "suppression-hygiene"));
        assert_eq!(report.suppressed, 0);
    }

    #[test]
    fn marker_for_wrong_rule_does_not_suppress() {
        let src = "// xtask-analyze: allow(unit-flow) — wrong rule\nlet x = t.0;\n";
        let findings = vec![diag("unit-consistency", "a.rs", 2, "raw field access")];
        let mut report = Report::default();
        let kept = apply_suppressions(
            findings,
            &|f| (f == "a.rs").then(|| src.to_string()),
            &["unit-consistency", "unit-flow"],
            &mut report,
        );
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].rule, "unit-consistency");
    }

    #[test]
    fn unknown_rule_marker_is_flagged() {
        let src = "// xtask-analyze: allow(no-such-rule) — because\nlet x = 1;\n";
        let findings = vec![diag("unit-consistency", "a.rs", 99, "elsewhere")];
        let mut report = Report::default();
        let kept = apply_suppressions(
            findings,
            &|f| (f == "a.rs").then(|| src.to_string()),
            &["unit-consistency"],
            &mut report,
        );
        assert!(kept
            .iter()
            .any(|d| d.rule == "suppression-hygiene" && d.message.contains("no-such-rule")));
    }

    #[test]
    fn baseline_round_trip_and_consumption() {
        let findings = vec![
            diag("unit-consistency", "a.rs", 5, "m1"),
            diag("unit-flow", "b.rs", 9, "m2"),
        ];
        let text = Baseline::render(&findings);
        let dir = std::env::temp_dir().join("xtask-baseline-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("baseline.json");
        std::fs::write(&path, &text).expect("write baseline");

        let mut bl = Baseline::load(&path).expect("load baseline");
        let mut report = Report::default();
        // Two occurrences of the same finding: the single baseline entry
        // absorbs one, the duplicate survives.
        let incoming = vec![
            diag("unit-consistency", "a.rs", 5, "m1"),
            diag("unit-consistency", "a.rs", 7, "m1"),
            diag("unit-flow", "b.rs", 9, "m2"),
        ];
        let kept = bl.filter(incoming, &mut report);
        assert_eq!(report.baselined, 2);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].line, 7);
    }

    #[test]
    fn missing_baseline_is_empty() {
        let bl = Baseline::load(Path::new("/nonexistent/baseline.json")).expect("empty");
        assert!(bl.entries.is_empty());
    }

    #[test]
    fn gate_fails_on_warn_but_not_advisory() {
        let mut r = Report::default();
        r.findings.push(Diagnostic {
            severity: Severity::Advisory,
            ..diag("indexing", "a.rs", 1, "x")
        });
        assert!(!r.failed());
        r.findings.push(Diagnostic {
            severity: Severity::Warn,
            ..diag("unit-flow", "a.rs", 2, "y")
        });
        assert!(r.failed());
    }

    #[test]
    fn lint_and_analyze_exemptions_agree() {
        // Exactly one module may create OS threads: the cell scheduler.
        // The engine itself is sequential, so a spawn creeping into the
        // simulator FAILS instead of riding a waiver.
        let spawn: Vec<_> = exempt_files("thread-spawn").collect();
        assert_eq!(spawn, vec!["crates/core/src/schedule.rs"]);
        assert!(!is_exempt("thread-spawn", "crates/noc/src/network.rs"));

        // The analyze side waives clocks only in the measurement region.
        let taint: Vec<_> = exempt_files("determinism-taint").collect();
        assert_eq!(taint, vec!["crates/core/src/measure.rs"]);
    }

    #[test]
    fn exempt_files_exist_and_justify() {
        let root = crate::scans::workspace_root();
        for e in EXEMPTIONS {
            assert!(
                root.join(e.file).is_file(),
                "exemption for `{}` names missing file {}",
                e.rule,
                e.file
            );
            assert!(
                e.why.len() > 20,
                "exemption for `{}`/{} needs a real justification",
                e.rule,
                e.file
            );
        }
    }

    #[test]
    fn json_report_carries_pass_timings() {
        let mut r = Report::default();
        r.timings.push(("determinism-taint".into(), 12.5));
        let v = r.to_json("analyze");
        let passes = v.get("passes").and_then(Value::as_array).expect("passes");
        assert_eq!(passes.len(), 1);
        assert_eq!(
            passes[0].get("id").and_then(Value::as_str),
            Some("determinism-taint")
        );
        assert!(passes[0].get("wall_ms").is_some());
    }

    #[test]
    fn json_report_shape() {
        let mut r = Report::default();
        r.findings.push(diag("unit-consistency", "a.rs", 5, "m"));
        let v = r.to_json("analyze");
        assert_eq!(v.get("tool").and_then(Value::as_str), Some("analyze"));
        let f = v.get("findings").and_then(Value::as_array).expect("array");
        assert_eq!(f.len(), 1);
        assert_eq!(
            f[0].get("rule").and_then(Value::as_str),
            Some("unit-consistency")
        );
        let s = v.get("summary").expect("summary");
        assert_eq!(s.get("deny").and_then(Value::as_u64), Some(1));
    }
}
