//! `cargo xtask analyze` — AST-level workspace analyzer.
//!
//! Parses every workspace crate with the vendored `syn` stand-in and
//! runs typed semantic passes over the item/token trees. Where
//! `cargo xtask lint`'s string scans see characters, these passes see
//! structure: token adjacency, function signatures, attributes, and an
//! intra-crate call graph. Four passes ship, each encoding domain
//! knowledge rustc and clippy lack (see the submodules):
//!
//! | rule               | severity       | what it catches                         |
//! |--------------------|----------------|-----------------------------------------|
//! | `unit-consistency` | deny           | raw-u64 escapes from sealed time types  |
//! | `panic-reachability` | deny/advisory | panics reachable from the sim hot path |
//! | `determinism-taint`| deny           | clocks/env/hash-order in the engine     |
//! | `unit-flow`        | deny           | tick/cycle mixing across call sites     |
//!
//! The last two run on the expression-level AST (`syn::parse_block`)
//! and the workspace call graph (`callgraph`).
//!
//! Findings flow through the shared diagnostics engine (`crate::diag`):
//! `// xtask-analyze: allow(<rule>) — <why>` suppressions, the
//! checked-in baseline (`crates/xtask/analyze-baseline.json`), and the
//! deny/warn exit gate.

pub mod callgraph;
pub mod determinism;
pub mod panic_reach;
pub mod unit_consistency;
pub mod unit_flow;

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use syn::{Delim, Item, ItemFn, Tok, Token};

use crate::diag::{apply_suppressions, Baseline, Diagnostic, Report, Severity};

/// Rule IDs the analyzer can emit; suppression markers must name one.
pub const ANALYZE_RULES: [&str; 6] = [
    "parse-error",
    "unit-consistency",
    "panic-reachability",
    "determinism-taint",
    "unit-flow",
    "suppression-hygiene",
];

/// Default baseline location, workspace-root relative.
pub const BASELINE_REL: &str = "crates/xtask/analyze-baseline.json";

/// One parsed source file.
pub struct SourceFile {
    /// Root-relative forward-slash path.
    pub rel: String,
    /// Crate directory name (`types`, `noc`, …; the root crate is `dozznoc`).
    pub krate: String,
    pub src: String,
    pub ast: syn::File,
}

/// Every parsed file of the workspace (or a fixture subset).
#[derive(Default)]
pub struct Workspace {
    pub files: Vec<SourceFile>,
    /// Files that failed to parse, already shaped as diagnostics.
    pub parse_errors: Vec<Diagnostic>,
}

impl Workspace {
    /// Parse every `.rs` under `crates/*/src` (xtask itself excluded —
    /// its fixtures seed deliberately forbidden code) and the root `src/`.
    pub fn load(root: &Path) -> Workspace {
        let mut ws = Workspace::default();
        for rel in crate::scans::rust_sources(root) {
            let path = root.join(&rel);
            let src = match fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => {
                    ws.parse_errors.push(Diagnostic {
                        rule: "parse-error",
                        severity: Severity::Deny,
                        file: rel.clone(),
                        line: 0,
                        column: 0,
                        message: format!("unreadable: {e}"),
                    });
                    continue;
                }
            };
            ws.add_source(crate_of(&rel), rel, src);
        }
        ws
    }

    /// Parse one in-memory file into the workspace (fixtures, tests).
    pub fn add_source(&mut self, krate: impl Into<String>, rel: impl Into<String>, src: String) {
        let rel = rel.into();
        match syn::parse_file(&src) {
            Ok(ast) => self.files.push(SourceFile {
                rel,
                krate: krate.into(),
                src,
                ast,
            }),
            Err(e) => self.parse_errors.push(Diagnostic {
                rule: "parse-error",
                severity: Severity::Deny,
                file: rel,
                line: e.span.line,
                column: e.span.column,
                message: format!("parse error: {}", e.msg),
            }),
        }
    }
}

/// Crate directory name for a root-relative source path.
fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("dozznoc")
        .to_string()
}

/// One semantic pass over the parsed workspace.
pub trait Pass {
    /// Stable rule ID (also the suppression key).
    fn id(&self) -> &'static str;
    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>);
}

/// All shipped passes, in report order.
pub fn passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(unit_consistency::UnitConsistency),
        Box::new(panic_reach::PanicReachability),
        Box::new(determinism::DeterminismTaint),
        Box::new(unit_flow::UnitFlow),
    ]
}

/// Run every pass plus suppression and baseline filtering.
pub fn run(root: &Path) -> Result<Report, String> {
    let ws = Workspace::load(root);
    let baseline = Baseline::load(&root.join(BASELINE_REL))?;
    Ok(run_on(&ws, baseline))
}

/// Analyze an already-loaded workspace (fixtures use this directly).
pub fn run_on(ws: &Workspace, mut baseline: Baseline) -> Report {
    let mut findings = ws.parse_errors.clone();
    let mut report = Report::default();
    for pass in passes() {
        let started = std::time::Instant::now();
        pass.run(ws, &mut findings);
        report
            .timings
            .push((pass.id().to_string(), started.elapsed().as_secs_f64() * 1e3));
    }
    let findings = apply_suppressions(
        findings,
        &|rel| {
            ws.files
                .iter()
                .find(|f| f.rel == rel)
                .map(|f| f.src.clone())
        },
        &ANALYZE_RULES,
        &mut report,
    );
    let mut findings = baseline.filter(findings, &mut report);
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.column, a.rule).cmp(&(&b.file, b.line, b.column, b.rule))
    });
    report.findings = findings;
    report
}

// ---------------------------------------------------------------------------
// Shared walking helpers for the passes.

/// A function together with the impl/trait type it belongs to, if any.
pub struct FnRef<'a> {
    pub self_ty: Option<&'a str>,
    pub item: &'a ItemFn,
}

impl FnRef<'_> {
    /// `Type::name` or bare `name`.
    pub fn qual_name(&self) -> String {
        match self.self_ty {
            Some(t) => format!("{t}::{}", self.item.sig.ident),
            None => self.item.sig.ident.clone(),
        }
    }
}

/// Visit every function item in a file, recursing through impls and
/// inline modules. `#[cfg(test)]` modules and functions (and `#[test]`
/// functions) are skipped when `skip_tests` is set.
pub fn for_each_fn<'a>(file: &'a SourceFile, skip_tests: bool, f: &mut dyn FnMut(&FnRef<'a>)) {
    fn walk<'a>(
        items: &'a [Item],
        self_ty: Option<&'a str>,
        skip_tests: bool,
        f: &mut dyn FnMut(&FnRef<'a>),
    ) {
        for item in items {
            match item {
                Item::Fn(func) => {
                    let testish = func
                        .attrs
                        .iter()
                        .any(|a| a.path == "test" || a.is_cfg_test());
                    if !(skip_tests && testish) {
                        f(&FnRef {
                            self_ty,
                            item: func,
                        });
                    }
                }
                Item::Impl(imp) => walk(&imp.items, Some(&imp.self_ty), skip_tests, f),
                Item::Mod(m) => {
                    if skip_tests && m.attrs.iter().any(|a| a.is_cfg_test()) {
                        continue;
                    }
                    if let Some(items) = &m.items {
                        walk(items, None, skip_tests, f);
                    }
                }
                Item::Verbatim(_) => {}
            }
        }
    }
    walk(&file.ast.items, None, skip_tests, f);
}

/// True when any identifier in the token tree matches one of `names`.
pub fn mentions_ident(tokens: &[Token], names: &[&str]) -> bool {
    let mut found = false;
    syn::walk_tokens(tokens, &mut |t| {
        if let Some(id) = t.ident() {
            if names.contains(&id) {
                found = true;
            }
        }
    });
    found
}

/// Identifiers bound with a type matching `matches_ty` inside a
/// function: typed parameters plus `let [mut] name: Ty` bindings at any
/// nesting depth. Used by the unit-consistency and unit-flow passes
/// for lightweight local type tracking.
pub fn typed_idents(func: &ItemFn, matches_ty: &dyn Fn(&[Token]) -> bool) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    for p in &func.sig.inputs {
        if let Some(name) = &p.name {
            if matches_ty(&p.ty) {
                set.insert(name.clone());
            }
        }
    }
    let Some(body) = &func.body else { return set };

    fn scan_lets(
        tokens: &[Token],
        matches_ty: &dyn Fn(&[Token]) -> bool,
        set: &mut BTreeSet<String>,
    ) {
        let mut i = 0usize;
        while i < tokens.len() {
            if let Tok::Group(_, inner) = &tokens[i].tok {
                scan_lets(inner, matches_ty, set);
                i += 1;
                continue;
            }
            if tokens[i].ident() == Some("let") {
                let mut j = i + 1;
                if tokens.get(j).and_then(Token::ident) == Some("mut") {
                    j += 1;
                }
                if let Some(name) = tokens.get(j).and_then(Token::ident) {
                    if tokens.get(j + 1).is_some_and(|t| t.is_punct(":")) {
                        // Type annotation: tokens until `=` or `;`.
                        let start = j + 2;
                        let mut end = start;
                        while end < tokens.len()
                            && !tokens[end].is_punct("=")
                            && !tokens[end].is_punct(";")
                        {
                            end += 1;
                        }
                        if matches_ty(&tokens[start..end]) {
                            set.insert(name.to_string());
                        }
                        i = end;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }
    scan_lets(body, matches_ty, &mut set);
    set
}

/// Flattened view used by adjacency scans: yields each token level with
/// its slice so passes can look at same-level neighbours.
pub fn for_each_level<'a>(tokens: &'a [Token], f: &mut dyn FnMut(&'a [Token])) {
    f(tokens);
    for t in tokens {
        if let Tok::Group(_, inner) = &t.tok {
            for_each_level(inner, f);
        }
    }
}

/// The trailing identifiers of a token's "operand context": for an
/// ident, itself; for a group, the identifiers inside it. Used by the
/// unit-consistency mixing check to look through parentheses.
pub fn operand_idents(t: &Token) -> Vec<&str> {
    match &t.tok {
        Tok::Ident(s) => vec![s.as_str()],
        Tok::Group(Delim::Paren, inner) => {
            let mut ids = Vec::new();
            syn::walk_tokens(inner, &mut |t| {
                if let Some(id) = t.ident() {
                    ids.push(id);
                }
            });
            ids
        }
        _ => Vec::new(),
    }
}
