//! Pass 4 — `unit-flow` (deny).
//!
//! The unit-consistency pass (PR 5) checks tick/cycle hygiene *inside*
//! one expression; this pass propagates unit facts *across* function
//! boundaries. Every function signature is summarized into unit
//! families — **Tick** (`SimTime`, `TickDelta`: base-clock ticks) vs
//! **Cycle** (`DomainCycles`: per-domain cycles) — for each parameter
//! and the return type. At every call site, an argument whose family is
//! known (a binding with a unit-typed annotation, or a call returning a
//! unit type) is checked against the parameter's family; passing
//! cycles where ticks are expected is exactly the bug class the sealed
//! newtypes exist to stop, and item-level analysis structurally cannot
//! see it once the values flow through helper functions.
//!
//! Resolution is conservative: a call is only checked when *every*
//! same-name summary of matching arity agrees on the parameter's
//! family, and an argument only carries a family the local evidence
//! proves. Unknown stays unknown; silence is never a finding.

use std::collections::BTreeMap;

use syn::{Expr, Token};

use crate::analyze::{for_each_fn, mentions_ident, typed_idents, Pass, Workspace};
use crate::diag::{Diagnostic, Severity};

pub struct UnitFlow;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Base-clock ticks: `SimTime`, `TickDelta`.
    Tick,
    /// Per-domain cycles: `DomainCycles`.
    Cycle,
}

impl Family {
    fn name(self) -> &'static str {
        match self {
            Family::Tick => "ticks",
            Family::Cycle => "domain cycles",
        }
    }
}

const TICK_TYPES: [&str; 2] = ["SimTime", "TickDelta"];
const CYCLE_TYPES: [&str; 1] = ["DomainCycles"];

/// Unit families of one function's parameters (self included, always
/// unknown) and return type.
struct Summary {
    simple: String,
    params: Vec<Option<Family>>,
    has_self: bool,
    ret: Option<Family>,
}

impl Pass for UnitFlow {
    fn id(&self) -> &'static str {
        "unit-flow"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        // Phase 1: summaries from the whole tree (the conversion fns in
        // crates/types anchor the return families).
        let mut by_simple: BTreeMap<String, Vec<Summary>> = BTreeMap::new();
        for file in &ws.files {
            for_each_fn(file, true, &mut |fr| {
                let has_self = fr
                    .item
                    .sig
                    .inputs
                    .first()
                    .is_some_and(|p| p.name.as_deref() == Some("self"));
                let s = Summary {
                    simple: fr.item.sig.ident.clone(),
                    params: fr
                        .item
                        .sig
                        .inputs
                        .iter()
                        .map(|p| family_of(&p.ty))
                        .collect(),
                    has_self,
                    ret: family_of(&fr.item.sig.output),
                };
                by_simple.entry(s.simple.clone()).or_default().push(s);
            });
        }

        // Phase 2: check call sites everywhere but crates/types (the
        // conversion implementations legitimately cross families).
        for file in &ws.files {
            if file.krate == "types" {
                continue;
            }
            for_each_fn(file, true, &mut |fr| {
                let Some(body) = &fr.item.body else { return };
                let tick_local =
                    typed_idents(fr.item, &|ty| is_unit_ty(ty, &TICK_TYPES, &CYCLE_TYPES));
                let cycle_local =
                    typed_idents(fr.item, &|ty| is_unit_ty(ty, &CYCLE_TYPES, &TICK_TYPES));
                let block = syn::parse_block(body);
                syn::walk_block_exprs(&block, &mut |e| {
                    let (name, args, recv, span) = match e {
                        Expr::Call { callee, args, span } => match &**callee {
                            Expr::Path { segments, .. } => match segments.last() {
                                Some(last) => (last.clone(), args, false, *span),
                                None => return,
                            },
                            _ => return,
                        },
                        Expr::MethodCall {
                            method, args, span, ..
                        } => (method.clone(), args, true, *span),
                        _ => return,
                    };
                    let Some(summaries) = by_simple.get(&name) else {
                        return;
                    };
                    for (ai, arg) in args.iter().enumerate() {
                        let Some(got) = arg_family(arg, &tick_local, &cycle_local, &by_simple)
                        else {
                            continue;
                        };
                        let Some(want) = expected_family(summaries, ai, recv, args.len()) else {
                            continue;
                        };
                        if got != want {
                            out.push(Diagnostic {
                                rule: "unit-flow",
                                severity: Severity::Deny,
                                file: file.rel.clone(),
                                line: span.line,
                                column: span.column,
                                message: format!(
                                    "argument {} of `{name}(..)` in `{}` carries {} but the \
                                     callee expects {} — convert through \
                                     DomainCycles::to_ticks / from_ticks_ceil so the unit \
                                     change is named",
                                    ai + 1,
                                    fr.qual_name(),
                                    got.name(),
                                    want.name()
                                ),
                            });
                        }
                    }
                });
            });
        }
    }
}

/// Family a parameter position expects, when every matching summary
/// agrees on it. `method` selects self-taking summaries (argument `ai`
/// maps to parameter `ai + 1`); free calls match by plain arity.
fn expected_family(summaries: &[Summary], ai: usize, method: bool, arity: usize) -> Option<Family> {
    let mut agreed: Option<Family> = None;
    for s in summaries {
        let pi = if method {
            if !s.has_self || s.params.len() != arity + 1 {
                return None; // a non-matching overload → too ambiguous
            }
            ai + 1
        } else {
            if s.params.len() != arity {
                return None;
            }
            ai
        };
        match s.params.get(pi).copied().flatten() {
            Some(f) => match agreed {
                Some(a) if a != f => return None,
                _ => agreed = Some(f),
            },
            // One overload with an unknown family at this position means
            // the call may be to it: stay silent.
            None => return None,
        }
    }
    agreed
}

/// Family of an argument expression, when the local evidence proves it.
fn arg_family(
    e: &Expr,
    tick_local: &std::collections::BTreeSet<String>,
    cycle_local: &std::collections::BTreeSet<String>,
    by_simple: &BTreeMap<String, Vec<Summary>>,
) -> Option<Family> {
    match e {
        Expr::Path { segments, .. } if segments.len() == 1 => {
            let id = &segments[0];
            if tick_local.contains(id) {
                Some(Family::Tick)
            } else if cycle_local.contains(id) {
                Some(Family::Cycle)
            } else {
                None
            }
        }
        Expr::Reference { expr, .. } => arg_family(expr, tick_local, cycle_local, by_simple),
        Expr::Call { callee, .. } => match &**callee {
            Expr::Path { segments, .. } => {
                // `SimTime::new(..)`-style: the type segment is proof
                // enough; otherwise fall back to agreeing summaries.
                if segments.iter().any(|s| TICK_TYPES.contains(&s.as_str())) {
                    return Some(Family::Tick);
                }
                if segments.iter().any(|s| CYCLE_TYPES.contains(&s.as_str())) {
                    return Some(Family::Cycle);
                }
                let name = segments.last()?;
                ret_family(by_simple.get(name)?)
            }
            _ => None,
        },
        Expr::MethodCall { method, .. } => ret_family(by_simple.get(method)?),
        _ => None,
    }
}

/// Return family shared by every summary of a name, if they all agree.
fn ret_family(summaries: &[Summary]) -> Option<Family> {
    let mut agreed: Option<Family> = None;
    for s in summaries {
        match s.ret {
            Some(f) => match agreed {
                Some(a) if a != f => return None,
                _ => agreed = Some(f),
            },
            None => return None,
        }
    }
    agreed
}

/// Family mentioned by a type-annotation token run; `None` when the
/// other family (or neither) appears, so conversion signatures like
/// `fn to_ticks(&self) -> SimTime` stay unambiguous per position.
fn family_of(ty: &[Token]) -> Option<Family> {
    let tick = mentions_ident(ty, &TICK_TYPES);
    let cycle = mentions_ident(ty, &CYCLE_TYPES);
    match (tick, cycle) {
        (true, false) => Some(Family::Tick),
        (false, true) => Some(Family::Cycle),
        _ => None,
    }
}

/// True when `ty` mentions one family's types and not the other's.
fn is_unit_ty(ty: &[Token], yes: &[&str], no: &[&str]) -> bool {
    mentions_ident(ty, yes) && !mentions_ident(ty, no)
}
