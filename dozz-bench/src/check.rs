//! Output checks. Every failed check fails the cell it concerns, and
//! failed cells are the `failed` count of the result line.
//!
//! * Conservation, at every seed: a cell delivers every packet of its
//!   trace and never under-runs a downstream secure reference.
//! * Determinism, at every seed: every pass of a run gives each cell
//!   the digest of the run's reference (its setup pass, or its first
//!   pass), so the plain and traced passes agree.
//! * Expected digests, at seed 0: each cell's digest equals the one
//!   blessed into `expected/seed0.json` (`dozz-bench bless`).
//! * Warm replays: every cell of a `headline-warm` pass is a cache hit.

use std::collections::BTreeMap;
use std::path::PathBuf;

use dozznoc_core::cache::Fnv64;
use dozznoc_noc::RunReport;
use serde_json::Value;

/// The blessed digests, compiled in so a run reads nothing outside
/// its checkout.
const EXPECTED_SEED0: &str = include_str!("../expected/seed0.json");

/// One engine cell's outcome, reduced to what the checks need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOut {
    /// `<topology>/<trace>/<policy slug>`.
    pub label: String,
    /// [`digest`] of the cell's report.
    pub digest: u64,
    /// Simulated base-clock ticks the report covers.
    pub sim_ticks: u64,
    /// Whether the report conserves its trace's packets.
    pub conserved: bool,
    /// Whether the report was replayed from the run cache.
    pub hit: bool,
}

impl CellOut {
    /// Reduce one report of a trace of `packets` packets.
    pub fn new(label: String, report: &RunReport, packets: usize, hit: bool) -> CellOut {
        CellOut {
            label,
            digest: digest(report),
            sim_ticks: report.finished_at.ticks(),
            conserved: conserves(report, packets),
            hit,
        }
    }
}

/// FNV-1a over a fixed list of report fields: policy, trace, finish
/// time, the `RunStats` counters and the energy totals and counts.
/// Fields added to reports later do not change it.
pub fn digest(r: &RunReport) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&r.policy);
    h.write_str(&r.trace);
    h.write_u64(r.finished_at.ticks());
    let s = &r.stats;
    for v in [
        s.packets_injected,
        s.packets_delivered,
        s.flits_delivered,
        s.latency_sum_ticks as u64,
        (s.latency_sum_ticks >> 64) as u64,
        s.latency_max_ticks,
        s.net_latency_sum_ticks as u64,
        (s.net_latency_sum_ticks >> 64) as u64,
        s.net_latency_max_ticks,
        s.last_delivery.ticks(),
        s.epochs,
        s.secure_underflows,
    ] {
        h.write_u64(v);
    }
    for v in s.mode_selections {
        h.write_u64(v);
    }
    let e = &r.energy;
    for v in [
        e.static_j,
        e.dynamic_j,
        e.ml_j,
        e.transition_j,
        e.wall_static_j,
    ] {
        h.write_u64(v.to_bits());
    }
    for v in [
        e.flit_hops,
        e.labels,
        e.wakeups,
        e.gate_offs,
        e.breakeven_violations,
    ] {
        h.write_u64(v);
    }
    h.finish()
}

/// Every packet of a `packets`-packet trace injected and delivered, and
/// no secure-reference underflow.
pub fn conserves(r: &RunReport, packets: usize) -> bool {
    let n = packets as u64;
    r.stats.packets_injected == n
        && r.stats.packets_delivered == n
        && r.stats.secure_underflows == 0
}

/// Blessed digests per workload, by cell label.
pub type Expected = BTreeMap<String, BTreeMap<String, u64>>;

/// The compiled-in seed-0 digests.
pub fn expected_seed0() -> Expected {
    parse_expected(EXPECTED_SEED0).expect("expected/seed0.json is well-formed")
}

/// Parse an expected-digest file (`{"workload": {"label": "hex"}}`).
fn parse_expected(text: &str) -> Result<Expected, String> {
    let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let Value::Object(workloads) = value else {
        return Err("top level must be an object".into());
    };
    let mut out = Expected::new();
    for (workload, cells) in workloads {
        let Value::Object(cells) = cells else {
            return Err(format!("{workload}: cells must be an object"));
        };
        let mut map = BTreeMap::new();
        for (label, hex) in cells {
            let digest = hex
                .as_str()
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(|| format!("{workload}/{label}: digest must be a hex string"))?;
            map.insert(label, digest);
        }
        out.insert(workload, map);
    }
    Ok(out)
}

/// Render an expected-digest file.
pub fn render_expected(expected: &Expected) -> String {
    let workloads = expected
        .iter()
        .map(|(w, cells)| {
            let cells = cells
                .iter()
                .map(|(label, d)| (label.clone(), Value::String(format!("{d:016x}"))))
                .collect();
            (w.clone(), Value::Object(cells))
        })
        .collect();
    let mut text = serde_json::to_string_pretty(&Value::Object(workloads))
        .expect("a value tree always renders");
    text.push('\n');
    text
}

/// Where `bless` writes the expected file: the source tree this binary
/// was built from.
pub fn expected_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected/seed0.json")
}

/// What one pass's cells are checked against.
#[derive(Debug, Clone, Copy, Default)]
pub struct Against<'a> {
    /// Digests every cell must reproduce, by label.
    pub reference: Option<&'a BTreeMap<String, u64>>,
    /// Blessed digests, by label (seed 0 only).
    pub expected: Option<&'a BTreeMap<String, u64>>,
    /// Every cell must be a cache hit.
    pub all_hits: bool,
}

/// The cells of `cells` that fail a check, with the reason.
pub fn failures(cells: &[CellOut], against: Against<'_>) -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for c in cells {
        let wrong = |map: Option<&BTreeMap<String, u64>>| {
            map.is_some_and(|m| m.get(&c.label) != Some(&c.digest))
        };
        let reason = if !c.conserved {
            Some("packets not conserved")
        } else if wrong(against.expected) {
            Some("digest differs from expected/seed0.json")
        } else if wrong(against.reference) {
            Some("digest differs from the run's reference pass")
        } else if against.all_hits && !c.hit {
            Some("warm replay missed the run cache")
        } else {
            None
        };
        if let Some(reason) = reason {
            out.push((c.label.clone(), reason));
        }
    }
    out
}

/// Digests by label.
pub fn by_label(cells: &[CellOut]) -> BTreeMap<String, u64> {
    cells.iter().map(|c| (c.label.clone(), c.digest)).collect()
}
