//! `dozz-repro check` — run the evaluation matrix under the runtime
//! invariant sanitizer.
//!
//! The matrix routes through the shared cell engine with
//! [`EngineOptions::sanitize`] set: every simulated
//! (topology, benchmark, model) cell runs with a fresh `SimSanitizer`
//! sweeping the simulator's flow-control, conservation and scheduling
//! invariants after every event tick (the catalogue is in `DESIGN.md`).
//! A healthy build reports zero violations everywhere; any violation
//! prints its structured detail and fails the process with exit code 1,
//! which is what makes this subcommand CI-able.
//!
//! Cells replayed from the run cache were simulated before and skip the
//! sanitizer (their sweep and violation counts print as 0); pass
//! `--no-cache` to force a full sweep of every cell. `--bench NAME`
//! restricts the matrix to one benchmark; `--quick` shortens the
//! traces; `--jobs N` sets the worker count. Results are also written
//! to `sanitizer_check.csv` under `--out`.

use dozznoc_core::EngineOptions;
use dozznoc_ml::FeatureSet;
use dozznoc_topology::Topology;
use dozznoc_traffic::{Benchmark, TEST_BENCHMARKS};

use crate::ctx::{banner, Ctx};
use crate::engine;
use crate::suite::suite_for;

/// Run every cell of the evaluation matrix under the sanitizer.
pub fn run(ctx: &Ctx) {
    banner("Sanitizer check — invariant sweep over the evaluation matrix");
    let benches: Vec<Benchmark> = match ctx.bench {
        Some(bench) => vec![bench],
        None => TEST_BENCHMARKS.to_vec(),
    };

    let cache = ctx.run_cache();
    let opts = EngineOptions {
        sanitize: true,
        ..ctx.engine_opts(cache.as_ref())
    };

    let mut rows = Vec::new();
    let mut total_violations = 0u64;
    let mut cells = 0usize;
    let mut hits = 0usize;
    println!(
        "{:<10} {:<14} {:<10} {:>12} {:>10}",
        "topology", "benchmark", "model", "sweeps", "violations"
    );
    for topo in [Topology::mesh8x8(), Topology::cmesh4x4()] {
        let suite = suite_for(ctx, topo, 500, FeatureSet::Reduced5);
        let campaign = ctx.campaign(topo);
        for cell in campaign.run_cells(&benches, &suite, &opts) {
            let (sweeps, violations) = cell
                .sanitizer
                .as_ref()
                .map_or((0, 0), |sr| (sr.sweeps, sr.total_violations));
            cells += 1;
            hits += cell.cache_hit as usize;
            total_violations += violations;
            println!(
                "{:<10} {:<14} {:<10} {:>12} {:>10}{}",
                topo.kind(),
                cell.result.benchmark,
                cell.result.model.slug(),
                sweeps,
                violations,
                if cell.cache_hit { "  (cached)" } else { "" }
            );
            if let Some(sr) = &cell.sanitizer {
                for v in &sr.violations {
                    eprintln!("    VIOLATION @ tick {}: {:?}", v.tick, v.kind);
                }
            }
            rows.push(format!(
                "{},{},{},{},{},{}",
                topo.kind(),
                cell.result.benchmark,
                cell.result.model.slug(),
                sweeps,
                violations,
                cell.result.report.stats.packets_delivered
            ));
        }
    }
    engine::log_cache(cache.as_ref(), hits, cells);
    ctx.write_csv(
        "sanitizer_check.csv",
        "topology,benchmark,model,sweeps,violations,packets_delivered",
        &rows,
    );
    if total_violations > 0 {
        eprintln!("\nFAIL: {total_violations} invariant violation(s) across {cells} cells");
        std::process::exit(1);
    }
    println!("\nOK: {cells} cells, zero invariant violations");
}
