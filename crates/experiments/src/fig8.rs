//! Fig. 8: (a) throughput on the compressed mesh; (b, c) static and
//! dynamic energy normalized to the baseline, compressed and
//! uncompressed.
//!
//! "Compressed" scales injection times to ⅔ (1.5× offered load, near
//! saturation during busy phases); uncompressed runs the raw traces.

use dozznoc_core::model::ALL_MODELS;
use dozznoc_core::{CampaignResult, ModelKind};
use dozznoc_ml::FeatureSet;
use dozznoc_topology::Topology;
use dozznoc_traffic::TEST_BENCHMARKS;

use crate::ctx::{banner, Ctx};
use crate::engine;
use crate::suite::suite_for;

/// Regenerate all three panels.
pub fn run(ctx: &Ctx) {
    banner("Fig. 8 — throughput and normalized energy (8×8 mesh, epoch 500)");
    let topo = Topology::mesh8x8();
    let suite = suite_for(ctx, topo, 500, FeatureSet::Reduced5);

    let campaign = ctx
        .campaign(topo)
        .try_with_load_scale(2, 3)
        .expect("2/3 compression is valid");
    let compressed = engine::run_campaign(ctx, &campaign, &TEST_BENCHMARKS, &suite);
    let campaign = ctx.campaign(topo);
    let uncompressed = engine::run_campaign(ctx, &campaign, &TEST_BENCHMARKS, &suite);

    println!("\n(a) throughput, compressed traces (flits/ns)");
    print_panel(
        ctx,
        &compressed,
        "fig8a_throughput_compressed.csv",
        |r, base| {
            (
                r.report.stats.throughput_flits_per_ns(),
                r.report.throughput_vs(&base.report),
            )
        },
    );

    println!("\n(b) energy normalized to baseline, compressed traces");
    energy_panel(ctx, &compressed, "fig8b_energy_compressed.csv");

    println!("\n(c) energy normalized to baseline, uncompressed traces");
    energy_panel(ctx, &uncompressed, "fig8c_energy_uncompressed.csv");
}

fn baseline_of<'a>(results: &'a [CampaignResult], benchmark: &str) -> &'a CampaignResult {
    results
        .iter()
        .find(|r| r.model == ModelKind::Baseline && r.benchmark == benchmark)
        .expect("baseline row exists")
}

fn print_panel(
    ctx: &Ctx,
    results: &[CampaignResult],
    csv: &str,
    metric: impl Fn(&CampaignResult, &CampaignResult) -> (f64, f64),
) {
    println!(
        "{:<14} {:<22} {:>12} {:>12}",
        "benchmark", "model", "absolute", "vs baseline"
    );
    let mut rows = Vec::new();
    for r in results {
        let base = baseline_of(results, &r.benchmark);
        let (abs, rel) = metric(r, base);
        println!(
            "{:<14} {:<22} {:>12.3} {:>12.3}",
            r.benchmark,
            r.model.label(),
            abs,
            rel
        );
        rows.push(format!("{},{},{abs},{rel}", r.benchmark, r.model.label()));
    }
    ctx.write_csv(csv, "benchmark,model,absolute,vs_baseline", &rows);
}

fn energy_panel(ctx: &Ctx, results: &[CampaignResult], csv: &str) {
    println!(
        "{:<14} {:<22} {:>10} {:>10}",
        "benchmark", "model", "static", "dynamic"
    );
    let mut rows = Vec::new();
    for r in results {
        let base = baseline_of(results, &r.benchmark);
        let s = r.report.static_energy_vs(&base.report);
        let d = r.report.dynamic_energy_vs(&base.report);
        println!(
            "{:<14} {:<22} {:>10.3} {:>10.3}",
            r.benchmark,
            r.model.label(),
            s,
            d
        );
        rows.push(format!("{},{},{s},{d}", r.benchmark, r.model.label()));
    }
    // Per-model means across benchmarks (the bars the paper summarizes).
    println!("{:-<60}", "");
    for model in ALL_MODELS {
        let rs: Vec<_> = results.iter().filter(|r| r.model == model).collect();
        let n = rs.len().max(1) as f64;
        let s: f64 = rs
            .iter()
            .map(|r| {
                r.report
                    .static_energy_vs(&baseline_of(results, &r.benchmark).report)
            })
            .sum::<f64>()
            / n;
        let d: f64 = rs
            .iter()
            .map(|r| {
                r.report
                    .dynamic_energy_vs(&baseline_of(results, &r.benchmark).report)
            })
            .sum::<f64>()
            / n;
        println!(
            "{:<14} {:<22} {:>10.3} {:>10.3}",
            "MEAN",
            model.label(),
            s,
            d
        );
    }
    ctx.write_csv(
        csv,
        "benchmark,model,static_vs_baseline,dynamic_vs_baseline",
        &rows,
    );
}
