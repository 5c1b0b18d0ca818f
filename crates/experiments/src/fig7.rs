//! Fig. 7: distribution of predicted DVFS modes for the three ML models
//! over the five test benchmarks (8×8 mesh, uncompressed, epoch 500).

use dozznoc_core::ModelKind;
use dozznoc_ml::FeatureSet;
use dozznoc_topology::Topology;
use dozznoc_traffic::TEST_BENCHMARKS;

use crate::ctx::{banner, Ctx};
use crate::engine;
use crate::suite::suite_for;

const ML_MODELS: [ModelKind; 3] = [ModelKind::DozzNoc, ModelKind::LeadDvfs, ModelKind::MlTurbo];

/// Regenerate the per-benchmark mode-residency breakdown.
pub fn run(ctx: &Ctx) {
    banner("Fig. 7 — DVFS mode distribution (8×8 mesh, uncompressed, epoch 500)");
    let topo = Topology::mesh8x8();
    let suite = suite_for(ctx, topo, 500, FeatureSet::Reduced5);
    let campaign = ctx
        .campaign(topo)
        .try_with_models(&ML_MODELS)
        .expect("non-empty model set");
    let results = engine::run_campaign(ctx, &campaign, &TEST_BENCHMARKS, &suite);

    let mut rows = Vec::new();
    for model in ML_MODELS {
        println!("\n{}", model.label());
        println!(
            "{:<14} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "benchmark", "M3", "M4", "M5", "M6", "M7"
        );
        for r in results.iter().filter(|r| r.model == model) {
            let d = r.report.stats.mode_distribution();
            println!(
                "{:<14} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
                r.benchmark,
                d[0] * 100.0,
                d[1] * 100.0,
                d[2] * 100.0,
                d[3] * 100.0,
                d[4] * 100.0
            );
            rows.push(format!(
                "{},{},{:.4},{:.4},{:.4},{:.4},{:.4}",
                model.label(),
                r.benchmark,
                d[0],
                d[1],
                d[2],
                d[3],
                d[4]
            ));
        }
    }
    ctx.write_csv(
        "fig7_mode_distribution.csv",
        "model,benchmark,m3,m4,m5,m6,m7",
        &rows,
    );
}
