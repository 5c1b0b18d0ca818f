//! The §IV-B headline numbers: per-model average savings vs. baseline on
//! mesh and cmesh, compared against the paper's quoted figures — plus
//! the DOZZNOC-5 vs DOZZNOC-41 feature ablation.

use dozznoc_core::experiment::summarize;
use dozznoc_core::ModelKind;
use dozznoc_ml::FeatureSet;
use dozznoc_topology::Topology;
use dozznoc_traffic::TEST_BENCHMARKS;

use crate::ctx::{banner, Ctx};
use crate::engine;
use crate::suite::suite_for;

/// Paper-quoted values for the comparison printout:
/// (model, static savings %, dynamic savings %, throughput loss %,
/// latency increase %).
const PAPER_MESH: [(ModelKind, f64, f64, f64, f64); 4] = [
    (ModelKind::PowerGated, 47.0, 0.0, 9.0, 5.0),
    (ModelKind::LeadDvfs, 25.0, 25.0, 3.0, 1.0),
    (ModelKind::DozzNoc, 53.0, 25.0, 7.0, 3.0),
    (ModelKind::MlTurbo, 52.0, 21.0, 7.0, 3.0),
];

/// cmesh: the paper quotes DozzNoC only (39% static, 18% dynamic, −5%
/// throughput, +2% latency).
const PAPER_CMESH_DOZZNOC: (f64, f64, f64, f64) = (39.0, 18.0, 5.0, 2.0);

/// Regenerate the headline summary for both topologies.
pub fn run(ctx: &Ctx) {
    for topo in [Topology::mesh8x8(), Topology::cmesh4x4()] {
        banner(&format!(
            "§IV-B headline — {} (epoch 500, uncompressed)",
            topo.kind()
        ));
        let suite = suite_for(ctx, topo, 500, FeatureSet::Reduced5);
        let campaign = ctx.campaign(topo);
        let results = engine::run_campaign(ctx, &campaign, &TEST_BENCHMARKS, &suite);
        let summaries = summarize(&results);

        println!(
            "{:<22} {:>12} {:>12} {:>11} {:>10} {:>10}",
            "model", "static-save", "dyn-save", "tput-loss", "lat-incr", "EDP"
        );
        let mut rows = Vec::new();
        for s in &summaries {
            println!(
                "{:<22} {:>11.1}% {:>11.1}% {:>10.1}% {:>9.1}% {:>9.1}%",
                s.model.label(),
                s.static_savings_pct(),
                s.dynamic_savings_pct(),
                s.throughput_loss_pct(),
                s.latency_increase_pct(),
                s.edp_change_pct()
            );
            rows.push(format!(
                "{},{:.4},{:.4},{:.4},{:.4},{:.4}",
                s.model.label(),
                s.static_savings_pct(),
                s.dynamic_savings_pct(),
                s.throughput_loss_pct(),
                s.latency_increase_pct(),
                s.edp_change_pct()
            ));
        }

        println!("\npaper-reported values for comparison:");
        match topo.kind() {
            dozznoc_topology::TopologyKind::Mesh => {
                for (m, s, d, t, l) in PAPER_MESH {
                    println!(
                        "{:<22} {:>11.1}% {:>11.1}% {:>10.1}% {:>9.1}%",
                        m.label(),
                        s,
                        d,
                        t,
                        l
                    );
                }
            }
            dozznoc_topology::TopologyKind::CMesh => {
                let (s, d, t, l) = PAPER_CMESH_DOZZNOC;
                println!(
                    "{:<22} {:>11.1}% {:>11.1}% {:>10.1}% {:>9.1}%",
                    ModelKind::DozzNoc.label(),
                    s,
                    d,
                    t,
                    l
                );
            }
        }
        ctx.write_csv(
            &format!("headline_{}.csv", topo.kind()),
            "model,static_save_pct,dyn_save_pct,tput_loss_pct,lat_incr_pct,edp_change_pct",
            &rows,
        );
    }
}

/// DOZZNOC-5 vs DOZZNOC-41 (§IV-B.1): reducing 41 features to 5 should
/// cost almost nothing.
pub fn ablation_features(ctx: &Ctx) {
    banner("Feature ablation — DOZZNOC-5 vs DOZZNOC-41 (mesh, epoch 500)");
    let topo = Topology::mesh8x8();
    let mut rows = Vec::new();
    for fs in [FeatureSet::Reduced5, FeatureSet::Full41] {
        let suite = suite_for(ctx, topo, 500, fs);
        let campaign = ctx
            .campaign(topo)
            .try_with_models(&[ModelKind::Baseline, ModelKind::DozzNoc])
            .expect("non-empty model set");
        let results = engine::run_campaign(ctx, &campaign, &TEST_BENCHMARKS, &suite);
        let summary = summarize(&results)
            .into_iter()
            .find(|s| s.model == ModelKind::DozzNoc)
            .expect("dozznoc summarized");
        println!(
            "DOZZNOC-{:<3} static-save {:>5.1}%  dyn-save {:>5.1}%  tput-loss {:>5.1}%  lat-incr {:>6.1}%  (λ={:.3}, val-MSE={:.5})",
            fs.len(),
            summary.static_savings_pct(),
            summary.dynamic_savings_pct(),
            summary.throughput_loss_pct(),
            summary.latency_increase_pct(),
            suite.dozznoc.lambda,
            suite.dozznoc.validation_mse,
        );
        rows.push(format!(
            "{},{:.4},{:.4},{:.4},{:.4}",
            fs.len(),
            summary.static_savings_pct(),
            summary.dynamic_savings_pct(),
            summary.throughput_loss_pct(),
            summary.latency_increase_pct()
        ));
    }
    println!("(paper: almost no difference between the two)");
    ctx.write_csv(
        "ablation_features.csv",
        "features,static_save_pct,dyn_save_pct,tput_loss_pct,lat_incr_pct",
        &rows,
    );
}
