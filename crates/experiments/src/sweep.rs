//! The §IV-B epoch-size sweep: train and evaluate DOZZNOC at epoch sizes
//! 100–1000. The paper settles on 500 as the balance between model
//! responsiveness and training-data volume; each epoch size gets its own
//! separately trained model.

use dozznoc_core::experiment::summarize;
use dozznoc_core::ModelKind;
use dozznoc_ml::FeatureSet;
use dozznoc_topology::Topology;
use dozznoc_traffic::TEST_BENCHMARKS;

use crate::ctx::{banner, Ctx};
use crate::engine;
use crate::suite::suite_for;

/// Epoch sizes swept (paper: "multiple epoch sizes (100 – 1000)").
pub const EPOCH_SIZES: [u64; 4] = [100, 250, 500, 1000];

/// Regenerate the epoch-size trade-off.
pub fn run(ctx: &Ctx) {
    banner("Epoch sweep — DOZZNOC at epoch sizes 100–1000 (mesh, uncompressed)");
    let topo = Topology::mesh8x8();
    println!(
        "{:>8} {:>12} {:>12} {:>11} {:>10} {:>12}",
        "epoch", "static-save", "dyn-save", "tput-loss", "lat-incr", "val-MSE"
    );
    let mut rows = Vec::new();
    for epoch in EPOCH_SIZES {
        let suite = suite_for(ctx, topo, epoch, FeatureSet::Reduced5);
        let campaign = ctx
            .campaign(topo)
            .try_with_epoch_cycles(epoch)
            .expect("sweep epoch sizes are valid")
            .try_with_models(&[ModelKind::Baseline, ModelKind::DozzNoc])
            .expect("non-empty model set");
        let results = engine::run_campaign(ctx, &campaign, &TEST_BENCHMARKS, &suite);
        let s = summarize(&results)
            .into_iter()
            .find(|s| s.model == ModelKind::DozzNoc)
            .expect("dozznoc summarized");
        println!(
            "{:>8} {:>11.1}% {:>11.1}% {:>10.1}% {:>9.1}% {:>12.6}",
            epoch,
            s.static_savings_pct(),
            s.dynamic_savings_pct(),
            s.throughput_loss_pct(),
            s.latency_increase_pct(),
            suite.dozznoc.validation_mse
        );
        rows.push(format!(
            "{epoch},{:.4},{:.4},{:.4},{:.4},{:.6}",
            s.static_savings_pct(),
            s.dynamic_savings_pct(),
            s.throughput_loss_pct(),
            s.latency_increase_pct(),
            suite.dozznoc.validation_mse
        ));
    }
    println!("(paper selects epoch 500)");
    ctx.write_csv(
        "sweep_epoch.csv",
        "epoch,static_save_pct,dyn_save_pct,tput_loss_pct,lat_incr_pct,val_mse",
        &rows,
    );
}
