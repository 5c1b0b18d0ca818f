//! Scalability extension (§III-A claim): "As the proposed approach does
//! not require global coordination to select voltage level, we can scale
//! to large number of routers."
//!
//! Every feature the model consumes is router-local and normalized, so a
//! model trained on the 8×8 mesh should transfer to other mesh sizes
//! unchanged. This experiment runs the *8×8-trained* DOZZNOC model on
//! 4×4 … 16×16 meshes and reports whether the savings story survives
//! the transfer.

use dozznoc_core::ModelKind;
use dozznoc_ml::FeatureSet;
use dozznoc_topology::Topology;
use dozznoc_traffic::Benchmark;

use crate::ctx::{banner, Ctx};
use crate::engine;
use crate::suite::suite_for;

/// Mesh side lengths swept.
pub const MESH_SIDES: [u16; 4] = [4, 8, 12, 16];

/// Run the mesh-size sweep with the 8×8-trained model.
pub fn run(ctx: &Ctx) {
    banner("Scalability — 8×8-trained DOZZNOC on 4×4…16×16 meshes");
    let suite = suite_for(ctx, Topology::mesh8x8(), 500, FeatureSet::Reduced5);

    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>11} {:>11}",
        "mesh", "routers", "static-save", "dyn-save", "tput-loss", "lat-incr"
    );
    let mut rows = Vec::new();
    for side in MESH_SIDES {
        let topo = Topology::new(side, side, 1);
        let campaign = ctx
            .campaign(topo)
            .try_with_models(&[ModelKind::Baseline, ModelKind::DozzNoc])
            .expect("non-empty model set");
        let results = engine::run_campaign(ctx, &campaign, &[Benchmark::Fft], &suite);
        let (base, dozz) = (&results[0].report, &results[1].report);
        let s = (1.0 - dozz.static_energy_vs(base)) * 100.0;
        let d = (1.0 - dozz.dynamic_energy_vs(base)) * 100.0;
        let t = (1.0 - dozz.throughput_vs(base)) * 100.0;
        let l = (dozz.latency_vs(base) - 1.0) * 100.0;
        println!(
            "{:>6} {:>8} {:>11.1}% {:>11.1}% {:>10.1}% {:>10.1}%",
            format!("{side}×{side}"),
            topo.num_routers(),
            s,
            d,
            t,
            l
        );
        rows.push(format!(
            "{side},{},{s:.4},{d:.4},{t:.4},{l:.4}",
            topo.num_routers()
        ));
    }
    println!("(the model is trained on the 8×8 mesh only — local features transfer)");
    ctx.write_csv(
        "scale_mesh.csv",
        "side,routers,static_save_pct,dyn_save_pct,tput_loss_pct,lat_incr_pct",
        &rows,
    );
}
