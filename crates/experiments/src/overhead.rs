//! §III-D: ML label-generation overhead for the 5- and 41-feature sets,
//! and the rail-transition energy the paper's accounting leaves out.

use dozznoc_core::ModelKind;
use dozznoc_ml::FeatureSet;
use dozznoc_power::MlOverhead;
use dozznoc_topology::Topology;
use dozznoc_traffic::TEST_BENCHMARKS;

use crate::ctx::{banner, Ctx};
use crate::engine;
use crate::suite::suite_for;

/// Regenerate the overhead comparison.
pub fn run(ctx: &Ctx) {
    banner("§III-D — ML label-generation overhead");
    println!(
        "{:>10} {:>14} {:>12} {:>10}",
        "features", "energy (pJ)", "area (mm²)", "cycles"
    );
    let mut rows = Vec::new();
    for n in [5usize, 41] {
        let o = MlOverhead::for_features(n);
        println!(
            "{:>10} {:>14.1} {:>12.3} {:>10}",
            n, o.energy_pj, o.area_mm2, o.latency_cycles
        );
        rows.push(format!(
            "{n},{},{},{}",
            o.energy_pj, o.area_mm2, o.latency_cycles
        ));
    }
    println!("(paper: 7.1 pJ / 0.013 mm² for 5; 61.1 pJ / 0.122 mm² for 41; 3–4 cycles)");
    ctx.write_csv(
        "overhead.csv",
        "features,energy_pj,area_mm2,latency_cycles",
        &rows,
    );
}

/// Transition-energy study (extension): how big is the wake/switch
/// charge cost the paper's accounting ignores?
pub fn transitions(ctx: &Ctx) {
    banner("Extension — rail-transition energy vs the paper's accounting");
    let topo = Topology::mesh8x8();
    let suite = suite_for(ctx, topo, 500, FeatureSet::Reduced5);
    let models = [
        ModelKind::Baseline,
        ModelKind::PowerGated,
        ModelKind::DozzNoc,
    ];
    let campaign = ctx
        .campaign(topo)
        .try_with_models(&models)
        .expect("non-empty model set");
    let results = engine::run_campaign(ctx, &campaign, &TEST_BENCHMARKS, &suite);

    println!(
        "{:<12} {:<22} {:>12} {:>12} {:>12} {:>10}",
        "benchmark", "model", "static µJ", "saved µJ", "transition µJ", "share"
    );
    let mut rows = Vec::new();
    // Cells are benchmark-major, the baseline first in each block.
    for cells in results.chunks_exact(models.len()) {
        let base = &cells[0].report;
        for cell in &cells[1..] {
            let r = &cell.report;
            let saved = (base.energy.static_j - r.energy.static_j).max(0.0);
            let share = r.energy.transition_j / saved.max(f64::MIN_POSITIVE);
            println!(
                "{:<12} {:<22} {:>12.2} {:>12.2} {:>12.3} {:>9.1}%",
                cell.benchmark,
                cell.model.label(),
                r.energy.static_j * 1e6,
                saved * 1e6,
                r.energy.transition_j * 1e6,
                share * 100.0
            );
            rows.push(format!(
                "{},{},{:.4e},{:.4e},{:.4e},{:.4}",
                cell.benchmark,
                cell.model.label(),
                r.energy.static_j,
                saved,
                r.energy.transition_j,
                share
            ));
        }
    }
    println!(
        "(share = transition energy / static energy saved; small shares justify\n\
         the paper's choice to account transitions in time but not charge)"
    );
    ctx.write_csv(
        "transition_energy.csv",
        "benchmark,model,static_j,saved_j,transition_j,share_of_savings",
        &rows,
    );
}
