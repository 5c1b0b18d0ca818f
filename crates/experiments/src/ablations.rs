//! Mechanism ablations for the design choices DESIGN.md calls out:
//!
//! * **wake punching** — the Power Punch-style full-path wake at
//!   injection vs. only the one-hop look-ahead wake. The paper's
//!   "partially non-blocking" property rests on this.
//! * **T-Idle** — the gate-off idle threshold. The paper argues 4 cycles
//!   balances savings against break-even violations; the sweep makes the
//!   trade-off measurable.
//!
//! Every variant is a campaign with its own simulator configuration, so
//! the run cache keys it apart, and the paper-configured cells replay
//! what `headline` already simulated.

use dozznoc_core::ModelKind;
use dozznoc_ml::FeatureSet;
use dozznoc_topology::{DimOrder, Topology};
use dozznoc_traffic::TEST_BENCHMARKS;

use crate::ctx::{banner, Ctx};
use crate::engine;
use crate::suite::suite_for;

/// Run the gating-mechanism ablations.
pub fn gating(ctx: &Ctx) {
    banner("Ablation — wake punching and T-Idle (mesh, PG+DVFS, uncompressed)");
    let topo = Topology::mesh8x8();
    let suite = suite_for(ctx, topo, 500, FeatureSet::Reduced5);
    let paper = ctx.campaign(topo);
    // Every variant is measured against the paper-configured baseline.
    let baselines = engine::run_campaign(
        ctx,
        &paper
            .clone()
            .try_with_models(&[ModelKind::Baseline])
            .expect("non-empty model set"),
        &TEST_BENCHMARKS,
        &suite,
    );

    let cfg = paper.config();
    let variants = [
        ("paper (punch, T-Idle 4)", cfg),
        ("no wake punch", cfg.without_wake_punch()),
        ("T-Idle 2", cfg.with_t_idle(2)),
        ("T-Idle 16", cfg.with_t_idle(16)),
        ("T-Idle 64", cfg.with_t_idle(64)),
    ];

    println!(
        "{:<26} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "variant", "static-save", "net-lat +%", "off-frac", "be-violations", "wakeups"
    );
    let mut rows = Vec::new();
    for (name, cfg) in variants {
        let campaign = paper
            .clone()
            .with_config(cfg)
            .try_with_models(&[ModelKind::DozzNoc])
            .expect("non-empty model set");
        let results = engine::run_campaign(ctx, &campaign, &TEST_BENCHMARKS, &suite);
        // Aggregate over the test set against each trace's own baseline.
        let (mut s, mut l, mut off) = (0.0, 0.0, 0.0);
        let (mut viol, mut wakes) = (0u64, 0u64);
        for (base, r) in baselines.iter().zip(&results) {
            let (base, r) = (&base.report, &r.report);
            s += 1.0 - r.static_energy_vs(base);
            l += r.latency_vs(base) - 1.0;
            off += r.energy.off_fraction();
            viol += r.energy.breakeven_violations;
            wakes += r.energy.wakeups;
        }
        let n = results.len() as f64;
        println!(
            "{:<26} {:>11.1}% {:>11.1}% {:>10.3} {:>12} {:>10}",
            name,
            s / n * 100.0,
            l / n * 100.0,
            off / n,
            viol,
            wakes
        );
        rows.push(format!(
            "{},{:.4},{:.4},{:.4},{viol},{wakes}",
            name,
            s / n * 100.0,
            l / n * 100.0,
            off / n
        ));
    }
    ctx.write_csv(
        "ablation_gating.csv",
        "variant,static_save_pct,net_lat_incr_pct,off_fraction,breakeven_violations,wakeups",
        &rows,
    );
}

/// Routing-sensitivity extension: the paper argues DozzNoC needs only a
/// deterministic look-ahead route (XY DOR); YX is an equally valid order
/// and shows how much the results depend on that choice.
pub fn routing(ctx: &Ctx) {
    banner("Extension — routing sensitivity: XY vs YX dimension order");
    let topo = Topology::mesh8x8();
    let suite = suite_for(ctx, topo, 500, FeatureSet::Reduced5);
    let xy = ctx
        .campaign(topo)
        .try_with_models(&[ModelKind::Baseline, ModelKind::DozzNoc])
        .expect("non-empty model set");
    let yx = xy
        .clone()
        .with_config(xy.config().with_routing(DimOrder::Yx));
    let orders = [("XY", &xy), ("YX", &yx)]
        .map(|(name, c)| (name, engine::run_campaign(ctx, c, &TEST_BENCHMARKS, &suite)));

    println!(
        "{:<12} {:<6} {:>12} {:>12} {:>11} {:>12}",
        "benchmark", "order", "static-save", "dyn-save", "tput-loss", "net-lat ns"
    );
    let mut rows = Vec::new();
    for (bi, bench) in TEST_BENCHMARKS.iter().enumerate() {
        for (name, results) in &orders {
            // Cells are benchmark-major: [baseline, dozznoc] per bench.
            let (base, r) = (&results[2 * bi].report, &results[2 * bi + 1].report);
            let s = (1.0 - r.static_energy_vs(base)) * 100.0;
            let d = (1.0 - r.dynamic_energy_vs(base)) * 100.0;
            let t = (1.0 - r.throughput_vs(base)) * 100.0;
            let l = r.stats.avg_net_latency_ns();
            println!(
                "{:<12} {:<6} {:>11.1}% {:>11.1}% {:>10.1}% {:>12.1}",
                bench.name(),
                name,
                s,
                d,
                t,
                l
            );
            rows.push(format!(
                "{},{name},{s:.4},{d:.4},{t:.4},{l:.2}",
                bench.name()
            ));
        }
    }
    println!("(the DozzNoC story must not hinge on the specific DOR order)");
    ctx.write_csv(
        "routing_sensitivity.csv",
        "benchmark,order,static_save_pct,dyn_save_pct,tput_loss_pct,net_lat_ns",
        &rows,
    );
}
