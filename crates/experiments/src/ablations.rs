//! Mechanism ablations for the design choices DESIGN.md calls out:
//!
//! * **wake punching** — the Power Punch-style full-path wake at
//!   injection vs. only the one-hop look-ahead wake. The paper's
//!   "partially non-blocking" property rests on this.
//! * **T-Idle** — the gate-off idle threshold. The paper argues 4 cycles
//!   balances savings against break-even violations; the sweep makes the
//!   trade-off measurable.

use dozznoc_core::{run_model, ModelKind, Oracle, Proactive, Reactive};
use dozznoc_ml::FeatureSet;
use dozznoc_noc::{Network, NocConfig, PowerPolicy, RunReport};
use dozznoc_topology::Topology;
use dozznoc_traffic::{TraceGenerator, TEST_BENCHMARKS};

use crate::ctx::{banner, Ctx};
use crate::suite::suite_for;

/// Run the gating-mechanism ablations.
pub fn gating(ctx: &Ctx) {
    banner("Ablation — wake punching and T-Idle (mesh, PG+DVFS, uncompressed)");
    let topo = Topology::mesh8x8();
    let suite = suite_for(ctx, topo, 500, FeatureSet::Reduced5);
    let traces: Vec<_> = TEST_BENCHMARKS
        .iter()
        .map(|&b| {
            TraceGenerator::new(topo)
                .with_duration_ns(ctx.duration_ns())
                .with_seed(ctx.seed)
                .generate(b)
        })
        .collect();

    let variants: Vec<(String, NocConfig)> = vec![
        ("paper (punch, T-Idle 4)".into(), NocConfig::paper(topo)),
        (
            "no wake punch".into(),
            NocConfig::paper(topo).without_wake_punch(),
        ),
        ("T-Idle 2".into(), NocConfig::paper(topo).with_t_idle(2)),
        ("T-Idle 16".into(), NocConfig::paper(topo).with_t_idle(16)),
        ("T-Idle 64".into(), NocConfig::paper(topo).with_t_idle(64)),
    ];

    println!(
        "{:<26} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "variant", "static-save", "net-lat +%", "off-frac", "be-violations", "wakeups"
    );
    let mut rows = Vec::new();
    for (name, cfg) in &variants {
        // Aggregate over the test set against each trace's own baseline.
        let (mut s, mut l, mut off) = (0.0, 0.0, 0.0);
        let (mut viol, mut wakes) = (0u64, 0u64);
        for trace in &traces {
            let base = run_model(NocConfig::paper(topo), trace, ModelKind::Baseline, &suite);
            let r = run_model(*cfg, trace, ModelKind::DozzNoc, &suite);
            s += 1.0 - r.static_energy_vs(&base);
            l += r.latency_vs(&base) - 1.0;
            off += r.energy.off_fraction();
            viol += r.energy.breakeven_violations;
            wakes += r.energy.wakeups;
        }
        let n = traces.len() as f64;
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

/// Reactive vs. proactive (ML) vs. oracle: how much of the staleness gap
/// does the paper's ridge predictor close?
pub fn proactive(ctx: &Ctx) {
    banner("Ablation — reactive vs ML-proactive vs oracle (mesh, DVFS-only)");
    let topo = Topology::mesh8x8();
    let cfg = NocConfig::paper(topo);
    let suite = suite_for(ctx, topo, 500, FeatureSet::Reduced5);

    println!(
        "{:<12} {:<10} {:>11} {:>11} {:>10} {:>9}",
        "benchmark", "selector", "net-lat ns", "dyn-save %", "static %", "tput f/ns"
    );
    let mut rows = Vec::new();
    for &bench in &TEST_BENCHMARKS {
        let trace = TraceGenerator::new(topo)
            .with_duration_ns(ctx.duration_ns())
            .with_seed(ctx.seed)
            .generate(bench);
        let base = run_model(cfg, &trace, ModelKind::Baseline, &suite);

        let mut run = |name: &str, policy: &mut dyn PowerPolicy| -> RunReport {
            let r = Network::new(cfg).run(&trace, policy).expect("ablation run");
            println!(
                "{:<12} {:<10} {:>11.1} {:>11.1} {:>10.1} {:>9.2}",
                bench.name(),
                name,
                r.stats.avg_net_latency_ns(),
                (1.0 - r.dynamic_energy_vs(&base)) * 100.0,
                (1.0 - r.static_energy_vs(&base)) * 100.0,
                r.stats.throughput_flits_per_ns(),
            );
            rows.push(format!(
                "{},{},{:.2},{:.4},{:.4},{:.4}",
                bench.name(),
                name,
                r.stats.avg_net_latency_ns(),
                (1.0 - r.dynamic_energy_vs(&base)) * 100.0,
                (1.0 - r.static_energy_vs(&base)) * 100.0,
                r.stats.throughput_flits_per_ns()
            ));
            r
        };

        run("reactive", &mut Reactive::lead());
        run("ml", &mut Proactive::lead(suite.lead.clone()));
        let mut oracle = Oracle::record(cfg, &trace, false);
        run("oracle", &mut oracle);
    }
    println!(
        "\n(gating disabled for all three so the comparison isolates mode *selection*;\n\
         the oracle knows each epoch's recorded future IBU exactly)"
    );
    ctx.write_csv(
        "ablation_proactive.csv",
        "benchmark,selector,net_lat_ns,dyn_save_pct,static_save_pct,tput_flits_per_ns",
        &rows,
    );
}

/// Routing-sensitivity extension: the paper argues DozzNoC needs only a
/// deterministic look-ahead route (XY DOR); YX is an equally valid order
/// and shows how much the results depend on that choice.
pub fn routing(ctx: &Ctx) {
    use dozznoc_topology::DimOrder;

    banner("Extension — routing sensitivity: XY vs YX dimension order");
    let topo = Topology::mesh8x8();
    let suite = suite_for(ctx, topo, 500, FeatureSet::Reduced5);

    println!(
        "{:<12} {:<6} {:>12} {:>12} {:>11} {:>12}",
        "benchmark", "order", "static-save", "dyn-save", "tput-loss", "net-lat ns"
    );
    let mut rows = Vec::new();
    for &bench in &TEST_BENCHMARKS {
        let trace = TraceGenerator::new(topo)
            .with_duration_ns(ctx.duration_ns())
            .with_seed(ctx.seed)
            .generate(bench);
        for (name, order) in [("XY", DimOrder::Xy), ("YX", DimOrder::Yx)] {
            let cfg = NocConfig::paper(topo).with_routing(order);
            let base = run_model(cfg, &trace, ModelKind::Baseline, &suite);
            let r = run_model(cfg, &trace, ModelKind::DozzNoc, &suite);
            let s = (1.0 - r.static_energy_vs(&base)) * 100.0;
            let d = (1.0 - r.dynamic_energy_vs(&base)) * 100.0;
            let t = (1.0 - r.throughput_vs(&base)) * 100.0;
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
