//! Latency-distribution report (extension): P50/P95/P99 network latency
//! per model. Mean latency hides exactly the tail where DozzNoC's costs
//! (T-Wakeup stalls, low-mode epochs) concentrate; the percentiles make
//! the trade-off the paper prices implicitly visible.

use dozznoc_core::model::ALL_MODELS;
use dozznoc_ml::FeatureSet;
use dozznoc_topology::Topology;
use dozznoc_traffic::TEST_BENCHMARKS;

use crate::ctx::{banner, Ctx};
use crate::engine;
use crate::suite::suite_for;

/// Regenerate the latency-percentile table.
pub fn run(ctx: &Ctx) {
    banner("Latency distribution — network latency percentiles (mesh, uncompressed)");
    let topo = Topology::mesh8x8();
    let suite = suite_for(ctx, topo, 500, FeatureSet::Reduced5);
    let campaign = ctx.campaign(topo);
    let results = engine::run_campaign(ctx, &campaign, &TEST_BENCHMARKS, &suite);

    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "model", "mean ns", "P50 ns", "P95 ns", "P99 ns", "max ns"
    );
    let mut rows = Vec::new();
    for model in ALL_MODELS {
        // One merged RunStats per model: sums, maxima and histograms
        // fold benchmark-by-benchmark, so the mean is packet-weighted
        // (a mean of per-benchmark means would over-weight short
        // benchmarks) and the max/percentiles come from one
        // distribution.
        let mut stats = dozznoc_noc::RunStats::default();
        for r in results.iter().filter(|r| r.model == model) {
            stats.merge(&r.report.stats);
        }
        let mean = stats.avg_net_latency_ns();
        let max = stats.net_latency_max_ticks as f64 / dozznoc_types::TICKS_PER_NS as f64;
        let hist = &stats.net_latency_hist;
        println!(
            "{:<22} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            model.label(),
            mean,
            hist.percentile_ns(0.5),
            hist.percentile_ns(0.95),
            hist.percentile_ns(0.99),
            max
        );
        rows.push(format!(
            "{},{mean:.2},{:.2},{:.2},{:.2},{max:.2}",
            model.label(),
            hist.percentile_ns(0.5),
            hist.percentile_ns(0.95),
            hist.percentile_ns(0.99)
        ));
    }
    println!("(percentile values are log₂-bucket upper bounds: ≤2× resolution)");
    ctx.write_csv(
        "latency_percentiles.csv",
        "model,mean_ns,p50_ns,p95_ns,p99_ns,max_ns",
        &rows,
    );
}
