use dozznoc_core::*;
use dozznoc_ml::FeatureSet;
use dozznoc_topology::Topology;
use dozznoc_traffic::TEST_BENCHMARKS;

#[allow(
    clippy::disallowed_types,
    reason = "a calibration run reports its own wall time; the readings never reach simulation state"
)]
fn main() {
    let dur: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let num: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let den: u64 = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let topo = Topology::mesh8x8();
    let t0 = std::time::Instant::now();
    let trainer = Trainer::new(topo).with_duration_ns(dur);
    let suite = ModelSuite::train(&trainer, FeatureSet::Reduced5);
    eprintln!("training took {:?}", t0.elapsed());
    eprintln!("dozznoc weights: {:?}", suite.dozznoc.weights);
    let t1 = std::time::Instant::now();
    let campaign = Campaign::new(topo)
        .with_duration_ns(dur)
        .try_with_load_scale(num, den)
        .expect("load scale arguments must be non-zero");
    let results = campaign.run(&TEST_BENCHMARKS, &suite);
    eprintln!("campaign took {:?}", t1.elapsed());
    for s in experiment::summarize(&results) {
        println!(
            "{:<22} static-save {:6.1}%  dyn-save {:6.1}%  tput-loss {:6.1}%  lat-incr {:6.1}%",
            s.model.label(),
            s.static_savings_pct(),
            s.dynamic_savings_pct(),
            s.throughput_loss_pct(),
            s.latency_increase_pct()
        );
    }
    for r in &results {
        eprintln!(
            "{:<12} {:<22} e2e {:8.1} ns  net {:7.1} ns  tput {:.3} f/ns  fin {:.1} us",
            r.benchmark,
            r.report.policy,
            r.report.stats.avg_latency_ns(),
            r.report.stats.avg_net_latency_ns(),
            r.report.stats.throughput_flits_per_ns(),
            r.report.finished_at.as_ns() / 1000.0
        );
    }
    // off fractions per model on first benchmark
    for r in results.iter().filter(|r| r.benchmark == "x264") {
        eprintln!(
            "x264 {:<22} off-frac {:.3} wakeups {} gate-offs {} be-viol {} modes {:?}",
            r.model.label(),
            r.report.energy.off_fraction(),
            r.report.energy.wakeups,
            r.report.energy.gate_offs,
            r.report.energy.breakeven_violations,
            r.report
                .stats
                .mode_distribution()
                .map(|v| (v * 100.0).round())
        );
    }
}
