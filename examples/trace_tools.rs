//! Trace-file workflow: generate → save (JSON) → load →
//! inspect → compress → replay, plus a per-router activity heatmap.
//!
//! ```text
//! cargo run --release --example trace_tools [benchmark]
//! ```

use dozznoc::prelude::*;
use dozznoc::traffic::io;

fn main() {
    let bench_name = std::env::args().nth(1).unwrap_or_else(|| "fft".into());
    let bench = ALL_BENCHMARKS
        .iter()
        .copied()
        .find(|b| b.name() == bench_name)
        .unwrap_or_else(|| {
            eprintln!("unknown benchmark `{bench_name}`; using fft");
            Benchmark::Fft
        });

    let topo = Topology::mesh8x8();
    // 2 µs keeps the JSON file small: the vendored JSON parser's load
    // time grows with the square of the file size.
    let trace = TraceGenerator::new(topo)
        .with_duration_ns(2_000)
        .generate(bench);

    // ── inspect ──
    let s = trace.stats();
    println!("trace `{}`:", trace.name);
    println!(
        "  {} packets ({} requests, {} responses), {} flits",
        s.packets, s.requests, s.responses, s.flits
    );
    println!(
        "  horizon {:.1} µs, offered load {:.2} flits/ns, {} active cores",
        trace.horizon().as_ns() / 1000.0,
        s.flits_per_ns,
        s.active_cores
    );

    // ── save, load back and verify ──
    let path = std::env::temp_dir().join(format!("{}.json", trace.name));
    io::save(&trace, &path).expect("save json");
    let size = std::fs::metadata(&path).unwrap().len();
    println!("\nsaved {} ({size} B json)", path.display());
    let reloaded = io::load(&path).expect("load json");
    assert_eq!(reloaded, trace, "json round trip must be exact");
    println!("json round trip verified ({} packets)", reloaded.len());

    // ── compress and replay under DozzNoC ──
    let compressed = trace.rescale(2, 3);
    println!(
        "\ncompressed to {:.1} µs horizon ({:.2} flits/ns)",
        compressed.horizon().as_ns() / 1000.0,
        compressed.stats().flits_per_ns
    );

    let suite = ModelSuite::train(
        &Trainer::new(topo).with_duration_ns(4_000),
        FeatureSet::Reduced5,
    );
    let report = run_model(
        NocConfig::paper(topo),
        &reloaded,
        ModelKind::DozzNoc,
        &suite,
    );
    println!(
        "\nreplayed under DOZZNOC: {} packets, net latency {:.1} ns mean / {:.1} ns P99",
        report.stats.packets_delivered,
        report.stats.avg_net_latency_ns(),
        report.stats.net_latency_hist.percentile_ns(0.99),
    );

    // ── per-router off-time heatmap ──
    println!("\nper-router off-fraction heatmap (8×8, darker = more sleep):");
    let shades = [' ', '░', '▒', '▓', '█'];
    for y in 0..8 {
        let mut line = String::new();
        for x in 0..8 {
            let r = &report.per_router[y * 8 + x];
            #[allow(
                clippy::cast_possible_truncation,
                reason = "off_fraction is in [0, 1], so the product is a small non-negative shade index; `as` floors it"
            )]
            let idx = ((r.off_fraction * shades.len() as f64) as usize).min(shades.len() - 1);
            line.push(shades[idx]);
            line.push(shades[idx]);
        }
        println!("  {line}");
    }
    let mean_off: f64 = report
        .per_router
        .iter()
        .map(|r| r.off_fraction)
        .sum::<f64>()
        / 64.0;
    println!("  mean off-fraction {:.1}%", mean_off * 100.0);

    std::fs::remove_file(&path).ok();
}
