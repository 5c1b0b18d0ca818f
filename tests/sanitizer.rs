//! The invariant sanitizer is purely observational: running any
//! simulation under it must (a) report zero violations on the correct
//! simulator and (b) produce the *bit-identical* report the unsanitized
//! run produces. These tests also assert `last_delivery` and
//! `secure_underflows` under the sanitizer; every `RunStats` counter is
//! checked by `tests/conservation.rs::every_run_stats_counter_is_checked`.

use dozznoc::noc::SimSanitizer;
use dozznoc::prelude::*;

fn short_trace(topo: Topology, bench: Benchmark) -> Trace {
    TraceGenerator::new(topo)
        .with_duration_ns(2_000)
        .generate(bench)
}

/// Sanitized and plain runs of the same (trace, policy) pair must agree
/// exactly — the sanitizer may read simulator state but never perturb it.
#[test]
fn sanitized_run_report_equals_plain_run_report() {
    for topo in [Topology::mesh8x8(), Topology::cmesh4x4()] {
        let trace = short_trace(topo, Benchmark::Fft);

        let plain = Network::new(NocConfig::paper(topo))
            .run(&trace, &mut Reactive::dozznoc())
            .expect("plain run completes");

        let mut san = SimSanitizer::default();
        let sanitized = Network::new(NocConfig::paper(topo))
            .run_sanitized(&trace, &mut Reactive::dozznoc(), &mut NullSink, &mut san)
            .expect("sanitized run completes");

        assert_eq!(san.violation_count(), 0, "violations on {topo:?}");
        assert!(san.sweeps() > 0, "sanitizer never swept on {topo:?}");
        assert_eq!(plain.stats, sanitized.stats);
        assert_eq!(plain.finished_at, sanitized.finished_at);
        assert_eq!(plain.energy, sanitized.energy);
        assert_eq!(plain.per_router, sanitized.per_router);
    }
}

/// Same property through the experiment API with a trained ML policy —
/// the heaviest machinery (epoch decisions, mode switches, gating) all
/// active, still zero violations and identical reports.
#[test]
fn sanitized_ml_campaign_cell_is_clean_and_identical() {
    let topo = Topology::mesh8x8();
    let trainer = Trainer::new(topo).with_duration_ns(2_000);
    let suite = ModelSuite::train(&trainer, FeatureSet::Reduced5);
    let trace = short_trace(topo, Benchmark::Lu);

    let plain = run_model(NocConfig::paper(topo), &trace, ModelKind::DozzNoc, &suite);

    let mut san = SimSanitizer::default();
    let sanitized = run_model_sanitized(
        NocConfig::paper(topo),
        &trace,
        ModelKind::DozzNoc,
        &suite,
        &mut NullSink,
        &mut san,
    );

    let report = san.report();
    assert_eq!(report.total_violations, 0, "{:?}", report.violations);
    assert_eq!(plain.stats, sanitized.stats);

    // Counters the sanitizer's conservation sweep cross-checks: the last
    // delivery can never postdate the drain tick, and a correct simulator
    // never releases a secure reference it did not take.
    assert!(sanitized.stats.last_delivery <= sanitized.finished_at);
    assert_eq!(sanitized.stats.secure_underflows, 0);
    assert!(sanitized.stats.packets_injected >= sanitized.stats.packets_delivered);
}

/// A disabled sanitizer must not sweep at all — the zero-cost-when-off
/// contract the determinism goldens rely on.
#[test]
fn disabled_sanitizer_never_sweeps() {
    let topo = Topology::mesh8x8();
    let trace = short_trace(topo, Benchmark::Radix);
    let mut san = SimSanitizer::disabled();
    let report = Network::new(NocConfig::paper(topo))
        .run_sanitized(
            &trace,
            &mut AlwaysMode::new(Mode::M7),
            &mut NullSink,
            &mut san,
        )
        .expect("run completes");
    assert_eq!(san.sweeps(), 0);
    assert_eq!(san.violation_count(), 0);
    assert!(report.stats.packets_delivered > 0);
}
