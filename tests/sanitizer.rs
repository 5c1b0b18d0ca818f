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
            .run_sanitized(&trace, &mut Reactive::dozznoc(), &mut san)
            .expect("sanitized run completes");

        assert_eq!(san.violation_count(), 0, "violations on {topo:?}");
        assert!(san.sweeps() > 0, "sanitizer never swept on {topo:?}");
        assert_eq!(plain.stats, sanitized.stats);
        assert_eq!(plain.finished_at, sanitized.finished_at);
        assert_eq!(plain.energy, sanitized.energy);
        assert_eq!(plain.per_router, sanitized.per_router);
    }
}

/// Same property through the campaign engine with a trained ML policy —
/// the path `dozz-repro check` and `dozz-bench` take. The heaviest
/// machinery (epoch decisions, mode switches, gating) is all active,
/// still zero violations and an identical report.
#[test]
fn sanitized_ml_campaign_cell_is_clean_and_identical() {
    let topo = Topology::mesh8x8();
    let trainer = Trainer::new(topo).with_duration_ns(2_000);
    let suite = ModelSuite::train(&trainer, FeatureSet::Reduced5);
    let traces = [short_trace(topo, Benchmark::Lu)];
    let campaign = Campaign::new(topo);
    let run = |sanitize: bool| {
        let opts = EngineOptions {
            sanitize,
            ..Default::default()
        };
        campaign
            .run_trace_cells(
                &traces,
                &[ModelKind::DozzNoc.spec()],
                &suite,
                PolicyRegistry::global(),
                &opts,
            )
            .expect("dozznoc is registered")
            .remove(0)
    };

    let plain = run(false);
    let sanitized = run(true);
    assert!(plain.sanitizer.is_none());
    let report = sanitized
        .sanitizer
        .expect("sanitized cell carries a report");
    assert_eq!(report.total_violations, 0, "{:?}", report.violations);
    assert!(report.sweeps > 0, "sanitizer never swept");
    let json = |r: &RunReport| serde_json::to_string(r).expect("report serializes");
    assert_eq!(json(&plain.result.report), json(&sanitized.result.report));

    // Counters the sanitizer's conservation sweep cross-checks: the last
    // delivery can never postdate the drain tick, and a correct simulator
    // never releases a secure reference it did not take.
    let stats = &sanitized.result.report.stats;
    assert!(stats.last_delivery <= sanitized.result.report.finished_at);
    assert_eq!(stats.secure_underflows, 0);
    assert!(stats.packets_injected >= stats.packets_delivered);
}
