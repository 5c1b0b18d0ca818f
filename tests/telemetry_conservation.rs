//! Telemetry conservation: the per-epoch event stream must add back up
//! to the run's final totals, and observing a run must not change it.

use dozznoc::prelude::*;

const DUR_NS: u64 = 3_000;

fn suite(topo: Topology) -> ModelSuite {
    ModelSuite::train(
        &Trainer::new(topo).with_duration_ns(DUR_NS),
        FeatureSet::Reduced5,
    )
}

fn total_flits(trace: &Trace) -> u64 {
    trace.packets().iter().map(|p| p.flit_count() as u64).sum()
}

#[test]
fn per_epoch_flit_events_sum_to_run_totals() {
    let topo = Topology::mesh8x8();
    let suite = suite(topo);
    for bench in [Benchmark::Fft, Benchmark::Lu] {
        let trace = TraceGenerator::new(topo)
            .with_duration_ns(DUR_NS)
            .generate(bench);
        let expected_injected = total_flits(&trace);
        let mut sink = TimelineSink::new();
        let report = run_policy_with_telemetry(
            NocConfig::paper(topo),
            &trace,
            &ModelKind::Baseline.spec(),
            PolicyRegistry::global(),
            &suite,
            &mut sink,
        )
        .expect("baseline is registered");
        assert_eq!(
            sink.total_injected(),
            expected_injected,
            "{bench}: epoch-summed injections vs trace flits"
        );
        assert_eq!(
            sink.total_ejected(),
            report.stats.flits_delivered,
            "{bench}: epoch-summed ejections vs delivered flits"
        );
        // The baseline delivers everything, so both sides must agree.
        assert_eq!(sink.total_injected(), sink.total_ejected(), "{bench}");
        // The captured report is the one the caller got.
        let end = sink.report.as_ref().expect("run_end fired");
        assert_eq!(end.stats, report.stats);
    }
}

#[test]
fn per_epoch_energy_sums_to_ledger_totals() {
    let topo = Topology::mesh8x8();
    let suite = suite(topo);
    let trace = TraceGenerator::new(topo)
        .with_duration_ns(DUR_NS)
        .generate(Benchmark::Fft);
    let mut sink = TimelineSink::new();
    let report = run_policy_with_telemetry(
        NocConfig::paper(topo),
        &trace,
        &ModelKind::DozzNoc.spec(),
        PolicyRegistry::global(),
        &suite,
        &mut sink,
    )
    .expect("dozznoc is registered");
    let total = sink.total_energy_j();
    let reported = report.energy.static_j + report.energy.dynamic_with_ml_j();
    assert!(
        (total - reported).abs() <= 1e-9 * reported.max(1.0),
        "epoch-summed energy {total} vs reported {reported}"
    );
    // Transitions were observed for a gating policy.
    assert!(!sink.transitions.is_empty());
}

#[test]
fn observing_a_run_does_not_change_it() {
    let topo = Topology::mesh8x8();
    let suite = suite(topo);
    let trace = TraceGenerator::new(topo)
        .with_duration_ns(DUR_NS)
        .generate(Benchmark::Lu);
    let cfg = NocConfig::paper(topo);
    let plain = run_model(cfg, &trace, ModelKind::DozzNoc, &suite);
    let mut sink = TimelineSink::new();
    let observed = run_policy_with_telemetry(
        cfg,
        &trace,
        &ModelKind::DozzNoc.spec(),
        PolicyRegistry::global(),
        &suite,
        &mut sink,
    )
    .expect("dozznoc is registered");
    assert_eq!(plain.stats, observed.stats);
    assert_eq!(plain.finished_at, observed.finished_at);
    // Residency is settled in more pieces when observed, so energy may
    // differ by float-summation order only.
    let a = plain.energy.static_j + plain.energy.dynamic_with_ml_j();
    let b = observed.energy.static_j + observed.energy.dynamic_with_ml_j();
    assert!((a - b).abs() <= 1e-9 * a.max(1.0), "{a} vs {b}");
}
