//! Golden files for the idle-network paths that `run_reports.json`
//! does not pin: the concentrated mesh, the no-wake-punch ablation,
//! the per-epoch telemetry stream across multi-epoch idle gaps, and the
//! livelock payload when the tick budget runs out inside an idle gap.
//!
//! These are the runs in which most routers sit gated, waking or idle
//! for many epochs, so they are what an engine that skips idle router
//! cycles must reproduce byte for byte. Like `tests/determinism.rs`,
//! the comparison is on serialized JSON (one record per line), which is
//! bit equality of every float.
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! DOZZNOC_BLESS=1 cargo test --test idle_goldens
//! ```

use dozznoc::noc::network::SimError;
use dozznoc::prelude::*;
use dozznoc::traffic::trace::packet;

use serde_json::{json, Value};

mod common;

/// Short horizon, as in `tests/determinism.rs`.
const DUR_NS: u64 = 2_000;

/// Benchmarks for the campaign-shaped cells (kept to two so the file
/// stays cheap enough for tier-1).
const BENCHES: [Benchmark; 2] = [Benchmark::Fft, Benchmark::X264];

fn suite(topo: Topology) -> ModelSuite {
    ModelSuite::train(
        &Trainer::new(topo).with_duration_ns(DUR_NS),
        FeatureSet::Reduced5,
    )
}

/// A sparse trace on the 8×8 mesh: three short bursts separated by idle
/// gaps of several epochs at every V/F mode (an M3 epoch is 500 ns), so
/// routers gate off, sleep through whole epochs and wake again.
fn sparse_trace() -> Trace {
    let mut pkts = Vec::new();
    for (burst, start_ns) in (0u16..).zip([1.0, 2_600.0, 5_300.0]) {
        for k in 0..6u16 {
            let src = (k * 11 + burst * 7) % 64;
            let dst = (src + 9 + k * 5) % 64;
            let kind = if k % 2 == 0 {
                PacketKind::Request
            } else {
                PacketKind::Response
            };
            pkts.push(packet(src, dst, kind, start_ns + f64::from(k) * 3.0));
        }
    }
    Trace::new("sparse", 64, pkts)
}

/// A [`TimelineSink`] that also keeps every full epoch observation (the
/// sink's own samples carry only a subset of the fields).
#[derive(Default)]
struct ObservingSink {
    timeline: TimelineSink,
    observations: Vec<EpochObservation>,
}

impl Telemetry for ObservingSink {
    fn on_epoch(
        &mut self,
        router: RouterId,
        obs: &EpochObservation,
        selected: Mode,
        energy: &EnergyDelta,
    ) {
        self.observations.push(*obs);
        self.timeline.on_epoch(router, obs, selected, energy);
    }

    fn on_decision(&mut self, router: RouterId, decision: &DecisionTrace, selected: Mode) {
        self.timeline.on_decision(router, decision, selected);
    }

    fn on_transition(&mut self, event: &TransitionEvent) {
        self.timeline.on_transition(event);
    }

    fn on_run_end(&mut self, report: &RunReport) {
        self.timeline.on_run_end(report);
    }
}

/// The observation fields an idle router's closed-form cycle
/// accounting feeds, which [`EpochSample`] does not already carry.
fn idle_fields(obs: &EpochObservation) -> [f64; 6] {
    [
        obs.idle_fraction,
        obs.secured_fraction,
        obs.total_off_fraction,
        obs.ibu_peak,
        obs.wakeup_rate,
        obs.gate_off_rate,
    ]
}

/// Build every golden record from the current simulator, one compact
/// JSON document per line so a divergence points at one record.
fn actual_lines() -> Vec<String> {
    let mut lines = Vec::new();
    let mut push = |v: Value| lines.push(serde_json::to_string(&v).expect("record serializes"));
    let mesh = Topology::mesh8x8();
    let cmesh = Topology::cmesh4x4();
    let mesh_suite = suite(mesh);

    // 1. cmesh4x4: every paper model on two benchmarks.
    let cmesh_cells = Campaign::new(cmesh)
        .with_duration_ns(DUR_NS)
        .run(&BENCHES, &suite(cmesh));
    assert_eq!(cmesh_cells.len(), BENCHES.len() * 5);
    for cell in &cmesh_cells {
        push(json!({ "cmesh4x4": cell }));
    }

    // 2. The no-wake-punch ablation for the two gating models.
    let campaign = Campaign::new(mesh).with_duration_ns(DUR_NS);
    let cfg = NocConfig::paper(mesh).without_wake_punch();
    for bench in BENCHES {
        let trace = campaign.trace(bench);
        for kind in [ModelKind::PowerGated, ModelKind::DozzNoc] {
            push(json!({
                "no_wake_punch": bench.to_string(),
                "model": kind.label(),
                "report": run_model(cfg, &trace, kind, &mesh_suite),
            }));
        }
    }

    // 3. Per-epoch telemetry on a sparse trace with idle gaps.
    let trace = sparse_trace();
    for kind in [ModelKind::PowerGated, ModelKind::DozzNoc] {
        let mut sink = ObservingSink::default();
        let report = run_policy_with_telemetry(
            NocConfig::paper(mesh),
            &trace,
            &kind.spec(),
            PolicyRegistry::global(),
            &mesh_suite,
            &mut sink,
        )
        .expect("paper models are registered");
        assert_eq!(sink.timeline.epochs.len(), sink.observations.len());
        for (sample, obs) in sink.timeline.epochs.iter().zip(&sink.observations) {
            push(json!({ "epoch": kind.label(), "sample": sample, "obs": idle_fields(obs) }));
        }
        for event in &sink.timeline.transitions {
            push(json!({ "transition": kind.label(), "event": event }));
        }
        push(json!({ "sparse_report": kind.label(), "report": report }));
    }

    // 4. Livelock payloads: the tick budget expires inside the idle gap
    //    before the second burst (nothing in flight, packets pending),
    //    and just after that burst is admitted (flits in flight).
    for max_ns in [1_500u64, 2_601, 2_610] {
        for kind in [
            ModelKind::Baseline,
            ModelKind::PowerGated,
            ModelKind::DozzNoc,
        ] {
            let mut cfg = NocConfig::paper(mesh);
            cfg.max_ticks = max_ns * 18;
            let mut policy = PolicyRegistry::global()
                .build(&kind.spec(), &PolicyContext { suite: &mesh_suite })
                .expect("paper models build");
            let err = Network::new(cfg)
                .run(&trace, policy.as_mut())
                .expect_err("the budget ends before the trace drains");
            let SimError::Livelock { in_flight } = err else {
                panic!("expected a livelock, got {err:?}");
            };
            push(json!({
                "livelock_max_ticks": cfg.max_ticks,
                "model": kind.label(),
                "in_flight": in_flight,
            }));
        }
    }
    lines
}

#[test]
fn idle_network_paths_match_golden() {
    let mut actual = actual_lines().join("\n");
    actual.push('\n');
    common::assert_golden("idle_reports.jsonl", &actual);
}
