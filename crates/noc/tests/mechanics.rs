//! Integration tests of the simulator's power-state mechanics: the
//! fine-grained behaviours the paper's Fig. 3(a) state machine promises.

#![allow(
    clippy::float_cmp,
    reason = "an un-billed energy counter stays exactly 0.0"
)]

use dozznoc_noc::{AlwaysMode, EpochObservation, Network, NocConfig, PowerPolicy};
use dozznoc_topology::{DimOrder, Topology};
use dozznoc_traffic::trace::packet;
use dozznoc_traffic::{Benchmark, Trace, TraceGenerator};
use dozznoc_types::{Mode, PacketKind, RouterId};

fn cfg() -> NocConfig {
    NocConfig::paper(Topology::mesh8x8())
}

/// A policy that alternates between two modes every epoch, to exercise
/// T-Switch stalls deterministically.
struct Alternator {
    modes: [Mode; 2],
    epoch: u64,
}

impl PowerPolicy for Alternator {
    fn select_mode(&mut self, _router: RouterId, obs: &EpochObservation) -> Mode {
        self.epoch = obs.epoch;
        self.modes[(obs.epoch % 2) as usize]
    }

    fn name(&self) -> &str {
        "alternator"
    }
}

#[test]
fn mode_switches_pay_but_do_not_lose_packets() {
    // Spread injections over many epochs so switches happen mid-traffic.
    let pkts = (0..50)
        .map(|k| {
            packet(
                k % 64,
                (k + 31) % 64,
                PacketKind::Request,
                10.0 + k as f64 * 120.0,
            )
        })
        .collect();
    let trace = Trace::new("alt", 64, pkts);
    let mut policy = Alternator {
        modes: [Mode::M3, Mode::M7],
        epoch: 0,
    };
    let r = Network::new(cfg())
        .run(&trace, &mut policy)
        .expect("run completes");
    assert_eq!(r.stats.packets_delivered, 50);
    // Both modes were selected.
    assert!(r.stats.mode_selections[Mode::M3.rank()] > 0);
    assert!(r.stats.mode_selections[Mode::M7.rank()] > 0);
    // Rail transitions were billed (M3→M7 up-steps cost charge).
    assert!(r.energy.transition_j > 0.0);
}

#[test]
fn transition_energy_absent_without_mode_changes_or_gating() {
    let trace = Trace::new("still", 64, vec![packet(0, 9, PacketKind::Request, 1.0)]);
    let r = Network::new(cfg())
        .run(&trace, &mut AlwaysMode::new(Mode::M7))
        .expect("run completes");
    assert_eq!(r.energy.transition_j, 0.0);
    assert_eq!(r.energy.wakeups, 0);
}

#[test]
fn gating_bills_wakeup_transitions() {
    let trace = Trace::new(
        "gaps",
        64,
        vec![
            packet(0, 9, PacketKind::Request, 1.0),
            packet(0, 9, PacketKind::Request, 900.0),
        ],
    );
    let r = Network::new(cfg())
        .run(&trace, &mut AlwaysMode::new(Mode::M7).with_gating())
        .expect("run completes");
    assert!(r.energy.wakeups > 0);
    assert!(r.energy.transition_j > 0.0);
    // Each wake into M7 costs C·V² = 0.3 nF × 1.44 V² = 0.432 nJ.
    let per_wake = r.energy.transition_j / r.energy.wakeups as f64;
    assert!(
        (0.2e-9..0.5e-9).contains(&per_wake),
        "per-wake transition energy {per_wake:.3e} J out of the C·V² regime"
    );
}

#[test]
fn yx_routing_delivers_and_differs_from_xy() {
    let topo = Topology::mesh8x8();
    let trace = TraceGenerator::new(topo)
        .with_duration_ns(2_000)
        .generate(Benchmark::Ferret);
    let xy = Network::new(NocConfig::paper(topo))
        .run(&trace, &mut AlwaysMode::new(Mode::M7))
        .expect("run completes");
    let yx = Network::new(NocConfig::paper(topo).with_routing(DimOrder::Yx))
        .run(&trace, &mut AlwaysMode::new(Mode::M7))
        .expect("run completes");
    // Both conserve traffic.
    assert_eq!(xy.stats.flits_delivered, yx.stats.flits_delivered);
    assert_eq!(xy.stats.packets_delivered, yx.stats.packets_delivered);
    // Same minimal distances → identical total hop counts…
    assert_eq!(xy.energy.flit_hops, yx.energy.flit_hops);
    // …but different link usage: at least one router routes a different
    // number of flits.
    let differs = xy
        .per_router
        .iter()
        .zip(&yx.per_router)
        .any(|(a, b)| a.hops != b.hops);
    assert!(differs, "XY and YX produced identical per-router loads");
}

#[test]
fn per_router_summaries_are_consistent_with_totals() {
    let topo = Topology::mesh8x8();
    let trace = TraceGenerator::new(topo)
        .with_duration_ns(2_000)
        .generate(Benchmark::Lu);
    let r = Network::new(NocConfig::paper(topo))
        .run(&trace, &mut AlwaysMode::new(Mode::M7).with_gating())
        .expect("run completes");
    assert_eq!(r.per_router.len(), 64);
    let hop_sum: u64 = r.per_router.iter().map(|p| p.hops).sum();
    assert_eq!(hop_sum, r.energy.flit_hops);
    let static_sum: f64 = r.per_router.iter().map(|p| p.static_j).sum();
    assert!((static_sum - r.energy.static_j).abs() < 1e-12);
    let wake_sum: u64 = r.per_router.iter().map(|p| p.wakeups).sum();
    assert_eq!(wake_sum, r.energy.wakeups);
    for p in &r.per_router {
        assert!((0.0..=1.0).contains(&p.off_fraction));
    }
}

#[test]
fn tighter_t_idle_gates_more_often() {
    let topo = Topology::mesh8x8();
    let trace = TraceGenerator::new(topo)
        .with_duration_ns(3_000)
        .generate(Benchmark::Swaptions);
    let eager = Network::new(NocConfig::paper(topo).with_t_idle(2))
        .run(&trace, &mut AlwaysMode::new(Mode::M7).with_gating())
        .expect("run completes");
    let lazy = Network::new(NocConfig::paper(topo).with_t_idle(256))
        .run(&trace, &mut AlwaysMode::new(Mode::M7).with_gating())
        .expect("run completes");
    assert!(
        eager.energy.gate_offs > lazy.energy.gate_offs,
        "eager {} vs lazy {}",
        eager.energy.gate_offs,
        lazy.energy.gate_offs
    );
    assert_eq!(eager.stats.packets_delivered, lazy.stats.packets_delivered);
}

#[test]
fn disabling_wake_punch_still_delivers() {
    let topo = Topology::mesh8x8();
    let trace = TraceGenerator::new(topo)
        .with_duration_ns(2_000)
        .generate(Benchmark::Radix);
    let punched = Network::new(NocConfig::paper(topo))
        .run(&trace, &mut AlwaysMode::new(Mode::M7).with_gating())
        .expect("run completes");
    let unpunched = Network::new(NocConfig::paper(topo).without_wake_punch())
        .run(&trace, &mut AlwaysMode::new(Mode::M7).with_gating())
        .expect("run completes");
    assert_eq!(
        punched.stats.packets_delivered,
        unpunched.stats.packets_delivered
    );
    // Without punching, wake-ups happen closer to the packet (look-ahead
    // only), so the *punched* run wakes at least as many routers.
    assert!(punched.energy.wakeups >= unpunched.energy.wakeups);
}

#[test]
fn wake_punch_cannot_change_a_run_that_never_gates() {
    // Without gating no router is ever off, so a wake punch has nothing
    // to wake and the engine emits none: the ablation switch must leave
    // a loaded run's report bit for bit as it was.
    let topo = Topology::mesh8x8();
    let trace = TraceGenerator::new(topo)
        .with_duration_ns(2_000)
        .generate(Benchmark::Radix);
    let run = |cfg: NocConfig| {
        let r = Network::new(cfg)
            .run(&trace, &mut AlwaysMode::new(Mode::M5))
            .expect("run completes");
        format!("{r:?}")
    };
    let punched = run(NocConfig::paper(topo));
    assert!(punched.contains("flits_delivered"));
    assert_eq!(punched, run(NocConfig::paper(topo).without_wake_punch()));
}

#[test]
fn deeper_pipelines_are_slower_but_lossless() {
    let topo = Topology::mesh8x8();
    let trace = Trace::new("pipe", 64, vec![packet(0, 63, PacketKind::Response, 1.0)]);
    let mut shallow_cfg = NocConfig::paper(topo);
    shallow_cfg.pipeline_cycles = 1;
    let shallow = Network::new(shallow_cfg)
        .run(&trace, &mut AlwaysMode::new(Mode::M7))
        .expect("run completes");
    let mut deep_cfg = NocConfig::paper(topo);
    deep_cfg.pipeline_cycles = 5;
    let deep = Network::new(deep_cfg)
        .run(&trace, &mut AlwaysMode::new(Mode::M7))
        .expect("run completes");
    assert_eq!(deep.stats.packets_delivered, 1);
    assert!(
        deep.stats.avg_net_latency_ns() > shallow.stats.avg_net_latency_ns() * 1.5,
        "deep {} ns vs shallow {} ns",
        deep.stats.avg_net_latency_ns(),
        shallow.stats.avg_net_latency_ns()
    );
}

#[test]
fn histogram_totals_match_delivered_packets() {
    let topo = Topology::mesh8x8();
    let trace = TraceGenerator::new(topo)
        .with_duration_ns(2_000)
        .generate(Benchmark::X264);
    let r = Network::new(NocConfig::paper(topo))
        .run(&trace, &mut AlwaysMode::new(Mode::M7))
        .expect("run completes");
    assert_eq!(r.stats.net_latency_hist.total(), r.stats.packets_delivered);
    // P100 bound dominates the recorded max.
    assert!(r.stats.net_latency_hist.percentile_ticks(1.0) >= r.stats.net_latency_max_ticks);
}
