//! Property-based conservation laws of the simulator: whatever the
//! traffic and policy, no flit is created, lost or double-counted.

use proptest::prelude::*;

use dozznoc::prelude::*;
use dozznoc::traffic::trace::packet;

/// Strategy: a random small batch of well-formed packets on 64 cores.
fn arb_packets() -> impl Strategy<Value = Vec<Packet>> {
    proptest::collection::vec(
        (0u16..64, 0u16..64, any::<bool>(), 0u64..1_500).prop_filter_map(
            "self-addressed",
            |(src, dst, is_req, t_ns)| {
                (src != dst).then(|| {
                    packet(
                        src,
                        dst,
                        if is_req {
                            PacketKind::Request
                        } else {
                            PacketKind::Response
                        },
                        t_ns as f64,
                    )
                })
            },
        ),
        1..60,
    )
}

fn flit_total(trace: &Trace) -> u64 {
    trace.packets().iter().map(|p| p.flit_count() as u64).sum()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Baseline: all flits delivered, hop energy consistent with route
    /// lengths, latency bounded below by distance.
    #[test]
    fn baseline_conserves_flits(pkts in arb_packets()) {
        let trace = Trace::new("prop", 64, pkts);
        let topo = Topology::mesh8x8();
        let r = Network::new(NocConfig::paper(topo))
            .run(&trace, &mut AlwaysMode::new(Mode::M7))
            .expect("run completes");
        prop_assert_eq!(r.stats.packets_delivered, trace.len() as u64);
        prop_assert_eq!(r.stats.flits_delivered, flit_total(&trace));

        // Hop billing: every flit is billed once per router it crosses
        // (hops = Σ flits × (distance + 1) because ejection also bills).
        let xy = XyRouter::new(topo);
        let expected_hops: u64 = trace
            .packets()
            .iter()
            .map(|p| {
                let hops = xy.path(p.src, p.dst).count() as u64; // routers on path
                p.flit_count() as u64 * hops
            })
            .sum();
        prop_assert_eq!(r.energy.flit_hops, expected_hops);
    }

    /// Gating + DVFS policies conserve flits too, and gated runs never
    /// consume more static energy than the always-on baseline.
    #[test]
    fn gating_conserves_flits_and_saves_static(pkts in arb_packets()) {
        let trace = Trace::new("prop", 64, pkts);
        let topo = Topology::mesh8x8();
        let base = Network::new(NocConfig::paper(topo))
            .run(&trace, &mut AlwaysMode::new(Mode::M7))
            .expect("baseline completes");
        let gated = Network::new(NocConfig::paper(topo))
            .run(&trace, &mut AlwaysMode::new(Mode::M7).with_gating())
            .expect("gated run completes");
        prop_assert_eq!(gated.stats.flits_delivered, flit_total(&trace));
        // Static *power* is what gating saves; energy can only exceed the
        // baseline's by the wakeup-stall prolongation of the run.
        let base_power = base.energy.static_j / base.finished_at.as_secs();
        let gated_power = gated.energy.static_j / gated.finished_at.as_secs();
        prop_assert!(
            gated_power <= base_power * 1.0001,
            "gated static power {} exceeds baseline {}",
            gated_power,
            base_power
        );
    }

    /// A reactive DVFS policy delivers everything on the cmesh as well.
    #[test]
    fn reactive_policy_conserves_on_cmesh(pkts in arb_packets()) {
        let trace = Trace::new("prop", 64, pkts);
        let topo = Topology::cmesh4x4();
        let r = Network::new(NocConfig::paper(topo))
            .run(&trace, &mut Reactive::dozznoc())
            .expect("run completes");
        prop_assert_eq!(r.stats.flits_delivered, flit_total(&trace));
    }

    /// Packet latency is bounded below by the zero-load route time and
    /// network latency never exceeds end-to-end latency.
    #[test]
    fn latency_bounds(pkts in arb_packets()) {
        let trace = Trace::new("prop", 64, pkts);
        let r = Network::new(NocConfig::paper(Topology::mesh8x8()))
            .run(&trace, &mut AlwaysMode::new(Mode::M7))
            .expect("run completes");
        prop_assert!(r.stats.net_latency_sum_ticks <= r.stats.latency_sum_ticks);
        prop_assert!(r.stats.latency_max_ticks as u128 <= r.stats.latency_sum_ticks);
        // At least one local cycle per hop at M7 (8 ticks).
        prop_assert!(r.stats.avg_net_latency_ns() > 0.0);
    }
}

/// A chaotic policy that picks random modes every epoch and gates
/// aggressively — the simulator's mechanics must keep every guarantee
/// regardless of how hostile the policy is.
struct ChaoticPolicy {
    state: u64,
}

impl ChaoticPolicy {
    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }
}

impl PowerPolicy for ChaoticPolicy {
    fn select_mode(&mut self, _router: RouterId, _obs: &dozznoc::noc::EpochObservation) -> Mode {
        Mode::from_rank((self.next() % 5) as usize).expect("rank in range")
    }

    fn gating_enabled(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "chaotic"
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Even a random-mode, gating-happy policy can neither lose flits
    /// nor deadlock the network.
    #[test]
    fn chaotic_policy_conserves_flits(pkts in arb_packets(), seed in 1u64..u64::MAX) {
        let trace = Trace::new("chaos", 64, pkts);
        let mut policy = ChaoticPolicy { state: seed };
        let r = Network::new(NocConfig::paper(Topology::mesh8x8()))
            .run(&trace, &mut policy)
            .expect("chaotic run completes");
        prop_assert_eq!(r.stats.flits_delivered, flit_total(&trace));
        prop_assert_eq!(r.stats.packets_delivered, trace.len() as u64);
    }
}

/// Every `RunStats` counter, checked on one gating + DVFS run. The
/// destructuring names every field (no `..`), so a new counter does not
/// compile until it is asserted here.
#[test]
fn every_run_stats_counter_is_checked() {
    let trace = TraceGenerator::new(Topology::mesh8x8())
        .with_duration_ns(2_000)
        .generate(Benchmark::Fft);
    let report = Network::new(NocConfig::paper(Topology::mesh8x8()))
        .run(&trace, &mut Reactive::dozznoc())
        .expect("run completes");
    let dozznoc::noc::RunStats {
        packets_injected,
        packets_delivered,
        flits_delivered,
        latency_sum_ticks,
        latency_max_ticks,
        net_latency_sum_ticks,
        net_latency_max_ticks,
        net_latency_hist,
        last_delivery,
        mode_selections,
        epochs,
        secure_underflows,
    } = report.stats;

    assert!(!trace.is_empty());
    assert_eq!(packets_injected, trace.len() as u64);
    assert_eq!(packets_delivered, packets_injected);
    assert_eq!(flits_delivered, flit_total(&trace));
    // Network latency excludes NI source queueing, so it never exceeds
    // the end-to-end latency, and neither mean exceeds its max.
    assert!(net_latency_sum_ticks > 0);
    assert!(latency_sum_ticks >= net_latency_sum_ticks);
    assert!(net_latency_max_ticks > 0);
    assert!(latency_max_ticks >= net_latency_max_ticks);
    assert!(latency_sum_ticks <= u128::from(latency_max_ticks) * u128::from(packets_delivered));
    assert_eq!(net_latency_hist.total(), packets_delivered);
    // Every packet is injected at or after tick 0.
    assert!(last_delivery.ticks() >= latency_max_ticks);
    assert!(epochs > 0);
    assert_eq!(mode_selections.iter().sum::<u64>(), epochs);
    assert_eq!(secure_underflows, 0);
}
