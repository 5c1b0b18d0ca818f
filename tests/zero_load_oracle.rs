//! Zero-load latency oracle: a single packet on an otherwise idle,
//! ungated network has a closed-form latency, and the simulator must
//! match it to the tick.
//!
//! The form is assembled component by component, in the style of
//! router/path latency models (Qian's NoC performance-modeling thesis,
//! PAPERS.md), from the simulator's timing rules rather than from its
//! code:
//!
//! * **Grid alignment.** Routers tick on a shared divisor grid. Every
//!   router starts at M7 on `{0, 8, 16, …}`; a fixed mode other than M7
//!   is adopted at the first epoch boundary (the router's
//!   `epoch_cycles`-th M7 cycle, tick `b = (epoch_cycles − 1) · 8`),
//!   which moves the grid to `{b + k · d}` for the mode divisor `d` and
//!   stalls flit movement for T-Switch. The packet's head enters its
//!   source router at `g0`, the first grid tick at or after both its
//!   injection tick and the end of that stall.
//! * **Pipeline.** The head spends `pipeline_cycles` cycles in the
//!   source router (NI injection books one tick plus the remaining
//!   `pipeline_cycles − 1` cycles; the next grid tick is the send).
//! * **Hops.** Each further router adds a link of `lookahead_ticks`
//!   ticks plus `pipeline_cycles − 1` cycles, rounded up to the grid:
//!   `(pipeline_cycles − 1 + ⌈lookahead / d⌉) · d` per hop.
//! * **Serialization.** The remaining `flits − 1` flits trail the head
//!   one cycle apart (one flit per output per local cycle).
//!
//! End-to-end latency is tail ejection minus the injection tick; network
//! latency is tail ejection minus `g0`. The property covers both
//! topologies, both packet kinds, every active mode, link latencies up
//! to several cycles, and injection after 0–20 idle epochs. A multi-flit
//! packet is checked only while a hop holds fewer flits than a VC buffer
//! has slots (no back-pressure), which is where the form is exact.

use proptest::prelude::*;

use dozznoc::prelude::*;

/// Router cycles the head spends per hop after the source router.
fn hop_cycles(cfg: &NocConfig, d: u64) -> u64 {
    cfg.pipeline_cycles - 1 + cfg.lookahead_ticks.div_ceil(d)
}

/// The closed-form `(end-to-end, network)` latency in ticks of one
/// packet of `flits` flits crossing `routers` routers, injected at tick
/// `inject` on an idle network running fixed `mode` with gating off.
fn zero_load_latency(
    cfg: &NocConfig,
    mode: Mode,
    routers: u64,
    flits: u64,
    inject: u64,
) -> (u64, u64) {
    let m7 = Mode::M7.divisor().cycle_ticks();
    let d = mode.divisor().cycle_ticks();
    // Grid origin and the end of the first boundary's T-Switch stall.
    let (origin, stall_until) = if mode == Mode::M7 {
        (0, 0)
    } else {
        let b = (cfg.epoch_cycles - 1) * m7;
        (b, b + VfTable::paper().timings(mode).t_switch().ticks())
    };
    let earliest = inject.max(stall_until);
    let g0 = origin + (earliest - origin).div_ceil(d) * d;
    let head_eject = g0 + cfg.pipeline_cycles * d + (routers - 1) * hop_cycles(cfg, d) * d;
    let tail_eject = head_eject + (flits - 1) * d;
    (tail_eject - inject, tail_eject - g0)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn single_packet_latency_matches_closed_form(
        cmesh in any::<bool>(),
        src_raw in 0u16..64,
        dst_raw in 0u16..64,
        is_request in any::<bool>(),
        mode_rank in 0usize..5,
        lookahead in 1u64..=40,
        idle_epochs in 0u64..=20,
        phase in 0u64..1_000,
    ) {
        prop_assume!(src_raw != dst_raw);
        let topo = if cmesh { Topology::cmesh4x4() } else { Topology::mesh8x8() };
        let mode = Mode::from_rank(mode_rank).expect("five active modes");
        let cfg = NocConfig::paper(topo)
            .try_with_lookahead_ticks(lookahead)
            .expect("positive lookahead");
        let d = mode.divisor().cycle_ticks();
        let kind = if is_request { PacketKind::Request } else { PacketKind::Response };
        let flits = kind.flit_count() as u64;
        // Multi-flit packets are exact only without back-pressure.
        prop_assume!(flits == 1 || hop_cycles(&cfg, d) < cfg.vc_depth as u64);

        // Inject after `idle_epochs` idle epochs at the fixed mode, at an
        // arbitrary phase relative to the grid (past the first boundary
        // for non-M7 modes, so the mode switch has happened).
        let epoch_ticks = cfg.epoch_cycles * d;
        let settled = if mode == Mode::M7 { 0 } else { (cfg.epoch_cycles - 1) * 8 + 1 };
        let inject = settled + idle_epochs * epoch_ticks + phase % epoch_ticks;

        let pkt = Packet {
            id: dozznoc::types::PacketId(0),
            src: CoreId(src_raw),
            dst: CoreId(dst_raw),
            kind,
            inject_time: SimTime::from_ticks(inject),
        };
        let routers = XyRouter::new(topo).path(pkt.src, pkt.dst).count() as u64;
        let trace = Trace::new("zero-load", 64, vec![pkt]);
        let report = Network::new(cfg)
            .run(&trace, &mut AlwaysMode::new(mode))
            .expect("a single packet drains");

        let (e2e, net) = zero_load_latency(&cfg, mode, routers, flits, inject);
        prop_assert_eq!(report.stats.packets_delivered, 1);
        prop_assert_eq!(report.stats.latency_max_ticks, e2e);
        prop_assert_eq!(report.stats.net_latency_max_ticks, net);
        prop_assert_eq!(report.finished_at.ticks(), inject + e2e);
    }
}
