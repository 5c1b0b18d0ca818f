//! Cross-crate invariants tying the published tables together: the
//! numbers the simulator consumes must be exactly the numbers the
//! substrate models publish.

#![allow(
    clippy::float_cmp,
    reason = "the published tables must agree exactly, not approximately"
)]

use dozznoc::power::regulator::delay::RegState;
use dozznoc::power::vf::{WORST_T_SWITCH_NS, WORST_T_WAKEUP_NS};
use dozznoc::prelude::*;
use dozznoc::types::ACTIVE_MODES;

#[test]
fn table_ii_worst_cases_bound_table_iii() {
    // Table III is derived from Table II's worst cases; the cycle costs
    // must never promise a faster transition than the regulator measured.
    let delays = SwitchDelayTable::paper();
    assert_eq!(delays.worst_wakeup_ns(), WORST_T_WAKEUP_NS);
    assert_eq!(delays.worst_switch_ns(), WORST_T_SWITCH_NS);
    let vf = VfTable::paper();
    for m in ACTIVE_MODES {
        let t_switch_ns = vf.timings(m).t_switch().as_ns();
        assert!(
            t_switch_ns >= WORST_T_SWITCH_NS - 1e-9,
            "{m}: T-Switch {t_switch_ns} ns beats the measured worst case"
        );
    }
}

#[test]
fn every_mode_transition_has_a_measured_latency() {
    let delays = SwitchDelayTable::paper();
    for from in RegState::all() {
        for to in RegState::all() {
            let ns = delays.latency_ns(from, to);
            if from == to {
                assert_eq!(ns, 0.0);
            } else {
                assert!(ns > 0.0, "{from}→{to} has no latency");
                assert!(ns <= 8.8, "{from}→{to} exceeds the measured envelope");
            }
        }
    }
}

#[test]
fn regulator_efficiency_feeds_the_ledger_consistently() {
    // The ledger's wall-energy accounting uses the same SIMO model the
    // Fig. 6 experiment reports: at every mode the wall/NoC ratio must be
    // the inverse of the published efficiency.
    let simo = SimoRegulator::default();
    for m in ACTIVE_MODES {
        let mut ledger = EnergyLedger::new(1);
        ledger.bill_residency(
            RouterId(0),
            PowerState::Active(m),
            dozznoc::types::TickDelta::from_ticks(18_000_000_000),
        );
        let r = ledger.report();
        let ratio = r.wall_static_j / r.static_j;
        let expected = 1.0 / simo.efficiency_at(m);
        assert!(
            (ratio - expected).abs() < 1e-9,
            "{m}: ledger ratio {ratio} vs efficiency model {expected}"
        );
    }
}

#[test]
fn thresholds_and_policies_agree() {
    // The reactive policy, the proactive policy (via an identity model)
    // and the metrics module must share one threshold ladder.
    let obs = |ibu: f64| dozznoc::noc::EpochObservation {
        cycles: 500,
        ibu,
        ibu_peak: ibu,
        ..Default::default()
    };
    let identity = TrainedModel::new(
        FeatureSet::Reduced5,
        vec![0.0, 0.0, 0.0, 0.0, 1.0],
        500,
        0.0,
        0.0,
    );
    let mut reactive = Reactive::lead();
    let mut proactive = Proactive::lead(identity);
    for ibu in [0.0, 0.049, 0.051, 0.099, 0.15, 0.21, 0.24, 0.26, 0.8] {
        let want = mode_of_utilization(ibu);
        assert_eq!(
            reactive.select_mode(RouterId(0), &obs(ibu)),
            want,
            "reactive at {ibu}"
        );
        assert_eq!(
            proactive.select_mode(RouterId(0), &obs(ibu)),
            want,
            "proactive at {ibu}"
        );
    }
}

#[test]
fn ml_overhead_matches_billing() {
    // A policy with N features must bill the §III-D energy per label.
    let topo = Topology::mesh8x8();
    let trace = TraceGenerator::new(topo)
        .with_duration_ns(3_000)
        .generate(Benchmark::Fft);
    let identity = TrainedModel::new(
        FeatureSet::Reduced5,
        vec![0.0, 0.0, 0.0, 0.0, 1.0],
        500,
        0.0,
        0.0,
    );
    let mut policy = Proactive::lead(identity);
    let r = Network::new(NocConfig::paper(topo))
        .run(&trace, &mut policy)
        .unwrap();
    let per_label = MlOverhead::for_features(5).energy_j();
    assert!(r.energy.labels > 0);
    assert!(
        (r.energy.ml_j - r.energy.labels as f64 * per_label).abs() < 1e-15,
        "ml energy {} labels {}",
        r.energy.ml_j,
        r.energy.labels
    );
    // And one label per epoch decision.
    assert_eq!(r.energy.labels, r.stats.epochs);
}

#[test]
fn dsent_costs_drive_hop_billing() {
    let costs = DsentCosts::paper();
    let topo = Topology::mesh8x8();
    let trace = Trace::new(
        "two-hop",
        64,
        vec![dozznoc::traffic::trace::packet(
            0,
            1,
            PacketKind::Request,
            400.0,
        )],
    );
    for m in ACTIVE_MODES {
        let r = Network::new(NocConfig::paper(topo))
            .run(&trace, &mut AlwaysMode::new(m))
            .unwrap();
        // 1 flit × (1 link hop + 1 ejection) = 2 hop charges at mode m.
        assert_eq!(r.energy.flit_hops, 2);
        let expect = 2.0 * costs.dynamic_j_per_hop(m);
        assert!(
            (r.energy.dynamic_j - expect).abs() < 1e-18,
            "{m}: dynamic {} vs expected {}",
            r.energy.dynamic_j,
            expect
        );
    }
}

#[test]
fn epoch_size_is_part_of_model_identity() {
    let topo = Topology::mesh8x8();
    let t100 = Trainer::new(topo)
        .with_duration_ns(2_000)
        .try_with_epoch_cycles(100)
        .expect("epoch 100 is valid");
    let suite = ModelSuite::train(&t100, FeatureSet::Reduced5);
    assert_eq!(suite.dozznoc.epoch_cycles, 100);
    assert_eq!(suite.lead.epoch_cycles, 100);
}
