//! An oracle mode selector: the upper bound proactive prediction aims
//! at.
//!
//! The ridge model predicts the next epoch's IBU; the *oracle* simply
//! knows it. It is built in two passes: a recording run (under the
//! reactive policy of the same gating family) captures every router's
//! actual per-epoch IBU trajectory, then the oracle run replays the mode
//! each epoch's *true* utilization would select — one epoch ahead of any
//! reactive scheme, with zero prediction error relative to the recorded
//! trajectory.
//!
//! Because mode choices feed back into utilization, a recorded
//! trajectory is an approximation of the oracle run's own future (the
//! fixed point is not computable in one pass); this is the standard
//! construction and it bounds what any one-epoch-ahead predictor of the
//! recorded dynamics can do. The `ablation-proactive` experiment uses it
//! to report how much of the reactive→oracle gap the paper's ridge
//! model closes.

use dozznoc_ml::mode_of_utilization;
use dozznoc_noc::{EpochObservation, Network, NocConfig, PowerPolicy};
use dozznoc_traffic::Trace;
use dozznoc_types::{Mode, RouterId};

use super::reactive::Reactive;

/// Records per-router IBU trajectories during a run.
struct IbuRecorder {
    inner: Reactive,
    ibu: Vec<Vec<f64>>,
}

impl PowerPolicy for IbuRecorder {
    fn select_mode(&mut self, router: RouterId, obs: &EpochObservation) -> Mode {
        let track = &mut self.ibu[router.idx()];
        debug_assert_eq!(track.len() as u64, obs.epoch, "epochs must arrive in order");
        track.push(obs.ibu);
        self.inner.select_mode(router, obs)
    }

    fn gating_enabled(&self) -> bool {
        self.inner.gating_enabled()
    }

    fn name(&self) -> &str {
        "ibu-recorder"
    }
}

/// Replay-perfect one-epoch-ahead mode selection.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// `ibu[router][epoch]` — recorded mean IBU of that epoch.
    ibu: Vec<Vec<f64>>,
    gating: bool,
}

impl Oracle {
    /// Build an oracle by recording `trace` under the reactive policy of
    /// the same gating family on a fresh network.
    pub fn record(cfg: NocConfig, trace: &Trace, gating: bool) -> Oracle {
        let inner = if gating {
            Reactive::dozznoc()
        } else {
            Reactive::lead()
        };
        let mut recorder = IbuRecorder {
            inner,
            ibu: vec![Vec::new(); cfg.topology.num_routers()],
        };
        Network::new(cfg)
            .run(trace, &mut recorder)
            .expect("oracle recording run completes");
        Oracle {
            ibu: recorder.ibu,
            gating,
        }
    }

    /// Epochs recorded for a router.
    pub fn recorded_epochs(&self, router: RouterId) -> usize {
        self.ibu[router.idx()].len()
    }
}

impl PowerPolicy for Oracle {
    fn select_mode(&mut self, router: RouterId, obs: &EpochObservation) -> Mode {
        // The decision at the end of epoch `e` governs epoch `e+1`; the
        // oracle looks that epoch's recorded IBU up directly. Beyond the
        // recorded horizon (the oracle run drains on a slightly
        // different schedule) fall back to the current IBU — by then the
        // network is draining and reactive ≈ oracle.
        let track = &self.ibu[router.idx()];
        let future = usize::try_from(obs.epoch)
            .ok()
            .and_then(|e| track.get(e + 1))
            .copied()
            .unwrap_or(obs.ibu);
        mode_of_utilization(future)
    }

    fn gating_enabled(&self) -> bool {
        self.gating
    }

    fn name(&self) -> &str {
        "oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dozznoc_topology::Topology;
    use dozznoc_traffic::{Benchmark, TraceGenerator};

    fn fixture() -> (NocConfig, Trace) {
        let topo = Topology::mesh8x8();
        let trace = TraceGenerator::new(topo)
            .with_duration_ns(3_000)
            .generate(Benchmark::Fft);
        (NocConfig::paper(topo), trace)
    }

    #[test]
    fn oracle_records_and_replays() {
        let (cfg, trace) = fixture();
        let mut oracle = Oracle::record(cfg, &trace, true);
        assert!(oracle.recorded_epochs(RouterId(0)) > 2);
        assert!(oracle.gating_enabled());
        // Replaying the same trace works and delivers everything.
        let r = Network::new(cfg)
            .run(&trace, &mut oracle)
            .expect("oracle run");
        assert_eq!(r.stats.packets_delivered, trace.len() as u64);
    }

    #[test]
    fn oracle_selection_matches_future_recorded_ibu() {
        let (cfg, trace) = fixture();
        let oracle = Oracle::record(cfg, &trace, false);
        let mut replay = oracle.clone();
        // For an observation at epoch e, the oracle must select by the
        // recorded IBU of epoch e+1.
        let router = RouterId(27);
        let track = oracle.ibu[router.idx()].clone();
        for e in 0..track.len().saturating_sub(1) {
            let obs = EpochObservation {
                router,
                epoch: e as u64,
                cycles: 500,
                ibu: 0.99, // deliberately misleading current value
                ibu_peak: 0.99,
                ..Default::default()
            };
            assert_eq!(
                replay.select_mode(router, &obs),
                mode_of_utilization(track[e + 1]),
                "epoch {e}"
            );
        }
    }

    #[test]
    fn beyond_horizon_falls_back_to_current() {
        let (cfg, trace) = fixture();
        let mut oracle = Oracle::record(cfg, &trace, true);
        let router = RouterId(5);
        let far = oracle.recorded_epochs(router) as u64 + 10;
        let obs = EpochObservation {
            router,
            epoch: far,
            cycles: 500,
            ibu: 0.3,
            ibu_peak: 0.3,
            ..Default::default()
        };
        assert_eq!(oracle.select_mode(router, &obs), mode_of_utilization(0.3));
    }

    #[test]
    fn oracle_beats_or_matches_reactive_on_latency() {
        // With perfect one-epoch lookahead the oracle should not be
        // slower than the reactive scheme it was recorded from (allowing
        // a small tolerance for feedback effects).
        let (cfg, trace) = fixture();
        let mut reactive = Reactive::lead();
        let r_reactive = Network::new(cfg).run(&trace, &mut reactive).unwrap();
        let mut oracle = Oracle::record(cfg, &trace, false);
        let r_oracle = Network::new(cfg).run(&trace, &mut oracle).unwrap();
        assert!(
            r_oracle.stats.avg_net_latency_ns() <= r_reactive.stats.avg_net_latency_ns() * 1.10,
            "oracle {} ns vs reactive {} ns",
            r_oracle.stats.avg_net_latency_ns(),
            r_reactive.stats.avg_net_latency_ns()
        );
    }
}
