//! Per-epoch telemetry: observe a run without perturbing it.
//!
//! A [`Telemetry`] sink receives three families of callbacks from
//! [`Network::run_with_telemetry`](crate::Network::run_with_telemetry):
//!
//! * **per epoch** — [`on_epoch`](Telemetry::on_epoch) fires at every
//!   router's epoch boundary with the epoch observation, the mode the
//!   policy selected, and the [`EnergyDelta`] billed since the previous
//!   boundary (the network settles residency billing first, so the
//!   delta carries the epoch's static energy, not just its traffic).
//!   ML policies additionally report the feature vector behind each
//!   decision through [`on_decision`](Telemetry::on_decision);
//! * **per transition** — [`on_transition`](Telemetry::on_transition)
//!   delivers gate-off / wake-up / mode-switch events with base-tick
//!   timestamps;
//! * **run end** — [`on_run_end`](Telemetry::on_run_end) hands over the
//!   final report.
//!
//! Sinks opt out of all of it by returning `false` from
//! [`is_enabled`](Telemetry::is_enabled): the network then skips the
//! ledger snapshots and residency settling entirely, so a disabled sink
//! ([`NullSink`]) costs nothing measurable (last measured by the
//! retired Criterion `telemetry` bench).

use dozznoc_power::EnergyDelta;
use dozznoc_types::{Mode, RouterId, TransitionEvent};

use serde::{Deserialize, Serialize};

use crate::observation::EpochObservation;
use crate::stats::RunReport;

/// The feature vector and raw prediction behind one ML policy decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTrace {
    /// Feature values, in the policy's feature-set order.
    pub features: Vec<f64>,
    /// The model's predicted future input-buffer utilization.
    pub predicted_ibu: f64,
}

/// Observer of one simulation run. All hooks default to no-ops so a
/// sink only implements what it cares about.
pub trait Telemetry {
    /// Fast-path gate: when `false` the network skips every hook *and*
    /// the bookkeeping behind them (ledger snapshots, event buffering).
    fn is_enabled(&self) -> bool {
        true
    }

    /// `router` crossed an epoch boundary: `obs` is the epoch just
    /// ended, `selected` the policy's mode for the next epoch, `energy`
    /// what the ledger billed this router since the previous boundary.
    fn on_epoch(
        &mut self,
        _router: RouterId,
        _obs: &EpochObservation,
        _selected: Mode,
        _energy: &EnergyDelta,
    ) {
    }

    /// An ML policy produced `decision` for `router` and chose
    /// `selected` (fires just before the matching [`on_epoch`]).
    ///
    /// [`on_epoch`]: Telemetry::on_epoch
    fn on_decision(&mut self, _router: RouterId, _decision: &DecisionTrace, _selected: Mode) {}

    /// A router changed power state.
    fn on_transition(&mut self, _event: &TransitionEvent) {}

    /// The run finished; `report` is what `run` is about to return.
    fn on_run_end(&mut self, _report: &RunReport) {}
}

/// The default sink: telemetry disabled, zero cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Telemetry for NullSink {
    fn is_enabled(&self) -> bool {
        false
    }
}

/// One router-epoch as recorded by [`TimelineSink`]: the observation's
/// per-cycle rates de-normalized back to raw event counts, plus the
/// epoch's energy bill.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochSample {
    /// Router observed.
    pub router: RouterId,
    /// Epoch index (per router, starting at 0).
    pub epoch: u64,
    /// Local cycles the epoch spanned (the final, partial epoch of a
    /// run is shorter than `epoch_cycles`).
    pub cycles: u64,
    /// Mode the policy selected at this boundary.
    pub mode: Mode,
    /// Mean input-buffer utilization over the epoch.
    pub ibu: f64,
    /// Fraction of the epoch spent power-gated.
    pub off_fraction: f64,
    /// Flits injected by attached cores during the epoch.
    pub flits_injected: u64,
    /// Flits delivered to attached cores during the epoch.
    pub flits_ejected: u64,
    /// Flit-hops routed through the switch during the epoch.
    pub hops: u64,
    /// Energy billed to this router over the epoch.
    pub energy: EnergyDelta,
}

/// Recover a raw per-epoch count from a per-cycle rate. Exact for the
/// counter magnitudes an epoch can hold (`rate` is `count / cycles`
/// computed in f64; the round-trip error is far below 0.5).
fn denormalize(rate: f64, cycles: u64) -> u64 {
    (rate * cycles as f64).round() as u64
}

/// In-memory sink: the full per-router mode/energy timeline, used by
/// `dozz-repro timeline` and by integration tests that check per-epoch
/// events against run totals.
#[derive(Debug, Clone, Default)]
pub struct TimelineSink {
    /// Every epoch of every router, in emission order (time-sorted per
    /// router; routers interleave).
    pub epochs: Vec<EpochSample>,
    /// Every power-state transition, in emission order.
    pub transitions: Vec<TransitionEvent>,
    /// The final report, filled in at run end.
    pub report: Option<RunReport>,
}

impl TimelineSink {
    /// An empty timeline.
    pub fn new() -> Self {
        TimelineSink::default()
    }

    /// Total flits injected across all recorded epochs.
    pub fn total_injected(&self) -> u64 {
        self.epochs.iter().map(|s| s.flits_injected).sum()
    }

    /// Total flits ejected across all recorded epochs.
    pub fn total_ejected(&self) -> u64 {
        self.epochs.iter().map(|s| s.flits_ejected).sum()
    }

    /// Total energy billed across all recorded epochs (static + dynamic
    /// + ML).
    pub fn total_energy_j(&self) -> f64 {
        self.epochs.iter().map(|s| s.energy.total_j()).sum()
    }
}

impl Telemetry for TimelineSink {
    fn on_epoch(
        &mut self,
        router: RouterId,
        obs: &EpochObservation,
        selected: Mode,
        energy: &EnergyDelta,
    ) {
        self.epochs.push(EpochSample {
            router,
            epoch: obs.epoch,
            cycles: obs.cycles,
            mode: selected,
            ibu: obs.ibu,
            off_fraction: obs.epoch_off_fraction,
            flits_injected: denormalize(obs.flits_injected, obs.cycles),
            flits_ejected: denormalize(obs.flits_ejected, obs.cycles),
            hops: denormalize(obs.hops_routed, obs.cycles),
            energy: *energy,
        });
    }

    fn on_transition(&mut self, event: &TransitionEvent) {
        self.transitions.push(*event);
    }

    fn on_run_end(&mut self, report: &RunReport) {
        self.report = Some(report.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.is_enabled());
        assert!(TimelineSink::new().is_enabled());
    }

    #[test]
    fn denormalize_round_trips_counts() {
        for cycles in [1u64, 7, 499, 500, 100_000] {
            for count in [0u64, 1, 3, cycles, 5 * cycles + 1] {
                let rate = count as f64 / cycles as f64;
                assert_eq!(denormalize(rate, cycles), count, "{count}/{cycles}");
            }
        }
    }

    #[test]
    fn timeline_accumulates_and_filters() {
        let mut sink = TimelineSink::new();
        let obs = |router: u16, inj: f64| EpochObservation {
            router: RouterId(router),
            cycles: 100,
            flits_injected: inj,
            ..Default::default()
        };
        sink.on_epoch(RouterId(0), &obs(0, 0.5), Mode::M7, &EnergyDelta::default());
        sink.on_epoch(
            RouterId(1),
            &obs(1, 0.25),
            Mode::M3,
            &EnergyDelta::default(),
        );
        sink.on_epoch(RouterId(0), &obs(0, 0.0), Mode::M5, &EnergyDelta::default());
        assert_eq!(sink.epochs.len(), 3);
        assert_eq!(sink.total_injected(), 50 + 25);
        let modes: Vec<Mode> = sink
            .epochs
            .iter()
            .filter(|s| s.router == RouterId(0))
            .map(|s| s.mode)
            .collect();
        assert_eq!(modes, vec![Mode::M7, Mode::M5]);
    }
}
