//! The policy interface: what a power-management scheme contributes.
//!
//! The simulator owns the *mechanics* (gating conditions, wake-ups,
//! switching delays, billing); a [`PowerPolicy`] owns the *decisions*:
//! which active mode to run each epoch, and whether gating is permitted
//! at all. The five paper models (baseline, PG, LEAD-τ, DozzNoC,
//! ML+TURBO) are implemented in `dozznoc-core`; this module only defines
//! the contract plus a trivial fixed-mode policy used by tests.

use dozznoc_types::{Mode, RouterId};

use crate::observation::EpochObservation;
use crate::telemetry::DecisionTrace;

/// A power-management policy driving one simulation run.
///
/// `select_mode` is invoked once per router per epoch boundary with that
/// router's epoch observation; the returned mode takes effect for the
/// next epoch (paying T-Switch if it differs from the current one, per
/// Table III). The observation hook fires for *every* epoch, including
/// epochs the router spent gated — idle epochs are exactly the ones a
/// training collector must see.
pub trait PowerPolicy {
    /// Choose the active mode for `router`'s next epoch.
    fn select_mode(&mut self, router: RouterId, obs: &EpochObservation) -> Mode;

    /// Whether routers may be power-gated (Fig. 3(a) mechanics). The
    /// baseline and DVFS-only models return `false`.
    ///
    /// A per-run constant: the network reads it once when a run starts,
    /// and a sleeping idle router's wake-up bound (its T-Idle gate-off
    /// cycle) depends on it. An implementation must return the same
    /// value for the policy's whole lifetime.
    fn gating_enabled(&self) -> bool {
        false
    }

    /// Number of ML features evaluated per label, for §III-D overhead
    /// billing. `None` disables billing (non-ML policies).
    fn ml_features(&self) -> Option<usize> {
        None
    }

    /// The feature vector and prediction behind the most recent
    /// `select_mode` call, for telemetry. Non-ML policies (and policies
    /// that do not care to trace) return `None`; the network forwards a
    /// `Some` to [`Telemetry::on_decision`](crate::Telemetry::on_decision)
    /// right after each epoch decision.
    fn decision_trace(&self) -> Option<&DecisionTrace> {
        None
    }

    /// Display name for reports.
    fn name(&self) -> &str;
}

/// Fixed-mode policy: always selects `mode`, optionally gating. With
/// `Mode::M7` and gating disabled this is the paper's **baseline**; with
/// gating enabled it is the skeleton of the Power Punch-style PG model.
#[derive(Debug, Clone)]
pub struct AlwaysMode {
    mode: Mode,
    gating: bool,
    name: String,
}

impl AlwaysMode {
    /// A policy that always runs routers at `mode`.
    pub fn new(mode: Mode) -> Self {
        AlwaysMode {
            mode,
            gating: false,
            name: format!("always-{}", mode.index()),
        }
    }

    /// Enable power gating. Idempotent: re-enabling is a no-op, so the
    /// name tag is appended exactly once.
    #[must_use]
    pub fn with_gating(mut self) -> Self {
        if !self.gating {
            self.gating = true;
            self.name.push_str("+pg");
        }
        self
    }
}

impl PowerPolicy for AlwaysMode {
    fn select_mode(&mut self, _router: RouterId, _obs: &EpochObservation) -> Mode {
        self.mode
    }

    fn gating_enabled(&self) -> bool {
        self.gating
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_mode_is_constant() {
        let mut p = AlwaysMode::new(Mode::M5);
        let obs = EpochObservation {
            cycles: 500,
            ..Default::default()
        };
        assert_eq!(p.select_mode(RouterId(0), &obs), Mode::M5);
        assert_eq!(p.select_mode(RouterId(9), &obs), Mode::M5);
        assert!(!p.gating_enabled());
        assert_eq!(p.ml_features(), None);
        assert_eq!(p.name(), "always-5");
    }

    #[test]
    fn gating_variant() {
        let p = AlwaysMode::new(Mode::M7).with_gating();
        assert!(p.gating_enabled());
        assert_eq!(p.name(), "always-7+pg");
    }

    #[test]
    fn with_gating_is_idempotent() {
        // Regression: enabling twice used to name it "always-7+pg+pg".
        let p = AlwaysMode::new(Mode::M7).with_gating().with_gating();
        assert!(p.gating_enabled());
        assert_eq!(p.name(), "always-7+pg");
    }
}
