//! Online-adaptive proactive DVFS (extension).
//!
//! The paper freezes its ridge weights at deployment. This policy
//! warm-starts from those offline weights and keeps refining them with
//! recursive least squares as real labels stream in: at every epoch
//! boundary the *previous* epoch's feature vector gets labelled by the
//! *current* epoch's measured IBU (exactly the offline label definition)
//! and absorbed into the estimator. Each router keeps its own estimator,
//! preserving the paper's no-global-coordination property.
//!
//! This is the "what if the workload drifts away from the training set?"
//! answer the paper leaves to future work; `dozz-repro ablation-online`
//! measures it by deploying on traces generated with a different seed
//! than the training traces.

use dozznoc_ml::online::RecursiveLeastSquares;
use dozznoc_ml::{mode_of_utilization, FeatureSet, TrainedModel};
use dozznoc_noc::{EpochObservation, PowerPolicy};
use dozznoc_types::{Mode, RouterId};

use crate::features::extract_features;

/// Default RLS forgetting factor: mild exponential forgetting so the
/// estimator tracks phase-scale drift without thrashing on noise.
const DEFAULT_FORGETTING: f64 = 0.995;
/// Default initial-covariance scale.
const DEFAULT_DELTA: f64 = 100.0;

/// Proactive DVFS whose predictor keeps learning online.
#[derive(Debug, Clone)]
pub struct Adaptive {
    feature_set: FeatureSet,
    estimators: Vec<RecursiveLeastSquares>,
    pending: Vec<Option<Vec<f64>>>,
    gating: bool,
}

impl Adaptive {
    #[must_use]
    fn with_estimator(
        feature_set: FeatureSet,
        estimator: RecursiveLeastSquares,
        num_routers: usize,
        gating: bool,
    ) -> Self {
        Adaptive {
            feature_set,
            estimators: vec![estimator; num_routers],
            pending: vec![None; num_routers],
            gating,
        }
    }

    /// Warm-start one estimator per router from an offline model.
    pub fn from_offline(model: &TrainedModel, num_routers: usize, gating: bool) -> Self {
        let estimator = RecursiveLeastSquares::warm_start(
            model.weights.clone(),
            DEFAULT_FORGETTING,
            DEFAULT_DELTA,
        );
        Self::with_estimator(model.feature_set, estimator, num_routers, gating)
    }

    /// Start from zero weights (pure online learning, no offline stage).
    pub fn cold(feature_set: FeatureSet, num_routers: usize, gating: bool) -> Self {
        let estimator =
            RecursiveLeastSquares::new(feature_set.len(), DEFAULT_FORGETTING, DEFAULT_DELTA);
        Self::with_estimator(feature_set, estimator, num_routers, gating)
    }

    /// Total online updates absorbed across routers.
    pub fn total_updates(&self) -> u64 {
        self.estimators
            .iter()
            .map(RecursiveLeastSquares::updates)
            .sum()
    }

    /// One router's current weights (inspection/tests).
    pub fn weights_of(&self, router: RouterId) -> &[f64] {
        self.estimators[router.idx()].weights()
    }
}

impl PowerPolicy for Adaptive {
    fn select_mode(&mut self, router: RouterId, obs: &EpochObservation) -> Mode {
        let i = router.idx();
        let x = extract_features(obs, self.feature_set);
        // The current IBU labels the previous epoch's features.
        if let Some(prev_x) = self.pending[i].take() {
            self.estimators[i].update(&prev_x, obs.ibu);
        }
        let predicted = self.estimators[i].predict(&x);
        self.pending[i] = Some(x);
        mode_of_utilization(predicted)
    }

    fn gating_enabled(&self) -> bool {
        self.gating
    }

    fn ml_features(&self) -> Option<usize> {
        // Online updates cost extra multiply-accumulates; bill the label
        // *generation* like the offline models (the update itself would
        // add ~2 more dot products — see the overhead discussion in
        // EXPERIMENTS.md).
        Some(self.feature_set.len())
    }

    fn name(&self) -> &str {
        "adaptive-online"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offline_model() -> TrainedModel {
        TrainedModel::new(
            FeatureSet::Reduced5,
            vec![0.0, 0.0, 0.0, 0.0, 1.0],
            500,
            0.0,
            0.0,
        )
    }

    fn obs(router: RouterId, epoch: u64, ibu: f64) -> EpochObservation {
        EpochObservation {
            router,
            epoch,
            cycles: 500,
            ibu,
            ibu_peak: ibu,
            ..Default::default()
        }
    }

    #[test]
    fn warm_start_behaves_like_offline_at_first() {
        let mut a = Adaptive::from_offline(&offline_model(), 4, true);
        // First decision: no label has arrived yet, prediction = offline.
        assert_eq!(
            a.select_mode(RouterId(0), &obs(RouterId(0), 0, 0.15)),
            Mode::M5
        );
        assert_eq!(a.total_updates(), 0);
    }

    #[test]
    fn updates_flow_once_labels_arrive() {
        let mut a = Adaptive::from_offline(&offline_model(), 2, false);
        a.select_mode(RouterId(0), &obs(RouterId(0), 0, 0.1));
        a.select_mode(RouterId(0), &obs(RouterId(0), 1, 0.2));
        a.select_mode(RouterId(1), &obs(RouterId(1), 0, 0.1));
        assert_eq!(a.total_updates(), 1); // router 0 got one label
        a.select_mode(RouterId(1), &obs(RouterId(1), 1, 0.2));
        assert_eq!(a.total_updates(), 2);
    }

    #[test]
    fn adapts_to_a_biased_environment() {
        // Environment: next IBU is always current + 0.1 (a persistent
        // up-drift the offline identity model under-predicts). After
        // enough epochs the online estimator corrects upward.
        let mut a = Adaptive::from_offline(&offline_model(), 1, false);
        let r = RouterId(0);
        let mut ibu = 0.05;
        for e in 0..200 {
            a.select_mode(r, &obs(r, e, ibu));
            ibu = (ibu + 0.1).clamp(0.05, 0.4);
            if ibu >= 0.4 {
                ibu = 0.05; // sawtooth
            }
        }
        // Now at IBU 0.05 the offline model would predict 0.05 → M4
        // boundary; the adapted model has learned the +0.1 drift and
        // predicts higher.
        let mode = a.select_mode(r, &obs(r, 200, 0.05));
        assert!(mode >= Mode::M4, "adapted model still predicts {mode:?}");
        assert!(a.total_updates() > 100);
    }

    #[test]
    fn cold_start_learns_from_scratch() {
        let mut a = Adaptive::cold(FeatureSet::Reduced5, 1, true);
        let r = RouterId(0);
        // Constant environment at IBU 0.3 → after updates, prediction
        // should select M7.
        for e in 0..50 {
            a.select_mode(r, &obs(r, e, 0.3));
        }
        assert_eq!(a.select_mode(r, &obs(r, 50, 0.3)), Mode::M7);
        assert!(a.gating_enabled());
        assert_eq!(a.ml_features(), Some(5));
        assert_eq!(a.name(), "adaptive-online");
    }
}
