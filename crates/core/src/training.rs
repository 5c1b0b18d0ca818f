//! The offline training pipeline (§III-D, §IV-A).
//!
//! 1. Run the *reactive* variant of each ML model on the six training
//!    traces and three validation traces, collecting Full-41
//!    (features, future-IBU) examples per router per epoch.
//! 2. Project the examples to the target feature set.
//! 3. Fit ridge regression, sweeping λ on the validation examples.
//! 4. Export a [`TrainedModel`] for the network simulator.
//!
//! Each ML model (DOZZNOC, LEAD-τ, ML+TURBO) trains on *its own* data —
//! "each model will use unique training/validation data" — because the
//! gating behaviour of the collecting policy changes the feature
//! distribution (a gated router's off-time features are only non-zero
//! when collection runs under gating). Each epoch size likewise gets its
//! own model.

use dozznoc_ml::ridge::DEFAULT_LAMBDA_GRID;
use dozznoc_ml::{Dataset, FeatureSet, RidgeRegression, TrainedModel};
use dozznoc_noc::{Network, NocConfig};
use dozznoc_topology::Topology;
use dozznoc_traffic::{Benchmark, Trace, TraceGenerator, TRAIN_BENCHMARKS, VALIDATION_BENCHMARKS};
use dozznoc_types::ConfigError;

use crate::collect::Collector;
use crate::policy::Reactive;

/// Which reactive collector gathers a model's training data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReactiveKind {
    /// Gating + DVFS (trains DOZZNOC and ML+TURBO).
    Gated,
    /// DVFS only (trains LEAD-τ).
    DvfsOnly,
}

impl ReactiveKind {
    fn policy(&self) -> Reactive {
        match self {
            ReactiveKind::Gated => Reactive::dozznoc(),
            ReactiveKind::DvfsOnly => Reactive::lead(),
        }
    }
}

/// Training orchestrator: owns the trace generator and simulator config.
#[derive(Debug, Clone, Copy)]
pub struct Trainer {
    config: NocConfig,
    duration_ns: u64,
    seed: u64,
}

impl Trainer {
    /// A trainer at the paper's defaults (epoch 500, uncompressed).
    pub fn new(topology: Topology) -> Self {
        Trainer {
            config: NocConfig::paper(topology),
            duration_ns: TraceGenerator::DEFAULT_DURATION_NS,
            seed: 0,
        }
    }

    /// Train at a different epoch size (the §IV-B sweep). Rejects
    /// epochs shorter than [`dozznoc_types::MIN_EPOCH_CYCLES`].
    #[must_use = "the updated builder is returned, not applied in place"]
    pub fn try_with_epoch_cycles(mut self, epoch_cycles: u64) -> Result<Self, ConfigError> {
        self.config = self.config.try_with_epoch_cycles(epoch_cycles)?;
        Ok(self)
    }

    /// Shorter traces (tests / CI).
    #[must_use]
    pub fn with_duration_ns(mut self, duration_ns: u64) -> Self {
        self.duration_ns = duration_ns;
        self
    }

    /// Alternate seed for the trace generator.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The simulator configuration training runs use.
    pub fn config(&self) -> NocConfig {
        self.config
    }

    fn trace(&self, bench: Benchmark) -> Trace {
        TraceGenerator::new(self.config.topology)
            .with_duration_ns(self.duration_ns)
            .with_seed(self.seed)
            .generate(bench)
    }

    /// Run the reactive collector over `benches` and return the pooled
    /// Full-41 dataset.
    pub fn collect(&self, kind: ReactiveKind, benches: &[Benchmark]) -> Dataset {
        let mut pooled = Dataset::new(FeatureSet::Full41.len());
        for &bench in benches {
            let trace = self.trace(bench);
            let mut collector = Collector::new(kind.policy(), self.config.topology.num_routers());
            #[allow(
                clippy::panic,
                reason = "driver-level escalation; a failed training run has no recovery"
            )]
            Network::new(self.config)
                .run(&trace, &mut collector)
                .unwrap_or_else(|e| panic!("training run on {bench} failed: {e}"));
            let (ds, _) = collector.into_dataset();
            pooled.extend(&ds);
        }
        pooled
    }

    /// Full pipeline for one model: collect → project → fit → export.
    pub fn train(&self, kind: ReactiveKind, feature_set: FeatureSet) -> TrainedModel {
        let train41 = self.collect(kind, &TRAIN_BENCHMARKS);
        let val41 = self.collect(kind, &VALIDATION_BENCHMARKS);
        self.train_from_datasets(&train41, &val41, feature_set)
    }

    /// Fit from pre-collected Full-41 datasets (lets callers reuse one
    /// collection pass across feature sets — e.g. the Fig. 9 study).
    pub fn train_from_datasets(
        &self,
        train41: &Dataset,
        val41: &Dataset,
        feature_set: FeatureSet,
    ) -> TrainedModel {
        let cols = feature_set.columns_in_full41();
        let train = train41.project(&cols);
        let val = val41.project(&cols);
        let report = RidgeRegression::fit_with_validation(&train, &val, &DEFAULT_LAMBDA_GRID);
        TrainedModel::new(
            feature_set,
            report.weights,
            self.config.epoch_cycles,
            report.lambda,
            report.validation_mse,
        )
    }

    /// Fit a single-feature model (bias + one Full-41 column), the
    /// Fig. 9 trade-off study. Returns the weights as a 2-vector.
    pub fn train_single_feature(
        &self,
        train41: &Dataset,
        val41: &Dataset,
        column: usize,
    ) -> Vec<f64> {
        let cols = [0, column]; // Full-41 column 0 is the bias
        let train = train41.project(&cols);
        let val = val41.project(&cols);
        RidgeRegression::fit_with_validation(&train, &val, &DEFAULT_LAMBDA_GRID).weights
    }
}

/// The three trained models one evaluation campaign needs.
#[derive(Debug, Clone)]
pub struct ModelSuite {
    /// Drives DOZZNOC.
    pub dozznoc: TrainedModel,
    /// Drives LEAD-τ.
    pub lead: TrainedModel,
    /// Drives ML+TURBO (trained on gated data like DOZZNOC).
    pub turbo: TrainedModel,
}

impl ModelSuite {
    /// Train all three models (paper §IV-A: "This is repeated for all
    /// three ML models").
    pub fn train(trainer: &Trainer, feature_set: FeatureSet) -> ModelSuite {
        // DOZZNOC and ML+TURBO share the gated reactive collector (the
        // turbo rule only changes test-time selection, not the label
        // definition); LEAD-τ trains on ungated data.
        let gated_train = trainer.collect(ReactiveKind::Gated, &TRAIN_BENCHMARKS);
        let gated_val = trainer.collect(ReactiveKind::Gated, &VALIDATION_BENCHMARKS);
        let dozznoc = trainer.train_from_datasets(&gated_train, &gated_val, feature_set);
        let turbo = dozznoc.clone();
        let lead = trainer.train(ReactiveKind::DvfsOnly, feature_set);
        ModelSuite {
            dozznoc,
            lead,
            turbo,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dozznoc_ml::{mode_selection_accuracy, RidgeRegression};
    use dozznoc_traffic::TEST_BENCHMARKS;

    /// A small trainer: short traces keep the test fast while still
    /// crossing dozens of epoch boundaries per router.
    fn tiny() -> Trainer {
        Trainer::new(Topology::mesh8x8()).with_duration_ns(4_000)
    }

    #[test]
    fn collection_yields_examples() {
        let ds = tiny().collect(ReactiveKind::Gated, &[Benchmark::Canneal]);
        // 64 routers × (epochs − 1) examples; must be substantial.
        assert!(ds.len() > 200, "only {} examples", ds.len());
        assert_eq!(ds.dim(), 41);
    }

    #[test]
    fn trained_model_beats_the_mean_predictor_on_held_out_data() {
        let trainer = tiny();
        let model = trainer.train(ReactiveKind::Gated, FeatureSet::Reduced5);
        assert_eq!(model.weights.len(), 5);
        // Evaluate on a held-out test benchmark.
        let test41 = trainer.collect(ReactiveKind::Gated, &[TEST_BENCHMARKS[0]]);
        let test = test41.project(&FeatureSet::Reduced5.columns_in_full41());
        let pred = RidgeRegression::predict(&model.weights, &test);
        let acc = mode_selection_accuracy(&pred, test.labels());
        // The paper's single-feature IBU model already reaches ~80%;
        // the 5-feature model must clear a conservative bar.
        assert!(acc > 0.5, "mode-selection accuracy {acc}");
    }

    #[test]
    fn suite_trains_three_models() {
        let suite = ModelSuite::train(&tiny(), FeatureSet::Reduced5);
        assert_eq!(suite.dozznoc.feature_set, FeatureSet::Reduced5);
        assert_eq!(suite.lead.feature_set, FeatureSet::Reduced5);
        // Turbo shares DOZZNOC's weights; LEAD trains on different data.
        assert_eq!(suite.turbo.weights, suite.dozznoc.weights);
        assert_ne!(suite.lead.weights, suite.dozznoc.weights);
    }

    #[test]
    fn single_feature_training_works() {
        let trainer = tiny();
        let train41 = trainer.collect(ReactiveKind::Gated, &[Benchmark::Ferret]);
        let val41 = trainer.collect(ReactiveKind::Gated, &[Benchmark::Vips]);
        let ibu_col = FeatureSet::Reduced5.columns_in_full41()[4];
        let w = trainer.train_single_feature(&train41, &val41, ibu_col);
        assert_eq!(w.len(), 2);
        // IBU is strongly autocorrelated: its weight must be positive.
        assert!(w[1] > 0.0, "IBU weight {w:?}");
    }
}
