//! High-level experiment API: train once, run any model on any trace,
//! or fan a whole campaign across benchmarks.
//!
//! Campaign execution goes through one engine ([`Campaign::run_cells`]):
//! the (benchmark, model) matrix flattens into independent cells drained
//! by the work-stealing scheduler ([`crate::schedule`]), traces are
//! generated once per benchmark and shared across cells, results land in
//! pre-sized indexed slots, and an optional content-addressed run cache
//! ([`crate::cache`]) replays previously simulated cells from disk.
//! Every configuration — any `jobs` count, warm or cold cache — produces
//! bit-identical results (see `tests/determinism.rs`).

use std::num::NonZeroUsize;

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use dozznoc_noc::{
    Network, NocConfig, NullSink, PowerPolicy, RunReport, SanitizerReport, SimSanitizer, Telemetry,
};
use dozznoc_topology::Topology;
use dozznoc_traffic::{Benchmark, Trace, TraceGenerator};
use dozznoc_types::ConfigError;

use crate::cache::{self, RunCache};
use crate::measure::{CellMeasure, CellStopwatch};
use crate::model::{ModelKind, ALL_MODELS};
use crate::registry::{PolicyContext, PolicyError, PolicyRegistry, PolicySpec};
use crate::schedule;
use crate::training::ModelSuite;

/// Run one paper model on one trace and report.
pub fn run_model(cfg: NocConfig, trace: &Trace, kind: ModelKind, suite: &ModelSuite) -> RunReport {
    run_policy_with_telemetry(
        cfg,
        trace,
        &kind.spec(),
        PolicyRegistry::global(),
        suite,
        &mut NullSink,
    )
    .expect("every paper-model default spec builds")
}

/// Run one registered policy (any [`PolicySpec`], paper model or
/// plug-in) on one trace, streaming telemetry into `tel`. Errors on
/// unknown names or invalid parameters instead of panicking — this is
/// the CLI-boundary entry point.
#[allow(
    clippy::panic,
    reason = "driver-level escalation; a failed run invalidates the whole campaign"
)]
pub fn run_policy_with_telemetry(
    cfg: NocConfig,
    trace: &Trace,
    spec: &PolicySpec,
    registry: &PolicyRegistry,
    suite: &ModelSuite,
    tel: &mut dyn Telemetry,
) -> Result<RunReport, PolicyError> {
    let mut policy = registry.build(spec, &PolicyContext { suite })?;
    Ok(Network::new(cfg)
        .run_with_telemetry(trace, policy.as_mut(), tel)
        .unwrap_or_else(|e| panic!("{spec} on {} failed: {e}", trace.name)))
}

/// Simulate one already-built policy, optionally under the invariant
/// sanitizer: the one funnel every simulated campaign cell goes through.
fn simulate(
    cfg: NocConfig,
    trace: &Trace,
    policy: &mut dyn PowerPolicy,
    sanitize: bool,
) -> (RunReport, Option<SanitizerReport>) {
    let mut san = sanitize.then(SimSanitizer::default);
    let net = Network::new(cfg);
    let run = match san.as_mut() {
        Some(san) => net.run_sanitized(trace, policy, san),
        None => net.run(trace, policy),
    };
    #[allow(
        clippy::panic,
        reason = "driver-level escalation; a failed run invalidates the whole campaign"
    )]
    let report = run.unwrap_or_else(|e| panic!("policy on {} failed: {e}", trace.name));
    (report, san.map(|san| san.report()))
}

/// One cell of a campaign: a model evaluated on a benchmark.
///
/// Frozen schema: this struct is serialized into determinism goldens
/// and CSV artifacts, so it keeps the closed [`ModelKind`] — campaigns
/// over arbitrary registered policies produce [`PolicyResult`]s instead.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// The benchmark run.
    pub benchmark: String,
    /// The model run.
    pub model: ModelKind,
    /// The run's report.
    pub report: RunReport,
}

/// One cell of a policy campaign: a [`PolicySpec`] evaluated on a
/// benchmark — the open-registry counterpart of [`CampaignResult`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyResult {
    /// The benchmark run.
    pub benchmark: String,
    /// The policy spec run.
    pub policy: PolicySpec,
    /// The run's report.
    pub report: RunReport,
}

/// One executed (or replayed) policy-campaign cell.
#[derive(Debug, Clone)]
pub struct PolicyCellRun {
    /// The cell's result, exactly as a cache-less sequential run would
    /// produce it.
    pub result: PolicyResult,
    /// True when the report was replayed from the run cache.
    pub cache_hit: bool,
    /// The sanitizer's findings, when the cell was simulated under
    /// [`EngineOptions::sanitize`].
    pub sanitizer: Option<SanitizerReport>,
    /// Wall/CPU/RSS readings for the cell, when the cell ran under
    /// [`EngineOptions::measure`].
    pub measure: Option<CellMeasure>,
}

/// A full evaluation campaign: all five models over a set of benchmarks,
/// at a given compression factor.
#[derive(Debug, Clone)]
pub struct Campaign {
    topology: Topology,
    epoch_cycles: u64,
    duration_ns: u64,
    seed: u64,
    load_scale: (u64, u64),
    models: Vec<ModelKind>,
}

impl Campaign {
    /// A campaign at the paper's defaults over all five models.
    pub fn new(topology: Topology) -> Self {
        Campaign {
            topology,
            epoch_cycles: 500,
            duration_ns: TraceGenerator::DEFAULT_DURATION_NS,
            seed: 0,
            load_scale: (1, 1),
            models: ALL_MODELS.to_vec(),
        }
    }

    /// Epoch size override. Rejects degenerate epochs (see
    /// [`dozznoc_types::MIN_EPOCH_CYCLES`]).
    #[must_use = "the updated builder is returned, not applied in place"]
    pub fn try_with_epoch_cycles(mut self, epoch_cycles: u64) -> Result<Self, ConfigError> {
        if epoch_cycles < dozznoc_types::MIN_EPOCH_CYCLES {
            return Err(ConfigError::DegenerateEpoch { epoch_cycles });
        }
        self.epoch_cycles = epoch_cycles;
        Ok(self)
    }

    /// Trace horizon override.
    #[must_use]
    pub fn with_duration_ns(mut self, duration_ns: u64) -> Self {
        self.duration_ns = duration_ns;
        self
    }

    /// Seed override.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run on time-compressed traces (Fig. 8(a,b)). A factor of 1 is
    /// uncompressed; 0 is rejected.
    #[must_use = "the updated builder is returned, not applied in place"]
    pub fn try_with_compression(mut self, factor: u64) -> Result<Self, ConfigError> {
        if factor == 0 {
            return Err(ConfigError::ZeroCompression);
        }
        self.load_scale = (1, factor);
        Ok(self)
    }

    /// Fractional compression: injection times scaled by `num/den`
    /// (load changes by `den/num`). The Fig. 8 "compressed" runs use
    /// 2/3 — 1.5× load, near but not past saturation. Zero terms are
    /// rejected.
    #[must_use = "the updated builder is returned, not applied in place"]
    pub fn try_with_load_scale(mut self, num: u64, den: u64) -> Result<Self, ConfigError> {
        if num == 0 || den == 0 {
            return Err(ConfigError::ZeroLoadScale { num, den });
        }
        self.load_scale = (num, den);
        Ok(self)
    }

    /// Restrict the model set. An empty set is rejected.
    #[must_use = "the updated builder is returned, not applied in place"]
    pub fn try_with_models(mut self, models: &[ModelKind]) -> Result<Self, ConfigError> {
        if models.is_empty() {
            return Err(ConfigError::EmptyModelSet);
        }
        self.models = models.to_vec();
        Ok(self)
    }

    /// Simulator configuration the campaign uses.
    pub fn config(&self) -> NocConfig {
        NocConfig::paper(self.topology)
            .try_with_epoch_cycles(self.epoch_cycles)
            .expect("campaign epoch validated at construction")
    }

    /// Generate (and optionally compress) one benchmark's trace.
    pub fn trace(&self, bench: Benchmark) -> Trace {
        let t = TraceGenerator::new(self.topology)
            .with_duration_ns(self.duration_ns)
            .with_seed(self.seed)
            .generate(bench);
        let (num, den) = self.load_scale;
        t.rescale(num, den)
    }

    /// Run every model over every benchmark with the default engine
    /// (all available cores, no cache).
    pub fn run(&self, benches: &[Benchmark], suite: &ModelSuite) -> Vec<CampaignResult> {
        self.run_cells(benches, suite, &EngineOptions::default())
            .into_iter()
            .map(|cell| cell.result)
            .collect()
    }

    /// Run the campaign matrix through the cell engine.
    ///
    /// Each (benchmark, model) cell is an independent task drained from
    /// a shared injector by `opts.jobs` workers (default: all available
    /// cores). Traces are generated once per benchmark — by whichever
    /// worker gets there first — and shared by reference-counted handle
    /// with every cell of that benchmark. With `opts.cache` set, cells
    /// whose fingerprint is already stored replay from disk without
    /// simulating; fresh simulations are stored on completion. With
    /// `opts.sanitize`, simulated cells run under a fresh
    /// [`SimSanitizer`] whose report rides along (cache hits skip
    /// simulation and so carry no sanitizer report).
    ///
    /// Results arrive in cell order (benchmark-major, model-minor),
    /// bit-identical for every `jobs` count and cache state.
    pub fn run_cells(
        &self,
        benches: &[Benchmark],
        suite: &ModelSuite,
        opts: &EngineOptions<'_>,
    ) -> Vec<CellRun> {
        // The ModelKind matrix is a special case of the spec engine:
        // every kind maps to its defaults-only spec (identical slug, so
        // identical cache fingerprints), runs through the same cells,
        // and is mapped back to the frozen CampaignResult schema.
        let specs: Vec<PolicySpec> = self.models.iter().map(ModelKind::spec).collect();
        let runs = self
            .run_policy_cells(benches, &specs, suite, PolicyRegistry::global(), opts)
            .expect("paper-model default specs always build");
        runs.into_iter()
            .enumerate()
            .map(|(i, run)| CellRun {
                result: CampaignResult {
                    benchmark: run.result.benchmark,
                    // Cell order is benchmark-major, model-minor, so the
                    // model cycles with period `models.len()`.
                    model: self.models[i % self.models.len()],
                    report: run.result.report,
                },
                cache_hit: run.cache_hit,
                sanitizer: run.sanitizer,
                measure: run.measure,
            })
            .collect()
    }

    /// Run an arbitrary set of registered policies over the benchmark
    /// matrix — the open-registry engine behind [`Campaign::run_cells`].
    ///
    /// Each (benchmark, spec) cell is an independent task drained by
    /// `opts.jobs` workers; the policy is built fresh per cell from its
    /// spec (stateful policies must not leak state across cells), and
    /// the run cache keys on [`PolicySpec::slug`] so parameterizations
    /// of one policy never collide. Every spec is resolved and built
    /// once up front: unknown names and invalid parameters surface as a
    /// [`PolicyError`] before any cell simulates.
    ///
    /// Results arrive in cell order (benchmark-major, spec-minor),
    /// bit-identical for every `jobs` count and cache state.
    pub fn run_policy_cells(
        &self,
        benches: &[Benchmark],
        specs: &[PolicySpec],
        suite: &ModelSuite,
        registry: &PolicyRegistry,
        opts: &EngineOptions<'_>,
    ) -> Result<Vec<PolicyCellRun>, PolicyError> {
        let labels: Vec<String> = benches.iter().map(|b| b.name().to_string()).collect();
        self.run_spec_cells(
            &labels,
            &|bi| self.trace(benches[bi]),
            specs,
            suite,
            registry,
            opts,
        )
    }

    /// Run registered policies over *pre-built traces* instead of the
    /// benchmark generator — the entry point `dozz-bench` drives with
    /// synthetic load-regime traces. Every
    /// engine property of [`Campaign::run_policy_cells`] holds: cells
    /// are (trace, spec) pairs in trace-major order, drained by
    /// `opts.jobs` workers, cached by trace digest × spec slug.
    ///
    /// The campaign's own trace knobs (duration, seed, compression) are
    /// ignored here — the caller owns trace construction — but its
    /// topology and epoch settings still shape the simulator config, so
    /// traces must target the campaign's topology.
    pub fn run_trace_cells(
        &self,
        traces: &[Trace],
        specs: &[PolicySpec],
        suite: &ModelSuite,
        registry: &PolicyRegistry,
        opts: &EngineOptions<'_>,
    ) -> Result<Vec<PolicyCellRun>, PolicyError> {
        let labels: Vec<String> = traces.iter().map(|t| t.name.clone()).collect();
        self.run_spec_cells(
            &labels,
            &|ti| traces[ti].clone(),
            specs,
            suite,
            registry,
            opts,
        )
    }

    /// The one spec-matrix engine behind [`Campaign::run_policy_cells`]
    /// and [`Campaign::run_trace_cells`]: one trace source per `labels`
    /// entry (materialized lazily, at most once, by `trace_of`) ×
    /// `specs`, scheduled, cached and measured identically for both
    /// entries. `labels[si]` becomes the result's `benchmark` field.
    fn run_spec_cells(
        &self,
        labels: &[String],
        trace_of: &(dyn Fn(usize) -> Trace + Sync),
        specs: &[PolicySpec],
        suite: &ModelSuite,
        registry: &PolicyRegistry,
        opts: &EngineOptions<'_>,
    ) -> Result<Vec<PolicyCellRun>, PolicyError> {
        let ctx = PolicyContext { suite };
        for spec in specs {
            drop(registry.build(spec, &ctx)?);
        }
        let cfg = self.config();
        let mut cells = Vec::with_capacity(labels.len() * specs.len());
        for si in 0..labels.len() {
            for spec in specs {
                cells.push((si, spec));
            }
        }
        let base = opts.cache.map(|_| cache::campaign_base(&cfg, suite));
        // One lazily generated (trace, digest) per source, shared by
        // all of its cells.
        let traces: Vec<OnceLock<(Arc<Trace>, u64)>> =
            labels.iter().map(|_| OnceLock::new()).collect();

        let jobs = opts.jobs.unwrap_or_else(schedule::default_jobs);
        Ok(schedule::run_indexed(jobs, cells.len(), |i| {
            let stopwatch = opts.measure.then(CellStopwatch::start);
            let (si, spec) = cells[i];
            let slug = spec.slug();
            let (trace, digest) = traces[si].get_or_init(|| {
                let trace = trace_of(si);
                let digest = trace.digest();
                (Arc::new(trace), digest)
            });
            let trace = Arc::clone(trace);
            let result = |report| PolicyResult {
                benchmark: labels[si].clone(),
                policy: spec.clone(),
                report,
            };

            let fp = base.map(|b| cache::cell_fingerprint(b, *digest, &slug));
            if let (Some(cache), Some(fp)) = (opts.cache, fp) {
                if let Some(report) = cache.get(fp, &slug, &trace.name) {
                    return PolicyCellRun {
                        result: result(report),
                        cache_hit: true,
                        sanitizer: None,
                        measure: stopwatch.map(CellStopwatch::stop),
                    };
                }
            }

            let mut policy = registry
                .build(spec, &ctx)
                .expect("specs validated before scheduling");
            let (report, sanitizer) = simulate(cfg, &trace, policy.as_mut(), opts.sanitize);
            if let (Some(cache), Some(fp)) = (opts.cache, fp) {
                cache.put(fp, &slug, &report);
            }
            PolicyCellRun {
                result: result(report),
                cache_hit: false,
                sanitizer,
                measure: stopwatch.map(CellStopwatch::stop),
            }
        }))
    }
}

/// How [`Campaign::run_cells`] executes the matrix.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineOptions<'a> {
    /// Worker threads draining the cell injector. `None` uses
    /// [`schedule::default_jobs`] (the machine's available
    /// parallelism); `jobs = 1` runs inline with no threads at all.
    pub jobs: Option<NonZeroUsize>,
    /// Content-addressed run cache to consult and fill. `None` always
    /// simulates.
    pub cache: Option<&'a RunCache>,
    /// Run simulated cells under a runtime invariant sanitizer and
    /// attach its per-cell report.
    pub sanitize: bool,
    /// Measure each cell's wall-clock, worker-thread CPU time and the
    /// process peak RSS (see [`crate::measure`]) and attach the
    /// readings. Observational only: results stay bit-identical.
    pub measure: bool,
}

/// One executed (or replayed) campaign cell.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The cell's result, exactly as a cache-less sequential run would
    /// produce it.
    pub result: CampaignResult,
    /// True when the report was replayed from the run cache (no
    /// simulation happened).
    pub cache_hit: bool,
    /// The sanitizer's findings, when the cell was simulated under
    /// [`EngineOptions::sanitize`].
    pub sanitizer: Option<SanitizerReport>,
    /// Wall/CPU/RSS readings for the cell, when the cell ran under
    /// [`EngineOptions::measure`].
    pub measure: Option<CellMeasure>,
}

/// Aggregate a campaign into per-model means relative to the baseline
/// (the §IV-B headline numbers).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelSummary {
    /// The model summarized.
    pub model: ModelKind,
    /// Mean static-energy ratio vs. baseline (1.0 = no savings).
    pub static_ratio: f64,
    /// Mean dynamic-energy ratio vs. baseline.
    pub dynamic_ratio: f64,
    /// Mean throughput ratio vs. baseline.
    pub throughput_ratio: f64,
    /// Mean latency ratio vs. baseline.
    pub latency_ratio: f64,
    /// Mean energy-delay-product ratio vs. baseline (total energy ×
    /// mean packet latency; the paper reports "no impact on … EDP" for
    /// the 41→5 feature reduction).
    pub edp_ratio: f64,
}

impl ModelSummary {
    /// Static power savings as the paper quotes them (percent).
    pub fn static_savings_pct(&self) -> f64 {
        (1.0 - self.static_ratio) * 100.0
    }

    /// Dynamic energy savings (percent).
    pub fn dynamic_savings_pct(&self) -> f64 {
        (1.0 - self.dynamic_ratio) * 100.0
    }

    /// Throughput loss (percent).
    pub fn throughput_loss_pct(&self) -> f64 {
        (1.0 - self.throughput_ratio) * 100.0
    }

    /// Latency increase (percent).
    pub fn latency_increase_pct(&self) -> f64 {
        (self.latency_ratio - 1.0) * 100.0
    }

    /// EDP change (percent; negative = better than baseline).
    pub fn edp_change_pct(&self) -> f64 {
        (self.edp_ratio - 1.0) * 100.0
    }
}

/// Energy-delay product of one run: total NoC energy × mean network
/// latency.
pub fn edp(report: &RunReport) -> f64 {
    let energy = report.energy.static_j + report.energy.dynamic_with_ml_j();
    energy * report.stats.avg_net_latency_ns()
}

/// Summarize campaign results per model against the baseline rows.
/// Ratios are averaged per benchmark (each benchmark normalized to its
/// own baseline, then averaged — the paper's "average savings").
pub fn summarize(results: &[CampaignResult]) -> Vec<ModelSummary> {
    let mut models: Vec<ModelKind> = Vec::new();
    for r in results {
        if !models.contains(&r.model) {
            models.push(r.model);
        }
    }
    let baselines: Vec<&CampaignResult> = results
        .iter()
        .filter(|r| r.model == ModelKind::Baseline)
        .collect();
    models
        .iter()
        .map(|&model| {
            let mut n = 0.0;
            let (mut s, mut d, mut t, mut l, mut e) = (0.0, 0.0, 0.0, 0.0, 0.0);
            for r in results.iter().filter(|r| r.model == model) {
                let Some(base) = baselines.iter().find(|b| b.benchmark == r.benchmark) else {
                    continue;
                };
                s += r.report.static_energy_vs(&base.report);
                d += r.report.dynamic_energy_vs(&base.report);
                t += r.report.throughput_vs(&base.report);
                l += r.report.latency_vs(&base.report);
                e += edp(&r.report) / edp(&base.report).max(f64::MIN_POSITIVE);
                n += 1.0;
            }
            let n: f64 = if n > 0.0 { n } else { 1.0 };
            ModelSummary {
                model,
                static_ratio: s / n,
                dynamic_ratio: d / n,
                throughput_ratio: t / n,
                latency_ratio: l / n,
                edp_ratio: e / n,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::Trainer;
    use dozznoc_ml::FeatureSet;

    fn quick_suite(topo: Topology) -> ModelSuite {
        ModelSuite::train(
            &Trainer::new(topo).with_duration_ns(2_000),
            FeatureSet::Reduced5,
        )
    }

    #[test]
    fn campaign_runs_all_cells() {
        let topo = Topology::mesh8x8();
        let suite = quick_suite(topo);
        let campaign = Campaign::new(topo).with_duration_ns(2_000);
        let results = campaign.run(&[Benchmark::Fft, Benchmark::Lu], &suite);
        assert_eq!(results.len(), 2 * 5);
        // Every model delivered every packet.
        for r in &results {
            assert!(r.report.stats.packets_delivered > 0, "{:?}", r.model);
        }
        // Deterministic ordering: fft block first.
        assert_eq!(results[0].benchmark, "fft");
        assert_eq!(results[0].model, ModelKind::Baseline);
    }

    #[test]
    fn summaries_show_the_paper_ordering() {
        let topo = Topology::mesh8x8();
        let suite = quick_suite(topo);
        let campaign = Campaign::new(topo).with_duration_ns(4_000);
        let results = campaign.run(&[Benchmark::X264], &suite);
        let summaries = summarize(&results);
        let get = |m: ModelKind| summaries.iter().find(|s| s.model == m).copied().unwrap();
        // Baseline compared to itself: all ratios 1.
        let base = get(ModelKind::Baseline);
        assert!((base.static_ratio - 1.0).abs() < 1e-9);
        assert!((base.throughput_ratio - 1.0).abs() < 1e-9);
        // Every power-managed model saves static energy vs. baseline.
        for m in [
            ModelKind::PowerGated,
            ModelKind::DozzNoc,
            ModelKind::MlTurbo,
        ] {
            assert!(
                get(m).static_ratio < 0.95,
                "{m}: static ratio {}",
                get(m).static_ratio
            );
        }
        // DVFS models save dynamic energy.
        for m in [ModelKind::LeadDvfs, ModelKind::DozzNoc] {
            assert!(
                get(m).dynamic_ratio < 1.0,
                "{m}: dynamic ratio {}",
                get(m).dynamic_ratio
            );
        }
    }

    #[test]
    fn degenerate_epoch_is_rejected() {
        let err = Campaign::new(Topology::mesh8x8())
            .try_with_epoch_cycles(5)
            .unwrap_err();
        assert_eq!(err, ConfigError::DegenerateEpoch { epoch_cycles: 5 });
        assert!(Campaign::new(Topology::mesh8x8())
            .try_with_epoch_cycles(dozznoc_types::MIN_EPOCH_CYCLES)
            .is_ok());
    }

    #[test]
    fn zero_compression_is_rejected() {
        let err = Campaign::new(Topology::mesh8x8())
            .try_with_compression(0)
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroCompression);
        assert!(Campaign::new(Topology::mesh8x8())
            .try_with_compression(1)
            .is_ok());
    }

    #[test]
    fn zero_load_scale_is_rejected() {
        let err = Campaign::new(Topology::mesh8x8())
            .try_with_load_scale(0, 3)
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroLoadScale { num: 0, den: 3 });
        let err = Campaign::new(Topology::mesh8x8())
            .try_with_load_scale(2, 0)
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroLoadScale { num: 2, den: 0 });
        assert!(Campaign::new(Topology::mesh8x8())
            .try_with_load_scale(2, 3)
            .is_ok());
    }

    #[test]
    fn empty_model_set_is_rejected() {
        let err = Campaign::new(Topology::mesh8x8())
            .try_with_models(&[])
            .unwrap_err();
        assert_eq!(err, ConfigError::EmptyModelSet);
        assert!(Campaign::new(Topology::mesh8x8())
            .try_with_models(&[ModelKind::Baseline])
            .is_ok());
    }

    #[test]
    fn policy_cells_surface_bad_specs_before_running() {
        let topo = Topology::mesh8x8();
        let suite = quick_suite(topo);
        let campaign = Campaign::new(topo).with_duration_ns(2_000);
        let err = campaign
            .run_policy_cells(
                &[Benchmark::Fft],
                &[PolicySpec::new("no-such-policy")],
                &suite,
                PolicyRegistry::global(),
                &EngineOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, PolicyError::Unknown { .. }), "{err}");
        let err = campaign
            .run_policy_cells(
                &[Benchmark::Fft],
                &[PolicySpec::new("rl-buffer").with_param("gamma", "1.5")],
                &suite,
                PolicyRegistry::global(),
                &EngineOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, PolicyError::BadParam { .. }), "{err}");
    }

    #[test]
    fn policy_cells_run_the_extension_policies() {
        let topo = Topology::mesh8x8();
        let suite = quick_suite(topo);
        let campaign = Campaign::new(topo).with_duration_ns(2_000);
        let specs = [
            PolicySpec::new("online-ridge"),
            PolicySpec::new("rl-buffer").with_param("seed", "3"),
        ];
        let runs = campaign
            .run_policy_cells(
                &[Benchmark::Fft],
                &specs,
                &suite,
                PolicyRegistry::global(),
                &EngineOptions::default(),
            )
            .expect("valid specs");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].result.report.policy, "online-ridge");
        assert_eq!(runs[1].result.report.policy, "rl-buffer");
        assert_eq!(runs[1].result.policy.slug(), "rl-buffer?seed=3");
        for run in &runs {
            assert!(run.result.report.stats.packets_delivered > 0);
        }
    }

    #[test]
    fn summary_percent_helpers() {
        let s = ModelSummary {
            model: ModelKind::DozzNoc,
            static_ratio: 0.47,
            dynamic_ratio: 0.75,
            throughput_ratio: 0.93,
            latency_ratio: 1.03,
            edp_ratio: 0.68,
        };
        assert!((s.static_savings_pct() - 53.0).abs() < 1e-9);
        assert!((s.dynamic_savings_pct() - 25.0).abs() < 1e-9);
        assert!((s.throughput_loss_pct() - 7.0).abs() < 1e-9);
        assert!((s.latency_increase_pct() - 3.0).abs() < 1e-9);
        assert!((s.edp_change_pct() + 32.0).abs() < 1e-9);
    }

    #[test]
    fn edp_combines_energy_and_latency() {
        let topo = Topology::mesh8x8();
        let suite = quick_suite(topo);
        let trace = Campaign::new(topo)
            .with_duration_ns(3_000)
            .trace(Benchmark::Fft);
        let base = run_model(NocConfig::paper(topo), &trace, ModelKind::Baseline, &suite);
        let e = edp(&base);
        assert!(e > 0.0);
        assert!(
            (e - (base.energy.static_j + base.energy.dynamic_with_ml_j())
                * base.stats.avg_net_latency_ns())
            .abs()
                < 1e-12
        );
    }
}
