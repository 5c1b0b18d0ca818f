//! The four workloads: an untimed setup and one timed pass each,
//! driving the library only through its public functions.

use std::collections::BTreeMap;
use std::fs;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dozznoc_bench::regimes::{regime_trace, Regime};
use dozznoc_core::experiment::{summarize, ModelSummary};
use dozznoc_core::model::ALL_MODELS;
use dozznoc_core::{
    measure, Campaign, CampaignResult, EngineOptions, ModelKind, ModelSuite, PolicyCellRun,
    PolicyRegistry, PolicySpec, RunCache, Trainer,
};
use dozznoc_ml::{FeatureSet, TrainedModel};
use dozznoc_topology::Topology;
use dozznoc_traffic::{Trace, TEST_BENCHMARKS};
use serde_json::Value;

use crate::check::{by_label, CellOut};
use crate::timing::{self, Layer};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Light uniform load on the 8×8 mesh.
    LightMesh,
    /// Saturating uniform load on the 8×8 mesh.
    SaturationMesh,
    /// The headline pipeline on an empty output directory.
    HeadlineCold,
    /// The headline pipeline on the directory a cold pass filled.
    HeadlineWarm,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload::LightMesh,
    Workload::SaturationMesh,
    Workload::HeadlineCold,
    Workload::HeadlineWarm,
];

impl Workload {
    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LightMesh => "light-mesh",
            Workload::SaturationMesh => "saturation-mesh",
            Workload::HeadlineCold => "headline-cold",
            Workload::HeadlineWarm => "headline-warm",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (`BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::LightMesh => {
                "mostly empty routers: per-tick cost (event heap, gating, epochs) dominates the simulator"
            }
            Workload::SaturationMesh => {
                "saturated mesh: per-flit cost (flit movement, switch allocation, settlement) dominates"
            }
            Workload::HeadlineCold => {
                "a user's cold reproduction: training, every paper policy, cache stores, summaries and CSVs"
            }
            Workload::HeadlineWarm => {
                "the same command replayed from a full run cache: traffic, cache reads and reports, no simulation"
            }
        }
    }
}

/// Input sizes. [`Size::BENCH`] is what the benchmark measures; tests
/// run [`Size::TEST`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Regime traces per light/saturation pass.
    pub regime_traces: u64,
    /// Injection horizon of a light trace, ns.
    pub light_ns: u64,
    /// Injection horizon of a saturation trace, ns.
    pub saturation_ns: u64,
    /// Horizon of the traces the regime workloads' suite trains on, ns.
    pub regime_train_ns: u64,
    /// Trace and training horizon of the headline workloads, ns.
    pub headline_ns: u64,
    /// Setups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Size {
    /// The measured sizes.
    pub const BENCH: Size = Size {
        regime_traces: 2,
        light_ns: 8_000,
        saturation_ns: 2_000,
        regime_train_ns: 2_000,
        headline_ns: 2_000,
        setups: 3,
    };

    /// Reduced sizes for the test suite.
    pub const TEST: Size = Size {
        regime_traces: 1,
        light_ns: 1_000,
        saturation_ns: 300,
        regime_train_ns: 1_000,
        headline_ns: 1_000,
        setups: 1,
    };

    /// The sizes as a JSON object (recorded with every result).
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "regime_traces": self.regime_traces,
            "light_ns": self.light_ns,
            "saturation_ns": self.saturation_ns,
            "regime_train_ns": self.regime_train_ns,
            "headline_ns": self.headline_ns,
            "setups": self.setups,
        })
    }
}

/// The state a setup leaves for the timed passes.
pub struct Prepared {
    inputs: Inputs,
    /// Digests every pass must reproduce: the setup's own cold pass for
    /// the headline workloads, `None` (the first timed pass) otherwise.
    pub reference: Option<BTreeMap<String, u64>>,
    /// The headline's DOZZNOC mesh row beside the paper's values.
    pub accuracy: Option<Value>,
}

enum Inputs {
    Regime {
        traces: Vec<Trace>,
        suite: ModelSuite,
    },
    Headline {
        dir: PathBuf,
    },
}

/// Per-pass layer accounting, filled by traced passes.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Pass wall time, ns.
    pub wall_ns: u64,
    /// Trace generation, ns.
    pub traffic_ns: u64,
    /// Packets generated.
    pub packets: u64,
    /// Suite training and suite-file reads and writes, ns.
    pub training_ns: u64,
    /// Suites trained.
    pub suites: u64,
    /// Policies built (including the engine's up-front validation).
    pub builds: u64,
    /// Policy build time, ns.
    pub build_ns: u64,
    /// `select_mode` calls.
    pub decisions: u64,
    /// `select_mode` time, ns.
    pub decide_ns: u64,
    /// Simulations run.
    pub noc_runs: u64,
    /// Simulation time without policy decisions, ns.
    pub noc_ns: u64,
    /// Simulated ticks of the simulations run.
    pub sim_ticks: u64,
    /// Flit-hops of the simulations run.
    pub flit_hops: u64,
    /// Epoch boundaries of the simulations run.
    pub epochs: u64,
    /// Power-state transitions (wake-ups and gate-offs) simulated.
    pub transitions: u64,
    /// Run-cache hits.
    pub hits: u64,
    /// Run-cache misses.
    pub misses: u64,
    /// Run-cache stores.
    pub stores: u64,
    /// Wall time of the cells replayed from the run cache, ns.
    pub get_ns: u64,
    /// Run-cache store time, ns.
    pub put_ns: u64,
    /// Engine cells.
    pub cells: u64,
    /// Time inside `Campaign::run_trace_cells`, ns.
    pub engine_ns: u64,
    /// Engine time outside every cell's cache, policy and noc work
    /// (scheduling, trace copies and digests, fingerprints), ns.
    pub engine_other_ns: u64,
    /// Summaries and CSV rendering, ns.
    pub report_ns: u64,
    /// Each engine cell's wall time, ns.
    pub cell_walls_ns: Vec<u64>,
}

impl Layers {
    /// Accumulate another pass.
    pub fn add(&mut self, o: &Layers) {
        self.wall_ns += o.wall_ns;
        self.traffic_ns += o.traffic_ns;
        self.packets += o.packets;
        self.training_ns += o.training_ns;
        self.suites += o.suites;
        self.builds += o.builds;
        self.build_ns += o.build_ns;
        self.decisions += o.decisions;
        self.decide_ns += o.decide_ns;
        self.noc_runs += o.noc_runs;
        self.noc_ns += o.noc_ns;
        self.sim_ticks += o.sim_ticks;
        self.flit_hops += o.flit_hops;
        self.epochs += o.epochs;
        self.transitions += o.transitions;
        self.hits += o.hits;
        self.misses += o.misses;
        self.stores += o.stores;
        self.get_ns += o.get_ns;
        self.put_ns += o.put_ns;
        self.cells += o.cells;
        self.engine_ns += o.engine_ns;
        self.engine_other_ns += o.engine_other_ns;
        self.report_ns += o.report_ns;
        self.cell_walls_ns.extend_from_slice(&o.cell_walls_ns);
    }
}

/// One timed pass.
#[derive(Debug, Clone)]
pub struct PassOut {
    /// Wall time, ns.
    pub wall_ns: u64,
    /// Process CPU time, ns.
    pub cpu_ns: u64,
    /// Every cell, in engine order.
    pub cells: Vec<CellOut>,
    /// Layer accounting (zero but for the counts on plain passes).
    pub layers: Layers,
}

/// The spec mix of the regime workloads: the no-ML baseline, the
/// gating-only policy and the full ML+DVFS+gating policy.
fn regime_specs() -> Vec<PolicySpec> {
    [
        ModelKind::Baseline,
        ModelKind::PowerGated,
        ModelKind::DozzNoc,
    ]
    .iter()
    .map(ModelKind::spec)
    .collect()
}

fn paper_specs() -> Vec<PolicySpec> {
    ALL_MODELS.iter().map(ModelKind::spec).collect()
}

/// The regime-generator seed of trace `k` of a run seeded `seed`.
fn trace_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(k)
}

fn clear_dir(dir: &Path) {
    if dir.exists() {
        fs::remove_dir_all(dir).unwrap_or_else(|e| panic!("cannot clear {}: {e}", dir.display()));
    }
}

/// Prepare `w` for its timed passes, using `scratch` for files.
pub fn setup(w: Workload, seed: u64, size: &Size, scratch: &Path) -> Prepared {
    match w {
        Workload::LightMesh | Workload::SaturationMesh => {
            let topo = Topology::mesh8x8();
            let (regime, ns) = if w == Workload::LightMesh {
                (Regime::Light, size.light_ns)
            } else {
                (Regime::Saturation, size.saturation_ns)
            };
            let traces = timing::span(Layer::Traffic, || {
                (0..size.regime_traces)
                    .map(|k| regime_trace(regime, &topo, ns, trace_seed(seed, k)))
                    .collect()
            });
            let suite = timing::span(Layer::Training, || {
                let trainer = Trainer::new(topo)
                    .with_duration_ns(size.regime_train_ns)
                    .with_seed(seed);
                ModelSuite::train(&trainer, FeatureSet::Reduced5)
            });
            Prepared {
                inputs: Inputs::Regime { traces, suite },
                reference: None,
                accuracy: None,
            }
        }
        Workload::HeadlineCold | Workload::HeadlineWarm => {
            let dir = scratch.join("setup");
            clear_dir(&dir);
            let (runs, accuracy) = headline(&dir, seed, size, None, &mut Layers::default());
            Prepared {
                inputs: Inputs::Headline { dir },
                reference: Some(by_label(&cells(&runs))),
                accuracy,
            }
        }
    }
}

/// One engine call's cells and the packet counts of their traces.
struct EngineRuns {
    topo: Topology,
    packets: Vec<usize>,
    runs: Vec<PolicyCellRun>,
}

fn cells(calls: &[EngineRuns]) -> Vec<CellOut> {
    let mut out = Vec::new();
    for call in calls {
        let per_trace = call.runs.len() / call.packets.len().max(1);
        for (i, run) in call.runs.iter().enumerate() {
            let label = format!(
                "{}/{}/{}",
                call.topo.kind(),
                run.result.benchmark,
                run.result.policy.slug()
            );
            out.push(CellOut::new(
                label,
                &run.result.report,
                call.packets[i / per_trace.max(1)],
                run.cache_hit,
            ));
        }
    }
    out
}

/// Run one timed pass of `w`: plain with `timed = None` (the global
/// registry, nothing recorded), traced with the timing registry of
/// [`timing::timing_registry`].
pub fn pass(
    w: Workload,
    prep: &Prepared,
    seed: u64,
    size: &Size,
    scratch: &Path,
    timed: Option<&PolicyRegistry>,
) -> PassOut {
    let cold_dir = scratch.join("cold");
    if w == Workload::HeadlineCold {
        clear_dir(&cold_dir);
    }
    let mut layers = Layers::default();
    let mark = timing::span_count();
    let cpu0 = measure::process_cpu_ns();
    let start = Instant::now();
    let calls = timing::span(Layer::Pass, || match &prep.inputs {
        Inputs::Regime { traces, suite } => {
            let campaign = Campaign::new(Topology::mesh8x8());
            let runs = engine(
                &campaign,
                traces,
                &regime_specs(),
                suite,
                None,
                timed,
                &mut layers,
            );
            let packets = traces.iter().map(Trace::len).collect();
            let call = EngineRuns {
                topo: Topology::mesh8x8(),
                packets,
                runs,
            };
            vec![call]
        }
        Inputs::Headline { dir } => {
            let dir = if w == Workload::HeadlineCold {
                &cold_dir
            } else {
                dir
            };
            headline(dir, seed, size, timed, &mut layers).0
        }
    });
    layers.wall_ns = elapsed_ns(start);
    let cpu_ns = measure::process_cpu_ns().saturating_sub(cpu0);
    if timed.is_some() {
        layers.traffic_ns = timing::layer_ns(Layer::Traffic, mark);
        layers.training_ns = timing::layer_ns(Layer::Training, mark);
        layers.engine_ns = timing::layer_ns(Layer::Engine, mark);
        layers.report_ns = timing::layer_ns(Layer::Report, mark);
    }
    PassOut {
        wall_ns: layers.wall_ns,
        cpu_ns,
        cells: cells(&calls),
        layers,
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The §IV-B headline pipeline of `dozz-repro headline` into `dir`:
/// per topology, load or train the suite, generate the five test
/// traces, run the five paper models through the run cache, summarise
/// and write `headline_<topology>.csv`.
fn headline(
    dir: &Path,
    seed: u64,
    size: &Size,
    timed: Option<&PolicyRegistry>,
    layers: &mut Layers,
) -> (Vec<EngineRuns>, Option<Value>) {
    let mut calls = Vec::new();
    let mut accuracy = None;
    for topo in [Topology::mesh8x8(), Topology::cmesh4x4()] {
        let suite = timing::span(Layer::Training, || {
            suite_for(dir, topo, seed, size.headline_ns, layers)
        });
        let campaign = Campaign::new(topo)
            .with_duration_ns(size.headline_ns)
            .with_seed(seed);
        let traces: Vec<Trace> = timing::span(Layer::Traffic, || {
            TEST_BENCHMARKS.iter().map(|&b| campaign.trace(b)).collect()
        });
        let packets: Vec<usize> = traces.iter().map(Trace::len).collect();
        layers.packets += packets.iter().sum::<usize>() as u64;
        let cache = RunCache::open(dir.join(".runcache"));
        let specs = paper_specs();
        let runs = engine(
            &campaign,
            &traces,
            &specs,
            &suite,
            Some(&cache),
            timed,
            layers,
        );
        let summaries = timing::span(Layer::Report, || write_report(dir, topo, &runs));
        if topo == Topology::mesh8x8() {
            accuracy = summaries
                .iter()
                .find(|s| s.model == ModelKind::DozzNoc)
                .map(accuracy_row);
        }
        calls.push(EngineRuns {
            topo,
            packets,
            runs,
        });
    }
    (calls, accuracy)
}

/// DOZZNOC's measured mesh savings beside the paper's §IV-B values.
fn accuracy_row(s: &ModelSummary) -> Value {
    serde_json::json!({
        "row": "DOZZNOC mesh",
        "static_save_pct": serde_json::json!([s.static_savings_pct(), 53.0]),
        "dyn_save_pct": serde_json::json!([s.dynamic_savings_pct(), 25.0]),
        "tput_loss_pct": serde_json::json!([s.throughput_loss_pct(), 7.0]),
        "lat_incr_pct": serde_json::json!([s.latency_increase_pct(), 3.0]),
        "columns": serde_json::json!(["measured", "paper"]),
    })
}

/// Summarise one topology's cells and write its CSV, in the format of
/// `dozz-repro headline`.
fn write_report(dir: &Path, topo: Topology, runs: &[PolicyCellRun]) -> Vec<ModelSummary> {
    let results: Vec<CampaignResult> = runs
        .iter()
        .enumerate()
        .map(|(i, run)| CampaignResult {
            benchmark: run.result.benchmark.clone(),
            model: ALL_MODELS[i % ALL_MODELS.len()],
            report: run.result.report.clone(),
        })
        .collect();
    let summaries = summarize(&results);
    let mut csv = String::from(
        "model,static_save_pct,dyn_save_pct,tput_loss_pct,lat_incr_pct,edp_change_pct\n",
    );
    for s in &summaries {
        csv.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            s.model.label(),
            s.static_savings_pct(),
            s.dynamic_savings_pct(),
            s.throughput_loss_pct(),
            s.latency_increase_pct(),
            s.edp_change_pct()
        ));
    }
    let path = dir.join(format!("headline_{}.csv", topo.kind()));
    fs::write(&path, csv).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    summaries
}

/// Load the suite file `dozz-repro` would reuse, or train and write it.
fn suite_for(dir: &Path, topo: Topology, seed: u64, ns: u64, layers: &mut Layers) -> ModelSuite {
    let path = dir.join(format!("suite-{}.json", topo.kind()));
    if let Some(suite) = load_suite(&path) {
        return suite;
    }
    let trainer = Trainer::new(topo).with_duration_ns(ns).with_seed(seed);
    let suite = ModelSuite::train(&trainer, FeatureSet::Reduced5);
    layers.suites += 1;
    let text = format!(
        "{{\"dozznoc\":{},\"lead\":{},\"turbo\":{}}}",
        suite.dozznoc.to_json(),
        suite.lead.to_json(),
        suite.turbo.to_json()
    );
    fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    suite
}

fn load_suite(path: &Path) -> Option<ModelSuite> {
    let text = fs::read_to_string(path).ok()?;
    let v: Value = serde_json::from_str(&text).ok()?;
    let model = |k: &str| TrainedModel::from_json(&v.get(k)?.to_string()).ok();
    Some(ModelSuite {
        dozznoc: model("dozznoc")?,
        lead: model("lead")?,
        turbo: model("turbo")?,
    })
}

/// One `Campaign::run_trace_cells` call at `jobs = 1`. A traced call
/// (`timed` holds the timing registry) also splits the engine's time
/// into the policy, noc, cache and engine layers of `layers`.
fn engine(
    campaign: &Campaign,
    traces: &[Trace],
    specs: &[PolicySpec],
    suite: &ModelSuite,
    cache: Option<&RunCache>,
    timed: Option<&PolicyRegistry>,
    layers: &mut Layers,
) -> Vec<PolicyCellRun> {
    let opts = EngineOptions {
        jobs: Some(NonZeroUsize::MIN),
        cache,
        measure: timed.is_some(),
        ..Default::default()
    };
    let Some(registry) = timed else {
        return campaign
            .run_trace_cells(traces, specs, suite, PolicyRegistry::global(), &opts)
            .expect("the benchmark's policy specs are registered");
    };
    let tally0 = timing::tally();
    let stats0 = cache.map(RunCache::stats);
    let start = Instant::now();
    let runs = timing::span(Layer::Engine, || {
        campaign.run_trace_cells(traces, specs, suite, registry, &opts)
    })
    .expect("the benchmark's policy specs are registered");
    let span_ns = elapsed_ns(start);
    let t = timing::tally().since(&tally0);

    let wall = |r: &PolicyCellRun| r.measure.map_or(0, |m| m.wall_ns);
    let hit_ns: u64 = runs.iter().filter(|r| r.cache_hit).map(wall).sum();
    let miss_ns: u64 = runs.iter().filter(|r| !r.cache_hit).map(wall).sum();
    // A simulated cell is the engine's preparation (trace copy and
    // digest, fingerprint, a cache probe that misses) followed by its
    // policy's life: build, simulation (ending at the policy's last
    // call) and the tail up to the drop, which holds the cache store.
    let cell_policy_ns = t.build_ns - t.idle_build_ns + t.live_ns + t.tail_ns;
    let prep_ns = miss_ns.saturating_sub(cell_policy_ns);
    layers.builds += t.builds;
    layers.build_ns += t.build_ns;
    layers.decisions += t.decisions;
    layers.decide_ns += t.decide_ns;
    layers.noc_runs += t.runs;
    layers.noc_ns += t.live_ns.saturating_sub(t.decide_ns);
    for r in runs.iter().filter(|r| !r.cache_hit) {
        let report = &r.result.report;
        layers.sim_ticks += report.finished_at.ticks();
        layers.flit_hops += report.energy.flit_hops;
        layers.epochs += report.stats.epochs;
        layers.transitions += report.energy.wakeups + report.energy.gate_offs;
    }
    match (cache, stats0) {
        (Some(cache), Some(s0)) => {
            let s = cache.stats();
            layers.hits += s.hits - s0.hits;
            layers.misses += s.misses - s0.misses;
            layers.stores += s.stores - s0.stores;
            layers.get_ns += hit_ns;
            layers.put_ns += t.tail_ns;
        }
        _ => layers.engine_other_ns += t.tail_ns,
    }
    layers.engine_other_ns += prep_ns + span_ns.saturating_sub(hit_ns + miss_ns + t.idle_build_ns);
    layers.cells += runs.len() as u64;
    layers.cell_walls_ns.extend(runs.iter().map(wall));
    runs
}

/// Re-run the workload's first DozzNoC cell under the invariant
/// sanitizer (no cache). Returns the cell and the violation count.
pub fn sanitized_cell(prep: &Prepared, seed: u64, size: &Size) -> (CellOut, u64) {
    let spec = [ModelKind::DozzNoc.spec()];
    let opts = EngineOptions {
        jobs: Some(NonZeroUsize::MIN),
        sanitize: true,
        ..Default::default()
    };
    let topo = Topology::mesh8x8();
    let (campaign, trace, suite) = match &prep.inputs {
        Inputs::Regime { traces, suite } => (Campaign::new(topo), traces[0].clone(), suite.clone()),
        Inputs::Headline { dir } => {
            let suite = load_suite(&dir.join(format!("suite-{}.json", topo.kind())))
                .expect("the setup pass wrote the mesh suite");
            let campaign = Campaign::new(topo)
                .with_duration_ns(size.headline_ns)
                .with_seed(seed);
            let trace = campaign.trace(TEST_BENCHMARKS[0]);
            (campaign, trace, suite)
        }
    };
    let packets = trace.len();
    let runs = campaign
        .run_trace_cells(&[trace], &spec, &suite, PolicyRegistry::global(), &opts)
        .expect("dozznoc is registered");
    let run = &runs[0];
    let violations = run.sanitizer.as_ref().map_or(0, |s| s.total_violations);
    let call = EngineRuns {
        topo,
        packets: vec![packets],
        runs: vec![run.clone()],
    };
    (cells(&[call]).remove(0), violations)
}
