//! # DozzNoC — a full reproduction of the DozzNoC NoC power-management system
//!
//! This facade crate re-exports the whole workspace behind one
//! dependency. The paper: *"DozzNoC: Reducing Static and Dynamic Energy
//! in NoCs with Low-latency Voltage Regulators using Machine Learning"*
//! (Clark, Chen, Karanth, Ma, Louri — IPDPS 2020).
//!
//! ## Quickstart
//!
//! ```
//! use dozznoc::prelude::*;
//!
//! // 1. Train the three ML models offline (short traces for the doctest).
//! let topo = Topology::mesh8x8();
//! let trainer = Trainer::new(topo).with_duration_ns(2_000);
//! let suite = ModelSuite::train(&trainer, FeatureSet::Reduced5);
//!
//! // 2. Run the full DozzNoC model on a held-out benchmark.
//! let trace = TraceGenerator::new(topo).with_duration_ns(2_000).generate(Benchmark::Fft);
//! let report = run_model(NocConfig::paper(topo), &trace, ModelKind::DozzNoc, &suite);
//! assert!(report.stats.packets_delivered > 0);
//!
//! // 3. Compare against the always-on baseline.
//! let baseline = run_model(NocConfig::paper(topo), &trace, ModelKind::Baseline, &suite);
//! assert!(report.energy.static_j < baseline.energy.static_j);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`types`] | time base (18 GHz ticks), V/F modes, ids, flits |
//! | [`topology`] | mesh / cmesh grids, XY DOR look-ahead routing |
//! | [`power`] | SIMO/LDO regulator model, DSENT cost tables, energy ledger |
//! | [`ml`] | ridge regression, feature sets, datasets, metrics |
//! | [`traffic`] | 14 synthetic PARSEC/SPLASH-2-like workloads, patterns |
//! | [`noc`] | the cycle-accurate multi-clock-domain simulator |
//! | [`core`] | the DozzNoC policies, plug-in policy registry, training pipeline, experiment API |

pub use dozznoc_core as core;
pub use dozznoc_ml as ml;
pub use dozznoc_noc as noc;
pub use dozznoc_power as power;
pub use dozznoc_topology as topology;
pub use dozznoc_traffic as traffic;
pub use dozznoc_types as types;

/// Everything a typical experiment needs, importable in one line.
pub mod prelude {
    pub use dozznoc_core::{
        run_model, run_policy_with_telemetry, Adaptive, Baseline, CacheStats, Campaign, CellRun,
        Collector, EngineOptions, Fingerprint, ModelKind, ModelSuite, Oracle, PolicyCellRun,
        PolicyContext, PolicyError, PolicyFactory, PolicyRegistry, PolicyResult, PolicySpec,
        PowerGated, Proactive, Reactive, RlBuffer, RunCache, Trainer,
    };
    pub use dozznoc_ml::{
        mode_of_utilization, mode_selection_accuracy, Dataset, FeatureSet, RidgeRegression,
        TrainedModel,
    };
    pub use dozznoc_noc::{
        AlwaysMode, DecisionTrace, EpochObservation, EpochSample, InvariantViolation, Network,
        NocConfig, NullSink, PowerPolicy, RunReport, SanitizerReport, SimSanitizer, Telemetry,
        TimelineSink, ViolationKind,
    };
    pub use dozznoc_power::{
        DsentCosts, EnergyDelta, EnergyLedger, EnergyReport, MlOverhead, SimoRegulator,
        SwitchDelayTable, VfTable,
    };
    pub use dozznoc_topology::{Direction, Port, Topology, XyRouter};
    pub use dozznoc_traffic::{
        Benchmark, Trace, TraceGenerator, ALL_BENCHMARKS, TEST_BENCHMARKS, TRAIN_BENCHMARKS,
        VALIDATION_BENCHMARKS,
    };
    pub use dozznoc_types::{
        ConfigError, CoreId, Flit, Mode, Packet, PacketKind, PowerState, RouterId, SimTime,
        TickDelta, TransitionEvent, TransitionKind, MIN_EPOCH_CYCLES,
    };
}
