//! The DozzNoC contribution: adaptive power management combining
//! partially non-blocking power-gating, proactive ML-driven DVFS and the
//! SIMO/LDO regulator substrate.
//!
//! The five models of the paper's evaluation (§III-B):
//!
//! | model | gating | DVFS | ML | module |
//! |---|---|---|---|---|
//! | Baseline | – | – | – | [`policy::Baseline`] |
//! | PG (Power Punch-like) | ✓ | – | – | [`policy::PowerGated`] |
//! | DVFS+ML (LEAD-τ) | – | ✓ | ✓ | [`policy::Proactive`] |
//! | **DOZZNOC** | ✓ | ✓ | ✓ | [`policy::Proactive`] |
//! | ML+TURBO | ✓ | ✓ | ✓ (turbo rule) | [`policy::Proactive`] |
//!
//! plus the *reactive* variants ([`policy::Reactive`]) used only to
//! collect training data (§III-D: "we must first design reactive versions
//! of each machine learning model").
//!
//! [`training`] reproduces the offline pipeline: reactive runs over the
//! six training traces collect features and future-IBU labels, ridge
//! regression fits them with λ tuned on the three validation traces, and
//! the exported [`dozznoc_ml::TrainedModel`] drives proactive mode
//! selection on the five held-out test traces. [`experiment`] wraps the
//! whole thing behind a one-call API, executing campaign matrices on
//! the [`schedule`] work-stealing cell scheduler with an optional
//! content-addressed run [`cache`].

#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        reason = "unit tests assert table constants and exactly-rounded arithmetic bit-for-bit"
    )
)]

//! The policy layer is *open*: [`registry`] defines the plug-in API —
//! [`PolicyFactory`] implementations registered in a [`PolicyRegistry`]
//! build [`dozznoc_noc::PowerPolicy`] instances from serializable
//! [`PolicySpec`]s — and [`ModelKind`] survives only as a compatibility
//! shim over it. Third-party policies register without touching any
//! enum; see `DESIGN.md` § "Policy plug-in architecture".

pub mod cache;
pub mod collect;
pub mod experiment;
pub mod features;
pub mod measure;
pub mod model;
pub mod policy;
pub mod registry;
pub mod schedule;
pub mod training;

pub use cache::{CacheStats, Fingerprint, RunCache};
pub use collect::Collector;
pub use experiment::{
    run_model, run_policy_with_telemetry, Campaign, CampaignResult, CellRun, EngineOptions,
    PolicyCellRun, PolicyResult,
};
pub use features::{extract_features, feature_value};
pub use measure::CellMeasure;
pub use model::ModelKind;
pub use policy::{Adaptive, Baseline, Oracle, PowerGated, Proactive, Reactive, RlBuffer};
pub use registry::{PolicyContext, PolicyError, PolicyFactory, PolicyRegistry, PolicySpec};
pub use training::{ModelSuite, Trainer};
