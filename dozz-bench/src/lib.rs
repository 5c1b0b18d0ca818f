//! `dozz-bench`: the repository benchmark.
//!
//! Four workloads, each one closed loop of identical *passes* in one
//! process at `jobs = 1`:
//!
//! * `light-mesh` / `saturation-mesh` — synthetic load-regime traces on
//!   the 8×8 mesh under the baseline, power-gated and DozzNoC policies;
//! * `headline-cold` / `headline-warm` — the §IV-B headline pipeline
//!   (train both suites, 2 topologies × 5 test traces × 5 paper models
//!   through the run cache, summarise, write CSVs) on an empty and on a
//!   filled output directory.
//!
//! The benchmark drives the library only through its public API
//! ([`workload`]); a plain run measures the end-to-end metrics
//! ([`metrics::END_TO_END`]) and a traced run splits each pass into the
//! layers of [`metrics::PER_LAYER`] with spans kept in thread-local
//! memory ([`timing`]). Every cell's report is checked ([`check`]).

pub mod check;
pub mod host;
pub mod metrics;
pub mod run;
pub mod timing;
pub mod workload;
