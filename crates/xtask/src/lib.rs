//! Project automation library behind the `cargo xtask` binary.
//!
//! Three layers, bottom-up:
//!
//! - [`diag`] — the shared diagnostics engine: one [`diag::Diagnostic`]
//!   shape, `xtask-analyze: allow(..)` suppressions with mandatory
//!   justifications, the checked-in baseline, and the deny/warn exit
//!   gate with human + JSON rendering.
//! - [`scans`] — the no-parse fast path: string scans (lossy casts,
//!   tick narrowing, thread spawns, RunStats coverage) used by
//!   `cargo xtask lint`.
//! - [`analyze`] — the AST path: the vendored-`syn` workspace loader
//!   and the four semantic passes used by `cargo xtask analyze`.
//!
//! The split into a library exists so the fixture tests
//! (`tests/analyze.rs`, `tests/analyze_dataflow.rs`) can run the passes
//! against in-memory inputs without shelling out to the binary.

pub mod analyze;
pub mod diag;
pub mod scans;
