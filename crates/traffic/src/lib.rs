//! Traffic generation for the DozzNoC reproduction.
//!
//! The paper drives its network simulator with trace files gathered from
//! Multi2Sim running PARSEC 2.1 and SPLASH-2 on 64 cores; each trace
//! record is `(source, destination, request/response, injection time)`.
//! We cannot run the proprietary toolchain, so this crate generates
//! **synthetic traces with the same record format and calibrated
//! statistics**: 14 named workload profiles (ten PARSEC-like, four
//! SPLASH-2-like), each a deterministic seeded Markov-modulated on/off
//! injection process with phase structure, spatial locality, hotspots and
//! a request/response mix. See `DESIGN.md` §7 for the calibration
//! rationale.
//!
//! * [`trace`] — the trace container and record format, plus time
//!   compression ("compressed" traces are time-scaled, raising offered
//!   load).
//! * [`synthetic`] — the 14 benchmark profiles and their generator.
//! * [`patterns`] — classic synthetic patterns (uniform random,
//!   transpose, bit-complement, hotspot, tornado) for unit tests and
//!   stress benches.
//! * [`splits`] — the paper's 6 train / 3 validation / 5 test partition.
//! * [`io`] — durable JSON trace files.

pub mod io;
pub mod patterns;
pub mod splits;
pub mod synthetic;
pub mod trace;

pub use splits::{BenchmarkSplit, TEST_BENCHMARKS, TRAIN_BENCHMARKS, VALIDATION_BENCHMARKS};
pub use synthetic::{Benchmark, TraceGenerator, WorkloadProfile, ALL_BENCHMARKS};
pub use trace::{Trace, TraceStats};
