//! Cycle-accurate, multi-clock-domain NoC simulator.
//!
//! This is the substrate the DozzNoC policies run on: an input-buffered
//! wormhole network with virtual channels, credit-style backpressure, XY
//! dimension-order look-ahead routing, and — the part that makes DozzNoC
//! simulable — **per-router clock domains and power states**.
//!
//! Time advances in ticks of a virtual 18 GHz base clock
//! ([`dozznoc_types::time`]); a router in mode *m* executes one pipeline
//! cycle every `m.divisor()` ticks. A hop is performed by the *upstream*
//! router during its own cycle, so hop latency is governed by the sender's
//! frequency exactly as §III-A describes.
//!
//! Power-state mechanics are structural (identical for every policy):
//!
//! * a router may gate off only when idle ≥ T-Idle cycles, IBU = 0 and it
//!   is not secured as a downstream router (paper Fig. 3(a));
//! * look-ahead routing secures/wakes the downstream router of every
//!   packet, making gating *partially non-blocking*;
//! * wake-ups pay T-Wakeup (Table III), mode switches pay T-Switch, and
//!   off-residencies shorter than T-Breakeven are counted as violations;
//! * residency, flit-hops and ML labels are billed to a
//!   [`dozznoc_power::EnergyLedger`].
//!
//! *Policies* (what DozzNoC actually contributes) plug in through the
//! [`PowerPolicy`] trait and are implemented in `dozznoc-core`.

#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        reason = "unit tests assert table constants and exactly-rounded arithmetic bit-for-bit"
    )
)]

pub mod buffer;
pub mod config;
mod event_queue;
pub mod histogram;
pub mod network;
pub mod observation;
pub mod policy;
pub mod router;
pub mod sanitizer;
pub mod stats;
pub mod telemetry;

pub use config::NocConfig;
pub use histogram::LatencyHistogram;
pub use network::Network;
pub use observation::{EpochObservation, PortClassStats};
pub use policy::{AlwaysMode, PowerPolicy};
pub use sanitizer::{InvariantViolation, SanitizerReport, SimSanitizer, ViolationKind};
pub use stats::{RouterSummary, RunReport, RunStats, REPORT_FORMAT_VERSION};
pub use telemetry::{DecisionTrace, EpochSample, NullSink, Telemetry, TimelineSink};
