//! Foundational types shared by every crate in the DozzNoC reproduction.
//!
//! The crate is deliberately dependency-light: it defines the simulation
//! time base, the DVFS operating modes (the paper's modes 1–7), strongly
//! typed identifiers, and the packet/flit representation used by the
//! cycle-accurate simulator.
//!
//! # Time base
//!
//! DozzNoC routers run in one of five voltage/frequency pairs
//! (1, 1.5, 1.8, 2 and 2.25 GHz). All five frequencies divide 18 GHz
//! evenly, so the simulator advances a global *tick* counter at a virtual
//! 18 GHz base clock and each router executes one pipeline cycle every
//! `divisor` ticks (18, 12, 10, 9 or 8). This makes per-router DVFS exact:
//! there is no fractional-cycle rounding anywhere in the simulator.

#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        reason = "unit tests assert table constants and exactly-rounded arithmetic bit-for-bit"
    )
)]

pub mod error;
pub mod events;
pub mod flit;
pub mod ids;
pub mod mode;
pub mod time;

pub use error::{ConfigError, MIN_EPOCH_CYCLES};
pub use events::{TransitionEvent, TransitionKind};
pub use flit::{Flit, FlitKind, Packet, PacketId, PacketKind};
pub use ids::{CoreId, RouterId, VcId};
pub use mode::{Mode, PowerState, ACTIVE_MODES};
pub use time::{ClockDivisor, DomainCycles, SimTime, TickDelta, BASE_CLOCK_GHZ, TICKS_PER_NS};
