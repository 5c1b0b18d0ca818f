//! Power modelling for the DozzNoC reproduction.
//!
//! Three concerns live here:
//!
//! 1. **V/F mode parameters** ([`vf`]) — the paper's Table III: T-Switch,
//!    T-Wakeup and T-Breakeven cycle costs per operating mode.
//! 2. **The SIMO/LDO voltage regulator** ([`regulator`]) — a behavioural
//!    model of the paper's §III-C circuit: the single-inductor
//!    multiple-output converter feeding per-router low-dropout regulators.
//!    It reproduces Table I (dropout ranges), Table II (the 6×6 measured
//!    switching-latency matrix), Fig. 5 (transient waveforms) and Fig. 6
//!    (power efficiency vs. a conventional switching-regulator/LDO array).
//! 3. **Energy accounting** ([`energy`], [`dsent`]) — the DSENT-derived
//!    Table V cost model (static power and dynamic energy per mode at
//!    22 nm / 128-bit flits) and a per-router [`energy::EnergyLedger`]
//!    that the network simulator bills state residency, flit hops and ML
//!    label computations to.

#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        reason = "unit tests assert table constants and exactly-rounded arithmetic bit-for-bit"
    )
)]

pub mod dsent;
pub mod energy;
pub mod overhead;
pub mod regulator;
pub mod transition;
pub mod vf;

pub use dsent::DsentCosts;
pub use energy::{EnergyDelta, EnergyLedger, EnergyReport, RouterEnergy};
pub use overhead::MlOverhead;
pub use regulator::delay::SwitchDelayTable;
pub use regulator::efficiency::{baseline_efficiency, simo_efficiency, EfficiencyCurve};
pub use regulator::ldo::Ldo;
pub use regulator::simo::SimoRegulator;
pub use regulator::waveform::Transient;
pub use transition::TransitionEnergy;
pub use vf::{ModeTimings, VfTable};
