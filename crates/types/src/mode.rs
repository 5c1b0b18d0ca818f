//! DVFS operating modes and router power states.
//!
//! The paper numbers its modes 1–7: mode 1 is the power-gated (inactive)
//! state, mode 2 is the wakeup (transition) state, and modes 3–7 are the
//! five active voltage/frequency pairs
//! `{0.8 V/1 GHz, 0.9 V/1.5 GHz, 1.0 V/1.8 GHz, 1.1 V/2 GHz, 1.2 V/2.25 GHz}`.
//! [`Mode`] models the active pairs; [`PowerState`] models the full state
//! machine of Fig. 2(c).

// Mode tables are exact integers; widen with `From`, never `as`.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap,
    clippy::cast_lossless
)]

use serde::{Deserialize, Serialize};

use crate::time::{ClockDivisor, SimTime};

/// The five active DVFS voltage/frequency pairs (paper modes 3–7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// 0.8 V / 1 GHz — lowest active mode (paper mode 3).
    M3,
    /// 0.9 V / 1.5 GHz (paper mode 4).
    M4,
    /// 1.0 V / 1.8 GHz (paper mode 5).
    M5,
    /// 1.1 V / 2 GHz (paper mode 6).
    M6,
    /// 1.2 V / 2.25 GHz — highest active mode (paper mode 7).
    M7,
}

/// All active modes in ascending voltage order.
pub const ACTIVE_MODES: [Mode; 5] = [Mode::M3, Mode::M4, Mode::M5, Mode::M6, Mode::M7];

impl Default for Mode {
    /// The baseline operating point: every model starts its routers at
    /// the highest mode (paper §III-B).
    fn default() -> Self {
        Mode::M7
    }
}

impl Mode {
    /// Lowest active mode (0.8 V / 1 GHz).
    pub const MIN: Mode = Mode::M3;
    /// Highest active mode (1.2 V / 2.25 GHz).
    pub const MAX: Mode = Mode::M7;

    /// Supply voltage in volts.
    #[inline]
    pub const fn voltage(self) -> f64 {
        match self {
            Mode::M3 => 0.8,
            Mode::M4 => 0.9,
            Mode::M5 => 1.0,
            Mode::M6 => 1.1,
            Mode::M7 => 1.2,
        }
    }

    /// Clock frequency in GHz.
    #[inline]
    pub const fn freq_ghz(self) -> f64 {
        match self {
            Mode::M3 => 1.0,
            Mode::M4 => 1.5,
            Mode::M5 => 1.8,
            Mode::M6 => 2.0,
            Mode::M7 => 2.25,
        }
    }

    /// Base-tick divisor: a router in this mode executes one local cycle
    /// every `divisor` ticks of the 18 GHz base clock.
    #[inline]
    pub const fn divisor(self) -> ClockDivisor {
        ClockDivisor::new(match self {
            Mode::M3 => 18, // 18 GHz / 1    GHz
            Mode::M4 => 12, // 18 GHz / 1.5  GHz
            Mode::M5 => 10, // 18 GHz / 1.8  GHz
            Mode::M6 => 9,  // 18 GHz / 2    GHz
            Mode::M7 => 8,  // 18 GHz / 2.25 GHz
        })
    }

    /// Paper mode number (3–7).
    #[inline]
    pub const fn index(self) -> u8 {
        match self {
            Mode::M3 => 3,
            Mode::M4 => 4,
            Mode::M5 => 5,
            Mode::M6 => 6,
            Mode::M7 => 7,
        }
    }

    /// Zero-based rank among active modes (0–4), handy for array indexing.
    #[inline]
    pub fn rank(self) -> usize {
        // index() is 3–7 by construction, so the subtraction cannot
        // underflow.
        usize::from(self.index() - 3)
    }

    /// Inverse of [`Mode::index`]. Returns `None` for 1 (inactive),
    /// 2 (wakeup) or out-of-range values.
    pub const fn from_index(index: u8) -> Option<Mode> {
        match index {
            3 => Some(Mode::M3),
            4 => Some(Mode::M4),
            5 => Some(Mode::M5),
            6 => Some(Mode::M6),
            7 => Some(Mode::M7),
            _ => None,
        }
    }

    /// Inverse of [`Mode::rank`].
    pub const fn from_rank(rank: usize) -> Option<Mode> {
        match rank {
            0 => Some(Mode::M3),
            1 => Some(Mode::M4),
            2 => Some(Mode::M5),
            3 => Some(Mode::M6),
            4 => Some(Mode::M7),
            _ => None,
        }
    }

    /// Next mode up, saturating at M7.
    #[inline]
    #[must_use]
    pub fn step_up(self) -> Mode {
        Mode::from_rank((self.rank() + 1).min(4)).expect("saturated rank 0–4 is always a mode")
    }

    /// Next mode down, saturating at M3.
    #[inline]
    #[must_use]
    pub fn step_down(self) -> Mode {
        Mode::from_rank(self.rank().saturating_sub(1)).expect("saturated rank 0–4 is always a mode")
    }
}

impl core::fmt::Display for Mode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "M{} ({:.1} V/{} GHz)",
            self.index(),
            self.voltage(),
            self.freq_ghz()
        )
    }
}

/// Full per-router power state machine (paper Fig. 2(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PowerState {
    /// Mode 1: supply at 0 V; the router can neither operate nor bypass
    /// packets.
    Inactive,
    /// Mode 2: charging local voltage up to the target mode's Vdd.
    /// The router consumes the target mode's full static power but is not
    /// yet functional; `until` is the absolute time at which T-Wakeup is
    /// satisfied and the router becomes `Active(target)`.
    Wakeup { target: Mode, until: SimTime },
    /// Modes 3–7: fully operational at the given V/F pair.
    Active(Mode),
}

impl PowerState {
    /// The mode whose static power the ledger charges in this state
    /// (wakeup is charged at the target mode's power; inactive draws none).
    #[inline]
    pub fn billed_mode(self) -> Option<Mode> {
        match self {
            PowerState::Inactive => None,
            PowerState::Wakeup { target, .. } => Some(target),
            PowerState::Active(m) => Some(m),
        }
    }

    /// True if the router can send, receive and bypass flits.
    #[inline]
    pub fn is_operational(self) -> bool {
        matches!(self, PowerState::Active(_))
    }

    /// True if the router is power-gated.
    #[inline]
    pub fn is_inactive(self) -> bool {
        matches!(self, PowerState::Inactive)
    }

    /// Paper mode number 1–7 for reporting.
    #[inline]
    pub fn paper_mode(self) -> u8 {
        match self {
            PowerState::Inactive => 1,
            PowerState::Wakeup { .. } => 2,
            PowerState::Active(m) => m.index(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisors_divide_base_clock_exactly() {
        for m in ACTIVE_MODES {
            let product = m.freq_ghz() * m.divisor().cycle_ticks() as f64;
            assert!(
                (product - crate::time::BASE_CLOCK_GHZ as f64).abs() < 1e-9,
                "{m:?}: {} GHz × {} != 18 GHz",
                m.freq_ghz(),
                m.divisor().cycle_ticks()
            );
        }
    }

    #[test]
    fn paper_vf_pairs() {
        assert_eq!(Mode::M3.voltage(), 0.8);
        assert_eq!(Mode::M3.freq_ghz(), 1.0);
        assert_eq!(Mode::M7.voltage(), 1.2);
        assert_eq!(Mode::M7.freq_ghz(), 2.25);
    }

    #[test]
    fn voltage_and_frequency_are_monotone() {
        for w in ACTIVE_MODES.windows(2) {
            assert!(w[0].voltage() < w[1].voltage());
            assert!(w[0].freq_ghz() < w[1].freq_ghz());
            assert!(w[0].divisor() > w[1].divisor());
        }
    }

    #[test]
    fn index_round_trips() {
        for m in ACTIVE_MODES {
            assert_eq!(Mode::from_index(m.index()), Some(m));
            assert_eq!(Mode::from_rank(m.rank()), Some(m));
        }
        assert_eq!(Mode::from_index(1), None);
        assert_eq!(Mode::from_index(2), None);
        assert_eq!(Mode::from_index(8), None);
        assert_eq!(Mode::from_rank(5), None);
    }

    #[test]
    fn step_saturates() {
        assert_eq!(Mode::M7.step_up(), Mode::M7);
        assert_eq!(Mode::M3.step_down(), Mode::M3);
        assert_eq!(Mode::M4.step_up(), Mode::M5);
        assert_eq!(Mode::M5.step_down(), Mode::M4);
    }

    #[test]
    fn power_state_billing() {
        assert_eq!(PowerState::Inactive.billed_mode(), None);
        assert_eq!(
            PowerState::Wakeup {
                target: Mode::M5,
                until: SimTime::ZERO
            }
            .billed_mode(),
            Some(Mode::M5)
        );
        assert_eq!(PowerState::Active(Mode::M7).billed_mode(), Some(Mode::M7));
    }

    #[test]
    fn power_state_reporting() {
        assert_eq!(PowerState::Inactive.paper_mode(), 1);
        assert_eq!(
            PowerState::Wakeup {
                target: Mode::M3,
                until: SimTime::ZERO
            }
            .paper_mode(),
            2
        );
        assert_eq!(PowerState::Active(Mode::M6).paper_mode(), 6);
        assert!(!PowerState::Inactive.is_operational());
        assert!(PowerState::Active(Mode::M3).is_operational());
        assert!(PowerState::Inactive.is_inactive());
    }
}
