//! Measured mode-switch latency matrix (paper Table II).
//!
//! Rows are the state being left, columns the state being entered; entries
//! are nanoseconds measured on the SIMO/LDO design. Index 0 is the
//! power-gated state (PG), indices 1–5 the five active voltages
//! 0.8 V … 1.2 V.

use serde::{Deserialize, Serialize};

use dozznoc_types::{Mode, TickDelta, ACTIVE_MODES};

/// State space of the switch-delay matrix: power-gated or an active mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegState {
    /// Power-gated (0 V).
    Gated,
    /// Active at a mode's voltage.
    At(Mode),
}

impl RegState {
    /// Matrix index (PG = 0, modes in voltage order = 1..=5).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            RegState::Gated => 0,
            RegState::At(m) => 1 + m.rank(),
        }
    }

    /// All six states in matrix order.
    pub fn all() -> [RegState; 6] {
        [
            RegState::Gated,
            RegState::At(Mode::M3),
            RegState::At(Mode::M4),
            RegState::At(Mode::M5),
            RegState::At(Mode::M6),
            RegState::At(Mode::M7),
        ]
    }
}

impl core::fmt::Display for RegState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RegState::Gated => f.write_str("PG"),
            RegState::At(m) => write!(f, "{:.1}V", m.voltage()),
        }
    }
}

/// Table II: the measured 6×6 latency matrix in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwitchDelayTable {
    ns: [[f64; 6]; 6],
}

impl Default for SwitchDelayTable {
    fn default() -> Self {
        SwitchDelayTable::paper()
    }
}

impl SwitchDelayTable {
    /// The paper's Table II, verbatim. (The published "4.3s" at
    /// 1.1 V→1.2 V and "6 3ns"/"5 4ns" entries are the obvious
    /// typographical slips for 4.3 ns, 6.3 ns and 5.4 ns.)
    pub const fn paper() -> Self {
        SwitchDelayTable {
            ns: [
                //      PG   0.8V  0.9V  1.0V  1.1V  1.2V
                /*PG */
                [0.0, 8.5, 8.7, 8.7, 8.7, 8.8],
                /*0.8*/ [8.5, 0.0, 4.2, 5.5, 6.2, 6.7],
                /*0.9*/ [8.7, 4.2, 0.0, 4.4, 5.5, 6.3],
                /*1.0*/ [8.7, 5.5, 4.4, 0.0, 4.3, 5.5],
                /*1.1*/ [8.7, 6.3, 5.4, 4.3, 0.0, 4.3],
                /*1.2*/ [8.8, 6.9, 6.3, 5.4, 4.1, 0.0],
            ],
        }
    }

    /// Measured latency of the transition `from → to` in nanoseconds.
    #[inline]
    pub fn latency_ns(&self, from: RegState, to: RegState) -> f64 {
        self.ns[from.index()][to.index()]
    }

    /// Transition latency in base ticks (rounded up).
    #[inline]
    pub fn latency(&self, from: RegState, to: RegState) -> TickDelta {
        TickDelta::from_ns_ceil(self.latency_ns(from, to))
    }

    /// Worst-case wake-up latency (PG → any voltage): the paper's 8.8 ns.
    pub fn worst_wakeup_ns(&self) -> f64 {
        ACTIVE_MODES
            .iter()
            .map(|&m| self.latency_ns(RegState::Gated, RegState::At(m)))
            .fold(0.0, f64::max)
    }

    /// Worst-case active-to-active switch latency: the paper's 6.9 ns.
    pub fn worst_switch_ns(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for &a in &ACTIVE_MODES {
            for &b in &ACTIVE_MODES {
                if a != b {
                    worst = worst.max(self.latency_ns(RegState::At(a), RegState::At(b)));
                }
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vf::{WORST_T_SWITCH_NS, WORST_T_WAKEUP_NS};

    #[test]
    fn diagonal_is_zero() {
        let t = SwitchDelayTable::paper();
        for s in RegState::all() {
            assert_eq!(t.latency_ns(s, s), 0.0);
        }
    }

    #[test]
    fn worst_cases_match_paper() {
        let t = SwitchDelayTable::paper();
        assert_eq!(t.worst_wakeup_ns(), WORST_T_WAKEUP_NS);
        assert_eq!(t.worst_switch_ns(), WORST_T_SWITCH_NS);
    }

    #[test]
    fn wakeups_are_slower_than_switches() {
        // Charging from 0 V always takes longer than stepping between
        // active voltages.
        let t = SwitchDelayTable::paper();
        let min_wakeup = ACTIVE_MODES
            .iter()
            .map(|&m| t.latency_ns(RegState::Gated, RegState::At(m)))
            .fold(f64::INFINITY, f64::min);
        assert!(min_wakeup > t.worst_switch_ns());
    }

    #[test]
    fn larger_voltage_steps_take_longer() {
        // Within each row, latency grows with the size of the step away
        // from the current voltage (in each direction separately).
        let t = SwitchDelayTable::paper();
        for (i, &a) in ACTIVE_MODES.iter().enumerate() {
            // Steps upward.
            let ups: Vec<f64> = ACTIVE_MODES[i + 1..]
                .iter()
                .map(|&b| t.latency_ns(RegState::At(a), RegState::At(b)))
                .collect();
            for w in ups.windows(2) {
                assert!(w[0] <= w[1], "upward steps from {a:?} not monotone");
            }
            // Steps downward.
            let downs: Vec<f64> = ACTIVE_MODES[..i]
                .iter()
                .rev()
                .map(|&b| t.latency_ns(RegState::At(a), RegState::At(b)))
                .collect();
            for w in downs.windows(2) {
                assert!(w[0] <= w[1], "downward steps from {a:?} not monotone");
            }
        }
    }

    #[test]
    fn tick_conversion_rounds_up() {
        let t = SwitchDelayTable::paper();
        let lat = t.latency(RegState::Gated, RegState::At(Mode::M7));
        assert!(lat.as_ns() >= 8.8);
        assert_eq!(lat.ticks(), 159); // ceil(8.8 × 18)
    }

    #[test]
    fn state_indexing() {
        for (i, s) in RegState::all().iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
