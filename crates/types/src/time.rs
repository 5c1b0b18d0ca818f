//! Simulation time base.
//!
//! One tick is 1/18 ns ≈ 55.56 ps (a virtual 18 GHz base clock). Every
//! DozzNoC operating frequency divides the base clock evenly, which lets the
//! simulator model heterogeneous per-router clock domains exactly.

// Tick math is exact integer arithmetic; the one float→tick conversion
// below carries the only allowed lossy cast.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap,
    clippy::cast_lossless
)]

use serde::{Deserialize, Serialize};

/// Frequency of the virtual base clock in GHz. All V/F modes divide it.
pub const BASE_CLOCK_GHZ: u64 = 18;

/// Number of base ticks per nanosecond (identical to [`BASE_CLOCK_GHZ`]).
pub const TICKS_PER_NS: u64 = BASE_CLOCK_GHZ;

/// The single authorized float→tick conversion: saturates at the
/// representable range instead of relying on an unchecked truncating
/// cast, and rejects NaN / negative inputs under debug assertions.
/// All other tick math stays in integer arithmetic (the cast lints
/// denied at the top of this module reject further lossy `as` casts).
#[inline]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "saturating by construction"
)]
fn ticks_from_f64_saturating(ticks: f64) -> u64 {
    debug_assert!(!ticks.is_nan(), "tick count is NaN");
    debug_assert!(ticks >= 0.0, "negative tick count {ticks}");
    // f64→u64 `as` casts saturate (NaN maps to 0), which is exactly the
    // release-mode fallback wanted here.
    ticks as u64
}

/// An absolute point in simulated time, measured in base ticks.
///
/// `SimTime` is a transparent `u64` newtype: arithmetic that could make
/// sense on absolute times (difference, offsetting by a delta) is provided
/// explicitly; accidental addition of two absolute times does not compile.
///
/// The inner field is sealed: outside this module the only way in is
/// [`SimTime::from_ticks`]/[`SimTime::from_ns_ceil`] and the only way
/// out is [`SimTime::ticks`]; field privacy keeps raw-`u64` escapes
/// from creeping back in.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

/// A span of simulated time in base ticks. Sealed like [`SimTime`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct TickDelta(u64);

/// A count of *local* clock cycles in one router's clock domain.
///
/// Every V/F mode runs at an integer divisor of the 18 GHz base clock, so
/// a cycle count only has a duration once paired with that divisor.
/// Keeping cycle counts in their own newtype makes the pairing explicit:
/// the only tick↔cycle bridges are [`DomainCycles::to_ticks`] and
/// [`DomainCycles::from_ticks_ceil`], both of which take the domain's
/// [`ClockDivisor`]. The divisor has no arithmetic, so ad-hoc
/// `cycles * divisor` products do not compile.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct DomainCycles(u64);

/// A clock domain's base-tick divisor: the domain executes one local
/// cycle every `divisor` ticks of the 18 GHz base clock
/// (`Mode::divisor()`).
///
/// It converts cycles to ticks only through [`DomainCycles::to_ticks`],
/// [`DomainCycles::from_ticks_ceil`] and [`TickDelta::as_cycles_ceil`];
/// [`ClockDivisor::cycle_ticks`] names the length of one cycle. It has
/// no arithmetic of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClockDivisor(u64);

impl ClockDivisor {
    /// A domain that fires every `ticks_per_cycle` base ticks.
    #[inline]
    pub(crate) const fn new(ticks_per_cycle: u64) -> Self {
        ClockDivisor(ticks_per_cycle)
    }

    /// Length of one local cycle in base ticks.
    #[inline]
    pub const fn cycle_ticks(self) -> u64 {
        self.0
    }
}

impl DomainCycles {
    /// Zero cycles.
    pub const ZERO: DomainCycles = DomainCycles(0);

    /// Construct from a raw cycle count.
    #[inline]
    pub const fn new(count: u64) -> Self {
        DomainCycles(count)
    }

    /// Raw cycle count.
    #[inline]
    pub const fn count(self) -> u64 {
        self.0
    }

    /// Duration of this many local cycles under the given base-tick
    /// divisor (`Mode::divisor()`): exactly `count × divisor` ticks.
    /// Overflow follows the tick-math policy (debug builds panic,
    /// release builds saturate — see [`TickDelta`]'s `Add`).
    #[inline]
    pub const fn to_ticks(self, divisor: ClockDivisor) -> TickDelta {
        debug_assert!(
            self.0.checked_mul(divisor.0).is_some(),
            "DomainCycles→ticks overflow"
        );
        TickDelta(self.0.saturating_mul(divisor.0))
    }

    /// Local cycles needed to cover `delta` under the given divisor,
    /// rounding up (a partial cycle still occupies the domain for a whole
    /// cycle). A zero divisor is a caller bug (no V/F mode has one);
    /// debug builds reject it, release builds clamp to 1.
    #[inline]
    pub fn from_ticks_ceil(delta: TickDelta, divisor: ClockDivisor) -> Self {
        debug_assert!(divisor.0 > 0, "zero clock divisor");
        DomainCycles(delta.0.div_ceil(divisor.0.max(1)))
    }
}

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from a raw tick count.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Construct from nanoseconds, rounding *up* so that delays derived
    /// from measured regulator latencies are never optimistic. Saturates
    /// at `u64::MAX` ticks; debug builds reject NaN and negative inputs.
    #[inline]
    pub fn from_ns_ceil(ns: f64) -> Self {
        SimTime(ticks_from_f64_saturating((ns * TICKS_PER_NS as f64).ceil()))
    }

    /// Raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Time in nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / TICKS_PER_NS as f64
    }

    /// Time in seconds (used by the energy ledger: J = W × s).
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.as_ns() * 1e-9
    }

    /// Absolute difference between two times.
    #[inline]
    pub fn delta(self, other: SimTime) -> TickDelta {
        TickDelta(self.0.abs_diff(other.0))
    }

    /// Elapsed time since `earlier`. Panics in debug builds if `earlier`
    /// is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> TickDelta {
        debug_assert!(earlier.0 <= self.0, "since() called with a future time");
        TickDelta(self.0 - earlier.0)
    }

    /// This time advanced by `delta`.
    ///
    /// Overflow policy (shared by every tick-math operation in this
    /// module): overflow is a simulation bug — 2⁶⁴ ticks ≈ 32 years of
    /// simulated time — so debug builds panic at the offending site,
    /// while release builds deliberately *saturate* at `u64::MAX` so
    /// time can never wrap backwards and violate event-heap causality.
    /// The saturated value pins the clock at the end of representable
    /// time, which the schedule loop treats as "past `max_ticks`".
    #[inline]
    #[must_use]
    pub fn after(self, delta: TickDelta) -> SimTime {
        debug_assert!(
            self.0.checked_add(delta.0).is_some(),
            "SimTime overflow: {} + {} (release builds saturate here)",
            self.0,
            delta.0
        );
        SimTime(self.0.saturating_add(delta.0))
    }
}

impl TickDelta {
    /// The empty span.
    pub const ZERO: TickDelta = TickDelta(0);

    /// Construct from a raw tick count.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        TickDelta(ticks)
    }

    /// Construct from nanoseconds, rounding up (pessimistic for delays).
    /// Saturates at `u64::MAX` ticks; debug builds reject NaN and
    /// negative inputs.
    #[inline]
    pub fn from_ns_ceil(ns: f64) -> Self {
        TickDelta(ticks_from_f64_saturating((ns * TICKS_PER_NS as f64).ceil()))
    }

    /// Span expressed as local cycles of a clock with the given tick
    /// divisor, rounding up. Convenience wrapper over
    /// [`DomainCycles::from_ticks_ceil`]; see there for the zero-divisor
    /// policy.
    #[inline]
    pub fn as_cycles_ceil(self, divisor: ClockDivisor) -> u64 {
        DomainCycles::from_ticks_ceil(self, divisor).count()
    }

    /// Raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Span in nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / TICKS_PER_NS as f64
    }

    /// Span in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.as_ns() * 1e-9
    }

    /// Saturating subtraction of two spans.
    #[inline]
    #[must_use]
    pub fn saturating_sub(self, other: TickDelta) -> TickDelta {
        TickDelta(self.0.saturating_sub(other.0))
    }
}

impl core::ops::Add<TickDelta> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: TickDelta) -> SimTime {
        self.after(rhs)
    }
}

impl core::ops::Add for TickDelta {
    type Output = TickDelta;
    /// Sum of two spans. Follows the module-wide overflow policy
    /// documented on [`SimTime::after`]: debug builds panic, release
    /// builds saturate at `u64::MAX` (never wrap).
    #[inline]
    fn add(self, rhs: TickDelta) -> TickDelta {
        debug_assert!(
            self.0.checked_add(rhs.0).is_some(),
            "TickDelta overflow: {} + {} (release builds saturate here)",
            self.0,
            rhs.0
        );
        TickDelta(self.0.saturating_add(rhs.0))
    }
}

impl core::ops::AddAssign for TickDelta {
    #[inline]
    fn add_assign(&mut self, rhs: TickDelta) {
        *self = *self + rhs;
    }
}

impl core::ops::Mul<u64> for TickDelta {
    type Output = TickDelta;
    /// Span scaled by an integer factor. Follows the module-wide
    /// overflow policy documented on [`SimTime::after`]: debug builds
    /// panic, release builds saturate at `u64::MAX` (never wrap).
    #[inline]
    fn mul(self, rhs: u64) -> TickDelta {
        debug_assert!(
            self.0.checked_mul(rhs).is_some(),
            "TickDelta overflow: {} × {rhs} (release builds saturate here)",
            self.0
        );
        TickDelta(self.0.saturating_mul(rhs))
    }
}

impl core::fmt::Display for SimTime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.3} ns", self.as_ns())
    }
}

impl core::fmt::Display for TickDelta {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.3} ns", self.as_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_ns_round_trip() {
        let t = SimTime::from_ticks(18);
        assert!((t.as_ns() - 1.0).abs() < 1e-12);
        assert_eq!(SimTime::from_ns_ceil(1.0), SimTime::from_ticks(18));
    }

    #[test]
    fn from_ns_rounds_up() {
        // 8.8 ns (worst-case T-Wakeup) must not be truncated down.
        let t = TickDelta::from_ns_ceil(8.8);
        assert_eq!(t.ticks(), 159); // 8.8 * 18 = 158.4 → 159
        assert!(t.as_ns() >= 8.8);
    }

    #[test]
    fn delta_is_symmetric() {
        let a = SimTime::from_ticks(10);
        let b = SimTime::from_ticks(25);
        assert_eq!(a.delta(b), b.delta(a));
        assert_eq!(a.delta(b).ticks(), 15);
    }

    #[test]
    fn since_and_after_are_inverses() {
        let a = SimTime::from_ticks(100);
        let d = TickDelta::from_ticks(42);
        assert_eq!(a.after(d).since(a), d);
    }

    #[test]
    fn cycles_ceil() {
        // 159 ticks at divisor 18 (1 GHz) = 9 local cycles, rounded up.
        assert_eq!(
            TickDelta::from_ticks(159).as_cycles_ceil(ClockDivisor(18)),
            9
        );
        assert_eq!(
            TickDelta::from_ticks(160).as_cycles_ceil(ClockDivisor(8)),
            20
        );
        assert_eq!(TickDelta::ZERO.as_cycles_ceil(ClockDivisor(18)), 0);
    }

    #[test]
    fn from_ns_ceil_saturates_at_range_end() {
        // Out-of-range inputs clamp to the last representable tick
        // instead of wrapping through an unchecked cast.
        assert_eq!(SimTime::from_ns_ceil(f64::INFINITY).ticks(), u64::MAX);
        assert_eq!(TickDelta::from_ns_ceil(1e300).ticks(), u64::MAX);
    }

    #[test]
    fn zero_divisor_is_rejected_or_clamped() {
        if cfg!(debug_assertions) {
            let r = std::panic::catch_unwind(|| {
                TickDelta::from_ticks(5).as_cycles_ceil(ClockDivisor(0))
            });
            assert!(r.is_err(), "debug build must reject a zero divisor");
        } else {
            // Release builds clamp to divisor 1 instead of faulting.
            assert_eq!(TickDelta::from_ticks(5).as_cycles_ceil(ClockDivisor(0)), 5);
        }
    }

    /// The Add/Mul overflow policy is the same in both build profiles:
    /// debug panics at the offending site, release saturates at
    /// `u64::MAX` instead of wrapping time backwards. This test runs in
    /// both profiles (CI runs the workspace tests in release too), so
    /// each branch is exercised somewhere.
    #[test]
    fn overflow_policy_panics_in_debug_saturates_in_release() {
        let near_max = TickDelta::from_ticks(u64::MAX - 1);
        let two = TickDelta::from_ticks(2);
        if cfg!(debug_assertions) {
            let ops: [Box<dyn Fn() -> TickDelta>; 4] = [
                Box::new(move || near_max + two),
                Box::new(move || near_max * 3),
                Box::new(move || (SimTime::from_ticks(u64::MAX - 1) + two).delta(SimTime::ZERO)),
                Box::new(|| DomainCycles::new(u64::MAX).to_ticks(ClockDivisor(2))),
            ];
            for op in ops {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(op));
                assert!(r.is_err(), "debug build must panic on tick overflow");
            }
        } else {
            assert_eq!((near_max + two).ticks(), u64::MAX);
            assert_eq!((near_max * 3).ticks(), u64::MAX);
            assert_eq!(
                (SimTime::from_ticks(u64::MAX - 1) + two).ticks(),
                u64::MAX,
                "release build must saturate, not wrap"
            );
            assert_eq!(
                DomainCycles::new(u64::MAX)
                    .to_ticks(ClockDivisor(2))
                    .ticks(),
                u64::MAX
            );
        }
    }

    #[test]
    fn domain_cycles_round_trip() {
        // 9 cycles of a divisor-18 (1 GHz) domain last 162 base ticks.
        let c = DomainCycles::new(9);
        assert_eq!(c.to_ticks(ClockDivisor(18)), TickDelta::from_ticks(162));
        assert_eq!(
            DomainCycles::from_ticks_ceil(c.to_ticks(ClockDivisor(18)), ClockDivisor(18)),
            c
        );
        // A partial trailing cycle rounds up.
        let d = TickDelta::from_ticks(163);
        assert_eq!(
            DomainCycles::from_ticks_ceil(d, ClockDivisor(18)).count(),
            10
        );
        assert_eq!(
            DomainCycles::ZERO.to_ticks(ClockDivisor(18)),
            TickDelta::ZERO
        );
    }

    #[test]
    fn seconds_conversion() {
        let one_ms = SimTime::from_ticks(TICKS_PER_NS * 1_000_000);
        assert!((one_ms.as_secs() - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn arithmetic_ops() {
        let mut d = TickDelta::from_ticks(5);
        d += TickDelta::from_ticks(3);
        assert_eq!(d.ticks(), 8);
        assert_eq!((d * 2).ticks(), 16);
        assert_eq!(
            d.saturating_sub(TickDelta::from_ticks(100)),
            TickDelta::ZERO
        );
        assert_eq!(
            (SimTime::from_ticks(1) + TickDelta::from_ticks(2)).ticks(),
            3
        );
    }
}
