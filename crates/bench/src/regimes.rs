//! Load-regime trace fixtures for the repository benchmark (`dozz-bench`).
//!
//! The benchmark's simulator workloads do not use the paper's
//! benchmark traces — those are calibrated for *energy* realism, not
//! for stressing the simulator. Instead they run synthetic load
//! regimes chosen to pin distinct hot paths, mirroring the
//! hot/pressure/thrash regime matrix of the simpledb exemplar:
//!
//! * **light** — low uniform-random load. Routers are mostly empty, so
//!   the event heap, empty-router skip and power-gating bookkeeping
//!   dominate; this is the regime where per-event overhead shows.
//! * **saturation** — uniform-random load near the injection rate where
//!   offered traffic saturates XY routing on an 8×8 mesh. Switch
//!   allocation, VC arbitration and credit stalls dominate.
//! * **pathological-hotspot** — a large fraction of all packets
//!   converge on one core. Tree-shaped congestion around the hot
//!   router: worst-case queueing depth and backpressure propagation.
//!
//! Fixtures are deterministic (seeded) and topology-generic, so the
//! same regime runs on `mesh8x8` and `cmesh4x4` produce comparable
//! work. `dozz-bench` builds its simulator workloads' traces from here.

use dozznoc_topology::Topology;
use dozznoc_traffic::patterns::{self, Pattern};
use dozznoc_traffic::Trace;
use dozznoc_types::CoreId;

/// One load regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    /// Low uniform load: event-scheduling overhead dominates.
    Light,
    /// Near-saturation uniform load: allocation/arbitration dominates.
    Saturation,
    /// Heavy convergence on one core: worst-case congestion.
    Hotspot,
}

/// All regimes, in declaration order.
pub const ALL_REGIMES: [Regime; 3] = [Regime::Light, Regime::Saturation, Regime::Hotspot];

impl Regime {
    /// Stable, filename-safe regime name (the bench schema key).
    pub fn name(self) -> &'static str {
        match self {
            Regime::Light => "light",
            Regime::Saturation => "saturation",
            Regime::Hotspot => "pathological-hotspot",
        }
    }

    /// Parse a regime name as emitted by [`Regime::name`].
    pub fn parse(s: &str) -> Option<Regime> {
        ALL_REGIMES.into_iter().find(|r| r.name() == s)
    }

    /// Injection probability per core per nanosecond slot.
    ///
    /// Calibration: the 8×8 mesh under uniform random XY saturates
    /// around 0.10–0.15 packets/core/ns at the paper's link/VC
    /// configuration; light sits far below that knee, saturation just
    /// past it, and the hotspot regime offers moderate aggregate load
    /// whose *spatial* concentration does the damage.
    pub fn injection_rate(self) -> f64 {
        match self {
            Regime::Light => 0.015,
            Regime::Saturation => 0.12,
            Regime::Hotspot => 0.05,
        }
    }

    /// The destination pattern the regime injects on `topo`.
    pub fn pattern(self, topo: &Topology) -> Pattern {
        match self {
            Regime::Light | Regime::Saturation => Pattern::UniformRandom,
            Regime::Hotspot => Pattern::Hotspot {
                // Centre-ish core: maximally shielded by surrounding
                // traffic, so congestion trees span the whole mesh.
                hot: CoreId::from(topo.num_cores() / 2),
                percent: 40,
            },
        }
    }
}

impl std::fmt::Display for Regime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Build one deterministic regime trace. The name encodes regime and
/// seed (`light-s3`) so the run cache and result rows stay
/// distinguishable across the seed sweep.
pub fn regime_trace(regime: Regime, topo: &Topology, duration_ns: u64, seed: u64) -> Trace {
    let trace = patterns::generate(
        regime.pattern(topo),
        topo,
        regime.injection_rate(),
        duration_ns,
        // Decorrelate the regimes: the same seed must not produce the
        // same injection coin-flips in every regime.
        seed ^ (regime as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    Trace::new(
        format!("{}-s{seed}", regime.name()),
        topo.num_cores(),
        trace.packets().to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dozznoc_topology::Topology;

    #[test]
    fn names_round_trip() {
        for r in ALL_REGIMES {
            assert_eq!(Regime::parse(r.name()), Some(r));
        }
        assert_eq!(Regime::parse("no-such-regime"), None);
    }

    #[test]
    fn traces_are_deterministic_and_named() {
        let topo = Topology::mesh8x8();
        let a = regime_trace(Regime::Light, &topo, 1_000, 7);
        let b = regime_trace(Regime::Light, &topo, 1_000, 7);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.name, "light-s7");
        assert!(!a.is_empty());
    }

    #[test]
    fn seeds_and_regimes_decorrelate() {
        let topo = Topology::mesh8x8();
        let base = regime_trace(Regime::Light, &topo, 1_000, 0);
        assert_ne!(
            base.digest(),
            regime_trace(Regime::Light, &topo, 1_000, 1).digest()
        );
        assert_ne!(
            base.digest(),
            regime_trace(Regime::Saturation, &topo, 1_000, 0).digest()
        );
    }

    #[test]
    fn saturation_offers_much_more_load_than_light() {
        let topo = Topology::mesh8x8();
        let light = regime_trace(Regime::Light, &topo, 2_000, 0);
        let sat = regime_trace(Regime::Saturation, &topo, 2_000, 0);
        assert!(
            sat.len() > 4 * light.len(),
            "saturation {} vs light {}",
            sat.len(),
            light.len()
        );
    }

    #[test]
    fn hotspot_concentrates_destinations() {
        let topo = Topology::mesh8x8();
        let t = regime_trace(Regime::Hotspot, &topo, 2_000, 0);
        let hot = CoreId::from(topo.num_cores() / 2);
        let on_hot = t.packets().iter().filter(|p| p.dst == hot).count();
        let frac = on_hot as f64 / t.len() as f64;
        assert!((0.3..0.55).contains(&frac), "hotspot fraction {frac}");
    }

    #[test]
    fn regimes_build_on_cmesh_too() {
        let topo = Topology::cmesh4x4();
        for r in ALL_REGIMES {
            let t = regime_trace(r, &topo, 1_000, 0);
            assert!(!t.is_empty(), "{r}");
        }
    }
}
