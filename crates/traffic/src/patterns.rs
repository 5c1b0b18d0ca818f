//! Classic synthetic traffic patterns.
//!
//! These are not part of the paper's evaluation (which uses benchmark
//! traces) but are the standard instruments for unit-testing and
//! stress-benchmarking a NoC simulator: uniform random, transpose,
//! bit-complement, hotspot and tornado.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use dozznoc_topology::Topology;
use dozznoc_types::{CoreId, Packet, PacketId, PacketKind, SimTime};

use crate::trace::Trace;

/// The classic destination functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pattern {
    /// Destination uniformly random over all other cores.
    UniformRandom,
    /// Core (x, y) sends to core (y, x) — requires a square core grid.
    Transpose,
    /// Core `i` sends to core `!i` (bitwise complement within the id
    /// space).
    BitComplement,
    /// A fraction of traffic converges on one hot core; the rest is
    /// uniform.
    Hotspot {
        /// The hot destination.
        hot: CoreId,
        /// Fraction (0–1, in percent to stay `Eq`) of packets that target
        /// the hot core.
        percent: u8,
    },
    /// Core (x, y) sends halfway around the ring in x (tornado).
    Tornado,
}

impl Pattern {
    /// Destination core for a packet injected by `src`, given `rng` for
    /// the randomized patterns. Returns `None` when the pattern maps the
    /// source onto itself (those injections are skipped).
    pub fn destination(&self, src: CoreId, topo: &Topology, rng: &mut SmallRng) -> Option<CoreId> {
        let n = topo.num_cores();
        let dst = match self {
            Pattern::UniformRandom => {
                // Uniform over the other n−1 cores, skip-free.
                let mut d = rng.gen_range(0..n - 1);
                if d >= src.idx() {
                    d += 1;
                }
                CoreId::from(d)
            }
            Pattern::Transpose => {
                let side = n.isqrt();
                debug_assert_eq!(side * side, n, "transpose needs a square core count");
                let (x, y) = (src.idx() % side, src.idx() / side);
                CoreId::from(x * side + y)
            }
            Pattern::BitComplement => CoreId::from(!src.idx() & (n - 1)),
            Pattern::Hotspot { hot, percent } => {
                if rng.gen_range(0..100) < *percent && *hot != src {
                    *hot
                } else {
                    let mut d = rng.gen_range(0..n - 1);
                    if d >= src.idx() {
                        d += 1;
                    }
                    CoreId::from(d)
                }
            }
            Pattern::Tornado => {
                let side = n.isqrt();
                let (x, y) = (src.idx() % side, src.idx() / side);
                let dx = (x + side / 2) % side;
                CoreId::from(y * side + dx)
            }
        };
        (dst != src).then_some(dst)
    }
}

/// Generate a Bernoulli-injection trace: every core flips a coin each
/// nanosecond slot with probability `rate` (packets per core per ns).
pub fn generate(
    pattern: Pattern,
    topo: &Topology,
    rate: f64,
    duration_ns: u64,
    seed: u64,
) -> Trace {
    assert!((0.0..=1.0).contains(&rate), "rate is a per-ns probability");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut packets = Vec::new();
    for t_ns in 0..duration_ns {
        for core in 0..topo.num_cores() {
            if rng.gen_bool(rate) {
                let src = CoreId::from(core);
                if let Some(dst) = pattern.destination(src, topo, &mut rng) {
                    let kind = if rng.gen_bool(0.5) {
                        PacketKind::Request
                    } else {
                        PacketKind::Response
                    };
                    packets.push(Packet {
                        id: PacketId(0),
                        src,
                        dst,
                        kind,
                        inject_time: SimTime::from_ns_ceil(t_ns as f64),
                    });
                }
            }
        }
    }
    Trace::new(format!("{pattern:?}"), topo.num_cores(), packets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn transpose_is_an_involution() {
        let topo = Topology::mesh8x8();
        let mut r = rng();
        for c in topo.cores() {
            if let Some(d) = Pattern::Transpose.destination(c, &topo, &mut r) {
                let back = Pattern::Transpose.destination(d, &topo, &mut r).unwrap();
                assert_eq!(back, c);
            }
        }
    }

    #[test]
    fn transpose_fixes_diagonal() {
        let topo = Topology::mesh8x8();
        let mut r = rng();
        // Core (k, k) maps to itself → skipped.
        for k in 0..8 {
            let c = CoreId::from(k * 8 + k);
            assert_eq!(Pattern::Transpose.destination(c, &topo, &mut r), None);
        }
    }

    #[test]
    fn bit_complement_is_an_involution() {
        let topo = Topology::mesh8x8();
        let mut r = rng();
        for c in topo.cores() {
            let d = Pattern::BitComplement
                .destination(c, &topo, &mut r)
                .unwrap();
            assert_ne!(d, c);
            let back = Pattern::BitComplement
                .destination(d, &topo, &mut r)
                .unwrap();
            assert_eq!(back, c);
        }
    }

    #[test]
    fn uniform_never_self_addresses() {
        let topo = Topology::cmesh4x4();
        let mut r = rng();
        for _ in 0..1000 {
            let src = CoreId(5);
            let d = Pattern::UniformRandom
                .destination(src, &topo, &mut r)
                .unwrap();
            assert_ne!(d, src);
            assert!(d.idx() < topo.num_cores());
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let topo = Topology::mesh8x8();
        let hot = CoreId(27);
        let p = Pattern::Hotspot { hot, percent: 60 };
        let mut r = rng();
        let mut hits = 0;
        let trials = 2000;
        for _ in 0..trials {
            if p.destination(CoreId(3), &topo, &mut r) == Some(hot) {
                hits += 1;
            }
        }
        let frac = hits as f64 / trials as f64;
        assert!((0.5..0.72).contains(&frac), "hotspot fraction {frac}");
    }

    #[test]
    fn tornado_moves_half_the_ring() {
        let topo = Topology::mesh8x8();
        let mut r = rng();
        let src = CoreId(2); // (2, 0)
        let d = Pattern::Tornado.destination(src, &topo, &mut r).unwrap();
        assert_eq!(d, CoreId(6)); // (6, 0)
    }

    #[test]
    fn generate_respects_rate_and_duration() {
        let topo = Topology::mesh8x8();
        let t = generate(Pattern::UniformRandom, &topo, 0.02, 1000, 42);
        // Expectation: 64 cores × 1000 ns × 0.02 = 1280 packets; allow wide
        // stochastic slack.
        assert!((900..1700).contains(&t.len()), "{}", t.len());
        assert!(t.horizon().as_ns() <= 1000.0);
        // Determinism: same seed, same trace.
        let t2 = generate(Pattern::UniformRandom, &topo, 0.02, 1000, 42);
        assert_eq!(t, t2);
        // Different seed, different trace.
        let t3 = generate(Pattern::UniformRandom, &topo, 0.02, 1000, 43);
        assert_ne!(t, t3);
    }

    #[test]
    fn generated_traces_mix_requests_and_responses() {
        let topo = Topology::cmesh4x4();
        let t = generate(Pattern::UniformRandom, &topo, 0.05, 500, 1);
        let s = t.stats();
        assert!(s.requests > 0);
        assert!(s.responses > 0);
    }
}
