//! The Markov-modulated on/off trace generator.
//!
//! Every core runs a two-state (ON burst / OFF idle) Markov chain
//! advanced in 1 ns slots. While ON it injects packets as a Bernoulli
//! process whose rate is modulated by the benchmark's phase schedule.
//! Destinations mix a 2-hop-local neighbourhood, a per-benchmark hotspot
//! core, and a uniform remainder. Requests probabilistically spawn
//! responses from their destination after a service delay — so traces
//! contain both record kinds, as the paper's do.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dozznoc_topology::Topology;
use dozznoc_types::{CoreId, Packet, PacketId, PacketKind, SimTime};

use crate::trace::Trace;

use super::profiles::Benchmark;

/// Service delay bounds for a response to a request, nanoseconds
/// (models L2/directory lookup at the destination).
const RESPONSE_DELAY_NS: core::ops::Range<u64> = 15..60;

/// Trace generator bound to a topology and horizon.
#[derive(Debug, Clone, Copy)]
pub struct TraceGenerator {
    topo: Topology,
    duration_ns: u64,
    seed: u64,
}

impl TraceGenerator {
    /// Default trace horizon: 50 µs of injection (several hundred
    /// 500-cycle epochs at every V/F mode).
    pub const DEFAULT_DURATION_NS: u64 = 50_000;

    /// A generator for `topo` with the default horizon and seed 0.
    pub fn new(topo: Topology) -> Self {
        TraceGenerator {
            topo,
            duration_ns: Self::DEFAULT_DURATION_NS,
            seed: 0,
        }
    }

    /// Override the injection horizon (nanoseconds).
    #[must_use]
    pub fn with_duration_ns(mut self, duration_ns: u64) -> Self {
        assert!(duration_ns > 0);
        self.duration_ns = duration_ns;
        self
    }

    /// Override the user seed (combined with the per-benchmark seed).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The topology traces are generated for.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Generate the trace of one benchmark.
    pub fn generate(&self, bench: Benchmark) -> Trace {
        let profile = bench.profile();
        let n_cores = self.topo.num_cores();
        let mut rng = SmallRng::seed_from_u64(bench.seed() ^ self.seed);

        // Hotspot core: stable per benchmark, away from core 0 so the
        // corner router is not always the hot one.
        let hot = CoreId::from(rng.gen_range(0..n_cores));

        // Precompute each core's 2-hop neighbourhood (in core id space).
        let neighbourhoods: Vec<Vec<CoreId>> = (0..n_cores)
            .map(|c| {
                let src = CoreId::from(c);
                let home = self.topo.router_of_core(src);
                self.topo
                    .cores()
                    .filter(|&d| {
                        d != src && self.topo.hop_distance(home, self.topo.router_of_core(d)) <= 2
                    })
                    .collect()
            })
            .collect();

        // Per-core Markov state: ON (true) / OFF, staggered start.
        let mut on: Vec<bool> = (0..n_cores).map(|_| rng.gen_bool(0.3)).collect();
        let p_off_to_on = 1.0 / profile.idle_ns;
        let p_on_to_off = 1.0 / profile.burst_ns;

        let mut packets = Vec::new();
        for t_ns in 0..self.duration_ns {
            #[allow(
                clippy::cast_possible_truncation,
                reason = "a non-negative count of whole phases, far below usize::MAX; `as` floors it"
            )]
            let phase_idx = (t_ns as f64 / profile.phase_ns) as usize % profile.phases.len();
            let rate = (profile.on_rate * profile.phases[phase_idx]).min(1.0);
            for core in 0..n_cores {
                // Advance the Markov chain one slot.
                if on[core] {
                    if rng.gen_bool(p_on_to_off.min(1.0)) {
                        on[core] = false;
                        continue;
                    }
                } else {
                    if rng.gen_bool(p_off_to_on.min(1.0)) {
                        on[core] = true;
                    }
                    continue;
                }
                if !rng.gen_bool(rate) {
                    continue;
                }
                let src = CoreId::from(core);
                let dst =
                    self.pick_destination(src, hot, &neighbourhoods[core], &profile, &mut rng);
                let Some(dst) = dst else { continue };
                packets.push(Packet {
                    id: PacketId(0),
                    src,
                    dst,
                    kind: PacketKind::Request,
                    inject_time: SimTime::from_ns_ceil(t_ns as f64),
                });
                // The destination may answer with a data response.
                if rng.gen_bool(profile.response_prob) {
                    let delay = rng.gen_range(RESPONSE_DELAY_NS);
                    packets.push(Packet {
                        id: PacketId(0),
                        src: dst,
                        dst: src,
                        kind: PacketKind::Response,
                        inject_time: SimTime::from_ns_ceil((t_ns + delay) as f64),
                    });
                }
            }
        }
        Trace::new(profile.name, n_cores, packets)
    }

    /// Generate all of a slice of benchmarks (convenience for campaigns).
    pub fn generate_all(&self, benches: &[Benchmark]) -> Vec<Trace> {
        benches.iter().map(|&b| self.generate(b)).collect()
    }

    fn pick_destination(
        &self,
        src: CoreId,
        hot: CoreId,
        neighbourhood: &[CoreId],
        profile: &super::profiles::WorkloadProfile,
        rng: &mut SmallRng,
    ) -> Option<CoreId> {
        let n = self.topo.num_cores();
        let roll: f64 = rng.gen();
        if roll < profile.hotspot && hot != src {
            return Some(hot);
        }
        if roll < profile.hotspot + profile.locality && !neighbourhood.is_empty() {
            return Some(neighbourhood[rng.gen_range(0..neighbourhood.len())]);
        }
        // Uniform over the other cores.
        let mut d = rng.gen_range(0..n - 1);
        if d >= src.idx() {
            d += 1;
        }
        Some(CoreId::from(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::profiles::ALL_BENCHMARKS;
    use dozznoc_types::PacketKind;

    fn generator() -> TraceGenerator {
        TraceGenerator::new(Topology::mesh8x8()).with_duration_ns(10_000)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generator().generate(Benchmark::Fft);
        let b = generator().generate(Benchmark::Fft);
        assert_eq!(a, b);
    }

    #[test]
    fn different_benchmarks_differ() {
        let a = generator().generate(Benchmark::Fft);
        let b = generator().generate(Benchmark::Swaptions);
        assert_ne!(a.packets(), b.packets());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generator().generate(Benchmark::Lu);
        let b = generator().with_seed(1).generate(Benchmark::Lu);
        assert_ne!(a.packets(), b.packets());
    }

    #[test]
    fn traces_are_nonempty_and_in_range() {
        for bench in ALL_BENCHMARKS {
            let t = generator().generate(bench);
            assert!(!t.is_empty(), "{bench} produced an empty trace");
            assert!(t.horizon().as_ns() <= 10_000.0 + 100.0);
            for p in t.packets() {
                assert!(p.src.idx() < 64);
                assert!(p.dst.idx() < 64);
                assert_ne!(p.src, p.dst);
            }
        }
    }

    #[test]
    fn traces_mix_requests_and_responses() {
        for bench in [Benchmark::Canneal, Benchmark::Radix] {
            let s = generator().generate(bench).stats();
            assert!(s.requests > 0, "{bench}");
            assert!(s.responses > 0, "{bench}");
            // Responses come only from requests, so there are never more.
            assert!(s.responses <= s.requests, "{bench}");
        }
    }

    #[test]
    fn load_ordering_matches_profiles() {
        // Canneal (heavy) must offer clearly more load than swaptions
        // (light): the calibration must produce distinguishable traces.
        let heavy = generator()
            .generate(Benchmark::Canneal)
            .stats()
            .flits_per_ns;
        let light = generator()
            .generate(Benchmark::Swaptions)
            .stats()
            .flits_per_ns;
        assert!(
            heavy > light * 2.0,
            "canneal {heavy} flits/ns vs swaptions {light}"
        );
    }

    #[test]
    fn most_cores_participate() {
        let s = generator().generate(Benchmark::Canneal).stats();
        assert!(s.active_cores > 48, "only {} active cores", s.active_cores);
    }

    #[test]
    fn hotspot_benchmark_concentrates_destinations() {
        let t = generator().generate(Benchmark::Ferret);
        let mut counts = vec![0usize; 64];
        for p in t.packets() {
            if p.kind == PacketKind::Request {
                counts[p.dst.idx()] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        let max = *counts.iter().max().unwrap();
        // The hot core receives far more than the uniform share (1/64).
        assert!(
            max as f64 / total as f64 > 0.08,
            "hotspot share {}",
            max as f64 / total as f64
        );
    }

    #[test]
    fn cmesh_traces_generate_too() {
        let t = TraceGenerator::new(Topology::cmesh4x4())
            .with_duration_ns(5_000)
            .generate(Benchmark::Barnes);
        assert!(!t.is_empty());
        assert_eq!(t.num_cores, 64);
    }

    #[test]
    fn generate_all_yields_one_trace_per_benchmark() {
        let traces = generator().generate_all(&[Benchmark::Fft, Benchmark::Lu]);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].name, "fft");
        assert_eq!(traces[1].name, "lu");
    }
}
