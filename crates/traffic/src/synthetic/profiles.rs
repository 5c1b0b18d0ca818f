//! The fourteen benchmark profiles.
//!
//! Parameters are chosen so the *population* of benchmarks spans the
//! regimes the paper's evaluation needs:
//!
//! * long idle windows on some cores (power-gating headroom — the paper's
//!   53% static savings requires substantial off-residency),
//! * epoch-scale load variability (DVFS headroom — Fig. 7 shows all five
//!   modes populated),
//! * spatial locality and hotspots (non-uniform per-router utilization),
//! * a request/response mix (Table IV features 2–3 are per-kind counts).
//!
//! Individual values are plausible characterizations of each program's
//! communication style (e.g. `blackscholes` is embarrassingly parallel
//! with little traffic; `canneal` has heavy irregular communication;
//! `fft`/`radix` have bursty all-to-all phases) — they are calibration
//! constants, not measurements.

use serde::{Deserialize, Serialize};

/// Benchmark suite of origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// PARSEC 2.1.
    Parsec,
    /// SPLASH-2.
    Splash2,
}

/// The fourteen workloads (ten PARSEC, four SPLASH-2), matching the
/// paper's "14 trace files in total".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Benchmark {
    /// PARSEC: Black–Scholes option pricing (embarrassingly parallel).
    Blackscholes,
    /// PARSEC: body tracking (pipeline with bursts).
    Bodytrack,
    /// PARSEC: simulated annealing placement (irregular, heavy).
    Canneal,
    /// PARSEC: deduplication pipeline (streaming, moderate).
    Dedup,
    /// PARSEC: content-based search (server-style bursts + hotspot).
    Ferret,
    /// PARSEC: fluid dynamics (neighbour locality, phases).
    Fluidanimate,
    /// PARSEC: frequent itemset mining (phased, moderate).
    Freqmine,
    /// PARSEC: swaption pricing (embarrassingly parallel, light).
    Swaptions,
    /// PARSEC: image processing pipeline (streaming).
    Vips,
    /// PARSEC: video encoding (bursty, phased).
    X264,
    /// SPLASH-2: Barnes–Hut n-body (irregular, hotspot on the tree root).
    Barnes,
    /// SPLASH-2: fast Fourier transform (all-to-all bursts).
    Fft,
    /// SPLASH-2: LU factorization (neighbour locality, phases).
    Lu,
    /// SPLASH-2: radix sort (permutation bursts).
    Radix,
}

/// All fourteen benchmarks in canonical order.
pub const ALL_BENCHMARKS: [Benchmark; 14] = [
    Benchmark::Blackscholes,
    Benchmark::Bodytrack,
    Benchmark::Canneal,
    Benchmark::Dedup,
    Benchmark::Ferret,
    Benchmark::Fluidanimate,
    Benchmark::Freqmine,
    Benchmark::Swaptions,
    Benchmark::Vips,
    Benchmark::X264,
    Benchmark::Barnes,
    Benchmark::Fft,
    Benchmark::Lu,
    Benchmark::Radix,
];

/// Calibration constants of one workload's injection process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WorkloadProfile {
    /// Benchmark name.
    pub name: &'static str,
    /// Suite of origin.
    pub suite: Suite,
    /// Mean length of a core's ON burst, nanoseconds.
    pub burst_ns: f64,
    /// Mean length of a core's OFF (compute/idle) window, nanoseconds.
    pub idle_ns: f64,
    /// Injection probability per core per nanosecond slot while ON.
    pub on_rate: f64,
    /// Probability a destination is drawn from the 2-hop neighbourhood.
    pub locality: f64,
    /// Probability a packet targets the benchmark's hotspot core
    /// (directory/shared structure).
    pub hotspot: f64,
    /// Probability a request spawns a response from its destination.
    pub response_prob: f64,
    /// Phase intensity multipliers, cycled over the trace.
    pub phases: &'static [f64],
    /// Length of one phase, nanoseconds.
    pub phase_ns: f64,
}

impl WorkloadProfile {
    /// Fraction of time a core spends in the ON state.
    pub fn duty_cycle(&self) -> f64 {
        self.burst_ns / (self.burst_ns + self.idle_ns)
    }

    /// Mean packets per core per nanosecond (before responses).
    pub fn mean_rate(&self) -> f64 {
        let mean_phase: f64 = self.phases.iter().sum::<f64>() / self.phases.len() as f64;
        self.duty_cycle() * self.on_rate * mean_phase
    }
}

impl Benchmark {
    /// The calibrated profile of this benchmark.
    pub const fn profile(&self) -> WorkloadProfile {
        use Suite::*;
        match self {
            // Embarrassingly parallel: long compute windows, light traffic.
            Benchmark::Blackscholes => WorkloadProfile {
                name: "blackscholes",
                suite: Parsec,
                burst_ns: 3000.0,
                idle_ns: 2000.0,
                on_rate: 0.078,
                locality: 0.30,
                hotspot: 0.04,
                response_prob: 0.75,
                phases: &[
                    0.05, 0.51, 1.36, 1.7, 1.02, 0.15, 0.05, 0.68, 1.7, 1.36, 0.51, 0.05, 0.01,
                    0.01, 0.02, 0.01, 0.01, 0.03, 0.01, 0.02, 0.01, 0.01,
                ],
                phase_ns: 1_500.0,
            },
            Benchmark::Bodytrack => WorkloadProfile {
                name: "bodytrack",
                suite: Parsec,
                burst_ns: 4000.0,
                idle_ns: 1000.0,
                on_rate: 0.117,
                locality: 0.45,
                hotspot: 0.08,
                response_prob: 0.70,
                phases: &[
                    0.1, 0.85, 1.7, 2.0, 1.7, 0.85, 0.15, 1.19, 2.0, 1.36, 0.51, 0.1, 0.01, 0.01,
                    0.02, 0.01, 0.01, 0.03, 0.01, 0.02, 0.01, 0.01,
                ],
                phase_ns: 1_500.0,
            },
            // Heavy, irregular communication; least gating headroom.
            Benchmark::Canneal => WorkloadProfile {
                name: "canneal",
                suite: Parsec,
                burst_ns: 5000.0,
                idle_ns: 700.0,
                on_rate: 0.098,
                locality: 0.15,
                hotspot: 0.05,
                response_prob: 0.85,
                phases: &[
                    0.68, 1.36, 1.87, 2.0, 1.7, 1.36, 1.7, 1.87, 1.19, 0.51, 0.15, 0.51, 0.01,
                    0.01, 0.02, 0.01, 0.01, 0.03, 0.01, 0.02, 0.01, 0.01,
                ],
                phase_ns: 1_500.0,
            },
            Benchmark::Dedup => WorkloadProfile {
                name: "dedup",
                suite: Parsec,
                burst_ns: 4000.0,
                idle_ns: 1200.0,
                on_rate: 0.104,
                locality: 0.55,
                hotspot: 0.07,
                response_prob: 0.60,
                phases: &[
                    0.1, 0.85, 1.53, 2.0, 1.7, 1.02, 0.2, 0.1, 0.01, 0.01, 0.02, 0.01, 0.01, 0.03,
                    0.01, 0.02, 0.01, 0.01,
                ],
                phase_ns: 1_500.0,
            },
            // Server-style: bursts converging on a hot query node.
            Benchmark::Ferret => WorkloadProfile {
                name: "ferret",
                suite: Parsec,
                burst_ns: 4500.0,
                idle_ns: 900.0,
                on_rate: 0.117,
                locality: 0.25,
                hotspot: 0.08,
                response_prob: 0.80,
                phases: &[
                    0.1, 1.02, 1.87, 2.0, 1.7, 0.85, 0.2, 0.05, 0.05, 0.1, 0.01, 0.01, 0.02, 0.01,
                    0.01, 0.03, 0.01, 0.02, 0.01, 0.01,
                ],
                phase_ns: 1_500.0,
            },
            // Neighbour-local stencil with strong phases.
            Benchmark::Fluidanimate => WorkloadProfile {
                name: "fluidanimate",
                suite: Parsec,
                burst_ns: 3500.0,
                idle_ns: 1500.0,
                on_rate: 0.111,
                locality: 0.70,
                hotspot: 0.02,
                response_prob: 0.65,
                phases: &[
                    0.05, 0.85, 2.0, 0.85, 0.05, 0.85, 2.0, 0.85, 0.01, 0.01, 0.02, 0.01, 0.01,
                    0.03, 0.01, 0.02, 0.01, 0.01,
                ],
                phase_ns: 1_500.0,
            },
            Benchmark::Freqmine => WorkloadProfile {
                name: "freqmine",
                suite: Parsec,
                burst_ns: 3000.0,
                idle_ns: 1800.0,
                on_rate: 0.098,
                locality: 0.40,
                hotspot: 0.09,
                response_prob: 0.70,
                phases: &[
                    0.1, 0.68, 1.53, 2.0, 1.53, 0.85, 0.2, 0.1, 0.01, 0.01, 0.02, 0.01, 0.01, 0.03,
                    0.01, 0.02, 0.01, 0.01,
                ],
                phase_ns: 1_500.0,
            },
            // Lightest workload: mostly idle network.
            Benchmark::Swaptions => WorkloadProfile {
                name: "swaptions",
                suite: Parsec,
                burst_ns: 2500.0,
                idle_ns: 3500.0,
                on_rate: 0.065,
                locality: 0.30,
                hotspot: 0.03,
                response_prob: 0.75,
                phases: &[
                    0.05, 0.51, 1.19, 0.68, 0.1, 0.51, 1.19, 0.51, 0.01, 0.01, 0.02, 0.01, 0.01,
                    0.03, 0.01, 0.02, 0.01, 0.01,
                ],
                phase_ns: 1_500.0,
            },
            Benchmark::Vips => WorkloadProfile {
                name: "vips",
                suite: Parsec,
                burst_ns: 4000.0,
                idle_ns: 1100.0,
                on_rate: 0.111,
                locality: 0.50,
                hotspot: 0.06,
                response_prob: 0.65,
                phases: &[
                    0.2, 1.02, 1.7, 2.0, 1.53, 1.02, 0.51, 0.1, 0.05, 0.1, 0.01, 0.01, 0.02, 0.01,
                    0.01, 0.03, 0.01, 0.02, 0.01, 0.01,
                ],
                phase_ns: 1_500.0,
            },
            // Bursty encoder with strong frame-boundary phases.
            Benchmark::X264 => WorkloadProfile {
                name: "x264",
                suite: Parsec,
                burst_ns: 3500.0,
                idle_ns: 1200.0,
                on_rate: 0.117,
                locality: 0.45,
                hotspot: 0.07,
                response_prob: 0.70,
                phases: &[
                    0.05, 1.02, 2.0, 2.0, 1.53, 0.51, 0.05, 0.68, 1.7, 2.0, 1.02, 0.1, 0.01, 0.01,
                    0.02, 0.01, 0.01, 0.03, 0.01, 0.02, 0.01, 0.01,
                ],
                phase_ns: 1_500.0,
            },
            // Irregular n-body with a hot tree-root node.
            Benchmark::Barnes => WorkloadProfile {
                name: "barnes",
                suite: Splash2,
                burst_ns: 4500.0,
                idle_ns: 1000.0,
                on_rate: 0.117,
                locality: 0.20,
                hotspot: 0.06,
                response_prob: 0.80,
                phases: &[
                    0.1, 0.85, 1.87, 2.0, 1.53, 0.85, 0.2, 0.05, 0.05, 0.1, 0.01, 0.01, 0.02, 0.01,
                    0.01, 0.03, 0.01, 0.02, 0.01, 0.01,
                ],
                phase_ns: 1_500.0,
            },
            // All-to-all transpose bursts between compute phases.
            Benchmark::Fft => WorkloadProfile {
                name: "fft",
                suite: Splash2,
                burst_ns: 4000.0,
                idle_ns: 1300.0,
                on_rate: 0.130,
                locality: 0.05,
                hotspot: 0.02,
                response_prob: 0.55,
                phases: &[
                    0.05, 0.68, 1.7, 2.0, 1.7, 0.68, 0.05, 0.68, 1.7, 2.0, 1.7, 0.68, 0.01, 0.01,
                    0.02, 0.01, 0.01, 0.03, 0.01, 0.02, 0.01, 0.01,
                ],
                phase_ns: 1_500.0,
            },
            // Blocked factorization: neighbour traffic, decaying load.
            Benchmark::Lu => WorkloadProfile {
                name: "lu",
                suite: Splash2,
                burst_ns: 4000.0,
                idle_ns: 1200.0,
                on_rate: 0.111,
                locality: 0.65,
                hotspot: 0.05,
                response_prob: 0.65,
                phases: &[
                    0.1, 1.02, 2.0, 2.0, 1.87, 1.36, 0.85, 0.2, 0.05, 0.05, 0.01, 0.01, 0.02, 0.01,
                    0.01, 0.03, 0.01, 0.02, 0.01, 0.01,
                ],
                phase_ns: 1_500.0,
            },
            // Permutation bursts: heavy, uniform, short.
            Benchmark::Radix => WorkloadProfile {
                name: "radix",
                suite: Splash2,
                burst_ns: 4500.0,
                idle_ns: 1000.0,
                on_rate: 0.117,
                locality: 0.10,
                hotspot: 0.04,
                response_prob: 0.50,
                phases: &[
                    0.05, 0.85, 1.87, 2.0, 1.53, 0.68, 0.05, 0.05, 0.51, 0.05, 0.01, 0.01, 0.02,
                    0.01, 0.01, 0.03, 0.01, 0.02, 0.01, 0.01,
                ],
                phase_ns: 1_500.0,
            },
        }
    }

    /// Benchmark name (matches the profile's name).
    pub fn name(&self) -> &'static str {
        self.profile().name
    }

    /// Stable per-benchmark seed component (FNV-1a of the name).
    pub fn seed(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for b in self.name().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
}

impl core::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn fourteen_distinct_benchmarks() {
        assert_eq!(ALL_BENCHMARKS.len(), 14);
        let names: BTreeSet<_> = ALL_BENCHMARKS.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 14);
        let seeds: BTreeSet<_> = ALL_BENCHMARKS.iter().map(|b| b.seed()).collect();
        assert_eq!(seeds.len(), 14);
    }

    #[test]
    fn suite_split_is_ten_four() {
        let parsec = ALL_BENCHMARKS
            .iter()
            .filter(|b| b.profile().suite == Suite::Parsec)
            .count();
        assert_eq!(parsec, 10);
        assert_eq!(ALL_BENCHMARKS.len() - parsec, 4);
    }

    #[test]
    fn profiles_are_physically_sensible() {
        for b in ALL_BENCHMARKS {
            let p = b.profile();
            assert!(p.burst_ns > 0.0 && p.idle_ns > 0.0, "{b}");
            assert!(
                (0.0..=0.2).contains(&p.on_rate),
                "{b}: on_rate {}",
                p.on_rate
            );
            assert!((0.0..=1.0).contains(&p.locality), "{b}");
            assert!((0.0..=0.5).contains(&p.hotspot), "{b}");
            assert!((0.0..=1.0).contains(&p.response_prob), "{b}");
            assert!(!p.phases.is_empty(), "{b}");
            assert!(p.phases.iter().all(|&m| m > 0.0), "{b}");
            assert!(p.phase_ns >= 1_000.0, "{b}: phases must span epochs");
        }
    }

    #[test]
    fn duty_cycles_span_gating_regimes() {
        // The population must include workloads with big gating headroom
        // (duty < 0.2) and workloads with little (duty > 0.5).
        let duties: Vec<f64> = ALL_BENCHMARKS
            .iter()
            .map(|b| b.profile().duty_cycle())
            .collect();
        assert!(duties.iter().any(|&d| d < 0.5), "{duties:?}");
        assert!(duties.iter().any(|&d| d > 0.7), "{duties:?}");
        // Everyone idles at least a quarter of the time (traces, not
        // saturation tests).
        assert!(duties.iter().all(|&d| d < 0.95), "{duties:?}");
    }

    #[test]
    fn mean_rates_are_light_enough_for_uncompressed_traces() {
        // Uncompressed traces must leave the network under-loaded so that
        // power gating has headroom; mean per-core rate stays well below
        // saturation.
        for b in ALL_BENCHMARKS {
            let r = b.profile().mean_rate();
            assert!(r < 0.15, "{b}: mean rate {r} packets/core/ns too hot");
            assert!(r > 0.0005, "{b}: mean rate {r} degenerate");
        }
    }

    #[test]
    fn phase_multipliers_vary_within_each_benchmark() {
        // DVFS headroom needs epoch-scale variability.
        for b in ALL_BENCHMARKS {
            let p = b.profile();
            let max = p.phases.iter().cloned().fold(f64::MIN, f64::max);
            let min = p.phases.iter().cloned().fold(f64::MAX, f64::min);
            assert!(max / min >= 1.3, "{b}: phases too flat");
        }
    }

    #[test]
    fn seed_is_stable() {
        // Seeds must never change across releases: trained models and
        // recorded experiments reference them.
        assert_eq!(
            Benchmark::Blackscholes.seed(),
            Benchmark::Blackscholes.seed()
        );
        assert_ne!(Benchmark::Fft.seed(), Benchmark::Lu.seed());
    }
}
