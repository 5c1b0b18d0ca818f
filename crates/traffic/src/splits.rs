//! The paper's benchmark partition: "From a total of 14 trace files, we
//! use a total of six trace files for training purposes, three for
//! validation, and then the final five for testing" (§IV-A).
//!
//! The paper does not publish which benchmark landed in which split; we
//! fix a deterministic assignment with both suites represented in the
//! test set and keep it stable forever (trained models reference it).

use serde::{Deserialize, Serialize};

use crate::synthetic::Benchmark;

/// The six training benchmarks.
pub const TRAIN_BENCHMARKS: [Benchmark; 6] = [
    Benchmark::Blackscholes,
    Benchmark::Bodytrack,
    Benchmark::Canneal,
    Benchmark::Dedup,
    Benchmark::Ferret,
    Benchmark::Fluidanimate,
];

/// The three validation benchmarks (λ tuning).
pub const VALIDATION_BENCHMARKS: [Benchmark; 3] =
    [Benchmark::Freqmine, Benchmark::Swaptions, Benchmark::Vips];

/// The five held-out test benchmarks (all results in Figs. 7–9 are
/// reported on these).
pub const TEST_BENCHMARKS: [Benchmark; 5] = [
    Benchmark::X264,
    Benchmark::Barnes,
    Benchmark::Fft,
    Benchmark::Lu,
    Benchmark::Radix,
];

/// Which split a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BenchmarkSplit {
    /// Used to fit weights.
    Train,
    /// Used to select λ.
    Validation,
    /// Held out; all reported results.
    Test,
}

impl BenchmarkSplit {
    /// The split a benchmark is assigned to.
    pub fn of(bench: Benchmark) -> BenchmarkSplit {
        if TRAIN_BENCHMARKS.contains(&bench) {
            BenchmarkSplit::Train
        } else if VALIDATION_BENCHMARKS.contains(&bench) {
            BenchmarkSplit::Validation
        } else {
            debug_assert!(TEST_BENCHMARKS.contains(&bench));
            BenchmarkSplit::Test
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::ALL_BENCHMARKS;
    use std::collections::BTreeSet;

    #[test]
    fn split_sizes_match_paper() {
        assert_eq!(TRAIN_BENCHMARKS.len(), 6);
        assert_eq!(VALIDATION_BENCHMARKS.len(), 3);
        assert_eq!(TEST_BENCHMARKS.len(), 5);
    }

    #[test]
    fn splits_partition_all_fourteen() {
        let mut seen = BTreeSet::new();
        for b in TRAIN_BENCHMARKS
            .iter()
            .chain(&VALIDATION_BENCHMARKS)
            .chain(&TEST_BENCHMARKS)
        {
            assert!(seen.insert(b.name()), "{b} in two splits");
        }
        assert_eq!(seen.len(), ALL_BENCHMARKS.len());
        for b in ALL_BENCHMARKS {
            assert!(seen.contains(b.name()), "{b} unassigned");
        }
    }

    #[test]
    fn of_agrees_with_membership() {
        for b in TRAIN_BENCHMARKS {
            assert_eq!(BenchmarkSplit::of(b), BenchmarkSplit::Train);
        }
        for b in VALIDATION_BENCHMARKS {
            assert_eq!(BenchmarkSplit::of(b), BenchmarkSplit::Validation);
        }
        for b in TEST_BENCHMARKS {
            assert_eq!(BenchmarkSplit::of(b), BenchmarkSplit::Test);
        }
    }

    #[test]
    fn test_set_covers_both_suites() {
        use crate::synthetic::Suite;
        let suites: Vec<_> = TEST_BENCHMARKS.iter().map(|b| b.profile().suite).collect();
        assert!(suites.contains(&Suite::Parsec));
        assert!(suites.contains(&Suite::Splash2));
    }
}
