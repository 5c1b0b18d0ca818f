//! Seeded multi-thread stress of the workspace's only concurrency:
//! several OS threads hammer `core::schedule::run_indexed` and one
//! shared `RunCache` concurrently, then the test asserts every slot is
//! filled exactly once with its own index's result, and the atomic
//! stats counters conserve (`hits + misses == lookups`,
//! `stores == successful puts`). The nightly ThreadSanitizer job runs
//! this file too.
//!
//! Everything is driven from one `SmallRng` seed per thread so a
//! failure replays exactly; no wall clock, no ambient state.

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use dozznoc_core::cache::{campaign_base, cell_fingerprint, Fingerprint, RunCache};
use dozznoc_core::schedule::run_indexed;
use dozznoc_core::{ModelKind, ModelSuite, Trainer};
use dozznoc_ml::FeatureSet;
use dozznoc_noc::NocConfig;
use dozznoc_topology::Topology;
use dozznoc_traffic::{Benchmark, TraceGenerator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn jobs(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("stress job counts are positive")
}

fn temp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dozznoc-stress-{tag}-{}", std::process::id()))
}

/// Several threads each drive their own oversubscribed `run_indexed`
/// schedules with seeded shapes; every schedule must return exactly
/// `count` slots, each holding a value derived from its own index.
#[test]
fn run_indexed_keeps_slot_integrity_under_oversubscription() {
    const THREADS: u64 = 4;
    const ROUNDS: usize = 12;

    #[allow(
        clippy::disallowed_methods,
        reason = "concurrent callers of run_indexed are the subject of this stress test"
    )]
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xD077_0C00 + t);
                for round in 0..ROUNDS {
                    // Shapes span the degenerate corners on purpose:
                    // empty schedules, single worker (inline path), and
                    // workers > count (idle-worker path).
                    let count = rng.gen_range(0..65);
                    let workers = rng.gen_range(1..9);
                    let salt = (t << 32) | round as u64;
                    let out = run_indexed(jobs(workers), count, |i| {
                        (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(salt)
                    });
                    assert_eq!(out.len(), count, "thread {t} round {round}");
                    for (i, v) in out.iter().enumerate() {
                        let want = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(salt);
                        assert_eq!(*v, want, "slot {i} of thread {t} round {round}");
                    }
                }
            });
        }
    });
}

/// One shared `RunCache` is hammered through `run_indexed` itself —
/// workers interleave hot-entry lookups, guaranteed misses, and
/// redundant puts of the same cell. The atomic counters must conserve
/// exactly against the per-worker tallies.
#[test]
fn shared_cache_counters_conserve_under_concurrent_workers() {
    let topo = Topology::mesh8x8();
    let suite = ModelSuite::train(
        &Trainer::new(topo).with_duration_ns(2_000),
        FeatureSet::Reduced5,
    );
    let cfg = NocConfig::paper(topo);
    let trace = TraceGenerator::new(topo)
        .with_duration_ns(2_000)
        .generate(Benchmark::Fft);
    let report = dozznoc_core::experiment::run_model(cfg, &trace, ModelKind::Baseline, &suite);
    let hot = cell_fingerprint(campaign_base(&cfg, &suite), trace.digest(), "baseline");

    let dir = temp_store("cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = RunCache::open(&dir);
    cache.put(hot, "baseline", &report);
    let warmup = cache.stats();
    assert_eq!(warmup.stores, 1, "warm-up store must land");

    let lookups = AtomicU64::new(0);
    let expect_hits = AtomicU64::new(0);
    let puts = AtomicU64::new(0);
    const CELLS: usize = 48;
    const OPS: usize = 24;
    run_indexed(jobs(8), CELLS, |cell| {
        let mut rng = SmallRng::seed_from_u64(cell as u64);
        for _ in 0..OPS {
            match rng.gen_range(0..3) {
                0 => {
                    // Hot lookup: the entry was stored before the fan-out
                    // and is never invalidated, so it must always hit.
                    lookups.fetch_add(1, Ordering::Relaxed);
                    let got = cache.get(hot, "baseline", &trace.name);
                    assert!(got.is_some(), "hot entry must stay a hit");
                    expect_hits.fetch_add(1, Ordering::Relaxed);
                }
                1 => {
                    // Guaranteed miss: a fingerprint nothing ever stores.
                    lookups.fetch_add(1, Ordering::Relaxed);
                    let cold = Fingerprint(u64::MAX - cell as u64);
                    assert!(cache.get(cold, "baseline", &trace.name).is_none());
                }
                _ => {
                    // Redundant put of the same bytes: the write-then-
                    // rename protocol makes same-cell races harmless.
                    cache.put(hot, "baseline", &report);
                    puts.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    });

    let stats = cache.stats();
    let lookups = lookups.load(Ordering::Relaxed);
    let expect_hits = expect_hits.load(Ordering::Relaxed);
    let puts = puts.load(Ordering::Relaxed);
    assert_eq!(
        stats.hits + stats.misses,
        warmup.hits + warmup.misses + lookups,
        "every lookup must be counted exactly once as hit or miss"
    );
    assert_eq!(stats.hits, expect_hits, "hot lookups all hit");
    assert_eq!(
        stats.misses,
        warmup.misses + (lookups - expect_hits),
        "cold lookups all miss"
    );
    assert_eq!(
        stats.stores,
        warmup.stores + puts,
        "every successful put must be counted"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
