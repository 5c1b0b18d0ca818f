//! Campaign-engine benches: matrix throughput through the cell
//! scheduler and the content-addressed run cache.
//!
//! Four configurations of the same (benchmark × model) matrix:
//!
//! * `cold/jobs1` — sequential simulation, no cache (the old engine's
//!   lower bound).
//! * `cold/jobsN` — the work-stealing scheduler on every available
//!   core; the cold N-worker vs. 1-worker ratio is the scheduler's
//!   speedup on this machine.
//! * `warm/jobs1` and `warm/jobsN` — every cell replays from a
//!   pre-filled run cache; no simulation happens at all, so these
//!   measure pure cache-replay overhead.
//!
//! CI uploads the group as `BENCH_campaign.json` for trend-watching
//! (shared runners are noisy; the artifact is not gating).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::path::PathBuf;

use dozznoc_bench::{bench_suite, BENCH_TRACE_NS};
use dozznoc_core::{schedule, Campaign, EngineOptions, RunCache};
use dozznoc_topology::Topology;
use dozznoc_traffic::TEST_BENCHMARKS;

/// A per-process scratch cache directory (removed on drop).
struct ScratchCache {
    dir: PathBuf,
    cache: RunCache,
}

impl ScratchCache {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("dozznoc-bench-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchCache {
            cache: RunCache::open(&dir),
            dir,
        }
    }
}

impl Drop for ScratchCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn campaign_matrix(c: &mut Criterion) {
    let topo = Topology::mesh8x8();
    let suite = bench_suite();
    let campaign = Campaign::new(topo).with_duration_ns(BENCH_TRACE_NS);
    let one = NonZeroUsize::MIN;
    let many = schedule::default_jobs();

    let mut g = c.benchmark_group("campaign");
    g.sample_size(10);

    for (label, jobs) in [("cold/jobs1", one), ("cold/jobsN", many)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let cells = campaign.run_cells(
                    &TEST_BENCHMARKS,
                    &suite,
                    &EngineOptions {
                        jobs: Some(jobs),
                        ..Default::default()
                    },
                );
                black_box(cells.len())
            })
        });
    }

    // Warm replays: fill the cache once, then every iteration is pure
    // cache-hit traffic.
    let scratch = ScratchCache::new("campaign");
    let warmed = campaign.run_cells(
        &TEST_BENCHMARKS,
        &suite,
        &EngineOptions {
            jobs: Some(many),
            cache: Some(&scratch.cache),
            ..Default::default()
        },
    );
    assert!(warmed.iter().all(|cell| !cell.cache_hit));

    for (label, jobs) in [("warm/jobs1", one), ("warm/jobsN", many)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let cells = campaign.run_cells(
                    &TEST_BENCHMARKS,
                    &suite,
                    &EngineOptions {
                        jobs: Some(jobs),
                        cache: Some(&scratch.cache),
                        ..Default::default()
                    },
                );
                assert!(cells.iter().all(|cell| cell.cache_hit));
                black_box(cells.len())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, campaign_matrix);
criterion_main!(benches);
