//! The timing registry is the global registry under other factories:
//! same names, aliases, specs and slugs, and therefore the same run
//! cache fingerprints.

use std::num::NonZeroUsize;

use dozz_bench::check::digest;
use dozz_bench::timing::timing_registry;
use dozznoc_bench::regimes::{regime_trace, Regime};
use dozznoc_core::{Campaign, EngineOptions, ModelSuite, PolicyRegistry, RunCache, Trainer};
use dozznoc_ml::FeatureSet;
use dozznoc_topology::Topology;

#[test]
fn names_aliases_and_slugs_are_the_global_ones() {
    let global = PolicyRegistry::global();
    let timed = timing_registry();
    assert_eq!(timed.names(), global.names());
    assert_eq!(timed.known_names(), global.known_names());
    for factory in global.factories() {
        let ours = timed.resolve(factory.name()).expect("registered");
        assert_eq!(ours.label(), factory.label());
        assert_eq!(ours.uses_ml(), factory.uses_ml());
        for name in std::iter::once(factory.name()).chain(factory.aliases().iter().copied()) {
            let a = global.parse(name).expect("global spec");
            let b = timed.parse(name).expect("timed spec");
            assert_eq!(a, b, "{name}");
            assert_eq!(a.slug(), b.slug(), "{name}");
        }
    }
}

#[test]
fn a_cache_warmed_by_the_global_registry_replays_through_the_timed_one() {
    let topo = Topology::mesh8x8();
    let suite = ModelSuite::train(
        &Trainer::new(topo).with_duration_ns(1_000),
        FeatureSet::Reduced5,
    );
    let traces = [regime_trace(Regime::Light, &topo, 500, 11)];
    let global = PolicyRegistry::global();
    let specs = global.default_specs();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("timing-registry-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = RunCache::open(&dir);
    let opts = EngineOptions {
        jobs: Some(NonZeroUsize::MIN),
        cache: Some(&cache),
        ..Default::default()
    };
    let campaign = Campaign::new(topo);
    let cold = campaign
        .run_trace_cells(&traces, &specs, &suite, global, &opts)
        .expect("built-in specs");
    let warm = campaign
        .run_trace_cells(&traces, &specs, &suite, &timing_registry(), &opts)
        .expect("built-in specs");
    assert!(cold.iter().all(|c| !c.cache_hit));
    assert!(warm.iter().all(|c| c.cache_hit), "a fingerprint changed");
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(digest(&c.result.report), digest(&w.result.report));
    }
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (specs.len() as u64, specs.len() as u64)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
