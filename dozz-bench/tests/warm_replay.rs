//! `headline-warm`'s timed region replays every cell from the run cache
//! and simulates nothing.

use dozz_bench::run::{run, RunConfig};
use dozz_bench::workload::{Size, Workload};

#[test]
fn warm_passes_simulate_nothing_and_never_miss() {
    let out = run(&RunConfig {
        workload: Workload::HeadlineWarm,
        seed: 2,
        seconds: 0.0,
        trace: true,
        size: Size::TEST,
        work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("warm-replay"),
    });
    assert_eq!(out.failed, 0, "{:?}", out.failures);
    let metric = |name: &str| {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    };
    assert_eq!(metric("noc.runs"), 0.0);
    assert_eq!(metric("noc.sim_ticks"), 0.0);
    assert_eq!(metric("cache.misses"), 0.0);
    assert_eq!(metric("cache.stores"), 0.0);
    assert_eq!(metric("cache.hits"), 50.0);
    assert_eq!(metric("cache.hit_ratio"), 1.0);
    assert_eq!(metric("training.suites"), 0.0);
}
