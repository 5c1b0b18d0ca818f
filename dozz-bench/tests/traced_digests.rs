//! A traced pass (timing registry, per-cell measurement, spans) gives
//! every cell the digest of a plain pass: the timing wrappers forward
//! every `PowerPolicy` method and change no simulated result.

use dozz_bench::timing;
use dozz_bench::workload::{pass, setup, Size, WORKLOADS};

#[test]
fn plain_and_traced_passes_give_identical_digests() {
    let size = Size::TEST;
    let timed = timing::timing_registry();
    for w in WORKLOADS {
        let dir =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("digests-{}", w.name()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let prep = setup(w, 3, &size, &dir);
        let plain = pass(w, &prep, 3, &size, &dir, None);
        timing::set_enabled(true);
        let traced = pass(w, &prep, 3, &size, &dir, Some(&timed));
        timing::set_enabled(false);

        assert!(!plain.cells.is_empty(), "{}", w.name());
        assert_eq!(plain.cells, traced.cells, "{}", w.name());
        assert!(
            traced.layers.cells > 0,
            "{}: traced pass recorded no cells",
            w.name()
        );
        assert!(
            traced.layers.engine_ns > 0 && traced.layers.engine_ns <= traced.layers.wall_ns,
            "{}: engine span outside the pass",
            w.name()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
