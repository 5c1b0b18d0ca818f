//! One benchmark run: set the workload up several times, then repeat
//! passes for the requested time, check every cell, and reduce the
//! passes to metrics.
//!
//! A plain run (`trace = false`) records nothing and reports the
//! end-to-end metrics. A traced run alternates plain and traced passes
//! over the same window, so the tracing overhead is measured against
//! plain passes of the same process, and reports the per-layer metrics.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use dozznoc_core::measure;
use serde_json::Value;

use crate::check::{self, by_label, Against};
use crate::metrics::{median, quartiles, Metric};
use crate::timing::{self, Layer, Span};
use crate::workload::{self, Layers, PassOut, Size, Workload};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window, s (at least one pass runs).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a plain one.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Scratch directory, emptied first and removed at the end.
    pub work_dir: PathBuf,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Operations (engine cells) attempted in the measured window,
    /// plus the sanitized cell of a traced run.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// The first failures, as `(cell label, reason)`.
    pub failures: Vec<(String, &'static str)>,
    /// End-to-end or per-layer metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Workload, seed, sizes, pass counts, host and accuracy row.
    pub context: Value,
    /// Digests of the first measured pass, by cell label.
    pub digests: BTreeMap<String, u64>,
    /// The spans a traced run recorded.
    pub spans: Vec<Span>,
}

/// Execute one run.
pub fn run(cfg: &RunConfig) -> RunOutput {
    let _ = fs::remove_dir_all(&cfg.work_dir);
    fs::create_dir_all(&cfg.work_dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", cfg.work_dir.display()));
    let (w, seed, size) = (cfg.workload, cfg.seed, &cfg.size);

    timing::set_enabled(cfg.trace);
    let mut setup_ns = Vec::new();
    let mut setup_layers = (0, 0);
    let mut prep = None;
    for _ in 0..size.setups.max(1) {
        drop(prep.take());
        let mark = timing::span_count();
        let start = Instant::now();
        prep = Some(timing::span(Layer::Setup, || {
            workload::setup(w, seed, size, &cfg.work_dir)
        }));
        setup_ns.push(start.elapsed().as_nanos() as f64);
        setup_layers = (
            timing::layer_ns(Layer::Traffic, mark),
            timing::layer_ns(Layer::Training, mark),
        );
    }
    let prep = prep.expect("at least one setup ran");
    timing::set_enabled(false);

    let timed = timing::timing_registry();
    let expected = (seed == 0 && *size == Size::BENCH)
        .then(check::expected_seed0)
        .map(|mut e| e.remove(w.name()).unwrap_or_default());
    let mut reference = prep.reference.clone();
    let mut plain: Vec<PassOut> = Vec::new();
    let mut traced: Vec<PassOut> = Vec::new();
    let (mut attempted, mut failures) = (0u64, Vec::new());
    let start = Instant::now();
    loop {
        let is_traced = cfg.trace && plain.len() > traced.len();
        timing::set_enabled(is_traced);
        let out = workload::pass(
            w,
            &prep,
            seed,
            size,
            &cfg.work_dir,
            is_traced.then_some(&timed),
        );
        timing::set_enabled(false);

        let reference = reference.get_or_insert_with(|| by_label(&out.cells));
        let against = Against {
            reference: Some(reference),
            expected: expected.as_ref(),
            all_hits: w == Workload::HeadlineWarm,
        };
        attempted += out.cells.len() as u64;
        failures.extend(check::failures(&out.cells, against));
        if is_traced {
            traced.push(out);
        } else {
            plain.push(out);
        }
        let complete = !plain.is_empty() && (!cfg.trace || !traced.is_empty());
        if complete && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let peak_rss = measure::max_rss_bytes();

    let mut violations = 0;
    if cfg.trace {
        let (cell, v) = workload::sanitized_cell(&prep, seed, size);
        violations = v;
        attempted += 1;
        let against = Against {
            reference: reference.as_ref(),
            expected: expected.as_ref(),
            all_hits: false,
        };
        failures.extend(check::failures(std::slice::from_ref(&cell), against));
        if v > 0 {
            failures.push((cell.label, "sanitizer violations"));
        }
    }

    let metrics = if cfg.trace {
        per_layer(&plain, &traced, setup_layers, violations)
    } else {
        end_to_end(&plain, peak_rss, &setup_ns)
    };
    let context = serde_json::json!({
        "workload": w.name(),
        "seed": seed,
        "seconds": cfg.seconds,
        "trace": cfg.trace,
        "size": size.to_json(),
        "plain_passes": plain.len(),
        "traced_passes": traced.len(),
        "host": crate::host::context(),
        "accuracy": prep.accuracy.clone().unwrap_or(Value::Null),
    });
    let digests = by_label(&plain[0].cells);
    drop(prep);
    let _ = fs::remove_dir_all(&cfg.work_dir);
    let failed = failures.len() as u64;
    failures.truncate(10);
    RunOutput {
        attempted,
        failed,
        failures,
        metrics,
        context,
        digests,
        spans: if cfg.trace {
            timing::spans()
        } else {
            Vec::new()
        },
    }
}

/// The end-to-end metrics. Every pass of a run does identical work, so
/// passes differ only by interference from the host; the timings are
/// taken at the fastest pass, the program's cost with the least of it.
/// Throughput is one pass's simulated ticks over that pass, and CPU per
/// pass is the window's CPU-to-wall ratio (exact in sum, although each
/// reading is USER_HZ-quantized) at that pass.
fn end_to_end(plain: &[PassOut], peak_rss: u64, setup_ns: &[f64]) -> Vec<Metric> {
    let walls: Vec<f64> = plain.iter().map(|p| p.wall_ns as f64).collect();
    let best_ns = fastest(plain);
    let ticks: u64 = plain[0].cells.iter().map(|c| c.sim_ticks).sum();
    let cpu_ns: u64 = plain.iter().map(|p| p.cpu_ns).sum();
    let cpu_per_wall = cpu_ns as f64 / walls.iter().sum::<f64>();
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("pass_min_ms", "ms", best_ns / 1e6),
        m("sim_ticks_per_s", "1/s", ticks as f64 / (best_ns / 1e9)),
        m("cpu_ms_per_pass", "ms", cpu_per_wall * best_ns / 1e6),
        m("peak_rss_mb", "MiB", peak_rss as f64 / (1024.0 * 1024.0)),
        m("setup_s", "s", median(setup_ns) / 1e9),
    ]
}

/// Wall time of the fastest of `passes`, ns.
fn fastest(passes: &[PassOut]) -> f64 {
    passes
        .iter()
        .map(|p| p.wall_ns as f64)
        .fold(f64::INFINITY, f64::min)
}

fn per_layer(
    plain: &[PassOut],
    traced: &[PassOut],
    (setup_traffic_ns, setup_training_ns): (u64, u64),
    violations: u64,
) -> Vec<Metric> {
    let mut l = Layers::default();
    for p in traced {
        l.add(&p.layers);
    }
    let n = traced.len() as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / n;
    let per = |count: u64| count as f64 / n;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let cell_ms: Vec<f64> = l.cell_walls_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let [_, cell_p50, cell_p75] = quartiles(&cell_ms);
    let covered = l.traffic_ns + l.training_ns + l.engine_ns + l.report_ns;
    let plain_best = fastest(plain);
    let traced_best = fastest(traced);
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("setup.traffic_ms", "ms", setup_traffic_ns as f64 / 1e6),
        m("setup.training_ms", "ms", setup_training_ns as f64 / 1e6),
        m("traffic.gen_ms", "ms", ms(l.traffic_ns)),
        m("traffic.packets", "count", per(l.packets)),
        m(
            "traffic.ns_per_packet",
            "ns",
            ratio(l.traffic_ns as f64, l.packets as f64),
        ),
        m("training.ms", "ms", ms(l.training_ns)),
        m("training.suites", "count", per(l.suites)),
        m("policy.builds", "count", per(l.builds)),
        m("policy.build_ms", "ms", ms(l.build_ns)),
        m("policy.decisions", "count", per(l.decisions)),
        m("policy.decide_ms", "ms", ms(l.decide_ns)),
        m(
            "policy.ns_per_decision",
            "ns",
            ratio(l.decide_ns as f64, l.decisions as f64),
        ),
        m("noc.runs", "count", per(l.noc_runs)),
        m("noc.sim_ms", "ms", ms(l.noc_ns)),
        m("noc.sim_ticks", "count", per(l.sim_ticks)),
        m("noc.flit_hops", "count", per(l.flit_hops)),
        m("noc.epochs", "count", per(l.epochs)),
        m("noc.transitions", "count", per(l.transitions)),
        m(
            "noc.ns_per_sim_tick",
            "ns",
            ratio(l.noc_ns as f64, l.sim_ticks as f64),
        ),
        m(
            "noc.ns_per_flit_hop",
            "ns",
            ratio(l.noc_ns as f64, l.flit_hops as f64),
        ),
        m("cache.hits", "count", per(l.hits)),
        m("cache.misses", "count", per(l.misses)),
        m("cache.stores", "count", per(l.stores)),
        m(
            "cache.hit_ratio",
            "ratio",
            ratio(l.hits as f64, (l.hits + l.misses) as f64),
        ),
        m("cache.get_ms", "ms", ms(l.get_ns)),
        m("cache.put_ms", "ms", ms(l.put_ns)),
        m("engine.cells", "count", per(l.cells)),
        m("engine.span_ms", "ms", ms(l.engine_ns)),
        m("engine.cell_p50_ms", "ms", cell_p50),
        m("engine.cell_p75_ms", "ms", cell_p75),
        m("engine.other_ms", "ms", ms(l.engine_other_ns)),
        m("report.ms", "ms", ms(l.report_ns)),
        m("sanitizer.violations", "count", violations as f64),
        m(
            "trace.coverage",
            "ratio",
            ratio(covered as f64, l.wall_ns as f64),
        ),
        m(
            "trace.overhead",
            "ratio",
            ratio(traced_best, plain_best) - 1.0,
        ),
        m("trace.passes", "count", n),
        m("plain.passes", "count", plain.len() as f64),
    ]
}
