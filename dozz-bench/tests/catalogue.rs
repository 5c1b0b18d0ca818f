//! The metric catalogue, the workloads and `BENCHMARK.json` agree, and
//! every workload emits exactly the declared metrics.

use dozz_bench::metrics::{END_TO_END, PER_LAYER};
use dozz_bench::run::{run, RunConfig};
use dozz_bench::workload::{Size, WORKLOADS};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v[key].as_array().map_or(&[], Vec::as_slice)
}

fn declared(v: &Value, key: &str) -> Vec<(String, String)> {
    entries(v, key)
        .iter()
        .map(|m| {
            let field = |k: &str| m[k].as_str().unwrap_or_default().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let v = benchmark_json();
    let workloads: Vec<(&str, &str)> = entries(&v, "workloads")
        .iter()
        .map(|w| {
            (
                w["name"].as_str().unwrap_or_default(),
                w["why"].as_str().unwrap_or_default(),
            )
        })
        .collect();
    let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name(), w.why())).collect();
    assert_eq!(workloads, ours);

    let e2e = entries(&v, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (decl, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(decl["name"].as_str(), Some(m.name));
        assert_eq!(decl["unit"].as_str(), Some(m.unit));
        assert_eq!(
            decl["better"].as_str(),
            Some(m.better.as_str()),
            "{}",
            m.name
        );
        assert_eq!(decl["bound"].as_f64(), Some(m.bound), "{}", m.name);
    }
    let per_layer: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared(&v, "per_layer"), per_layer);
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let v = benchmark_json();
    for w in WORKLOADS {
        for trace in [false, true] {
            let out = run(&RunConfig {
                workload: w,
                seed: 5,
                seconds: 0.0,
                trace,
                size: Size::TEST,
                work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
                    .join(format!("catalogue-{}-{trace}", w.name())),
            });
            assert_eq!(
                out.failed,
                0,
                "{} trace={trace}: {:?}",
                w.name(),
                out.failures
            );
            assert!(out.attempted > 0);
            let emitted: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            let key = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(emitted, declared(&v, key), "{} trace={trace}", w.name());
            if !trace {
                for m in &out.metrics {
                    assert!(m.value > 0.0, "{} {} is {}", w.name(), m.name, m.value);
                }
            }
        }
    }
}
