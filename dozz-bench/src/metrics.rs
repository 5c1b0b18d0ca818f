//! The metric catalogue (kept equal to `BENCHMARK.json` by a test) and
//! the order statistics behind it.

use serde_json::Value;

/// Which direction of an end-to-end metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the reproduction sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Reported by every plain run (`--trace 0`), on every workload. The
/// host-time bounds sit at 0.25: on a shared 2-core VM the speed of a
/// fixed compute loop alone varied by ±15 % between runs (see
/// `README.md`).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "pass_min_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_ticks_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_pass",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Reported by every traced run (`--trace 1`), on every workload.
/// Times and counts are per traced pass unless the name says otherwise.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("setup.traffic_ms", "ms"),
    ("setup.training_ms", "ms"),
    ("traffic.gen_ms", "ms"),
    ("traffic.packets", "count"),
    ("traffic.ns_per_packet", "ns"),
    ("training.ms", "ms"),
    ("training.suites", "count"),
    ("policy.builds", "count"),
    ("policy.build_ms", "ms"),
    ("policy.decisions", "count"),
    ("policy.decide_ms", "ms"),
    ("policy.ns_per_decision", "ns"),
    ("noc.runs", "count"),
    ("noc.sim_ms", "ms"),
    ("noc.sim_ticks", "count"),
    ("noc.flit_hops", "count"),
    ("noc.epochs", "count"),
    ("noc.transitions", "count"),
    ("noc.ns_per_sim_tick", "ns"),
    ("noc.ns_per_flit_hop", "ns"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.stores", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.get_ms", "ms"),
    ("cache.put_ms", "ms"),
    ("engine.cells", "count"),
    ("engine.span_ms", "ms"),
    ("engine.cell_p50_ms", "ms"),
    ("engine.cell_p75_ms", "ms"),
    ("engine.other_ms", "ms"),
    ("report.ms", "ms"),
    ("sanitizer.violations", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.passes", "count"),
    ("plain.passes", "count"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Catalogue unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// The result object the benchmark prints as its last line.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> Value {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::Object(vec![
                    ("value".into(), serde_json::json!(m.value)),
                    ("unit".into(), serde_json::json!(m.unit)),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0 && attempted > 0)),
        ("attempted".into(), serde_json::json!(attempted)),
        ("failed".into(), serde_json::json!(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

/// Quartiles `[q1, q2, q3]` by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive"), so
/// `repeat` reports the spreads the same way they are judged. One value
/// is its own quartiles; an empty slice gives zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        n => {
            let m = n + 1;
            let mut out = [0.0; 3];
            for (i, q) in out.iter_mut().enumerate() {
                let num = (i + 1) * m;
                // Python clamps j first, so delta may leave 0..=4 and
                // extrapolate at the ends of short samples.
                let j = (num / 4).clamp(1, n - 1);
                let delta = num as f64 - (j * 4) as f64;
                *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            out
        }
    }
}

/// The median (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// How much worse `new` is than `old` in `better`'s direction, as a
/// share of `old` (negative when it improved).
pub fn worsening(better: Better, old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - old) / old.abs(),
        Better::Higher => (old - new) / old.abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            3,
            0,
            &[Metric {
                name: "setup_s",
                unit: "s",
                value: 0.5,
            }],
        );
        let Value::Object(fields) = &line else {
            panic!("object expected");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line["correct"].as_bool(), Some(true));
        assert_eq!(line["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert!(result_line(0, 0, &[])["correct"].as_bool() == Some(false));
    }
}
