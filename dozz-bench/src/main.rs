//! `dozz-bench` command line.
//!
//! ```text
//! dozz-bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//! dozz-bench all    [--seed N] [--seconds S] [--trace 0|1]
//! dozz-bench trace  [--seed N] [--seconds S]
//! dozz-bench repeat [--sets K] [--runs R] [--seconds S] [--workload W]
//! dozz-bench bless
//! ```
//!
//! A single run prints a context line and, as its last line, the result
//! object `{"correct", "attempted", "failed", "metrics"}`. `all` runs
//! every workload in its own child process (a clean peak-RSS reading
//! each) and prints one line per workload; `trace` is `all --trace 1`.
//! `repeat` runs K sets of R runs per workload at distinct seeds and
//! checks that the sets' medians agree within each end-to-end metric's
//! bound. `bless` rewrites `expected/seed0.json`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use dozz_bench::check::{self, Expected};
use dozz_bench::metrics::{self, END_TO_END};
use dozz_bench::run::{run, RunConfig};
use dozz_bench::workload::{Size, Workload, WORKLOADS};
use serde_json::Value;

/// Scratch space and span logs, relative to the working directory.
const WORK_ROOT: &str = ".dozz-bench";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("all" | "trace" | "repeat" | "bless")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let code = match parse_flags(rest).and_then(|flags| match command {
        "all" => all(&flags, flags.trace),
        "trace" => all(&flags, true),
        "repeat" => repeat(&flags),
        "bless" => bless(),
        _ => single(&flags),
    }) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dozz-bench: {e}");
            eprintln!(
                "usage: dozz-bench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
                 dozz-bench all|trace|repeat|bless [flags]",
                WORKLOADS.map(Workload::name).join("|")
            );
            2
        }
    };
    std::process::exit(code);
}

struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    runs: usize,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        sets: 2,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                f.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => f.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                f.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                f.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--sets" => f.sets = value.parse().ok().filter(|&n| n >= 2).ok_or_else(bad)?,
            "--runs" => f.runs = value.parse().ok().filter(|&n| n >= 1).ok_or_else(bad)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(f)
}

fn work_dir(w: Workload, seed: u64) -> PathBuf {
    PathBuf::from(WORK_ROOT).join(format!("{}-s{seed}-{}", w.name(), std::process::id()))
}

/// One run in this process: the form a benchmark harness calls.
fn single(f: &Flags) -> Result<i32, String> {
    let w = f.workload.ok_or("--workload is required")?;
    let cfg = RunConfig {
        workload: w,
        seed: f.seed,
        seconds: f.seconds,
        trace: f.trace,
        size: Size::BENCH,
        work_dir: work_dir(w, f.seed),
    };
    let out = run(&cfg);
    for (label, reason) in &out.failures {
        eprintln!("dozz-bench: {label}: {reason}");
    }
    if f.trace {
        write_spans(w, f.seed, &out.spans);
    }
    println!(
        "{}",
        Value::Object(vec![("dozz_bench".into(), out.context)])
    );
    println!(
        "{}",
        metrics::result_line(out.attempted, out.failed, &out.metrics)
    );
    Ok(0)
}

/// Write the span log of a traced run, one JSON object per line.
fn write_spans(w: Workload, seed: u64, spans: &[dozz_bench::timing::Span]) {
    let mut text = String::new();
    for s in spans {
        let line = serde_json::json!({
            "id": s.id,
            "parent": s.parent.map_or(Value::Null, |p| serde_json::json!(p)),
            "layer": s.layer.name(),
            "start_ns": s.start_ns,
            "end_ns": s.end_ns,
        });
        text.push_str(&line.to_string());
        text.push('\n');
    }
    let path = PathBuf::from(WORK_ROOT).join(format!("spans-{}-s{seed}.jsonl", w.name()));
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("dozz-bench: spans in {}", path.display()),
        Err(e) => eprintln!("dozz-bench: cannot write {}: {e}", path.display()),
    }
}

/// Run one workload in a child process; returns its context and result
/// lines.
fn child(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", w.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev().filter(|l| !l.trim().is_empty());
    let mut parse = || -> Result<Value, String> {
        let line = lines.next().ok_or("missing output line")?;
        serde_json::from_str(line).map_err(|e| e.to_string())
    };
    let result = parse()?;
    let context = parse()?;
    Ok((context, result))
}

fn all(f: &Flags, trace: bool) -> Result<i32, String> {
    let mut code = 0;
    for w in WORKLOADS {
        let (context, result) = child(w, f.seed, f.seconds, trace)?;
        if result["correct"].as_bool() != Some(true) {
            code = 1;
        }
        let line = Value::Object(vec![
            ("workload".into(), Value::String(w.name().into())),
            ("context".into(), context),
            ("result".into(), result),
        ]);
        println!("{line}");
    }
    Ok(code)
}

/// K sets of R plain runs per workload at distinct seeds; the sets'
/// medians must agree within every end-to-end metric's bound, and within
/// each set every metric but `setup_s` must spread (IQR / median) less
/// than its bound.
fn repeat(f: &Flags) -> Result<i32, String> {
    let workloads = f.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let mut code = 0;
    for w in workloads {
        let mut values: BTreeMap<&str, Vec<Vec<f64>>> = BTreeMap::new();
        for set in 0..f.sets {
            for r in 0..f.runs {
                let seed = (set * f.runs + r) as u64;
                let (_, result) = child(w, seed, f.seconds, false)?;
                if result["correct"].as_bool() != Some(true) {
                    eprintln!("dozz-bench: {} seed {seed} incorrect", w.name());
                    code = 1;
                }
                for m in &END_TO_END {
                    let v = result["metrics"][m.name]["value"]
                        .as_f64()
                        .ok_or_else(|| format!("{} missing {}", w.name(), m.name))?;
                    let sets = values.entry(m.name).or_default();
                    sets.resize(f.sets, Vec::new());
                    sets[set].push(v);
                }
            }
        }
        for m in &END_TO_END {
            let sets = &values[m.name];
            let medians: Vec<f64> = sets.iter().map(|s| metrics::median(s)).collect();
            let worst = medians[1..]
                .iter()
                .map(|&later| metrics::worsening(m.better, medians[0], later))
                .fold(f64::NEG_INFINITY, f64::max);
            let spreads: Vec<f64> = sets.iter().map(|s| metrics::spread(s)).collect();
            let widest = spreads.iter().copied().fold(0.0, f64::max);
            let ok = worst <= m.bound && (m.name == "setup_s" || widest <= m.bound);
            if !ok {
                code = 1;
            }
            let line = serde_json::json!({
                "workload": w.name(),
                "metric": m.name,
                "set_medians": medians,
                "worst_change": worst,
                "set_spreads": spreads,
                "bound": m.bound,
                "values": sets,
                "ok": ok,
            });
            println!("{line}");
        }
    }
    Ok(code)
}

/// Rewrite `expected/seed0.json` from one pass of every workload at
/// seed 0.
fn bless() -> Result<i32, String> {
    let mut expected = Expected::new();
    for w in WORKLOADS {
        let out = run(&RunConfig {
            workload: w,
            seed: 0,
            seconds: 0.0,
            trace: false,
            size: Size::BENCH,
            work_dir: work_dir(w, 0),
        });
        eprintln!(
            "dozz-bench: blessed {} cells of {}",
            out.digests.len(),
            w.name()
        );
        expected.insert(w.name().to_string(), out.digests);
    }
    let path = check::expected_path();
    std::fs::write(&path, check::render_expected(&expected))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("dozz-bench: wrote {}", path.display());
    Ok(0)
}
