//! The extension commands run on the cell engine: their CSVs do not
//! depend on the worker count or on the run cache's state, and a cell
//! another command already simulated replays from the cache.
//!
//! Each test drives the `dozz-repro` binary at `--quick` into its own
//! output directory and reads the `run cache:` lines it logs to stderr.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Run `dozz-repro <command> --quick --jobs <jobs> --out <out>` and
/// return its stderr.
fn repro(command: &str, jobs: usize, out: &Path) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_dozz-repro"))
        .args([command, "--quick", "--jobs", &jobs.to_string(), "--out"])
        .arg(out)
        .output()
        .expect("dozz-repro starts");
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    assert!(output.status.success(), "{command} failed:\n{stderr}");
    stderr
}

/// The `(replayed, simulated)` counts of every `run cache:` line in a
/// command's stderr, e.g. `run cache: 3/10 cells replayed, 7 simulated`.
fn cache_counts(stderr: &str) -> Vec<(usize, usize)> {
    stderr
        .lines()
        .filter_map(|line| line.split("run cache: ").nth(1))
        .map(|rest| {
            let (replayed, rest) = rest.split_once('/').expect("replayed/cells");
            let simulated = rest
                .split(", ")
                .nth(1)
                .and_then(|s| s.split(' ').next())
                .expect("simulated count");
            (
                replayed.parse().expect("replayed count"),
                simulated.parse().expect("simulated count"),
            )
        })
        .collect()
}

/// An empty output directory under Cargo's per-test scratch space.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear the previous run's output");
    }
    dir
}

#[test]
fn routing_csv_is_identical_across_jobs_and_cache_states() {
    let mut csvs = Vec::new();
    for jobs in [1, 2] {
        let out = fresh_dir(&format!("routing-jobs{jobs}"));
        let cold = cache_counts(&repro("routing", jobs, &out));
        assert_eq!(cold.len(), 2, "one campaign per routing order: {cold:?}");
        assert!(
            cold.iter().all(|&(hits, sims)| hits == 0 && sims == 10),
            "{cold:?}"
        );
        csvs.push(fs::read(out.join("routing_sensitivity.csv")).expect("cold CSV"));

        let warm = cache_counts(&repro("routing", jobs, &out));
        assert!(
            warm.iter().all(|&(hits, sims)| hits == 10 && sims == 0),
            "{warm:?}"
        );
        csvs.push(fs::read(out.join("routing_sensitivity.csv")).expect("warm CSV"));
    }
    for csv in &csvs[1..] {
        assert_eq!(csv, &csvs[0], "routing CSV differs across jobs/cache state");
    }
}

#[test]
fn transition_cost_replays_the_headline_cells() {
    let out = fresh_dir("headline-then-transition-cost");
    repro("headline", 2, &out);
    let counts = cache_counts(&repro("transition-cost", 2, &out));
    assert_eq!(
        counts,
        [(15, 0)],
        "every transition-cost cell is a headline cell"
    );
}
