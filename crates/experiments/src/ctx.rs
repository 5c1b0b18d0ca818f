//! Shared experiment context: output directory, quick mode, seed,
//! engine parallelism and run-cache control.

use std::fs;
use std::io::Write;
use std::num::NonZeroUsize;
use std::path::PathBuf;

use dozznoc_core::{Campaign, EngineOptions, RunCache};
use dozznoc_topology::Topology;
use dozznoc_traffic::{Benchmark, ALL_BENCHMARKS};

/// Parsed command-line context shared by every experiment.
pub struct Ctx {
    /// Output directory for CSV artifacts.
    pub out_dir: PathBuf,
    /// Quick mode: short traces for smoke runs.
    pub quick: bool,
    /// Trace-generator seed.
    pub seed: u64,
    /// Benchmark selector (`--bench`), for commands that run one trace.
    pub bench: Option<Benchmark>,
    /// Model selector (`--model`), for commands that run one policy.
    pub model: Option<String>,
    /// Worker threads for campaign matrices (`--jobs N`). `None` uses
    /// every available core.
    pub jobs: Option<NonZeroUsize>,
    /// Disable the content-addressed run cache (`--no-cache`): every
    /// cell simulates even when a stored report exists.
    pub no_cache: bool,
}

impl Ctx {
    /// Parse `--quick`, `--out DIR`, `--seed N`, `--bench NAME`,
    /// `--model NAME`, `--jobs N`, `--no-cache` from the argument list.
    /// A bad argument is a one-line error message.
    pub fn from_args(args: &[String]) -> Result<Ctx, String> {
        let mut ctx = Ctx {
            out_dir: PathBuf::from("results"),
            quick: false,
            seed: 0,
            bench: None,
            model: None,
            jobs: None,
            no_cache: false,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("{a} needs {what}"))
            };
            match a.as_str() {
                "--quick" => ctx.quick = true,
                "--no-cache" => ctx.no_cache = true,
                "--out" => ctx.out_dir = PathBuf::from(value("a directory argument")?),
                "--seed" => {
                    let v = value("an integer")?;
                    ctx.seed = v
                        .parse()
                        .map_err(|_| format!("--seed needs an integer, got `{v}`"))?;
                }
                "--jobs" => {
                    let v = value("a worker count")?;
                    ctx.jobs = Some(
                        v.parse()
                            .map_err(|_| format!("--jobs needs a positive integer, got `{v}`"))?,
                    );
                }
                "--bench" => ctx.bench = Some(parse_bench(value("a benchmark name")?)?),
                "--model" => ctx.model = Some(value("a model name")?.to_string()),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(ctx)
    }

    /// Trace horizon in nanoseconds (shortened by `--quick`).
    pub fn duration_ns(&self) -> u64 {
        if self.quick {
            4_000
        } else {
            50_000
        }
    }

    /// A campaign over `topo` at the paper's defaults, on this run's
    /// trace horizon and seed.
    pub fn campaign(&self, topo: Topology) -> Campaign {
        Campaign::new(topo)
            .with_duration_ns(self.duration_ns())
            .with_seed(self.seed)
    }

    /// The run cache campaign commands share, under
    /// `<out>/.runcache/` — or `None` with `--no-cache`.
    pub fn run_cache(&self) -> Option<RunCache> {
        (!self.no_cache).then(|| RunCache::open(self.out_dir.join(".runcache")))
    }

    /// Engine options for a campaign run: `--jobs` workers and the
    /// given cache handle.
    pub fn engine_opts<'a>(&self, cache: Option<&'a RunCache>) -> EngineOptions<'a> {
        EngineOptions {
            jobs: self.jobs,
            cache,
            sanitize: false,
            measure: false,
        }
    }

    /// Write a CSV artifact, creating the output directory on demand.
    pub fn write_csv(&self, name: &str, header: &str, rows: &[String]) {
        fs::create_dir_all(&self.out_dir)
            .unwrap_or_else(|e| panic!("cannot create {:?}: {e}", self.out_dir));
        let path = self.out_dir.join(name);
        let mut f =
            fs::File::create(&path).unwrap_or_else(|e| panic!("cannot create {path:?}: {e}"));
        writeln!(f, "{header}").expect("csv write");
        for row in rows {
            writeln!(f, "{row}").expect("csv write");
        }
        eprintln!("  wrote {}", path.display());
    }

    /// Path for cached artifacts (trained model suites).
    pub fn cache_path(&self, name: &str) -> PathBuf {
        self.out_dir.join(name)
    }
}

/// Resolve a `--bench` name (case-insensitive) among all fourteen
/// benchmarks.
fn parse_bench(name: &str) -> Result<Benchmark, String> {
    ALL_BENCHMARKS
        .iter()
        .copied()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let known: Vec<&str> = ALL_BENCHMARKS.iter().map(|b| b.name()).collect();
            format!("unknown benchmark `{name}` (known: {})", known.join(", "))
        })
}

/// Print a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Ctx, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Ctx::from_args(&args)
    }

    #[test]
    fn every_flag_parses() {
        let ctx = parse(&[
            "--quick",
            "--no-cache",
            "--out",
            "o",
            "--seed",
            "7",
            "--jobs",
            "3",
            "--bench",
            "FFT",
            "--model",
            "pg",
        ])
        .expect("valid arguments");
        assert!(ctx.quick && ctx.no_cache);
        assert_eq!(ctx.out_dir, PathBuf::from("o"));
        assert_eq!(ctx.seed, 7);
        assert_eq!(ctx.jobs, NonZeroUsize::new(3));
        assert_eq!(ctx.bench, Some(Benchmark::Fft));
        assert_eq!(ctx.model.as_deref(), Some("pg"));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = parse(&["--fast"]).err().expect("unknown flag rejected");
        assert_eq!(err, "unknown flag `--fast`");
    }

    #[test]
    fn missing_values_are_errors() {
        for flag in ["--out", "--seed", "--jobs", "--bench", "--model"] {
            let err = parse(&["--quick", flag])
                .err()
                .expect("missing value rejected");
            assert!(err.starts_with(&format!("{flag} needs ")), "{flag}: {err}");
        }
    }

    #[test]
    fn non_integer_seed_is_an_error() {
        let err = parse(&["--seed", "x1"]).err().expect("bad seed rejected");
        assert_eq!(err, "--seed needs an integer, got `x1`");
    }

    #[test]
    fn zero_jobs_is_an_error() {
        let err = parse(&["--jobs", "0"])
            .err()
            .expect("zero workers rejected");
        assert_eq!(err, "--jobs needs a positive integer, got `0`");
    }

    #[test]
    fn unknown_bench_is_an_error() {
        let err = parse(&["--bench", "doom"])
            .err()
            .expect("unknown bench rejected");
        assert!(
            err.starts_with("unknown benchmark `doom` (known: "),
            "{err}"
        );
    }
}
