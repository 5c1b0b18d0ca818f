//! `dozz-repro` — regenerate every table and figure of the DozzNoC paper.
//!
//! ```text
//! dozz-repro <command> [--quick] [--out DIR] [--seed N] [--jobs N] [--no-cache]
//! ```
//!
//! The commands are the rows of [`COMMANDS`]; `dozz-repro help` lists
//! them. `--quick` shortens traces (4 µs instead of 50 µs) for smoke
//! runs. Campaign matrices run on `--jobs N` worker threads (default:
//! every available core) and replay previously simulated cells from the
//! content-addressed run cache under `<out>/.runcache/`; `--no-cache`
//! forces every cell to simulate. Results print as paper-style rows and
//! are also written as CSV under `--out` (default `results/`).

mod ablations;
mod check;
mod ctx;
mod engine;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod headline;
mod latency;
mod overhead;
mod scale;
mod suite;
mod sweep;
mod tables;
mod timeline;

use ctx::Ctx;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let ctx = match Ctx::from_args(&args[1.min(args.len())..]) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("{e}\n{}", help());
            std::process::exit(2);
        }
    };

    #[allow(
        clippy::disallowed_types,
        reason = "the CLI prints its own elapsed wall time; simulation never reads it"
    )]
    let started = std::time::Instant::now();
    if matches!(command, "help" | "--help" | "-h") {
        eprint!("{}", help());
        return;
    }
    let Some(&(_, _, run, _)) = COMMANDS.iter().find(|c| c.0 == command) else {
        eprintln!("unknown command `{command}`\n{}", help());
        std::process::exit(2);
    };
    run(&ctx);
    eprintln!("\n[{command} finished in {:.1?}]", started.elapsed());
}

/// A command: its name, its `help` line, its entry point and whether
/// `all` runs it.
type Command = (&'static str, &'static str, fn(&Ctx), bool);

/// Every command, in the order `all` runs them and `help` lists them.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    ("table1", "LDO dropout ranges (Table I)", tables::table1, true),
    ("table2", "measured switch-latency matrix (Table II)", tables::table2, true),
    ("table3", "T-Switch/T-Wakeup/T-Breakeven cycle costs (Table III)", tables::table3, true),
    ("table4", "the reduced feature set (Table IV)", tables::table4, true),
    ("table5", "DSENT static/dynamic cost model (Table V)", tables::table5, true),
    ("fig5", "LDO transient waveforms (Fig. 5)", fig5::run, true),
    ("fig6", "SIMO vs baseline power efficiency (Fig. 6)", fig6::run, true),
    ("overhead", "ML label-generation overhead (§III-D)", overhead::run, true),
    ("fig7", "DVFS mode distribution per benchmark (Fig. 7)", fig7::run, true),
    ("fig8", "throughput + normalized energy, compressed & uncompressed (Fig. 8)", fig8::run, true),
    ("fig9", "single-feature mode-selection accuracy (Fig. 9)", fig9::run, true),
    ("headline", "§IV-B summary numbers, mesh + cmesh", headline::run, true),
    ("ablation-features", "DOZZNOC-5 vs DOZZNOC-41 (§IV-B.1)", headline::ablation_features, true),
    ("ablation-gating", "wake-punch and T-Idle mechanism ablations", ablations::gating, true),
    ("scale", "8×8-trained model on 4×4…16×16 meshes", scale::run, true),
    ("latency", "network-latency percentiles per model", latency::run, true),
    ("transition-cost", "rail-transition energy vs the savings lost", overhead::transitions, true),
    ("routing", "XY vs YX dimension-order sensitivity", ablations::routing, true),
    ("sweep-epoch", "epoch-size sweep 100–1000 (§IV-B)", sweep::run, true),
    ("timeline", "per-router mode/energy time-series via telemetry", timeline::run, false),
    ("check", "run the evaluation matrix under the invariant sanitizer", check::run, false),
    ("all", "every command above but timeline and check, one training pass", all, false),
];

fn all(ctx: &Ctx) {
    for &(_, _, run, in_all) in COMMANDS {
        if in_all {
            run(ctx);
        }
    }
}

fn help() -> String {
    let mut help = String::from(
        "\
dozz-repro — regenerate the DozzNoC paper's tables and figures

usage: dozz-repro <command> [--quick] [--out DIR] [--seed N] [--jobs N] [--no-cache]
       dozz-repro timeline [--bench NAME] [--model NAME] [flags above]
       dozz-repro check [--bench NAME] [flags above]

--model names one paper model: baseline, pg (powergated, power-gated),
lead (lead-tau, dvfs), dozznoc, turbo (ml-turbo).

campaign matrices run on --jobs N workers (default: all cores) with a
content-addressed run cache under <out>/.runcache/; --no-cache forces
every cell to simulate.

commands:
",
    );
    for (name, about, _, _) in COMMANDS {
        help.push_str(&format!("  {name:<19}{about}\n"));
    }
    help
}
