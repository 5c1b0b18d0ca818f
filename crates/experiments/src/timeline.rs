//! `dozz-repro timeline` — per-router mode/energy time-series for one
//! (benchmark, policy) cell, captured through the telemetry subsystem.
//!
//! Runs the selected policy over the selected benchmark trace with an
//! in-memory [`TimelineSink`], then writes two CSVs under `--out`:
//!
//! * `timeline_<bench>_<policy>.csv` — one row per router per epoch:
//!   mode, IBU, off-fraction, flit counts, and the energy spent in that
//!   epoch split by component;
//! * `timeline_<bench>_<policy>_transitions.csv` — one row per power
//!   transition (gate-off, wakeup start/done, mode switch) with its
//!   tick timestamp.
//!
//! `--model` accepts a paper model by name or alias (`dozznoc`,
//! `power-gated`, …). Any other name exits 2 with the registry's full
//! name listing instead of panicking.

use dozznoc_core::{run_policy_with_telemetry, ModelSuite, PolicyRegistry, PolicySpec};
use dozznoc_ml::{FeatureSet, TrainedModel};
use dozznoc_noc::TimelineSink;
use dozznoc_topology::Topology;
use dozznoc_traffic::Benchmark;

use crate::ctx::{banner, Ctx};
use crate::suite::suite_for;

/// Parse `--model` against the policy registry, exiting with the full
/// name/alias listing on failure (the registry's `PolicyError` renders
/// it).
fn parse_policy(name: &str) -> PolicySpec {
    match PolicyRegistry::global().parse(name) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// A suite of do-nothing models for the non-ML policies, so `timeline
/// --model baseline` does not pay for training it will never consult.
fn untrained_suite() -> ModelSuite {
    let zero = TrainedModel::new(FeatureSet::Reduced5, vec![0.0; 5], 500, 0.0, 0.0);
    ModelSuite {
        dozznoc: zero.clone(),
        lead: zero.clone(),
        turbo: zero,
    }
}

/// Capture and write the time-series for one (benchmark, policy) cell.
pub fn run(ctx: &Ctx) {
    let bench = ctx.bench.unwrap_or(Benchmark::Blackscholes);
    let registry = PolicyRegistry::global();
    let spec = parse_policy(ctx.model.as_deref().unwrap_or("dozznoc"));
    let factory = registry
        .resolve(spec.name())
        .expect("parsed specs resolve by construction");

    banner(&format!(
        "Timeline — {} on {} (8×8 mesh, epoch 500)",
        factory.label(),
        bench.name()
    ));
    let topo = Topology::mesh8x8();
    let suite = if factory.uses_ml() {
        suite_for(ctx, topo, 500, FeatureSet::Reduced5)
    } else {
        untrained_suite()
    };
    let campaign = ctx.campaign(topo);
    let trace = campaign.trace(bench);

    let mut sink = TimelineSink::new();
    let cfg = campaign.config();
    let report = match run_policy_with_telemetry(cfg, &trace, &spec, registry, &suite, &mut sink) {
        Ok(report) => report,
        Err(e) => {
            // Parameters surface here: the paper policies take none
            // (the name was already validated by parse_policy).
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let epoch_rows: Vec<String> = sink
        .epochs
        .iter()
        .map(|s| {
            format!(
                "{},{},{},{},{:.6},{:.6},{},{},{},{:.6e},{:.6e},{:.6e},{:.6e},{:.6e}",
                s.router.idx(),
                s.epoch,
                s.cycles,
                s.mode.index(),
                s.ibu,
                s.off_fraction,
                s.flits_injected,
                s.flits_ejected,
                s.hops,
                s.energy.static_j,
                s.energy.dynamic_j,
                s.energy.ml_j,
                s.energy.transition_j,
                s.energy.total_j(),
            )
        })
        .collect();
    ctx.write_csv(
        &format!("timeline_{}_{}.csv", bench.name(), spec.name()),
        "router,epoch,cycles,mode,ibu,off_fraction,flits_injected,flits_ejected,hops,static_j,dynamic_j,ml_j,transition_j,total_j",
        &epoch_rows,
    );

    let transition_rows: Vec<String> = sink
        .transitions
        .iter()
        .map(|e| format!("{},{},{}", e.at.ticks(), e.router.idx(), e.kind.tag()))
        .collect();
    ctx.write_csv(
        &format!("timeline_{}_{}_transitions.csv", bench.name(), spec.name()),
        "tick,router,event",
        &transition_rows,
    );

    println!(
        "{} epochs across {} routers, {} transitions",
        sink.epochs.len(),
        topo.num_routers(),
        sink.transitions.len()
    );
    println!(
        "injected {} / ejected {} flits, {:.3} µJ total ({:.1} % time gated off)",
        sink.total_injected(),
        sink.total_ejected(),
        sink.total_energy_j() * 1e6,
        report.energy.off_fraction() * 100.0
    );
}
