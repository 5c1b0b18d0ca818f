//! Trained-model suite management with on-disk caching.
//!
//! Training takes simulation time, so each suite is trained once and
//! cached as JSON under the output directory, named by every training
//! input ([`suite_file`]); later commands (and re-runs) load the cache.
//! Delete `<out>/suite-*.json` to force retraining.

use dozznoc_core::{ModelSuite, Trainer};
use dozznoc_ml::{FeatureSet, TrainedModel};
use dozznoc_topology::Topology;

use crate::ctx::Ctx;

/// Load or train the model suite for a configuration.
pub fn suite_for(
    ctx: &Ctx,
    topo: Topology,
    epoch_cycles: u64,
    feature_set: FeatureSet,
) -> ModelSuite {
    let key = suite_file(topo, epoch_cycles, ctx.duration_ns(), ctx.seed, feature_set);
    let path = ctx.cache_path(&key);
    if let Some(suite) = load(&path) {
        eprintln!("  loaded cached models from {}", path.display());
        return suite;
    }
    eprintln!(
        "  training {} suite (epoch {epoch_cycles}, {feature_set})…",
        topo.kind()
    );
    let trainer = trainer_for(ctx, topo, epoch_cycles);
    let suite = ModelSuite::train(&trainer, feature_set);
    save(ctx, &path, &suite);
    suite
}

/// The suite file name: the topology, feature set and every input
/// [`trainer_for`] sets, so a suite trained under other settings is
/// never loaded in their place.
fn suite_file(
    topo: Topology,
    epoch_cycles: u64,
    duration_ns: u64,
    seed: u64,
    feature_set: FeatureSet,
) -> String {
    format!(
        "suite-{}-e{epoch_cycles}-{duration_ns}ns-seed{seed}-{feature_set}.json",
        topo.kind()
    )
}

/// The trainer every experiment shares.
pub fn trainer_for(ctx: &Ctx, topo: Topology, epoch_cycles: u64) -> Trainer {
    Trainer::new(topo)
        .try_with_epoch_cycles(epoch_cycles)
        .expect("experiment epoch sizes are valid")
        .with_duration_ns(ctx.duration_ns())
        .with_seed(ctx.seed)
}

fn load(path: &std::path::Path) -> Option<ModelSuite> {
    let raw = std::fs::read_to_string(path).ok()?;
    let v: serde_json::Value = serde_json::from_str(&raw).ok()?;
    let get =
        |k: &str| -> Option<TrainedModel> { TrainedModel::from_json(&v.get(k)?.to_string()).ok() };
    Some(ModelSuite {
        dozznoc: get("dozznoc")?,
        lead: get("lead")?,
        turbo: get("turbo")?,
    })
}

fn save(ctx: &Ctx, path: &std::path::Path, suite: &ModelSuite) {
    std::fs::create_dir_all(&ctx.out_dir).expect("create results dir");
    let v = serde_json::json!({
        "dozznoc": serde_json::from_str::<serde_json::Value>(&suite.dozznoc.to_json()).unwrap(),
        "lead": serde_json::from_str::<serde_json::Value>(&suite.lead.to_json()).unwrap(),
        "turbo": serde_json::from_str::<serde_json::Value>(&suite.turbo.to_json()).unwrap(),
    });
    std::fs::write(path, serde_json::to_string_pretty(&v).unwrap()).expect("save suite");
    eprintln!("  cached models at {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_training_input_is_in_the_suite_file_name() {
        let mesh = Topology::mesh8x8();
        let base = suite_file(mesh, 500, 4_000, 0, FeatureSet::Reduced5);
        assert_eq!(base, "suite-mesh-e500-4000ns-seed0-reduced-5.json");
        for other in [
            suite_file(Topology::cmesh4x4(), 500, 4_000, 0, FeatureSet::Reduced5),
            suite_file(mesh, 1_000, 4_000, 0, FeatureSet::Reduced5),
            suite_file(mesh, 500, 50_000, 0, FeatureSet::Reduced5),
            suite_file(mesh, 500, 4_000, 1, FeatureSet::Reduced5),
            suite_file(mesh, 500, 4_000, 0, FeatureSet::Full41),
        ] {
            assert_ne!(other, base);
        }
    }
}
