//! The five paper models as a closed enum — a thin compatibility shim
//! over the open [`PolicyRegistry`].
//!
//! `ModelKind` predates the policy plug-in API and is serialized into
//! campaign results, determinism goldens, CSV schemas and cache
//! envelopes, so the enum and its serde form are frozen. Construction,
//! name parsing (including every legacy CLI alias) and display labels
//! all belong to the registry; the only thing still owned here is the
//! slug table, which the corresponding factories adopt as their
//! canonical names. New policies should *not* be added here — register
//! a [`PolicyFactory`](crate::registry::PolicyFactory) instead and work
//! with [`PolicySpec`]s.

use serde::{Deserialize, Serialize};

use crate::registry::{PolicyRegistry, PolicySpec};

/// The five models compared throughout §IV (Figs. 7–8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// No power management at all.
    Baseline,
    /// Power Punch-style gating, M7-only active state.
    PowerGated,
    /// LEAD-τ: ML-driven DVFS, never gated.
    LeadDvfs,
    /// The proposed model: ML + gating + DVFS.
    DozzNoc,
    /// The turbo experiment: DOZZNOC with every third intermediate
    /// prediction forced to M7.
    MlTurbo,
}

/// All five in presentation order (the Fig. 8 bar order).
pub const ALL_MODELS: [ModelKind; 5] = [
    ModelKind::Baseline,
    ModelKind::PowerGated,
    ModelKind::LeadDvfs,
    ModelKind::DozzNoc,
    ModelKind::MlTurbo,
];

impl ModelKind {
    /// The defaults-only [`PolicySpec`] equivalent of this kind — the
    /// bridge from the closed enum into the open policy API. Its slug
    /// equals [`ModelKind::slug`], so cache fingerprints agree between
    /// the two paths.
    pub fn spec(&self) -> PolicySpec {
        PolicySpec::new(self.slug())
    }

    /// Short lowercase name, stable for filenames and CLI round-trips
    /// (each is accepted by [`PolicyRegistry::parse`]).
    pub fn slug(&self) -> &'static str {
        match self {
            ModelKind::Baseline => "baseline",
            ModelKind::PowerGated => "pg",
            ModelKind::LeadDvfs => "lead",
            ModelKind::DozzNoc => "dozznoc",
            ModelKind::MlTurbo => "turbo",
        }
    }

    /// Display name matching the paper's figure legends (owned by the
    /// corresponding registry factory).
    pub fn label(&self) -> &'static str {
        match PolicyRegistry::global().resolve(self.slug()) {
            Ok(factory) => factory.label(),
            Err(_) => self.slug(), // unreachable: every slug is registered
        }
    }
}

impl core::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::PolicyContext;
    use crate::training::{ModelSuite, Trainer};
    use dozznoc_ml::FeatureSet;
    use dozznoc_topology::Topology;

    fn factory_uses_ml(kind: ModelKind) -> bool {
        PolicyRegistry::global()
            .resolve(kind.slug())
            .expect("every paper model is registered")
            .uses_ml()
    }

    #[test]
    fn labels_and_ml_flags() {
        assert!(!factory_uses_ml(ModelKind::Baseline));
        assert!(!factory_uses_ml(ModelKind::PowerGated));
        assert!(factory_uses_ml(ModelKind::LeadDvfs));
        assert!(factory_uses_ml(ModelKind::DozzNoc));
        assert!(factory_uses_ml(ModelKind::MlTurbo));
        assert_eq!(ModelKind::DozzNoc.label(), "DOZZNOC (ML+DVFS+PG)");
        assert_eq!(ALL_MODELS.len(), 5);
    }

    #[test]
    fn policies_instantiate_with_expected_gating() {
        let topo = Topology::mesh8x8();
        let suite = ModelSuite::train(
            &Trainer::new(topo).with_duration_ns(2_000),
            FeatureSet::Reduced5,
        );
        for kind in ALL_MODELS {
            let p = PolicyRegistry::global()
                .build(&kind.spec(), &PolicyContext { suite: &suite })
                .expect("paper-model default spec builds");
            let expect_gating = matches!(
                kind,
                ModelKind::PowerGated | ModelKind::DozzNoc | ModelKind::MlTurbo
            );
            assert_eq!(p.gating_enabled(), expect_gating, "{kind}");
            assert_eq!(p.ml_features().is_some(), factory_uses_ml(kind), "{kind}");
        }
    }

    #[test]
    fn registry_parses_cli_names_to_paper_specs() {
        let parse = |name: &str| PolicyRegistry::global().parse(name).ok();
        assert_eq!(parse("baseline"), Some(ModelKind::Baseline.spec()));
        assert_eq!(parse("pg"), Some(ModelKind::PowerGated.spec()));
        assert_eq!(parse("lead"), Some(ModelKind::LeadDvfs.spec()));
        assert_eq!(parse("DOZZNOC"), Some(ModelKind::DozzNoc.spec()));
        assert_eq!(parse("turbo"), Some(ModelKind::MlTurbo.spec()));
        assert_eq!(parse("nonsense"), None);
        // Aliases come from the registry factories.
        assert_eq!(parse("power-gated"), Some(ModelKind::PowerGated.spec()));
        assert_eq!(parse("lead-tau"), Some(ModelKind::LeadDvfs.spec()));
        assert_eq!(parse("dvfs"), Some(ModelKind::LeadDvfs.spec()));
        assert_eq!(parse("ml-turbo"), Some(ModelKind::MlTurbo.spec()));
        // Registered non-paper policies are no paper model's spec.
        for name in ["online-ridge", "rl-buffer"] {
            let spec = parse(name).expect("registered extension policy");
            assert!(ALL_MODELS.iter().all(|k| k.spec() != spec), "{name}");
        }
    }

    #[test]
    fn spec_bridge_preserves_slugs() {
        for kind in ALL_MODELS {
            assert_eq!(kind.spec().slug(), kind.slug());
            assert_eq!(kind.spec().to_string(), kind.slug());
        }
    }
}
