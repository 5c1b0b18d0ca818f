//! The policy API: registry-backed [`PowerPolicy`] construction.
//!
//! * a [`PolicyFactory`] names one policy (canonical slug + aliases),
//!   documents it, and builds instances for a [`PolicySpec`];
//! * a [`PolicyRegistry`] owns an ordered set of factories, resolves
//!   names and aliases, and constructs policies;
//! * a [`PolicySpec`] is a canonical policy name, and its
//!   [`PolicySpec::slug`] is the cell's run-cache key component.
//!
//! [`PolicyRegistry::global`] holds exactly the five paper models of
//! §IV, one [`ModelKind`](crate::ModelKind) each, in Fig. 8 bar order;
//! their names, aliases and labels come from one table
//! (`policy/factories.rs`). A caller that needs other factories builds
//! its own registry from [`PolicyRegistry::empty`]: the benchmark wraps
//! every global factory to time the policies it builds, and
//! `tests/policy_plugin.rs` registers a plug-in beside such wrappers.
//!
//! ## Determinism contract
//!
//! A built policy must be a pure function of its spec and build
//! context: same spec + same suite ⇒ bit-identical decisions. Nothing
//! may come from ambient entropy, which is what lets the work-stealing
//! engine replay any cell from the run cache bit-identically at any job
//! count.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use dozznoc_noc::PowerPolicy;

use crate::training::ModelSuite;

/// Why a policy lookup or construction failed. [`core::fmt::Display`]
/// output is CLI-grade: the `Unknown` variant lists every registered
/// name and alias so a typo is self-correcting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// No registered factory answers to this name.
    Unknown {
        /// The name that failed to resolve.
        name: String,
        /// All registered names and aliases, comma-joined.
        known: String,
    },
    /// `register` would shadow an existing name or alias.
    Duplicate {
        /// The colliding name.
        name: String,
    },
}

impl core::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PolicyError::Unknown { name, known } => {
                write!(f, "unknown policy '{name}'; known: {known}")
            }
            PolicyError::Duplicate { name } => {
                write!(f, "policy name or alias '{name}' is already registered")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// A policy, by canonical name. This is what campaigns schedule, what
/// the run cache keys on, and what `--model` parses into.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PolicySpec {
    name: String,
}

impl PolicySpec {
    /// The spec for `name`.
    pub fn new(name: impl Into<String>) -> Self {
        PolicySpec { name: name.into() }
    }

    /// The canonical policy name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The spec's stable identity string: the policy name, which is the
    /// cell's run-cache key component and file-name stem.
    pub fn slug(&self) -> String {
        self.name.clone()
    }
}

impl core::fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.name)
    }
}

/// Everything a factory may consult while building: today the trained
/// [`ModelSuite`] (only the ML factories read it). Additional fields can
/// grow here without touching any factory signature.
#[derive(Debug, Clone, Copy)]
pub struct PolicyContext<'a> {
    /// The campaign's trained models.
    pub suite: &'a ModelSuite,
}

/// One registrable policy: identity, documentation, and construction.
///
/// Implementations must be stateless (`Send + Sync`, shared by every
/// worker of a scheduled campaign); per-run state belongs to the built
/// [`PowerPolicy`]. `build` is called once per campaign cell.
pub trait PolicyFactory: Send + Sync {
    /// Canonical lowercase slug (stable: file names, CSV rows and cache
    /// keys embed it).
    fn name(&self) -> &'static str;

    /// Alternate CLI spellings. Must not collide with any other
    /// registered name or alias.
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// Display name for reports and figure legends.
    fn label(&self) -> &'static str {
        self.name()
    }

    /// One-line description for `--help`-style listings.
    fn description(&self) -> &'static str;

    /// Whether built policies consult the trained suite (callers may
    /// skip training when nothing in a campaign needs it).
    fn uses_ml(&self) -> bool {
        false
    }

    /// Construct one policy instance for `spec`. Failure is a
    /// [`PolicyError`], never a panic: factories run inside campaign
    /// workers.
    fn build(
        &self,
        spec: &PolicySpec,
        ctx: &PolicyContext<'_>,
    ) -> Result<Box<dyn PowerPolicy>, PolicyError>;
}

/// An ordered set of [`PolicyFactory`]s. Registration order is
/// presentation order.
pub struct PolicyRegistry {
    factories: Vec<Box<dyn PolicyFactory>>,
}

impl PolicyRegistry {
    /// An empty registry, for a caller-composed policy set.
    pub fn empty() -> Self {
        PolicyRegistry {
            factories: Vec::new(),
        }
    }

    /// The five paper models in Fig. 8 bar order: the registry the
    /// campaign engine, the CLI and [`ModelKind`](crate::ModelKind)
    /// resolve against.
    pub fn global() -> &'static PolicyRegistry {
        static GLOBAL: OnceLock<PolicyRegistry> = OnceLock::new();
        GLOBAL.get_or_init(|| PolicyRegistry {
            factories: crate::policy::paper_factories(),
        })
    }

    /// Add a factory. Fails (registry unchanged) when its name or any
    /// alias — compared case-insensitively — is already taken.
    pub fn register(&mut self, factory: Box<dyn PolicyFactory>) -> Result<(), PolicyError> {
        let mut candidates = vec![factory.name()];
        candidates.extend_from_slice(factory.aliases());
        for cand in candidates {
            if self.resolve(cand).is_ok() {
                return Err(PolicyError::Duplicate {
                    name: cand.to_string(),
                });
            }
        }
        self.factories.push(factory);
        Ok(())
    }

    /// Registered factories in registration order.
    pub fn factories(&self) -> impl Iterator<Item = &dyn PolicyFactory> {
        self.factories.iter().map(Box::as_ref)
    }

    /// Canonical names in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.factories.iter().map(|f| f.name()).collect()
    }

    /// One spec per registered policy, in registration order.
    pub fn default_specs(&self) -> Vec<PolicySpec> {
        self.factories
            .iter()
            .map(|f| PolicySpec::new(f.name()))
            .collect()
    }

    /// Every accepted spelling, `name (alias, alias)`-formatted — the
    /// "known:" list of [`PolicyError::Unknown`].
    pub fn known_names(&self) -> String {
        let mut parts = Vec::with_capacity(self.factories.len());
        for f in &self.factories {
            if f.aliases().is_empty() {
                parts.push(f.name().to_string());
            } else {
                parts.push(format!("{} ({})", f.name(), f.aliases().join(", ")));
            }
        }
        parts.join(", ")
    }

    /// Find the factory answering to `name` (canonical or alias,
    /// case-insensitive).
    pub fn resolve(&self, name: &str) -> Result<&dyn PolicyFactory, PolicyError> {
        let wanted = name.to_ascii_lowercase();
        self.factories
            .iter()
            .find(|f| {
                f.name() == wanted || f.aliases().iter().any(|a| a.eq_ignore_ascii_case(&wanted))
            })
            .map(Box::as_ref)
            .ok_or_else(|| PolicyError::Unknown {
                name: name.to_string(),
                known: self.known_names(),
            })
    }

    /// Resolve a CLI policy name or alias into its canonical
    /// [`PolicySpec`].
    pub fn parse(&self, input: &str) -> Result<PolicySpec, PolicyError> {
        Ok(PolicySpec::new(self.resolve(input)?.name()))
    }

    /// Build a policy for `spec` against `ctx`.
    pub fn build(
        &self,
        spec: &PolicySpec,
        ctx: &PolicyContext<'_>,
    ) -> Result<Box<dyn PowerPolicy>, PolicyError> {
        self.resolve(spec.name())?.build(spec, ctx)
    }
}

impl core::fmt::Debug for PolicyRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PolicyRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelKind, ALL_MODELS};
    use crate::training::Trainer;
    use dozznoc_ml::FeatureSet;
    use dozznoc_topology::Topology;

    #[test]
    fn global_registry_is_the_paper_table() {
        let expected: [(ModelKind, &str, &[&str], &str, bool); 5] = [
            (ModelKind::Baseline, "baseline", &[], "Baseline", false),
            (
                ModelKind::PowerGated,
                "pg",
                &["powergated", "power-gated"],
                "PG",
                false,
            ),
            (
                ModelKind::LeadDvfs,
                "lead",
                &["lead-tau", "dvfs"],
                "ML+DVFS (LEAD-tau)",
                true,
            ),
            (
                ModelKind::DozzNoc,
                "dozznoc",
                &[],
                "DOZZNOC (ML+DVFS+PG)",
                true,
            ),
            (ModelKind::MlTurbo, "turbo", &["ml-turbo"], "ML+TURBO", true),
        ];
        let r = PolicyRegistry::global();
        assert_eq!(r.factories().count(), expected.len());
        for (f, (kind, name, aliases, label, uses_ml)) in r.factories().zip(expected) {
            assert_eq!(
                (f.name(), f.aliases(), f.label(), f.uses_ml()),
                (name, aliases, label, uses_ml)
            );
            assert_eq!((kind.slug(), kind.label()), (name, label));
            assert_eq!(
                (kind.spec().slug(), kind.spec().to_string()),
                (name.into(), name.into())
            );
            assert_eq!(r.parse(name), Ok(kind.spec()));
            for alias in aliases {
                assert_eq!(r.parse(alias), Ok(kind.spec()), "{alias}");
            }
        }
        assert_eq!(r.default_specs(), ALL_MODELS.map(|k| k.spec()));
    }

    #[test]
    fn unknown_policy_error_lists_the_field() {
        let msg = PolicyRegistry::global()
            .parse("nonsense")
            .unwrap_err()
            .to_string();
        assert_eq!(
            msg,
            "unknown policy 'nonsense'; known: baseline, pg (powergated, power-gated), \
             lead (lead-tau, dvfs), dozznoc, turbo (ml-turbo)"
        );
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        struct Dup(&'static str);
        impl PolicyFactory for Dup {
            fn name(&self) -> &'static str {
                self.0
            }
            fn aliases(&self) -> &'static [&'static str] {
                &["Power-Gated"]
            }
            fn description(&self) -> &'static str {
                "shadow"
            }
            fn build(
                &self,
                _spec: &PolicySpec,
                _ctx: &PolicyContext<'_>,
            ) -> Result<Box<dyn PowerPolicy>, PolicyError> {
                Ok(Box::new(crate::policy::Baseline))
            }
        }
        let mut r = PolicyRegistry::empty();
        assert_eq!(r.register(Box::new(Dup("pg"))), Ok(()));
        assert_eq!(
            r.register(Box::new(Dup("PG"))),
            Err(PolicyError::Duplicate { name: "PG".into() })
        );
        assert_eq!(
            r.register(Box::new(Dup("fresh"))),
            Err(PolicyError::Duplicate {
                name: "Power-Gated".into()
            })
        );
        assert_eq!(r.names(), ["pg"]);
    }

    #[test]
    fn every_paper_model_builds_with_its_gating_and_features() {
        let suite = ModelSuite::train(
            &Trainer::new(Topology::mesh8x8()).with_duration_ns(2_000),
            FeatureSet::Reduced5,
        );
        let ctx = PolicyContext { suite: &suite };
        let r = PolicyRegistry::global();
        for kind in ALL_MODELS {
            let policy = r.build(&kind.spec(), &ctx).expect("paper spec builds");
            let factory = r.resolve(kind.slug()).expect("paper model registered");
            let gates = matches!(
                kind,
                ModelKind::PowerGated | ModelKind::DozzNoc | ModelKind::MlTurbo
            );
            assert_eq!(policy.gating_enabled(), gates, "{kind}");
            assert_eq!(policy.ml_features().is_some(), factory.uses_ml(), "{kind}");
            // Policies keep their own display names (slug "pg" builds a
            // policy named "power-gated"), each an alias of its factory.
            let canonical = r.resolve(policy.name()).expect("policy name resolves");
            assert_eq!(canonical.name(), kind.slug(), "{}", policy.name());
        }
    }
}
