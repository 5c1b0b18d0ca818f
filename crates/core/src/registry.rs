//! The open policy plug-in API: registry-backed [`PowerPolicy`]
//! construction.
//!
//! The paper compares a closed set of five schemes, and until this
//! module existed the code mirrored that closure:
//! [`ModelKind`](crate::ModelKind) was an enum and every experiment
//! matched on it, so adding a policy meant editing ~10 files. The registry inverts that dependency:
//!
//! * a [`PolicyFactory`] names one policy (canonical slug + aliases),
//!   documents it, and builds instances from a [`PolicySpec`];
//! * a [`PolicyRegistry`] owns a set of factories, resolves names,
//!   parses CLI-style spec strings, and constructs policies;
//! * a [`PolicySpec`] is the serializable currency of the system — a
//!   policy name plus sorted key/value parameters — and its
//!   [`PolicySpec::slug`] doubles as the run-cache key, so distinct
//!   parameterizations of one policy never collide in the
//!   content-addressed cache.
//!
//! [`ModelKind`](crate::ModelKind) survives as a thin compatibility
//! shim: its slugs are the paper factories' canonical names and
//! [`ModelKind::spec`](crate::ModelKind::spec) bridges into this API,
//! which keeps existing CSV schemas, CLI aliases, determinism goldens
//! and cache fingerprints byte-stable while the rest of the system talks
//! specs. Third-party policies register into a registry (global built-in
//! or a caller-owned instance) without touching `ModelKind` at all.
//!
//! ## Determinism contract for stochastic policies
//!
//! Policies may keep internal state and may explore randomly, but a
//! built instance must be a *pure function of its spec and build
//! context*: same spec + same suite ⇒ bit-identical decisions. Seeds
//! therefore live in the spec (see the `rl-buffer` `seed` parameter),
//! never in ambient entropy, which is what lets the work-stealing engine
//! replay any cell from the run cache and `tests/determinism.rs` assert
//! jobs=1 / jobs=8 / warm-cache bit-identity for every registered
//! policy.

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
    /// A spec parameter failed to parse or is out of range.
    BadParam {
        /// The policy the parameter was destined for.
        policy: String,
        /// The offending key.
        key: String,
        /// The offending value.
        value: String,
        /// What the factory expected.
        expected: String,
    },
    /// A spec string was syntactically malformed.
    BadSpec {
        /// The input that failed to parse.
        input: String,
        /// What went wrong.
        reason: String,
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
            PolicyError::BadParam {
                policy,
                key,
                value,
                expected,
            } => write!(
                f,
                "policy '{policy}': parameter {key}={value} is invalid (expected {expected})"
            ),
            PolicyError::BadSpec { input, reason } => {
                write!(f, "malformed policy spec '{input}': {reason}")
            }
            PolicyError::Duplicate { name } => {
                write!(f, "policy name or alias '{name}' is already registered")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// A serializable policy configuration: canonical name plus sorted
/// key/value parameters. This is what campaigns schedule, what the run
/// cache keys on, and what `--model` parses into.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PolicySpec {
    name: String,
    /// Sorted by key; [`PolicySpec::with_param`] maintains the
    /// invariant, so two specs with the same logical parameters are
    /// structurally (and fingerprint-) equal.
    params: Vec<(String, String)>,
}

impl PolicySpec {
    /// A parameterless spec for `name` (the policy's defaults).
    pub fn new(name: impl Into<String>) -> Self {
        PolicySpec {
            name: name.into(),
            params: Vec::new(),
        }
    }

    /// Add (or replace) one parameter, keeping keys sorted so parameter
    /// order never leaks into equality or cache fingerprints.
    #[must_use = "the updated spec is returned, not applied in place"]
    pub fn with_param(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        let key = key.into();
        let value = value.into();
        match self.params.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
            Ok(i) => self.params[i].1 = value,
            Err(i) => self.params.insert(i, (key, value)),
        }
        self
    }

    /// The canonical policy name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sorted parameter list.
    pub fn params(&self) -> &[(String, String)] {
        &self.params
    }

    /// Look up one parameter's raw value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.params
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.params[i].1.as_str())
    }

    /// A parameter parsed as `f64`, or `default` when absent.
    pub fn param_f64(&self, key: &str, default: f64) -> Result<f64, PolicyError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| self.bad_param(key, "a number")),
        }
    }

    /// A parameter parsed as `u64`, or `default` when absent.
    pub fn param_u64(&self, key: &str, default: u64) -> Result<u64, PolicyError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| self.bad_param(key, "a non-negative integer")),
        }
    }

    /// A parameter parsed as `bool` (`true`/`false`/`1`/`0`), or
    /// `default` when absent.
    pub fn param_bool(&self, key: &str, default: bool) -> Result<bool, PolicyError> {
        match self.get(key) {
            None => Ok(default),
            Some("true") | Some("1") => Ok(true),
            Some("false") | Some("0") => Ok(false),
            Some(_) => Err(self.bad_param(key, "true/false/1/0")),
        }
    }

    fn bad_param(&self, key: &str, expected: &str) -> PolicyError {
        PolicyError::BadParam {
            policy: self.name.clone(),
            key: key.to_string(),
            value: self.get(key).unwrap_or_default().to_string(),
            expected: expected.to_string(),
        }
    }

    /// The spec's stable identity string: the bare name when there are
    /// no parameters (byte-identical to the old `ModelKind::slug`, which
    /// keeps warm run caches and file names valid), or
    /// `name?k=v&k2=v2` with keys in sorted order otherwise. Round-trips
    /// through [`PolicySpec::parse_str`] and is the cell's run-cache key
    /// component, so distinct parameterizations never collide.
    pub fn slug(&self) -> String {
        if self.params.is_empty() {
            return self.name.clone();
        }
        let mut s = self.name.clone();
        for (i, (k, v)) in self.params.iter().enumerate() {
            s.push(if i == 0 { '?' } else { '&' });
            s.push_str(k);
            s.push('=');
            s.push_str(v);
        }
        s
    }

    /// Parse a `name` / `name?k=v&k2=v2` spec string *without* resolving
    /// aliases — [`PolicyRegistry::parse`] is the boundary that also
    /// canonicalizes the name.
    pub fn parse_str(input: &str) -> Result<PolicySpec, PolicyError> {
        let bad = |reason: &str| PolicyError::BadSpec {
            input: input.to_string(),
            reason: reason.to_string(),
        };
        let (name, rest) = match input.split_once('?') {
            None => (input, None),
            Some((n, r)) => (n, Some(r)),
        };
        if name.is_empty() {
            return Err(bad("empty policy name"));
        }
        let mut spec = PolicySpec::new(name);
        if let Some(rest) = rest {
            for pair in rest.split('&') {
                let Some((k, v)) = pair.split_once('=') else {
                    return Err(bad("parameters must be key=value pairs joined by '&'"));
                };
                if k.is_empty() {
                    return Err(bad("empty parameter key"));
                }
                spec = spec.with_param(k, v);
            }
        }
        Ok(spec)
    }
}

impl core::fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.slug())
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

    /// Construct one policy instance for `spec`. Rejects unknown or
    /// out-of-range parameters with a [`PolicyError`] instead of
    /// panicking — factories run inside campaign workers.
    fn build(
        &self,
        spec: &PolicySpec,
        ctx: &PolicyContext<'_>,
    ) -> Result<Box<dyn PowerPolicy>, PolicyError>;
}

/// An open, ordered set of [`PolicyFactory`]s. Registration order is
/// presentation order (tournaments print in it).
pub struct PolicyRegistry {
    factories: Vec<Box<dyn PolicyFactory>>,
}

impl PolicyRegistry {
    /// An empty registry (for fully custom policy sets).
    pub fn empty() -> Self {
        PolicyRegistry {
            factories: Vec::new(),
        }
    }

    /// A registry pre-loaded with every built-in policy: the five paper
    /// models in Fig. 8 bar order, then the online-learning extensions
    /// (`online-ridge`, `rl-buffer`).
    pub fn builtin() -> Self {
        let mut r = PolicyRegistry::empty();
        for f in crate::policy::builtin_factories() {
            r.register(f)
                .expect("built-in factory names are distinct by construction");
        }
        r
    }

    /// The shared built-in registry the `ModelKind` compatibility shim
    /// and the CLI resolve against.
    pub fn global() -> &'static PolicyRegistry {
        static GLOBAL: OnceLock<PolicyRegistry> = OnceLock::new();
        GLOBAL.get_or_init(PolicyRegistry::builtin)
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

    /// One defaults-only spec per registered policy, in registration
    /// order — the tournament's contestant list.
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

    /// Parse a CLI-style spec string (`name` or `name?k=v&k2=v2`,
    /// aliases accepted) into a canonical [`PolicySpec`].
    pub fn parse(&self, input: &str) -> Result<PolicySpec, PolicyError> {
        let raw = PolicySpec::parse_str(input)?;
        let factory = self.resolve(raw.name())?;
        Ok(PolicySpec {
            name: factory.name().to_string(),
            params: raw.params,
        })
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
    use crate::training::Trainer;
    use dozznoc_ml::FeatureSet;
    use dozznoc_topology::Topology;

    fn suite() -> ModelSuite {
        ModelSuite::train(
            &Trainer::new(Topology::mesh8x8()).with_duration_ns(2_000),
            FeatureSet::Reduced5,
        )
    }

    #[test]
    fn spec_params_stay_sorted_and_replace() {
        let s = PolicySpec::new("online-ridge")
            .with_param("forgetting", "0.9")
            .with_param("delta", "10")
            .with_param("forgetting", "0.95");
        assert_eq!(s.get("forgetting"), Some("0.95"));
        assert_eq!(s.get("delta"), Some("10"));
        assert_eq!(s.slug(), "online-ridge?delta=10&forgetting=0.95");
        // Insertion order must not matter.
        let t = PolicySpec::new("online-ridge")
            .with_param("forgetting", "0.95")
            .with_param("delta", "10");
        assert_eq!(s, t);
    }

    #[test]
    fn parameterless_slug_is_the_bare_name() {
        assert_eq!(PolicySpec::new("dozznoc").slug(), "dozznoc");
    }

    #[test]
    fn spec_string_round_trips() {
        for slug in ["baseline", "rl-buffer?epsilon=0.2&seed=7"] {
            let spec = PolicySpec::parse_str(slug).expect("valid spec");
            assert_eq!(spec.slug(), slug);
        }
        assert!(PolicySpec::parse_str("").is_err());
        assert!(PolicySpec::parse_str("x?noequals").is_err());
        assert!(PolicySpec::parse_str("x?=v").is_err());
    }

    #[test]
    fn unknown_policy_error_lists_the_field() {
        let err = PolicyRegistry::global().parse("nonsense").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown policy 'nonsense'"), "{msg}");
        for name in [
            "baseline",
            "pg",
            "lead",
            "dozznoc",
            "turbo",
            "online-ridge",
            "rl-buffer",
        ] {
            assert!(msg.contains(name), "{msg} missing {name}");
        }
    }

    #[test]
    fn aliases_resolve_to_canonical_names() {
        let r = PolicyRegistry::global();
        for (alias, canonical) in [
            ("powergated", "pg"),
            ("power-gated", "pg"),
            ("LEAD-TAU", "lead"),
            ("dvfs", "lead"),
            ("ml-turbo", "turbo"),
            ("adaptive", "online-ridge"),
            ("rl", "rl-buffer"),
        ] {
            assert_eq!(r.parse(alias).expect(alias).name(), canonical);
        }
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        struct Dup;
        impl PolicyFactory for Dup {
            fn name(&self) -> &'static str {
                "baseline"
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
        let mut r = PolicyRegistry::builtin();
        let err = r.register(Box::new(Dup)).unwrap_err();
        assert_eq!(
            err,
            PolicyError::Duplicate {
                name: "baseline".into()
            }
        );
    }

    #[test]
    fn bad_params_are_errors_not_panics() {
        let s = suite();
        let ctx = PolicyContext { suite: &s };
        let r = PolicyRegistry::global();
        let spec = PolicySpec::new("online-ridge").with_param("forgetting", "fast");
        let err = r.build(&spec, &ctx).err().expect("bad param must error");
        assert!(matches!(err, PolicyError::BadParam { .. }), "{err}");
        let spec = PolicySpec::new("rl-buffer").with_param("epsilon", "-3");
        assert!(r.build(&spec, &ctx).is_err());
    }

    #[test]
    fn every_builtin_builds_from_its_default_spec() {
        let s = suite();
        let ctx = PolicyContext { suite: &s };
        let r = PolicyRegistry::global();
        assert!(r.names().len() >= 7);
        for spec in r.default_specs() {
            let policy = r.build(&spec, &ctx).expect("default spec builds");
            // Legacy policies keep their frozen display names (e.g. slug
            // "pg" builds a policy named "power-gated"), but every such
            // name must resolve back to the same factory via an alias.
            let canonical = r
                .resolve(policy.name())
                .expect("policy name resolves")
                .name();
            assert_eq!(
                canonical,
                spec.name(),
                "policy {} round-trips",
                policy.name()
            );
        }
    }
}
