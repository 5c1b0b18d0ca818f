//! The policy plug-in API contract, exercised from *outside* the
//! workspace internals — exactly how a third-party crate would use it.
//!
//! Three guarantees:
//!
//! 1. a custom [`PolicyFactory`] registers and runs full campaigns
//!    without touching `ModelKind` or any other enum;
//! 2. the [`ModelKind`] compatibility shim and the open
//!    [`PolicySpec`] path key the run cache identically — a cache
//!    warmed through `run_cells` replays byte-for-byte through
//!    `run_policy_cells` (the fingerprint-stability proof);
//! 3. spec strings round-trip: `parse(slug(spec)) == spec` for any
//!    parameterization, and every alias canonicalizes.

use proptest::prelude::*;

use dozznoc::core::model::ALL_MODELS;
use dozznoc::prelude::*;

const DUR_NS: u64 = 2_000;

fn quick_suite(topo: Topology) -> ModelSuite {
    ModelSuite::train(
        &Trainer::new(topo).with_duration_ns(DUR_NS),
        FeatureSet::Reduced5,
    )
}

/// A deliberately simple out-of-tree policy: alternate M7 and M3 on a
/// fixed period — nothing the built-in set provides.
struct DutyCycle {
    period: u64,
    epoch: u64,
}

impl PowerPolicy for DutyCycle {
    fn select_mode(&mut self, router: RouterId, _obs: &EpochObservation) -> Mode {
        if router.idx() == 0 {
            self.epoch += 1;
        }
        if (self.epoch / self.period).is_multiple_of(2) {
            Mode::M7
        } else {
            Mode::M3
        }
    }

    fn name(&self) -> &str {
        "duty-cycle"
    }
}

struct DutyCycleFactory;

impl PolicyFactory for DutyCycleFactory {
    fn name(&self) -> &'static str {
        "duty-cycle"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["duty"]
    }

    fn description(&self) -> &'static str {
        "alternates M7/M3 on a fixed epoch period (test plug-in)"
    }

    fn build(
        &self,
        spec: &PolicySpec,
        _ctx: &PolicyContext<'_>,
    ) -> Result<Box<dyn PowerPolicy>, PolicyError> {
        let period = spec.param_u64("period", 4)?;
        if period == 0 {
            return Err(PolicyError::BadParam {
                policy: "duty-cycle".to_string(),
                key: "period".to_string(),
                value: "0".to_string(),
                expected: "a positive epoch count".to_string(),
            });
        }
        Ok(Box::new(DutyCycle { period, epoch: 0 }))
    }
}

/// Guarantee 1: a third-party policy joins the campaign engine through
/// registration alone.
#[test]
fn third_party_factory_runs_campaigns_without_touching_modelkind() {
    let mut registry = PolicyRegistry::builtin();
    registry
        .register(Box::new(DutyCycleFactory))
        .expect("fresh name registers");
    assert!(registry.names().contains(&"duty-cycle"));

    // Aliases and parameterized spec strings work immediately.
    let spec = registry.parse("duty?period=2").expect("alias spec parses");
    assert_eq!(spec.name(), "duty-cycle");

    let topo = Topology::mesh8x8();
    let suite = quick_suite(topo);
    let campaign = Campaign::new(topo).with_duration_ns(DUR_NS);
    let cells = campaign
        .run_policy_cells(
            &[Benchmark::Fft],
            &[spec.clone(), PolicySpec::new("baseline")],
            &suite,
            &registry,
            &EngineOptions {
                jobs: None,
                cache: None,
                sanitize: false,
                measure: false,
            },
        )
        .expect("both specs build");
    assert_eq!(cells.len(), 2);
    assert_eq!(cells[0].result.policy, spec);
    assert_eq!(cells[0].result.report.policy, "duty-cycle");
    assert!(cells[0].result.report.stats.packets_delivered > 0);

    // Bad parameters fail fast, before any cell simulates.
    let err = campaign
        .run_policy_cells(
            &[Benchmark::Fft],
            &[registry.parse("duty?period=0").expect("well-formed string")],
            &suite,
            &registry,
            &EngineOptions {
                jobs: None,
                cache: None,
                sanitize: false,
                measure: false,
            },
        )
        .expect_err("period=0 must be rejected");
    assert!(matches!(err, PolicyError::BadParam { .. }), "{err}");

    // Re-registering a taken name (or alias) is rejected.
    let dup = PolicyRegistry::builtin().register(Box::new(DutyCycleFactory));
    assert!(dup.is_ok(), "fresh builtin registry has no duty-cycle");
    let err = registry.register(Box::new(DutyCycleFactory)).err();
    assert!(matches!(err, Some(PolicyError::Duplicate { .. })));
}

/// Guarantee 2: a cache warmed through the legacy `ModelKind` engine
/// replays through the open-spec engine — same fingerprints, same
/// envelope, same bytes.
#[test]
fn spec_path_replays_a_cache_warmed_by_the_modelkind_path() {
    let topo = Topology::mesh8x8();
    let suite = quick_suite(topo);
    let campaign = Campaign::new(topo).with_duration_ns(DUR_NS);
    let benches = [Benchmark::Fft];

    let cache_dir =
        std::env::temp_dir().join(format!("dozznoc-plugin-crosscache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = RunCache::open(&cache_dir);
    let opts = |cache| EngineOptions {
        jobs: None,
        cache,
        sanitize: false,
        measure: false,
    };

    let legacy = campaign.run_cells(&benches, &suite, &opts(Some(&cache)));
    assert!(legacy.iter().all(|c| !c.cache_hit), "cold run simulates");

    let specs: Vec<PolicySpec> = ALL_MODELS.iter().map(ModelKind::spec).collect();
    let replay = campaign
        .run_policy_cells(
            &benches,
            &specs,
            &suite,
            PolicyRegistry::global(),
            &opts(Some(&cache)),
        )
        .expect("paper-model specs build");
    assert!(
        replay.iter().all(|c| c.cache_hit),
        "every ModelKind-warmed cell must replay through the spec path"
    );
    for (l, r) in legacy.iter().zip(&replay) {
        assert_eq!(l.result.model.slug(), r.result.policy.slug());
        let a = serde_json::to_string(&l.result.report).expect("report serializes");
        let b = serde_json::to_string(&r.result.report).expect("report serializes");
        assert_eq!(a, b, "replayed report must be byte-identical");
    }

    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Guarantee 3a: every alias (any case) canonicalizes to its factory.
#[test]
fn every_alias_canonicalizes() {
    let registry = PolicyRegistry::global();
    for f in registry.factories() {
        for alias in f.aliases() {
            let spec = registry.parse(alias).expect("alias parses");
            assert_eq!(spec.name(), f.name(), "{alias}");
            let upper = registry
                .parse(&alias.to_uppercase())
                .expect("aliases are case-insensitive");
            assert_eq!(upper.name(), f.name(), "{alias}");
        }
    }
}

proptest! {
    /// Guarantee 3b: `parse(slug(spec)) == spec` for any registered
    /// name and any parameter set expressible in the slug grammar.
    #[test]
    fn spec_round_trips_through_its_slug(
        name_i in 0usize..64,
        params in proptest::collection::vec((0u8..26, 0u32..100_000), 0..4),
    ) {
        let registry = PolicyRegistry::global();
        let names = registry.names();
        let mut spec = PolicySpec::new(names[name_i % names.len()]);
        for (ki, vi) in params {
            // Keys from a 26-letter alphabet, values numeric-ish —
            // everything the slug grammar (`?`, `&`, `=`-free tokens)
            // admits. Duplicate keys exercise replace-on-insert.
            let key = ((b'a' + ki) as char).to_string();
            spec = spec.with_param(key, format!("{}.{}", vi / 100, vi % 100));
        }
        let parsed = registry.parse(&spec.slug()).expect("slug parses");
        prop_assert_eq!(parsed, spec);
    }
}
