//! The policy registry contract, exercised from *outside* the workspace
//! internals, the way `dozz-bench` uses it.
//!
//! Three guarantees:
//!
//! 1. a plug-in [`PolicyFactory`], registered into
//!    [`PolicyRegistry::empty`] beside wrappers of the global factories,
//!    runs through `run_trace_cells` without touching `ModelKind`;
//! 2. [`ModelKind`] and [`PolicySpec`] key the run cache identically: a
//!    cache warmed through `run_cells` replays byte-for-byte through
//!    `run_trace_cells` (the fingerprint-stability proof);
//! 3. every name and alias canonicalizes, and anything else (a `?`
//!    suffix included) is `PolicyError::Unknown`.

use dozznoc::core::model::ALL_MODELS;
use dozznoc::prelude::*;

const DUR_NS: u64 = 2_000;

fn quick_suite(topo: Topology) -> ModelSuite {
    ModelSuite::train(
        &Trainer::new(topo).with_duration_ns(DUR_NS),
        FeatureSet::Reduced5,
    )
}

/// A deliberately simple out-of-tree policy: alternate M7 and M3 every
/// four epochs — nothing the built-in set provides.
struct DutyCycle {
    epoch: u64,
}

impl PowerPolicy for DutyCycle {
    fn select_mode(&mut self, router: RouterId, _obs: &EpochObservation) -> Mode {
        if router.idx() == 0 {
            self.epoch += 1;
        }
        if (self.epoch / 4).is_multiple_of(2) {
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
        "alternates M7/M3 every four epochs (test plug-in)"
    }

    fn build(
        &self,
        _spec: &PolicySpec,
        _ctx: &PolicyContext<'_>,
    ) -> Result<Box<dyn PowerPolicy>, PolicyError> {
        Ok(Box::new(DutyCycle { epoch: 0 }))
    }
}

/// A global factory under another owner, forwarding every method.
struct Wrapped(&'static dyn PolicyFactory);

impl PolicyFactory for Wrapped {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn aliases(&self) -> &'static [&'static str] {
        self.0.aliases()
    }

    fn label(&self) -> &'static str {
        self.0.label()
    }

    fn description(&self) -> &'static str {
        self.0.description()
    }

    fn uses_ml(&self) -> bool {
        self.0.uses_ml()
    }

    fn build(
        &self,
        spec: &PolicySpec,
        ctx: &PolicyContext<'_>,
    ) -> Result<Box<dyn PowerPolicy>, PolicyError> {
        self.0.build(spec, ctx)
    }
}

/// Guarantee 1: a third-party policy joins the campaign engine through
/// registration alone.
#[test]
fn third_party_factory_runs_campaigns_without_touching_modelkind() {
    let mut registry = PolicyRegistry::empty();
    for factory in PolicyRegistry::global().factories() {
        registry
            .register(Box::new(Wrapped(factory)))
            .expect("global names are distinct");
    }
    registry
        .register(Box::new(DutyCycleFactory))
        .expect("fresh name registers");
    let mut names = PolicyRegistry::global().names();
    names.push("duty-cycle");
    assert_eq!(registry.names(), names);

    let spec = registry.parse("DUTY").expect("alias parses");
    assert_eq!(spec, PolicySpec::new("duty-cycle"));

    let topo = Topology::mesh8x8();
    let suite = quick_suite(topo);
    let campaign = Campaign::new(topo).with_duration_ns(DUR_NS);
    let trace = campaign.trace(Benchmark::Fft);
    let cells = campaign
        .run_trace_cells(
            &[trace],
            &[spec.clone(), ModelKind::Baseline.spec()],
            &suite,
            &registry,
            &EngineOptions::default(),
        )
        .expect("both specs build");
    assert_eq!(cells.len(), 2);
    assert_eq!(cells[0].result.policy, spec);
    assert_eq!(cells[0].result.report.policy, "duty-cycle");
    assert!(cells[0].result.report.stats.packets_delivered > 0);
    assert_eq!(cells[1].result.report.policy, "baseline");

    // The global registry does not know the plug-in.
    let err = PolicyRegistry::global()
        .build(&spec, &PolicyContext { suite: &suite })
        .err();
    assert!(matches!(err, Some(PolicyError::Unknown { .. })));

    // Re-registering a taken name (or alias) is rejected.
    let err = registry.register(Box::new(DutyCycleFactory)).err();
    assert!(matches!(err, Some(PolicyError::Duplicate { .. })));
}

/// Guarantee 2: a cache warmed through the `ModelKind` engine replays
/// through the spec engine — same fingerprints, same envelope, same
/// bytes.
#[test]
fn spec_path_replays_a_cache_warmed_by_the_modelkind_path() {
    let topo = Topology::mesh8x8();
    let suite = quick_suite(topo);
    let campaign = Campaign::new(topo).with_duration_ns(DUR_NS);
    let benches = [Benchmark::Fft, Benchmark::Lu];

    let cache_dir =
        std::env::temp_dir().join(format!("dozznoc-plugin-crosscache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = RunCache::open(&cache_dir);
    let opts = EngineOptions {
        cache: Some(&cache),
        ..EngineOptions::default()
    };

    let warmed = campaign.run_cells(&benches, &suite, &opts);
    assert!(warmed.iter().all(|c| !c.cache_hit), "cold run simulates");

    let traces: Vec<Trace> = benches.iter().map(|&b| campaign.trace(b)).collect();
    let specs: Vec<PolicySpec> = ALL_MODELS.iter().map(ModelKind::spec).collect();
    let replay = campaign
        .run_trace_cells(&traces, &specs, &suite, PolicyRegistry::global(), &opts)
        .expect("paper-model specs build");
    assert_eq!(replay.len(), warmed.len());
    assert!(
        replay.iter().all(|c| c.cache_hit),
        "every ModelKind-warmed cell must replay through the spec path"
    );
    for (w, r) in warmed.iter().zip(&replay) {
        assert_eq!(w.result.benchmark, r.result.benchmark);
        assert_eq!(w.result.model.spec(), r.result.policy);
        let a = serde_json::to_string(&w.result.report).expect("report serializes");
        let b = serde_json::to_string(&r.result.report).expect("report serializes");
        assert_eq!(a, b, "replayed report must be byte-identical");
    }

    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Guarantee 3: every name and alias, in any case, canonicalizes to
/// its factory; a `?`-suffixed name is a spelling of nothing.
#[test]
fn every_alias_canonicalizes() {
    let registry = PolicyRegistry::global();
    for f in registry.factories() {
        for name in std::iter::once(f.name()).chain(f.aliases().iter().copied()) {
            for spelling in [name.to_string(), name.to_uppercase()] {
                let spec = registry.parse(&spelling).expect("name parses");
                assert_eq!(spec, PolicySpec::new(f.name()), "{spelling}");
                assert_eq!(spec.slug(), f.name(), "{spelling}");
            }
            let suffixed = format!("{name}?gamma=1.5");
            assert_eq!(
                registry.parse(&suffixed),
                Err(PolicyError::Unknown {
                    name: suffixed.clone(),
                    known: registry.known_names(),
                })
            );
        }
    }
}
