//! Built-in [`PolicyFactory`] implementations: the five paper models
//! plus the two online-learning extensions, registered in presentation
//! order by [`crate::registry::PolicyRegistry::builtin`].
//!
//! Canonical names and aliases here are the single source of truth for
//! CLI parsing — [`PolicyRegistry::parse`](crate::registry::PolicyRegistry::parse)
//! resolves through them, so adding an alias to a factory makes every
//! command accept it.

use dozznoc_noc::PowerPolicy;

use crate::policy::{adaptive, rl_buffer};
use crate::policy::{Adaptive, Baseline, PowerGated, Proactive, RlBuffer};
use crate::registry::{PolicyContext, PolicyError, PolicyFactory, PolicySpec};

/// Every built-in factory, in presentation order (paper models in the
/// Fig. 8 bar order, then the extensions).
pub(crate) fn builtin_factories() -> Vec<Box<dyn PolicyFactory>> {
    vec![
        Box::new(BaselineFactory),
        Box::new(PowerGatedFactory),
        Box::new(LeadFactory),
        Box::new(DozzNocFactory),
        Box::new(TurboFactory),
        Box::new(OnlineRidgeFactory),
        Box::new(RlBufferFactory),
    ]
}

/// Reject parameters no factory knows, so a typo'd key fails loudly
/// instead of silently falling back to the default value.
fn check_params(spec: &PolicySpec, allowed: &[&str]) -> Result<(), PolicyError> {
    for (key, value) in spec.params() {
        if !allowed.contains(&key.as_str()) {
            return Err(PolicyError::BadParam {
                policy: spec.name().to_string(),
                key: key.clone(),
                value: value.clone(),
                expected: if allowed.is_empty() {
                    "no parameters".to_string()
                } else {
                    format!("one of: {}", allowed.join(", "))
                },
            });
        }
    }
    Ok(())
}

fn bad(spec: &PolicySpec, key: &str, value: f64, expected: &str) -> PolicyError {
    PolicyError::BadParam {
        policy: spec.name().to_string(),
        key: key.to_string(),
        value: value.to_string(),
        expected: expected.to_string(),
    }
}

struct BaselineFactory;

impl PolicyFactory for BaselineFactory {
    fn name(&self) -> &'static str {
        "baseline"
    }
    fn label(&self) -> &'static str {
        "Baseline"
    }
    fn description(&self) -> &'static str {
        "always-on M7, no gating, no DVFS"
    }
    fn build(
        &self,
        spec: &PolicySpec,
        _ctx: &PolicyContext<'_>,
    ) -> Result<Box<dyn PowerPolicy>, PolicyError> {
        check_params(spec, &[])?;
        Ok(Box::new(Baseline))
    }
}

struct PowerGatedFactory;

impl PolicyFactory for PowerGatedFactory {
    fn name(&self) -> &'static str {
        "pg"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["powergated", "power-gated"]
    }
    fn label(&self) -> &'static str {
        "PG"
    }
    fn description(&self) -> &'static str {
        "Power Punch-style gating, M7-only active state"
    }
    fn build(
        &self,
        spec: &PolicySpec,
        _ctx: &PolicyContext<'_>,
    ) -> Result<Box<dyn PowerPolicy>, PolicyError> {
        check_params(spec, &[])?;
        Ok(Box::new(PowerGated))
    }
}

struct LeadFactory;

impl PolicyFactory for LeadFactory {
    fn name(&self) -> &'static str {
        "lead"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["lead-tau", "dvfs"]
    }
    fn label(&self) -> &'static str {
        "ML+DVFS (LEAD-tau)"
    }
    fn description(&self) -> &'static str {
        "LEAD-tau: offline-ridge proactive DVFS, never gated"
    }
    fn uses_ml(&self) -> bool {
        true
    }
    fn build(
        &self,
        spec: &PolicySpec,
        ctx: &PolicyContext<'_>,
    ) -> Result<Box<dyn PowerPolicy>, PolicyError> {
        check_params(spec, &[])?;
        Ok(Box::new(Proactive::lead(ctx.suite.lead.clone())))
    }
}

struct DozzNocFactory;

impl PolicyFactory for DozzNocFactory {
    fn name(&self) -> &'static str {
        "dozznoc"
    }
    fn label(&self) -> &'static str {
        "DOZZNOC (ML+DVFS+PG)"
    }
    fn description(&self) -> &'static str {
        "the proposed model: offline-ridge DVFS plus gating"
    }
    fn uses_ml(&self) -> bool {
        true
    }
    fn build(
        &self,
        spec: &PolicySpec,
        ctx: &PolicyContext<'_>,
    ) -> Result<Box<dyn PowerPolicy>, PolicyError> {
        check_params(spec, &[])?;
        Ok(Box::new(Proactive::dozznoc(ctx.suite.dozznoc.clone())))
    }
}

struct TurboFactory;

impl PolicyFactory for TurboFactory {
    fn name(&self) -> &'static str {
        "turbo"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["ml-turbo"]
    }
    fn label(&self) -> &'static str {
        "ML+TURBO"
    }
    fn description(&self) -> &'static str {
        "DOZZNOC with every third intermediate prediction forced to M7"
    }
    fn uses_ml(&self) -> bool {
        true
    }
    fn build(
        &self,
        spec: &PolicySpec,
        ctx: &PolicyContext<'_>,
    ) -> Result<Box<dyn PowerPolicy>, PolicyError> {
        check_params(spec, &[])?;
        Ok(Box::new(Proactive::turbo(ctx.suite.turbo.clone())))
    }
}

struct OnlineRidgeFactory;

impl PolicyFactory for OnlineRidgeFactory {
    fn name(&self) -> &'static str {
        "online-ridge"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["adaptive", "adaptive-online"]
    }
    fn label(&self) -> &'static str {
        "Online-RLS (DVFS+PG)"
    }
    fn description(&self) -> &'static str {
        "recursive-ridge DVFS that keeps learning during the run \
         (forgetting, delta, warm, gating)"
    }
    fn uses_ml(&self) -> bool {
        true
    }
    fn build(
        &self,
        spec: &PolicySpec,
        ctx: &PolicyContext<'_>,
    ) -> Result<Box<dyn PowerPolicy>, PolicyError> {
        check_params(spec, &["forgetting", "delta", "warm", "gating"])?;
        let forgetting = spec.param_f64("forgetting", adaptive::DEFAULT_FORGETTING)?;
        if !(forgetting > 0.0 && forgetting <= 1.0) {
            return Err(bad(spec, "forgetting", forgetting, "a factor in (0, 1]"));
        }
        let delta = spec.param_f64("delta", adaptive::DEFAULT_DELTA)?;
        if !(delta > 0.0 && delta.is_finite()) {
            return Err(bad(spec, "delta", delta, "a positive covariance scale"));
        }
        let warm = spec.param_bool("warm", true)?;
        let gating = spec.param_bool("gating", true)?;
        Ok(Box::new(Adaptive::online_ridge(
            &ctx.suite.dozznoc,
            forgetting,
            delta,
            warm,
            gating,
        )))
    }
}

struct RlBufferFactory;

impl PolicyFactory for RlBufferFactory {
    fn name(&self) -> &'static str {
        "rl-buffer"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["rl", "race"]
    }
    fn label(&self) -> &'static str {
        "RL-Buffer (Q-learning)"
    }
    fn description(&self) -> &'static str {
        "RACE-style tabular Q-learning over discretized buffer/injection \
         state (alpha, gamma, epsilon, seed, gating)"
    }
    fn build(
        &self,
        spec: &PolicySpec,
        _ctx: &PolicyContext<'_>,
    ) -> Result<Box<dyn PowerPolicy>, PolicyError> {
        check_params(spec, &["alpha", "gamma", "epsilon", "seed", "gating"])?;
        let alpha = spec.param_f64("alpha", rl_buffer::DEFAULT_ALPHA)?;
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(bad(spec, "alpha", alpha, "a learning rate in (0, 1]"));
        }
        let gamma = spec.param_f64("gamma", rl_buffer::DEFAULT_GAMMA)?;
        if !(0.0..1.0).contains(&gamma) {
            return Err(bad(spec, "gamma", gamma, "a discount factor in [0, 1)"));
        }
        let epsilon = spec.param_f64("epsilon", rl_buffer::DEFAULT_EPSILON)?;
        if !(0.0..=1.0).contains(&epsilon) {
            return Err(bad(
                spec,
                "epsilon",
                epsilon,
                "an exploration rate in [0, 1]",
            ));
        }
        let seed = spec.param_u64("seed", rl_buffer::DEFAULT_SEED)?;
        let gating = spec.param_bool("gating", true)?;
        Ok(Box::new(RlBuffer::new(alpha, gamma, epsilon, seed, gating)))
    }
}
