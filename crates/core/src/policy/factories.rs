//! Built-in [`PolicyFactory`] implementations: the five paper models,
//! registered in presentation order by
//! [`crate::registry::PolicyRegistry::builtin`].
//!
//! Canonical names and aliases here are the single source of truth for
//! CLI parsing — [`PolicyRegistry::parse`](crate::registry::PolicyRegistry::parse)
//! resolves through them, so adding an alias to a factory makes every
//! command accept it.

use dozznoc_noc::PowerPolicy;

use crate::policy::{Baseline, PowerGated, Proactive};
use crate::registry::{PolicyContext, PolicyError, PolicyFactory, PolicySpec};

/// Every built-in factory, in the Fig. 8 bar order.
pub(crate) fn builtin_factories() -> Vec<Box<dyn PolicyFactory>> {
    vec![
        Box::new(BaselineFactory),
        Box::new(PowerGatedFactory),
        Box::new(LeadFactory),
        Box::new(DozzNocFactory),
        Box::new(TurboFactory),
    ]
}

/// Reject every parameter: the paper models take none, so a typo'd key
/// fails loudly instead of being silently ignored.
fn check_params(spec: &PolicySpec) -> Result<(), PolicyError> {
    match spec.params().first() {
        None => Ok(()),
        Some((key, value)) => Err(PolicyError::BadParam {
            policy: spec.name().to_string(),
            key: key.clone(),
            value: value.clone(),
            expected: "no parameters".to_string(),
        }),
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
        check_params(spec)?;
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
        check_params(spec)?;
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
        check_params(spec)?;
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
        check_params(spec)?;
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
        check_params(spec)?;
        Ok(Box::new(Proactive::turbo(ctx.suite.turbo.clone())))
    }
}
