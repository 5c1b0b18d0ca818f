//! The five paper models' registry entries: one [`PaperModel`] row per
//! [`ModelKind`], and one [`PolicyFactory`] that builds by matching on
//! the kind. [`PolicyRegistry::global`](crate::registry::PolicyRegistry::global)
//! registers them in Fig. 8 bar order.
//!
//! The names and aliases here are the single source of truth for CLI
//! parsing and for [`ModelKind::slug`]/[`ModelKind::label`], so adding
//! an alias to a row makes every command accept it.

use dozznoc_noc::PowerPolicy;

use crate::model::{ModelKind, ALL_MODELS};
use crate::policy::{Baseline, PowerGated, Proactive};
use crate::registry::{PolicyContext, PolicyError, PolicyFactory, PolicySpec};

/// One paper model's identity and documentation.
pub(crate) struct PaperModel {
    /// Canonical slug: file names, CSV rows and cache keys embed it.
    pub name: &'static str,
    /// Alternate CLI spellings.
    pub aliases: &'static [&'static str],
    /// Display name matching the paper's figure legends.
    pub label: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Whether the built policy consults the trained suite.
    pub uses_ml: bool,
}

/// The paper models, indexed by [`ModelKind`] (declaration order).
const PAPER_MODELS: [PaperModel; 5] = [
    PaperModel {
        name: "baseline",
        aliases: &[],
        label: "Baseline",
        description: "always-on M7, no gating, no DVFS",
        uses_ml: false,
    },
    PaperModel {
        name: "pg",
        aliases: &["powergated", "power-gated"],
        label: "PG",
        description: "Power Punch-style gating, M7-only active state",
        uses_ml: false,
    },
    PaperModel {
        name: "lead",
        aliases: &["lead-tau", "dvfs"],
        label: "ML+DVFS (LEAD-tau)",
        description: "LEAD-tau: offline-ridge proactive DVFS, never gated",
        uses_ml: true,
    },
    PaperModel {
        name: "dozznoc",
        aliases: &[],
        label: "DOZZNOC (ML+DVFS+PG)",
        description: "the proposed model: offline-ridge DVFS plus gating",
        uses_ml: true,
    },
    PaperModel {
        name: "turbo",
        aliases: &["ml-turbo"],
        label: "ML+TURBO",
        description: "DOZZNOC with every third intermediate prediction forced to M7",
        uses_ml: true,
    },
];

/// The table row of `kind`.
pub(crate) fn paper_model(kind: ModelKind) -> &'static PaperModel {
    &PAPER_MODELS[kind as usize]
}

/// One factory per paper model, in the Fig. 8 bar order.
pub(crate) fn paper_factories() -> Vec<Box<dyn PolicyFactory>> {
    ALL_MODELS
        .iter()
        .map(|&kind| Box::new(PaperFactory(kind)) as Box<dyn PolicyFactory>)
        .collect()
}

struct PaperFactory(ModelKind);

impl PolicyFactory for PaperFactory {
    fn name(&self) -> &'static str {
        paper_model(self.0).name
    }
    fn aliases(&self) -> &'static [&'static str] {
        paper_model(self.0).aliases
    }
    fn label(&self) -> &'static str {
        paper_model(self.0).label
    }
    fn description(&self) -> &'static str {
        paper_model(self.0).description
    }
    fn uses_ml(&self) -> bool {
        paper_model(self.0).uses_ml
    }
    fn build(
        &self,
        _spec: &PolicySpec,
        ctx: &PolicyContext<'_>,
    ) -> Result<Box<dyn PowerPolicy>, PolicyError> {
        let suite = ctx.suite;
        Ok(match self.0 {
            ModelKind::Baseline => Box::new(Baseline),
            ModelKind::PowerGated => Box::new(PowerGated),
            ModelKind::LeadDvfs => Box::new(Proactive::lead(suite.lead.clone())),
            ModelKind::DozzNoc => Box::new(Proactive::dozznoc(suite.dozznoc.clone())),
            ModelKind::MlTurbo => Box::new(Proactive::turbo(suite.turbo.clone())),
        })
    }
}
