//! The five paper models as a closed enum.
//!
//! `ModelKind` is serialized into campaign results, determinism goldens,
//! CSV schemas and cache envelopes, so the enum and its serde form are
//! frozen. Its slugs and labels are rows of the paper-model table
//! (`policy/factories.rs`), the same rows
//! [`PolicyRegistry::global`](crate::registry::PolicyRegistry::global)
//! registers, so [`ModelKind::spec`] and the registry agree on every
//! name. Construction and name parsing (including every CLI alias)
//! belong to the registry.

use serde::{Deserialize, Serialize};

use crate::policy::paper_model;
use crate::registry::PolicySpec;

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
    /// The [`PolicySpec`] of this kind; its slug equals
    /// [`ModelKind::slug`], so cache fingerprints agree between the
    /// two.
    pub fn spec(&self) -> PolicySpec {
        PolicySpec::new(self.slug())
    }

    /// Short lowercase name, stable for filenames and CLI round-trips.
    pub fn slug(&self) -> &'static str {
        paper_model(*self).name
    }

    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        paper_model(*self).label
    }
}

impl core::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}
