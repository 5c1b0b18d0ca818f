//! The five evaluation models, built through
//! [`crate::registry::PolicyRegistry::global`] from one table of paper
//! models, plus the reactive variants the training pipeline constructs
//! directly.

mod baseline;
mod factories;
mod power_gate;
mod proactive;
mod reactive;

pub use baseline::Baseline;
pub use power_gate::PowerGated;
pub use proactive::Proactive;
pub use reactive::Reactive;

pub(crate) use factories::{paper_factories, paper_model};
