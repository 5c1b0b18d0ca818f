//! The five evaluation models, built through
//! [`crate::registry::PolicyRegistry::global`] from one table of paper
//! models, plus the policies the training pipeline and the ablations
//! construct directly: the reactive training variants and the oracle.

mod baseline;
mod factories;
mod oracle;
mod power_gate;
mod proactive;
mod reactive;

pub use baseline::Baseline;
pub use oracle::Oracle;
pub use power_gate::PowerGated;
pub use proactive::Proactive;
pub use reactive::Reactive;

pub(crate) use factories::{paper_factories, paper_model};
