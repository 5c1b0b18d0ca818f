//! Machine-learning substrate for DozzNoC (paper §III-D).
//!
//! The paper trains a **ridge regression** offline (in MATLAB) to predict
//! each router's *future input-buffer utilization* from a handful of local
//! features, then exports the weight vector into the network simulator
//! where label generation is a dot product per epoch.
//!
//! This crate is that MATLAB stage, built from scratch:
//!
//! * [`linalg`] — small dense matrices with a Cholesky solver;
//! * [`ridge`] — closed-form ridge regression `(XᵀX + λI)w = Xᵀy` with a
//!   λ sweep on a validation split;
//! * [`dataset`] — feature/label containers, splits, standardization;
//! * [`features`] — the Reduced-5 (Table IV) and Full-41 feature-set
//!   definitions shared with the simulator;
//! * [`metrics`] — MSE/R² and the paper's *mode-selection accuracy*;
//! * [`model`] — the exported weight vector (what the simulator loads).

#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        reason = "unit tests assert table constants and exactly-rounded arithmetic bit-for-bit"
    )
)]

pub mod dataset;
pub mod features;
pub mod linalg;
pub mod metrics;
pub mod model;
pub mod ridge;

pub use dataset::Dataset;
pub use features::{FeatureId, FeatureSet};
pub use linalg::Matrix;
pub use metrics::{mode_of_utilization, mode_selection_accuracy, mse, r_squared};
pub use model::TrainedModel;
pub use ridge::{RidgeRegression, RidgeReport};
