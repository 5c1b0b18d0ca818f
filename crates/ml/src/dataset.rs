//! Feature/label datasets collected from reactive simulation runs.
//!
//! Every epoch, every router of a reactive run exports one example: its
//! feature vector and (appended at the end of the run, once known) the
//! next epoch's input-buffer utilization as the label. A [`Dataset`] is
//! the concatenation of those examples across routers and traces.

use serde::{Deserialize, Serialize};

use crate::linalg::Matrix;

/// A supervised-learning dataset: `n` examples of `d` features each plus
/// `n` labels.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Dataset {
    features: Vec<f64>,
    labels: Vec<f64>,
    dim: usize,
}

impl Dataset {
    /// An empty dataset of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 1, "datasets need at least one feature");
        Dataset {
            features: Vec::new(),
            labels: Vec::new(),
            dim,
        }
    }

    /// Feature dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of examples.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the dataset holds no examples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Append one example. Panics on a dimension mismatch.
    pub fn push(&mut self, features: &[f64], label: f64) {
        assert_eq!(features.len(), self.dim, "feature dimension mismatch");
        debug_assert!(
            features.iter().all(|f| f.is_finite()) && label.is_finite(),
            "non-finite training example"
        );
        self.features.extend_from_slice(features);
        self.labels.push(label);
    }

    /// Append every example of `other`. Panics on a dimension mismatch.
    pub fn extend(&mut self, other: &Dataset) {
        assert_eq!(other.dim, self.dim, "dataset dimension mismatch");
        self.features.extend_from_slice(&other.features);
        self.labels.extend_from_slice(&other.labels);
    }

    /// The `i`-th feature vector.
    #[inline]
    pub fn example(&self, i: usize) -> &[f64] {
        &self.features[i * self.dim..(i + 1) * self.dim]
    }

    /// The `i`-th label.
    #[inline]
    pub fn label(&self, i: usize) -> f64 {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// The design matrix `X` (one row per example).
    pub fn design_matrix(&self) -> Matrix {
        Matrix::from_rows(self.len(), self.dim, self.features.clone())
    }

    /// Project the dataset onto a subset of feature columns (used by the
    /// Fig. 9 single-feature study). Panics if an index is out of range.
    #[must_use]
    pub fn project(&self, columns: &[usize]) -> Dataset {
        for &c in columns {
            assert!(c < self.dim, "column {c} out of range");
        }
        let mut out = Dataset::new(columns.len());
        for i in 0..self.len() {
            let row = self.example(i);
            let projected: Vec<f64> = columns.iter().map(|&c| row[c]).collect();
            out.push(&projected, self.label(i));
        }
        out
    }

    /// Per-column mean and population standard deviation, used to
    /// standardize features before training so the single λ penalizes all
    /// weights comparably.
    pub fn column_stats(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.len().max(1) as f64;
        let mut mean = vec![0.0; self.dim];
        for i in 0..self.len() {
            for (m, &x) in mean.iter_mut().zip(self.example(i)) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; self.dim];
        for i in 0..self.len() {
            for ((v, &m), &x) in var.iter_mut().zip(&mean).zip(self.example(i)) {
                let d = x - m;
                *v += d * d;
            }
        }
        let std: Vec<f64> = var.into_iter().map(|v| (v / n).sqrt()).collect();
        (mean, std)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut d = Dataset::new(2);
        d.push(&[1.0, 10.0], 0.1);
        d.push(&[2.0, 20.0], 0.2);
        d.push(&[3.0, 30.0], 0.3);
        d
    }

    #[test]
    fn push_and_access() {
        let d = sample();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.example(1), &[2.0, 20.0]);
        assert_eq!(d.label(2), 0.3);
        assert_eq!(d.labels(), &[0.1, 0.2, 0.3]);
    }

    #[test]
    fn design_matrix_shape() {
        let m = sample().design_matrix();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(0), &[1.0, 10.0]);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = sample();
        let b = sample();
        a.extend(&b);
        assert_eq!(a.len(), 6);
        assert_eq!(a.example(3), &[1.0, 10.0]);
    }

    #[test]
    fn project_selects_columns() {
        let d = sample();
        let p = d.project(&[1]);
        assert_eq!(p.dim(), 1);
        assert_eq!(p.example(0), &[10.0]);
        assert_eq!(p.label(0), 0.1);
        // Order can be permuted and columns repeated.
        let p2 = d.project(&[1, 0, 1]);
        assert_eq!(p2.example(2), &[30.0, 3.0, 30.0]);
    }

    #[test]
    fn column_stats() {
        let (mean, std) = sample().column_stats();
        assert!((mean[0] - 2.0).abs() < 1e-12);
        assert!((mean[1] - 20.0).abs() < 1e-12);
        // Population std of {1,2,3} = sqrt(2/3).
        assert!((std[0] - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn wrong_dimension_rejected() {
        let mut d = Dataset::new(2);
        d.push(&[1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_projection_rejected() {
        let _ = sample().project(&[2]);
    }
}
