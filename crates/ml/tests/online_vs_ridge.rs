//! Recursive least squares is an *online ridge*: with forgetting λf = 1
//! and initial covariance P₀ = δ·I, one pass over a dataset computes
//! exactly the batch ridge solution with regularization λ = 1/δ —
//!
//! ```text
//! w_RLS = (XᵀX + (1/δ)·I)⁻¹ Xᵀt = w_ridge(λ = 1/δ)
//! ```
//!
//! — the foundation the online-adaptive `Adaptive` DVFS policy of the
//! `ablation-online` study stands on. This
//! test pins the equivalence numerically on a fixed synthetic dataset so
//! a regression in either implementation (the incremental P update or
//! the Cholesky solve) surfaces as a divergence here.

use dozznoc_ml::online::RecursiveLeastSquares;
use dozznoc_ml::{Dataset, RidgeRegression};

/// Deterministic xorshift noise in [-0.5, 0.5) for the synthetic design.
fn noise(seed: &mut u64) -> f64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    (*seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

fn fixed_dataset(dim: usize, n: usize) -> Dataset {
    let mut data = Dataset::new(dim);
    let mut seed = 0x5eed_cafe_u64;
    let true_w: Vec<f64> = (0..dim).map(|j| (j as f64) - 1.5).collect();
    for _ in 0..n {
        let mut x = vec![1.0];
        x.extend((1..dim).map(|_| noise(&mut seed) * 2.0));
        let label: f64 =
            x.iter().zip(&true_w).map(|(a, b)| a * b).sum::<f64>() + 0.05 * noise(&mut seed);
        data.push(&x, label);
    }
    data
}

#[test]
fn single_pass_rls_matches_batch_ridge() {
    for lambda in [1e-2, 1.0, 10.0] {
        let data = fixed_dataset(4, 200);
        let batch = RidgeRegression::new(lambda).fit(&data);

        let mut rls = RecursiveLeastSquares::new(4, 1.0, 1.0 / lambda);
        for i in 0..data.len() {
            rls.update(data.example(i), data.label(i));
        }

        for (j, (online, closed)) in rls.weights().iter().zip(&batch).enumerate() {
            assert!(
                (online - closed).abs() < 1e-6 * closed.abs().max(1.0),
                "λ={lambda}, w[{j}]: RLS {online} vs ridge {closed}"
            );
        }
    }
}

#[test]
fn equivalence_breaks_down_with_forgetting() {
    // Sanity check that the test above is not vacuous: λf < 1 weights
    // recent examples more, so the one-pass solution must differ from
    // the batch fit on the same data.
    let data = fixed_dataset(3, 150);
    let batch = RidgeRegression::new(1.0).fit(&data);
    let mut rls = RecursiveLeastSquares::new(3, 0.9, 1.0);
    for i in 0..data.len() {
        rls.update(data.example(i), data.label(i));
    }
    let max_dev = rls
        .weights()
        .iter()
        .zip(&batch)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    assert!(max_dev > 1e-6, "forgetting had no effect: {max_dev}");
}
