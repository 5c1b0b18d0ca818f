//! Property tests for the ML substrate: ridge regression must behave
//! like ridge regression on arbitrary well-posed data.

#![allow(
    clippy::float_cmp,
    reason = "accuracy and projection properties are exact identities: a projected column \
              is a copy, and a self-comparison scores exactly 1.0"
)]

use proptest::prelude::*;

use dozznoc_ml::{
    mode_of_utilization, mode_selection_accuracy, mse, r_squared, Dataset, Matrix, RidgeRegression,
};

/// Strategy: a random linear problem y = w·x with optional noise.
fn arb_linear_problem() -> impl Strategy<Value = (Dataset, Vec<f64>)> {
    (2usize..5, 20usize..80, any::<u64>()).prop_map(|(dim, n, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let true_w: Vec<f64> = (0..dim).map(|_| next() * 4.0).collect();
        let mut ds = Dataset::new(dim);
        for _ in 0..n {
            let mut x = vec![1.0];
            for _ in 1..dim {
                x.push(next() * 2.0);
            }
            let y: f64 = x.iter().zip(&true_w).map(|(a, b)| a * b).sum();
            ds.push(&x, y);
        }
        (ds, true_w)
    })
}

proptest! {
    /// With vanishing regularization, ridge recovers an exact linear
    /// relationship to near machine precision (in prediction space —
    /// the weights themselves may differ on collinear designs).
    #[test]
    fn ridge_interpolates_noiseless_data((ds, _w) in arb_linear_problem()) {
        let w = RidgeRegression::new(1e-10).fit(&ds);
        let pred = RidgeRegression::predict(&w, &ds);
        prop_assert!(mse(&pred, ds.labels()) < 1e-10);
        prop_assert!(r_squared(&pred, ds.labels()) > 1.0 - 1e-8
            || ds.labels().iter().all(|&l| (l - ds.label(0)).abs() < 1e-12));
    }

    /// Increasing λ never increases the weight norm (ridge shrinkage is
    /// monotone).
    #[test]
    fn shrinkage_is_monotone((ds, _w) in arb_linear_problem()) {
        let norms: Vec<f64> = [1e-6, 1e-2, 1.0, 1e2, 1e4]
            .iter()
            .map(|&l| {
                RidgeRegression::new(l)
                    .fit(&ds)
                    .iter()
                    .map(|w| w * w)
                    .sum::<f64>()
            })
            .collect();
        for w in norms.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-9, "{norms:?}");
        }
    }

    /// solve_spd actually solves: A·x = b round trip on random SPD
    /// matrices (Gram of a random matrix + jitter).
    #[test]
    fn spd_solver_round_trip(seed in any::<u64>(), n in 2usize..6) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let data: Vec<f64> = (0..n * n).map(|_| next()).collect();
        let mut a = Matrix::from_rows(n, n, data).gram();
        a.add_diagonal(0.1);
        let x_true: Vec<f64> = (0..n).map(|_| next()).collect();
        let b = a.mul_vec(&x_true);
        let x = a.solve_spd(&b).expect("SPD by construction");
        for (xi, ti) in x.iter().zip(&x_true) {
            prop_assert!((xi - ti).abs() < 1e-6, "{x:?} vs {x_true:?}");
        }
    }

    /// The threshold ladder is monotone and total over all reals.
    #[test]
    fn mode_ladder_total_and_monotone(a in -2.0f64..3.0, b in -2.0f64..3.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(mode_of_utilization(lo) <= mode_of_utilization(hi));
    }

    /// Accuracy is 1 exactly when every prediction lands in its target's
    /// bucket; permuting pairs doesn't change it.
    #[test]
    fn accuracy_invariants(pairs in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..40)) {
        let (pred, tgt): (Vec<f64>, Vec<f64>) = pairs.iter().cloned().unzip();
        let acc = mode_selection_accuracy(&pred, &tgt);
        prop_assert!((0.0..=1.0).contains(&acc));
        // Self-accuracy is always perfect.
        prop_assert_eq!(mode_selection_accuracy(&tgt, &tgt), 1.0);
        // Reversing the example order changes nothing.
        let rp: Vec<f64> = pred.iter().rev().cloned().collect();
        let rt: Vec<f64> = tgt.iter().rev().cloned().collect();
        prop_assert_eq!(mode_selection_accuracy(&rp, &rt), acc);
    }

    /// Dataset projection preserves labels and selected columns.
    #[test]
    fn projection_preserves_content((ds, _w) in arb_linear_problem()) {
        let cols: Vec<usize> = (0..ds.dim()).rev().collect();
        let p = ds.project(&cols);
        prop_assert_eq!(p.len(), ds.len());
        for i in 0..ds.len() {
            prop_assert_eq!(p.label(i), ds.label(i));
            for (j, &c) in cols.iter().enumerate() {
                prop_assert_eq!(p.example(i)[j], ds.example(i)[c]);
            }
        }
    }
}

/// At λ > 0 on noisy data, `fit` solves the regularized normal
/// equations `(XᵀX + λI)w = Xᵀt`. Both sides are built here with plain
/// loops, not with the `Matrix` helpers `fit` itself uses.
#[test]
fn ridge_solves_regularized_normal_equations_on_noisy_data() {
    let (dim, n) = (4, 200);
    let mut state = 0x5eed_cafe_u64;
    let mut noise = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let true_w: Vec<f64> = (0..dim).map(|j| j as f64 - 1.5).collect();
    let mut ds = Dataset::new(dim);
    for _ in 0..n {
        let mut x = vec![1.0];
        x.extend((1..dim).map(|_| noise() * 2.0));
        let t = x.iter().zip(&true_w).map(|(a, b)| a * b).sum::<f64>() + 0.05 * noise();
        ds.push(&x, t);
    }

    for lambda in [1e-2, 1.0, 10.0] {
        let w = RidgeRegression::new(lambda).fit(&ds);
        for j in 0..dim {
            let mut lhs = lambda * w[j];
            let mut rhs = 0.0;
            for i in 0..n {
                let x = ds.example(i);
                lhs += x[j] * x.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>();
                rhs += x[j] * ds.label(i);
            }
            assert!(
                (lhs - rhs).abs() <= 1e-9 * rhs.abs().max(1.0),
                "λ={lambda}, row {j}: (XᵀX + λI)w = {lhs} vs Xᵀt = {rhs}"
            );
        }
    }
}
