//! Regression metrics and the paper's *mode-selection accuracy*.
//!
//! Mode-selection accuracy (Fig. 9) is deliberately coarser than MSE:
//! a prediction counts as accurate when the predicted and the true future
//! buffer utilization land in the *same DVFS threshold bucket* — i.e.
//! when the model would have chosen the same voltage mode either way.

use dozznoc_types::Mode;

/// The paper's §III-B utilization thresholds for active-mode selection:
/// `< 5% → M3, < 10% → M4, < 20% → M5, < 25% → M6, ≥ 25% → M7`.
pub const MODE_THRESHOLDS: [(f64, Mode); 4] = [
    (0.05, Mode::M3),
    (0.10, Mode::M4),
    (0.20, Mode::M5),
    (0.25, Mode::M6),
];

/// Map a (predicted or measured) input-buffer utilization, as a fraction
/// of the theoretical maximum, to the optimal DVFS mode (Fig. 3(b)).
/// Utilizations are clamped into `[0, 1]` first: a regression model can
/// legitimately emit slightly negative predictions at idle.
pub fn mode_of_utilization(ibu: f64) -> Mode {
    let ibu = ibu.clamp(0.0, 1.0);
    for (threshold, mode) in MODE_THRESHOLDS {
        if ibu < threshold {
            return mode;
        }
    }
    Mode::M7
}

/// Mean squared error between predictions and targets.
pub fn mse(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(predictions.len(), targets.len(), "length mismatch");
    assert!(!predictions.is_empty(), "mse of empty slices is undefined");
    predictions
        .iter()
        .zip(targets)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / predictions.len() as f64
}

/// Coefficient of determination R². 1.0 is a perfect fit; 0.0 matches the
/// mean predictor; negative is worse than the mean predictor.
pub fn r_squared(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(predictions.len(), targets.len(), "length mismatch");
    assert!(!targets.is_empty(), "r² of empty slices is undefined");
    let mean = targets.iter().sum::<f64>() / targets.len() as f64;
    let ss_tot: f64 = targets.iter().map(|t| (t - mean) * (t - mean)).sum();
    let ss_res: f64 = predictions
        .iter()
        .zip(targets)
        .map(|(p, t)| (p - t) * (p - t))
        .sum();
    // A sum of squares is exactly 0.0 iff every term is 0.0, so these are
    // sentinels for the constant-target regime, not tolerance checks.
    if ss_tot == 0.0 {
        // Constant targets: perfect iff residuals vanish.
        return if ss_res == 0.0 {
            1.0
        } else {
            f64::NEG_INFINITY
        };
    }
    1.0 - ss_res / ss_tot
}

/// The paper's mode-selection accuracy: the fraction of examples whose
/// predicted and actual utilization select the same DVFS mode.
pub fn mode_selection_accuracy(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(predictions.len(), targets.len(), "length mismatch");
    assert!(
        !predictions.is_empty(),
        "accuracy of empty slices is undefined"
    );
    let hits = predictions
        .iter()
        .zip(targets)
        .filter(|(p, t)| mode_of_utilization(**p) == mode_of_utilization(**t))
        .count();
    hits as f64 / predictions.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_match_paper() {
        assert_eq!(mode_of_utilization(0.0), Mode::M3);
        assert_eq!(mode_of_utilization(0.049), Mode::M3);
        assert_eq!(mode_of_utilization(0.05), Mode::M4);
        assert_eq!(mode_of_utilization(0.099), Mode::M4);
        assert_eq!(mode_of_utilization(0.10), Mode::M5);
        assert_eq!(mode_of_utilization(0.199), Mode::M5);
        assert_eq!(mode_of_utilization(0.20), Mode::M6);
        assert_eq!(mode_of_utilization(0.249), Mode::M6);
        assert_eq!(mode_of_utilization(0.25), Mode::M7);
        assert_eq!(mode_of_utilization(1.0), Mode::M7);
    }

    #[test]
    fn out_of_range_utilizations_clamp() {
        assert_eq!(mode_of_utilization(-0.3), Mode::M3);
        assert_eq!(mode_of_utilization(2.0), Mode::M7);
        assert_eq!(mode_of_utilization(f64::NAN), Mode::M7); // NaN clamps to bound behaviour
    }

    #[test]
    fn mode_is_monotone_in_utilization() {
        let mut prev = Mode::M3;
        for i in 0..=100 {
            let m = mode_of_utilization(i as f64 / 100.0);
            assert!(m >= prev, "mode decreased as utilization rose");
            prev = m;
        }
    }

    #[test]
    fn mse_basics() {
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(mse(&[0.0, 0.0], &[1.0, -1.0]), 1.0);
    }

    #[test]
    fn r_squared_basics() {
        let t = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(r_squared(&t, &t), 1.0);
        // Mean predictor scores exactly 0.
        let mean = [2.5; 4];
        assert!((r_squared(&mean, &t)).abs() < 1e-12);
        // Worse than the mean predictor is negative.
        assert!(r_squared(&[4.0, 3.0, 2.0, 1.0], &t) < 0.0);
    }

    #[test]
    fn r_squared_constant_targets() {
        assert_eq!(r_squared(&[5.0, 5.0], &[5.0, 5.0]), 1.0);
        assert_eq!(r_squared(&[5.0, 6.0], &[5.0, 5.0]), f64::NEG_INFINITY);
    }

    #[test]
    fn accuracy_counts_same_bucket_as_hit() {
        // 0.01 vs 0.04: both M3 → hit even though numerically different.
        // 0.04 vs 0.06: M3 vs M4 → miss even though numerically close.
        let acc = mode_selection_accuracy(&[0.01, 0.04], &[0.04, 0.06]);
        assert_eq!(acc, 0.5);
    }

    #[test]
    fn perfect_predictions_are_fully_accurate() {
        let t = [0.0, 0.07, 0.15, 0.22, 0.9];
        assert_eq!(mode_selection_accuracy(&t, &t), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        mse(&[1.0], &[1.0, 2.0]);
    }
}
