//! Welch's unequal-variances t-test.
//!
//! §5 of the paper: "Since we had data from two different devices, we
//! performed a number of Welch's t-tests in order to understand whether the
//! data sets differ significantly. Only the frame rate differs statistically
//! significantly between the two datasets." This module provides exactly that
//! test, used by experiment E16.

use crate::describe::Description;
use crate::special::student_t_cdf;
use crate::StatsError;

/// Result of a two-sided Welch's t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelchResult {
    /// The t statistic.
    pub t: f64,
    /// Welch-Satterthwaite degrees of freedom.
    pub df: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Mean of sample a.
    pub mean_a: f64,
    /// Mean of sample b.
    pub mean_b: f64,
}

impl WelchResult {
    /// Whether the difference is significant at level `alpha` (two-sided).
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Runs Welch's t-test on two independent samples.
///
/// Requires at least two samples on each side. If both samples have zero
/// variance and equal means the statistic is 0 (p = 1); zero variance with
/// different means yields p = 0 (infinite t is avoided by clamping).
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Result<WelchResult, StatsError> {
    for s in [a, b] {
        if s.len() < 2 {
            return Err(StatsError::InsufficientSamples { required: 2, actual: s.len() });
        }
    }
    let da = Description::of(a)?;
    let db = Description::of(b)?;
    let (na, mean_a, nb, mean_b) = (da.n as f64, da.mean, db.n as f64, db.mean);
    let va_n = da.variance / na;
    let vb_n = db.variance / nb;
    let se2 = va_n + vb_n;
    if se2 == 0.0 {
        let equal = mean_a == mean_b;
        return Ok(WelchResult {
            t: 0.0,
            df: na + nb - 2.0,
            p_value: if equal { 1.0 } else { 0.0 },
            mean_a,
            mean_b,
        });
    }
    let t = (mean_a - mean_b) / se2.sqrt();
    // Welch–Satterthwaite approximation.
    let df = se2 * se2 / (va_n * va_n / (na - 1.0) + vb_n * vb_n / (nb - 1.0));
    let p_value = 2.0 * (1.0 - student_t_cdf(t.abs(), df));
    Ok(WelchResult { t, df, p_value: p_value.clamp(0.0, 1.0), mean_a, mean_b })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_not_significant() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r = welch_t_test(&a, &a).unwrap();
        assert_eq!(r.t, 0.0);
        assert!((r.p_value - 1.0).abs() < 1e-12);
        assert!(!r.significant_at(0.05));
    }

    #[test]
    fn clearly_different_samples_significant() {
        let a: Vec<f64> = (0..30).map(|i| 10.0 + (i % 5) as f64 * 0.1).collect();
        let b: Vec<f64> = (0..30).map(|i| 20.0 + (i % 5) as f64 * 0.1).collect();
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.p_value < 1e-6);
        assert!(r.significant_at(0.05));
        assert!(r.t < 0.0, "mean_a < mean_b so t negative, got {}", r.t);
    }

    #[test]
    fn matches_reference_computation() {
        // Reference computed independently (Welch formulas + incomplete
        // beta, cross-checked in Python): t = -2.94924, df = 27.3116,
        // p = 0.0064604.
        let a = [
            27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7,
            21.4,
        ];
        let b = [
            27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5,
            31.3,
        ];
        let r = welch_t_test(&a, &b).unwrap();
        assert!((r.t - (-2.949237)).abs() < 1e-5, "t={}", r.t);
        assert!((r.df - 27.31161).abs() < 1e-4, "df={}", r.df);
        assert!((r.p_value - 0.0064604).abs() < 1e-6, "p={}", r.p_value);
    }

    #[test]
    fn requires_two_samples_each() {
        assert!(welch_t_test(&[1.0], &[1.0, 2.0]).is_err());
        assert!(welch_t_test(&[1.0, 2.0], &[]).is_err());
    }

    #[test]
    fn zero_variance_different_means() {
        let r = welch_t_test(&[1.0, 1.0], &[2.0, 2.0]).unwrap();
        assert_eq!(r.p_value, 0.0);
    }

    #[test]
    fn symmetry_in_arguments() {
        let a = [1.0, 3.0, 2.0, 5.0];
        let b = [2.0, 6.0, 4.0, 8.0];
        let r1 = welch_t_test(&a, &b).unwrap();
        let r2 = welch_t_test(&b, &a).unwrap();
        assert!((r1.p_value - r2.p_value).abs() < 1e-12);
        assert!((r1.t + r2.t).abs() < 1e-12);
    }
}
