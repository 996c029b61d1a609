//! Pearson correlation.
//!
//! §4 of the paper: "the popularity is only very weakly correlated with its
//! duration" — experiment E4 checks this with Pearson correlation over the
//! crawled broadcast dataset.

use crate::{validate, StatsError};

/// Pearson product-moment correlation coefficient of paired samples.
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    paired_validate(x, y)?;
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        let dx = xi - mx;
        let dy = yi - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Err(StatsError::InvalidParameter("zero variance in correlation input"));
    }
    Ok(sxy / (sxx * syy).sqrt())
}

fn paired_validate(x: &[f64], y: &[f64]) -> Result<(), StatsError> {
    validate(x)?;
    validate(y)?;
    if x.len() != y.len() {
        return Err(StatsError::InvalidParameter("paired samples must have equal length"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_positive() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_negative() {
        let x = [1.0, 2.0, 3.0];
        let y = [3.0, 2.0, 1.0];
        assert!((pearson(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_uncorrelated_near_zero() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [1.0, -1.0, 1.0, -1.0];
        assert!(pearson(&x, &y).unwrap().abs() < 0.5);
    }

    #[test]
    fn pearson_rejects_constant() {
        assert!(pearson(&[1.0, 1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn pearson_rejects_length_mismatch() {
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_err());
    }
}
