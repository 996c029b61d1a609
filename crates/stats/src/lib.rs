#![warn(missing_docs)]

//! Statistics toolkit for the Periscope reproduction.
//!
//! The paper's analysis relies on a small set of statistical tools: empirical
//! CDFs (Figures 1, 2a, 3a, 5, 6a), boxplots with 1.5·IQR whiskers
//! (Figures 3b, 4a, 4b), Welch's t-test (device comparison in §5), Pearson
//! correlation (duration vs. popularity in §4), and plain descriptive
//! statistics. This crate implements those — and the mergeable quantile
//! sketches the scale runs fold sessions into — from scratch, with no
//! dependencies, so the analysis pipeline is self-contained and auditable.
//! Nothing else lives here: a statistic without a caller is deleted.
//!
//! All functions operate on `f64` slices; NaN inputs are rejected explicitly
//! (an NaN in a latency dataset is a bug upstream, not a value to sort).

pub mod boxplot;
pub mod correlation;
pub mod describe;
pub mod ecdf;
pub mod quantile;
pub mod sketch;
pub mod special;
pub mod table;
pub mod ttest;

pub use boxplot::BoxplotSummary;
pub use describe::Description;
pub use ecdf::Ecdf;
pub use quantile::{median, quantile};
pub use sketch::{Moments, QuantileSketch, TopK};
pub use ttest::{welch_t_test, WelchResult};

/// Error type for statistical computations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The input slice was empty where at least one sample is required.
    EmptyInput,
    /// The input contained a NaN value.
    NanInput,
    /// Not enough samples for the requested statistic (e.g. variance of one).
    InsufficientSamples {
        /// Minimum samples the statistic needs.
        required: usize,
        /// Samples actually provided.
        actual: usize,
    },
    /// A parameter was outside its valid domain.
    InvalidParameter(&'static str),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::EmptyInput => write!(f, "empty input"),
            StatsError::NanInput => write!(f, "input contains NaN"),
            StatsError::InsufficientSamples { required, actual } => {
                write!(f, "need at least {required} samples, got {actual}")
            }
            StatsError::InvalidParameter(p) => write!(f, "invalid parameter: {p}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Validates that a sample set is non-empty and NaN-free.
pub(crate) fn validate(data: &[f64]) -> Result<(), StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if data.iter().any(|x| x.is_nan()) {
        return Err(StatsError::NanInput);
    }
    Ok(())
}

/// Returns a sorted copy of `data`.
///
/// Sorting is total because `validate` guarantees no NaNs at call sites.
pub(crate) fn sorted_copy(data: &[f64]) -> Vec<f64> {
    let mut v = data.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN rejected by validate"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_empty() {
        assert_eq!(validate(&[]), Err(StatsError::EmptyInput));
    }

    #[test]
    fn validate_rejects_nan() {
        assert_eq!(validate(&[1.0, f64::NAN]), Err(StatsError::NanInput));
    }

    #[test]
    fn validate_accepts_normal() {
        assert!(validate(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn sorted_copy_sorts() {
        assert_eq!(sorted_copy(&[3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn error_display() {
        assert_eq!(StatsError::EmptyInput.to_string(), "empty input");
        assert_eq!(
            StatsError::InsufficientSamples { required: 2, actual: 1 }.to_string(),
            "need at least 2 samples, got 1"
        );
    }
}
