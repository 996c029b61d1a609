//! Empirical cumulative distribution functions.
//!
//! Most figures in the paper are CDFs (Fig 1b, 2a, 3a, 5, 6a). [`Ecdf`] holds
//! the sorted sample and evaluates `F(x) = #{xi <= x} / n`; it can also emit
//! the step points needed to plot the curve.

use crate::{sorted_copy, validate, StatsError};

/// An empirical CDF over a fixed sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample; rejects empty or NaN input.
    pub fn new(data: &[f64]) -> Result<Self, StatsError> {
        validate(data)?;
        Ok(Ecdf { sorted: sorted_copy(data) })
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Evaluates `F(x)`: the fraction of samples ≤ `x`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point gives the count of elements <= x on a sorted slice.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: smallest sample value v with `F(v) >= p`.
    pub fn inverse(&self, p: f64) -> f64 {
        let n = self.sorted.len();
        if p <= 0.0 {
            return self.sorted[0];
        }
        let k = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[k - 1]
    }

    /// The sorted sample values.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Iterates the `(x, F(x))` plot points without allocating: one per
    /// distinct sample value, with F evaluated after all duplicates of
    /// that value. Callers that only walk the curve (renderers, KS-style
    /// scans) should prefer this over [`Ecdf::steps`].
    pub fn steps_iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        let mut i = 0;
        std::iter::from_fn(move || {
            if i >= self.sorted.len() {
                return None;
            }
            let v = self.sorted[i];
            let mut j = i;
            while j < self.sorted.len() && self.sorted[j] == v {
                j += 1;
            }
            i = j;
            Some((v, j as f64 / n))
        })
    }

    /// Emits `(x, F(x))` plot points as a vector; see [`Ecdf::steps_iter`]
    /// for the allocation-free variant.
    pub fn steps(&self) -> Vec<(f64, f64)> {
        self.steps_iter().collect()
    }

    /// Resamples the curve at `k` evenly spaced probabilities in (0, 1], which
    /// is what the figure renderer uses to print a fixed-size series.
    ///
    /// Edge cases: `k = 0` yields an empty series (nothing to plot, not a
    /// panic); `k ≥ len` simply repeats sample values across adjacent
    /// probabilities — with a single sample every point is that sample.
    pub fn sampled(&self, k: usize) -> Vec<(f64, f64)> {
        (1..=k)
            .map(|i| {
                let p = i as f64 / k as f64;
                (self.inverse(p), p)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ecdf(data: &[f64]) -> Ecdf {
        Ecdf::new(data).unwrap()
    }

    #[test]
    fn eval_basic() {
        let e = ecdf(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn eval_with_duplicates() {
        let e = ecdf(&[1.0, 1.0, 1.0, 2.0]);
        assert_eq!(e.eval(1.0), 0.75);
        assert_eq!(e.eval(1.5), 0.75);
        assert_eq!(e.eval(2.0), 1.0);
    }

    #[test]
    fn inverse_round_trip() {
        let e = ecdf(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(e.inverse(0.25), 10.0);
        assert_eq!(e.inverse(0.5), 20.0);
        assert_eq!(e.inverse(1.0), 40.0);
        assert_eq!(e.inverse(0.0), 10.0);
    }

    #[test]
    fn steps_collapse_duplicates() {
        let e = ecdf(&[1.0, 1.0, 2.0]);
        assert_eq!(e.steps(), vec![(1.0, 2.0 / 3.0), (2.0, 1.0)]);
    }

    #[test]
    fn sampled_is_monotone() {
        let e = ecdf(&[0.4, 0.1, 0.9, 0.5, 0.2, 0.7]);
        let pts = e.sampled(10);
        assert_eq!(pts.len(), 10);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 > w[0].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn sampled_edge_cases() {
        let single = ecdf(&[42.0]);
        assert_eq!(single.sampled(0), vec![], "k=0 is an empty series, not a panic");
        assert_eq!(single.sampled(1), vec![(42.0, 1.0)]);
        assert_eq!(single.sampled(3), vec![(42.0, 1.0 / 3.0), (42.0, 2.0 / 3.0), (42.0, 1.0)]);
        let e = ecdf(&[1.0, 2.0]);
        let over = e.sampled(5); // k >= len: values repeat, probabilities advance
        assert_eq!(over.len(), 5);
        assert_eq!(over.first().unwrap().0, 1.0);
        assert_eq!(over.last().unwrap(), &(2.0, 1.0));
    }

    #[test]
    fn steps_iter_matches_steps_without_allocating_points() {
        let e = ecdf(&[3.0, 1.0, 1.0, 2.0, 3.0, 3.0]);
        let collected: Vec<(f64, f64)> = e.steps_iter().collect();
        assert_eq!(collected, e.steps());
        assert_eq!(e.steps_iter().count(), 3, "one step per distinct value");
    }

    #[test]
    fn rejects_empty_and_nan() {
        assert!(Ecdf::new(&[]).is_err());
        assert!(Ecdf::new(&[f64::NAN]).is_err());
    }
}
