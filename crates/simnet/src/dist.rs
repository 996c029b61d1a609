//! Random distributions used across the reproduction.
//!
//! The in-tree [`Rng`] core ships only uniform sampling; the distributions
//! the workload model needs (normal, lognormal, exponential, Pareto, Zipf,
//! categorical) are implemented here with standard textbook methods so the
//! whole stack stays dependency-free.

use crate::rng::Rng;

/// Uniforms one [`standard_normal`] (and so one [`normal`]) consumes — what a
/// caller that skips a draw instead of taking it must move its stream by.
pub const NORMAL_UNIFORMS: u64 = 2;

/// Samples a standard normal via Box–Muller (polar form avoided for clarity;
/// the trig form is branch-free and fine at simulation rates).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Draw u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples N(mean, sd²).
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    assert!(sd >= 0.0, "standard deviation must be non-negative");
    mean + sd * standard_normal(rng)
}

/// Samples a lognormal with the given parameters of the underlying normal
/// (`mu`, `sigma` are in log space; the median is `exp(mu)`).
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Samples Exp(rate) via inverse transform; mean is `1/rate`.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "rate must be positive");
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() / rate
}

/// Samples a Pareto with scale `xm` and shape `alpha` (heavy tail for small
/// alpha); support is [xm, ∞).
pub fn pareto<R: Rng + ?Sized>(rng: &mut R, xm: f64, alpha: f64) -> f64 {
    assert!(xm > 0.0 && alpha > 0.0, "Pareto parameters must be positive");
    let u: f64 = 1.0 - rng.gen::<f64>();
    xm / u.powf(1.0 / alpha)
}

/// Samples an integer in `[1, n]` from a Zipf distribution with exponent `s`
/// using the rejection-inversion method of Hörmann & Derflinger, which is
/// O(1) per sample and exact.
pub fn zipf<R: Rng + ?Sized>(rng: &mut R, n: u64, s: f64) -> u64 {
    assert!(n >= 1, "Zipf needs n >= 1");
    assert!(s > 0.0 && (s - 1.0).abs() > 1e-9, "use s != 1 (offset s slightly if needed)");
    // H(x) = (x^(1-s) - 1) / (1 - s) is the antiderivative of x^-s; the
    // algorithm inverts it over [0.5, n+0.5] and rejects against the true
    // point masses k^-s.
    let one_minus_s = 1.0 - s;
    let h = |x: f64| (x.powf(one_minus_s) - 1.0) / one_minus_s;
    let h_inv = |y: f64| (1.0 + one_minus_s * y).powf(1.0 / one_minus_s);
    let h_x1 = h(1.5) - 1.0; // h(1.5) - pmf(1), pmf(1) = 1
    let h_n = h(n as f64 + 0.5);
    // Unconditional-acceptance window width near k = 1.
    let accept_s = 1.0 - h_inv(h(1.5) - 1.0);
    loop {
        let u: f64 = h_x1 + rng.gen::<f64>() * (h_n - h_x1);
        let x = h_inv(u);
        let k = (x + 0.5).floor().clamp(1.0, n as f64);
        if k - x <= accept_s || u >= h(k + 0.5) - k.powf(-s) {
            return k as u64;
        }
    }
}

/// Samples an index from explicit (unnormalized, non-negative) weights.
pub fn categorical<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "categorical needs at least one weight");
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0 && total.is_finite(), "weights must sum to a positive finite value");
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        assert!(w >= 0.0, "weights must be non-negative");
        if u < w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

/// Samples uniformly from `[lo, hi)`.
pub fn uniform<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    assert!(hi >= lo, "need hi >= lo");
    lo + (hi - lo) * rng.gen::<f64>()
}

/// Returns true with probability `p` (clamped to \[0,1\]).
pub fn coin<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    rng.gen::<f64>() < p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    fn rng() -> crate::rng::CounterRng {
        RngFactory::new(1234).stream("dist-tests")
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| normal(&mut r, 5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean={mean}");
        assert!((var - 4.0).abs() < 0.25, "var={var}");
    }

    #[test]
    fn lognormal_median() {
        let mut r = rng();
        let mut xs: Vec<f64> = (0..20_000).map(|_| lognormal(&mut r, 1.0, 0.8)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median - 1f64.exp()).abs() < 0.15, "median={median}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| exponential(&mut r, 0.5)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean={mean}");
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn pareto_support_and_tail() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| pareto(&mut r, 2.0, 1.5)).collect();
        assert!(xs.iter().all(|&x| x >= 2.0));
        // P(X > 4) = (2/4)^1.5 ≈ 0.3536
        let frac = xs.iter().filter(|&&x| x > 4.0).count() as f64 / xs.len() as f64;
        assert!((frac - 0.3536).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let mut r = rng();
        let n = 1000;
        let samples: Vec<u64> = (0..30_000).map(|_| zipf(&mut r, n, 1.2)).collect();
        assert!(samples.iter().all(|&k| (1..=n).contains(&k)));
        let p1 = samples.iter().filter(|&&k| k == 1).count() as f64 / samples.len() as f64;
        let p2 = samples.iter().filter(|&&k| k == 2).count() as f64 / samples.len() as f64;
        assert!(p1 > p2, "p1={p1} p2={p2}");
        // Ratio p1/p2 should be near 2^1.2 ≈ 2.3.
        assert!((p1 / p2 - 2.3).abs() < 0.5, "ratio={}", p1 / p2);
    }

    #[test]
    fn categorical_respects_weights() {
        let mut r = rng();
        let w = [1.0, 3.0, 6.0];
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[categorical(&mut r, &w)] += 1;
        }
        let f2 = counts[2] as f64 / 30_000.0;
        assert!((f2 - 0.6).abs() < 0.02, "f2={f2}");
        assert!(counts[0] < counts[1] && counts[1] < counts[2]);
    }

    #[test]
    fn categorical_zero_weight_never_sampled() {
        let mut r = rng();
        for _ in 0..1000 {
            assert_ne!(categorical(&mut r, &[1.0, 0.0, 1.0]), 1);
        }
    }

    #[test]
    fn uniform_bounds() {
        let mut r = rng();
        for _ in 0..1000 {
            let x = uniform(&mut r, -2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn coin_extremes() {
        let mut r = rng();
        assert!(!coin(&mut r, 0.0));
        assert!(coin(&mut r, 1.0));
        // p outside [0,1] clamps rather than panicking.
        assert!(coin(&mut r, 2.0));
    }

    #[test]
    fn coin_probability() {
        let mut r = rng();
        let hits = (0..20_000).filter(|_| coin(&mut r, 0.3)).count() as f64 / 20_000.0;
        assert!((hits - 0.3).abs() < 0.02, "hits={hits}");
    }
}
