//! Property-based tests of the statistical invariants, on the in-tree
//! `pscp-check` harness.

use pscp_check::{check, ensure, ensure_eq, Gen};
use pscp_stats::boxplot::BoxplotSummary;
use pscp_stats::correlation::pearson;
use pscp_stats::describe::{Accumulator, Description};
use pscp_stats::ecdf::Ecdf;
use pscp_stats::quantile::{median, quantile, quantile_sorted};
use pscp_stats::sketch::{Moments, QuantileSketch};
use pscp_stats::ttest::welch_t_test;

fn arb_data(g: &mut Gen) -> Vec<f64> {
    g.vec(1..200, |g| g.f64(-1e6..1e6))
}

#[test]
fn quantile_within_range() {
    check(
        "quantile_within_range",
        |g: &mut Gen| (arb_data(g), g.f64(0.0..=1.0)),
        |(data, p)| {
            let q = quantile(data, *p).map_err(|e| format!("{e:?}"))?;
            let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            ensure!(q >= min && q <= max, "q={q} outside [{min}, {max}]");
            Ok(())
        },
    );
}

#[test]
fn quantile_monotone() {
    check(
        "quantile_monotone",
        |g: &mut Gen| (arb_data(g), g.f64(0.0..=1.0), g.f64(0.0..=1.0)),
        |(data, p1, p2)| {
            let (lo, hi) = if p1 <= p2 { (*p1, *p2) } else { (*p2, *p1) };
            let q_lo = quantile(data, lo).map_err(|e| format!("{e:?}"))?;
            let q_hi = quantile(data, hi).map_err(|e| format!("{e:?}"))?;
            ensure!(q_lo <= q_hi, "quantile not monotone: F({lo})={q_lo} > F({hi})={q_hi}");
            Ok(())
        },
    );
}

#[test]
fn ecdf_bounds_and_monotonicity() {
    check(
        "ecdf_bounds_and_monotonicity",
        |g: &mut Gen| (arb_data(g), g.f64(-1e6..1e6), g.f64(-1e6..1e6)),
        |(data, x1, x2)| {
            let e = Ecdf::new(data).map_err(|e| format!("{e:?}"))?;
            let (lo, hi) = if x1 <= x2 { (*x1, *x2) } else { (*x2, *x1) };
            let f_lo = e.eval(lo);
            let f_hi = e.eval(hi);
            ensure!((0.0..=1.0).contains(&f_lo), "F out of [0,1]: {f_lo}");
            ensure!(f_lo <= f_hi, "ECDF not monotone");
            // Inverse is a quasi-inverse: F(F^{-1}(p)) >= p.
            let p = 0.37;
            ensure!(e.eval(e.inverse(p)) >= p - 1e-12, "quasi-inverse violated");
            Ok(())
        },
    );
}

#[test]
fn boxplot_ordering_invariants() {
    check("boxplot_ordering_invariants", arb_data, |data| {
        let b = BoxplotSummary::of(data).map_err(|e| format!("{e:?}"))?;
        ensure!(b.whisker_low <= b.q1 + 1e-9, "whisker_low above q1");
        ensure!(b.q1 <= b.median && b.median <= b.q3, "quartiles out of order");
        ensure!(b.q3 <= b.whisker_high + 1e-9, "q3 above whisker_high");
        // Outliers lie strictly outside the whiskers.
        for &o in &b.outliers {
            ensure!(o < b.whisker_low || o > b.whisker_high, "inlier flagged: {o}");
        }
        // Outliers + in-range = n.
        ensure!(b.outliers.len() < b.n || b.n == b.outliers.len(), "outlier count > n");
        Ok(())
    });
}

#[test]
fn welch_p_value_in_unit_interval() {
    check(
        "welch_p_value_in_unit_interval",
        |g: &mut Gen| {
            (g.vec(2..50, |g| g.f64(-100.0..100.0)), g.vec(2..50, |g| g.f64(-100.0..100.0)))
        },
        |(a, b)| {
            let r = welch_t_test(a, b).map_err(|e| format!("{e:?}"))?;
            ensure!((0.0..=1.0).contains(&r.p_value), "p={}", r.p_value);
            ensure!(r.df >= 1.0 || a.len() == 2 && b.len() == 2, "df={} too small", r.df);
            Ok(())
        },
    );
}

#[test]
fn welch_shift_invariance() {
    check(
        "welch_shift_invariance",
        |g: &mut Gen| {
            (
                g.vec(3..30, |g| g.f64(-100.0..100.0)),
                g.vec(3..30, |g| g.f64(-100.0..100.0)),
                g.f64(-1000.0..1000.0),
            )
        },
        |(a, b, shift)| {
            let r1 = welch_t_test(a, b).map_err(|e| format!("{e:?}"))?;
            let a2: Vec<f64> = a.iter().map(|x| x + shift).collect();
            let b2: Vec<f64> = b.iter().map(|x| x + shift).collect();
            let r2 = welch_t_test(&a2, &b2).map_err(|e| format!("{e:?}"))?;
            ensure!(
                (r1.p_value - r2.p_value).abs() < 1e-6,
                "shift changed p: {} vs {}",
                r1.p_value,
                r2.p_value
            );
            Ok(())
        },
    );
}

#[test]
fn correlation_in_unit_ball() {
    check(
        "correlation_in_unit_ball",
        |g: &mut Gen| g.vec(3..80, |g| (g.f64(-100.0..100.0), g.f64(-100.0..100.0))),
        |pairs| {
            let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            if let Ok(r) = pearson(&x, &y) {
                ensure!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "pearson={r}");
            }
            Ok(())
        },
    );
}

#[test]
fn accumulator_equals_batch() {
    check("accumulator_equals_batch", arb_data, |data| {
        let mut acc = Accumulator::new();
        for &x in data {
            acc.push(x);
        }
        let streamed = acc.finish().ok_or("empty accumulator")?;
        let batch = Description::of(data).map_err(|e| format!("{e:?}"))?;
        ensure!((streamed.mean - batch.mean).abs() < 1e-6, "means differ");
        ensure!(
            (streamed.variance - batch.variance).abs() < 1e-3 * batch.variance.max(1.0),
            "variances differ"
        );
        ensure_eq!(streamed.min, batch.min);
        ensure_eq!(streamed.max, batch.max);
        Ok(())
    });
}

#[test]
fn median_is_half_quantile() {
    check("median_is_half_quantile", arb_data, |data| {
        let m = median(data).map_err(|e| format!("{e:?}"))?;
        let q = quantile(data, 0.5).map_err(|e| format!("{e:?}"))?;
        ensure_eq!(m, q);
        Ok(())
    });
}

/// Microsecond-magnitude values spanning the sketch's exact region and
/// several log-linear octaves.
fn arb_us(g: &mut Gen) -> Vec<u64> {
    g.vec(1..300, |g| g.u64(0..=10_000_000))
}

#[test]
fn sketch_merge_is_plan_order_associative() {
    // The deterministic-parallel contract: folding per-unit sketches in
    // plan order must give the same state no matter how the plan was
    // chunked across workers — serial, binary-tree, or per-element merges
    // all land on identical sketches (dense buckets make merge exactly
    // commutative and associative, so even reversed order agrees).
    check(
        "sketch_merge_is_plan_order_associative",
        |g: &mut Gen| (arb_us(g), g.usize(1..8)),
        |(values, chunks)| {
            let mut serial = QuantileSketch::new();
            for &v in values {
                serial.observe(v);
            }
            let chunk_len = values.len().div_ceil(*chunks);
            let mut chunked = QuantileSketch::new();
            for chunk in values.chunks(chunk_len.max(1)) {
                let mut part = QuantileSketch::new();
                for &v in chunk {
                    part.observe(v);
                }
                chunked.merge(&part);
            }
            let mut reversed = QuantileSketch::new();
            for &v in values.iter().rev() {
                let mut one = QuantileSketch::new();
                one.observe(v);
                reversed.merge(&one);
            }
            ensure!(serial == chunked, "chunked merge diverged from serial fold");
            ensure!(serial == reversed, "reversed per-element merge diverged");
            ensure_eq!(serial.quantile(0.5), chunked.quantile(0.5));
            // Footprint stays bounded by the bucket policy, not by n
            // (capacity, not contents, so only an upper bound is stable).
            ensure!(serial.memory_bytes() < 64 * 1024, "sketch footprint not O(1)");
            Ok(())
        },
    );
}

#[test]
fn sketch_quantile_rank_error_vs_quantile_sorted() {
    // The estimate must sit within one rank of the exact quantile, modulo
    // one log-linear bucket width (<= value/128 + 1 at 7 sub-bucket bits).
    check(
        "sketch_quantile_rank_error_vs_quantile_sorted",
        |g: &mut Gen| (arb_us(g), g.f64(0.0..=1.0)),
        |(values, p)| {
            let mut sketch = QuantileSketch::new();
            let mut sorted: Vec<f64> = Vec::with_capacity(values.len());
            for &v in values {
                sketch.observe(v);
                sorted.push(v as f64);
            }
            sorted.sort_by(f64::total_cmp);
            let est = sketch.quantile(*p).ok_or("non-empty sketch returned None")? as f64;
            let n = sorted.len() as f64;
            let exact_lo = quantile_sorted(&sorted, (p - 1.0 / n).max(0.0));
            let exact_hi = quantile_sorted(&sorted, (p + 1.0 / n).min(1.0));
            let lo_bound = exact_lo - exact_lo / 128.0 - 1.0;
            let hi_bound = exact_hi + exact_hi / 128.0 + 1.0;
            ensure!(
                (lo_bound..=hi_bound).contains(&est),
                "quantile({p}) = {est} outside [{lo_bound}, {hi_bound}] (n = {})",
                sorted.len()
            );
            Ok(())
        },
    );
}

#[test]
fn moments_merge_matches_batch_description() {
    // Streaming Welford moments merged across an arbitrary split must agree
    // with the batch description of the whole sample: the count, mean and
    // variance every consumer of a merged `Moments` reads.
    check(
        "moments_merge_matches_batch_description",
        |g: &mut Gen| (g.vec(2..60, |g| g.f64(-100.0..100.0)), g.usize(0..60)),
        |(xs, split)| {
            let cut = (*split).min(xs.len());
            let mut merged = Moments::new();
            let mut right = Moments::new();
            for &x in &xs[..cut] {
                merged.observe(x);
            }
            for &x in &xs[cut..] {
                right.observe(x);
            }
            merged.merge(&right);
            let batch = Description::of(xs).map_err(|e| format!("{e:?}"))?;
            ensure_eq!(merged.count(), xs.len() as u64);
            ensure!((merged.mean() - batch.mean).abs() < 1e-9, "mean diverged");
            let variance = merged.variance().ok_or("no variance at n >= 2")?;
            ensure!((variance - batch.variance).abs() < 1e-6, "variance diverged");
            Ok(())
        },
    );
}
