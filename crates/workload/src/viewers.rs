//! Viewer-count trajectories.
//!
//! The crawler samples viewer counts over a broadcast's life via
//! `getBroadcasts` (§4), so counts must be a *function of time*, not one
//! number: a ramp-up as the broadcast gets ranked, a noisy plateau, and a
//! decline near the end. The trajectory is deterministic given the
//! broadcast's seed, so repeated queries are consistent.

use pscp_simnet::SimTime;

/// Smooth arch shape over normalized progress u ∈ [0,1], scaled so its mean
/// is 1 (hence time-averaged viewers equal `avg`).
fn shape(u: f64) -> f64 {
    let u = u.clamp(0.0, 1.0);
    // Fast ramp to ~1.3 by u=0.2, slow decay to ~0.5 at the end.
    // Normalizing constant measured over the unit interval.
    ramp(u) * decay(u) / 0.77
}

/// The rising factor of [`shape`]: non-decreasing on [0, 1].
fn ramp(u: f64) -> f64 {
    1.0 - (-u * 12.0).exp()
}

/// The falling factor of [`shape`]: non-increasing on [0, 1], ≥ 0.45.
fn decay(u: f64) -> f64 {
    1.0 - 0.55 * u * u
}

/// Deterministic multiplicative noise in [0.7, 1.3] from the seed and the
/// minute index (stable within a minute, like a ranked list refresh).
fn noise(seed: u64, t: SimTime) -> f64 {
    let minute = t.as_micros() / 60_000_000;
    let mut z = seed ^ minute.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    0.7 + 0.6 * (z as f64 / u64::MAX as f64)
}

/// Viewer count for a broadcast with time-averaged popularity `avg`, at
/// normalized progress `progress`, noise-seeded by `seed` at instant `t`.
pub fn viewers_at(avg: f64, progress: f64, seed: u64, t: SimTime) -> u32 {
    count(avg * shape(progress) * noise(seed, t))
}

fn count(v: f64) -> u32 {
    v.round().max(1.0) as u32
}

/// Relative padding of [`over`]'s bounds: orders of magnitude above the
/// error of libm's `exp` and of the f64 steps around it.
const MARGIN: f64 = 1e-9;

/// The one count [`viewers_at`] gives at every progress in `[p0, p1]`
/// during the minute of `t`, when bounds prove there is one; `None` when
/// the count may change.
///
/// Within a minute the noise is fixed, `ramp` rises and `decay` falls, so
/// with `k = avg·noise/0.77` the value lies between `k·ramp(p0)·decay(p1)`
/// and `k·ramp(p1)·decay(p0)`. `viewers_at` computes it within a relative
/// 1e-13 of the exact value (an absolute `1e-11` where `ramp` is tiny,
/// which matters only below 1.5, where every count is 1), and `p0`, `p1`
/// may differ by a few ulps from `viewers_at`'s progress at the range's
/// ends, which moves the value by less than that again. Both bounds are
/// padded by a relative 1e-9 (`MARGIN`); if the padded ends round to the
/// same count, so does every value between them, because rounding is
/// monotone. A value whose bound without the shape, `k`, rounds to at most
/// 1 is 1 with no `exp`.
pub fn over(avg: f64, p0: f64, p1: f64, seed: u64, t: SimTime) -> Option<u32> {
    let (p0, p1) = (p0.clamp(0.0, 1.0), p1.clamp(0.0, 1.0));
    let k = avg * noise(seed, t) / 0.77;
    if k * (1.0 + MARGIN) < 1.5 {
        return Some(1);
    }
    let lo = count(k * ramp(p0) * decay(p1) * (1.0 - MARGIN));
    let hi = count(k * ramp(p1) * decay(p0) * (1.0 + MARGIN));
    (lo == hi).then_some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_mean_is_about_one() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| shape(i as f64 / n as f64)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn shape_ramps_then_decays() {
        assert!(shape(0.0) < 0.2);
        assert!(shape(0.3) > 1.0);
        assert!(shape(1.0) < shape(0.4));
    }

    #[test]
    fn noise_bounded_and_deterministic() {
        for seed in [1u64, 99, 12345] {
            for s in [0u64, 30, 61, 3600] {
                let t = SimTime::from_secs(s);
                let n = noise(seed, t);
                assert!((0.7..=1.3).contains(&n), "n={n}");
                assert_eq!(n, noise(seed, t));
            }
        }
    }

    #[test]
    fn noise_stable_within_minute() {
        let a = noise(5, SimTime::from_secs(60));
        let b = noise(5, SimTime::from_secs(119));
        assert_eq!(a, b);
        let c = noise(5, SimTime::from_secs(120));
        assert_ne!(a, c);
    }

    #[test]
    fn viewers_track_average() {
        // Sampling the trajectory across the broadcast should come out near
        // the nominal average.
        let avg = 50.0;
        let mut total = 0.0;
        let n = 1000;
        for i in 0..n {
            let progress = i as f64 / n as f64;
            let t = SimTime::from_secs(i * 6);
            total += viewers_at(avg, progress, 42, t) as f64;
        }
        let measured = total / n as f64;
        assert!((measured - avg).abs() < avg * 0.15, "measured={measured}");
    }

    #[test]
    fn a_count_within_the_margin_of_a_rounding_boundary_is_not_stated() {
        let t = SimTime::from_secs(600);
        let scale = shape(0.5) * noise(7, t);
        for k in [-1.0, 0.0, 1.0] {
            // A single instant whose value is 2.5 give or take 1e-12.
            let avg = 2.5 / scale * (1.0 + k * 1e-12);
            assert_eq!(over(avg, 0.5, 0.5, 7, t), None, "k={k}");
        }
        let avg = 2.2 / scale;
        assert_eq!(over(avg, 0.5, 0.5, 7, t), Some(2));
        assert_eq!(viewers_at(avg, 0.5, 7, t), 2);
        // Across the ramp the count climbs from 1 to 3: not one count.
        assert_eq!(over(avg, 0.0, 0.5, 7, t), None);
        assert_eq!(over(0.0001, 0.0, 1.0, 7, t), Some(1), "never above 1.5");
    }

    #[test]
    fn viewers_at_least_one_for_popular() {
        assert!(viewers_at(0.5, 0.0, 1, SimTime::ZERO) >= 1);
    }
}
