//! Usage-pattern analysis over crawler observations — §4 of the paper.
//!
//! Every number here is computed from what the crawler *saw* (observation
//! records), never from simulator ground truth, preserving the estimation
//! biases the paper's methodology has (e.g. durations truncated by crawl
//! boundaries, viewer averages sampled at round granularity).

use crate::records::BroadcastObservation;
use pscp_stats::correlation::pearson;
use pscp_stats::Ecdf;

/// The §4 usage-pattern summary.
#[derive(Debug, Clone)]
pub struct UsageStats {
    /// Distinct broadcasts with an estimated duration.
    pub n_broadcasts: usize,
    /// Median duration, minutes.
    pub median_duration_min: f64,
    /// Fraction of durations within [1, 10] minutes.
    pub frac_duration_1_to_10_min: f64,
    /// Broadcasts with viewer information.
    pub n_with_viewer_info: usize,
    /// Fraction averaging fewer than 20 viewers.
    pub frac_under_20_viewers: f64,
    /// Fraction with zero viewers.
    pub frac_zero_viewers: f64,
    /// Of zero-viewer broadcasts, the fraction unavailable for replay.
    pub frac_zero_viewer_unreplayable: f64,
    /// Mean duration of zero-viewer broadcasts, minutes.
    pub zero_viewer_avg_duration_min: f64,
    /// Mean duration of viewed broadcasts, minutes.
    pub viewed_avg_duration_min: f64,
    /// Zero-viewer share of total tracked broadcast time.
    pub zero_viewer_time_share: f64,
    /// Pearson correlation between duration and average viewers (viewed
    /// broadcasts only).
    pub duration_popularity_correlation: f64,
}

/// Computes the §4 statistics from ended-broadcast observations.
pub fn usage_stats(observations: &[&BroadcastObservation]) -> Option<UsageStats> {
    if observations.len() < 10 {
        return None;
    }
    let durations_min: Vec<f64> =
        observations.iter().map(|o| o.duration_estimate_s() / 60.0).collect();
    let viewers: Vec<f64> = observations.iter().map(|o| o.avg_viewers()).collect();
    let n = observations.len();
    let median = pscp_stats::median(&durations_min).ok()?;
    let in_1_10 =
        durations_min.iter().filter(|&&d| (1.0..=10.0).contains(&d)).count() as f64 / n as f64;
    let zero: Vec<usize> = (0..n).filter(|&i| viewers[i] < 0.5).collect();
    let viewed: Vec<usize> = (0..n).filter(|&i| viewers[i] >= 0.5).collect();
    let frac_zero = zero.len() as f64 / n as f64;
    let under20 = viewers.iter().filter(|&&v| v < 20.0).count() as f64 / n as f64;
    let unreplayable = if zero.is_empty() {
        0.0
    } else {
        zero.iter().filter(|&&i| !observations[i].replay_available).count() as f64
            / zero.len() as f64
    };
    let avg = |idx: &[usize]| -> f64 {
        if idx.is_empty() {
            return 0.0;
        }
        idx.iter().map(|&i| durations_min[i]).sum::<f64>() / idx.len() as f64
    };
    let zero_time: f64 = zero.iter().map(|&i| durations_min[i]).sum();
    let total_time: f64 = durations_min.iter().sum();
    let correlation = if viewed.len() >= 3 {
        let d: Vec<f64> = viewed.iter().map(|&i| durations_min[i]).collect();
        let v: Vec<f64> = viewed.iter().map(|&i| viewers[i]).collect();
        pearson(&d, &v).unwrap_or(0.0)
    } else {
        0.0
    };
    Some(UsageStats {
        n_broadcasts: n,
        median_duration_min: median,
        frac_duration_1_to_10_min: in_1_10,
        n_with_viewer_info: observations.iter().filter(|o| o.viewer_samples > 0).count(),
        frac_under_20_viewers: under20,
        frac_zero_viewers: frac_zero,
        frac_zero_viewer_unreplayable: unreplayable,
        zero_viewer_avg_duration_min: avg(&zero),
        viewed_avg_duration_min: avg(&viewed),
        zero_viewer_time_share: if total_time > 0.0 { zero_time / total_time } else { 0.0 },
        duration_popularity_correlation: correlation,
    })
}

/// Fig 2(a): the duration and average-viewers ECDFs (minutes / viewers on
/// the same log-friendly scale, as the paper plots them).
pub fn fig2a_cdfs(observations: &[&BroadcastObservation]) -> Option<(Ecdf, Ecdf)> {
    let durations: Vec<f64> =
        observations.iter().map(|o| (o.duration_estimate_s() / 60.0).max(0.01)).collect();
    let viewers: Vec<f64> = observations
        .iter()
        .filter(|o| o.viewer_samples > 0)
        .map(|o| o.avg_viewers().max(0.01))
        .collect();
    Some((Ecdf::new(&durations).ok()?, Ecdf::new(&viewers).ok()?))
}

/// Fig 2(b): average viewers per broadcast bucketed by local start hour.
pub fn fig2b_viewers_by_local_hour(
    observations: &[&BroadcastObservation],
    utc_start_hour: f64,
) -> Vec<(u32, f64)> {
    let mut sums = [0.0f64; 24];
    let mut counts = [0u32; 24];
    for o in observations {
        if o.viewer_samples == 0 {
            continue;
        }
        let h = o.local_start_hour(utc_start_hour) as usize % 24;
        sums[h] += o.avg_viewers();
        counts[h] += 1;
    }
    (0..24).filter(|&h| counts[h] > 0).map(|h| (h as u32, sums[h] / counts[h] as f64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::ObservationStore;
    use pscp_service::api::BroadcastDescription;
    use pscp_simnet::SimTime;
    use pscp_workload::broadcast::BroadcastId;

    /// Builds a synthetic observation set: `n_zero` short zero-viewer
    /// broadcasts and `n_viewed` longer viewed ones.
    fn fixture(n_zero: usize, n_viewed: usize) -> ObservationStore {
        let mut store = ObservationStore::new();
        for i in 0..n_zero {
            let desc = BroadcastDescription {
                id: BroadcastId(i as u64 + 1),
                start_s: 0.0,
                n_viewers: 0,
                available_for_replay: i % 10 == 0, // 10% replayable
                live: true,
                lat: 41.0,
                lng: 29.0,
            };
            store.ingest(&desc, SimTime::from_secs(100 + (i as u64 % 60)));
        }
        for i in 0..n_viewed {
            let desc = BroadcastDescription {
                id: BroadcastId(10_000 + i as u64),
                start_s: 0.0,
                n_viewers: 5 + (i as u32 % 40),
                available_for_replay: true,
                live: true,
                lat: 41.0,
                lng: 29.0,
            };
            store.ingest(&desc, SimTime::from_secs(200 + (i as u64 % 500)));
        }
        store
    }

    #[test]
    fn stats_reflect_fixture() {
        let store = fixture(20, 80);
        let all: Vec<&BroadcastObservation> = store.all().collect();
        let stats = usage_stats(&all).unwrap();
        assert_eq!(stats.n_broadcasts, 100);
        assert!((stats.frac_zero_viewers - 0.2).abs() < 1e-9);
        assert!(stats.frac_zero_viewer_unreplayable > 0.85);
        assert!(stats.viewed_avg_duration_min > stats.zero_viewer_avg_duration_min);
    }

    #[test]
    fn too_few_observations_is_none() {
        let store = fixture(2, 3);
        let all: Vec<&BroadcastObservation> = store.all().collect();
        assert!(usage_stats(&all).is_none());
    }

    #[test]
    fn cdfs_built() {
        let store = fixture(10, 50);
        let all: Vec<&BroadcastObservation> = store.all().collect();
        let (dur, view) = fig2a_cdfs(&all).unwrap();
        assert_eq!(dur.len(), 60);
        assert_eq!(view.len(), 60);
    }

    #[test]
    fn diurnal_buckets_cover_hours() {
        let store = fixture(0, 100);
        let all: Vec<&BroadcastObservation> = store.all().collect();
        let series = fig2b_viewers_by_local_hour(&all, 12.0);
        assert!(!series.is_empty());
        for (h, v) in &series {
            assert!(*h < 24);
            assert!(*v > 0.0);
        }
    }
}
