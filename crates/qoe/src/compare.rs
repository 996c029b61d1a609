//! Device comparison — the paper's Welch t-tests (§5).
//!
//! "Since we had data from two different devices, we performed a number of
//! Welch's t-tests in order to understand whether the data sets differ
//! significantly. Only the frame rate differs statistically significantly
//! between the two datasets. Hence, we combine the data in the following
//! analysis of video stalling and latency."

use crate::dataset::SessionDataset;
use pscp_client::ViewerDevice;
use pscp_stats::{welch_t_test, WelchResult};

/// One metric's comparison between the two phones.
#[derive(Debug, Clone)]
pub struct MetricComparison {
    /// Metric name.
    pub metric: &'static str,
    /// Welch test result, if both groups had enough samples.
    pub result: Option<WelchResult>,
}

impl MetricComparison {
    /// Whether the metric differs significantly at α = 0.05.
    pub fn significant(&self) -> bool {
        self.result.map(|r| r.significant_at(0.05)).unwrap_or(false)
    }
}

/// Runs the §5 device comparison across the QoE metrics, from each
/// phone's full sample vectors — the dataset is in memory already.
pub fn device_comparison(dataset: &SessionDataset) -> Vec<MetricComparison> {
    let s3 = dataset.by_device(ViewerDevice::GalaxyS3);
    let s4 = dataset.by_device(ViewerDevice::GalaxyS4);
    let mut out = Vec::new();
    let mut push = |metric: &'static str, a: Vec<f64>, b: Vec<f64>| {
        let result = welch_t_test(&a, &b).ok();
        out.push(MetricComparison { metric, result });
    };
    push("stall ratio", SessionDataset::stall_ratios(&s3), SessionDataset::stall_ratios(&s4));
    push("join time", SessionDataset::join_times_s(&s3), SessionDataset::join_times_s(&s4));
    push(
        "playback latency",
        SessionDataset::playback_latencies_s(&s3),
        SessionDataset::playback_latencies_s(&s4),
    );
    push("frame rate", SessionDataset::fps(&s3), SessionDataset::fps(&s4));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_client::player::PlayerLog;
    use pscp_client::session::PlaybackMetaReport;
    use pscp_client::SessionOutcome;
    use pscp_media::capture::Capture;
    use pscp_service::select::Protocol;
    use pscp_simnet::SimDuration;
    use pscp_workload::broadcast::BroadcastId;

    fn outcome(device: ViewerDevice, fps: f64, join_s: f64) -> SessionOutcome {
        SessionOutcome {
            broadcast_id: BroadcastId(1),
            protocol: Protocol::Rtmp,
            device,
            bandwidth_limit_bps: None,
            player: PlayerLog {
                join_time: Some(SimDuration::from_secs_f64(join_s)),
                stalls: Vec::new(),
                played_s: 55.0,
                latency_samples: vec![2.0],
                session_s: 60.0,
            },
            capture: Capture::new(),
            meta: PlaybackMetaReport {
                n_stalls: 0,
                avg_stall_time_s: None,
                playback_latency_s: Some(2.0 + join_s * 0.01),
            },
            viewers_at_join: 5,
            rendered_fps: fps,
            server: "vidman".to_string(),
            traffic_bps: 0.0,
            stream: None,
        }
    }

    #[test]
    fn only_fps_differs_when_constructed_so() {
        // S3 at ~26 fps, S4 at ~30; identical-distribution joins.
        let mut sessions = Vec::new();
        for i in 0..40 {
            let join = 1.0 + (i % 7) as f64 * 0.3;
            sessions.push(outcome(ViewerDevice::GalaxyS3, 25.5 + (i % 5) as f64 * 0.2, join));
            sessions.push(outcome(ViewerDevice::GalaxyS4, 29.4 + (i % 5) as f64 * 0.2, join));
        }
        let d = SessionDataset::new(sessions);
        let cmp = device_comparison(&d);
        let by_name = |n: &str| cmp.iter().find(|c| c.metric == n).unwrap();
        assert!(by_name("frame rate").significant());
        assert!(!by_name("join time").significant());
        assert!(!by_name("playback latency").significant());
    }

    #[test]
    fn degenerate_groups_yield_none() {
        let d = SessionDataset::new(vec![outcome(ViewerDevice::GalaxyS4, 30.0, 1.0)]);
        let cmp = device_comparison(&d);
        assert!(cmp.iter().all(|c| c.result.is_none()));
        assert!(!cmp[0].significant());
    }

    #[test]
    fn four_metrics_compared() {
        let d = SessionDataset::new(Vec::new());
        assert_eq!(device_comparison(&d).len(), 4);
    }
}
