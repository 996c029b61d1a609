//! The session dataset and its figure-oriented selectors.
//!
//! §5: "We have data of 4615 sessions in total: 1796 RTMP and 1586 HLS
//! sessions without a bandwidth limit and 18-91 sessions for each specific
//! bandwidth limit." A [`SessionDataset`] wraps such a collection and
//! exposes the exact groupings the figures use.

use pscp_client::{SessionOutcome, ViewerDevice};
use pscp_media::analysis::StreamReport;
use pscp_service::select::Protocol;
use pscp_stats::BoxplotSummary;

/// A collection of completed sessions.
#[derive(Debug, Default)]
pub struct SessionDataset {
    /// All outcomes.
    pub sessions: Vec<SessionOutcome>,
}

impl SessionDataset {
    /// Wraps outcomes into a dataset.
    pub fn new(sessions: Vec<SessionOutcome>) -> Self {
        SessionDataset { sessions }
    }

    /// Appends more sessions (e.g. another sweep point).
    pub fn extend(&mut self, more: Vec<SessionOutcome>) {
        self.sessions.extend(more);
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Sessions using `protocol`.
    pub fn by_protocol(&self, protocol: Protocol) -> Vec<&SessionOutcome> {
        self.sessions.iter().filter(|s| s.protocol == protocol).collect()
    }

    /// Unlimited-bandwidth sessions using `protocol`.
    pub fn unlimited(&self, protocol: Protocol) -> Vec<&SessionOutcome> {
        self.sessions
            .iter()
            .filter(|s| s.protocol == protocol && s.bandwidth_limit_bps.is_none())
            .collect()
    }

    /// Unlimited-bandwidth sessions using `protocol` whose capture was
    /// analysed, with the report — what Figs 5–6 and the §5.1/§5.2 tables
    /// read.
    pub fn analyzed(
        &self,
        protocol: Protocol,
    ) -> impl Iterator<Item = (&SessionOutcome, &StreamReport)> {
        self.unlimited(protocol).into_iter().filter_map(|s| Some((s, s.stream.as_ref()?)))
    }

    /// Sessions at a specific bandwidth limit (Mbps), any protocol.
    pub fn at_limit(&self, mbps: f64) -> Vec<&SessionOutcome> {
        self.sessions
            .iter()
            .filter(|s| {
                s.bandwidth_limit_bps.map(|b| (b / 1e6 - mbps).abs() < 1e-6).unwrap_or(false)
            })
            .collect()
    }

    /// Sessions on a given device.
    pub fn by_device(&self, device: ViewerDevice) -> Vec<&SessionOutcome> {
        self.sessions.iter().filter(|s| s.device == device).collect()
    }

    /// Stall ratios of a session group.
    pub fn stall_ratios(group: &[&SessionOutcome]) -> Vec<f64> {
        group.iter().map(|s| s.stall_ratio()).collect()
    }

    /// Join times (seconds) of a group; sessions that never joined count as
    /// the full watch duration, matching the paper's 60 s − (play+stall)
    /// formula which yields 60 s when nothing played.
    pub fn join_times_s(group: &[&SessionOutcome]) -> Vec<f64> {
        group.iter().map(|s| s.join_time_s().unwrap_or(s.player.session_s)).collect()
    }

    /// Reported playback latencies of a group (RTMP only — HLS sessions
    /// return nothing, as in the app's playbackMeta).
    pub fn playback_latencies_s(group: &[&SessionOutcome]) -> Vec<f64> {
        group.iter().filter_map(|s| s.meta.playback_latency_s).collect()
    }

    /// Rendered frame rates of a group.
    pub fn fps(group: &[&SessionOutcome]) -> Vec<f64> {
        group.iter().map(|s| s.rendered_fps).collect()
    }

    /// Boxplot summary of a metric over the sessions at each bandwidth
    /// limit in `limits_mbps` (the Fig 3b/4 sweep shape).
    pub fn boxplots_by_limit<F>(
        &self,
        limits_mbps: &[f64],
        metric: F,
    ) -> Vec<(f64, Option<BoxplotSummary>)>
    where
        F: Fn(&[&SessionOutcome]) -> Vec<f64>,
    {
        limits_mbps
            .iter()
            .map(|&l| {
                let group = if l >= 100.0 {
                    self.sessions.iter().filter(|s| s.bandwidth_limit_bps.is_none()).collect()
                } else {
                    self.at_limit(l)
                };
                let values = metric(&group);
                (l, BoxplotSummary::of(&values).ok())
            })
            .collect()
    }

    /// Distinct serving endpoints seen, per protocol — the §5 "87 Amazon
    /// servers vs 2 HLS addresses" observation.
    pub fn distinct_servers(&self, protocol: Protocol) -> std::collections::HashSet<String> {
        self.sessions.iter().filter(|s| s.protocol == protocol).map(|s| s.server.clone()).collect()
    }

    /// Mean viewers at join per protocol, the basis of the paper's ~100
    /// viewer HLS threshold estimate.
    pub fn mean_viewers_at_join(&self, protocol: Protocol) -> Option<f64> {
        let group = self.by_protocol(protocol);
        if group.is_empty() {
            return None;
        }
        Some(group.iter().map(|s| s.viewers_at_join as f64).sum::<f64>() / group.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_client::player::PlayerLog;
    use pscp_client::session::PlaybackMetaReport;
    use pscp_media::capture::Capture;
    use pscp_workload::broadcast::BroadcastId;

    fn outcome(
        protocol: Protocol,
        limit: Option<f64>,
        device: ViewerDevice,
        join: Option<f64>,
        stall_s: f64,
    ) -> SessionOutcome {
        use pscp_client::player::Stall;
        use pscp_simnet::{SimDuration, SimTime};
        let stalls = if stall_s > 0.0 {
            vec![Stall {
                start: SimTime::from_secs(10),
                duration: SimDuration::from_secs_f64(stall_s),
            }]
        } else {
            Vec::new()
        };
        SessionOutcome {
            broadcast_id: BroadcastId(1),
            protocol,
            device,
            bandwidth_limit_bps: limit.map(|m| m * 1e6),
            player: PlayerLog {
                join_time: join.map(SimDuration::from_secs_f64),
                stalls,
                played_s: 50.0,
                latency_samples: vec![2.0],
                session_s: 60.0,
            },
            capture: Capture::new(),
            meta: PlaybackMetaReport {
                n_stalls: u32::from(stall_s > 0.0),
                avg_stall_time_s: (stall_s > 0.0).then_some(stall_s),
                playback_latency_s: (protocol == Protocol::Rtmp).then_some(2.0),
            },
            viewers_at_join: if protocol == Protocol::Hls { 500 } else { 10 },
            rendered_fps: 28.0,
            server: match protocol {
                Protocol::Rtmp => "vidman-eu-central-1-01.periscope.tv".to_string(),
                Protocol::Hls => "fastly-eu.periscope.tv".to_string(),
                Protocol::Srt => "srt-vidman-eu-central-1-01.periscope.tv".to_string(),
            },
            traffic_bps: 0.0,
            stream: None,
        }
    }

    fn dataset() -> SessionDataset {
        SessionDataset::new(vec![
            outcome(Protocol::Rtmp, None, ViewerDevice::GalaxyS4, Some(1.0), 0.0),
            outcome(Protocol::Rtmp, None, ViewerDevice::GalaxyS3, Some(2.0), 4.0),
            outcome(Protocol::Rtmp, Some(2.0), ViewerDevice::GalaxyS4, Some(5.0), 10.0),
            outcome(Protocol::Hls, None, ViewerDevice::GalaxyS4, Some(7.0), 0.0),
            outcome(Protocol::Rtmp, Some(0.5), ViewerDevice::GalaxyS3, None, 0.0),
        ])
    }

    #[test]
    fn selectors() {
        let d = dataset();
        assert_eq!(d.len(), 5);
        assert_eq!(d.by_protocol(Protocol::Rtmp).len(), 4);
        assert_eq!(d.unlimited(Protocol::Rtmp).len(), 2);
        assert_eq!(d.at_limit(2.0).len(), 1);
        assert_eq!(d.by_device(ViewerDevice::GalaxyS3).len(), 2);
    }

    #[test]
    fn join_times_fall_back_to_session_length() {
        let d = dataset();
        let joins = SessionDataset::join_times_s(&d.at_limit(0.5));
        assert_eq!(joins, vec![60.0]);
    }

    #[test]
    fn playback_latency_rtmp_only() {
        let d = dataset();
        let hls = SessionDataset::playback_latencies_s(&d.by_protocol(Protocol::Hls));
        assert!(hls.is_empty());
        let rtmp = SessionDataset::playback_latencies_s(&d.by_protocol(Protocol::Rtmp));
        assert_eq!(rtmp.len(), 4);
    }

    #[test]
    fn boxplots_by_limit_includes_unlimited_as_100() {
        let d = dataset();
        let plots = d.boxplots_by_limit(&[0.5, 2.0, 100.0], SessionDataset::stall_ratios);
        assert_eq!(plots.len(), 3);
        assert!(plots[2].1.is_some()); // unlimited bucket non-empty
    }

    #[test]
    fn distinct_servers_and_viewer_means() {
        let d = dataset();
        assert_eq!(d.distinct_servers(Protocol::Rtmp).len(), 1);
        let hls_mean = d.mean_viewers_at_join(Protocol::Hls).unwrap();
        let rtmp_mean = d.mean_viewers_at_join(Protocol::Rtmp).unwrap();
        assert!(hls_mean > 100.0 && rtmp_mean < 100.0);
    }

    #[test]
    fn stall_ratio_vector() {
        let d = dataset();
        let ratios = SessionDataset::stall_ratios(&d.unlimited(Protocol::Rtmp));
        assert_eq!(ratios.len(), 2);
        assert!(ratios.contains(&0.0));
        assert!(ratios.iter().any(|&r| r > 0.05));
    }
}
