//! CSV export of datasets for external plotting tools.
//!
//! The figures render as text tables in-repo; anyone wanting the paper's
//! actual plot styles (ggplot boxplots, CDF curves) can export the
//! underlying per-session and per-broadcast rows and feed them to R or
//! matplotlib. Plain CSV, RFC 4180 quoting.

use crate::dataset::SessionDataset;
use pscp_client::SessionOutcome;

/// Escapes one CSV field per RFC 4180.
fn field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders a CSV from a header and row iterator.
fn csv<I: IntoIterator<Item = Vec<String>>>(header: &[&str], rows: I) -> String {
    let mut out = header.join(",");
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row.iter().map(|c| field(c)).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Per-session CSV: one row per viewing session with every scalar metric
/// the figures use.
pub fn sessions_csv(dataset: &SessionDataset) -> String {
    let header = [
        "broadcast_id",
        "protocol",
        "device",
        "bandwidth_limit_mbps",
        "join_time_s",
        "n_stalls",
        "stall_ratio",
        "avg_stall_s",
        "playback_latency_s",
        "viewers_at_join",
        "rendered_fps",
        "server",
    ];
    let rows = dataset.sessions.iter().map(session_row);
    csv(&header, rows)
}

fn session_row(s: &SessionOutcome) -> Vec<String> {
    let opt = |v: Option<f64>| v.map(|x| format!("{x:.4}")).unwrap_or_default();
    let meta = s.meta();
    vec![
        s.broadcast_id.as_string(),
        s.protocol.name().to_string(),
        s.device.name().to_string(),
        s.bandwidth_limit_bps.map(|b| format!("{}", b / 1e6)).unwrap_or_default(),
        opt(s.join_time_s()),
        meta.n_stalls.to_string(),
        format!("{:.4}", s.stall_ratio()),
        opt(meta.avg_stall_time_s),
        opt(meta.playback_latency_s),
        s.viewers_at_join.to_string(),
        format!("{:.2}", s.rendered_fps),
        s.server.clone(),
    ]
}

/// Per-broadcast CSV from crawler observations (the Fig 2 raw data).
pub fn observations_csv<'a, I>(observations: I) -> String
where
    I: IntoIterator<Item = &'a pscp_crawler::BroadcastObservation>,
{
    let header = [
        "broadcast_id",
        "duration_min",
        "avg_viewers",
        "viewer_samples",
        "replay_available",
        "lat",
        "lng",
        "title",
    ];
    let rows = observations.into_iter().map(|o| {
        let (_, title) = pscp_workload::titles::title_for(o.id.0);
        vec![
            o.id.as_string(),
            format!("{:.3}", o.duration_estimate_s() / 60.0),
            format!("{:.2}", o.avg_viewers()),
            o.viewer_samples.to_string(),
            o.replay_available.to_string(),
            format!("{:.3}", o.lat),
            format!("{:.3}", o.lng),
            title,
        ]
    });
    csv(&header, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_client::player::PlayerLog;
    use pscp_client::ViewerDevice;
    use pscp_media::capture::Capture;
    use pscp_service::select::Protocol;
    use pscp_simnet::SimDuration;
    use pscp_workload::broadcast::BroadcastId;

    fn outcome() -> SessionOutcome {
        SessionOutcome {
            broadcast_id: BroadcastId(1),
            protocol: Protocol::Rtmp,
            device: ViewerDevice::GalaxyS4,
            bandwidth_limit_bps: Some(2e6),
            player: PlayerLog {
                join_time: Some(SimDuration::from_secs(2)),
                stalls: Vec::new(),
                played_s: 58.0,
                latency_sum_s: 2.5,
                latency_n: 1,
                session_s: 60.0,
            },
            capture: Capture::new(),
            viewers_at_join: 12,
            rendered_fps: 29.5,
            server: "vidman-eu-central-1-01.periscope.tv".to_string(),
            traffic_bps: 0.0,
            stream: None,
        }
    }

    #[test]
    fn sessions_csv_shape() {
        let d = SessionDataset::new(vec![outcome(), outcome()]);
        let out = sessions_csv(&d);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("broadcast_id,protocol"));
        assert!(lines[1].contains("RTMP"));
        assert!(lines[1].contains(",2,")); // limit mbps
        assert_eq!(lines[1].split(',').count(), 12);
    }

    #[test]
    fn empty_optionals_are_empty_fields() {
        let d = SessionDataset::new(vec![outcome()]);
        let out = sessions_csv(&d);
        // avg_stall_s empty between stall_ratio and playback latency.
        assert!(out.lines().nth(1).unwrap().contains(",,"));
    }

    #[test]
    fn quoting_rule() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn observations_csv_includes_titles() {
        use pscp_crawler::records::ObservationStore;
        use pscp_service::api::BroadcastDescription;
        use pscp_simnet::SimTime;
        let mut store = ObservationStore::new();
        for i in 0..50 {
            store.ingest(
                &BroadcastDescription {
                    id: BroadcastId(i),
                    start_s: 0.0,
                    n_viewers: 3,
                    available_for_replay: false,
                    live: true,
                    lat: 41.0,
                    lng: 29.0,
                },
                SimTime::from_secs(100),
            );
        }
        let out = observations_csv(store.all());
        assert_eq!(out.lines().count(), 51);
        assert!(out.lines().next().unwrap().ends_with("title"));
    }
}
