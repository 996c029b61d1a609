//! Replay (VOD) viewing session.
//!
//! §5.3: "Playing back old recorded videos with the application consume an
//! equal amount of power as playing back live videos." A replay session
//! fetches an ended playlist from the CDN and pulls segments ahead of
//! playback up to a buffer cap — VOD semantics: no live edge, no waiting
//! for new segments, no delivery-latency notion (the NTP timestamps in the
//! recording are hours stale and excluded from latency analysis). Replay
//! pages still show chat history but the room is closed: only the video
//! traffic flows.

use crate::downlink::{Recording, Tap, Wire};
use crate::player::MediaArrival;
use crate::session::{finish, Delivered, SessionConfig, SessionOutcome};
use pscp_media::capture::FlowKind;
use pscp_obs::Trace;
use pscp_proto::http::Response;
use pscp_service::cdn;
use pscp_service::replay::ReplayVod;
use pscp_service::select::Protocol;
use pscp_simnet::tcp::{TcpModel, INIT_CWND_SEGMENTS};
use pscp_simnet::{RngFactory, SimDuration, SimTime, WallClock};
use pscp_workload::broadcast::Broadcast;

/// Media the player may buffer ahead in a VOD session, seconds.
const VOD_BUFFER_AHEAD_S: f64 = 20.0;

/// Runs one replay session: fetches the recording of `broadcast` starting
/// at `start_at` and watches for `config.watch`. Returns `None` when no
/// replay exists.
pub fn run(
    broadcast: &Broadcast,
    start_at: SimTime,
    config: &SessionConfig,
    rngs: &RngFactory,
) -> Option<SessionOutcome> {
    // Materialize a bit more media than the watch window.
    let vod = ReplayVod::build(broadcast, config.watch.as_secs_f64() + 30.0, rngs)?;
    let mut net_rng = rngs.stream("replay/net");
    let mut tap = Tap::new(Recording::Full, WallClock::ntp_synced(&mut net_rng));
    let pop = cdn::pop_for_session(&config.network.location, broadcast.id.0);
    let rtt = config.network.rtt_to(&pop.location());
    let tcp = TcpModel::new(config.network.mtu.max(256), rtt, config.network.bottleneck_bps());
    let mut cwnd = INIT_CWND_SEGMENTS;
    let flow = tap.open_flow(FlowKind::HlsHttp, pop.hostname());

    // Playlist fetch (connect + request).
    let playlist =
        Response::ok_bytes("application/vnd.apple.mpegurl", vod.playlist().render().into_bytes())
            .encode();
    let boot = tcp.transfer(start_at, playlist.len(), &mut cwnd, true);
    tap.record_response(
        None,
        flow,
        Wire::literal(playlist.len()),
        &boot.chunks,
        &mut net_rng,
        |out| out.extend_from_slice(&playlist),
    );

    // Segment fetch loop: pull ahead of playback up to the buffer cap.
    let session_end = start_at + config.watch;
    let mut now = boot.completion;
    let mut media_end_s = 0.0f64;
    let mut arrivals: Vec<MediaArrival> = Vec::new();
    for segment in &vod.segments {
        if now >= session_end {
            break;
        }
        // VOD pacing: don't buffer more than the cap beyond the play head
        // (approximated by wall time since session start).
        let play_head = now.saturating_since(start_at).as_secs_f64();
        if media_end_s - play_head > VOD_BUFFER_AHEAD_S {
            // Wait until the play head catches up before the next fetch.
            let wait_s = media_end_s - play_head - VOD_BUFFER_AHEAD_S;
            now += SimDuration::from_secs_f64(wait_s);
            if now >= session_end {
                break;
            }
        }
        let head = Response::ok_bytes("video/mp2t", Vec::new()).encode_head(segment.len);
        let resp_len = head.len() + segment.len;
        let schedule = tcp.transfer(now, resp_len, &mut cwnd, false);
        tap.record_response(
            None,
            flow,
            Wire::literal(resp_len),
            &schedule.chunks,
            &mut net_rng,
            |out| {
                out.extend_from_slice(&head);
                segment.write_into(out);
            },
        );
        media_end_s += segment.duration_s;
        // VOD: stale capture timestamps are not latency anchors.
        arrivals.push(MediaArrival { at: schedule.completion, media_end_s, capture_wall_s: None });
        now = schedule.completion;
    }

    let delivered = Delivered {
        arrivals,
        fps: broadcast.device.fps(),
        phases: Vec::new(),
        server: format!("{} (replay)", pop.hostname()),
        link_faults: None,
    };
    let mut outcome = finish(
        Protocol::Hls,
        broadcast,
        start_at,
        config,
        &mut Trace::disabled(),
        tap.capture,
        delivered,
    );
    outcome.viewers_at_join = 0; // nobody else is watching a recording
    Some(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::NetworkSetup;
    use crate::fixture;

    fn broadcast(replay: bool) -> Broadcast {
        Broadcast { replay_available: replay, ..fixture::broadcast(77) }
    }

    #[test]
    fn no_replay_no_session() {
        let out = run(
            &broadcast(false),
            SimTime::from_secs(5000),
            &SessionConfig::default(),
            &RngFactory::new(1),
        );
        assert!(out.is_none());
    }

    #[test]
    fn replay_plays_smoothly_on_fast_link() {
        let out = run(
            &broadcast(true),
            SimTime::from_secs(5000),
            &SessionConfig::default(),
            &RngFactory::new(2),
        )
        .unwrap();
        assert!(out.join_time_s().unwrap() < 10.0);
        assert_eq!(out.meta.n_stalls, 0, "VOD on 100 Mbps should not stall");
        assert!(out.server.contains("replay"));
        // No latency notion for VOD.
        assert!(out.player.latency_samples.is_empty());
    }

    #[test]
    fn replay_traffic_close_to_live_rate() {
        // §5.3: replay playback power equals live — because the traffic and
        // decode load are the same. Check the stream rate is in the same
        // band as the encoder target.
        let out = run(
            &broadcast(true),
            SimTime::from_secs(5000),
            &SessionConfig::default(),
            &RngFactory::new(3),
        )
        .unwrap();
        let rate = out.capture.rate_of_kinds(&[FlowKind::HlsHttp]);
        assert!((100_000.0..900_000.0).contains(&rate), "rate={rate}");
    }

    #[test]
    fn replay_on_slow_link_stalls_or_joins_late() {
        let cfg =
            SessionConfig { network: NetworkSetup::finland_limited(0.2), ..Default::default() };
        let out =
            run(&broadcast(true), SimTime::from_secs(5000), &cfg, &RngFactory::new(4)).unwrap();
        let late = out.join_time_s().map(|j| j > 10.0).unwrap_or(true);
        assert!(late || out.meta.n_stalls > 0);
    }

    #[test]
    fn capture_is_hls_analyzable() {
        let out = run(
            &broadcast(true),
            SimTime::from_secs(5000),
            &SessionConfig::default(),
            &RngFactory::new(5),
        )
        .unwrap();
        let flow = out.capture.flow_of_kind(FlowKind::HlsHttp).unwrap();
        let report = pscp_media::analysis::analyze_hls_flow(flow).unwrap();
        assert!(report.n_frames > 300);
        assert!(!report.segment_durations_s.is_empty());
    }

    #[test]
    fn deterministic() {
        let run_once = || {
            run(
                &broadcast(true),
                SimTime::from_secs(5000),
                &SessionConfig::default(),
                &RngFactory::new(6),
            )
            .unwrap()
            .capture
            .total_bytes()
        };
        assert_eq!(run_once(), run_once());
    }
}
