//! Delivery latency from captures — the §5.1 NTP-timestamp method.
//!
//! "the timestamps enable calculating the delivery latency by subtracting
//! the NTP timestamp value from the time of receiving the packet containing
//! it, also for the HLS sessions for which the playback metadata does not
//! include it."

use pscp_client::SessionOutcome;
use pscp_media::analysis::{analyze_hls_flow, analyze_rtmp_flow, StreamReport};
use pscp_media::capture::{Flow, FlowKind};
use pscp_service::select::Protocol;

/// RTMP downstream handshake size (S0 + S1 + S2) that precedes chunk data.
const RTMP_HANDSHAKE_DOWN: usize = 1 + 2 * 1536;

/// Strips the RTMP handshake bytes from the front of a flow, the way the
/// paper's wireshark workflow starts dissecting after the handshake.
pub fn strip_rtmp_handshake(flow: &Flow) -> Flow {
    flow.strip_prefix(RTMP_HANDSHAKE_DOWN)
}

/// Runs the full capture analysis for one session, dispatching on protocol.
pub fn analyze_session(outcome: &SessionOutcome) -> Option<StreamReport> {
    match outcome.protocol {
        Protocol::Rtmp => {
            let flow = outcome.capture.flow_of_kind(FlowKind::Rtmp)?;
            analyze_rtmp_flow(&strip_rtmp_handshake(flow)).ok()
        }
        Protocol::Hls => {
            let flow = outcome.capture.flow_of_kind(FlowKind::HlsHttp)?;
            analyze_hls_flow(flow).ok()
        }
        // SRT captures are datagram payloads, not a TCP byte stream; the
        // flow dissectors here don't apply. Delivery latency for SRT comes
        // from the player's capture→render samples instead.
        Protocol::Srt => None,
    }
}

/// Mean delivery latency of one session from its capture, seconds.
pub fn delivery_latency_s(outcome: &SessionOutcome) -> Option<f64> {
    analyze_session(outcome)?.mean_delivery_latency_s()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_client::session::{run, SessionConfig};
    use pscp_media::audio::AudioBitrate;
    use pscp_media::content::ContentClass;
    use pscp_simnet::{GeoPoint, RngFactory, SimDuration, SimTime};
    use pscp_workload::broadcast::{Broadcast, BroadcastId, DeviceProfile};

    fn broadcast(viewers: f64) -> Broadcast {
        Broadcast {
            id: BroadcastId(9),
            location: GeoPoint::new(51.51, -0.13),
            city: "London",
            start: SimTime::from_secs(50),
            duration: SimDuration::from_secs(2000),
            content: ContentClass::Outdoor,
            device: DeviceProfile::Modern,
            audio: AudioBitrate::Kbps32,
            avg_viewers: viewers,
            replay_available: false,
            private: false,
            location_public: true,
            viewer_seed: 9,
            target_bitrate_bps: 300_000.0,
        }
    }

    #[test]
    fn rtmp_delivery_sub_second() {
        let out = run(
            Protocol::Rtmp,
            &broadcast(10.0),
            SimTime::from_secs(300),
            &SessionConfig::default(),
            &RngFactory::new(100),
        );
        let lat = delivery_latency_s(&out).expect("latency recovered");
        assert!(lat < 1.0, "lat={lat}");
    }

    #[test]
    fn hls_delivery_seconds() {
        let out = run(
            Protocol::Hls,
            &broadcast(500.0),
            SimTime::from_secs(300),
            &SessionConfig::default(),
            &RngFactory::new(101),
        );
        let lat = delivery_latency_s(&out).expect("latency recovered");
        assert!(lat > 3.0, "lat={lat}");
    }

    #[test]
    fn strip_preserves_total_minus_handshake() {
        let out = run(
            Protocol::Rtmp,
            &broadcast(10.0),
            SimTime::from_secs(300),
            &SessionConfig::default(),
            &RngFactory::new(102),
        );
        let flow = out.capture.flow_of_kind(FlowKind::Rtmp).unwrap();
        let stripped = strip_rtmp_handshake(flow);
        assert_eq!(stripped.byte_count(), flow.byte_count() - RTMP_HANDSHAKE_DOWN);
    }

    #[test]
    fn analyze_session_reports_video_quality() {
        let out = run(
            Protocol::Rtmp,
            &broadcast(10.0),
            SimTime::from_secs(300),
            &SessionConfig::default(),
            &RngFactory::new(103),
        );
        let report = analyze_session(&out).unwrap();
        assert_eq!(report.width, 320);
        assert!(report.n_frames > 500);
    }
}
