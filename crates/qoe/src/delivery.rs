//! Delivery latency from captures — the §5.1 NTP-timestamp method.
//!
//! "the timestamps enable calculating the delivery latency by subtracting
//! the NTP timestamp value from the time of receiving the packet containing
//! it, also for the HLS sessions for which the playback metadata does not
//! include it."
//!
//! The analysis runs where the capture was recorded: a dataset's worker
//! calls [`analyze_session`] and keeps the report in
//! [`SessionOutcome::stream`](pscp_client::SessionOutcome::stream), so this
//! module is that one function, for callers holding a single session's
//! capture.

pub use pscp_client::session::analyze_session;

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_client::session::{run, strip_rtmp_handshake, SessionConfig, SessionOutcome};
    use pscp_media::audio::AudioBitrate;
    use pscp_media::capture::FlowKind;
    use pscp_media::content::ContentClass;
    use pscp_service::select::Protocol;
    use pscp_simnet::{GeoPoint, RngFactory, SimDuration, SimTime};
    use pscp_workload::broadcast::{Broadcast, BroadcastId, DeviceProfile};

    /// RTMP downstream handshake size (S0 + S1 + S2).
    const RTMP_HANDSHAKE_DOWN: usize = 1 + 2 * 1536;

    /// Mean delivery latency of one session from its capture, seconds.
    fn delivery_latency_s(outcome: &SessionOutcome) -> Option<f64> {
        analyze_session(outcome)?.mean_delivery_latency_s()
    }

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
