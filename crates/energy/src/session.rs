//! Deriving power from *simulated* sessions.
//!
//! The canonical Fig 7 bars use fixed scenario workloads; this module
//! instead derives the workload from a [`SessionOutcome`]'s actual
//! traffic, closing the loop between the QoE simulation and the energy
//! model (e.g. a chat-heavy session's measured 3.5 Mbps produces the
//! corresponding radio power).

use crate::model::{PowerModel, Radio, Workload};
use crate::scenarios::{scenario_workload, Scenario};
use pscp_client::SessionOutcome;
use pscp_service::select::Protocol;

/// Builds the workload a session imposed on the phone, using its
/// steady-state traffic rate ([`SessionOutcome::traffic_bps`]: media, chat
/// and pictures, not the join bootstrap) and its protocol/chat settings.
pub fn session_workload(outcome: &SessionOutcome, chat_on: bool) -> Workload {
    let base = match (outcome.protocol, chat_on) {
        // SRT is push-delivered like RTMP: same radio/decode duty cycle.
        (Protocol::Rtmp | Protocol::Srt, _) => scenario_workload(Scenario::VideoRtmpChatOff),
        (Protocol::Hls, false) => scenario_workload(Scenario::VideoHlsChatOff),
        (Protocol::Hls, true) => scenario_workload(Scenario::VideoHlsChatOn),
    };
    let clock_ratio = if chat_on { 4.0 / 3.0 } else { 1.0 };
    Workload { traffic_mbps: outcome.traffic_bps / 1e6, clock_ratio, ..base }
}

/// Average power of a session in mW.
pub fn session_power_mw(
    model: &PowerModel,
    outcome: &SessionOutcome,
    radio: Radio,
    chat_on: bool,
) -> f64 {
    model.power_mw(&session_workload(outcome, chat_on), radio)
}

/// Energy of the whole session in joules.
pub fn session_energy_j(
    model: &PowerModel,
    outcome: &SessionOutcome,
    radio: Radio,
    chat_on: bool,
) -> f64 {
    model.energy_j(&session_workload(outcome, chat_on), radio, outcome.player.session_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_client::session::{self, SessionConfig};
    use pscp_media::audio::AudioBitrate;
    use pscp_media::capture::FlowKind;
    use pscp_media::content::ContentClass;
    use pscp_simnet::{GeoPoint, RngFactory, SimDuration, SimTime};
    use pscp_workload::broadcast::{Broadcast, BroadcastId, DeviceProfile};

    fn outcome(chat_on: bool) -> SessionOutcome {
        let cfg = SessionConfig { chat_on, ..Default::default() };
        session::run(
            Protocol::Rtmp,
            &broadcast(),
            SimTime::from_secs(300),
            &cfg,
            &RngFactory::new(77),
        )
    }

    fn broadcast() -> Broadcast {
        Broadcast {
            id: BroadcastId(3),
            location: GeoPoint::new(41.01, 28.98),
            city: "Istanbul",
            start: SimTime::from_secs(100),
            duration: SimDuration::from_secs(1800),
            content: ContentClass::Indoor,
            device: DeviceProfile::Modern,
            audio: AudioBitrate::Kbps32,
            avg_viewers: 120.0,
            replay_available: false,
            private: false,
            location_public: true,
            viewer_seed: 3,
            target_bitrate_bps: 300_000.0,
        }
    }

    /// SRT media is session traffic too: a forced-SRT session and its RTMP
    /// twin (same key, so common random numbers: the same encoder and chat
    /// draws) carry about the same rate, and the SRT one carries more than
    /// its chat and pictures.
    #[test]
    fn srt_media_counts_as_session_traffic() {
        let run = |protocol| {
            let (at, cfg) = (SimTime::from_secs(300), SessionConfig::default());
            session::run(protocol, &broadcast(), at, &cfg, &RngFactory::new(77))
        };
        let (srt, rtmp) = (run(Protocol::Srt), run(Protocol::Rtmp));
        assert_eq!(srt.protocol, Protocol::Srt, "the SRT session fell back");
        let ratio = srt.traffic_bps / rtmp.traffic_bps;
        assert!((ratio - 1.0).abs() < 0.25, "srt={} rtmp={}", srt.traffic_bps, rtmp.traffic_bps);
        let side = srt.capture.rate_of_kinds(&[FlowKind::Chat, FlowKind::PictureHttp]);
        assert!(srt.traffic_bps > side, "srt={} chat+pictures={side}", srt.traffic_bps);
    }

    #[test]
    fn chat_session_costs_more() {
        let model = PowerModel::default();
        let quiet = outcome(false);
        let chatty = outcome(true);
        let p_quiet = session_power_mw(&model, &quiet, Radio::Wifi, false);
        let p_chatty = session_power_mw(&model, &chatty, Radio::Wifi, true);
        assert!(p_chatty > p_quiet + 400.0, "quiet={p_quiet:.0} chatty={p_chatty:.0}");
    }

    #[test]
    fn lte_session_costs_more_than_wifi() {
        let model = PowerModel::default();
        let o = outcome(false);
        let wifi = session_power_mw(&model, &o, Radio::Wifi, false);
        let lte = session_power_mw(&model, &o, Radio::Lte, false);
        assert!(lte > wifi + 300.0, "wifi={wifi:.0} lte={lte:.0}");
    }

    #[test]
    fn energy_scales_with_duration() {
        let model = PowerModel::default();
        let o = outcome(false);
        let e = session_energy_j(&model, &o, Radio::Wifi, false);
        let p = session_power_mw(&model, &o, Radio::Wifi, false);
        assert!((e - p / 1000.0 * 60.0).abs() < 1e-6);
    }

    #[test]
    fn workload_uses_measured_traffic() {
        let o = outcome(false);
        let w = session_workload(&o, false);
        assert!(w.traffic_mbps > 0.1, "measured={}", w.traffic_mbps);
        let measured = w.traffic_mbps;
        assert!(measured > 0.1, "measured={measured}");
    }
}
