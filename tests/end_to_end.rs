//! End-to-end checks that the paper's five key findings (§1) hold on the
//! reproduction at small scale.

use periscope_repro::client::device::NetworkSetup;
use periscope_repro::client::session::SessionConfig;
use periscope_repro::client::{Teleport, TeleportConfig};
use periscope_repro::core::{Lab, LabConfig};
use periscope_repro::media::capture::FlowKind;
use periscope_repro::qoe::SessionDataset;
use periscope_repro::service::select::Protocol;

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Finding 2+3: HLS is used for popular broadcasts and has longer delivery
/// latency but typically fewer stalls than RTMP.
#[test]
fn hls_for_popular_with_higher_latency() {
    let mut lab = Lab::new(LabConfig::small(21));
    let dataset = lab.session_dataset();
    let rtmp = dataset.unlimited(Protocol::Rtmp);
    let hls = dataset.unlimited(Protocol::Hls);
    assert!(!rtmp.is_empty() && !hls.is_empty(), "both protocols represented");
    // Protocol follows popularity.
    let rtmp_viewers = mean(&rtmp.iter().map(|s| s.viewers_at_join as f64).collect::<Vec<_>>());
    let hls_viewers = mean(&hls.iter().map(|s| s.viewers_at_join as f64).collect::<Vec<_>>());
    assert!(hls_viewers > rtmp_viewers * 2.0, "hls={hls_viewers} rtmp={rtmp_viewers}");
    // Delivery latency (capture-derived, analysed where each session ran)
    // much larger on HLS.
    let lat = |protocol: Protocol| {
        let analysed = dataset.analyzed(protocol).take(10);
        mean(&analysed.filter_map(|(_, r)| r.mean_delivery_latency_s()).collect::<Vec<_>>())
    };
    let rtmp_lat = lat(Protocol::Rtmp);
    let hls_lat = lat(Protocol::Hls);
    assert!(rtmp_lat < 1.0, "rtmp delivery latency {rtmp_lat}");
    assert!(hls_lat > 3.0, "hls delivery latency {hls_lat}");
}

/// Finding 1: ~2 Mbps is the access-bandwidth boundary below which startup
/// latency and stalling clearly increase.
#[test]
fn two_mbps_is_the_qoe_boundary() {
    let mut lab = Lab::new(LabConfig::small(22));
    let rngs = *lab.rngs();
    let svc = lab.service();
    let run_at =
        |svc: &mut periscope_repro::service::PeriscopeService, label: &str, mbps: Option<f64>| {
            let network = match mbps {
                Some(m) => NetworkSetup::finland_limited(m),
                None => NetworkSetup::finland_unlimited(),
            };
            let tp = Teleport::new(svc, rngs.child(label));
            tp.run_dataset(&TeleportConfig {
                sessions: 12,
                session: SessionConfig { network, ..Default::default() },
                ..Default::default()
            })
        };
    let slow = run_at(svc, "slow", Some(0.5));
    let fast = run_at(svc, "fast", None);
    let refs = |v: &[periscope_repro::client::SessionOutcome]| -> (f64, f64) {
        let r: Vec<&_> = v.iter().collect();
        (mean(&SessionDataset::stall_ratios(&r)), mean(&SessionDataset::join_times_s(&r)))
    };
    let (slow_stall, slow_join) = refs(&slow);
    let (fast_stall, fast_join) = refs(&fast);
    assert!(
        slow_stall > fast_stall + 0.05,
        "stalling should jump below the boundary: slow={slow_stall} fast={fast_stall}"
    );
    assert!(
        slow_join > fast_join * 2.0,
        "join time should jump: slow={slow_join} fast={fast_join}"
    );
}

/// Finding 4: video bitrate and quality are similar across protocols,
/// typically 200-400 kbps.
#[test]
fn bitrates_similar_across_protocols() {
    let mut lab = Lab::new(LabConfig::small(23));
    let dataset = lab.session_dataset();
    let rates = |protocol: Protocol| {
        dataset.analyzed(protocol).take(10).map(|(_, r)| r.bitrate_bps).collect::<Vec<_>>()
    };
    let rtmp = rates(Protocol::Rtmp);
    let hls = rates(Protocol::Hls);
    assert!(!rtmp.is_empty() && !hls.is_empty());
    let (mr, mh) = (mean(&rtmp), mean(&hls));
    assert!((mr / mh - 1.0).abs() < 0.4, "rtmp={mr} hls={mh}");
    for r in rtmp.iter().chain(&hls) {
        assert!((60_000.0..1_400_000.0).contains(r), "bitrate={r}");
    }
}

/// Finding 5: chat dramatically raises traffic via uncached profile
/// pictures.
#[test]
fn chat_traffic_explosion_end_to_end() {
    let mut lab = Lab::new(LabConfig::small(24));
    let rngs = *lab.rngs();
    let svc = lab.service();
    let t = periscope_repro::simnet::SimTime::from_secs(400);
    let popular = svc
        .population
        .live_at(t)
        .into_iter()
        .max_by_key(|b| b.viewers_at(t))
        .expect("live broadcasts exist")
        .clone();
    let run = |chat_on: bool| {
        let cfg = SessionConfig { chat_on, ..Default::default() };
        periscope_repro::client::session::run(
            Protocol::Rtmp,
            &popular,
            t,
            &cfg,
            &rngs.child("chat"),
        )
    };
    let quiet = run(false);
    let chatty = run(true);
    // Compare steady-state rates (media + chat + pictures), like the
    // paper's 500 kbps -> 3.5 Mbps observation; the join bootstrap is the
    // same in both runs.
    assert!(
        chatty.traffic_bps > quiet.traffic_bps * 2.0,
        "chat on {} vs off {}",
        chatty.traffic_bps,
        quiet.traffic_bps
    );
    assert!(chatty.capture.flow_of_kind(FlowKind::PictureHttp).is_some());
    assert!(quiet.capture.flow_of_kind(FlowKind::PictureHttp).is_none());
}

/// The capture → analysis path recovers the encoder's ground truth well
/// enough to reproduce Fig 6 (an integration property spanning encoder,
/// packaging, transport, capture and parser).
#[test]
fn capture_analysis_recovers_stream_properties() {
    let mut lab = Lab::new(LabConfig::small(25));
    let sessions = lab.run_viewing_sessions(10);
    let mut analyzed = 0;
    for outcome in &sessions {
        assert!(outcome.capture.flows.is_empty(), "a dataset session kept its capture");
        let Some(r) = &outcome.stream else { continue };
        analyzed += 1;
        assert_eq!(r.width, 320);
        assert_eq!(r.height, 568);
        assert!((10.0..=50.0).contains(&r.avg_qp), "qp={}", r.avg_qp);
        assert!(r.fps > 15.0 && r.fps < 35.0, "fps={}", r.fps);
        assert!(r.i_interval > 20.0 && r.i_interval < 50.0, "i={}", r.i_interval);
        if let Some(a) = r.audio_bitrate_bps {
            assert!((20_000.0..90_000.0).contains(&a), "audio={a}");
        }
    }
    assert!(analyzed >= 8, "analyzed={analyzed}");
}
