//! End-to-end RTMP viewing session.
//!
//! The full §3/§5.1 pipeline: the broadcaster's phone encodes and uploads
//! over a glitchy mobile uplink to the nearest EC2 ingest server, which
//! pushes every message to the viewer the moment it has it ("The RTMP
//! servers can push the video data directly to viewers right after
//! receiving it from the broadcasting client"); the viewer's tethered phone
//! receives through the optional `tc` shaper, tcpdump records every packet,
//! and the player buffers ~1.6 s before rendering.

use crate::broadcaster::IngestTimeline;
use crate::chat_client;
use crate::device::ViewerDevice;
use crate::downlink::{Recording, SendQueue, Tap};
use crate::player::{run_playback, MediaArrival};
use crate::session::{PlaybackMetaReport, SessionConfig, SessionOutcome};
use pscp_media::bitstream::FrameKind;
use pscp_media::capture::FlowKind;
use pscp_media::flv::{AudioTag, VideoTag};
use pscp_proto::amf::{encode_command, Amf0};
use pscp_proto::rtmp::{handshake_c0c1, handshake_s0s1s2, Chunker, Message, MessageType};
use pscp_service::ingest::assign_server;
use pscp_service::select::Protocol;
use pscp_simnet::fault::{self, LinkFaults};
use pscp_simnet::{Link, RngFactory, SimDuration, SimTime, WallClock};
use pscp_workload::broadcast::Broadcast;

/// Small per-message server forwarding delay.
const SERVER_FORWARD: SimDuration = SimDuration::from_millis(5);
/// How much already-uploaded media the server replays from (at most one
/// GOP back to the latest keyframe, so playback can start immediately).
const WARMUP: SimDuration = SimDuration::from_secs(6);
/// Gap an injected mid-stream RTMP disconnect leaves before the client's
/// reconnect completes (DESIGN.md §8).
const RTMP_RECONNECT_GAP: SimDuration = SimDuration::from_secs(4);

/// Runs one RTMP session: the viewer joins `broadcast` at absolute time
/// `join_at` and watches for `config.watch`.
pub fn run(
    broadcast: &Broadcast,
    join_at: SimTime,
    config: &SessionConfig,
    rngs: &RngFactory,
) -> SessionOutcome {
    run_traced(broadcast, join_at, config, rngs, &mut pscp_obs::Trace::disabled())
}

/// [`run`] plus per-session instrumentation into `trace` (no-ops when the
/// trace is disabled; the simulation itself is identical either way —
/// tracing draws no randomness and moves no timestamps).
pub fn run_traced(
    broadcast: &Broadcast,
    join_at: SimTime,
    config: &SessionConfig,
    rngs: &RngFactory,
    trace: &mut pscp_obs::Trace,
) -> SessionOutcome {
    simulate(broadcast, join_at, config, rngs, trace, Recording::Full)
}

/// The session itself. With [`Recording::Counted`] the returned capture
/// holds every packet's time and length but no bytes (DESIGN.md §10,
/// "Uncaptured sessions"); every other field is what `Full` returns.
pub(crate) fn simulate(
    broadcast: &Broadcast,
    join_at: SimTime,
    config: &SessionConfig,
    rngs: &RngFactory,
    trace: &mut pscp_obs::Trace,
    recording: Recording,
) -> SessionOutcome {
    let mut enc_rng = rngs.stream("rtmp/encoder");
    let mut net_rng = rngs.stream("rtmp/net");
    let mut clock_rng = rngs.stream("rtmp/clocks");

    let broadcaster_clock = WallClock::ntp_synced(&mut clock_rng);
    let capture_clock = WallClock::ntp_synced(&mut clock_rng);

    let server = assign_server(&broadcast.location, broadcast.id.0);
    let prop_up = broadcast.location.propagation_to(&server.location());
    let rtt = config.network.rtt_to(&server.location());
    crate::session::trace_session_start(
        trace,
        "rtmp",
        broadcast.id,
        broadcast.viewers_at(join_at),
        join_at.as_micros(),
        config,
    );

    // --- broadcaster side: encode + upload ---
    let sim_start = join_at - WARMUP;
    let end = join_at + config.watch + SimDuration::from_secs(2);
    let ingest = IngestTimeline::simulate(
        broadcast,
        &config.uplink,
        sim_start..end,
        prop_up,
        &broadcaster_clock,
        &mut enc_rng,
        &mut clock_rng,
    );
    let (fps, video_in, audio_in) = (ingest.fps, &ingest.video, &ingest.audio);

    // --- server side: choose the replay start (latest keyframe already
    // ingested when the play command lands) ---
    let tls_rtts = if broadcast.private { pscp_proto::tls::HANDSHAKE_RTTS as u64 } else { 0 };
    // TCP connect + (TLS handshake for private streams) + RTMP handshake.
    let play_cmd_at = join_at + rtt + rtt / 2 + rtt * tls_rtts;
    if trace.is_enabled() {
        trace.event((join_at + rtt).as_micros(), "rtmp", "rtmp.handshake", vec![]);
        trace.event(play_cmd_at.as_micros(), "rtmp", "rtmp.play_start", vec![]);
    }
    let start_idx = ingest.replay_start(play_cmd_at);

    // --- wire: every transmission (bootstrap, handshake, media, chat,
    // pictures) is merged into send-time order before hitting the shared
    // bottleneck link, so cross-traffic genuinely delays video — the FIFO
    // contention behind the paper's 2 Mbps QoE boundary. ---
    let faults = &config.faults;
    let mut tap = Tap::new(
        &capture_clock,
        LinkFaults::active(faults).then(|| LinkFaults::new(faults, rngs.seed(), "rtmp/link")),
    );
    let flow_rtmp = tap.capture.open_flow(FlowKind::Rtmp, server.reverse_dns());
    let flow_misc = tap.capture.open_flow(FlowKind::AppMisc, "api.periscope.tv");
    let flow_chat = tap.capture.open_flow(FlowKind::Chat, "chatman.periscope.tv");
    let flow_pics =
        config.chat_on.then(|| tap.capture.open_flow(FlowKind::PictureHttp, "s3.amazonaws.com"));
    let bottleneck = config.network.bottleneck_bps();
    let one_way_down =
        server.location().propagation_to(&config.network.location) + config.network.access_rtt / 2;
    let mut link = Link::unbounded(bottleneck, one_way_down);

    // Last-chunk metadata for video messages feeding the player.
    struct Meta {
        media_end_s: f64,
        capture_wall_s: f64,
    }
    let mut sends: SendQueue<Option<Meta>> = SendQueue::new(
        recording,
        video_in.iter().map(|f| f.frame.size + 32).sum::<usize>()
            + audio_in.iter().map(|&(_, _, size)| size + 32).sum::<usize>()
            + 64 * 1024,
        video_in.len() + audio_in.len() + 256,
    );

    // App bootstrap: before (and while) the stream starts, the app pulls
    // broadcast metadata, thumbnails and the recent chat backlog. On a fast
    // link this is invisible; under a tc limit it is what makes join times
    // explode (Fig 4a).
    let overhead_bytes = pscp_simnet::dist::lognormal(&mut net_rng, (900_000f64).ln(), 0.7)
        .clamp(150_000.0, 4_000_000.0) as usize;
    sends.push(join_at + config.network.access_rtt, flow_misc, &[], 0, overhead_bytes, None);

    // Handshake: S0+S1+S2 arrive right after connect, then the control
    // burst (SetChunkSize + onStatus).
    let c0c1 = handshake_c0c1(0, 0x7e);
    let s_bytes = handshake_s0s1s2(&c0c1, 0).expect("own C0C1 is valid");
    sends.push(join_at + rtt, flow_rtmp, &s_bytes, 0, 0, None);
    // One scratch buffer holds each message body while the chunker copies
    // it into the arena; it is reused for every message in the session.
    let mut scratch: Vec<u8> = Vec::with_capacity(8 * 1024);
    let mut chunker = Chunker::new();
    chunker.write(&Message::set_chunk_size(4096), &mut scratch);
    chunker.write(
        &Message::command(encode_command(
            "onStatus",
            0.0,
            &[Amf0::Null, Amf0::object([("code", Amf0::String("NetStream.Play.Start".into()))])],
        )),
        &mut scratch,
    );
    sends.push(play_cmd_at, flow_rtmp, &scratch, 0, 0, None);

    // Media messages: backlog burst + live push, interleaved with audio.
    // Each is framed by the chunker (which sets its on-wire length) and
    // queued with the writer of its bytes: FLV tag body into the scratch,
    // chunked from there into the arena.
    let first_pts = video_in.get(start_idx).map(|f| f.frame.pts_ms).unwrap_or(0);
    let frame_dur_s = 1.0 / fps;
    let mut ai =
        audio_in.iter().position(|&(_, pts, _)| pts >= first_pts).unwrap_or(audio_in.len());
    for f in &video_in[start_idx..] {
        let send_at = f.a_in.max(play_cmd_at) + SERVER_FORWARD;
        if send_at >= end {
            break;
        }
        // Interleave any audio due before this frame (chunker state follows
        // the same order the bytes go on the wire).
        while ai < audio_in.len() && audio_in[ai].1 <= f.frame.pts_ms {
            let (a_arr, pts, size) = audio_in[ai];
            ai += 1;
            let a_send = a_arr.max(play_cmd_at) + SERVER_FORWARD;
            if a_send >= end {
                continue;
            }
            let framing = chunker.frame(
                4,
                pts.saturating_sub(first_pts),
                MessageType::Audio,
                1,
                AudioTag::HEADER_LEN + size,
            );
            sends.push_with(a_send, flow_rtmp, framing.wire_len(), None, |arena| {
                scratch.clear();
                AudioTag::encode_into(size, &mut scratch);
                framing.write(&scratch, arena);
            });
            trace.count("rtmp", "audio_msgs", 1);
        }
        // The frame payload *is* the coded frame body: the 5-byte FLV tag
        // header, then the body generated in place.
        let framing = chunker.frame(
            6,
            f.frame.pts_ms.saturating_sub(first_pts),
            MessageType::Video,
            1,
            VideoTag::HEADER_LEN + f.frame.size,
        );
        let meta = Meta {
            media_end_s: (f.frame.pts_ms - first_pts) as f64 / 1000.0 + frame_dur_s,
            capture_wall_s: broadcaster_clock.read_exact(f.t_cap),
        };
        sends.push_with(send_at, flow_rtmp, framing.wire_len(), Some(meta), |arena| {
            scratch.clear();
            VideoTag::write_header(
                f.frame.kind == FrameKind::I,
                if f.frame.kind == FrameKind::B { 33 } else { 0 },
                &mut scratch,
            );
            f.frame.encode_into(&mut scratch);
            framing.write(&scratch, arena);
        });
        trace.count("rtmp", "video_msgs", 1);
    }

    // Chat + pictures (§5.1: JSON flows even with chat off; pictures only
    // with chat on). The chat *pane* — and with it the avatar downloads —
    // only renders once the stream view is up, so picture fetches cannot
    // precede the app bootstrap finishing; the WebSocket connects earlier.
    let bootstrap_done = join_at
        + config.network.access_rtt
        + SimDuration::from_secs_f64(overhead_bytes as f64 * 8.0 / bottleneck);
    for ev in chat_client::events(broadcast, join_at, join_at + config.watch, config, &mut net_rng)
    {
        let (flow, at) = match ev.kind {
            FlowKind::Chat => (flow_chat, ev.at),
            FlowKind::PictureHttp => match flow_pics {
                Some(f) => (f, ev.at.max(bootstrap_done)),
                None => continue,
            },
            _ => continue,
        };
        sends.push(at, flow, &ev.bytes.head, ev.bytes.fill, ev.bytes.pad, None);
    }

    // Private broadcasts travel over RTMPS (§3): the RTMP bytes are sealed
    // in TLS records. The app decrypts them fine (arrival times and media
    // progression are unchanged up to the record overhead), but the
    // tcpdump capture holds only ciphertext — the wall the paper hit,
    // which is why it studied public streams.
    if broadcast.private {
        sends.seal_flow(flow_rtmp, &mut pscp_proto::tls::TlsChannel::new(broadcast.viewer_seed));
    }

    // --- fault injection (DESIGN.md §8): deterministic drop windows for
    // mid-stream disconnects and chat drops, plus per-packet link faults
    // during transmission. Every class is gated on its own rate, so with
    // faults off none of this executes and no variate is drawn. ---
    let fault_seed = faults.seed ^ rngs.seed();
    let dc_windows = if faults.rtmp_disconnect_per_min > 0.0 {
        fault::drop_windows(
            fault_seed,
            "rtmp/disconnect",
            join_at,
            end,
            faults.rtmp_disconnect_per_min,
            RTMP_RECONNECT_GAP,
        )
    } else {
        Vec::new()
    };
    let chat_windows = if faults.chat_drop_per_min > 0.0 {
        fault::drop_windows(
            fault_seed,
            "rtmp/chat",
            join_at,
            join_at + config.watch,
            faults.chat_drop_per_min,
            chat_client::CHAT_RECONNECT_GAP,
        )
    } else {
        Vec::new()
    };
    if !dc_windows.is_empty() {
        trace.count("fault", "rtmp_disconnects", dc_windows.len() as u64);
        trace.count("recovery", "rtmp_reconnects", dc_windows.len() as u64);
    }
    if !chat_windows.is_empty() {
        trace.count("fault", "chat_drops", chat_windows.len() as u64);
        trace.count("recovery", "chat_reconnects", chat_windows.len() as u64);
    }

    // Merge by send time and transmit. Per flow, FIFO enqueueing keeps
    // arrival order non-decreasing.
    sends.sort_by_time();
    let mtu = config.network.mtu.max(256);
    sends.reserve(&mut tap.capture, mtu);
    let mut arrivals: Vec<MediaArrival> = Vec::new();
    for send in sends.iter() {
        if (send.flow == flow_rtmp && fault::in_windows(&dc_windows, send.at))
            || (send.flow == flow_chat && fault::in_windows(&chat_windows, send.at))
        {
            continue; // the connection is down; these bytes never leave
        }
        let last = tap.transmit(&mut link, send.at, send.flow, send.payload, mtu, &mut clock_rng);
        if let (Some(meta), Some(arr)) = (send.tag, last) {
            arrivals.push(MediaArrival {
                at: arr,
                media_end_s: meta.media_end_s,
                capture_wall_s: Some(meta.capture_wall_s),
            });
        }
    }
    let Tap { capture, faults: link_faults, .. } = tap;
    if let Some(lf) = link_faults {
        trace.count("fault", "lost_packets", lf.lost);
        trace.count("fault", "latency_spikes", lf.spiked);
        trace.count("recovery", "retransmits", lf.lost);
    }

    let log = run_playback(join_at, config.watch, config.player_rtmp, &arrivals);
    // Join decomposition (paper Fig 11 analogue): TCP/TLS/RTMP handshakes
    // until the play command, then buffer fill until first render. The two
    // child spans tile [join_at, first_frame] exactly, so they sum to the
    // session's join time; the parent is the teleport driver's session
    // root when one is open.
    if let Some(j) = log.join_time {
        let parent = trace.current_span();
        let first_frame = join_at + j;
        let handshake_end = play_cmd_at.min(first_frame);
        trace.span(
            join_at.as_micros(),
            handshake_end.as_micros(),
            "rtmp",
            "rtmp.handshake",
            parent,
        );
        trace.span(
            handshake_end.as_micros(),
            first_frame.as_micros(),
            "rtmp",
            "rtmp.buffering",
            parent,
        );
    }
    log.record_events(join_at, trace);
    crate::session::trace_session_end(trace, (join_at + config.watch).as_micros(), &log, &capture);
    let meta = PlaybackMetaReport {
        n_stalls: log.n_stalls(),
        avg_stall_time_s: log.avg_stall_s(),
        playback_latency_s: log.mean_latency_s(),
    };
    let rendered_fps = rendered_fps(fps, config.device, &log);
    SessionOutcome {
        broadcast_id: broadcast.id,
        protocol: Protocol::Rtmp,
        device: config.device,
        bandwidth_limit_bps: config.network.tc_limit_bps,
        player: log,
        capture,
        meta,
        viewers_at_join: broadcast.viewers_at(join_at),
        rendered_fps,
        server: if broadcast.private {
            format!("rtmps://{}", server.hostname())
        } else {
            server.hostname()
        },
    }
}

/// Achieved render rate: the stream rate capped by the device, discounted
/// by stall overhead.
pub(crate) fn rendered_fps(
    stream_fps: f64,
    device: ViewerDevice,
    log: &crate::player::PlayerLog,
) -> f64 {
    let base = stream_fps.min(device.render_fps_cap());
    let active = log.played_s / log.session_s.max(1e-9);
    base * active.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::NetworkSetup;
    use pscp_media::analysis::analyze_rtmp_flow;
    use pscp_media::audio::AudioBitrate;
    use pscp_media::content::ContentClass;
    use pscp_simnet::GeoPoint;
    use pscp_workload::broadcast::{BroadcastId, DeviceProfile};

    fn test_broadcast(seed: u64) -> Broadcast {
        Broadcast {
            id: BroadcastId(seed),
            location: GeoPoint::new(41.01, 28.98), // Istanbul
            city: "Istanbul",
            start: SimTime::from_secs(100),
            duration: SimDuration::from_secs(1800),
            content: ContentClass::Indoor,
            device: DeviceProfile::Modern,
            audio: AudioBitrate::Kbps32,
            avg_viewers: 15.0,
            replay_available: true,
            private: false,
            location_public: true,
            viewer_seed: seed,
            target_bitrate_bps: 300_000.0,
        }
    }

    fn run_session(seed: u64, config: SessionConfig) -> SessionOutcome {
        let b = test_broadcast(seed);
        let rngs = RngFactory::new(seed).child("session");
        run(&b, SimTime::from_secs(400), &config, &rngs)
    }

    #[test]
    fn unlimited_session_starts_fast_and_mostly_smooth() {
        let mut clean = 0;
        for seed in 0..10 {
            let out = run_session(seed, SessionConfig::default());
            let join = out.join_time_s().expect("playback starts");
            assert!(join < 8.0, "join={join}");
            if out.stall_ratio() < 0.01 {
                clean += 1;
            }
        }
        // Most unthrottled sessions play smoothly (Fig 3a).
        assert!(clean >= 6, "clean={clean}/10");
    }

    #[test]
    fn playback_latency_is_a_few_seconds() {
        let out = run_session(3, SessionConfig::default());
        let lat = out.meta.playback_latency_s.unwrap();
        assert!((1.0..8.0).contains(&lat), "latency={lat}");
    }

    #[test]
    fn tight_bandwidth_stalls() {
        let config = SessionConfig {
            network: NetworkSetup::finland_limited(0.2), // below video bitrate
            ..Default::default()
        };
        let out = run_session(4, config);
        assert!(
            out.stall_ratio() > 0.2 || out.join_time_s().is_none(),
            "ratio={} join={:?}",
            out.stall_ratio(),
            out.join_time_s()
        );
    }

    #[test]
    fn capture_analyzable_end_to_end() {
        let out = run_session(5, SessionConfig::default());
        let flow = out.capture.flow_of_kind(FlowKind::Rtmp).unwrap();
        // Strip the handshake like wireshark does before dissecting.
        let mut stripped = pscp_media::capture::Flow::new(FlowKind::Rtmp, flow.server.clone());
        let mut skipped = 0usize;
        let skip = 1 + 2 * 1536;
        for p in flow.packets() {
            if skipped >= skip {
                stripped.record(p.at, p.wall_ts, p.payload);
            } else if skipped + p.payload.len() > skip {
                let cut = skip - skipped;
                stripped.record(p.at, p.wall_ts, &p.payload.bytes()[cut..]);
                skipped = skip;
            } else {
                skipped += p.payload.len();
            }
        }
        let report = analyze_rtmp_flow(&stripped).unwrap();
        assert!(report.n_frames > 1000, "frames={}", report.n_frames);
        assert!((100_000.0..600_000.0).contains(&report.bitrate_bps));
        // Delivery latency from NTP stamps: sub-second for RTMP (Fig 5).
        let mean = report.mean_delivery_latency_s().unwrap();
        assert!(mean < 1.5, "delivery latency {mean}");
    }

    #[test]
    fn meta_report_has_rtmp_fields() {
        let out = run_session(6, SessionConfig::default());
        assert!(out.meta.playback_latency_s.is_some());
        assert_eq!(out.protocol, Protocol::Rtmp);
        assert!(out.server.starts_with("vidman-eu-"), "server={}", out.server);
    }

    #[test]
    fn chat_on_adds_picture_traffic() {
        let base = run_session(7, SessionConfig { chat_on: false, ..Default::default() });
        let chatty = run_session(7, SessionConfig::default());
        let pic_bytes = |o: &SessionOutcome| {
            o.capture
                .flows_of_kind(FlowKind::PictureHttp)
                .iter()
                .map(|f| f.byte_count())
                .sum::<usize>()
        };
        assert_eq!(pic_bytes(&base), 0);
        assert!(pic_bytes(&chatty) > 50_000, "pic bytes={}", pic_bytes(&chatty));
        // Chat JSON flows in both cases.
        assert!(base.capture.flow_of_kind(FlowKind::Chat).is_some());
    }

    #[test]
    fn determinism() {
        let a = run_session(8, SessionConfig::default());
        let b = run_session(8, SessionConfig::default());
        assert_eq!(a.player.stalls, b.player.stalls);
        assert_eq!(a.capture.total_bytes(), b.capture.total_bytes());
    }

    #[test]
    fn private_broadcast_capture_is_opaque() {
        let mut b = test_broadcast(31);
        b.private = true;
        let rngs = RngFactory::new(31).child("session");
        let out = run(&b, SimTime::from_secs(400), &SessionConfig::default(), &rngs);
        assert!(out.server.starts_with("rtmps://"), "server={}", out.server);
        // Playback works: the app has the keys.
        assert!(out.join_time_s().is_some());
        // But the capture cannot be dissected: it is TLS records, not RTMP.
        let flow = out.capture.flow_of_kind(FlowKind::Rtmp).unwrap();
        let report = pscp_media::analysis::analyze_rtmp_flow(flow);
        assert!(report.is_err(), "ciphertext must not parse as RTMP");
        // It is, however, decryptable with the session key, record by
        // record (sizes + timing preserved).
        let mut tls = pscp_proto::tls::TlsChannel::new(b.viewer_seed);
        let stream = flow.byte_stream();
        let plain = tls.open_all(&stream).unwrap();
        assert!(plain.len() < stream.len());
    }

    #[test]
    fn s3_renders_slower_than_s4() {
        let s3 =
            run_session(9, SessionConfig { device: ViewerDevice::GalaxyS3, ..Default::default() });
        let s4 = run_session(9, SessionConfig::default());
        assert!(s3.rendered_fps < s4.rendered_fps);
    }
}
