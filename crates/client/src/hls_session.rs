//! End-to-end HLS viewing session.
//!
//! The §5.1 fallback path: the broadcast still reaches an ingest server
//! over the broadcaster's uplink, but is then transcoded/repackaged into
//! 3–6 s MPEG-TS segments and served via a Fastly-like CDN POP near the
//! viewer. The client polls the playlist and pulls each segment over HTTP;
//! segment granularity plus packaging delay is what pushes delivery latency
//! beyond 5 s (Fig 5), while the deep segment buffer is what makes stalls
//! rarer than RTMP (Fig 3 discussion).

use crate::chat_client;
use crate::downlink::Recording;
use crate::player::{run_playback, MediaArrival};
use crate::retry::RetryPolicy;
use crate::rtmp_session::rendered_fps;
use crate::session::{PlaybackMetaReport, SessionConfig, SessionOutcome};
use crate::uplink::Uplink;
use pscp_media::audio::AudioEncoder;
use pscp_media::capture::{Capture, FlowKind};
use pscp_media::content::ContentProcess;
use pscp_media::encoder::{Encoder, EncoderConfig};
use pscp_proto::http::Response;
use pscp_service::cdn;
use pscp_service::ingest::assign_server;
use pscp_service::segmenter::{Segmenter, SegmenterConfig};
use pscp_service::select::Protocol;
use pscp_simnet::fault::{self, FaultRng, LinkFaults};
use pscp_simnet::tcp::{TcpModel, INIT_CWND_SEGMENTS};
use pscp_simnet::{Link, RngFactory, SimDuration, SimTime, WallClock};
use pscp_workload::broadcast::Broadcast;

/// Encode-side latency on the broadcaster phone.
const ENCODE_LATENCY: SimDuration = SimDuration::from_millis(120);
/// History simulated before the join so the playlist is warm.
const WARMUP: SimDuration = SimDuration::from_secs(25);
/// Playlist poll interval while waiting for the next segment.
const POLL: SimDuration = SimDuration::from_millis(1500);
/// How many segments behind the live edge playback starts.
const EDGE_OFFSET: u64 = 2;

/// Runs one HLS session.
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

/// The session itself. With [`Recording::Counted`] segments are sized but
/// never muxed, and the returned capture holds every packet's time and
/// length but no media bytes (DESIGN.md §10, "Uncaptured sessions"); every
/// other field is what `Full` returns.
pub(crate) fn simulate(
    broadcast: &Broadcast,
    join_at: SimTime,
    config: &SessionConfig,
    rngs: &RngFactory,
    trace: &mut pscp_obs::Trace,
    recording: Recording,
) -> SessionOutcome {
    let mut enc_rng = rngs.stream("hls/encoder");
    let mut net_rng = rngs.stream("hls/net");
    let mut clock_rng = rngs.stream("hls/clocks");

    let broadcaster_clock = WallClock::ntp_synced(&mut clock_rng);
    let capture_clock = WallClock::ntp_synced(&mut clock_rng);

    let ingest = assign_server(&broadcast.location, broadcast.id.0);
    let prop_up = broadcast.location.propagation_to(&ingest.location());
    let pop = cdn::pop_for_session(
        &config.network.location,
        broadcast.id.0 ^ (join_at.as_micros() / 60_000_000),
    );
    let rtt = config.network.rtt_to(&pop.location());
    crate::session::trace_session_start(
        trace,
        "hls",
        broadcast.id,
        broadcast.viewers_at(join_at),
        join_at.as_micros(),
        config,
    );

    // --- broadcaster → ingest → segmenter ---
    let enc_cfg = EncoderConfig {
        fps: broadcast.device.fps(),
        gop: broadcast.device.gop(),
        target_bitrate_bps: broadcast.target_bitrate_bps,
        ..Default::default()
    };
    let fps = enc_cfg.fps;
    let content = ContentProcess::new(broadcast.content, &mut enc_rng);
    let mut encoder = Encoder::new(enc_cfg, content);
    let mut audio = AudioEncoder::new(broadcast.audio);
    let sim_start = join_at - WARMUP;
    let end = join_at + config.watch + SimDuration::from_secs(3);
    let mut uplink = Uplink::draw(&config.uplink, sim_start, end, &mut enc_rng);
    let mut segmenter = match recording {
        Recording::Full => Segmenter::new(SegmenterConfig::default()),
        Recording::Counted => Segmenter::lengths_only(SegmenterConfig::default()),
    };
    let total_frames = (end.saturating_since(sim_start).as_secs_f64() * fps) as u64;
    // (pts, broadcaster capture wall) in pts order, for latency anchors.
    let mut capture_wall_by_pts: Vec<(u32, f64)> = Vec::with_capacity(total_frames as usize);
    let mut next_audio_pts = 0.0;
    for i in 0..total_frames {
        let t_cap = sim_start + SimDuration::from_secs_f64(i as f64 / fps);
        let wall = broadcaster_clock.read(t_cap, &mut clock_rng);
        if let Some(frame) = encoder.next_payload(wall, &mut enc_rng) {
            let sent = uplink.upload(t_cap + ENCODE_LATENCY, frame.size);
            let a_in = sent + prop_up;
            capture_wall_by_pts.push((frame.pts_ms, broadcaster_clock.read_exact(t_cap)));
            segmenter.push_payload(frame, a_in);
        }
        while next_audio_pts <= i as f64 * 1000.0 / fps {
            let af = audio.next_frame(&mut enc_rng);
            segmenter.push_audio_fill(af.pts_ms, af.size);
            next_audio_pts += pscp_media::audio::frame_duration_ms();
        }
    }

    // --- client: playlist polls + sequential segment fetches ---
    let mut capture = Capture::new();
    let flow = capture.open_flow(FlowKind::HlsHttp, pop.hostname());
    // Chat cross-traffic shares the bottleneck with segment fetches; the
    // closed-form TCP model cannot interleave flows, so the coupling is the
    // long-run average: chat's expected rate is subtracted from the
    // capacity the fetches see.
    let chat_rate = if config.chat_on {
        pscp_service::chat::expected_chat_rate_bps(
            &pscp_service::chat::ChatConfig::default(),
            broadcast.viewers_at(join_at),
        )
    } else {
        0.0
    };
    let fetch_capacity =
        (config.network.bottleneck_bps() - chat_rate).max(config.network.bottleneck_bps() * 0.15);
    let tcp = TcpModel::new(config.network.mtu.max(256), rtt, fetch_capacity);
    let mut cwnd = INIT_CWND_SEGMENTS;
    let mut arrivals: Vec<MediaArrival> = Vec::new();
    let session_end = join_at + config.watch;

    // --- fault injection (DESIGN.md §8), every class gated on its own
    // rate so a disabled layer draws no variate and changes no byte ---
    let faults = &config.faults;
    let fault_seed = faults.seed ^ rngs.seed();
    let mut link_faults =
        LinkFaults::active(faults).then(|| LinkFaults::new(faults, rngs.seed(), "hls/link"));
    let mut seg_rng = FaultRng::from_label(fault_seed, "hls/segment");
    let pop_host = pop.hostname().to_string();

    // App bootstrap traffic first: metadata, thumbnails, chat backlog.
    let overhead_bytes = pscp_simnet::dist::lognormal(&mut net_rng, (900_000f64).ln(), 0.7)
        .clamp(150_000.0, 4_000_000.0) as usize;
    let misc_flow = capture.open_flow(FlowKind::AppMisc, "api.periscope.tv");
    let boot = tcp.transfer(join_at, overhead_bytes, &mut cwnd, true);
    let mut boot_extra = SimDuration::ZERO;
    for &(at, n) in &boot.chunks {
        let at = match link_faults.as_mut() {
            Some(lf) => {
                // Cumulative extra keeps intra-transfer chunk order intact.
                boot_extra += lf.packet_extra();
                at + boot_extra
            }
            None => at,
        };
        let wall = capture_clock.read(at, &mut net_rng);
        capture.record_zeros(misc_flow, at, wall, n);
    }
    let boot_done = boot.completion + boot_extra;
    trace.count("tcp", "transfers", 1);
    trace.count("tcp", "bytes", overhead_bytes as u64);
    if trace.is_enabled() {
        let boot_ms = (boot_done.saturating_since(join_at).as_secs_f64() * 1000.0) as u64;
        trace.event(
            boot_done.as_micros(),
            "tcp",
            "tcp.bootstrap",
            vec![
                ("bytes", pscp_obs::Field::U(overhead_bytes as u64)),
                ("ms", pscp_obs::Field::U(boot_ms)),
            ],
        );
    }
    // Initial playlist fetch after bootstrap completes.
    let mut now = boot_done + rtt;
    let mut next_seq: Option<u64> = None;
    let mut media_end_s = 0.0_f64;
    let mut fetched = 0u64;
    // When the first segment fetch began — the boundary between the
    // playlist-discovery phase and the segment-download phase of the join.
    let mut first_fetch_start: Option<SimTime> = None;
    let seg_cfg = SegmenterConfig::default();
    while now < session_end {
        // Every pass is one playlist-edge probe of this POP: the alerting
        // layer's coverage signal. Keyed by the POP's static hostname so
        // per-POP outage rules can be scored against per-POP ground truth.
        trace.ring("probe", pop.hostname(), now.as_micros(), 1);
        if faults.pop_outage.is_active() && faults.pop_outage.in_outage(faults.seed, &pop_host, now)
        {
            // The POP is down (outage schedules are keyed on the fault seed
            // alone, so every session agrees on when this POP was out). The
            // playlist poll fails; the client re-polls until it is back.
            trace.count("fault", "pop_outage_polls", 1);
            trace.count("recovery", "playlist_repolls", 1);
            // Symptom ring: written only when an injected outage was
            // actually observed, which is what makes the POP-outage alert
            // rule provably inert on fault-free runs.
            trace.ring("outage", pop.hostname(), now.as_micros(), 1);
            if trace.is_enabled() {
                trace.event(now.as_micros(), "fault", "fault.pop_outage", vec![]);
            }
            let up = faults.pop_outage.outage_end(faults.seed, &pop_host, now);
            now = up.max(now + POLL);
            continue;
        }
        let playlist = segmenter.playlist_at(now);
        let record_playlist =
            |capture: &mut Capture, at: SimTime, rng: &mut pscp_simnet::rng::CounterRng| {
                let resp = Response::ok_bytes(
                    "application/vnd.apple.mpegurl",
                    playlist.render().into_bytes(),
                );
                let wall = capture_clock.read(at, rng);
                capture.record(flow, at, wall, recording.payload((&resp.encode()).into()));
            };
        let Some(last) = playlist.last_sequence() else {
            record_playlist(&mut capture, now, &mut net_rng);
            trace.count("hls", "playlist_polls", 1);
            now += POLL;
            continue;
        };
        let want = match next_seq {
            Some(seq) => seq,
            None => {
                // Join at the live edge minus EDGE_OFFSET segments.
                let start = last.saturating_sub(EDGE_OFFSET.saturating_sub(1));
                let start = start.max(playlist.media_sequence);
                next_seq = Some(start);
                start
            }
        };
        if want > last {
            // Live edge reached: poll the playlist until a new segment
            // appears (costs an RTT and a tiny response).
            record_playlist(&mut capture, now + rtt, &mut net_rng);
            trace.count("hls", "playlist_polls", 1);
            if trace.is_enabled() {
                trace.event((now + rtt).as_micros(), "hls", "hls.playlist_poll", vec![]);
            }
            now += POLL.max(rtt);
            continue;
        }
        let uri = format!("seg_{want}.ts");
        let Some(segment) = segmenter.segment_by_uri(&uri, now) else {
            // Advertised but not yet uploaded to the POP: brief wait.
            now += POLL;
            continue;
        };
        if first_fetch_start.is_none() {
            first_fetch_start = Some(now);
        }
        if faults.segment_error_rate > 0.0 {
            // Injected segment-fetch errors: each failed attempt costs an
            // RTT plus a capped backoff, then the fetch is retried; after
            // the policy's budget the fetch goes through regardless (the
            // CDN has more than one disk).
            let policy = RetryPolicy::segment_fetch();
            let mut attempt = 0;
            while attempt + 1 < policy.max_attempts && seg_rng.chance(faults.segment_error_rate) {
                trace.count("fault", "segment_errors", 1);
                trace.count("recovery", "segment_refetches", 1);
                now += rtt + policy.backoff(attempt, &mut seg_rng);
                attempt += 1;
            }
        }
        let fetch_started = now;
        // The response is its head followed by the segmenter's own bytes;
        // nothing is copied into an encoded response first.
        let head = Response::ok_bytes("video/mp2t", Vec::new()).encode_head(segment.len);
        let resp_len = head.len() + segment.len;
        let schedule = tcp.transfer(now, resp_len, &mut cwnd, fetched == 0);
        // Record the response bytes sliced along the arrival schedule.
        let mut off = 0usize;
        let mut extra_total = SimDuration::ZERO;
        for &(at, n) in &schedule.chunks {
            let at = match link_faults.as_mut() {
                Some(lf) => {
                    extra_total += lf.packet_extra();
                    at + extra_total
                }
                None => at,
            };
            let end_off = (off + n).min(resp_len);
            let wall = capture_clock.read(at, &mut net_rng);
            let h = head.len();
            if recording == Recording::Counted {
                capture.record_zeros(flow, at, wall, end_off - off);
            } else {
                let body = &segment.bytes[off.saturating_sub(h)..end_off.saturating_sub(h)];
                if off < h {
                    // The one chunk that carries the head and the body's start.
                    capture.record(flow, at, wall, &[&head[off..end_off.min(h)], body].concat());
                } else {
                    capture.record(flow, at, wall, body);
                }
            }
            off = end_off;
        }
        let completion = schedule.completion + extra_total;
        media_end_s += segment.duration_s;
        // Latency anchor: the capture wall time of the segment's last frame.
        let last_frame_wall = segment.last_video_pts_ms.and_then(|pts| {
            let i = capture_wall_by_pts.binary_search_by_key(&pts, |&(p, _)| p).ok()?;
            Some(capture_wall_by_pts[i].1)
        });
        arrivals.push(MediaArrival {
            at: completion,
            media_end_s,
            capture_wall_s: last_frame_wall,
        });
        let fetch_ms = (completion.saturating_since(now).as_secs_f64() * 1000.0) as u64;
        // Service/CDN side-channel spans: transcode+packaging of this
        // segment (ends when the POP can serve it) and the CDN delivery.
        // Parentless on purpose — the join tree's children must tile the
        // root exactly, and these overlap it.
        trace.span(
            (segment.available_at - seg_cfg.packaging_delay).as_micros(),
            segment.available_at.as_micros(),
            "service",
            "service.transcode",
            None,
        );
        trace.span(fetch_started.as_micros(), completion.as_micros(), "cdn", "cdn.fetch", None);
        trace.count("hls", "segments_fetched", 1);
        trace.count("tcp", "transfers", 1);
        trace.count("tcp", "bytes", resp_len as u64);
        trace.observe("hls", "segment_bytes", &pscp_obs::BYTE_BUCKETS, resp_len as u64);
        trace.observe("tcp", "fetch_ms", &pscp_obs::MS_BUCKETS, fetch_ms);
        if trace.is_enabled() {
            trace.event(
                completion.as_micros(),
                "hls",
                "hls.segment_fetch",
                vec![
                    ("seq", pscp_obs::Field::U(want)),
                    ("bytes", pscp_obs::Field::U(resp_len as u64)),
                    ("fetch_ms", pscp_obs::Field::U(fetch_ms)),
                ],
            );
        }
        now = completion;
        next_seq = Some(want + 1);
        fetched += 1;
    }
    if let Some(lf) = link_faults {
        trace.count("fault", "lost_packets", lf.lost);
        trace.count("fault", "latency_spikes", lf.spiked);
        trace.count("recovery", "retransmits", lf.lost);
    }

    // Chat traffic: on HLS sessions the popular broadcasts have busy, often
    // full chats. Modeled on its own link with the same shaping rate (the
    // HTTP fetch path above is a closed-form TCP model, so cross-traffic
    // coupling is approximated — see DESIGN.md).
    let mut chat_link = Link::unbounded(
        config.network.bottleneck_bps(),
        pop.location().propagation_to(&config.network.location),
    );
    let chat_windows = if faults.chat_drop_per_min > 0.0 {
        fault::drop_windows(
            fault_seed,
            "hls/chat",
            join_at,
            session_end,
            faults.chat_drop_per_min,
            chat_client::CHAT_RECONNECT_GAP,
        )
    } else {
        Vec::new()
    };
    if !chat_windows.is_empty() {
        trace.count("fault", "chat_drops", chat_windows.len() as u64);
        trace.count("recovery", "chat_reconnects", chat_windows.len() as u64);
    }
    chat_client::generate_with_faults(
        broadcast,
        join_at,
        session_end,
        config,
        &mut chat_link,
        &capture_clock,
        &mut capture,
        &mut net_rng,
        &chat_windows,
    );

    let log = run_playback(join_at, config.watch, config.player_hls, &arrivals);
    // Join decomposition (paper Fig 11 analogue): app bootstrap, playlist
    // discovery (first poll round-trips and POP re-polls), then segment
    // downloads until the initial buffer fills. The three child spans tile
    // [join_at, first_frame] exactly, so they sum to the join time; the
    // parent is the teleport driver's session root when one is open.
    if let Some(j) = log.join_time {
        let parent = trace.current_span();
        let first_frame = join_at + j;
        let boot_end = boot_done.min(first_frame);
        let fetch_start = first_fetch_start.unwrap_or(first_frame).clamp(boot_end, first_frame);
        trace.span(join_at.as_micros(), boot_end.as_micros(), "tcp", "tcp.bootstrap", parent);
        trace.span(boot_end.as_micros(), fetch_start.as_micros(), "hls", "hls.playlist", parent);
        trace.span(fetch_start.as_micros(), first_frame.as_micros(), "hls", "hls.segments", parent);
    }
    log.record_events(join_at, trace);
    crate::session::trace_session_end(trace, session_end.as_micros(), &log, &capture);
    // §2: "after an HTTP Live Streaming (HLS) session, the app reports only
    // the number of stall events."
    let meta = PlaybackMetaReport {
        n_stalls: log.n_stalls(),
        avg_stall_time_s: None,
        playback_latency_s: None,
    };
    let rendered = rendered_fps(fps, config.device, &log);
    SessionOutcome {
        broadcast_id: broadcast.id,
        protocol: Protocol::Hls,
        device: config.device,
        bandwidth_limit_bps: config.network.tc_limit_bps,
        player: log,
        capture,
        meta,
        viewers_at_join: broadcast.viewers_at(join_at),
        rendered_fps: rendered,
        server: pop.hostname().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::NetworkSetup;
    use pscp_media::analysis::analyze_hls_flow;
    use pscp_media::audio::AudioBitrate;
    use pscp_media::content::ContentClass;
    use pscp_simnet::GeoPoint;
    use pscp_workload::broadcast::{BroadcastId, DeviceProfile};

    fn popular_broadcast(seed: u64) -> Broadcast {
        Broadcast {
            id: BroadcastId(seed),
            location: GeoPoint::new(40.71, -74.01), // NYC
            city: "New York",
            start: SimTime::from_secs(100),
            duration: SimDuration::from_secs(3600),
            content: ContentClass::SportsTv,
            device: DeviceProfile::Modern,
            audio: AudioBitrate::Kbps64,
            avg_viewers: 800.0,
            replay_available: true,
            private: false,
            location_public: true,
            viewer_seed: seed,
            target_bitrate_bps: 300_000.0,
        }
    }

    fn run_session(seed: u64, config: SessionConfig) -> SessionOutcome {
        let b = popular_broadcast(seed);
        let rngs = RngFactory::new(seed).child("hls-session");
        run(&b, SimTime::from_secs(500), &config, &rngs)
    }

    #[test]
    fn session_plays_and_reports_hls_meta() {
        let out = run_session(1, SessionConfig::default());
        assert_eq!(out.protocol, Protocol::Hls);
        assert!(out.join_time_s().is_some());
        // HLS meta omits stall durations and latency (§2).
        assert!(out.meta.avg_stall_time_s.is_none());
        assert!(out.meta.playback_latency_s.is_none());
        assert!(out.server.contains("fastly"));
    }

    #[test]
    fn delivery_latency_exceeds_rtmp_scale() {
        let out = run_session(2, SessionConfig::default());
        // Playback latency (capture→render) on HLS: several seconds.
        let lat = out.player.mean_latency_s().expect("latency sampled");
        assert!(lat > 4.0, "lat={lat}");
    }

    #[test]
    fn stalls_rare_without_limit() {
        let mut stall_free = 0;
        for seed in 0..8 {
            let out = run_session(seed + 10, SessionConfig::default());
            if out.meta.n_stalls == 0 {
                stall_free += 1;
            }
        }
        assert!(stall_free >= 6, "stall_free={stall_free}/8");
    }

    #[test]
    fn capture_analyzable() {
        let out = run_session(3, SessionConfig::default());
        let flow = out.capture.flow_of_kind(FlowKind::HlsHttp).unwrap();
        let report = analyze_hls_flow(flow).unwrap();
        assert!(report.n_frames > 300, "frames={}", report.n_frames);
        assert!(!report.segment_durations_s.is_empty());
        for d in &report.segment_durations_s {
            assert!((3.0..6.5).contains(d), "segment duration {d}");
        }
        let mean = report.mean_delivery_latency_s().unwrap();
        assert!(mean > 3.0, "delivery latency {mean}");
    }

    #[test]
    fn bandwidth_limit_slows_join() {
        let fast = run_session(4, SessionConfig::default());
        let slow = run_session(
            4,
            SessionConfig { network: NetworkSetup::finland_limited(0.5), ..Default::default() },
        );
        match (fast.join_time_s(), slow.join_time_s()) {
            (Some(f), Some(s)) => assert!(s > f, "fast={f} slow={s}"),
            (Some(_), None) => {} // so slow it never joined — acceptable
            other => panic!("unexpected join times {other:?}"),
        }
    }

    #[test]
    fn determinism() {
        let a = run_session(5, SessionConfig::default());
        let b = run_session(5, SessionConfig::default());
        assert_eq!(a.capture.total_bytes(), b.capture.total_bytes());
        assert_eq!(a.meta, b.meta);
    }
}
