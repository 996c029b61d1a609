//! The HLS transport of a viewing session.
//!
//! The §5.1 fallback path: the broadcast still reaches an ingest server
//! over the broadcaster's uplink, but is then transcoded/repackaged into
//! 3–6 s MPEG-TS segments and served via a Fastly-like CDN POP near the
//! viewer. The client polls the playlist and pulls each segment over HTTP;
//! segment granularity plus packaging delay is what pushes delivery latency
//! beyond 5 s (Fig 5), while the deep segment buffer is what makes stalls
//! rarer than RTMP (Fig 3 discussion).

use crate::broadcaster::{Phone, ENCODE_LATENCY};
use crate::chat_client;
use crate::downlink::{Stored, Wire};
use crate::player::MediaArrival;
use crate::retry::RetryPolicy;
use crate::session::{Delivered, SessionCtx};
use pscp_media::capture::FlowKind;
use pscp_proto::filler::Sink;
use pscp_proto::http::Response;
use pscp_service::cdn;
use pscp_service::segmenter::{Segmenter, SegmenterConfig};
use pscp_simnet::fault::FaultRng;
use pscp_simnet::tcp::{TcpModel, INIT_CWND_SEGMENTS};
use pscp_simnet::{Link, SimDuration, SimTime};

/// History simulated before the join so the playlist is warm.
const WARMUP: SimDuration = SimDuration::from_secs(25);
/// Playlist poll interval while waiting for the next segment.
const POLL: SimDuration = SimDuration::from_millis(1500);
/// How many segments behind the live edge playback starts.
const EDGE_OFFSET: u64 = 2;
/// Upper estimate of one response's bytes besides a segment body: an HTTP
/// head, or a whole playlist response (six entries).
const RESPONSE_OVERHEAD_BYTES: usize = 512;

/// Delivers the session in `ctx` over HLS. Segments are descriptors: one is
/// muxed when the client fetches it, into the capture — and in a counted
/// session not at all (DESIGN.md §10).
pub(crate) fn deliver(ctx: &mut SessionCtx) -> Delivered {
    let (broadcast, join_at, config) = (ctx.broadcast, ctx.join_at, ctx.config);
    let prop_up = broadcast.location.propagation_to(&ctx.server.location());
    let pop = cdn::pop_for_session(
        &config.network.location,
        broadcast.id.0 ^ (join_at.as_micros() / 60_000_000),
    );
    let rtt = config.network.rtt_to(&pop.location());

    // --- broadcaster → ingest → segmenter: the segmenter is fed in capture
    // slot order, and audio is packaged without riding the uplink model ---
    let sim_start = join_at - WARMUP;
    let end = join_at + config.watch + SimDuration::from_secs(3);
    let Phone { fps, mut encoder, mut audio, mut uplink } =
        Phone::new(broadcast, &config.uplink, &(sim_start..end), &mut ctx.enc_rng);
    let mut segmenter = Segmenter::new(SegmenterConfig::default());
    let total_frames = (end.saturating_since(sim_start).as_secs_f64() * fps) as u64;
    // (pts, broadcaster capture wall) in pts order, for latency anchors.
    let mut capture_wall_by_pts: Vec<(u32, f64)> = Vec::with_capacity(total_frames as usize);
    let mut next_audio_pts = 0.0;
    for i in 0..total_frames {
        let t_cap = sim_start + SimDuration::from_secs_f64(i as f64 / fps);
        let mut reading = ctx.broadcaster_clock.defer(&mut ctx.clock_rng);
        let wall = || ctx.broadcaster_clock.read(t_cap, &mut reading);
        if let Some(frame) = encoder.next_payload_with(wall, &mut ctx.enc_rng) {
            let sent = uplink.upload(t_cap + ENCODE_LATENCY, frame.size);
            capture_wall_by_pts.push((frame.pts_ms, ctx.broadcaster_clock.read_exact(t_cap)));
            segmenter.push_payload(frame, sent + prop_up);
        }
        while next_audio_pts <= i as f64 * 1000.0 / fps {
            let af = audio.next_frame(&mut ctx.enc_rng);
            segmenter.push_audio_fill(af.pts_ms, af.size);
            next_audio_pts += pscp_media::audio::frame_duration_ms();
        }
    }

    // --- client: playlist polls + sequential segment fetches ---
    let flow = ctx.tap.open_flow(FlowKind::HlsHttp, pop.hostname());
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
    let bottleneck = config.network.bottleneck_bps();
    let tcp = TcpModel::new(
        config.network.mtu.max(256),
        rtt,
        (bottleneck - chat_rate).max(bottleneck * 0.15),
    );
    let mut cwnd = INIT_CWND_SEGMENTS;
    let mut arrivals: Vec<MediaArrival> = Vec::new();
    let session_end = join_at + config.watch;
    // Pre-size the flow, so that what a fetched segment stores is written
    // into memory allocated once: the client can reach the segments that
    // become available from one before the live edge at the join until the
    // session ends, and polls the playlist about once a `POLL` meanwhile.
    let edge = segmenter.playlist_at(join_at).last_sequence().unwrap_or(0);
    let reachable = &segmenter.segments()[edge.saturating_sub(EDGE_OFFSET - 1) as usize..];
    let polls = (config.watch.as_micros() / POLL.as_micros()) as usize;
    ctx.tap.reserve(flow, 0, || {
        let mut stored = Stored { bytes: polls * RESPONSE_OVERHEAD_BYTES, pieces: 0 };
        for segment in reachable.iter().filter(|s| s.available_at < session_end) {
            let (bytes, pieces) = segment.stored();
            stored += Stored { bytes: bytes + RESPONSE_OVERHEAD_BYTES, pieces };
        }
        stored
    });

    // --- fault injection (DESIGN.md §8), every class gated on its own
    // rate so a disabled layer draws no variate and changes no byte ---
    let faults = &config.faults;
    let mut link_faults = ctx.link_faults("hls/link");
    let mut seg_rng = FaultRng::from_label(faults.seed ^ ctx.rngs.seed(), "hls/segment");

    // App bootstrap traffic first: metadata, thumbnails, chat backlog.
    let overhead_bytes = ctx.bootstrap_bytes();
    let misc_flow = ctx.tap.open_flow(FlowKind::AppMisc, "api.periscope.tv");
    let boot = tcp.transfer(join_at, overhead_bytes, &mut cwnd, true);
    let boot_done = boot.completion
        + ctx.tap.record_response(
            link_faults.as_mut(),
            misc_flow,
            Wire { written: 0, fill: 0, pad: overhead_bytes },
            &boot.chunks,
            &mut ctx.net_rng,
            |_| {},
        );
    ctx.trace.count("tcp", "transfers", 1);
    ctx.trace.count("tcp", "bytes", overhead_bytes as u64);
    if ctx.trace.is_enabled() {
        let boot_ms = (boot_done.saturating_since(join_at).as_secs_f64() * 1000.0) as u64;
        ctx.trace.event(
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
        ctx.trace.ring("probe", pop.hostname(), now.as_micros(), 1);
        if faults.pop_outage.in_outage(faults.seed, pop.hostname(), now) {
            // The POP is down (outage schedules are keyed on the fault seed
            // alone, so every session agrees on when this POP was out). The
            // playlist poll fails; the client re-polls until it is back.
            ctx.trace.count("fault", "pop_outage_polls", 1);
            ctx.trace.count("recovery", "playlist_repolls", 1);
            // Symptom ring: written only when an injected outage was
            // actually observed, which is what makes the POP-outage alert
            // rule provably inert on fault-free runs.
            ctx.trace.ring("outage", pop.hostname(), now.as_micros(), 1);
            if ctx.trace.is_enabled() {
                ctx.trace.event(now.as_micros(), "fault", "fault.pop_outage", vec![]);
            }
            let up = faults.pop_outage.outage_end(faults.seed, pop.hostname(), now);
            now = up.max(now + POLL);
            continue;
        }
        let playlist = segmenter.playlist_at(now);
        let record_playlist = |ctx: &mut SessionCtx, at: SimTime| {
            let resp =
                Response::ok_bytes("application/vnd.apple.mpegurl", playlist.render().into_bytes())
                    .encode();
            ctx.tap.record(flow, at, Wire::written(resp.len()), &mut ctx.net_rng, |out| {
                out.put(&resp)
            });
            ctx.trace.count("hls", "playlist_polls", 1);
        };
        let Some(last) = playlist.last_sequence() else {
            record_playlist(ctx, now);
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
            record_playlist(ctx, now + rtt);
            if ctx.trace.is_enabled() {
                ctx.trace.event((now + rtt).as_micros(), "hls", "hls.playlist_poll", vec![]);
            }
            now += POLL.max(rtt);
            continue;
        }
        let Some(segment) = segmenter.segment(want, now) else {
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
                ctx.trace.count("fault", "segment_errors", 1);
                ctx.trace.count("recovery", "segment_refetches", 1);
                now += rtt + policy.backoff(attempt, &mut seg_rng);
                attempt += 1;
            }
        }
        let fetch_started = now;
        // The response is its head followed by the segment, muxed here
        // and now, straight into the capture.
        let head = Response::ok_bytes("video/mp2t", Vec::new()).encode_head(segment.len);
        let resp_len = head.len() + segment.len;
        let schedule = tcp.transfer(now, resp_len, &mut cwnd, fetched == 0);
        let completion = schedule.completion
            + ctx.tap.record_response(
                link_faults.as_mut(),
                flow,
                Wire::written(resp_len),
                &schedule.chunks,
                &mut ctx.net_rng,
                |out| {
                    out.put(&head);
                    segment.write_into(out);
                },
            );
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
        ctx.trace.span(
            (segment.available_at - seg_cfg.packaging_delay).as_micros(),
            segment.available_at.as_micros(),
            "service",
            "service.transcode",
            None,
        );
        ctx.trace.span(fetch_started.as_micros(), completion.as_micros(), "cdn", "cdn.fetch", None);
        ctx.trace.count("hls", "segments_fetched", 1);
        ctx.trace.count("tcp", "transfers", 1);
        ctx.trace.count("tcp", "bytes", resp_len as u64);
        ctx.trace.observe("hls", "segment_bytes", &pscp_obs::BYTE_BUCKETS, resp_len as u64);
        ctx.trace.observe("tcp", "fetch_ms", &pscp_obs::MS_BUCKETS, fetch_ms);
        if ctx.trace.is_enabled() {
            ctx.trace.event(
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

    // Chat traffic: on HLS sessions the popular broadcasts have busy, often
    // full chats. Modeled on its own, clean link with the same shaping rate
    // (the HTTP fetch path above is a closed-form TCP model, so cross-traffic
    // coupling is approximated — see DESIGN.md).
    let mut chat_link =
        Link::unbounded(bottleneck, pop.location().propagation_to(&config.network.location));
    let chat_windows = chat_client::drop_windows(ctx, "hls/chat");
    let chat = chat_client::events(broadcast, join_at, session_end, config, &mut ctx.net_rng);
    chat_client::play(
        &chat,
        config.chat_on,
        &chat_windows,
        &mut chat_link,
        &mut ctx.tap,
        &mut ctx.net_rng,
    );

    Delivered {
        arrivals,
        fps,
        // App bootstrap, playlist discovery (first poll round-trips and POP
        // re-polls), then segment downloads until the initial buffer fills.
        phases: vec![
            ("tcp", "tcp.bootstrap", boot_done),
            ("hls", "hls.playlist", first_fetch_start.unwrap_or(SimTime::MAX)),
            ("hls", "hls.segments", SimTime::MAX),
        ],
        server: pop.hostname().to_string(),
        link_faults,
    }
}

#[cfg(test)]
mod tests {
    use crate::device::NetworkSetup;
    use crate::session::{run, SessionConfig, SessionOutcome};
    use pscp_media::analysis::analyze_hls_flow;
    use pscp_media::audio::AudioBitrate;
    use pscp_media::capture::FlowKind;
    use pscp_media::content::ContentClass;
    use pscp_service::select::Protocol;
    use pscp_simnet::{GeoPoint, RngFactory, SimDuration, SimTime};
    use pscp_workload::broadcast::{Broadcast, BroadcastId, DeviceProfile};

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
        run(Protocol::Hls, &b, SimTime::from_secs(500), &config, &rngs)
    }

    #[test]
    fn session_plays_and_reports_hls_meta() {
        let out = run_session(1, SessionConfig::default());
        assert_eq!(out.protocol, Protocol::Hls);
        assert!(out.join_time_s().is_some());
        // HLS meta omits stall durations and latency (§2).
        assert!(out.meta().avg_stall_time_s.is_none());
        assert!(out.meta().playback_latency_s.is_none());
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
            if out.meta().n_stalls == 0 {
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
        assert_eq!(a.meta(), b.meta());
    }
}
