//! The RTMP transport of a viewing session.
//!
//! The full §3/§5.1 pipeline: the broadcaster's phone encodes and uploads
//! over a glitchy mobile uplink to the nearest EC2 ingest server, which
//! pushes every message to the viewer the moment it has it ("The RTMP
//! servers can push the video data directly to viewers right after
//! receiving it from the broadcasting client"); the viewer's tethered phone
//! receives through the optional `tc` shaper, tcpdump records every packet,
//! and the player buffers ~1.6 s before rendering.
//!
//! The server side and the app's own traffic are [`push`](crate::push)'s,
//! shared with SRT; what is RTMP's own is here: the TCP/TLS/RTMP
//! handshakes, chunk-stream framing (sealed in TLS for private broadcasts),
//! one FIFO link everything shares, and mid-stream disconnects.

use crate::chat_client;
use crate::downlink::{MediaWrite, Path, SendQueue, Stored};
use crate::push::{Body, Media, Meta, Push};
use crate::session::{Delivered, SessionCtx};
use pscp_media::bitstream::{FrameKind, HEADER_LEN_NTP};
use pscp_media::capture::FlowKind;
use pscp_media::flv::{AudioTag, VideoTag};
use pscp_proto::amf::{encode_command, Amf0};
use pscp_proto::filler::{self, Sink};
use pscp_proto::rtmp::{handshake_c0c1, handshake_s0s1s2, Chunker, Framing, Message, MessageType};
use pscp_simnet::fault;
use pscp_simnet::{Link, SimDuration, SimTime};

/// Gap an injected mid-stream RTMP disconnect leaves before the client's
/// reconnect completes (DESIGN.md §8).
const RTMP_RECONNECT_GAP: SimDuration = SimDuration::from_secs(4);

/// One media message as it goes on the wire: the FLV tag — its header and
/// the frame's header written out, the body's filler handed over — chunked
/// by the framing decided for it. The flow records the filler's slices
/// between the chunk headers; a sealed flow's plaintext writes them out.
impl MediaWrite for (Framing, Body<'_>) {
    fn write(&self, out: &mut impl Sink) {
        let (framing, body) = self;
        match *body {
            Body::Audio(size) => {
                let body = filler::Body { head: &AudioTag::HEADER, tail: AudioTag::filler(size) };
                framing.write(body, out)
            }
            // The frame payload *is* the coded frame body: the 5-byte FLV
            // tag header, then the body.
            Body::Video(f) => {
                let mut head = [0; VideoTag::HEADER_LEN + HEADER_LEN_NTP];
                let composition_ms = if f.kind == FrameKind::B { 33 } else { 0 };
                let tag = VideoTag::header(f.kind == FrameKind::I, composition_ms);
                let frame = f.head();
                let len = tag.len() + frame.len();
                head[..tag.len()].copy_from_slice(&tag);
                head[tag.len()..len].copy_from_slice(&frame);
                framing.write(filler::Body { head: &head[..len], tail: f.filler() }, out)
            }
        }
    }

    /// Everything but the filler is written out, and each chunk hands over
    /// at most one slice of it.
    fn stored(&self) -> Stored {
        let (framing, body) = self;
        let filler = match *body {
            Body::Audio(size) => size,
            Body::Video(f) => f.filler().len(),
        };
        Stored { bytes: framing.wire_len() - filler, pieces: framing.chunks() }
    }
}

/// Delivers the session in `ctx` over RTMP.
pub(crate) fn deliver(ctx: &mut SessionCtx) -> Delivered {
    let (broadcast, join_at, config) = (ctx.broadcast, ctx.join_at, ctx.config);
    let rtt = config.network.rtt_to(&ctx.server.location());
    let media_server = ctx.server.reverse_dns();
    let push = Push::open(ctx, FlowKind::Rtmp, media_server);
    let (flow_rtmp, video_in, audio_in) = (push.flow_media, &push.ingest.video, &push.ingest.audio);

    // --- server side: the replay starts at the latest keyframe already
    // ingested when the play command lands ---
    let tls_rtts = if broadcast.private { pscp_proto::tls::HANDSHAKE_RTTS as u64 } else { 0 };
    // TCP connect + (TLS handshake for private streams) + RTMP handshake.
    let play_cmd_at = join_at + rtt + rtt / 2 + rtt * tls_rtts;
    if ctx.trace.is_enabled() {
        ctx.trace.event((join_at + rtt).as_micros(), "rtmp", "rtmp.handshake", vec![]);
        ctx.trace.event(play_cmd_at.as_micros(), "rtmp", "rtmp.play_start", vec![]);
    }

    // --- wire: every transmission (bootstrap, handshake, media, chat,
    // pictures) is merged into send-time order before hitting the shared
    // bottleneck link, so cross-traffic genuinely delays video — the FIFO
    // contention behind the paper's 2 Mbps QoE boundary. ---
    let mut link = Link::unbounded(push.bottleneck, push.one_way_down);
    let n_media = video_in.len() + audio_in.len();
    let mut sends = SendQueue::new(ctx.recording, 4 * 1024, n_media + 256, n_media);
    let bootstrap_done = push.queue_bootstrap(ctx, &mut sends);

    // Handshake: S0+S1+S2 arrive right after connect, then the control
    // burst (SetChunkSize + onStatus).
    let c0c1 = handshake_c0c1(0, 0x7e);
    let s_bytes = handshake_s0s1s2(&c0c1, 0).expect("own C0C1 is valid");
    sends.push(join_at + rtt, flow_rtmp, &s_bytes, 0, 0);
    let mut control: Vec<u8> = Vec::new();
    let mut chunker = Chunker::new();
    chunker.write(&Message::set_chunk_size(4096), &mut control);
    chunker.write(
        &Message::command(encode_command(
            "onStatus",
            0.0,
            &[Amf0::Null, Amf0::object([("code", Amf0::String("NetStream.Play.Start".into()))])],
        )),
        &mut control,
    );
    sends.push(play_cmd_at, flow_rtmp, &control, 0, 0);

    // Media messages: each is framed by the chunker (which sets its on-wire
    // length; its state follows the order the messages are queued in) and
    // queued as that framing and what it frames, which writes the bytes
    // when the message is transmitted. A video send is tagged
    // with its place in `metas`.
    let mut metas: Vec<Meta> = Vec::with_capacity(video_in.len());
    for (send_at, Media { ts_ms, body, meta }) in
        push.media_schedule(play_cmd_at, &ctx.broadcaster_clock)
    {
        let (csid, kind, tag_header, counter) = match body {
            Body::Audio(_) => (4, MessageType::Audio, AudioTag::HEADER_LEN, "audio_msgs"),
            Body::Video(_) => (6, MessageType::Video, VideoTag::HEADER_LEN, "video_msgs"),
        };
        let framing = chunker.frame(csid, ts_ms, kind, 1, tag_header + body.len());
        let tag = meta.map(|meta| {
            metas.push(meta);
            metas.len() - 1
        });
        sends.push_media(send_at, flow_rtmp, framing.wire_len(), tag, (framing, body));
        ctx.trace.count("rtmp", counter, 1);
    }
    push.queue_chat(ctx, bootstrap_done, &mut sends);

    // Private broadcasts travel over RTMPS (§3): the RTMP bytes are sealed
    // in TLS records. The app decrypts them fine (arrival times and media
    // progression are unchanged up to the record overhead), but the
    // tcpdump capture holds only ciphertext — the wall the paper hit,
    // which is why it studied public streams.
    if broadcast.private {
        sends.seal_flow(flow_rtmp, broadcast.viewer_seed);
    }

    // --- fault injection (DESIGN.md §8): drop windows for mid-stream
    // disconnects and chat drops, plus per-packet link faults during
    // transmission. Every class is gated on its own rate, so with faults
    // off no variate is drawn. ---
    let dc_windows = ctx.drop_windows(
        "rtmp/disconnect",
        push.end,
        config.faults.rtmp_disconnect_per_min,
        RTMP_RECONNECT_GAP,
        ("rtmp_disconnects", "rtmp_reconnects"),
    );
    let chat_windows = chat_client::drop_windows(ctx, "rtmp/chat");
    let mut link_faults = ctx.link_faults("rtmp/link");

    // Merge by send time and transmit. Per flow, FIFO enqueueing keeps
    // arrival order non-decreasing.
    sends.sort_by_time();
    sends.reserve(&mut ctx.tap, push.mtu);
    let mut arrivals = Vec::new();
    for i in 0..sends.len() {
        let send = sends.get(i);
        if (send.flow == flow_rtmp && fault::in_windows(&dc_windows, send.at))
            || (send.flow == push.flow_chat && fault::in_windows(&chat_windows, send.at))
        {
            continue; // the connection is down; these bytes never leave
        }
        let path = Path { link: &mut link, faults: link_faults.as_mut(), mtu: push.mtu };
        let last = sends.transmit(i, &mut ctx.tap, path, &mut ctx.clock_rng);
        if let (Some(tag), Some(arr)) = (send.tag, last) {
            arrivals.push(metas[tag].arrived(arr));
        }
    }
    Delivered {
        arrivals,
        fps: push.ingest.fps,
        // TCP/TLS/RTMP handshakes until the play command, then buffer fill
        // until first render.
        phases: vec![
            ("rtmp", "rtmp.handshake", play_cmd_at),
            ("rtmp", "rtmp.buffering", SimTime::MAX),
        ],
        server: if broadcast.private {
            format!("rtmps://{}", ctx.server.hostname())
        } else {
            ctx.server.hostname()
        },
        link_faults,
    }
}

#[cfg(test)]
mod tests {
    use crate::device::{NetworkSetup, ViewerDevice};
    use crate::fixture;
    use crate::session::{run, SessionConfig, SessionOutcome};
    use pscp_media::analysis::analyze_rtmp_flow;
    use pscp_media::capture::FlowKind;
    use pscp_service::select::Protocol;
    use pscp_simnet::{RngFactory, SimTime};

    fn run_session(seed: u64, config: SessionConfig) -> SessionOutcome {
        let rngs = RngFactory::new(seed).child("session");
        run(Protocol::Rtmp, &fixture::broadcast(seed), SimTime::from_secs(400), &config, &rngs)
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
        let lat = out.meta().playback_latency_s.unwrap();
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
        assert!(out.meta().playback_latency_s.is_some());
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
        let mut b = fixture::broadcast(31);
        b.private = true;
        let rngs = RngFactory::new(31).child("session");
        let out =
            run(Protocol::Rtmp, &b, SimTime::from_secs(400), &SessionConfig::default(), &rngs);
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
