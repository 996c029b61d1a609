//! The traced pass's per-layer epilogue: stage replicas.
//!
//! The benchmark may not put spans inside the program, so a layer's cost is
//! measured from outside by re-driving its public functions with the
//! parameters of a fixed sample of the workload's sessions (same fps, GOP,
//! bitrate and window as the session's broadcaster prologue; packet sizes
//! and times taken from the session's own capture). What the replicas
//! cannot attribute is reported as `client.session.residual_*`.

use crate::metrics::Values;
use crate::plan::{Planned, Sizes};
use crate::run::{scale_pass, scale_threads, Failures, ScalePass, Slice, SCALE_SHARDS};
use crate::spans::Recorder;
use crate::stats::{median, Timing};
use pscp_client::chat_client;
use pscp_client::player::{run_playback, MediaArrival};
use pscp_client::uplink::Uplink;
use pscp_client::{SessionOutcome, Teleport};
use pscp_core::shard::{ShardPlan, ShardStats};
use pscp_crawler::deep::crawler_location;
use pscp_media::audio::{self, AudioEncoder, AudioFrame};
use pscp_media::capture::Capture;
use pscp_media::flv::{AudioTag, VideoTag};
use pscp_media::ts::{TsMuxer, TsUnit};
use pscp_media::{ContentProcess, EncodedFrame, Encoder, EncoderConfig, FrameKind};
use pscp_obs::Trace;
use pscp_proto::rtmp::{Chunker, MessageRef, MessageType};
use pscp_proto::srt::{self, DataPacket, Packet};
use pscp_qoe::delivery::analyze_session;
use pscp_qoe::QoeTelemetry;
use pscp_service::api::ApiRequest;
use pscp_service::segmenter::{Segmenter, SegmenterConfig};
use pscp_service::select::Protocol;
use pscp_service::PeriscopeService;
use pscp_simnet::{GeoRect, Link, RngFactory, SimDuration, SimTime};
use pscp_stats::Ecdf;
use pscp_workload::broadcast::Broadcast;
use std::hint::black_box;
use std::time::Instant;

/// Constants of the session files' broadcaster prologue.
const WARMUP: SimDuration = SimDuration::from_secs(6);
const TAIL: SimDuration = SimDuration::from_secs(2);
const ENCODE_LATENCY: SimDuration = SimDuration::from_millis(120);
/// Minimum media per HLS segment (`SegmenterConfig::default`).
const MIN_SEGMENT_MS: u32 = 3000;

/// Milliseconds `f` took, with its result kept alive through `black_box`.
fn timed_ms<R>(rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let open = rec.start(name);
    let t = Instant::now();
    let out = black_box(f());
    let ms = t.elapsed().as_secs_f64() * 1e3;
    rec.end(open);
    (out, ms)
}

/// Directory/API and JSON layers, on a fixed request batch. Needs the
/// service mutably (`handle_http`), so it runs right after the crawl stage.
pub fn api_layers(
    svc: &mut PeriscopeService,
    slices: &[Slice],
    rec: &mut Recorder,
    layers: &mut Values,
) {
    let at = SimTime::from_secs(crate::plan::FANOUT_T0_S);
    let viewer = crawler_location();
    // 64 map queries: the world's depth-3 quadtree cells. A user per
    // request keeps the rate limiter out of the measurement.
    let mut rects = vec![GeoRect::WORLD];
    for _ in 0..3 {
        rects = rects.iter().flat_map(|r| r.quadrants()).collect();
    }
    rec.set_unit(0);
    let mut bodies: Vec<String> = Vec::new();
    let (_, map_ms) = timed_ms(rec, "service.api.map_feed", || {
        for (i, rect) in rects.iter().enumerate() {
            let user = format!("bench-map-{i}");
            let req = ApiRequest::MapGeoBroadcastFeed { rect: *rect, include_replay: false }
                .to_http(&user);
            let resp = svc.handle_http(&user, &req, at, &viewer);
            bodies.push(String::from_utf8(resp.body).expect("API responses are UTF-8 JSON"));
        }
    });
    layers.insert("service.api.map_feed_us", map_ms * 1e3 / rects.len() as f64);

    let ids: Vec<_> = svc.population.live_at(at).iter().map(|b| b.id).take(3200).collect();
    let batches: Vec<_> = ids.chunks(100).collect();
    let (_, get_ms) = timed_ms(rec, "service.api.get_broadcasts", || {
        for (i, batch) in batches.iter().enumerate() {
            let user = format!("bench-get-{i}");
            let req = ApiRequest::GetBroadcasts { ids: batch.to_vec() }.to_http(&user);
            let resp = svc.handle_http(&user, &req, at, &viewer);
            bodies.push(String::from_utf8(resp.body).expect("API responses are UTF-8 JSON"));
        }
    });
    layers.insert("service.api.get_broadcasts_us", get_ms * 1e3 / batches.len().max(1) as f64);

    let bytes: usize = bodies.iter().map(String::len).sum();
    let (_, parse_ms) = timed_ms(rec, "proto.json.parse", || {
        for body in &bodies {
            black_box(pscp_proto::json::parse(body).expect("API responses are valid JSON"));
        }
    });
    layers.insert("proto.json.parse_mb_per_s", bytes as f64 / 1e6 / (parse_ms / 1e3).max(1e-9));

    let viewers = &slices.last().expect("at least one slice").viewers;
    const ECDF_REPS: usize = 20;
    let (_, ecdf_ms) = timed_ms(rec, "stats.ecdf.build", || {
        for _ in 0..ECDF_REPS {
            black_box(Ecdf::new(viewers).ok());
        }
    });
    layers.insert("stats.ecdf.build_ms", ecdf_ms / ECDF_REPS as f64);
}

/// Shard bookkeeping and parallel efficiency (`scale_100k` only): the
/// plan build, an empty `run_scale`, and the first pass again on one
/// thread, whose digest must equal the T-thread one.
pub fn shard_layers(
    svc: &PeriscopeService,
    seed: u64,
    sizes: &Sizes,
    first: &ScalePass,
    rec: &mut Recorder,
    failures: &mut Failures,
    layers: &mut Values,
) {
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            timed_ms(rec, "core.shard.plan_build", || {
                ShardPlan::build(&svc.population, SCALE_SHARDS)
            })
            .1
        })
        .collect();
    layers.insert("core.shard.plan_build_ms", median(&builds));
    let empty = scale_pass(svc, seed, 0, 1, 0, rec, failures);
    layers.insert("core.shard.empty_loop_ms", empty.wall_s * 1e3);
    layers.insert("core.shard.overhead_share", empty.wall_s / first.wall_s.max(1e-9));

    let serial = scale_pass(svc, seed, 0, 1, sizes.scale_target, rec, failures);
    if serial.digest != first.digest {
        failures.add(format!(
            "run_scale digest {:016x} on 1 thread != {:016x} on {} threads",
            serial.digest,
            first.digest,
            scale_threads()
        ));
    }
    let per_s = |p: &ScalePass| p.sessions as f64 / p.wall_s.max(1e-9);
    layers
        .insert("simnet.par.efficiency", per_s(first) / (scale_threads() as f64 * per_s(&serial)));

    // Sixteen per-shard roll-ups folded into one, as at a run's end.
    let leaves: Vec<ShardStats> = (0..SCALE_SHARDS as u64)
        .map(|c| {
            let mut st = ShardStats::new();
            for i in 0..64u64 {
                st.sessions += 1;
                st.join_us.observe(900_000 + 37_000 * ((c * 64 + i) % 97));
                st.stall_ppm.observe(1_000 * ((c + i) % 53));
            }
            st
        })
        .collect();
    const MERGE_REPS: usize = 200;
    let (_, merge_ms) = timed_ms(rec, "core.shard.stats_merge", || {
        for _ in 0..MERGE_REPS {
            let mut acc = ShardStats::new();
            for leaf in &leaves {
                acc.merge(leaf);
            }
            black_box(acc);
        }
    });
    layers.insert("core.shard.stats_merge_us", merge_ms * 1e3 / MERGE_REPS as f64);
}

/// The broadcaster side of one session, rebuilt from its plan entry.
struct Feed {
    fps: f64,
    sim_start: SimTime,
    frames: Vec<EncodedFrame>,
    audio: Vec<AudioFrame>,
}

/// Per-layer milliseconds of one sample session.
#[derive(Default, Clone, Copy)]
struct Costs {
    encoder: f64,
    audio: f64,
    uplink: f64,
    rtmp_chunk: f64,
    segmenter: f64,
    ts_mux: f64,
    srt_packetize: f64,
    link: f64,
    link_packets: f64,
    capture: f64,
    capture_mb: f64,
    chat: f64,
    chat_mb: f64,
    player: f64,
    access_video: f64,
}

impl Costs {
    /// What an RTMP session runs of the layers above.
    fn rtmp_sum(&self) -> f64 {
        self.encoder
            + self.audio
            + self.uplink
            + self.rtmp_chunk
            + self.link
            + self.capture
            + self.chat
            + self.player
            + self.access_video
    }
}

fn broadcaster_feed(b: &Broadcast, p: &Planned, rec: &mut Recorder, c: &mut Costs) -> Feed {
    let rngs = RngFactory::new(p.key).child("benchmark/replica");
    let mut rng = rngs.stream("encoder");
    let cfg = EncoderConfig {
        fps: b.device.fps(),
        gop: b.device.gop(),
        target_bitrate_bps: b.target_bitrate_bps,
        ..Default::default()
    };
    let fps = cfg.fps;
    let sim_start = p.join_at - WARMUP;
    let end = p.join_at + p.config.watch + TAIL;
    let span_s = end.saturating_since(sim_start).as_secs_f64();
    let total_frames = (span_s * fps) as u64;

    let (frames, ms) = timed_ms(rec, "media.encoder", || {
        let content = ContentProcess::new(b.content, &mut rng);
        let mut encoder = Encoder::new(cfg, content);
        (0..total_frames)
            .filter_map(|i| encoder.next_frame(sim_start.as_secs_f64() + i as f64 / fps, &mut rng))
            .collect::<Vec<_>>()
    });
    c.encoder = ms;

    let n_audio = (span_s * 1000.0 / audio::frame_duration_ms()) as usize;
    let (audio_frames, ms) = timed_ms(rec, "media.audio", || {
        let mut enc = AudioEncoder::new(b.audio);
        (0..n_audio).map(|_| enc.next_frame(&mut rng)).collect::<Vec<_>>()
    });
    c.audio = ms;

    let (_, ms) = timed_ms(rec, "client.uplink", || {
        let mut uplink = Uplink::draw(&p.config.uplink, sim_start, end, &mut rng);
        let mut ai = 0usize;
        for f in &frames {
            let t_cap = sim_start + SimDuration::from_millis(f.pts_ms as u64);
            while ai < audio_frames.len() && audio_frames[ai].pts_ms <= f.pts_ms {
                let t_a = sim_start + SimDuration::from_millis(audio_frames[ai].pts_ms as u64);
                black_box(uplink.upload(t_a + ENCODE_LATENCY, audio_frames[ai].size));
                ai += 1;
            }
            black_box(uplink.upload(t_cap + ENCODE_LATENCY, f.bytes.len()));
        }
    });
    c.uplink = ms;
    Feed { fps, sim_start, frames, audio: audio_frames }
}

/// Packetizes the same feed once per transport.
fn packetize(feed: &Feed, rec: &mut Recorder, c: &mut Costs) {
    // RTMP: FLV tag header + chunking into one arena, as the session does.
    let (_, ms) = timed_ms(rec, "proto.rtmp.chunk", || {
        let mut arena: Vec<u8> =
            Vec::with_capacity(feed.frames.iter().map(|f| f.bytes.len() + 32).sum());
        let mut chunker = Chunker::new();
        let mut scratch: Vec<u8> = Vec::with_capacity(8 * 1024);
        let mut ai = 0usize;
        for f in &feed.frames {
            while ai < feed.audio.len() && feed.audio[ai].pts_ms <= f.pts_ms {
                scratch.clear();
                AudioTag::encode_into(feed.audio[ai].size, &mut scratch);
                chunker.write_ref(
                    MessageRef {
                        chunk_stream_id: 4,
                        timestamp: feed.audio[ai].pts_ms,
                        kind: MessageType::Audio,
                        stream_id: 1,
                        payload: &scratch,
                    },
                    &mut arena,
                );
                ai += 1;
            }
            scratch.clear();
            VideoTag::write_header(
                f.kind == FrameKind::I,
                if f.kind == FrameKind::B { 33 } else { 0 },
                &mut scratch,
            );
            scratch.extend_from_slice(&f.bytes);
            chunker.write_ref(
                MessageRef {
                    chunk_stream_id: 6,
                    timestamp: f.pts_ms,
                    kind: MessageType::Video,
                    stream_id: 1,
                    payload: &scratch,
                },
                &mut arena,
            );
        }
        arena.len()
    });
    c.rtmp_chunk = ms;

    // HLS: the segmenter (which muxes each segment it cuts) ...
    let (_, ms) = timed_ms(rec, "service.segmenter", || {
        let mut seg = Segmenter::new(SegmenterConfig::default());
        let mut ai = 0usize;
        for f in &feed.frames {
            let arrival = feed.sim_start + SimDuration::from_millis(f.pts_ms as u64);
            seg.push_frame(f, arrival);
            while ai < feed.audio.len() && feed.audio[ai].pts_ms <= f.pts_ms {
                seg.push_audio(feed.audio[ai].pts_ms, vec![0xAA; feed.audio[ai].size]);
                ai += 1;
            }
        }
        seg.segments().len()
    });
    c.segmenter = ms;

    // ... and the TS muxer alone, on the same units cut by the same rule.
    let mut segments: Vec<Vec<TsUnit>> = vec![Vec::new()];
    let mut first_pts: Option<u32> = None;
    let mut ai = 0usize;
    for f in &feed.frames {
        let pending = first_pts.map_or(0, |p| f.pts_ms.saturating_sub(p));
        if f.kind == FrameKind::I && pending >= MIN_SEGMENT_MS {
            segments.push(Vec::new());
            first_pts = None;
        }
        first_pts.get_or_insert(f.pts_ms);
        let units = segments.last_mut().expect("never empty");
        units.push(TsUnit::Video { pts_ms: f.pts_ms, data: f.bytes.clone() });
        while ai < feed.audio.len() && feed.audio[ai].pts_ms <= f.pts_ms {
            let a = &feed.audio[ai];
            units.push(TsUnit::Audio { pts_ms: a.pts_ms, data: vec![0xAA; a.size] });
            ai += 1;
        }
    }
    let (_, ms) = timed_ms(rec, "media.ts.mux", || {
        let mut muxer = TsMuxer::new();
        let mut out: Vec<u8> = Vec::new();
        let mut total = 0usize;
        for units in &segments {
            out.clear();
            muxer.mux_into(units.iter().map(TsUnit::as_ref), &mut out);
            total += out.len();
        }
        total
    });
    c.ts_mux = ms;

    // SRT: one data packet per MTU-bounded slice of every message. The
    // session writes these headers in place; `encode_packet` is the public
    // function that produces the same bytes.
    let payload_mtu = pscp_simnet::link::MTU_BYTES - srt::DATA_HEADER_BYTES;
    let (_, ms) = timed_ms(rec, "proto.srt.packetize", || {
        let mut wire: Vec<u8> =
            Vec::with_capacity(feed.frames.iter().map(|f| f.bytes.len() + 64).sum());
        let mut seq = 0u32;
        for (msg, f) in feed.frames.iter().enumerate() {
            for chunk in f.bytes.chunks(payload_mtu) {
                let packet = Packet::Data(DataPacket {
                    seq,
                    origin_ts_us: f.pts_ms.wrapping_mul(1000),
                    msg: msg as u32,
                    payload: chunk.to_vec(),
                });
                srt::encode_packet(&packet, &mut wire);
                seq = seq.wrapping_add(1);
            }
        }
        wire.len()
    });
    c.srt_packetize = ms;
}

/// Replays the session's own capture through the link and into a fresh
/// capture: the same packet sizes, times and flows.
fn replay_capture(outcome: &SessionOutcome, p: &Planned, rec: &mut Recorder, c: &mut Costs) {
    let mtu = p.config.network.mtu.max(256);
    let (packets, ms) = timed_ms(rec, "simnet.link.enqueue", || {
        let mut link = Link::unbounded(p.config.network.bottleneck_bps(), SimDuration::ZERO);
        let mut delivered = 0u64;
        let mut burst: Vec<usize> = Vec::with_capacity(64);
        for flow in &outcome.capture.flows {
            let mut burst_at = SimTime::ZERO;
            for pkt in flow.packets() {
                if burst.is_empty() {
                    burst_at = pkt.at;
                }
                burst.push(pkt.payload.len());
                // A short packet ends a message, as one `Send` ends a burst.
                if pkt.payload.len() < mtu {
                    link.enqueue_batch(burst_at, burst.drain(..), |d| {
                        delivered += u64::from(d.time().is_some());
                    });
                }
            }
            if !burst.is_empty() {
                link.enqueue_batch(burst_at, burst.drain(..), |d| {
                    delivered += u64::from(d.time().is_some());
                });
            }
        }
        black_box(link.busy_until());
        delivered
    });
    c.link = ms;
    c.link_packets = packets as f64;

    let (bytes, ms) = timed_ms(rec, "media.capture.record", || {
        let mut copy = Capture::new();
        for flow in &outcome.capture.flows {
            let idx = copy.open_flow(flow.kind, flow.server.clone());
            copy.flows[idx].reserve(flow.byte_count(), flow.packet_count());
            for pkt in flow.packets() {
                copy.record(idx, pkt.at, pkt.wall_ts, pkt.payload);
            }
        }
        copy.total_bytes()
    });
    c.capture = ms;
    c.capture_mb = bytes as f64 / 1e6;
}

fn chat_and_player(b: &Broadcast, p: &Planned, feed: &Feed, rec: &mut Recorder, c: &mut Costs) {
    let mut rng = RngFactory::new(p.key).child("benchmark/replica").stream("chat");
    let until = p.join_at + p.config.watch;
    let (bytes, ms) = timed_ms(rec, "client.chat.events", || {
        chat_client::events(b, p.join_at, until, &p.config, &mut rng)
            .iter()
            .map(|e| e.bytes.len())
            .sum::<usize>()
    });
    c.chat = ms;
    c.chat_mb = bytes as f64 / 1e6;

    // One arrival per frame of the watch, a third of a second behind live.
    let lag = SimDuration::from_millis(300);
    let arrivals: Vec<MediaArrival> = feed
        .frames
        .iter()
        .filter(|f| f.pts_ms as u64 >= WARMUP.as_micros() / 1000)
        .map(|f| {
            let media_s = f.pts_ms as f64 / 1000.0 - WARMUP.as_secs_f64();
            MediaArrival {
                at: p.join_at + SimDuration::from_secs_f64(media_s) + lag,
                media_end_s: media_s + 1.0 / feed.fps,
                capture_wall_s: Some(p.join_at.as_secs_f64() + media_s),
            }
        })
        .collect();
    let (_, ms) = timed_ms(rec, "client.player.playback", || {
        run_playback(p.join_at, p.config.watch, p.config.player_rtmp, &arrivals)
    });
    c.player = ms;
}

/// Session-layer replicas on the first `sizes.sample` plan entries, the
/// paired tracing-overhead ratios, the forced-transport replays and the
/// small per-call layers.
#[allow(clippy::too_many_arguments)]
pub fn session_layers(
    svc: &PeriscopeService,
    plan: &[Planned],
    seed: u64,
    sizes: &Sizes,
    loop_telemetry: &QoeTelemetry,
    arm_ms: &[Vec<f64>; 3],
    rec: &mut Recorder,
    failures: &mut Failures,
    layers: &mut Values,
) {
    let tp = Teleport::new(svc, RngFactory::new(seed));
    let sample = &plan[..sizes.sample.min(plan.len())];
    let mut costs: Vec<Costs> = Vec::with_capacity(sample.len());
    let mut rtmp_run_ms: Vec<f64> = Vec::new();
    let mut rtmp_sum_ms: Vec<f64> = Vec::new();
    let (mut spanned_ratio, mut traced_ratio) = (Vec::new(), Vec::new());
    let mut fold_us: Vec<f64> = Vec::with_capacity(sample.len());
    let mut telemetry = QoeTelemetry::new();
    let viewer = crawler_location();

    for (i, p) in sample.iter().enumerate() {
        let b = svc.population.by_id(p.broadcast).expect("planned from this population");
        rec.set_unit(i as u64);

        // The same session three ways — no spans, the benchmark's spans,
        // the program's own `Trace` — in an order that rotates through all
        // six permutations, so that going first (cold) costs each equally.
        // Only the last outcome is kept (they are identical): a capture
        // still alive would make the next way fault in fresh pages.
        const ORDERS: [[usize; 3]; 6] =
            [[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1], [2, 1, 0], [1, 0, 2]];
        let mut way_ms = [0.0f64; 3];
        let mut kept: Option<SessionOutcome> = None;
        for way in ORDERS[i % ORDERS.len()] {
            drop(kept.take());
            rec.set_enabled(way == 1);
            let t = Instant::now();
            let outcome = match way {
                0 => black_box(tp.run_one(b, p.join_at, &p.config, p.key)),
                1 => {
                    let root = rec.start("bench.session");
                    let outcome = rec.within("client.teleport.run_one", || {
                        black_box(tp.run_one(b, p.join_at, &p.config, p.key))
                    });
                    rec.end(root);
                    outcome
                }
                _ => {
                    let mut trace = Trace::new(true);
                    let outcome =
                        black_box(tp.run_one_traced(b, p.join_at, &p.config, p.key, &mut trace));
                    black_box(&trace);
                    outcome
                }
            };
            way_ms[way] = t.elapsed().as_secs_f64() * 1e3;
            kept = Some(outcome);
        }
        rec.set_enabled(true);
        spanned_ratio.push(way_ms[1] / way_ms[0].max(1e-9));
        traced_ratio.push(way_ms[2] / way_ms[0].max(1e-9));
        let (outcome, run_ms) = (kept.expect("three ways ran"), way_ms[0]);

        let root = rec.start("bench.replica");
        let mut c = Costs::default();
        let feed = broadcaster_feed(b, p, rec, &mut c);
        packetize(&feed, rec, &mut c);
        replay_capture(&outcome, p, rec, &mut c);
        chat_and_player(b, p, &feed, rec, &mut c);
        const ACCESS_REPS: usize = 200;
        let (_, ms) = timed_ms(rec, "service.access_video", || {
            for _ in 0..ACCESS_REPS {
                black_box(svc.access_video(p.broadcast, &viewer, p.join_at));
            }
        });
        c.access_video = ms / ACCESS_REPS as f64;
        let (_, ms) =
            timed_ms(rec, "qoe.telemetry.fold_outcome", || telemetry.fold_outcome(&outcome));
        fold_us.push(ms * 1e3);
        rec.end(root);

        if outcome.protocol == Protocol::Rtmp {
            rtmp_run_ms.push(run_ms);
            rtmp_sum_ms.push(c.rtmp_sum());
        }
        costs.push(c);
    }

    let mean = |f: fn(&Costs) -> f64| costs.iter().map(f).sum::<f64>() / costs.len().max(1) as f64;
    layers.insert("media.encoder.ms_per_session", mean(|c| c.encoder));
    layers.insert("media.audio.ms_per_session", mean(|c| c.audio));
    layers.insert("client.uplink.ms_per_session", mean(|c| c.uplink));
    layers.insert("proto.rtmp.chunk_ms_per_session", mean(|c| c.rtmp_chunk));
    layers.insert("service.segmenter.ms_per_session", mean(|c| c.segmenter));
    layers.insert("media.ts.mux_ms_per_session", mean(|c| c.ts_mux));
    layers.insert("proto.srt.packetize_ms_per_session", mean(|c| c.srt_packetize));
    layers.insert("simnet.link.enqueue_ms_per_session", mean(|c| c.link));
    layers.insert("simnet.link.packets_per_session", mean(|c| c.link_packets));
    layers.insert("media.capture.record_ms_per_session", mean(|c| c.capture));
    layers.insert("media.capture.mb_per_session", mean(|c| c.capture_mb));
    layers.insert("client.chat.events_ms_per_session", mean(|c| c.chat));
    layers.insert("client.chat.mb_per_session", mean(|c| c.chat_mb));
    layers.insert("client.player.playback_ms_per_session", mean(|c| c.player));
    layers.insert("service.access_video_us", mean(|c| c.access_video) * 1e3);
    layers.insert("qoe.telemetry.fold_us_per_session", median(&fold_us));
    // Median of the per-session ratios: a slow spell of the host that hits
    // one way of one session is an outlier, not a bias.
    layers.insert("bench.trace_overhead_ratio", median(&spanned_ratio));
    layers.insert("obs.trace.session_overhead_ratio", median(&traced_ratio));

    // What outside-in timing cannot attribute, on the sample sessions
    // that RTMP served.
    let run_p50 = median(&rtmp_run_ms);
    let residual = run_p50 - median(&rtmp_sum_ms);
    layers.insert("client.session.residual_ms", residual);
    layers.insert("client.session.residual_share", residual / run_p50.max(1e-9));
    println!(
        "reconciliation (RTMP sample, n={}): run_one p50 {:.3} ms, replica sum p50 {:.3} ms, \
         residual {:.3} ms ({:.1} %)",
        rtmp_run_ms.len(),
        run_p50,
        median(&rtmp_sum_ms),
        residual,
        100.0 * residual / run_p50.max(1e-9)
    );

    // The first `forced` sample sessions again under each transport, clean
    // and unlimited: read-side analysis cost on RTMP and HLS captures, and
    // the per-arm median where the timed loop had too few of an arm.
    rec.set_enabled(true);
    for (transport, arm, analysis) in [
        (Protocol::Rtmp, "client.rtmp.session_ms_p50", Some("media.analysis.rtmp_ms_per_capture")),
        (Protocol::Hls, "client.hls.session_ms_p50", Some("media.analysis.hls_ms_per_capture")),
        (Protocol::Srt, "client.srt.session_ms_p50", None),
    ] {
        let mut run_ms = Vec::new();
        let mut analysis_ms = Vec::new();
        for (i, p) in sample.iter().take(sizes.forced).enumerate() {
            let b = svc.population.by_id(p.broadcast).expect("planned from this population");
            let config = pscp_client::SessionConfig {
                device: p.config.device,
                transport: Some(transport),
                ..Default::default()
            };
            rec.set_unit(i as u64);
            let root = rec.start("bench.forced_replay");
            let (outcome, ms) = timed_ms(rec, "client.teleport.run_one", || {
                tp.run_one(b, p.join_at, &config, p.key)
            });
            run_ms.push(ms);
            if let Some(metric) = analysis {
                let (report, ms) =
                    timed_ms(rec, "qoe.delivery.analyze_session", || analyze_session(&outcome));
                analysis_ms.push(ms);
                if report.is_none() {
                    failures.add(format!(
                        "{metric}: capture of session {} on {} does not analyse",
                        p.key,
                        p.broadcast.as_string()
                    ));
                }
            }
            rec.end(root);
        }
        if let Some(metric) = analysis {
            layers.insert(metric, median(&analysis_ms));
        }
        let looped = &arm_ms[transport as usize];
        let p50 = if looped.len() >= 8 { Timing::of(looped).p50 } else { median(&run_ms) };
        layers.insert(arm, p50);
    }

    // Small per-call layers.
    let mut rng = RngFactory::new(plan.len() as u64).stream("benchmark/pick-replica");
    const PICKS: usize = 2000;
    let (_, ms) = timed_ms(rec, "workload.population.pick", || {
        for i in 0..PICKS {
            black_box(tp.pick(sample[i % sample.len()].join_at, &mut rng));
        }
    });
    layers.insert("workload.population.pick_us", ms * 1e3 / PICKS as f64);
    const MERGES: usize = 200;
    let (_, ms) = timed_ms(rec, "qoe.telemetry.merge", || {
        for _ in 0..MERGES {
            let mut acc = QoeTelemetry::new();
            acc.merge(loop_telemetry);
            acc.merge(&telemetry);
            black_box(acc);
        }
    });
    layers.insert("qoe.telemetry.merge_us", ms * 1e3 / (2 * MERGES) as f64);
}
