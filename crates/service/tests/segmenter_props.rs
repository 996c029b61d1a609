//! Segments as descriptors against muxing owned units, the playlist window
//! against the construction it replaced, and the recorded
//! `last_video_pts_ms` against demuxing the segment.
//!
//! A `Segment` holds what it consists of and the continuity counters it
//! starts from, and its bytes are produced by `Segment::write_into` when
//! someone fetches it (DESIGN.md §10). Whatever the feed — owned frames
//! through `push_frame`/`push_audio`, or descriptors through
//! `push_payload`/`push_audio_fill` — and whichever segments are written,
//! in whatever order, every one must be byte for byte what one
//! `TsMuxer::mux_into` per segment, over the whole stream in order,
//! produces from the same units cut by the same rule — and a segment a
//! capture records as an item of the segment list reads back as those
//! bytes.

use pscp_check::{check, ensure, Gen};
use pscp_media::bitstream::{FrameKind, FramePayload};
use pscp_media::capture::{Flow, FlowKind};
use pscp_media::content::{ContentClass, ContentProcess};
use pscp_media::encoder::{EncodedFrame, Encoder, EncoderConfig, GopPattern};
use pscp_media::ts::{segment_video_frames, TsDemuxer, TsMuxer, TsUnit};
use pscp_proto::filler::{Recipe, Sink};
use pscp_proto::hls::{MediaPlaylist, SegmentEntry};
use pscp_service::segmenter::{Segment, Segmenter, SegmenterConfig};
use pscp_simnet::rng::Rng;
use pscp_simnet::{RngFactory, SimTime};
use std::sync::Arc;

const GOPS: [GopPattern; 3] = [GopPattern::Ibp, GopPattern::IpOnly, GopPattern::IOnly];

/// One step of a feed: a frame (or a dropped one) and the audio due with it.
struct Tick {
    arrival: SimTime,
    frame: Option<FramePayload>,
    audio: Vec<(u32, usize)>,
}

fn feed(
    seed: u64,
    gop: GopPattern,
    drop_prob: f64,
    n_frames: usize,
    audio_every: usize,
) -> Vec<Tick> {
    let mut rng = RngFactory::new(seed).stream("segmenter-props");
    let content = ContentProcess::new(ContentClass::Outdoor, &mut rng);
    let cfg = EncoderConfig { gop, frame_drop_prob: drop_prob, ..Default::default() };
    let mut enc = Encoder::new(cfg, content);
    (0..n_frames)
        .map(|i| {
            let arrival = SimTime::from_micros(i as u64 * 1_000_000 / 30);
            let frame = enc.next_payload(arrival.as_secs_f64(), &mut rng);
            let audio = if i % audio_every == 0 {
                vec![(i as u32 * 33 + 1, 60 + (i * 7) % 120)]
            } else {
                Vec::new()
            };
            Tick { arrival, frame, audio }
        })
        .collect()
}

/// The segments the cut rule yields, muxed from owned units.
fn reference_segments(feed: &[Tick]) -> Vec<Vec<u8>> {
    let min_ms = (SegmenterConfig::default().min_segment_s * 1000.0) as u32;
    let mut cuts: Vec<Vec<TsUnit>> = vec![Vec::new()];
    let mut first_pts: Option<u32> = None;
    for tick in feed {
        if let Some(f) = &tick.frame {
            let pending = first_pts.map_or(0, |p| f.pts_ms.saturating_sub(p));
            if f.kind == FrameKind::I && pending >= min_ms {
                cuts.push(Vec::new());
                first_pts = None;
            }
            first_pts.get_or_insert(f.pts_ms);
            let units = cuts.last_mut().expect("never empty");
            units.push(TsUnit::Video { pts_ms: f.pts_ms, data: f.encode() });
        }
        for &(pts_ms, n) in &tick.audio {
            let units = cuts.last_mut().expect("never empty");
            units.push(TsUnit::Audio { pts_ms, data: vec![0xAA; n] });
        }
    }
    let mut muxer = TsMuxer::new();
    cuts.iter()
        .filter(|units| !units.is_empty())
        .map(|units| {
            let mut out = Vec::new();
            muxer.mux_into(units.iter().map(TsUnit::as_ref), &mut out);
            out
        })
        .collect()
}

fn bytes(segment: &Segment) -> Vec<u8> {
    let mut out = vec![0x5A; 3];
    segment.write_into(&mut out);
    assert_eq!(out.len() - 3, segment.len, "seq {}: len is not the byte count", segment.seq);
    out.split_off(3)
}

fn through_wrappers(feed: &[Tick]) -> Segmenter {
    let mut seg = Segmenter::new(SegmenterConfig::default());
    for tick in feed {
        if let Some(f) = &tick.frame {
            let owned =
                EncodedFrame { pts_ms: f.pts_ms, kind: f.kind, qp: f.qp, bytes: f.encode() };
            seg.push_frame(&owned, tick.arrival);
        }
        for &(pts_ms, n) in &tick.audio {
            seg.push_audio(pts_ms, vec![0xAA; n]);
        }
    }
    seg.finish(feed.last().map_or(SimTime::ZERO, |t| t.arrival));
    seg
}

fn through_direct_pushes(feed: &[Tick]) -> Segmenter {
    let mut seg = Segmenter::new(SegmenterConfig::default());
    for tick in feed {
        if let Some(f) = &tick.frame {
            seg.push_payload(f.clone(), tick.arrival);
        }
        for &(pts_ms, n) in &tick.audio {
            seg.push_audio_fill(pts_ms, n);
        }
    }
    seg.finish(feed.last().map_or(SimTime::ZERO, |t| t.arrival));
    seg
}

fn feed_params(g: &mut Gen) -> (u64, usize, f64, usize, usize) {
    let drop_prob = if g.bool() { 0.0 } else { g.f64(0.0..0.3) };
    (g.u64(..), g.choice(3), drop_prob, g.usize(1..400), g.usize(1..5))
}

/// Every segment written alone — an arbitrary subset of them, in an
/// arbitrary order — is the segment one muxer writing the whole stream in
/// order produces, and demuxes on its own.
#[test]
fn segments_written_alone_in_any_order_equal_muxing_the_whole_stream() {
    check(
        "segments_written_alone_in_any_order_equal_muxing_the_whole_stream",
        |g: &mut Gen| (feed_params(g), g.u64(..)),
        |&((seed, gop, drop_prob, n_frames, audio_every), fetch_seed)| {
            let feed = feed(seed, GOPS[gop], drop_prob, n_frames, audio_every);
            let want = reference_segments(&feed);
            for (path, seg) in
                [("wrappers", through_wrappers(&feed)), ("direct", through_direct_pushes(&feed))]
            {
                let segments = seg.segments();
                ensure!(
                    segments.len() == want.len(),
                    "{path}: {} segments, not {}",
                    segments.len(),
                    want.len()
                );
                // A fetch order: a shuffle of the sequence numbers, about a
                // third of them skipped.
                let mut rng = RngFactory::new(fetch_seed).stream("fetch-order");
                let mut order: Vec<(u64, usize)> = (0..segments.len())
                    .map(|i| (pscp_simnet::rng::Rng::next_u64(&mut rng), i))
                    .filter(|(key, _)| key % 3 != 0)
                    .collect();
                order.sort_unstable();
                let mut demuxer = TsDemuxer::new();
                for &(_, i) in &order {
                    let got = bytes(&segments[i]);
                    ensure!(got == want[i], "{path}: segment {i} differs from mux_into");
                    demuxer.reset();
                    let demuxed = demuxer.push(&got).and_then(|()| demuxer.finish());
                    ensure!(demuxed.is_ok(), "{path}: segment {i} alone: {demuxed:?}");
                }
                // Fetched back to back, none skipped, the counters run on
                // from segment to segment: one demuxer takes them all.
                demuxer.reset();
                for (i, s) in segments.iter().enumerate() {
                    let pushed = demuxer.push(&bytes(s));
                    ensure!(pushed.is_ok(), "{path}: continuity breaks entering {i}: {pushed:?}");
                }
            }
            Ok(())
        },
    );
}

/// Segments fetched into a capture flow as items of the segment list — in
/// any order, some fetched again, the list taken part way through the feed
/// — read back, per packet and as a whole stream, as `Segment::write_into`
/// over a `Vec` writes them; and the list taken early still holds the
/// segments it was given.
#[test]
fn segments_recorded_as_items_read_back_as_written_into_a_vec() {
    check(
        "segments_recorded_as_items_read_back_as_written_into_a_vec",
        |g: &mut Gen| (feed_params(g), g.u64(..), g.usize(..), g.usize(1..1500)),
        |&((seed, gop, drop_prob, n_frames, audio_every), fetch_seed, taken_at, mtu)| {
            let feed = feed(seed, GOPS[gop], drop_prob, n_frames, audio_every);
            let want: Vec<Vec<u8>> =
                through_direct_pushes(&feed).segments().iter().map(bytes).collect();
            let taken_at = taken_at % (feed.len() + 1);
            let mut seg = Segmenter::new(SegmenterConfig::default());
            let mut early = None;
            for (i, tick) in feed.iter().enumerate() {
                if i == taken_at {
                    early = Some((seg.recipe(), seg.segments().len()));
                }
                if let Some(f) = &tick.frame {
                    seg.push_payload(f.clone(), tick.arrival);
                }
                for &(pts_ms, n) in &tick.audio {
                    seg.push_audio_fill(pts_ms, n);
                }
            }
            seg.finish(feed.last().map_or(SimTime::ZERO, |t| t.arrival));
            let got: Vec<Vec<u8>> = seg.segments().iter().map(bytes).collect();
            ensure!(got == want, "the list taken at tick {taken_at} changed the segments");
            // A fetch order: sequence numbers drawn with repeats.
            let mut rng = RngFactory::new(fetch_seed).stream("fetch-order");
            let order: Vec<usize> =
                (0..want.len() * 3 / 2).map(|_| rng.next_u64() as usize % want.len()).collect();
            let recipe: Arc<dyn Recipe> = seg.recipe();
            let mut flow = Flow::new(FlowKind::HlsHttp, "pop");
            let mut stream = Vec::new();
            for (k, &i) in order.iter().enumerate() {
                let len = want[i].len();
                flow.append_with(len, |out| out.item(&recipe, i));
                for n in (0..len).step_by(mtu).map(|at| mtu.min(len - at)) {
                    flow.cut(SimTime::from_millis(k as u64), k as f64, n, 0, 0);
                }
                stream.extend_from_slice(&want[i]);
            }
            let per_packet: Vec<u8> = flow.payloads().flat_map(|p| p.bytes().to_vec()).collect();
            ensure!(per_packet == stream, "packets read back other bytes");
            ensure!(*flow.byte_stream() == stream[..], "the stream reads back other bytes");
            if let Some((early, n)) = early {
                let early: Arc<dyn Recipe> = early;
                for (i, want) in want.iter().enumerate().take(n) {
                    let mut out = Vec::new();
                    out.item(&early, i);
                    ensure!(out == *want, "the early list's segment {i} changed");
                }
            }
            Ok(())
        },
    );
}

/// The playlist and the lookups against what they replaced: a playlist that
/// pushed an entry for every available segment and slid the window along,
/// and a search that formatted every candidate's URI.
#[test]
fn playlist_window_and_lookups_equal_the_push_and_slide_construction() {
    check(
        "playlist_window_and_lookups_equal_the_push_and_slide_construction",
        |g: &mut Gen| (feed_params(g), g.usize(1..9), g.u64(0..16_000_000)),
        |&((seed, gop, drop_prob, n_frames, audio_every), window, at_us)| {
            let mut feed = feed(seed, GOPS[gop], drop_prob, n_frames, audio_every);
            // Uplink jitter, so that availability is not monotone in the
            // sequence number.
            for (i, tick) in feed.iter_mut().enumerate() {
                tick.arrival +=
                    pscp_simnet::SimDuration::from_micros((i as u64 * 7_919_113) % 3_000_000);
            }
            let mut seg =
                Segmenter::new(SegmenterConfig { playlist_window: window, ..Default::default() });
            for tick in &feed {
                if let Some(f) = &tick.frame {
                    seg.push_payload(f.clone(), tick.arrival);
                }
            }
            if seed % 2 == 0 {
                seg.finish(SimTime::from_secs(14));
            }
            let now = SimTime::from_micros(at_us);
            let mut old = MediaPlaylist::new(6);
            old.ended = seed % 2 == 0;
            for s in seg.segments().iter().filter(|s| s.available_at <= now) {
                old.push_segment(SegmentEntry { duration_s: s.duration_s, uri: s.uri() }, window);
            }
            let new = seg.playlist_at(now);
            ensure!(new.render() == old.render(), "{}\nnot\n{}", new.render(), old.render());
            ensure!(new == old, "{new:?} renders like {old:?} but differs");
            for s in seg.segments() {
                let by_search = seg
                    .segments()
                    .iter()
                    .find(|c| c.uri() == s.uri() && c.available_at <= now)
                    .map(|c| c.seq);
                ensure!(seg.segment(s.seq, now).map(|c| c.seq) == by_search, "seq {}", s.seq);
                ensure!(
                    seg.segment_by_uri(&s.uri(), now).map(|c| c.seq) == by_search,
                    "{}",
                    s.uri()
                );
            }
            let past = seg.segments().len() as u64;
            ensure!(seg.segment(past, SimTime::MAX).is_none(), "a segment past the last");
            ensure!(seg.segment_by_uri("seg_x.ts", SimTime::MAX).is_none(), "a malformed URI");
            Ok(())
        },
    );
}

/// The recorded last video PTS is what a full demux reports last, under
/// every GOP pattern, with and without dropped frames.
#[test]
fn last_video_pts_equals_the_demuxed_value() {
    for gop in GOPS {
        for drop_prob in [0.0, 0.004, 0.2] {
            let feed = feed(11, gop, drop_prob, 600, 2);
            let seg = through_direct_pushes(&feed);
            assert!(seg.segments().len() >= 4, "{gop:?}: {} segments", seg.segments().len());
            for s in seg.segments() {
                let demuxed = segment_video_frames(&bytes(s)).expect("own segment demuxes");
                assert_eq!(
                    s.last_video_pts_ms,
                    demuxed.last().map(|f| f.pts_ms),
                    "{gop:?} drop {drop_prob} seq {}",
                    s.seq
                );
            }
        }
    }
    // A tail with no video frame in it.
    let mut seg = Segmenter::new(SegmenterConfig::default());
    seg.push_audio_fill(5, 90);
    seg.finish(SimTime::from_secs(1));
    assert_eq!(seg.segments()[0].last_video_pts_ms, None);
    assert!(segment_video_frames(&bytes(&seg.segments()[0])).unwrap().is_empty());
}
