//! The segmenter's arena path against muxing owned units, and the recorded
//! `last_video_pts_ms` against demuxing the segment.
//!
//! `Segmenter` keeps the in-progress segment's access units in one arena
//! and muxes them from there (DESIGN.md §10). Whatever the feed — owned
//! frames through `push_frame`/`push_audio`, or descriptors through
//! `push_payload`/`push_audio_fill` — every segment must be byte for byte
//! what `TsMuxer::mux_segment` produces from the same units cut by the
//! same rule.

use pscp_check::{check, ensure, Gen};
use pscp_media::bitstream::{FrameKind, FramePayload};
use pscp_media::content::{ContentClass, ContentProcess};
use pscp_media::encoder::{EncodedFrame, Encoder, EncoderConfig, GopPattern};
use pscp_media::ts::{segment_video_frames, TsMuxer, TsUnit};
use pscp_service::segmenter::{Segmenter, SegmenterConfig};
use pscp_simnet::{RngFactory, SimTime};

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
    cuts.iter().filter(|units| !units.is_empty()).map(|units| muxer.mux_segment(units)).collect()
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
    direct_pushes_into(Segmenter::new(SegmenterConfig::default()), feed)
}

fn direct_pushes_into(mut seg: Segmenter, feed: &[Tick]) -> Segmenter {
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

#[test]
fn arena_segments_equal_muxing_owned_units() {
    check(
        "arena_segments_equal_muxing_owned_units",
        |g: &mut Gen| {
            let drop_prob = if g.bool() { 0.0 } else { g.f64(0.0..0.3) };
            (g.u64(..), g.choice(3), drop_prob, g.usize(1..400), g.usize(1..5))
        },
        |&(seed, gop, drop_prob, n_frames, audio_every)| {
            let feed = feed(seed, GOPS[gop], drop_prob, n_frames, audio_every);
            let want = reference_segments(&feed);
            for (path, seg) in
                [("wrappers", through_wrappers(&feed)), ("direct", through_direct_pushes(&feed))]
            {
                let got: Vec<&[u8]> = seg.segments().iter().map(|s| s.bytes.as_slice()).collect();
                ensure!(
                    got.len() == want.len(),
                    "{path}: {} segments, not {}",
                    got.len(),
                    want.len()
                );
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    ensure!(*g == w.as_slice(), "{path}: segment {i} differs from mux_segment");
                    // Sized exactly: the one allocation is never grown.
                    ensure!(
                        seg.segments()[i].bytes.capacity() == w.len(),
                        "{path}: segment {i} over- or under-allocated"
                    );
                }
            }
            Ok(())
        },
    );
}

/// A lengths-only segmenter cuts the same segments as the byte path — same
/// sequence numbers, durations, availability, last video PTS and playlist —
/// and states for each the length the byte path's segment has, without
/// holding a byte of it.
#[test]
fn lengths_only_segments_are_the_byte_path_minus_the_bytes() {
    check(
        "lengths_only_segments_are_the_byte_path_minus_the_bytes",
        |g: &mut Gen| {
            let drop_prob = if g.bool() { 0.0 } else { g.f64(0.0..0.3) };
            (g.u64(..), g.choice(3), drop_prob, g.usize(1..400), g.usize(1..5))
        },
        |&(seed, gop, drop_prob, n_frames, audio_every)| {
            let feed = feed(seed, GOPS[gop], drop_prob, n_frames, audio_every);
            let full = through_direct_pushes(&feed);
            let sized =
                direct_pushes_into(Segmenter::lengths_only(SegmenterConfig::default()), &feed);
            ensure!(
                full.segments().len() == sized.segments().len(),
                "{} segments, not {}",
                sized.segments().len(),
                full.segments().len()
            );
            for (f, s) in full.segments().iter().zip(sized.segments()) {
                ensure!(f.len == f.bytes.len(), "seq {}: len is not the byte count", f.seq);
                ensure!(s.bytes.is_empty(), "seq {}: a lengths-only segment holds bytes", s.seq);
                ensure!(
                    (s.seq, s.len, s.duration_s.to_bits(), s.available_at, s.last_video_pts_ms)
                        == (
                            f.seq,
                            f.len,
                            f.duration_s.to_bits(),
                            f.available_at,
                            f.last_video_pts_ms
                        ),
                    "seq {}: {s:?} differs from the byte path",
                    f.seq
                );
            }
            for secs in [0, 3, 6, 9, 14] {
                let at = SimTime::from_secs(secs);
                ensure!(
                    full.playlist_at(at).render() == sized.playlist_at(at).render(),
                    "playlist differs at {secs} s"
                );
            }
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
                let demuxed = segment_video_frames(&s.bytes).expect("own segment demuxes");
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
    assert!(segment_video_frames(&seg.segments()[0].bytes).unwrap().is_empty());
}
