//! The HLS packaging pipeline: GOP-aligned MPEG-TS segments + live playlist.
//!
//! §5.1 explains the latency cost this module models: "HLS delivery
//! requires the data to be packaged in complete segments, possibly while
//! transcoding it to multiple qualities, and the client application needs
//! to separately request for each video segment, which all adds up to the
//! latency." §5.2 gives the observable shape: "The most common segment
//! duration with HLS is 3.6 s (60% of the cases), and it ranges between 3
//! and 6 s." At 30 fps with 36-frame GOPs, three GOPs are exactly 3.6 s —
//! segments cut on I-frame boundaries reproduce the distribution naturally.

use pscp_media::bitstream::{FrameKind, FramePayload};
use pscp_media::encoder::EncodedFrame;
use pscp_media::ts::TsMuxer;
use pscp_proto::filler::{self, Filler, Recipe, Sink};
use pscp_proto::hls::{MediaPlaylist, SegmentEntry};
use pscp_simnet::{SimDuration, SimTime};
use std::sync::Arc;

/// `EXT-X-TARGETDURATION` of every playlist: segments run 3–6 s.
const TARGET_DURATION_S: u32 = 6;
/// The byte the opaque model audio body is filled with.
const AUDIO_FILL: u8 = 0xAA;

/// What writes one access unit's bytes.
#[derive(Debug, Clone)]
enum Body {
    /// A coded frame still a descriptor: [`FramePayload::encode_into`].
    Frame(FramePayload),
    /// `n` bytes of [`AUDIO_FILL`].
    AudioFill(usize),
    /// Bytes the caller handed over.
    Bytes(Vec<u8>),
}

impl Body {
    fn len(&self) -> usize {
        match self {
            Body::Frame(frame) => frame.size,
            Body::AudioFill(n) => *n,
            Body::Bytes(bytes) => bytes.len(),
        }
    }
}

/// One access unit of a segment, as a descriptor.
#[derive(Debug, Clone)]
struct Unit {
    video: bool,
    pts_ms: u32,
    body: Body,
}

/// A finished segment ready for CDN delivery: what it holds and how long it
/// is, not its bytes — those are produced by [`Segment::write_into`] when
/// someone reads them, so a segment nobody reads costs no byte.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Media sequence number.
    pub seq: u64,
    /// Size of the complete MPEG-TS segment in bytes.
    pub len: usize,
    /// Media duration in seconds.
    pub duration_s: f64,
    /// PTS of the segment's last video frame in presentation order (what
    /// demuxing the segment would report last); `None` for an audio-only
    /// tail.
    pub last_video_pts_ms: Option<u32>,
    /// Instant the segment became fetchable from the CDN (last frame's
    /// arrival + packaging delay).
    pub available_at: SimTime,
    units: Vec<Unit>,
    /// The continuity counters its first packets carry: the stream's, after
    /// every earlier segment.
    continuity: [u8; 4],
}

impl Segment {
    /// Segment URI in playlists.
    pub fn uri(&self) -> String {
        format!("seg_{}.ts", self.seq)
    }

    /// The sequence number a [`Segment::uri`] names.
    pub(crate) fn seq_of_uri(uri: &str) -> Option<u64> {
        uri.strip_prefix("seg_")?.strip_suffix(".ts")?.parse().ok()
    }

    /// Appends the segment's `len` MPEG-TS bytes to `out` — the bytes one
    /// muxer writing the whole stream in order puts here, whichever
    /// segments are written, and in whatever order. A frame's header is
    /// written out and its filler, like an audio body's fill byte, is
    /// handed to `out` as a [`Filler`], sliced over the TS packets.
    pub fn write_into(&self, out: &mut impl Sink) {
        let mut muxer = TsMuxer::resume(self.continuity);
        muxer.begin_segment(out);
        for unit in &self.units {
            let (video, pts_ms) = (unit.video, unit.pts_ms);
            match &unit.body {
                Body::Bytes(bytes) => muxer.write_body(video, pts_ms, bytes.into(), out),
                Body::Frame(frame) => {
                    let body = filler::Body { head: &frame.head(), tail: frame.filler() };
                    muxer.write_body(video, pts_ms, body, out)
                }
                Body::AudioFill(n) => {
                    let body = filler::Body { head: &[], tail: Filler::run(AUDIO_FILL, *n) };
                    muxer.write_body(video, pts_ms, body, out)
                }
            }
        }
    }
}

/// The finished segments in sequence order, as one [`Recipe`]: item `i` is
/// segment `i`'s MPEG-TS bytes, [`Segment::write_into`].
#[derive(Debug, Clone, Default)]
pub struct Segments(Vec<Segment>);

impl Recipe for Segments {
    fn len(&self, i: usize) -> usize {
        self.0[i].len
    }

    fn write(&self, i: usize, mut out: &mut dyn Sink) {
        self.0[i].write_into(&mut out);
    }
}

/// Segmenter configuration.
#[derive(Debug, Clone)]
pub struct SegmenterConfig {
    /// Minimum media duration before a cut (cuts land on the next I frame,
    /// so a 30 fps stream with 36-frame GOPs yields the modal 3.6 s).
    pub min_segment_s: f64,
    /// Transcode/package/CDN-upload delay applied after the last frame.
    pub packaging_delay: SimDuration,
    /// Playlist window (segments advertised).
    pub playlist_window: usize,
}

impl Default for SegmenterConfig {
    fn default() -> Self {
        SegmenterConfig {
            min_segment_s: 3.0,
            packaging_delay: SimDuration::from_millis(800),
            playlist_window: 6,
        }
    }
}

/// Streaming segmenter: feed frames as they reach the ingest server, pop
/// finished segments.
#[derive(Debug)]
pub struct Segmenter {
    config: SegmenterConfig,
    /// Never writes a byte: it keeps the continuity counters of the stream
    /// so far, which each segment starts from.
    muxer: TsMuxer,
    ended: bool,
    pending: Vec<Unit>,
    pending_first_pts: Option<u32>,
    /// Segments finished so far, shared with every [`Segmenter::recipe`].
    finished: Arc<Segments>,
    /// Running estimate of frame duration, for the tail frame's share.
    last_pts_delta_ms: f64,
}

impl Segmenter {
    /// Creates a segmenter.
    pub fn new(config: SegmenterConfig) -> Self {
        assert!(config.min_segment_s > 0.0);
        Segmenter {
            config,
            muxer: TsMuxer::new(),
            ended: false,
            pending: Vec::new(),
            pending_first_pts: None,
            finished: Arc::default(),
            last_pts_delta_ms: 33.3,
        }
    }

    /// Feeds one video frame arriving at the packager at `arrival`.
    ///
    /// A segment is cut when an I frame arrives after at least
    /// `min_segment_s` of media — so segments start on I frames (HLS
    /// requires independently decodable segments) regardless of the GOP
    /// pattern, including intra-only streams where *every* frame is an I.
    pub fn push_frame(&mut self, frame: &EncodedFrame, arrival: SimTime) {
        self.video(frame.kind, frame.pts_ms, arrival, Body::Bytes(frame.bytes.clone()));
    }

    /// [`Segmenter::push_frame`] for a frame that is still a descriptor: it
    /// stays one, and its body is generated when its segment is written.
    pub fn push_payload(&mut self, frame: FramePayload, arrival: SimTime) {
        self.video(frame.kind, frame.pts_ms, arrival, Body::Frame(frame));
    }

    /// Feeds an audio frame.
    pub fn push_audio(&mut self, pts_ms: u32, data: Vec<u8>) {
        self.pending.push(Unit { video: false, pts_ms, body: Body::Bytes(data) });
    }

    /// [`Segmenter::push_audio`] for the opaque model audio body: `n` bytes
    /// of `0xAA`, written with the segment.
    pub fn push_audio_fill(&mut self, pts_ms: u32, n: usize) {
        self.pending.push(Unit { video: false, pts_ms, body: Body::AudioFill(n) });
    }

    /// The cut rule, then the append, for a video frame.
    fn video(&mut self, kind: FrameKind, pts_ms: u32, arrival: SimTime, body: Body) {
        let pending_ms =
            self.pending_first_pts.map(|first| pts_ms.saturating_sub(first)).unwrap_or(0);
        if kind == FrameKind::I && pending_ms as f64 >= self.config.min_segment_s * 1000.0 {
            self.cut(arrival);
        }
        if let Some(first) = self.pending_first_pts {
            if pts_ms > first {
                let n = self.pending.len().max(1);
                self.last_pts_delta_ms = (pts_ms - first) as f64 / n as f64;
            }
        } else {
            self.pending_first_pts = Some(pts_ms);
        }
        self.pending.push(Unit { video: true, pts_ms, body });
    }

    /// Flushes the in-progress segment (end of broadcast).
    pub fn finish(&mut self, now: SimTime) {
        if !self.pending.is_empty() {
            self.cut(now);
        }
        self.ended = true;
    }

    fn cut(&mut self, arrival: SimTime) {
        self.pending_first_pts = None;
        if self.pending.is_empty() {
            return;
        }
        let video_pts = || self.pending.iter().filter(|u| u.video).map(|u| u.pts_ms);
        let n_video = video_pts().count().max(1);
        let last_video_pts_ms = video_pts().max();
        let span_ms = match (video_pts().min(), last_video_pts_ms) {
            (Some(lo), Some(hi)) => (hi - lo) as f64,
            _ => 0.0,
        };
        // PTS span misses the final frame's display time; add one frame
        // duration estimated from the span itself.
        let tail_ms =
            if n_video >= 2 { span_ms / (n_video - 1) as f64 } else { self.last_pts_delta_ms };
        let duration_s = (span_ms + tail_ms) / 1000.0;
        // The next segment is about as many units long as this one.
        let next = Vec::with_capacity(self.pending.len());
        let units = std::mem::replace(&mut self.pending, next);
        let continuity = self.muxer.continuity();
        self.muxer.skip_segment(units.iter().map(|u| (u.video, u.body.len())));
        let segment = Segment {
            seq: self.segments().len() as u64,
            len: TsMuxer::segment_len(units.iter().map(|u| u.body.len())),
            duration_s,
            last_video_pts_ms,
            available_at: arrival + self.config.packaging_delay,
            units,
            continuity,
        };
        // Uniquely held until a recipe is taken; a later cut copies the list.
        Arc::make_mut(&mut self.finished).0.push(segment);
    }

    /// Segments finished so far.
    pub fn segments(&self) -> &[Segment] {
        &self.finished.0
    }

    /// The segments finished so far as one [`Recipe`] — what a capture
    /// records a fetched segment as an item of. It shares the list, so
    /// nothing is copied; a segment cut after that goes into a copy, and
    /// the recipe keeps what it was given.
    pub fn recipe(&self) -> Arc<Segments> {
        Arc::clone(&self.finished)
    }

    /// Playlist as visible at `now` — only advertising segments already
    /// available on the CDN, the last `playlist_window` of them.
    pub fn playlist_at(&self, now: SimTime) -> MediaPlaylist {
        let available = || self.segments().iter().filter(|s| s.available_at <= now);
        // Segments slid out of the window shift the sequence base.
        let slid = available().count().saturating_sub(self.config.playlist_window);
        let mut pl = MediaPlaylist::new(TARGET_DURATION_S);
        pl.ended = self.ended;
        pl.media_sequence = slid as u64;
        pl.segments = available()
            .skip(slid)
            .map(|seg| SegmentEntry { duration_s: seg.duration_s, uri: seg.uri() })
            .collect();
        pl
    }

    /// The segment numbered `seq`, if available at `now`.
    pub fn segment(&self, seq: u64, now: SimTime) -> Option<&Segment> {
        self.segments().get(usize::try_from(seq).ok()?).filter(|s| s.available_at <= now)
    }

    /// Fetches a segment by URI, if available at `now`.
    pub fn segment_by_uri(&self, uri: &str, now: SimTime) -> Option<&Segment> {
        self.segment(Segment::seq_of_uri(uri)?, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_media::content::{ContentClass, ContentProcess};
    use pscp_media::encoder::{Encoder, EncoderConfig};
    use pscp_media::ts::TsUnit;
    use pscp_simnet::RngFactory;

    fn bytes(segment: &Segment) -> Vec<u8> {
        let mut out = Vec::new();
        segment.write_into(&mut out);
        assert_eq!(out.len(), segment.len);
        out
    }

    fn feed_seconds(seg: &mut Segmenter, secs: usize, seed: u64) {
        let f = RngFactory::new(seed);
        let mut rng = f.stream("segtest");
        let content = ContentProcess::new(ContentClass::Indoor, &mut rng);
        let cfg = EncoderConfig { frame_drop_prob: 0.0, ..Default::default() };
        let mut enc = Encoder::new(cfg, content);
        for i in 0..secs * 30 {
            let t = SimTime::from_micros((i as u64 * 1_000_000) / 30);
            if let Some(frame) = enc.next_frame(t.as_secs_f64(), &mut rng) {
                seg.push_frame(&frame, t);
            }
        }
    }

    #[test]
    fn segments_are_modal_3_6s() {
        let mut seg = Segmenter::new(SegmenterConfig::default());
        feed_seconds(&mut seg, 30, 1);
        assert!(seg.segments().len() >= 7, "n={}", seg.segments().len());
        for s in seg.segments() {
            assert!((s.duration_s - 3.6).abs() < 0.2, "duration={}", s.duration_s);
        }
    }

    #[test]
    fn segments_decode_as_valid_ts() {
        let mut seg = Segmenter::new(SegmenterConfig::default());
        feed_seconds(&mut seg, 10, 2);
        for s in seg.segments() {
            let frames = pscp_media::ts::segment_video_frames(&bytes(s)).unwrap();
            assert!(!frames.is_empty());
            // Segments start on an I frame.
            assert_eq!(frames[0].kind, pscp_media::bitstream::FrameKind::I);
        }
    }

    #[test]
    fn availability_includes_packaging_delay() {
        let mut seg = Segmenter::new(SegmenterConfig::default());
        feed_seconds(&mut seg, 10, 3);
        let first = &seg.segments()[0];
        // First segment's last frame arrives ~3.6 s in; +0.8 s packaging.
        let t = first.available_at.as_secs_f64();
        assert!((4.0..5.2).contains(&t), "available_at={t}");
        // Not fetchable before availability.
        assert!(seg.segment_by_uri(&first.uri(), SimTime::from_secs(3)).is_none());
        assert!(seg.segment_by_uri(&first.uri(), first.available_at).is_some());
    }

    #[test]
    fn playlist_respects_availability_and_window() {
        let mut seg = Segmenter::new(SegmenterConfig { playlist_window: 3, ..Default::default() });
        feed_seconds(&mut seg, 60, 4);
        let early = seg.playlist_at(SimTime::from_secs(9));
        assert!(early.segments.len() <= 2, "early={}", early.segments.len());
        let late = seg.playlist_at(SimTime::from_secs(60));
        assert_eq!(late.segments.len(), 3);
        assert!(late.media_sequence > 0);
        // Playlist text parses.
        let parsed = pscp_proto::hls::MediaPlaylist::parse(&late.render()).unwrap();
        assert_eq!(parsed.segments.len(), 3);
    }

    #[test]
    fn finish_flushes_and_ends() {
        let mut seg = Segmenter::new(SegmenterConfig::default());
        feed_seconds(&mut seg, 5, 5);
        let before = seg.segments().len();
        seg.finish(SimTime::from_secs(5));
        assert!(seg.segments().len() > before);
        assert!(seg.playlist_at(SimTime::from_secs(60)).ended);
    }

    #[test]
    fn audio_interleaved() {
        let mut seg = Segmenter::new(SegmenterConfig::default());
        let f = RngFactory::new(6);
        let mut rng = f.stream("segtest-audio");
        let content = ContentProcess::new(ContentClass::Indoor, &mut rng);
        let cfg = EncoderConfig { frame_drop_prob: 0.0, ..Default::default() };
        let mut enc = Encoder::new(cfg, content);
        for i in 0..300 {
            let t = SimTime::from_micros((i as u64 * 1_000_000) / 30);
            if let Some(frame) = enc.next_frame(t.as_secs_f64(), &mut rng) {
                seg.push_frame(&frame, t);
            }
            if i % 2 == 0 {
                seg.push_audio(i * 33, vec![0xAA; 93]);
            }
        }
        seg.finish(SimTime::from_secs(10));
        let s = &seg.segments()[0];
        let units = pscp_media::ts::demux_segment(&bytes(s)).unwrap();
        assert!(units.iter().any(|u| matches!(u, TsUnit::Audio { .. })));
        assert!(units.iter().any(|u| matches!(u, TsUnit::Video { .. })));
    }
}
