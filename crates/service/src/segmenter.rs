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
use pscp_media::ts::{TsMuxer, TsUnitRef};
use pscp_proto::hls::{MediaPlaylist, SegmentEntry};
use pscp_simnet::{SimDuration, SimTime};

/// A finished segment ready for CDN delivery.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Media sequence number.
    pub seq: u64,
    /// Complete MPEG-TS bytes (empty from a [`Segmenter::lengths_only`]
    /// segmenter).
    pub bytes: Vec<u8>,
    /// Size of the complete MPEG-TS segment in bytes.
    pub len: usize,
    /// Media duration in seconds.
    pub duration_s: f64,
    /// PTS of the segment's last video frame in presentation order (what
    /// demuxing `bytes` would report last); `None` for an audio-only tail.
    pub last_video_pts_ms: Option<u32>,
    /// Instant the segment became fetchable from the CDN (last frame's
    /// arrival + packaging delay).
    pub available_at: SimTime,
}

impl Segment {
    /// Segment URI in playlists.
    pub fn uri(&self) -> String {
        format!("seg_{}.ts", self.seq)
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

/// One access unit of the in-progress segment: `len` bytes, the next ones
/// in the arena when bytes are kept.
#[derive(Debug, Clone, Copy)]
struct PendingUnit {
    video: bool,
    pts_ms: u32,
    len: usize,
}

/// Streaming segmenter: feed frames as they reach the ingest server, pop
/// finished segments.
#[derive(Debug)]
pub struct Segmenter {
    config: SegmenterConfig,
    muxer: TsMuxer,
    playlist: MediaPlaylist,
    /// Whether segments carry their bytes, or only their length.
    keep_bytes: bool,
    /// Access-unit bytes of the in-progress segment, back to back. Cleared
    /// (capacity kept) at every cut, so a frame body is written here once
    /// and read once, by the muxer. Stays empty when only lengths are kept.
    arena: Vec<u8>,
    pending: Vec<PendingUnit>,
    pending_first_pts: Option<u32>,
    next_seq: u64,
    finished: Vec<Segment>,
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
            playlist: MediaPlaylist::new(6),
            keep_bytes: true,
            arena: Vec::new(),
            pending: Vec::new(),
            pending_first_pts: None,
            next_seq: 0,
            finished: Vec::new(),
            last_pts_delta_ms: 33.3,
        }
    }

    /// A segmenter for a caller that will never read segment bytes: units
    /// are accounted by length, nothing is written or muxed, and every
    /// [`Segment`] has empty `bytes` and the `len`, timing and playlist the
    /// byte path gives it.
    pub fn lengths_only(config: SegmenterConfig) -> Self {
        Segmenter { keep_bytes: false, ..Segmenter::new(config) }
    }

    /// Feeds one video frame arriving at the packager at `arrival`.
    ///
    /// A segment is cut when an I frame arrives after at least
    /// `min_segment_s` of media — so segments start on I frames (HLS
    /// requires independently decodable segments) regardless of the GOP
    /// pattern, including intra-only streams where *every* frame is an I.
    pub fn push_frame(&mut self, frame: &EncodedFrame, arrival: SimTime) {
        self.video(frame.kind, frame.pts_ms, arrival, frame.bytes.len(), |arena| {
            arena.extend_from_slice(&frame.bytes)
        });
    }

    /// [`Segmenter::push_frame`] for a frame that is still a descriptor: its
    /// body is generated straight into the segment arena.
    pub fn push_payload(&mut self, frame: FramePayload, arrival: SimTime) {
        self.video(frame.kind, frame.pts_ms, arrival, frame.size, |arena| frame.encode_into(arena));
    }

    /// Feeds an audio frame.
    pub fn push_audio(&mut self, pts_ms: u32, data: Vec<u8>) {
        self.append(false, pts_ms, data.len(), |arena| arena.extend_from_slice(&data));
    }

    /// [`Segmenter::push_audio`] for the opaque model audio body: `n` bytes
    /// of `0xAA`, written in place.
    pub fn push_audio_fill(&mut self, pts_ms: u32, n: usize) {
        self.append(false, pts_ms, n, |arena| arena.resize(arena.len() + n, 0xAA));
    }

    /// The cut rule, then the append, for a video frame whose `len`-byte
    /// body `write` produces.
    fn video(
        &mut self,
        kind: FrameKind,
        pts_ms: u32,
        arrival: SimTime,
        len: usize,
        write: impl FnOnce(&mut Vec<u8>),
    ) {
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
        self.append(true, pts_ms, len, write);
    }

    /// The one place a unit joins the in-progress segment: its `len` bytes
    /// are written by `write` if segments keep their bytes, and only
    /// counted otherwise.
    fn append(&mut self, video: bool, pts_ms: u32, len: usize, write: impl FnOnce(&mut Vec<u8>)) {
        if self.keep_bytes {
            let start = self.arena.len();
            write(&mut self.arena);
            debug_assert_eq!(self.arena.len() - start, len, "unit length mis-stated");
        }
        self.pending.push(PendingUnit { video, pts_ms, len });
    }

    /// Flushes the in-progress segment (end of broadcast).
    pub fn finish(&mut self, now: SimTime) {
        if !self.pending.is_empty() {
            self.cut(now);
        }
        self.playlist.ended = true;
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
        let len = TsMuxer::segment_len(self.pending.iter().map(|u| u.len));
        let mut bytes = Vec::new();
        if self.keep_bytes {
            // Allocated once, exactly.
            bytes = Vec::with_capacity(len);
            let mut rest = self.arena.as_slice();
            self.muxer.mux_into(
                self.pending.iter().map(|u| {
                    let (data, tail) = rest.split_at(u.len);
                    rest = tail;
                    TsUnitRef { video: u.video, pts_ms: u.pts_ms, data }
                }),
                &mut bytes,
            );
            debug_assert_eq!(bytes.len(), len);
            self.arena.clear();
        }
        self.pending.clear();
        let seq = self.next_seq;
        self.next_seq += 1;
        let available_at = arrival + self.config.packaging_delay;
        let segment = Segment { seq, bytes, len, duration_s, last_video_pts_ms, available_at };
        self.playlist.push_segment(
            SegmentEntry { duration_s, uri: segment.uri() },
            self.config.playlist_window,
        );
        self.finished.push(segment);
    }

    /// Segments finished so far.
    pub fn segments(&self) -> &[Segment] {
        &self.finished
    }

    /// Playlist as visible at `now` — only advertising segments already
    /// available on the CDN.
    pub fn playlist_at(&self, now: SimTime) -> MediaPlaylist {
        let mut pl = MediaPlaylist::new(self.playlist.target_duration_s);
        pl.ended = self.playlist.ended;
        for seg in &self.finished {
            if seg.available_at <= now {
                pl.push_segment(
                    SegmentEntry { duration_s: seg.duration_s, uri: seg.uri() },
                    self.config.playlist_window,
                );
            }
        }
        // Fix up the sequence base: entries slid out of the window shift it.
        let available = self.finished.iter().filter(|s| s.available_at <= now).count();
        pl.media_sequence = available.saturating_sub(self.config.playlist_window) as u64;
        pl
    }

    /// Fetches a segment body by URI, if available at `now`.
    pub fn segment_by_uri(&self, uri: &str, now: SimTime) -> Option<&Segment> {
        self.finished.iter().find(|s| s.uri() == uri && s.available_at <= now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_media::content::{ContentClass, ContentProcess};
    use pscp_media::encoder::{Encoder, EncoderConfig};
    use pscp_media::ts::TsUnit;
    use pscp_simnet::RngFactory;

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
            let frames = pscp_media::ts::segment_video_frames(&s.bytes).unwrap();
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
        let units = pscp_media::ts::demux_segment(&s.bytes).unwrap();
        assert!(units.iter().any(|u| matches!(u, TsUnit::Audio { .. })));
        assert!(units.iter().any(|u| matches!(u, TsUnit::Video { .. })));
    }
}
