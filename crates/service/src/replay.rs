//! Replay (VOD) service.
//!
//! §3: "Broadcasts can also be made available for replay." §4 uses the
//! replay flag to show most zero-viewer broadcasts vanish unwatched, and
//! §5.3 measures replay playback power ("Video on (not live)") finding it
//! indistinguishable from live. Replays are served as ended HLS media
//! playlists (`EXT-X-ENDLIST`) over the same CDN; the media is the
//! broadcast's recording, regenerated deterministically from the broadcast
//! seed.

use crate::segmenter::{Segment, Segmenter, SegmenterConfig};
use pscp_media::audio::AudioEncoder;
use pscp_media::content::ContentProcess;
use pscp_media::encoder::{Encoder, EncoderConfig};
use pscp_proto::hls::{MediaPlaylist, SegmentEntry};
use pscp_simnet::{RngFactory, SimDuration, SimTime};
use pscp_workload::broadcast::Broadcast;

/// A materialized replay: an ended playlist plus its segments.
#[derive(Debug)]
pub struct ReplayVod {
    /// The replayed broadcast id.
    pub broadcast_id: pscp_workload::broadcast::BroadcastId,
    /// All segments, in sequence order.
    pub segments: Vec<Segment>,
    /// Total media duration materialized, seconds.
    pub duration_s: f64,
}

impl ReplayVod {
    /// Materializes up to `max_media_s` seconds of a broadcast's recording.
    ///
    /// Returns `None` for broadcasts without a replay (not flagged, or
    /// private — private replays are invisible outside the invite list and
    /// out of the measurement's reach).
    pub fn build(broadcast: &Broadcast, max_media_s: f64, rngs: &RngFactory) -> Option<ReplayVod> {
        if !broadcast.replay_available || broadcast.private {
            return None;
        }
        let mut rng = rngs.child("replay").stream_n("vod", broadcast.id.0);
        let content = ContentProcess::new(broadcast.content, &mut rng);
        let enc_cfg = EncoderConfig {
            fps: broadcast.device.fps(),
            gop: broadcast.device.gop(),
            target_bitrate_bps: broadcast.target_bitrate_bps,
            ..Default::default()
        };
        let fps = enc_cfg.fps;
        let mut encoder = Encoder::new(enc_cfg, content);
        let mut audio = AudioEncoder::new(broadcast.audio);
        // Replays are packaged offline: no live packaging delay.
        let mut segmenter = Segmenter::new(SegmenterConfig {
            packaging_delay: SimDuration::ZERO,
            ..Default::default()
        });
        let media_s = broadcast.duration.as_secs_f64().min(max_media_s);
        let frames = (media_s * fps) as u64;
        let mut next_audio_pts = 0.0;
        for i in 0..frames {
            let t = SimTime::from_micros((i as f64 / fps * 1e6) as u64);
            if let Some(frame) = encoder.next_payload(t.as_secs_f64(), &mut rng) {
                segmenter.push_payload(frame, t);
            }
            while next_audio_pts <= i as f64 * 1000.0 / fps {
                let af = audio.next_frame(&mut rng);
                segmenter.push_audio_fill(af.pts_ms, af.size);
                next_audio_pts += pscp_media::audio::frame_duration_ms();
            }
        }
        segmenter.finish(SimTime::from_secs_f64_approx(media_s));
        let segments: Vec<Segment> = segmenter.segments().to_vec();
        let duration_s = segments.iter().map(|s| s.duration_s).sum();
        Some(ReplayVod { broadcast_id: broadcast.id, segments, duration_s })
    }

    /// The complete VOD playlist.
    pub fn playlist(&self) -> MediaPlaylist {
        let mut pl = MediaPlaylist::new(6);
        for seg in &self.segments {
            pl.push_segment(
                SegmentEntry { duration_s: seg.duration_s, uri: seg.uri() },
                usize::MAX,
            );
        }
        pl.ended = true;
        pl
    }

    /// Looks up a segment by URI.
    pub fn segment_by_uri(&self, uri: &str) -> Option<&Segment> {
        self.segments.get(usize::try_from(Segment::seq_of_uri(uri)?).ok()?)
    }
}

/// Extension helper: SimTime from fractional seconds (approximate, µs grid).
trait FromSecsApprox {
    fn from_secs_f64_approx(s: f64) -> SimTime;
}
impl FromSecsApprox for SimTime {
    fn from_secs_f64_approx(s: f64) -> SimTime {
        SimTime::from_micros((s.max(0.0) * 1e6) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_media::audio::AudioBitrate;
    use pscp_media::content::ContentClass;
    use pscp_simnet::GeoPoint;
    use pscp_workload::broadcast::{BroadcastId, DeviceProfile};

    fn broadcast(replay: bool, private: bool) -> Broadcast {
        Broadcast {
            id: BroadcastId(44),
            location: GeoPoint::new(40.71, -74.01),
            city: "New York",
            start: SimTime::from_secs(10),
            duration: SimDuration::from_secs(120),
            content: ContentClass::Indoor,
            device: DeviceProfile::Modern,
            audio: AudioBitrate::Kbps32,
            avg_viewers: 50.0,
            replay_available: replay,
            private,
            location_public: true,
            viewer_seed: 3,
            target_bitrate_bps: 300_000.0,
        }
    }

    fn bytes(segment: &Segment) -> Vec<u8> {
        let mut out = Vec::new();
        segment.write_into(&mut out);
        out
    }

    #[test]
    fn unflagged_or_private_has_no_replay() {
        let rngs = RngFactory::new(1);
        assert!(ReplayVod::build(&broadcast(false, false), 60.0, &rngs).is_none());
        assert!(ReplayVod::build(&broadcast(true, true), 60.0, &rngs).is_none());
    }

    #[test]
    fn replay_materializes_requested_span() {
        let rngs = RngFactory::new(2);
        let vod = ReplayVod::build(&broadcast(true, false), 60.0, &rngs).unwrap();
        assert!((vod.duration_s - 60.0).abs() < 5.0, "duration={}", vod.duration_s);
        assert!(vod.segments.len() >= 14, "segments={}", vod.segments.len());
    }

    #[test]
    fn short_broadcast_materializes_fully() {
        let rngs = RngFactory::new(3);
        let mut b = broadcast(true, false);
        b.duration = SimDuration::from_secs(20);
        let vod = ReplayVod::build(&b, 300.0, &rngs).unwrap();
        assert!((vod.duration_s - 20.0).abs() < 4.0, "duration={}", vod.duration_s);
    }

    #[test]
    fn playlist_is_ended_and_parses() {
        let rngs = RngFactory::new(4);
        let vod = ReplayVod::build(&broadcast(true, false), 30.0, &rngs).unwrap();
        let pl = vod.playlist();
        assert!(pl.ended);
        assert_eq!(pl.segments.len(), vod.segments.len());
        let text = pl.render();
        let parsed = pscp_proto::hls::MediaPlaylist::parse(&text).unwrap();
        assert!(parsed.ended);
        // Each advertised URI resolves to a demuxable segment.
        for entry in &parsed.segments {
            let seg = vod.segment_by_uri(&entry.uri).unwrap();
            assert!(!pscp_media::ts::demux_segment(&bytes(seg)).unwrap().is_empty());
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let rngs = RngFactory::new(5);
        let a = ReplayVod::build(&broadcast(true, false), 30.0, &rngs).unwrap();
        let b = ReplayVod::build(&broadcast(true, false), 30.0, &rngs).unwrap();
        assert_eq!(a.segments.len(), b.segments.len());
        for (x, y) in a.segments.iter().zip(&b.segments) {
            assert_eq!(bytes(x), bytes(y));
        }
    }
}
