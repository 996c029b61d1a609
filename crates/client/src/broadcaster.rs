//! The broadcaster side of a push (RTMP / SRT) session.
//!
//! The phone captures, encodes and uploads over its glitchy mobile uplink;
//! what the ingest server holds is a timeline of coded frames and audio
//! frames with the instant each one arrived. Frames stay *descriptors*
//! ([`FramePayload`]) here: nothing on this side reads a frame body, so the
//! body is written once, by the transport that packetizes it.

use crate::uplink::{Uplink, UplinkConfig};
use pscp_media::audio::{self, AudioEncoder};
use pscp_media::bitstream::{FrameKind, FramePayload};
use pscp_media::content::ContentProcess;
use pscp_media::encoder::{Encoder, EncoderConfig};
use pscp_simnet::rng::Rng;
use pscp_simnet::{SimDuration, SimTime, WallClock};
use pscp_workload::broadcast::Broadcast;

/// Encode-side latency on the broadcaster phone (capture → packet out).
const ENCODE_LATENCY: SimDuration = SimDuration::from_millis(120);

/// One coded video frame as the ingest server received it.
#[derive(Debug, Clone)]
pub struct IngestFrame {
    /// Capture instant on the broadcaster phone.
    pub t_cap: SimTime,
    /// Arrival at the ingest server.
    pub a_in: SimTime,
    /// The frame, body not yet written.
    pub frame: FramePayload,
}

/// Everything the ingest server received over one session window.
#[derive(Debug, Clone)]
pub struct IngestTimeline {
    /// The broadcaster's frame rate.
    pub fps: f64,
    /// Video frames in capture order.
    pub video: Vec<IngestFrame>,
    /// Audio frames in capture order: (arrival, pts ms, size in bytes).
    pub audio: Vec<(SimTime, u32, usize)>,
}

impl IngestTimeline {
    /// Encodes and uploads `broadcast` over `window`.
    ///
    /// Heap allocations do not grow with the number of frames: both
    /// timelines are sized up front and no frame body is materialised.
    pub fn simulate<R: Rng + ?Sized, C: Rng + ?Sized>(
        broadcast: &Broadcast,
        uplink: &UplinkConfig,
        window: std::ops::Range<SimTime>,
        prop_up: SimDuration,
        broadcaster_clock: &WallClock,
        enc_rng: &mut R,
        clock_rng: &mut C,
    ) -> IngestTimeline {
        let enc_cfg = EncoderConfig {
            fps: broadcast.device.fps(),
            gop: broadcast.device.gop(),
            target_bitrate_bps: broadcast.target_bitrate_bps,
            ..Default::default()
        };
        let fps = enc_cfg.fps;
        let content = ContentProcess::new(broadcast.content, enc_rng);
        let mut encoder = Encoder::new(enc_cfg, content);
        let mut audio_enc = AudioEncoder::new(broadcast.audio);
        let (sim_start, end) = (window.start, window.end);
        let mut uplink = Uplink::draw(uplink, sim_start, end, enc_rng);

        let span_s = end.saturating_since(sim_start).as_secs_f64();
        let total_frames = (span_s * fps) as u64;
        let mut video: Vec<IngestFrame> = Vec::with_capacity(total_frames as usize);
        let mut audio: Vec<(SimTime, u32, usize)> =
            Vec::with_capacity((span_s * 1000.0 / audio::frame_duration_ms()) as usize + 1);
        let mut next_audio_pts = 0.0;
        for i in 0..total_frames {
            let t_cap = sim_start + SimDuration::from_secs_f64(i as f64 / fps);
            let wall = broadcaster_clock.read(t_cap, clock_rng);
            if let Some(frame) = encoder.next_payload(wall, enc_rng) {
                let sent = uplink.upload(t_cap + ENCODE_LATENCY, frame.size);
                video.push(IngestFrame { t_cap, a_in: sent + prop_up, frame });
            }
            // Audio frames tick at their own 23.22 ms cadence.
            while next_audio_pts <= i as f64 * 1000.0 / fps {
                let af = audio_enc.next_frame(enc_rng);
                let t_a = sim_start + SimDuration::from_secs_f64(next_audio_pts / 1000.0);
                let sent = uplink.upload(t_a + ENCODE_LATENCY, af.size);
                audio.push((sent + prop_up, af.pts_ms, af.size));
                next_audio_pts += audio::frame_duration_ms();
            }
        }
        IngestTimeline { fps, video, audio }
    }

    /// Where the server starts replaying for a viewer whose play request
    /// lands at `at`: the latest keyframe already ingested (so playback can
    /// start immediately), else the latest frame of any kind, else 0.
    pub fn replay_start(&self, at: SimTime) -> usize {
        let latest_first = || self.video.iter().enumerate().rev().filter(|(_, f)| f.a_in <= at);
        latest_first()
            .find(|(_, f)| f.frame.kind == FrameKind::I)
            .or_else(|| latest_first().next())
            .map_or(0, |(i, _)| i)
    }
}
