//! The broadcaster side of a session.
//!
//! The phone (`Phone`) captures, encodes and uploads over its glitchy
//! mobile uplink. For the two push transports (RTMP / SRT) what the ingest
//! server holds is an [`IngestTimeline`]: coded frames and audio frames with
//! the instant each one arrived. Frames stay *descriptors*
//! ([`FramePayload`]) here: nothing on this side reads a frame body, so the
//! body is written once, by the transport that packetizes it. (HLS drives
//! the same phone but feeds its segmenter in capture-slot order and keeps
//! audio off the uplink, so it runs its own capture loop — DESIGN.md §16.)

use crate::uplink::{Uplink, UplinkConfig};
use pscp_media::audio::{self, AudioEncoder};
use pscp_media::bitstream::{FrameKind, FramePayload};
use pscp_media::content::ContentProcess;
use pscp_media::encoder::{Encoder, EncoderConfig};
use pscp_simnet::rng::{CounterRng, Rng};
use pscp_simnet::{SimDuration, SimTime, WallClock};
use pscp_workload::broadcast::Broadcast;

/// Encode-side latency on the broadcaster phone (capture → packet out).
pub(crate) const ENCODE_LATENCY: SimDuration = SimDuration::from_millis(120);

/// The broadcasting phone over one session window: its encoders and the
/// uplink it uploads through.
pub(crate) struct Phone {
    /// Frame rate of the camera.
    pub fps: f64,
    /// Video encoder over the broadcast's content process.
    pub encoder: Encoder,
    /// Audio encoder.
    pub audio: AudioEncoder,
    /// The uplink, glitches drawn for the whole window.
    pub uplink: Uplink,
}

impl Phone {
    /// The phone of `broadcast` over `window`: the content process, then
    /// the uplink glitches, are drawn from `enc_rng` in that order.
    pub fn new<R: Rng + ?Sized>(
        broadcast: &Broadcast,
        uplink: &UplinkConfig,
        window: &std::ops::Range<SimTime>,
        enc_rng: &mut R,
    ) -> Phone {
        let enc_cfg = EncoderConfig {
            fps: broadcast.device.fps(),
            gop: broadcast.device.gop(),
            target_bitrate_bps: broadcast.target_bitrate_bps,
            ..Default::default()
        };
        let fps = enc_cfg.fps;
        let content = ContentProcess::new(broadcast.content, enc_rng);
        Phone {
            fps,
            encoder: Encoder::new(enc_cfg, content),
            audio: AudioEncoder::new(broadcast.audio),
            uplink: Uplink::draw(uplink, window.start, window.end, enc_rng),
        }
    }
}

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
    /// timelines are sized up front and no frame body is materialised. The
    /// phone reads its clock at every capture, but the encoder embeds one
    /// reading in `ntp_interval_frames`: the others only take their place in
    /// `clock_rng` ([`WallClock::defer`]).
    pub fn simulate<R: Rng + ?Sized>(
        broadcast: &Broadcast,
        uplink: &UplinkConfig,
        window: std::ops::Range<SimTime>,
        prop_up: SimDuration,
        broadcaster_clock: &WallClock,
        enc_rng: &mut R,
        clock_rng: &mut CounterRng,
    ) -> IngestTimeline {
        let Phone { fps, mut encoder, audio: mut audio_enc, mut uplink } =
            Phone::new(broadcast, uplink, &window, enc_rng);
        let (sim_start, end) = (window.start, window.end);

        let span_s = end.saturating_since(sim_start).as_secs_f64();
        let total_frames = (span_s * fps) as u64;
        let mut video: Vec<IngestFrame> = Vec::with_capacity(total_frames as usize);
        let mut audio: Vec<(SimTime, u32, usize)> =
            Vec::with_capacity((span_s * 1000.0 / audio::frame_duration_ms()) as usize + 1);
        let mut next_audio_pts = 0.0;
        for i in 0..total_frames {
            let t_cap = sim_start + SimDuration::from_secs_f64(i as f64 / fps);
            let mut reading = broadcaster_clock.defer(clock_rng);
            let wall = || broadcaster_clock.read(t_cap, &mut reading);
            if let Some(frame) = encoder.next_payload_with(wall, enc_rng) {
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
