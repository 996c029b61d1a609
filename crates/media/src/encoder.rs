//! AVC-like video encoder model with QP rate control.
//!
//! §5.2 grounds this module: resolution is always 320×568, frame rate is
//! variable up to 30 fps, bitrate typically lands in 200–400 kbps, and "the
//! so called quantization parameter (QP) is dynamically adjusted" by rate
//! control to hit a target bitrate despite content variability. Frame sizes
//! follow the standard R-Q exponential law: halving bits costs about 6 QP
//! steps. GOP patterns are repeated IBP with an I-frame roughly every 36
//! frames; some broadcaster devices cannot encode B frames (the paper's
//! speculation for the ~20% I/P-only streams).

use crate::bitstream::{FrameKind, FramePayload, HEADER_LEN_NTP};
use crate::content::ContentProcess;
use pscp_simnet::dist;
use pscp_simnet::rng::Rng;

/// GOP structure choices observed in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GopPattern {
    /// Repeated I (B P B)* pattern — the most common encoding.
    Ibp,
    /// I and P frames only (older hardware without B-frame support, ~20%).
    IpOnly,
    /// Intra-only (rare, 2 streams in the paper's dataset; "poor efficiency
    /// coding schemes ... e.g., I-type frames only").
    IOnly,
}

/// Encoder configuration.
#[derive(Debug, Clone)]
pub struct EncoderConfig {
    /// Frame width (always 320 or 568 in Periscope).
    pub width: u16,
    /// Frame height.
    pub height: u16,
    /// Nominal frame rate (frames per second), up to 30.
    pub fps: f64,
    /// Rate-control target in bits/second.
    pub target_bitrate_bps: f64,
    /// GOP pattern.
    pub gop: GopPattern,
    /// Frames between I frames ("After about 36 frames, a new I frame is
    /// inserted").
    pub gop_length: u32,
    /// Probability a captured frame is lost before encoding (upload/encode
    /// glitches; "Occasionally, some frames are missing").
    pub frame_drop_prob: f64,
    /// Interval between embedded NTP timestamps, in frames.
    pub ntp_interval_frames: u32,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            width: 320,
            height: 568,
            fps: 30.0,
            target_bitrate_bps: 300_000.0,
            gop: GopPattern::Ibp,
            gop_length: 36,
            frame_drop_prob: 0.004,
            ntp_interval_frames: 30,
        }
    }
}

/// One encoded video frame.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedFrame {
    /// Presentation timestamp, ms since encoding started.
    pub pts_ms: u32,
    /// Frame type.
    pub kind: FrameKind,
    /// QP chosen by rate control.
    pub qp: u8,
    /// Encoded bytes (parseable [`FramePayload`]).
    pub bytes: Vec<u8>,
}

impl EncodedFrame {
    /// Encoded size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }
}

/// Reference QP of the size model: at `QP_REF` and complexity 1.0 a P frame
/// costs `BASE_P_BITS`.
const QP_REF: f64 = 34.0;
const BASE_P_BITS: f64 = 7200.0;
/// Relative frame costs (I ≈ 5.5×P, B ≈ 0.55×P — typical AVC ratios).
const I_FACTOR: f64 = 5.5;
const B_FACTOR: f64 = 0.55;
/// QP bounds used by mobile encoders.
const QP_MIN: f64 = 14.0;
const QP_MAX: f64 = 46.0;

/// The encoder: drives a content process, chooses frame types from the GOP
/// pattern, and adapts QP to track the target bitrate.
#[derive(Debug, Clone)]
pub struct Encoder {
    config: EncoderConfig,
    content: ContentProcess,
    frame_index: u64,
    qp: f64,
    /// Virtual buffer: bytes produced minus bytes budgeted (leaky-bucket
    /// fullness the controller drains toward zero).
    buffer_bits: f64,
    /// Frames actually emitted (for averaging).
    emitted: u64,
    total_bytes: u64,
    /// Constants of the configuration, computed once: the capture interval,
    /// the rate controller's per-frame budget and the GOP's mean size factor.
    frame_dt_s: f64,
    per_frame_budget: f64,
    avg_factor: f64,
}

impl Encoder {
    /// Creates an encoder over the given content.
    pub fn new(config: EncoderConfig, content: ContentProcess) -> Self {
        assert!(config.fps > 0.0 && config.fps <= 60.0, "fps out of range");
        assert!(config.target_bitrate_bps > 0.0, "target bitrate must be positive");
        assert!(config.gop_length >= 1, "gop length must be >= 1");
        Encoder {
            frame_dt_s: 1.0 / config.fps,
            per_frame_budget: config.target_bitrate_bps / config.fps,
            avg_factor: avg_factor(config.gop),
            config,
            content,
            frame_index: 0,
            qp: 30.0,
            buffer_bits: 0.0,
            emitted: 0,
            total_bytes: 0,
        }
    }

    /// The encoder configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Frame type for position `idx` within the stream.
    fn frame_kind(&self, idx: u64) -> FrameKind {
        let pos = (idx % self.config.gop_length as u64) as u32;
        if pos == 0 {
            return FrameKind::I;
        }
        match self.config.gop {
            GopPattern::IOnly => FrameKind::I,
            GopPattern::IpOnly => FrameKind::P,
            GopPattern::Ibp => {
                if pos % 2 == 1 {
                    FrameKind::B
                } else {
                    FrameKind::P
                }
            }
        }
    }

    /// Encodes the next captured frame. Returns `None` when the frame was
    /// dropped (capture/encode glitch) — the paper's missing frames needing
    /// concealment.
    ///
    /// `wall_clock_s` is the broadcaster's wall-clock reading at capture
    /// time; it is embedded every `ntp_interval_frames` frames.
    pub fn next_frame<R: Rng + ?Sized>(
        &mut self,
        wall_clock_s: f64,
        rng: &mut R,
    ) -> Option<EncodedFrame> {
        let p = self.next_payload(wall_clock_s, rng)?;
        Some(EncodedFrame { pts_ms: p.pts_ms, kind: p.kind, qp: p.qp, bytes: p.encode() })
    }

    /// [`Encoder::next_frame`] without the body: every coding decision (and
    /// every RNG draw) is made, but the frame stays a descriptor — its bytes
    /// are [`FramePayload::encode_into`], written by whoever packetizes it.
    pub fn next_payload<R: Rng + ?Sized>(
        &mut self,
        wall_clock_s: f64,
        rng: &mut R,
    ) -> Option<FramePayload> {
        self.next_payload_with(|| wall_clock_s, rng)
    }

    /// [`Encoder::next_payload`] for a broadcaster whose clock costs
    /// something to read: `wall_clock_s` is called only for a frame that
    /// embeds the reading — one in `ntp_interval_frames`, if not dropped.
    pub fn next_payload_with<R: Rng + ?Sized>(
        &mut self,
        wall_clock_s: impl FnOnce() -> f64,
        rng: &mut R,
    ) -> Option<FramePayload> {
        let idx = self.frame_index;
        self.frame_index += 1;
        self.content.step(self.frame_dt_s, rng);
        if dist::coin(rng, self.config.frame_drop_prob) {
            return None;
        }
        let kind = self.frame_kind(idx);
        // --- rate control: pick QP before encoding the frame ---
        let per_frame_budget = self.per_frame_budget;
        // Feedback: one full budget of backlog pushes QP up by ~4 steps.
        let pressure = (self.buffer_bits / (per_frame_budget * 8.0)).clamp(-2.0, 2.0);
        // Feedforward: encode the complexity into the operating point, so
        // complex content runs at higher QP (the R-Q tradeoff).
        let complexity = self.content.complexity();
        let ff =
            QP_REF + 6.0 * (complexity * BASE_P_BITS * self.avg_factor / per_frame_budget).log2();
        let target_qp = ff + 4.0 * pressure;
        // Encoders move QP gradually (smoothing window of a few frames).
        self.qp += (target_qp - self.qp).clamp(-2.0, 2.0);
        self.qp = self.qp.clamp(QP_MIN, QP_MAX);
        let qp_int = self.qp.round().clamp(0.0, 51.0) as u8;
        // --- size model ---
        let factor = match kind {
            FrameKind::I => I_FACTOR,
            FrameKind::P => 1.0,
            FrameKind::B => B_FACTOR,
        };
        let mean_bits = BASE_P_BITS * factor * complexity * 2f64.powf((QP_REF - self.qp) / 6.0);
        // Per-frame noise: residual content detail the model can't see.
        let bits = mean_bits * dist::lognormal(rng, 0.0, 0.13);
        let min_bytes = HEADER_LEN_NTP + 8;
        let size = ((bits / 8.0).round() as usize).max(min_bytes);
        self.buffer_bits += size as f64 * 8.0 - per_frame_budget;
        // Drain the buffer stat slowly so old deviations stop mattering.
        self.buffer_bits *= 0.995;
        let ntp = idx.is_multiple_of(self.config.ntp_interval_frames as u64).then(wall_clock_s);
        let pts_ms = (idx as f64 * 1000.0 / self.config.fps).round() as u32;
        self.emitted += 1;
        self.total_bytes += size as u64;
        Some(FramePayload {
            kind,
            qp: qp_int,
            width: self.config.width,
            height: self.config.height,
            pts_ms,
            ntp_s: ntp,
            size,
        })
    }

    /// Average output bitrate so far, bits/second.
    pub fn average_bitrate_bps(&self) -> f64 {
        if self.frame_index == 0 {
            return 0.0;
        }
        let seconds = self.frame_index as f64 / self.config.fps;
        self.total_bytes as f64 * 8.0 / seconds
    }
}

/// Average per-frame size factor of a GOP pattern relative to a P frame.
fn avg_factor(gop: GopPattern) -> f64 {
    match gop {
        GopPattern::IOnly => I_FACTOR,
        GopPattern::IpOnly => (I_FACTOR + 35.0) / 36.0,
        GopPattern::Ibp => (I_FACTOR + 17.0 + 18.0 * B_FACTOR) / 36.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::{ContentClass, ContentProcess};
    use pscp_simnet::RngFactory;

    fn encoder(
        class: ContentClass,
        config: EncoderConfig,
        seed: u64,
    ) -> (Encoder, pscp_simnet::rng::CounterRng) {
        let f = RngFactory::new(seed);
        let mut rng = f.stream("enc-test");
        let content = ContentProcess::new(class, &mut rng);
        (Encoder::new(config, content), rng)
    }

    fn run(
        enc: &mut Encoder,
        rng: &mut pscp_simnet::rng::CounterRng,
        n: usize,
    ) -> Vec<EncodedFrame> {
        (0..n).filter_map(|i| enc.next_frame(i as f64 / 30.0, rng)).collect()
    }

    #[test]
    fn gop_pattern_ibp() {
        let (enc, _) = encoder(ContentClass::Indoor, EncoderConfig::default(), 1);
        assert_eq!(enc.frame_kind(0), FrameKind::I);
        assert_eq!(enc.frame_kind(1), FrameKind::B);
        assert_eq!(enc.frame_kind(2), FrameKind::P);
        assert_eq!(enc.frame_kind(3), FrameKind::B);
        assert_eq!(enc.frame_kind(36), FrameKind::I);
    }

    #[test]
    fn gop_pattern_ip_only_has_no_b() {
        let cfg = EncoderConfig { gop: GopPattern::IpOnly, ..Default::default() };
        let (mut enc, mut rng) = encoder(ContentClass::Indoor, cfg, 2);
        let frames = run(&mut enc, &mut rng, 200);
        assert!(frames.iter().all(|f| f.kind != FrameKind::B));
        assert!(frames.iter().any(|f| f.kind == FrameKind::I));
        assert!(frames.iter().any(|f| f.kind == FrameKind::P));
    }

    #[test]
    fn gop_pattern_i_only() {
        let cfg = EncoderConfig { gop: GopPattern::IOnly, ..Default::default() };
        let (mut enc, mut rng) = encoder(ContentClass::StaticTalk, cfg, 3);
        let frames = run(&mut enc, &mut rng, 100);
        assert!(frames.iter().all(|f| f.kind == FrameKind::I));
    }

    #[test]
    fn rate_control_tracks_target() {
        for class in [ContentClass::StaticTalk, ContentClass::SportsTv] {
            let (mut enc, mut rng) = encoder(class, EncoderConfig::default(), 4);
            run(&mut enc, &mut rng, 3600); // 2 minutes
            let rate = enc.average_bitrate_bps();
            assert!((rate - 300_000.0).abs() < 120_000.0, "class {class:?}: rate {rate}");
        }
    }

    #[test]
    fn complex_content_runs_higher_qp() {
        let (mut e1, mut r1) = encoder(ContentClass::StaticTalk, EncoderConfig::default(), 5);
        let (mut e2, mut r2) = encoder(ContentClass::SportsTv, EncoderConfig::default(), 5);
        let f1 = run(&mut e1, &mut r1, 1800);
        let f2 = run(&mut e2, &mut r2, 1800);
        let qp1: f64 = f1.iter().map(|f| f.qp as f64).sum::<f64>() / f1.len() as f64;
        let qp2: f64 = f2.iter().map(|f| f.qp as f64).sum::<f64>() / f2.len() as f64;
        assert!(qp2 > qp1 + 3.0, "talk qp={qp1} sports qp={qp2}");
    }

    #[test]
    fn i_frames_bigger_than_p_bigger_than_b() {
        let (mut enc, mut rng) = encoder(ContentClass::Indoor, EncoderConfig::default(), 6);
        let frames = run(&mut enc, &mut rng, 1800);
        let avg = |k: FrameKind| {
            let xs: Vec<f64> =
                frames.iter().filter(|f| f.kind == k).map(|f| f.size() as f64).collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        assert!(avg(FrameKind::I) > 2.0 * avg(FrameKind::P));
        assert!(avg(FrameKind::P) > avg(FrameKind::B));
    }

    #[test]
    fn frames_decode_back() {
        let (mut enc, mut rng) = encoder(ContentClass::Outdoor, EncoderConfig::default(), 7);
        for f in run(&mut enc, &mut rng, 120) {
            let p = FramePayload::decode(&f.bytes).unwrap();
            assert_eq!(p.kind, f.kind);
            assert_eq!(p.qp, f.qp);
            assert_eq!(p.width, 320);
            assert_eq!(p.height, 568);
            assert_eq!(p.size, f.size());
        }
    }

    #[test]
    fn ntp_embedded_periodically() {
        let (mut enc, mut rng) = encoder(ContentClass::Indoor, EncoderConfig::default(), 8);
        let frames = run(&mut enc, &mut rng, 300);
        let with_ntp = frames
            .iter()
            .filter(|f| FramePayload::decode(&f.bytes).unwrap().ntp_s.is_some())
            .count();
        // Every 30th frame (minus drops): roughly 10 in 300.
        assert!((8..=12).contains(&with_ntp), "with_ntp={with_ntp}");
    }

    #[test]
    fn drops_happen_at_configured_rate() {
        let cfg = EncoderConfig { frame_drop_prob: 0.05, ..Default::default() };
        let (mut enc, mut rng) = encoder(ContentClass::Indoor, cfg, 9);
        let n = 4000;
        let emitted = run(&mut enc, &mut rng, n).len();
        let drop_rate = 1.0 - emitted as f64 / n as f64;
        assert!((drop_rate - 0.05).abs() < 0.02, "drop_rate={drop_rate}");
    }

    #[test]
    fn pts_advances_at_fps() {
        let (mut enc, mut rng) = encoder(ContentClass::Indoor, EncoderConfig::default(), 10);
        let frames = run(&mut enc, &mut rng, 61);
        // ~30 fps: pts of frame 60 is about 2000 ms.
        let last = frames.last().unwrap();
        assert!(last.pts_ms >= 1900 && last.pts_ms <= 2000, "pts={}", last.pts_ms);
    }

    #[test]
    fn qp_stays_in_bounds() {
        for class in ContentClass::ALL {
            let (mut enc, mut rng) = encoder(class, EncoderConfig::default(), 11);
            for f in run(&mut enc, &mut rng, 600) {
                assert!((QP_MIN as u8..=QP_MAX as u8).contains(&f.qp), "qp={}", f.qp);
            }
        }
    }

    #[test]
    fn bitrate_in_paper_range_across_classes() {
        // Fig 6a: typical bitrates 200-400 kbps.
        let mut in_range = 0;
        let mut total = 0;
        for (i, class) in ContentClass::ALL.iter().enumerate() {
            for seed in 0..4 {
                let (mut enc, mut rng) =
                    encoder(*class, EncoderConfig::default(), 100 + i as u64 * 10 + seed);
                run(&mut enc, &mut rng, 1800);
                total += 1;
                let r = enc.average_bitrate_bps();
                if (150_000.0..=450_000.0).contains(&r) {
                    in_range += 1;
                }
            }
        }
        assert!(in_range as f64 / total as f64 > 0.8, "{in_range}/{total} in range");
    }
}
