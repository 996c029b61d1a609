//! Video-quality and latency analysis over reconstructed captures — the
//! libav/wireshark post-processing stage of the paper (§2, §5.2).
//!
//! Everything here consumes *wire bytes* out of a [`crate::capture::Flow`],
//! never simulator ground truth: RTMP flows are de-chunked with the real
//! dechunker, HLS flows are split into HTTP responses and TS-demuxed. The
//! statistics computed match the paper's: average bitrate, average QP,
//! frame-type pattern, I-frame interval, frame rate, HLS segment durations,
//! and NTP-based delivery-latency samples.

use crate::bitstream::{FrameKind, FramePayload};
use crate::capture::Flow;
use crate::flv::VideoTag;
use crate::ts;
use pscp_proto::http::{find_subsequence, Response};
use pscp_proto::rtmp::{Dechunker, MessageType};
use pscp_proto::ProtoError;

/// GOP classification as reported in §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GopClass {
    /// Uses I, P and B frames (the "repeated IBP scheme").
    Ibp,
    /// I and P only (20.0% RTMP / 18.4% HLS in the paper).
    IpOnly,
    /// I frames only (2 streams in the paper).
    IOnly,
}

/// Analysis of one reconstructed video stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Number of video frames recovered.
    pub n_frames: usize,
    /// Average video bitrate over the stream, bits/second.
    pub bitrate_bps: f64,
    /// Mean QP across frames.
    pub avg_qp: f64,
    /// Observed frame rate, frames/second.
    pub fps: f64,
    /// GOP classification.
    pub gop: GopClass,
    /// Mean distance between consecutive I frames, in frames.
    pub i_interval: f64,
    /// Video width (px).
    pub width: u16,
    /// Video height (px).
    pub height: u16,
    /// Delivery-latency samples: capture wall timestamp minus embedded NTP
    /// timestamp, seconds. May contain small negatives (imperfect sync).
    pub delivery_latency_samples: Vec<f64>,
    /// HLS only: per-segment durations in seconds (PTS span per segment).
    pub segment_durations_s: Vec<f64>,
    /// Mean audio bitrate, bits/second, when audio was recovered.
    pub audio_bitrate_bps: Option<f64>,
}

impl StreamReport {
    /// Mean delivery latency, if any samples were recovered.
    pub fn mean_delivery_latency_s(&self) -> Option<f64> {
        if self.delivery_latency_samples.is_empty() {
            return None;
        }
        Some(
            self.delivery_latency_samples.iter().sum::<f64>()
                / self.delivery_latency_samples.len() as f64,
        )
    }
}

/// Builds a report from recovered frames and their byte offsets in the flow.
fn report_from_frames(
    frames: &[(usize, FramePayload)],
    flow: &Flow,
    segment_durations_s: Vec<f64>,
    audio: &[(u32, usize)],
) -> Result<StreamReport, ProtoError> {
    if frames.is_empty() {
        return Err(ProtoError::Protocol("no video frames recovered".to_string()));
    }
    let n = frames.len();
    let total_bytes: usize = frames.iter().map(|(_, f)| f.size).sum();
    let pts_min = frames.iter().map(|(_, f)| f.pts_ms).min().expect("non-empty");
    let pts_max = frames.iter().map(|(_, f)| f.pts_ms).max().expect("non-empty");
    let span_s = ((pts_max - pts_min) as f64 / 1000.0).max(1e-3);
    let avg_qp = frames.iter().map(|(_, f)| f.qp as f64).sum::<f64>() / n as f64;
    let has_b = frames.iter().any(|(_, f)| f.kind == FrameKind::B);
    let has_p = frames.iter().any(|(_, f)| f.kind == FrameKind::P);
    let gop = if has_b {
        GopClass::Ibp
    } else if has_p {
        GopClass::IpOnly
    } else {
        GopClass::IOnly
    };
    // Mean I-frame spacing in frames.
    let i_positions: Vec<usize> = frames
        .iter()
        .enumerate()
        .filter(|(_, (_, f))| f.kind == FrameKind::I)
        .map(|(i, _)| i)
        .collect();
    let i_interval = if i_positions.len() >= 2 {
        let gaps: Vec<f64> = i_positions.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        gaps.iter().sum::<f64>() / gaps.len() as f64
    } else {
        n as f64
    };
    // Delivery latency: for each frame with an embedded NTP timestamp, find
    // the wall timestamp of the packet that carried its first byte.
    let mut delivery = Vec::new();
    for (offset, f) in frames {
        if let Some(ntp) = f.ntp_s {
            if let Some(wall) = flow.wall_ts_at_byte(*offset) {
                delivery.push(wall - ntp);
            }
        }
    }
    // Audio bitrate over the audio PTS span, when enough frames exist.
    let audio_bitrate_bps = if audio.len() >= 10 {
        let lo = audio.iter().map(|&(pts, _)| pts).min().expect("non-empty");
        let hi = audio.iter().map(|&(pts, _)| pts).max().expect("non-empty");
        let span = ((hi - lo) as f64 / 1000.0).max(1e-3);
        let bytes: usize = audio.iter().map(|&(_, b)| b).sum();
        Some(bytes as f64 * 8.0 / span)
    } else {
        None
    };
    Ok(StreamReport {
        n_frames: n,
        bitrate_bps: total_bytes as f64 * 8.0 / span_s,
        avg_qp,
        fps: n as f64 / span_s,
        gop,
        i_interval,
        width: frames[0].1.width,
        height: frames[0].1.height,
        delivery_latency_samples: delivery,
        segment_durations_s,
        audio_bitrate_bps,
    })
}

/// Analyzes an RTMP flow: de-chunk, pull video messages, decode FLV tags.
pub fn analyze_rtmp_flow(flow: &Flow) -> Result<StreamReport, ProtoError> {
    let mut dechunker = Dechunker::new();
    // Byte offset where each message's payload *starts* is approximated by
    // tracking consumed length per message; the dechunker does not expose
    // offsets, so feed packet-by-packet and attribute each completed message
    // to the stream position reached when it completed. That is exactly the
    // packet whose arrival completed the message — the right timestamp for
    // latency purposes.
    let mut frames: Vec<(usize, FramePayload)> = Vec::new();
    let mut audio: Vec<(u32, usize)> = Vec::new();
    let mut consumed = 0usize;
    for payload in flow.payloads() {
        dechunker.feed(&payload.bytes())?;
        consumed += payload.len();
        while let Some(msg) = dechunker.next_view() {
            match msg.kind {
                MessageType::Video => {
                    let tag = VideoTag::decode(msg.payload)?;
                    frames.push((consumed.saturating_sub(1), tag.frame));
                }
                MessageType::Audio => {
                    let tag = crate::flv::AudioTag::decode(msg.payload)?;
                    audio.push((msg.timestamp, tag.payload_len));
                }
                _ => {}
            }
        }
    }
    frames.sort_by_key(|(_, f)| f.pts_ms);
    report_from_frames(&frames, flow, Vec::new(), &audio)
}

/// Analyzes an HLS flow: split the byte stream into HTTP responses, demux
/// each `video/mp2t` body, decode the frames.
pub fn analyze_hls_flow(flow: &Flow) -> Result<StreamReport, ProtoError> {
    let stream = flow.byte_stream();
    let mut demux = ts::TsDemuxer::new();
    let mut frames: Vec<(usize, FramePayload)> = Vec::new();
    let mut audio: Vec<(u32, usize)> = Vec::new();
    let mut segment_durations = Vec::new();
    let mut pos = 0usize;
    while pos < stream.len() {
        let rest = &stream[pos..];
        let header_end = find_subsequence(rest, b"\r\n\r\n").ok_or(ProtoError::Truncated)?;
        // Parse headers to find the content length, then slice the message.
        let head = &rest[..header_end + 4];
        let head_text = std::str::from_utf8(head)
            .map_err(|_| ProtoError::Malformed("non-UTF-8 HTTP header".to_string()))?;
        let cl = head_text
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.trim().eq_ignore_ascii_case("content-length").then(|| value.trim())
            })
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| ProtoError::Malformed("missing content-length".to_string()))?;
        let total = header_end + 4 + cl;
        if rest.len() < total {
            return Err(ProtoError::Truncated);
        }
        let resp = Response::decode(&rest[..total])?;
        let body_start = pos + header_end + 4;
        if resp.get_header("content-type") == Some("video/mp2t") && resp.status == 200 {
            demux.reset();
            demux.push(&resp.body)?;
            demux.finish()?;
            let mut seg_pts: Vec<u32> = Vec::new();
            // Frame byte offsets inside the body: recover per-unit offsets by
            // re-scanning is overkill; attribute all frames of a segment to
            // the segment body's position (HLS arrives segment-at-a-time, so
            // sub-segment timing is not meaningful for delivery latency).
            for unit in demux.units() {
                if unit.video {
                    let f = FramePayload::decode(unit.data)?;
                    seg_pts.push(f.pts_ms);
                    frames.push((body_start, f));
                } else {
                    audio.push((unit.pts_ms, unit.data.len()));
                }
            }
            if seg_pts.len() >= 2 {
                let span = (*seg_pts.iter().max().expect("nonempty") as f64
                    - *seg_pts.iter().min().expect("nonempty") as f64)
                    / 1000.0;
                // Add one frame duration: PTS span undercounts by one frame.
                let dur = span * seg_pts.len() as f64 / (seg_pts.len() - 1) as f64;
                segment_durations.push(dur);
            }
        }
        pos += total;
    }
    frames.sort_by_key(|(_, f)| f.pts_ms);
    report_from_frames(&frames, flow, segment_durations, &audio)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::FlowKind;
    use crate::content::{ContentClass, ContentProcess};
    use crate::encoder::{Encoder, EncoderConfig, GopPattern};
    use crate::flv::VideoTag;
    use crate::ts::{TsMuxer, TsUnit};
    use pscp_proto::rtmp::{Chunker, Message};
    use pscp_simnet::{RngFactory, SimTime};

    /// Builds an RTMP flow carrying `secs` seconds of encoded video, one
    /// packet per ~1448 bytes, arriving with the given delivery delay.
    fn rtmp_flow(secs: usize, delay_s: f64, gop: GopPattern, seed: u64) -> Flow {
        let f = RngFactory::new(seed);
        let mut rng = f.stream("flowgen");
        let content = ContentProcess::new(ContentClass::Indoor, &mut rng);
        let cfg = EncoderConfig { gop, frame_drop_prob: 0.0, ..Default::default() };
        let mut enc = Encoder::new(cfg, content);
        let mut chunker = Chunker::new();
        let mut flow = Flow::new(FlowKind::Rtmp, "ec2-test");
        let mut wire = Vec::new();
        for i in 0..secs * 30 {
            let capture_wall = i as f64 / 30.0;
            if let Some(frame) = enc.next_frame(capture_wall, &mut rng) {
                let tag = VideoTag::for_frame(
                    crate::bitstream::FramePayload::decode(&frame.bytes).unwrap(),
                );
                let msg = Message::video(frame.pts_ms, tag.encode());
                chunker.write(&msg, &mut wire);
            }
        }
        // Packetize: packet carrying pts t arrives at t + delay.
        let mut sent = 0usize;
        for chunk in wire.chunks(1448) {
            let frac = sent as f64 / wire.len() as f64;
            let t = frac * secs as f64 + delay_s;
            flow.record(SimTime::from_secs_f64_test(t), t, chunk);
            sent += chunk.len();
        }
        flow
    }

    // Helper for tests: SimTime from fractional seconds.
    trait FromF64 {
        fn from_secs_f64_test(s: f64) -> SimTime;
    }
    impl FromF64 for SimTime {
        fn from_secs_f64_test(s: f64) -> SimTime {
            SimTime::from_micros((s.max(0.0) * 1e6) as u64)
        }
    }

    #[test]
    fn rtmp_report_recovers_encoder_parameters() {
        let flow = rtmp_flow(30, 0.2, GopPattern::Ibp, 42);
        let report = analyze_rtmp_flow(&flow).unwrap();
        assert_eq!(report.width, 320);
        assert_eq!(report.height, 568);
        assert_eq!(report.gop, GopClass::Ibp);
        assert!((report.fps - 30.0).abs() < 2.0, "fps={}", report.fps);
        assert!((report.i_interval - 36.0).abs() < 2.0, "i_interval={}", report.i_interval);
        assert!(
            (150_000.0..500_000.0).contains(&report.bitrate_bps),
            "bitrate={}",
            report.bitrate_bps
        );
        assert!((14.0..=46.0).contains(&report.avg_qp), "qp={}", report.avg_qp);
    }

    #[test]
    fn rtmp_delivery_latency_recovered() {
        let flow = rtmp_flow(30, 0.25, GopPattern::Ibp, 43);
        let report = analyze_rtmp_flow(&flow).unwrap();
        assert!(!report.delivery_latency_samples.is_empty());
        let mean = report.mean_delivery_latency_s().unwrap();
        // The flow generator delivers with 0.25 s delay; chunk-granularity
        // packetization adds slack in both directions.
        assert!((mean - 0.25).abs() < 0.3, "mean latency {mean}");
    }

    #[test]
    fn rtmp_ip_only_classified() {
        let flow = rtmp_flow(10, 0.1, GopPattern::IpOnly, 44);
        let report = analyze_rtmp_flow(&flow).unwrap();
        assert_eq!(report.gop, GopClass::IpOnly);
    }

    #[test]
    fn rtmp_i_only_classified() {
        let flow = rtmp_flow(5, 0.1, GopPattern::IOnly, 45);
        let report = analyze_rtmp_flow(&flow).unwrap();
        assert_eq!(report.gop, GopClass::IOnly);
    }

    #[test]
    fn empty_flow_is_error() {
        let flow = Flow::new(FlowKind::Rtmp, "ec2-x");
        assert!(analyze_rtmp_flow(&flow).is_err());
    }

    /// Builds an HLS flow: HTTP responses each carrying a TS segment of
    /// `seg_frames` frames.
    fn hls_flow(n_segments: usize, seg_frames: usize, seed: u64) -> Flow {
        let f = RngFactory::new(seed);
        let mut rng = f.stream("hlsgen");
        let content = ContentProcess::new(ContentClass::Indoor, &mut rng);
        let cfg = EncoderConfig { frame_drop_prob: 0.0, ..Default::default() };
        let mut enc = Encoder::new(cfg, content);
        let mut mux = TsMuxer::new();
        let mut flow = Flow::new(FlowKind::HlsHttp, "fastly-eu");
        let mut t = 5.0; // HLS arrives seconds later than capture start
        for _ in 0..n_segments {
            let mut units = Vec::new();
            for i in 0..seg_frames {
                let wall = i as f64 / 30.0;
                if let Some(frame) = enc.next_frame(wall, &mut rng) {
                    units.push(TsUnit::Video { pts_ms: frame.pts_ms, data: frame.bytes });
                }
            }
            let seg = mux.mux_segment(&units);
            let resp = pscp_proto::http::Response::ok_bytes("video/mp2t", seg);
            flow.record(SimTime::from_secs_f64_test(t), t, &resp.encode());
            t += seg_frames as f64 / 30.0;
        }
        flow
    }

    #[test]
    fn hls_report_segment_durations() {
        // 108 frames per segment at 30 fps = 3.6 s, the paper's modal
        // segment duration.
        let flow = hls_flow(5, 108, 50);
        let report = analyze_hls_flow(&flow).unwrap();
        assert_eq!(report.segment_durations_s.len(), 5);
        for d in &report.segment_durations_s {
            assert!((d - 3.6).abs() < 0.1, "duration={d}");
        }
        assert_eq!(report.n_frames, 5 * 108);
        assert_eq!(report.gop, GopClass::Ibp);
    }

    #[test]
    fn hls_delivery_latency_larger() {
        let flow = hls_flow(4, 108, 51);
        let report = analyze_hls_flow(&flow).unwrap();
        let mean = report.mean_delivery_latency_s().unwrap();
        // Segments were recorded starting at t=5 while frames carry capture
        // wall clocks starting at 0: several seconds of delivery latency.
        assert!(mean > 2.0, "mean={mean}");
    }

    #[test]
    fn hls_truncated_response_is_error() {
        let flow = hls_flow(2, 60, 52);
        let mut cut = Flow::new(FlowKind::HlsHttp, "fastly-eu");
        let stream = flow.byte_stream();
        cut.record(SimTime::ZERO, 0.0, &stream[..stream.len() - 5]);
        assert!(analyze_hls_flow(&cut).is_err());
    }

    #[test]
    fn hls_ignores_non_ts_responses() {
        // A playlist response interleaved with segments is skipped.
        let mut flow = hls_flow(2, 60, 53);
        let playlist = pscp_proto::http::Response::ok_bytes(
            "application/vnd.apple.mpegurl",
            b"#EXTM3U\n#EXT-X-TARGETDURATION:4\n".to_vec(),
        );
        // Append at end so offsets of earlier segments are unchanged.
        let last_t = flow.packets().next_back().unwrap().wall_ts + 1.0;
        flow.record(SimTime::from_secs_f64_test(last_t), last_t, &playlist.encode());
        let report = analyze_hls_flow(&flow).unwrap();
        assert_eq!(report.segment_durations_s.len(), 2);
    }
}
