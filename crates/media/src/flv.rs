//! FLV-style audio/video tag bodies — the payload format RTMP message
//! bodies use (Adobe FLV spec §Audio tags / Video tags).
//!
//! The wireshark RTMP dissector the paper used "can extract the audio and
//! video segments"; this module is the packaging those segments travel in:
//! a one-byte video tag header (frame type + codec id), the AVC packet type
//! and composition time, then the coded frame. Composition time is how B
//! frames shift presentation relative to decode order.

use crate::bitstream::{FrameKind, FramePayload};
use pscp_proto::ProtoError;

/// Codec id 7 = AVC in the FLV spec.
const CODEC_AVC: u8 = 7;
/// Audio format 10 = AAC.
const AUDIO_AAC: u8 = 10;

/// A video tag: header info plus the coded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoTag {
    /// Keyframe flag (frame type 1) vs inter frame (2).
    pub keyframe: bool,
    /// Composition time offset in ms (B-frame reorder delay).
    pub composition_ms: i32,
    /// The coded frame payload.
    pub frame: FramePayload,
}

impl VideoTag {
    /// Bytes [`VideoTag::write_header`] puts before the coded frame.
    pub const HEADER_LEN: usize = 5;

    /// Wraps an encoded frame into a tag body.
    pub fn for_frame(frame: FramePayload) -> VideoTag {
        let keyframe = frame.kind == FrameKind::I;
        // One frame of composition delay for B frames (paper §5.2: "one B
        // frame inserts a delay equal to the duration of the frame itself").
        let composition_ms = if frame.kind == FrameKind::B { 33 } else { 0 };
        VideoTag { keyframe, composition_ms, frame }
    }

    /// Encodes the tag body (header + frame bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::HEADER_LEN + self.frame.size);
        Self::write_header(self.keyframe, self.composition_ms, &mut out);
        self.frame.encode_into(&mut out);
        out
    }

    /// Appends just the 5-byte tag header to `out`.
    ///
    /// Hot-path variant: when the coded frame bytes already exist (encoder
    /// output), callers append them after this header instead of paying a
    /// decode→re-encode roundtrip. Byte-identical to [`VideoTag::encode`]
    /// because [`FramePayload::encode`] is deterministic.
    pub fn write_header(keyframe: bool, composition_ms: i32, out: &mut Vec<u8>) {
        let frame_type: u8 = if keyframe { 1 } else { 2 };
        out.push((frame_type << 4) | CODEC_AVC);
        out.push(1); // AVCPacketType = 1 (NALU)
        let ct = composition_ms;
        out.extend_from_slice(&[(ct >> 16) as u8, (ct >> 8) as u8, ct as u8]);
    }

    /// Decodes a tag body.
    pub fn decode(bytes: &[u8]) -> Result<VideoTag, ProtoError> {
        if bytes.len() < 5 {
            return Err(ProtoError::Truncated);
        }
        let frame_type = bytes[0] >> 4;
        let codec = bytes[0] & 0x0F;
        if codec != CODEC_AVC {
            return Err(ProtoError::Malformed(format!("unsupported codec id {codec}")));
        }
        if bytes[1] != 1 {
            return Err(ProtoError::Malformed(format!("unsupported AVC packet type {}", bytes[1])));
        }
        let composition_ms = ((bytes[2] as i32) << 16) | ((bytes[3] as i32) << 8) | bytes[4] as i32;
        let frame = FramePayload::decode(&bytes[5..])?;
        Ok(VideoTag { keyframe: frame_type == 1, composition_ms, frame })
    }
}

/// An audio tag: AAC header byte + payload size (contents are opaque).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AudioTag {
    /// Payload length in bytes (excluding the 2 header bytes).
    pub payload_len: usize,
}

impl AudioTag {
    /// Bytes [`AudioTag::encode_into`] puts before the opaque payload.
    pub const HEADER_LEN: usize = 2;

    /// Encodes an AAC raw-data tag body with `payload_len` opaque bytes.
    pub fn encode(payload_len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::HEADER_LEN + payload_len);
        Self::encode_into(payload_len, &mut out);
        out
    }

    /// Appends the tag body to `out` without allocating.
    pub fn encode_into(payload_len: usize, out: &mut Vec<u8>) {
        // format=AAC(10), rate=3 (44kHz), size=1 (16 bit), type=1 (stereo)
        out.push((AUDIO_AAC << 4) | (3 << 2) | (1 << 1) | 1);
        out.push(1); // AACPacketType = raw
        out.resize(out.len() + payload_len, 0xAA);
    }

    /// Decodes a tag body.
    pub fn decode(bytes: &[u8]) -> Result<AudioTag, ProtoError> {
        if bytes.len() < 2 {
            return Err(ProtoError::Truncated);
        }
        if bytes[0] >> 4 != AUDIO_AAC {
            return Err(ProtoError::Malformed(format!(
                "unsupported audio format {}",
                bytes[0] >> 4
            )));
        }
        Ok(AudioTag { payload_len: bytes.len() - 2 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(kind: FrameKind) -> FramePayload {
        FramePayload { kind, qp: 28, width: 320, height: 568, pts_ms: 500, ntp_s: None, size: 400 }
    }

    #[test]
    fn video_roundtrip_keyframe() {
        let tag = VideoTag::for_frame(frame(FrameKind::I));
        assert!(tag.keyframe);
        assert_eq!(tag.composition_ms, 0);
        let dec = VideoTag::decode(&tag.encode()).unwrap();
        assert_eq!(dec, tag);
    }

    #[test]
    fn video_roundtrip_b_frame_composition() {
        let tag = VideoTag::for_frame(frame(FrameKind::B));
        assert!(!tag.keyframe);
        assert_eq!(tag.composition_ms, 33);
        let dec = VideoTag::decode(&tag.encode()).unwrap();
        assert_eq!(dec.composition_ms, 33);
        assert_eq!(dec.frame.kind, FrameKind::B);
    }

    #[test]
    fn video_rejects_non_avc() {
        let mut enc = VideoTag::for_frame(frame(FrameKind::P)).encode();
        enc[0] = (2 << 4) | 2; // codec id 2 (H.263)
        assert!(VideoTag::decode(&enc).is_err());
    }

    #[test]
    fn video_rejects_truncated() {
        let enc = VideoTag::for_frame(frame(FrameKind::P)).encode();
        assert_eq!(VideoTag::decode(&enc[..3]).unwrap_err(), ProtoError::Truncated);
    }

    #[test]
    fn audio_roundtrip() {
        let enc = AudioTag::encode(93);
        assert_eq!(enc.len(), 95);
        let dec = AudioTag::decode(&enc).unwrap();
        assert_eq!(dec.payload_len, 93);
    }

    #[test]
    fn audio_rejects_non_aac() {
        let mut enc = AudioTag::encode(10);
        enc[0] = 2 << 4; // MP3
        assert!(AudioTag::decode(&enc).is_err());
    }
}
