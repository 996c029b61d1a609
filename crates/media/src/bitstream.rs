//! The model video bitstream: a self-describing frame payload.
//!
//! The paper's analysis extracts frame types, QP and timestamps from real
//! H.264 with libav. A full H.264 entropy codec is out of scope *and not
//! load-bearing*: what the experiments need is that the bytes on the wire
//! carry (a) realistic sizes and (b) recoverable coding metadata. This
//! module defines that format — think of it as "H.264 slice header + SEI,
//! without the entropy-coded residual":
//!
//! ```text
//! magic    u16   0x5041 ("PA")
//! kind     u8    0=I, 1=P, 2=B
//! qp       u8    0..=51
//! width    u16   BE
//! height   u16   BE
//! pts_ms   u32   BE, capture timestamp
//! flags    u8    bit0 = NTP timestamp present
//! ntp      f64   BE seconds (only if flag set) — the paper's §5.1
//!                "broadcasting client regularly embeds an NTP timestamp
//!                into the video data"
//! filler   [u8]  padding to the encoder-chosen frame size
//! ```
//!
//! Every byte after the header is deterministic filler — the frame-filler
//! generator ([`pscp_proto::filler`]) seeded from `pts_ms` — so the *size*
//! of the frame, the quantity all bitrate figures derive from, is exactly
//! what the encoder's rate controller chose, and the filler is a
//! [`Filler`] a writer can describe instead of writing out.

use pscp_proto::filler::{Filler, Sink};
use pscp_proto::ProtoError;

/// Frame type, in coding order semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Intra frame.
    I,
    /// Predicted frame.
    P,
    /// Bi-predicted frame (adds one frame of latency; ~80% of streams use
    /// them, §5.2).
    B,
}

impl FrameKind {
    fn id(self) -> u8 {
        match self {
            FrameKind::I => 0,
            FrameKind::P => 1,
            FrameKind::B => 2,
        }
    }

    fn from_id(id: u8) -> Result<Self, ProtoError> {
        Ok(match id {
            0 => FrameKind::I,
            1 => FrameKind::P,
            2 => FrameKind::B,
            other => return Err(ProtoError::Malformed(format!("bad frame kind {other}"))),
        })
    }
}

const MAGIC: u16 = 0x5041;
/// Fixed header length without the optional NTP field.
pub const HEADER_LEN: usize = 13;
/// Header length with the NTP field.
pub const HEADER_LEN_NTP: usize = HEADER_LEN + 8;

/// A frame's header bytes ([`FramePayload::head`]), held inline.
#[derive(Debug, Clone, Copy)]
pub struct FrameHead {
    bytes: [u8; HEADER_LEN_NTP],
    len: u8,
}

impl std::ops::Deref for FrameHead {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

/// A decoded frame payload.
#[derive(Debug, Clone, PartialEq)]
pub struct FramePayload {
    /// Frame type.
    pub kind: FrameKind,
    /// Quantization parameter used for the frame (0..=51).
    pub qp: u8,
    /// Width in pixels.
    pub width: u16,
    /// Height in pixels.
    pub height: u16,
    /// Capture (presentation) timestamp, ms since stream start.
    pub pts_ms: u32,
    /// Embedded broadcaster NTP wall-clock timestamp, seconds.
    pub ntp_s: Option<f64>,
    /// Total encoded size in bytes, header included.
    pub size: usize,
}

impl FramePayload {
    /// Encodes the payload to `size` bytes (padded with filler).
    ///
    /// Panics if `size` is smaller than the header demands — the encoder's
    /// rate controller enforces the floor.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size);
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoded payload to `out` without allocating (beyond what
    /// `out` may need to grow): the header written, the filler handed over
    /// as a [`Filler`]. Same byte stream as [`FramePayload::encode`].
    pub fn encode_into(&self, out: &mut impl Sink) {
        out.put(&self.head());
        out.fill(self.filler());
    }

    /// The header bytes, up to the filler.
    ///
    /// Panics if `size` is smaller than the header demands — the encoder's
    /// rate controller enforces the floor.
    pub fn head(&self) -> FrameHead {
        let len = self.head_len();
        assert!(self.size >= len, "frame size {} below header {}", self.size, len);
        assert!(self.qp <= 51, "QP out of range");
        let mut bytes = [0u8; HEADER_LEN_NTP];
        bytes[0..2].copy_from_slice(&MAGIC.to_be_bytes());
        bytes[2] = self.kind.id();
        bytes[3] = self.qp;
        bytes[4..6].copy_from_slice(&self.width.to_be_bytes());
        bytes[6..8].copy_from_slice(&self.height.to_be_bytes());
        bytes[8..12].copy_from_slice(&self.pts_ms.to_be_bytes());
        if let Some(ntp) = self.ntp_s {
            bytes[12] = 1;
            bytes[13..21].copy_from_slice(&ntp.to_be_bytes());
        }
        FrameHead { bytes, len: len as u8 }
    }

    /// The filler after the header: deterministic, derived from `pts_ms`,
    /// so captures are reproducible byte for byte.
    pub fn filler(&self) -> Filler {
        Filler::lcg(self.pts_ms.wrapping_mul(2654435761), self.size.saturating_sub(self.head_len()))
    }

    /// Bytes of the header: [`HEADER_LEN`], or [`HEADER_LEN_NTP`] with the
    /// NTP field.
    pub fn head_len(&self) -> usize {
        if self.ntp_s.is_some() {
            HEADER_LEN_NTP
        } else {
            HEADER_LEN
        }
    }

    /// Decodes a payload (accepts trailing filler by construction).
    pub fn decode(bytes: &[u8]) -> Result<FramePayload, ProtoError> {
        if bytes.len() < HEADER_LEN {
            return Err(ProtoError::Truncated);
        }
        let magic = u16::from_be_bytes(bytes[0..2].try_into().expect("2"));
        if magic != MAGIC {
            return Err(ProtoError::Malformed(format!("bad frame magic 0x{magic:04x}")));
        }
        let kind = FrameKind::from_id(bytes[2])?;
        let qp = bytes[3];
        if qp > 51 {
            return Err(ProtoError::Malformed(format!("QP {qp} out of range")));
        }
        let width = u16::from_be_bytes(bytes[4..6].try_into().expect("2"));
        let height = u16::from_be_bytes(bytes[6..8].try_into().expect("2"));
        let pts_ms = u32::from_be_bytes(bytes[8..12].try_into().expect("4"));
        let flags = bytes[12];
        let ntp_s = if flags & 1 != 0 {
            if bytes.len() < HEADER_LEN_NTP {
                return Err(ProtoError::Truncated);
            }
            Some(f64::from_be_bytes(bytes[13..21].try_into().expect("8")))
        } else {
            None
        };
        Ok(FramePayload { kind, qp, width, height, pts_ms, ntp_s, size: bytes.len() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(kind: FrameKind, size: usize, ntp: Option<f64>) -> FramePayload {
        FramePayload { kind, qp: 30, width: 320, height: 568, pts_ms: 1234, ntp_s: ntp, size }
    }

    #[test]
    fn roundtrip_without_ntp() {
        let p = payload(FrameKind::P, 500, None);
        let enc = p.encode();
        assert_eq!(enc.len(), 500);
        assert_eq!(FramePayload::decode(&enc).unwrap(), p);
    }

    #[test]
    fn roundtrip_with_ntp() {
        let p = payload(FrameKind::I, 2000, Some(1234.56789));
        let dec = FramePayload::decode(&p.encode()).unwrap();
        assert_eq!(dec.ntp_s, Some(1234.56789));
        assert_eq!(dec.kind, FrameKind::I);
    }

    #[test]
    fn minimal_sizes() {
        let p = payload(FrameKind::B, HEADER_LEN, None);
        assert_eq!(FramePayload::decode(&p.encode()).unwrap().size, HEADER_LEN);
        let p = payload(FrameKind::B, HEADER_LEN_NTP, Some(1.0));
        assert!(FramePayload::decode(&p.encode()).is_ok());
    }

    #[test]
    #[should_panic(expected = "below header")]
    fn size_below_header_panics() {
        payload(FrameKind::I, 5, None).encode();
    }

    #[test]
    fn bad_magic_rejected() {
        let mut enc = payload(FrameKind::I, 100, None).encode();
        enc[0] = 0;
        assert!(matches!(FramePayload::decode(&enc), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn truncated_rejected() {
        let enc = payload(FrameKind::I, 100, Some(5.0)).encode();
        assert_eq!(FramePayload::decode(&enc[..10]).unwrap_err(), ProtoError::Truncated);
        // NTP flag set but field cut off.
        assert_eq!(FramePayload::decode(&enc[..15]).unwrap_err(), ProtoError::Truncated);
    }

    #[test]
    fn bad_qp_rejected() {
        let mut enc = payload(FrameKind::I, 100, None).encode();
        enc[3] = 60;
        assert!(FramePayload::decode(&enc).is_err());
    }

    #[test]
    fn filler_is_deterministic() {
        let a = payload(FrameKind::P, 300, None).encode();
        let b = payload(FrameKind::P, 300, None).encode();
        assert_eq!(a, b);
    }

    #[test]
    fn all_kinds_roundtrip() {
        for kind in [FrameKind::I, FrameKind::P, FrameKind::B] {
            let p = payload(kind, 64, None);
            assert_eq!(FramePayload::decode(&p.encode()).unwrap().kind, kind);
        }
    }
}
