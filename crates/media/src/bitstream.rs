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
//! Every byte after the header is deterministic filler, so the *size* of the
//! frame — the quantity all bitrate figures derive from — is exactly what
//! the encoder's rate controller chose.

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

/// The filler generator: `x ← A·x + C (mod 2^32)`, one byte (`x >> 24`) per
/// step, seeded from the frame's `pts_ms`.
const LCG_A: u32 = 1664525;
const LCG_C: u32 = 1013904223;
/// Independent generator lanes [`fill`] advances side by side. Chosen by
/// measurement on the default x86-64 target (1, 4, 8, 16, 32 tried: 4 and 8
/// tie at a quarter of the serial loop's time, wider is slower).
const LANES: usize = 8;
/// `k` steps of the generator at once: `x_{n+k} = a·x_n + c` for the returned
/// `(a, c)`. Composing `x ↦ A·x + C` onto `x ↦ a·x + c` gives
/// `x ↦ (A·a)·x + (A·c + C)`; everything wraps mod 2^32 like the generator.
const fn lcg_jump(k: usize) -> (u32, u32) {
    let (mut a, mut c) = (1u32, 0u32);
    let mut i = 0;
    while i < k {
        a = a.wrapping_mul(LCG_A);
        c = c.wrapping_mul(LCG_A).wrapping_add(LCG_C);
        i += 1;
    }
    (a, c)
}
const JUMP: (u32, u32) = lcg_jump(LANES);

/// Writes the generator's next `out.len()` bytes after state `x` into `out`.
///
/// Lane `i` holds `x_{i+1}` and yields bytes `i, i+LANES, …`, each step
/// jumping `LANES` ahead, so the lanes together emit exactly the serial
/// stream `x_1, x_2, …` while no multiply waits for the previous byte's.
fn fill(mut x: u32, out: &mut [u8]) {
    let mut lanes = [0u32; LANES];
    for lane in &mut lanes {
        x = x.wrapping_mul(LCG_A).wrapping_add(LCG_C);
        *lane = x;
    }
    let mut blocks = out.chunks_exact_mut(LANES);
    for block in &mut blocks {
        for (byte, lane) in block.iter_mut().zip(&mut lanes) {
            *byte = (*lane >> 24) as u8;
            *lane = lane.wrapping_mul(JUMP.0).wrapping_add(JUMP.1);
        }
    }
    for (byte, lane) in blocks.into_remainder().iter_mut().zip(&lanes) {
        *byte = (*lane >> 24) as u8;
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
    /// `out` may need to grow). Same byte stream as [`FramePayload::encode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let min = if self.ntp_s.is_some() { HEADER_LEN_NTP } else { HEADER_LEN };
        assert!(self.size >= min, "frame size {} below header {}", self.size, min);
        assert!(self.qp <= 51, "QP out of range");
        let end = out.len() + self.size;
        out.reserve(self.size);
        out.extend_from_slice(&MAGIC.to_be_bytes());
        out.push(self.kind.id());
        out.push(self.qp);
        out.extend_from_slice(&self.width.to_be_bytes());
        out.extend_from_slice(&self.height.to_be_bytes());
        out.extend_from_slice(&self.pts_ms.to_be_bytes());
        match self.ntp_s {
            Some(ntp) => {
                out.push(1);
                out.extend_from_slice(&ntp.to_be_bytes());
            }
            None => out.push(0),
        }
        // Deterministic filler derived from pts, so captures are
        // reproducible byte-for-byte.
        let body = out.len();
        out.resize(end, 0);
        fill(self.pts_ms.wrapping_mul(2654435761), &mut out[body..]);
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
