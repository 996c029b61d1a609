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
/// Generator lanes of the portable kernel. Chosen by measurement on the
/// default x86-64 target (SSE2 has no 32-bit vector multiply, so every lane
/// is a scalar chain: 1, 4, 8, 16, 32 tried — 4 and 8 tie at a quarter of
/// the serial loop's time, 16 and 32 are slower).
const PORTABLE_LANES: usize = 8;
/// Generator lanes of the AVX2 kernel: eight 8-lane `vpmulld` chains, enough
/// independent multiplies in flight to hide the instruction's latency (32
/// and 128 lanes measured slower, DESIGN.md §10).
#[cfg(target_arch = "x86_64")]
const AVX2_LANES: usize = 64;
/// Shortest fill the AVX2 kernel is used for. Its 64 lanes are seeded from
/// the jump table with eight vector multiplies, so only a fill shorter than
/// two of the portable kernel's blocks is not worth them (measured per
/// length, ns, portable | AVX2: 8 B 5.3 | 5.8, 12 B 6.0 | 5.9, 16 B 8.0 |
/// 6.4, 64 B 24 | 11, 1,000 B 336 | 98; when the lanes were seeded by 64
/// dependent multiplies the crossover was 192 B).
#[cfg(target_arch = "x86_64")]
const AVX2_MIN_BYTES: usize = 16;

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

/// Where each of `L` lanes starts: `(a[i], c[i]) = lcg_jump(i + 1)`, so
/// lane `i` is seeded `a[i]·x + c[i]` — `L` independent multiplies (one
/// vector multiply a register) where stepping the generator `L` times is a
/// chain of dependent ones.
const fn lane_seeds<const L: usize>() -> ([u32; L], [u32; L]) {
    let (mut a, mut c) = ([0u32; L], [0u32; L]);
    let mut i = 0;
    while i < L {
        (a[i], c[i]) = lcg_jump(i + 1);
        i += 1;
    }
    (a, c)
}

/// The kernel body, generic in its width: writes the generator's next
/// `out.len()` bytes after state `x` into `out`.
///
/// Lane `i` holds `x_{i+1}` and yields bytes `i, i+L, …`, each step jumping
/// `L` ahead, so the lanes together emit exactly the serial stream
/// `x_1, x_2, …` while no multiply waits for the previous byte's. Inlined
/// into each instantiation so it is compiled for that one's target features.
#[inline(always)]
fn fill_lanes<const L: usize>(x: u32, out: &mut [u8]) {
    let (jump_a, jump_c) = const { lcg_jump(L) };
    let (seed_a, seed_c) = const { lane_seeds::<L>() };
    let mut lanes = [0u32; L];
    for ((lane, a), c) in lanes.iter_mut().zip(&seed_a).zip(&seed_c) {
        *lane = x.wrapping_mul(*a).wrapping_add(*c);
    }
    let mut blocks = out.chunks_exact_mut(L);
    for block in &mut blocks {
        for (byte, lane) in block.iter_mut().zip(&mut lanes) {
            *byte = (*lane >> 24) as u8;
            *lane = lane.wrapping_mul(jump_a).wrapping_add(jump_c);
        }
    }
    for (byte, lane) in blocks.into_remainder().iter_mut().zip(&lanes) {
        *byte = (*lane >> 24) as u8;
    }
}

/// The kernel at the width any target runs.
fn fill_portable(x: u32, out: &mut [u8]) {
    fill_lanes::<PORTABLE_LANES>(x, out)
}

/// The same body compiled with AVX2 enabled, where the lane loop becomes
/// `vpmulld`/`vpaddd` on 256-bit registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fill_avx2(x: u32, out: &mut [u8]) {
    fill_lanes::<AVX2_LANES>(x, out)
}

/// Which filler kernel frame bodies are written with on this CPU:
/// `"avx2-64"` or `"portable-8"`. A benchmark report names it, so a filler
/// rate measured on a machine without AVX2 explains itself.
pub fn fill_kernel() -> String {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return format!("avx2-{AVX2_LANES}");
    }
    format!("portable-{PORTABLE_LANES}")
}

/// Writes the generator's next `out.len()` bytes after state `x` into `out`
/// with the widest kernel this CPU has.
fn fill(x: u32, out: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if out.len() >= AVX2_MIN_BYTES && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `fill_avx2` is safe Rust; the only requirement its
        // `target_feature` attribute adds is that the CPU executes AVX2,
        // which the detection in this very condition has just confirmed.
        return unsafe { fill_avx2(x, out) };
    }
    fill_portable(x, out)
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

    /// The generator stepped once per byte: what every kernel must emit.
    fn fill_serial(mut x: u32, out: &mut [u8]) {
        for byte in out {
            x = x.wrapping_mul(LCG_A).wrapping_add(LCG_C);
            *byte = (x >> 24) as u8;
        }
    }

    /// Runs `kernel` on the middle of a buffer and checks it wrote the
    /// serial stream there and nothing outside.
    fn check_kernel(kernel: fn(u32, &mut [u8]), x: u32, before: usize, len: usize) {
        let mut want = vec![0xEE; before + len + 3];
        let mut got = want.clone();
        fill_serial(x, &mut want[before..before + len]);
        kernel(x, &mut got[before..before + len]);
        assert_eq!(got, want, "seed {x:#x}, {len} bytes at offset {before}");
    }

    #[test]
    fn every_kernel_emits_the_serial_stream_at_every_short_length() {
        // Through every remainder of both block widths, and across the
        // length at which `fill` switches kernels.
        for len in 0..=4 * 64 + 9 {
            for kernel in [fill_portable, fill] {
                check_kernel(kernel, 0x9e37_79b9 ^ len as u32, len % 5, len);
            }
        }
    }

    #[test]
    fn every_kernel_emits_the_serial_stream_at_arbitrary_lengths_and_seeds() {
        pscp_check::check(
            "every_kernel_emits_the_serial_stream_at_arbitrary_lengths_and_seeds",
            |g: &mut pscp_check::Gen| (g.u32(..), g.usize(0..70), g.usize(0..=64 * 1024)),
            |&(x, before, len)| {
                check_kernel(fill_portable, x, before, len);
                check_kernel(fill, x, before, len);
                Ok(())
            },
        );
    }

    #[test]
    fn all_kinds_roundtrip() {
        for kind in [FrameKind::I, FrameKind::P, FrameKind::B] {
            let p = payload(kind, 64, None);
            assert_eq!(FramePayload::decode(&p.encode()).unwrap().kind, kind);
        }
    }
}
