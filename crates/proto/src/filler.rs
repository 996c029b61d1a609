//! Generated bytes and where body writers put them.
//!
//! Most of a media message is filler no analysis reads: after a frame's
//! 13/21-byte header comes the frame-filler generator's output, and an
//! audio body is one byte repeated. A [`Filler`] *describes* such a stretch
//! — generator state and length, or byte and length — and a body writer
//! emits its head bytes plus a filler into a [`Sink`] instead of writing
//! the filler out. A `Vec<u8>` sink materialises it; a capture flow
//! (`pscp-media::capture`) records the description and writes the bytes
//! only when someone reads them.
//!
//! A framer (RTMP chunking, TS packetisation, SRT datagrams) cuts a body —
//! a [`Body`]: head bytes, then a filler — at its own boundaries; a slice
//! of a filler is again a filler ([`Filler::slice`]), so a chunked or muxed
//! body is head bytes, framing bytes and filler slices, with nothing
//! written out that the framing did not write.
//!
//! A session also hands over whole *items*: item `i` of a [`Recipe`] — one
//! HLS segment of the session's segment list, one chat send of its chat
//! list — which a `Vec<u8>` writes out at once and a capture flow records
//! as `(recipe, i)`, writing it only when the flow is read.
//!
//! The frame filler is the LCG `x ← A·x + C (mod 2^32)`, one byte
//! (`x >> 24`) per step. [`lcg_jump`]`(k)` is `k` steps at once, which is
//! both how the lane kernel that writes it out seeds its lanes and how a
//! slice starting `k` bytes in finds its state.

use std::fmt::Debug;
use std::sync::Arc;

/// The filler generator's multiplier.
const LCG_A: u32 = 1664525;
/// The filler generator's increment.
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
/// Powers of one map commute, so `k` steps are the product of the jumps
/// for `k`'s digits — square-and-multiply in radix 256: the jumps for
/// every digit of the low two places are tables built at compile time
/// (`JUMPS`), so a slice inside a 64 KiB body costs one composition.
#[inline]
pub const fn lcg_jump(k: usize) -> (u32, u32) {
    let (a, c) = compose(JUMPS[0][k & 0xFF], JUMPS[1][(k >> 8) & 0xFF]);
    if k >> 16 == 0 {
        return (a, c);
    }
    // Beyond 64 KiB, one doubling per bit.
    let (mut a, mut c, mut k, mut step) = (a, c, k >> 16, JUMPS[1][0x80]);
    step = compose(step, step);
    while k > 0 {
        if k & 1 == 1 {
            (a, c) = compose((a, c), step);
        }
        step = compose(step, step);
        k >>= 1;
    }
    (a, c)
}

/// The jump `f ∘ g` of two jumps (which commute: both are powers of one
/// step).
const fn compose((a, c): (u32, u32), (step_a, step_c): (u32, u32)) -> (u32, u32) {
    (step_a.wrapping_mul(a), step_a.wrapping_mul(c).wrapping_add(step_c))
}

/// `JUMPS[p][d]` is `d · 256^p` steps of the generator.
const JUMPS: [[(u32, u32); 256]; 2] = {
    let mut jumps = [[(1, 0); 256]; 2];
    let mut step = (LCG_A, LCG_C);
    let mut p = 0;
    while p < 2 {
        let mut d = 1;
        while d < 256 {
            jumps[p][d] = compose(jumps[p][d - 1], step);
            d += 1;
        }
        step = compose(jumps[p][255], step);
        p += 1;
    }
    jumps
};

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

/// The kernel body, generic in its width: appends the generator's next
/// `len` bytes after state `x` to `out`, a block of `L` at a time, so each
/// byte is written once — no zeroing first.
///
/// Lane `i` holds `x_{i+1}` and yields bytes `i, i+L, …`, each step jumping
/// `L` ahead, so the lanes together emit exactly the serial stream
/// `x_1, x_2, …` while no multiply waits for the previous byte's. Inlined
/// into each instantiation so it is compiled for that one's target features.
#[inline(always)]
fn fill_lanes<const L: usize>(x: u32, len: usize, out: &mut Vec<u8>) {
    let (jump_a, jump_c) = const { lcg_jump(L) };
    let (seed_a, seed_c) = const { lane_seeds::<L>() };
    let mut lanes = [0u32; L];
    for ((lane, a), c) in lanes.iter_mut().zip(&seed_a).zip(&seed_c) {
        *lane = x.wrapping_mul(*a).wrapping_add(*c);
    }
    out.reserve(len);
    let mut block = [0u8; L];
    for _ in 0..len / L {
        for (byte, lane) in block.iter_mut().zip(&mut lanes) {
            *byte = (*lane >> 24) as u8;
            *lane = lane.wrapping_mul(jump_a).wrapping_add(jump_c);
        }
        out.extend_from_slice(&block);
    }
    let rest = &mut block[..len % L];
    for (byte, lane) in rest.iter_mut().zip(&lanes) {
        *byte = (*lane >> 24) as u8;
    }
    out.extend_from_slice(rest);
}

/// The kernel at the width any target runs.
fn fill_portable(x: u32, len: usize, out: &mut Vec<u8>) {
    fill_lanes::<PORTABLE_LANES>(x, len, out)
}

/// The same body compiled with AVX2 enabled, where the lane loop becomes
/// `vpmulld`/`vpaddd` on 256-bit registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fill_avx2(x: u32, len: usize, out: &mut Vec<u8>) {
    fill_lanes::<AVX2_LANES>(x, len, out)
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

/// Appends the generator's next `len` bytes after state `x` to `out` with
/// the widest kernel this CPU has.
fn fill(x: u32, len: usize, out: &mut Vec<u8>) {
    #[cfg(target_arch = "x86_64")]
    if len >= AVX2_MIN_BYTES && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `fill_avx2` is safe Rust; the only requirement its
        // `target_feature` attribute adds is that the CPU executes AVX2,
        // which the detection in this very condition has just confirmed.
        return unsafe { fill_avx2(x, len, out) };
    }
    fill_portable(x, len, out)
}

/// A stretch of generated bytes, described rather than written: what a
/// body writer hands a [`Sink`] for the part of a body nobody reads.
/// Lengths are those of one message body, so 32 bits hold them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Filler {
    /// The frame-filler generator's `len` bytes after state `x`.
    Lcg {
        /// Generator state before the first byte.
        x: u32,
        /// Bytes.
        len: u32,
    },
    /// `len` copies of `byte`.
    Run {
        /// The repeated byte.
        byte: u8,
        /// Bytes.
        len: u32,
    },
}

impl Filler {
    /// No bytes.
    pub const EMPTY: Filler = Filler::Run { byte: 0, len: 0 };

    /// The generator's `len` bytes after state `x`.
    #[inline]
    pub fn lcg(x: u32, len: usize) -> Filler {
        Filler::Lcg { x, len: len.try_into().expect("a filler is one body long") }
    }

    /// `len` copies of `byte`.
    #[inline]
    pub fn run(byte: u8, len: usize) -> Filler {
        Filler::Run { byte, len: len.try_into().expect("a filler is one body long") }
    }

    /// Bytes it stands for.
    #[inline]
    pub fn len(&self) -> usize {
        match *self {
            Filler::Lcg { len, .. } | Filler::Run { len, .. } => len as usize,
        }
    }

    /// Whether it stands for no byte.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes `from..to` of the filler, as a filler: a generator slice
    /// starts from the state [`lcg_jump`]`(from)` steps on.
    #[inline]
    pub fn slice(self, from: usize, to: usize) -> Filler {
        assert!(
            from <= to && to <= self.len(),
            "slice {from}..{to} of a {}-byte filler",
            self.len()
        );
        // Shorter than the filler, so the length fits as its does.
        let len = (to - from) as u32;
        match self {
            Filler::Lcg { x, .. } => {
                let (a, c) = lcg_jump(from);
                Filler::Lcg { x: a.wrapping_mul(x).wrapping_add(c), len }
            }
            Filler::Run { byte, .. } => Filler::Run { byte, len },
        }
    }
}

/// A list of byte strings a session builds once and hands over whole —
/// its finished HLS segments, its chat sends — whose `i`-th, an *item*, a
/// [`Sink`] takes as `(recipe, i)`: see [`Sink::item`].
pub trait Recipe: Send + Sync + Debug {
    /// Bytes item `i` stands for.
    fn len(&self, i: usize) -> usize;

    /// Appends item `i`'s [`Recipe::len`] bytes to `out`.
    fn write(&self, i: usize, out: &mut dyn Sink);
}

/// Where a body writer puts a body: bytes it writes, and fillers and items
/// it only describes. A `Vec<u8>` writes every filler and item out; a
/// capture flow records each as a piece and writes it out when it is read.
pub trait Sink {
    /// The buffer written bytes are appended to.
    fn literal(&mut self) -> &mut Vec<u8>;

    /// Appends `filler`'s bytes.
    fn fill(&mut self, filler: Filler);

    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]) {
        self.literal().extend_from_slice(bytes);
    }

    /// Appends item `i` of `recipe`. By default it is written out, fillers
    /// and all, into [`Sink::literal`], and checked against its stated
    /// length.
    fn item(&mut self, recipe: &Arc<dyn Recipe>, i: usize) {
        let out = self.literal();
        let at = out.len();
        recipe.write(i, out);
        assert_eq!(out.len() - at, recipe.len(i), "item {i} of {recipe:?} wrote another length");
    }
}

/// A borrowed sink is a sink: what lets a [`Recipe`] hand its `&mut dyn
/// Sink` to a body writer that takes `&mut impl Sink`.
impl<S: Sink + ?Sized> Sink for &mut S {
    fn literal(&mut self) -> &mut Vec<u8> {
        (**self).literal()
    }

    fn fill(&mut self, filler: Filler) {
        (**self).fill(filler)
    }

    fn put(&mut self, bytes: &[u8]) {
        (**self).put(bytes)
    }

    fn item(&mut self, recipe: &Arc<dyn Recipe>, i: usize) {
        (**self).item(recipe, i)
    }
}

impl Sink for Vec<u8> {
    fn literal(&mut self) -> &mut Vec<u8> {
        self
    }

    /// Each byte is written once, into reserved capacity.
    fn fill(&mut self, filler: Filler) {
        match filler {
            Filler::Lcg { x, len } => fill(x, len as usize, self),
            Filler::Run { byte, len } => self.resize(self.len() + len as usize, byte),
        }
    }
}

/// A body as a framer cuts it: `head` written out, then `tail` generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Body<'a> {
    /// Bytes written out: headers, a frame's own header.
    pub head: &'a [u8],
    /// What follows them.
    pub tail: Filler,
}

impl Body<'_> {
    /// Bytes of the body.
    #[inline]
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// Whether the body has no byte.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends bytes `from..to` of the body to `out`.
    #[inline]
    pub fn write_range(&self, from: usize, to: usize, out: &mut impl Sink) {
        let h = self.head.len();
        if from < h {
            out.put(&self.head[from..to.min(h)]);
        }
        if to > h {
            out.fill(self.tail.slice(from.max(h) - h, to - h));
        }
    }
}

impl<'a> From<&'a [u8]> for Body<'a> {
    fn from(head: &'a [u8]) -> Self {
        Body { head, tail: Filler::EMPTY }
    }
}

impl<'a> From<&'a Vec<u8>> for Body<'a> {
    fn from(head: &'a Vec<u8>) -> Self {
        head.as_slice().into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator stepped once per byte: what every kernel must emit.
    fn fill_serial(mut x: u32, out: &mut [u8]) {
        for byte in out {
            x = x.wrapping_mul(LCG_A).wrapping_add(LCG_C);
            *byte = (x >> 24) as u8;
        }
    }

    /// Runs `kernel` at the end of a `Vec` of `before` bytes and checks it
    /// appended the serial stream and nothing else.
    fn check_kernel(kernel: fn(u32, usize, &mut Vec<u8>), x: u32, before: usize, len: usize) {
        let mut want = vec![0xEE; before + len];
        fill_serial(x, &mut want[before..]);
        let mut got = vec![0xEE; before];
        kernel(x, len, &mut got);
        assert_eq!(got, want, "seed {x:#x}, {len} bytes after {before}");
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
    fn a_body_range_is_the_range_of_its_written_out_bytes() {
        let head = [1u8, 2, 3, 4, 5];
        for tail in [Filler::lcg(0xdead_beef, 40), Filler::run(0xAA, 40), Filler::EMPTY] {
            let body = Body { head: &head, tail };
            let mut whole = Vec::new();
            body.write_range(0, body.len(), &mut whole);
            assert_eq!(whole.len(), body.len());
            for from in 0..=body.len() {
                for to in from..=body.len() {
                    let mut part = Vec::new();
                    body.write_range(from, to, &mut part);
                    assert_eq!(part, whole[from..to], "{tail:?} {from}..{to}");
                }
            }
        }
    }
}
