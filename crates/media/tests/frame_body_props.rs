//! The frame-body kernel against the serial loop it replaced, and the
//! descriptor encoder path against the materialising one.
//!
//! `FramePayload::encode_into` generates filler with independent generator
//! lanes (DESIGN.md §10), and a framer slices a frame's filler at any
//! offset by jumping the generator ahead. Both must stay the *same byte
//! stream* as one generator stepped a byte at a time — every capture,
//! digest and golden figure is downstream of these bytes — so the serial
//! loop is kept here, verbatim, as the reference.

use pscp_check::{check, ensure_eq, Gen};
use pscp_media::bitstream::{FrameKind, FramePayload, HEADER_LEN, HEADER_LEN_NTP};
use pscp_media::content::{ContentClass, ContentProcess};
use pscp_media::encoder::{Encoder, EncoderConfig, GopPattern};
use pscp_proto::filler::{lcg_jump, Filler, Sink};
use pscp_simnet::rng::Rng;
use pscp_simnet::RngFactory;

/// `FramePayload::encode_into` as it was before the lane kernel: header,
/// then one LCG stepped once per filler byte.
fn reference_encode_into(f: &FramePayload, out: &mut Vec<u8>) {
    let end = out.len() + f.size;
    out.extend_from_slice(&0x5041u16.to_be_bytes());
    out.push(match f.kind {
        FrameKind::I => 0,
        FrameKind::P => 1,
        FrameKind::B => 2,
    });
    out.push(f.qp);
    out.extend_from_slice(&f.width.to_be_bytes());
    out.extend_from_slice(&f.height.to_be_bytes());
    out.extend_from_slice(&f.pts_ms.to_be_bytes());
    match f.ntp_s {
        Some(ntp) => {
            out.push(1);
            out.extend_from_slice(&ntp.to_be_bytes());
        }
        None => out.push(0),
    }
    let mut x = f.pts_ms.wrapping_mul(2654435761);
    while out.len() < end {
        x = x.wrapping_mul(1664525).wrapping_add(1013904223);
        out.push((x >> 24) as u8);
    }
}

/// The generator's first `n` bytes after state `x`, stepped once a byte.
fn reference_fill(mut x: u32, n: usize) -> Vec<u8> {
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            (x >> 24) as u8
        })
        .collect()
}

/// The state `lcg_jump(k)` gives after `k` steps from `x`, filled for `m`
/// bytes, is the tail of the serial fill of `k + m` — and so is the filler
/// sliced `k` bytes in.
fn check_jump(x: u32, k: usize, m: usize) -> Result<(), String> {
    let want = reference_fill(x, k + m)[k..].to_vec();
    let (a, c) = lcg_jump(k);
    let mut jumped = Vec::new();
    Sink::fill(&mut jumped, Filler::lcg(a.wrapping_mul(x).wrapping_add(c), m));
    ensure_eq!(jumped, want);
    let mut sliced = Vec::new();
    Sink::fill(&mut sliced, Filler::lcg(x, k + m).slice(k, k + m));
    ensure_eq!(sliced, want);
    Ok(())
}

#[test]
fn a_jump_of_k_steps_starts_the_tail_of_the_serial_fill_at_every_short_k() {
    // Every jump a lane seed or a small slice takes, then the places where
    // the jump's digits carry and the doubling beyond 64 KiB takes over.
    let long = [255, 256, 257, 65_535, 65_536, 65_537, 131_071, 131_072, (1 << 20) + 12_345];
    for k in (0..=265).chain(long) {
        for m in [0, 1, 15, 16, 64, 300] {
            check_jump(0x9e37_79b9 ^ k as u32, k, m).unwrap();
        }
    }
}

#[test]
fn a_jump_of_k_steps_starts_the_tail_of_the_serial_fill_at_arbitrary_k() {
    check(
        "a_jump_of_k_steps_starts_the_tail_of_the_serial_fill_at_arbitrary_k",
        |g: &mut Gen| (g.u32(..), g.usize(0..=64 * 1024), g.usize(0..600)),
        |&(x, k, m)| check_jump(x, k, m),
    );
}

fn frame(pts_ms: u32, ntp_s: Option<f64>, filler: usize) -> FramePayload {
    let header = if ntp_s.is_some() { HEADER_LEN_NTP } else { HEADER_LEN };
    FramePayload {
        kind: FrameKind::P,
        qp: 30,
        width: 320,
        height: 568,
        pts_ms,
        ntp_s,
        size: header + filler,
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn lane_kernel_matches_serial_reference_on_arbitrary_frames() {
    check(
        "lane_kernel_matches_serial_reference_on_arbitrary_frames",
        |g: &mut Gen| {
            let f = FramePayload {
                kind: [FrameKind::I, FrameKind::P, FrameKind::B][g.choice(3)],
                qp: g.u8(0..=51),
                ..frame(g.u32(..), g.option(|g| g.f64(0.0..1e9)), g.usize(0..=64 * 1024))
            };
            (f, g.bytes(0..40))
        },
        |(f, prefix)| {
            // Appended to whatever the packetizer already wrote.
            let mut got = prefix.clone();
            let mut want = prefix.clone();
            f.encode_into(&mut got);
            reference_encode_into(f, &mut want);
            ensure_eq!(got.len(), prefix.len() + f.size);
            ensure_eq!(got, want);
            ensure_eq!(f.encode(), want[prefix.len()..].to_vec());
            Ok(())
        },
    );
}

/// Every filler length around the block structure — empty, shorter than one
/// block, exact multiples, one over — for any lane count up to 32.
#[test]
fn lane_kernel_matches_serial_reference_at_every_short_length() {
    for filler in 0..=4 * 32 + 3 {
        for ntp_s in [None, Some(1234.5)] {
            for pts_ms in [0, 33, 1234, 3_599_967, u32::MAX] {
                let f = frame(pts_ms, ntp_s, filler);
                let mut got = vec![0x47];
                let mut want = vec![0x47];
                f.encode_into(&mut got);
                reference_encode_into(&f, &mut want);
                assert_eq!(got, want, "filler {filler} ntp {ntp_s:?} pts {pts_ms}");
            }
        }
    }
}

/// One frame's bytes pinned outright, so the reference above cannot drift
/// together with the kernel.
#[test]
fn five_kilobyte_i_frame_is_pinned() {
    let f = FramePayload {
        kind: FrameKind::I,
        qp: 27,
        width: 320,
        height: 568,
        pts_ms: 7200,
        ntp_s: Some(1_462_060_800.25),
        size: 5000,
    };
    assert_eq!(fnv1a64(&f.encode()), 0x257a_5b92_e003_226f);
}

/// `next_frame` is `next_payload` + `encode()`: the same frames, the same
/// drops, and the RNG left where the other path leaves it.
#[test]
fn next_frame_is_next_payload_plus_encode() {
    for (seed, gop) in [(1, GopPattern::Ibp), (2, GopPattern::IpOnly), (3, GopPattern::IOnly)] {
        let cfg = EncoderConfig { gop, frame_drop_prob: 0.05, ..Default::default() };
        let mut rng_a = RngFactory::new(seed).stream("frame-body");
        let mut rng_b = RngFactory::new(seed).stream("frame-body");
        let mut a =
            Encoder::new(cfg.clone(), ContentProcess::new(ContentClass::Indoor, &mut rng_a));
        let mut b = Encoder::new(cfg, ContentProcess::new(ContentClass::Indoor, &mut rng_b));
        let mut dropped = 0;
        for i in 0..2040 {
            let wall = 1e9 + i as f64 / 30.0;
            let frame = a.next_frame(wall, &mut rng_a);
            let payload = b.next_payload(wall, &mut rng_b);
            match (frame, payload) {
                (None, None) => dropped += 1,
                (Some(f), Some(p)) => {
                    assert_eq!((f.pts_ms, f.kind, f.qp), (p.pts_ms, p.kind, p.qp), "frame {i}");
                    assert_eq!(f.bytes, p.encode(), "frame {i}");
                    assert_eq!(FramePayload::decode(&f.bytes).unwrap(), p, "frame {i}");
                }
                (f, p) => panic!("frame {i}: next_frame {f:?} but next_payload {p:?}"),
            }
        }
        assert!(dropped > 50, "dropped={dropped}");
        assert_eq!(a.average_bitrate_bps(), b.average_bitrate_bps());
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }
}
