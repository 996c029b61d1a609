//! Property-based tests of the media pipeline: container round-trips over
//! arbitrary access units and player-facing invariants of the encoder.
//! Ported from proptest to the in-tree `pscp-check` harness.

use pscp_check::{check, ensure_eq, Gen};
use pscp_media::bitstream::{FrameKind, FramePayload};
use pscp_media::flv::VideoTag;
use pscp_media::ts::{demux_segment, TsMuxer, TsUnit};

fn arb_kind(g: &mut Gen) -> FrameKind {
    [FrameKind::I, FrameKind::P, FrameKind::B][g.choice(3)]
}

fn arb_frame(g: &mut Gen) -> FramePayload {
    let kind = arb_kind(g);
    let qp = g.u8(0..=51);
    let pts_ms = g.u32(0..3_600_000);
    let ntp_s = g.option(|g| g.f64(0.0..1e6));
    let extra = g.usize(0..5000);
    let min = if ntp_s.is_some() {
        pscp_media::bitstream::HEADER_LEN_NTP
    } else {
        pscp_media::bitstream::HEADER_LEN
    };
    FramePayload { kind, qp, width: 320, height: 568, pts_ms, ntp_s, size: min + extra }
}

#[test]
fn bitstream_roundtrip() {
    check("bitstream_roundtrip", arb_frame, |f| {
        let enc = f.encode();
        ensure_eq!(enc.len(), f.size);
        let dec = FramePayload::decode(&enc).map_err(|e| format!("decode: {e:?}"))?;
        ensure_eq!(&dec, f);
        Ok(())
    });
}

#[test]
fn bitstream_decoder_never_panics() {
    check(
        "bitstream_decoder_never_panics",
        |g: &mut Gen| g.bytes(0..256),
        |bytes| {
            let _ = FramePayload::decode(bytes);
            Ok(())
        },
    );
}

#[test]
fn flv_tag_roundtrip() {
    check("flv_tag_roundtrip", arb_frame, |f| {
        let tag = VideoTag::for_frame(f.clone());
        let dec = VideoTag::decode(&tag.encode()).map_err(|e| format!("decode: {e:?}"))?;
        ensure_eq!(dec, tag);
        Ok(())
    });
}

#[test]
fn ts_roundtrip_arbitrary_units() {
    check(
        "ts_roundtrip_arbitrary_units",
        |g: &mut Gen| (g.vec(1..30, |g| g.usize(20..4000)), g.usize(1..5)),
        |(sizes, audio_every)| {
            // Build units with increasing PTS: video frames with periodic audio.
            let mut units = Vec::new();
            for (i, &s) in sizes.iter().enumerate() {
                let pts = i as u32 * 33;
                let f = FramePayload {
                    kind: if i == 0 { FrameKind::I } else { FrameKind::P },
                    qp: 30,
                    width: 320,
                    height: 568,
                    pts_ms: pts,
                    ntp_s: None,
                    size: s.max(pscp_media::bitstream::HEADER_LEN),
                };
                units.push(TsUnit::Video { pts_ms: pts, data: f.encode() });
                if i % audio_every == 0 {
                    units.push(TsUnit::Audio { pts_ms: pts + 1, data: vec![0xAA; 40 + s % 100] });
                }
            }
            let mut mux = TsMuxer::new();
            let seg = mux.mux_segment(&units);
            ensure_eq!(seg.len() % 188, 0);
            let got = demux_segment(&seg).map_err(|e| format!("demux: {e:?}"))?;
            ensure_eq!(got, units);
            Ok(())
        },
    );
}

/// Demuxing a corrupted-but-valid-sized segment must error or parse, never
/// panic. Shared by the sweep and the committed regression case.
fn ts_demux_corruption_prop(flips: &[(usize, u8)]) -> Result<(), String> {
    let mut mux = TsMuxer::new();
    let f = FramePayload {
        kind: FrameKind::I,
        qp: 30,
        width: 320,
        height: 568,
        pts_ms: 0,
        ntp_s: None,
        size: 900,
    };
    let mut seg = mux.mux_segment(&[TsUnit::Video { pts_ms: 0, data: f.encode() }]);
    for (i, b) in flips {
        if *i < seg.len() {
            seg[*i] ^= b;
        }
    }
    let _ = demux_segment(&seg);
    Ok(())
}

#[test]
fn ts_demux_never_panics_on_corruption() {
    check(
        "ts_demux_never_panics_on_corruption",
        |g: &mut Gen| g.vec(1..8, |g| (g.usize(0..2000), g.u8(..))),
        |flips| ts_demux_corruption_prop(flips),
    );
}

// Shrunk counterexample from the proptest era (`.proptest-regressions`):
// a single-bit-pattern flip inside the adaptation field.
#[test]
fn ts_demux_corruption_regression_flip_4_128() {
    ts_demux_corruption_prop(&[(4, 128)]).unwrap();
}

mod player_props {
    use pscp_check::{check, ensure, ensure_eq, Gen};
    use pscp_client::player::{run_playback, MediaArrival, PlayerConfig};
    use pscp_simnet::{SimDuration, SimTime};

    #[test]
    fn playback_invariants() {
        check(
            "playback_invariants",
            |g: &mut Gen| {
                (
                    g.vec(1..60, |g| (g.f64(0.0..120.0), g.f64(0.0..120.0))),
                    g.f64(0.5..8.0),
                    g.f64(0.2..4.0),
                )
            },
            |(raw, initial, resume)| {
                // Arrivals: sort by time, make media monotone by running max.
                let mut arrivals: Vec<MediaArrival> = Vec::new();
                let mut sorted = raw.clone();
                sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                let mut media = 0.0f64;
                for (at, m) in sorted {
                    media = media.max(m);
                    arrivals.push(MediaArrival {
                        at: SimTime::from_micros((at * 1e6) as u64),
                        media_end_s: media,
                        capture_wall_s: Some(media),
                    });
                }
                let session = SimDuration::from_secs(60);
                let cfg = PlayerConfig { initial_buffer_s: *initial, resume_buffer_s: *resume };
                let log = run_playback(SimTime::ZERO, session, cfg, &arrivals);
                // Invariants: accounting can never exceed the session.
                ensure!(log.played_s >= -1e-9, "negative play time");
                ensure!(log.played_s <= 60.0 + 1e-6, "played={}", log.played_s);
                let total = log.played_s + log.total_stall_s();
                ensure!(total <= 60.0 + 1e-6, "played+stall={total}");
                let ratio = log.stall_ratio();
                ensure!((0.0..=1.0).contains(&ratio), "ratio={ratio}");
                if let Some(j) = log.join_time {
                    ensure!(j.as_secs_f64() <= 60.0 + 1e-9, "join after session end");
                    // After joining, play + stall + join covers at most session.
                    ensure!(j.as_secs_f64() + total <= 60.0 + 1e-6, "join+play+stall overflow");
                } else {
                    ensure_eq!(log.played_s, 0.0);
                }
                // Stalls are disjoint and within the session.
                for w in log.stalls.windows(2) {
                    ensure!(w[0].start + w[0].duration <= w[1].start, "overlapping stalls");
                }
                Ok(())
            },
        );
    }
}

// -------------------------------------------- TS zero-copy ≡ reference
//
// The shipping muxer writes 188-byte packets straight into the output
// buffer and the demuxer reassembles PES payloads into per-pid arenas
// (ts.rs). These tests pin both to a retained copy of the original
// implementation — per-packet Vecs, HashMap continuity counters, owned
// reassembly buffers — across arbitrary unit mixes, segment sequences and
// push split points.

mod ts_reference {
    use pscp_media::ts::{
        crc32_mpeg2, TsUnit, PID_AUDIO, PID_PAT, PID_PMT, PID_VIDEO, SYNC, TS_PACKET,
    };
    use pscp_proto::ProtoError;
    use std::collections::HashMap;

    const STREAM_ID_VIDEO: u8 = 0xE0;
    const STREAM_ID_AUDIO: u8 = 0xC0;

    /// The pre-zero-copy muxer: HashMap continuity counters, one Vec per
    /// packet, one Vec per PES.
    pub struct RefMuxer {
        continuity: HashMap<u16, u8>,
    }

    impl RefMuxer {
        pub fn new() -> Self {
            RefMuxer { continuity: HashMap::new() }
        }

        pub fn mux_segment(&mut self, units: &[TsUnit]) -> Vec<u8> {
            let mut out = Vec::new();
            self.write_psi(PID_PAT, &pat_section(), &mut out);
            self.write_psi(PID_PMT, &pmt_section(), &mut out);
            for unit in units {
                let (pid, stream_id, pts_ms, data) = match unit {
                    TsUnit::Video { pts_ms, data } => (PID_VIDEO, STREAM_ID_VIDEO, *pts_ms, data),
                    TsUnit::Audio { pts_ms, data } => (PID_AUDIO, STREAM_ID_AUDIO, *pts_ms, data),
                };
                let pes = pes_packet(stream_id, pts_ms, data);
                self.write_payload(pid, &pes, true, &mut out);
            }
            out
        }

        fn next_cc(&mut self, pid: u16) -> u8 {
            let cc = self.continuity.entry(pid).or_insert(0);
            let current = *cc;
            *cc = (*cc + 1) & 0x0F;
            current
        }

        fn write_psi(&mut self, pid: u16, section: &[u8], out: &mut Vec<u8>) {
            let mut payload = vec![0u8]; // pointer_field
            payload.extend_from_slice(section);
            self.write_payload(pid, &payload, true, out);
        }

        fn write_payload(&mut self, pid: u16, payload: &[u8], pusi: bool, out: &mut Vec<u8>) {
            let mut off = 0;
            let mut first = true;
            while off < payload.len() {
                let remaining = payload.len() - off;
                let mut pkt = Vec::with_capacity(TS_PACKET);
                pkt.push(SYNC);
                let pusi_bit = if first && pusi { 0x40 } else { 0x00 };
                pkt.push(pusi_bit | ((pid >> 8) as u8 & 0x1F));
                pkt.push(pid as u8);
                let cc = self.next_cc(pid);
                let body_space = TS_PACKET - 4;
                if remaining >= body_space {
                    pkt.push(0x10 | cc);
                    pkt.extend_from_slice(&payload[off..off + body_space]);
                    off += body_space;
                } else {
                    pkt.push(0x30 | cc);
                    let af_len = body_space - remaining - 1;
                    pkt.push(af_len as u8);
                    if af_len > 0 {
                        pkt.push(0x00);
                        pkt.extend(std::iter::repeat_n(0xFF, af_len - 1));
                    }
                    pkt.extend_from_slice(&payload[off..]);
                    off = payload.len();
                }
                assert_eq!(pkt.len(), TS_PACKET);
                out.extend_from_slice(&pkt);
                first = false;
            }
        }
    }

    fn pat_section() -> Vec<u8> {
        let mut body = Vec::new();
        body.push(0x00);
        let mut section = vec![0u8; 0];
        section.extend_from_slice(&[0x00, 0x01]);
        section.push(0xC1);
        section.push(0x00);
        section.push(0x00);
        section.extend_from_slice(&[0x00, 0x01]);
        section.push(0xE0 | ((PID_PMT >> 8) as u8 & 0x1F));
        section.push(PID_PMT as u8);
        let len = section.len() + 4;
        body.push(0xB0 | ((len >> 8) as u8 & 0x0F));
        body.push(len as u8);
        body.extend_from_slice(&section);
        let crc = crc32_mpeg2(&body);
        body.extend_from_slice(&crc.to_be_bytes());
        body
    }

    fn pmt_section() -> Vec<u8> {
        let mut body = Vec::new();
        body.push(0x02);
        let mut section = Vec::new();
        section.extend_from_slice(&[0x00, 0x01]);
        section.push(0xC1);
        section.push(0x00);
        section.push(0x00);
        section.push(0xE0 | ((PID_VIDEO >> 8) as u8 & 0x1F));
        section.push(PID_VIDEO as u8);
        section.extend_from_slice(&[0xF0, 0x00]);
        section.push(0x1B);
        section.push(0xE0 | ((PID_VIDEO >> 8) as u8 & 0x1F));
        section.push(PID_VIDEO as u8);
        section.extend_from_slice(&[0xF0, 0x00]);
        section.push(0x0F);
        section.push(0xE0 | ((PID_AUDIO >> 8) as u8 & 0x1F));
        section.push(PID_AUDIO as u8);
        section.extend_from_slice(&[0xF0, 0x00]);
        let len = section.len() + 4;
        body.push(0xB0 | ((len >> 8) as u8 & 0x0F));
        body.push(len as u8);
        body.extend_from_slice(&section);
        let crc = crc32_mpeg2(&body);
        body.extend_from_slice(&crc.to_be_bytes());
        body
    }

    fn pes_packet(stream_id: u8, pts_ms: u32, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() + 14);
        out.extend_from_slice(&[0x00, 0x00, 0x01, stream_id]);
        let pes_len = 3 + 5 + data.len();
        let pes_len_field = if pes_len > u16::MAX as usize { 0 } else { pes_len as u16 };
        out.extend_from_slice(&pes_len_field.to_be_bytes());
        out.push(0x80);
        out.push(0x80);
        out.push(5);
        let pts = (pts_ms as u64) * 90;
        out.push(0b0010_0000 | (((pts >> 30) as u8 & 0x07) << 1) | 1);
        out.push((pts >> 22) as u8);
        out.push((((pts >> 14) as u8) & 0xFE) | 1);
        out.push((pts >> 7) as u8);
        out.push((((pts << 1) as u8) & 0xFE) | 1);
        out.extend_from_slice(data);
        out
    }

    /// The pre-zero-copy demuxer: whole-segment, owned reassembly Vecs.
    pub fn ref_demux_segment(bytes: &[u8]) -> Result<Vec<TsUnit>, ProtoError> {
        if !bytes.len().is_multiple_of(TS_PACKET) {
            return Err(ProtoError::Malformed("bad length".to_string()));
        }
        let mut units = Vec::new();
        let mut assembling: HashMap<u16, Vec<u8>> = HashMap::new();
        let mut last_cc: HashMap<u16, u8> = HashMap::new();
        let mut pat_seen = false;
        let mut pmt_seen = false;
        for pkt in bytes.chunks(TS_PACKET) {
            if pkt[0] != SYNC {
                return Err(ProtoError::Malformed("lost sync".to_string()));
            }
            let pusi = pkt[1] & 0x40 != 0;
            let pid = (((pkt[1] & 0x1F) as u16) << 8) | pkt[2] as u16;
            let afc = (pkt[3] >> 4) & 0x03;
            let cc = pkt[3] & 0x0F;
            if let Some(&prev) = last_cc.get(&pid) {
                let expected = (prev + 1) & 0x0F;
                if cc != expected {
                    return Err(ProtoError::Protocol("continuity error".to_string()));
                }
            }
            last_cc.insert(pid, cc);
            let mut off = 4;
            if afc & 0x02 != 0 {
                let af_len = pkt[4] as usize;
                off += 1 + af_len;
                if off > TS_PACKET {
                    return Err(ProtoError::Malformed("af overflow".to_string()));
                }
            }
            if afc & 0x01 == 0 {
                continue;
            }
            let payload = &pkt[off..];
            match pid {
                PID_PAT | PID_PMT => {
                    if pusi {
                        if pid == PID_PAT {
                            pat_seen = true;
                        } else {
                            pmt_seen = true;
                        }
                    }
                }
                PID_VIDEO | PID_AUDIO => {
                    if pusi {
                        if let Some(buf) = assembling.remove(&pid) {
                            units.push(parse_pes(pid, &buf)?);
                        }
                        assembling.insert(pid, payload.to_vec());
                    } else if let Some(buf) = assembling.get_mut(&pid) {
                        buf.extend_from_slice(payload);
                    } else {
                        return Err(ProtoError::Protocol("continuation w/o start".to_string()));
                    }
                }
                other => {
                    return Err(ProtoError::Protocol(format!("unexpected pid {other:#x}")));
                }
            }
        }
        for (pid, buf) in assembling {
            units.push(parse_pes(pid, &buf)?);
        }
        if !pat_seen || !pmt_seen {
            return Err(ProtoError::Protocol("missing PAT/PMT".to_string()));
        }
        units.sort_by_key(|u| u.pts_ms());
        Ok(units)
    }

    fn parse_pes(pid: u16, buf: &[u8]) -> Result<TsUnit, ProtoError> {
        if buf.len() < 14 {
            return Err(ProtoError::Truncated);
        }
        if buf[0] != 0 || buf[1] != 0 || buf[2] != 1 {
            return Err(ProtoError::Malformed("bad PES start code".to_string()));
        }
        if buf[7] & 0x80 == 0 {
            return Err(ProtoError::Protocol("PES without PTS".to_string()));
        }
        let header_len = buf[8] as usize;
        let pts = (((buf[9] >> 1) as u64 & 0x07) << 30)
            | ((buf[10] as u64) << 22)
            | (((buf[11] >> 1) as u64) << 15)
            | ((buf[12] as u64) << 7)
            | ((buf[13] >> 1) as u64);
        let pts_ms = (pts / 90) as u32;
        let data_start = 9 + header_len;
        if buf.len() < data_start {
            return Err(ProtoError::Truncated);
        }
        let data = buf[data_start..].to_vec();
        Ok(match pid {
            PID_VIDEO => TsUnit::Video { pts_ms, data },
            _ => TsUnit::Audio { pts_ms, data },
        })
    }
}

/// Unit lists with strictly distinct PTS values (video at even offsets,
/// audio at odd), so the PTS sort fully determines order and equivalence
/// is exact.
fn arb_unit_list(g: &mut Gen) -> Vec<TsUnit> {
    let n = g.usize(1..20);
    let mut units = Vec::new();
    for i in 0..n {
        let pts = i as u32 * 40;
        if g.bool() {
            let f = FramePayload {
                kind: if i == 0 { FrameKind::I } else { arb_kind(g) },
                qp: 30,
                width: 320,
                height: 568,
                pts_ms: pts,
                ntp_s: None,
                size: g.usize(pscp_media::bitstream::HEADER_LEN..2500),
            };
            units.push(TsUnit::Video { pts_ms: pts, data: f.encode() });
        } else {
            units.push(TsUnit::Audio { pts_ms: pts + 1, data: g.bytes(1..400) });
        }
    }
    units
}

#[test]
fn ts_muxer_matches_reference_bytes() {
    check(
        "ts_muxer_matches_reference_bytes",
        |g: &mut Gen| (arb_unit_list(g), arb_unit_list(g)),
        |(first, second)| {
            // Two segments from the same muxer: continuity counters carry
            // across segments in both implementations.
            let mut mux = TsMuxer::new();
            let mut reference = ts_reference::RefMuxer::new();
            ensure_eq!(mux.mux_segment(first), reference.mux_segment(first));
            ensure_eq!(mux.mux_segment(second), reference.mux_segment(second));
            Ok(())
        },
    );
}

#[test]
fn ts_demuxer_matches_reference_units() {
    check(
        "ts_demuxer_matches_reference_units",
        |g: &mut Gen| {
            let units = arb_unit_list(g);
            // Push granularity in whole packets: 1..=5 per push.
            let pkts_per_push = g.usize(1..=5);
            (units, pkts_per_push)
        },
        |(units, pkts_per_push)| {
            use pscp_media::ts::{TsDemuxer, TS_PACKET};
            let seg = TsMuxer::new().mux_segment(units);
            let expected =
                ts_reference::ref_demux_segment(&seg).map_err(|e| format!("ref: {e:?}"))?;
            // Incremental push through the streaming demuxer.
            let mut demux = TsDemuxer::new();
            for piece in seg.chunks(pkts_per_push * TS_PACKET) {
                demux.push(piece).map_err(|e| format!("push: {e:?}"))?;
            }
            demux.finish().map_err(|e| format!("finish: {e:?}"))?;
            let got: Vec<TsUnit> = demux.units().map(|u| u.to_unit()).collect();
            ensure_eq!(got, expected);
            // And the one-shot wrapper agrees.
            let oneshot = demux_segment(&seg).map_err(|e| format!("demux: {e:?}"))?;
            ensure_eq!(oneshot, expected);
            Ok(())
        },
    );
}

/// One segment of units given as described bodies.
type Described = Vec<(bool, u32, Vec<u8>, pscp_proto::filler::Filler)>;

fn mux_described(units: &Described, out: &mut impl pscp_proto::filler::Sink) {
    use pscp_proto::filler::Body;
    let mut muxer = TsMuxer::new();
    muxer.begin_segment(out);
    for (video, pts_ms, head, tail) in units {
        muxer.write_body(*video, *pts_ms, Body { head, tail: *tail }, out);
    }
}

/// The TS muxer over described bodies — a frame's header then its filler,
/// an audio run, bytes — writes what it writes over the materialised units,
/// into a `Vec` and into a capture flow that keeps every filler slice as a
/// piece. PES payloads (14 header bytes + body) land on every side of the
/// stuffing edges: 182, 183, 184 and 185 bytes left for a packet.
#[test]
fn ts_muxer_over_described_bodies_writes_the_materialised_bytes() {
    use pscp_media::capture::{Flow, FlowKind};
    use pscp_media::ts::TsUnitRef;
    use pscp_proto::filler::{Filler, Sink};
    use pscp_simnet::SimTime;

    check(
        "ts_muxer_over_described_bodies_writes_the_materialised_bytes",
        |g: &mut Gen| {
            let units: Described = g.vec(1..16, |g| {
                // A length whose PES payload leaves an edge for its last
                // packet, or any length.
                let len = match g.choice(3) {
                    0 => 184 * g.usize(0..4) + [182, 183, 184, 185][g.choice(4)] - 14,
                    1 => g.usize(0..40),
                    _ => g.usize(0..3000),
                };
                let (head, tail) = match g.choice(4) {
                    0 => (g.bytes(len..=len), Filler::EMPTY),
                    1 => (vec![], Filler::run(0xAA, len)),
                    _ => {
                        let head = g.bytes(0..=len.min(21));
                        (head.clone(), Filler::lcg(g.u32(..), len - head.len()))
                    }
                };
                (g.bool(), g.u32(0..1 << 20), head, tail)
            });
            (units, g.usize(1..2000))
        },
        |(units, mtu)| {
            let mut plain = Vec::new();
            let mut muxer = TsMuxer::new();
            muxer.begin_segment(&mut plain);
            for (video, pts_ms, head, tail) in units {
                let mut data = head.clone();
                Sink::fill(&mut data, *tail);
                let unit = TsUnitRef { video: *video, pts_ms: *pts_ms, data: &data };
                muxer.write_unit(unit, &mut plain);
            }
            let lens = units.iter().map(|(_, _, head, tail)| head.len() + tail.len());
            ensure_eq!(plain.len(), TsMuxer::segment_len(lens));
            let mut described = Vec::new();
            mux_described(units, &mut described);
            ensure_eq!(&described, &plain);
            let mut flow = Flow::new(FlowKind::HlsHttp, "pop");
            flow.append_with(plain.len(), |out| mux_described(units, out));
            for (i, packet) in plain.chunks(*mtu).enumerate() {
                flow.cut(SimTime::from_millis(i as u64), i as f64, packet.len(), 0, 0);
            }
            ensure_eq!(&*flow.byte_stream(), &plain[..]);
            let packets: Vec<Vec<u8>> = flow.payloads().map(|p| p.bytes().to_vec()).collect();
            ensure_eq!(packets, plain.chunks(*mtu).map(<[u8]>::to_vec).collect::<Vec<_>>());
            Ok(())
        },
    );
}
