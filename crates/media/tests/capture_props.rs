//! Properties of run-length capture storage: a flow recorded as literal
//! bytes + runs must answer every question exactly like a twin flow that
//! was handed the same packets written out byte for byte — and a flow whose
//! stamps were deferred exactly like one whose host clock was read packet by
//! packet — and a flow whose bytes were appended a send at a time and then
//! cut into packets by length exactly like one recorded packet by packet.

use pscp_check::{check, ensure, ensure_eq, Gen};
use pscp_media::capture::{Capture, Flow, FlowKind, Payload};
use pscp_simnet::rng::CounterRng;
use pscp_simnet::{SimTime, WallClock};

/// One generated packet: inter-arrival gap, literal part, run.
#[derive(Debug, Clone)]
struct Pkt {
    gap_us: u64,
    literal: Vec<u8>,
    fill: u8,
    pad: usize,
}

impl Pkt {
    fn written_out(&self) -> Vec<u8> {
        let mut out = self.literal.clone();
        out.resize(self.literal.len() + self.pad, self.fill);
        out
    }
}

fn arb_packets(g: &mut Gen) -> Vec<Pkt> {
    g.vec(0..40, |g| {
        // Mixed traffic: pure literal, pure run, head + run, and empty.
        let (lit, pad) = match g.choice(4) {
            0 => (g.usize(1..60), 0),
            1 => (0, g.usize(1..4000)),
            2 => (g.usize(1..60), g.usize(1..4000)),
            _ => (0, 0),
        };
        Pkt { gap_us: g.u64(0..50_000), literal: g.bytes(lit..=lit), fill: g.u8(..), pad }
    })
}

/// Records `pkts` twice: as runs, and written out.
fn twins(kind: FlowKind, start_us: u64, pkts: &[Pkt]) -> (Flow, Flow) {
    let mut runs = Flow::new(kind, "server");
    let mut plain = Flow::new(kind, "server");
    let mut t = start_us;
    for p in pkts {
        t += p.gap_us;
        let (at, wall) = (SimTime::from_micros(t), t as f64 / 1e6 + 0.25);
        if p.literal.is_empty() && p.fill == 0 {
            runs.record_zeros(at, wall, p.pad);
        } else {
            runs.record(at, wall, Payload::run(&p.literal, p.fill, p.pad));
        }
        plain.record(at, wall, &p.written_out());
    }
    (runs, plain)
}

#[test]
fn mixed_flow_matches_its_written_out_twin() {
    check("mixed_flow_matches_its_written_out_twin", arb_packets, |pkts| {
        let (runs, plain) = twins(FlowKind::PictureHttp, 1_000, pkts);
        // Packets tile the on-wire byte count.
        ensure_eq!(runs.packet_count(), plain.packet_count());
        ensure_eq!(runs.byte_count(), plain.byte_count());
        ensure_eq!(runs.packets().map(|p| p.payload.len()).sum::<usize>(), runs.byte_count());
        for (a, b) in runs.packets().zip(plain.packets()) {
            ensure_eq!(a, b);
            ensure_eq!(a.payload.bytes(), b.payload.bytes());
        }
        // Offset lookups agree at and around every packet boundary.
        let mut edge = 0usize;
        let mut offsets = vec![0, runs.byte_count(), runs.byte_count() + 1];
        for p in runs.packets() {
            edge += p.payload.len();
            offsets.extend([edge.saturating_sub(1), edge, edge + 1]);
        }
        for off in offsets {
            ensure_eq!(runs.wall_ts_at_byte(off), plain.wall_ts_at_byte(off));
            ensure_eq!(runs.sim_time_at_byte(off), plain.sim_time_at_byte(off));
        }
        ensure_eq!(runs.first_at(), plain.first_at());
        ensure_eq!(runs.last_at(), plain.last_at());
        ensure_eq!(runs.mean_rate_bps().to_bits(), plain.mean_rate_bps().to_bits());
        // The byte stream of a padded flow is never short.
        let stream = runs.byte_stream();
        ensure_eq!(stream.len(), runs.byte_count());
        ensure_eq!(stream, plain.byte_stream());
        Ok(())
    });
}

#[test]
fn capture_rates_count_runs_as_wire_bytes() {
    check(
        "capture_rates_count_runs_as_wire_bytes",
        |g: &mut Gen| (arb_packets(g), arb_packets(g), g.u64(0..2_000_000)),
        |(first, second, offset_us)| {
            let (runs_a, plain_a) = twins(FlowKind::Chat, 0, first);
            let (runs_b, plain_b) = twins(FlowKind::PictureHttp, *offset_us, second);
            let runs = Capture { flows: vec![runs_a, runs_b] };
            let plain = Capture { flows: vec![plain_a, plain_b] };
            ensure_eq!(runs.total_bytes(), plain.total_bytes());
            ensure_eq!(runs.aggregate_rate_bps().to_bits(), plain.aggregate_rate_bps().to_bits());
            for kinds in [
                &[FlowKind::Chat][..],
                &[FlowKind::PictureHttp],
                &[FlowKind::Chat, FlowKind::PictureHttp],
                &[FlowKind::Rtmp],
            ] {
                ensure_eq!(
                    runs.rate_of_kinds(kinds).to_bits(),
                    plain.rate_of_kinds(kinds).to_bits()
                );
            }
            Ok(())
        },
    );
}

#[test]
fn record_zeros_is_a_run_of_zero() {
    check(
        "record_zeros_is_a_run_of_zero",
        |g: &mut Gen| g.vec(1..20, |g| g.usize(0..5000)),
        |lens| {
            let mut zeros = Flow::new(FlowKind::AppMisc, "api");
            let mut run = Flow::new(FlowKind::AppMisc, "api");
            let mut plain = Flow::new(FlowKind::AppMisc, "api");
            for (i, &n) in lens.iter().enumerate() {
                let (at, wall) = (SimTime::from_millis(i as u64), i as f64);
                zeros.record_zeros(at, wall, n);
                run.record(at, wall, Payload::run(&[], 0, n));
                plain.record(at, wall, &vec![0u8; n]);
            }
            for flow in [&zeros, &run] {
                ensure_eq!(flow.byte_count(), plain.byte_count());
                ensure_eq!(flow.byte_stream(), plain.byte_stream());
                ensure!(flow.packets().eq(plain.packets()));
            }
            Ok(())
        },
    );
}

#[test]
fn payload_chunks_split_like_slice_chunks() {
    check(
        "payload_chunks_split_like_slice_chunks",
        |g: &mut Gen| (g.bytes(0..200), g.u8(..), g.usize(0..3000), g.usize(1..600)),
        |(literal, fill, pad, mtu)| {
            let payload = Payload::run(literal, *fill, *pad);
            let written_out = payload.bytes();
            let chunks: Vec<Vec<u8>> = payload.chunks(*mtu).map(|c| c.bytes().to_vec()).collect();
            let expected: Vec<Vec<u8>> = written_out.chunks(*mtu).map(<[u8]>::to_vec).collect();
            ensure_eq!(chunks, expected);
            Ok(())
        },
    );
}

/// A host clock with or without jitter, and a seed for its jitter stream.
fn arb_host(g: &mut Gen) -> (WallClock, u64) {
    let jitter_s = if g.bool() { g.f64(1e-5..0.01) } else { 0.0 };
    let clock = WallClock { offset_s: g.f64(-0.05..0.05), drift_ppm: g.f64(-40.0..40.0), jitter_s };
    (clock, g.u64(..))
}

/// What a reader can learn of a flow's packets, stamps as bits.
fn observed(flow: &Flow) -> Vec<(SimTime, u64, Vec<u8>)> {
    flow.packets().map(|p| (p.at, p.wall_ts.to_bits(), p.payload.bytes().to_vec())).collect()
}

#[test]
fn deferred_stamps_read_as_the_host_clock_would_have() {
    check(
        "deferred_stamps_read_as_the_host_clock_would_have",
        |g: &mut Gen| {
            // Per packet: deferred, or read on the spot.
            let pkts = arb_packets(g);
            let eager_at: Vec<bool> = pkts.iter().map(|_| g.choice(4) == 0).collect();
            (arb_host(g), pkts, eager_at)
        },
        |((clock, seed), pkts, eager_at)| {
            // `eager` reads the host clock for every packet; `deferred`
            // never does; `mixed` does for some. One jitter stream each.
            let mut flows = [(); 3].map(|_| Flow::on_host(FlowKind::Rtmp, "ec2", clock.clone()));
            let mut jitter = [CounterRng::new(*seed); 3];
            let mut t = 0;
            for (p, &read_now) in pkts.iter().zip(eager_at) {
                t += p.gap_us;
                let at = SimTime::from_micros(t);
                let payload = Payload::run(&p.literal, p.fill, p.pad);
                for (i, (flow, rng)) in flows.iter_mut().zip(&mut jitter).enumerate() {
                    if i == 0 || (i == 2 && read_now) {
                        flow.record(at, clock.read(at, rng), payload);
                    } else {
                        flow.record_deferred(at, rng, payload);
                    }
                }
            }
            // The streams end in the same place: deferring consumed what
            // reading consumes.
            ensure_eq!(jitter[1], jitter[0]);
            ensure_eq!(jitter[2], jitter[0]);
            let [eager, deferred, mixed] = &flows;
            let want = observed(eager);
            ensure_eq!(observed(deferred), want.clone());
            ensure_eq!(observed(mixed), want.clone());
            // Reading a stamp leaves it readable: again, and in a clone.
            ensure_eq!(observed(deferred), want.clone());
            ensure_eq!(observed(&deferred.clone()), want.clone());
            // Offset lookups resolve the same packet's stamp.
            let mut offsets = vec![0, eager.byte_count(), eager.byte_count() + 1];
            offsets.extend(eager.packets().scan(0, |edge, p| {
                *edge += p.payload.len();
                Some(*edge)
            }));
            for off in offsets.iter().flat_map(|&o| [o.saturating_sub(1), o]) {
                let want = eager.wall_ts_at_byte(off).map(f64::to_bits);
                ensure_eq!(deferred.wall_ts_at_byte(off).map(f64::to_bits), want);
                ensure_eq!(mixed.wall_ts_at_byte(off).map(f64::to_bits), want);
            }
            // Payload-only readers see the same bytes without any stamp.
            ensure!(deferred.payloads().eq(eager.packets().map(|p| p.payload)));
            ensure_eq!(deferred.byte_stream(), eager.byte_stream());
            Ok(())
        },
    );
}

#[test]
fn strip_prefix_is_a_packet_by_packet_copy_past_the_prefix() {
    check(
        "strip_prefix_is_a_packet_by_packet_copy_past_the_prefix",
        |g: &mut Gen| (arb_host(g), arb_packets(g), g.usize(0..6000)),
        |((clock, seed), pkts, prefix)| {
            let mut flow = Flow::on_host(FlowKind::Rtmp, "ec2", clock.clone());
            let mut jitter = CounterRng::new(*seed);
            let mut t = 0;
            for p in pkts {
                t += p.gap_us;
                let payload = Payload::run(&p.literal, p.fill, p.pad);
                flow.record_deferred(SimTime::from_micros(t), &mut jitter, payload);
            }
            // The copy loop `strip_prefix` replaced: skip whole packets
            // inside the prefix, cut the one that straddles its end.
            let mut want = Flow::new(flow.kind, flow.server.clone());
            let mut skipped = 0usize;
            for p in flow.packets() {
                if skipped >= *prefix {
                    want.record(p.at, p.wall_ts, p.payload);
                } else if skipped + p.payload.len() > *prefix {
                    want.record(p.at, p.wall_ts, &p.payload.bytes()[prefix - skipped..]);
                    skipped = *prefix;
                } else {
                    skipped += p.payload.len();
                }
            }
            let got = flow.strip_prefix(*prefix);
            ensure_eq!(got.byte_count(), flow.byte_count().saturating_sub(*prefix));
            ensure_eq!(observed(&got), observed(&want));
            Ok(())
        },
    );
}

/// Append-then-cut against `record`/`record_deferred`: the literal bytes of
/// a group of packets written in one go, the packets then cut over them by
/// length, with runs, with eager and deferred stamps, and with groups that
/// are recorded the copying way mixed in.
#[test]
fn append_then_cut_reads_exactly_like_record() {
    check(
        "append_then_cut_reads_exactly_like_record",
        |g: &mut Gen| {
            let pkts = arb_packets(g);
            // Per packet: stamp read on the spot?, first of a new group?;
            // per group (indexed by its first packet): appended, or
            // recorded the copying way?
            let marks: Vec<(bool, bool, bool)> =
                pkts.iter().map(|_| (g.choice(4) == 0, g.choice(3) == 0, g.bool())).collect();
            (arb_host(g), pkts, marks, g.usize(0..6000))
        },
        |((clock, seed), pkts, marks, prefix)| {
            let mut flows = [(); 2].map(|_| Flow::on_host(FlowKind::Rtmp, "ec2", clock.clone()));
            let mut jitter = [CounterRng::new(*seed); 2];
            let [recorded, cut] = &mut flows;
            let (mut t, mut i) = (0, 0);
            while i < pkts.len() {
                let group = 1 + marks[i + 1..].iter().take_while(|m| !m.1).count();
                let (group, marks) = (&pkts[i..i + group], &marks[i..i + group]);
                let append = marks[0].2;
                if append {
                    let literal: Vec<u8> = group.iter().flat_map(|p| p.literal.clone()).collect();
                    cut.append_with(literal.len(), |out| out.extend_from_slice(&literal));
                }
                for (p, &(read_now, _, _)) in group.iter().zip(marks) {
                    t += p.gap_us;
                    let at = SimTime::from_micros(t);
                    let payload = Payload::run(&p.literal, p.fill, p.pad);
                    if read_now {
                        recorded.record(at, clock.read(at, &mut jitter[0]), payload);
                        let wall = clock.read(at, &mut jitter[1]);
                        match append {
                            true => cut.cut(at, wall, p.literal.len(), p.fill, p.pad),
                            false => cut.record(at, wall, payload),
                        }
                    } else {
                        recorded.record_deferred(at, &mut jitter[0], payload);
                        match append {
                            true => {
                                cut.cut_deferred(at, &mut jitter[1], p.literal.len(), p.fill, p.pad)
                            }
                            false => cut.record_deferred(at, &mut jitter[1], payload),
                        }
                    }
                }
                i += group.len();
            }
            ensure_eq!(jitter[1], jitter[0]);
            let [recorded, cut] = &flows;
            ensure_eq!(observed(cut), observed(recorded));
            ensure_eq!(cut.packet_count(), recorded.packet_count());
            ensure_eq!(cut.byte_count(), recorded.byte_count());
            ensure!(cut.payloads().eq(recorded.payloads()));
            ensure_eq!(cut.byte_stream(), recorded.byte_stream());
            ensure_eq!(
                observed(&cut.strip_prefix(*prefix)),
                observed(&recorded.strip_prefix(*prefix))
            );
            let mut offsets = vec![0, cut.byte_count(), cut.byte_count() + 1];
            offsets.extend(recorded.payloads().scan(0, |edge, p| {
                *edge += p.len();
                Some(*edge)
            }));
            for off in offsets.iter().flat_map(|&o| [o.saturating_sub(1), o]) {
                ensure_eq!(
                    cut.wall_ts_at_byte(off).map(f64::to_bits),
                    recorded.wall_ts_at_byte(off).map(f64::to_bits)
                );
                ensure_eq!(cut.sim_time_at_byte(off), recorded.sim_time_at_byte(off));
            }
            ensure_eq!(cut.mean_rate_bps().to_bits(), recorded.mean_rate_bps().to_bits());
            Ok(())
        },
    );
}

/// A flow with five bytes appended and the first three cut into a packet.
fn half_cut_flow() -> Flow {
    let mut flow = Flow::new(FlowKind::Rtmp, "ec2");
    flow.append_with(5, |out| out.extend_from_slice(b"abcde"));
    flow.cut(SimTime::from_secs(1), 1.0, 3, 0, 0);
    flow
}

#[test]
#[should_panic(expected = "appended bytes not yet cut into packets")]
fn reading_a_flow_with_uncut_bytes_panics() {
    half_cut_flow().byte_stream();
}

#[test]
#[should_panic(expected = "appended bytes not yet cut into packets")]
fn recording_over_uncut_bytes_panics() {
    half_cut_flow().record(SimTime::from_secs(2), 2.0, b"f");
}

#[test]
#[should_panic(expected = "packet cut past the appended bytes")]
fn cutting_past_the_appended_bytes_panics() {
    half_cut_flow().cut(SimTime::from_secs(2), 2.0, 3, 0, 0);
}

#[test]
#[should_panic(expected = "writer produced another length than stated")]
fn a_writer_that_misstates_its_length_panics() {
    Flow::new(FlowKind::Rtmp, "ec2").append_with(3, |out| out.extend_from_slice(b"four"));
}
