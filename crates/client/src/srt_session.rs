//! The SRT transport of a viewing session — the what-if transport study
//! (DESIGN.md §12).
//!
//! The paper's measured transports are both TCP: RTMP turns packet loss
//! into head-of-line *delay* (a fixed retransmission penalty per lost
//! packet), HLS hides loss behind segment-sized buffers. This module models
//! the third design point — an SRT-style unreliable datagram transport
//! from a gateway on the ingest host, with NAK/ARQ loss recovery bounded
//! by a receiver latency window: a loss is recovered in about one RTT if
//! that still fits the window, and otherwise *dropped and concealed*, so
//! late media never stalls the player the way a TCP retransmit storm does.
//!
//! The server side and the app's own traffic are [`push`](crate::push)'s,
//! the very code the RTMP transport runs over the very same RNG streams —
//! so a transport comparison is paired: it measures the transport, not
//! uplink luck — and the same player model scores QoE; the SRT player even
//! runs RTMP buffer thresholds
//! ([`PlayerConfig::srt`](crate::player::PlayerConfig::srt)), so the
//! three-way chaos sweep compares transports, not tuning. What is SRT's own
//! is here: the caller/listener handshake and its retries, datagram
//! framing, and NAK/ARQ recovery inside the latency window.
//!
//! Determinism: transport-specific draws stay in their own namespace: `srt/link` (the shared
//! Gilbert–Elliott chain discipline) for datagram fates, `srt/handshake`
//! and `srt/retx` for control-path and retransmission fates — so a session
//! is a pure function of `(seed, fault seed)` and invariant under
//! `PSCP_THREADS`. Retransmission fates in particular are a pure hash of
//! `(seq, attempt)`, never a shared draw sequence, so scaling the loss
//! config cannot shift which retransmits fail.

use crate::downlink::{Path, SendQueue, Stored, Wire};
use crate::push::{Body, Media, Meta, Push};
use crate::retry::RetryPolicy;
use crate::session::{Delivered, SessionCtx};
use pscp_media::capture::FlowKind;
use pscp_proto::filler::{self, Filler, Sink};
use pscp_proto::srt::{
    self, seq_add, seq_distance, Caller, Listener, Packet, RecvEvent, RecvTracker, RetxEntry,
    RetxQueue,
};
use pscp_simnet::fault::{FaultRng, GilbertElliott, LossConfig};
use pscp_simnet::{DatagramLink, SimDuration, SimTime};

/// Sender retransmit-queue occupancy bound, wire bytes. At ~300 kbps this
/// holds several seconds of media — comfortably more than the latency
/// window, so evictions only happen under pathological loss.
const RETX_QUEUE_CAP: usize = 768 * 1024;
/// Retransmission attempts per lost packet (first NAK plus one re-NAK);
/// each failed attempt costs another RTT against the latency window.
const MAX_RETX_ATTEMPTS: u32 = 2;

/// One message of the gateway's schedule: when it is sent, what it carries,
/// and — for video — what the player learns when all of it has arrived.
struct Msg<'a> {
    at: SimTime,
    body: Body<'a>,
    meta: Option<Meta>,
}

/// One data packet on the wire: the `chunk`-th `payload_mtu` slice of
/// message `msg`. Its sequence number is its index in the send order.
struct PktInfo {
    msg: u32,
    chunk: u32,
}

/// What the data packets of a session are written from.
struct Datagrams<'a> {
    msgs: &'a [Msg<'a>],
    pkts: &'a [PktInfo],
    initial_seq: u32,
    payload_mtu: usize,
}

/// Byte range, in a `msg_len`-byte message body, of the payload of its
/// `chunk`-th data packet.
fn chunk_range(msg_len: usize, chunk: u32, payload_mtu: usize) -> std::ops::Range<usize> {
    let from = chunk as usize * payload_mtu;
    from..msg_len.min(from + payload_mtu)
}

impl Datagrams<'_> {
    /// Byte range of packet `i`'s payload in its message's body.
    fn chunk(&self, i: usize) -> std::ops::Range<usize> {
        let PktInfo { msg, chunk } = self.pkts[i];
        chunk_range(self.msgs[msg as usize].body.len(), chunk, self.payload_mtu)
    }

    /// On-wire length of packet `i`.
    fn wire_len(&self, i: usize) -> usize {
        srt::DATA_HEADER_BYTES + self.chunk(i).len()
    }

    /// What a flow stores of packet `i`: its header and its part of the
    /// frame's header written out, the rest of its slice as one filler.
    fn stored(&self, i: usize) -> Stored {
        let (m, chunk) = (&self.msgs[self.pkts[i].msg as usize], self.chunk(i));
        let head = match m.body {
            Body::Video(f) => f.head_len(),
            Body::Audio(_) => 0,
        };
        let written = head.saturating_sub(chunk.start).min(chunk.len());
        Stored { bytes: srt::DATA_HEADER_BYTES + written, pieces: usize::from(chunk.end > head) }
    }

    /// Writes packet `i` — data header, then its slice of the message body
    /// — into `out`: the same bytes `encode_packet` produces for an owned
    /// `DataPacket`, the body's filler slice handed over, never generated
    /// here.
    fn write(&self, i: usize, out: &mut impl Sink) {
        let (msg, chunk) = (self.pkts[i].msg, self.chunk(i));
        let m = &self.msgs[msg as usize];
        let (seq, origin_ts_us) = (seq_add(self.initial_seq, i as u32), m.at.as_micros() as u32);
        match m.body {
            Body::Video(f) => {
                let body = filler::Body { head: &f.head(), tail: f.filler() };
                srt::write_data(seq, origin_ts_us, msg, body, chunk, out)
            }
            // Audio bodies are opaque zero bytes of the right size.
            Body::Audio(size) => {
                let body = filler::Body { head: &[], tail: Filler::run(0, size) };
                srt::write_data(seq, origin_ts_us, msg, body, chunk, out)
            }
        }
    }
}

/// Stationary loss probability of a Gilbert–Elliott config — the marginal
/// rate a single retransmitted packet faces on the same path.
fn stationary_loss(cfg: &LossConfig) -> f64 {
    let denom = cfg.p_good_to_bad + cfg.p_bad_to_good;
    let pi_bad = if denom > 0.0 { cfg.p_good_to_bad / denom } else { 0.0 };
    pi_bad * cfg.p_loss_bad + (1.0 - pi_bad) * cfg.p_loss_good
}

/// Delivers the session in `ctx` over SRT — or, when the gateway cannot be
/// reached within the reconnect budget, reports the instant the app gives
/// up on it (`Err`), from which the driver falls back to RTMP.
pub(crate) fn deliver(ctx: &mut SessionCtx) -> Result<Delivered, SimTime> {
    let (broadcast, join_at, config, rngs) = (ctx.broadcast, ctx.join_at, ctx.config, ctx.rngs);
    let rtt = config.network.rtt_to(&ctx.server.location());
    let faults = &config.faults;
    let fault_seed = faults.seed ^ rngs.seed();

    // --- caller/listener handshake over the lossy control path ---
    //
    // Each attempt is four packets on the wire (induction up, cookie down,
    // conclusion up, agreement down); any loss among them times the attempt
    // out and the reconnect policy backs off before the next one. Exactly
    // four fate variates are consumed per attempt, so a scaled loss config
    // fails a superset of attempts. With loss off, no chain exists, no
    // variate is drawn, and the first attempt succeeds in two RTTs.
    let policy = RetryPolicy::reconnect();
    let mut hs_ge = faults.loss.is_active().then(|| {
        GilbertElliott::new(faults.loss, FaultRng::from_label(fault_seed, "srt/handshake"))
    });
    let mut hs_backoff_rng = FaultRng::from_label(fault_seed, "srt/hs-backoff");
    let mut hs_start = join_at;
    let mut attempt: u32 = 1;
    let connected = loop {
        let attempt_lost = match hs_ge.as_mut() {
            Some(ge) => {
                let mut lost = false;
                for _ in 0..4 {
                    lost |= ge.next_lost();
                }
                lost
            }
            None => false,
        };
        if !attempt_lost {
            break true;
        }
        ctx.trace.count("fault", "srt_handshake_losses", 1);
        if attempt >= policy.max_attempts {
            break false;
        }
        ctx.trace.count("srt", "handshake_retries", 1);
        hs_start += policy.backoff(attempt - 1, &mut hs_backoff_rng);
        attempt += 1;
    };
    if !connected {
        // The gateway is unreachable at the datagram layer.
        ctx.trace.count("recovery", "srt_fallbacks", 1);
        let parent = ctx.trace.current_span();
        let (from_us, gave_up_us) = (join_at.as_micros(), hs_start.as_micros());
        ctx.trace.span(from_us, gave_up_us, "recovery", "recovery.reconnect", parent);
        ctx.trace.span(gave_up_us, gave_up_us, "recovery", "recovery.failover", parent);
        return Err(hs_start);
    }
    // Drive the real state machines for the winning attempt: the cookie
    // and agreement are the downstream handshake bytes the capture holds.
    let caller_id = (rngs.seed() as u32) | 1;
    // Drawn from the full sequence space, so sessions routinely start near
    // the 2^32 boundary and the wrap arithmetic is exercised for real.
    let initial_seq = (rngs.seed() >> 16) as u32;
    let latency_ms = (srt::DEFAULT_LATENCY_US / 1000) as u32;
    let mut caller = Caller::new(caller_id, initial_seq, latency_ms);
    let listener = Listener::new(broadcast.id.0 ^ 0x5eed_cafe);
    let induction = caller.next_packet().expect("caller starts inducing");
    let (cookie, _) = listener.on_packet(&induction).expect("own induction is valid");
    let cookie = cookie.expect("induction earns a cookie");
    let conclusion =
        caller.on_packet(&cookie).expect("listener cookie is valid").expect("conclusion follows");
    let (agreement, accepted) = listener.on_packet(&conclusion).expect("own conclusion is valid");
    let agreement = agreement.expect("conclusion earns an agreement");
    caller.on_packet(&agreement).expect("agreement is valid");
    debug_assert!(caller.connected());
    let (initial_seq, latency_ms) = accepted.expect("listener accepted the conclusion");
    let latency = SimDuration::from_millis(latency_ms as u64);
    let data_start = hs_start + rtt + rtt; // two round trips

    // --- gateway: the same ingest timeline RTMP sees, replayed from the
    // latest keyframe ingested when data starts flowing ---
    let media_server = format!("srt-{}", ctx.server.hostname());
    let push = Push::open(ctx, FlowKind::Srt, media_server.clone());
    let (flow_srt, mtu) = (push.flow_media, push.mtu);

    // --- wire: media rides the unreliable datagram path from the gateway;
    // bootstrap, chat and pictures stay on the app's TCP connections (their
    // own queue — the gateway path is provisioned separately; app-path
    // losses surface as delay, exactly like the RTMP session). ---
    let mut app_faults = ctx.link_faults("srt/app");
    let mut dglink = DatagramLink::unbounded(push.bottleneck, push.one_way_down).with_faults(
        faults,
        rngs.seed(),
        "srt/link",
    );

    // Per-(seq, attempt) retransmission fate: a pure hash against the
    // chain's stationary loss rate, so fates are independent of how many
    // NAKs other loss scales produced.
    let p_retx_loss = stationary_loss(&faults.loss);
    let retx_base = FaultRng::from_label(fault_seed, "srt/retx").next_u64();
    let retx_lost = |seq: u32, att: u32| -> bool {
        if p_retx_loss <= 0.0 {
            return false;
        }
        let key = ((seq as u64) << 8) | att as u64;
        FaultRng::new(retx_base ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15)).chance(p_retx_loss)
    };

    // --- app-side TCP flows (bootstrap + chat + pictures), same model and
    // same queue as the RTMP session ---
    let mut sends: SendQueue<()> = SendQueue::new(ctx.recording, 0, 256, 0);
    let bootstrap_done = push.queue_bootstrap(ctx, &mut sends);
    push.queue_chat(ctx, bootstrap_done, &mut sends);
    sends.sort_by_time();

    // --- gateway message schedule: video frames interleaved with audio in
    // PTS order, exactly like the RTMP path — as descriptors; a body is
    // generated when a datagram cut from it is recorded. ---
    let msg_list: Vec<Msg> = push
        .media_schedule(data_start, &ctx.broadcaster_clock)
        .map(|(at, Media { body, meta, .. })| Msg { at, body, meta })
        .collect();

    // --- transmit + NAK/ARQ ---
    //
    // Everything downstream shares one serializer: app TCP segments and
    // media datagrams interleave on the bottleneck in send order, exactly
    // like the RTMP session's single link — the transport comparison must
    // not hand SRT a second pipe for free. Media packets are processed in
    // send order; a loss is a hole the next arrival exposes as a gap, at
    // which point the receiver NAKs the missing ranges and each lost
    // packet either comes back at detect + RTT (bounded by the latency
    // window) or is abandoned — dropped and concealed, never stalled on.
    // Media capture records are buffered as (arrival, datagram) and sorted
    // by arrival before recording, because recovered datagrams genuinely
    // arrive out of order (no TCP below to serialize behind).
    struct MsgState {
        remaining: u32,
        latest: SimTime,
        dropped: bool,
    }
    enum WireItem {
        App(usize),
        Media(usize),
    }
    /// A datagram the capture host saw.
    #[derive(Clone, Copy)]
    enum Datagram {
        /// One of the two downstream handshake packets.
        Control(usize),
        /// The data packet with this index in the send order.
        Data(usize),
    }
    let payload_mtu = mtu.saturating_sub(srt::DATA_HEADER_BYTES).max(128);
    let mut records: Vec<(SimTime, Datagram)> = Vec::new();
    let mut states: Vec<MsgState> = msg_list
        .iter()
        .map(|m| MsgState {
            remaining: m.body.len().div_ceil(payload_mtu).max(1) as u32,
            latest: SimTime::ZERO,
            dropped: false,
        })
        .collect();
    let mut pkts: Vec<PktInfo> = Vec::new();
    let mut tracker = RecvTracker::new(initial_seq);
    let mut retxq = RetxQueue::new(RETX_QUEUE_CAP);
    // The merged wire schedule. The stable sort keeps push order on ties
    // (app segments first), and processing media strictly in time order is
    // what gives sequence numbers their on-the-wire meaning.
    let mut schedule: Vec<(SimTime, WireItem)> = (0..sends.len())
        .map(|i| (sends.get(i).at, WireItem::App(i)))
        .chain(msg_list.iter().enumerate().map(|(i, m)| (m.at, WireItem::Media(i))))
        .collect();
    schedule.sort_by_key(|&(at, _)| at);

    // Handshake capture: the two downstream control packets.
    let control = [cookie, agreement].map(|pkt| {
        let mut bytes = Vec::new();
        srt::encode_packet(&Packet::Control(pkt), &mut bytes);
        bytes
    });
    records.push((hs_start + rtt, Datagram::Control(0)));
    records.push((data_start, Datagram::Control(1)));

    let mut n_data_packets: u64 = 0;
    let mut n_retransmits: u64 = 0;
    let mut n_late_drops: u64 = 0;
    let mut n_evicted: u64 = 0;
    for (_, item) in &schedule {
        let msg_idx = match item {
            WireItem::App(si) => {
                // A reliable app burst: chunks share the serializer with
                // the media datagrams; losses surface as delay under the
                // per-flow monotone floor, exactly like the RTMP session.
                let path = Path { link: dglink.reliable(), faults: app_faults.as_mut(), mtu };
                sends.transmit(*si, &mut ctx.tap, path, &mut ctx.clock_rng);
                continue;
            }
            WireItem::Media(mi) => *mi,
        };
        let m = &msg_list[msg_idx];
        // Nothing of the message has left yet: what remains is all of it.
        for ci in 0..states[msg_idx].remaining {
            let wire_len =
                srt::DATA_HEADER_BYTES + chunk_range(m.body.len(), ci, payload_mtu).len();
            let pkt_idx = pkts.len();
            let seq = seq_add(initial_seq, pkt_idx as u32);
            pkts.push(PktInfo { msg: msg_idx as u32, chunk: ci });
            retxq.push(RetxEntry { seq, bytes: wire_len, origin_ts_us: m.at.as_micros() });
            n_data_packets += 1;
            let Some(arr) = dglink.send(m.at, wire_len).time() else {
                continue; // a hole: a later arrival will expose it
            };
            records.push((arr, Datagram::Data(pkt_idx)));
            {
                let st = &mut states[msg_idx];
                st.remaining -= 1;
                if arr > st.latest {
                    st.latest = arr;
                }
            }
            let RecvEvent::Gap(ranges) = tracker.on_data(seq) else {
                continue;
            };
            // One NAK packet covers all newly-detected ranges.
            ctx.trace.count("srt", "nak_sent", 1);
            ctx.trace.span(arr.as_micros(), (arr + rtt / 2).as_micros(), "srt", "srt.nak", None);
            for (range_first, range_last) in ranges {
                for i in 0..=seq_distance(range_first, range_last) {
                    let lost_seq = seq_add(range_first, i);
                    let info_idx = seq_distance(initial_seq, lost_seq) as usize;
                    let lost_msg = pkts[info_idx].msg as usize;
                    let Some(entry) = retxq.get(lost_seq) else {
                        // Evicted from the bounded queue: unrecoverable.
                        tracker.abandon(lost_seq);
                        n_evicted += 1;
                        states[lost_msg].dropped = true;
                        continue;
                    };
                    let mut candidate = arr + rtt;
                    let mut delivered_at = None;
                    for att in 0..MAX_RETX_ATTEMPTS {
                        n_retransmits += 1;
                        if retx_lost(lost_seq, att) {
                            candidate += rtt;
                            continue;
                        }
                        delivered_at = Some(candidate);
                        break;
                    }
                    let recovered = delivered_at.filter(|t_r| {
                        !srt::too_late(entry.origin_ts_us, t_r.as_micros(), latency.as_micros())
                    });
                    match recovered {
                        Some(t_r) => {
                            let ev = tracker.on_data(lost_seq);
                            debug_assert!(matches!(ev, RecvEvent::Recovered));
                            records.push((t_r, Datagram::Data(info_idx)));
                            ctx.trace.span(
                                arr.as_micros(),
                                t_r.as_micros(),
                                "srt",
                                "srt.retransmit",
                                None,
                            );
                            let st = &mut states[lost_msg];
                            st.remaining -= 1;
                            if t_r > st.latest {
                                st.latest = t_r;
                            }
                        }
                        None => {
                            // Too late for the window (or every retransmit
                            // lost): drop and conceal.
                            tracker.abandon(lost_seq);
                            n_late_drops += 1;
                            let dl = SimTime::from_micros(entry.origin_ts_us + latency.as_micros());
                            ctx.trace.span(dl.as_micros(), dl.as_micros(), "srt", "srt.drop", None);
                            states[lost_msg].dropped = true;
                        }
                    }
                }
            }
            retxq.ack_through(tracker.ack_seq());
            ctx.trace.sketch("srt", "retx_queue_pkts", retxq.len() as u64);
        }
    }

    // Player feed: a frame plays only if every packet of its message made
    // it (on the wire or via retransmit). Dropped frames — and trailing
    // losses no later arrival could expose — are concealed: the next
    // complete frame's media horizon carries playback over the hole, so a
    // drop skips media instead of stalling.
    let mut n_conceals: u64 = 0;
    let mut arrivals = Vec::new();
    for (m, st) in msg_list.iter().zip(&states) {
        let Some(meta) = &m.meta else { continue };
        if st.dropped || st.remaining > 0 {
            n_conceals += 1;
            continue;
        }
        arrivals.push(meta.arrived(st.latest));
    }
    arrivals.sort_by_key(|a| a.at);

    // Flush the buffered datagram records into the capture in arrival
    // order (the flow index requires monotone times; datagrams reorder):
    // each datagram's bytes are written here, straight into the flow.
    records.sort_by_key(|&(at, _)| at);
    let datagrams = Datagrams { msgs: &msg_list, pkts: &pkts, initial_seq, payload_mtu };
    let wire_len = |d: Datagram| match d {
        Datagram::Control(i) => control[i].len(),
        Datagram::Data(i) => datagrams.wire_len(i),
    };
    // What the flow stores: control packets, and per data packet its
    // header, its part of a frame's header and a filler slice.
    ctx.tap.reserve(flow_srt, records.len(), || {
        let mut stored = Stored::default();
        for &(_, d) in &records {
            stored += match d {
                Datagram::Control(i) => Stored { bytes: control[i].len(), pieces: 0 },
                Datagram::Data(i) => datagrams.stored(i),
            };
        }
        stored
    });
    for &(at, d) in &records {
        ctx.tap.record(
            flow_srt,
            at,
            Wire::written(wire_len(d)),
            &mut ctx.clock_rng,
            |out| match d {
                Datagram::Control(i) => out.put(&control[i]),
                Datagram::Data(i) => datagrams.write(i, out),
            },
        );
    }

    ctx.trace.count("srt", "data_packets", n_data_packets);
    if n_retransmits > 0 {
        ctx.trace.count("srt", "retransmits", n_retransmits);
        ctx.trace.count("recovery", "retransmits", n_retransmits);
    }
    if n_late_drops > 0 {
        ctx.trace.count("srt", "late_drops", n_late_drops);
    }
    if n_conceals > 0 {
        ctx.trace.count("srt", "conceals", n_conceals);
    }
    if n_evicted > 0 {
        ctx.trace.count("srt", "retx_evicted", n_evicted);
    }
    if let Some((lost, spiked)) = dglink.fault_counts() {
        ctx.trace.count("fault", "lost_packets", lost);
        ctx.trace.count("fault", "latency_spikes", spiked);
        // SRT-specific breakdown of the aggregate fault counters, so
        // datagram loss/reorder activity is visible per transport in
        // TRACE_metrics like the RTMP/HLS fault counters already are.
        ctx.trace.count("fault", "srt_lost_packets", lost);
        ctx.trace.count("fault", "srt_latency_spikes", spiked);
    }
    if dglink.lost_queue > 0 {
        ctx.trace.count("fault", "srt_queue_drops", dglink.lost_queue);
    }
    if n_data_packets > 0 {
        ctx.trace.sketch(
            "srt",
            "late_drop_ppm",
            ((n_late_drops as f64 / n_data_packets as f64) * 1e6).round() as u64,
        );
        // End-of-stream residual depth: the queue only drains on ACKs
        // piggybacked to NAK handling, so on a clean link this is the
        // cap-bounded steady state. Every SRT session observes it once,
        // which keeps the health sketch present even at zero loss; the
        // per-NAK-flush observations above layer on top under loss.
        ctx.trace.sketch("srt", "retx_queue_pkts", retxq.len() as u64);
    }

    Ok(Delivered {
        arrivals,
        fps: push.ingest.fps,
        // Handshake (including retry backoffs) until data starts flowing,
        // then buffer fill until first render.
        phases: vec![("srt", "srt.handshake", data_start), ("srt", "srt.buffering", SimTime::MAX)],
        server: media_server,
        link_faults: app_faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::NetworkSetup;
    use crate::fixture;
    use crate::session::{run, SessionConfig, SessionOutcome};
    use pscp_service::select::Protocol;
    use pscp_simnet::fault::FaultConfig;
    use pscp_simnet::RngFactory;

    fn run_over(protocol: Protocol, seed: u64, config: &SessionConfig) -> SessionOutcome {
        let rngs = RngFactory::new(seed).child("session");
        run(protocol, &fixture::broadcast(seed), SimTime::from_secs(400), config, &rngs)
    }

    fn run_session(seed: u64, config: SessionConfig) -> SessionOutcome {
        run_over(Protocol::Srt, seed, &config)
    }

    fn lossy(scale: f64) -> FaultConfig {
        FaultConfig { seed: 99, loss: FaultConfig::chaos(99, scale).loss, ..Default::default() }
    }

    #[test]
    fn unlimited_session_starts_fast_and_mostly_smooth() {
        let mut clean = 0;
        for seed in 0..10 {
            let out = run_session(seed, SessionConfig::default());
            assert_eq!(out.protocol, Protocol::Srt);
            let join = out.join_time_s().expect("playback starts");
            assert!(join < 8.0, "join={join}");
            if out.stall_ratio() < 0.01 {
                clean += 1;
            }
        }
        assert!(clean >= 6, "clean={clean}/10");
    }

    #[test]
    fn capture_holds_decodable_srt_packets() {
        let out = run_session(5, SessionConfig::default());
        let flow = out.capture.flow_of_kind(FlowKind::Srt).unwrap();
        assert!(flow.server.starts_with("srt-"), "server={}", flow.server);
        let mut data_pkts = 0;
        let mut control_pkts = 0;
        for p in flow.packets() {
            match srt::decode_packet(&p.payload.bytes()).expect("every datagram decodes") {
                (Packet::Data(d), used) => {
                    assert_eq!(used, p.payload.len());
                    assert_eq!(used, d.payload.len() + srt::DATA_HEADER_BYTES);
                    data_pkts += 1;
                }
                (Packet::Control(_), _) => control_pkts += 1,
            }
        }
        assert!(data_pkts > 1000, "data packets={data_pkts}");
        assert_eq!(control_pkts, 2, "cookie + agreement");
    }

    #[test]
    fn loss_conceals_instead_of_stalling() {
        // Heavy loss on SRT: frames are dropped/concealed, but the player
        // keeps rendering — stall ratio stays far below the loss rate.
        let out = run_session(7, SessionConfig { faults: lossy(4.0), ..Default::default() });
        assert!(out.join_time_s().is_some(), "joins under loss");
        assert!(out.stall_ratio() < 0.10, "ratio={}", out.stall_ratio());
    }

    #[test]
    fn srt_beats_rtmp_under_loss() {
        // The tentpole claim, at session granularity and *paired* (common
        // random numbers give both transports the identical broadcaster
        // and viewer path): under the full chaos preset at ≥2× loss —
        // marginal Gilbert–Elliott loss ≈ 4.8%, disconnect windows active
        // — SRT's NAK/conceal discipline within its latency window stalls
        // strictly less than RTMP, whose TCP session both inherits the
        // per-loss retransmission delay and goes dark across disconnect
        // windows that a connectionless datagram ingest shrugs off.
        let mut srt_total = 0.0;
        let mut rtmp_total = 0.0;
        for seed in 0..12 {
            let cfg = SessionConfig { faults: FaultConfig::chaos(99, 2.0), ..Default::default() };
            let s = run_session(seed, cfg.clone());
            assert_eq!(s.protocol, Protocol::Srt, "no fallback expected at 2x");
            srt_total += s.stall_ratio();
            rtmp_total += run_over(Protocol::Rtmp, seed, &cfg).stall_ratio();
        }
        assert!(
            srt_total < rtmp_total,
            "srt stall sum {srt_total} should strictly beat rtmp {rtmp_total}"
        );
        assert!(srt_total < 0.02, "srt conceals rather than stalls: {srt_total}");
    }

    #[test]
    fn determinism() {
        let run_once = || {
            let out = run_session(8, SessionConfig { faults: lossy(2.0), ..Default::default() });
            (out.player.stalls.clone(), out.player.join_time, out.capture.total_bytes())
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn faultless_srt_matches_rtmp_qoe_envelope() {
        // Without faults the transports see the same uplink and bottleneck;
        // SRT's join differs only by handshake shape.
        let out = run_session(9, SessionConfig::default());
        let join = out.join_time_s().unwrap();
        assert!(join < 8.0, "join={join}");
        assert!(out.meta().playback_latency_s.unwrap() < 8.0);
        assert!(out.rendered_fps > 10.0);
    }

    #[test]
    fn tight_bandwidth_still_stalls() {
        // The latency window cannot conjure bandwidth: below the video
        // bitrate SRT degrades too (drops + stalls), like any transport.
        let config =
            SessionConfig { network: NetworkSetup::finland_limited(0.2), ..Default::default() };
        let out = run_session(4, config);
        assert!(
            out.stall_ratio() > 0.1 || out.join_time_s().is_none(),
            "ratio={} join={:?}",
            out.stall_ratio(),
            out.join_time_s()
        );
    }
}
