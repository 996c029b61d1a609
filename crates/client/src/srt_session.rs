//! End-to-end SRT viewing session — the what-if transport study
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
//! The pipeline mirrors [`rtmp_session`](crate::rtmp_session): encoder and
//! glitchy uplink feed the ingest host, the gateway replays from the latest
//! keyframe and pushes live, and the same player model scores QoE — the
//! SRT player even runs RTMP buffer thresholds
//! ([`PlayerConfig::srt`](crate::player::PlayerConfig::srt)), so the
//! three-way chaos sweep compares transports, not tuning.
//!
//! Determinism: every random choice comes from labelled streams. The
//! broadcaster-side streams deliberately reuse the *RTMP* labels
//! (`rtmp/encoder`, `rtmp/net`, `rtmp/clocks`) as common random numbers:
//! an SRT session of seed `s` sees the exact encoder, uplink-glitch and
//! chat draws its RTMP counterpart would, so a transport comparison is
//! paired — it measures the transport, not uplink luck. Transport-specific
//! draws stay in their own namespace: `srt/link` (the shared
//! Gilbert–Elliott chain discipline) for datagram fates, `srt/handshake`
//! and `srt/retx` for control-path and retransmission fates — so a session
//! is a pure function of `(seed, fault seed)` and invariant under
//! `PSCP_THREADS`. Retransmission fates in particular are a pure hash of
//! `(seq, attempt)`, never a shared draw sequence, so scaling the loss
//! config cannot shift which retransmits fail.

use crate::broadcaster::IngestTimeline;
use crate::chat_client;
use crate::downlink::{Arena, Recording, SendQueue, Tap};
use crate::player::{run_playback, MediaArrival};
use crate::retry::RetryPolicy;
use crate::session::{PlaybackMetaReport, SessionConfig, SessionOutcome};
use pscp_media::capture::FlowKind;
use pscp_proto::srt::{
    self, seq_add, seq_distance, Caller, Listener, Packet, RecvEvent, RecvTracker, RetxEntry,
    RetxQueue,
};
use pscp_service::ingest::assign_server;
use pscp_service::select::Protocol;
use pscp_simnet::fault::{FaultRng, GilbertElliott, LinkFaults, LossConfig};
use pscp_simnet::{DatagramLink, RngFactory, SimDuration, SimTime, WallClock};
use pscp_workload::broadcast::Broadcast;

/// Small per-message gateway forwarding delay.
const SERVER_FORWARD: SimDuration = SimDuration::from_millis(5);
/// How much already-uploaded media the gateway replays from (at most one
/// GOP back to the latest keyframe, so playback can start immediately).
const WARMUP: SimDuration = SimDuration::from_secs(6);
/// Sender retransmit-queue occupancy bound, wire bytes. At ~300 kbps this
/// holds several seconds of media — comfortably more than the latency
/// window, so evictions only happen under pathological loss.
const RETX_QUEUE_CAP: usize = 768 * 1024;
/// Retransmission attempts per lost packet (first NAK plus one re-NAK);
/// each failed attempt costs another RTT against the latency window.
const MAX_RETX_ATTEMPTS: u32 = 2;

/// Runs one SRT session: the viewer joins `broadcast` at absolute time
/// `join_at` and watches for `config.watch`.
pub fn run(
    broadcast: &Broadcast,
    join_at: SimTime,
    config: &SessionConfig,
    rngs: &RngFactory,
) -> SessionOutcome {
    run_traced(broadcast, join_at, config, rngs, &mut pscp_obs::Trace::disabled())
}

/// Stationary loss probability of a Gilbert–Elliott config — the marginal
/// rate a single retransmitted packet faces on the same path.
fn stationary_loss(cfg: &LossConfig) -> f64 {
    let denom = cfg.p_good_to_bad + cfg.p_bad_to_good;
    let pi_bad = if denom > 0.0 { cfg.p_good_to_bad / denom } else { 0.0 };
    pi_bad * cfg.p_loss_bad + (1.0 - pi_bad) * cfg.p_loss_good
}

/// [`run`] plus per-session instrumentation into `trace` (no-ops when the
/// trace is disabled; the simulation itself is identical either way).
pub fn run_traced(
    broadcast: &Broadcast,
    join_at: SimTime,
    config: &SessionConfig,
    rngs: &RngFactory,
    trace: &mut pscp_obs::Trace,
) -> SessionOutcome {
    simulate(broadcast, join_at, config, rngs, trace, Recording::Full)
}

/// The session itself. With [`Recording::Counted`] the returned capture
/// holds every packet's time and length but no bytes (DESIGN.md §10,
/// "Uncaptured sessions"); every other field is what `Full` returns.
pub(crate) fn simulate(
    broadcast: &Broadcast,
    join_at: SimTime,
    config: &SessionConfig,
    rngs: &RngFactory,
    trace: &mut pscp_obs::Trace,
    recording: Recording,
) -> SessionOutcome {
    // Common random numbers with the RTMP path (see module docs): the
    // broadcaster side replays the exact draws an RTMP session of this seed
    // makes, so the transports differ only in transport.
    let mut enc_rng = rngs.stream("rtmp/encoder");
    let mut net_rng = rngs.stream("rtmp/net");
    let mut clock_rng = rngs.stream("rtmp/clocks");

    let broadcaster_clock = WallClock::ntp_synced(&mut clock_rng);
    let capture_clock = WallClock::ntp_synced(&mut clock_rng);

    let server = assign_server(&broadcast.location, broadcast.id.0);
    let prop_up = broadcast.location.propagation_to(&server.location());
    let rtt = config.network.rtt_to(&server.location());
    let faults = &config.faults;
    let fault_seed = faults.seed ^ rngs.seed();
    crate::session::trace_session_start(
        trace,
        "srt",
        broadcast.id,
        broadcast.viewers_at(join_at),
        join_at.as_micros(),
        config,
    );

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
        trace.count("fault", "srt_handshake_losses", 1);
        if attempt >= policy.max_attempts {
            break false;
        }
        trace.count("srt", "handshake_retries", 1);
        hs_start += policy.backoff(attempt - 1, &mut hs_backoff_rng);
        attempt += 1;
    };
    if !connected {
        // The gateway is unreachable at the datagram layer; the app falls
        // back to plain RTMP against the same ingest host, exactly like the
        // teleport driver's outage failover — the wait so far is charged to
        // the join clock.
        trace.count("recovery", "srt_fallbacks", 1);
        let parent = trace.current_span();
        trace.span(
            join_at.as_micros(),
            hs_start.as_micros(),
            "recovery",
            "recovery.reconnect",
            parent,
        );
        trace.span(
            hs_start.as_micros(),
            hs_start.as_micros(),
            "recovery",
            "recovery.failover",
            parent,
        );
        let waited = hs_start.saturating_since(join_at);
        let mut outcome =
            crate::rtmp_session::simulate(broadcast, hs_start, config, rngs, trace, recording);
        if let Some(j) = outcome.player.join_time {
            outcome.player.join_time = Some(j + waited);
        }
        return outcome;
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

    // --- broadcaster side: encode + upload (the same timeline RTMP sees) ---
    let sim_start = join_at - WARMUP;
    let end = join_at + config.watch + SimDuration::from_secs(2);
    let ingest = IngestTimeline::simulate(
        broadcast,
        &config.uplink,
        sim_start..end,
        prop_up,
        &broadcaster_clock,
        &mut enc_rng,
        &mut clock_rng,
    );
    let (fps, video_in, audio_in) = (ingest.fps, &ingest.video, &ingest.audio);

    // --- gateway: replay from the latest keyframe ingested when data
    // starts flowing ---
    let start_idx = ingest.replay_start(data_start);

    // --- wire: media rides the unreliable datagram path from the gateway;
    // bootstrap, chat and pictures stay on the app's TCP connections (their
    // own queue — the gateway path is provisioned separately; app-path
    // losses surface as delay, exactly like the RTMP session). ---
    let mut tap = Tap::new(
        &capture_clock,
        LinkFaults::active(faults).then(|| LinkFaults::new(faults, rngs.seed(), "srt/app")),
    );
    let flow_srt = tap.capture.open_flow(FlowKind::Srt, format!("srt-{}", server.hostname()));
    let flow_misc = tap.capture.open_flow(FlowKind::AppMisc, "api.periscope.tv");
    let flow_chat = tap.capture.open_flow(FlowKind::Chat, "chatman.periscope.tv");
    let flow_pics =
        config.chat_on.then(|| tap.capture.open_flow(FlowKind::PictureHttp, "s3.amazonaws.com"));
    let bottleneck = config.network.bottleneck_bps();
    let one_way_down =
        server.location().propagation_to(&config.network.location) + config.network.access_rtt / 2;
    let mut dglink = DatagramLink::unbounded(bottleneck, one_way_down).with_faults(
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
    let mut sends: SendQueue<()> = SendQueue::new(recording, 64 * 1024, 256);
    let overhead_bytes = pscp_simnet::dist::lognormal(&mut net_rng, (900_000f64).ln(), 0.7)
        .clamp(150_000.0, 4_000_000.0) as usize;
    sends.push(join_at + config.network.access_rtt, flow_misc, &[], 0, overhead_bytes, ());
    let bootstrap_done = join_at
        + config.network.access_rtt
        + SimDuration::from_secs_f64(overhead_bytes as f64 * 8.0 / bottleneck);
    for ev in chat_client::events(broadcast, join_at, join_at + config.watch, config, &mut net_rng)
    {
        let (flow, at) = match ev.kind {
            FlowKind::Chat => (flow_chat, ev.at),
            FlowKind::PictureHttp => match flow_pics {
                Some(f) => (f, ev.at.max(bootstrap_done)),
                None => continue,
            },
            _ => continue,
        };
        sends.push(at, flow, &ev.bytes.head, ev.bytes.fill, ev.bytes.pad, ());
    }
    sends.sort_by_time();
    let mtu = config.network.mtu.max(256);

    // --- gateway message schedule: video frames interleaved with audio in
    // PTS order, exactly like the RTMP path. Message bodies live in one
    // arena (audio bodies are opaque zero bytes of the right size). ---
    struct Meta {
        media_end_s: f64,
        capture_wall_s: f64,
    }
    struct Msg {
        at: SimTime,
        start: usize,
        end: usize,
        meta: Option<Meta>,
    }
    let mut bodies = Arena::new(
        recording,
        video_in.iter().map(|f| f.frame.size).sum::<usize>()
            + audio_in.iter().map(|&(_, _, size)| size).sum::<usize>(),
    );
    let mut msg_list: Vec<Msg> = Vec::new();
    let first_pts = video_in.get(start_idx).map(|f| f.frame.pts_ms).unwrap_or(0);
    let frame_dur_s = 1.0 / fps;
    let mut ai =
        audio_in.iter().position(|&(_, pts, _)| pts >= first_pts).unwrap_or(audio_in.len());
    for f in &video_in[start_idx..] {
        let send_at = f.a_in.max(data_start) + SERVER_FORWARD;
        if send_at >= end {
            break;
        }
        while ai < audio_in.len() && audio_in[ai].1 <= f.frame.pts_ms {
            let (a_arr, _pts, size) = audio_in[ai];
            ai += 1;
            let a_send = a_arr.max(data_start) + SERVER_FORWARD;
            if a_send >= end {
                continue;
            }
            let body = bodies.extend_with(size, |bodies| bodies.resize(bodies.len() + size, 0));
            msg_list.push(Msg { at: a_send, start: body.start, end: body.end, meta: None });
        }
        let body = bodies.extend_with(f.frame.size, |bodies| f.frame.encode_into(bodies));
        msg_list.push(Msg {
            at: send_at,
            start: body.start,
            end: body.end,
            meta: Some(Meta {
                media_end_s: (f.frame.pts_ms - first_pts) as f64 / 1000.0 + frame_dur_s,
                capture_wall_s: broadcaster_clock.read_exact(f.t_cap),
            }),
        });
    }

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
    // Wire bytes live in one arena; media capture records are buffered as
    // ranges and sorted by arrival before recording, because recovered
    // datagrams genuinely arrive out of order (no TCP below to serialize
    // behind).
    struct MsgState {
        remaining: u32,
        latest: SimTime,
        dropped: bool,
    }
    struct PktInfo {
        msg: u32,
        start: usize,
        end: usize,
    }
    enum WireItem {
        App(usize),
        Media(usize),
    }
    let payload_mtu = mtu.saturating_sub(srt::DATA_HEADER_BYTES).max(128);
    let mut wire = Arena::new(
        recording,
        bodies.len() + (bodies.len() / payload_mtu + 2) * srt::DATA_HEADER_BYTES,
    );
    let mut records: Vec<(SimTime, usize, usize)> = Vec::new();
    let mut states: Vec<MsgState> = msg_list
        .iter()
        .map(|m| MsgState {
            remaining: (m.end - m.start).div_ceil(payload_mtu).max(1) as u32,
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
    let mut schedule: Vec<(SimTime, WireItem)> = sends
        .iter()
        .enumerate()
        .map(|(i, s)| (s.at, WireItem::App(i)))
        .chain(msg_list.iter().enumerate().map(|(i, m)| (m.at, WireItem::Media(i))))
        .collect();
    schedule.sort_by_key(|&(at, _)| at);

    // Handshake capture: the two downstream control packets.
    let mut control = Vec::new();
    for (pkt, at) in
        [(Packet::Control(cookie), hs_start + rtt), (Packet::Control(agreement), data_start)]
    {
        control.clear();
        srt::encode_packet(&pkt, &mut control);
        let pkt = wire.extend(&control);
        records.push((at, pkt.start, pkt.end));
    }

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
                let send = sends.get(*si);
                let link = dglink.reliable();
                tap.transmit(link, send.at, send.flow, send.payload, mtu, &mut clock_rng);
                continue;
            }
            WireItem::Media(mi) => *mi,
        };
        let m = &msg_list[msg_idx];
        let body_len = m.end - m.start;
        let n_chunks = body_len.div_ceil(payload_mtu).max(1) as u32;
        for ci in 0..n_chunks as usize {
            let chunk = m.start + ci * payload_mtu..m.start + body_len.min((ci + 1) * payload_mtu);
            let seq = seq_add(initial_seq, pkts.len() as u32);
            // Data header + payload straight into the arena — the same
            // bytes `encode_packet` produces for an owned `DataPacket`,
            // without the per-packet payload Vec.
            let pkt = wire.extend_with(srt::DATA_HEADER_BYTES + chunk.len(), |wire| {
                wire.push(0); // TYPE_DATA
                wire.extend_from_slice(&seq.to_be_bytes());
                wire.extend_from_slice(&(m.at.as_micros() as u32).to_be_bytes());
                wire.extend_from_slice(&(msg_idx as u32).to_be_bytes());
                wire.extend_from_slice(&(chunk.len() as u16).to_be_bytes());
                wire.extend_from_slice(bodies.bytes(chunk.clone()));
            });
            let (start, pkt_end) = (pkt.start, pkt.end);
            pkts.push(PktInfo { msg: msg_idx as u32, start, end: pkt_end });
            retxq.push(RetxEntry { seq, bytes: pkt_end - start, origin_ts_us: m.at.as_micros() });
            n_data_packets += 1;
            let Some(arr) = dglink.send(m.at, pkt_end - start).time() else {
                continue; // a hole: a later arrival will expose it
            };
            records.push((arr, start, pkt_end));
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
            trace.count("srt", "nak_sent", 1);
            trace.span(arr.as_micros(), (arr + rtt / 2).as_micros(), "srt", "srt.nak", None);
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
                            records.push((t_r, pkts[info_idx].start, pkts[info_idx].end));
                            trace.span(
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
                            trace.span(dl.as_micros(), dl.as_micros(), "srt", "srt.drop", None);
                            states[lost_msg].dropped = true;
                        }
                    }
                }
            }
            retxq.ack_through(tracker.ack_seq());
            trace.sketch("srt", "retx_queue_pkts", retxq.len() as u64);
        }
    }

    // Player feed: a frame plays only if every packet of its message made
    // it (on the wire or via retransmit). Dropped frames — and trailing
    // losses no later arrival could expose — are concealed: the next
    // complete frame's media horizon carries playback over the hole, so a
    // drop skips media instead of stalling.
    let mut n_conceals: u64 = 0;
    let mut arrivals: Vec<MediaArrival> = Vec::new();
    for (m, st) in msg_list.iter().zip(&states) {
        let Some(meta) = &m.meta else { continue };
        if st.dropped || st.remaining > 0 {
            n_conceals += 1;
            continue;
        }
        arrivals.push(MediaArrival {
            at: st.latest,
            media_end_s: meta.media_end_s,
            capture_wall_s: Some(meta.capture_wall_s),
        });
    }
    arrivals.sort_by_key(|a| a.at);

    // Flush the buffered datagram records into the capture in arrival
    // order (the flow index requires monotone times; datagrams reorder).
    records.sort_by_key(|&(at, _, _)| at);
    tap.capture.flows[flow_srt]
        .reserve(records.iter().map(|&(_, s, e)| wire.literal_len(s..e)).sum(), records.len());
    for &(at, s, e) in &records {
        tap.record(flow_srt, at, wire.payload(s..e, 0, 0), &mut clock_rng);
    }
    let Tap { capture, faults: app_faults, .. } = tap;

    trace.count("srt", "data_packets", n_data_packets);
    if n_retransmits > 0 {
        trace.count("srt", "retransmits", n_retransmits);
        trace.count("recovery", "retransmits", n_retransmits);
    }
    if n_late_drops > 0 {
        trace.count("srt", "late_drops", n_late_drops);
    }
    if n_conceals > 0 {
        trace.count("srt", "conceals", n_conceals);
    }
    if n_evicted > 0 {
        trace.count("srt", "retx_evicted", n_evicted);
    }
    if let Some((lost, spiked)) = dglink.fault_counts() {
        trace.count("fault", "lost_packets", lost);
        trace.count("fault", "latency_spikes", spiked);
        // SRT-specific breakdown of the aggregate fault counters, so
        // datagram loss/reorder activity is visible per transport in
        // TRACE_metrics like the RTMP/HLS fault counters already are.
        trace.count("fault", "srt_lost_packets", lost);
        trace.count("fault", "srt_latency_spikes", spiked);
    }
    if dglink.lost_queue > 0 {
        trace.count("fault", "srt_queue_drops", dglink.lost_queue);
    }
    if let Some(lf) = &app_faults {
        trace.count("fault", "lost_packets", lf.lost);
        trace.count("fault", "latency_spikes", lf.spiked);
        trace.count("recovery", "retransmits", lf.lost);
    }
    if n_data_packets > 0 {
        trace.sketch(
            "srt",
            "late_drop_ppm",
            ((n_late_drops as f64 / n_data_packets as f64) * 1e6).round() as u64,
        );
        // End-of-stream residual depth: the queue only drains on ACKs
        // piggybacked to NAK handling, so on a clean link this is the
        // cap-bounded steady state. Every SRT session observes it once,
        // which keeps the health sketch present even at zero loss; the
        // per-NAK-flush observations above layer on top under loss.
        trace.sketch("srt", "retx_queue_pkts", retxq.len() as u64);
    }

    let log = run_playback(join_at, config.watch, config.player_srt, &arrivals);
    // Join decomposition: handshake (including retry backoffs) until data
    // starts flowing, then buffer fill until first render. The two child
    // spans tile [join_at, first_frame] exactly, so they sum to the join
    // time under the teleport driver's session root.
    if let Some(j) = log.join_time {
        let parent = trace.current_span();
        let first_frame = join_at + j;
        let handshake_end = data_start.min(first_frame);
        trace.span(join_at.as_micros(), handshake_end.as_micros(), "srt", "srt.handshake", parent);
        trace.span(
            handshake_end.as_micros(),
            first_frame.as_micros(),
            "srt",
            "srt.buffering",
            parent,
        );
    }
    log.record_events(join_at, trace);
    crate::session::trace_session_end(trace, (join_at + config.watch).as_micros(), &log, &capture);
    let meta = PlaybackMetaReport {
        n_stalls: log.n_stalls(),
        avg_stall_time_s: log.avg_stall_s(),
        playback_latency_s: log.mean_latency_s(),
    };
    let rendered_fps = crate::rtmp_session::rendered_fps(fps, config.device, &log);
    SessionOutcome {
        broadcast_id: broadcast.id,
        protocol: Protocol::Srt,
        device: config.device,
        bandwidth_limit_bps: config.network.tc_limit_bps,
        player: log,
        capture,
        meta,
        viewers_at_join: broadcast.viewers_at(join_at),
        rendered_fps,
        server: format!("srt-{}", server.hostname()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::NetworkSetup;
    use pscp_media::audio::AudioBitrate;
    use pscp_media::content::ContentClass;
    use pscp_simnet::fault::FaultConfig;
    use pscp_simnet::GeoPoint;
    use pscp_workload::broadcast::{BroadcastId, DeviceProfile};

    fn test_broadcast(seed: u64) -> Broadcast {
        Broadcast {
            id: BroadcastId(seed),
            location: GeoPoint::new(41.01, 28.98), // Istanbul
            city: "Istanbul",
            start: SimTime::from_secs(100),
            duration: SimDuration::from_secs(1800),
            content: ContentClass::Indoor,
            device: DeviceProfile::Modern,
            audio: AudioBitrate::Kbps32,
            avg_viewers: 15.0,
            replay_available: true,
            private: false,
            location_public: true,
            viewer_seed: seed,
            target_bitrate_bps: 300_000.0,
        }
    }

    fn run_session(seed: u64, config: SessionConfig) -> SessionOutcome {
        let b = test_broadcast(seed);
        let rngs = RngFactory::new(seed).child("session");
        run(&b, SimTime::from_secs(400), &config, &rngs)
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
            match srt::decode_packet(p.payload.literal()).expect("every datagram decodes") {
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
            let b = test_broadcast(seed);
            let rngs = RngFactory::new(seed).child("session");
            rtmp_total +=
                crate::rtmp_session::run(&b, SimTime::from_secs(400), &cfg, &rngs).stall_ratio();
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
        assert!(out.meta.playback_latency_s.unwrap() < 8.0);
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
