//! Allocation discipline of a viewing session.
//!
//! DESIGN.md §10 claims that once buffers are warm, pumping media —
//! generate each frame body, chunk the FLV tags, packetize onto the link,
//! record the capture, dechunk the arrivals — touches the heap zero times
//! per packet; that the broadcaster side of a session and the player
//! allocate a fixed number of times however many frames they see; and that
//! a session whose capture nobody reads allocates no body buffer at all —
//! and one whose capture is kept stores its headers and framing and no
//! filler byte, each filler a generated piece, and each HLS segment and
//! chat send an item.
//! This test registers the counting allocator (`pscp_obs::alloc_count`) as
//! this binary's global allocator and falsifies each claim if a per-packet,
//! per-frame or per-arrival allocation — or a body buffer — sneaks back in.

use pscp_media::bitstream::{FrameKind, FramePayload};
use pscp_media::capture::{Flow, FlowKind};
use pscp_media::flv::VideoTag;
use pscp_obs::alloc_count::{self, CountingAlloc};
use pscp_proto::rtmp::{Chunker, Dechunker, MessageRef, MessageType};
use pscp_simnet::{GeoPoint, Link, SimDuration, SimTime};
use pscp_workload::broadcast::{Broadcast, BroadcastId, DeviceProfile};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MTU: usize = 1448;

/// One second of 30 fps video as frame descriptors (~1 kB per frame).
fn one_second_of_video() -> Vec<FramePayload> {
    (0..30u32)
        .map(|i| FramePayload {
            kind: if i == 0 { FrameKind::I } else { FrameKind::P },
            qp: 30,
            width: 320,
            height: 568,
            pts_ms: i * 33,
            ntp_s: None,
            size: 1000,
        })
        .collect()
}

/// FLV tag header + frame body of one video message.
const MSG_BYTES: u64 = 5 + 1000;

/// The session inner loop for one second of media: generate every frame
/// body into the reused scratch and chunk it into the reused wire buffer,
/// pump MTU packets through the link in one batch, record each delivery
/// into the capture flow, and dechunk the delivered bytes back into message
/// views.
#[allow(clippy::too_many_arguments)]
fn pump_one_second(
    frames: &[FramePayload],
    scratch: &mut Vec<u8>,
    chunker: &mut Chunker,
    wire: &mut Vec<u8>,
    dechunker: &mut Dechunker,
    flow: &mut Flow,
    link: &mut Link,
    at: SimTime,
) -> (u64, u64) {
    wire.clear();
    for f in frames {
        scratch.clear();
        VideoTag::write_header(f.kind == FrameKind::I, 0, scratch);
        f.encode_into(scratch);
        chunker.write_ref(
            MessageRef {
                chunk_stream_id: 6,
                timestamp: f.pts_ms,
                kind: MessageType::Video,
                stream_id: 1,
                payload: scratch,
            },
            wire,
        );
    }
    let mut packets = 0u64;
    let mut chunks = wire.chunks(MTU);
    link.enqueue_batch(at, wire.chunks(MTU).map(<[u8]>::len), |delivery| {
        let chunk = chunks.next().expect("one chunk per offered size");
        if let Some(arr) = delivery.time() {
            dechunker.feed(chunk).expect("wire bytes dechunk");
            flow.record(arr, arr.as_secs_f64(), chunk);
            packets += 1;
        }
    });
    let mut media_bytes = 0u64;
    while let Some(msg) = dechunker.next_view() {
        media_bytes += msg.payload.len() as u64;
    }
    (packets, media_bytes)
}

#[test]
fn steady_state_rtmp_pump_is_allocation_free() {
    // Sanity: the counter is live in this binary.
    let (d, _) = alloc_count::counted(|| black_box(vec![0u8; 4096]).len());
    assert!(d >= 1, "counting allocator not registered");
    assert!(alloc_count::installed());

    let frames = one_second_of_video();
    let payload_bytes = MSG_BYTES * frames.len() as u64;
    let mut scratch: Vec<u8> = Vec::new();
    let mut chunker = Chunker::new();
    let mut wire: Vec<u8> = Vec::new();
    let mut dechunker = Dechunker::new();
    let mut flow = Flow::new(FlowKind::Rtmp, "ingest".to_string());
    let mut link = Link::unbounded(10e6, SimDuration::from_millis(20));

    // Warm-up: two passes grow every buffer — the scratch and wire Vecs,
    // the link's in-flight queue, the dechunker's reassembly arenas — to
    // steady state.
    // Passes are spaced far apart so the link queue fully drains between
    // them, as it does between media bursts in a session.
    let mut at = SimTime::from_secs(10);
    for _ in 0..2 {
        let (packets, media) = pump_one_second(
            &frames,
            &mut scratch,
            &mut chunker,
            &mut wire,
            &mut dechunker,
            &mut flow,
            &mut link,
            at,
        );
        assert!(packets >= 20, "packets={packets}");
        assert_eq!(media, payload_bytes);
        at += SimDuration::from_secs(10);
    }

    // The capture flow legitimately accumulates the whole session, so the
    // session pre-sizes it once from the arena ranges (rtmp_session.rs does
    // the same before its transmit loop).
    const MEASURED_PASSES: u64 = 8;
    let packets_per_pass = wire.len().div_ceil(MTU);
    flow.reserve(
        wire.len() * MEASURED_PASSES as usize,
        packets_per_pass * MEASURED_PASSES as usize,
    );

    let (allocs, stats) = alloc_count::counted(|| {
        let mut total = (0u64, 0u64);
        for _ in 0..MEASURED_PASSES {
            let (packets, media) = pump_one_second(
                &frames,
                &mut scratch,
                &mut chunker,
                &mut wire,
                &mut dechunker,
                &mut flow,
                &mut link,
                at,
            );
            total.0 += packets;
            total.1 += media;
            at += SimDuration::from_secs(10);
        }
        total
    });
    assert!(stats.0 >= 20 * MEASURED_PASSES, "packets={}", stats.0);
    assert_eq!(stats.1, payload_bytes * MEASURED_PASSES);
    assert_eq!(allocs, 0, "steady-state pump allocated {allocs} times over {} packets", stats.0);
}

/// A 25-viewer broadcast from Istanbul, live well around every session here.
fn istanbul_broadcast() -> Broadcast {
    Broadcast {
        id: BroadcastId(5),
        location: GeoPoint::new(41.01, 28.98),
        city: "Istanbul",
        start: SimTime::from_secs(100),
        duration: SimDuration::from_secs(1800),
        content: pscp_media::content::ContentClass::Indoor,
        device: DeviceProfile::Modern,
        audio: pscp_media::audio::AudioBitrate::Kbps32,
        avg_viewers: 25.0,
        replay_available: true,
        private: false,
        location_public: true,
        viewer_seed: 5,
        target_bitrate_bps: 300_000.0,
    }
}

/// The broadcaster side of a push session — encoder, audio encoder, uplink,
/// the two ingest timelines — allocates the same handful of times for 8 s
/// of media as for 68 s: frames stay descriptors, and both timelines are
/// sized up front.
#[test]
fn broadcaster_prologue_allocations_do_not_grow_with_frames() {
    use pscp_client::broadcaster::IngestTimeline;
    use pscp_client::uplink::UplinkConfig;
    use pscp_simnet::{RngFactory, WallClock};

    let broadcast = istanbul_broadcast();
    // No uplink outages: their list is the one thing that legitimately
    // grows with the window.
    let uplink = UplinkConfig { outage_rate: 1e-9, ..Default::default() };
    let allocs_for = |secs: u64| {
        let rngs = RngFactory::new(9).child("prologue");
        let mut enc_rng = rngs.stream("rtmp/encoder");
        let mut clock_rng = rngs.stream("rtmp/clocks");
        let clock = WallClock::ntp_synced(&mut clock_rng);
        let start = SimTime::from_secs(400);
        let (allocs, ingest) = alloc_count::counted(|| {
            IngestTimeline::simulate(
                &broadcast,
                &uplink,
                start..start + SimDuration::from_secs(secs),
                SimDuration::from_millis(20),
                &clock,
                &mut enc_rng,
                &mut clock_rng,
            )
        });
        (allocs, ingest.video.len())
    };
    let (short, short_frames) = allocs_for(8);
    let (long, long_frames) = allocs_for(68);
    assert!(short_frames > 200 && long_frames > 8 * short_frames, "{short_frames} {long_frames}");
    assert!(alloc_count::installed());
    assert_eq!(
        long, short,
        "{long} allocations for {long_frames} frames, {short} for {short_frames}"
    );
    assert!(long <= 8, "prologue allocated {long} times");
}

/// The player's buffer walk allocates its latency-anchor list and nothing
/// per arrival: played-through anchors are retired with a cursor, not by
/// rebuilding the list, and the latency samples fold into a running sum
/// and count. Measured: 1 allocation at 500 arrivals and at 2,000.
#[test]
fn playback_allocations_do_not_grow_with_arrivals() {
    use pscp_client::player::{run_playback, MediaArrival, PlayerConfig};

    let allocs_for = |n: u64| {
        // Media arrives 2 s ahead of real time over the whole session, every
        // arrival stamped: each one pushes an anchor and plays through one.
        let step_us = 60_000_000 / n;
        let arrivals: Vec<MediaArrival> = (0..n)
            .map(|i| MediaArrival {
                at: SimTime::from_micros(i * step_us),
                media_end_s: (i * step_us) as f64 / 1e6 + 2.0,
                capture_wall_s: Some((i * step_us) as f64 / 1e6 - 0.5),
            })
            .collect();
        let (allocs, log) = alloc_count::counted(|| {
            run_playback(SimTime::ZERO, SimDuration::from_secs(60), PlayerConfig::rtmp(), &arrivals)
        });
        assert!(u64::from(log.latency_n) > n * 9 / 10, "{}", log.latency_n);
        allocs
    };
    let (few, many) = (allocs_for(500), allocs_for(2000));
    assert!(alloc_count::installed());
    assert_eq!(many, few, "{many} allocations for 2000 arrivals, {few} for 500");
    assert!(many <= 1, "playback allocated {many} times");
}

/// Runs one default 60 s session over `protocol`, captured and uncaptured,
/// and pins both: allocation events at most `max_allocs` (captured,
/// uncaptured) and bytes at most `max_bytes` (captured, uncaptured). The
/// uncaptured pin fails if a body buffer sneaks back into a session whose
/// capture nobody reads; the captured one if a kept capture goes back to
/// writing its fillers, segments or chat out. A kept capture stores —
/// writes out — at most 5 % of its on-wire bytes: headers, framing and
/// requests, while every frame's filler, audio body and stuffing is a
/// piece, and every fetched segment and chat send an item.
fn pin_whole_session(
    protocol: pscp_service::select::Protocol,
    max_allocs: (u64, u64),
    max_bytes: (u64, u64),
) {
    use pscp_client::session::{run, run_uncaptured, SessionConfig};
    use pscp_client::SessionOutcome;
    use pscp_simnet::RngFactory;

    let broadcast = istanbul_broadcast();
    let config = SessionConfig::default();
    let rngs = RngFactory::new(9).child("whole-session");
    let join_at = SimTime::from_secs(400);
    let measure = |run: &dyn Fn() -> SessionOutcome| {
        let (bytes, (allocs, outcome)) = alloc_count::counted_bytes(|| alloc_count::counted(run));
        assert!(outcome.join_time_s().is_some());
        // What the capture stores, and what it stands for on the wire.
        let stored: usize = outcome.capture.flows.iter().map(Flow::stored_bytes).sum();
        (allocs, bytes, stored as u64, outcome.capture.total_bytes() as u64)
    };
    let (full_allocs, full_bytes, stored, on_wire) =
        measure(&|| run(protocol, &broadcast, join_at, &config, &rngs));
    let (allocs, bytes, _, _) = measure(&|| {
        let mut trace = pscp_obs::Trace::disabled();
        run_uncaptured(protocol, &broadcast, join_at, &config, &rngs, &mut trace)
    });
    assert!(alloc_count::installed());
    let report = format!(
        "{protocol:?}: full {full_allocs} allocations / {full_bytes} bytes (the capture stores \
         {stored} of its {on_wire} on-wire bytes), uncaptured {allocs} allocations / {bytes} bytes"
    );
    assert!(full_allocs <= max_allocs.0 && allocs <= max_allocs.1, "{report}");
    assert!(full_bytes <= max_bytes.0 && bytes <= max_bytes.1, "{report}");
    assert!(stored * 20 <= on_wire, "{report}");
}

/// A whole default 60 s RTMP session, both ways. The allocation counts pin
/// what is left per session (the chat event list, the send queue, the
/// capture index): a chat send is an item of the session's chat list,
/// written only when a kept capture is read, so no message builds a
/// `String` or a frame; a media message's filler is a piece. Measured, in
/// debug and release builds alike: full 72 allocations / 1,811,990 bytes
/// (the capture stores 79,986 of its 7,146,816 on-wire bytes, 1.1 %);
/// uncaptured 60 / 1,348,044. Each pinned at + 10 %, or where an earlier
/// pin was tighter, there.
#[test]
fn whole_session_allocations_are_pinned_in_both_modes() {
    pin_whole_session(pscp_service::select::Protocol::Rtmp, (78, 62), (1_986_113, 1_491_450));
}

/// The HLS twin: a fetched segment goes into a kept capture as its
/// response head and an item of the session's segment list, muxed only
/// when the capture is read — so a captured session holds no TS byte and
/// an uncaptured one no segment byte at all. Measured: full 1,498
/// allocations / 1,181,219 bytes (stores 13,550 of 7,654,758 on-wire
/// bytes, 0.2 %); uncaptured 1,466 / 1,121,228. Each pinned at + 10 %, or
/// where an earlier pin was tighter, there.
#[test]
fn whole_hls_session_writes_a_fetched_segment_once() {
    pin_whole_session(pscp_service::select::Protocol::Hls, (1_647, 1_620), (1_293_832, 1_233_645));
}

/// The SRT twin: its app flows share `Push::queue_chat` and the send queue
/// with RTMP, and its media datagrams are cut from descriptors, each data
/// packet's slice of a body a piece. Measured: full 145 allocations /
/// 3,406,368 bytes (stores 103,332 of 7,170,162 on-wire bytes, 1.4 %);
/// uncaptured 123 / 3,133,844. Each pinned at + 10 %, or where an earlier
/// pin was tighter, there.
#[test]
fn whole_srt_session_allocations_are_pinned_in_both_modes() {
    pin_whole_session(pscp_service::select::Protocol::Srt, (159, 135), (3_739_929, 3_447_052));
}

/// What a session hands its fold: the heap of a default uncaptured outcome
/// — the bytes its `clone()` requests — is a few dozen bytes (the server
/// label and any stalls), so a batch of them in `Teleport::execute` costs
/// next to nothing. Measured:
/// RTMP 35 B, HLS 22 B, SRT 39 B; pinned at 512 B.
#[test]
fn uncaptured_outcome_is_lean() {
    use pscp_client::session::{run_uncaptured, SessionConfig};
    use pscp_service::select::Protocol;
    use pscp_simnet::RngFactory;

    let broadcast = istanbul_broadcast();
    let rngs = RngFactory::new(9).child("whole-session");
    for protocol in [Protocol::Rtmp, Protocol::Hls, Protocol::Srt] {
        let mut trace = pscp_obs::Trace::disabled();
        let outcome = run_uncaptured(
            protocol,
            &broadcast,
            SimTime::from_secs(400),
            &SessionConfig::default(),
            &rngs,
            &mut trace,
        );
        assert!(outcome.player.latency_n > 0, "{protocol:?}: no latency sample");
        let (bytes, _) = alloc_count::counted_bytes(|| outcome.clone());
        assert!(alloc_count::installed());
        assert!(bytes <= 512, "{protocol:?}: an uncaptured outcome holds {bytes} heap bytes");
    }
}
