//! Full-content capture pin.
//!
//! A capture may store traffic however it likes, but what it *means* — per
//! flow its kind and server, per packet the arrival time, the wall stamp
//! and every payload byte — is part of the determinism contract. This suite
//! hashes exactly that over RTMP/HLS/SRT × six session configurations on
//! the medium population's most- and mid-viewed broadcasts and pins the
//! result. The constant was produced by the code that stored every byte of
//! every packet; a storage change must reproduce it unchanged.

use periscope_repro::client::device::NetworkSetup;
use periscope_repro::client::session::{self, SessionConfig};
use periscope_repro::client::{replay_session, SessionOutcome};
use periscope_repro::par;
use periscope_repro::service::select::Protocol;
use periscope_repro::simnet::fault::FaultConfig;
use periscope_repro::simnet::{RngFactory, SimDuration, SimTime};
use periscope_repro::workload::broadcast::Broadcast;
use periscope_repro::workload::population::{Population, PopulationConfig};

const PINNED: u64 = 0x98d2_3c43_1c93_10b2;

/// Replay (VOD) sessions of one ended broadcast, unlimited and `tc` 1 Mbps.
const PINNED_REPLAY: u64 = 0x99af_974b_7946_cb2f;

const JOIN_AT: SimTime = SimTime::from_secs(3600);

/// Order-sensitive 64-bit mix, eight bytes a step (byte-wise FNV over a
/// few hundred MB is too slow for an unoptimised test build).
struct Mix(u64);

impl Mix {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        for &b in words.remainder() {
            self.word(u64::from(b));
        }
    }
}

fn capture_hash(outcome: &SessionOutcome) -> u64 {
    let mut mix = Mix(0xcbf2_9ce4_8422_2325);
    for flow in &outcome.capture.flows {
        mix.word(flow.kind as u64);
        mix.bytes(flow.server.as_bytes());
        mix.word(flow.packet_count() as u64);
        mix.word(flow.byte_count() as u64);
        for p in flow.packets() {
            mix.word(p.at.as_micros());
            mix.word(p.wall_ts.to_bits());
            mix.bytes(&p.payload.bytes());
        }
    }
    mix.0
}

fn configs() -> Vec<(&'static str, SessionConfig, bool)> {
    let d = SessionConfig::default;
    vec![
        ("default", d(), false),
        ("tc-1mbps", SessionConfig { network: NetworkSetup::finland_limited(1.0), ..d() }, false),
        ("chat-off", SessionConfig { chat_on: false, ..d() }, false),
        ("picture-cache", SessionConfig { picture_cache: true, ..d() }, false),
        ("chaos-2x", SessionConfig { faults: FaultConfig::chaos(7, 2.0), ..d() }, false),
        ("private", d(), true),
    ]
}

#[test]
fn materialised_capture_content_is_pinned() {
    let population = Population::generate(PopulationConfig::medium(), &RngFactory::new(2016));
    let mut live: Vec<&Broadcast> = population
        .live_at(JOIN_AT)
        .into_iter()
        .filter(|b| !b.private && b.is_live_at(JOIN_AT + SessionConfig::default().watch))
        .collect();
    live.sort_by_key(|b| (std::cmp::Reverse(b.viewers_at(JOIN_AT)), b.id.0));
    let picks = [("most-viewed", live[0]), ("mid-viewed", live[live.len() / 2])];
    assert!(picks[0].1.viewers_at(JOIN_AT) > 100, "the head broadcast carries a full chat room");

    let transports = [("rtmp", Protocol::Rtmp), ("hls", Protocol::Hls), ("srt", Protocol::Srt)];
    let mut cells: Vec<(String, Protocol, Broadcast, SessionConfig)> = Vec::new();
    for (pick, broadcast) in picks {
        for (transport, protocol) in transports {
            for (name, config, private) in configs() {
                let broadcast = Broadcast { private, ..broadcast.clone() };
                cells.push((format!("{pick}/{transport}/{name}"), protocol, broadcast, config));
            }
        }
    }
    // Thread count 0 = `PSCP_THREADS`: the pin must hold at any worker count.
    let hashes = par::indexed_map(&cells, 0, |i, (_, protocol, broadcast, config)| {
        let rngs = RngFactory::new(2016).child(&format!("capture-pin/{i}"));
        capture_hash(&session::run(*protocol, broadcast, JOIN_AT, config, &rngs))
    });
    let mut all = Mix(0);
    for h in &hashes {
        all.word(*h);
    }
    let table: Vec<String> =
        cells.iter().zip(&hashes).map(|((name, ..), h)| format!("{name} {h:#018x}")).collect();
    assert_eq!(all.0, PINNED, "capture content moved ({:#018x}):\n{}", all.0, table.join("\n"));
}

#[test]
fn replay_capture_content_is_pinned() {
    let rngs = RngFactory::new(2016);
    let population = Population::generate(PopulationConfig::medium(), &rngs);
    let ended = population
        .broadcasts
        .iter()
        .filter(|b| b.replay_available && !b.private && b.start + b.duration < JOIN_AT)
        .filter(|b| b.duration > SimDuration::from_secs(120))
        .min_by_key(|b| b.id.0)
        .expect("some recorded broadcast has ended");
    let mut all = Mix(0);
    for config in [
        SessionConfig::default(),
        SessionConfig { network: NetworkSetup::finland_limited(1.0), ..Default::default() },
    ] {
        let outcome = replay_session::run(ended, JOIN_AT, &config, &rngs.child("replay-pin"))
            .expect("the broadcast has a replay");
        assert!(outcome.capture.total_bytes() > 1_000_000, "a minute of video was fetched");
        all.word(capture_hash(&outcome));
    }
    assert_eq!(all.0, PINNED_REPLAY, "replay capture content moved ({:#018x})", all.0);
}
