//! Uncaptured sessions are captured sessions minus the capture.
//!
//! A caller that will not read a session's capture runs it through
//! `Teleport::run_one_uncaptured` (a dataset's unanalysed sessions, every
//! `run_scale` session), which never produces a packet's bytes (DESIGN.md
//! §10). The contract pinned here, against the public API: the outcome's
//! capture is empty and *everything else* — every `SessionOutcome` field,
//! `traffic_bps` included, and everything recorded into an enabled trace —
//! is bit for bit what `run_one_traced` gives, on all three transports,
//! with and without `tc` limits, chat, the picture cache, TLS and chaos.
//! (`pscp-client`'s own unit tests compare the two modes packet by packet
//! before the capture is dropped.) A dataset keeps no capture at all: the
//! sessions its plan marks are analysed where they ran.

use periscope_repro::client::device::NetworkSetup;
use periscope_repro::client::session::{self, analyze_session, SessionConfig};
use periscope_repro::client::{SessionOutcome, Teleport, TeleportConfig};
use periscope_repro::obs::Trace;
use periscope_repro::par;
use periscope_repro::service::select::Protocol;
use periscope_repro::service::{PeriscopeService, ServiceConfig};
use periscope_repro::simnet::fault::FaultConfig;
use periscope_repro::simnet::{RngFactory, SimTime};
use periscope_repro::workload::broadcast::Broadcast;
use periscope_repro::workload::population::{Population, PopulationConfig};
use pscp_check::{check_with, ensure, Config, Gen};

const PROTOCOLS: [Protocol; 3] = [Protocol::Rtmp, Protocol::Hls, Protocol::Srt];

fn service() -> PeriscopeService {
    let population = Population::generate(PopulationConfig::medium(), &RngFactory::new(2016));
    PeriscopeService::new(population, ServiceConfig::default())
}

/// Session configurations of the contract (`true` = against a private copy
/// of the broadcast, i.e. RTMPS).
fn configs() -> Vec<(&'static str, SessionConfig, bool)> {
    let d = SessionConfig::default;
    let tc = |mbps| SessionConfig { network: NetworkSetup::finland_limited(mbps), ..d() };
    vec![
        ("default", d(), false),
        ("tc-0.5mbps", tc(0.5), false),
        ("tc-1mbps", tc(1.0), false),
        ("tc-2mbps", tc(2.0), false),
        ("chat-off", SessionConfig { chat_on: false, ..d() }, false),
        ("picture-cache", SessionConfig { picture_cache: true, ..d() }, false),
        ("chaos-1x", SessionConfig { faults: FaultConfig::chaos(7, 1.0), ..d() }, false),
        ("chaos-2x", SessionConfig { faults: FaultConfig::chaos(7, 2.0), ..d() }, false),
        ("private", d(), true),
    ]
}

/// Live broadcasts at `at` that stay live for a whole watch, most viewed
/// first.
fn watchable(population: &Population, at: SimTime) -> Vec<&Broadcast> {
    let mut live: Vec<&Broadcast> = population
        .live_at(at)
        .into_iter()
        .filter(|b| b.is_live_at(at + SessionConfig::default().watch))
        .collect();
    live.sort_by_key(|b| (std::cmp::Reverse(b.viewers_at(at)), b.id.0));
    live
}

/// Every field of the outcome but the capture, floats by bit pattern.
fn scalars(o: &SessionOutcome) -> String {
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    format!(
        "{:?}",
        (
            (o.broadcast_id, o.protocol, o.device, bits(o.bandwidth_limit_bps)),
            (o.player.join_time, &o.player.stalls, o.player.played_s.to_bits()),
            o.player.latency_samples.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            o.player.session_s.to_bits(),
            (o.meta.n_stalls, bits(o.meta.avg_stall_time_s), bits(o.meta.playback_latency_s)),
            (o.viewers_at_join, o.rendered_fps.to_bits(), &o.server),
            o.traffic_bps.to_bits(),
        )
    )
}

/// Runs the session both ways under an enabled trace and compares.
fn uncaptured_matches_traced(
    tp: &Teleport<'_>,
    broadcast: &Broadcast,
    join_at: SimTime,
    config: &SessionConfig,
    key: u64,
) -> Result<(), String> {
    let mut full_trace = Trace::new(true);
    let full = tp.run_one_traced(broadcast, join_at, config, key, &mut full_trace);
    let mut trace = Trace::new(true);
    let uncaptured = tp.run_one_uncaptured(broadcast, join_at, config, key, &mut trace);
    ensure!(uncaptured.capture.flows.is_empty(), "an uncaptured session returned a capture");
    ensure!(
        scalars(&full) == scalars(&uncaptured),
        "outcome differs:\n  {}\n  {}",
        scalars(&full),
        scalars(&uncaptured)
    );
    // Counters, histograms, sketches, rings, events and spans — the byte
    // counters among them are read off the capture before it is dropped.
    ensure!(!full_trace.events().is_empty(), "the trace recorded nothing");
    ensure!(format!("{full_trace:?}") == format!("{trace:?}"), "traces differ");
    Ok(())
}

#[test]
fn uncaptured_outcomes_and_traces_equal_captured_ones() {
    let svc = service();
    let tp = Teleport::new(&svc, RngFactory::new(2016));
    let join_at = SimTime::from_secs(3600);
    let live = watchable(&svc.population, join_at);
    let picks = [live[0], live[live.len() / 2], live[live.len() - 1]];
    let mut cells = Vec::new();
    for broadcast in picks {
        for protocol in PROTOCOLS {
            for (name, config, private) in configs() {
                let broadcast = Broadcast { private, ..broadcast.clone() };
                let config = SessionConfig { transport: Some(protocol), ..config };
                cells.push((format!("{protocol:?}/{name}"), broadcast, config));
            }
        }
    }
    // Thread count 0 = `PSCP_THREADS`: the contract holds at any worker count.
    let failures: Vec<String> = par::indexed_map(&cells, 0, |i, (name, broadcast, config)| {
        uncaptured_matches_traced(&tp, broadcast, join_at, config, i as u64)
            .err()
            .map(|e| format!("{name} on broadcast {}: {e}", broadcast.id.0))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn uncaptured_equals_captured_at_arbitrary_join_times_and_keys() {
    let svc = service();
    let tp = Teleport::new(&svc, RngFactory::new(2016));
    let configs = configs();
    check_with(
        Config::with_cases(12),
        "uncaptured_equals_captured_at_arbitrary_join_times_and_keys",
        |g: &mut Gen| {
            (g.choice(3), g.choice(configs.len()), g.u64(120..7000), g.f64(0.0..1.0), g.u64(..))
        },
        |&(protocol, config, join_s, rank, key)| {
            let join_at = SimTime::from_secs(join_s);
            let live = watchable(&svc.population, join_at);
            let Some(broadcast) = live.get((rank * live.len() as f64) as usize) else {
                return Ok(());
            };
            let (_, config, private) = &configs[config];
            let broadcast = Broadcast { private: *private, ..(*broadcast).clone() };
            let config = SessionConfig { transport: Some(PROTOCOLS[protocol]), ..config.clone() };
            uncaptured_matches_traced(&tp, &broadcast, join_at, &config, key)
        },
    );
}

/// The per-transport entry point the component benches use.
#[test]
fn session_run_uncaptured_equals_each_transports_run_traced() {
    let svc = service();
    let join_at = SimTime::from_secs(3600);
    let broadcast = watchable(&svc.population, join_at)[0];
    for protocol in PROTOCOLS {
        let rngs = RngFactory::new(2016).child("mode-equivalence");
        let config = SessionConfig::default();
        let full = session::run_traced(
            protocol,
            broadcast,
            join_at,
            &config,
            &rngs,
            &mut Trace::disabled(),
        );
        let uncaptured = session::run_uncaptured(
            protocol,
            broadcast,
            join_at,
            &config,
            &rngs,
            &mut Trace::disabled(),
        );
        assert!(full.capture.total_bytes() > 100_000, "{protocol:?}: the full run captures");
        assert!(uncaptured.capture.flows.is_empty(), "{protocol:?}");
        assert_eq!(scalars(&full), scalars(&uncaptured), "{protocol:?}");
    }
}

/// A dataset keeps no capture, and the plan alone decides which sessions
/// are analysed: the first `analyze_per_protocol` of each planned protocol
/// carry exactly the report a full run of their plan entry analyses to,
/// the rest none, and every scalar is the full run's.
#[test]
fn dataset_analyses_the_planned_sessions_and_keeps_no_capture() {
    let svc = service();
    let tp = Teleport::new(&svc, RngFactory::new(41));
    let config = |analyze_per_protocol: usize, threads: usize| TeleportConfig {
        sessions: 12,
        analyze_per_protocol,
        threads,
        ..Default::default()
    };
    // Each plan entry run alone, capture and all: (planned protocol,
    // scalars, analysis).
    let selection = svc.selection_policy();
    let reference: Vec<(Protocol, String, String)> = tp
        .plan(&config(0, 1))
        .iter()
        .map(|p| {
            let mut trace = Trace::disabled();
            let full = tp.run_one_traced(p.broadcast, p.join_at, &p.session, p.idx, &mut trace);
            let planned = selection.choose(p.broadcast, p.join_at);
            (planned, scalars(&full), format!("{:?}", analyze_session(&full)))
        })
        .collect();
    assert!(
        PROTOCOLS[..2].iter().all(|p| reference.iter().filter(|r| r.0 == *p).count() > 2),
        "the dataset has more than two sessions of each service-chosen protocol"
    );
    assert!(reference.iter().all(|r| r.2.starts_with("Some")), "every capture analyses");
    for analyze in [0, 2, usize::MAX] {
        for threads in [1, 4] {
            let got = tp.run_dataset(&config(analyze, threads));
            assert_eq!(got.len(), reference.len());
            let mut marked = std::collections::HashMap::new();
            for (i, (g, (planned, scalars_full, stream_full))) in
                got.iter().zip(&reference).enumerate()
            {
                let cell = format!("analyze {analyze} threads {threads} session {i}");
                assert!(g.capture.flows.is_empty(), "{cell}: the dataset kept a capture");
                assert_eq!(scalars(g), *scalars_full, "{cell}");
                let slot = marked.entry(*planned).or_insert(0usize);
                if *slot < analyze {
                    *slot += 1;
                    assert_eq!(format!("{:?}", g.stream), *stream_full, "{cell}");
                } else {
                    assert!(g.stream.is_none(), "{cell}: analysed past the plan's count");
                }
            }
        }
    }
}
