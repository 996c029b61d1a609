//! Session types shared by the RTMP and HLS paths.

use crate::device::{NetworkSetup, ViewerDevice};
use crate::downlink::Recording;
use crate::player::{PlayerConfig, PlayerLog};
use crate::uplink::UplinkConfig;
use crate::{hls_session, rtmp_session, srt_session};
use pscp_media::capture::{Capture, FlowKind};
use pscp_obs::{Field, Trace, KBPS_BUCKETS};
use pscp_service::select::Protocol;
use pscp_simnet::{RngFactory, SimDuration, SimTime};
use pscp_workload::broadcast::{Broadcast, BroadcastId};

/// Configuration of one automated viewing session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Viewing phone.
    pub device: ViewerDevice,
    /// Network path (tether + optional tc limit).
    pub network: NetworkSetup,
    /// Watch duration — exactly 60 s in the paper's automation.
    pub watch: SimDuration,
    /// Whether the chat pane is enabled (profile-picture traffic). The app
    /// shows chat by default while viewing, and §5.1 blames exactly that
    /// side traffic for the 2 Mbps QoE boundary — so the default is `true`;
    /// the energy experiments toggle it explicitly.
    pub chat_on: bool,
    /// Whether the app caches profile pictures (it did not; toggle exists
    /// for the ablation the paper suggests in §5.3).
    pub picture_cache: bool,
    /// Broadcaster uplink model.
    pub uplink: UplinkConfig,
    /// RTMP player thresholds.
    pub player_rtmp: PlayerConfig,
    /// HLS player thresholds.
    pub player_hls: PlayerConfig,
    /// SRT player thresholds (used only when `transport` forces SRT).
    pub player_srt: PlayerConfig,
    /// Forces the delivery transport instead of letting the service's
    /// viewer-count policy choose. `None` (the default) keeps the paper's
    /// RTMP/HLS selection and leaves the SRT subsystem completely untouched,
    /// so default runs stay byte-identical to a build without it.
    pub transport: Option<Protocol>,
    /// Fault injection (DESIGN.md §8). Default all-off: the session draws
    /// no fault variate and its capture is byte-identical to a fault-free
    /// build.
    pub faults: pscp_simnet::fault::FaultConfig,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            device: ViewerDevice::GalaxyS4,
            network: NetworkSetup::finland_unlimited(),
            watch: SimDuration::from_secs(60),
            chat_on: true,
            picture_cache: false,
            uplink: UplinkConfig::default(),
            player_rtmp: PlayerConfig::rtmp(),
            player_hls: PlayerConfig::hls(),
            player_srt: PlayerConfig::srt(),
            transport: None,
            faults: pscp_simnet::fault::FaultConfig::default(),
        }
    }
}

/// The playbackMeta upload the app sends at session end (§2): full stats
/// for RTMP, stall count only for HLS.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaybackMetaReport {
    /// Stall events.
    pub n_stalls: u32,
    /// Mean stall duration — RTMP only.
    pub avg_stall_time_s: Option<f64>,
    /// Playback latency — RTMP only.
    pub playback_latency_s: Option<f64>,
}

/// Everything one viewing session produces.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Watched broadcast.
    pub broadcast_id: BroadcastId,
    /// Delivery protocol used.
    pub protocol: Protocol,
    /// Viewing phone.
    pub device: ViewerDevice,
    /// `tc` limit in effect, bits/second (None = unlimited).
    pub bandwidth_limit_bps: Option<f64>,
    /// Player QoE log.
    pub player: PlayerLog,
    /// tcpdump-style capture of all downstream traffic.
    pub capture: Capture,
    /// What the app reported to the server at session end.
    pub meta: PlaybackMetaReport,
    /// Viewer count of the broadcast when the session started.
    pub viewers_at_join: u32,
    /// Frame rate actually rendered (stream fps capped by the device).
    pub rendered_fps: f64,
    /// Label of the serving endpoint (ingest hostname or CDN POP).
    pub server: String,
}

impl SessionOutcome {
    /// Join time in seconds, if playback started.
    pub fn join_time_s(&self) -> Option<f64> {
        self.player.join_time.map(|d| d.as_secs_f64())
    }

    /// Stall ratio (see [`PlayerLog::stall_ratio`]).
    pub fn stall_ratio(&self) -> f64 {
        self.player.stall_ratio()
    }
}

/// Runs one session over `protocol`, recording its capture as `recording`
/// says. A [`Recording::Counted`] capture (times and lengths, no bytes) is
/// for this crate's eyes only: public entry points return a full capture or
/// an empty one.
pub(crate) fn simulate(
    protocol: Protocol,
    broadcast: &Broadcast,
    join_at: SimTime,
    config: &SessionConfig,
    rngs: &RngFactory,
    trace: &mut Trace,
    recording: Recording,
) -> SessionOutcome {
    let run = match protocol {
        Protocol::Rtmp => rtmp_session::simulate,
        Protocol::Hls => hls_session::simulate,
        Protocol::Srt => srt_session::simulate,
    };
    run(broadcast, join_at, config, rngs, trace, recording)
}

/// Runs one session over `protocol` for a caller that will not read its
/// capture: the outcome's `capture` is empty and every other field — and
/// everything recorded into `trace` — is bit for bit what the transport's
/// `run_traced` gives. The session makes the same packets at the same
/// instants but never produces their bytes (DESIGN.md §10, "Uncaptured
/// sessions").
pub fn run_uncaptured(
    protocol: Protocol,
    broadcast: &Broadcast,
    join_at: SimTime,
    config: &SessionConfig,
    rngs: &RngFactory,
    trace: &mut Trace,
) -> SessionOutcome {
    let mut outcome =
        simulate(protocol, broadcast, join_at, config, rngs, trace, Recording::Counted);
    outcome.capture = Capture::new();
    outcome
}

/// Records the session-start instrumentation shared by the RTMP and HLS
/// paths (subsystems `session` and `shaper`).
pub(crate) fn trace_session_start(
    trace: &mut Trace,
    protocol: &'static str,
    broadcast_id: BroadcastId,
    viewers: u32,
    join_at_us: u64,
    config: &SessionConfig,
) {
    trace.count("session", "started", 1);
    trace.count("session", protocol, 1);
    if let Some(limit) = config.network.tc_limit_bps {
        trace.count("shaper", "limited_sessions", 1);
        trace.observe("shaper", "limit_kbps", &KBPS_BUCKETS, (limit / 1000.0) as u64);
    }
    if trace.is_enabled() {
        let mut fields = vec![
            ("proto", Field::S(protocol.to_string())),
            ("broadcast", Field::U(broadcast_id.0)),
            ("viewers", Field::U(viewers as u64)),
        ];
        if let Some(limit) = config.network.tc_limit_bps {
            fields.push(("limit_kbps", Field::U((limit / 1000.0) as u64)));
        }
        trace.event(join_at_us, "session", "session.start", fields);
    }
}

/// Records the session-end instrumentation shared by both paths: a
/// `session.end` event plus capture byte counters (`chat`, `net`).
pub(crate) fn trace_session_end(
    trace: &mut Trace,
    end_us: u64,
    log: &PlayerLog,
    capture: &Capture,
) {
    if !trace.is_enabled() {
        return;
    }
    let kind_bytes = |kind: FlowKind| {
        capture.flows_of_kind(kind).iter().map(|f| f.byte_count()).sum::<usize>() as u64
    };
    trace.count("chat", "bytes", kind_bytes(FlowKind::Chat));
    trace.count("chat", "picture_bytes", kind_bytes(FlowKind::PictureHttp));
    trace.count("net", "capture_bytes", capture.total_bytes() as u64);
    trace.event(
        end_us,
        "session",
        "session.end",
        vec![("played_s", Field::F(log.played_s)), ("stalls", Field::U(log.n_stalls() as u64))],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_check::{check_with, ensure, Config, Gen};
    use pscp_simnet::fault::FaultConfig;
    use pscp_workload::population::{Population, PopulationConfig};

    const PROTOCOLS: [Protocol; 3] = [Protocol::Rtmp, Protocol::Hls, Protocol::Srt];

    /// The session configurations the mode-equivalence contract is checked
    /// over (`true` = run against a private copy of the broadcast).
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

    /// Live broadcasts at `at` that stay live for a whole watch, most
    /// viewed first.
    fn watchable(population: &Population, at: SimTime) -> Vec<&Broadcast> {
        let mut live: Vec<&Broadcast> = population
            .live_at(at)
            .into_iter()
            .filter(|b| b.is_live_at(at + SessionConfig::default().watch))
            .collect();
        live.sort_by_key(|b| (std::cmp::Reverse(b.viewers_at(at)), b.id.0));
        live
    }

    /// Runs the session in both modes and checks that the counted capture
    /// has every flow and every packet of the full one — same kind, server,
    /// arrival, wall stamp and length, no bytes — and that nothing else in
    /// the outcome moved. Equal per-packet times are what prove no RNG draw
    /// or link call was skipped or reordered.
    fn counted_matches_full(
        protocol: Protocol,
        broadcast: &Broadcast,
        join_at: SimTime,
        config: &SessionConfig,
        key: u64,
    ) -> Result<(), String> {
        let rngs = RngFactory::new(2016).child(&format!("mode-equivalence/{key}"));
        let run = |recording| {
            let mut trace = Trace::disabled();
            simulate(protocol, broadcast, join_at, config, &rngs, &mut trace, recording)
        };
        let (full, counted) = (run(Recording::Full), run(Recording::Counted));
        ensure!(
            format!("{:?}", (&full.player, &full.meta, full.rendered_fps, &full.server))
                == format!(
                    "{:?}",
                    (&counted.player, &counted.meta, counted.rendered_fps, &counted.server)
                ),
            "outcome scalars differ"
        );
        ensure!(full.protocol == counted.protocol, "protocol differs");
        let (f, c) = (&full.capture.flows, &counted.capture.flows);
        ensure!(f.len() == c.len(), "{} flows, not {}", c.len(), f.len());
        let mut media_literal = 0;
        for (i, (f, c)) in f.iter().zip(c).enumerate() {
            ensure!(f.kind == c.kind && f.server == c.server, "flow {i}: endpoint differs");
            ensure!(
                f.packet_count() == c.packet_count() && f.byte_count() == c.byte_count(),
                "flow {i} ({:?}): {} packets / {} bytes, not {} / {}",
                f.kind,
                c.packet_count(),
                c.byte_count(),
                f.packet_count(),
                f.byte_count()
            );
            for (n, (p, q)) in f.packets().zip(c.packets()).enumerate() {
                ensure!(
                    p.at == q.at
                        && p.wall_ts.to_bits() == q.wall_ts.to_bits()
                        && p.payload.len() == q.payload.len(),
                    "flow {i} ({:?}) packet {n}: {:?}/{}/{} vs {:?}/{}/{}",
                    f.kind,
                    p.at,
                    p.wall_ts,
                    p.payload.len(),
                    q.at,
                    q.wall_ts,
                    q.payload.len()
                );
                if matches!(c.kind, FlowKind::Rtmp | FlowKind::Srt) {
                    media_literal += q.payload.literal().len();
                }
            }
        }
        ensure!(media_literal == 0, "{media_literal} literal media bytes in a counted capture");
        Ok(())
    }

    #[test]
    fn counted_capture_has_every_packet_of_the_full_one() {
        let population = Population::generate(PopulationConfig::medium(), &RngFactory::new(2016));
        let join_at = SimTime::from_secs(3600);
        let live = watchable(&population, join_at);
        let picks = [live[0], live[live.len() / 2], live[live.len() - 1]];
        let mut cells = Vec::new();
        for broadcast in picks {
            for protocol in PROTOCOLS {
                for (name, config, private) in configs() {
                    let broadcast = Broadcast { private, ..broadcast.clone() };
                    cells.push((format!("{protocol:?}/{name}"), protocol, broadcast, config));
                }
            }
        }
        let failures: Vec<String> =
            pscp_simnet::par::indexed_map(&cells, 0, |i, (name, protocol, broadcast, config)| {
                counted_matches_full(*protocol, broadcast, join_at, config, i as u64)
                    .err()
                    .map(|e| format!("{name} on {}: {e}", broadcast.id.0))
            })
            .into_iter()
            .flatten()
            .collect();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn counted_capture_matches_at_arbitrary_join_times_and_keys() {
        let population = Population::generate(PopulationConfig::medium(), &RngFactory::new(2016));
        let configs = configs();
        check_with(
            Config::with_cases(24),
            "counted_capture_matches_at_arbitrary_join_times_and_keys",
            |g: &mut Gen| {
                (g.choice(3), g.choice(configs.len()), g.u64(120..7000), g.f64(0.0..1.0), g.u64(..))
            },
            |&(protocol, config, join_s, rank, key)| {
                let join_at = SimTime::from_secs(join_s);
                let live = watchable(&population, join_at);
                let Some(broadcast) = live.get((rank * live.len() as f64) as usize) else {
                    return Ok(());
                };
                let (_, config, private) = &configs[config];
                let broadcast = Broadcast { private: *private, ..(*broadcast).clone() };
                counted_matches_full(PROTOCOLS[protocol], &broadcast, join_at, config, key)
            },
        );
    }

    #[test]
    fn default_config_matches_paper_setup() {
        let c = SessionConfig::default();
        assert_eq!(c.watch, SimDuration::from_secs(60));
        assert!(c.chat_on, "the app shows chat by default while viewing");
        assert!(!c.picture_cache);
        assert!(c.network.tc_limit_bps.is_none());
        assert!(c.player_hls.initial_buffer_s > c.player_rtmp.initial_buffer_s);
    }
}
