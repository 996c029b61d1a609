//! One viewing session, whichever transport carries it.
//!
//! The paper's service is one pipeline with a late fork: every broadcast is
//! RTMP-ingested on an EC2 host, pushed as RTMP to the first ≈ 100 viewers
//! and repackaged to HLS through the CDN past that (§3, §5.1). A session is
//! assembled the same way, in one place — `simulate`:
//!
//! * the **prelude** (`SessionCtx::open`) draws the labelled RNG streams
//!   and the two wall clocks, finds the ingest host, records the session's
//!   start — exactly once — and sets up the capture tap;
//! * a **transport** (`rtmp_session`, `hls_session`, `srt_session`: a plain
//!   function each, chosen by a `match`) does what genuinely differs and
//!   returns what it `Delivered`: media arrivals at the player, the join
//!   phases it went through, the endpoint that served it;
//! * the **epilogue** (`finish`) counts link faults, plays the arrivals
//!   out, lays the join phases over `[join, first frame]`, records the
//!   player's events and the session's end, and builds the one
//!   [`SessionOutcome`]. A session that never reached the service and a
//!   replay finish through it too.
//!
//! DESIGN.md §16 has the reasoning.

use crate::device::{NetworkSetup, ViewerDevice};
use crate::downlink::{Recording, Tap};
use crate::player::{run_playback, MediaArrival, PlayerConfig, PlayerLog};
use crate::uplink::UplinkConfig;
use crate::{hls_session, rtmp_session, srt_session};
use pscp_media::analysis::{analyze_hls_flow, analyze_rtmp_flow, StreamReport};
use pscp_media::capture::{Capture, Flow, FlowKind};
use pscp_obs::{Field, Trace, KBPS_BUCKETS};
use pscp_service::ingest::{assign_server, IngestServer};
use pscp_service::select::Protocol;
use pscp_simnet::fault::{self, LinkFaults};
use pscp_simnet::rng::CounterRng;
use pscp_simnet::{RngFactory, SimDuration, SimTime, WallClock};
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

/// The flows of a session's steady-state traffic: media over whichever
/// transport carried it, chat and profile pictures — not the join
/// bootstrap, whose burst is not representative of sustained draw.
const TRAFFIC_KINDS: [FlowKind; 5] =
    [FlowKind::Rtmp, FlowKind::HlsHttp, FlowKind::Srt, FlowKind::Chat, FlowKind::PictureHttp];

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
    /// tcpdump-style capture of all downstream traffic. Only the
    /// single-session entry points ([`run`], [`run_traced`],
    /// `Teleport::run_one`) return it; a dataset keeps [`Self::stream`]
    /// instead and leaves this empty.
    pub capture: Capture,
    /// Viewer count of the broadcast when the session started.
    pub viewers_at_join: u32,
    /// Frame rate actually rendered (stream fps capped by the device).
    pub rendered_fps: f64,
    /// Label of the serving endpoint (ingest hostname or CDN POP).
    pub server: String,
    /// Steady-state downstream rate, bits/second: media, chat and pictures
    /// from their first packet to their last. Read from packet instants and
    /// lengths, so it is the same whether or not the bytes were kept.
    pub traffic_bps: f64,
    /// The capture's [`analyze_session`] report, set by the dataset worker
    /// that recorded the capture when the dataset plan asked for it.
    pub stream: Option<StreamReport>,
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

    /// The app's playbackMeta report, read off the player log. After an HLS
    /// session "the app reports only the number of stall events" (§2).
    pub fn meta(&self) -> PlaybackMetaReport {
        let full = self.protocol != Protocol::Hls;
        PlaybackMetaReport {
            n_stalls: self.player.n_stalls(),
            avg_stall_time_s: self.player.avg_stall_s().filter(|_| full),
            playback_latency_s: self.player.mean_latency_s().filter(|_| full),
        }
    }
}

/// RTMP downstream handshake size (S0 + S1 + S2) that precedes chunk data.
const RTMP_HANDSHAKE_DOWN: usize = 1 + 2 * 1536;

/// Strips the RTMP handshake bytes from the front of a flow, the way the
/// paper's wireshark workflow starts dissecting after the handshake.
pub fn strip_rtmp_handshake(flow: &Flow) -> Flow {
    flow.strip_prefix(RTMP_HANDSHAKE_DOWN)
}

/// Reconstructs and measures the media stream of a session's capture
/// (§5.2: wireshark + libav), dispatching on protocol. `None` for an empty
/// or opaque capture.
pub fn analyze_session(outcome: &SessionOutcome) -> Option<StreamReport> {
    match outcome.protocol {
        Protocol::Rtmp => {
            let flow = outcome.capture.flow_of_kind(FlowKind::Rtmp)?;
            analyze_rtmp_flow(&strip_rtmp_handshake(flow)).ok()
        }
        Protocol::Hls => {
            let flow = outcome.capture.flow_of_kind(FlowKind::HlsHttp)?;
            analyze_hls_flow(flow).ok()
        }
        // SRT captures are datagram payloads, not a TCP byte stream; the
        // flow dissectors here don't apply. Delivery latency for SRT comes
        // from the player's capture→render samples instead.
        Protocol::Srt => None,
    }
}

/// Runs one session over `protocol`: the viewer joins `broadcast` at
/// absolute time `join_at` and watches for `config.watch`.
pub fn run(
    protocol: Protocol,
    broadcast: &Broadcast,
    join_at: SimTime,
    config: &SessionConfig,
    rngs: &RngFactory,
) -> SessionOutcome {
    run_traced(protocol, broadcast, join_at, config, rngs, &mut Trace::disabled())
}

/// [`run`] plus per-session instrumentation into `trace` (no-ops when the
/// trace is disabled; the simulation itself is identical either way —
/// tracing draws no randomness and moves no timestamps).
pub fn run_traced(
    protocol: Protocol,
    broadcast: &Broadcast,
    join_at: SimTime,
    config: &SessionConfig,
    rngs: &RngFactory,
    trace: &mut Trace,
) -> SessionOutcome {
    simulate(protocol, broadcast, join_at, config, rngs, trace, Recording::Full)
}

/// [`run_traced`] for a caller that will not read the capture: the
/// outcome's `capture` is empty and every other field — and everything
/// recorded into `trace` — is bit for bit the same. The session makes the
/// same packets at the same instants but never produces their bytes
/// (DESIGN.md §10, "Uncaptured sessions").
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

/// The session driver: prelude, transport, epilogue. With
/// [`Recording::Counted`] the returned capture holds every packet's time
/// and length but no bytes — for this crate's eyes only: public entry
/// points return a full capture or an empty one.
pub(crate) fn simulate(
    protocol: Protocol,
    broadcast: &Broadcast,
    join_at: SimTime,
    config: &SessionConfig,
    rngs: &RngFactory,
    trace: &mut Trace,
    recording: Recording,
) -> SessionOutcome {
    let mut ctx = SessionCtx::open(protocol, broadcast, join_at, config, rngs, trace, recording);
    let delivered = match protocol {
        Protocol::Rtmp => rtmp_session::deliver(&mut ctx),
        Protocol::Hls => hls_session::deliver(&mut ctx),
        Protocol::Srt => match srt_session::deliver(&mut ctx) {
            Ok(delivered) => delivered,
            // The gateway never answered. The app falls back to plain RTMP
            // against the same ingest host from `retry_at`, like the
            // teleport driver's outage failover, and the wait so far is
            // charged to the join clock. The context is what a fresh RTMP
            // attempt would start from: SRT runs on the RTMP streams, and
            // its handshake drew only from its own fault streams and opened
            // no flow.
            Err(retry_at) => {
                (ctx.protocol, ctx.join_at) = (Protocol::Rtmp, retry_at);
                rtmp_session::deliver(&mut ctx)
            }
        },
    };
    let waited = ctx.join_at.saturating_since(join_at);
    let mut outcome =
        finish(ctx.protocol, broadcast, ctx.join_at, config, ctx.trace, ctx.tap.capture, delivered);
    outcome.player.join_time = outcome.player.join_time.map(|j| j + waited);
    outcome
}

/// What the prelude sets up and every transport works with.
pub(crate) struct SessionCtx<'a> {
    /// The transport this attempt runs over.
    pub protocol: Protocol,
    /// Watched broadcast.
    pub broadcast: &'a Broadcast,
    /// When this attempt's stream view opens.
    pub join_at: SimTime,
    /// Session configuration.
    pub config: &'a SessionConfig,
    /// The session's RNG namespace (fault streams are keyed on its seed).
    pub rngs: &'a RngFactory,
    /// The session's trace.
    pub trace: &'a mut Trace,
    /// Whether anyone will read the capture.
    pub recording: Recording,
    /// Broadcaster-side draws: content, encoder, uplink glitches.
    pub enc_rng: CounterRng,
    /// Viewer-side draws: app bootstrap size, chat.
    pub net_rng: CounterRng,
    /// Wall-clock jitter draws.
    pub clock_rng: CounterRng,
    /// The broadcaster phone's clock (NTP stamps in the video).
    pub broadcaster_clock: WallClock,
    /// The EC2 host the broadcast is ingested on.
    pub server: IngestServer,
    /// The capture host.
    pub tap: Tap,
}

impl<'a> SessionCtx<'a> {
    /// The prelude. Records the session's start — once, for the transport
    /// that was asked for, however many attempts the session then takes.
    pub fn open(
        protocol: Protocol,
        broadcast: &'a Broadcast,
        join_at: SimTime,
        config: &'a SessionConfig,
        rngs: &'a RngFactory,
        trace: &'a mut Trace,
        recording: Recording,
    ) -> Self {
        // SRT draws from the *RTMP* streams on purpose — common random
        // numbers: an SRT session of seed `s` sees the exact encoder,
        // uplink-glitch and chat draws its RTMP counterpart would, so a
        // transport comparison measures the transport, not uplink luck.
        const RTMP_STREAMS: [&str; 3] = ["rtmp/encoder", "rtmp/net", "rtmp/clocks"];
        let (name, [encoder, net, clocks]) = match protocol {
            Protocol::Rtmp => ("rtmp", RTMP_STREAMS),
            Protocol::Srt => ("srt", RTMP_STREAMS),
            Protocol::Hls => ("hls", ["hls/encoder", "hls/net", "hls/clocks"]),
        };
        trace_session_start(trace, name, broadcast, join_at, config);
        let mut clock_rng = rngs.stream(clocks);
        let broadcaster_clock = WallClock::ntp_synced(&mut clock_rng);
        let capture_clock = WallClock::ntp_synced(&mut clock_rng);
        SessionCtx {
            protocol,
            broadcast,
            join_at,
            config,
            rngs,
            trace,
            recording,
            enc_rng: rngs.stream(encoder),
            net_rng: rngs.stream(net),
            clock_rng,
            broadcaster_clock,
            server: assign_server(&broadcast.location, broadcast.id.0),
            tap: Tap::new(recording, capture_clock),
        }
    }

    /// Size of the app bootstrap: before (and while) the stream starts, the
    /// app pulls broadcast metadata, thumbnails and the recent chat backlog.
    /// On a fast link this is invisible; under a tc limit it is what makes
    /// join times explode (Fig 4a).
    pub fn bootstrap_bytes(&mut self) -> usize {
        pscp_simnet::dist::lognormal(&mut self.net_rng, (900_000f64).ln(), 0.7)
            .clamp(150_000.0, 4_000_000.0) as usize
    }

    /// Per-packet faults of this session's reliable downstream path
    /// `label`, when any are injected (DESIGN.md §8).
    pub fn link_faults(&self, label: &str) -> Option<LinkFaults> {
        let faults = &self.config.faults;
        LinkFaults::active(faults).then(|| LinkFaults::new(faults, self.rngs.seed(), label))
    }

    /// Deterministic drop windows of one fault class over `[join, until)`
    /// (DESIGN.md §8), counted as a fault and as the reconnect that follows
    /// each. A class at rate zero has none and draws nothing.
    pub fn drop_windows(
        &mut self,
        unit: &str,
        until: SimTime,
        per_min: f64,
        gap: SimDuration,
        counters: (&'static str, &'static str),
    ) -> Vec<(SimTime, SimTime)> {
        let seed = self.config.faults.seed ^ self.rngs.seed();
        let windows = fault::drop_windows(seed, unit, self.join_at, until, per_min, gap);
        if !windows.is_empty() {
            self.trace.count("fault", counters.0, windows.len() as u64);
            self.trace.count("recovery", counters.1, windows.len() as u64);
        }
        windows
    }
}

/// What a transport hands back to the driver.
pub(crate) struct Delivered {
    /// Media arrivals at the player, in time order.
    pub arrivals: Vec<MediaArrival>,
    /// Frame rate of the stream.
    pub fps: f64,
    /// The join phases the transport went through, in order: `(subsystem,
    /// span name, phase end)`. The last phase runs to the first rendered
    /// frame whatever its end says ([`SimTime::MAX`] by convention).
    pub phases: Vec<(&'static str, &'static str, SimTime)>,
    /// Label of the serving endpoint (ingest hostname or CDN POP).
    pub server: String,
    /// Per-packet faults the reliable downstream path suffered, if injected.
    pub link_faults: Option<LinkFaults>,
}

/// The epilogue every session ends with — live over any transport, never
/// connected, or a replay: plays `delivered` out and reports.
pub(crate) fn finish(
    protocol: Protocol,
    broadcast: &Broadcast,
    join_at: SimTime,
    config: &SessionConfig,
    trace: &mut Trace,
    capture: Capture,
    delivered: Delivered,
) -> SessionOutcome {
    let Delivered { arrivals, fps, phases, server, link_faults } = delivered;
    if let Some(lf) = link_faults {
        trace.count("fault", "lost_packets", lf.lost);
        trace.count("fault", "latency_spikes", lf.spiked);
        trace.count("recovery", "retransmits", lf.lost);
    }
    let player = match protocol {
        Protocol::Rtmp => config.player_rtmp,
        Protocol::Hls => config.player_hls,
        Protocol::Srt => config.player_srt,
    };
    let log = run_playback(join_at, config.watch, player, &arrivals);
    // Join decomposition (paper Fig 11 analogue): the transport's phases
    // tile [join_at, first_frame] exactly — each ends where the transport
    // says, clamped into what is left of the interval — so they sum to the
    // session's join time; the parent is the teleport driver's session root
    // when one is open.
    if let Some(j) = log.join_time {
        let parent = trace.current_span();
        let first_frame = join_at + j;
        let mut from = join_at;
        for (subsystem, name, end) in phases {
            let to = end.clamp(from, first_frame);
            trace.span(from.as_micros(), to.as_micros(), subsystem, name, parent);
            from = to;
        }
    }
    log.record_events(join_at, trace);
    trace_session_end(trace, (join_at + config.watch).as_micros(), &log, &capture);
    SessionOutcome {
        broadcast_id: broadcast.id,
        protocol,
        device: config.device,
        bandwidth_limit_bps: config.network.tc_limit_bps,
        rendered_fps: rendered_fps(fps, config.device, &log),
        player: log,
        traffic_bps: capture.rate_of_kinds(&TRAFFIC_KINDS),
        capture,
        viewers_at_join: broadcast.viewers_at(join_at),
        server,
        stream: None,
    }
}

/// Achieved render rate: the stream rate capped by the device, discounted
/// by stall overhead.
fn rendered_fps(stream_fps: f64, device: ViewerDevice, log: &PlayerLog) -> f64 {
    let base = stream_fps.min(device.render_fps_cap());
    let active = log.played_s / log.session_s.max(1e-9);
    base * active.clamp(0.0, 1.0)
}

/// Records the session-start instrumentation (subsystems `session` and
/// `shaper`).
fn trace_session_start(
    trace: &mut Trace,
    protocol: &'static str,
    broadcast: &Broadcast,
    join_at: SimTime,
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
            ("broadcast", Field::U(broadcast.id.0)),
            ("viewers", Field::U(broadcast.viewers_at(join_at) as u64)),
        ];
        if let Some(limit) = config.network.tc_limit_bps {
            fields.push(("limit_kbps", Field::U((limit / 1000.0) as u64)));
        }
        trace.event(join_at.as_micros(), "session", "session.start", fields);
    }
}

/// Records the session-end instrumentation: a `session.end` event plus
/// capture byte counters (`chat`, `net`).
fn trace_session_end(trace: &mut Trace, end_us: u64, log: &PlayerLog, capture: &Capture) {
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
        let scalars = |o: &SessionOutcome| {
            format!("{:?}", (&o.player, o.rendered_fps, &o.server, o.traffic_bps.to_bits()))
        };
        ensure!(scalars(&full) == scalars(&counted), "outcome scalars differ");
        ensure!(full.protocol == counted.protocol, "protocol differs");
        let (f, c) = (&full.capture.flows, &counted.capture.flows);
        ensure!(f.len() == c.len(), "{} flows, not {}", c.len(), f.len());
        let mut media_stored = 0;
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
            }
            if matches!(c.kind, FlowKind::Rtmp | FlowKind::Srt) {
                media_stored += c.stored_bytes();
            }
        }
        ensure!(media_stored == 0, "{media_stored} stored media bytes in a counted capture");
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

    /// A session that gives up on the SRT gateway and falls back to RTMP is
    /// still one session: it starts once, for the transport that was asked
    /// for, its join clock includes the time spent knocking, and the phases
    /// of both attempts tile the join exactly.
    #[test]
    fn srt_handshake_exhaustion_falls_back_to_rtmp_and_starts_once() {
        use pscp_simnet::fault::LossConfig;
        let loss = LossConfig { p_loss_good: 1.0, p_loss_bad: 1.0, ..Default::default() };
        let faults = FaultConfig { seed: 3, loss, ..Default::default() };
        let config = SessionConfig { faults, ..Default::default() };
        let (broadcast, join_at) = (crate::fixture::broadcast(21), SimTime::from_secs(400));
        let rngs = RngFactory::new(21).child("fallback");
        let mut trace = Trace::new(true);
        let root = trace.span_start(join_at.as_micros(), "session", "session.join");
        let outcome = simulate(
            Protocol::Srt,
            &broadcast,
            join_at,
            &config,
            &rngs,
            &mut trace,
            Recording::Full,
        );
        assert_eq!(outcome.protocol, Protocol::Rtmp);
        assert!(outcome.capture.flow_of_kind(FlowKind::Srt).is_none());
        let join = outcome.player.join_time.expect("the RTMP attempt joins");
        // Four back-offs of the reconnect policy: 1 + 2 + 4 + 8 s, ± 25 %.
        assert!(join > SimDuration::from_secs(11), "join {join:?} omits the back-off wait");
        trace.span_end(root, (join_at + join).as_micros());

        let counter = |sub, name| trace.metrics().counter(sub, name);
        assert_eq!(counter("session", "started"), 1);
        assert_eq!((counter("session", "srt"), counter("session", "rtmp")), (1, 0));
        assert_eq!(counter("recovery", "srt_fallbacks"), 1);
        let starts = trace.events().iter().filter(|e| e.name == "session.start").count();
        assert_eq!(starts, 1);

        let root_id = trace.spans().iter().find(|s| s.name == "session.join").map(|s| s.id);
        let phases: Vec<_> = trace.spans().iter().filter(|s| s.parent == root_id).collect();
        let names: Vec<_> = phases.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["recovery.reconnect", "recovery.failover", "rtmp.handshake", "rtmp.buffering"]
        );
        let mut at = join_at.as_micros();
        for phase in phases {
            assert_eq!(phase.start_us, at, "{} leaves a gap", phase.name);
            at = phase.end_us;
        }
        assert_eq!(at, (join_at + join).as_micros(), "the phases sum to the join time");
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
