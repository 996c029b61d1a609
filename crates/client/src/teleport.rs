//! The Teleport automation: the paper's session-dataset generator.
//!
//! §2: "The app has a 'Teleport' button which takes the user directly to a
//! randomly selected live broadcast. Automation was achieved with a script
//! that sends tap events ... to push the Teleport button, wait for 60s,
//! push the close button, push the 'home' button and repeat all over
//! again."
//!
//! Teleport selection is popularity-weighted: the paper's dataset contains
//! 1796 RTMP and 1586 HLS sessions even though broadcasts above the ~100
//! viewer HLS threshold are a small *fraction* of all broadcasts — a
//! uniformly random pick would almost never land on one, so the feature
//! must bias toward broadcasts where viewers actually are. Weighting by
//! current viewer count reproduces the observed RTMP/HLS session split.
//!
//! Sessions are mutually independent (each is a fresh app launch against
//! its own broadcast), so the dataset generator samples join times across
//! the whole population window rather than strictly sequentially — the
//! paper's weeks of wall-clock collection compressed into one simulated
//! window.
//!
//! That independence is also what makes dataset generation parallel:
//! [`Teleport::run_dataset`] first runs a cheap serial *plan* phase (join
//! times, broadcast picks and device alternation all come from one shared
//! sequential RNG stream), then *executes* the planned sessions across
//! worker threads — each session only draws from its own `session/{i}` RNG
//! namespace — and folds outcomes in plan order. Which sessions are
//! analysed is *decided* during planning (protocol selection is a pure
//! function of broadcast and join time): the first
//! [`TeleportConfig::analyze_per_protocol`] of each protocol run captured,
//! and the worker that recorded the capture measures it
//! ([`analyze_session`]) and drops it; every other session runs uncaptured
//! ([`Teleport::run_one_uncaptured`]) and never produces a packet's bytes.
//! No dataset outcome holds a capture — peak memory is one capture per
//! worker — and output is byte-identical to a serial run at any thread
//! count.
//!
//! [`Teleport::execute`] is the one executor: every dataset, the live
//! watch loop, the incident study and the scale run (whose plan comes from
//! `pscp-core`'s shard arrivals) hand it a list of [`PlannedSession`]s and
//! a fold. It runs the list [`FOLD_BATCH`] sessions at a time and folds
//! each outcome on the calling thread in plan order, so a caller's
//! accumulator sees one fixed sequence and never more than one batch of
//! outcomes exists.

use crate::device::ViewerDevice;
use crate::downlink::Recording;
use crate::retry::{classify, RetryClass, RetryPolicy};
use crate::session::{
    analyze_session, finish, Delivered, SessionConfig, SessionCtx, SessionOutcome,
};
use pscp_media::capture::Capture;
use pscp_obs::{Observer, PhaseSpan, SpanId, Trace};
use pscp_service::select::Protocol;
use pscp_service::PeriscopeService;
use pscp_simnet::fault::{FaultConfig, FaultRng};
use pscp_simnet::geo::{REF_DEPTH, REF_QUADKEYS};
use pscp_simnet::par::{self, ParProfile};
use pscp_simnet::rng::{CounterRng, Rng};
use pscp_simnet::{GeoRect, RngFactory, SimDuration, SimTime};
use pscp_workload::broadcast::Broadcast;

/// How long an RTMP client waits out an ingest outage before falling back
/// to HLS (DESIGN.md §8): outages shorter than this are ridden out as a
/// delayed join, longer ones trigger the failover path.
const FAILOVER_PATIENCE: SimDuration = SimDuration::from_secs(8);

/// Sessions [`Teleport::execute`] runs between folds: the most outcomes it
/// ever holds, however long the plan. An uncaptured outcome still carries
/// its player log's per-frame latency samples (≈ 14 KB for a minute), so
/// a batch is a hundred-odd sessions (≈ 2 MB): still enough that the
/// barrier between batches idles a worker for about 1 % of the run.
pub const FOLD_BATCH: usize = 128;

/// Dataset generation settings.
#[derive(Debug, Clone)]
pub struct TeleportConfig {
    /// Number of sessions to run.
    pub sessions: usize,
    /// Base session configuration (network limits, chat, players).
    pub session: SessionConfig,
    /// How many sessions *per planned protocol*, first in plan order, have
    /// their capture analysed into [`SessionOutcome::stream`]. Every
    /// session keeps every scalar metric; none keeps its capture.
    pub analyze_per_protocol: usize,
    /// Worker threads for the execute phase (`0` = auto: `PSCP_THREADS` or
    /// the machine's parallelism, `1` = the serial path). Output is
    /// byte-identical at every setting.
    pub threads: usize,
}

impl Default for TeleportConfig {
    fn default() -> Self {
        TeleportConfig {
            sessions: 100,
            session: SessionConfig::default(),
            analyze_per_protocol: 0,
            threads: 0,
        }
    }
}

/// One entry of a plan: everything its worker needs.
pub struct PlannedSession<'a> {
    /// The draw the session came from: its `session/{idx}` RNG namespace.
    pub idx: u64,
    /// When the viewer taps Teleport.
    pub join_at: SimTime,
    /// The picked broadcast.
    pub broadcast: &'a Broadcast,
    /// The session's configuration: the dataset's, on this session's phone.
    pub session: SessionConfig,
    /// Whether the worker records the capture and analyses it.
    pub analyze: bool,
}

/// An ingest-side outage of `unit` at `*join_eff` (DESIGN.md §8): a brief
/// one is ridden out as a delayed join (`*join_eff` moves to its end), a
/// persistent one makes the client fall back to another transport, counted
/// under `recovery/{fallback}`. Returns whether it fell back. Outage
/// membership is keyed on the fault seed alone, so every session agrees on
/// when each unit was down.
fn ride_out_or_fail_over(
    faults: &FaultConfig,
    unit: &str,
    fallback: &'static str,
    join_eff: &mut SimTime,
    root: SpanId,
    trace: &mut Trace,
) -> bool {
    if !faults.ingest_outage.in_outage(faults.seed, unit, *join_eff) {
        return false;
    }
    trace.count("fault", "ingest_outages", 1);
    // Ingest hostnames are assignment-dependent strings, so the symptom
    // ring aggregates all ingest units under one key (per-unit ground-truth
    // scoring is POP-only).
    trace.ring("outage", "ingest", join_eff.as_micros(), 1);
    let (from_us, up) =
        (join_eff.as_micros(), faults.ingest_outage.outage_end(faults.seed, unit, *join_eff));
    let falls_back = up.saturating_since(*join_eff) > FAILOVER_PATIENCE;
    if falls_back {
        trace.count("recovery", fallback, 1);
        // Zero-length marker: the switch itself takes no sim time, so it
        // doesn't disturb the root's tiling.
        trace.span(from_us, from_us, "recovery", "recovery.failover", Some(root));
    } else {
        trace.count("recovery", "ingest_reconnects", 1);
        trace.span(from_us, up.as_micros(), "recovery", "recovery.reconnect", Some(root));
        *join_eff = up;
    }
    falls_back
}

/// Constant-memory QoE telemetry: folds the headline per-session numbers
/// into the trace's mergeable sketches (DESIGN.md §11), live session or
/// never connected. A never-joined session charges its whole watch budget
/// as join wait. Windowed copies feed the alerting layer (DESIGN.md §14):
/// the join observation lands in the minute the join completed, the stall
/// observation in the minute the session ended (`ended`), and the per-cell
/// ring scopes join burn to the broadcast's shard cell.
fn fold_qoe(
    trace: &mut Trace,
    broadcast: &Broadcast,
    join_at: SimTime,
    ended: SimTime,
    config: &SessionConfig,
    outcome: &SessionOutcome,
) {
    let join_us = outcome.player.join_time.unwrap_or(config.watch).as_micros();
    let stall_ppm = (outcome.stall_ratio() * 1e6).round() as u64;
    trace.sketch("player", "join_time_us", join_us);
    trace.sketch("player", "stall_ppm", stall_ppm);
    let join_done_us = join_at.as_micros() + join_us;
    trace.ring("alert", "join_time_us", join_done_us, join_us);
    trace.ring("alert", "stall_ppm", ended.as_micros(), stall_ppm);
    let cell = GeoRect::quad_cell(&broadcast.location, REF_DEPTH);
    trace.ring("cell", REF_QUADKEYS[cell as usize], join_done_us, join_us);
}

/// The Teleport driver.
pub struct Teleport<'a> {
    service: &'a PeriscopeService,
    rngs: RngFactory,
}

impl<'a> Teleport<'a> {
    /// Creates a driver against a service.
    pub fn new(service: &'a PeriscopeService, rngs: RngFactory) -> Self {
        Teleport { service, rngs: rngs.child("teleport") }
    }

    /// The driver's RNG namespace, for callers that must key extra draws
    /// (e.g. shard migrations) consistently with the sessions themselves.
    pub fn rngs(&self) -> &RngFactory {
        &self.rngs
    }

    /// Picks a random live broadcast at `now`, weighted by current viewers
    /// (plus one, so zero-viewer broadcasts remain reachable — the paper
    /// did land on unpopular streams).
    ///
    /// Delegates to the population's time-bucketed weighted sampler, which
    /// avoids rebuilding an O(population) candidate list per pick.
    pub fn pick(&self, now: SimTime, rng: &mut CounterRng) -> Option<&'a Broadcast> {
        self.service.population.sample_live_weighted(now, rng)
    }

    /// Runs one session at `join_at` against a picked broadcast, letting
    /// the service choose the protocol (accessVideo semantics).
    pub fn run_one(
        &self,
        broadcast: &Broadcast,
        join_at: SimTime,
        config: &SessionConfig,
        session_idx: u64,
    ) -> SessionOutcome {
        self.run_one_traced(broadcast, join_at, config, session_idx, &mut Trace::disabled())
    }

    /// [`Teleport::run_one`] plus instrumentation into the session's own
    /// trace (which the caller later absorbs in plan order).
    pub fn run_one_traced(
        &self,
        broadcast: &Broadcast,
        join_at: SimTime,
        config: &SessionConfig,
        session_idx: u64,
        trace: &mut Trace,
    ) -> SessionOutcome {
        self.run_one_recording(broadcast, join_at, config, session_idx, trace, Recording::Full)
    }

    /// [`Teleport::run_one_traced`] for a caller that will not keep the
    /// capture: the outcome's `capture` is empty, every other field and
    /// everything recorded into `trace` is bit for bit the same, and the
    /// session never produces a packet's bytes, only its time and length
    /// (DESIGN.md §10, "Uncaptured sessions").
    pub fn run_one_uncaptured(
        &self,
        broadcast: &Broadcast,
        join_at: SimTime,
        config: &SessionConfig,
        session_idx: u64,
        trace: &mut Trace,
    ) -> SessionOutcome {
        let mut outcome = self.run_one_recording(
            broadcast,
            join_at,
            config,
            session_idx,
            trace,
            Recording::Counted,
        );
        outcome.capture = Capture::new();
        outcome
    }

    fn run_one_recording(
        &self,
        broadcast: &Broadcast,
        join_at: SimTime,
        config: &SessionConfig,
        session_idx: u64,
        trace: &mut Trace,
        recording: Recording,
    ) -> SessionOutcome {
        let access = self
            .service
            .access_video(broadcast.id, &config.network.location, join_at)
            .expect("picked broadcast is live");
        trace.count("service", "access_video", 1);
        // Root of the session's causal tree: opened at the Teleport tap,
        // closed at first rendered frame — so its duration *is* the join
        // time. Sessions that never join leave it open, and open spans are
        // dropped when the trace is drained. Children below tile the root
        // contiguously, so their durations sum exactly to the join time.
        let root = trace.span_start(join_at.as_micros(), "session", "session.join");
        let rngs = self.rngs.child(&format!("session/{session_idx}"));
        let faults = &config.faults;

        // API bootstrap under injected 429/5xx (DESIGN.md §8): each error
        // delays the join by a capped, jittered backoff; exhausting the
        // budget abandons the session. The draw stream is keyed per session
        // so the schedule is thread-invariant; with both rates zero this
        // block never runs and no variate is drawn.
        let mut join_eff = join_at;
        let mut retry_waits: Vec<(u64, u64)> = Vec::new();
        if faults.api_429_rate > 0.0 || faults.api_5xx_rate > 0.0 {
            let mut api_rng = FaultRng::from_label(faults.seed ^ rngs.seed(), "api");
            let policy = RetryPolicy::api();
            let mut attempt: u32 = 1;
            loop {
                let r = api_rng.next_f64();
                let status: u16 = if r < faults.api_429_rate {
                    429
                } else if r < faults.api_429_rate + faults.api_5xx_rate {
                    503
                } else {
                    200
                };
                match classify(status) {
                    RetryClass::Success | RetryClass::Fatal => break,
                    RetryClass::RetryRateLimited => trace.count("fault", "api_429", 1),
                    RetryClass::RetryBackoff => trace.count("fault", "api_5xx", 1),
                }
                if attempt >= policy.max_attempts {
                    // Nothing was ever fetched or played, but the attempt
                    // still appears in the dataset (and its trace counters)
                    // as a never-joined session: the whole watch budget was
                    // spent waiting.
                    trace.count("recovery", "api_exhausted", 1);
                    let unreachable = Delivered {
                        arrivals: Vec::new(),
                        fps: 0.0,
                        phases: Vec::new(),
                        server: "unreachable".to_string(),
                        link_faults: None,
                    };
                    let protocol = access.protocol;
                    let ctx = SessionCtx::open(
                        protocol, broadcast, join_at, config, &rngs, trace, recording,
                    );
                    let (trace, capture) = (ctx.trace, ctx.tap.capture);
                    let outcome =
                        finish(protocol, broadcast, join_at, config, trace, capture, unreachable);
                    fold_qoe(trace, broadcast, join_at, join_at + config.watch, config, &outcome);
                    return outcome;
                }
                trace.count("recovery", "api_retries", 1);
                let wait_from = join_eff;
                join_eff += policy.backoff(attempt - 1, &mut api_rng);
                retry_waits.push((wait_from.as_micros(), join_eff.as_micros()));
                attempt += 1;
            }
        }
        // The API phase covers the tap through the last retry backoff
        // (zero-length on the common no-fault path), with one child span
        // per backoff wait.
        let api_span =
            trace.span(join_at.as_micros(), join_eff.as_micros(), "api", "api.request", Some(root));
        for (from_us, to_us) in retry_waits {
            trace.span(from_us, to_us, "api", "api.retry", Some(api_span));
        }

        // RTMP → HLS failover on persistent ingest-server outage; brief
        // outages are ridden out as a delayed join (reconnect). Outage
        // membership is keyed on the fault seed alone, so every session
        // agrees on when each ingest server was down. `config.transport`
        // (the chaos sweep's three-way switch) overrides the service's
        // viewer-count policy; `None` is the paper-faithful default.
        let mut protocol = config.transport.unwrap_or(access.protocol);
        if protocol == Protocol::Srt && faults.ingest_outage.is_active() {
            // The SRT gateway is its own outage unit (`srt-{host}`): it can
            // be down while plain RTMP ingest on the same host is up, which
            // is exactly the situation the SRT → RTMP fallback exists for.
            // The gateway host comes straight from ingest assignment — the
            // same pure function the session uses — because a forced
            // transport may override an HLS access that carries no
            // `rtmp_server`.
            let server = pscp_service::ingest::assign_server(&broadcast.location, broadcast.id.0);
            let unit = format!("srt-{}", server.hostname());
            if ride_out_or_fail_over(faults, &unit, "srt_fallbacks", &mut join_eff, root, trace) {
                protocol = Protocol::Rtmp;
            }
        }
        if protocol == Protocol::Rtmp && faults.ingest_outage.is_active() {
            if let Some(server) = &access.rtmp_server {
                let unit = server.hostname();
                if ride_out_or_fail_over(faults, &unit, "failovers", &mut join_eff, root, trace) {
                    protocol = Protocol::Hls;
                }
            }
        }

        let delay = join_eff.saturating_since(join_at);
        let mut outcome = crate::session::simulate(
            protocol, broadcast, join_eff, config, &rngs, trace, recording,
        );
        // The retries happened before the stream view opened; the user's
        // join clock started at the original Teleport tap.
        outcome.player.join_time = outcome.player.join_time.map(|j| j + delay);
        // Close the root at first rendered frame; a session that never
        // joined leaves it open and the drain drops it.
        if let Some(j) = outcome.player.join_time {
            trace.span_end(root, (join_at + j).as_micros());
        }
        fold_qoe(trace, broadcast, join_at, join_eff + config.watch, config, &outcome);
        outcome
    }

    /// Generates a whole dataset.
    ///
    /// Two phases. The *plan* phase is serial and consumes the shared
    /// `"dataset"` RNG stream exactly as a fully serial generator would:
    /// join times, broadcast picks and device alternation all come from
    /// that one sequential stream. The *execute* phase then runs the
    /// planned sessions across worker threads — safe because
    /// [`Teleport::run_one`] draws only from the session's own
    /// `session/{i}` RNG namespace — and reassembles outcomes in plan
    /// order. Which sessions are analysed is *decided* during planning
    /// ([`Teleport::plan`]); such a session runs captured, and its worker
    /// analyses the capture into [`SessionOutcome::stream`] and drops it.
    /// Every other session runs through [`Teleport::run_one_uncaptured`].
    /// No outcome holds a capture — peak memory is one capture per worker —
    /// and the result is byte-identical to a serial run at any thread count.
    pub fn run_dataset(&self, config: &TeleportConfig) -> Vec<SessionOutcome> {
        self.run_dataset_observed(config, Observer::disabled_ref())
    }

    /// The serial plan of [`Teleport::run_dataset`]. It consumes the shared
    /// `"dataset"` RNG stream for join times and broadcast picks, and it
    /// alternates devices. It marks the first
    /// [`TeleportConfig::analyze_per_protocol`] sessions of each protocol
    /// for analysis, bucketed by the protocol the session will use: the
    /// forced transport, else [`SelectionPolicy::choose`], a pure function
    /// of broadcast and join time, so the plan predicts exactly what
    /// `run_one` will see.
    ///
    /// [`SelectionPolicy::choose`]: pscp_service::select::SelectionPolicy::choose
    pub fn plan(&self, config: &TeleportConfig) -> Vec<PlannedSession<'a>> {
        let mut rng = self.rngs.stream("dataset");
        let window = self.service.population.config.window;
        let margin = config.session.watch + SimDuration::from_secs(40);
        let latest = window.saturating_sub(margin).as_secs_f64().max(60.0);
        let selection = self.service.selection_policy();
        let mut marked: std::collections::HashMap<Protocol, usize> =
            std::collections::HashMap::new();
        let mut plan = Vec::with_capacity(config.sessions);
        for i in 0..config.sessions {
            // Join somewhere inside the window, away from the edges.
            let t = 30.0 + rng.gen::<f64>() * latest;
            let join_at = SimTime::from_micros((t * 1e6) as u64);
            let Some(broadcast) = self.pick(join_at, &mut rng) else {
                continue;
            };
            let mut session = config.session.clone();
            // Alternate between the S3 and S4 phones, as the paper did.
            session.device =
                if i % 2 == 0 { ViewerDevice::GalaxyS4 } else { ViewerDevice::GalaxyS3 };
            let protocol =
                config.session.transport.unwrap_or_else(|| selection.choose(broadcast, join_at));
            let slot = marked.entry(protocol).or_insert(0);
            let analyze = *slot < config.analyze_per_protocol;
            *slot += usize::from(analyze);
            plan.push(PlannedSession { idx: i as u64, join_at, broadcast, session, analyze });
        }
        plan
    }

    /// [`Teleport::run_dataset`] under observation: [`Teleport::plan`], then
    /// [`Teleport::execute`] into a `Vec`. Sessions record into per-unit
    /// traces that are absorbed into `obs` serially in plan order (so the
    /// merged log is byte-identical at any thread count), and the
    /// plan/execute phases get wall-clock spans when `obs` is profiling.
    pub fn run_dataset_observed(
        &self,
        config: &TeleportConfig,
        obs: &Observer,
    ) -> Vec<SessionOutcome> {
        let plan_started = std::time::Instant::now();
        let plan = self.plan(config);
        if obs.profiling() {
            let wall = plan_started.elapsed().as_secs_f64();
            obs.record_phase(PhaseSpan {
                name: "dataset.plan".into(),
                wall_secs: wall,
                workers: 1,
                items: plan.len(),
                busy_secs: wall,
            });
        }

        let mut outcomes = Vec::with_capacity(plan.len());
        let profile = self.execute(&plan, config.threads, obs, |_, o| outcomes.push(o));
        obs.record_phase(PhaseSpan {
            name: "dataset.execute".into(),
            wall_secs: profile.wall_secs,
            workers: profile.workers,
            items: plan.len(),
            busy_secs: profile.busy_total(),
        });
        outcomes
    }

    /// Runs `plan` on up to `threads` workers (`0` = auto, see
    /// [`par::resolve_threads`]) and hands each outcome to `fold` on the
    /// calling thread, in plan order, whatever order the workers finished
    /// in. Sessions run [`FOLD_BATCH`] at a time, so at most one batch of
    /// outcomes is ever held. A marked session is analysed into
    /// [`SessionOutcome::stream`] in its worker and keeps no capture; every
    /// other one runs uncaptured. When `obs` is tracing, each session's
    /// trace is absorbed under `session/{idx}` in plan order, just before
    /// its outcome is folded. Returns the wall-clock profile of the runs.
    pub fn execute(
        &self,
        plan: &[PlannedSession<'a>],
        threads: usize,
        obs: &Observer,
        fold: impl FnMut(&PlannedSession<'a>, SessionOutcome),
    ) -> ParProfile {
        self.execute_batched(plan, threads, FOLD_BATCH, obs, fold)
    }

    /// [`Teleport::execute`] with the batch size as a parameter.
    fn execute_batched(
        &self,
        plan: &[PlannedSession<'a>],
        threads: usize,
        batch: usize,
        obs: &Observer,
        mut fold: impl FnMut(&PlannedSession<'a>, SessionOutcome),
    ) -> ParProfile {
        let work = |_: usize, p: &PlannedSession<'a>| {
            let mut trace = obs.trace();
            let (broadcast, join_at, session) = (p.broadcast, p.join_at, &p.session);
            // A session nobody analyses still simulates its traffic (scalar
            // metrics derive from it) but never produces the bytes; one that
            // is analysed keeps its capture only as long as that takes.
            let outcome = if p.analyze {
                let mut outcome =
                    self.run_one_traced(broadcast, join_at, session, p.idx, &mut trace);
                outcome.stream = analyze_session(&outcome);
                outcome.capture = Capture::new();
                outcome
            } else {
                self.run_one_uncaptured(broadcast, join_at, session, p.idx, &mut trace)
            };
            (outcome, trace)
        };
        let mut profile = ParProfile::default();
        for chunk in plan.chunks(batch) {
            let (results, chunk_profile) = par::indexed_map_timed(chunk, threads, work);
            profile.absorb(&chunk_profile);
            for (p, (outcome, trace)) in chunk.iter().zip(results) {
                if obs.tracing() {
                    obs.absorb(&format!("session/{}", p.idx), trace);
                }
                fold(p, outcome);
            }
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_service::ServiceConfig;
    use pscp_workload::population::{Population, PopulationConfig};

    fn service() -> PeriscopeService {
        let pop = Population::generate(PopulationConfig::medium(), &RngFactory::new(61));
        PeriscopeService::new(pop, ServiceConfig::default())
    }

    #[test]
    fn pick_prefers_popular() {
        let svc = service();
        let tp = Teleport::new(&svc, RngFactory::new(7));
        let mut rng = RngFactory::new(7).stream("pick-test");
        let now = SimTime::from_secs(3600);
        let mut viewer_sum = 0u64;
        let n = 200;
        for _ in 0..n {
            let b = tp.pick(now, &mut rng).unwrap();
            viewer_sum += b.viewers_at(now) as u64;
        }
        let mean_picked = viewer_sum as f64 / n as f64;
        // Population mean viewers is ~8; popularity weighting should pull
        // the picked mean far above it.
        assert!(mean_picked > 30.0, "mean_picked={mean_picked}");
    }

    #[test]
    fn dataset_mixes_protocols() {
        let svc = service();
        let tp = Teleport::new(&svc, RngFactory::new(8));
        let cfg = TeleportConfig { sessions: 30, ..Default::default() };
        let outcomes = tp.run_dataset(&cfg);
        assert!(outcomes.len() >= 28, "n={}", outcomes.len());
        let hls = outcomes.iter().filter(|o| o.protocol == Protocol::Hls).count();
        let rtmp = outcomes.len() - hls;
        // Both protocols appear (paper: 1796 RTMP vs 1586 HLS).
        assert!(hls >= 3, "hls={hls}");
        assert!(rtmp >= 3, "rtmp={rtmp}");
    }

    #[test]
    fn dataset_alternates_devices() {
        let svc = service();
        let tp = Teleport::new(&svc, RngFactory::new(9));
        let cfg = TeleportConfig { sessions: 10, ..Default::default() };
        let outcomes = tp.run_dataset(&cfg);
        assert!(outcomes.iter().any(|o| o.device == ViewerDevice::GalaxyS3));
        assert!(outcomes.iter().any(|o| o.device == ViewerDevice::GalaxyS4));
    }

    #[test]
    fn hls_sessions_watch_popular_broadcasts() {
        let svc = service();
        let tp = Teleport::new(&svc, RngFactory::new(10));
        let cfg = TeleportConfig { sessions: 40, ..Default::default() };
        let outcomes = tp.run_dataset(&cfg);
        let avg = |proto: Protocol| {
            let xs: Vec<f64> = outcomes
                .iter()
                .filter(|o| o.protocol == proto)
                .map(|o| o.viewers_at_join as f64)
                .collect();
            if xs.is_empty() {
                return 0.0;
            }
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let hls_avg = avg(Protocol::Hls);
        let rtmp_avg = avg(Protocol::Rtmp);
        if hls_avg > 0.0 && rtmp_avg > 0.0 {
            assert!(hls_avg > rtmp_avg, "hls={hls_avg} rtmp={rtmp_avg}");
        }
    }

    #[test]
    fn determinism() {
        let svc = service();
        let run = || {
            let tp = Teleport::new(&svc, RngFactory::new(11));
            let cfg = TeleportConfig {
                sessions: 5,
                analyze_per_protocol: usize::MAX,
                ..Default::default()
            };
            tp.run_dataset(&cfg)
                .iter()
                .map(|o| (o.broadcast_id, o.traffic_bps.to_bits(), format!("{:?}", o.stream)))
                .collect::<Vec<_>>()
        };
        let first = run();
        assert!(first.iter().any(|(_, _, stream)| stream.starts_with("Some")), "none analysed");
        assert_eq!(first, run());
    }

    /// What a fold sees of one session.
    fn folded(p: &PlannedSession<'_>, o: &SessionOutcome) -> (u64, u64, u64, String) {
        (p.idx, o.broadcast_id.0, o.traffic_bps.to_bits(), format!("{:?}", o.stream))
    }

    /// Batching and threads are inert: batches of 1, 3 and the whole plan,
    /// on one and two workers, fold the same sequence, and no map ever
    /// runs more workers than its batch has sessions.
    #[test]
    fn batch_and_threads_do_not_reach_the_fold() {
        let svc = service();
        let tp = Teleport::new(&svc, RngFactory::new(12));
        let cfg = TeleportConfig { sessions: 7, analyze_per_protocol: 2, ..Default::default() };
        let plan = tp.plan(&cfg);
        assert!(plan.len() > 3, "plan={}", plan.len());
        let run = |batch: usize, threads: usize| {
            let mut seen = Vec::new();
            let profile =
                tp.execute_batched(&plan, threads, batch, Observer::disabled_ref(), |p, o| {
                    seen.push(folded(p, &o))
                });
            assert_eq!(profile.workers, threads.min(batch), "batch={batch} threads={threads}");
            seen
        };
        let whole = run(plan.len(), 1);
        assert_eq!(whole.len(), plan.len());
        assert!(whole.iter().any(|f| f.3.starts_with("Some")), "none analysed");
        for batch in [1, 3, plan.len()] {
            for threads in [1, 2] {
                assert_eq!(run(batch, threads), whole, "batch={batch} threads={threads}");
            }
        }
    }

    #[test]
    fn run_dataset_is_plan_then_execute() {
        let svc = service();
        let tp = Teleport::new(&svc, RngFactory::new(13));
        let cfg = TeleportConfig {
            sessions: 6,
            analyze_per_protocol: 1,
            threads: 2,
            ..Default::default()
        };
        let plan = tp.plan(&cfg);
        let mut executed = Vec::new();
        tp.execute(&plan, 1, Observer::disabled_ref(), |p, o| executed.push(folded(p, &o)));
        let outcomes = tp.run_dataset(&cfg);
        assert_eq!(outcomes.len(), plan.len());
        let dataset: Vec<_> = plan.iter().zip(&outcomes).map(|(p, o)| folded(p, o)).collect();
        assert_eq!(dataset, executed);
    }
}
