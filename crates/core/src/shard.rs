//! Quadtree sharding of the service world (DESIGN.md §13).
//!
//! [`ShardPlan`] partitions an **already generated** [`Population`] into
//! geo quadtree cells: the cell of a broadcast is a pure function of its
//! location ([`GeoRect::quad_cell`]), so the partition itself never draws
//! randomness and never depends on shard count. [`run_scale`] schedules
//! *sessions*, not cells: it lists every primary arrival of the run up
//! front ([`ShardPlan::arrivals`]), hands the list to the
//! [`pscp_simnet::par`] driver — workers pull the next arrival the moment
//! they are free, so none waits for a minute or a cell to end — and folds
//! what each arrival leaves behind on the calling thread, in list order.
//! The shard count selects the depth of the plan (its index footprint and
//! the report's `shards` field); it has no say in scheduling.
//!
//! # Determinism argument
//!
//! Output is byte-identical at any shard count and any thread count
//! because three invariants hold by construction:
//!
//! 1. **Work is shard-invariant.** Whether a broadcast-minute spawns a
//!    session, when the session joins, and every draw the session makes
//!    are keyed on `(broadcast id, minute)` hashes and per-session RNG
//!    streams, and the arrival list is ordered by (minute, global
//!    broadcast index) — never by the cell that indexed the broadcast.
//! 2. **Cross-cell traffic is a function of the session.** A primary's
//!    one-hop migration — whether it happens, its destination (sampled
//!    from the global population with an RNG stream keyed by the primary
//!    alone), the follow-on session one minute later — and the chat a
//!    viewer posts from their home city are computed inside the arrival's
//!    own work item; nothing is exchanged between items.
//! 3. **One thread folds, in list order.** A work item returns a few
//!    words per session (sessions run uncaptured: no capture exists); the caller
//!    folds them in arrival order whatever order they finished in, so even
//!    the float moments of [`QoeTelemetry`] see one fixed sequence.
//!    [`ShardStats`] still merges exactly (`u64` counters and
//!    [`QuantileSketch`] buckets), but the engine does not lean on it.
//!    Cross-cell rates are measured at the fixed [`REF_DEPTH`] so the
//!    *metric* does not move with the shard count either.
//!
//! Per-session state never outlives its batch: arrivals run
//! [`FOLD_BATCH`] at a time and fold straight into one [`ShardStats`] and
//! one [`QoeTelemetry`], so memory is the plan plus one batch of samples,
//! not O(sessions) — the property that makes the 1M-broadcast tier of
//! `repro scale` feasible.

use pscp_client::session::SessionConfig;
use pscp_client::Teleport;
use pscp_proto::json::Writer;
use pscp_qoe::telemetry::SessionSample;
use pscp_qoe::QoeTelemetry;
use pscp_service::PeriscopeService;
use pscp_simnet::par::{self, ParProfile};
use pscp_simnet::rng::splitmix64 as mix;
use pscp_simnet::{GeoPoint, GeoRect, RngFactory, SimTime};
use pscp_stats::QuantileSketch;
use pscp_workload::broadcast::Broadcast;
use pscp_workload::cities::CITIES;
use pscp_workload::population::Population;

/// Fixed quadtree depth at which cross-cell metrics and the census are
/// reported, independent of the shard count in force (16 cells).
pub const REF_DEPTH: u8 = 2;

/// One quadtree cell at a given depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId {
    /// Levels below the world rectangle (0 = the whole world).
    pub depth: u8,
    /// Two bits per level, most significant level first
    /// (see [`GeoRect::quad_cell`]).
    pub key: u16,
}

impl CellId {
    /// The cell containing `p` at `depth`.
    pub fn of(p: &GeoPoint, depth: u8) -> CellId {
        CellId { depth, key: GeoRect::quad_cell(p, depth) }
    }

    /// The cell's rectangle.
    pub fn rect(&self) -> GeoRect {
        GeoRect::quad_rect(self.key, self.depth)
    }

    /// The cell as a quadkey string, one digit (quadrant index) per level;
    /// empty at depth 0.
    pub fn quadkey(&self) -> String {
        (0..self.depth)
            .rev()
            .map(|level| char::from(b'0' + ((self.key >> (2 * level)) & 3) as u8))
            .collect()
    }
}

/// One shard of the plan: a cell plus its local slice of the world.
#[derive(Debug)]
pub struct ShardCell {
    /// The cell this shard owns.
    pub id: CellId,
    /// Indices into `Population::broadcasts` of the members, ascending —
    /// global broadcast order restricted to the cell.
    pub members: Vec<u32>,
    /// Per-minute index of *discoverable* members (public, location
    /// visible) live at some point within the minute, in member order.
    minute_disc: Vec<Vec<u32>>,
}

impl ShardCell {
    /// Discoverable members live within minute `m`.
    pub fn discoverable_at_minute(&self, m: usize) -> &[u32] {
        self.minute_disc.get(m).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// One primary arrival of a scale run: the unit of scheduled work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Minute of the run the viewer joins in.
    pub minute: u32,
    /// Index into `Population::broadcasts` of the broadcast watched.
    pub broadcast: u32,
    /// Session (and RNG) key of the primary session.
    pub key: u64,
}

/// The shard plan: a total, disjoint partition of a population's
/// broadcasts into the `4^depth` quadtree cells of one level.
#[derive(Debug)]
pub struct ShardPlan {
    /// Quadtree depth of the partition.
    pub depth: u8,
    /// Simulated minutes (the population window plus the index margin).
    pub minutes: usize,
    /// All cells of the level in quadkey order, empty cells included, so
    /// plan order is stable across populations.
    pub cells: Vec<ShardCell>,
    disc_broadcast_minutes: u64,
}

impl ShardPlan {
    /// Builds the plan for `shards` cells (a power of four: 1, 4, 16, …).
    pub fn build(pop: &Population, shards: usize) -> ShardPlan {
        let depth = pscp_simnet::geo::quad_depth_for(shards)
            .expect("shard count must be a power of four (1, 4, 16, ...)");
        let minutes = (pop.config.window.as_secs_f64() / 60.0).ceil() as usize + 1;
        let mut cells: Vec<ShardCell> = (0..shards)
            .map(|k| ShardCell {
                id: CellId { depth, key: k as u16 },
                members: Vec::new(),
                minute_disc: vec![Vec::new(); minutes],
            })
            .collect();
        let mut disc_broadcast_minutes = 0u64;
        for (i, b) in pop.broadcasts.iter().enumerate() {
            let ci = GeoRect::quad_cell(&b.location, depth) as usize;
            cells[ci].members.push(i as u32);
            if b.private || !b.location_public {
                continue;
            }
            let first = (b.start.as_micros() / 60_000_000) as usize;
            let last = ((b.end().as_micros() / 60_000_000) as usize).min(minutes - 1);
            for m in first..=last.max(first) {
                cells[ci].minute_disc[m].push(i as u32);
                disc_broadcast_minutes += 1;
            }
        }
        ShardPlan { depth, minutes, cells, disc_broadcast_minutes }
    }

    /// Number of shards (cells) in the plan.
    pub fn shards(&self) -> usize {
        self.cells.len()
    }

    /// The plan-order index of the cell containing `p`.
    pub fn cell_index(&self, p: &GeoPoint) -> usize {
        GeoRect::quad_cell(p, self.depth) as usize
    }

    /// Total discoverable broadcast-minutes — the arrival-sampling domain.
    pub fn discoverable_broadcast_minutes(&self) -> u64 {
        self.disc_broadcast_minutes
    }

    /// Every primary arrival of a run, ordered by (minute, global broadcast
    /// index): each discoverable broadcast-minute spawns one with
    /// probability `target_sessions` / [discoverable broadcast-minutes],
    /// decided by a hash of `(seed, broadcast id, minute)`. Nothing in the
    /// list — members or order — depends on the plan's depth.
    ///
    /// [discoverable broadcast-minutes]: ShardPlan::discoverable_broadcast_minutes
    pub fn arrivals(&self, pop: &Population, seed: u64, target_sessions: usize) -> Vec<Arrival> {
        let rate = (target_sessions as f64 / self.disc_broadcast_minutes.max(1) as f64).min(1.0);
        let mut out = Vec::new();
        for m in 0..self.minutes {
            let minute_from = out.len();
            for cell in &self.cells {
                for &bi in cell.discoverable_at_minute(m) {
                    let id = pop.broadcasts[bi as usize].id.0;
                    let h = mix(seed ^ id ^ (m as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
                    if unit(h) < rate {
                        let key = mix(h ^ 0x5e55_1011);
                        out.push(Arrival { minute: m as u32, broadcast: bi, key });
                    }
                }
            }
            // Cells list their members in global order; restore it across
            // cells (a handful of arrivals a minute).
            out[minute_from..].sort_unstable_by_key(|a| a.broadcast);
        }
        out
    }

    /// The population census at [`REF_DEPTH`] off a plan of that depth.
    fn census(&self) -> Vec<CensusRow> {
        debug_assert_eq!(self.depth, REF_DEPTH);
        self.cells
            .iter()
            .filter(|c| !c.members.is_empty())
            .map(|c| CensusRow {
                quadkey: c.id.quadkey(),
                broadcasts: c.members.len() as u64,
                peak_discoverable: c.minute_disc.iter().map(|v| v.len() as u64).max().unwrap_or(0),
            })
            .collect()
    }

    /// Bytes held by the plan's index vectors (measured over lengths, not
    /// allocator capacities, so equal plans report equal footprints — see
    /// `QuantileSketch::memory_bytes`). Note the footprint legitimately
    /// depends on the configured shard count: a 16-cell plan carries more
    /// index structure than a 1-cell plan.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<ShardPlan>()
            + self
                .cells
                .iter()
                .map(|c| {
                    std::mem::size_of::<ShardCell>()
                        + c.members.len() * 4
                        + c.minute_disc.iter().map(|v| 24 + v.len() * 4).sum::<usize>()
                })
                .sum::<usize>()
    }
}

/// Exactly mergeable roll-up of a scale run: `u64` counters and quantile
/// sketches only, so merging is integer addition in any order.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Sessions executed (primary + migrated).
    pub sessions: u64,
    /// Primary (arrival-spawned) sessions executed.
    pub primary: u64,
    /// Migrated-in sessions executed.
    pub migrated_in: u64,
    /// Sessions that never rendered a frame.
    pub never_joined: u64,
    /// Arrivals whose broadcast had no joinable instant left this minute.
    pub skipped: u64,
    /// Join times, µs (never-joined counts its full watch, like
    /// [`QoeTelemetry`]).
    pub join_us: QuantileSketch,
    /// Stall ratios, parts per million.
    pub stall_ppm: QuantileSketch,
    /// Total watch time, µs.
    pub watch_us: u64,
    /// Onward teleports that found a live destination.
    pub migrations_out: u64,
    /// Of those, destination in a different [`REF_DEPTH`] cell.
    pub migrations_cross: u64,
    /// Migrations whose pick found nothing live, or whose destination had
    /// ended by delivery time.
    pub migrations_dropped: u64,
    /// Chat messages posted by viewers.
    pub chat_out: u64,
    /// Chat messages delivered into broadcasts' rooms.
    pub chat_in: u64,
    /// Of those, posted from a different [`REF_DEPTH`] cell than the
    /// broadcast's.
    pub chat_cross: u64,
}

impl Default for ShardStats {
    fn default() -> Self {
        ShardStats::new()
    }
}

impl ShardStats {
    /// An empty accumulator.
    pub fn new() -> ShardStats {
        ShardStats {
            sessions: 0,
            primary: 0,
            migrated_in: 0,
            never_joined: 0,
            skipped: 0,
            join_us: QuantileSketch::new(),
            stall_ppm: QuantileSketch::new(),
            watch_us: 0,
            migrations_out: 0,
            migrations_cross: 0,
            migrations_dropped: 0,
            chat_out: 0,
            chat_in: 0,
            chat_cross: 0,
        }
    }

    /// Merges another accumulator in (exact: integer addition only).
    pub fn merge(&mut self, other: &ShardStats) {
        self.sessions += other.sessions;
        self.primary += other.primary;
        self.migrated_in += other.migrated_in;
        self.never_joined += other.never_joined;
        self.skipped += other.skipped;
        self.join_us.merge(&other.join_us);
        self.stall_ppm.merge(&other.stall_ppm);
        self.watch_us += other.watch_us;
        self.migrations_out += other.migrations_out;
        self.migrations_cross += other.migrations_cross;
        self.migrations_dropped += other.migrations_dropped;
        self.chat_out += other.chat_out;
        self.chat_in += other.chat_in;
        self.chat_cross += other.chat_cross;
    }

    /// Folds what one arrival left behind, primary session first.
    fn fold(&mut self, telemetry: &mut QoeTelemetry, delta: &ArrivalDelta) {
        let Some(primary) = &delta.primary else {
            self.skipped += 1;
            return;
        };
        self.primary += 1;
        self.fold_session(telemetry, primary);
        match &delta.hop {
            Hop::Stayed => {}
            Hop::NowhereLive => self.migrations_dropped += 1,
            Hop::Teleported { cross, session } => {
                self.migrations_out += 1;
                self.migrations_cross += u64::from(*cross);
                match session {
                    Some(session) => {
                        self.migrated_in += 1;
                        self.fold_session(telemetry, session);
                    }
                    None => self.migrations_dropped += 1,
                }
            }
        }
    }

    fn fold_session(&mut self, telemetry: &mut QoeTelemetry, d: &SessionDelta) {
        self.sessions += 1;
        if d.sample.join_s.is_none() {
            self.never_joined += 1;
        }
        self.join_us.observe(us(d.sample.join_s.unwrap_or(d.sample.session_s)));
        self.stall_ppm.observe((d.sample.stall_ratio * 1e6).round() as u64);
        self.watch_us += us(d.sample.session_s);
        self.chat_out += d.chat;
        self.chat_in += d.chat;
        if d.chat_cross {
            self.chat_cross += d.chat;
        }
        telemetry.fold_sample(&d.sample);
    }

    /// Bytes held by the sketch state.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<ShardStats>()
            + self.join_us.memory_bytes()
            + self.stall_ppm.memory_bytes()
    }

    /// The roll-up as one JSON object ([`ShardStats::write_json`]).
    pub fn json(&self) -> String {
        let mut s = String::with_capacity(512);
        self.write_json(&mut Writer::new(&mut s));
        s
    }

    /// Writes the roll-up as one JSON object: integers and floats derived
    /// from integers only, so equal stats render equal bytes.
    pub fn write_json(&self, w: &mut Writer<'_>) {
        let quantiles = |w: &mut Writer<'_>, sk: &QuantileSketch, scale: f64| {
            for (key, p) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
                w.key(key).number_or_null(sk.quantile(p).map(|v| v as f64 / scale));
            }
        };
        w.begin_object();
        w.key("chat").begin_object();
        w.key("cross_cell").int(self.chat_cross);
        w.key("in").int(self.chat_in);
        w.key("out").int(self.chat_out);
        w.end_object();
        w.key("join_s").begin_object();
        let n = self.join_us.count();
        let mean = (n > 0).then(|| self.join_us.sum() as f64 / n as f64 / 1e6);
        w.key("mean").number_or_null(mean);
        quantiles(w, &self.join_us, 1e6);
        w.end_object();
        w.key("migrated_in").int(self.migrated_in);
        w.key("migrations").begin_object();
        w.key("cross_cell").int(self.migrations_cross);
        w.key("dropped").int(self.migrations_dropped);
        w.key("out").int(self.migrations_out);
        w.end_object();
        w.key("never_joined").int(self.never_joined);
        w.key("primary").int(self.primary);
        w.key("sessions").int(self.sessions);
        w.key("skipped").int(self.skipped);
        w.key("stall_ppm").begin_object();
        quantiles(w, &self.stall_ppm, 1.0);
        w.end_object();
        w.key("watch_hours").number(self.watch_us as f64 / 3.6e9);
        w.end_object();
    }
}

/// Scale-run settings.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Shard count (a power of four): the depth of the plan. Scheduling
    /// does not depend on it.
    pub shards: usize,
    /// Worker threads (`0` = auto, like [`pscp_simnet::par`]).
    pub threads: usize,
    /// Expected primary sessions across the whole run; the per
    /// broadcast-minute spawn probability is derived from this and the
    /// plan's discoverable broadcast-minutes, so it is shard-invariant.
    pub target_sessions: usize,
    /// Probability a finished primary session teleports onward (one hop).
    pub migrate_prob: f64,
    /// Expected chat messages per watched minute.
    pub chat_per_watch_min: f64,
    /// Per-session configuration (network, watch budget, players).
    pub session: SessionConfig,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            shards: 16,
            threads: 0,
            target_sessions: 1000,
            migrate_prob: 0.25,
            chat_per_watch_min: 3.0,
            session: SessionConfig::default(),
        }
    }
}

/// One row of the fixed-depth population census.
#[derive(Debug, Clone)]
pub struct CensusRow {
    /// Quadkey of the cell at [`REF_DEPTH`].
    pub quadkey: String,
    /// Broadcasts located in the cell.
    pub broadcasts: u64,
    /// Peak discoverable broadcasts in any one minute.
    pub peak_discoverable: u64,
}

/// Result of a scale run.
#[derive(Debug)]
pub struct ScaleRun {
    /// Broadcasts in the world.
    pub broadcasts: usize,
    /// Shards the run used.
    pub shards: usize,
    /// Minutes simulated.
    pub minutes: usize,
    /// The run's roll-up.
    pub stats: ShardStats,
    /// The run's QoE telemetry (DESIGN.md §11 instruments).
    pub telemetry: QoeTelemetry,
    /// Population census at [`REF_DEPTH`] (non-empty cells, quadkey order).
    pub census: Vec<CensusRow>,
    /// Bytes held by the shard plan's indexes.
    pub plan_bytes: usize,
    /// Wall-clock profile of the session schedule (profiling data only).
    pub par: ParProfile,
}

/// Arrivals executed between folds: the most per-session deltas ever in
/// flight, however long the run.
pub const FOLD_BATCH: usize = 4096;

/// What one executed session leaves behind for the roll-up.
struct SessionDelta {
    sample: SessionSample,
    /// Chat messages the viewer posted into the broadcast's room.
    chat: u64,
    /// Whether the viewer's home and the broadcast differ at [`REF_DEPTH`].
    chat_cross: bool,
}

/// A finished primary's onward teleport (one hop bounds the cascade).
enum Hop {
    /// The viewer did not teleport on.
    Stayed,
    /// They tried; no broadcast was live.
    NowhereLive,
    /// They landed on a broadcast — in a different [`REF_DEPTH`] cell if
    /// `cross` — and watched it, unless it ended before they could join.
    Teleported { cross: bool, session: Option<SessionDelta> },
}

/// What one arrival leaves behind: its primary session (`None` when the
/// broadcast had no joinable instant left in the minute) and the hop.
struct ArrivalDelta {
    primary: Option<SessionDelta>,
    hop: Hop,
}

/// Uniform [0, 1) from a hash. All scale-run coin flips key on `mix`
/// (SplitMix64) so they are pure functions of (seed, broadcast, minute) or
/// (seed, session), never of shard or thread scheduling.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Microseconds from seconds, saturating at zero.
fn us(secs: f64) -> u64 {
    (secs * 1e6).round().max(0.0) as u64
}

/// The population census at [`REF_DEPTH`]: broadcasts and peak
/// discoverable-per-minute per cell. A pure function of the population, so
/// it is identical at every shard count by construction.
pub fn census(pop: &Population) -> Vec<CensusRow> {
    ShardPlan::build(pop, 1usize << (2 * REF_DEPTH as usize)).census()
}

/// Runs the scale workload: every arrival of the run on one session
/// schedule, folded in arrival order. See the module docs for the
/// determinism argument.
pub fn run_scale(service: &PeriscopeService, rngs: &RngFactory, cfg: &ScaleConfig) -> ScaleRun {
    let pop = &service.population;
    let plan = ShardPlan::build(pop, cfg.shards);
    let scale_rngs = rngs.child("scale");
    let arrivals = plan.arrivals(pop, scale_rngs.seed(), cfg.target_sessions);
    let (stats, telemetry, par) =
        Engine::new(service, scale_rngs, plan.minutes, cfg).run(&arrivals, FOLD_BATCH);
    ScaleRun {
        broadcasts: pop.broadcasts.len(),
        shards: plan.shards(),
        minutes: plan.minutes,
        stats,
        telemetry,
        census: if plan.depth == REF_DEPTH { plan.census() } else { census(pop) },
        plan_bytes: plan.memory_bytes(),
        par,
    }
}

/// What a work item reads: the immutable world and the run's settings.
struct Engine<'a> {
    tp: Teleport<'a>,
    pop: &'a Population,
    minutes: usize,
    cfg: &'a ScaleConfig,
    /// Sum of the [`CITIES`] activity weights.
    city_weights: f64,
}

impl<'a> Engine<'a> {
    fn new(
        service: &'a PeriscopeService,
        scale_rngs: RngFactory,
        minutes: usize,
        cfg: &'a ScaleConfig,
    ) -> Engine<'a> {
        Engine {
            tp: Teleport::new(service, scale_rngs),
            pop: &service.population,
            minutes,
            cfg,
            city_weights: CITIES.iter().map(|c| c.weight).sum(),
        }
    }

    /// Executes `arrivals`, `batch` at a time, folding each batch's deltas
    /// in arrival order before the next starts.
    fn run(&self, arrivals: &[Arrival], batch: usize) -> (ShardStats, QoeTelemetry, ParProfile) {
        let mut stats = ShardStats::new();
        let mut telemetry = QoeTelemetry::new();
        let mut profile = ParProfile::default();
        for chunk in arrivals.chunks(batch) {
            let (deltas, chunk_profile) =
                par::indexed_map_timed(chunk, self.cfg.threads, |_, a| self.run_arrival(a));
            profile.absorb(&chunk_profile);
            for delta in &deltas {
                stats.fold(&mut telemetry, delta);
            }
        }
        (stats, telemetry, profile)
    }

    /// One arrival: the primary session and, right after it, the follow-on
    /// session of its onward teleport — a function of the primary's key
    /// (destination stream `scale/mig/{key}`, joined the next minute), so
    /// it needs nothing from any other arrival.
    fn run_arrival(&self, a: &Arrival) -> ArrivalDelta {
        let b = &self.pop.broadcasts[a.broadcast as usize];
        let (m, key) = (a.minute as usize, a.key);
        let Some(primary) = self.run_session(b, m, key) else {
            return ArrivalDelta { primary: None, hop: Hop::Stayed };
        };
        let teleports =
            m + 1 < self.minutes && unit(mix(key ^ 0x3141_5926)) < self.cfg.migrate_prob;
        let hop = if teleports {
            // The destination is sampled from the global population as of
            // the next minute, with a stream keyed by this session alone.
            let t_next = SimTime::from_secs((m as u64 + 1) * 60);
            let mut rng = self.tp.rngs().stream(&format!("scale/mig/{key:016x}"));
            match self.pop.sample_live_weighted(t_next, &mut rng) {
                Some(dest) => Hop::Teleported {
                    cross: ref_cell(&dest.location) != ref_cell(&b.location),
                    session: self.run_session(dest, m + 1, mix(key ^ 0x6d19_0001)),
                },
                None => Hop::NowhereLive,
            }
        } else {
            Hop::Stayed
        };
        ArrivalDelta { primary: Some(primary), hop }
    }

    /// Executes one session joining `b` somewhere in minute `m` while it is
    /// still live (with a second to spare); `None` if no such instant is
    /// left. Nothing here reads a capture, so the session runs uncaptured.
    fn run_session(&self, b: &Broadcast, m: usize, key: u64) -> Option<SessionDelta> {
        let minute_start = SimTime::from_secs(m as u64 * 60);
        let minute_end = SimTime::from_secs(m as u64 * 60 + 60);
        let lo = b.start.max(minute_start);
        let hi =
            SimTime::from_micros(b.end().as_micros().saturating_sub(1_000_000)).min(minute_end);
        if hi < lo {
            return None;
        }
        let span_us = hi.as_micros() - lo.as_micros();
        let join_at = SimTime::from_micros(
            lo.as_micros() + (span_us as f64 * unit(mix(key ^ 0x0010_ca7e))) as u64,
        );
        let sample = SessionSample::of(&self.tp.run_one_uncaptured(
            b,
            join_at,
            &self.cfg.session,
            key,
            &mut pscp_obs::Trace::disabled(),
        ));

        // Chat fan-in: the viewer posts from their home city into the
        // broadcast's room, at the configured rate with stochastic rounding.
        let watch_min = sample.session_s / 60.0;
        let chat =
            (self.cfg.chat_per_watch_min * watch_min + unit(mix(key ^ 0xc4a7_0002))).floor() as u64;
        let chat_cross = chat > 0 && ref_cell(&self.viewer_home(key)) != ref_cell(&b.location);
        Some(SessionDelta { sample, chat, chat_cross })
    }

    /// The deterministic home location of a session's viewer: a city drawn
    /// from the global activity weights by the session hash.
    fn viewer_home(&self, key: u64) -> GeoPoint {
        let mut u = unit(mix(key ^ 0xc4a7_0001)) * self.city_weights;
        for city in CITIES {
            u -= city.weight;
            if u <= 0.0 {
                return city.point();
            }
        }
        CITIES[CITIES.len() - 1].point()
    }
}

/// The [`REF_DEPTH`] cell of a location.
fn ref_cell(p: &GeoPoint) -> u16 {
    GeoRect::quad_cell(p, REF_DEPTH)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_service::ServiceConfig;
    use pscp_workload::population::PopulationConfig;

    fn qoe(t: &QoeTelemetry) -> String {
        let mut out = String::new();
        t.write_json(&mut Writer::new(&mut out));
        out
    }

    fn world(seed: u64) -> PeriscopeService {
        let pop = Population::generate(PopulationConfig::small(), &RngFactory::new(seed));
        PeriscopeService::new(pop, ServiceConfig::default())
    }

    #[test]
    fn plan_partitions_every_broadcast_exactly_once() {
        let svc = world(11);
        for shards in [1usize, 4, 16] {
            let plan = ShardPlan::build(&svc.population, shards);
            assert_eq!(plan.shards(), shards);
            let mut seen = vec![0u8; svc.population.broadcasts.len()];
            for cell in &plan.cells {
                for &i in &cell.members {
                    seen[i as usize] += 1;
                    let b = &svc.population.broadcasts[i as usize];
                    assert!(cell.id.rect().contains(&b.location));
                }
            }
            assert!(seen.iter().all(|&n| n == 1), "partition must be total and disjoint");
        }
    }

    #[test]
    fn quadkeys_name_cells() {
        let p = GeoPoint::new(60.17, 24.94); // Helsinki: NE of the world
        assert_eq!(CellId::of(&p, 0).quadkey(), "");
        assert_eq!(CellId::of(&p, 1).quadkey(), "3");
        assert_eq!(CellId::of(&p, 2).quadkey().len(), 2);
    }

    #[test]
    fn scale_run_is_shard_invariant() {
        let svc = world(2016);
        let rngs = RngFactory::new(2016);
        let base = ScaleConfig { target_sessions: 60, threads: 1, shards: 1, ..Default::default() };
        let runs: Vec<ScaleRun> = [1usize, 4, 16]
            .iter()
            .map(|&shards| {
                let cfg = ScaleConfig {
                    shards,
                    threads: if shards == 16 { 0 } else { 1 },
                    ..base.clone()
                };
                run_scale(&svc, &rngs, &cfg)
            })
            .collect();
        assert!(runs[0].stats.sessions > 10, "sessions={}", runs[0].stats.sessions);
        for r in &runs[1..] {
            assert_eq!(r.stats.json(), runs[0].stats.json());
            assert_eq!(qoe(&r.telemetry), qoe(&runs[0].telemetry));
        }
    }

    /// Batching is inert and bounds memory: a run folded three arrivals at
    /// a time holds at most three deltas between folds, and rolls up to
    /// the same bytes as one folded in a single batch.
    #[test]
    fn fold_batch_size_does_not_reach_the_rollup() {
        let svc = world(2016);
        let pop = &svc.population;
        let cfg = ScaleConfig { threads: 2, ..Default::default() };
        let rngs = RngFactory::new(2016).child("scale");
        let plan = ShardPlan::build(pop, 16);
        let arrivals = plan.arrivals(pop, rngs.seed(), 40);
        assert!(arrivals.len() > 9, "arrivals={}", arrivals.len());
        let engine = Engine::new(&svc, rngs, plan.minutes, &cfg);
        let (whole, whole_qoe, _) = engine.run(&arrivals, FOLD_BATCH);
        let (small, small_qoe, profile) = engine.run(&arrivals, 3);
        assert_eq!(small.json(), whole.json());
        assert_eq!(qoe(&small_qoe), qoe(&whole_qoe));
        assert!(whole.sessions as usize >= arrivals.len());
        assert_eq!(profile.busy_secs.len(), 2);
    }

    #[test]
    fn migrations_and_chat_cross_cells() {
        let svc = world(7);
        let rngs = RngFactory::new(7);
        let cfg = ScaleConfig { target_sessions: 80, ..Default::default() };
        let run = run_scale(&svc, &rngs, &cfg);
        assert!(run.stats.migrations_out > 0, "no migrations at all");
        assert!(run.stats.chat_out > 0, "no chat at all");
        assert_eq!(run.stats.chat_out, run.stats.chat_in, "chat routing must conserve messages");
        assert!(run.stats.chat_cross > 0, "no cross-cell chat fan-in");
        assert_eq!(run.stats.sessions, run.stats.primary + run.stats.migrated_in);
    }

    #[test]
    fn census_is_a_pure_population_fact() {
        let svc = world(5);
        let rows = census(&svc.population);
        let total: u64 = rows.iter().map(|r| r.broadcasts).sum();
        assert_eq!(total, svc.population.broadcasts.len() as u64);
        for w in rows.windows(2) {
            assert!(w[0].quadkey < w[1].quadkey, "census must be in quadkey order");
        }
    }
}
