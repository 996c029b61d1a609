//! Quadtree sharding of the service world (DESIGN.md §13).
//!
//! [`ShardPlan`] partitions an **already generated** [`Population`] into
//! geo quadtree cells: the cell of a broadcast is a pure function of its
//! location ([`GeoRect::quad_cell`]), so the partition itself never draws
//! randomness and never depends on shard count. [`run_scale`] is a plan and
//! a fold like any dataset: it lists every primary arrival of the run up
//! front ([`ShardPlan::arrivals`]), turns the list into a Teleport plan —
//! each arrival's session, then right after it the follow-on session of its
//! onward teleport — and hands the plan to [`Teleport::execute`], the
//! executor every dataset uses, which folds each outcome into the roll-up
//! on the calling thread, in plan order. The shard count selects the depth
//! of the plan (its index footprint and the report's `shards` field); it
//! has no say in scheduling.
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
//!    alone), the follow-on session one minute later — is decided by the
//!    serial plan from the arrival alone, and the chat a viewer posts from
//!    their home city is a function of the session's key and watch time.
//! 3. **One thread folds, in plan order.** Sessions run uncaptured (no
//!    capture exists), and the executor folds each outcome in plan order
//!    whatever order the workers finished in, so even the float moments of
//!    [`QoeTelemetry`] see one fixed sequence. [`ShardStats`] still merges
//!    exactly (`u64` counters and [`QuantileSketch`] buckets), but the run
//!    does not lean on it. Cross-cell rates are measured at the fixed
//!    [`REF_DEPTH`] so the *metric* does not move with the shard count
//!    either.
//!
//! An outcome never outlives its batch: the executor runs
//! [`FOLD_BATCH`](pscp_client::teleport::FOLD_BATCH) sessions at a time
//! and the fold reduces each straight into one [`ShardStats`] and one
//! [`QoeTelemetry`], so memory is the plan plus one batch of uncaptured
//! outcomes of a few hundred bytes each, not O(sessions) — the property
//! that makes the 1M-broadcast tier of `repro scale` feasible.

use pscp_client::session::SessionConfig;
use pscp_client::teleport::PlannedSession;
use pscp_client::{SessionOutcome, Teleport};
use pscp_obs::Observer;
use pscp_proto::json::Writer;
use pscp_qoe::telemetry::SessionSample;
use pscp_qoe::QoeTelemetry;
use pscp_service::PeriscopeService;
use pscp_simnet::par::ParProfile;
use pscp_simnet::rng::splitmix64 as mix;
use pscp_simnet::{GeoPoint, GeoRect, RngFactory, SimTime};
use pscp_stats::QuantileSketch;
use pscp_workload::broadcast::Broadcast;
use pscp_workload::cities::CITIES;
use pscp_workload::population::Population;

pub use pscp_simnet::geo::REF_DEPTH;

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

/// One primary arrival of a scale run: what the run's plan is built from.
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

    /// Folds one executed session of the plan: its QoE, and the chat its
    /// viewer posts from their home city into the broadcast's room, at
    /// `chat_per_watch_min` with stochastic rounding.
    fn fold_session(
        &mut self,
        telemetry: &mut QoeTelemetry,
        chat_per_watch_min: f64,
        p: &PlannedSession<'_>,
        outcome: &SessionOutcome,
    ) {
        let sample = SessionSample::of(outcome);
        self.sessions += 1;
        if sample.join_s.is_none() {
            self.never_joined += 1;
        }
        self.join_us.observe(us(sample.join_s.unwrap_or(sample.session_s)));
        self.stall_ppm.observe((sample.stall_ratio * 1e6).round() as u64);
        self.watch_us += us(sample.session_s);
        let watch_min = sample.session_s / 60.0;
        let chat = (chat_per_watch_min * watch_min + unit(mix(p.idx ^ 0xc4a7_0002))).floor() as u64;
        self.chat_out += chat;
        self.chat_in += chat;
        if chat > 0 && ref_cell(&viewer_home(p.idx)) != ref_cell(&p.broadcast.location) {
            self.chat_cross += chat;
        }
        telemetry.fold_sample(&sample);
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

/// Runs the scale workload: every arrival of the run planned as Teleport
/// sessions, executed and folded in plan order. See the module docs for
/// the determinism argument.
pub fn run_scale(service: &PeriscopeService, rngs: &RngFactory, cfg: &ScaleConfig) -> ScaleRun {
    let pop = &service.population;
    let plan = ShardPlan::build(pop, cfg.shards);
    let scale_rngs = rngs.child("scale");
    let arrivals = plan.arrivals(pop, scale_rngs.seed(), cfg.target_sessions);
    let tp = Teleport::new(service, scale_rngs);
    let mut stats = ShardStats::new();
    let sessions = plan_sessions(&tp, pop, &arrivals, plan.minutes, cfg, &mut stats);
    let mut telemetry = QoeTelemetry::new();
    let par = tp.execute(&sessions, cfg.threads, Observer::disabled_ref(), |p, o| {
        stats.fold_session(&mut telemetry, cfg.chat_per_watch_min, p, &o)
    });
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

/// The run's sessions, in arrival order: each arrival's primary and, right
/// after it, the follow-on of its onward teleport (one hop bounds the
/// cascade) — destination stream `scale/mig/{key}`, joined the next
/// minute, so it needs nothing from any other arrival. Whether a session
/// runs, and whether and where it hops, are decided here, so the counters
/// they set go straight into `stats`.
fn plan_sessions<'a>(
    tp: &Teleport<'a>,
    pop: &'a Population,
    arrivals: &[Arrival],
    minutes: usize,
    cfg: &ScaleConfig,
    stats: &mut ShardStats,
) -> Vec<PlannedSession<'a>> {
    let entry = |broadcast: &'a Broadcast, m: usize, key: u64| {
        join_instant(broadcast, m, key).map(|join_at| PlannedSession {
            idx: key,
            join_at,
            broadcast,
            session: cfg.session.clone(),
            analyze: false,
        })
    };
    let mut sessions = Vec::with_capacity(arrivals.len());
    for a in arrivals {
        let b = &pop.broadcasts[a.broadcast as usize];
        let (m, key) = (a.minute as usize, a.key);
        let Some(primary) = entry(b, m, key) else {
            stats.skipped += 1;
            continue;
        };
        stats.primary += 1;
        sessions.push(primary);
        let teleports = m + 1 < minutes && unit(mix(key ^ 0x3141_5926)) < cfg.migrate_prob;
        if !teleports {
            continue;
        }
        // The destination is sampled from the global population as of the
        // next minute, with a stream keyed by this session alone.
        let t_next = SimTime::from_secs((m as u64 + 1) * 60);
        let mut rng = tp.rngs().stream(&format!("scale/mig/{key:016x}"));
        let Some(dest) = tp.pick(t_next, &mut rng) else {
            stats.migrations_dropped += 1;
            continue;
        };
        stats.migrations_out += 1;
        stats.migrations_cross += u64::from(ref_cell(&dest.location) != ref_cell(&b.location));
        match entry(dest, m + 1, mix(key ^ 0x6d19_0001)) {
            Some(follow_on) => {
                stats.migrated_in += 1;
                sessions.push(follow_on);
            }
            None => stats.migrations_dropped += 1,
        }
    }
    sessions
}

/// When a session keyed `key` joins `b` in minute `m`: uniform over the
/// part of the minute in which `b` is still live with a second to spare;
/// `None` if no such instant is left.
fn join_instant(b: &Broadcast, m: usize, key: u64) -> Option<SimTime> {
    let minute_start = SimTime::from_secs(m as u64 * 60);
    let minute_end = SimTime::from_secs(m as u64 * 60 + 60);
    let lo = b.start.max(minute_start);
    let hi = SimTime::from_micros(b.end().as_micros().saturating_sub(1_000_000)).min(minute_end);
    if hi < lo {
        return None;
    }
    let span_us = hi.as_micros() - lo.as_micros();
    let offset_us = (span_us as f64 * unit(mix(key ^ 0x0010_ca7e))) as u64;
    Some(SimTime::from_micros(lo.as_micros() + offset_us))
}

/// The deterministic home location of a session's viewer: a city drawn
/// from the global activity weights by the session hash.
fn viewer_home(key: u64) -> GeoPoint {
    let mut u = unit(mix(key ^ 0xc4a7_0001)) * CITIES.iter().map(|c| c.weight).sum::<f64>();
    for city in CITIES {
        u -= city.weight;
        if u <= 0.0 {
            return city.point();
        }
    }
    CITIES[CITIES.len() - 1].point()
}

/// The [`REF_DEPTH`] cell of a location.
fn ref_cell(p: &GeoPoint) -> u16 {
    GeoRect::quad_cell(p, REF_DEPTH)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_service::ServiceConfig;
    use pscp_simnet::geo::REF_QUADKEYS;
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

    /// The alerting rings' static cell keys name the census's cells: one
    /// reference grid.
    #[test]
    fn ref_quadkeys_are_the_reference_cells() {
        for k in 0..16u16 {
            assert_eq!(REF_QUADKEYS[k as usize], CellId { depth: REF_DEPTH, key: k }.quadkey());
        }
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
        // The plan accounts for every arrival: its primary runs or is skipped.
        let pop = &svc.population;
        let seed = rngs.child("scale").seed();
        let arrivals = ShardPlan::build(pop, cfg.shards).arrivals(pop, seed, cfg.target_sessions);
        assert_eq!(run.stats.primary + run.stats.skipped, arrivals.len() as u64);
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
