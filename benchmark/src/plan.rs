//! Inputs: the reference world, the sizes, and each workload's session
//! plan — a pure function of `--seed`.
//!
//! The *world* (population and service) is the fixed reference world of
//! [`WORLD_SEED`]: the simulated Periscope of the paper, which its authors
//! could sample but not re-roll. `--seed` drives everything the measuring
//! apparatus randomises: join times, Teleport picks, devices, session RNG
//! keys, fault seeds and crawl start times. Re-rolling the world as well
//! moves the RTMP share of the Teleport mix between 0.48 and 0.63 (seeds
//! 1–10) and with it sessions/s by 11 % and the median session by 15 % —
//! more than any bound the benchmark may set (README, "Seeds").

use crate::metrics::Workload;
use pscp_client::device::{NetworkSetup, ViewerDevice};
use pscp_client::SessionConfig;
use pscp_core::{Lab, LabConfig};
use pscp_service::select::Protocol;
use pscp_service::PeriscopeService;
use pscp_simnet::rng::Rng;
use pscp_simnet::{FaultConfig, RngFactory, SimDuration, SimTime};
use pscp_workload::broadcast::{Broadcast, BroadcastId};

/// Seed of the reference world (the default 4 h / 7 arrivals·s⁻¹
/// population, ≈104.8K broadcasts).
pub const WORLD_SEED: u64 = 2016;
/// UTC hour at simulation t = 0, as in the paper-scale lab.
pub const UTC_START_HOUR: f64 = 12.0;
/// The paper's eleven `tc` limits, Mbps.
pub const TC_LIMITS_MBPS: [f64; 11] = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
/// `fanout_hot`: broadcasts per arm, viewers per broadcast, join instant.
pub const FANOUT_BROADCASTS: usize = 6;
pub const FANOUT_VIEWERS: usize = 25;
pub const FANOUT_T0_S: u64 = 2 * 3600;
/// `chaos_recovery`: loss scale of `FaultConfig::chaos`.
pub const CHAOS_LOSS_SCALE: f64 = 2.0;
/// Forced transports of the chaos arms and of the traced forced replays.
pub const TRANSPORTS: [Protocol; 3] = [Protocol::Rtmp, Protocol::Hls, Protocol::Srt];

/// Every size the benchmark fixes. `full` is what `BENCHMARK.json`
/// describes; `quick` is a smoke size whose numbers are not comparable.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub quick: bool,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
    /// Untimed sessions before the timed loop.
    pub warmup: usize,
    /// Teleport picks planned (the loop cycles if it outruns them).
    pub picks: usize,
    /// Sessions the timed loop always completes; `sim.*` and the digest
    /// cover exactly these, so they repeat whatever the host speed.
    pub sim_prefix: usize,
    /// Rounds the window is cut into. Each starts with a crawl slice
    /// (`crawl_s` is the median slice) and ends with sessions; in
    /// `crawl_usage` a round crawls for `crawl_share` of its time.
    pub rounds: usize,
    /// Simulated length of one targeted crawl slice.
    pub slice_minutes: u64,
    pub crawl_share: f64,
    /// `run_scale` target per pass and the share of the window during
    /// which another pass may start.
    pub scale_target: usize,
    pub scale_share: f64,
    /// Sessions of the traced stage-replica sample, and how many of them
    /// are replayed under each forced transport.
    pub sample: usize,
    pub forced: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            quick: false,
            setup_reps: 5,
            warmup: 32,
            picks: 2048,
            sim_prefix: 192,
            rounds: 5,
            slice_minutes: 10,
            crawl_share: 0.65,
            scale_target: 800,
            scale_share: 0.4,
            sample: 64,
            forced: 16,
        }
    }

    pub fn quick() -> Sizes {
        Sizes {
            quick: true,
            setup_reps: 1,
            warmup: 2,
            picks: 256,
            sim_prefix: 12,
            rounds: 1,
            slice_minutes: 2,
            crawl_share: 0.5,
            scale_target: 24,
            scale_share: 0.0,
            sample: 6,
            forced: 2,
        }
    }
}

/// Builds the workload's world: the full reference world for the session
/// workloads, its crawler-visible view for `crawl_usage`.
pub fn build_world(w: Workload) -> PeriscopeService {
    let lab = Lab::new(LabConfig::paper(WORLD_SEED));
    match w {
        Workload::CrawlUsage => lab.crawl_service_at_hour(UTC_START_HOUR),
        _ => lab.service_at_hour(UTC_START_HOUR),
    }
}

/// What the output check expects of one planned session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The service's viewer-count policy decides (RTMP or HLS).
    ServiceChoice,
    /// This protocol exactly.
    Exactly(Protocol),
    /// A forced arm under chaos: the forced protocol or a recorded
    /// fallback (SRT → RTMP → HLS on a persistent ingest outage).
    ChaosArm(Protocol),
}

/// One planned viewing session. The broadcast is held by id, so a plan
/// borrows nothing from the service it was made against.
#[derive(Debug, Clone)]
pub struct Planned {
    pub broadcast: BroadcastId,
    pub join_at: SimTime,
    /// Session key: the RNG namespace `Teleport::run_one` draws from.
    pub key: u64,
    pub config: SessionConfig,
    pub expect: Expect,
    /// Unlimited bandwidth and no faults: the session must join.
    pub must_join: bool,
}

impl Planned {
    fn clean(b: &Broadcast, join_at: SimTime, key: u64, expect: Expect) -> Planned {
        let device =
            if key.is_multiple_of(2) { ViewerDevice::GalaxyS4 } else { ViewerDevice::GalaxyS3 };
        Planned {
            broadcast: b.id,
            join_at,
            key,
            config: SessionConfig { device, ..Default::default() },
            expect,
            must_join: true,
        }
    }
}

/// Uniform join instant inside the population window, away from its edges
/// (as `Teleport::run_dataset` plans them).
fn join_instant(svc: &PeriscopeService, rng: &mut impl Rng) -> SimTime {
    let latest = (svc.population.config.window.as_secs_f64() - 100.0).max(60.0);
    SimTime::from_micros(((30.0 + rng.gen::<f64>() * latest) * 1e6) as u64)
}

/// Popularity-weighted Teleport picks at uniform join times.
fn teleport_picks(svc: &PeriscopeService, seed: u64, n: usize) -> Vec<(BroadcastId, SimTime)> {
    let mut rng = RngFactory::new(seed).stream("benchmark/teleport-plan");
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let join_at = join_instant(svc, &mut rng);
        if let Some(b) = svc.population.sample_live_weighted(join_at, &mut rng) {
            out.push((b.id, join_at));
        }
    }
    out
}

fn teleport_paper(svc: &PeriscopeService, seed: u64, sizes: &Sizes) -> Vec<Planned> {
    let picks = teleport_picks(svc, seed, sizes.picks);
    let mut limited = 0usize;
    picks
        .into_iter()
        .enumerate()
        .map(|(i, (id, join_at))| {
            let b = svc.population.by_id(id).expect("picked from this population");
            let mut p = Planned::clean(b, join_at, i as u64, Expect::ServiceChoice);
            if i % 4 == 3 {
                let mbps = TC_LIMITS_MBPS[limited % TC_LIMITS_MBPS.len()];
                limited += 1;
                p.config.network = NetworkSetup::finland_limited(mbps);
                p.must_join = false;
            }
            p
        })
        .collect()
}

/// The `n` most-viewed public broadcasts on each side of the service's
/// RTMP/HLS policy, among those live and on the same side of it from `t0`
/// to `until`; most viewed at `t0` first (ties by id).
pub fn hottest(
    svc: &PeriscopeService,
    t0: SimTime,
    until: SimTime,
    n: usize,
) -> (Vec<&Broadcast>, Vec<&Broadcast>) {
    let policy = svc.selection_policy();
    let mut live: Vec<&Broadcast> = svc
        .population
        .live_at(t0)
        .into_iter()
        .filter(|b| !b.private && b.is_live_at(until))
        .filter(|b| policy.choose(b, t0) == policy.choose(b, until))
        .collect();
    live.sort_by_key(|b| (std::cmp::Reverse(b.viewers_at(t0)), b.id));
    let (hls, rtmp): (Vec<&Broadcast>, Vec<&Broadcast>) =
        live.into_iter().partition(|b| policy.choose(b, t0) == Protocol::Hls);
    (hls.into_iter().take(n).collect(), rtmp.into_iter().take(n).collect())
}

fn fanout_hot(svc: &PeriscopeService) -> Vec<Planned> {
    let t0 = SimTime::from_secs(FANOUT_T0_S);
    let step = |v: usize| t0 + SimDuration::from_secs(2 * v as u64);
    let (hls, rtmp) = hottest(svc, t0, step(FANOUT_VIEWERS), FANOUT_BROADCASTS);
    // Viewer-major order, so any prefix of whole rounds holds every arm in
    // the plan's own proportions.
    let mut plan = Vec::new();
    for v in 0..FANOUT_VIEWERS {
        let join_at = step(v);
        let arms = hls
            .iter()
            .chain(rtmp.iter())
            .map(|b| (*b, None))
            .chain(rtmp.iter().map(|b| (*b, Some(Protocol::Srt))));
        for (b, transport) in arms {
            // The audience may cross the HLS threshold between two joins;
            // what the policy says at this join is what must be served.
            let served = transport.unwrap_or_else(|| svc.selection_policy().choose(b, join_at));
            let mut p = Planned::clean(b, join_at, plan.len() as u64, Expect::Exactly(served));
            p.config.transport = transport;
            plan.push(p);
        }
    }
    plan
}

fn chaos_recovery(svc: &PeriscopeService, seed: u64, sizes: &Sizes) -> Vec<Planned> {
    let faults = FaultConfig::chaos(seed, CHAOS_LOSS_SCALE);
    teleport_picks(svc, seed, sizes.picks)
        .into_iter()
        .enumerate()
        .flat_map(|(i, (id, join_at))| {
            let b = svc.population.by_id(id).expect("picked from this population");
            // One key for all three arms: common random numbers, as in
            // `run_chaos`.
            let base = Planned::clean(b, join_at, i as u64, Expect::ServiceChoice);
            TRANSPORTS.into_iter().map(move |t| {
                let mut p = base.clone();
                p.config.transport = Some(t);
                p.config.faults = faults;
                p.expect = Expect::ChaosArm(t);
                p.must_join = false;
                p
            })
        })
        .collect()
}

/// Sessions uniform over discoverable broadcast-time — the selection rule
/// of `run_scale` (uniform over discoverable broadcast-minutes), replayed
/// one session at a time so each can be timed.
fn uniform_mix(svc: &PeriscopeService, seed: u64, sizes: &Sizes) -> Vec<Planned> {
    let mut rng = RngFactory::new(seed).stream("benchmark/uniform-plan");
    let mut plan = Vec::with_capacity(sizes.picks / 2);
    while plan.len() < sizes.picks / 2 {
        let join_at = join_instant(svc, &mut rng);
        let live: Vec<&Broadcast> = svc
            .population
            .live_at(join_at)
            .into_iter()
            .filter(|b| b.discoverable_at(join_at + SimDuration::from_secs(1)))
            .collect();
        if live.is_empty() {
            continue;
        }
        let b = live[(rng.gen::<f64>() * live.len() as f64) as usize % live.len()];
        plan.push(Planned::clean(b, join_at, plan.len() as u64, Expect::ServiceChoice));
    }
    plan
}

/// The session plan of a workload for a seed.
pub fn build_plan(w: Workload, svc: &PeriscopeService, seed: u64, sizes: &Sizes) -> Vec<Planned> {
    match w {
        Workload::TeleportPaper => teleport_paper(svc, seed, sizes),
        Workload::FanoutHot => fanout_hot(svc),
        Workload::ChaosRecovery => chaos_recovery(svc, seed, sizes),
        Workload::Scale100k | Workload::CrawlUsage => uniform_mix(svc, seed, sizes),
    }
}

/// Start of crawl slice `k`: a golden-ratio walk over the window from a
/// seeded offset, so any number of slices covers the day evenly.
pub fn slice_start(svc: &PeriscopeService, seed: u64, sizes: &Sizes, k: usize) -> SimTime {
    let offset = RngFactory::new(seed).stream("benchmark/crawl-plan").gen::<f64>();
    let u = (offset + k as f64 * 0.618_033_988_749_895).fract();
    let window_s = svc.population.config.window.as_secs_f64();
    // Room for the deep crawl (~4 min simulated), the slice and a margin.
    let room = (window_s - (sizes.slice_minutes * 60) as f64 - 900.0).max(60.0);
    SimTime::from_micros(((120.0 + u * room) * 1e6) as u64)
}

/// FNV-1a, 64 bit: the digest of simulated outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The low 48 bits: exact in the `f64` of a JSON number.
    pub fn low48(self) -> u64 {
        self.0 & ((1 << 48) - 1)
    }
}

/// Digest of a plan (ids, join times, keys, limits, transports).
pub fn plan_digest(plan: &[Planned]) -> u64 {
    let mut h = Fnv::default();
    for p in plan {
        h.u64(p.broadcast.0);
        h.u64(p.join_at.as_micros());
        h.u64(p.key);
        h.u64(p.config.network.tc_limit_bps.map_or(0, f64::to_bits));
        h.u64(p.config.transport.map_or(0, |t| 1 + t as u64));
        h.u64(p.config.faults.seed);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
        assert_eq!(h.low48(), 0x4171_f739_67e8);
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b, "order matters");
    }

    #[test]
    fn plans_repeat_per_seed_and_differ_across_seeds() {
        let sizes = Sizes::quick();
        for w in [Workload::TeleportPaper, Workload::ChaosRecovery, Workload::CrawlUsage] {
            let svc = build_world(w);
            let a = plan_digest(&build_plan(w, &svc, 2016, &sizes));
            let again = plan_digest(&build_plan(w, &build_world(w), 2016, &sizes));
            let other = plan_digest(&build_plan(w, &svc, 7, &sizes));
            assert_eq!(a, again, "{}: same seed, same plan", w.name());
            assert_ne!(a, other, "{}: another seed, another plan", w.name());
            assert_ne!(slice_start(&svc, 2016, &sizes, 0), slice_start(&svc, 7, &sizes, 0));
            assert_ne!(slice_start(&svc, 7, &sizes, 0), slice_start(&svc, 7, &sizes, 1));
        }
    }

    #[test]
    fn teleport_plan_limits_every_fourth_session() {
        let svc = build_world(Workload::TeleportPaper);
        let plan = build_plan(Workload::TeleportPaper, &svc, 2016, &Sizes::quick());
        assert_eq!(plan.len(), Sizes::quick().picks);
        for (i, p) in plan.iter().enumerate() {
            assert_eq!(p.config.network.tc_limit_bps.is_some(), i % 4 == 3);
            assert_eq!(p.must_join, i % 4 != 3);
        }
        let limits: Vec<f64> =
            plan.iter().filter_map(|p| p.config.network.tc_limit_bps).take(12).collect();
        assert_eq!(limits[0], 0.5e6);
        assert_eq!(limits[10], 10e6);
        assert_eq!(limits[11], 0.5e6);
    }

    #[test]
    fn fanout_plan_is_twelve_broadcasts_in_rounds_of_eighteen() {
        let svc = build_world(Workload::FanoutHot);
        let plan = build_plan(Workload::FanoutHot, &svc, 2016, &Sizes::quick());
        assert_eq!(plan.len(), FANOUT_VIEWERS * 3 * FANOUT_BROADCASTS);
        let distinct: std::collections::BTreeSet<_> = plan.iter().map(|p| p.broadcast).collect();
        assert_eq!(distinct.len(), 2 * FANOUT_BROADCASTS);
        let round = &plan[..3 * FANOUT_BROADCASTS];
        assert_eq!(round.iter().filter(|p| p.config.transport == Some(Protocol::Srt)).count(), 6);
        assert!(round.iter().all(|p| p.join_at == SimTime::from_secs(FANOUT_T0_S)));
    }
}
