//! One workload, one process: set-up, warm-up, the timed window (crawl
//! slices, `run_scale` passes, the closed session loop), the output checks
//! and — with tracing on — the per-layer epilogue.
//!
//! Every workload runs the paper's whole apparatus, crawl then sessions,
//! so every end-to-end metric exists on every workload; the workloads
//! differ in which stage gets the window and in how sessions are chosen.
//! Every timing here is *host* wall time; `sim.*` values are simulated.

use crate::metrics::{Values, Workload, END_TO_END};
use crate::plan::{self, Expect, Fnv, Planned, Sizes};
use crate::replica;
use crate::spans::Recorder;
use crate::stats::{median, Timing};
use pscp_client::{SessionOutcome, Teleport};
use pscp_core::shard::{run_scale, ScaleConfig};
use pscp_crawler::analysis::{fig2a_cdfs, fig2b_viewers_by_local_hour, usage_stats};
use pscp_crawler::{DeepCrawl, DeepCrawlConfig, TargetedCrawl, TargetedCrawlConfig};
use pscp_qoe::QoeTelemetry;
use pscp_service::select::Protocol;
use pscp_service::PeriscopeService;
use pscp_simnet::{RngFactory, SimDuration, SimTime};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Shards of every `run_scale` call.
pub const SCALE_SHARDS: usize = 16;
/// Slack on play + stall + start-up ≤ watch: one 30 fps frame.
const ACCOUNTING_SLACK_S: f64 = 0.034;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    pub out_dir: PathBuf,
}

pub struct RunResult {
    pub values: Values,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Exactly repeatable facts of the run (digests, counts), by name.
    pub info: Vec<(&'static str, String)>,
    /// First few failed checks, for the log.
    pub failures: Vec<String>,
}

/// Threads `scale_100k` runs on: `min(nproc, 2)`.
pub fn scale_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Failed operations, counted, with the first few kept for the log.
#[derive(Default)]
pub struct Failures {
    pub count: u64,
    pub first: Vec<String>,
}

impl Failures {
    pub fn add(&mut self, what: String) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(what);
        }
    }
}

/// Simulated statistics over the first `sim_prefix` sessions of a loop.
#[derive(Default)]
struct SimAcc {
    n: usize,
    digest: Fnv,
    join_s: Vec<f64>,
    stall_sum: f64,
    rtmp: usize,
    never_joined: usize,
    capture_bytes: u64,
}

/// Folds what `sim.digest` covers of one outcome: broadcast id, protocol,
/// join µs, stall ppm and capture bytes.
fn digest_outcome(h: &mut Fnv, o: &SessionOutcome) {
    h.u64(o.broadcast_id.0);
    h.u64(o.protocol as u64);
    h.u64(o.player.join_time.map_or(u64::MAX, |j| j.as_micros()));
    h.u64((o.stall_ratio() * 1e6).round() as u64);
    h.u64(o.capture.total_bytes() as u64);
}

impl SimAcc {
    fn fold(&mut self, o: &SessionOutcome) {
        self.n += 1;
        digest_outcome(&mut self.digest, o);
        match o.join_time_s() {
            Some(j) => self.join_s.push(j),
            None => self.never_joined += 1,
        }
        self.stall_sum += o.stall_ratio();
        self.rtmp += usize::from(o.protocol == Protocol::Rtmp);
        self.capture_bytes += o.capture.total_bytes() as u64;
    }
}

/// The closed session loop: its position in the plan and what it has
/// measured so far. It runs in stretches (between crawl slices) and picks
/// up where it stopped.
pub struct SessionLoop {
    /// Wall time spent inside the loop, over all stretches.
    pub wall_s: f64,
    pub ms: Vec<f64>,
    pub arm_ms: [Vec<f64>; 3],
    distinct: BTreeSet<u64>,
    /// Digest of the first `warmup` sessions, to compare with the warm-up.
    warm_digest: Fnv,
    sim: SimAcc,
    pub telemetry: QoeTelemetry,
}

/// Checks one outcome against its plan entry.
fn check_session(p: &Planned, o: &SessionOutcome, svc: &PeriscopeService) -> Result<(), String> {
    let fail = |what: &str| {
        Err(format!("session {} on broadcast {}: {what}", p.key, p.broadcast.as_string()))
    };
    if o.broadcast_id != p.broadcast {
        return fail("outcome names another broadcast");
    }
    let joined = o.player.join_time.is_some();
    let served_ok = match p.expect {
        Expect::ServiceChoice => {
            let b = svc.population.by_id(p.broadcast).expect("planned from this population");
            o.protocol == svc.selection_policy().choose(b, p.join_at)
        }
        Expect::Exactly(proto) => o.protocol == proto,
        // A session whose API bootstrap is exhausted never opens a stream
        // and reports the service's choice; otherwise fallbacks only go
        // SRT → RTMP → HLS.
        Expect::ChaosArm(_) if !joined => true,
        Expect::ChaosArm(Protocol::Hls) => o.protocol == Protocol::Hls,
        Expect::ChaosArm(Protocol::Rtmp) => o.protocol != Protocol::Srt,
        Expect::ChaosArm(Protocol::Srt) => true,
    };
    if !served_ok {
        return fail(&format!("served by {} against the plan", o.protocol.name()));
    }
    if p.must_join && !joined {
        return fail("unlimited fault-free session never joined");
    }
    // Retries under injected API faults delay the join while the watch
    // budget starts when the stream view opens, so start-up only counts
    // against the watch on a fault-free session.
    let fault_free = p.config.faults.api_429_rate == 0.0 && p.config.faults.api_5xx_rate == 0.0;
    let startup = o.player.join_time.filter(|_| fault_free).map_or(0.0, |j| j.as_secs_f64());
    let accounted = o.player.played_s + o.player.total_stall_s() + startup;
    if accounted > o.player.session_s + ACCOUNTING_SLACK_S {
        return fail(&format!(
            "play + stall + start-up {accounted:.3} s exceeds the {:.3} s watch",
            o.player.session_s
        ));
    }
    Ok(())
}

impl SessionLoop {
    fn new() -> SessionLoop {
        SessionLoop {
            wall_s: 0.0,
            ms: Vec::new(),
            arm_ms: Default::default(),
            distinct: BTreeSet::new(),
            warm_digest: Fnv::default(),
            sim: SimAcc::default(),
            telemetry: QoeTelemetry::new(),
        }
    }

    /// Runs plan entries in order, cycling, until `done(completed)`. One
    /// client, closed loop: the next session starts when the previous one
    /// has been folded, checked and dropped.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        svc: &PeriscopeService,
        plan: &[Planned],
        seed: u64,
        sizes: &Sizes,
        rec: &mut Recorder,
        failures: &mut Failures,
        done: impl Fn(usize) -> bool,
    ) {
        let tp = Teleport::new(svc, RngFactory::new(seed));
        let started = Instant::now();
        while !done(self.ms.len()) {
            let n = self.ms.len();
            let p = &plan[n % plan.len()];
            let b = svc.population.by_id(p.broadcast).expect("planned from this population");
            rec.set_unit(n as u64);
            let root = rec.start("bench.session");
            let run = rec.start("client.teleport.run_one");
            let t = Instant::now();
            let outcome = black_box(tp.run_one(b, p.join_at, &p.config, p.key));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            rec.end(run);
            rec.within("qoe.telemetry.fold_outcome", || self.telemetry.fold_outcome(&outcome));
            let check = rec.start("bench.check");
            if let Err(what) = check_session(p, &outcome, svc) {
                failures.add(what);
            }
            if n < sizes.warmup {
                digest_outcome(&mut self.warm_digest, &outcome);
            }
            if n < sizes.sim_prefix {
                self.sim.fold(&outcome);
            }
            self.distinct.insert(p.broadcast.0);
            self.arm_ms[outcome.protocol as usize].push(ms);
            self.ms.push(ms);
            rec.end(check);
            rec.within("media.capture.drop", || drop(outcome));
            rec.end(root);
        }
        self.wall_s += started.elapsed().as_secs_f64();
    }
}

/// One crawl slice: deep crawl, area selection, a targeted crawl of
/// `slice_minutes` simulated minutes, and the usage analysis.
pub struct Slice {
    pub wall_s: f64,
    pub deep_s: f64,
    pub targeted_s: f64,
    pub analysis_ms: f64,
    pub observations: usize,
    pub rate_limited: u32,
    pub digest: u64,
    /// Average viewers of every observation (input of the ECDF replica).
    pub viewers: Vec<f64>,
}

fn crawl_slice(
    svc: &mut PeriscopeService,
    start: SimTime,
    sizes: &Sizes,
    unit: u64,
    rec: &mut Recorder,
    failures: &mut Failures,
) -> Slice {
    rec.set_unit(unit);
    let root = rec.start("bench.crawl_slice");
    let t0 = Instant::now();
    let deep = rec.within("crawler.deep.run", || {
        black_box(DeepCrawl::run(svc, &DeepCrawlConfig::default(), start))
    });
    let deep_s = t0.elapsed().as_secs_f64();
    let config = TargetedCrawlConfig {
        duration: SimDuration::from_secs(sizes.slice_minutes * 60),
        ..Default::default()
    };
    let areas = rec.within("crawler.targeted.select_areas", || {
        black_box(TargetedCrawl::select_areas(&deep, &config))
    });
    let mut slice = Slice {
        wall_s: 0.0,
        deep_s,
        targeted_s: 0.0,
        analysis_ms: 0.0,
        observations: 0,
        rate_limited: deep.rate_limited,
        digest: 0,
        viewers: Vec::new(),
    };
    if deep.discovered.is_empty() || areas.is_empty() {
        failures.add(format!("crawl slice {unit} at {start:?} discovered nothing"));
    } else {
        let t1 = Instant::now();
        let tc = rec.within("crawler.targeted.run", || {
            black_box(TargetedCrawl::run(svc, &areas, &config, deep.finished_at))
        });
        slice.targeted_s = t1.elapsed().as_secs_f64();
        let t2 = Instant::now();
        let analysed = rec.within("crawler.analysis.usage", || {
            let ended = tc.ended_broadcasts();
            let usage = black_box(usage_stats(&ended));
            let cdfs = black_box(fig2a_cdfs(&ended));
            let by_hour = black_box(fig2b_viewers_by_local_hour(&ended, tc.utc_start_hour));
            // A slice too short for ten broadcasts to end has no usage
            // table; that is a sizing fact, not a failure.
            ended.len() < 10 || (usage.is_some() && cdfs.is_some() && !by_hour.is_empty())
        });
        slice.analysis_ms = t2.elapsed().as_secs_f64() * 1e3;
        slice.observations = tc.observations.len();
        slice.rate_limited += tc.rate_limited;
        if tc.observations.is_empty() || !analysed {
            failures.add(format!("crawl slice {unit} at {start:?} observed or analysed nothing"));
        }
        let mut h = Fnv::default();
        h.u64(deep.discovered.len() as u64);
        h.u64(tc.observations.len() as u64);
        h.u64(tc.rounds as u64);
        slice.digest = h.0;
        slice.viewers = tc.observations.all().map(|o| o.avg_viewers()).collect();
    }
    slice.wall_s = t0.elapsed().as_secs_f64();
    rec.end(root);
    slice
}

/// One `run_scale` pass and its checks.
pub struct ScalePass {
    pub wall_s: f64,
    pub sessions: u64,
    pub digest: u64,
}

pub fn scale_pass(
    svc: &PeriscopeService,
    seed: u64,
    pass: usize,
    threads: usize,
    target: usize,
    rec: &mut Recorder,
    failures: &mut Failures,
) -> ScalePass {
    let rngs = RngFactory::new(seed).child(&format!("benchmark/pass/{pass}"));
    let cfg = ScaleConfig {
        shards: SCALE_SHARDS,
        threads,
        target_sessions: target,
        ..Default::default()
    };
    rec.set_unit(pass as u64);
    let t = Instant::now();
    let run = rec.within("core.shard.run_scale", || black_box(run_scale(svc, &rngs, &cfg)));
    let wall_s = t.elapsed().as_secs_f64();
    let s = &run.stats;
    let mut bad = Vec::new();
    if s.chat_in != s.chat_out {
        bad.push(format!("chat in {} != chat out {}", s.chat_in, s.chat_out));
    }
    if s.sessions != s.primary + s.migrated_in {
        bad.push(format!("{} sessions != primary + migrated", s.sessions));
    }
    if run.telemetry.n_sessions() != s.sessions {
        bad.push(format!("telemetry folded {} of {}", run.telemetry.n_sessions(), s.sessions));
    }
    if target > 0 && s.sessions == 0 {
        bad.push("no session ran".to_string());
    }
    for what in bad {
        failures.add(format!("run_scale pass {pass} on {threads} threads: {what}"));
    }
    let mut h = Fnv::default();
    h.bytes(s.json().as_bytes());
    ScalePass { wall_s, sessions: s.sessions, digest: h.0 }
}

/// VmHWM of this process, MB (0 where /proc does not say).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run_workload(args: &RunArgs) -> RunResult {
    let w = args.workload;
    let sizes = &args.sizes;
    let mut rec = Recorder::new(args.trace);
    let mut failures = Failures::default();
    let mut info: Vec<(&'static str, String)> = Vec::new();
    let mut layers = Values::new();

    // --- set-up, repeated; the last one built is the one used ---
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut built = None;
    for rep in 0..sizes.setup_reps.max(1) {
        rec.set_unit(rep as u64);
        let root = rec.start("bench.setup");
        let t = Instant::now();
        let svc = rec.within("workload.population.generate", || black_box(plan::build_world(w)));
        generate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let plan =
            rec.within("bench.plan", || black_box(plan::build_plan(w, &svc, args.seed, sizes)));
        setup_s.push(t.elapsed().as_secs_f64());
        rec.end(root);
        built = Some((svc, plan));
    }
    let (mut svc, plan) = built.expect("at least one set-up");
    info.push(("plan.digest", format!("{:016x}", plan::plan_digest(&plan))));
    info.push(("plan.sessions", plan.len().to_string()));
    info.push(("world.broadcasts", svc.population.broadcasts.len().to_string()));

    // --- warm-up: untimed, and the reference for the digest check ---
    let mut warm = SessionLoop::new();
    warm.run(
        &svc,
        &plan,
        args.seed,
        sizes,
        &mut Recorder::new(false),
        &mut Failures::default(),
        |n| n >= sizes.warmup,
    );

    // --- the timed window ---
    let window = Instant::now();
    let elapsed = || window.elapsed().as_secs_f64();

    // `scale_100k` first spends its share on whole `run_scale` passes.
    let threads = scale_threads();
    let mut passes: Vec<ScalePass> = Vec::new();
    if w == Workload::Scale100k {
        while passes.is_empty() || elapsed() < sizes.scale_share * args.seconds {
            let k = passes.len();
            let target = sizes.scale_target;
            passes.push(scale_pass(&svc, args.seed, k, threads, target, &mut rec, &mut failures));
        }
    }

    // The rest of the window is `rounds` rounds of crawl slices, then
    // sessions: interleaved, so a slow spell of the host lands on a part of
    // every stage and the medians shrug it off.
    let base = elapsed();
    let rest = (args.seconds - base).max(0.0);
    let mut slices: Vec<Slice> = Vec::new();
    let mut looped = SessionLoop::new();
    for round in 0..sizes.rounds {
        let crawl_until = base + rest * (round as f64 + sizes.crawl_share) / sizes.rounds as f64;
        let round_until = base + rest * (round + 1) as f64 / sizes.rounds as f64;
        let last = round + 1 == sizes.rounds;
        loop {
            let k = slices.len();
            let start = plan::slice_start(&svc, args.seed, sizes, k);
            slices.push(crawl_slice(&mut svc, start, sizes, k as u64, &mut rec, &mut failures));
            if w != Workload::CrawlUsage || elapsed() >= crawl_until {
                break;
            }
        }
        looped.run(&svc, &plan, args.seed, sizes, &mut rec, &mut failures, |n| {
            elapsed() >= round_until && (!last || n >= sizes.sim_prefix)
        });
    }
    if args.trace {
        replica::api_layers(&mut svc, &slices, &mut rec, &mut layers);
        if let Some(first) = passes.first() {
            replica::shard_layers(
                &svc,
                args.seed,
                sizes,
                first,
                &mut rec,
                &mut failures,
                &mut layers,
            );
        }
    }

    // --- whole-run checks ---
    if warm.warm_digest != looped.warm_digest {
        failures.add(format!(
            "warm-up digest {:016x} != timed digest {:016x} over the same {} sessions",
            warm.warm_digest.0, looped.warm_digest.0, sizes.warmup
        ));
    }
    let sim = &looped.sim;
    let rtmp_share = sim.rtmp as f64 / sim.n.max(1) as f64;
    // Over the whole loop, not the prefix: a range check wants the sample.
    let loop_share = looped.arm_ms[Protocol::Rtmp as usize].len() as f64 / looped.ms.len() as f64;
    if w == Workload::TeleportPaper && !sizes.quick && !(0.4..=0.7).contains(&loop_share) {
        failures.add(format!("RTMP share {loop_share:.3} of the loop outside 0.4–0.7"));
    }

    let scale_sessions: u64 = passes.iter().map(|p| p.sessions).sum();
    let attempted = looped.ms.len() as u64 + slices.len() as u64 + scale_sessions;
    info.push(("sim.digest", format!("{:016x}", sim.digest.0)));
    info.push(("sim.sessions", sim.n.to_string()));
    info.push(("crawl.digest", format!("{:016x}", slices[0].digest)));
    if let Some(p) = passes.first() {
        info.push(("scale.digest", format!("{:016x}", p.digest)));
        info.push(("scale.sessions_per_pass", p.sessions.to_string()));
        info.push(("scale.passes", passes.len().to_string()));
    }
    info.push(("loop.sessions", looped.ms.len().to_string()));
    info.push(("crawl.slices", slices.len().to_string()));
    info.push(("threads", if w == Workload::Scale100k { threads } else { 1 }.to_string()));
    info.push(("available_parallelism", nproc().to_string()));

    // --- end-to-end metrics (reported by the untraced pass) ---
    let timing = Timing::of(&looped.ms);
    let mut e2e = Values::new();
    let sessions_per_s = if w == Workload::Scale100k {
        scale_sessions as f64 / passes.iter().map(|p| p.wall_s).sum::<f64>()
    } else {
        looped.ms.len() as f64 / looped.wall_s
    };
    e2e.insert("sessions_per_s", sessions_per_s);
    e2e.insert("session_ms_p50", timing.p50);
    e2e.insert("session_ms_p95", timing.p95);
    e2e.insert("crawl_s", median(&slices.iter().map(|s| s.wall_s).collect::<Vec<_>>()));
    e2e.insert("setup_s", median(&setup_s));
    info.push(("session_ms.samples", timing.n.to_string()));
    if !timing.p95_supported {
        info.push(("session_ms_p95.note", "fewer than ten samples beyond p95".to_string()));
    }

    let values = if args.trace {
        let n = sim.n.max(1) as f64;
        layers.insert("workload.population.generate_ms", median(&generate_ms));
        layers.insert(
            "client.teleport.distinct_broadcast_ratio",
            looped.distinct.len() as f64 / looped.ms.len().min(plan.len()).max(1) as f64,
        );
        layers.insert("crawler.deep.run_s", median(&slice_col(&slices, |s| s.deep_s)));
        layers.insert("crawler.targeted.run_s", median(&slice_col(&slices, |s| s.targeted_s)));
        layers.insert("crawler.analysis.usage_ms", median(&slice_col(&slices, |s| s.analysis_ms)));
        layers
            .insert("crawler.observations", median(&slice_col(&slices, |s| s.observations as f64)));
        layers.insert("crawler.rate_limited", slices.iter().map(|s| s.rate_limited as f64).sum());
        layers.insert("sim.digest", sim.digest.low48() as f64);
        layers.insert("sim.join_s_p50", median(&sim.join_s));
        layers.insert("sim.stall_ratio_mean", sim.stall_sum / n);
        layers.insert("sim.rtmp_share", rtmp_share);
        layers.insert("sim.never_joined_share", sim.never_joined as f64 / n);
        layers.insert("sim.capture_mb_per_session", sim.capture_bytes as f64 / n / 1e6);
        replica::session_layers(
            &svc,
            &plan,
            args.seed,
            sizes,
            &looped.telemetry,
            &looped.arm_ms,
            &mut rec,
            &mut failures,
            &mut layers,
        );
        layers.insert("host.peak_rss_mb", peak_rss_mb());
        if let Err(e) = write_spans(args, &rec) {
            failures.add(format!("span file: {e}"));
        }
        print_span_table(&rec);
        for (k, v) in &e2e {
            info.push((k, format!("{v} (traced pass; not an end-to-end result)")));
        }
        layers
    } else {
        debug_assert_eq!(e2e.len(), END_TO_END.len());
        e2e
    };

    RunResult {
        values,
        correct: failures.count == 0,
        attempted,
        failed: failures.count,
        info,
        failures: failures.first,
    }
}

fn slice_col(slices: &[Slice], f: impl Fn(&Slice) -> f64) -> Vec<f64> {
    slices.iter().map(f).collect()
}

fn write_spans(args: &RunArgs, rec: &Recorder) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out_dir)?;
    let path = args.out_dir.join(format!("trace_{}.json", args.workload.name()));
    std::fs::write(&path, rec.to_json(args.workload.name(), args.seed))?;
    println!("spans: {} written to {}", rec.spans().len(), path.display());
    Ok(())
}

fn print_span_table(rec: &Recorder) {
    println!("{:<36} {:>8} {:>12} {:>12}", "span", "count", "total ms", "self ms");
    for (name, t) in rec.totals() {
        println!(
            "{:<36} {:>8} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}
