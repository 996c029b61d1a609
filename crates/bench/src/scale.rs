//! `repro scale` — the planet-tier sweep over the sharded engine
//! (DESIGN.md §13).
//!
//! Sweeps world density 10K → 100K → 1M broadcasts (all in the paper's
//! four-hour window), runs each tier through [`pscp_core::shard::run_scale`],
//! and assembles `SCALE_report.json`: QoE distributions, shard traffic,
//! census, and the sketch/plan memory footprint per tier. The default
//! report is deterministic — byte-identical at any shard count and thread
//! count. Wall-clock facts (sessions/sec, peak RSS) are non-deterministic
//! by nature, so they ride in a `sys` object only when `PSCP_WATCH_SYS`
//! asks for them, exactly like `repro watch`.

use pscp_core::shard::{run_scale, ScaleConfig, ScaleRun};
use pscp_proto::json::Writer;
use pscp_service::{PeriscopeService, ServiceConfig};
use pscp_simnet::RngFactory;
use pscp_workload::population::{Population, PopulationConfig};

/// One tier of the sweep: a world density plus a default session budget.
#[derive(Debug, Clone, Copy)]
pub struct ScaleTier {
    /// Tier id (`10k`, `100k`, `1m`).
    pub name: &'static str,
    /// Broadcast arrival rate over the four-hour window.
    pub arrivals_per_sec: f64,
    /// Default primary-session target for the tier.
    pub default_sessions: usize,
}

/// The sweep tiers: ~10K, ~100K and ~1M broadcasts.
pub const TIERS: &[ScaleTier] = &[
    ScaleTier { name: "10k", arrivals_per_sec: 0.7, default_sessions: 400 },
    ScaleTier { name: "100k", arrivals_per_sec: 7.0, default_sessions: 800 },
    ScaleTier { name: "1m", arrivals_per_sec: 70.0, default_sessions: 1600 },
];

/// Looks a tier up by id.
pub fn tier_by_name(name: &str) -> Option<&'static ScaleTier> {
    TIERS.iter().find(|t| t.name == name)
}

/// A comma-separated tier list; `all` is every tier.
pub fn tiers_by_names(list: &str) -> Option<Vec<&'static ScaleTier>> {
    match list {
        "all" => Some(TIERS.iter().collect()),
        _ => list.split(',').map(tier_by_name).collect(),
    }
}

/// `repro scale` settings.
#[derive(Debug, Clone)]
pub struct ScaleArgs {
    /// Master seed.
    pub seed: u64,
    /// Shard count (a power of four).
    pub shards: usize,
    /// Worker threads (`0` = auto).
    pub threads: usize,
    /// Session-target override applied to every tier.
    pub sessions: Option<usize>,
    /// Tiers to run, in order.
    pub tiers: Vec<&'static ScaleTier>,
}

impl Default for ScaleArgs {
    fn default() -> Self {
        ScaleArgs {
            seed: 2016,
            shards: 16,
            threads: 0,
            sessions: None,
            tiers: TIERS.iter().collect(),
        }
    }
}

impl ScaleArgs {
    /// `repro scale`'s flags over the defaults.
    pub fn from_cli(args: &crate::cli::Args, seed: u64) -> Result<ScaleArgs, String> {
        let mut cfg = ScaleArgs { seed, ..Default::default() };
        cfg.tiers = args.tiers("--tier")?.unwrap_or(cfg.tiers);
        cfg.shards = args.power_of_four("--shards")?.unwrap_or(cfg.shards);
        cfg.sessions = args.sessions()?;
        cfg.threads = args.usize("--threads")?.unwrap_or(cfg.threads);
        Ok(cfg)
    }
}

/// Runs one tier and writes its report object.
fn run_tier(args: &ScaleArgs, tier: &ScaleTier, w: &mut Writer<'_>) -> ScaleRun {
    let pop_cfg =
        PopulationConfig { arrivals_per_sec: tier.arrivals_per_sec, ..PopulationConfig::default() };
    let rngs = RngFactory::new(args.seed);
    let population = Population::generate(pop_cfg, &rngs.child("world"));
    let service = PeriscopeService::new(population, ServiceConfig::default());
    let cfg = ScaleConfig {
        shards: args.shards,
        threads: args.threads,
        target_sessions: args.sessions.unwrap_or(tier.default_sessions),
        ..Default::default()
    };
    let started = std::time::Instant::now();
    let run = run_scale(&service, &rngs, &cfg);
    let wall_secs = started.elapsed().as_secs_f64();

    w.begin_object();
    w.key("arrivals_per_sec").number(tier.arrivals_per_sec);
    w.key("broadcasts").int(run.broadcasts as u64);
    w.key("census").begin_array();
    for row in &run.census {
        w.begin_object();
        w.key("broadcasts").int(row.broadcasts);
        w.key("cell").str(&row.quadkey);
        w.key("peak_discoverable").int(row.peak_discoverable);
        w.end_object();
    }
    w.end_array();
    w.key("memory").begin_object();
    w.key("plan_bytes").int(run.plan_bytes as u64);
    w.key("stats_bytes").int(run.stats.memory_bytes() as u64);
    w.key("telemetry_bytes").int(run.telemetry.memory_bytes() as u64);
    w.end_object();
    w.key("minutes").int(run.minutes as u64);
    w.key("qoe");
    run.telemetry.write_json(w);
    w.key("shards").int(run.shards as u64);
    w.key("stats");
    run.stats.write_json(w);
    // Wall-clock facts only on request: they would break byte-comparable
    // reports (and CI caching) if they were always present.
    if crate::watch::sys_facts_requested() {
        // Where the session schedule's wall went: busy is time inside
        // sessions summed over workers, the rest is their idle tails.
        w.key("sys").begin_object();
        w.key("busy_secs").number(run.par.busy_total());
        w.key("par_efficiency").number(run.par.efficiency());
        w.key("rss_bytes").number_or_null(crate::watch::rss_bytes().map(|b| b as f64));
        w.key("sessions_per_sec").number(run.stats.sessions as f64 / wall_secs.max(1e-9));
        w.key("wall_secs").number(wall_secs);
        w.key("workers").int(run.par.workers as u64);
        w.end_object();
    }
    w.key("target_sessions").int(cfg.target_sessions as u64);
    w.key("tier").str(tier.name);
    w.end_object();
    run
}

/// Runs the sweep and returns the full `SCALE_report.json` text (trailing
/// newline); progress lines go to stdout as tiers finish.
pub fn run_scale_report(args: &ScaleArgs) -> String {
    let mut out = String::with_capacity(8192);
    let w = &mut Writer::new(&mut out);
    w.begin_object();
    w.key("schema").str("pscp-scale-report/v1");
    w.key("seed").int(args.seed);
    w.key("shards").int(args.shards as u64);
    w.key("threads").int(args.threads as u64);
    w.key("tiers").begin_array();
    for tier in &args.tiers {
        let run = run_tier(args, tier, w);
        println!(
            "tier {:>4}: {:>7} broadcasts, {} shards, {} sessions \
             ({} migrations, {} chat msgs; sketches {} B)",
            tier.name,
            run.broadcasts,
            run.shards,
            run.stats.sessions,
            run.stats.migrations_out,
            run.stats.chat_out,
            run.stats.memory_bytes() + run.telemetry.memory_bytes(),
        );
    }
    w.end_array();
    w.end_object();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_proto::json::{parse, Value};

    #[test]
    fn tier_lookup() {
        assert_eq!(tier_by_name("10k").unwrap().default_sessions, 400);
        assert_eq!(tier_by_name("1m").unwrap().arrivals_per_sec, 70.0);
        assert!(tier_by_name("huge").is_none());
    }

    #[test]
    fn report_is_deterministic_and_shard_invariant() {
        let base = ScaleArgs {
            seed: 9,
            shards: 1,
            threads: 1,
            sessions: Some(40),
            tiers: vec![tier_by_name("10k").unwrap()],
        };
        let a = run_scale_report(&base);
        let b = run_scale_report(&ScaleArgs { shards: 4, threads: 0, ..base.clone() });
        let (va, vb) = (parse(&a).expect("report parses"), parse(&b).expect("report parses"));
        assert_eq!(va.to_json() + "\n", a, "written in canonical form");
        // The configured shard count and the plan's own footprint are
        // config facts and differ by design; every simulation output —
        // stats, QoE, census — must match exactly.
        let tier = |v: &Value| v.get("tiers").and_then(|t| t.as_array()).expect("tiers")[0].clone();
        for key in ["stats", "qoe", "census"] {
            assert_eq!(tier(&va).get(key), tier(&vb).get(key), "section {key} diverged");
        }
        assert_eq!(va.get("schema").and_then(|s| s.as_str()), Some("pscp-scale-report/v1"));
        // Same config twice → the whole report is byte-identical.
        assert_eq!(a, run_scale_report(&base));
    }
}
