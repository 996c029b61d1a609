//! What the verbs of `crate::verbs::VERBS` run, where that is more than a
//! call: each takes the command line's [`Ctx`], prints its report, writes
//! its artifacts through [`write_artifact`] and returns how it ended.

use pscp_core::{ChaosConfig, IncidentConfig, Lab};

use crate::cli::{write_artifact, Args, Ctx, Exit};
use crate::scale::ScaleTier;
use crate::watch::WatchConfig;

/// Writes sessions.csv and observations.csv into `[dir]` (default: a
/// directory named after the verb).
pub fn export(ctx: &mut Ctx, args: &Args) -> Result<Exit, String> {
    let dir = args.operand(0).unwrap_or(args.verb.name);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    let lab = ctx.lab();
    let dataset = lab.session_dataset();
    let sessions_path = format!("{dir}/sessions.csv");
    write_artifact(&sessions_path, pscp_qoe::export::sessions_csv(&dataset))?;
    println!("wrote {sessions_path} ({} sessions)", dataset.len());
    let crawl = lab.targeted_crawl_at(12.0);
    let ended = crawl.ended_broadcasts();
    let obs_path = format!("{dir}/observations.csv");
    write_artifact(&obs_path, pscp_qoe::export::observations_csv(ended.iter().copied()))?;
    println!("wrote {obs_path} ({} broadcasts)", ended.len());
    Ok(Exit::Ok)
}

/// Times dataset generation at 1 thread and at the auto-resolved thread
/// count (`PSCP_THREADS` / available parallelism) and records the result
/// in `BENCH_parallel.json`. The parallel speedup is only visible on a
/// dataset big enough to amortize setup, so without `--scale` this runs at
/// medium scale.
pub fn bench(ctx: &mut Ctx, _: &Args) -> Result<Exit, String> {
    let (scale, seed) = (ctx.scale.as_deref().unwrap_or("medium"), ctx.seed);
    let config = crate::lab_config(scale, seed)?;
    let threads = pscp_simnet::par::resolve_threads(0);
    let time_with = |n: usize| {
        // Phase spans (plan/execute/sweep) come for free from the profiler
        // and land in BENCH_parallel.json below.
        let mut lab =
            Lab::new(pscp_core::LabConfig { threads: n, profile: true, ..config.clone() });
        let started = std::time::Instant::now();
        let len = lab.session_dataset().len();
        (started.elapsed().as_secs_f64(), len, lab.observer().phases())
    };
    println!("benchmarking dataset generation: scale {scale}, seed {seed}");
    let (serial_secs, sessions, serial_phases) = time_with(1);
    println!("  1 thread : {serial_secs:.2} s ({sessions} sessions)");
    let (parallel_secs, sessions_par, parallel_phases) = time_with(threads);
    println!("  {threads} threads: {parallel_secs:.2} s ({sessions_par} sessions)");
    assert_eq!(sessions, sessions_par, "thread count changed the dataset size");
    println!("{}", pscp_obs::phases_table(&parallel_phases));
    let speedup = serial_secs / parallel_secs.max(1e-9);
    let json = format!(
        "{{\n  \"scale\": \"{scale}\",\n  \"seed\": {seed},\n  \"sessions\": {sessions},\n  \
         \"threads\": {threads},\n  \"serial_secs\": {serial_secs:.3},\n  \
         \"parallel_secs\": {parallel_secs:.3},\n  \
         \"sessions_per_sec_serial\": {:.2},\n  \
         \"sessions_per_sec_parallel\": {:.2},\n  \"speedup\": {speedup:.2},\n  \
         \"phases_serial\": {},\n  \"phases_parallel\": {}\n}}\n",
        sessions as f64 / serial_secs.max(1e-9),
        sessions as f64 / parallel_secs.max(1e-9),
        pscp_obs::phases_json(&serial_phases),
        pscp_obs::phases_json(&parallel_phases),
    );
    write_artifact("BENCH_parallel.json", json)?;
    println!("speedup: {speedup:.2}x — wrote BENCH_parallel.json");
    Ok(Exit::Ok)
}

/// Compares two `BENCH_*.json` artifacts and fails when any shared timing
/// regressed past the noise threshold (25 %, or `PSCP_BENCH_THRESHOLD` as
/// a fraction, e.g. `0.4`).
pub fn bench_diff(_: &mut Ctx, args: &Args) -> Result<Exit, String> {
    let (old_path, new_path) = (args.operand(0).unwrap_or(""), args.operand(1).unwrap_or(""));
    let threshold = std::env::var("PSCP_BENCH_THRESHOLD")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(crate::diff::DEFAULT_THRESHOLD);
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"));
    let report = crate::diff::diff(&read(old_path)?, &read(new_path)?, threshold)?;
    println!("bench-diff: {old_path} → {new_path} (threshold {:.0}%)", threshold * 100.0);
    print!("{}", report.table());
    if !report.has_regressions() {
        return Ok(Exit::Ok);
    }
    // PSCP_BENCH_GATE=warn is the escape hatch for known-noisy runners:
    // the report still prints, but the exit code stays green.
    if std::env::var("PSCP_BENCH_GATE").is_ok_and(|v| v == "warn") {
        println!("bench-diff: regressions found, but PSCP_BENCH_GATE=warn — not failing");
        return Ok(Exit::Ok);
    }
    Ok(Exit::Failed)
}

/// The traced run's event log and Chrome trace.
pub fn trace(ctx: &mut Ctx, _: &Args) -> Result<Exit, String> {
    let obs = ctx.traced().observer();
    write_artifact("TRACE_events.jsonl", obs.events_jsonl())?;
    println!("wrote TRACE_events.jsonl ({} events)", obs.event_count());
    let phases = obs.phases();
    write_artifact("TRACE_chrome.json", pscp_obs::chrome_trace(&obs.spans(), &phases))?;
    println!(
        "wrote TRACE_chrome.json ({} spans) — load it in Perfetto / chrome://tracing",
        obs.span_count()
    );
    println!("\nevent counts:");
    for (name, n) in obs.event_summary() {
        println!("  {name:<24} {n:>9}");
    }
    if !phases.is_empty() {
        println!("\n{}", pscp_obs::phases_table(&phases));
    }
    Ok(Exit::Ok)
}

/// The traced run's per-subsystem metrics, as JSON and Prometheus text.
pub fn metrics(ctx: &mut Ctx, _: &Args) -> Result<Exit, String> {
    let metrics = ctx.traced().observer().metrics();
    write_artifact("TRACE_metrics.json", metrics.snapshot_json())?;
    let mut prom = pscp_obs::prometheus_text(&metrics);
    prom.push_str(&pscp_obs::prometheus_build_info(ctx.seed, ctx.scale(), 1, 0));
    write_artifact("TRACE_metrics.prom", prom)?;
    println!("{}", metrics.snapshot_text());
    println!(
        "wrote TRACE_metrics.json + TRACE_metrics.prom ({} subsystems)",
        metrics.subsystems().len()
    );
    Ok(Exit::Ok)
}

/// The traced run judged against the paper-derived SLOs.
pub fn slo(ctx: &mut Ctx, _: &Args) -> Result<Exit, String> {
    let label = format!("scale={} seed={}", ctx.scale(), ctx.seed);
    let lab = ctx.traced();
    let (dataset, spans) = (lab.session_dataset(), lab.observer().spans());
    let report = pscp_qoe::slo::evaluate(&pscp_qoe::SloSpec::paper(), &dataset, &spans, &label);
    write_artifact("SLO_report.json", report.to_json())?;
    println!("{}", report.table());
    println!("wrote SLO_report.json — overall: {}", if report.pass() { "PASS" } else { "FAIL" });
    Ok(Exit::Ok)
}

/// One session's causal join span tree from the traced run.
pub fn explain(ctx: &mut Ctx, args: &Args) -> Result<Exit, String> {
    let unit = args.operand(0).unwrap_or("");
    let tree =
        pscp_qoe::slo::explain_unit(unit, &ctx.traced().observer().spans()).ok_or(format!(
            "no join span tree for '{unit}' — sessions are session/<i>, sweep sessions \
         limit-<mbps>/session/<i> (never-joined sessions record no tree)"
        ))?;
    println!("{tree}");
    Ok(Exit::Ok)
}

/// Runs the DESIGN.md §8/§12 three-way transport chaos sweep: the same
/// planned sessions per transport arm under the chaos fault preset at
/// increasing loss intensity, reporting stall-ratio and join-time ECDFs,
/// per-transport mean tables and fault/recovery counters plus one SLO
/// report per arm, and writing the machine-readable sweep to
/// `CHAOS_sweep.json`.
pub fn chaos(ctx: &mut Ctx, cfg: &ChaosConfig) -> Result<Exit, String> {
    let arms: Vec<&str> =
        cfg.transports.iter().map(|&t| pscp_core::chaos::transport_name(t)).collect();
    println!(
        "chaos sweep: scale {}, seed {}, {} sessions/point, loss scales {:?}, \
         transports {arms:?}",
        ctx.scale(),
        ctx.seed,
        cfg.sessions,
        cfg.loss_scales
    );
    let sweep = pscp_core::run_chaos(&mut Lab::new(ctx.config.clone()), cfg);
    for fig in sweep.figures() {
        println!("\n{}", fig.render());
    }
    for arm in &sweep.slo {
        println!("\n{}", arm.report.table());
    }
    write_artifact("CHAOS_sweep.json", sweep.sweep_json())?;
    println!(
        "\nwrote CHAOS_sweep.json ({} points, {} SLO arms)",
        sweep.points.len(),
        sweep.slo.len()
    );
    Ok(Exit::Ok)
}

/// Runs the live SLO monitor: batched session runs folded into streaming
/// sketches, one cumulative snapshot line per batch. Writes
/// `SLO_live.jsonl` (snapshots) and `SLO_live.prom` (merged metrics with
/// sketch quantile gauges). Deterministic at any thread count;
/// `PSCP_WATCH_SYS=1` adds wall-clock RSS/alloc facts to each line.
pub fn watch(ctx: &mut Ctx, cfg: &WatchConfig, fail_on_violation: bool) -> Result<Exit, String> {
    println!(
        "watch: scale {}, seed {} — {} batch(es) × {} sessions{}{}",
        ctx.scale(),
        ctx.seed,
        cfg.batches,
        cfg.batch_sessions,
        if cfg.include_sys { " (+system facts)" } else { "" },
        cfg.transport.map(|t| format!(" (transport {})", t.name())).unwrap_or_default()
    );
    let out = crate::watch::run_watch(ctx.config.clone(), cfg);
    for line in out.jsonl.lines() {
        println!("{line}");
    }
    write_artifact("SLO_live.jsonl", &out.jsonl)?;
    let mut prom = out.prom.clone();
    prom.push_str(&pscp_obs::prometheus_build_info(ctx.seed, ctx.scale(), 1, 0));
    write_artifact("SLO_live.prom", prom)?;
    println!(
        "wrote SLO_live.jsonl ({} snapshots) + SLO_live.prom — {} sessions, {} sketch bytes",
        cfg.batches,
        out.telemetry.n_sessions(),
        out.telemetry.memory_bytes()
    );
    println!(
        "alerts: {} transition(s), firing now: {:?}, violations: {:?}",
        out.timeline.transitions.len(),
        out.firing,
        out.violations
    );
    if fail_on_violation && !out.healthy() {
        eprintln!("watch: SLO violation or firing alert in the final snapshot");
        return Ok(Exit::Failed);
    }
    Ok(Exit::Ok)
}

/// Runs the incident study (DESIGN.md §14): a fault-free control arm plus
/// one chaos arm per transport over the same planned sessions, burn-rate
/// alert timelines per arm, incident correlation, and the ground-truth
/// detector scorecard. Writes `INCIDENTS.json` and, for the first chaos
/// arm, `INCIDENTS_trace.json` — a Chrome trace whose alert transitions
/// appear as instant events over the span tracks.
pub fn incidents(
    ctx: &mut Ctx,
    tier: Option<&ScaleTier>,
    cfg: &IncidentConfig,
) -> Result<Exit, String> {
    let mut lab_cfg = ctx.config.clone();
    if let Some(t) = tier {
        // A scale-sweep world density over the standard four-hour window.
        lab_cfg.population.window = pscp_simnet::SimDuration::from_secs(4 * 3600);
        lab_cfg.population.arrivals_per_sec = t.arrivals_per_sec;
    }
    let arms: Vec<&str> =
        cfg.transports.iter().map(|&t| pscp_core::chaos::transport_name(t)).collect();
    println!(
        "incidents: scale {}, seed {}, {} sessions/arm, loss x{}, {} shard(s), \
         arms [control + {arms:?}]",
        tier.map(|t| t.name).unwrap_or(ctx.scale()),
        ctx.seed,
        cfg.sessions,
        cfg.loss_scale,
        cfg.shards
    );
    let report = pscp_core::run_incidents(&mut Lab::new(lab_cfg), cfg);
    print!("{}", report.table());
    write_artifact("INCIDENTS.json", report.to_json())?;
    if let Some(arm) = report.arms.iter().find(|a| a.faulted) {
        let trace = pscp_obs::chrome_trace_with_alerts(&arm.spans, &[], &arm.timeline.transitions);
        write_artifact("INCIDENTS_trace.json", trace)?;
    }
    println!(
        "wrote INCIDENTS.json ({} incidents, {} scorecard rows) + INCIDENTS_trace.json",
        report.incidents.len(),
        report.scorecard.len()
    );
    Ok(Exit::Ok)
}
