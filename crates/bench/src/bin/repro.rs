//! `repro` — regenerate the paper's figures and tables.
//!
//! ```text
//! repro list                      # show all experiment ids
//! repro all                       # run every experiment
//! repro fig5 table-usage          # run specific experiments
//! repro --scale medium all        # bigger datasets (slower)
//! repro --seed 7 fig3a            # different world
//! repro ablation-buffer           # design-choice ablations (DESIGN.md §4)
//! repro ablation-visibility
//! repro ablation-cache
//! repro ablation-threshold
//! repro --scale medium experiments-md > EXPERIMENTS.md   # regenerate the record
//! repro --scale medium export <dir>   # CSV dumps for external plotting
//! repro bench                     # time 1-thread vs N-thread generation
//! repro bench-components          # hot-path micro-benches → BENCH_components.json
//! repro trace                     # traced run → TRACE_events.jsonl + TRACE_chrome.json
//! repro metrics                   # traced run → TRACE_metrics.json + TRACE_metrics.prom
//! repro slo                       # traced run → SLO_report.json (paper-derived SLOs)
//! repro explain session/3         # one session's causal join span tree
//! repro bench-diff <old> <new>    # regression gate over two BENCH_*.json files
//! repro chaos                     # three-way transport loss sweep → CHAOS_sweep.json
//! repro chaos --sessions 16 --transports rtmp,srt
//! repro watch                     # live SLO monitor → SLO_live.jsonl + SLO_live.prom
//! repro watch --once              # single snapshot batch (CI smoke)
//! repro watch --batches 10 --batch-sessions 100
//! repro watch --fail-on-violation # exit 1 on SLO violation / firing alert
//! repro scale                     # sharded 10K→100K→1M sweep → SCALE_report.json
//! repro scale --tier 10k --shards 4
//! repro incidents                 # alert/incident study → INCIDENTS.json
//! repro incidents --tier 10k --shards 4 --transports hls
//! ```
//!
//! `trace`, `metrics`, `slo` and `explain` share one traced simulation:
//! requesting several at once (`repro trace metrics slo`) runs the workload
//! a single time and writes every artifact from the same run.
//!
//! Any command also honors `PSCP_TRACE=1` to record the structured event
//! log and metrics while it runs (sim results are byte-identical either way).

use pscp_core::{experiments, Lab};

/// With `--features count-allocs`, every bench row also reports heap
/// allocations per iteration (the zero-copy hot paths should show 0).
#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: pscp_obs::alloc_count::CountingAlloc = pscp_obs::alloc_count::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = "small".to_string();
    let mut scale_explicit = false;
    let mut seed: u64 = 2016;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = it.next().unwrap_or_else(|| usage("missing scale value"));
                scale_explicit = true;
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("bad seed value"))
            }
            "--help" | "-h" => usage(""),
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        usage("no experiments given");
    }
    if let Some(pos) = targets.iter().position(|t| t == "export") {
        let dir = targets.get(pos + 1).cloned().unwrap_or_else(|| "export".to_string());
        let config = pscp_bench::lab_config(&scale, seed).unwrap_or_else(|e| usage(&e));
        export_csvs(&mut Lab::new(config), &dir);
        return;
    }
    if targets.iter().any(|t| t == "bench") {
        // The parallel speedup is only visible on a dataset big enough to
        // amortize setup, so `bench` defaults to medium scale.
        let bench_scale = if scale_explicit { scale.clone() } else { "medium".to_string() };
        bench_parallel(&bench_scale, seed);
        return;
    }
    if targets.iter().any(|t| t == "bench-components") {
        println!("{}", pscp_bench::micro::bench_components(seed));
        return;
    }
    if targets.iter().any(|t| t == "chaos") {
        // Strict argument validation, matching `repro watch`: unknown
        // flags are an error, not silently ignored experiment ids.
        let mut i = 0;
        while i < targets.len() {
            match targets[i].as_str() {
                "chaos" => i += 1,
                "--sessions" | "--transports" => i += 2,
                other => usage(&format!("unknown chaos argument '{other}'")),
            }
        }
        let flag =
            |name: &str| targets.iter().position(|t| t == name).and_then(|p| targets.get(p + 1));
        let mut cfg = pscp_core::ChaosConfig::small(seed);
        if let Some(v) = flag("--sessions") {
            cfg.sessions = match v.parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => usage(&format!("bad --sessions value '{v}'")),
            };
        }
        if let Some(v) = flag("--transports") {
            cfg.transports = pscp_core::chaos::parse_transports(v).unwrap_or_else(|e| usage(&e));
        }
        chaos_sweep(&scale, seed, &cfg);
        return;
    }
    if targets.iter().any(|t| t == "scale") {
        // Strict argument validation, matching `repro watch`.
        let mut i = 0;
        while i < targets.len() {
            match targets[i].as_str() {
                "scale" => i += 1,
                "--tier" | "--shards" | "--sessions" | "--threads" => i += 2,
                other => usage(&format!("unknown scale argument '{other}'")),
            }
        }
        let flag =
            |name: &str| targets.iter().position(|t| t == name).and_then(|p| targets.get(p + 1));
        let mut cfg = pscp_bench::scale::ScaleArgs { seed, ..Default::default() };
        if let Some(v) = flag("--tier") {
            if v != "all" {
                cfg.tiers = v
                    .split(',')
                    .map(|t| {
                        pscp_bench::scale::tier_by_name(t).unwrap_or_else(|| {
                            usage(&format!("unknown tier '{t}' (10k|100k|1m|all)"))
                        })
                    })
                    .collect();
            }
        }
        if let Some(v) = flag("--shards") {
            cfg.shards = match v.parse::<usize>() {
                Ok(n) if pscp_simnet::geo::quad_depth_for(n).is_some() => n,
                _ => usage(&format!("bad --shards value '{v}' — a power of four (1, 4, 16, ...)")),
            };
        }
        if let Some(v) = flag("--sessions") {
            cfg.sessions = match v.parse::<usize>() {
                Ok(n) if n > 0 => Some(n),
                _ => usage(&format!("bad --sessions value '{v}'")),
            };
        }
        if let Some(v) = flag("--threads") {
            cfg.threads = v.parse::<usize>().unwrap_or_else(|_| usage("bad --threads value"));
        }
        let report = pscp_bench::scale::run_scale_report(&cfg);
        std::fs::write("SCALE_report.json", &report).expect("write SCALE_report.json");
        println!("wrote SCALE_report.json ({} tiers, {} shards)", cfg.tiers.len(), cfg.shards);
        return;
    }
    if targets.iter().any(|t| t == "incidents") {
        // Strict argument validation, matching `repro watch`.
        let mut i = 0;
        while i < targets.len() {
            match targets[i].as_str() {
                "incidents" => i += 1,
                "--tier" | "--transports" | "--shards" | "--sessions" | "--loss-scale"
                | "--threads" => i += 2,
                other => usage(&format!("unknown incidents argument '{other}'")),
            }
        }
        let flag =
            |name: &str| targets.iter().position(|t| t == name).and_then(|p| targets.get(p + 1));
        let mut cfg = pscp_core::IncidentConfig::small(seed);
        let tier = flag("--tier").map(|v| {
            pscp_bench::scale::tier_by_name(v)
                .unwrap_or_else(|| usage(&format!("unknown tier '{v}' (10k|100k|1m)")))
        });
        if let Some(v) = flag("--transports") {
            cfg.transports = pscp_core::chaos::parse_transports(v).unwrap_or_else(|e| usage(&e));
        }
        if let Some(v) = flag("--shards") {
            cfg.shards = match v.parse::<usize>() {
                Ok(n) if pscp_simnet::geo::quad_depth_for(n).is_some() => n,
                _ => usage(&format!("bad --shards value '{v}' — a power of four (1, 4, 16, ...)")),
            };
        }
        if let Some(v) = flag("--sessions") {
            cfg.sessions = match v.parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => usage(&format!("bad --sessions value '{v}'")),
            };
        }
        if let Some(v) = flag("--loss-scale") {
            cfg.loss_scale = match v.parse::<f64>() {
                Ok(x) if x.is_finite() && x >= 0.0 => x,
                _ => usage(&format!("bad --loss-scale value '{v}'")),
            };
        }
        if let Some(v) = flag("--threads") {
            cfg.threads = v.parse::<usize>().unwrap_or_else(|_| usage("bad --threads value"));
        }
        incidents_study(&scale, seed, tier, &cfg);
        return;
    }
    if targets.iter().any(|t| t == "watch") {
        let mut i = 0;
        while i < targets.len() {
            match targets[i].as_str() {
                "watch" | "--once" | "--fail-on-violation" => i += 1,
                "--batches" | "--batch-sessions" | "--transport" => i += 2,
                other => usage(&format!("unknown watch argument '{other}'")),
            }
        }
        let flag =
            |name: &str| {
                targets.iter().position(|t| t == name).and_then(|p| targets.get(p + 1)).map(|v| {
                    v.parse::<usize>().unwrap_or_else(|_| usage(&format!("bad {name} value")))
                })
            };
        let defaults = pscp_bench::watch::WatchConfig::default();
        let batches = if targets.iter().any(|t| t == "--once") {
            1
        } else {
            flag("--batches").unwrap_or(defaults.batches)
        };
        let batch_sessions = flag("--batch-sessions").unwrap_or(defaults.batch_sessions);
        let transport = targets
            .iter()
            .position(|t| t == "--transport")
            .map(|p| {
                let v = targets.get(p + 1).cloned().unwrap_or_default();
                match pscp_core::chaos::parse_transports(&v).as_deref() {
                    Ok([one]) => *one,
                    _ => usage(&format!("bad --transport value '{v}' — one of rtmp|hls|srt|auto")),
                }
            })
            .unwrap_or(None);
        let fail_on_violation = targets.iter().any(|t| t == "--fail-on-violation");
        watch_live(&scale, seed, batches, batch_sessions, transport, fail_on_violation);
        return;
    }
    if let Some(pos) = targets.iter().position(|t| t == "bench-diff") {
        let old = targets.get(pos + 1).cloned().unwrap_or_else(|| usage("bench-diff needs <old>"));
        let new = targets.get(pos + 2).cloned().unwrap_or_else(|| usage("bench-diff needs <new>"));
        bench_diff(&old, &new);
        return;
    }
    // The observability verbs (trace / metrics / slo / explain) all read
    // the same traced workload, so asking for several at once — e.g.
    // `repro trace metrics slo` — runs the simulation ONCE and emits every
    // requested artifact from that single run.
    let wants = |v: &str| targets.iter().any(|t| t == v);
    let explain_unit = targets.iter().position(|t| t == "explain").map(|pos| {
        targets
            .get(pos + 1)
            .cloned()
            .unwrap_or_else(|| usage("explain needs a session unit, e.g. `explain session/3`"))
    });
    if wants("trace") || wants("metrics") || wants("slo") || explain_unit.is_some() {
        let mut lab = traced_lab(&scale, seed);
        let dataset = lab.session_dataset();
        let obs = lab.observer();
        if wants("trace") {
            std::fs::write("TRACE_events.jsonl", obs.events_jsonl())
                .expect("write TRACE_events.jsonl");
            println!("wrote TRACE_events.jsonl ({} events)", obs.event_count());
            let chrome = pscp_obs::chrome_trace(&obs.spans(), &obs.phases());
            std::fs::write("TRACE_chrome.json", chrome).expect("write TRACE_chrome.json");
            println!(
                "wrote TRACE_chrome.json ({} spans) — load it in Perfetto / chrome://tracing",
                obs.span_count()
            );
            println!("\nevent counts:");
            for (name, n) in obs.event_summary() {
                println!("  {name:<24} {n:>9}");
            }
            let phases = obs.phases();
            if !phases.is_empty() {
                println!("\n{}", pscp_obs::phases_table(&phases));
            }
        }
        if wants("metrics") {
            let metrics = obs.metrics();
            std::fs::write("TRACE_metrics.json", metrics.snapshot_json())
                .expect("write TRACE_metrics.json");
            let mut prom = pscp_obs::prometheus_text(&metrics);
            prom.push_str(&pscp_obs::prometheus_build_info(seed, &scale, 1, 0));
            std::fs::write("TRACE_metrics.prom", prom).expect("write TRACE_metrics.prom");
            println!("{}", metrics.snapshot_text());
            println!(
                "wrote TRACE_metrics.json + TRACE_metrics.prom ({} subsystems)",
                metrics.subsystems().len()
            );
        }
        if wants("slo") {
            let spans = obs.spans();
            let report = pscp_qoe::slo::evaluate(
                &pscp_qoe::SloSpec::paper(),
                &dataset,
                &spans,
                &format!("scale={scale} seed={seed}"),
            );
            std::fs::write("SLO_report.json", report.to_json()).expect("write SLO_report.json");
            println!("{}", report.table());
            println!(
                "wrote SLO_report.json — overall: {}",
                if report.pass() { "PASS" } else { "FAIL" }
            );
        }
        if let Some(unit) = explain_unit {
            let spans = obs.spans();
            match pscp_qoe::slo::explain_unit(&unit, &spans) {
                Some(tree) => println!("{tree}"),
                None => {
                    eprintln!(
                        "no join span tree for '{unit}' — sessions are session/<i>, \
                         sweep sessions limit-<mbps>/session/<i> (never-joined \
                         sessions record no tree)"
                    );
                    std::process::exit(2);
                }
            }
        }
        return;
    }
    if targets.iter().any(|t| t == "experiments-md") {
        write_experiments_md(
            &mut Lab::new(pscp_bench::lab_config(&scale, seed).unwrap_or_else(|e| usage(&e))),
            &scale,
            seed,
        );
        return;
    }
    if targets.iter().any(|t| t == "list") {
        println!("{:<16} {:<18} title", "id", "paper artifact");
        println!("{}", "-".repeat(90));
        for exp in experiments::all() {
            println!("{:<16} {:<18} {}", exp.id, exp.paper_ref, exp.title);
        }
        for ab in [
            "ablation-buffer",
            "ablation-visibility",
            "ablation-cache",
            "ablation-threshold",
            "ablation-mtu",
        ] {
            println!("{:<16} {:<18} design-choice ablation study", ab, "DESIGN.md §4");
        }
        println!(
            "{:<16} {:<18} serial vs parallel generation timing (BENCH_parallel.json)",
            "bench", "perf"
        );
        println!(
            "{:<16} {:<18} hot-path micro-benches (BENCH_components.json)",
            "bench-components", "perf"
        );
        println!(
            "{:<16} {:<18} traced run: event log + Chrome trace (TRACE_events.jsonl, TRACE_chrome.json)",
            "trace", "observability"
        );
        println!(
            "{:<16} {:<18} traced run: per-subsystem metrics (TRACE_metrics.json, TRACE_metrics.prom)",
            "metrics", "observability"
        );
        println!(
            "{:<16} {:<18} traced run: SLO + phase attribution report (SLO_report.json)",
            "slo", "observability"
        );
        println!(
            "{:<16} {:<18} print one session's causal join span tree (explain session/3)",
            "explain", "observability"
        );
        println!(
            "{:<16} {:<18} regression gate over two BENCH_*.json artifacts",
            "bench-diff", "perf"
        );
        println!(
            "{:<16} {:<18} three-way RTMP/HLS/SRT loss sweep (CHAOS_sweep.json)",
            "chaos", "DESIGN.md §8+§12"
        );
        println!(
            "{:<16} {:<18} live SLO monitor: batched sketch snapshots (SLO_live.jsonl, SLO_live.prom)",
            "watch", "DESIGN.md §11"
        );
        println!(
            "{:<16} {:<18} sharded 10K→100K→1M broadcast sweep (SCALE_report.json)",
            "scale", "DESIGN.md §13"
        );
        println!(
            "{:<16} {:<18} burn-rate alert + ground-truth incident study (INCIDENTS.json)",
            "incidents", "DESIGN.md §14"
        );
        return;
    }
    let config = pscp_bench::lab_config(&scale, seed).unwrap_or_else(|e| usage(&e));
    let mut lab = Lab::new(config);
    // Wall-clock timing for the human-readable "(generated in …)" lines;
    // separate from the lab's own observer so it is always on.
    let profiler = pscp_obs::Observer::profile_only();
    let ids: Vec<String> = if targets.iter().any(|t| t == "all") {
        experiments::all().iter().map(|e| e.id.to_string()).collect()
    } else {
        targets
    };
    for id in ids {
        match id.as_str() {
            "ablation-buffer" => {
                banner(&id, "player buffer sizing");
                println!("{}", pscp_bench::ablation_buffer(&mut lab, 12));
            }
            "ablation-visibility" => {
                banner(&id, "map visibility caps");
                println!("{}", pscp_bench::ablation_visibility(&lab));
            }
            "ablation-cache" => {
                banner(&id, "profile picture caching");
                println!("{}", pscp_bench::ablation_cache(&mut lab, 8));
            }
            "ablation-threshold" => {
                banner(&id, "HLS viewer threshold");
                println!("{}", pscp_bench::ablation_threshold(seed, 20));
            }
            "ablation-mtu" => {
                banner(&id, "network packet granularity");
                println!("{}", pscp_bench::ablation_mtu(seed, 10));
            }
            _ => match experiments::by_id(&id) {
                Some(exp) => {
                    banner(exp.id, exp.title);
                    println!("reproduces: {}", exp.paper_ref);
                    let figure = profiler.phase(exp.id, || (exp.run)(&mut lab));
                    let secs = profiler.phases().last().map(|p| p.wall_secs).unwrap_or(0.0);
                    println!("(generated in {secs:.1} s)\n");
                    println!("{}", figure.render());
                }
                None => {
                    eprintln!("unknown experiment '{id}' — try `repro list`");
                    std::process::exit(2);
                }
            },
        }
    }
}

/// Times dataset generation at 1 thread and at the auto-resolved thread
/// count (`PSCP_THREADS` / available parallelism) and records the result
/// in `BENCH_parallel.json` in the working directory.
fn bench_parallel(scale: &str, seed: u64) {
    let threads = pscp_simnet::par::resolve_threads(0);
    let time_with = |n: usize| {
        let mut config = pscp_bench::lab_config(scale, seed).unwrap_or_else(|e| usage(&e));
        config.threads = n;
        // Phase spans (plan/execute/sweep) come for free from the profiler
        // and land in BENCH_parallel.json below.
        config.profile = true;
        let mut lab = Lab::new(config);
        let started = std::time::Instant::now();
        let dataset = lab.session_dataset();
        let len = dataset.len();
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
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("speedup: {speedup:.2}x — wrote BENCH_parallel.json");
}

/// Compares two `BENCH_*.json` artifacts and exits non-zero when any
/// shared timing regressed past the noise threshold (25 %, or
/// `PSCP_BENCH_THRESHOLD` as a fraction, e.g. `0.4`).
fn bench_diff(old_path: &str, new_path: &str) {
    let threshold = std::env::var("PSCP_BENCH_THRESHOLD")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(pscp_bench::diff::DEFAULT_THRESHOLD);
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| usage(&format!("read {path}: {e}")))
    };
    let report = pscp_bench::diff::diff(&read(old_path), &read(new_path), threshold)
        .unwrap_or_else(|e| usage(&e));
    println!("bench-diff: {old_path} → {new_path} (threshold {:.0}%)", threshold * 100.0);
    print!("{}", report.table());
    if report.has_regressions() {
        // PSCP_BENCH_GATE=warn is the escape hatch for known-noisy runners:
        // the report still prints, but the exit code stays green.
        if std::env::var("PSCP_BENCH_GATE").is_ok_and(|v| v == "warn") {
            println!("bench-diff: regressions found, but PSCP_BENCH_GATE=warn — not failing");
            return;
        }
        std::process::exit(1);
    }
}

/// Runs the DESIGN.md §8/§12 three-way transport chaos sweep: the same
/// planned sessions per transport arm under the chaos fault preset at
/// increasing loss intensity, reporting stall-ratio and join-time ECDFs,
/// per-transport mean tables and fault/recovery counters plus one SLO
/// report per arm, and writing the machine-readable sweep to
/// `CHAOS_sweep.json`.
fn chaos_sweep(scale: &str, seed: u64, cfg: &pscp_core::ChaosConfig) {
    let config = pscp_bench::lab_config(scale, seed).unwrap_or_else(|e| usage(&e));
    let mut lab = Lab::new(config);
    let arms: Vec<&str> =
        cfg.transports.iter().map(|&t| pscp_core::chaos::transport_name(t)).collect();
    println!(
        "chaos sweep: scale {scale}, seed {seed}, {} sessions/point, loss scales {:?}, \
         transports {arms:?}",
        cfg.sessions, cfg.loss_scales
    );
    let sweep = pscp_core::run_chaos(&mut lab, cfg);
    for fig in sweep.figures() {
        println!("\n{}", fig.render());
    }
    for arm in &sweep.slo {
        println!("\n{}", arm.report.table());
    }
    std::fs::write("CHAOS_sweep.json", sweep.sweep_json()).expect("write CHAOS_sweep.json");
    println!(
        "\nwrote CHAOS_sweep.json ({} points, {} SLO arms)",
        sweep.points.len(),
        sweep.slo.len()
    );
}

/// Runs the live SLO monitor: batched session runs folded into streaming
/// sketches, one cumulative snapshot line per batch. Writes
/// `SLO_live.jsonl` (snapshots) and `SLO_live.prom` (merged metrics with
/// sketch quantile gauges). Deterministic at any thread count;
/// `PSCP_WATCH_SYS=1` adds wall-clock RSS/alloc facts to each line.
fn watch_live(
    scale: &str,
    seed: u64,
    batches: usize,
    batch_sessions: usize,
    transport: Option<pscp_service::select::Protocol>,
    fail_on_violation: bool,
) {
    let lab_cfg = pscp_bench::lab_config(scale, seed).unwrap_or_else(|e| usage(&e));
    let include_sys =
        std::env::var("PSCP_WATCH_SYS").map(|v| !v.is_empty() && v != "0").unwrap_or(false);
    println!(
        "watch: scale {scale}, seed {seed} — {batches} batch(es) × {batch_sessions} sessions\
         {}{}",
        if include_sys { " (+system facts)" } else { "" },
        transport.map(|t| format!(" (transport {})", t.name())).unwrap_or_default()
    );
    let out = pscp_bench::watch::run_watch(
        lab_cfg,
        &pscp_bench::watch::WatchConfig { batches, batch_sessions, include_sys, transport },
    );
    for line in out.jsonl.lines() {
        println!("{line}");
    }
    std::fs::write("SLO_live.jsonl", &out.jsonl).expect("write SLO_live.jsonl");
    let mut prom = out.prom.clone();
    prom.push_str(&pscp_obs::prometheus_build_info(seed, scale, 1, 0));
    std::fs::write("SLO_live.prom", &prom).expect("write SLO_live.prom");
    println!(
        "wrote SLO_live.jsonl ({} snapshots) + SLO_live.prom — {} sessions, {} sketch bytes",
        batches,
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
        std::process::exit(1);
    }
}

/// Runs the incident study (DESIGN.md §14): a fault-free control arm plus
/// one chaos arm per transport over the same planned sessions, burn-rate
/// alert timelines per arm, incident correlation, and the ground-truth
/// detector scorecard. Writes `INCIDENTS.json` and, for the first chaos
/// arm, `INCIDENTS_trace.json` — a Chrome trace whose alert transitions
/// appear as instant events over the span tracks.
fn incidents_study(
    scale: &str,
    seed: u64,
    tier: Option<&'static pscp_bench::scale::ScaleTier>,
    cfg: &pscp_core::IncidentConfig,
) {
    let mut lab_cfg = pscp_bench::lab_config(scale, seed).unwrap_or_else(|e| usage(&e));
    if let Some(t) = tier {
        // A scale-sweep world density over the standard four-hour window.
        lab_cfg.population.window = pscp_simnet::SimDuration::from_secs(4 * 3600);
        lab_cfg.population.arrivals_per_sec = t.arrivals_per_sec;
    }
    let arms: Vec<&str> =
        cfg.transports.iter().map(|&t| pscp_core::chaos::transport_name(t)).collect();
    println!(
        "incidents: scale {}, seed {seed}, {} sessions/arm, loss x{}, {} shard(s), \
         arms [control + {arms:?}]",
        tier.map(|t| t.name).unwrap_or(scale),
        cfg.sessions,
        cfg.loss_scale,
        cfg.shards
    );
    let mut lab = Lab::new(lab_cfg);
    let report = pscp_core::run_incidents(&mut lab, cfg);
    print!("{}", report.table());
    std::fs::write("INCIDENTS.json", report.to_json()).expect("write INCIDENTS.json");
    if let Some(arm) = report.arms.iter().find(|a| a.faulted) {
        let trace = pscp_obs::chrome_trace_with_alerts(&arm.spans, &[], &arm.timeline.transitions);
        std::fs::write("INCIDENTS_trace.json", trace).expect("write INCIDENTS_trace.json");
    }
    println!(
        "wrote INCIDENTS.json ({} incidents, {} scorecard rows) + INCIDENTS_trace.json",
        report.incidents.len(),
        report.scorecard.len()
    );
}

/// Builds a trace-enabled lab and runs the standard traced workload:
/// the QoE dataset (unlimited block + bandwidth sweep), one deep crawl,
/// and the Fig 7 energy scenarios. One such lab backs all of
/// `repro trace` / `metrics` / `slo` / `explain` in a single invocation.
fn traced_lab(scale: &str, seed: u64) -> Lab {
    let mut config = pscp_bench::lab_config(scale, seed).unwrap_or_else(|e| usage(&e));
    config.trace = true;
    let mut lab = Lab::new(config);
    lab.session_dataset();
    lab.deep_crawl_at(14.0);
    let model = pscp_energy::model::PowerModel::default();
    let mut trace = lab.observer().trace();
    pscp_energy::scenarios::figure7_traced(&model, &mut trace);
    lab.observer().absorb("energy", trace);
    lab
}

/// Writes sessions.csv and observations.csv into `dir`.
fn export_csvs(lab: &mut Lab, dir: &str) {
    std::fs::create_dir_all(dir).expect("create export dir");
    let dataset = lab.session_dataset();
    let sessions = pscp_qoe::export::sessions_csv(&dataset);
    let sessions_path = format!("{dir}/sessions.csv");
    std::fs::write(&sessions_path, sessions).expect("write sessions.csv");
    println!("wrote {sessions_path} ({} sessions)", dataset.len());
    let crawl = lab.targeted_crawl_at(12.0);
    let ended = crawl.ended_broadcasts();
    let obs = pscp_qoe::export::observations_csv(ended.iter().copied());
    let obs_path = format!("{dir}/observations.csv");
    std::fs::write(&obs_path, obs).expect("write observations.csv");
    println!("wrote {obs_path} ({} broadcasts)", ended.len());
}

/// Renders the whole EXPERIMENTS.md record to stdout: per-artifact sections
/// with the paper's claim and the regenerated data.
fn write_experiments_md(lab: &mut Lab, scale: &str, seed: u64) {
    println!("# EXPERIMENTS — paper vs. reproduction\n");
    println!(
        "Generated by `repro --scale {scale} --seed {seed} experiments-md`. \
         Regenerate after any model change. Absolute numbers are not expected \
         to match a 2016 production service measured from Finland; the *shape* \
         of each result — who wins, by what factor, where the knees fall — is \
         the reproduction target (see DESIGN.md §1 for the substitution \
         table).\n"
    );
    let profiler = pscp_obs::Observer::profile_only();
    for exp in experiments::all() {
        println!("## {} — `{}`\n", exp.paper_ref, exp.id);
        println!("{}\n", exp.title);
        let figure = profiler.phase(exp.id, || (exp.run)(&mut *lab));
        let secs = profiler.phases().last().map(|p| p.wall_secs).unwrap_or(0.0);
        println!("```text");
        print!("{}", figure.render());
        println!("```");
        println!(
            "\n*Regenerated in {secs:.1} s with `repro --scale {scale} --seed {seed} {}`.*\n",
            exp.id
        );
    }
    println!("## Known deviations and their causes\n");
    println!("{}", KNOWN_DEVIATIONS.trim());
    println!("\n## Chaos artifact — `CHAOS_sweep.json`\n");
    println!("{}", CHAOS_SCHEMA.trim());
    println!("\n## Scale artifact — `SCALE_report.json`\n");
    println!("{}", SCALE_SCHEMA.trim());
    println!("\n## Live-monitor artifact — `SLO_live.jsonl`\n");
    println!("{}", SLO_LIVE_SCHEMA.trim());
    println!("\n## Incident artifact — `INCIDENTS.json`\n");
    println!("{}", INCIDENTS_SCHEMA.trim());
}

/// Documented gaps between the paper's numbers and the reproduction.
const KNOWN_DEVIATIONS: &str = r#"
* **Observed broadcast counts** scale with the configured population window
  and crawl length; the paper's ~220K came from four 4–10 h crawls against
  the production service. Use `--scale paper` for the closest comparison.
* **Viewed-broadcast average duration** lands below the paper's 13 min at
  small scales because short crawl windows truncate the long tail (only
  broadcasts that *end during the crawl* count, §4) — the same estimator
  bias the paper had, amplified by shorter windows.
* **Fig 7 vs §5.3 body text**: the paper's own running text quotes
  1537/2102 mW (app on) and 2742/3599 mW (chat on) while its Figure 7 bars
  read 1673/2159 and 4169/4540. The power model is calibrated to the
  figure; the discrepancy is the paper's, not the model's.
* **Audio bitrate** is reported as a mean across streams (the paper lists
  the two discrete encoder settings, 32 and 64 kbps; the mean falls between
  them according to the 60/40 population mix).
* **HLS stall counts** benefit additionally from the closed-form TCP fetch
  model, which cannot reproduce self-induced congestion oscillations; the
  direction (HLS stalls rarer than RTMP) matches §5.1.
"#;

/// Schema of the three-way chaos artifact, rendered into EXPERIMENTS.md.
const CHAOS_SCHEMA: &str = r#"
`repro chaos [--sessions N] [--transports rtmp,hls,srt,auto]` runs the
three-way transport chaos study (DESIGN.md §12) and writes
`CHAOS_sweep.json` alongside the rendered figures. Schema:

* `seed` — fault-schedule seed (independent of the lab world seed).
* `transports` — arm names in sweep order (`"RTMP"`, `"HLS"`, `"SRT"`;
  `"auto"` = the paper's viewer-count selection policy).
* `points` — one object per (transport × loss scale), transport-major:
  * `transport`, `loss_scale` — the arm and the Gilbert–Elliott loss
    multiplier (`0` = loss off, other chaos fault classes still active);
  * `sessions`, `never_joined` — sessions run / sessions that never
    started playback;
  * `mean_stall_ratio` — mean over all sessions (never-joined count 1.0);
  * `mean_join_s` — mean join time over joined sessions (`-1` if none);
  * `counters` — every `fault/*`, `recovery/*` and `srt/*` counter the
    point's sessions emitted (e.g. `srt/nak_sent`, `srt/retransmits`,
    `srt/late_drops`, `srt/conceals`, `fault/lost_packets`).
* `slo` — one entry per transport arm, evaluated at the loss scale
  closest to ×1: `transport`, `loss_scale`, `pass`, and `failed` (names
  of violated objectives; empty when `pass` is true).

All arms replan the identical sessions from the same RNG namespace
(common random numbers), so any cross-arm difference is the transport
discipline, not sampling noise; the artifact is byte-identical at any
`PSCP_THREADS`.
"#;

/// Schema of the planet-scale sweep artifact, rendered into EXPERIMENTS.md.
const SCALE_SCHEMA: &str = r#"
`repro scale [--tier 10k|100k|1m|all] [--shards N] [--sessions N]
[--threads N]` runs the planet-scale sharded sweep (DESIGN.md §13) and
writes `SCALE_report.json`. Schema (`pscp-scale-report/v1`):

* `seed`, `shards`, `threads` — sweep configuration. `shards` must be a
  power of four (1/4/16/64: one quadtree cell per shard); `threads` `0`
  means auto.
* `tiers` — one object per tier in sweep order:
  * `tier`, `arrivals_per_sec` — tier name and the broadcast arrival
    rate that yields ~10K / ~100K / ~1M broadcasts over the default
    4 h window;
  * `broadcasts`, `minutes`, `shards`, `target_sessions` — world size,
    simulated minutes, plan shard count, session budget;
  * `stats` — the merged cross-shard roll-up: session counts
    (`sessions`, `primary`, `migrated_in`, `never_joined`, `skipped`),
    `join_s`/`stall_ppm` quantiles from mergeable sketches,
    `watch_hours`, `migrations` (`out`/`cross_cell`/`dropped`) and
    `chat` (`out`/`in`/`cross_cell`). Cross-cell counts are evaluated
    at a fixed reference depth, so they are identical at any shard
    count — including 1;
  * `qoe` — the merged constant-memory telemetry snapshot (same shape
    as a `repro watch` line, DESIGN.md §11);
  * `memory` — `plan_bytes`, `stats_bytes`, `telemetry_bytes`: the
    instrument footprint. The sketch footprint stays ~constant from
    10K to 1M broadcasts because no per-session vectors are ever
    materialized;
  * `census` — per-quadkey `broadcasts` and `peak_discoverable` at a
    fixed 16-cell reference partition: a pure population fact,
    independent of the configured shard count;
  * `sys` — present only under `PSCP_WATCH_SYS=1`: `wall_secs`,
    `sessions_per_sec`, `rss_bytes` (`null` where the platform cannot
    report RSS), and the session schedule's profile: `workers`,
    `busy_secs` (time inside sessions, summed over workers) and
    `par_efficiency` = busy / (workers × the schedule's wall).

Everything outside `sys` is byte-identical across shard counts,
`PSCP_THREADS` and reruns (`tests/sharding.rs`); the quadtree
partition, the shard-invariant arrival list and the roll-up merge algebra
are property-tested in `tests/shard_props.rs`.
"#;

/// Schema of the live-monitor snapshot stream, rendered into EXPERIMENTS.md.
const SLO_LIVE_SCHEMA: &str = r#"
`repro watch [--once|--batches N] [--batch-sessions N]
[--transport rtmp|hls|srt|auto] [--fail-on-violation]` writes one JSON
object per line to `SLO_live.jsonl`, cumulative over batches:

* `batch`, `sessions_total` — batch index and sessions folded so far.
* `rss_bytes`, `alloc_count` — wall-clock system facts, present only
  under `PSCP_WATCH_SYS=1` (the default artifact stays deterministic).
* `telemetry` — the constant-memory QoE snapshot (DESIGN.md §11): join
  quantiles, stall ratio, per-phase attribution, sketch footprint.
* `alerts` — burn-rate alert state as of the snapshot (DESIGN.md §14):
  * `transitions` — firing/resolved transitions on the cumulative
    timeline so far;
  * `firing` — rules firing at the data horizon (the end boundary of
    the latest ring window), sorted by name. Empty on every fault-free
    run.

The companion `SLO_live.prom` renders the merged batch metrics plus one
`pscp_alert_state{rule,shard}` gauge per rule and a `pscp_build_info`
gauge (seed/tier/shards/threads labels). `--fail-on-violation` exits 1
iff the final snapshot violates an SLO objective or an alert is firing.
Both artifacts are byte-identical at any `PSCP_THREADS`.
"#;

/// Schema of the incident-study artifact, rendered into EXPERIMENTS.md.
const INCIDENTS_SCHEMA: &str = r#"
`repro incidents [--tier 10k|100k|1m] [--transports rtmp,hls,srt,auto]
[--shards N] [--sessions N] [--loss-scale X] [--threads N]` runs the
burn-rate alert + ground-truth incident study (DESIGN.md §14): a
fault-free control arm plus one chaos arm per transport, all replanning
the identical sessions (common random numbers), and writes
`INCIDENTS.json`:

* `seed`, `loss_scale`, `sessions`, `shards`, `horizon_us` — study
  configuration; the horizon is the population window the ground-truth
  fault timeline is scanned over.
* `arms` — arm names in run order (`control` first).
* `incidents` — correlated incidents: per arm, firing intervals that
  overlap or start within one fast window (5 min) of the group's end
  are merged. Each carries `arm`, `start_us`, `end_us`, `attribution`
  (dominant join phase from the span forest), `rules` (contributing
  rule names, sorted) and `cells` (affected REF_DEPTH quadkeys from the
  per-cell burn rules, sorted).
* `scorecard` — one row per (chaos arm × CDN POP) for the
  `pop_outage/<hostname>` symptom rules, joined against the ground
  truth derived from the fault seed alone: `truth_windows` (injected),
  `observed` (windows with ≥ 1 probed minute — an outage no session
  polled is undetectable by construction), `detected`, `recall`
  (= 1.0 over observed windows on this instrumented system),
  `false_alarms` (firing intervals matching no truth window; 0 by
  construction), `precision`, and `median_detection_latency_s` from
  fault start to the alert boundary (−1 when nothing was detected).
  Ingest outages feed incidents but are aggregated across hostnames,
  so they get no per-unit scorecard row (DESIGN.md §14).
* `timelines` — the full per-arm alert timelines (rule, time, state,
  fast/slow burn rates, attribution). The control arm's timeline is
  empty: no faults, no alerts.

The companion `INCIDENTS_trace.json` is a Chrome trace of the first
chaos arm whose alert transitions appear as instant events over the
span tracks (open in Perfetto). `INCIDENTS.json` is byte-identical
across `PSCP_THREADS` 1/2/8 and `--shards` 1/4/16
(`tests/observability.rs`).
"#;

fn banner(id: &str, title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("== {id}: {title}");
    println!("{}", "=".repeat(78));
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro [--scale small|medium|paper|planet] [--seed N] \
         <ids...|all|list|bench|bench-components|bench-diff <old> <new>|\
         trace|metrics|slo|explain <unit>|\
         chaos [--sessions N] [--transports rtmp,hls,srt,auto]|\
         watch [--once|--batches N] [--batch-sessions N] [--transport rtmp|hls|srt|auto] \
         [--fail-on-violation]|\
         scale [--tier 10k|100k|1m|all] [--shards N] [--sessions N] [--threads N]|\
         incidents [--tier 10k|100k|1m] [--transports rtmp,hls,srt,auto] [--shards N] \
         [--sessions N] [--loss-scale X] [--threads N]>\n\
         trace/metrics/slo/explain share one traced run when requested together"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
