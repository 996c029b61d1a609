//! The verb table: every `repro` verb is one row of [`VERBS`], and this is
//! the only place a verb's name, flags, artifacts and one-line description
//! are written. The parser, `--help`, `repro list` and the artifact
//! sections of EXPERIMENTS.md all read it (`crate::cli`); a new verb is one
//! row plus the function it runs. Figure ids are not rows: they come from
//! `pscp_core::experiments::all()` and run through [`FIGURE`].

use pscp_core::experiments::{self, Experiment};
use pscp_core::{ChaosConfig, FigureData, IncidentConfig, Lab};

use crate::cli::{list, one, write_artifact, Args, Ctx, Exit, Verb};
use crate::scale::{ScaleArgs, ScaleTier};
use crate::watch::WatchConfig;
use crate::{experiments_md, run};

const DONE: Result<Exit, String> = Ok(Exit::Ok);

/// Every verb, in `repro list` order (the four with a schema also in
/// EXPERIMENTS.md order).
pub static VERBS: &[Verb] = &[
    Verb {
        name: "list",
        section: "inventory",
        about: "this inventory: every figure id and verb",
        run: |_, _| {
            print!("{}", list());
            DONE
        },
        ..Verb::PLAIN
    },
    Verb {
        name: "all",
        section: "paper",
        about: "every figure and table, in paper order",
        run: |ctx, _| {
            experiments::all().iter().for_each(|exp| figure(ctx, exp));
            DONE
        },
        ..Verb::PLAIN
    },
    Verb {
        name: "export",
        section: "plotting",
        about: "per-session and per-broadcast CSVs for external plotting",
        synopsis: "[dir]",
        artifacts: &["sessions.csv", "observations.csv"],
        run: run::export,
        ..Verb::PLAIN
    },
    Verb {
        name: "experiments-md",
        section: "EXPERIMENTS.md",
        about: "paper vs. reproduction, every figure: the whole record, to stdout",
        run: |ctx, _| {
            experiments_md::render(ctx);
            DONE
        },
        ..Verb::PLAIN
    },
    Verb {
        name: "ablation-buffer",
        section: "DESIGN.md §4",
        about: "player buffer sizing",
        run: |ctx, a| ablation(a, || crate::ablation_buffer(ctx.lab(), 12)),
        ..Verb::PLAIN
    },
    Verb {
        name: "ablation-visibility",
        section: "DESIGN.md §4",
        about: "map visibility caps",
        run: |ctx, a| ablation(a, || crate::ablation_visibility(ctx.lab())),
        ..Verb::PLAIN
    },
    Verb {
        name: "ablation-cache",
        section: "DESIGN.md §4",
        about: "profile picture caching",
        run: |ctx, a| ablation(a, || crate::ablation_cache(ctx.lab(), 8)),
        ..Verb::PLAIN
    },
    Verb {
        name: "ablation-threshold",
        section: "DESIGN.md §4",
        about: "HLS viewer threshold",
        run: |ctx, a| ablation(a, || crate::ablation_threshold(ctx.seed, 20)),
        ..Verb::PLAIN
    },
    Verb {
        name: "ablation-mtu",
        section: "DESIGN.md §4",
        about: "network packet granularity",
        run: |ctx, a| ablation(a, || crate::ablation_mtu(ctx.seed, 10)),
        ..Verb::PLAIN
    },
    Verb {
        name: "bench",
        section: "perf",
        about: "serial vs parallel generation timing",
        artifacts: &["BENCH_parallel.json"],
        run: run::bench,
        ..Verb::PLAIN
    },
    Verb {
        name: "bench-components",
        section: "perf",
        about: "hot-path micro-benches",
        artifacts: &["BENCH_components.json"],
        run: |ctx, _| {
            println!("{}", crate::micro::bench_components(ctx.seed)?);
            DONE
        },
        ..Verb::PLAIN
    },
    Verb {
        name: "bench-diff",
        section: "perf",
        about: "regression gate over two BENCH_*.json artifacts: exit 1 on a regression",
        synopsis: "<old> <new>",
        run: run::bench_diff,
        ..Verb::PLAIN
    },
    Verb {
        name: "trace",
        section: "observability",
        about: "traced run: event log + Chrome trace",
        artifacts: &["TRACE_events.jsonl", "TRACE_chrome.json"],
        run: run::trace,
        ..Verb::PLAIN
    },
    Verb {
        name: "metrics",
        section: "observability",
        about: "traced run: per-subsystem metrics",
        artifacts: &["TRACE_metrics.json", "TRACE_metrics.prom"],
        run: run::metrics,
        ..Verb::PLAIN
    },
    Verb {
        name: "slo",
        section: "observability",
        about: "traced run: SLO + phase attribution report",
        artifacts: &["SLO_report.json"],
        run: run::slo,
        ..Verb::PLAIN
    },
    Verb {
        name: "explain",
        section: "observability",
        about: "traced run: one session's causal join span tree, e.g. `explain session/3`",
        synopsis: "<unit>",
        run: run::explain,
        ..Verb::PLAIN
    },
    Verb {
        name: "chaos",
        section: "DESIGN.md §8+§12",
        about: "three-way RTMP/HLS/SRT loss sweep",
        synopsis: "[--sessions N] [--transports rtmp,hls,srt,auto]",
        artifacts: &["CHAOS_sweep.json"],
        schema: Some(experiments_md::CHAOS),
        check: |a| chaos_config(a, 0).map(drop),
        run: |ctx, a| run::chaos(ctx, &chaos_config(a, ctx.seed)?),
    },
    Verb {
        name: "scale",
        section: "DESIGN.md §13",
        about: "sharded 10K→100K→1M broadcast sweep",
        synopsis: "[--tier 10k|100k|1m|all] [--shards N] [--sessions N] [--threads N]",
        artifacts: &["SCALE_report.json"],
        schema: Some(experiments_md::SCALE),
        check: |a| ScaleArgs::from_cli(a, 0).map(drop),
        run: |ctx, a| {
            let cfg = ScaleArgs::from_cli(a, ctx.seed)?;
            write_artifact("SCALE_report.json", crate::scale::run_scale_report(&cfg))?;
            println!("wrote SCALE_report.json ({} tiers, {} shards)", cfg.tiers.len(), cfg.shards);
            DONE
        },
    },
    Verb {
        name: "watch",
        section: "DESIGN.md §11",
        about: "live SLO monitor: batched sketch snapshots",
        synopsis: "[--once|--batches N] [--batch-sessions N] [--transport rtmp|hls|srt|auto] \
                   [--fail-on-violation]",
        artifacts: &["SLO_live.jsonl", "SLO_live.prom"],
        schema: Some(experiments_md::SLO_LIVE),
        check: |a| WatchConfig::from_cli(a).map(drop),
        run: |ctx, a| run::watch(ctx, &WatchConfig::from_cli(a)?, a.has("--fail-on-violation")),
    },
    Verb {
        name: "incidents",
        section: "DESIGN.md §14",
        about: "burn-rate alert + ground-truth incident study",
        synopsis: "[--tier 10k|100k|1m] [--transports rtmp,hls,srt,auto] [--shards N] \
                   [--sessions N] [--loss-scale X] [--threads N]",
        artifacts: &["INCIDENTS.json", "INCIDENTS_trace.json"],
        schema: Some(experiments_md::INCIDENTS),
        check: |a| incident_config(a, 0).map(drop),
        run: |ctx, a| {
            let (tier, cfg) = incident_config(a, ctx.seed)?;
            run::incidents(ctx, tier, &cfg)
        },
    },
];

/// What a figure id runs through. Not a row of [`VERBS`]: the ids are
/// `experiments::all()`'s.
pub static FIGURE: Verb = Verb {
    name: "<figure id>",
    about: "one of the paper's figures or tables",
    run: |ctx, a| {
        figure(ctx, &experiments::by_id(&a.name).expect("the parser matched this id"));
        DONE
    },
    ..Verb::PLAIN
};

fn banner(id: &str, title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("== {id}: {title}");
    println!("{}", "=".repeat(78));
}

/// Runs one experiment and returns its figure with the wall seconds it took.
pub fn timed(exp: &Experiment, lab: &mut Lab) -> (FigureData, f64) {
    let started = std::time::Instant::now();
    let figure = (exp.run)(lab);
    (figure, started.elapsed().as_secs_f64())
}

fn figure(ctx: &mut Ctx, exp: &Experiment) {
    banner(exp.id, exp.title);
    println!("reproduces: {}", exp.paper_ref);
    let (figure, secs) = timed(exp, ctx.lab());
    println!("(generated in {secs:.1} s)\n");
    println!("{}", figure.render());
}

fn ablation(args: &Args, table: impl FnOnce() -> String) -> Result<Exit, String> {
    banner(args.verb.name, args.verb.about);
    println!("{}", table());
    DONE
}

fn chaos_config(args: &Args, seed: u64) -> Result<ChaosConfig, String> {
    let mut cfg = ChaosConfig::small(seed);
    cfg.sessions = args.sessions()?.unwrap_or(cfg.sessions);
    cfg.transports = args.transports("--transports")?.unwrap_or(cfg.transports);
    Ok(cfg)
}

/// The study's world density (`--tier`, one tier) and its configuration.
fn incident_config(
    args: &Args,
    seed: u64,
) -> Result<(Option<&'static ScaleTier>, IncidentConfig), String> {
    let tier = one("--tier", args.tiers("--tier")?)?;
    let mut cfg = IncidentConfig::small(seed);
    cfg.transports = args.transports("--transports")?.unwrap_or(cfg.transports);
    cfg.shards = args.power_of_four("--shards")?.unwrap_or(cfg.shards);
    cfg.sessions = args.sessions()?.unwrap_or(cfg.sessions);
    cfg.loss_scale = args.number("--loss-scale")?.unwrap_or(cfg.loss_scale);
    cfg.threads = args.usize("--threads")?.unwrap_or(cfg.threads);
    Ok((tier, cfg))
}
