//! `repro experiments-md`: the EXPERIMENTS.md record — every figure
//! regenerated beside the paper's claim, the known deviations, and one
//! section per artifact rendered from the verb table
//! ([`schema_sections`]; the bodies live here, the synopsis that opens
//! each comes from the verb's row).

use pscp_core::experiments;

use crate::cli::{Ctx, Schema, VERBS};

/// Renders the whole record to stdout.
pub fn render(ctx: &mut Ctx) {
    let (scale, seed) = (ctx.scale().to_string(), ctx.seed);
    println!("# EXPERIMENTS — paper vs. reproduction\n");
    println!(
        "Generated by `repro --scale {scale} --seed {seed} experiments-md`. \
         Regenerate after any model change. Absolute numbers are not expected \
         to match a 2016 production service measured from Finland; the *shape* \
         of each result — who wins, by what factor, where the knees fall — is \
         the reproduction target (see DESIGN.md §1 for the substitution \
         table).\n"
    );
    for exp in experiments::all() {
        println!("## {} — `{}`\n", exp.paper_ref, exp.id);
        println!("{}\n", exp.title);
        let figure = (exp.run)(ctx.lab());
        println!("```text");
        print!("{}", figure.render());
        println!("```");
        println!("\n{}\n", footer(&scale, seed, exp.id));
    }
    println!("## Known deviations and their causes\n");
    println!("{}", KNOWN_DEVIATIONS.trim());
    print!("{}", schema_sections());
}

/// The line under a figure: the command that regenerates it. It names no
/// wall-clock time, so regenerating the record changes only what moved.
pub fn footer(scale: &str, seed: u64, id: &str) -> String {
    format!("*Regenerated with `repro --scale {scale} --seed {seed} {id}`.*")
}

/// The artifact sections that close EXPERIMENTS.md: one per verb with a
/// [`Schema`], each opened by the verb's usage.
pub fn schema_sections() -> String {
    let mut text = String::new();
    for verb in VERBS {
        if let Some(Schema { title, body }) = &verb.schema {
            let (artifact, usage) = (verb.artifacts[0], verb.command());
            text.push_str(&format!("\n## {title} — `{artifact}`\n\n`{usage}`\n{}\n", body.trim()));
        }
    }
    text
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
* **`tc` bandwidth limits** (Figs 3b, 4): the paper's `tc` is a token bucket
  — a burst allowance in front of a finite queue that tail-drops. Here a
  limit is a plain rate on the session's one unbounded FIFO link: nothing
  passes faster than the limit and nothing is dropped at the queue, so a
  stall under a limit is queueing delay alone, never loss and recovery.
"#;

/// Schema of the three-way chaos artifact.
pub const CHAOS: Schema = Schema {
    title: "Chaos artifact",
    body: r#"
runs the three-way transport chaos study (DESIGN.md §12) and writes
`CHAOS_sweep.json` alongside the rendered figures, one compact JSON
document (keys ascend, numbers at shortest round-trip precision, DESIGN.md
§15). Schema:

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
    point's sessions emitted, keyed `subsystem/name` (e.g.
    `srt/nak_sent`, `srt/retransmits`, `srt/late_drops`, `srt/conceals`,
    `fault/lost_packets`). No
    `session/*` counter is part of the artifact, so the one-start fix of
    DESIGN.md §16 (an SRT session that falls back to RTMP used to count
    `session/started` twice) leaves it byte-identical; what does show the
    fallback is `recovery/srt_fallbacks`.
* `slo` — one entry per transport arm, evaluated at the loss scale
  closest to ×1: `transport`, `loss_scale`, `pass`, and `failed` (names
  of violated objectives; empty when `pass` is true).

All arms replan the identical sessions from the same RNG namespace
(common random numbers), so any cross-arm difference is the transport
discipline, not sampling noise; the artifact is byte-identical at any
`PSCP_THREADS`.
"#,
};

/// Schema of the planet-scale sweep artifact.
pub const SCALE: Schema = Schema {
    title: "Scale artifact",
    body: r#"
runs the planet-scale sharded sweep (DESIGN.md §13) and writes
`SCALE_report.json`, one compact JSON document (keys ascend, numbers at
shortest round-trip precision, DESIGN.md §15). Schema
(`pscp-scale-report/v1`):

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
"#,
};

/// Schema of the live-monitor snapshot stream.
pub const SLO_LIVE: Schema = Schema {
    title: "Live-monitor artifact",
    body: r#"
writes one compact JSON object per line to `SLO_live.jsonl` (keys ascend,
numbers at shortest round-trip precision, DESIGN.md §15), cumulative over
batches:

* `batch`, `sessions_total` — batch index and sessions folded so far.
* `rss_bytes`, `alloc_count` — wall-clock system facts, present only
  under `PSCP_WATCH_SYS=1` (the default artifact stays deterministic).
* `telemetry` — the constant-memory QoE snapshot (DESIGN.md §11): join
  quantiles, stall ratio, per-phase attribution, sketch footprint. The
  HLS latency and per-phase means are written to the µs (1e-6): they come
  from float moments, whose merge is partition-dependent in the last bits.
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
"#,
};

/// Schema of the incident-study artifact.
pub const INCIDENTS: Schema = Schema {
    title: "Incident artifact",
    body: r#"
runs the burn-rate alert + ground-truth incident study (DESIGN.md §14):
a fault-free control arm plus one chaos arm per transport, all
replanning the identical sessions (common random numbers), and writes
`INCIDENTS.json`, one compact JSON document (keys ascend, numbers at
shortest round-trip precision, DESIGN.md §15):

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
* `timelines` — the full per-arm alert timelines keyed by arm name (rule,
  time, state, fast/slow burn rates, attribution). The control arm's
  timeline is empty: no faults, no alerts.

The companion `INCIDENTS_trace.json` is a Chrome trace of the first
chaos arm whose alert transitions appear as instant events over the
span tracks (open in Perfetto). `INCIDENTS.json` is byte-identical
across `PSCP_THREADS` and `--shards` 1/4/16
(`tests/observability.rs`).
"#,
};
