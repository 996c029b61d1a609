//! The benchmark's contract: workloads, metric names, units, directions
//! and regression bounds. `/BENCHMARK.json` is this table rendered by
//! [`benchmark_json`]; a unit test keeps the committed file equal to it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TeleportPaper,
    FanoutHot,
    ChaosRecovery,
    Scale100k,
    CrawlUsage,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::TeleportPaper,
        Workload::FanoutHot,
        Workload::ChaosRecovery,
        Workload::Scale100k,
        Workload::CrawlUsage,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TeleportPaper => "teleport_paper",
            Workload::FanoutHot => "fanout_hot",
            Workload::ChaosRecovery => "chaos_recovery",
            Workload::Scale100k => "scale_100k",
            Workload::CrawlUsage => "crawl_usage",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::TeleportPaper => {
                "the paper's section 5 dataset generator: popularity-weighted Teleport picks, \
                 service-chosen RTMP/HLS, every 4th session tc-limited; moderate sharing"
            }
            Workload::FanoutHot => {
                "25 viewers on each of the 12 most-viewed broadcasts plus an SRT arm: all \
                 broadcaster work is repeated, so a shared feed must win here"
            }
            Workload::ChaosRecovery => {
                "the Teleport picks under 2x chaos with RTMP, HLS and SRT forced: retry, \
                 reconnect, re-poll and NAK/ARQ paths a clean-path gain could tax"
            }
            Workload::Scale100k => {
                "run_scale over 16 shards on min(nproc,2) threads, uniform low-viewer mix: \
                 ShardPlan, par and merge cost; the bypass case for a per-broadcast cache"
            }
            Workload::CrawlUsage => {
                "deep + targeted crawl + usage analysis on the crawler-visible world: \
                 directory, API and JSON time that sessions barely touch"
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What a user of the apparatus sees; every workload reports all five.
/// The bounds are what this host's run-to-run noise supports (README,
/// "A/A"): quartile spreads over ten seeds reach 17 %, so nothing tighter
/// than the contract's maximum would hold.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("sessions_per_s", "1/s", Higher, 0.25),
    e2e("session_ms_p50", "ms", Lower, 0.25),
    e2e("session_ms_p95", "ms", Lower, 0.25),
    e2e("crawl_s", "s", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single layers, measured from outside in the traced pass. Host time
/// unless the unit says `sim_`; a layer a workload does not exercise reads 0.
pub const PER_LAYER: [MetricDef; 50] = [
    layer("workload.population.generate_ms", "ms", Lower),
    layer("workload.population.pick_us", "us", Lower),
    layer("service.access_video_us", "us", Lower),
    layer("media.encoder.ms_per_session", "ms", Lower),
    layer("media.audio.ms_per_session", "ms", Lower),
    layer("client.uplink.ms_per_session", "ms", Lower),
    layer("proto.rtmp.chunk_ms_per_session", "ms", Lower),
    layer("service.segmenter.ms_per_session", "ms", Lower),
    layer("media.ts.mux_ms_per_session", "ms", Lower),
    layer("proto.srt.packetize_ms_per_session", "ms", Lower),
    layer("simnet.link.enqueue_ms_per_session", "ms", Lower),
    layer("simnet.link.packets_per_session", "count", Lower),
    layer("media.capture.record_ms_per_session", "ms", Lower),
    layer("media.capture.mb_per_session", "MB", Lower),
    layer("media.analysis.rtmp_ms_per_capture", "ms", Lower),
    layer("media.analysis.hls_ms_per_capture", "ms", Lower),
    layer("client.chat.events_ms_per_session", "ms", Lower),
    layer("client.chat.mb_per_session", "MB", Lower),
    layer("client.player.playback_ms_per_session", "ms", Lower),
    layer("client.rtmp.session_ms_p50", "ms", Lower),
    layer("client.hls.session_ms_p50", "ms", Lower),
    layer("client.srt.session_ms_p50", "ms", Lower),
    layer("client.teleport.distinct_broadcast_ratio", "ratio", Lower),
    layer("client.session.residual_ms", "ms", Lower),
    layer("client.session.residual_share", "ratio", Lower),
    layer("qoe.telemetry.fold_us_per_session", "us", Lower),
    layer("qoe.telemetry.merge_us", "us", Lower),
    layer("core.shard.stats_merge_us", "us", Lower),
    layer("core.shard.plan_build_ms", "ms", Lower),
    layer("core.shard.empty_loop_ms", "ms", Lower),
    layer("core.shard.overhead_share", "ratio", Lower),
    layer("simnet.par.efficiency", "ratio", Higher),
    layer("crawler.deep.run_s", "s", Lower),
    layer("crawler.targeted.run_s", "s", Lower),
    layer("crawler.analysis.usage_ms", "ms", Lower),
    layer("crawler.observations", "count", Higher),
    layer("crawler.rate_limited", "count", Lower),
    layer("service.api.map_feed_us", "us", Lower),
    layer("service.api.get_broadcasts_us", "us", Lower),
    layer("proto.json.parse_mb_per_s", "MB/s", Higher),
    layer("stats.ecdf.build_ms", "ms", Lower),
    layer("obs.trace.session_overhead_ratio", "ratio", Lower),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("host.peak_rss_mb", "MB", Lower),
    layer("sim.digest", "fnv48", Lower),
    layer("sim.join_s_p50", "sim_s", Lower),
    layer("sim.stall_ratio_mean", "ratio", Lower),
    layer("sim.rtmp_share", "ratio", Lower),
    layer("sim.never_joined_share", "ratio", Lower),
    layer("sim.capture_mb_per_session", "MB", Lower),
];

/// Metric values by name; `BTreeMap` so every report is in name order.
pub type Values = BTreeMap<&'static str, f64>;

/// One JSON number with all the digits of the measurement.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics being `defs` in table order.
pub fn result_line(
    defs: &[MetricDef],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in defs.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = values.get(d.name).copied().unwrap_or(0.0);
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_number(v),
            d.unit
        );
    }
    s.push_str("}}");
    s
}

/// `/BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let sep = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}", w.name(), w.why());
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound.expect("end-to-end metrics are bounded")
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.name()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let committed = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        assert_eq!(committed, benchmark_json(), "regenerate with `run.sh --describe`");
        pscp_proto::json::parse(committed).expect("BENCHMARK.json parses");
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for w in Workload::ALL {
            assert!(ok_name(w.name()) && seen.insert(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut v = Values::new();
        v.insert("setup_s", 0.0812);
        let line = result_line(&END_TO_END, &v, true, 10, 0);
        let parsed = pscp_proto::json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("attempted").and_then(|a| a.as_f64()), Some(10.0));
        let metrics = parsed.get("metrics").expect("metrics");
        for m in END_TO_END {
            assert!(metrics.get(m.name).and_then(|x| x.get("value")).is_some(), "{}", m.name);
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.0812, \"unit\": \"s\"}"));
    }
}
