//! `repro watch` — a live SLO monitor over batched simulation runs.
//!
//! Each batch runs a fresh block of viewing sessions under its own
//! `watch-{i}` RNG namespace and a local tracing observer, folds the
//! outcomes and span breakdowns into one cumulative
//! [`QoeTelemetry`] accumulator, and emits one `SLO_live.jsonl` line: a
//! constant-memory snapshot of the QoE state so far (join p50/p90, stall
//! ratio, per-phase attribution, sketch footprint). The deterministic
//! fields are a pure function of the plan, so the JSONL stream is
//! byte-identical at any `PSCP_THREADS`. Wall-clock facts — RSS and
//! allocation counts — are *off* by default and only appear when
//! `PSCP_WATCH_SYS` asks for them, keeping the default artifact stable.
//!
//! The merged metrics registries of every batch are also rendered to
//! `SLO_live.prom` (Prometheus text, including the sketch quantile
//! gauges from `pscp_obs::export`).
//!
//! Each batch additionally re-evaluates the burn-rate alert rules
//! (DESIGN.md §14) over the *cumulative* registry and span forest, so
//! every JSONL line carries the alert state as of that snapshot —
//! transition count plus the rules firing at the data horizon — and the
//! Prometheus artifact gains one `pscp_alert_state` gauge per rule.
//! `repro watch --fail-on-violation` turns the final snapshot into an
//! exit code: nonzero when an objective is violated or an alert is still
//! firing.

use pscp_client::session::SessionConfig;
use pscp_client::{Teleport, TeleportConfig};
use pscp_core::{Lab, LabConfig};
use pscp_obs::{AlertTimeline, MetricsRegistry, Observer, Span, RING_WINDOW_US};
use pscp_proto::json::Writer;
use pscp_qoe::slo::fold_breakdowns;
use pscp_qoe::{alert_rules, QoeTelemetry, SloSpec};
use pscp_service::select::Protocol;

/// Watch-loop shape: how many batches, how big, how parallel.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Snapshot batches to run (1 for `--once`).
    pub batches: usize,
    /// Viewing sessions per batch.
    pub batch_sessions: usize,
    /// Include wall-clock system facts (RSS, allocation count) in each
    /// snapshot line. Non-deterministic; gated behind `PSCP_WATCH_SYS`.
    pub include_sys: bool,
    /// Force every session onto one transport (`repro watch --transport`).
    /// `None` — the default, and the only golden-artifact configuration —
    /// runs the paper's selection policy. `Some(Srt)` makes the monitor
    /// surface SRT health: the `srt/retx_queue_pkts` and
    /// `srt/late_drop_ppm` sketch quantiles land in `SLO_live.prom` and
    /// the `srt` join phases in the snapshot attribution.
    pub transport: Option<Protocol>,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig { batches: 5, batch_sessions: 40, include_sys: false, transport: None }
    }
}

impl WatchConfig {
    /// `repro watch`'s flags over the defaults; `PSCP_WATCH_SYS` asks for
    /// the system facts.
    pub fn from_cli(args: &crate::cli::Args) -> Result<WatchConfig, String> {
        let mut cfg = WatchConfig::default();
        let once = args.has("--once").then_some(1);
        cfg.batches = once.or(args.usize("--batches")?).unwrap_or(cfg.batches);
        cfg.batch_sessions = args.usize("--batch-sessions")?.unwrap_or(cfg.batch_sessions);
        cfg.include_sys = sys_facts_requested();
        cfg.transport = crate::cli::one("--transport", args.transports("--transport")?)?.flatten();
        Ok(cfg)
    }
}

/// Everything one watch run produces.
#[derive(Debug)]
pub struct WatchOutput {
    /// One JSON line per batch (`SLO_live.jsonl`).
    pub jsonl: String,
    /// Prometheus rendering of the merged batch metrics plus the final
    /// alert-state gauges (`SLO_live.prom`).
    pub prom: String,
    /// The final cumulative telemetry.
    pub telemetry: QoeTelemetry,
    /// The final cumulative alert timeline.
    pub timeline: AlertTimeline,
    /// Rules firing at the final snapshot's data horizon.
    pub firing: Vec<String>,
    /// Objectives the final telemetry violates.
    pub violations: Vec<&'static str>,
}

impl WatchOutput {
    /// `--fail-on-violation` verdict: healthy iff the final snapshot
    /// violates no objective and no alert is firing.
    pub fn healthy(&self) -> bool {
        self.firing.is_empty() && self.violations.is_empty()
    }
}

/// Whether `PSCP_WATCH_SYS` asks for the wall-clock system facts.
pub fn sys_facts_requested() -> bool {
    std::env::var("PSCP_WATCH_SYS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Resident set size in bytes from `/proc/self/statm`, if readable.
pub fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * 4096)
}

/// Runs the watch loop over a lab built from `lab_cfg`. Tracing is
/// forced on (the breakdown fold needs spans); the caller's thread
/// setting is preserved — snapshots are byte-identical regardless.
pub fn run_watch(mut lab_cfg: LabConfig, cfg: &WatchConfig) -> WatchOutput {
    lab_cfg.trace = true;
    let threads = lab_cfg.threads;
    let mut lab = Lab::new(lab_cfg);
    let rngs = *lab.rngs();
    let svc = lab.service();

    let spec = SloSpec::paper();
    let rules = alert_rules(&spec);
    let mut telemetry = QoeTelemetry::new();
    let mut registry = MetricsRegistry::new();
    let mut spans: Vec<(String, Span)> = Vec::new();
    let mut timeline = AlertTimeline::default();
    let mut firing: Vec<String> = Vec::new();
    let mut jsonl = String::with_capacity(cfg.batches * 512);
    for i in 0..cfg.batches {
        let local = Observer::with_flags(true, false);
        let tp = Teleport::new(svc, rngs.child(&format!("watch-{i}")));
        let outcomes = tp.run_dataset_observed(
            &TeleportConfig {
                sessions: cfg.batch_sessions,
                threads,
                session: SessionConfig { transport: cfg.transport, ..Default::default() },
                ..Default::default()
            },
            &local,
        );
        for o in &outcomes {
            telemetry.fold_outcome(o);
        }
        let batch_spans = local.spans();
        for b in fold_breakdowns(&batch_spans) {
            telemetry.fold_breakdown(&b);
        }
        spans.extend(batch_spans);
        registry.merge(&local.metrics());
        // Re-evaluating from scratch each batch keeps the state a pure
        // function of the cumulative registry — no incremental drift.
        timeline = AlertTimeline::evaluate(&rules, &registry, &spans);
        firing = timeline.firing_at(ring_horizon_us(&registry));

        let w = &mut Writer::new(&mut jsonl);
        w.begin_object();
        w.key("alerts").begin_object();
        w.key("firing").begin_array();
        firing.iter().for_each(|rule| w.str(rule));
        w.end_array();
        w.key("transitions").int(timeline.transitions.len() as u64);
        w.end_object();
        if cfg.include_sys {
            w.key("alloc_count").int(pscp_obs::alloc_count::current());
        }
        w.key("batch").int(i as u64);
        if cfg.include_sys {
            w.key("rss_bytes").int(rss_bytes().unwrap_or(0));
        }
        w.key("sessions_total").int(telemetry.n_sessions());
        w.key("telemetry");
        telemetry.write_json(w);
        w.end_object();
        jsonl.push('\n');
    }
    let mut prom = pscp_obs::prometheus_text(&registry);
    let states: Vec<(String, String, bool)> = rules
        .iter()
        .map(|r| (r.name.clone(), "all".to_string(), firing.contains(&r.name)))
        .collect();
    prom.push_str(&pscp_obs::prometheus_alert_state(&states));
    let violations = telemetry.violations(&spec);
    WatchOutput { jsonl, prom, telemetry, timeline, firing, violations }
}

/// The cumulative data horizon: the end boundary of the latest ring
/// window in the registry (0 when no ring was ever written).
fn ring_horizon_us(registry: &MetricsRegistry) -> u64 {
    registry
        .rings()
        .filter_map(|(_, _, r)| r.span())
        .map(|(_, last)| (last + 1) * RING_WINDOW_US)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_proto::json::{parse, Value};

    fn cfg() -> WatchConfig {
        WatchConfig { batches: 2, batch_sessions: 4, include_sys: false, transport: None }
    }

    fn lab_cfg(threads: usize) -> LabConfig {
        let mut c = LabConfig::small(2016);
        c.threads = threads;
        c
    }

    #[test]
    fn snapshots_are_byte_identical_across_thread_counts() {
        let serial = run_watch(lab_cfg(1), &cfg());
        for threads in [2, 8] {
            let parallel = run_watch(lab_cfg(threads), &cfg());
            assert_eq!(parallel.jsonl, serial.jsonl, "JSONL differs at {threads} threads");
            assert_eq!(parallel.prom, serial.prom, "prom differs at {threads} threads");
        }
    }

    /// The snapshot lines, parsed, each checked to be in canonical form.
    fn lines(jsonl: &str) -> Vec<Value> {
        let read = |line| parse(line).unwrap_or_else(|e| panic!("{e:?}: {line}"));
        let lines: Vec<Value> = jsonl.lines().map(read).collect();
        for (v, line) in lines.iter().zip(jsonl.lines()) {
            assert_eq!(v.to_json(), line, "not in canonical form");
        }
        lines
    }

    #[test]
    fn each_batch_emits_one_cumulative_line() {
        let out = run_watch(lab_cfg(1), &cfg());
        let lines = lines(&out.jsonl);
        assert_eq!(lines.len(), 2);
        for (batch, line) in lines.iter().enumerate() {
            assert_eq!(line.get("batch").and_then(Value::as_u64), Some(batch as u64));
            let total = line.get("sessions_total").and_then(Value::as_u64);
            assert_eq!(total, Some(4 * (batch as u64 + 1)));
            let telemetry = line.get("telemetry").expect("telemetry");
            assert!(telemetry.get("join_p90_s").and_then(Value::as_f64).is_some());
            assert!(telemetry.get("sketch_bytes").and_then(Value::as_u64).is_some());
            assert!(line.get("rss_bytes").is_none(), "sys facts are off by default");
        }
        assert_eq!(out.telemetry.n_sessions(), 8);
        assert!(out.prom.contains("pscp_sketch_quantile"), "sketch gauges exported:\n{}", out.prom);
    }

    #[test]
    fn srt_watch_surfaces_transport_health_sketches() {
        let mut c = cfg();
        c.transport = Some(Protocol::Srt);
        let out = run_watch(lab_cfg(1), &c);
        // The SRT ARQ health sketches (DESIGN.md §12) must reach the
        // Prometheus artifact so a live monitor can alert on them.
        for name in ["retx_queue_pkts", "late_drop_ppm"] {
            assert!(
                out.prom.contains(&format!("subsystem=\"srt\",name=\"{name}\"")),
                "srt/{name} sketch missing from SLO_live.prom:\n{}",
                out.prom
            );
        }
        // And the default (selection-policy) watch must NOT know SRT
        // exists — its artifacts stay byte-identical to a pre-SRT build.
        let default_out = run_watch(lab_cfg(1), &cfg());
        assert!(!default_out.prom.contains("subsystem=\"srt\""));
        assert!(!default_out.jsonl.contains("\"srt\""));
    }

    #[test]
    fn fault_free_watch_is_healthy_and_carries_alert_state() {
        let out = run_watch(lab_cfg(1), &cfg());
        // No faults are injected, so nothing may fire and the snapshot
        // must be healthy — the `--fail-on-violation` happy path.
        for line in lines(&out.jsonl) {
            let alerts = line.get("alerts").expect("alert state on every line");
            assert_eq!(alerts.get("transitions").and_then(Value::as_u64), Some(0));
            assert_eq!(alerts.get("firing").and_then(Value::as_array), Some(&[][..]));
        }
        assert!(out.timeline.is_empty(), "fault-free watch fired: {:?}", out.timeline);
        assert!(out.healthy(), "violations: {:?}, firing: {:?}", out.violations, out.firing);
        // Every rule lands in the prom artifact as a gauge at 0.
        for rule in ["join_burn", "stall_burn", "ingest_outage"] {
            assert!(
                out.prom.contains(&format!("pscp_alert_state{{rule=\"{rule}\",shard=\"all\"}} 0")),
                "missing {rule} gauge:\n{}",
                out.prom
            );
        }
    }

    #[test]
    fn sys_facts_appear_only_when_asked() {
        let mut c = cfg();
        c.batches = 1;
        c.include_sys = true;
        let out = run_watch(lab_cfg(1), &c);
        let line = &lines(&out.jsonl)[0];
        assert!(line.get("rss_bytes").and_then(Value::as_u64).is_some());
        assert!(line.get("alloc_count").and_then(Value::as_u64).is_some());
    }
}
