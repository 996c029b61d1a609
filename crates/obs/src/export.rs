//! Interchange exporters: Chrome trace-event JSON and Prometheus text.
//!
//! Both renderers are pure functions of their inputs with fixed iteration
//! order, so exporting the deterministic channels (causal spans, metrics)
//! yields byte-identical files at any thread count. Wall-clock
//! [`PhaseSpan`]s can be included in the Chrome export on their own process
//! track — callers wanting a byte-stable artifact simply pass an empty
//! phase slice.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::alert::AlertTransition;
use crate::causal::Span;
use crate::metrics::MetricsRegistry;
use crate::span::PhaseSpan;
use pscp_proto::json::Writer;

/// Renders causal spans (one Chrome "thread" per work unit, in first-
/// appearance order), optional wall-clock phases (a separate Chrome
/// "process") and one global instant event (`ph:"i"`, scope `"g"`) per
/// alert transition, so Perfetto draws firing/resolved markers across the
/// span tracks, as one Chrome trace-event JSON document (trailing newline).
/// Loadable by Perfetto / `chrome://tracing`; `ts`/`dur` are
/// sim-microseconds for spans and alerts and wall-microseconds
/// (cumulative) for phases.
pub fn chrome_trace(
    spans: &[(String, Span)],
    phases: &[PhaseSpan],
    alerts: &[AlertTransition],
) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 128 + phases.len() * 128);
    let w = &mut Writer::new(&mut out);
    w.begin_object();
    w.key("displayTimeUnit").str("ms");
    w.key("traceEvents").begin_array();
    name_event(w, "process_name", 1, 0, "sim");

    // Units become tids in first-appearance order — spans arrive in plan
    // order, so the numbering is deterministic.
    let mut tid_of: HashMap<&str, u32> = HashMap::new();
    for (unit, span) in spans {
        let next_tid = tid_of.len() as u32 + 1;
        let tid = *tid_of.entry(unit.as_str()).or_insert_with(|| {
            name_event(w, "thread_name", 1, next_tid, unit);
            next_tid
        });
        w.begin_object();
        w.key("args").begin_object();
        w.key("id").int(span.id);
        if let Some(parent) = span.parent {
            w.key("parent").int(parent);
        }
        w.end_object();
        w.key("cat").str(span.subsystem);
        w.key("dur").int(span.duration_us());
        w.key("name").str(span.name);
        w.key("ph").str("X");
        w.key("pid").int(1);
        w.key("tid").int(tid);
        w.key("ts").int(span.start_us);
        w.end_object();
    }

    if !phases.is_empty() {
        name_event(w, "process_name", 2, 0, "wall-clock");
        let mut ts_us = 0u64;
        for phase in phases {
            let dur_us = (phase.wall_secs * 1e6).round().max(0.0) as u64;
            w.begin_object();
            w.key("args").begin_object();
            w.key("busy_secs").number(phase.busy_secs);
            w.key("items").int(phase.items as u64);
            w.key("workers").int(phase.workers as u64);
            w.end_object();
            w.key("cat").str("phase");
            w.key("dur").int(dur_us);
            w.key("name").str(&phase.name);
            w.key("ph").str("X");
            w.key("pid").int(2);
            w.key("tid").int(1);
            w.key("ts").int(ts_us);
            w.end_object();
            ts_us += dur_us;
        }
    }

    for tr in alerts {
        w.begin_object();
        w.key("args").begin_object();
        w.key("attribution").str(&tr.attribution);
        w.key("burn_fast").number(tr.burn_fast);
        w.key("burn_slow").number(tr.burn_slow);
        w.key("rule").str(&tr.rule);
        w.end_object();
        w.key("cat").str("alert");
        let state = if tr.firing { "firing" } else { "resolved" };
        w.key("name").str(&format!("{} {state}", tr.rule));
        w.key("ph").str("i");
        w.key("pid").int(1);
        w.key("s").str("g");
        w.key("tid").int(0);
        w.key("ts").int(tr.t_us);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    out.push('\n');
    out
}

/// A metadata event (`ph:"M"`) giving `(pid, tid)` the display `name`.
fn name_event(w: &mut Writer<'_>, kind: &str, pid: u32, tid: u32, name: &str) {
    w.begin_object();
    w.key("args").begin_object();
    w.key("name").str(name);
    w.end_object();
    w.key("name").str(kind);
    w.key("ph").str("M");
    w.key("pid").int(pid);
    w.key("tid").int(tid);
    w.end_object();
}

/// Renders alert states as `pscp_alert_state{rule,shard}` gauges (1 =
/// firing, 0 = quiet) with HELP/TYPE metadata, in input order — callers
/// pass states in (rule, shard) sorted order for stable artifacts.
pub fn prometheus_alert_state(states: &[(String, String, bool)]) -> String {
    let mut out = String::with_capacity(128 + states.len() * 64);
    out.push_str(
        "# HELP pscp_alert_state Burn-rate alert state (1 = firing) per rule and shard.\n",
    );
    out.push_str("# TYPE pscp_alert_state gauge\n");
    for (rule, shard, firing) in states {
        let _ = writeln!(
            out,
            "pscp_alert_state{{rule=\"{}\",shard=\"{}\"}} {}",
            escape_label(rule),
            escape_label(shard),
            u64::from(*firing)
        );
    }
    out
}

/// Renders the `pscp_build_info` gauge: a constant-1 metric whose labels
/// identify the run (seed, scale tier, shard count, thread count), per
/// the Prometheus build-info convention.
pub fn prometheus_build_info(seed: u64, tier: &str, shards: u32, threads: usize) -> String {
    format!(
        "# HELP pscp_build_info Run identity: seed, scale tier, shard and thread counts.\n\
         # TYPE pscp_build_info gauge\n\
         pscp_build_info{{seed=\"{seed}\",tier=\"{}\",shards=\"{shards}\",\
         threads=\"{threads}\"}} 1\n",
        escape_label(tier)
    )
}

/// Renders the registry in Prometheus text exposition format. Metric
/// names are fixed (`pscp_counter`, `pscp_histogram_*`); the repo's
/// dotted `(subsystem, name)` keys become label values, escaped per the
/// exposition rules. Buckets are emitted cumulatively with a final
/// `+Inf` bucket, as Prometheus requires.
pub fn prometheus_text(metrics: &MetricsRegistry) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("# HELP pscp_counter Deterministic sim counters keyed by subsystem/name.\n");
    out.push_str("# TYPE pscp_counter counter\n");
    for (sub, name, v) in metrics.counters() {
        let _ = writeln!(
            out,
            "pscp_counter{{subsystem=\"{}\",name=\"{}\"}} {v}",
            escape_label(sub),
            escape_label(name)
        );
    }
    out.push_str("# HELP pscp_histogram Fixed-bucket sim histograms keyed by subsystem/name.\n");
    out.push_str("# TYPE pscp_histogram histogram\n");
    for (sub, name, h) in metrics.histograms() {
        let labels = format!("subsystem=\"{}\",name=\"{}\"", escape_label(sub), escape_label(name));
        let mut cumulative = 0u64;
        for (i, &count) in h.counts.iter().enumerate() {
            cumulative += count;
            let le = match h.edges.get(i) {
                Some(e) => e.to_string(),
                None => "+Inf".to_string(),
            };
            let _ = writeln!(out, "pscp_histogram_bucket{{{labels},le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "pscp_histogram_sum{{{labels}}} {}", h.sum);
        let _ = writeln!(out, "pscp_histogram_count{{{labels}}} {}", h.total);
    }
    out.push_str(
        "# HELP pscp_sketch_quantile Quantile estimates from mergeable streaming sketches.\n",
    );
    out.push_str("# TYPE pscp_sketch_quantile gauge\n");
    // Quantile gauges first (grouped per metric name as the exposition
    // format prefers), then sum/count in a second pass under their own
    // HELP/TYPE headers.
    for (sub, name, sketch) in metrics.sketches() {
        let labels = format!("subsystem=\"{}\",name=\"{}\"", escape_label(sub), escape_label(name));
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            if let Some(v) = sketch.quantile(q) {
                let _ = writeln!(out, "pscp_sketch_quantile{{{labels},quantile=\"{label}\"}} {v}");
            }
        }
    }
    out.push_str("# HELP pscp_sketch Observation totals behind the sketch quantiles.\n");
    out.push_str("# TYPE pscp_sketch summary\n");
    for (sub, name, sketch) in metrics.sketches() {
        let labels = format!("subsystem=\"{}\",name=\"{}\"", escape_label(sub), escape_label(name));
        let _ = writeln!(out, "pscp_sketch_sum{{{labels}}} {}", sketch.sum());
        let _ = writeln!(out, "pscp_sketch_count{{{labels}}} {}", sketch.count());
    }
    out
}

/// Prometheus label-value escaping: backslash, double-quote and newline.
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MS_BUCKETS;

    fn span(id: u32, parent: Option<u32>, start_us: u64, end_us: u64) -> Span {
        Span { id, parent, start_us, end_us, subsystem: "session", name: "session.join" }
    }

    #[test]
    fn chrome_trace_units_become_threads_in_first_appearance_order() {
        let spans = vec![
            ("session/1".to_string(), span(0, None, 10, 50)),
            ("session/1".to_string(), span(1, Some(0), 10, 20)),
            ("session/0".to_string(), span(0, None, 5, 9)),
        ];
        let doc = chrome_trace(&spans, &[], &[]);
        let s1 = doc.find("\"name\":\"session/1\"").expect("session/1 thread");
        let s0 = doc.find("\"name\":\"session/0\"").expect("session/0 thread");
        assert!(s1 < s0, "tids follow span (plan) order, not label order");
        assert!(doc.contains(
            "\"dur\":40,\"name\":\"session.join\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":10}"
        ));
        assert!(doc.contains("\"parent\":0"));
        assert!(!doc.contains("wall-clock"), "no phase track when phases empty");
    }

    #[test]
    fn chrome_trace_places_phases_on_their_own_process() {
        let phases = vec![PhaseSpan {
            name: "dataset.execute".to_string(),
            wall_secs: 0.25,
            workers: 8,
            items: 48,
            busy_secs: 1.5,
        }];
        let doc = chrome_trace(&[], &phases, &[]);
        assert!(doc.contains("\"name\":\"wall-clock\""));
        assert!(doc.contains(
            "{\"args\":{\"busy_secs\":1.5,\"items\":48,\"workers\":8},\"cat\":\"phase\",\
             \"dur\":250000,\"name\":\"dataset.execute\",\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":0}"
        ));
    }

    #[test]
    fn prometheus_text_shape_and_cumulative_buckets() {
        let mut m = MetricsRegistry::new();
        m.count("service", "api.accessVideo", 3);
        m.observe("player", "join_time_ms", &MS_BUCKETS, 1);
        m.observe("player", "join_time_ms", &MS_BUCKETS, 3);
        let text = prometheus_text(&m);
        assert!(text.contains("# TYPE pscp_counter counter\n"));
        assert!(text.contains("pscp_counter{subsystem=\"service\",name=\"api.accessVideo\"} 3\n"));
        // value 1 → bucket le=1; value 3 → le=5; buckets are cumulative.
        assert!(text.contains("le=\"1\"} 1\n"));
        assert!(text.contains("le=\"2\"} 1\n"));
        assert!(text.contains("le=\"5\"} 2\n"));
        assert!(text.contains("le=\"+Inf\"} 2\n"));
        assert!(text.contains("pscp_histogram_sum{subsystem=\"player\",name=\"join_time_ms\"} 4\n"));
        assert!(
            text.contains("pscp_histogram_count{subsystem=\"player\",name=\"join_time_ms\"} 2\n")
        );
    }

    #[test]
    fn prometheus_sketch_quantiles_with_sum_count_consistency() {
        let mut m = MetricsRegistry::new();
        for v in 1..=100u64 {
            m.sketch_observe("player", "join_time_us", v * 1_000);
        }
        let text = prometheus_text(&m);
        assert!(text.contains("# TYPE pscp_sketch_quantile gauge\n"));
        for q in ["0.5", "0.9", "0.99"] {
            assert!(
                text.contains(&format!(
                    "pscp_sketch_quantile{{subsystem=\"player\",name=\"join_time_us\",\
                     quantile=\"{q}\"}} "
                )),
                "missing quantile {q} gauge in:\n{text}"
            );
        }
        // _sum/_count must agree with the registry's own sketch totals.
        let sketch = m.sketch("player", "join_time_us").unwrap();
        assert!(text.contains(&format!(
            "pscp_sketch_sum{{subsystem=\"player\",name=\"join_time_us\"}} {}\n",
            sketch.sum()
        )));
        assert!(text.contains(&format!(
            "pscp_sketch_count{{subsystem=\"player\",name=\"join_time_us\"}} {}\n",
            sketch.count()
        )));
        assert_eq!(sketch.count(), 100);
        assert_eq!(sketch.sum(), (1..=100u64).map(|v| v * 1_000).sum::<u64>());
    }

    #[test]
    fn prometheus_sketch_labels_are_escaped() {
        let mut m = MetricsRegistry::new();
        m.sketch_observe("play\"er", "join\\time\nus", 7);
        let text = prometheus_text(&m);
        assert!(text.contains(
            "pscp_sketch_quantile{subsystem=\"play\\\"er\",name=\"join\\\\time\\nus\",\
             quantile=\"0.5\"} 7\n"
        ));
        assert!(text.contains(
            "pscp_sketch_count{subsystem=\"play\\\"er\",name=\"join\\\\time\\nus\"} 1\n"
        ));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn chrome_trace_adds_global_instants_only_for_alerts() {
        let spans = vec![("session/0".to_string(), span(0, None, 5, 9))];
        assert!(!chrome_trace(&spans, &[], &[]).contains("\"ph\":\"i\""));
        let alerts = vec![AlertTransition {
            rule: "pop_outage/fastly-eu".to_string(),
            t_us: 120_000_000,
            firing: true,
            burn_fast: 2.0,
            burn_slow: 0.5,
            attribution: "hls.playlist".to_string(),
        }];
        let doc = chrome_trace(&spans, &[], &alerts);
        assert!(doc.contains(
            "{\"args\":{\"attribution\":\"hls.playlist\",\"burn_fast\":2,\"burn_slow\":0.5,\
             \"rule\":\"pop_outage/fastly-eu\"},\"cat\":\"alert\",\
             \"name\":\"pop_outage/fastly-eu firing\",\"ph\":\"i\",\"pid\":1,\"s\":\"g\",\
             \"tid\":0,\"ts\":120000000}"
        ));
    }

    #[test]
    fn alert_state_gauge_renders_and_escapes() {
        let states = vec![
            ("join_burn".to_string(), "02".to_string(), true),
            ("sha\"rd".to_string(), "a\\b".to_string(), false),
        ];
        let text = prometheus_alert_state(&states);
        assert!(text.starts_with("# HELP pscp_alert_state "));
        assert!(text.contains("# TYPE pscp_alert_state gauge\n"));
        assert!(text.contains("pscp_alert_state{rule=\"join_burn\",shard=\"02\"} 1\n"));
        assert!(text.contains("pscp_alert_state{rule=\"sha\\\"rd\",shard=\"a\\\\b\"} 0\n"));
    }

    #[test]
    fn build_info_gauge_is_constant_one_with_run_identity_labels() {
        let text = prometheus_build_info(2016, "10k", 4, 8);
        assert!(text.contains("# TYPE pscp_build_info gauge\n"));
        assert!(text.contains(
            "pscp_build_info{seed=\"2016\",tier=\"10k\",shards=\"4\",threads=\"8\"} 1\n"
        ));
        assert!(prometheus_build_info(1, "a\"b", 1, 1).contains("tier=\"a\\\"b\""));
    }
}
