//! Observability-layer invariants (DESIGN.md §7): tracing must be a pure
//! read-only tap — figures and datasets byte-identical with it on or off,
//! the merged event log byte-identical at any thread count, and the metric
//! snapshot stable and complete.

use periscope_repro::core::{experiments, Lab, LabConfig};
use periscope_repro::obs::{chrome_trace, MetricsRegistry, MS_BUCKETS};
use periscope_repro::proto::json::{parse, Value};

/// Per-session fingerprint of the full QoE dataset (mirrors
/// `tests/determinism.rs` so a single diverging draw shows up).
fn dataset_fingerprint(trace: bool, threads: usize, seed: u64) -> Vec<String> {
    let mut config = LabConfig::small(seed);
    config.trace = trace;
    config.threads = threads;
    let mut lab = Lab::new(config);
    let dataset = lab.session_dataset();
    dataset
        .sessions
        .iter()
        .map(|s| {
            format!(
                "{:?} {:?} {:?} {} {} {} {:?} {:?}",
                s.broadcast_id,
                s.protocol,
                s.device,
                s.viewers_at_join,
                s.meta.n_stalls,
                s.traffic_bps.to_bits(),
                s.join_time_s().map(|j| (j * 1e6) as u64),
                s.meta.playback_latency_s.map(|l| (l * 1e6) as u64),
            )
        })
        .collect()
}

#[test]
fn tracing_does_not_change_the_dataset() {
    let off = dataset_fingerprint(false, 1, 21);
    let on = dataset_fingerprint(true, 1, 21);
    assert_eq!(off, on, "tracing changed simulation results");
}

#[test]
fn tracing_does_not_change_the_dataset_parallel() {
    let off = dataset_fingerprint(false, 8, 22);
    let on = dataset_fingerprint(true, 8, 22);
    assert_eq!(off, on, "tracing changed parallel simulation results");
}

#[test]
fn figures_identical_with_tracing_on_and_off() {
    let render = |trace: bool, id: &str| {
        let mut config = LabConfig::small(23);
        config.trace = trace;
        let mut lab = Lab::new(config);
        let exp = experiments::by_id(id).expect("experiment exists");
        (exp.run)(&mut lab).render()
    };
    for id in ["fig1a", "fig3b", "fig7"] {
        assert_eq!(render(false, id), render(true, id), "experiment {id}");
    }
}

/// `text` (one JSON document, or one line of a JSONL file) in the canonical
/// form: parsing it and writing the tree back gives the same bytes, so its
/// keys ascend, every string is escaped one way and every number has one
/// format. Returns the tree.
fn assert_canonical(text: &str) -> Value {
    let v = parse(text).unwrap_or_else(|e| panic!("{e:?}: {text}"));
    assert_eq!(v.to_json(), text.strip_suffix('\n').unwrap_or(text), "not canonical");
    v
}

/// The merged event log must be byte-identical at every thread count:
/// per-unit traces are absorbed in plan order, never completion order.
fn event_log(threads: usize, seed: u64) -> (String, String) {
    let mut config = LabConfig::small(seed);
    config.trace = true;
    config.threads = threads;
    let mut lab = Lab::new(config);
    lab.session_dataset();
    lab.deep_crawl_at(14.0);
    let obs = lab.observer();
    (obs.events_jsonl(), obs.metrics().snapshot_text())
}

#[test]
fn event_log_invariant_under_thread_count() {
    let (log1, metrics1) = event_log(1, 24);
    let (log8, metrics8) = event_log(8, 24);
    assert!(!log1.is_empty(), "tracing produced no events");
    assert_eq!(log1, log8, "event log diverged across thread counts");
    assert_eq!(metrics1, metrics8, "metrics diverged across thread counts");
}

#[test]
fn event_log_lines_are_valid_json() {
    let (log, _) = event_log(1, 25);
    let mut lines = 0;
    for line in log.lines() {
        let v = assert_canonical(line);
        assert!(v.get("t_us").is_some(), "missing t_us: {line}");
        assert!(v.get("unit").is_some(), "missing unit: {line}");
        assert!(v.get("sub").is_some(), "missing sub: {line}");
        assert!(v.get("ev").is_some(), "missing ev: {line}");
        lines += 1;
    }
    assert!(lines > 100, "expected a substantial log, got {lines} lines");
}

#[test]
fn metrics_cover_the_required_subsystems() {
    let mut config = LabConfig::small(26);
    config.trace = true;
    let mut lab = Lab::new(config);
    lab.session_dataset();
    lab.deep_crawl_at(14.0);
    let metrics = lab.observer().metrics();
    assert_canonical(&metrics.snapshot_json());
    let subs = metrics.subsystems();
    for required in ["session", "player", "tcp", "service", "crawler", "hls", "rtmp"] {
        assert!(subs.contains(&required), "subsystem {required} missing from {subs:?}");
    }
    assert!(subs.len() >= 5, "need >= 5 subsystems, got {subs:?}");
}

#[test]
fn metrics_snapshot_ordering_is_stable() {
    // Insertion order must not leak into the snapshot: the registry is
    // keyed on BTreeMaps, so two differently-ordered merges render the same.
    let mut a = MetricsRegistry::new();
    a.count("zeta", "last", 1);
    a.count("alpha", "first", 2);
    a.observe("mid", "lat_ms", &MS_BUCKETS, 42);
    let mut b = MetricsRegistry::new();
    b.observe("mid", "lat_ms", &MS_BUCKETS, 42);
    b.count("alpha", "first", 2);
    b.count("zeta", "last", 1);
    assert_eq!(a.snapshot_text(), b.snapshot_text());
    assert_eq!(a.snapshot_json(), b.snapshot_json());
    let snapshot = assert_canonical(&a.snapshot_json());
    let counter = |key: &str| snapshot.get("counters")?.get(key)?.as_u64();
    assert_eq!((counter("alpha/first"), counter("zeta/last")), (Some(2), Some(1)));
    let text = a.snapshot_text();
    let alpha = text.find("alpha").expect("alpha present");
    let zeta = text.find("zeta").expect("zeta present");
    assert!(alpha < zeta, "subsystems not sorted:\n{text}");
}

#[test]
fn histogram_bucket_edges_are_fixed() {
    // The bucket layout is part of the output contract; changing it silently
    // would break downstream dashboards diffing TRACE_metrics.json.
    assert_eq!(
        MS_BUCKETS.edges,
        &[1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 60_000]
    );
}

#[test]
fn counter_totals_match_expected_for_seed_2() {
    // LabConfig::small(2): 30 unlimited sessions + 3 limits x 6 sessions.
    // These totals are structural (they count work items, not stochastic
    // outcomes), so they are exact for any seed with this config.
    let mut config = LabConfig::small(2);
    config.trace = true;
    let mut lab = Lab::new(config);
    lab.session_dataset();
    let metrics = lab.observer().metrics();
    assert_eq!(metrics.counter("session", "started"), 48);
    assert_eq!(metrics.counter("shaper", "limited_sessions"), 18);
    assert_eq!(metrics.counter("service", "access_video"), 48);
    let rtmp = metrics.counter("session", "rtmp");
    let hls = metrics.counter("session", "hls");
    assert_eq!(rtmp + hls, 48, "every session is rtmp or hls");
    // Every session joins or is recorded as never joining.
    let joined = metrics.counter("player", "joined");
    let never = metrics.counter("player", "never_joined");
    assert_eq!(joined + never, 48);
}

#[test]
fn disabled_observer_stays_empty() {
    let mut lab = Lab::new(LabConfig::small(27));
    lab.session_dataset();
    let obs = lab.observer();
    assert!(!obs.tracing());
    assert_eq!(obs.event_count(), 0);
    assert!(obs.metrics().is_empty());
    assert!(obs.phases().is_empty());
}

/// One span-enabled run: dataset fingerprint, a rendered figure, the SLO
/// report JSON and the Chrome trace export — everything the span layer
/// promises to keep byte-identical across thread counts.
fn span_run(threads: usize, seed: u64) -> (Vec<String>, String, String, String) {
    let mut config = LabConfig::small(seed);
    config.trace = true;
    config.threads = threads;
    let mut lab = Lab::new(config);
    let dataset = lab.session_dataset();
    let fingerprint: Vec<String> = dataset
        .sessions
        .iter()
        .map(|s| {
            format!(
                "{:?} {:?} {} {:?}",
                s.broadcast_id,
                s.protocol,
                s.traffic_bps.to_bits(),
                s.join_time_s().map(|j| (j * 1e6) as u64),
            )
        })
        .collect();
    let figure = {
        let exp = experiments::by_id("fig3b").expect("experiment exists");
        (exp.run)(&mut lab).render()
    };
    let spans = lab.observer().spans();
    let slo = periscope_repro::qoe::slo::evaluate(
        &periscope_repro::qoe::SloSpec::paper(),
        &dataset,
        &spans,
        "threads-test",
    )
    .to_json();
    // Wall-clock phases are the one legitimately non-deterministic channel,
    // so the deterministic export contract is spans-only.
    let chrome = chrome_trace(&spans, &[], &[]);
    (fingerprint, figure, slo, chrome)
}

#[test]
fn span_artifacts_identical_across_thread_counts() {
    let one = span_run(1, 2016);
    let two = span_run(2, 2016);
    let eight = span_run(8, 2016);
    assert_eq!(one.0, two.0, "dataset fingerprint diverged at 2 threads");
    assert_eq!(one.0, eight.0, "dataset fingerprint diverged at 8 threads");
    assert_eq!(one.1, two.1, "figure diverged at 2 threads");
    assert_eq!(one.1, eight.1, "figure diverged at 8 threads");
    assert_eq!(one.2, two.2, "SLO_report.json diverged at 2 threads");
    assert_eq!(one.2, eight.2, "SLO_report.json diverged at 8 threads");
    assert_eq!(one.3, two.3, "Chrome trace diverged at 2 threads");
    assert_eq!(one.3, eight.3, "Chrome trace diverged at 8 threads");
    let slo = assert_canonical(&one.2);
    let objectives = slo.get("objectives").and_then(Value::as_array);
    assert!(objectives.is_some_and(|o| !o.is_empty()), "SLO report looks empty: {}", one.2);
    let chrome = assert_canonical(&one.3);
    let events = chrome.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
    let joins =
        events.iter().filter(|e| e.get("name").and_then(Value::as_str) == Some("session.join"));
    assert!(joins.count() > 0, "Chrome trace has no join spans");
}

/// The causal-tree contract (DESIGN.md §7): every joined session's
/// `session.join` root is exactly tiled by its children, and the root's
/// duration IS the recorded join time, in integer microseconds.
#[test]
fn join_span_tree_sums_exactly_to_join_time() {
    let mut config = LabConfig::small(2016);
    config.trace = true;
    let mut lab = Lab::new(config);
    let dataset = lab.session_dataset();
    let spans = lab.observer().spans();
    let mut by_unit: std::collections::BTreeMap<&str, Vec<&periscope_repro::obs::Span>> =
        std::collections::BTreeMap::new();
    for (unit, span) in &spans {
        by_unit.entry(unit.as_str()).or_default().push(span);
    }
    let mut trees = 0;
    let mut pinned = 0;
    for (unit, unit_spans) in &by_unit {
        let Some(root) = unit_spans.iter().find(|s| s.name == "session.join") else {
            continue;
        };
        assert!(root.is_closed(), "open root survived drain for {unit}");
        let child_sum: u64 =
            unit_spans.iter().filter(|s| s.parent == Some(root.id)).map(|s| s.duration_us()).sum();
        assert_eq!(child_sum, root.duration_us(), "children do not tile the join root for {unit}");
        trees += 1;
        // The unlimited block's units are `session/<dataset index>`; pin the
        // root duration to the dataset's recorded join time for each.
        if let Some(idx) = unit.strip_prefix("session/").and_then(|s| s.parse::<usize>().ok()) {
            let join_s =
                dataset.sessions[idx].join_time_s().expect("a session with a join tree joined");
            assert_eq!(
                root.duration_us(),
                (join_s * 1e6).round() as u64,
                "root span duration is not the join time for {unit}"
            );
            pinned += 1;
        }
    }
    assert!(trees >= 40, "expected join trees for most of 48 sessions, got {trees}");
    assert!(pinned >= 25, "expected pinned unlimited-block checks, got {pinned}");
}

#[test]
fn profile_only_records_phases_without_events() {
    let mut config = LabConfig::small(28);
    config.profile = true;
    let mut lab = Lab::new(config);
    lab.session_dataset();
    let obs = lab.observer();
    assert!(!obs.tracing());
    assert_eq!(obs.event_count(), 0, "profiling must not record events");
    let phases = obs.phases();
    let names: Vec<&str> = phases.iter().map(|p| p.name.as_str()).collect();
    assert!(names.contains(&"dataset.plan"), "missing dataset.plan in {names:?}");
    assert!(names.contains(&"dataset.execute"), "missing dataset.execute in {names:?}");
    assert!(names.contains(&"dataset.sweep"), "missing dataset.sweep in {names:?}");
}

// ---- Burn-rate alerting + ground-truth incidents (DESIGN.md §14) ----

use periscope_repro::core::{run_incidents, IncidentConfig};
use periscope_repro::service::select::Protocol;
use periscope_repro::simnet::SimDuration;

/// The tentpole invariant: the full incident artifact — alert timelines,
/// correlated incidents, ground-truth scorecard — is byte-identical at
/// every worker-thread count and every quadtree shard count. The SRT arm
/// at this seed raises a real ingest-outage alert, so the comparison
/// covers non-empty timelines.
#[test]
fn incident_artifacts_identical_across_threads_and_shards() {
    let run = |threads: usize, shards: usize| {
        let mut lab = Lab::new(LabConfig::small(2016));
        let mut cfg = IncidentConfig::small(2016);
        cfg.transports = vec![Some(Protocol::Srt)];
        cfg.threads = threads;
        cfg.shards = shards;
        // The artifact records the configured shard count as provenance;
        // normalize that one member so the comparison covers the payload.
        let report = run_incidents(&mut lab, &cfg);
        let trace = chrome_trace(&report.arms[1].spans, &[], &report.arms[1].timeline.transitions);
        assert_canonical(&trace);
        let json = report.to_json();
        assert_canonical(&json);
        json.replace(&format!("\"shards\":{shards},"), "\"shards\":\"N\",")
    };
    let baseline = run(1, 1);
    let timelines = assert_canonical(&baseline).get("timelines").cloned().expect("timelines");
    let srt = timelines.get("SRT").and_then(Value::as_array).expect("the SRT arm's timeline");
    assert!(
        srt.iter().any(|t| t.get("state").and_then(Value::as_str) == Some("firing")),
        "pinned config must alert:\n{baseline}"
    );
    for (threads, shards) in [(2, 1), (8, 1), (2, 4), (8, 16)] {
        assert_eq!(
            run(threads, shards),
            baseline,
            "INCIDENTS.json differs at {threads} threads, {shards} shards"
        );
    }
}

/// Inertness: with no faults injected, no rule may ever transition — the
/// symptom rings are never written (pure function of the fault config),
/// while the QoE rings carry real data the evaluator judged healthy.
#[test]
fn alerts_are_inert_without_faults() {
    let mut lab = Lab::new(LabConfig::small(2016));
    let mut cfg = IncidentConfig::small(2016);
    cfg.transports = Vec::new(); // control arm only
    let report = run_incidents(&mut lab, &cfg);
    assert!(report.control_clean());
    assert!(report.incidents.is_empty(), "incidents on a fault-free run: {:?}", report.incidents);
    assert!(report.scorecard.is_empty());
    let control = &report.arms[0];
    assert!(control.timeline.is_empty(), "transitions: {:?}", control.timeline.transitions);
    for metric in ["ingest", "fastly-eu.periscope.tv", "fastly-sf.periscope.tv"] {
        assert!(
            control.metrics.ring("outage", metric).is_none(),
            "outage/{metric} ring written without faults"
        );
    }
    assert!(control.metrics.ring("alert", "join_time_us").is_some(), "QoE rings must be live");
}

/// One pinned four-hour world: every POP-outage window a session probed
/// is detected (recall 1.0, zero false alarms) and the detection latency
/// is *exact* — one minute when the first probe lands in the fault's
/// first minute-slot, two when the fault is only caught a slot late.
#[test]
fn pinned_outage_windows_detect_with_exact_latency() {
    let mut lab_cfg = LabConfig::small(1);
    lab_cfg.population.window = SimDuration::from_secs(4 * 3600);
    lab_cfg.population.arrivals_per_sec = 0.7;
    let mut lab = Lab::new(lab_cfg);
    let mut cfg = IncidentConfig::small(1);
    cfg.transports = vec![Some(Protocol::Hls)];
    cfg.sessions = 120;
    let report = run_incidents(&mut lab, &cfg);
    assert!(report.control_clean(), "control arm fired");
    assert!(report.detection_perfect(), "scorecard: {:?}", report.scorecard);
    assert!(report.scorecard.iter().all(|r| r.false_alarms == 0 && r.precision == 1.0));
    let row = |rule: &str| {
        report.scorecard.iter().find(|r| r.rule == rule).expect("scorecard row exists")
    };
    let eu = row("pop_outage/fastly-eu.periscope.tv");
    assert_eq!((eu.truth_windows, eu.observed, eu.detected), (2, 2, 2));
    assert_eq!(eu.median_detection_latency_s, 60.0, "probe in the fault's first minute");
    let sf = row("pop_outage/fastly-sf.periscope.tv");
    assert_eq!((sf.truth_windows, sf.observed, sf.detected), (3, 1, 1));
    assert_eq!(sf.median_detection_latency_s, 120.0, "this outage was only probed a slot late");
}
