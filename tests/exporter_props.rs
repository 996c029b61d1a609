//! Property tests for the interchange exporters (DESIGN.md §7): arbitrary
//! span fields, unit labels and metric keys must round-trip through the
//! Chrome trace-event encoder, the metrics snapshot and the event log as
//! valid JSON in canonical form, and through the Prometheus text encoder
//! with every label value properly escaped.

use periscope_repro::obs::{chrome_trace, prometheus_text, MetricsRegistry, Span};
use periscope_repro::obs::{prometheus_alert_state, prometheus_build_info, PhaseSpan, MS_BUCKETS};
use periscope_repro::obs::{Field, Observer};
use periscope_repro::proto::json::{parse, Value};
use pscp_check::{check, ensure, Gen};

/// Label/name characters chosen to stress the escapers: JSON structure
/// characters, both escape triggers (`"`, `\`), control characters, and
/// multi-byte UTF-8.
const NASTY_CHARS: &[char] = &[
    'a', 'z', 'A', '0', '9', ' ', '_', '-', '.', '/', '"', '\\', '\n', '\t', '\r', '\u{1}', '{',
    '}', '=', ',', '#', '\u{00e9}', '\u{4e2d}',
];

/// Leaks a generated string into a `&'static str` — span subsystem/name and
/// metric keys are `&'static` in the real code because they are literals;
/// the tests leak per-case strings to drive arbitrary bytes through the
/// same paths (a few KiB over a test run).
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

fn arb_span(g: &mut Gen, id: u32) -> Span {
    // Past 2^53, where a double no longer holds every integer.
    let start_us = g.u64(0..1 << 62);
    let end_us = if g.bool() { Span::OPEN } else { start_us + g.u64(0..10_000_000) };
    Span {
        id,
        parent: if id > 0 && g.bool() { Some(g.u64(0..id as u64) as u32) } else { None },
        start_us,
        end_us,
        subsystem: leak(g.string(NASTY_CHARS, 1..=12)),
        name: leak(g.string(NASTY_CHARS, 1..=16)),
    }
}

fn arb_spans(g: &mut Gen) -> Vec<(String, Span)> {
    let n = g.u64(0..12) as u32;
    (0..n).map(|id| (g.string(NASTY_CHARS, 0..=16), arb_span(g, id))).collect()
}

fn arb_phases(g: &mut Gen) -> Vec<PhaseSpan> {
    g.vec(0..4, |g| PhaseSpan {
        name: g.string(NASTY_CHARS, 0..=16),
        wall_secs: g.f64(0.0..1e4),
        workers: g.u64(1..64) as usize,
        items: g.u64(0..100_000) as usize,
        busy_secs: g.f64(0.0..1e5),
    })
}

#[test]
fn chrome_trace_is_valid_json_and_round_trips_span_fields() {
    check(
        "chrome_trace_round_trip",
        |g: &mut Gen| (arb_spans(g), arb_phases(g)),
        |(spans, phases)| {
            let doc = chrome_trace(spans, phases, &[]);
            let v = parse(&doc).map_err(|e| format!("exporter emitted invalid JSON: {e:?}"))?;
            ensure!(v.to_json() + "\n" == doc, "not in canonical form: {doc}");
            let events = v
                .get("traceEvents")
                .and_then(Value::as_array)
                .ok_or("missing traceEvents array")?;
            // Span events on pid 1 must round-trip name/cat/ts/dur exactly,
            // in input order.
            let xs: Vec<&Value> = events
                .iter()
                .filter(|e| {
                    e.get("ph").and_then(Value::as_str) == Some("X")
                        && e.get("pid").and_then(Value::as_u64) == Some(1)
                })
                .collect();
            ensure!(xs.len() == spans.len(), "{} spans became {} events", spans.len(), xs.len());
            for (ev, (_, span)) in xs.iter().zip(spans) {
                ensure!(ev.get("name").and_then(Value::as_str) == Some(span.name), "name mangled");
                ensure!(
                    ev.get("cat").and_then(Value::as_str) == Some(span.subsystem),
                    "subsystem mangled"
                );
                ensure!(
                    ev.get("ts").and_then(Value::as_u64) == Some(span.start_us),
                    "ts mangled for {span:?}"
                );
                ensure!(
                    ev.get("dur").and_then(Value::as_u64) == Some(span.duration_us()),
                    "dur mangled for {span:?}"
                );
            }
            // Unit labels must round-trip through the thread_name metadata,
            // in first-appearance order.
            let mut expected_units: Vec<&str> = Vec::new();
            for (unit, _) in spans {
                if !expected_units.contains(&unit.as_str()) {
                    expected_units.push(unit);
                }
            }
            let threads: Vec<&str> = events
                .iter()
                .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
                .filter_map(|e| e.get("args")?.get("name")?.as_str())
                .collect();
            ensure!(threads == expected_units, "unit labels mangled: {threads:?}");
            Ok(())
        },
    );
}

/// `NASTY_CHARS` without `/`: a subsystem joined to a name as `sub/name`
/// then names one metric only.
fn subsystem(g: &mut Gen) -> &'static str {
    let chars: Vec<char> = NASTY_CHARS.iter().copied().filter(|&c| c != '/').collect();
    leak(g.string(&chars, 1..=10))
}

#[test]
fn metrics_snapshot_round_trips_arbitrary_keys() {
    check(
        "metrics_snapshot_keys",
        |g: &mut Gen| {
            let mut m = MetricsRegistry::new();
            for _ in 0..g.u64(0..6) {
                let (sub, name) = (subsystem(g), leak(g.string(NASTY_CHARS, 1..=10)));
                match g.u64(0..4) {
                    0 => m.count(sub, name, g.u64(0..1_000_000)),
                    1 => m.observe(sub, name, &MS_BUCKETS, g.u64(0..100_000)),
                    2 => m.sketch_observe(sub, name, g.u64(0..1 << 40)),
                    _ => m.ring_observe(sub, name, g.u64(0..1 << 40), g.u64(0..1_000_000)),
                }
            }
            m
        },
        |m| {
            let doc = m.snapshot_json();
            let v = parse(&doc).map_err(|e| format!("invalid JSON {e:?}: {doc}"))?;
            ensure!(v.to_json() == doc, "not in canonical form: {doc}");
            let keys = |section: &str| -> Vec<String> {
                match v.get(section) {
                    Some(Value::Object(members)) => members.keys().cloned().collect(),
                    _ => Vec::new(),
                }
            };
            let joined = |items: Vec<(&str, &str)>| -> Vec<String> {
                let mut keys: Vec<String> = items.iter().map(|(s, n)| format!("{s}/{n}")).collect();
                keys.sort();
                keys
            };
            ensure!(keys("counters") == joined(m.counters().map(|(s, n, _)| (s, n)).collect()));
            ensure!(keys("histograms") == joined(m.histograms().map(|(s, n, _)| (s, n)).collect()));
            ensure!(keys("sketches") == joined(m.sketches().map(|(s, n, _)| (s, n)).collect()));
            ensure!(keys("rings") == joined(m.rings().map(|(s, n, _)| (s, n)).collect()));
            Ok(())
        },
    );
}

#[test]
fn event_log_round_trips_arbitrary_strings() {
    check(
        "event_log_strings",
        |g: &mut Gen| {
            g.vec(0..6, |g| {
                let mut fields: Vec<(&'static str, Field)> = Vec::new();
                for _ in 0..g.u64(0..4) {
                    let key = leak(g.string(NASTY_CHARS, 1..=8));
                    let field = match g.u64(0..4) {
                        0 => Field::U(g.u64(0..u64::MAX)),
                        1 => Field::I(g.u64(0..u64::MAX) as i64),
                        2 => Field::F(g.f64(-1e12..1e12)),
                        _ => Field::S(g.string(NASTY_CHARS, 0..=8)),
                    };
                    if fields.iter().all(|(k, _)| *k != key) {
                        fields.push((key, field));
                    }
                }
                let (unit, t_us) = (g.string(NASTY_CHARS, 0..=12), g.u64(0..u64::MAX));
                (unit, t_us, subsystem(g), leak(g.string(NASTY_CHARS, 1..=12)), fields)
            })
        },
        |events| {
            let obs = Observer::new(true);
            for (unit, t_us, sub, name, fields) in events {
                let mut trace = obs.trace();
                trace.event(*t_us, sub, name, fields.clone());
                obs.absorb(unit, trace);
            }
            let log = obs.events_jsonl();
            ensure!(log.lines().count() == events.len(), "one line per event: {log}");
            for (line, (unit, t_us, sub, name, fields)) in log.lines().zip(events) {
                let v = parse(line).map_err(|e| format!("invalid JSON {e:?}: {line}"))?;
                ensure!(v.to_json() == line, "not in canonical form: {line}");
                let text = |key: &str| v.get(key).and_then(Value::as_str);
                ensure!(text("unit") == Some(unit.as_str()), "unit mangled: {line}");
                ensure!(text("sub") == Some(*sub), "subsystem mangled: {line}");
                ensure!(text("ev") == Some(*name), "name mangled: {line}");
                ensure!(v.get("t_us").and_then(Value::as_u64) == Some(*t_us), "t_us: {line}");
                for (key, field) in fields {
                    let got = v.get("fields").and_then(|f| f.get(key)).ok_or("field lost")?;
                    ensure!(field_value(field) == *got, "field mangled: {line}");
                }
            }
            Ok(())
        },
    );
}

/// What a field reads back as: integers exactly, floats to the bit.
fn field_value(field: &Field) -> Value {
    match field {
        Field::U(x) => Value::from(*x),
        Field::I(x) => Value::from(*x),
        Field::F(x) if x.fract() == 0.0 && x.abs() < 1e15 => Value::from(*x as i64),
        Field::F(x) => Value::from(*x),
        Field::S(x) => Value::from(x.as_str()),
    }
}

/// A broadcast id spans all 64 bits (`id * 0x9e37_79b9_7f4a_7c15 | 1`);
/// the event log must name the broadcast it was given, not the nearest
/// double.
#[test]
fn event_log_writes_64_bit_ids_exactly() {
    let id = 0x9e37_79b9_7f4a_7c15_u64 | 1;
    assert!(id > 1 << 53 && id as f64 as u64 != id);
    let obs = Observer::new(true);
    let mut trace = obs.trace();
    trace.event(u64::MAX, "session", "session.start", vec![("broadcast", Field::U(id))]);
    obs.absorb("session/0", trace);
    let log = obs.events_jsonl();
    let line = log.lines().next().expect("one event");
    assert!(line.contains(&format!("\"broadcast\":{id}")), "{line}");
    let v = parse(line).unwrap();
    assert_eq!(v.to_json(), line);
    let broadcast = v.get("fields").and_then(|f| f.get("broadcast"));
    assert_eq!(broadcast.and_then(Value::as_u64), Some(id));
    assert_eq!(v.get("t_us").and_then(Value::as_u64), Some(u64::MAX));
}

type PromLine = (String, Vec<(String, String)>, f64);

/// Splits one Prometheus metric line into (metric name, label pairs, value),
/// un-escaping label values — fails if quoting/escaping is malformed.
fn parse_prom_line(line: &str) -> Result<PromLine, String> {
    let (name, rest) = match line.find('{') {
        Some(b) => {
            let name = &line[..b];
            let rest = &line[b + 1..];
            let mut labels = Vec::new();
            let mut chars = rest.chars().peekable();
            loop {
                let mut key = String::new();
                for c in chars.by_ref() {
                    if c == '=' {
                        break;
                    }
                    key.push(c);
                }
                if chars.next() != Some('"') {
                    return Err(format!("label value not quoted in {line:?}"));
                }
                let mut value = String::new();
                loop {
                    match chars.next() {
                        Some('\\') => match chars.next() {
                            Some('\\') => value.push('\\'),
                            Some('"') => value.push('"'),
                            Some('n') => value.push('\n'),
                            other => return Err(format!("bad escape {other:?} in {line:?}")),
                        },
                        Some('"') => break,
                        Some(c) => value.push(c),
                        None => return Err(format!("unterminated label value in {line:?}")),
                    }
                }
                labels.push((key, value));
                match chars.next() {
                    Some(',') => continue,
                    Some('}') => break,
                    other => return Err(format!("bad label separator {other:?} in {line:?}")),
                }
            }
            let tail: String = chars.collect();
            (name.to_string(), (labels, tail))
        }
        None => {
            let (name, tail) = line.split_once(' ').ok_or(format!("no value in {line:?}"))?;
            (name.to_string(), (Vec::new(), format!(" {tail}")))
        }
    };
    let (labels, tail) = rest;
    let value: f64 = tail.trim().parse().map_err(|_| format!("bad value in {line:?}"))?;
    Ok((name, labels, value))
}

#[test]
fn prometheus_text_escapes_arbitrary_label_values() {
    check(
        "prometheus_label_escaping",
        |g: &mut Gen| {
            let mut m = MetricsRegistry::new();
            for _ in 0..g.u64(1..8) {
                m.count(
                    leak(g.string(NASTY_CHARS, 1..=10)),
                    leak(g.string(NASTY_CHARS, 1..=10)),
                    g.u64(0..1_000_000),
                );
            }
            for _ in 0..g.u64(0..4) {
                m.observe(
                    leak(g.string(NASTY_CHARS, 1..=10)),
                    leak(g.string(NASTY_CHARS, 1..=10)),
                    &MS_BUCKETS,
                    g.u64(0..100_000),
                );
            }
            m
        },
        |m| {
            let text = prometheus_text(m);
            // Every metric line must parse — label values recoverable by
            // un-escaping — and the counter lines must round-trip the
            // registry's exact (subsystem, name) keys in order.
            let mut counter_keys: Vec<(String, String)> = Vec::new();
            for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
                let (metric, labels, _value) = parse_prom_line(line)?;
                ensure!(metric.starts_with("pscp_"), "unexpected metric {metric:?}");
                if metric == "pscp_counter" {
                    ensure!(labels.len() == 2, "counter labels: {labels:?}");
                    ensure!(labels[0].0 == "subsystem" && labels[1].0 == "name", "{labels:?}");
                    counter_keys.push((labels[0].1.clone(), labels[1].1.clone()));
                }
            }
            let expected: Vec<(String, String)> =
                m.counters().map(|(s, n, _)| (s.to_string(), n.to_string())).collect();
            ensure!(counter_keys == expected, "label values mangled: {counter_keys:?}");
            Ok(())
        },
    );
}

#[test]
fn alert_state_gauge_escapes_arbitrary_rule_and_shard_labels() {
    check(
        "alert_state_escaping",
        |g: &mut Gen| {
            g.vec(0..8, |g| (g.string(NASTY_CHARS, 1..=16), g.string(NASTY_CHARS, 1..=8), g.bool()))
        },
        |states| {
            let text = prometheus_alert_state(states);
            ensure!(text.starts_with("# HELP pscp_alert_state "), "missing HELP");
            ensure!(text.contains("# TYPE pscp_alert_state gauge\n"), "missing TYPE");
            let mut seen: Vec<(String, String, bool)> = Vec::new();
            for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
                let (metric, labels, value) = parse_prom_line(line)?;
                ensure!(metric == "pscp_alert_state", "unexpected metric {metric:?}");
                ensure!(labels.len() == 2, "alert labels: {labels:?}");
                ensure!(labels[0].0 == "rule" && labels[1].0 == "shard", "{labels:?}");
                ensure!(value == 0.0 || value == 1.0, "gauge value {value} not 0/1");
                seen.push((labels[0].1.clone(), labels[1].1.clone(), value == 1.0));
            }
            // Rule and shard labels must round-trip exactly, in input order.
            ensure!(&seen == states, "alert-state labels mangled: {seen:?}");
            Ok(())
        },
    );
}

#[test]
fn build_info_gauge_escapes_arbitrary_tier_labels() {
    check(
        "build_info_escaping",
        |g: &mut Gen| {
            (g.u64(0..u64::MAX), g.string(NASTY_CHARS, 0..=16), g.u64(0..64), g.u64(0..128))
        },
        |(seed, tier, shards, threads)| {
            let text = prometheus_build_info(*seed, tier, *shards as u32, *threads as usize);
            ensure!(text.starts_with("# HELP pscp_build_info "), "missing HELP");
            ensure!(text.contains("# TYPE pscp_build_info gauge\n"), "missing TYPE");
            let line = text
                .lines()
                .find(|l| !l.is_empty() && !l.starts_with('#'))
                .ok_or("no metric line")?;
            let (metric, labels, value) = parse_prom_line(line)?;
            ensure!(metric == "pscp_build_info", "unexpected metric {metric:?}");
            ensure!(value == 1.0, "build info gauge must be constant 1, got {value}");
            let keys: Vec<&str> = labels.iter().map(|(k, _)| k.as_str()).collect();
            ensure!(keys == ["seed", "tier", "shards", "threads"], "label keys: {keys:?}");
            ensure!(labels[0].1 == seed.to_string(), "seed mangled");
            ensure!(&labels[1].1 == tier, "tier label mangled: {:?}", labels[1].1);
            ensure!(labels[2].1 == shards.to_string(), "shards mangled");
            ensure!(labels[3].1 == threads.to_string(), "threads mangled");
            Ok(())
        },
    );
}
