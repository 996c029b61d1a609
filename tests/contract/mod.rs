//! The determinism contract (DESIGN.md §6), stated in one place: any
//! worker-thread count (`PSCP_THREADS` included), any shard count, tracing
//! on or off, and faults off are inert.
//!
//! A suite that checks part of the contract runs an artifact-producing
//! path once per row of [`ROWS`] it reads, into a [`Table`], and checks
//! each artifact's digest against the first row that wrote it. The base
//! row is threads 1, tracing off, faults off and one shard; every other
//! row changes one setting of it, or repeats a row that did at threads 8.
//! A path runs on the rows whose settings it reads: a dataset has no shard
//! count, a chaos sweep sets its own faults, and a traced artifact exists
//! only on the traced rows, which compare it among themselves. Two
//! conservation laws hold on every row that runs sessions.
//!
//! The `auto` row reads `PSCP_THREADS`, so CI's thread matrix runs these
//! suites once per pinned worker count.

// Each suite uses the paths it checks.
#![allow(dead_code)]

use std::collections::BTreeMap;

use periscope_repro::client::session::{SessionConfig, SessionOutcome};
use periscope_repro::client::{Teleport, TeleportConfig};
use periscope_repro::core::chaos::{run_chaos, ChaosConfig};
use periscope_repro::core::shard::{run_scale, ScaleConfig};
use periscope_repro::core::{experiments, run_incidents, IncidentConfig, Lab, LabConfig};
use periscope_repro::obs::{chrome_trace, MetricsRegistry, Observer};
use periscope_repro::proto::json::{parse, Value, Writer};
use periscope_repro::qoe::telemetry::QoeTelemetry;
use periscope_repro::qoe::{slo, SloSpec};
use periscope_repro::service::select::Protocol;
use periscope_repro::service::{PeriscopeService, ServiceConfig};
use periscope_repro::simnet::fault::FaultConfig;
use periscope_repro::simnet::RngFactory;
use periscope_repro::workload::population::{Population, PopulationConfig};

pub const SEED: u64 = 2016;

/// The fault setting of a row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Faults {
    /// `FaultConfig::default()`.
    Off,
    /// Disabled, under another fault seed: must change nothing.
    Reseeded,
    /// The chaos preset at ×1.
    Chaos,
}

impl Faults {
    pub fn config(self) -> FaultConfig {
        match self {
            Faults::Off => FaultConfig::default(),
            Faults::Reseeded => FaultConfig { seed: 0xDEAD_BEEF, ..FaultConfig::default() },
            Faults::Chaos => FaultConfig::chaos(77, 1.0),
        }
    }
}

/// One row of the contract table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// Worker threads; `0` = auto, i.e. `PSCP_THREADS`.
    pub threads: usize,
    pub trace: bool,
    pub faults: Faults,
    pub shards: usize,
}

pub const BASE: Row = Row { threads: 1, trace: false, faults: Faults::Off, shards: 1 };

pub const ROWS: [Row; 12] = [
    BASE,
    Row { threads: 8, ..BASE },
    Row { threads: 0, ..BASE },
    Row { trace: true, ..BASE },
    Row { trace: true, threads: 8, ..BASE },
    Row { faults: Faults::Reseeded, ..BASE },
    Row { faults: Faults::Chaos, ..BASE },
    Row { faults: Faults::Chaos, threads: 8, ..BASE },
    Row { shards: 4, ..BASE },
    Row { shards: 16, ..BASE },
    Row { shards: 4, threads: 8, ..BASE },
    Row { shards: 16, threads: 8, ..BASE },
];

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The artifacts (name → text) one path wrote on each row it ran on.
pub struct Table(Vec<(Row, BTreeMap<String, String>)>);

impl Table {
    /// Runs `artifacts` on every row `reads` admits.
    pub fn run(
        reads: impl Fn(&Row) -> bool,
        artifacts: impl Fn(&Row) -> Vec<(String, String)>,
    ) -> Table {
        Table(
            ROWS.iter()
                .filter(|r| reads(r))
                .map(|r| (*r, artifacts(r).into_iter().collect()))
                .collect(),
        )
    }

    /// Checks each of `names`, on the rows `rows` admits, against the first
    /// of them that wrote it. Two rows at least must write each, or
    /// nothing checked it.
    pub fn assert_inert(&self, rows: impl Fn(&Row) -> bool, names: &[&str]) {
        for name in names {
            let written: Vec<(&Row, &String)> = self
                .0
                .iter()
                .filter(|(row, _)| rows(row))
                .filter_map(|(row, out)| out.get(*name).map(|text| (row, text)))
                .collect();
            assert!(written.len() > 1, "{name} was written on {} row(s)", written.len());
            let (first, digest) = (written[0].0, fnv1a64(written[0].1.as_bytes()));
            for (row, text) in &written[1..] {
                assert_eq!(
                    fnv1a64(text.as_bytes()),
                    digest,
                    "{name} at {row:?} differs from {first:?}"
                );
            }
        }
    }

    /// Every row's text of artifact `name`.
    pub fn each<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'a Row, &'a str)> + 'a {
        self.0.iter().filter_map(move |(row, out)| out.get(name).map(|text| (row, text.as_str())))
    }
}

/// The one per-session fingerprint: every field of the outcome but the
/// capture, floats by bit pattern, the analysed `stream` report included.
pub fn fingerprint(o: &SessionOutcome) -> String {
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    let meta = o.meta();
    format!(
        "{:?}",
        (
            (o.broadcast_id, o.protocol, o.device, bits(o.bandwidth_limit_bps)),
            (o.player.join_time, &o.player.stalls, o.player.played_s.to_bits()),
            (o.player.latency_sum_s.to_bits(), o.player.latency_n, o.player.session_s.to_bits()),
            (meta.n_stalls, bits(meta.avg_stall_time_s), bits(meta.playback_latency_s)),
            (o.viewers_at_join, o.rendered_fps.to_bits(), &o.server, o.traffic_bps.to_bits()),
            &o.stream,
        )
    )
}

pub fn fingerprints(outcomes: &[SessionOutcome]) -> String {
    outcomes.iter().map(fingerprint).collect::<Vec<_>>().join("\n")
}

/// Conservation of session time: on a fault-free run, every session's
/// join wait, played media and stall time add up to its length (a session
/// that never joined waited all of it).
pub fn assert_time_is_conserved(outcomes: &[SessionOutcome]) {
    for (i, o) in outcomes.iter().enumerate() {
        let p = &o.player;
        let join = o.join_time_s().unwrap_or(p.session_s);
        let error = (join + p.played_s + p.total_stall_s() - p.session_s).abs();
        assert!(error < 1e-6, "session {i}: join {join} + played + stalls misses by {error} s");
    }
}

/// Conservation of sessions: the traced QoE sketches fold every session
/// run exactly once, joined or not.
pub fn assert_every_session_is_folded(metrics: &MetricsRegistry, sessions: usize) {
    for name in ["join_time_us", "stall_ppm"] {
        let folded = metrics.sketch("player", name).map_or(0, |s| s.count());
        assert_eq!(folded, sessions as u64, "player/{name} folded {folded} of {sessions} sessions");
    }
}

/// `text` (one JSON document, or one line of a JSONL file) is in the
/// canonical form: parsing it and writing the tree back gives the same
/// bytes, so its keys ascend, every string is escaped one way and every
/// number has one format. Returns the tree.
pub fn assert_canonical(text: &str) -> Value {
    let v = parse(text).unwrap_or_else(|e| panic!("{e:?}: {text}"));
    assert_eq!(v.to_json(), text.strip_suffix('\n').unwrap_or(text), "not canonical");
    v
}

/// The telemetry snapshot a `SCALE_report.json` tier embeds as `qoe`.
pub fn qoe(t: &QoeTelemetry) -> String {
    let mut out = String::new();
    t.write_json(&mut Writer::new(&mut out));
    out
}

pub fn lab(row: &Row) -> Lab {
    Lab::new(LabConfig { threads: row.threads, trace: row.trace, ..LabConfig::small(SEED) })
}

/// The Lab's artifacts: the QoE `dataset`, the `SLO report`, the `merged
/// sketches`, a `deep crawl`, the `figures` (by experiment id), and on
/// traced rows the event log, the metrics snapshot, the span-fed SLO
/// report and the Chrome export.
pub fn lab_artifacts(row: &Row, figures: &[&str]) -> Vec<(String, String)> {
    let mut lab = lab(row);
    let dataset = lab.session_dataset();
    assert_eq!(dataset.len(), 30 + 3 * 6);
    assert_time_is_conserved(&dataset.sessions);
    if row.trace {
        assert_every_session_is_folded(&lab.observer().metrics(), dataset.len());
    }
    let spec = SloSpec::paper();
    let slo_report = slo::evaluate(&spec, &dataset, &[], "contract").to_json();
    assert_canonical(&slo_report);
    let sketches = qoe(&QoeTelemetry::from_dataset(&dataset));
    assert_canonical(&sketches);
    let crawl = lab.deep_crawl_at(14.0);
    let steps = (&crawl.steps, crawl.discovered.len(), crawl.rate_limited, crawl.finished_at);
    let mut out = vec![
        ("dataset".to_string(), fingerprints(&dataset.sessions)),
        ("SLO report".to_string(), slo_report),
        ("merged sketches".to_string(), sketches),
        ("deep crawl".to_string(), format!("{steps:?}")),
    ];
    for id in figures {
        let exp = experiments::by_id(id).expect("experiment exists");
        out.push((id.to_string(), (exp.run)(&mut lab).render()));
    }
    if row.trace {
        let obs = lab.observer();
        let events = obs.events_jsonl();
        assert!(events.lines().count() > 100, "tracing produced {} events", events.len());
        let spans = obs.spans();
        let slo_report = slo::evaluate(&spec, &dataset, &spans, "contract").to_json();
        let objectives = assert_canonical(&slo_report).get("objectives").cloned();
        assert!(objectives.and_then(|o| o.as_array().map(|a| !a.is_empty())) == Some(true));
        // Wall-clock phases are the one legitimately non-deterministic
        // channel, so the deterministic export is spans only.
        let chrome = chrome_trace(&spans, &[], &[]);
        let joins = assert_canonical(&chrome)
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents")
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("session.join"))
            .count();
        assert!(joins > 0, "Chrome trace has no join spans");
        out.push(("TRACE_events.jsonl".to_string(), events));
        out.push(("TRACE_metrics".to_string(), obs.metrics().snapshot_text()));
        out.push(("SLO_report.json".to_string(), slo_report));
        out.push(("TRACE_chrome.json".to_string(), chrome));
    }
    out
}

/// A traced Teleport dataset over `lab`'s service under the row's faults,
/// and its metrics: the `fault-free dataset` on a disabled row, the
/// `faulted dataset` on an enabled one.
pub fn teleport_artifacts(lab: &mut Lab, row: &Row) -> Vec<(String, String)> {
    let rngs = *lab.rngs();
    let faults = row.faults.config();
    let obs = Observer::with_flags(true, false);
    let tp = Teleport::new(lab.service(), rngs.child("contract"));
    let tcfg = TeleportConfig {
        sessions: 16,
        session: SessionConfig { faults, ..Default::default() },
        analyze_per_protocol: usize::MAX,
        threads: row.threads,
    };
    let outcomes = tp.run_dataset_observed(&tcfg, &obs);
    let metrics = obs.metrics();
    assert_every_session_is_folded(&metrics, outcomes.len());
    let subs = metrics.subsystems();
    assert_eq!(subs.contains(&"fault"), faults.is_active(), "{subs:?}");
    let name = if faults.is_active() {
        "faulted dataset"
    } else {
        assert!(!subs.contains(&"recovery"), "{subs:?}");
        assert_time_is_conserved(&outcomes);
        "fault-free dataset"
    };
    vec![
        (name.to_string(), fingerprints(&outcomes)),
        (format!("{name} metrics"), metrics.snapshot_text()),
    ]
}

/// The three-way chaos sweep, which sets its own faults.
pub fn chaos_artifacts(lab: &mut Lab, row: &Row) -> Vec<(String, String)> {
    let cfg = ChaosConfig {
        seed: SEED,
        sessions: 8,
        loss_scales: vec![0.0, 2.0],
        transports: vec![Some(Protocol::Rtmp), Some(Protocol::Hls), Some(Protocol::Srt)],
        threads: row.threads,
    };
    vec![("CHAOS_sweep.json".to_string(), run_chaos(lab, &cfg).sweep_json())]
}

/// The incident study of the SRT arm, which records its shard count. At
/// this seed the arm raises a real ingest-outage alert, so the comparison
/// covers non-empty timelines.
pub fn incident_artifacts(row: &Row) -> Vec<(String, String)> {
    let cfg = IncidentConfig {
        transports: vec![Some(Protocol::Srt)],
        threads: row.threads,
        shards: row.shards,
        ..IncidentConfig::small(SEED)
    };
    let report = run_incidents(&mut lab(row), &cfg);
    let json = report.to_json();
    let tree = assert_canonical(&json);
    let srt = tree.get("timelines").and_then(|t| t.get("SRT")).and_then(Value::as_array);
    let firing = |t: &Value| t.get("state").and_then(Value::as_str) == Some("firing");
    assert!(srt.expect("the SRT arm's timeline").iter().any(firing), "no alert:\n{json}");
    let arm = &report.arms[1];
    let trace = chrome_trace(&arm.spans, &[], &arm.timeline.transitions);
    assert_canonical(&trace);
    // The artifact records the configured shard count as provenance.
    let shards = format!("\"shards\":{},", row.shards);
    vec![
        ("INCIDENTS.json".to_string(), json.replacen(&shards, "", 1)),
        ("INCIDENTS_trace.json".to_string(), trace),
    ]
}

/// The small world the scale-engine rows run on.
pub fn small_world() -> PeriscopeService {
    let pop =
        Population::generate(PopulationConfig::small(), &RngFactory::new(SEED).child("world"));
    PeriscopeService::new(pop, ServiceConfig::default())
}

/// The sharded scale engine's `scale roll-up`: `stats.json()` + the
/// telemetry snapshot, of a run that covers migrations, chat and HLS
/// sessions (the float `Moments` path of the telemetry).
pub fn scale_artifacts(svc: &PeriscopeService, row: &Row) -> Vec<(String, String)> {
    let cfg = ScaleConfig {
        shards: row.shards,
        threads: row.threads,
        target_sessions: 200,
        ..Default::default()
    };
    let run = run_scale(svc, &RngFactory::new(SEED), &cfg);
    assert!(run.stats.migrated_in > 0, "no migrated session ran");
    assert!(run.stats.chat_out > 0 && run.stats.chat_out == run.stats.chat_in);
    assert!(run.telemetry.hls_latency_s.count() > 0, "no HLS session ran");
    assert_canonical(&run.stats.json());
    vec![("scale roll-up".to_string(), format!("{}{}", run.stats.json(), qoe(&run.telemetry)))]
}
