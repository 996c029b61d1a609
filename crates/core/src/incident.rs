//! Incident correlation with ground-truth attribution: the closed loop
//! between the fault layer (DESIGN.md §8) and the burn-rate alerting
//! engine (DESIGN.md §14).
//!
//! The chaos sweep answers "how bad does QoE get"; this module answers
//! "would the pager have gone off, and did it blame the right thing".
//! It runs one fault-free control arm plus one chaos arm per transport —
//! all over the same `"chaos"` Teleport RNG namespace, so every arm runs
//! the *same planned sessions* (common random numbers, DESIGN.md §12) —
//! evaluates the full SLO rule set ([`pscp_qoe::alert_rules`] plus the
//! per-shard-cell [`pscp_qoe::cell_rules`]) into an [`AlertTimeline`] per
//! arm, groups firing intervals into incidents, and then does the thing a
//! real pager can't: it joins detected incidents against the *ground
//! truth* fault timeline, which is a pure function of the fault seed
//! ([`FaultConfig::ground_truth_log`]).
//!
//! The join yields a per-rule detector scorecard: how many outage windows
//! were injected, how many a session actually observed (an outage no
//! viewer probed is undetectable by construction — coverage comes from
//! the `probe/<pop>` rings written on every playlist poll), how many were
//! detected, and the detection latency from fault start to the alert
//! boundary. Symptom rules are only ever written when an injected fault
//! was observed, so on this instrumented system recall over observed
//! windows is 1.0 and the false-alarm count on the fault-free control arm
//! is provably zero — the tests in `tests/observability.rs` pin both.
//!
//! Ingest outages are scored only as incident evidence, not in the
//! per-unit scorecard: ingest hostnames are dynamic strings, so the
//! client aggregates them into one `outage/ingest` ring (see DESIGN.md
//! §14 for the caveat).

use crate::chaos::transport_name;
use crate::lab::Lab;
use pscp_client::session::SessionConfig;
use pscp_client::{Teleport, TeleportConfig};
use pscp_obs::{AlertTimeline, MetricsRegistry, Observer, Span, FAST_WINDOWS, RING_WINDOW_US};
use pscp_proto::json::Writer;
use pscp_qoe::{alert_rules, cell_rules, SloSpec};
use pscp_service::cdn::CdnPop;
use pscp_service::select::Protocol;
use pscp_simnet::fault::FaultConfig;
use pscp_simnet::{GroundTruthWindow, SimTime};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Incident-study settings.
#[derive(Debug, Clone)]
pub struct IncidentConfig {
    /// Fault-schedule seed (independent of the lab's world seed).
    pub seed: u64,
    /// Sessions per arm.
    pub sessions: usize,
    /// Loss multiplier for the chaos arms (the acceptance run uses ×2).
    pub loss_scale: f64,
    /// Chaos arms: `Some(p)` forces every session onto `p`, `None` runs
    /// the viewer-count selection policy. The fault-free control arm is
    /// always run in addition, under the selection policy.
    pub transports: Vec<Option<Protocol>>,
    /// Worker threads per arm (`0` = auto). Results are identical at
    /// every setting.
    pub threads: usize,
    /// Quadtree shards per arm (a power of four, checked by `repro
    /// incidents --shards`). A label only: `INCIDENTS.json` records it,
    /// and no session reads it.
    pub shards: usize,
}

impl IncidentConfig {
    /// The default study: 40 sessions per arm at ×2 loss, one chaos arm
    /// per transport plus the implicit control arm.
    pub fn small(seed: u64) -> IncidentConfig {
        IncidentConfig {
            seed,
            sessions: 40,
            loss_scale: 2.0,
            transports: vec![Some(Protocol::Rtmp), Some(Protocol::Hls), Some(Protocol::Srt)],
            threads: 0,
            shards: 1,
        }
    }
}

/// One evaluated arm: its alert timeline plus the merged registry and
/// span forest it was derived from (kept for scoring and trace export).
#[derive(Debug, Clone)]
pub struct ArmOutcome {
    /// Arm name: `"control"` or a transport name.
    pub name: String,
    /// Whether the chaos fault schedule was active.
    pub faulted: bool,
    /// The arm's deterministic alert timeline.
    pub timeline: AlertTimeline,
    /// The arm's merged metrics registry (rings drive the scorecard).
    pub metrics: MetricsRegistry,
    /// The arm's span forest (drives chrome-trace export).
    pub spans: Vec<(String, Span)>,
}

/// A correlated incident: overlapping or near-adjacent firing intervals
/// of one arm, grouped when they start within one fast window of the
/// group's end.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Arm the incident occurred in.
    pub arm: String,
    /// Earliest firing boundary of the group (sim-µs).
    pub start_us: u64,
    /// Latest resolved boundary of the group (sim-µs).
    pub end_us: u64,
    /// Contributing rule names, sorted.
    pub rules: Vec<String>,
    /// Affected REF_DEPTH quadkeys (from `…/cell=XX` rules), sorted.
    pub cells: Vec<String>,
    /// Dominant join phase of the first firing transition in the group
    /// that had one (`"none"` otherwise).
    pub attribution: String,
}

/// Per-(arm, rule) detector scorecard row for a POP-outage rule.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleScore {
    /// Arm the row was scored on.
    pub arm: String,
    /// Rule name (`pop_outage/<hostname>`).
    pub rule: String,
    /// Ground-truth outage windows injected inside the horizon.
    pub truth_windows: usize,
    /// Truth windows with at least one probed minute (coverage).
    pub observed: usize,
    /// Observed windows matched by a firing interval.
    pub detected: usize,
    /// `detected / observed` (1.0 when nothing was observable).
    pub recall: f64,
    /// Firing intervals matching no truth window.
    pub false_alarms: usize,
    /// Matched intervals over all intervals (1.0 when none fired).
    pub precision: f64,
    /// Median fault-start → alert-boundary latency in seconds over
    /// detected windows (−1 when none were detected).
    pub median_detection_latency_s: f64,
}

/// The full incident study: per-arm timelines, correlated incidents and
/// the ground-truth scorecard.
#[derive(Debug, Clone)]
pub struct IncidentReport {
    /// Fault seed the study ran with.
    pub seed: u64,
    /// Loss multiplier of the chaos arms.
    pub loss_scale: f64,
    /// Sessions per arm.
    pub sessions: usize,
    /// Shards per arm.
    pub shards: usize,
    /// Ground-truth horizon (the population window), sim-µs.
    pub horizon_us: u64,
    /// Arms in run order: control first, then one per transport.
    pub arms: Vec<ArmOutcome>,
    /// Correlated incidents across all arms, in (arm order, start) order.
    pub incidents: Vec<Incident>,
    /// POP-outage scorecard rows, chaos arms only, in (arm, rule) order.
    pub scorecard: Vec<RuleScore>,
}

/// Runs the incident study against a lab's service.
pub fn run_incidents(lab: &mut Lab, cfg: &IncidentConfig) -> IncidentReport {
    let rngs = *lab.rngs();
    let svc = lab.service();
    let horizon_us = svc.population.config.window.as_micros();
    let spec = SloSpec::paper();
    let mut rules = alert_rules(&spec);
    rules.extend(cell_rules(&spec));
    let chaos = FaultConfig::chaos(cfg.seed, cfg.loss_scale);
    let pops: Vec<&'static str> = CdnPop::ALL.iter().map(|p| p.hostname()).collect();
    let truth = chaos.ground_truth_log(&[], &pops, SimTime::from_micros(horizon_us));

    let mut arms = Vec::with_capacity(cfg.transports.len() + 1);
    let run_arm = |name: String, faulted: bool, transport: Option<Protocol>| -> ArmOutcome {
        let obs = Observer::with_flags(true, false);
        let tp = Teleport::new(svc, rngs.child("chaos"));
        let tcfg = TeleportConfig {
            sessions: cfg.sessions,
            session: SessionConfig {
                faults: if faulted { chaos } else { FaultConfig::default() },
                transport,
                ..Default::default()
            },
            ..Default::default()
        };
        // The arm's record is what `obs` absorbs; the outcomes fold to nothing.
        tp.execute(&tp.plan(&tcfg), cfg.threads, &obs, |_, _| {});
        let metrics = obs.metrics();
        let spans = obs.spans();
        let timeline = AlertTimeline::evaluate(&rules, &metrics, &spans);
        ArmOutcome { name, faulted, timeline, metrics, spans }
    };
    arms.push(run_arm("control".to_string(), false, None));
    for &transport in &cfg.transports {
        arms.push(run_arm(transport_name(transport).to_string(), true, transport));
    }

    let mut incidents = Vec::new();
    for arm in &arms {
        incidents.extend(correlate(&arm.name, &arm.timeline));
    }
    let mut scorecard = Vec::new();
    for arm in arms.iter().filter(|a| a.faulted) {
        let intervals = arm.timeline.intervals();
        for &pop in &pops {
            let rule_name = format!("pop_outage/{pop}");
            let my_truth: Vec<&GroundTruthWindow> =
                truth.iter().filter(|w| w.class == "pop_outage" && w.unit == pop).collect();
            let probed: BTreeSet<u64> = arm
                .metrics
                .ring("probe", pop)
                .map(|r| r.windows().map(|(idx, _)| idx).collect())
                .unwrap_or_default();
            scorecard.push(score_rule(&arm.name, &rule_name, &my_truth, &probed, &intervals));
        }
    }

    IncidentReport {
        seed: cfg.seed,
        loss_scale: cfg.loss_scale,
        sessions: cfg.sessions,
        shards: cfg.shards,
        horizon_us,
        arms,
        incidents,
        scorecard,
    }
}

/// Groups one arm's firing intervals into incidents: a new interval joins
/// the open group while it starts within one fast window of the group's
/// furthest end, otherwise it opens a new one.
fn correlate(arm: &str, timeline: &AlertTimeline) -> Vec<Incident> {
    let gap = FAST_WINDOWS * RING_WINDOW_US;
    let mut out: Vec<Incident> = Vec::new();
    for (rule, start, end) in timeline.intervals() {
        match out.last_mut() {
            Some(cur) if start <= cur.end_us.saturating_add(gap) => {
                cur.end_us = cur.end_us.max(end);
                if !cur.rules.contains(&rule) {
                    cur.rules.push(rule);
                }
            }
            _ => out.push(Incident {
                arm: arm.to_string(),
                start_us: start,
                end_us: end,
                rules: vec![rule],
                cells: Vec::new(),
                attribution: String::new(),
            }),
        }
    }
    for inc in &mut out {
        inc.rules.sort();
        inc.cells = inc
            .rules
            .iter()
            .filter_map(|r| r.split_once("cell=").map(|(_, cell)| cell.to_string()))
            .collect::<BTreeSet<String>>()
            .into_iter()
            .collect();
        inc.attribution = timeline
            .transitions
            .iter()
            .filter(|tr| {
                tr.firing
                    && tr.t_us >= inc.start_us
                    && tr.t_us <= inc.end_us
                    && tr.attribution != "none"
            })
            .map(|tr| tr.attribution.clone())
            .next()
            .unwrap_or_else(|| "none".to_string());
    }
    out
}

/// Scores one POP-outage rule against its ground-truth windows.
///
/// A truth window `[s, e)` is *observed* when any of its minutes carries a
/// probe; it is *detected* when a firing interval of the rule overlaps
/// `[s, e]` (alert boundaries land at minute ends, so an interval opened
/// by the window's last minute starts exactly at `e`). Detection latency
/// runs from the fault start to the matching interval's start and is zero
/// when an earlier window's alert was still firing.
fn score_rule(
    arm: &str,
    rule: &str,
    truth: &[&GroundTruthWindow],
    probed_slots: &BTreeSet<u64>,
    intervals: &[(String, u64, u64)],
) -> RuleScore {
    let mine: Vec<(u64, u64)> =
        intervals.iter().filter(|(r, _, _)| r == rule).map(|&(_, s, e)| (s, e)).collect();
    let overlaps = |iv: (u64, u64), w: &GroundTruthWindow| iv.0 <= w.end_us && iv.1 > w.start_us;
    let mut observed = 0;
    let mut detected = 0;
    let mut latencies_us: Vec<u64> = Vec::new();
    for w in truth {
        let slots = (w.start_us / RING_WINDOW_US)..(w.end_us.div_ceil(RING_WINDOW_US));
        if !slots.clone().any(|s| probed_slots.contains(&s)) {
            continue;
        }
        observed += 1;
        if let Some(first) = mine.iter().filter(|&&iv| overlaps(iv, w)).map(|&(s, _)| s).min() {
            detected += 1;
            latencies_us.push(first.saturating_sub(w.start_us));
        }
    }
    let matched = mine.iter().filter(|&&iv| truth.iter().any(|w| overlaps(iv, w))).count();
    latencies_us.sort_unstable();
    let median_latency_s = if latencies_us.is_empty() {
        -1.0
    } else {
        latencies_us[latencies_us.len() / 2] as f64 / 1e6
    };
    RuleScore {
        arm: arm.to_string(),
        rule: rule.to_string(),
        truth_windows: truth.len(),
        observed,
        detected,
        recall: if observed == 0 { 1.0 } else { detected as f64 / observed as f64 },
        false_alarms: mine.len() - matched,
        precision: if mine.is_empty() { 1.0 } else { matched as f64 / mine.len() as f64 },
        median_detection_latency_s: median_latency_s,
    }
}

impl IncidentReport {
    /// Whether the fault-free control arm never raised any alert.
    pub fn control_clean(&self) -> bool {
        self.arms.iter().filter(|a| !a.faulted).all(|a| a.timeline.is_empty())
    }

    /// Whether every scorecard row has perfect recall and no false alarms.
    pub fn detection_perfect(&self) -> bool {
        self.scorecard.iter().all(|r| r.recall == 1.0 && r.false_alarms == 0)
    }

    /// The `INCIDENTS.json` artifact (trailing newline; schema in
    /// EXPERIMENTS.md): run parameters, arm names, correlated incidents,
    /// the POP-outage scorecard and the full per-arm alert timelines.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let w = &mut Writer::new(&mut out);
        let strings = |w: &mut Writer<'_>, items: &[String]| {
            w.begin_array();
            items.iter().for_each(|s| w.str(s));
            w.end_array();
        };
        w.begin_object();
        w.key("arms").begin_array();
        self.arms.iter().for_each(|a| w.str(&a.name));
        w.end_array();
        w.key("horizon_us").int(self.horizon_us);
        w.key("incidents").begin_array();
        for inc in &self.incidents {
            w.begin_object();
            w.key("arm").str(&inc.arm);
            w.key("attribution").str(&inc.attribution);
            w.key("cells");
            strings(w, &inc.cells);
            w.key("end_us").int(inc.end_us);
            w.key("rules");
            strings(w, &inc.rules);
            w.key("start_us").int(inc.start_us);
            w.end_object();
        }
        w.end_array();
        w.key("loss_scale").number(self.loss_scale);
        w.key("scorecard").begin_array();
        for row in &self.scorecard {
            w.begin_object();
            w.key("arm").str(&row.arm);
            w.key("detected").int(row.detected as u64);
            w.key("false_alarms").int(row.false_alarms as u64);
            w.key("median_detection_latency_s").number(row.median_detection_latency_s);
            w.key("observed").int(row.observed as u64);
            w.key("precision").number(row.precision);
            w.key("recall").number(row.recall);
            w.key("rule").str(&row.rule);
            w.key("truth_windows").int(row.truth_windows as u64);
            w.end_object();
        }
        w.end_array();
        w.key("seed").int(self.seed);
        w.key("sessions").int(self.sessions as u64);
        w.key("shards").int(self.shards as u64);
        // Keyed by arm name, so in name order rather than run order.
        let mut arms: Vec<&ArmOutcome> = self.arms.iter().collect();
        arms.sort_by(|a, b| a.name.cmp(&b.name));
        w.key("timelines").begin_object();
        for arm in arms {
            w.key(&arm.name);
            arm.timeline.write_json(w);
        }
        w.end_object();
        w.end_object();
        out.push('\n');
        out
    }

    /// Human summary: one line per arm plus the scorecard verdict.
    pub fn table(&self) -> String {
        let mut out = String::from("arm        transitions  incidents  firing-at-end\n");
        for arm in &self.arms {
            let incs = self.incidents.iter().filter(|i| i.arm == arm.name).count();
            let _ = writeln!(
                out,
                "{:<10} {:>11} {:>10} {:>14}",
                arm.name,
                arm.timeline.transitions.len(),
                incs,
                arm.timeline.firing_at_end().len(),
            );
        }
        let _ = writeln!(
            out,
            "scorecard: {} rows, control_clean={}, detection_perfect={}",
            self.scorecard.len(),
            self.control_clean(),
            self.detection_perfect(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_obs::AlertTransition;

    fn tr(rule: &str, t_us: u64, firing: bool) -> AlertTransition {
        AlertTransition {
            rule: rule.to_string(),
            t_us,
            firing,
            burn_fast: 0.0,
            burn_slow: 0.0,
            attribution: if firing { "hls.playlist".to_string() } else { "none".to_string() },
        }
    }

    fn w(unit: &str, start_us: u64, end_us: u64) -> GroundTruthWindow {
        GroundTruthWindow { class: "pop_outage", unit: unit.to_string(), start_us, end_us }
    }

    const M: u64 = RING_WINDOW_US;

    #[test]
    fn correlate_merges_within_one_fast_window_and_splits_beyond() {
        let timeline = AlertTimeline {
            transitions: vec![
                tr("a", M, true),
                tr("b", 2 * M, true),
                tr("a", 4 * M, false),
                tr("b", 5 * M, false),
                // 5 minutes past the previous end: joins the same group.
                tr("a", 10 * M, true),
                tr("a", 12 * M, false),
                // 6 minutes past: a new incident.
                tr("c", 18 * M, true),
                tr("c", 20 * M, false),
            ],
        };
        let incs = correlate("HLS", &timeline);
        assert_eq!(incs.len(), 2);
        assert_eq!((incs[0].start_us, incs[0].end_us), (M, 12 * M));
        assert_eq!(incs[0].rules, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(incs[0].attribution, "hls.playlist");
        assert_eq!((incs[1].start_us, incs[1].end_us), (18 * M, 20 * M));
        assert_eq!(incs[1].rules, vec!["c".to_string()]);
        assert!(incs.iter().all(|i| i.arm == "HLS" && i.cells.is_empty()));
    }

    #[test]
    fn correlate_extracts_cell_quadkeys() {
        let timeline = AlertTimeline {
            transitions: vec![
                tr("join_burn/cell=31", M, true),
                tr("join_burn/cell=02", 2 * M, true),
                tr("join_burn/cell=02", 4 * M, false),
                tr("join_burn/cell=31", 4 * M, false),
            ],
        };
        let incs = correlate("SRT", &timeline);
        assert_eq!(incs.len(), 1);
        assert_eq!(incs[0].cells, vec!["02".to_string(), "31".to_string()]);
    }

    #[test]
    fn score_rule_counts_only_probed_windows_and_measures_latency() {
        let host = "fastly-eu.periscope.tv";
        let rule = "pop_outage/fastly-eu.periscope.tv";
        let truth = [w(host, 10 * M, 12 * M), w(host, 40 * M, 41 * M), w(host, 80 * M, 81 * M)];
        let refs: Vec<&GroundTruthWindow> = truth.iter().collect();
        // Window 1 probed at its second minute, window 2 probed, window 3
        // never probed (unobservable).
        let probed: BTreeSet<u64> = [11, 40, 55].into_iter().collect();
        // Detector fired one minute after each probed symptom.
        let intervals = vec![
            (rule.to_string(), 12 * M, 17 * M),
            (rule.to_string(), 41 * M, 46 * M),
            // A stray interval matching nothing: a false alarm.
            (rule.to_string(), 60 * M, 61 * M),
        ];
        let score = score_rule("HLS", rule, &refs, &probed, &intervals);
        assert_eq!((score.truth_windows, score.observed, score.detected), (3, 2, 2));
        assert_eq!(score.recall, 1.0);
        assert_eq!(score.false_alarms, 1);
        assert!((score.precision - 2.0 / 3.0).abs() < 1e-12);
        // Latencies: 120 s (probed one minute late) and 60 s; median keeps
        // the upper of the two.
        assert_eq!(score.median_detection_latency_s, 120.0);
    }

    #[test]
    fn score_rule_is_vacuously_perfect_with_no_coverage() {
        let host = "fastly-sf.periscope.tv";
        let truth = [w(host, 10 * M, 12 * M)];
        let refs: Vec<&GroundTruthWindow> = truth.iter().collect();
        let score =
            score_rule("RTMP", "pop_outage/fastly-sf.periscope.tv", &refs, &BTreeSet::new(), &[]);
        assert_eq!((score.observed, score.detected, score.false_alarms), (0, 0, 0));
        assert_eq!(score.recall, 1.0);
        assert_eq!(score.precision, 1.0);
        assert_eq!(score.median_detection_latency_s, -1.0);
    }

    #[test]
    fn report_json_is_stable_and_balanced() {
        let report = IncidentReport {
            seed: 7,
            loss_scale: 2.0,
            sessions: 4,
            shards: 1,
            horizon_us: 100 * M,
            arms: vec![ArmOutcome {
                name: "control".to_string(),
                faulted: false,
                timeline: AlertTimeline::default(),
                metrics: MetricsRegistry::new(),
                spans: Vec::new(),
            }],
            incidents: vec![Incident {
                arm: "HLS".to_string(),
                start_us: M,
                end_us: 2 * M,
                rules: vec!["pop_outage/x".to_string()],
                cells: vec!["02".to_string()],
                attribution: "hls.playlist".to_string(),
            }],
            scorecard: vec![RuleScore {
                arm: "HLS".to_string(),
                rule: "pop_outage/x".to_string(),
                truth_windows: 1,
                observed: 1,
                detected: 1,
                recall: 1.0,
                false_alarms: 0,
                precision: 1.0,
                median_detection_latency_s: 60.0,
            }],
        };
        let json = report.to_json();
        assert_eq!(json, report.to_json());
        let v = pscp_proto::json::parse(&json).expect("INCIDENTS.json parses");
        assert_eq!(v.to_json() + "\n", json, "written in canonical form");
        assert_eq!(v.get("seed").and_then(|s| s.as_u64()), Some(7));
        assert_eq!(v.get("loss_scale").and_then(|s| s.as_f64()), Some(2.0));
        let row = v.get("scorecard").and_then(|s| s.as_array()).expect("scorecard");
        assert_eq!(row[0].get("recall").and_then(|r| r.as_f64()), Some(1.0));
        let control = v.get("timelines").and_then(|t| t.get("control"));
        assert_eq!(control.and_then(|c| c.as_array()).map(<[_]>::len), Some(0));
        assert!(report.control_clean() && report.detection_perfect());
    }
}
