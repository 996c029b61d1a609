//! QoE attribution and SLO evaluation over causal span trees.
//!
//! The paper's central move is *explaining* QoE, not just measuring it:
//! decomposing join time into its phases and attributing multi-second
//! latencies to protocol choice. This module folds the deterministic span
//! trees recorded by `pscp-obs` into per-session [`PhaseBreakdown`]s,
//! evaluates a declarative [`SloSpec`] whose thresholds encode the
//! paper's headline numbers, and flags MAD-outlier sessions together with
//! the phase that dominated their join. Everything is a pure function of
//! the spans and the dataset, with fixed float formatting — the rendered
//! `SLO_report.json` is byte-identical at any thread count.
//!
//! One judge: [`evaluate`] reads a dataset exactly, from its sorted
//! samples, and [`judge`] is the one place the four objectives are
//! written — the streaming [`crate::QoeTelemetry`] of `repro watch` and
//! `run_scale`, which never hold a dataset, is judged by it too.

use std::collections::BTreeMap;

use pscp_obs::Span;
use pscp_service::select::Protocol;
use pscp_stats::quantile::{median, quantile};

use crate::dataset::SessionDataset;

/// One session's join time decomposed into its causal phases.
#[derive(Debug, Clone)]
pub struct PhaseBreakdown {
    /// Work-unit label (e.g. `"session/17"`, `"limit-2/session/3"`).
    pub unit: String,
    /// Protocol inferred from the child phases.
    pub protocol: Protocol,
    /// Root span duration — the session's join time, seconds.
    pub join_s: f64,
    /// `(phase name, seconds)` for each child of the root, in span order.
    /// The children tile the root, so these sum to `join_s` exactly.
    pub phases: Vec<(String, f64)>,
}

impl PhaseBreakdown {
    /// The longest phase, if any.
    pub fn dominant_phase(&self) -> Option<(&str, f64)> {
        self.phases
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("phase durations are finite"))
            .map(|(n, s)| (n.as_str(), *s))
    }

    /// Sum of the child phases, seconds (equals `join_s` by construction).
    pub fn phases_sum_s(&self) -> f64 {
        self.phases.iter().map(|(_, s)| s).sum()
    }
}

/// Folds a merged `(unit, span)` log into per-session breakdowns: one per
/// unit that contains a closed `session.join` root, with the root's
/// children as phases. Units appear in log (= plan) order.
pub fn fold_breakdowns(spans: &[(String, Span)]) -> Vec<PhaseBreakdown> {
    let mut order: Vec<&str> = Vec::new();
    let mut by_unit: BTreeMap<&str, Vec<&Span>> = BTreeMap::new();
    for (unit, span) in spans {
        let entry = by_unit.entry(unit.as_str()).or_default();
        if entry.is_empty() {
            order.push(unit.as_str());
        }
        entry.push(span);
    }
    let mut out = Vec::new();
    for unit in order {
        let unit_spans = &by_unit[unit];
        let Some(root) = unit_spans.iter().find(|s| s.name == "session.join") else {
            continue;
        };
        let mut phases = Vec::new();
        let mut protocol = None;
        for s in unit_spans.iter().filter(|s| s.parent == Some(root.id)) {
            phases.push((s.name.to_string(), s.duration_s()));
            protocol = protocol.or(match s.subsystem {
                "rtmp" => Some(Protocol::Rtmp),
                "hls" | "tcp" => Some(Protocol::Hls),
                "srt" => Some(Protocol::Srt),
                _ => None,
            });
        }
        out.push(PhaseBreakdown {
            unit: unit.to_string(),
            protocol: protocol.unwrap_or(Protocol::Rtmp),
            join_s: root.duration_s(),
            phases,
        });
    }
    out
}

/// A declarative set of QoE objectives, thresholds taken from the paper's
/// headline numbers.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// p90 join time over unlimited sessions must stay below this.
    pub join_p90_max_s: f64,
    /// p90 stall ratio over unlimited sessions must stay below this.
    pub stall_ratio_p90_max: f64,
    /// p75 of RTMP playbackMeta latency must stay below this (§5.1: RTMP
    /// delivery is sub-second for 75% of sessions; end-to-end playback
    /// latency adds the ~1.6 s client buffer).
    pub rtmp_latency_p75_max_s: f64,
    /// Mean HLS capture→render latency must *exceed* this (§5.1/Fig 5:
    /// "more than 5 seconds on average" — a model-consistency floor).
    pub hls_latency_mean_min_s: f64,
    /// MAD multiplier above which a session's join time is an outlier.
    pub mad_k: f64,
}

impl SloSpec {
    /// Thresholds encoded from the paper (§5.1, Figs 3–5).
    pub fn paper() -> SloSpec {
        SloSpec {
            join_p90_max_s: 12.0,
            stall_ratio_p90_max: 0.10,
            rtmp_latency_p75_max_s: 4.0,
            hls_latency_mean_min_s: 5.0,
            mad_k: 3.5,
        }
    }
}

/// Burn-rate alert rules derived from the spec's objectives plus the
/// fault-symptom Event rules (DESIGN.md §14): a join-time burn and a
/// stall-ratio burn (bad = observation past the p90 threshold, 10% error
/// budget — the budget the p90 objectives imply), one POP-outage Event
/// rule per CDN POP, and the aggregate ingest-outage Event rule. The rule
/// set is a pure function of the spec, so timelines stay comparable
/// across runs.
pub fn alert_rules(spec: &SloSpec) -> Vec<pscp_obs::AlertRule> {
    let mut rules = vec![
        pscp_obs::AlertRule::burn(
            "join_burn",
            "alert",
            "join_time_us",
            (spec.join_p90_max_s * 1e6).round() as u64,
            0.10,
        ),
        pscp_obs::AlertRule::burn(
            "stall_burn",
            "alert",
            "stall_ppm",
            (spec.stall_ratio_p90_max * 1e6).round() as u64,
            0.10,
        ),
    ];
    for pop in pscp_service::cdn::CdnPop::ALL {
        rules.push(pscp_obs::AlertRule::event(
            &format!("pop_outage/{}", pop.hostname()),
            "outage",
            pop.hostname(),
            1,
        ));
    }
    rules.push(pscp_obs::AlertRule::event("ingest_outage", "outage", "ingest", 1));
    rules
}

/// Per-shard-cell join-burn rules at the reference quadtree depth: one
/// rule per depth-2 quadkey, over the teleport driver's `cell/{key}`
/// rings. Used by the incident correlator to scope incidents to shard
/// cells; kept out of [`alert_rules`] so the live watch stays compact.
pub fn cell_rules(spec: &SloSpec) -> Vec<pscp_obs::AlertRule> {
    (0u16..16)
        .map(|key| {
            let quadkey = format!("{}{}", key >> 2, key & 3);
            pscp_obs::AlertRule::burn(
                &format!("join_burn/cell={quadkey}"),
                "cell",
                &quadkey,
                (spec.join_p90_max_s * 1e6).round() as u64,
                0.10,
            )
        })
        .collect()
}

/// One evaluated objective.
#[derive(Debug, Clone)]
pub struct SloObjective {
    /// Stable objective name.
    pub name: &'static str,
    /// Measured value (NaN-free: unmeasurable objectives are skipped).
    pub measured: f64,
    /// Threshold from the spec.
    pub threshold: f64,
    /// `"<="` or `">="`.
    pub op: &'static str,
    /// Whether the objective holds.
    pub pass: bool,
}

/// A session flagged as a join-time outlier, with its dominant phase.
#[derive(Debug, Clone)]
pub struct OutlierSession {
    /// Work-unit label.
    pub unit: String,
    /// The outlier join time, seconds.
    pub join_s: f64,
    /// Robust z-score: deviation from the median in MAD units.
    pub mad_score: f64,
    /// Name of the longest phase.
    pub dominant_phase: String,
    /// Duration of that phase, seconds.
    pub dominant_s: f64,
}

/// Mean per-phase decomposition for one protocol.
#[derive(Debug, Clone)]
pub struct ProtocolDecomposition {
    /// Which protocol.
    pub protocol: Protocol,
    /// Sessions with a breakdown.
    pub n: usize,
    /// Mean join time over those sessions, seconds.
    pub join_mean_s: f64,
    /// `(phase name, mean seconds)` sorted by name.
    pub phase_means: Vec<(String, f64)>,
}

/// The full SLO/attribution report.
#[derive(Debug, Clone)]
pub struct SloReport {
    /// Free-form label (scale/seed) stamped by the caller.
    pub label: String,
    /// Sessions in the dataset.
    pub n_sessions: usize,
    /// Sessions with a span breakdown.
    pub n_breakdowns: usize,
    /// Evaluated objectives, in fixed order.
    pub objectives: Vec<SloObjective>,
    /// Mean join decomposition per protocol (RTMP then HLS).
    pub decomposition: Vec<ProtocolDecomposition>,
    /// MAD outliers, most extreme first.
    pub outliers: Vec<OutlierSession>,
}

impl SloReport {
    /// Whether every objective holds.
    pub fn pass(&self) -> bool {
        self.objectives.iter().all(|o| o.pass)
    }

    /// Renders the report as one stable JSON document (trailing newline).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(2048);
        let _ = write!(
            s,
            "{{\"label\":\"{}\",\"pass\":{},\"n_sessions\":{},\"n_breakdowns\":{}",
            escape(&self.label),
            self.pass(),
            self.n_sessions,
            self.n_breakdowns
        );
        s.push_str(",\"objectives\":[");
        for (i, o) in self.objectives.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"measured\":{:.6},\"op\":\"{}\",\"threshold\":{:.6},\
                 \"pass\":{}}}",
                o.name, o.measured, o.op, o.threshold, o.pass
            );
        }
        s.push_str("],\"decomposition\":[");
        for (i, d) in self.decomposition.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"protocol\":\"{}\",\"n\":{},\"join_mean_s\":{:.6},\"phase_means_s\":{{",
                protocol_name(d.protocol),
                d.n,
                d.join_mean_s
            );
            for (j, (name, mean)) in d.phase_means.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\":{:.6}", escape(name), mean);
            }
            s.push_str("}}");
        }
        s.push_str("],\"outliers\":[");
        for (i, o) in self.outliers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"unit\":\"{}\",\"join_s\":{:.6},\"mad_score\":{:.6},\
                 \"dominant_phase\":\"{}\",\"dominant_s\":{:.6}}}",
                escape(&o.unit),
                o.join_s,
                o.mad_score,
                escape(&o.dominant_phase),
                o.dominant_s
            );
        }
        s.push_str("]}\n");
        s
    }

    /// Renders a human-oriented summary table.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "SLO report [{}] — {} sessions, {} with span trees — {}",
            self.label,
            self.n_sessions,
            self.n_breakdowns,
            if self.pass() { "PASS" } else { "FAIL" }
        );
        for o in &self.objectives {
            let _ = writeln!(
                s,
                "  [{}] {:<24} {:>10.3} {} {:.3}",
                if o.pass { "ok" } else { "VIOLATED" },
                o.name,
                o.measured,
                o.op,
                o.threshold
            );
        }
        for d in &self.decomposition {
            let _ = writeln!(
                s,
                "  {} join decomposition (n={}, mean {:.3}s):",
                protocol_name(d.protocol),
                d.n,
                d.join_mean_s
            );
            for (name, mean) in &d.phase_means {
                let _ = writeln!(s, "    {:<18} {:>8.3}s", name, mean);
            }
        }
        let _ = writeln!(s, "  outliers: {}", self.outliers.len());
        for o in self.outliers.iter().take(10) {
            let _ = writeln!(
                s,
                "    {:<24} join={:>8.3}s mad={:>6.1} dominated by {} ({:.3}s)",
                o.unit, o.join_s, o.mad_score, o.dominant_phase, o.dominant_s
            );
        }
        s
    }
}

fn protocol_name(p: Protocol) -> &'static str {
    match p {
        Protocol::Rtmp => "rtmp",
        Protocol::Hls => "hls",
        Protocol::Srt => "srt",
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Fewest samples a per-protocol latency quantile objective needs before
/// it is reported at all. Forcing a transport arm (the chaos sweep's
/// three-way study) can leave another protocol with one or two stray
/// sessions — e.g. SRT→RTMP handshake fallbacks — and a "p75" over such a
/// sliver is noise, not an objective. The paper-scale workloads are far
/// above this floor, so the golden `SLO_report.json` is unaffected.
pub const MIN_QUANTILE_SAMPLES: usize = 4;

/// What the four objectives are judged on, seconds (stall ratio as a
/// fraction). `None` = not measurable on this sample — too few sessions of
/// the protocol — so the objective is left out rather than failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measured {
    /// p90 join time over unlimited sessions.
    pub join_p90_s: Option<f64>,
    /// p90 stall ratio over unlimited sessions.
    pub stall_ratio_p90: Option<f64>,
    /// p75 RTMP playbackMeta latency, given [`MIN_QUANTILE_SAMPLES`].
    pub rtmp_latency_p75_s: Option<f64>,
    /// Mean HLS capture→render latency, given any HLS session.
    pub hls_latency_mean_s: Option<f64>,
}

/// Judges the paper's four objectives — the one place their names,
/// operators and thresholds are written. [`evaluate`] feeds it exact
/// quantiles of a dataset in memory, [`QoeTelemetry::violations`] sketch
/// quantiles of a stream, so `repro slo` and `repro watch
/// --fail-on-violation` cannot disagree on what is asked.
///
/// [`QoeTelemetry::violations`]: crate::telemetry::QoeTelemetry::violations
pub fn judge(spec: &SloSpec, m: &Measured) -> Vec<SloObjective> {
    [
        ("join_time_p90_s", m.join_p90_s, "<=", spec.join_p90_max_s),
        ("stall_ratio_p90", m.stall_ratio_p90, "<=", spec.stall_ratio_p90_max),
        ("rtmp_latency_p75_s", m.rtmp_latency_p75_s, "<=", spec.rtmp_latency_p75_max_s),
        ("hls_latency_mean_s", m.hls_latency_mean_s, ">=", spec.hls_latency_mean_min_s),
    ]
    .into_iter()
    .filter_map(|(name, measured, op, threshold)| {
        let measured = measured?;
        let pass = if op == "<=" { measured <= threshold } else { measured >= threshold };
        Some(SloObjective { name, measured, threshold, op, pass })
    })
    .collect()
}

/// Evaluates `spec` over the dataset's scalar QoE metrics and the span
/// trees' phase breakdowns. A dataset is already in memory, session by
/// session, so its quantiles are exact: metric vectors are materialised
/// and sorted (≈ 4 ms per 100k samples against the minutes it takes to
/// simulate them, DESIGN.md §11). Streams that never build a dataset —
/// `repro watch`, `run_scale` — fold [`crate::QoeTelemetry`] instead.
pub fn evaluate(
    spec: &SloSpec,
    dataset: &SessionDataset,
    spans: &[(String, Span)],
    label: &str,
) -> SloReport {
    let breakdowns = fold_breakdowns(spans);

    let mut unlimited: Vec<&pscp_client::SessionOutcome> = dataset.unlimited(Protocol::Rtmp);
    unlimited.extend(dataset.unlimited(Protocol::Hls));
    unlimited.extend(dataset.unlimited(Protocol::Srt));
    let rtmp_lat = SessionDataset::playback_latencies_s(&dataset.unlimited(Protocol::Rtmp));
    let hls_lat: Vec<f64> =
        dataset.unlimited(Protocol::Hls).iter().filter_map(|s| s.player.mean_latency_s()).collect();
    let objectives = judge(
        spec,
        &Measured {
            join_p90_s: quantile(&SessionDataset::join_times_s(&unlimited), 0.90).ok(),
            stall_ratio_p90: quantile(&SessionDataset::stall_ratios(&unlimited), 0.90).ok(),
            rtmp_latency_p75_s: quantile(&rtmp_lat, 0.75)
                .ok()
                .filter(|_| rtmp_lat.len() >= MIN_QUANTILE_SAMPLES),
            hls_latency_mean_s: (!hls_lat.is_empty())
                .then(|| hls_lat.iter().sum::<f64>() / hls_lat.len() as f64),
        },
    );

    let decomposition = [Protocol::Rtmp, Protocol::Hls, Protocol::Srt]
        .into_iter()
        .filter_map(|proto| {
            let group: Vec<&PhaseBreakdown> =
                breakdowns.iter().filter(|b| b.protocol == proto).collect();
            if group.is_empty() {
                return None;
            }
            let n = group.len();
            let join_mean_s = group.iter().map(|b| b.join_s).sum::<f64>() / n as f64;
            let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
            for b in &group {
                for (name, secs) in &b.phases {
                    *sums.entry(name.as_str()).or_insert(0.0) += secs;
                }
            }
            let phase_means =
                sums.into_iter().map(|(name, sum)| (name.to_string(), sum / n as f64)).collect();
            Some(ProtocolDecomposition { protocol: proto, n, join_mean_s, phase_means })
        })
        .collect();

    // MAD outliers over the breakdown join times: robustly slow sessions,
    // attributed to their dominant phase.
    let mut outliers = Vec::new();
    let join_bd: Vec<f64> = breakdowns.iter().map(|b| b.join_s).collect();
    if let Ok(med) = median(&join_bd) {
        let deviations: Vec<f64> = join_bd.iter().map(|&j| (j - med).abs()).collect();
        if let Ok(mad) = median(&deviations) {
            // 1.4826 rescales MAD to the stdev of a normal distribution.
            let scale = 1.4826 * mad;
            if scale > 1e-9 {
                for b in &breakdowns {
                    let score = (b.join_s - med) / scale;
                    if score > spec.mad_k {
                        let (dominant_phase, dominant_s) = b
                            .dominant_phase()
                            .map(|(n, s)| (n.to_string(), s))
                            .unwrap_or_else(|| ("unknown".to_string(), 0.0));
                        outliers.push(OutlierSession {
                            unit: b.unit.clone(),
                            join_s: b.join_s,
                            mad_score: score,
                            dominant_phase,
                            dominant_s,
                        });
                    }
                }
            }
        }
    }
    outliers.sort_by(|a, b| {
        b.mad_score.partial_cmp(&a.mad_score).expect("finite").then(a.unit.cmp(&b.unit))
    });

    SloReport {
        label: label.to_string(),
        n_sessions: dataset.len(),
        n_breakdowns: breakdowns.len(),
        objectives,
        decomposition,
        outliers,
    }
}

/// Renders one unit's span tree (root, children, then side spans) for
/// `repro explain`. Returns `None` when the unit has no spans.
pub fn explain_unit(unit: &str, spans: &[(String, Span)]) -> Option<String> {
    use std::fmt::Write as _;
    let unit_spans: Vec<&Span> = spans.iter().filter(|(u, _)| u == unit).map(|(_, s)| s).collect();
    if unit_spans.is_empty() {
        return None;
    }
    let mut s = String::new();
    let _ = writeln!(s, "span tree for {unit}:");
    let mut in_tree: Vec<u32> = Vec::new();
    let render = |s: &mut String, span: &Span, depth: usize| {
        let _ = writeln!(
            s,
            "{}{:<20} {:>10.3}s  [{:.3}s → {:.3}s]",
            "  ".repeat(depth + 1),
            span.name,
            span.duration_s(),
            span.start_us as f64 / 1e6,
            span.end_us as f64 / 1e6,
        );
    };
    for root in unit_spans.iter().filter(|s| s.parent.is_none() && s.name == "session.join") {
        in_tree.push(root.id);
        render(&mut s, root, 0);
        for child in unit_spans.iter().filter(|c| c.parent == Some(root.id)) {
            in_tree.push(child.id);
            render(&mut s, child, 1);
            for grand in unit_spans.iter().filter(|g| g.parent == Some(child.id)) {
                in_tree.push(grand.id);
                render(&mut s, grand, 2);
            }
        }
    }
    let side: Vec<&&Span> = unit_spans.iter().filter(|sp| !in_tree.contains(&sp.id)).collect();
    if !side.is_empty() {
        let _ = writeln!(s, "  side spans:");
        for sp in side {
            render(&mut s, sp, 1);
        }
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: Option<u32>,
        start_s: f64,
        end_s: f64,
        subsystem: &'static str,
        name: &'static str,
    ) -> Span {
        Span {
            id,
            parent,
            start_us: (start_s * 1e6) as u64,
            end_us: (end_s * 1e6) as u64,
            subsystem,
            name,
        }
    }

    fn sample_spans() -> Vec<(String, Span)> {
        vec![
            ("session/0".into(), span(0, None, 10.0, 13.0, "session", "session.join")),
            ("session/0".into(), span(1, Some(0), 10.0, 10.0, "api", "api.request")),
            ("session/0".into(), span(2, Some(0), 10.0, 10.2, "rtmp", "rtmp.handshake")),
            ("session/0".into(), span(3, Some(0), 10.2, 13.0, "rtmp", "rtmp.buffering")),
            ("session/0".into(), span(4, None, 30.0, 32.0, "player", "player.stall")),
            ("session/1".into(), span(0, None, 20.0, 29.0, "session", "session.join")),
            ("session/1".into(), span(1, Some(0), 20.0, 21.0, "tcp", "tcp.bootstrap")),
            ("session/1".into(), span(2, Some(0), 21.0, 21.5, "hls", "hls.playlist")),
            ("session/1".into(), span(3, Some(0), 21.5, 29.0, "hls", "hls.segments")),
            // A unit with no root (never-joined session): no breakdown.
            ("session/2".into(), span(0, None, 40.0, 41.0, "player", "player.stall")),
        ]
    }

    #[test]
    fn fold_builds_tiled_breakdowns() {
        let bds = fold_breakdowns(&sample_spans());
        assert_eq!(bds.len(), 2);
        let rtmp = &bds[0];
        assert_eq!(rtmp.unit, "session/0");
        assert_eq!(rtmp.protocol, Protocol::Rtmp);
        assert!((rtmp.join_s - 3.0).abs() < 1e-9);
        assert!((rtmp.phases_sum_s() - rtmp.join_s).abs() < 1e-9, "children tile the root");
        assert_eq!(rtmp.dominant_phase().unwrap().0, "rtmp.buffering");
        let hls = &bds[1];
        assert_eq!(hls.protocol, Protocol::Hls);
        assert_eq!(hls.dominant_phase().unwrap().0, "hls.segments");
    }

    #[test]
    fn evaluate_reports_decomposition_and_outliers() {
        // Clone session/1 a few times at normal joins plus one huge outlier
        // so MAD flags exactly the slow one.
        let mut spans = sample_spans();
        for i in 3..10 {
            let j = 3.0 + i as f64 * 0.1; // spread so the MAD is nonzero
            spans.push((format!("session/{i}"), span(0, None, 0.0, j, "session", "session.join")));
            spans
                .push((format!("session/{i}"), span(1, Some(0), 0.0, j, "rtmp", "rtmp.buffering")));
        }
        spans.push(("session/99".into(), span(0, None, 0.0, 55.0, "session", "session.join")));
        spans.push(("session/99".into(), span(1, Some(0), 0.0, 55.0, "hls", "hls.segments")));
        let report =
            evaluate(&SloSpec::paper(), &SessionDataset::new(Vec::new()), &spans, "unit-test");
        assert_eq!(report.n_breakdowns, 10);
        assert_eq!(report.decomposition.len(), 2);
        assert!(!report.outliers.is_empty());
        assert_eq!(report.outliers[0].unit, "session/99", "most extreme outlier first");
        assert_eq!(report.outliers[0].dominant_phase, "hls.segments");
        let json = report.to_json();
        assert!(json.contains("\"dominant_phase\":\"hls.segments\""));
        assert!(!json.contains("NaN"), "report must never print NaN");
        assert_eq!(report.to_json(), json, "rendering is stable");
    }

    #[test]
    fn judge_skips_the_unmeasured_and_is_what_a_stream_is_judged_by() {
        let spec = SloSpec::paper();
        let rows = judge(
            &spec,
            &Measured {
                join_p90_s: Some(12.5),
                hls_latency_mean_s: Some(4.0),
                ..Measured::default()
            },
        );
        let seen: Vec<_> = rows.iter().map(|o| (o.name, o.op, o.pass)).collect();
        assert_eq!(seen, [("join_time_p90_s", "<=", false), ("hls_latency_mean_s", ">=", false)]);
        assert!(judge(&spec, &Measured { join_p90_s: Some(12.0), ..Measured::default() })[0].pass);

        // The sketched side reads the same table: a stream whose every join
        // takes 20 s violates exactly the objective a dataset would fail.
        let mut tele = crate::QoeTelemetry::new();
        assert!(tele.violations(&spec).is_empty(), "nothing measured, nothing violated");
        for _ in 0..10 {
            tele.fold_sample(&crate::telemetry::SessionSample {
                limited: false,
                protocol: Protocol::Srt,
                join_s: Some(20.0),
                session_s: 60.0,
                stall_ratio: 0.0,
                latency_s: None,
            });
        }
        assert_eq!(tele.violations(&spec), ["join_time_p90_s"]);
    }

    #[test]
    fn explain_renders_tree_and_side_spans() {
        let spans = sample_spans();
        let text = explain_unit("session/0", &spans).unwrap();
        assert!(text.contains("session.join"));
        assert!(text.contains("rtmp.buffering"));
        assert!(text.contains("side spans:"));
        assert!(explain_unit("session/404", &spans).is_none());
    }
}
