//! The chaos sweep: QoE degradation under increasing fault intensity,
//! compared across delivery transports.
//!
//! DESIGN.md §8 introduced the fault layer to answer "how does
//! Periscope-style QoE degrade when the network misbehaves?" — a question
//! the paper could only probe with its `tc` bandwidth sweep (Fig 6).
//! DESIGN.md §12 adds the transport dimension: the same sweep now runs as
//! a **three-way study** — RTMP (loss-as-delay TCP ingest), HLS (segment
//! re-fetch over the CDN) and SRT (NAK/ARQ datagram ingest with a latency
//! window) — so the sweep answers not just "how bad does it get" but
//! "which transport discipline holds up".
//!
//! Every arm of the sweep reuses the same `"chaos"` Teleport RNG namespace,
//! so all (transport × intensity) points run the *same planned sessions*
//! (same broadcasts, same join times) and the SRT sessions reuse RTMP's
//! broadcaster-side RNG streams (common random numbers, DESIGN.md §12):
//! differences between arms measure the transport, not sampling luck.
//! Because [`LossConfig::scaled`] leaves the Gilbert–Elliott state
//! transitions untouched and the chain draws a fixed number of variates
//! per packet, a higher scale loses a *superset* of the packets a lower
//! scale loses on every transport.
//!
//! What the arms actually show in this model: RTMP turns each lost packet
//! into a bounded retransmit delay, so loss appears as monotone join-time
//! and latency growth; SRT conceals too-late packets instead of waiting,
//! so its join time and latency stay flat while `srt/conceals` grows; HLS
//! hides loss inside the closed-form segment-fetch model and degrades only
//! through segment errors. The per-transport SLO reports (evaluated at the
//! nominal ×1 intensity) make the comparison machine-checkable.
//!
//! [`LossConfig::scaled`]: pscp_simnet::fault::LossConfig::scaled

use crate::figures::FigureData;
use crate::lab::Lab;
use pscp_client::session::SessionConfig;
use pscp_client::{Teleport, TeleportConfig};
use pscp_obs::Observer;
use pscp_proto::json::Writer;
use pscp_qoe::slo::{evaluate, SloReport, SloSpec};
use pscp_qoe::SessionDataset;
use pscp_service::select::Protocol;
use pscp_simnet::fault::FaultConfig;
use pscp_stats::Ecdf;

/// Chaos-sweep settings.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Fault-schedule seed (independent of the lab's world seed).
    pub seed: u64,
    /// Sessions per sweep point.
    pub sessions: usize,
    /// Loss-intensity multipliers applied to the chaos preset's
    /// Gilbert–Elliott loss probabilities (`0.0` = loss off, other fault
    /// classes still active).
    pub loss_scales: Vec<f64>,
    /// Transport arms. `Some(p)` forces every session onto `p`;
    /// `None` runs the paper's viewer-count selection policy (the
    /// pre-transport-study behaviour).
    pub transports: Vec<Option<Protocol>>,
    /// Worker threads per point (`0` = auto). Results are identical at
    /// every setting.
    pub threads: usize,
}

impl ChaosConfig {
    /// The default three-way sweep: 40 sessions per point over five
    /// intensities, one arm per transport.
    pub fn small(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            sessions: 40,
            loss_scales: vec![0.0, 0.5, 1.0, 2.0, 4.0],
            transports: vec![Some(Protocol::Rtmp), Some(Protocol::Hls), Some(Protocol::Srt)],
            threads: 0,
        }
    }
}

/// Display name for a transport arm (`"auto"` = selection policy).
pub fn transport_name(t: Option<Protocol>) -> &'static str {
    t.map(Protocol::name).unwrap_or("auto")
}

/// Parses a comma-separated transport list (`rtmp,hls,srt,auto`) into
/// sweep arms — the `repro chaos --transports` argument.
pub fn parse_transports(list: &str) -> Result<Vec<Option<Protocol>>, String> {
    list.split(',')
        .map(|t| match t.trim().to_ascii_lowercase().as_str() {
            "rtmp" => Ok(Some(Protocol::Rtmp)),
            "hls" => Ok(Some(Protocol::Hls)),
            "srt" => Ok(Some(Protocol::Srt)),
            "auto" => Ok(None),
            other => Err(format!("unknown transport '{other}' — expected rtmp|hls|srt|auto")),
        })
        .collect()
}

/// One sweep point: QoE samples plus fault/recovery counters.
#[derive(Debug, Clone)]
pub struct ChaosPoint {
    /// Transport arm this point ran in (`None` = selection policy).
    pub transport: Option<Protocol>,
    /// Loss multiplier this point ran at.
    pub loss_scale: f64,
    /// Sessions that actually ran.
    pub sessions: usize,
    /// Sessions that never started playback.
    pub never_joined: usize,
    /// Per-session stall ratios (includes never-joined sessions at 1.0).
    pub stall_ratios: Vec<f64>,
    /// Join times in seconds for sessions that joined.
    pub join_times_s: Vec<f64>,
    /// `fault`/`recovery`/`srt` subsystem counters, sorted by name.
    pub counters: Vec<(String, String, u64)>,
}

impl ChaosPoint {
    /// Short arm label, e.g. `"SRT x2"`.
    pub fn label(&self) -> String {
        format!("{} x{}", transport_name(self.transport), self.loss_scale)
    }

    /// Mean stall ratio across all sessions of the point.
    pub fn mean_stall_ratio(&self) -> f64 {
        if self.stall_ratios.is_empty() {
            return 0.0;
        }
        self.stall_ratios.iter().sum::<f64>() / self.stall_ratios.len() as f64
    }

    /// Mean join time over joined sessions (NaN if none joined).
    pub fn mean_join_s(&self) -> f64 {
        if self.join_times_s.is_empty() {
            return f64::NAN;
        }
        self.join_times_s.iter().sum::<f64>() / self.join_times_s.len() as f64
    }

    /// Looks up one counter value (0 when the counter never fired).
    pub fn counter(&self, subsystem: &str, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(s, n, _)| s == subsystem && n == name)
            .map(|&(_, _, v)| v)
            .unwrap_or(0)
    }
}

/// One per-transport SLO evaluation (at the sweep's nominal intensity).
#[derive(Debug, Clone)]
pub struct ChaosSlo {
    /// Transport arm the report covers.
    pub transport: Option<Protocol>,
    /// The loss scale the report was evaluated at.
    pub loss_scale: f64,
    /// The full SLO/attribution report for that arm.
    pub report: SloReport,
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct ChaosSweep {
    /// Fault seed the sweep ran with.
    pub seed: u64,
    /// One point per (transport, loss scale), transport-major, in sweep
    /// order.
    pub points: Vec<ChaosPoint>,
    /// One SLO report per transport arm, evaluated at the loss scale
    /// closest to the nominal ×1 intensity.
    pub slo: Vec<ChaosSlo>,
}

/// Runs the chaos sweep against a lab's service.
///
/// Each point gets its own tracing [`Observer`] so the harvested counters
/// are per-point, and its own [`Teleport`] over the *same* RNG namespace
/// so the planned sessions are identical across every arm and intensity.
pub fn run_chaos(lab: &mut Lab, cfg: &ChaosConfig) -> ChaosSweep {
    let rngs = *lab.rngs();
    let svc = lab.service();
    // The SLO arm reports are evaluated at the scale closest to ×1 so
    // "does this transport meet the paper's objectives under nominal
    // chaos?" has one answer per arm instead of one per point.
    let nominal = cfg
        .loss_scales
        .iter()
        .copied()
        .min_by(|a, b| (a - 1.0).abs().partial_cmp(&(b - 1.0).abs()).expect("finite loss scales"))
        .unwrap_or(1.0);
    let mut points = Vec::with_capacity(cfg.transports.len() * cfg.loss_scales.len());
    let mut slo = Vec::with_capacity(cfg.transports.len());
    for &transport in &cfg.transports {
        for &scale in &cfg.loss_scales {
            let obs = Observer::with_flags(true, false);
            let tp = Teleport::new(svc, rngs.child("chaos"));
            let tcfg = TeleportConfig {
                sessions: cfg.sessions,
                session: SessionConfig {
                    faults: FaultConfig::chaos(cfg.seed, scale),
                    transport,
                    ..Default::default()
                },
                threads: cfg.threads,
                ..Default::default()
            };
            let dataset = SessionDataset::new(tp.run_dataset_observed(&tcfg, &obs));
            let stall_ratios: Vec<f64> = dataset.sessions.iter().map(|o| o.stall_ratio()).collect();
            let join_times_s: Vec<f64> =
                dataset.sessions.iter().filter_map(|o| o.join_time_s()).collect();
            let never_joined =
                dataset.sessions.iter().filter(|o| o.player.join_time.is_none()).count();
            let mut counters: Vec<(String, String, u64)> = obs
                .metrics()
                .counters()
                .filter(|(sub, _, _)| *sub == "fault" || *sub == "recovery" || *sub == "srt")
                .map(|(sub, name, v)| (sub.to_string(), name.to_string(), v))
                .collect();
            counters.sort();
            if scale == nominal {
                let label = format!(
                    "chaos transport={} loss x{scale} seed={}",
                    transport_name(transport),
                    cfg.seed
                );
                slo.push(ChaosSlo {
                    transport,
                    loss_scale: scale,
                    report: evaluate(&SloSpec::paper(), &dataset, &obs.spans(), &label),
                });
            }
            points.push(ChaosPoint {
                transport,
                loss_scale: scale,
                sessions: dataset.len(),
                never_joined,
                stall_ratios,
                join_times_s,
                counters,
            });
        }
    }
    ChaosSweep { seed: cfg.seed, points, slo }
}

impl ChaosSweep {
    /// The distinct loss scales, in sweep order.
    fn scales(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for p in &self.points {
            if !out.contains(&p.loss_scale) {
                out.push(p.loss_scale);
            }
        }
        out
    }

    /// The distinct transport arms, in sweep order.
    fn transports(&self) -> Vec<Option<Protocol>> {
        let mut out = Vec::new();
        for p in &self.points {
            if !out.contains(&p.transport) {
                out.push(p.transport);
            }
        }
        out
    }

    /// All points of one transport arm, in scale order.
    pub fn arm(&self, transport: Option<Protocol>) -> Vec<&ChaosPoint> {
        self.points.iter().filter(|p| p.transport == transport).collect()
    }

    /// Renders the sweep as figures: stall-ratio and join-time ECDFs (one
    /// series per point), per-transport mean tables, and the
    /// fault/recovery counter table.
    pub fn figures(&self) -> Vec<FigureData> {
        let series = |samples: fn(&ChaosPoint) -> &[f64]| {
            self.points
                .iter()
                .filter_map(|p| {
                    let ecdf = Ecdf::new(samples(p)).ok()?;
                    Some((p.label(), ecdf.sampled(20)))
                })
                .collect::<Vec<_>>()
        };
        let mut figures = vec![
            FigureData::Cdf {
                x_label: "stall ratio".to_string(),
                series: series(|p| &p.stall_ratios),
            },
            FigureData::Cdf {
                x_label: "join time (s)".to_string(),
                series: series(|p| &p.join_times_s),
            },
        ];
        // Three-way mean tables: one row per transport, one column per
        // loss scale — the "which transport holds up" summary.
        let scales = self.scales();
        let mean_table = |metric: &str, value: fn(&ChaosPoint) -> f64| {
            let mut columns = vec![metric.to_string()];
            columns.extend(scales.iter().map(|s| format!("loss x{s}")));
            let rows = self
                .transports()
                .into_iter()
                .map(|t| {
                    let mut row = vec![transport_name(t).to_string()];
                    for &s in &scales {
                        let cell = self
                            .points
                            .iter()
                            .find(|p| p.transport == t && p.loss_scale == s)
                            .map(|p| format!("{:.4}", value(p)))
                            .unwrap_or_else(|| "-".to_string());
                        row.push(cell);
                    }
                    row
                })
                .collect();
            FigureData::Table { columns, rows }
        };
        figures.push(mean_table("mean stall ratio", ChaosPoint::mean_stall_ratio));
        figures.push(mean_table("mean join (s)", ChaosPoint::mean_join_s));
        // Counter table: one row per counter seen anywhere, one value
        // column per sweep point.
        let mut names: Vec<(String, String)> = self
            .points
            .iter()
            .flat_map(|p| p.counters.iter().map(|(s, n, _)| (s.clone(), n.clone())))
            .collect();
        names.sort();
        names.dedup();
        let mut columns = vec!["counter".to_string()];
        columns.extend(self.points.iter().map(|p| p.label()));
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(names.len() + 2);
        rows.push(
            std::iter::once("sessions".to_string())
                .chain(self.points.iter().map(|p| p.sessions.to_string()))
                .collect(),
        );
        rows.push(
            std::iter::once("never_joined".to_string())
                .chain(self.points.iter().map(|p| p.never_joined.to_string()))
                .collect(),
        );
        for (sub, name) in names {
            rows.push(
                std::iter::once(format!("{sub}/{name}"))
                    .chain(self.points.iter().map(|p| p.counter(&sub, &name).to_string()))
                    .collect(),
            );
        }
        figures.push(FigureData::Table { columns, rows });
        figures
    }

    /// The `CHAOS_sweep.json` artifact (trailing newline).
    ///
    /// Schema (documented in EXPERIMENTS.md): top-level `seed`,
    /// `transports` (arm names in sweep order), `points` (transport-major
    /// `(transport, loss_scale)` objects with session counts, mean QoE and
    /// the per-point counters), and `slo` (one per-arm pass/fail summary
    /// with the names of any failed objectives).
    pub fn sweep_json(&self) -> String {
        let mut out = String::new();
        let w = &mut Writer::new(&mut out);
        w.begin_object();
        w.key("points").begin_array();
        for p in &self.points {
            let mut counters: Vec<(String, u64)> =
                p.counters.iter().map(|(sub, name, v)| (format!("{sub}/{name}"), *v)).collect();
            counters.sort();
            w.begin_object();
            w.key("counters").begin_object();
            for (key, v) in &counters {
                w.key(key).int(*v);
            }
            w.end_object();
            w.key("loss_scale").number(p.loss_scale);
            let mean_join_s = if p.join_times_s.is_empty() { -1.0 } else { p.mean_join_s() };
            w.key("mean_join_s").number(mean_join_s);
            w.key("mean_stall_ratio").number(p.mean_stall_ratio());
            w.key("never_joined").int(p.never_joined as u64);
            w.key("sessions").int(p.sessions as u64);
            w.key("transport").str(transport_name(p.transport));
            w.end_object();
        }
        w.end_array();
        w.key("seed").int(self.seed);
        w.key("slo").begin_array();
        for arm in &self.slo {
            w.begin_object();
            w.key("failed").begin_array();
            arm.report.objectives.iter().filter(|o| !o.pass).for_each(|o| w.str(o.name));
            w.end_array();
            w.key("loss_scale").number(arm.loss_scale);
            w.key("pass").bool(arm.report.pass());
            w.key("transport").str(transport_name(arm.transport));
            w.end_object();
        }
        w.end_array();
        w.key("transports").begin_array();
        self.transports().into_iter().for_each(|t| w.str(transport_name(t)));
        w.end_array();
        w.end_object();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(
        transport: Option<Protocol>,
        scale: f64,
        ratios: Vec<f64>,
        joins: Vec<f64>,
    ) -> ChaosPoint {
        ChaosPoint {
            transport,
            loss_scale: scale,
            sessions: ratios.len(),
            never_joined: ratios.len() - joins.len(),
            stall_ratios: ratios,
            join_times_s: joins,
            counters: vec![
                ("fault".into(), "lost_packets".into(), (scale * 100.0) as u64),
                ("recovery".into(), "retransmits".into(), (scale * 90.0) as u64),
            ],
        }
    }

    fn sweep() -> ChaosSweep {
        ChaosSweep {
            seed: 9,
            points: vec![
                point(Some(Protocol::Rtmp), 0.0, vec![0.0, 0.0, 0.1], vec![1.0, 1.2, 1.1]),
                point(Some(Protocol::Rtmp), 2.0, vec![0.1, 0.2, 1.0], vec![1.4, 1.9]),
                point(Some(Protocol::Srt), 0.0, vec![0.0, 0.0, 0.0], vec![1.0, 1.1, 1.2]),
                point(Some(Protocol::Srt), 2.0, vec![0.0, 0.1, 0.1], vec![1.0, 1.2, 1.1]),
            ],
            slo: Vec::new(),
        }
    }

    #[test]
    fn point_statistics() {
        let p = point(Some(Protocol::Rtmp), 2.0, vec![0.1, 0.2, 1.0], vec![1.4, 1.9]);
        assert!((p.mean_stall_ratio() - 13.0 / 30.0).abs() < 1e-12);
        assert!((p.mean_join_s() - 1.65).abs() < 1e-12);
        assert_eq!(p.counter("fault", "lost_packets"), 200);
        assert_eq!(p.counter("fault", "nonexistent"), 0);
        assert_eq!(p.label(), "RTMP x2");
        assert_eq!(transport_name(None), "auto");
    }

    #[test]
    fn arm_selects_one_transport_in_scale_order() {
        let s = sweep();
        let srt = s.arm(Some(Protocol::Srt));
        assert_eq!(srt.len(), 2);
        assert!(srt.iter().all(|p| p.transport == Some(Protocol::Srt)));
        assert_eq!(srt[0].loss_scale, 0.0);
        assert_eq!(srt[1].loss_scale, 2.0);
        assert!(s.arm(Some(Protocol::Hls)).is_empty());
    }

    #[test]
    fn figures_have_series_per_point_and_tables() {
        let figs = sweep().figures();
        assert_eq!(figs.len(), 5);
        match &figs[0] {
            FigureData::Cdf { x_label, series } => {
                assert_eq!(x_label, "stall ratio");
                assert_eq!(series.len(), 4);
                assert_eq!(series[0].0, "RTMP x0");
                assert_eq!(series[3].0, "SRT x2");
            }
            other => panic!("expected Cdf, got {other:?}"),
        }
        match &figs[2] {
            FigureData::Table { columns, rows } => {
                assert_eq!(columns[0], "mean stall ratio");
                assert_eq!(columns.len(), 3); // metric + 2 scales
                assert_eq!(rows.len(), 2); // RTMP + SRT
                assert_eq!(rows[0][0], "RTMP");
                assert_eq!(rows[1][0], "SRT");
            }
            other => panic!("expected Table, got {other:?}"),
        }
        match &figs[4] {
            FigureData::Table { columns, rows } => {
                assert_eq!(columns.len(), 5); // counter + 4 points
                assert!(rows.iter().any(|r| r[0] == "fault/lost_packets"));
                assert!(rows.iter().any(|r| r[0] == "sessions"));
            }
            other => panic!("expected Table, got {other:?}"),
        }
    }

    #[test]
    fn transports_parse_strictly() {
        assert_eq!(
            parse_transports("rtmp,hls,srt,auto").unwrap(),
            vec![Some(Protocol::Rtmp), Some(Protocol::Hls), Some(Protocol::Srt), None],
        );
        assert_eq!(parse_transports(" SRT ").unwrap(), vec![Some(Protocol::Srt)]);
        assert!(parse_transports("rtmp,quic").unwrap_err().contains("quic"));
    }

    #[test]
    fn sweep_json_shape() {
        let json = sweep().sweep_json();
        let v = pscp_proto::json::parse(&json).expect("CHAOS_sweep.json parses");
        assert_eq!(v.to_json() + "\n", json, "written in canonical form");
        assert_eq!(v.get("seed").and_then(|s| s.as_u64()), Some(9));
        let transports = v.get("transports").and_then(|t| t.as_array()).expect("transports");
        assert_eq!(transports, [pscp_proto::json::Value::str("RTMP"), "SRT".into()]);
        let points = v.get("points").and_then(|p| p.as_array()).expect("points");
        assert_eq!(points.len(), 4);
        let last = &points[3];
        assert_eq!(last.get("transport").and_then(|t| t.as_str()), Some("SRT"));
        assert_eq!(last.get("loss_scale").and_then(|s| s.as_f64()), Some(2.0));
        let lost = last.get("counters").and_then(|c| c.get("fault/lost_packets"));
        assert_eq!(lost.and_then(|n| n.as_u64()), Some(200));
        assert_eq!(v.get("slo").and_then(|s| s.as_array()).map(<[_]>::len), Some(0));
    }
}
