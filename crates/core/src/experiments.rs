//! The experiment registry: one entry per paper figure/table.
//!
//! Each experiment regenerates its artifact from scratch through the
//! [`Lab`]; ids match the E-numbers in DESIGN.md §3 and the `repro` binary's
//! command-line names.

use crate::figures::{BoxRow, FigureData};
use crate::lab::Lab;
use pscp_energy::model::PowerModel;
use pscp_media::analysis::{GopClass, StreamReport};
use pscp_qoe::compare::device_comparison;
use pscp_qoe::SessionDataset;
use pscp_service::select::Protocol;
use pscp_stats::table::fnum;
use pscp_stats::Ecdf;

/// A runnable experiment.
pub struct Experiment {
    /// Command-line id (e.g. `fig3a`).
    pub id: &'static str,
    /// The paper artifact it regenerates.
    pub paper_ref: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// The runner.
    pub run: fn(&mut Lab) -> FigureData,
}

/// All experiments in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig1a",
            paper_ref: "Figure 1(a)",
            title: "Cumulative broadcasts discovered vs areas queried (deep crawls)",
            run: fig1a,
        },
        Experiment {
            id: "fig1b",
            paper_ref: "Figure 1(b)",
            title: "Relative concentration: fraction of broadcasts vs fraction of areas",
            run: fig1b,
        },
        Experiment {
            id: "fig2a",
            paper_ref: "Figure 2(a)",
            title: "CDF of broadcast duration and average viewers",
            run: fig2a,
        },
        Experiment {
            id: "fig2b",
            paper_ref: "Figure 2(b)",
            title: "Average viewers per broadcast vs local start hour",
            run: fig2b,
        },
        Experiment {
            id: "table-usage",
            paper_ref: "§4 statistics",
            title: "Usage-pattern statistics (zero-viewer share, durations, correlation)",
            run: table_usage,
        },
        Experiment {
            id: "fig3a",
            paper_ref: "Figure 3(a)",
            title: "Stall-ratio CDF for RTMP without bandwidth limiting",
            run: fig3a,
        },
        Experiment {
            id: "fig3b",
            paper_ref: "Figure 3(b)",
            title: "Stall ratio vs bandwidth limit (boxplots)",
            run: fig3b,
        },
        Experiment {
            id: "fig4a",
            paper_ref: "Figure 4(a)",
            title: "Join time vs bandwidth limit (boxplots)",
            run: fig4a,
        },
        Experiment {
            id: "fig4b",
            paper_ref: "Figure 4(b)",
            title: "Playback latency vs bandwidth limit (boxplots)",
            run: fig4b,
        },
        Experiment {
            id: "fig5",
            paper_ref: "Figure 5",
            title: "Video delivery latency CDF: HLS vs RTMP",
            run: fig5,
        },
        Experiment {
            id: "fig6a",
            paper_ref: "Figure 6(a)",
            title: "Video bitrate CDF: HLS vs RTMP",
            run: fig6a,
        },
        Experiment {
            id: "fig6b",
            paper_ref: "Figure 6(b)",
            title: "Average QP vs bitrate scatter",
            run: fig6b,
        },
        Experiment {
            id: "table-video",
            paper_ref: "§5.2 statistics",
            title: "Frame patterns, I-interval, segment durations, audio bitrate",
            run: table_video,
        },
        Experiment {
            id: "fig7",
            paper_ref: "Figure 7",
            title: "Average power consumption per scenario (WiFi/LTE)",
            run: fig7,
        },
        Experiment {
            id: "table-chat",
            paper_ref: "§5.1 chat traffic",
            title: "Chat on/off aggregate traffic rates and picture re-downloads",
            run: table_chat,
        },
        Experiment {
            id: "table-protocol",
            paper_ref: "§5 protocol split",
            title: "HLS threshold, server fleet sizes, session counts",
            run: table_protocol,
        },
        Experiment {
            id: "table-ttest",
            paper_ref: "§5 Welch t-tests",
            title: "Galaxy S3 vs S4 device comparison",
            run: table_ttest,
        },
        Experiment {
            id: "table-latency",
            paper_ref: "§5.1 latency anatomy",
            title: "Playback latency decomposition: delivery vs buffering",
            run: table_latency,
        },
        Experiment {
            id: "table-api",
            paper_ref: "Table 1",
            title: "Relevant Periscope API commands",
            run: table_api,
        },
    ]
}

/// Looks up an experiment by id.
pub fn by_id(id: &str) -> Option<Experiment> {
    all().into_iter().find(|e| e.id == id)
}

// ---------------------------------------------------------------- crawling

/// UTC hours the four crawls start at (the paper crawled at different
/// times of day).
const CRAWL_HOURS: [f64; 4] = [2.0, 8.0, 14.0, 20.0];

fn fig1a(lab: &mut Lab) -> FigureData {
    let series = CRAWL_HOURS
        .iter()
        .zip(lab.deep_crawls_at(&CRAWL_HOURS))
        .map(|(&h, crawl)| {
            let pts =
                crawl.cumulative_curve().into_iter().map(|(q, c)| (q as f64, c as f64)).collect();
            (format!("crawl@{h:02.0}h"), pts)
        })
        .collect();
    FigureData::Scatter {
        x_label: "areas queried".to_string(),
        y_label: "live broadcasts found".to_string(),
        series,
    }
}

fn fig1b(lab: &mut Lab) -> FigureData {
    let series = CRAWL_HOURS
        .iter()
        .zip(lab.deep_crawls_at(&CRAWL_HOURS))
        .map(|(&h, crawl)| {
            let pts = crawl
                .concentration_curve()
                .into_iter()
                .map(|(a, b)| (a * 100.0, b * 100.0))
                .collect();
            (format!("crawl@{h:02.0}h"), pts)
        })
        .collect();
    FigureData::Scatter {
        x_label: "areas queried (%)".to_string(),
        y_label: "live broadcasts found (%)".to_string(),
        series,
    }
}

fn fig2a(lab: &mut Lab) -> FigureData {
    let crawl = lab.targeted_crawl_at(12.0);
    let ended = crawl.ended_broadcasts();
    let (dur, viewers) =
        pscp_crawler::analysis::fig2a_cdfs(&ended).expect("crawl yields observations");
    FigureData::Cdf {
        x_label: "duration (min) / avg viewers".to_string(),
        series: vec![
            ("duration".to_string(), dur.sampled(60)),
            ("viewers".to_string(), viewers.sampled(60)),
        ],
    }
}

fn fig2b(lab: &mut Lab) -> FigureData {
    // Pool several crawls at different phases so every local hour is
    // populated, as the paper's four 4-10 h crawls jointly cover the day.
    let mut sums = [0.0f64; 24];
    let mut counts = [0u32; 24];
    for crawl in lab.targeted_crawls_at(&CRAWL_HOURS) {
        let ended = crawl.ended_broadcasts();
        for (hour, avg) in
            pscp_crawler::analysis::fig2b_viewers_by_local_hour(&ended, crawl.utc_start_hour)
        {
            sums[hour as usize] += avg;
            counts[hour as usize] += 1;
        }
    }
    let pts: Vec<(f64, f64)> = (0..24)
        .filter(|&h| counts[h] > 0)
        .map(|h| (h as f64, sums[h] / counts[h] as f64))
        .collect();
    FigureData::Scatter {
        x_label: "local time of day (h)".to_string(),
        y_label: "avg viewers per broadcast".to_string(),
        series: vec![("viewers".to_string(), pts)],
    }
}

fn table_usage(lab: &mut Lab) -> FigureData {
    let crawl = lab.targeted_crawl_at(12.0);
    let ended = crawl.ended_broadcasts();
    let stats = pscp_crawler::analysis::usage_stats(&ended).expect("enough observations");
    FigureData::Table {
        columns: vec!["stat".to_string(), "value".to_string(), "paper".to_string()],
        rows: vec![
            vec![
                "broadcasts observed".into(),
                stats.n_broadcasts.to_string(),
                "~220K (4 crawls)".into(),
            ],
            vec!["median duration (min)".into(), fnum(stats.median_duration_min, 2), "~4".into()],
            vec![
                "fraction 1-10 min".into(),
                fnum(stats.frac_duration_1_to_10_min, 3),
                "most".into(),
            ],
            vec![
                "fraction <20 viewers".into(),
                fnum(stats.frac_under_20_viewers, 3),
                ">0.9".into(),
            ],
            vec!["fraction zero viewers".into(), fnum(stats.frac_zero_viewers, 3), ">0.1".into()],
            vec![
                "zero-viewer unreplayable".into(),
                fnum(stats.frac_zero_viewer_unreplayable, 3),
                ">0.8".into(),
            ],
            vec![
                "zero-viewer avg duration (min)".into(),
                fnum(stats.zero_viewer_avg_duration_min, 2),
                "~2".into(),
            ],
            vec![
                "viewed avg duration (min)".into(),
                fnum(stats.viewed_avg_duration_min, 2),
                "~13".into(),
            ],
            vec![
                "zero-viewer time share".into(),
                fnum(stats.zero_viewer_time_share, 3),
                "~0.02".into(),
            ],
            vec![
                "duration-popularity correlation".into(),
                fnum(stats.duration_popularity_correlation, 3),
                "very weak".into(),
            ],
        ],
    }
}

// -------------------------------------------------------------------- QoE

fn fig3a(lab: &mut Lab) -> FigureData {
    let dataset = lab.session_dataset();
    let ratios = SessionDataset::stall_ratios(&dataset.unlimited(Protocol::Rtmp));
    let ecdf = Ecdf::new(&ratios).expect("rtmp sessions exist");
    FigureData::Cdf {
        x_label: "stall ratio".to_string(),
        series: vec![("RTMP (no limit)".to_string(), ecdf.steps())],
    }
}

fn sweep_labels(lab: &Lab) -> Vec<f64> {
    let mut limits = lab.config.limits_mbps.clone();
    limits.push(100.0); // the paper plots unlimited as "100"
    limits
}

fn boxplot_figure(
    lab: &mut Lab,
    metric_name: &str,
    metric: fn(&[&pscp_client::SessionOutcome]) -> Vec<f64>,
    rtmp_only: bool,
) -> FigureData {
    let limits = sweep_labels(lab);
    let dataset = lab.session_dataset();
    let groups = limits
        .iter()
        .filter_map(|&l| {
            let group: Vec<&pscp_client::SessionOutcome> = if l >= 100.0 {
                dataset.sessions.iter().filter(|s| s.bandwidth_limit_bps.is_none()).collect()
            } else {
                dataset.at_limit(l)
            };
            let group: Vec<&pscp_client::SessionOutcome> = if rtmp_only {
                group.into_iter().filter(|s| s.protocol == Protocol::Rtmp).collect()
            } else {
                group
            };
            let values = metric(&group);
            pscp_stats::BoxplotSummary::of(&values)
                .ok()
                .map(|s| BoxRow::from((fnum(l, 1).as_str(), &s)))
        })
        .collect();
    FigureData::Boxplots {
        group_label: "bandwidth limit (Mbps; 100 = unlimited)".to_string(),
        metric: metric_name.to_string(),
        groups,
    }
}

fn fig3b(lab: &mut Lab) -> FigureData {
    boxplot_figure(lab, "stall ratio (RTMP)", SessionDataset::stall_ratios, true)
}

fn fig4a(lab: &mut Lab) -> FigureData {
    boxplot_figure(lab, "join time (s, RTMP)", SessionDataset::join_times_s, true)
}

fn fig4b(lab: &mut Lab) -> FigureData {
    boxplot_figure(lab, "playback latency (s, RTMP)", SessionDataset::playback_latencies_s, true)
}

fn fig5(lab: &mut Lab) -> FigureData {
    let dataset = lab.session_dataset();
    let mut series = Vec::new();
    for protocol in [Protocol::Hls, Protocol::Rtmp] {
        let latencies: Vec<f64> =
            dataset.analyzed(protocol).filter_map(|(_, r)| r.mean_delivery_latency_s()).collect();
        if let Ok(ecdf) = Ecdf::new(&latencies) {
            series.push((protocol.name().to_string(), ecdf.sampled(50)));
        }
    }
    FigureData::Cdf { x_label: "video delivery latency (s)".to_string(), series }
}

fn fig6a(lab: &mut Lab) -> FigureData {
    let dataset = lab.session_dataset();
    let mut series = Vec::new();
    for protocol in [Protocol::Hls, Protocol::Rtmp] {
        let rates: Vec<f64> =
            dataset.analyzed(protocol).map(|(_, r)| r.bitrate_bps / 1e6).collect();
        if let Ok(ecdf) = Ecdf::new(&rates) {
            series.push((protocol.name().to_string(), ecdf.sampled(50)));
        }
    }
    FigureData::Cdf { x_label: "bitrate (Mbit/s)".to_string(), series }
}

fn fig6b(lab: &mut Lab) -> FigureData {
    let dataset = lab.session_dataset();
    let mut series = Vec::new();
    for protocol in [Protocol::Hls, Protocol::Rtmp] {
        let pts: Vec<(f64, f64)> =
            dataset.analyzed(protocol).map(|(_, r)| (r.bitrate_bps / 1e6, r.avg_qp)).collect();
        if !pts.is_empty() {
            series.push((protocol.name().to_string(), pts));
        }
    }
    FigureData::Scatter {
        x_label: "bitrate (Mbit/s)".to_string(),
        y_label: "avg QP".to_string(),
        series,
    }
}

fn table_video(lab: &mut Lab) -> FigureData {
    let dataset = lab.session_dataset();
    let reports = |protocol| dataset.analyzed(protocol).map(|(_, r)| r).collect::<Vec<_>>();
    let (rtmp, hls) = (reports(Protocol::Rtmp), reports(Protocol::Hls));
    let gop_frac = |reports: &[&StreamReport], class: GopClass| {
        if reports.is_empty() {
            return 0.0;
        }
        reports.iter().filter(|r| r.gop == class).count() as f64 / reports.len() as f64
    };
    let mean =
        |xs: &[f64]| if xs.is_empty() { 0.0 } else { xs.iter().sum::<f64>() / xs.len() as f64 };
    let i_intervals: Vec<f64> = rtmp.iter().chain(&hls).map(|r| r.i_interval).collect();
    let seg_durations: Vec<f64> =
        hls.iter().flat_map(|r| r.segment_durations_s.iter().copied()).collect();
    let modal_3_6 = if seg_durations.is_empty() {
        0.0
    } else {
        seg_durations.iter().filter(|&&d| (3.3..=3.9).contains(&d)).count() as f64
            / seg_durations.len() as f64
    };
    let audio_rates: Vec<f64> =
        rtmp.iter().chain(&hls).filter_map(|r| r.audio_bitrate_bps).map(|b| b / 1000.0).collect();
    let seg_min = seg_durations.iter().cloned().fold(f64::INFINITY, f64::min);
    let seg_max = seg_durations.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    FigureData::Table {
        columns: vec!["stat".to_string(), "value".to_string(), "paper".to_string()],
        rows: vec![
            vec![
                "RTMP I+P-only fraction".into(),
                fnum(gop_frac(&rtmp, GopClass::IpOnly), 3),
                "0.200".into(),
            ],
            vec![
                "HLS I+P-only fraction".into(),
                fnum(gop_frac(&hls, GopClass::IpOnly), 3),
                "0.184".into(),
            ],
            vec![
                "I-only streams".into(),
                format!("{}", rtmp.iter().chain(&hls).filter(|r| r.gop == GopClass::IOnly).count()),
                "2".into(),
            ],
            vec!["mean I-frame interval".into(), fnum(mean(&i_intervals), 1), "~36".into()],
            vec!["segment durations at 3.6s".into(), fnum(modal_3_6, 3), "0.60".into()],
            vec![
                "segment duration range (s)".into(),
                format!("{}..{}", fnum(seg_min, 1), fnum(seg_max, 1)),
                "3..6".into(),
            ],
            vec![
                "mean audio bitrate (kbps)".into(),
                fnum(mean(&audio_rates), 1),
                "32 or 64".into(),
            ],
            vec![
                "resolution".into(),
                rtmp.first().map(|r| format!("{}x{}", r.width, r.height)).unwrap_or_default(),
                "320x568".into(),
            ],
        ],
    }
}

// ------------------------------------------------------------------ energy

fn fig7(lab: &mut Lab) -> FigureData {
    let model = PowerModel::default();
    let mut trace = lab.observer().trace();
    let table = pscp_energy::scenarios::figure7_traced(&model, &mut trace);
    if lab.observer().tracing() {
        lab.observer().absorb("energy", trace);
    }
    FigureData::Bars {
        group_label: "scenario".to_string(),
        bar_names: vec![
            "WiFi (model)".to_string(),
            "LTE (model)".to_string(),
            "WiFi (paper)".to_string(),
            "LTE (paper)".to_string(),
        ],
        groups: table
            .into_iter()
            .map(|(s, wifi, lte)| {
                let (pw, pl) = s.paper_mw();
                (s.label().to_string(), vec![wifi, lte, pw, pl])
            })
            .collect(),
    }
}

fn table_chat(lab: &mut Lab) -> FigureData {
    use pscp_client::session::{self, SessionConfig};
    use pscp_media::capture::FlowKind;
    // A popular (active chat) broadcast watched twice: chat off, chat on.
    let svc = lab.service();
    let t = pscp_simnet::SimTime::from_secs(600);
    let broadcast = svc
        .population
        .live_at(t)
        .into_iter()
        .filter(|b| b.viewers_at(t) > 80)
        .max_by_key(|b| b.viewers_at(t))
        .or_else(|| svc.population.live_at(t).into_iter().max_by_key(|b| b.viewers_at(t)))
        .expect("population has live broadcasts")
        .clone();
    let rngs = lab.rngs().child("chat-experiment");
    let run = |chat_on: bool| {
        let cfg = SessionConfig { chat_on, ..Default::default() };
        session::run(Protocol::Rtmp, &broadcast, t, &cfg, &rngs)
    };
    let off = run(false);
    let on = run(true);
    let rate = |o: &pscp_client::SessionOutcome| o.traffic_bps / 1e3;
    let pic_flows = on.capture.flows_of_kind(FlowKind::PictureHttp);
    let pic_bytes: usize = pic_flows.iter().map(|f| f.byte_count()).sum();
    FigureData::Table {
        columns: vec!["stat".to_string(), "value".to_string(), "paper".to_string()],
        rows: vec![
            vec!["aggregate rate chat off (kbps)".into(), fnum(rate(&off), 0), "~500".into()],
            vec!["aggregate rate chat on (kbps)".into(), fnum(rate(&on), 0), "up to 3500".into()],
            vec![
                "rate increase factor".into(),
                fnum(rate(&on) / rate(&off).max(1.0), 2),
                "~7x in one experiment".into(),
            ],
            vec!["picture bytes (chat on)".into(), pic_bytes.to_string(), "dominant".into()],
            vec!["broadcast viewers".into(), on.viewers_at_join.to_string(), String::new()],
        ],
    }
}

// ---------------------------------------------------------------- protocol

fn table_protocol(lab: &mut Lab) -> FigureData {
    let dataset = lab.session_dataset();
    let rtmp_servers = dataset.distinct_servers(Protocol::Rtmp);
    let hls_servers = dataset.distinct_servers(Protocol::Hls);
    let rtmp_mean = dataset.mean_viewers_at_join(Protocol::Rtmp).unwrap_or(0.0);
    let hls_mean = dataset.mean_viewers_at_join(Protocol::Hls).unwrap_or(0.0);
    FigureData::Table {
        columns: vec!["stat".to_string(), "value".to_string(), "paper".to_string()],
        rows: vec![
            vec![
                "RTMP sessions".into(),
                dataset.by_protocol(Protocol::Rtmp).len().to_string(),
                "1796 (unlimited)".into(),
            ],
            vec![
                "HLS sessions".into(),
                dataset.by_protocol(Protocol::Hls).len().to_string(),
                "1586 (unlimited)".into(),
            ],
            vec!["distinct RTMP servers".into(), rtmp_servers.len().to_string(), "87".into()],
            vec!["distinct HLS endpoints".into(), hls_servers.len().to_string(), "2".into()],
            vec!["mean viewers at join (RTMP)".into(), fnum(rtmp_mean, 1), "<100".into()],
            vec!["mean viewers at join (HLS)".into(), fnum(hls_mean, 1), ">100".into()],
            vec![
                "HLS viewer threshold".into(),
                lab.config.service.selection.hls_viewer_threshold.to_string(),
                "~100".into(),
            ],
        ],
    }
}

fn table_ttest(lab: &mut Lab) -> FigureData {
    let dataset = lab.session_dataset();
    let rows = device_comparison(&dataset)
        .into_iter()
        .map(|c| match c.result {
            Some(r) => vec![
                c.metric.to_string(),
                fnum(r.t, 3),
                fnum(r.df, 1),
                fnum(r.p_value, 4),
                if c.significant() { "YES".to_string() } else { "no".to_string() },
            ],
            None => vec![c.metric.to_string(), "-".into(), "-".into(), "-".into(), "-".into()],
        })
        .collect();
    FigureData::Table {
        columns: vec![
            "metric".to_string(),
            "t".to_string(),
            "df".to_string(),
            "p".to_string(),
            "significant@0.05".to_string(),
        ],
        rows,
    }
}

fn table_latency(lab: &mut Lab) -> FigureData {
    // §5.1: "RTMP stream delivery is very fast happening in less than 300ms
    // for 75% of broadcasts on average, which means that the majority of
    // the few seconds of playback latency with those streams comes from
    // buffering."
    let dataset = lab.session_dataset();
    let pairs = dataset
        .analyzed(Protocol::Rtmp)
        .filter_map(|(s, r)| r.mean_delivery_latency_s().zip(s.meta().playback_latency_s));
    let mut delivery = Vec::new();
    let mut playback = Vec::new();
    for (d, pl) in pairs {
        delivery.push(d);
        playback.push(pl);
    }
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            f64::NAN
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let p75 = |xs: &[f64]| pscp_stats::quantile(xs, 0.75).unwrap_or(f64::NAN);
    let d_mean = mean(&delivery);
    let p_mean = mean(&playback);
    let buffering = p_mean - d_mean;
    FigureData::Table {
        columns: vec!["stat".to_string(), "value".to_string(), "paper".to_string()],
        rows: vec![
            vec!["sessions decomposed".into(), delivery.len().to_string(), String::new()],
            vec!["RTMP delivery latency p75 (s)".into(), fnum(p75(&delivery), 3), "<0.3".into()],
            vec!["RTMP delivery latency mean (s)".into(), fnum(d_mean, 3), "fast".into()],
            vec!["RTMP playback latency mean (s)".into(), fnum(p_mean, 3), "a few seconds".into()],
            vec![
                "buffering share of playback latency".into(),
                fnum(buffering / p_mean, 3),
                "the majority".into(),
            ],
        ],
    }
}

fn table_api(_lab: &mut Lab) -> FigureData {
    FigureData::Table {
        columns: vec![
            "API request".to_string(),
            "request contents".to_string(),
            "response contents".to_string(),
        ],
        rows: vec![
            vec![
                "mapGeoBroadcastFeed".into(),
                "Coordinates of a rectangle shaped geographical area".into(),
                "List of broadcasts located inside the area".into(),
            ],
            vec![
                "getBroadcasts".into(),
                "List of 13-character broadcast IDs".into(),
                "Descriptions of broadcast IDs (incl. nb of viewers)".into(),
            ],
            vec!["playbackMeta".into(), "Playback statistics".into(), "nothing".into()],
            vec![
                "accessVideo".into(),
                "Broadcast ID".into(),
                "Stream endpoints (RTMP URL or HLS playlist)".into(),
            ],
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::LabConfig;

    fn lab() -> Lab {
        Lab::new(LabConfig::small(1234))
    }

    #[test]
    fn registry_ids_unique_and_resolvable() {
        let exps = all();
        assert_eq!(exps.len(), 19);
        let ids: std::collections::HashSet<&str> = exps.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), exps.len());
        assert!(by_id("fig5").is_some());
        assert!(by_id("nonsense").is_none());
    }

    #[test]
    fn table_api_matches_table1() {
        let mut lab = lab();
        let f = table_api(&mut lab);
        let text = f.render();
        assert!(text.contains("mapGeoBroadcastFeed"));
        assert!(text.contains("13-character"));
        assert!(text.contains("nothing"));
    }

    #[test]
    fn fig7_shapes() {
        let mut lab = lab();
        let f = fig7(&mut lab);
        match &f {
            FigureData::Bars { groups, bar_names, .. } => {
                assert_eq!(groups.len(), 7);
                assert_eq!(bar_names.len(), 4);
                // Chat-on is the hungriest viewing scenario in the model too.
                let chat =
                    groups.iter().find(|(g, _)| g.contains("chat on")).map(|(_, v)| v[0]).unwrap();
                let rtmp =
                    groups.iter().find(|(g, _)| g.contains("RTMP")).map(|(_, v)| v[0]).unwrap();
                assert!(chat > rtmp + 1000.0);
            }
            other => panic!("expected bars, got {other:?}"),
        }
    }

    #[test]
    fn fig3a_cdf_mostly_zero_stalls() {
        let mut lab = lab();
        let f = fig3a(&mut lab);
        match &f {
            FigureData::Cdf { series, .. } => {
                let pts = &series[0].1;
                // F(0.01) — the fraction of sessions with essentially no
                // stalling — should be the majority.
                let near_zero =
                    pts.iter().filter(|(x, _)| *x <= 0.01).map(|(_, f)| *f).fold(0.0f64, f64::max);
                assert!(near_zero > 0.5, "near_zero={near_zero}");
            }
            other => panic!("expected cdf, got {other:?}"),
        }
    }

    #[test]
    fn fig5_hls_slower_than_rtmp() {
        let mut lab = lab();
        let f = fig5(&mut lab);
        let median = |pts: &[(f64, f64)]| {
            pts.iter().find(|(_, f)| *f >= 0.5).map(|(x, _)| *x).unwrap_or(f64::NAN)
        };
        let hls = f.cdf_series("HLS").map(median);
        let rtmp = f.cdf_series("RTMP").map(median);
        if let (Some(h), Some(r)) = (hls, rtmp) {
            assert!(h > r * 3.0, "hls={h} rtmp={r}");
            assert!(r < 1.0, "rtmp median {r}");
        } else {
            panic!("both protocols expected in fig5: {f:?}");
        }
    }

    #[test]
    fn table_protocol_counts() {
        let mut lab = lab();
        let f = table_protocol(&mut lab);
        let rtmp: usize = f.table_value("RTMP sessions").unwrap().parse().unwrap();
        let hls: usize = f.table_value("HLS sessions").unwrap().parse().unwrap();
        assert!(rtmp + hls >= 40);
        let rtmp_servers: usize = f.table_value("distinct RTMP servers").unwrap().parse().unwrap();
        let hls_servers: usize = f.table_value("distinct HLS endpoints").unwrap().parse().unwrap();
        assert!(rtmp_servers > hls_servers);
        assert!(hls_servers <= 2);
    }
}
