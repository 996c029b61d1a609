//! Golden snapshots of the headline seed-2016 statistics.
//!
//! These pin the *numbers* (not just the shapes checked by
//! `paper_findings.rs`) so any change to the RNG, the workload model or the
//! session pipeline shows up as an explicit test diff rather than a silent
//! drift of the EXPERIMENTS.md baseline. Every constant is the exact value
//! produced by `LabConfig::small(2016)`; a deliberate re-baseline updates
//! these together with EXPERIMENTS.md (DESIGN.md §9 documents the one such
//! re-baseline, when the external `rand` crate was replaced by the in-tree
//! counter RNG).
//!
//! Floats are compared with `==`: the pipeline is deterministic, so the
//! correct value is bit-exact, and any inexactness is exactly the drift
//! this suite exists to catch.

use periscope_repro::core::chaos::{run_chaos, ChaosConfig};
use periscope_repro::core::{experiments, FigureData, Lab, LabConfig};
use periscope_repro::qoe::dataset::SessionDataset;
use periscope_repro::service::select::Protocol;
use periscope_repro::stats::quantile::quantiles;

const SEED: u64 = 2016;

/// Fig 1(a): cumulative broadcasts discovered by the deep crawl, per
/// crawl hour — first query's yield, final cumulative count, query count.
#[test]
fn fig1a_discovery_counts() {
    let mut lab = Lab::new(LabConfig::small(SEED));
    let fig = (experiments::by_id("fig1a").unwrap().run)(&mut lab);
    let FigureData::Scatter { series, .. } = &fig else { panic!("scatter expected") };
    let golden: &[(&str, usize, f64, f64)] = &[
        ("crawl@02h", 21, 30.0, 101.0),
        ("crawl@08h", 33, 30.0, 137.0),
        ("crawl@14h", 33, 30.0, 149.0),
        ("crawl@20h", 41, 30.0, 166.0),
    ];
    assert_eq!(series.len(), golden.len(), "crawl-hour series count changed");
    for ((label, pts), (g_label, g_n, g_first, g_last)) in series.iter().zip(golden) {
        assert_eq!(label, g_label);
        assert_eq!(pts.len(), *g_n, "{label}: query count changed");
        assert_eq!(pts.first().unwrap().1, *g_first, "{label}: first query's yield changed");
        assert_eq!(pts.last().unwrap().1, *g_last, "{label}: cumulative discovery count changed");
    }
}

/// §5 QoE quantiles: join time over the unlimited-bandwidth RTMP sessions,
/// stall ratio over the bandwidth-sweep groups (unlimited RTMP never
/// stalls at small scale — itself a pinned fact).
#[test]
fn qoe_quantiles() {
    let mut lab = Lab::new(LabConfig::small(SEED));
    let dataset = lab.session_dataset();
    let rtmp = dataset.unlimited(Protocol::Rtmp);
    assert_eq!(rtmp.len(), 21, "unlimited RTMP session count changed");

    let stall = SessionDataset::stall_ratios(&rtmp);
    let join = SessionDataset::join_times_s(&rtmp);
    let ps = [0.25, 0.5, 0.9];
    assert_eq!(quantiles(&stall, &ps).unwrap(), vec![0.0, 0.0, 0.0]);
    assert_eq!(quantiles(&join, &ps).unwrap(), vec![0.524036, 1.757723, 1.787923]);

    // The bandwidth sweep: only the 0.5 Mbps cap (below the ~2 Mbps QoE
    // boundary of §5.1) produces a nonzero median stall ratio.
    let golden: &[(f64, usize, f64)] =
        &[(0.5, 6, 0.05290723990451679), (2.0, 6, 0.0), (6.0, 6, 0.0)];
    for (limit, g_n, g_q50) in golden {
        let group = dataset.at_limit(*limit);
        assert_eq!(group.len(), *g_n, "session count at {limit} Mbps changed");
        let s = SessionDataset::stall_ratios(&group);
        assert_eq!(quantiles(&s, &[0.5]).unwrap()[0], *g_q50, "stall q50 at {limit} Mbps changed");
    }
}

/// Figs 5–6 and the §5.1/§5.2 tables: what the capture analysis produces
/// from the unlimited-bandwidth sessions — per-protocol CDF point counts
/// and medians, scatter point counts, and every value row of both tables.
#[test]
fn capture_analysis_figures() {
    let mut lab = Lab::new(LabConfig::small(SEED));
    let mut run = |id: &str| (experiments::by_id(id).unwrap().run)(&mut lab);
    // The x at which a sampled CDF first reaches one half.
    let median = |pts: &[(f64, f64)]| pts.iter().find(|(_, f)| *f >= 0.5).map(|(x, _)| *x);
    let cdf_golden = [
        ("fig5", [("HLS", 50, 4.04915263122775), ("RTMP", 50, 0.20924220835880958)]),
        ("fig6a", [("HLS", 50, 0.32847906153553613), ("RTMP", 50, 0.30484413338290206)]),
    ];
    for (id, golden) in cdf_golden {
        let FigureData::Cdf { series, .. } = run(id) else { panic!("{id}: cdf expected") };
        let got: Vec<(&str, usize, f64)> = series
            .iter()
            .map(|(label, pts)| (label.as_str(), pts.len(), median(pts).expect("non-empty")))
            .collect();
        assert_eq!(got, golden, "{id}: series, point counts or medians changed");
    }
    let FigureData::Scatter { series, .. } = run("fig6b") else { panic!("fig6b: scatter") };
    let points: Vec<(&str, usize)> =
        series.iter().map(|(label, pts)| (label.as_str(), pts.len())).collect();
    assert_eq!(points, [("HLS", 9), ("RTMP", 21)], "fig6b: analysed sessions per protocol");
    let table_golden: &[(&str, &[(&str, &str)])] = &[
        (
            "table-video",
            &[
                ("RTMP I+P-only fraction", "0.095"),
                ("HLS I+P-only fraction", "0.444"),
                ("I-only streams", "1"),
                ("mean I-frame interval", "35.0"),
                ("segment durations at 3.6s", "0.597"),
                ("segment duration range (s)", "3.6..4.0"),
                ("mean audio bitrate (kbps)", "44.5"),
                ("resolution", "320x568"),
            ],
        ),
        (
            "table-latency",
            &[
                ("sessions decomposed", "21"),
                ("RTMP delivery latency p75 (s)", "0.247"),
                ("RTMP delivery latency mean (s)", "0.226"),
                ("RTMP playback latency mean (s)", "1.963"),
                ("buffering share of playback latency", "0.885"),
            ],
        ),
    ];
    for (id, golden) in table_golden {
        let FigureData::Table { rows, .. } = run(id) else { panic!("{id}: table expected") };
        let got: Vec<(&str, &str)> = rows.iter().map(|r| (r[0].as_str(), r[1].as_str())).collect();
        assert_eq!(got, *golden, "{id}: a value row changed");
    }
}

/// Chaos sweep: exact mean stall ratio per loss scale, and the
/// monotonicity the fault layer guarantees.
#[test]
fn chaos_sweep_points() {
    let mut lab = Lab::new(LabConfig::small(SEED));
    // One selection-policy arm: the pre-transport-study sweep shape, so
    // the golden means below are untouched by the three-way study.
    let cfg = ChaosConfig {
        seed: SEED,
        sessions: 16,
        loss_scales: vec![0.0, 1.0, 4.0],
        transports: vec![None],
        threads: 0,
    };
    let sweep = run_chaos(&mut lab, &cfg);
    let means: Vec<f64> = sweep.points.iter().map(|p| p.mean_stall_ratio()).collect();
    assert_eq!(means, vec![0.0031572212207557323, 0.0031572212207557323, 0.003214353393543745]);
    for w in means.windows(2) {
        assert!(w[1] >= w[0], "stall ratio must be monotone in loss scale: {means:?}");
    }
}
