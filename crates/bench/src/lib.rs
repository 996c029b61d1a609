//! The `repro` harness: the front door that regenerates every paper
//! figure and table and drives the studies built on them.
//!
//! `repro` itself is [`cli::main`]: one parser and one error path over the
//! one table of verbs in [`verbs`] — `repro list` prints it, and it is the
//! only place a verb is named (DESIGN.md §17). [`run`] holds what the
//! verbs do, [`experiments_md`] renders the EXPERIMENTS.md record, and the
//! remaining modules are the studies themselves: the ablations DESIGN.md §4
//! calls out (the functions of this file), the [`micro`] component benches
//! and the [`diff`] gate over their artifacts, the [`watch`] live SLO
//! monitor (DESIGN.md §11) and the [`scale`] sweep (DESIGN.md §13).

pub mod cli;
pub mod diff;
pub mod experiments_md;
pub mod micro;
pub mod run;
pub mod scale;
pub mod verbs;
pub mod watch;

use pscp_client::player::PlayerConfig;
use pscp_client::session::SessionConfig;
use pscp_client::{SessionOutcome, Teleport, TeleportConfig};
use pscp_core::{Lab, LabConfig};
use pscp_energy::model::{PowerModel, Radio};
use pscp_service::directory::VisibilityConfig;
use pscp_service::select::Protocol;
use pscp_simnet::SimTime;
use pscp_stats::table::{fnum, TextTable};

/// Parses a `--scale` argument into a [`LabConfig`].
pub fn lab_config(scale: &str, seed: u64) -> Result<LabConfig, String> {
    match scale {
        "small" => Ok(LabConfig::small(seed)),
        "medium" => Ok(LabConfig::medium(seed)),
        "paper" => Ok(LabConfig::paper(seed)),
        other => Err(format!("unknown scale '{other}' (small|medium|paper)")),
    }
}

/// Ablation: HLS/RTMP player buffer thresholds vs stalls and latency.
///
/// §5.1 closes with "It is possible that the buffer sizing strategy causes
/// the difference in the number of stall events between the two protocols
/// but we cannot confirm this at the moment." Here we can: sweep the
/// initial/resume thresholds and watch the stall-vs-latency trade-off.
pub fn ablation_buffer(lab: &mut Lab, sessions: usize) -> String {
    let mut table = TextTable::new([
        "player",
        "initial(s)",
        "resume(s)",
        "sessions",
        "mean stalls",
        "mean latency(s)",
    ]);
    let rngs = *lab.rngs();
    let svc = lab.service();
    for (label, initial, resume) in [
        ("rtmp-tiny", 0.5, 0.4),
        ("rtmp-default", 1.6, 1.0),
        ("rtmp-deep", 4.0, 2.5),
        ("hls-like", 6.0, 3.6),
        ("hls-deep", 10.0, 7.2),
    ] {
        let tp = Teleport::new(svc, rngs.child(&format!("ablation-buffer-{label}")));
        let player = PlayerConfig { initial_buffer_s: initial, resume_buffer_s: resume };
        let outcomes = tp.run_dataset(&TeleportConfig {
            sessions,
            session: SessionConfig {
                player_rtmp: player,
                player_hls: player,
                ..Default::default()
            },
            ..Default::default()
        });
        let n = outcomes.len().max(1);
        let stalls: f64 = outcomes.iter().map(|o| o.meta.n_stalls as f64).sum::<f64>() / n as f64;
        let latency: f64 = {
            let xs: Vec<f64> = outcomes.iter().filter_map(|o| o.player.mean_latency_s()).collect();
            if xs.is_empty() {
                f64::NAN
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        table.row([
            label.to_string(),
            fnum(initial, 1),
            fnum(resume, 1),
            outcomes.len().to_string(),
            fnum(stalls, 2),
            fnum(latency, 2),
        ]);
    }
    format!(
        "Deeper buffers trade stalls for latency — the paper's §5.1 speculation:\n{}",
        table.render()
    )
}

/// Ablation: map visibility caps vs deep-crawl effectiveness (DESIGN §4:
/// the zoom-dependent cap is what forces deep crawls).
pub fn ablation_visibility(lab: &Lab) -> String {
    let mut table =
        TextTable::new(["base cap", "cap/zoom", "queries", "broadcasts found", "found per query"]);
    for (base, per_zoom) in [(10, 4), (30, 16), (60, 40), (400, 400)] {
        let mut svc = lab.service_at_hour(14.0);
        // Rebuild the service with a different visibility model.
        let config = pscp_service::ServiceConfig {
            visibility: VisibilityConfig { base_cap: base, cap_per_zoom: per_zoom, max_cap: 2000 },
            ..Default::default()
        };
        let mut svc2 = pscp_service::PeriscopeService::new(
            std::mem::replace(
                &mut svc,
                pscp_service::PeriscopeService::new(
                    pscp_workload::population::Population::generate(
                        pscp_workload::population::PopulationConfig::small(),
                        &lab.rngs().child("ablation-throwaway"),
                    ),
                    Default::default(),
                ),
            )
            .population,
            config,
        );
        let crawl = pscp_crawler::DeepCrawl::run(
            &mut svc2,
            &pscp_crawler::DeepCrawlConfig::default(),
            SimTime::from_secs(120),
        );
        let queries = crawl.steps.len();
        let found = crawl.discovered.len();
        table.row([
            base.to_string(),
            per_zoom.to_string(),
            queries.to_string(),
            found.to_string(),
            fnum(found as f64 / queries.max(1) as f64, 1),
        ]);
    }
    format!("Tighter visibility caps force more queries for the same coverage:\n{}", table.render())
}

/// Ablation: profile-picture caching vs traffic and power — the mitigation
/// §5.3 proposes ("The energy overhead of chat could be mitigated by
/// caching profile pictures").
pub fn ablation_cache(lab: &mut Lab, sessions: usize) -> String {
    let mut table = TextTable::new([
        "picture cache",
        "sessions",
        "mean rate (kbps)",
        "mean power WiFi (mW)",
        "mean power LTE (mW)",
    ]);
    let rngs = *lab.rngs();
    let svc = lab.service();
    let model = PowerModel::default();
    for cache in [false, true] {
        let tp = Teleport::new(svc, rngs.child(&format!("ablation-cache-{cache}")));
        let outcomes = tp.run_dataset(&TeleportConfig {
            sessions,
            session: SessionConfig { chat_on: true, picture_cache: cache, ..Default::default() },
            ..Default::default()
        });
        let n = outcomes.len().max(1) as f64;
        let rate: f64 = outcomes.iter().map(|o| o.traffic_bps / 1e3).sum::<f64>() / n;
        let power = |radio: Radio| {
            outcomes
                .iter()
                .map(|o| pscp_energy::session::session_power_mw(&model, o, radio, true))
                .sum::<f64>()
                / n
        };
        table.row([
            if cache { "on" } else { "off (the app's behaviour)" }.to_string(),
            outcomes.len().to_string(),
            fnum(rate, 0),
            fnum(power(Radio::Wifi), 0),
            fnum(power(Radio::Lte), 0),
        ]);
    }
    format!("The paper's proposed mitigation, quantified:\n{}", table.render())
}

/// Sessions per protocol whose capture the MTU and threshold ablations
/// analyse for delivery latency.
const ANALYZED_PER_PROTOCOL: usize = 8;

/// Mean capture delivery latency of each analysed `protocol` session, in
/// dataset order.
fn delivery_latencies(outcomes: &[SessionOutcome], protocol: Protocol) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| o.protocol == protocol)
        .filter_map(|o| o.stream.as_ref()?.mean_delivery_latency_s())
        .collect()
}

/// Ablation: network packet granularity (MTU) vs the latency metrics.
///
/// DESIGN.md §4 calls the flow/packet hybrid a design decision: this sweep
/// shows how much the packetization grain actually moves the measured
/// delivery latency and join time (answer: little at Ethernet-scale MTUs,
/// which is what justifies the hybrid).
pub fn ablation_mtu(seed: u64, sessions: usize) -> String {
    use pscp_client::device::NetworkSetup;
    let mut table =
        TextTable::new(["mtu (bytes)", "sessions", "mean join (s)", "mean delivery RTMP (s)"]);
    for mtu in [368usize, 1448, 9000] {
        let mut lab = Lab::new(LabConfig::small(seed));
        let rngs = *lab.rngs();
        let svc = lab.service();
        let tp = Teleport::new(svc, rngs.child("ablation-mtu"));
        let network = NetworkSetup { mtu, ..NetworkSetup::finland_unlimited() };
        let outcomes = tp.run_dataset(&TeleportConfig {
            sessions,
            session: SessionConfig { network, ..Default::default() },
            analyze_per_protocol: ANALYZED_PER_PROTOCOL,
            ..Default::default()
        });
        let joins: Vec<f64> = outcomes.iter().filter_map(|o| o.join_time_s()).collect();
        let deliveries = delivery_latencies(&outcomes, Protocol::Rtmp);
        let mean = |xs: &[f64]| {
            if xs.is_empty() {
                f64::NAN
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        table.row([
            mtu.to_string(),
            outcomes.len().to_string(),
            fnum(mean(&joins), 3),
            fnum(mean(&deliveries), 3),
        ]);
    }
    format!(
        "Packetization grain barely moves the figures at realistic MTUs:
{}",
        table.render()
    )
}

/// Ablation: HLS viewer threshold vs the protocol mix and QoE split.
pub fn ablation_threshold(seed: u64, sessions: usize) -> String {
    let mut table = TextTable::new([
        "HLS threshold",
        "RTMP sessions",
        "HLS sessions",
        "mean delivery RTMP(s)",
        "mean delivery HLS(s)",
    ]);
    for threshold in [10u32, 100, 1000] {
        let mut config = LabConfig::small(seed);
        config.service.selection.hls_viewer_threshold = threshold;
        let mut lab = Lab::new(config);
        let rngs = *lab.rngs();
        let svc = lab.service();
        let tp = Teleport::new(svc, rngs.child("ablation-threshold"));
        let outcomes = tp.run_dataset(&TeleportConfig {
            sessions,
            analyze_per_protocol: ANALYZED_PER_PROTOCOL,
            ..Default::default()
        });
        let split = |p: Protocol| outcomes.iter().filter(|o| o.protocol == p).count();
        let delivery = |p: Protocol| {
            let xs = delivery_latencies(&outcomes, p);
            if xs.is_empty() {
                f64::NAN
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        table.row([
            threshold.to_string(),
            split(Protocol::Rtmp).to_string(),
            split(Protocol::Hls).to_string(),
            fnum(delivery(Protocol::Rtmp), 2),
            fnum(delivery(Protocol::Hls), 2),
        ]);
    }
    format!(
        "Lower thresholds push more sessions onto the high-latency CDN path:\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert!(lab_config("small", 1).is_ok());
        assert!(lab_config("paper", 1).is_ok());
        assert!(lab_config("huge", 1).is_err());
    }

    #[test]
    fn buffer_ablation_produces_rows() {
        let mut lab = Lab::new(LabConfig::small(9));
        let out = ablation_buffer(&mut lab, 4);
        assert!(out.contains("rtmp-default"));
        assert!(out.contains("hls-deep"));
    }

    #[test]
    fn cache_ablation_produces_rows() {
        let mut lab = Lab::new(LabConfig::small(10));
        let out = ablation_cache(&mut lab, 4);
        assert!(out.contains("off (the app's behaviour)"));
        assert!(out.contains("on"));
    }
}
