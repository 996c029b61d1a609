//! Shard-invariance suite (DESIGN.md §13): quadtree sharding must be
//! provably inert. The scale engine's roll-ups are byte-identical across
//! shard counts 1/4/16 and thread counts. A dataset has no shard count —
//! every session is a pure function of its plan entry — so its figures,
//! SLO report and merged QoE sketch snapshot are checked across thread
//! counts alone.
//!
//! Run under the CI thread matrix (`PSCP_THREADS` 1/2/4): every
//! comparison here also crosses explicit thread counts, so one run of
//! this binary checks shards × threads.

use periscope_repro::core::shard::{run_scale, ScaleConfig};
use periscope_repro::core::{experiments, Lab, LabConfig};
use periscope_repro::qoe::telemetry::QoeTelemetry;
use periscope_repro::qoe::{slo, SloSpec};

const SEED: u64 = 2016;

fn lab_with(threads: usize) -> Lab {
    let mut config = LabConfig::small(SEED);
    config.threads = threads;
    Lab::new(config)
}

/// Everything an artifact consumer can see of a dataset run: per-session
/// fingerprints, the SLO report JSON, the merged sketch snapshot, and a
/// rendered figure.
fn artifact_bundle(threads: usize) -> (Vec<String>, String, String, String) {
    let mut lab = lab_with(threads);
    let dataset = lab.session_dataset();
    let fingerprints = dataset
        .sessions
        .iter()
        .map(|s| {
            format!(
                "{:?}|{:?}|{}|{}|{:?}|{:?}",
                s.broadcast_id,
                s.protocol,
                s.meta.n_stalls,
                s.traffic_bps.to_bits(),
                s.join_time_s().map(|j| (j * 1e6) as u64),
                s.bandwidth_limit_bps,
            )
        })
        .collect();
    let slo_json = slo::evaluate(&SloSpec::paper(), &dataset, &[], "sharding-suite").to_json();
    let sketch_snapshot = QoeTelemetry::from_dataset(&dataset).snapshot_json();
    let mut lab2 = lab_with(threads);
    let fig = experiments::by_id("fig3a").expect("fig3a exists");
    let figure = (fig.run)(&mut lab2).render();
    (fingerprints, slo_json, sketch_snapshot, figure)
}

#[test]
fn dataset_figures_slo_and_sketches_invariant_across_threads() {
    let baseline = artifact_bundle(1);
    assert!(!baseline.0.is_empty());
    for threads in [8, 0] {
        let got = artifact_bundle(threads);
        assert_eq!(got.0, baseline.0, "dataset diverged at threads={threads}");
        assert_eq!(got.1, baseline.1, "SLO report diverged at threads={threads}");
        assert_eq!(got.2, baseline.2, "sketch snapshot diverged at threads={threads}");
        assert_eq!(got.3, baseline.3, "figure diverged at threads={threads}");
    }
}

/// The small world the scale-engine tests run on.
fn small_world() -> periscope_repro::service::PeriscopeService {
    let pop = periscope_repro::workload::population::Population::generate(
        periscope_repro::workload::population::PopulationConfig::small(),
        &periscope_repro::simnet::RngFactory::new(SEED).child("world"),
    );
    periscope_repro::service::PeriscopeService::new(
        pop,
        periscope_repro::service::ServiceConfig::default(),
    )
}

/// The sharded scale engine: roll-ups byte-identical across shard and
/// thread counts (the 1M-tier acceptance property, at test size).
#[test]
fn scale_engine_rollups_invariant_across_shards_and_threads() {
    let svc = small_world();
    let rngs = periscope_repro::simnet::RngFactory::new(SEED);
    let run_at = |shards: usize, threads: usize| {
        let cfg = ScaleConfig { shards, threads, target_sessions: 50, ..Default::default() };
        let run = run_scale(&svc, &rngs, &cfg);
        (run.stats.json(), run.telemetry.snapshot_json())
    };
    let baseline = run_at(1, 1);
    for (shards, threads) in [(4, 1), (16, 1), (1, 8), (4, 8), (16, 0)] {
        assert_eq!(
            run_at(shards, threads),
            baseline,
            "scale roll-up diverged at shards={shards} threads={threads}"
        );
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The scale engine's roll-up, pinned: FNV-1a-64 over `stats.json()` +
/// `telemetry.snapshot_json()`. Pinned on the minute-barrier engine before
/// the run became one flat session schedule, so it also proves that change
/// moved no byte. The run covers migrations, chat and HLS sessions (the
/// float `Moments` path of the telemetry).
#[test]
fn scale_engine_rollup_is_pinned_at_every_shard_and_thread_count() {
    let svc = small_world();
    let rngs = periscope_repro::simnet::RngFactory::new(SEED);
    for shards in [1usize, 4, 16] {
        for threads in [1usize, 2, 3, 8] {
            let cfg = ScaleConfig { shards, threads, target_sessions: 200, ..Default::default() };
            let run = run_scale(&svc, &rngs, &cfg);
            assert!(run.stats.migrated_in > 0, "no migrated session ran");
            assert!(run.stats.chat_out > 0 && run.stats.chat_out == run.stats.chat_in);
            assert!(run.telemetry.hls_latency_s.count() > 0, "no HLS session ran");
            let text = format!("{}{}", run.stats.json(), run.telemetry.snapshot_json());
            assert_eq!(
                fnv1a64(text.as_bytes()),
                0xefff_4133_e294_9e14,
                "scale roll-up moved at shards={shards} threads={threads}: {text}"
            );
        }
    }
}

/// A run that asks for no sessions is empty and well formed.
#[test]
fn scale_engine_with_no_sessions_is_empty_and_well_formed() {
    let svc = small_world();
    let rngs = periscope_repro::simnet::RngFactory::new(SEED);
    for shards in [1usize, 16] {
        let cfg = ScaleConfig { shards, threads: 2, target_sessions: 0, ..Default::default() };
        let run = run_scale(&svc, &rngs, &cfg);
        assert_eq!(run.shards, shards);
        assert_eq!(run.broadcasts, svc.population.broadcasts.len());
        assert!(run.minutes > 0 && run.plan_bytes > 0);
        assert_eq!(run.stats.json(), periscope_repro::core::shard::ShardStats::new().json());
        assert_eq!(run.telemetry.snapshot_json(), QoeTelemetry::new().snapshot_json());
        assert_eq!(run.telemetry.n_sessions(), 0);
        let in_census: u64 = run.census.iter().map(|r| r.broadcasts).sum();
        assert_eq!(in_census, svc.population.broadcasts.len() as u64);
    }
}
