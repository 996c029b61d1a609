//! Shard-invariance suite (DESIGN.md §13): quadtree sharding must be
//! provably inert. The scale engine's roll-ups are byte-identical across
//! shard counts 1/4/16 and thread counts. A dataset has no shard count —
//! every session is a pure function of its plan entry — so its figures,
//! SLO report and merged QoE sketch snapshot are checked across thread
//! counts alone. Both run on the rows of the contract table
//! (`tests/contract/mod.rs`) that they read.

mod contract;

use std::sync::OnceLock;

use contract::{fnv1a64, lab_artifacts, qoe, scale_artifacts, small_world, Faults, Table, SEED};
use periscope_repro::core::shard::{run_scale, ScaleConfig, ShardStats};
use periscope_repro::qoe::telemetry::QoeTelemetry;
use periscope_repro::simnet::RngFactory;

fn scale_table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        let svc = small_world();
        Table::run(|row| !row.trace && row.faults == Faults::Off, |row| scale_artifacts(&svc, row))
    })
}

#[test]
fn dataset_figures_slo_and_sketches_invariant_across_threads() {
    let table = Table::run(
        |row| !row.trace && row.faults == Faults::Off && row.shards == 1,
        |row| lab_artifacts(row, &["fig3a"]),
    );
    table.assert_inert(|_| true, &["dataset", "SLO report", "merged sketches", "fig3a"]);
}

/// The sharded scale engine: roll-ups byte-identical across shard and
/// thread counts (the 1M-tier acceptance property, at test size).
#[test]
fn scale_engine_rollups_invariant_across_shards_and_threads() {
    scale_table().assert_inert(|_| true, &["scale roll-up"]);
}

/// The scale engine's roll-up, pinned: FNV-1a-64 over `stats.json()` +
/// the telemetry snapshot. First pinned on the minute-barrier engine before
/// the run became one flat session schedule, so it also proved that change
/// moved no byte; re-pinned once when every artifact moved onto
/// `json::Writer` (DESIGN.md §15), with the parsed values unchanged.
#[test]
fn scale_engine_rollup_is_pinned_at_every_shard_and_thread_count() {
    for (row, rollup) in scale_table().each("scale roll-up") {
        assert_eq!(
            fnv1a64(rollup.as_bytes()),
            0x65d6_82c6_de65_0237,
            "scale roll-up moved at {row:?}: {rollup}"
        );
    }
}

/// A run that asks for no sessions is empty and well formed.
#[test]
fn scale_engine_with_no_sessions_is_empty_and_well_formed() {
    let svc = small_world();
    let rngs = RngFactory::new(SEED);
    for shards in [1usize, 16] {
        let cfg = ScaleConfig { shards, threads: 2, target_sessions: 0, ..Default::default() };
        let run = run_scale(&svc, &rngs, &cfg);
        assert_eq!(run.shards, shards);
        assert_eq!(run.broadcasts, svc.population.broadcasts.len());
        assert!(run.minutes > 0 && run.plan_bytes > 0);
        assert_eq!(run.stats.json(), ShardStats::new().json());
        assert_eq!(qoe(&run.telemetry), qoe(&QoeTelemetry::new()));
        assert_eq!(run.telemetry.n_sessions(), 0);
        let in_census: u64 = run.census.iter().map(|r| r.broadcasts).sum();
        assert_eq!(in_census, svc.population.broadcasts.len() as u64);
    }
}
