//! Whole-stack determinism: the same seed must reproduce identical
//! datasets, crawls and rendered figures at any worker-thread count
//! (DESIGN.md §6). The Lab runs once per untraced, fault-free row of the
//! contract table (`tests/contract/mod.rs`).

mod contract;

use std::sync::OnceLock;

use contract::{fingerprints, lab_artifacts, Faults, Table, BASE, SEED};
use periscope_repro::core::{Lab, LabConfig};

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        let figures = ["fig1a", "fig3a", "fig3b", "fig5", "fig7", "table-protocol"];
        Table::run(
            |row| !row.trace && row.faults == Faults::Off && row.shards == 1,
            |row| lab_artifacts(row, &figures),
        )
    })
}

#[test]
fn session_dataset_is_bit_reproducible() {
    table().assert_inert(|_| true, &["dataset"]);
    let (_, base) = table().each("dataset").find(|(row, _)| **row == BASE).expect("base row");
    let other = Lab::new(LabConfig { threads: 1, ..LabConfig::small(SEED + 1) }).session_dataset();
    assert_ne!(fingerprints(&other.sessions), base, "different seeds produce different worlds");
}

#[test]
fn deep_crawl_is_reproducible() {
    table().assert_inert(|_| true, &["deep crawl"]);
}

#[test]
fn rendered_figures_are_identical_across_runs() {
    table().assert_inert(|_| true, &["fig3a", "fig7", "table-protocol"]);
}

#[test]
fn parallel_dataset_matches_serial() {
    table().assert_inert(|row| row.threads != 0, &["dataset"]);
}

#[test]
fn figures_invariant_under_thread_count() {
    table().assert_inert(|_| true, &["fig1a", "fig3b", "fig5"]);
}
