#![warn(missing_docs)]

//! QoE analysis over session datasets (§5.1 of the paper).
//!
//! [`dataset`] wraps a collection of simulated viewing sessions with the
//! selectors and aggregations the figures need; [`delivery`] names the
//! capture analysis that recovers bitrate, QP and delivery latency (the
//! NTP-timestamp method of §5.1) from one session's raw capture;
//! [`compare`] runs the paper's device-comparison Welch t-tests;
//! [`export`] dumps per-session/per-broadcast CSVs for external plotting;
//! [`slo`] folds causal span trees into per-session phase breakdowns,
//! evaluates declarative SLOs against the paper's headline numbers, and
//! flags MAD-outlier sessions with their dominant phase; [`telemetry`]
//! is the constant-memory streaming counterpart — mergeable sketches
//! that the large-scale and live-monitoring paths fold incrementally
//! (DESIGN.md §11).

pub mod compare;
pub mod dataset;
pub mod delivery;
pub mod export;
pub mod slo;
pub mod telemetry;

pub use dataset::SessionDataset;
pub use slo::{alert_rules, cell_rules, SloReport, SloSpec};
pub use telemetry::QoeTelemetry;
