//! Deterministic sim-time observability (DESIGN.md §7).
//!
//! Three primitives, all default-off and zero-new-dependency:
//!
//! * a **structured event log** — sim-time-stamped, subsystem-tagged
//!   records ([`Event`]) buffered per work unit in a [`Trace`] and merged
//!   in plan order by the [`Observer`], so the rendered JSONL is
//!   byte-identical at any thread count;
//! * a **metrics registry** — named u64 counters and fixed-bucket
//!   histograms ([`MetricsRegistry`]); integer-only so per-worker deltas
//!   merge order-independently into a stable-ordered snapshot;
//! * **causal sim-time spans** ([`Span`]) — parent-linked intervals
//!   recorded per unit with stable ids, merged in plan order like events,
//!   so a session's join time decomposes into a deterministic tree;
//! * **wall-clock phase spans** ([`PhaseSpan`]) with per-thread busy/idle
//!   accounting — the one intentionally non-deterministic output, kept
//!   segregated from the event log, spans and metrics.
//!
//! [`export`] renders the deterministic channels as Chrome trace-event
//! JSON and Prometheus text exposition.
//!
//! The split between [`Trace`] (per-unit, `&mut`, lock-free) and
//! [`Observer`] (run-wide, serial merge points only) is the determinism
//! argument: workers never interleave writes, and the orchestrator
//! absorbs finished traces in plan order, never completion order.

#![warn(missing_docs)]

pub mod alert;
pub mod alloc_count;
mod causal;
mod event;
pub mod export;
mod metrics;
mod observer;
mod span;
mod trace;

pub use alert::{
    AlertRule, AlertTimeline, AlertTransition, RuleKind, SketchRing, FAST_WINDOWS, RING_WINDOW_US,
    SLOW_WINDOWS,
};
pub use causal::{Span, SpanId};
pub use event::{Event, Field};
pub use export::{chrome_trace, prometheus_alert_state, prometheus_build_info, prometheus_text};
pub use metrics::{
    Histogram, HistogramSpec, MetricsRegistry, BYTE_BUCKETS, KBPS_BUCKETS, MILLIWATT_BUCKETS,
    MS_BUCKETS,
};
pub use observer::Observer;
pub use span::{phases_table, write_phases, PhaseSpan};
pub use trace::Trace;

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end: absorbing the same unit traces in the same order gives
    /// byte-identical JSONL and snapshots — the tier-1 invariant in
    /// miniature.
    #[test]
    fn merged_outputs_are_reproducible() {
        let run = || {
            let obs = Observer::new(true);
            for unit in 0..3u64 {
                let mut t = obs.trace();
                t.event(unit * 10, "session", "session.start", vec![("idx", Field::U(unit))]);
                t.count("session", "started", 1);
                t.observe("player", "join_time_ms", &MS_BUCKETS, 100 * (unit + 1));
                obs.absorb(&format!("session/{unit}"), t);
            }
            (obs.events_jsonl(), obs.metrics().snapshot_json(), obs.metrics().snapshot_text())
        };
        assert_eq!(run(), run());
        let (jsonl, json, _) = run();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(json.contains("\"session/started\":3"));
    }
}
