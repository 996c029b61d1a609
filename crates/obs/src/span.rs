//! Wall-clock phase spans with busy/idle accounting.
//!
//! Spans are the one deliberately *non-deterministic* part of the
//! observability layer: they measure real elapsed time of the plan,
//! execute, sweep, crawl and analysis phases. They are kept strictly
//! separate from the event log and metrics registry, which must stay
//! byte-identical across runs and thread counts.

use std::fmt::Write as _;

use pscp_proto::json::Writer;

/// One profiled phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpan {
    /// Phase name (`"dataset.plan"`, `"dataset.execute"`, `"crawl.deep"`).
    pub name: String,
    /// Wall-clock duration in seconds.
    pub wall_secs: f64,
    /// Worker threads that ran the phase (1 = serial code).
    pub workers: usize,
    /// Work items processed (0 for serial code spans without a work list).
    pub items: usize,
    /// Summed time the workers spent inside the work function, seconds.
    pub busy_secs: f64,
}

impl PhaseSpan {
    /// Summed worker idle time: capacity (`workers × wall`) minus busy.
    pub fn idle_secs(&self) -> f64 {
        (self.wall_secs * self.workers as f64 - self.busy_secs).max(0.0)
    }

    /// Busy fraction of total worker capacity, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall_secs * self.workers as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        (self.busy_secs / capacity).clamp(0.0, 1.0)
    }
}

/// Writes spans as a JSON array, the `phases` of the `BENCH_*.json`
/// artifacts.
pub fn write_phases(spans: &[PhaseSpan], w: &mut Writer<'_>) {
    w.begin_array();
    for s in spans {
        w.begin_object();
        w.key("busy_secs").number(s.busy_secs);
        w.key("idle_secs").number(s.idle_secs());
        w.key("items").int(s.items as u64);
        w.key("name").str(&s.name);
        w.key("wall_secs").number(s.wall_secs);
        w.key("workers").int(s.workers as u64);
        w.end_object();
    }
    w.end_array();
}

/// Renders spans as an aligned text table.
pub fn phases_table(spans: &[PhaseSpan]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>8} {:>8} {:>10} {:>10} {:>6}",
        "phase", "wall(s)", "workers", "items", "busy(s)", "idle(s)", "util"
    );
    for s in spans {
        let _ = writeln!(
            out,
            "{:<28} {:>10.3} {:>8} {:>8} {:>10.3} {:>10.3} {:>5.0}%",
            s.name,
            s.wall_secs,
            s.workers,
            s.items,
            s.busy_secs,
            s.idle_secs(),
            s.utilization() * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span() -> PhaseSpan {
        PhaseSpan {
            name: "dataset.execute".into(),
            wall_secs: 2.0,
            workers: 4,
            items: 100,
            busy_secs: 6.0,
        }
    }

    #[test]
    fn idle_is_capacity_minus_busy() {
        let s = span();
        assert!((s.idle_secs() - 2.0).abs() < 1e-9);
        assert!((s.utilization() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn idle_clamped_at_zero() {
        let s = PhaseSpan { busy_secs: 9.0, ..span() };
        assert_eq!(s.idle_secs(), 0.0);
        assert_eq!(s.utilization(), 1.0);
    }

    #[test]
    fn json_and_table_render() {
        let spans = [span()];
        let mut json = String::new();
        write_phases(&spans, &mut Writer::new(&mut json));
        assert_eq!(
            json,
            "[{\"busy_secs\":6,\"idle_secs\":2,\"items\":100,\"name\":\"dataset.execute\",\
             \"wall_secs\":2,\"workers\":4}]"
        );
        let table = phases_table(&spans);
        assert!(table.contains("dataset.execute"));
        assert!(table.contains("75%"));
    }
}
