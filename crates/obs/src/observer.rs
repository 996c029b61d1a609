//! The run-wide collector.
//!
//! A lab owns one [`Observer`]. Work units never write to it directly:
//! each records into its own [`Trace`], and the orchestrator absorbs the
//! finished traces *serially, in plan order* — so the merged event log
//! depends only on the plan, never on which worker finished first. The
//! internal mutex exists for the rare serial merge points, not for
//! per-event traffic.

use std::sync::Mutex;
use std::time::Instant;

use pscp_proto::json::Writer;

use crate::causal::Span;
use crate::event::Event;
use crate::metrics::MetricsRegistry;
use crate::span::PhaseSpan;
use crate::trace::Trace;

/// Run-wide sink for traces, metrics and phase spans.
#[derive(Debug)]
pub struct Observer {
    tracing: bool,
    profiling: bool,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    /// `(unit label, event)` in absorb order; events within a unit are
    /// sim-time sorted at absorb time (stable, so ties keep record order).
    log: Vec<(String, Event)>,
    /// `(unit label, span)` in absorb order; spans within a unit are
    /// start-time sorted at absorb time (stable; ids stay valid because
    /// parent links are by explicit id, not position).
    spans: Vec<(String, Span)>,
    metrics: MetricsRegistry,
    phases: Vec<PhaseSpan>,
}

impl Observer {
    /// A permanently disabled observer (usable in `static` contexts).
    pub const fn off() -> Observer {
        Observer {
            tracing: false,
            profiling: false,
            inner: Mutex::new(Inner {
                log: Vec::new(),
                spans: Vec::new(),
                metrics: MetricsRegistry::new(),
                phases: Vec::new(),
            }),
        }
    }

    /// A shared disabled observer, for call paths that take `&Observer`
    /// but have nothing to observe.
    pub fn disabled_ref() -> &'static Observer {
        static OFF: Observer = Observer::off();
        &OFF
    }

    /// Tracing and profiling both follow `tracing` (a traced run wants
    /// phase spans too).
    pub fn new(tracing: bool) -> Observer {
        Observer::with_flags(tracing, tracing)
    }

    /// Phase spans only — what `repro bench` uses: wall-clock profiling
    /// without paying for event recording.
    pub fn profile_only() -> Observer {
        Observer::with_flags(false, true)
    }

    /// Explicit flag control.
    pub fn with_flags(tracing: bool, profiling: bool) -> Observer {
        Observer {
            tracing,
            profiling,
            inner: Mutex::new(Inner {
                log: Vec::new(),
                spans: Vec::new(),
                metrics: MetricsRegistry::new(),
                phases: Vec::new(),
            }),
        }
    }

    /// Whether work units should record events/metrics.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Whether orchestrators should record phase spans.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// A fresh per-unit trace matching this observer's tracing flag.
    pub fn trace(&self) -> Trace {
        Trace::new(self.tracing)
    }

    /// Merges one unit's finished trace under `unit`. Events are sim-time
    /// sorted within the unit, spans start-time sorted (both stable: ties
    /// keep recording order); open spans were already dropped by the
    /// drain.
    ///
    /// Determinism contract: callers absorb units serially in *plan*
    /// order, never in completion order.
    pub fn absorb(&self, unit: &str, trace: Trace) {
        if !self.tracing {
            return;
        }
        let (mut events, mut spans, metrics) = trace.into_parts();
        events.sort_by_key(|e| e.t_us);
        spans.sort_by_key(|s| s.start_us);
        let mut inner = self.inner.lock().expect("observer lock");
        inner.log.extend(events.into_iter().map(|e| (unit.to_string(), e)));
        inner.spans.extend(spans.into_iter().map(|s| (unit.to_string(), s)));
        inner.metrics.merge(&metrics);
    }

    /// Folds a child observer (e.g. one bandwidth-sweep point that ran
    /// with its own local observer inside a worker) into this one, with
    /// every unit label and phase name prefixed `"{prefix}/..."`.
    ///
    /// Same contract as [`Observer::absorb`]: call serially, in input
    /// order.
    pub fn merge_child(&self, prefix: &str, child: Observer) {
        let child_inner = child.inner.into_inner().expect("child observer lock");
        let mut inner = self.inner.lock().expect("observer lock");
        if self.tracing {
            inner
                .log
                .extend(child_inner.log.into_iter().map(|(u, e)| (format!("{prefix}/{u}"), e)));
            inner
                .spans
                .extend(child_inner.spans.into_iter().map(|(u, s)| (format!("{prefix}/{u}"), s)));
            inner.metrics.merge(&child_inner.metrics);
        }
        if self.profiling {
            inner.phases.extend(child_inner.phases.into_iter().map(|mut s| {
                s.name = format!("{prefix}/{}", s.name);
                s
            }));
        }
    }

    /// Records a finished phase span (no-op unless profiling).
    pub fn record_phase(&self, span: PhaseSpan) {
        if !self.profiling {
            return;
        }
        self.inner.lock().expect("observer lock").phases.push(span);
    }

    /// Runs `f` as a serial phase, recording its wall time as a
    /// one-worker span when profiling (busy = wall: serial code is never
    /// idle).
    pub fn phase<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.profiling {
            return f();
        }
        let started = Instant::now();
        let out = f();
        let wall = started.elapsed().as_secs_f64();
        self.record_phase(PhaseSpan {
            name: name.to_string(),
            wall_secs: wall,
            workers: 1,
            items: 0,
            busy_secs: wall,
        });
        out
    }

    /// Number of events absorbed so far.
    pub fn event_count(&self) -> usize {
        self.inner.lock().expect("observer lock").log.len()
    }

    /// The merged event log as JSONL (one event per line, trailing
    /// newline). Byte-identical across runs and thread counts for the
    /// same seed.
    pub fn events_jsonl(&self) -> String {
        let inner = self.inner.lock().expect("observer lock");
        let mut out = String::with_capacity(inner.log.len() * 96);
        for (unit, event) in &inner.log {
            event.write_json(unit, &mut Writer::new(&mut out));
            out.push('\n');
        }
        out
    }

    /// Per-event-name totals, sorted by name.
    pub fn event_summary(&self) -> Vec<(&'static str, u64)> {
        let inner = self.inner.lock().expect("observer lock");
        let mut totals: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for (_, event) in &inner.log {
            *totals.entry(event.name).or_insert(0) += 1;
        }
        totals.into_iter().collect()
    }

    /// A snapshot of the merged metrics registry.
    pub fn metrics(&self) -> MetricsRegistry {
        self.inner.lock().expect("observer lock").metrics.clone()
    }

    /// The phase spans recorded so far, in record order.
    pub fn phases(&self) -> Vec<PhaseSpan> {
        self.inner.lock().expect("observer lock").phases.clone()
    }

    /// Number of causal spans absorbed so far.
    pub fn span_count(&self) -> usize {
        self.inner.lock().expect("observer lock").spans.len()
    }

    /// The merged `(unit, span)` log, in absorb order — plan order, so
    /// identical at any thread count for the same seed.
    pub fn spans(&self) -> Vec<(String, Span)> {
        self.inner.lock().expect("observer lock").spans.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Field;

    #[test]
    fn disabled_observer_absorbs_nothing() {
        let obs = Observer::disabled_ref();
        let mut t = Trace::new(true); // unit traced, run not
        t.event(1, "player", "player.stall", vec![]);
        obs.absorb("session/0", t.take());
        assert_eq!(obs.event_count(), 0);
        assert_eq!(obs.events_jsonl(), "");
    }

    #[test]
    fn absorb_sorts_within_unit_and_keeps_unit_order() {
        let obs = Observer::new(true);
        let mut a = obs.trace();
        a.event(50, "player", "session.join", vec![]);
        a.event(10, "session", "session.start", vec![]);
        obs.absorb("session/0", a);
        let mut b = obs.trace();
        b.event(5, "session", "session.start", vec![]);
        obs.absorb("session/1", b);
        let jsonl = obs.events_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        // Within session/0, sim-time order; session/1 after despite t=5.
        assert!(lines[0].contains("\"t_us\":10"));
        assert!(lines[1].contains("\"t_us\":50"));
        assert!(lines[2].contains("session/1"));
    }

    #[test]
    fn merge_child_prefixes_units_and_phases() {
        let parent = Observer::with_flags(true, true);
        let child = Observer::with_flags(true, true);
        let mut t = child.trace();
        t.event(1, "shaper", "shaper.limit_applied", vec![("kbps", Field::U(500))]);
        child.absorb("session/2", t);
        child.record_phase(PhaseSpan {
            name: "dataset.plan".into(),
            wall_secs: 0.1,
            workers: 1,
            items: 6,
            busy_secs: 0.1,
        });
        parent.merge_child("limit-0.5", child);
        assert!(parent.events_jsonl().contains("\"unit\":\"limit-0.5/session/2\""));
        assert_eq!(parent.phases()[0].name, "limit-0.5/dataset.plan");
    }

    #[test]
    fn phase_helper_skips_timing_when_not_profiling() {
        let off = Observer::new(false);
        assert_eq!(off.phase("x", || 7), 7);
        assert!(off.phases().is_empty());
        let on = Observer::profile_only();
        assert_eq!(on.phase("x", || 7), 7);
        let spans = on.phases();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].workers, 1);
        assert!((spans[0].busy_secs - spans[0].wall_secs).abs() < 1e-12);
    }

    #[test]
    fn absorb_collects_closed_spans_in_plan_order() {
        let obs = Observer::new(true);
        let mut a = obs.trace();
        let root = a.span_start(100, "session", "session.join");
        a.span(100, 150, "api", "api.request", Some(root));
        a.span_end(root, 400);
        let open = a.span_start(500, "session", "session.join");
        let _ = open; // abandoned: dropped at absorb
        obs.absorb("session/0", a);
        let child = Observer::new(true);
        let mut b = child.trace();
        let r = b.span_start(7, "session", "session.join");
        b.span_end(r, 9);
        child.absorb("session/0", b);
        obs.merge_child("limit-2", child);
        let spans = obs.spans();
        assert_eq!(obs.span_count(), 3);
        assert_eq!(spans[0].0, "session/0");
        assert_eq!(spans[0].1.name, "session.join");
        assert_eq!(spans[1].1.parent, Some(spans[0].1.id));
        assert_eq!(spans[2].0, "limit-2/session/0");
    }

    #[test]
    fn event_summary_counts_by_name() {
        let obs = Observer::new(true);
        let mut t = obs.trace();
        t.event(1, "player", "player.stall", vec![]);
        t.event(2, "player", "player.stall", vec![]);
        t.event(3, "session", "session.start", vec![]);
        obs.absorb("session/0", t);
        assert_eq!(obs.event_summary(), vec![("player.stall", 2), ("session.start", 1)]);
    }
}
