//! Burn-rate SLO alerting over windowed sketch rings (DESIGN.md §14).
//!
//! The recording layer (`Trace::ring` → [`crate::MetricsRegistry`]) files
//! every observation into a fixed sim-time window of [`RING_WINDOW_US`]
//! microseconds — one minute, the same grid the fault layer's outage
//! schedules live on. A [`SketchRing`] is just a `BTreeMap` from window
//! index to [`QuantileSketch`], so it inherits the sketch's merge algebra:
//! per-window u64 bucket addition is exactly associative and commutative,
//! and rings merged in plan order are byte-identical at any thread or
//! shard count.
//!
//! The judging layer ([`AlertTimeline::evaluate`]) slides two windows over
//! each ring — a fast window of [`FAST_WINDOWS`] minutes and a slow window
//! of [`SLOW_WINDOWS`] minutes, the multi-window multi-burn-rate recipe
//! from SRE practice — and emits firing/resolved transitions. Burn rate is
//! the windowed bad-observation fraction divided by the rule's error
//! budget; a rule fires only when *both* windows burn past their
//! thresholds (the fast window gives low detection latency, the slow
//! window vetoes blips), and resolves when the fast window cools. Event
//! rules (outage symptoms) fire on any windowed count at all — the fault
//! layer records them only when an injected fault was actually observed,
//! which is what makes the timeline provably empty when faults are off.
//!
//! Everything here is a pure function of (rules, registry, span forest):
//! no wall clock, no randomness, no allocation dependence — evaluating on
//! a merged registry gives one deterministic timeline per scope.

use std::collections::BTreeMap;

use crate::causal::Span;
use pscp_proto::json::Writer;
use pscp_stats::QuantileSketch;

/// Ring window length: one sim-minute, matching the fault layer's outage
/// slot grid so a windowed symptom always lands in the slot that caused it.
pub const RING_WINDOW_US: u64 = 60_000_000;
/// Fast evaluation window, in ring windows (5 minutes per SRE practice).
pub const FAST_WINDOWS: u64 = 5;
/// Slow evaluation window, in ring windows (1 hour per SRE practice).
pub const SLOW_WINDOWS: u64 = 60;
/// Minimum observations in a window before a burn rule may judge it —
/// mirrors the SLO evaluator's `MIN_QUANTILE_SAMPLES` so a lone tail
/// sample cannot page anyone.
pub const MIN_WINDOW_SAMPLES: u64 = 4;

/// A ring of fixed sim-time windows over a quantile sketch instrument.
///
/// Windows are keyed by `t_us / RING_WINDOW_US`; only touched windows are
/// stored, so memory is proportional to *active* minutes, not the horizon.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SketchRing {
    windows: BTreeMap<u64, QuantileSketch>,
}

impl SketchRing {
    /// An empty ring.
    pub const fn new() -> SketchRing {
        SketchRing { windows: BTreeMap::new() }
    }

    /// Records one observation at sim-time `t_us`.
    pub fn observe(&mut self, t_us: u64, value: u64) {
        self.windows.entry(t_us / RING_WINDOW_US).or_default().observe(value);
    }

    /// Folds another ring into this one, window by window. Exactly
    /// associative and commutative (pure sketch merges), so plan-order
    /// folds match serial recording bit for bit.
    pub fn merge(&mut self, other: &SketchRing) {
        for (&idx, sketch) in &other.windows {
            self.windows.entry(idx).or_default().merge(sketch);
        }
    }

    /// The sketch of one window, if touched.
    pub fn window(&self, idx: u64) -> Option<&QuantileSketch> {
        self.windows.get(&idx)
    }

    /// Touched windows in index order.
    pub fn windows(&self) -> impl Iterator<Item = (u64, &QuantileSketch)> + '_ {
        self.windows.iter().map(|(&idx, s)| (idx, s))
    }

    /// First and last touched window index, if any.
    pub fn span(&self) -> Option<(u64, u64)> {
        let first = self.windows.keys().next()?;
        let last = self.windows.keys().next_back()?;
        Some((*first, *last))
    }

    /// Total observations across all windows.
    pub fn count(&self) -> u64 {
        self.windows.values().map(QuantileSketch::count).sum()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Touched-window count (the ring's memory driver).
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Heap + inline footprint in bytes, a pure function of the observed
    /// (window, value-set) pairs like the sketch's own accounting.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<SketchRing>()
            + self.windows.values().map(|s| 8 + s.memory_bytes()).sum::<usize>()
    }
}

/// How a rule judges its ring.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    /// SLO burn-rate rule: an observation is *bad* when it exceeds
    /// `bad_above`; the windowed bad fraction divided by `budget` is the
    /// burn rate, judged against both window thresholds.
    Burn {
        /// Threshold above which one observation violates the objective.
        bad_above: u64,
        /// Error budget: the tolerated bad fraction (e.g. 0.10 for p90).
        budget: f64,
        /// Fast-window burn threshold (≥ fires).
        fast_burn: f64,
        /// Slow-window burn threshold (≥ fires).
        slow_burn: f64,
    },
    /// Symptom rule: fires while the fast window holds at least
    /// `min_count` observations. Used for fault-event rings that are only
    /// ever written when an injected fault was observed.
    Event {
        /// Fast-window observation count that constitutes an incident.
        min_count: u64,
    },
}

/// One alerting rule over a `(subsystem, name)` ring.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Stable rule name (lands in artifacts and gauge labels).
    pub name: String,
    /// Ring subsystem key.
    pub subsystem: String,
    /// Ring metric key.
    pub metric: String,
    /// Judgement.
    pub kind: RuleKind,
}

impl AlertRule {
    /// A burn-rate rule with the default window thresholds: the fast
    /// window must burn ≥ 6× budget (≥ 60% bad at a 10% budget) *and* the
    /// slow window must burn ≥ 1× (the budget is actually being spent).
    pub fn burn(name: &str, subsystem: &str, metric: &str, bad_above: u64, budget: f64) -> Self {
        AlertRule {
            name: name.to_string(),
            subsystem: subsystem.to_string(),
            metric: metric.to_string(),
            kind: RuleKind::Burn { bad_above, budget, fast_burn: 6.0, slow_burn: 1.0 },
        }
    }

    /// A symptom rule firing on any `min_count` fast-window observations.
    pub fn event(name: &str, subsystem: &str, metric: &str, min_count: u64) -> Self {
        AlertRule {
            name: name.to_string(),
            subsystem: subsystem.to_string(),
            metric: metric.to_string(),
            kind: RuleKind::Event { min_count },
        }
    }
}

/// One firing or resolved transition on the alert timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// Rule that transitioned.
    pub rule: String,
    /// Sim-time of the evaluation step (a window boundary).
    pub t_us: u64,
    /// `true` = fired, `false` = resolved.
    pub firing: bool,
    /// Fast-window burn rate at the step.
    pub burn_fast: f64,
    /// Slow-window burn rate at the step.
    pub burn_slow: f64,
    /// Dominant join phase among sessions that went bad inside the fast
    /// window ("none" when no join tree overlaps it) — the span forest's
    /// answer to "which path caused this".
    pub attribution: String,
}

/// A deterministic alert timeline: every firing/resolved transition of a
/// rule set over one merged registry, in (time, rule) order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlertTimeline {
    /// Transitions in ascending (t_us, rule) order.
    pub transitions: Vec<AlertTransition>,
}

/// Per-root join decomposition, pre-indexed for window lookups.
struct JoinTree {
    end_us: u64,
    /// (phase name, duration) of the root's direct children.
    phases: Vec<(&'static str, u64)>,
}

fn index_join_trees(spans: &[(String, Span)]) -> Vec<JoinTree> {
    let mut by_unit: BTreeMap<&str, Vec<&Span>> = BTreeMap::new();
    for (unit, span) in spans {
        by_unit.entry(unit.as_str()).or_default().push(span);
    }
    let mut trees = Vec::new();
    for unit_spans in by_unit.values() {
        for root in unit_spans.iter().filter(|s| s.name == "session.join" && s.is_closed()) {
            let phases = unit_spans
                .iter()
                .filter(|s| s.parent == Some(root.id))
                .map(|s| (s.name, s.duration_us()))
                .collect();
            trees.push(JoinTree { end_us: root.end_us, phases });
        }
    }
    trees.sort_by_key(|t| t.end_us);
    trees
}

/// Dominant join phase (by summed duration, name as tie-break) among join
/// trees ending inside `[from_us, to_us]`.
fn dominant_phase(trees: &[JoinTree], from_us: u64, to_us: u64) -> String {
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for tree in trees {
        if tree.end_us < from_us || tree.end_us > to_us {
            continue;
        }
        for &(name, dur) in &tree.phases {
            *totals.entry(name).or_insert(0) += dur;
        }
    }
    totals
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(a.0)))
        .map(|(name, _)| name.to_string())
        .unwrap_or_else(|| "none".to_string())
}

impl AlertTimeline {
    /// Evaluates `rules` over a merged registry's rings, attributing
    /// firings through the span forest. Pure and deterministic: the same
    /// (rules, registry, spans) always yield the same timeline, and a
    /// registry with no ring data yields an empty one.
    pub fn evaluate(
        rules: &[AlertRule],
        metrics: &crate::MetricsRegistry,
        spans: &[(String, Span)],
    ) -> AlertTimeline {
        let trees = index_join_trees(spans);
        let mut transitions: Vec<AlertTransition> = Vec::new();
        for rule in rules {
            let Some(ring) = metrics.ring(&rule.subsystem, &rule.metric) else {
                continue;
            };
            let Some((first, last)) = ring.span() else {
                continue;
            };
            // Per-window (total, bad) extraction, then two sliding sums.
            // Evaluation extends FAST_WINDOWS past the data so every alert
            // resolves once its fast window drains.
            let horizon = last + FAST_WINDOWS;
            let stat = |idx: u64| -> (u64, u64) {
                match ring.window(idx) {
                    Some(s) => {
                        let bad = match rule.kind {
                            RuleKind::Burn { bad_above, .. } => s.count_gt(bad_above),
                            RuleKind::Event { .. } => s.count(),
                        };
                        (s.count(), bad)
                    }
                    None => (0, 0),
                }
            };
            let window_sum = |from: u64, to: u64| -> (u64, u64) {
                let mut total = 0;
                let mut bad = 0;
                for idx in from..=to {
                    let (t, b) = stat(idx);
                    total += t;
                    bad += b;
                }
                (total, bad)
            };
            let mut firing = false;
            for idx in first..=horizon {
                let fast_from = (idx + 1).saturating_sub(FAST_WINDOWS).max(first);
                let slow_from = (idx + 1).saturating_sub(SLOW_WINDOWS).max(first);
                let (fast_total, fast_bad) = window_sum(fast_from, idx);
                let (slow_total, slow_bad) = window_sum(slow_from, idx);
                let (burn_fast, burn_slow, next) = match rule.kind {
                    RuleKind::Burn { budget, fast_burn, slow_burn, .. } => {
                        let frac = |bad: u64, total: u64| {
                            if total == 0 {
                                0.0
                            } else {
                                bad as f64 / total as f64
                            }
                        };
                        let bf = frac(fast_bad, fast_total) / budget;
                        let bs = frac(slow_bad, slow_total) / budget;
                        let hot = fast_total >= MIN_WINDOW_SAMPLES
                            && slow_total >= MIN_WINDOW_SAMPLES
                            && bf >= fast_burn
                            && bs >= slow_burn;
                        // Resolve on the fast window alone: once it cools
                        // below threshold the page clears even though the
                        // slow window still remembers the burn.
                        let next = if firing {
                            fast_total >= MIN_WINDOW_SAMPLES && bf >= fast_burn
                        } else {
                            hot
                        };
                        (bf, bs, next)
                    }
                    RuleKind::Event { min_count } => {
                        let next = fast_bad >= min_count;
                        (
                            fast_bad as f64 / min_count as f64,
                            slow_bad as f64 / min_count as f64,
                            next,
                        )
                    }
                };
                if next != firing {
                    firing = next;
                    let t_us = (idx + 1) * RING_WINDOW_US;
                    let attribution = if firing {
                        dominant_phase(&trees, fast_from * RING_WINDOW_US, t_us)
                    } else {
                        "none".to_string()
                    };
                    transitions.push(AlertTransition {
                        rule: rule.name.clone(),
                        t_us,
                        firing,
                        burn_fast,
                        burn_slow,
                        attribution,
                    });
                }
            }
        }
        transitions.sort_by(|a, b| a.t_us.cmp(&b.t_us).then_with(|| a.rule.cmp(&b.rule)));
        AlertTimeline { transitions }
    }

    /// Whether no rule ever transitioned.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Firing intervals per rule: `(rule, start_us, end_us)` in start
    /// order. An alert still firing at the end of the timeline (none, by
    /// construction — evaluation runs past the data) would close at its
    /// last transition.
    pub fn intervals(&self) -> Vec<(String, u64, u64)> {
        let mut open: BTreeMap<&str, u64> = BTreeMap::new();
        let mut out = Vec::new();
        for tr in &self.transitions {
            if tr.firing {
                open.entry(tr.rule.as_str()).or_insert(tr.t_us);
            } else if let Some(start) = open.remove(tr.rule.as_str()) {
                out.push((tr.rule.clone(), start, tr.t_us));
            }
        }
        for (rule, start) in open {
            out.push((rule.to_string(), start, start));
        }
        out.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Rules firing after the final transition, sorted by name. Empty by
    /// construction for a fully evaluated timeline (evaluation runs
    /// [`FAST_WINDOWS`] past the data so every alert drains); use
    /// [`AlertTimeline::firing_at`] for the state at the data horizon.
    pub fn firing_at_end(&self) -> Vec<String> {
        let mut state: BTreeMap<&str, bool> = BTreeMap::new();
        for tr in &self.transitions {
            state.insert(tr.rule.as_str(), tr.firing);
        }
        state.into_iter().filter(|&(_, on)| on).map(|(r, _)| r.to_string()).collect()
    }

    /// Rules whose latest transition at or before `t_us` is a firing —
    /// the live alert state at instant `t_us`, sorted by name.
    pub fn firing_at(&self, t_us: u64) -> Vec<String> {
        let mut state: BTreeMap<&str, bool> = BTreeMap::new();
        for tr in self.transitions.iter().filter(|tr| tr.t_us <= t_us) {
            state.insert(tr.rule.as_str(), tr.firing);
        }
        state.into_iter().filter(|&(_, on)| on).map(|(r, _)| r.to_string()).collect()
    }

    /// Writes the timeline as a JSON array: one object per transition, in
    /// timeline order.
    pub fn write_json(&self, w: &mut Writer<'_>) {
        w.begin_array();
        for tr in &self.transitions {
            w.begin_object();
            w.key("attribution").str(&tr.attribution);
            w.key("burn_fast").number(tr.burn_fast);
            w.key("burn_slow").number(tr.burn_slow);
            w.key("rule").str(&tr.rule);
            w.key("state").str(if tr.firing { "firing" } else { "resolved" });
            w.key("t_us").int(tr.t_us);
            w.end_object();
        }
        w.end_array();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn ring_files_observations_by_minute_and_merges_exactly() {
        let mut a = SketchRing::new();
        a.observe(0, 10);
        a.observe(RING_WINDOW_US - 1, 20);
        a.observe(RING_WINDOW_US, 30);
        assert_eq!(a.len(), 2);
        assert_eq!(a.window(0).unwrap().count(), 2);
        assert_eq!(a.window(1).unwrap().count(), 1);
        assert_eq!(a.span(), Some((0, 1)));
        let mut b = SketchRing::new();
        b.observe(3 * RING_WINDOW_US, 40);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "ring merge is order-independent");
        assert_eq!(ab.count(), 4);
        assert_eq!(ab.span(), Some((0, 3)));
    }

    #[test]
    fn empty_registry_yields_empty_timeline() {
        let rules = vec![AlertRule::event("outage", "outage", "pop", 1)];
        let tl = AlertTimeline::evaluate(&rules, &MetricsRegistry::new(), &[]);
        assert!(tl.is_empty());
        assert_eq!(json(&tl), "[]");
        assert!(tl.firing_at_end().is_empty());
    }

    #[test]
    fn event_rule_fires_and_resolves_on_window_boundaries() {
        let mut m = MetricsRegistry::new();
        // Two symptom observations in minute 10, silence after.
        m.ring_observe("outage", "pop", 10 * RING_WINDOW_US + 5, 1);
        m.ring_observe("outage", "pop", 10 * RING_WINDOW_US + 7, 1);
        let rules = vec![AlertRule::event("pop_outage", "outage", "pop", 1)];
        let tl = AlertTimeline::evaluate(&rules, &m, &[]);
        assert_eq!(tl.transitions.len(), 2, "{tl:?}");
        let fire = &tl.transitions[0];
        assert!(fire.firing);
        assert_eq!(fire.t_us, 11 * RING_WINDOW_US, "fires at the end of the symptom window");
        assert_eq!(fire.attribution, "none");
        let resolve = &tl.transitions[1];
        assert!(!resolve.firing);
        assert_eq!(
            resolve.t_us,
            (10 + FAST_WINDOWS + 1) * RING_WINDOW_US,
            "resolves when the fast window drains"
        );
        assert_eq!(tl.intervals(), vec![("pop_outage".to_string(), fire.t_us, resolve.t_us)]);
        assert!(tl.firing_at_end().is_empty());
    }

    #[test]
    fn burn_rule_needs_both_windows_and_min_samples() {
        let rules = vec![AlertRule::burn("join_burn", "alert", "join_us", 100, 0.10)];
        // One lone bad sample: below MIN_WINDOW_SAMPLES, must not fire.
        let mut sparse = MetricsRegistry::new();
        sparse.ring_observe("alert", "join_us", RING_WINDOW_US, 500);
        assert!(AlertTimeline::evaluate(&rules, &sparse, &[]).is_empty());
        // A dense bad window fires, then resolves once good data returns.
        let mut dense = MetricsRegistry::new();
        for i in 0..6 {
            dense.ring_observe("alert", "join_us", 5 * RING_WINDOW_US + i, 500);
        }
        for i in 0..20 {
            dense.ring_observe("alert", "join_us", (11 + i / 4) * RING_WINDOW_US, 50);
        }
        let tl = AlertTimeline::evaluate(&rules, &dense, &[]);
        assert!(!tl.is_empty(), "dense bad window must fire");
        assert!(tl.transitions[0].firing);
        assert_eq!(tl.transitions[0].t_us, 6 * RING_WINDOW_US);
        assert!(tl.transitions[0].burn_fast >= 6.0);
        assert_eq!(tl.transitions.last().map(|t| t.firing), Some(false), "must resolve: {tl:?}");
        // Healthy data only: never fires.
        let mut healthy = MetricsRegistry::new();
        for i in 0..40 {
            healthy.ring_observe("alert", "join_us", i * RING_WINDOW_US / 2, 50);
        }
        assert!(AlertTimeline::evaluate(&rules, &healthy, &[]).is_empty());
    }

    #[test]
    fn firing_transition_attributes_the_dominant_phase() {
        let mut m = MetricsRegistry::new();
        m.ring_observe("outage", "pop", 3 * RING_WINDOW_US, 1);
        let spans = vec![
            (
                "session/0".to_string(),
                Span {
                    id: 0,
                    parent: None,
                    start_us: 3 * RING_WINDOW_US,
                    end_us: 3 * RING_WINDOW_US + 9_000_000,
                    subsystem: "session",
                    name: "session.join",
                },
            ),
            (
                "session/0".to_string(),
                Span {
                    id: 1,
                    parent: Some(0),
                    start_us: 3 * RING_WINDOW_US,
                    end_us: 3 * RING_WINDOW_US + 8_000_000,
                    subsystem: "hls",
                    name: "hls.playlist",
                },
            ),
            (
                "session/0".to_string(),
                Span {
                    id: 2,
                    parent: Some(0),
                    start_us: 3 * RING_WINDOW_US + 8_000_000,
                    end_us: 3 * RING_WINDOW_US + 9_000_000,
                    subsystem: "hls",
                    name: "hls.segments",
                },
            ),
        ];
        let rules = vec![AlertRule::event("pop_outage", "outage", "pop", 1)];
        let tl = AlertTimeline::evaluate(&rules, &m, &spans);
        assert_eq!(tl.transitions[0].attribution, "hls.playlist");
    }

    fn json(tl: &AlertTimeline) -> String {
        let mut out = String::new();
        tl.write_json(&mut Writer::new(&mut out));
        out
    }

    #[test]
    fn timeline_json_is_stable_and_balanced() {
        let mut m = MetricsRegistry::new();
        m.ring_observe("outage", "pop", 0, 1);
        let rules = vec![AlertRule::event("pop_outage", "outage", "pop", 1)];
        let tl = AlertTimeline::evaluate(&rules, &m, &[]);
        assert_eq!(
            json(&tl),
            "[{\"attribution\":\"none\",\"burn_fast\":1,\"burn_slow\":1,\"rule\":\"pop_outage\",\
             \"state\":\"firing\",\"t_us\":60000000},\
             {\"attribution\":\"none\",\"burn_fast\":0,\"burn_slow\":1,\"rule\":\"pop_outage\",\
             \"state\":\"resolved\",\"t_us\":360000000}]"
        );
    }
}
