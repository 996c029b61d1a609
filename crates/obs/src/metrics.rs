//! Counters, fixed-bucket histograms and quantile sketches with
//! stable-ordered snapshots.
//!
//! Everything here is integer-valued on purpose: u64 sums are associative
//! and commutative, so merging per-worker registries in *any* order yields
//! the same totals — the registry can never leak thread-scheduling noise
//! into a snapshot. Keys are `(subsystem, name)` pairs of `&'static str`
//! in `BTreeMap`s, so iteration (and therefore every rendered report) is
//! lexicographically ordered regardless of recording order. The sketch
//! instrument ([`pscp_stats::QuantileSketch`]) extends the same guarantee
//! to streaming quantiles: its merge is pure u64 bucket addition.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::alert::SketchRing;
use pscp_proto::json::Writer;
use pscp_stats::QuantileSketch;

/// Fixed bucket edges for a histogram family.
///
/// Edges are `&'static` and never change at runtime, so snapshots from
/// different runs (or different PRs) always line up bucket-for-bucket.
/// Values above the last edge land in an implicit overflow bucket.
#[derive(Debug)]
pub struct HistogramSpec {
    /// Upper-inclusive bucket edges, strictly increasing.
    pub edges: &'static [u64],
}

/// Millisecond-scale durations (join times, stalls, fetch times).
pub const MS_BUCKETS: HistogramSpec = HistogramSpec {
    edges: &[1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 60_000],
};

/// Byte counts (segment bodies, transfers, captures).
pub const BYTE_BUCKETS: HistogramSpec = HistogramSpec {
    edges: &[256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216],
};

/// Power draw in milliwatts (energy scenarios).
pub const MILLIWATT_BUCKETS: HistogramSpec =
    HistogramSpec { edges: &[500, 1_000, 1_500, 2_000, 2_500, 3_000, 3_500, 4_000, 5_000, 6_000] };

/// Kilobit-per-second rates (bandwidth limits).
pub const KBPS_BUCKETS: HistogramSpec = HistogramSpec {
    edges: &[250, 500, 1_000, 2_000, 4_000, 6_000, 8_000, 10_000, 20_000, 100_000],
};

/// One histogram: per-bucket counts plus total/sum so means are
/// recoverable without storing samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// The spec's edges, kept for rendering.
    pub edges: &'static [u64],
    /// `counts[i]` = observations `≤ edges[i]` (and `> edges[i-1]`); the
    /// final slot is the overflow bucket.
    pub counts: Vec<u64>,
    /// Number of observations.
    pub total: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl Histogram {
    fn new(spec: &'static HistogramSpec) -> Self {
        Histogram { edges: spec.edges, counts: vec![0; spec.edges.len() + 1], total: 0, sum: 0 }
    }

    fn observe(&mut self, value: u64) {
        let idx = self.edges.iter().position(|&e| value <= e).unwrap_or(self.edges.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
    }

    fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.edges, other.edges, "histogram spec mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }
}

/// Named counters, histograms and quantile sketches keyed by
/// `(subsystem, name)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<(&'static str, &'static str), u64>,
    histograms: BTreeMap<(&'static str, &'static str), Histogram>,
    sketches: BTreeMap<(&'static str, &'static str), QuantileSketch>,
    rings: BTreeMap<(&'static str, &'static str), SketchRing>,
}

impl MetricsRegistry {
    /// An empty registry (usable in `const`/`static` contexts).
    pub const fn new() -> Self {
        MetricsRegistry {
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            sketches: BTreeMap::new(),
            rings: BTreeMap::new(),
        }
    }

    /// Adds `by` to the `(subsystem, name)` counter.
    pub fn count(&mut self, subsystem: &'static str, name: &'static str, by: u64) {
        *self.counters.entry((subsystem, name)).or_insert(0) += by;
    }

    /// Records one observation into the `(subsystem, name)` histogram.
    pub fn observe(
        &mut self,
        subsystem: &'static str,
        name: &'static str,
        spec: &'static HistogramSpec,
        value: u64,
    ) {
        self.histograms
            .entry((subsystem, name))
            .or_insert_with(|| Histogram::new(spec))
            .observe(value);
    }

    /// Records one observation into the `(subsystem, name)` quantile
    /// sketch — the constant-memory instrument for integer-domain values
    /// (microseconds, ppm, bytes) whose quantiles matter, not just their
    /// bucketed shape.
    pub fn sketch_observe(&mut self, subsystem: &'static str, name: &'static str, value: u64) {
        self.sketches.entry((subsystem, name)).or_default().observe(value);
    }

    /// Records one observation into the `(subsystem, name)` windowed
    /// sketch ring at sim-time `t_us` — the alerting layer's instrument
    /// (DESIGN.md §14): same merge algebra as a sketch, plus a sim-minute
    /// window axis so burn rates can be computed over sliding windows.
    pub fn ring_observe(
        &mut self,
        subsystem: &'static str,
        name: &'static str,
        t_us: u64,
        value: u64,
    ) {
        self.rings.entry((subsystem, name)).or_default().observe(t_us, value);
    }

    /// Folds another registry into this one. Order-independent: merging
    /// `a` into `b` or `b` into `a` yields identical totals.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (&k, &v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (&k, h) in &other.histograms {
            match self.histograms.get_mut(&k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k, h.clone());
                }
            }
        }
        for (&k, s) in &other.sketches {
            self.sketches.entry(k).or_default().merge(s);
        }
        for (&k, r) in &other.rings {
            self.rings.entry(k).or_default().merge(r);
        }
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, subsystem: &str, name: &str) -> u64 {
        self.counters.get(&(subsystem, name)).copied().unwrap_or(0)
    }

    /// A histogram by key, if recorded.
    pub fn histogram(&self, subsystem: &str, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|&(&(s, n), _)| s == subsystem && n == name).map(|(_, h)| h)
    }

    /// A sketch by key, if recorded.
    pub fn sketch(&self, subsystem: &str, name: &str) -> Option<&QuantileSketch> {
        self.sketches.iter().find(|&(&(s, n), _)| s == subsystem && n == name).map(|(_, s)| s)
    }

    /// A windowed sketch ring by key, if recorded.
    pub fn ring(&self, subsystem: &str, name: &str) -> Option<&SketchRing> {
        self.rings.iter().find(|&(&(s, n), _)| s == subsystem && n == name).map(|(_, r)| r)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.histograms.is_empty()
            && self.sketches.is_empty()
            && self.rings.is_empty()
    }

    /// Sorted, de-duplicated list of subsystems with at least one metric.
    pub fn subsystems(&self) -> Vec<&'static str> {
        let mut subs: Vec<&'static str> = self
            .counters
            .keys()
            .chain(self.histograms.keys())
            .chain(self.sketches.keys())
            .chain(self.rings.keys())
            .map(|&(sub, _)| sub)
            .collect();
        subs.sort_unstable();
        subs.dedup();
        subs
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> + '_ {
        self.counters.iter().map(|(&(sub, name), &v)| (sub, name, v))
    }

    /// All histograms in key order.
    pub fn histograms(
        &self,
    ) -> impl Iterator<Item = (&'static str, &'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&(sub, name), h)| (sub, name, h))
    }

    /// All quantile sketches in key order.
    pub fn sketches(
        &self,
    ) -> impl Iterator<Item = (&'static str, &'static str, &QuantileSketch)> + '_ {
        self.sketches.iter().map(|(&(sub, name), s)| (sub, name, s))
    }

    /// All windowed sketch rings in key order.
    pub fn rings(&self) -> impl Iterator<Item = (&'static str, &'static str, &SketchRing)> + '_ {
        self.rings.iter().map(|(&(sub, name), r)| (sub, name, r))
    }

    /// Renders a stable-ordered plain-text report.
    pub fn snapshot_text(&self) -> String {
        let mut out = String::new();
        out.push_str("counters:\n");
        for (sub, name, v) in self.counters() {
            let _ = writeln!(out, "  {:<10} {:<28} {:>12}", sub, name, v);
        }
        out.push_str("histograms:\n");
        for (sub, name, h) in self.histograms() {
            let _ =
                writeln!(out, "  {:<10} {:<28} n={:<8} mean={:.1}", sub, name, h.total, h.mean());
            let mut buckets = String::new();
            for (i, &c) in h.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let edge = match h.edges.get(i) {
                    Some(e) => format!("<={e}"),
                    None => format!(">{}", h.edges.last().copied().unwrap_or(0)),
                };
                let _ = write!(buckets, " {edge}:{c}");
            }
            if !buckets.is_empty() {
                let _ = writeln!(out, "  {:<10} {:<28}{}", "", "", buckets);
            }
        }
        if !self.sketches.is_empty() {
            out.push_str("sketches:\n");
            for (sub, name, s) in self.sketches() {
                let q = |p: f64| s.quantile(p).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  {:<10} {:<28} n={:<8} p50={} p90={} p99={} max={}",
                    sub,
                    name,
                    s.count(),
                    q(0.50),
                    q(0.90),
                    q(0.99),
                    s.max().unwrap_or(0)
                );
            }
        }
        if !self.rings.is_empty() {
            out.push_str("rings:\n");
            for (sub, name, r) in self.rings() {
                let (first, last) = r.span().unwrap_or((0, 0));
                let _ = writeln!(
                    out,
                    "  {:<10} {:<28} n={:<8} windows={} first={} last={}",
                    sub,
                    name,
                    r.count(),
                    r.len(),
                    first,
                    last
                );
            }
        }
        out
    }

    /// Renders the registry as one JSON object. Keys are
    /// `"subsystem/name"` (names themselves contain dots), in the order of
    /// that joined string; the `rings` section appears only when a ring
    /// was recorded.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::new();
        let w = &mut Writer::new(&mut out);
        w.begin_object();
        w.key("counters").begin_object();
        for (key, v) in by_joined_key(self.counters()) {
            w.key(&key).int(v);
        }
        w.end_object();
        w.key("histograms").begin_object();
        for (key, h) in by_joined_key(self.histograms()) {
            w.key(&key).begin_object();
            w.key("counts");
            ints(w, &h.counts);
            w.key("edges");
            ints(w, h.edges);
            w.key("sum").int(h.sum);
            w.key("total").int(h.total);
            w.end_object();
        }
        w.end_object();
        if !self.rings.is_empty() {
            w.key("rings").begin_object();
            for (key, r) in by_joined_key(self.rings()) {
                w.key(&key).begin_object();
                w.key("count").int(r.count());
                w.key("windows").begin_array();
                for (idx, s) in r.windows() {
                    ints(w, &[idx, s.count()]);
                }
                w.end_array();
                w.end_object();
            }
            w.end_object();
        }
        w.key("sketches").begin_object();
        for (key, s) in by_joined_key(self.sketches()) {
            let q = |p: f64| s.quantile(p).unwrap_or(0);
            w.key(&key).begin_object();
            w.key("count").int(s.count());
            w.key("max").int(s.max().unwrap_or(0));
            w.key("min").int(s.min().unwrap_or(0));
            w.key("p50").int(q(0.50));
            w.key("p90").int(q(0.90));
            w.key("p99").int(q(0.99));
            w.key("sum").int(s.sum());
            w.end_object();
        }
        w.end_object();
        w.end_object();
        out
    }
}

/// `(subsystem, name, item)` triples as `("subsystem/name", item)`, sorted
/// by the joined key: the order of the object they are written into.
fn by_joined_key<T>(
    items: impl Iterator<Item = (&'static str, &'static str, T)>,
) -> Vec<(String, T)> {
    let mut out: Vec<(String, T)> =
        items.map(|(sub, name, t)| (format!("{sub}/{name}"), t)).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Writes `values` as an array of integers.
fn ints(w: &mut Writer<'_>, values: &[u64]) {
    w.begin_array();
    values.iter().for_each(|&v| w.int(v));
    w.end_array();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.count("service", "rate_limited", 1);
        m.count("service", "rate_limited", 2);
        assert_eq!(m.counter("service", "rate_limited"), 3);
        assert_eq!(m.counter("service", "missing"), 0);
    }

    #[test]
    fn histogram_buckets_value_on_upper_inclusive_edge() {
        let mut m = MetricsRegistry::new();
        for v in [1, 2, 3, 2_000_000] {
            m.observe("player", "join_time_ms", &MS_BUCKETS, v);
        }
        let h = m.histogram("player", "join_time_ms").unwrap();
        assert_eq!(h.counts[0], 1); // value 1 lands in <=1 (upper-inclusive)
        assert_eq!(h.counts[1], 1); // value 2 lands in <=2
        assert_eq!(h.counts[2], 1); // value 3 lands in <=5
        assert_eq!(*h.counts.last().unwrap(), 1); // 2e6 overflows
        assert_eq!(h.total, 4);
    }

    #[test]
    fn empty_histogram_mean_is_zero_not_nan() {
        let h = Histogram::new(&MS_BUCKETS);
        assert_eq!(h.total, 0);
        let mean = h.mean();
        assert!(!mean.is_nan(), "empty mean must never print NaN into JSON");
        assert_eq!(mean, 0.0);
    }

    #[test]
    fn merge_is_order_independent() {
        let build = |values: &[u64]| {
            let mut m = MetricsRegistry::new();
            for &v in values {
                m.count("tcp", "transfers", 1);
                m.observe("tcp", "fetch_ms", &MS_BUCKETS, v);
            }
            m
        };
        let a = build(&[5, 80]);
        let b = build(&[900]);
        let mut ab = MetricsRegistry::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = MetricsRegistry::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("tcp", "transfers"), 3);
    }

    #[test]
    fn snapshot_order_is_stable_across_recording_order() {
        let mut a = MetricsRegistry::new();
        a.count("zz", "last", 1);
        a.count("aa", "first", 1);
        let mut b = MetricsRegistry::new();
        b.count("aa", "first", 1);
        b.count("zz", "last", 1);
        assert_eq!(a.snapshot_text(), b.snapshot_text());
        assert_eq!(a.snapshot_json(), b.snapshot_json());
        let text = a.snapshot_text();
        assert!(text.find("aa").unwrap() < text.find("zz").unwrap());
    }

    #[test]
    fn subsystems_are_sorted_and_deduped() {
        let mut m = MetricsRegistry::new();
        m.count("player", "stalls", 1);
        m.observe("player", "stall_ms", &MS_BUCKETS, 10);
        m.count("hls", "segments_fetched", 1);
        m.sketch_observe("api", "latency_us", 1234);
        assert_eq!(m.subsystems(), vec!["api", "hls", "player"]);
    }

    #[test]
    fn sketch_instrument_records_and_merges_order_independently() {
        let build = |values: &[u64]| {
            let mut m = MetricsRegistry::new();
            for &v in values {
                m.sketch_observe("player", "join_time_us", v);
            }
            m
        };
        let a = build(&[1_000_000, 2_500_000]);
        let b = build(&[9_000_000]);
        let mut ab = MetricsRegistry::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = MetricsRegistry::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba, "sketch merge is exactly order-independent");
        let s = ab.sketch("player", "join_time_us").unwrap();
        assert_eq!(s.count(), 3);
        assert!(!ab.is_empty());
        assert_eq!(ab.snapshot_json(), ba.snapshot_json());
        assert!(ab.snapshot_json().contains("\"player/join_time_us\":{\"count\":3"));
        assert!(ab.snapshot_text().contains("sketches:"));
    }

    #[test]
    fn ring_instrument_records_and_merges_order_independently() {
        let build = |obs: &[(u64, u64)]| {
            let mut m = MetricsRegistry::new();
            for &(t, v) in obs {
                m.ring_observe("alert", "join_time_us", t, v);
            }
            m
        };
        let a = build(&[(0, 100), (61_000_000, 900)]);
        let b = build(&[(59_000_000, 400)]);
        let mut ab = MetricsRegistry::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = MetricsRegistry::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba, "ring merge is exactly order-independent");
        let r = ab.ring("alert", "join_time_us").unwrap();
        assert_eq!(r.count(), 3);
        assert_eq!(r.len(), 2, "minutes 0 and 1");
        assert!(!ab.is_empty());
        assert_eq!(ab.snapshot_json(), ba.snapshot_json());
        assert!(ab.snapshot_json().contains("\"rings\":{\"alert/join_time_us\":{\"count\":3"));
        assert!(ab.snapshot_text().contains("rings:"));
        assert_eq!(ab.subsystems(), vec!["alert"]);
    }

    #[test]
    fn ring_free_registry_omits_rings_section() {
        let mut m = MetricsRegistry::new();
        m.count("tcp", "transfers", 1);
        assert!(!m.snapshot_json().contains("rings"));
        assert!(!m.snapshot_text().contains("rings:"));
    }

    #[test]
    fn sketch_free_registry_renders_empty_sketch_object() {
        let mut m = MetricsRegistry::new();
        m.count("tcp", "transfers", 1);
        assert!(m.snapshot_json().ends_with("\"sketches\":{}}"));
        assert!(!m.snapshot_text().contains("sketches:"));
    }

    /// Keys follow the joined `sub/name` string, not the `(sub, name)`
    /// pair: `a.b/c` sorts before `a/z` because `.` sorts before `/`.
    #[test]
    fn snapshot_keys_ascend_as_joined_strings() {
        let mut m = MetricsRegistry::new();
        m.count("a", "z", 1);
        m.count("a.b", "c", 2);
        assert_eq!(
            m.snapshot_json(),
            "{\"counters\":{\"a.b/c\":2,\"a/z\":1},\"histograms\":{},\"sketches\":{}}"
        );
    }
}
