//! Deterministic mergeable streaming summaries (DESIGN.md §11).
//!
//! Three constant-memory structures back the streaming telemetry pipeline:
//!
//! * [`QuantileSketch`] — a fixed-policy log-linear bucket sketch over a
//!   `u64` integer domain (microseconds, ppm, bytes). Merging adds `u64`
//!   bucket counts, so `merge` is exactly associative *and* commutative:
//!   folding per-worker sketches in plan order is bit-identical to a
//!   serial fold, the same discipline `pscp-obs` trace absorption uses.
//! * [`Moments`] — streaming count/mean/M2 (Welford), mergeable with
//!   Chan's parallel formula; enough to drive Welch's t-test without ever
//!   materializing a sample vector.
//! * [`TopK`] — space-saving heavy-hitter tracking with fully
//!   deterministic tie-breaks, for phase/outlier attribution.
//!
//! None of these structures allocates per observation once warmed: memory
//! is O(buckets), O(1) and O(k) respectively, independent of stream
//! length — the property that lets QoE telemetry run at 100K+ sessions
//! without holding samples.

/// Sub-bucket resolution: 2^7 = 128 sub-buckets per octave, giving a
/// worst-case relative value error of `1/128 < 1%` for any value above
/// the exact region.
const SUB_BITS: u32 = 7;
/// Sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;
/// Values below `2·SUB` get one bucket each (exact small-value region).
const EXACT_LIMIT: u64 = 2 * SUB;

/// A deterministic mergeable quantile sketch over `u64` values.
///
/// Log-linear bucketing (HDR-histogram style): values below
/// `EXACT_LIMIT` are stored exactly; above it, each power-of-two octave
/// is split into 128 sub-buckets, bounding the relative width of any
/// bucket — and therefore the value error of any reported quantile — to
/// under 1%. The bucket policy is a pure function of the value, fixed at
/// compile time, so two sketches built from the same multiset of values
/// are bit-identical regardless of insertion or merge order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Dense per-bucket counts, grown lazily to the highest touched index.
    counts: Vec<u64>,
    /// Number of observations.
    count: u64,
    /// Sum of observed values (saturating).
    sum: u64,
    /// Smallest observed value (meaningless when `count == 0`).
    min: u64,
    /// Largest observed value.
    max: u64,
}

/// Bucket index of a value under the fixed log-linear policy.
fn bucket_index(v: u64) -> usize {
    if v < EXACT_LIMIT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64; // >= SUB_BITS + 1
    let octave = msb - SUB_BITS as u64; // >= 1
    let offset = (v >> (msb - SUB_BITS as u64)) - SUB;
    (EXACT_LIMIT + (octave - 1) * SUB + offset) as usize
}

/// Inclusive `(lower, upper)` value bounds of bucket `i` — the inverse of
/// [`bucket_index`]. Public (via [`QuantileSketch::bucket_bounds`]) so
/// property tests can pin the bracket guarantee.
fn bucket_range(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < EXACT_LIMIT {
        return (i, i);
    }
    let octave = (i - EXACT_LIMIT) / SUB + 1;
    let offset = (i - EXACT_LIMIT) % SUB;
    let msb = octave + SUB_BITS as u64;
    let width = 1u64 << (msb - SUB_BITS as u64);
    let lower = (1u64 << msb) + offset * width;
    // `width - 1` first: the top bucket's `lower + width` is 2^64 exactly.
    (lower, lower + (width - 1))
}

impl QuantileSketch {
    /// An empty sketch.
    pub const fn new() -> QuantileSketch {
        QuantileSketch { counts: Vec::new(), count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.observe_n(value, 1);
    }

    /// Records `n` identical observations.
    pub fn observe_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_index(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another sketch into this one. Pure `u64` bucket addition:
    /// exactly associative and commutative, so any merge tree over the
    /// same leaf sketches produces bit-identical state.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether the sketch has seen no values.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observed value, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observed value, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// The `p`-quantile (upper bucket edge), using the same rank
    /// convention as `Ecdf::inverse`: the reported value `q` satisfies
    /// `#{x ≤ q} ≥ ceil(p·n)`, and `q` overestimates the exact quantile
    /// by at most one bucket width (< 1% relative). `None` when empty.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                let (_, upper) = bucket_range(i);
                return Some(upper.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Inclusive value bounds of the bucket that `value` lands in — the
    /// sketch's resolution at that magnitude.
    pub fn bucket_bounds(value: u64) -> (u64, u64) {
        bucket_range(bucket_index(value))
    }

    /// Observations strictly greater than `threshold`, by bucket: counts
    /// every bucket whose whole range lies above `threshold`, so values
    /// sharing the threshold's bucket are counted as *not* greater
    /// (under-counting by at most one bucket width, < 1% in value). A pure
    /// function of the bucket counts, so it merges exactly like the sketch
    /// itself — the burn-rate evaluator's "bad observation" primitive.
    pub fn count_gt(&self, threshold: u64) -> u64 {
        let first_above = bucket_index(threshold) + 1;
        self.counts.iter().skip(first_above).sum()
    }

    /// Heap + inline memory footprint in bytes. Bounded by the bucket
    /// policy (≤ ~7.5K buckets over the full `u64` range), independent of
    /// how many values were observed. Measured over the bucket array's
    /// *extent* (highest touched index), not the allocator's capacity:
    /// the extent is a pure function of the observed value set, so equal
    /// sketches report equal footprints no matter what observe/merge path
    /// built them — snapshots that embed this number stay byte-identical
    /// across shard and thread counts.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<QuantileSketch>() + self.counts.len() * 8
    }
}

/// Streaming count/mean/M2 (Welford), mergeable with Chan's formula.
///
/// Carries exactly the sufficient statistics Welch's t-test needs
/// (`n`, `mean`, sample variance), so device comparisons can run over
/// streams without sample vectors. Merging is deterministic for a fixed
/// merge order (floats are not associative); the pipeline merges in plan
/// order, matching the trace-absorption discipline.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// An empty accumulator.
    pub const fn new() -> Moments {
        Moments { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Records one observation (NaN is ignored — a NaN in a telemetry
    /// stream is an upstream bug, and poisoning the whole summary would
    /// hide every later sample).
    pub fn observe(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Folds another accumulator into this one (Chan et al.'s parallel
    /// update).
    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Whether no values were observed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Mean (0 when empty, never NaN).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance, `M2 / (n-1)` (`None` below two samples).
    pub fn variance(&self) -> Option<f64> {
        (self.n >= 2).then(|| (self.m2 / (self.n as f64 - 1.0)).max(0.0))
    }

    /// Smallest observed value, if any.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observed value, if any.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// Deterministic space-saving top-K heavy hitters over string keys.
///
/// Classic space-saving guarantees `true ≤ estimate ≤ true + err` per
/// key. Every tie in eviction and reporting is broken by the key's
/// lexicographic order, so the tracked set and the reported ranking are
/// pure functions of the observation multiset and order — never of hash
/// iteration or thread scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopK {
    k: usize,
    /// `(key, estimated count, overestimation error)`, unordered.
    entries: Vec<(String, u64, u64)>,
}

impl TopK {
    /// A tracker keeping at most `k` keys (`k ≥ 1`).
    pub fn new(k: usize) -> TopK {
        TopK { k: k.max(1), entries: Vec::new() }
    }

    /// Records `by` occurrences of `key`.
    pub fn observe(&mut self, key: &str, by: u64) {
        if by == 0 {
            return;
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == key) {
            e.1 += by;
            return;
        }
        if self.entries.len() < self.k {
            self.entries.push((key.to_string(), by, 0));
            return;
        }
        // Evict the smallest-count entry; among ties, the lexicographically
        // greatest key goes (a fixed rule — any rule works, it just must
        // not depend on insertion history beyond the counts themselves).
        let evict = self
            .entries
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .expect("k >= 1");
        let floor = self.entries[evict].1;
        self.entries[evict] = (key.to_string(), floor + by, floor);
    }

    /// Folds another tracker into this one: union the estimates, then
    /// keep the top `k` by `(count desc, key asc)`. Exact (and therefore
    /// order-independent) whenever the union fits in `k`; beyond that the
    /// usual space-saving overestimation applies.
    pub fn merge(&mut self, other: &TopK) {
        for (key, count, err) in &other.entries {
            match self.entries.iter_mut().find(|e| e.0 == *key) {
                Some(e) => {
                    e.1 += count;
                    e.2 += err;
                }
                None => self.entries.push((key.clone(), *count, *err)),
            }
        }
        self.entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        self.entries.truncate(self.k);
    }

    /// The tracked keys, highest estimate first (ties by key):
    /// `(key, estimated count, overestimation error)`.
    pub fn top(&self) -> Vec<(String, u64, u64)> {
        let mut out = self.entries.clone();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Number of tracked keys (≤ k).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate heap + inline footprint in bytes (string *lengths*,
    /// not capacities, so equal top-k states report equal footprints
    /// regardless of how they were built — see
    /// [`QuantileSketch::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<TopK>()
            + self
                .entries
                .iter()
                .map(|e| std::mem::size_of::<(String, u64, u64)>() + e.0.len())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_region_is_exact() {
        let mut s = QuantileSketch::new();
        for v in 0..EXACT_LIMIT {
            s.observe(v);
        }
        for p in [0.01, 0.25, 0.5, 0.75, 1.0] {
            let q = s.quantile(p).unwrap();
            let rank = ((p * s.count() as f64).ceil() as u64).clamp(1, s.count());
            assert_eq!(q, rank - 1, "small values are stored exactly");
        }
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(EXACT_LIMIT - 1));
    }

    #[test]
    fn bucket_index_and_range_are_inverse_and_contiguous() {
        let mut prev_upper: Option<u64> = None;
        for i in 0..2000usize {
            let (lo, hi) = bucket_range(i);
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            if let Some(p) = prev_upper {
                assert_eq!(lo, p + 1, "buckets tile the domain");
            }
            prev_upper = Some(hi);
        }
        // The very top bucket's upper edge is exactly u64::MAX.
        let (lo, hi) = bucket_range(bucket_index(u64::MAX));
        assert!(lo <= hi);
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [300u64, 1_000, 65_537, 1_000_000, 123_456_789, u64::MAX / 3] {
            let (lo, hi) = QuantileSketch::bucket_bounds(v);
            assert!((hi - lo) as f64 <= lo as f64 / SUB as f64 + 1.0, "width ≤ lower/128");
        }
    }

    #[test]
    fn merge_is_bit_identical_to_serial_fold() {
        let values: Vec<u64> = (0..5000u64).map(|i| i * i % 777_777).collect();
        let mut serial = QuantileSketch::new();
        for &v in &values {
            serial.observe(v);
        }
        let mut parts: Vec<QuantileSketch> = Vec::new();
        for chunk in values.chunks(613) {
            let mut s = QuantileSketch::new();
            for &v in chunk {
                s.observe(v);
            }
            parts.push(s);
        }
        let mut folded = QuantileSketch::new();
        for p in &parts {
            folded.merge(p);
        }
        assert_eq!(serial, folded);
        // Reverse merge order: commutativity.
        let mut rev = QuantileSketch::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(serial, rev);
    }

    #[test]
    fn quantile_brackets_the_exact_rank() {
        let values: Vec<u64> = (0..1000u64).map(|i| (i * 7919) % 1_000_000).collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let mut s = QuantileSketch::new();
        for &v in &values {
            s.observe(v);
        }
        for p in [0.1, 0.5, 0.9, 0.99] {
            let q = s.quantile(p).unwrap();
            let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let covered = sorted.partition_point(|&v| v <= q);
            assert!(covered >= rank, "q must cover the target rank");
            let exact = sorted[rank - 1];
            let (_, exact_upper) = QuantileSketch::bucket_bounds(exact);
            assert!(q <= exact_upper, "q at most one bucket above the exact quantile");
        }
    }

    #[test]
    fn empty_sketch_behaves() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), 0.0);
        let mut t = QuantileSketch::new();
        t.merge(&s);
        assert!(t.is_empty());
    }

    #[test]
    fn memory_is_constant_in_stream_length() {
        let mut s = QuantileSketch::new();
        // Spread across the whole 60s-of-microseconds domain, so the first
        // pass establishes the full bucket extent the domain needs.
        for i in 0..100_000u64 {
            s.observe((i * 601) % 60_000_000);
        }
        // 60s-of-microseconds domain: a few thousand buckets at most.
        assert!(s.memory_bytes() < 64 * 1024, "footprint {} too big", s.memory_bytes());
        let before = s.memory_bytes();
        for i in 0..100_000u64 {
            s.observe((i * 31) % 60_000_000);
        }
        assert_eq!(s.memory_bytes(), before, "more observations, same memory");
    }

    #[test]
    fn moments_match_naive_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut m = Moments::new();
        for &x in &data {
            m.observe(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() as f64 - 1.0);
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.variance().unwrap() - var).abs() < 1e-12);
        assert_eq!(m.count(), 8);
        assert_eq!(m.min(), Some(2.0));
        assert_eq!(m.max(), Some(9.0));
    }

    #[test]
    fn moments_merge_matches_whole() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 10.0 + 20.0).collect();
        let mut whole = Moments::new();
        for &x in &data {
            whole.observe(x);
        }
        let mut merged = Moments::new();
        for chunk in data.chunks(77) {
            let mut part = Moments::new();
            for &x in chunk {
                part.observe(x);
            }
            merged.merge(&part);
        }
        assert_eq!(merged.count(), whole.count());
        assert!((merged.mean() - whole.mean()).abs() < 1e-9);
        assert!((merged.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn moments_ignore_nan() {
        let mut m = Moments::new();
        m.observe(1.0);
        m.observe(f64::NAN);
        m.observe(3.0);
        assert_eq!(m.count(), 2);
        assert!((m.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn topk_exact_when_keys_fit() {
        let mut t = TopK::new(4);
        for (key, n) in [("hls.segments", 10), ("rtmp.buffering", 30), ("api.request", 5)] {
            t.observe(key, n);
        }
        let top = t.top();
        assert_eq!(top[0], ("rtmp.buffering".to_string(), 30, 0));
        assert_eq!(top[1], ("hls.segments".to_string(), 10, 0));
        assert_eq!(top[2], ("api.request".to_string(), 5, 0));
    }

    #[test]
    fn topk_eviction_keeps_overestimate_bound() {
        let mut t = TopK::new(2);
        t.observe("a", 10);
        t.observe("b", 5);
        t.observe("c", 1); // evicts b, the min-count entry
        let top = t.top();
        assert_eq!(top.len(), 2);
        let c = top.iter().find(|e| e.0 == "c").expect("c tracked");
        assert_eq!(c.1, 6, "estimate = evicted floor + increment");
        assert_eq!(c.2, 5, "error records the floor");
        assert!(c.1 - c.2 == 1, "true count within [est-err, est]");
    }

    #[test]
    fn topk_ties_break_deterministically() {
        let run = |order: &[&str]| {
            let mut t = TopK::new(2);
            for k in order {
                t.observe(k, 3);
            }
            t.observe("z", 1);
            t.top()
        };
        // Same multiset, different insertion order: identical final ranking.
        assert_eq!(run(&["a", "b"]), run(&["b", "a"]));
    }

    #[test]
    fn topk_merge_union_fits_is_order_independent() {
        let mut a = TopK::new(8);
        a.observe("x", 3);
        a.observe("y", 9);
        let mut b = TopK::new(8);
        b.observe("y", 2);
        b.observe("z", 4);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.top(), ba.top());
        assert_eq!(ab.top()[0], ("y".to_string(), 11, 0));
    }
}
