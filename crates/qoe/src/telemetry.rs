//! Constant-memory streaming QoE telemetry (DESIGN.md §11).
//!
//! [`QoeTelemetry`] folds per-session outcomes and per-session phase
//! breakdowns into mergeable sketches: quantile sketches for the headline
//! distributions (join time, stall ratio, RTMP playback latency),
//! streaming moments for means/variances (HLS latency, per-phase
//! decomposition) and a space-saving top-K for dominant-phase
//! attribution. Memory is O(1) in the number of sessions, and `merge` is
//! exact and order-independent for the sketch counts, so a sharded or
//! batched fold produces the same telemetry as a serial one. This is the
//! instrument of the runs that never hold a [`SessionDataset`] — the live
//! `repro watch` monitor and `run_scale`'s tiers; a dataset already in
//! memory is judged exactly, from its sorted samples, by [`crate::slo`]
//! and [`crate::compare`]. Both judge the same four objectives through
//! [`crate::slo::judge`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

use pscp_client::SessionOutcome;
use pscp_service::select::Protocol;
use pscp_stats::{Moments, QuantileSketch, TopK};

use crate::dataset::SessionDataset;
use crate::slo::PhaseBreakdown;

/// How many dominant phases the attribution top-K tracks.
const DOMINANT_K: usize = 8;

/// Per-protocol accumulator slots (RTMP, HLS, SRT).
const N_PROTOCOLS: usize = 3;

fn pidx(p: Protocol) -> usize {
    match p {
        Protocol::Rtmp => 0,
        Protocol::Hls => 1,
        Protocol::Srt => 2,
    }
}

/// Seconds → integer microseconds for the sketch domain.
fn us(secs: f64) -> u64 {
    (secs * 1e6).round().max(0.0) as u64
}

/// The scalars the telemetry (and the scale engine's roll-up) read off a
/// finished session: a few words, so a worker can drop the session's
/// multi-MB capture and hand only this to the thread that folds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSample {
    /// Whether a `tc` bandwidth limit was in effect.
    pub limited: bool,
    /// Delivery protocol used.
    pub protocol: Protocol,
    /// Join time, seconds (`None` = playback never started).
    pub join_s: Option<f64>,
    /// Total watch time, seconds.
    pub session_s: f64,
    /// Stall ratio.
    pub stall_ratio: f64,
    /// The protocol's latency instrument, seconds: the playbackMeta
    /// latency for RTMP, the mean capture→render latency for HLS, nothing
    /// for SRT.
    pub latency_s: Option<f64>,
}

impl SessionSample {
    /// The sample of one outcome.
    pub fn of(s: &SessionOutcome) -> SessionSample {
        SessionSample {
            limited: s.bandwidth_limit_bps.is_some(),
            protocol: s.protocol,
            join_s: s.join_time_s(),
            session_s: s.player.session_s,
            stall_ratio: s.stall_ratio(),
            latency_s: match s.protocol {
                Protocol::Rtmp => s.meta.playback_latency_s,
                Protocol::Hls => s.player.mean_latency_s(),
                Protocol::Srt => None,
            },
        }
    }
}

/// Streaming QoE telemetry over sessions and phase breakdowns.
#[derive(Debug, Clone)]
pub struct QoeTelemetry {
    n_sessions: u64,
    /// Join times (µs) over unlimited-bandwidth sessions; a session that
    /// never joined counts as its full watch duration, matching
    /// [`SessionDataset::join_times_s`].
    pub join_us: QuantileSketch,
    /// Stall ratios (parts-per-million) over unlimited sessions.
    pub stall_ppm: QuantileSketch,
    /// RTMP playbackMeta latencies (µs) over unlimited RTMP sessions.
    pub rtmp_latency_us: QuantileSketch,
    /// HLS capture→render latency (seconds) over unlimited HLS sessions.
    pub hls_latency_s: Moments,
    /// Breakdown join times (µs), all protocols — the MAD-outlier base.
    pub join_bd_us: QuantileSketch,
    /// Per-protocol join-time moments over breakdowns (RTMP, HLS, SRT).
    join_bd: [Moments; N_PROTOCOLS],
    /// Per-phase duration moments, keyed by phase name, per protocol.
    phases: BTreeMap<String, [Moments; N_PROTOCOLS]>,
    /// Dominant-phase counts over breakdowns.
    pub dominant: TopK,
}

impl Default for QoeTelemetry {
    fn default() -> Self {
        QoeTelemetry::new()
    }
}

impl QoeTelemetry {
    /// An empty telemetry accumulator.
    pub fn new() -> QoeTelemetry {
        QoeTelemetry {
            n_sessions: 0,
            join_us: QuantileSketch::new(),
            stall_ppm: QuantileSketch::new(),
            rtmp_latency_us: QuantileSketch::new(),
            hls_latency_s: Moments::new(),
            join_bd_us: QuantileSketch::new(),
            join_bd: [Moments::new(); N_PROTOCOLS],
            phases: BTreeMap::new(),
            dominant: TopK::new(DOMINANT_K),
        }
    }

    /// Folds one completed session ([`QoeTelemetry::fold_sample`] of its
    /// [`SessionSample`]).
    pub fn fold_outcome(&mut self, s: &SessionOutcome) {
        self.fold_sample(&SessionSample::of(s));
    }

    /// Folds one session's scalars. Only unlimited-bandwidth sessions
    /// feed the headline sketches, mirroring the exact SLO objectives.
    pub fn fold_sample(&mut self, s: &SessionSample) {
        self.n_sessions += 1;
        if s.limited {
            return;
        }
        self.join_us.observe(us(s.join_s.unwrap_or(s.session_s)));
        self.stall_ppm.observe((s.stall_ratio * 1e6).round() as u64);
        match (s.protocol, s.latency_s) {
            (Protocol::Rtmp, Some(lat)) => self.rtmp_latency_us.observe(us(lat)),
            (Protocol::Hls, Some(lat)) => self.hls_latency_s.observe(lat),
            // SRT sessions feed the protocol-agnostic join/stall sketches
            // above; neither per-protocol latency objective applies.
            _ => {}
        }
    }

    /// Folds one session's phase breakdown.
    pub fn fold_breakdown(&mut self, b: &PhaseBreakdown) {
        let p = pidx(b.protocol);
        self.join_bd_us.observe(us(b.join_s));
        self.join_bd[p].observe(b.join_s);
        for (name, secs) in &b.phases {
            let entry = self.phases.entry(name.clone()).or_insert([Moments::new(); N_PROTOCOLS]);
            entry[p].observe(*secs);
        }
        if let Some((name, _)) = b.dominant_phase() {
            self.dominant.observe(name, 1);
        }
    }

    /// Folds every session of a dataset (outcomes only; breakdowns are
    /// folded separately because they come from the span log).
    pub fn from_dataset(dataset: &SessionDataset) -> QoeTelemetry {
        let mut t = QoeTelemetry::new();
        for s in &dataset.sessions {
            t.fold_outcome(s);
        }
        t
    }

    /// Merges another accumulator in. Sketch counts merge exactly
    /// (order-independent); moments merge via Chan's parallel update.
    pub fn merge(&mut self, other: &QoeTelemetry) {
        self.n_sessions += other.n_sessions;
        self.join_us.merge(&other.join_us);
        self.stall_ppm.merge(&other.stall_ppm);
        self.rtmp_latency_us.merge(&other.rtmp_latency_us);
        self.hls_latency_s.merge(&other.hls_latency_s);
        self.join_bd_us.merge(&other.join_bd_us);
        for p in 0..N_PROTOCOLS {
            self.join_bd[p].merge(&other.join_bd[p]);
        }
        for (name, theirs) in &other.phases {
            let entry = self.phases.entry(name.clone()).or_insert([Moments::new(); N_PROTOCOLS]);
            for p in 0..N_PROTOCOLS {
                entry[p].merge(&theirs[p]);
            }
        }
        self.dominant.merge(&other.dominant);
    }

    /// Sessions folded so far (including bandwidth-limited ones).
    pub fn n_sessions(&self) -> u64 {
        self.n_sessions
    }

    /// Breakdowns folded for `protocol`.
    pub fn breakdown_count(&self, protocol: Protocol) -> u64 {
        self.join_bd[pidx(protocol)].count()
    }

    /// Mean breakdown join time for `protocol`, seconds.
    pub fn join_mean_s(&self, protocol: Protocol) -> f64 {
        self.join_bd[pidx(protocol)].mean()
    }

    /// `(phase name, mean seconds)` for `protocol`, sorted by name.
    /// Sessions missing a phase count as zero, matching the exact
    /// decomposition's sum-over-group / group-size convention.
    pub fn phase_means(&self, protocol: Protocol) -> Vec<(String, f64)> {
        let p = pidx(protocol);
        let n = self.join_bd[p].count();
        if n == 0 {
            return Vec::new();
        }
        self.phases
            .iter()
            .filter(|(_, m)| m[p].count() > 0)
            .map(|(name, m)| (name.clone(), m[p].mean() * (m[p].count() as f64 / n as f64)))
            .collect()
    }

    /// Total bytes held by the sketch state — the number that stays flat
    /// as the session count grows.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<QoeTelemetry>()
            + self.join_us.memory_bytes()
            + self.stall_ppm.memory_bytes()
            + self.rtmp_latency_us.memory_bytes()
            + self.join_bd_us.memory_bytes()
            + self
                .phases
                .keys()
                .map(|k| k.len() + std::mem::size_of::<[Moments; N_PROTOCOLS]>())
                .sum::<usize>()
            + self.dominant.memory_bytes()
    }

    /// SLO objectives from `spec` that are measurable *and* violated in
    /// this snapshot, as stable objective names: the failing rows of
    /// [`crate::slo::judge`] over the sketch quantiles. Unmeasured
    /// objectives (too few samples) are not violations, so an empty watch
    /// run exits clean.
    pub fn violations(&self, spec: &crate::slo::SloSpec) -> Vec<&'static str> {
        let secs = |q: Option<u64>| q.map(|v| v as f64 / 1e6);
        let enough_rtmp = self.rtmp_latency_us.count() >= crate::slo::MIN_QUANTILE_SAMPLES as u64;
        let measured = crate::slo::Measured {
            join_p90_s: secs(self.join_us.quantile(0.90)),
            stall_ratio_p90: secs(self.stall_ppm.quantile(0.90)),
            rtmp_latency_p75_s: secs(self.rtmp_latency_us.quantile(0.75)).filter(|_| enough_rtmp),
            hls_latency_mean_s: (!self.hls_latency_s.is_empty()).then(|| self.hls_latency_s.mean()),
        };
        let judged = crate::slo::judge(spec, &measured);
        judged.into_iter().filter(|o| !o.pass).map(|o| o.name).collect()
    }

    /// One stable JSON object (no trailing newline) summarising the
    /// telemetry: the `repro watch` snapshot body. Deterministic: fixed
    /// key order, fixed float precision, `null` for unmeasured values.
    pub fn snapshot_json(&self) -> String {
        fn opt_s(v: Option<u64>) -> String {
            v.map(|u| format!("{:.6}", u as f64 / 1e6)).unwrap_or_else(|| "null".to_string())
        }
        let mut s = String::with_capacity(512);
        let _ = write!(s, "{{\"n_sessions\":{}", self.n_sessions);
        let _ = write!(s, ",\"join_p50_s\":{}", opt_s(self.join_us.quantile(0.50)));
        let _ = write!(s, ",\"join_p90_s\":{}", opt_s(self.join_us.quantile(0.90)));
        let _ = write!(s, ",\"stall_ratio_p90\":{}", opt_s(self.stall_ppm.quantile(0.90)));
        let _ = write!(s, ",\"rtmp_latency_p75_s\":{}", opt_s(self.rtmp_latency_us.quantile(0.75)));
        if self.hls_latency_s.is_empty() {
            s.push_str(",\"hls_latency_mean_s\":null");
        } else {
            let _ = write!(s, ",\"hls_latency_mean_s\":{:.6}", self.hls_latency_s.mean());
        }
        s.push_str(",\"phase_means_s\":{");
        // The `srt` key appears only once SRT breakdowns exist, so default
        // (SRT-unselected) snapshots keep their pre-SRT bytes exactly.
        let mut protos = vec![(Protocol::Rtmp, "rtmp"), (Protocol::Hls, "hls")];
        if self.breakdown_count(Protocol::Srt) > 0 {
            protos.push((Protocol::Srt, "srt"));
        }
        for (i, (proto, label)) in protos.into_iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{label}\":{{");
            for (j, (name, mean)) in self.phase_means(proto).iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\":{:.6}", name, mean);
            }
            s.push('}');
        }
        s.push_str("},\"dominant_phases\":[");
        for (i, (name, count, _err)) in self.dominant.top().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "[\"{}\",{}]", name, count);
        }
        let _ = write!(s, "],\"sketch_bytes\":{}}}", self.memory_bytes());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakdown(unit: &str, protocol: Protocol, phases: &[(&str, f64)]) -> PhaseBreakdown {
        PhaseBreakdown {
            unit: unit.to_string(),
            protocol,
            join_s: phases.iter().map(|(_, s)| s).sum(),
            phases: phases.iter().map(|(n, s)| (n.to_string(), *s)).collect(),
        }
    }

    #[test]
    fn fold_and_merge_agree_with_serial() {
        let bds: Vec<PhaseBreakdown> = (0..100)
            .map(|i| {
                let proto = if i % 3 == 0 { Protocol::Hls } else { Protocol::Rtmp };
                let buf = 0.5 + (i % 17) as f64 * 0.25;
                breakdown(
                    &format!("session/{i}"),
                    proto,
                    &[("api.request", 0.1), ("buffering", buf)],
                )
            })
            .collect();
        let mut serial = QoeTelemetry::new();
        for b in &bds {
            serial.fold_breakdown(b);
        }
        let (left, right) = bds.split_at(33);
        let mut a = QoeTelemetry::new();
        let mut b = QoeTelemetry::new();
        for bd in left {
            a.fold_breakdown(bd);
        }
        for bd in right {
            b.fold_breakdown(bd);
        }
        a.merge(&b);
        assert_eq!(a.join_bd_us, serial.join_bd_us, "sketch counts merge exactly");
        assert_eq!(a.breakdown_count(Protocol::Rtmp), serial.breakdown_count(Protocol::Rtmp));
        assert_eq!(a.dominant.top(), serial.dominant.top());
        assert!((a.join_mean_s(Protocol::Rtmp) - serial.join_mean_s(Protocol::Rtmp)).abs() < 1e-9);
        assert_eq!(a.snapshot_json(), serial.snapshot_json());
    }

    #[test]
    fn phase_means_match_exact_decomposition_convention() {
        // One session missing the "playlist" phase: its mean divides by
        // the group size, not by the number of sessions with the phase.
        let mut t = QoeTelemetry::new();
        t.fold_breakdown(&breakdown("a", Protocol::Hls, &[("playlist", 1.0), ("segments", 2.0)]));
        t.fold_breakdown(&breakdown("b", Protocol::Hls, &[("segments", 4.0)]));
        let means = t.phase_means(Protocol::Hls);
        assert_eq!(means.len(), 2);
        assert!((means[0].1 - 0.5).abs() < 1e-12, "playlist: 1.0 over 2 sessions");
        assert!((means[1].1 - 3.0).abs() < 1e-12, "segments: (2+4)/2");
    }

    #[test]
    fn memory_stays_flat_as_sessions_grow() {
        let mut t = QoeTelemetry::new();
        for i in 0..10_000u64 {
            t.fold_breakdown(&breakdown(
                &format!("session/{i}"),
                Protocol::Rtmp,
                &[("buffering", (i % 100) as f64 * 0.1)],
            ));
        }
        let at_10k = t.memory_bytes();
        for i in 0..90_000u64 {
            t.fold_breakdown(&breakdown(
                &format!("more/{i}"),
                Protocol::Rtmp,
                &[("buffering", (i % 100) as f64 * 0.1)],
            ));
        }
        assert_eq!(t.memory_bytes(), at_10k, "same value range → identical footprint at 10x");
        assert!(at_10k < 256 * 1024, "well under 256 KiB: {at_10k}");
    }

    #[test]
    fn snapshot_json_is_stable_and_nan_free() {
        let t = QoeTelemetry::new();
        let empty = t.snapshot_json();
        assert!(empty.contains("\"join_p90_s\":null"));
        assert!(!empty.contains("NaN"));
        let mut t2 = QoeTelemetry::new();
        t2.fold_breakdown(&breakdown("a", Protocol::Rtmp, &[("buffering", 1.5)]));
        let snap = t2.snapshot_json();
        assert!(snap.contains("\"dominant_phases\":[[\"buffering\",1]]"));
        assert_eq!(snap, t2.snapshot_json());
    }
}
