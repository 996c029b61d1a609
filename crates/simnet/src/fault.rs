//! Deterministic fault injection (DESIGN.md §8).
//!
//! The paper measured a production service whose tails — stall ratio, join
//! time, delivery latency — are shaped by what happens when the network and
//! backend *misbehave*. This module supplies that misbehaviour as data, not
//! chance: every fault is drawn from a self-contained [`FaultRng`] stream
//! keyed on `(fault seed, unit label)`, so a fault schedule is a pure
//! function of the lab seed, reproduces bit-for-bit, and is invariant under
//! `PSCP_THREADS` (no fault stream is ever shared between work items).
//!
//! Fault classes:
//!
//! * **packet loss** — a Gilbert–Elliott two-state chain per link
//!   ([`GilbertElliott`]), surfaced as retransmission delay;
//! * **latency spikes** — per-packet extra delay ([`SpikeConfig`]);
//! * **outage windows** — scheduled server/CDN-POP downtime computed as a
//!   pure function of `(seed, unit, minute slot)` ([`OutageConfig`]), so
//!   every session observing the same endpoint sees the same outage;
//! * **API errors** — probabilistic HTTP 429/5xx injection (rates live
//!   here; the draw happens in `PeriscopeService` and the client);
//! * **mid-stream RTMP disconnects** and **chat drops** — Bernoulli windows
//!   over the session timeline ([`drop_windows`]).
//!
//! [`FaultConfig::default`] is all-off and draws nothing: with the layer
//! disabled the simulation takes exactly the legacy control flow, so every
//! dataset, figure and trace byte matches a build without this module.

use crate::time::{SimDuration, SimTime};

/// Extra delivery delay charged per lost packet (an RTO-flavoured
/// retransmission penalty; losses surface as delay, not holes, because the
/// transport below the media is reliable).
pub const RETX_DELAY: SimDuration = SimDuration::from_millis(200);

/// Outage schedules are resolved on this time grid (one sim-minute) —
/// public so the alerting layer can align its ring windows with the fault
/// grid and the incident correlator can enumerate ground-truth slots.
pub const OUTAGE_SLOT_US: u64 = 60_000_000;
/// Upper bound on consecutive outage slots scanned by [`OutageConfig::outage_end`].
const OUTAGE_SCAN_SLOTS: u64 = 240;

/// SplitMix64 mixer (kept local to `fault.rs` even though `rng.rs` has the
/// same core, so fault schedules stay decoupled from media stream layout).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes a label into a stream seed (same chunking as `RngFactory`, with a
/// fault-layer-specific tweak so fault streams never alias media streams).
fn mix_label(seed: u64, label: &str) -> u64 {
    let mut state = seed ^ 0x1f83_d9ab_fb41_bd6b;
    for chunk in label.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        state = splitmix64(state ^ u64::from_le_bytes(word));
    }
    state
}

/// A tiny, dependency-free deterministic RNG (SplitMix64 sequence) for
/// fault draws. Separate from `RngFactory`'s `CounterRng` streams so the
/// fault layer adds no draws to — and can never perturb — the media
/// randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Creates a stream from a raw seed.
    pub fn new(seed: u64) -> Self {
        FaultRng { state: splitmix64(seed ^ 0x6a09_e667_f3bc_c908) }
    }

    /// Creates the stream for `label` under `seed` (pure: same inputs, same
    /// stream, on any thread).
    pub fn from_label(seed: u64, label: &str) -> Self {
        FaultRng::new(mix_label(seed, label))
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` (53-bit resolution).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw; always consumes exactly one variate, even at `p <= 0`,
    /// so adding or scaling a fault class never shifts later draws.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Gilbert–Elliott packet-loss parameters. All-zero means lossless.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LossConfig {
    /// Loss probability in the good state.
    pub p_loss_good: f64,
    /// Loss probability in the bad (bursty) state.
    pub p_loss_bad: f64,
    /// Good → bad transition probability per packet.
    pub p_good_to_bad: f64,
    /// Bad → good transition probability per packet.
    pub p_bad_to_good: f64,
}

impl LossConfig {
    /// Whether any packet can be lost.
    pub fn is_active(&self) -> bool {
        self.p_loss_good > 0.0 || self.p_loss_bad > 0.0
    }

    /// Scales the *loss* probabilities by `k` (clamped to 1), leaving the
    /// state-transition probabilities untouched. Because [`GilbertElliott`]
    /// draws a fixed two variates per packet, the same stream at a larger
    /// `k` loses a superset of packets — the monotonicity the chaos sweep
    /// relies on.
    pub fn scaled(&self, k: f64) -> LossConfig {
        LossConfig {
            p_loss_good: (self.p_loss_good * k).clamp(0.0, 1.0),
            p_loss_bad: (self.p_loss_bad * k).clamp(0.0, 1.0),
            ..*self
        }
    }
}

/// Per-packet latency-spike parameters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpikeConfig {
    /// Probability a packet is hit by a spike.
    pub p_spike: f64,
    /// Extra delay per spiked packet, milliseconds.
    pub spike_ms: u64,
}

/// Scheduled outage windows for a named unit (an ingest server or CDN POP).
///
/// The schedule is not drawn into state anywhere: membership of each
/// one-minute slot is a pure function of `(seed, unit, slot)`, so every
/// session — on any thread, in any order — agrees on when `vidman-eu-1` was
/// down.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OutageConfig {
    /// Probability that any given minute of a unit's timeline is inside an
    /// outage.
    pub p_minute: f64,
}

impl OutageConfig {
    /// Whether outages can occur at all.
    pub fn is_active(&self) -> bool {
        self.p_minute > 0.0
    }

    fn slot_down(&self, seed: u64, unit: &str, slot: u64) -> bool {
        if self.p_minute <= 0.0 {
            return false;
        }
        let mut rng =
            FaultRng::new(mix_label(seed, unit) ^ splitmix64(slot ^ 0xa54f_f53a_5f1d_36f1));
        rng.chance(self.p_minute)
    }

    /// Whether `unit` is down at `t`.
    pub fn in_outage(&self, seed: u64, unit: &str, t: SimTime) -> bool {
        self.slot_down(seed, unit, t.as_micros() / OUTAGE_SLOT_US)
    }

    /// End of the outage containing `t` (start of the next up slot). The
    /// scan is bounded; a pathological always-down schedule reports an end
    /// `OUTAGE_SCAN_SLOTS` minutes out.
    pub fn outage_end(&self, seed: u64, unit: &str, t: SimTime) -> SimTime {
        let mut slot = t.as_micros() / OUTAGE_SLOT_US;
        let limit = slot + OUTAGE_SCAN_SLOTS;
        while slot < limit && self.slot_down(seed, unit, slot) {
            slot += 1;
        }
        SimTime::from_micros(slot * OUTAGE_SLOT_US)
    }
}

/// A Gilbert–Elliott loss chain over one link.
///
/// Exactly two variates are consumed per packet (state transition, then
/// loss) regardless of state or rates, so two runs of the same stream with
/// differently *scaled* loss probabilities walk identical state sequences
/// and compare identical loss draws against different thresholds — loss
/// indicators are monotone in the scale.
#[derive(Debug, Clone)]
pub struct GilbertElliott {
    cfg: LossConfig,
    rng: FaultRng,
    bad: bool,
}

impl GilbertElliott {
    /// Creates a chain in the good state.
    pub fn new(cfg: LossConfig, rng: FaultRng) -> Self {
        GilbertElliott { cfg, rng, bad: false }
    }

    /// Advances one packet; returns whether it was lost.
    pub fn next_lost(&mut self) -> bool {
        let u_trans = self.rng.next_f64();
        let u_loss = self.rng.next_f64();
        if self.bad {
            if u_trans < self.cfg.p_bad_to_good {
                self.bad = false;
            }
        } else if u_trans < self.cfg.p_good_to_bad {
            self.bad = true;
        }
        let p = if self.bad { self.cfg.p_loss_bad } else { self.cfg.p_loss_good };
        u_loss < p
    }
}

/// Per-link packet fault state: loss chain + spike draws, with counters.
#[derive(Debug, Clone)]
pub struct LinkFaults {
    ge: GilbertElliott,
    spike: SpikeConfig,
    spike_rng: FaultRng,
    /// Packets lost so far.
    pub lost: u64,
    /// Packets hit by a latency spike so far.
    pub spiked: u64,
}

impl LinkFaults {
    /// Whether `cfg` injects any per-packet link fault.
    pub fn active(cfg: &FaultConfig) -> bool {
        cfg.loss.is_active() || cfg.spike.p_spike > 0.0
    }

    /// Creates the fault state for one link, keyed on the session's unit
    /// seed and a link label (`"rtmp/link"`, `"hls/link"`).
    pub fn new(cfg: &FaultConfig, unit_seed: u64, label: &str) -> Self {
        let base = cfg.seed ^ splitmix64(unit_seed);
        LinkFaults {
            ge: GilbertElliott::new(cfg.loss, FaultRng::from_label(base, &format!("{label}/ge"))),
            spike: cfg.spike,
            spike_rng: FaultRng::from_label(base, &format!("{label}/spike")),
            lost: 0,
            spiked: 0,
        }
    }

    /// Extra delivery delay for the next packet (zero when it sails
    /// through). Consumes a fixed three variates per packet.
    pub fn packet_extra(&mut self) -> SimDuration {
        let lost = self.ge.next_lost();
        let spiked = self.spike_rng.chance(self.spike.p_spike);
        let mut extra = SimDuration::ZERO;
        if lost {
            self.lost += 1;
            extra += RETX_DELAY;
        }
        if spiked {
            self.spiked += 1;
            extra += SimDuration::from_millis(self.spike.spike_ms);
        }
        extra
    }

    /// Fate of the next packet on an *unreliable* link: `(lost, extra)`.
    /// There is no transport below to retransmit, so a loss is a hole, not
    /// a delay; spikes still surface as delay. Consumes exactly the same
    /// three variates as [`LinkFaults::packet_extra`], so the two
    /// disciplines share loss schedules — the same chain at a scaled
    /// [`LossConfig`] loses a superset of packets either way.
    pub fn datagram_fate(&mut self) -> (bool, SimDuration) {
        let lost = self.ge.next_lost();
        let spiked = self.spike_rng.chance(self.spike.p_spike);
        if lost {
            self.lost += 1;
        }
        let mut extra = SimDuration::ZERO;
        if spiked {
            self.spiked += 1;
            extra += SimDuration::from_millis(self.spike.spike_ms);
        }
        (lost, extra)
    }
}

/// Deterministic drop windows over `[from, to)`: each minute-aligned slot
/// is independently hit with probability `per_min`, opening a window of
/// `dur` from the slot start. Used for mid-stream RTMP disconnects and
/// WebSocket chat drops.
pub fn drop_windows(
    seed: u64,
    unit: &str,
    from: SimTime,
    to: SimTime,
    per_min: f64,
    dur: SimDuration,
) -> Vec<(SimTime, SimTime)> {
    let mut out = Vec::new();
    if per_min <= 0.0 || to <= from {
        return out;
    }
    let first = from.as_micros() / OUTAGE_SLOT_US;
    let last = to.as_micros().div_ceil(OUTAGE_SLOT_US);
    for slot in first..last {
        let mut rng =
            FaultRng::new(mix_label(seed, unit) ^ splitmix64(slot ^ 0x510e_527f_ade6_82d1));
        if rng.chance(per_min.min(1.0)) {
            let start = SimTime::from_micros(slot * OUTAGE_SLOT_US).max(from);
            out.push((start, (start + dur).min(to)));
        }
    }
    out
}

/// Whether `t` falls inside any window.
pub fn in_windows(windows: &[(SimTime, SimTime)], t: SimTime) -> bool {
    windows.iter().any(|&(a, b)| t >= a && t < b)
}

/// The full fault-injection configuration. The default is all-off: no
/// stream is created, no variate is drawn, and the simulation is
/// byte-identical to a build without the fault layer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Seed for every fault stream. Deliberately separate from the lab
    /// seed: the same world can be replayed under different fault
    /// schedules, or the same schedule imposed on different worlds.
    pub seed: u64,
    /// Per-link Gilbert–Elliott packet loss.
    pub loss: LossConfig,
    /// Per-packet latency spikes.
    pub spike: SpikeConfig,
    /// RTMP ingest-server outage windows.
    pub ingest_outage: OutageConfig,
    /// CDN-POP outage windows (HLS).
    pub pop_outage: OutageConfig,
    /// Probability an API request is answered 429 (on top of the organic
    /// rate limiter).
    pub api_429_rate: f64,
    /// Probability an API request is answered 5xx.
    pub api_5xx_rate: f64,
    /// Expected mid-stream RTMP disconnects per minute of session.
    pub rtmp_disconnect_per_min: f64,
    /// Probability an HLS segment fetch errors and must be re-fetched.
    pub segment_error_rate: f64,
    /// Expected WebSocket chat drops per minute of session.
    pub chat_drop_per_min: f64,
}

impl FaultConfig {
    /// Whether any fault class can fire.
    pub fn is_active(&self) -> bool {
        self.loss.is_active()
            || self.spike.p_spike > 0.0
            || self.ingest_outage.is_active()
            || self.pop_outage.is_active()
            || self.api_429_rate > 0.0
            || self.api_5xx_rate > 0.0
            || self.rtmp_disconnect_per_min > 0.0
            || self.segment_error_rate > 0.0
            || self.chat_drop_per_min > 0.0
    }

    /// The chaos-sweep preset: every non-loss class at a fixed base rate,
    /// loss scaled by `loss_scale`. Holding the other classes (and the
    /// seed) constant across sweep points means the only thing that varies
    /// along the sweep is loss intensity — which, with the fixed-draw
    /// Gilbert–Elliott discipline, makes stall ratio monotone in
    /// `loss_scale` session by session.
    pub fn chaos(seed: u64, loss_scale: f64) -> FaultConfig {
        FaultConfig {
            seed,
            loss: LossConfig {
                p_loss_good: 0.01,
                p_loss_bad: 0.25,
                p_good_to_bad: 0.015,
                p_bad_to_good: 0.25,
            }
            .scaled(loss_scale),
            spike: SpikeConfig { p_spike: 0.002, spike_ms: 150 },
            ingest_outage: OutageConfig { p_minute: 0.01 },
            pop_outage: OutageConfig { p_minute: 0.01 },
            api_429_rate: 0.02,
            api_5xx_rate: 0.02,
            rtmp_disconnect_per_min: 0.04,
            segment_error_rate: 0.02,
            chat_drop_per_min: 0.05,
        }
    }
}

/// One ground-truth fault window: a maximal run of down minute-slots for
/// one unit, as exported by [`FaultConfig::ground_truth_log`]. Because
/// outage schedules are pure functions of `(seed, unit, slot)`, this is
/// the *labeled truth* the incident correlator scores detectors against —
/// re-derivable from the fault seed alone, no instrumentation involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundTruthWindow {
    /// Fault class: `"pop_outage"` or `"ingest_outage"`.
    pub class: &'static str,
    /// The affected unit (POP or ingest hostname).
    pub unit: String,
    /// Window start, sim-microseconds (slot-aligned).
    pub start_us: u64,
    /// Window end, sim-microseconds (exclusive, slot-aligned).
    pub end_us: u64,
}

impl FaultConfig {
    /// Exports every outage window scheduled over `[0, horizon)` for the
    /// given ingest and POP units, sorted by `(start, class, unit)`. A
    /// pure function of `(self.seed, units, horizon)` — the same config
    /// always exports the same log, which is what lets the incident layer
    /// compute exact recall/precision for its detectors.
    pub fn ground_truth_log(
        &self,
        ingest_units: &[&str],
        pop_units: &[&str],
        horizon: SimTime,
    ) -> Vec<GroundTruthWindow> {
        let mut out = Vec::new();
        let slots = horizon.as_micros().div_ceil(OUTAGE_SLOT_US);
        let mut scan = |cfg: &OutageConfig, class: &'static str, units: &[&str]| {
            if !cfg.is_active() {
                return;
            }
            for &unit in units {
                let mut open: Option<u64> = None;
                for slot in 0..=slots {
                    let down = slot < slots && cfg.slot_down(self.seed, unit, slot);
                    match (down, open) {
                        (true, None) => open = Some(slot),
                        (false, Some(start)) => {
                            out.push(GroundTruthWindow {
                                class,
                                unit: unit.to_string(),
                                start_us: start * OUTAGE_SLOT_US,
                                end_us: slot * OUTAGE_SLOT_US,
                            });
                            open = None;
                        }
                        _ => {}
                    }
                }
            }
        };
        scan(&self.ingest_outage, "ingest_outage", ingest_units);
        scan(&self.pop_outage, "pop_outage", pop_units);
        out.sort_by(|a, b| {
            a.start_us
                .cmp(&b.start_us)
                .then_with(|| a.class.cmp(b.class))
                .then_with(|| a.unit.cmp(&b.unit))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_off() {
        let cfg = FaultConfig::default();
        assert!(!cfg.is_active());
        assert!(!LinkFaults::active(&cfg));
        assert!(!cfg.ingest_outage.in_outage(7, "vidman-eu-1", SimTime::from_secs(999)));
        assert!(drop_windows(7, "chat", SimTime::ZERO, SimTime::from_secs(600), 0.0, RETX_DELAY)
            .is_empty());
    }

    #[test]
    fn fault_rng_is_deterministic_and_label_separated() {
        let mut a = FaultRng::from_label(5, "x");
        let mut b = FaultRng::from_label(5, "x");
        let mut c = FaultRng::from_label(5, "y");
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn fault_rng_roughly_uniform() {
        let mut rng = FaultRng::new(11);
        let mean: f64 = (0..10_000).map(|_| rng.next_f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn gilbert_elliott_loss_rate_tracks_config() {
        let cfg = LossConfig {
            p_loss_good: 0.01,
            p_loss_bad: 0.5,
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.2,
        };
        let mut ge = GilbertElliott::new(cfg, FaultRng::new(3));
        let n = 100_000;
        let lost = (0..n).filter(|_| ge.next_lost()).count();
        let rate = lost as f64 / n as f64;
        // Stationary bad-state share is 0.05/(0.05+0.2) = 0.2 →
        // E[loss] ≈ 0.8*0.01 + 0.2*0.5 = 0.108.
        assert!((0.08..0.14).contains(&rate), "rate={rate}");
    }

    #[test]
    fn scaled_loss_is_a_superset() {
        let base = LossConfig {
            p_loss_good: 0.02,
            p_loss_bad: 0.3,
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.25,
        };
        let mut lo = GilbertElliott::new(base, FaultRng::new(9));
        let mut hi = GilbertElliott::new(base.scaled(2.0), FaultRng::new(9));
        for i in 0..50_000 {
            let (l, h) = (lo.next_lost(), hi.next_lost());
            assert!(!l || h, "packet {i} lost at 1x but not 2x");
        }
    }

    #[test]
    fn outage_schedule_is_pure_and_unit_keyed() {
        let cfg = OutageConfig { p_minute: 0.3 };
        let t = SimTime::from_secs(1234);
        assert_eq!(cfg.in_outage(1, "pop-a", t), cfg.in_outage(1, "pop-a", t));
        // Different units disagree somewhere over a long horizon.
        let diverges = (0..500).any(|m| {
            let t = SimTime::from_secs(m * 60);
            cfg.in_outage(1, "pop-a", t) != cfg.in_outage(1, "pop-b", t)
        });
        assert!(diverges);
    }

    #[test]
    fn outage_end_is_after_and_clears_the_outage() {
        let cfg = OutageConfig { p_minute: 0.4 };
        for m in 0..200 {
            let t = SimTime::from_secs(m * 60 + 30);
            if cfg.in_outage(2, "vidman", t) {
                let end = cfg.outage_end(2, "vidman", t);
                assert!(end > t);
                assert!(!cfg.in_outage(2, "vidman", end), "still down at {end}");
                return;
            }
        }
        panic!("no outage found at p_minute=0.4 over 200 minutes");
    }

    #[test]
    fn drop_windows_land_inside_range() {
        let from = SimTime::from_secs(400);
        let to = SimTime::from_secs(460);
        let ws = drop_windows(3, "chat", from, to, 1.0, SimDuration::from_secs(5));
        assert!(!ws.is_empty());
        for &(a, b) in &ws {
            assert!(a >= from && b <= to && a < b, "window {a}..{b}");
        }
        assert!(in_windows(&ws, ws[0].0));
        assert!(!in_windows(&ws, to));
    }

    #[test]
    fn link_faults_charge_retx_delay() {
        let cfg = FaultConfig {
            loss: LossConfig { p_loss_good: 1.0, p_loss_bad: 1.0, ..Default::default() },
            ..Default::default()
        };
        let mut lf = LinkFaults::new(&cfg, 4, "rtmp/link");
        assert_eq!(lf.packet_extra(), RETX_DELAY);
        assert_eq!(lf.lost, 1);
    }

    #[test]
    fn ground_truth_log_matches_the_live_schedule() {
        let cfg = FaultConfig::chaos(2016, 2.0);
        let horizon = SimTime::from_secs(240 * 60);
        let log = cfg.ground_truth_log(&["vidman-eu-1"], &["pop-a", "pop-b"], horizon);
        assert_eq!(log, cfg.ground_truth_log(&["vidman-eu-1"], &["pop-a", "pop-b"], horizon));
        // Every exported window agrees minute-by-minute with in_outage,
        // and every down minute is covered by some window.
        for w in &log {
            let outage = if w.class == "pop_outage" { &cfg.pop_outage } else { &cfg.ingest_outage };
            assert!(w.start_us < w.end_us && w.end_us % OUTAGE_SLOT_US == 0);
            for slot in (w.start_us / OUTAGE_SLOT_US)..(w.end_us / OUTAGE_SLOT_US) {
                let t = SimTime::from_micros(slot * OUTAGE_SLOT_US);
                assert!(outage.in_outage(cfg.seed, &w.unit, t), "{w:?} up at {t}");
            }
        }
        for slot in 0..240u64 {
            let t = SimTime::from_micros(slot * OUTAGE_SLOT_US);
            for pop in ["pop-a", "pop-b"] {
                let down = cfg.pop_outage.in_outage(cfg.seed, pop, t);
                let covered = log.iter().any(|w| {
                    w.class == "pop_outage"
                        && w.unit == pop
                        && w.start_us <= t.as_micros()
                        && t.as_micros() < w.end_us
                });
                assert_eq!(down, covered, "slot {slot} {pop}");
            }
        }
        // All-off config exports nothing.
        assert!(FaultConfig::default().ground_truth_log(&["a"], &["b"], horizon).is_empty());
    }

    #[test]
    fn chaos_preset_scales_only_loss() {
        let a = FaultConfig::chaos(5, 1.0);
        let b = FaultConfig::chaos(5, 2.0);
        assert!(b.loss.p_loss_good > a.loss.p_loss_good);
        assert_eq!(a.loss.p_good_to_bad, b.loss.p_good_to_bad);
        assert_eq!(a.api_429_rate, b.api_429_rate);
        assert_eq!(a.pop_outage, b.pop_outage);
        let zero = FaultConfig::chaos(5, 0.0);
        assert!(!zero.loss.is_active());
        assert!(zero.is_active(), "base classes stay on at scale 0");
    }
}
