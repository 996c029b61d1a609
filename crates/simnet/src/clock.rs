//! Host wall clocks with imperfect NTP synchronisation.
//!
//! The paper measures delivery latency by subtracting an NTP timestamp
//! embedded by the broadcasting device from the capture time at the viewer
//! (§5.1), and notes: "Even if our packet capturing machine was NTP
//! synchronized, we sometimes observed small negative time differences
//! indicating that the synchronization was imperfect." [`WallClock`] models
//! exactly that: each host's wall time is simulation time plus a fixed
//! offset, a slow drift, and per-reading jitter.
//!
//! A reading is a pure function of (clock, instant, stream position): the
//! jitter streams are [`CounterRng`]s, whose state is a counter, so a host
//! that stamps far more events than anyone reads can take a reading's place
//! in the stream now ([`WallClock::defer`]) and compute it — or not — later.

use crate::rng::{CounterRng, Rng};
use crate::time::SimTime;

/// A host's wall clock.
#[derive(Debug, Clone)]
pub struct WallClock {
    /// Constant offset from true (simulation) time, seconds. Positive means
    /// the host clock runs ahead.
    pub offset_s: f64,
    /// Frequency error in parts per million.
    pub drift_ppm: f64,
    /// Standard deviation of per-reading jitter, seconds (scheduling noise,
    /// timestamping granularity).
    pub jitter_s: f64,
}

impl WallClock {
    /// A perfect clock (the simulator's own reference).
    pub fn perfect() -> Self {
        WallClock { offset_s: 0.0, drift_ppm: 0.0, jitter_s: 0.0 }
    }

    /// A clock freshly disciplined by NTP against a nearby pool: offsets of
    /// a few milliseconds, drift under 50 ppm.
    pub fn ntp_synced<R: Rng + ?Sized>(rng: &mut R) -> Self {
        WallClock {
            offset_s: crate::dist::normal(rng, 0.0, 0.004),
            drift_ppm: crate::dist::normal(rng, 0.0, 15.0),
            jitter_s: 0.0005,
        }
    }

    /// Reads the wall clock at simulation instant `at`, in seconds since the
    /// simulation epoch as this host believes it.
    pub fn read<R: Rng + ?Sized>(&self, at: SimTime, rng: &mut R) -> f64 {
        let t = at.as_secs_f64();
        let jitter =
            if self.jitter_s > 0.0 { crate::dist::normal(rng, 0.0, self.jitter_s) } else { 0.0 };
        t + self.offset_s + t * self.drift_ppm * 1e-6 + jitter
    }

    /// Takes the next reading's place in `rng` without computing it: returns
    /// the stream position its jitter is drawn from and moves `rng` past it
    /// exactly as [`WallClock::read`] would. `self.read(at, &mut position)`
    /// later yields that reading bit for bit.
    pub fn defer(&self, rng: &mut CounterRng) -> CounterRng {
        let position = *rng;
        if self.jitter_s > 0.0 {
            rng.skip(crate::dist::NORMAL_UNIFORMS);
        }
        position
    }

    /// Noise-free read (for tests and for hosts treated as reference).
    pub fn read_exact(&self, at: SimTime) -> f64 {
        let t = at.as_secs_f64();
        t + self.offset_s + t * self.drift_ppm * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    #[test]
    fn perfect_clock_reads_sim_time() {
        let c = WallClock::perfect();
        assert_eq!(c.read_exact(SimTime::from_secs(100)), 100.0);
    }

    #[test]
    fn offset_shifts_reading() {
        let c = WallClock { offset_s: 0.5, drift_ppm: 0.0, jitter_s: 0.0 };
        assert_eq!(c.read_exact(SimTime::from_secs(10)), 10.5);
    }

    #[test]
    fn drift_accumulates() {
        let c = WallClock { offset_s: 0.0, drift_ppm: 100.0, jitter_s: 0.0 };
        // 100 ppm over 10_000 s = 1 s.
        assert!((c.read_exact(SimTime::from_secs(10_000)) - 10_001.0).abs() < 1e-9);
    }

    #[test]
    fn ntp_synced_is_close() {
        let f = RngFactory::new(5);
        let mut rng = f.stream("clock");
        for _ in 0..100 {
            let c = WallClock::ntp_synced(&mut rng);
            assert!(c.offset_s.abs() < 0.05, "offset={}", c.offset_s);
        }
    }

    #[test]
    fn imperfect_sync_can_go_negative() {
        // Two NTP-synced clocks: their relative offset occasionally makes a
        // later event appear earlier — the paper's "small negative time
        // differences".
        let f = RngFactory::new(17);
        let mut rng = f.stream("clock-pair");
        let mut negatives = 0;
        for _ in 0..200 {
            let sender = WallClock::ntp_synced(&mut rng);
            let receiver = WallClock::ntp_synced(&mut rng);
            let sent = sender.read_exact(SimTime::from_millis(1000));
            // Received 1 ms later in true time.
            let received = receiver.read_exact(SimTime::from_millis(1001));
            if received - sent < 0.0 {
                negatives += 1;
            }
        }
        assert!(negatives > 0, "expected some negative apparent latencies");
        assert!(negatives < 200, "not all should be negative");
    }

    #[test]
    fn a_deferred_reading_is_the_reading() {
        // Fails if `dist::normal` starts drawing another number of uniforms
        // than `defer` skips.
        pscp_check::check(
            "a_deferred_reading_is_the_reading",
            |g: &mut pscp_check::Gen| {
                let jitter_s = if g.bool() { g.f64(1e-6..0.1) } else { 0.0 };
                let clock = WallClock {
                    offset_s: g.f64(-2.0..2.0),
                    drift_ppm: g.f64(-50.0..50.0),
                    jitter_s,
                };
                (clock, g.u64(..), g.vec(1..20, |g| g.u64(0..4_000_000_000)))
            },
            |(clock, seed, instants)| {
                let (mut eager, mut deferred) = (CounterRng::new(*seed), CounterRng::new(*seed));
                for &us in instants {
                    let at = SimTime::from_micros(us);
                    let now = clock.read(at, &mut eager);
                    let mut position = clock.defer(&mut deferred);
                    pscp_check::ensure_eq!(deferred, eager);
                    pscp_check::ensure_eq!(clock.read(at, &mut position).to_bits(), now.to_bits());
                }
                Ok(())
            },
        );
    }

    #[test]
    fn jitter_varies_readings() {
        let f = RngFactory::new(23);
        let mut rng = f.stream("jitter");
        let c = WallClock { offset_s: 0.0, drift_ppm: 0.0, jitter_s: 0.01 };
        let a = c.read(SimTime::from_secs(1), &mut rng);
        let b = c.read(SimTime::from_secs(1), &mut rng);
        assert_ne!(a, b);
    }
}
