//! The broadcaster's mobile uplink.
//!
//! Why do viewers on a >100 Mbps link still stall (Fig 3a)? Because the
//! *broadcaster* is a phone on a mobile network: its uplink throughput
//! fluctuates and occasionally collapses for seconds (handover, fading,
//! cross-traffic). §5.2 hints at the same thing from the video side:
//! "Occasionally, some frames are missing ... probably due to the fact that
//! the uploading device had some issues, e.g., glitches in the real-time
//! encoding or during upload." The model: a base rate drawn per broadcast
//! plus Poisson outage windows during which the uplink is nearly dead; a
//! queue drains the backlog after each outage.

use pscp_simnet::dist;
use pscp_simnet::rng::Rng;
use pscp_simnet::{SimDuration, SimTime};

/// Uplink model parameters.
#[derive(Debug, Clone)]
pub struct UplinkConfig {
    /// Log-mean of the base uplink rate (bits/second).
    pub base_rate_mu: f64,
    /// Log-sd of the base uplink rate.
    pub base_rate_sigma: f64,
    /// Outage windows per second (Poisson rate).
    pub outage_rate: f64,
    /// Mean outage duration, seconds.
    pub outage_mean_s: f64,
}

/// Throughput multiplier during an outage.
const OUTAGE_RATE_FACTOR: f64 = 0.02;

impl Default for UplinkConfig {
    fn default() -> Self {
        UplinkConfig {
            // Median ~3 Mbps: plenty for a 300 kbps stream — until an
            // outage hits.
            base_rate_mu: (3.0e6f64).ln(),
            base_rate_sigma: 0.6,
            // ~1 outage per 4 minutes of watching.
            outage_rate: 1.0 / 240.0,
            outage_mean_s: 3.5,
        }
    }
}

/// A broadcaster uplink over one session window.
#[derive(Debug, Clone)]
pub struct Uplink {
    /// Base rate for this broadcast, bits/second.
    pub base_rate_bps: f64,
    /// Outage windows (start, end) within the session, sim time.
    pub outages: Vec<(SimTime, SimTime)>,
    /// Virtual queue: when the next byte can start uploading.
    free_at: SimTime,
}

impl Uplink {
    /// Draws an uplink for a session spanning `[start, end)`.
    pub fn draw<R: Rng + ?Sized>(
        config: &UplinkConfig,
        start: SimTime,
        end: SimTime,
        rng: &mut R,
    ) -> Uplink {
        let base_rate_bps =
            dist::lognormal(rng, config.base_rate_mu, config.base_rate_sigma).max(350_000.0);
        let mut outages = Vec::new();
        let mut t = start.as_secs_f64();
        let horizon = end.as_secs_f64();
        loop {
            t += dist::exponential(rng, config.outage_rate);
            if t >= horizon {
                break;
            }
            let dur = dist::exponential(rng, 1.0 / config.outage_mean_s).clamp(0.8, 12.0);
            let o_start = SimTime::from_micros((t * 1e6) as u64);
            let o_end = o_start + SimDuration::from_secs_f64(dur);
            outages.push((o_start, o_end));
            t += dur;
        }
        Uplink { base_rate_bps, outages, free_at: start }
    }

    /// An ideal uplink (tests, ablations).
    pub fn perfect(rate_bps: f64) -> Uplink {
        Uplink { base_rate_bps: rate_bps, outages: Vec::new(), free_at: SimTime::ZERO }
    }

    /// Instantaneous rate at `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        for &(s, e) in &self.outages {
            if t >= s && t < e {
                return self.base_rate_bps * OUTAGE_RATE_FACTOR;
            }
        }
        self.base_rate_bps
    }

    /// Uploads `bytes` captured at `t`; returns when the last byte reaches
    /// the network side of the uplink. Sequential (FIFO) like a real radio
    /// bearer: backlog from an outage delays everything behind it.
    pub fn upload(&mut self, t: SimTime, bytes: usize) -> SimTime {
        let mut now = self.free_at.max(t);
        let mut remaining = bytes as f64 * 8.0; // bits
        loop {
            let rate = self.rate_at(now).max(1_000.0);
            // Time until the current rate regime ends.
            let regime_end = self
                .outages
                .iter()
                .flat_map(|&(s, e)| [s, e])
                .filter(|&edge| edge > now)
                .min()
                .unwrap_or(SimTime::MAX);
            let window_s = regime_end.saturating_since(now).as_secs_f64();
            let can_send = rate * window_s;
            if can_send >= remaining || regime_end == SimTime::MAX {
                now += SimDuration::from_secs_f64(remaining / rate);
                break;
            }
            remaining -= can_send;
            now = regime_end;
        }
        self.free_at = now;
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_simnet::RngFactory;

    #[test]
    fn perfect_uplink_is_rate_limited_only() {
        let mut u = Uplink::perfect(8e6); // 1 MB/s
        let done = u.upload(SimTime::ZERO, 1_000_000);
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fifo_backlog() {
        let mut u = Uplink::perfect(8e6);
        let first = u.upload(SimTime::ZERO, 500_000);
        let second = u.upload(SimTime::ZERO, 500_000);
        assert!(second > first);
        assert!((second.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn outage_delays_upload() {
        let mut u = Uplink::perfect(8e6);
        u.outages.push((SimTime::from_secs(1), SimTime::from_secs(4)));
        // 1 MB starting at t=0.5: half uploads before the outage, the rest
        // waits ~3 s (outage rate is ~nil).
        let done = u.upload(SimTime::from_micros(500_000), 1_000_000);
        let t = done.as_secs_f64();
        assert!(t > 3.9, "t={t}");
    }

    #[test]
    fn upload_spanning_an_outage_finishes_when_the_outage_rate_says() {
        let mut u = Uplink::perfect(8e6);
        u.outages.push((SimTime::from_secs(1), SimTime::from_secs(4)));
        // 8 Mbit from t=0.5: 4 Mbit before the outage, 3 s × 8 Mbps × 0.02 =
        // 0.48 Mbit inside it, the last 3.52 Mbit in 0.44 s after it.
        let done = u.upload(SimTime::from_micros(500_000), 1_000_000);
        assert!((done.as_secs_f64() - 4.44).abs() < 1e-5, "done={done}");
    }

    #[test]
    fn small_upload_during_outage_trickles() {
        let mut u = Uplink::perfect(8e6);
        u.outages.push((SimTime::ZERO, SimTime::from_secs(10)));
        // During the outage the rate is base*0.02 = 160 kbps; 4 kB takes
        // 0.2 s — it trickles through rather than waiting for the end.
        let done = u.upload(SimTime::ZERO, 4_000);
        let t = done.as_secs_f64();
        assert!((0.15..0.5).contains(&t), "t={t}");
    }

    #[test]
    fn drawn_uplinks_vary_but_bounded() {
        let mut rng = RngFactory::new(4).stream("uplink");
        let cfg = UplinkConfig::default();
        let mut rates = Vec::new();
        for _ in 0..200 {
            let u = Uplink::draw(&cfg, SimTime::ZERO, SimTime::from_secs(300), &mut rng);
            assert!(u.base_rate_bps >= 350_000.0);
            rates.push(u.base_rate_bps);
        }
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        let max = rates.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max / min > 2.0, "uplinks should vary: min={min} max={max}");
    }

    #[test]
    fn outage_frequency_roughly_configured() {
        let mut rng = RngFactory::new(5).stream("uplink-outage");
        let cfg = UplinkConfig::default();
        let total: usize = (0..300)
            .map(|_| {
                Uplink::draw(&cfg, SimTime::ZERO, SimTime::from_secs(240), &mut rng).outages.len()
            })
            .sum();
        // 240 s at 1/240 per s ≈ 1 per draw ± noise.
        let mean = total as f64 / 300.0;
        assert!((0.6..1.4).contains(&mean), "mean={mean}");
    }
}
