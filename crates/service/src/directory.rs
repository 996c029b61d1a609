//! Broadcast discovery: map visibility and rate limiting.
//!
//! Two engineering facts from §4 shaped the paper's crawler, and both live
//! here:
//!
//! 1. **Zoom-dependent visibility** — "when specifying a smaller area, i.e.
//!    when user zooms in the map, new broadcasts are discovered for the same
//!    area. Therefore, to find a large fraction of the broadcasts, the
//!    crawler must explore the world using small enough areas." The map
//!    feed returns a bounded, popularity-biased sample whose cap grows with
//!    zoom level.
//! 2. **Rate limiting** — "Periscope servers use rate limiting so that too
//!    frequent requests will be answered with HTTP 429", per account, which
//!    forces pacing and motivates the paper's four parallel crawler
//!    accounts.

use pscp_simnet::rng::splitmix64;
use pscp_simnet::{GeoRect, SimDuration, SimTime};
use pscp_workload::broadcast::Broadcast;
use pscp_workload::population::Population;
use std::collections::HashMap;

/// Visibility model parameters.
#[derive(Debug, Clone)]
pub struct VisibilityConfig {
    /// Results returned for a world-scale query.
    pub base_cap: usize,
    /// Additional results per quadtree zoom level (area quartering).
    pub cap_per_zoom: usize,
    /// Hard ceiling on results per query.
    pub max_cap: usize,
}

impl Default for VisibilityConfig {
    fn default() -> Self {
        VisibilityConfig { base_cap: 30, cap_per_zoom: 16, max_cap: 400 }
    }
}

impl VisibilityConfig {
    /// Result cap for a query over `rect`.
    pub fn cap_for(&self, rect: &GeoRect) -> usize {
        let world = GeoRect::WORLD.deg_area();
        let area = rect.deg_area().max(1e-6);
        // Zoom level: how many quarterings from world scale.
        let zoom = (world / area).log(4.0).max(0.0);
        (self.base_cap + (zoom * self.cap_per_zoom as f64) as usize).min(self.max_cap)
    }
}

/// Per-account API rate limiter (token bucket).
#[derive(Debug, Clone)]
pub struct RateLimiter {
    /// Maximum burst of requests.
    pub burst: u32,
    /// Minimum sustained interval between requests.
    pub interval: SimDuration,
    state: HashMap<String, (f64, SimTime)>,
}

impl RateLimiter {
    /// Creates a limiter allowing `burst` immediate requests and one per
    /// `interval` sustained.
    pub fn new(burst: u32, interval: SimDuration) -> Self {
        assert!(burst >= 1);
        RateLimiter { burst, interval, state: HashMap::new() }
    }

    /// Default limiter calibrated so a crawler pacing ~1 request/second
    /// passes while unpaced replay loops trip 429s.
    pub fn periscope_default() -> Self {
        RateLimiter::new(8, SimDuration::from_millis(700))
    }

    /// Accounts a request from `user` at `now`. Returns false if the
    /// request must be rejected with 429.
    pub fn allow(&mut self, user: &str, now: SimTime) -> bool {
        let burst = self.burst as f64;
        let rate = 1.0 / self.interval.as_secs_f64();
        let take = |(tokens, updated): &mut (f64, SimTime)| {
            let dt = now.saturating_since(*updated).as_secs_f64();
            *tokens = (*tokens + dt * rate).min(burst);
            *updated = now;
            let allowed = *tokens >= 1.0;
            if allowed {
                *tokens -= 1.0;
            }
            allowed
        };
        // `entry` needs an owned key; only an account's first request pays
        // for one.
        if let Some(state) = self.state.get_mut(user) {
            return take(state);
        }
        take(self.state.entry(user.to_string()).or_insert((burst, now)))
    }
}

/// The directory: wraps the population with the visibility model.
#[derive(Debug)]
pub struct Directory {
    visibility: VisibilityConfig,
}

impl Directory {
    /// Creates a directory with the given visibility model.
    pub fn new(visibility: VisibilityConfig) -> Self {
        Directory { visibility }
    }

    /// Executes a map query at `now`: live, discoverable broadcasts in
    /// `rect`, popularity-biased and capped by zoom level.
    ///
    /// The bias is deterministic: broadcasts are ranked by a stable score
    /// mixing viewer count with a per-(broadcast, minute) hash, so two
    /// queries in the same minute agree while the hidden tail rotates over
    /// time — the behaviour that makes repeated deep crawls keep finding a
    /// few new broadcasts.
    pub fn map_query<'a>(
        &self,
        population: &'a Population,
        rect: &GeoRect,
        now: SimTime,
    ) -> Vec<&'a Broadcast> {
        let mut candidates = population.discoverable_in(rect, now);
        let cap = self.visibility.cap_for(rect);
        if candidates.len() <= cap {
            return candidates;
        }
        let minute = now.as_micros() / 60_000_000;
        candidates.sort_by_cached_key(|b| {
            // Popularity dominates; hash perturbs the order below the fold.
            let viewers = b.viewers_at(now) as u64;
            let h = splitmix64(b.id.0 ^ minute.wrapping_mul(0x517c_c1b7_2722_0a95)) % 1000;
            std::cmp::Reverse(viewers * 1000 + h)
        });
        candidates.truncate(cap);
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_simnet::RngFactory;
    use pscp_workload::population::PopulationConfig;

    #[test]
    fn cap_grows_with_zoom() {
        let v = VisibilityConfig::default();
        let world = v.cap_for(&GeoRect::WORLD);
        let quad = v.cap_for(&GeoRect::new(0.0, 0.0, 90.0, 180.0));
        let city = v.cap_for(&GeoRect::new(41.0, 28.0, 41.5, 29.0));
        assert!(world < quad, "world={world} quad={quad}");
        assert!(quad < city, "quad={quad} city={city}");
        assert!(city <= v.max_cap);
    }

    #[test]
    fn rate_limiter_allows_burst_then_blocks() {
        let mut rl = RateLimiter::new(3, SimDuration::from_secs(1));
        let t = SimTime::from_secs(10);
        assert!(rl.allow("u", t));
        assert!(rl.allow("u", t));
        assert!(rl.allow("u", t));
        assert!(!rl.allow("u", t), "burst exhausted");
    }

    #[test]
    fn rate_limiter_refills_over_time() {
        let mut rl = RateLimiter::new(2, SimDuration::from_secs(1));
        let t = SimTime::from_secs(10);
        assert!(rl.allow("u", t));
        assert!(rl.allow("u", t));
        assert!(!rl.allow("u", t));
        assert!(rl.allow("u", t + SimDuration::from_millis(1100)));
    }

    #[test]
    fn rate_limiter_per_user() {
        let mut rl = RateLimiter::new(1, SimDuration::from_secs(10));
        let t = SimTime::from_secs(1);
        assert!(rl.allow("a", t));
        assert!(!rl.allow("a", t));
        assert!(rl.allow("b", t), "other account unaffected");
    }

    #[test]
    fn paced_crawler_never_blocked() {
        let mut rl = RateLimiter::periscope_default();
        let mut t = SimTime::from_secs(1);
        for _ in 0..100 {
            assert!(rl.allow("crawler", t));
            t += SimDuration::from_millis(1000);
        }
    }

    fn test_population() -> &'static Population {
        static POP: std::sync::OnceLock<Population> = std::sync::OnceLock::new();
        POP.get_or_init(|| Population::generate(PopulationConfig::medium(), &RngFactory::new(31)))
    }

    #[test]
    fn world_query_capped() {
        let p = test_population();
        let d = Directory::new(VisibilityConfig::default());
        let t = SimTime::from_secs(3600);
        let results = d.map_query(p, &GeoRect::WORLD, t);
        assert_eq!(results.len(), VisibilityConfig::default().cap_for(&GeoRect::WORLD));
        // All returned broadcasts are live and in the rect.
        assert!(results.iter().all(|b| b.is_live_at(t)));
    }

    #[test]
    fn zooming_reveals_more() {
        // The crawler's core observation: querying the four quadrants of an
        // area yields more distinct broadcasts than querying the area once.
        let p = test_population();
        let d = Directory::new(VisibilityConfig::default());
        let t = SimTime::from_secs(3600);
        let whole: std::collections::HashSet<u64> =
            d.map_query(p, &GeoRect::WORLD, t).iter().map(|b| b.id.0).collect();
        let mut split: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for q in GeoRect::WORLD.quadrants() {
            split.extend(d.map_query(p, &q, t).iter().map(|b| b.id.0));
        }
        assert!(split.len() > whole.len() * 2, "whole={} split={}", whole.len(), split.len());
    }

    #[test]
    fn queries_mostly_stable_within_minute() {
        // The tie-break hash is fixed per minute; viewer counts still creep
        // with broadcast progress, so demand high overlap rather than
        // identity.
        let p = test_population();
        let d = Directory::new(VisibilityConfig::default());
        let t = SimTime::from_secs(3600);
        let a: std::collections::HashSet<u64> =
            d.map_query(p, &GeoRect::WORLD, t).iter().map(|b| b.id.0).collect();
        let b: std::collections::HashSet<u64> = d
            .map_query(p, &GeoRect::WORLD, t + SimDuration::from_secs(5))
            .iter()
            .map(|b| b.id.0)
            .collect();
        let overlap = a.intersection(&b).count() as f64 / a.len() as f64;
        assert!(overlap > 0.8, "overlap={overlap}");
    }

    #[test]
    fn popular_broadcasts_always_visible() {
        let p = test_population();
        let d = Directory::new(VisibilityConfig::default());
        let t = SimTime::from_secs(3600);
        let results = d.map_query(p, &GeoRect::WORLD, t);
        let min_shown = results.iter().map(|b| b.viewers_at(t)).min().unwrap_or(0);
        // The world's most popular live broadcast must be in the top-30.
        let max_live = p
            .live_at(t)
            .iter()
            .filter(|b| b.discoverable_at(t))
            .map(|b| b.viewers_at(t))
            .max()
            .unwrap_or(0);
        assert!(results.iter().any(|b| b.viewers_at(t) == max_live));
        let _ = min_shown;
    }
}
