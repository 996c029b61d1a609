//! Population generation: who broadcasts, where, when, for how long, and
//! for how many viewers.

use crate::broadcast::{Broadcast, BroadcastId, DeviceProfile};
use crate::cities::{City, CITIES};
use crate::diurnal;
use pscp_media::audio::AudioBitrate;
use pscp_media::content::ContentClass;
use pscp_simnet::dist;
use pscp_simnet::rng::Rng;
use pscp_simnet::{GeoPoint, RngFactory, SimDuration, SimTime};

/// Configuration of the synthetic population.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Simulated wall span. Crawls and sessions happen inside this window.
    pub window: SimDuration,
    /// Mean *discoverable* broadcast arrivals per second at unit diurnal
    /// activity, worldwide. The paper's deep crawls find 1K–4K live
    /// broadcasts; with ~6.5-minute mean durations, 5–10 arrivals/s lands
    /// in that range.
    pub arrivals_per_sec: f64,
    /// UTC hour of day at simulation t = 0.
    pub utc_start_hour: f64,
    /// Probability a broadcast has no viewers at all (paper: >10%).
    pub zero_viewer_prob: f64,
    /// Probability a broadcast is private (invisible to crawls).
    pub private_prob: f64,
    /// Probability a public broadcast hides its location.
    pub location_hidden_prob: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            window: SimDuration::from_secs(4 * 3600),
            arrivals_per_sec: 7.0,
            utc_start_hour: 12.0,
            zero_viewer_prob: 0.16,
            private_prob: 0.08,
            location_hidden_prob: 0.10,
        }
    }
}

impl PopulationConfig {
    /// A small population for tests and examples (minutes, not hours).
    pub fn small() -> Self {
        PopulationConfig {
            window: SimDuration::from_secs(1200),
            arrivals_per_sec: 1.5,
            ..Default::default()
        }
    }

    /// A medium population: enough statistical mass for distribution tests
    /// at a fraction of the default's generation cost.
    pub fn medium() -> Self {
        PopulationConfig {
            window: SimDuration::from_secs(2 * 3600),
            arrivals_per_sec: 4.0,
            ..Default::default()
        }
    }
}

/// The generated population with a time index for live queries.
#[derive(Debug)]
pub struct Population {
    /// All broadcasts, sorted by start time.
    pub broadcasts: Vec<Broadcast>,
    /// Configuration used to generate it.
    pub config: PopulationConfig,
    /// Minute-bucket index: bucket `i` lists indices of broadcasts live at
    /// any point within minute `i`.
    buckets: Vec<Vec<u32>>,
    /// Same index restricted to non-private broadcasts — the candidate set
    /// of every Teleport pick and directory query, precomputed so the hot
    /// sampling path never re-filters the full bucket per session.
    public_buckets: Vec<Vec<u32>>,
    /// Id → index lookup (the directory answers getBroadcasts by id).
    by_id: std::collections::HashMap<BroadcastId, u32>,
}

impl Population {
    /// Generates a population from a seed factory.
    pub fn generate(config: PopulationConfig, rngs: &RngFactory) -> Population {
        Self::generate_filtered(config, rngs, |_| true)
    }

    /// [`Population::generate`] retaining only broadcasts `keep` accepts.
    ///
    /// The filter is applied *after* each broadcast's draws, and the id
    /// counter advances for rejected broadcasts too, so the retained
    /// broadcasts are field-for-field identical to the corresponding
    /// subset of the unfiltered world — the full world is simply never
    /// materialized. Relative broadcast order (and therefore every index
    /// walk over the minute buckets) is preserved. This is what lets a
    /// crawler borrow a shard-local view of the world: a service built
    /// over the crawler-visible subset answers every crawl request with
    /// the same bytes at a fraction of the resident set (DESIGN.md §13).
    pub fn generate_filtered(
        config: PopulationConfig,
        rngs: &RngFactory,
        keep: impl Fn(&Broadcast) -> bool,
    ) -> Population {
        let mut rng = rngs.stream("workload/population");
        let window_s = config.window.as_secs_f64();
        let total_weight: f64 = CITIES.iter().map(|c| c.weight).sum();
        let mut broadcasts = Vec::new();
        let mut next_id: u64 = 1;
        for city in CITIES {
            let city_rate = config.arrivals_per_sec * city.weight / total_weight;
            // Thinned Poisson process: candidates at peak rate, accepted by
            // the local diurnal activity at the candidate instant.
            let peak = diurnal::peak_activity();
            let mut t = 0.0;
            loop {
                t += dist::exponential(&mut rng, city_rate * peak);
                if t >= window_s {
                    break;
                }
                let utc_hour = (config.utc_start_hour + t / 3600.0).rem_euclid(24.0);
                let local = (utc_hour + city.point().utc_offset_hours() as f64).rem_euclid(24.0);
                if !dist::coin(&mut rng, diurnal::activity(local) / peak) {
                    continue;
                }
                let b = Self::make_broadcast(
                    &config,
                    city,
                    local,
                    SimTime::from_micros((t * 1e6) as u64),
                    next_id,
                    &mut rng,
                );
                next_id += 1;
                if keep(&b) {
                    broadcasts.push(b);
                }
            }
        }
        broadcasts.sort_by_key(|b| b.start);
        let buckets = Self::build_index(&broadcasts, config.window);
        let public_buckets = buckets
            .iter()
            .map(|bucket| {
                bucket.iter().copied().filter(|&i| !broadcasts[i as usize].private).collect()
            })
            .collect();
        let by_id = broadcasts.iter().enumerate().map(|(i, b)| (b.id, i as u32)).collect();
        Population { broadcasts, config, buckets, public_buckets, by_id }
    }

    fn make_broadcast<R: Rng + ?Sized>(
        config: &PopulationConfig,
        city: &'static City,
        local_hour: f64,
        start: SimTime,
        id: u64,
        rng: &mut R,
    ) -> Broadcast {
        // Location: city center + a few tens of km of jitter (roughly 0.3°).
        let location = GeoPoint::new(
            city.lat + dist::normal(rng, 0.0, 0.25),
            city.lon + dist::normal(rng, 0.0, 0.25),
        );
        let zero_viewers = dist::coin(rng, config.zero_viewer_prob);
        // §4: zero-viewer broadcasts average ~2 min; the rest ~13 min with a
        // heavy tail ("some broadcasts lasting for over a day").
        let duration_s = if zero_viewers {
            dist::lognormal(rng, 95f64.ln(), 0.9).clamp(10.0, 4.0 * 3600.0)
        } else {
            // Median ~4 min, heavy tail to a day-plus: the paper's crawls
            // measured 13 min *average* for viewed broadcasts even with
            // crawl-window truncation, which needs a long tail.
            dist::lognormal(rng, 240f64.ln(), 1.5).clamp(20.0, 30.0 * 3600.0)
        };
        // Popularity: lognormal body + rare Pareto tail ("some attract
        // thousands of viewers"), modulated by local-time activity — viewers
        // are local people who are awake (Fig 2b).
        let avg_viewers = if zero_viewers {
            0.0
        } else {
            let body = dist::lognormal(rng, 3.5f64.ln(), 1.3);
            let v = if dist::coin(rng, 0.008) {
                dist::pareto(rng, 150.0, 1.1).min(25_000.0)
            } else {
                body
            };
            (v * diurnal::activity(local_hour)).max(0.05)
        };
        // Replay availability: most zero-viewer broadcasts are not kept
        // (>80% per §4); broadcasters with an audience keep replays more.
        let replay_available =
            if zero_viewers { dist::coin(rng, 0.18) } else { dist::coin(rng, 0.62) };
        let device = match dist::categorical(rng, &[0.795, 0.20, 0.005]) {
            0 => DeviceProfile::Modern,
            1 => DeviceProfile::NoBFrames,
            _ => DeviceProfile::IntraOnly,
        };
        let content = ContentClass::ALL[dist::categorical(
            rng,
            // Talking heads dominate; TV/sports rebroadcasts are common too.
            &[0.35, 0.25, 0.18, 0.12, 0.10],
        )];
        let audio = if dist::coin(rng, 0.6) { AudioBitrate::Kbps32 } else { AudioBitrate::Kbps64 };
        // Rate-control targets vary by broadcaster app version / settings;
        // intra-only encoders need far more bits for the same quality
        // ("poor efficiency coding schemes", §5.2).
        let efficiency = if device == DeviceProfile::IntraOnly { 1.7 } else { 1.0 };
        let target_bitrate_bps = (dist::lognormal(rng, (280_000f64).ln(), 0.45) * efficiency)
            .clamp(80_000.0, 1_300_000.0);
        Broadcast {
            id: BroadcastId(id.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1),
            location,
            city: city.name,
            start,
            duration: SimDuration::from_secs_f64(duration_s),
            content,
            device,
            audio,
            avg_viewers,
            replay_available,
            private: dist::coin(rng, config.private_prob),
            location_public: !dist::coin(rng, config.location_hidden_prob),
            viewer_seed: rng.gen(),
            target_bitrate_bps,
        }
    }

    fn build_index(broadcasts: &[Broadcast], window: SimDuration) -> Vec<Vec<u32>> {
        let minutes = (window.as_secs_f64() / 60.0).ceil() as usize + 1;
        let mut buckets = vec![Vec::new(); minutes];
        for (i, b) in broadcasts.iter().enumerate() {
            let first = (b.start.as_micros() / 60_000_000) as usize;
            let last = (b.end().as_micros() / 60_000_000) as usize;
            for bucket in buckets.iter_mut().take(last.min(minutes - 1) + 1).skip(first) {
                bucket.push(i as u32);
            }
        }
        buckets
    }

    /// All broadcasts live at `t`.
    pub fn live_at(&self, t: SimTime) -> Vec<&Broadcast> {
        let minute = (t.as_micros() / 60_000_000) as usize;
        match self.buckets.get(minute) {
            Some(bucket) => bucket
                .iter()
                .map(|&i| &self.broadcasts[i as usize])
                .filter(|b| b.is_live_at(t))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Broadcasts live and map-discoverable at `t` inside `rect`.
    ///
    /// Walks the precomputed public bucket (private broadcasts are never
    /// discoverable), preserving broadcast index order so directory results
    /// are identical to a scan of the full bucket.
    pub fn discoverable_in(&self, rect: &pscp_simnet::GeoRect, t: SimTime) -> Vec<&Broadcast> {
        let minute = (t.as_micros() / 60_000_000) as usize;
        match self.public_buckets.get(minute) {
            Some(bucket) => bucket
                .iter()
                .map(|&i| &self.broadcasts[i as usize])
                .filter(|b| b.discoverable_at(t) && rect.contains(&b.location))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Samples a live, non-private broadcast at `now`, weighted by its
    /// current viewer count plus one (so zero-viewer broadcasts remain
    /// reachable) — the Teleport button's selection model.
    ///
    /// One pass over the minute's public bucket accumulates a cumulative
    /// weight table; a single uniform draw then binary-searches it. That is
    /// draw-for-draw compatible with `dist::categorical` over the same
    /// candidate order (one `f64` per call), but replaces the per-call
    /// `Vec<&Broadcast>` rebuild + O(n) scan of the old Teleport pick with
    /// an O(log n) search over one compact table. Returns `None` (without
    /// consuming randomness) when nothing public is live.
    pub fn sample_live_weighted<R: Rng + ?Sized>(
        &self,
        now: SimTime,
        rng: &mut R,
    ) -> Option<&Broadcast> {
        let minute = (now.as_micros() / 60_000_000) as usize;
        let bucket = self.public_buckets.get(minute)?;
        let mut cum: Vec<(u32, f64)> = Vec::with_capacity(bucket.len());
        let mut total = 0.0f64;
        for &i in bucket {
            let b = &self.broadcasts[i as usize];
            if !b.is_live_at(now) {
                continue;
            }
            total += b.viewers_at(now) as f64 + 1.0;
            cum.push((i, total));
        }
        if cum.is_empty() {
            return None;
        }
        let u = rng.gen::<f64>() * total;
        let pos = cum.partition_point(|&(_, c)| c <= u).min(cum.len() - 1);
        Some(&self.broadcasts[cum[pos].0 as usize])
    }

    /// Look up a broadcast by id (O(1)).
    pub fn by_id(&self, id: BroadcastId) -> Option<&Broadcast> {
        self.by_id.get(&id).map(|&i| &self.broadcasts[i as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_simnet::GeoRect;

    /// Distribution tests are read-only; share one generated population
    /// instead of regenerating ~100K broadcasts per test.
    fn shared() -> &'static Population {
        static POP: std::sync::OnceLock<Population> = std::sync::OnceLock::new();
        POP.get_or_init(|| Population::generate(PopulationConfig::default(), &RngFactory::new(1)))
    }

    #[test]
    fn generates_plausible_count() {
        let p = shared();
        // 4h at ~7/s mean (diurnal-modulated): on the order of 100K.
        assert!(p.broadcasts.len() > 40_000, "n={}", p.broadcasts.len());
        assert!(p.broadcasts.len() < 200_000, "n={}", p.broadcasts.len());
    }

    #[test]
    fn filtered_generation_is_the_exact_subset() {
        let cfg = PopulationConfig::small();
        let rngs = RngFactory::new(9);
        let full = Population::generate(cfg.clone(), &rngs);
        let vis = Population::generate_filtered(cfg, &rngs, |b| !b.private && b.location_public);
        let expect: Vec<&Broadcast> =
            full.broadcasts.iter().filter(|b| !b.private && b.location_public).collect();
        assert!(vis.broadcasts.len() < full.broadcasts.len());
        assert_eq!(vis.broadcasts.len(), expect.len());
        for (got, want) in vis.broadcasts.iter().zip(expect) {
            assert_eq!(got.id, want.id);
            assert_eq!(got.start, want.start);
            assert_eq!(got.duration, want.duration);
            assert_eq!(got.viewer_seed, want.viewer_seed);
        }
    }

    #[test]
    fn sorted_by_start() {
        let p = shared();
        for w in p.broadcasts.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
    }

    #[test]
    fn ids_unique() {
        let p = shared();
        let mut ids: Vec<u64> = p.broadcasts.iter().map(|b| b.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), p.broadcasts.len());
    }

    #[test]
    fn duration_distribution_matches_paper() {
        let p = shared();
        let mut durations: Vec<f64> =
            p.broadcasts.iter().map(|b| b.duration.as_secs_f64() / 60.0).collect();
        durations.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = durations[durations.len() / 2];
        // "roughly half are shorter than 4 minutes"
        assert!((2.5..6.0).contains(&median), "median={median}min");
        // "Most of the broadcasts last between 1 and 10 minutes"
        let between = durations.iter().filter(|&&d| (1.0..10.0).contains(&d)).count() as f64
            / durations.len() as f64;
        assert!(between > 0.5, "between={between}");
        // Long tail exists.
        assert!(*durations.last().unwrap() > 600.0, "max={}", durations.last().unwrap());
    }

    #[test]
    fn viewer_distribution_matches_paper() {
        let p = shared();
        let n = p.broadcasts.len() as f64;
        let zero = p.broadcasts.iter().filter(|b| b.avg_viewers == 0.0).count() as f64 / n;
        // ">10% of broadcasts have no viewers at all" — generated above the
        // paper's observed floor because ranking bias hides some from the
        // crawler.
        assert!((0.13..0.19).contains(&zero), "zero={zero}");
        let under20 = p.broadcasts.iter().filter(|b| b.avg_viewers < 20.0).count() as f64 / n;
        // "Over 90% of broadcasts have less than 20 viewers on average"
        assert!(under20 > 0.87, "under20={under20}");
        // "some attract thousands of viewers"
        assert!(p.broadcasts.iter().any(|b| b.avg_viewers > 1000.0));
    }

    #[test]
    fn zero_viewer_broadcasts_shorter() {
        let p = shared();
        let avg = |pred: &dyn Fn(&Broadcast) -> bool| {
            let xs: Vec<f64> =
                p.broadcasts.iter().filter(|b| pred(b)).map(|b| b.duration.as_secs_f64()).collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let zero = avg(&|b| b.avg_viewers == 0.0);
        let nonzero = avg(&|b| b.avg_viewers > 0.0);
        // §4: "avg durations 2min vs 13 min"
        assert!(zero < 250.0, "zero avg {zero}s");
        assert!(nonzero > 450.0, "nonzero avg {nonzero}s");
        assert!(nonzero / zero > 2.5);
    }

    #[test]
    fn zero_viewer_replay_mostly_unavailable() {
        let p = shared();
        let zs: Vec<&Broadcast> = p.broadcasts.iter().filter(|b| b.avg_viewers == 0.0).collect();
        let unavailable =
            zs.iter().filter(|b| !b.replay_available).count() as f64 / zs.len() as f64;
        assert!(unavailable > 0.8, "unavailable={unavailable}");
    }

    #[test]
    fn device_mix_near_published_fractions() {
        let p = shared();
        let n = p.broadcasts.len() as f64;
        let no_b =
            p.broadcasts.iter().filter(|b| b.device == DeviceProfile::NoBFrames).count() as f64 / n;
        assert!((no_b - 0.20).abs() < 0.02, "no_b={no_b}");
        let intra = p.broadcasts.iter().filter(|b| b.device == DeviceProfile::IntraOnly).count();
        assert!(intra > 0);
    }

    #[test]
    fn live_at_index_consistent() {
        let p = Population::generate(PopulationConfig::small(), &RngFactory::new(9));
        for s in [0u64, 300, 600, 900] {
            let t = SimTime::from_secs(s);
            let live = p.live_at(t);
            let brute: Vec<&Broadcast> = p.broadcasts.iter().filter(|b| b.is_live_at(t)).collect();
            assert_eq!(live.len(), brute.len(), "t={s}");
        }
    }

    #[test]
    fn weighted_sampler_matches_bruteforce_categorical() {
        // The sampler must be draw-for-draw compatible with filtering the
        // live bucket and calling dist::categorical on the weights — the
        // Teleport pick it replaced.
        let p = Population::generate(PopulationConfig::small(), &RngFactory::new(17));
        let f = RngFactory::new(17);
        let mut fast = f.stream("sampler-a");
        let mut brute = f.stream("sampler-a");
        for s in [60u64, 300, 600, 900, 1100] {
            let t = SimTime::from_secs(s);
            let picked = p.sample_live_weighted(t, &mut fast);
            let live: Vec<&Broadcast> = p.live_at(t).into_iter().filter(|b| !b.private).collect();
            let expected = if live.is_empty() {
                None
            } else {
                let weights: Vec<f64> = live.iter().map(|b| b.viewers_at(t) as f64 + 1.0).collect();
                Some(live[dist::categorical(&mut brute, &weights)])
            };
            assert_eq!(picked.map(|b| b.id), expected.map(|b| b.id), "t={s}s");
        }
    }

    #[test]
    fn weighted_sampler_never_returns_private_or_dead() {
        let p = Population::generate(PopulationConfig::small(), &RngFactory::new(18));
        let mut rng = RngFactory::new(18).stream("sampler-b");
        let t = SimTime::from_secs(600);
        for _ in 0..200 {
            let b = p.sample_live_weighted(t, &mut rng).expect("mid-window has live casts");
            assert!(b.is_live_at(t) && !b.private);
        }
    }

    #[test]
    fn discoverable_filters_privacy_and_rect() {
        let p = shared();
        let t = SimTime::from_secs(3600);
        let world = p.discoverable_in(&GeoRect::WORLD, t);
        assert!(!world.is_empty());
        assert!(world.iter().all(|b| !b.private && b.location_public));
        // A rect over the Pacific has almost nothing.
        let pacific = GeoRect::new(-10.0, -160.0, 10.0, -140.0);
        assert!(p.discoverable_in(&pacific, t).len() < world.len() / 20);
    }

    #[test]
    fn concurrency_in_deep_crawl_range() {
        let p = shared();
        // Mid-window live count should be in the paper's observed 1K-4K
        // discoverable range (give or take calibration).
        let t = SimTime::from_secs(2 * 3600);
        let live = p.live_at(t).iter().filter(|b| b.discoverable_at(t)).count();
        assert!((800..6000).contains(&live), "live={live}");
    }

    #[test]
    fn geography_is_clumpy() {
        // Fig 1b's premise: activity concentrates in a minority of areas.
        let p = shared();
        let t = SimTime::from_secs(3600);
        let live = p.discoverable_in(&GeoRect::WORLD, t);
        // Split the world into an 8x8 grid; the top half of cells should
        // hold at least 80% of broadcasts.
        let mut counts = vec![0usize; 64];
        for b in &live {
            let col = (((b.location.lon + 180.0) / 45.0) as usize).min(7);
            let row = (((b.location.lat + 90.0) / 22.5) as usize).min(7);
            counts[row * 8 + col] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_half: usize = counts[..32].iter().sum();
        let total: usize = counts.iter().sum();
        assert!(top_half as f64 / total as f64 > 0.8);
    }

    #[test]
    fn determinism_same_seed() {
        let a = Population::generate(PopulationConfig::small(), &RngFactory::new(42));
        let b = Population::generate(PopulationConfig::small(), &RngFactory::new(42));
        assert_eq!(a.broadcasts.len(), b.broadcasts.len());
        for (x, y) in a.broadcasts.iter().zip(&b.broadcasts) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.start, y.start);
            assert_eq!(x.avg_viewers, y.avg_viewers);
        }
    }
}
