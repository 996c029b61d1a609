//! The deep (quadtree) crawl.
//!
//! §4: "In deep crawl, the crawler zooms into each area by dividing it into
//! four smaller areas and recursively continues doing that until it no
//! longer discovers substantially more broadcasts. Such a crawl finds
//! 1K-4K broadcasts" and "it takes over 10 minutes to finish". Requests are
//! paced to stay under the 429 rate limit; the output is the cumulative
//! discovery curve of Fig 1 plus the per-area counts the targeted crawl
//! selects from.

use crate::records::ObservationStore;
use crate::wire::{self, Refusal};
use pscp_service::PeriscopeService;
use pscp_simnet::{GeoPoint, GeoRect, SimDuration, SimTime};
use pscp_workload::broadcast::BroadcastId;
use std::collections::HashSet;

/// Deep-crawl settings.
#[derive(Debug, Clone)]
pub struct DeepCrawlConfig {
    /// Pacing between API requests (rate-limit avoidance).
    pub pace: SimDuration,
    /// Stop recursing into a quadrant when a query discovers fewer than
    /// this many new broadcasts.
    pub min_new_to_recurse: usize,
    /// Maximum quadtree depth below the world rectangle.
    pub max_depth: u32,
    /// Crawler account name.
    pub user: String,
    /// Record crawl events/metrics into [`DeepCrawl::trace`] (DESIGN.md
    /// §7). Off by default; the crawl itself is identical either way.
    pub trace: bool,
}

impl Default for DeepCrawlConfig {
    fn default() -> Self {
        DeepCrawlConfig {
            pace: SimDuration::from_millis(1200),
            min_new_to_recurse: 4,
            max_depth: 8,
            user: "crawler-deep".to_string(),
            trace: false,
        }
    }
}

/// One map query of the crawl, for the Fig 1 curve.
#[derive(Debug, Clone)]
pub struct CrawlStep {
    /// Queried area.
    pub rect: GeoRect,
    /// Broadcast ids returned.
    pub returned: usize,
    /// Of those, previously unseen.
    pub new: usize,
    /// Cumulative distinct broadcasts after this query.
    pub cumulative: usize,
    /// Query instant.
    pub at: SimTime,
}

/// Result of one deep crawl.
#[derive(Debug)]
pub struct DeepCrawl {
    /// Every query in order (the Fig 1 x-axis).
    pub steps: Vec<CrawlStep>,
    /// Distinct broadcasts discovered.
    pub discovered: HashSet<BroadcastId>,
    /// Observations (descriptions fetched for discovered broadcasts).
    pub observations: ObservationStore,
    /// 429 responses encountered.
    pub rate_limited: u32,
    /// 200 responses whose body did not decode (retried like a 5xx).
    pub bad_responses: u32,
    /// When the crawl finished.
    pub finished_at: SimTime,
    /// Crawl-side events and metrics (plus the service's own trace,
    /// absorbed at the end of the run). Empty unless the config asked for
    /// tracing.
    pub trace: pscp_obs::Trace,
}

impl DeepCrawl {
    /// Runs a deep crawl starting at `start`, driving the virtual clock by
    /// the configured pacing. Returns the crawl log.
    pub fn run(
        service: &mut PeriscopeService,
        config: &DeepCrawlConfig,
        start: SimTime,
    ) -> DeepCrawl {
        let mut crawl = DeepCrawl {
            steps: Vec::new(),
            discovered: HashSet::new(),
            observations: ObservationStore::new(),
            rate_limited: 0,
            bad_responses: 0,
            finished_at: start,
            trace: pscp_obs::Trace::new(config.trace),
        };
        let mut now = start;
        // Breadth-first over the quadtree: each level's productive rects
        // spawn their quadrants.
        let mut frontier: Vec<(GeoRect, u32)> = vec![(GeoRect::WORLD, 0)];
        while let Some((rect, depth)) = frontier.pop() {
            let (ids, at) = Self::map_query(service, config, rect, &mut now, &mut crawl);
            let new: Vec<BroadcastId> =
                ids.iter().copied().filter(|id| !crawl.discovered.contains(id)).collect();
            for id in &new {
                crawl.discovered.insert(*id);
            }
            for id in &ids {
                crawl.observations.sight(*id, at);
            }
            // Fetch descriptions for newly found broadcasts (batched).
            if !new.is_empty() {
                Self::get_descriptions(service, config, &new, &mut now, &mut crawl);
            }
            crawl.trace.count("crawler", "map_queries", 1);
            if crawl.trace.is_enabled() {
                crawl.trace.event(
                    at.as_micros(),
                    "crawler",
                    "crawler.map_query",
                    vec![
                        ("returned", pscp_obs::Field::U(ids.len() as u64)),
                        ("new", pscp_obs::Field::U(new.len() as u64)),
                        ("depth", pscp_obs::Field::U(depth as u64)),
                    ],
                );
            }
            crawl.steps.push(CrawlStep {
                rect,
                returned: ids.len(),
                new: new.len(),
                cumulative: crawl.discovered.len(),
                at,
            });
            if new.len() >= config.min_new_to_recurse && depth < config.max_depth {
                for q in rect.quadrants() {
                    frontier.push((q, depth + 1));
                }
            }
        }
        crawl.finished_at = now;
        crawl.trace.count("crawler", "discovered", crawl.discovered.len() as u64);
        // Fold in the service-side view (per-verb counters, 429 events).
        let service_trace = service.take_trace();
        crawl.trace.absorb(service_trace);
        crawl
    }

    /// Issues a paced mapGeoBroadcastFeed, retrying until it is answered.
    fn map_query(
        service: &mut PeriscopeService,
        config: &DeepCrawlConfig,
        rect: GeoRect,
        now: &mut SimTime,
        crawl: &mut DeepCrawl,
    ) -> (Vec<BroadcastId>, SimTime) {
        loop {
            *now += config.pace;
            match wire::map_feed(service, &config.user, rect, *now) {
                Ok(ids) => return (ids, *now),
                Err(why) => crawl.back_off(why, now, config),
            }
        }
    }

    /// Issues paced getBroadcasts calls for up to 100 ids per request.
    fn get_descriptions(
        service: &mut PeriscopeService,
        config: &DeepCrawlConfig,
        ids: &[BroadcastId],
        now: &mut SimTime,
        crawl: &mut DeepCrawl,
    ) {
        for batch in ids.chunks(100) {
            loop {
                *now += config.pace;
                match wire::get_broadcasts(service, &config.user, batch, *now) {
                    Ok(descriptions) => {
                        crawl.trace.count("crawler", "desc_queries", 1);
                        for desc in &descriptions {
                            crawl.observations.ingest(desc, *now);
                        }
                        break;
                    }
                    Err(why) => crawl.back_off(why, now, config),
                }
            }
        }
    }

    /// Books an exchange that got no answer — a 429, an injected backend
    /// failure (DESIGN.md §8) or a body that does not decode — and waits
    /// two paces before the caller retries.
    fn back_off(&mut self, why: Refusal, now: &mut SimTime, config: &DeepCrawlConfig) {
        why.book(&mut self.trace, &mut self.rate_limited, &mut self.bad_responses);
        if why == Refusal::RateLimited {
            self.trace.event(now.as_micros(), "crawler", "crawler.rate_limited", vec![]);
        }
        *now += config.pace * 2;
    }

    /// Duration of the crawl.
    pub fn duration(&self) -> SimDuration {
        let first = self.steps.first().map(|s| s.at).unwrap_or(self.finished_at);
        self.finished_at.saturating_since(first)
    }

    /// The Fig 1(a) series: cumulative discoveries per *map* query.
    pub fn cumulative_curve(&self) -> Vec<(usize, usize)> {
        self.steps.iter().enumerate().map(|(i, s)| (i + 1, s.cumulative)).collect()
    }

    /// Per-area counts sorted descending — the targeted crawl's input.
    pub fn areas_by_count(&self) -> Vec<(GeoRect, usize)> {
        // Leaf areas: those whose quadrants were not themselves queried.
        let mut out: Vec<(GeoRect, usize)> =
            self.steps.iter().map(|s| (s.rect, s.returned)).collect();
        out.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        out
    }

    /// Fig 1(b): fraction of broadcasts contained in the top fraction of
    /// areas. Returns (area fraction, broadcast fraction) points.
    pub fn concentration_curve(&self) -> Vec<(f64, f64)> {
        let areas = self.areas_by_count();
        let total: usize = areas.iter().map(|(_, n)| n).sum();
        if total == 0 {
            return Vec::new();
        }
        let mut cum = 0usize;
        areas
            .iter()
            .enumerate()
            .map(|(i, (_, n))| {
                cum += n;
                ((i + 1) as f64 / areas.len() as f64, cum as f64 / total as f64)
            })
            .collect()
    }
}

/// The measurement vantage point (Finland, like the paper's emulators).
pub fn crawler_location() -> GeoPoint {
    GeoPoint::new(60.19, 24.83)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_service::ServiceConfig;
    use pscp_simnet::RngFactory;
    use pscp_workload::population::{Population, PopulationConfig};

    fn service() -> PeriscopeService {
        let pop = Population::generate(PopulationConfig::medium(), &RngFactory::new(41));
        PeriscopeService::new(pop, ServiceConfig::default())
    }

    fn run_crawl(svc: &mut PeriscopeService) -> DeepCrawl {
        DeepCrawl::run(svc, &DeepCrawlConfig::default(), SimTime::from_secs(3600))
    }

    #[test]
    fn finds_thousands_of_broadcasts() {
        let mut svc = service();
        let crawl = run_crawl(&mut svc);
        // Paper: 1K-4K per deep crawl (our medium population is ~half the
        // default scale, so accept a wider low end).
        let n = crawl.discovered.len();
        assert!((400..6000).contains(&n), "discovered={n}");
    }

    #[test]
    fn zooming_discovers_more_than_world_query() {
        let mut svc = service();
        let crawl = run_crawl(&mut svc);
        let world_step = &crawl.steps[0];
        assert!(crawl.discovered.len() > world_step.returned * 5);
    }

    #[test]
    fn cumulative_curve_monotone() {
        let mut svc = service();
        let crawl = run_crawl(&mut svc);
        let curve = crawl.cumulative_curve();
        assert!(curve.len() > 20, "queries={}", curve.len());
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn concentration_matches_fig1b() {
        // "half of the areas contain at least 80% of all the broadcasts".
        let mut svc = service();
        let crawl = run_crawl(&mut svc);
        let curve = crawl.concentration_curve();
        let at_half =
            curve.iter().find(|(area_frac, _)| *area_frac >= 0.5).map(|(_, b)| *b).unwrap();
        assert!(at_half >= 0.8, "at_half={at_half}");
    }

    #[test]
    fn crawl_takes_minutes() {
        let mut svc = service();
        let crawl = run_crawl(&mut svc);
        let mins = crawl.duration().as_secs_f64() / 60.0;
        assert!(mins > 3.0, "crawl took {mins} min");
    }

    #[test]
    fn observations_have_descriptions() {
        let mut svc = service();
        let crawl = run_crawl(&mut svc);
        assert!(crawl.observations.len() > crawl.discovered.len() / 2);
        let with_viewers = crawl.observations.all().filter(|o| o.viewer_samples > 0).count();
        assert!(with_viewers > 0);
    }

    #[test]
    fn pacing_avoids_rate_limits() {
        let mut svc = service();
        let crawl = run_crawl(&mut svc);
        // Well-paced crawl sees none (or nearly none) of the 429s.
        assert!(crawl.rate_limited < 5, "rate_limited={}", crawl.rate_limited);
    }
}
