//! The targeted crawl.
//!
//! §4: "We select those areas from each crawl, 64 areas in total, for a
//! targeted crawl. We divide them into four sets assigned to four different
//! simultaneously running crawlers, i.e., four emulators running Periscope
//! with different user logged in (avoids rate limiting) that repeatedly
//! query the assigned areas. Such targeted crawl completes in about 50s."
//! Rounds repeat for hours; the observation store accumulates the ~hundreds
//! of thousands of distinct broadcasts behind Fig 2.

use crate::deep::DeepCrawl;
use crate::records::ObservationStore;
use crate::wire::{self, Refusal};
use pscp_service::PeriscopeService;
use pscp_simnet::{GeoRect, SimDuration, SimTime};
use pscp_workload::broadcast::BroadcastId;

/// Targeted-crawl settings.
#[derive(Debug, Clone)]
pub struct TargetedCrawlConfig {
    /// Number of top areas to keep from the deep crawl.
    pub areas: usize,
    /// Parallel crawler accounts.
    pub accounts: usize,
    /// Pacing between one account's requests.
    pub pace: SimDuration,
    /// Total crawl duration (4–10 h in the paper).
    pub duration: SimDuration,
    /// Record a structured event/metrics trace of the crawl.
    pub trace: bool,
}

impl Default for TargetedCrawlConfig {
    fn default() -> Self {
        TargetedCrawlConfig {
            areas: 64,
            accounts: 4,
            pace: SimDuration::from_millis(1100),
            duration: SimDuration::from_secs(4 * 3600),
            trace: false,
        }
    }
}

/// Result of a targeted crawl.
#[derive(Debug)]
pub struct TargetedCrawl {
    /// Accumulated observations.
    pub observations: ObservationStore,
    /// Completed query rounds.
    pub rounds: u32,
    /// Duration of one round (for the ~50 s check).
    pub round_duration: SimDuration,
    /// 429 responses seen.
    pub rate_limited: u32,
    /// 200 responses whose body did not decode (skipped like a 5xx).
    pub bad_responses: u32,
    /// When the crawl ended.
    pub finished_at: SimTime,
    /// UTC hour at simulation t=0 (copied from the population config, used
    /// by the diurnal analysis).
    pub utc_start_hour: f64,
    /// Structured trace of the crawl (empty unless the config enables it).
    pub trace: pscp_obs::Trace,
}

impl TargetedCrawl {
    /// Selects the top areas of a deep crawl — "half of the areas contain
    /// at least 80% of all the broadcasts discovered" — capped to
    /// `config.areas`.
    pub fn select_areas(deep: &DeepCrawl, config: &TargetedCrawlConfig) -> Vec<GeoRect> {
        deep.areas_by_count().into_iter().take(config.areas).map(|(r, _)| r).collect()
    }

    /// Runs the targeted crawl over `areas` starting at `start`.
    ///
    /// The four accounts run concurrently; each account's requests are
    /// paced independently. The simulation interleaves them on the shared
    /// virtual clock.
    pub fn run(
        service: &mut PeriscopeService,
        areas: &[GeoRect],
        config: &TargetedCrawlConfig,
        start: SimTime,
    ) -> TargetedCrawl {
        assert!(config.accounts >= 1, "need at least one account");
        assert!(!areas.is_empty(), "need areas to crawl");
        let utc_start_hour = service.population.config.utc_start_hour;
        let mut crawl = TargetedCrawl {
            observations: ObservationStore::new(),
            rounds: 0,
            round_duration: SimDuration::ZERO,
            rate_limited: 0,
            bad_responses: 0,
            finished_at: start,
            utc_start_hour,
            trace: pscp_obs::Trace::new(config.trace),
        };
        // Partition areas among accounts.
        let per_account: Vec<Vec<GeoRect>> = (0..config.accounts)
            .map(|a| areas.iter().copied().skip(a).step_by(config.accounts).collect())
            .collect();
        let users: Vec<String> =
            (0..config.accounts).map(|a| format!("crawler-targeted-{a}")).collect();
        let longest = per_account.iter().map(Vec::len).max().expect("accounts >= 1");
        crawl.round_duration = config.pace * (longest as u64 * 2); // map + details per area
        let end = start + config.duration;
        let mut round_start = start;
        while round_start + crawl.round_duration <= end {
            for (user, account_areas) in users.iter().zip(&per_account) {
                let mut now = round_start;
                for rect in account_areas {
                    now += config.pace;
                    let ids = Self::map_query(service, user, *rect, now, &mut crawl);
                    for id in &ids {
                        crawl.observations.sight(*id, now);
                    }
                    // Description fetch replaces the next getBroadcasts
                    // (the paper's inline script swapped the id list).
                    now += config.pace;
                    if !ids.is_empty() {
                        Self::get_descriptions(service, user, &ids, now, &mut crawl);
                    }
                }
            }
            crawl.rounds += 1;
            crawl.trace.count("crawler", "targeted_rounds", 1);
            round_start += crawl.round_duration;
        }
        crawl.finished_at = round_start;
        crawl.trace.count("crawler", "observed", crawl.observations.len() as u64);
        let service_trace = service.take_trace();
        crawl.trace.absorb(service_trace);
        crawl
    }

    /// One map query. The round budget leaves no room to retry, so an
    /// area whose query gets no answer is skipped this round.
    fn map_query(
        service: &mut PeriscopeService,
        user: &str,
        rect: GeoRect,
        now: SimTime,
        crawl: &mut TargetedCrawl,
    ) -> Vec<BroadcastId> {
        let reply = wire::map_feed(service, user, rect, now);
        crawl.trace.count("crawler", "map_queries", 1);
        reply.unwrap_or_else(|why| {
            crawl.refused(why);
            if why == Refusal::RateLimited && crawl.trace.is_enabled() {
                crawl.trace.event(
                    now.as_micros(),
                    "crawler",
                    "crawler.rate_limited",
                    vec![("user", pscp_obs::Field::S(user.to_string()))],
                );
            }
            Vec::new()
        })
    }

    fn get_descriptions(
        service: &mut PeriscopeService,
        user: &str,
        ids: &[BroadcastId],
        now: SimTime,
        crawl: &mut TargetedCrawl,
    ) {
        for batch in ids.chunks(100) {
            let reply = wire::get_broadcasts(service, user, batch, now);
            crawl.trace.count("crawler", "desc_queries", 1);
            match reply {
                Ok(descriptions) => {
                    for desc in &descriptions {
                        crawl.observations.ingest(desc, now);
                    }
                }
                Err(why) => crawl.refused(why),
            }
        }
    }

    /// Books an exchange that got no answer: a 429, an injected backend
    /// failure (DESIGN.md §8) or a body that does not decode.
    fn refused(&mut self, why: Refusal) {
        why.book(&mut self.trace, &mut self.rate_limited, &mut self.bad_responses);
    }

    /// Observations of broadcasts that ended during the crawl (§4's filter
    /// with its 60 s grace period).
    pub fn ended_broadcasts(&self) -> Vec<&crate::records::BroadcastObservation> {
        self.observations.ended_during(self.finished_at, SimDuration::from_secs(60))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deep::DeepCrawlConfig;
    use pscp_service::ServiceConfig;
    use pscp_simnet::RngFactory;
    use pscp_workload::population::{Population, PopulationConfig};

    fn service() -> PeriscopeService {
        let pop = Population::generate(PopulationConfig::medium(), &RngFactory::new(51));
        PeriscopeService::new(pop, ServiceConfig::default())
    }

    fn short_config() -> TargetedCrawlConfig {
        TargetedCrawlConfig { duration: SimDuration::from_secs(1800), ..Default::default() }
    }

    fn crawl_fixture() -> &'static (TargetedCrawl, usize) {
        static ONCE: std::sync::OnceLock<(TargetedCrawl, usize)> = std::sync::OnceLock::new();
        ONCE.get_or_init(|| {
            let mut svc = service();
            let deep =
                DeepCrawl::run(&mut svc, &DeepCrawlConfig::default(), SimTime::from_secs(600));
            let areas = TargetedCrawl::select_areas(&deep, &short_config());
            let n_areas = areas.len();
            let tc = TargetedCrawl::run(&mut svc, &areas, &short_config(), deep.finished_at);
            (tc, n_areas)
        })
    }

    #[test]
    fn selects_64_areas() {
        let (_, n_areas) = crawl_fixture();
        assert_eq!(*n_areas, 64);
    }

    #[test]
    fn round_completes_in_about_50s() {
        let (tc, _) = crawl_fixture();
        let secs = tc.round_duration.as_secs_f64();
        assert!((30.0..70.0).contains(&secs), "round={secs}s");
    }

    #[test]
    fn accumulates_many_broadcasts() {
        let (tc, _) = crawl_fixture();
        assert!(tc.rounds >= 20, "rounds={}", tc.rounds);
        // Medium population, 30 min crawl: thousands of observations.
        assert!(tc.observations.len() > 1500, "observed={}", tc.observations.len());
    }

    #[test]
    fn viewer_samples_accumulate_over_rounds() {
        let (tc, _) = crawl_fixture();
        let multi_sampled = tc.observations.all().filter(|o| o.viewer_samples >= 3).count();
        assert!(multi_sampled > 100, "multi_sampled={multi_sampled}");
    }

    #[test]
    fn ended_filter_removes_live_tail() {
        let (tc, _) = crawl_fixture();
        let ended = tc.ended_broadcasts();
        assert!(!ended.is_empty());
        assert!(ended.len() < tc.observations.len());
        for o in &ended {
            assert!(o.last_seen < tc.finished_at - SimDuration::from_secs(60));
        }
    }

    #[test]
    fn four_accounts_avoid_rate_limits() {
        let (tc, _) = crawl_fixture();
        let total_queries = tc.rounds as f64 * 64.0 * 2.0;
        assert!(
            (tc.rate_limited as f64) < total_queries * 0.02,
            "rate_limited={} of {total_queries}",
            tc.rate_limited
        );
    }
}
