//! The Lab: one object wiring population → service → crawler/client →
//! analysis, with memoized expensive artifacts.

use pscp_client::device::NetworkSetup;
use pscp_client::session::SessionConfig;
use pscp_client::{Teleport, TeleportConfig};
use pscp_crawler::deep::DeepCrawlConfig;
use pscp_crawler::targeted::TargetedCrawlConfig;
use pscp_crawler::{DeepCrawl, TargetedCrawl};
use pscp_obs::{Observer, PhaseSpan};
use pscp_qoe::SessionDataset;
use pscp_service::{PeriscopeService, ServiceConfig};
use pscp_simnet::{RngFactory, SimDuration, SimTime};
use pscp_workload::population::{Population, PopulationConfig};

/// Experiment scale: how much data to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast configurations for tests and examples.
    Small,
    /// Paper-sized datasets (minutes of wall time to generate).
    Paper,
}

/// Lab configuration.
#[derive(Debug, Clone)]
pub struct LabConfig {
    /// Master seed: everything derives from it.
    pub seed: u64,
    /// Scale preset.
    pub scale: Scale,
    /// Population settings.
    pub population: PopulationConfig,
    /// Service settings.
    pub service: ServiceConfig,
    /// Unlimited-bandwidth sessions to run for the QoE dataset.
    pub sessions_unlimited: usize,
    /// Sessions per bandwidth-limit sweep point.
    pub sessions_per_limit: usize,
    /// Bandwidth-limit sweep points in Mbps (the paper's 0.5–10).
    pub limits_mbps: Vec<f64>,
    /// Worker threads for dataset generation (capture analysis included)
    /// and crawls.
    /// `0` = auto (the `PSCP_THREADS` environment variable, else the
    /// machine's available parallelism); `1` = the exact serial path.
    /// Every figure and table is byte-identical at every setting.
    pub threads: usize,
    /// Record a structured event log and per-subsystem metrics of every
    /// run. Also enabled by the `PSCP_TRACE` environment variable (any
    /// non-empty value other than `0`). Tracing never alters sim-time
    /// behavior: figures and datasets are byte-identical either way.
    pub trace: bool,
    /// Record wall-clock phase spans (plan/execute/sweep/crawl) even when
    /// `trace` is off. Implied by `trace`.
    pub profile: bool,
}

impl LabConfig {
    /// Fast configuration for tests/examples.
    pub fn small(seed: u64) -> LabConfig {
        LabConfig {
            seed,
            scale: Scale::Small,
            population: PopulationConfig::small(),
            service: ServiceConfig::default(),
            sessions_unlimited: 30,
            sessions_per_limit: 6,
            limits_mbps: vec![0.5, 2.0, 6.0],
            threads: 0,
            trace: false,
            profile: false,
        }
    }

    /// Paper-scale configuration: §5's "4615 sessions in total: 1796 RTMP
    /// and 1586 HLS sessions without a bandwidth limit and 18-91 sessions
    /// for each specific bandwidth limit", sweep 0.5–10 Mbps.
    pub fn paper(seed: u64) -> LabConfig {
        LabConfig {
            seed,
            scale: Scale::Paper,
            population: PopulationConfig::default(),
            service: ServiceConfig::default(),
            sessions_unlimited: 3382,
            sessions_per_limit: 50,
            limits_mbps: vec![0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            threads: 0,
            trace: false,
            profile: false,
        }
    }

    /// A mid-size preset: paper-shaped but an order of magnitude lighter.
    pub fn medium(seed: u64) -> LabConfig {
        LabConfig {
            seed,
            scale: Scale::Small,
            population: PopulationConfig::medium(),
            service: ServiceConfig::default(),
            sessions_unlimited: 300,
            sessions_per_limit: 18,
            limits_mbps: vec![0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            threads: 0,
            trace: false,
            profile: false,
        }
    }
}

/// Unlimited-bandwidth dataset sessions per protocol whose capture is
/// analysed: what Figs 5–6 and the §5.1/§5.2 tables read. The bandwidth
/// sweep analyses none.
const ANALYZED_PER_PROTOCOL: usize = 300;

/// True when the `PSCP_TRACE` environment variable requests tracing.
fn env_trace() -> bool {
    std::env::var("PSCP_TRACE").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
}

/// The lab.
pub struct Lab {
    /// Configuration in force.
    pub config: LabConfig,
    rngs: RngFactory,
    service: Option<PeriscopeService>,
    dataset: Option<std::sync::Arc<SessionDataset>>,
    obs: Observer,
}

impl Lab {
    /// Creates a lab; the population/service are built lazily on first use.
    pub fn new(mut config: LabConfig) -> Lab {
        let tracing = config.trace || env_trace();
        let profiling = tracing || config.profile;
        // The service records its own API counters into its trace; wire the
        // flag through so lazily built services inherit it.
        config.service.trace = tracing;
        let rngs = RngFactory::new(config.seed);
        Lab {
            config,
            rngs,
            service: None,
            dataset: None,
            obs: Observer::with_flags(tracing, profiling),
        }
    }

    /// The RNG namespace of this lab.
    pub fn rngs(&self) -> &RngFactory {
        &self.rngs
    }

    /// The lab's observer: the run-wide event log, metrics registry and
    /// phase spans. Disabled (and empty) unless [`LabConfig::trace`] /
    /// [`LabConfig::profile`] or `PSCP_TRACE` asked for it.
    pub fn observer(&self) -> &Observer {
        &self.obs
    }

    /// Runs `f` over `items` in parallel like
    /// [`pscp_simnet::par::indexed_map`], recording a wall-clock
    /// [`PhaseSpan`] named `name` when profiling is on.
    pub fn par_phase<T, R, F>(&self, name: &str, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let (out, prof) = pscp_simnet::par::indexed_map_timed(items, self.config.threads, f);
        self.obs.record_phase(PhaseSpan {
            name: name.to_string(),
            wall_secs: prof.wall_secs,
            workers: prof.workers,
            items: items.len(),
            busy_secs: prof.busy_total(),
        });
        out
    }

    /// The service (built on first access).
    pub fn service(&mut self) -> &mut PeriscopeService {
        if self.service.is_none() {
            let population =
                Population::generate(self.config.population.clone(), &self.rngs.child("world"));
            self.service = Some(PeriscopeService::new(population, self.config.service.clone()));
        }
        self.service.as_mut().expect("just built")
    }

    /// Builds a fresh service over a population whose clock starts at a
    /// different UTC hour (for the multi-time-of-day crawls).
    pub fn service_at_hour(&self, utc_start_hour: f64) -> PeriscopeService {
        let mut cfg = self.config.population.clone();
        cfg.utc_start_hour = utc_start_hour;
        let label = format!("world-at-{utc_start_hour}");
        let population = Population::generate(cfg, &self.rngs.child(&label));
        PeriscopeService::new(population, self.config.service.clone())
    }

    /// Like [`Lab::service_at_hour`], but the world is pruned to the
    /// broadcasts a crawler can observe (public, location visible). Crawls
    /// only see the world through the HTTP API — map queries return
    /// public-and-located broadcasts, and `getBroadcasts` only re-describes
    /// already-discovered ids — so crawl results are byte-identical on the
    /// pruned world while every in-flight crawl holds ~17% fewer
    /// broadcasts. The filter runs *after* each broadcast's draws with the
    /// same `world-at-{h}` RNG label, so retained broadcasts are
    /// field-identical to the full world's.
    pub fn crawl_service_at_hour(&self, utc_start_hour: f64) -> PeriscopeService {
        let mut cfg = self.config.population.clone();
        cfg.utc_start_hour = utc_start_hour;
        let label = format!("world-at-{utc_start_hour}");
        let population = Population::generate_filtered(cfg, &self.rngs.child(&label), |b| {
            !b.private && b.location_public
        });
        PeriscopeService::new(population, self.config.service.clone())
    }

    /// Runs a quick batch of unlimited-bandwidth viewing sessions, each
    /// one's capture analysed into its `stream`.
    pub fn run_viewing_sessions(&mut self, n: usize) -> Vec<pscp_client::SessionOutcome> {
        let rngs = self.rngs;
        let svc = self.service();
        let tp = Teleport::new(svc, rngs.child("sessions"));
        let cfg =
            TeleportConfig { sessions: n, analyze_per_protocol: usize::MAX, ..Default::default() };
        tp.run_dataset(&cfg)
    }

    /// The full QoE dataset (unlimited + bandwidth sweep), memoized.
    ///
    /// The unlimited block — the bulk of the work at paper scale —
    /// parallelizes *within* its `run_dataset` call, and its first 300
    /// sessions of each protocol are analysed there, in the worker that
    /// recorded them; no outcome keeps a capture. The eleven sweep points then fan out across threads as
    /// whole units (each owns its `dataset-limit-{i}` RNG child) with their
    /// inner runs kept serial to avoid oversubscription. Sweep results are
    /// appended in limit order, so the dataset is byte-identical to a
    /// serial build.
    pub fn session_dataset(&mut self) -> std::sync::Arc<SessionDataset> {
        if let Some(d) = &self.dataset {
            return d.clone();
        }
        let rngs = self.rngs;
        let threads = self.config.threads;
        let sessions_unlimited = self.config.sessions_unlimited;
        let sessions_per_limit = self.config.sessions_per_limit;
        let limits = self.config.limits_mbps.clone();
        self.service();
        let svc: &PeriscopeService = self.service.as_ref().expect("just built");
        let obs = &self.obs;
        let tp = Teleport::new(svc, rngs.child("dataset"));
        let mut dataset = SessionDataset::new(tp.run_dataset_observed(
            &TeleportConfig {
                sessions: sessions_unlimited,
                analyze_per_protocol: ANALYZED_PER_PROTOCOL,
                threads,
                ..Default::default()
            },
            obs,
        ));
        // Each sweep point runs under its own child observer so worker
        // completion order cannot touch the shared log; children are merged
        // serially below, in limit order.
        let work = |i: usize, &mbps: &f64| {
            let local = Observer::with_flags(obs.tracing(), obs.profiling());
            let tp = Teleport::new(svc, rngs.child(&format!("dataset-limit-{i}")));
            let session = SessionConfig {
                network: NetworkSetup::finland_limited(mbps),
                ..Default::default()
            };
            let cfg = TeleportConfig {
                sessions: sessions_per_limit,
                session,
                threads: 1,
                ..Default::default()
            };
            let outcomes = tp.run_dataset_observed(&cfg, &local);
            (outcomes, local)
        };
        let sweeps = self.par_phase("dataset.sweep", &limits, work);
        for (mbps, (sweep, local)) in limits.iter().zip(sweeps) {
            if obs.tracing() || obs.profiling() {
                obs.merge_child(&format!("limit-{mbps}"), local);
            }
            dataset.extend(sweep);
        }
        let arc = std::sync::Arc::new(dataset);
        self.dataset = Some(arc.clone());
        arc
    }

    /// The deep-crawl configuration (trace flag wired from the lab).
    pub fn deep_config(&self) -> DeepCrawlConfig {
        DeepCrawlConfig { trace: self.obs.tracing(), ..Default::default() }
    }

    /// Runs a deep crawl without touching the lab's observer; the trace
    /// stays on the returned crawl. Used by the parallel plural methods,
    /// which absorb traces serially in hour order.
    fn deep_crawl_raw(&self, utc_start_hour: f64) -> DeepCrawl {
        let mut svc = self.crawl_service_at_hour(utc_start_hour);
        DeepCrawl::run(&mut svc, &self.deep_config(), SimTime::from_secs(120))
    }

    /// Runs one deep crawl against a service whose world clock starts at
    /// the given UTC hour.
    pub fn deep_crawl_at(&self, utc_start_hour: f64) -> DeepCrawl {
        let mut crawl = self.deep_crawl_raw(utc_start_hour);
        if self.obs.tracing() {
            self.obs.absorb(&format!("deep-crawl-{utc_start_hour}"), crawl.trace.take());
        }
        crawl
    }

    /// Runs one deep crawl per UTC start hour, in parallel. Each crawl
    /// builds its own `world-at-{h}` service, so crawls share nothing and
    /// results match [`Lab::deep_crawl_at`] called hour by hour.
    ///
    /// Memory note: every in-flight crawl holds its own [`Population`],
    /// so peak memory is `min(threads, hours.len())` populations instead
    /// of the serial loop's one — but each is the crawler-visible view
    /// from [`Lab::crawl_service_at_hour`] (public, located broadcasts
    /// only, ~17% lighter), so the scale tiers don't multiply full-world
    /// peak RSS. Set [`LabConfig::threads`] to `1` if even that is too
    /// much.
    pub fn deep_crawls_at(&self, hours: &[f64]) -> Vec<DeepCrawl> {
        let mut crawls = self.par_phase("crawl.deep", hours, |_, &h| self.deep_crawl_raw(h));
        if self.obs.tracing() {
            for (h, crawl) in hours.iter().zip(crawls.iter_mut()) {
                self.obs.absorb(&format!("deep-crawl-{h}"), crawl.trace.take());
            }
        }
        crawls
    }

    /// Runs one targeted crawl (preceded by its deep crawl) per UTC start
    /// hour, in parallel; results match [`Lab::targeted_crawl_at`]. Same
    /// memory profile as [`Lab::deep_crawls_at`]: one crawler-visible
    /// [`Population`] view per in-flight crawl.
    pub fn targeted_crawls_at(&self, hours: &[f64]) -> Vec<TargetedCrawl> {
        let mut crawls =
            self.par_phase("crawl.targeted", hours, |_, &h| self.targeted_crawl_raw(h));
        if self.obs.tracing() {
            for (h, crawl) in hours.iter().zip(crawls.iter_mut()) {
                self.obs.absorb(&format!("targeted-crawl-{h}"), crawl.trace.take());
            }
        }
        crawls
    }

    /// Runs a deep crawl followed by a targeted crawl on the same world,
    /// keeping the combined trace on the returned crawl.
    fn targeted_crawl_raw(&self, utc_start_hour: f64) -> TargetedCrawl {
        let mut svc = self.crawl_service_at_hour(utc_start_hour);
        let mut deep = DeepCrawl::run(&mut svc, &self.deep_config(), SimTime::from_secs(120));
        let tc_config = self.targeted_config();
        let areas = TargetedCrawl::select_areas(&deep, &tc_config);
        let mut tc = TargetedCrawl::run(&mut svc, &areas, &tc_config, deep.finished_at);
        // Fold the preceding deep crawl's trace in; the observer re-sorts
        // events by sim time on absorption, so ordering stays canonical.
        tc.trace.absorb(deep.trace.take());
        tc
    }

    /// Runs a deep crawl followed by a targeted crawl on the same world.
    pub fn targeted_crawl_at(&self, utc_start_hour: f64) -> TargetedCrawl {
        let mut crawl = self.targeted_crawl_raw(utc_start_hour);
        if self.obs.tracing() {
            self.obs.absorb(&format!("targeted-crawl-{utc_start_hour}"), crawl.trace.take());
        }
        crawl
    }

    /// The targeted-crawl configuration: the crawl runs for (almost) the
    /// whole population window, like the paper's 4-10 h crawls. Short
    /// windows bias duration estimates low — long broadcasts never "end
    /// during the crawl" — which is why the paper crawled for hours.
    pub fn targeted_config(&self) -> TargetedCrawlConfig {
        let margin = SimDuration::from_secs(match self.config.scale {
            Scale::Small => 300,
            Scale::Paper => 1200,
        });
        let duration =
            self.config.population.window.saturating_sub(margin).max(SimDuration::from_secs(600));
        TargetedCrawlConfig { duration, trace: self.obs.tracing(), ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_builds_lazily_and_runs_sessions() {
        let mut lab = Lab::new(LabConfig::small(1));
        let sessions = lab.run_viewing_sessions(5);
        assert_eq!(sessions.len(), 5);
    }

    #[test]
    fn dataset_memoized() {
        let mut lab = Lab::new(LabConfig::small(2));
        let a = lab.session_dataset();
        let b = lab.session_dataset();
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        // 30 unlimited + 3 limits × 6.
        assert_eq!(a.len(), 30 + 18);
    }

    #[test]
    fn dataset_contains_sweep_points() {
        let mut lab = Lab::new(LabConfig::small(3));
        let d = lab.session_dataset();
        assert_eq!(d.at_limit(2.0).len(), 6);
        assert_eq!(d.at_limit(0.5).len(), 6);
        assert!(d.sessions.iter().filter(|s| s.bandwidth_limit_bps.is_none()).count() >= 28);
    }

    /// The dataset keeps what it read of each capture, never a packet: every
    /// unlimited session is analysed at this size, and no capture survives.
    #[test]
    fn dataset_holds_no_capture_byte() {
        let mut lab = Lab::new(LabConfig::small(2016));
        let d = lab.session_dataset();
        for (i, s) in d.sessions.iter().enumerate() {
            assert!(s.capture.flows.is_empty(), "session {i} kept its capture");
            assert!(s.traffic_bps > 0.0, "session {i} has no traffic");
            let unlimited = s.bandwidth_limit_bps.is_none();
            assert_eq!(s.stream.is_some(), unlimited, "session {i}: analysed iff unlimited");
        }
    }

    #[test]
    fn services_at_different_hours_differ() {
        let lab = Lab::new(LabConfig::small(4));
        let a = lab.service_at_hour(0.0);
        let b = lab.service_at_hour(12.0);
        assert_ne!(a.population.broadcasts.len(), 0);
        // Different diurnal phases produce different activity volumes.
        assert_ne!(a.population.broadcasts.len(), b.population.broadcasts.len());
    }

    #[test]
    fn determinism_across_labs() {
        let mut lab1 = Lab::new(LabConfig::small(5));
        let mut lab2 = Lab::new(LabConfig::small(5));
        let d1 = lab1.session_dataset();
        let d2 = lab2.session_dataset();
        assert_eq!(d1.len(), d2.len());
        for (a, b) in d1.sessions.iter().zip(&d2.sessions) {
            assert_eq!(a.broadcast_id, b.broadcast_id);
            assert_eq!(a.meta(), b.meta());
        }
    }
}
