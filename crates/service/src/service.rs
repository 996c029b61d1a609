//! The service facade: HTTP in, JSON out, with rate limiting — what the
//! phone (and the mitmproxy between) actually talks to.

use crate::api::{write_description, write_map_item, ApiRequest, StaticMembers};
use crate::cdn::{self, CdnPop};
use crate::directory::{Directory, RateLimiter, VisibilityConfig};
use crate::ingest::{assign_server, IngestServer};
use crate::select::{Protocol, SelectionPolicy};
use pscp_proto::http::{Request, Response};
use pscp_proto::json::Writer;
use pscp_simnet::fault::{FaultConfig, FaultRng};
use pscp_simnet::{GeoPoint, SimTime};
use pscp_workload::broadcast::{Broadcast, BroadcastId};
use pscp_workload::population::Population;

/// Service-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Map visibility model.
    pub visibility: VisibilityConfig,
    /// Protocol selection policy.
    pub selection: SelectionPolicy,
    /// Record per-request events/metrics into the service trace (DESIGN.md
    /// §7). Off by default; the simulation is identical either way.
    pub trace: bool,
    /// Fault injection (DESIGN.md §8): only `api_429_rate`/`api_5xx_rate`
    /// apply on the service side. Default all-off, in which case no fault
    /// variate is ever drawn and responses are byte-identical to a
    /// fault-free build.
    pub faults: FaultConfig,
}

/// A stored playbackMeta upload (what the paper's mitmproxy script dumped
/// per viewing session).
#[derive(Debug, Clone, PartialEq)]
pub struct PlaybackMetaRecord {
    /// Reporting user.
    pub user: String,
    /// Watched broadcast.
    pub broadcast_id: BroadcastId,
    /// Stall count.
    pub n_stalls: u32,
    /// Mean stall duration (RTMP only).
    pub avg_stall_time_s: Option<f64>,
    /// Playback latency (RTMP only).
    pub playback_latency_s: Option<f64>,
    /// Upload instant.
    pub at: SimTime,
}

/// Stream endpoints returned by `accessVideo`.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoAccess {
    /// Chosen protocol.
    pub protocol: Protocol,
    /// RTMP ingest server (RTMP only).
    pub rtmp_server: Option<IngestServer>,
    /// CDN POP (HLS only).
    pub cdn_pop: Option<CdnPop>,
}

impl VideoAccess {
    /// The `accessVideo` response body.
    fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.begin_object();
        if let Some(pop) = self.cdn_pop {
            w.key("hls_url").str(&format!("http://{}/playlist.m3u8", pop.hostname()));
        }
        w.key("protocol").str(self.protocol.name());
        if let Some(s) = &self.rtmp_server {
            w.key("rtmp_url").str(&format!("rtmp://{}:80/live", s.hostname()));
        }
        w.end_object();
        out
    }
}

/// Every rendered broadcast's static members ([`StaticMembers`]), written
/// on the broadcast's first map item or description and spliced into each
/// later one (DESIGN.md §15): a targeted crawl describes the same
/// broadcasts every round. Holds nothing until the first list verb, so a
/// world that only serves sessions never builds it.
#[derive(Debug, Default)]
struct RenderStore {
    /// The static members of every rendered broadcast, back to back, in
    /// render order. Append-only.
    arena: String,
    /// Per rendered broadcast, in render order.
    runs: Vec<Run>,
    /// Per population index: its entry in `runs`, [`UNRENDERED`] before
    /// its first render. Empty until the first render.
    index: Vec<u32>,
}

/// A broadcast not yet rendered, in [`RenderStore::index`].
const UNRENDERED: u32 = u32::MAX;

/// One rendered broadcast's text: where it starts in the arena and where
/// each of its four runs ends, counted from there.
#[derive(Debug, Clone, Copy)]
struct Run {
    at: u32,
    ends: [u16; 4],
}

impl RenderStore {
    /// The static members of the broadcast at `population` index `i`,
    /// written on its first render.
    fn members<'s>(&'s mut self, population: &Population, i: usize) -> StaticMembers<'s> {
        if self.index.is_empty() {
            self.index = vec![UNRENDERED; population.broadcasts.len()];
        }
        if self.index[i] == UNRENDERED {
            let at = u32::try_from(self.arena.len()).expect("the arena stays below 4 GiB");
            let ends = StaticMembers::write(&mut self.arena, &population.broadcasts[i]);
            let ends = ends.map(|end| u16::try_from(end).expect("a few hundred bytes a render"));
            self.index[i] = self.runs.len() as u32;
            self.runs.push(Run { at, ends });
        }
        let Run { at, ends } = self.runs[self.index[i] as usize];
        StaticMembers::cut(&self.arena[at as usize..], ends.map(usize::from))
    }

    /// `{"broadcasts":[{…},…]}`, the body of both list verbs over the
    /// broadcasts at `population` indices `list`: `item` writes the members
    /// of one broadcast's object; `body_bytes` pre-sizes the body.
    fn list(
        &mut self,
        population: &Population,
        list: impl Iterator<Item = usize>,
        body_bytes: usize,
        item: impl Fn(&mut Writer<'_>, &StaticMembers<'_>, &Broadcast),
    ) -> Response {
        let mut body = String::with_capacity(16 + body_bytes);
        let mut w = Writer::new(&mut body);
        w.begin_object();
        w.key("broadcasts").begin_array();
        for i in list {
            w.begin_object();
            item(&mut w, &self.members(population, i), &population.broadcasts[i]);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        Response::ok_json(body)
    }
}

/// The Periscope backend.
#[derive(Debug)]
pub struct PeriscopeService {
    /// The broadcast world this service fronts.
    pub population: Population,
    directory: Directory,
    limiter: RateLimiter,
    config: ServiceConfig,
    /// All playbackMeta uploads received.
    pub playback_meta: Vec<PlaybackMetaRecord>,
    trace: pscp_obs::Trace,
    /// Stream for injected API errors. Stateful is fine here: `handle_http`
    /// takes `&mut self`, so all API traffic is serialized already.
    fault_rng: FaultRng,
    /// The static members of every broadcast a list verb has rendered,
    /// by index into `population`, which nothing changes once the service
    /// is built.
    renders: RenderStore,
}

impl PeriscopeService {
    /// Creates the service over a population.
    pub fn new(population: Population, config: ServiceConfig) -> Self {
        let trace = pscp_obs::Trace::new(config.trace);
        let fault_rng = FaultRng::from_label(config.faults.seed, "service/http");
        PeriscopeService {
            population,
            directory: Directory::new(config.visibility.clone()),
            limiter: RateLimiter::periscope_default(),
            config,
            playback_meta: Vec::new(),
            trace,
            fault_rng,
            renders: RenderStore::default(),
        }
    }

    /// How many broadcasts the list verbs have rendered, and the bytes
    /// written to keep their static members: text, run bounds and the
    /// per-population index. Counted as written; a growing buffer may
    /// reserve up to twice that.
    pub fn render_store(&self) -> (usize, usize) {
        let store = &self.renders;
        let bytes = store.arena.len()
            + store.runs.len() * std::mem::size_of::<Run>()
            + store.index.len() * std::mem::size_of::<u32>();
        (store.runs.len(), bytes)
    }

    /// Drains the service-side trace (per-verb counters, 429 events) so a
    /// crawl or lab can absorb it; the service keeps recording afterwards.
    pub fn take_trace(&mut self) -> pscp_obs::Trace {
        self.trace.take()
    }

    /// Handles one HTTP API request from `user` at `now`. `viewer_loc` is
    /// the requester's location (in reality inferred from the client IP),
    /// used for CDN POP choice.
    pub fn handle_http(
        &mut self,
        user: &str,
        req: &Request,
        now: SimTime,
        viewer_loc: &GeoPoint,
    ) -> Response {
        if !self.limiter.allow(user, now) {
            // §4: "too frequent requests will be answered with HTTP 429".
            self.trace.count("service", "rate_limited", 1);
            if self.trace.is_enabled() {
                self.trace.event(
                    now.as_micros(),
                    "service",
                    "service.rate_limited",
                    vec![("user", pscp_obs::Field::S(user.to_string()))],
                );
            }
            return Response::too_many_requests();
        }
        let f = &self.config.faults;
        if f.api_429_rate > 0.0 || f.api_5xx_rate > 0.0 {
            // One draw per request decides between injected 429, injected
            // 5xx, and normal handling; with both rates zero the branch is
            // never entered and no variate is consumed.
            let r = self.fault_rng.next_f64();
            if r < f.api_429_rate {
                self.trace.count("fault", "injected_429", 1);
                return Response::too_many_requests();
            }
            if r < f.api_429_rate + f.api_5xx_rate {
                self.trace.count("fault", "injected_5xx", 1);
                return Response::server_error();
            }
        }
        let api = match ApiRequest::from_http(req) {
            Ok(api) => api,
            Err(e) => {
                self.trace.count("service", "bad_requests", 1);
                return Response {
                    status: 400,
                    headers: Vec::new(),
                    body: e.to_string().into_bytes(),
                };
            }
        };
        let verb = match &api {
            ApiRequest::MapGeoBroadcastFeed { .. } => "api.mapGeoBroadcastFeed",
            ApiRequest::GetBroadcasts { .. } => "api.getBroadcasts",
            ApiRequest::PlaybackMeta { .. } => "api.playbackMeta",
            ApiRequest::AccessVideo { .. } => "api.accessVideo",
        };
        self.trace.count("service", verb, 1);
        // Request handling takes no sim time in this model, so its span is
        // an instant marker on the service's own trace (absorbed by
        // whichever crawl drives it).
        self.trace.span(now.as_micros(), now.as_micros(), "service", "service.request", None);
        match api {
            // include_replay=false (the crawler's setting) restricts to live
            // broadcasts, which map_query already guarantees; the flag exists
            // to mirror the wire protocol.
            ApiRequest::MapGeoBroadcastFeed { rect, include_replay: _ } => {
                let population = &self.population;
                let found = self.directory.map_query(population, &rect, now);
                let listed = found
                    .iter()
                    .map(|b| population.index_of(b.id).expect("a broadcast of this world"));
                self.renders
                    .list(population, listed, found.len() * 80, |w, s, _| write_map_item(w, s))
            }
            ApiRequest::GetBroadcasts { ids } => {
                let population = &self.population;
                let known = ids.iter().filter_map(|id| population.index_of(*id));
                self.renders.list(population, known, ids.len() * 192, |w, s, b| {
                    write_description(w, s, b, now)
                })
            }
            ApiRequest::PlaybackMeta {
                broadcast_id,
                n_stalls,
                avg_stall_time_s,
                playback_latency_s,
            } => {
                self.playback_meta.push(PlaybackMetaRecord {
                    user: user.to_string(),
                    broadcast_id,
                    n_stalls,
                    avg_stall_time_s,
                    playback_latency_s,
                    at: now,
                });
                // Table 1: playbackMeta returns "nothing".
                Response::ok_json("{}")
            }
            ApiRequest::AccessVideo { broadcast_id } => {
                match self.access_video(broadcast_id, viewer_loc, now) {
                    Some(access) => Response::ok_json(access.to_json()),
                    None => Response::not_found(),
                }
            }
        }
    }

    /// Resolves stream endpoints for a broadcast: protocol by popularity,
    /// RTMP server near the broadcaster, CDN POP near the viewer.
    pub fn access_video(
        &self,
        id: BroadcastId,
        viewer_loc: &GeoPoint,
        now: SimTime,
    ) -> Option<VideoAccess> {
        let b = self.population.by_id(id)?;
        if !b.is_live_at(now) {
            return None;
        }
        let protocol = self.config.selection.choose(b, now);
        Some(match protocol {
            Protocol::Rtmp => VideoAccess {
                protocol,
                rtmp_server: Some(assign_server(&b.location, b.id.0)),
                cdn_pop: None,
            },
            Protocol::Hls => VideoAccess {
                protocol,
                rtmp_server: None,
                cdn_pop: Some(cdn::pop_for_session(
                    viewer_loc,
                    b.id.0 ^ (now.as_micros() / 60_000_000),
                )),
            },
            // The selection policy never chooses SRT (it is opt-in per
            // session); an SRT gateway rides the same ingest host.
            Protocol::Srt => VideoAccess {
                protocol,
                rtmp_server: Some(assign_server(&b.location, b.id.0)),
                cdn_pop: None,
            },
        })
    }

    /// The selection policy in force (for experiment introspection).
    pub fn selection_policy(&self) -> &SelectionPolicy {
        &self.config.selection
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_proto::json::parse;
    use pscp_simnet::{GeoRect, RngFactory, SimDuration};
    use pscp_workload::population::PopulationConfig;

    fn service() -> PeriscopeService {
        let pop = Population::generate(PopulationConfig::medium(), &RngFactory::new(21));
        PeriscopeService::new(pop, ServiceConfig::default())
    }

    fn helsinki() -> GeoPoint {
        GeoPoint::new(60.17, 24.94)
    }

    #[test]
    fn map_feed_returns_ids() {
        let mut svc = service();
        let req = ApiRequest::MapGeoBroadcastFeed { rect: GeoRect::WORLD, include_replay: false }
            .to_http("u1");
        let resp = svc.handle_http("u1", &req, SimTime::from_secs(3600), &helsinki());
        assert_eq!(resp.status, 200);
        let v = parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let list = v.get("broadcasts").unwrap().as_array().unwrap();
        assert!(!list.is_empty());
        assert!(list[0].get("id").is_some());
    }

    #[test]
    fn get_broadcasts_returns_descriptions() {
        let mut svc = service();
        let t = SimTime::from_secs(3600);
        let id = svc.population.live_at(t)[0].id;
        let req = ApiRequest::GetBroadcasts { ids: vec![id] }.to_http("u1");
        let resp = svc.handle_http("u1", &req, t, &helsinki());
        let v = parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let list = v.get("broadcasts").unwrap().as_array().unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].get("id").and_then(|i| i.as_str()), Some(id.as_string().as_str()));
        assert_eq!(list[0].get("live").and_then(|l| l.as_bool()), Some(true));
    }

    #[test]
    fn unknown_ids_silently_skipped() {
        let mut svc = service();
        let req = ApiRequest::GetBroadcasts { ids: vec![BroadcastId(0xdead_beef)] }.to_http("u1");
        let resp = svc.handle_http("u1", &req, SimTime::from_secs(10), &helsinki());
        let v = parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert!(v.get("broadcasts").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn rate_limit_fires_429() {
        let mut svc = service();
        let t = SimTime::from_secs(100);
        let req = ApiRequest::GetBroadcasts { ids: vec![] }.to_http("u1");
        let mut saw_429 = false;
        for _ in 0..20 {
            let resp = svc.handle_http("u1", &req, t, &helsinki());
            if resp.status == 429 {
                saw_429 = true;
                break;
            }
        }
        assert!(saw_429);
        // A different user is unaffected.
        let resp = svc.handle_http("u2", &req, t, &helsinki());
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn injected_api_errors_fire_and_reproduce() {
        let mk = || {
            let pop = Population::generate(PopulationConfig::medium(), &RngFactory::new(21));
            let config = ServiceConfig {
                faults: FaultConfig {
                    seed: 77,
                    api_429_rate: 0.2,
                    api_5xx_rate: 0.2,
                    ..Default::default()
                },
                ..Default::default()
            };
            PeriscopeService::new(pop, config)
        };
        let (mut a, mut b) = (mk(), mk());
        let req = ApiRequest::GetBroadcasts { ids: vec![] }.to_http("u");
        let run = |svc: &mut PeriscopeService| -> Vec<u16> {
            (0..40)
                .map(|i| {
                    // One request per user per second stays under the limiter.
                    let t = SimTime::from_secs(i);
                    svc.handle_http(&format!("u{i}"), &req, t, &helsinki()).status
                })
                .collect()
        };
        let (sa, sb) = (run(&mut a), run(&mut b));
        assert_eq!(sa, sb, "same fault seed, same injected statuses");
        assert!(sa.contains(&429) && sa.contains(&503) && sa.contains(&200), "statuses={sa:?}");
    }

    #[test]
    fn playback_meta_stored() {
        let mut svc = service();
        let req = ApiRequest::PlaybackMeta {
            broadcast_id: BroadcastId(7),
            n_stalls: 3,
            avg_stall_time_s: Some(4.0),
            playback_latency_s: Some(2.4),
        }
        .to_http("phone-1");
        let resp = svc.handle_http("phone-1", &req, SimTime::from_secs(60), &helsinki());
        assert_eq!(resp.status, 200);
        assert_eq!(svc.playback_meta.len(), 1);
        assert_eq!(svc.playback_meta[0].n_stalls, 3);
        assert_eq!(svc.playback_meta[0].user, "phone-1");
    }

    #[test]
    fn access_video_small_broadcast_rtmp_near_broadcaster() {
        let svc = service();
        let t = SimTime::from_secs(3600);
        let small = svc
            .population
            .live_at(t)
            .into_iter()
            .find(|b| b.avg_viewers > 0.0 && b.avg_viewers < 20.0 && b.city == "Istanbul")
            .expect("an unpopular Istanbul broadcast exists");
        let access = svc.access_video(small.id, &helsinki(), t).unwrap();
        assert_eq!(access.protocol, Protocol::Rtmp);
        let server = access.rtmp_server.unwrap();
        // Broadcaster in Istanbul → an EU ingest region, not the viewer's.
        assert!(server.region.starts_with("eu-"), "region={}", server.region);
    }

    #[test]
    fn access_video_popular_broadcast_uses_hls_cdn() {
        let svc = service();
        let t = SimTime::from_secs(3600);
        let popular = svc
            .population
            .live_at(t)
            .into_iter()
            .find(|b| b.viewers_at(t) > 150)
            .expect("a popular broadcast exists");
        let access = svc.access_video(popular.id, &helsinki(), t).unwrap();
        assert_eq!(access.protocol, Protocol::Hls);
        assert!(access.cdn_pop.is_some());
        assert!(access.rtmp_server.is_none());
        // POP-choice geography is covered distributionally in pscp-service
        // cdn tests (pop_for_session), since any single session may be
        // anycast-diverted.
    }

    #[test]
    fn access_video_dead_broadcast_404() {
        let mut svc = service();
        let ended = svc.population.broadcasts[0].clone();
        let after = ended.end() + SimDuration::from_secs(10);
        assert!(svc.access_video(ended.id, &helsinki(), after).is_none());
        let req = ApiRequest::AccessVideo { broadcast_id: ended.id }.to_http("u");
        let resp = svc.handle_http("u", &req, after, &helsinki());
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn malformed_request_is_400() {
        let mut svc = service();
        let req = Request::post_json("/api/v2/mapGeoBroadcastFeed", "not json");
        let resp = svc.handle_http("u", &req, SimTime::from_secs(1), &helsinki());
        assert_eq!(resp.status, 400);
    }
}
