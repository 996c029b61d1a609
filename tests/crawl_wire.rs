//! Crawl-plane wire pins.
//!
//! The API bodies are part of the determinism contract: `ApiTap` logs
//! them, `crawl.digest`, Fig 1/2 and `table-usage`/`table-api` read what
//! comes out of them. Two pins, both produced by the code that built a
//! `Value` tree per body (PR 15) and held unchanged by the streaming
//! writer/reader that replaced it:
//!
//! * golden vectors under `tests/vectors/` — one body per request kind and
//!   per response kind, byte for byte;
//! * a crawl-level hash: every request and response body of a medium
//!   world's deep crawl and 30-minute targeted crawl, plus what the
//!   crawler made of them.

use periscope_repro::crawler::{DeepCrawl, DeepCrawlConfig, TargetedCrawl, TargetedCrawlConfig};
use periscope_repro::proto::json;
use periscope_repro::service::api::ApiRequest;
use periscope_repro::service::{PeriscopeService, ServiceConfig};
use periscope_repro::simnet::{GeoPoint, GeoRect, RngFactory, SimDuration, SimTime};
use periscope_repro::workload::broadcast::BroadcastId;
use periscope_repro::workload::population::{Population, PopulationConfig};

const CRAWL_PIN: u64 = 0x59d3_d12a_fbad_4095;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn service(config: PopulationConfig, seed: u64) -> PeriscopeService {
    PeriscopeService::new(
        Population::generate(config, &RngFactory::new(seed)),
        ServiceConfig::default(),
    )
}

fn vantage() -> GeoPoint {
    GeoPoint::new(60.19, 24.83)
}

/// One exchange from a user of its own (the rate limiter never fires);
/// returns the request and response bodies as text.
fn exchange(
    svc: &mut PeriscopeService,
    n: &mut u64,
    req: &ApiRequest,
    at: SimTime,
) -> (String, String) {
    *n += 1;
    let user = format!("pin-{n}");
    let http = req.to_http(&user);
    let resp = svc.handle_http(&user, &http, at, &vantage());
    assert_eq!(resp.status, 200, "{} at {at:?}", req.name());
    (
        String::from_utf8(http.body).expect("request bodies are UTF-8"),
        String::from_utf8(resp.body).expect("response bodies are UTF-8"),
    )
}

/// Ids of a map-feed body, read through the `Value` tree.
fn ids_of(body: &str) -> Vec<BroadcastId> {
    let v = json::parse(body).expect("map feed parses");
    v.get("broadcasts")
        .and_then(|b| b.as_array())
        .expect("broadcasts array")
        .iter()
        .map(|b| b.get("id").and_then(|i| i.as_str()).and_then(BroadcastId::parse).expect("id"))
        .collect()
}

#[test]
fn golden_wire_vectors() {
    let mut svc = service(PopulationConfig::small(), 2016);
    let at = SimTime::from_secs(600);
    let mut n = 0;
    let map = ApiRequest::MapGeoBroadcastFeed {
        rect: GeoRect::new(-10.0, -20.5, 61.25, 180.0),
        include_replay: false,
    };
    let (map_req, map_resp) = exchange(&mut svc, &mut n, &map, at);
    let ids = ids_of(&map_resp);
    assert!(ids.len() >= 8, "the vector needs a few broadcasts, got {}", ids.len());
    // Five live ids, then one the service does not know (silently skipped).
    let mut asked: Vec<BroadcastId> = ids[..5].to_vec();
    asked.push(BroadcastId(0xdead_beef));
    let (get_req, get_resp) =
        exchange(&mut svc, &mut n, &ApiRequest::GetBroadcasts { ids: asked }, at);
    let meta = ApiRequest::PlaybackMeta {
        broadcast_id: ids[0],
        n_stalls: 3,
        avg_stall_time_s: Some(3.5),
        playback_latency_s: Some(2.25),
    };
    let (meta_req, meta_resp) = exchange(&mut svc, &mut n, &meta, at);
    assert_eq!(meta_resp, "{}");
    let meta_hls = ApiRequest::PlaybackMeta {
        broadcast_id: ids[1],
        n_stalls: 0,
        avg_stall_time_s: None,
        playback_latency_s: None,
    };
    let (meta_hls_req, _) = exchange(&mut svc, &mut n, &meta_hls, at);
    // accessVideo for the most and the least watched of the ids: an HLS
    // and an RTMP answer on this world.
    let viewers = |svc: &PeriscopeService, id: BroadcastId| {
        svc.population.by_id(id).expect("listed id exists").viewers_at(at)
    };
    let most = *ids.iter().max_by_key(|id| viewers(&svc, **id)).expect("ids");
    let least = *ids.iter().min_by_key(|id| viewers(&svc, **id)).expect("ids");
    let (access_req, access_most) =
        exchange(&mut svc, &mut n, &ApiRequest::AccessVideo { broadcast_id: most }, at);
    let (_, access_least) =
        exchange(&mut svc, &mut n, &ApiRequest::AccessVideo { broadcast_id: least }, at);

    let vectors = [
        ("req_map_feed.json", map_req, include_str!("vectors/req_map_feed.json")),
        ("req_get_broadcasts.json", get_req, include_str!("vectors/req_get_broadcasts.json")),
        ("req_playback_meta.json", meta_req, include_str!("vectors/req_playback_meta.json")),
        (
            "req_playback_meta_hls.json",
            meta_hls_req,
            include_str!("vectors/req_playback_meta_hls.json"),
        ),
        ("req_access_video.json", access_req, include_str!("vectors/req_access_video.json")),
        ("resp_map_feed.json", map_resp, include_str!("vectors/resp_map_feed.json")),
        ("resp_get_broadcasts.json", get_resp, include_str!("vectors/resp_get_broadcasts.json")),
        ("resp_access_most.json", access_most, include_str!("vectors/resp_access_most.json")),
        ("resp_access_least.json", access_least, include_str!("vectors/resp_access_least.json")),
    ];
    for (name, actual, golden) in vectors {
        // Vector files end with a newline; bodies do not.
        assert_eq!(actual, golden.trim_end_matches('\n'), "{name}");
    }
}

/// Hashes the sorted `(id, first_seen, last_seen, viewer_samples,
/// viewer_sum)` of an observation store.
fn hash_observations(h: &mut Fnv, store: &periscope_repro::crawler::ObservationStore) {
    let mut rows: Vec<[u64; 5]> = store
        .all()
        .map(|o| {
            [
                o.id.0,
                o.first_seen.as_micros(),
                o.last_seen.as_micros(),
                u64::from(o.viewer_samples),
                o.viewer_sum,
            ]
        })
        .collect();
    rows.sort_unstable();
    h.u64(rows.len() as u64);
    for row in rows {
        row.into_iter().for_each(|v| h.u64(v));
    }
}

#[test]
fn crawl_bodies_and_observations_are_pinned() {
    let config = PopulationConfig::medium();
    let mut svc = service(config.clone(), 2016);
    let dconfig = DeepCrawlConfig::default();
    let deep = DeepCrawl::run(&mut svc, &dconfig, SimTime::from_secs(3600));
    let tconfig =
        TargetedCrawlConfig { duration: SimDuration::from_secs(1800), ..Default::default() };
    let areas = TargetedCrawl::select_areas(&deep, &tconfig);
    let tc = TargetedCrawl::run(&mut svc, &areas, &tconfig, deep.finished_at);
    assert_eq!((deep.rate_limited, tc.rate_limited), (0, 0), "the replay assumes no 429");

    let mut h = Fnv::new();
    hash_observations(&mut h, &deep.observations);
    hash_observations(&mut h, &tc.observations);
    h.u64(deep.discovered.len() as u64);
    h.u64(u64::from(tc.rounds));

    // Re-issue both crawls' request schedules against an identical service
    // (responses depend on the world and the instant only) and hash every
    // body. A user per request keeps the rate limiter out.
    let mut replay = service(config, 2016);
    let mut n = 0;
    let mut round_trip = |replay: &mut PeriscopeService, req: &ApiRequest, at: SimTime| {
        let (request, response) = exchange(replay, &mut n, req, at);
        h.bytes(request.as_bytes());
        h.bytes(response.as_bytes());
        response
    };
    let mut seen = std::collections::HashSet::new();
    let mut bodies = 0u64;
    for step in &deep.steps {
        let req = ApiRequest::MapGeoBroadcastFeed { rect: step.rect, include_replay: false };
        let ids = ids_of(&round_trip(&mut replay, &req, step.at));
        assert_eq!(ids.len(), step.returned);
        let new: Vec<BroadcastId> = ids.into_iter().filter(|id| seen.insert(*id)).collect();
        let mut now = step.at;
        for batch in new.chunks(100) {
            now += dconfig.pace;
            round_trip(&mut replay, &ApiRequest::GetBroadcasts { ids: batch.to_vec() }, now);
            bodies += 1;
        }
        bodies += 1;
    }
    assert_eq!(seen.len(), deep.discovered.len());
    // The targeted schedule: per round, account `a` walks areas a, a+4, …
    // with a map query then a detail query one pace apart.
    let longest = areas.len().div_ceil(tconfig.accounts);
    assert_eq!(tc.round_duration, tconfig.pace * (longest as u64 * 2));
    for round in 0..u64::from(tc.rounds) {
        let round_start = deep.finished_at + tc.round_duration * round;
        for a in 0..tconfig.accounts {
            let mut now = round_start;
            for rect in areas.iter().skip(a).step_by(tconfig.accounts) {
                now += tconfig.pace;
                let req = ApiRequest::MapGeoBroadcastFeed { rect: *rect, include_replay: false };
                let ids = ids_of(&round_trip(&mut replay, &req, now));
                now += tconfig.pace;
                for batch in ids.chunks(100) {
                    round_trip(
                        &mut replay,
                        &ApiRequest::GetBroadcasts { ids: batch.to_vec() },
                        now,
                    );
                    bodies += 1;
                }
                bodies += 1;
            }
        }
    }
    assert!(bodies > 4_000, "a 30-minute crawl is thousands of exchanges, got {bodies}");
    assert_eq!(h.0, CRAWL_PIN, "crawl pin moved: {:#018x} over {bodies} exchanges", h.0);
}
