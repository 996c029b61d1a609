//! Property-based tests for service-side invariants, on the in-tree
//! `pscp-check` harness.

use pscp_check::{check, ensure, Gen};
use pscp_service::chat::{ChatConfig, ChatRoom};
use pscp_service::directory::{RateLimiter, VisibilityConfig};
use pscp_service::ingest::assign_server;
use pscp_simnet::{GeoPoint, GeoRect, SimDuration, SimTime};

/// Visibility caps grow (weakly) as the queried area shrinks.
#[test]
fn visibility_cap_monotone_in_zoom() {
    check(
        "visibility_cap_monotone_in_zoom",
        |g: &mut Gen| {
            (g.f64(-80.0..60.0), g.f64(-170.0..150.0), g.f64(0.5..30.0), g.f64(0.5..30.0))
        },
        |(south, west, dlat, dlon)| {
            let cfg = VisibilityConfig::default();
            let rect = GeoRect::new(*south, *west, south + dlat, west + dlon);
            let [q, ..] = rect.quadrants();
            ensure!(cfg.cap_for(&q) >= cfg.cap_for(&rect), "zoom-in lowered the cap");
            ensure!(cfg.cap_for(&rect) >= cfg.cap_for(&GeoRect::WORLD), "world cap too high");
            ensure!(cfg.cap_for(&q) <= cfg.max_cap, "cap above max_cap");
            Ok(())
        },
    );
}

/// The rate limiter never admits more than burst + rate×time requests,
/// for any request pattern.
#[test]
fn rate_limiter_admission_bound() {
    check(
        "rate_limiter_admission_bound",
        |g: &mut Gen| (g.vec(1..120, |g| g.u64(0..3000)), g.u32(1..10), g.u64(100..2000)),
        |(gaps_ms, burst, interval_ms)| {
            let mut rl = RateLimiter::new(*burst, SimDuration::from_millis(*interval_ms));
            let mut t = SimTime::from_secs(1);
            let mut admitted = 0u32;
            for gap in gaps_ms {
                t += SimDuration::from_millis(*gap);
                if rl.allow("u", t) {
                    admitted += 1;
                }
            }
            let elapsed_ms: u64 = gaps_ms.iter().sum();
            let bound = *burst as f64 + elapsed_ms as f64 / *interval_ms as f64;
            ensure!((admitted as f64) <= bound + 1.0, "admitted={admitted} bound={bound}");
            Ok(())
        },
    );
}

/// Ingest assignment always picks the nearest region.
#[test]
fn ingest_nearest_region() {
    check(
        "ingest_nearest_region",
        |g: &mut Gen| (g.f64(-60.0..70.0), g.f64(-179.0..179.0), g.u64(..)),
        |(lat, lon, id)| {
            let p = GeoPoint::new(*lat, *lon);
            let chosen = assign_server(&p, *id);
            let chosen_d = p.distance_km(&chosen.location());
            for r in pscp_service::ingest::REGIONS {
                let d = p.distance_km(&GeoPoint::new(r.lat, r.lon));
                ensure!(
                    chosen_d <= d + 1e-6,
                    "{} at {chosen_d} beaten by {} at {d}",
                    chosen.region,
                    r.name
                );
            }
            // Index stays within the region's fleet.
            let region = pscp_service::ingest::REGIONS
                .iter()
                .find(|r| r.name == chosen.region)
                .ok_or_else(|| format!("unknown region {}", chosen.region))?;
            ensure!(chosen.index < region.servers, "server index outside fleet");
            Ok(())
        },
    );
}

/// Chat rooms: message counts respect the fullness cap for any viewer
/// count, and all messages stay in-window.
#[test]
fn chat_room_caps_and_windows() {
    check(
        "chat_room_caps_and_windows",
        |g: &mut Gen| (g.u32(0..20_000), g.u64(0..1000), g.u64(1..300), g.u64(..)),
        |(viewers, from_s, span_s, seed)| {
            let mut room = ChatRoom::new(ChatConfig::default());
            let mut rng = pscp_simnet::RngFactory::new(*seed).stream("chat-prop");
            let from = SimTime::from_secs(*from_s);
            let to = from + SimDuration::from_secs(*span_s);
            let msgs = room.messages_between(from, to, *viewers, &mut rng);
            for m in &msgs {
                ensure!(m.at >= from && m.at < to, "message outside window");
            }
            // Expected rate bound: capped chatters × rate × span, with slack.
            let cap = ChatConfig::default().full_at.min(*viewers) as f64
                * ChatConfig::default().per_user_msg_rate
                * *span_s as f64;
            ensure!((msgs.len() as f64) < cap * 3.0 + 20.0, "n={} cap={cap}", msgs.len());
            Ok(())
        },
    );
}

/// Every body the API puts on the wire — the four requests and their
/// responses — is already in the form a `Value` tree would re-emit:
/// ascending keys, the one number format. The writer that produces them is
/// the same one `to_json` walks, so nothing but this keeps a hand-ordered
/// `key()` sequence honest in release builds.
#[test]
fn api_bodies_are_canonical() {
    use pscp_proto::json::parse;
    use pscp_service::api::ApiRequest;
    use pscp_service::{PeriscopeService, ServiceConfig};
    use pscp_simnet::RngFactory;
    use pscp_workload::broadcast::BroadcastId;
    use pscp_workload::population::{Population, PopulationConfig};
    use std::cell::RefCell;

    let pop = Population::generate(PopulationConfig::small(), &RngFactory::new(2016));
    let svc = RefCell::new(PeriscopeService::new(pop, ServiceConfig::default()));
    let canonical = |what: &str, body: &[u8]| {
        let text = std::str::from_utf8(body).map_err(|e| format!("{what}: {e}"))?;
        let tree = parse(text).map_err(|e| format!("{what} does not parse: {e:?}"))?;
        ensure!(tree.to_json() == text, "{what} is not canonical: {text}");
        Ok(())
    };
    let calls = std::cell::Cell::new(0u64);
    check(
        "api_bodies_are_canonical",
        |g: &mut Gen| {
            let south = g.f64(-80.0..60.0);
            let west = g.f64(-170.0..150.0);
            let rect =
                GeoRect::new(south, west, south + g.f64(0.5..90.0), west + g.f64(0.5..180.0));
            (rect, g.u64(30..1170), g.usize(0..40), g.bool(), g.f64(0.0..30.0), g.u32(0..9))
        },
        |(rect, at_s, take, some, secs, n_stalls)| {
            let mut svc = svc.borrow_mut();
            let at = SimTime::from_secs(*at_s);
            let here = GeoPoint::new(60.19, 24.83);
            let mut exchange = |req: ApiRequest| -> Result<Vec<u8>, String> {
                calls.set(calls.get() + 1);
                let user = format!("prop-{}", calls.get());
                let http = req.to_http(&user);
                canonical(&format!("{} request", req.name()), &http.body)?;
                ensure!(ApiRequest::from_http(&http).as_ref() == Ok(&req), "request round trip");
                let resp = svc.handle_http(&user, &http, at, &here);
                if resp.status == 200 {
                    canonical(&format!("{} response", req.name()), &resp.body)?;
                }
                Ok(resp.body)
            };
            let feed =
                exchange(ApiRequest::MapGeoBroadcastFeed { rect: *rect, include_replay: *some })?;
            let tree = parse(std::str::from_utf8(&feed).expect("checked")).expect("checked");
            let mut ids: Vec<BroadcastId> = tree
                .get("broadcasts")
                .and_then(|b| b.as_array())
                .ok_or("no broadcasts array")?
                .iter()
                .filter_map(|b| b.get("id")?.as_str().and_then(BroadcastId::parse))
                .take(*take)
                .collect();
            ids.push(BroadcastId(u64::from(*n_stalls)));
            exchange(ApiRequest::GetBroadcasts { ids: ids.clone() })?;
            exchange(ApiRequest::AccessVideo { broadcast_id: ids[0] })?;
            exchange(ApiRequest::PlaybackMeta {
                broadcast_id: ids[0],
                n_stalls: *n_stalls,
                avg_stall_time_s: some.then_some(*secs),
                playback_latency_s: some.then_some(secs / 3.0),
            })?;
            Ok(())
        },
    );
}

/// A broadcast's static members are written once and spliced into every
/// later map item and description. For arbitrary broadcasts — 64-bit ids,
/// negative and integral coordinates, integral and fractional starts,
/// every city, both replay flags, hidden and private ones — queried
/// before, during and after their life, both list bodies equal the
/// member-by-member render kept here as the reference, a repeated request
/// returns the same bytes, and the store holds at most 160 B per rendered
/// broadcast plus 4 B per population entry.
#[test]
fn spliced_renders_equal_the_member_by_member_render() {
    use pscp_media::audio::AudioBitrate;
    use pscp_media::content::ContentClass;
    use pscp_proto::json::Writer;
    use pscp_service::api::ApiRequest;
    use pscp_service::{PeriscopeService, ServiceConfig};
    use pscp_workload::broadcast::{Broadcast, BroadcastId, DeviceProfile};
    use pscp_workload::cities::CITIES;
    use pscp_workload::population::{Population, PopulationConfig};

    const WINDOW_S: u64 = 4 * 3600;
    let coordinate = |g: &mut Gen, bound: i64| {
        let bound = bound - 1;
        match g.choice(3) {
            0 => g.i64(-bound..=bound) as f64,
            1 => -g.f64(0.0..bound as f64),
            _ => g.f64(-(bound as f64)..bound as f64),
        }
    };
    let broadcast = |g: &mut Gen| Broadcast {
        id: BroadcastId(g.u64(..)),
        location: GeoPoint::new(coordinate(g, 90), coordinate(g, 180)),
        city: CITIES[g.choice(CITIES.len())].name,
        start: if g.bool() {
            SimTime::from_secs(g.u64(0..WINDOW_S / 2))
        } else {
            SimTime::from_micros(g.u64(0..WINDOW_S / 2 * 1_000_000))
        },
        duration: SimDuration::from_micros(g.u64(1_000_000..3600 * 1_000_000)),
        content: ContentClass::Indoor,
        device: DeviceProfile::Modern,
        audio: AudioBitrate::Kbps32,
        avg_viewers: if g.choice(4) == 0 { 0.0 } else { g.f64(0.5..2000.0) },
        replay_available: g.bool(),
        private: g.choice(8) == 0,
        location_public: g.choice(8) != 0,
        viewer_seed: g.u64(..),
        target_bitrate_bps: 300_000.0,
    };
    check(
        "spliced_renders_equal_the_member_by_member_render",
        |g: &mut Gen| {
            let broadcasts = g.vec(1..12, broadcast);
            let instants =
                g.vec(1..6, |g| (g.choice(broadcasts.len()), g.choice(3), g.f64(0.0..1.0)));
            (broadcasts, instants)
        },
        |(broadcasts, instants)| {
            let mut ids: Vec<u64> = broadcasts.iter().map(|b| b.id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            if ids.len() < broadcasts.len() {
                return Ok(());
            }
            let config =
                PopulationConfig { window: SimDuration::from_secs(WINDOW_S), ..Default::default() };
            let population = Population::from_broadcasts(config, broadcasts.clone());
            let mut svc = PeriscopeService::new(population, ServiceConfig::default());
            let here = GeoPoint::new(60.19, 24.83);
            let mut calls = 0;
            for &(k, phase, at) in instants {
                // Before, during or after broadcast `k`, inside the window.
                let b = &broadcasts[k];
                let (from, to) = match phase {
                    0 => (0, b.start.as_micros()),
                    1 => (b.start.as_micros(), b.end().as_micros()),
                    _ => (b.end().as_micros(), WINDOW_S * 1_000_000),
                };
                let now = SimTime::from_micros(from + ((to - from) as f64 * at) as u64);
                let population = &svc.population.broadcasts;
                let listed: Vec<&Broadcast> =
                    population.iter().filter(|b| b.discoverable_at(now)).collect();
                let unknown = BroadcastId(!ids[0]);
                let asked: Vec<BroadcastId> =
                    population.iter().map(|b| b.id).rev().chain([unknown]).collect();
                let known: Vec<&Broadcast> = population.iter().rev().collect();
                let expected = [
                    reference_list(&listed, |w, b| {
                        w.key("id").str(b.id.text().as_str());
                        w.key("lat").number(b.location.lat);
                        w.key("lng").number(b.location.lon);
                    }),
                    reference_list(&known, |w, b| {
                        w.key("available_for_replay").bool(b.replay_available);
                        w.key("city").str(b.city);
                        w.key("id").str(b.id.text().as_str());
                        w.key("lat").number(b.location.lat);
                        w.key("live").bool(b.is_live_at(now));
                        w.key("lng").number(b.location.lon);
                        w.key("n_viewers").int(b.viewers_at(now));
                        w.key("start_s").number(b.start.as_secs_f64());
                    }),
                ];
                let requests = [
                    ApiRequest::MapGeoBroadcastFeed { rect: GeoRect::WORLD, include_replay: false },
                    ApiRequest::GetBroadcasts { ids: asked },
                ];
                for (req, expected) in requests.iter().zip(&expected) {
                    for _ in 0..2 {
                        calls += 1;
                        let user = format!("splice-{calls}");
                        let resp = svc.handle_http(&user, &req.to_http(&user), now, &here);
                        ensure!(resp.status == 200, "{} answered {}", req.name(), resp.status);
                        let body = std::str::from_utf8(&resp.body).map_err(|e| e.to_string())?;
                        ensure!(body == expected, "{} at {now:?}:\n{body}\n{expected}", req.name());
                    }
                }
            }
            let (rendered, bytes) = svc.render_store();
            ensure!(rendered == broadcasts.len(), "{rendered} of {} rendered", broadcasts.len());
            let bound = 160 * rendered + 4 * broadcasts.len();
            ensure!(bytes <= bound, "the store holds {bytes} B for {rendered}, above {bound}");
            Ok(())
        },
    );

    /// `{"broadcasts":[…]}` with each object's members written by `item`.
    fn reference_list(
        broadcasts: &[&Broadcast],
        item: impl Fn(&mut Writer<'_>, &Broadcast),
    ) -> String {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.begin_object();
        w.key("broadcasts").begin_array();
        for b in broadcasts {
            w.begin_object();
            item(&mut w, b);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        out
    }
}
