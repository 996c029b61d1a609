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
