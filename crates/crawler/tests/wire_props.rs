//! The crawl plane's wire decoders against hostile and near-valid bytes,
//! against the tree they replaced, and against the allocator.
//!
//! `handle_http` parses request bodies from outside the service and the
//! crawler parses whatever a 200 carries, so every decoder on that path —
//! the pull reader, `wire::map_ids`, `wire::descriptions`,
//! `ApiRequest::from_http` — must fail with an error, never a panic, and
//! must not allocate out of proportion to its input. This binary registers
//! the counting allocator (`pscp_obs::alloc_count`) to check the second
//! half, and to pin that a `getBroadcasts` round trip builds no tree.

use pscp_check::{check, ensure, ensure_eq, Gen};
use pscp_crawler::deep::crawler_location;
use pscp_crawler::wire;
use pscp_obs::alloc_count::{self, CountingAlloc};
use pscp_proto::http::Request;
use pscp_proto::json::{self, Reader, Value};
use pscp_service::api::{ApiRequest, BroadcastDescription};
use pscp_service::{PeriscopeService, ServiceConfig};
use pscp_simnet::{GeoRect, RngFactory, SimTime};
use pscp_workload::broadcast::BroadcastId;
use pscp_workload::population::{Population, PopulationConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const VERBS: [&str; 4] = ["mapGeoBroadcastFeed", "getBroadcasts", "playbackMeta", "accessVideo"];

fn service() -> PeriscopeService {
    let pop = Population::generate(PopulationConfig::small(), &RngFactory::new(2016));
    PeriscopeService::new(pop, ServiceConfig::default())
}

/// Real bodies to mutate: the four requests and the two list responses.
fn valid_bodies() -> Vec<Vec<u8>> {
    let mut svc = service();
    let at = SimTime::from_secs(600);
    let feed = ApiRequest::MapGeoBroadcastFeed { rect: GeoRect::WORLD, include_replay: false };
    let feed_http = feed.to_http("u");
    let feed_body = svc.handle_http("u", &feed_http, at, &crawler_location()).body;
    let ids = wire::map_ids(std::str::from_utf8(&feed_body).expect("UTF-8")).expect("decodes");
    assert!(ids.len() >= 8, "a small world lists a few broadcasts, got {}", ids.len());
    let get_http = ApiRequest::GetBroadcasts { ids: ids[..8].to_vec() }.to_http("u");
    let get_body = svc.handle_http("u", &get_http, at, &crawler_location()).body;
    let meta = ApiRequest::PlaybackMeta {
        broadcast_id: ids[0],
        n_stalls: 2,
        avg_stall_time_s: Some(3.5),
        playback_latency_s: Some(2.25),
    };
    let access = ApiRequest::AccessVideo { broadcast_id: ids[1] };
    vec![
        feed_http.body,
        get_http.body,
        meta.to_http("u").body,
        access.to_http("u").body,
        feed_body,
        get_body,
    ]
}

/// Arbitrary bytes, or a real body after a few byte-level edits.
fn arb_hostile(g: &mut Gen, valid: &[Vec<u8>]) -> Vec<u8> {
    const EDITS: &[u8] = b"\"\\,:{}[]u0-e. \xc3\xff\x00";
    if g.choice(4) == 0 {
        return g.bytes(0..=300);
    }
    let mut bytes = valid[g.choice(valid.len())].clone();
    for _ in 0..g.choice(4) {
        let at = g.choice(bytes.len().max(1)).min(bytes.len().saturating_sub(1));
        match g.choice(5) {
            _ if bytes.is_empty() => break,
            0 => drop(bytes.remove(at)),
            1 => bytes.insert(at, EDITS[g.choice(EDITS.len())]),
            2 => bytes[at] = EDITS[g.choice(EDITS.len())],
            3 => bytes.truncate(at),
            // Doubles a slice: repeated members, deeper nesting.
            _ => {
                let end = (at + g.choice(40)).min(bytes.len());
                let slice = bytes[at..end].to_vec();
                bytes.splice(at..at, slice);
            }
        }
    }
    bytes
}

#[test]
fn hostile_bodies_neither_panic_nor_balloon() {
    let valid = valid_bodies();
    check(
        "hostile_bodies_neither_panic_nor_balloon",
        |g: &mut Gen| arb_hostile(g, &valid),
        |bytes| {
            // Error messages are a few dozen bytes; a decoded list grows by
            // doubling. Anything per-byte beyond that is a leak.
            let budget = 8 * bytes.len() as u64 + 1024;
            let text = String::from_utf8_lossy(bytes);
            let (walk, _) = alloc_count::counted_bytes(|| {
                let mut reader = Reader::new(&text);
                reader.skip().and_then(|()| reader.end()).is_ok()
            });
            ensure!(walk <= budget, "reader walk requested {walk} bytes for {}", bytes.len());
            let (ids, _) = alloc_count::counted_bytes(|| wire::map_ids(&text).is_ok());
            ensure!(ids <= budget, "map_ids requested {ids} bytes for {}", bytes.len());
            let (descs, _) = alloc_count::counted_bytes(|| wire::descriptions(&text).is_ok());
            ensure!(descs <= budget, "descriptions requested {descs} bytes for {}", bytes.len());
            for verb in VERBS {
                let mut http = Request::post_json(format!("/api/v2/{verb}"), "");
                http.body = bytes.clone();
                let (req, _) = alloc_count::counted_bytes(|| ApiRequest::from_http(&http).is_ok());
                ensure!(req <= budget, "{verb} requested {req} bytes for {}", bytes.len());
            }
            Ok(())
        },
    );
}

/// Deep nesting, the input that used to abort the process: an error from
/// every decoder, at a cost that does not grow with the depth.
#[test]
fn deep_nesting_is_an_error_everywhere() {
    for open in ["[", "{\"broadcasts\":", "{\"broadcasts\":["] {
        let doc = open.repeat(200_000);
        let (bytes, ()) = alloc_count::counted_bytes(|| {
            assert!(json::parse(&doc).is_err());
            assert!(wire::map_ids(&doc).is_err());
            assert!(wire::descriptions(&doc).is_err());
            for verb in VERBS {
                let http = Request::post_json(format!("/api/v2/{verb}"), doc.as_str());
                assert!(ApiRequest::from_http(&http).is_err(), "{verb}");
            }
        });
        // `post_json` copies the body once per verb; nothing else scales.
        assert!(bytes < 5 * doc.len() as u64, "{bytes} bytes requested for {open}…");
    }
}

// --------------------------------------------- the tree path, as reference

/// `mapGeoBroadcastFeed` ids the way the crawler read them through the
/// `Value` tree before the pull reader.
fn map_ids_by_tree(v: &Value) -> Vec<BroadcastId> {
    v.get("broadcasts")
        .and_then(|b| b.as_array())
        .map(|list| {
            list.iter()
                .filter_map(|b| b.get("id").and_then(|i| i.as_str()))
                .filter_map(BroadcastId::parse)
                .collect()
        })
        .unwrap_or_default()
}

/// `BroadcastDescription::from_json` as it was.
fn description_by_tree(v: &Value) -> Option<BroadcastDescription> {
    let num = |k: &str| v.get(k).and_then(Value::as_f64);
    Some(BroadcastDescription {
        id: v.get("id").and_then(Value::as_str).and_then(BroadcastId::parse)?,
        start_s: num("start_s")?,
        n_viewers: num("n_viewers")? as u32,
        available_for_replay: v
            .get("available_for_replay")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        live: v.get("live").and_then(Value::as_bool).unwrap_or(false),
        lat: num("lat")?,
        lng: num("lng")?,
    })
}

fn descriptions_by_tree(v: &Value) -> Vec<BroadcastDescription> {
    v.get("broadcasts")
        .and_then(|b| b.as_array())
        .map(|list| list.iter().filter_map(description_by_tree).collect())
        .unwrap_or_default()
}

/// A response-shaped document with everything that can go wrong short of
/// bad syntax: members missing, repeated, mistyped, unknown, reordered.
fn arb_response(g: &mut Gen) -> String {
    fn scalar(g: &mut Gen) -> String {
        match g.choice(7) {
            0 => "null".to_string(),
            1 => g.bool().to_string(),
            2 => format!("{}", g.u32(0..500)),
            3 => format!("{}", g.f64(-180.0..180.0)),
            4 => format!("\"{}\"", BroadcastId(g.u64(..1 << 40)).as_string()),
            5 => "\"not an id\"".to_string(),
            _ => "[{\"id\":1},[]]".to_string(),
        }
    }
    fn item(g: &mut Gen) -> String {
        const KEYS: [&str; 9] = [
            "id",
            "start_s",
            "n_viewers",
            "available_for_replay",
            "live",
            "lat",
            "lng",
            "city",
            "extra",
        ];
        if g.choice(8) == 0 {
            return scalar(g);
        }
        let members: Vec<String> = g.vec(0..14, |g| {
            let key = KEYS[g.choice(KEYS.len())];
            let typed = match key {
                "id" => format!("\"{}\"", BroadcastId(g.u64(..1 << 40)).as_string()),
                "available_for_replay" | "live" => g.bool().to_string(),
                "city" | "extra" => "\"x\\\"y\"".to_string(),
                _ => format!("{}", g.f64(-90.0..4000.0)),
            };
            format!("\"{key}\": {}", if g.choice(6) == 0 { scalar(g) } else { typed })
        });
        format!("{{{}}}", members.join(" , "))
    }
    let members: Vec<String> = g.vec(0..4, |g| {
        let key = ["broadcasts", "broadcasts", "cursor"][g.choice(3)];
        let value =
            if g.choice(5) == 0 { scalar(g) } else { format!("[{}]", g.vec(0..6, item).join(",")) };
        format!("\"{key}\":{value}")
    });
    if g.choice(10) == 0 {
        return format!("[{}]", members.len());
    }
    format!(" {{{}}} ", members.join(","))
}

#[test]
fn decoders_agree_with_the_tree_path() {
    check("decoders_agree_with_the_tree_path", arb_response, |doc| {
        let tree = json::parse(doc).map_err(|e| format!("generator made bad JSON: {e:?}"))?;
        ensure_eq!(wire::map_ids(doc), Ok(map_ids_by_tree(&tree)));
        ensure_eq!(wire::descriptions(doc), Ok(descriptions_by_tree(&tree)));
        Ok(())
    });
}

// ------------------------------------------------------ the allocation pin

/// One `getBroadcasts` round trip — request built, parsed and answered by
/// the service, response decoded by the crawler — allocates a fixed number
/// of buffers plus the doubling of three lists (ids asked, ids parsed,
/// descriptions decoded). No tree: a `Value` per description would cost
/// nine allocations each, and even one per description would show as 90.
#[test]
fn get_broadcasts_round_trip_allocates_nothing_per_description() {
    let (d, _) = alloc_count::counted(|| std::hint::black_box(vec![0u8; 4096]).len());
    assert!(d >= 1, "counting allocator not registered");
    let pop = Population::generate(PopulationConfig::medium(), &RngFactory::new(2016));
    let mut svc = PeriscopeService::new(pop, ServiceConfig::default());
    let at = SimTime::from_secs(3600);
    let ids: Vec<BroadcastId> = svc.population.live_at(at).iter().map(|b| b.id).take(100).collect();
    assert_eq!(ids.len(), 100);
    let mut allocs_for = |n: usize, user: &str| {
        // The account's first request inserts it into the rate limiter.
        wire::get_broadcasts(&mut svc, user, &ids[..1], at).expect("answered");
        let (allocs, got) =
            alloc_count::counted(|| wire::get_broadcasts(&mut svc, user, &ids[..n], at));
        assert_eq!(got.expect("answered").len(), n);
        allocs
    };
    let (ten, hundred) = (allocs_for(10, "pin-10"), allocs_for(100, "pin-100"));
    assert!(hundred < 48, "a round trip of 100 made {hundred} allocations");
    assert!(hundred <= ten + 12, "allocations grew with the ids: {ten} for 10, {hundred} for 100");
}
