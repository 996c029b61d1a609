//! The crawler's side of the API wire: issue one request, classify the
//! reply, decode the body.
//!
//! Both crawls make the same two calls (§4: `mapGeoBroadcastFeed` for the
//! ids in an area, `getBroadcasts` for their descriptions). What they do
//! about a reply that is not an answer differs — the deep crawl backs off
//! and retries, the targeted crawl's round budget has no room to — so that
//! policy stays with the callers; everything about bytes lives here. Bodies
//! are read with the pull reader: no `Value` tree is built, and a body that
//! is not valid JSON is a [`Refusal::BadResponse`], never a panic.

use crate::deep::crawler_location;
use pscp_proto::http::Response;
use pscp_proto::json::{root_members, Reader};
use pscp_proto::ProtoError;
use pscp_service::api::{ApiRequest, BroadcastDescription};
use pscp_service::PeriscopeService;
use pscp_simnet::{GeoRect, SimTime};
use pscp_workload::broadcast::BroadcastId;

/// Why an exchange produced no answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// HTTP 429: the account is over the rate limit.
    RateLimited,
    /// HTTP 5xx (injected backend failure, DESIGN.md §8).
    ServerError,
    /// Any other status or a body that does not decode.
    BadResponse,
}

impl Refusal {
    /// Books the refusal on a crawl result: its `crawler` trace counter
    /// and, for the two the result carries as fields, the field.
    pub fn book(
        self,
        trace: &mut pscp_obs::Trace,
        rate_limited: &mut u32,
        bad_responses: &mut u32,
    ) {
        let counter = match self {
            Refusal::RateLimited => {
                *rate_limited += 1;
                "rate_limited"
            }
            Refusal::ServerError => "server_errors",
            Refusal::BadResponse => {
                *bad_responses += 1;
                "bad_responses"
            }
        };
        trace.count("crawler", counter, 1);
    }
}

/// The text of a 200 response, or why there is none.
fn answer(resp: &Response) -> Result<&str, Refusal> {
    match resp.status {
        200 => std::str::from_utf8(&resp.body).map_err(|_| Refusal::BadResponse),
        429 => Err(Refusal::RateLimited),
        500.. => Err(Refusal::ServerError),
        _ => Err(Refusal::BadResponse),
    }
}

/// One `mapGeoBroadcastFeed` for the live broadcasts in `rect`.
pub fn map_feed(
    service: &mut PeriscopeService,
    user: &str,
    rect: GeoRect,
    now: SimTime,
) -> Result<Vec<BroadcastId>, Refusal> {
    let req = ApiRequest::MapGeoBroadcastFeed { rect, include_replay: false }.to_http(user);
    let resp = service.handle_http(user, &req, now, &crawler_location());
    map_ids(answer(&resp)?).map_err(|_| Refusal::BadResponse)
}

/// One `getBroadcasts` for `ids` (at most 100, the API's batch size).
pub fn get_broadcasts(
    service: &mut PeriscopeService,
    user: &str,
    ids: &[BroadcastId],
    now: SimTime,
) -> Result<Vec<BroadcastDescription>, Refusal> {
    let req = ApiRequest::GetBroadcasts { ids: ids.to_vec() }.to_http(user);
    let resp = service.handle_http(user, &req, now, &crawler_location());
    descriptions(answer(&resp)?).map_err(|_| Refusal::BadResponse)
}

/// What `item` makes of each element of a response body's `broadcasts`
/// array. Other members are skipped; of a repeated one the last counts.
fn broadcasts<'a, T>(
    body: &'a str,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<Option<T>, ProtoError>,
) -> Result<Vec<T>, ProtoError> {
    let mut out = Vec::new();
    root_members(body, |key, r| {
        if key != "broadcasts" {
            return r.skip();
        }
        out.clear();
        r.elements(|r| {
            out.extend(item(r)?);
            Ok(())
        })
        .map(drop)
    })?;
    Ok(out)
}

/// The ids of a `mapGeoBroadcastFeed` response. Unknown members are
/// skipped and an item without a valid `id` is dropped.
pub fn map_ids(body: &str) -> Result<Vec<BroadcastId>, ProtoError> {
    broadcasts(body, |r| {
        let mut id = None;
        r.members(|key, r| {
            if key != "id" {
                return r.skip();
            }
            id = r.str()?.and_then(|s| BroadcastId::parse(&s));
            Ok(())
        })?;
        Ok(id)
    })
}

/// The descriptions of a `getBroadcasts` response. Unknown members are
/// skipped and an item missing a required member is dropped.
pub fn descriptions(body: &str) -> Result<Vec<BroadcastDescription>, ProtoError> {
    broadcasts(body, BroadcastDescription::read)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(status: u16, body: &[u8]) -> Response {
        Response { status, headers: Vec::new(), body: body.to_vec() }
    }

    #[test]
    fn replies_are_classified_by_status_then_body() {
        assert_eq!(answer(&reply(200, b"{}")), Ok("{}"));
        assert_eq!(answer(&reply(429, b"")), Err(Refusal::RateLimited));
        assert_eq!(answer(&reply(503, b"backend down")), Err(Refusal::ServerError));
        assert_eq!(answer(&reply(400, b"malformed input")), Err(Refusal::BadResponse));
        assert_eq!(answer(&reply(200, b"\xff\xfe")), Err(Refusal::BadResponse));
    }

    #[test]
    fn a_malformed_200_is_an_error_not_a_panic() {
        for body in ["", "backend down", "{\"broadcasts\":[{\"id\":", "{\"broadcasts\":[]} x"] {
            assert!(map_ids(body).is_err(), "{body}");
            assert!(descriptions(body).is_err(), "{body}");
        }
    }

    #[test]
    fn refusals_are_booked_on_counters_and_trace() {
        let mut trace = pscp_obs::Trace::new(true);
        let (mut rate_limited, mut bad) = (0, 0);
        for why in
            [Refusal::RateLimited, Refusal::BadResponse, Refusal::ServerError, Refusal::BadResponse]
        {
            why.book(&mut trace, &mut rate_limited, &mut bad);
        }
        assert_eq!((rate_limited, bad), (1, 2));
        let counted = |name| trace.metrics().counter("crawler", name);
        assert_eq!(counted("rate_limited"), 1);
        assert_eq!(counted("server_errors"), 1);
        assert_eq!(counted("bad_responses"), 2);
    }

    #[test]
    fn lists_skip_what_they_do_not_know_and_drop_what_is_incomplete() {
        let feed = r#"{"cursor":{"next":[1,2]},"broadcasts":[
            {"id":"aaaaaaaaaaaab","lat":1.5,"lng":2,"extra":{"deep":[true]}},
            {"lat":1.5},
            {"id":"too short"},
            7,
            {"id":"aaaaaaaaaaaac"}]}"#;
        assert_eq!(map_ids(feed), Ok(vec![BroadcastId(1), BroadcastId(2)]));
        // The one complete description of three; `live` defaults to false.
        let detail = r#"{"broadcasts":[
            {"id":"aaaaaaaaaaaab","start_s":5,"n_viewers":3,"lat":1.5,"lng":2,"city":"x",
             "available_for_replay":true},
            {"id":"aaaaaaaaaaaac","start_s":5,"n_viewers":"many","lat":1.5,"lng":2},
            {"id":"aaaaaaaaaaaad","start_s":5,"lat":1.5,"lng":2}]}"#;
        let got = descriptions(detail).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].id, got[0].n_viewers), (BroadcastId(1), 3));
        assert!(got[0].available_for_replay && !got[0].live);
        // Not an object, no array, and of two arrays the last.
        assert_eq!(map_ids("[1]"), Ok(vec![]));
        assert_eq!(map_ids(r#"{"broadcasts":{"id":"aaaaaaaaaaaab"}}"#), Ok(vec![]));
        let twice =
            r#"{"broadcasts":[{"id":"aaaaaaaaaaaab"}],"broadcasts":[{"id":"aaaaaaaaaaaac"}]}"#;
        assert_eq!(map_ids(twice), Ok(vec![BroadcastId(2)]));
    }
}
