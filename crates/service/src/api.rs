//! The Periscope JSON API (paper §3, Table 1).
//!
//! "The application communicates with the servers by sending POST requests
//! containing JSON encoded attributes to the following address:
//! `https://api.periscope.tv/api/v2/apiRequest`." The three commands the
//! paper used are modeled with their full request/response shapes, plus
//! `accessVideo` (the command that returns stream endpoints, which the app
//! must issue to start playback).

use pscp_proto::http::Request;
use pscp_proto::json::{root_members, Reader, Writer};
use pscp_proto::ProtoError;
use pscp_simnet::GeoRect;
use pscp_simnet::SimTime;
use pscp_workload::broadcast::{Broadcast, BroadcastId};

/// API base path.
pub const API_BASE: &str = "/api/v2/";

/// A decoded API request.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiRequest {
    /// Map-area discovery: "Coordinates of a rectangle shaped geographical
    /// area" → "List of broadcasts located inside the area".
    MapGeoBroadcastFeed {
        /// Queried area.
        rect: GeoRect,
        /// When false, only live broadcasts are returned (the crawler "sets
        /// the include_replay attribute value to false").
        include_replay: bool,
    },
    /// Detail lookup: "List of 13-character broadcast IDs" → "Descriptions
    /// of broadcast IDs (incl. nb of viewers)".
    GetBroadcasts {
        /// Requested ids.
        ids: Vec<BroadcastId>,
    },
    /// End-of-session stats upload: "Playback statistics" → "nothing".
    PlaybackMeta {
        /// Watched broadcast.
        broadcast_id: BroadcastId,
        /// Number of stall events.
        n_stalls: u32,
        /// Mean stall duration in seconds (RTMP sessions only; the HLS
        /// player reports only the stall count — §2).
        avg_stall_time_s: Option<f64>,
        /// Playback latency estimate in seconds (RTMP only, like above).
        playback_latency_s: Option<f64>,
    },
    /// Stream endpoint resolution for a broadcast the user wants to watch.
    AccessVideo {
        /// Target broadcast.
        broadcast_id: BroadcastId,
    },
}

impl ApiRequest {
    /// The `apiRequest` name in the URL.
    pub fn name(&self) -> &'static str {
        match self {
            ApiRequest::MapGeoBroadcastFeed { .. } => "mapGeoBroadcastFeed",
            ApiRequest::GetBroadcasts { .. } => "getBroadcasts",
            ApiRequest::PlaybackMeta { .. } => "playbackMeta",
            ApiRequest::AccessVideo { .. } => "accessVideo",
        }
    }

    /// Encodes into an HTTP request with a session cookie header.
    pub fn to_http(&self, session_token: &str) -> Request {
        let ids = if let ApiRequest::GetBroadcasts { ids } = self { ids.len() } else { 0 };
        let mut body = String::with_capacity(96 + ids * 16);
        let mut w = Writer::new(&mut body);
        w.begin_object();
        match self {
            ApiRequest::MapGeoBroadcastFeed { rect, include_replay } => {
                w.key("include_replay").bool(*include_replay);
                w.key("p1_lat").number(rect.south);
                w.key("p1_lng").number(rect.west);
                w.key("p2_lat").number(rect.north);
                w.key("p2_lng").number(rect.east);
            }
            ApiRequest::GetBroadcasts { ids } => {
                w.key("broadcast_ids").begin_array();
                ids.iter().for_each(|id| w.str(id.text().as_str()));
                w.end_array();
            }
            ApiRequest::PlaybackMeta {
                broadcast_id,
                n_stalls,
                avg_stall_time_s,
                playback_latency_s,
            } => {
                if let Some(v) = avg_stall_time_s {
                    w.key("avg_stall_time_s").number(*v);
                }
                w.key("broadcast_id").str(broadcast_id.text().as_str());
                w.key("n_stalls").int(*n_stalls);
                if let Some(v) = playback_latency_s {
                    w.key("playback_latency_s").number(*v);
                }
            }
            ApiRequest::AccessVideo { broadcast_id } => {
                w.key("broadcast_id").str(broadcast_id.text().as_str());
            }
        }
        w.end_object();
        Request::post_json(format!("{API_BASE}{}", self.name()), body)
            .header("x-session", session_token)
    }

    /// Decodes from an HTTP request. One walk reads every member any verb
    /// knows: unknown members are skipped, of a repeated member the last
    /// counts, and the body is validated whole before a missing or mistyped
    /// member is reported.
    pub fn from_http(req: &Request) -> Result<ApiRequest, ProtoError> {
        let name = req
            .path
            .strip_prefix(API_BASE)
            .ok_or_else(|| ProtoError::Protocol(format!("bad API path {}", req.path)))?;
        let body = std::str::from_utf8(&req.body)
            .map_err(|_| ProtoError::Malformed("non-UTF-8 body".to_string()))?;
        let (mut p1_lat, mut p1_lng, mut p2_lat, mut p2_lng) = (None, None, None, None);
        let (mut n_stalls, mut avg_stall_time_s, mut playback_latency_s) = (None, None, None);
        let (mut include_replay, mut id, mut ids, mut bad_ids) = (None, None, None, false);
        root_members(body, |key, r| {
            match key {
                "p1_lat" => p1_lat = r.f64()?,
                "p1_lng" => p1_lng = r.f64()?,
                "p2_lat" => p2_lat = r.f64()?,
                "p2_lng" => p2_lng = r.f64()?,
                "include_replay" => include_replay = r.bool()?,
                "n_stalls" => n_stalls = r.f64()?,
                "avg_stall_time_s" => avg_stall_time_s = r.f64()?,
                "playback_latency_s" => playback_latency_s = r.f64()?,
                "broadcast_id" => id = read_id(r)?,
                "broadcast_ids" => {
                    let mut list = Vec::new();
                    bad_ids = false;
                    let array = r.elements(|r| {
                        match read_id(r)? {
                            Some(id) => list.push(id),
                            None => bad_ids = true,
                        }
                        Ok(())
                    })?;
                    ids = array.then_some(list);
                }
                _ => r.skip()?,
            }
            Ok(())
        })?;
        let need = |n: Option<f64>, key: &str| {
            n.ok_or_else(|| ProtoError::Malformed(format!("missing number '{key}'")))
        };
        let bad_id = || ProtoError::Malformed("bad broadcast id".to_string());
        match name {
            "mapGeoBroadcastFeed" => Ok(ApiRequest::MapGeoBroadcastFeed {
                rect: GeoRect::new(
                    need(p1_lat, "p1_lat")?,
                    need(p1_lng, "p1_lng")?,
                    need(p2_lat, "p2_lat")?,
                    need(p2_lng, "p2_lng")?,
                ),
                include_replay: include_replay.unwrap_or(true),
            }),
            "getBroadcasts" => match ids {
                None => Err(ProtoError::Malformed("missing broadcast_ids".to_string())),
                Some(_) if bad_ids => Err(bad_id()),
                Some(ids) => Ok(ApiRequest::GetBroadcasts { ids }),
            },
            "playbackMeta" => Ok(ApiRequest::PlaybackMeta {
                broadcast_id: id.ok_or_else(bad_id)?,
                n_stalls: need(n_stalls, "n_stalls")? as u32,
                avg_stall_time_s,
                playback_latency_s,
            }),
            "accessVideo" => Ok(ApiRequest::AccessVideo { broadcast_id: id.ok_or_else(bad_id)? }),
            other => Err(ProtoError::Protocol(format!("unknown apiRequest '{other}'"))),
        }
    }
}

/// The broadcast id at the cursor, if the value there is one.
fn read_id(r: &mut Reader<'_>) -> Result<Option<BroadcastId>, ProtoError> {
    Ok(r.str()?.and_then(|s| BroadcastId::parse(&s)))
}

/// The members of a broadcast's API render that never change for the
/// broadcast, as the text a [`Writer`] made of them. The service writes
/// them once per broadcast ([`StaticMembers::write`]) and splices them into
/// every later map item and description ([`Writer::splice`]), so a request
/// writes only `live` and `n_viewers` itself (DESIGN.md §15). Each field
/// holds whole members, in key order, without an object's braces.
#[derive(Debug, Clone, Copy)]
pub struct StaticMembers<'a> {
    /// `available_for_replay` and `city`.
    pub head: &'a str,
    /// `id` and `lat`.
    pub id_lat: &'a str,
    /// `lng`.
    pub lng: &'a str,
    /// `start_s`.
    pub start_s: &'a str,
}

impl<'a> StaticMembers<'a> {
    /// Appends the static members of `b` to `out` as four runs, back to
    /// back, and returns where each run ends, counted from where the first
    /// begins: the `ends` that [`cut`](StaticMembers::cut) takes.
    pub fn write(out: &mut String, b: &Broadcast) -> [usize; 4] {
        let start = out.len();
        // A run is written as an object, the writer's only frame for
        // members, then unwrapped: what is left is its members' text.
        let mut run = |members: &dyn Fn(&mut Writer<'_>)| {
            let open = out.len();
            let mut w = Writer::new(out);
            w.begin_object();
            members(&mut w);
            w.end_object();
            out.pop();
            out.remove(open);
            out.len() - start
        };
        [
            run(&|w| {
                w.key("available_for_replay").bool(b.replay_available);
                w.key("city").str(b.city);
            }),
            run(&|w| {
                w.key("id").str(b.id.text().as_str());
                w.key("lat").number(b.location.lat);
            }),
            run(&|w| w.key("lng").number(b.location.lon)),
            run(&|w| w.key("start_s").number(b.start.as_secs_f64())),
        ]
    }

    /// The four runs of `text`, which [`write`](StaticMembers::write) wrote
    /// and returned `ends` for.
    pub fn cut(text: &'a str, ends: [usize; 4]) -> Self {
        StaticMembers {
            head: &text[..ends[0]],
            id_lat: &text[ends[0]..ends[1]],
            lng: &text[ends[1]..ends[2]],
            start_s: &text[ends[2]..ends[3]],
        }
    }
}

/// Writes the members of a broadcast description, the JSON object
/// `getBroadcasts` returns per id, into an object the caller has opened:
/// `b`'s static members spliced from `s`, and its state at `now`.
pub fn write_description(w: &mut Writer<'_>, s: &StaticMembers<'_>, b: &Broadcast, now: SimTime) {
    w.splice(s.head);
    w.splice(s.id_lat);
    w.key("live").bool(b.is_live_at(now));
    w.splice(s.lng);
    w.key("n_viewers").int(b.viewers_at(now));
    w.splice(s.start_s);
}

/// Writes the members of a map item, the JSON object `mapGeoBroadcastFeed`
/// returns per broadcast, into an object the caller has opened.
pub fn write_map_item(w: &mut Writer<'_>, s: &StaticMembers<'_>) {
    w.splice(s.id_lat);
    w.splice(s.lng);
}

/// A parsed broadcast description (what the crawler stores per sighting).
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastDescription {
    /// Broadcast id.
    pub id: BroadcastId,
    /// Advertised start time, seconds.
    pub start_s: f64,
    /// Viewer count at response time.
    pub n_viewers: u32,
    /// Replay availability flag.
    pub available_for_replay: bool,
    /// Whether still live at response time.
    pub live: bool,
    /// Advertised latitude.
    pub lat: f64,
    /// Advertised longitude.
    pub lng: f64,
}

impl BroadcastDescription {
    /// Reads the description at the cursor. Unknown members are skipped;
    /// `None` if the value is not an object or lacks a valid `id`,
    /// `start_s`, `n_viewers`, `lat` or `lng`.
    pub fn read(r: &mut Reader<'_>) -> Result<Option<BroadcastDescription>, ProtoError> {
        let (mut id, mut start_s, mut n_viewers, mut lat, mut lng) = (None, None, None, None, None);
        let (mut available_for_replay, mut live) = (None, None);
        r.members(|key, r| {
            match key {
                "id" => id = read_id(r)?,
                "start_s" => start_s = r.f64()?,
                "n_viewers" => n_viewers = r.f64()?,
                "available_for_replay" => available_for_replay = r.bool()?,
                "live" => live = r.bool()?,
                "lat" => lat = r.f64()?,
                "lng" => lng = r.f64()?,
                _ => r.skip()?,
            }
            Ok(())
        })?;
        let complete = || {
            Some(BroadcastDescription {
                id: id?,
                start_s: start_s?,
                n_viewers: n_viewers? as u32,
                available_for_replay: available_for_replay.unwrap_or(false),
                live: live.unwrap_or(false),
                lat: lat?,
                lng: lng?,
            })
        };
        Ok(complete())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_feed_roundtrip() {
        let req = ApiRequest::MapGeoBroadcastFeed {
            rect: GeoRect::new(-10.0, -20.0, 10.0, 20.0),
            include_replay: false,
        };
        let http = req.to_http("tok");
        assert_eq!(http.path, "/api/v2/mapGeoBroadcastFeed");
        assert_eq!(http.get_header("x-session"), Some("tok"));
        assert_eq!(ApiRequest::from_http(&http).unwrap(), req);
    }

    #[test]
    fn get_broadcasts_roundtrip() {
        let req = ApiRequest::GetBroadcasts { ids: vec![BroadcastId(1), BroadcastId(999_999)] };
        let http = req.to_http("tok");
        assert_eq!(ApiRequest::from_http(&http).unwrap(), req);
    }

    #[test]
    fn playback_meta_roundtrip_rtmp_fields() {
        let req = ApiRequest::PlaybackMeta {
            broadcast_id: BroadcastId(5),
            n_stalls: 2,
            avg_stall_time_s: Some(3.5),
            playback_latency_s: Some(2.25),
        };
        assert_eq!(ApiRequest::from_http(&req.to_http("t")).unwrap(), req);
    }

    #[test]
    fn playback_meta_hls_omits_details() {
        // §2: "after an HTTP Live Streaming (HLS) session, the app reports
        // only the number of stall events".
        let req = ApiRequest::PlaybackMeta {
            broadcast_id: BroadcastId(5),
            n_stalls: 1,
            avg_stall_time_s: None,
            playback_latency_s: None,
        };
        let http = req.to_http("t");
        assert!(!String::from_utf8_lossy(&http.body).contains("avg_stall_time_s"));
        assert_eq!(ApiRequest::from_http(&http).unwrap(), req);
    }

    #[test]
    fn access_video_roundtrip() {
        let req = ApiRequest::AccessVideo { broadcast_id: BroadcastId(77) };
        assert_eq!(ApiRequest::from_http(&req.to_http("t")).unwrap(), req);
    }

    #[test]
    fn unknown_api_request_rejected() {
        let http = Request::post_json("/api/v2/unknownThing", "{}");
        assert!(ApiRequest::from_http(&http).is_err());
    }

    #[test]
    fn bad_path_rejected() {
        let http = Request::post_json("/api/v1/getBroadcasts", "{}");
        assert!(ApiRequest::from_http(&http).is_err());
    }

    #[test]
    fn missing_fields_rejected() {
        let http = Request::post_json("/api/v2/mapGeoBroadcastFeed", r#"{"p1_lat":1}"#);
        assert!(ApiRequest::from_http(&http).is_err());
    }

    #[test]
    fn body_is_validated_whole_before_members_are_missed() {
        let err = |verb: &str, body: &str| {
            ApiRequest::from_http(&Request::post_json(format!("/api/v2/{verb}"), body))
                .expect_err(body)
                .to_string()
        };
        // Syntax first, on every verb including an unknown one …
        for verb in ["mapGeoBroadcastFeed", "getBroadcasts", "playbackMeta", "accessVideo", "x"] {
            assert_eq!(err(verb, r#"{"p1_lat":1} x"#), "malformed input: trailing data at byte 13");
            assert_eq!(err(verb, r#"{"broadcast_ids":["#), "truncated input");
        }
        // … then what the verb needs.
        assert_eq!(err("mapGeoBroadcastFeed", "[1]"), "malformed input: missing number 'p1_lat'");
        assert_eq!(
            err("mapGeoBroadcastFeed", r#"{"p1_lat":1,"p1_lng":"2"}"#),
            "malformed input: missing number 'p1_lng'"
        );
        assert_eq!(err("getBroadcasts", "{}"), "malformed input: missing broadcast_ids");
        assert_eq!(
            err("getBroadcasts", r#"{"broadcast_ids":"aaaaaaaaaaaab"}"#),
            "malformed input: missing broadcast_ids"
        );
        assert_eq!(
            err("getBroadcasts", r#"{"broadcast_ids":["aaaaaaaaaaaab",5]}"#),
            "malformed input: bad broadcast id"
        );
        assert_eq!(
            err("accessVideo", r#"{"broadcast_id":"short"}"#),
            "malformed input: bad broadcast id"
        );
        assert_eq!(
            err("playbackMeta", r#"{"broadcast_id":"aaaaaaaaaaaab"}"#),
            "malformed input: missing number 'n_stalls'"
        );
        assert_eq!(err("x", "{}"), "protocol violation: unknown apiRequest 'x'");
    }

    #[test]
    fn unknown_members_are_skipped_and_the_last_of_a_repeated_one_counts() {
        let http = Request::post_json(
            "/api/v2/getBroadcasts",
            r#"{"broadcast_ids":["bad"],"x":{"y":[1,{"z":null}]},"broadcast_ids":["aaaaaaaaaaaab"]}"#,
        );
        assert_eq!(
            ApiRequest::from_http(&http).unwrap(),
            ApiRequest::GetBroadcasts { ids: vec![BroadcastId(1)] }
        );
        let http = Request::post_json(
            "/api/v2/playbackMeta",
            r#"{"n_stalls":1,"broadcast_id":"aaaaaaaaaaaab","n_stalls":4.9,"avg_stall_time_s":null}"#,
        );
        assert_eq!(
            ApiRequest::from_http(&http).unwrap(),
            ApiRequest::PlaybackMeta {
                broadcast_id: BroadcastId(1),
                n_stalls: 4,
                avg_stall_time_s: None,
                playback_latency_s: None,
            }
        );
    }

    #[test]
    fn description_roundtrip() {
        use pscp_media::audio::AudioBitrate;
        use pscp_media::content::ContentClass;
        use pscp_simnet::{GeoPoint, SimDuration};
        use pscp_workload::broadcast::DeviceProfile;
        let b = Broadcast {
            id: BroadcastId(4242),
            location: GeoPoint::new(48.86, 2.35),
            city: "Paris",
            start: SimTime::from_secs(50),
            duration: SimDuration::from_secs(600),
            content: ContentClass::Indoor,
            device: DeviceProfile::Modern,
            audio: AudioBitrate::Kbps32,
            avg_viewers: 12.0,
            replay_available: true,
            private: false,
            location_public: true,
            viewer_seed: 3,
            target_bitrate_bps: 300_000.0,
        };
        let now = SimTime::from_secs(100);
        let mut store = String::new();
        let ends = StaticMembers::write(&mut store, &b);
        let mut text = String::new();
        let mut w = Writer::new(&mut text);
        w.begin_object();
        write_description(&mut w, &StaticMembers::cut(&store, ends), &b, now);
        w.end_object();
        let mut r = Reader::new(&text);
        let desc = BroadcastDescription::read(&mut r).unwrap().expect("complete description");
        r.end().unwrap();
        assert_eq!(desc.id, b.id);
        assert!(desc.live);
        assert!(desc.n_viewers > 0);
        assert!(desc.available_for_replay);
        assert_eq!(desc.start_s, 50.0);
    }
}
