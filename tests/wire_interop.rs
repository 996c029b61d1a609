//! Cross-crate wire interoperability: bytes produced by one layer's encoder
//! must be consumed by another layer's decoder, across crate boundaries,
//! exactly as they are on the simulated wire.

use periscope_repro::media::bitstream::{FrameKind, FramePayload};
use periscope_repro::media::flv::VideoTag;
use periscope_repro::media::ts::{demux_segment, TsMuxer, TsUnit};
use periscope_repro::proto::hls::MediaPlaylist;
use periscope_repro::proto::http::{Request, Response};
use periscope_repro::proto::json;
use periscope_repro::proto::rtmp::{Chunker, Dechunker, Message};
use periscope_repro::service::api::ApiRequest;
use periscope_repro::simnet::GeoRect;
use periscope_repro::workload::broadcast::BroadcastId;

fn frame(pts: u32, kind: FrameKind, size: usize) -> FramePayload {
    FramePayload {
        kind,
        qp: 31,
        width: 320,
        height: 568,
        pts_ms: pts,
        ntp_s: Some(pts as f64 / 1000.0),
        size,
    }
}

/// encoder payload → FLV tag → RTMP chunks → dechunk → tag → payload.
#[test]
fn rtmp_stack_roundtrip() {
    let mut chunker = Chunker::new();
    let mut wire = Vec::new();
    let mut originals = Vec::new();
    for i in 0..120u32 {
        let kind = if i % 36 == 0 { FrameKind::I } else { FrameKind::P };
        let f = frame(i * 33, kind, 200 + (i as usize * 37) % 800);
        let tag = VideoTag::for_frame(f.clone());
        chunker.write(&Message::video(i * 33, tag.encode()), &mut wire);
        originals.push(f);
    }
    let mut d = Dechunker::new();
    // Feed in MTU-sized chunks like the link does.
    for part in wire.chunks(1448) {
        d.feed(part).unwrap();
    }
    let recovered: Vec<FramePayload> =
        d.pop_all().into_iter().map(|m| VideoTag::decode(&m.payload).unwrap().frame).collect();
    assert_eq!(recovered, originals);
}

/// encoder payload → TS segment → HTTP response → parse → demux → payload.
#[test]
fn hls_stack_roundtrip() {
    let mut mux = TsMuxer::new();
    let units: Vec<TsUnit> = (0..90u32)
        .map(|i| {
            let kind = if i % 36 == 0 { FrameKind::I } else { FrameKind::B };
            TsUnit::Video { pts_ms: i * 33, data: frame(i * 33, kind, 300).encode() }
        })
        .collect();
    let segment = mux.mux_segment(&units);
    let resp = Response::ok_bytes("video/mp2t", segment);
    let wire = resp.encode();
    let parsed = Response::decode(&wire).unwrap();
    let recovered = demux_segment(&parsed.body).unwrap();
    assert_eq!(recovered, units);
}

/// API request → HTTP → JSON body → parse → typed request, across
/// proto/service boundaries.
#[test]
fn api_stack_roundtrip() {
    let req = ApiRequest::MapGeoBroadcastFeed {
        rect: GeoRect::new(40.0, 28.0, 42.0, 30.0),
        include_replay: false,
    };
    let http = req.to_http("session-token");
    // The mitmproxy view: raw bytes on the wire.
    let wire = http.encode();
    let reparsed = Request::decode(&wire).unwrap();
    let body = json::parse(std::str::from_utf8(&reparsed.body).unwrap()).unwrap();
    assert_eq!(body.get("include_replay").unwrap().as_bool(), Some(false));
    assert_eq!(ApiRequest::from_http(&reparsed).unwrap(), req);
}

/// getBroadcasts ids survive the 13-char string form end to end.
#[test]
fn broadcast_ids_roundtrip_through_api() {
    let ids: Vec<BroadcastId> = (1..50).map(|i| BroadcastId(i * 7919)).collect();
    let req = ApiRequest::GetBroadcasts { ids: ids.clone() };
    let http = req.to_http("t");
    match ApiRequest::from_http(&Request::decode(&http.encode()).unwrap()).unwrap() {
        ApiRequest::GetBroadcasts { ids: got } => assert_eq!(got, ids),
        other => panic!("wrong request {other:?}"),
    }
}

/// A playlist rendered by the segmenter parses with the proto parser and
/// references fetchable URIs.
#[test]
fn playlist_roundtrip() {
    use periscope_repro::media::content::{ContentClass, ContentProcess};
    use periscope_repro::media::encoder::{Encoder, EncoderConfig};
    use periscope_repro::service::segmenter::{Segmenter, SegmenterConfig};
    use periscope_repro::simnet::{RngFactory, SimTime};
    let mut rng = RngFactory::new(5).stream("interop");
    let content = ContentProcess::new(ContentClass::Indoor, &mut rng);
    let mut enc =
        Encoder::new(EncoderConfig { frame_drop_prob: 0.0, ..Default::default() }, content);
    let mut seg = Segmenter::new(SegmenterConfig::default());
    for i in 0..600 {
        let t = SimTime::from_micros(i as u64 * 33_333);
        if let Some(f) = enc.next_frame(t.as_secs_f64(), &mut rng) {
            seg.push_frame(&f, t);
        }
    }
    let now = SimTime::from_secs(30);
    let playlist_text = seg.playlist_at(now).render();
    let parsed = MediaPlaylist::parse(&playlist_text).unwrap();
    assert!(!parsed.segments.is_empty());
    for entry in &parsed.segments {
        let s = seg.segment_by_uri(&entry.uri, now).expect("advertised segment fetchable");
        // And the fetched segment demuxes.
        let mut bytes = Vec::new();
        s.write_into(&mut bytes);
        assert!(!demux_segment(&bytes).unwrap().is_empty());
    }
}
