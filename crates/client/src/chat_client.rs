//! Client-side chat traffic.
//!
//! §5.1: "the JSON encoded chat messages are received even when chat is
//! off, but when the chat is on, image downloads from Amazon S3 servers
//! appear in the traffic. The reason is that the app downloads profile
//! pictures of chatting users and displays them next to their messages ...
//! We also noticed that some pictures were downloaded multiple times, which
//! indicates that the app does not cache them." Both behaviours (and the
//! cache the app *should* have had) are modeled here. The session drivers
//! merge these events into the shared bottleneck link in time order, so
//! heavy chat genuinely crowds out video — the paper's explanation for the
//! 2 Mbps QoE boundary.

use crate::downlink::{Path, Tap, Wire};
use crate::session::{SessionConfig, SessionCtx};
use pscp_media::capture::{FlowKind, Payload};
use pscp_proto::http::Response;
use pscp_proto::ws::Frame;
use pscp_service::chat::{ChatConfig, ChatRoom};
use pscp_simnet::fault::in_windows;
use pscp_simnet::link::MTU_BYTES;
use pscp_simnet::rng::CounterRng;
use pscp_simnet::{Link, SimDuration, SimTime};
use pscp_workload::broadcast::Broadcast;

/// Gap an injected WebSocket chat drop leaves before the client's
/// reconnect completes (DESIGN.md §8).
const CHAT_RECONNECT_GAP: SimDuration = SimDuration::from_secs(6);

/// The byte a profile-picture body is filled with (a JPEG marker byte).
const PICTURE_FILL: u8 = 0xD8;

/// Wire bytes of one send as a run: a literal `head` (a WS frame, or an
/// HTTP status line + headers) followed by `pad` copies of `fill` — the
/// picture body, whose contents no analysis reads. Carried as a run from
/// here through the session's send arena into the capture, so the filler
/// is never written out.
#[derive(Debug, Clone)]
pub struct WireBytes {
    /// Literal leading bytes.
    pub head: Vec<u8>,
    /// The byte the run repeats.
    pub fill: u8,
    /// Run length.
    pub pad: usize,
}

impl WireBytes {
    fn literal(head: Vec<u8>) -> Self {
        WireBytes { head, fill: 0, pad: 0 }
    }

    /// On-wire length.
    pub fn len(&self) -> usize {
        self.head.len() + self.pad
    }

    /// Whether nothing goes on the wire.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes as a borrowed capture payload.
    pub fn payload(&self) -> Payload<'_> {
        Payload::run(&self.head, self.fill, self.pad)
    }
}

/// One chat-related downstream transmission.
#[derive(Debug, Clone)]
pub struct ChatSend {
    /// Server-side send instant.
    pub at: SimTime,
    /// Which flow it belongs to.
    pub kind: FlowKind,
    /// Wire bytes (WS frame or HTTP response).
    pub bytes: WireBytes,
}

/// Produces the chat-related sends of one session, in time order.
///
/// WS JSON messages always flow; picture downloads only when the chat pane
/// is on, deduplicated only if `picture_cache` is set.
pub fn events(
    broadcast: &Broadcast,
    from: SimTime,
    to: SimTime,
    config: &SessionConfig,
    rng: &mut CounterRng,
) -> Vec<ChatSend> {
    let mut room = ChatRoom::new(ChatConfig::default());
    let viewers = broadcast.viewers_at(from);
    let messages = room.messages_between(from, to, viewers, rng);
    let mut out = Vec::with_capacity(messages.len() * 2);
    let mut cached: std::collections::HashSet<String> = std::collections::HashSet::new();
    for msg in messages {
        let mut body = String::new();
        msg.write_json(&mut body);
        let frame = Frame::text(body);
        out.push(ChatSend {
            at: msg.at,
            kind: FlowKind::Chat,
            bytes: WireBytes::literal(frame.encode(None)),
        });
        if !config.chat_on {
            continue;
        }
        if let Some(pic) = &msg.picture {
            // The set exists for the cache ablation only: the app the paper
            // measured re-downloads every picture.
            if config.picture_cache && !cached.insert(pic.url.clone()) {
                continue;
            }
            let head = Response::ok_bytes("image/jpeg", Vec::new()).encode_head(pic.bytes);
            out.push(ChatSend {
                at: msg.at,
                kind: FlowKind::PictureHttp,
                bytes: WireBytes { head, fill: PICTURE_FILL, pad: pic.bytes },
            });
        }
    }
    // Hearts: tiny batched pushes on the same WebSocket (§3's emoticons).
    for heart in room.hearts_between(from, to, viewers, rng) {
        let mut body = String::new();
        heart.write_json(&mut body);
        debug_assert!(body.len() >= heart.wire_len().saturating_sub(4));
        let frame = Frame::text(body);
        out.push(ChatSend {
            at: heart.at,
            kind: FlowKind::Chat,
            bytes: WireBytes::literal(frame.encode(None)),
        });
    }
    // The merge in the session driver sorts by time; keep this list sorted
    // too for the dedicated-link path.
    out.sort_by_key(|e| e.at);
    out
}

/// The session's chat-drop windows under `unit` (DESIGN.md §8), counted.
pub(crate) fn drop_windows(ctx: &mut SessionCtx, unit: &str) -> Vec<(SimTime, SimTime)> {
    let (until, per_min) = (ctx.join_at + ctx.config.watch, ctx.config.faults.chat_drop_per_min);
    ctx.drop_windows(unit, until, per_min, CHAT_RECONNECT_GAP, ("chat_drops", "chat_reconnects"))
}

/// The capture flow a chat-related send of `kind` belongs to: the WebSocket
/// flow, the picture flow when the chat pane is on, or none.
pub(crate) fn flow_of(kind: FlowKind, chat: usize, pictures: Option<usize>) -> Option<usize> {
    match kind {
        FlowKind::Chat => Some(chat),
        FlowKind::PictureHttp => pictures,
        _ => None,
    }
}

/// For sessions whose chat travels on a dedicated link (the HLS fetch path
/// models its video transfer in closed form): plays `sends` — the session's
/// [`events`] — through `link` and records them at `tap`. Sends that fall
/// inside a chat-drop window (DESIGN.md §8) are lost with the dropped
/// WebSocket and never reach the wire.
pub(crate) fn play(
    sends: &[ChatSend],
    chat_on: bool,
    drop_windows: &[(SimTime, SimTime)],
    link: &mut Link,
    tap: &mut Tap,
    rng: &mut CounterRng,
) {
    if sends.is_empty() {
        return;
    }
    let ws_flow = tap.open_flow(FlowKind::Chat, "chatman.periscope.tv");
    let pic_flow = chat_on.then(|| tap.open_flow(FlowKind::PictureHttp, "s3.amazonaws.com"));
    for send in sends {
        if in_windows(drop_windows, send.at) {
            continue;
        }
        if let Some(flow) = flow_of(send.kind, ws_flow, pic_flow) {
            let WireBytes { head, fill, pad } = &send.bytes;
            let wire = Wire { literal: head.len(), fill: *fill, pad: *pad };
            let path = Path { link, faults: None, mtu: MTU_BYTES };
            tap.transmit(path, send.at, flow, wire, rng, |out| out.extend_from_slice(head));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::downlink::Recording;
    use crate::fixture;
    use pscp_media::capture::Capture;
    use pscp_simnet::{RngFactory, WallClock};

    fn broadcast(viewers: f64) -> Broadcast {
        Broadcast {
            avg_viewers: viewers,
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(3600),
            ..fixture::broadcast(5)
        }
    }

    fn session_config(chat_on: bool, cache: bool) -> SessionConfig {
        SessionConfig { chat_on, picture_cache: cache, ..Default::default() }
    }

    fn run(chat_on: bool, cache: bool, viewers: f64) -> Capture {
        let mut tap = Tap::new(Recording::Full, WallClock::perfect());
        let mut link = Link::unbounded(100e6, SimDuration::from_millis(10));
        let mut rng = RngFactory::new(2).stream("chat-client-test");
        let (from, to) = (SimTime::from_secs(10), SimTime::from_secs(70));
        let sends =
            events(&broadcast(viewers), from, to, &session_config(chat_on, cache), &mut rng);
        play(&sends, chat_on, &[], &mut link, &mut tap, &mut rng);
        tap.capture
    }

    #[test]
    fn chat_off_still_receives_json_but_no_pictures() {
        let cap = run(false, false, 80.0);
        assert!(cap.flow_of_kind(FlowKind::Chat).unwrap().byte_count() > 500);
        assert!(cap.flow_of_kind(FlowKind::PictureHttp).is_none());
    }

    #[test]
    fn chat_on_downloads_pictures() {
        let cap = run(true, false, 80.0);
        let pics = cap.flow_of_kind(FlowKind::PictureHttp).unwrap();
        assert!(pics.byte_count() > 20_000, "bytes={}", pics.byte_count());
        // Pictures dominate the chat JSON by an order of magnitude.
        assert!(pics.byte_count() > 10 * cap.flow_of_kind(FlowKind::Chat).unwrap().byte_count());
    }

    #[test]
    fn cache_cuts_picture_traffic() {
        let uncached = run(true, false, 120.0);
        let cached = run(true, true, 120.0);
        let bytes = |c: &Capture| {
            c.flow_of_kind(FlowKind::PictureHttp).map(|f| f.byte_count()).unwrap_or(0)
        };
        assert!(
            bytes(&cached) < bytes(&uncached),
            "cached={} uncached={}",
            bytes(&cached),
            bytes(&uncached)
        );
    }

    #[test]
    fn no_viewers_no_chat() {
        let cap = run(true, false, 0.0);
        assert!(cap.flows.is_empty());
    }

    #[test]
    fn events_are_time_ordered() {
        let mut rng = RngFactory::new(4).stream("chat-events");
        let sends = events(
            &broadcast(60.0),
            SimTime::from_secs(5),
            SimTime::from_secs(65),
            &session_config(true, false),
            &mut rng,
        );
        assert!(!sends.is_empty());
        for w in sends.windows(2) {
            assert!(w[1].at >= w[0].at);
        }
        assert!(sends.iter().any(|s| s.kind == FlowKind::PictureHttp));
    }

    #[test]
    fn ws_frames_decode() {
        let cap = run(false, false, 50.0);
        let flow = cap.flow_of_kind(FlowKind::Chat).unwrap();
        let stream = flow.byte_stream();
        assert_eq!(stream.len(), flow.byte_count());
        let mut pos = 0;
        let mut n = 0;
        while pos < stream.len() {
            let (frame, used) = Frame::decode(&stream[pos..]).unwrap();
            assert!(frame.as_text().unwrap().contains("\"kind\":\"chat\""));
            pos += used;
            n += 1;
        }
        assert!(n > 0);
    }

    #[test]
    fn on_wire_bytes_decode_as_the_written_out_messages() {
        let mut rng = RngFactory::new(4).stream("chat-events");
        let sends = events(
            &broadcast(60.0),
            SimTime::from_secs(5),
            SimTime::from_secs(65),
            &session_config(true, false),
            &mut rng,
        );
        let mut pictures = 0;
        for send in &sends {
            let wire = send.bytes.payload().bytes();
            assert_eq!(wire.len(), send.bytes.len());
            match send.kind {
                FlowKind::Chat => {
                    let (frame, used) = Frame::decode(&wire).unwrap();
                    assert_eq!(used, wire.len());
                    assert!(frame.as_text().unwrap().contains("\"kind\":"));
                }
                FlowKind::PictureHttp => {
                    let resp = Response::decode(&wire).unwrap();
                    assert_eq!(resp.status, 200);
                    assert_eq!(resp.get_header("content-type"), Some("image/jpeg"));
                    let n = resp.body.len();
                    assert_eq!(resp.get_header("content-length"), Some(n.to_string().as_str()));
                    assert!(n > 1000 && resp.body.iter().all(|&b| b == 0xD8));
                    // Byte for byte what encoding the whole response gives.
                    assert_eq!(*wire, Response::ok_bytes("image/jpeg", vec![0xD8; n]).encode());
                    pictures += 1;
                }
                other => panic!("unexpected flow kind {other:?}"),
            }
        }
        assert!(pictures > 0);
    }
}
