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
use pscp_media::capture::FlowKind;
use pscp_proto::filler::Sink;
use pscp_proto::{http, ws};
use pscp_service::chat::{ChatConfig, ChatRoom, Heart, MessageJson};
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

/// The headers of a profile-picture response, before its length.
const PICTURE_HEADERS: [(&str, &str); 1] = [("content-type", "image/jpeg")];

/// What one chat-related send puts on the wire, as a descriptor: it states
/// its exact on-wire length, and its bytes are written only into a capture
/// that is kept ([`ChatWire::write`]). A picture's body is a run of one
/// JPEG marker byte after its head, whose contents no analysis reads, and
/// is never written out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChatWire {
    /// A chat message: a WebSocket text frame around its JSON body.
    Message(MessageJson),
    /// A batch of hearts: a WebSocket text frame around its JSON.
    Hearts(Heart),
    /// A profile-picture download: an HTTP response head announcing a body
    /// of this many bytes, then the body.
    Picture(usize),
}

impl ChatWire {
    /// The send's shape: the bytes [`write`](ChatWire::write) produces,
    /// then the picture body as a run.
    pub(crate) fn wire(&self) -> Wire {
        let frame = |json: usize| Wire::written(ws::header_len(json, false) + json);
        match self {
            ChatWire::Message(message) => frame(message.json_len()),
            ChatWire::Hearts(hearts) => frame(hearts.json_len()),
            &ChatWire::Picture(bytes) => Wire {
                written: http::head_len(200, &PICTURE_HEADERS, bytes),
                fill: PICTURE_FILL,
                pad: bytes,
            },
        }
    }

    /// On-wire length.
    pub fn len(&self) -> usize {
        self.wire().len()
    }

    /// Whether nothing goes on the wire.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the send's literal bytes — a frame, or a response head —
    /// to `out`. A frame's JSON is written through `json`, a scratch the
    /// caller reuses.
    pub fn write(&self, json: &mut String, out: &mut Vec<u8>) {
        let start = out.len();
        json.clear();
        match self {
            ChatWire::Message(message) => message.write_json(json),
            ChatWire::Hearts(hearts) => hearts.write_json(json),
            &ChatWire::Picture(bytes) => http::write_head(200, &PICTURE_HEADERS, bytes, out),
        }
        if !json.is_empty() {
            ws::write_header(ws::Opcode::Text, json.len(), None, out);
            out.extend_from_slice(json.as_bytes());
        }
        debug_assert_eq!(out.len() - start, self.wire().written, "{self:?} wrote another length");
    }
}

/// One chat-related downstream transmission.
#[derive(Debug, Clone)]
pub struct ChatSend {
    /// Server-side send instant.
    pub at: SimTime,
    /// Which flow it belongs to.
    pub kind: FlowKind,
    /// What goes on the wire (WS frame or HTTP response).
    pub bytes: ChatWire,
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
    // Hearts: tiny batched pushes on the same WebSocket (§3's emoticons).
    let hearts = room.hearts_between(from, to, viewers, rng);
    let mut out = Vec::with_capacity(messages.len() * 2 + hearts.len());
    // The set exists for the cache ablation only: the app the paper
    // measured re-downloads every picture.
    let mut cached = std::collections::HashSet::new();
    for msg in messages {
        let (at, kind) = (msg.at, FlowKind::Chat);
        out.push(ChatSend { at, kind, bytes: ChatWire::Message(msg.json()) });
        let Some(pic) = msg.picture.filter(|_| config.chat_on) else {
            continue;
        };
        if config.picture_cache && !cached.insert(msg.user_id) {
            continue;
        }
        out.push(ChatSend { at, kind: FlowKind::PictureHttp, bytes: ChatWire::Picture(pic.bytes) });
    }
    out.extend(hearts.into_iter().map(|heart| ChatSend {
        at: heart.at,
        kind: FlowKind::Chat,
        bytes: ChatWire::Hearts(heart),
    }));
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
    let mut json = String::new();
    for send in sends {
        if in_windows(drop_windows, send.at) {
            continue;
        }
        if let Some(flow) = flow_of(send.kind, ws_flow, pic_flow) {
            let path = Path { link, faults: None, mtu: MTU_BYTES };
            let chat = &send.bytes;
            tap.transmit(path, send.at, flow, chat.wire(), rng, |out| {
                chat.write(&mut json, out.literal())
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::downlink::Recording;
    use crate::fixture;
    use pscp_media::capture::Capture;
    use pscp_proto::http::Response;
    use pscp_proto::ws::Frame;
    use pscp_service::chat::{ChatMessage, PictureRef};
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

    /// Everything `chat` puts on the wire: what it writes, then its run.
    fn on_wire(chat: &ChatWire) -> Vec<u8> {
        let mut out = vec![];
        chat.write(&mut String::new(), &mut out);
        let Wire { written, fill, pad } = chat.wire();
        assert_eq!(out.len(), written, "{chat:?}");
        out.resize(written + pad, fill);
        out
    }

    /// Every descriptor states the length it writes, at each width of the
    /// numbers it spells and of the WebSocket length field, and writes what
    /// the public encoders compose: a text frame around the message's or
    /// the hearts' JSON, a response head before the picture.
    #[test]
    fn every_descriptor_states_its_length_and_writes_what_the_encoders_compose() {
        let frame = |write_json: &dyn Fn(&mut String)| {
            let mut json = String::new();
            write_json(&mut json);
            Frame::text(json).encode(None)
        };
        let mut widths = std::collections::BTreeSet::new();
        for user_id in [1, 9, 10, 99, 100, u64::MAX] {
            for picture in [false, true] {
                let message = |text_len: usize| ChatMessage {
                    at: SimTime::ZERO,
                    user_id,
                    body_len: 90 + text_len,
                    picture: picture.then_some(PictureRef { bytes: 1 }),
                };
                // The envelope around the shortest text (four characters).
                let envelope = message(4).json().json_len() - 4;
                for payload in [125usize, 126, 127, 65_535, 65_536] {
                    let Some(text_len) = payload.checked_sub(envelope).filter(|&n| n >= 4) else {
                        // Only a 20-digit id with a picture has an envelope
                        // too long for these (140 bytes).
                        assert!(user_id == u64::MAX && picture && payload < 144, "{payload}");
                        continue;
                    };
                    let message = message(text_len);
                    let chat = ChatWire::Message(message.json());
                    let wire = on_wire(&chat);
                    assert_eq!(wire, frame(&|json| message.write_json(json)), "{chat:?}");
                    assert_eq!(wire.len(), chat.len());
                    widths.insert(ws::header_len(payload, false));
                }
            }
        }
        assert_eq!(widths.into_iter().collect::<Vec<_>>(), [2, 4, 10]);
        for count in [1, 9, 10, u32::MAX] {
            let hearts = Heart { at: SimTime::ZERO, count };
            let chat = ChatWire::Hearts(hearts);
            assert_eq!(on_wire(&chat), frame(&|json| hearts.write_json(json)), "{count}");
        }
        for bytes in [0, 9, 10, 1_000_000] {
            let chat = ChatWire::Picture(bytes);
            let head = Response::ok_bytes("image/jpeg", vec![]).encode_head(bytes);
            assert_eq!(chat.wire(), Wire { written: head.len(), fill: 0xD8, pad: bytes });
            assert_eq!(on_wire(&chat), [head, vec![0xD8; bytes]].concat());
        }
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
            let wire = on_wire(&send.bytes);
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
                    assert_eq!(wire, Response::ok_bytes("image/jpeg", vec![0xD8; n]).encode());
                    pictures += 1;
                }
                other => panic!("unexpected flow kind {other:?}"),
            }
        }
        assert!(pictures > 0);
    }
}
