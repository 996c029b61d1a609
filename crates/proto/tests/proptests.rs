//! Property-based tests for the wire protocols: every encoder/decoder pair
//! must round-trip arbitrary valid inputs, and decoders must never panic on
//! arbitrary bytes. Ported from proptest to the in-tree `pscp-check`
//! harness: generators are plain `Fn(&mut Gen) -> T` closures.

use pscp_check::{check, check_with, ensure, ensure_eq, Config, Gen};
use pscp_proto::amf::Amf0;
use pscp_proto::hls::{MediaPlaylist, SegmentEntry};
use pscp_proto::http::{Request, Response};
use pscp_proto::json::{parse, Value};
use pscp_proto::rtmp::{Chunker, Dechunker, Message, MessageType};
use pscp_proto::ws::{Frame, Opcode};
use std::collections::BTreeMap;

/// Characters exercised in JSON/HTTP string fields: identifiers, spacing,
/// punctuation that needs escaping, and multi-byte UTF-8.
const TEXT_CHARS: &[char] = &[
    'a',
    'b',
    'z',
    'A',
    'Z',
    '0',
    '9',
    ' ',
    '_',
    '-',
    '.',
    '"',
    '\\',
    '/',
    ':',
    ',',
    '{',
    '}',
    '[',
    ']',
    '<',
    '>',
    '\'',
    '\t',
    '\u{00e9}',
    '\u{4e2d}',
    '\u{1d11e}',
];

const KEY_CHARS: &[char] = &['a', 'b', 'c', 'k', 'q', 'x', 'y', 'z'];

// ------------------------------------------------------------------- JSON

/// Generates arbitrary JSON values up to a modest depth.
fn arb_json(g: &mut Gen, depth: u32) -> Value {
    let alts = if depth == 0 { 4 } else { 6 };
    match g.choice(alts) {
        0 => Value::Null,
        1 => Value::Bool(g.bool()),
        // Finite doubles; NaN/inf are not JSON.
        2 => Value::Number(g.f64(-1e12..1e12)),
        3 => Value::String(g.string(TEXT_CHARS, 0..=20)),
        4 => Value::Array(g.vec(0..6, |g| arb_json(g, depth - 1))),
        _ => {
            let entries: BTreeMap<String, Value> = g
                .vec(0..6, |g| (g.string(KEY_CHARS, 1..=8), arb_json(g, depth - 1)))
                .into_iter()
                .collect();
            Value::Object(entries)
        }
    }
}

#[test]
fn json_roundtrip() {
    check(
        "json_roundtrip",
        |g: &mut Gen| arb_json(g, 3),
        |v| {
            let text = v.to_json();
            let back = parse(&text).map_err(|e| format!("parse failed: {e:?}"))?;
            // Numbers may lose the integer/float distinction but not value.
            ensure_eq!(back.to_json(), text);
            Ok(())
        },
    );
}

#[test]
fn json_parser_never_panics() {
    check(
        "json_parser_never_panics",
        |g: &mut Gen| g.string(TEXT_CHARS, 0..=200),
        |s| {
            let _ = parse(s);
            Ok(())
        },
    );
}

#[test]
fn json_string_escaping_total() {
    check(
        "json_string_escaping_total",
        |g: &mut Gen| g.string(TEXT_CHARS, 0..=64),
        |s| {
            let v = Value::String(s.clone());
            let back = parse(&v.to_json()).map_err(|e| format!("parse failed: {e:?}"))?;
            ensure_eq!(back.as_str().unwrap_or("<not a string>"), s.as_str());
            Ok(())
        },
    );
}

/// A document that is valid JSON, or one edit away from it: a character
/// dropped, doubled or swapped for punctuation, or the tail cut off.
fn arb_near_json(g: &mut Gen) -> String {
    const EDITS: &[char] =
        &['"', '\\', ',', ':', '{', '}', '[', ']', 'u', '0', '-', ' ', 'e', '\u{e9}'];
    let mut chars: Vec<char> = arb_json(g, 3).to_json().chars().collect();
    for _ in 0..g.choice(3) {
        if chars.is_empty() {
            break;
        }
        let at = g.choice(chars.len());
        match g.choice(4) {
            0 => drop(chars.remove(at)),
            1 => chars.insert(at, chars[at]),
            2 => chars[at] = EDITS[g.choice(EDITS.len())],
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

/// Error kind without the message's byte offsets.
fn kind(r: &Result<(), pscp_proto::ProtoError>) -> String {
    match r {
        Ok(()) => "ok".to_string(),
        Err(pscp_proto::ProtoError::Truncated) => "truncated".to_string(),
        Err(e) => format!("{e}"),
    }
}

/// One tokenizer: a reader walk that builds nothing (`skip` at the root,
/// then `end`) accepts exactly the documents `parse` accepts and fails the
/// others with the same error.
#[test]
fn json_reader_walk_agrees_with_parse() {
    let agree = |s: &String| {
        let mut reader = pscp_proto::json::Reader::new(s);
        let walked = reader.skip().and_then(|()| reader.end());
        ensure_eq!(kind(&walked), kind(&parse(s).map(drop)));
        Ok(())
    };
    check("json_reader_walk_agrees_with_parse/near", arb_near_json, agree);
    check(
        "json_reader_walk_agrees_with_parse/arbitrary",
        |g: &mut Gen| g.string(TEXT_CHARS, 0..=200),
        agree,
    );
}

/// What `parse` accepts, the writer re-emits canonically: a second round
/// trip changes nothing (key order and number format are fixed points).
#[test]
fn json_reemission_is_a_fixed_point() {
    check("json_reemission_is_a_fixed_point", arb_near_json, |s| {
        // An edit can make `1e999`, which reads as infinity: not JSON on
        // the way back out.
        fn finite(v: &Value) -> bool {
            match v {
                Value::Number(n) => n.is_finite(),
                Value::Array(items) => items.iter().all(finite),
                Value::Object(map) => map.values().all(finite),
                _ => true,
            }
        }
        if let Some(v) = parse(s).ok().filter(finite) {
            let once = v.to_json();
            let twice = parse(&once).map_err(|e| format!("own output rejected: {e:?}"))?.to_json();
            ensure_eq!(once, twice);
        }
        Ok(())
    });
}

// ------------------------------------------------------------------- AMF0

const AMF_CHARS: &[char] = &['a', 'z', 'A', 'Z', '0', '9', ' '];

fn arb_amf(g: &mut Gen, depth: u32) -> Amf0 {
    let alts = if depth == 0 { 4 } else { 5 };
    match g.choice(alts) {
        0 => Amf0::Null,
        1 => Amf0::Boolean(g.bool()),
        2 => Amf0::Number(g.f64(-1e9..1e9)),
        3 => Amf0::String(g.string(AMF_CHARS, 0..=32)),
        _ => {
            let entries: BTreeMap<String, Amf0> = g
                .vec(0..5, |g| (g.string(KEY_CHARS, 1..=6), arb_amf(g, depth - 1)))
                .into_iter()
                .collect();
            Amf0::Object(entries)
        }
    }
}

#[test]
fn amf_roundtrip() {
    check(
        "amf_roundtrip",
        |g: &mut Gen| arb_amf(g, 2),
        |v| {
            let enc = v.encode();
            let (dec, used) = Amf0::decode(&enc).map_err(|e| format!("decode failed: {e:?}"))?;
            ensure_eq!(used, enc.len());
            ensure_eq!(&dec, v);
            Ok(())
        },
    );
}

#[test]
fn amf_decoder_never_panics() {
    check(
        "amf_decoder_never_panics",
        |g: &mut Gen| g.bytes(0..128),
        |bytes| {
            let _ = Amf0::decode(bytes);
            Ok(())
        },
    );
}

// ------------------------------------------------------------------- RTMP

fn arb_message(g: &mut Gen) -> Message {
    let kind = match g.choice(4) {
        0 => MessageType::Audio,
        1 => MessageType::Video,
        2 => MessageType::DataAmf0,
        _ => MessageType::CommandAmf0,
    };
    Message {
        chunk_stream_id: g.u8(2..=63),
        timestamp: g.u32(0..0x0200_0000),
        kind,
        stream_id: g.u32(0..4),
        payload: g.bytes(0..600),
    }
}

#[test]
fn rtmp_messages_roundtrip_any_order() {
    check_with(
        Config::with_cases(64),
        "rtmp_messages_roundtrip_any_order",
        |g: &mut Gen| g.vec(1..20, arb_message),
        |msgs| {
            // fmt1 headers require non-decreasing timestamps per chunk
            // stream; the encoder handles regressions by falling back to
            // fmt0, so no sorting is needed — any sequence must survive.
            let mut chunker = Chunker::new();
            let wire = chunker.encode_all(msgs);
            let mut d = Dechunker::new();
            // Feed in ragged 7-byte pieces.
            for part in wire.chunks(7) {
                d.feed(part).map_err(|e| format!("feed failed: {e:?}"))?;
            }
            ensure_eq!(&d.pop_all(), msgs);
            Ok(())
        },
    );
}

#[test]
fn rtmp_dechunker_never_panics() {
    check(
        "rtmp_dechunker_never_panics",
        |g: &mut Gen| g.bytes(0..600),
        |bytes| {
            let mut d = Dechunker::new();
            let _ = d.feed(bytes);
            Ok(())
        },
    );
}

// --------------------------------------------------------------------- WS

#[test]
fn ws_roundtrip() {
    check(
        "ws_roundtrip",
        |g: &mut Gen| {
            // Deliberate length buckets so the 16-bit and 64-bit extended
            // payload-length encodings both get exercised every run.
            let len = match g.choice(3) {
                0 => g.usize(0..=200),
                1 => g.usize(200..=2_000),
                _ => g.usize(60_000..70_000),
            };
            let payload = g.bytes(len..=len);
            let masked = g.bool();
            let key = [g.u8(..), g.u8(..), g.u8(..), g.u8(..)];
            (payload, masked, key)
        },
        |(payload, masked, key)| {
            let f = Frame { opcode: Opcode::Binary, payload: payload.clone() };
            let enc = f.encode(masked.then_some(*key));
            let (dec, used) = Frame::decode(&enc).map_err(|e| format!("decode failed: {e:?}"))?;
            ensure_eq!(used, enc.len());
            ensure_eq!(dec, f);
            Ok(())
        },
    );
}

#[test]
fn ws_decoder_never_panics() {
    check(
        "ws_decoder_never_panics",
        |g: &mut Gen| g.bytes(0..256),
        |bytes| {
            let _ = Frame::decode(bytes);
            Ok(())
        },
    );
}

// -------------------------------------------------------------------- HLS

#[test]
fn hls_playlist_roundtrip() {
    check(
        "hls_playlist_roundtrip",
        |g: &mut Gen| (g.u32(1..10), g.u64(0..1000), g.bool(), g.vec(0..12, |g| g.f64(0.5..9.5))),
        |(target, seq, ended, durations)| {
            let mut pl = MediaPlaylist::new(*target);
            pl.media_sequence = *seq;
            pl.ended = *ended;
            for (i, d) in durations.iter().enumerate() {
                // Round to the 3-decimal EXTINF precision the renderer emits.
                let d = (d * 1000.0).round() / 1000.0;
                pl.segments.push(SegmentEntry { duration_s: d, uri: format!("seg_{i}.ts") });
            }
            let parsed =
                MediaPlaylist::parse(&pl.render()).map_err(|e| format!("parse failed: {e:?}"))?;
            ensure_eq!(parsed, pl);
            Ok(())
        },
    );
}

// ------------------------------------------------------------------- HTTP

const PATH_CHARS: &[char] = &['a', 'k', 'z', '0', '9', '/'];
const HEADER_CHARS: &[char] = &['a', 'z', 'A', 'Z', '0', '9'];

#[test]
fn http_request_roundtrip() {
    check(
        "http_request_roundtrip",
        |g: &mut Gen| {
            (
                format!("/{}", g.string(PATH_CHARS, 0..=30)),
                g.bytes(0..500),
                g.string(HEADER_CHARS, 0..=16),
            )
        },
        |(path, body, header_val)| {
            let mut req = Request::get(path.clone());
            req.body = body.clone();
            let req = req.header("x-test", header_val);
            let dec = Request::decode(&req.encode()).map_err(|e| format!("decode: {e:?}"))?;
            ensure_eq!(dec.get_header("x-test").unwrap_or(""), header_val.as_str());
            ensure_eq!(&dec.path, &req.path);
            ensure_eq!(dec.body, req.body);
            Ok(())
        },
    );
}

#[test]
fn http_response_roundtrip() {
    check(
        "http_response_roundtrip",
        |g: &mut Gen| {
            let status = [200u16, 404, 429, 500][g.choice(4)];
            (status, g.bytes(0..500))
        },
        |(status, body)| {
            let resp = Response { status: *status, headers: vec![], body: body.clone() };
            let dec = Response::decode(&resp.encode()).map_err(|e| format!("decode: {e:?}"))?;
            ensure_eq!(dec.status, *status);
            ensure_eq!(dec.body, resp.body);
            Ok(())
        },
    );
}

#[test]
fn http_decoder_never_panics() {
    check(
        "http_decoder_never_panics",
        |g: &mut Gen| g.bytes(0..300),
        |bytes| {
            let _ = Request::decode(bytes);
            let _ = Response::decode(bytes);
            Ok(())
        },
    );
}

// ------------------------------------------- RTMP zero-copy ≡ reference
//
// The shipping chunker/dechunker (rtmp.rs) write into caller buffers and
// reassemble into a recycled arena. These tests pin them, byte for byte and
// message for message, to a retained copy of the original owned-Vec
// implementation — the straightforward one whose correctness is obvious —
// across arbitrary message mixes, chunk-size renegotiations and feed split
// points.

mod rtmp_reference {
    use pscp_proto::rtmp::{Message, MessageType, DEFAULT_CHUNK_SIZE};
    use pscp_proto::ProtoError;
    use std::collections::{HashMap, VecDeque};

    fn push_u24(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&[(v >> 16) as u8, (v >> 8) as u8, v as u8]);
    }

    fn read_u24(b: &[u8]) -> u32 {
        ((b[0] as u32) << 16) | ((b[1] as u32) << 8) | b[2] as u32
    }

    #[derive(Debug, Clone, Default)]
    struct CsState {
        timestamp: u32,
        length: usize,
        kind: Option<MessageType>,
        stream_id: u32,
    }

    /// The pre-zero-copy chunker: HashMap state, per-message emission.
    pub struct RefChunker {
        chunk_size: usize,
        state: HashMap<u8, CsState>,
    }

    impl RefChunker {
        pub fn new() -> Self {
            RefChunker { chunk_size: DEFAULT_CHUNK_SIZE, state: HashMap::new() }
        }

        pub fn write(&mut self, msg: &Message, out: &mut Vec<u8>) {
            assert!((2..=63).contains(&msg.chunk_stream_id));
            let cs = self.state.entry(msg.chunk_stream_id).or_default();
            let use_fmt1 =
                cs.kind.is_some() && cs.stream_id == msg.stream_id && msg.timestamp >= cs.timestamp;
            let ext_ts = msg.timestamp >= 0xFF_FFFF;
            if use_fmt1 {
                let delta = msg.timestamp - cs.timestamp;
                let ext = delta >= 0xFF_FFFF;
                out.push((1 << 6) | msg.chunk_stream_id);
                push_u24(out, if ext { 0xFF_FFFF } else { delta });
                push_u24(out, msg.payload.len() as u32);
                out.push(msg.kind.id());
                if ext {
                    out.extend_from_slice(&delta.to_be_bytes());
                }
            } else {
                out.push(msg.chunk_stream_id);
                push_u24(out, if ext_ts { 0xFF_FFFF } else { msg.timestamp });
                push_u24(out, msg.payload.len() as u32);
                out.push(msg.kind.id());
                out.extend_from_slice(&msg.stream_id.to_le_bytes());
                if ext_ts {
                    out.extend_from_slice(&msg.timestamp.to_be_bytes());
                }
            }
            cs.timestamp = msg.timestamp;
            cs.length = msg.payload.len();
            cs.kind = Some(msg.kind);
            cs.stream_id = msg.stream_id;
            let mut off = 0;
            let mut first = true;
            while off < msg.payload.len() || (first && msg.payload.is_empty()) {
                if !first {
                    out.push((3 << 6) | msg.chunk_stream_id);
                }
                let take = (msg.payload.len() - off).min(self.chunk_size);
                out.extend_from_slice(&msg.payload[off..off + take]);
                off += take;
                first = false;
            }
            if msg.kind == MessageType::SetChunkSize && msg.payload.len() >= 4 {
                let size =
                    u32::from_be_bytes(msg.payload[..4].try_into().expect("4 bytes")) as usize;
                self.chunk_size = size.max(1);
            }
        }
    }

    /// The pre-zero-copy dechunker: per-csid HashMaps, owned payload Vecs,
    /// front-drain consume.
    pub struct RefDechunker {
        chunk_size: usize,
        buf: Vec<u8>,
        state: HashMap<u8, CsState>,
        partial: HashMap<u8, Vec<u8>>,
        ready: VecDeque<Message>,
    }

    impl RefDechunker {
        pub fn new() -> Self {
            RefDechunker {
                chunk_size: DEFAULT_CHUNK_SIZE,
                buf: Vec::new(),
                state: HashMap::new(),
                partial: HashMap::new(),
                ready: VecDeque::new(),
            }
        }

        pub fn feed(&mut self, bytes: &[u8]) -> Result<(), ProtoError> {
            self.buf.extend_from_slice(bytes);
            while let Some(consumed) = self.try_parse_chunk()? {
                self.buf.drain(..consumed);
            }
            Ok(())
        }

        pub fn pop_all(&mut self) -> Vec<Message> {
            self.ready.drain(..).collect()
        }

        fn try_parse_chunk(&mut self) -> Result<Option<usize>, ProtoError> {
            let buf = &self.buf;
            if buf.is_empty() {
                return Ok(None);
            }
            let fmt = buf[0] >> 6;
            let csid = buf[0] & 0x3F;
            if csid < 2 {
                return Err(ProtoError::Malformed(
                    "extended chunk stream ids are not supported".to_string(),
                ));
            }
            let mut pos = 1;
            let need = |n: usize, pos: usize, buf: &[u8]| buf.len() >= pos + n;
            let prev = self.state.get(&csid).cloned().unwrap_or_default();
            let (ts, length, kind, stream_id, header_len) = match fmt {
                0 => {
                    if !need(11, pos, buf) {
                        return Ok(None);
                    }
                    let ts = read_u24(&buf[pos..]);
                    let length = read_u24(&buf[pos + 3..]) as usize;
                    let kind = MessageType::from_id(buf[pos + 6])?;
                    let stream_id =
                        u32::from_le_bytes(buf[pos + 7..pos + 11].try_into().expect("4 bytes"));
                    pos += 11;
                    let ts = if ts == 0xFF_FFFF {
                        if !need(4, pos, buf) {
                            return Ok(None);
                        }
                        let t = u32::from_be_bytes(buf[pos..pos + 4].try_into().expect("4"));
                        pos += 4;
                        t
                    } else {
                        ts
                    };
                    (ts, length, kind, stream_id, pos)
                }
                1 => {
                    if !need(7, pos, buf) {
                        return Ok(None);
                    }
                    let delta = read_u24(&buf[pos..]);
                    let length = read_u24(&buf[pos + 3..]) as usize;
                    let kind = MessageType::from_id(buf[pos + 6])?;
                    pos += 7;
                    let delta = if delta == 0xFF_FFFF {
                        if !need(4, pos, buf) {
                            return Ok(None);
                        }
                        let d = u32::from_be_bytes(buf[pos..pos + 4].try_into().expect("4"));
                        pos += 4;
                        d
                    } else {
                        delta
                    };
                    (prev.timestamp.wrapping_add(delta), length, kind, prev.stream_id, pos)
                }
                2 => {
                    if !need(3, pos, buf) {
                        return Ok(None);
                    }
                    let delta = read_u24(&buf[pos..]);
                    pos += 3;
                    let kind = prev.kind.ok_or_else(|| {
                        ProtoError::Protocol("fmt2 chunk with no prior state".to_string())
                    })?;
                    (prev.timestamp.wrapping_add(delta), prev.length, kind, prev.stream_id, pos)
                }
                3 => {
                    let kind = prev.kind.ok_or_else(|| {
                        ProtoError::Protocol("fmt3 chunk with no prior state".to_string())
                    })?;
                    (prev.timestamp, prev.length, kind, prev.stream_id, pos)
                }
                _ => unreachable!("2-bit fmt"),
            };
            let already = self.partial.get(&csid).map(|p| p.len()).unwrap_or(0);
            let remaining = length.saturating_sub(already);
            let take = remaining.min(self.chunk_size);
            if buf.len() < header_len + take {
                return Ok(None);
            }
            let payload_part = buf[header_len..header_len + take].to_vec();
            let part = self.partial.entry(csid).or_default();
            part.extend_from_slice(&payload_part);
            self.state.insert(csid, CsState { timestamp: ts, length, kind: Some(kind), stream_id });
            if part.len() >= length {
                let payload = std::mem::take(part);
                if kind == MessageType::SetChunkSize && payload.len() >= 4 {
                    let size =
                        u32::from_be_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
                    self.chunk_size = size.max(1);
                }
                self.ready.push_back(Message {
                    chunk_stream_id: csid,
                    timestamp: ts,
                    kind,
                    stream_id,
                    payload,
                });
            }
            Ok(Some(header_len + take))
        }
    }
}

/// A message mix that also renegotiates the chunk size mid-stream, so the
/// equivalence covers every chunk-size regime, message-spanning chunks and
/// fmt3 continuations.
fn arb_message_with_resize(g: &mut Gen) -> Message {
    if g.choice(8) == 0 {
        Message::set_chunk_size(g.u32(1..512))
    } else {
        arb_message(g)
    }
}

#[test]
fn rtmp_chunker_matches_reference_bytes() {
    check_with(
        Config::with_cases(64),
        "rtmp_chunker_matches_reference_bytes",
        |g: &mut Gen| g.vec(1..24, arb_message_with_resize),
        |msgs| {
            let mut zero_copy = Chunker::new();
            let mut wire = Vec::new();
            for m in msgs {
                zero_copy.write_ref(m.as_ref(), &mut wire);
            }
            let mut reference = rtmp_reference::RefChunker::new();
            let mut ref_wire = Vec::new();
            for m in msgs {
                reference.write(m, &mut ref_wire);
            }
            ensure_eq!(wire, ref_wire);
            Ok(())
        },
    );
}

/// `Chunker::frame` is `write_ref` without the payload: over any message
/// sequence — extended timestamps, empty payloads, lengths on either side of
/// the chunk size, mid-stream `SetChunkSize` — its `wire_len` is exactly
/// what `write_ref` appends, and the chunker it leaves behind encodes every
/// later message the same.
#[test]
fn rtmp_framing_sizes_what_write_ref_writes() {
    check_with(
        Config::with_cases(96),
        "rtmp_framing_sizes_what_write_ref_writes",
        |g: &mut Gen| {
            g.vec(1..32, |g| {
                let head = arb_message_with_resize(g);
                // Payload length class: 0, chunk size − 1 / ± 0 / + 1, two
                // chunks and a byte, or whatever the message came with.
                (head, g.choice(8))
            })
        },
        |msgs| {
            let mut writer = Chunker::new();
            let mut sizer = Chunker::new();
            let mut wire = Vec::new();
            for (m, class) in msgs {
                if m.kind == MessageType::SetChunkSize {
                    // Its payload is the new size: both sides must write it.
                    writer.write_ref(m.as_ref(), &mut wire);
                    sizer.write_ref(m.as_ref(), &mut Vec::new());
                    continue;
                }
                let cs = writer.chunk_size();
                let len = match class {
                    0 => 0,
                    1 => cs - 1,
                    2 => cs,
                    3 => cs + 1,
                    4 => 2 * cs + 1,
                    _ => m.payload.len(),
                };
                let m = Message { payload: vec![0x5a; len], ..m.clone() };
                let before = wire.len();
                writer.write_ref(m.as_ref(), &mut wire);
                let sized = sizer
                    .frame(m.chunk_stream_id, m.timestamp, m.kind, m.stream_id, len)
                    .wire_len();
                ensure_eq!(sized, wire.len() - before);
            }
            ensure_eq!(writer.chunk_size(), sizer.chunk_size());
            // Same state on every chunk stream: a probe that may take the
            // fmt1 path (same stream id, later timestamp) encodes alike.
            for csid in 2..=63u8 {
                for (timestamp, stream_id) in [(0x0300_0000, 1), (5, 0)] {
                    let probe = Message {
                        chunk_stream_id: csid,
                        timestamp,
                        kind: MessageType::Video,
                        stream_id,
                        payload: vec![1, 2, 3],
                    };
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    writer.write_ref(probe.as_ref(), &mut a);
                    sizer.write_ref(probe.as_ref(), &mut b);
                    ensure_eq!(a, b);
                }
            }
            Ok(())
        },
    );
}

// -------------------------------------------------------------------- SRT
//
// Serial sequence arithmetic and the compressed-range NAK lists are the
// parts of the SRT layer where an off-by-one at the 2^32 wrap corrupts loss
// recovery silently, so they get property coverage across the boundary:
// starts are biased to land within a few packets of `u32::MAX`.

use pscp_proto::srt::{
    compress_ranges, decode_packet, encode_packet, expand_ranges, seq_add, seq_cmp, seq_distance,
    ControlPacket, DataPacket, Packet, MAX_NAK_RANGE,
};

/// A sequence-space start point, biased to straddle the wrap boundary half
/// of the time so every property is exercised across `u32::MAX → 0`.
fn arb_seq_start(g: &mut Gen) -> u32 {
    if g.bool() {
        g.u32(u32::MAX - 64..=u32::MAX)
    } else {
        g.u32(..)
    }
}

#[test]
fn srt_seq_arithmetic_is_serial() {
    check(
        "srt_seq_arithmetic_is_serial",
        |g: &mut Gen| {
            // Forward offsets stay inside one half-space (2^31), where the
            // serial order is defined; the latency window keeps real traffic
            // far inside it.
            (arb_seq_start(g), g.u32(0..0x8000_0000))
        },
        |&(a, n)| {
            let b = seq_add(a, n);
            // add/distance are inverses through the wrap.
            ensure_eq!(seq_distance(a, b), n);
            ensure_eq!(seq_add(a, 0), a);
            // seq_cmp agrees with the forward distance.
            let expect = 0u32.cmp(&n);
            ensure_eq!(seq_cmp(a, b), expect);
            // Antisymmetry: b compares back the opposite way (strict offsets
            // only; n == 0 is equality).
            ensure_eq!(seq_cmp(b, a), expect.reverse());
            Ok(())
        },
    );
}

/// Generates a strictly increasing (wrap-forward) run of lost sequence
/// numbers: consecutive stretches with occasional gaps, as a real receiver's
/// loss tracker would report them.
fn arb_loss_run(g: &mut Gen) -> Vec<u32> {
    let mut seq = arb_seq_start(g);
    let steps = g.vec(0..40, |g| if g.choice(3) == 0 { g.u32(2..200) } else { 1 });
    let mut out = Vec::with_capacity(steps.len());
    for step in steps {
        out.push(seq);
        seq = seq_add(seq, step);
    }
    out
}

#[test]
fn srt_nak_ranges_roundtrip_across_wrap() {
    check("srt_nak_ranges_roundtrip_across_wrap", arb_loss_run, |seqs| {
        let ranges = compress_ranges(seqs);
        // Compression is canonical: no two adjacent ranges are mergeable.
        for w in ranges.windows(2) {
            ensure!(
                seq_add(w[0].1, 1) != w[1].0,
                "adjacent ranges {:?} and {:?} should have merged",
                w[0],
                w[1]
            );
        }
        // Every range is wrap-forward and within the decoder's bound.
        for &(first, last) in &ranges {
            ensure!(seq_distance(first, last) < MAX_NAK_RANGE);
        }
        // Round-trip through expansion is the identity.
        let back = expand_ranges(&ranges).map_err(|e| format!("expand failed: {e:?}"))?;
        ensure_eq!(&back, seqs);
        Ok(())
    });
}

#[test]
fn srt_expand_rejects_hostile_ranges() {
    check(
        "srt_expand_rejects_hostile_ranges",
        |g: &mut Gen| (arb_seq_start(g), g.u32(MAX_NAK_RANGE..0x8000_0000)),
        |&(first, width)| {
            let hostile = [(first, seq_add(first, width))];
            ensure!(
                expand_ranges(&hostile).is_err(),
                "range of width {width} must be rejected, not expanded"
            );
            Ok(())
        },
    );
}

fn arb_srt_packet(g: &mut Gen) -> Packet {
    match g.choice(8) {
        0 => Packet::Data(DataPacket {
            seq: arb_seq_start(g),
            origin_ts_us: g.u32(..),
            msg: g.u32(..),
            payload: g.bytes(0..1400),
        }),
        1 => Packet::Control(ControlPacket::Induction {
            version: g.u32(0..10),
            caller_id: g.u32(..),
        }),
        2 => Packet::Control(ControlPacket::Cookie { cookie: g.u32(..) }),
        3 => Packet::Control(ControlPacket::Conclusion {
            cookie: g.u32(..),
            caller_id: g.u32(..),
            initial_seq: arb_seq_start(g),
            latency_ms: g.u32(0..10_000),
        }),
        4 => Packet::Control(ControlPacket::Agreement {
            initial_seq: arb_seq_start(g),
            latency_ms: g.u32(0..10_000),
        }),
        5 => Packet::Control(ControlPacket::Ack { ack_seq: arb_seq_start(g) }),
        6 => Packet::Control(ControlPacket::Nak {
            ranges: {
                let mut seq = arb_seq_start(g);
                g.vec(0..8, |g| {
                    let first = seq;
                    let last = seq_add(first, g.u32(0..MAX_NAK_RANGE));
                    seq = seq_add(last, g.u32(2..100));
                    (first, last)
                })
            },
        }),
        _ => Packet::Control(ControlPacket::Shutdown),
    }
}

#[test]
fn srt_packet_roundtrip() {
    check("srt_packet_roundtrip", arb_srt_packet, |p| {
        let mut wire = Vec::new();
        encode_packet(p, &mut wire);
        let (back, used) = decode_packet(&wire).map_err(|e| format!("decode failed: {e:?}"))?;
        ensure_eq!(used, wire.len());
        ensure_eq!(&back, p);
        Ok(())
    });
}

#[test]
fn srt_decoder_never_panics() {
    check(
        "srt_decoder_never_panics",
        |g: &mut Gen| g.bytes(0..256),
        |bytes| {
            let _ = decode_packet(bytes);
            Ok(())
        },
    );
}

#[test]
fn rtmp_dechunker_matches_reference_messages() {
    check_with(
        Config::with_cases(64),
        "rtmp_dechunker_matches_reference_messages",
        |g: &mut Gen| {
            let msgs = g.vec(1..24, arb_message_with_resize);
            // Arbitrary feed split size forces partial-read resume at every
            // possible point in headers, extended timestamps and payloads.
            let piece = g.usize(1..=33);
            (msgs, piece)
        },
        |(msgs, piece)| {
            let mut chunker = Chunker::new();
            let wire = chunker.encode_all(msgs);
            let mut zero_copy = Dechunker::new();
            let mut reference = rtmp_reference::RefDechunker::new();
            let mut popped = Vec::new();
            for part in wire.chunks(*piece) {
                zero_copy.feed(part).map_err(|e| format!("feed: {e:?}"))?;
                reference.feed(part).map_err(|e| format!("ref feed: {e:?}"))?;
                // Drain mid-stream too: views must already match while
                // later messages are still partial.
                while let Some(view) = zero_copy.next_view() {
                    popped.push(view.to_message());
                }
            }
            ensure_eq!(popped, reference.pop_all());
            Ok(())
        },
    );
}
