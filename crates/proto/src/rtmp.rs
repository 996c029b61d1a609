//! RTMP: handshake and chunk-stream layer.
//!
//! Periscope delivers non-popular live broadcasts over plaintext RTMP on
//! port 80 (§3) because it gives the lowest delivery latency (§5.1): the
//! ingest server can push each audio/video message to viewers the moment it
//! arrives. This module implements the protocol pieces the reproduction
//! exercises end-to-end:
//!
//! * the 1536-byte C0/C1/C2 – S0/S1/S2 handshake;
//! * message framing over chunk streams (basic headers fmt 0–3, default
//!   chunk size 128 bytes, `SetChunkSize`, extended timestamps);
//! * the message types the Periscope data path uses (audio, video, AMF0
//!   commands/data, control).
//!
//! The viewer-side capture analysis (`pscp-media`) de-chunks these exact
//! bytes to reconstruct the elementary streams, mirroring the paper's use of
//! the wireshark RTMP dissector.
//!
//! The chunk layer is zero-copy on both sides: [`Chunker::write_ref`]
//! serializes a borrowed payload straight into a caller-provided buffer, and
//! [`Dechunker::next_view`] yields reassembled messages as [`MessageView`]s
//! borrowing an internal arena, so the per-packet hot loop allocates
//! nothing in steady state. The owned [`Message`]/`pop` API remains for
//! callers that need to retain messages.

use crate::ProtoError;

/// RTMP protocol version byte (C0/S0).
pub const RTMP_VERSION: u8 = 3;
/// Size of the C1/S1/C2/S2 handshake blobs.
pub const HANDSHAKE_SIZE: usize = 1536;
/// Default maximum chunk payload size until a SetChunkSize message.
pub const DEFAULT_CHUNK_SIZE: usize = 128;

/// Number of addressable basic-header chunk streams (ids 0..=63; only
/// 2..=63 are valid on the wire, which lets per-stream state live in flat
/// arrays instead of hash maps).
const MAX_CHUNK_STREAMS: usize = 64;

/// RTMP message types used by the Periscope data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageType {
    /// 1 — changes the chunk size for the sender's subsequent chunks.
    SetChunkSize,
    /// 3 — acknowledgement.
    Acknowledgement,
    /// 4 — user control events (stream begin, ping, buffer length).
    UserControl,
    /// 5 — window acknowledgement size.
    WindowAckSize,
    /// 6 — set peer bandwidth.
    SetPeerBandwidth,
    /// 8 — audio data (AAC).
    Audio,
    /// 9 — video data (AVC).
    Video,
    /// 18 — AMF0 data message (e.g. onMetaData).
    DataAmf0,
    /// 20 — AMF0 command message (connect, play, publish, onStatus).
    CommandAmf0,
}

impl MessageType {
    /// Wire id.
    pub fn id(self) -> u8 {
        match self {
            MessageType::SetChunkSize => 1,
            MessageType::Acknowledgement => 3,
            MessageType::UserControl => 4,
            MessageType::WindowAckSize => 5,
            MessageType::SetPeerBandwidth => 6,
            MessageType::Audio => 8,
            MessageType::Video => 9,
            MessageType::DataAmf0 => 18,
            MessageType::CommandAmf0 => 20,
        }
    }

    /// Parses a wire id.
    pub fn from_id(id: u8) -> Result<Self, ProtoError> {
        Ok(match id {
            1 => MessageType::SetChunkSize,
            3 => MessageType::Acknowledgement,
            4 => MessageType::UserControl,
            5 => MessageType::WindowAckSize,
            6 => MessageType::SetPeerBandwidth,
            8 => MessageType::Audio,
            9 => MessageType::Video,
            18 => MessageType::DataAmf0,
            20 => MessageType::CommandAmf0,
            other => return Err(ProtoError::Malformed(format!("unknown message type {other}"))),
        })
    }
}

/// A complete RTMP message (before chunking / after reassembly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Chunk stream the message travels on (2..=63 supported here).
    pub chunk_stream_id: u8,
    /// Message timestamp in milliseconds.
    pub timestamp: u32,
    /// Message type.
    pub kind: MessageType,
    /// Message stream id.
    pub stream_id: u32,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Message {
    /// Builds an audio message on the conventional audio chunk stream (4).
    pub fn audio(timestamp: u32, payload: Vec<u8>) -> Message {
        Message { chunk_stream_id: 4, timestamp, kind: MessageType::Audio, stream_id: 1, payload }
    }

    /// Builds a video message on the conventional video chunk stream (6).
    pub fn video(timestamp: u32, payload: Vec<u8>) -> Message {
        Message { chunk_stream_id: 6, timestamp, kind: MessageType::Video, stream_id: 1, payload }
    }

    /// Builds a SetChunkSize control message.
    pub fn set_chunk_size(size: u32) -> Message {
        Message {
            chunk_stream_id: 2,
            timestamp: 0,
            kind: MessageType::SetChunkSize,
            stream_id: 0,
            payload: size.to_be_bytes().to_vec(),
        }
    }

    /// Builds an AMF0 command message on chunk stream 3.
    pub fn command(payload: Vec<u8>) -> Message {
        Message {
            chunk_stream_id: 3,
            timestamp: 0,
            kind: MessageType::CommandAmf0,
            stream_id: 0,
            payload,
        }
    }

    /// Borrowed view of this message for zero-copy chunking.
    pub fn as_ref(&self) -> MessageRef<'_> {
        MessageRef {
            chunk_stream_id: self.chunk_stream_id,
            timestamp: self.timestamp,
            kind: self.kind,
            stream_id: self.stream_id,
            payload: &self.payload,
        }
    }
}

/// A borrowed RTMP message: header fields by value, payload by reference.
/// The zero-copy input to [`Chunker::write_ref`] and output of
/// [`Dechunker::next_view`] (there called [`MessageView`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageRef<'a> {
    /// Chunk stream the message travels on (2..=63 supported here).
    pub chunk_stream_id: u8,
    /// Message timestamp in milliseconds.
    pub timestamp: u32,
    /// Message type.
    pub kind: MessageType,
    /// Message stream id.
    pub stream_id: u32,
    /// Borrowed payload bytes.
    pub payload: &'a [u8],
}

impl MessageRef<'_> {
    /// Copies the view into an owned [`Message`].
    pub fn to_message(&self) -> Message {
        Message {
            chunk_stream_id: self.chunk_stream_id,
            timestamp: self.timestamp,
            kind: self.kind,
            stream_id: self.stream_id,
            payload: self.payload.to_vec(),
        }
    }
}

/// A reassembled message borrowed from the dechunker's arena; valid until
/// the next `feed`.
pub type MessageView<'a> = MessageRef<'a>;

/// Generates the client handshake bytes C0+C1.
pub fn handshake_c0c1(epoch_ms: u32, fill: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + HANDSHAKE_SIZE);
    out.push(RTMP_VERSION);
    out.extend_from_slice(&epoch_ms.to_be_bytes());
    out.extend_from_slice(&[0u8; 4]);
    out.extend(std::iter::repeat_n(fill, HANDSHAKE_SIZE - 8));
    out
}

/// Validates C0+C1 and produces S0+S1+S2 (S2 echoes C1).
pub fn handshake_s0s1s2(c0c1: &[u8], epoch_ms: u32) -> Result<Vec<u8>, ProtoError> {
    if c0c1.len() < 1 + HANDSHAKE_SIZE {
        return Err(ProtoError::Truncated);
    }
    if c0c1[0] != RTMP_VERSION {
        return Err(ProtoError::Protocol(format!("unsupported RTMP version {}", c0c1[0])));
    }
    let mut out = Vec::with_capacity(1 + 2 * HANDSHAKE_SIZE);
    out.push(RTMP_VERSION);
    out.extend_from_slice(&epoch_ms.to_be_bytes());
    out.extend_from_slice(&[0u8; 4]);
    out.extend(std::iter::repeat_n(0x53, HANDSHAKE_SIZE - 8));
    out.extend_from_slice(&c0c1[1..1 + HANDSHAKE_SIZE]); // S2 = echo of C1
    Ok(out)
}

/// Validates S0+S1+S2 against the C1 we sent and produces C2 (echo of S1).
pub fn handshake_c2(s0s1s2: &[u8], c1: &[u8]) -> Result<Vec<u8>, ProtoError> {
    if s0s1s2.len() < 1 + 2 * HANDSHAKE_SIZE {
        return Err(ProtoError::Truncated);
    }
    if s0s1s2[0] != RTMP_VERSION {
        return Err(ProtoError::Protocol(format!("unsupported RTMP version {}", s0s1s2[0])));
    }
    let s2 = &s0s1s2[1 + HANDSHAKE_SIZE..1 + 2 * HANDSHAKE_SIZE];
    if s2 != c1 {
        return Err(ProtoError::Protocol("S2 does not echo C1".to_string()));
    }
    Ok(s0s1s2[1..1 + HANDSHAKE_SIZE].to_vec())
}

/// Per-chunk-stream state remembered between chunks.
#[derive(Debug, Clone, Copy, Default)]
struct CsState {
    timestamp: u32,
    length: usize,
    kind: Option<MessageType>,
    stream_id: u32,
}

/// Serializes messages into an RTMP chunk byte stream.
#[derive(Debug)]
pub struct Chunker {
    chunk_size: usize,
    state: [CsState; MAX_CHUNK_STREAMS],
}

impl Default for Chunker {
    fn default() -> Self {
        Self::new()
    }
}

impl Chunker {
    /// Creates a chunker with the default 128-byte chunk size.
    pub fn new() -> Self {
        Chunker { chunk_size: DEFAULT_CHUNK_SIZE, state: [CsState::default(); MAX_CHUNK_STREAMS] }
    }

    /// Current outgoing chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Encodes `msg` into chunks, appending to `out`. A `SetChunkSize`
    /// message also updates the chunker's own size for subsequent messages,
    /// as the spec requires.
    pub fn write(&mut self, msg: &Message, out: &mut Vec<u8>) {
        self.write_ref(msg.as_ref(), out);
    }

    /// Zero-copy variant of [`Chunker::write`]: chunks a borrowed payload
    /// into the caller-provided buffer without owning the message.
    pub fn write_ref(&mut self, msg: MessageRef<'_>, out: &mut Vec<u8>) {
        self.frame(msg.chunk_stream_id, msg.timestamp, msg.kind, msg.stream_id, msg.payload.len())
            .write(msg.payload, out);
        if msg.kind == MessageType::SetChunkSize && msg.payload.len() >= 4 {
            let size = u32::from_be_bytes(msg.payload[..4].try_into().expect("4 bytes")) as usize;
            self.chunk_size = size.max(1);
        }
    }

    /// Decides the chunk framing of a message with a `len`-byte payload and
    /// advances the chunk stream's state past it — everything
    /// [`Chunker::write_ref`] does short of touching payload bytes, so a
    /// caller that only needs the on-wire length ([`Framing::wire_len`])
    /// never has to produce them. A `SetChunkSize` message must go through
    /// `write`/`write_ref`: its payload is what changes the chunk size.
    pub fn frame(
        &mut self,
        chunk_stream_id: u8,
        timestamp: u32,
        kind: MessageType,
        stream_id: u32,
        len: usize,
    ) -> Framing {
        assert!(
            (2..=63).contains(&chunk_stream_id),
            "only basic-header chunk stream ids 2..=63 are supported"
        );
        let cs = &mut self.state[chunk_stream_id as usize];
        // Decide header format: fmt1 when only type/len/timestamp-delta
        // change on the same stream id, fmt0 otherwise. (fmt2/fmt3 encoding
        // is a compression nicety; fmt0/fmt1 keep the encoder simple and any
        // compliant decoder — including ours — handles them.)
        let use_fmt1 = cs.kind.is_some() && cs.stream_id == stream_id && timestamp >= cs.timestamp;
        let mut header = [0u8; MAX_HEADER];
        let mut n = 0;
        let mut put = |bytes: &[u8]| {
            header[n..n + bytes.len()].copy_from_slice(bytes);
            n += bytes.len();
        };
        if use_fmt1 {
            let delta = timestamp - cs.timestamp;
            let ext = delta >= 0xFF_FFFF;
            put(&[(1 << 6) | chunk_stream_id]);
            put(&u24(if ext { 0xFF_FFFF } else { delta }));
            put(&u24(len as u32));
            put(&[kind.id()]);
            if ext {
                put(&delta.to_be_bytes());
            }
        } else {
            let ext = timestamp >= 0xFF_FFFF;
            put(&[chunk_stream_id]); // fmt 0
            put(&u24(if ext { 0xFF_FFFF } else { timestamp }));
            put(&u24(len as u32));
            put(&[kind.id()]);
            put(&stream_id.to_le_bytes());
            if ext {
                put(&timestamp.to_be_bytes());
            }
        }
        *cs = CsState { timestamp, length: len, kind: Some(kind), stream_id };
        Framing {
            header,
            header_len: n as u8,
            chunk_stream_id,
            chunk_size: self.chunk_size as u32,
            payload_len: len as u32,
        }
    }

    /// Encodes a batch of messages to a fresh buffer.
    pub fn encode_all(&mut self, msgs: &[Message]) -> Vec<u8> {
        let mut out = Vec::new();
        for m in msgs {
            self.write(m, &mut out);
        }
        out
    }
}

/// Longest message header: fmt0 basic + message header + extended
/// timestamp.
const MAX_HEADER: usize = 1 + 11 + 4;

/// The chunk framing [`Chunker::frame`] decided for one message: its header
/// bytes and where the fmt3 continuation headers fall. Kept small (a
/// message length is 24 bits on the wire, a chunk size 31): a session holds
/// one per queued media message until the message is transmitted.
#[derive(Debug, Clone, Copy)]
pub struct Framing {
    header: [u8; MAX_HEADER],
    header_len: u8,
    chunk_stream_id: u8,
    chunk_size: u32,
    payload_len: u32,
}

impl Framing {
    /// On-wire length of the chunked message: header, payload, and one
    /// continuation header per chunk after the first.
    pub fn wire_len(&self) -> usize {
        let continuations = self.payload_len.saturating_sub(1) / self.chunk_size;
        self.header_len as usize + (self.payload_len + continuations) as usize
    }

    /// Appends the chunked message to `out`. `payload` is the body the
    /// framing was decided for.
    pub fn write(&self, payload: &[u8], out: &mut Vec<u8>) {
        assert_eq!(
            payload.len(),
            self.payload_len as usize,
            "framing was decided for another length"
        );
        out.reserve(self.wire_len());
        out.extend_from_slice(&self.header[..self.header_len as usize]);
        // Payload, split at chunk_size with fmt3 continuation headers.
        let mut chunks = payload.chunks(self.chunk_size as usize);
        out.extend_from_slice(chunks.next().unwrap_or(&[]));
        for chunk in chunks {
            out.push((3 << 6) | self.chunk_stream_id);
            out.extend_from_slice(chunk);
        }
    }
}

/// Location of a reassembled message inside the dechunker's ready arena.
#[derive(Debug, Clone, Copy)]
struct ReadyMeta {
    chunk_stream_id: u8,
    timestamp: u32,
    kind: MessageType,
    stream_id: u32,
    start: usize,
    end: usize,
}

/// Reassembles an RTMP chunk byte stream into messages. Incremental: feed
/// bytes as they arrive, pop complete messages (owned) or iterate
/// [`Dechunker::next_view`] for zero-copy borrowed views.
///
/// Internally all per-chunk-stream state lives in flat arrays indexed by
/// chunk stream id, reassembly buffers are reused across messages, and
/// completed payloads land in one append-only arena that is recycled once
/// drained — steady-state feeding allocates nothing.
#[derive(Debug)]
pub struct Dechunker {
    chunk_size: usize,
    /// Bytes held over from a previous feed that did not end on a chunk
    /// boundary. Usually empty: the common path parses the caller's slice
    /// directly.
    buf: Vec<u8>,
    state: [CsState; MAX_CHUNK_STREAMS],
    /// Per-chunk-stream reassembly buffers for messages spanning chunks;
    /// cleared (capacity kept) when their message completes.
    partial: Vec<Vec<u8>>,
    /// Arena of completed payloads, recycled when all messages are drained.
    ready_data: Vec<u8>,
    ready: std::collections::VecDeque<ReadyMeta>,
}

impl Default for Dechunker {
    fn default() -> Self {
        Self::new()
    }
}

impl Dechunker {
    /// Creates a dechunker expecting the default 128-byte chunk size.
    pub fn new() -> Self {
        Dechunker {
            chunk_size: DEFAULT_CHUNK_SIZE,
            buf: Vec::new(),
            state: [CsState::default(); MAX_CHUNK_STREAMS],
            partial: (0..MAX_CHUNK_STREAMS).map(|_| Vec::new()).collect(),
            ready_data: Vec::new(),
            ready: std::collections::VecDeque::new(),
        }
    }

    /// Feeds incoming bytes; complete messages become poppable.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), ProtoError> {
        if self.ready.is_empty() {
            // All previously completed messages were drained; recycle the
            // arena so it never grows beyond one feed's worth of payload.
            self.ready_data.clear();
        }
        if self.buf.is_empty() {
            // Fast path: parse straight out of the caller's slice; only the
            // unconsumed tail (if any) is copied into the holdover buffer.
            let mut pos = 0;
            while pos < bytes.len() {
                match self.parse_one(&bytes[pos..])? {
                    Some(n) => pos += n,
                    None => break,
                }
            }
            if pos < bytes.len() {
                self.buf.extend_from_slice(&bytes[pos..]);
            }
            return Ok(());
        }
        // Holdover path: append, parse, then compact the remainder to the
        // front with one memmove (instead of draining per chunk).
        self.buf.extend_from_slice(bytes);
        let held = std::mem::take(&mut self.buf);
        let mut pos = 0;
        let res = loop {
            match self.parse_one(&held[pos..]) {
                Ok(Some(n)) => pos += n,
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        self.buf = held;
        if pos > 0 {
            self.buf.copy_within(pos.., 0);
            let rest = self.buf.len() - pos;
            self.buf.truncate(rest);
        }
        res
    }

    /// Pops the next fully reassembled message as an owned [`Message`].
    pub fn pop(&mut self) -> Option<Message> {
        self.next_view().map(|v| v.to_message())
    }

    /// Drains all ready messages.
    pub fn pop_all(&mut self) -> Vec<Message> {
        let mut out = Vec::with_capacity(self.ready.len());
        while let Some(m) = self.pop() {
            out.push(m);
        }
        out
    }

    /// Pops the next fully reassembled message as a borrowed view into the
    /// dechunker's arena — the zero-copy counterpart of [`Dechunker::pop`].
    /// The view is valid until the next call to [`Dechunker::feed`].
    pub fn next_view(&mut self) -> Option<MessageView<'_>> {
        let m = self.ready.pop_front()?;
        Some(MessageView {
            chunk_stream_id: m.chunk_stream_id,
            timestamp: m.timestamp,
            kind: m.kind,
            stream_id: m.stream_id,
            payload: &self.ready_data[m.start..m.end],
        })
    }

    /// Attempts to parse one chunk from the front of `buf`. Returns bytes
    /// consumed, or None if more data is needed.
    fn parse_one(&mut self, buf: &[u8]) -> Result<Option<usize>, ProtoError> {
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
        let prev = self.state[csid as usize];
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
        // How many payload bytes belong to this chunk?
        let already = self.partial[csid as usize].len();
        let remaining = length.saturating_sub(already);
        let take = remaining.min(self.chunk_size);
        if buf.len() < header_len + take {
            return Ok(None);
        }
        let chunk = &buf[header_len..header_len + take];
        // Update per-stream state.
        self.state[csid as usize] = CsState { timestamp: ts, length, kind: Some(kind), stream_id };
        if already + take >= length {
            // Message complete: payload lands in the ready arena. A message
            // contained in a single chunk is copied wire→arena directly;
            // a spanning one drains its reassembly buffer first.
            let start = self.ready_data.len();
            let part = &mut self.partial[csid as usize];
            if !part.is_empty() {
                self.ready_data.extend_from_slice(part);
                part.clear();
            }
            self.ready_data.extend_from_slice(chunk);
            let end = self.ready_data.len();
            if kind == MessageType::SetChunkSize && end - start >= 4 {
                let size =
                    u32::from_be_bytes(self.ready_data[start..start + 4].try_into().expect("4"))
                        as usize;
                self.chunk_size = size.max(1);
            }
            self.ready.push_back(ReadyMeta {
                chunk_stream_id: csid,
                timestamp: ts,
                kind,
                stream_id,
                start,
                end,
            });
        } else {
            self.partial[csid as usize].extend_from_slice(chunk);
        }
        Ok(Some(header_len + take))
    }
}

fn u24(v: u32) -> [u8; 3] {
    debug_assert!(v <= 0xFF_FFFF);
    [(v >> 16) as u8, (v >> 8) as u8, v as u8]
}

fn read_u24(bytes: &[u8]) -> u32 {
    ((bytes[0] as u32) << 16) | ((bytes[1] as u32) << 8) | bytes[2] as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_roundtrip() {
        let c0c1 = handshake_c0c1(1000, 0xAB);
        assert_eq!(c0c1.len(), 1 + HANDSHAKE_SIZE);
        let s = handshake_s0s1s2(&c0c1, 2000).unwrap();
        assert_eq!(s.len(), 1 + 2 * HANDSHAKE_SIZE);
        let c2 = handshake_c2(&s, &c0c1[1..]).unwrap();
        assert_eq!(c2.len(), HANDSHAKE_SIZE);
        // C2 echoes S1.
        assert_eq!(c2, &s[1..1 + HANDSHAKE_SIZE]);
    }

    #[test]
    fn handshake_rejects_bad_version() {
        let mut c0c1 = handshake_c0c1(0, 0);
        c0c1[0] = 6;
        assert!(matches!(handshake_s0s1s2(&c0c1, 0), Err(ProtoError::Protocol(_))));
    }

    #[test]
    fn handshake_rejects_bad_echo() {
        let c0c1 = handshake_c0c1(0, 1);
        let mut s = handshake_s0s1s2(&c0c1, 0).unwrap();
        s[1 + HANDSHAKE_SIZE] ^= 0xFF; // corrupt S2
        assert!(handshake_c2(&s, &c0c1[1..]).is_err());
    }

    #[test]
    fn single_small_message_roundtrip() {
        let msg = Message::video(40, vec![1, 2, 3]);
        let mut chunker = Chunker::new();
        let bytes = chunker.encode_all(std::slice::from_ref(&msg));
        let mut d = Dechunker::new();
        d.feed(&bytes).unwrap();
        assert_eq!(d.pop().unwrap(), msg);
        assert!(d.pop().is_none());
    }

    #[test]
    fn large_message_spans_chunks() {
        let payload: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let msg = Message::video(0, payload.clone());
        let mut chunker = Chunker::new();
        let bytes = chunker.encode_all(std::slice::from_ref(&msg));
        // 1000 bytes at 128/chunk -> 8 chunks -> 7 continuation headers.
        assert!(bytes.len() > payload.len() + 11);
        let mut d = Dechunker::new();
        d.feed(&bytes).unwrap();
        assert_eq!(d.pop().unwrap().payload, payload);
    }

    #[test]
    fn set_chunk_size_applies_to_both_sides() {
        let mut chunker = Chunker::new();
        let mut d = Dechunker::new();
        let msgs = vec![Message::set_chunk_size(4096), Message::video(10, vec![7; 3000])];
        let bytes = chunker.encode_all(&msgs);
        assert_eq!(chunker.chunk_size(), 4096);
        d.feed(&bytes).unwrap();
        let got = d.pop_all();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].payload.len(), 3000);
    }

    #[test]
    fn interleaved_audio_video() {
        // Audio and video on different chunk streams interleave correctly.
        let mut chunker = Chunker::new();
        let msgs = vec![
            Message::video(0, vec![1; 300]),
            Message::audio(5, vec![2; 50]),
            Message::video(33, vec![3; 300]),
            Message::audio(26, vec![4; 50]),
        ];
        let bytes = chunker.encode_all(&msgs);
        let mut d = Dechunker::new();
        d.feed(&bytes).unwrap();
        let got = d.pop_all();
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].kind, MessageType::Video);
        assert_eq!(got[1].kind, MessageType::Audio);
        assert_eq!(got[3].timestamp, 26);
    }

    #[test]
    fn incremental_feed_byte_by_byte() {
        let msg = Message::video(77, (0..500).map(|i| i as u8).collect());
        let mut chunker = Chunker::new();
        let bytes = chunker.encode_all(std::slice::from_ref(&msg));
        let mut d = Dechunker::new();
        for b in &bytes {
            d.feed(std::slice::from_ref(b)).unwrap();
        }
        assert_eq!(d.pop().unwrap(), msg);
    }

    #[test]
    fn fmt1_header_used_for_repeat_messages() {
        let mut chunker = Chunker::new();
        let m1 = Message::video(0, vec![1; 10]);
        let m2 = Message::video(33, vec![2; 12]);
        let bytes = chunker.encode_all(&[m1.clone(), m2.clone()]);
        // Second message header starts after first: fmt1 header is 8 bytes
        // (1 basic + 7), vs 12 for fmt0.
        let second_header_at = 12 + 10;
        assert_eq!(bytes[second_header_at] >> 6, 1, "expected fmt1");
        let mut d = Dechunker::new();
        d.feed(&bytes).unwrap();
        let got = d.pop_all();
        assert_eq!(got, vec![m1, m2]);
    }

    #[test]
    fn extended_timestamp_roundtrip() {
        let msg = Message::video(0x0100_0000, vec![9; 5]);
        let mut chunker = Chunker::new();
        let bytes = chunker.encode_all(std::slice::from_ref(&msg));
        let mut d = Dechunker::new();
        d.feed(&bytes).unwrap();
        assert_eq!(d.pop().unwrap().timestamp, 0x0100_0000);
    }

    #[test]
    fn empty_payload_message() {
        let msg = Message {
            chunk_stream_id: 3,
            timestamp: 0,
            kind: MessageType::CommandAmf0,
            stream_id: 0,
            payload: Vec::new(),
        };
        let mut chunker = Chunker::new();
        let bytes = chunker.encode_all(std::slice::from_ref(&msg));
        let mut d = Dechunker::new();
        d.feed(&bytes).unwrap();
        assert_eq!(d.pop().unwrap(), msg);
    }

    #[test]
    fn fmt3_without_state_is_error() {
        let mut d = Dechunker::new();
        assert!(d.feed(&[(3 << 6) | 5]).is_err());
    }

    #[test]
    fn unknown_message_type_is_error() {
        let mut d = Dechunker::new();
        // fmt0, csid 3, ts 0, len 0, type 99, stream 0.
        let mut bytes = vec![3u8];
        bytes.extend_from_slice(&[0, 0, 0]);
        bytes.extend_from_slice(&[0, 0, 0]);
        bytes.push(99);
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(d.feed(&bytes).is_err());
    }

    #[test]
    fn message_type_ids_roundtrip() {
        for kind in [
            MessageType::SetChunkSize,
            MessageType::Acknowledgement,
            MessageType::UserControl,
            MessageType::WindowAckSize,
            MessageType::SetPeerBandwidth,
            MessageType::Audio,
            MessageType::Video,
            MessageType::DataAmf0,
            MessageType::CommandAmf0,
        ] {
            assert_eq!(MessageType::from_id(kind.id()).unwrap(), kind);
        }
        assert!(MessageType::from_id(7).is_err());
    }

    #[test]
    fn many_messages_stress_roundtrip() {
        let mut chunker = Chunker::new();
        let msgs: Vec<Message> = (0..200)
            .map(|i| {
                if i % 3 == 0 {
                    Message::audio(i * 23, vec![(i % 256) as u8; (i as usize * 7) % 400 + 1])
                } else {
                    Message::video(i * 33, vec![(i % 256) as u8; (i as usize * 13) % 900 + 1])
                }
            })
            .collect();
        let bytes = chunker.encode_all(&msgs);
        let mut d = Dechunker::new();
        // Feed in awkward 17-byte slices.
        for chunk in bytes.chunks(17) {
            d.feed(chunk).unwrap();
        }
        assert_eq!(d.pop_all(), msgs);
    }

    #[test]
    fn write_ref_matches_write() {
        let msgs = vec![
            Message::video(0, vec![1; 300]),
            Message::audio(5, vec![2; 50]),
            Message::video(33, vec![3; 300]),
        ];
        let mut a = Chunker::new();
        let mut b = Chunker::new();
        let mut wire_a = Vec::new();
        let mut wire_b = Vec::new();
        for m in &msgs {
            a.write(m, &mut wire_a);
            b.write_ref(m.as_ref(), &mut wire_b);
        }
        assert_eq!(wire_a, wire_b);
    }

    #[test]
    fn next_view_yields_borrowed_payloads() {
        let msgs = vec![Message::video(0, vec![7; 500]), Message::audio(5, vec![8; 40])];
        let mut chunker = Chunker::new();
        let bytes = chunker.encode_all(&msgs);
        let mut d = Dechunker::new();
        d.feed(&bytes).unwrap();
        let mut got = Vec::new();
        while let Some(v) = d.next_view() {
            got.push(v.to_message());
        }
        assert_eq!(got, msgs);
        // Arena is recycled on the next feed once drained.
        d.feed(&[]).unwrap();
        assert!(d.next_view().is_none());
    }

    #[test]
    fn mixed_pop_and_view_interleave() {
        let msgs: Vec<Message> =
            (0..6).map(|i| Message::video(i * 33, vec![i as u8; 200])).collect();
        let mut chunker = Chunker::new();
        let bytes = chunker.encode_all(&msgs);
        let mut d = Dechunker::new();
        d.feed(&bytes).unwrap();
        for (i, m) in msgs.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(&d.pop().unwrap(), m);
            } else {
                assert_eq!(&d.next_view().unwrap().to_message(), m);
            }
        }
    }
}
