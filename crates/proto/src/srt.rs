//! SRT-flavoured ingest protocol: unreliable datagrams with NAK/ARQ
//! selective retransmission under a latency budget.
//!
//! The paper's two transports hide loss inside TCP: RTMP surfaces it as
//! retransmission *delay* (stalls), HLS as segment re-fetches (latency).
//! This module implements the third point in that design space — the one
//! AutoRec-style measurement studies found dominant on lossy uplinks: an
//! UDP-like transport that recovers losses it can afford to wait for and
//! *drops* the rest, so playback degrades by concealment instead of
//! stalling. The shape follows SRT (Haivision's Secure Reliable Transport):
//!
//! * caller/listener **handshake** with a stateless cookie exchange
//!   (induction → cookie → conclusion → agreement);
//! * **32-bit wrapping sequence numbers** compared with serial arithmetic
//!   ([`seq_cmp`]/[`seq_distance`], RFC 1982 style);
//! * receiver-side **loss detection** ([`RecvTracker`]) emitting
//!   compressed-range **NAKs** ([`compress_ranges`]);
//! * a sender-side **retransmit queue** with bounded occupancy and
//!   ACK-driven drain ([`RetxQueue`]);
//! * a configurable **latency window**: a packet that cannot be recovered
//!   before `origin + window` is deliberately too late and is dropped
//!   ([`too_late`]), never stalling the player.
//!
//! Everything here is a pure state machine over explicit inputs — no
//! clocks, no randomness — so the simulation layers above can drive it
//! deterministically (DESIGN.md §12).

use crate::filler::{Body, Sink};
use crate::ProtoError;
use std::ops::Range;

/// Protocol version advertised in the handshake (SRT v1.x wire version 5).
pub const SRT_VERSION: u32 = 5;

/// Bytes of header on each data packet (type + seq + origin timestamp +
/// message number + length).
pub const DATA_HEADER_BYTES: usize = 15;

/// Default receiver latency window, microseconds (SRT's default is 120 ms;
/// the ingest sessions run a broadcast-friendlier budget).
pub const DEFAULT_LATENCY_US: u64 = 800_000;

/// Upper bound on one NAK range's span, packets. Decoding rejects wider
/// ranges: with a bounded latency window the receiver can never legitimately
/// track more outstanding loss than this.
pub const MAX_NAK_RANGE: u32 = 1 << 16;

// --- serial sequence arithmetic -----------------------------------------

/// Wraparound-safe comparison of 32-bit sequence numbers: `a` precedes `b`
/// when the forward distance from `a` to `b` is smaller than the backward
/// one (RFC 1982 serial arithmetic; the two half-spaces meet at 2^31, which
/// a bounded latency window keeps unreachable).
pub fn seq_cmp(a: u32, b: u32) -> std::cmp::Ordering {
    (a.wrapping_sub(b) as i32).cmp(&0)
}

/// Forward distance from `a` to `b` (how many increments take `a` to `b`),
/// wrapping through zero.
pub fn seq_distance(a: u32, b: u32) -> u32 {
    b.wrapping_sub(a)
}

/// `a + n` in sequence space.
pub fn seq_add(a: u32, n: u32) -> u32 {
    a.wrapping_add(n)
}

// --- NAK range compression ----------------------------------------------

/// Compresses a run of lost sequence numbers (in wrap-forward order) into
/// inclusive `(first, last)` ranges, merging consecutive numbers — the
/// compressed-range loss lists SRT NAK packets carry.
pub fn compress_ranges(seqs: &[u32]) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    for &s in seqs {
        match out.last_mut() {
            Some((_, last)) if seq_add(*last, 1) == s => *last = s,
            _ => out.push((s, s)),
        }
    }
    out
}

/// Expands inclusive `(first, last)` ranges back into the sequence run.
/// Rejects a range wider than [`MAX_NAK_RANGE`] (a corrupt or hostile NAK
/// would otherwise expand to billions of entries).
pub fn expand_ranges(ranges: &[(u32, u32)]) -> Result<Vec<u32>, ProtoError> {
    let mut out = Vec::new();
    for &(first, last) in ranges {
        let n = seq_distance(first, last);
        if n >= MAX_NAK_RANGE {
            return Err(ProtoError::Protocol(format!("NAK range {first}..{last} too wide")));
        }
        for i in 0..=n {
            out.push(seq_add(first, i));
        }
    }
    Ok(out)
}

// --- wire format ---------------------------------------------------------

/// A data packet: one MTU-bounded slice of the media stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPacket {
    /// Packet sequence number (increments per packet, wraps at 2^32).
    pub seq: u32,
    /// Origin timestamp, microseconds since the stream epoch — what the
    /// receiver's latency window is measured against.
    pub origin_ts_us: u32,
    /// Message (frame) number this packet belongs to.
    pub msg: u32,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Control packets of the handshake and ARQ loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlPacket {
    /// Caller → listener: first contact.
    Induction {
        /// Advertised protocol version.
        version: u32,
        /// Caller-chosen connection id.
        caller_id: u32,
    },
    /// Listener → caller: the stateless cookie challenge.
    Cookie {
        /// Cookie the conclusion must echo.
        cookie: u32,
    },
    /// Caller → listener: echoes the cookie, proposes stream parameters.
    Conclusion {
        /// Echoed cookie.
        cookie: u32,
        /// Caller connection id (must match the induction).
        caller_id: u32,
        /// First data sequence number the caller will send.
        initial_seq: u32,
        /// Receiver latency window, milliseconds.
        latency_ms: u32,
    },
    /// Listener → caller: connection established.
    Agreement {
        /// Agreed first sequence number.
        initial_seq: u32,
        /// Agreed latency window, milliseconds.
        latency_ms: u32,
    },
    /// Receiver → sender: cumulative acknowledgement (everything strictly
    /// before `ack_seq` is delivered or given up on).
    Ack {
        /// Next sequence number the receiver expects.
        ack_seq: u32,
    },
    /// Receiver → sender: compressed-range loss report.
    Nak {
        /// Inclusive `(first, last)` lost ranges, wrap-forward order.
        ranges: Vec<(u32, u32)>,
    },
    /// Either side: orderly teardown.
    Shutdown,
}

/// Any SRT packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Media payload.
    Data(DataPacket),
    /// Handshake/ARQ control.
    Control(ControlPacket),
}

const TYPE_DATA: u8 = 0;
const TYPE_INDUCTION: u8 = 1;
const TYPE_COOKIE: u8 = 2;
const TYPE_CONCLUSION: u8 = 3;
const TYPE_AGREEMENT: u8 = 4;
const TYPE_ACK: u8 = 5;
const TYPE_NAK: u8 = 6;
const TYPE_SHUTDOWN: u8 = 7;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn get_u32(buf: &[u8], at: usize) -> Result<u32, ProtoError> {
    let b = buf.get(at..at + 4).ok_or(ProtoError::Truncated)?;
    Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
}

/// Encodes a packet into `out` (appending; the caller owns framing).
pub fn encode_packet(p: &Packet, out: &mut Vec<u8>) {
    match p {
        Packet::Data(d) => {
            let payload = Body::from(&d.payload);
            write_data(d.seq, d.origin_ts_us, d.msg, payload, 0..payload.len(), out)
        }
        Packet::Control(c) => match c {
            ControlPacket::Induction { version, caller_id } => {
                out.push(TYPE_INDUCTION);
                put_u32(out, *version);
                put_u32(out, *caller_id);
            }
            ControlPacket::Cookie { cookie } => {
                out.push(TYPE_COOKIE);
                put_u32(out, *cookie);
            }
            ControlPacket::Conclusion { cookie, caller_id, initial_seq, latency_ms } => {
                out.push(TYPE_CONCLUSION);
                put_u32(out, *cookie);
                put_u32(out, *caller_id);
                put_u32(out, *initial_seq);
                put_u32(out, *latency_ms);
            }
            ControlPacket::Agreement { initial_seq, latency_ms } => {
                out.push(TYPE_AGREEMENT);
                put_u32(out, *initial_seq);
                put_u32(out, *latency_ms);
            }
            ControlPacket::Ack { ack_seq } => {
                out.push(TYPE_ACK);
                put_u32(out, *ack_seq);
            }
            ControlPacket::Nak { ranges } => {
                out.push(TYPE_NAK);
                out.extend_from_slice(&(ranges.len() as u16).to_be_bytes());
                for &(first, last) in ranges {
                    put_u32(out, first);
                    put_u32(out, last);
                }
            }
            ControlPacket::Shutdown => out.push(TYPE_SHUTDOWN),
        },
    }
}

/// Writes the data packet that carries bytes `range` of message `msg`'s
/// `body` — what [`encode_packet`] writes for a [`DataPacket`] holding
/// them — into `out`, the body's filler slice handed over as a filler.
pub fn write_data(
    seq: u32,
    origin_ts_us: u32,
    msg: u32,
    body: Body<'_>,
    range: Range<usize>,
    out: &mut impl Sink,
) {
    let head = out.literal();
    head.push(TYPE_DATA);
    put_u32(head, seq);
    put_u32(head, origin_ts_us);
    put_u32(head, msg);
    head.extend_from_slice(&(range.len() as u16).to_be_bytes());
    body.write_range(range.start, range.end, out);
}

/// Decodes one packet from the front of `buf`; returns it plus the bytes
/// consumed.
pub fn decode_packet(buf: &[u8]) -> Result<(Packet, usize), ProtoError> {
    let &ty = buf.first().ok_or(ProtoError::Truncated)?;
    match ty {
        TYPE_DATA => {
            let seq = get_u32(buf, 1)?;
            let origin_ts_us = get_u32(buf, 5)?;
            let msg = get_u32(buf, 9)?;
            let len_b = buf.get(13..15).ok_or(ProtoError::Truncated)?;
            let len = u16::from_be_bytes([len_b[0], len_b[1]]) as usize;
            let payload = buf.get(15..15 + len).ok_or(ProtoError::Truncated)?.to_vec();
            Ok((Packet::Data(DataPacket { seq, origin_ts_us, msg, payload }), 15 + len))
        }
        TYPE_INDUCTION => {
            let version = get_u32(buf, 1)?;
            let caller_id = get_u32(buf, 5)?;
            Ok((Packet::Control(ControlPacket::Induction { version, caller_id }), 9))
        }
        TYPE_COOKIE => Ok((Packet::Control(ControlPacket::Cookie { cookie: get_u32(buf, 1)? }), 5)),
        TYPE_CONCLUSION => {
            let cookie = get_u32(buf, 1)?;
            let caller_id = get_u32(buf, 5)?;
            let initial_seq = get_u32(buf, 9)?;
            let latency_ms = get_u32(buf, 13)?;
            Ok((
                Packet::Control(ControlPacket::Conclusion {
                    cookie,
                    caller_id,
                    initial_seq,
                    latency_ms,
                }),
                17,
            ))
        }
        TYPE_AGREEMENT => {
            let initial_seq = get_u32(buf, 1)?;
            let latency_ms = get_u32(buf, 5)?;
            Ok((Packet::Control(ControlPacket::Agreement { initial_seq, latency_ms }), 9))
        }
        TYPE_ACK => Ok((Packet::Control(ControlPacket::Ack { ack_seq: get_u32(buf, 1)? }), 5)),
        TYPE_NAK => {
            let n_b = buf.get(1..3).ok_or(ProtoError::Truncated)?;
            let n = u16::from_be_bytes([n_b[0], n_b[1]]) as usize;
            let mut ranges = Vec::with_capacity(n);
            for i in 0..n {
                let first = get_u32(buf, 3 + 8 * i)?;
                let last = get_u32(buf, 7 + 8 * i)?;
                if seq_distance(first, last) >= MAX_NAK_RANGE {
                    return Err(ProtoError::Protocol(format!(
                        "NAK range {first}..{last} too wide"
                    )));
                }
                ranges.push((first, last));
            }
            Ok((Packet::Control(ControlPacket::Nak { ranges }), 3 + 8 * n))
        }
        TYPE_SHUTDOWN => Ok((Packet::Control(ControlPacket::Shutdown), 1)),
        other => Err(ProtoError::Malformed(format!("unknown SRT packet type {other}"))),
    }
}

// --- handshake -----------------------------------------------------------

/// Deterministic listener cookie: a pure function of the listener's secret
/// and the caller id, so the listener holds no per-connection state until a
/// valid conclusion arrives (SYN-cookie discipline).
pub fn cookie_for(listener_secret: u64, caller_id: u32) -> u32 {
    let mut z = listener_secret ^ (caller_id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as u32
}

/// Caller handshake states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallerState {
    /// Induction sent, waiting for the cookie.
    Inducing,
    /// Conclusion sent, waiting for the agreement.
    Concluding,
    /// Connected: data may flow.
    Connected,
}

/// The caller (broadcaster) side of the handshake.
#[derive(Debug, Clone)]
pub struct Caller {
    state: CallerState,
    caller_id: u32,
    initial_seq: u32,
    latency_ms: u32,
}

impl Caller {
    /// Creates a caller about to send its induction.
    pub fn new(caller_id: u32, initial_seq: u32, latency_ms: u32) -> Self {
        Caller { state: CallerState::Inducing, caller_id, initial_seq, latency_ms }
    }

    /// Current state.
    pub fn state(&self) -> CallerState {
        self.state
    }

    /// Whether the handshake completed.
    pub fn connected(&self) -> bool {
        self.state == CallerState::Connected
    }

    /// The packet to (re)send in the current state, `None` once connected.
    pub fn next_packet(&self) -> Option<ControlPacket> {
        match self.state {
            CallerState::Inducing => {
                Some(ControlPacket::Induction { version: SRT_VERSION, caller_id: self.caller_id })
            }
            CallerState::Concluding => None, // conclusion is built in on_packet
            CallerState::Connected => None,
        }
    }

    /// Feeds a listener packet; returns the caller's response, if any.
    pub fn on_packet(&mut self, p: &ControlPacket) -> Result<Option<ControlPacket>, ProtoError> {
        match (self.state, p) {
            (CallerState::Inducing, ControlPacket::Cookie { cookie }) => {
                self.state = CallerState::Concluding;
                Ok(Some(ControlPacket::Conclusion {
                    cookie: *cookie,
                    caller_id: self.caller_id,
                    initial_seq: self.initial_seq,
                    latency_ms: self.latency_ms,
                }))
            }
            (CallerState::Concluding, ControlPacket::Agreement { initial_seq, latency_ms }) => {
                if *initial_seq != self.initial_seq {
                    return Err(ProtoError::Protocol("agreement seq mismatch".into()));
                }
                self.latency_ms = *latency_ms;
                self.state = CallerState::Connected;
                Ok(None)
            }
            _ => Ok(None), // stray or duplicate packet: ignore
        }
    }
}

/// The listener (ingest gateway) side: stateless until a valid conclusion.
#[derive(Debug, Clone, Copy)]
pub struct Listener {
    secret: u64,
}

impl Listener {
    /// Creates a listener with a cookie secret.
    pub fn new(secret: u64) -> Self {
        Listener { secret }
    }

    /// Handles a caller packet. Returns the response to send, plus the
    /// accepted `(initial_seq, latency_ms)` once a valid conclusion lands.
    #[allow(clippy::type_complexity)]
    pub fn on_packet(
        &self,
        p: &ControlPacket,
    ) -> Result<(Option<ControlPacket>, Option<(u32, u32)>), ProtoError> {
        match p {
            ControlPacket::Induction { version, caller_id } => {
                if *version != SRT_VERSION {
                    return Err(ProtoError::Protocol(format!("unsupported version {version}")));
                }
                Ok((
                    Some(ControlPacket::Cookie { cookie: cookie_for(self.secret, *caller_id) }),
                    None,
                ))
            }
            ControlPacket::Conclusion { cookie, caller_id, initial_seq, latency_ms } => {
                if *cookie != cookie_for(self.secret, *caller_id) {
                    return Err(ProtoError::Protocol("bad cookie".into()));
                }
                Ok((
                    Some(ControlPacket::Agreement {
                        initial_seq: *initial_seq,
                        latency_ms: *latency_ms,
                    }),
                    Some((*initial_seq, *latency_ms)),
                ))
            }
            _ => Ok((None, None)),
        }
    }
}

// --- receiver loss detection ---------------------------------------------

/// What the receiver did with one arriving data packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvEvent {
    /// In-order (or duplicate) arrival; no loss signal.
    InOrder,
    /// The arrival exposed a gap: these ranges are newly lost and should go
    /// out in a NAK.
    Gap(Vec<(u32, u32)>),
    /// A retransmission filled a tracked hole.
    Recovered,
}

/// Receiver-side sequence tracker: detects gaps, keeps the outstanding loss
/// list, and retires entries that are recovered or given up on.
#[derive(Debug, Clone)]
pub struct RecvTracker {
    /// Next sequence number expected in order.
    next: u32,
    /// Outstanding lost sequences, wrap-forward order.
    lost: Vec<u32>,
}

impl RecvTracker {
    /// Creates a tracker expecting `initial_seq` first.
    pub fn new(initial_seq: u32) -> Self {
        RecvTracker { next: initial_seq, lost: Vec::new() }
    }

    /// Next in-order sequence number expected.
    pub fn next_expected(&self) -> u32 {
        self.next
    }

    /// Outstanding lost sequences.
    pub fn outstanding(&self) -> &[u32] {
        &self.lost
    }

    /// Cumulative ACK value: everything strictly before it is accounted for
    /// (delivered, recovered, or abandoned) — the earliest outstanding loss,
    /// or `next` when none.
    pub fn ack_seq(&self) -> u32 {
        self.lost.first().copied().unwrap_or(self.next)
    }

    /// Processes an arriving data sequence number.
    pub fn on_data(&mut self, seq: u32) -> RecvEvent {
        match seq_cmp(seq, self.next) {
            std::cmp::Ordering::Equal => {
                self.next = seq_add(self.next, 1);
                RecvEvent::InOrder
            }
            std::cmp::Ordering::Greater => {
                // Gap: everything from `next` to `seq - 1` is missing.
                let n = seq_distance(self.next, seq);
                let mut fresh = Vec::with_capacity(n as usize);
                for i in 0..n {
                    fresh.push(seq_add(self.next, i));
                }
                self.lost.extend_from_slice(&fresh);
                self.next = seq_add(seq, 1);
                RecvEvent::Gap(compress_ranges(&fresh))
            }
            std::cmp::Ordering::Less => {
                // Behind the horizon: a retransmission (or duplicate).
                match self.lost.iter().position(|&s| s == seq) {
                    Some(i) => {
                        self.lost.remove(i);
                        RecvEvent::Recovered
                    }
                    None => RecvEvent::InOrder,
                }
            }
        }
    }

    /// Gives up on `seq` (its latency window expired): retires it from the
    /// loss list so later ACKs advance past it.
    pub fn abandon(&mut self, seq: u32) {
        if let Some(i) = self.lost.iter().position(|&s| s == seq) {
            self.lost.remove(i);
        }
    }
}

// --- sender retransmit queue ---------------------------------------------

/// One packet held for possible retransmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetxEntry {
    /// Packet sequence number.
    pub seq: u32,
    /// Payload length, bytes.
    pub bytes: usize,
    /// Origin timestamp, microseconds since the stream epoch.
    pub origin_ts_us: u64,
}

/// Sender-side retransmit queue: bounded occupancy, ACK-driven drain.
///
/// Every sent packet is pushed; a cumulative ACK drains everything before
/// it; a NAK looks entries up by sequence number. When pushing would exceed
/// the byte bound, the *oldest* entries are evicted (they are the nearest
/// to their latency deadline, hence the least worth keeping).
#[derive(Debug, Clone)]
pub struct RetxQueue {
    cap_bytes: usize,
    q: std::collections::VecDeque<RetxEntry>,
    bytes: usize,
    /// Entries evicted by the occupancy bound (no longer retransmittable).
    pub evicted: u64,
}

impl RetxQueue {
    /// Creates a queue bounded at `cap_bytes` of payload.
    pub fn new(cap_bytes: usize) -> Self {
        RetxQueue { cap_bytes, q: std::collections::VecDeque::new(), bytes: 0, evicted: 0 }
    }

    /// Packets currently held.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Payload bytes currently held.
    pub fn occupancy_bytes(&self) -> usize {
        self.bytes
    }

    /// Records a sent packet; evicts from the front if over the bound.
    pub fn push(&mut self, e: RetxEntry) {
        self.bytes += e.bytes;
        self.q.push_back(e);
        while self.bytes > self.cap_bytes && self.q.len() > 1 {
            let old = self.q.pop_front().expect("len > 1");
            self.bytes -= old.bytes;
            self.evicted += 1;
        }
    }

    /// Drains everything strictly before `ack_seq`.
    pub fn ack_through(&mut self, ack_seq: u32) {
        while let Some(front) = self.q.front() {
            if seq_cmp(front.seq, ack_seq) == std::cmp::Ordering::Less {
                self.bytes -= front.bytes;
                self.q.pop_front();
            } else {
                break;
            }
        }
    }

    /// Looks up a NAKed packet, if still held.
    pub fn get(&self, seq: u32) -> Option<RetxEntry> {
        self.q.iter().find(|e| e.seq == seq).copied()
    }
}

// --- latency window ------------------------------------------------------

/// Whether a recovery arriving at `candidate_us` for a packet originated at
/// `origin_us` blows the latency window: if so the packet is dropped and
/// concealed instead of delivered late.
pub fn too_late(origin_us: u64, candidate_us: u64, window_us: u64) -> bool {
    candidate_us > origin_us + window_us
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn seq_arithmetic_handles_wrap() {
        assert_eq!(seq_cmp(5, 5), Ordering::Equal);
        assert_eq!(seq_cmp(5, 6), Ordering::Less);
        assert_eq!(seq_cmp(u32::MAX, 0), Ordering::Less);
        assert_eq!(seq_cmp(0, u32::MAX), Ordering::Greater);
        assert_eq!(seq_distance(u32::MAX, 1), 2);
        assert_eq!(seq_add(u32::MAX, 2), 1);
    }

    #[test]
    fn ranges_compress_and_expand() {
        let seqs = [7u32, 8, 9, 11, 20, 21];
        let ranges = compress_ranges(&seqs);
        assert_eq!(ranges, vec![(7, 9), (11, 11), (20, 21)]);
        assert_eq!(expand_ranges(&ranges).unwrap(), seqs);
    }

    #[test]
    fn ranges_compress_across_wrap() {
        let seqs = [u32::MAX - 1, u32::MAX, 0, 1];
        let ranges = compress_ranges(&seqs);
        assert_eq!(ranges, vec![(u32::MAX - 1, 1)]);
        assert_eq!(expand_ranges(&ranges).unwrap(), seqs);
    }

    #[test]
    fn absurd_range_rejected() {
        assert!(expand_ranges(&[(0, 1 << 20)]).is_err());
    }

    #[test]
    fn packets_round_trip() {
        let pkts = vec![
            Packet::Data(DataPacket {
                seq: u32::MAX,
                origin_ts_us: 123_456,
                msg: 42,
                payload: vec![9; 100],
            }),
            Packet::Control(ControlPacket::Induction { version: SRT_VERSION, caller_id: 7 }),
            Packet::Control(ControlPacket::Cookie { cookie: 0xdead_beef }),
            Packet::Control(ControlPacket::Conclusion {
                cookie: 1,
                caller_id: 7,
                initial_seq: u32::MAX - 3,
                latency_ms: 800,
            }),
            Packet::Control(ControlPacket::Agreement { initial_seq: 5, latency_ms: 800 }),
            Packet::Control(ControlPacket::Ack { ack_seq: 0 }),
            Packet::Control(ControlPacket::Nak { ranges: vec![(u32::MAX, 2), (9, 9)] }),
            Packet::Control(ControlPacket::Shutdown),
        ];
        let mut buf = Vec::new();
        for p in &pkts {
            encode_packet(p, &mut buf);
        }
        let mut at = 0;
        for p in &pkts {
            let (got, used) = decode_packet(&buf[at..]).unwrap();
            assert_eq!(&got, p);
            at += used;
        }
        assert_eq!(at, buf.len());
    }

    #[test]
    fn truncated_and_unknown_rejected() {
        assert_eq!(decode_packet(&[]), Err(ProtoError::Truncated));
        assert_eq!(decode_packet(&[TYPE_ACK, 0, 0]), Err(ProtoError::Truncated));
        assert!(matches!(decode_packet(&[99]), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn handshake_completes_in_two_round_trips() {
        let listener = Listener::new(0x5eed);
        let mut caller = Caller::new(7, u32::MAX - 10, 800);
        let induction = caller.next_packet().unwrap();
        let (cookie, accepted) = listener.on_packet(&induction).unwrap();
        assert!(accepted.is_none(), "listener stays stateless after induction");
        let conclusion = caller.on_packet(&cookie.unwrap()).unwrap().unwrap();
        let (agreement, accepted) = listener.on_packet(&conclusion).unwrap();
        assert_eq!(accepted, Some((u32::MAX - 10, 800)));
        assert!(caller.on_packet(&agreement.unwrap()).unwrap().is_none());
        assert!(caller.connected());
    }

    #[test]
    fn forged_cookie_rejected() {
        let listener = Listener::new(0x5eed);
        let bad = ControlPacket::Conclusion {
            cookie: 0x1234_5678,
            caller_id: 7,
            initial_seq: 0,
            latency_ms: 800,
        };
        assert!(matches!(listener.on_packet(&bad), Err(ProtoError::Protocol(_))));
    }

    #[test]
    fn cookie_is_per_caller() {
        assert_ne!(cookie_for(1, 7), cookie_for(1, 8));
        assert_ne!(cookie_for(1, 7), cookie_for(2, 7));
        assert_eq!(cookie_for(1, 7), cookie_for(1, 7));
    }

    #[test]
    fn version_mismatch_rejected() {
        let listener = Listener::new(1);
        let p = ControlPacket::Induction { version: 99, caller_id: 1 };
        assert!(matches!(listener.on_packet(&p), Err(ProtoError::Protocol(_))));
    }

    #[test]
    fn recv_tracker_detects_gaps_and_recovers() {
        let mut t = RecvTracker::new(10);
        assert_eq!(t.on_data(10), RecvEvent::InOrder);
        assert_eq!(t.on_data(11), RecvEvent::InOrder);
        // 12 and 13 go missing.
        assert_eq!(t.on_data(14), RecvEvent::Gap(vec![(12, 13)]));
        assert_eq!(t.ack_seq(), 12, "ACK stops at the first hole");
        assert_eq!(t.on_data(12), RecvEvent::Recovered);
        assert_eq!(t.ack_seq(), 13);
        t.abandon(13);
        assert_eq!(t.ack_seq(), 15, "abandoning the last hole advances the ACK");
        assert!(t.outstanding().is_empty());
    }

    #[test]
    fn recv_tracker_across_wrap() {
        let mut t = RecvTracker::new(u32::MAX - 1);
        assert_eq!(t.on_data(u32::MAX - 1), RecvEvent::InOrder);
        // Lose MAX and 0; 1 arrives.
        assert_eq!(t.on_data(1), RecvEvent::Gap(vec![(u32::MAX, 0)]));
        assert_eq!(t.on_data(u32::MAX), RecvEvent::Recovered);
        assert_eq!(t.on_data(0), RecvEvent::Recovered);
        assert_eq!(t.next_expected(), 2);
        assert_eq!(t.ack_seq(), 2);
    }

    #[test]
    fn duplicate_arrival_is_inorder_noop() {
        let mut t = RecvTracker::new(0);
        t.on_data(0);
        assert_eq!(t.on_data(0), RecvEvent::InOrder);
        assert_eq!(t.next_expected(), 1);
    }

    #[test]
    fn retx_queue_drains_on_ack_and_bounds_occupancy() {
        let mut q = RetxQueue::new(2500);
        for i in 0..3u32 {
            q.push(RetxEntry { seq: i, bytes: 1000, origin_ts_us: i as u64 * 10 });
        }
        // Third push exceeded 2500: oldest evicted.
        assert_eq!(q.evicted, 1);
        assert_eq!(q.len(), 2);
        assert!(q.get(0).is_none());
        assert!(q.get(1).is_some());
        q.ack_through(2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.occupancy_bytes(), 1000);
        q.ack_through(3);
        assert!(q.is_empty());
    }

    #[test]
    fn retx_queue_ack_respects_wrap() {
        let mut q = RetxQueue::new(usize::MAX);
        q.push(RetxEntry { seq: u32::MAX, bytes: 10, origin_ts_us: 0 });
        q.push(RetxEntry { seq: 0, bytes: 10, origin_ts_us: 1 });
        q.ack_through(0);
        assert_eq!(q.len(), 1, "MAX precedes 0 in serial order");
        assert_eq!(q.get(0).unwrap().seq, 0);
    }

    #[test]
    fn latency_window_gate() {
        assert!(!too_late(1000, 1500, 800));
        assert!(too_late(1000, 2000, 800));
        assert!(!too_late(1000, 1800, 800), "boundary arrival is in time");
    }
}
