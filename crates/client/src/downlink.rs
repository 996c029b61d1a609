//! The downstream wire of a session: what the server side queues to send,
//! and what the capture host records of it.
//!
//! A session is run for its QoE numbers and, sometimes, for its capture.
//! Which is the *caller's* retention decision ([`Recording`]): the Teleport
//! plan knows before a session starts whether its capture will be kept, and
//! the scale engine keeps none. An uncaptured session runs the same schedule
//! — same packets at the same instants through the same link, fault and
//! clock calls — but every buffer here holds **lengths, not bytes**: an
//! [`Arena`] only counts what a full one would store, and each packet
//! reaches the unchanged [`Capture`] as a run of its on-wire length. The
//! choice is made in one place, [`Arena::extend_with`]; callers state a
//! length and how to write it, and never ask which mode they are in.
//!
//! In either mode the [`Tap`] stamps a packet without reading its clock: a
//! reading is a pure function of (clock, instant, position in the jitter
//! stream), so each packet is recorded with the position
//! ([`Flow::record_deferred`])
//! and the stream moves on as if it had been read. Whoever reads a stamp —
//! the analysis, for the packets that carry an NTP-stamped frame — gets the
//! reading the eager call would have stored, and a session pays no
//! Box–Muller per packet.

use pscp_media::capture::{Capture, Flow, FlowKind, Payload};
use pscp_proto::tls::{self, TlsChannel};
use pscp_simnet::fault::LinkFaults;
use pscp_simnet::rng::CounterRng;
use pscp_simnet::{Link, SimDuration, SimTime, WallClock};
use std::ops::Range;

/// Whether the session's capture will be read by anyone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Recording {
    /// The capture is kept: every on-wire byte is produced and recorded.
    Full,
    /// The capture is dropped when the session ends: packets are recorded
    /// with their times and lengths only.
    Counted,
}

/// An append-only byte arena that, for a [`Recording::Counted`] session,
/// stores nothing and only advances its length. Offsets mean the same in
/// both modes, so callers keep ranges into it either way.
pub(crate) struct Arena {
    recording: Recording,
    data: Vec<u8>,
    len: usize,
}

impl Arena {
    /// An empty arena; `capacity` bytes are reserved only if bytes are kept.
    pub fn new(recording: Recording, capacity: usize) -> Self {
        let capacity = if recording == Recording::Full { capacity } else { 0 };
        Arena { recording, data: Vec::with_capacity(capacity), len: 0 }
    }

    fn keeps_bytes(&self) -> bool {
        self.recording == Recording::Full
    }

    /// Bytes appended so far (written or counted).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Appends `n` bytes and returns their range: `write` produces them if
    /// bytes are kept, and is never called otherwise. This is the one place
    /// "keep or count" is decided.
    pub fn extend_with(&mut self, n: usize, write: impl FnOnce(&mut Vec<u8>)) -> Range<usize> {
        let start = self.len;
        if self.keeps_bytes() {
            write(&mut self.data);
            assert_eq!(self.data.len(), start + n, "writer produced another length than stated");
        }
        self.len = start + n;
        start..self.len
    }

    /// Appends literal bytes.
    pub fn extend(&mut self, bytes: &[u8]) -> Range<usize> {
        self.extend_with(bytes.len(), |data| data.extend_from_slice(bytes))
    }

    /// The bytes at `range`. Only reachable from inside an
    /// [`Arena::extend_with`] writer of a kept arena — i.e. never in a
    /// counted session.
    pub fn bytes(&self, range: Range<usize>) -> &[u8] {
        assert!(self.keeps_bytes(), "a counted arena holds no bytes");
        &self.data[range]
    }

    /// `range` followed by `pad` copies of `fill`, as a capture payload; a
    /// counted arena answers with a run of the same on-wire length.
    pub fn payload(&self, range: Range<usize>, fill: u8, pad: usize) -> Payload<'_> {
        if self.keeps_bytes() {
            Payload::run(&self.data[range], fill, pad)
        } else {
            Payload::run(&[], 0, range.len() + pad)
        }
    }

    /// How many literal bytes a capture stores for `range`.
    pub fn literal_len(&self, range: Range<usize>) -> usize {
        if self.keeps_bytes() {
            range.len()
        } else {
            0
        }
    }
}

/// One queued transmission: `arena[start..end]` followed by a run of `pad`
/// × `fill` that is never written out (picture bodies, bootstrap), plus
/// whatever the transport wants back when it is delivered.
struct Send<M> {
    at: SimTime,
    flow: usize,
    start: usize,
    end: usize,
    fill: u8,
    pad: usize,
    tag: M,
}

/// A queued transmission as the transmit loop sees it.
pub(crate) struct Queued<'a, M> {
    /// Server-side send instant.
    pub at: SimTime,
    /// Capture flow it belongs to.
    pub flow: usize,
    /// The transport's own per-send data.
    pub tag: &'a M,
    /// On-wire bytes.
    pub payload: Payload<'a>,
}

/// Everything a session sends over its reliable downstream connections
/// (RTMP chunk stream, app bootstrap, chat, pictures), in one arena. Sorting
/// by time moves small records, not payloads, and the transmit loop borrows
/// MTU-sized windows straight out of the arena — no per-message or
/// per-packet `Vec`.
pub(crate) struct SendQueue<M> {
    arena: Arena,
    sends: Vec<Send<M>>,
}

impl<M> SendQueue<M> {
    /// An empty queue sized for `sends` transmissions of `literal_bytes`
    /// literal bytes in total.
    pub fn new(recording: Recording, literal_bytes: usize, sends: usize) -> Self {
        SendQueue { arena: Arena::new(recording, literal_bytes), sends: Vec::with_capacity(sends) }
    }

    /// Queues `head` followed by `pad` copies of `fill`.
    pub fn push(&mut self, at: SimTime, flow: usize, head: &[u8], fill: u8, pad: usize, tag: M) {
        let Range { start, end } = self.arena.extend(head);
        self.sends.push(Send { at, flow, start, end, fill, pad, tag });
    }

    /// Queues the `n` bytes `write` appends (see [`Arena::extend_with`]).
    pub fn push_with(
        &mut self,
        at: SimTime,
        flow: usize,
        n: usize,
        tag: M,
        write: impl FnOnce(&mut Vec<u8>),
    ) {
        let Range { start, end } = self.arena.extend_with(n, write);
        self.sends.push(Send { at, flow, start, end, fill: 0, pad: 0, tag });
    }

    /// Seals every send of `flow` into TLS records, in push order (the
    /// record sequence must match the byte order the plaintext was laid
    /// down in). The arena is rebuilt; other flows' bytes move unchanged.
    pub fn seal_flow(&mut self, flow: usize, tls: &mut TlsChannel) {
        let mut sealed = Arena::new(self.arena.recording, self.arena.len() + self.arena.len() / 8);
        for send in &mut self.sends {
            let plain = send.start..send.end;
            let Range { start, end } = if send.flow == flow {
                sealed.extend_with(tls::sealed_len(plain.len()), |data| {
                    data.extend_from_slice(&tls.seal(self.arena.bytes(plain)))
                })
            } else {
                sealed.extend_with(plain.len(), |data| {
                    data.extend_from_slice(self.arena.bytes(plain.clone()))
                })
            };
            (send.start, send.end) = (start, end);
        }
        self.arena = sealed;
    }

    /// Orders the queue by send time. Stable: equal-time sends keep their
    /// push order, which keeps a chunk stream's byte order intact.
    pub fn sort_by_time(&mut self) {
        self.sends.sort_by_key(|s| s.at);
    }

    /// Pre-sizes `capture` for everything queued: the arena ranges say
    /// exactly how many literal bytes each flow records (runs take no
    /// space), and chunking the on-wire length bounds the packet count.
    pub fn reserve(&self, capture: &mut Capture, mtu: usize) {
        let mut flow_bytes = vec![0usize; capture.flows.len()];
        let mut flow_pkts = vec![0usize; capture.flows.len()];
        for s in &self.sends {
            flow_bytes[s.flow] += self.arena.literal_len(s.start..s.end);
            flow_pkts[s.flow] += (s.end - s.start + s.pad).div_ceil(mtu);
        }
        for (i, f) in capture.flows.iter_mut().enumerate() {
            f.reserve(flow_bytes[i], flow_pkts[i]);
        }
    }

    /// The `i`-th queued send.
    pub fn get(&self, i: usize) -> Queued<'_, M> {
        let s = &self.sends[i];
        Queued {
            at: s.at,
            flow: s.flow,
            tag: &s.tag,
            payload: self.arena.payload(s.start..s.end, s.fill, s.pad),
        }
    }

    /// The queued sends in order.
    pub fn iter(&self) -> impl Iterator<Item = Queued<'_, M>> {
        (0..self.sends.len()).map(|i| self.get(i))
    }
}

/// The capture host: tcpdump on the viewer's tethering desktop. Every
/// packet that arrives is stamped with the host clock — the reading left
/// for whoever asks — and recorded, as its bytes or for a counted session
/// as a run of its length.
pub(crate) struct Tap {
    /// What has been recorded so far.
    pub capture: Capture,
    recording: Recording,
    clock: WallClock,
    /// Per-flow latest arrival on a faulty reliable path: losses surface as
    /// retransmission delay, which can reorder packets relative to the
    /// fault-free FIFO; the capture stays per-flow monotone by flooring each
    /// arrival at its flow's previous one.
    floor: Vec<SimTime>,
}

impl Tap {
    /// A tap with an empty capture.
    pub fn new(recording: Recording, clock: WallClock) -> Self {
        Tap { capture: Capture::new(), recording, clock, floor: Vec::new() }
    }

    /// Opens a flow captured on this host, returning its index.
    pub fn open_flow(&mut self, kind: FlowKind, server: impl Into<String>) -> usize {
        self.capture.flows.push(Flow::on_host(kind, server, self.clock.clone()));
        self.capture.flows.len() - 1
    }

    /// Stamps and records one packet that arrived at `at`; `clock_rng`
    /// moves past the reading's jitter, which is left to be computed.
    pub fn record(
        &mut self,
        flow: usize,
        at: SimTime,
        payload: Payload<'_>,
        clock_rng: &mut CounterRng,
    ) {
        let payload = match self.recording {
            Recording::Full => payload,
            Recording::Counted => Payload::run(&[], 0, payload.len()),
        };
        self.capture.flows[flow].record_deferred(at, clock_rng, payload);
    }

    /// Sends the packets `chunks` over the reliable path at `at`: every
    /// packet offered to `link` in one batch, each delivery delayed by its
    /// injected fault (if the path has `faults`) and recorded. Returns the
    /// arrival of the last delivered packet.
    pub fn transmit<'p>(
        &mut self,
        link: &mut Link,
        mut faults: Option<&mut LinkFaults>,
        at: SimTime,
        flow: usize,
        mut chunks: impl Iterator<Item = Payload<'p>> + Clone,
        clock_rng: &mut CounterRng,
    ) -> Option<SimTime> {
        let mut last = None;
        link.enqueue_batch(at, chunks.clone().map(|c| c.len()), |delivery| {
            let chunk = chunks.next().expect("one chunk per offered size");
            let Some(mut arr) = delivery.time() else { return };
            if let Some(lf) = faults.as_deref_mut() {
                if self.floor.len() <= flow {
                    self.floor.resize(flow + 1, SimTime::ZERO);
                }
                arr = (arr + lf.packet_extra()).max(self.floor[flow]);
                self.floor[flow] = arr;
            }
            self.record(flow, arr, chunk, clock_rng);
            last = Some(arr);
        });
        last
    }

    /// Records an HTTP response — `head`, then `body` — sliced along the
    /// arrival schedule of its TCP transfer. An empty `body` stands for
    /// bytes nobody reads (bootstrap filler, a segment that was sized but
    /// never muxed): whatever the schedule carries past the head is a run
    /// of zeros. Each chunk is pushed back by the path's cumulative
    /// per-packet `faults`, which keeps the chunks in order; returns the
    /// total push-back.
    pub fn record_response(
        &mut self,
        mut faults: Option<&mut LinkFaults>,
        flow: usize,
        head: &[u8],
        body: &[u8],
        chunks: &[(SimTime, usize)],
        clock_rng: &mut CounterRng,
    ) -> SimDuration {
        let (h, mut off, mut extra) = (head.len(), 0, SimDuration::ZERO);
        for &(at, n) in chunks {
            if let Some(lf) = faults.as_deref_mut() {
                extra += lf.packet_extra();
            }
            let end = off + n;
            let head_part = &head[off.min(h)..end.min(h)];
            let body_part = off.saturating_sub(h)..end.saturating_sub(h);
            if body.is_empty() {
                let payload = Payload::run(head_part, 0, body_part.len());
                self.record(flow, at + extra, payload, clock_rng);
            } else if head_part.is_empty() {
                self.record(flow, at + extra, (&body[body_part]).into(), clock_rng);
            } else {
                // The one chunk that carries the head and the body's start.
                let both = [head_part, &body[body_part]].concat();
                self.record(flow, at + extra, (&both).into(), clock_rng);
            }
            off = end;
        }
        extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same pushes into a full and a counted queue.
    fn queues() -> [SendQueue<u8>; 2] {
        [Recording::Full, Recording::Counted].map(|recording| {
            let mut q = SendQueue::new(recording, 0, 0);
            q.push(SimTime::from_secs(3), 0, b"head", 0xD8, 5_000, 1);
            q.push_with(SimTime::from_secs(1), 1, 40_000, 2, |out| {
                out.resize(out.len() + 40_000, 7)
            });
            q.push(SimTime::from_secs(1), 1, &[], 0, 0, 3);
            q.push(SimTime::from_secs(2), 1, &[9; 17], 0, 0, 4);
            q
        })
    }

    fn shape(q: &SendQueue<u8>) -> Vec<(SimTime, usize, u8, usize)> {
        q.iter().map(|s| (s.at, s.flow, *s.tag, s.payload.len())).collect()
    }

    #[test]
    fn counted_queue_has_the_full_queues_shape_and_no_bytes() {
        let [mut full, mut counted] = queues();
        assert_eq!(shape(&full), shape(&counted));
        for q in [&mut full, &mut counted] {
            q.seal_flow(1, &mut TlsChannel::new(11));
            q.sort_by_time();
        }
        assert_eq!(shape(&full), shape(&counted));
        // Stable by time; the 40,000-byte send grew by three records' framing.
        let tags: Vec<u8> = full.iter().map(|s| *s.tag).collect();
        assert_eq!(tags, [2, 3, 4, 1]);
        assert_eq!(full.get(0).payload.len(), tls::sealed_len(40_000));
        assert_eq!(full.get(3).payload.bytes()[..4], *b"head");
        assert!(counted.iter().all(|s| s.payload.literal().is_empty()));
        assert_eq!(counted.arena.data.capacity(), 0, "a counted arena never allocates");
    }

    #[test]
    fn both_queues_transmit_the_same_packets_at_the_same_instants() {
        let recorded = queues().map(|mut q| {
            q.sort_by_time();
            let mut tap = Tap::new(q.arena.recording, WallClock::perfect());
            tap.open_flow(FlowKind::AppMisc, "a");
            tap.open_flow(FlowKind::Rtmp, "b");
            q.reserve(&mut tap.capture, 1448);
            let mut link = Link::unbounded(2e6, SimDuration::from_millis(30));
            let mut rng = pscp_simnet::RngFactory::new(1).stream("tap");
            let last: Vec<Option<SimTime>> = q
                .iter()
                .map(|s| {
                    tap.transmit(&mut link, None, s.at, s.flow, s.payload.chunks(1448), &mut rng)
                })
                .collect();
            let packets: Vec<Vec<(SimTime, usize)>> = tap
                .capture
                .flows
                .iter()
                .map(|f| f.packets().map(|p| (p.at, p.payload.len())).collect())
                .collect();
            (last, packets)
        });
        assert_eq!(recorded[0], recorded[1]);
        assert_eq!(recorded[0].0[1], None, "an empty send delivers nothing");
        assert_eq!(recorded[0].1[1].len(), 40_000usize.div_ceil(1448) + 1);
    }

    #[test]
    #[should_panic(expected = "another length than stated")]
    fn a_writer_that_misstates_its_length_is_caught() {
        Arena::new(Recording::Full, 0).extend_with(3, |out| out.extend_from_slice(b"four"));
    }
}
