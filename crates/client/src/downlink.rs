//! The downstream wire of a session: what the server side queues to send,
//! and what the capture host records of it.
//!
//! **A captured byte is written when it is read, at most once.** Nothing
//! here holds media bytes: a queued send is a *descriptor* — when, on which
//! flow, how long, and what writes it — and when it is transmitted its
//! writer hands it to the capture [`Flow`] ([`Flow::append_with`] hands
//! the writer the flow as a [`Sink`]): head and framing bytes into its
//! arena, a body's filler as a generated piece; the packets the link
//! delivers are then cut over them by length. A chat send — a WebSocket
//! frame around a JSON body, or a picture's response head before its body
//! — is one *item* of the session's chat list, which the queue makes once
//! and the flow records by index; the flow writes an item, like a piece,
//! only when a reader asks. Handshakes and control messages, queued as they
//! are, are the only literal bytes a [`SendQueue`] stores.
//!
//! A session is run for its QoE numbers and, sometimes, for its capture.
//! Which is the *caller's* retention decision ([`Recording`]): the Teleport
//! plan knows before a session starts whether its capture will be kept, and
//! the scale engine keeps none. An uncaptured session runs the same schedule
//! — same packets at the same instants through the same link, fault and
//! clock calls — but **no writer is ever called**: the [`Tap`] records each
//! packet as a run of its on-wire length, and a counted queue stores
//! neither heads, media writers nor a chat list. Callers state a length and
//! how to write it, and never ask which mode they are in.
//!
//! In either mode the [`Tap`] stamps a packet without reading its clock: a
//! reading is a pure function of (clock, instant, position in the jitter
//! stream), so each packet is recorded with the position
//! ([`Flow::cut_deferred`])
//! and the stream moves on as if it had been read. Whoever reads a stamp —
//! the analysis, for the packets that carry an NTP-stamped frame — gets the
//! reading the eager call would have stored, and a session pays no
//! Box–Muller per packet.

use crate::chat_client::{ChatItems, ChatSend};
use pscp_media::capture::{Appender, Capture, Flow, FlowKind};
use pscp_proto::filler::{Recipe, Sink};
use pscp_proto::tls::{self, TlsChannel};
use pscp_simnet::fault::LinkFaults;
use pscp_simnet::rng::CounterRng;
use pscp_simnet::{Link, SimDuration, SimTime, WallClock};
use std::mem::take;
use std::sync::Arc;

/// Whether the session's capture will be read by anyone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Recording {
    /// The capture is kept: every on-wire byte is produced and recorded.
    Full,
    /// The capture is dropped when the session ends: packets are recorded
    /// with their times and lengths only.
    Counted,
}

/// The on-wire shape of one transmission: `written` bytes a writer
/// produces, then a run of `pad` × `fill` that is never written out
/// (picture bodies, bootstrap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Wire {
    /// Bytes the transmission's writer produces — written out, or handed
    /// over as fillers.
    pub written: usize,
    /// The byte the run repeats.
    pub fill: u8,
    /// Run length.
    pub pad: usize,
}

impl Wire {
    /// `n` written bytes and no run.
    pub fn written(n: usize) -> Wire {
        Wire { written: n, fill: 0, pad: 0 }
    }

    /// On-wire length.
    pub fn len(&self) -> usize {
        self.written + self.pad
    }

    /// The `(written, run)` lengths of the packet carrying on-wire bytes
    /// `off..off + n`.
    fn packet(&self, off: usize, n: usize) -> (usize, usize) {
        let written = self.written.saturating_sub(off).min(n);
        (written, n - written)
    }
}

/// What a queued media send is written from: the transport's descriptor,
/// which writes the send's bytes — head bytes written out, a body's filler
/// handed over — into whatever records them.
pub(crate) trait MediaWrite {
    /// Appends the send's bytes to `out`.
    fn write(&self, out: &mut impl Sink);

    /// At most how many bytes [`MediaWrite::write`] writes out, and how
    /// many fillers it hands over: what a flow stores of the send.
    fn stored(&self) -> Stored;
}

/// What a flow stores of a transmission: bytes written out, and generated
/// pieces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Stored {
    /// Bytes written out.
    pub bytes: usize,
    /// Fillers handed over.
    pub pieces: usize,
}

impl std::ops::AddAssign for Stored {
    fn add_assign(&mut self, other: Stored) {
        self.bytes += other.bytes;
        self.pieces += other.pieces;
    }
}

/// A queue without media sends: the app traffic of a transport whose media
/// takes another path (SRT's datagrams).
impl MediaWrite for () {
    fn write(&self, _: &mut impl Sink) {}

    fn stored(&self) -> Stored {
        Stored::default()
    }
}

/// The reliable downstream path a transmission rides: the bottleneck link,
/// the per-packet faults injected on it (if any) and its packet size.
pub(crate) struct Path<'a> {
    /// The shared bottleneck.
    pub link: &'a mut Link,
    /// Per-packet faults of the path, when injected.
    pub faults: Option<&'a mut LinkFaults>,
    /// Packet size.
    pub mtu: usize,
}

/// Where a queued send's written bytes come from when it is transmitted.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Stored in the queue's heads, from this offset.
    Head(u32),
    /// Written by the transport from the queue's `writer`-th media
    /// descriptor; `tag` is the transport's own handle on the send.
    Media { writer: u32, tag: u32 },
    /// Item `n` of the queue's chat list.
    Chat(u32),
}

/// [`Source::Media`]'s `tag` of a send the transport wants nothing back for.
const NO_TAG: u32 = u32::MAX;

/// One queued transmission: `len` written bytes from `src`, then `pad` ×
/// `fill`. Sorting by time moves these records, so they are kept small.
#[derive(Debug, Clone, Copy)]
struct Send {
    at: SimTime,
    len: usize,
    pad: usize,
    flow: u32,
    /// On a sealed flow, the TLS record number the send starts at.
    tls_seq: u32,
    src: Source,
    fill: u8,
}

/// A queued transmission as the transmit loop sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Queued {
    /// Server-side send instant.
    pub at: SimTime,
    /// Capture flow it belongs to.
    pub flow: usize,
    /// The transport's handle on a media send it tagged.
    pub tag: Option<usize>,
}

/// Everything a session sends over its reliable downstream connections
/// (RTMP chunk stream, app bootstrap, chat, pictures), as descriptors.
/// Sorting by time moves small records; a media or chat send's bytes exist
/// only in the capture, written there from its descriptor when the send is
/// transmitted — a counted queue does not even keep the descriptor.
pub(crate) struct SendQueue<W> {
    recording: Recording,
    /// Literal bytes of the head sends, back to back.
    heads: Vec<u8>,
    /// What writes each media send, in push order.
    writers: Vec<W>,
    /// The session's chat list, whose items the chat sends are.
    chats: Option<Arc<dyn Recipe>>,
    sends: Vec<Send>,
    /// The flow whose sends travel in TLS records, and its key.
    sealed: Option<(u32, u64)>,
    /// Plaintext of the sealed send being transmitted.
    plain: Vec<u8>,
}

impl<W> SendQueue<W> {
    /// An empty queue sized for `sends` transmissions, `media` of them
    /// media, the others' heads `head_bytes` long in total.
    pub fn new(recording: Recording, head_bytes: usize, sends: usize, media: usize) -> Self {
        let (head_bytes, media) = match recording {
            Recording::Full => (head_bytes, media),
            Recording::Counted => (0, 0),
        };
        SendQueue {
            recording,
            heads: Vec::with_capacity(head_bytes),
            writers: Vec::with_capacity(media),
            chats: None,
            sends: Vec::with_capacity(sends),
            sealed: None,
            plain: Vec::new(),
        }
    }

    /// Queues `head` followed by `pad` copies of `fill`.
    pub fn push(&mut self, at: SimTime, flow: usize, head: &[u8], fill: u8, pad: usize) {
        let src = Source::Head(self.heads.len() as u32);
        if self.recording == Recording::Full {
            self.heads.extend_from_slice(head);
        }
        self.sends.push(Send {
            at,
            len: head.len(),
            pad,
            flow: flow as u32,
            tls_seq: 0,
            src,
            fill,
        });
    }

    /// Queues a media send of `len` bytes that `writer` describes: the
    /// transport writes them from it when the send is transmitted, and gets
    /// `tag` back with the send.
    pub fn push_media(
        &mut self,
        at: SimTime,
        flow: usize,
        len: usize,
        tag: Option<usize>,
        writer: W,
    ) {
        let src = Source::Media {
            writer: self.writers.len() as u32,
            tag: tag.map_or(NO_TAG, |t| t as u32),
        };
        if self.recording == Recording::Full {
            self.writers.push(writer);
        }
        self.sends.push(Send { at, len, pad: 0, flow: flow as u32, tls_seq: 0, src, fill: 0 });
    }

    /// Queues the session's chat sends, each at the instant and on the flow
    /// `route` gives it (none: it is not sent). A kept queue makes one
    /// recipe of the list, and a send goes into a kept capture as its item.
    /// A queue takes one chat list.
    pub fn push_chats(
        &mut self,
        chat: &[ChatSend],
        route: impl Fn(&ChatSend) -> Option<(SimTime, usize)>,
    ) {
        assert!(self.chats.is_none(), "a queue takes one chat list");
        let items = (self.recording == Recording::Full).then(|| ChatItems::new(chat));
        self.sends.reserve(chat.len());
        for (i, send) in chat.iter().enumerate() {
            let Some((at, flow)) = route(send) else { continue };
            let wire = items.as_ref().map_or_else(|| send.bytes.wire(), |items| items.wire(i));
            let Wire { written, fill, pad } = wire;
            let src = Source::Chat(i as u32);
            self.sends.push(Send {
                at,
                len: written,
                pad,
                flow: flow as u32,
                tls_seq: 0,
                src,
                fill,
            });
        }
        self.chats = items.map(|items| Arc::new(items) as Arc<dyn Recipe>);
    }

    /// Has every send of `flow` travel in TLS records under `key`. Called
    /// before the queue is sorted: the record sequence follows push order
    /// (the order the plaintext stream was laid down in), and lengths alone
    /// fix it — each send remembers the record number it starts at and is
    /// sealed when it is transmitted.
    pub fn seal_flow(&mut self, flow: usize, key: u64) {
        let mut seq = 0;
        for send in self.sends.iter_mut().filter(|s| s.flow as usize == flow) {
            send.tls_seq = seq;
            seq += tls::records(send.len) as u32;
        }
        self.sealed = Some((flow as u32, key));
    }

    /// Orders the queue by send time. Stable: equal-time sends keep their
    /// push order, which keeps a chunk stream's byte order intact.
    pub fn sort_by_time(&mut self) {
        self.sends.sort_by_key(|s| s.at);
    }

    /// Number of queued sends.
    pub fn len(&self) -> usize {
        self.sends.len()
    }

    /// The `i`-th queued send.
    pub fn get(&self, i: usize) -> Queued {
        let s = &self.sends[i];
        let tag = match s.src {
            Source::Media { tag, .. } if tag != NO_TAG => Some(tag as usize),
            _ => None,
        };
        Queued { at: s.at, flow: s.flow as usize, tag }
    }

    /// The key `flow`'s sends are sealed under, if it is the sealed flow.
    fn tls_key(&self, flow: u32) -> Option<u64> {
        self.sealed.filter(|&(sealed, _)| sealed == flow).map(|(_, key)| key)
    }

    /// What the `i`-th send puts on the wire.
    fn wire(&self, i: usize) -> Wire {
        let s = &self.sends[i];
        let sealed = self.tls_key(s.flow).is_some();
        Wire {
            written: if sealed { tls::sealed_len(s.len) } else { s.len },
            fill: s.fill,
            pad: s.pad,
        }
    }
}

impl<W: MediaWrite> SendQueue<W> {
    /// Pre-sizes `tap`'s capture for everything queued: the descriptors say
    /// what each flow stores — every written byte of heads and sealed sends
    /// (runs take no space), a media send's framing and headers with a
    /// piece per filler it hands over, a piece per chat send — and chunking
    /// the on-wire length bounds the packet count.
    pub fn reserve(&self, tap: &mut Tap, mtu: usize) {
        let mut flows = vec![(Stored::default(), 0usize); tap.capture.flows.len()];
        for (i, s) in self.sends.iter().enumerate() {
            let wire = self.wire(i);
            let (stored, packets) = &mut flows[s.flow as usize];
            let sealed = self.tls_key(s.flow).is_some();
            *stored += match s.src {
                Source::Media { writer, .. } if !sealed => {
                    self.writers.get(writer as usize).map_or(Stored::default(), W::stored)
                }
                Source::Chat(_) if !sealed => Stored { bytes: 0, pieces: 1 },
                _ => Stored { bytes: wire.written, pieces: 0 },
            };
            *packets += wire.len().div_ceil(mtu);
        }
        for (flow, (stored, packets)) in flows.into_iter().enumerate() {
            tap.reserve(flow, packets, || stored);
        }
    }

    /// Appends send `s`'s bytes to `out`: a head copied out of the queue, a
    /// media send written from its descriptor, a chat send as an item of
    /// the chat list.
    fn write_send(&self, s: &Send, out: &mut impl Sink) {
        match s.src {
            Source::Head(start) => out.put(&self.heads[start as usize..][..s.len]),
            Source::Media { writer, .. } => self.writers[writer as usize].write(out),
            Source::Chat(n) => {
                out.item(self.chats.as_ref().expect("a kept queue has its chat list"), n as usize)
            }
        }
    }

    /// Transmits the `i`-th send over `path` (see [`Tap::transmit`]),
    /// written by [`SendQueue::write_send`] — through the flow's TLS
    /// channel first if the flow is sealed: a record is ciphertext of every
    /// plaintext byte, so a sealed send is written out, fillers and all.
    pub fn transmit(
        &mut self,
        i: usize,
        tap: &mut Tap,
        path: Path<'_>,
        clock_rng: &mut CounterRng,
    ) -> Option<SimTime> {
        let (wire, s) = (self.wire(i), self.sends[i]);
        let mut plain = take(&mut self.plain);
        let flow = s.flow as usize;
        let last = match self.tls_key(s.flow) {
            None => tap.transmit(path, s.at, flow, wire, clock_rng, |out| self.write_send(&s, out)),
            Some(key) => tap.transmit(path, s.at, flow, wire, clock_rng, |out| {
                plain.clear();
                self.write_send(&s, &mut plain);
                TlsChannel::resume(key, s.tls_seq as u64).seal_into(&plain, out.literal());
            }),
        };
        self.plain = plain;
        last
    }
}

/// The capture host: tcpdump on the viewer's tethering desktop. Every
/// packet that arrives is stamped with the host clock — the reading left
/// for whoever asks — and recorded: its bytes written into the flow by the
/// transmission's writer, or for a counted session as a run of its length.
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

    /// What this tap records of `wire` — the one place "keep or count" is
    /// decided: a counted tap records a run of the same on-wire length,
    /// which has no written byte for a writer to produce.
    fn kept(&self, wire: Wire) -> Wire {
        match self.recording {
            Recording::Full => wire,
            Recording::Counted => Wire { written: 0, fill: 0, pad: wire.len() },
        }
    }

    /// Pre-sizes `flow` for `packets` packets storing what `stored` says,
    /// which is asked only if the flow is kept: a counted flow stores
    /// nothing.
    pub fn reserve(&mut self, flow: usize, packets: usize, stored: impl FnOnce() -> Stored) {
        let flow = &mut self.capture.flows[flow];
        let stored = match self.recording {
            Recording::Full => stored(),
            Recording::Counted => Stored::default(),
        };
        flow.reserve(stored.bytes, packets);
        flow.reserve_pieces(stored.pieces);
    }

    /// Appends what is kept of `wire`'s written bytes to `flow` — `write`
    /// is called for them, and not at all if none are kept — and returns
    /// the shape to cut packets over.
    fn append(&mut self, flow: usize, wire: Wire, write: impl FnOnce(&mut Appender<'_>)) -> Wire {
        let wire = self.kept(wire);
        if wire.written > 0 {
            self.capture.flows[flow].append_with(wire.written, write);
        }
        wire
    }

    /// Stamps and records one packet that arrived at `at`, written by
    /// `write`; `clock_rng` moves past the reading's jitter, which is left
    /// to be computed.
    pub fn record(
        &mut self,
        flow: usize,
        at: SimTime,
        wire: Wire,
        clock_rng: &mut CounterRng,
        write: impl FnOnce(&mut Appender<'_>),
    ) {
        let wire = self.append(flow, wire, write);
        self.capture.flows[flow].cut_deferred(at, clock_rng, wire.written, wire.fill, wire.pad);
    }

    /// Sends `wire` over the reliable `path` at `at`: its bytes are written
    /// once, into `flow`; it is offered to the link as MTU packets in one
    /// batch, and each delivery, delayed by its injected fault (if the path
    /// has any), is recorded as the next packet over those bytes. Returns
    /// the arrival of the last packet.
    pub fn transmit(
        &mut self,
        path: Path<'_>,
        at: SimTime,
        flow: usize,
        wire: Wire,
        clock_rng: &mut CounterRng,
        write: impl FnOnce(&mut Appender<'_>),
    ) -> Option<SimTime> {
        let Path { link, mut faults, mtu } = path;
        let wire = self.append(flow, wire, write);
        let (len, mut off, mut last) = (wire.len(), 0, None);
        let sizes = (0..len.div_ceil(mtu)).map(|i| mtu.min(len - i * mtu));
        link.enqueue_batch(at, sizes, |delivery| {
            // The bytes are already in the flow, so every packet must
            // arrive; none can fail to, on the links sessions build.
            let mut arr = delivery.time().expect("a session's link is unbounded and drops nothing");
            if let Some(lf) = faults.as_deref_mut() {
                if self.floor.len() <= flow {
                    self.floor.resize(flow + 1, SimTime::ZERO);
                }
                arr = (arr + lf.packet_extra()).max(self.floor[flow]);
                self.floor[flow] = arr;
            }
            let (written, pad) = wire.packet(off, mtu.min(len - off));
            self.capture.flows[flow].cut_deferred(arr, clock_rng, written, wire.fill, pad);
            off += written + pad;
            last = Some(arr);
        });
        last
    }

    /// Records an HTTP response of shape `wire`, written by `write`, sliced
    /// along the arrival schedule of its TCP transfer (`chunks` add up to
    /// its length). Each chunk is pushed back by the path's cumulative
    /// per-packet `faults`, which keeps the chunks in order; returns the
    /// total push-back.
    pub fn record_response(
        &mut self,
        mut faults: Option<&mut LinkFaults>,
        flow: usize,
        wire: Wire,
        chunks: &[(SimTime, usize)],
        clock_rng: &mut CounterRng,
        write: impl FnOnce(&mut Appender<'_>),
    ) -> SimDuration {
        let wire = self.append(flow, wire, write);
        let (mut off, mut extra) = (0, SimDuration::ZERO);
        for &(at, n) in chunks {
            if let Some(lf) = faults.as_deref_mut() {
                extra += lf.packet_extra();
            }
            let (written, pad) = wire.packet(off, n);
            self.capture.flows[flow].cut_deferred(at + extra, clock_rng, written, wire.fill, pad);
            off += n;
        }
        debug_assert_eq!(off, wire.len(), "the schedule carries another length than the response");
        extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat_client::ChatWire;
    use pscp_service::chat::Heart;

    /// A batch of seven hearts, and its WebSocket frame.
    const HEARTS: ChatWire = ChatWire::Hearts(Heart { at: SimTime::ZERO, count: 7 });
    const HEARTS_FRAME: &[u8] = b"\x81\x16{\"kind\":\"heart\",\"n\":7}";

    /// What flow 0 of [`queues`] carries: the head, its run, the hearts.
    fn app_stream() -> Vec<u8> {
        [&b"head"[..], &[0xD8; 5_000], HEARTS_FRAME].concat()
    }

    /// A media send here is 40,000 copies of one byte, handed over as a
    /// filler.
    impl MediaWrite for u8 {
        fn write(&self, out: &mut impl Sink) {
            out.fill(pscp_proto::filler::Filler::run(*self, 40_000));
        }

        fn stored(&self) -> Stored {
            Stored { bytes: 0, pieces: 1 }
        }
    }

    /// The same pushes into a full and a counted queue; a media send's
    /// writer is the byte it consists of.
    fn queues() -> [SendQueue<u8>; 2] {
        [Recording::Full, Recording::Counted].map(|recording| {
            let mut q = SendQueue::new(recording, 0, 0, 0);
            q.push(SimTime::from_secs(3), 0, b"head", 0xD8, 5_000);
            q.push_media(SimTime::from_secs(1), 1, 40_000, Some(2), 7);
            q.push(SimTime::from_secs(1), 1, &[], 0, 0);
            q.push(SimTime::from_secs(2), 1, &[9; 17], 0, 0);
            let hearts =
                ChatSend { at: SimTime::from_secs(4), kind: FlowKind::Chat, bytes: HEARTS };
            q.push_chats(&[hearts], |send| Some((send.at, 0)));
            q
        })
    }

    fn shape(q: &SendQueue<u8>) -> Vec<(Queued, Wire)> {
        (0..q.len()).map(|i| (q.get(i), q.wire(i))).collect()
    }

    /// Transmits everything queued over a 2 Mbps link; returns the last
    /// arrival of each send and the capture.
    fn transmit_all(q: &mut SendQueue<u8>) -> (Vec<Option<SimTime>>, Capture) {
        let mut tap = Tap::new(q.recording, WallClock::perfect());
        tap.open_flow(FlowKind::AppMisc, "a");
        tap.open_flow(FlowKind::Rtmp, "b");
        q.reserve(&mut tap, 1448);
        let mut link = Link::unbounded(2e6, SimDuration::from_millis(30));
        let mut rng = pscp_simnet::RngFactory::new(1).stream("tap");
        let last = (0..q.len())
            .map(|i| {
                let path = Path { link: &mut link, faults: None, mtu: 1448 };
                q.transmit(i, &mut tap, path, &mut rng)
            })
            .collect();
        (last, tap.capture)
    }

    #[test]
    fn a_send_record_stays_small() {
        // What the stable time sort moves, ≈ 5,000 of them a session: the
        // record that also carried ranges into a send arena and a 24-byte
        // player tag was 72 bytes.
        assert!(std::mem::size_of::<Send>() <= 48, "{}", std::mem::size_of::<Send>());
    }

    #[test]
    fn counted_queue_has_the_full_queues_shape_and_no_bytes() {
        let [mut full, mut counted] = queues();
        assert_eq!(shape(&full), shape(&counted));
        for q in [&mut full, &mut counted] {
            q.seal_flow(1, 11);
            q.sort_by_time();
        }
        assert_eq!(shape(&full), shape(&counted));
        // Stable by time; the 40,000-byte send grew by three records' framing.
        let tags: Vec<Option<usize>> = shape(&full).iter().map(|(s, _)| s.tag).collect();
        assert_eq!(tags, [Some(2), None, None, None, None]);
        assert_eq!(full.wire(0).written, tls::sealed_len(40_000));
        assert_eq!(full.wire(3), Wire { written: 4, fill: 0xD8, pad: 5_000 });
        assert_eq!(full.wire(4), Wire::written(HEARTS_FRAME.len()));
        assert_eq!(full.heads, [&b"head"[..], &[9; 17]].concat());
        let mut hearts = Vec::new();
        hearts.item(full.chats.as_ref().expect("a kept queue's chat list"), 0);
        assert_eq!(hearts, HEARTS_FRAME);
        assert_eq!([counted.heads.capacity(), counted.writers.capacity()], [0; 2]);
        assert!(counted.chats.is_none());
    }

    #[test]
    fn both_queues_transmit_the_same_packets_at_the_same_instants() {
        let recorded = queues().map(|mut q| {
            q.sort_by_time();
            let (last, capture) = transmit_all(&mut q);
            let packets: Vec<Vec<(SimTime, usize)>> = capture
                .flows
                .iter()
                .map(|f| f.packets().map(|p| (p.at, p.payload.len())).collect())
                .collect();
            (last, packets, capture)
        });
        let [(full_last, full_packets, full), (counted_last, counted_packets, counted)] = recorded;
        assert_eq!((&full_last, &full_packets), (&counted_last, &counted_packets));
        assert_eq!(full_last[1], None, "an empty send delivers nothing");
        assert_eq!(full_packets[1].len(), 40_000usize.div_ceil(1448) + 1);
        // The full capture holds what the writers wrote; the counted one
        // not a byte.
        assert_eq!(*full.flows[1].byte_stream(), [vec![7; 40_000], vec![9; 17]].concat());
        assert_eq!(*full.flows[0].byte_stream(), app_stream());
        assert!(counted.flows.iter().all(|f| f.stored_bytes() == 0));
    }

    /// A sealed flow's sends are sealed as they are transmitted, in time
    /// order — and the capture is the record stream one channel sealing
    /// them in push order produces, laid out in time order.
    #[test]
    fn a_sealed_flow_is_sealed_in_push_order_whenever_it_is_transmitted() {
        let [mut q, _] = queues();
        q.seal_flow(1, 11);
        q.sort_by_time();
        let (_, capture) = transmit_all(&mut q);
        let mut tls = TlsChannel::new(11);
        // Push order: the media send, the empty one, the 17 bytes.
        let sealed = [tls.seal(&[7; 40_000]), tls.seal(&[]), tls.seal(&[9; 17])];
        assert_eq!(*capture.flows[1].byte_stream(), sealed.concat());
        assert_eq!(*capture.flows[0].byte_stream(), app_stream());
    }

    #[test]
    #[should_panic(expected = "another length than stated")]
    fn a_writer_that_misstates_its_length_is_caught() {
        let mut tap = Tap::new(Recording::Full, WallClock::perfect());
        let flow = tap.open_flow(FlowKind::Chat, "ws");
        let mut rng = pscp_simnet::RngFactory::new(1).stream("tap");
        tap.record(flow, SimTime::ZERO, Wire::written(3), &mut rng, |out| out.put(b"four"));
    }

    #[test]
    fn a_response_is_cut_along_its_schedule() {
        let taps = [Recording::Full, Recording::Counted].map(|recording| {
            let mut tap = Tap::new(recording, WallClock::perfect());
            let flow = tap.open_flow(FlowKind::HlsHttp, "pop");
            let mut rng = pscp_simnet::RngFactory::new(1).stream("tap");
            let chunks = [(SimTime::from_secs(1), 3), (SimTime::from_secs(2), 6)];
            let wire = Wire { written: 5, fill: 0, pad: 4 };
            tap.record_response(None, flow, wire, &chunks, &mut rng, |out| out.put(b"HEADb"));
            tap.capture
        });
        let payloads = |c: &Capture| -> Vec<Vec<u8>> {
            c.flows[0].payloads().map(|p| p.bytes().to_vec()).collect()
        };
        assert_eq!(payloads(&taps[0]), [b"HEA".to_vec(), b"Db\0\0\0\0".to_vec()]);
        assert_eq!(payloads(&taps[1]), [vec![0; 3], vec![0; 6]]);
    }
}
