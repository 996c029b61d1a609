//! Packet capture and TCP stream reconstruction — the tcpdump/wireshark
//! stand-in.
//!
//! §2: "The script also captures all the video and audio traffic using
//! tcpdump. ... After finding and reconstructing the multimedia TCP stream
//! using wireshark, single segments are isolated by saving the response of
//! HTTP GET request ... For RTMP, we exploit the wireshark dissector."
//!
//! A [`Capture`] holds per-flow packet records: arrival time on the
//! simulation clock *and* the capture host's wall-clock timestamp (tcpdump
//! stamps packets with the host clock, which is what the paper's NTP-based
//! delivery-latency computation subtracts from). Reconstruction yields the
//! ordered byte stream plus a byte-offset → timestamp index, so an analyzer
//! can ask "when did the packet containing byte N arrive?".
//!
//! Storage holds what a reader cannot recompute and describes the rest.
//! A [`Flow`]'s stream — the bytes its packets carry, in order — is one
//! contiguous arena of the bytes a writer wrote out, with *generated
//! pieces* among them, each recorded where the writer handed it over
//! ([`Flow::append_with`] gives writers the flow as a [`Sink`]): a
//! [`Filler`] (generator state and length, or byte and length) — a frame's
//! filler after its header, an audio body's repeated byte, TS stuffing —
//! or an *item*, index `i` of a [`Recipe`] the session hands over once —
//! an HLS segment of its segment list, a chat send of its chat list. A
//! packet is a stretch of that stream followed by a *run* — `pad` copies of
//! one `fill` byte (see [`Payload`]) — which is how filler traffic whose
//! contents no analysis reads (profile-picture bodies, app bootstrap) is
//! recorded. Recording a packet is a bounds check and a metadata record;
//! nothing generated is written out. Every size, offset and rate below is
//! in on-wire bytes, exactly as if every byte had been stored, and a reader
//! gets exactly those bytes: the first read of a flow with items writes
//! its items out — their bytes into a second arena, their fillers as
//! pieces — and keeps that for every later read, and [`Payload::bytes`]
//! and [`Flow::byte_stream`] write the fillers out when asked. Packets are
//! exposed as borrowed [`PacketView`]s.
//!
//! Wall stamps are computed when someone reads them. tcpdump stamps every
//! packet, but the analysis reads the stamp of the one packet in ≈ 200 that
//! carries an NTP-stamped frame (§5.1), and a reading of a [`WallClock`] is
//! a pure function of (clock, instant, position in the host's jitter
//! stream). So a session records each packet with
//! [`Flow::record_deferred`], which keeps that position (8 bytes) and moves
//! the stream on; the flow holds the host clock once, and
//! [`PacketView::wall_ts`], [`Flow::packets`] and [`Flow::wall_ts_at_byte`]
//! compute the reading — bit for bit the one an eager
//! [`Flow::record`] at the same point would have stored — for the packets
//! they are asked about. Copies, tests and anything holding a reading
//! already keep using [`Flow::record`]; both kinds mix freely in one flow.
//!
//! A session writes each written-out byte here and nowhere else: it states
//! a send's length, [`Flow::append_with`] hands the flow to whatever writes
//! the bytes and describes the fillers and items, and [`Flow::cut`]/
//! [`Flow::cut_deferred`] then lay packets over them by length as the link
//! delivers them — the same flow a `record` per packet would have built,
//! without the copy out of an intermediate buffer.

use pscp_proto::filler::{Filler, Recipe, Sink};
use pscp_simnet::rng::CounterRng;
use pscp_simnet::{SimTime, WallClock};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// Transport-level classification of a flow, as the analysis scripts would
/// infer from ports and endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowKind {
    /// RTMP on port 80 to an Amazon EC2 ingest server.
    Rtmp,
    /// HLS segment/playlist HTTP to a Fastly CDN POP.
    HlsHttp,
    /// JSON API over HTTPS.
    Api,
    /// WebSocket chat.
    Chat,
    /// Profile picture downloads from S3.
    PictureHttp,
    /// App bootstrap traffic at join: thumbnails, chat backlog, rankings —
    /// the transfers that make joining slow on a throttled link (Fig 4a).
    AppMisc,
    /// SRT datagrams from an ingest-side gateway (the what-if transport
    /// study, DESIGN.md §12). Payloads are per-datagram, not a TCP stream.
    Srt,
}

/// A generated stretch of a flow's stream, recorded where a writer handed
/// it over and written out only when it is read.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Piece {
    /// Stream offset of its first byte.
    at: u32,
    /// Generated bytes of the stream before it, so `at - gen` written-out
    /// bytes precede it.
    gen: u32,
    what: Generated,
}

/// What a [`Piece`] stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Generated {
    /// A filler's bytes.
    Fill(Filler),
    /// Item `index` of the flow's `recipe`-th recipe, `len` bytes long. A
    /// flow reads its stream with every item written out (see
    /// [`Flow::byte_stream`]), so only a recorded stream holds these.
    Item { recipe: u32, index: u32, len: u32 },
}

impl Piece {
    /// Bytes it stands for.
    fn len(&self) -> usize {
        match self.what {
            Generated::Fill(filler) => filler.len(),
            Generated::Item { len, .. } => len as usize,
        }
    }

    /// Stream offset just past it.
    fn end(&self) -> usize {
        self.at as usize + self.len()
    }

    /// Written-out bytes of the stream before it.
    fn literal_at(&self) -> usize {
        (self.at - self.gen) as usize
    }
}

/// A flow's stream as it is held: the bytes writers wrote out, in order,
/// with generated pieces among them.
#[derive(Debug, Clone, Default)]
struct Stream {
    data: Vec<u8>,
    pieces: Vec<Piece>,
    /// Bytes the pieces stand for.
    generated: usize,
}

impl Stream {
    fn len(&self) -> usize {
        self.data.len() + self.generated
    }

    /// Records `what`, `len` bytes, as the next piece; an empty one is
    /// nothing.
    #[inline]
    fn push(&mut self, what: Generated, len: usize) {
        if len == 0 {
            return;
        }
        let at = u32::try_from(self.len()).expect("a flow's stream stays under 4 GiB");
        // `generated` ≤ `at`, so it fits too.
        self.pieces.push(Piece { at, gen: self.generated as u32, what });
        self.generated += len;
    }

    /// The stream with every item written out of `recipes`, and fillers
    /// still pieces.
    fn written_out(&self, recipes: &[Arc<dyn Recipe>]) -> Stream {
        let mut out = Stream::default();
        out.data.reserve(self.data.len());
        let mut lit = 0;
        for p in &self.pieces {
            out.put(&self.data[lit..p.literal_at()]);
            lit = p.literal_at();
            match p.what {
                Generated::Fill(filler) => out.fill(filler),
                Generated::Item { recipe, index, .. } => {
                    out.item(&recipes[recipe as usize], index as usize)
                }
            }
        }
        out.put(&self.data[lit..]);
        out
    }
}

/// A stream being written out to be read: an item is written, a filler
/// recorded.
impl Sink for Stream {
    fn literal(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }

    #[inline]
    fn fill(&mut self, filler: Filler) {
        self.push(Generated::Fill(filler), filler.len());
    }

    fn item(&mut self, recipe: &Arc<dyn Recipe>, i: usize) {
        let at = self.len();
        recipe.write(i, self);
        assert_eq!(self.len() - at, recipe.len(i), "item {i} of {recipe:?} wrote another length");
    }
}

/// One packet's payload: a stretch of its flow's stream — bytes written
/// out, with generated pieces among them — followed by a *run* of `pad`
/// copies of `fill`.
///
/// A plain byte slice is the stream-only case (`From<&[u8]>`). Equality is
/// by content: a piece or a run and the same bytes written out compare
/// equal.
#[derive(Debug, Clone, Copy)]
pub struct Payload<'a> {
    /// The written-out bytes of the stretch, in order.
    literal: &'a [u8],
    /// The pieces the stretch overlaps, in order.
    pieces: &'a [Piece],
    /// Stream offsets of the stretch.
    from: usize,
    to: usize,
    fill: u8,
    pad: usize,
}

impl<'a> Payload<'a> {
    /// `literal` followed by `pad` copies of `fill`.
    pub fn run(literal: &'a [u8], fill: u8, pad: usize) -> Self {
        Payload { literal, pieces: &[], from: 0, to: literal.len(), fill, pad }
    }

    /// On-wire length: the stretch plus the run.
    pub fn len(&self) -> usize {
        self.to - self.from + self.pad
    }

    /// Whether the payload has no bytes on the wire.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The on-wire bytes: a free borrow when the payload is written-out
    /// bytes only, materialised otherwise.
    pub fn bytes(&self) -> Cow<'a, [u8]> {
        if self.pieces.is_empty() && self.pad == 0 {
            return Cow::Borrowed(self.literal);
        }
        let mut out = Vec::with_capacity(self.len());
        self.write_stream(&mut out);
        out.resize(self.len(), self.fill);
        Cow::Owned(out)
    }

    /// Splits the on-wire bytes into packets of at most `mtu` bytes (the
    /// last may be shorter), like `<[u8]>::chunks` on the materialised
    /// payload.
    pub fn chunks(self, mtu: usize) -> impl Iterator<Item = Payload<'a>> + Clone {
        assert!(mtu > 0, "chunk size must be non-zero");
        let len = self.len();
        (0..len.div_ceil(mtu)).map(move |i| self.sub(i * mtu, len.min((i + 1) * mtu)))
    }

    /// On-wire bytes `a..b` of the payload.
    fn sub(&self, a: usize, b: usize) -> Payload<'a> {
        let n = self.to - self.from;
        let (from, to) = (self.from + a.min(n), self.from + b.min(n));
        let i0 = self.pieces.partition_point(|p| p.end() <= from);
        let i1 = i0 + self.pieces[i0..].partition_point(|p| (p.at as usize) < to);
        let literal = |s: usize| (s - self.from) - self.generated_before(s);
        Payload {
            literal: &self.literal[literal(from)..literal(to)],
            pieces: &self.pieces[i0..i1],
            from,
            to,
            fill: self.fill,
            pad: (b - a) - (to - from),
        }
    }

    /// Generated bytes of the stretch before stream offset `s`.
    fn generated_before(&self, s: usize) -> usize {
        let overlap = |p: &Piece| s.min(p.end()).saturating_sub(self.from.max(p.at as usize));
        self.pieces.iter().map(overlap).sum()
    }

    /// Appends the stretch — not the run — to `out`: written-out bytes as
    /// bytes, each piece's part as its filler slice.
    fn write_stream(&self, out: &mut impl Sink) {
        let (mut s, mut lit) = (self.from, 0);
        for p in self.pieces {
            let (at, end) = (p.at as usize, p.end());
            if at > s {
                let n = at.min(self.to) - s;
                out.put(&self.literal[lit..lit + n]);
                (s, lit) = (s + n, lit + n);
            }
            let to = end.min(self.to);
            if s < to {
                let Generated::Fill(filler) = p.what else {
                    unreachable!("a flow is read with its items written out")
                };
                out.fill(filler.slice(s - at, to - at));
                s = to;
            }
        }
        out.put(&self.literal[lit..lit + (self.to - s)]);
    }
}

impl PartialEq for Payload<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.bytes() == other.bytes()
    }
}

impl<'a> From<&'a [u8]> for Payload<'a> {
    fn from(literal: &'a [u8]) -> Self {
        Payload::run(literal, 0, 0)
    }
}

impl<'a> From<&'a Vec<u8>> for Payload<'a> {
    fn from(literal: &'a Vec<u8>) -> Self {
        literal.as_slice().into()
    }
}

impl<'a, const N: usize> From<&'a [u8; N]> for Payload<'a> {
    fn from(literal: &'a [u8; N]) -> Self {
        literal.as_slice().into()
    }
}

/// The capture host's stamp on a packet.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stamp {
    /// A reading taken when the packet was recorded.
    Read(f64),
    /// The reading the flow's host clock yields for the packet's instant
    /// from this position of its jitter stream — computed when asked for.
    Deferred(CounterRng),
}

/// Per-packet metadata. The packet's stretch of the flow's stream ends at
/// stream offset `stream_end`; its on-wire bytes end at offset `wire_end`
/// (the previous packet's ends — or 0 — mark the starts). What the two
/// lengths differ by is the packet's run of `fill`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PacketMeta {
    at: SimTime,
    stamp: Stamp,
    stream_end: usize,
    wire_end: usize,
    fill: u8,
}

/// A borrowed view of one recorded packet (downstream direction; upstream
/// requests are logged by the API tap instead, as in the paper's mitmproxy
/// setup).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketView<'a> {
    /// Arrival instant on the simulation clock.
    pub at: SimTime,
    /// Capture host wall-clock timestamp, seconds (with its NTP error).
    pub wall_ts: f64,
    /// TCP payload.
    pub payload: Payload<'a>,
}

/// A reconstructed unidirectional TCP flow.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Flow classification.
    pub kind: FlowKind,
    /// Server endpoint label, e.g. `"ec2-54-67-9-120.us-west-1"`.
    pub server: String,
    /// The capture host's clock: what deferred stamps are read from.
    host_clock: WallClock,
    /// The stream as recorded.
    stream: Stream,
    /// What its items need, once it has one.
    items: Option<Box<Items>>,
    /// Per-packet timestamps + cumulative stream and on-wire end offsets.
    meta: Vec<PacketMeta>,
}

/// A flow's items: what they are items of, and the stream they are read
/// from.
#[derive(Debug, Clone, Default)]
struct Items {
    /// The recipes, each handed over once.
    recipes: Vec<Arc<dyn Recipe>>,
    /// The flow's stream with every item written out, on the first read,
    /// and kept until the flow changes.
    read: OnceLock<Stream>,
}

/// A flow as a [`Sink`]: what [`Flow::append_with`] hands a writer. Bytes
/// go into the flow's arena; a filler or an item is recorded as a piece.
pub struct Appender<'a> {
    flow: &'a mut Flow,
}

impl Sink for Appender<'_> {
    fn literal(&mut self) -> &mut Vec<u8> {
        &mut self.flow.stream.data
    }

    #[inline]
    fn fill(&mut self, filler: Filler) {
        self.flow.stream.fill(filler);
    }

    #[inline]
    fn item(&mut self, recipe: &Arc<dyn Recipe>, i: usize) {
        let Flow { items, stream, .. } = &mut *self.flow;
        let recipes = &mut items.get_or_insert_with(Box::default).recipes;
        let r = match recipes.iter().position(|r| Arc::ptr_eq(r, recipe)) {
            Some(r) => r,
            None => {
                recipes.push(Arc::clone(recipe));
                recipes.len() - 1
            }
        };
        let len = recipe.len(i);
        let fits = "an item is one response long";
        let (index, len32) = (u32::try_from(i).expect(fits), u32::try_from(len).expect(fits));
        stream.push(Generated::Item { recipe: r as u32, index, len: len32 }, len);
    }
}

impl Flow {
    /// Creates an empty flow captured on a host with a perfect clock —
    /// which only matters to [`Flow::record_deferred`].
    pub fn new(kind: FlowKind, server: impl Into<String>) -> Self {
        Flow::on_host(kind, server, WallClock::perfect())
    }

    /// Creates an empty flow captured on the host whose clock is
    /// `host_clock`.
    pub fn on_host(kind: FlowKind, server: impl Into<String>, host_clock: WallClock) -> Self {
        Flow {
            kind,
            server: server.into(),
            host_clock,
            stream: Stream::default(),
            items: None,
            meta: Vec::new(),
        }
    }

    /// Pre-sizes the written-out arena and packet index (e.g. for
    /// allocation-free steady-state recording). Runs need no space.
    pub fn reserve(&mut self, bytes: usize, packets: usize) {
        self.stream.data.reserve(bytes);
        self.meta.reserve(packets);
    }

    /// Pre-sizes the record of generated pieces.
    pub fn reserve_pieces(&mut self, pieces: usize) {
        self.stream.pieces.reserve(pieces);
    }

    /// Records a packet the host stamped `wall_ts`: its stretch is copied
    /// into the flow — written-out bytes as bytes, pieces as pieces — and
    /// its run is only counted.
    pub fn record<'a>(&mut self, at: SimTime, wall_ts: f64, payload: impl Into<Payload<'a>>) {
        self.push(at, Stamp::Read(wall_ts), payload.into());
    }

    /// Records a packet stamped by the flow's host clock without reading
    /// it: the reading's place in `jitter` is kept and `jitter` moves past
    /// it, exactly as if `host_clock.read(at, jitter)` had been recorded.
    pub fn record_deferred<'a>(
        &mut self,
        at: SimTime,
        jitter: &mut CounterRng,
        payload: impl Into<Payload<'a>>,
    ) {
        let position = self.host_clock.defer(jitter);
        self.push(at, Stamp::Deferred(position), payload.into());
    }

    /// Appends `n` on-wire bytes, produced by `write` into the flow as a
    /// [`Sink`], that belong to no packet yet: [`Flow::cut`]/
    /// [`Flow::cut_deferred`] lay packets over them. Until every appended
    /// byte is cut the flow cannot be read, and `record` cannot be mixed
    /// in.
    pub fn append_with(&mut self, n: usize, write: impl FnOnce(&mut Appender<'_>)) {
        let start = self.stream_len();
        self.forget_read();
        write(&mut Appender { flow: self });
        assert_eq!(self.stream_len(), start + n, "writer produced another length than stated");
    }

    /// Cuts the next packet, stamped `wall_ts`, over the appended bytes: the
    /// next `n` of them followed by a run of `pad` × `fill`.
    pub fn cut(&mut self, at: SimTime, wall_ts: f64, n: usize, fill: u8, pad: usize) {
        self.cut_packet(at, Stamp::Read(wall_ts), n, fill, pad);
    }

    /// [`Flow::cut`] stamped like [`Flow::record_deferred`].
    pub fn cut_deferred(
        &mut self,
        at: SimTime,
        jitter: &mut CounterRng,
        n: usize,
        fill: u8,
        pad: usize,
    ) {
        let position = self.host_clock.defer(jitter);
        self.cut_packet(at, Stamp::Deferred(position), n, fill, pad);
    }

    fn push(&mut self, at: SimTime, stamp: Stamp, payload: Payload<'_>) {
        self.assert_all_cut();
        self.forget_read();
        payload.write_stream(&mut Appender { flow: self });
        self.cut_packet(at, stamp, payload.to - payload.from, payload.fill, payload.pad);
    }

    fn cut_packet(&mut self, at: SimTime, stamp: Stamp, n: usize, fill: u8, pad: usize) {
        debug_assert!(
            self.meta.last().map(|p| p.at <= at).unwrap_or(true),
            "packets must be recorded in order"
        );
        let stream_end = self.cut_end() + n;
        assert!(stream_end <= self.stream_len(), "packet cut past the appended bytes");
        self.meta.push(PacketMeta {
            at,
            stamp,
            stream_end,
            wire_end: self.byte_count() + n + pad,
            fill,
        });
    }

    /// Length of the stream appended so far.
    fn stream_len(&self) -> usize {
        self.stream.len()
    }

    /// Stream offset up to which appended bytes belong to packets.
    fn cut_end(&self) -> usize {
        self.meta.last().map_or(0, |m| m.stream_end)
    }

    /// Where every reader of packets or of the stream starts (and
    /// `record`): a flow is whole packets or it is not readable.
    #[inline]
    fn assert_all_cut(&self) {
        assert_eq!(self.cut_end(), self.stream_len(), "appended bytes not yet cut into packets");
    }

    /// The host's stamp on a packet, read now if it was deferred.
    ///
    /// `#[inline]`, like [`Flow::packet`]: a caller in another crate that
    /// walks [`Flow::packets`] for instants and lengths and never looks at
    /// `wall_ts` then has the unread readings optimised away.
    #[inline]
    fn wall_ts(&self, m: &PacketMeta) -> f64 {
        match m.stamp {
            Stamp::Read(wall_ts) => wall_ts,
            Stamp::Deferred(mut position) => self.host_clock.read(m.at, &mut position),
        }
    }

    /// Records a packet of `len` zero bytes — padding/overhead traffic
    /// whose contents are never inspected.
    pub fn record_zeros(&mut self, at: SimTime, wall_ts: f64, len: usize) {
        self.record(at, wall_ts, Payload::run(&[], 0, len));
    }

    /// Number of packets recorded.
    pub fn packet_count(&self) -> usize {
        self.meta.len()
    }

    /// Bytes the flow holds written out; every other on-wire byte is a
    /// generated piece or a run, stored as a record of its own.
    pub fn stored_bytes(&self) -> usize {
        self.stream.data.len()
    }

    /// The stream as readers see it: as recorded, or — once it has items —
    /// with every item written out, the first time it is asked for.
    fn readable(&self) -> &Stream {
        match &self.items {
            None => &self.stream,
            Some(items) => items.read.get_or_init(|| self.stream.written_out(&items.recipes)),
        }
    }

    /// Drops the stream written out for reading: the flow is changing.
    fn forget_read(&mut self) {
        if let Some(items) = &mut self.items {
            items.read.take();
        }
    }

    /// The `i`-th packet as a borrowed view, its stamp read.
    #[inline]
    pub fn packet(&self, i: usize) -> PacketView<'_> {
        let m = &self.meta[i];
        PacketView { at: m.at, wall_ts: self.wall_ts(m), payload: self.payload(i) }
    }

    /// The `i`-th packet's payload, found by binary search among the
    /// pieces; [`Flow::payloads`] walks them instead.
    #[inline]
    fn payload(&self, i: usize) -> Payload<'_> {
        let stream = self.readable();
        let from = i.checked_sub(1).map_or(0, |prev| self.meta[prev].stream_end);
        let piece = stream.pieces.partition_point(|p| p.end() <= from);
        let generated = match stream.pieces.get(piece) {
            Some(p) => p.gen as usize + from.saturating_sub(p.at as usize),
            None => stream.generated,
        };
        let literal = from - generated;
        let mut one = Payloads { flow: self, stream, front: i, back: i + 1, literal, piece };
        one.next().expect("a recorded packet")
    }

    /// Iterates packets in arrival order as borrowed views, reading every
    /// stamp; a reader after bytes only wants [`Flow::payloads`].
    pub fn packets(&self) -> impl DoubleEndedIterator<Item = PacketView<'_>> + ExactSizeIterator {
        self.payloads().zip(&self.meta).map(|(payload, m)| PacketView {
            at: m.at,
            wall_ts: self.wall_ts(m),
            payload,
        })
    }

    /// Iterates the packets' payloads in arrival order; no stamp is read.
    pub fn payloads(&self) -> Payloads<'_> {
        self.assert_all_cut();
        let stream = self.readable();
        Payloads { flow: self, stream, front: 0, back: self.meta.len(), literal: 0, piece: 0 }
    }

    /// The flow without its first `n` on-wire bytes, as a dissector that
    /// starts after a fixed-size preamble sees it: packets inside the prefix
    /// are gone, the one that straddles its end keeps its tail, and every
    /// packet keeps its instant and its stamp (deferred ones stay unread).
    /// Pieces are copied as pieces; one cut by the prefix starts where the
    /// cut falls.
    pub fn strip_prefix(&self, n: usize) -> Flow {
        self.assert_all_cut();
        let mut out = Flow::on_host(self.kind, self.server.clone(), self.host_clock.clone());
        let stream = self.readable();
        out.reserve(stream.data.len(), self.meta.len());
        out.reserve_pieces(stream.pieces.len());
        let mut wire_start = 0;
        for (m, payload) in self.meta.iter().zip(self.payloads()) {
            let starts_at = std::mem::replace(&mut wire_start, m.wire_end);
            if starts_at < n && m.wire_end <= n {
                continue;
            }
            out.push(m.at, m.stamp, payload.sub(n.saturating_sub(starts_at), payload.len()));
        }
        out
    }

    /// Arrival time of the first packet.
    pub fn first_at(&self) -> Option<SimTime> {
        self.meta.first().map(|m| m.at)
    }

    /// Arrival time of the last packet.
    pub fn last_at(&self) -> Option<SimTime> {
        self.meta.last().map(|m| m.at)
    }

    /// Total payload bytes on the wire (written-out bytes, pieces and
    /// runs).
    pub fn byte_count(&self) -> usize {
        self.meta.last().map_or(0, |m| m.wire_end)
    }

    /// The reassembled, ordered byte stream, always `byte_count()` bytes
    /// long: a free borrow of the arena for a flow that is written-out
    /// bytes only (chat, API), materialised — every piece and run written
    /// out — otherwise (media flows, pictures). A reader that dissects a
    /// media flow pays this once and walks the packets by length.
    pub fn byte_stream(&self) -> Cow<'_, [u8]> {
        self.assert_all_cut();
        let stream = self.readable();
        if self.byte_count() == stream.data.len() {
            return Cow::Borrowed(&stream.data);
        }
        let mut out = Vec::with_capacity(self.byte_count());
        for p in self.payloads() {
            p.write_stream(&mut out);
            out.resize(out.len() + p.pad, p.fill);
        }
        Cow::Owned(out)
    }

    /// Returns the wall timestamp of the packet containing byte `offset` of
    /// the reassembled stream, or `None` past the end.
    pub fn wall_ts_at_byte(&self, offset: usize) -> Option<f64> {
        self.index_at_byte(offset).map(|i| self.wall_ts(&self.meta[i]))
    }

    /// Returns the simulation arrival time of the packet containing byte
    /// `offset`.
    pub fn sim_time_at_byte(&self, offset: usize) -> Option<SimTime> {
        self.index_at_byte(offset).map(|i| self.meta[i].at)
    }

    fn index_at_byte(&self, offset: usize) -> Option<usize> {
        if offset >= self.byte_count() {
            return None;
        }
        // First packet whose (cumulative) end offset exceeds `offset`.
        Some(self.meta.partition_point(|m| m.wire_end <= offset))
    }

    /// Mean downstream rate over the capture in bits/second (first to last
    /// packet), or 0 for degenerate flows.
    pub fn mean_rate_bps(&self) -> f64 {
        let (Some(first), Some(last)) = (self.first_at(), self.last_at()) else {
            return 0.0;
        };
        let dt = last.saturating_since(first).as_secs_f64();
        if dt <= 0.0 {
            return 0.0;
        }
        self.byte_count() as f64 * 8.0 / dt
    }
}

/// The payloads of a flow's packets, in order ([`Flow::payloads`]). Walking
/// forward keeps its place among the written-out bytes and the pieces, so a
/// whole flow is read in one pass; from the back, each payload is looked
/// up.
#[derive(Debug, Clone)]
pub struct Payloads<'a> {
    flow: &'a Flow,
    /// The flow's stream as read.
    stream: &'a Stream,
    /// The next packet from the front, and the one past the next from the
    /// back.
    front: usize,
    back: usize,
    /// Where the front packet's stretch starts in the arena, and the first
    /// piece that ends past its start.
    literal: usize,
    piece: usize,
}

impl<'a> Iterator for Payloads<'a> {
    type Item = Payload<'a>;

    fn next(&mut self) -> Option<Payload<'a>> {
        if self.front == self.back {
            return None;
        }
        let (meta, stream, i) = (&self.flow.meta, self.stream, self.front);
        let m = &meta[i];
        let (from, wire_start) = match i.checked_sub(1) {
            Some(prev) => (meta[prev].stream_end, meta[prev].wire_end),
            None => (0, 0),
        };
        let to = m.stream_end;
        let (first, mut last, mut generated) = (self.piece, self.piece, 0);
        while let Some(p) = stream.pieces.get(last).filter(|p| (p.at as usize) < to) {
            generated += p.end().min(to) - (p.at as usize).max(from);
            last += 1;
        }
        let literal = self.literal..self.literal + (to - from) - generated;
        // The last piece may go on into the next packet.
        self.piece = match last.checked_sub(1) {
            Some(p) if p >= first && stream.pieces[p].end() > to => p,
            _ => last,
        };
        (self.literal, self.front) = (literal.end, i + 1);
        let pad = (m.wire_end - wire_start) - (to - from);
        let (literal, pieces) = (&stream.data[literal], &stream.pieces[first..last]);
        Some(Payload { literal, pieces, from, to, fill: m.fill, pad })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.back - self.front, Some(self.back - self.front))
    }
}

impl DoubleEndedIterator for Payloads<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        (self.front < self.back).then(|| {
            self.back -= 1;
            self.flow.payload(self.back)
        })
    }
}

impl ExactSizeIterator for Payloads<'_> {}

/// A whole session's capture: every downstream flow the phone saw.
#[derive(Debug, Clone, Default)]
pub struct Capture {
    /// All flows in creation order.
    pub flows: Vec<Flow>,
}

impl Capture {
    /// Creates an empty capture.
    pub fn new() -> Self {
        Capture::default()
    }

    /// Adds a flow, returning its index for later `record` calls.
    pub fn open_flow(&mut self, kind: FlowKind, server: impl Into<String>) -> usize {
        self.flows.push(Flow::new(kind, server));
        self.flows.len() - 1
    }

    /// Records a packet on flow `idx`.
    pub fn record<'a>(
        &mut self,
        idx: usize,
        at: SimTime,
        wall_ts: f64,
        payload: impl Into<Payload<'a>>,
    ) {
        self.flows[idx].record(at, wall_ts, payload);
    }

    /// Records a packet of `len` zero bytes on flow `idx`.
    pub fn record_zeros(&mut self, idx: usize, at: SimTime, wall_ts: f64, len: usize) {
        self.flows[idx].record_zeros(at, wall_ts, len);
    }

    /// First flow of a given kind, if any.
    pub fn flow_of_kind(&self, kind: FlowKind) -> Option<&Flow> {
        self.flows.iter().find(|f| f.kind == kind)
    }

    /// All flows of a given kind.
    pub fn flows_of_kind(&self, kind: FlowKind) -> Vec<&Flow> {
        self.flows.iter().filter(|f| f.kind == kind).collect()
    }

    /// Total bytes across all flows.
    pub fn total_bytes(&self) -> usize {
        self.flows.iter().map(Flow::byte_count).sum()
    }

    /// Mean downstream rate over only the given flow kinds, bits/second —
    /// e.g. the steady-state media+chat rate excluding join bootstrap. Reads
    /// packet instants and lengths only, and allocates nothing.
    pub fn rate_of_kinds(&self, kinds: &[FlowKind]) -> f64 {
        let flows = || self.flows.iter().filter(|f| kinds.contains(&f.kind));
        let first = flows().filter_map(Flow::first_at).min();
        let last = flows().filter_map(Flow::last_at).max();
        let (Some(first), Some(last)) = (first, last) else { return 0.0 };
        let dt = last.saturating_since(first).as_secs_f64();
        if dt <= 0.0 {
            return 0.0;
        }
        flows().map(Flow::byte_count).sum::<usize>() as f64 * 8.0 / dt
    }

    /// Aggregate mean downstream rate across all flows, bits/second,
    /// measured from the earliest to the latest packet in the capture.
    pub fn aggregate_rate_bps(&self) -> f64 {
        let first = self.flows.iter().filter_map(|f| f.first_at()).min();
        let last = self.flows.iter().filter_map(|f| f.last_at()).max();
        let (Some(first), Some(last)) = (first, last) else { return 0.0 };
        let dt = last.saturating_since(first).as_secs_f64();
        if dt <= 0.0 {
            return 0.0;
        }
        self.total_bytes() as f64 * 8.0 / dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn byte_stream_reassembles_in_order() {
        let mut f = Flow::new(FlowKind::Rtmp, "ec2-1");
        f.record(t(1), 1.0, &[1, 2]);
        f.record(t(2), 2.0, &[3]);
        f.record(t(3), 3.0, &[4, 5]);
        assert_eq!(&*f.byte_stream(), &[1, 2, 3, 4, 5]);
        assert_eq!(f.byte_count(), 5);
        let views: Vec<Vec<u8>> = f.packets().map(|p| p.payload.bytes().to_vec()).collect();
        assert_eq!(views, vec![vec![1, 2], vec![3], vec![4, 5]]);
        assert_eq!(f.packet_count(), 3);
    }

    #[test]
    fn timestamp_lookup_by_offset() {
        let mut f = Flow::new(FlowKind::Rtmp, "ec2-1");
        f.record(t(1), 1.5, &[0; 10]);
        f.record(t(2), 2.5, &[0; 10]);
        assert_eq!(f.wall_ts_at_byte(0), Some(1.5));
        assert_eq!(f.wall_ts_at_byte(9), Some(1.5));
        assert_eq!(f.wall_ts_at_byte(10), Some(2.5));
        assert_eq!(f.wall_ts_at_byte(19), Some(2.5));
        assert_eq!(f.wall_ts_at_byte(20), None);
        assert_eq!(f.sim_time_at_byte(10), Some(t(2)));
    }

    #[test]
    fn record_zeros_matches_explicit_zero_payload() {
        let mut a = Flow::new(FlowKind::AppMisc, "misc");
        let mut b = Flow::new(FlowKind::AppMisc, "misc");
        a.record(t(1), 1.0, &[0; 37]);
        b.record_zeros(t(1), 1.0, 37);
        assert_eq!(a.byte_stream(), b.byte_stream());
        assert_eq!(a.packet(0), b.packet(0));
    }

    #[test]
    fn mean_rate() {
        let mut f = Flow::new(FlowKind::HlsHttp, "fastly-eu");
        f.record(t(0), 0.0, &[0; 1000]);
        f.record(t(4), 4.0, &[0; 1000]);
        // 2000 bytes over 4 s = 4000 bps.
        assert!((f.mean_rate_bps() - 4000.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_rates_are_zero() {
        let mut f = Flow::new(FlowKind::Chat, "ws");
        assert_eq!(f.mean_rate_bps(), 0.0);
        f.record(t(1), 1.0, &[1]);
        assert_eq!(f.mean_rate_bps(), 0.0);
    }

    #[test]
    fn capture_flow_management() {
        let mut cap = Capture::new();
        let a = cap.open_flow(FlowKind::Rtmp, "ec2-1");
        let b = cap.open_flow(FlowKind::Chat, "ws-1");
        cap.record(a, t(1), 1.0, &[0; 100]);
        cap.record(b, t(1), 1.0, &[0; 50]);
        assert_eq!(cap.total_bytes(), 150);
        assert_eq!(cap.flow_of_kind(FlowKind::Chat).unwrap().server, "ws-1");
        assert!(cap.flow_of_kind(FlowKind::HlsHttp).is_none());
        assert_eq!(cap.flows_of_kind(FlowKind::Rtmp).len(), 1);
    }

    #[test]
    fn aggregate_rate_spans_flows() {
        let mut cap = Capture::new();
        let a = cap.open_flow(FlowKind::HlsHttp, "fastly-1");
        let b = cap.open_flow(FlowKind::HlsHttp, "fastly-2");
        cap.record(a, t(0), 0.0, &[0; 500]);
        cap.record(b, t(2), 2.0, &[0; 500]);
        // 1000 bytes over 2 s = 4000 bps.
        assert!((cap.aggregate_rate_bps() - 4000.0).abs() < 1e-9);
    }
}
