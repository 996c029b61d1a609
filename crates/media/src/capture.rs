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
//! Storage is arena-based and run-length aware: a packet's payload is a
//! literal part followed by a *run* — `pad` copies of one `fill` byte (see
//! [`Payload`]). Each [`Flow`] keeps one contiguous arena of the literal
//! bytes plus per-packet metadata (timestamps, the literal end offset and
//! the cumulative on-wire end offset), so recording a packet is a bounds
//! check and a memcpy of its literal part — no per-packet `Vec`, and
//! nothing at all is written for a run. Filler traffic whose contents no
//! analysis reads (profile-picture bodies, app bootstrap) is recorded as
//! runs; every size, offset and rate below is in on-wire bytes, exactly as
//! if the run had been stored. Packets are exposed as borrowed
//! [`PacketView`]s.
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
//! A session writes each literal byte here and nowhere else: it states a
//! send's length, [`Flow::append_with`] hands the arena to whatever writes
//! the bytes, and [`Flow::cut`]/[`Flow::cut_deferred`] then lay packets over
//! them by length as the link delivers them — the same flow a `record` per
//! packet would have built, without the copy out of an intermediate buffer.

use pscp_simnet::rng::CounterRng;
use pscp_simnet::{SimTime, WallClock};
use std::borrow::Cow;

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

/// One packet's payload: `literal` followed by `pad` copies of `fill`.
///
/// A plain byte slice is the `pad == 0` case (`From<&[u8]>`). Equality is
/// by content: a run and the same bytes written out compare equal.
#[derive(Debug, Clone, Copy)]
pub struct Payload<'a> {
    literal: &'a [u8],
    fill: u8,
    pad: usize,
}

impl<'a> Payload<'a> {
    /// `literal` followed by `pad` copies of `fill`.
    pub fn run(literal: &'a [u8], fill: u8, pad: usize) -> Self {
        Payload { literal, fill, pad }
    }

    /// On-wire length: literal bytes plus the run.
    pub fn len(&self) -> usize {
        self.literal.len() + self.pad
    }

    /// Whether the payload has no bytes on the wire.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The literal part.
    pub fn literal(&self) -> &'a [u8] {
        self.literal
    }

    /// The on-wire bytes: a free borrow when there is no run, materialised
    /// otherwise.
    pub fn bytes(&self) -> Cow<'a, [u8]> {
        if self.pad == 0 {
            return Cow::Borrowed(self.literal);
        }
        let mut out = Vec::with_capacity(self.len());
        out.extend_from_slice(self.literal);
        out.resize(self.len(), self.fill);
        Cow::Owned(out)
    }

    /// Splits the on-wire bytes into packets of at most `mtu` bytes (the
    /// last may be shorter), like `<[u8]>::chunks` on the materialised
    /// payload.
    pub fn chunks(self, mtu: usize) -> impl Iterator<Item = Payload<'a>> + Clone {
        assert!(mtu > 0, "chunk size must be non-zero");
        let len = self.len();
        let lit = self.literal.len();
        (0..len.div_ceil(mtu)).map(move |i| {
            let (from, to) = (i * mtu, len.min((i + 1) * mtu));
            let literal = &self.literal[from.min(lit)..to.min(lit)];
            Payload { literal, fill: self.fill, pad: (to - from) - literal.len() }
        })
    }
}

impl PartialEq for Payload<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.bytes() == other.bytes()
    }
}

impl<'a> From<&'a [u8]> for Payload<'a> {
    fn from(literal: &'a [u8]) -> Self {
        Payload { literal, fill: 0, pad: 0 }
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

/// Per-packet metadata. The packet's literal bytes live in the flow arena,
/// ending at `lit_end`; its on-wire bytes end at stream offset `wire_end`
/// (the previous packet's ends — or 0 — mark the starts). What the two
/// lengths differ by is the packet's run of `fill`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PacketMeta {
    at: SimTime,
    stamp: Stamp,
    lit_end: usize,
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
    /// Concatenated literal bytes of every packet, in arrival order.
    data: Vec<u8>,
    /// Per-packet timestamps + cumulative literal and on-wire end offsets.
    meta: Vec<PacketMeta>,
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
        Flow { kind, server: server.into(), host_clock, data: Vec::new(), meta: Vec::new() }
    }

    /// Pre-sizes the literal arena and packet index (e.g. for
    /// allocation-free steady-state recording). Runs need no space.
    pub fn reserve(&mut self, bytes: usize, packets: usize) {
        self.data.reserve(bytes);
        self.meta.reserve(packets);
    }

    /// Records a packet the host stamped `wall_ts`: its literal part is
    /// copied into the flow arena, its run is only counted.
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

    /// Appends `n` literal bytes, produced by `write`, that belong to no
    /// packet yet: [`Flow::cut`]/[`Flow::cut_deferred`] lay packets over
    /// them. Until every appended byte is cut the flow cannot be read, and
    /// `record` cannot be mixed in.
    pub fn append_with(&mut self, n: usize, write: impl FnOnce(&mut Vec<u8>)) {
        let start = self.data.len();
        write(&mut self.data);
        assert_eq!(self.data.len(), start + n, "writer produced another length than stated");
    }

    /// Cuts the next packet, stamped `wall_ts`, over the appended bytes: the
    /// next `literal` of them followed by a run of `pad` × `fill`.
    pub fn cut(&mut self, at: SimTime, wall_ts: f64, literal: usize, fill: u8, pad: usize) {
        self.cut_packet(at, Stamp::Read(wall_ts), literal, fill, pad);
    }

    /// [`Flow::cut`] stamped like [`Flow::record_deferred`].
    pub fn cut_deferred(
        &mut self,
        at: SimTime,
        jitter: &mut CounterRng,
        literal: usize,
        fill: u8,
        pad: usize,
    ) {
        let position = self.host_clock.defer(jitter);
        self.cut_packet(at, Stamp::Deferred(position), literal, fill, pad);
    }

    fn push(&mut self, at: SimTime, stamp: Stamp, payload: Payload<'_>) {
        self.assert_all_cut();
        self.data.extend_from_slice(payload.literal);
        self.cut_packet(at, stamp, payload.literal.len(), payload.fill, payload.pad);
    }

    fn cut_packet(&mut self, at: SimTime, stamp: Stamp, literal: usize, fill: u8, pad: usize) {
        debug_assert!(
            self.meta.last().map(|p| p.at <= at).unwrap_or(true),
            "packets must be recorded in order"
        );
        let lit_end = self.cut_end() + literal;
        assert!(lit_end <= self.data.len(), "packet cut past the appended bytes");
        self.meta.push(PacketMeta {
            at,
            stamp,
            lit_end,
            wire_end: self.byte_count() + literal + pad,
            fill,
        });
    }

    /// Arena offset up to which literal bytes belong to packets.
    fn cut_end(&self) -> usize {
        self.meta.last().map_or(0, |m| m.lit_end)
    }

    /// Where every reader of packets or of the stream starts (and
    /// `record`): a flow is whole packets or it is not readable.
    #[inline]
    fn assert_all_cut(&self) {
        assert_eq!(self.cut_end(), self.data.len(), "appended bytes not yet cut into packets");
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

    /// The `i`-th packet as a borrowed view, its stamp read.
    #[inline]
    pub fn packet(&self, i: usize) -> PacketView<'_> {
        let m = &self.meta[i];
        PacketView { at: m.at, wall_ts: self.wall_ts(m), payload: self.payload(i) }
    }

    /// The `i`-th packet's payload.
    #[inline]
    fn payload(&self, i: usize) -> Payload<'_> {
        let m = &self.meta[i];
        let (lit_start, wire_start) = match i.checked_sub(1) {
            Some(prev) => (self.meta[prev].lit_end, self.meta[prev].wire_end),
            None => (0, 0),
        };
        let literal = &self.data[lit_start..m.lit_end];
        let pad = (m.wire_end - wire_start) - literal.len();
        Payload::run(literal, m.fill, pad)
    }

    /// Iterates packets in arrival order as borrowed views, reading every
    /// stamp; a reader after bytes only wants [`Flow::payloads`].
    pub fn packets(&self) -> impl DoubleEndedIterator<Item = PacketView<'_>> + ExactSizeIterator {
        self.assert_all_cut();
        (0..self.meta.len()).map(|i| self.packet(i))
    }

    /// Iterates the packets' payloads in arrival order; no stamp is read.
    pub fn payloads(&self) -> impl DoubleEndedIterator<Item = Payload<'_>> + ExactSizeIterator {
        self.assert_all_cut();
        (0..self.meta.len()).map(|i| self.payload(i))
    }

    /// The flow without its first `n` on-wire bytes, as a dissector that
    /// starts after a fixed-size preamble sees it: packets inside the prefix
    /// are gone, the one that straddles its end keeps its tail, and every
    /// packet keeps its instant and its stamp (deferred ones stay unread).
    pub fn strip_prefix(&self, n: usize) -> Flow {
        self.assert_all_cut();
        let mut out = Flow::on_host(self.kind, self.server.clone(), self.host_clock.clone());
        out.reserve(self.data.len(), self.meta.len());
        let mut wire_start = 0;
        for (i, m) in self.meta.iter().enumerate() {
            let starts_at = std::mem::replace(&mut wire_start, m.wire_end);
            if starts_at < n && m.wire_end <= n {
                continue;
            }
            let mut payload = self.payload(i);
            let cut = n.saturating_sub(starts_at);
            let cut_literal = cut.min(payload.literal.len());
            payload.literal = &payload.literal[cut_literal..];
            payload.pad -= cut - cut_literal;
            out.push(m.at, m.stamp, payload);
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

    /// Total payload bytes on the wire (literal bytes plus runs).
    pub fn byte_count(&self) -> usize {
        self.meta.last().map_or(0, |m| m.wire_end)
    }

    /// The reassembled, ordered byte stream: a free borrow of the arena
    /// for a flow without runs, materialised (runs written out) otherwise —
    /// always `byte_count()` bytes long.
    pub fn byte_stream(&self) -> Cow<'_, [u8]> {
        self.assert_all_cut();
        if self.byte_count() == self.data.len() {
            return Cow::Borrowed(&self.data);
        }
        let mut out = Vec::with_capacity(self.byte_count());
        for p in self.payloads() {
            out.extend_from_slice(p.literal);
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
