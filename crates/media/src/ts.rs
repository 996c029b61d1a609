//! MPEG-TS (ISO/IEC 13818-1) mux and demux.
//!
//! §2 of the paper: after isolating an HLS HTTP response, the body "contains
//! an MPEG-TS file ready to be played". HLS segments here are genuine
//! transport streams: 188-byte packets, PAT/PMT with MPEG-2 CRC32, PES
//! packets with 33-bit 90 kHz PTS, continuity counters, and adaptation-field
//! stuffing. The demuxer validates all of it — it is the parser the capture
//! analysis runs, standing in for the paper's wireshark + libav toolchain.
//!
//! Both directions are zero-copy on the hot path: the muxer writes 188-byte
//! packets straight into a caller-provided buffer from borrowed access-unit
//! slices ([`TsMuxer::mux_into`]), and the incremental [`TsDemuxer`]
//! accumulates PES payloads in per-PID arenas and yields [`TsUnitRef`]
//! views into them. The owned [`TsUnit`] API ([`TsMuxer::mux_segment`],
//! [`demux_segment`]) wraps the same machinery.

use crate::bitstream::FramePayload;
use pscp_proto::ProtoError;

/// Transport packet size.
pub const TS_PACKET: usize = 188;
/// Sync byte.
pub const SYNC: u8 = 0x47;
/// PID of the Program Association Table.
pub const PID_PAT: u16 = 0x0000;
/// PID we allocate for the Program Map Table.
pub const PID_PMT: u16 = 0x1000;
/// PID of the video elementary stream.
pub const PID_VIDEO: u16 = 0x0100;
/// PID of the audio elementary stream.
pub const PID_AUDIO: u16 = 0x0101;
/// PES stream id for video.
const STREAM_ID_VIDEO: u8 = 0xE0;
/// PES stream id for audio.
const STREAM_ID_AUDIO: u8 = 0xC0;

/// MPEG-2 CRC32 (as used in PSI tables): polynomial 0x04C11DB7, init all
/// ones, no reflection, no final xor.
pub fn crc32_mpeg2(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc ^= (byte as u32) << 24;
        for _ in 0..8 {
            crc = if crc & 0x8000_0000 != 0 { (crc << 1) ^ 0x04C1_1DB7 } else { crc << 1 };
        }
    }
    crc
}

/// One elementary-stream access unit recovered from (or destined for) a
/// transport stream.
#[derive(Debug, Clone, PartialEq)]
pub enum TsUnit {
    /// A video access unit with PTS (ms domain of the encoder).
    Video {
        /// PTS in milliseconds.
        pts_ms: u32,
        /// Coded frame bytes (a [`FramePayload`]).
        data: Vec<u8>,
    },
    /// An audio access unit.
    Audio {
        /// PTS in milliseconds.
        pts_ms: u32,
        /// Opaque coded audio bytes.
        data: Vec<u8>,
    },
}

impl TsUnit {
    /// PTS in ms.
    pub fn pts_ms(&self) -> u32 {
        match self {
            TsUnit::Video { pts_ms, .. } | TsUnit::Audio { pts_ms, .. } => *pts_ms,
        }
    }

    /// Borrowed view of this unit for zero-copy muxing.
    pub fn as_ref(&self) -> TsUnitRef<'_> {
        match self {
            TsUnit::Video { pts_ms, data } => TsUnitRef { video: true, pts_ms: *pts_ms, data },
            TsUnit::Audio { pts_ms, data } => TsUnitRef { video: false, pts_ms: *pts_ms, data },
        }
    }
}

/// A borrowed access unit: the zero-copy input to [`TsMuxer::mux_into`] and
/// output of [`TsDemuxer::units`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsUnitRef<'a> {
    /// True for video, false for audio.
    pub video: bool,
    /// PTS in milliseconds.
    pub pts_ms: u32,
    /// Borrowed access-unit bytes.
    pub data: &'a [u8],
}

impl TsUnitRef<'_> {
    /// Copies the view into an owned [`TsUnit`].
    pub fn to_unit(&self) -> TsUnit {
        if self.video {
            TsUnit::Video { pts_ms: self.pts_ms, data: self.data.to_vec() }
        } else {
            TsUnit::Audio { pts_ms: self.pts_ms, data: self.data.to_vec() }
        }
    }
}

/// Flat continuity-counter slot for the four PIDs the muxer/demuxer use.
fn pid_slot(pid: u16) -> Option<usize> {
    match pid {
        PID_PAT => Some(0),
        PID_PMT => Some(1),
        PID_VIDEO => Some(2),
        PID_AUDIO => Some(3),
        _ => None,
    }
}

/// Multiplexes access units into a complete TS segment (PAT, PMT, then one
/// PES packet per unit).
#[derive(Debug)]
pub struct TsMuxer {
    continuity: [u8; 4],
}

impl Default for TsMuxer {
    fn default() -> Self {
        Self::new()
    }
}

impl TsMuxer {
    /// Creates a muxer with zeroed continuity counters.
    pub fn new() -> Self {
        TsMuxer { continuity: [0; 4] }
    }

    /// Builds a segment containing `units`, prefixed by PAT and PMT.
    pub fn mux_segment(&mut self, units: &[TsUnit]) -> Vec<u8> {
        let mut out = Vec::new();
        self.mux_into(units.iter().map(TsUnit::as_ref), &mut out);
        out
    }

    /// Exact byte length of a segment holding access units of these lengths:
    /// PAT and PMT, then each unit's PES header and body split over
    /// 184-byte packet payloads. Lets a caller allocate a segment once.
    pub fn segment_len(unit_lens: impl IntoIterator<Item = usize>) -> usize {
        let packets: usize = unit_lens.into_iter().map(pes_packets).sum();
        (2 + packets) * TS_PACKET
    }

    /// Zero-copy variant of [`TsMuxer::mux_segment`]: writes the segment's
    /// packets directly into `out` from borrowed access units.
    pub fn mux_into<'a>(
        &mut self,
        units: impl IntoIterator<Item = TsUnitRef<'a>>,
        out: &mut Vec<u8>,
    ) {
        self.begin_segment(out);
        for unit in units {
            self.write_unit(unit, out);
        }
    }

    /// A muxer about to write the segment whose first packets carry these
    /// continuity counters ([`TsMuxer::continuity`] of the muxer that cut
    /// it), so a segment can be written alone, whenever someone fetches it.
    pub fn resume(continuity: [u8; 4]) -> Self {
        TsMuxer { continuity }
    }

    /// The counters the next packet of each PID (PAT, PMT, video, audio)
    /// will carry.
    pub fn continuity(&self) -> [u8; 4] {
        self.continuity
    }

    /// Advances the counters past a segment of these `(video, length)`
    /// units without writing it: what [`TsMuxer::mux_into`] leaves behind.
    pub fn skip_segment(&mut self, units: impl IntoIterator<Item = (bool, usize)>) {
        let mut packets = [1usize, 1, 0, 0];
        for (video, len) in units {
            packets[if video { 2 } else { 3 }] += pes_packets(len);
        }
        for (cc, n) in self.continuity.iter_mut().zip(packets) {
            *cc = ((*cc as usize + n) & 0x0F) as u8;
        }
    }

    /// Starts a segment: PAT, then PMT.
    pub fn begin_segment(&mut self, out: &mut Vec<u8>) {
        self.write_psi(PID_PAT, pat_section(), out);
        self.write_psi(PID_PMT, pmt_section(), out);
    }

    /// Appends one access unit's PES packet to the segment.
    pub fn write_unit(&mut self, unit: TsUnitRef<'_>, out: &mut Vec<u8>) {
        let (pid, stream_id) =
            if unit.video { (PID_VIDEO, STREAM_ID_VIDEO) } else { (PID_AUDIO, STREAM_ID_AUDIO) };
        let header = pes_header(stream_id, unit.pts_ms, unit.data.len());
        self.write_payload(pid, &header, unit.data, true, out);
    }

    fn next_cc(&mut self, pid: u16) -> u8 {
        let cc = &mut self.continuity[pid_slot(pid).expect("muxer writes known PIDs")];
        let current = *cc;
        *cc = (*cc + 1) & 0x0F;
        current
    }

    /// Writes a PSI section (pointer_field prefix) into TS packets.
    fn write_psi(&mut self, pid: u16, section: &[u8], out: &mut Vec<u8>) {
        self.write_payload(pid, &[0u8], section, true, out); // head = pointer_field
    }

    /// Splits the virtual concatenation `head ++ tail` across TS packets on
    /// `pid`, writing directly into `out`; `pusi` marks the first packet.
    fn write_payload(&mut self, pid: u16, head: &[u8], tail: &[u8], pusi: bool, out: &mut Vec<u8>) {
        let total = head.len() + tail.len();
        let mut off = 0;
        let mut first = true;
        while off < total {
            let remaining = total - off;
            let pkt_start = out.len();
            out.reserve(TS_PACKET);
            out.push(SYNC);
            let pusi_bit = if first && pusi { 0x40 } else { 0x00 };
            out.push(pusi_bit | ((pid >> 8) as u8 & 0x1F));
            out.push(pid as u8);
            let cc = self.next_cc(pid);
            let body_space = TS_PACKET - 4;
            if remaining >= body_space {
                // Payload only (adaptation_field_control = 01).
                out.push(0x10 | cc);
                copy_parts(head, tail, off, body_space, out);
                off += body_space;
            } else {
                // Needs stuffing: adaptation field present (11).
                out.push(0x30 | cc);
                let af_len = body_space - remaining - 1; // af length byte itself
                out.push(af_len as u8);
                if af_len > 0 {
                    out.push(0x00); // flags
                    out.resize(out.len() + (af_len - 1), 0xFF);
                }
                copy_parts(head, tail, off, remaining, out);
                off = total;
            }
            debug_assert_eq!(out.len() - pkt_start, TS_PACKET);
            first = false;
        }
    }
}

/// Appends `len` bytes starting at offset `off` of the virtual byte string
/// `head ++ tail` to `out`.
fn copy_parts(head: &[u8], tail: &[u8], off: usize, len: usize, out: &mut Vec<u8>) {
    let h = head.len();
    if off < h {
        let take = len.min(h - off);
        out.extend_from_slice(&head[off..off + take]);
        if take < len {
            out.extend_from_slice(&tail[..len - take]);
        }
    } else {
        out.extend_from_slice(&tail[off - h..off - h + len]);
    }
}

/// Builds the PAT: one program, PMT at [`PID_PMT`]. The section is constant;
/// it is computed once and cached.
fn pat_section() -> &'static [u8] {
    static PAT: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    PAT.get_or_init(|| {
        let mut body = Vec::new();
        body.push(0x00); // table_id: PAT
                         // section_syntax_indicator=1, length filled below.
        let mut section = vec![0u8; 0];
        section.extend_from_slice(&[0x00, 0x01]); // transport_stream_id
        section.push(0xC1); // version 0, current_next=1
        section.push(0x00); // section_number
        section.push(0x00); // last_section_number
        section.extend_from_slice(&[0x00, 0x01]); // program_number 1
        section.push(0xE0 | ((PID_PMT >> 8) as u8 & 0x1F));
        section.push(PID_PMT as u8);
        let len = section.len() + 4; // + CRC
        body.push(0xB0 | ((len >> 8) as u8 & 0x0F));
        body.push(len as u8);
        body.extend_from_slice(&section);
        let crc = crc32_mpeg2(&body);
        body.extend_from_slice(&crc.to_be_bytes());
        body
    })
}

/// Builds the PMT: AVC video on [`PID_VIDEO`], AAC audio on [`PID_AUDIO`].
/// Constant, computed once.
fn pmt_section() -> &'static [u8] {
    static PMT: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    PMT.get_or_init(|| {
        let mut body = Vec::new();
        body.push(0x02); // table_id: PMT
        let mut section = Vec::new();
        section.extend_from_slice(&[0x00, 0x01]); // program_number
        section.push(0xC1);
        section.push(0x00);
        section.push(0x00);
        section.push(0xE0 | ((PID_VIDEO >> 8) as u8 & 0x1F)); // PCR PID = video
        section.push(PID_VIDEO as u8);
        section.extend_from_slice(&[0xF0, 0x00]); // program_info_length 0
                                                  // Video: stream_type 0x1B (AVC).
        section.push(0x1B);
        section.push(0xE0 | ((PID_VIDEO >> 8) as u8 & 0x1F));
        section.push(PID_VIDEO as u8);
        section.extend_from_slice(&[0xF0, 0x00]);
        // Audio: stream_type 0x0F (AAC ADTS).
        section.push(0x0F);
        section.push(0xE0 | ((PID_AUDIO >> 8) as u8 & 0x1F));
        section.push(PID_AUDIO as u8);
        section.extend_from_slice(&[0xF0, 0x00]);
        let len = section.len() + 4;
        body.push(0xB0 | ((len >> 8) as u8 & 0x0F));
        body.push(len as u8);
        body.extend_from_slice(&section);
        let crc = crc32_mpeg2(&body);
        body.extend_from_slice(&crc.to_be_bytes());
        body
    })
}

/// Length of the PES header [`pes_header`] writes.
const PES_HEADER_LEN: usize = 14;

/// Transport packets an access unit of `len` bytes takes: its PES header
/// and body split over 184-byte packet payloads.
fn pes_packets(len: usize) -> usize {
    (PES_HEADER_LEN + len).div_ceil(TS_PACKET - 4)
}

/// PES packet header with a 5-byte PTS field, for a payload of `data_len`
/// bytes.
fn pes_header(stream_id: u8, pts_ms: u32, data_len: usize) -> [u8; PES_HEADER_LEN] {
    let mut h = [0u8; PES_HEADER_LEN];
    h[2] = 0x01; // start code 00 00 01
    h[3] = stream_id;
    let pes_len = 3 + 5 + data_len;
    // Video PES length may be 0 (unbounded) but we always know it here.
    let pes_len_field = if pes_len > u16::MAX as usize { 0 } else { pes_len as u16 };
    h[4..6].copy_from_slice(&pes_len_field.to_be_bytes());
    h[6] = 0x80; // marker bits '10'
    h[7] = 0x80; // PTS_DTS_flags = '10' (PTS only)
    h[8] = 5; // PES_header_data_length
              // PTS: 90 kHz clock, 33 bits, '0010' prefix.
    let pts = (pts_ms as u64) * 90;
    h[9] = 0b0010_0000 | (((pts >> 30) as u8 & 0x07) << 1) | 1;
    h[10] = (pts >> 22) as u8;
    h[11] = (((pts >> 14) as u8) & 0xFE) | 1;
    h[12] = (pts >> 7) as u8;
    h[13] = (((pts << 1) as u8) & 0xFE) | 1;
    h
}

/// Location of a completed access unit inside a [`TsDemuxer`] arena.
#[derive(Debug, Clone, Copy)]
struct UnitMeta {
    video: bool,
    pts_ms: u32,
    start: usize,
    end: usize,
}

/// Incremental, reusable TS demultiplexer.
///
/// Feed 188-byte-aligned bytes with [`TsDemuxer::push`], call
/// [`TsDemuxer::finish`] at segment end, then iterate [`TsDemuxer::units`]
/// for borrowed views. PES payloads are assembled in two per-PID arenas and
/// never copied again; [`TsDemuxer::reset`] recycles the arenas (capacity
/// kept) so a demuxer reused across segments stops allocating.
///
/// Validates sync bytes, continuity counters, PSI CRCs and PES headers —
/// corruption anywhere surfaces as an error rather than silently skewed
/// statistics.
#[derive(Debug, Default)]
pub struct TsDemuxer {
    /// PES payload arenas: `[video, audio]`.
    arenas: [Vec<u8>; 2],
    /// Byte offset where the in-progress PES begins in its arena.
    open_at: [Option<usize>; 2],
    /// Continuity counters, indexed by [`pid_slot`].
    last_cc: [Option<u8>; 4],
    units: Vec<UnitMeta>,
    pat_seen: bool,
    pmt_seen: bool,
}

impl TsDemuxer {
    /// Creates an empty demuxer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all state but keeps arena capacity, ready for the next
    /// segment.
    pub fn reset(&mut self) {
        self.arenas[0].clear();
        self.arenas[1].clear();
        self.open_at = [None; 2];
        self.last_cc = [None; 4];
        self.units.clear();
        self.pat_seen = false;
        self.pmt_seen = false;
    }

    /// Consumes a 188-byte-aligned run of transport packets.
    pub fn push(&mut self, bytes: &[u8]) -> Result<(), ProtoError> {
        if !bytes.len().is_multiple_of(TS_PACKET) {
            return Err(ProtoError::Malformed(format!(
                "segment length {} not a multiple of 188",
                bytes.len()
            )));
        }
        for pkt in bytes.chunks(TS_PACKET) {
            self.push_packet(pkt)?;
        }
        Ok(())
    }

    fn push_packet(&mut self, pkt: &[u8]) -> Result<(), ProtoError> {
        if pkt[0] != SYNC {
            return Err(ProtoError::Malformed("lost sync".to_string()));
        }
        let pusi = pkt[1] & 0x40 != 0;
        let pid = (((pkt[1] & 0x1F) as u16) << 8) | pkt[2] as u16;
        let afc = (pkt[3] >> 4) & 0x03;
        let cc = pkt[3] & 0x0F;
        if let Some(slot) = pid_slot(pid) {
            if let Some(prev) = self.last_cc[slot] {
                let expected = (prev + 1) & 0x0F;
                if cc != expected {
                    return Err(ProtoError::Protocol(format!(
                        "continuity error on pid {pid:#x}: got {cc}, expected {expected}"
                    )));
                }
            }
            self.last_cc[slot] = Some(cc);
        }
        let mut off = 4;
        if afc & 0x02 != 0 {
            let af_len = pkt[4] as usize;
            off += 1 + af_len;
            if off > TS_PACKET {
                return Err(ProtoError::Malformed("adaptation field overflow".to_string()));
            }
        }
        if afc & 0x01 == 0 {
            return Ok(()); // no payload
        }
        let payload = &pkt[off..];
        match pid {
            PID_PAT | PID_PMT => {
                if !pusi {
                    return Ok(());
                }
                let pointer = *payload.first().ok_or(ProtoError::Truncated)? as usize;
                let section = payload.get(1 + pointer..).ok_or_else(|| {
                    ProtoError::Malformed("PSI pointer_field overruns packet".to_string())
                })?;
                validate_psi(section)?;
                if pid == PID_PAT {
                    self.pat_seen = true;
                } else {
                    self.pmt_seen = true;
                }
            }
            PID_VIDEO | PID_AUDIO => {
                let es = if pid == PID_VIDEO { 0 } else { 1 };
                if pusi {
                    // Flush the previous PES on this PID.
                    self.close_pes(es)?;
                    self.open_at[es] = Some(self.arenas[es].len());
                    self.arenas[es].extend_from_slice(payload);
                } else if self.open_at[es].is_some() {
                    self.arenas[es].extend_from_slice(payload);
                } else {
                    return Err(ProtoError::Protocol(format!(
                        "continuation on pid {pid:#x} with no PES start"
                    )));
                }
            }
            other => {
                return Err(ProtoError::Protocol(format!("unexpected pid {other:#x}")));
            }
        }
        Ok(())
    }

    /// Parses the PES accumulating on elementary stream `es` (if any) into a
    /// unit; its payload stays where it was assembled.
    fn close_pes(&mut self, es: usize) -> Result<(), ProtoError> {
        let Some(start) = self.open_at[es].take() else { return Ok(()) };
        let buf = &self.arenas[es][start..];
        if buf.len() < 14 {
            return Err(ProtoError::Truncated);
        }
        if buf[0] != 0 || buf[1] != 0 || buf[2] != 1 {
            return Err(ProtoError::Malformed("bad PES start code".to_string()));
        }
        let flags = buf[7];
        if flags & 0x80 == 0 {
            return Err(ProtoError::Protocol("PES without PTS".to_string()));
        }
        let header_len = buf[8] as usize;
        let pts = (((buf[9] >> 1) as u64 & 0x07) << 30)
            | ((buf[10] as u64) << 22)
            | (((buf[11] >> 1) as u64) << 15)
            | ((buf[12] as u64) << 7)
            | ((buf[13] >> 1) as u64);
        let pts_ms = (pts / 90) as u32;
        let data_start = 9 + header_len;
        if buf.len() < data_start {
            return Err(ProtoError::Truncated);
        }
        self.units.push(UnitMeta {
            video: es == 0,
            pts_ms,
            start: start + data_start,
            end: self.arenas[es].len(),
        });
        Ok(())
    }

    /// Flushes any in-progress PES packets and checks that the stream
    /// carried PAT and PMT. Call once, after the last [`TsDemuxer::push`].
    pub fn finish(&mut self) -> Result<(), ProtoError> {
        // Fixed flush order (video, then audio) — combined with the stable
        // PTS sort below this is deterministic, unlike iterating a map.
        self.close_pes(0)?;
        self.close_pes(1)?;
        if !self.pat_seen || !self.pmt_seen {
            return Err(ProtoError::Protocol("segment missing PAT/PMT".to_string()));
        }
        // PES flushes can reorder across PIDs; restore PTS order.
        self.units.sort_by_key(|u| u.pts_ms);
        Ok(())
    }

    /// Borrowed access units in PTS order. Valid after
    /// [`TsDemuxer::finish`], until the next `push`/`reset`.
    pub fn units(&self) -> impl Iterator<Item = TsUnitRef<'_>> {
        self.units.iter().map(|m| TsUnitRef {
            video: m.video,
            pts_ms: m.pts_ms,
            data: &self.arenas[if m.video { 0 } else { 1 }][m.start..m.end],
        })
    }
}

/// Demultiplexes a TS segment back into owned access units.
pub fn demux_segment(bytes: &[u8]) -> Result<Vec<TsUnit>, ProtoError> {
    let mut d = TsDemuxer::new();
    d.push(bytes)?;
    d.finish()?;
    Ok(d.units().map(|u| u.to_unit()).collect())
}

fn validate_psi(section: &[u8]) -> Result<(), ProtoError> {
    if section.len() < 4 {
        return Err(ProtoError::Truncated);
    }
    let len = (((section[1] & 0x0F) as usize) << 8) | section[2] as usize;
    let total = 3 + len;
    if section.len() < total {
        return Err(ProtoError::Truncated);
    }
    let body = &section[..total - 4];
    let crc = u32::from_be_bytes(section[total - 4..total].try_into().expect("4"));
    if crc32_mpeg2(body) != crc {
        return Err(ProtoError::Malformed("PSI CRC mismatch".to_string()));
    }
    Ok(())
}

/// Extracts the decoded video frame payloads of a segment, in PTS order.
pub fn segment_video_frames(bytes: &[u8]) -> Result<Vec<FramePayload>, ProtoError> {
    let mut d = TsDemuxer::new();
    d.push(bytes)?;
    d.finish()?;
    d.units()
        .filter_map(|u| if u.video { Some(FramePayload::decode(u.data)) } else { None })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::FrameKind;

    fn video_unit(pts_ms: u32, size: usize) -> TsUnit {
        let frame = FramePayload {
            kind: FrameKind::P,
            qp: 30,
            width: 320,
            height: 568,
            pts_ms,
            ntp_s: None,
            size,
        };
        TsUnit::Video { pts_ms, data: frame.encode() }
    }

    fn audio_unit(pts_ms: u32, size: usize) -> TsUnit {
        TsUnit::Audio { pts_ms, data: vec![0xAA; size] }
    }

    #[test]
    fn crc32_known_vector() {
        // CRC32/MPEG-2 of "123456789" is 0x0376E6E7.
        assert_eq!(crc32_mpeg2(b"123456789"), 0x0376_E6E7);
    }

    #[test]
    fn segment_is_packet_aligned() {
        let mut mux = TsMuxer::new();
        let seg = mux.mux_segment(&[video_unit(0, 500)]);
        assert_eq!(seg.len() % TS_PACKET, 0);
        assert!(seg.len() >= 3 * TS_PACKET); // PAT + PMT + >=1 data packet
        for pkt in seg.chunks(TS_PACKET) {
            assert_eq!(pkt[0], SYNC);
        }
    }

    #[test]
    fn roundtrip_single_video_unit() {
        let mut mux = TsMuxer::new();
        let unit = video_unit(1234, 700);
        let seg = mux.mux_segment(std::slice::from_ref(&unit));
        let units = demux_segment(&seg).unwrap();
        assert_eq!(units, vec![unit]);
    }

    #[test]
    fn roundtrip_mixed_units() {
        let mut mux = TsMuxer::new();
        let units = vec![
            video_unit(0, 2000),
            audio_unit(10, 93),
            video_unit(33, 600),
            audio_unit(33, 95),
            video_unit(66, 450),
        ];
        let seg = mux.mux_segment(&units);
        let got = demux_segment(&seg).unwrap();
        assert_eq!(got, units);
    }

    #[test]
    fn large_frame_spans_many_packets() {
        let mut mux = TsMuxer::new();
        let unit = video_unit(0, 20_000);
        let seg = mux.mux_segment(std::slice::from_ref(&unit));
        assert!(seg.len() / TS_PACKET > 100);
        let got = demux_segment(&seg).unwrap();
        assert_eq!(got.len(), 1);
        match &got[0] {
            TsUnit::Video { data, .. } => assert_eq!(data.len(), 20_000),
            _ => panic!("expected video"),
        }
    }

    #[test]
    fn continuity_preserved_across_segments() {
        // One muxer producing consecutive segments keeps counters rolling;
        // each segment is independently demuxable because counters only
        // need to be *consecutive*, and the demuxer checks per-PID deltas
        // within the segment.
        let mut mux = TsMuxer::new();
        let s1 = mux.mux_segment(&[video_unit(0, 400)]);
        let s2 = mux.mux_segment(&[video_unit(33, 400)]);
        demux_segment(&s1).unwrap();
        demux_segment(&s2).unwrap();
    }

    #[test]
    fn corrupted_sync_detected() {
        let mut mux = TsMuxer::new();
        let mut seg = mux.mux_segment(&[video_unit(0, 400)]);
        seg[TS_PACKET] = 0x48;
        assert!(demux_segment(&seg).is_err());
    }

    #[test]
    fn corrupted_crc_detected() {
        let mut mux = TsMuxer::new();
        let mut seg = mux.mux_segment(&[video_unit(0, 400)]);
        // PAT is the first packet; its section sits at the packet tail after
        // adaptation-field stuffing. Flip its last byte (part of the CRC).
        seg[TS_PACKET - 1] ^= 0xFF;
        assert!(demux_segment(&seg).is_err());
    }

    #[test]
    fn truncated_segment_detected() {
        let mut mux = TsMuxer::new();
        let seg = mux.mux_segment(&[video_unit(0, 400)]);
        assert!(demux_segment(&seg[..seg.len() - 1]).is_err());
    }

    #[test]
    fn pts_survives_90khz_conversion() {
        let mut mux = TsMuxer::new();
        for pts in [0u32, 33, 1000, 3_600_000] {
            let seg = mux.mux_segment(&[video_unit(pts, 200)]);
            let units = demux_segment(&seg).unwrap();
            assert_eq!(units[0].pts_ms(), pts);
        }
    }

    #[test]
    fn segment_video_frames_extraction() {
        let mut mux = TsMuxer::new();
        let seg = mux.mux_segment(&[video_unit(0, 300), audio_unit(5, 90), video_unit(33, 310)]);
        let frames = segment_video_frames(&seg).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].pts_ms, 0);
        assert_eq!(frames[1].pts_ms, 33);
        assert_eq!(frames[1].size, 310);
    }

    #[test]
    fn segment_len_is_exact() {
        let units = vec![video_unit(0, 170), audio_unit(3, 171), video_unit(33, 20_000)];
        let seg = TsMuxer::new().mux_segment(&units);
        assert_eq!(TsMuxer::segment_len([170, 171, 20_000]), seg.len());
        assert_eq!(TsMuxer::segment_len([]), 2 * TS_PACKET);
    }

    #[test]
    fn mux_into_matches_mux_segment() {
        let units = vec![video_unit(0, 777), audio_unit(3, 64), video_unit(33, 900)];
        let mut a = TsMuxer::new();
        let mut b = TsMuxer::new();
        let seg_a = a.mux_segment(&units);
        let mut seg_b = Vec::new();
        b.mux_into(units.iter().map(TsUnit::as_ref), &mut seg_b);
        assert_eq!(seg_a, seg_b);
    }

    #[test]
    fn demuxer_reuse_across_segments() {
        let mut mux = TsMuxer::new();
        let mut d = TsDemuxer::new();
        for i in 0..3u32 {
            let units = vec![video_unit(i * 33, 500), audio_unit(i * 33 + 1, 80)];
            let seg = mux.mux_segment(&units);
            d.reset();
            d.push(&seg).unwrap();
            d.finish().unwrap();
            let got: Vec<TsUnit> = d.units().map(|u| u.to_unit()).collect();
            assert_eq!(got, units);
        }
    }
}
