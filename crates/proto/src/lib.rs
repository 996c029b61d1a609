#![warn(missing_docs)]

//! Wire protocols of the Periscope platform, implemented from scratch.
//!
//! §3 of the paper: the app talks JSON-over-HTTPS POSTs to
//! `api.periscope.tv/api/v2/…`; public video travels over plaintext RTMP
//! (port 80) or HLS (HTTP + MPEG-TS segments); chat uses WebSockets. This
//! crate provides each of those layers:
//!
//! * [`json`] — a self-contained JSON value type, parser and serializer
//!   (the API layer is a deliverable, so no `serde_json`);
//! * [`http`] — HTTP/1.1 request/response framing, enough for the API, HLS
//!   segment fetches, and the 429 rate-limit responses the crawler must
//!   handle;
//! * [`amf`] — the AMF0 subset RTMP command messages are encoded in;
//! * [`rtmp`] — RTMP handshake and chunk-stream (de)multiplexing;
//! * [`hls`] — M3U8 media playlist generation and parsing;
//! * [`ws`] — WebSocket frame encode/decode for the chat channel;
//! * [`srt`] — SRT-flavoured unreliable ingest: handshake with cookie
//!   exchange, wrapping sequence numbers, compressed-range NAKs, bounded
//!   retransmit queue, latency-window drop (DESIGN.md §12);
//! * [`tls`] — the record-layer model behind RTMPS/HTTPS for private
//!   broadcasts and the API (sizes, overhead, and opacity — not crypto);
//! * [`filler`] — generated body bytes (the frame-filler generator, byte
//!   runs) as descriptions, and the [`filler::Sink`] body writers put
//!   head bytes and fillers into.
//!
//! Every encoder has a matching decoder and round-trip property tests: the
//! capture-analysis pipeline (`pscp-media`) parses exactly these bytes, the
//! way the paper ran wireshark dissectors over tcpdump captures.

pub mod amf;
pub mod filler;
pub mod hls;
pub mod http;
pub mod json;
pub mod rtmp;
pub mod srt;
pub mod tls;
pub mod ws;

/// Errors shared by the protocol decoders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Input ended before a complete element was parsed.
    Truncated,
    /// Structurally invalid input.
    Malformed(String),
    /// A protocol-level constraint was violated.
    Protocol(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated input"),
            ProtoError::Malformed(m) => write!(f, "malformed input: {m}"),
            ProtoError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Digits in the decimal form of `n`: the length [`decimal`] writes.
pub fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// The decimal form of `n`, written into `buf`: how a number that is part
/// of a larger token (`content-length: 30000`, a user handle `u42`) is
/// spelled without a `String`.
pub fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_spells_what_display_does_at_every_width() {
        let mut buf = [0; 20];
        for edge in (0..20).map(|p| 10u64.pow(p)) {
            for n in [0, 1, 9, edge - 1, edge, edge + 1, u64::MAX] {
                assert_eq!(decimal(n, &mut buf), n.to_string());
                assert_eq!(decimal_len(n), n.to_string().len());
            }
        }
    }
}
