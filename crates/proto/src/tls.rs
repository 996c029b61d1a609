//! TLS record layer model.
//!
//! §3: "Public streams are delivered using plaintext RTMP and HTTP, whereas
//! the private broadcast streams are encrypted using RTMPS and HTTPS for
//! HLS" — and the API itself rides HTTPS, which is why the paper needed an
//! SSL-capable mitmproxy (§2). This module models the parts of TLS that
//! matter to a traffic measurement: record framing (5-byte header + 16 KiB
//! max fragments), per-record overhead (IV/MAC/padding), the extra
//! handshake round trips, and the opacity of the payload — the model
//! "encrypts" with a keyed stream so captures of private sessions cannot be
//! parsed without the key, exactly the wall the paper hit.

use crate::ProtoError;

/// TLS record content type for application data.
const CONTENT_APPLICATION_DATA: u8 = 23;
/// TLS 1.2 version bytes.
const VERSION: [u8; 2] = [0x03, 0x03];
/// Maximum plaintext fragment per record.
pub const MAX_FRAGMENT: usize = 16_384;
/// Per-record cryptographic overhead (explicit nonce + AEAD tag, GCM-style).
pub const RECORD_OVERHEAD: usize = 8 + 16;
/// Extra round trips a full TLS 1.2 handshake adds before data flows.
pub const HANDSHAKE_RTTS: u32 = 2;

/// A TLS session keyed by a shared secret (both ends derive the same
/// keystream; an observer without the key sees only sizes and timing).
#[derive(Debug, Clone)]
pub struct TlsChannel {
    key: u64,
    seq: u64,
}

impl TlsChannel {
    /// Creates a channel from a shared key.
    pub fn new(key: u64) -> Self {
        TlsChannel { key, seq: 0 }
    }

    /// The sending side of the channel keyed `key` as it stands after `seq`
    /// records: what seals a message whose place in the record sequence is
    /// known ([`records`] per earlier message) before the earlier ones are.
    pub fn resume(key: u64, seq: u64) -> Self {
        TlsChannel { key, seq }
    }

    /// Encrypts and frames `plaintext` into one or more records.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + 64);
        self.seal_into(plaintext, &mut out);
        out
    }

    /// [`TlsChannel::seal`] appending to a caller's buffer:
    /// [`sealed_len`]`(plaintext.len())` bytes.
    pub fn seal_into(&mut self, plaintext: &[u8], out: &mut Vec<u8>) {
        for fragment in plaintext.chunks(MAX_FRAGMENT).chain(
            // An empty message still produces one (empty) record.
            std::iter::once(&[][..]).take(usize::from(plaintext.is_empty())),
        ) {
            let body_len = fragment.len() + RECORD_OVERHEAD;
            out.push(CONTENT_APPLICATION_DATA);
            out.extend_from_slice(&VERSION);
            out.extend_from_slice(&(body_len as u16).to_be_bytes());
            // Explicit nonce: the record sequence number.
            out.extend_from_slice(&self.seq.to_be_bytes());
            let mut keystream = KeyStream::new(self.key, self.seq);
            out.extend(fragment.iter().map(|&b| b ^ keystream.next_byte()));
            // "AEAD tag": a keyed checksum of the ciphertext fragment.
            let tag = tag(self.key, self.seq, fragment);
            out.extend_from_slice(&tag.to_be_bytes());
            out.extend_from_slice(&tag.to_be_bytes()); // 16-byte tag total
            self.seq += 1;
        }
    }

    /// Parses and decrypts one record from the front of `bytes`; returns
    /// the plaintext and bytes consumed. Fails on bad framing or tag.
    pub fn open(&mut self, bytes: &[u8]) -> Result<(Vec<u8>, usize), ProtoError> {
        if bytes.len() < 5 {
            return Err(ProtoError::Truncated);
        }
        if bytes[0] != CONTENT_APPLICATION_DATA || bytes[1..3] != VERSION {
            return Err(ProtoError::Malformed("bad TLS record header".to_string()));
        }
        let body_len = u16::from_be_bytes(bytes[3..5].try_into().expect("2")) as usize;
        let total = 5 + body_len;
        if bytes.len() < total {
            return Err(ProtoError::Truncated);
        }
        if body_len < RECORD_OVERHEAD {
            return Err(ProtoError::Malformed("record shorter than overhead".to_string()));
        }
        let nonce = u64::from_be_bytes(bytes[5..13].try_into().expect("8"));
        let frag_len = body_len - RECORD_OVERHEAD;
        let ct = &bytes[13..13 + frag_len];
        let mut keystream = KeyStream::new(self.key, nonce);
        let plaintext: Vec<u8> = ct.iter().map(|&b| b ^ keystream.next_byte()).collect();
        let want = tag(self.key, nonce, &plaintext);
        let got =
            u64::from_be_bytes(bytes[13 + frag_len..13 + frag_len + 8].try_into().expect("8"));
        if want != got {
            return Err(ProtoError::Protocol("TLS tag mismatch (wrong key?)".to_string()));
        }
        self.seq = nonce + 1;
        Ok((plaintext, total))
    }

    /// Decrypts a whole stream of records.
    pub fn open_all(&mut self, mut bytes: &[u8]) -> Result<Vec<u8>, ProtoError> {
        let mut out = Vec::with_capacity(bytes.len());
        while !bytes.is_empty() {
            let (pt, used) = self.open(bytes)?;
            out.extend_from_slice(&pt);
            bytes = &bytes[used..];
        }
        Ok(out)
    }
}

/// Records one sealed message of `plaintext_len` bytes takes (an empty
/// one still takes a record).
pub fn records(plaintext_len: usize) -> usize {
    plaintext_len.div_ceil(MAX_FRAGMENT).max(1)
}

/// Wire size of `plaintext_len` bytes after record framing.
pub fn sealed_len(plaintext_len: usize) -> usize {
    plaintext_len + records(plaintext_len) * (5 + RECORD_OVERHEAD)
}

/// SplitMix-based keystream (a *model* of a stream cipher: deterministic,
/// key-dependent, and useless to an observer — not actual cryptography).
struct KeyStream {
    state: u64,
    buf: [u8; 8],
    used: usize,
}

impl KeyStream {
    fn new(key: u64, nonce: u64) -> Self {
        KeyStream { state: key ^ nonce.wrapping_mul(0x9e37_79b9_7f4a_7c15), buf: [0; 8], used: 8 }
    }

    fn next_byte(&mut self) -> u8 {
        if self.used == 8 {
            self.state = splitmix(self.state);
            self.buf = self.state.to_le_bytes();
            self.used = 0;
        }
        let b = self.buf[self.used];
        self.used += 1;
        b
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn tag(key: u64, nonce: u64, data: &[u8]) -> u64 {
    let mut h = key ^ nonce.rotate_left(17);
    for chunk in data.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = splitmix(h ^ u64::from_le_bytes(word));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_small() {
        let mut tx = TlsChannel::new(0xdead_beef);
        let mut rx = TlsChannel::new(0xdead_beef);
        let wire = tx.seal(b"hello private broadcast");
        let (pt, used) = rx.open(&wire).unwrap();
        assert_eq!(pt, b"hello private broadcast");
        assert_eq!(used, wire.len());
    }

    #[test]
    fn roundtrip_multi_record() {
        let mut tx = TlsChannel::new(7);
        let mut rx = TlsChannel::new(7);
        let plaintext: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        let wire = tx.seal(&plaintext);
        assert_eq!(wire.len(), sealed_len(plaintext.len()));
        assert_eq!(rx.open_all(&wire).unwrap(), plaintext);
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let mut tx = TlsChannel::new(1);
        let plaintext = b"RTMP handshake C0C1 would be visible here".repeat(10);
        let wire = tx.seal(&plaintext);
        // No 16-byte window of the plaintext appears in the wire bytes.
        assert!(!wire.windows(16).any(|w| plaintext.windows(16).any(|p| p == w)));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut tx = TlsChannel::new(1);
        let mut rx = TlsChannel::new(2);
        let wire = tx.seal(b"secret");
        assert!(matches!(rx.open(&wire), Err(ProtoError::Protocol(_))));
    }

    #[test]
    fn tampering_detected() {
        let mut tx = TlsChannel::new(3);
        let mut rx = TlsChannel::new(3);
        let mut wire = tx.seal(b"payload-payload-payload");
        let n = wire.len();
        wire[n / 2] ^= 0x01;
        assert!(rx.open(&wire).is_err());
    }

    #[test]
    fn truncated_and_garbage_rejected() {
        let mut rx = TlsChannel::new(3);
        assert_eq!(rx.open(&[23, 3]).unwrap_err(), ProtoError::Truncated);
        assert!(rx.open(&[0xFF; 40]).is_err());
        let mut tx = TlsChannel::new(3);
        let wire = tx.seal(b"x");
        assert_eq!(rx.open(&wire[..wire.len() - 1]).unwrap_err(), ProtoError::Truncated);
    }

    #[test]
    fn empty_message_one_record() {
        let mut tx = TlsChannel::new(9);
        let mut rx = TlsChannel::new(9);
        let wire = tx.seal(b"");
        assert_eq!(wire.len(), sealed_len(0));
        let (pt, _) = rx.open(&wire).unwrap();
        assert!(pt.is_empty());
    }

    #[test]
    fn sealed_len_matches() {
        for len in [0usize, 1, 100, MAX_FRAGMENT, MAX_FRAGMENT + 1, 3 * MAX_FRAGMENT + 7] {
            let mut tx = TlsChannel::new(11);
            let wire = tx.seal(&vec![0xAB; len]);
            assert_eq!(wire.len(), sealed_len(len), "len={len}");
        }
    }

    #[test]
    fn out_of_order_records_still_open() {
        // Each record carries its own nonce, so a capture analyzer can
        // decrypt records independently (if it had the key).
        let mut tx = TlsChannel::new(13);
        let w1 = tx.seal(b"first");
        let w2 = tx.seal(b"second");
        let mut rx = TlsChannel::new(13);
        let (p2, _) = rx.open(&w2).unwrap();
        assert_eq!(p2, b"second");
        let (p1, _) = rx.open(&w1).unwrap();
        assert_eq!(p1, b"first");
    }
}
