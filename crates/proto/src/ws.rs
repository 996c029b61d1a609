//! WebSocket framing (RFC 6455 subset) for the chat channel.
//!
//! "The chat uses Websockets to deliver messages" (§3). Chat traffic matters
//! to the reproduction because enabling chat nearly doubles power draw
//! (Fig 7) via JSON messages plus uncached profile-picture downloads
//! (§5.1). Frames here support text/binary/ping/pong/close, client-side
//! masking, and 7/16/64-bit payload lengths.

use crate::ProtoError;

/// WebSocket frame opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// 0x1 — UTF-8 text (chat JSON).
    Text,
    /// 0x2 — binary.
    Binary,
    /// 0x8 — close.
    Close,
    /// 0x9 — ping.
    Ping,
    /// 0xA — pong.
    Pong,
}

impl Opcode {
    fn id(self) -> u8 {
        match self {
            Opcode::Text => 0x1,
            Opcode::Binary => 0x2,
            Opcode::Close => 0x8,
            Opcode::Ping => 0x9,
            Opcode::Pong => 0xA,
        }
    }

    fn from_id(id: u8) -> Result<Self, ProtoError> {
        Ok(match id {
            0x1 => Opcode::Text,
            0x2 => Opcode::Binary,
            0x8 => Opcode::Close,
            0x9 => Opcode::Ping,
            0xA => Opcode::Pong,
            other => return Err(ProtoError::Malformed(format!("unknown opcode 0x{other:x}"))),
        })
    }
}

/// A single (FIN=1, no fragmentation) WebSocket frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame opcode.
    pub opcode: Opcode,
    /// Unmasked payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A text frame.
    pub fn text(s: impl Into<String>) -> Frame {
        Frame { opcode: Opcode::Text, payload: s.into().into_bytes() }
    }

    /// Payload as UTF-8, if valid.
    pub fn as_text(&self) -> Option<&str> {
        std::str::from_utf8(&self.payload).ok()
    }

    /// Encodes the frame. `mask` is the client masking key (clients MUST
    /// mask; servers MUST NOT — pass `None`).
    pub fn encode(&self, mask: Option<[u8; 4]>) -> Vec<u8> {
        let len = self.payload.len();
        let mut out = Vec::with_capacity(header_len(len, mask.is_some()) + len);
        write_header(self.opcode, len, mask, &mut out);
        match mask {
            Some(key) => out.extend(self.payload.iter().enumerate().map(|(i, &b)| b ^ key[i % 4])),
            None => out.extend_from_slice(&self.payload),
        }
        out
    }

    /// Decodes one frame from the front of `bytes`; returns the frame and
    /// bytes consumed.
    pub fn decode(bytes: &[u8]) -> Result<(Frame, usize), ProtoError> {
        if bytes.len() < 2 {
            return Err(ProtoError::Truncated);
        }
        let b0 = bytes[0];
        if b0 & 0x80 == 0 {
            return Err(ProtoError::Protocol("fragmented frames not supported".to_string()));
        }
        let opcode = Opcode::from_id(b0 & 0x0F)?;
        let b1 = bytes[1];
        let masked = b1 & 0x80 != 0;
        let mut pos = 2;
        let len = match b1 & 0x7F {
            126 => {
                let raw: [u8; 2] =
                    bytes.get(pos..pos + 2).ok_or(ProtoError::Truncated)?.try_into().expect("2");
                pos += 2;
                u16::from_be_bytes(raw) as usize
            }
            127 => {
                let raw: [u8; 8] =
                    bytes.get(pos..pos + 8).ok_or(ProtoError::Truncated)?.try_into().expect("8");
                pos += 8;
                u64::from_be_bytes(raw) as usize
            }
            n => n as usize,
        };
        let key = if masked {
            let raw: [u8; 4] =
                bytes.get(pos..pos + 4).ok_or(ProtoError::Truncated)?.try_into().expect("4");
            pos += 4;
            Some(raw)
        } else {
            None
        };
        let raw = bytes.get(pos..pos + len).ok_or(ProtoError::Truncated)?;
        let payload = match key {
            Some(k) => raw.iter().enumerate().map(|(i, &b)| b ^ k[i % 4]).collect(),
            None => raw.to_vec(),
        };
        Ok((Frame { opcode, payload }, pos + len))
    }
}

/// Length of the header of a frame carrying `payload_len` bytes: what
/// [`write_header`] appends.
pub fn header_len(payload_len: usize, masked: bool) -> usize {
    let extended = match payload_len {
        0..126 => 0,
        126..=0xFFFF => 2,
        _ => 8,
    };
    2 + extended + if masked { 4 } else { 0 }
}

/// Appends the header of an unfragmented `opcode` frame carrying
/// `payload_len` bytes: FIN and opcode, the 7-, 16- or 64-bit length, and
/// the masking key if there is one. The payload follows it on the wire.
pub fn write_header(opcode: Opcode, payload_len: usize, mask: Option<[u8; 4]>, out: &mut Vec<u8>) {
    out.push(0x80 | opcode.id()); // FIN set
    let mask_bit = if mask.is_some() { 0x80 } else { 0x00 };
    match header_len(payload_len, false) {
        2 => out.push(mask_bit | payload_len as u8),
        4 => {
            out.push(mask_bit | 126);
            out.extend_from_slice(&(payload_len as u16).to_be_bytes());
        }
        _ => {
            out.push(mask_bit | 127);
            out.extend_from_slice(&(payload_len as u64).to_be_bytes());
        }
    }
    if let Some(key) = mask {
        out.extend_from_slice(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmasked_roundtrip() {
        let f = Frame::text("hello chat");
        let (g, n) = Frame::decode(&f.encode(None)).unwrap();
        assert_eq!(g, f);
        assert_eq!(n, f.encode(None).len());
    }

    #[test]
    fn masked_roundtrip() {
        let f = Frame::text("masked message");
        let enc = f.encode(Some([1, 2, 3, 4]));
        // Masked bytes differ from the plaintext.
        assert!(!enc.windows(6).any(|w| w == b"masked"));
        let (g, _) = Frame::decode(&enc).unwrap();
        assert_eq!(g, f);
    }

    #[test]
    fn medium_length_16bit() {
        let f = Frame { opcode: Opcode::Binary, payload: vec![7; 300] };
        let enc = f.encode(None);
        assert_eq!(enc[1] & 0x7F, 126);
        let (g, _) = Frame::decode(&enc).unwrap();
        assert_eq!(g.payload.len(), 300);
    }

    #[test]
    fn large_length_64bit() {
        let f = Frame { opcode: Opcode::Binary, payload: vec![9; 70_000] };
        let enc = f.encode(None);
        assert_eq!(enc[1] & 0x7F, 127);
        let (g, _) = Frame::decode(&enc).unwrap();
        assert_eq!(g.payload.len(), 70_000);
    }

    #[test]
    fn header_len_is_what_write_header_appends_at_each_width() {
        for len in [0, 1, 125, 126, 127, 0xFFFF, 0x1_0000, 70_000] {
            for mask in [None, Some([1, 2, 3, 4])] {
                let mut out = Vec::new();
                write_header(Opcode::Text, len, mask, &mut out);
                assert_eq!(out.len(), header_len(len, mask.is_some()), "len {len} mask {mask:?}");
                let wire = [out, vec![b'x'; len]].concat();
                let (frame, used) = Frame::decode(&wire).unwrap();
                assert_eq!(
                    (frame.opcode, frame.payload.len(), used),
                    (Opcode::Text, len, wire.len())
                );
            }
        }
    }

    #[test]
    fn control_frames() {
        for op in [Opcode::Close, Opcode::Ping, Opcode::Pong] {
            let f = Frame { opcode: op, payload: vec![] };
            let (g, _) = Frame::decode(&f.encode(None)).unwrap();
            assert_eq!(g.opcode, op);
        }
    }

    #[test]
    fn truncated_rejected() {
        let f = Frame::text("abcdef");
        let enc = f.encode(Some([9, 9, 9, 9]));
        for cut in [0, 1, 3, enc.len() - 1] {
            assert_eq!(Frame::decode(&enc[..cut]).unwrap_err(), ProtoError::Truncated);
        }
    }

    #[test]
    fn fragmented_rejected() {
        let mut enc = Frame::text("x").encode(None);
        enc[0] &= 0x7F; // clear FIN
        assert!(matches!(Frame::decode(&enc), Err(ProtoError::Protocol(_))));
    }

    #[test]
    fn unknown_opcode_rejected() {
        let enc = vec![0x80 | 0x5, 0x00];
        assert!(matches!(Frame::decode(&enc), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn as_text() {
        assert_eq!(Frame::text("héllo").as_text(), Some("héllo"));
        let bin = Frame { opcode: Opcode::Binary, payload: vec![0xFF, 0xFE] };
        assert_eq!(bin.as_text(), None);
    }

    #[test]
    fn chat_json_frame() {
        // A chat message as the service sends it: JSON in a text frame.
        let body = r#"{"kind":"chat","user":"u123","text":"hi","pic":"https://s3/img/u123.jpg"}"#;
        let f = Frame::text(body);
        let (g, _) = Frame::decode(&f.encode(None)).unwrap();
        assert_eq!(g.as_text(), Some(body));
    }
}
