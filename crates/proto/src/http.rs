//! Minimal HTTP/1.1 request/response framing.
//!
//! Three uses in the reproduction, all from the paper: the JSON API POSTs to
//! `https://api.periscope.tv/api/v2/<apiRequest>` (§3), HLS playlist/segment
//! GETs served by the Fastly-like CDN (§3, §5), and the HTTP 429 "Too many
//! requests" responses the crawler must pace itself around (§4).

use crate::{decimal, decimal_len, ProtoError};

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method, e.g. `GET` or `POST`.
    pub method: String,
    /// Request target (path + query).
    pub path: String,
    /// Header name/value pairs in order; names stored lowercase.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Builds a GET request with no body.
    pub fn get(path: impl Into<String>) -> Self {
        Request { method: "GET".into(), path: path.into(), headers: Vec::new(), body: Vec::new() }
    }

    /// Builds a POST request with a JSON body (sets content-type).
    pub fn post_json(path: impl Into<String>, body: impl Into<String>) -> Self {
        let body: String = body.into();
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: vec![("content-type".into(), "application/json".into())],
            body: body.into_bytes(),
        }
    }

    /// Adds a header (name lowercased).
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_ascii_lowercase(), value.to_string()));
        self
    }

    /// Looks up the first header with this (case-insensitive) name.
    pub fn get_header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Serializes to wire bytes (adds content-length).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = format!("{} {} HTTP/1.1\r\n", self.method, self.path).into_bytes();
        for (n, v) in &self.headers {
            out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("content-length: {}\r\n\r\n", self.body.len()).as_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses wire bytes into a request; requires the complete message.
    pub fn decode(bytes: &[u8]) -> Result<Request, ProtoError> {
        let (start_line, headers, body) = split_message(bytes)?;
        let mut parts = start_line.splitn(3, ' ');
        let method = parts.next().filter(|s| !s.is_empty()).ok_or_else(bad_start)?.to_string();
        let path = parts.next().ok_or_else(bad_start)?.to_string();
        let version = parts.next().ok_or_else(bad_start)?;
        if !version.starts_with("HTTP/1.") {
            return Err(ProtoError::Malformed(format!("bad version '{version}'")));
        }
        Ok(Request { method, path, headers, body })
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers, names lowercase.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// 200 with a JSON body.
    pub fn ok_json(body: impl Into<String>) -> Self {
        let body: String = body.into();
        Response {
            status: 200,
            headers: vec![("content-type".into(), "application/json".into())],
            body: body.into_bytes(),
        }
    }

    /// 200 with opaque bytes (e.g. an MPEG-TS segment).
    pub fn ok_bytes(content_type: &str, body: Vec<u8>) -> Self {
        Response { status: 200, headers: vec![("content-type".into(), content_type.into())], body }
    }

    /// 429 Too Many Requests — the crawler's rate-limit signal (§4).
    pub fn too_many_requests() -> Self {
        Response { status: 429, headers: Vec::new(), body: b"Too many requests".to_vec() }
    }

    /// 404 Not Found.
    pub fn not_found() -> Self {
        Response { status: 404, headers: Vec::new(), body: Vec::new() }
    }

    /// 503 Service Unavailable — what an injected backend fault looks like
    /// on the wire (DESIGN.md §8).
    pub fn server_error() -> Self {
        Response { status: 503, headers: Vec::new(), body: b"Service unavailable".to_vec() }
    }

    /// Standard reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        reason(self.status)
    }

    /// Looks up the first header with this (case-insensitive) name.
    pub fn get_header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Status line and headers, through the blank line, announcing a body
    /// of `body_len` bytes — for callers that put the body on the wire
    /// from where it already lives instead of copying it behind the head.
    pub fn encode_head(&self, body_len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(head_len(self.status, &self.headers, body_len));
        write_head(self.status, &self.headers, body_len, &mut out);
        out
    }

    /// Serializes to wire bytes (adds content-length).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.encode_head(self.body.len());
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses wire bytes into a response; requires the complete message.
    pub fn decode(bytes: &[u8]) -> Result<Response, ProtoError> {
        let (start_line, headers, body) = split_message(bytes)?;
        let mut parts = start_line.splitn(3, ' ');
        let version = parts.next().ok_or_else(bad_start)?;
        if !version.starts_with("HTTP/1.") {
            return Err(ProtoError::Malformed(format!("bad version '{version}'")));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ProtoError::Malformed("bad status code".to_string()))?;
        Ok(Response { status, headers, body })
    }
}

/// Standard reason phrase for `status`.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        301 => "Moved Permanently",
        304 => "Not Modified",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Length of the response head [`write_head`] appends for these
/// arguments.
pub fn head_len<S: AsRef<str>>(status: u16, headers: &[(S, S)], body_len: usize) -> usize {
    let fields: usize = headers.iter().map(|(n, v)| n.as_ref().len() + v.as_ref().len() + 4).sum();
    let status_line = "HTTP/1.1 ".len() + decimal_len(status.into()) + 1 + reason(status).len() + 2;
    status_line + fields + "content-length: ".len() + decimal_len(body_len as u64) + 4
}

/// Appends a response head — status line, `headers` in order, and a
/// `content-length` of `body_len` — through the blank line that ends it.
/// [`Response::encode_head`] is this into a `Vec` of its own; a sender that
/// states lengths before it writes uses [`head_len`] and this.
pub fn write_head<S: AsRef<str>>(
    status: u16,
    headers: &[(S, S)],
    body_len: usize,
    out: &mut Vec<u8>,
) {
    let mut digits = [0; 20];
    out.extend_from_slice(b"HTTP/1.1 ");
    out.extend_from_slice(decimal(status.into(), &mut digits).as_bytes());
    out.push(b' ');
    out.extend_from_slice(reason(status).as_bytes());
    out.extend_from_slice(b"\r\n");
    for (name, value) in headers {
        out.extend_from_slice(name.as_ref().as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_ref().as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"content-length: ");
    out.extend_from_slice(decimal(body_len as u64, &mut digits).as_bytes());
    out.extend_from_slice(b"\r\n\r\n");
}

fn bad_start() -> ProtoError {
    ProtoError::Malformed("bad start line".to_string())
}

/// Header name/value list as parsed off the wire.
type Headers = Vec<(String, String)>;

/// Splits a full HTTP message into (start line, headers, body), checking
/// content-length.
fn split_message(bytes: &[u8]) -> Result<(String, Headers, Vec<u8>), ProtoError> {
    let sep = find_subsequence(bytes, b"\r\n\r\n").ok_or(ProtoError::Truncated)?;
    let head = std::str::from_utf8(&bytes[..sep])
        .map_err(|_| ProtoError::Malformed("non-UTF-8 header block".to_string()))?;
    let mut lines = head.split("\r\n");
    let start_line = lines.next().ok_or_else(bad_start)?.to_string();
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ProtoError::Malformed(format!("bad header line '{line}'")))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = Some(
                value
                    .parse()
                    .map_err(|_| ProtoError::Malformed("bad content-length".to_string()))?,
            );
        }
        headers.push((name, value));
    }
    let body = bytes[sep + 4..].to_vec();
    if let Some(cl) = content_length {
        if body.len() < cl {
            return Err(ProtoError::Truncated);
        }
        if body.len() > cl {
            return Err(ProtoError::Malformed("body longer than content-length".to_string()));
        }
    }
    Ok((start_line, headers, body))
}

/// Byte-level subsequence search.
pub fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::post_json("/api/v2/mapGeoBroadcastFeed", r#"{"a":1}"#)
            .header("X-Session", "abc");
        let decoded = Request::decode(&req.encode()).unwrap();
        assert_eq!(decoded.method, "POST");
        assert_eq!(decoded.path, "/api/v2/mapGeoBroadcastFeed");
        assert_eq!(decoded.body, br#"{"a":1}"#);
        assert_eq!(decoded.get_header("x-session"), Some("abc"));
        assert_eq!(decoded.get_header("content-type"), Some("application/json"));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok_json(r#"{"broadcasts":[]}"#);
        let decoded = Response::decode(&resp.encode()).unwrap();
        assert_eq!(decoded.status, 200);
        assert_eq!(decoded.body, br#"{"broadcasts":[]}"#);
    }

    #[test]
    fn head_len_is_what_write_head_appends() {
        let headers = [("content-type", "image/jpeg"), ("x-cache", "MISS")];
        for status in [200, 404, 429, 999] {
            for body_len in [0, 9, 10, 1_000_000, usize::MAX] {
                let mut out = vec![7];
                write_head(status, &headers, body_len, &mut out);
                assert_eq!(out.len() - 1, head_len(status, &headers, body_len));
                let reason = Response { status, headers: Vec::new(), body: Vec::new() }.reason();
                let text = format!(
                    "HTTP/1.1 {status} {reason}\r\ncontent-type: image/jpeg\r\nx-cache: MISS\r\n\
                     content-length: {body_len}\r\n\r\n"
                );
                assert_eq!(out[1..], *text.as_bytes());
            }
        }
    }

    #[test]
    fn rate_limit_response() {
        let resp = Response::too_many_requests();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.reason(), "Too Many Requests");
        let decoded = Response::decode(&resp.encode()).unwrap();
        assert_eq!(decoded.status, 429);
    }

    #[test]
    fn server_error_response() {
        let resp = Response::server_error();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.reason(), "Service Unavailable");
        let decoded = Response::decode(&resp.encode()).unwrap();
        assert_eq!(decoded.status, 503);
    }

    #[test]
    fn binary_body_roundtrip() {
        let body: Vec<u8> = (0..=255).collect();
        let resp = Response::ok_bytes("video/mp2t", body.clone());
        let decoded = Response::decode(&resp.encode()).unwrap();
        assert_eq!(decoded.body, body);
        assert_eq!(decoded.get_header("content-type"), Some("video/mp2t"));
    }

    #[test]
    fn truncated_body_detected() {
        let mut bytes = Response::ok_json("{\"k\":1}").encode();
        bytes.truncate(bytes.len() - 2);
        assert_eq!(Response::decode(&bytes), Err(ProtoError::Truncated));
    }

    #[test]
    fn missing_header_separator_is_truncated() {
        assert_eq!(Request::decode(b"GET / HTTP/1.1\r\n"), Err(ProtoError::Truncated));
    }

    #[test]
    fn oversized_body_rejected() {
        let bytes = b"HTTP/1.1 200 OK\r\ncontent-length: 1\r\n\r\nab".to_vec();
        assert!(Response::decode(&bytes).is_err());
    }

    #[test]
    fn bad_version_rejected() {
        assert!(Request::decode(b"GET / SPDY/9\r\n\r\n").is_err());
    }

    #[test]
    fn header_names_case_insensitive() {
        let req = Request::decode(b"GET /x HTTP/1.1\r\nX-ToKen: abc\r\n\r\n").unwrap();
        assert_eq!(req.get_header("x-token"), Some("abc"));
        assert_eq!(req.get_header("X-TOKEN"), Some("abc"));
    }

    #[test]
    fn get_constructor() {
        let req = Request::get("/playlist.m3u8");
        let decoded = Request::decode(&req.encode()).unwrap();
        assert_eq!(decoded.method, "GET");
        assert!(decoded.body.is_empty());
    }

    #[test]
    fn find_subsequence_cases() {
        assert_eq!(find_subsequence(b"abcdef", b"cd"), Some(2));
        assert_eq!(find_subsequence(b"abc", b"x"), None);
        assert_eq!(find_subsequence(b"ab", b"abc"), None);
        assert_eq!(find_subsequence(b"abc", b""), None);
    }
}
