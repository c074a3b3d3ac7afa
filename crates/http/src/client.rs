//! Minimal blocking one-shot HTTP/1.1 client: the mirror image of the
//! wire grammar [`parser`](crate::parser) accepts and
//! [`wire`](crate::wire) answers with. One request per call on an open
//! connection, `Content-Length` framing only — enough for the CLI
//! (`odnet trace`) and the socket chaos suite to talk to the tier without
//! a second grammar living elsewhere.

use std::io::{Read, Write};
use std::net::TcpStream;

/// One parsed HTTP response from the minimal blocking client.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Response headers, lowercased names, in wire order.
    pub headers: Vec<(String, String)>,
    /// The body bytes (Content-Length framing only — the tier never
    /// chunks responses).
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First header value with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Issue one request on an open connection and read the response.
/// `headers` are extra request headers (`Content-Length` is added for
/// `body` automatically).
pub fn http_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&[u8]>,
) -> std::io::Result<HttpResponse> {
    let mut head = format!("{method} {path} HTTP/1.1\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if let Some(b) = body {
        head.push_str(&format!("Content-Length: {}\r\n", b.len()));
    }
    head.push_str("\r\n");
    // One buffer, one write: head and body split across two segments
    // would hand a Nagle + delayed-ACK stall (~40ms) to every request.
    let mut wire = head.into_bytes();
    if let Some(b) = body {
        wire.extend_from_slice(b);
    }
    stream.write_all(&wire)?;
    stream.flush()?;
    read_http_response(stream)
}

/// Read one `Content-Length`-framed response off the stream.
pub fn read_http_response(stream: &mut TcpStream) -> std::io::Result<HttpResponse> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break at;
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed before response head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-utf8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty head"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value.parse().map_err(|_| bad("bad content-length"))?;
        }
        headers.push((name, value));
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}
