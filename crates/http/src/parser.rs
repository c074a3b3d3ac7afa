//! A strict, incremental HTTP/1.1 request parser over any [`Read`].
//!
//! The contract that matters for an internet-facing tier:
//!
//! - **Malformed input is a typed error, never a panic.** Every reject
//!   carries the status it maps to (400/413/431/505), and the fuzz-style
//!   table tests in `tests/parser.rs` drive the grammar's edges.
//! - **Progress is bounded in bytes and time.** Headers are capped at
//!   [`Limits::max_header_bytes`], bodies at
//!   [`Limits::max_body_bytes`] (checked against `Content-Length`
//!   *before* reading, and enforced chunk-by-chunk for chunked bodies),
//!   and every blocking read is a short slice: the caller arms a socket
//!   read timeout, and the parser re-checks its wall-clock deadline and
//!   the drain flag between slices — a slow-loris client holds a
//!   connection thread no longer than the header/body window.
//! - **Smuggling-shaped ambiguity is rejected.** Duplicate
//!   `Content-Length`, `Content-Length` together with
//!   `Transfer-Encoding`, any transfer coding other than exactly
//!   `chunked`, and bare-LF line endings are all 400s.
//!
//! The parser owns a persistent [`ConnReader`] per connection, so bytes a
//! client pipelines past one request's body are kept for the next
//! request — keep-alive never drops or re-reads wire bytes.

use od_obs::clock::{self, Stamp};
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Byte budgets enforced while reading one request.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Request line + headers cap → 431 when exceeded.
    pub max_header_bytes: usize,
    /// Body cap → 413 when exceeded (declared or streamed).
    pub max_body_bytes: usize,
}

/// Which read window a timeout fired in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Reading the request line + headers.
    Header,
    /// Reading the body.
    Body,
}

/// Why one request could not be produced.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Clean EOF at a request boundary — the keep-alive loop just ends.
    IdleClose,
    /// The drain flag was raised while idle at a request boundary.
    Aborted,
    /// The deadline passed before any byte of this request arrived
    /// (half-open connection) — close silently, nothing to answer.
    TimedOutIdle,
    /// The deadline passed mid-request (slow-loris) → 408.
    TimedOut(Phase),
    /// The peer vanished mid-request (reset / shutdown) — a 400 is
    /// attempted but usually nobody is left to read it.
    Disconnected,
    /// Request line + headers exceeded the byte cap → 431.
    HeadersTooLarge,
    /// Body exceeded the byte cap → 413.
    BodyTooLarge,
    /// Grammar violation → 400; the label names the first rule broken.
    Malformed(&'static str),
    /// An HTTP version other than 1.0/1.1 → 505.
    UnsupportedVersion,
}

/// One fully received request, decoded as far as routing needs.
#[derive(Debug)]
pub struct ParsedRequest {
    /// Request method, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// Request target, percent-encoding left untouched.
    pub path: String,
    /// Whether the connection may serve another request after this one.
    pub keep_alive: bool,
    /// Parsed `X-Deadline-Ms` header, when present.
    pub deadline_ms: Option<u64>,
    /// Client-supplied `X-Request-Id`, sanitized (token chars only,
    /// truncated to 64 bytes). `None` when absent or entirely illegal —
    /// the server then mints one.
    pub request_id: Option<String>,
    /// The (de-chunked) body bytes.
    pub body: Vec<u8>,
    /// When this request's first byte was available to the parser: on
    /// entry for bytes pipelined behind the previous request, otherwise
    /// the first read that returned data. The request's clock starts
    /// here, so a keep-alive client's think time is nobody's latency.
    pub started: Stamp,
}

/// Buffered reader pinned to one connection: keeps pipelined bytes
/// across requests and turns the socket's short read-timeout slices into
/// deadline- and drain-aware blocking.
pub struct ConnReader<R> {
    inner: R,
    /// Storage, initialized to its full length so a read can land
    /// anywhere past `end` without a staging copy; `pos..end` is data.
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by previous requests.
    pos: usize,
    /// End of the bytes received so far.
    end: usize,
    /// [`ParsedRequest::started`] of the request being read; `None` until
    /// its first byte is buffered.
    started: Option<Stamp>,
}

/// Least room offered to one `read`: a typical request arrives whole.
const MIN_READ: usize = 1024;

/// What one fill attempt produced.
enum Fill {
    /// At least one new byte is buffered.
    Data,
    /// Clean EOF from the peer.
    Eof,
    /// The socket's read-timeout slice elapsed with no data.
    Slice,
    /// Hard I/O error (connection reset and kin).
    Gone,
}

impl<R: Read> ConnReader<R> {
    /// Wrap `inner`; the caller arms the socket-level read timeout that
    /// bounds each blocking slice.
    pub fn new(inner: R) -> ConnReader<R> {
        ConnReader {
            inner,
            buf: vec![0; MIN_READ],
            pos: 0,
            end: 0,
            started: None,
        }
    }

    /// The unconsumed bytes currently buffered.
    fn unread(&self) -> &[u8] {
        &self.buf[self.pos..self.end]
    }

    /// Drop consumed bytes once the buffer's dead prefix dominates.
    fn compact(&mut self) {
        if self.pos > 0 && self.pos >= self.end / 2 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
    }

    /// One read slice straight into the buffer, with room for at least
    /// `missing` more bytes — the caller's known remainder (already
    /// checked against [`Limits`]), so a body of any accepted size is one
    /// `read` away once its head is parsed.
    fn fill(&mut self, missing: usize) -> Fill {
        self.compact();
        let room = self.end + missing.max(MIN_READ);
        if self.buf.len() < room {
            self.buf.resize(room, 0);
        }
        match self.inner.read(&mut self.buf[self.end..]) {
            Ok(0) => Fill::Eof,
            Ok(n) => {
                self.end += n;
                self.started.get_or_insert_with(clock::now);
                Fill::Data
            }
            Err(e) => match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => Fill::Slice,
                std::io::ErrorKind::Interrupted => Fill::Slice,
                _ => Fill::Gone,
            },
        }
    }

    /// Block (in slices) until at least `n` unconsumed bytes are
    /// buffered, the deadline passes, or the peer goes away.
    fn want(
        &mut self,
        n: usize,
        deadline: Instant,
        phase: Phase,
        started: bool,
        abort: &AtomicBool,
    ) -> Result<(), ParseError> {
        while self.unread().len() < n {
            match self.fill(n - self.unread().len()) {
                Fill::Data => continue,
                Fill::Eof => {
                    return Err(if !started && self.unread().is_empty() {
                        ParseError::IdleClose
                    } else {
                        ParseError::Malformed("unexpected eof mid-request")
                    });
                }
                Fill::Gone => return Err(ParseError::Disconnected),
                Fill::Slice => {
                    let idle = !started && self.unread().is_empty();
                    if idle && abort.load(Ordering::SeqCst) {
                        return Err(ParseError::Aborted);
                    }
                    if Instant::now() >= deadline {
                        return Err(if idle {
                            ParseError::TimedOutIdle
                        } else {
                            ParseError::TimedOut(phase)
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Find `\r\n\r\n` in the unconsumed bytes, reading as needed;
    /// returns the header block (without the terminator) and consumes it.
    fn read_head(
        &mut self,
        limits: &Limits,
        deadline: Instant,
        abort: &AtomicBool,
    ) -> Result<Vec<u8>, ParseError> {
        let mut scanned: usize = 0;
        loop {
            let hay = self.unread();
            if let Some(at) = find(&hay[scanned.saturating_sub(3)..], b"\r\n\r\n") {
                let end = scanned.saturating_sub(3) + at;
                if end > limits.max_header_bytes {
                    return Err(ParseError::HeadersTooLarge);
                }
                let head = hay[..end].to_vec();
                self.pos += end + 4;
                return Ok(head);
            }
            if hay.len() > limits.max_header_bytes {
                return Err(ParseError::HeadersTooLarge);
            }
            scanned = hay.len();
            let started = scanned > 0;
            self.want(scanned + 1, deadline, Phase::Header, started, abort)?;
        }
    }

    /// Consume exactly `n` body bytes.
    fn read_exact_body(
        &mut self,
        n: usize,
        deadline: Instant,
        abort: &AtomicBool,
        out: &mut Vec<u8>,
    ) -> Result<(), ParseError> {
        self.want(n, deadline, Phase::Body, true, abort)?;
        out.extend_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(())
    }

    /// Consume one CRLF-terminated line (for chunk framing); the CRLF is
    /// consumed but not returned. Lines longer than 256 bytes are
    /// rejected — chunk-size lines have no business being longer.
    fn read_line(&mut self, deadline: Instant, abort: &AtomicBool) -> Result<Vec<u8>, ParseError> {
        let mut scanned: usize = 0;
        loop {
            let hay = self.unread();
            if let Some(at) = find(&hay[scanned.saturating_sub(1)..], b"\r\n") {
                let end = scanned.saturating_sub(1) + at;
                let line = hay[..end].to_vec();
                self.pos += end + 2;
                return Ok(line);
            }
            if hay.len() > 256 {
                return Err(ParseError::Malformed("chunk framing line too long"));
            }
            scanned = hay.len();
            self.want(scanned + 1, deadline, Phase::Body, true, abort)?;
        }
    }
}

/// First index of `needle` in `hay`.
fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Decoded header fields routing cares about.
struct Headers {
    content_length: Option<usize>,
    chunked: bool,
    keep_alive: Option<bool>,
    deadline_ms: Option<u64>,
    request_id: Option<String>,
}

/// Keep only request-id token characters (RFC 7230 token minus quoting
/// hazards), capped at 64 bytes so a hostile id can't bloat logs or
/// trace storage. Returns `None` if nothing legal survives.
fn sanitize_request_id(raw: &str) -> Option<String> {
    let id: String = raw
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ':'))
        .take(64)
        .collect();
    (!id.is_empty()).then_some(id)
}

fn parse_headers(block: &str) -> Result<Headers, ParseError> {
    let mut h = Headers {
        content_length: None,
        chunked: false,
        keep_alive: None,
        deadline_ms: None,
        request_id: None,
    };
    let mut saw_te = false;
    for line in block.split("\r\n") {
        if line.is_empty() {
            return Err(ParseError::Malformed("empty header line"));
        }
        if line.contains('\n') {
            return Err(ParseError::Malformed("bare lf in headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::Malformed("header line without a colon"))?;
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            return Err(ParseError::Malformed("illegal header name"));
        }
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                if h.content_length.is_some() {
                    return Err(ParseError::Malformed("duplicate content-length"));
                }
                let n: usize = value
                    .parse()
                    .map_err(|_| ParseError::Malformed("non-numeric content-length"))?;
                h.content_length = Some(n);
            }
            "transfer-encoding" => {
                if saw_te {
                    return Err(ParseError::Malformed("duplicate transfer-encoding"));
                }
                saw_te = true;
                if !value.eq_ignore_ascii_case("chunked") {
                    return Err(ParseError::Malformed("unsupported transfer-encoding"));
                }
                h.chunked = true;
            }
            "connection" => {
                if value.eq_ignore_ascii_case("close") {
                    h.keep_alive = Some(false);
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    h.keep_alive = Some(true);
                }
            }
            "x-deadline-ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| ParseError::Malformed("non-numeric x-deadline-ms"))?;
                h.deadline_ms = Some(ms);
            }
            "x-request-id" => {
                h.request_id = sanitize_request_id(value);
            }
            _ => {}
        }
    }
    if h.chunked && h.content_length.is_some() {
        // The classic request-smuggling ambiguity: two framings, two
        // different bodies. Refuse instead of picking one.
        return Err(ParseError::Malformed(
            "content-length and transfer-encoding together",
        ));
    }
    Ok(h)
}

/// Read and decode one request. `header_timeout` bounds the wait for the
/// full head (measured from call — at a keep-alive boundary this is the
/// idle timeout too); `body_timeout` re-arms once the head is in.
/// `abort` is the server's drain flag: raised while this connection is
/// idle between requests, the parser returns [`ParseError::Aborted`]
/// instead of waiting out the header window.
pub fn parse_request<R: Read>(
    reader: &mut ConnReader<R>,
    limits: &Limits,
    header_timeout: Duration,
    body_timeout: Duration,
    abort: &AtomicBool,
) -> Result<ParsedRequest, ParseError> {
    reader.started = (!reader.unread().is_empty()).then(clock::now);
    let head = reader.read_head(limits, Instant::now() + header_timeout, abort)?;
    let head =
        std::str::from_utf8(&head).map_err(|_| ParseError::Malformed("non-utf8 header block"))?;
    let (request_line, header_block) = match head.split_once("\r\n") {
        Some((rl, rest)) => (rl, rest),
        None => (head, ""),
    };
    if request_line.contains('\n') {
        return Err(ParseError::Malformed("bare lf in request line"));
    }

    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("");
    let path = parts
        .next()
        .ok_or(ParseError::Malformed("no request target"))?;
    let version = parts
        .next()
        .ok_or(ParseError::Malformed("no http version"))?;
    if parts.next().is_some() {
        return Err(ParseError::Malformed("extra tokens in request line"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::Malformed("illegal method"));
    }
    if path.is_empty() || !path.starts_with('/') {
        return Err(ParseError::Malformed("target must be origin-form"));
    }
    if path.bytes().any(|b| !(0x21..=0x7e).contains(&b)) {
        return Err(ParseError::Malformed("illegal byte in target"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ParseError::UnsupportedVersion),
    };

    let headers = if header_block.is_empty() {
        parse_headers_empty()
    } else {
        parse_headers(header_block)?
    };
    let keep_alive = headers.keep_alive.unwrap_or(http11);

    let body_deadline = Instant::now() + body_timeout;
    let mut body = Vec::new();
    if headers.chunked {
        read_chunked(reader, limits, body_deadline, abort, &mut body)?;
    } else if let Some(n) = headers.content_length {
        if n > limits.max_body_bytes {
            return Err(ParseError::BodyTooLarge);
        }
        reader.read_exact_body(n, body_deadline, abort, &mut body)?;
    }

    Ok(ParsedRequest {
        method: method.to_string(),
        path: path.to_string(),
        keep_alive,
        deadline_ms: headers.deadline_ms,
        request_id: headers.request_id,
        body,
        started: reader
            .started
            .expect("a request's head holds at least one buffered byte"),
    })
}

fn parse_headers_empty() -> Headers {
    Headers {
        content_length: None,
        chunked: false,
        keep_alive: None,
        deadline_ms: None,
        request_id: None,
    }
}

/// Strict chunked-body decoding: hex size line (extensions rejected),
/// exactly `size` bytes, a mandatory CRLF, and a bare terminating
/// `0\r\n\r\n` (no trailers).
fn read_chunked<R: Read>(
    reader: &mut ConnReader<R>,
    limits: &Limits,
    deadline: Instant,
    abort: &AtomicBool,
    out: &mut Vec<u8>,
) -> Result<(), ParseError> {
    loop {
        let line = reader.read_line(deadline, abort)?;
        let line =
            std::str::from_utf8(&line).map_err(|_| ParseError::Malformed("non-utf8 chunk size"))?;
        if line.is_empty() || line.contains(';') {
            return Err(ParseError::Malformed("bad chunk size line"));
        }
        let size = usize::from_str_radix(line, 16)
            .map_err(|_| ParseError::Malformed("non-hex chunk size"))?;
        if size == 0 {
            let trailer = reader.read_line(deadline, abort)?;
            if !trailer.is_empty() {
                return Err(ParseError::Malformed("trailers are not accepted"));
            }
            return Ok(());
        }
        if out.len() + size > limits.max_body_bytes {
            return Err(ParseError::BodyTooLarge);
        }
        reader.read_exact_body(size, deadline, abort, out)?;
        let mut crlf = Vec::new();
        reader.read_exact_body(2, deadline, abort, &mut crlf)?;
        if crlf != b"\r\n" {
            return Err(ParseError::Malformed("chunk data not crlf-terminated"));
        }
    }
}

impl ParseError {
    /// The HTTP status this reject maps to, when one can still be sent
    /// (`None` means close silently: nothing of this request arrived, or
    /// nobody is left to read an answer).
    pub fn status(&self) -> Option<u16> {
        match self {
            ParseError::IdleClose
            | ParseError::Aborted
            | ParseError::TimedOutIdle
            | ParseError::Disconnected => None,
            ParseError::TimedOut(_) => Some(408),
            ParseError::HeadersTooLarge => Some(431),
            ParseError::BodyTooLarge => Some(413),
            ParseError::Malformed(_) => Some(400),
            ParseError::UnsupportedVersion => Some(505),
        }
    }
}
