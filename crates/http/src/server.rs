//! The serving front-end: acceptor, connection workers, routing, and the
//! drain state machine.
//!
//! # Thread design
//!
//! One blocking acceptor thread owns the `TcpListener`; accepted sockets
//! are handed through a bounded queue to a small pool of connection
//! workers (thread-per-core spirit: each worker runs one connection's
//! keep-alive loop at a time, and the scoring parallelism lives in the
//! engine shards behind it, not in connection threads). Overload is
//! answered at the socket edge: past [`ServerConfig::max_connections`]
//! live connections — or a full handoff queue — the acceptor writes an
//! immediate `503` and closes, so a flood degrades into cheap rejections
//! instead of unbounded memory.
//!
//! Each connection owns one output buffer for its whole keep-alive life.
//! A handler serializes its body straight into it, [`seal`] puts the head
//! in front, and the response leaves in **one write** — under
//! `TCP_NODELAY` a second write would be a second segment. In steady
//! state a response allocates nothing for its head or body bytes.
//!
//! # Deadline ladder
//!
//! Reads are sliced ([`ServerConfig::read_slice`]) so a connection
//! thread re-checks its wall-clock deadline and the drain flag a few
//! times per second: a half-open client is dropped silently at the
//! header window, a slow-loris writer gets `408`, and a parsed request's
//! `X-Deadline-Ms` rides into [`Engine::submit_traced`] — work
//! still queued past the deadline is dropped at drain and answered
//! `504`. Requests without the header get
//! [`ServerConfig::default_max_wait`], so a connection thread is *never*
//! parked unboundedly on a ticket.
//!
//! # Drain state machine (DESIGN.md §15)
//!
//! `Running → Draining → Closed`. [`Server::shutdown`] flips the drain
//! flag (readiness goes NOT-READY, the acceptor answers `503` and
//! exits), lets every connection worker finish the request it holds
//! (idle keep-alive connections close at their next read slice), then
//! force-drains the engine shards within a grace window so any ticket
//! still unresolved answers `503` rather than hanging. The invariant the
//! chaos suite pins: every request whose bytes fully arrived gets a
//! response before the listener closes.

use crate::metrics::HttpMetrics;
use crate::parser::{parse_request, ConnReader, Limits, ParseError, ParsedRequest, Phase};
use crate::wire::{ErrorBody, RecommendRequest, RecommendResponse, ScoreResponse, WirePair};
use od_hsg::UserId;
use od_retrieval::ScoredPair;
use od_serve::{ArtifactVersion, Funnel, ServeError, Submit};
use odnet_core::GroupInput;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Builds the ranking [`GroupInput`] for a retrieved candidate set —
/// history/context featurization is the caller's (dataset-holding) side
/// of the funnel contract. Candidates must stay in retrieval order.
pub type Featurizer = Arc<dyn Fn(UserId, &[ScoredPair]) -> GroupInput + Send + Sync>;

/// Tuning knobs of the [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks a free port (see
    /// [`Server::addr`]).
    pub addr: String,
    /// Connection-worker threads (each runs one connection at a time).
    pub conn_workers: usize,
    /// Live-connection cap; connections past it get an immediate 503.
    pub max_connections: usize,
    /// Bounded acceptor→worker handoff queue; a full queue 503s too.
    pub accept_backlog: usize,
    /// Wall-clock budget for reading one request's line + headers; also
    /// the keep-alive idle timeout.
    pub header_timeout: Duration,
    /// Wall-clock budget for reading one request's body.
    pub body_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// Socket read-timeout slice between deadline/drain re-checks.
    pub read_slice: Duration,
    /// Request line + headers byte cap → 431.
    pub max_header_bytes: usize,
    /// Body byte cap → 413.
    pub max_body_bytes: usize,
    /// Engine deadline applied when a request carries no `X-Deadline-Ms`
    /// — the bound on how long a connection thread can hold a ticket.
    pub default_max_wait: Duration,
    /// Grace window [`Server::shutdown`] gives the engine shards to
    /// finish in-flight work before force-rejecting.
    pub drain_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            conn_workers: 4,
            max_connections: 64,
            accept_backlog: 64,
            header_timeout: Duration::from_secs(5),
            body_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            read_slice: Duration::from_millis(50),
            max_header_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            default_max_wait: Duration::from_secs(10),
            drain_grace: Duration::from_secs(2),
        }
    }
}

/// Mint a request id for a request that arrived without `X-Request-Id`
/// (or never got far enough to carry headers): 16 hex digits from a
/// per-process randomly seeded hash of a sequence number — unique within
/// the process, uncorrelated across restarts.
struct MintedId([u8; 16]);

impl MintedId {
    fn new() -> MintedId {
        use std::hash::{BuildHasher, Hasher};
        static SEED: std::sync::OnceLock<std::collections::hash_map::RandomState> =
            std::sync::OnceLock::new();
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let mut h = SEED.get_or_init(Default::default).build_hasher();
        h.write_u64(NEXT.fetch_add(1, Ordering::Relaxed));
        let mut v = h.finish();
        let mut hex = [0u8; 16];
        for digit in hex.iter_mut().rev() {
            *digit = b"0123456789abcdef"[(v & 15) as usize];
            v >>= 4;
        }
        MintedId(hex)
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("hex digits are ASCII")
    }
}

/// What [`Server::shutdown`] observed.
#[derive(Clone, Copy, Debug)]
pub struct DrainReport {
    /// Every engine shard settled (all accepted tickets resolved) within
    /// its grace window.
    pub clean: bool,
    /// Tickets force-resolved `Rejected` (503) across all shards because
    /// the grace window expired first.
    pub drain_rejected: u64,
}

/// Bounded handoff queue between the acceptor and connection workers.
struct ConnQueue {
    state: Mutex<(VecDeque<TcpStream>, bool)>,
    not_empty: Condvar,
    capacity: usize,
}

impl ConnQueue {
    fn new(capacity: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new((VecDeque::new(), false)),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (VecDeque<TcpStream>, bool)> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn try_push(&self, s: TcpStream) -> Result<(), TcpStream> {
        let mut st = self.lock();
        if st.1 || st.0.len() >= self.capacity {
            return Err(s);
        }
        st.0.push_back(s);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    fn pop(&self) -> Option<TcpStream> {
        let mut st = self.lock();
        loop {
            if let Some(s) = st.0.pop_front() {
                return Some(s);
            }
            if st.1 {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.lock().1 = true;
        self.not_empty.notify_all();
    }
}

struct Inner {
    shards: Vec<Arc<Funnel>>,
    featurizer: Featurizer,
    config: ServerConfig,
    metrics: HttpMetrics,
    draining: AtomicBool,
    active: AtomicUsize,
    queue: ConnQueue,
}

/// A running HTTP tier over a set of [`Funnel`] shards.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. Requests shard by user id
    /// (`user % shards.len()`); all shards must serve the same artifact
    /// universe.
    pub fn start(
        shards: Vec<Arc<Funnel>>,
        featurizer: Featurizer,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        assert!(!shards.is_empty(), "server needs at least one shard");
        assert!(config.conn_workers >= 1, "server needs a connection worker");
        od_obs::clock::calibrate();
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics = HttpMetrics::register();
        metrics.draining.set(0);
        if od_obs::trace::enabled() {
            // Let "slow" track the live workload: the tail sampler keeps
            // anything past the recommend route's p99 even when the
            // configured floor is higher.
            od_obs::trace::global().set_tail_source(metrics.e2e_ns["recommend"].clone());
        }
        let inner = Arc::new(Inner {
            queue: ConnQueue::new(config.accept_backlog),
            shards,
            featurizer,
            config,
            metrics,
            draining: AtomicBool::new(false),
            active: AtomicUsize::new(0),
        });
        let workers: Vec<JoinHandle<()>> = (0..inner.config.conn_workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("od-http-w{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn http worker")
            })
            .collect();
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("od-http-accept".to_string())
                .spawn(move || accept_loop(&inner, listener))
                .expect("spawn http acceptor")
        };
        Ok(Server {
            inner,
            addr,
            acceptor: Some(acceptor),
            workers: Vec::from_iter(workers),
        })
    }

    /// The bound address (the OS-chosen port when configured with `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, flip readiness, answer every
    /// in-flight request, force-resolve anything still queued in the
    /// engine shards after the grace window, then close. Consumes the
    /// server; returns what the drain observed.
    pub fn shutdown(mut self) -> DrainReport {
        self.stop();
        // Engine-side drain: anything a connection could still be
        // waiting on has resolved by now (workers joined), but queued
        // work submitted by non-HTTP callers of the same shards gets the
        // same bounded guarantee.
        let inner = &self.inner;
        let mut clean = true;
        for shard in &inner.shards {
            clean &= shard.drain(inner.config.drain_grace);
        }
        let drain_rejected = inner
            .shards
            .iter()
            .map(|s| s.engine().stats().drain_rejected)
            .sum();
        DrainReport {
            clean,
            drain_rejected,
        }
    }

    /// The one stop sequence, shared by [`shutdown`](Self::shutdown) and
    /// `Drop` (which also runs after `shutdown`): a no-op once the
    /// acceptor handle is gone. The listener is closed by then, so a
    /// second wake-up dial would go to whichever process owns the
    /// (possibly ephemeral) port now.
    fn stop(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.metrics.draining.set(1);
        // Wake the blocking accept with a throwaway connection; the
        // acceptor sees the flag and exits.
        let _ = TcpStream::connect(self.addr);
        let _ = acceptor.join();
        // Workers finish the connections they hold (in-flight requests
        // are served to completion; idle keep-alive connections close at
        // their next read slice) plus anything already queued, then exit.
        self.inner.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        self.inner.metrics.zero_gauges();
    }
}

/// Acceptor thread body.
fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if inner.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if inner.draining.load(Ordering::SeqCst) {
            // Includes the shutdown wake-up connection; a real client
            // racing the drain gets the honest answer.
            reject_at_edge(inner, stream, "draining");
            return;
        }
        inner.metrics.accepted.inc();
        if inner.active.load(Ordering::SeqCst) >= inner.config.max_connections {
            inner.metrics.over_capacity.inc();
            reject_at_edge(inner, stream, "connection limit");
            continue;
        }
        inner.active.fetch_add(1, Ordering::SeqCst);
        inner.metrics.active_connections.add(1);
        if let Err(stream) = inner.queue.try_push(stream) {
            inner.active.fetch_sub(1, Ordering::SeqCst);
            inner.metrics.active_connections.sub(1);
            inner.metrics.over_capacity.inc();
            reject_at_edge(inner, stream, "accept queue full");
        }
    }
}

/// Write an immediate 503 + close from the acceptor thread. The write is
/// bounded by a short timeout so a malicious peer cannot stall accepts.
/// Even this path carries an `X-Request-Id` — an edge reject is exactly
/// the response a client will ask the operator about.
fn reject_at_edge(inner: &Arc<Inner>, mut stream: TcpStream, why: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let mut out = Vec::new();
    let head = error(&mut out, 503, why).with_line("Retry-After: 1\r\n");
    seal(&mut out, &head, MintedId::new().as_str(), true);
    if stream.write_all(&out).is_ok() {
        inner.metrics.count_response(503);
    }
}

/// Connection-worker thread body: serve handed-off connections until the
/// queue closes. A panic anywhere in a connection handler is caught at
/// this boundary — the connection dies (socket dropped → peer sees a
/// close), the worker survives for the next connection, mirroring the
/// engine's supervisor discipline.
fn worker_loop(inner: &Arc<Inner>) {
    while let Some(stream) = inner.queue.pop() {
        let r = catch_unwind(AssertUnwindSafe(|| handle_connection(inner, stream)));
        if r.is_err() {
            inner.metrics.conn_panics.inc();
        }
        inner.active.fetch_sub(1, Ordering::SeqCst);
        inner.metrics.active_connections.sub(1);
    }
}

/// One connection's keep-alive loop.
fn handle_connection(inner: &Arc<Inner>, mut stream: TcpStream) {
    let m = &inner.metrics;
    let cfg = &inner.config;
    if stream.set_read_timeout(Some(cfg.read_slice)).is_err()
        || stream.set_write_timeout(Some(cfg.write_timeout)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = ConnReader::new(read_half);
    let mut out: Vec<u8> = Vec::new();
    let limits = Limits {
        max_header_bytes: cfg.max_header_bytes,
        max_body_bytes: cfg.max_body_bytes,
    };
    loop {
        // Per-request deadline reset: each trip through this loop re-arms
        // the header window from "now" — keep-alive reuse never inherits
        // the previous request's spent budget.
        let req = parse_request(
            &mut reader,
            &limits,
            cfg.header_timeout,
            cfg.body_timeout,
            &inner.draining,
        );
        let req = match req {
            Ok(req) => req,
            Err(e) => {
                match &e {
                    ParseError::TimedOut(Phase::Header) | ParseError::TimedOutIdle => {
                        m.timeouts_header.inc()
                    }
                    ParseError::TimedOut(Phase::Body) => m.timeouts_body.inc(),
                    ParseError::Disconnected => m.disconnects.inc(),
                    _ => {}
                }
                if let Some(status) = e.status() {
                    // The request never yielded headers, so the id is
                    // server-minted; the 408/413/431/400/505 ladder is
                    // still correlatable from the client side.
                    out.clear();
                    let head = error(&mut out, status, &format!("{e:?}"));
                    seal(&mut out, &head, MintedId::new().as_str(), true);
                    if stream.write_all(&out).is_ok() {
                        m.count_response(status);
                    } else {
                        m.disconnects.inc();
                    }
                }
                return;
            }
        };
        // The clock starts at the request's first byte, not at the idle
        // wait before it.
        let t0 = req.started;
        let t_read = od_obs::clock::now();
        m.read_ns.record(od_obs::clock::ns_between(t0, t_read));

        // Every request has an id (client-supplied or minted here), and
        // every response echoes it. The trace — when tracing is on —
        // starts under that id; the root span closes after the write.
        let minted;
        let rid = match &req.request_id {
            Some(id) => id.as_str(),
            None => {
                minted = MintedId::new();
                minted.as_str()
            }
        };
        let tracer = od_obs::trace::global();
        let ctx = tracer.begin(rid);
        tracer.record(ctx, "parse", t0, t_read);

        // The query is stripped once: routing and the metrics route label
        // are decided on the same path.
        let path = req.path.split('?').next().unwrap_or("");
        let route = route_of(path);
        m.requests[route].inc();
        out.clear();
        let head = dispatch(inner, &req, path, ctx, &mut out);
        let t_handled = od_obs::clock::now();
        m.handle_ns[route].record(od_obs::clock::ns_between(t_read, t_handled));

        // Close after this response if the client asked, the response
        // demands it, or the drain began while we were handling.
        let closing = !req.keep_alive || head.close || inner.draining.load(Ordering::SeqCst);
        seal(&mut out, &head, rid, closing);
        match stream.write_all(&out) {
            Ok(()) => {
                m.count_response(head.status);
                let done = od_obs::clock::now();
                m.write_ns
                    .record(od_obs::clock::ns_between(t_handled, done));
                m.e2e_ns[route].record_exemplar(od_obs::clock::ns_between(t0, done), ctx.trace_id);
                tracer.record(ctx, "write", t_handled, done);
                tracer.end(ctx, "request", t0, done, head.status >= 500);
            }
            Err(_) => {
                m.disconnects.inc();
                // The response never reached the peer: close the trace as
                // an error (also frees the in-flight slot).
                tracer.end(ctx, "request", t0, od_obs::clock::now(), true);
                return;
            }
        }
        if closing {
            return;
        }
    }
}

/// The metrics route label of a (query-stripped) request path.
fn route_of(path: &str) -> &'static str {
    match path {
        "/v1/score" => "score",
        "/v1/recommend" => "recommend",
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        _ => "other",
    }
}

const JSON: &str = "application/json";
const TEXT: &str = "text/plain; charset=utf-8";

/// Everything of a response but its body, which the handler has already
/// written to the connection's output buffer. Plain data: building one
/// allocates nothing.
#[derive(Clone, Copy)]
struct Head {
    status: u16,
    content_type: &'static str,
    /// One fixed extra header line (`Retry-After`, `Allow`), CRLF
    /// included; empty for none.
    line: &'static str,
    /// The generation that scored a 200, for the `X-Artifact-*` stamps.
    version: Option<ArtifactVersion>,
    /// Force `Connection: close` regardless of the client's preference.
    close: bool,
}

impl Head {
    fn new(status: u16, content_type: &'static str) -> Head {
        Head {
            status,
            content_type,
            line: "",
            version: None,
            close: false,
        }
    }

    fn with_line(self, line: &'static str) -> Head {
        Head { line, ..self }
    }

    fn closing(self) -> Head {
        Head {
            close: true,
            ..self
        }
    }
}

/// Write a typed-error JSON body.
fn error(out: &mut Vec<u8>, status: u16, why: &str) -> Head {
    serde_json::append(
        out,
        &ErrorBody {
            error: why.to_string(),
        },
    );
    Head::new(status, JSON)
}

/// Write a plain-text body.
fn text(out: &mut Vec<u8>, status: u16, body: &str) -> Head {
    out.extend_from_slice(body.as_bytes());
    Head::new(status, TEXT)
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Turn the body in `out` into the whole response. `Content-Length` is
/// known only once the body is written, so the head is appended behind it
/// and rotated to the front: still one buffer, and one `write_all` sends
/// it.
fn seal(out: &mut Vec<u8>, head: &Head, request_id: &str, closing: bool) {
    // A JSON integer is its decimal digits: the emitter's digit loop
    // serves the head's numbers too.
    fn number(out: &mut Vec<u8>, n: u64) {
        serde_json::append(out, &n);
    }
    let body_len = out.len();
    out.extend_from_slice(b"HTTP/1.1 ");
    number(out, u64::from(head.status));
    out.push(b' ');
    out.extend_from_slice(reason(head.status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(head.content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    number(out, body_len as u64);
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(head.line.as_bytes());
    if let Some(version) = head.version {
        out.extend_from_slice(b"X-Artifact-Epoch: ");
        number(out, version.epoch);
        out.extend_from_slice(b"\r\nX-Artifact-Checksum: ");
        number(out, u64::from(version.checksum));
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"X-Request-Id: ");
    out.extend_from_slice(request_id.as_bytes());
    out.extend_from_slice(b"\r\n");
    if closing {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
    let head_len = out.len() - body_len;
    out.rotate_right(head_len);
}

/// Route one parsed request to its handler; `path` is its target without
/// the query string.
fn dispatch(
    inner: &Arc<Inner>,
    req: &ParsedRequest,
    path: &str,
    ctx: od_obs::trace::TraceContext,
    out: &mut Vec<u8>,
) -> Head {
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => healthz(inner, out),
        ("GET", "/metrics") => text(out, 200, &od_obs::global().snapshot().to_prometheus()),
        ("GET", "/debug/traces") => debug_traces(req, out),
        ("POST", "/v1/score") => score(inner, req, ctx, out),
        ("POST", "/v1/recommend") => recommend(inner, req, ctx, out),
        (_, "/healthz") | (_, "/metrics") | (_, "/debug/traces") => {
            error(out, 405, "method not allowed").with_line("Allow: GET\r\n")
        }
        (_, "/v1/score") | (_, "/v1/recommend") => {
            error(out, 405, "method not allowed").with_line("Allow: POST\r\n")
        }
        _ => error(out, 404, "no such route"),
    }
}

/// `GET /debug/traces`: dump the tail-sampled trace ring. Query knobs:
/// `min_ms=<n>` (minimum root duration), `errors=1` (error traces only),
/// `limit=<n>` (newest n), `format=chrome` (Chrome `trace_event` JSON,
/// loadable in `chrome://tracing` / Perfetto; default is the native
/// shape). An unknown key or an unparsable `min_ms` / `limit` is a 400
/// naming it — whether or not tracing is on — never a silently unfiltered
/// dump.
fn debug_traces(req: &ParsedRequest, out: &mut Vec<u8>) -> Head {
    let query = req.path.split_once('?').map_or("", |(_, q)| q);
    let mut min_ns = 0u64;
    let mut errors_only = false;
    let mut limit = 0usize;
    let mut chrome = false;
    for kv in query.split('&').filter(|s| !s.is_empty()) {
        let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
        let number = v.parse::<u64>();
        match (k, number) {
            ("min_ms", Ok(ms)) => min_ns = ms.saturating_mul(1_000_000),
            ("limit", Ok(n)) => limit = usize::try_from(n).unwrap_or(usize::MAX),
            ("min_ms" | "limit", Err(_)) => {
                return error(out, 400, &format!("{k} expects a number, got {v:?}"))
            }
            ("errors", _) => errors_only = v == "1" || v == "true",
            ("format", _) => chrome = v == "chrome",
            _ => return error(out, 400, &format!("unknown query key: {k}")),
        }
    }
    let tracer = od_obs::trace::global();
    if !tracer.enabled() {
        return error(out, 503, "tracing is not enabled");
    }
    let traces = tracer.snapshot(min_ns, errors_only, limit);
    let body = if chrome {
        od_obs::trace::to_chrome(&traces)
    } else {
        od_obs::trace::to_json(&traces)
    };
    out.extend_from_slice(body.as_bytes());
    Head::new(200, JSON)
}

/// Readiness: NOT-READY while draining or when any shard has no live
/// worker to score with.
fn healthz(inner: &Arc<Inner>, out: &mut Vec<u8>) -> Head {
    if inner.draining.load(Ordering::SeqCst) {
        return text(out, 503, "draining\n").closing();
    }
    for shard in &inner.shards {
        let s = shard.engine().stats();
        if s.configured_workers > 0 && s.live_workers == 0 {
            return text(out, 503, "no live workers\n");
        }
    }
    text(out, 200, "ok\n")
}

/// The engine deadline of a request: `X-Deadline-Ms` when present, the
/// configured default otherwise — a connection thread never waits
/// unboundedly on a ticket.
fn deadline_of(inner: &Inner, req: &ParsedRequest) -> Instant {
    let wait = req
        .deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(inner.config.default_max_wait);
    Instant::now() + wait
}

/// Serialize a 200 body into `out` under an `encode` span and stamp the
/// head with the generation that scored it.
fn encode<T: serde::Serialize>(
    out: &mut Vec<u8>,
    ctx: od_obs::trace::TraceContext,
    body: &T,
    version: ArtifactVersion,
) -> Head {
    let t0 = od_obs::clock::now();
    serde_json::append(out, body);
    od_obs::trace::global().record(ctx, "encode", t0, od_obs::clock::now());
    Head {
        version: Some(version),
        ..Head::new(200, JSON)
    }
}

/// `POST /v1/score`: body is a [`GroupInput`]; sharded by user id.
fn score(
    inner: &Arc<Inner>,
    req: &ParsedRequest,
    ctx: od_obs::trace::TraceContext,
    out: &mut Vec<u8>,
) -> Head {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return error(out, 400, "body is not utf-8"),
    };
    let group: GroupInput = match serde_json::from_str(body) {
        Ok(g) => g,
        Err(e) => return error(out, 400, &format!("bad group: {e}")),
    };
    let deadline = deadline_of(inner, req);
    let shard = &inner.shards[group.user.index() % inner.shards.len()];
    let ticket = match shard.engine().submit_traced(group, Some(deadline), ctx) {
        Submit::Accepted(t) => t,
        Submit::Rejected(_) => {
            return error(out, 429, "backpressure").with_line("Retry-After: 1\r\n")
        }
        Submit::Invalid { error: e, .. } => {
            return error(out, 400, &format!("invalid group: {e:?}"))
        }
    };
    match ticket.wait_versioned(Some(deadline)) {
        Ok(scored) => {
            let body = ScoreResponse {
                scores: scored.scores,
                epoch: scored.version.epoch,
                checksum: scored.version.checksum,
            };
            encode(out, ctx, &body, scored.version)
        }
        // A ticket that resolves `Rejected` after acceptance means the
        // engine shut down (or force-drained) under this connection —
        // unconditionally 503; submit-time backpressure was the 429
        // above.
        Err(ServeError::Rejected) => error(out, 503, "engine shut down").closing(),
        Err(e) => serve_error(inner, e, ctx, out),
    }
}

/// `POST /v1/recommend`: run the full funnel for one user.
fn recommend(
    inner: &Arc<Inner>,
    req: &ParsedRequest,
    ctx: od_obs::trace::TraceContext,
    out: &mut Vec<u8>,
) -> Head {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return error(out, 400, "body is not utf-8"),
    };
    let ask: RecommendRequest = match serde_json::from_str(body) {
        Ok(r) => r,
        Err(e) => return error(out, 400, &format!("bad request: {e}")),
    };
    if ask.k == 0 {
        return error(out, 400, "k must be at least 1");
    }
    let shard = &inner.shards[ask.user as usize % inner.shards.len()];
    if ask.user as usize >= shard.num_users() {
        return error(out, 400, "user outside the artifact universe");
    }
    // In-universe (checked above) implies the id fits the u32 id space.
    let user = UserId(ask.user as u32);
    let deadline = deadline_of(inner, req);
    let featurizer = Arc::clone(&inner.featurizer);
    match shard.recommend_traced(user, ask.k, Some(deadline), ctx, |pairs| {
        featurizer(user, pairs)
    }) {
        Ok(rec) => {
            let body = RecommendResponse {
                pairs: rec
                    .pairs
                    .iter()
                    .map(|p| WirePair {
                        origin: p.origin.0,
                        dest: p.dest.0,
                        retrieval_score: p.retrieval_score,
                        p_origin: p.p_origin,
                        p_dest: p.p_dest,
                        rank_score: p.rank_score,
                    })
                    .collect(),
                retrieved_by: rec.retrieved_by.into(),
                ranked_by: rec.ranked_by.into(),
            };
            encode(out, ctx, &body, rec.ranked_by)
        }
        Err(e) => serve_error(inner, e, ctx, out),
    }
}

/// The overload ladder: map a typed [`ServeError`] on a resolved ticket
/// to its status. `Rejected` *after* acceptance means the engine shut
/// down (or force-drained) under the caller — 503, while backpressure at
/// submit is the 429 handled at the submit site. The deadline/panic
/// failure surfaces name the trace id so the body alone is enough to pull
/// the captured trace from `/debug/traces`.
fn serve_error(
    inner: &Arc<Inner>,
    e: ServeError,
    ctx: od_obs::trace::TraceContext,
    out: &mut Vec<u8>,
) -> Head {
    let traced = |why: &str| {
        if ctx.is_active() {
            format!("{why} (trace {})", od_obs::trace::hex_id(ctx.trace_id))
        } else {
            why.to_string()
        }
    };
    match e {
        ServeError::DeadlineExceeded => error(out, 504, &traced("deadline exceeded")),
        ServeError::WorkerPanicked => error(out, 500, &traced("worker panicked")),
        ServeError::InvalidInput(err) => error(out, 400, &format!("invalid group: {err:?}")),
        ServeError::Rejected => {
            if inner.draining.load(Ordering::SeqCst) {
                error(out, 503, "draining").closing()
            } else {
                // The funnel collapses submit-time backpressure into the
                // same variant; without drain in progress that is the
                // retryable case.
                error(out, 429, "backpressure").with_line("Retry-After: 1\r\n")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_serve::{EngineConfig, FunnelConfig};
    use odnet_core::{OdNetModel, OdnetConfig, Variant};

    /// The response path reuses its connection's one buffer: after the
    /// first response has sized it, encoding and sealing the same 64-pair
    /// body again never grows or replaces it.
    #[test]
    fn a_connections_output_buffer_is_sized_once_and_reused() {
        let pair = |i: u32| WirePair {
            origin: i,
            dest: i + 1,
            retrieval_score: i as f32 * 0.37,
            p_origin: 1.0 / (i + 2) as f32,
            p_dest: 0.5,
            rank_score: -1.25e-3,
        };
        let version = ArtifactVersion {
            epoch: 7,
            checksum: 0xF00D,
        };
        let body = RecommendResponse {
            pairs: (0..64).map(pair).collect(),
            retrieved_by: version.into(),
            ranked_by: version.into(),
        };
        let mut out = Vec::new();
        let mut first: Option<(Vec<u8>, usize, *const u8)> = None;
        for _ in 0..1000 {
            out.clear();
            let head = encode(&mut out, od_obs::trace::TraceContext::NONE, &body, version);
            seal(&mut out, &head, "0123456789abcdef", false);
            let (bytes, capacity, at) =
                first.get_or_insert_with(|| (out.clone(), out.capacity(), out.as_ptr()));
            assert_eq!(out, *bytes);
            assert_eq!((out.capacity(), out.as_ptr()), (*capacity, *at));
        }
        let (bytes, ..) = first.expect("the loop ran");
        let text = String::from_utf8(bytes).expect("a response is utf-8");
        let (head, json) = text.split_once("\r\n\r\n").expect("head, blank line, body");
        assert!(head.starts_with("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"));
        assert!(head.contains(&format!("\r\nContent-Length: {}\r\n", json.len())));
        assert_eq!(json, serde_json::to_string(&body).expect("body serializes"));
    }

    /// `Drop` runs after `shutdown` too. Once the acceptor is joined the
    /// port is free for anyone, so a second stop must not dial it again:
    /// a listener re-bound on the same port sees no connection attempt.
    #[test]
    fn stopping_twice_does_not_dial_the_released_port() {
        let model = OdNetModel::new(Variant::OdnetG, OdnetConfig::tiny(), 8, 4, None).freeze();
        let shard = Arc::new(Funnel::new(
            Arc::new(model),
            0,
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
            FunnelConfig::default(),
        ));
        let featurizer: Featurizer = Arc::new(|_, _| unreachable!("no request is sent"));
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        };
        let mut server = Server::start(vec![shard], featurizer, config).expect("bind");
        server.stop();
        let successor = TcpListener::bind(server.addr()).expect("port released by stop");
        successor.set_nonblocking(true).expect("nonblocking");
        server.stop();
        drop(server);
        let dialled = successor.accept();
        assert!(
            matches!(&dialled, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
            "a stopped server dialled its old port again: {dialled:?}"
        );
    }
}
