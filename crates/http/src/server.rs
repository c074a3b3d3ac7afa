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
use od_serve::{Funnel, ServeError, Submit};
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
fn mint_request_id() -> String {
    use std::hash::{BuildHasher, Hasher};
    static SEED: std::sync::OnceLock<std::collections::hash_map::RandomState> =
        std::sync::OnceLock::new();
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    let mut h = SEED.get_or_init(Default::default).build_hasher();
    h.write_u64(NEXT.fetch_add(1, Ordering::Relaxed));
    format!("{:016x}", h.finish())
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
            .map(|s| s.engine().health().drain_rejected)
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
    let resp = error_response(503, why)
        .with_header("Retry-After", "1")
        .with_header("X-Request-Id", &mint_request_id());
    if write_response(&mut stream, &resp, true).is_ok() {
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
    let limits = Limits {
        max_header_bytes: cfg.max_header_bytes,
        max_body_bytes: cfg.max_body_bytes,
    };
    loop {
        let t0 = od_obs::clock::now();
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
                    let resp = error_response(status, &format!("{e:?}"))
                        .with_header("X-Request-Id", &mint_request_id());
                    if write_response(&mut stream, &resp, true).is_ok() {
                        m.count_response(status);
                    } else {
                        m.disconnects.inc();
                    }
                }
                return;
            }
        };
        let t_read = od_obs::clock::now();
        m.read_ns.record(od_obs::clock::ns_between(t0, t_read));

        // Every request has an id (client-supplied or minted here), and
        // every response echoes it. The trace — when tracing is on —
        // starts under that id; the root span closes after the write.
        let rid = req.request_id.clone().unwrap_or_else(mint_request_id);
        let tracer = od_obs::trace::global();
        let ctx = tracer.begin(&rid);
        tracer.record(ctx, "parse", t0, t_read);

        // The query is stripped once: routing and the metrics route label
        // are decided on the same path.
        let path = req.path.split('?').next().unwrap_or("");
        let route = route_of(path);
        m.requests[route].inc();
        let resp = dispatch(inner, &req, path, ctx).with_header("X-Request-Id", &rid);
        let t_handled = od_obs::clock::now();
        m.handle_ns[route].record(od_obs::clock::ns_between(t_read, t_handled));

        // Close after this response if the client asked, the response
        // demands it, or the drain began while we were handling.
        let closing = !req.keep_alive || resp.close || inner.draining.load(Ordering::SeqCst);
        match write_response(&mut stream, &resp, closing) {
            Ok(()) => {
                m.count_response(resp.status);
                let done = od_obs::clock::now();
                m.write_ns
                    .record(od_obs::clock::ns_between(t_handled, done));
                m.e2e_ns[route].record_exemplar(od_obs::clock::ns_between(t0, done), ctx.trace_id);
                tracer.record(ctx, "write", t_handled, done);
                tracer.end(ctx, "request", t0, done, resp.status >= 500);
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

/// An assembled response, not yet written.
struct Response {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    headers: Vec<(&'static str, String)>,
    /// Force `Connection: close` regardless of the client's preference.
    close: bool,
}

impl Response {
    fn json(status: u16, body: Vec<u8>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            headers: Vec::new(),
            close: false,
        }
    }

    fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.as_bytes().to_vec(),
            headers: Vec::new(),
            close: false,
        }
    }

    fn with_header(mut self, name: &'static str, value: &str) -> Response {
        self.headers.push((name, value.to_string()));
        self
    }
}

/// A typed-error JSON response.
fn error_response(status: u16, why: &str) -> Response {
    let body = serde_json::to_string(&ErrorBody {
        error: why.to_string(),
    })
    .unwrap_or_else(|_| "{\"error\":\"error\"}".to_string());
    Response::json(status, body.into_bytes())
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

fn write_response(stream: &mut TcpStream, resp: &Response, closing: bool) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    for (name, value) in &resp.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    if closing {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

/// Route one parsed request to its handler; `path` is its target without
/// the query string.
fn dispatch(
    inner: &Arc<Inner>,
    req: &ParsedRequest,
    path: &str,
    ctx: od_obs::trace::TraceContext,
) -> Response {
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => healthz(inner),
        ("GET", "/metrics") => Response::text(200, &od_obs::global().snapshot().to_prometheus()),
        ("GET", "/debug/traces") => debug_traces(req),
        ("POST", "/v1/score") => score(inner, req, ctx),
        ("POST", "/v1/recommend") => recommend(inner, req, ctx),
        (_, "/healthz") | (_, "/metrics") | (_, "/debug/traces") => {
            error_response(405, "method not allowed").with_header("Allow", "GET")
        }
        (_, "/v1/score") | (_, "/v1/recommend") => {
            error_response(405, "method not allowed").with_header("Allow", "POST")
        }
        _ => error_response(404, "no such route"),
    }
}

/// `GET /debug/traces`: dump the tail-sampled trace ring. Query knobs:
/// `min_ms=<n>` (minimum root duration), `errors=1` (error traces only),
/// `limit=<n>` (newest n), `format=chrome` (Chrome `trace_event` JSON,
/// loadable in `chrome://tracing` / Perfetto; default is the native
/// shape). An unknown key or an unparsable `min_ms` / `limit` is a 400
/// naming it — whether or not tracing is on — never a silently unfiltered
/// dump.
fn debug_traces(req: &ParsedRequest) -> Response {
    let query = req.path.split_once('?').map_or("", |(_, q)| q);
    let mut min_ns = 0u64;
    let mut errors_only = false;
    let mut limit = 0usize;
    let mut chrome = false;
    for kv in query.split('&').filter(|s| !s.is_empty()) {
        let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
        let number = || {
            v.parse::<u64>()
                .map_err(|_| error_response(400, &format!("{k} expects a number, got {v:?}")))
        };
        match k {
            "min_ms" => match number() {
                Ok(ms) => min_ns = ms.saturating_mul(1_000_000),
                Err(bad) => return bad,
            },
            "errors" => errors_only = v == "1" || v == "true",
            "limit" => match number() {
                Ok(n) => limit = usize::try_from(n).unwrap_or(usize::MAX),
                Err(bad) => return bad,
            },
            "format" => chrome = v == "chrome",
            _ => return error_response(400, &format!("unknown query key: {k}")),
        }
    }
    let tracer = od_obs::trace::global();
    if !tracer.enabled() {
        return error_response(503, "tracing is not enabled");
    }
    let traces = tracer.snapshot(min_ns, errors_only, limit);
    let body = if chrome {
        od_obs::trace::to_chrome(&traces)
    } else {
        od_obs::trace::to_json(&traces)
    };
    Response::json(200, body.into_bytes())
}

/// Readiness: NOT-READY while draining or when any shard has no live
/// worker to score with.
fn healthz(inner: &Arc<Inner>) -> Response {
    if inner.draining.load(Ordering::SeqCst) {
        let mut r = Response::text(503, "draining\n");
        r.close = true;
        return r;
    }
    for shard in &inner.shards {
        let h = shard.engine().health();
        if h.configured_workers > 0 && h.live_workers == 0 {
            return Response::text(503, "no live workers\n");
        }
    }
    Response::text(200, "ok\n")
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

/// `POST /v1/score`: body is a [`GroupInput`]; sharded by user id.
fn score(inner: &Arc<Inner>, req: &ParsedRequest, ctx: od_obs::trace::TraceContext) -> Response {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return error_response(400, "body is not utf-8"),
    };
    let group: GroupInput = match serde_json::from_str(body) {
        Ok(g) => g,
        Err(e) => return error_response(400, &format!("bad group: {e}")),
    };
    let deadline = deadline_of(inner, req);
    let shard = &inner.shards[group.user.index() % inner.shards.len()];
    let ticket = match shard.engine().submit_traced(group, Some(deadline), ctx) {
        Submit::Accepted(t) => t,
        Submit::Rejected(_) => {
            return error_response(429, "backpressure").with_header("Retry-After", "1")
        }
        Submit::Invalid { error, .. } => {
            return error_response(400, &format!("invalid group: {error:?}"))
        }
    };
    let wait = deadline.saturating_duration_since(Instant::now());
    match ticket.wait_versioned_timeout(wait) {
        Ok(scored) => {
            let body = ScoreResponse {
                scores: scored.scores,
                epoch: scored.version.epoch,
                checksum: scored.version.checksum,
            };
            match serde_json::to_string(&body) {
                Ok(s) => Response::json(200, s.into_bytes())
                    .with_header("X-Artifact-Epoch", &body.epoch.to_string())
                    .with_header("X-Artifact-Checksum", &body.checksum.to_string()),
                Err(_) => error_response(500, "serialization failed"),
            }
        }
        // A ticket that resolves `Rejected` after acceptance means the
        // engine shut down (or force-drained) under this connection —
        // unconditionally 503; submit-time backpressure was the 429
        // above.
        Err(ServeError::Rejected) => {
            let mut r = error_response(503, "engine shut down");
            r.close = true;
            r
        }
        Err(e) => serve_error_response(inner, e, ctx),
    }
}

/// `POST /v1/recommend`: run the full funnel for one user.
fn recommend(
    inner: &Arc<Inner>,
    req: &ParsedRequest,
    ctx: od_obs::trace::TraceContext,
) -> Response {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return error_response(400, "body is not utf-8"),
    };
    let ask: RecommendRequest = match serde_json::from_str(body) {
        Ok(r) => r,
        Err(e) => return error_response(400, &format!("bad request: {e}")),
    };
    if ask.k == 0 {
        return error_response(400, "k must be at least 1");
    }
    let shard = &inner.shards[ask.user as usize % inner.shards.len()];
    if ask.user as usize >= shard.num_users() {
        return error_response(400, "user outside the artifact universe");
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
            match serde_json::to_string(&body) {
                Ok(s) => Response::json(200, s.into_bytes())
                    .with_header("X-Artifact-Epoch", &body.ranked_by.epoch.to_string())
                    .with_header("X-Artifact-Checksum", &body.ranked_by.checksum.to_string()),
                Err(_) => error_response(500, "serialization failed"),
            }
        }
        Err(e) => serve_error_response(inner, e, ctx),
    }
}

/// The overload ladder: map a typed [`ServeError`] on a resolved ticket
/// to its status. `Rejected` *after* acceptance means the engine shut
/// down (or force-drained) under the caller — 503, while backpressure at
/// submit is the 429 handled at the submit site. The deadline/panic
/// failure surfaces name the trace id so the body alone is enough to pull
/// the captured trace from `/debug/traces`.
fn serve_error_response(
    inner: &Arc<Inner>,
    e: ServeError,
    ctx: od_obs::trace::TraceContext,
) -> Response {
    let traced = |why: &str| {
        if ctx.is_active() {
            format!("{why} (trace {})", od_obs::trace::hex_id(ctx.trace_id))
        } else {
            why.to_string()
        }
    };
    match e {
        ServeError::DeadlineExceeded => error_response(504, &traced("deadline exceeded")),
        ServeError::WorkerPanicked => error_response(500, &traced("worker panicked")),
        ServeError::InvalidInput(err) => error_response(400, &format!("invalid group: {err:?}")),
        ServeError::Rejected => {
            if inner.draining.load(Ordering::SeqCst) {
                let mut r = error_response(503, "draining");
                r.close = true;
                r
            } else {
                // The funnel collapses submit-time backpressure into the
                // same variant; without drain in progress that is the
                // retryable case.
                error_response(429, "backpressure").with_header("Retry-After", "1")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_serve::{EngineConfig, FunnelConfig};
    use odnet_core::{OdNetModel, OdnetConfig, Variant};

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
