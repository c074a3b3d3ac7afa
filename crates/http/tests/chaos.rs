//! Socket-level chaos for the HTTP tier: the suite drives a real
//! listener over loopback with hostile clients — half-open connections,
//! byte-at-a-time writers, mid-body disconnects, floods past the
//! connection cap, and injected engine panics under concurrent load —
//! and pins the tier's contract:
//!
//! - every request whose bytes fully arrive gets exactly one response,
//!   with failures *typed* (429/500/503/504), never a hang or a lost
//!   ticket;
//! - every `200` body is bit-exact with the in-process oracle
//!   (`FrozenOdNet::score_group`) — the wire adds zero numeric drift;
//! - graceful drain answers all in-flight requests before the listener
//!   closes.
//!
//! - a request held slow by the engine's fail point is tail-captured with
//!   its full span chain and exports as valid Chrome `trace_event` JSON.
//!
//! The minimal blocking client is `od_http::client` (shared with the
//! CLI's `trace`). The engine's [`FailPoint`] is the one way a fault —
//! panic or stall — is injected.

use od_hsg::UserId;
use od_http::{http_request, read_http_response, Featurizer, HttpResponse, Server, ServerConfig};
use od_retrieval::{ScoredPair, Tier};
use od_serve::{EngineConfig, FailPoint, FailSite, Funnel, FunnelConfig};
use odnet_core::{FeatureExtractor, FrozenOdNet, GroupInput, OdNetModel, OdnetConfig, Variant};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

struct Fixture {
    model: Arc<FrozenOdNet>,
    templates: Vec<GroupInput>,
    /// Direct single-threaded scores of every template — the oracle.
    oracle: Vec<Vec<(f32, f32)>>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ds = od_data::FliggyDataset::generate(od_data::FliggyConfig::tiny());
        let model = Arc::new(
            OdNetModel::new(
                Variant::Odnet,
                OdnetConfig::tiny(),
                ds.world.num_users(),
                ds.world.num_cities(),
                Some(ds.hsg()),
            )
            .freeze(),
        );
        let fx = FeatureExtractor::new(6, 4);
        let templates: Vec<GroupInput> = fx
            .groups_from_samples(&ds, &ds.train)
            .into_iter()
            .take(8)
            .collect();
        assert!(templates.len() >= 2, "fixture needs user templates");
        let oracle = templates.iter().map(|g| model.score_group(g)).collect();
        Fixture {
            model,
            templates,
            oracle,
        }
    })
}

/// The caller-side featurizer the server is started with: candidates
/// from the retrieval stage grafted onto the user's context template.
fn featurizer() -> Featurizer {
    let fix = fixture();
    Arc::new(move |user: UserId, pairs: &[ScoredPair]| {
        let template = fix
            .templates
            .iter()
            .find(|t| t.user == user)
            .unwrap_or(&fix.templates[0]);
        let donor = template.candidates[0];
        let mut g = template.clone();
        g.user = user;
        g.candidates = pairs
            .iter()
            .map(|p| {
                let mut c = donor;
                c.origin = p.origin;
                c.dest = p.dest;
                c.label_o = 0.0;
                c.label_d = 0.0;
                c
            })
            .collect();
        g
    })
}

fn funnel_with(cfg: EngineConfig) -> Arc<Funnel> {
    Arc::new(Funnel::new(
        Arc::clone(&fixture().model),
        0xF00D,
        cfg,
        FunnelConfig {
            tier: Tier::Exact,
            ..FunnelConfig::default()
        },
    ))
}

/// A server over `n` one-worker shards with the suite's fast timeouts.
fn start_server(n_shards: usize, cfg: ServerConfig) -> (Server, Vec<Arc<Funnel>>) {
    let shards: Vec<Arc<Funnel>> = (0..n_shards)
        .map(|_| {
            funnel_with(EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            })
        })
        .collect();
    let server = Server::start(shards.clone(), featurizer(), cfg).expect("bind http server");
    (server, shards)
}

fn connect(server: &Server) -> TcpStream {
    TcpStream::connect(server.addr()).expect("connect to server")
}

fn score_body(i: usize) -> Vec<u8> {
    serde_json::to_string(&fixture().templates[i])
        .expect("group serializes")
        .into_bytes()
}

fn post_score(conn: &mut TcpStream, i: usize) -> HttpResponse {
    http_request(
        conn,
        "POST",
        "/v1/score",
        &[("Content-Type", "application/json")],
        Some(&score_body(i)),
    )
    .expect("score request answered")
}

/// Assert a response the server wrote without a parsed request (edge
/// 503, parse reject) still carries a server-minted `X-Request-Id`.
fn assert_minted_request_id(resp: &HttpResponse) {
    assert!(
        resp.header("x-request-id").is_some_and(|id| !id.is_empty()),
        "{} response carries no X-Request-Id",
        resp.status
    );
}

/// Assert a 200 score body is bit-for-bit the oracle's scores; hands back
/// the decoded body for further checks.
fn assert_bit_exact(resp: &HttpResponse, i: usize) -> od_http::wire::ScoreResponse {
    assert_eq!(
        resp.status,
        200,
        "body: {:?}",
        String::from_utf8_lossy(&resp.body)
    );
    let wire: od_http::wire::ScoreResponse =
        serde_json::from_str(std::str::from_utf8(&resp.body).expect("score response is utf-8"))
            .expect("score response decodes");
    let expect = &fixture().oracle[i];
    assert_eq!(wire.scores.len(), expect.len());
    for (got, want) in wire.scores.iter().zip(expect) {
        assert_eq!(
            got.0.to_bits(),
            want.0.to_bits(),
            "origin score drifted on the wire"
        );
        assert_eq!(
            got.1.to_bits(),
            want.1.to_bits(),
            "dest score drifted on the wire"
        );
    }
    wire
}

/// Scrape `/metrics` over `conn` and return the exposition text.
fn scrape(conn: &mut TcpStream) -> String {
    let resp = http_request(conn, "GET", "/metrics", &[], None).expect("metrics answered");
    assert_eq!(resp.status, 200);
    String::from_utf8(resp.body).expect("exposition is utf-8")
}

/// The integer sample of the one series line starting with `series`.
fn sample(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("{series} missing from /metrics"))
}

// ---- End-to-end happy path ---------------------------------------------

#[test]
fn one_keepalive_connection_serves_every_route_bit_exact() {
    let fix = fixture();
    let (server, _shards) = start_server(2, ServerConfig::default());
    let mut conn = connect(&server);

    // Every template group over the wire, all on one keep-alive
    // connection, every score bit-exact with the direct oracle and stamped
    // — body and headers — with the generation the shards loaded.
    let loaded = 0xF00D_u32.to_string();
    for i in 0..fix.templates.len() {
        let resp = post_score(&mut conn, i);
        let wire = assert_bit_exact(&resp, i);
        assert_eq!((wire.epoch, wire.checksum), (0, 0xF00D));
        assert_eq!(resp.header("x-artifact-epoch"), Some("0"));
        assert_eq!(resp.header("x-artifact-checksum"), Some(loaded.as_str()));
        assert_minted_request_id(&resp);
    }

    // The full funnel on the same connection: ranked pairs carry both
    // version stamps and the rank key is the artifact's serving blend.
    let user = fix.templates[0].user.0 as u64;
    let ask = format!("{{\"user\":{user},\"k\":4}}");
    let resp = http_request(
        &mut conn,
        "POST",
        "/v1/recommend",
        &[],
        Some(ask.as_bytes()),
    )
    .expect("recommend answered");
    assert_eq!(
        resp.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&resp.body)
    );
    let rec: od_http::wire::RecommendResponse =
        serde_json::from_str(std::str::from_utf8(&resp.body).expect("recommend response is utf-8"))
            .expect("recommend response decodes");
    assert_eq!(rec.pairs.len(), 4);
    // Both funnel stages agree on the loaded generation.
    for stamp in [&rec.retrieved_by, &rec.ranked_by] {
        assert_eq!((stamp.epoch, stamp.checksum), (0, 0xF00D));
    }
    assert_eq!(resp.header("x-artifact-checksum"), Some(loaded.as_str()));
    for p in &rec.pairs {
        assert_ne!(p.origin, p.dest);
        assert_eq!(
            p.rank_score.to_bits(),
            fix.model.serving_score(p.p_origin, p.p_dest).to_bits()
        );
    }

    // Readiness and exposition ride the same connection too. A probe
    // with a query string is routed *and counted* as healthz.
    const HEALTHZ: &str = "od_http_requests_total{route=\"healthz\"}";
    let before = sample(&scrape(&mut conn), HEALTHZ);
    for path in ["/healthz", "/healthz?probe=1", "/healthz?probe=2"] {
        let health = http_request(&mut conn, "GET", path, &[], None).expect("healthz");
        assert_eq!(health.status, 200);
        assert_eq!(health.body, b"ok\n");
    }
    let text = scrape(&mut conn);
    assert!(
        sample(&text, HEALTHZ) >= before + 3,
        "a healthz probe with a query was not counted under route=\"healthz\""
    );
    for series in [
        "od_http_requests_total",
        "od_http_responses_total",
        "od_http_active_connections",
        "od_http_e2e_ns",
        "od_engine_",
    ] {
        assert!(text.contains(series), "{series} missing from /metrics");
    }

    let report = server.shutdown();
    assert!(report.clean, "fault-free drain must settle cleanly");
    assert_eq!(report.drain_rejected, 0);
}

// ---- Typed rejects over the wire ---------------------------------------

#[test]
fn malformed_requests_get_typed_statuses_not_hangs() {
    let (server, _shards) = start_server(
        1,
        ServerConfig {
            max_body_bytes: 2 * 1024,
            ..ServerConfig::default()
        },
    );

    // Every typed reject echoes the client's X-Request-Id — the handle
    // that ties a failure on the wire to its trace.
    let mut seq = 0;
    let mut ask = |conn: &mut TcpStream, method: &str, path: &str, body: Option<&[u8]>| {
        seq += 1;
        let rid = format!("ladder-{seq}");
        let resp = http_request(conn, method, path, &[("X-Request-Id", &rid)], body)
            .expect("typed reject answered");
        assert_eq!(
            resp.header("x-request-id"),
            Some(rid.as_str()),
            "{method} {path} did not echo the request id"
        );
        resp
    };

    // Routing errors keep the connection alive.
    let mut conn = connect(&server);
    let resp = ask(&mut conn, "GET", "/nope", None);
    assert_eq!(resp.status, 404);
    let resp = ask(&mut conn, "DELETE", "/v1/score", None);
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("POST"));
    let resp = ask(&mut conn, "POST", "/healthz", None);
    assert_eq!(resp.header("allow"), Some("GET"));

    // `/debug/traces` is as strict about values as about keys — a typo'd
    // filter is a 400 naming the key, not the whole ring unfiltered.
    for (query, names) in [
        ("foo=1", "foo"),
        ("min_ms=10ms", "min_ms"),
        ("limit=ten", "limit"),
        ("min_ms=", "min_ms"),
    ] {
        let resp = ask(&mut conn, "GET", &format!("/debug/traces?{query}"), None);
        assert_eq!(resp.status, 400, "?{query}");
        let body = String::from_utf8_lossy(&resp.body).into_owned();
        assert!(body.contains(names), "?{query} answered {body}");
    }

    // Semantic garbage in a well-formed envelope: 400, still keep-alive.
    let resp = ask(&mut conn, "POST", "/v1/score", Some(b"not json"));
    assert_eq!(resp.status, 400);
    let resp = ask(&mut conn, "POST", "/v1/score", Some(&[0xff, 0xfe, 0x80]));
    assert_eq!(resp.status, 400);
    let resp = ask(
        &mut conn,
        "POST",
        "/v1/recommend",
        Some(b"{\"user\":1,\"k\":0}"),
    );
    assert_eq!(resp.status, 400);
    let out_of_universe = format!(
        "{{\"user\":{},\"k\":3}}",
        fixture().model.num_users() as u64 + 7
    );
    let resp = ask(
        &mut conn,
        "POST",
        "/v1/recommend",
        Some(out_of_universe.as_bytes()),
    );
    assert_eq!(
        resp.status, 400,
        "out-of-universe user must 400, not panic the retriever"
    );

    // A field given twice is a typed 400 naming it — not first-wins, which
    // would score a different user than most JSON readers see — and the
    // connection serves on.
    let mut group = fixture().templates[1].clone();
    group.candidates.truncate(1);
    let body = serde_json::to_string(&group).expect("group serializes");
    let twice_user = body.replacen('{', "{\"user\":0,", 1);
    for (path, body) in [
        ("/v1/score", twice_user.as_str()),
        ("/v1/recommend", "{\"user\":1,\"k\":3,\"user\":2}"),
    ] {
        let resp = ask(&mut conn, "POST", path, Some(body.as_bytes()));
        assert_eq!(resp.status, 400, "{path} with a repeated key");
        let text = String::from_utf8_lossy(&resp.body).into_owned();
        assert!(text.contains("duplicate field `user`"), "{path}: {text}");
        let resp = ask(&mut conn, "GET", "/healthz", None);
        assert_eq!(resp.status, 200, "{path}: connection did not serve on");
    }

    // An absurd `k` is clamped to the pairs that exist: a 200 carrying all
    // of them — not an allocation the size of the ask, which used to panic
    // the connection thread or abort the process — and the same keep-alive
    // connection serves the next request.
    let n = fixture().model.num_cities();
    for k in ["18446744073709551615", "1000000000000"] {
        let body = format!("{{\"user\":0,\"k\":{k}}}");
        let resp = ask(&mut conn, "POST", "/v1/recommend", Some(body.as_bytes()));
        assert_eq!(resp.status, 200, "k = {k}");
        let rec: od_http::wire::RecommendResponse =
            serde_json::from_str(std::str::from_utf8(&resp.body).expect("utf-8"))
                .expect("recommend response decodes");
        assert_eq!(rec.pairs.len(), n * (n - 1), "k = {k}");
        let resp = ask(&mut conn, "GET", "/healthz", None);
        assert_eq!(resp.status, 200);
    }
    assert_eq!(
        sample(&scrape(&mut conn), "od_http_connection_panics_total"),
        0
    );

    // Wire-level violations answer typed and close. Fresh connection per
    // case since the server hangs up after each.
    let cases: &[(&[u8], u16)] = &[
        (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
        (b"GET\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nHost: a\nb: c\r\n\r\n", 400),
        (
            b"POST /v1/score HTTP/1.1\r\ncontent-length: 4\r\ntransfer-encoding: chunked\r\n\r\n",
            400,
        ),
        (
            b"POST /v1/score HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n",
            413,
        ),
    ];
    for (bytes, want) in cases {
        let mut conn = connect(&server);
        conn.write_all(bytes).expect("write raw request");
        conn.flush().expect("flush raw request");
        let resp = read_http_response(&mut conn).expect("typed reject answered");
        assert_eq!(
            resp.status,
            *want,
            "for {:?}",
            String::from_utf8_lossy(bytes)
        );
        // No request was parsed, so there is no client id to echo: the
        // reject still carries a server-minted one.
        assert_minted_request_id(&resp);
        // The server closes after a parse reject: the next read is EOF.
        let mut rest = Vec::new();
        let _ = conn.read_to_end(&mut rest);
        assert!(rest.is_empty(), "no stray bytes after a closing reject");
    }

    // A single oversized header line: 431 and close.
    let mut conn = connect(&server);
    let mut big = b"GET /healthz HTTP/1.1\r\nx-padding: ".to_vec();
    big.extend(std::iter::repeat_n(b'a', 10 * 1024));
    big.extend_from_slice(b"\r\n\r\n");
    conn.write_all(&big).expect("write oversized head");
    let resp = read_http_response(&mut conn).expect("431 answered");
    assert_eq!(resp.status, 431);
    assert_minted_request_id(&resp);

    server.shutdown();
}

// ---- Deadlines and backpressure ----------------------------------------

#[test]
fn deadline_propagates_to_504_and_full_queue_to_429() {
    // No workers and a one-slot queue: the first request parks, the
    // second is refused at admission.
    let shard = funnel_with(EngineConfig {
        workers: 0,
        queue_capacity: 1,
        ..EngineConfig::default()
    });
    let server = Server::start(
        vec![shard],
        featurizer(),
        ServerConfig {
            drain_grace: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .expect("bind http server");

    // X-Deadline-Ms rides into the engine: nobody will ever score this,
    // so the deadline is the only thing that unparks the connection.
    let mut conn = connect(&server);
    let begin = Instant::now();
    let resp = http_request(
        &mut conn,
        "POST",
        "/v1/score",
        &[("X-Deadline-Ms", "50")],
        Some(&score_body(0)),
    )
    .expect("504 answered");
    assert_eq!(resp.status, 504);
    assert!(
        begin.elapsed() < Duration::from_secs(5),
        "the deadline, not a socket timeout, must resolve the wait"
    );

    // The expired request still occupies the one queue slot: admission
    // backpressure is a retryable 429 with Retry-After.
    let resp = post_score(&mut conn, 1);
    assert_eq!(resp.status, 429);
    assert_eq!(resp.header("retry-after"), Some("1"));

    // Drain force-resolves the parked ticket within the grace window and
    // reports it — nothing hangs, the accounting reconciles.
    let report = server.shutdown();
    assert!(
        report.clean,
        "force-drain must settle the zero-worker shard"
    );
    assert_eq!(report.drain_rejected, 1);
}

#[test]
fn connections_past_the_cap_get_an_immediate_edge_503() {
    let (server, _shards) = start_server(
        1,
        ServerConfig {
            max_connections: 1,
            conn_workers: 1,
            ..ServerConfig::default()
        },
    );

    // Occupy the single admitted slot (and prove it is admitted).
    let mut first = connect(&server);
    let resp = http_request(&mut first, "GET", "/healthz", &[], None).expect("first admitted");
    assert_eq!(resp.status, 200);

    // Every connection past the cap is answered 503 by the *acceptor* —
    // no worker is free, so only the edge could have written this.
    for _ in 0..3 {
        let mut flood = connect(&server);
        let resp = read_http_response(&mut flood).expect("edge 503 answered");
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        // Written before any request byte is read, so the id is minted.
        assert_minted_request_id(&resp);
    }

    // The admitted connection is unaffected by the flood.
    let resp = post_score(&mut first, 0);
    assert_bit_exact(&resp, 0);
    server.shutdown();
}

// ---- Hostile clients ----------------------------------------------------

#[test]
fn slow_loris_gets_408_and_half_open_gets_silent_close() {
    let (server, _shards) = start_server(
        1,
        ServerConfig {
            header_timeout: Duration::from_millis(300),
            read_slice: Duration::from_millis(20),
            ..ServerConfig::default()
        },
    );

    // A writer that sends a partial request line and stalls: typed 408.
    let mut loris = connect(&server);
    loris.write_all(b"GET /heal").expect("partial write");
    loris.flush().expect("flush partial");
    let resp = read_http_response(&mut loris).expect("408 answered");
    assert_eq!(resp.status, 408);

    // A half-open connection that never sends a byte: closed silently —
    // EOF, not a status line (there is no request to answer).
    let mut half_open = connect(&server);
    half_open
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set client read timeout");
    let mut buf = Vec::new();
    let n = half_open
        .read_to_end(&mut buf)
        .expect("server closes idle conn");
    assert_eq!(n, 0, "idle half-open close must not fabricate a response");

    // The server is fully healthy afterwards.
    let mut conn = connect(&server);
    let resp = post_score(&mut conn, 0);
    assert_bit_exact(&resp, 0);
    server.shutdown();
}

#[test]
fn byte_at_a_time_writer_is_parsed_and_scored_exactly() {
    let (server, _shards) = start_server(1, ServerConfig::default());
    let body = score_body(0);
    let head = format!(
        "POST /v1/score HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut wire = head.into_bytes();
    wire.extend_from_slice(&body);

    let mut conn = connect(&server);
    conn.set_nodelay(true).expect("nodelay");
    for b in &wire {
        conn.write_all(std::slice::from_ref(b))
            .expect("single-byte write");
        conn.flush().expect("flush single byte");
    }
    let resp = read_http_response(&mut conn).expect("dripped request answered");
    assert_bit_exact(&resp, 0);
    server.shutdown();
}

#[test]
fn mid_body_disconnect_leaves_the_server_serving() {
    let (server, _shards) = start_server(
        1,
        ServerConfig {
            body_timeout: Duration::from_millis(300),
            read_slice: Duration::from_millis(20),
            ..ServerConfig::default()
        },
    );

    // Declare 100 body bytes, send 10, vanish.
    {
        let mut ghost = connect(&server);
        ghost
            .write_all(b"POST /v1/score HTTP/1.1\r\nContent-Length: 100\r\n\r\n0123456789")
            .expect("partial body write");
        ghost.flush().expect("flush partial body");
        // Dropping the stream sends FIN mid-body.
    }
    // And one that declares a body then stalls forever (body-phase loris).
    let mut stall = connect(&server);
    stall
        .write_all(b"POST /v1/score HTTP/1.1\r\nContent-Length: 100\r\n\r\nabc")
        .expect("stalling body write");
    stall.flush().expect("flush stalling body");

    // Neither hostile client wedges a worker: fresh requests keep
    // scoring bit-exact.
    let mut conn = connect(&server);
    for i in 0..3 {
        let resp = post_score(&mut conn, i % fixture().templates.len());
        assert_bit_exact(&resp, i % fixture().templates.len());
    }
    // The body-phase loris got its typed 408 within the body window.
    let resp = read_http_response(&mut stall).expect("body-phase 408 answered");
    assert_eq!(resp.status, 408);
    server.shutdown();
}

#[test]
fn keepalive_reuses_reset_the_per_request_deadline() {
    let (server, _shards) = start_server(
        1,
        ServerConfig {
            header_timeout: Duration::from_millis(500),
            read_slice: Duration::from_millis(20),
            ..ServerConfig::default()
        },
    );
    let mut conn = connect(&server);

    // Three requests, each after an idle gap of ~80% of the header
    // window. Cumulative elapsed time far exceeds the window, so an
    // implementation that armed one deadline per *connection* instead of
    // per *request* would have hung up mid-sequence.
    for round in 0..3 {
        std::thread::sleep(Duration::from_millis(400));
        let resp = http_request(&mut conn, "GET", "/healthz", &[], None)
            .unwrap_or_else(|e| panic!("keep-alive round {round} not answered: {e}"));
        assert_eq!(resp.status, 200);
    }
    server.shutdown();
}

// ---- The headline: concurrent load + injected faults --------------------

/// A fail point that panics when draining the batches with the given
/// (per-engine) sequence numbers.
fn panic_at_batches(seqs: &'static [u64]) -> FailPoint {
    Arc::new(move |site, seq| {
        if site == FailSite::BeforeBatch && seqs.contains(&seq) {
            panic!("injected chaos fault at batch {seq}");
        }
    })
}

#[test]
fn no_request_is_lost_under_load_with_injected_panics_and_hostile_peers() {
    let fix = fixture();
    // Two shards, each rigged to panic its worker at batches 1 and 3;
    // the supervisor respawns, the poisoned batches answer typed 500s.
    let shards: Vec<Arc<Funnel>> = (0..2)
        .map(|_| {
            funnel_with(EngineConfig {
                workers: 2,
                fail_point: Some(panic_at_batches(&[1, 3])),
                ..EngineConfig::default()
            })
        })
        .collect();
    let server = Server::start(
        shards.clone(),
        featurizer(),
        ServerConfig {
            conn_workers: 8,
            max_connections: 32,
            ..ServerConfig::default()
        },
    )
    .expect("bind http server");
    let addr = server.addr();

    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 40;
    let answered_200 = AtomicU64::new(0);
    let answered_500 = AtomicU64::new(0);
    let retries_429 = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);
    let rid_mismatches = AtomicU64::new(0);
    let unexpected = AtomicU64::new(0);
    let stop_hostile = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Hostile peers stirring the pot while the load runs: slow-loris
        // partial writers and mid-body disconnectors on their own
        // connections. Edge 503s (cap racing) are fine; what matters is
        // they never affect the well-behaved clients below.
        s.spawn(|| {
            while !stop_hostile.load(Ordering::Relaxed) {
                if let Ok(mut c) = TcpStream::connect(addr) {
                    let _ = c.write_all(b"POST /v1/score HTTP/1.1\r\nContent-Le");
                    let _ = c.flush();
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        s.spawn(|| {
            while !stop_hostile.load(Ordering::Relaxed) {
                if let Ok(mut c) = TcpStream::connect(addr) {
                    let _ =
                        c.write_all(b"POST /v1/score HTTP/1.1\r\nContent-Length: 64\r\n\r\nhalf");
                    let _ = c.flush();
                    drop(c); // FIN mid-body
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });

        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let answered_200 = &answered_200;
                let answered_500 = &answered_500;
                let retries_429 = &retries_429;
                let mismatches = &mismatches;
                let rid_mismatches = &rid_mismatches;
                let unexpected = &unexpected;
                s.spawn(move || {
                    let mut conn = TcpStream::connect(addr).expect("client connects");
                    for n in 0..PER_CLIENT {
                        let i = (c + n) % fix.templates.len();
                        // Client-chosen id, unique per request: every
                        // response — 200, 429 or 500 — must echo its own.
                        let rid = format!("load-{c}-{n}");
                        loop {
                            let resp = http_request(
                                &mut conn,
                                "POST",
                                "/v1/score",
                                &[("X-Request-Id", &rid)],
                                Some(&score_body(i)),
                            )
                            .expect("closed-loop client must always get a response");
                            if resp.header("x-request-id") != Some(rid.as_str()) {
                                rid_mismatches.fetch_add(1, Ordering::Relaxed);
                            }
                            match resp.status {
                                200 => {
                                    let wire: od_http::wire::ScoreResponse = serde_json::from_str(
                                        std::str::from_utf8(&resp.body).expect("200 body is utf-8"),
                                    )
                                    .expect("200 body decodes");
                                    let exact = wire.scores.len() == fix.oracle[i].len()
                                        && wire.scores.iter().zip(&fix.oracle[i]).all(|(g, w)| {
                                            g.0.to_bits() == w.0.to_bits()
                                                && g.1.to_bits() == w.1.to_bits()
                                        });
                                    if !exact {
                                        mismatches.fetch_add(1, Ordering::Relaxed);
                                    }
                                    answered_200.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                500 => {
                                    // A poisoned batch: typed, final, the
                                    // connection stays usable.
                                    answered_500.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                429 => {
                                    retries_429.fetch_add(1, Ordering::Relaxed);
                                    std::thread::yield_now();
                                }
                                _ => {
                                    unexpected.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("load client must not panic");
        }
        stop_hostile.store(true, Ordering::Relaxed);
    });

    // Zero lost responses: every submitted request resolved, as 200 or a
    // typed failure — and nothing else.
    let total = answered_200.load(Ordering::Relaxed) + answered_500.load(Ordering::Relaxed);
    assert_eq!(
        total,
        (CLIENTS * PER_CLIENT) as u64,
        "requests went unanswered"
    );
    assert_eq!(
        unexpected.load(Ordering::Relaxed),
        0,
        "untyped response observed"
    );
    assert_eq!(
        mismatches.load(Ordering::Relaxed),
        0,
        "wire scores drifted from oracle"
    );
    assert_eq!(
        rid_mismatches.load(Ordering::Relaxed),
        0,
        "a response under load carried another request's X-Request-Id (or none)"
    );

    // The faults actually fired, and the wire's 500s reconcile exactly
    // with the engines' own accounting of poisoned requests.
    let mut worker_panics = 0;
    let mut panicked_requests = 0;
    for shard in &shards {
        let h = shard.engine().stats();
        worker_panics += h.worker_panics;
        panicked_requests += h.panicked_requests;
        assert_eq!(
            h.live_workers, h.configured_workers,
            "supervisor must have healed every injected panic"
        );
    }
    assert!(worker_panics >= 1, "the injected fail points never fired");
    assert_eq!(
        answered_500.load(Ordering::Relaxed),
        panicked_requests,
        "every poisoned request must surface as exactly one 500"
    );

    let report = server.shutdown();
    assert!(report.clean, "post-load drain must settle");
    assert_eq!(report.drain_rejected, 0);
}

// ---- Graceful drain ------------------------------------------------------

/// A fail point that blocks batch 0 at `BeforeBatch` until released,
/// signalling entry.
struct Gate {
    entered: AtomicBool,
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            entered: AtomicBool::new(false),
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn fail_point(self: &Arc<Gate>) -> FailPoint {
        let gate = Arc::clone(self);
        Arc::new(move |site, seq| {
            if site == FailSite::BeforeBatch && seq == 0 {
                gate.entered.store(true, Ordering::SeqCst);
                let mut open = gate.open.lock().unwrap();
                while !*open {
                    open = gate.cv.wait(open).unwrap();
                }
            }
        })
    }

    fn wait_entered(&self) {
        let start = Instant::now();
        while !self.entered.load(Ordering::SeqCst) {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "worker never drained batch 0"
            );
            std::thread::yield_now();
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

#[test]
fn graceful_drain_answers_in_flight_requests_before_the_listener_closes() {
    let gate = Gate::new();
    let shard = funnel_with(EngineConfig {
        workers: 1,
        max_batch: 1,
        fail_point: Some(gate.fail_point()),
        ..EngineConfig::default()
    });
    let server = Server::start(vec![shard], featurizer(), ServerConfig::default())
        .expect("bind http server");
    let addr = server.addr();

    // An in-flight request: the engine worker is holding its batch at
    // the gate, the connection thread is parked on the ticket.
    let in_flight = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).expect("in-flight client connects");
        post_score(&mut conn, 0)
    });
    gate.wait_entered();

    // Begin the drain while that request is mid-batch. shutdown() blocks
    // until every in-flight response is written, so it runs on its own
    // thread.
    let drainer = std::thread::spawn(move || server.shutdown());

    // Give the acceptor a moment to observe the flag and exit; from then
    // on new connections are refused outright (or answered 503 if they
    // win the race with the acceptor's last accept).
    let refused_deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match TcpStream::connect(addr) {
            Err(_) => break, // listener closed: the drain stopped accepting
            Ok(mut c) => {
                match read_http_response(&mut c) {
                    Ok(resp) => assert_eq!(resp.status, 503, "mid-drain accept must be NOT-READY"),
                    Err(_) => break, // accepted by the OS backlog, never served: closed
                }
            }
        }
        assert!(
            Instant::now() < refused_deadline,
            "drain never stopped accepting connections"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The gated batch is still unanswered; release it. The drain must
    // deliver the full response before the server finishes closing.
    gate.release();
    let resp = in_flight.join().expect("in-flight client must not panic");
    assert_bit_exact(&resp, 0);

    let report = drainer.join().expect("shutdown must not panic");
    assert!(report.clean, "in-flight work resolved: the drain is clean");
    assert_eq!(report.drain_rejected, 0);
}

// ---- Tracing --------------------------------------------------------------

#[test]
fn gated_slow_request_is_tail_captured_with_its_span_chain_and_exports_to_chrome() {
    // The tracer is process-global and this is the one test that turns it
    // on: a 40 ms floor with no 1/N keeps, so only slow traffic is kept.
    od_obs::trace::global().enable(od_obs::trace::TraceConfig {
        slow_ns: 40_000_000,
        sample_every: 0,
    });
    let gate = Gate::new();
    let shard = funnel_with(EngineConfig {
        workers: 1,
        fail_point: Some(gate.fail_point()),
        ..EngineConfig::default()
    });
    let server = Server::start(vec![shard], featurizer(), ServerConfig::default())
        .expect("bind http server");
    let addr = server.addr();

    // The worker holds the request's batch at the gate past the slow
    // floor; the client is parked on a real socket meanwhile.
    let user = fixture().templates[0].user.0;
    let slow = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).expect("slow client connects");
        let ask = format!("{{\"user\":{user},\"k\":5}}");
        let resp = http_request(
            &mut conn,
            "POST",
            "/v1/recommend",
            &[("X-Request-Id", "gated-slow-1")],
            Some(ask.as_bytes()),
        )
        .expect("slow request answered");
        (conn, resp)
    });
    gate.wait_entered();
    std::thread::sleep(Duration::from_millis(60));
    gate.release();
    let (mut conn, resp) = slow.join().expect("slow client must not panic");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-request-id"), Some("gated-slow-1"));

    // Same connection, so the root span closed before this is parsed.
    let json_of = |conn: &mut TcpStream, path: &str| -> serde_json::Value {
        let resp = http_request(conn, "GET", path, &[], None).expect("traces answered");
        assert_eq!(resp.status, 200, "{path}");
        serde_json::from_str(std::str::from_utf8(&resp.body).expect("utf-8"))
            .unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"))
    };
    let doc = json_of(&mut conn, "/debug/traces?min_ms=40");
    fn str_of<'a>(v: &'a serde_json::Value, key: &str) -> Option<&'a str> {
        v.get(key)?.as_str()
    }
    let captured = doc
        .get("traces")
        .and_then(|t| t.as_seq())
        .expect("traces array")
        .iter()
        .find(|t| str_of(t, "request_id") == Some("gated-slow-1"))
        .expect("the gated request was not tail-captured");
    let spans = captured
        .get("spans")
        .and_then(|s| s.as_seq())
        .expect("captured spans");
    let names: Vec<&str> = spans.iter().filter_map(|s| str_of(s, "name")).collect();
    for want in [
        "request",
        "parse",
        "admission",
        "queue_wait",
        "forward",
        "retrieval",
        "encode",
        "write",
    ] {
        assert!(
            names.contains(&want),
            "span chain missing {want:?}: {names:?}"
        );
    }
    // The gate held batch 0 of the construction-time generation.
    let forward = spans
        .iter()
        .find(|s| str_of(s, "name") == Some("forward"))
        .expect("forward span");
    for attr in ["batch", "epoch"] {
        assert_eq!(
            forward.get(attr).and_then(|v| v.as_f64()),
            Some(0.0),
            "forward span lost {attr:?}: {forward:?}"
        );
    }

    let chrome = json_of(&mut conn, "/debug/traces?min_ms=40&format=chrome");
    assert_eq!(str_of(&chrome, "displayTimeUnit"), Some("ns"));
    assert!(
        chrome
            .get("traceEvents")
            .and_then(|e| e.as_seq())
            .is_some_and(|events| events.len() >= names.len()),
        "Chrome export carries fewer events than the trace has spans"
    );

    // A request's clock starts at its first byte, not at the keep-alive
    // idle wait before it: keep every trace, pause 300 ms before a second
    // request on this connection, and its root span must not hold the
    // pause.
    od_obs::trace::global().enable(od_obs::trace::TraceConfig {
        slow_ns: 40_000_000,
        sample_every: 1,
    });
    std::thread::sleep(Duration::from_millis(300));
    let after = [("X-Request-Id", "after-a-pause")];
    let resp = http_request(&mut conn, "GET", "/healthz", &after, None).expect("answered");
    assert_eq!(resp.status, 200);
    let doc = json_of(&mut conn, "/debug/traces");
    let traces = doc.get("traces").and_then(|t| t.as_seq());
    let root_ns = traces
        .expect("traces array")
        .iter()
        .find(|t| str_of(t, "request_id") == Some("after-a-pause"))
        .and_then(|t| t.get("dur_ns")?.as_f64())
        .expect("the request after the pause was not captured");
    assert!(root_ns < 100e6, "root span of {root_ns} ns holds the pause");

    drop(conn);
    assert!(server.shutdown().clean);
}
