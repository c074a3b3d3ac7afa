//! The per-layer pass: a single-threaded diagnostic run after the
//! end-to-end phase. Each request kind (`k64`, `k8`, `score`) replays
//! `Scale::layer_requests` seeded requests with every layer call wrapped in a harness span,
//! then the same requests cross the real socket on one connection, and
//! the layers are reconciled against that wire round trip:
//!
//! ```text
//! wire_rtt   = parse + decode + funnel|engine_rtt + encode + unattributed
//! funnel     = retrieval + featurize + engine_rtt + funnel_self
//! engine_rtt = forward + engine_overhead
//! ```
//!
//! Reported values are medians over the requests of a pass.

use crate::alloc;
use crate::client::{open_loop, recommend_request, score_request, Conn};
use crate::fixture::{Stack, ENGINE_WORKERS};
use crate::spans::SpanLog;
use crate::stats::{median, median_u64, percentile};
use crate::workload::{score_pool, SplitMix64};
use od_hsg::UserId;
use od_http::wire::{RecommendRequest, RecommendResponse, ScoreResponse, WirePair};
use od_http::{parse_request, ConnReader, Limits, ServerConfig};
use od_retrieval::Tier;
use od_serve::{
    load_frozen, load_frozen_auto, ArtifactMode, Engine, EngineConfig, Funnel, FunnelConfig, Submit,
};
use od_tensor::{infer, simd, SimdLevel, Workspace};
use odnet_core::GroupInput;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Arrival rate of the open-loop phase, requests per second.
pub const OPEN_RATE: u64 = 2000;
/// Requests per block when a wire pass alternates a switch on and off.
const AB_BLOCK: usize = 100;

/// Named results, in reporting order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Append one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("metric {name} not recorded yet"))
            .1
    }
}

fn us(ns: &[u64]) -> f64 {
    median_u64(ns) / 1e3
}

/// `unattributed = wire_rtt − Σ layers` (sockets, acceptor → worker →
/// engine hand-offs, head formatting, wake-ups). Layers measured in
/// isolation may exceed the wire round trip by noise, never by more
/// than a tenth of it: beyond that the budget does not describe the
/// request and the pass fails.
pub fn reconcile(wire_rtt_us: f64, layers_us: &[f64]) -> Result<f64, String> {
    let sum: f64 = layers_us.iter().sum();
    if sum > wire_rtt_us * 1.10 {
        return Err(format!(
            "layers sum to {sum:.1} µs but the wire round trip is {wire_rtt_us:.1} µs"
        ));
    }
    Ok(wire_rtt_us - sum)
}

fn engine_roundtrip(engine: &Engine, group: GroupInput) -> Result<Vec<(f32, f32)>, String> {
    match engine.submit(group) {
        Submit::Accepted(ticket) => ticket.wait().map_err(|e| e.to_string()),
        Submit::Rejected(_) => Err("engine rejected a diagnostic request".into()),
        Submit::Invalid { error, .. } => Err(format!("invalid diagnostic group: {error:?}")),
    }
}

/// `parse_request` with the server's own limits, over in-memory bytes.
struct WireParser {
    limits: Limits,
    header_timeout: Duration,
    body_timeout: Duration,
    abort: AtomicBool,
}

impl WireParser {
    fn new() -> WireParser {
        let cfg = ServerConfig::default();
        WireParser {
            limits: Limits {
                max_header_bytes: cfg.max_header_bytes,
                max_body_bytes: cfg.max_body_bytes,
            },
            header_timeout: cfg.header_timeout,
            body_timeout: cfg.body_timeout,
            abort: AtomicBool::new(false),
        }
    }

    fn parse(&self, wire: &[u8]) -> Result<od_http::ParsedRequest, String> {
        parse_request(
            &mut ConnReader::new(wire),
            &self.limits,
            self.header_timeout,
            self.body_timeout,
            &self.abort,
        )
        .map_err(|e| format!("parse_request: {e:?}"))
    }
}

/// Allocations made inside each layer's calls, summed over a pass.
#[derive(Default)]
struct AllocTally {
    forward: u64,
    featurize: u64,
    retrieval: u64,
    encode: u64,
    funnel: u64,
}

/// One `/v1/recommend` kind: layer spans for `layer_requests` seeded users.
fn recommend_layers(
    stack: &Stack,
    seed: u64,
    k: usize,
    log: &mut SpanLog,
    m: &mut Metrics,
) -> Result<Vec<Vec<u8>>, String> {
    let sfx = format!("k{k}");
    let mut rng = SplitMix64::new(seed, 100 + k as u64);
    let users = stack.model.num_users() as u64;
    let engine = stack.funnel.engine();
    let parser = WireParser::new();
    let mut ws = Workspace::new();
    let mut scores = Vec::new();
    let mut requests = Vec::with_capacity(stack.layer_requests);
    let mut tally = AllocTally::default();
    let (mut scanned_exact, mut scanned_pruned) = (0u64, 0u64);
    let mut stage_ns: [Vec<u64>; 3] = Default::default();

    for i in 0..stack.layer_requests as u32 {
        let user = UserId(rng.below(users) as u32);
        let mut wire = Vec::new();
        recommend_request(&mut wire, user.0, k);

        // The request path, layer by layer, as the connection worker
        // runs it.
        let root = log.open(i, 0, "request");
        let parsed = log.time(i, root, "http.parse", || parser.parse(&wire)).1?;
        let ask = log
            .time(i, root, "http.decode", || {
                std::str::from_utf8(&parsed.body)
                    .ok()
                    .and_then(|s| serde_json::from_str::<RecommendRequest>(s).ok())
            })
            .1
            .ok_or("recommend body does not decode")?;
        let funnel_span = log.open(i, root, "serve.funnel");
        let a0 = alloc::allocs();
        let rec = stack
            .funnel
            .recommend(UserId(ask.user as u32), ask.k, |pairs| {
                let a = alloc::allocs();
                let group = log
                    .time(i, funnel_span, "core.featurize", || {
                        (stack.featurizer)(user, pairs)
                    })
                    .1;
                tally.featurize += alloc::allocs() - a;
                group
            })
            .map_err(|e| e.to_string())?;
        log.close(funnel_span);
        tally.funnel += alloc::allocs() - a0;
        // The retrieval stages were timed inside `top_k`; lay them out
        // from the funnel's start, where retrieval runs.
        let mut at = log.spans()[funnel_span as usize - 1].start_ns;
        for (slot, (name, ns)) in rec.retrieval.stages().into_iter().enumerate() {
            let name = match name {
                "route" => "retrieval.route",
                "scan" => "retrieval.scan",
                _ => "retrieval.select",
            };
            log.record(i, funnel_span, name, at, at + ns);
            at += ns;
            stage_ns[slot].push(ns);
        }
        let a = alloc::allocs();
        log.time(i, root, "http.encode", || {
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
            std::hint::black_box(serde_json::to_string(&body).expect("response serializes"));
        });
        tally.encode += alloc::allocs() - a;
        log.close(root);

        // The same request's layers in isolation.
        let iso = log.open(i, 0, "isolated");
        let exact = log
            .time(i, iso, "retrieval.exact", || {
                stack.retriever.top_k(user, k, Tier::Exact)
            })
            .1;
        let a = alloc::allocs();
        let pruned = log
            .time(i, iso, "retrieval.pruned", || {
                stack.retriever.top_k(user, k, Tier::Pruned)
            })
            .1;
        tally.retrieval += alloc::allocs() - a;
        scanned_exact += exact.stats.scanned;
        scanned_pruned += pruned.stats.scanned;
        let group = (stack.featurizer)(user, &pruned.pairs);
        if k == 64 {
            log.time(i, iso, "core.validate", || {
                std::hint::black_box(stack.model.validate_group(&group).is_ok())
            });
            let one = (stack.featurizer)(user, &pruned.pairs[..1]);
            log.time(i, iso, "core.forward_k1", || {
                stack.model.score_group_into(&mut ws, &one, &mut scores)
            });
        }
        let a = alloc::allocs();
        log.time(i, iso, "core.forward", || {
            stack.model.score_group_into(&mut ws, &group, &mut scores)
        });
        tally.forward += alloc::allocs() - a;
        log.time(i, iso, "serve.engine_rtt", || {
            engine_roundtrip(engine, group)
        })
        .1?;
        log.close(iso);
        requests.push(wire);
    }

    m.put(
        format!("http.parse_{sfx}_us"),
        us(&log.durations("http.parse")),
        "us",
    );
    m.put(
        format!("http.decode_{sfx}_us"),
        us(&log.durations("http.decode")),
        "us",
    );
    m.put(
        format!("http.encode_{sfx}_us"),
        us(&log.durations("http.encode")),
        "us",
    );
    m.put(
        format!("serve.funnel_{sfx}_us"),
        us(&log.durations("serve.funnel")),
        "us",
    );
    // Self time of the funnel span leaves the engine round trip it waits
    // on inside; the sibling measurement on the same group takes it out.
    let funnel_self: Vec<f64> = log
        .self_times("serve.funnel")
        .iter()
        .zip(log.durations("serve.engine_rtt"))
        .map(|(&own, rtt)| (own as f64 - rtt as f64) / 1e3)
        .collect();
    m.put(
        format!("serve.funnel_self_{sfx}_us"),
        median(&funnel_self),
        "us",
    );
    let engine_rtt = us(&log.durations("serve.engine_rtt"));
    let forward = us(&log.durations("core.forward"));
    m.put(format!("serve.engine_rtt_{sfx}_us"), engine_rtt, "us");
    m.put(
        format!("serve.engine_overhead_{sfx}_us"),
        engine_rtt - forward,
        "us",
    );
    m.put(
        format!("retrieval.exact_{sfx}_us"),
        us(&log.durations("retrieval.exact")),
        "us",
    );
    m.put(
        format!("retrieval.pruned_{sfx}_us"),
        us(&log.durations("retrieval.pruned")),
        "us",
    );
    m.put(
        format!("core.featurize_{sfx}_us"),
        us(&log.durations("core.featurize")),
        "us",
    );
    m.put(format!("core.forward_{sfx}_us"), forward, "us");
    if k == 64 {
        let n = stack.layer_requests as f64;
        let k1 = us(&log.durations("core.forward_k1"));
        m.put(
            "core.validate_k64_us",
            us(&log.durations("core.validate")),
            "us",
        );
        m.put("core.forward_k1_us", k1, "us");
        // Marginal cost of one more candidate: what is left of a forward
        // is the candidate-invariant share (trunk, user/LBS rows).
        m.put("core.forward_per_cand_us", (forward - k1) / 63.0, "us");
        m.put(
            "retrieval.scanned_exact_k64",
            scanned_exact as f64 / n,
            "count",
        );
        m.put(
            "retrieval.scanned_pruned_k64",
            scanned_pruned as f64 / n,
            "count",
        );
        m.put("retrieval.route_us", us(&stage_ns[0]), "us");
        m.put("retrieval.scan_us", us(&stage_ns[1]), "us");
        m.put("retrieval.select_us", us(&stage_ns[2]), "us");
        m.put("forward.allocs_per_req", tally.forward as f64 / n, "count");
        m.put(
            "featurize.allocs_per_req",
            tally.featurize as f64 / n,
            "count",
        );
        m.put(
            "retrieval.allocs_per_req",
            tally.retrieval as f64 / n,
            "count",
        );
        m.put("encode.allocs_per_req", tally.encode as f64 / n, "count");
        m.put("funnel.allocs_per_req", tally.funnel as f64 / n, "count");
    }
    Ok(requests)
}

/// The `/v1/score` kind: decode → engine → encode, no funnel, so no
/// retrieval or featurize span may appear.
fn score_layers(
    stack: &Stack,
    pool: &[GroupInput],
    log: &mut SpanLog,
    m: &mut Metrics,
) -> Result<Vec<Vec<u8>>, String> {
    let engine = stack.funnel.engine();
    let wires: Vec<Vec<u8>> = pool.iter().map(score_request).collect();
    let parser = WireParser::new();
    let mut ws = Workspace::new();
    let mut scores = Vec::new();
    for i in 0..stack.layer_requests as u32 {
        let wire = &wires[i as usize % wires.len()];
        let root = log.open(i, 0, "request");
        let parsed = log.time(i, root, "http.parse", || parser.parse(wire)).1?;
        let group = log
            .time(i, root, "http.decode", || {
                std::str::from_utf8(&parsed.body)
                    .ok()
                    .and_then(|s| serde_json::from_str::<GroupInput>(s).ok())
            })
            .1
            .ok_or("score body does not decode")?;
        let version = engine.version();
        let scored = log
            .time(i, root, "serve.engine_rtt", || {
                engine_roundtrip(engine, group)
            })
            .1?;
        log.time(i, root, "http.encode", || {
            let body = ScoreResponse {
                scores: scored,
                epoch: version.epoch,
                checksum: version.checksum,
            };
            std::hint::black_box(serde_json::to_string(&body).expect("response serializes"));
        });
        log.close(root);
        log.time(i, 0, "core.forward", || {
            let g = &pool[i as usize % pool.len()];
            stack.model.score_group_into(&mut ws, g, &mut scores)
        });
    }
    let engine_rtt = us(&log.durations("serve.engine_rtt"));
    let forward = us(&log.durations("core.forward"));
    m.put(
        "http.parse_score_us",
        us(&log.durations("http.parse")),
        "us",
    );
    m.put(
        "http.decode_score_us",
        us(&log.durations("http.decode")),
        "us",
    );
    m.put(
        "http.encode_score_us",
        us(&log.durations("http.encode")),
        "us",
    );
    m.put("serve.engine_rtt_score_us", engine_rtt, "us");
    m.put("serve.engine_overhead_score_us", engine_rtt - forward, "us");
    m.put("core.forward_score_us", forward, "us");
    Ok(wires)
}

/// One connection, closed loop, over `requests`; `switch(on)` is flipped
/// every [`AB_BLOCK`] requests so both arms see the same machine drift.
/// With `spans`, every request of an "on" block also records a harness
/// span. Returns `(latencies while off, latencies while on)`.
fn wire_ab(
    stack: &Stack,
    requests: &[&[u8]],
    mut spans: Option<&mut SpanLog>,
    mut switch: impl FnMut(bool),
) -> Result<(Vec<u64>, Vec<u64>), String> {
    let mut conn = Conn::connect(stack.addr).map_err(|e| format!("connect: {e}"))?;
    let (mut off, mut on) = (Vec::new(), Vec::new());
    stack.cpus.enter_generator();
    for (block, chunk) in requests.chunks(AB_BLOCK).enumerate() {
        let is_on = block % 2 == 1;
        switch(is_on);
        for request in chunk {
            let t = Instant::now();
            let span_start = spans.as_ref().filter(|_| is_on).map(|log| log.now());
            let status = conn
                .roundtrip(request)
                .map_err(|e| format!("wire pass: {e}"))?
                .status;
            if let (Some(start), Some(log)) = (span_start, spans.as_mut()) {
                let end = log.now();
                log.record(0, 0, "client.wire_rtt", start, end);
            }
            let ns = t.elapsed().as_nanos() as u64;
            if status != 200 {
                return Err(format!("wire pass: status {status}"));
            }
            if is_on { &mut on } else { &mut off }.push(ns);
        }
    }
    switch(false);
    stack.cpus.enter_server();
    Ok((off, on))
}

/// Wire round trip of one kind with a harness span per request, and its
/// reconciliation against that kind's layers.
fn wire_layers(
    stack: &Stack,
    sfx: &str,
    requests: &[&[u8]],
    inner: &str,
    log: &mut SpanLog,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut conn = Conn::connect(stack.addr).map_err(|e| format!("connect: {e}"))?;
    let mut bytes = Vec::with_capacity(requests.len());
    // The client's side of the socket runs where the generator ran.
    stack.cpus.enter_generator();
    for (i, request) in requests.iter().enumerate() {
        let start = log.now();
        let reply = conn
            .roundtrip(request)
            .map_err(|e| format!("wire pass: {e}"))?;
        let (status, wire_bytes) = (reply.status, reply.wire_bytes);
        let end = log.now();
        if status != 200 {
            return Err(format!("wire pass: status {status}"));
        }
        log.record(i as u32, 0, "client.wire_rtt", start, end);
        bytes.push(wire_bytes as u64);
    }
    stack.cpus.enter_server();
    let wire_rtt = us(&log.durations("client.wire_rtt"));
    let layers = [
        m.get(&format!("http.parse_{sfx}_us")),
        m.get(&format!("http.decode_{sfx}_us")),
        m.get(&format!("{inner}_{sfx}_us")),
        m.get(&format!("http.encode_{sfx}_us")),
    ];
    let unattributed = reconcile(wire_rtt, &layers).map_err(|e| format!("{sfx}: {e}"))?;
    m.put(format!("http.wire_rtt_{sfx}_us"), wire_rtt, "us");
    m.put(format!("http.unattributed_{sfx}_us"), unattributed, "us");
    m.put(
        format!("http.resp_bytes_{sfx}"),
        median_u64(&bytes),
        "count",
    );
    Ok(())
}

/// Engine-only measurements on the score pool: the stage clock's cost
/// and what the coalescer does with a same-context burst.
fn engine_passes(stack: &Stack, pool: &[GroupInput], m: &mut Metrics) -> Result<(), String> {
    let timed = stack.funnel.engine();
    let untimed_funnel = Funnel::new(
        Arc::clone(&stack.model),
        stack.checksum,
        EngineConfig {
            workers: ENGINE_WORKERS,
            stage_timing: false,
            ..EngineConfig::default()
        },
        FunnelConfig::default(),
    );
    let untimed = untimed_funnel.engine();
    let (mut on, mut off) = (
        Vec::with_capacity(stack.layer_requests),
        Vec::with_capacity(stack.layer_requests),
    );
    for i in 0..stack.layer_requests {
        for (engine, sink) in [(timed, &mut on), (untimed, &mut off)] {
            let group = pool[i % pool.len()].clone();
            let t = Instant::now();
            engine_roundtrip(engine, group)?;
            sink.push(t.elapsed().as_nanos() as u64);
        }
    }
    m.put("obs.stage_timing_overhead_us", us(&on) - us(&off), "us");

    let before = timed.stats();
    let mut burst_ns = Vec::with_capacity(stack.layer_requests / 4);
    for i in 0..stack.layer_requests / 4 {
        let groups: Vec<GroupInput> = (0..4).map(|_| pool[i % pool.len()].clone()).collect();
        let t = Instant::now();
        let tickets: Vec<_> = groups.into_iter().map(|g| timed.submit(g)).collect();
        for ticket in tickets {
            match ticket {
                Submit::Accepted(ticket) => drop(ticket.wait().map_err(|e| e.to_string())?),
                _ => return Err("engine refused a burst request".into()),
            }
        }
        burst_ns.push(t.elapsed().as_nanos() as u64);
    }
    let after = timed.stats();
    m.put(
        "serve.burst4_requests_per_forward",
        (after.completed - before.completed) as f64 / (after.forwards - before.forwards) as f64,
        "count",
    );
    m.put("serve.burst4_us", us(&burst_ns), "us");
    Ok(())
}

/// The two od-tensor kernels the request path leans on, at the shapes it
/// uses them.
fn tensor_kernels(stack: &Stack, m: &mut Metrics) {
    let cfg = stack.model.config();
    let (rows, inner, cols) = (64, 2 * cfg.q_dim(), cfg.expert_dim);
    let fill = |n: usize| -> Vec<f32> { (0..n).map(|i| (i % 13) as f32 * 0.03 - 0.2).collect() };
    let (a, b) = (fill(rows * inner), fill(inner * cols));
    let mut out = vec![0.0f32; rows * cols];
    let mut ns = Vec::with_capacity(stack.layer_requests);
    for _ in 0..stack.layer_requests {
        let t = Instant::now();
        infer::matmul_into(std::hint::black_box(&a), rows, inner, &b, cols, &mut out);
        std::hint::black_box(&mut out);
        ns.push(t.elapsed().as_nanos() as u64);
    }
    let matmul_ns = median_u64(&ns);
    m.put("tensor.matmul_expert_us", matmul_ns / 1e3, "us");
    // Computed from the operand sizes (2·m·k·n floating-point operations
    // per call), not read from a hardware counter.
    m.put(
        "tensor.matmul_expert_gflops",
        (2 * rows * inner * cols) as f64 / matmul_ns,
        "gflop/s",
    );

    let (cities, dim) = (stack.model.num_cities(), cfg.embed_dim);
    let (query, table) = (fill(dim), fill(cities * dim));
    let mut scores = vec![0.0f32; cities];
    let level = SimdLevel::detect();
    ns.clear();
    for _ in 0..stack.layer_requests {
        let t = Instant::now();
        simd::table_scores(
            level,
            std::hint::black_box(&query),
            &table,
            dim,
            0.5,
            &mut scores,
        );
        std::hint::black_box(&mut scores);
        ns.push(t.elapsed().as_nanos() as u64);
    }
    m.put("tensor.table_scores_us", us(&ns), "us");
}

/// One ungated open-loop phase on `recommend_k64` traffic: a fixed
/// arrival schedule on one connection, latency taken from each request's
/// due time. A diagnostic — its tail swings between
/// identical runs — not a gate.
fn open_loop_phase(stack: &Stack, seed: u64, secs: f64, m: &mut Metrics) -> Result<u64, String> {
    let users = stack.model.num_users() as u64;
    let mut rng = SplitMix64::new(seed, 200);
    stack.cpus.enter_generator();
    let report = open_loop(
        stack.addr,
        Instant::now() + Duration::from_millis(20),
        Duration::from_nanos(1_000_000_000 / OPEN_RATE),
        Duration::from_secs_f64(secs),
        |_, out| recommend_request(out, rng.below(users) as u32, 64),
    );
    stack.cpus.enter_server();
    let report = report.map_err(|e| format!("open loop: {e}"))?;
    let (mut latency, mut late) = (report.latency_from_due_ns, report.late_ns);
    latency.sort_unstable();
    late.sort_unstable();
    m.put(
        "loadgen.open_p50_us",
        percentile(&latency, 0.50) as f64 / 1e3,
        "us",
    );
    m.put(
        "loadgen.open_p99_us",
        percentile(&latency, 0.99) as f64 / 1e3,
        "us",
    );
    m.put(
        "loadgen.open_late_p99_us",
        percentile(&late, 0.99) as f64 / 1e3,
        "us",
    );
    m.put(
        "loadgen.open_backlog_max",
        report.backlog_max as f64,
        "count",
    );
    Ok(report.failed)
}

/// What the per-layer pass leaves behind besides its metrics.
pub struct LayerPass {
    /// One span log per request kind, for `trace.json`.
    pub logs: Vec<(&'static str, SpanLog)>,
    /// Open-loop requests that did not come back `200`.
    pub open_failed: u64,
}

/// Run the whole per-layer pass.
pub fn run(
    stack: &Stack,
    artifact: &Path,
    seed: u64,
    open_secs: f64,
    idle_publishes: bool,
    m: &mut Metrics,
) -> Result<LayerPass, String> {
    let open_failed = open_loop_phase(stack, seed, open_secs, m)?;

    let t = Instant::now();
    drop(load_frozen(artifact, ArtifactMode::Bin).map_err(|e| format!("owned load: {e}"))?);
    m.put("core.load_owned_ms", t.elapsed().as_secs_f64() * 1e3, "ms");

    let mut scratch = SpanLog::new();
    let t = Instant::now();
    for i in 0..100_000u32 {
        scratch.record(i, 0, "overhead", i as u64, i as u64 + 1);
    }
    std::hint::black_box(scratch.spans().len());
    m.put(
        "loadgen.span_overhead_ns",
        t.elapsed().as_nanos() as f64 / 1e5,
        "ns",
    );
    drop(scratch);

    let pool = score_pool(seed, stack);
    let mut logs = Vec::new();
    alloc::set_counting(true);
    let mut k64_requests = Vec::new();
    for (kind, k) in [("k64", 64), ("k8", 8)] {
        let mut log = SpanLog::new();
        let requests = recommend_layers(stack, seed, k, &mut log, m)?;
        let views: Vec<&[u8]> = requests.iter().map(Vec::as_slice).collect();
        wire_layers(stack, kind, &views, "serve.funnel", &mut log, m)?;
        logs.push((kind, log));
        if k == 64 {
            k64_requests = requests;
        }
    }
    let mut log = SpanLog::new();
    let wires = score_layers(stack, &pool, &mut log, m)?;
    let views: Vec<&[u8]> = (0..stack.layer_requests)
        .map(|i| wires[i % wires.len()].as_slice())
        .collect();
    wire_layers(stack, "score", &views, "serve.engine_rtt", &mut log, m)?;
    let leaked = log
        .spans()
        .iter()
        .any(|s| s.name.starts_with("retrieval.") || s.name == "core.featurize");
    if leaked {
        return Err("a score request recorded a retrieval or featurize span".into());
    }
    logs.push(("score", log));
    alloc::set_counting(false);

    engine_passes(stack, &pool, m)?;
    tensor_kernels(stack, m);
    if idle_publishes {
        // Off the swap workload nothing published during the window;
        // time the publish path on the idle server instead.
        let mut ms = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            let loaded = load_frozen_auto(artifact).map_err(|e| format!("re-map: {e}"))?;
            stack
                .funnel
                .publish(Arc::new(loaded.frozen), loaded.checksum)
                .map_err(|e| format!("publish: {e:?}"))?;
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        m.put("serve.publish_ms", median(&ms), "ms");
    }

    // What a harness span per request costs the wire round trip.
    let k64: Vec<&[u8]> = k64_requests.iter().map(Vec::as_slice).collect();
    let (off, on) = wire_ab(stack, &k64, Some(&mut SpanLog::new()), |_| {})?;
    m.put("loadgen.trace_overhead_us", us(&on) - us(&off), "us");

    // Last, because it turns the program's own tracing on.
    let tracer = od_obs::trace::global();
    let (off, on) = wire_ab(stack, &k64, None, |is_on| {
        if is_on {
            tracer.enable(od_obs::trace::TraceConfig::default());
        } else {
            tracer.disable();
        }
    })?;
    m.put("obs.trace_overhead_us", us(&on) - us(&off), "us");
    Ok(LayerPass { logs, open_failed })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_and_remainder_sum_to_the_wire_round_trip() {
        let layers = [4.0, 1.5, 180.25, 21.0];
        let wire = 260.0;
        let unattributed = reconcile(wire, &layers).expect("within budget");
        let total: f64 = layers.iter().sum::<f64>() + unattributed;
        assert!((total - wire).abs() < 1e-9);
        assert!((unattributed - 53.25).abs() < 1e-9);
    }

    #[test]
    fn layers_may_exceed_the_wire_by_noise_but_not_by_a_tenth() {
        // 5 % over: tolerated, reported as a negative remainder.
        let r = reconcile(100.0, &[60.0, 45.0]).expect("noise is tolerated");
        assert!((r + 5.0).abs() < 1e-9);
        // 11 % over: the budget no longer describes the request.
        assert!(reconcile(100.0, &[60.0, 51.0]).is_err());
    }
}
