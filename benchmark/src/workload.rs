//! The four wire workloads: seeded request streams, the closed-loop
//! driver, response verification, and the hot-swap publisher.
//!
//! All four are closed loops over [`CONNECTIONS`] keep-alive
//! connections (callers that each wait for their reply), one generator
//! thread per connection.

use crate::client::{recommend_request, relax, score_request, Conn, Reply, REPLY_TIMEOUT};
use crate::fixture::Stack;
use crate::os::{process_cpu_ns, thread_cpu_ns};
use crate::stats::percentile;
use od_hsg::UserId;
use od_http::wire::{RecommendResponse, ScoreResponse};
use od_retrieval::Tier;
use od_serve::load_frozen_auto;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client connections (and generator threads).
pub const CONNECTIONS: usize = 2;
/// Contexts in the `/v1/score` request pool.
pub const SCORE_POOL: usize = 32;
/// Every `KEEP_EVERY`-th `/v1/recommend` body is kept and compared
/// field-for-field with an in-process `Funnel::recommend` afterwards.
pub const KEEP_EVERY: u64 = 64;
/// Publish period of the swap workload. A publish occupies the server's
/// core for ≈3 ms and delays the ≈8 requests that overlap it, so at this
/// period ≈0.3 % of requests meet one: `p99_us` stays in the undisturbed
/// population (and jumps if publishes start to disturb more than 1 %),
/// while the cold page tables of each new generation — ≈10 000 requests
/// to re-fault — keep every round partly cold. Faster periods were
/// tried: at 500, 250 and 100 ms `p99_us` sat near, on or inside the
/// edge of the disturbed population and its run-to-run spread was 23 %,
/// 31 % and 27 %: too noisy to gate on.
pub const SWAP_EVERY: Duration = Duration::from_millis(1000);

/// A traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `POST /v1/recommend {user,k:64}` — the product path.
    RecommendK64,
    /// `POST /v1/recommend {user,k:8}` — fixed per-request cost dominates.
    RecommendK8,
    /// `POST /v1/score` with 64-candidate client-built groups.
    ScoreK64,
    /// `RecommendK64` beside a publisher hot-swapping the artifact.
    RecommendK64Swap,
}

impl Workload {
    /// Every workload, in ledger order.
    pub const ALL: [Workload; 4] = [
        Workload::RecommendK64,
        Workload::RecommendK8,
        Workload::ScoreK64,
        Workload::RecommendK64Swap,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RecommendK64 => "recommend_k64",
            Workload::RecommendK8 => "recommend_k8",
            Workload::ScoreK64 => "score_k64",
            Workload::RecommendK64Swap => "recommend_k64_swap",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Candidates per request.
    pub fn k(self) -> usize {
        match self {
            Workload::RecommendK8 => 8,
            _ => 64,
        }
    }

    fn swaps(self) -> bool {
        self == Workload::RecommendK64Swap
    }
}

/// SplitMix64: the seeded stream every input is drawn from.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Stream for `(seed, lane)`; lanes are independent.
    pub fn new(seed: u64, lane: u64) -> SplitMix64 {
        let mut s = SplitMix64(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next();
        s
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

/// One request of a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// `/v1/recommend` for this user.
    Recommend {
        /// Uniform over the whole artifact universe.
        user: u32,
        /// Pairs asked for.
        k: usize,
    },
    /// `/v1/score` with pool context `pool`.
    Score {
        /// Index into the score pool.
        pool: usize,
    },
}

/// The request sequence of one connection: a pure function of
/// `(workload, seed, connection, universe)`.
pub struct RequestStream {
    workload: Workload,
    rng: SplitMix64,
    users: u64,
    next_pool: usize,
}

impl RequestStream {
    /// Stream of connection `conn`.
    pub fn new(workload: Workload, seed: u64, conn: usize, users: usize) -> RequestStream {
        RequestStream {
            workload,
            rng: SplitMix64::new(seed, conn as u64 + 1),
            users: users as u64,
            // Connections walk the pool half a lap apart, so they rarely
            // ask for the same context at the same moment.
            next_pool: conn * SCORE_POOL / CONNECTIONS,
        }
    }

    /// The next request.
    pub fn next(&mut self) -> Request {
        match self.workload {
            Workload::ScoreK64 => {
                let pool = self.next_pool % SCORE_POOL;
                self.next_pool += 1;
                Request::Score { pool }
            }
            w => Request::Recommend {
                user: self.rng.below(self.users) as u32,
                k: w.k(),
            },
        }
    }
}

/// FNV-1a over the first `n` requests of every connection's stream.
pub fn stream_hash(workload: Workload, seed: u64, users: usize, n: usize) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for conn in 0..CONNECTIONS {
        let mut stream = RequestStream::new(workload, seed, conn, users);
        for _ in 0..n {
            let word = match stream.next() {
                Request::Recommend { user, k } => (user as u64) << 8 | k as u64,
                Request::Score { pool } => 1 << 63 | pool as u64,
            };
            for b in word.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

/// Seed-derived inputs a workload needs beyond the stream itself.
pub struct Inputs {
    /// Encoded `/v1/score` requests, one per pool context.
    score_requests: Vec<Vec<u8>>,
    /// Expected 200 bodies for them (at publish epoch 0).
    score_bodies: Vec<Vec<u8>>,
    /// Expected scores, for when only the text differs.
    score_expected: Vec<Vec<(f32, f32)>>,
}

impl Inputs {
    /// Build the inputs of `workload` (the score pool: [`SCORE_POOL`]
    /// seeded users, each with its exact top-64 pairs featurized the way
    /// the server would, scored in-process for the oracle).
    pub fn prepare(workload: Workload, seed: u64, stack: &Stack) -> Inputs {
        let mut inputs = Inputs {
            score_requests: Vec::new(),
            score_bodies: Vec::new(),
            score_expected: Vec::new(),
        };
        if workload != Workload::ScoreK64 {
            return inputs;
        }
        for group in score_pool(seed, stack) {
            let expected = stack.model.score_group(&group);
            inputs.score_requests.push(score_request(&group));
            let body = serde_json::to_string(&ScoreResponse {
                scores: expected.clone(),
                epoch: 0,
                checksum: stack.checksum,
            })
            .expect("ScoreResponse serializes");
            inputs.score_bodies.push(body.into_bytes());
            inputs.score_expected.push(expected);
        }
        inputs
    }
}

/// The `/v1/score` contexts for `seed`.
pub fn score_pool(seed: u64, stack: &Stack) -> Vec<odnet_core::GroupInput> {
    let mut rng = SplitMix64::new(seed, 0);
    (0..SCORE_POOL)
        .map(|_| {
            let user = UserId(rng.below(stack.model.num_users() as u64) as u32);
            let pairs = stack.retriever.top_k(user, 64, Tier::Exact).pairs;
            (stack.featurizer)(user, &pairs)
        })
        .collect()
}

/// `rank_score`s of a `/v1/recommend` body, scanned without building a
/// JSON tree (the generator shares the server's cores; a full parse per
/// response would cost more than the request). `None` if the scan finds
/// anything but numbers after the keys.
fn rank_scores(body: &str) -> Option<Vec<f32>> {
    const KEY: &str = "\"rank_score\":";
    body.match_indices(KEY)
        .map(|(at, _)| {
            let rest = &body[at + KEY.len()..];
            let end = rest.find([',', '}'])?;
            rest[..end].trim().parse::<f32>().ok()
        })
        .collect()
}

/// Per-connection response checker.
struct Checker<'a> {
    inputs: &'a Inputs,
    swaps: bool,
    checksum: u32,
    last_epoch: u64,
    seen: u64,
    kept: Vec<(u32, usize, Vec<u8>)>,
    complaints: u32,
}

impl Checker<'_> {
    fn complain(&mut self, what: std::fmt::Arguments<'_>) -> bool {
        if self.complaints < 3 {
            eprintln!("verification failure: {what}");
        }
        self.complaints += 1;
        false
    }

    /// Whether `reply` is a correct answer to `request`. A non-200
    /// (a 429 included) is a failure: the workloads are sized so that no
    /// operation is refused.
    fn check(&mut self, request: Request, reply: &Reply<'_>) -> bool {
        if reply.status != 200 {
            return self.complain(format_args!("{request:?}: status {}", reply.status));
        }
        let Some(epoch) = reply.epoch else {
            return self.complain(format_args!("{request:?}: no X-Artifact-Epoch"));
        };
        // One connection is served by one connection worker, and publish
        // epochs are strictly monotone, so a connection must never see
        // the ranking generation go backwards.
        if epoch < self.last_epoch || (!self.swaps && epoch != 0) {
            let last = self.last_epoch;
            return self.complain(format_args!("{request:?}: epoch {epoch} after {last}"));
        }
        self.last_epoch = epoch;
        self.seen += 1;
        match request {
            Request::Score { pool } => {
                if reply.body == self.inputs.score_bodies[pool] {
                    return true;
                }
                // Same numbers in different text would still be right.
                let parsed = std::str::from_utf8(reply.body)
                    .ok()
                    .and_then(|s| serde_json::from_str::<ScoreResponse>(s).ok());
                let exact = parsed.is_some_and(|r| {
                    r.checksum == self.checksum
                        && r.scores.len() == self.inputs.score_expected[pool].len()
                        && r.scores.iter().zip(&self.inputs.score_expected[pool]).all(
                            |(got, want)| {
                                got.0.to_bits() == want.0.to_bits()
                                    && got.1.to_bits() == want.1.to_bits()
                            },
                        )
                });
                exact || self.complain(format_args!("score pool {pool}: scores differ"))
            }
            Request::Recommend { user, k } => {
                let scores = std::str::from_utf8(reply.body).ok().and_then(rank_scores);
                let ordered =
                    scores.is_some_and(|s| s.len() == k && s.windows(2).all(|w| w[0] >= w[1]));
                if !ordered {
                    return self.complain(format_args!(
                        "user {user}: not {k} pairs in descending rank_score"
                    ));
                }
                if self.seen.is_multiple_of(KEEP_EVERY) {
                    self.kept.push((user, k, reply.body.to_vec()));
                }
                true
            }
        }
    }
}

/// Compare kept `/v1/recommend` bodies field-for-field against the
/// in-process funnel (bit-identical artifact content across publishes
/// keeps this oracle valid under swap). Returns the mismatch count.
fn verify_kept(stack: &Stack, kept: &[(u32, usize, Vec<u8>)]) -> u64 {
    let mut bad = 0;
    for (user, k, body) in kept {
        let user = UserId(*user);
        let wire = std::str::from_utf8(body)
            .ok()
            .and_then(|s| serde_json::from_str::<RecommendResponse>(s).ok());
        let oracle = stack
            .funnel
            .recommend(user, *k, |pairs| (stack.featurizer)(user, pairs));
        let same = match (wire, oracle) {
            (Some(wire), Ok(oracle)) => {
                wire.retrieved_by.checksum == stack.checksum
                    && wire.ranked_by.checksum == stack.checksum
                    && wire.pairs.len() == oracle.pairs.len()
                    && wire.pairs.iter().zip(&oracle.pairs).all(|(w, o)| {
                        w.origin == o.origin.0
                            && w.dest == o.dest.0
                            && w.retrieval_score.to_bits() == o.retrieval_score.to_bits()
                            && w.p_origin.to_bits() == o.p_origin.to_bits()
                            && w.p_dest.to_bits() == o.p_dest.to_bits()
                            && w.rank_score.to_bits() == o.rank_score.to_bits()
                    })
            }
            _ => false,
        };
        if !same {
            if bad < 3 {
                eprintln!(
                    "verification failure: user {} differs from the in-process funnel",
                    user.0
                );
            }
            bad += 1;
        }
    }
    bad
}

/// What the generator thread brings back.
struct Generated {
    /// `(round, latency_ns)` per verified response, rounds by send time.
    samples: Vec<(u32, u32)>,
    /// Generator-thread CPU at the start of each round, then at the end
    /// (it spins, so this is wall time; subtracted from process CPU).
    cpu_marks: Vec<u64>,
    /// Time the generator spent encoding, sending and verifying — its
    /// useful work, as opposed to polling.
    busy_ns: u64,
    attempted: u64,
    failed: u64,
    kept: Vec<(u32, usize, Vec<u8>)>,
}

/// How long a closed loop runs.
#[derive(Clone, Copy)]
pub enum RunLength {
    /// `rounds` rounds of `round` each, starting at a shared instant.
    Rounds {
        /// Number of rounds.
        rounds: usize,
        /// Length of one round.
        round: Duration,
    },
    /// A fixed number of requests per connection (set-up traffic: its
    /// *time* is part of `setup_s`, so it must be work-sized, not
    /// time-sized).
    Requests(u64),
}

/// One connection of the closed loop.
struct Lane<'a> {
    conn: Option<Conn>,
    stream: RequestStream,
    checker: Checker<'a>,
    /// The request in flight: what, when sent, in which round.
    waiting: Option<(Request, Instant, u32)>,
    sent: u64,
}

/// The load generator: one busy-polling thread multiplexing every
/// connection (two spinning threads on one generator core would only
/// preempt each other). Each connection is its own closed loop: its next
/// request goes out as soon as its previous response has been verified.
fn generator(
    stack: &Stack,
    inputs: &Inputs,
    workload: Workload,
    seed: u64,
    start: Instant,
    length: RunLength,
) -> Generated {
    let (rounds, round_ns, max_requests) = match length {
        RunLength::Rounds { rounds, round } => (rounds as u64, round.as_nanos() as u64, u64::MAX),
        RunLength::Requests(n) => (1, u64::MAX, n),
    };
    stack.cpus.enter_generator();
    let users = stack.model.num_users();
    let mut lanes: Vec<Lane<'_>> = (0..CONNECTIONS)
        .map(|c| Lane {
            conn: Conn::connect(stack.addr).ok(),
            stream: RequestStream::new(workload, seed, c, users),
            checker: Checker {
                inputs,
                swaps: workload.swaps(),
                checksum: stack.checksum,
                last_epoch: 0,
                seen: 0,
                kept: Vec::new(),
                complaints: 0,
            },
            waiting: None,
            sent: 0,
        })
        .collect();
    let mut out = Generated {
        samples: Vec::with_capacity(1 << 16),
        cpu_marks: Vec::with_capacity(rounds as usize + 1),
        busy_ns: 0,
        attempted: 0,
        failed: 0,
        kept: Vec::new(),
    };
    let mut wire = Vec::with_capacity(256);
    while Instant::now() < start {
        relax();
    }
    loop {
        let round_now = ((Instant::now() - start).as_nanos() as u64 / round_ns).min(rounds);
        while out.cpu_marks.len() as u64 <= round_now {
            out.cpu_marks.push(thread_cpu_ns());
        }
        let mut in_flight = false;
        for lane in &mut lanes {
            let now = Instant::now();
            match lane.waiting {
                None => {
                    let round = (now - start).as_nanos() as u64 / round_ns;
                    if round >= rounds || lane.sent >= max_requests {
                        continue;
                    }
                    let request = lane.stream.next();
                    let bytes: &[u8] = match request {
                        Request::Recommend { user, k } => {
                            recommend_request(&mut wire, user, k);
                            &wire
                        }
                        Request::Score { pool } => &inputs.score_requests[pool],
                    };
                    lane.sent += 1;
                    out.attempted += 1;
                    let sent = Instant::now();
                    let ok = lane.conn.as_mut().is_some_and(|c| c.send(bytes).is_ok());
                    if ok {
                        lane.waiting = Some((request, sent, round as u32));
                    } else {
                        lane.conn = Conn::connect(stack.addr).ok();
                        lane.checker
                            .complain(format_args!("{request:?}: send failed"));
                        out.failed += 1;
                    }
                    out.busy_ns += now.elapsed().as_nanos() as u64;
                    in_flight = true;
                }
                Some((request, sent, round)) => {
                    in_flight = true;
                    let conn = lane.conn.as_mut().expect("a request is in flight on it");
                    let verdict = match conn.poll_reply() {
                        Ok(None) if sent.elapsed() < REPLY_TIMEOUT => continue,
                        Ok(Some(reply)) => {
                            let lat = sent.elapsed().as_nanos().min(u32::MAX as u128) as u32;
                            Some((lane.checker.check(request, &reply), lat))
                        }
                        // Framing error, dead or hung connection.
                        _ => None,
                    };
                    lane.waiting = None;
                    match verdict {
                        Some((true, lat)) => out.samples.push((round, lat)),
                        Some((false, _)) => out.failed += 1,
                        None => {
                            lane.conn = Conn::connect(stack.addr).ok();
                            lane.checker
                                .complain(format_args!("{request:?}: connection failed"));
                            out.failed += 1;
                        }
                    }
                    out.busy_ns += now.elapsed().as_nanos() as u64;
                }
            }
        }
        if !in_flight {
            break;
        }
        relax();
    }
    while out.cpu_marks.len() as u64 <= rounds {
        out.cpu_marks.push(thread_cpu_ns());
    }
    for lane in lanes {
        out.kept.extend(lane.checker.kept);
    }
    out
}

/// The publisher of the swap workload: every [`SWAP_EVERY`] re-map the
/// same `.odz` and publish it as a new generation.
fn publisher(stack: &Stack, artifact: &Path, start: Instant, stop: &AtomicBool) -> (Vec<f64>, u64) {
    let mut publish_ms = Vec::new();
    let mut failed = 0;
    for tick in 1u32.. {
        std::thread::sleep((start + SWAP_EVERY * tick).saturating_duration_since(Instant::now()));
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let t = Instant::now();
        let published = load_frozen_auto(artifact)
            .map_err(|e| e.to_string())
            .and_then(|loaded| {
                stack
                    .funnel
                    .publish(Arc::new(loaded.frozen), loaded.checksum)
                    .map_err(|e| format!("{e:?}"))
            });
        match published {
            Ok(_) => publish_ms.push(t.elapsed().as_secs_f64() * 1e3),
            Err(e) => {
                eprintln!("publish failed: {e}");
                failed += 1;
            }
        }
    }
    (publish_ms, failed)
}

/// Rounds whose pooled samples the end-to-end metrics are computed over.
pub const QUIET_ROUNDS: usize = 3;

/// Everything one closed-loop phase measured.
#[derive(Default)]
pub struct Measured {
    /// Requests sent.
    pub attempted: u64,
    /// Non-200, framing error, or verification mismatch (kept-body
    /// mismatches and failed publishes included).
    pub failed: u64,
    /// Verified 200-responses.
    pub completed: u64,
    /// Per round: verified 200-responses per second.
    pub round_rps: Vec<f64>,
    /// Per round: median client write → full response, µs.
    pub round_p50_us: Vec<f64>,
    /// Per round: process CPU minus the generator thread's own CPU, per
    /// completed request, µs.
    pub round_cpu_us_per_req: Vec<f64>,
    /// The [`QUIET_ROUNDS`] rounds with the highest throughput.
    pub quiet: Vec<usize>,
    /// Over the quiet rounds: verified 200-responses per second.
    pub rps: f64,
    /// Over the quiet rounds' pooled samples: median latency, µs.
    pub p50_us: f64,
    /// Over the quiet rounds: server CPU per completed request, µs.
    pub cpu_us_per_req: f64,
    /// Over every sample of the window: 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Generator time spent encoding, sending and verifying per completed
    /// request, µs (whole phase; the rest of its core is polling).
    pub client_busy_us_per_req: f64,
    /// Wall time of each publish, ms.
    pub publish_ms: Vec<f64>,
}

/// Run `workload` closed-loop against `stack` for `length`, verify every
/// response, and (for rounds) compute the per-round series and the
/// quiet-round metrics.
pub fn run_closed(
    stack: &Stack,
    artifact: &Path,
    inputs: &Inputs,
    workload: Workload,
    seed: u64,
    length: RunLength,
) -> Measured {
    let start = Instant::now() + Duration::from_millis(20);
    let stop = AtomicBool::new(false);
    let mut proc_marks = Vec::new();
    let (generated, published) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| generator(stack, inputs, workload, seed, start, length));
        let swapper = (workload.swaps() && matches!(length, RunLength::Rounds { .. }))
            .then(|| scope.spawn(|| publisher(stack, artifact, start, &stop)));
        if let RunLength::Rounds { rounds, round } = length {
            for r in 0..=rounds as u32 {
                std::thread::sleep((start + round * r).saturating_duration_since(Instant::now()));
                proc_marks.push(process_cpu_ns());
            }
        }
        let generated = generator.join().expect("generator thread panicked");
        stop.store(true, Ordering::SeqCst);
        let published = swapper.map(|h| h.join().expect("publisher thread panicked"));
        (generated, published)
    });

    let mut m = Measured {
        attempted: generated.attempted,
        failed: generated.failed + verify_kept(stack, &generated.kept),
        completed: generated.samples.len() as u64,
        ..Measured::default()
    };
    if let Some((publish_ms, failed)) = published {
        m.publish_ms = publish_ms;
        m.failed += failed;
    }
    m.client_busy_us_per_req = generated.busy_ns as f64 / 1e3 / m.completed.max(1) as f64;

    if let RunLength::Rounds { rounds, round } = length {
        let mut by_round: Vec<Vec<u64>> = vec![Vec::new(); rounds];
        for &(r, lat) in &generated.samples {
            by_round[r as usize].push(lat as u64);
        }
        let mut server_ns = Vec::with_capacity(rounds);
        for (r, lat) in by_round.iter_mut().enumerate() {
            lat.sort_unstable();
            let generator = generated.cpu_marks[r + 1] - generated.cpu_marks[r];
            server_ns.push((proc_marks[r + 1] - proc_marks[r]).saturating_sub(generator));
            // A round nothing completed in reads as zero throughput; every
            // request of it has already been counted as failed.
            let n = lat.len().max(1) as f64;
            m.round_rps.push(lat.len() as f64 / round.as_secs_f64());
            m.round_p50_us
                .push(lat.get(lat.len() / 2).map_or(0.0, |&ns| ns as f64 / 1e3));
            m.round_cpu_us_per_req.push(server_ns[r] as f64 / 1e3 / n);
        }
        // The quietest rounds: noise on a shared box only ever takes
        // throughput away, so the rounds that kept the most of it are the
        // ones that say most about the program.
        let mut order: Vec<usize> = (0..rounds).collect();
        order.sort_by(|&a, &b| m.round_rps[b].total_cmp(&m.round_rps[a]));
        m.quiet = order[..QUIET_ROUNDS.min(rounds)].to_vec();
        let mut pooled: Vec<u64> = m
            .quiet
            .iter()
            .flat_map(|&r| by_round[r].iter().copied())
            .collect();
        let mut all: Vec<u64> = by_round.concat();
        if !pooled.is_empty() {
            pooled.sort_unstable();
            all.sort_unstable();
            let quiet_cpu: u64 = m.quiet.iter().map(|&r| server_ns[r]).sum();
            m.rps = pooled.len() as f64 / (round.as_secs_f64() * m.quiet.len() as f64);
            m.p50_us = percentile(&pooled, 0.50) as f64 / 1e3;
            m.cpu_us_per_req = quiet_cpu as f64 / 1e3 / pooled.len() as f64;
            m.p99_us = percentile(&all, 0.99) as f64 / 1e3;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            assert_eq!(
                stream_hash(w, 7, 2_600_000, 500),
                stream_hash(w, 7, 2_600_000, 500),
                "{}",
                w.name()
            );
        }
        assert_ne!(
            stream_hash(Workload::RecommendK64, 7, 2_600_000, 500),
            stream_hash(Workload::RecommendK64, 8, 2_600_000, 500)
        );
        assert_ne!(
            stream_hash(Workload::RecommendK64, 7, 2_600_000, 500),
            stream_hash(Workload::RecommendK8, 7, 2_600_000, 500)
        );
    }

    #[test]
    fn streams_stay_inside_their_universe_and_differ_per_connection() {
        let mut a = RequestStream::new(Workload::RecommendK8, 3, 0, 1000);
        let mut b = RequestStream::new(Workload::RecommendK8, 3, 1, 1000);
        let mut same = 0;
        for _ in 0..2000 {
            let (Request::Recommend { user: ua, k }, Request::Recommend { user: ub, .. }) =
                (a.next(), b.next())
            else {
                panic!("recommend workload yields recommend requests");
            };
            assert_eq!(k, 8);
            assert!(ua < 1000 && ub < 1000);
            same += u32::from(ua == ub);
        }
        assert!(same < 20, "connections share a stream ({same} collisions)");

        let mut s = RequestStream::new(Workload::ScoreK64, 3, 1, 1000);
        let first: Vec<Request> = (0..SCORE_POOL + 1).map(|_| s.next()).collect();
        assert_eq!(
            first[0],
            Request::Score {
                pool: SCORE_POOL / 2
            }
        );
        assert_eq!(first[SCORE_POOL], first[0]);
    }

    #[test]
    fn rank_score_scan_reads_every_pair() {
        let body = r#"{"pairs":[{"origin":1,"dest":2,"retrieval_score":0.5,"p_origin":0.1,"p_dest":0.2,"rank_score":0.75},{"origin":3,"dest":4,"retrieval_score":0.4,"p_origin":0.1,"p_dest":0.2,"rank_score":2.5e-1}],"retrieved_by":{"epoch":0,"checksum":9},"ranked_by":{"epoch":0,"checksum":9}}"#;
        assert_eq!(rank_scores(body), Some(vec![0.75, 0.25]));
        assert_eq!(rank_scores("{\"pairs\":[]}"), Some(vec![]));
        assert_eq!(rank_scores("{\"rank_score\":oops}"), None);
    }
}
