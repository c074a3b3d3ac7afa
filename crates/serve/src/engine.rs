//! The throughput engine: worker pool + bounded queue + micro-batcher,
//! under supervision.
//!
//! # Data flow
//!
//! ```text
//! callers ──submit()──► validate ──► bounded queue ──pop_up_to──► worker
//!    ▲                     │ bad ids?      │ full?                  │
//!    │   Submit::Invalid ◄─┘              │        drop expired,   │
//!    │      Submit::Rejected ◄────────────┘        coalesce, score │
//!    │                                             (catch_unwind)  │
//! callers ◄── oneshot Result ◄── scatter / typed error ◄───────────┘
//!                                                                  │ panic?
//!                  supervisor ◄── worker death ────────────────────┘
//!                      └── join + respawn, EngineStats counters
//! ```
//!
//! # Failure model (DESIGN.md §10)
//!
//! Every accepted request resolves exactly once, as
//! `Result<Vec<(f32, f32)>, ServeError>`: invalid inputs are refused at
//! admission ([`Submit::Invalid`]), backpressure hands the group back
//! ([`Submit::Rejected`]), expired deadlines are dropped at drain time,
//! and a worker panic mid-batch resolves the batch's unanswered tickets
//! with [`ServeError::WorkerPanicked`] while the supervisor thread joins
//! the corpse and respawns a replacement. [`Engine::stats`] exposes the
//! live-worker count and fault counters.
//!
//! # Why coalescing pays
//!
//! The frozen forward's cost is `trunk + n·per_candidate`: the user-side
//! trunk (PEC attention over the history sequences) is independent of the
//! candidate count, and the per-candidate head runs as one batched matmul
//! whose efficiency *grows* with `n` (PR 1 measured the batched path at
//! 8.7× the per-candidate oracle for n = 1 but only 2.3× at n = 64 — small
//! requests leave most of the batched win on the table). Concurrent
//! requests that share a context template (same user, day, and history
//! sequences — retries, pagination, parallel widgets of one session) can
//! therefore be merged into a single `FrozenOdNet` forward: one trunk
//! instead of `r`, and one `Σnᵢ`-row head matmul instead of `r` small ones.
//!
//! # Bit-identity
//!
//! A coalesced forward returns exactly the scores of the per-request
//! forwards: the trunk depends only on the (shared) context, each
//! candidate's `q` row is assembled independently, and every kernel in
//! `od_tensor::infer` accumulates each output element in an order that
//! does not depend on how many other rows are in the batch. The engine is
//! one more link in the live → batched → frozen oracle chain, asserted by
//! `tests/engine_equivalence.rs` and, on every wire response, by
//! `benchmark/run.sh` — and `tests/chaos.rs` asserts it *under injected
//! faults*: responses that survive a panic-riddled run are still
//! bit-identical to the oracle.

use crate::error::{PublishError, ServeError};
use crate::handle::{ArtifactVersion, ModelHandle, VersionSlot};
use crate::metrics::EngineMetrics;
use crate::oneshot;
use crate::queue::Queue;
use crate::sync;
use od_obs::trace::{self, TraceContext, NO_ATTRS};
use od_tensor::infer::Workspace;
use odnet_core::{FrozenOdNet, GroupInput, InvalidInput};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where a [`FailPoint`] hook fires relative to one worker batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailSite {
    /// After draining and expiring a batch, before any request is scored —
    /// a panic here faults the whole batch.
    BeforeBatch,
    /// After every request in the batch was answered — a panic here kills
    /// the worker without faulting any request.
    AfterBatch,
}

/// Fault-injection hook, called by every worker around every batch with
/// the site and the engine-global batch sequence number. Production
/// configs leave it `None`; the chaos tests use it to panic, stall, or
/// poison on chosen batches.
pub type FailPoint = Arc<dyn Fn(FailSite, u64) + Send + Sync>;

/// Tuning knobs of the [`Engine`].
#[derive(Clone)]
pub struct EngineConfig {
    /// Worker threads scoring requests. `0` is allowed for tests that need
    /// a queue nobody drains (e.g. deterministic backpressure).
    pub workers: usize,
    /// Bounded queue capacity; a full queue rejects instead of growing.
    pub queue_capacity: usize,
    /// Maximum requests a worker drains per wakeup (and therefore the
    /// largest possible coalesced batch).
    pub max_batch: usize,
    /// Merge same-context requests into one batched forward. Disabling
    /// this scores each request individually — the "before" side of the
    /// throughput benchmark.
    pub coalesce: bool,
    /// Optional fault-injection hook; `None` (the default) compiles the
    /// call sites down to a branch on a never-taken `Option`.
    pub fail_point: Option<FailPoint>,
    /// Record the per-request stage clock (validate, queue wait, coalesce,
    /// forward, scatter, end-to-end histograms). On by default — its cost
    /// is the `obs.stage_timing_overhead_us` metric of `BENCHMARK.json`.
    /// When off, each stage site is a single never-taken branch and no
    /// clock is read; the accounting counters stay on either way.
    pub stage_timing: bool,
    /// How long a generation retired by [`Engine::publish`] is kept alive
    /// before its memory is reclaimed. In-flight batches hold their own
    /// reference and are safe regardless; the grace period keeps the
    /// (possibly multi-GB) deallocation off the publisher's critical path
    /// and out of the swap window entirely.
    pub swap_grace: Duration,
}

impl fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineConfig")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("max_batch", &self.max_batch)
            .field("coalesce", &self.coalesce)
            .field("fail_point", &self.fail_point.as_ref().map(|_| "<hook>"))
            .field("stage_timing", &self.stage_timing)
            .field("swap_grace", &self.swap_grace)
            .finish()
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_capacity: 1024,
            max_batch: 64,
            coalesce: true,
            fail_point: None,
            stage_timing: true,
            swap_grace: Duration::from_millis(200),
        }
    }
}

/// Outcome of [`Engine::submit`].
pub enum Submit {
    /// The request was queued; wait on the ticket for its scores.
    Accepted(Ticket),
    /// The queue was full (or shutting down) — the group is handed back so
    /// the caller can retry, shed load, or fail the request upstream.
    Rejected(GroupInput),
    /// The request failed admission validation and was never queued: its
    /// ids or sequences are inconsistent with the frozen artifact.
    Invalid {
        /// The unqueued group, handed back.
        group: GroupInput,
        /// What exactly was wrong with it.
        error: InvalidInput,
    },
}

/// A resolved request: the scores plus the identity of the model
/// generation that produced them. Under hot-swapping ([`Engine::publish`])
/// concurrent responses can legitimately come from different generations;
/// the version is what lets a caller (or an A/B harness) attribute each
/// response to the exact artifact that served it.
#[derive(Clone, Debug)]
pub struct ScoredResponse {
    /// Per-candidate `(p^O, p^D)` probabilities, in candidate order.
    pub scores: Vec<(f32, f32)>,
    /// The artifact generation that scored this request.
    pub version: ArtifactVersion,
    /// That generation's loss weight θ — what Eq. 11 blends `scores` with.
    pub theta: f32,
}

/// What a worker sends back through the oneshot.
type Response = Result<ScoredResponse, ServeError>;

/// Pending response handle; one per accepted request.
pub struct Ticket {
    rx: oneshot::Receiver<Response>,
}

impl Ticket {
    /// Block until the request resolves: the per-candidate `(p^O, p^D)`
    /// scores, or a typed [`ServeError`]. Never panics and never hangs on
    /// a live engine — even a request dropped unscored at teardown
    /// resolves (as [`ServeError::Rejected`]).
    pub fn wait(self) -> Result<Vec<(f32, f32)>, ServeError> {
        self.wait_versioned(None).map(|r| r.scores)
    }

    /// Like [`wait`](Self::wait), but also report which artifact
    /// generation scored the request and θ, and give up at `deadline`
    /// (`None` waits without bound) with [`ServeError::DeadlineExceeded`].
    /// A bounded wait returns even if the engine is wedged or torn down;
    /// a response arriving after the deadline is discarded harmlessly —
    /// what an HTTP connection thread, which must never hang, needs.
    pub fn wait_versioned(self, deadline: Option<Instant>) -> Response {
        match self.rx.recv_until(deadline) {
            Ok(Some(resp)) => resp,
            Ok(None) => Err(ServeError::Rejected),
            Err(oneshot::TimedOut) => Err(ServeError::DeadlineExceeded),
        }
    }
}

struct Request {
    group: GroupInput,
    /// Worker-side cutoff: expired requests are dropped at drain time.
    deadline: Option<Instant>,
    /// Taken (exactly once) when the request is answered.
    tx: Option<oneshot::Sender<Response>>,
    /// Stage clock origin (an [`od_obs::clock`] stamp), taken at submit
    /// when [`EngineConfig::stage_timing`] is on — or when the request is
    /// traced: queue wait and end-to-end latency are measured from here.
    submitted: Option<od_obs::clock::Stamp>,
    /// Trace the request records spans into (inactive when untraced —
    /// every trace site then costs one branch).
    ctx: TraceContext,
}

/// Snapshot of the engine's counters, supervision state and publish
/// history. The live generation's identity is [`Engine::version`].
///
/// The accounting invariant the chaos tests assert: every accepted
/// request resolves exactly once, so `submitted == completed + expired +
/// panicked_requests + drain_rejected + in_flight` (with
/// `in_flight == 0` once all tickets have resolved), and
/// `worker_panics == respawns` once the supervisor has caught up.
#[derive(Clone, Debug)]
pub struct EngineStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests turned away by backpressure.
    pub rejected: u64,
    /// Requests refused at admission validation.
    pub invalid: u64,
    /// Requests dropped at drain time because their deadline had passed.
    pub expired: u64,
    /// Requests resolved with [`ServeError::WorkerPanicked`].
    pub panicked_requests: u64,
    /// Queued requests force-resolved [`ServeError::Rejected`] because a
    /// [`drain`](Engine::drain) grace window expired before a worker
    /// claimed them.
    pub drain_rejected: u64,
    /// Requests scored and answered successfully.
    pub completed: u64,
    /// Frozen forwards executed (a coalesced forward counts once).
    pub forwards: u64,
    /// Requests that shared their forward with at least one other request.
    pub coalesced_requests: u64,
    /// Distribution of requests merged per forward. Batch sizes below 32
    /// land in exact (`lo == hi`) buckets of the od-obs log-linear
    /// histogram, so for the usual `max_batch` the histogram loses
    /// nothing.
    pub batch_hist: od_obs::HistogramSnapshot,
    /// Worker threads the engine was configured with.
    pub configured_workers: usize,
    /// Worker threads currently alive (dips below `configured_workers`
    /// between a panic and its respawn).
    pub live_workers: usize,
    /// Worker deaths caused by a panic mid-batch.
    pub worker_panics: u64,
    /// Replacement workers spawned by the supervisor.
    pub respawns: u64,
    /// Successful [`Engine::publish`] calls over the engine's lifetime.
    pub publishes: u64,
    /// Publishes refused with a typed [`PublishError`].
    pub publish_rejected: u64,
    /// Retired generations still inside their grace period (memory not
    /// yet reclaimed).
    pub retired_artifacts: usize,
}

/// Rendezvous between dying workers and the supervisor thread.
struct Supervisor {
    state: Mutex<SupState>,
    wake: Condvar,
}

struct SupState {
    /// Worker slots whose threads exited via a caught panic, awaiting a
    /// join + respawn.
    dead: Vec<usize>,
    /// One slot per configured worker; `None` while being respawned.
    handles: Vec<Option<JoinHandle<()>>>,
    shutdown: bool,
}

struct Shared {
    queue: Queue<Request>,
    /// The swappable model slot: workers load it once per batch drain,
    /// admission validation loads it per submit, [`Engine::publish`]
    /// swaps it. See `handle.rs` for the epoch/grace protocol.
    handle: ModelHandle,
    /// Registry-backed instruments: accounting counters, gauges, and the
    /// stage-clock histograms (see `metrics.rs` for the inventory).
    metrics: EngineMetrics,
    supervisor: Supervisor,
    fail: Option<FailPoint>,
    /// Engine-global batch sequence number, fed to the fail point — the
    /// deterministic coordinate faults are injected at.
    batch_seq: AtomicU64,
    max_batch: usize,
    coalesce: bool,
    stage_timing: bool,
    configured_workers: usize,
}

/// A concurrent scoring engine over a frozen artifact. Submitting is
/// `&self`, so one engine handle is shared freely across caller threads;
/// dropping the handle drains the queue and joins supervisor and workers.
pub struct Engine {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl Engine {
    /// Spawn `config.workers` scoring threads (plus one supervisor) over
    /// `model`, published as epoch 0 under `checksum`: the `.odz` header's
    /// meta checksum ([`LoadedArtifact`](crate::LoadedArtifact)) when the
    /// artifact came off disk, [`FrozenOdNet::fingerprint`] otherwise.
    pub fn new(model: Arc<FrozenOdNet>, checksum: u32, config: EngineConfig) -> Engine {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        if config.stage_timing {
            // One-time tick→ns calibration, paid here instead of inside
            // the first request's stage sample.
            od_obs::clock::calibrate();
        }
        let metrics = EngineMetrics::register(config.workers);
        metrics.live_workers.set(config.workers as i64);
        metrics.artifact_epoch.set(0);
        metrics.artifact_checksum.set(checksum as i64);
        let shared = Arc::new(Shared {
            queue: Queue::new(config.queue_capacity),
            handle: ModelHandle::new(model, checksum, config.swap_grace),
            metrics,
            supervisor: Supervisor {
                state: Mutex::new(SupState {
                    dead: Vec::new(),
                    handles: Vec::new(),
                    shutdown: false,
                }),
                wake: Condvar::new(),
            },
            fail: config.fail_point,
            batch_seq: AtomicU64::new(0),
            max_batch: config.max_batch,
            coalesce: config.coalesce,
            stage_timing: config.stage_timing,
            configured_workers: config.workers,
        });
        {
            let mut st = sync::lock(&shared.supervisor.state);
            st.handles = (0..config.workers)
                .map(|i| Some(spawn_worker(Arc::clone(&shared), i)))
                .collect();
        }
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("od-serve-sup".to_string())
                .spawn(move || supervisor_loop(&shared))
                .expect("spawn serving supervisor")
        };
        Engine {
            shared,
            supervisor: Some(supervisor),
        }
    }

    /// Atomically swap in a new model generation under `checksum` (see
    /// [`Engine::new`] for which one).
    ///
    /// In-flight batches finish on the generation they loaded; the next
    /// drain (and the next admission validation) observes the new epoch;
    /// the retired generation's memory is reclaimed only after
    /// [`EngineConfig::swap_grace`]. No ticket is ever dropped by a swap.
    ///
    /// Fails with a typed [`PublishError`] (leaving the live generation
    /// untouched) if the offered artifact is not drop-in compatible:
    /// requests validated against the old generation may be scored by the
    /// new one, so the id universe and sequence-length contract must
    /// match. Publishing to a shut-down engine succeeds trivially — the
    /// generation is installed but nothing will score on it.
    pub fn publish(
        &self,
        model: Arc<FrozenOdNet>,
        checksum: u32,
    ) -> Result<ArtifactVersion, PublishError> {
        let metrics = &self.shared.metrics;
        match self.shared.handle.publish(model, checksum) {
            Ok(version) => {
                metrics.publishes.inc();
                metrics.artifact_epoch.set(version.epoch as i64);
                metrics.artifact_checksum.set(version.checksum as i64);
                Ok(version)
            }
            Err(e) => {
                metrics.publish_rejected.inc();
                Err(e)
            }
        }
    }

    /// Identity (publish epoch + checksum) of the live model generation.
    pub fn version(&self) -> ArtifactVersion {
        self.shared.handle.version()
    }

    /// The live generation itself, for a caller that serves a request
    /// from it beyond the ranker (the funnel's retrieval stage).
    pub(crate) fn live(&self) -> Arc<VersionSlot> {
        self.shared.handle.load()
    }

    /// Enqueue one scoring request. Never blocks: invalid inputs come
    /// straight back as [`Submit::Invalid`], and a full queue hands the
    /// group back as [`Submit::Rejected`].
    pub fn submit(&self, group: GroupInput) -> Submit {
        self.submit_traced(group, None, TraceContext::NONE)
    }

    /// [`submit`](Self::submit) with a worker-side deadline and a trace
    /// context — the general form. If the request is still queued when a
    /// worker drains it after `deadline`, it is dropped and resolves with
    /// [`ServeError::DeadlineExceeded`] instead of being scored late. With
    /// an active `ctx` the request's admission, queue wait, coalesce, and
    /// forward stages record spans into its trace, and the forward span
    /// is stamped with the batch sequence and artifact epoch that scored
    /// it. Pass [`TraceContext::NONE`] when untraced.
    pub fn submit_traced(
        &self,
        group: GroupInput,
        deadline: Option<Instant>,
        ctx: TraceContext,
    ) -> Submit {
        let metrics = &self.shared.metrics;
        // The stage clock starts before validation so `od_request_e2e_ns`
        // covers the full lifecycle of an accepted request. A traced
        // request stamps regardless of stage timing — its spans need the
        // same origins.
        let submitted = (self.shared.stage_timing || ctx.is_active()).then(od_obs::clock::now);
        if let Err(error) = self.shared.handle.load().model.validate_group(&group) {
            metrics.invalid.inc();
            return Submit::Invalid { group, error };
        }
        if let Some(t0) = submitted {
            let done = od_obs::clock::now();
            if self.shared.stage_timing {
                metrics
                    .validate_ns
                    .record(od_obs::clock::ns_between(t0, done));
            }
            if ctx.is_active() {
                trace::global().record(ctx, "admission", t0, done);
            }
        }
        let (tx, rx) = oneshot::channel();
        match self.shared.queue.try_push(Request {
            group,
            deadline,
            tx: Some(tx),
            submitted,
            ctx,
        }) {
            Ok(()) => {
                metrics.submitted.inc();
                metrics.queue_depth.add(1);
                Submit::Accepted(Ticket { rx })
            }
            Err(req) => {
                metrics.rejected.inc();
                Submit::Rejected(req.group)
            }
        }
    }

    /// Convenience: submit and block for the outcome.
    pub fn score(&self, group: GroupInput) -> Result<Vec<(f32, f32)>, ServeError> {
        match self.submit(group) {
            Submit::Accepted(ticket) => ticket.wait(),
            Submit::Rejected(_) => Err(ServeError::Rejected),
            Submit::Invalid { error, .. } => Err(ServeError::InvalidInput(error)),
        }
    }

    /// Snapshot the engine's counters and supervision state.
    pub fn stats(&self) -> EngineStats {
        let m = &self.shared.metrics;
        EngineStats {
            submitted: m.submitted.get(),
            rejected: m.rejected.get(),
            invalid: m.invalid.get(),
            expired: m.expired.get(),
            panicked_requests: m.panicked_requests.get(),
            drain_rejected: m.drain_rejected.get(),
            completed: m.completed.get(),
            forwards: m.forwards.get(),
            coalesced_requests: m.coalesced_requests.get(),
            batch_hist: m.batch_size.snapshot(),
            configured_workers: self.shared.configured_workers,
            live_workers: m.live_workers.get().max(0) as usize,
            worker_panics: m.worker_panics.get(),
            respawns: m.respawns.get(),
            publishes: m.publishes.get(),
            publish_rejected: m.publish_rejected.get(),
            retired_artifacts: self.shared.handle.retired_len(),
        }
    }

    /// Stop admitting requests: future submits are rejected, workers
    /// drain what is already queued and then park. Safe to race with
    /// in-flight submits from other threads — each one either gets its
    /// ticket resolved or an immediate [`Submit::Rejected`]. Dropping the
    /// engine still performs the full join.
    pub fn shutdown(&self) {
        self.shared.queue.close();
    }

    /// [`shutdown`](Self::shutdown) with a bound on how long any caller
    /// can stay blocked on a ticket: close the queue, give workers
    /// `grace` to finish what is queued, then force-resolve whatever they
    /// never claimed as [`ServeError::Rejected`] (counted in
    /// `od_engine_drain_rejected_total`). This is the network tier's
    /// drain hook — a connection thread holding a ticket is guaranteed an
    /// answer even when the pool is stalled or was configured with zero
    /// workers, so graceful drain can always answer every in-flight
    /// request before closing the listener.
    ///
    /// Returns `true` when every accepted request had resolved by the
    /// time the grace window closed (the accounting invariant reconciled
    /// with `in_flight == 0`), `false` when a worker was still busy on a
    /// claimed batch at the deadline — those tickets still resolve when
    /// the batch finishes (or at engine drop), just not within `grace`.
    pub fn drain(&self, grace: Duration) -> bool {
        self.shared.queue.close();
        let deadline = Instant::now() + grace;
        let m = &self.shared.metrics;
        let settled = |m: &EngineMetrics| {
            // in_flight == 0 ⇔ every accepted request has been resolved.
            m.submitted.get()
                == m.completed.get()
                    + m.expired.get()
                    + m.panicked_requests.get()
                    + m.drain_rejected.get()
        };
        // Phase 1: let workers drain the backlog within the grace window.
        while !settled(m) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        if settled(m) {
            return true;
        }
        // Phase 2: grace expired — force-resolve everything still queued.
        // Workers hold claimed batches outside the queue, so this only
        // touches requests no worker will reach in time; each resolves
        // exactly once because `drain_now` removes it from the queue
        // before we answer it.
        let mut leftovers: Vec<Request> = Vec::new();
        self.shared.queue.drain_now(&mut leftovers);
        m.queue_depth.sub(leftovers.len() as i64);
        for mut req in leftovers {
            m.drain_rejected.inc();
            req.take_tx().send(Err(ServeError::Rejected));
        }
        // Phase 3: claimed batches may still be in flight on a stalled
        // worker; give them the remainder of the window.
        while !settled(m) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        settled(m)
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shared.queue.close();
        {
            let mut st = sync::lock(&self.shared.supervisor.state);
            st.shutdown = true;
        }
        self.shared.supervisor.wake.notify_all();
        if let Some(h) = self.supervisor.take() {
            // The supervisor joins every worker before exiting; none of
            // them can panic out of their thread (batches run under
            // catch_unwind), so this join only fails if the supervisor
            // itself died — nothing to do about it in drop.
            let _ = h.join();
        }
        // Counters stay (monotone, Prometheus-style), but this engine's
        // instantaneous series must stop contributing to process-wide
        // snapshots now that nothing is queued or running.
        self.shared.metrics.zero_gauges();
    }
}

fn spawn_worker(shared: Arc<Shared>, idx: usize) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("od-serve-{idx}"))
        .spawn(move || worker_main(&shared, idx))
        .expect("spawn serving worker")
}

/// Worker thread body: run batches until the queue closes or a batch
/// panics; in the latter case report the death so the supervisor respawns
/// this slot.
fn worker_main(shared: &Arc<Shared>, idx: usize) {
    let clean = worker_run(shared, idx);
    shared.metrics.live_workers.sub(1);
    if !clean {
        shared.metrics.worker_panics.inc();
        let mut st = sync::lock(&shared.supervisor.state);
        st.dead.push(idx);
        drop(st);
        shared.supervisor.wake.notify_one();
    }
}

/// The batch loop. Returns `true` on clean shutdown (queue closed and
/// drained), `false` if a batch panicked — after resolving every
/// unanswered ticket in that batch with [`ServeError::WorkerPanicked`].
fn worker_run(shared: &Shared, idx: usize) -> bool {
    let mut ws = Workspace::new();
    let mut batch: Vec<Request> = Vec::new();
    let mut out: Vec<(f32, f32)> = Vec::new();
    let mut merged = empty_group();
    let mut plan = CoalescePlan::default();
    while shared.queue.pop_up_to(shared.max_batch, &mut batch) {
        // Load the model generation once per drain: every request in this
        // batch is scored by (and attributed to) this slot, even if a
        // publish lands mid-batch — the strong reference held here keeps
        // the artifact alive until the batch resolves. Reap retired
        // generations whose grace period has elapsed (one relaxed load
        // when nothing is retired).
        let slot = shared.handle.load();
        shared.handle.reap();
        shared.metrics.queue_depth.sub(batch.len() as i64);
        // Queue wait is stamped at drain, before expiry: expired requests
        // waited too, and their wait is precisely what expired them.
        let any_traced = batch.iter().any(|r| r.ctx.is_active());
        if shared.stage_timing || any_traced {
            let drained = od_obs::clock::now();
            for req in &batch {
                if let Some(t0) = req.submitted {
                    if shared.stage_timing {
                        shared
                            .metrics
                            .queue_wait_ns
                            .record(od_obs::clock::ns_between(t0, drained));
                    }
                    if req.ctx.is_active() {
                        trace::global().record(req.ctx, "queue_wait", t0, drained);
                    }
                }
            }
        }
        drop_expired(shared, &mut batch);
        let seq = shared.batch_seq.fetch_add(1, Ordering::Relaxed);
        // Everything from the fail-point hook through scoring runs under
        // catch_unwind: a panic must only take down this batch, not the
        // process. The scratch buffers are left in whatever state the
        // panic found them, which is fine — a panicked worker never
        // reuses them (it exits; its replacement starts fresh).
        let scored = catch_unwind(AssertUnwindSafe(|| {
            if let Some(fp) = &shared.fail {
                fp(FailSite::BeforeBatch, seq);
            }
            let plan_start = (shared.stage_timing || any_traced).then(od_obs::clock::now);
            if shared.coalesce {
                plan.build(&batch);
            } else {
                plan.singletons(batch.len());
            }
            if let Some(t0) = plan_start {
                let done = od_obs::clock::now();
                if shared.stage_timing {
                    shared
                        .metrics
                        .coalesce_ns
                        .record(od_obs::clock::ns_between(t0, done));
                }
                // The plan covers the whole drain; each traced member
                // carries the span so its trace shows the wait.
                for req in batch.iter().filter(|r| r.ctx.is_active()) {
                    trace::global().record(req.ctx, "coalesce", t0, done);
                }
            }
            for set in plan.sets() {
                score_set(
                    shared,
                    &slot,
                    idx,
                    seq,
                    &mut ws,
                    &mut out,
                    &mut merged,
                    &mut batch,
                    set,
                );
            }
            if let Some(fp) = &shared.fail {
                fp(FailSite::AfterBatch, seq);
            }
        }));
        if scored.is_err() {
            for req in batch.iter_mut() {
                if let Some(tx) = req.tx.take() {
                    shared.metrics.panicked_requests.inc();
                    if req.ctx.is_active() {
                        // Make the fault visible in the trace before the
                        // caller is told: the error span marks where the
                        // panic isolation resolved this request.
                        let now = od_obs::clock::now();
                        trace::global().record_full(
                            req.ctx,
                            "worker_panic",
                            now,
                            now,
                            0,
                            true,
                            [("batch", seq), ("", 0)],
                        );
                    }
                    tx.send(Err(ServeError::WorkerPanicked));
                }
            }
            shared.metrics.update_hit_rate();
            return false;
        }
        shared.metrics.update_hit_rate();
        // Senders were consumed by scatter; clear for the next drain.
        batch.clear();
    }
    true
}

/// Resolve (and remove) every request whose deadline already passed.
/// Runs outside `catch_unwind`: it cannot panic, and doing it first means
/// an injected batch fault never turns a `DeadlineExceeded` into a
/// `WorkerPanicked`.
fn drop_expired(shared: &Shared, batch: &mut Vec<Request>) {
    if batch.iter().all(|r| r.deadline.is_none()) {
        return; // the common (deadline-free) path takes one scan, no clock read
    }
    let now = Instant::now();
    batch.retain_mut(|req| match req.deadline {
        Some(d) if d <= now => {
            shared.metrics.expired.inc();
            if req.ctx.is_active() {
                let stamp = od_obs::clock::now();
                trace::global().record_full(
                    req.ctx,
                    "expired",
                    req.submitted.unwrap_or(stamp),
                    stamp,
                    0,
                    true,
                    NO_ATTRS,
                );
            }
            req.take_tx().send(Err(ServeError::DeadlineExceeded));
            false
        }
        _ => true,
    });
}

/// Supervisor thread body: join and respawn panicked workers until
/// shutdown, then join the whole pool.
fn supervisor_loop(shared: &Arc<Shared>) {
    let mut st = sync::lock(&shared.supervisor.state);
    loop {
        if let Some(idx) = st.dead.pop() {
            let corpse = st.handles[idx].take();
            drop(st);
            if let Some(h) = corpse {
                let _ = h.join();
            }
            let replacement = spawn_worker(Arc::clone(shared), idx);
            shared.metrics.live_workers.add(1);
            shared.metrics.respawns.inc();
            st = sync::lock(&shared.supervisor.state);
            st.handles[idx] = Some(replacement);
            continue;
        }
        if st.shutdown {
            break;
        }
        st = sync::wait(&shared.supervisor.wake, st);
    }
    // Shutdown: the queue is closed, every worker drains and exits; join
    // them all (including any that died after shutdown was flagged —
    // their handles are still in the slots).
    let pool: Vec<JoinHandle<()>> = st.handles.iter_mut().filter_map(|h| h.take()).collect();
    drop(st);
    for h in pool {
        let _ = h.join();
    }
}

/// Score one coalesced set of requests (indices into `batch`) against one
/// model generation and scatter the per-request score slices back through
/// their oneshots. `widx` is the worker slot, keying the per-worker
/// forward-time histogram; `seq` is the engine-global batch sequence the
/// forward spans are stamped with.
#[allow(clippy::too_many_arguments)]
fn score_set(
    shared: &Shared,
    slot: &VersionSlot,
    widx: usize,
    seq: u64,
    ws: &mut Workspace,
    out: &mut Vec<(f32, f32)>,
    merged: &mut GroupInput,
    batch: &mut [Request],
    set: &[usize],
) {
    let metrics = &shared.metrics;
    metrics.forwards.inc();
    metrics.batch_size.record(set.len() as u64);
    // Batch sequence + artifact epoch: the two coordinates a trace needs
    // to answer "which batch did this ride, and which generation scored
    // it".
    let fwd_attrs = [("batch", seq), ("epoch", slot.version.epoch)];
    // A singleton is a set of one, scored in place (no context copy);
    // otherwise one forward runs over the concatenated candidate lists —
    // the context is shared by construction (the plan grouped on it).
    let group = if let [only] = set {
        &batch[*only].group
    } else {
        metrics.coalesced_requests.add(set.len() as u64);
        copy_context(merged, &batch[set[0]].group);
        merged.candidates.clear();
        for &i in set {
            merged
                .candidates
                .extend_from_slice(&batch[i].group.candidates);
        }
        &*merged
    };
    let any_traced = set.iter().any(|&i| batch[i].ctx.is_active());
    let fwd_start = (shared.stage_timing || any_traced).then(od_obs::clock::now);
    slot.model.score_group_into(ws, group, out);
    let fwd_end = fwd_start.map(|t0| {
        let now = od_obs::clock::now();
        if shared.stage_timing {
            metrics.forward_ns[widx].record(od_obs::clock::ns_between(t0, now));
        }
        now
    });
    if any_traced {
        // The set's first member is the coalesce leader; followers link
        // their forward span to the leader's, so a trace shows not just
        // "I rode batch N" but *whose* forward it shared.
        let (t0, t1) = (fwd_start.unwrap_or_default(), fwd_end.unwrap_or_default());
        let leader_span =
            trace::global().record_full(batch[set[0]].ctx, "forward", t0, t1, 0, false, fwd_attrs);
        for &i in &set[1..] {
            if batch[i].ctx.is_active() {
                trace::global().record_full(
                    batch[i].ctx,
                    "forward",
                    t0,
                    t1,
                    leader_span,
                    false,
                    fwd_attrs,
                );
            }
        }
    }
    slot.counts.scores.add(out.len() as u64);
    let mut offset = 0;
    for &i in set {
        let req = &mut batch[i];
        let n = req.group.candidates.len();
        // Count before sending: the oneshot's lock handoff then publishes
        // the increment to whoever observes the response.
        metrics.completed.inc();
        slot.counts.requests.inc();
        req.take_tx().send(Ok(ScoredResponse {
            scores: out[offset..offset + n].to_vec(),
            version: slot.version,
            theta: slot.model.theta(),
        }));
        offset += n;
    }
    // One clock read covers the whole scatter; every member of the set
    // shares it as its end-to-end endpoint.
    if let Some(t1) = fwd_end {
        let done = od_obs::clock::now();
        if shared.stage_timing {
            metrics
                .scatter_ns
                .record(od_obs::clock::ns_between(t1, done));
            for &i in set {
                if let Some(t0) = batch[i].submitted {
                    // The exemplar links this bucket of the e2e histogram
                    // to the trace that landed there (no-op id 0 when
                    // untraced).
                    metrics.e2e_ns.record_exemplar(
                        od_obs::clock::ns_between(t0, done),
                        batch[i].ctx.trace_id,
                    );
                }
            }
        }
    }
}

impl Request {
    /// Move the sender out (each request is answered exactly once).
    fn take_tx(&mut self) -> oneshot::Sender<Response> {
        self.tx.take().expect("request answered twice")
    }
}

/// Reusable grouping of a drained batch into same-context sets. Arrival
/// order is preserved both across sets (by first member) and within one.
#[derive(Default)]
struct CoalescePlan {
    /// Flattened member indices.
    members: Vec<usize>,
    /// `(start, len)` ranges into `members`, one per set.
    ranges: Vec<(usize, usize)>,
    /// Scratch: context hash → set indices with that hash.
    index: HashMap<u64, Vec<usize>>,
}

impl CoalescePlan {
    fn clear(&mut self) {
        self.members.clear();
        self.ranges.clear();
        // Drop the keys too: a batch holds at most `max_batch` distinct
        // contexts, so rebuilding the small map per drain is cheap, while
        // keeping every context hash ever seen would grow without bound.
        self.index.clear();
    }

    /// One set per request — the coalescing-disabled path.
    fn singletons(&mut self, n: usize) {
        self.clear();
        for i in 0..n {
            self.members.push(i);
            self.ranges.push((i, 1));
        }
    }

    /// Group `batch` by scoring context. Two requests land in the same set
    /// only if their contexts compare equal field-by-field (the hash is
    /// just a prefilter, so collisions cannot merge distinct contexts).
    fn build(&mut self, batch: &[Request]) {
        self.clear();
        // First pass: assign each request a set id.
        let mut set_of = Vec::with_capacity(batch.len());
        let mut set_sizes: Vec<usize> = Vec::new();
        let mut first_of_set: Vec<usize> = Vec::new();
        for (i, req) in batch.iter().enumerate() {
            let h = context_hash(&req.group);
            let bucket = self.index.entry(h).or_default();
            let found = bucket
                .iter()
                .copied()
                .find(|&s| same_context(&batch[first_of_set[s]].group, &req.group));
            let s = match found {
                Some(s) => s,
                None => {
                    let s = set_sizes.len();
                    set_sizes.push(0);
                    first_of_set.push(i);
                    bucket.push(s);
                    s
                }
            };
            set_sizes[s] += 1;
            set_of.push(s);
        }
        // Second pass: lay the members out contiguously per set.
        let mut starts = Vec::with_capacity(set_sizes.len());
        let mut acc = 0;
        for &size in &set_sizes {
            starts.push(acc);
            self.ranges.push((acc, size));
            acc += size;
        }
        self.members.resize(acc, 0);
        let mut cursor = starts;
        for (i, &s) in set_of.iter().enumerate() {
            self.members[cursor[s]] = i;
            cursor[s] += 1;
        }
    }

    fn sets(&self) -> impl Iterator<Item = &[usize]> {
        self.ranges
            .iter()
            .map(move |&(start, len)| &self.members[start..start + len])
    }
}

// The context of a request is every [`GroupInput`] field except the
// candidates. `day` and the event-day sequences do not enter the frozen
// forward, but they are part of the template a caller submitted, so they
// participate in equality — only literally identical templates merge.

fn context_hash(g: &GroupInput) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    g.user.hash(&mut h);
    g.day.hash(&mut h);
    g.current_city.hash(&mut h);
    g.lt_origins.hash(&mut h);
    g.lt_dests.hash(&mut h);
    g.lt_days.hash(&mut h);
    g.st_origins.hash(&mut h);
    g.st_dests.hash(&mut h);
    g.st_days.hash(&mut h);
    h.finish()
}

fn same_context(a: &GroupInput, b: &GroupInput) -> bool {
    a.user == b.user
        && a.day == b.day
        && a.current_city == b.current_city
        && a.lt_origins == b.lt_origins
        && a.lt_dests == b.lt_dests
        && a.lt_days == b.lt_days
        && a.st_origins == b.st_origins
        && a.st_dests == b.st_dests
        && a.st_days == b.st_days
}

/// Copy `src`'s context into `dst`, reusing `dst`'s sequence allocations.
fn copy_context(dst: &mut GroupInput, src: &GroupInput) {
    dst.user = src.user;
    dst.day = src.day;
    dst.current_city = src.current_city;
    dst.lt_origins.clone_from(&src.lt_origins);
    dst.lt_dests.clone_from(&src.lt_dests);
    dst.lt_days.clone_from(&src.lt_days);
    dst.st_origins.clone_from(&src.st_origins);
    dst.st_dests.clone_from(&src.st_dests);
    dst.st_days.clone_from(&src.st_days);
}

fn empty_group() -> GroupInput {
    GroupInput {
        user: od_hsg::UserId(0),
        day: 0,
        current_city: od_hsg::CityId(0),
        lt_origins: Vec::new(),
        lt_dests: Vec::new(),
        lt_days: Vec::new(),
        st_origins: Vec::new(),
        st_dests: Vec::new(),
        st_days: Vec::new(),
        candidates: Vec::new(),
    }
}
