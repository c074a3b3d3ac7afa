//! Engine observability: the od-obs instruments one
//! [`Engine`](crate::Engine) owns, and
//! the serializable histogram summary embedded in reports.
//!
//! Every engine registers a **fresh** set of instruments into the
//! process-global [`od_obs`] registry at construction. Handles are cloned
//! into the hot path (recording never goes through the registry), while
//! the registry merges same-named series across engines at snapshot time
//! — so per-engine [`EngineStats`](crate::EngineStats) stay exact even
//! when several engines coexist (as they do under `cargo test` and across
//! the shards of `odnet serve`), and `GET /metrics` still sees one
//! process-wide series per name.
//!
//! # Metric inventory
//!
//! | series | kind | meaning |
//! |---|---|---|
//! | `od_engine_submitted_total` | counter | requests accepted into the queue |
//! | `od_engine_rejected_total` | counter | backpressure rejections |
//! | `od_engine_invalid_total` | counter | refused at admission validation |
//! | `od_engine_expired_total` | counter | dropped at drain: deadline passed |
//! | `od_engine_panicked_requests_total` | counter | resolved `WorkerPanicked` |
//! | `od_engine_drain_rejected_total` | counter | force-resolved `Rejected` at drain timeout |
//! | `od_engine_completed_total` | counter | scored and answered |
//! | `od_engine_forwards_total` | counter | frozen forwards executed |
//! | `od_engine_coalesced_requests_total` | counter | requests that shared a forward |
//! | `od_engine_worker_panics_total` | counter | worker deaths by panic |
//! | `od_engine_respawns_total` | counter | supervisor respawns |
//! | `od_engine_publishes_total` | counter | model generations published |
//! | `od_engine_publish_rejected_total` | counter | publishes refused (typed error) |
//! | `od_engine_version_requests_total{epoch=…}` | counter | requests answered, per artifact generation still able to score; `epoch="older"` holds the rest |
//! | `od_engine_version_scores_total{epoch=…}` | counter | candidate scores produced, per generation (same labels) |
//! | `od_engine_artifact_epoch` | gauge | publish epoch of the live artifact |
//! | `od_engine_artifact_checksum` | gauge | FNV checksum of the live artifact |
//! | `od_engine_queue_depth` | gauge | requests currently queued |
//! | `od_engine_live_workers` | gauge | worker threads currently alive |
//! | `od_engine_coalesce_hit_rate` | float gauge | coalesced / completed |
//! | `od_engine_batch_size` | histogram | requests merged per forward |
//! | `od_request_validate_ns` | histogram | admission validation time |
//! | `od_request_queue_wait_ns` | histogram | submit → drained by a worker |
//! | `od_batch_coalesce_ns` | histogram | per-batch plan construction |
//! | `od_request_forward_ns{worker=…}` | histogram | frozen forward, per worker slot |
//! | `od_request_scatter_ns` | histogram | post-forward scatter per set |
//! | `od_request_e2e_ns` | histogram | submit → response sent |
//!
//! Stage histograms (everything `_ns`-suffixed except `od_engine_batch_size`)
//! are gated by [`EngineConfig::stage_timing`](crate::EngineConfig): when
//! off, each record site is a single never-taken branch and no clock is
//! read. The accounting counters and gauges are always on.

use od_obs::{global, Counter, FloatGauge, Gauge, LatencyHistogram};

/// The instruments of one engine. Constructed once per [`Engine`]
/// (crate::Engine); all handles are cheap clones of registry-held ones.
pub(crate) struct EngineMetrics {
    pub submitted: Counter,
    pub rejected: Counter,
    pub invalid: Counter,
    pub expired: Counter,
    pub panicked_requests: Counter,
    pub drain_rejected: Counter,
    pub completed: Counter,
    pub forwards: Counter,
    pub coalesced_requests: Counter,
    pub worker_panics: Counter,
    pub respawns: Counter,
    pub publishes: Counter,
    pub publish_rejected: Counter,
    pub artifact_epoch: Gauge,
    pub artifact_checksum: Gauge,
    pub queue_depth: Gauge,
    pub live_workers: Gauge,
    pub coalesce_hit_rate: FloatGauge,
    pub batch_size: LatencyHistogram,
    pub validate_ns: LatencyHistogram,
    pub queue_wait_ns: LatencyHistogram,
    pub coalesce_ns: LatencyHistogram,
    /// One histogram per worker *slot*; a respawned worker keeps feeding
    /// its predecessor's series (same `worker` label).
    pub forward_ns: Vec<LatencyHistogram>,
    pub scatter_ns: LatencyHistogram,
    pub e2e_ns: LatencyHistogram,
}

impl EngineMetrics {
    /// Register a fresh instrument set for an engine with `workers` slots.
    pub fn register(workers: usize) -> EngineMetrics {
        let reg = global();
        EngineMetrics {
            submitted: reg.counter(
                "od_engine_submitted_total",
                "Requests accepted into the queue",
            ),
            rejected: reg.counter(
                "od_engine_rejected_total",
                "Requests turned away by backpressure",
            ),
            invalid: reg.counter(
                "od_engine_invalid_total",
                "Requests refused at admission validation",
            ),
            expired: reg.counter(
                "od_engine_expired_total",
                "Requests dropped at drain time: deadline passed",
            ),
            panicked_requests: reg.counter(
                "od_engine_panicked_requests_total",
                "Requests resolved with WorkerPanicked",
            ),
            drain_rejected: reg.counter(
                "od_engine_drain_rejected_total",
                "Queued requests force-resolved Rejected when drain timed out",
            ),
            completed: reg.counter(
                "od_engine_completed_total",
                "Requests scored and answered successfully",
            ),
            forwards: reg.counter(
                "od_engine_forwards_total",
                "Frozen forwards executed (a coalesced forward counts once)",
            ),
            coalesced_requests: reg.counter(
                "od_engine_coalesced_requests_total",
                "Requests that shared their forward with at least one other",
            ),
            worker_panics: reg.counter(
                "od_engine_worker_panics_total",
                "Worker deaths caused by a panic mid-batch",
            ),
            respawns: reg.counter(
                "od_engine_respawns_total",
                "Replacement workers spawned by the supervisor",
            ),
            publishes: reg.counter(
                "od_engine_publishes_total",
                "Successful model generations published into the engine",
            ),
            publish_rejected: reg.counter(
                "od_engine_publish_rejected_total",
                "Publishes refused with a typed PublishError",
            ),
            artifact_epoch: reg.gauge(
                "od_engine_artifact_epoch",
                "Publish epoch of the live artifact (0 = construction-time model)",
            ),
            artifact_checksum: reg.gauge(
                "od_engine_artifact_checksum",
                "FNV checksum of the live artifact",
            ),
            queue_depth: reg.gauge("od_engine_queue_depth", "Requests currently queued"),
            live_workers: reg.gauge("od_engine_live_workers", "Worker threads currently alive"),
            coalesce_hit_rate: reg.float_gauge(
                "od_engine_coalesce_hit_rate",
                "Fraction of completed requests that shared a forward",
            ),
            batch_size: reg.histogram(
                "od_engine_batch_size",
                "Requests merged per frozen forward (unitless)",
            ),
            validate_ns: reg.histogram(
                "od_request_validate_ns",
                "Admission validation time per request",
            ),
            queue_wait_ns: reg.histogram(
                "od_request_queue_wait_ns",
                "Submit to drained-by-a-worker wait per request",
            ),
            coalesce_ns: reg.histogram(
                "od_batch_coalesce_ns",
                "Coalesce-plan construction time per drained batch",
            ),
            forward_ns: (0..workers)
                .map(|i| {
                    reg.histogram_with(
                        "od_request_forward_ns",
                        "Frozen forward time per coalesced set",
                        &[("worker", &i.to_string())],
                    )
                })
                .collect(),
            scatter_ns: reg.histogram(
                "od_request_scatter_ns",
                "Post-forward scatter time per coalesced set",
            ),
            e2e_ns: reg.histogram(
                "od_request_e2e_ns",
                "Submit to response-sent latency per request",
            ),
        }
    }

    /// Refresh the hit-rate gauge from the counters (called per batch).
    pub fn update_hit_rate(&self) {
        let completed = self.completed.get();
        if completed > 0 {
            self.coalesce_hit_rate
                .set(self.coalesced_requests.get() as f64 / completed as f64);
        }
    }

    /// Zero the instantaneous series so a dropped engine stops
    /// contributing to process-wide snapshots (counters stay, monotone).
    pub fn zero_gauges(&self) {
        self.queue_depth.set(0);
        self.live_workers.set(0);
        self.coalesce_hit_rate.set(0.0);
        self.artifact_epoch.set(0);
        self.artifact_checksum.set(0);
    }
}
