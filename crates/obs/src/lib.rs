//! # od-obs — observability primitives for the ODNET stack
//!
//! The serving engine (PR 3/4) and the trainer each grew their own ad-hoc
//! telemetry: hand-rolled atomic counters, a bare batch-size array, and a
//! sort-a-`Vec` percentile pass in the load generator. This crate replaces
//! all of it with three composable, std-only primitives:
//!
//! - [`Counter`] / [`Gauge`] / [`FloatGauge`] — lock-free scalars. The
//!   counter is *sharded*: increments land on a per-thread cache-line-
//!   padded shard, so worker threads hammering the same series never
//!   contend on one cache line.
//! - [`LatencyHistogram`] — a fixed-size log-linear histogram (HDR-style:
//!   16 sub-buckets per power of two, exact below 32, ≤ 6.25% relative
//!   bucket width above). Recording is one atomic add; snapshots are plain
//!   `u64` vectors that [merge](HistogramSnapshot::merge) associatively
//!   and answer conservative quantile queries (`p50`/`p95`/`p99` never
//!   exceed the exactly-tracked max). Property tests in `tests/` pin the
//!   bucket-bound and merge invariants.
//! - [`trace`] — request-scoped tracing with tail sampling: spans
//!   stamped by the same TSC clock, a bounded ring of kept traces, and
//!   histogram [exemplars](Exemplar) linking tail buckets to the trace
//!   that landed there.
//! - [`Registry`] — a process-global catalogue of instruments.
//!   Registering hands back a cheap clonable handle; a
//!   [snapshot](Registry::snapshot) merges same-named series (so several
//!   engines sum into one process-level view) and renders as Prometheus
//!   text exposition without any serializer dependency.
//!
//! # Cost model
//!
//! Recording a counter or histogram sample is a relaxed atomic add on a
//! thread-local shard — no locks, no allocation, no shared cache line.
//! Stage timing uses [`clock`] (raw TSC on x86-64, ~8 ns per stamp) and
//! is the caller's to gate: the convention across the workspace is a
//! single `bool` branch (e.g. `EngineConfig::stage_timing`) in front of
//! every clock read, so the disabled path costs one predicted branch. The
//! `ci.sh` overhead gate holds the enabled path to within 3% of disabled
//! throughput.
//!
//! # Units
//!
//! Histograms store bare `u64`s; by convention the metric *name* carries
//! the unit suffix (`_ns` for durations recorded via
//! [`LatencyHistogram::record_duration`], `_micro` for fixed-point floats,
//! none for dimensionless sizes).

#![warn(missing_docs)]

pub mod clock;
mod expo;
mod hist;
mod registry;
mod scalar;
pub mod trace;

pub use expo::render_prometheus;
pub use hist::{
    bucket_bounds, bucket_index, Bucket, Exemplar, HistogramSnapshot, LatencyHistogram,
};
pub use registry::{global, Kind, Registry, Series, Snapshot, Value};
pub use scalar::{Counter, FloatGauge, Gauge};
