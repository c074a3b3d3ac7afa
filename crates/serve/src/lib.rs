//! # od-serve — the concurrent serving engine
//!
//! PR 2's [`FrozenOdNet`](odnet_core::FrozenOdNet) made a single request
//! fast (tape-free kernels, 2–3 allocations per request); this crate makes
//! many *concurrent* requests fast. An [`Engine`] owns a versioned,
//! swappable model slot and N worker threads behind a bounded MPMC queue:
//!
//! - **Backpressure, not buffering.** [`Engine::submit`] never blocks and
//!   never queues unboundedly: a full queue returns
//!   [`Submit::Rejected`] with the request handed back, so overload is
//!   explicit at the admission edge instead of surfacing as memory growth
//!   and tail-latency collapse.
//! - **Cross-request micro-batching.** Each worker wakeup drains up to
//!   `max_batch` pending requests and coalesces the ones sharing a context
//!   template (same user/day/history — retries, pagination, one session's
//!   parallel widgets) into a *single* batched frozen forward, then
//!   scatters the per-request score slices back through oneshot channels.
//!   The batched kernels from PR 1 get more efficient per candidate as the
//!   group grows, so coalescing recovers for 1-candidate requests the
//!   efficiency that previously required 64-candidate requests.
//! - **Bit-identical scores.** A coalesced forward produces exactly the
//!   scores of per-request forwards (the trunk is context-only and every
//!   kernel accumulates per output element independently of batch size),
//!   extending the live → batched → frozen oracle chain one more link:
//!   engine output equals direct
//!   [`FrozenOdNet::score_group`](odnet_core::FrozenOdNet::score_group)
//!   calls under any interleaving.
//! - **Fault tolerance.** Every accepted request resolves exactly once as
//!   `Result<scores, `[`ServeError`]`>`: invalid inputs are refused at
//!   admission, deadlines drop stale requests at drain time, and a worker
//!   panic mid-batch is caught, resolves its unanswered tickets with
//!   [`ServeError::WorkerPanicked`], and is healed by a supervisor thread
//!   that respawns the worker ([`Engine::stats`] exposes the counters).
//!   A [`FailPoint`] hook injects panics/stalls at chosen batches for the
//!   chaos tests. DESIGN.md §10 documents the full failure model.
//! - **Hot-swappable model.** [`Engine::publish`] atomically installs a
//!   new [`FrozenOdNet`](odnet_core::FrozenOdNet) generation under live
//!   traffic: workers load the model once per batch drain, so in-flight
//!   batches finish on the artifact they started with while the next
//!   drain picks up the new epoch; retired generations are reclaimed
//!   after a grace period. Every response carries the
//!   [`ArtifactVersion`] (publish epoch + FNV checksum) that scored it
//!   ([`ScoredResponse`]), with per-epoch od-obs counters for
//!   CTR/volume attribution. DESIGN.md §13 documents the protocol; the
//!   `odnet online` CLI drives a full drift → retrain → freeze → publish
//!   loop against it.
//!
//! - **Full funnel.** A [`Funnel`] puts the `od-retrieval` candidate
//!   generator in front of the engine: retrieve the best `k` OD pairs out
//!   of the whole city universe from the frozen tables, featurize, rank
//!   with the full model. Each request retrieves from the engine's live
//!   generation — the engine's slot is the only one — and a
//!   [`Recommendation`] stamps both the retrieving and the ranking
//!   generation for mid-swap attribution. DESIGN.md §14 documents the
//!   retrieval tier.
//!
//! Bit-exactness under concurrency is pinned by
//! `tests/engine_equivalence.rs` (a closed-loop driver verifying every
//! response against direct scoring); performance numbers come from
//! `benchmark/` (see `benchmark/README.md`).

#![warn(missing_docs)]

mod engine;
mod error;
mod funnel;
mod handle;
mod oneshot;
mod queue;
mod sync;

pub mod artifact;
pub mod metrics;

pub use artifact::{load_frozen, load_frozen_auto, ArtifactMode, LoadedArtifact};
pub use engine::{
    Engine, EngineConfig, EngineStats, FailPoint, FailSite, ScoredResponse, Submit, Ticket,
};
pub use error::{PublishError, ServeError};
pub use funnel::{Funnel, FunnelConfig, RankedPair, Recommendation};
pub use handle::ArtifactVersion;
