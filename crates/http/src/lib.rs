//! # od-http — the hardened HTTP/1.1 serving tier
//!
//! Everything the serving stack guarantees in-process — the typed
//! failure model, deadlines, hot swap, the retrieve→rank funnel —
//! becomes reachable over a wire here, without surrendering any of it to
//! the network: a dependency-free front-end on std's `TcpListener`
//! (zero-dependency discipline, like every crate in this workspace) that
//! survives slow clients, malformed bytes, overload, and restarts.
//!
//! - **Socket-level overload protection.** A bounded accept-handoff
//!   queue and a live-connection cap answer excess connections with an
//!   immediate `503` at the edge; admission backpressure from the engine
//!   ([`Submit::Rejected`](od_serve::Submit)) surfaces as `429` with
//!   `Retry-After`.
//! - **Deadline propagation.** `X-Deadline-Ms` rides into
//!   [`Engine::submit_traced`](od_serve::Engine) — work still
//!   queued past its deadline is dropped at drain and answered `504` —
//!   and every read/write on the socket is deadline-bounded, so neither
//!   a slow-loris client nor a stalled engine can hold a connection
//!   thread hostage.
//! - **Strict parsing, typed rejects.** The incremental parser turns
//!   malformed input into `400`/`413`/`431`/`505` and never panics; a
//!   panic anywhere in a connection handler is caught at the connection
//!   boundary (the engine-supervisor discipline, one layer up).
//! - **Graceful drain.** Shutdown stops accepting, flips `/healthz` to
//!   NOT-READY, answers every in-flight request, and force-resolves
//!   anything still queued after a grace window as `503` — no ticket is
//!   ever left hanging. DESIGN.md §15 documents the wire protocol, the
//!   overload ladder, and the drain state machine.
//!
//! Routes: `POST /v1/score` (raw [`GroupInput`](odnet_core::GroupInput)
//! ranking, sharded across per-core engines by user id),
//! `POST /v1/recommend` (full funnel), `GET /healthz` (readiness),
//! `GET /metrics` (od-obs Prometheus exposition, `od_http_*` series
//! included). The socket-level chaos suite in `tests/chaos.rs` drives
//! half-open connections, byte-at-a-time writers, mid-body disconnects,
//! and injected worker panics under concurrent load, asserting zero lost
//! responses and wire bodies bit-exact with the in-process oracle.

#![warn(missing_docs)]

pub mod client;
mod metrics;
pub mod parser;
mod server;
pub mod wire;

pub use client::{http_request, read_http_response, HttpResponse};
pub use parser::{parse_request, ConnReader, Limits, ParseError, ParsedRequest, Phase};
pub use server::{DrainReport, Featurizer, Server, ServerConfig};
