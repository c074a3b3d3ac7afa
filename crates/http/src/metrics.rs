//! HTTP-tier observability: the `od_http_*` instrument set.
//!
//! Registered once per [`Server`](crate::Server) into the process-global
//! od-obs registry, merged into the same `/metrics` exposition the
//! engine and retrieval series already share.
//!
//! # Metric inventory
//!
//! | series | kind | meaning |
//! |---|---|---|
//! | `od_http_accepted_total` | counter | connections accepted into the tier |
//! | `od_http_over_capacity_total` | counter | connections answered 503 at the socket edge |
//! | `od_http_requests_total{route=…}` | counter | requests routed, by route |
//! | `od_http_responses_total{code=…}` | counter | responses written, by status code |
//! | `od_http_timeouts_total{phase=…}` | counter | read deadlines hit (header/body) |
//! | `od_http_disconnects_total` | counter | peers gone mid-request or mid-response |
//! | `od_http_connection_panics_total` | counter | connection handlers that panicked (caught) |
//! | `od_http_active_connections` | gauge | connections currently held |
//! | `od_http_draining` | gauge | 1 while the drain state machine is past Running |
//! | `od_http_read_ns` | histogram | request read+parse time, from its first byte (keep-alive idle excluded) |
//! | `od_http_handle_ns{route=…}` | histogram | route handling time (engine wait included) |
//! | `od_http_write_ns` | histogram | response serialization+write time |
//! | `od_http_e2e_ns{route=…}` | histogram | first byte available → response written |
//!
//! Counter handles for the known status codes are pre-registered so the
//! hot path never takes the registry lock; an unexpected code lands in
//! `code="other"`.

use od_obs::{global, Counter, Gauge, LatencyHistogram};
use std::collections::HashMap;

/// Routes with their own labeled series.
pub(crate) const ROUTES: [&str; 5] = ["score", "recommend", "healthz", "metrics", "other"];

/// Status codes with pre-registered counter handles.
const CODES: [u16; 13] = [
    200, 400, 404, 405, 408, 413, 429, 431, 500, 503, 504, 505, 0,
];

/// The instruments of one server.
pub(crate) struct HttpMetrics {
    pub accepted: Counter,
    pub over_capacity: Counter,
    pub requests: HashMap<&'static str, Counter>,
    pub responses: HashMap<u16, Counter>,
    pub timeouts_header: Counter,
    pub timeouts_body: Counter,
    pub disconnects: Counter,
    pub conn_panics: Counter,
    pub active_connections: Gauge,
    pub draining: Gauge,
    pub read_ns: LatencyHistogram,
    pub handle_ns: HashMap<&'static str, LatencyHistogram>,
    pub write_ns: LatencyHistogram,
    pub e2e_ns: HashMap<&'static str, LatencyHistogram>,
}

impl HttpMetrics {
    pub(crate) fn register() -> HttpMetrics {
        let reg = global();
        let timeouts = |phase: &str| {
            reg.counter_with(
                "od_http_timeouts_total",
                "Read deadlines hit, by phase",
                &[("phase", phase)],
            )
        };
        HttpMetrics {
            accepted: reg.counter(
                "od_http_accepted_total",
                "Connections accepted into the tier",
            ),
            over_capacity: reg.counter(
                "od_http_over_capacity_total",
                "Connections answered 503 at the socket edge (cap or drain)",
            ),
            requests: ROUTES
                .iter()
                .map(|&r| {
                    (
                        r,
                        reg.counter_with(
                            "od_http_requests_total",
                            "Requests routed, by route",
                            &[("route", r)],
                        ),
                    )
                })
                .collect(),
            responses: CODES
                .iter()
                .map(|&c| {
                    let label = if c == 0 {
                        "other".to_string()
                    } else {
                        c.to_string()
                    };
                    (
                        c,
                        reg.counter_with(
                            "od_http_responses_total",
                            "Responses written, by status code",
                            &[("code", &label)],
                        ),
                    )
                })
                .collect(),
            timeouts_header: timeouts("header"),
            timeouts_body: timeouts("body"),
            disconnects: reg.counter(
                "od_http_disconnects_total",
                "Peers gone mid-request or mid-response",
            ),
            conn_panics: reg.counter(
                "od_http_connection_panics_total",
                "Connection handlers that panicked (caught at the boundary)",
            ),
            active_connections: reg.gauge(
                "od_http_active_connections",
                "Connections currently held by the tier",
            ),
            draining: reg.gauge("od_http_draining", "1 while draining, else 0"),
            read_ns: reg.histogram("od_http_read_ns", "Request read+parse time"),
            handle_ns: ROUTES
                .iter()
                .map(|&r| {
                    (
                        r,
                        reg.histogram_with(
                            "od_http_handle_ns",
                            "Route handling time (engine wait included)",
                            &[("route", r)],
                        ),
                    )
                })
                .collect(),
            write_ns: reg.histogram("od_http_write_ns", "Response serialization+write time"),
            e2e_ns: ROUTES
                .iter()
                .map(|&r| {
                    (
                        r,
                        reg.histogram_with(
                            "od_http_e2e_ns",
                            "First byte parsed to response written, by route",
                            &[("route", r)],
                        ),
                    )
                })
                .collect(),
        }
    }

    /// Count one written response by status code.
    pub(crate) fn count_response(&self, code: u16) {
        self.responses
            .get(&code)
            .unwrap_or_else(|| &self.responses[&0])
            .inc();
    }

    /// Zero the instantaneous series at teardown.
    pub(crate) fn zero_gauges(&self) {
        self.active_connections.set(0);
        self.draining.set(0);
    }
}
