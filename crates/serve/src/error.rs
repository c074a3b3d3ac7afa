//! The typed failure vocabulary of the serving engine.
//!
//! Every way a submitted request can fail to produce scores is a
//! [`ServeError`] variant, delivered through the same oneshot channel as a
//! success — a ticket always resolves, never hangs, and never panics the
//! caller. See DESIGN.md §10 for the full failure model.

use odnet_core::InvalidInput;
use std::fmt;

/// Why a request did not come back with scores.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission-edge backpressure (the bounded queue was full or the
    /// engine was shutting down), or the engine was torn down with the
    /// request still queued — in both cases the request was never scored
    /// and is safe to retry against a healthy engine.
    Rejected,
    /// The request failed admission validation: its ids or sequences are
    /// inconsistent with the frozen artifact, so scoring it would be
    /// meaningless (and, unguarded, would panic a worker).
    InvalidInput(InvalidInput),
    /// The worker scoring this request's batch panicked before answering
    /// it. The supervisor respawns the worker; the request itself was not
    /// scored and is safe to retry.
    WorkerPanicked,
    /// The request's deadline passed before a worker picked it up (dropped
    /// at drain time), or a bounded
    /// [`Ticket::wait_versioned`](crate::Ticket::wait_versioned) gave up
    /// waiting.
    DeadlineExceeded,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected => write!(f, "rejected by backpressure or shutdown"),
            ServeError::InvalidInput(e) => write!(f, "invalid request: {e}"),
            ServeError::WorkerPanicked => write!(f, "scoring worker panicked mid-batch"),
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::InvalidInput(e) => Some(e),
            _ => None,
        }
    }
}

/// Why [`Engine::publish`](crate::Engine::publish) refused an artifact.
///
/// A published model must be drop-in compatible with the live one: requests
/// already validated and queued against the old generation may be scored by
/// the new one, so the id universe and the sequence-length admission
/// contract must match exactly. The offending artifact is simply not
/// installed — the engine keeps serving the live generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishError {
    /// The offered artifact was frozen over a different user/city universe.
    UniverseMismatch {
        /// Live artifact's user universe size.
        live_users: usize,
        /// Live artifact's city universe size.
        live_cities: usize,
        /// Offered artifact's user universe size.
        offered_users: usize,
        /// Offered artifact's city universe size.
        offered_cities: usize,
    },
    /// The offered artifact admits different history-sequence lengths, so a
    /// queued request could overrun its PEC input contract.
    SequenceContractMismatch {
        /// Live artifact's `max_long_seq`.
        live_long: usize,
        /// Live artifact's `max_short_seq`.
        live_short: usize,
        /// Offered artifact's `max_long_seq`.
        offered_long: usize,
        /// Offered artifact's `max_short_seq`.
        offered_short: usize,
    },
}

impl fmt::Display for PublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PublishError::UniverseMismatch {
                live_users,
                live_cities,
                offered_users,
                offered_cities,
            } => write!(
                f,
                "artifact universe mismatch: live {live_users} users × {live_cities} cities, \
                 offered {offered_users} × {offered_cities}"
            ),
            PublishError::SequenceContractMismatch {
                live_long,
                live_short,
                offered_long,
                offered_short,
            } => write!(
                f,
                "artifact sequence contract mismatch: live max_long/short \
                 {live_long}/{live_short}, offered {offered_long}/{offered_short}"
            ),
        }
    }
}

impl std::error::Error for PublishError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ServeError::Rejected.to_string().contains("backpressure"));
        assert!(ServeError::WorkerPanicked.to_string().contains("panicked"));
        assert!(ServeError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
    }
}
