//! Verifying closed-loop driver for the [`Engine`](crate::Engine).
//!
//! `clients` threads share one engine handle; each repeatedly claims the
//! next request number, submits a clone of one of the template groups,
//! and blocks on the ticket before submitting again, so offered
//! concurrency equals the client count. Every response is compared
//! bit-for-bit against the direct single-threaded scores — the
//! engine-vs-oracle check of `tests/engine_equivalence.rs` and
//! `odnet metrics`. Backpressure is handled by retrying the handed-back
//! group after a yield. Throughput and latency are not measured here:
//! `benchmark/` is the one place a performance number comes from.

use crate::engine::{Engine, Submit};
use odnet_core::{FrozenOdNet, GroupInput};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Outcome of one [`drive`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadReport {
    /// Responses bit-identical to the expected scores.
    pub requests: u64,
    /// Responses that differed from the expected scores or resolved with
    /// a typed error — must be zero.
    pub mismatches: u64,
}

/// Drive `engine` with `total` requests drawn round-robin from `groups`,
/// from `clients` closed-loop threads, verifying every response against
/// `expected` (aligned with `groups`, e.g. from [`score_all`]).
pub fn drive(
    engine: &Engine,
    groups: &[GroupInput],
    expected: &[Vec<(f32, f32)>],
    total: usize,
    clients: usize,
) -> LoadReport {
    assert!(!groups.is_empty(), "need at least one template group");
    assert!(clients >= 1, "need at least one client");
    assert_eq!(expected.len(), groups.len(), "expected scores out of sync");
    let next = AtomicUsize::new(0);
    let requests = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let gi = i % groups.len();
                let mut group = groups[gi].clone();
                let outcome = loop {
                    match engine.submit(group) {
                        Submit::Accepted(ticket) => break ticket.wait(),
                        Submit::Rejected(back) => {
                            group = back;
                            std::thread::yield_now();
                        }
                        Submit::Invalid { error, .. } => {
                            panic!("template group failed validation: {error}")
                        }
                    }
                };
                let counter = match outcome {
                    Ok(scores) if scores == expected[gi] => &requests,
                    _ => &mismatches,
                };
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    LoadReport {
        requests: requests.into_inner(),
        mismatches: mismatches.into_inner(),
    }
}

/// Direct single-threaded scores of every template group — the oracle the
/// engine's concurrent output is compared against.
pub fn score_all(model: &FrozenOdNet, groups: &[GroupInput]) -> Vec<Vec<(f32, f32)>> {
    groups.iter().map(|g| model.score_group(g)).collect()
}
