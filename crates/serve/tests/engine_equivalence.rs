//! The engine is the newest link in the oracle chain: live tape → batched
//! → frozen → **concurrent engine**. Under any worker count, batch size,
//! and interleaving, engine responses must be *bit-identical* to direct
//! single-threaded `FrozenOdNet::score_group` calls — coalescing must be
//! observationally invisible.

use od_serve::{Engine, EngineConfig, PublishError, Submit, Ticket};
use odnet_core::{FeatureExtractor, FrozenOdNet, GroupInput, OdNetModel, OdnetConfig, Variant};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Compile-time checks: everything that crosses a thread boundary at
/// serve time must be `Send + Sync`.
#[allow(dead_code)]
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn serving_types_are_send_sync() {
    assert_send_sync::<FrozenOdNet>();
    assert_send_sync::<GroupInput>();
    assert_send_sync::<Engine>();
    assert_send_sync::<EngineConfig>();
    assert_send_sync::<Ticket>();
}

struct Fixture {
    model: Arc<FrozenOdNet>,
    /// Mixed-size scoring templates: several distinct user contexts, each
    /// at several candidate counts (1 up to the full recall set).
    groups: Vec<GroupInput>,
    /// Direct single-threaded scores of every template (the oracle).
    expected: Vec<Vec<(f32, f32)>>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ds = od_data::FliggyDataset::generate(od_data::FliggyConfig::tiny());
        let model = OdNetModel::new(
            Variant::Odnet,
            OdnetConfig::tiny(),
            ds.world.num_users(),
            ds.world.num_cities(),
            Some(ds.hsg()),
        );
        let fx = FeatureExtractor::new(6, 4);
        let mut groups = Vec::new();
        for base in fx.groups_from_samples(&ds, &ds.train).into_iter().take(8) {
            for n in [1, 2, base.candidates.len()] {
                let mut g = base.clone();
                g.candidates.truncate(n);
                groups.push(g);
            }
        }
        assert!(groups.len() >= 16, "fixture needs a healthy template pool");
        let model = Arc::new(model.freeze());
        let expected = groups.iter().map(|g| model.score_group(g)).collect();
        Fixture {
            model,
            groups,
            expected,
        }
    })
}

/// Closed-loop verifying driver: `clients` threads share the engine, each
/// claims the next request number, submits a clone of `groups[i % len]`
/// (retrying backpressure rejections after a yield) and blocks on the
/// ticket. Panics unless all `total` responses are bit-identical to
/// `expected` (aligned with `groups`); a typed error counts as a mismatch.
fn drive(
    engine: &Engine,
    groups: &[GroupInput],
    expected: &[Vec<(f32, f32)>],
    total: usize,
    clients: usize,
) {
    assert_eq!(expected.len(), groups.len(), "expected scores out of sync");
    let next = AtomicUsize::new(0);
    let mismatches = AtomicUsize::new(0);
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
                if !matches!(outcome, Ok(scores) if scores == expected[gi]) {
                    mismatches.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(
        mismatches.into_inner(),
        0,
        "engine responses diverged from direct scoring"
    );
}

/// The satellite's headline test: 8 threads × 100 mixed-size groups
/// through the engine equal the single-threaded scores exactly.
#[test]
fn concurrent_engine_matches_direct_scoring_bitwise() {
    let fix = fixture();
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 2,
            queue_capacity: 256,
            max_batch: 16,
            coalesce: true,
            fail_point: None,
            stage_timing: true,
            ..EngineConfig::default()
        },
    );
    drive(&engine, &fix.groups, &fix.expected, 800, 8);
    let stats = engine.stats();
    assert_eq!(stats.completed, 800);
    assert_eq!(stats.submitted, 800);
    // Histogram bookkeeping: every forward is binned, batch sizes sum back
    // to the completed requests. At max_batch = 16 every size lands in an
    // exact (lo == hi) bucket of the log-linear histogram, so the weighted
    // sum is recoverable from the buckets and must agree with the exact
    // tracked sum.
    assert_eq!(stats.batch_hist.count(), stats.forwards);
    let weighted: u64 = stats
        .batch_hist
        .buckets()
        .map(|b| {
            assert_eq!(b.lo, b.hi, "batch sizes < 32 bin exactly");
            b.lo * b.count
        })
        .sum();
    assert_eq!(weighted, stats.completed);
    assert_eq!(stats.batch_hist.sum, stats.completed);
}

/// Coalescing disabled must also match the oracle (and never merge).
#[test]
fn no_coalesce_engine_matches_direct_scoring_bitwise() {
    let fix = fixture();
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 2,
            queue_capacity: 256,
            max_batch: 16,
            coalesce: false,
            fail_point: None,
            stage_timing: true,
            ..EngineConfig::default()
        },
    );
    drive(&engine, &fix.groups, &fix.expected, 400, 8);
    let stats = engine.stats();
    assert_eq!(stats.coalesced_requests, 0, "coalescing was disabled");
    assert_eq!(stats.forwards, stats.completed);
}

/// Same-context concurrent requests do get merged, and merged responses
/// still carry each request's own candidate slice.
#[test]
fn coalescing_engages_for_same_context_bursts() {
    let fix = fixture();
    // Retry a few times: coalescing needs requests to be *pending
    // together*, which the scheduler does not strictly guarantee.
    for attempt in 0..20 {
        let engine = Engine::new(
            Arc::clone(&fix.model),
            fix.model.fingerprint(),
            EngineConfig {
                workers: 1,
                queue_capacity: 256,
                max_batch: 64,
                coalesce: true,
                fail_point: None,
                stage_timing: true,
                ..EngineConfig::default()
            },
        );
        // One template, submitted as a burst before waiting on anything.
        let gi = 0;
        let tickets: Vec<Ticket> = (0..32)
            .map(|_| match engine.submit(fix.groups[gi].clone()) {
                Submit::Accepted(t) => t,
                _ => panic!("queue sized for the burst"),
            })
            .collect();
        for t in tickets {
            assert_eq!(
                t.wait().expect("scored"),
                fix.expected[gi],
                "scores must not depend on merging"
            );
        }
        if engine.stats().coalesced_requests > 0 {
            // The registry's hit-rate gauge must agree that coalescing
            // engaged. The worker refreshes it after answering a batch,
            // so it can trail the last ticket by a moment.
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                let snap = od_obs::global().snapshot();
                let hit_rate = match snap.find("od_engine_coalesce_hit_rate").map(|s| &s.value) {
                    Some(od_obs::Value::Float(v)) => *v,
                    _ => 0.0,
                };
                if hit_rate > 0.0 {
                    return;
                }
                assert!(
                    Instant::now() < deadline,
                    "od_engine_coalesce_hit_rate stayed at zero after a coalesced burst"
                );
                std::thread::yield_now();
            }
        }
        assert!(attempt < 19, "32-request bursts never coalesced in 20 runs");
    }
}

/// A full queue rejects instead of buffering, handing the group back.
#[test]
fn backpressure_rejects_and_returns_the_group() {
    let fix = fixture();
    // No workers: nothing drains the queue, so rejection is deterministic.
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 0,
            queue_capacity: 3,
            max_batch: 8,
            coalesce: true,
            fail_point: None,
            stage_timing: true,
            ..EngineConfig::default()
        },
    );
    let mut tickets = Vec::new();
    for _ in 0..3 {
        match engine.submit(fix.groups[1].clone()) {
            Submit::Accepted(t) => tickets.push(t),
            _ => panic!("queue not full yet"),
        }
    }
    match engine.submit(fix.groups[1].clone()) {
        Submit::Rejected(back) => {
            assert_eq!(back.candidates.len(), fix.groups[1].candidates.len());
            assert_eq!(back.user, fix.groups[1].user);
        }
        _ => panic!("4th submit must bounce off capacity 3"),
    }
    let stats = engine.stats();
    assert_eq!((stats.submitted, stats.rejected), (3, 1));
    // Tickets are intentionally dropped unanswered: with zero workers the
    // engine cannot score them, and dropping the engine must not hang.
    drop(tickets);
}

/// Dropping the engine drains accepted requests before the workers exit —
/// accepted work is never lost.
#[test]
fn shutdown_drains_pending_requests() {
    let fix = fixture();
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 1,
            queue_capacity: 64,
            max_batch: 4,
            coalesce: true,
            fail_point: None,
            stage_timing: true,
            ..EngineConfig::default()
        },
    );
    let tickets: Vec<(usize, Ticket)> = (0..10)
        .map(|i| {
            let gi = i % fix.groups.len();
            match engine.submit(fix.groups[gi].clone()) {
                Submit::Accepted(t) => (gi, t),
                _ => panic!("queue sized for the burst"),
            }
        })
        .collect();
    drop(engine);
    for (gi, t) in tickets {
        assert_eq!(t.wait().expect("drained and scored"), fix.expected[gi]);
    }
}

/// After a loaded run, the stage clock has populated every request
/// lifecycle histogram in the process-global registry, and the
/// stage-timing-off path still scores correctly (its sites reduce to a
/// never-taken branch; `obs.stage_timing_overhead_us` in `BENCHMARK.json`
/// prices the on side).
#[test]
fn stage_clock_populates_lifecycle_histograms() {
    let fix = fixture();
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 2,
            queue_capacity: 256,
            max_batch: 16,
            coalesce: true,
            fail_point: None,
            stage_timing: true,
            ..EngineConfig::default()
        },
    );
    drive(&engine, &fix.groups, &fix.expected, 200, 4);
    let snap = od_obs::global().snapshot();
    for name in [
        "od_request_validate_ns",
        "od_request_queue_wait_ns",
        "od_batch_coalesce_ns",
        "od_request_scatter_ns",
        "od_request_e2e_ns",
        "od_engine_batch_size",
    ] {
        assert!(
            snap.histogram(name).count() > 0,
            "{name} must have samples after a loaded run"
        );
    }
    // Forward time is labeled per worker slot; at least one slot must
    // have recorded.
    let forwards: u64 = snap
        .series
        .iter()
        .filter(|s| s.name == "od_request_forward_ns")
        .map(|s| match &s.value {
            od_obs::Value::Histogram(h) => h.count(),
            _ => 0,
        })
        .sum();
    assert!(forwards > 0, "per-worker forward histograms must populate");
    assert!(snap.counter("od_engine_completed_total") >= 200);

    // The timing-off path: identical scores, no crash, no stage samples
    // needed — only the branch.
    let quiet = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 2,
            queue_capacity: 256,
            max_batch: 16,
            coalesce: true,
            fail_point: None,
            stage_timing: false,
            ..EngineConfig::default()
        },
    );
    drive(&quiet, &fix.groups, &fix.expected, 200, 4);
}

/// A graph-free generation over the given universe — publish-compatible
/// with the fixture model or not, depending on `config` and the sizes.
fn generation(config: OdnetConfig, users: usize, cities: usize) -> Arc<FrozenOdNet> {
    Arc::new(OdNetModel::new(Variant::OdnetG, config, users, cities, None).freeze())
}

/// Publishing extends the oracle chain across generations: after a swap,
/// engine responses are bit-identical to direct `score_group` on the *new*
/// artifact, `version()` reports the new epoch + checksum and `stats()`
/// counts the publish.
#[test]
fn published_generation_scores_bitwise_and_updates_health() {
    let fix = fixture();
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 2,
            queue_capacity: 256,
            max_batch: 16,
            coalesce: true,
            fail_point: None,
            stage_timing: true,
            ..EngineConfig::default()
        },
    );
    assert_eq!(engine.version().epoch, 0);
    drive(&engine, &fix.groups, &fix.expected, 200, 4);

    let next = generation(
        OdnetConfig {
            seed: 0xDECADE,
            ..OdnetConfig::tiny()
        },
        fix.model.num_users(),
        fix.model.num_cities(),
    );
    let next_expected: Vec<_> = fix.groups.iter().map(|g| next.score_group(g)).collect();
    assert_ne!(next_expected[0], fix.expected[0], "generations differ");
    let version = engine
        .publish(Arc::clone(&next), next.fingerprint())
        .expect("compatible");
    assert_eq!(version.epoch, 1);
    assert_eq!(version.checksum, next.fingerprint());

    // Post-publish responses match the new generation bit-for-bit.
    drive(&engine, &fix.groups, &next_expected, 200, 4);
    assert_eq!(engine.version(), version);
    let stats = engine.stats();
    assert_eq!(stats.publishes, 1);
    assert_eq!(stats.publish_rejected, 0);
}

/// Incompatible artifacts are refused with a typed error and the live
/// generation keeps serving untouched: a different id universe
/// (`UniverseMismatch`) and a different sequence contract
/// (`SequenceContractMismatch`) — requests validated against the live
/// generation's limits must stay scoreable by whatever generation drains
/// them.
#[test]
fn incompatible_publish_is_rejected_with_typed_errors() {
    let fix = fixture();
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 1,
            queue_capacity: 64,
            max_batch: 16,
            coalesce: true,
            fail_point: None,
            stage_timing: true,
            ..EngineConfig::default()
        },
    );
    let (users, cities) = (fix.model.num_users(), fix.model.num_cities());

    let small_universe = generation(OdnetConfig::tiny(), users, cities - 1);
    match engine.publish(Arc::clone(&small_universe), small_universe.fingerprint()) {
        Err(PublishError::UniverseMismatch {
            live_cities,
            offered_cities,
            ..
        }) => {
            assert_eq!((live_cities, offered_cities), (cities, cities - 1));
        }
        other => panic!("expected UniverseMismatch, got {other:?}"),
    }

    let longer_seqs = generation(
        OdnetConfig {
            max_long_seq: OdnetConfig::tiny().max_long_seq + 1,
            ..OdnetConfig::tiny()
        },
        users,
        cities,
    );
    match engine.publish(Arc::clone(&longer_seqs), longer_seqs.fingerprint()) {
        Err(PublishError::SequenceContractMismatch {
            live_long,
            offered_long,
            ..
        }) => {
            assert_eq!(live_long, OdnetConfig::tiny().max_long_seq);
            assert_eq!(offered_long, OdnetConfig::tiny().max_long_seq + 1);
        }
        other => panic!("expected SequenceContractMismatch, got {other:?}"),
    }

    // Rejections are counted, the epoch did not advance, and the original
    // generation still serves bit-exact scores.
    let stats = engine.stats();
    assert_eq!(stats.publish_rejected, 2);
    assert_eq!(stats.publishes, 0);
    assert_eq!(engine.version().epoch, 0);
    assert_eq!(
        engine.score(fix.groups[0].clone()).expect("still serving"),
        fix.expected[0]
    );
}

/// Candidate-free requests are legal and answered with an empty score set.
#[test]
fn empty_group_scores_to_empty() {
    let fix = fixture();
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig::default(),
    );
    let mut g = fix.groups[0].clone();
    g.candidates.clear();
    assert_eq!(engine.score(g).expect("accepted"), Vec::new());
}
