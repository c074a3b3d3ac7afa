//! Fault-injection harness: the engine under deliberately injected
//! failures. The contract being asserted, end to end:
//!
//! - every accepted ticket resolves exactly once (no hangs, no panics in
//!   callers), with scores or a typed [`ServeError`];
//! - responses that survive a fault are *bit-identical* to direct
//!   single-threaded `FrozenOdNet::score_group` — a panic next door never
//!   perturbs anyone else's scores;
//! - the supervisor joins every panicked worker and respawns it: the pool
//!   recovers to its configured size and `EngineStats` counters
//!   reconcile exactly with the injected fault count;
//! - no worker or supervisor thread leaks across the engine's lifetime.
//!
//! Engine-lifecycle tests share one process, so tests that count OS
//! threads or rely on global batch sequence numbers serialize on
//! `TEST_LOCK`.

use od_serve::{
    Engine, EngineConfig, FailPoint, FailSite, Funnel, FunnelConfig, Recommendation, ServeError,
    Submit, Ticket,
};
use odnet_core::{FeatureExtractor, FrozenOdNet, GroupInput, OdNetModel, OdnetConfig, Variant};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Serializes the engine-lifecycle tests in this binary: they count OS
/// threads by name, which only works one engine at a time.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    // A previous test failing while holding the lock poisons it; the lock
    // only guards "one engine at a time", so recovery is always sound.
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Count live threads of this process whose name starts with `od-serve`
/// (workers and the supervisor).
fn serve_threads() -> usize {
    let mut n = 0;
    if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
        for entry in dir.flatten() {
            if let Ok(comm) = std::fs::read_to_string(entry.path().join("comm")) {
                if comm.trim_end().starts_with("od-serve") {
                    n += 1;
                }
            }
        }
    }
    n
}

struct Fixture {
    model: Arc<FrozenOdNet>,
    groups: Vec<GroupInput>,
    expected: Vec<Vec<(f32, f32)>>,
    /// Three publish-compatible generations with *distinct* weights
    /// (graph-free variant, different init seeds) and their own oracle
    /// scores — `alt_expected[g][gi]` is generation `g`'s direct scores
    /// of `groups[gi]`. The swap tests publish these and check every
    /// response against the generation its version stamp names.
    alt_models: Vec<Arc<FrozenOdNet>>,
    alt_expected: Vec<Vec<Vec<(f32, f32)>>>,
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
        let groups: Vec<GroupInput> = fx
            .groups_from_samples(&ds, &ds.train)
            .into_iter()
            .take(8)
            .collect();
        assert!(groups.len() >= 8);
        let model = Arc::new(model.freeze());
        let score_all = |m: &FrozenOdNet| groups.iter().map(|g| m.score_group(g)).collect();
        let expected: Vec<Vec<(f32, f32)>> = score_all(&model);
        let alt_models: Vec<Arc<FrozenOdNet>> = (1..=3u64)
            .map(|s| {
                let cfg = OdnetConfig {
                    seed: 0xC0FFEE + s,
                    ..OdnetConfig::tiny()
                };
                Arc::new(
                    OdNetModel::new(
                        Variant::OdnetG,
                        cfg,
                        ds.world.num_users(),
                        ds.world.num_cities(),
                        None,
                    )
                    .freeze(),
                )
            })
            .collect();
        let alt_expected: Vec<Vec<Vec<(f32, f32)>>> =
            alt_models.iter().map(|m| score_all(m)).collect();
        // The swap tests are only meaningful if the generations actually
        // score differently.
        for alt in &alt_expected {
            assert_ne!(alt[0], expected[0], "generations must be distinct");
        }
        Fixture {
            model,
            groups,
            expected,
            alt_models,
            alt_expected,
        }
    })
}

/// A fail point that panics when draining the batches with the given
/// (engine-global) sequence numbers — the fixed fault seed of the suite.
fn panic_at_batches(seqs: &'static [u64]) -> FailPoint {
    Arc::new(move |site, seq| {
        if site == FailSite::BeforeBatch && seqs.contains(&seq) {
            panic!("injected chaos fault at batch {seq}");
        }
    })
}

/// A fail point that blocks batch 0 at `BeforeBatch` until released,
/// signalling entry — lets a test deterministically order "worker is busy"
/// against its own submits.
struct Gate {
    entered: AtomicBool,
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            entered: AtomicBool::new(false),
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn fail_point(self: &Arc<Gate>) -> FailPoint {
        let gate = Arc::clone(self);
        Arc::new(move |site, seq| {
            if site == FailSite::BeforeBatch && seq == 0 {
                gate.entered.store(true, Ordering::SeqCst);
                let mut open = gate.open.lock().unwrap();
                while !*open {
                    open = gate.cv.wait(open).unwrap();
                }
            }
        })
    }

    fn wait_entered(&self) {
        let start = Instant::now();
        while !self.entered.load(Ordering::SeqCst) {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "worker never drained batch 0"
            );
            std::thread::yield_now();
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// The headline chaos test: 3 injected worker panics under 8-thread load.
#[test]
fn injected_panics_are_isolated_and_supervised() {
    let _guard = test_lock();
    let fix = fixture();
    let baseline_threads = serve_threads();
    const FAULT_SEQS: &[u64] = &[3, 7, 11];
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 2,
            queue_capacity: 256,
            max_batch: 16,
            coalesce: true,
            fail_point: Some(panic_at_batches(FAULT_SEQS)),
            stage_timing: true,
            ..EngineConfig::default()
        },
    );

    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 100;
    let ok = AtomicUsize::new(0);
    let faulted = AtomicUsize::new(0);
    let mismatches = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let ok = &ok;
            let faulted = &faulted;
            let mismatches = &mismatches;
            let engine = &engine;
            s.spawn(move || {
                for i in 0..PER_CLIENT {
                    let gi = (c * PER_CLIENT + i) % fix.groups.len();
                    let mut group = fix.groups[gi].clone();
                    let outcome = loop {
                        match engine.submit(group) {
                            Submit::Accepted(t) => break t.wait(),
                            Submit::Rejected(back) => {
                                group = back;
                                std::thread::yield_now();
                            }
                            Submit::Invalid { error, .. } => {
                                panic!("fixture group failed validation: {error}")
                            }
                        }
                    };
                    match outcome {
                        Ok(scores) => {
                            if scores == fix.expected[gi] {
                                ok.fetch_add(1, Ordering::Relaxed);
                            } else {
                                mismatches.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(ServeError::WorkerPanicked) => {
                            faulted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected serve error under chaos: {e}"),
                    }
                }
            });
        }
    });

    // Every ticket resolved (the scope joined); surviving responses were
    // bit-identical to the oracle.
    assert_eq!(
        mismatches.load(Ordering::Relaxed),
        0,
        "fault perturbed a survivor's scores"
    );
    let ok = ok.load(Ordering::Relaxed);
    let faulted = faulted.load(Ordering::Relaxed);
    assert_eq!(
        ok + faulted,
        CLIENTS * PER_CLIENT,
        "every request resolved exactly once"
    );
    assert!(
        faulted >= FAULT_SEQS.len(),
        "each injected batch fault kills at least one request (got {faulted})"
    );

    // The supervisor converges: every panic joined and respawned, the pool
    // back at its configured size.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let h = engine.stats();
        if h.worker_panics == FAULT_SEQS.len() as u64
            && h.respawns == h.worker_panics
            && h.live_workers == h.configured_workers
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "supervisor did not converge: {:?}",
            engine.stats()
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Counters reconcile exactly with what the clients observed.
    let stats = engine.stats();
    assert_eq!(stats.completed, ok as u64);
    assert_eq!(stats.panicked_requests, faulted as u64);
    assert_eq!(stats.submitted, (ok + faulted) as u64);
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.invalid, 0);

    // The healed pool still scores correctly (batch seqs are past the
    // fault seed now).
    assert_eq!(
        engine
            .score(fix.groups[0].clone())
            .expect("healed engine scores"),
        fix.expected[0]
    );

    drop(engine);
    assert_eq!(
        serve_threads(),
        baseline_threads,
        "worker/supervisor threads leaked past engine teardown"
    );
}

/// Deadlines are enforced at drain time: a request whose deadline passed
/// while queued resolves with `DeadlineExceeded` instead of being scored
/// late.
#[test]
fn expired_requests_are_dropped_at_drain_time() {
    let _guard = test_lock();
    let fix = fixture();
    let gate = Gate::new();
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 1,
            queue_capacity: 64,
            max_batch: 16,
            coalesce: true,
            fail_point: Some(gate.fail_point()),
            stage_timing: true,
            ..EngineConfig::default()
        },
    );
    // Request A occupies the worker (its batch parks at the gate)...
    let ta = match engine.submit(fix.groups[0].clone()) {
        Submit::Accepted(t) => t,
        _ => panic!("submit A"),
    };
    gate.wait_entered();
    // ...so B is guaranteed to still be queued when its deadline (now)
    // passes; the worker must drop it at the next drain.
    let tb = match engine.submit_traced(
        fix.groups[1].clone(),
        Some(Instant::now()),
        od_obs::trace::TraceContext::NONE,
    ) {
        Submit::Accepted(t) => t,
        _ => panic!("submit B"),
    };
    gate.release();
    assert_eq!(ta.wait().expect("A was scored"), fix.expected[0]);
    assert_eq!(tb.wait(), Err(ServeError::DeadlineExceeded));
    let stats = engine.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.completed, 1);
}

/// A bounded `wait_versioned` returns even when nothing will ever answer
/// (a stalled/workerless engine), and tearing the engine down afterwards
/// neither hangs nor panics.
#[test]
fn wait_timeout_bounds_waiting_on_a_stalled_engine() {
    let _guard = test_lock();
    let fix = fixture();
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 0,
            queue_capacity: 8,
            max_batch: 8,
            coalesce: true,
            fail_point: None,
            stage_timing: true,
            ..EngineConfig::default()
        },
    );
    let t = match engine.submit(fix.groups[0].clone()) {
        Submit::Accepted(t) => t,
        _ => panic!("submit"),
    };
    let begin = Instant::now();
    assert_eq!(
        t.wait_versioned(Some(begin + Duration::from_millis(20)))
            .map(|r| r.scores),
        Err(ServeError::DeadlineExceeded)
    );
    assert!(
        begin.elapsed() < Duration::from_secs(5),
        "a bounded wait_versioned must return"
    );
}

/// A caller whose bounded wait expires while the worker is mid-batch:
/// the late response lands in a dropped receiver harmlessly, and the
/// engine keeps serving.
#[test]
fn late_response_after_wait_timeout_is_harmless() {
    let _guard = test_lock();
    let fix = fixture();
    let gate = Gate::new();
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 1,
            queue_capacity: 64,
            max_batch: 16,
            coalesce: true,
            fail_point: Some(gate.fail_point()),
            stage_timing: true,
            ..EngineConfig::default()
        },
    );
    let t = match engine.submit(fix.groups[0].clone()) {
        Submit::Accepted(t) => t,
        _ => panic!("submit"),
    };
    gate.wait_entered();
    // The worker is parked before scoring; the caller gives up first.
    assert_eq!(
        t.wait_versioned(Some(Instant::now() + Duration::from_millis(1)))
            .map(|r| r.scores),
        Err(ServeError::DeadlineExceeded)
    );
    gate.release();
    // The worker's late answer went nowhere; the engine is still healthy.
    assert_eq!(
        engine.score(fix.groups[1].clone()).expect("still serving"),
        fix.expected[1]
    );
}

/// Dropping a ticket before the response arrives abandons the request
/// without disturbing the engine.
#[test]
fn dropped_ticket_is_harmless() {
    let _guard = test_lock();
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
    match engine.submit(fix.groups[0].clone()) {
        Submit::Accepted(t) => drop(t),
        _ => panic!("submit"),
    }
    assert_eq!(
        engine.score(fix.groups[1].clone()).expect("still serving"),
        fix.expected[1]
    );
}

/// `shutdown` racing in-flight submits: every concurrently submitted
/// request either resolves with scores (it was admitted before the close)
/// or is rejected at the edge — nothing hangs, nothing panics.
#[test]
fn shutdown_races_inflight_submits() {
    let _guard = test_lock();
    let fix = fixture();
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 16,
            coalesce: true,
            fail_point: None,
            stage_timing: true,
            ..EngineConfig::default()
        },
    );
    let (scored, rejected) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|c| {
                let engine = &engine;
                s.spawn(move || {
                    let mut scored = 0u64;
                    let mut rejected = 0u64;
                    for i in 0..200 {
                        let gi = (c + i) % fix.groups.len();
                        match engine.submit(fix.groups[gi].clone()) {
                            Submit::Accepted(t) => match t.wait() {
                                Ok(scores) => {
                                    assert_eq!(scores, fix.expected[gi]);
                                    scored += 1;
                                }
                                // Teardown may drop a queued request; it
                                // must resolve, not hang.
                                Err(ServeError::Rejected) => rejected += 1,
                                Err(e) => panic!("unexpected error at shutdown: {e}"),
                            },
                            Submit::Rejected(_) => rejected += 1,
                            Submit::Invalid { error, .. } => panic!("fixture invalid: {error}"),
                        }
                    }
                    (scored, rejected)
                })
            })
            .collect();
        // Close admission while the clients are mid-flight.
        std::thread::sleep(Duration::from_millis(2));
        engine.shutdown();
        handles.into_iter().fold((0, 0), |(a, b), h| {
            let (s, r) = h.join().expect("client survived the race");
            (a + s, b + r)
        })
    });
    assert_eq!(scored + rejected, 4 * 200, "every submit resolved one way");
    assert!(rejected > 0, "shutdown closed the admission edge");
}

/// Invalid requests are refused at the admission edge with a typed error,
/// never reaching a worker (where they would panic an index lookup).
#[test]
fn invalid_input_is_refused_at_admission() {
    let _guard = test_lock();
    let fix = fixture();
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 1,
            queue_capacity: 8,
            max_batch: 8,
            coalesce: true,
            fail_point: None,
            stage_timing: true,
            ..EngineConfig::default()
        },
    );
    let mut bad = fix.groups[0].clone();
    bad.user = od_hsg::UserId(u32::MAX);
    match engine.submit(bad) {
        Submit::Invalid { group, error } => {
            assert_eq!(group.user, od_hsg::UserId(u32::MAX), "group handed back");
            assert!(matches!(
                error,
                odnet_core::InvalidInput::UserOutOfRange { .. }
            ));
        }
        _ => panic!("out-of-range user must be refused"),
    }
    let mut bad = fix.groups[0].clone();
    bad.lt_days.push(0); // misaligned with lt_origins
    assert!(matches!(
        engine.score(bad),
        Err(ServeError::InvalidInput(
            odnet_core::InvalidInput::MisalignedSequence { .. }
        ))
    ));
    assert_eq!(engine.stats().invalid, 2);
    assert_eq!(engine.stats().submitted, 0, "nothing invalid was queued");
    // No worker ever saw them; the engine still serves valid requests.
    assert_eq!(
        engine.score(fix.groups[0].clone()).expect("still serving"),
        fix.expected[0]
    );
}

/// The swap chaos headline: 8-thread load with three *distinct-content*
/// generations published mid-flight. Zero lost tickets, and every single
/// response is bit-identical to direct `score_group` on the artifact
/// version its stamp records — a response scored by epoch 2 matches
/// generation 2's oracle, never a blend.
#[test]
fn hot_swaps_under_load_keep_responses_version_consistent() {
    let _guard = test_lock();
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
            swap_grace: Duration::from_millis(50),
        },
    );
    // expected_by_epoch[e][gi]: epoch 0 is the construction generation.
    let mut expected_by_epoch: Vec<&Vec<Vec<(f32, f32)>>> = vec![&fix.expected];
    expected_by_epoch.extend(fix.alt_expected.iter());

    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 150;
    const TOTAL: usize = CLIENTS * PER_CLIENT;
    let completed = AtomicUsize::new(0);
    std::thread::scope(|s| {
        // Publisher: three swaps paced on completed-request marks, so each
        // generation serves a slice of the run.
        let completed = &completed;
        let engine = &engine;
        s.spawn(move || {
            for (i, m) in fix.alt_models.iter().enumerate() {
                let mark = (i + 1) * TOTAL / 5;
                while completed.load(Ordering::Relaxed) < mark {
                    std::thread::yield_now();
                }
                let v = engine
                    .publish(Arc::clone(m), m.fingerprint())
                    .expect("compatible publish");
                assert_eq!(v.epoch, i as u64 + 1, "publishes are monotone epochs");
            }
        });
        let expected_by_epoch = &expected_by_epoch;
        for c in 0..CLIENTS {
            s.spawn(move || {
                for i in 0..PER_CLIENT {
                    let gi = (c * PER_CLIENT + i) % fix.groups.len();
                    let mut group = fix.groups[gi].clone();
                    let response = loop {
                        match engine.submit(group) {
                            Submit::Accepted(t) => {
                                break t.wait_versioned(None).expect("no faults injected")
                            }
                            Submit::Rejected(back) => {
                                group = back;
                                std::thread::yield_now();
                            }
                            Submit::Invalid { error, .. } => {
                                panic!("fixture group failed validation: {error}")
                            }
                        }
                    };
                    let epoch = response.version.epoch as usize;
                    assert!(epoch < expected_by_epoch.len(), "unknown epoch {epoch}");
                    assert_eq!(
                        response.scores, expected_by_epoch[epoch][gi],
                        "response must match the generation its version stamp records"
                    );
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    // Scope join + expect above = every ticket resolved with scores.
    assert_eq!(
        completed.load(Ordering::Relaxed),
        TOTAL,
        "zero lost tickets"
    );
    let stats = engine.stats();
    assert_eq!(stats.publishes, 3);
    assert_eq!(stats.publish_rejected, 0);
    assert_eq!(engine.version().epoch, 3);
    // The final generation owns the slot now.
    assert_eq!(
        engine.score(fix.groups[0].clone()).expect("still serving"),
        fix.alt_expected[2][0]
    );
}

/// An in-flight batch finishes on the artifact generation it started
/// with, even when a publish lands mid-batch; the next drain picks up the
/// new generation.
#[test]
fn inflight_batch_finishes_on_its_generation_across_a_publish() {
    let _guard = test_lock();
    let fix = fixture();
    let gate = Gate::new();
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 1,
            queue_capacity: 64,
            max_batch: 16,
            coalesce: true,
            fail_point: Some(gate.fail_point()),
            stage_timing: true,
            ..EngineConfig::default()
        },
    );
    // A's batch drains (loading the epoch-0 slot) and parks at the gate...
    let ta = match engine.submit(fix.groups[0].clone()) {
        Submit::Accepted(t) => t,
        _ => panic!("submit A"),
    };
    gate.wait_entered();
    // ...a publish lands while A is mid-batch...
    let alt = &fix.alt_models[0];
    let v = engine
        .publish(Arc::clone(alt), alt.fingerprint())
        .expect("compatible publish");
    assert_eq!(v.epoch, 1);
    // ...and B is queued behind the gate, to be drained post-publish.
    let tb = match engine.submit(fix.groups[1].clone()) {
        Submit::Accepted(t) => t,
        _ => panic!("submit B"),
    };
    gate.release();
    let ra = ta.wait_versioned(None).expect("A scored");
    assert_eq!(
        (ra.version.epoch, ra.scores),
        (0, fix.expected[0].clone()),
        "in-flight batch must finish on the generation it started with"
    );
    let rb = tb.wait_versioned(None).expect("B scored");
    assert_eq!(
        (rb.version.epoch, rb.scores),
        (1, fix.alt_expected[0][1].clone()),
        "the next drain must pick up the published generation"
    );
}

/// Retired generations are kept alive through the grace period (a batch
/// that loaded the old slot may still be scoring) and actually reclaimed
/// after it — verified with a `Weak` that must die once the grace elapses
/// and a drain runs the reaper. Two inputs: publishes straight to the
/// engine, and publishes through the funnel with a `recommend` served on
/// each side of them — the retrieval stage pins no generation of its own.
#[test]
fn retired_generations_are_reclaimed_after_grace() {
    let _guard = test_lock();
    let fix = fixture();
    let grace = Duration::from_millis(20);
    for via_funnel in [false, true] {
        let first = Arc::new((*fix.alt_models[0]).clone());
        let weak = Arc::downgrade(&first);
        let checksum = first.fingerprint();
        let funnel = Funnel::new(
            first, // the engine now holds the only strong reference
            checksum,
            EngineConfig {
                workers: 1,
                queue_capacity: 64,
                max_batch: 16,
                coalesce: true,
                fail_point: None,
                stage_timing: true,
                swap_grace: grace,
            },
            FunnelConfig::default(),
        );
        let engine = funnel.engine();
        let serve = |gi: usize| {
            if via_funnel {
                let rec = recommend(&funnel, &fix.groups[gi]);
                assert_eq!(
                    rec.retrieved_by,
                    engine.version(),
                    "retrieved off the live slot"
                );
            }
            engine.score(fix.groups[gi].clone()).expect("scored")
        };
        assert_eq!(serve(0), fix.alt_expected[0][0]);
        let next = &fix.alt_models[1];
        if via_funnel {
            funnel.publish(Arc::clone(next), next.fingerprint())
        } else {
            engine.publish(Arc::clone(next), next.fingerprint())
        }
        .expect("compatible publish");
        // No drain has run since the publish, so the retired generation is
        // still parked in the grace list — alive.
        assert_eq!(engine.stats().retired_artifacts, 1);
        assert!(
            weak.upgrade().is_some(),
            "retired generation must survive its grace period"
        );
        std::thread::sleep(grace + Duration::from_millis(5));
        // The next drains run the reaper; the old artifact's memory must go.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            assert_eq!(
                serve(1),
                fix.alt_expected[1][1],
                "post-publish scores come from the new generation"
            );
            if weak.upgrade().is_none() && engine.stats().retired_artifacts == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "retired artifact never reclaimed after grace (via_funnel: {via_funnel})"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// One `recommend` for `template.user`, the retrieved pairs grafted onto
/// the template's context.
fn recommend(funnel: &Funnel, template: &GroupInput) -> Recommendation {
    funnel
        .recommend(template.user, 4, |pairs| {
            let mut g = template.clone();
            g.candidates = pairs
                .iter()
                .map(|p| {
                    let mut c = template.candidates[0];
                    (c.origin, c.dest) = (p.origin, p.dest);
                    c
                })
                .collect();
            g
        })
        .expect("funnel recommend")
}

/// A generation's `od_engine_version_*{epoch=N}` pair lives as long as
/// the generation can score. A hundred publishes under load leave the
/// live epoch and `epoch="older"` holding everything else — and the
/// labels still add up to every request the process ever completed.
#[test]
fn a_hundred_publishes_leave_a_bounded_number_of_version_series() {
    let _guard = test_lock();
    let fix = fixture();
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 2,
            swap_grace: Duration::from_millis(2),
            ..EngineConfig::default()
        },
    );
    let publishing = AtomicBool::new(true);
    std::thread::scope(|s| {
        for c in 0..2 {
            let (engine, publishing) = (&engine, &publishing);
            s.spawn(move || {
                while publishing.load(Ordering::Relaxed) {
                    // Backpressure is fine; the load only has to exist.
                    let _ = engine.score(fix.groups[c].clone());
                }
            });
        }
        for i in 0..100 {
            let model = &fix.alt_models[i % fix.alt_models.len()];
            engine
                .publish(Arc::clone(model), model.fingerprint())
                .expect("compatible publish");
        }
        publishing.store(false, Ordering::Relaxed);
    });
    // Quiescent (the suite's lock keeps every other engine away): let the
    // last grace periods run out and a drain reap them.
    std::thread::sleep(Duration::from_millis(10));
    engine.score(fix.groups[0].clone()).expect("still serving");

    let snap = od_obs::global().snapshot();
    let by_epoch = |name: &str| -> Vec<(&str, u64)> {
        let of_name = snap.series.iter().filter(|s| s.name == name);
        of_name
            .map(|s| match s.value {
                od_obs::Value::Counter(v) => (s.labels[0].1.as_str(), v),
                _ => panic!("{name} is a counter"),
            })
            .collect()
    };
    let requests = by_epoch("od_engine_version_requests_total");
    for series in [&requests, &by_epoch("od_engine_version_scores_total")] {
        let epochs: Vec<&str> = series.iter().map(|s| s.0).collect();
        assert_eq!(epochs, ["100", "older"]);
    }
    assert_eq!(
        requests.iter().map(|s| s.1).sum::<u64>(),
        snap.counter("od_engine_completed_total")
    );
}

/// Publishing into an engine that is tearing down (or already shut down)
/// must neither hang nor panic: the slot swap is independent of the
/// worker pool, so it simply succeeds and the next epoch is visible in
/// `version()` even though nothing will serve it.
#[test]
fn publish_during_teardown_is_safe() {
    let _guard = test_lock();
    let fix = fixture();
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 16,
            coalesce: true,
            fail_point: None,
            stage_timing: true,
            ..EngineConfig::default()
        },
    );
    // Publishes racing shutdown from another thread: both sides must
    // complete, every publish getting a distinct monotone epoch.
    std::thread::scope(|s| {
        let engine = &engine;
        s.spawn(move || {
            for m in &fix.alt_models {
                engine
                    .publish(Arc::clone(m), m.fingerprint())
                    .expect("publish must survive a concurrent shutdown");
            }
        });
        engine.shutdown();
    });
    assert_eq!(engine.stats().publishes, 3);
    assert_eq!(engine.version().epoch, 3);
    // And one more after shutdown is fully done.
    let alt = &fix.alt_models[0];
    let v = engine
        .publish(Arc::clone(alt), alt.fingerprint())
        .expect("publish to a shut-down engine is trivially fine");
    assert_eq!(v.epoch, 4);
}

/// A ticket left unscored at engine teardown (workerless engine) resolves
/// with `Rejected` instead of hanging the caller.
#[test]
fn teardown_resolves_unscored_tickets() {
    let _guard = test_lock();
    let fix = fixture();
    let t: Ticket;
    {
        let engine = Engine::new(
            Arc::clone(&fix.model),
            fix.model.fingerprint(),
            EngineConfig {
                workers: 0,
                queue_capacity: 8,
                max_batch: 8,
                coalesce: true,
                fail_point: None,
                stage_timing: true,
                ..EngineConfig::default()
            },
        );
        t = match engine.submit(fix.groups[0].clone()) {
            Submit::Accepted(t) => t,
            _ => panic!("submit"),
        };
    } // engine dropped with the request still queued
    assert_eq!(t.wait(), Err(ServeError::Rejected));
}

/// The network-path drain regression: a connection thread blocked on a
/// ticket while the engine shuts down must get an answer (`Rejected` →
/// 503), never hang — even when no worker will ever service the queue.
#[test]
fn drain_resolves_tickets_nobody_will_score() {
    let _guard = test_lock();
    let fix = fixture();
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 0,
            queue_capacity: 8,
            max_batch: 8,
            coalesce: true,
            fail_point: None,
            stage_timing: true,
            ..EngineConfig::default()
        },
    );
    let t = match engine.submit(fix.groups[0].clone()) {
        Submit::Accepted(t) => t,
        _ => panic!("submit"),
    };
    // The "connection thread": parked in an unbounded wait on the ticket.
    let waiter = std::thread::spawn(move || t.wait());
    let begin = Instant::now();
    assert!(
        engine.drain(Duration::from_millis(50)),
        "an empty-handed pool settles once the queue is force-drained"
    );
    assert!(
        begin.elapsed() < Duration::from_secs(5),
        "drain must be bounded by its grace window"
    );
    assert_eq!(waiter.join().unwrap(), Err(ServeError::Rejected));
    let stats = engine.stats();
    assert_eq!(stats.drain_rejected, 1);
    // Force-drained requests leave the accounting invariant reconciled.
    assert_eq!(
        stats.submitted,
        stats.completed + stats.expired + stats.panicked_requests + stats.drain_rejected
    );
}

/// Drain with a stalled worker: the claimed batch cannot be answered
/// within the grace window (drain reports `false`), but everything queued
/// *behind* it is force-resolved promptly, and the stalled batch's own
/// ticket still resolves once the worker comes back.
#[test]
fn drain_force_rejects_behind_a_stalled_worker() {
    let _guard = test_lock();
    let fix = fixture();
    let gate = Gate::new();
    let engine = Engine::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 1,
            queue_capacity: 8,
            max_batch: 1,
            coalesce: true,
            fail_point: Some(gate.fail_point()),
            stage_timing: true,
            ..EngineConfig::default()
        },
    );
    let stalled = match engine.submit(fix.groups[0].clone()) {
        Submit::Accepted(t) => t,
        _ => panic!("submit stalled"),
    };
    gate.wait_entered(); // worker holds batch 0, parked at the gate
    let queued = match engine.submit(fix.groups[1].clone()) {
        Submit::Accepted(t) => t,
        _ => panic!("submit queued"),
    };
    let begin = Instant::now();
    assert!(
        !engine.drain(Duration::from_millis(50)),
        "a claimed batch past the grace window reports an unclean drain"
    );
    assert!(begin.elapsed() < Duration::from_secs(5));
    // The request behind the stalled batch was force-resolved, not hung.
    assert_eq!(queued.wait(), Err(ServeError::Rejected));
    assert_eq!(engine.stats().drain_rejected, 1);
    // The stalled batch still resolves (scored, bit-exact) on release.
    gate.release();
    assert_eq!(
        stalled.wait().expect("stalled batch scores"),
        fix.expected[0]
    );
    let stats = engine.stats();
    assert_eq!(
        stats.submitted,
        stats.completed + stats.expired + stats.panicked_requests + stats.drain_rejected
    );
}
