//! The full serving funnel: retrieve → rank.
//!
//! A [`Funnel`] puts an [`od_retrieval::Retriever`] (the candidate
//! generator) in front of the micro-batching [`Engine`] (the ranker). A
//! request names only a user and `k`; the funnel retrieves the best `k`
//! OD pairs out of the whole city universe from the frozen embedding
//! tables, hands them to the caller's featurizer to build the ranking
//! [`GroupInput`], scores them through the engine, and returns pairs
//! re-ranked by the full personalized model.
//!
//! # One generation slot
//!
//! The engine's model slot is the only one. Each request loads the live
//! generation from it and retrieves over that generation's tables, so
//! [`Funnel::publish`] is a plain [`Engine::publish`] and retrieval can
//! never be left behind by a publish. A publish that lands between
//! retrieval and ranking makes a response retrieved by one generation
//! and ranked by the next; a [`Recommendation`] carries **both** stamps
//! so callers can attribute each stage exactly — `tests/funnel.rs` pins
//! this down.
//!
//! # Observability
//!
//! The funnel owns the `od_retrieval_*` series (see
//! [`FunnelMetrics`](struct@FunnelMetrics)): per-stage timing histograms
//! (scan/select), a pair-sums-computed counter and tier-labeled request
//! counters. Both tiers return the exact top-k, so there is no recall to
//! watch.

use crate::engine::{Engine, EngineConfig, Submit};
use crate::error::ServeError;
use crate::handle::ArtifactVersion;
use od_hsg::{CityId, UserId};
use od_obs::trace::{self, TraceContext, NO_ATTRS};
use od_obs::{global, Counter, LatencyHistogram};
use od_retrieval::{RetrievalConfig, RetrievalStats, Retriever, Tier};
use od_tensor::SimdLevel;
use odnet_core::{FrozenOdNet, GroupInput};
use std::sync::Arc;

/// Funnel tuning: the retrieval configuration plus the tier served.
#[derive(Clone, Copy, Debug)]
pub struct FunnelConfig {
    /// Retrieval stage configuration (SIMD level).
    pub retrieval: RetrievalConfig,
    /// Tier served by [`Funnel::recommend`]. Both return the same pairs;
    /// `Pruned` computes far fewer pair sums.
    pub tier: Tier,
    /// Inert: nothing reads it but `benchmark/`'s echo of the server
    /// configuration, which a product change may not edit. There is no
    /// recall probe — both tiers are exact.
    pub recall_probe_every: u64,
}

impl Default for FunnelConfig {
    fn default() -> Self {
        FunnelConfig {
            retrieval: RetrievalConfig::default(),
            tier: Tier::Pruned,
            recall_probe_every: 64,
        }
    }
}

/// One funnel answer: pairs ranked by the full model, with per-stage
/// attribution.
#[derive(Clone, Debug)]
pub struct Recommendation {
    /// Pairs in final rank order (ranker score descending, pair index
    /// ascending on ties).
    pub pairs: Vec<RankedPair>,
    /// Cost accounting of the retrieval stage.
    pub retrieval: RetrievalStats,
    /// Generation whose tables produced the candidate set.
    pub retrieved_by: ArtifactVersion,
    /// Generation whose ranker scored it (can differ mid-swap).
    pub ranked_by: ArtifactVersion,
}

/// One OD pair after the full funnel.
#[derive(Clone, Copy, Debug)]
pub struct RankedPair {
    /// Origin city.
    pub origin: CityId,
    /// Destination city.
    pub dest: CityId,
    /// Separable retrieval-stage score (candidate-generation order).
    pub retrieval_score: f32,
    /// Ranker origin-task probability `p^O`.
    pub p_origin: f32,
    /// Ranker destination-task probability `p^D`.
    pub p_dest: f32,
    /// Final blended score `θ·p^O + (1−θ)·p^D` — the rank key — under the
    /// θ of the generation that ranked (`ranked_by`).
    pub rank_score: f32,
}

/// The `od_retrieval_*` instrument set (one per funnel; same-name series
/// merge at snapshot time like the engine's).
struct FunnelMetrics {
    requests_exact: Counter,
    requests_pruned: Counter,
    scanned: Counter,
    scan_ns: LatencyHistogram,
    select_ns: LatencyHistogram,
}

impl FunnelMetrics {
    fn register() -> FunnelMetrics {
        let reg = global();
        let requests = |tier: &str| {
            reg.counter_with(
                "od_retrieval_requests_total",
                "Retrieval-stage queries served, by tier",
                &[("tier", tier)],
            )
        };
        FunnelMetrics {
            requests_exact: requests("exact"),
            requests_pruned: requests("pruned"),
            scanned: reg.counter(
                "od_retrieval_scanned_total",
                "OD pair sums computed by retrieval top-k selection",
            ),
            scan_ns: reg.histogram(
                "od_retrieval_scan_ns",
                "Affinity GEMV time over the candidate tables",
            ),
            select_ns: reg.histogram("od_retrieval_select_ns", "Top-k pair selection time"),
        }
    }

    fn record(&self, tier: Tier, stats: &RetrievalStats) {
        match tier {
            Tier::Exact => self.requests_exact.inc(),
            Tier::Pruned => self.requests_pruned.inc(),
        }
        self.scanned.add(stats.scanned);
        self.scan_ns.record(stats.scan_ns);
        self.select_ns.record(stats.select_ns);
    }
}

/// Retrieve → rank over the engine's hot-swappable artifact slot.
pub struct Funnel {
    engine: Engine,
    config: FunnelConfig,
    /// `config.retrieval.level`, resolved once.
    level: SimdLevel,
    num_users: usize,
    metrics: FunnelMetrics,
}

impl Funnel {
    /// Build the full funnel around a first artifact generation,
    /// published into the engine under `checksum` (see [`Engine::new`]).
    pub fn new(
        model: Arc<FrozenOdNet>,
        checksum: u32,
        engine_config: EngineConfig,
        config: FunnelConfig,
    ) -> Funnel {
        let num_users = model.num_users();
        Funnel {
            engine: Engine::new(model, checksum, engine_config),
            config,
            level: config.retrieval.level.unwrap_or_else(SimdLevel::detect),
            num_users,
            metrics: FunnelMetrics::register(),
        }
    }

    /// The ranking engine (submit raw groups, read stats, …).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The funnel's configuration.
    pub fn config(&self) -> &FunnelConfig {
        &self.config
    }

    /// Users in the artifact universe — the admission bound for
    /// [`recommend`](Self::recommend) callers (the HTTP tier validates
    /// ids against this before retrieval, which would panic on an
    /// out-of-universe user). Fixed across publishes: the publish
    /// contract refuses universe changes.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Publish a new artifact generation: [`Engine::publish`]. The next
    /// request retrieves and ranks on it.
    pub fn publish(
        &self,
        model: Arc<FrozenOdNet>,
        checksum: u32,
    ) -> Result<ArtifactVersion, crate::error::PublishError> {
        self.engine.publish(model, checksum)
    }

    /// Serve one full-funnel request: retrieve the best `k` OD pairs for
    /// `user`, featurize them through `make_group` (the caller owns
    /// history/context — candidates arrive in retrieval order and must
    /// be passed through in that order), rank with the engine, and
    /// return pairs in final rank order.
    pub fn recommend<F>(
        &self,
        user: UserId,
        k: usize,
        make_group: F,
    ) -> Result<Recommendation, ServeError>
    where
        F: FnOnce(&[od_retrieval::ScoredPair]) -> GroupInput,
    {
        self.recommend_traced(user, k, None, TraceContext::NONE, make_group)
    }

    /// [`recommend`](Self::recommend) with a deadline and a trace context
    /// — the general form the HTTP tier calls. The ranking submit carries
    /// `deadline` into [`Engine::submit_traced`] (still-queued work is
    /// dropped at drain past the deadline) and the ticket wait is bounded
    /// by it, so a caller — in particular an HTTP connection thread — is
    /// never parked past `deadline` even when the engine is stalled;
    /// `None` falls back to the unbounded wait. With an active `ctx` the
    /// retrieval stage records a `retrieval` span with
    /// `scan`/`select` children synthesized from
    /// [`RetrievalStats`], and the ranking submit threads the context
    /// into the engine so one trace shows the whole funnel. Pass
    /// [`TraceContext::NONE`] when untraced.
    pub fn recommend_traced<F>(
        &self,
        user: UserId,
        k: usize,
        deadline: Option<std::time::Instant>,
        ctx: TraceContext,
        make_group: F,
    ) -> Result<Recommendation, ServeError>
    where
        F: FnOnce(&[od_retrieval::ScoredPair]) -> GroupInput,
    {
        // The live generation, held for this request only: retrieval runs
        // on its tables and `retrieved_by` names it.
        let slot = self.engine.live();
        let retriever = Retriever::build(
            Arc::clone(&slot.model),
            RetrievalConfig {
                level: Some(self.level),
            },
        );
        let tier = self.config.tier;
        let ret_start = ctx.is_active().then(od_obs::clock::now);
        let retrieved = retriever.top_k(user, k, tier);
        if let Some(t0) = ret_start {
            let t1 = od_obs::clock::now();
            let tracer = trace::global();
            let parent = tracer.record_full(
                ctx,
                "retrieval",
                t0,
                t1,
                0,
                false,
                [
                    ("scanned", retrieved.stats.scanned),
                    ("epoch", slot.version.epoch),
                ],
            );
            // The stage durations were measured inside top_k; lay them
            // out sequentially from the span's start, clamped into the
            // parent interval (the two clocks — Instant inside, TSC
            // outside — can disagree by calibration error).
            let sub = ctx.child(parent);
            let p0 = tracer.since_epoch_ns(t0);
            let p_dur = od_obs::clock::ns_between(t0, t1);
            let mut off = 0u64;
            for (name, dur) in retrieved.stats.stages() {
                if dur == 0 {
                    continue;
                }
                let start = off.min(p_dur);
                let len = dur.min(p_dur - start);
                tracer.record_ext(sub, name, p0 + start, len, 0, false, NO_ATTRS);
                off = start + len;
            }
        }
        self.metrics.record(tier, &retrieved.stats);

        if retrieved.pairs.is_empty() {
            return Ok(Recommendation {
                pairs: Vec::new(),
                retrieval: retrieved.stats,
                retrieved_by: slot.version,
                ranked_by: slot.version,
            });
        }

        let group = make_group(&retrieved.pairs);
        debug_assert_eq!(
            group.candidates.len(),
            retrieved.pairs.len(),
            "featurizer must keep the retrieved candidate order"
        );
        let ticket = match self.engine.submit_traced(group, deadline, ctx) {
            Submit::Accepted(t) => t,
            Submit::Rejected(_) => return Err(ServeError::Rejected),
            Submit::Invalid { error, .. } => return Err(ServeError::InvalidInput(error)),
        };
        let response = ticket.wait_versioned(deadline)?;

        // Blend with the θ of the generation that produced the
        // probabilities: a publish between retrieval and submit makes the
        // ranker newer than the retriever, and Eq. 11 is a statement
        // about one model.
        let theta = response.theta;
        let mut pairs: Vec<RankedPair> = retrieved
            .pairs
            .iter()
            .zip(&response.scores)
            .map(|(p, &(p_origin, p_dest))| RankedPair {
                origin: p.origin,
                dest: p.dest,
                retrieval_score: p.score,
                p_origin,
                p_dest,
                rank_score: theta * p_origin + (1.0 - theta) * p_dest,
            })
            .collect();
        // `(origin, dest)` is unique, so the key is total and an unstable
        // sort (no merge buffer) gives the one order there is.
        pairs.sort_unstable_by(|x, y| {
            y.rank_score
                .total_cmp(&x.rank_score)
                .then_with(|| (x.origin.0, x.dest.0).cmp(&(y.origin.0, y.dest.0)))
        });

        Ok(Recommendation {
            pairs,
            retrieval: retrieved.stats,
            retrieved_by: slot.version,
            ranked_by: response.version,
        })
    }

    /// Shut the funnel down (drains the engine's workers).
    pub fn shutdown(&self) {
        self.engine.shutdown();
    }

    /// Bounded shutdown: delegate to [`Engine::drain`] so every ticket
    /// held by a caller resolves within `grace` (see the engine docs for
    /// the force-reject semantics). Returns whether the drain was clean.
    pub fn drain(&self, grace: std::time::Duration) -> bool {
        self.engine.drain(grace)
    }
}
