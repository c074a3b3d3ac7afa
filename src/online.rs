//! The online learning loop: drift → retrain → freeze → publish, against
//! a *live* serving funnel.
//!
//! The paper's production story (§V-E) is a week-long A/B test where the
//! deployed model keeps serving while new click data accumulates. This
//! module closes that loop offline: each simulated day, the current
//! artifact serves a user panel through one running
//! [`Funnel`](od_serve::Funnel) — the same retrieve → rank composition
//! `odnet serve` and `odnet recommend` use, so candidates come from the
//! retrieval stage over the *same* frozen tables and requests go through
//! the real queue / worker / coalescing path, not a direct scorer call —
//! the common-random-number click stream from
//! [`AbTestHarness::run_day`](od_data::AbTestHarness::run_day) becomes
//! labeled training data, the trainer folds it in, and the refreshed model
//! is frozen to an `.odz` artifact and hot-published into the *same*
//! funnel via [`Funnel::publish`](od_serve::Funnel::publish), which swaps
//! the engine's model slot and re-keys the retriever together.
//! Every served list carries the generation that retrieved it and the
//! generation that ranked it; the loop refuses (typed `Err`) a list either
//! stage attributed to anything but the round's serving generation, and
//! the per-epoch od-obs counters attribute every request to the artifact
//! generation that scored it.
//!
//! Artifacts are written one file per generation (`gen-000.odz`,
//! `gen-001.odz`, …) and loaded back through
//! [`load_frozen_auto`](od_serve::load_frozen_auto): the funnel serves
//! exactly the mmap'd bytes a production replica would, each generation's
//! [`ArtifactVersion`](od_serve::ArtifactVersion) checksum is the `.odz`
//! header checksum, and no mapped file is ever overwritten in place.
//!
//! Everything is deterministic for a fixed [`OnlineConfig`]: panels and
//! click coins come from `ab_seed` (common random numbers — two runs that
//! serve the same lists see the same clicks), dataset and model init from
//! `seed`, and single-threaded trainer workers keep the weight updates
//! reproducible. See DESIGN.md §13.

use od_data::{AbTestConfig, AbTestHarness, FliggyConfig, FliggyDataset, Impression, OdSample};
use od_serve::{ArtifactVersion, EngineConfig, Funnel, FunnelConfig, Recommendation};
use odnet_core::{try_train, FeatureExtractor, GroupInput, OdNetModel, OdnetConfig, Variant};
use std::path::PathBuf;
use std::sync::Arc;

/// Configuration of one online-learning simulation.
#[derive(Clone, Debug)]
pub struct OnlineConfig {
    /// Users in the synthetic world.
    pub users: usize,
    /// Cities in the synthetic world.
    pub cities: usize,
    /// Dataset / model-init seed.
    pub seed: u64,
    /// Click-simulator seed (panel sampling + common-random-number click
    /// coins). Independent of `seed` so the same world can be replayed
    /// under different traffic.
    pub ab_seed: u64,
    /// Simulated days; each day ends with a retrain + publish.
    pub rounds: u32,
    /// Users served per day.
    pub panel: usize,
    /// List length served per user (impressions per user per day).
    pub top_k: usize,
    /// Recalled OD candidates ranked per request.
    pub recall: usize,
    /// Trainer epochs folded in per round.
    pub epochs_per_round: usize,
    /// Trainer epochs for the initial (pre-deployment) fit.
    pub initial_epochs: usize,
    /// Engine worker threads.
    pub workers: usize,
    /// Directory the per-generation `.odz` artifacts are written to.
    pub out_dir: PathBuf,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            users: 60,
            cities: 15,
            seed: 0xF11667,
            ab_seed: 0xAB7E57,
            rounds: 3,
            panel: 40,
            top_k: 5,
            recall: 24,
            epochs_per_round: 1,
            initial_epochs: 2,
            workers: 2,
            out_dir: PathBuf::from("target/online"),
        }
    }
}

/// One simulated day's metrics — one JSONL row in `--metrics-jsonl`.
#[derive(Clone, Debug, serde::Serialize)]
pub struct RoundMetrics {
    /// Round index (0-based).
    pub round: u32,
    /// Absolute simulation day served.
    pub day: u32,
    /// Artifact generation that served this day's panel.
    pub serving_epoch: u64,
    /// Its `.odz` header checksum.
    pub serving_checksum: u32,
    /// Impressions served this day.
    pub impressions: u64,
    /// Clicks received this day.
    pub clicks: u64,
    /// The day's CTR.
    pub ctr: f64,
    /// Labeled training groups folded in so far (base + click feedback).
    pub train_groups: usize,
    /// Final-epoch mean loss of the post-day retrain.
    pub train_loss: f32,
    /// Generation published after the retrain (serves round + 1).
    pub published_epoch: u64,
    /// Its `.odz` header checksum.
    pub published_checksum: u32,
    /// Traces the tail sampler kept in the ring this round.
    pub trace_sampled: u64,
    /// Trace id (16 hex digits) of the round's slowest request — the
    /// handle to pull its span tree from the ring.
    pub trace_slowest_id: String,
    /// End-to-end duration of that slowest request in nanoseconds.
    pub trace_max_e2e_ns: u64,
}

impl RoundMetrics {
    /// The row as one JSON line.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("round metrics serialize")
    }
}

/// What [`run_online`] hands back.
#[derive(Clone, Debug, serde::Serialize)]
pub struct OnlineReport {
    /// Per-round metrics, in order.
    pub rounds: Vec<RoundMetrics>,
    /// CTR across the whole simulation.
    pub overall_ctr: f64,
    /// Generations published into the live engine (one per round).
    pub publishes: u64,
    /// The engine's final artifact version.
    pub final_version: ArtifactVersion,
}

/// Run the full loop. Returns per-round metrics; artifacts land in
/// `config.out_dir`, engine/version series in the process-global od-obs
/// registry.
pub fn run_online(config: &OnlineConfig) -> Result<OnlineReport, String> {
    if config.rounds == 0 || config.panel == 0 || config.top_k == 0 {
        return Err("rounds, panel, and top-k must all be at least 1".into());
    }
    std::fs::create_dir_all(&config.out_dir)
        .map_err(|e| format!("creating {:?}: {e}", config.out_dir))?;

    let ds = Arc::new(FliggyDataset::generate(FliggyConfig {
        num_users: config.users,
        num_cities: config.cities,
        seed: config.seed,
        ..FliggyConfig::tiny()
    }));
    // Graph-free variant: freezing is a table snapshot, so the per-round
    // retrain → freeze → publish cycle stays cheap (no HSG rebuild).
    let mut model_config = OdnetConfig::tiny();
    model_config.epochs = config.initial_epochs.max(1);
    // One trainer worker keeps weight updates bit-reproducible across runs.
    model_config.workers = 1;
    let fx = FeatureExtractor::new(model_config.max_long_seq, model_config.max_short_seq);
    let mut model = OdNetModel::new(
        Variant::OdnetG,
        model_config,
        ds.world.num_users(),
        ds.world.num_cities(),
        None,
    );
    let mut pool: Vec<GroupInput> = fx.groups_from_samples(&ds, &ds.train);
    try_train(&mut model, &pool).map_err(|e| e.to_string())?;

    // Generation 0: freeze, write, and serve the mmap'd bytes — the same
    // artifact path a production replica cold-starts from.
    let loaded = freeze_to_generation(&model, &config.out_dir, 0)?;
    let featurize = crate::serving_featurizer(&loaded.frozen, Arc::clone(&ds))?;
    let funnel = Funnel::new(
        Arc::new(loaded.frozen),
        loaded.checksum,
        EngineConfig {
            workers: config.workers.max(1),
            ..EngineConfig::default()
        },
        FunnelConfig::default(),
    );

    // The test window starts where training data ends: histories keep
    // growing across it while the model's temporal statistics stay frozen
    // at the training horizon — exactly the drift an online loop corrects.
    let harness = AbTestHarness::new(
        &ds.world,
        AbTestConfig {
            days: config.rounds,
            users_per_day: config.panel,
            top_k: config.top_k,
            start_day: ds.train_end_day(),
            seed: config.ab_seed,
        },
    )
    .with_histories(&ds.histories);

    // Per-round trace accounting: the loop is the root of the pipeline
    // here (no HTTP tier), so it opens a trace per panel request and the
    // JSONL rows carry each round's sampled count and slowest request.
    let tracer = od_obs::trace::global();
    if !tracer.enabled() {
        tracer.enable(od_obs::trace::TraceConfig::default());
    }
    tracer.take_slowest();

    let mut rounds = Vec::with_capacity(config.rounds as usize);
    let (mut total_clicks, mut total_impressions) = (0u64, 0u64);
    for r in 0..config.rounds {
        let serving = funnel.engine().version();
        let kept_before = tracer.stats().kept;
        // `run_day` wants a list per user; the first failed request ends
        // the round and is returned once the day's closure is done.
        let mut failed = None;
        let (outcome, impressions) = harness.run_day(r, |user, day, k| {
            if failed.is_some() {
                return Vec::new();
            }
            let ctx = tracer.begin(&format!("online-d{day}-u{}", user.index()));
            let t0 = od_obs::clock::now();
            let served = funnel
                .recommend_traced(user, config.recall, None, ctx, |pairs| {
                    featurize(user, day, pairs)
                })
                .map_err(|e| format!("serving user {} on day {day}: {e}", user.index()))
                .and_then(|rec| served_by(rec, serving));
            tracer.end(ctx, "request", t0, od_obs::clock::now(), served.is_err());
            match served {
                Ok(rec) => rec
                    .pairs
                    .iter()
                    .take(k)
                    .map(|p| (p.origin, p.dest))
                    .collect(),
                Err(e) => {
                    failed = Some(e);
                    Vec::new()
                }
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        total_clicks += outcome.clicks;
        total_impressions += outcome.impressions;
        let trace_sampled = tracer.stats().kept - kept_before;
        let (trace_max_e2e_ns, slowest_id) = tracer.take_slowest();

        // Feedback → labels: clicked slots are positives for both the
        // origin and destination towers, unclicked slots negatives.
        let feedback: Vec<OdSample> = impressions.iter().map(impression_to_sample).collect();
        pool.extend(fx.groups_from_samples(&ds, &feedback));
        model.config.epochs = config.epochs_per_round.max(1);
        let report = try_train(&mut model, &pool).map_err(|e| e.to_string())?;

        // One publish moves both stages: the engine swaps its model slot
        // and the retriever moves to the same tables, so the next day's
        // candidates come from the generation that ranks them.
        let loaded = freeze_to_generation(&model, &config.out_dir, u64::from(r) + 1)?;
        let published = funnel
            .publish(Arc::new(loaded.frozen), loaded.checksum)
            .map_err(|e| e.to_string())?;

        rounds.push(RoundMetrics {
            round: r,
            day: harness.config().start_day + r,
            serving_epoch: serving.epoch,
            serving_checksum: serving.checksum,
            impressions: outcome.impressions,
            clicks: outcome.clicks,
            ctr: outcome.ctr(),
            train_groups: pool.len(),
            train_loss: report.epoch_losses.last().copied().unwrap_or(f32::NAN),
            published_epoch: published.epoch,
            published_checksum: published.checksum,
            trace_sampled,
            trace_slowest_id: od_obs::trace::hex_id(slowest_id),
            trace_max_e2e_ns,
        });
    }

    Ok(OnlineReport {
        rounds,
        overall_ctr: od_data::ctr(total_clicks, total_impressions),
        publishes: funnel.engine().health().publishes,
        final_version: funnel.engine().version(),
    })
}

/// A served list counts for a round only if both funnel stages ran on the
/// generation the round is attributed to. The loop serves between
/// publishes, so anything else means a request bypassed the funnel's
/// swap protocol — an error, not a skipped user.
fn served_by(rec: Recommendation, serving: ArtifactVersion) -> Result<Recommendation, String> {
    if rec.retrieved_by == serving && rec.ranked_by == serving {
        return Ok(rec);
    }
    Err(format!(
        "round serves generation {serving:?} but the list was retrieved by {:?} and ranked by {:?}",
        rec.retrieved_by, rec.ranked_by
    ))
}

/// Freeze the live model, write generation `gen` as its own `.odz` file
/// (never overwriting a previously mapped one), and load it back mmap'd
/// with its header checksum.
fn freeze_to_generation(
    model: &OdNetModel,
    out_dir: &std::path::Path,
    gen: u64,
) -> Result<od_serve::LoadedArtifact, String> {
    let path = out_dir.join(format!("gen-{gen:03}.odz"));
    model
        .freeze()
        .save_bin(&path)
        .map_err(|e| format!("writing {path:?}: {e}"))?;
    od_serve::load_frozen_auto(&path).map_err(|e| format!("loading {path:?}: {e}"))
}

/// One served list slot as a labeled training sample.
fn impression_to_sample(imp: &Impression) -> OdSample {
    let label = if imp.clicked { 1.0 } else { 0.0 };
    OdSample {
        user: imp.user,
        day: imp.day,
        origin: imp.origin,
        dest: imp.dest,
        label_o: label,
        label_d: label,
    }
}

#[allow(clippy::unwrap_used)]
#[cfg(test)]
mod tests {
    use super::*;

    fn test_config(dir: &str) -> OnlineConfig {
        OnlineConfig {
            users: 40,
            cities: 12,
            rounds: 2,
            panel: 10,
            top_k: 3,
            recall: 16,
            epochs_per_round: 1,
            initial_epochs: 1,
            workers: 2,
            out_dir: std::env::temp_dir().join(dir),
            ..OnlineConfig::default()
        }
    }

    #[test]
    fn loop_publishes_once_per_round_and_serves_every_slot() {
        let config = test_config("odnet-online-test");
        let report = run_online(&config).unwrap();
        assert_eq!(report.rounds.len(), 2);
        assert_eq!(report.publishes, 2);
        assert_eq!(report.final_version.epoch, 2);
        for (i, round) in report.rounds.iter().enumerate() {
            // Day r is served by generation r; generation r + 1 is
            // published from its clicks.
            assert_eq!(round.serving_epoch, i as u64);
            assert_eq!(round.published_epoch, i as u64 + 1);
            assert_eq!(round.impressions, (config.panel * config.top_k) as u64);
            assert!((0.0..=1.0).contains(&round.ctr));
            assert!(round.train_loss.is_finite());
            // Each generation exists as its own on-disk artifact.
            let path = config.out_dir.join(format!("gen-{:03}.odz", i + 1));
            assert!(path.exists(), "missing {path:?}");
        }
        // Click feedback actually grew the training pool.
        assert!(report.rounds[1].train_groups > report.rounds[0].train_groups);
        // Trace stats: every round served requests, so each row carries a
        // slowest-request duration and a 16-hex trace id; the tail
        // sampler kept at least one trace somewhere across the run.
        for round in &report.rounds {
            assert!(round.trace_max_e2e_ns > 0);
            assert_eq!(round.trace_slowest_id.len(), 16);
        }
        assert!(report.rounds.iter().any(|r| r.trace_sampled > 0));
        // JSONL rows serialize.
        for round in &report.rounds {
            let row = round.to_json();
            assert!(row.contains("\"serving_epoch\""));
            assert!(row.contains("\"trace_slowest_id\""));
        }
        // The rows the hand-rolled retrieve → engine → blend → sort loop
        // wrote for this config before the loop served through `Funnel`
        // (every field but the `trace_*` timings): same lists, same
        // clicks, same retrained bytes. A change to training or freezing
        // numerics moves these on purpose; re-record them from
        // `odnet online --metrics-jsonl` with this config's flags.
        let stable: Vec<_> = report
            .rounds
            .iter()
            .map(|r| {
                let checksums = (r.serving_checksum, r.published_checksum);
                (r.clicks, r.train_groups, r.train_loss, checksums)
            })
            .collect();
        let recorded = [
            (0, 119, 0.326_395_72, (749_779_138, 2_571_227_427)),
            (1, 128, 0.291_927_5, (2_571_227_427, 1_300_512_766)),
        ];
        assert_eq!(stable, recorded);
    }

    /// The funnel stamps both stages of every list; the loop must refuse a
    /// list that either stage attributes to another generation.
    #[test]
    fn a_list_from_another_generation_is_an_error_not_a_served_slot() {
        let serving = ArtifactVersion {
            epoch: 1,
            checksum: 0xBEEF,
        };
        let stale = ArtifactVersion {
            epoch: 0,
            checksum: 0xF00D,
        };
        let list = |retrieved_by, ranked_by| Recommendation {
            pairs: Vec::new(),
            retrieval: Default::default(),
            retrieved_by,
            ranked_by,
        };
        assert!(served_by(list(serving, serving), serving).is_ok());
        for rec in [list(stale, serving), list(serving, stale)] {
            let err = served_by(rec, serving).unwrap_err();
            assert!(
                err.contains("epoch: 0"),
                "error names the generation: {err}"
            );
        }
    }
}
