//! The versioned, atomically swappable model slot at the engine's core.
//!
//! PR 3–6 pinned one `Arc<FrozenOdNet>` into the engine for its whole
//! lifetime; production retrains and redeploys under live traffic, so the
//! engine's central invariant becomes: **workers load the model once per
//! batch drain**. A [`ModelHandle`] holds the current [`VersionSlot`]
//! behind a short critical section (two refcount ops — ArcSwap-style
//! semantics on the dependency-free `sync.rs` primitives):
//!
//! - a drain that started before a publish finishes on the artifact it
//!   loaded (it holds its own strong reference),
//! - the next drain — and the next admission validation — observes the
//!   new epoch,
//! - the retired artifact is kept on a grace list and dropped only after
//!   [`grace`](ModelHandle::new) has elapsed, so the publisher never pays
//!   a multi-GB deallocation inside the swap and any reader that loaded
//!   just before the swap has long finished by the time memory goes away.
//!
//! Every slot carries an [`ArtifactVersion`] — a monotone publish epoch
//! plus the artifact's FNV checksum (the `.odz` header's meta checksum for
//! on-disk artifacts, [`FrozenOdNet::fingerprint`] for in-memory ones) —
//! and a pair of per-epoch od-obs counters, so CTR/AUC and request volume
//! can be attributed to the exact model that served each request. Only a
//! generation that can still score (live, inside its grace period, or held
//! by a batch in flight) has an `epoch="N"` label of its own: when its
//! slot is finally dropped the counts fold into `epoch="older"` and the
//! entries leave the registry, so a process that publishes every second
//! exposes a handful of series, not one pair per publish.

use crate::error::PublishError;
use crate::sync;
use od_obs::Counter;
use odnet_core::FrozenOdNet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Identity of one published model generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct ArtifactVersion {
    /// Monotone publish sequence number: the construction-time model is
    /// epoch 0, each successful [`Engine::publish`](crate::Engine::publish)
    /// increments it by one.
    pub epoch: u64,
    /// FNV-1a content checksum of the artifact: the `.odz` header's meta
    /// checksum when loaded from disk, [`FrozenOdNet::fingerprint`] for
    /// in-memory artifacts. Two epochs with equal checksums served
    /// identical models.
    pub checksum: u32,
}

/// The `od_engine_version_{requests,scores}_total` pair of one `epoch`
/// label value.
#[derive(Clone)]
pub(crate) struct VersionCounters {
    /// `od_engine_version_requests_total{epoch=…}`
    pub requests: Counter,
    /// `od_engine_version_scores_total{epoch=…}`
    pub scores: Counter,
}

impl VersionCounters {
    /// Register the pair in the global registry (same-label series of
    /// several engines merge at snapshot like every other series).
    fn register(epoch: &str) -> VersionCounters {
        let reg = od_obs::global();
        let labels: &[(&str, &str)] = &[("epoch", epoch)];
        VersionCounters {
            requests: reg.counter_with(
                "od_engine_version_requests_total",
                "Requests answered, by artifact publish epoch",
                labels,
            ),
            scores: reg.counter_with(
                "od_engine_version_scores_total",
                "Candidate scores produced, by artifact publish epoch",
                labels,
            ),
        }
    }
}

/// One published model generation: the artifact, its identity, and the
/// per-epoch attribution counters.
pub(crate) struct VersionSlot {
    pub version: ArtifactVersion,
    pub model: Arc<FrozenOdNet>,
    pub counts: VersionCounters,
    /// The engine's `epoch="older"` pair, which inherits `counts` on drop.
    older: VersionCounters,
}

impl Drop for VersionSlot {
    fn drop(&mut self) {
        let reg = od_obs::global();
        reg.fold_counter(&self.counts.requests, &self.older.requests);
        reg.fold_counter(&self.counts.scores, &self.older.scores);
    }
}

/// The swappable slot. See the module docs for the protocol.
pub(crate) struct ModelHandle {
    /// The live generation. The lock is held only to clone or replace the
    /// `Arc` — never across scoring.
    current: Mutex<Arc<VersionSlot>>,
    /// Generations swapped out but not yet reclaimed: `(retired_at, slot)`.
    retired: Mutex<Vec<(Instant, Arc<VersionSlot>)>>,
    /// Mirror of `retired.len()`, so the per-drain reap check is one
    /// relaxed load instead of a lock acquisition.
    retired_count: AtomicUsize,
    grace: Duration,
    older: VersionCounters,
}

impl ModelHandle {
    /// A handle whose live generation is `model` at epoch 0.
    pub(crate) fn new(model: Arc<FrozenOdNet>, checksum: u32, grace: Duration) -> ModelHandle {
        model.prepare();
        let older = VersionCounters::register("older");
        ModelHandle {
            current: Mutex::new(Self::slot(model, 0, checksum, &older)),
            retired: Mutex::new(Vec::new()),
            retired_count: AtomicUsize::new(0),
            grace,
            older,
        }
    }

    fn slot(
        model: Arc<FrozenOdNet>,
        epoch: u64,
        checksum: u32,
        older: &VersionCounters,
    ) -> Arc<VersionSlot> {
        Arc::new(VersionSlot {
            version: ArtifactVersion { epoch, checksum },
            model,
            counts: VersionCounters::register(&epoch.to_string()),
            older: older.clone(),
        })
    }

    /// Clone out the live generation. Callers hold their own strong
    /// reference for as long as they score against it, so a concurrent
    /// publish never invalidates a batch in flight.
    pub(crate) fn load(&self) -> Arc<VersionSlot> {
        Arc::clone(&sync::lock(&self.current))
    }

    /// Snapshot the live version without cloning the slot.
    pub(crate) fn version(&self) -> ArtifactVersion {
        sync::lock(&self.current).version
    }

    /// Swap in a new generation. Serialized on the `current` lock, so
    /// concurrent publishers get distinct, monotone epochs. The outgoing
    /// generation moves to the grace list; the publisher pays no
    /// deallocation.
    pub(crate) fn publish(
        &self,
        model: Arc<FrozenOdNet>,
        checksum: u32,
    ) -> Result<ArtifactVersion, PublishError> {
        // The publisher builds the artifact's derived forward state, before
        // the lock: readers never meet a half-warm generation and the
        // critical section stays a pointer swap.
        model.prepare();
        let mut cur = sync::lock(&self.current);
        check_compatible(&cur.model, &model)?;
        let slot = Self::slot(model, cur.version.epoch + 1, checksum, &self.older);
        let version = slot.version;
        let old = std::mem::replace(&mut *cur, slot);
        drop(cur);
        {
            let mut retired = sync::lock(&self.retired);
            retired.push((Instant::now(), old));
            self.retired_count.store(retired.len(), Ordering::Release);
        }
        self.reap();
        Ok(version)
    }

    /// Drop every retired generation whose grace period has elapsed.
    /// Called per batch drain (cheap: one relaxed load when nothing is
    /// retired) and per publish.
    pub(crate) fn reap(&self) {
        if self.retired_count.load(Ordering::Acquire) == 0 {
            return;
        }
        let now = Instant::now();
        let mut retired = sync::lock(&self.retired);
        retired.retain(|(at, _)| now.duration_since(*at) < self.grace);
        self.retired_count.store(retired.len(), Ordering::Release);
    }

    /// Retired generations still inside their grace period.
    pub(crate) fn retired_len(&self) -> usize {
        self.retired_count.load(Ordering::Acquire)
    }
}

/// A published artifact must be drop-in compatible with the live one:
/// requests are validated at admission against the generation live *then*,
/// but may be scored by any later generation, so the id universe and the
/// sequence-length contract must agree or a queued request could index out
/// of the new tables.
fn check_compatible(live: &FrozenOdNet, offered: &FrozenOdNet) -> Result<(), PublishError> {
    if live.num_users() != offered.num_users() || live.num_cities() != offered.num_cities() {
        return Err(PublishError::UniverseMismatch {
            live_users: live.num_users(),
            live_cities: live.num_cities(),
            offered_users: offered.num_users(),
            offered_cities: offered.num_cities(),
        });
    }
    let (lc, oc) = (live.config(), offered.config());
    if lc.max_long_seq != oc.max_long_seq || lc.max_short_seq != oc.max_short_seq {
        return Err(PublishError::SequenceContractMismatch {
            live_long: lc.max_long_seq,
            live_short: lc.max_short_seq,
            offered_long: oc.max_long_seq,
            offered_short: oc.max_short_seq,
        });
    }
    Ok(())
}
