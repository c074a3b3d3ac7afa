//! The frozen inference artifact — the serving half of the train/serve
//! split.
//!
//! The paper trains ODNET offline (on PAI) and serves it online at Fliggy;
//! [`FrozenOdNet`] is that deployment boundary. [`crate::OdNetModel::freeze`]
//! produces it by:
//!
//! - materializing the HSGC's depth-`K` user/city embeddings for both
//!   branches into dense tables (Algorithm 1's K-step aggregation collapses
//!   to a row lookup at serving time),
//! - extracting PEC/MMoE/tower weights from the `ParamStore` into plain
//!   row-major matrices, and
//! - recording the learned loss weight θ as a plain scalar.
//!
//! Scoring then runs the tape-free forward from `od_tensor::infer`: no
//! `Graph`, no `Value`s, and — once the [`Workspace`] pool is warm — no
//! per-request allocation. Every kernel mirrors the live forward op for op,
//! so frozen scores are bit-identical to the live tape, and both are held
//! to an independent `f64` reference (see `tests/frozen_equivalence.rs`).
//!
//! This is also the one ODNET [`OdScorer`]: every offline number — the
//! paper-table binaries, `odnet eval`, the examples — is computed by
//! evaluating `model.freeze()`, i.e. the artifact that would be served.
//! The only persisted form is `.odz` ([`crate::artifact`]); a training
//! checkpoint holds weights, and reaches an artifact through
//! [`OdNetModel::load_json`](crate::OdNetModel::load_json) + `freeze()`.

use crate::artifact::Table;
use crate::config::OdnetConfig;
use crate::eval::OdScorer;
use crate::features::GroupInput;
use crate::intent::FrozenIntent;
use crate::mmoe::{FrozenMmoeHead, FrozenSingleHead};
use crate::model::{CheckpointError, Variant};
use crate::pec::FrozenPec;
use od_hsg::CityId;
use od_tensor::infer::Workspace;
use od_tensor::stable_sigmoid;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// One frozen branch: dense embedding tables (already depth-`K` aggregated
/// for graph variants) plus the frozen PEC and optional intent module.
/// The tables are [`Table`]s so they can be owned (`freeze()` / binary read)
/// or borrowed zero-copy from an mmap'd `.odz` file — scoring never copies.
#[derive(Clone, Debug)]
pub(crate) struct FrozenBranch {
    /// `num_users×d` final user embeddings.
    pub(crate) users: Table,
    /// `num_cities×d` final city embeddings.
    pub(crate) cities: Table,
    pub(crate) pec: FrozenPec,
    pub(crate) intent: Option<FrozenIntent>,
}

/// The frozen scoring head. The MMoE variant is boxed: it carries experts,
/// two gates, and two towers, dwarfing the single-task pair of towers.
/// (De)serializable because it rides in the `.odz` meta block.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) enum FrozenHead {
    Joint(Box<FrozenMmoeHead>),
    Single(FrozenSingleHead),
}

/// An immutable, tape-free serving artifact produced by
/// [`crate::OdNetModel::freeze`].
#[derive(Clone, Debug)]
pub struct FrozenOdNet {
    pub(crate) variant: Variant,
    pub(crate) config: OdnetConfig,
    pub(crate) num_users: usize,
    pub(crate) num_cities: usize,
    pub(crate) origin: FrozenBranch,
    pub(crate) dest: FrozenBranch,
    pub(crate) head: FrozenHead,
    /// The learned loss weight θ (Eq. 8), already through the sigmoid.
    pub(crate) theta: f32,
}

thread_local! {
    /// Per-thread scratch pool for [`FrozenOdNet::score_group`], so the
    /// `&self` scoring API stays `Sync` without locking.
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::new());
}

impl FrozenOdNet {
    /// Assembled variant.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Hyper-parameters the artifact was frozen from.
    pub fn config(&self) -> &OdnetConfig {
        &self.config
    }

    /// User universe size.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// City universe size.
    pub fn num_cities(&self) -> usize {
        self.num_cities
    }

    /// The frozen loss weight θ (Eq. 8).
    pub fn theta(&self) -> f32 {
        self.theta
    }

    /// Score a group: per-candidate `(p^O, p^D)` probabilities, using a
    /// thread-local [`Workspace`].
    pub fn score_group(&self, group: &GroupInput) -> Vec<(f32, f32)> {
        WORKSPACE.with(|ws| self.score_group_with(&mut ws.borrow_mut(), group))
    }

    /// Score a group with a caller-provided workspace. In a steady-state
    /// serving loop the workspace pool satisfies every scratch request
    /// without touching the allocator.
    pub fn score_group_with(&self, ws: &mut Workspace, group: &GroupInput) -> Vec<(f32, f32)> {
        let mut out = Vec::new();
        self.score_group_into(ws, group, &mut out);
        out
    }

    /// Score a group into a caller-provided output buffer (cleared first).
    /// Combined with a warm [`Workspace`] this removes the last per-request
    /// allocation from the serving hot path: the serving engine and ranking
    /// loops reuse one output buffer across requests.
    pub fn score_group_into(
        &self,
        ws: &mut Workspace,
        group: &GroupInput,
        out: &mut Vec<(f32, f32)>,
    ) {
        out.clear();
        let n = group.candidates.len();
        if n == 0 {
            return;
        }
        let q_dim = self.config.q_dim();

        let trunk_o = self.origin.trunk(ws, &group.lt_origins, &group.st_origins);
        let trunk_d = self.dest.trunk(ws, &group.lt_dests, &group.st_dests);
        let e_user_o = self.origin.users.row(group.user.index());
        let e_lbs_o = self.origin.cities.row(group.current_city.index());
        let e_user_d = self.dest.users.row(group.user.index());
        let e_lbs_d = self.dest.cities.row(group.current_city.index());

        // Assemble the per-candidate task representations (plain copies in
        // the live forward's column order, so they equal its nested concats
        // exactly).
        let (intent_o, intent_d) = (trunk_o.intent(), trunk_d.intent());
        let (logits_o, logits_d) = match &self.head {
            FrozenHead::Joint(mmoe) => {
                // q⊕ = [v_L^O | e_u^O | e_lbs^O | e_c^O | x_st^O (| intent^O)
                // | q^D]: the three leading parts are the same for every
                // candidate *and* lead the first layer's summation order, so
                // they are handed over once, not copied into `n` rows. The
                // destination half's invariant parts sit mid-sum and stay in
                // the per-candidate tail (DESIGN.md §8).
                let shared = [&trunk_o.v_l[..], e_user_o, e_lbs_o];
                let mut prefix = ws.take(shared.iter().map(|p| p.len()).sum());
                concat_into(&mut prefix, &shared);
                let tail_dim = 2 * q_dim - prefix.len();
                let mut tail = ws.take(n * tail_dim);
                for (cand, row) in group.candidates.iter().zip(tail.chunks_exact_mut(tail_dim)) {
                    concat_into(
                        row,
                        &[
                            self.origin.cities.row(cand.origin.index()),
                            &cand.xst_o,
                            intent_o,
                            &trunk_d.v_l,
                            e_user_d,
                            e_lbs_d,
                            self.dest.cities.row(cand.dest.index()),
                            &cand.xst_d,
                            intent_d,
                        ],
                    );
                }
                let out = mmoe.forward_batched(ws, &prefix, &tail, n);
                ws.give(prefix);
                ws.give(tail);
                out
            }
            FrozenHead::Single(stl) => {
                let mut q_o = ws.take(n * q_dim);
                let mut q_d = ws.take(n * q_dim);
                for (i, cand) in group.candidates.iter().enumerate() {
                    concat_into(
                        &mut q_o[i * q_dim..(i + 1) * q_dim],
                        &[
                            &trunk_o.v_l,
                            e_user_o,
                            e_lbs_o,
                            self.origin.cities.row(cand.origin.index()),
                            &cand.xst_o,
                            intent_o,
                        ],
                    );
                    concat_into(
                        &mut q_d[i * q_dim..(i + 1) * q_dim],
                        &[
                            &trunk_d.v_l,
                            e_user_d,
                            e_lbs_d,
                            self.dest.cities.row(cand.dest.index()),
                            &cand.xst_d,
                            intent_d,
                        ],
                    );
                }
                let out = stl.forward_batched(ws, &q_o, &q_d, n);
                ws.give(q_o);
                ws.give(q_d);
                out
            }
        };

        out.extend(
            logits_o
                .iter()
                .zip(&logits_d)
                .map(|(&a, &b)| (stable_sigmoid(a), stable_sigmoid(b))),
        );
        ws.give(logits_o);
        ws.give(logits_d);
        trunk_o.give_back(ws);
        trunk_d.give_back(ws);
    }

    /// The serving score of Eq. 11 with the frozen θ.
    pub fn serving_score(&self, p_o: f32, p_d: f32) -> f32 {
        self.theta * p_o + (1.0 - self.theta) * p_d
    }

    /// Read-only view of the four dense embedding tables — the raw
    /// material of the retrieval tier (`od-retrieval`). The slices borrow
    /// straight from the artifact's [`Table`]s, so this is zero-copy for
    /// both owned and mmap-backed (`.odz`) artifacts; for the latter,
    /// touching a row faults its pages in lazily like every other score.
    pub fn embeddings(&self) -> EmbeddingView<'_> {
        EmbeddingView {
            origin_users: self.origin.users.as_slice(),
            origin_cities: self.origin.cities.as_slice(),
            dest_users: self.dest.users.as_slice(),
            dest_cities: self.dest.cities.as_slice(),
            num_users: self.num_users,
            num_cities: self.num_cities,
            dim: self.config.embed_dim,
            theta: self.theta,
        }
    }

    /// Build the state the forward derives from the stored weights (the MMoE
    /// head's packed first-layer panel) on the calling thread. A serving
    /// engine calls this before a generation becomes visible to readers, so
    /// no request pays for it; without the call the first forward does.
    pub fn prepare(&self) {
        if let FrozenHead::Joint(mmoe) = &self.head {
            mmoe.prepare();
        }
    }

    /// Structural validation of a (possibly untrusted) artifact: every
    /// weight matrix must match the geometry the config declares, geometry
    /// must be mutually consistent across components, and no tensor may
    /// carry NaN/±∞. Runs automatically inside [`FrozenOdNet::save_bin`]
    /// and [`FrozenOdNet::load_bin`].
    pub fn validate_artifact(&self) -> Result<(), CheckpointError> {
        self.validate_impl(true)
    }

    /// Shallow validation for the zero-copy mmap load path: all geometry
    /// and the (small, resident) module weights are fully checked, but the
    /// big embedding tables are not scanned for non-finite values — a scan
    /// would fault in every page of a multi-GB artifact and defeat lazy
    /// loading. Trust in the payload bytes comes from [`FrozenOdNet::save_bin`]
    /// validating before writing plus the header/meta checksums; an
    /// end-to-end audit of a file is [`FrozenOdNet::load_bin`]'s job.
    pub(crate) fn validate_geometry(&self) -> Result<(), CheckpointError> {
        self.validate_impl(false)
    }

    fn validate_impl(&self, deep: bool) -> Result<(), CheckpointError> {
        let d = self.config.embed_dim;
        if self.num_users == 0 || self.num_cities == 0 {
            return Err(CheckpointError::Inconsistent(format!(
                "artifact declares {} users and {} cities",
                self.num_users, self.num_cities
            )));
        }
        for (name, branch) in [("origin", &self.origin), ("dest", &self.dest)] {
            branch
                .users
                .check(&format!("{name}.users"), self.num_users, d, deep)?;
            branch
                .cities
                .check(&format!("{name}.cities"), self.num_cities, d, deep)?;
            branch.pec.check(&format!("{name}.pec"), d)?;
            if branch.intent.is_some() != (self.config.intents > 0) {
                return Err(CheckpointError::Inconsistent(format!(
                    "{name}: intent module presence disagrees with config.intents = {}",
                    self.config.intents
                )));
            }
            if let Some(intent) = &branch.intent {
                intent.check(&format!("{name}.intent"), d)?;
            }
        }
        let q_dim = self.config.q_dim();
        match &self.head {
            FrozenHead::Joint(mmoe) => mmoe.check(
                "head",
                2 * q_dim,
                self.config.experts,
                self.config.expert_dim,
            )?,
            FrozenHead::Single(stl) => stl.check("head", q_dim)?,
        }
        if !self.theta.is_finite() {
            return Err(CheckpointError::NonFinite("theta".to_string()));
        }
        if !(0.0..=1.0).contains(&self.theta) {
            return Err(CheckpointError::Inconsistent(format!(
                "theta {} outside [0, 1] (it is a post-sigmoid weight)",
                self.theta
            )));
        }
        Ok(())
    }

    /// Admission-control validation of one scoring request against this
    /// artifact's universe: user and city ids must be in range and the
    /// history sequences must be mutually aligned and no longer than the
    /// lengths the model was trained with. A request that passes is
    /// guaranteed to score without panicking — the serving engine calls this
    /// at submit so malformed requests are rejected at the edge with a typed
    /// error instead of crashing a worker mid-batch.
    pub fn validate_group(&self, group: &GroupInput) -> Result<(), crate::InvalidInput> {
        crate::features::validate_group(
            group,
            self.num_users,
            self.num_cities,
            self.config.max_long_seq,
            self.config.max_short_seq,
        )
    }
}

/// Zero-copy view of a [`FrozenOdNet`]'s dense embedding tables, handed
/// to the retrieval tier. All tables are row-major `f32`; user tables are
/// `num_users×dim`, city tables `num_cities×dim`. `theta` is the frozen
/// Eq. 8 mixture weight, which the retrieval scorer folds into its
/// separable pair score `θ·⟨u_O,c_O⟩ + (1−θ)·⟨u_D,c_D⟩`.
#[derive(Clone, Copy, Debug)]
pub struct EmbeddingView<'a> {
    /// Origin-branch user table (`num_users×dim`).
    pub origin_users: &'a [f32],
    /// Origin-branch city table (`num_cities×dim`).
    pub origin_cities: &'a [f32],
    /// Destination-branch user table (`num_users×dim`).
    pub dest_users: &'a [f32],
    /// Destination-branch city table (`num_cities×dim`).
    pub dest_cities: &'a [f32],
    /// User universe size.
    pub num_users: usize,
    /// City universe size.
    pub num_cities: usize,
    /// Embedding width.
    pub dim: usize,
    /// Frozen loss weight θ (post-sigmoid, in `[0, 1]`).
    pub theta: f32,
}

impl EmbeddingView<'_> {
    /// Origin-branch embedding row of one user.
    pub fn origin_user_row(&self, user: usize) -> &[f32] {
        &self.origin_users[user * self.dim..(user + 1) * self.dim]
    }

    /// Destination-branch embedding row of one user.
    pub fn dest_user_row(&self, user: usize) -> &[f32] {
        &self.dest_users[user * self.dim..(user + 1) * self.dim]
    }
}

/// Candidate-independent per-branch scratch results.
struct FrozenTrunk {
    v_l: Vec<f32>,
    intent: Option<Vec<f32>>,
}

impl FrozenTrunk {
    /// The intent columns of `q` (none when the module is disabled).
    fn intent(&self) -> &[f32] {
        self.intent.as_deref().unwrap_or(&[])
    }

    fn give_back(self, ws: &mut Workspace) {
        ws.give(self.v_l);
        if let Some(i) = self.intent {
            ws.give(i);
        }
    }
}

impl FrozenBranch {
    /// Gather a city sequence into a `t×d` workspace buffer.
    fn gather(&self, ws: &mut Workspace, ids: &[CityId]) -> Option<Vec<f32>> {
        if ids.is_empty() {
            return None;
        }
        let d = self.cities.cols();
        let mut buf = ws.take(ids.len() * d);
        for (i, c) in ids.iter().enumerate() {
            buf[i * d..(i + 1) * d].copy_from_slice(self.cities.row(c.index()));
        }
        Some(buf)
    }

    fn trunk(&self, ws: &mut Workspace, long: &[CityId], short: &[CityId]) -> FrozenTrunk {
        let e_long = self.gather(ws, long);
        let e_short = self.gather(ws, short);
        let v_l = self.pec.forward(
            ws,
            e_long.as_deref().map(|b| (b, long.len())),
            e_short.as_deref().map(|b| (b, short.len())),
        );
        let intent = self
            .intent
            .as_ref()
            .map(|m| m.forward(ws, e_short.as_deref().map(|b| (b, short.len()))));
        if let Some(b) = e_long {
            ws.give(b);
        }
        if let Some(b) = e_short {
            ws.give(b);
        }
        FrozenTrunk { v_l, intent }
    }
}

/// Copy `parts` back to back into `row`, whose length is their total — one
/// task representation `[v_L | e_user | e_lbs | e_cand | x_st (| intent)]`
/// or a run of its parts, in the live forward's column-concat order.
fn concat_into(row: &mut [f32], parts: &[&[f32]]) {
    let mut o = 0;
    for part in parts {
        row[o..o + part.len()].copy_from_slice(part);
        o += part.len();
    }
    debug_assert_eq!(o, row.len(), "parts do not fill the row");
}

impl OdScorer for FrozenOdNet {
    fn score_group(&self, group: &GroupInput) -> Vec<(f32, f32)> {
        FrozenOdNet::score_group(self, group)
    }

    fn serving_score(&self, p_o: f32, p_d: f32) -> f32 {
        FrozenOdNet::serving_score(self, p_o, p_d)
    }

    fn name(&self) -> String {
        self.variant.name().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{OdNetModel, Variant};

    fn tiny_frozen() -> FrozenOdNet {
        let ds = od_data::FliggyDataset::generate(od_data::FliggyConfig::tiny());
        OdNetModel::new(
            Variant::Odnet,
            OdnetConfig::tiny(),
            ds.world.num_users(),
            ds.world.num_cities(),
            Some(ds.hsg()),
        )
        .freeze()
    }

    #[test]
    fn fresh_artifact_validates() {
        tiny_frozen()
            .validate_artifact()
            .expect("fresh artifact is valid");
    }

    #[test]
    fn nan_weight_is_rejected_as_non_finite() {
        let mut frozen = tiny_frozen();
        frozen.origin.users.as_mut_slice()[0] = f32::NAN;
        match frozen.validate_artifact() {
            Err(CheckpointError::NonFinite(what)) => assert!(what.contains("origin.users")),
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_table_dims_are_rejected_as_inconsistent() {
        let mut frozen = tiny_frozen();
        // The artifact claims one more user than its table holds.
        frozen.num_users += 1;
        match frozen.validate_artifact() {
            Err(CheckpointError::Inconsistent(what)) => assert!(what.contains("users")),
            other => panic!("expected Inconsistent, got {other:?}"),
        }
    }

    #[test]
    fn theta_outside_unit_interval_is_rejected() {
        let mut frozen = tiny_frozen();
        frozen.theta = 1.5;
        assert!(matches!(
            frozen.validate_artifact(),
            Err(CheckpointError::Inconsistent(_))
        ));
        frozen.theta = f32::NAN;
        assert!(matches!(
            frozen.validate_artifact(),
            Err(CheckpointError::NonFinite(_))
        ));
    }

    #[test]
    fn validate_group_guards_every_id_field() {
        let frozen = tiny_frozen();
        let valid = GroupInput {
            user: od_hsg::UserId(0),
            day: 10,
            current_city: CityId(0),
            lt_origins: vec![CityId(1)],
            lt_dests: vec![CityId(2)],
            lt_days: vec![3],
            st_origins: Vec::new(),
            st_dests: Vec::new(),
            st_days: Vec::new(),
            candidates: Vec::new(),
        };
        frozen.validate_group(&valid).expect("valid group passes");

        let mut g = valid.clone();
        g.user = od_hsg::UserId(frozen.num_users() as u32);
        assert!(matches!(
            frozen.validate_group(&g),
            Err(crate::InvalidInput::UserOutOfRange { .. })
        ));

        let mut g = valid.clone();
        g.lt_origins[0] = CityId(frozen.num_cities() as u32);
        assert!(matches!(
            frozen.validate_group(&g),
            Err(crate::InvalidInput::CityOutOfRange { .. })
        ));

        let mut g = valid.clone();
        g.lt_days.clear();
        assert!(matches!(
            frozen.validate_group(&g),
            Err(crate::InvalidInput::MisalignedSequence { .. })
        ));

        let mut g = valid;
        let too_long = frozen.config().max_long_seq + 1;
        g.lt_origins = vec![CityId(0); too_long];
        g.lt_dests = vec![CityId(0); too_long];
        g.lt_days = vec![0; too_long];
        assert!(matches!(
            frozen.validate_group(&g),
            Err(crate::InvalidInput::SequenceTooLong { .. })
        ));
    }
}
