//! The assembled ODNET model (Figure 3) and its ablation variants.
//!
//! Two branch stacks (origin-aware and destination-aware), each an optional
//! HSGC over its metapath plus a PEC, feeding either the MMoE joint head
//! (multi-task variants) or two independent towers (single-task variants):
//!
//! | Variant   | HSGC | Head        |
//! |-----------|------|-------------|
//! | `Odnet`   | yes  | MMoE (joint)|
//! | `OdnetG`  | no   | MMoE (joint)|
//! | `StlPlusG`| yes  | independent |
//! | `StlG`    | no   | independent |

use crate::config::OdnetConfig;
use crate::features::GroupInput;
use crate::frozen::{FrozenBranch, FrozenHead, FrozenOdNet};
use crate::hsgc::{HsgcForward, HsgcModule};
use crate::intent::IntentModule;
use crate::mmoe::{MmoeHead, SingleTaskHead};
use crate::pec::PecModule;
use od_hsg::{CityId, Hsg, Metapath, NeighborTable, UserId};
use od_tensor::nn::Embedding;
use od_tensor::{stable_sigmoid, Graph, ParamId, ParamStore, Shape, Tensor, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which model variant to assemble (paper §V-A.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Variant {
    /// Full ODNET: HSGC exploration + MMoE joint learning.
    Odnet,
    /// ODNET−G: MMoE joint learning without the HSGC.
    OdnetG,
    /// STL+G: HSGC exploration, O and D learned separately.
    StlPlusG,
    /// STL−G: no HSGC, O and D learned separately.
    StlG,
}

impl Variant {
    /// Whether the variant deploys the HSGC.
    pub fn uses_graph(self) -> bool {
        matches!(self, Variant::Odnet | Variant::StlPlusG)
    }

    /// Whether the variant learns O and D jointly (MMoE).
    pub fn joint(self) -> bool {
        matches!(self, Variant::Odnet | Variant::OdnetG)
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Odnet => "ODNET",
            Variant::OdnetG => "ODNET-G",
            Variant::StlPlusG => "STL+G",
            Variant::StlG => "STL-G",
        }
    }
}

/// One branch (origin-aware or destination-aware): its embedding source and
/// PEC.
#[derive(Debug)]
struct Branch {
    hsgc: Option<HsgcModule>,
    /// Plain embedding tables for the −G variants.
    plain_user: Option<Embedding>,
    plain_city: Option<Embedding>,
    pec: PecModule,
    /// Optional travel-intention module (the paper's future-work extension;
    /// `OdnetConfig::intents > 0`).
    intent: Option<IntentModule>,
}

impl Branch {
    /// Handles of the branch's level-0 `(user, city)` embedding tables.
    fn tables(&self) -> (ParamId, ParamId) {
        match (&self.hsgc, &self.plain_user, &self.plain_city) {
            (Some(hsgc), ..) => hsgc.tables(),
            (None, Some(users), Some(cities)) => (users.table(), cities.table()),
            _ => unreachable!("a branch has an HSGC or both plain tables"),
        }
    }
}

enum Head {
    Joint(MmoeHead),
    Single(SingleTaskHead),
}

/// Output logits of a group forward pass: each field is an `n×1` column
/// with one logit per candidate, in candidate order.
pub struct GroupForward {
    /// O-task logit column.
    pub logits_o: Value,
    /// D-task logit column.
    pub logits_d: Value,
}

/// A trained or trainable ODNET model instance.
pub struct OdNetModel {
    /// Hyper-parameters.
    pub config: OdnetConfig,
    /// Assembled variant.
    pub variant: Variant,
    /// All trainable parameters.
    pub store: ParamStore,
    origin_branch: Branch,
    dest_branch: Branch,
    head: Head,
    /// Raw learnable loss weight; θ = sigmoid(raw) ∈ (0,1) (Eq. 8). Only
    /// present for joint variants; single-task variants use a fixed 0.5.
    theta_raw: Option<ParamId>,
    /// The HSG and its sampled neighbor tables (graph variants only).
    graph_ctx: Option<GraphContext>,
}

struct GraphContext {
    hsg: Hsg,
    /// ρ₁ (departure) sampled neighborhoods for the origin branch.
    table_o: NeighborTable,
    /// ρ₂ (arrive) sampled neighborhoods for the destination branch.
    table_d: NeighborTable,
}

impl OdNetModel {
    /// Assemble a variant. `hsg` is required for graph variants (pass the
    /// training-period interaction graph) and ignored otherwise.
    pub fn new(
        variant: Variant,
        config: OdnetConfig,
        num_users: usize,
        num_cities: usize,
        hsg: Option<Hsg>,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let d = config.embed_dim;
        let make_branch = |store: &mut ParamStore, name: &str, rng: &mut StdRng| -> Branch {
            let (hsgc, plain_user, plain_city) = if variant.uses_graph() {
                (
                    Some(HsgcModule::new(
                        store,
                        &format!("{name}.hsgc"),
                        num_users,
                        num_cities,
                        d,
                        config.depth,
                        rng,
                    )),
                    None,
                    None,
                )
            } else {
                (
                    None,
                    Some(Embedding::new(
                        store,
                        &format!("{name}.users"),
                        num_users,
                        d,
                        rng,
                    )),
                    Some(Embedding::new(
                        store,
                        &format!("{name}.cities"),
                        num_cities,
                        d,
                        rng,
                    )),
                )
            };
            let pec = PecModule::new(store, &format!("{name}.pec"), d, config.heads, rng);
            let intent = (config.intents > 0).then(|| {
                IntentModule::new(store, &format!("{name}.intent"), config.intents, d, rng)
            });
            Branch {
                hsgc,
                plain_user,
                plain_city,
                pec,
                intent,
            }
        };
        let origin_branch = make_branch(&mut store, "origin", &mut rng);
        let dest_branch = make_branch(&mut store, "dest", &mut rng);
        let q_dim = config.q_dim();
        let head = if variant.joint() {
            Head::Joint(MmoeHead::new(
                &mut store,
                "jlc",
                2 * q_dim,
                config.experts,
                config.expert_dim,
                config.tower_hidden,
                &mut rng,
            ))
        } else {
            Head::Single(SingleTaskHead::new(
                &mut store,
                "stl",
                q_dim,
                config.tower_hidden,
                &mut rng,
            ))
        };
        let theta_raw = variant.joint().then(|| {
            let init = inv_sigmoid(config.theta_init);
            store.register("theta_raw", Tensor::scalar(init))
        });
        let graph_ctx = if variant.uses_graph() {
            let hsg = hsg.expect("graph variants require an HSG");
            assert_eq!(hsg.num_users(), num_users, "HSG user count mismatch");
            assert_eq!(hsg.num_cities(), num_cities, "HSG city count mismatch");
            let table_o = hsg.neighbor_table(Metapath::RHO1, config.neighbor_cap, &mut rng);
            let table_d = hsg.neighbor_table(Metapath::RHO2, config.neighbor_cap, &mut rng);
            Some(GraphContext {
                hsg,
                table_o,
                table_d,
            })
        } else {
            None
        };
        OdNetModel {
            config,
            variant,
            store,
            origin_branch,
            dest_branch,
            head,
            theta_raw,
            graph_ctx,
        }
    }

    /// Current value of the loss weight θ (Eq. 8).
    pub fn theta(&self) -> f32 {
        match self.theta_raw {
            Some(id) => stable_sigmoid(self.store.value(id).item()),
            None => 0.5,
        }
    }

    /// Total scalar parameter count.
    pub fn num_weights(&self) -> usize {
        self.store.num_weights()
    }

    /// The HSG and its sampled ρ₁ (origin branch) and ρ₂ (destination
    /// branch) neighbour tables — Algorithm 1's `N_ρ` inputs. `None` for
    /// the variants without an HSGC.
    pub fn graph_context(&self) -> Option<(&Hsg, &NeighborTable, &NeighborTable)> {
        self.graph_ctx
            .as_ref()
            .map(|ctx| (&ctx.hsg, &ctx.table_o, &ctx.table_d))
    }

    /// Forward one group: all `n` candidates are stacked into `n×d`
    /// matrices, so the PEC concat, every expert/gate/tower layer, and the
    /// candidate-embedding gather each run once per group. The shared
    /// user-side trunk (HSGC closure + PEC summary) is computed once and its
    /// rows are broadcast down the batch by [`Graph::concat_cols_bcast`]
    /// without materializing tiled copies.
    pub fn forward_group(&self, g: &mut Graph, group: &GroupInput) -> GroupForward {
        let n = group.candidates.len();
        assert!(n > 0, "forward_group needs at least one candidate");
        let store = &self.store;
        let mut origin_src =
            BranchSource::new(&self.origin_branch, self.graph_ctx.as_ref(), true, g, store);
        let mut dest_src =
            BranchSource::new(&self.dest_branch, self.graph_ctx.as_ref(), false, g, store);
        let trunk_o = branch_trunk(
            g,
            store,
            &self.origin_branch,
            &mut origin_src,
            group.user,
            group.current_city,
            &group.lt_origins,
            &group.st_origins,
        );
        let trunk_d = branch_trunk(
            g,
            store,
            &self.dest_branch,
            &mut dest_src,
            group.user,
            group.current_city,
            &group.lt_dests,
            &group.st_dests,
        );

        let origin_ids: Vec<CityId> = group.candidates.iter().map(|c| c.origin).collect();
        let dest_ids: Vec<CityId> = group.candidates.iter().map(|c| c.dest).collect();
        let e_co = origin_src
            .cities(g, store, &origin_ids)
            .expect("candidate set is non-empty");
        let e_cd = dest_src
            .cities(g, store, &dest_ids)
            .expect("candidate set is non-empty");

        let xst_dim = crate::features::XST_DIM;
        let mut xst_o = Tensor::zeros(Shape::Matrix(n, xst_dim));
        let mut xst_d = Tensor::zeros(Shape::Matrix(n, xst_dim));
        for (i, cand) in group.candidates.iter().enumerate() {
            xst_o.row_mut(i).copy_from_slice(&cand.xst_o);
            xst_d.row_mut(i).copy_from_slice(&cand.xst_d);
        }
        let xst_o = g.input(xst_o);
        let xst_d = g.input(xst_d);

        // q = [v_L | e_user | e_lbs | e_cand | x_st (| intent)]; trunk rows
        // broadcast.
        let mut parts_o = vec![trunk_o.v_l, trunk_o.e_user, trunk_o.e_lbs, e_co, xst_o];
        if let Some(intent) = trunk_o.intent {
            parts_o.push(intent);
        }
        let q_o = g.concat_cols_bcast(&parts_o, n);
        let mut parts_d = vec![trunk_d.v_l, trunk_d.e_user, trunk_d.e_lbs, e_cd, xst_d];
        if let Some(intent) = trunk_d.intent {
            parts_d.push(intent);
        }
        let q_d = g.concat_cols_bcast(&parts_d, n);

        let (logits_o, logits_d) = match &self.head {
            Head::Joint(mmoe) => {
                let q_cat = g.concat_cols(&[q_o, q_d]);
                mmoe.forward(g, store, q_cat)
            }
            Head::Single(stl) => stl.forward(g, store, q_o, q_d),
        };
        GroupForward { logits_o, logits_d }
    }

    /// Forward a group and attach the joint loss (Eq. 8 over Eqs. 9–10),
    /// returning the scalar loss node.
    pub fn group_loss(&self, g: &mut Graph, group: &GroupInput) -> Value {
        let GroupForward { logits_o, logits_d } = self.forward_group(g, group);
        let labels_o: Vec<f32> = group.candidates.iter().map(|c| c.label_o).collect();
        let labels_d: Vec<f32> = group.candidates.iter().map(|c| c.label_d).collect();
        let n = labels_o.len();
        let stacked_o = g.reshape(logits_o, Shape::Vector(n));
        let stacked_d = g.reshape(logits_d, Shape::Vector(n));
        let loss_o = g.bce_with_logits(stacked_o, &Tensor::vector(&labels_o));
        let loss_d = g.bce_with_logits(stacked_d, &Tensor::vector(&labels_d));
        match self.theta_raw {
            Some(id) => {
                let raw = g.param(&self.store, id);
                let theta = g.sigmoid(raw);
                let one = g.input(Tensor::scalar(1.0));
                let theta_c = g.sub(one, theta);
                let to = g.mul(theta, loss_o);
                let td = g.mul(theta_c, loss_d);
                let weighted = g.add(to, td);
                // Entropy regularization of the learnable θ: minimizing the
                // bare convex combination of Eq. 8 over θ collapses to the
                // easier task and starves the other. Adding
                // λ·(θ·lnθ + (1−θ)·ln(1−θ)) gives the unique stationary
                // point θ* = σ((L_D − L_O)/λ): θ stays learnable and
                // up-weights the currently harder task instead of
                // abandoning it.
                let lambda = self.config.theta_entropy;
                if lambda > 0.0 {
                    let ln_t = g.log(theta);
                    let t_ln_t = g.mul(theta, ln_t);
                    let ln_c = g.log(theta_c);
                    let c_ln_c = g.mul(theta_c, ln_c);
                    let neg_entropy = g.add(t_ln_t, c_ln_c);
                    let reg = g.scale(neg_entropy, lambda);
                    g.add(weighted, reg)
                } else {
                    weighted
                }
            }
            None => {
                // STL: equal-weight sum of the two independent task losses.
                let s = g.add(loss_o, loss_d);
                g.scale(s, 0.5)
            }
        }
    }

    /// Score a group on the live tape: per-candidate `(p^O, p^D)`
    /// probabilities. The frozen artifact reproduces these bits; evaluation
    /// and serving score [`freeze`](Self::freeze)'s output instead.
    pub fn score_group(&self, group: &GroupInput) -> Vec<(f32, f32)> {
        let mut g = Graph::new();
        self.score_group_with(&mut g, group)
    }

    /// Score a group using a caller-provided graph. The tape is reset (its
    /// node storage is retained), so a loop over many groups can reuse one
    /// graph's allocations instead of paying a fresh tape per call.
    pub fn score_group_with(&self, g: &mut Graph, group: &GroupInput) -> Vec<(f32, f32)> {
        g.reset();
        if group.candidates.is_empty() {
            return Vec::new();
        }
        let fwd = self.forward_group(g, group);
        let lo = g.value(fwd.logits_o).as_slice();
        let ld = g.value(fwd.logits_d).as_slice();
        lo.iter()
            .zip(ld)
            .map(|(&a, &b)| (stable_sigmoid(a), stable_sigmoid(b)))
            .collect()
    }

    /// Freeze the model into a tape-free [`FrozenOdNet`] serving artifact.
    ///
    /// Graph variants have their HSGC user/city embeddings materialized once
    /// into dense tables (the per-request K-step aggregation becomes a row
    /// lookup); plain variants snapshot their embedding tables directly.
    /// PEC/MMoE/tower weights are extracted from the [`ParamStore`] into
    /// plain row-major matrices and θ becomes a plain scalar. The frozen
    /// forward mirrors the live tape op for op, so its scores are
    /// bit-identical to [`OdNetModel::score_group`]'s.
    pub fn freeze(&self) -> FrozenOdNet {
        let freeze_branch = |branch: &Branch, is_origin: bool| -> FrozenBranch {
            let (users, cities) = match (&branch.hsgc, self.graph_ctx.as_ref()) {
                (Some(hsgc), Some(ctx)) => {
                    let table = if is_origin {
                        &ctx.table_o
                    } else {
                        &ctx.table_d
                    };
                    hsgc.materialize(&self.store, table, ctx.hsg.distances())
                }
                _ => {
                    let (users, cities) = branch.tables();
                    (
                        self.store.value(users).clone(),
                        self.store.value(cities).clone(),
                    )
                }
            };
            FrozenBranch {
                users: users.into(),
                cities: cities.into(),
                pec: branch.pec.freeze(&self.store),
                intent: branch.intent.as_ref().map(|m| m.freeze(&self.store)),
            }
        };
        let origin = freeze_branch(&self.origin_branch, true);
        let dest = freeze_branch(&self.dest_branch, false);
        let head = match &self.head {
            Head::Joint(mmoe) => FrozenHead::Joint(Box::new(mmoe.freeze(&self.store))),
            Head::Single(stl) => FrozenHead::Single(stl.freeze(&self.store)),
        };
        FrozenOdNet {
            variant: self.variant,
            config: self.config.clone(),
            num_users: origin.users.rows(),
            num_cities: origin.cities.rows(),
            origin,
            dest,
            head,
            theta: self.theta(),
        }
    }

    /// Serialize the model — variant, config, universe sizes (read off the
    /// model's own embedding tables) and all trained parameters — to a JSON
    /// checkpoint. A checkpoint holds weights only: the serving artifact is
    /// always [`load_json`](Self::load_json) + [`freeze`](Self::freeze),
    /// which reproduces the in-process `freeze()` byte for byte (the
    /// neighbour tables re-sample from `config.seed`).
    pub fn save_json(&self) -> String {
        let (users, cities) = self.origin_branch.tables();
        let ckpt = Checkpoint {
            format_version: CHECKPOINT_VERSION,
            variant: self.variant,
            config: self.config.clone(),
            num_users: self.store.value(users).rows(),
            num_cities: self.store.value(cities).rows(),
            store: self.store.clone(),
        };
        serde_json::to_string(&ckpt).expect("checkpoint serialization cannot fail")
    }

    /// Restore a model from a [`OdNetModel::save_json`] checkpoint. Graph
    /// variants need the HSG again (the graph is data, not parameters, and
    /// is rebuilt from interactions by the caller).
    pub fn load_json(json: &str, hsg: Option<Hsg>) -> Result<Self, CheckpointError> {
        let ckpt: Checkpoint = serde_json::from_str(json).map_err(CheckpointError::Parse)?;
        if ckpt.format_version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version(ckpt.format_version));
        }
        if ckpt.variant.uses_graph() {
            let hsg = hsg.as_ref().ok_or(CheckpointError::MissingHsg)?;
            if (hsg.num_users(), hsg.num_cities()) != (ckpt.num_users, ckpt.num_cities) {
                return Err(CheckpointError::ParamMismatch(format!(
                    "its header declares {} users x {} cities, the supplied HSG spans {} x {}",
                    ckpt.num_users,
                    ckpt.num_cities,
                    hsg.num_users(),
                    hsg.num_cities()
                )));
            }
        }
        // Rebuild the architecture the header describes (registers
        // parameters in the same order), then swap in the trained store —
        // once every restored tensor is the one the architecture registered
        // at that index: same name, same shape, as many values as the shape
        // holds. A header edited away from its tables fails here instead of
        // on a later row lookup.
        let mut model = OdNetModel::new(
            ckpt.variant,
            ckpt.config,
            ckpt.num_users,
            ckpt.num_cities,
            hsg,
        );
        let mut restored = ckpt.store;
        restored.reindex(); // the name index is serde(skip)
        if model.store.len() != restored.len() {
            return Err(CheckpointError::ParamMismatch(format!(
                "it carries {} parameters, the architecture registers {}",
                restored.len(),
                model.store.len()
            )));
        }
        for id in model.store.ids() {
            let (name, built) = (model.store.name(id), model.store.value(id));
            let found = restored.value(id);
            if restored.name(id) != name
                || found.shape() != built.shape()
                || found.len() != built.len()
            {
                return Err(CheckpointError::ParamMismatch(format!(
                    "parameter {} is {:?} {} ({} values), the architecture registers {name:?} {}",
                    id.index(),
                    restored.name(id),
                    found.shape(),
                    found.len(),
                    built.shape()
                )));
            }
        }
        model.store = restored;
        Ok(model)
    }
}

/// Checkpoint format version (bump on layout changes). v3 dropped the
/// frozen serving artifact v2 embedded beside the training parameters.
const CHECKPOINT_VERSION: u32 = 3;

#[derive(Serialize, Deserialize)]
struct Checkpoint {
    format_version: u32,
    variant: Variant,
    config: OdnetConfig,
    num_users: usize,
    num_cities: usize,
    store: ParamStore,
}

/// Failure modes of [`OdNetModel::load_json`].
#[derive(Debug)]
pub enum CheckpointError {
    /// Malformed JSON or schema mismatch.
    Parse(serde_json::Error),
    /// Unknown checkpoint format version.
    Version(u32),
    /// A graph variant was loaded without supplying the HSG.
    MissingHsg,
    /// The checkpoint's header, its parameters and the supplied HSG do not
    /// describe one architecture: a parameter count, name or tensor shape
    /// other than the one the header's architecture registers, or an HSG
    /// over a different universe.
    ParamMismatch(String),
    /// Matrix dimensions inside the frozen artifact are mutually
    /// inconsistent (corrupt or hand-edited checkpoint).
    Inconsistent(String),
    /// The frozen artifact carries NaN or infinite weights, which would
    /// silently produce NaN scores at serving time.
    NonFinite(String),
    /// Filesystem failure while reading or writing a binary artifact.
    Io(String),
    /// Malformed `.odz` binary artifact: bad magic, checksum mismatch,
    /// truncation, misaligned or out-of-bounds table directory.
    Binary(String),
}

impl From<od_tensor::nn::FrozenCheckError> for CheckpointError {
    fn from(e: od_tensor::nn::FrozenCheckError) -> Self {
        match e {
            od_tensor::nn::FrozenCheckError::Shape(what) => CheckpointError::Inconsistent(what),
            od_tensor::nn::FrozenCheckError::NonFinite(what) => CheckpointError::NonFinite(what),
        }
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Parse(e) => write!(f, "malformed checkpoint: {e}"),
            CheckpointError::Version(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::MissingHsg => {
                write!(
                    f,
                    "graph variant checkpoint requires the HSG to be supplied"
                )
            }
            CheckpointError::ParamMismatch(what) => {
                write!(f, "inconsistent checkpoint: {what}")
            }
            CheckpointError::Inconsistent(what) => {
                write!(f, "inconsistent frozen artifact: {what}")
            }
            CheckpointError::NonFinite(what) => {
                write!(f, "non-finite weights in frozen artifact: {what}")
            }
            CheckpointError::Io(what) => write!(f, "artifact I/O error: {what}"),
            CheckpointError::Binary(what) => {
                write!(f, "malformed binary artifact: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Inverse sigmoid for initializing `theta_raw`.
fn inv_sigmoid(p: f32) -> f32 {
    let p = p.clamp(1e-4, 1.0 - 1e-4);
    (p / (1.0 - p)).ln()
}

/// Embedding source for one branch during one graph build: either a
/// memoized HSGC forward or plain table lookups.
enum BranchSource<'m> {
    Graph(HsgcForward<'m>),
    Plain {
        users: Value,
        cities: Value,
        dim: usize,
    },
}

impl<'m> BranchSource<'m> {
    fn new(
        branch: &'m Branch,
        ctx: Option<&'m GraphContext>,
        is_origin: bool,
        g: &mut Graph,
        store: &ParamStore,
    ) -> Self {
        match (&branch.hsgc, ctx) {
            (Some(hsgc), Some(ctx)) => {
                let table = if is_origin {
                    &ctx.table_o
                } else {
                    &ctx.table_d
                };
                BranchSource::Graph(hsgc.begin(g, store, table, ctx.hsg.distances()))
            }
            _ => {
                let (users, cities) = branch.tables();
                BranchSource::Plain {
                    users: g.param(store, users),
                    cities: g.param(store, cities),
                    dim: store.value(users).cols(),
                }
            }
        }
    }

    fn user(&mut self, g: &mut Graph, store: &ParamStore, u: UserId) -> Value {
        match self {
            BranchSource::Graph(fwd) => fwd.user(g, store, u),
            BranchSource::Plain { users, dim, .. } => {
                let row = g.gather_rows(*users, &[u.index()]);
                g.reshape(row, Shape::Vector(*dim))
            }
        }
    }

    fn city(&mut self, g: &mut Graph, store: &ParamStore, c: CityId) -> Value {
        match self {
            BranchSource::Graph(fwd) => fwd.city(g, store, c),
            BranchSource::Plain { cities, dim, .. } => {
                let row = g.gather_rows(*cities, &[c.index()]);
                g.reshape(row, Shape::Vector(*dim))
            }
        }
    }

    fn cities(&mut self, g: &mut Graph, store: &ParamStore, ids: &[CityId]) -> Option<Value> {
        if ids.is_empty() {
            return None;
        }
        match self {
            BranchSource::Graph(fwd) => fwd.cities(g, store, ids),
            BranchSource::Plain { cities, .. } => {
                let idx: Vec<usize> = ids.iter().map(|c| c.index()).collect();
                Some(g.gather_rows(*cities, &idx))
            }
        }
    }
}

/// Candidate-independent per-branch computation.
struct Trunk {
    v_l: Value,
    e_user: Value,
    e_lbs: Value,
    /// Inferred travel intention (present when the extension is enabled).
    intent: Option<Value>,
}

#[allow(clippy::too_many_arguments)]
fn branch_trunk(
    g: &mut Graph,
    store: &ParamStore,
    branch: &Branch,
    src: &mut BranchSource<'_>,
    user: UserId,
    current_city: CityId,
    long_seq: &[CityId],
    short_seq: &[CityId],
) -> Trunk {
    let e_user = src.user(g, store, user);
    let e_lbs = src.city(g, store, current_city);
    let e_long = src.cities(g, store, long_seq);
    let e_short = src.cities(g, store, short_seq);
    let v_l = branch.pec.forward(g, store, e_long, e_short);
    let intent = branch.intent.as_ref().map(|m| m.forward(g, store, e_short));
    Trunk {
        v_l,
        e_user,
        e_lbs,
        intent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{CandidateInput, FeatureExtractor};
    use od_data::{FliggyConfig, FliggyDataset};

    fn dataset() -> FliggyDataset {
        FliggyDataset::generate(FliggyConfig::tiny())
    }

    fn build_model(variant: Variant, ds: &FliggyDataset) -> OdNetModel {
        let cfg = OdnetConfig::tiny();
        let hsg = variant.uses_graph().then(|| ds.hsg());
        OdNetModel::new(
            variant,
            cfg,
            ds.world.num_users(),
            ds.world.num_cities(),
            hsg,
        )
    }

    fn sample_group(ds: &FliggyDataset) -> GroupInput {
        let fx = FeatureExtractor::new(6, 4);
        fx.groups_from_samples(ds, &ds.train)
            .into_iter()
            .find(|g| !g.lt_origins.is_empty())
            .expect("a group with history exists")
    }

    #[test]
    fn variant_flags() {
        assert!(Variant::Odnet.uses_graph() && Variant::Odnet.joint());
        assert!(!Variant::OdnetG.uses_graph() && Variant::OdnetG.joint());
        assert!(Variant::StlPlusG.uses_graph() && !Variant::StlPlusG.joint());
        assert!(!Variant::StlG.uses_graph() && !Variant::StlG.joint());
        assert_eq!(Variant::Odnet.name(), "ODNET");
    }

    #[test]
    fn all_variants_forward_and_score() {
        let ds = dataset();
        let group = sample_group(&ds);
        for variant in [
            Variant::Odnet,
            Variant::OdnetG,
            Variant::StlPlusG,
            Variant::StlG,
        ] {
            let model = build_model(variant, &ds);
            let scores = model.score_group(&group);
            assert_eq!(scores.len(), group.candidates.len());
            for (po, pd) in scores {
                assert!((0.0..=1.0).contains(&po), "{variant:?} p_o={po}");
                assert!((0.0..=1.0).contains(&pd));
            }
        }
    }

    #[test]
    fn joint_loss_is_finite_scalar_and_backpropagates() {
        let ds = dataset();
        let group = sample_group(&ds);
        let model = build_model(Variant::Odnet, &ds);
        let mut g = Graph::new();
        let loss = model.group_loss(&mut g, &group);
        assert!(g.value(loss).item().is_finite());
        let mut g2 = Graph::new();
        let loss2 = model.group_loss(&mut g2, &group);
        g2.backward(loss2);
        // θ must receive a gradient in the joint variant.
        let theta_grads: Vec<_> = g2
            .param_grads()
            .filter(|(id, _)| model.store.name(*id) == "theta_raw")
            .collect();
        assert_eq!(theta_grads.len(), 1);
    }

    #[test]
    fn theta_starts_at_configured_value() {
        let ds = dataset();
        let model = build_model(Variant::Odnet, &ds);
        assert!((model.theta() - 0.5).abs() < 1e-5);
        let stl = build_model(Variant::StlG, &ds);
        assert_eq!(stl.theta(), 0.5);
    }

    #[test]
    fn graph_variant_differs_from_plain_variant() {
        let ds = dataset();
        let group = sample_group(&ds);
        let with_g = build_model(Variant::Odnet, &ds);
        let without_g = build_model(Variant::OdnetG, &ds);
        // Same seed, but the HSGC path transforms embeddings, so outputs
        // must differ.
        assert_ne!(with_g.score_group(&group), without_g.score_group(&group));
    }

    #[test]
    fn scoring_empty_history_group_works() {
        // Cold-start user: no long/short sequences at all.
        let ds = dataset();
        let model = build_model(Variant::Odnet, &ds);
        let group = GroupInput {
            user: UserId(0),
            day: 100,
            current_city: CityId(0),
            lt_origins: vec![],
            lt_dests: vec![],
            lt_days: vec![],
            st_origins: vec![],
            st_dests: vec![],
            st_days: vec![],
            candidates: vec![CandidateInput {
                origin: CityId(1),
                dest: CityId(2),
                xst_o: [0.0; crate::features::XST_DIM],
                xst_d: [0.0; crate::features::XST_DIM],
                label_o: 1.0,
                label_d: 1.0,
            }],
        };
        let scores = model.score_group(&group);
        assert_eq!(scores.len(), 1);
        assert!(scores[0].0.is_finite());
    }

    #[test]
    #[should_panic(expected = "graph variants require an HSG")]
    fn graph_variant_without_hsg_panics() {
        OdNetModel::new(Variant::Odnet, OdnetConfig::tiny(), 10, 5, None);
    }

    #[test]
    fn intent_extension_trains_and_scores() {
        let ds = dataset();
        let group = sample_group(&ds);
        let mut cfg = OdnetConfig::tiny();
        cfg.intents = 3;
        let model = OdNetModel::new(
            Variant::OdnetG,
            cfg,
            ds.world.num_users(),
            ds.world.num_cities(),
            None,
        );
        // Intent prototypes registered per branch.
        assert!(model.store.lookup("origin.intent").is_some());
        assert!(model.store.lookup("dest.intent").is_some());
        let scores = model.score_group(&group);
        assert!(scores.iter().all(|(a, b)| a.is_finite() && b.is_finite()));
        let mut g = Graph::new();
        let loss = model.group_loss(&mut g, &group);
        assert!(g.value(loss).item().is_finite());
        g.backward(loss);
        let intent_grad: f32 = g
            .param_grads()
            .filter(|(id, _)| model.store.name(*id).contains("intent"))
            .map(|(_, grad)| grad.sq_norm())
            .sum();
        assert!(intent_grad > 0.0, "intent prototypes got no gradient");
    }
}
