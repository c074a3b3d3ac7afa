//! An independent `f64` reference of ODNET's forward pass, and the fixture
//! the forward suites share.
//!
//! The reference is the paper's equations written out in plain loops:
//! Algorithm 1 with its memoised K-step recursion (Eq. 1 attention, Eq. 2
//! spatial weights), the PEC (Eq. 3 multi-head self-attention with a
//! `1/√d_k` scale, mean pooling, Eqs. 4–5 bilinear attention), the intent
//! module, the MMoE head (Eqs. 6–7) or the STL towers, and Eq. 11. It reads
//! every weight from `model.store` by parameter name and shares no numeric
//! code with the training tape or the frozen artifact, so a kernel that
//! drifts under both of them still shows up here.

// Each suite reads a different part of this module.
#![allow(dead_code)]

use od_data::{FliggyConfig, FliggyDataset};
use od_hsg::{CityId, Hsg, NeighborTable, Node};
use odnet_core::{
    CandidateInput, FeatureExtractor, GroupInput, OdNetModel, OdnetConfig, Variant, XST_DIM,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::OnceLock;

/// How far an `f32` forward may sit from the reference: a logit within
/// `TOL · (1 + |logit|)`, a probability within `TOL`. Over the fixture the
/// tape and the artifact sit within 4e-7 of it; a 0.9 softmax temperature
/// or a `1/d_k` attention scale puts every fixture model 8e-4 or more away.
pub const TOL: f64 = 1e-5;

/// The reference's reading of one group.
pub struct Reference {
    /// Eq. 11's θ: `σ(theta_raw)` for the joint variants, 0.5 for STL.
    pub theta: f64,
    /// Per branch (origin, destination): the Eq. 4–5 attention weights over
    /// the long-term sequence, empty without long-term history. They do
    /// not depend on the candidate.
    pub pec_attention: [Vec<f64>; 2],
    /// Per branch: the soft assignment of the recent clicks to the intent
    /// prototypes. `None` when the module is off or there are no clicks.
    pub intent_assignment: [Option<Vec<f64>>; 2],
    /// One entry per candidate, in candidate order.
    pub candidates: Vec<CandidateReference>,
}

/// The reference's reading of one candidate.
pub struct CandidateReference {
    /// O-task logit.
    pub logit_o: f64,
    /// D-task logit.
    pub logit_d: f64,
    /// `p^O = σ(logit_O)`.
    pub p_o: f64,
    /// `p^D = σ(logit_D)`.
    pub p_d: f64,
    /// Eq. 11: `θ·p^O + (1−θ)·p^D`.
    pub score: f64,
    /// Eq. 7 gate row of the O task over the experts (empty for STL).
    pub gate_o: Vec<f64>,
    /// Eq. 7 gate row of the D task over the experts (empty for STL).
    pub gate_d: Vec<f64>,
}

/// Whether an `f32` logit is within [`TOL`] of the reference's.
pub fn logit_close(got: f32, want: f64) -> bool {
    (f64::from(got) - want).abs() <= TOL * (1.0 + want.abs())
}

/// Whether an `f32` probability is within [`TOL`] of the reference's.
pub fn prob_close(got: f32, want: f64) -> bool {
    (f64::from(got) - want).abs() <= TOL
}

/// Run the reference forward over one group.
pub fn reference(model: &OdNetModel, group: &GroupInput) -> Reference {
    let cfg = &model.config;
    let graph = model.graph_context();
    let branches = [
        (
            "origin",
            graph.map(|(hsg, rho1, _)| (hsg, rho1)),
            &group.lt_origins,
            &group.st_origins,
        ),
        (
            "dest",
            graph.map(|(hsg, _, rho2)| (hsg, rho2)),
            &group.lt_dests,
            &group.st_dests,
        ),
    ];
    let mut pec_attention: [Vec<f64>; 2] = Default::default();
    let mut intent_assignment: [Option<Vec<f64>>; 2] = Default::default();
    // Per branch and candidate: q = [v_L | e_user | e_lbs | e_cand | x_st (| intent)].
    let mut q: [Vec<Vec<f64>>; 2] = Default::default();
    for (b, (name, graph, long, short)) in branches.into_iter().enumerate() {
        let mut src = Source::new(model, name, graph);
        let e_user = src.embed(Node::User(group.user));
        let e_lbs = src.embed(Node::City(group.current_city));
        let e_long: Vec<Vec<f64>> = long.iter().map(|&c| src.embed(Node::City(c))).collect();
        let e_short: Vec<Vec<f64>> = short.iter().map(|&c| src.embed(Node::City(c))).collect();
        let (v_l, alpha) = pec(model, name, &e_long, &e_short);
        pec_attention[b] = alpha;
        let intent_mix = (cfg.intents > 0).then(|| {
            let (mix, assignment) = intent(model, name, &e_short);
            intent_assignment[b] = assignment;
            mix
        });
        q[b] = group
            .candidates
            .iter()
            .map(|cand| {
                let (city, xst) = if b == 0 {
                    (cand.origin, &cand.xst_o)
                } else {
                    (cand.dest, &cand.xst_d)
                };
                let mut row = [&v_l[..], &e_user, &e_lbs, &src.embed(Node::City(city))].concat();
                row.extend(xst.iter().map(|&x| f64::from(x)));
                row.extend(intent_mix.iter().flatten());
                row
            })
            .collect();
    }

    let head = Head::new(model);
    let theta = if model.variant.joint() {
        sigmoid(param(model, "theta_raw").data[0])
    } else {
        0.5
    };
    let candidates = q[0]
        .iter()
        .zip(&q[1])
        .map(|(q_o, q_d)| {
            let (logit_o, logit_d, gate_o, gate_d) = head.forward(q_o, q_d);
            let (p_o, p_d) = (sigmoid(logit_o), sigmoid(logit_d));
            CandidateReference {
                logit_o,
                logit_d,
                p_o,
                p_d,
                score: theta * p_o + (1.0 - theta) * p_d,
                gate_o,
                gate_d,
            }
        })
        .collect();
    Reference {
        theta,
        pec_attention,
        intent_assignment,
        candidates,
    }
}

/// The training loss of one group from the reference's logits: Eq. 8's
/// `θ·L_O + (1−θ)·L_D` over the Eqs. 9–10 cross-entropies (means over the
/// candidates) plus the entropy term `λ·(θ ln θ + (1−θ) ln(1−θ))` that keeps
/// θ learnable; STL variants weigh both tasks 0.5 and learn no θ.
pub fn reference_loss(model: &OdNetModel, group: &GroupInput, r: &Reference) -> f64 {
    let xent = |p: f64, y: f32| -(f64::from(y) * p.ln() + (1.0 - f64::from(y)) * (1.0 - p).ln());
    let n = group.candidates.len() as f64;
    let (mut l_o, mut l_d) = (0.0, 0.0);
    for (cand, c) in group.candidates.iter().zip(&r.candidates) {
        l_o += xent(c.p_o, cand.label_o) / n;
        l_d += xent(c.p_d, cand.label_d) / n;
    }
    let t = r.theta;
    if model.variant.joint() {
        let lambda = f64::from(model.config.theta_entropy);
        t * l_o + (1.0 - t) * l_d + lambda * (t * t.ln() + (1.0 - t) * (1.0 - t).ln())
    } else {
        0.5 * (l_o + l_d)
    }
}

/// A row-major weight matrix, widened to `f64`.
struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

fn param(model: &OdNetModel, name: &str) -> Mat {
    let id = model
        .store
        .lookup(name)
        .unwrap_or_else(|| panic!("the model registers no parameter {name:?}"));
    let t = model.store.value(id);
    Mat {
        rows: t.rows(),
        cols: t.cols(),
        data: t.as_slice().iter().map(|&x| f64::from(x)).collect(),
    }
}

/// `x·W (+ b)` for one row `x`.
fn affine(x: &[f64], w: &Mat, b: Option<&Mat>) -> Vec<f64> {
    assert_eq!(x.len(), w.rows, "input width");
    (0..w.cols)
        .map(|j| {
            let dot: f64 = x
                .iter()
                .enumerate()
                .map(|(i, xi)| xi * w.data[i * w.cols + j])
                .sum();
            dot + b.map_or(0.0, |b| b.data[j])
        })
        .collect()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn relu(v: Vec<f64>) -> Vec<f64> {
    v.into_iter().map(|x| x.max(0.0)).collect()
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn softmax(xs: &[f64]) -> Vec<f64> {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = xs.iter().map(|x| (x - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// `Σᵢ wᵢ·rowsᵢ`.
fn weighted_sum(weights: &[f64], rows: &[Vec<f64>]) -> Vec<f64> {
    let mut out = vec![0.0; rows[0].len()];
    for (w, row) in weights.iter().zip(rows) {
        for (o, x) in out.iter_mut().zip(row) {
            *o += w * x;
        }
    }
    out
}

fn mean_rows(rows: &[Vec<f64>]) -> Vec<f64> {
    let uniform = vec![1.0 / rows.len() as f64; rows.len()];
    weighted_sum(&uniform, rows)
}

/// One branch's embedding source: Algorithm 1 over the branch's metapath
/// for the graph variants, plain table rows for the −G variants.
struct Source<'m> {
    users: Mat,
    cities: Mat,
    /// Algorithm 1's `W^k`, one per exploration step (empty without HSGC).
    layers: Vec<Mat>,
    graph: Option<(&'m Hsg, &'m NeighborTable)>,
    memo: HashMap<(Node, usize), Vec<f64>>,
}

impl<'m> Source<'m> {
    fn new(model: &OdNetModel, branch: &str, graph: Option<(&'m Hsg, &'m NeighborTable)>) -> Self {
        let (tables, depth) = match graph {
            Some(_) => (format!("{branch}.hsgc"), model.config.depth),
            None => (branch.to_string(), 0),
        };
        Source {
            users: param(model, &format!("{tables}.users")),
            cities: param(model, &format!("{tables}.cities")),
            layers: (0..depth)
                .map(|k| param(model, &format!("{tables}.w{k}.w")))
                .collect(),
            graph,
            memo: HashMap::new(),
        }
    }

    /// The final embedding `e^K_v`.
    fn embed(&mut self, node: Node) -> Vec<f64> {
        self.step(node, self.layers.len())
    }

    /// `e^k_v` (Algorithm 1), memoised per `(node, k)`.
    fn step(&mut self, node: Node, k: usize) -> Vec<f64> {
        if let Some(e) = self.memo.get(&(node, k)) {
            return e.clone();
        }
        let e = if k == 0 {
            // Line 1: e⁰_v = M_T·h_v, one row of the learned table.
            match node {
                Node::User(u) => self.users.row(u.index()).to_vec(),
                Node::City(c) => self.cities.row(c.index()).to_vec(),
            }
        } else {
            let (hsg, neighbors) = self.graph.expect("k > 0 only on graph variants");
            let e_self = self.step(node, k - 1);
            let ids = neighbors.of(node).to_vec();
            let e_nbrs: Vec<Vec<f64>> = ids
                .iter()
                .map(|&j| self.step(Node::City(j), k - 1))
                .collect();
            // Line 4: e_N = Σⱼ α_ij·e_j with Eq. 1's α_ij = softmaxⱼ ReLU(w_ij·e_i·e_j),
            // w_ij = 1 for a user and Eq. 2's spatial weight for a city. A
            // node with no sampled neighbours aggregates to zero.
            let e_n = if ids.is_empty() {
                vec![0.0; e_self.len()]
            } else {
                let scores: Vec<f64> = ids
                    .iter()
                    .zip(&e_nbrs)
                    .map(|(&j, e_j)| {
                        let w = match node {
                            Node::User(_) => 1.0,
                            Node::City(i) => spatial_weight(hsg, i, j),
                        };
                        (w * dot(&e_self, e_j)).max(0.0)
                    })
                    .collect();
                weighted_sum(&softmax(&scores), &e_nbrs)
            };
            // Line 5: e^k_v = ReLU(W^k · concat(e^{k−1}_v, e_N)).
            relu(affine(&[e_self, e_n].concat(), &self.layers[k - 1], None))
        };
        self.memo.insert((node, k), e.clone());
        e
    }
}

/// Eq. 2: `w_ij = (1/d_ij) / Σ_{p≠i} 1/d_ip` over Definition 1's L2
/// distance of longitude/latitude (clamped at 1e-6), and `w_ii = 0`.
fn spatial_weight(hsg: &Hsg, i: CityId, j: CityId) -> f64 {
    if i == j {
        return 0.0;
    }
    let inv_dist = |a: CityId, b: CityId| {
        let (p, q) = (hsg.coords(a), hsg.coords(b));
        1.0 / (p.lon - q.lon).hypot(p.lat - q.lat).max(1e-6)
    };
    let denom: f64 = (0..hsg.num_cities() as u32)
        .map(CityId)
        .filter(|&p| p != i)
        .map(|p| inv_dist(i, p))
        .sum();
    inv_dist(i, j) / denom
}

/// Eq. 3: multi-head self-attention over a sequence — per head
/// `softmax(QKᵀ/√d_k)·V`, heads concatenated, then `W^O`.
fn self_attention(model: &OdNetModel, name: &str, e: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let heads = model.config.heads;
    let dk = model.config.embed_dim / heads;
    let scale = 1.0 / (dk as f64).sqrt();
    let mut concat = vec![Vec::new(); e.len()];
    for h in 0..heads {
        let project = |w: &str| -> Vec<Vec<f64>> {
            let w = param(model, &format!("{name}.h{h}.{w}"));
            e.iter().map(|x| affine(x, &w, None)).collect()
        };
        let (q, k, v) = (project("wq"), project("wk"), project("wv"));
        for (q_i, out) in q.iter().zip(&mut concat) {
            let scores: Vec<f64> = k.iter().map(|k_j| scale * dot(q_i, k_j)).collect();
            out.extend(weighted_sum(&softmax(&scores), &v));
        }
    }
    let wo = param(model, &format!("{name}.wo"));
    concat.iter().map(|x| affine(x, &wo, None)).collect()
}

/// The PEC: returns the summary `v_L` and the Eq. 4–5 attention weights.
/// The query `v_S` is the mean of the encoded short-term sequence (zero
/// without clicks); without long-term history the summary is zero.
fn pec(
    model: &OdNetModel,
    branch: &str,
    long: &[Vec<f64>],
    short: &[Vec<f64>],
) -> (Vec<f64>, Vec<f64>) {
    let d = model.config.embed_dim;
    if long.is_empty() {
        return (vec![0.0; d], Vec::new());
    }
    let enc_long = self_attention(model, &format!("{branch}.pec.enc_long"), long);
    let v_s = if short.is_empty() {
        vec![0.0; d]
    } else {
        mean_rows(&self_attention(
            model,
            &format!("{branch}.pec.enc_short"),
            short,
        ))
    };
    // Eq. 4: e*ᵢ = v_Sᵀ·W*·ê_Lⁱ; Eq. 5: v_L = Σᵢ softmax(e*)ᵢ·ê_Lⁱ.
    let u = affine(&v_s, &param(model, &format!("{branch}.pec.attn.w")), None);
    let scores: Vec<f64> = enc_long.iter().map(|e| dot(&u, e)).collect();
    let alpha = softmax(&scores);
    (weighted_sum(&alpha, &enc_long), alpha)
}

/// The intent module: the mean recent-click embedding attends over the
/// prototypes; returns the prototype mix and the assignment (zero mix and
/// no assignment without clicks).
fn intent(model: &OdNetModel, branch: &str, short: &[Vec<f64>]) -> (Vec<f64>, Option<Vec<f64>>) {
    if short.is_empty() {
        return (vec![0.0; model.config.embed_dim], None);
    }
    let protos = param(model, &format!("{branch}.intent"));
    let query = mean_rows(short);
    let rows: Vec<Vec<f64>> = (0..protos.rows).map(|i| protos.row(i).to_vec()).collect();
    let scores: Vec<f64> = rows.iter().map(|p| dot(&query, p)).collect();
    let assignment = softmax(&scores);
    (weighted_sum(&assignment, &rows), Some(assignment))
}

/// A tower: ReLU hidden layers, a linear logit out.
struct Tower(Vec<(Mat, Mat)>);

impl Tower {
    fn new(model: &OdNetModel, name: &str) -> Self {
        let layers = (0..)
            .map(|l| format!("{name}.l{l}"))
            .take_while(|l| model.store.lookup(&format!("{l}.w")).is_some())
            .map(|l| {
                (
                    param(model, &format!("{l}.w")),
                    param(model, &format!("{l}.b")),
                )
            })
            .collect();
        Tower(layers)
    }

    fn logit(&self, x: &[f64]) -> f64 {
        let mut x = x.to_vec();
        for (l, (w, b)) in self.0.iter().enumerate() {
            x = affine(&x, w, Some(b));
            if l + 1 < self.0.len() {
                x = relu(x);
            }
        }
        assert_eq!(x.len(), 1, "a tower emits one logit");
        x[0]
    }
}

enum Head {
    /// Eqs. 6–7: experts `ReLU(q⊕·W_e + b_e)`, per-task gates
    /// `softmax(q⊕·W_g)`, the gate-weighted expert sum into each tower.
    Mmoe {
        experts: Vec<(Mat, Mat)>,
        gate_o: Mat,
        gate_d: Mat,
        tower_o: Tower,
        tower_d: Tower,
    },
    /// STL: one tower per task over its own `q`.
    Stl { tower_o: Tower, tower_d: Tower },
}

impl Head {
    fn new(model: &OdNetModel) -> Self {
        if model.variant.joint() {
            Head::Mmoe {
                experts: (0..model.config.experts)
                    .map(|e| {
                        let w = param(model, &format!("jlc.expert{e}.w"));
                        (w, param(model, &format!("jlc.expert{e}.b")))
                    })
                    .collect(),
                gate_o: param(model, "jlc.gate_o.w"),
                gate_d: param(model, "jlc.gate_d.w"),
                tower_o: Tower::new(model, "jlc.tower_o"),
                tower_d: Tower::new(model, "jlc.tower_d"),
            }
        } else {
            Head::Stl {
                tower_o: Tower::new(model, "stl.tower_o"),
                tower_d: Tower::new(model, "stl.tower_d"),
            }
        }
    }

    /// `(logit_O, logit_D, gate_O, gate_D)` for one candidate.
    fn forward(&self, q_o: &[f64], q_d: &[f64]) -> (f64, f64, Vec<f64>, Vec<f64>) {
        match self {
            Head::Mmoe {
                experts,
                gate_o,
                gate_d,
                tower_o,
                tower_d,
            } => {
                let q_cat = [q_o, q_d].concat();
                let outs: Vec<Vec<f64>> = experts
                    .iter()
                    .map(|(w, b)| relu(affine(&q_cat, w, Some(b))))
                    .collect();
                let g_o = softmax(&affine(&q_cat, gate_o, None));
                let g_d = softmax(&affine(&q_cat, gate_d, None));
                let logit_o = tower_o.logit(&weighted_sum(&g_o, &outs));
                let logit_d = tower_d.logit(&weighted_sum(&g_d, &outs));
                (logit_o, logit_d, g_o, g_d)
            }
            Head::Stl { tower_o, tower_d } => (
                tower_o.logit(q_o),
                tower_d.logit(q_d),
                Vec::new(),
                Vec::new(),
            ),
        }
    }
}

/// The models and groups every forward suite checks.
pub struct Fixture {
    /// Every variant once: the HSGC at K = 2 (ODNET) and K = 1 (STL+G), the
    /// intent module on in one joint and one STL model.
    pub models: Vec<OdNetModel>,
    /// The real group with the longest long- and short-term histories.
    pub template: GroupInput,
    /// The dataset's first real groups, warm and cold histories alike.
    pub groups: Vec<GroupInput>,
    /// City universe size.
    pub num_cities: usize,
}

/// The shared fixture, built once per test binary.
pub fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ds = FliggyDataset::generate(FliggyConfig::tiny());
        let build = |variant: Variant, depth: usize, intents: usize| {
            let cfg = OdnetConfig {
                depth,
                intents,
                ..OdnetConfig::tiny()
            };
            let hsg = variant.uses_graph().then(|| ds.hsg());
            let mut model = OdNetModel::new(
                variant,
                cfg,
                ds.world.num_users(),
                ds.world.num_cities(),
                hsg,
            );
            redraw(&mut model);
            model
        };
        let models = vec![
            build(Variant::Odnet, 2, 3),
            build(Variant::OdnetG, 1, 0),
            build(Variant::StlPlusG, 1, 0),
            build(Variant::StlG, 1, 2),
        ];
        let groups = FeatureExtractor::new(6, 4).groups_from_samples(&ds, &ds.train);
        // The longest histories: a one-element sequence attends to itself
        // with weight 1 whatever the scores, so it cannot show an attention
        // defect.
        let template = groups
            .iter()
            .max_by_key(|g| {
                [&g.lt_origins, &g.st_origins, &g.lt_dests, &g.st_dests]
                    .map(|s| s.len())
                    .into_iter()
                    .min()
            })
            .expect("the dataset has groups")
            .clone();
        Fixture {
            models,
            template,
            groups: groups.into_iter().take(32).collect(),
            num_cities: ds.world.num_cities(),
        }
    })
}

/// Re-draw every parameter at unit scale. At the paper's N(0, 0.05²)
/// initialization every attention score and gate logit is ~1e-3, so every
/// softmax in the model is uniform to within rounding and a wrong
/// temperature or scale cannot move a score. Tables get unit variance, a
/// weight matrix variance 1/fan-in, so each layer's output is unit scale
/// and the attentions, gates and θ are far from uniform.
fn redraw(model: &mut OdNetModel) {
    let mut rng = StdRng::seed_from_u64(model.config.seed ^ model.variant as u64);
    let ids: Vec<_> = model.store.ids().collect();
    for id in ids {
        let table = ["users", "cities", "intent"]
            .iter()
            .any(|s| model.store.name(id).ends_with(s));
        let t = model.store.value_mut(id);
        let var = if table { 1.0 } else { 1.0 / t.rows() as f32 };
        // U(−a, a) has variance a²/3.
        let a = (3.0 * var).sqrt();
        for x in t.as_mut_slice() {
            *x = rng.gen_range(-a..a);
        }
    }
}

/// Candidate sets of 1–64 arbitrary city pairs and feature values.
pub fn candidates(num_cities: usize) -> impl Strategy<Value = Vec<CandidateInput>> {
    let cand = (
        0..num_cities as u32,
        0..num_cities as u32,
        prop::collection::vec(-1.0f32..3.0, 2 * XST_DIM),
        prop::bool::ANY,
    )
        .prop_map(|(o, d, x, label)| {
            let mut xst_o = [0.0f32; XST_DIM];
            let mut xst_d = [0.0f32; XST_DIM];
            xst_o.copy_from_slice(&x[..XST_DIM]);
            xst_d.copy_from_slice(&x[XST_DIM..]);
            CandidateInput {
                origin: CityId(o),
                dest: CityId(d),
                xst_o,
                xst_d,
                label_o: if label { 1.0 } else { 0.0 },
                label_d: if label { 0.0 } else { 1.0 },
            }
        });
    prop::collection::vec(cand, 1..=64)
}
