//! Heterogeneous Spatial Graph Component — Algorithm 1 of the paper.
//!
//! The HSGC produces spatial semantic embeddings for user and city ids by
//! iteratively aggregating metapath-based neighbor cities in the HSG:
//!
//! ```text
//! e⁰_v   = M_T · h_v                                      (line 1)
//! e_N    = Σ_j α_ij · e^{k-1}_j over j ∈ N¹_ρ(v)          (line 4)
//! e^k_v  = ReLU(W^k · concat(e^{k-1}_v, e_N))             (line 5)
//! ```
//!
//! with the attention weights of Eq. 1 — plain dot-product attention for
//! user nodes, spatially reweighted (Eq. 2's `w_ij`) dot-product attention
//! for city nodes. Two implementation notes, both documented deviations:
//!
//! - `h_v` are id one-hots in the paper, so `M_T · h_v` is a row of a
//!   learnable embedding table; we learn the table directly.
//! - Eq. 1 writes `α^k` in terms of `e^k`, which is circular (the `e^k`
//!   being aggregated depend on `α^k`); we follow the standard GraphSAGE /
//!   GAT reading and compute step-`k` attention from the step-`k−1`
//!   embeddings.
//!
//! Per-sample inference uses lazy recursion with memoization: only the
//! receptive field of the ids actually requested (≤ cap^K neighbor closure)
//! is computed, exactly like minibatch GraphSAGE.

use od_hsg::{CityId, DistanceMatrix, NeighborTable, Node, UserId};
use od_tensor::nn::{Embedding, Linear};
use od_tensor::{Graph, ParamId, ParamStore, Shape, Tensor, Value};
use rand::Rng;
use std::collections::HashMap;

/// The trainable parameters of one HSGC copy (origin-aware over ρ₁ or
/// destination-aware over ρ₂ — the copy does not know which; the caller
/// picks the matching [`NeighborTable`]).
#[derive(Clone, Debug)]
pub struct HsgcModule {
    user_table: Embedding,
    city_table: Embedding,
    /// One `2d → d` transform per exploration step (Algorithm 1's `W^k`).
    layers: Vec<Linear>,
    dim: usize,
    depth: usize,
}

impl HsgcModule {
    /// Register the module's parameters under `name`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        num_users: usize,
        num_cities: usize,
        dim: usize,
        depth: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let user_table = Embedding::new(store, &format!("{name}.users"), num_users, dim, rng);
        let city_table = Embedding::new(store, &format!("{name}.cities"), num_cities, dim, rng);
        let layers = (0..depth)
            .map(|k| Linear::new(store, &format!("{name}.w{k}"), 2 * dim, dim, false, rng))
            .collect();
        HsgcModule {
            user_table,
            city_table,
            layers,
            dim,
            depth,
        }
    }

    /// Embedding width `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Exploration depth `K`.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Handles of the level-0 `(user, city)` embedding tables.
    pub fn tables(&self) -> (ParamId, ParamId) {
        (self.user_table.table(), self.city_table.table())
    }

    /// Materialize the depth-`K` embeddings of *every* user and city into
    /// dense tables — the train/serve split's freeze step. At serving time
    /// Algorithm 1's K-step aggregation then collapses to a table lookup.
    ///
    /// Implemented by running the live tape forward once over all ids (one
    /// shared memoized pass), so the tables are bit-identical to what a
    /// per-request recursion would produce — not a reimplementation that
    /// could drift.
    pub fn materialize(
        &self,
        store: &ParamStore,
        neighbors: &NeighborTable,
        dist: &DistanceMatrix,
    ) -> (Tensor, Tensor) {
        let mut g = Graph::new();
        let mut fwd = self.begin(&mut g, store, neighbors, dist);
        // Cities first: user embeddings recurse into city embeddings, so the
        // memo is already warm when the user loop runs.
        let mut cities = Tensor::zeros(Shape::Matrix(self.city_table.vocab(), self.dim));
        for c in 0..self.city_table.vocab() {
            let v = fwd.city(&mut g, store, CityId(c as u32));
            cities.row_mut(c).copy_from_slice(g.value(v).as_slice());
        }
        let mut users = Tensor::zeros(Shape::Matrix(self.user_table.vocab(), self.dim));
        for u in 0..self.user_table.vocab() {
            let v = fwd.user(&mut g, store, UserId(u as u32));
            users.row_mut(u).copy_from_slice(g.value(v).as_slice());
        }
        (users, cities)
    }

    /// Start a memoized forward pass on `g`. The neighbor table selects the
    /// metapath (ρ₁ → origin-aware, ρ₂ → destination-aware); `dist`
    /// supplies Eq. 2's spatial weights.
    pub fn begin<'m>(
        &'m self,
        g: &mut Graph,
        store: &ParamStore,
        neighbors: &'m NeighborTable,
        dist: &'m DistanceMatrix,
    ) -> HsgcForward<'m> {
        // Snapshot both tables once per graph; every level-0 lookup gathers
        // from these shared nodes instead of re-cloning the tables.
        let users = g.param(store, self.user_table.table());
        let cities = g.param(store, self.city_table.table());
        HsgcForward {
            module: self,
            neighbors,
            dist,
            users,
            cities,
            memo: HashMap::new(),
        }
    }
}

/// One memoized HSGC forward pass over a single autograd graph.
pub struct HsgcForward<'m> {
    module: &'m HsgcModule,
    neighbors: &'m NeighborTable,
    dist: &'m DistanceMatrix,
    users: Value,
    cities: Value,
    memo: HashMap<(Node, usize), Value>,
}

impl HsgcForward<'_> {
    /// Final (depth-`K`) spatial semantic embedding of a user id, as a
    /// length-`d` vector.
    pub fn user(&mut self, g: &mut Graph, store: &ParamStore, u: UserId) -> Value {
        self.embed(g, store, Node::User(u), self.module.depth)
    }

    /// Final spatial semantic embedding of a city id, as a length-`d`
    /// vector.
    pub fn city(&mut self, g: &mut Graph, store: &ParamStore, c: CityId) -> Value {
        self.embed(g, store, Node::City(c), self.module.depth)
    }

    /// Embeddings of a city sequence stacked into a `[t × d]` matrix
    /// (`None` when the sequence is empty).
    pub fn cities(&mut self, g: &mut Graph, store: &ParamStore, ids: &[CityId]) -> Option<Value> {
        if ids.is_empty() {
            return None;
        }
        let rows: Vec<Value> = ids.iter().map(|&c| self.city(g, store, c)).collect();
        Some(g.concat_rows(&rows))
    }

    /// `e^k_v` with memoization.
    fn embed(&mut self, g: &mut Graph, store: &ParamStore, node: Node, k: usize) -> Value {
        if let Some(&v) = self.memo.get(&(node, k)) {
            return v;
        }
        let value = if k == 0 {
            // Line 1: M_T · h_v — a learnable table row.
            let (table, idx) = match node {
                Node::User(u) => (self.users, u.index()),
                Node::City(c) => (self.cities, c.index()),
            };
            let row = g.gather_rows(table, &[idx]);
            g.reshape(row, Shape::Vector(self.module.dim))
        } else {
            let e_self = self.embed(g, store, node, k - 1);
            let nbr_ids: Vec<CityId> = self.neighbors.of(node).to_vec();
            let e_nbr = if nbr_ids.is_empty() {
                // Cold node: aggregate over the empty neighborhood is zero.
                g.input(Tensor::zeros(Shape::Vector(self.module.dim)))
            } else {
                let rows: Vec<Value> = nbr_ids
                    .iter()
                    .map(|&c| self.embed(g, store, Node::City(c), k - 1))
                    .collect();
                let nbrs = g.concat_rows(&rows); // m×d
                let alpha = self.attention(g, node, e_self, nbrs, &nbr_ids);
                let pooled = g.matmul(alpha, nbrs); // 1×d
                g.reshape(pooled, Shape::Vector(self.module.dim))
            };
            // Line 5: ReLU(W^k · concat(e_self, e_N)).
            let cat = g.concat_cols(&[e_self, e_nbr]); // vector 2d
            let lin = self.module.layers[k - 1].forward(g, store, cat);
            let act = g.relu(lin);
            g.reshape(act, Shape::Vector(self.module.dim))
        };
        self.memo.insert((node, k), value);
        value
    }

    /// Eq. 1 attention over the neighbor rows: `softmax(ReLU(e_i · e_j))`
    /// for user nodes, `softmax(ReLU(w_ij · e_i · e_j))` for city nodes.
    /// Returns a `1 × m` weight row.
    fn attention(
        &self,
        g: &mut Graph,
        node: Node,
        e_self: Value,
        nbrs: Value,
        nbr_ids: &[CityId],
    ) -> Value {
        let nbrs_t = g.transpose(nbrs); // d×m
        let scores = g.matmul(e_self, nbrs_t); // 1×m
        let weighted = match node {
            Node::User(_) => scores,
            Node::City(c) => {
                // Spatial reweighting inside the ReLU (Eq. 1, city case).
                let w: Vec<f32> = nbr_ids
                    .iter()
                    .map(|&j| self.dist.weight(c.index(), j.index()))
                    .collect();
                let wt = g.input(Tensor::matrix(1, w.len(), &w));
                g.mul(scores, wt)
            }
        };
        let act = g.relu(weighted);
        g.softmax_rows(act)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_hsg::{GeoPoint, HsgBuilder, Interaction, Metapath};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const DIM: usize = 6;

    fn toy_hsg() -> od_hsg::Hsg {
        let coords = (0..5)
            .map(|i| GeoPoint {
                lon: i as f64,
                lat: (i * i) as f64 * 0.1,
            })
            .collect();
        let mut b = HsgBuilder::new(3, coords);
        for (u, o, d) in [(0, 0, 2), (0, 1, 3), (1, 1, 2), (2, 0, 4)] {
            b.add_interaction(Interaction {
                user: UserId(u),
                origin: CityId(o),
                dest: CityId(d),
            });
        }
        b.build()
    }

    fn module(store: &mut ParamStore, depth: usize) -> HsgcModule {
        let mut rng = StdRng::seed_from_u64(5);
        HsgcModule::new(store, "hsgc", 3, 5, DIM, depth, &mut rng)
    }

    #[test]
    fn embeddings_have_declared_shape() {
        let hsg = toy_hsg();
        let mut store = ParamStore::new();
        let m = module(&mut store, 2);
        assert_eq!((m.dim(), m.depth()), (DIM, 2));
        let mut rng = StdRng::seed_from_u64(1);
        let table = hsg.neighbor_table(Metapath::RHO1, 5, &mut rng);
        let mut g = Graph::new();
        let mut fwd = m.begin(&mut g, &store, &table, hsg.distances());
        let eu = fwd.user(&mut g, &store, UserId(0));
        let ec = fwd.city(&mut g, &store, CityId(1));
        assert_eq!(g.value(eu).shape(), Shape::Vector(DIM));
        assert_eq!(g.value(ec).shape(), Shape::Vector(DIM));
        assert!(g.value(eu).all_finite());
    }

    #[test]
    fn depth_zero_is_plain_table_row() {
        let hsg = toy_hsg();
        let mut store = ParamStore::new();
        let m = module(&mut store, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let table = hsg.neighbor_table(Metapath::RHO1, 5, &mut rng);
        let raw = store
            .value(store.lookup("hsgc.users").unwrap())
            .row(1)
            .to_vec();
        let mut g = Graph::new();
        let mut fwd = m.begin(&mut g, &store, &table, hsg.distances());
        let e = fwd.user(&mut g, &store, UserId(1));
        assert_eq!(g.value(e).as_slice(), &raw[..]);
    }

    #[test]
    fn memoization_dedupes_repeated_nodes() {
        let hsg = toy_hsg();
        let mut store = ParamStore::new();
        let m = module(&mut store, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let table = hsg.neighbor_table(Metapath::RHO1, 5, &mut rng);

        let mut g1 = Graph::new();
        let mut fwd = m.begin(&mut g1, &store, &table, hsg.distances());
        fwd.city(&mut g1, &store, CityId(0));
        let single = g1.len();
        // Requesting the same city twice must not grow the tape.
        fwd.city(&mut g1, &store, CityId(0));
        assert_eq!(g1.len(), single, "memo must prevent recomputation");
    }

    #[test]
    fn sequence_stacking_shape_and_empty() {
        let hsg = toy_hsg();
        let mut store = ParamStore::new();
        let m = module(&mut store, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let table = hsg.neighbor_table(Metapath::RHO2, 5, &mut rng);
        let mut g = Graph::new();
        let mut fwd = m.begin(&mut g, &store, &table, hsg.distances());
        let seq = fwd
            .cities(&mut g, &store, &[CityId(2), CityId(3), CityId(2)])
            .unwrap();
        assert_eq!(g.value(seq).shape(), Shape::Matrix(3, DIM));
        assert!(fwd.cities(&mut g, &store, &[]).is_none());
    }

    #[test]
    fn gradients_reach_tables_and_layers() {
        let hsg = toy_hsg();
        let mut store = ParamStore::new();
        let m = module(&mut store, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let table = hsg.neighbor_table(Metapath::RHO1, 5, &mut rng);
        let mut g = Graph::new();
        let mut fwd = m.begin(&mut g, &store, &table, hsg.distances());
        let e = fwd.user(&mut g, &store, UserId(0));
        let sq = g.mul(e, e);
        let loss = g.sum_all(sq);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        // User 0's departure neighborhood touches cities {0, 1}, so the city
        // table, the user table, and both W layers must all receive signal.
        for name in ["hsgc.users", "hsgc.cities", "hsgc.w0.w", "hsgc.w1.w"] {
            let id = store.lookup(name).unwrap();
            assert!(store.grad(id).sq_norm() > 0.0, "no gradient reached {name}");
        }
    }

    #[test]
    fn exploration_differs_from_plain_embedding() {
        // With depth > 0 the embedding of a user must depend on its
        // neighbors' level-0 rows, i.e. differ from any fixed transform of
        // its own row alone. We check this by perturbing a neighbor city row
        // and observing the user embedding change.
        let hsg = toy_hsg();
        let mut store = ParamStore::new();
        let m = module(&mut store, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let table = hsg.neighbor_table(Metapath::RHO1, 5, &mut rng);

        let embed_user0 = |store: &ParamStore| -> Vec<f32> {
            let mut g = Graph::new();
            let mut fwd = m.begin(&mut g, store, &table, hsg.distances());
            let e = fwd.user(&mut g, store, UserId(0));
            g.value(e).as_slice().to_vec()
        };
        let before = embed_user0(&store);
        let cid = store.lookup("hsgc.cities").unwrap();
        store.value_mut(cid).row_mut(0)[0] += 1.0; // city 0 ∈ N¹_ρ1(u0)
        let after = embed_user0(&store);
        assert_ne!(before, after, "neighbor perturbation must propagate");
    }

    #[test]
    fn materialized_tables_match_per_request_recursion_bitwise() {
        let hsg = toy_hsg();
        let mut store = ParamStore::new();
        let m = module(&mut store, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let table = hsg.neighbor_table(Metapath::RHO1, 5, &mut rng);
        let (users, cities) = m.materialize(&store, &table, hsg.distances());
        assert_eq!(users.shape(), Shape::Matrix(3, DIM));
        assert_eq!(cities.shape(), Shape::Matrix(5, DIM));
        for u in 0..3u32 {
            let mut g = Graph::new();
            let mut fwd = m.begin(&mut g, &store, &table, hsg.distances());
            let e = fwd.user(&mut g, &store, UserId(u));
            assert_eq!(g.value(e).as_slice(), users.row(u as usize));
        }
        for c in 0..5u32 {
            let mut g = Graph::new();
            let mut fwd = m.begin(&mut g, &store, &table, hsg.distances());
            let e = fwd.city(&mut g, &store, CityId(c));
            assert_eq!(g.value(e).as_slice(), cities.row(c as usize));
        }
    }

    #[test]
    fn cold_nodes_with_no_neighbors_still_embed() {
        let hsg = toy_hsg();
        let mut store = ParamStore::new();
        let m = module(&mut store, 2);
        let mut rng = StdRng::seed_from_u64(1);
        // City 4 has no ρ1 city-neighbors beyond u2's {0}; city 3 has no
        // arrivals in common with anyone — exercise both metapaths.
        let table = hsg.neighbor_table(Metapath::RHO2, 5, &mut rng);
        let mut g = Graph::new();
        let mut fwd = m.begin(&mut g, &store, &table, hsg.distances());
        let e = fwd.city(&mut g, &store, CityId(4));
        assert!(g.value(e).all_finite());
        assert_eq!(g.value(e).shape(), Shape::Vector(DIM));
    }
}
