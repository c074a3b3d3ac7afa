//! The Heterogeneous Spatial Graph itself (paper Definition 1) and
//! metapath-based neighbor-city queries (Definitions 2–3).

use crate::csr::Csr;
use crate::distance::{DistanceMatrix, GeoPoint};
use crate::ids::{CityId, EdgeType, Metapath, Node, UserId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One historical user-city interaction: user `u` booked a flight whose
/// origin was `origin` and destination was `dest`. Each record contributes a
/// departure edge `(u, origin)` and an arrive edge `(u, dest)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interaction {
    /// The booking user.
    pub user: UserId,
    /// Origin city of the flight.
    pub origin: CityId,
    /// Destination city of the flight.
    pub dest: CityId,
}

/// Builder accumulating interactions before freezing into an [`Hsg`].
#[derive(Debug)]
pub struct HsgBuilder {
    num_users: usize,
    coords: Vec<GeoPoint>,
    /// Per edge type, user→city edge lists.
    edges: [Vec<(u32, u32)>; 2],
}

impl HsgBuilder {
    /// Start a builder for `num_users` users and the given city coordinates.
    pub fn new(num_users: usize, coords: Vec<GeoPoint>) -> Self {
        HsgBuilder {
            num_users,
            coords,
            edges: [Vec::new(), Vec::new()],
        }
    }

    /// Add one booking interaction (a departure edge and an arrive edge).
    pub fn add_interaction(&mut self, it: Interaction) -> &mut Self {
        assert!(it.user.index() < self.num_users, "user id out of range");
        assert!(
            it.origin.index() < self.coords.len() && it.dest.index() < self.coords.len(),
            "city id out of range"
        );
        self.edges[EdgeType::Departure.index()].push((it.user.0, it.origin.0));
        self.edges[EdgeType::Arrive.index()].push((it.user.0, it.dest.0));
        self
    }

    /// Add a single typed edge directly (used when clicks and bookings are
    /// ingested separately).
    pub fn add_edge(&mut self, user: UserId, city: CityId, edge_type: EdgeType) -> &mut Self {
        assert!(user.index() < self.num_users, "user id out of range");
        assert!(city.index() < self.coords.len(), "city id out of range");
        self.edges[edge_type.index()].push((user.0, city.0));
        self
    }

    /// Freeze into an immutable [`Hsg`], building both adjacency directions
    /// and the distance matrix.
    pub fn build(self) -> Hsg {
        let num_cities = self.coords.len();
        let user_to_city = self
            .edges
            .clone()
            .map(|e| Csr::from_edges(self.num_users, e));
        let city_to_user = self
            .edges
            .map(|e| Csr::from_edges(num_cities, e.into_iter().map(|(u, c)| (c, u))));
        let dist = DistanceMatrix::from_coords(&self.coords);
        Hsg {
            num_users: self.num_users,
            coords: self.coords,
            user_to_city,
            city_to_user,
            dist,
        }
    }
}

/// The frozen Heterogeneous Spatial Graph: `HSG(V, E, D)` with
/// `φ: V → {user, city}` and `ψ: E → {departure, arrive}` (Def. 1).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Hsg {
    num_users: usize,
    coords: Vec<GeoPoint>,
    user_to_city: [Csr; 2],
    city_to_user: [Csr; 2],
    dist: DistanceMatrix,
}

impl Hsg {
    /// Number of user-type nodes.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of city-type nodes.
    pub fn num_cities(&self) -> usize {
        self.coords.len()
    }

    /// Total node count `|V|`.
    pub fn num_nodes(&self) -> usize {
        self.num_users + self.num_cities()
    }

    /// Total edge count `|E|` (deduplicated, across both types).
    pub fn num_edges(&self) -> usize {
        self.user_to_city.iter().map(Csr::num_edges).sum()
    }

    /// Coordinates of a city node.
    pub fn coords(&self, city: CityId) -> GeoPoint {
        self.coords[city.index()]
    }

    /// The distance matrix `D` and Eq. 2 spatial weights.
    pub fn distances(&self) -> &DistanceMatrix {
        &self.dist
    }

    /// Whether user `u` has an edge of `edge_type` to `city`.
    pub fn has_edge(&self, user: UserId, city: CityId, edge_type: EdgeType) -> bool {
        self.user_to_city[edge_type.index()].contains(user.index(), city.0)
    }

    /// Cities adjacent to a user under the given edge type — the user's
    /// metapath-based 1st-order neighbor cities `N¹_ρ(u)` (Def. 3): for ρ₁
    /// these are all historical departure cities of the user.
    pub fn user_neighbor_cities(&self, user: UserId, metapath: Metapath) -> &[u32] {
        self.user_to_city[metapath.edge_type().index()].neighbors(user.index())
    }

    /// A city's metapath-based 1st-order neighbor cities `N¹_ρ(c)` (Def. 3):
    /// the other cities visited (under the same edge type) by users who
    /// visited `c` — i.e. a two-hop walk city → user → city along ρ,
    /// excluding `c` itself. Sorted and deduplicated.
    pub fn city_neighbor_cities(&self, city: CityId, metapath: Metapath) -> Vec<u32> {
        self.city_neighbor_cities_weighted(city, metapath)
            .into_iter()
            .map(|(c, _)| c)
            .collect()
    }

    /// Like [`Hsg::city_neighbor_cities`] but with **co-visitation
    /// strengths**: `w(c → c') = Σ_u count(u, c) · count(u, c')` over the
    /// two-hop walks. Co-visitation frequency is what distinguishes a
    /// same-pattern companion city from incidental noise; the neighbor
    /// sampler keeps the strongest ties. Sorted by city id.
    pub fn city_neighbor_cities_weighted(
        &self,
        city: CityId,
        metapath: Metapath,
    ) -> Vec<(u32, u64)> {
        let et = metapath.edge_type().index();
        let mut weights: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        let users = self.city_to_user[et].neighbors(city.index());
        let user_counts = self.city_to_user[et].counts(city.index());
        for (&u, &uc) in users.iter().zip(user_counts) {
            let cities = self.user_to_city[et].neighbors(u as usize);
            let city_counts = self.user_to_city[et].counts(u as usize);
            for (&c, &cc) in cities.iter().zip(city_counts) {
                if c != city.0 {
                    *weights.entry(c).or_insert(0) += uc as u64 * cc as u64;
                }
            }
        }
        weights.into_iter().collect()
    }

    /// Degree of a node under one edge type.
    pub fn degree(&self, node: Node, edge_type: EdgeType) -> usize {
        match node {
            Node::User(u) => self.user_to_city[edge_type.index()].degree(u.index()),
            Node::City(c) => self.city_to_user[edge_type.index()].degree(c.index()),
        }
    }

    /// Precompute, for every node, its (possibly sampled) 1st-order neighbor
    /// cities along `metapath` — the neighborhood table Algorithm 1 consumes,
    /// capped at `cap` neighbors per node following the paper's §V-A.5 cap
    /// of 5 (after Fan et al., KDD'19).
    ///
    /// Sampling is **importance-weighted**: user nodes keep their most
    /// frequently booked cities, city nodes their strongest co-visitation
    /// companions. In dense interaction graphs the deduplicated neighbor
    /// *set* approaches "every city" and carries no signal; the tie
    /// strengths carry all of it. Ties beyond the cap are broken uniformly
    /// at random via `rng`.
    ///
    /// Returned layout: `users[u]` then `cities[c]`, each a `Vec<CityId>`.
    pub fn neighbor_table(
        &self,
        metapath: Metapath,
        cap: usize,
        rng: &mut impl Rng,
    ) -> NeighborTable {
        assert!(cap > 0, "neighbor cap must be positive");
        let et = metapath.edge_type().index();
        let mut users = Vec::with_capacity(self.num_users);
        for u in 0..self.num_users {
            let weighted: Vec<(u32, u64)> = self.user_to_city[et]
                .neighbors(u)
                .iter()
                .zip(self.user_to_city[et].counts(u))
                .map(|(&c, &n)| (c, n as u64))
                .collect();
            users.push(top_by_weight(weighted, cap, rng));
        }
        let mut cities = Vec::with_capacity(self.num_cities());
        for c in 0..self.num_cities() {
            let weighted = self.city_neighbor_cities_weighted(CityId(c as u32), metapath);
            cities.push(top_by_weight(weighted, cap, rng));
        }
        NeighborTable {
            metapath,
            cap,
            users,
            cities,
        }
    }
}

/// Keep the `cap` heaviest entries (random tie-breaking), sorted by id for
/// deterministic downstream iteration.
fn top_by_weight(mut weighted: Vec<(u32, u64)>, cap: usize, rng: &mut impl Rng) -> Vec<CityId> {
    if weighted.len() > cap {
        // Shuffle first so equal weights are broken uniformly, then a
        // stable sort by weight keeps the shuffle order within ties.
        weighted.shuffle(rng);
        weighted.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
        weighted.truncate(cap);
    }
    let mut picked: Vec<u32> = weighted.into_iter().map(|(c, _)| c).collect();
    picked.sort_unstable();
    picked.into_iter().map(CityId).collect()
}

/// Frozen per-node sampled neighborhoods for one metapath — the
/// `N_ρ: v → 2^V` mapping function input of Algorithm 1.
#[derive(Clone, Debug)]
pub struct NeighborTable {
    metapath: Metapath,
    cap: usize,
    users: Vec<Vec<CityId>>,
    cities: Vec<Vec<CityId>>,
}

impl NeighborTable {
    /// The metapath this table was sampled for.
    pub fn metapath(&self) -> Metapath {
        self.metapath
    }

    /// The sampling cap used.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Sampled neighbor cities of a user node.
    pub fn of_user(&self, user: UserId) -> &[CityId] {
        &self.users[user.index()]
    }

    /// Sampled neighbor cities of a city node.
    pub fn of_city(&self, city: CityId) -> &[CityId] {
        &self.cities[city.index()]
    }

    /// Sampled neighbor cities of any node.
    pub fn of(&self, node: Node) -> &[CityId] {
        match node {
            Node::User(u) => self.of_user(u),
            Node::City(c) => self.of_city(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The Figure-2 style toy graph: 2 users, 4 cities.
    /// u0 departs from c0 and c1; arrives at c2 and c3.
    /// u1 departs from c1; arrives at c2.
    fn toy() -> Hsg {
        let coords = (0..4)
            .map(|i| GeoPoint {
                lon: i as f64,
                lat: 0.0,
            })
            .collect();
        let mut b = HsgBuilder::new(2, coords);
        b.add_interaction(Interaction {
            user: UserId(0),
            origin: CityId(0),
            dest: CityId(2),
        });
        b.add_interaction(Interaction {
            user: UserId(0),
            origin: CityId(1),
            dest: CityId(3),
        });
        b.add_interaction(Interaction {
            user: UserId(1),
            origin: CityId(1),
            dest: CityId(2),
        });
        b.build()
    }

    #[test]
    fn counts() {
        let g = toy();
        assert_eq!(g.num_users(), 2);
        assert_eq!(g.num_cities(), 4);
        assert_eq!(g.num_nodes(), 6);
        // 3 departure edges (u0-c0, u0-c1, u1-c1) + 3 arrive edges.
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn user_neighbor_cities_are_direct_edges() {
        let g = toy();
        // ρ1 (departure): u0's neighbor cities are its departure cities.
        assert_eq!(g.user_neighbor_cities(UserId(0), Metapath::RHO1), &[0, 1]);
        // ρ2 (arrive): u0's arrive cities.
        assert_eq!(g.user_neighbor_cities(UserId(0), Metapath::RHO2), &[2, 3]);
        assert_eq!(g.user_neighbor_cities(UserId(1), Metapath::RHO1), &[1]);
    }

    #[test]
    fn city_neighbor_cities_are_two_hops_excluding_self() {
        let g = toy();
        // ρ2: users arriving at c2 are {u0, u1}; their other arrive cities:
        // u0 → {c3}, u1 → {} ⇒ N¹_ρ2(c2) = {c3}.
        assert_eq!(g.city_neighbor_cities(CityId(2), Metapath::RHO2), &[3]);
        // ρ1: users departing c1 are {u0, u1}; u0's other departures: {c0}.
        assert_eq!(g.city_neighbor_cities(CityId(1), Metapath::RHO1), &[0]);
        // A city nobody departs from has no ρ1 city neighbors.
        assert!(g.city_neighbor_cities(CityId(3), Metapath::RHO1).is_empty());
    }

    #[test]
    fn has_edge_respects_type() {
        let g = toy();
        assert!(g.has_edge(UserId(0), CityId(0), EdgeType::Departure));
        assert!(!g.has_edge(UserId(0), CityId(0), EdgeType::Arrive));
        assert!(g.has_edge(UserId(1), CityId(2), EdgeType::Arrive));
    }

    #[test]
    fn degrees() {
        let g = toy();
        assert_eq!(g.degree(Node::User(UserId(0)), EdgeType::Departure), 2);
        assert_eq!(g.degree(Node::City(CityId(1)), EdgeType::Departure), 2);
        assert_eq!(g.degree(Node::City(CityId(0)), EdgeType::Arrive), 0);
    }

    #[test]
    fn duplicate_interactions_collapse() {
        let coords = vec![
            GeoPoint { lon: 0.0, lat: 0.0 },
            GeoPoint { lon: 1.0, lat: 0.0 },
        ];
        let mut b = HsgBuilder::new(1, coords);
        let it = Interaction {
            user: UserId(0),
            origin: CityId(0),
            dest: CityId(1),
        };
        b.add_interaction(it).add_interaction(it);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "user id out of range")]
    fn builder_validates_user_ids() {
        let mut b = HsgBuilder::new(1, vec![GeoPoint { lon: 0.0, lat: 0.0 }]);
        b.add_edge(UserId(5), CityId(0), EdgeType::Departure);
    }

    #[test]
    fn neighbor_table_respects_cap_and_subsets() {
        let coords = (0..10)
            .map(|i| GeoPoint {
                lon: i as f64,
                lat: 0.0,
            })
            .collect();
        let mut b = HsgBuilder::new(1, coords);
        for c in 0..10u32 {
            b.add_edge(UserId(0), CityId(c), EdgeType::Departure);
        }
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(3);
        let table = g.neighbor_table(Metapath::RHO1, 5, &mut rng);
        let sampled = table.of_user(UserId(0));
        assert_eq!(sampled.len(), 5, "cap must bind");
        // Sampled set ⊆ full set.
        let full = g.user_neighbor_cities(UserId(0), Metapath::RHO1);
        for c in sampled {
            assert!(full.contains(&c.0));
        }
        // Sorted and distinct.
        assert!(sampled.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn neighbor_table_keeps_small_neighborhoods_whole() {
        let g = toy();
        let mut rng = StdRng::seed_from_u64(3);
        let table = g.neighbor_table(Metapath::RHO2, 5, &mut rng);
        assert_eq!(table.of_user(UserId(0)), &[CityId(2), CityId(3)]);
        assert_eq!(table.of_city(CityId(2)), &[CityId(3)]);
        assert_eq!(table.cap(), 5);
        assert_eq!(table.metapath().edge_type(), EdgeType::Arrive);
        assert_eq!(table.of(Node::User(UserId(1))), &[CityId(2)]);
    }
}
