//! The retrieval-tier correctness contract: every SIMD level, both table
//! modes (owned and mmap), and both tiers reproduce the scalar
//! full-enumeration oracle exactly — same pairs, same order, same score
//! bits.
//!
//! The oracle is deliberately naive: score all `n²−n` pairs with the
//! scalar kernels, sort by (score desc, pair index asc), take `k`. The
//! production path (bounded heap + SIMD threshold scan) must equal it
//! bit-for-bit, so candidate selection can never drift across deployment
//! hardware or artifact load paths.

use od_hsg::UserId;
use od_retrieval::{RetrievalConfig, Retriever, ScoredPair, Tier};
use od_tensor::simd::{self, SimdLevel};
use odnet_core::{FrozenOdNet, OdnetConfig, Variant};
use proptest::prelude::*;
use std::sync::Arc;

/// Untrained graph-free artifact at arbitrary table geometry.
fn frozen_at(users: usize, cities: usize, dim: usize) -> FrozenOdNet {
    let config = OdnetConfig {
        embed_dim: dim,
        ..OdnetConfig::tiny()
    };
    odnet_core::OdNetModel::new(Variant::OdnetG, config, users, cities, None).freeze()
}

/// Full-enumeration scalar oracle in canonical order.
fn oracle_top_k(frozen: &FrozenOdNet, user: UserId, k: usize) -> Vec<ScoredPair> {
    let (a, b) = affinities(frozen, user);
    let n = a.len();
    let mut all: Vec<(u64, f32)> = Vec::with_capacity(n * n - n);
    for (o, &ao) in a.iter().enumerate() {
        for (d, &bd) in b.iter().enumerate() {
            if o != d {
                all.push(((o * n + d) as u64, ao + bd));
            }
        }
    }
    all.sort_by(|x, y| y.1.total_cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
    all.truncate(k);
    all.into_iter()
        .map(|(idx, score)| ScoredPair {
            origin: od_hsg::CityId((idx / n as u64) as u32),
            dest: od_hsg::CityId((idx % n as u64) as u32),
            score,
        })
        .collect()
}

/// Scalar per-city affinities (θ-scaled), the oracle's scan phase.
fn affinities(frozen: &FrozenOdNet, user: UserId) -> (Vec<f32>, Vec<f32>) {
    let ev = frozen.embeddings();
    let mut a = vec![0.0f32; ev.num_cities];
    let mut b = vec![0.0f32; ev.num_cities];
    simd::table_scores(
        SimdLevel::Scalar,
        ev.origin_user_row(user.index()),
        ev.origin_cities,
        ev.dim,
        ev.theta,
        &mut a,
    );
    simd::table_scores(
        SimdLevel::Scalar,
        ev.dest_user_row(user.index()),
        ev.dest_cities,
        ev.dim,
        1.0 - ev.theta,
        &mut b,
    );
    (a, b)
}

fn assert_same(got: &[ScoredPair], want: &[ScoredPair], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(
            (g.origin, g.dest),
            (w.origin, w.dest),
            "{what}: pair mismatch"
        );
        assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "{what}: score bits differ for {:?}→{:?}",
            g.origin,
            g.dest
        );
    }
}

#[test]
fn exact_tier_matches_oracle_across_levels_and_sizes() {
    for (users, cities, dim) in [
        (3usize, 2usize, 4usize),
        (5, 9, 8),
        (7, 23, 16),
        (4, 40, 20),
    ] {
        let frozen = Arc::new(frozen_at(users, cities, dim));
        for k in [1usize, 7, 64, cities * cities] {
            for user in [0, users - 1] {
                let want = oracle_top_k(&frozen, UserId(user as u32), k);
                for level in SimdLevel::available() {
                    let r = Retriever::build(
                        Arc::clone(&frozen),
                        RetrievalConfig {
                            level: Some(level),
                            ..RetrievalConfig::default()
                        },
                    );
                    let got = r.top_k(UserId(user as u32), k, Tier::Exact);
                    assert_same(
                        &got.pairs,
                        &want,
                        &format!("{users}x{cities} d={dim} k={k} u={user} {level}"),
                    );
                    assert_eq!(got.stats.scanned, (cities * cities) as u64);
                }
            }
        }
    }
}

#[test]
fn graph_variant_artifact_retrieves_identically_across_levels() {
    // The full ODNET variant materializes K-step HSGC aggregates into its
    // tables — a structurally different artifact than the graph-free one.
    let ds = od_data::FliggyDataset::generate(od_data::FliggyConfig::tiny());
    let frozen = Arc::new(
        odnet_core::OdNetModel::new(
            Variant::Odnet,
            OdnetConfig::tiny(),
            ds.world.num_users(),
            ds.world.num_cities(),
            Some(ds.hsg()),
        )
        .freeze(),
    );
    let want = oracle_top_k(&frozen, UserId(11), 32);
    for level in SimdLevel::available() {
        let r = Retriever::build(
            Arc::clone(&frozen),
            RetrievalConfig {
                level: Some(level),
                ..RetrievalConfig::default()
            },
        );
        let got = r.top_k(UserId(11), 32, Tier::Exact);
        assert_same(&got.pairs, &want, &format!("graph variant {level}"));
    }
}

#[test]
fn mmap_backed_tables_retrieve_identically_to_owned() {
    let frozen = frozen_at(9, 31, 16);
    let dir = std::env::temp_dir().join(format!("od_retrieval_eq_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("artifact.odz");
    frozen.save_bin(&path).expect("write .odz");
    let mapped = Arc::new(FrozenOdNet::load_bin_mmap(&path).expect("mmap load"));
    let owned = Arc::new(frozen);

    for tier in [Tier::Exact, Tier::Pruned] {
        for level in SimdLevel::available() {
            let cfg = RetrievalConfig {
                ncentroids: 6,
                nprobe: 2,
                refine: 12,
                level: Some(level),
            };
            let a = Retriever::build(Arc::clone(&owned), cfg).top_k(UserId(4), 40, tier);
            let b = Retriever::build(Arc::clone(&mapped), cfg).top_k(UserId(4), 40, tier);
            assert_same(
                &a.pairs,
                &b.pairs,
                &format!("owned vs mmap, {tier:?} {level}"),
            );
            assert_eq!(a.stats.scanned, b.stats.scanned, "{tier:?} scanned differs");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pruned_pairs_carry_exact_scores_in_canonical_order() {
    let frozen = Arc::new(frozen_at(6, 50, 8));
    let (a, b) = affinities(&frozen, UserId(2));
    let r = Retriever::build(
        Arc::clone(&frozen),
        RetrievalConfig {
            ncentroids: 8,
            nprobe: 3,
            refine: 20,
            level: None,
        },
    );
    let got = r.top_k(UserId(2), 64, Tier::Pruned);
    assert!(!got.pairs.is_empty());
    assert!(got.stats.scanned < 50 * 50, "pruned tier did not prune");
    assert_eq!(got.stats.probed, 3);
    for w in got.pairs.windows(2) {
        let canonical = match w[0].score.total_cmp(&w[1].score) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => {
                (w[0].origin.0, w[0].dest.0) < (w[1].origin.0, w[1].dest.0)
            }
        };
        assert!(canonical, "pruned output not in canonical order");
    }
    for p in &got.pairs {
        assert_ne!(p.origin, p.dest);
        let want = a[p.origin.index()] + b[p.dest.index()];
        assert_eq!(
            p.score.to_bits(),
            want.to_bits(),
            "pruned pair score is not the exact separable score"
        );
    }
}

#[test]
fn k_beyond_the_universe_returns_every_pair_there_is() {
    // `k` reaches the retriever from the wire unbounded; it must size its
    // heap by the pairs that exist, not by the number asked for.
    let (cities, all) = (12usize, 12 * 11);
    let frozen = Arc::new(frozen_at(4, cities, 8));
    let r = Retriever::build(
        Arc::clone(&frozen),
        RetrievalConfig {
            ncentroids: 4,
            nprobe: 2,
            ..RetrievalConfig::default()
        },
    );
    let user = UserId(1);
    for tier in [Tier::Exact, Tier::Pruned] {
        let capped = r.top_k(user, all, tier);
        for k in [all + 1, 1_000_000_000_000, usize::MAX] {
            let got = r.top_k(user, k, tier);
            assert_same(&got.pairs, &capped.pairs, &format!("{} k={k}", tier.name()));
        }
    }
    let exact = r.top_k(user, usize::MAX, Tier::Exact);
    assert_same(
        &exact.pairs,
        &oracle_top_k(&frozen, user, all),
        "exact vs oracle",
    );
    assert_eq!(exact.pairs.len(), all);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// SIMD top-k equals the scalar full-sort oracle — same pairs, same
    /// tie-breaks, same bits — across random geometries, k, and users.
    #[test]
    fn simd_top_k_is_identical_to_scalar_oracle(
        users in 1usize..10,
        cities in 2usize..36,
        half_dim in 1usize..13, // tiny() runs 2 attention heads: dim must be even
        k in 1usize..90,
        user_sel in 0usize..10,
    ) {
        let frozen = Arc::new(frozen_at(users, cities, 2 * half_dim));
        let user = UserId((user_sel % users) as u32);
        let want = oracle_top_k(&frozen, user, k);
        for level in SimdLevel::available() {
            let r = Retriever::build(
                Arc::clone(&frozen),
                RetrievalConfig { level: Some(level), ..RetrievalConfig::default() },
            );
            let got = r.top_k(user, k, Tier::Exact);
            assert_same(&got.pairs, &want, &format!("proptest {level}"));
        }
    }
}
