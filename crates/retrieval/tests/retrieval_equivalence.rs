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
//!
//! The pruned tier carries two more gates: at the paper's 200-city
//! universe and k = 64 it must compute at most 1/50 of the exact tier's
//! pair sums, on a trained table (real structure) and an untrained one
//! (random init, the flattest affinities it will meet); and at k = n²−n,
//! where nothing can be pruned, it must be no slower than the exact sweep.

use od_hsg::UserId;
use od_retrieval::{RetrievalConfig, Retriever, ScoredPair, Tier};
use od_tensor::simd::{self, SimdLevel};
use odnet_core::{train, FeatureExtractor, FrozenOdNet, OdNetModel, OdnetConfig, Variant};
use proptest::prelude::*;
use std::sync::Arc;

/// Untrained graph-free artifact at arbitrary table geometry.
fn frozen_at(users: usize, cities: usize, dim: usize) -> FrozenOdNet {
    frozen_with_twins(users, cities, dim, &[])
}

/// [`frozen_at`] with planted ties: for each `(dst, src)` city `dst` gets
/// city `src`'s row in both branches, so `a[dst] == a[src]` and
/// `b[dst] == b[src]` to the bit for every user.
fn frozen_with_twins(
    users: usize,
    cities: usize,
    dim: usize,
    twins: &[(usize, usize)],
) -> FrozenOdNet {
    let config = OdnetConfig {
        embed_dim: dim,
        ..OdnetConfig::tiny()
    };
    let mut model = OdNetModel::new(Variant::OdnetG, config, users, cities, None);
    for table in ["origin.cities", "dest.cities"] {
        let id = model.store.lookup(table).expect("graph-free city table");
        let rows = model.store.value_mut(id);
        for &(dst, src) in twins {
            let row = rows.row(src % cities).to_vec();
            rows.row_mut(dst % cities).copy_from_slice(&row);
        }
    }
    model.freeze()
}

/// Seeded 200-city world (the paper's universe size) with a trained
/// ODNET-G frozen on top, so the tables carry real structure.
fn trained_200_cities() -> FrozenOdNet {
    let ds = od_data::FliggyDataset::generate(od_data::FliggyConfig {
        num_users: 120,
        num_cities: 200,
        horizon_days: 400,
        bookings_per_user: (3, 6),
        ..od_data::FliggyConfig::default()
    });
    let config = OdnetConfig {
        epochs: 2,
        ..OdnetConfig::tiny()
    };
    let fx = FeatureExtractor::new(config.max_long_seq, config.max_short_seq);
    let groups = fx.groups_from_samples(&ds, &ds.train);
    let mut model = OdNetModel::new(
        Variant::OdnetG,
        config,
        ds.world.num_users(),
        ds.world.num_cities(),
        None,
    );
    train(&mut model, &groups);
    model.freeze()
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
                        RetrievalConfig { level: Some(level) },
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
        let r = Retriever::build(Arc::clone(&frozen), RetrievalConfig { level: Some(level) });
        for tier in [Tier::Exact, Tier::Pruned] {
            let got = r.top_k(UserId(11), 32, tier);
            assert_same(
                &got.pairs,
                &want,
                &format!("graph variant {tier:?} {level}"),
            );
        }
    }
}

/// The pruned tier returns the exact tier's answer from a sliver of its
/// sums: for every user of a 200-city artifact, every k that matters (1,
/// the served 8 and 64, and — on the trained table; a debug build spends
/// 40 s there — all `n²−n` pairs), every SIMD level and both table modes,
/// both tiers return the pairs the owned scalar exact tier returns — same
/// order, same score bits — and at k = 64 the pruned tier computes at
/// most 1/50 of the exact tier's pair sums.
#[test]
fn pruned_equals_exact_everywhere_and_sums_a_fiftieth_at_200_cities() {
    let dir = std::env::temp_dir().join(format!("od_retrieval_eq_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("artifact.odz");
    for (what, frozen, ks) in [
        ("trained", trained_200_cities(), &[1, 8, 64, 200 * 199][..]),
        ("untrained", frozen_at(120, 200, 16), &[1, 8, 64]),
    ] {
        frozen.save_bin(&path).expect("write .odz");
        let mapped = Arc::new(FrozenOdNet::load_bin_mmap(&path).expect("mmap load"));
        let owned = Arc::new(frozen);
        let users = owned.num_users();
        let mut retrievers = Vec::new();
        for (mode, model) in [("owned", &owned), ("mmap", &mapped)] {
            for level in SimdLevel::available() {
                let cfg = RetrievalConfig { level: Some(level) };
                retrievers.push((mode, level, Retriever::build(Arc::clone(model), cfg)));
            }
        }
        // `available()` lists scalar first: the owned scalar exact tier,
        // which the tests above hold to the oracle, is the reference.
        let reference = &retrievers[0].2;
        let (mut scanned_exact, mut scanned_pruned) = (0u64, 0u64);
        for &k in ks {
            for u in 0..users {
                let user = UserId(u as u32);
                let want = reference.top_k(user, k, Tier::Exact).pairs;
                assert_eq!(want.len(), k);
                for (mode, level, r) in &retrievers {
                    let exact = r.top_k(user, k, Tier::Exact);
                    let pruned = r.top_k(user, k, Tier::Pruned);
                    let at = format!("{what} {mode} {level} k={k} u={u}");
                    assert_same(&exact.pairs, &want, &format!("exact, {at}"));
                    assert_same(&pruned.pairs, &want, &format!("pruned, {at}"));
                    if k == 64 {
                        scanned_exact += exact.stats.scanned;
                        scanned_pruned += pruned.stats.scanned;
                    }
                }
            }
        }
        println!(
            "{what}: pruned computes {:.1}x fewer pair sums than exact at k=64",
            scanned_exact as f64 / scanned_pruned as f64
        );
        assert!(
            scanned_pruned * 50 <= scanned_exact,
            "{what}: pruned computed {scanned_pruned} of exact's {scanned_exact} (gate: 1/50)"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// At k = n²−n nothing can be pruned: the answer is every pair, sorted.
/// The pruned tier skips its threshold search there and must be no slower
/// than the exact sweep. (At that k the origin cutoff the pruned tier
/// used to stop at never fired, so that tier was this exact sweep plus a
/// full origin sort.) Best of interleaved runs on both sides, so a
/// preempted run does not decide it.
#[test]
fn pruned_is_no_slower_than_exact_when_k_is_the_whole_universe() {
    let n = 200;
    let frozen = Arc::new(frozen_at(8, n, 16));
    let r = Retriever::build(Arc::clone(&frozen), RetrievalConfig::default());
    let best = |tier: Tier| {
        let t = std::time::Instant::now();
        for u in 0..8 {
            std::hint::black_box(r.top_k(UserId(u), n * n, tier));
        }
        t.elapsed()
    };
    let (mut exact, mut pruned) = (std::time::Duration::MAX, std::time::Duration::MAX);
    for _ in 0..5 {
        exact = exact.min(best(Tier::Exact));
        pruned = pruned.min(best(Tier::Pruned));
    }
    println!("k = n²−n, 8 users: exact {exact:?}, pruned {pruned:?}");
    assert!(
        pruned <= exact,
        "pruned {pruned:?} is slower than exact {exact:?} at k = n²−n"
    );
}

#[test]
fn k_beyond_the_universe_returns_every_pair_there_is() {
    // `k` reaches the retriever from the wire unbounded; it must size its
    // heap by the pairs that exist, not by the number asked for.
    let (cities, all) = (12usize, 12 * 11);
    let frozen = Arc::new(frozen_at(4, cities, 8));
    let r = Retriever::build(Arc::clone(&frozen), RetrievalConfig::default());
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

    /// Top-k equals the scalar full-sort oracle — same pairs, same
    /// tie-breaks, same bits — at every SIMD level and both tiers, across
    /// random geometries, k, users, and planted twin cities (tied scores
    /// must break by pair index, also across the pruned tier's ranked
    /// prefix).
    #[test]
    fn top_k_is_identical_to_scalar_oracle(
        users in 1usize..10,
        cities in 2usize..36,
        half_dim in 1usize..13, // tiny() runs 2 attention heads: dim must be even
        k in 1usize..90,
        user_sel in 0usize..10,
        twins in proptest::collection::vec((0usize..36, 0usize..36), 0..8),
    ) {
        let frozen = Arc::new(frozen_with_twins(users, cities, 2 * half_dim, &twins));
        let user = UserId((user_sel % users) as u32);
        let want = oracle_top_k(&frozen, user, k);
        for level in SimdLevel::available() {
            let r = Retriever::build(
                Arc::clone(&frozen),
                RetrievalConfig { level: Some(level) },
            );
            for tier in [Tier::Exact, Tier::Pruned] {
                let got = r.top_k(user, k, tier);
                assert_same(&got.pairs, &want, &format!("proptest {tier:?} {level}"));
            }
        }
    }
}
