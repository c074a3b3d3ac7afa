//! A miniature online A/B test (the paper's §V-E protocol): ODNET and
//! MostPop serve live traffic from the same user panels for a simulated
//! week; clicks are drawn from the ground-truth preference model with
//! common random numbers, so the CTR gap reflects ranking quality alone.
//!
//! Run with:
//! ```sh
//! cargo run --release --example ab_test
//! ```

use od_baselines::{CityMeta, MostPop};
use od_bench::{heuristic_candidates, rank_pairs};
use od_data::{AbTestConfig, AbTestHarness, FliggyConfig, FliggyDataset};
use odnet_core::{train, FeatureExtractor, OdNetModel, OdScorer, OdnetConfig, Variant};

fn main() {
    let data_cfg = FliggyConfig {
        num_users: 300,
        num_cities: 30,
        ..FliggyConfig::default()
    };
    let ds = FliggyDataset::generate(data_cfg.clone());
    let model_cfg = OdnetConfig {
        epochs: 3,
        ..OdnetConfig::default()
    };
    let fx = FeatureExtractor::new(model_cfg.max_long_seq, model_cfg.max_short_seq);
    let train_groups = fx.groups_from_samples(&ds, &ds.train);

    // Arm 1: ODNET, deployed as the frozen artifact.
    println!("training ODNET…");
    let mut odnet = OdNetModel::new(
        Variant::Odnet,
        model_cfg,
        ds.world.num_users(),
        ds.world.num_cities(),
        Some(ds.hsg()),
    );
    train(&mut odnet, &train_groups);
    let odnet = odnet.freeze();

    // Arm 2: MostPop.
    let coords2 = ds.world.cities.iter().map(|c| c.coords).collect();
    let meta = CityMeta::from_groups(coords2, &train_groups);
    let mostpop = MostPop::new(meta);

    // The shared test harness: same panels, same click coins.
    let harness = AbTestHarness::new(
        &ds.world,
        AbTestConfig {
            days: 7,
            users_per_day: 120,
            top_k: 10,
            start_day: data_cfg.horizon_days,
            seed: 0xAB,
        },
    )
    .with_histories(&ds.histories);
    let serve = |scorer: &dyn OdScorer| {
        harness.run(scorer.name(), |user, day, k| {
            let candidates = heuristic_candidates(&ds, user, day, 30);
            let group = fx.group_for_serving(&ds, user, day, &candidates);
            let ranked = rank_pairs(scorer, &group, &candidates);
            ranked.into_iter().take(k).map(|(p, _)| p).collect()
        })
    };
    println!("serving one simulated week per arm…");
    let odnet_result = serve(&odnet);
    let mostpop_result = serve(&mostpop);

    println!("\ndaily CTR:");
    println!("  day      ODNET   MostPop");
    for (a, b) in odnet_result.days.iter().zip(&mostpop_result.days) {
        println!("  {:>3}    {:.4}   {:.4}", a.day + 1, a.ctr(), b.ctr());
    }
    let (co, cm) = (odnet_result.overall_ctr(), mostpop_result.overall_ctr());
    println!(
        "\noverall: ODNET {co:.4} vs MostPop {cm:.4} (+{:.1}%)",
        (co / cm - 1.0) * 100.0
    );
}
