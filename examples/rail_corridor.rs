//! The paper's §VII generalization claim, exercised: "ODNET can also be
//! directly applied to achieve high-quality train recommendation at OTPs."
//!
//! A rail-corridor world (stations along a high-speed line, interchange
//! hubs every few stops, segment-shaped pattern regions) replaces the
//! flight map; everything else — HSG, ODNET, training, serving — is reused
//! unchanged.
//!
//! Run with:
//! ```sh
//! cargo run --release --example rail_corridor
//! ```

use od_data::{generate_corridor_cities, FliggyConfig, FliggyDataset, World};
use odnet_core::{evaluate_on_fliggy, train, FeatureExtractor, OdNetModel, OdnetConfig, Variant};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let config = FliggyConfig {
        num_users: 300,
        num_cities: 32,
        ..FliggyConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    println!("building a {}-station rail corridor…", config.num_cities);
    let stations = generate_corridor_cities(config.num_cities, &mut rng);
    let world = World::from_cities(stations, config.num_users, &mut rng);
    let ds = FliggyDataset::generate_from_world(world, config, &mut rng)
        .expect("corridor world built from the same config");
    println!(
        "  {} train itinerary samples, {} ranking cases",
        ds.train.len(),
        ds.eval_cases.len()
    );

    let model_cfg = OdnetConfig {
        epochs: 3,
        ..OdnetConfig::default()
    };
    let fx = FeatureExtractor::new(model_cfg.max_long_seq, model_cfg.max_short_seq);
    let mut model = OdNetModel::new(
        Variant::Odnet,
        model_cfg,
        ds.world.num_users(),
        ds.world.num_cities(),
        Some(ds.hsg()),
    );
    println!("training ODNET on rail itineraries…");
    let groups = fx.groups_from_samples(&ds, &ds.train);
    train(&mut model, &groups);
    let model = model.freeze();
    let eval = evaluate_on_fliggy(&model, &ds, &fx);
    println!(
        "rail OD recommendation: AUC-O {:.4}, AUC-D {:.4}, HR@5 {:.4}, MRR@5 {:.4}",
        eval.auc_o, eval.auc_d, eval.ranking.hr5, eval.ranking.mrr5
    );

    // Serve one traveller.
    let user = ds.test.first().map(|s| s.user).unwrap_or(od_hsg::UserId(0));
    let day = ds.train_end_day();
    let candidates = od_bench::heuristic_candidates(&ds, user, day, 25);
    let group = fx.group_for_serving(&ds, user, day, &candidates);
    let ranked = od_bench::rank_pairs(&model, &group, &candidates);
    println!("\ntop-5 rail itineraries for user {:?}:", user);
    for ((o, d), score) in ranked.iter().take(5) {
        println!(
            "  {} => {}   score {score:.4}",
            ds.world.cities[o.index()].name,
            ds.world.cities[d.index()].name
        );
    }
}
