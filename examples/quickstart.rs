//! Quickstart: generate a small OD-booking world, train the full ODNET
//! model, freeze it, then evaluate the artifact offline and rank a top-5
//! flight list for one user with it.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use od_bench::{heuristic_candidates, rank_pairs};
use od_data::{FliggyConfig, FliggyDataset};
use odnet_core::{evaluate_on_fliggy, train, FeatureExtractor, OdNetModel, OdnetConfig, Variant};

fn main() {
    // 1. Generate a laptop-scale synthetic Fliggy-like dataset.
    let data_cfg = FliggyConfig {
        num_users: 300,
        num_cities: 30,
        ..FliggyConfig::default()
    };
    println!(
        "generating dataset ({} users, {} cities)…",
        data_cfg.num_users, data_cfg.num_cities
    );
    let ds = FliggyDataset::generate(data_cfg);
    let stats = ds.statistics();
    println!(
        "  {} train samples ({} positives), {} eval cases",
        stats.train_total,
        stats.train_pos,
        ds.eval_cases.len()
    );

    // 2. Build the Heterogeneous Spatial Graph from training interactions.
    let hsg = ds.hsg();
    println!("HSG: {} nodes, {} edges", hsg.num_nodes(), hsg.num_edges());

    // 3. Train ODNET (heads = 4, K = 2, Adam 0.01 — the paper's setting).
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
        Some(hsg),
    );
    println!("training ODNET ({} weights)…", model.num_weights());
    let groups = fx.groups_from_samples(&ds, &ds.train);
    let report = train(&mut model, &groups);
    println!(
        "  losses per epoch: {:?} ({:.1}s, {:.0} groups/s)",
        report
            .epoch_losses
            .iter()
            .map(|l| (l * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
        report.wall_time.as_secs_f64(),
        report.groups_per_second
    );
    println!("  learned θ = {:.3} (Eq. 8 loss weight)", model.theta());

    // 4. Freeze: everything after training reads the serving artifact.
    let model = model.freeze();

    // 5. Offline evaluation: AUC + ranking metrics.
    let eval = evaluate_on_fliggy(&model, &ds, &fx);
    println!(
        "offline: AUC-O {:.4}, AUC-D {:.4}, HR@5 {:.4}, MRR@5 {:.4}",
        eval.auc_o, eval.auc_d, eval.ranking.hr5, eval.ranking.mrr5
    );

    // 6. Serving: recall candidates for a user and rank them (Eq. 11).
    let user = ds.test.first().map(|s| s.user).unwrap_or(od_hsg::UserId(0));
    let day = ds.train_end_day();
    let candidates = heuristic_candidates(&ds, user, day, 30);
    let group = fx.group_for_serving(&ds, user, day, &candidates);
    let ranked = rank_pairs(&model, &group, &candidates);
    println!("top-5 flights for user {:?} (day {day}):", user);
    for ((o, d), score) in ranked.iter().take(5) {
        let on = &ds.world.cities[o.index()].name;
        let dn = &ds.world.cities[d.index()].name;
        println!("  {on} → {dn}   score {score:.4}");
    }
}
