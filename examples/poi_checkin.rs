//! Next-POI recommendation on an LBSN-style check-in dataset (the paper's
//! Table IV setting): destination-only data, single-task models. Compares
//! the graph-equipped STL+G variant against STL−G and MostPop to show the
//! exploration benefit carries over to the LBSN domain.
//!
//! Run with:
//! ```sh
//! cargo run --release --example poi_checkin
//! ```

use od_baselines::{CityMeta, MostPop};
use od_data::{CheckinConfig, CheckinDataset};
use odnet_core::{evaluate_on_checkin, train, FeatureExtractor, OdNetModel, OdnetConfig, Variant};

fn main() {
    let mut cfg = CheckinConfig::foursquare();
    cfg.num_users = 250;
    cfg.num_pois = 60;
    println!(
        "generating check-in dataset ({} users, {} POIs)…",
        cfg.num_users, cfg.num_pois
    );
    let ds = CheckinDataset::generate(cfg);
    let (users, pois, checkins) = ds.statistics();
    println!("  {users} users, {pois} POIs, {checkins} check-ins");

    let model_cfg = OdnetConfig {
        epochs: 3,
        ..OdnetConfig::default()
    };
    let fx = FeatureExtractor::new(model_cfg.max_long_seq, model_cfg.max_short_seq);
    let train_groups = fx.checkin_groups(&ds, &ds.train);

    // MostPop reference.
    let coords = ds.pois.iter().map(|p| p.coords).collect();
    let meta = CityMeta::from_groups(coords, &train_groups);
    let mostpop = MostPop::new(meta);
    let pop_eval = evaluate_on_checkin(&mostpop, &ds, &fx);

    // STL−G and STL+G (the single-task variants usable on this data).
    let mut results = Vec::new();
    for variant in [Variant::StlG, Variant::StlPlusG] {
        println!("training {}…", variant.name());
        let hsg = variant.uses_graph().then(|| ds.hsg());
        let mut model = OdNetModel::new(
            variant,
            model_cfg.clone(),
            ds.config.num_users,
            ds.config.num_pois,
            hsg,
        );
        train(&mut model, &train_groups);
        let eval = evaluate_on_checkin(&model.freeze(), &ds, &fx);
        results.push((variant.name(), eval));
    }

    println!("\nnext-POI results (AUC / HR@5 / MRR@5):");
    println!(
        "  {:<10} {:.4}  {:.4}  {:.4}",
        "MostPop", 0.5, pop_eval.ranking.hr5, pop_eval.ranking.mrr5
    );
    for (name, eval) in &results {
        println!(
            "  {:<10} {:.4}  {:.4}  {:.4}",
            name, eval.auc_d, eval.ranking.hr5, eval.ranking.mrr5
        );
    }
    println!(
        "\nexpected shape (paper Table IV): STL+G > STL-G > MostPop — the\n\
         user-POI interaction graph lets the model recommend unvisited POIs\n\
         that share a pattern with the user's history."
    );
}
