//! Regenerates Figure 6(a): HR@5 and MRR@5 of ODNET as the number of
//! attention heads in the PEC sweeps over {1, 2, 4, 8}.

use od_bench::{fliggy_dataset, markdown_table, write_json, Scale};
use odnet_core::{evaluate_on_fliggy, train, FeatureExtractor, OdNetModel, Variant};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    heads: usize,
    hr5: f64,
    mrr5: f64,
    train_secs: f64,
}

fn main() {
    let scale = Scale::from_args();
    let ds = fliggy_dataset(scale);
    let hsg = ds.hsg();
    let base = scale.model_config();
    let heads_sweep: &[usize] = if scale == Scale::Smoke {
        &[1, 2]
    } else {
        &[1, 2, 4, 8]
    };
    let mut points = Vec::new();
    for &heads in heads_sweep {
        let mut cfg = base.clone();
        cfg.heads = heads;
        // embed_dim must divide by heads — round it up to a multiple.
        if !cfg.embed_dim.is_multiple_of(heads) {
            cfg.embed_dim = cfg.embed_dim.div_ceil(heads) * heads;
        }
        eprintln!("[fig6a] training ODNET with {heads} heads");
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
            "[fig6a] heads={heads}: HR@5 {:.4}, MRR@5 {:.4}",
            eval.ranking.hr5, eval.ranking.mrr5
        );
        points.push(Point {
            heads,
            hr5: eval.ranking.hr5,
            mrr5: eval.ranking.mrr5,
            train_secs: report.wall_time.as_secs_f64(),
        });
    }
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.heads.to_string(),
                format!("{:.4}", p.hr5),
                format!("{:.4}", p.mrr5),
            ]
        })
        .collect();
    println!(
        "Figure 6(a) — ODNET vs number of attention heads ({})",
        scale.name()
    );
    println!("{}", markdown_table(&["heads", "HR@5", "MRR@5"], &rows));
    match write_json(&format!("fig6a_{}", scale.name()), &points) {
        Ok(path) => eprintln!("[fig6a] wrote {}", path.display()),
        Err(e) => eprintln!("[fig6a] could not write results: {e}"),
    }
}
