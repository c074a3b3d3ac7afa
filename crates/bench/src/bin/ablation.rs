//! Ablation benches for the design choices DESIGN.md calls out (beyond the
//! paper's own Fig. 6 sweeps):
//!
//! - **neighbor cap** — the paper fixes each HSG node's neighborhood to 5
//!   after Fan et al.; what do 1/3/5/10 give?
//! - **expert count** — the MMoE uses 3 experts; is the mixture doing work?
//! - **θ entropy regularization** — our documented deviation: λ = 0 (the
//!   paper's bare Eq. 8) versus λ = 0.5. The λ = 0 row shows the collapse
//!   (θ → 0 or 1, one task starved).

use od_bench::{fliggy_dataset, markdown_table, write_json, Scale};
use odnet_core::{evaluate_on_fliggy, train, FeatureExtractor, OdNetModel, OdnetConfig, Variant};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    sweep: String,
    setting: String,
    auc_o: f64,
    auc_d: f64,
    hr5: f64,
    mrr5: f64,
    theta: f32,
    train_secs: f64,
}

fn main() {
    let scale = Scale::from_args();
    let ds = fliggy_dataset(scale);
    let hsg = ds.hsg();
    let base = scale.model_config();
    let fx = FeatureExtractor::new(base.max_long_seq, base.max_short_seq);
    let groups = fx.groups_from_samples(&ds, &ds.train);

    let mut rows: Vec<Row> = Vec::new();
    let run = |sweep: &str, setting: String, cfg: OdnetConfig, rows: &mut Vec<Row>| {
        eprintln!("[ablation] {sweep} = {setting}");
        let mut model = OdNetModel::new(
            Variant::Odnet,
            cfg,
            ds.world.num_users(),
            ds.world.num_cities(),
            Some(hsg.clone()),
        );
        let report = train(&mut model, &groups);
        let eval = evaluate_on_fliggy(&model.freeze(), &ds, &fx);
        rows.push(Row {
            sweep: sweep.to_string(),
            setting,
            auc_o: eval.auc_o,
            auc_d: eval.auc_d,
            hr5: eval.ranking.hr5,
            mrr5: eval.ranking.mrr5,
            theta: model.theta(),
            train_secs: report.wall_time.as_secs_f64(),
        });
    };

    let caps: &[usize] = if scale == Scale::Smoke {
        &[1, 5]
    } else {
        &[1, 3, 5, 10]
    };
    for &cap in caps {
        let cfg = OdnetConfig {
            neighbor_cap: cap,
            ..base.clone()
        };
        run("neighbor_cap", cap.to_string(), cfg, &mut rows);
    }
    let experts: &[usize] = if scale == Scale::Smoke {
        &[1, 3]
    } else {
        &[1, 3, 6]
    };
    for &e in experts {
        let cfg = OdnetConfig {
            experts: e,
            ..base.clone()
        };
        run("experts", e.to_string(), cfg, &mut rows);
    }
    for &lambda in &[0.0f32, 0.5] {
        let cfg = OdnetConfig {
            theta_entropy: lambda,
            ..base.clone()
        };
        run("theta_entropy", format!("{lambda}"), cfg, &mut rows);
    }
    // The §VII future-work extension: travel-intention prototypes.
    for &intents in &[0usize, 4] {
        let cfg = OdnetConfig {
            intents,
            ..base.clone()
        };
        run("intents", intents.to_string(), cfg, &mut rows);
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.sweep.clone(),
                r.setting.clone(),
                format!("{:.4}", r.auc_o),
                format!("{:.4}", r.auc_d),
                format!("{:.4}", r.hr5),
                format!("{:.4}", r.mrr5),
                format!("{:.3}", r.theta),
                format!("{:.1}", r.train_secs),
            ]
        })
        .collect();
    println!("ODNET ablations ({})", scale.name());
    println!(
        "{}",
        markdown_table(
            &[
                "sweep",
                "setting",
                "AUC-O",
                "AUC-D",
                "HR@5",
                "MRR@5",
                "θ",
                "train (s)"
            ],
            &table
        )
    );
    match write_json(&format!("ablation_{}", scale.name()), &rows) {
        Ok(path) => eprintln!("[ablation] wrote {}", path.display()),
        Err(e) => eprintln!("[ablation] could not write results: {e}"),
    }
}
