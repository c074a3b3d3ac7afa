//! Regenerates Table V: training time and inference latency of every
//! trainable method on the Fliggy dataset. Reuses `results/table3_*.json`
//! when present (the timings are recorded there); otherwise re-runs the
//! methods.

use od_bench::methods::{run_fliggy_method, MethodResult};
use od_bench::{fliggy_dataset, markdown_table, write_json, Method, Scale};
use std::path::PathBuf;

fn load_table3(scale: Scale) -> Option<Vec<MethodResult>> {
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    let path = root.join(format!("results/table3_{}.json", scale.name()));
    let content = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&content).ok()
}

fn main() {
    let scale = Scale::from_args();
    let results = match load_table3(scale) {
        Some(rows) => {
            eprintln!(
                "[table5] reusing timings from results/table3_{}.json",
                scale.name()
            );
            rows
        }
        None => {
            eprintln!("[table5] no table3 results found; re-running methods");
            let ds = fliggy_dataset(scale);
            Method::all()
                .into_iter()
                .map(|m| {
                    eprintln!("[table5] fitting {}", m.name());
                    run_fliggy_method(m, &ds, scale)
                })
                .collect()
        }
    };
    // MostPop needs no training (the paper omits it from Table V).
    let rows: Vec<Vec<String>> = results
        .iter()
        .filter(|r| r.name != "MostPop")
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.1}", r.train_secs),
                format!("{:.2}", r.infer_ms),
            ]
        })
        .collect();
    println!(
        "Table V — efficiency on the synthetic Fliggy dataset ({})",
        scale.name()
    );
    println!(
        "{}",
        markdown_table(
            &["Method", "Training Time (s)", "Inferring Time (ms)"],
            &rows
        )
    );
    match write_json(&format!("table5_{}", scale.name()), &results) {
        Ok(path) => eprintln!("[table5] wrote {}", path.display()),
        Err(e) => eprintln!("[table5] could not write results: {e}"),
    }
}
