//! Regenerates Figure 7: simulated online A/B test — daily CTR of eight
//! deployed methods over one week. Each method is trained offline, then
//! serves top-k lists assembled by the §VI-B candidate recall and ranked by
//! its Eq. 11 serving score; clicks are drawn from the ground-truth click
//! model with common random numbers.

use od_bench::methods::fit_method;
use od_bench::{
    fliggy_dataset, heuristic_candidates, markdown_table, rank_pairs, write_json, Method, Scale,
};
use od_data::AbTestHarness;
use odnet_core::FeatureExtractor;
use serde::Serialize;

#[derive(Serialize)]
struct MethodCtr {
    method: String,
    daily_ctr: Vec<f64>,
    overall_ctr: f64,
}

fn main() {
    let scale = Scale::from_args();
    let ds = fliggy_dataset(scale);
    let model_cfg = scale.model_config();
    let fx = FeatureExtractor::new(model_cfg.max_long_seq, model_cfg.max_short_seq);
    let ab_cfg = scale.abtest_config();
    let harness = AbTestHarness::new(&ds.world, ab_cfg.clone()).with_histories(&ds.histories);
    let recall_cap = 30;
    let mut outcomes = Vec::new();
    for method in Method::abtest_methods() {
        eprintln!("[fig7] training {}", method.name());
        let (scorer, _) = fit_method(method, &ds, scale, &fx);
        let result = harness.run(method.name(), |user, day, k| {
            // Baselines share the §VI-B heuristic recall: most of them
            // have no frozen embedding tables to retrieve from, and a
            // common candidate source keeps the A/B comparison fair.
            let candidates = heuristic_candidates(&ds, user, day, recall_cap);
            if candidates.is_empty() {
                return Vec::new();
            }
            let group = fx.group_for_serving(&ds, user, day, &candidates);
            let ranked = rank_pairs(scorer.as_ref(), &group, &candidates);
            ranked.into_iter().take(k).map(|(p, _)| p).collect()
        });
        let overall = result.overall_ctr();
        eprintln!("[fig7] {} overall CTR {:.4}", method.name(), overall);
        outcomes.push(MethodCtr {
            method: method.name().to_string(),
            daily_ctr: result.days.iter().map(|d| d.ctr()).collect(),
            overall_ctr: overall,
        });
    }
    let mut headers: Vec<String> = vec!["Method".to_string()];
    headers.extend((0..ab_cfg.days).map(|d| format!("day {}", d + 1)));
    headers.push("overall".to_string());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            let mut row = vec![o.method.clone()];
            row.extend(o.daily_ctr.iter().map(|c| format!("{c:.4}")));
            row.push(format!("{:.4}", o.overall_ctr));
            row
        })
        .collect();
    println!(
        "Figure 7 — simulated online A/B CTRs over {} days ({})",
        ab_cfg.days,
        scale.name()
    );
    println!("{}", markdown_table(&header_refs, &rows));
    match write_json(&format!("fig7_{}", scale.name()), &outcomes) {
        Ok(path) => eprintln!("[fig7] wrote {}", path.display()),
        Err(e) => eprintln!("[fig7] could not write results: {e}"),
    }
}
