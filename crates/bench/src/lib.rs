//! # od-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section.
//! Each binary in `src/bin/` prints one artifact and writes a JSON record
//! under `results/`:
//!
//! | Binary   | Paper artifact |
//! |----------|----------------|
//! | `table1` | Table I — Fliggy dataset statistics |
//! | `table2` | Table II — Foursquare/Gowalla statistics |
//! | `table3` | Table III — method comparison on Fliggy |
//! | `table4` | Table IV — comparison on the check-in datasets |
//! | `table5` | Table V — training/inference efficiency |
//! | `fig6a`  | Figure 6(a) — sweep over attention heads |
//! | `fig6b`  | Figure 6(b) — sweep over exploration depth K |
//! | `fig7`   | Figure 7 — simulated online A/B CTRs |
//!
//! Every binary accepts `--scale smoke|default|full` (default: `default`;
//! env `ODNET_SCALE` overrides) so CI can exercise the full pipeline in
//! seconds while real runs use the larger synthetic datasets.

#![warn(missing_docs)]

pub mod methods;
pub mod report;
pub mod scale;
pub mod serving;

pub use methods::{fit_method, CheckinSuite, Method, MethodResult};
pub use report::{markdown_table, write_json};
pub use scale::Scale;
pub use serving::{heuristic_candidates, rank_pairs};

use od_data::{CheckinConfig, CheckinDataset, FliggyDataset};

/// Build the Fliggy-like dataset at a scale.
pub fn fliggy_dataset(scale: Scale) -> FliggyDataset {
    FliggyDataset::generate(scale.fliggy_config())
}

/// Build one of the check-in datasets at a scale.
pub fn checkin_dataset(scale: Scale, preset: fn() -> CheckinConfig) -> CheckinDataset {
    let mut cfg = preset();
    scale.shrink_checkin(&mut cfg);
    CheckinDataset::generate(cfg)
}

/// Re-export for binaries.
pub use od_data::FliggyConfig as FliggyCfg;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_dataset_builds_quickly() {
        let ds = fliggy_dataset(Scale::Smoke);
        assert!(!ds.train.is_empty());
        assert!(!ds.eval_cases.is_empty());
        assert!(ds.hsg().num_edges() > 0);
    }

    #[test]
    fn checkin_smoke_builds() {
        let ds = checkin_dataset(Scale::Smoke, CheckinConfig::foursquare);
        assert!(!ds.train.is_empty());
    }

    #[test]
    fn default_scale_has_enough_eval_signal() {
        // The default scale is sized so metric noise stays below ~1.5%.
        let cfg = Scale::Default.fliggy_config();
        assert!(cfg.num_users >= 1500);
        assert!(cfg.num_cities >= 100);
    }
}
