//! The method zoo: uniform construction, training, and evaluation of every
//! row in Tables III–V.

use crate::scale::Scale;
use od_baselines::{
    BaselineConfig, CityMeta, GbdtBaseline, GbdtConfig, LstmBaseline, LstpmBaseline, MostPop,
    StgnBaseline, StodPpaBaseline, StpUdgatBaseline,
};
use od_data::{CheckinDataset, FliggyDataset};
use odnet_core::{
    evaluate_on_checkin, evaluate_on_fliggy, train, FeatureExtractor, FliggyEvaluation, GroupInput,
    OdNetModel, OdScorer, Variant,
};
use serde::Serialize;
use std::time::Instant;

/// Every method of the paper's comparison, in table order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Rule-based popularity.
    MostPop,
    /// Gradient-boosted trees.
    Gbdt,
    /// Plain LSTM.
    Lstm,
    /// Spatio-temporal gated network.
    Stgn,
    /// Long/short-term preference modeling.
    Lstpm,
    /// Origin-aware preference attention.
    StodPpa,
    /// Spatial-temporal-preference GATs.
    StpUdgat,
    /// ODNET ablation: no graph, single task.
    StlG,
    /// ODNET ablation: graph, single task.
    StlPlusG,
    /// ODNET ablation: no graph, joint learning.
    OdnetG,
    /// The full model.
    Odnet,
}

impl Method {
    /// All methods in Table III row order.
    pub fn all() -> Vec<Method> {
        vec![
            Method::MostPop,
            Method::Gbdt,
            Method::Lstm,
            Method::Stgn,
            Method::Lstpm,
            Method::StodPpa,
            Method::StpUdgat,
            Method::StlG,
            Method::StlPlusG,
            Method::OdnetG,
            Method::Odnet,
        ]
    }

    /// The single-task methods evaluable on the destination-only check-in
    /// datasets (Table IV: ODNET and ODNET−G are excluded because the LBSN
    /// data cannot feed a multi-task O&D objective).
    pub fn checkin_methods() -> Vec<Method> {
        Method::all()
            .into_iter()
            .filter(|m| !matches!(m, Method::Odnet | Method::OdnetG))
            .collect()
    }

    /// The methods deployed in the paper's online A/B test (Fig. 7: eight
    /// methods, MostPop through ODNET with GBDT/LSTM folded out in favour
    /// of the stronger baselines and variants).
    pub fn abtest_methods() -> Vec<Method> {
        vec![
            Method::MostPop,
            Method::Lstpm,
            Method::StodPpa,
            Method::StpUdgat,
            Method::StlG,
            Method::StlPlusG,
            Method::OdnetG,
            Method::Odnet,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Method::MostPop => "MostPop",
            Method::Gbdt => "GBDT",
            Method::Lstm => "LSTM",
            Method::Stgn => "STGN",
            Method::Lstpm => "LSTPM",
            Method::StodPpa => "STOD-PPA",
            Method::StpUdgat => "STP-UDGAT",
            Method::StlG => "STL-G",
            Method::StlPlusG => "STL+G",
            Method::OdnetG => "ODNET-G",
            Method::Odnet => "ODNET",
        }
    }
}

/// One table row: metrics + efficiency numbers.
#[derive(Clone, Debug, Serialize)]
pub struct MethodResult {
    /// Method display name.
    pub name: String,
    /// AUC of the origin task (absent for MostPop, as in the paper).
    pub auc_o: Option<f64>,
    /// AUC of the destination task.
    pub auc_d: Option<f64>,
    /// HR@1.
    pub hr1: f64,
    /// HR@5.
    pub hr5: f64,
    /// HR@10.
    pub hr10: f64,
    /// MRR@5.
    pub mrr5: f64,
    /// MRR@10.
    pub mrr10: f64,
    /// Wall-clock training time in seconds.
    pub train_secs: f64,
    /// Mean inference latency per scoring request (one eval case ≈ 30–50
    /// candidates), in milliseconds.
    pub infer_ms: f64,
}

impl MethodResult {
    fn from_eval(name: &str, eval: FliggyEvaluation, train_secs: f64, infer_ms: f64) -> Self {
        let rule_based = name == "MostPop";
        MethodResult {
            name: name.to_string(),
            auc_o: (!rule_based).then_some(eval.auc_o),
            auc_d: (!rule_based).then_some(eval.auc_d),
            hr1: eval.ranking.hr1,
            hr5: eval.ranking.hr5,
            hr10: eval.ranking.hr10,
            mrr5: eval.ranking.mrr5,
            mrr10: eval.ranking.mrr10,
            train_secs,
            infer_ms,
        }
    }
}

fn baseline_config(scale: Scale) -> BaselineConfig {
    let m = scale.model_config();
    BaselineConfig {
        embed_dim: m.embed_dim,
        hidden_dim: 2 * m.embed_dim,
        tower_hidden: m.tower_hidden,
        learning_rate: m.learning_rate,
        epochs: m.epochs,
        batch_groups: m.batch_groups,
        workers: m.workers,
        grad_clip: m.grad_clip,
        seed: m.seed,
    }
}

/// Fit one method on the Fliggy dataset; returns the scorer and the
/// training wall-time in seconds.
pub fn fit_method(
    method: Method,
    ds: &FliggyDataset,
    scale: Scale,
    fx: &FeatureExtractor,
) -> (Box<dyn OdScorer>, f64) {
    let train_groups = fx.groups_from_samples(ds, &ds.train);
    let coords: Vec<od_hsg::GeoPoint> = ds.world.cities.iter().map(|c| c.coords).collect();
    let meta = CityMeta::from_groups(coords, &train_groups);
    let num_users = ds.world.num_users();
    let num_cities = ds.world.num_cities();
    fit_on_groups(
        method,
        &train_groups,
        meta,
        num_users,
        num_cities,
        scale,
        || ds.hsg(),
    )
}

/// Fit one method on pre-extracted groups (shared by the Fliggy and
/// check-in paths). `make_hsg` lazily builds the heterogeneous graph for
/// the graph variants. The four ODNET variants train on the tape and are
/// returned frozen: every metric and latency column describes the artifact
/// that would be served.
pub fn fit_on_groups(
    method: Method,
    train_groups: &[GroupInput],
    meta: CityMeta,
    num_users: usize,
    num_cities: usize,
    scale: Scale,
    make_hsg: impl FnOnce() -> od_hsg::Hsg,
) -> (Box<dyn OdScorer>, f64) {
    let started = Instant::now();
    let cfg = baseline_config(scale);
    let scorer: Box<dyn OdScorer> = match method {
        Method::MostPop => Box::new(MostPop::new(meta)),
        Method::Gbdt => {
            let gbdt_cfg = match scale {
                Scale::Smoke => GbdtConfig::tiny(),
                _ => GbdtConfig::default(),
            };
            Box::new(GbdtBaseline::fit(meta, train_groups, gbdt_cfg))
        }
        Method::Lstm => {
            let mut m = LstmBaseline::new(cfg, num_users, num_cities);
            train(&mut m, train_groups);
            Box::new(m)
        }
        Method::Stgn => {
            let mut m = StgnBaseline::new(cfg, num_users, num_cities, meta);
            train(&mut m, train_groups);
            Box::new(m)
        }
        Method::Lstpm => {
            let mut m = LstpmBaseline::new(cfg, num_users, num_cities, meta);
            train(&mut m, train_groups);
            Box::new(m)
        }
        Method::StodPpa => {
            let mut m = StodPpaBaseline::new(cfg, num_users, num_cities);
            train(&mut m, train_groups);
            Box::new(m)
        }
        Method::StpUdgat => {
            let mut m = StpUdgatBaseline::new(cfg, num_users, num_cities, &meta, train_groups);
            train(&mut m, train_groups);
            Box::new(m)
        }
        Method::StlG | Method::StlPlusG | Method::OdnetG | Method::Odnet => {
            let variant = match method {
                Method::StlG => Variant::StlG,
                Method::StlPlusG => Variant::StlPlusG,
                Method::OdnetG => Variant::OdnetG,
                _ => Variant::Odnet,
            };
            let hsg = variant.uses_graph().then(make_hsg);
            let mut m = OdNetModel::new(variant, scale.model_config(), num_users, num_cities, hsg);
            train(&mut m, train_groups);
            // Freezing is deployment, not training: stop the clock first.
            let train_secs = started.elapsed().as_secs_f64();
            return (Box::new(m.freeze()), train_secs);
        }
    };
    (scorer, started.elapsed().as_secs_f64())
}

/// Fit + evaluate one method on the Fliggy dataset, producing a table row.
pub fn run_fliggy_method(method: Method, ds: &FliggyDataset, scale: Scale) -> MethodResult {
    let model_cfg = scale.model_config();
    let fx = FeatureExtractor::new(model_cfg.max_long_seq, model_cfg.max_short_seq);
    let (scorer, train_secs) = fit_method(method, ds, scale, &fx);
    let eval_started = Instant::now();
    let eval = evaluate_on_fliggy(scorer.as_ref(), ds, &fx);
    let cases = ds.eval_cases.len().max(1);
    let infer_ms = eval_started.elapsed().as_secs_f64() * 1000.0 / cases as f64;
    MethodResult::from_eval(method.name(), eval, train_secs, infer_ms)
}

/// A check-in evaluation bundle (one dataset column group of Table IV).
pub struct CheckinSuite {
    /// Dataset display name.
    pub dataset: String,
    /// Per-method rows.
    pub rows: Vec<MethodResult>,
}

/// Fit + evaluate the single-task methods on one check-in dataset.
pub fn run_checkin_suite(ds: &CheckinDataset, scale: Scale) -> CheckinSuite {
    let model_cfg = scale.model_config();
    let fx = FeatureExtractor::new(model_cfg.max_long_seq, model_cfg.max_short_seq);
    let train_groups = fx.checkin_groups(ds, &ds.train);
    let coords: Vec<od_hsg::GeoPoint> = ds.pois.iter().map(|p| p.coords).collect();
    let meta = CityMeta::from_groups(coords, &train_groups);
    let mut rows = Vec::new();
    for method in Method::checkin_methods() {
        let (scorer, train_secs) = fit_on_groups(
            method,
            &train_groups,
            meta.clone(),
            ds.config.num_users,
            ds.config.num_pois,
            scale,
            || ds.hsg(),
        );
        let eval_started = Instant::now();
        let eval = evaluate_on_checkin(scorer.as_ref(), ds, &fx);
        let cases = ds.eval_cases.len().max(1);
        let infer_ms = eval_started.elapsed().as_secs_f64() * 1000.0 / cases as f64;
        rows.push(MethodResult::from_eval(
            method.name(),
            eval,
            train_secs,
            infer_ms,
        ));
        eprintln!("  [{}] done ({:.1}s train)", method.name(), train_secs);
    }
    CheckinSuite {
        dataset: ds.config.name.clone(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_lists_match_paper_tables() {
        assert_eq!(Method::all().len(), 11);
        // Table IV excludes the two MTL variants.
        assert_eq!(Method::checkin_methods().len(), 9);
        assert!(!Method::checkin_methods().contains(&Method::Odnet));
        // Figure 7 deploys eight methods including ODNET.
        assert_eq!(Method::abtest_methods().len(), 8);
        assert!(Method::abtest_methods().contains(&Method::Odnet));
    }

    #[test]
    fn smoke_run_of_cheap_methods() {
        let ds = crate::fliggy_dataset(Scale::Smoke);
        for method in [Method::MostPop, Method::Gbdt] {
            let row = run_fliggy_method(method, &ds, Scale::Smoke);
            assert_eq!(row.name, method.name());
            assert!(row.hr10 >= row.hr5 && row.hr5 >= row.hr1);
            assert!(row.infer_ms >= 0.0);
        }
    }

    #[test]
    fn mostpop_has_no_auc_like_the_paper() {
        let ds = crate::fliggy_dataset(Scale::Smoke);
        let row = run_fliggy_method(Method::MostPop, &ds, Scale::Smoke);
        assert!(row.auc_o.is_none() && row.auc_d.is_none());
        let row2 = run_fliggy_method(Method::Gbdt, &ds, Scale::Smoke);
        assert!(row2.auc_o.is_some());
    }
}
