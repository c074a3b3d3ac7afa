//! # odnet-repro — workspace façade
//!
//! Re-exports the public API of the ODNET (ICDE 2022) reproduction so
//! examples and downstream users need a single dependency:
//!
//! - [`tensor`] — the from-scratch autograd substrate (`od-tensor`);
//! - [`hsg`] — the Heterogeneous Spatial Graph (`od-hsg`);
//! - [`data`] — synthetic datasets, metrics, A/B simulator (`od-data`);
//! - [`core`] — the ODNET model, trainer, evaluator (`odnet-core`);
//! - [`baselines`] — the paper's seven comparison methods (`od-baselines`);
//! - [`serve`] — the concurrent serving engine over the frozen artifact
//!   (`od-serve`);
//! - [`http`] — the hardened HTTP/1.1 front-end over the serving funnel
//!   (`od-http`).
//!
//! Plus two first-party pieces: [`online`], the drift → retrain → freeze →
//! publish loop that `odnet online` drives (DESIGN.md §13), and
//! [`serving_featurizer`], the dataset-holding half of the funnel contract
//! that `odnet serve`, `odnet recommend` and the online loop all serve
//! through.
//!
//! See `examples/quickstart.rs` for the end-to-end train → freeze →
//! evaluate → rank loop.

#![warn(missing_docs)]

pub mod online;

pub use od_baselines as baselines;
pub use od_data as data;
pub use od_hsg as hsg;
pub use od_http as http;
pub use od_serve as serve;
pub use od_tensor as tensor;
pub use odnet_core as core;

use od_data::FliggyDataset;
use od_hsg::{CityId, UserId};
use od_retrieval::ScoredPair;
use odnet_core::{FeatureExtractor, FrozenOdNet, GroupInput};
use std::sync::Arc;

/// The featurizer every [`Funnel`](od_serve::Funnel) caller in this
/// repository hands to `recommend`: it grafts the retrieved candidates, in
/// retrieval order, onto `user`'s context at `day`, regenerated from
/// `dataset` under `model`'s sequence limits. Refuses a dataset whose id
/// universe differs from the artifact's — requests draw users and cities
/// from the dataset and score against the artifact's tables.
pub fn serving_featurizer(
    model: &FrozenOdNet,
    dataset: Arc<FliggyDataset>,
) -> Result<impl Fn(UserId, u32, &[ScoredPair]) -> GroupInput + Send + Sync + 'static, String> {
    let (users, cities) = (dataset.world.num_users(), dataset.world.num_cities());
    if (model.num_users(), model.num_cities()) != (users, cities) {
        return Err(format!(
            "artifact universe ({} users × {} cities) does not match the dataset \
             ({users} users × {cities} cities)",
            model.num_users(),
            model.num_cities(),
        ));
    }
    let cfg = model.config();
    let fx = FeatureExtractor::new(cfg.max_long_seq, cfg.max_short_seq);
    Ok(move |user, day, pairs: &[ScoredPair]| {
        let pairs: Vec<(CityId, CityId)> = pairs.iter().map(|p| (p.origin, p.dest)).collect();
        fx.group_for_serving(&dataset, user, day, &pairs)
    })
}
