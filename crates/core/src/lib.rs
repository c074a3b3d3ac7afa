//! # odnet-core — the ODNET model
//!
//! A faithful from-scratch implementation of *ODNET: A Novel Personalized
//! Origin-Destination Ranking Network for Flight Recommendation*
//! (ICDE 2022) on the `od-tensor` autograd substrate:
//!
//! - [`hsgc`] — the Heterogeneous Spatial Graph Component (Algorithm 1 with
//!   the Eq. 1 attention and Eq. 2 spatial weights), run per-sample with
//!   memoized neighborhood recursion;
//! - `frozen` — the tape-free serving artifact ([`FrozenOdNet`]) and its
//!   Eq. 11 serving score: training happens on the autograd tape, serving
//!   *and every offline evaluation* on dense materialized tables and plain
//!   matrix kernels (see `OdNetModel::freeze`);
//! - `pec` — the Preference Extraction Component (Eq. 3 multi-head
//!   encoding, Eq. 4–5 bilinear attention over long-term behaviour queried
//!   by short-term intent);
//! - `mmoe` — the O&D Joint Learning Component (Eqs. 6–7 MMoE) and the
//!   single-task head of the STL variants;
//! - `model` — the assembled network, its four variants (ODNET, ODNET−G,
//!   STL+G, STL−G) and the Eq. 8 joint loss with learnable θ;
//! - `trainer` — synchronous data-parallel mini-batch training;
//! - `eval` — the shared evaluation harness ([`OdScorer`]) used by the
//!   baselines too;
//! - `features` — dataset → model-input extraction shared by every model.
//!
//! ```no_run
//! use od_data::{FliggyConfig, FliggyDataset};
//! use odnet_core::{evaluate_on_fliggy, FeatureExtractor, OdNetModel, OdnetConfig, Variant};
//!
//! let ds = FliggyDataset::generate(FliggyConfig::default());
//! let config = OdnetConfig::default();
//! let fx = FeatureExtractor::new(config.max_long_seq, config.max_short_seq);
//! let mut model = OdNetModel::new(
//!     Variant::Odnet,
//!     config,
//!     ds.world.num_users(),
//!     ds.world.num_cities(),
//!     Some(ds.hsg()),
//! );
//! let groups = fx.groups_from_samples(&ds, &ds.train);
//! let report = odnet_core::train(&mut model, &groups);
//! println!("final loss {}", report.final_loss());
//! // Everything after training reads the artifact that would be served.
//! let eval = evaluate_on_fliggy(&model.freeze(), &ds, &fx);
//! println!("AUC-D {}", eval.auc_d);
//! ```

#![warn(missing_docs)]

mod artifact;
mod config;
mod eval;
mod features;
mod frozen;
mod intent;
mod mmoe;
mod model;
mod pec;
mod trainer;

pub mod hsgc;

pub use artifact::{read_odz_checksum, MmapRegion, ODZ_VERSION};
pub use config::OdnetConfig;
pub use eval::{
    evaluate_auc, evaluate_on_checkin, evaluate_on_fliggy, evaluate_ranking,
    evaluate_ranking_sliced, score_groups, FliggyEvaluation, OdScorer, SlicedRanking,
};
pub use features::{
    validate_group, CandidateInput, FeatureExtractor, GroupInput, InvalidInput, Xst, XST_DIM,
};
pub use frozen::{EmbeddingView, FrozenOdNet};
pub use intent::IntentModule;
pub use mmoe::{MmoeHead, SingleTaskHead};
pub use model::{CheckpointError, GroupForward, OdNetModel, Variant};
pub use pec::PecModule;
pub use trainer::{
    train, try_train, EpochMetrics, TrainError, TrainHyper, TrainReport, TrainableModel,
};
