//! The serving stack under test, built the way a replica comes up:
//! freeze → `save_bin` → regenerate history donors → mmap load →
//! funnel (engine + retriever) → HTTP server on a loopback port. Every
//! step is timed; their sum (plus input generation and warm-up, timed by
//! the caller) is `setup_s`.

use od_data::{FliggyConfig, FliggyDataset};
use od_hsg::{CityId, UserId};
use od_http::{Featurizer, Server, ServerConfig};
use od_retrieval::Retriever;
use od_serve::{load_frozen_auto, EngineConfig, Funnel, FunnelConfig};
use odnet_core::{FeatureExtractor, FrozenOdNet, OdNetModel, OdnetConfig, Variant};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Universe sizes of a run.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Echoed into the output.
    pub name: &'static str,
    /// Users in the artifact (the paper's Table I: 2.6 M).
    pub users: usize,
    /// Origin/destination cities (the paper: 200).
    pub cities: usize,
    /// Users whose booking/click histories are actually generated;
    /// request user `u` borrows the history of donor `u % donors` and
    /// keeps its own embedding rows. Generation costs ≈30 ms per user,
    /// which is why the server is embedded here rather than spawned
    /// through `odnet serve --artifact` (one generated row per artifact
    /// user: hours at paper scale).
    pub donors: usize,
    /// Requests per request kind in the per-layer pass.
    pub layer_requests: usize,
    /// Requests per connection between the last set-up pass and the
    /// first measured request. Uniform users over a freshly mapped
    /// 2.6 M-row table keep faulting pages in for roughly the first ten
    /// thousand requests; the steady workloads are measured after that
    /// (the swap workload is the one that measures it).
    pub settle_requests: u64,
}

/// Paper scale — what every recorded number is measured at.
pub const PAPER: Scale = Scale {
    name: "paper",
    users: 2_600_000,
    cities: 200,
    donors: 32,
    layer_requests: 2000,
    settle_requests: 5000,
};

/// Small universe for checking the harness itself (`--smoke`).
pub const SMOKE: Scale = Scale {
    name: "smoke",
    users: 20_000,
    cities: 50,
    donors: 8,
    layer_requests: 400,
    settle_requests: 250,
};

/// Engine workers per shard; one shard. The whole server lives on one
/// core (see [`Cpus`]), so a second worker would only add hand-offs.
pub const ENGINE_WORKERS: usize = 1;

/// Wall time of each set-up step of one pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `OdNetModel::freeze`.
    pub freeze_s: f64,
    /// `FrozenOdNet::save_bin` of the `.odz` artifact.
    pub save_bin_s: f64,
    /// `FliggyDataset::generate` for the history donors.
    pub generate_s: f64,
    /// `load_frozen_auto` (zero-copy mmap).
    pub load_mmap_ms: f64,
    /// First `score_group` on the freshly mapped artifact (cold pages);
    /// measured only when asked for.
    pub first_score_us: f64,
    /// `Funnel::new` (engine workers + retriever index).
    pub funnel_build_ms: f64,
    /// `Retriever::build` alone.
    pub retrieval_build_ms: f64,
    /// `Server::start` (bind + acceptor + connection workers).
    pub server_start_ms: f64,
}

/// The untrained ODNET-G every pass freezes. Universe sizes are all that
/// matter for table geometry and per-request cost; no training needed.
pub fn new_model(scale: &Scale) -> OdNetModel {
    OdNetModel::new(
        Variant::OdnetG,
        OdnetConfig::default(),
        scale.users,
        scale.cities,
        None,
    )
}

/// A running server plus in-process handles on everything behind it.
pub struct Stack {
    /// The mmap-loaded artifact the funnel serves.
    pub model: Arc<FrozenOdNet>,
    /// Its `.odz` content checksum (stamped on every response).
    pub checksum: u32,
    /// The server-side featurizer (also the oracle's).
    pub featurizer: Featurizer,
    /// The one shard behind the server.
    pub funnel: Arc<Funnel>,
    /// A second retriever over the same artifact, for calls that bypass
    /// the funnel (score-pool construction, the per-layer pass).
    pub retriever: Retriever,
    /// Loopback address of the server.
    pub addr: SocketAddr,
    /// Which CPUs the server and the load generator run on.
    pub cpus: Cpus,
    /// Requests per request kind in the per-layer pass.
    pub layer_requests: usize,
    /// Step timings of this pass.
    pub times: SetupTimes,
    server: Server,
}

/// The server gets the first allowed CPU and the load generator the rest.
///
/// Left to the scheduler, the five threads a request crosses migrate
/// between the cores every second or so, and whether a hand-off is a
/// same-core or a cross-core wake-up (an IPI, expensive under a
/// hypervisor) swings a round by ±20 %. A one-core replica with the
/// generator beside it, not on it, is also the honest load model.
#[derive(Clone, Debug, Default)]
pub struct Cpus {
    /// Where every server, engine and publisher thread runs.
    pub server: Vec<usize>,
    /// Where the generator threads run. Empty (and nothing is pinned)
    /// when fewer than two CPUs are allowed.
    pub generator: Vec<usize>,
}

impl Cpus {
    /// Split the allowed CPUs and pin the calling thread to the server's:
    /// every thread spawned from it afterwards inherits that mask.
    pub fn split() -> Cpus {
        let cpus = crate::os::allowed_cpus();
        if cpus.len() < 2 || !crate::os::pin_current_thread(&cpus[..1]) {
            crate::client::yield_when_idle(true);
            return Cpus::default();
        }
        Cpus {
            server: cpus[..1].to_vec(),
            generator: cpus[1..].to_vec(),
        }
    }

    /// Move the calling thread to the generator's side (no-op unsplit).
    pub fn enter_generator(&self) {
        crate::os::pin_current_thread(&self.generator);
    }

    /// Move the calling thread to the server's side (no-op unsplit).
    pub fn enter_server(&self) {
        crate::os::pin_current_thread(&self.server);
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

impl Stack {
    /// Run one full set-up pass. `artifact` is (over)written.
    pub fn build(
        model: &OdNetModel,
        scale: &Scale,
        artifact: &Path,
        measure_first_score: bool,
        cpus: &Cpus,
    ) -> Result<Stack, String> {
        let mut times = SetupTimes::default();

        let t = Instant::now();
        let frozen = model.freeze();
        times.freeze_s = secs(t);
        let t = Instant::now();
        frozen
            .save_bin(artifact)
            .map_err(|e| format!("save_bin {artifact:?}: {e}"))?;
        times.save_bin_s = secs(t);
        drop(frozen);

        let t = Instant::now();
        let ds = FliggyDataset::generate(FliggyConfig {
            num_users: scale.donors,
            num_cities: scale.cities,
            ..FliggyConfig::default()
        });
        times.generate_s = secs(t);

        let t = Instant::now();
        let loaded = load_frozen_auto(artifact).map_err(|e| format!("load {artifact:?}: {e}"))?;
        times.load_mmap_ms = secs(t) * 1e3;
        let checksum = loaded.checksum;
        let model = Arc::new(loaded.frozen);

        let cfg = model.config();
        let fx = FeatureExtractor::new(cfg.max_long_seq, cfg.max_short_seq);
        let day = ds.train_end_day();
        let donors = scale.donors as u32;
        let featurizer: Featurizer = Arc::new(move |user, pairs| {
            let tuples: Vec<(CityId, CityId)> = pairs.iter().map(|p| (p.origin, p.dest)).collect();
            let mut group = fx.group_for_serving(&ds, UserId(user.0 % donors), day, &tuples);
            group.user = user;
            group
        });

        if measure_first_score {
            // Candidates chosen without touching the artifact, so the
            // score below is the first thing to fault its pages in.
            let n = scale.cities as u32;
            let pairs: Vec<od_retrieval::ScoredPair> = (0..64)
                .map(|i| od_retrieval::ScoredPair {
                    origin: CityId(i % n),
                    dest: CityId((i + 1) % n),
                    score: 0.0,
                })
                .collect();
            let probe = featurizer(UserId(scale.users as u32 / 2), &pairs);
            let t = Instant::now();
            std::hint::black_box(model.score_group(&probe));
            times.first_score_us = secs(t) * 1e6;
        }

        let t = Instant::now();
        let funnel = Arc::new(Funnel::new(
            Arc::clone(&model),
            checksum,
            EngineConfig {
                workers: ENGINE_WORKERS,
                ..EngineConfig::default()
            },
            FunnelConfig::default(),
        ));
        times.funnel_build_ms = secs(t) * 1e3;

        let t = Instant::now();
        let retriever = Retriever::build(Arc::clone(&model), funnel.config().retrieval);
        times.retrieval_build_ms = secs(t) * 1e3;

        let t = Instant::now();
        let server = Server::start(
            vec![Arc::clone(&funnel)],
            Arc::clone(&featurizer),
            ServerConfig::default(),
        )
        .map_err(|e| format!("bind http server: {e}"))?;
        times.server_start_ms = secs(t) * 1e3;

        Ok(Stack {
            model,
            checksum,
            featurizer,
            funnel,
            retriever,
            addr: server.addr(),
            cpus: cpus.clone(),
            layer_requests: scale.layer_requests,
            times,
            server,
        })
    }

    /// Graceful drain; `false` if the drain timed out or force-rejected
    /// a ticket (no request is in flight when the harness calls this).
    pub fn shutdown(self) -> bool {
        let report = self.server.shutdown();
        report.clean && report.drain_rejected == 0
    }
}

/// The server configuration, echoed into every result.
pub fn server_config_json() -> String {
    let s = ServerConfig::default();
    let e = EngineConfig::default();
    let f = FunnelConfig::default();
    format!(
        "\"shards\":1,\"engine_workers\":{ENGINE_WORKERS},\"queue_capacity\":{},\"max_batch\":{},\
         \"coalesce\":{},\"stage_timing\":{},\"swap_grace_ms\":{},\"retrieval_tier\":\"{}\",\
         \"recall_probe_every\":{},\"conn_workers\":{},\"program_tracing\":false",
        e.queue_capacity,
        e.max_batch,
        e.coalesce,
        e.stage_timing,
        e.swap_grace.as_millis(),
        f.tier.name(),
        f.recall_probe_every,
        s.conn_workers,
    )
}
