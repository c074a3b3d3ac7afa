//! `odnet` — command-line interface to the ODNET reproduction.
//!
//! ```text
//! odnet train --variant odnet --users 400 --cities 30 --epochs 5 --out model.json
//! odnet eval  --model model.json
//! odnet recommend --model model.json --user 7 --top-k 5
//! ```
//!
//! The synthetic dataset is regenerated deterministically from the
//! parameters embedded in the model file, so `eval` and `recommend` need no
//! separate data artifact.

use od_bench::heuristic_candidates;
use od_data::{FliggyConfig, FliggyDataset};
use od_hsg::{CityId, HsgBuilder, UserId};
use odnet_core::{
    evaluate_on_fliggy, try_train, FeatureExtractor, FrozenOdNet, GroupInput, OdNetModel,
    OdnetConfig, Variant,
};
use std::collections::HashMap;
use std::process::ExitCode;

/// The on-disk bundle: everything needed to rebuild dataset + model.
#[derive(serde::Serialize, serde::Deserialize)]
struct ModelFile {
    data_config: FliggyConfig,
    variant: String,
    checkpoint: String,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = parse_flags(&args[1..]);
    let result = match command.as_str() {
        "train" => cmd_train(&flags),
        "eval" => cmd_eval(&flags),
        "recommend" => cmd_recommend(&flags),
        "freeze" => cmd_freeze(&flags),
        "serve" => cmd_serve(&flags),
        "metrics" => cmd_metrics(&flags),
        "trace" => cmd_trace(&flags),
        "online" => cmd_online(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
odnet — ODNET (ICDE 2022) reproduction CLI

USAGE:
  odnet train     --out FILE [--variant odnet|odnet-g|stl+g|stl-g]
                  [--users N] [--cities N] [--epochs N] [--seed N]
                  [--metrics-jsonl FILE]
  odnet eval      --model FILE
  odnet recommend (--model FILE | --artifact FILE) --user ID [--top-k K]
  odnet freeze    --out BASE (--model FILE |
                  [--variant V] [--users N] [--cities N] [--embed-dim D])
  odnet serve     [--artifact FILE] [--users N] [--cities N] [--addr H:P]
                  [--shards N] [--workers N] [--trace] [--smoke]
  odnet metrics   [--artifact FILE] [--json] [--out FILE] [--requests N]
  odnet trace     --addr H:P [--min-ms N] [--errors] [--limit N]
                  [--chrome FILE]
  odnet online    [--users N] [--cities N] [--rounds N] [--panel N]
                  [--top K] [--epochs N] [--seed N] [--ab-seed N]
                  [--workers N] [--out-dir DIR] [--metrics-jsonl FILE]

`freeze` writes a serving artifact in both formats: BASE.json (the
debuggable interchange format) and BASE.odz (the zero-copy binary that
serving replicas mmap; see DESIGN.md §12). From --model it extracts the
trained artifact embedded in the checkpoint; without it, it freezes an
untrained model of the given universe size — the paper-scale cold-start
path (odnet-g needs no graph, so freezing 2.6M users is cheap).

`recommend` serves one user through the full funnel (DESIGN.md S14): the
retrieval tier proposes the --top-k best OD pairs straight from the
frozen dense tables, the live engine ranks them, and the listing is
stamped with the artifact generation that served each stage. --artifact
serves from an .odz/.json artifact on disk (mmap'd for .odz); --model
extracts the artifact embedded in a training checkpoint.

`serve` exposes the artifact over the hardened od-http tier (DESIGN.md
S15): POST /v1/score ranks a raw request group, POST /v1/recommend runs
the retrieve -> rank funnel, GET /healthz reports readiness (NOT-READY
while draining), GET /metrics renders the od-obs registry as Prometheus
text. Requests shard across --shards engines by user id; closing stdin
(Ctrl-D) starts a graceful drain. --smoke runs the self-driving e2e
instead of waiting: it binds an ephemeral port, drives every route over
a real socket, asserts scores are bit-exact with direct scoring and both
version stamps match the loaded artifact, then drains and verifies the
drain settled cleanly — the ci.sh serving gate.

`metrics` accepts --artifact to serve a frozen artifact from disk (mmap'd
when the file ends in .odz) instead of building a model in process; the
dataset defaults to the artifact's universe sizes.

`serve --trace` turns on request-scoped tracing (DESIGN.md S16): every
request gets an X-Request-Id (client-supplied or minted) echoed on the
response, and the tail sampler keeps slow/error traces (plus 1/64 of the
rest) in an in-memory ring served by GET /debug/traces. `trace` pulls
the ring from a running server: default prints the JSON document,
--chrome FILE writes Chrome trace_event JSON loadable in
chrome://tracing or Perfetto.

`metrics` exercises the trainer and the serving engine briefly (including
one mid-run hot publish, so the per-generation od_engine_version_* series
appear for two epochs), then renders every series in the process-global
od-obs registry as Prometheus text exposition (default) or JSON (--json).

`online` runs the drift -> retrain -> freeze -> publish loop (DESIGN.md
S13): each simulated day a user panel is served through a live engine,
the click stream becomes labeled training data, and the retrained model
is frozen to DIR/gen-NNN.odz and hot-published for the next day.
--ab-seed seeds the click simulator's common random numbers separately
from the dataset --seed; --metrics-jsonl writes one row per round.
";

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                flags.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(key.to_string(), String::new());
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    flags
}

fn get_usize(flags: &HashMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    match flags.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} expects a number, got {v:?}")),
        None => Ok(default),
    }
}

fn parse_variant(name: &str) -> Result<Variant, String> {
    match name.to_ascii_lowercase().as_str() {
        "odnet" => Ok(Variant::Odnet),
        "odnet-g" => Ok(Variant::OdnetG),
        "stl+g" | "stlplusg" => Ok(Variant::StlPlusG),
        "stl-g" | "stlg" => Ok(Variant::StlG),
        other => Err(format!(
            "unknown variant {other:?} (expected odnet, odnet-g, stl+g, stl-g)"
        )),
    }
}

fn build_dataset(cfg: &FliggyConfig) -> FliggyDataset {
    FliggyDataset::generate(cfg.clone())
}

fn build_hsg(ds: &FliggyDataset) -> od_hsg::Hsg {
    let coords = ds.world.cities.iter().map(|c| c.coords).collect();
    let mut b = HsgBuilder::new(ds.world.num_users(), coords);
    for it in ds.hsg_interactions() {
        b.add_interaction(it);
    }
    b.build()
}

/// 1-candidate-heavy request templates from a few distinct user contexts —
/// the workload cross-request micro-batching exists for. Shared by
/// `serve --smoke` and `metrics`.
fn serving_templates(ds: &FliggyDataset, fx: &FeatureExtractor) -> Result<Vec<GroupInput>, String> {
    let day = ds.train_end_day();
    let mut groups = Vec::new();
    for user in (0..ds.world.num_users() as u32)
        .map(UserId)
        .filter(|&u| !ds.long_term(u, day).is_empty())
        .take(4)
    {
        let pairs = heuristic_candidates(ds, user, day, 32);
        for p in pairs.iter().take(4) {
            groups.push(fx.group_for_serving(ds, user, day, std::slice::from_ref(p)));
        }
        if pairs.len() >= 8 {
            groups.push(fx.group_for_serving(ds, user, day, &pairs[..8]));
        }
    }
    if groups.is_empty() {
        return Err("no serving templates: dataset too small".into());
    }
    Ok(groups)
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), String> {
    let out = flags.get("out").ok_or("--out FILE is required")?;
    let variant = parse_variant(flags.get("variant").map(String::as_str).unwrap_or("odnet"))?;
    let data_config = FliggyConfig {
        num_users: get_usize(flags, "users", 400)?,
        num_cities: get_usize(flags, "cities", 30)?,
        seed: get_usize(flags, "seed", 0xF11667)? as u64,
        ..FliggyConfig::default()
    };
    let model_config = OdnetConfig {
        epochs: get_usize(flags, "epochs", 5)?,
        ..OdnetConfig::default()
    };
    eprintln!(
        "generating dataset ({} users, {} cities)…",
        data_config.num_users, data_config.num_cities
    );
    let ds = build_dataset(&data_config);
    let fx = FeatureExtractor::new(model_config.max_long_seq, model_config.max_short_seq);
    let hsg = variant.uses_graph().then(|| build_hsg(&ds));
    let mut model = OdNetModel::new(
        variant,
        model_config,
        ds.world.num_users(),
        ds.world.num_cities(),
        hsg,
    );
    eprintln!(
        "training {} ({} weights)…",
        variant.name(),
        model.num_weights()
    );
    let groups = fx.groups_from_samples(&ds, &ds.train);
    // Surface a non-finite-loss abort as a CLI error (with its epoch and
    // batch index) instead of a panic.
    let report = try_train(&mut model, &groups).map_err(|e| e.to_string())?;
    eprintln!(
        "done in {:.1}s; losses {:?}",
        report.wall_time.as_secs_f64(),
        report.epoch_losses
    );
    if let Some(path) = flags.get("metrics-jsonl") {
        if path.is_empty() {
            return Err("--metrics-jsonl expects a file path".into());
        }
        std::fs::write(path, report.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "wrote {} epoch telemetry rows to {path}",
            report.epochs.len()
        );
    }
    let bundle = ModelFile {
        data_config,
        variant: variant.name().to_string(),
        checkpoint: model.save_json(ds.world.num_users(), ds.world.num_cities()),
    };
    let json = serde_json::to_string(&bundle).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("saved model to {out}");
    Ok(())
}

fn read_bundle(flags: &HashMap<String, String>) -> Result<ModelFile, String> {
    let path = flags.get("model").ok_or("--model FILE is required")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| e.to_string())
}

fn load_bundle(flags: &HashMap<String, String>) -> Result<(FliggyDataset, OdNetModel), String> {
    let bundle = read_bundle(flags)?;
    let ds = build_dataset(&bundle.data_config);
    let variant = parse_variant(&bundle.variant)?;
    let hsg = variant.uses_graph().then(|| build_hsg(&ds));
    let model = OdNetModel::load_json(&bundle.checkpoint, hsg).map_err(|e| e.to_string())?;
    Ok((ds, model))
}

fn cmd_eval(flags: &HashMap<String, String>) -> Result<(), String> {
    let (ds, model) = load_bundle(flags)?;
    let fx = FeatureExtractor::new(model.config.max_long_seq, model.config.max_short_seq);
    eprintln!(
        "evaluating {} on {} cases…",
        model.variant.name(),
        ds.eval_cases.len()
    );
    let eval = evaluate_on_fliggy(&model, &ds, &fx);
    println!(
        "AUC-O {:.4}\nAUC-D {:.4}\nHR@1  {:.4}\nHR@5  {:.4}\nHR@10 {:.4}\nMRR@5 {:.4}\nMRR@10 {:.4}\ntheta {:.4}",
        eval.auc_o,
        eval.auc_d,
        eval.ranking.hr1,
        eval.ranking.hr5,
        eval.ranking.hr10,
        eval.ranking.mrr5,
        eval.ranking.mrr10,
        model.theta(),
    );
    Ok(())
}

/// Write a frozen serving artifact to `BASE.json` + `BASE.odz`. From
/// `--model` it extracts the artifact a training run embedded in its
/// checkpoint; otherwise it freezes an untrained model of the requested
/// universe size, which is how paper-scale (2.6M user) artifacts are
/// produced for cold-start experiments without a week of training.
fn cmd_freeze(flags: &HashMap<String, String>) -> Result<(), String> {
    let out = flags
        .get("out")
        .filter(|p| !p.is_empty())
        .ok_or("--out BASE is required (writes BASE.json and BASE.odz)")?;
    let frozen = if flags.contains_key("model") {
        let bundle = read_bundle(flags)?;
        FrozenOdNet::from_checkpoint_json(&bundle.checkpoint).map_err(|e| e.to_string())?
    } else {
        let variant = parse_variant(
            flags
                .get("variant")
                .map(String::as_str)
                .unwrap_or("odnet-g"),
        )?;
        let users = get_usize(flags, "users", 400)?;
        let cities = get_usize(flags, "cities", 30)?;
        let config = OdnetConfig {
            embed_dim: get_usize(flags, "embed-dim", OdnetConfig::default().embed_dim)?,
            ..OdnetConfig::default()
        };
        // Graph variants need the HSG (and therefore the dataset) to
        // materialize their tables; the graph-free variants freeze from
        // universe sizes alone, which is what makes paper scale cheap.
        let hsg = variant
            .uses_graph()
            .then(|| {
                eprintln!(
                    "building dataset + HSG for graph variant {}…",
                    variant.name()
                );
                let ds = build_dataset(&FliggyConfig {
                    num_users: users,
                    num_cities: cities,
                    seed: get_usize(flags, "seed", 0xF11667)? as u64,
                    ..FliggyConfig::default()
                });
                Ok::<_, String>(build_hsg(&ds))
            })
            .transpose()?;
        eprintln!(
            "freezing untrained {} ({users} users × {cities} cities, d = {})…",
            variant.name(),
            config.embed_dim
        );
        OdNetModel::new(variant, config, users, cities, hsg).freeze()
    };
    let json_path = format!("{out}.json");
    let odz_path = format!("{out}.odz");
    std::fs::write(&json_path, frozen.save_json())
        .map_err(|e| format!("writing {json_path}: {e}"))?;
    frozen
        .save_bin(std::path::Path::new(&odz_path))
        .map_err(|e| e.to_string())?;
    let size = |p: &str| {
        std::fs::metadata(p)
            .map(|m| m.len() as f64 / (1 << 20) as f64)
            .unwrap_or(0.0)
    };
    eprintln!(
        "wrote {json_path} ({:.1} MiB) and {odz_path} ({:.1} MiB): {} — {} users × {} cities",
        size(&json_path),
        size(&odz_path),
        frozen.variant().name(),
        frozen.num_users(),
        frozen.num_cities()
    );
    Ok(())
}

/// Load `--artifact` for serving commands through the one shared
/// extension→mode table ([`od_serve::load_frozen_auto`]): mmap'd for
/// `.odz`, parsed for JSON, with cold-start gauges recorded into the
/// od-obs registry and the artifact's content checksum derived for
/// version attribution.
fn load_artifact_flag(
    flags: &HashMap<String, String>,
) -> Result<Option<od_serve::LoadedArtifact>, String> {
    let Some(path) = flags.get("artifact").filter(|p| !p.is_empty()) else {
        return Ok(None);
    };
    let path = std::path::Path::new(path);
    let loaded = od_serve::load_frozen_auto(path).map_err(|e| e.to_string())?;
    eprintln!(
        "loaded {} artifact {path:?} ({} mode, fnv {:08x}): {} users × {} cities",
        loaded.frozen.variant().name(),
        loaded.mode.name(),
        loaded.checksum,
        loaded.frozen.num_users(),
        loaded.frozen.num_cities()
    );
    Ok(Some(loaded))
}

/// The regenerated benchmark dataset must cover the artifact's id universe
/// (requests draw users/cities from the dataset and score against the
/// artifact's tables).
fn check_artifact_universe(frozen: &FrozenOdNet, ds: &FliggyDataset) -> Result<(), String> {
    if frozen.num_users() != ds.world.num_users() || frozen.num_cities() != ds.world.num_cities() {
        return Err(format!(
            "artifact universe ({} users × {} cities) does not match the dataset \
             ({} users × {} cities); pass --users/--cities matching the artifact \
             (or omit them to use its sizes)",
            frozen.num_users(),
            frozen.num_cities(),
            ds.world.num_users(),
            ds.world.num_cities()
        ));
    }
    Ok(())
}

/// Serve the artifact over the hardened HTTP tier (DESIGN.md §15): score
/// and recommend endpoints sharded across per-core funnels, readiness and
/// Prometheus exposition, graceful drain on stdin close. With `--smoke`,
/// run the self-driving end-to-end check instead: drive every route over
/// a real socket, assert bit-exact scores and artifact version stamps,
/// then drain and verify the drain settled — the ci.sh serving gate.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    use od_http::{Featurizer, Server, ServerConfig};
    use od_serve::{EngineConfig, Funnel, FunnelConfig};
    use std::sync::Arc;

    let shards_n = get_usize(flags, "shards", 2)?.max(1);
    let workers = get_usize(flags, "workers", 2)?.max(1);
    let smoke = flags.contains_key("smoke");
    if smoke {
        // The smoke injects an 80ms-stalled request and asserts the tail
        // sampler captured it: a 40ms floor with no 1/N keeps means the
        // ring holds exactly the slow traffic.
        od_obs::trace::global().enable(od_obs::trace::TraceConfig {
            slow_ns: 40_000_000,
            sample_every: 0,
        });
    } else if flags.contains_key("trace") {
        od_obs::trace::global().enable(od_obs::trace::TraceConfig::default());
    }
    let addr = match flags.get("addr").filter(|a| !a.is_empty()) {
        Some(a) => a.clone(),
        // Smoke binds an ephemeral port so gates never collide.
        None if smoke => "127.0.0.1:0".to_string(),
        None => "127.0.0.1:8080".to_string(),
    };

    let artifact = load_artifact_flag(flags)?;
    let (default_users, default_cities) = artifact
        .as_ref()
        .map(|a| (a.frozen.num_users(), a.frozen.num_cities()))
        .unwrap_or((60, 15));
    let data_config = FliggyConfig {
        num_users: get_usize(flags, "users", default_users)?,
        num_cities: get_usize(flags, "cities", default_cities)?,
        seed: get_usize(flags, "seed", 0xF11667)? as u64,
        ..FliggyConfig::tiny()
    };
    let ds = build_dataset(&data_config);
    let (model, checksum) = match artifact {
        Some(loaded) => {
            check_artifact_universe(&loaded.frozen, &ds)?;
            (std::sync::Arc::new(loaded.frozen), loaded.checksum)
        }
        None => {
            let model = OdNetModel::new(
                Variant::Odnet,
                OdnetConfig::tiny(),
                ds.world.num_users(),
                ds.world.num_cities(),
                Some(build_hsg(&ds)),
            );
            let frozen = model.freeze();
            let checksum = frozen.fingerprint();
            (std::sync::Arc::new(frozen), checksum)
        }
    };
    let cfg = model.config();
    let fx = Arc::new(FeatureExtractor::new(cfg.max_long_seq, cfg.max_short_seq));
    let day = ds.train_end_day();
    let ds = Arc::new(ds);
    // The server-side featurizer: grafts retrieval candidates onto the
    // user's regenerated context — the dataset-holding half of the funnel
    // contract that an HTTP client cannot ship over the wire.
    let featurizer: Featurizer = {
        let ds = Arc::clone(&ds);
        let fx = Arc::clone(&fx);
        Arc::new(move |user, pairs| {
            let tuples: Vec<(CityId, CityId)> = pairs.iter().map(|p| (p.origin, p.dest)).collect();
            fx.group_for_serving(&ds, user, day, &tuples)
        })
    };
    let shards: Vec<Arc<Funnel>> = (0..shards_n)
        .map(|_| {
            Arc::new(Funnel::new(
                Arc::clone(&model),
                checksum,
                EngineConfig {
                    workers,
                    ..EngineConfig::default()
                },
                FunnelConfig::default(),
            ))
        })
        .collect();
    let server = Server::start(
        shards,
        featurizer,
        ServerConfig {
            addr,
            allow_debug_stall: smoke,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind http server: {e}"))?;
    eprintln!(
        "serving artifact [{checksum:08x}] on http://{} ({shards_n} shard(s) × {workers} worker(s))",
        server.addr()
    );
    if smoke {
        return serve_smoke(server, &model, &ds, &fx, checksum);
    }
    eprintln!(
        "routes: POST /v1/score  POST /v1/recommend  GET /healthz  GET /metrics  \
         GET /debug/traces"
    );
    eprintln!("close stdin (Ctrl-D) to drain and exit");
    let mut sink = String::new();
    loop {
        sink.clear();
        match std::io::stdin().read_line(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    eprintln!("draining…");
    let report = server.shutdown();
    eprintln!(
        "drain {}: {} ticket(s) force-rejected",
        if report.clean { "clean" } else { "timed out" },
        report.drain_rejected
    );
    if report.clean {
        Ok(())
    } else {
        Err("graceful drain timed out with unresolved tickets".into())
    }
}

/// The `serve --smoke` body: the server drives itself over a real socket
/// and asserts the wire contract end-to-end.
fn serve_smoke(
    server: od_http::Server,
    model: &FrozenOdNet,
    ds: &FliggyDataset,
    fx: &FeatureExtractor,
    checksum: u32,
) -> Result<(), String> {
    use od_http::http_request;

    let groups = serving_templates(ds, fx)?;
    let group = &groups[0];
    let expected = model.score_group(group);
    let mut conn =
        std::net::TcpStream::connect(server.addr()).map_err(|e| format!("smoke connect: {e}"))?;

    // Route 1: /v1/score must hand back bit-exact scores stamped with
    // the loaded artifact's generation.
    let body = serde_json::to_string(group).map_err(|e| e.to_string())?;
    let resp = http_request(&mut conn, "POST", "/v1/score", &[], Some(body.as_bytes()))
        .map_err(|e| format!("smoke score request: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "smoke score: expected 200, got {} ({})",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    let scored: od_http::wire::ScoreResponse = serde_json::from_str(
        std::str::from_utf8(&resp.body).map_err(|_| "smoke score: non-utf8 body".to_string())?,
    )
    .map_err(|e| format!("smoke score: bad body: {e}"))?;
    let exact = scored.scores.len() == expected.len()
        && scored
            .scores
            .iter()
            .zip(&expected)
            .all(|(g, w)| g.0.to_bits() == w.0.to_bits() && g.1.to_bits() == w.1.to_bits());
    if !exact {
        return Err("smoke score: wire scores are not bit-exact with direct scoring".into());
    }
    if scored.epoch != 0 || scored.checksum != checksum {
        return Err(format!(
            "smoke score: version stamp (epoch {}, {:08x}) does not match the loaded \
             artifact (epoch 0, {checksum:08x})",
            scored.epoch, scored.checksum
        ));
    }
    if resp.header("x-artifact-epoch") != Some("0") {
        return Err("smoke score: missing X-Artifact-Epoch response header".into());
    }
    if resp.header("x-request-id").is_none() {
        return Err("smoke score: response missing a minted X-Request-Id".into());
    }
    println!(
        "smoke /v1/score: 200, {} scores bit-exact, stamped epoch 0 [{checksum:08x}]",
        scored.scores.len()
    );

    // Route 2: /v1/recommend must run the funnel and stamp both stages
    // with the same generation.
    let ask = format!("{{\"user\":{},\"k\":5}}", group.user.0);
    let resp = http_request(
        &mut conn,
        "POST",
        "/v1/recommend",
        &[],
        Some(ask.as_bytes()),
    )
    .map_err(|e| format!("smoke recommend request: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "smoke recommend: expected 200, got {} ({})",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    let rec: od_http::wire::RecommendResponse = serde_json::from_str(
        std::str::from_utf8(&resp.body)
            .map_err(|_| "smoke recommend: non-utf8 body".to_string())?,
    )
    .map_err(|e| format!("smoke recommend: bad body: {e}"))?;
    if rec.pairs.is_empty() {
        return Err("smoke recommend: empty ranking".into());
    }
    if rec.ranked_by.epoch != 0
        || rec.ranked_by.checksum != checksum
        || rec.retrieved_by.epoch != rec.ranked_by.epoch
        || rec.retrieved_by.checksum != rec.ranked_by.checksum
    {
        return Err(format!(
            "smoke recommend: stage stamps (retrieved epoch {} [{:08x}], ranked epoch {} \
             [{:08x}]) do not agree on the loaded artifact (epoch 0, [{checksum:08x}])",
            rec.retrieved_by.epoch,
            rec.retrieved_by.checksum,
            rec.ranked_by.epoch,
            rec.ranked_by.checksum
        ));
    }
    println!(
        "smoke /v1/recommend: 200, top-{} ranked, both stages stamped epoch 0 [{checksum:08x}]",
        rec.pairs.len()
    );

    // Routes 3 + 4: readiness and exposition.
    let resp = http_request(&mut conn, "GET", "/healthz", &[], None)
        .map_err(|e| format!("smoke healthz request: {e}"))?;
    if resp.status != 200 || resp.body != b"ok\n" {
        return Err(format!(
            "smoke healthz: expected 200 ok, got {}",
            resp.status
        ));
    }
    let resp = http_request(&mut conn, "GET", "/metrics", &[], None)
        .map_err(|e| format!("smoke metrics request: {e}"))?;
    let text = String::from_utf8_lossy(&resp.body);
    if resp.status != 200
        || !text.contains("od_http_requests_total")
        || !text.contains("od_engine_")
    {
        return Err("smoke metrics: exposition is missing od_http_*/od_engine_* series".into());
    }
    println!("smoke /healthz + /metrics: ready, exposition carries od_http_* series");

    // Route 5: request-scoped tracing. Inject a deadline-slow request
    // (the debug stall header is honored only under --smoke) and assert
    // the tail sampler captured it over the real socket with the full
    // span chain, then that the Chrome export of the same ring is valid
    // trace_event JSON.
    let ask = format!("{{\"user\":{},\"k\":5}}", group.user.0);
    let resp = http_request(
        &mut conn,
        "POST",
        "/v1/recommend",
        &[("X-Request-Id", "smoke-slow-1"), ("X-Debug-Stall-Ms", "80")],
        Some(ask.as_bytes()),
    )
    .map_err(|e| format!("smoke slow request: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "smoke slow request: expected 200, got {} ({})",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    if resp.header("x-request-id") != Some("smoke-slow-1") {
        return Err("smoke slow request: X-Request-Id was not echoed".into());
    }
    let resp = http_request(&mut conn, "GET", "/debug/traces?min_ms=40", &[], None)
        .map_err(|e| format!("smoke traces request: {e}"))?;
    if resp.status != 200 {
        return Err(format!("smoke traces: expected 200, got {}", resp.status));
    }
    let doc: serde_json::Value = std::str::from_utf8(&resp.body)
        .map_err(|_| "smoke traces: non-utf8 body".to_string())
        .and_then(|s| {
            serde_json::from_str(s)
                .map_err(|e| format!("smoke traces: body is not valid JSON: {e}"))
        })?;
    let traces = doc
        .get("traces")
        .and_then(|t| t.as_array())
        .ok_or("smoke traces: no traces array")?;
    let slow = traces
        .iter()
        .find(|t| t.get("request_id").and_then(|r| r.as_str()) == Some("smoke-slow-1"))
        .ok_or("smoke traces: the stalled request was not tail-captured")?;
    let spans = slow
        .get("spans")
        .and_then(|s| s.as_array())
        .ok_or("smoke traces: captured trace has no spans")?;
    if spans.len() < 6 {
        return Err(format!(
            "smoke traces: {} spans captured, want at least 6",
            spans.len()
        ));
    }
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(|n| n.as_str()))
        .collect();
    for want in [
        "request",
        "parse",
        "admission",
        "queue_wait",
        "forward",
        "retrieval",
        "write",
    ] {
        if !names.contains(&want) {
            return Err(format!(
                "smoke traces: span chain missing {want:?} (captured: {names:?})"
            ));
        }
    }
    let fwd = spans
        .iter()
        .find(|s| s.get("name").and_then(|n| n.as_str()) == Some("forward"))
        .ok_or("smoke traces: forward span vanished")?;
    if fwd.get("batch").is_none() || fwd.get("epoch").is_none() {
        return Err("smoke traces: forward span is missing batch/epoch attributes".into());
    }
    let resp = http_request(
        &mut conn,
        "GET",
        "/debug/traces?min_ms=40&format=chrome",
        &[],
        None,
    )
    .map_err(|e| format!("smoke chrome traces request: {e}"))?;
    let doc: serde_json::Value = std::str::from_utf8(&resp.body)
        .map_err(|_| "smoke traces: non-utf8 Chrome export".to_string())
        .and_then(|s| {
            serde_json::from_str(s)
                .map_err(|e| format!("smoke traces: Chrome export is not valid JSON: {e}"))
        })?;
    let unit_ok = doc
        .get("displayTimeUnit")
        .and_then(|u| u.as_str())
        .is_some_and(|u| u == "ns");
    let events_ok = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .is_some_and(|a| a.len() >= 6);
    if !unit_ok || !events_ok {
        return Err("smoke traces: Chrome trace_event export is malformed".into());
    }
    println!(
        "smoke /debug/traces: stalled request tail-captured with {} spans; Chrome export valid",
        spans.len()
    );

    drop(conn);
    let report = server.shutdown();
    if !report.clean || report.drain_rejected != 0 {
        return Err(format!(
            "smoke drain: expected a clean drain, got clean={} with {} force-rejected",
            report.clean, report.drain_rejected
        ));
    }
    println!("smoke drain: clean, zero force-rejected tickets");
    Ok(())
}

/// Exercise the full pipeline briefly — a tiny training run, then a loaded
/// drive of the serving engine on the freshly frozen model — and render
/// every series in the process-global od-obs registry. The quickest way to
/// see the whole metric inventory with live values.
fn cmd_metrics(flags: &HashMap<String, String>) -> Result<(), String> {
    use od_serve::{drive, score_all, Engine, EngineConfig};
    use std::sync::Arc;

    let artifact = load_artifact_flag(flags)?;
    let (default_users, default_cities) = artifact
        .as_ref()
        .map(|a| (a.frozen.num_users(), a.frozen.num_cities()))
        .unwrap_or((40, 12));
    let data_config = FliggyConfig {
        num_users: get_usize(flags, "users", default_users)?,
        num_cities: get_usize(flags, "cities", default_cities)?,
        seed: get_usize(flags, "seed", 0xF11667)? as u64,
        ..FliggyConfig::tiny()
    };
    let requests = get_usize(flags, "requests", 2000)?;
    eprintln!(
        "exercising {} + serving engine ({} users, {} cities, {requests} requests)…",
        if artifact.is_some() {
            "frozen artifact"
        } else {
            "trainer"
        },
        data_config.num_users,
        data_config.num_cities
    );
    let ds = build_dataset(&data_config);
    let (frozen, checksum) = match artifact {
        Some(loaded) => {
            // Serving an on-disk artifact: no training pass, so the
            // rendered registry shows the cold-start series instead of the
            // trainer's.
            check_artifact_universe(&loaded.frozen, &ds)?;
            (Arc::new(loaded.frozen), loaded.checksum)
        }
        None => {
            let cfg = OdnetConfig {
                epochs: 2,
                ..OdnetConfig::tiny()
            };
            let fx = FeatureExtractor::new(cfg.max_long_seq, cfg.max_short_seq);
            let mut model = OdNetModel::new(
                Variant::Odnet,
                cfg,
                ds.world.num_users(),
                ds.world.num_cities(),
                Some(build_hsg(&ds)),
            );
            let train_groups = fx.groups_from_samples(&ds, &ds.train);
            try_train(&mut model, &train_groups).map_err(|e| e.to_string())?;
            let frozen = model.freeze();
            let checksum = frozen.fingerprint();
            (Arc::new(frozen), checksum)
        }
    };
    let fx = FeatureExtractor::new(frozen.config().max_long_seq, frozen.config().max_short_seq);
    let templates = serving_templates(&ds, &fx)?;
    let expected = score_all(&frozen, &templates);
    let engine = Engine::new_versioned(
        Arc::clone(&frozen),
        checksum,
        EngineConfig {
            workers: 2,
            queue_capacity: 256,
            max_batch: 32,
            coalesce: true,
            fail_point: None,
            stage_timing: true,
            ..EngineConfig::default()
        },
    );
    // Publish a content-identical second generation halfway through the
    // drive: the rendered registry then shows the per-version request and
    // score counters for epochs 0 *and* 1 (and the oracle comparison stays
    // valid, since both generations score identically).
    let half = requests / 2;
    let r1 = drive(&engine, &templates, &expected, half.max(1), 4);
    engine
        .publish(Arc::new((*frozen).clone()))
        .map_err(|e| e.to_string())?;
    let r2 = drive(
        &engine,
        &templates,
        &expected,
        requests.saturating_sub(half).max(1),
        4,
    );
    if r1.mismatches + r2.mismatches != 0 {
        return Err(format!(
            "{} engine responses diverged from direct scoring",
            r1.mismatches + r2.mismatches
        ));
    }
    // Drive a handful of full-funnel requests so the retrieval-stage
    // series (od_retrieval_*, including the sampled recall probe and a
    // publish-triggered index rebuild) land in the registry too.
    let funnel = od_serve::Funnel::new(
        Arc::clone(&frozen),
        checksum,
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        od_serve::FunnelConfig {
            recall_probe_every: 8,
            ..od_serve::FunnelConfig::default()
        },
    );
    let day = ds.train_end_day();
    let n = ds.world.num_cities();
    let funnel_k = 8.min(n * n.saturating_sub(1));
    for u in 0..16u32 {
        let user = UserId(u % ds.world.num_users() as u32);
        let rec = funnel
            .recommend(user, funnel_k, |pairs| {
                let tuples: Vec<(CityId, CityId)> =
                    pairs.iter().map(|p| (p.origin, p.dest)).collect();
                fx.group_for_serving(&ds, user, day, &tuples)
            })
            .map_err(|e| e.to_string())?;
        if rec.pairs.len() != funnel_k {
            return Err(format!(
                "funnel drive: got {} pairs, want {funnel_k}",
                rec.pairs.len()
            ));
        }
    }
    funnel
        .publish(Arc::new((*frozen).clone()), checksum)
        .map_err(|e| e.to_string())?;
    // Snapshot while the engines are alive so their gauges are still set.
    let snap = od_obs::global().snapshot();
    funnel.shutdown();
    drop(engine);
    let rendered = if flags.contains_key("json") {
        snap.to_json()
    } else {
        snap.to_prometheus()
    };
    match flags.get("out") {
        Some(path) if !path.is_empty() => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {} metric series to {path}", snap.series.len());
        }
        _ => print!("{rendered}"),
    }
    Ok(())
}

/// `odnet trace`: pull the tail-sampled trace ring from a running
/// `odnet serve --trace` instance over its `/debug/traces` route. The
/// default prints the native JSON document; `--chrome FILE` writes Chrome
/// `trace_event` JSON (open in `chrome://tracing` or Perfetto).
fn cmd_trace(flags: &HashMap<String, String>) -> Result<(), String> {
    use od_http::http_request;

    let addr = flags
        .get("addr")
        .filter(|a| !a.is_empty())
        .ok_or("--addr HOST:PORT is required (a running `odnet serve --trace`)")?;
    let min_ms = get_usize(flags, "min-ms", 0)?;
    let limit = get_usize(flags, "limit", 0)?;
    let chrome_out = flags.get("chrome").filter(|p| !p.is_empty());
    let mut path = format!("/debug/traces?min_ms={min_ms}&limit={limit}");
    if flags.contains_key("errors") {
        path.push_str("&errors=1");
    }
    if chrome_out.is_some() {
        path.push_str("&format=chrome");
    }
    let mut conn =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let resp = http_request(&mut conn, "GET", &path, &[], None)
        .map_err(|e| format!("fetching {path}: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "{addr} answered {}: {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    match chrome_out {
        Some(out) => {
            std::fs::write(out, &resp.body).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!(
                "wrote Chrome trace_event JSON to {out} (open in chrome://tracing or Perfetto)"
            );
        }
        None => println!("{}", String::from_utf8_lossy(&resp.body)),
    }
    Ok(())
}

/// Drive the online learning loop (`odnet_repro::online`): serve simulated
/// days through a live engine, fold the click stream back into training,
/// and hot-publish each retrained generation. Per-round metrics go to
/// stdout and optionally to a JSONL file.
fn cmd_online(flags: &HashMap<String, String>) -> Result<(), String> {
    let defaults = odnet_repro::online::OnlineConfig::default();
    let config = odnet_repro::online::OnlineConfig {
        users: get_usize(flags, "users", defaults.users)?,
        cities: get_usize(flags, "cities", defaults.cities)?,
        seed: get_usize(flags, "seed", defaults.seed as usize)? as u64,
        ab_seed: get_usize(flags, "ab-seed", defaults.ab_seed as usize)? as u64,
        rounds: get_usize(flags, "rounds", defaults.rounds as usize)? as u32,
        panel: get_usize(flags, "panel", defaults.panel)?,
        top_k: get_usize(flags, "top", defaults.top_k)?,
        recall: get_usize(flags, "recall", defaults.recall)?,
        epochs_per_round: get_usize(flags, "epochs", defaults.epochs_per_round)?,
        initial_epochs: get_usize(flags, "initial-epochs", defaults.initial_epochs)?,
        workers: get_usize(flags, "workers", defaults.workers)?,
        out_dir: flags
            .get("out-dir")
            .filter(|p| !p.is_empty())
            .map(std::path::PathBuf::from)
            .unwrap_or(defaults.out_dir),
    };
    eprintln!(
        "online loop: {} rounds × {} users × top-{} ({} users, {} cities), artifacts in {:?}…",
        config.rounds, config.panel, config.top_k, config.users, config.cities, config.out_dir
    );
    let report = odnet_repro::online::run_online(&config)?;
    for round in &report.rounds {
        println!(
            "round {} (day {}): epoch {} (fnv {:08x}) served {} impressions, {} clicks \
             (ctr {:.4}); retrained on {} groups (loss {:.4}) -> published epoch {} (fnv {:08x})",
            round.round,
            round.day,
            round.serving_epoch,
            round.serving_checksum,
            round.impressions,
            round.clicks,
            round.ctr,
            round.train_groups,
            round.train_loss,
            round.published_epoch,
            round.published_checksum,
        );
    }
    println!(
        "overall ctr {:.4} across {} publishes; final artifact epoch {} (fnv {:08x})",
        report.overall_ctr,
        report.publishes,
        report.final_version.epoch,
        report.final_version.checksum,
    );
    if let Some(path) = flags.get("metrics-jsonl") {
        if path.is_empty() {
            return Err("--metrics-jsonl expects a file path".into());
        }
        let mut rows = String::new();
        for round in &report.rounds {
            rows.push_str(&round.to_json());
            rows.push('\n');
        }
        std::fs::write(path, rows).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {} round metric rows to {path}", report.rounds.len());
    }
    Ok(())
}

fn cmd_recommend(flags: &HashMap<String, String>) -> Result<(), String> {
    use od_serve::{EngineConfig, Funnel, FunnelConfig};
    use std::sync::Arc;

    // Serving path, full funnel: no HSG rebuild and no autograd tape —
    // retrieval and ranking both read the frozen dense tables.
    if !flags.contains_key("artifact") && !flags.contains_key("model") {
        return Err("recommend needs --artifact FILE or --model FILE".into());
    }
    let (frozen, checksum, data_config) = match load_artifact_flag(flags)? {
        Some(loaded) => {
            let data_config = FliggyConfig {
                num_users: loaded.frozen.num_users(),
                num_cities: loaded.frozen.num_cities(),
                seed: get_usize(flags, "seed", 0xF11667)? as u64,
                ..FliggyConfig::tiny()
            };
            (loaded.frozen, loaded.checksum, data_config)
        }
        None => {
            let bundle = read_bundle(flags)?;
            let frozen =
                FrozenOdNet::from_checkpoint_json(&bundle.checkpoint).map_err(|e| e.to_string())?;
            let checksum = frozen.fingerprint();
            (frozen, checksum, bundle.data_config)
        }
    };
    let ds = build_dataset(&data_config);
    check_artifact_universe(&frozen, &ds)?;
    let user = UserId(get_usize(flags, "user", 0)? as u32);
    if user.index() >= ds.world.num_users() {
        return Err(format!(
            "user {} out of range (dataset has {} users)",
            user.index(),
            ds.world.num_users()
        ));
    }
    // `--top` kept as an alias from the pre-funnel CLI.
    let top_k = get_usize(flags, "top-k", get_usize(flags, "top", 5)?)?;
    let day = ds.train_end_day();
    let cfg = frozen.config();
    let fx = FeatureExtractor::new(cfg.max_long_seq, cfg.max_short_seq);
    let funnel = Funnel::new(
        Arc::new(frozen),
        checksum,
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        FunnelConfig::default(),
    );
    let rec = funnel
        .recommend(user, top_k, |pairs| {
            let tuples: Vec<(CityId, CityId)> = pairs.iter().map(|p| (p.origin, p.dest)).collect();
            fx.group_for_serving(&ds, user, day, &tuples)
        })
        .map_err(|e| e.to_string())?;
    funnel.shutdown();
    println!(
        "top-{top_k} flights for user {} (day {day}) — retrieved by gen {} [{:08x}], ranked by gen {} [{:08x}]:",
        user.index(),
        rec.retrieved_by.epoch,
        rec.retrieved_by.checksum,
        rec.ranked_by.epoch,
        rec.ranked_by.checksum,
    );
    for (i, p) in rec.pairs.iter().enumerate() {
        println!(
            "  {}. {} -> {}   score {:.4}  (retrieval {:.4})",
            i + 1,
            ds.world.cities[p.origin.index()].name,
            ds.world.cities[p.dest.index()].name,
            p.rank_score,
            p.retrieval_score
        );
    }
    Ok(())
}
