//! `odnet` — command-line interface to the ODNET reproduction.
//!
//! ```text
//! odnet train --variant odnet --users 400 --cities 30 --epochs 5 --out model.json
//! odnet eval  --model model.json
//! odnet freeze --model model.json --out model.odz
//! odnet recommend --artifact model.odz --user 7 --top-k 5
//! ```
//!
//! The model file holds weights plus the dataset parameters; the synthetic
//! dataset (and its graph) is regenerated deterministically from them, so
//! `eval` and `freeze` need no separate data artifact. Everything after
//! `train` reads the frozen artifact: `eval` scores `freeze()` in process,
//! `recommend` and `serve` load the `.odz` `freeze` wrote.

use od_data::{FliggyConfig, FliggyDataset};
use od_hsg::UserId;
use odnet_core::{
    evaluate_on_fliggy, try_train, FeatureExtractor, OdNetModel, OdnetConfig, Variant,
};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

type Flags = HashMap<String, String>;
type Run = fn(&Flags) -> Result<(), String>;

/// The on-disk bundle: everything needed to rebuild dataset + model.
#[derive(serde::Serialize, serde::Deserialize)]
struct ModelFile {
    data_config: FliggyConfig,
    variant: String,
    checkpoint: String,
}

/// Every command: its name, its synopsis exactly as `odnet help` prints it
/// (a newline continues on the next usage line), and its entry point. The
/// `--flags` a synopsis names are the only ones the command accepts.
const COMMANDS: &[(&str, &str, Run)] = &[
    (
        "train",
        "--out FILE [--variant odnet|odnet-g|stl+g|stl-g]\n\
         [--users N] [--cities N] [--epochs N] [--seed N]\n\
         [--metrics-jsonl FILE]",
        cmd_train,
    ),
    ("eval", "--model FILE", cmd_eval),
    (
        "recommend",
        "--artifact FILE [--seed N] --user ID [--top-k K]",
        cmd_recommend,
    ),
    (
        "freeze",
        "--out FILE (--model FILE | [--variant V] [--users N]\n\
         [--cities N] [--embed-dim D] [--seed N])",
        cmd_freeze,
    ),
    (
        "serve",
        "--artifact FILE [--seed N] [--addr H:P] [--shards N]\n\
         [--workers N] [--trace]",
        cmd_serve,
    ),
    (
        "trace",
        "--addr H:P [--min-ms N] [--errors] [--limit N]\n\
         [--chrome FILE]",
        cmd_trace,
    ),
    (
        "online",
        "[--users N] [--cities N] [--rounds N] [--panel N]\n\
         [--top K] [--recall K] [--epochs N] [--initial-epochs N]\n\
         [--seed N] [--ab-seed N] [--workers N] [--out-dir DIR]\n\
         [--metrics-jsonl FILE]",
        cmd_online,
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        name => match COMMANDS.iter().find(|c| c.0 == name) {
            Some(&(_, synopsis, run)) => {
                parse_flags(name, synopsis, &args[1..]).and_then(|flags| run(&flags))
            }
            None => Err(format!("unknown command {name:?}\n{}", usage())),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    let mut text = String::from("odnet — ODNET (ICDE 2022) reproduction CLI\n\nUSAGE:\n");
    for (name, synopsis, _) in COMMANDS {
        let synopsis = synopsis.replace('\n', &format!("\n{:18}", ""));
        text.push_str(&format!("  odnet {name:<9} {synopsis}\n"));
    }
    text + NOTES
}

const NOTES: &str = "
`freeze` writes the serving artifact to FILE in the .odz format (the
zero-copy binary that serving replicas mmap; see DESIGN.md §12) — the
one format serving loads. From --model it reloads the `train` checkpoint
(weights only; the dataset and graph regenerate from the parameters
beside them) and freezes it; without it, it freezes an untrained model
of the given universe size — the paper-scale cold-start path (odnet-g
needs no graph, so freezing 2.6M users is cheap).

`eval` scores that same frozen artifact, built in process from the
checkpoint: the metrics describe what `freeze --model` would serve.

`recommend` serves one user through the full funnel (DESIGN.md S14): the
retrieval tier proposes the --top-k best OD pairs straight from the
frozen dense tables, the live engine ranks them, and the listing is
stamped with the artifact generation that served each stage. --artifact
is the .odz on disk (mmap'd) that `freeze` wrote.

`serve` exposes the artifact over the hardened od-http tier (DESIGN.md
S15): POST /v1/score ranks a raw request group, POST /v1/recommend runs
the retrieve -> rank funnel, GET /healthz reports readiness (NOT-READY
while draining), GET /metrics renders the od-obs registry as Prometheus
text. Requests shard across --shards engines by user id; closing stdin
(Ctrl-D) starts a graceful drain and the exit code says whether it
settled cleanly.

`serve --trace` turns on request-scoped tracing (DESIGN.md S16): every
request gets an X-Request-Id (client-supplied or minted) echoed on the
response, and the tail sampler keeps slow/error traces (plus 1/64 of the
rest) in an in-memory ring served by GET /debug/traces. `trace` pulls
the ring from a running server: default prints the JSON document,
--chrome FILE writes Chrome trace_event JSON loadable in
chrome://tracing or Perfetto.

`online` runs the drift -> retrain -> freeze -> publish loop (DESIGN.md
S13): each simulated day a user panel is served through one live funnel
(--recall pairs retrieved and ranked, the best --top shown), the click
stream becomes labeled training data, and the retrained model is frozen
to DIR/gen-NNN.odz and hot-published for the next day. --ab-seed seeds
the click simulator's common random numbers separately from the dataset
--seed; --metrics-jsonl writes one row per round.
";

/// Parse `--key value` / `--switch` arguments of `command`, refusing
/// anything its synopsis does not name.
fn parse_flags(command: &str, synopsis: &str, args: &[String]) -> Result<Flags, String> {
    let known: Vec<&str> = synopsis
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter_map(|token| token.strip_prefix("--"))
        .collect();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            return Err(format!("unexpected argument {:?} for '{command}'", args[i]));
        };
        if !known.contains(&key) {
            return Err(format!("unknown flag --{key} for '{command}'"));
        }
        if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            flags.insert(key.to_string(), args[i + 1].clone());
            i += 2;
        } else {
            flags.insert(key.to_string(), String::new());
            i += 1;
        }
    }
    Ok(flags)
}

fn get_usize(flags: &Flags, key: &str, default: usize) -> Result<usize, String> {
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

fn cmd_train(flags: &Flags) -> Result<(), String> {
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
    let hsg = variant.uses_graph().then(|| ds.hsg());
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
        checkpoint: model.save_json(),
    };
    let json = serde_json::to_string(&bundle).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("saved model to {out}");
    Ok(())
}

/// Rebuild what `train` saved to `--model FILE`: the dataset from its
/// parameters, the graph from the dataset, the model from its weights.
fn load_bundle(flags: &Flags) -> Result<(FliggyDataset, OdNetModel), String> {
    let path = flags.get("model").ok_or("--model FILE is required")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let bundle: ModelFile = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    let ds = build_dataset(&bundle.data_config);
    let variant = parse_variant(&bundle.variant)?;
    let hsg = variant.uses_graph().then(|| ds.hsg());
    let model = OdNetModel::load_json(&bundle.checkpoint, hsg).map_err(|e| e.to_string())?;
    Ok((ds, model))
}

fn cmd_eval(flags: &Flags) -> Result<(), String> {
    let (ds, model) = load_bundle(flags)?;
    let fx = FeatureExtractor::new(model.config.max_long_seq, model.config.max_short_seq);
    eprintln!(
        "evaluating {} on {} cases…",
        model.variant.name(),
        ds.eval_cases.len()
    );
    let eval = evaluate_on_fliggy(&model.freeze(), &ds, &fx);
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

/// Write a frozen serving artifact to `--out FILE` as `.odz`. From
/// `--model` it reloads a training run's checkpoint as `eval` does and
/// freezes it; otherwise it freezes an untrained model of the requested
/// universe size, which is how paper-scale (2.6M user) artifacts are
/// produced for cold-start experiments without a week of training.
fn cmd_freeze(flags: &Flags) -> Result<(), String> {
    let out = flags
        .get("out")
        .filter(|p| !p.is_empty())
        .ok_or("--out FILE is required (the .odz artifact to write)")?;
    let frozen = if flags.contains_key("model") {
        load_bundle(flags)?.1.freeze()
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
                Ok::<_, String>(ds.hsg())
            })
            .transpose()?;
        eprintln!(
            "freezing untrained {} ({users} users × {cities} cities, d = {})…",
            variant.name(),
            config.embed_dim
        );
        OdNetModel::new(variant, config, users, cities, hsg).freeze()
    };
    frozen
        .save_bin(std::path::Path::new(out))
        .map_err(|e| e.to_string())?;
    let mib = std::fs::metadata(out)
        .map(|m| m.len() as f64 / (1 << 20) as f64)
        .unwrap_or(0.0);
    eprintln!(
        "wrote {out} ({mib:.1} MiB): {} — {} users × {} cities",
        frozen.variant().name(),
        frozen.num_users(),
        frozen.num_cities()
    );
    Ok(())
}

/// What `serve` and `recommend` stand on: the `--artifact` `.odz` loaded
/// through the one shared entry point ([`od_serve::load_frozen_auto`],
/// zero-copy mmap; cold-start gauges recorded into the od-obs registry),
/// its content checksum for version attribution, and the `--seed` dataset
/// of the artifact's own universe sizes that histories are drawn from.
fn load_artifact_and_dataset(
    flags: &Flags,
) -> Result<(odnet_core::FrozenOdNet, u32, Arc<FliggyDataset>), String> {
    let path = flags
        .get("artifact")
        .filter(|p| !p.is_empty())
        .ok_or("--artifact FILE is required (see `odnet freeze`)")?;
    let path = std::path::Path::new(path);
    let od_serve::LoadedArtifact {
        frozen,
        checksum,
        mode,
    } = od_serve::load_frozen_auto(path).map_err(|e| e.to_string())?;
    eprintln!(
        "loaded {} artifact {path:?} ({} mode, fnv {checksum:08x}): {} users × {} cities",
        frozen.variant().name(),
        mode.name(),
        frozen.num_users(),
        frozen.num_cities()
    );
    let ds = Arc::new(build_dataset(&FliggyConfig {
        num_users: frozen.num_users(),
        num_cities: frozen.num_cities(),
        seed: get_usize(flags, "seed", 0xF11667)? as u64,
        ..FliggyConfig::tiny()
    }));
    Ok((frozen, checksum, ds))
}

/// Serve the artifact over the hardened HTTP tier (DESIGN.md §15): score
/// and recommend endpoints sharded across per-core funnels, readiness and
/// Prometheus exposition, graceful drain on stdin close.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    use od_http::{Featurizer, Server, ServerConfig};
    use od_serve::{EngineConfig, Funnel, FunnelConfig};

    let shards_n = get_usize(flags, "shards", 2)?.max(1);
    let workers = get_usize(flags, "workers", 2)?.max(1);
    if flags.contains_key("trace") {
        od_obs::trace::global().enable(od_obs::trace::TraceConfig::default());
    }
    let addr = flags
        .get("addr")
        .filter(|a| !a.is_empty())
        .map_or("127.0.0.1:8080", String::as_str)
        .to_string();

    let (frozen, checksum, ds) = load_artifact_and_dataset(flags)?;
    // The dataset-holding half of the funnel contract, which an HTTP
    // client cannot ship over the wire.
    let featurize = odnet_repro::serving_featurizer(&frozen, Arc::clone(&ds))?;
    let day = ds.train_end_day();
    let featurizer: Featurizer = Arc::new(move |user, pairs| featurize(user, day, pairs));
    let model = Arc::new(frozen);
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
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind http server: {e}"))?;
    eprintln!(
        "serving artifact [{checksum:08x}] on http://{} ({shards_n} shard(s) × {workers} worker(s))",
        server.addr()
    );
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

/// `odnet trace`: pull the tail-sampled trace ring from a running
/// `odnet serve --trace` instance over its `/debug/traces` route. The
/// default prints the native JSON document; `--chrome FILE` writes Chrome
/// `trace_event` JSON (open in `chrome://tracing` or Perfetto).
fn cmd_trace(flags: &Flags) -> Result<(), String> {
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
fn cmd_online(flags: &Flags) -> Result<(), String> {
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

fn cmd_recommend(flags: &Flags) -> Result<(), String> {
    use od_serve::{EngineConfig, Funnel, FunnelConfig};

    // Serving path, full funnel: no HSG rebuild and no autograd tape —
    // retrieval and ranking both read the frozen dense tables.
    let (frozen, checksum, ds) = load_artifact_and_dataset(flags)?;
    let featurize = odnet_repro::serving_featurizer(&frozen, Arc::clone(&ds))?;
    let user = UserId(get_usize(flags, "user", 0)? as u32);
    if user.index() >= ds.world.num_users() {
        return Err(format!(
            "user {} out of range (dataset has {} users)",
            user.index(),
            ds.world.num_users()
        ));
    }
    let top_k = get_usize(flags, "top-k", 5)?;
    let day = ds.train_end_day();
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
        .recommend(user, top_k, |pairs| featurize(user, day, pairs))
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
