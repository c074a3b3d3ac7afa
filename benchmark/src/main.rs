//! Paper-scale serving benchmark for the ODNET reproduction.
//!
//! One invocation measures one workload:
//!
//! ```text
//! od-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! It builds the fixture (untrained ODNET-G, 2.6 M users × 200 cities,
//! frozen → `.odz` → mmap), starts one embedded HTTP server, drives it
//! over loopback sockets, verifies every response, and prints one JSON
//! object as the last line of stdout. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` adds the single-threaded per-layer pass and
//! prints the per-layer metrics instead. Without `--workload` it is the
//! ledger: every workload, both ways, as child processes (see
//! `ledger.rs`). `README.md` beside this crate is the glossary.

mod alloc;
mod client;
mod fixture;
mod layers;
mod ledger;
mod os;
mod spans;
mod stats;
mod workload;

use fixture::{Cpus, Scale, Stack};
use layers::Metrics;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Inputs, RunLength, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Rounds the measured window is cut into; the end-to-end metrics are
/// computed over the `workload::QUIET_ROUNDS` quietest of them, so
/// noisy-neighbour bursts covering most of a window cannot move them.
const ROUNDS: usize = 10;
/// Full set-up passes per untraced run; `setup_s` uses their median.
const SETUP_PASSES: usize = 3;
/// Requests per connection at the end of every set-up pass: the stack's
/// first traffic, so anything it initializes lazily is paid inside the
/// pass.
const FIRST_REQUESTS: u64 = 250;
/// Share of `--seconds` the open-loop diagnostic phase runs for.
const OPEN_LOOP_SHARE: f64 = 0.3;

/// Parsed command line of a single run.
pub struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out_dir: PathBuf,
}

/// The `.odz` this process writes; removed when the run ends, however
/// it ends.
struct Artifact(PathBuf);

impl Drop for Artifact {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Remove artifacts left behind by runs that were killed before they
/// could clean up (333 MB each); a run that is still alive keeps its own.
fn remove_stale_artifacts(out_dir: &Path) {
    for entry in std::fs::read_dir(out_dir).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let pid = name
            .to_str()
            .and_then(|n| n.strip_prefix("fixture-")?.strip_suffix(".odz"));
        if pid.is_some_and(|pid| !Path::new("/proc").join(pid).exists()) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// The value following `name` on the command line.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The numeric value following `name`, if the flag is present.
fn number_flag(args: &[String], name: &str) -> Result<Option<f64>, String> {
    flag(args, name)
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| format!("{name} {v:?} is not a number"))
        })
        .transpose()
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {workload:?}; one of {names:?}")
    })?;
    let seconds = number_flag(args, "--seconds")?.unwrap_or(10.0);
    if !(0.5..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 0.5..=60"));
    }
    Ok(Options {
        workload,
        seed: number_flag(args, "--seed")?.unwrap_or(1.0) as u64,
        seconds,
        trace: number_flag(args, "--trace")?.unwrap_or(0.0) != 0.0,
        scale: if args.iter().any(|a| a == "--smoke") {
            fixture::SMOKE
        } else {
            fixture::PAPER
        },
        out_dir: PathBuf::from(flag(args, "--out-dir").unwrap_or("benchmark/out")),
    })
}

/// One set-up pass: the stack, the workload's inputs, and its verified
/// first requests. Returns the pass's wall time and failed requests.
fn setup_pass(
    model: &odnet_core::OdNetModel,
    opts: &Options,
    artifact: &Path,
    cpus: &Cpus,
) -> Result<(Stack, Inputs, f64, u64), String> {
    let t = Instant::now();
    let stack = Stack::build(model, &opts.scale, artifact, opts.trace, cpus)?;
    let inputs = Inputs::prepare(opts.workload, opts.seed, &stack);
    let warm = workload::run_closed(
        &stack,
        artifact,
        &inputs,
        opts.workload,
        opts.seed ^ 0x5EED_0000_0000_0000,
        RunLength::Requests(FIRST_REQUESTS),
    );
    Ok((stack, inputs, t.elapsed().as_secs_f64(), warm.failed))
}

fn json_metrics(metrics: &[(String, f64, &'static str)]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", members.join(","))
}

fn json_series(name: &str, values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    format!("\"{name}\":[{}]", v.join(","))
}

/// Measure one workload and print the result. `Ok(true)` iff every
/// operation verified.
fn run_single(opts: &Options) -> Result<bool, String> {
    let harness_start = Instant::now();
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("{:?}: {e}", opts.out_dir))?;
    remove_stale_artifacts(&opts.out_dir);
    let artifact = Artifact(
        opts.out_dir
            .join(format!("fixture-{}.odz", std::process::id())),
    );
    // Read before pinning: the affinity mask narrows what the OS reports.
    let environment = os::environment_json();
    let cpus = Cpus::split();
    if cpus.generator.is_empty() {
        eprintln!("warning: nproc < 2 — generator and server fight over one core; numbers are not comparable with the recorded baseline");
    }
    eprintln!(
        "environment: {{{},\"scale\":\"{}\",\"users\":{},\"cities\":{},\"history_donors\":{},\"seed\":{},\"seconds\":{},\"connections\":{},\"server_cpus\":{:?},\"generator_cpus\":{:?},{}}}",
        environment,
        opts.scale.name,
        opts.scale.users,
        opts.scale.cities,
        opts.scale.donors,
        opts.seed,
        opts.seconds,
        workload::CONNECTIONS,
        cpus.server,
        cpus.generator,
        fixture::server_config_json(),
    );

    let t = Instant::now();
    let model = fixture::new_model(&opts.scale);
    let model_new_s = t.elapsed().as_secs_f64();

    // Set-up, several times over: the last pass's stack is the one
    // measured, the earlier ones are drained and dropped.
    let passes = if opts.trace || opts.scale.name == "smoke" {
        1
    } else {
        SETUP_PASSES
    };
    let mut pass_s = Vec::with_capacity(passes);
    let mut failed = 0u64;
    let mut live: Option<(Stack, Inputs)> = None;
    for _ in 0..passes {
        if let Some((stack, _)) = live.take() {
            failed += u64::from(!stack.shutdown());
        }
        let (stack, inputs, secs, warm_failed) = setup_pass(&model, opts, &artifact.0, &cpus)?;
        pass_s.push(secs);
        failed += warm_failed;
        live = Some((stack, inputs));
    }
    let (stack, inputs) = live.expect("at least one set-up pass");
    drop(model);
    let t = Instant::now();
    // The artifact was written moments ago; left alone, the kernel would
    // write those dirty pages back during the measured window.
    std::fs::File::open(&artifact.0)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("sync {:?}: {e}", artifact.0))?;
    let sync_s = t.elapsed().as_secs_f64();
    failed += workload::run_closed(
        &stack,
        &artifact.0,
        &inputs,
        opts.workload,
        opts.seed ^ 0x5E77_1E00_0000_0000,
        RunLength::Requests(opts.scale.settle_requests),
    )
    .failed;
    let settle_s = t.elapsed().as_secs_f64();
    // What one replica pays from process start to its first measured
    // request: build the model once, set up once (the median pass), settle.
    let setup_s = model_new_s + stats::median(&pass_s) + settle_s;
    let rss_ready_mb = os::rss_mb();
    eprintln!(
        "setup: model_new {model_new_s:.2}s + passes {pass_s:.2?} + settle {settle_s:.2}s (sync {sync_s:.2}s) (last pass: {:?}); ready after {:.1}s",
        stack.times,
        harness_start.elapsed().as_secs_f64()
    );

    let engine_before = stack.funnel.engine().stats();
    let proc_before = os::proc_counters();
    let measured = workload::run_closed(
        &stack,
        &artifact.0,
        &inputs,
        opts.workload,
        opts.seed,
        RunLength::Rounds {
            rounds: ROUNDS,
            round: Duration::from_secs_f64(opts.seconds / ROUNDS as f64),
        },
    );
    let proc_after = os::proc_counters();
    let engine_after = stack.funnel.engine().stats();
    let mut attempted = measured.attempted;
    failed += measured.failed;
    if measured.rps == 0.0 {
        return Err("no request completed in the measured window".into());
    }

    let mut m = Metrics::default();
    if opts.trace {
        let completed = measured.completed.max(1) as f64;
        let forwards = (engine_after.forwards - engine_before.forwards).max(1) as f64;
        m.put(
            "serve.requests_per_forward",
            (engine_after.completed - engine_before.completed) as f64 / forwards,
            "count",
        );
        m.put(
            "serve.rejected",
            (engine_after.rejected - engine_before.rejected) as f64,
            "count",
        );
        m.put("serve.publishes", measured.publish_ms.len() as f64, "count");
        if !measured.publish_ms.is_empty() {
            m.put(
                "serve.publish_ms",
                stats::median(&measured.publish_ms),
                "ms",
            );
        }
        m.put("loadgen.p99_us", measured.p99_us, "us");
        m.put(
            "loadgen.client_busy_us_per_req",
            measured.client_busy_us_per_req,
            "us",
        );
        m.put("proc.rss_ready_mb", rss_ready_mb, "mb");
        m.put(
            "proc.ctxsw_per_req",
            (proc_after.ctxsw - proc_before.ctxsw) as f64 / completed,
            "count",
        );
        m.put(
            "proc.minflt_per_req",
            (proc_after.minflt - proc_before.minflt) as f64 / completed,
            "count",
        );
        let t = stack.times;
        m.put("core.freeze_s", t.freeze_s, "s");
        m.put("core.save_bin_s", t.save_bin_s, "s");
        m.put("core.load_mmap_ms", t.load_mmap_ms, "ms");
        m.put("core.first_score_us", t.first_score_us, "us");
        m.put("data.generate_s", t.generate_s, "s");
        m.put("serve.funnel_build_ms", t.funnel_build_ms, "ms");
        m.put("retrieval.build_ms", t.retrieval_build_ms, "ms");

        let layers::LayerPass { logs, open_failed } = layers::run(
            &stack,
            &artifact.0,
            opts.seed,
            opts.seconds * OPEN_LOOP_SHARE,
            measured.publish_ms.is_empty(),
            &mut m,
        )?;
        let open_attempted = (opts.seconds * OPEN_LOOP_SHARE * layers::OPEN_RATE as f64) as u64;
        attempted += open_attempted + 2 * 3 * stack.layer_requests as u64;
        failed += open_failed;
        let trace_path = opts.out_dir.join("trace.json");
        let passes: Vec<(&str, &spans::SpanLog)> = logs.iter().map(|(k, l)| (*k, l)).collect();
        spans::write_json(&trace_path, &passes).map_err(|e| format!("{trace_path:?}: {e}"))?;
        eprintln!("spans written to {trace_path:?}");
    } else {
        m.put("rps", measured.rps, "1/s");
        m.put("p50_us", measured.p50_us, "us");
        m.put("cpu_us_per_req", measured.cpu_us_per_req, "us");
        m.put("setup_s", setup_s, "s");
    }
    failed += u64::from(!stack.shutdown());

    if let Some(bad) = m.0.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {} is not a finite number", bad.0));
    }
    let correct = failed == 0;
    // First line: what the ledger prints beside the contract's metrics.
    println!(
        "{{\"detail\":{{\"workload\":\"{}\",\"ops\":{attempted},\"ops_failed\":{failed},\"rounds\":{ROUNDS},\
         \"quiet_rounds\":{:?},\"p99_us\":{},{},{},{},{},\"model_new_s\":{model_new_s},\"settle_s\":{settle_s},\
         \"stream_hash\":\"{:016x}\"}}}}",
        opts.workload.name(),
        measured.quiet,
        measured.p99_us,
        json_series("rps", &measured.round_rps),
        json_series("p50_us", &measured.round_p50_us),
        json_series("cpu_us_per_req", &measured.round_cpu_us_per_req),
        json_series("setup_pass_s", &pass_s),
        workload::stream_hash(opts.workload, opts.seed, opts.scale.users, 1000),
    );
    // Last line: the result.
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        json_metrics(&m.0)
    );
    Ok(correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.iter().any(|a| a == "--workload") {
        parse_options(&args).and_then(|opts| run_single(&opts))
    } else {
        ledger::run(&args)
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("od-benchmark: operations failed or verification mismatched");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("od-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
