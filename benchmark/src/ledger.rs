//! The one-command ledger and the A/A check.
//!
//! Both run the single-workload benchmark as child processes — each
//! child is exactly what the acceptance driver runs (fresh process, own
//! set-up) — interleaved round-robin across the workloads so machine
//! drift hits all four alike.
//!
//! - no flags: every workload untraced then traced; prints every
//!   end-to-end and per-layer metric by name with its unit;
//! - `--aa N`: N untraced runs per workload on N seeds; prints each
//!   (metric, workload) pair's quartiles, spread and largest pairwise
//!   difference beside the bound in `BENCHMARK.json`, and fails if a
//!   spread exceeds its bound.

use crate::stats::{max_pairwise_rel_diff, median, quartiles, spread};
use crate::workload::Workload;
use serde_json::Value;
use std::process::{Command, Stdio};

fn numbers(v: &Value) -> Vec<f64> {
    match v {
        Value::Seq(items) => items.iter().filter_map(Value::as_f64).collect(),
        Value::Floats(f) => f.clone(),
        Value::F32s(f) => f.iter().map(|&x| x as f64).collect(),
        _ => Vec::new(),
    }
}

/// What one child run printed.
struct ChildRun {
    /// `(name, value, unit)` in printed order.
    metrics: Vec<(String, f64, String)>,
    /// The `detail` object of the first stdout line.
    detail: Value,
    correct: bool,
}

fn run_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    eprintln!(
        "── {} seed {seed} trace {}",
        workload.name(),
        u8::from(trace)
    );
    // `output` waits for the child; its stderr (environment block,
    // set-up breakdown, complaints) passes straight through.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().filter(|l| !l.trim().is_empty());
    let (Some(first), Some(last)) = (lines.next(), lines.next_back()) else {
        return Err(format!(
            "{} exited with {} and no result",
            workload.name(),
            out.status
        ));
    };
    let parse =
        |line: &str| serde_json::parse_content(line).map_err(|e| format!("child output: {e}"));
    let (detail, result) = (parse(first)?, parse(last)?);
    let metrics = result
        .get("metrics")
        .and_then(Value::as_map)
        .ok_or("child result has no metrics")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            (name.clone(), value, unit)
        })
        .collect();
    Ok(ChildRun {
        metrics,
        detail: detail.get("detail").cloned().unwrap_or(Value::Null),
        correct: result.get("correct").and_then(Value::as_bool) == Some(true)
            && out.status.success(),
    })
}

/// Regression bounds by end-to-end metric name, from `BENCHMARK.json`
/// in the working directory.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = serde_json::parse_content(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Ok(doc
        .get("end_to_end")
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Every metric of every workload from one command.
fn report(seed: u64, seconds: f64, smoke: bool) -> Result<bool, String> {
    let mut all_correct = true;
    let mut runs = Vec::new();
    for trace in [false, true] {
        for w in Workload::ALL {
            let run = run_child(w, seed, seconds, trace, smoke)?;
            all_correct &= run.correct;
            runs.push((w, trace, run));
        }
    }
    println!("# end to end (closed loop, 2 connections; over the quietest rounds, spread = (q3−q1)/median over all rounds)");
    println!(
        "{:<20} {:<16} {:>14} {:<5} {:>8}",
        "workload", "metric", "value", "unit", "spread"
    );
    for (w, _, run) in runs.iter().filter(|r| !r.1) {
        for (name, value, unit) in &run.metrics {
            let series = run.detail.get(name).map(numbers).unwrap_or_default();
            let spread = if series.len() >= 2 {
                format!("{:.1}%", spread(&series) * 100.0)
            } else {
                "-".to_string()
            };
            println!(
                "{:<20} {:<16} {:>14.3} {:<5} {:>8}",
                w.name(),
                name,
                value,
                unit,
                spread
            );
        }
        let count = |key: &str| {
            run.detail
                .get(key)
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{:<20} {:<16} {:>14.3} {:<5} {:>8}   (whole window; not gated)",
            w.name(),
            "p99_us",
            count("p99_us"),
            "us",
            "-"
        );
        println!(
            "{:<20} ops {} ops_failed {}",
            w.name(),
            count("ops"),
            count("ops_failed")
        );
    }
    let scale = if smoke {
        crate::fixture::SMOKE
    } else {
        crate::fixture::PAPER
    };
    println!(
        "# per layer (traced run of each workload; medians over {} requests per kind)",
        scale.layer_requests
    );
    print!("{:<36} {:<8}", "metric", "unit");
    for w in Workload::ALL {
        print!(" {:>19}", w.name());
    }
    println!();
    let traced: Vec<&ChildRun> = runs.iter().filter(|r| r.1).map(|r| &r.2).collect();
    for (name, _, unit) in &traced[0].metrics {
        print!("{name:<36} {unit:<8}");
        for run in &traced {
            let value = run.metrics.iter().find(|m| &m.0 == name).map(|m| m.1);
            print!(" {:>19.3}", value.unwrap_or(f64::NAN));
        }
        println!();
    }
    Ok(all_correct)
}

/// `n` back-to-back untraced sets on `n` seeds.
fn aa(n: usize, seed: u64, seconds: f64, smoke: bool) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut ok = true;
    // values[workload][metric] = one value per set
    let mut values: Vec<Vec<(String, Vec<f64>)>> = vec![Vec::new(); Workload::ALL.len()];
    for set in 0..n {
        for (wi, w) in Workload::ALL.into_iter().enumerate() {
            let run = run_child(w, seed + set as u64, seconds, false, smoke)?;
            ok &= run.correct;
            for (name, value, _) in run.metrics {
                match values[wi].iter_mut().find(|m| m.0 == name) {
                    Some(m) => m.1.push(value),
                    None => values[wi].push((name, vec![value])),
                }
            }
        }
    }
    println!(
        "{:<20} {:<16} {:>12} {:>12} {:>12} {:>8} {:>9} {:>7}  verdict",
        "workload", "metric", "q1", "median", "q3", "spread", "max_pair", "bound"
    );
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        for (name, v) in &values[wi] {
            let bound = bounds
                .iter()
                .find(|b| &b.0 == name)
                .map(|b| b.1)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {name}"))?;
            let (q1, q3, iqr) = if v.len() >= 2 {
                let (q1, _, q3) = quartiles(v);
                (q1, q3, spread(v))
            } else {
                (v[0], v[0], 0.0)
            };
            let pair = max_pairwise_rel_diff(v);
            // The acceptance rule: the quartile spread must stay within
            // the bound (`setup_s` is compared on medians only). A pair
            // of runs further apart than the bound is what "unresolved"
            // looks like from inside one comparison; it is printed, not
            // failed on.
            let verdict = if iqr <= bound {
                "ok"
            } else if name == "setup_s" {
                "wide"
            } else {
                ok = false;
                "EXCEEDS"
            };
            println!(
                "{:<20} {:<16} {:>12.3} {:>12.3} {:>12.3} {:>7.1}% {:>8.1}% {:>6.0}%  {verdict}",
                w.name(),
                name,
                q1,
                median(v),
                q3,
                iqr * 100.0,
                pair * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

/// Entry point when no `--workload` is given.
pub fn run(args: &[String]) -> Result<bool, String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let parse = |name: &str| crate::number_flag(args, name);
    let seed = parse("--seed")?.unwrap_or(1.0) as u64;
    let seconds = parse("--seconds")?.unwrap_or(if smoke { 1.0 } else { 10.0 });
    println!(
        "# environment: {{{},\"seed\":{seed},\"seconds\":{seconds},\"smoke\":{smoke},{}}}",
        crate::os::environment_json(),
        crate::fixture::server_config_json()
    );
    match parse("--aa")? {
        Some(n) if n >= 1.0 => aa(n as usize, seed, seconds, smoke),
        Some(_) => Err("--aa needs a count of at least 1".into()),
        None => report(seed, seconds, smoke),
    }
}
