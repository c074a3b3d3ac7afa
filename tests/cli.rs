//! Integration tests of the `odnet` CLI binary: train → eval → freeze →
//! recommend from the `.odz` round-trips through a real process and real
//! files, plus the argument errors every command shares.

use std::process::Command;

fn odnet() -> Command {
    Command::new(env!("CARGO_BIN_EXE_odnet"))
}

fn tmp_model_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("odnet_cli_test_{tag}_{}.json", std::process::id()));
    p
}

/// `odnet <args>` must exit 0; returns its (stdout, stderr).
fn run_ok(args: &[&str]) -> (String, String) {
    let out = odnet().args(args).output().expect("spawn odnet");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    assert!(
        out.status.success(),
        "odnet {args:?} failed: {}",
        text(&out.stderr)
    );
    (text(&out.stdout), text(&out.stderr))
}

/// The one operator path, for a plain and a graph variant: `train` writes
/// a weights-only checkpoint, `eval` and `freeze --model` rebuild dataset
/// (and graph) from it, `recommend --artifact` serves the `.odz` through
/// the funnel.
#[test]
fn train_eval_recommend_round_trip() {
    for variant in ["odnet-g", "odnet"] {
        let model = tmp_model_path(&format!("roundtrip_{variant}"));
        let model_arg = model.to_str().unwrap();
        let artifact = model.with_extension("odz");
        let artifact_arg = artifact.to_str().unwrap();
        run_ok(&[
            "train",
            "--out",
            model_arg,
            "--variant",
            variant,
            "--users",
            "80",
            "--cities",
            "12",
            "--epochs",
            "1",
        ]);
        assert!(model.exists(), "model file not written");

        let (stdout, _) = run_ok(&["eval", "--model", model_arg]);
        assert!(
            stdout.contains("AUC-O"),
            "eval output missing metrics: {stdout}"
        );
        assert!(stdout.contains("HR@5"));

        // Freeze the checkpoint to an `.odz` and recommend from the mmap'd
        // file. The listing is stamped with the file's header checksum for
        // both funnel stages.
        run_ok(&["freeze", "--model", model_arg, "--out", artifact_arg]);
        let (stdout, stderr) = run_ok(&[
            "recommend",
            "--artifact",
            artifact_arg,
            "--user",
            "3",
            "--top-k",
            "4",
        ]);
        assert!(stdout.contains("top-4 flights"), "got: {stdout}");
        // Four ranked lines with arrows.
        assert_eq!(stdout.matches("->").count(), 4, "got: {stdout}");
        assert_eq!(stdout.matches("by gen 0 [").count(), 2, "got: {stdout}");
        assert!(stderr.contains("mmap mode"));

        let _ = std::fs::remove_file(artifact);
        let _ = std::fs::remove_file(model);
    }
}

/// A flag the command's synopsis does not name is an error that names it,
/// not a silently ignored typo (`freeze --userz 10` used to freeze the
/// default 400 users and exit 0); likewise a stray positional.
#[test]
fn unknown_flags_and_stray_arguments_exit_nonzero_naming_them() {
    for command in [
        "train",
        "eval",
        "recommend",
        "freeze",
        "serve",
        "trace",
        "online",
    ] {
        let out = odnet()
            .args([command, "--userz", "10"])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{command} accepted --userz");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag --userz for '{command}'")),
            "{command}: {stderr}"
        );
    }
    // Flags are per command: `--smoke` is not a `serve` flag (any more),
    // nor `--users` (sizes are the artifact's), `--top` not a `recommend`
    // one — nor `--model`: a checkpoint holds no artifact to recommend
    // from, `freeze --model` makes one.
    for [command, flag] in [
        ["serve", "--smoke"],
        ["serve", "--users"],
        ["recommend", "--top"],
        ["recommend", "--model"],
    ] {
        let out = odnet().args([command, flag]).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{command} {flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {flag} for '{command}'")),
            "{command} {flag}: {stderr}"
        );
    }
    let out = odnet()
        .args(["freeze", "artifact.odz"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr)
        .contains("unexpected argument \"artifact.odz\" for 'freeze'"));
}

#[test]
fn helpful_errors_and_usage() {
    // No command → usage on stderr, nonzero exit.
    let out = odnet().output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    // Unknown command — `metrics` included: `odnet serve` + GET /metrics
    // is the one way to read the registry.
    for command in ["frobnicate", "metrics"] {
        let out = odnet().arg(command).output().expect("spawn");
        assert!(!out.status.success());
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    }

    // eval without --model.
    let out = odnet().arg("eval").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--model"));

    // recommend and serve without --artifact: there is no built-in model.
    for command in ["recommend", "serve"] {
        let out = odnet().arg(command).output().expect("spawn");
        assert!(!out.status.success(), "{command} ran without an artifact");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--artifact FILE is required"));
    }

    // recommend with out-of-range user.
    let model = tmp_model_path("range");
    let artifact = model.with_extension("odz");
    run_ok(&[
        "train",
        "--out",
        model.to_str().unwrap(),
        "--variant",
        "stl-g",
        "--users",
        "40",
        "--cities",
        "10",
        "--epochs",
        "1",
    ]);
    run_ok(&[
        "freeze",
        "--model",
        model.to_str().unwrap(),
        "--out",
        artifact.to_str().unwrap(),
    ]);
    let out = odnet()
        .args(["recommend", "--user", "9999", "--artifact"])
        .arg(&artifact)
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
    let _ = std::fs::remove_file(artifact);
    let _ = std::fs::remove_file(model);
}

#[test]
fn help_prints_usage_successfully() {
    let out = odnet().arg("help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("odnet train"));
}
