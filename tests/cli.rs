//! Integration tests of the `odnet` CLI binary: train → eval → recommend
//! (→ freeze → recommend from the `.odz`) round-trips through a real
//! process and real files, plus the argument errors every command shares.

use std::process::Command;

fn odnet() -> Command {
    Command::new(env!("CARGO_BIN_EXE_odnet"))
}

fn tmp_model_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("odnet_cli_test_{tag}_{}.json", std::process::id()));
    p
}

#[test]
fn train_eval_recommend_round_trip() {
    let model = tmp_model_path("roundtrip");
    let out = odnet()
        .args([
            "train",
            "--out",
            model.to_str().unwrap(),
            "--variant",
            "odnet-g",
            "--users",
            "80",
            "--cities",
            "12",
            "--epochs",
            "1",
        ])
        .output()
        .expect("spawn odnet train");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists(), "model file not written");

    let out = odnet()
        .args(["eval", "--model", model.to_str().unwrap()])
        .output()
        .expect("spawn odnet eval");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("AUC-O"),
        "eval output missing metrics: {stdout}"
    );
    assert!(stdout.contains("HR@5"));

    let out = odnet()
        .args([
            "recommend",
            "--model",
            model.to_str().unwrap(),
            "--user",
            "3",
            "--top-k",
            "4",
        ])
        .output()
        .expect("spawn odnet recommend");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("top-4 flights"), "got: {stdout}");
    // Four ranked lines with arrows.
    assert_eq!(stdout.matches("->").count(), 4, "got: {stdout}");

    // The operator path: freeze the checkpoint's artifact to an `.odz` and
    // recommend from the mmap'd file. The listing is stamped with the
    // file's header checksum for both funnel stages.
    let artifact = model.with_extension("odz");
    let out = odnet()
        .args(["freeze", "--model", model.to_str().unwrap(), "--out"])
        .arg(&artifact)
        .output()
        .expect("spawn odnet freeze");
    assert!(
        out.status.success(),
        "freeze failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = odnet()
        .arg("recommend")
        .arg("--artifact")
        .arg(&artifact)
        .args(["--user", "3", "--top-k", "4"])
        .output()
        .expect("spawn odnet recommend --artifact");
    assert!(
        out.status.success(),
        "recommend --artifact failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("top-4 flights"), "got: {stdout}");
    assert_eq!(stdout.matches("->").count(), 4, "got: {stdout}");
    assert_eq!(stdout.matches("by gen 0 [").count(), 2, "got: {stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("mmap mode"));

    let _ = std::fs::remove_file(artifact);
    let _ = std::fs::remove_file(model);
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
    // `--top` not a `recommend` one.
    for args in [["serve", "--smoke"], ["recommend", "--top"]] {
        let out = odnet().args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
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

    // recommend with out-of-range user.
    let model = tmp_model_path("range");
    let ok = odnet()
        .args([
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
        ])
        .output()
        .expect("spawn");
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let out = odnet()
        .args([
            "recommend",
            "--model",
            model.to_str().unwrap(),
            "--user",
            "9999",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
    let _ = std::fs::remove_file(model);
}

#[test]
fn help_prints_usage_successfully() {
    let out = odnet().arg("help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("odnet train"));
}
