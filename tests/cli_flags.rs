//! The `gridscale` CLI runs only what it reads: a removed subcommand, a
//! removed flag, a misspelled flag and an invalid value each exit with
//! status 2 and a message, never a panic and never a run with defaults.

use std::process::{Command, Output};

fn gridscale(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gridscale"))
        .args(args)
        .output()
        .expect("gridscale starts")
}

fn assert_rejected(args: &[&str], message: &str) {
    let out = gridscale(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran anyway");
}

#[test]
fn removed_subcommands_and_flags_exit_2() {
    assert_rejected(&["bench-sim"], "unknown command bench-sim");
    assert_rejected(&["audit"], "unknown command audit");
    assert_rejected(
        &["measure", "--rep-probe", "16"],
        "unknown flag --rep-probe for measure",
    );
}

#[test]
fn misspelled_flags_exit_2_instead_of_running_with_defaults() {
    assert_rejected(&["run", "--thread", "4"], "unknown flag --thread for run");
    assert_rejected(&["models", "--json"], "unknown flag --json for models");
}

#[test]
fn invalid_bandwidth_scales_exit_2_instead_of_panicking() {
    for scale in ["0", "-1", "nan", "inf"] {
        assert_rejected(
            &["measure", "--bw", scale],
            "bandwidth capacity scale must be positive and finite",
        );
    }
}

#[test]
fn accepted_flags_still_run() {
    let out = gridscale(&[
        "trace",
        "--rate",
        "0.01",
        "--duration",
        "2000",
        "--seed",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("jobs"));
}
