//! Malformed run knobs are a usage error at the driver edge: both CLIs
//! parse `FFET_FAULTS` once at startup, and `repro` parses every other
//! `FFET_*` knob with it, exiting 2 with a message naming the variable
//! before any flow config is built — never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");
const FFET: &str = env!("CARGO_BIN_EXE_ffet");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffet-fault-env-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `bin args…` in a scratch directory on the counter design with
/// every other knob unset, then `vars` applied.
fn run_with(bin: &str, args: &[&str], vars: &[(&str, &str)], tag: &str) -> Output {
    let dir = scratch(tag);
    let mut cmd = Command::new(bin);
    cmd.current_dir(&dir)
        .args(args)
        .env("FFET_DESIGN", "counter");
    for var in [
        "FFET_FAULTS",
        "FFET_MAX_ATTEMPTS",
        "FFET_DEADLINE",
        "FFET_JOBS",
        "FFET_ROUTE_JOBS",
        "FFET_STAGE_CACHE",
    ] {
        cmd.env_remove(var);
    }
    cmd.envs(vars.iter().copied());
    let out = cmd.output().unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Runs `bin args…` in a scratch directory with `FFET_FAULTS=spec`.
fn run(bin: &str, args: &[&str], spec: &str, tag: &str) -> Output {
    run_with(bin, args, &[("FFET_FAULTS", spec)], tag)
}

fn assert_usage_error(out: &Output, what: &str, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: stderr {stderr}");
    assert!(
        stderr.contains(message),
        "{what}: stderr lacks {message:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{what} panicked: {stderr}");
}

#[test]
fn bogus_fault_spec_exits_2_with_the_parse_message() {
    let out = run(REPRO, &["--no-cache", "fig9"], "bogus", "repro-bogus");
    assert_usage_error(&out, "repro", "FFET_FAULTS: unknown fault \"bogus\"");
    let out = run(
        REPRO,
        &["--no-cache", "sanity"],
        "route-open@x",
        "repro-window",
    );
    assert_usage_error(&out, "repro", "FFET_FAULTS: bad fault window");
    let out = run(FFET, &["cache", "stats"], "bogus", "ffet-bogus");
    assert_usage_error(&out, "ffet", "FFET_FAULTS: unknown fault \"bogus\"");
    // A spec naming a retired kind is rejected like any unknown one, never
    // silently ignored.
    let out = run(REPRO, &["--no-cache", "fig9"], "ckpt-stale", "repro-ckpt");
    assert_usage_error(&out, "repro", "FFET_FAULTS: unknown fault \"ckpt-stale\"");
    let out = run(FFET, &["cache", "stats"], "ckpt-stale", "ffet-ckpt");
    assert_usage_error(&out, "ffet", "FFET_FAULTS: unknown fault \"ckpt-stale\"");
}

#[test]
fn malformed_knobs_exit_2_naming_the_variable() {
    for var in [
        "FFET_JOBS",
        "FFET_ROUTE_JOBS",
        "FFET_MAX_ATTEMPTS",
        "FFET_DEADLINE",
    ] {
        for bad in ["abc", "0", "-1"] {
            let out = run_with(REPRO, &["--no-cache", "fig9"], &[(var, bad)], "repro-knob");
            assert_usage_error(&out, &format!("repro {var}={bad}"), &format!("{var}: "));
        }
    }
    // A misspelt design is rejected, not silently run as the RV32 core.
    let out = run_with(
        REPRO,
        &["--no-cache", "fig9"],
        &[("FFET_DESIGN", "Counter")],
        "repro-design",
    );
    assert_usage_error(&out, "repro FFET_DESIGN=Counter", "FFET_DESIGN: ");
}
