//! Malformed `FFET_FAULTS` specs are a usage error at the driver edge:
//! both CLIs parse the variable once at startup and exit 2 with the parse
//! message, before any flow config is built — never a panic.

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

/// Runs `bin args…` in a scratch directory with `FFET_FAULTS=spec`.
fn run(bin: &str, args: &[&str], spec: &str, tag: &str) -> Output {
    let dir = scratch(tag);
    let out = Command::new(bin)
        .current_dir(&dir)
        .args(args)
        .env("FFET_FAULTS", spec)
        .env("FFET_DESIGN", "counter")
        .env_remove("FFET_MAX_ATTEMPTS")
        .env_remove("FFET_DEADLINE")
        .env_remove("FFET_JOBS")
        .env_remove("FFET_ROUTE_JOBS")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    out
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
