//! Kill-and-rerun differential tests for the crash-safe sweep driver.
//!
//! Each test spawns the real `repro` binary in a scratch directory, kills
//! it mid-sweep (SIGKILL — no cleanup handlers run), checks that the stage
//! cache the kill left behind is intact, reruns the same command with no
//! extra flag, and asserts the final artifacts are byte-identical to an
//! uninterrupted run: every experiment CSV, `trace.jsonl` (structurally),
//! and `metrics.json` modulo the `timing` key. Finished points replay
//! from the stage cache, so the rerun reuses the killed run's work.
//! `runlog.csv` carries wall-clock telemetry and is outside the contract
//! (DESIGN §7, §12, §14.4).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");
const FFET: &str = env!("CARGO_BIN_EXE_ffet");

/// Experiment count of `repro all` — one CSV each.
const ALL_EXPERIMENTS: usize = ffet_core::experiments::EXPERIMENTS.len();

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffet-crash-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A `repro` invocation on the fast counter design, isolated in `dir`,
/// with the stage cache at its default (on, under `results/ckpt/objects`).
fn repro(dir: &Path, args: &[&str]) -> Command {
    let mut cmd = Command::new(REPRO);
    cmd.current_dir(dir)
        .args(args)
        .env("FFET_DESIGN", "counter")
        .env_remove("FFET_FAULTS")
        .env_remove("FFET_MAX_ATTEMPTS")
        .env_remove("FFET_DEADLINE")
        .env_remove("FFET_JOBS")
        .env_remove("FFET_ROUTE_JOBS")
        .env_remove("FFET_STAGE_CACHE")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}

fn run_ok(mut cmd: Command, what: &str) {
    let status = cmd
        .status()
        .unwrap_or_else(|e| panic!("{what}: spawn failed: {e}"));
    assert!(status.success(), "{what}: exited with {status}");
}

/// An experiment's table CSV; `runlog.csv` is wall-clock telemetry.
fn is_experiment_csv(name: &str) -> bool {
    name.ends_with(".csv") && name != "runlog.csv"
}

/// Counts the experiment CSVs published so far (atomic writes: a CSV is
/// either absent or complete; `runlog.csv` is written only at the end).
fn experiment_csvs(dir: &Path) -> usize {
    std::fs::read_dir(dir.join("results")).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter(|e| is_experiment_csv(&e.file_name().to_string_lossy()))
            .count()
    })
}

/// Runs `ffet cache <verb>` on `dir`'s stage cache; returns its stdout.
fn ffet_cache(dir: &Path, verb: &str) -> String {
    let root = dir.join("results/ckpt/objects");
    let out = Command::new(FFET)
        .args(["cache", verb, "--root"])
        .arg(&root)
        .env_remove("FFET_FAULTS")
        .output()
        .unwrap_or_else(|e| panic!("spawn ffet cache {verb}: {e}"));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "ffet cache {verb} exited with {}: {stdout}{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The integer printed right before `unit` in `ffet cache gc`'s summary
/// (`removed 0 blob(s) (0 byte(s)), 0 link(s), …`).
fn count_before(summary: &str, unit: &str) -> usize {
    let head = &summary[..summary
        .find(unit)
        .unwrap_or_else(|| panic!("no {unit:?} in {summary:?}"))];
    head.split_whitespace()
        .last()
        .and_then(|n| n.trim_start_matches('(').parse().ok())
        .unwrap_or_else(|| panic!("no count before {unit:?} in {summary:?}"))
}

/// Sum of the stage-cache hit counters in `metrics.json`'s `timing.cache`.
fn cache_hits(dir: &Path) -> i64 {
    let text =
        std::fs::read_to_string(dir.join("results/metrics.json")).expect("read metrics.json");
    let json = ffet_obs::parse_json(&text).expect("valid metrics.json");
    match json.get("timing").and_then(|t| t.get("cache")) {
        Some(ffet_obs::Json::Obj(pairs)) => pairs
            .iter()
            .filter(|(k, _)| k.starts_with("cache.hit."))
            .filter_map(|(_, v)| v.as_i64())
            .sum(),
        _ => 0,
    }
}

/// Every artifact under the byte-identity contract: the experiment CSVs.
/// `runlog.csv` (wall clock) is excluded; `metrics.json` and
/// `trace.jsonl` are checked separately (timing data is outside §7).
fn contract_artifacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let results = dir.join("results");
    for entry in std::fs::read_dir(&results).expect("read results dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if is_experiment_csv(&name) {
            out.insert(name, std::fs::read(entry.path()).expect("read artifact"));
        }
    }
    out
}

fn assert_bytes_identical(reference: &Path, rerun: &Path, what: &str) {
    let want = contract_artifacts(reference);
    let got = contract_artifacts(rerun);
    assert_eq!(
        want.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "{what}: artifact sets differ"
    );
    for (name, bytes) in &want {
        assert_eq!(
            bytes, &got[name],
            "{what}: results/{name} diverged from the uninterrupted run"
        );
    }
    // Metric values are deterministic; only the top-level `timing` key may
    // differ between runs.
    let strip = |dir: &Path| {
        let text =
            std::fs::read_to_string(dir.join("results/metrics.json")).expect("read metrics.json");
        ffet_obs::strip_timing(&text).expect("valid metrics.json")
    };
    assert_eq!(strip(reference), strip(rerun), "{what}: metrics diverged");
    // Span lines carry wall-clock timings, so a recomputed experiment's
    // trace bytes legitimately differ from a separate reference run's.
    // The structural comparator (`ffet_obs::trace::diff`) checks exactly
    // the deterministic part: point order, span trees, metric snapshots.
    let trace = |dir: &Path| {
        let text =
            std::fs::read_to_string(dir.join("results/trace.jsonl")).expect("read trace.jsonl");
        ffet_obs::validate_trace(&text).expect("trace schema is valid");
        text
    };
    let diffs =
        ffet_obs::trace::diff::diff_traces(&trace(reference), &trace(rerun)).expect("traces parse");
    assert!(
        diffs.is_empty(),
        "{what}: traces structurally diverged:\n{}",
        diffs.join("\n")
    );
}

/// Runs `repro --jobs <kill_jobs> all`, SIGKILLs it once four experiment
/// CSVs exist, checks the stage cache it left behind, then reruns the same
/// sweep with `--jobs <rerun_jobs>` and no other change.
fn kill_and_rerun(tag: &str, kill_jobs: &str, rerun_jobs: &str) {
    let reference = scratch(&format!("{tag}-ref"));
    run_ok(
        repro(&reference, &["--jobs", "4", "all"]),
        "uninterrupted reference run",
    );
    assert_eq!(experiment_csvs(&reference), ALL_EXPERIMENTS);

    let victim = scratch(&format!("{tag}-victim"));
    let mut child = repro(&victim, &["--jobs", kill_jobs, "all"])
        .spawn()
        .expect("spawn victim run");
    // Kill after the first flow experiment (fig8, after three analytic
    // tables) has finished but (on any plausible machine) well before the
    // sweep does.
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if experiment_csvs(&victim) >= 4 || child.try_wait().expect("try_wait").is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "victim published no CSVs");
        std::thread::sleep(Duration::from_millis(5));
    }
    let killed_mid_sweep = child.try_wait().expect("try_wait").is_none();
    child.kill().expect("SIGKILL victim");
    let _ = child.wait();
    assert!(
        killed_mid_sweep,
        "sweep finished before the kill; lower the CSV threshold"
    );
    let published_at_kill = experiment_csvs(&victim);
    assert!(
        (4..ALL_EXPERIMENTS).contains(&published_at_kill),
        "kill raced publishing: {published_at_kill} CSVs"
    );

    // The kill left no corrupt blob and no dangling link: every blob and
    // every link is published by rename, blob first. A kill between the
    // two renames leaves at most one unlinked (never looked-up) blob per
    // worker, which gc may reclaim; it may also remove `*.tmp` orphans.
    ffet_cache(&victim, "verify");
    let gc = ffet_cache(&victim, "gc");
    assert_eq!(count_before(&gc, "link(s)"), 0, "gc removed links: {gc}");
    let workers: usize = kill_jobs.parse().expect("numeric --jobs");
    assert!(
        count_before(&gc, "blob(s) (") <= workers,
        "gc removed more blobs than stores could be in flight: {gc}"
    );

    run_ok(
        repro(&victim, &["--jobs", rerun_jobs, "all"]),
        "rerun after the kill",
    );
    assert!(
        cache_hits(&victim) > 0,
        "the rerun recomputed everything instead of replaying the killed run's stages"
    );
    assert_bytes_identical(&reference, &victim, tag);

    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&victim);
}

#[test]
fn kill_and_resume_is_byte_identical_across_widths() {
    // Kill a wide run, rerun narrow: also proves stages cached under
    // FFET_JOBS=4 replay under FFET_JOBS=1.
    kill_and_rerun("wide-narrow", "4", "1");
}

/// The mirror-image width pairing; CI runs it via `--include-ignored`.
#[test]
#[ignore = "slow second kill-rerun cycle; CI runs it with --include-ignored"]
fn kill_and_resume_narrow_to_wide() {
    kill_and_rerun("narrow-wide", "1", "4");
}
