//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro [--jobs N] [--route-jobs N] [--design counter|rv32] [--max-attempts N]
//!       [--deadline SECS] [--no-cache] <experiment>
//!                      # table1 table2 fig4 fig8 fig9 fig10 fig11 table3 fig12 fig13 ablation
//! repro all            # everything
//! repro sanity         # one FFET + one CFET baseline run, printed verbosely
//! repro trace [point]  # render one point of results/trace.jsonl (or list points)
//! ```
//!
//! The run's knobs are parsed once, at startup, into one
//! [`ffet_core::RunEnv`] ([`ffet_bench::cli`]): each flag or, when the flag
//! is absent, its `FFET_*` alias (README has the table). A malformed value
//! is a usage error (exit 2). The experiments come from the one registry
//! [`experiments::EXPERIMENTS`], which also fixes the `all` order.
//!
//! Flow experiments run on the parallel DoE engine; `--jobs` sets the
//! worker count, defaulting to the machine's available parallelism.
//! `--route-jobs` sets the *intra-point* worker count of the router's
//! batched rip-up rounds, defaulting to the pool width. Tables and CSVs are
//! byte-identical for every combination of both worker counts; per-job
//! telemetry lands in `results/runlog.csv`, and every flow point's spans +
//! metrics land in `results/trace.jsonl` and `results/metrics.json` (schema
//! in DESIGN.md §9). `--design counter` switches the flow experiments to
//! the fast CounterSmall smoke design.
//!
//! Every flow point runs through the staged recovery ladder of
//! [`ffet_core::run_flow_resilient`]; `--max-attempts` bounds the attempts
//! per point, and the `FFET_FAULTS` env var injects deterministic faults
//! (see DESIGN.md §8). `--deadline SECS` arms a cooperative per-attempt
//! watchdog whose expiry lands a `timeout(stage)` disposition.
//!
//! Every artifact is written atomically (tmp + rename, DESIGN.md §12).
//! Flow stages are memoized through the content-addressed stage cache
//! (`results/ckpt/objects/`, DESIGN §14): a warm rerun replays unchanged
//! stages byte-identically instead of recomputing them, so a sweep killed
//! mid-run is recovered by rerunning the same command. The cache defaults
//! ON for this driver; `--no-cache` (or `FFET_STAGE_CACHE=0`) disables it,
//! and `FFET_STAGE_CACHE=<dir>` redirects it. Hit/miss/store counters land
//! under the `timing.cache` key of `results/metrics.json` and as
//! `cache_hit_rate_<stage>` pairs in the ledger's `timing.stages`.
//!
//! Every sweep invocation additionally appends one checksummed record to
//! the cross-run performance ledger (`results/ledger/ledger.jsonl`): the
//! timing-stripped metric snapshot and its digest, plus pool widths and
//! wall/stage times under a `timing` key. The `ffet` binary's
//! `perf compare`/`perf report` subcommands consume it — see DESIGN.md §13.

// The repro binary is the user-facing CLI: stdout/stderr are its output
// channel. Library crates must go through ffet-obs instead.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use ffet_bench::cli;
use ffet_core::ckpt;
use ffet_core::experiments::{self, ExpTable};
use ffet_core::runner::RunLog;
use ffet_core::RunEnv;
use ffet_obs::RunArtifacts;
use std::path::Path;
use std::time::Instant;

/// Prints the table and drops its CSV into `results/` for plotting.
/// A failed write is a hard error: silently missing CSVs corrupt every
/// downstream plotting script.
fn emit(name: &str, table: &ExpTable) -> std::io::Result<()> {
    print!("{}", table.render());
    let path = format!("results/{name}.csv");
    ckpt::atomic_write(Path::new(&path), table.to_csv().as_bytes())?;
    eprintln!("wrote {path}");
    Ok(())
}

fn usage() -> ! {
    let names: Vec<&str> = experiments::EXPERIMENTS.iter().map(|&(n, _)| n).collect();
    eprintln!(
        "usage: repro [--jobs N] [--route-jobs N] [--design counter|rv32] [--max-attempts N] \
         [--deadline SECS] [--no-cache] <sanity|{}|all>\n\
         \x20      repro trace [point]   # render one point of results/trace.jsonl",
        names.join("|")
    );
    std::process::exit(2);
}

/// Writes one artifact file under `results/` atomically (tmp + rename),
/// creating the directory first.
fn write_artifact(path: &str, body: &str, failed: &mut bool) {
    match ckpt::atomic_write(Path::new(path), body.as_bytes()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!("error: could not write {path}: {e}");
            *failed = true;
        }
    }
}

/// One performance-ledger record for this invocation (DESIGN §13):
/// deterministic metric snapshot + digest outside `timing`, pool widths
/// and wall/stage times inside it. Appended for every sweep run so
/// `results/ledger/ledger.jsonl` accumulates the cross-run trajectory
/// that `ffet perf compare`/`report` consume.
fn ledger_entry(
    arg: &str,
    run: &RunEnv,
    cfg: &str,
    log: &RunLog,
    artifacts: &RunArtifacts,
) -> ffet_obs::LedgerEntry {
    let metrics_body = artifacts.metrics_json();
    let digest = match ffet_obs::strip_timing(&metrics_body) {
        Ok(stripped) => ffet_obs::hash_hex(ffet_obs::fnv1a64(stripped.as_bytes())),
        Err(e) => {
            eprintln!("warning: could not strip timing for ledger digest: {e}");
            String::new()
        }
    };
    let mut entry = ffet_obs::LedgerEntry::from_metrics(
        "repro",
        arg,
        &format!("{:?}", run.design),
        cfg,
        &digest,
        &artifacts.merged_metrics(),
    );
    entry.timing.jobs = run.jobs as i64;
    entry.timing.route_jobs = run.route_jobs as i64;
    entry.timing.host_cores = std::thread::available_parallelism().map_or(1, |n| n.get() as i64);
    entry.timing.wall_ms = artifacts.wall_ms;
    // Aggregate per-stage wall time across every flow point that reported
    // stage telemetry.
    let mut t = ffet_core::StageTimes::default();
    for stages in log.rows.iter().filter_map(|row| row.stages.as_ref()) {
        t.add(stages);
    }
    entry.timing.stages = [
        ("synth_ms", t.synth_ms),
        ("pnr_ms", t.pnr_ms),
        ("merge_ms", t.merge_ms),
        ("signoff_ms", t.signoff_ms),
        ("rcx_ms", t.rcx_ms),
        ("sta_ms", t.sta_ms),
    ]
    .into_iter()
    .filter(|&(_, total)| total > 0.0)
    .map(|(name, total)| (name.to_owned(), total))
    .collect();
    // Per-stage cache hit-rates ride as named pairs inside `timing.stages`
    // (schema-compatible). Hit/miss counts are scheduling-dependent —
    // racing identical-prefix points may both miss — so they belong with
    // the timings, not the deterministic snapshot (DESIGN §14).
    let count = |kind: &str, stage: &str| -> u64 {
        let key = format!("cache.{kind}.{stage}");
        artifacts
            .cache
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    };
    let (mut total_hits, mut total_misses) = (0u64, 0u64);
    #[allow(clippy::cast_precision_loss)]
    for stage in ["synth", "pnr", "merge", "signoff", "rcx", "sta"] {
        let (hits, misses) = (count("hit", stage), count("miss", stage));
        total_hits += hits;
        total_misses += misses;
        if hits + misses > 0 {
            let rate = hits as f64 / (hits + misses) as f64;
            entry
                .timing
                .stages
                .push((format!("cache_hit_rate_{stage}"), rate));
        }
    }
    if total_hits + total_misses > 0 {
        #[allow(clippy::cast_precision_loss)]
        let rate = total_hits as f64 / (total_hits + total_misses) as f64;
        entry
            .timing
            .stages
            .push(("cache_hit_rate".to_owned(), rate));
    }
    entry
}

/// `repro trace [point]`: renders one point of `results/trace.jsonl` as a
/// per-stage summary (span tree + hottest spans + metrics), or lists the
/// available point labels. `point` may be an exact label or any unique
/// substring of one.
fn trace_cmd(query: Option<&str>) -> i32 {
    let path = "results/trace.jsonl";
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e} (run a flow experiment first)");
            return 1;
        }
    };
    let labels = ffet_obs::point_labels(&text);
    let Some(query) = query else {
        println!("{} point(s) in {path}:", labels.len());
        for label in &labels {
            println!("  {label}");
        }
        return 0;
    };
    let resolved = if labels.iter().any(|l| l == query) {
        query.to_owned()
    } else {
        let matches: Vec<&String> = labels.iter().filter(|l| l.contains(query)).collect();
        match matches.as_slice() {
            [one] => (*one).clone(),
            [] => {
                eprintln!("error: no point matching {query:?}; available points:");
                for label in &labels {
                    eprintln!("  {label}");
                }
                return 1;
            }
            many => {
                eprintln!("error: {query:?} is ambiguous; it matches:");
                for label in many {
                    eprintln!("  {label}");
                }
                return 1;
            }
        }
    };
    match ffet_obs::parse_point(&text, &resolved) {
        Ok(data) => {
            print!(
                "{}",
                ffet_obs::render_point(&resolved, &data.events, &data.metrics)
            );
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn main() {
    let (run, positional) = match cli::parse(std::env::args().skip(1), cli::process_env) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
        }
    };
    let arg = positional.first().cloned().unwrap_or_else(|| "help".into());
    if arg == "trace" {
        std::process::exit(trace_cmd(positional.get(1).map(String::as_str)));
    }
    if positional.len() > 1 {
        usage();
    }

    let t0 = Instant::now();
    let mut log = RunLog::new(run.jobs);
    let mut artifacts = RunArtifacts::new(run.jobs);
    let mut failed = false;
    let selected: Vec<_> = experiments::EXPERIMENTS
        .into_iter()
        .filter(|&(name, _)| arg == "all" || arg == name)
        .collect();
    if selected.is_empty() && arg != "sanity" {
        usage();
    }
    // Only sweep runs are signed and ledgered; `sanity`/`trace` are not.
    let ledger_cfg = (!selected.is_empty()).then(|| ckpt::config_signature(&run));
    if arg == "sanity" {
        sanity(&run);
    }
    for (name, experiment) in selected {
        let t = Instant::now();
        let out = experiment(&run);
        if let Err(e) = emit(name, &out.table) {
            eprintln!("error: could not write results/{name}.csv: {e}");
            failed = true;
        }
        artifacts.extend(out.traces);
        log.record_experiment(name, out.runlog, t.elapsed());
        eprintln!("[{name}: {:?}, {}]", t.elapsed(), log.summary(name));
    }
    // Stage-cache hit/miss/store counts are process-global and depend on
    // prior disk state, so they ride in the stripped `timing` section of
    // metrics.json rather than the deterministic metric plane (DESIGN §14).
    artifacts.cache = ffet_obs::cache_stats();
    if !log.rows.is_empty() {
        write_artifact("results/runlog.csv", &log.to_csv(), &mut failed);
    }
    if !artifacts.is_empty() {
        artifacts.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        write_artifact("results/trace.jsonl", &artifacts.trace_jsonl(), &mut failed);
        write_artifact(
            "results/metrics.json",
            &artifacts.metrics_json(),
            &mut failed,
        );
    }
    // Every sweep invocation appends one record to the cross-run ledger
    // (DESIGN §13). A ledger failure degrades observability, not the run.
    if let Some(cfg) = &ledger_cfg {
        artifacts.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let entry = ledger_entry(&arg, &run, cfg, &log, &artifacts);
        let path = Path::new(ffet_obs::ledger::LEDGER_PATH);
        match ffet_obs::Ledger::append(path, &entry) {
            Ok(()) => eprintln!("appended ledger entry to {}", path.display()),
            Err(e) => eprintln!("warning: could not append to {}: {e}", path.display()),
        }
    }
    eprintln!("[{:?}] done", t0.elapsed());
    if failed {
        std::process::exit(1);
    }
}

/// Three RV32 flows with the run's knobs, printed verbosely.
fn sanity(run: &RunEnv) {
    use ffet_core::{designs, run_flow_resilient, FlowConfig, PointDisposition};
    use ffet_tech::{RoutingPattern, TechKind};

    let (mut clean, mut recovered, mut failed, mut extra) = (0u32, 0u32, 0u32, 0u32);
    for (label, config) in [
        ("CFET FM12 baseline", run.baseline(TechKind::Cfet4t)),
        ("FFET FM12 single-sided", run.baseline(TechKind::Ffet3p5t)),
        (
            "FFET FM12BM12 FP0.5BP0.5",
            FlowConfig {
                pattern: RoutingPattern::new(12, 12).expect("static"),
                back_pin_ratio: 0.5,
                ..run.baseline(TechKind::Ffet3p5t)
            },
        ),
    ] {
        let t = Instant::now();
        let library = config.build_library().expect("valid config");
        let netlist = designs::rv32_core(&library);
        let r = run_flow_resilient(&netlist, &library, &config);
        match r.recovery.disposition {
            PointDisposition::Clean => clean += 1,
            PointDisposition::Recovered(_) => recovered += 1,
            PointDisposition::Failed(_) => failed += 1,
        }
        extra += r.recovery.disposition.extra_attempts();
        match r.outcome {
            Ok(outcome) => {
                println!(
                    "{label}: {} [{}]",
                    outcome.report.summary(),
                    r.recovery.disposition.to_cell()
                );
                println!(
                    "  wl {:.3} mm (back {:.3}), hpwl {:.3} mm, peak cong {:.2}, vias {}, cells {}, [{:?}]",
                    outcome.report.wirelength_mm,
                    outcome.report.back_wirelength_mm,
                    outcome.pnr.placement.hpwl_nm as f64 / 1e6,
                    outcome.pnr.routing.peak_congestion,
                    outcome.report.vias,
                    outcome.report.cells,
                    t.elapsed()
                );
                for line in outcome.signoff.text_table().lines() {
                    println!("  {line}");
                }
            }
            Err(e) => println!(
                "{label}: ERROR after {} attempt(s): {e}",
                r.recovery.attempts
            ),
        }
    }
    println!(
        "recovery: {clean} clean, {recovered} recovered, {failed} failed, {extra} extra attempts"
    );
}
