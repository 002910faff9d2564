//! `ffet`: the cross-run observability CLI — regression sentinel over the
//! performance ledger, plus trace export/diff tooling (DESIGN §13).
//!
//! ```text
//! ffet perf compare [--ledger PATH] [--baseline N] [--band PCT] [--timings-report-only]
//! ffet perf report  [--ledger PATH] [--out PATH]
//! ffet trace export <point> [--trace PATH] [--out PATH]
//! ffet trace diff   <point> [--against POINT] [--trace PATH] [--against-trace PATH]
//! ffet cache stats  [--root PATH]
//! ffet cache verify [--root PATH]
//! ffet cache gc     [--root PATH]
//! ```
//!
//! `perf compare` matches the latest ledger entry of every
//! `(kind, key, design)` group against its `--baseline`-th prior
//! same-config entry and exits 0 (clean), 1 (counter/gauge/digest drift —
//! always fatal — or a timing outside the ±`--band`% noise band unless
//! `--timings-report-only`), or 2 (nothing to compare). `perf report`
//! renders the deterministic markdown trajectory into
//! `results/PERF_REPORT.md`. `trace export` renders one point of
//! `results/trace.jsonl` as Chrome trace-event JSON for
//! `chrome://tracing`/Perfetto; `trace diff` structurally compares two
//! points (span tree + metrics, wall-clock timings excluded) and exits
//! non-zero when they differ.
//!
//! `cache stats` sizes the content-addressed stage cache (DESIGN §14):
//! blob/link counts, total and per-stage bytes, unattributed blobs and
//! crashed-writer temp files. `cache verify` re-hashes every blob and
//! resolves every key link, exiting non-zero when anything is poisoned or
//! dangling. `cache gc` removes everything unreachable or invalid
//! (poisoned blobs, unreferenced blobs, dangling links, orphan temps) and
//! rewrites the size manifest to cover only survivors.

// The ffet binary is a user-facing CLI: stdout/stderr are its output
// channel, like the repro binary.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use ffet_obs::{diff, export, ledger::Ledger, perf};
use std::path::Path;

const DEFAULT_LEDGER: &str = "results/ledger/ledger.jsonl";
const DEFAULT_TRACE: &str = "results/trace.jsonl";
const DEFAULT_REPORT: &str = "results/PERF_REPORT.md";
const DEFAULT_CACHE_ROOT: &str = "results/ckpt/objects";

fn usage() -> ! {
    eprintln!(
        "usage: ffet perf compare [--ledger PATH] [--baseline N] [--band PCT] [--timings-report-only]\n\
         \x20      ffet perf report  [--ledger PATH] [--out PATH]\n\
         \x20      ffet trace export <point> [--trace PATH] [--out PATH]\n\
         \x20      ffet trace diff   <point> [--against POINT] [--trace PATH] [--against-trace PATH]\n\
         \x20      ffet cache <stats|verify|gc> [--root PATH]"
    );
    std::process::exit(2);
}

/// Simple flag/positional splitter: `flags` maps `--name` to its value,
/// everything else lands in `positional` in order.
fn parse_args(args: &[String], flag_names: &[&str], bare_flags: &[&str]) -> ParsedArgs {
    let mut parsed = ParsedArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if bare_flags.contains(&arg.as_str()) {
            parsed.bare.push(arg.clone());
        } else if flag_names.contains(&arg.as_str()) {
            match it.next() {
                Some(value) => parsed.flags.push((arg.clone(), value.clone())),
                None => usage(),
            }
        } else if arg.starts_with('-') {
            usage();
        } else {
            parsed.positional.push(arg.clone());
        }
    }
    parsed
}

#[derive(Default)]
struct ParsedArgs {
    flags: Vec<(String, String)>,
    bare: Vec<String>,
    positional: Vec<String>,
}

impl ParsedArgs {
    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
    fn has(&self, name: &str) -> bool {
        self.bare.iter().any(|b| b == name)
    }
}

fn load_ledger(path: &str) -> Result<Ledger, i32> {
    match Ledger::load(Path::new(path)) {
        Ok(ledger) => {
            if ledger.torn + ledger.corrupt > 0 {
                eprintln!(
                    "ledger: skipped {} torn + {} corrupt line(s) in {path}",
                    ledger.torn, ledger.corrupt
                );
            }
            Ok(ledger)
        }
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            Err(2)
        }
    }
}

fn perf_compare(args: &ParsedArgs) -> i32 {
    let ledger_path = args.flag("--ledger").unwrap_or(DEFAULT_LEDGER);
    let ledger = match load_ledger(ledger_path) {
        Ok(l) => l,
        Err(code) => return code,
    };
    if ledger.entries.is_empty() {
        eprintln!("error: {ledger_path} has no entries (run `repro` or a bench first)");
        return 2;
    }
    let n_back = match args.flag("--baseline") {
        None => 1,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("error: --baseline takes an N-back count >= 1, got {v:?}");
                return 2;
            }
        },
    };
    let policy = match args.flag("--band") {
        None => perf::NoisePolicy::default(),
        Some(v) => match v.parse::<f64>() {
            Ok(pct) if pct.is_finite() && pct >= 0.0 => perf::NoisePolicy {
                timing_band_pct: pct,
            },
            _ => {
                eprintln!("error: --band takes a non-negative percentage, got {v:?}");
                return 2;
            }
        },
    };
    let report_only = args.has("--timings-report-only");
    let outcome = perf::compare_ledger(&ledger, n_back, &policy);
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for soft in &outcome.soft {
        println!("{}: {soft}", if report_only { "timing" } else { "FAIL" });
    }
    for hard in &outcome.hard {
        println!("FAIL: {hard}");
    }
    let code = perf::exit_code(&outcome, report_only);
    println!(
        "perf compare: {} group(s) checked, {} hard, {} timing flag(s) -> exit {code}",
        outcome.checked,
        outcome.hard.len(),
        outcome.soft.len(),
    );
    code
}

fn perf_report(args: &ParsedArgs) -> i32 {
    let ledger_path = args.flag("--ledger").unwrap_or(DEFAULT_LEDGER);
    let out_path = args.flag("--out").unwrap_or(DEFAULT_REPORT);
    let ledger = match load_ledger(ledger_path) {
        Ok(l) => l,
        Err(code) => return code,
    };
    let report = perf::render_report(&ledger);
    print!("{report}");
    if let Err(e) = ffet_core::ckpt::atomic_write(Path::new(out_path), report.as_bytes()) {
        eprintln!("error: could not write {out_path}: {e}");
        return 2;
    }
    eprintln!("wrote {out_path}");
    0
}

/// Resolves `query` against the trace's point labels: an exact label or
/// any unique substring of one.
fn resolve_point(text: &str, query: &str) -> Result<String, String> {
    let labels = ffet_obs::point_labels(text);
    if labels.iter().any(|l| l == query) {
        return Ok(query.to_owned());
    }
    let matches: Vec<&String> = labels.iter().filter(|l| l.contains(query)).collect();
    match matches.as_slice() {
        [one] => Ok((*one).clone()),
        [] => Err(format!(
            "no point matching {query:?}; available: {}",
            labels.join(", ")
        )),
        many => Err(format!(
            "{query:?} is ambiguous; it matches: {}",
            many.iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

fn read_trace(path: &str) -> Result<String, i32> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(text),
        Err(e) => {
            eprintln!("error: cannot read {path}: {e} (run a flow experiment first)");
            Err(2)
        }
    }
}

fn trace_export(args: &ParsedArgs) -> i32 {
    let Some(query) = args.positional.first() else {
        usage();
    };
    let trace_path = args.flag("--trace").unwrap_or(DEFAULT_TRACE);
    let text = match read_trace(trace_path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let label = match resolve_point(&text, query) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let point = match ffet_obs::parse_point(&text, &label) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let doc = export::chrome_trace(&label, &point);
    // Self-check: never emit a document the viewer (or our validator)
    // would reject.
    if let Err(e) = export::validate_chrome_trace(&doc) {
        eprintln!("error: internal: export failed validation: {e}");
        return 2;
    }
    match args.flag("--out") {
        None => print!("{doc}"),
        Some(out) => {
            if let Err(e) = ffet_core::ckpt::atomic_write(Path::new(out), doc.as_bytes()) {
                eprintln!("error: could not write {out}: {e}");
                return 2;
            }
            eprintln!("wrote {out} (load it in chrome://tracing or ui.perfetto.dev)");
        }
    }
    0
}

fn trace_diff(args: &ParsedArgs) -> i32 {
    let Some(query) = args.positional.first() else {
        usage();
    };
    let trace_path = args.flag("--trace").unwrap_or(DEFAULT_TRACE);
    let against_path = args.flag("--against-trace").unwrap_or(trace_path);
    let text = match read_trace(trace_path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let against_text = if against_path == trace_path {
        text.clone()
    } else {
        match read_trace(against_path) {
            Ok(t) => t,
            Err(code) => return code,
        }
    };
    let resolve = |text: &str, q: &str| match resolve_point(text, q) {
        Ok(l) => Ok(l),
        Err(e) => {
            eprintln!("error: {e}");
            Err(1)
        }
    };
    let label = match resolve(&text, query) {
        Ok(l) => l,
        Err(code) => return code,
    };
    let against_label = match args.flag("--against") {
        Some(q) => match resolve(&against_text, q) {
            Ok(l) => l,
            Err(code) => return code,
        },
        None => match resolve(&against_text, &label) {
            Ok(l) => l,
            Err(code) => return code,
        },
    };
    let parse = |text: &str, label: &str| match ffet_obs::parse_point(text, label) {
        Ok(p) => Ok(p),
        Err(e) => {
            eprintln!("error: {e}");
            Err(1)
        }
    };
    let a = match parse(&text, &label) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let b = match parse(&against_text, &against_label) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let diffs = diff::diff_points(&a, &b);
    for line in &diffs {
        println!("{line}");
    }
    if diffs.is_empty() {
        println!("trace diff: {label:?} vs {against_label:?}: structurally identical");
        0
    } else {
        println!(
            "trace diff: {label:?} vs {against_label:?}: {} structural difference(s)",
            diffs.len()
        );
        1
    }
}

/// `ffet cache stats|verify|gc`: size accounting, integrity check, and
/// orphan sweep over the content-addressed stage cache (DESIGN §14).
fn cache_cmd(verb: &str, args: &ParsedArgs) -> i32 {
    use ffet_core::stagecache;
    let root = Path::new(args.flag("--root").unwrap_or(DEFAULT_CACHE_ROOT));
    match verb {
        "stats" => match stagecache::stats(root) {
            Ok(s) => {
                println!(
                    "stage cache at {}: {} blob(s), {} byte(s), {} link(s)",
                    root.display(),
                    s.blobs,
                    s.blob_bytes,
                    s.links
                );
                for (stage, (count, bytes)) in &s.per_stage {
                    println!("  {stage:8} {count:6} blob(s)  {bytes:10} byte(s)");
                }
                if s.unattributed > 0 {
                    println!(
                        "  {} blob(s) unattributed (no manifest record)",
                        s.unattributed
                    );
                }
                if s.tmp_orphans > 0 {
                    println!(
                        "  {} orphan tmp file(s) (run `ffet cache gc`)",
                        s.tmp_orphans
                    );
                }
                0
            }
            Err(e) => {
                eprintln!("error: cannot scan {}: {e}", root.display());
                2
            }
        },
        "verify" => match stagecache::verify(root) {
            Ok(v) => {
                println!(
                    "stage cache at {}: {} blob(s) verified, {} link(s) ok",
                    root.display(),
                    v.blobs_ok,
                    v.links_ok
                );
                for addr in &v.corrupt {
                    println!("  corrupt blob {addr}");
                }
                if v.dangling > 0 {
                    println!("  {} dangling link(s)", v.dangling);
                }
                i32::from(!v.corrupt.is_empty() || v.dangling > 0)
            }
            Err(e) => {
                eprintln!("error: cannot scan {}: {e}", root.display());
                2
            }
        },
        "gc" => match stagecache::gc(root) {
            Ok(g) => {
                println!(
                    "stage cache at {}: removed {} blob(s) ({} byte(s)), {} link(s), {} tmp file(s); kept {} blob(s)",
                    root.display(),
                    g.removed_blobs,
                    g.freed_bytes,
                    g.removed_links,
                    g.removed_tmp,
                    g.kept_blobs
                );
                0
            }
            Err(e) => {
                eprintln!("error: cannot sweep {}: {e}", root.display());
                2
            }
        },
        _ => usage(),
    }
}

fn main() {
    // Same startup contract as `repro`: a bad `FFET_FAULTS` spec exits 2
    // with the parse message instead of panicking later.
    if let Err(e) = ffet_core::FaultPlan::try_from_env() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match (
        argv.first().map(String::as_str),
        argv.get(1).map(String::as_str),
    ) {
        (Some("perf"), Some("compare")) => perf_compare(&parse_args(
            &argv[2..],
            &["--ledger", "--baseline", "--band"],
            &["--timings-report-only"],
        )),
        (Some("perf"), Some("report")) => {
            perf_report(&parse_args(&argv[2..], &["--ledger", "--out"], &[]))
        }
        (Some("trace"), Some("export")) => {
            trace_export(&parse_args(&argv[2..], &["--trace", "--out"], &[]))
        }
        (Some("trace"), Some("diff")) => trace_diff(&parse_args(
            &argv[2..],
            &["--trace", "--against", "--against-trace"],
            &[],
        )),
        (Some("cache"), Some(verb @ ("stats" | "verify" | "gc"))) => {
            cache_cmd(verb, &parse_args(&argv[2..], &["--root"], &[]))
        }
        _ => usage(),
    };
    std::process::exit(code);
}
