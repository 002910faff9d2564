//! ```text
//! ffet-sweepbench --workload fig9_ladder|fig11_dualside|fig9_warm
//!                 --seconds S [--seed N] [--trace 0|1]
//! ```
//!
//! Run from the root of the repository. A run measures whole sweeps until
//! `--seconds` have passed, and at least one. Prints a metric table, then one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when
//! an output is wrong, 2 on a usage or environment error.

#![allow(clippy::print_stdout, clippy::print_stderr)]

use ffet_core::experiments::DesignKind;
use ffet_sweepbench::bench::{self, Args};
use ffet_sweepbench::workload::{Workload, REFERENCE_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: ffet-sweepbench --workload fig9_ladder|fig11_dualside|fig9_warm \
--seconds S [--seed N] [--trace 0|1]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = REFERENCE_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        design: DesignKind::Rv32,
        work: PathBuf::from("sweepbench/work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
        reference: Args::default_reference(workload, seed, DesignKind::Rv32),
    })
}

fn main() -> ExitCode {
    // `FlowConfig::baseline` reads FFET_* variables; the workload must not
    // depend on the caller's environment.
    let leaked: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FFET_"))
        .collect();
    if !leaked.is_empty() {
        eprintln!(
            "refusing to run with {} set: unset every FFET_* variable",
            leaked.join(", ")
        );
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!(
        "workload {} seed {} design {:?} trace {} host_cores {cores} pool_width {}",
        args.workload.name(),
        args.seed,
        args.design,
        u8::from(args.trace),
        ffet_sweepbench::workload::POOL_WIDTH,
    );
    let outcome = match bench::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &outcome.point_lines {
        println!("{line}");
    }
    for p in &outcome.problems {
        eprintln!("MISMATCH {p}");
    }
    println!(
        "sweeps {} points_invalid {} (count) ppa_digest {:016x}",
        outcome.sweeps, outcome.points_invalid, outcome.digest
    );
    if outcome.point_samples > 0 {
        println!(
            "point wall: {} samples, slowest {:.1} ms",
            outcome.point_samples, outcome.point_max_ms
        );
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<28} {value:>14.4} {unit}");
    }
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
