//! Benchmark harness for the FFET evaluation framework.
//!
//! The `repro` binary regenerates every table and figure of the paper;
//! the benches under `benches/` measure the flow stages and the headline
//! experiments on a small self-contained timing harness ([`BenchGroup`]),
//! so `cargo bench` needs no external crates or registry access. See
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record.

use std::path::PathBuf;
use std::time::{Duration, Instant};

pub mod cli;

/// A named group of timed kernels. Each kernel is warmed up once, then run
/// `sample_size` times; min / median / max wall-clock times are printed in
/// a fixed-width table line per kernel, and every leg's median is retained
/// so [`BenchGroup::finish`] can hand them to the performance ledger.
///
/// ```
/// let mut g = ffet_bench::BenchGroup::new("example");
/// g.sample_size(5);
/// g.bench_function("sum", || (0..1000u64).sum::<u64>());
/// let legs = g.finish();
/// assert_eq!(legs[0].0, "example/sum");
/// ```
pub struct BenchGroup {
    name: String,
    samples: usize,
    legs: Vec<(String, f64)>,
}

impl BenchGroup {
    /// Creates a group; kernel lines are prefixed with `name/`.
    #[must_use]
    pub fn new(name: &str) -> BenchGroup {
        BenchGroup {
            name: name.to_owned(),
            samples: 10,
            legs: Vec::new(),
        }
    }

    /// Sets how many timed samples each kernel runs (after one warm-up).
    pub fn sample_size(&mut self, samples: usize) {
        assert!(samples > 0, "sample size must be positive");
        self.samples = samples;
    }

    /// Times `f`: one warm-up call, then `sample_size` measured calls.
    /// The return value is passed through [`std::hint::black_box`] so the
    /// optimizer cannot delete the work.
    pub fn bench_function<T, F: FnMut() -> T>(&mut self, label: &str, f: F) {
        let _ = self.bench_function_timed(label, f);
    }

    /// [`Self::bench_function`], returning the median sample so callers can
    /// derive speedups or persist machine-readable results (for example
    /// `route_kernel`'s `BENCH_route.json`).
    // The timing table IS the bench harness's output, like the repro CLI's
    // tables; there is no flow collector installed under `cargo bench`.
    #[allow(clippy::print_stdout)]
    pub fn bench_function_timed<T, F: FnMut() -> T>(&mut self, label: &str, mut f: F) -> Duration {
        std::hint::black_box(f());
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(f());
                t0.elapsed()
            })
            .collect();
        times.sort_unstable();
        let median = times[times.len() / 2];
        let leg = format!("{}/{}", self.name, label);
        println!(
            "{leg:<48} min {:>12}  median {:>12}  max {:>12}  ({} samples)",
            format_duration(times[0]),
            format_duration(median),
            format_duration(*times.last().expect("samples > 0")),
            self.samples,
        );
        self.legs.push((leg, median.as_secs_f64() * 1e3));
        median
    }

    /// Ends the group (prints a separating blank line) and returns every
    /// leg's `(group/label, median_ms)` pair in bench order, ready for
    /// [`append_bench_ledger`].
    #[allow(clippy::print_stdout)] // bench-harness output, see bench_function
    pub fn finish(self) -> Vec<(String, f64)> {
        println!();
        self.legs
    }
}

/// The workspace-root `results/` directory, overridable with
/// `FFET_RESULTS_DIR` (tests point it at a scratch directory).
#[must_use]
pub fn results_dir() -> PathBuf {
    std::env::var_os("FFET_RESULTS_DIR").map_or_else(
        || {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("results")
        },
        PathBuf::from,
    )
}

/// Appends one `kind:"bench"` record to the cross-run performance ledger
/// (`results/ledger/ledger.jsonl`, DESIGN §13) for a finished bench
/// harness: the leg medians land under the nondeterministic `timing` key.
/// Errors degrade observability, never the bench — they go to stderr.
#[allow(clippy::print_stderr)] // bench-harness diagnostics, like BenchGroup
pub fn append_bench_ledger(key: &str, legs: Vec<(String, f64)>, wall: Duration) {
    // Benches carry no flow metric snapshot; the digest is the hash of the
    // empty snapshot so bench entries compare clean against each other.
    let empty = ffet_obs::MetricsSnapshot::default();
    let digest = ffet_obs::hash_hex(ffet_obs::fnv1a64(empty.to_json().render().as_bytes()));
    let cfg = ffet_obs::hash_hex(ffet_obs::fnv1a64(format!("bench-v1|{key}").as_bytes()));
    let mut entry = ffet_obs::LedgerEntry::from_metrics("bench", key, "", &cfg, &digest, &empty);
    entry.timing.jobs = 1;
    entry.timing.route_jobs = 1;
    entry.timing.host_cores = std::thread::available_parallelism().map_or(1, |n| n.get() as i64);
    entry.timing.wall_ms = wall.as_secs_f64() * 1e3;
    entry.timing.bench = legs;
    let path = results_dir().join("ledger").join("ledger.jsonl");
    if let Err(e) = ffet_obs::Ledger::append(&path, &entry) {
        eprintln!("{key}: could not append to {}: {e}", path.display());
    }
}

/// Human-readable duration with an adaptive unit (ns / µs / ms / s).
#[must_use]
pub fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_duration_picks_unit() {
        assert_eq!(format_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(format_duration(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00 s");
    }

    #[test]
    fn bench_group_runs_kernel_expected_times() {
        let mut calls = 0u32;
        let mut g = BenchGroup::new("test");
        g.sample_size(3);
        g.bench_function("count_calls", || calls += 1);
        g.finish();
        // One warm-up + three samples.
        assert_eq!(calls, 4);
    }
}
