//! One benchmark run: set-up, the timed sweeps (or the traced sweep), the
//! correctness gate, and the metrics.

use crate::layers::{self, Layers};
use crate::procstat;
use crate::sweep::{point_digest, run_pool, run_sweep, SweepRun};
use crate::walk::walk_point;
use crate::workload::{reference_mismatches, Grid, Workload, POOL_WIDTH, REFERENCE_SEED};
use ffet_core::experiments::DesignKind;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their total.
const SETUP_REPS: usize = 15;

/// A traced point passes the stage-sum check when the walk's stage spans
/// cover its wall time up to this share plus [`UNATTRIBUTED_SLACK_MS`].
const UNATTRIBUTED_SHARE: f64 = 0.02;
const UNATTRIBUTED_SLACK_MS: f64 = 5.0;

/// End-to-end metrics, `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sweep_s", "s"),
    ("point_ms", "ms"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("artifact_mb", "MiB"),
];

/// Per-layer metrics, `(name, unit)`, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("runner.busy_frac", "ratio"),
    ("runner.tail_idle_s", "s"),
    ("recover.attempts", "count"),
    ("recover.retry_s", "s"),
    ("recover.valid_per_attempt", "ratio"),
    ("recover.points_invalid", "count"),
    ("synth.ms", "ms"),
    ("pnr.place_ms", "ms"),
    ("pnr.cts_ms", "ms"),
    ("pnr.other_ms", "ms"),
    ("route.ms", "ms"),
    ("route.rounds", "count"),
    ("route.ripups", "count"),
    ("route.ms_per_round", "ms"),
    ("merge.ms", "ms"),
    ("signoff.ms", "ms"),
    ("rcx.ms", "ms"),
    ("rcx.nets", "count"),
    ("sta.ms", "ms"),
    ("stagecache.hits", "count"),
    ("stagecache.misses", "count"),
    ("stagecache.stores", "count"),
    ("stagecache.hit_rate", "ratio"),
    ("stagecache.store_mb", "MiB"),
    ("stagecache.replay_ms", "ms"),
    ("stagecache.store_ms", "ms"),
    ("obs.trace_mb", "MiB"),
    ("obs.render_ms", "ms"),
];

/// The traced-vs-untraced wall difference; reported with [`PER_LAYER`].
pub const OVERHEAD: (&str, &str) = ("obs.overhead_pct", "%");

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub design: DesignKind,
    /// Scratch directory for caches and artifacts (removed afterwards).
    pub work: PathBuf,
    /// CSV the table must reproduce; `None` skips that gate.
    pub reference: Option<PathBuf>,
}

impl Args {
    /// The checked-in CSV of the workload's figure, relative to the
    /// checkout root, when the RV32 points run at the reference seed.
    #[must_use]
    pub fn default_reference(workload: Workload, seed: u64, design: DesignKind) -> Option<PathBuf> {
        (workload.placement_seed(seed) == REFERENCE_SEED && design == DesignKind::Rv32)
            .then(|| PathBuf::from(workload.figure().reference_csv()))
    }
}

/// A run's result: the fields of the final JSON line plus what the
/// human-readable summary shows.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why `failed` is nonzero (or the gate could not run).
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub sweeps: usize,
    pub points_invalid: u64,
    pub digest: u64,
    /// One line per point of the first sweep: attempts, DRV and wall time.
    pub point_lines: Vec<String>,
    /// How many per-point wall times `point_ms` is the median of.
    pub point_samples: usize,
    /// The slowest of them. With 12 to 30 points a sweep no percentile has
    /// ten samples beyond it, so the tail is printed, not a metric.
    pub point_max_ms: f64,
}

impl Outcome {
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn metric(&mut self, (name, unit): (&'static str, &'static str), value: f64) {
        self.metrics.push((name, value, unit));
    }

    fn fail(&mut self, points: u64, problem: String) {
        self.failed += points;
        self.problems.push(problem);
    }

    /// The final stdout line.
    #[must_use]
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `values`, the mean of the middle two for an even count (0 for
/// none).
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

const MIB: f64 = 1024.0 * 1024.0;

/// Builds the grid's contexts [`SETUP_REPS`] times; returns the last set
/// and the total build time, seconds.
fn set_up(
    grid: &Grid,
) -> std::io::Result<(Vec<(ffet_cells::Library, ffet_netlist::Netlist)>, f64)> {
    let t = Instant::now();
    let mut contexts = Vec::new();
    for _ in 0..SETUP_REPS {
        contexts = grid
            .contexts()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
    }
    Ok((contexts, t.elapsed().as_secs_f64()))
}

/// Checks one sweep: every point produced an outcome, its digests match
/// `expected` (when given), and at the reference seed the table
/// reproduces the checked-in CSV.
fn gate(
    out: &mut Outcome,
    sweep: &SweepRun,
    expected: Option<&(Vec<u64>, String)>,
    reference: Option<&str>,
    what: &str,
) {
    out.attempted += sweep.points.len() as u64;
    let digests: Vec<u64> = sweep
        .points
        .iter()
        .map(|p| point_digest(&p.result))
        .collect();
    let mut bad = vec![false; digests.len()];
    for (i, p) in sweep.points.iter().enumerate() {
        if let Err(e) = &p.result {
            bad[i] = true;
            out.problems.push(format!("{what}: point {i} failed: {e}"));
        }
    }
    if let Some((want, csv)) = expected {
        for (i, (d, w)) in digests.iter().zip(want).enumerate() {
            if d != w {
                bad[i] = true;
                out.problems
                    .push(format!("{what}: point {i} PPA digest differs"));
            }
        }
        if sweep.table.to_csv() != *csv {
            out.problems
                .push(format!("{what}: table differs byte-wise"));
        }
    }
    if let Some(reference) = reference {
        let mismatches = reference_mismatches(&sweep.table, reference);
        out.failed += mismatches.len() as u64;
        out.problems
            .extend(mismatches.into_iter().map(|m| format!("{what}: {m}")));
    }
    out.failed += bad.iter().filter(|&&b| b).count() as u64;
}

fn fingerprint(sweep: &SweepRun) -> (Vec<u64>, String) {
    (
        sweep
            .points
            .iter()
            .map(|p| point_digest(&p.result))
            .collect(),
        sweep.table.to_csv(),
    )
}

/// Runs the benchmark as `args` asks. I/O failures of the benchmark's own
/// scratch files are errors; everything the flow gets wrong is counted in
/// the returned [`Outcome`].
///
/// # Errors
///
/// Scratch-directory or artifact I/O failures, an unreadable reference
/// CSV, or a grid whose libraries do not build.
pub fn run(args: &Args) -> std::io::Result<Outcome> {
    let _ = std::fs::remove_dir_all(&args.work);
    std::fs::create_dir_all(&args.work)?;
    let result = run_in(args);
    let _ = std::fs::remove_dir_all(&args.work);
    result
}

fn run_in(args: &Args) -> std::io::Result<Outcome> {
    let reference = match &args.reference {
        Some(path) => Some(
            std::fs::read_to_string(path)
                .map_err(|e| std::io::Error::other(format!("reference {}: {e}", path.display())))?,
        ),
        None => None,
    };
    let grid = args.workload.grid(args.design, args.seed);
    let (contexts, mut setup_s) = set_up(&grid)?;
    let mut out = Outcome::default();

    // The warm workload's set-up fills its cache with one cold sweep; the
    // timed sweeps must reproduce that sweep exactly.
    let warm_cache = args.work.join("warm-cache");
    let mut expected = None;
    if args.workload.warm() {
        let fill = run_sweep(&grid, &contexts, Some(&warm_cache), &args.work.join("fill"))?;
        std::fs::remove_dir_all(args.work.join("fill"))?;
        setup_s += fill.wall_s;
        gate(&mut out, &fill, None, reference.as_deref(), "cold fill");
        expected = Some(fingerprint(&fill));
    }
    // `peak_rss_mb` covers the timed sweeps, not set-up or the cold fill.
    procstat::reset_peak_rss()?;
    let cache_for = |dir: &Path| {
        if args.workload.warm() {
            warm_cache.clone()
        } else {
            dir.join("cache")
        }
    };

    if args.trace {
        traced(
            args,
            &grid,
            &contexts,
            &cache_for,
            expected,
            reference.as_deref(),
            &mut out,
        )?;
        return Ok(out);
    }

    let (mut walls, mut cpus, mut bytes, mut point_ms) = (vec![], vec![], vec![], vec![]);
    let t0 = Instant::now();
    loop {
        let dir = args.work.join(format!("sweep{}", out.sweeps));
        let sweep = run_sweep(&grid, &contexts, Some(&cache_for(&dir)), &dir)?;
        std::fs::remove_dir_all(&dir)?;
        let what = format!("sweep {}", out.sweeps);
        let reference = if out.sweeps == 0 {
            reference.as_deref()
        } else {
            None
        };
        gate(&mut out, &sweep, expected.as_ref(), reference, &what);
        if expected.is_none() {
            expected = Some(fingerprint(&sweep));
        }
        out.points_invalid = count_invalid(&sweep);
        if out.sweeps == 0 {
            out.point_lines = describe(&grid, &sweep);
        }
        walls.push(sweep.wall_s);
        cpus.push(sweep.cpu_s);
        bytes.push(sweep.artifact_bytes as f64 / MIB);
        point_ms.extend(sweep.points.iter().map(crate::sweep::PointRun::wall_ms));
        out.sweeps += 1;
        if t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    out.digest = expected.map_or(0, |(d, _)| ffet_obs::fnv1a64(format!("{d:?}").as_bytes()));
    out.point_samples = point_ms.len();
    out.point_max_ms = point_ms.iter().copied().fold(0.0, f64::max);
    let values = [
        median(&walls),
        median(&point_ms),
        median(&cpus),
        setup_s,
        procstat::peak_rss_mb(),
        median(&bytes),
    ];
    for (m, v) in END_TO_END.into_iter().zip(values) {
        out.metric(m, v);
    }
    Ok(out)
}

fn describe(grid: &Grid, sweep: &SweepRun) -> Vec<String> {
    grid.points
        .iter()
        .zip(&sweep.points)
        .map(|(p, r)| {
            let outcome = match &r.result {
                Ok((report, rec)) => format!("{} drv {}", rec.disposition.to_cell(), report.drv),
                Err(e) => format!("error: {e}"),
            };
            format!(
                "point {:<34} attempts {} {outcome} wall_ms {:.0}",
                p.label,
                r.log.attempts.len(),
                r.wall_ms()
            )
        })
        .collect()
}

fn count_invalid(sweep: &SweepRun) -> u64 {
    sweep
        .points
        .iter()
        .filter(|p| !matches!(&p.result, Ok((r, _)) if r.valid))
        .count() as u64
}

/// The traced run: one untraced sweep (the baseline for the overhead and
/// the reference outcome), then the stage walk of every point under the
/// same pool, attributed layer by layer.
fn traced(
    args: &Args,
    grid: &Grid,
    contexts: &[(ffet_cells::Library, ffet_netlist::Netlist)],
    cache_for: &dyn Fn(&Path) -> PathBuf,
    expected: Option<(Vec<u64>, String)>,
    reference: Option<&str>,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let dir = args.work.join("untraced");
    let base = run_sweep(grid, contexts, Some(&cache_for(&dir)), &dir)?;
    std::fs::remove_dir_all(&dir)?;
    gate(out, &base, expected.as_ref(), reference, "untraced sweep");
    out.sweeps = 1;
    out.points_invalid = count_invalid(&base);
    out.point_lines = describe(grid, &base);
    out.digest = ffet_obs::fnv1a64(format!("{:?}", fingerprint(&base).0).as_bytes());

    let walk_dir = args.work.join("walk");
    let walk_cache = cache_for(&walk_dir);
    let cache_before = procstat::dir_bytes(&walk_cache);
    ffet_obs::cache_stats_reset();
    let configs = grid.with_cache(Some(walk_cache.clone()));
    let (walked, walk_s) = run_pool(contexts, grid, &configs, walk_point);
    let stores: u64 = ffet_obs::cache_stats()
        .iter()
        .filter(|(k, _)| k.starts_with("cache.store."))
        .map(|(_, v)| v)
        .sum();
    let store_mb = procstat::dir_bytes(&walk_cache).saturating_sub(cache_before) as f64 / MIB;
    let _ = std::fs::remove_dir_all(&walk_dir);

    // Cross-check every point against `run_flow_resilient`, and check that
    // the stage spans account for the point's wall time.
    let mut layers = Layers::default();
    let mut nets = 0;
    out.attempted += walked.len() as u64;
    for (i, ((w, (start, end), trace), b)) in walked.iter().zip(&base.points).enumerate() {
        layers.add_point(trace);
        nets += w.nets;
        let same = match (&w.result, &b.result) {
            (Ok(a), Ok(b)) => a == b,
            (Err(_), Err(_)) => true,
            _ => false,
        };
        let wall_ms = (end - start) * 1e3;
        let unattributed = wall_ms - layers::accounted_ms(trace);
        if !same {
            out.fail(
                1,
                format!("traced point {i}: stage walk reached a different PPA report"),
            );
        } else if unattributed > UNATTRIBUTED_SHARE * wall_ms + UNATTRIBUTED_SLACK_MS {
            out.fail(
                1,
                format!(
                    "traced point {i}: {unattributed:.1} of {wall_ms:.1} ms outside stage spans"
                ),
            );
        }
    }

    let spans: Vec<(f64, f64)> = base.points.iter().map(|p| (p.start_s, p.end_s)).collect();
    let (busy_frac, tail_idle_s) = runner_shape(&spans, base.pool_s);
    let valid = base.points.len() as f64 - out.points_invalid as f64;
    let values = [
        busy_frac,
        tail_idle_s,
        layers.attempts as f64,
        layers.retry_ms / 1e3,
        valid / (layers.attempts.max(1) as f64),
        out.points_invalid as f64,
        layers.synth_ms,
        layers.place_ms,
        layers.cts_ms,
        layers.pnr_other_ms(),
        layers.route_ms,
        layers.route_rounds as f64,
        layers.route_ripups as f64,
        if layers.route_rounds == 0 {
            0.0
        } else {
            layers.route_ms / layers.route_rounds as f64
        },
        layers.merge_ms,
        layers.signoff_ms,
        layers.rcx_ms,
        nets as f64,
        layers.sta_ms,
        layers.cache_hits as f64,
        layers.cache_misses as f64,
        stores as f64,
        layers.hit_rate(),
        store_mb,
        layers.replay_ms,
        layers.store_ms,
        base.trace_bytes as f64 / MIB,
        base.render_ms,
    ];
    for (m, v) in PER_LAYER.into_iter().zip(values) {
        out.metric(m, v);
    }
    out.metric(OVERHEAD, (walk_s - base.pool_s) / base.pool_s * 100.0);
    Ok(())
}

/// Pool utilization from each job's `(start, end)` and the pool's wall
/// time: the busy fraction of `POOL_WIDTH` workers, and the worker-seconds
/// idle at the tail. A work-stealing worker idles for good only once no
/// job is left to start, so the last `POOL_WIDTH` job ends belong to
/// distinct workers.
#[must_use]
pub fn runner_shape(spans: &[(f64, f64)], wall_s: f64) -> (f64, f64) {
    let busy: f64 = spans.iter().map(|(s, e)| e - s).sum();
    let mut ends: Vec<f64> = spans.iter().map(|&(_, e)| e).collect();
    ends.sort_by(|a, b| b.total_cmp(a));
    ends.resize(POOL_WIDTH.max(ends.len()), 0.0);
    let tail_idle = ends[..POOL_WIDTH].iter().map(|e| wall_s - e).sum();
    (busy / (POOL_WIDTH as f64 * wall_s), tail_idle)
}
