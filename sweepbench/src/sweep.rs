//! One untraced sweep: the grid through `runner::Pool` and
//! `run_flow_resilient`, then the table and run artifacts rendered and
//! written the way `repro` writes them.

use crate::procstat;
use crate::workload::{Grid, POOL_WIDTH};
use ffet_cells::Library;
use ffet_core::experiments::ExpTable;
use ffet_core::{ckpt, run_flow_resilient, AttemptLog, FlowConfig, PointRecovery, Pool, PpaReport};
use ffet_netlist::Netlist;
use ffet_obs::{LabeledPoint, PointData, RunArtifacts};
use std::convert::Infallible;
use std::path::Path;
use std::time::Instant;

/// What one point of a sweep produced.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// The final report and recovery summary, or why there was none.
    pub result: Result<(PpaReport, PointRecovery), String>,
    pub log: AttemptLog,
    /// Start and end of the job, seconds since the pool started.
    pub start_s: f64,
    pub end_s: f64,
    /// The job's spans and metrics, as the pool collected them.
    pub trace: PointData,
}

impl PointRun {
    #[must_use]
    pub fn wall_ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1e3
    }
}

/// Timed job start/end, seconds since the pool started.
pub type JobWindow = (f64, f64);

/// Runs every config on a [`POOL_WIDTH`]-wide pool, timing each job from
/// the benchmark side. Returns outcomes in submission order plus the pool's
/// wall time, seconds.
pub fn run_pool<R: Send>(
    contexts: &[(Library, Netlist)],
    grid: &Grid,
    configs: &[FlowConfig],
    job: impl Fn(&Netlist, &Library, &FlowConfig) -> R + Sync,
) -> (Vec<(R, JobWindow, PointData)>, f64) {
    let pool = Pool::new(POOL_WIDTH);
    let jobs: Vec<(usize, &FlowConfig)> =
        grid.points.iter().map(|p| p.group).zip(configs).collect();
    let t0 = Instant::now();
    let outcomes = pool.run(jobs, |&(group, config)| {
        let start = t0.elapsed().as_secs_f64();
        let (library, netlist) = &contexts[group];
        let r = job(netlist, library, config);
        Ok::<_, Infallible>((r, (start, t0.elapsed().as_secs_f64())))
    });
    let wall = t0.elapsed().as_secs_f64();
    let runs = outcomes
        .into_iter()
        .map(|o| match o.result {
            Ok((r, span)) => (r, span, o.trace),
            Err(e) => match e {
                ffet_core::JobError::Failed(never) => match never {},
                ffet_core::JobError::Panicked(m) => panic!("benchmark job panicked: {m}"),
            },
        })
        .collect();
    (runs, wall)
}

/// One sweep's outputs and measurements.
#[derive(Debug, Clone)]
pub struct SweepRun {
    pub points: Vec<PointRun>,
    pub table: ExpTable,
    /// Whole sweep, rendering and writing included.
    pub wall_s: f64,
    /// The pool alone.
    pub pool_s: f64,
    pub cpu_s: f64,
    /// Rendering and writing `trace.jsonl`, `metrics.json` and the CSV.
    pub render_ms: f64,
    pub trace_bytes: u64,
    /// Bytes the sweep left on disk: artifacts plus stage-cache growth.
    pub artifact_bytes: u64,
}

/// Runs the grid once with the stage cache at `cache` (if any) and writes
/// the artifacts into `out` (created; must not exist yet).
///
/// # Errors
///
/// Artifact writes that fail.
pub fn run_sweep(
    grid: &Grid,
    contexts: &[(Library, Netlist)],
    cache: Option<&Path>,
    out: &Path,
) -> std::io::Result<SweepRun> {
    let configs = grid.with_cache(cache.map(Path::to_path_buf));
    let cache_before = cache.map_or(0, procstat::dir_bytes);
    ffet_obs::cache_stats_reset();
    let cpu0 = procstat::cpu_seconds();
    let t0 = Instant::now();
    let (runs, pool_s) = run_pool(contexts, grid, &configs, |netlist, library, config| {
        let r = run_flow_resilient(netlist, library, config);
        let result = r
            .outcome
            .map(|o| (o.report, r.recovery))
            .map_err(|e| e.to_string());
        (result, r.log)
    });
    let points: Vec<PointRun> = runs
        .into_iter()
        .map(|((result, log), (start_s, end_s), trace)| PointRun {
            result,
            log,
            start_s,
            end_s,
            trace,
        })
        .collect();
    let results: Vec<_> = points.iter().map(|p| p.result.clone().ok()).collect();
    let table = grid.table(&results);

    let render0 = Instant::now();
    let mut artifacts = RunArtifacts::new(POOL_WIDTH);
    let prefix = grid.figure.csv_name().trim_end_matches(".csv");
    artifacts.extend(grid.points.iter().zip(&points).map(|(p, r)| LabeledPoint {
        label: format!("{prefix}/{}", p.label),
        data: r.trace.clone(),
    }));
    artifacts.wall_ms = pool_s * 1e3;
    artifacts.cache = ffet_obs::cache_stats();
    let trace = artifacts.trace_jsonl();
    std::fs::create_dir_all(out)?;
    ckpt::atomic_write(&out.join("trace.jsonl"), trace.as_bytes())?;
    ckpt::atomic_write(
        &out.join("metrics.json"),
        artifacts.metrics_json().as_bytes(),
    )?;
    ckpt::atomic_write(&out.join(grid.figure.csv_name()), table.to_csv().as_bytes())?;
    let render_ms = render0.elapsed().as_secs_f64() * 1e3;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = procstat::cpu_seconds() - cpu0;

    let cache_growth = cache
        .map_or(0, procstat::dir_bytes)
        .saturating_sub(cache_before);
    let out_bytes = if cache.is_some_and(|c| c.starts_with(out)) {
        procstat::dir_bytes(out)
    } else {
        procstat::dir_bytes(out) + cache_growth
    };
    Ok(SweepRun {
        points,
        table,
        wall_s,
        pool_s,
        cpu_s,
        render_ms,
        trace_bytes: trace.len() as u64,
        artifact_bytes: out_bytes,
    })
}

/// FNV-1a digest of one point's PPA outcome: every report field, floats in
/// their exact round-trip `Debug` form.
#[must_use]
pub fn point_digest(result: &Result<(PpaReport, PointRecovery), String>) -> u64 {
    ffet_obs::fnv1a64(format!("{result:?}").as_bytes())
}
