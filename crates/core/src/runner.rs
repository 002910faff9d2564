//! Parallel deterministic DoE execution plus its telemetry artifact.
//!
//! The paper's evaluation (§IV) is a grid of *independent* flow runs — every
//! figure and table sweeps utilization/frequency/pin-density/layer-count DoE
//! points through the full Fig. 7 flow. The execution engine itself lives in
//! [`ffet_pool`] (one deterministic work-stealing pool shared by this DoE
//! level and the batched intra-point router in `ffet-pnr`); this module
//! re-exports it under its historical paths and keeps the DoE-specific
//! [`RunLog`] artifact.
//!
//! **Determinism contract.** Results are reassembled in *submission order*
//! (slot `i` of the output always holds job `i`), every job carries its own
//! seed inside its [`crate::FlowConfig`], and jobs never communicate — so
//! every experiment table and CSV is byte-identical regardless of worker
//! count. Only the [`JobStats`] telemetry (wall time, worker id) varies
//! between runs; it is surfaced separately through [`RunLog`] and must never
//! feed back into experiment tables.
//!
//! A job that panics is caught and reported as a failed point
//! ([`JobError::Panicked`]); it does not poison the pool or abort sibling
//! jobs. Pool width comes from `FFET_JOBS` (or `--jobs` in the `repro`
//! driver), defaulting to the machine's available parallelism.

use std::time::Duration;

pub use crate::flow::StageTimes;
pub use ffet_pool::{
    panic_message, width_from, CancelToken, Disposition, JobError, JobOutcome, JobStats, Pool,
    JOBS_ENV,
};

// ---------------------------------------------------------------------
// Run log — the machine-checkable telemetry artifact
// ---------------------------------------------------------------------

/// One row of `results/runlog.csv`: a single executed (or skipped) DoE
/// point, or a per-experiment `(total)` summary row.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLogRow {
    /// Experiment the job belongs to (`fig8`, `table3`, …).
    pub experiment: String,
    /// Point label (config / utilization / seed).
    pub label: String,
    /// Submission index within the experiment.
    pub index: usize,
    /// Worker thread that ran the job.
    pub worker: usize,
    /// Wall-clock time, ms.
    pub wall_ms: f64,
    /// Per-stage breakdown of the flow, summed over every recovery-ladder
    /// attempt, when the job ran the flow.
    pub stages: Option<StageTimes>,
    /// Wall time of the ladder's attempts after the first, ms, when the job
    /// ran the flow: what recovery cost.
    pub ladder_ms: Option<f64>,
    /// Flow attempts executed for this point (1 = no recovery; 0 for
    /// synthetic rows that ran nothing).
    pub attempts: u32,
    /// Final disposition (`ok` / `clean` / `recovered(n)` / `failed(n)` /
    /// `failed: …` / `panicked: …` / `skipped: …`).
    pub disposition: String,
}

impl RunLogRow {
    /// Builds a row from pool telemetry plus experiment-level context.
    #[must_use]
    pub fn from_stats(
        experiment: &str,
        label: String,
        stats: &JobStats,
        stages: Option<StageTimes>,
    ) -> RunLogRow {
        RunLogRow {
            experiment: experiment.to_owned(),
            label,
            index: stats.index,
            worker: stats.worker,
            wall_ms: stats.wall.as_secs_f64() * 1e3,
            stages,
            ladder_ms: None,
            attempts: 1,
            disposition: stats.disposition.to_cell(),
        }
    }

    /// A synthetic row for a point dropped at assembly time.
    #[must_use]
    pub fn skipped(experiment: &str, label: String, index: usize, reason: &str) -> RunLogRow {
        RunLogRow {
            experiment: experiment.to_owned(),
            label,
            index,
            worker: 0,
            wall_ms: 0.0,
            stages: None,
            ladder_ms: None,
            attempts: 0,
            disposition: Disposition::Skipped(reason.to_owned()).to_cell(),
        }
    }
}

/// The telemetry record of one `repro` invocation: every job of every
/// experiment plus per-experiment totals, serializable as
/// `results/runlog.csv`.
///
/// The run log is deliberately *outside* the determinism contract: wall
/// times and worker ids vary run to run; only the experiment tables are
/// byte-stable.
#[derive(Debug, Clone, Default)]
pub struct RunLog {
    /// Pool width the run used.
    pub jobs: usize,
    /// All rows, in experiment submission order.
    pub rows: Vec<RunLogRow>,
}

impl RunLog {
    /// An empty log for a pool of the given width.
    #[must_use]
    pub fn new(jobs: usize) -> RunLog {
        RunLog {
            jobs,
            rows: Vec::new(),
        }
    }

    /// Appends an experiment's rows plus its `(total)` summary row.
    pub fn record_experiment(&mut self, experiment: &str, rows: Vec<RunLogRow>, wall: Duration) {
        let index = rows.len();
        self.rows.extend(rows);
        self.rows.push(RunLogRow {
            experiment: experiment.to_owned(),
            label: "(total)".to_owned(),
            index,
            worker: 0,
            wall_ms: wall.as_secs_f64() * 1e3,
            stages: None,
            ladder_ms: None,
            attempts: 0,
            disposition: Disposition::Completed.to_cell(),
        });
    }

    /// One-line summary of an experiment's jobs for the driver's stderr.
    #[must_use]
    pub fn summary(&self, experiment: &str) -> String {
        let rows: Vec<&RunLogRow> = self
            .rows
            .iter()
            .filter(|r| r.experiment == experiment && r.label != "(total)")
            .collect();
        let ok = rows
            .iter()
            .filter(|r| {
                r.disposition == "ok"
                    || r.disposition == "clean"
                    || r.disposition.starts_with("recovered(")
            })
            .count();
        // An empty f64 sum is -0.0; normalize so zero-job summaries print 0.0.
        let busy_ms: f64 = rows.iter().map(|r| r.wall_ms).sum::<f64>().max(0.0);
        format!(
            "{} jobs ({ok} ok, {} failed/skipped), {} workers, {:.1}s busy",
            rows.len(),
            rows.len() - ok,
            self.jobs,
            busy_ms / 1e3,
        )
    }

    /// Serializes the log as CSV (`#`-prefixed trailer notes carry the pool
    /// width and the non-determinism caveat).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let mut out = String::from(
            "experiment,label,index,worker,wall_ms,synth_ms,pnr_ms,merge_ms,signoff_ms,rcx_ms,sta_ms,ladder_ms,attempts,disposition\n",
        );
        for r in &self.rows {
            let stage = |pick: fn(&StageTimes) -> f64| -> String {
                r.stages
                    .map_or_else(String::new, |s| format!("{:.3}", pick(&s)))
            };
            let ladder = r
                .ladder_ms
                .map_or_else(String::new, |ms| format!("{ms:.3}"));
            out.push_str(&format!(
                "{},{},{},{},{:.3},{},{},{},{},{},{},{},{},{}\n",
                quote(&r.experiment),
                quote(&r.label),
                r.index,
                r.worker,
                r.wall_ms,
                stage(|s| s.synth_ms),
                stage(|s| s.pnr_ms),
                stage(|s| s.merge_ms),
                stage(|s| s.signoff_ms),
                stage(|s| s.rcx_ms),
                stage(|s| s.sta_ms),
                ladder,
                r.attempts,
                quote(&r.disposition),
            ));
        }
        out.push_str(&format!("# jobs={}\n", self.jobs));
        out.push_str("# telemetry only: wall times and worker ids vary run to run; experiment tables are byte-stable\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runlog_csv_has_totals_and_notes() {
        let mut log = RunLog::new(4);
        let stats = JobStats {
            index: 0,
            worker: 1,
            wall: Duration::from_millis(12),
            disposition: Disposition::Completed,
        };
        let stages = StageTimes {
            synth_ms: 1.0,
            pnr_ms: 2.0,
            merge_ms: 0.5,
            signoff_ms: 0.25,
            rcx_ms: 0.125,
            sta_ms: 4.0,
        };
        let laddered = RunLogRow {
            ladder_ms: Some(7.5),
            attempts: 2,
            disposition: "recovered(1)".into(),
            ..RunLogRow::from_stats("figX", "p1".into(), &stats, Some(stages))
        };
        log.record_experiment(
            "figX",
            vec![
                RunLogRow::from_stats("figX", "p0".into(), &stats, None),
                laddered,
            ],
            Duration::from_millis(20),
        );
        let csv = log.to_csv();
        assert!(csv.starts_with(
            "experiment,label,index,worker,wall_ms,synth_ms,pnr_ms,merge_ms,signoff_ms,\
             rcx_ms,sta_ms,ladder_ms,attempts,disposition\n"
        ));
        assert!(csv.contains("figX,p0,0,1,12.000,,,,,,,,1,ok\n"));
        assert!(csv.contains(
            "figX,p1,0,1,12.000,1.000,2.000,0.500,0.250,0.125,4.000,7.500,2,recovered(1)\n"
        ));
        assert!(csv.contains("figX,(total),2,0,"));
        assert!(csv.contains("# jobs=4"));
        assert!(log
            .summary("figX")
            .contains("2 jobs (2 ok, 0 failed/skipped)"));
    }
}
