//! `ffet-pool`: the deterministic work-stealing job pool.
//!
//! One pool implementation serves both parallelism levels of the framework:
//! the DoE runner in `ffet-core` (one job per sweep point) and the batched
//! intra-point router in `ffet-pnr` (one job per 2-pin connection of a
//! rip-up batch). It is a dependency-free design built on
//! [`std::thread::scope`]:
//!
//! * all job indices start in a shared **injector** queue;
//! * each worker pulls batches from the injector into a local deque and
//!   executes from its front;
//! * a worker whose local deque and the injector are both empty **steals**
//!   from the back of a sibling's deque, so stragglers never idle the pool.
//!
//! **Determinism contract.** Results are reassembled in *submission order*
//! (slot `i` of the output always holds job `i`), jobs never communicate,
//! and per-worker scratch state handed to [`Pool::run_with`] must not
//! influence results (callers guarantee this; the router's epoch-stamped
//! `MazeScratch` is the canonical example). Consequently every output is
//! byte-identical regardless of worker count. Only the [`JobStats`]
//! telemetry (wall time, worker id) varies between runs and must never feed
//! back into experiment tables.
//!
//! A job that panics is caught and reported as a failed slot
//! ([`JobError::Panicked`]); it does not poison the pool or abort sibling
//! jobs. An effective width of 1 runs jobs inline on the caller's thread —
//! same per-job collectors, same panic containment, no thread spawn.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How a job ended, as recorded in the run log.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// The job ran to completion and produced a result.
    Completed,
    /// The job returned an error (carried verbatim).
    Failed(String),
    /// The job panicked; the pool caught it and kept running.
    Panicked(String),
    /// The point was dropped at assembly time (e.g. no placement seed of a
    /// sweep point produced a routable run); no flow was executed for it.
    Skipped(String),
}

impl Disposition {
    /// Whether the job completed successfully.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, Disposition::Completed)
    }

    /// Single-cell rendering for the run-log CSV.
    #[must_use]
    pub fn to_cell(&self) -> String {
        match self {
            Disposition::Completed => "ok".to_owned(),
            Disposition::Failed(m) => format!("failed: {m}"),
            Disposition::Panicked(m) => format!("panicked: {m}"),
            Disposition::Skipped(m) => format!("skipped: {m}"),
        }
    }
}

/// Per-job telemetry: where and how long a job ran, and how it ended.
///
/// Stats are *observational* — two runs of the same workload produce
/// identical results but different stats. Nothing in the experiment tables
/// may depend on them.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStats {
    /// Submission index (also the output slot).
    pub index: usize,
    /// Worker thread that executed the job.
    pub worker: usize,
    /// Wall-clock execution time.
    pub wall: Duration,
    /// How the job ended.
    pub disposition: Disposition,
}

/// Why a job produced no result.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError<E> {
    /// The job's own error, passed through.
    Failed(E),
    /// The job panicked with this message.
    Panicked(String),
}

impl<E: std::fmt::Display> std::fmt::Display for JobError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Failed(e) => write!(f, "{e}"),
            JobError::Panicked(m) => write!(f, "panic: {m}"),
        }
    }
}

/// One finished job: its result (or error) plus telemetry.
#[derive(Debug, Clone)]
pub struct JobOutcome<R, E> {
    /// What the job returned, or why it did not.
    pub result: Result<R, JobError<E>>,
    /// Telemetry record.
    pub stats: JobStats,
    /// Everything the job's ambient [`ffet_obs::Collector`] recorded: span
    /// events and the metrics snapshot. Metric values are deterministic
    /// (each job runs single-threaded in its own collector); span timings
    /// are wall-clock telemetry like [`JobStats`].
    pub trace: ffet_obs::PointData,
}

/// The work-stealing pool. Cheap to construct; owns no threads between
/// runs (workers are scoped to each [`Pool::run`]/[`Pool::run_with`] call).
#[derive(Debug, Clone)]
pub struct Pool {
    width: usize,
}

impl Pool {
    /// A pool with exactly `width` workers (clamped to ≥ 1).
    #[must_use]
    pub fn new(width: usize) -> Pool {
        Pool {
            width: width.max(1),
        }
    }

    /// Worker count.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Executes every job, returning outcomes in **submission order**.
    ///
    /// Jobs run concurrently on up to `width` scoped worker threads and must
    /// be independent: `f` only gets a shared reference to its job. A
    /// panicking job is caught and reported as [`JobError::Panicked`] in its
    /// own slot; all other jobs still run exactly once.
    pub fn run<J, R, E, F>(&self, jobs: Vec<J>, f: F) -> Vec<JobOutcome<R, E>>
    where
        J: Sync,
        R: Send,
        E: Send + std::fmt::Display,
        F: Fn(&J) -> Result<R, E> + Sync,
    {
        let mut states = vec![(); self.width];
        self.run_with(&mut states, &jobs, |(): &mut (), job| f(job))
    }

    /// [`Pool::run`] with exclusive per-worker scratch state: worker `w`
    /// passes `&mut states[w]` to every job it executes.
    ///
    /// The effective width is `min(self.width, jobs.len(), states.len())`;
    /// `states` must be non-empty. Which worker (and therefore which state)
    /// a job lands on is scheduling-dependent, so **results must not depend
    /// on the state's history** — callers hand in scratch whose contents
    /// provably cannot change outputs (allocation reuse only). An effective
    /// width of 1 executes inline on the caller's thread, with the same
    /// per-job collector installation and panic containment as workers.
    pub fn run_with<S, J, R, E, F>(
        &self,
        states: &mut [S],
        jobs: &[J],
        f: F,
    ) -> Vec<JobOutcome<R, E>>
    where
        S: Send,
        J: Sync,
        R: Send,
        E: Send + std::fmt::Display,
        F: Fn(&mut S, &J) -> Result<R, E> + Sync,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        assert!(!states.is_empty(), "run_with needs at least one state");
        let width = self.width.min(n).min(states.len());
        if width == 1 {
            // Inline fast path: no thread spawn, same execution semantics.
            return jobs
                .iter()
                .enumerate()
                .map(|(i, job)| execute(0, i, &mut states[0], job, &f))
                .collect();
        }
        let injector: Mutex<VecDeque<usize>> = Mutex::new((0..n).collect());
        let locals: Vec<Mutex<VecDeque<usize>>> =
            (0..width).map(|_| Mutex::new(VecDeque::new())).collect();
        let slots: Vec<Mutex<Option<JobOutcome<R, E>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        // Batched injector pulls amortize the shared lock; small enough that
        // the tail of a grid still spreads across workers.
        let batch = (n / (width * 4)).max(1);
        {
            let (f, injector, locals, slots) = (&f, &injector, &locals, &slots);
            std::thread::scope(|scope| {
                for (w, state) in states.iter_mut().enumerate().take(width) {
                    scope.spawn(move || {
                        while let Some(i) = next_job(w, injector, locals, batch) {
                            *lock(&slots[i]) = Some(execute(w, i, state, &jobs[i], f));
                        }
                    });
                }
            });
        }
        let out: Vec<JobOutcome<R, E>> = slots
            .into_iter()
            .filter_map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        assert_eq!(out.len(), n, "every job is claimed exactly once");
        out
    }
}

/// Runs one job under a fresh per-job collector with panic containment.
fn execute<S, J, R, E, F>(
    worker: usize,
    index: usize,
    state: &mut S,
    job: &J,
    f: &F,
) -> JobOutcome<R, E>
where
    E: std::fmt::Display,
    F: Fn(&mut S, &J) -> Result<R, E>,
{
    let t0 = Instant::now();
    // Per-job collector: the job's instrumentation all lands in a private
    // buffer, merged later in submission order — metric values stay
    // identical at any pool width.
    let collector = ffet_obs::Collector::new();
    let caught = {
        let _guard = collector.install();
        catch_unwind(AssertUnwindSafe(|| f(state, job)))
    };
    let trace = collector.finish();
    let wall = t0.elapsed();
    let (result, disposition) = match caught {
        Ok(Ok(r)) => (Ok(r), Disposition::Completed),
        Ok(Err(e)) => {
            let msg = e.to_string();
            (Err(JobError::Failed(e)), Disposition::Failed(msg))
        }
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            (
                Err(JobError::Panicked(msg.clone())),
                Disposition::Panicked(msg),
            )
        }
    };
    JobOutcome {
        result,
        stats: JobStats {
            index,
            worker,
            wall,
            disposition,
        },
        trace,
    }
}

/// Locks ignoring poisoning: job panics are already caught inside
/// `execute`, so a poisoned mutex can only result from a panic in the
/// pool's own bookkeeping, where the protected index/slot data is a plain
/// value that is never left half-updated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Claims the next job for worker `w`: local deque front, else a batch from
/// the injector, else steal from the back of a sibling's deque.
fn next_job(
    w: usize,
    injector: &Mutex<VecDeque<usize>>,
    locals: &[Mutex<VecDeque<usize>>],
    batch: usize,
) -> Option<usize> {
    if let Some(i) = lock(&locals[w]).pop_front() {
        return Some(i);
    }
    {
        let mut inj = lock(injector);
        if !inj.is_empty() {
            let mut local = lock(&locals[w]);
            for _ in 0..batch {
                match inj.pop_front() {
                    Some(i) => local.push_back(i),
                    None => break,
                }
            }
            return local.pop_front();
        }
    }
    for offset in 1..locals.len() {
        let victim = (w + offset) % locals.len();
        if let Some(i) = lock(&locals[victim]).pop_back() {
            return Some(i);
        }
    }
    // Injector drained and nothing to steal: remaining jobs are owned by
    // live workers (a worker never exits with a non-empty local deque), so
    // this worker is done.
    None
}

/// Cooperative cancellation token for deadline watchdogs.
///
/// A token is a pure value (`Copy`), so it can ride inside `Copy` configs
/// (e.g. `PnrConfig`) and be checked from any thread without
/// synchronization. Holders poll [`CancelToken::cancelled`] at natural
/// yield points (stage boundaries, route-batch and rip-up-round tops) and
/// unwind cooperatively — the pool itself never kills a worker.
///
/// Two flavors:
///
/// - **Deadline** ([`CancelToken::with_deadline_ms`]): expires once the
///   wall clock passes `start + budget`. Inherently nondeterministic (the
///   same sweep may or may not expire on different hardware) — outside the
///   DESIGN §7 byte-identity contract, which is why tests use…
/// - **Forced** ([`CancelToken::forced`]): already expired at birth. The
///   `stage-timeout` fault kind uses this to exercise every timeout path
///   deterministically at any pool width.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CancelToken {
    deadline: Option<Instant>,
    forced: bool,
}

impl CancelToken {
    /// A token that never cancels (the default).
    #[must_use]
    pub fn none() -> CancelToken {
        CancelToken::default()
    }

    /// A token that cancels `budget_ms` from now. `None` never cancels.
    #[must_use]
    pub fn with_deadline_ms(budget_ms: Option<u64>) -> CancelToken {
        CancelToken {
            deadline: budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
            forced: false,
        }
    }

    /// A token that is already expired — deterministic timeout injection.
    #[must_use]
    pub fn forced() -> CancelToken {
        CancelToken {
            deadline: None,
            forced: true,
        }
    }

    /// Whether the holder should stop at the next yield point.
    #[must_use]
    pub fn cancelled(&self) -> bool {
        self.forced || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether this token can ever cancel (used to skip bookkeeping on the
    /// default token).
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.forced || self.deadline.is_some()
    }
}

/// Renders a caught panic payload (`&str` and `String` payloads verbatim).
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_job_list_returns_empty() {
        let pool = Pool::new(4);
        let out = pool.run(Vec::<u32>::new(), |_| Ok::<u32, String>(0));
        assert!(out.is_empty());
    }

    #[test]
    fn width_is_clamped_to_one() {
        assert_eq!(Pool::new(0).width(), 1);
        assert_eq!(Pool::new(7).width(), 7);
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = Pool::new(4);
        let jobs: Vec<u64> = (0..97).collect();
        let out = pool.run(jobs, |&j| Ok::<u64, String>(j * j));
        assert_eq!(out.len(), 97);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.stats.index, i);
            assert_eq!(*o.result.as_ref().expect("ok"), (i * i) as u64);
        }
    }

    #[test]
    fn errors_are_carried_per_slot() {
        let pool = Pool::new(2);
        let out = pool.run(vec![1u32, 2, 3], |&j| {
            if j == 2 {
                Err(format!("job {j} refused"))
            } else {
                Ok(j)
            }
        });
        assert!(out[0].result.is_ok() && out[2].result.is_ok());
        match &out[1].result {
            Err(JobError::Failed(m)) => assert_eq!(m, "job 2 refused"),
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(out[1].stats.disposition.to_cell(), "failed: job 2 refused");
    }

    #[test]
    fn run_with_hands_each_worker_its_own_state() {
        let pool = Pool::new(3);
        let jobs: Vec<usize> = (0..50).collect();
        // Each worker counts the jobs it ran in its own scratch slot; the
        // counts must sum to the job count (exactly-once) and results must
        // not depend on which worker ran which job.
        let mut counts = vec![0usize; 3];
        let out = pool.run_with(&mut counts, &jobs, |c: &mut usize, &j| {
            *c += 1;
            Ok::<usize, String>(j + 1)
        });
        assert_eq!(counts.iter().sum::<usize>(), 50);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(*o.result.as_ref().expect("ok"), i + 1);
            assert_eq!(o.stats.index, i);
        }
    }

    #[test]
    fn effective_width_is_bounded_by_states() {
        let pool = Pool::new(8);
        let jobs: Vec<u32> = (0..20).collect();
        // Only one state: the pool must degrade to the inline path rather
        // than hand the same &mut to two workers.
        let mut states = vec![0u32];
        let out = pool.run_with(&mut states, &jobs, |s: &mut u32, &j| {
            *s += 1;
            Ok::<u32, String>(j)
        });
        assert_eq!(states[0], 20);
        assert!(out.iter().all(|o| o.stats.worker == 0));
    }

    #[test]
    fn inline_width_one_contains_panics() {
        let pool = Pool::new(1);
        let out = pool.run(vec![1u32, 2, 3], |&j| {
            if j == 2 {
                panic!("job {j} exploded");
            }
            Ok::<u32, String>(j)
        });
        assert!(out[0].result.is_ok() && out[2].result.is_ok());
        match &out[1].result {
            Err(JobError::Panicked(m)) => assert_eq!(m, "job 2 exploded"),
            other => panic!("expected contained panic, got {other:?}"),
        }
    }

    #[test]
    fn cancel_token_flavors() {
        assert!(!CancelToken::none().cancelled());
        assert!(!CancelToken::none().is_armed());
        assert!(CancelToken::forced().cancelled());
        assert!(CancelToken::forced().is_armed());
        // A generous deadline is armed but not yet expired; an elapsed one
        // (zero budget) cancels immediately.
        let far = CancelToken::with_deadline_ms(Some(3_600_000));
        assert!(far.is_armed() && !far.cancelled());
        let now = CancelToken::with_deadline_ms(Some(0));
        assert!(now.cancelled());
        assert!(!CancelToken::with_deadline_ms(None).is_armed());
    }

    #[test]
    fn per_job_collectors_capture_metrics_inline_and_threaded() {
        for width in [1, 4] {
            let pool = Pool::new(width);
            let jobs: Vec<i64> = (1..=8).collect();
            let out = pool.run(jobs, |&j| {
                ffet_obs::counter_add("pool.test.value", j);
                Ok::<i64, String>(j)
            });
            for (i, o) in out.iter().enumerate() {
                assert_eq!(
                    o.trace.metrics.counters["pool.test.value"],
                    i as i64 + 1,
                    "width {width}"
                );
            }
        }
    }
}
