//! Bounded deterministic flow recovery: retry failed or invalid DoE points
//! through a fixed escalation ladder instead of losing sweep coverage.
//!
//! The paper's evaluation treats congested or broken P&R points as invalid
//! *data points*, not flow aborts. [`run_flow_resilient`] implements that
//! posture: a point that errors (signoff violation, infeasible floorplan,
//! even a panic) or comes back invalid (DRV ≥ 10) is retried up to
//! `FlowConfig::max_attempts` times, each retry escalating one rung:
//!
//! 1. **Baseline** — the configured point, untouched.
//! 2. **Extra reroute** — [`EXTRA_REROUTE_ROUNDS`] additional
//!    rip-up-and-reroute rounds, continuing attempt 0's negotiation where
//!    it stopped rather than placing and routing again.
//! 3. **Relax utilization** — one [`UTIL_RELAX_STEP`] down (clamped at
//!    [`UTIL_RELAX_FLOOR`]), keeping the extra rounds.
//! 4. **Perturb seed** — a SplitMix64 perturbation of the base seed,
//!    keeping the relaxation and extra rounds.
//!
//! Every rung is a pure function of the base config and the attempt index
//! — no wall-clock, no randomness outside the derived seed — so the same
//! `FlowConfig` (fault plan included) yields the same [`AttemptLog`] and
//! the same final outcome at any pool width. Relaxed-utilization successes
//! are flagged so sweep aggregation can keep them out of max-utilization
//! claims.

use crate::flow::{run_flow_session, FlowConfig, FlowError, FlowOutcome, StageTimes};
use ffet_cells::Library;
use ffet_netlist::Netlist;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Extra rip-up-and-reroute rounds added from the second attempt on.
pub const EXTRA_REROUTE_ROUNDS: u32 = 8;

/// Utilization decrement applied from the third attempt on.
pub const UTIL_RELAX_STEP: f64 = 0.04;

/// Utilization is never relaxed below this.
pub const UTIL_RELAX_FLOOR: f64 = 0.30;

/// Default `FlowConfig::max_attempts` (overridable via `FFET_MAX_ATTEMPTS`
/// / `--max-attempts`).
pub const DEFAULT_MAX_ATTEMPTS: u32 = 3;

/// Environment variable overriding the attempt budget for the `repro`
/// driver.
pub const MAX_ATTEMPTS_ENV: &str = "FFET_MAX_ATTEMPTS";

/// The escalation rung an attempt ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryRung {
    /// Attempt 0: the configured point as-is.
    Baseline,
    /// Attempt 1: extra rip-up-and-reroute rounds.
    ExtraReroute,
    /// Attempt 2: utilization relaxed one fixed step.
    RelaxUtilization,
    /// Attempts ≥ 3: seed perturbed (relaxation and extra rounds kept).
    PerturbSeed,
}

impl std::fmt::Display for RecoveryRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecoveryRung::Baseline => "baseline",
            RecoveryRung::ExtraReroute => "extra-reroute",
            RecoveryRung::RelaxUtilization => "relax-utilization",
            RecoveryRung::PerturbSeed => "perturb-seed",
        })
    }
}

/// What one attempt ran with and how it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// Attempt index (0 = baseline).
    pub attempt: u32,
    /// Escalation rung.
    pub rung: RecoveryRung,
    /// Seed the attempt ran with.
    pub seed: u64,
    /// Utilization the attempt ran with.
    pub utilization: f64,
    /// Extra reroute rounds the attempt ran with.
    pub extra_reroute_rounds: u32,
    /// `valid`, `invalid (drv N)`, `error: …`, `panicked: …`, or
    /// `timeout(stage)`.
    pub outcome: String,
}

/// The attempt-by-attempt history of one resilient point.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttemptLog {
    /// One record per executed attempt, in order.
    pub attempts: Vec<AttemptRecord>,
}

/// Final disposition of a resilient point, as reported in `runlog.csv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointDisposition {
    /// Valid on the first attempt.
    Clean,
    /// Valid after `n` extra attempts.
    Recovered(u32),
    /// Still failed or invalid after `n` extra attempts.
    Failed(u32),
}

impl PointDisposition {
    /// Single-cell rendering for the run-log CSV.
    #[must_use]
    pub fn to_cell(&self) -> String {
        match self {
            PointDisposition::Clean => "clean".to_owned(),
            PointDisposition::Recovered(n) => format!("recovered({n})"),
            PointDisposition::Failed(n) => format!("failed({n})"),
        }
    }

    /// Extra attempts beyond the baseline run.
    #[must_use]
    pub fn extra_attempts(&self) -> u32 {
        match self {
            PointDisposition::Clean => 0,
            PointDisposition::Recovered(n) | PointDisposition::Failed(n) => *n,
        }
    }
}

/// Compact recovery summary of one point (rides next to the report).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointRecovery {
    /// Final disposition.
    pub disposition: PointDisposition,
    /// Attempts executed (≥ 1).
    pub attempts: u32,
    /// Whether the returned outcome ran at a relaxed utilization — such
    /// points must not count toward max-utilization claims.
    pub relaxed: bool,
}

/// Everything [`run_flow_resilient`] produced.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// The final outcome: the first valid attempt, else the best invalid
    /// attempt (fewest DRVs), else the last error.
    pub outcome: Result<FlowOutcome, FlowError>,
    /// Per-attempt history.
    pub log: AttemptLog,
    /// Final disposition + attempt count.
    pub recovery: PointRecovery,
    /// Stage wall times summed over every attempt that produced an outcome
    /// (telemetry; the final attempt's alone are in `outcome`).
    pub stages: StageTimes,
    /// Wall time of the attempts after the first, ms: what the ladder cost
    /// (telemetry).
    pub ladder_ms: f64,
}

/// Why a resilient point produced no flow outcome at all (every attempt
/// errored); carried through the DoE pool as the job error.
#[derive(Debug, Clone, PartialEq)]
pub struct PointFailure {
    /// The last attempt's error.
    pub error: FlowError,
    /// Attempts executed.
    pub attempts: u32,
}

impl std::fmt::Display for PointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "after {} attempt(s): {}", self.attempts, self.error)
    }
}

impl std::error::Error for PointFailure {}

/// The exact config attempt `attempt` runs with, and its rung. Pure in
/// `(base, attempt)` — the determinism anchor of the ladder.
#[must_use]
pub fn config_for_attempt(base: &FlowConfig, attempt: u32) -> (FlowConfig, RecoveryRung) {
    let mut cfg = base.clone();
    cfg.fault_plan.attempt = attempt;
    if attempt >= 1 {
        cfg.extra_reroute_rounds = base.extra_reroute_rounds + EXTRA_REROUTE_ROUNDS;
    }
    if attempt >= 2 {
        cfg.utilization = (base.utilization - UTIL_RELAX_STEP).max(UTIL_RELAX_FLOOR);
    }
    if attempt >= 3 {
        cfg.seed = perturb_seed(base.seed, attempt);
    }
    let rung = match attempt {
        0 => RecoveryRung::Baseline,
        1 => RecoveryRung::ExtraReroute,
        2 => RecoveryRung::RelaxUtilization,
        _ => RecoveryRung::PerturbSeed,
    };
    (cfg, rung)
}

/// SplitMix64 finalizer over `base ^ attempt` — a full-avalanche, seed-
/// derived perturbation (never 0-mapped back to `base` in practice).
fn perturb_seed(base: u64, attempt: u32) -> u64 {
    let mut z = base ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `run_flow` with up to `base.max_attempts` attempts through the
/// escalation ladder, catching per-attempt panics. Returns the first valid
/// outcome (`Clean`/`Recovered`); on exhaustion, the best invalid outcome
/// (fewest DRVs, earliest attempt) or the last error, marked `Failed`.
/// Sweep tables keep their rows either way.
///
/// **Rung 1 continues attempt 0.** Rung 1 changes only the reroute budget,
/// so attempt 0 keeps a [`ffet_pnr::PnrSession`] (post-CTS netlist,
/// placement, router state, recorded spans) and attempt 1's pnr stage
/// replays attempt 0's placement and rounds as `cached=true` spans and runs
/// only the rounds the larger budget adds. Every artifact, span and metric
/// equals a from-scratch `run_flow` of the rung-1 config. No session is
/// kept under a fault plan, with `max_attempts < 2`, or when attempt 0's
/// pnr stage replayed from the stage cache; one is dropped as soon as
/// attempt 0 errors or is valid, and after attempt 1.
pub fn run_flow_resilient(
    netlist: &Netlist,
    library: &Library,
    base: &FlowConfig,
) -> ResilientOutcome {
    let max_attempts = base.max_attempts.max(1);
    let mut log = AttemptLog::default();
    let mut best_invalid: Option<(FlowOutcome, bool)> = None;
    let mut last_error: Option<FlowError> = None;
    let mut stages = StageTimes::default();
    let mut ladder_ms = 0.0;
    let mut session = None;

    for attempt in 0..max_attempts {
        let (cfg, rung) = config_for_attempt(base, attempt);
        let relaxed = cfg.utilization < base.utilization;
        let mut attempt_span = ffet_obs::span("flow.attempt")
            .attr("attempt", attempt)
            .attr("rung", rung.to_string())
            .attr("seed", cfg.seed.to_string())
            .attr("utilization", cfg.utilization);
        ffet_obs::counter_add("recover.attempts", 1);
        let keep = attempt == 0 && max_attempts >= 2 && base.fault_plan.is_empty();
        let result = match catch_unwind(AssertUnwindSafe(|| {
            run_flow_session(netlist, library, &cfg, &mut session, keep)
        })) {
            Ok(r) => r,
            Err(payload) => Err(FlowError::Panicked(crate::runner::panic_message(
                payload.as_ref(),
            ))),
        };
        let outcome_cell = match &result {
            Ok(o) if o.report.valid => "valid".to_owned(),
            Ok(o) => format!("invalid (drv {})", o.report.drv),
            Err(FlowError::Panicked(m)) => format!("panicked: {m}"),
            Err(FlowError::Timeout(stage)) => {
                ffet_obs::counter_add("recover.timeout", 1);
                format!("timeout({stage})")
            }
            Err(e) => format!("error: {e}"),
        };
        attempt_span.set_attr("outcome", outcome_cell.as_str());
        let attempt_ms = attempt_span.close_ms();
        if attempt > 0 {
            ladder_ms += attempt_ms;
        }
        if let Ok(o) = &result {
            stages.add(&o.stages);
        }
        if attempt > 0 || result.is_err() {
            session = None;
        }
        log.attempts.push(AttemptRecord {
            attempt,
            rung,
            seed: cfg.seed,
            utilization: cfg.utilization,
            extra_reroute_rounds: cfg.extra_reroute_rounds,
            outcome: outcome_cell,
        });
        match result {
            Ok(outcome) if outcome.report.valid => {
                let disposition = if attempt == 0 {
                    ffet_obs::counter_add("recover.clean", 1);
                    PointDisposition::Clean
                } else {
                    ffet_obs::counter_add("recover.recovered", 1);
                    PointDisposition::Recovered(attempt)
                };
                return ResilientOutcome {
                    outcome: Ok(outcome),
                    log,
                    recovery: PointRecovery {
                        disposition,
                        attempts: attempt + 1,
                        relaxed,
                    },
                    stages,
                    ladder_ms,
                };
            }
            Ok(outcome) => {
                let better = best_invalid
                    .as_ref()
                    .is_none_or(|(b, _)| outcome.report.drv < b.report.drv);
                if better {
                    best_invalid = Some((outcome, relaxed));
                }
            }
            Err(e) => last_error = Some(e),
        }
    }

    ffet_obs::counter_add("recover.failed", 1);
    let recovery = |relaxed| PointRecovery {
        disposition: PointDisposition::Failed(max_attempts - 1),
        attempts: max_attempts,
        relaxed,
    };
    match best_invalid {
        Some((outcome, relaxed)) => ResilientOutcome {
            outcome: Ok(outcome),
            log,
            recovery: recovery(relaxed),
            stages,
            ladder_ms,
        },
        None => ResilientOutcome {
            // `max_attempts >= 1`, so the loop ran and either banked a
            // best-invalid outcome (handled above) or recorded an error;
            // an absent error here can only be a ladder bug — surface it
            // as a config-class failure instead of panicking.
            outcome: Err(last_error.unwrap_or_else(|| {
                FlowError::Config("recovery ladder finished without an outcome".to_owned())
            })),
            log,
            recovery: recovery(false),
            stages,
            ladder_ms,
        },
    }
}

/// `max_attempts` from `FFET_MAX_ATTEMPTS`, defaulting (and clamping bad
/// values) to [`DEFAULT_MAX_ATTEMPTS`].
#[must_use]
pub fn max_attempts_from_env() -> u32 {
    std::env::var(MAX_ATTEMPTS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(DEFAULT_MAX_ATTEMPTS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffet_tech::TechKind;

    #[test]
    fn ladder_is_monotone_and_bounded() {
        let base = FlowConfig::baseline(TechKind::Ffet3p5t);
        let (a0, r0) = config_for_attempt(&base, 0);
        assert_eq!(r0, RecoveryRung::Baseline);
        assert_eq!(a0, {
            let mut b = base.clone();
            b.fault_plan.attempt = 0;
            b
        });

        let (a1, r1) = config_for_attempt(&base, 1);
        assert_eq!(r1, RecoveryRung::ExtraReroute);
        assert_eq!(a1.extra_reroute_rounds, EXTRA_REROUTE_ROUNDS);
        assert_eq!(a1.utilization, base.utilization);
        assert_eq!(a1.seed, base.seed);

        let (a2, r2) = config_for_attempt(&base, 2);
        assert_eq!(r2, RecoveryRung::RelaxUtilization);
        assert!(a2.utilization < base.utilization);
        assert_eq!(a2.seed, base.seed);

        let (a3, r3) = config_for_attempt(&base, 3);
        assert_eq!(r3, RecoveryRung::PerturbSeed);
        assert_ne!(a3.seed, base.seed);
        // The relaxation is a single fixed step, not cumulative.
        assert_eq!(a3.utilization, a2.utilization);
    }

    #[test]
    fn relaxation_clamps_at_floor() {
        let mut base = FlowConfig::baseline(TechKind::Ffet3p5t);
        base.utilization = UTIL_RELAX_FLOOR + 0.01;
        let (cfg, _) = config_for_attempt(&base, 2);
        assert_eq!(cfg.utilization, UTIL_RELAX_FLOOR);
    }

    #[test]
    fn perturbed_seeds_are_distinct_per_attempt() {
        let s3 = perturb_seed(42, 3);
        let s4 = perturb_seed(42, 4);
        assert_ne!(s3, 42);
        assert_ne!(s4, 42);
        assert_ne!(s3, s4);
        // And deterministic.
        assert_eq!(s3, perturb_seed(42, 3));
    }

    #[test]
    fn disposition_cells_render() {
        assert_eq!(PointDisposition::Clean.to_cell(), "clean");
        assert_eq!(PointDisposition::Recovered(2).to_cell(), "recovered(2)");
        assert_eq!(PointDisposition::Failed(2).to_cell(), "failed(2)");
        assert_eq!(PointDisposition::Clean.extra_attempts(), 0);
        assert_eq!(PointDisposition::Failed(2).extra_attempts(), 2);
    }
}
