//! The run's knobs, parsed once at the driver edge.
//!
//! [`crate::FlowConfig::baseline`] is a pure function of the technology: it
//! carries the library defaults for every knob a driver may change (serial
//! router, [`DEFAULT_MAX_ATTEMPTS`], no deadline, no faults, no cache). A
//! driver such as `repro` parses its flags and `FFET_*` variables into one
//! [`RunEnv`] and hands it to the experiments, which build every config
//! through [`RunEnv::baseline`]. No library code reads the environment.

use crate::experiments::DesignKind;
use crate::faults::FaultPlan;
use crate::flow::FlowConfig;
use crate::recover::DEFAULT_MAX_ATTEMPTS;
use ffet_tech::TechKind;
use std::path::PathBuf;

/// Everything a run decides beyond the DoE grid of its experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEnv {
    /// Benchmark design of the flow experiments.
    pub design: DesignKind,
    /// DoE pool width.
    pub jobs: usize,
    /// Router worker count ([`FlowConfig::route_jobs`]).
    pub route_jobs: usize,
    /// Attempt budget of the recovery ladder ([`FlowConfig::max_attempts`]).
    pub max_attempts: u32,
    /// Per-attempt deadline ([`FlowConfig::deadline_ms`]).
    pub deadline_ms: Option<u64>,
    /// Injected faults ([`FlowConfig::fault_plan`]).
    pub faults: FaultPlan,
    /// Stage-cache root ([`FlowConfig::stage_cache`]).
    pub stage_cache: Option<PathBuf>,
}

impl RunEnv {
    /// A serial run on `design` with the knobs [`FlowConfig::baseline`]
    /// carries.
    #[must_use]
    pub fn new(design: DesignKind) -> RunEnv {
        RunEnv {
            design,
            jobs: 1,
            route_jobs: 1,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            deadline_ms: None,
            faults: FaultPlan::default(),
            stage_cache: None,
        }
    }

    /// This run with `jobs` DoE workers and the router at the same width.
    #[must_use]
    pub fn with_jobs(self, jobs: usize) -> RunEnv {
        RunEnv {
            jobs,
            route_jobs: jobs,
            ..self
        }
    }

    /// [`FlowConfig::baseline`] with this run's knobs applied — the one
    /// place they enter a config.
    #[must_use]
    pub fn baseline(&self, tech: TechKind) -> FlowConfig {
        FlowConfig {
            max_attempts: self.max_attempts,
            route_jobs: self.route_jobs,
            deadline_ms: self.deadline_ms,
            fault_plan: self.faults.clone(),
            stage_cache: self.stage_cache.clone(),
            ..FlowConfig::baseline(tech)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_applies_every_knob() {
        let run = RunEnv {
            max_attempts: 5,
            deadline_ms: Some(250),
            faults: FaultPlan::parse("drv-inflate").expect("valid spec"),
            stage_cache: Some(PathBuf::from("cache")),
            ..RunEnv::new(DesignKind::CounterSmall).with_jobs(3)
        };
        let config = run.baseline(TechKind::Ffet3p5t);
        assert_eq!(config.max_attempts, 5);
        assert_eq!(config.route_jobs, 3);
        assert_eq!(config.deadline_ms, Some(250));
        assert_eq!(config.fault_plan, run.faults);
        assert_eq!(config.stage_cache, run.stage_cache);
        // The library default is the serial, faultless, uncached run.
        assert_eq!(
            RunEnv::new(DesignKind::Rv32).baseline(TechKind::Cfet4t),
            FlowConfig::baseline(TechKind::Cfet4t)
        );
    }
}
