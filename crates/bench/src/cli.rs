//! The `repro` command line: every run knob is parsed here, once, from its
//! flag or its `FFET_*` alias (a flag beats its alias), into one
//! [`RunEnv`]. A malformed value is an error naming the flag or variable;
//! the driver turns it into a usage error (exit 2).

use ffet_core::experiments::DesignKind;
use ffet_core::recover::DEFAULT_MAX_ATTEMPTS;
use ffet_core::stagecache::DEFAULT_ROOT;
use ffet_core::{FaultPlan, RunEnv};
use std::path::PathBuf;

/// `--design counter|rv32`.
pub const DESIGN_ENV: &str = "FFET_DESIGN";
/// `--jobs N`: the DoE pool width.
pub const JOBS_ENV: &str = "FFET_JOBS";
/// `--route-jobs N`: the router width (default: the pool width).
pub const ROUTE_JOBS_ENV: &str = "FFET_ROUTE_JOBS";
/// `--max-attempts N`: the recovery ladder's attempt budget.
pub const MAX_ATTEMPTS_ENV: &str = "FFET_MAX_ATTEMPTS";
/// `--deadline SECS`: the per-attempt deadline.
pub const DEADLINE_ENV: &str = "FFET_DEADLINE";
/// The fault spec (no flag; DESIGN §8).
pub const FAULTS_ENV: &str = "FFET_FAULTS";
/// The stage-cache root: unset or `1` → [`DEFAULT_ROOT`], empty or `0` →
/// off (like `--no-cache`), anything else → that directory.
pub const STAGE_CACHE_ENV: &str = "FFET_STAGE_CACHE";

/// The process environment as [`parse`] reads it.
#[must_use]
pub fn process_env(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// The fault plan of an `FFET_FAULTS` value (empty when unset).
///
/// # Errors
///
/// `FFET_FAULTS: <parse message>` on an unparsable spec.
pub fn fault_plan(spec: Option<&str>) -> Result<FaultPlan, String> {
    spec.map_or_else(
        || Ok(FaultPlan::default()),
        |spec| FaultPlan::parse(spec).map_err(|e| format!("{FAULTS_ENV}: {e}")),
    )
}

/// Parses `repro`'s arguments (without the program name) into the run's
/// knobs and the non-flag arguments, reading each flag's alias from `env`
/// only when the flag is absent.
///
/// # Errors
///
/// A message naming the offending flag or variable: an unknown option, a
/// flag without its value, or a malformed value.
pub fn parse(
    args: impl IntoIterator<Item = String>,
    env: impl Fn(&str) -> Option<String>,
) -> Result<(RunEnv, Vec<String>), String> {
    let (mut design, mut jobs, mut route_jobs, mut max_attempts, mut deadline) =
        (None, None, None, None, None);
    let mut no_cache = false;
    let mut positional = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--design" => &mut design,
            "--jobs" => &mut jobs,
            "--route-jobs" => &mut route_jobs,
            "--max-attempts" => &mut max_attempts,
            "--deadline" => &mut deadline,
            "--no-cache" => {
                no_cache = true;
                continue;
            }
            name if !name.starts_with('-') => {
                positional.push(arg);
                continue;
            }
            _ => return Err(format!("unknown option {arg}")),
        };
        let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
        *slot = Some((value, arg));
    }
    // The flag's value, else its alias's, tagged with where it came from.
    let pick = |flag: Option<(String, String)>, var: &str| {
        flag.or_else(|| env(var).map(|v| (v, var.to_owned())))
    };

    let design = match pick(design, DESIGN_ENV) {
        None => DesignKind::Rv32,
        Some((v, from)) => match v.trim() {
            "counter" => DesignKind::CounterSmall,
            "rv32" => DesignKind::Rv32,
            _ => return Err(format!("{from}: expected counter or rv32, got {v:?}")),
        },
    };
    let jobs = match pick(jobs, JOBS_ENV) {
        Some((v, from)) => count(&v, &from)?,
        None => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };
    let route_jobs = match pick(route_jobs, ROUTE_JOBS_ENV) {
        Some((v, from)) => count(&v, &from)?,
        None => jobs,
    };
    let max_attempts = match pick(max_attempts, MAX_ATTEMPTS_ENV) {
        Some((v, from)) => count(&v, &from)?,
        None => DEFAULT_MAX_ATTEMPTS,
    };
    let deadline_ms = match pick(deadline, DEADLINE_ENV) {
        Some((v, from)) => match v.trim().parse::<f64>() {
            Ok(s) if s.is_finite() && s > 0.0 => Some((s * 1000.0).ceil() as u64),
            _ => return Err(format!("{from}: expected positive seconds, got {v:?}")),
        },
        None => None,
    };
    let faults = fault_plan(env(FAULTS_ENV).as_deref())?;
    // The cache defaults ON for this driver.
    let stage_cache = if no_cache {
        None
    } else {
        match env(STAGE_CACHE_ENV).as_deref().map(str::trim) {
            Some("" | "0") => None,
            None | Some("1") => Some(PathBuf::from(DEFAULT_ROOT)),
            Some(dir) => Some(PathBuf::from(dir)),
        }
    };
    let run = RunEnv {
        design,
        jobs,
        route_jobs,
        max_attempts,
        deadline_ms,
        faults,
        stage_cache,
    };
    Ok((run, positional))
}

/// A positive integer, or an error naming `from`.
fn count<T: std::str::FromStr + PartialOrd + From<u8>>(
    value: &str,
    from: &str,
) -> Result<T, String> {
    value
        .trim()
        .parse::<T>()
        .ok()
        .filter(|n| *n >= T::from(1))
        .ok_or_else(|| format!("{from}: expected a positive integer, got {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffet_core::ckpt::config_signature;

    fn parse_with(args: &[&str], vars: &[(&str, &str)]) -> Result<(RunEnv, Vec<String>), String> {
        parse(args.iter().map(|a| (*a).to_owned()), |name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_owned())
        })
    }

    fn run_of(args: &[&str], vars: &[(&str, &str)]) -> RunEnv {
        parse_with(args, vars).expect("valid command line").0
    }

    #[test]
    fn router_width_follows_the_pool_width() {
        assert_eq!(run_of(&["--jobs", "1", "fig9"], &[]).route_jobs, 1);
        let run = run_of(&[], &[(JOBS_ENV, "3")]);
        assert_eq!((run.jobs, run.route_jobs), (3, 3));
        let run = run_of(&["--jobs", "4"], &[(ROUTE_JOBS_ENV, "2")]);
        assert_eq!((run.jobs, run.route_jobs), (4, 2));
        let run = run_of(&["--route-jobs", "1"], &[(JOBS_ENV, "2")]);
        assert_eq!((run.jobs, run.route_jobs), (2, 1));
    }

    #[test]
    fn a_flag_beats_its_alias() {
        let run = run_of(
            &["--jobs", "2", "--design", "counter", "--no-cache"],
            &[
                (JOBS_ENV, "lots"),
                (DESIGN_ENV, "rv32"),
                (STAGE_CACHE_ENV, "1"),
            ],
        );
        assert_eq!(run.jobs, 2);
        assert_eq!(run.design, DesignKind::CounterSmall);
        assert_eq!(run.stage_cache, None);
    }

    #[test]
    fn unset_knobs_keep_the_checked_in_signature() {
        let (run, positional) = parse_with(&["--design", "counter", "all"], &[]).expect("valid");
        assert_eq!(positional, vec!["all".to_owned()]);
        assert_eq!(config_signature(&run), "044586a4e3d175ae");
        assert_eq!(run.stage_cache, Some(PathBuf::from(DEFAULT_ROOT)));
    }

    #[test]
    fn a_knob_signs_the_same_from_its_flag_or_its_alias() {
        let flag = run_of(&["--max-attempts", "5"], &[]);
        let var = run_of(&[], &[(MAX_ATTEMPTS_ENV, "5")]);
        assert_eq!(flag.max_attempts, 5);
        assert_eq!(config_signature(&flag), config_signature(&var));
        let flag = run_of(&["--deadline", "1.5"], &[]);
        let var = run_of(&[], &[(DEADLINE_ENV, "1.5")]);
        assert_eq!(flag.deadline_ms, Some(1500));
        assert_eq!(config_signature(&flag), config_signature(&var));
        assert_ne!(config_signature(&flag), config_signature(&run_of(&[], &[])));
    }

    #[test]
    fn cache_root_spellings() {
        let root = |v: &str| run_of(&[], &[(STAGE_CACHE_ENV, v)]).stage_cache;
        assert_eq!(root("0"), None);
        assert_eq!(root(""), None);
        assert_eq!(root("1"), Some(PathBuf::from(DEFAULT_ROOT)));
        assert_eq!(root("/tmp/c"), Some(PathBuf::from("/tmp/c")));
    }

    #[test]
    fn malformed_values_name_their_source() {
        for var in [JOBS_ENV, ROUTE_JOBS_ENV, MAX_ATTEMPTS_ENV, DEADLINE_ENV] {
            for bad in ["abc", "0", "-1"] {
                let err = parse_with(&["fig9"], &[(var, bad)]).expect_err("rejected");
                assert!(err.starts_with(&format!("{var}: ")), "{err}");
            }
        }
        let err = parse_with(&[], &[(DESIGN_ENV, "Counter")]).expect_err("rejected");
        assert!(err.starts_with("FFET_DESIGN: "), "{err}");
        let err = parse_with(&["--jobs", "abc"], &[]).expect_err("rejected");
        assert!(err.starts_with("--jobs: "), "{err}");
        let err = parse_with(&["--jobs"], &[]).expect_err("rejected");
        assert_eq!(err, "--jobs needs a value");
        let err = parse_with(&["--resume"], &[]).expect_err("rejected");
        assert_eq!(err, "unknown option --resume");
        let err = parse_with(&[], &[(FAULTS_ENV, "bogus")]).expect_err("rejected");
        assert_eq!(err, "FFET_FAULTS: unknown fault \"bogus\"");
    }
}
