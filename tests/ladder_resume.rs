//! The recovery ladder's rung-1 handoff: `run_flow_resilient` continues
//! attempt 0's routing negotiation instead of rerunning placement and the
//! base rounds, and must still be indistinguishable from running a plain
//! `run_flow` on every `recover::config_for_attempt` config in turn — the
//! same `AttemptLog`, the same `PpaReport`, and the same timing-stripped
//! spans and metrics (the `cached` provenance attribute aside, as
//! `diff_points` ignores it). Checked on naturally congested counter
//! configs (no fault plan) at pool widths 1 and 4, with the stage cache
//! off, cold and warm.

use ffet_cells::Library;
use ffet_core::recover::config_for_attempt;
use ffet_core::{
    designs, run_flow, run_flow_resilient, AttemptLog, AttemptRecord, FlowConfig, Pool, PpaReport,
};
use ffet_netlist::Netlist;
use ffet_obs::{AttrValue, PointData, SpanEvent};
use ffet_tech::{RoutingPattern, TechKind};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::path::PathBuf;

/// A ladder case: the config, the counter width, and how attempt 0's
/// rip-up loop stops.
struct Case {
    name: &'static str,
    config: FlowConfig,
    bits: usize,
    /// `route.round` spans rung 1 adds on top of attempt 0's.
    rung1_rounds: usize,
}

fn case(
    name: &'static str,
    tech: TechKind,
    front_layers: u8,
    utilization: f64,
    bits: usize,
    rung1_rounds: usize,
) -> Case {
    Case {
        name,
        bits,
        config: FlowConfig {
            pattern: RoutingPattern::new(front_layers, 0).expect("legal pattern"),
            utilization,
            max_attempts: 3,
            route_jobs: 1,
            deadline_ms: None,
            stage_cache: None,
            ..FlowConfig::baseline(tech)
        },
        rung1_rounds,
    }
}

/// Counter-pipeline configs that enter the ladder on their own.
fn cases() -> Vec<Case> {
    vec![
        // Routing overflow left after the base budget: rung 1 runs 8 more
        // rounds (recovers on rung 2).
        case("cfet-fm3-budget", TechKind::Cfet4t, 3, 0.70, 16, 8),
        // Same, exhausting the ladder.
        case("ffet-fm3-budget", TechKind::Ffet3p5t, 3, 0.70, 16, 8),
        // Routing overflow 0, DRVs from placement alone: rung 1 is an
        // exact repeat and runs no round at all.
        case("ffet-fm12-placement", TechKind::Ffet3p5t, 12, 0.97, 32, 0),
        // Deeply infeasible: the loop exits after round 2 either way.
        case("ffet-fm1-infeasible", TechKind::Ffet3p5t, 1, 0.90, 96, 0),
    ]
}

fn pieces(case: &Case) -> (Library, Netlist) {
    let library = case.config.build_library().expect("valid config");
    let netlist = designs::counter_pipeline(&library, case.bits);
    (library, netlist)
}

/// What one resilient point produced, in comparable form.
#[derive(Debug, PartialEq)]
struct Run {
    log: AttemptLog,
    report: Result<PpaReport, String>,
}

/// The reference ladder: a plain `run_flow` per `config_for_attempt`
/// config, wrapped in the same `flow.attempt` spans and `recover.*`
/// counters `run_flow_resilient` records.
fn reference(netlist: &Netlist, library: &Library, base: &FlowConfig) -> (Run, PointData) {
    ffet_obs::capture(|| {
        let mut log = AttemptLog::default();
        let mut best: Option<PpaReport> = None;
        for attempt in 0..base.max_attempts {
            let (cfg, rung) = config_for_attempt(base, attempt);
            let mut sp = ffet_obs::span("flow.attempt")
                .attr("attempt", attempt)
                .attr("rung", rung.to_string())
                .attr("seed", cfg.seed.to_string())
                .attr("utilization", cfg.utilization);
            ffet_obs::counter_add("recover.attempts", 1);
            let report = run_flow(netlist, library, &cfg)
                .expect("ladder cases never error")
                .report;
            let outcome = if report.valid {
                "valid".to_owned()
            } else {
                format!("invalid (drv {})", report.drv)
            };
            sp.set_attr("outcome", outcome.as_str());
            sp.close();
            log.attempts.push(AttemptRecord {
                attempt,
                rung,
                seed: cfg.seed,
                utilization: cfg.utilization,
                extra_reroute_rounds: cfg.extra_reroute_rounds,
                outcome,
            });
            if report.valid {
                if attempt == 0 {
                    ffet_obs::counter_add("recover.clean", 1);
                } else {
                    ffet_obs::counter_add("recover.recovered", 1);
                }
                return Run {
                    log,
                    report: Ok(report),
                };
            }
            if best.as_ref().is_none_or(|b| report.drv < b.drv) {
                best = Some(report);
            }
        }
        ffet_obs::counter_add("recover.failed", 1);
        Run {
            log,
            report: best.ok_or_else(|| "no outcome".to_owned()),
        }
    })
}

fn is_cached(e: &SpanEvent) -> bool {
    e.attrs
        .iter()
        .any(|(k, v)| k == "cached" && *v == AttrValue::Bool(true))
}

/// Counts, under the `flow.attempt` span of rung 1, the `pnr.place` /
/// `pnr.place2` and `route.round` spans that ran live: neither the span
/// nor any ancestor carries `cached=true`.
fn live_rung1(data: &PointData) -> (usize, usize) {
    let by_id: BTreeMap<u32, &SpanEvent> = data.events.iter().map(|e| (e.id, e)).collect();
    let rung1 = |e: &SpanEvent| {
        e.name == "flow.attempt"
            && e.attrs
                .iter()
                .any(|(k, v)| k == "attempt" && *v == AttrValue::Int(1))
    };
    // `Some(cached)` when `e` sits under rung 1's attempt span.
    let under_rung1 = |e: &SpanEvent| -> Option<bool> {
        let mut cached = is_cached(e);
        let mut parent = e.parent;
        while let Some(p) = parent.and_then(|id| by_id.get(&id)) {
            if rung1(p) {
                return Some(cached);
            }
            cached |= is_cached(p);
            parent = p.parent;
        }
        None
    };
    let live = |names: &[&str]| {
        data.events
            .iter()
            .filter(|e| names.contains(&e.name.as_str()) && under_rung1(e) == Some(false))
            .count()
    };
    (live(&["pnr.place", "pnr.place2"]), live(&["route.round"]))
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum CacheMode {
    Off,
    Cold,
    Warm,
}

fn run_grid(width: usize, cache: Option<&PathBuf>) -> Vec<(Run, PointData)> {
    let cases = cases();
    let jobs: Vec<usize> = (0..cases.len()).collect();
    Pool::new(width)
        .run(jobs, |&i| {
            let (library, netlist) = pieces(&cases[i]);
            let config = FlowConfig {
                stage_cache: cache.cloned(),
                ..cases[i].config.clone()
            };
            let r = run_flow_resilient(&netlist, &library, &config);
            Ok::<_, Infallible>(Run {
                log: r.log,
                report: r.outcome.map(|o| o.report).map_err(|e| e.to_string()),
            })
        })
        .into_iter()
        .map(|o| match o.result {
            Ok(run) => (run, o.trace),
            Err(e) => panic!("ladder job failed: {e:?}"),
        })
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffet-ladder-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const MODES: [CacheMode; 3] = [CacheMode::Off, CacheMode::Cold, CacheMode::Warm];

#[test]
fn rung1_continuation_equals_plain_run_flow_per_attempt() {
    let cases = cases();
    // The reference ladder per cache mode, with a stage cache of its own:
    // a cached run merges each stage's captured histograms at once, which
    // rounds float sums differently from observing them inline, so cached
    // runs are compared against cached references.
    let ref_root = scratch("reference");
    let references: Vec<Vec<(Run, PointData)>> = MODES
        .iter()
        .map(|&mode| {
            cases
                .iter()
                .map(|c| {
                    let (library, netlist) = pieces(c);
                    let config = FlowConfig {
                        stage_cache: (mode != CacheMode::Off).then(|| ref_root.clone()),
                        ..c.config.clone()
                    };
                    reference(&netlist, &library, &config)
                })
                .collect()
        })
        .collect();
    let _ = std::fs::remove_dir_all(&ref_root);
    for (c, (run, _)) in cases.iter().zip(&references[0]) {
        assert!(
            run.log.attempts.len() >= 2 && run.log.attempts[0].outcome.starts_with("invalid"),
            "{}: must enter the ladder naturally, got {:?}",
            c.name,
            run.log
        );
    }

    for width in [1, 4] {
        let root = scratch(&format!("width{width}"));
        for (mode, references) in MODES.iter().zip(&references) {
            let cache = (*mode != CacheMode::Off).then_some(&root);
            let runs = run_grid(width, cache);
            for ((c, (want, want_data)), (got, got_data)) in cases.iter().zip(references).zip(&runs)
            {
                let what = format!("{} at width {width}, cache {mode:?}", c.name);
                assert_eq!(got, want, "{what}: log/report");
                let diffs = ffet_obs::diff::diff_points(want_data, got_data);
                assert!(diffs.is_empty(), "{what}: trace differs: {diffs:?}");
                let (place, rounds) = live_rung1(got_data);
                if *mode == CacheMode::Warm {
                    // Every stage replays from the cache: nothing is live.
                    assert_eq!((place, rounds), (0, 0), "{what}: warm rung 1 ran work");
                } else {
                    assert_eq!(place, 0, "{what}: rung 1 re-placed");
                    assert_eq!(rounds, c.rung1_rounds, "{what}: rung-1 rounds");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
