//! Smoke test of the benchmark driver on the small counter design.

use ffet_core::experiments::DesignKind;
use ffet_sweepbench::bench::{self, Args, END_TO_END, OVERHEAD, PER_LAYER};
use ffet_sweepbench::workload::Workload;
use std::path::{Path, PathBuf};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn scratch(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("sweepbench-{tag}"))
}

fn args(workload: Workload, trace: bool, tag: &str, reference: Option<PathBuf>) -> Args {
    Args {
        workload,
        seed: 42,
        seconds: 0.0,
        trace,
        design: DesignKind::CounterSmall,
        work: scratch(tag),
        reference,
    }
}

/// The checked-in Fig. 9 table of the counter design at seed 42.
fn counter_reference() -> PathBuf {
    manifest_dir().join("../tests/golden/fig9_counter.csv")
}

fn metric(outcome: &bench::Outcome, name: &str) -> f64 {
    let Some(&(_, value, _)) = outcome.metrics.iter().find(|(n, ..)| *n == name) else {
        panic!("metric {name} missing");
    };
    value
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .chain([&OVERHEAD])
        .map(|(n, _)| *n)
        .collect();
    for name in &names {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "metric name {name}"
        );
    }
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let json = ffet_obs::parse_json(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        match json.get(key) {
            Some(ffet_obs::Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(ffet_obs::Json::as_str)
                            .unwrap_or("")
                            .to_owned()
                    };
                    (s("name"), s("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json lacks {key}"),
        }
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    let mut per_layer = own(&PER_LAYER);
    per_layer.push((OVERHEAD.0.to_owned(), OVERHEAD.1.to_owned()));
    assert_eq!(listed("per_layer"), per_layer);
    let workloads: Vec<String> = match json.get("workloads") {
        Some(ffet_obs::Json::Arr(items)) => items
            .iter()
            .filter_map(|w| {
                w.get("name")
                    .and_then(ffet_obs::Json::as_str)
                    .map(str::to_owned)
            })
            .collect(),
        _ => panic!("BENCHMARK.json lacks workloads"),
    };
    let own_workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, own_workloads);
}

#[test]
fn gate_passes_on_the_reference_and_trips_on_a_perturbed_row() {
    let good = bench::run(&args(
        Workload::Fig9Ladder,
        false,
        "good",
        Some(counter_reference()),
    ))
    .expect("benchmark runs");
    assert!(good.correct(), "{:?}", good.problems);
    assert_eq!(good.failed, 0);
    assert!(good.attempted >= 1);
    for (name, _) in END_TO_END {
        assert!(metric(&good, name) > 0.0, "{name} is not positive");
    }

    let reference = std::fs::read_to_string(counter_reference()).expect("reference CSV");
    let row = "3.5T FFET FM12,2.00,0.777,0.272,0";
    assert!(reference.contains(row), "reference row moved");
    let perturbed = scratch("perturbed.csv");
    std::fs::create_dir_all(perturbed.parent().expect("parent")).expect("mkdir");
    std::fs::write(
        &perturbed,
        reference.replace(row, "3.5T FFET FM12,2.00,0.778,0.272,0"),
    )
    .expect("write perturbed reference");
    let bad = bench::run(&args(Workload::Fig9Ladder, false, "bad", Some(perturbed)))
        .expect("benchmark runs");
    assert!(!bad.correct());
    assert!(bad.failed >= 1);
    assert!(bad
        .problems
        .iter()
        .any(|p| p.contains("3.5T FFET FM12,2.00")));
}

#[test]
fn traced_warm_run_replays_everything_and_matches_the_flow() {
    let warm = bench::run(&args(
        Workload::Fig9Warm,
        true,
        "warm",
        Some(counter_reference()),
    ))
    .expect("benchmark runs");
    assert!(warm.correct(), "{:?}", warm.problems);
    assert_eq!(metric(&warm, "stagecache.hit_rate"), 1.0);
    assert_eq!(metric(&warm, "route.rounds"), 0.0);
    assert_eq!(metric(&warm, "stagecache.misses"), 0.0);
    let names: Vec<&str> = warm.metrics.iter().map(|(n, ..)| *n).collect();
    assert_eq!(names.len(), PER_LAYER.len() + 1);

    let cold = bench::run(&args(Workload::Fig9Ladder, true, "cold", None)).expect("benchmark runs");
    assert!(cold.correct(), "{:?}", cold.problems);
    assert!(metric(&cold, "stagecache.misses") > 0.0);
    assert!(metric(&cold, "pnr.place_ms") > 0.0);
}
