//! Golden-run regression tests: the experiment tables for the CounterSmall
//! design, diffed byte-for-byte against checked-in CSVs under
//! `tests/golden/`.
//!
//! These pin the full pipeline — synthesis, P&R, extraction, STA, table
//! formatting — so any unintended numeric or formatting drift fails CI.
//! Each flow golden is checked at two widths in-process — serial, and four
//! DoE workers with a four-worker router — so the byte-identical-at-any-
//! width contract is pinned against the checked-in bytes too.
//!
//! After an *intentional* change to flow numerics, re-bless the goldens:
//!
//! ```text
//! FFET_BLESS=1 cargo test -p ffet-core --test golden_experiments
//! ```

use ffet_core::experiments::{self, DesignKind};
use ffet_core::RunEnv;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/golden/{name}.csv"))
}

/// Diffs `fresh` against the checked-in golden, or regenerates the golden
/// when `FFET_BLESS=1` is set.
fn check_golden(name: &str, fresh: &str) {
    let path = golden_path(name);
    if std::env::var("FFET_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, fresh).expect("write golden");
        // Bless-mode feedback for the human running FFET_BLESS=1.
        #[allow(clippy::print_stderr)]
        {
            eprintln!("blessed {}", path.display());
        }
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with FFET_BLESS=1 cargo test -p ffet-core --test golden_experiments",
            path.display()
        )
    });
    if want != fresh {
        let diff_line = want
            .lines()
            .zip(fresh.lines())
            .position(|(a, b)| a != b)
            .map_or_else(
                || {
                    format!(
                        "line counts differ ({} vs {})",
                        want.lines().count(),
                        fresh.lines().count()
                    )
                },
                |i| {
                    format!(
                        "first difference at line {}:\n  golden: {}\n  fresh:  {}",
                        i + 1,
                        want.lines().nth(i).unwrap_or(""),
                        fresh.lines().nth(i).unwrap_or("")
                    )
                },
            );
        panic!(
            "{name} drifted from tests/golden/{name}.csv — {diff_line}\n\
             If the change is intentional, re-bless with FFET_BLESS=1."
        );
    }
}

/// Checks the counter-design CSV of the registered experiment `name`
/// against its golden at pool widths 1 and 4 (the router following the
/// pool width).
fn check_flow_golden(name: &str) {
    let &(_, experiment) = experiments::EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .expect("registered experiment");
    for jobs in [1, 4] {
        let run = RunEnv::new(DesignKind::CounterSmall).with_jobs(jobs);
        check_golden(&format!("{name}_counter"), &experiment(&run).table.to_csv());
    }
}

#[test]
fn golden_fig8_counter() {
    check_flow_golden("fig8");
}

#[test]
fn golden_fig9_counter() {
    check_flow_golden("fig9");
}

#[test]
fn golden_table3_counter() {
    check_flow_golden("table3");
}

#[test]
fn golden_ablation_counter() {
    check_flow_golden("ablation");
}

/// The analytic (non-flow) tables are golden-pinned too; they are cheap and
/// catch library/characterization drift at the source.
#[test]
fn golden_table1() {
    check_golden("table1", &experiments::table1().table.to_csv());
}

#[test]
fn golden_fig4() {
    check_golden("fig4", &experiments::fig4().table.to_csv());
}
