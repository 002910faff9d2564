//! The benchmark's workloads: the paper's Fig. 9 and Fig. 11 sweep grids,
//! generated from the workload seed, plus the tables they reproduce.

use ffet_cells::Library;
use ffet_core::experiments::{DesignKind, ExpTable};
use ffet_core::{designs, pct_diff, FaultPlan, FlowConfig, FlowError, PointRecovery, PpaReport};
use ffet_netlist::Netlist;
use ffet_tech::{RoutingPattern, TechKind};
use std::path::PathBuf;

/// Worker threads of the DoE pool: the whole benchmark is one closed-loop
/// client with at most this many compute threads.
pub const POOL_WIDTH: usize = 2;

/// Attempt budget of the recovery ladder (the flow's default).
pub const MAX_ATTEMPTS: u32 = 3;

/// Seed at which the tables must reproduce the checked-in CSVs.
pub const REFERENCE_SEED: u64 = 42;

/// Synthesis targets of the Fig. 9 grid, GHz.
pub const FIG9_TARGETS: [f64; 6] = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0];

/// Backside input-pin densities of the Fig. 11 DoE: all five of the paper's.
pub const FIG11_BACK_PIN_RATIOS: [f64; 5] = [0.04, 0.16, 0.30, 0.40, 0.50];

/// Utilizations of the Fig. 11 DoE: two of the paper's six (46–76%). 76% is
/// left out because there the placement seed decides whether the
/// FP0.96BP0.04 points enter the recovery ladder.
///
/// With the pin densities above, the grid is 30 of the DoE's 90 points, to
/// fit the benchmark's run budget; each kept row is still checked against
/// the full checked-in table.
pub const FIG11_UTILS: [f64; 2] = [0.46, 0.64];

/// Placement-seed offsets tried per Fig. 11 point (`s`, `s+1000`,
/// `s+9000`); the table keeps the fewest-DRV run.
pub const FIG11_SEED_OFFSETS: [u64; 3] = [0, 1000, 9000];

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 9 with a cold stage cache: the recovery ladder dominates.
    Fig9Ladder,
    /// The Fig. 11 dual-sided pin-density DoE with a cold stage cache.
    Fig11Dualside,
    /// Fig. 9 replayed from a stage cache that set-up filled.
    Fig9Warm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig9Ladder,
        Workload::Fig11Dualside,
        Workload::Fig9Warm,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9Ladder => "fig9_ladder",
            Workload::Fig11Dualside => "fig11_dualside",
            Workload::Fig9Warm => "fig9_warm",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    #[must_use]
    pub fn figure(self) -> Figure {
        match self {
            Workload::Fig9Ladder | Workload::Fig9Warm => Figure::Fig9,
            Workload::Fig11Dualside => Figure::Fig11,
        }
    }

    /// Whether the timed sweeps replay a cache filled during set-up.
    #[must_use]
    pub fn warm(self) -> bool {
        self == Workload::Fig9Warm
    }

    /// The placement seed the workload's points run with for `--seed`.
    ///
    /// Fig. 11 seeds every point from the workload seed. The Fig. 9 grid
    /// sits on the validity edge of FFET FM12 (76% utilization), where the
    /// placement seed decides which points enter the recovery ladder (5 of
    /// 12 at seed 42, from 3 to 7 at seeds 1, 2, 3, 5 and 6), and with them
    /// most of the sweep's time; so the Fig. 9 workloads always run the
    /// paper's grid at [`REFERENCE_SEED`], as `repro fig9` does.
    #[must_use]
    pub fn placement_seed(self, seed: u64) -> u64 {
        match self.figure() {
            Figure::Fig9 => REFERENCE_SEED,
            Figure::Fig11 => seed,
        }
    }

    /// The workload's grid on `design` for the workload seed `seed`.
    #[must_use]
    pub fn grid(self, design: DesignKind, seed: u64) -> Grid {
        Grid::new(self.figure(), design, self.placement_seed(seed))
    }
}

/// Which paper figure a grid reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    Fig9,
    Fig11,
}

impl Figure {
    /// The checked-in CSV the table reproduces at [`REFERENCE_SEED`].
    #[must_use]
    pub fn reference_csv(self) -> &'static str {
        match self {
            Figure::Fig9 => "results/fig9.csv",
            Figure::Fig11 => "results/fig11.csv",
        }
    }

    #[must_use]
    pub fn csv_name(self) -> &'static str {
        match self {
            Figure::Fig9 => "fig9.csv",
            Figure::Fig11 => "fig11.csv",
        }
    }
}

/// One configuration column of a figure: it owns a library and netlist.
#[derive(Debug, Clone)]
pub struct Group {
    pub label: String,
    pub base: FlowConfig,
}

/// One flow point of the grid.
#[derive(Debug, Clone)]
pub struct Point {
    pub group: usize,
    pub label: String,
    pub config: FlowConfig,
}

/// A workload's generated inputs: everything the flow receives.
#[derive(Debug, Clone)]
pub struct Grid {
    pub figure: Figure,
    pub design: DesignKind,
    pub groups: Vec<Group>,
    pub points: Vec<Point>,
}

/// The flow's default configuration with every knob that `FlowConfig::
/// baseline` would otherwise take from the environment set explicitly.
fn pinned(tech: TechKind, seed: u64) -> FlowConfig {
    FlowConfig {
        seed,
        max_attempts: MAX_ATTEMPTS,
        route_jobs: 1,
        deadline_ms: None,
        fault_plan: FaultPlan::default(),
        stage_cache: None,
        ..FlowConfig::baseline(tech)
    }
}

impl Grid {
    /// The grid of `figure` on `design`, every point seeded from `seed`.
    #[must_use]
    pub fn new(figure: Figure, design: DesignKind, seed: u64) -> Grid {
        let mut groups = Vec::new();
        let mut points = Vec::new();
        match figure {
            Figure::Fig9 => {
                for (label, tech) in [
                    ("4T CFET", TechKind::Cfet4t),
                    ("3.5T FFET FM12", TechKind::Ffet3p5t),
                ] {
                    let base = FlowConfig {
                        utilization: 0.76,
                        ..pinned(tech, seed)
                    };
                    for t in FIG9_TARGETS {
                        points.push(Point {
                            group: groups.len(),
                            label: format!("{label}/t{t:.2}"),
                            config: FlowConfig {
                                target_freq_ghz: t,
                                ..base.clone()
                            },
                        });
                    }
                    groups.push(Group {
                        label: label.to_owned(),
                        base,
                    });
                }
            }
            Figure::Fig11 => {
                for bp in FIG11_BACK_PIN_RATIOS {
                    let label = format!("FP{:.2}BP{bp:.2}", 1.0 - bp);
                    // As in `experiments::fig11`, the pin redistribution of
                    // each library is seeded with the reference seed; the
                    // workload seed moves the placements.
                    let base = FlowConfig {
                        pattern: RoutingPattern::fixed(12, 12),
                        back_pin_ratio: bp,
                        ..pinned(TechKind::Ffet3p5t, REFERENCE_SEED)
                    };
                    for u in FIG11_UTILS {
                        for off in FIG11_SEED_OFFSETS {
                            let s = seed.wrapping_add(off);
                            points.push(Point {
                                group: groups.len(),
                                label: format!("{label}/u{u:.2}/s{s}"),
                                config: FlowConfig {
                                    utilization: u,
                                    seed: s,
                                    ..base.clone()
                                },
                            });
                        }
                    }
                    groups.push(Group { label, base });
                }
            }
        }
        Grid {
            figure,
            design,
            groups,
            points,
        }
    }

    /// The grid with every point's stage cache rooted at `root`.
    #[must_use]
    pub fn with_cache(&self, root: Option<PathBuf>) -> Vec<FlowConfig> {
        self.points
            .iter()
            .map(|p| FlowConfig {
                stage_cache: root.clone(),
                ..p.config.clone()
            })
            .collect()
    }

    /// Builds each group's library and netlist (the benchmark's set-up).
    ///
    /// # Errors
    ///
    /// A group whose configuration does not build a library.
    pub fn contexts(&self) -> Result<Vec<(Library, Netlist)>, FlowError> {
        self.groups
            .iter()
            .map(|g| {
                let library = g.base.build_library()?;
                let netlist = match self.design {
                    DesignKind::Rv32 => designs::rv32_core(&library),
                    DesignKind::CounterSmall => designs::counter_pipeline(&library, 24),
                };
                Ok((library, netlist))
            })
            .collect()
    }

    /// The figure's table from the per-point results (`None` = the point
    /// produced no flow outcome), in the format of the checked-in CSV.
    #[must_use]
    pub fn table(&self, results: &[Option<(PpaReport, PointRecovery)>]) -> ExpTable {
        match self.figure {
            Figure::Fig9 => self.fig9_table(results),
            Figure::Fig11 => self.fig11_table(results),
        }
    }

    fn fig9_table(&self, results: &[Option<(PpaReport, PointRecovery)>]) -> ExpTable {
        let mut rows = Vec::new();
        let mut best = vec![0.0f64; self.groups.len()];
        for (p, r) in self.points.iter().zip(results) {
            let Some((report, _)) = r else { continue };
            rows.push(vec![
                self.groups[p.group].label.clone(),
                format!("{:.2}", p.config.target_freq_ghz),
                format!("{:.3}", report.achieved_freq_ghz),
                format!("{:.3}", report.power_mw),
                report.drv.to_string(),
            ]);
            best[p.group] = best[p.group].max(report.achieved_freq_ghz);
        }
        let mut notes = vec![
            "paper: FFET FM12 +25.0% frequency and −11.9% power vs CFET at 76% utilization"
                .to_owned(),
        ];
        if best[0] > 0.0 {
            notes.push(format!(
                "measured best achieved frequency: FFET {:+.1}% vs CFET",
                pct_diff(best[1], best[0])
            ));
        }
        ExpTable {
            title: "Fig. 9 — power–frequency, CFET vs FFET FM12 (util 76%)".into(),
            header: ["Config", "Target GHz", "Achieved GHz", "Power mW", "DRV"]
                .map(String::from)
                .to_vec(),
            rows,
            notes,
        }
    }

    /// Best-of-seeds assembly: per (pin density, utilization), the
    /// fewest-DRV seed wins, an off-spec (relaxed) run loses to any on-spec
    /// one, and ties keep the earliest seed.
    fn fig11_table(&self, results: &[Option<(PpaReport, PointRecovery)>]) -> ExpTable {
        let per_util = FIG11_SEED_OFFSETS.len();
        let mut rows = Vec::new();
        let mut notes = vec![
            "paper: FP0.5BP0.5 and FP0.6BP0.4 best, FP0.7BP0.3 next, FP0.84/FP0.96 trailing"
                .to_owned(),
        ];
        let mut means = Vec::new();
        for (gi, group) in self.groups.iter().enumerate() {
            let (mut fsum, mut psum, mut n) = (0.0, 0.0, 0.0);
            for (ui, u) in FIG11_UTILS.iter().enumerate() {
                let first = (gi * FIG11_UTILS.len() + ui) * per_util;
                let mut runs: Vec<&(PpaReport, PointRecovery)> =
                    results[first..first + per_util].iter().flatten().collect();
                runs.sort_by_key(|(r, rec)| (rec.relaxed, r.drv));
                let Some((best, _)) = runs.first() else {
                    continue;
                };
                rows.push(vec![
                    group.label.clone(),
                    format!("{:.0}%", u * 100.0),
                    format!("{:.3}", best.achieved_freq_ghz),
                    format!("{:.3}", best.power_mw),
                    best.drv.to_string(),
                ]);
                fsum += best.achieved_freq_ghz;
                psum += best.power_mw;
                n += 1.0;
            }
            if n > 0.0 {
                means.push((group.base.back_pin_ratio, fsum / n, psum / n));
            }
        }
        for (bp, f, p) in means {
            notes.push(format!(
                "BP{bp:.2}: mean achieved {f:.3} GHz at mean {p:.3} mW"
            ));
        }
        ExpTable {
            title: "Fig. 11 — pin-density DoEs under FM12BM12 (util 46–76%)".into(),
            header: ["DoE", "Util", "Achieved GHz", "Power mW", "DRV"]
                .map(String::from)
                .to_vec(),
            rows,
            notes,
        }
    }
}

/// Compares a table against a reference CSV. Every row must equal the
/// reference row with the same first two cells (configuration and sweep
/// value); when the table covers the whole reference, the CSV must match
/// byte for byte. Returns one message per mismatch.
#[must_use]
pub fn reference_mismatches(table: &ExpTable, reference_csv: &str) -> Vec<String> {
    let csv = table.to_csv();
    if csv == reference_csv {
        return Vec::new();
    }
    let reference_rows: Vec<&str> = reference_csv
        .lines()
        .skip(1)
        .filter(|l| !l.starts_with('#'))
        .collect();
    let key = |line: &str| line.splitn(3, ',').take(2).collect::<Vec<_>>().join(",");
    let mut out = Vec::new();
    for line in csv.lines().skip(1).filter(|l| !l.starts_with('#')) {
        match reference_rows.iter().find(|r| key(r) == key(line)) {
            Some(r) if *r == line => {}
            Some(r) => out.push(format!("row `{line}` differs from reference `{r}`")),
            None => out.push(format!("row `{line}` has no reference row")),
        }
    }
    if table.rows.len() == reference_rows.len() && out.is_empty() {
        out.push("table notes differ from the reference CSV".to_owned());
    }
    out
}
