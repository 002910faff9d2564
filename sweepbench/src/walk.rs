//! The traced stage walk: the flow of `run_flow_resilient`, driven stage by
//! stage through each crate's public entry point, with a benchmark-side
//! span around every call so each layer's time can be attributed.
//!
//! Span names (all recorded from this file, none inside the program):
//! `bench.point` → `bench.attempt` (attr `attempt`) → `bench.stage` (attr
//! `stage`, wraps the stage-cache lookup/store) → on a cache miss the
//! compute call `bench.{synth,pnr,merge,signoff,rcx,sta}`; `bench.drop`
//! frees the attempt's artifacts. `run_pnr`'s own
//! `pnr.*`/`route.*` spans split the P&R layer further.

use ffet_cells::Library;
use ffet_core::recover::config_for_attempt;
use ffet_core::stagecache::{self, run_stage, Stage, StageCache};
use ffet_core::{
    synthesize, FlowConfig, FlowError, PointDisposition, PointRecovery, PpaReport, SynthConfig,
};
use ffet_lefdef::{merge_defs, Def};
use ffet_netlist::Netlist;
use ffet_pnr::{pin_position, run_pnr, CancelToken, PnrConfig, PnrResult};
use ffet_rcx::{extract_net_with, ExtractScratch, NetParasitics};
use ffet_sta::{analyze_power, analyze_timing, StaConfig};
use ffet_verify::run_signoff;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What the walk of one point produced.
#[derive(Debug, Clone)]
pub struct WalkOutcome {
    pub result: Result<(PpaReport, PointRecovery), String>,
    /// Nets extracted (cache hits extract none).
    pub nets: u64,
}

/// Runs one point through the recovery ladder, attempt by attempt as
/// `recover::config_for_attempt` yields them, keeping the first valid
/// attempt, else the fewest-DRV invalid one, else the last error.
#[must_use]
pub fn walk_point(netlist: &Netlist, library: &Library, base: &FlowConfig) -> WalkOutcome {
    let point = ffet_obs::span("bench.point");
    let max_attempts = base.max_attempts.max(1);
    let mut nets = 0;
    let mut best_invalid: Option<(PpaReport, bool)> = None;
    let mut last_error = String::new();
    for attempt in 0..max_attempts {
        let (config, _) = config_for_attempt(base, attempt);
        let relaxed = config.utilization < base.utilization;
        let sp = ffet_obs::span("bench.attempt").attr("attempt", attempt);
        let result = catch_unwind(AssertUnwindSafe(|| {
            walk_flow(netlist, library, &config, &mut nets)
        }));
        sp.close();
        match result {
            Ok(Ok(report)) if report.valid => {
                point.close();
                let disposition = if attempt == 0 {
                    PointDisposition::Clean
                } else {
                    PointDisposition::Recovered(attempt)
                };
                let recovery = PointRecovery {
                    disposition,
                    attempts: attempt + 1,
                    relaxed,
                };
                return WalkOutcome {
                    result: Ok((report, recovery)),
                    nets,
                };
            }
            Ok(Ok(report)) => {
                if best_invalid
                    .as_ref()
                    .is_none_or(|(b, _)| report.drv < b.drv)
                {
                    best_invalid = Some((report, relaxed));
                }
            }
            Ok(Err(e)) => last_error = e.to_string(),
            Err(_) => last_error = "attempt panicked".to_owned(),
        }
    }
    point.close();
    let failed = |relaxed| PointRecovery {
        disposition: PointDisposition::Failed(max_attempts - 1),
        attempts: max_attempts,
        relaxed,
    };
    WalkOutcome {
        result: best_invalid
            .map(|(report, relaxed)| (report, failed(relaxed)))
            .ok_or(last_error),
        nets,
    }
}

/// One attempt: the six flow stages, each through the stage cache exactly
/// as `run_flow` keys and stores them.
fn walk_flow(
    netlist: &Netlist,
    library: &Library,
    config: &FlowConfig,
    nets: &mut u64,
) -> Result<PpaReport, FlowError> {
    let cache = config.stage_cache.as_deref().map(StageCache::new);
    let cache = cache.as_ref();

    let sp = ffet_obs::span("bench.stage").attr("stage", "synth");
    let key = cache.map(|_| stagecache::synth_key(config, netlist));
    let (netlist, _, synth_addr) = run_stage(
        cache,
        key,
        Stage::Synth.name(),
        stagecache::encode_synth,
        stagecache::decode_synth,
        || {
            let sp = ffet_obs::span("bench.synth");
            let mut netlist = netlist.clone();
            let synth = SynthConfig::for_target(config.target_freq_ghz);
            synthesize(&mut netlist, library, &synth).map_err(FlowError::Synth)?;
            Ok::<_, FlowError>((netlist, sp.close_ms()))
        },
    )?;
    sp.close();

    let sp = ffet_obs::span("bench.stage").attr("stage", "pnr");
    let pnr_config = PnrConfig {
        utilization: config.utilization,
        aspect_ratio: config.aspect_ratio,
        pattern: config.pattern,
        seed: config.seed,
        bridging_min_nm: config.bridging_min_nm,
        extra_reroute_rounds: config.extra_reroute_rounds,
        route_jobs: config.route_jobs,
        route_panic: false,
        cancel: CancelToken::none(),
    };
    let key = synth_addr
        .as_deref()
        .map(|a| stagecache::pnr_key(config, a));
    let ((netlist, pnr), _, pnr_addr) = run_stage(
        cache,
        key,
        Stage::Pnr.name(),
        stagecache::encode_pnr,
        stagecache::decode_pnr,
        || {
            let sp = ffet_obs::span("bench.pnr");
            let mut netlist = netlist;
            let pnr = run_pnr(&mut netlist, library, &pnr_config)?;
            Ok::<_, FlowError>(((netlist, pnr), sp.close_ms()))
        },
    )?;
    sp.close();

    let sp = ffet_obs::span("bench.stage").attr("stage", "merge");
    let (merged, _, merge_addr) = run_stage(
        cache,
        pnr_addr.as_deref().map(stagecache::merge_key),
        Stage::Merge.name(),
        stagecache::encode_merge,
        stagecache::decode_merge,
        || {
            let sp = ffet_obs::span("bench.merge");
            let merged = merge_defs(&pnr.front_def, &pnr.back_def)
                .map_err(|e| FlowError::Merge(e.to_string()))?;
            Ok::<_, FlowError>((merged, sp.close_ms()))
        },
    )?;
    sp.close();

    let addrs = pnr_addr.as_deref().zip(merge_addr.as_deref());
    let sp = ffet_obs::span("bench.stage").attr("stage", "signoff");
    let (signoff, _, _) = run_stage(
        cache,
        addrs.map(|(p, m)| stagecache::signoff_key(config, p, m)),
        Stage::Signoff.name(),
        stagecache::encode_signoff_payload,
        stagecache::decode_signoff_payload,
        || {
            let sp = ffet_obs::span("bench.signoff");
            let signoff = run_signoff(&netlist, library, config.pattern, &pnr, &merged);
            if !signoff.is_clean() {
                return Err(FlowError::Signoff(signoff));
            }
            Ok((signoff, sp.close_ms()))
        },
    )?;
    sp.close();

    let sp = ffet_obs::span("bench.stage").attr("stage", "rcx");
    let (parasitics, _, rcx_addr) = run_stage(
        cache,
        addrs.map(|(p, m)| stagecache::rcx_key(config, p, m)),
        Stage::Rcx.name(),
        |parasitics, data| stagecache::encode_rcx(parasitics, data),
        stagecache::decode_rcx,
        || {
            let sp = ffet_obs::span("bench.rcx");
            let parasitics = extract_all(&netlist, library, &pnr, &merged);
            *nets += parasitics.iter().flatten().count() as u64;
            Ok::<_, FlowError>((parasitics, sp.close_ms()))
        },
    )?;
    sp.close();

    let sp = ffet_obs::span("bench.stage").attr("stage", "sta");
    let sta_config = StaConfig {
        clock_period_ps: 1000.0 / config.target_freq_ghz,
        activity: config.activity,
        input_slew_ps: 10.0,
    };
    let key = pnr_addr
        .as_deref()
        .zip(rcx_addr.as_deref())
        .map(|(p, r)| stagecache::sta_key(config, p, r));
    let ((timing, power), _, _) = run_stage(
        cache,
        key,
        Stage::Sta.name(),
        stagecache::encode_sta,
        stagecache::decode_sta,
        || {
            let sp = ffet_obs::span("bench.sta");
            let timing = analyze_timing(&netlist, library, &parasitics, &sta_config)
                .map_err(|e| FlowError::CombLoop(e.instance))?;
            let power = analyze_power(
                &netlist,
                library,
                &parasitics,
                &sta_config,
                config.target_freq_ghz,
            );
            Ok::<_, FlowError>(((timing, power), sp.close_ms()))
        },
    )?;
    sp.close();

    let report = PpaReport {
        tech: library.tech().to_string(),
        pattern: config.pattern,
        back_pin_ratio: config.back_pin_ratio,
        target_freq_ghz: config.target_freq_ghz,
        utilization: config.utilization,
        core_area_um2: pnr.floorplan.core_area_nm2() as f64 / 1e6,
        achieved_freq_ghz: timing.max_frequency_ghz,
        power_mw: power.total_mw(),
        leakage_mw: power.leakage_mw,
        clock_mw: power.clock_mw,
        drv: pnr.drv_count(),
        valid: pnr.is_valid(library),
        signoff_warnings: signoff.drv_warnings(),
        signoff: signoff.verdict().to_owned(),
        wirelength_mm: pnr.routing.wirelength_nm as f64 / 1e6,
        back_wirelength_mm: pnr.routing.back_wirelength_nm as f64 / 1e6,
        vias: pnr.routing.via_count,
        cells: netlist.instances().len(),
    };
    // Freeing the attempt's artifacts is flow work too (the untraced flow
    // drops the same values); time it so the spans cover the attempt.
    let sp = ffet_obs::span("bench.drop");
    drop((netlist, pnr, merged, signoff, parasitics, timing, power));
    sp.close();
    Ok(report)
}

/// Extracts every net of the merged DEF with `extract_net_with`, sinks in
/// `net.sinks` order (the STA contract); the source is the driver pin, or
/// the input port for port-driven nets.
fn extract_all(
    netlist: &Netlist,
    library: &Library,
    pnr: &PnrResult,
    merged: &Def,
) -> Vec<Option<NetParasitics>> {
    let tech = library.tech();
    let by_name: std::collections::HashMap<&str, &ffet_lefdef::DefNet> =
        merged.nets.iter().map(|n| (n.name.as_str(), n)).collect();
    let mut scratch = ExtractScratch::new();
    netlist
        .nets()
        .iter()
        .map(|net| {
            let def_net = by_name.get(net.name.as_str())?;
            let source = net
                .driver
                .map(|d| pin_position(netlist, library, &pnr.placement, d))
                .or_else(|| {
                    netlist
                        .ports()
                        .iter()
                        .enumerate()
                        .find(|(_, p)| {
                            netlist.nets()[p.net.0 as usize].name == net.name
                                && p.direction == ffet_netlist::PortDirection::Input
                        })
                        .map(|(pi, _)| pnr.placement.port_positions[pi])
                })?;
            let sinks: Vec<_> = net
                .sinks
                .iter()
                .map(|&s| pin_position(netlist, library, &pnr.placement, s))
                .collect();
            Some(extract_net_with(
                def_net,
                tech,
                source,
                &sinks,
                &mut scratch,
            ))
        })
        .collect()
}
