//! Congestion-negotiated global routing over the dual-sided GCell grid.
//!
//! Nets are decomposed into 2-pin connections by a Manhattan MST, routed
//! with pattern candidates (L- and Z-shapes inside the bounding box), and
//! refined by rip-up-and-reroute rounds that re-price overflowed GCells
//! (PathFinder-style history costs). Residual overflow after the final round is
//! the framework's DRV proxy: the detailed router would turn every track
//! over capacity into a short or spacing violation.
//!
//! **Batched rounds.** Each rip-up round processes its worklist in
//! fixed-size batches (see [`crate::calib::ROUTE_BATCH`]): the batch is
//! selected against the live grid in ascending connection-id order, ripped
//! up together, routed against the now-*frozen* grid — in parallel across
//! an [`ffet_pool::Pool`] when [`RouteOpts::route_jobs`] > 1 — and
//! committed serially in ascending id order. Because every batch member
//! reads the same immutable snapshot and commits in a fixed order, the
//! worker count changes wall-clock only, never a single path, cost, or
//! counter (see DESIGN §7).
//!
//! **Resumable negotiation.** The loop's state is a `RouteSession`:
//! stopping at one round budget and resuming to a larger one is exactly one
//! run at the larger budget, so the recovery ladder's extra-reroute rung
//! continues a finished run instead of routing again (DESIGN §8).

use crate::calib::REROUTE_ITERATIONS;
use crate::dualside::SideNet;
use crate::grid::{GCell, RoutingGrid};
use crate::maze::{self, MazeScratch};
use ffet_geom::{Axis, Nm, Point};
use ffet_lefdef::{DefVia, DefWire};
use ffet_netlist::NetId;
use ffet_pool::{CancelToken, JobError, Pool};
use ffet_tech::{LayerId, RoutingPattern, Side, Technology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The routed geometry of one (sub-)net on one side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedNet {
    /// The original netlist net.
    pub net: NetId,
    /// Side the geometry is on.
    pub side: Side,
    /// Wire segments (nm coordinates, GCell-center resolution + pin stubs).
    pub wires: Vec<DefWire>,
    /// Vias (bends and pin stacks).
    pub vias: Vec<DefVia>,
}

/// Routing outcome for a whole design.
#[derive(Debug, Clone)]
pub struct RoutingResult {
    /// Per-net routed geometry.
    pub nets: Vec<RoutedNet>,
    /// Total overflow in track·GCells after the final iteration.
    pub overflow_tracks: f64,
    /// DRV proxy (⌈overflow⌉) checked against the "< 10" validity rule.
    pub drv_count: u32,
    /// Total routed wirelength, nm.
    pub wirelength_nm: Nm,
    /// Total via count.
    pub via_count: usize,
    /// Peak demand/capacity ratio.
    pub peak_congestion: f64,
    /// Wirelength on the backside only, nm (reporting).
    pub back_wirelength_nm: Nm,
    /// The worst overflowed GCells `(x, y, side, h_demand, v_demand)`,
    /// worst first (congestion debugging).
    pub hot_gcells: Vec<crate::grid::HotGcell>,
}

/// One 2-pin connection of a decomposed net.
#[derive(Debug, Clone)]
struct Connection {
    side_net: usize,
    from: Point,
    to: Point,
    path: Vec<GCell>,
}

/// Options of [`route_nets_opts`]: reroute effort plus the intra-point
/// parallelism of the batched rip-up rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteOpts {
    /// Additional rip-up rounds on top of [`REROUTE_ITERATIONS`].
    pub extra_rounds: u32,
    /// Worker count for routing a batch (`1` = inline on the caller
    /// thread, no pool threads). Changes wall-clock only: every batch is
    /// routed against the same frozen grid snapshot and committed in the
    /// same ascending-id order at any value.
    pub route_jobs: usize,
    /// Connections per rip-up batch (clamped to ≥ 1). Unlike
    /// `route_jobs` this *is* part of the algorithm: it decides which
    /// grid snapshot each connection negotiates against, so changing it
    /// changes the (still deterministic) result.
    pub batch_size: usize,
    /// Cooperative deadline token, polled at the top of every rip-up
    /// round and every batch. On expiry the negotiation loop stops
    /// best-effort (the caller discards the partial result via
    /// `PnrError::Cancelled`); the default token never cancels.
    pub cancel: CancelToken,
}

impl Default for RouteOpts {
    fn default() -> RouteOpts {
        RouteOpts {
            extra_rounds: 0,
            route_jobs: 1,
            batch_size: crate::calib::ROUTE_BATCH,
            cancel: CancelToken::none(),
        }
    }
}

/// Routes all decomposed nets on the grid. `grid` must already carry the
/// pin-access demand.
#[must_use]
pub fn route_nets(
    tech: &Technology,
    grid: &mut RoutingGrid,
    side_nets: &[SideNet],
    pattern: RoutingPattern,
) -> RoutingResult {
    route_nets_opts(tech, grid, side_nets, pattern, &RouteOpts::default())
}

/// [`route_nets`] with `extra_rounds` additional rip-up-and-reroute
/// iterations on top of the calibrated [`REROUTE_ITERATIONS`] budget. With
/// `extra_rounds == 0` this is exactly `route_nets`. The knob only changes
/// runs whose loop reaches the base budget: a loop that stops early — at
/// overflow 0, or after round 2 with more than 2000 tracks of overflow —
/// stops at the same round under any budget. Equivalent to a
/// `RouteSession` negotiated to the base budget and then resumed for
/// `extra_rounds` more, which is how the flow's recovery ladder gets its
/// extra rounds without routing again.
#[must_use]
pub fn route_nets_with_effort(
    tech: &Technology,
    grid: &mut RoutingGrid,
    side_nets: &[SideNet],
    pattern: RoutingPattern,
    extra_rounds: u32,
) -> RoutingResult {
    let opts = RouteOpts {
        extra_rounds,
        ..RouteOpts::default()
    };
    route_nets_opts(tech, grid, side_nets, pattern, &opts)
}

/// The full router entry point: [`route_nets`] plus every knob of the
/// batched negotiated-congestion loop (see [`RouteOpts`]). One
/// [`RouteSession`] run to the `REROUTE_ITERATIONS + extra_rounds` budget
/// and finished; `grid` ends in the routed (best-restored) state.
#[must_use]
pub fn route_nets_opts(
    tech: &Technology,
    grid: &mut RoutingGrid,
    side_nets: &[SideNet],
    pattern: RoutingPattern,
    opts: &RouteOpts,
) -> RoutingResult {
    let mut session = RouteSession::new(grid.clone(), side_nets.to_vec());
    session.negotiate(opts);
    let (result, routed) = session.finish(tech, pattern);
    *grid = routed;
    result
}

/// The negotiated-congestion router as resumable state: the connections
/// with their current paths, the grid (demand and history) *before* any
/// best-restore, the best solution seen, the GCell → connection index and
/// the round index where the rip-up loop stopped.
///
/// [`RouteSession::negotiate`] runs rip-up rounds up to a round budget and
/// may be called again with a larger one: the loop never reads its budget
/// except as the bound of `it`, so stopping at budget `B` and resuming to
/// `B + E` visits exactly the rounds, paths and counters of one run at
/// `B + E`. A loop that stopped early (overflow 0, or the deeply-infeasible
/// exit) re-checks the same condition on resume and stops again.
/// [`RouteSession::finish`] restores the best solution and emits geometry
/// on a *copy*, so a finished session can still be resumed.
#[derive(Debug, Clone)]
pub(crate) struct RouteSession {
    side_nets: Vec<SideNet>,
    grid: RoutingGrid,
    conns: Vec<Connection>,
    /// GCell → connection inverted index (per side, flat cell layout): the
    /// dirty set of a rip-up round is read from here instead of scanning
    /// every connection's path. Entries are append-only — a rerouted
    /// connection's old cells keep their (now stale) entries — because
    /// every candidate is re-checked against the live grid before rip-up,
    /// so a stale entry costs one overflow probe, never a wrong reroute.
    index: [Vec<Vec<u32>>; 2],
    /// Per-connection stamp of the last round that queued it.
    queued: Vec<u32>,
    /// The best solution seen, maintained copy-on-improve: an improving
    /// round refreshes only the paths in `changed_list` (connections
    /// rerouted since the previous snapshot) instead of cloning every path.
    saved: Vec<Vec<GCell>>,
    changed: Vec<bool>,
    changed_list: Vec<u32>,
    best_overflow: f64,
    /// The round index the loop stopped at (the next round to run): the
    /// budget it last ran to, or the round whose entry check ended it.
    next_round: usize,
}

impl RouteSession {
    /// Decomposes every side net into 2-pin connections (Manhattan MST),
    /// routes them once with pattern candidates, and indexes the result.
    /// `grid` must already carry the pin-access demand.
    #[must_use]
    pub fn new(mut grid: RoutingGrid, side_nets: Vec<SideNet>) -> RouteSession {
        let mut conns: Vec<Connection> = Vec::new();
        for (si, sn) in side_nets.iter().enumerate() {
            for (a, b) in mst_edges(&sn.pins) {
                conns.push(Connection {
                    side_net: si,
                    from: a,
                    to: b,
                    path: Vec::new(),
                });
            }
        }
        // Short connections first: they have the least detour freedom.
        conns.sort_by_key(|c| c.from.manhattan(c.to));

        // Initial routing.
        for conn in &mut conns {
            let side = side_nets[conn.side_net].side;
            let path = best_path(&grid, side, conn.from, conn.to);
            commit(&mut grid, side, &path, 1.0);
            conn.path = path;
        }

        let cells = grid.cols * grid.rows;
        let mut index: [Vec<Vec<u32>>; 2] = [vec![Vec::new(); cells], vec![Vec::new(); cells]];
        for (ci, conn) in conns.iter().enumerate() {
            let s = side_slot(side_nets[conn.side_net].side);
            for &g in &conn.path {
                index[s][cell_of(&grid, g)].push(ci as u32);
            }
        }
        // Snapshot the initial solution: negotiated rerouting may only make
        // things worse, and the restore must be able to fall back to it.
        RouteSession {
            best_overflow: grid.total_overflow(),
            saved: conns.iter().map(|c| c.path.clone()).collect(),
            changed: vec![false; conns.len()],
            changed_list: Vec::new(),
            queued: vec![0; conns.len()],
            index,
            conns,
            grid,
            side_nets,
            next_round: 0,
        }
    }

    /// Runs rip-up-and-reroute rounds from `next_round` up to round
    /// index `REROUTE_ITERATIONS + opts.extra_rounds` (exclusive), stopping
    /// early when the overflow reaches 0, when a run is deeply infeasible,
    /// or when `opts.cancel` expires. A session stopped by cancellation may
    /// hold a half-drained round and must not be resumed; callers discard
    /// it.
    pub fn negotiate(&mut self, opts: &RouteOpts) {
        let rounds = REROUTE_ITERATIONS + opts.extra_rounds as usize;
        // Rip up and reroute overflowed connections; the reroute uses an
        // A* maze search (windowed, scratch-backed — see `crate::maze`) so
        // detours can leave the bounding box (pattern candidates alone
        // cannot relieve a hotspot).
        // One pool + one maze scratch per worker, reused across every batch
        // of every round (the scratch is epoch-stamped, so reuse cannot leak
        // state between searches — results are independent of which worker
        // ran them, and of whether this call resumed a previous one).
        let route_jobs = opts.route_jobs.max(1);
        let batch_cap = opts.batch_size.max(1);
        let pool = Pool::new(route_jobs);
        let mut scratches: Vec<MazeScratch> = (0..route_jobs).map(|_| MazeScratch::new()).collect();
        let mut batch_ids: Vec<u32> = Vec::with_capacity(batch_cap);
        let mut batch_jobs: Vec<(Side, Point, Point)> = Vec::with_capacity(batch_cap);
        // Rip-up worklist: ascending-id heap + per-round queued stamps, so
        // connections are visited in the same order the full scan used.
        let mut queue: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
        let mut dirty_cells: Vec<(u8, u32)> = Vec::new();
        let RouteSession {
            side_nets,
            grid,
            conns,
            index,
            queued,
            saved,
            changed,
            changed_list,
            best_overflow,
            next_round,
        } = self;
        let side_nets: &[SideNet] = side_nets;
        while *next_round < rounds {
            let it = *next_round;
            // Deadline watchdog: stop negotiating before the round starts.
            // With a forced (fault-injected) token this fires before round 0
            // at any `route_jobs`, keeping the timeout path deterministic.
            if opts.cancel.cancelled() {
                ffet_obs::counter_add("route.cancelled", 1);
                break;
            }
            let overflow_now = grid.total_overflow();
            if overflow_now <= 0.0 {
                break;
            }
            // Deeply infeasible runs (hundreds of times the validity budget)
            // cannot be negotiated back under 10 DRVs; stop burning maze time
            // once that is clear — the run is reported invalid either way.
            if it >= 2 && overflow_now > 2_000.0 {
                break;
            }
            *next_round += 1;
            let mut round_span = ffet_obs::span("route.round").attr("round", it);
            // One grid scan prices history *and* yields the round's dirty set.
            dirty_cells.clear();
            grid.update_history_collect(&mut dirty_cells);
            let round_stamp = it as u32 + 1;
            for &(s, i) in &dirty_cells {
                for &ci in &index[s as usize][i as usize] {
                    if queued[ci as usize] != round_stamp {
                        queued[ci as usize] = round_stamp;
                        queue.push(Reverse(ci));
                    }
                }
            }
            let mut rerouted = 0usize;
            let mut visited = 0i64;
            let mut batch_seq = 0usize;
            loop {
                // Deadline watchdog, between batches: the committed state is
                // consistent here (ripped-up batches are always re-committed
                // before this point), so stopping mid-round is safe.
                if opts.cancel.cancelled() {
                    break;
                }
                // Batch selection, against the *live* grid: pop candidates
                // in ascending id order and keep the ones whose current path
                // still crosses an overflowed cell (an earlier batch this
                // round may have relieved it, or a stale index entry may
                // never have crossed). Selection never depends on
                // `route_jobs`: the queue, the stamps, and the grid are all
                // committed state.
                batch_ids.clear();
                while batch_ids.len() < batch_cap {
                    let Some(Reverse(ci)) = queue.pop() else {
                        break;
                    };
                    visited += 1;
                    let c = ci as usize;
                    let side = side_nets[conns[c].side_net].side;
                    if conns[c].path.iter().any(|&g| grid.is_overflowed(side, g)) {
                        batch_ids.push(ci);
                    }
                }
                if batch_ids.is_empty() {
                    // The selection loop only stops short of the cap when
                    // the queue is empty — the round's worklist is drained.
                    break;
                }
                // Rip up the whole batch, then freeze the grid: every batch
                // member negotiates against the same immutable snapshot, so
                // the paths are a pure function of (snapshot, endpoints) and
                // can be computed in any order, on any worker.
                batch_jobs.clear();
                for &ci in &batch_ids {
                    let c = ci as usize;
                    let side = side_nets[conns[c].side_net].side;
                    let old = std::mem::take(&mut conns[c].path);
                    commit(grid, side, &old, -1.0);
                    batch_jobs.push((side, conns[c].from, conns[c].to));
                }
                let frozen: &RoutingGrid = grid;
                let batch_span = ffet_obs::span("route.batch")
                    .attr("round", it)
                    .attr("batch", batch_seq)
                    .attr("size", batch_ids.len());
                let outcomes = pool.run_with(&mut scratches, &batch_jobs, |scratch, job| {
                    let &(side, from, to) = job;
                    let path = maze::maze_path(frozen, side, from, to, scratch)
                        .unwrap_or_else(|| best_path(frozen, side, from, to));
                    Ok::<Vec<GCell>, std::convert::Infallible>(path)
                });
                batch_span.close();
                batch_seq += 1;
                ffet_obs::counter_add("route.batch.count", 1);
                ffet_obs::counter_add("route.batch.size", batch_ids.len() as i64);
                // Merge worker-side metrics (maze counters) in submission
                // order, then re-raise the first panic with its original
                // payload: containment at the flow level is byte-identical
                // to a panic on the caller thread, at any worker count.
                for o in &outcomes {
                    ffet_obs::merge_metrics(&o.trace.metrics);
                }
                for o in &outcomes {
                    if let Err(JobError::Panicked(msg)) = &o.result {
                        std::panic::resume_unwind(Box::new(msg.clone()));
                    }
                }
                // Commit serially, ascending id — the one and only place
                // batch results touch shared state, in an order fixed by
                // net ids.
                for (outcome, &ci) in outcomes.into_iter().zip(&batch_ids) {
                    let c = ci as usize;
                    let side = side_nets[conns[c].side_net].side;
                    let path = match outcome.result {
                        Ok(path) => path,
                        Err(JobError::Failed(never)) => match never {},
                        Err(JobError::Panicked(_)) => unreachable!("panics re-raised above"),
                    };
                    commit(grid, side, &path, 1.0);
                    conns[c].path = path;
                    // Index the new path, and propagate overflow it
                    // *created* to later connections in this round's visit
                    // order: only commits add demand, so these cells are the
                    // only places the dirty set can grow mid-round. Earlier
                    // ids (already visited) are excluded — the full scan
                    // would not have revisited them.
                    let s = side_slot(side);
                    for &g in &conns[c].path {
                        let i = cell_of(grid, g);
                        index[s][i].push(ci);
                        if grid.is_overflowed(side, g) {
                            for &cj in &index[s][i] {
                                if cj as usize > c && queued[cj as usize] != round_stamp {
                                    queued[cj as usize] = round_stamp;
                                    queue.push(Reverse(cj));
                                }
                            }
                        }
                    }
                    if !changed[c] {
                        changed[c] = true;
                        changed_list.push(ci);
                    }
                    rerouted += 1;
                }
                ffet_obs::counter_add("route.batch.commits", batch_ids.len() as i64);
            }
            let overflow = grid.total_overflow();
            round_span.set_attr("rerouted", rerouted);
            round_span.set_attr("overflow", overflow);
            round_span.set_attr("peak", grid.peak_congestion());
            round_span.close();
            ffet_obs::counter_add("route.rounds", 1);
            ffet_obs::counter_add("route.ripups", rerouted as i64);
            ffet_obs::counter_add("route.dirty.visited", visited);
            if overflow < *best_overflow {
                *best_overflow = overflow;
                for &ci in changed_list.iter() {
                    let ci = ci as usize;
                    saved[ci].clone_from(&conns[ci].path);
                    changed[ci] = false;
                }
                changed_list.clear();
            }
        }
    }

    /// Restores the best solution seen and emits the routed geometry plus
    /// the final congestion gauges, on a copy of the session state: the
    /// session itself stays resumable. Returns the result and the routed
    /// grid.
    #[must_use]
    pub fn finish(
        &self,
        tech: &Technology,
        pattern: RoutingPattern,
    ) -> (RoutingResult, RoutingGrid) {
        let side_nets = &self.side_nets;
        let mut grid = self.grid.clone();
        // Negotiated congestion can oscillate: restore the best solution
        // seen. Every connection is re-committed (not just the changed
        // ones) so the grid's demand totals go through the same
        // remove/re-add floating-point sequence as the historical
        // implementation — overflow and congestion metrics stay
        // bit-identical.
        let restore = grid.total_overflow() > self.best_overflow;
        if restore {
            for (conn, path) in self.conns.iter().zip(&self.saved) {
                let side = side_nets[conn.side_net].side;
                commit(&mut grid, side, &conn.path, -1.0);
                commit(&mut grid, side, path, 1.0);
            }
        }
        let paths =
            self.conns
                .iter()
                .zip(&self.saved)
                .map(|(conn, saved)| if restore { saved } else { &conn.path });

        // Emit geometry.
        let mut nets: Vec<RoutedNet> = side_nets
            .iter()
            .map(|sn| RoutedNet {
                net: sn.net,
                side: sn.side,
                wires: Vec::new(),
                vias: Vec::new(),
            })
            .collect();
        let mut wirelength = 0;
        let mut back_wirelength = 0;
        let mut via_count = 0;
        let mut vias_by_side = [0i64; 2];
        for (conn, path) in self.conns.iter().zip(paths) {
            let sn = &side_nets[conn.side_net];
            let (wires, vias) = emit_geometry(tech, &grid, sn.side, pattern, conn, path);
            for w in &wires {
                wirelength += w.length();
                if sn.side == Side::Back {
                    back_wirelength += w.length();
                }
            }
            via_count += vias.len();
            vias_by_side[side_slot(sn.side)] += vias.len() as i64;
            let rn = &mut nets[conn.side_net];
            rn.wires.extend(wires);
            rn.vias.extend(vias);
        }
        ffet_obs::counter_add("route.vias.front", vias_by_side[0]);
        ffet_obs::counter_add("route.vias.back", vias_by_side[1]);

        let overflow = grid.total_overflow();
        let breakdown = grid.overflow_breakdown();
        ffet_obs::gauge_set("route.overflow.front.h", breakdown[0][0]);
        ffet_obs::gauge_set("route.overflow.front.v", breakdown[0][1]);
        ffet_obs::gauge_set("route.overflow.back.h", breakdown[1][0]);
        ffet_obs::gauge_set("route.overflow.back.v", breakdown[1][1]);
        ffet_obs::gauge_set("route.peak_congestion", grid.peak_congestion());
        let result = RoutingResult {
            nets,
            overflow_tracks: overflow,
            drv_count: overflow.ceil() as u32,
            wirelength_nm: wirelength,
            via_count,
            peak_congestion: grid.peak_congestion(),
            back_wirelength_nm: back_wirelength,
            hot_gcells: grid.worst_gcells(12),
        };
        (result, grid)
    }
}

/// Index of a side in the router's per-side arrays.
fn side_slot(side: Side) -> usize {
    usize::from(side == Side::Back)
}

/// Flat index of a GCell in the router's per-side cell arrays.
fn cell_of(grid: &RoutingGrid, g: GCell) -> usize {
    g.y as usize * grid.cols + g.x as usize
}

/// Fires `FaultKind::RoutePanic` through the batch-worker machinery: a
/// dedicated one-job batch whose worker panics, so the payload travels the
/// exact containment path a real batch would take (worker `catch_unwind` →
/// outcome slot → re-raise on the routing thread). Dispatching it before
/// the first rip-up round makes the fault fire deterministically even on
/// landscapes that never form a congestion batch.
pub(crate) fn inject_route_panic(route_jobs: usize) {
    let route_jobs = route_jobs.max(1);
    let pool = Pool::new(route_jobs);
    let mut scratches: Vec<MazeScratch> = (0..route_jobs).map(|_| MazeScratch::new()).collect();
    let outcomes = pool.run_with(
        &mut scratches,
        &[()],
        |_scratch, (): &()| -> Result<(), std::convert::Infallible> {
            // ffet-analyze: allow(R001) -- deliberate fault injection: this panic is the behavior under test
            panic!("fault: injected panic in route batch worker")
        },
    );
    for o in &outcomes {
        if let Err(JobError::Panicked(msg)) = &o.result {
            std::panic::resume_unwind(Box::new(msg.clone()));
        }
    }
    unreachable!("the injected batch always panics");
}

/// Prim MST over pins (pin 0 = source), returning parent→child edges.
fn mst_edges(pins: &[Point]) -> Vec<(Point, Point)> {
    let n = pins.len();
    if n < 2 {
        return Vec::new();
    }
    let mut in_tree = vec![false; n];
    let mut dist = vec![i64::MAX; n];
    let mut parent = vec![0usize; n];
    in_tree[0] = true;
    for i in 1..n {
        dist[i] = pins[0].manhattan(pins[i]);
    }
    let mut edges = Vec::with_capacity(n - 1);
    for _ in 1..n {
        let mut best = usize::MAX;
        let mut best_d = i64::MAX;
        for i in 0..n {
            if !in_tree[i] && dist[i] < best_d {
                best = i;
                best_d = dist[i];
            }
        }
        in_tree[best] = true;
        edges.push((pins[parent[best]], pins[best]));
        for i in 0..n {
            if !in_tree[i] {
                let d = pins[best].manhattan(pins[i]);
                if d < dist[i] {
                    dist[i] = d;
                    parent[i] = best;
                }
            }
        }
    }
    edges
}

/// Straight run of GCells from `a` towards `b` along one axis (inclusive).
fn straight(a: GCell, b: GCell) -> Vec<GCell> {
    let span = (a.x.abs_diff(b.x) + a.y.abs_diff(b.y)) as usize + 1;
    let mut v = Vec::with_capacity(span);
    let (mut x, mut y) = (a.x, a.y);
    loop {
        v.push(GCell { x, y });
        if (x, y) == (b.x, b.y) {
            break;
        }
        if a.y == b.y {
            x = if b.x > x { x + 1 } else { x - 1 };
        } else {
            y = if b.y > y { y + 1 } else { y - 1 };
        }
    }
    v
}

/// Concatenates straight runs, dropping duplicated corners.
fn join(runs: &[Vec<GCell>]) -> Vec<GCell> {
    let mut out: Vec<GCell> = Vec::new();
    for run in runs {
        for &g in run {
            if out.last() != Some(&g) {
                out.push(g);
            }
        }
    }
    out
}

/// Up to four corner GCells describing one rectilinear pattern candidate
/// (`len` of them are meaningful; consecutive equal corners mark a
/// degenerate leg).
type Corners = ([GCell; 4], usize);

/// Cost of the candidate described by `corners`, accumulated leg by leg
/// through [`RoutingGrid::run_cost`] — no cell materialization. The
/// accumulator threads through the legs so the floating-point rounding
/// sequence matches summing the materialized path pair-by-pair.
fn corners_cost(grid: &RoutingGrid, side: Side, corners: &Corners) -> f64 {
    let (pts, len) = corners;
    let mut acc = 0.0;
    for w in pts[..*len].windows(2) {
        let (p, q) = (w[0], w[1]);
        if p == q {
            continue;
        }
        let axis = if p.y == q.y {
            Axis::Horizontal
        } else {
            Axis::Vertical
        };
        acc = grid.run_cost(side, p, q, axis, acc);
    }
    acc
}

/// Materializes a candidate's GCell path (corners → joined straight runs).
fn corners_path(corners: &Corners) -> Vec<GCell> {
    let (pts, len) = corners;
    let runs: Vec<Vec<GCell>> = pts[..*len]
        .windows(2)
        .map(|w| straight(w[0], w[1]))
        .collect();
    join(&runs)
}

/// Candidate-pattern routing: both L-shapes plus Z-shapes through sampled
/// intermediate columns/rows inside the bounding box. Costs every
/// candidate incrementally and materializes only the winner.
pub(crate) fn best_path(grid: &RoutingGrid, side: Side, from: Point, to: Point) -> Vec<GCell> {
    best_path_impl(grid, side, from, to)
}

/// Pattern (L/Z-candidate) routing, exposed for benches and equivalence
/// tests. Identical to the router's internal first-pass candidate search.
#[must_use]
pub fn pattern_path(grid: &RoutingGrid, side: Side, from: Point, to: Point) -> Vec<GCell> {
    best_path_impl(grid, side, from, to)
}

fn best_path_impl(grid: &RoutingGrid, side: Side, from: Point, to: Point) -> Vec<GCell> {
    let a = grid.gcell_at(from);
    let b = grid.gcell_at(to);
    if a == b {
        return vec![a];
    }
    // Seeded with the first L-shape, so a best candidate always exists.
    // Candidate order matters for tie-breaking (first minimum wins, as
    // `min_by` over the materialized candidates chose).
    let corner1 = GCell { x: b.x, y: a.y };
    let first: Corners = ([a, corner1, b, b], 3);
    let mut best: (f64, Corners) = (corners_cost(grid, side, &first), first);
    let mut consider = |corners: Corners| {
        let cost = corners_cost(grid, side, &corners);
        if cost.total_cmp(&best.0) == std::cmp::Ordering::Less {
            best = (cost, corners);
        }
    };
    // The second L-shape.
    let corner2 = GCell { x: a.x, y: b.y };
    consider(([a, corner2, b, b], 3));
    // Z-shapes through intermediate columns.
    let (xl, xr) = (a.x.min(b.x), a.x.max(b.x));
    if xr - xl >= 2 {
        for k in 1..=3 {
            let xm = xl + (xr - xl) * k / 4;
            if xm == a.x || xm == b.x {
                continue;
            }
            let m1 = GCell { x: xm, y: a.y };
            let m2 = GCell { x: xm, y: b.y };
            consider(([a, m1, m2, b], 4));
        }
    }
    // Z-shapes through intermediate rows.
    let (yl, yr) = (a.y.min(b.y), a.y.max(b.y));
    if yr - yl >= 2 {
        for k in 1..=3 {
            let ym = yl + (yr - yl) * k / 4;
            if ym == a.y || ym == b.y {
                continue;
            }
            let m1 = GCell { x: a.x, y: ym };
            let m2 = GCell { x: b.x, y: ym };
            consider(([a, m1, m2, b], 4));
        }
    }
    let (_, corners) = best;
    corners_path(&corners)
}

/// Adds (`amount = 1.0`) or removes (`-1.0`) a path's demand, scaled by
/// the Steiner-sharing correction (see [`crate::calib::STEINER_SHARING`]).
fn commit(grid: &mut RoutingGrid, side: Side, path: &[GCell], amount: f64) {
    let amount = amount * crate::calib::STEINER_SHARING;
    for w in path.windows(2) {
        let axis = if w[0].y == w[1].y {
            Axis::Horizontal
        } else {
            Axis::Vertical
        };
        grid.add_demand(side, w[0], axis, 0.5 * amount);
        grid.add_demand(side, w[1], axis, 0.5 * amount);
    }
}

/// Chooses the H/V layer pair for a connection by its length class: short
/// nets stay on the fine lower metals, long nets climb to the coarse upper
/// metals (lower RC per mm).
fn pick_layers(
    tech: &Technology,
    side: Side,
    pattern: RoutingPattern,
    hpwl_nm: Nm,
    gcell_w: Nm,
) -> (LayerId, LayerId) {
    let max_index = match side {
        Side::Front => pattern.front_layers(),
        Side::Back => pattern.back_layers(),
    };
    let layers = tech.stack().routing_layers(side, max_index);
    let h: Vec<LayerId> = layers
        .iter()
        .filter(|l| l.id.axis() == Axis::Horizontal)
        .map(|l| l.id)
        .collect();
    let v: Vec<LayerId> = layers
        .iter()
        .filter(|l| l.id.axis() == Axis::Vertical)
        .map(|l| l.id)
        .collect();
    // Layer promotion thresholds: at 5nm-class pitches the lowest metals
    // are too resistive for anything but local hops, so promotion kicks in
    // early (as commercial layer assignment does for timing).
    let class = if hpwl_nm < 3 * gcell_w {
        0
    } else if hpwl_nm < 8 * gcell_w {
        1
    } else {
        2
    };
    let pick = |list: &[LayerId], fallback: &[LayerId]| -> LayerId {
        // A 1-layer pattern has only one direction; geometry for the other
        // direction goes wrong-way on that same layer (as a detailed router
        // would), at the overflow cost the grid already charged.
        let list = if list.is_empty() { fallback } else { list };
        assert!(!list.is_empty(), "side has no routing layers at all");
        let idx = (class * (list.len() - 1)) / 2;
        list[idx.min(list.len() - 1)]
    };
    (pick(&h, &v), pick(&v, &h))
}

/// Converts a GCell path to DEF wires and vias: pin stubs at both ends,
/// collinear runs merged, a via at every bend plus the two pin via stacks.
fn emit_geometry(
    tech: &Technology,
    grid: &RoutingGrid,
    side: Side,
    pattern: RoutingPattern,
    conn: &Connection,
    path: &[GCell],
) -> (Vec<DefWire>, Vec<DefVia>) {
    let hpwl_nm = conn.from.manhattan(conn.to);
    let (h_layer, v_layer) = pick_layers(tech, side, pattern, hpwl_nm, grid.gcell_w);
    let m0 = LayerId::new(side, 0);
    let mut wires = Vec::new();
    let mut vias = Vec::new();

    // Corner points: exact pin coordinates at the ends, GCell centers only
    // for *interior* path cells (using the end cells' centers would add a
    // spurious half-GCell stub to every short connection).
    let mut pts: Vec<Point> = Vec::with_capacity(path.len() + 2);
    pts.push(conn.from);
    if path.len() > 2 {
        for &g in &path[1..path.len() - 1] {
            pts.push(grid.center(g));
        }
    }
    pts.push(conn.to);

    // Emit rectilinear segments between consecutive points (diagonal jumps
    // decompose into an H then V piece).
    let mut prev = pts[0];
    vias.push(DefVia {
        at: prev,
        from_layer: m0,
        to_layer: v_layer,
    });
    for &p in &pts[1..] {
        if p == prev {
            continue;
        }
        if p.x != prev.x && p.y != prev.y {
            let mid = Point::new(p.x, prev.y);
            wires.push(DefWire {
                layer: h_layer,
                from: prev,
                to: mid,
            });
            vias.push(DefVia {
                at: mid,
                from_layer: h_layer,
                to_layer: v_layer,
            });
            wires.push(DefWire {
                layer: v_layer,
                from: mid,
                to: p,
            });
        } else {
            let layer = if p.y == prev.y { h_layer } else { v_layer };
            wires.push(DefWire {
                layer,
                from: prev,
                to: p,
            });
        }
        prev = p;
    }
    vias.push(DefVia {
        at: prev,
        from_layer: m0,
        to_layer: v_layer,
    });

    // Merge collinear same-layer runs.
    let merged = merge_collinear(wires);
    (merged, vias)
}

fn merge_collinear(wires: Vec<DefWire>) -> Vec<DefWire> {
    let mut out: Vec<DefWire> = Vec::with_capacity(wires.len());
    for w in wires {
        if w.from == w.to {
            continue;
        }
        if let Some(last) = out.last_mut() {
            let same_layer = last.layer == w.layer;
            let continues = last.to == w.from;
            let collinear =
                (last.from.y == last.to.y && w.from.y == w.to.y && last.from.y == w.from.y)
                    || (last.from.x == last.to.x && w.from.x == w.to.x && last.from.x == w.from.x);
            if same_layer && continues && collinear {
                last.to = w.to;
                continue;
            }
        }
        out.push(w);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffet_geom::Rect;
    use ffet_tech::Technology;

    fn setup() -> (Technology, RoutingGrid) {
        let tech = Technology::ffet_3p5t();
        let pattern = RoutingPattern::new(12, 12).unwrap();
        let grid = RoutingGrid::new(&tech, Rect::new(0, 0, 60_000, 50_000), pattern);
        (tech, grid)
    }

    fn side_net(pins: Vec<Point>) -> SideNet {
        SideNet {
            net: NetId(0),
            side: Side::Front,
            pins,
            is_clock: false,
        }
    }

    #[test]
    fn two_pin_net_routes_near_hpwl() {
        let (tech, mut grid) = setup();
        let pattern = RoutingPattern::new(12, 12).unwrap();
        let nets = vec![side_net(vec![
            Point::new(1_000, 1_000),
            Point::new(31_000, 21_000),
        ])];
        let r = route_nets(&tech, &mut grid, &nets, pattern);
        assert_eq!(r.drv_count, 0);
        let hpwl = 30_000 + 20_000;
        assert!(
            r.wirelength_nm >= hpwl && r.wirelength_nm < hpwl * 13 / 10,
            "wl {} vs hpwl {hpwl}",
            r.wirelength_nm
        );
        assert!(!r.nets[0].wires.is_empty());
        assert!(r.via_count >= 2);
    }

    #[test]
    fn multi_pin_net_uses_mst_not_star() {
        let (tech, mut grid) = setup();
        let pattern = RoutingPattern::new(12, 12).unwrap();
        // Three collinear pins: MST length = end-to-end span.
        let nets = vec![side_net(vec![
            Point::new(1_000, 1_000),
            Point::new(41_000, 1_000),
            Point::new(21_000, 1_000),
        ])];
        let r = route_nets(&tech, &mut grid, &nets, pattern);
        assert!(
            r.wirelength_nm < 50_000,
            "wl {} suggests star routing",
            r.wirelength_nm
        );
    }

    #[test]
    fn overload_produces_overflow() {
        let (tech, mut grid) = setup();
        let pattern = RoutingPattern::new(1, 0).unwrap();
        let mut grid1 = RoutingGrid::new(&tech, Rect::new(0, 0, 60_000, 50_000), pattern);
        // Hundreds of parallel long nets through the same row of GCells on
        // a single-layer pattern must overflow.
        let nets: Vec<SideNet> = (0..400)
            .map(|i| {
                side_net(vec![
                    Point::new(500, 25_000 + (i % 3)),
                    Point::new(59_000, 25_000 + (i % 3)),
                ])
            })
            .collect();
        let r = route_nets(&tech, &mut grid1, &nets, pattern);
        assert!(r.drv_count > 0, "expected overflow, got none");
        assert!(r.overflow_tracks > 0.0);
        let _ = &mut grid; // silence unused
    }

    #[test]
    fn reroute_reduces_overflow_vs_single_pass() {
        // Construct a hotspot and verify the final overflow is bounded by
        // what pure L-routing would produce (Z detours relieve pressure).
        let (tech, _) = setup();
        let pattern = RoutingPattern::new(2, 0).unwrap();
        let die = Rect::new(0, 0, 60_000, 50_000);
        let mut grid = RoutingGrid::new(&tech, die, pattern);
        let nets: Vec<SideNet> = (0..120)
            .map(|i| {
                let y = 2_000 + (i as i64 % 10) * 100;
                side_net(vec![Point::new(500, y), Point::new(59_000, 48_000 - y)])
            })
            .collect();
        let r = route_nets(&tech, &mut grid, &nets, pattern);
        // All nets still connected (geometry emitted).
        assert!(r.nets.iter().all(|n| !n.wires.is_empty()));
        assert!(r.wirelength_nm > 0);
    }

    #[test]
    fn back_wirelength_tracked_separately() {
        let (tech, mut grid) = setup();
        let pattern = RoutingPattern::new(12, 12).unwrap();
        let nets = vec![
            SideNet {
                net: NetId(0),
                side: Side::Back,
                pins: vec![Point::new(1_000, 1_000), Point::new(11_000, 1_000)],
                is_clock: false,
            },
            side_net(vec![Point::new(1_000, 5_000), Point::new(6_000, 5_000)]),
        ];
        let r = route_nets(&tech, &mut grid, &nets, pattern);
        assert!(r.back_wirelength_nm >= 10_000);
        assert!(r.wirelength_nm > r.back_wirelength_nm);
        assert!(r.nets[0].wires.iter().all(|w| w.layer.side == Side::Back));
    }

    /// The die of the seeded landscapes: 20×15 µm.
    fn landscape_die() -> Rect {
        Rect::new(0, 0, 20_000, 15_000)
    }

    /// `n` random 2–4-pin front nets on [`landscape_die`], from `seed`.
    fn landscape(seed: u64, n: usize) -> Vec<SideNet> {
        let mut rng = ffet_geom::Rng64::new(seed);
        (0..n)
            .map(|i| SideNet {
                net: NetId(i as u32),
                side: Side::Front,
                pins: (0..rng.range_usize(2, 5))
                    .map(|_| Point::new(rng.range_i64(0, 20_000), rng.range_i64(0, 15_000)))
                    .collect(),
                is_clock: false,
            })
            .collect()
    }

    /// Everything a routing call leaves behind: the result (floats by bit
    /// pattern), the routed grid's overflow, and the spans and metrics.
    fn fingerprint(r: &RoutingResult, grid: &RoutingGrid, data: &ffet_obs::PointData) -> String {
        let spans: Vec<_> = data
            .events
            .iter()
            .map(|e| (e.id, e.parent, e.depth, &e.name, &e.attrs))
            .collect();
        format!(
            "{r:?}\n{:x} {:x} {:x} {:x}\n{spans:?}\n{:?}",
            r.overflow_tracks.to_bits(),
            r.peak_congestion.to_bits(),
            r.wirelength_nm,
            grid.total_overflow().to_bits(),
            data.metrics
        )
    }

    /// One `route_nets_opts` call at `extra_rounds = E` equals a session
    /// stopped at the base budget, finished (which must not disturb it),
    /// and resumed for `E` more rounds — geometry, float bits, counters,
    /// and span names/attrs/order. Returns the rounds the base budget ran.
    fn assert_resume_equivalent(pattern: RoutingPattern, nets: &[SideNet]) -> usize {
        let tech = Technology::ffet_3p5t();
        let die = landscape_die();
        let extra = 8;
        let opts = RouteOpts {
            extra_rounds: extra,
            ..RouteOpts::default()
        };
        let mut whole_grid = RoutingGrid::new(&tech, die, pattern);
        let (whole, whole_data) =
            ffet_obs::capture(|| route_nets_opts(&tech, &mut whole_grid, nets, pattern, &opts));

        let ((resumed, resumed_grid, base_rounds), resumed_data) = ffet_obs::capture(|| {
            let mut session =
                RouteSession::new(RoutingGrid::new(&tech, die, pattern), nets.to_vec());
            session.negotiate(&RouteOpts::default());
            let base_rounds = session.next_round;
            // A finish in between (attempt 0's result) emits only final
            // gauges/counters; capture and drop them.
            let _ = ffet_obs::capture(|| session.finish(&tech, pattern));
            session.negotiate(&opts);
            let (r, g) = session.finish(&tech, pattern);
            (r, g, base_rounds)
        });
        assert_eq!(
            fingerprint(&whole, &whole_grid, &whole_data),
            fingerprint(&resumed, &resumed_grid, &resumed_data)
        );
        base_rounds
    }

    #[test]
    fn resumed_negotiation_equals_one_call_at_the_larger_budget() {
        let fm = |layers| RoutingPattern::new(layers, 0).unwrap();
        // Budget stop: still congested after the base rounds.
        let budget = assert_resume_equivalent(fm(2), &landscape(7, 1_100));
        assert_eq!(budget, REROUTE_ITERATIONS, "base budget must be exhausted");
        // Overflow-0 stop: congestion negotiated away inside the budget.
        let early = assert_resume_equivalent(fm(2), &landscape(9, 1_060));
        assert!(
            (1..REROUTE_ITERATIONS).contains(&early),
            "expected an overflow-0 stop, ran {early} rounds"
        );
        // Deeply infeasible: the `it >= 2 && overflow > 2000` exit.
        let infeasible = assert_resume_equivalent(fm(1), &landscape(3, 300));
        assert_eq!(infeasible, 2, "expected the deeply-infeasible exit");
    }

    #[test]
    fn longer_nets_ride_higher_layers() {
        let tech = Technology::ffet_3p5t();
        let pattern = RoutingPattern::new(12, 12).unwrap();
        let short = pick_layers(&tech, Side::Front, pattern, 2_000, 800);
        let long = pick_layers(&tech, Side::Front, pattern, 500_000, 800);
        assert!(long.0.index > short.0.index);
    }
}
