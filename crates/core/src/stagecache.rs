//! Content-addressed stage cache: memoize flow stages across sweep points
//! and runs (DESIGN §14).
//!
//! [`crate::run_flow`] is an explicit DAG of six stages ([`Stage`]); each
//! edge carries a hashable artifact. A stage's *input key* is a canonical
//! string over (upstream artifact addresses, the stage-relevant
//! [`FlowConfig`](crate::FlowConfig) fields, the library signature, seed);
//! its *output payload* is a canonical serialization of the artifact plus
//! the stage's captured span/metric trace ([`ffet_obs::capture`]). Payloads
//! are stored content-addressed under `results/ckpt/objects/`: the address
//! is the FNV-1a hash of the body, so reads are self-verifying and a
//! corrupt ("poisoned") blob degrades to a deterministic miss — never a
//! wrong artifact. A `<keyhash>.key` link file maps input keys to payload
//! addresses.
//!
//! Invalidation is purely structural: any change to a stage's inputs —
//! upstream payload bytes, config field, library, seed, payload schema
//! ([`PAYLOAD_VERSION`]) — changes the key, so stale entries are simply
//! never looked up again (`ffet cache gc` reclaims them). Faulted runs
//! bypass the cache entirely (`run_flow` passes no cache when the fault
//! plan is non-empty), so fault-injected artifacts can neither hit nor
//! pollute it; recovery-ladder attempts perturb seed/utilization/reroute
//! budget and therefore key differently by construction.
//!
//! Determinism (§7): a cache hit rehydrates the artifact *and* its
//! captured trace byte-identically, so metric values and span-tree shape
//! are unchanged warm vs cold. Only the `cached` span attribute (hit/miss
//! provenance) and the process-global [`ffet_obs::cache_stats`] registry —
//! both outside the deterministic plane — differ.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::ckpt::atomic_write_unique;
use crate::flow::FlowConfig;
use ffet_geom::{Orientation, Point, Rect};
use ffet_lefdef::{Def, DefComponent, DefConnection, DefNet, DefSpecialNet, DefVia, DefWire};
use ffet_netlist::{InstId, Instance, Net, NetId, Netlist, PinRef, Port, PortDirection};
use ffet_obs::{fnv1a64, hash_hex, AttrValue, Histogram, MetricsSnapshot, PointData, SpanEvent};
use ffet_pnr::{
    ClockTree, Floorplan, Placement, PnrResult, PowerPlan, RoutedNet, RoutingResult, Row, TapCell,
};
use ffet_rcx::{NetParasitics, SinkParasitics};
use ffet_sta::{PathStep, PowerReport, TimingReport};
use ffet_tech::{LayerId, Side};
use ffet_verify::{Severity, SignoffReport, Violation};

/// Payload/key schema version: bumped on any change to the canonical
/// serialization or key derivation, which invalidates every existing entry
/// (old blobs become unreachable garbage for `gc`, never wrong answers).
pub const PAYLOAD_VERSION: u64 = 1;

/// Environment variable enabling the stage cache for driver binaries
/// (`repro`, benches). Unset, empty or `0` → disabled; `1` → the default
/// root [`DEFAULT_ROOT`]; anything else → that path. Tests set
/// [`crate::FlowConfig::stage_cache`] directly instead (env is process-wide
/// and `cargo test` is multi-threaded).
pub const STAGE_CACHE_ENV: &str = "FFET_STAGE_CACHE";

/// Default cache root, relative to the run's working directory (inside the
/// PR 8 checkpoint directory, beside the experiment-level blobs).
pub const DEFAULT_ROOT: &str = "results/ckpt/objects";

/// Manifest file inside the cache root: append-only size/stage accounting
/// for `ffet cache stats`/`gc` (advisory — the blobs themselves are ground
/// truth; see [`stats`]).
pub const MANIFEST_FILE: &str = "manifest.jsonl";

/// The stage-cache root from [`STAGE_CACHE_ENV`], if enabled.
#[must_use]
pub fn root_from_env() -> Option<PathBuf> {
    let value = std::env::var(STAGE_CACHE_ENV).ok()?;
    match value.trim() {
        "" | "0" => None,
        "1" => Some(PathBuf::from(DEFAULT_ROOT)),
        path => Some(PathBuf::from(path)),
    }
}

/// The six flow stages, in pipeline order — the nodes of the stage DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Synthesis-lite (fanout buffering + drive sizing).
    Synth,
    /// Floorplan → powerplan → place → CTS → dual-sided route.
    Pnr,
    /// Dual-sided DEF merge.
    Merge,
    /// Static signoff (lint + DRC + LVS-lite).
    Signoff,
    /// Dual-sided RC extraction.
    Rcx,
    /// STA + power.
    Sta,
}

impl Stage {
    /// All stages, pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Synth,
        Stage::Pnr,
        Stage::Merge,
        Stage::Signoff,
        Stage::Rcx,
        Stage::Sta,
    ];

    /// Stage name as used in cache keys, event names and the manifest.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Synth => "synth",
            Stage::Pnr => "pnr",
            Stage::Merge => "merge",
            Stage::Signoff => "signoff",
            Stage::Rcx => "rcx",
            Stage::Sta => "sta",
        }
    }

    /// Upstream stages whose payload addresses enter this stage's key —
    /// the DAG edges. `Synth` additionally keys on the input netlist hash,
    /// and every stage keys on its slice of the config (see the `*_key`
    /// functions).
    #[must_use]
    pub fn deps(self) -> &'static [Stage] {
        match self {
            Stage::Synth => &[],
            Stage::Pnr => &[Stage::Synth],
            Stage::Merge => &[Stage::Pnr],
            Stage::Signoff => &[Stage::Pnr, Stage::Merge],
            Stage::Rcx => &[Stage::Pnr, Stage::Merge],
            Stage::Sta => &[Stage::Pnr, Stage::Rcx],
        }
    }
}

// ---------------------------------------------------------------------------
// Canonical codec
// ---------------------------------------------------------------------------
//
// A deliberately boring token stream: every scalar is one whitespace-
// terminated token, floats are the hex of their IEEE bits (bit-exact round
// trip), strings are length-prefixed raw bytes. Canonical by construction —
// the same value always encodes to the same bytes, which is what makes
// content addressing work. Decoding is total: any malformed input yields
// `None`, which the cache treats as a miss.

/// Canonical payload encoder.
pub struct Enc {
    buf: String,
}

impl Enc {
    /// Starts a payload for `stage` (version + stage tag prefix).
    #[must_use]
    pub fn new(stage: &str) -> Enc {
        let mut e = Enc { buf: String::new() };
        e.u(PAYLOAD_VERSION);
        e.s(stage);
        e
    }

    fn u(&mut self, v: u64) {
        let _ = write!(self.buf, "{v} ");
    }

    fn i(&mut self, v: i64) {
        let _ = write!(self.buf, "{v} ");
    }

    fn i128v(&mut self, v: i128) {
        let _ = write!(self.buf, "{v} ");
    }

    fn f(&mut self, v: f64) {
        let _ = write!(self.buf, "{:016x} ", v.to_bits());
    }

    fn b(&mut self, v: bool) {
        self.u(u64::from(v));
    }

    fn s(&mut self, v: &str) {
        let _ = write!(self.buf, "{}:", v.len());
        self.buf.push_str(v);
        self.buf.push(' ');
    }

    /// The finished payload body.
    #[must_use]
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Canonical payload decoder; every reader returns `None` on malformed
/// input (the caller treats the payload as a miss).
pub struct Dec<'a> {
    rest: &'a str,
}

impl<'a> Dec<'a> {
    /// Opens a payload, validating the version + stage tag prefix.
    #[must_use]
    pub fn new(text: &'a str, stage: &str) -> Option<Dec<'a>> {
        let mut d = Dec { rest: text };
        if d.u()? != PAYLOAD_VERSION || d.s()? != stage {
            return None;
        }
        Some(d)
    }

    fn token(&mut self) -> Option<&'a str> {
        let sp = self.rest.find(' ')?;
        let tok = &self.rest[..sp];
        self.rest = &self.rest[sp + 1..];
        Some(tok)
    }

    fn u(&mut self) -> Option<u64> {
        self.token()?.parse().ok()
    }

    fn i(&mut self) -> Option<i64> {
        self.token()?.parse().ok()
    }

    fn i128v(&mut self) -> Option<i128> {
        self.token()?.parse().ok()
    }

    fn f(&mut self) -> Option<f64> {
        u64::from_str_radix(self.token()?, 16)
            .ok()
            .map(f64::from_bits)
    }

    fn b(&mut self) -> Option<bool> {
        match self.u()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn s(&mut self) -> Option<&'a str> {
        let colon = self.rest.find(':')?;
        let len: usize = self.rest[..colon].parse().ok()?;
        let start = colon + 1;
        let out = self.rest.get(start..start + len)?;
        self.rest = self.rest.get(start + len..)?.strip_prefix(' ')?;
        Some(out)
    }

    /// Element count for a sequence, bounded by the remaining input (every
    /// element is at least two bytes) so a corrupt length cannot drive a
    /// pathological allocation.
    fn len(&mut self) -> Option<usize> {
        let n = usize::try_from(self.u()?).ok()?;
        (n <= self.rest.len()).then_some(n)
    }

    fn usz(&mut self) -> Option<usize> {
        usize::try_from(self.u()?).ok()
    }

    fn u32v(&mut self) -> Option<u32> {
        u32::try_from(self.u()?).ok()
    }

    /// True once the payload is fully consumed (trailing garbage → reject).
    #[must_use]
    pub fn done(&self) -> bool {
        self.rest.is_empty()
    }
}

// --- geometry / id leaves ---

fn enc_point(e: &mut Enc, p: Point) {
    e.i(p.x);
    e.i(p.y);
}

fn dec_point(d: &mut Dec<'_>) -> Option<Point> {
    Some(Point {
        x: d.i()?,
        y: d.i()?,
    })
}

fn enc_rect(e: &mut Enc, r: Rect) {
    enc_point(e, r.lo);
    enc_point(e, r.hi);
}

fn dec_rect(d: &mut Dec<'_>) -> Option<Rect> {
    Some(Rect {
        lo: dec_point(d)?,
        hi: dec_point(d)?,
    })
}

fn enc_orient(e: &mut Enc, o: Orientation) {
    e.b(o == Orientation::FlippedSouth);
}

fn dec_orient(d: &mut Dec<'_>) -> Option<Orientation> {
    Some(if d.b()? {
        Orientation::FlippedSouth
    } else {
        Orientation::North
    })
}

fn enc_layer(e: &mut Enc, l: LayerId) {
    e.b(l.side == Side::Back);
    e.u(u64::from(l.index));
}

fn dec_layer(d: &mut Dec<'_>) -> Option<LayerId> {
    let side = if d.b()? { Side::Back } else { Side::Front };
    Some(LayerId {
        side,
        index: u8::try_from(d.u()?).ok()?,
    })
}

fn enc_pinref(e: &mut Enc, p: PinRef) {
    e.u(u64::from(p.inst.0));
    e.u(p.pin as u64);
}

fn dec_pinref(d: &mut Dec<'_>) -> Option<PinRef> {
    Some(PinRef {
        inst: InstId(d.u32v()?),
        pin: d.usz()?,
    })
}

// --- netlist ---

fn enc_netlist(e: &mut Enc, nl: &Netlist) {
    e.s(nl.name());
    e.u(nl.instances().len() as u64);
    for inst in nl.instances() {
        e.s(&inst.name);
        e.u(u64::from(inst.cell.0));
        e.u(inst.conns.len() as u64);
        for conn in &inst.conns {
            match conn {
                Some(net) => {
                    e.b(true);
                    e.u(u64::from(net.0));
                }
                None => e.b(false),
            }
        }
        e.b(inst.fixed);
    }
    e.u(nl.nets().len() as u64);
    for net in nl.nets() {
        e.s(&net.name);
        match net.driver {
            Some(p) => {
                e.b(true);
                enc_pinref(e, p);
            }
            None => e.b(false),
        }
        e.u(net.sinks.len() as u64);
        for &s in &net.sinks {
            enc_pinref(e, s);
        }
        e.b(net.is_clock);
    }
    e.u(nl.ports().len() as u64);
    for port in nl.ports() {
        e.s(&port.name);
        e.b(port.direction == PortDirection::Output);
        e.u(u64::from(port.net.0));
    }
}

fn dec_netlist(d: &mut Dec<'_>) -> Option<Netlist> {
    let name = d.s()?.to_owned();
    let mut instances = Vec::with_capacity(d.len()?);
    for _ in 0..instances.capacity() {
        let iname = d.s()?.to_owned();
        let cell = ffet_cells::CellId(d.u32v()?);
        let mut conns = Vec::with_capacity(d.len()?);
        for _ in 0..conns.capacity() {
            conns.push(if d.b()? { Some(NetId(d.u32v()?)) } else { None });
        }
        instances.push(Instance {
            name: iname,
            cell,
            conns,
            fixed: d.b()?,
        });
    }
    let mut nets = Vec::with_capacity(d.len()?);
    for _ in 0..nets.capacity() {
        let nname = d.s()?.to_owned();
        let driver = if d.b()? { Some(dec_pinref(d)?) } else { None };
        let mut sinks = Vec::with_capacity(d.len()?);
        for _ in 0..sinks.capacity() {
            sinks.push(dec_pinref(d)?);
        }
        nets.push(Net {
            name: nname,
            driver,
            sinks,
            is_clock: d.b()?,
        });
    }
    let mut ports = Vec::with_capacity(d.len()?);
    for _ in 0..ports.capacity() {
        let pname = d.s()?.to_owned();
        let direction = if d.b()? {
            PortDirection::Output
        } else {
            PortDirection::Input
        };
        ports.push(Port {
            name: pname,
            direction,
            net: NetId(d.u32v()?),
        });
    }
    Netlist::from_parts(name, instances, nets, ports).ok()
}

// --- DEF ---

fn enc_def(e: &mut Enc, def: &Def) {
    e.s(&def.design);
    e.i(def.dbu_per_micron);
    enc_rect(e, def.die);
    e.u(def.components.len() as u64);
    for c in &def.components {
        e.s(&c.name);
        e.s(&c.macro_name);
        enc_point(e, c.origin);
        enc_orient(e, c.orient);
        e.b(c.fixed);
    }
    e.u(def.nets.len() as u64);
    for n in &def.nets {
        e.s(&n.name);
        e.u(n.connections.len() as u64);
        for conn in &n.connections {
            e.s(&conn.instance);
            e.s(&conn.pin);
        }
        e.u(n.wires.len() as u64);
        for w in &n.wires {
            enc_layer(e, w.layer);
            enc_point(e, w.from);
            enc_point(e, w.to);
        }
        e.u(n.vias.len() as u64);
        for v in &n.vias {
            enc_point(e, v.at);
            enc_layer(e, v.from_layer);
            enc_layer(e, v.to_layer);
        }
    }
    e.u(def.special_nets.len() as u64);
    for sn in &def.special_nets {
        enc_special_net(e, sn);
    }
}

fn enc_special_net(e: &mut Enc, sn: &DefSpecialNet) {
    e.s(&sn.name);
    e.u(sn.shapes.len() as u64);
    for &(layer, rect) in &sn.shapes {
        enc_layer(e, layer);
        enc_rect(e, rect);
    }
}

fn dec_special_net(d: &mut Dec<'_>) -> Option<DefSpecialNet> {
    let name = d.s()?.to_owned();
    let mut shapes = Vec::with_capacity(d.len()?);
    for _ in 0..shapes.capacity() {
        shapes.push((dec_layer(d)?, dec_rect(d)?));
    }
    Some(DefSpecialNet { name, shapes })
}

fn dec_def(d: &mut Dec<'_>) -> Option<Def> {
    let design = d.s()?.to_owned();
    let dbu_per_micron = d.i()?;
    let die = dec_rect(d)?;
    let mut components = Vec::with_capacity(d.len()?);
    for _ in 0..components.capacity() {
        components.push(DefComponent {
            name: d.s()?.to_owned(),
            macro_name: d.s()?.to_owned(),
            origin: dec_point(d)?,
            orient: dec_orient(d)?,
            fixed: d.b()?,
        });
    }
    let mut nets = Vec::with_capacity(d.len()?);
    for _ in 0..nets.capacity() {
        let name = d.s()?.to_owned();
        let mut connections = Vec::with_capacity(d.len()?);
        for _ in 0..connections.capacity() {
            connections.push(DefConnection {
                instance: d.s()?.to_owned(),
                pin: d.s()?.to_owned(),
            });
        }
        let mut wires = Vec::with_capacity(d.len()?);
        for _ in 0..wires.capacity() {
            wires.push(DefWire {
                layer: dec_layer(d)?,
                from: dec_point(d)?,
                to: dec_point(d)?,
            });
        }
        let mut vias = Vec::with_capacity(d.len()?);
        for _ in 0..vias.capacity() {
            vias.push(DefVia {
                at: dec_point(d)?,
                from_layer: dec_layer(d)?,
                to_layer: dec_layer(d)?,
            });
        }
        nets.push(DefNet {
            name,
            connections,
            wires,
            vias,
        });
    }
    let mut special_nets = Vec::with_capacity(d.len()?);
    for _ in 0..special_nets.capacity() {
        special_nets.push(dec_special_net(d)?);
    }
    Some(Def {
        design,
        dbu_per_micron,
        die,
        components,
        nets,
        special_nets,
    })
}

// --- P&R result ---

fn enc_pnr_result(e: &mut Enc, pnr: &PnrResult) {
    let fp = &pnr.floorplan;
    enc_rect(e, fp.die);
    enc_rect(e, fp.core);
    e.u(fp.rows.len() as u64);
    for row in &fp.rows {
        e.i(row.y);
        e.i(row.x);
        e.i(row.sites);
        enc_orient(e, row.orient);
    }
    e.f(fp.target_utilization);
    e.i128v(fp.cell_area_nm2);

    let pp = &pnr.powerplan;
    e.u(pp.special_nets.len() as u64);
    for sn in &pp.special_nets {
        enc_special_net(e, sn);
    }
    e.u(pp.taps.len() as u64);
    for tap in &pp.taps {
        e.u(tap.row as u64);
        e.i(tap.site);
        e.i(tap.width_sites);
    }
    e.u(pp.vss_stripe_x.len() as u64);
    for &x in &pp.vss_stripe_x {
        e.i(x);
    }

    let pl = &pnr.placement;
    e.u(pl.origins.len() as u64);
    for &p in &pl.origins {
        enc_point(e, p);
    }
    e.u(pl.orients.len() as u64);
    for &o in &pl.orients {
        enc_orient(e, o);
    }
    e.u(u64::from(pl.violations));
    e.i(pl.hpwl_nm);
    e.u(pl.port_positions.len() as u64);
    for &p in &pl.port_positions {
        enc_point(e, p);
    }

    let ct = &pnr.clock;
    e.u(ct.buffers.len() as u64);
    for &b in &ct.buffers {
        e.u(u64::from(b.0));
    }
    e.u(u64::from(ct.levels));
    e.u(ct.sink_count as u64);

    let rt = &pnr.routing;
    e.u(rt.nets.len() as u64);
    for rn in &rt.nets {
        e.u(u64::from(rn.net.0));
        e.b(rn.side == Side::Back);
        e.u(rn.wires.len() as u64);
        for w in &rn.wires {
            enc_layer(e, w.layer);
            enc_point(e, w.from);
            enc_point(e, w.to);
        }
        e.u(rn.vias.len() as u64);
        for v in &rn.vias {
            enc_point(e, v.at);
            enc_layer(e, v.from_layer);
            enc_layer(e, v.to_layer);
        }
    }
    e.f(rt.overflow_tracks);
    e.u(u64::from(rt.drv_count));
    e.i(rt.wirelength_nm);
    e.u(rt.via_count as u64);
    e.f(rt.peak_congestion);
    e.i(rt.back_wirelength_nm);
    e.u(rt.hot_gcells.len() as u64);
    for &(x, y, side, hd, vd) in &rt.hot_gcells {
        e.u(u64::from(x));
        e.u(u64::from(y));
        e.b(side == Side::Back);
        e.f(hd);
        e.f(vd);
    }

    enc_def(e, &pnr.front_def);
    enc_def(e, &pnr.back_def);
}

fn dec_side(d: &mut Dec<'_>) -> Option<Side> {
    Some(if d.b()? { Side::Back } else { Side::Front })
}

fn dec_pnr_result(d: &mut Dec<'_>) -> Option<PnrResult> {
    let die = dec_rect(d)?;
    let core = dec_rect(d)?;
    let mut rows = Vec::with_capacity(d.len()?);
    for _ in 0..rows.capacity() {
        rows.push(Row {
            y: d.i()?,
            x: d.i()?,
            sites: d.i()?,
            orient: dec_orient(d)?,
        });
    }
    let floorplan = Floorplan {
        die,
        core,
        rows,
        target_utilization: d.f()?,
        cell_area_nm2: d.i128v()?,
    };

    let mut special_nets = Vec::with_capacity(d.len()?);
    for _ in 0..special_nets.capacity() {
        special_nets.push(dec_special_net(d)?);
    }
    let mut taps = Vec::with_capacity(d.len()?);
    for _ in 0..taps.capacity() {
        taps.push(TapCell {
            row: d.usz()?,
            site: d.i()?,
            width_sites: d.i()?,
        });
    }
    let mut vss_stripe_x = Vec::with_capacity(d.len()?);
    for _ in 0..vss_stripe_x.capacity() {
        vss_stripe_x.push(d.i()?);
    }
    let powerplan = PowerPlan {
        special_nets,
        taps,
        vss_stripe_x,
    };

    let mut origins = Vec::with_capacity(d.len()?);
    for _ in 0..origins.capacity() {
        origins.push(dec_point(d)?);
    }
    let mut orients = Vec::with_capacity(d.len()?);
    for _ in 0..orients.capacity() {
        orients.push(dec_orient(d)?);
    }
    let violations = d.u32v()?;
    let hpwl_nm = d.i()?;
    let mut port_positions = Vec::with_capacity(d.len()?);
    for _ in 0..port_positions.capacity() {
        port_positions.push(dec_point(d)?);
    }
    let placement = Placement {
        origins,
        orients,
        violations,
        hpwl_nm,
        port_positions,
    };

    let mut buffers = Vec::with_capacity(d.len()?);
    for _ in 0..buffers.capacity() {
        buffers.push(InstId(d.u32v()?));
    }
    let clock = ClockTree {
        buffers,
        levels: d.u32v()?,
        sink_count: d.usz()?,
    };

    let mut nets = Vec::with_capacity(d.len()?);
    for _ in 0..nets.capacity() {
        let net = NetId(d.u32v()?);
        let side = dec_side(d)?;
        let mut wires = Vec::with_capacity(d.len()?);
        for _ in 0..wires.capacity() {
            wires.push(DefWire {
                layer: dec_layer(d)?,
                from: dec_point(d)?,
                to: dec_point(d)?,
            });
        }
        let mut vias = Vec::with_capacity(d.len()?);
        for _ in 0..vias.capacity() {
            vias.push(DefVia {
                at: dec_point(d)?,
                from_layer: dec_layer(d)?,
                to_layer: dec_layer(d)?,
            });
        }
        nets.push(RoutedNet {
            net,
            side,
            wires,
            vias,
        });
    }
    let overflow_tracks = d.f()?;
    let drv_count = d.u32v()?;
    let wirelength_nm = d.i()?;
    let via_count = d.usz()?;
    let peak_congestion = d.f()?;
    let back_wirelength_nm = d.i()?;
    let mut hot_gcells = Vec::with_capacity(d.len()?);
    for _ in 0..hot_gcells.capacity() {
        hot_gcells.push((
            u16::try_from(d.u()?).ok()?,
            u16::try_from(d.u()?).ok()?,
            dec_side(d)?,
            d.f()?,
            d.f()?,
        ));
    }
    let routing = RoutingResult {
        nets,
        overflow_tracks,
        drv_count,
        wirelength_nm,
        via_count,
        peak_congestion,
        back_wirelength_nm,
        hot_gcells,
    };

    Some(PnrResult {
        floorplan,
        powerplan,
        placement,
        clock,
        routing,
        front_def: dec_def(d)?,
        back_def: dec_def(d)?,
    })
}

// --- signoff ---

/// Interner for `Violation::rule` (`&'static str` in the live type).
/// Signoff rule ids form a small closed set, so the leak is bounded by
/// that set's total size regardless of how many payloads are decoded.
static RULE_NAMES: Mutex<BTreeMap<String, &'static str>> = Mutex::new(BTreeMap::new());

fn intern_rule(name: &str) -> &'static str {
    let mut map = RULE_NAMES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(&interned) = map.get(name) {
        return interned;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    map.insert(name.to_owned(), leaked);
    leaked
}

fn enc_signoff(e: &mut Enc, report: &SignoffReport) {
    e.u(report.violations.len() as u64);
    for v in &report.violations {
        e.s(v.rule);
        e.b(v.severity == Severity::Error);
        e.s(&v.subject);
        match v.location {
            Some(p) => {
                e.b(true);
                enc_point(e, p);
            }
            None => e.b(false),
        }
        e.s(&v.message);
    }
}

fn dec_signoff(d: &mut Dec<'_>) -> Option<SignoffReport> {
    let mut violations = Vec::with_capacity(d.len()?);
    for _ in 0..violations.capacity() {
        let rule = intern_rule(d.s()?);
        let severity = if d.b()? {
            Severity::Error
        } else {
            Severity::Warning
        };
        let subject = d.s()?.to_owned();
        let location = if d.b()? { Some(dec_point(d)?) } else { None };
        violations.push(Violation {
            rule,
            severity,
            subject,
            location,
            message: d.s()?.to_owned(),
        });
    }
    Some(SignoffReport { violations })
}

// --- parasitics / timing / power ---

fn enc_parasitics(e: &mut Enc, parasitics: &[Option<NetParasitics>]) {
    e.u(parasitics.len() as u64);
    for slot in parasitics {
        match slot {
            Some(np) => {
                e.b(true);
                e.s(&np.name);
                e.f(np.total_cap_ff);
                e.u(np.sinks.len() as u64);
                for s in &np.sinks {
                    e.f(s.path_res_kohm);
                    e.f(s.wire_elmore_ps);
                    e.b(s.connected);
                }
            }
            None => e.b(false),
        }
    }
}

fn dec_parasitics(d: &mut Dec<'_>) -> Option<Vec<Option<NetParasitics>>> {
    let mut out = Vec::with_capacity(d.len()?);
    for _ in 0..out.capacity() {
        if !d.b()? {
            out.push(None);
            continue;
        }
        let name = d.s()?.to_owned();
        let total_cap_ff = d.f()?;
        let mut sinks = Vec::with_capacity(d.len()?);
        for _ in 0..sinks.capacity() {
            sinks.push(SinkParasitics {
                path_res_kohm: d.f()?,
                wire_elmore_ps: d.f()?,
                connected: d.b()?,
            });
        }
        out.push(Some(NetParasitics {
            name,
            total_cap_ff,
            sinks,
        }));
    }
    Some(out)
}

fn enc_timing(e: &mut Enc, timing: &TimingReport) {
    e.f(timing.critical_path_ps);
    e.f(timing.max_frequency_ghz);
    e.f(timing.wns_ps);
    e.u(timing.endpoints as u64);
    e.s(&timing.critical_net);
    e.u(timing.path.len() as u64);
    for step in &timing.path {
        e.s(&step.net);
        e.f(step.arrival_ps);
        e.f(step.cell_delay_ps);
        e.f(step.wire_delay_ps);
        e.s(&step.cell);
        e.u(step.fanout as u64);
    }
}

fn dec_timing(d: &mut Dec<'_>) -> Option<TimingReport> {
    let critical_path_ps = d.f()?;
    let max_frequency_ghz = d.f()?;
    let wns_ps = d.f()?;
    let endpoints = d.usz()?;
    let critical_net = d.s()?.to_owned();
    let mut path = Vec::with_capacity(d.len()?);
    for _ in 0..path.capacity() {
        path.push(PathStep {
            net: d.s()?.to_owned(),
            arrival_ps: d.f()?,
            cell_delay_ps: d.f()?,
            wire_delay_ps: d.f()?,
            cell: d.s()?.to_owned(),
            fanout: d.usz()?,
        });
    }
    Some(TimingReport {
        critical_path_ps,
        max_frequency_ghz,
        wns_ps,
        endpoints,
        critical_net,
        path,
    })
}

fn enc_power(e: &mut Enc, power: &PowerReport) {
    e.f(power.switching_mw);
    e.f(power.internal_mw);
    e.f(power.leakage_mw);
    e.f(power.clock_mw);
}

fn dec_power(d: &mut Dec<'_>) -> Option<PowerReport> {
    Some(PowerReport {
        switching_mw: d.f()?,
        internal_mw: d.f()?,
        leakage_mw: d.f()?,
        clock_mw: d.f()?,
    })
}

// --- captured trace (spans + metrics) ---

fn enc_point_data(e: &mut Enc, data: &PointData) {
    e.u(data.events.len() as u64);
    for ev in &data.events {
        e.u(u64::from(ev.id));
        match ev.parent {
            Some(p) => {
                e.b(true);
                e.u(u64::from(p));
            }
            None => e.b(false),
        }
        e.u(u64::from(ev.depth));
        e.s(&ev.name);
        // start_us/dur_us are wall clock: stripped before storage, zeroed
        // on decode.
        e.u(ev.attrs.len() as u64);
        for (key, value) in &ev.attrs {
            e.s(key);
            match value {
                AttrValue::Str(s) => {
                    e.u(0);
                    e.s(s);
                }
                AttrValue::Int(i) => {
                    e.u(1);
                    e.i(*i);
                }
                AttrValue::Float(x) => {
                    e.u(2);
                    e.f(*x);
                }
                AttrValue::Bool(b) => {
                    e.u(3);
                    e.b(*b);
                }
            }
        }
    }
    let m = &data.metrics;
    e.u(m.counters.len() as u64);
    for (name, value) in &m.counters {
        e.s(name);
        e.i(*value);
    }
    e.u(m.gauges.len() as u64);
    for (name, value) in &m.gauges {
        e.s(name);
        e.f(*value);
    }
    e.u(m.histograms.len() as u64);
    for (name, h) in &m.histograms {
        e.s(name);
        e.u(h.count);
        e.f(h.sum);
        e.f(h.min);
        e.f(h.max);
        e.u(h.buckets.len() as u64);
        for &b in &h.buckets {
            e.u(b);
        }
    }
}

fn dec_point_data(d: &mut Dec<'_>) -> Option<PointData> {
    let mut events = Vec::with_capacity(d.len()?);
    for _ in 0..events.capacity() {
        let id = d.u32v()?;
        let parent = if d.b()? { Some(d.u32v()?) } else { None };
        let depth = u16::try_from(d.u()?).ok()?;
        let name = d.s()?.to_owned();
        let mut attrs = Vec::with_capacity(d.len()?);
        for _ in 0..attrs.capacity() {
            let key = d.s()?.to_owned();
            let value = match d.u()? {
                0 => AttrValue::Str(d.s()?.to_owned()),
                1 => AttrValue::Int(d.i()?),
                2 => AttrValue::Float(d.f()?),
                3 => AttrValue::Bool(d.b()?),
                _ => return None,
            };
            attrs.push((key, value));
        }
        events.push(SpanEvent {
            id,
            parent,
            depth,
            name,
            start_us: 0.0,
            dur_us: 0.0,
            attrs,
        });
    }
    let mut metrics = MetricsSnapshot::default();
    for _ in 0..d.len()? {
        let name = d.s()?.to_owned();
        metrics.counters.insert(name, d.i()?);
    }
    for _ in 0..d.len()? {
        let name = d.s()?.to_owned();
        metrics.gauges.insert(name, d.f()?);
    }
    for _ in 0..d.len()? {
        let name = d.s()?.to_owned();
        let mut h = Histogram {
            count: d.u()?,
            sum: d.f()?,
            min: d.f()?,
            max: d.f()?,
            ..Histogram::default()
        };
        if d.usz()? != h.buckets.len() {
            return None;
        }
        for slot in &mut h.buckets {
            *slot = d.u()?;
        }
        metrics.histograms.insert(name, h);
    }
    Some(PointData { events, metrics })
}

// ---------------------------------------------------------------------------
// Per-stage payloads
// ---------------------------------------------------------------------------

/// Encodes the synth payload: the synthesized netlist plus the stage's
/// captured (timing-stripped) trace.
#[must_use]
pub fn encode_synth(netlist: &Netlist, data: &PointData) -> String {
    let mut e = Enc::new(Stage::Synth.name());
    enc_netlist(&mut e, netlist);
    enc_point_data(&mut e, data);
    e.finish()
}

/// Decodes a synth payload; `None` on any mismatch (treated as a miss).
#[must_use]
pub fn decode_synth(text: &str) -> Option<(Netlist, PointData)> {
    let mut d = Dec::new(text, Stage::Synth.name())?;
    let netlist = dec_netlist(&mut d)?;
    let data = dec_point_data(&mut d)?;
    d.done().then_some((netlist, data))
}

/// Encodes the pnr payload: the post-CTS netlist (P&R inserts clock
/// buffers), the full [`PnrResult`], and the captured trace.
#[must_use]
pub fn encode_pnr(value: &(Netlist, PnrResult), data: &PointData) -> String {
    let mut e = Enc::new(Stage::Pnr.name());
    enc_netlist(&mut e, &value.0);
    enc_pnr_result(&mut e, &value.1);
    enc_point_data(&mut e, data);
    e.finish()
}

/// Decodes a pnr payload.
#[must_use]
pub fn decode_pnr(text: &str) -> Option<((Netlist, PnrResult), PointData)> {
    let mut d = Dec::new(text, Stage::Pnr.name())?;
    let netlist = dec_netlist(&mut d)?;
    let pnr = dec_pnr_result(&mut d)?;
    let data = dec_point_data(&mut d)?;
    d.done().then_some(((netlist, pnr), data))
}

/// Encodes the merge payload (the merged dual-sided DEF).
#[must_use]
pub fn encode_merge(def: &Def, data: &PointData) -> String {
    let mut e = Enc::new(Stage::Merge.name());
    enc_def(&mut e, def);
    enc_point_data(&mut e, data);
    e.finish()
}

/// Decodes a merge payload.
#[must_use]
pub fn decode_merge(text: &str) -> Option<(Def, PointData)> {
    let mut d = Dec::new(text, Stage::Merge.name())?;
    let def = dec_def(&mut d)?;
    let data = dec_point_data(&mut d)?;
    d.done().then_some((def, data))
}

/// Encodes the signoff payload (the full structured report).
#[must_use]
pub fn encode_signoff_payload(report: &SignoffReport, data: &PointData) -> String {
    let mut e = Enc::new(Stage::Signoff.name());
    enc_signoff(&mut e, report);
    enc_point_data(&mut e, data);
    e.finish()
}

/// Decodes a signoff payload.
#[must_use]
pub fn decode_signoff_payload(text: &str) -> Option<(SignoffReport, PointData)> {
    let mut d = Dec::new(text, Stage::Signoff.name())?;
    let report = dec_signoff(&mut d)?;
    let data = dec_point_data(&mut d)?;
    d.done().then_some((report, data))
}

/// Encodes the rcx payload (per-net parasitics, `None` slots preserved).
#[must_use]
pub fn encode_rcx(parasitics: &[Option<NetParasitics>], data: &PointData) -> String {
    let mut e = Enc::new(Stage::Rcx.name());
    enc_parasitics(&mut e, parasitics);
    enc_point_data(&mut e, data);
    e.finish()
}

/// Decodes an rcx payload.
#[must_use]
pub fn decode_rcx(text: &str) -> Option<(Vec<Option<NetParasitics>>, PointData)> {
    let mut d = Dec::new(text, Stage::Rcx.name())?;
    let parasitics = dec_parasitics(&mut d)?;
    let data = dec_point_data(&mut d)?;
    d.done().then_some((parasitics, data))
}

/// Encodes the sta payload (timing + power reports).
#[must_use]
pub fn encode_sta(value: &(TimingReport, PowerReport), data: &PointData) -> String {
    let mut e = Enc::new(Stage::Sta.name());
    enc_timing(&mut e, &value.0);
    enc_power(&mut e, &value.1);
    enc_point_data(&mut e, data);
    e.finish()
}

/// Decodes an sta payload.
#[must_use]
pub fn decode_sta(text: &str) -> Option<((TimingReport, PowerReport), PointData)> {
    let mut d = Dec::new(text, Stage::Sta.name())?;
    let timing = dec_timing(&mut d)?;
    let power = dec_power(&mut d)?;
    let data = dec_point_data(&mut d)?;
    d.done().then_some(((timing, power), data))
}

// ---------------------------------------------------------------------------
// Key derivation
// ---------------------------------------------------------------------------
//
// Keys are canonical strings (then FNV-hashed into the `.key` link name).
// Wall-clock/driver-only knobs — `route_jobs`, `deadline_ms`,
// `max_attempts`, `stage_cache` itself — are deliberately excluded: they
// never change an artifact byte (§7), so entries shared across them stay
// valid. `fault_plan` never reaches a key because faulted runs bypass the
// cache entirely.

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Signature of the library a config builds: `Library::new` is a pure
/// function of the technology, and `redistribute_input_pins` (applied only
/// when `back_pin_ratio > 0`) additionally depends on the ratio and seed.
#[must_use]
pub fn library_sig(config: &FlowConfig) -> String {
    let seed = if config.back_pin_ratio > 0.0 {
        config.seed
    } else {
        0
    };
    format!("{:?}|{}|{seed}", config.tech, bits(config.back_pin_ratio))
}

/// Synth-stage key. Synthesis reads only cell kinds/drives/input caps —
/// all functions of the technology alone (pin-side redistribution moves
/// pin *geometry*, which synthesis never sees) — so the key deliberately
/// omits `back_pin_ratio` and `seed`: every point of a back-pin-ratio or
/// seed axis shares one synth entry.
#[must_use]
pub fn synth_key(config: &FlowConfig, netlist: &Netlist) -> String {
    let mut e = Enc::new("synth-input");
    enc_netlist(&mut e, netlist);
    let input_hash = hash_hex(fnv1a64(e.finish().as_bytes()));
    format!(
        "sc{PAYLOAD_VERSION}|synth|{:?}|{}|{input_hash}",
        config.tech,
        bits(config.target_freq_ghz)
    )
}

/// Pnr-stage key over the synth payload address and every placement/
/// routing-relevant config field.
#[must_use]
pub fn pnr_key(config: &FlowConfig, synth_addr: &str) -> String {
    format!(
        "sc{PAYLOAD_VERSION}|pnr|{synth_addr}|{}|{}|{}|{}|{}|{:?}|{}",
        library_sig(config),
        config.seed,
        bits(config.utilization),
        bits(config.aspect_ratio),
        config.pattern,
        config.bridging_min_nm,
        config.extra_reroute_rounds
    )
}

/// Merge-stage key: the merge is a pure function of the two side DEFs,
/// both inside the pnr payload.
#[must_use]
pub fn merge_key(pnr_addr: &str) -> String {
    format!("sc{PAYLOAD_VERSION}|merge|{pnr_addr}")
}

/// Signoff-stage key over the pnr and merge payloads plus the library and
/// routing pattern the checks run under.
#[must_use]
pub fn signoff_key(config: &FlowConfig, pnr_addr: &str, merge_addr: &str) -> String {
    format!(
        "sc{PAYLOAD_VERSION}|signoff|{pnr_addr}|{merge_addr}|{}|{}",
        library_sig(config),
        config.pattern
    )
}

/// Rcx-stage key over the pnr and merge payloads plus the library
/// (extraction reads layer RC from the technology).
#[must_use]
pub fn rcx_key(config: &FlowConfig, pnr_addr: &str, merge_addr: &str) -> String {
    format!(
        "sc{PAYLOAD_VERSION}|rcx|{pnr_addr}|{merge_addr}|{}",
        library_sig(config)
    )
}

/// Sta-stage key over the pnr and rcx payloads plus the analysis operating
/// point (clock target and switching activity).
#[must_use]
pub fn sta_key(config: &FlowConfig, pnr_addr: &str, rcx_addr: &str) -> String {
    format!(
        "sc{PAYLOAD_VERSION}|sta|{pnr_addr}|{rcx_addr}|{}|{}|{}",
        library_sig(config),
        bits(config.target_freq_ghz),
        bits(config.activity)
    )
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Serializes manifest appends within this process (cross-process safety
/// comes from `O_APPEND` single-write lines, same posture as the ledger).
static MANIFEST_LOCK: Mutex<()> = Mutex::new(());

/// Handle to a stage-cache root directory. Cheap: holds only the path;
/// every operation is a direct filesystem access, so concurrent handles
/// (any pool width, even multiple processes) see one coherent store.
#[derive(Debug, Clone)]
pub struct StageCache {
    root: PathBuf,
}

impl StageCache {
    /// Opens (without creating) a cache at `root`.
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> StageCache {
        StageCache { root: root.into() }
    }

    /// The cache root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn blob_path(&self, addr: &str) -> PathBuf {
        self.root.join(format!("{addr}.blob"))
    }

    fn key_path(&self, key: &str) -> PathBuf {
        self.root
            .join(format!("{}.key", hash_hex(fnv1a64(key.as_bytes()))))
    }

    /// Looks `key` up: resolves its link, reads the payload blob and
    /// re-verifies the content address. Any failure — missing link,
    /// malformed address, missing blob, hash mismatch (a poisoned object)
    /// — is a miss.
    #[must_use]
    pub fn lookup(&self, key: &str) -> Option<(String, String)> {
        let addr = fs::read_to_string(self.key_path(key)).ok()?;
        let addr = addr.trim();
        if addr.len() != 16 || !addr.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let body = fs::read_to_string(self.blob_path(addr)).ok()?;
        if hash_hex(fnv1a64(body.as_bytes())) != addr {
            return None;
        }
        Some((addr.to_owned(), body))
    }

    /// Stores `payload` under `key` and returns its content address.
    /// Best-effort: any I/O failure returns `None` (the stage result is
    /// still valid, just not cached — and downstream stages then key as
    /// uncacheable). An existing blob at the same address is left
    /// untouched: same address means same bytes for an honest writer, and
    /// a poisoned blob stays a deterministic miss until `gc` removes it.
    #[must_use]
    pub fn store(&self, key: &str, stage: &'static str, payload: &str) -> Option<String> {
        let addr = hash_hex(fnv1a64(payload.as_bytes()));
        let blob = self.blob_path(&addr);
        let newly_written = if blob.exists() {
            false
        } else {
            atomic_write_unique(&blob, payload.as_bytes()).ok()?;
            true
        };
        atomic_write_unique(&self.key_path(key), addr.as_bytes()).ok()?;
        if newly_written {
            self.manifest_append(&addr, stage, payload.len());
        }
        Some(addr)
    }

    /// Appends one accounting record to the manifest. Advisory: failures
    /// are swallowed (stats falls back to directory scans) and records are
    /// checksummed so a torn line is skipped on load.
    fn manifest_append(&self, addr: &str, stage: &str, bytes: usize) {
        let _guard = MANIFEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let body = format!("{{\"addr\":\"{addr}\",\"stage\":\"{stage}\",\"bytes\":{bytes}}}");
        let line = format!("v1 {} {body}\n", hash_hex(fnv1a64(body.as_bytes())));
        let _ = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.root.join(MANIFEST_FILE))
            .and_then(|mut f| f.write_all(line.as_bytes()));
    }
}

/// Loads the manifest: `addr → (stage, bytes)`, last record wins. Corrupt
/// or torn lines are skipped — the manifest is advisory accounting, not a
/// replay order.
fn load_manifest(root: &Path) -> BTreeMap<String, (String, u64)> {
    let mut out = BTreeMap::new();
    let Ok(text) = fs::read_to_string(root.join(MANIFEST_FILE)) else {
        return out;
    };
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("v1 ") else {
            continue;
        };
        let Some((crc, body)) = rest.split_once(' ') else {
            continue;
        };
        if hash_hex(fnv1a64(body.as_bytes())) != crc {
            continue;
        }
        let Ok(json) = ffet_obs::parse_json(body) else {
            continue;
        };
        let (Some(addr), Some(stage), Some(bytes)) = (
            json.get("addr").and_then(ffet_obs::Json::as_str),
            json.get("stage").and_then(ffet_obs::Json::as_str),
            json.get("bytes").and_then(ffet_obs::Json::as_i64),
        ) else {
            continue;
        };
        out.insert(
            addr.to_owned(),
            (stage.to_owned(), u64::try_from(bytes).unwrap_or(0)),
        );
    }
    out
}

/// Sorted `(file_name, byte_size)` listing of the cache root. A missing
/// root lists as empty.
fn sorted_entries(root: &Path) -> std::io::Result<Vec<(String, u64)>> {
    let mut out = Vec::new();
    let iter = match fs::read_dir(root) {
        Ok(iter) => iter,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in iter {
        let entry = entry?;
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        let size = entry.metadata().map_or(0, |m| m.len());
        out.push((name, size));
    }
    out.sort();
    Ok(out)
}

/// What `ffet cache stats` reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStatsReport {
    /// Payload blobs on disk.
    pub blobs: usize,
    /// Total payload bytes on disk (ground truth: file sizes).
    pub blob_bytes: u64,
    /// Key links on disk.
    pub links: usize,
    /// Per-stage `(count, bytes)` from the manifest.
    pub per_stage: BTreeMap<String, (usize, u64)>,
    /// Blobs with no manifest record (e.g. written before accounting, or
    /// the manifest was truncated).
    pub unattributed: usize,
    /// Orphan `*.tmp` siblings from crashed writers.
    pub tmp_orphans: usize,
}

/// Scans the cache and reports size accounting.
///
/// # Errors
///
/// Propagates directory-scan I/O errors (a missing root reports empty).
pub fn stats(root: &Path) -> std::io::Result<CacheStatsReport> {
    let manifest = load_manifest(root);
    let mut report = CacheStatsReport::default();
    for (name, size) in sorted_entries(root)? {
        if let Some(addr) = name.strip_suffix(".blob") {
            report.blobs += 1;
            report.blob_bytes += size;
            match manifest.get(addr) {
                Some((stage, _)) => {
                    let slot = report.per_stage.entry(stage.clone()).or_insert((0, 0));
                    slot.0 += 1;
                    slot.1 += size;
                }
                None => report.unattributed += 1,
            }
        } else if name.ends_with(".key") {
            report.links += 1;
        } else if name.ends_with(".tmp") {
            report.tmp_orphans += 1;
        }
    }
    Ok(report)
}

/// What `ffet cache verify` reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Blobs whose body re-hashed to their address.
    pub blobs_ok: usize,
    /// Addresses of poisoned blobs (hash mismatch).
    pub corrupt: Vec<String>,
    /// Links resolving to a verified blob.
    pub links_ok: usize,
    /// Links whose target is missing, malformed, or corrupt.
    pub dangling: usize,
}

/// Re-hashes every blob and resolves every link.
///
/// # Errors
///
/// Propagates directory-scan I/O errors.
pub fn verify(root: &Path) -> std::io::Result<VerifyReport> {
    let mut report = VerifyReport::default();
    let mut valid = std::collections::BTreeSet::new();
    let entries = sorted_entries(root)?;
    for (name, _) in &entries {
        if let Some(addr) = name.strip_suffix(".blob") {
            let ok = fs::read_to_string(root.join(name))
                .is_ok_and(|body| hash_hex(fnv1a64(body.as_bytes())) == addr);
            if ok {
                report.blobs_ok += 1;
                valid.insert(addr.to_owned());
            } else {
                report.corrupt.push(addr.to_owned());
            }
        }
    }
    for (name, _) in &entries {
        if name.ends_with(".key") {
            let target = fs::read_to_string(root.join(name)).unwrap_or_default();
            if valid.contains(target.trim()) {
                report.links_ok += 1;
            } else {
                report.dangling += 1;
            }
        }
    }
    Ok(report)
}

/// What `ffet cache gc` reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Orphan/corrupt blobs removed.
    pub removed_blobs: usize,
    /// Bytes reclaimed from removed blobs.
    pub freed_bytes: u64,
    /// Dangling links removed.
    pub removed_links: usize,
    /// Crashed-writer `*.tmp` files removed.
    pub removed_tmp: usize,
    /// Blobs kept (referenced and verified).
    pub kept_blobs: usize,
}

/// Removes everything unreachable or invalid: poisoned blobs, blobs no
/// link references, links whose target is missing or corrupt, and orphan
/// `*.tmp` files. The manifest is rewritten to cover only surviving blobs.
///
/// # Errors
///
/// Propagates directory-scan I/O errors (individual unlink failures are
/// counted as kept, never fatal).
pub fn gc(root: &Path) -> std::io::Result<GcReport> {
    let mut report = GcReport::default();
    let entries = sorted_entries(root)?;
    // Pass 1: verify blobs.
    let mut valid = std::collections::BTreeSet::new();
    for (name, _) in &entries {
        if let Some(addr) = name.strip_suffix(".blob") {
            let ok = fs::read_to_string(root.join(name))
                .is_ok_and(|body| hash_hex(fnv1a64(body.as_bytes())) == addr);
            if ok {
                valid.insert(addr.to_owned());
            }
        }
    }
    // Pass 2: resolve links; drop dangling ones, collect references.
    let mut referenced = std::collections::BTreeSet::new();
    for (name, _) in &entries {
        if name.ends_with(".key") {
            let target = fs::read_to_string(root.join(name)).unwrap_or_default();
            let target = target.trim();
            if valid.contains(target) {
                referenced.insert(target.to_owned());
            } else if fs::remove_file(root.join(name)).is_ok() {
                report.removed_links += 1;
            }
        }
    }
    // Pass 3: drop unreferenced/corrupt blobs and crashed-writer tmps.
    for (name, size) in &entries {
        if let Some(addr) = name.strip_suffix(".blob") {
            if referenced.contains(addr) {
                report.kept_blobs += 1;
            } else if fs::remove_file(root.join(name)).is_ok() {
                report.removed_blobs += 1;
                report.freed_bytes += size;
            } else {
                report.kept_blobs += 1;
            }
        } else if name.ends_with(".tmp") && fs::remove_file(root.join(name)).is_ok() {
            report.removed_tmp += 1;
        }
    }
    // Rewrite the manifest to only surviving blobs (fresh accounting).
    let manifest = load_manifest(root);
    let mut text = String::new();
    for addr in &referenced {
        if let Some((stage, bytes)) = manifest.get(addr) {
            let body = format!("{{\"addr\":\"{addr}\",\"stage\":\"{stage}\",\"bytes\":{bytes}}}");
            let _ = writeln!(text, "v1 {} {body}", hash_hex(fnv1a64(body.as_bytes())));
        }
    }
    if root.exists() {
        let _ = atomic_write_unique(&root.join(MANIFEST_FILE), text.as_bytes());
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// The stage runner
// ---------------------------------------------------------------------------

/// Runs one stage through the cache.
///
/// - `cache`/`key` absent → `compute` runs inline under the ambient
///   collector, exactly as an uncached flow would (zero overhead, byte-
///   identical event stream).
/// - Hit → the payload is decoded, its captured trace is
///   [`ffet_obs::replay`]ed (root spans get `cached=true`), and the
///   artifact is returned with a stage time of `0.0` ms.
/// - Miss → `compute` runs under [`ffet_obs::capture`]; on success the
///   capture is replayed (`cached=false`), timing-stripped, encoded and
///   stored. Errors are replayed but never stored, so failed attempts
///   (timeouts, dirty signoff) cannot populate the cache.
///
/// Returns `(artifact, stage_ms, payload_addr)`; the address is `None`
/// when uncached or when the store failed (downstream stages then skip
/// caching too, keeping keys sound).
///
/// # Errors
///
/// Whatever `compute` returns.
pub fn run_stage<T, E>(
    cache: Option<&StageCache>,
    key: Option<String>,
    stage: &'static str,
    encode: impl FnOnce(&T, &PointData) -> String,
    decode: impl FnOnce(&str) -> Option<(T, PointData)>,
    compute: impl FnOnce() -> Result<(T, f64), E>,
) -> Result<(T, f64, Option<String>), E> {
    let (Some(cache), Some(key)) = (cache, key) else {
        let (value, ms) = compute()?;
        return Ok((value, ms, None));
    };
    if let Some((addr, body)) = cache.lookup(&key) {
        if let Some((value, data)) = decode(&body) {
            ffet_obs::cache_event("cache.hit", stage);
            ffet_obs::replay(
                &data,
                ffet_obs::ambient_elapsed_us(),
                &[("cached".to_owned(), AttrValue::Bool(true))],
            );
            return Ok((value, 0.0, Some(addr)));
        }
    }
    ffet_obs::cache_event("cache.miss", stage);
    let offset_us = ffet_obs::ambient_elapsed_us();
    let (result, mut data) = ffet_obs::capture(compute);
    match result {
        Ok((value, ms)) => {
            ffet_obs::replay(
                &data,
                offset_us,
                &[("cached".to_owned(), AttrValue::Bool(false))],
            );
            ffet_obs::strip_point_timing(&mut data);
            let payload = encode(&value, &data);
            let addr = cache.store(&key, stage, &payload);
            if addr.is_some() {
                ffet_obs::cache_event("cache.store", stage);
            }
            Ok((value, ms, addr))
        }
        Err(e) => {
            ffet_obs::replay(
                &data,
                offset_us,
                &[("cached".to_owned(), AttrValue::Bool(false))],
            );
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffet_tech::TechKind;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ffet-stagecache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn small_flow_pieces() -> (FlowConfig, ffet_cells::Library, Netlist) {
        let config = FlowConfig {
            pattern: ffet_tech::RoutingPattern::new(12, 12).expect("static"),
            back_pin_ratio: 0.5,
            utilization: 0.6,
            ..FlowConfig::baseline(TechKind::Ffet3p5t)
        };
        let library = config.build_library().expect("valid config");
        let netlist = crate::designs::counter_pipeline(&library, 12);
        (config, library, netlist)
    }

    #[test]
    fn codec_scalars_round_trip() {
        let mut e = Enc::new("t");
        e.u(0);
        e.u(u64::MAX);
        e.i(-42);
        e.i128v(i128::MIN);
        e.f(-0.0);
        e.f(f64::NAN);
        e.b(true);
        e.s("");
        e.s("hello world:with 3 tokens");
        let text = e.finish();
        let mut d = Dec::new(&text, "t").expect("tag");
        assert_eq!(d.u(), Some(0));
        assert_eq!(d.u(), Some(u64::MAX));
        assert_eq!(d.i(), Some(-42));
        assert_eq!(d.i128v(), Some(i128::MIN));
        assert_eq!(d.f().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(d.f().map(f64::to_bits), Some(f64::NAN.to_bits()));
        assert_eq!(d.b(), Some(true));
        assert_eq!(d.s(), Some(""));
        assert_eq!(d.s(), Some("hello world:with 3 tokens"));
        assert!(d.done());
        // Wrong stage tag rejects the whole payload.
        assert!(Dec::new(&text, "other").is_none());
    }

    #[test]
    fn netlist_payload_round_trips_byte_exactly() {
        let (_config, library, mut netlist) = small_flow_pieces();
        // Exercise synthesized structure (buffers, resized drives).
        crate::synth::synthesize(
            &mut netlist,
            &library,
            &crate::synth::SynthConfig::default(),
        )
        .expect("synth");
        let payload = encode_synth(&netlist, &PointData::default());
        let (decoded, _) = decode_synth(&payload).expect("decode");
        assert_eq!(decoded.name(), netlist.name());
        assert_eq!(decoded.instances().len(), netlist.instances().len());
        decoded.check_consistency(&library).expect("consistent");
        // Canonical: re-encoding the decoded netlist reproduces the bytes.
        assert_eq!(encode_synth(&decoded, &PointData::default()), payload);
    }

    #[test]
    fn full_stage_payloads_round_trip_through_a_real_flow() {
        let (config, library, netlist) = small_flow_pieces();
        let outcome = crate::run_flow(&netlist, &library, &config).expect("flow");

        let pnr_payload = encode_pnr(
            &(netlist.clone(), outcome.pnr.clone()),
            &PointData::default(),
        );
        let ((_, pnr), _) = decode_pnr(&pnr_payload).expect("pnr decode");
        assert_eq!(pnr.routing.wirelength_nm, outcome.pnr.routing.wirelength_nm);
        assert_eq!(pnr.front_def, outcome.pnr.front_def);
        assert_eq!(pnr.placement.origins, outcome.pnr.placement.origins);
        assert_eq!(
            encode_pnr(&(netlist.clone(), pnr), &PointData::default()),
            pnr_payload
        );

        let merge_payload = encode_merge(&outcome.merged_def, &PointData::default());
        let (merged, _) = decode_merge(&merge_payload).expect("merge decode");
        assert_eq!(merged, outcome.merged_def);

        let signoff_payload = encode_signoff_payload(&outcome.signoff, &PointData::default());
        let (signoff, _) = decode_signoff_payload(&signoff_payload).expect("signoff decode");
        assert_eq!(signoff, outcome.signoff);

        let rcx_payload = encode_rcx(&outcome.parasitics, &PointData::default());
        let (parasitics, _) = decode_rcx(&rcx_payload).expect("rcx decode");
        assert_eq!(parasitics, outcome.parasitics);

        let power = PowerReport {
            switching_mw: 1.25,
            internal_mw: 0.5,
            leakage_mw: 0.0625,
            clock_mw: 0.75,
        };
        let sta_payload = encode_sta(&(outcome.timing.clone(), power), &PointData::default());
        let ((timing, power2), _) = decode_sta(&sta_payload).expect("sta decode");
        assert_eq!(timing, outcome.timing);
        assert_eq!(power2.clock_mw, 0.75);
        assert_eq!(
            encode_sta(&(timing, power2), &PointData::default()),
            sta_payload
        );
    }

    #[test]
    fn point_data_round_trips() {
        let (_, data) = ffet_obs::capture(|| {
            let root = ffet_obs::span("flow.synth").attr("k", "v");
            ffet_obs::counter_add("c", 3);
            ffet_obs::gauge_set("g", 1.5);
            ffet_obs::observe("h", 0.25);
            let inner = ffet_obs::span("rcx.batch").attr("batch", 0_i64);
            inner.close();
            root.close();
        });
        let mut stripped = data.clone();
        ffet_obs::strip_point_timing(&mut stripped);
        let mut e = Enc::new("t");
        enc_point_data(&mut e, &stripped);
        let text = e.finish();
        let mut d = Dec::new(&text, "t").expect("tag");
        let decoded = dec_point_data(&mut d).expect("decode");
        assert!(d.done());
        assert_eq!(decoded, stripped);
    }

    #[test]
    fn store_lookup_and_poisoned_blob_semantics() {
        let dir = scratch("store");
        let cache = StageCache::new(&dir);
        let key = "sc1|test|abc";
        assert!(cache.lookup(key).is_none(), "cold cache misses");
        let addr = cache.store(key, "synth", "payload body").expect("store");
        let (addr2, body) = cache.lookup(key).expect("hit");
        assert_eq!(addr, addr2);
        assert_eq!(body, "payload body");
        // Poison the blob: lookup must become a deterministic miss.
        fs::write(dir.join(format!("{addr}.blob")), b"tampered").expect("tamper");
        assert!(cache.lookup(key).is_none(), "poisoned blob is a miss");
        // verify reports it; gc removes it together with the dangling link.
        let v = verify(&dir).expect("verify");
        assert_eq!(v.corrupt, vec![addr.clone()]);
        assert_eq!(v.dangling, 1);
        let g = gc(&dir).expect("gc");
        assert_eq!(g.removed_blobs, 1);
        assert_eq!(g.removed_links, 1);
        assert!(!dir.join(format!("{addr}.blob")).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_and_gc_account_sizes() {
        let dir = scratch("stats");
        let cache = StageCache::new(&dir);
        let a = cache.store("k1", "synth", "aaaa").expect("store");
        let _b = cache.store("k2", "pnr", "bbbbbbbb").expect("store");
        // Same payload under another key: deduplicated blob, second link.
        let a2 = cache.store("k3", "synth", "aaaa").expect("store");
        assert_eq!(a, a2);
        let s = stats(&dir).expect("stats");
        assert_eq!(s.blobs, 2);
        assert_eq!(s.links, 3);
        assert_eq!(s.blob_bytes, 12);
        assert_eq!(s.per_stage["synth"], (1, 4));
        assert_eq!(s.per_stage["pnr"], (1, 8));
        assert_eq!(s.unattributed, 0);
        // Remove the links to k2: its blob becomes garbage.
        fs::remove_file(dir.join(format!("{}.key", hash_hex(fnv1a64(b"k2"))))).expect("rm");
        let g = gc(&dir).expect("gc");
        assert_eq!(g.removed_blobs, 1);
        assert_eq!(g.freed_bytes, 8);
        assert_eq!(g.kept_blobs, 1);
        let s = stats(&dir).expect("stats");
        assert_eq!(s.blobs, 1);
        assert!(!s.per_stage.contains_key("pnr"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_stage_inline_without_cache() {
        let out = run_stage::<i32, ()>(
            None,
            None,
            "synth",
            |_, _| String::new(),
            |_| None,
            || Ok((7, 1.0)),
        );
        assert_eq!(out, Ok((7, 1.0, None)));
    }

    #[test]
    fn keys_separate_stages_and_configs() {
        let (config, _library, netlist) = small_flow_pieces();
        let k1 = synth_key(&config, &netlist);
        let mut faster = config.clone();
        faster.target_freq_ghz = 3.0;
        assert_ne!(k1, synth_key(&faster, &netlist));
        // Synth shares across the back-pin-ratio and seed axes…
        let mut bp = config.clone();
        bp.back_pin_ratio = 0.3;
        bp.seed = 7;
        assert_eq!(k1, synth_key(&bp, &netlist));
        // …but pnr does not.
        assert_ne!(pnr_key(&config, "aa"), pnr_key(&bp, "aa"));
        // Wall-clock knobs never reach a key.
        let mut wide = config.clone();
        wide.route_jobs = 16;
        wide.deadline_ms = Some(5);
        wide.max_attempts = 9;
        assert_eq!(pnr_key(&config, "aa"), pnr_key(&wide, "aa"));
        // Upstream address changes cascade.
        assert_ne!(merge_key("aa"), merge_key("bb"));
        assert_ne!(sta_key(&config, "aa", "cc"), sta_key(&config, "aa", "dd"));
    }
}
