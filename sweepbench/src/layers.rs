//! Per-layer attribution of a traced sweep: self times and counts read
//! from the benchmark-side spans of [`crate::walk`] and the `pnr.*` /
//! `route.*` spans that `ffet-pnr` records under the installed collector.

use ffet_obs::{AttrValue, PointData, SpanEvent};

/// Per-layer totals over one traced sweep (times summed over points).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    pub attempts: u64,
    pub retry_ms: f64,
    pub synth_ms: f64,
    pub pnr_ms: f64,
    pub place_ms: f64,
    pub cts_ms: f64,
    pub route_ms: f64,
    pub route_rounds: u64,
    pub route_ripups: u64,
    pub merge_ms: f64,
    pub signoff_ms: f64,
    pub rcx_ms: f64,
    pub sta_ms: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Whole `bench.stage` spans that hit: lookup, decode and replay.
    pub replay_ms: f64,
    /// What `bench.stage` spans that missed spent outside the computation:
    /// key hashing, encoding and the store write.
    pub store_ms: f64,
    /// Sum of all `bench.stage` and `bench.drop` spans: the attempt time
    /// the walk attributes.
    pub accounted_ms: f64,
}

fn attr<'a>(e: &'a SpanEvent, key: &str) -> Option<&'a AttrValue> {
    e.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn int_attr(e: &SpanEvent, key: &str) -> i64 {
    match attr(e, key) {
        Some(AttrValue::Int(i)) => *i,
        _ => 0,
    }
}

/// Whether `e` was replayed from a stage-cache hit (or nests in such a
/// span): it did no work in this run, its durations are zero and its
/// counts are not ours.
fn replayed<'a>(by_id: &[Option<&'a SpanEvent>], mut e: &'a SpanEvent) -> bool {
    loop {
        if matches!(attr(e, "cached"), Some(AttrValue::Bool(true))) {
            return true;
        }
        match e.parent.and_then(|p| by_id[p as usize]) {
            Some(parent) => e = parent,
            None => return false,
        }
    }
}

impl Layers {
    /// Folds one point's trace into the totals.
    pub fn add_point(&mut self, data: &PointData) {
        let events = &data.events;
        let mut by_id: Vec<Option<&SpanEvent>> = Vec::new();
        let mut children: Vec<Vec<usize>> = Vec::new();
        for e in events {
            let id = e.id as usize;
            if by_id.len() <= id {
                by_id.resize(id + 1, None);
            }
            by_id[id] = Some(e);
        }
        children.resize(by_id.len(), Vec::new());
        for e in events {
            if let Some(p) = e.parent {
                children[p as usize].push(e.id as usize);
            }
        }
        let replayed = |e| replayed(&by_id, e);
        for e in events {
            let ms = e.dur_us / 1e3;
            match e.name.as_str() {
                "bench.attempt" => {
                    self.attempts += 1;
                    if int_attr(e, "attempt") >= 1 {
                        self.retry_ms += ms;
                    }
                }
                "bench.drop" => self.accounted_ms += ms,
                "bench.stage" => {
                    self.accounted_ms += ms;
                    let kids: Vec<&SpanEvent> = children[e.id as usize]
                        .iter()
                        .filter_map(|&c| by_id[c])
                        .collect();
                    if kids.iter().any(|k| replayed(k)) {
                        self.cache_hits += 1;
                        self.replay_ms += ms;
                    } else {
                        self.cache_misses += 1;
                        self.store_ms += ms - kids.iter().map(|k| k.dur_us / 1e3).sum::<f64>();
                    }
                }
                _ if replayed(e) => {}
                "bench.synth" => self.synth_ms += ms,
                "bench.pnr" => self.pnr_ms += ms,
                "bench.merge" => self.merge_ms += ms,
                "bench.signoff" => self.signoff_ms += ms,
                "bench.rcx" => self.rcx_ms += ms,
                "bench.sta" => self.sta_ms += ms,
                "pnr.place" | "pnr.place2" => self.place_ms += ms,
                "pnr.cts" => self.cts_ms += ms,
                "pnr.route" => self.route_ms += ms,
                "route.round" => {
                    self.route_rounds += 1;
                    self.route_ripups += int_attr(e, "rerouted").max(0) as u64;
                }
                _ => {}
            }
        }
    }

    /// P&R time outside placement, CTS and routing (floorplans, power
    /// plan, net decomposition, DEF export).
    #[must_use]
    pub fn pnr_other_ms(&self) -> f64 {
        self.pnr_ms - self.place_ms - self.cts_ms - self.route_ms
    }

    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

/// The part of one point's wall time its spans attribute, ms.
#[must_use]
pub fn accounted_ms(data: &PointData) -> f64 {
    let mut one = Layers::default();
    one.add_point(data);
    one.accounted_ms
}
