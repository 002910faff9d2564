//! Crash-safe checkpointing: atomic artifact writes, a content-addressed
//! checkpoint store, and a checksummed write-ahead journal with torn-write
//! recovery.
//!
//! The sweep driver (`repro`) journals one record per completed experiment.
//! A record points at a content-addressed blob in the store holding
//! everything needed to replay the experiment's artifacts byte-for-byte
//! (table CSV, runlog rows, trace fragment). `repro --resume` consults the
//! journal and skips experiments whose records validate, so a run killed at
//! an arbitrary point resumes to artifacts byte-identical to an
//! uninterrupted run (DESIGN §12 extends the §7 determinism contract to
//! interrupted runs).
//!
//! Durability posture:
//!
//! - **Every tracked artifact is written atomically** ([`atomic_write`]:
//!   sibling tmp file + `rename`), so a mid-write kill can never leave a
//!   half-written tracked file — at worst an orphan `*.tmp`.
//! - **The journal is append-only** with one checksummed single-line record
//!   per entry. [`Journal::recover`] validates every line and discards the
//!   corrupt trailing region (a torn append) while keeping the valid
//!   prefix; discarding rewrites the journal atomically.
//! - **Store blobs are self-verifying**: the address *is* the FNV-1a hash
//!   of the body, so [`Store::get`] re-hashes on read and treats a mismatch
//!   as absent (a stale or corrupt blob forces recompute, never replay of
//!   bad data).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Journal schema version; bumped on any incompatible record change.
pub const JOURNAL_VERSION: &str = "v1";

/// Default checkpoint directory, relative to the run's working directory.
pub const CKPT_DIR: &str = "results/ckpt";

/// Journal file name inside [`CKPT_DIR`].
pub const JOURNAL_FILE: &str = "journal.jsonl";

// The FNV-1a content-addressing/checksum primitive is shared with the
// cross-run ledger and lives in `ffet-obs` (the dependency arrow points
// core -> obs); re-exported here so every historical `ckpt::fnv1a64`
// call site keeps compiling.
pub use ffet_obs::{fnv1a64, hash_hex};

/// Hash of everything that changes experiment *outputs*: design, recovery
/// budget, fault plan, deadline, and the payload schema version. Worker
/// counts (`FFET_JOBS`/`FFET_ROUTE_JOBS`) are deliberately excluded — the
/// §7 determinism contract makes outputs identical across widths, so a
/// sweep may be resumed (and its ledger entries compared) under a
/// different parallelism. Shared by the journal's replay matching and the
/// performance ledger's baseline matching (DESIGN §12.3, §13).
#[must_use]
pub fn config_signature(design: crate::experiments::DesignKind) -> String {
    let sig = format!(
        "ckpt-{JOURNAL_VERSION}|design={design:?}|max_attempts={}|faults={}|deadline={}",
        std::env::var(crate::MAX_ATTEMPTS_ENV).unwrap_or_default(),
        std::env::var(crate::FAULTS_ENV).unwrap_or_default(),
        std::env::var(crate::DEADLINE_ENV).unwrap_or_default(),
    );
    hash_hex(fnv1a64(sig.as_bytes()))
}

/// Writes `bytes` to `path` atomically: the parent directory is created,
/// the body lands in a sibling `<name>.tmp`, and a `rename` publishes it.
/// Readers never observe a partially written file at `path`.
///
/// The tmp name is deterministic per target, so a crashed writer's orphan
/// is overwritten by the next attempt rather than accumulating.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    atomic_write_via(path, bytes, ".tmp")
}

/// [`atomic_write`] with a writer-unique tmp name. Use when *concurrent
/// processes or threads* may publish the same target path: the shared
/// deterministic `.tmp` of [`atomic_write`] lets one writer rename another
/// writer's half-written sibling into place, whereas a pid+sequence-unique
/// sibling makes the final `rename` the only shared step — last writer wins
/// with a complete body. The stage cache publishes content-addressed blobs
/// this way (same address ⇒ same bytes, so any winner is correct).
pub fn atomic_write_unique(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    atomic_write_via(path, bytes, &format!(".{}-{seq}.tmp", std::process::id()))
}

fn atomic_write_via(path: &Path, bytes: &[u8], suffix: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(suffix);
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes)?; // ffet-analyze: allow(R002) -- the atomic-write primitive itself; the tmp file is renamed over the target below
    fs::rename(&tmp, path)
}

/// Content-addressed blob store under a checkpoint directory. The address
/// of a blob is the FNV-1a hash of its body, so `get` can verify integrity
/// without any side metadata.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// A store rooted at `root` (usually [`CKPT_DIR`]). Nothing is created
    /// until the first `put`.
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Store { root: root.into() }
    }

    fn blob_path(&self, addr: &str) -> PathBuf {
        self.root.join(format!("{addr}.blob"))
    }

    /// Stores `body` and returns its address. Idempotent: an existing blob
    /// with the same address is left untouched (content-addressing makes
    /// the write a no-op re-publish of identical bytes anyway).
    pub fn put(&self, body: &str) -> std::io::Result<String> {
        let addr = hash_hex(fnv1a64(body.as_bytes()));
        let path = self.blob_path(&addr);
        if !path.exists() {
            atomic_write(&path, body.as_bytes())?;
        }
        Ok(addr)
    }

    /// Fetches the blob at `addr`, verifying its content hash. Returns
    /// `None` if the blob is absent *or* fails verification — a corrupt
    /// blob is indistinguishable from a cache miss, forcing recompute.
    #[must_use]
    pub fn get(&self, addr: &str) -> Option<String> {
        let body = fs::read_to_string(self.blob_path(addr)).ok()?;
        if hash_hex(fnv1a64(body.as_bytes())) == addr {
            Some(body)
        } else {
            ffet_obs::counter_add("ckpt.store.corrupt", 1);
            None
        }
    }
}

/// Fault injected into [`Journal::append`] — the hook the `ckpt-torn-write`
/// and `ckpt-stale` fault kinds use to exercise recovery deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JournalFault {
    /// Append normally.
    #[default]
    None,
    /// Write a truncated record with no trailing newline — the on-disk
    /// shape of a process killed mid-append.
    TornWrite,
    /// Write a record whose checksum does not match its body — the shape
    /// of silent corruption or a schema drift.
    StaleHash,
}

/// One validated journal record: experiment `key`, config-hash `cfg`, and
/// the store address `blob` of its replay payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Experiment name (e.g. `fig8`).
    pub key: String,
    /// Deterministic hash of everything that shapes the experiment's
    /// output (design, fault plan, attempt budget, schema version…).
    pub cfg: String,
    /// Store address of the replay payload.
    pub blob: String,
}

/// Write-ahead journal: `v1 <crc16hex> <single-line-json>` per record.
/// The checksum covers the JSON body exactly.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// Valid records, in append order.
    pub records: Vec<JournalRecord>,
    /// Lines discarded on recovery because the record was torn (no
    /// trailing newline on the final chunk).
    pub torn: usize,
    /// Lines discarded on recovery because the checksum or schema did not
    /// validate.
    pub corrupt: usize,
}

impl Journal {
    /// Renders one record line (including the trailing newline).
    fn render_line(key: &str, cfg: &str, blob: &str) -> String {
        let body = format!(
            "{{\"key\":{},\"cfg\":{},\"blob\":{}}}",
            json_str(key),
            json_str(cfg),
            json_str(blob)
        );
        let crc = hash_hex(fnv1a64(body.as_bytes()));
        format!("{JOURNAL_VERSION} {crc} {body}\n")
    }

    /// Parses one newline-stripped line into a record, validating version
    /// and checksum.
    fn parse_line(line: &str) -> Option<JournalRecord> {
        let rest = line.strip_prefix(JOURNAL_VERSION)?.strip_prefix(' ')?;
        let (crc, body) = rest.split_once(' ')?;
        if hash_hex(fnv1a64(body.as_bytes())) != crc {
            return None;
        }
        let json = ffet_obs::parse_json(body).ok()?;
        let obj = match &json {
            ffet_obs::Json::Obj(pairs) => pairs,
            _ => return None,
        };
        let field = |name: &str| -> Option<String> {
            obj.iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| match v {
                    ffet_obs::Json::Str(s) => Some(s.clone()),
                    _ => None,
                })
        };
        Some(JournalRecord {
            key: field("key")?,
            cfg: field("cfg")?,
            blob: field("blob")?,
        })
    }

    /// Loads and validates the journal at `path`, discarding the corrupt
    /// or torn trailing region. If anything was discarded, the valid
    /// prefix is rewritten atomically so a later append starts from a
    /// clean file. A missing journal recovers to empty.
    pub fn recover(path: &Path) -> std::io::Result<Journal> {
        let mut span = ffet_obs::span("ckpt.recover");
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => {
                span.close();
                return Err(e);
            }
        };
        let mut journal = Journal::default();
        let mut valid_len = 0usize;
        let mut rest = text.as_str();
        let mut offset = 0usize;
        while !rest.is_empty() {
            let Some(nl) = rest.find('\n') else {
                // Trailing chunk without a newline: a torn append.
                journal.torn += 1;
                break;
            };
            let line = &rest[..nl];
            match Journal::parse_line(line) {
                Some(rec) => {
                    journal.records.push(rec);
                    valid_len = offset + nl + 1;
                }
                None => {
                    // A corrupt record invalidates everything after it —
                    // append order is the replay order, so a hole cannot
                    // be skipped over.
                    journal.corrupt += 1;
                    break;
                }
            }
            offset += nl + 1;
            rest = &rest[nl + 1..];
        }
        let discarded_tail = text.len() > valid_len;
        if journal.torn == 0 && journal.corrupt == 0 && !discarded_tail {
            ffet_obs::counter_add("ckpt.journal.replays", journal.records.len() as i64);
        } else {
            ffet_obs::counter_add("ckpt.journal.torn", journal.torn as i64);
            ffet_obs::counter_add("ckpt.journal.stale", journal.corrupt as i64);
            ffet_obs::counter_add("ckpt.journal.replays", journal.records.len() as i64);
            if path.exists() {
                atomic_write(path, &text.as_bytes()[..valid_len])?;
            }
        }
        span.set_attr("records", journal.records.len() as i64);
        span.set_attr("torn", journal.torn as i64);
        span.set_attr("corrupt", journal.corrupt as i64);
        span.close();
        Ok(journal)
    }

    /// Appends one record to the journal at `path` (creating parents as
    /// needed), honoring an injected [`JournalFault`]. The append is a
    /// single `write_all` of one line; `TornWrite` truncates the line and
    /// drops the newline, `StaleHash` corrupts the checksum.
    pub fn append(
        &mut self,
        path: &Path,
        key: &str,
        cfg: &str,
        blob: &str,
        fault: JournalFault,
    ) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let line = Journal::render_line(key, cfg, blob);
        let payload = match fault {
            JournalFault::None => line.clone(),
            JournalFault::TornWrite => {
                // Half the record, no newline: the on-disk shape of a kill
                // mid-append.
                line[..line.len() / 2].to_owned()
            }
            JournalFault::StaleHash => line.replacen(' ', " 0000000000000000 ", 1),
        };
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(payload.as_bytes())?;
        ffet_obs::counter_add("ckpt.journal.appends", 1);
        if fault == JournalFault::None {
            self.records.push(JournalRecord {
                key: key.to_owned(),
                cfg: cfg.to_owned(),
                blob: blob.to_owned(),
            });
        }
        Ok(())
    }

    /// The last record matching `key` + `cfg`, if any. Last-wins so a
    /// re-run after a config change (different `cfg`) never replays stale
    /// data, and a re-journaled experiment supersedes its earlier record.
    #[must_use]
    pub fn lookup(&self, key: &str, cfg: &str) -> Option<&JournalRecord> {
        self.records
            .iter()
            .rev()
            .find(|r| r.key == key && r.cfg == cfg)
    }

    /// Removes the journal at `path` (fresh, non-resume runs start clean
    /// so `--resume` semantics stay unambiguous). Missing file is fine.
    pub fn reset(path: &Path) -> std::io::Result<()> {
        match fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

// --- experiment payload blobs (schema v1, DESIGN §12) ---

/// Serializes one completed experiment's outputs as the checkpoint payload
/// blob: `{"v":1,"experiment":…,"csv":…,"runlog":[…],"trace":…}`. The blob
/// is everything `--resume` needs to replay the experiment's artifacts
/// byte-for-byte without recomputing it.
#[must_use]
pub fn payload_json(
    name: &str,
    csv: &str,
    rows: &[crate::runner::RunLogRow],
    trace: &str,
) -> String {
    ffet_obs::Json::Obj(vec![
        ("v".to_owned(), ffet_obs::Json::Int(1)),
        (
            "experiment".to_owned(),
            ffet_obs::Json::Str(name.to_owned()),
        ),
        ("csv".to_owned(), ffet_obs::Json::Str(csv.to_owned())),
        (
            "runlog".to_owned(),
            ffet_obs::Json::Arr(rows.iter().map(row_json).collect()),
        ),
        ("trace".to_owned(), ffet_obs::Json::Str(trace.to_owned())),
    ])
    .render()
}

fn stages_json(s: &crate::flow::StageTimes) -> ffet_obs::Json {
    ffet_obs::Json::Obj(vec![
        ("synth_ms".to_owned(), ffet_obs::Json::Num(s.synth_ms)),
        ("pnr_ms".to_owned(), ffet_obs::Json::Num(s.pnr_ms)),
        ("merge_ms".to_owned(), ffet_obs::Json::Num(s.merge_ms)),
        ("signoff_ms".to_owned(), ffet_obs::Json::Num(s.signoff_ms)),
        ("rcx_ms".to_owned(), ffet_obs::Json::Num(s.rcx_ms)),
        ("sta_ms".to_owned(), ffet_obs::Json::Num(s.sta_ms)),
    ])
}

fn row_json(r: &crate::runner::RunLogRow) -> ffet_obs::Json {
    ffet_obs::Json::Obj(vec![
        (
            "experiment".to_owned(),
            ffet_obs::Json::Str(r.experiment.clone()),
        ),
        ("label".to_owned(), ffet_obs::Json::Str(r.label.clone())),
        ("index".to_owned(), ffet_obs::Json::Int(r.index as i64)),
        ("worker".to_owned(), ffet_obs::Json::Int(r.worker as i64)),
        ("wall_ms".to_owned(), ffet_obs::Json::Num(r.wall_ms)),
        (
            "stages".to_owned(),
            r.stages.as_ref().map_or(ffet_obs::Json::Null, stages_json),
        ),
        (
            "ladder_ms".to_owned(),
            r.ladder_ms
                .map_or(ffet_obs::Json::Null, ffet_obs::Json::Num),
        ),
        (
            "attempts".to_owned(),
            ffet_obs::Json::Int(i64::from(r.attempts)),
        ),
        (
            "disposition".to_owned(),
            ffet_obs::Json::Str(r.disposition.clone()),
        ),
    ])
}

fn stages_from_json(j: &ffet_obs::Json) -> Option<crate::flow::StageTimes> {
    Some(crate::flow::StageTimes {
        synth_ms: j.get("synth_ms")?.as_f64()?,
        pnr_ms: j.get("pnr_ms")?.as_f64()?,
        merge_ms: j.get("merge_ms")?.as_f64()?,
        signoff_ms: j.get("signoff_ms")?.as_f64()?,
        rcx_ms: j.get("rcx_ms")?.as_f64()?,
        sta_ms: j.get("sta_ms")?.as_f64()?,
    })
}

fn row_from_json(j: &ffet_obs::Json) -> Option<crate::runner::RunLogRow> {
    let stages = match j.get("stages")? {
        ffet_obs::Json::Null => None,
        s => Some(stages_from_json(s)?),
    };
    Some(crate::runner::RunLogRow {
        experiment: j.get("experiment")?.as_str()?.to_owned(),
        label: j.get("label")?.as_str()?.to_owned(),
        index: usize::try_from(j.get("index")?.as_i64()?).ok()?,
        worker: usize::try_from(j.get("worker")?.as_i64()?).ok()?,
        wall_ms: j.get("wall_ms")?.as_f64()?,
        stages,
        // Absent in journals written before the column existed.
        ladder_ms: j.get("ladder_ms").and_then(ffet_obs::Json::as_f64),
        attempts: u32::try_from(j.get("attempts")?.as_i64()?).ok()?,
        disposition: j.get("disposition")?.as_str()?.to_owned(),
    })
}

/// Renders the per-point trace fragment for one experiment. Fragments carry
/// no global header, so concatenating per-experiment fragments in sweep
/// order reproduces `trace.jsonl` byte-identically.
#[must_use]
pub fn trace_fragment(traces: &[ffet_obs::LabeledPoint]) -> String {
    let mut frag = ffet_obs::RunArtifacts::new(0);
    frag.extend(traces.iter().cloned());
    frag.trace_jsonl()
}

/// A checkpoint payload decoded back into the exact outputs the original
/// run produced. Any schema mismatch returns `None` and the caller
/// recomputes from scratch.
pub struct ReplayedExperiment {
    pub csv: String,
    pub rows: Vec<crate::runner::RunLogRow>,
    pub traces: Vec<ffet_obs::LabeledPoint>,
}

/// Validates and decodes a payload blob for experiment `name`.
#[must_use]
pub fn parse_payload(name: &str, body: &str) -> Option<ReplayedExperiment> {
    let json = ffet_obs::parse_json(body).ok()?;
    if json.get("v")?.as_i64()? != 1 || json.get("experiment")?.as_str()? != name {
        return None;
    }
    let csv = json.get("csv")?.as_str()?.to_owned();
    let rows = match json.get("runlog")? {
        ffet_obs::Json::Arr(items) => items
            .iter()
            .map(row_from_json)
            .collect::<Option<Vec<crate::runner::RunLogRow>>>()?,
        _ => return None,
    };
    let trace = json.get("trace")?.as_str()?;
    // Group the fragment's lines by their (contiguous) point label first so
    // each point is parsed from only its own lines — `parse_point` against
    // the full fragment per label would be quadratic in sweep size.
    let mut groups: Vec<(String, String)> = Vec::new();
    for line in trace.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let label = ffet_obs::parse_json(line)
            .ok()?
            .get("point")?
            .as_str()?
            .to_owned();
        match groups.last_mut() {
            Some((last, buf)) if *last == label => {
                buf.push_str(line);
                buf.push('\n');
            }
            _ => groups.push((label, format!("{line}\n"))),
        }
    }
    let mut traces = Vec::new();
    for (label, body) in groups {
        let data = ffet_obs::parse_point(&body, &label).ok()?;
        traces.push(ffet_obs::LabeledPoint { label, data });
    }
    Some(ReplayedExperiment { csv, rows, traces })
}

/// Minimal JSON string escaping (mirrors ffet-obs's renderer so journal
/// bodies round-trip through [`ffet_obs::parse_json`]).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffet-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_hex(fnv1a64(b"a")), "af63dc4c8601ec8c");
    }

    #[test]
    fn atomic_write_publishes_and_overwrites() {
        let dir = scratch_dir("atomic");
        let path = dir.join("nested/out.csv");
        atomic_write(&path, b"one").expect("write");
        assert_eq!(fs::read_to_string(&path).expect("read"), "one");
        atomic_write(&path, b"two").expect("rewrite");
        assert_eq!(fs::read_to_string(&path).expect("read"), "two");
        // No orphan tmp after a clean write.
        assert!(!dir.join("nested/out.csv.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_roundtrips_and_rejects_corrupt_blobs() {
        let dir = scratch_dir("store");
        let store = Store::new(&dir);
        let addr = store.put("hello ckpt").expect("put");
        assert_eq!(store.get(&addr).as_deref(), Some("hello ckpt"));
        // Idempotent put.
        assert_eq!(store.put("hello ckpt").expect("put"), addr);
        // Corrupt the blob in place: get must miss, not return bad data.
        fs::write(dir.join(format!("{addr}.blob")), "tampered").expect("tamper");
        assert_eq!(store.get(&addr), None);
        assert_eq!(store.get("doesnotexist"), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_append_recover_roundtrip() {
        let dir = scratch_dir("journal");
        let path = dir.join(JOURNAL_FILE);
        let mut j = Journal::default();
        j.append(&path, "fig8", "cfgA", "blob1", JournalFault::None)
            .expect("append");
        j.append(&path, "fig9", "cfgA", "blob2", JournalFault::None)
            .expect("append");
        let r = Journal::recover(&path).expect("recover");
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.torn, 0);
        assert_eq!(r.corrupt, 0);
        assert_eq!(
            r.lookup("fig9", "cfgA"),
            Some(&JournalRecord {
                key: "fig9".into(),
                cfg: "cfgA".into(),
                blob: "blob2".into(),
            })
        );
        assert_eq!(r.lookup("fig9", "cfgB"), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_is_last_wins() {
        let dir = scratch_dir("lastwins");
        let path = dir.join(JOURNAL_FILE);
        let mut j = Journal::default();
        j.append(&path, "fig8", "cfgA", "old", JournalFault::None)
            .expect("append");
        j.append(&path, "fig8", "cfgA", "new", JournalFault::None)
            .expect("append");
        assert_eq!(
            j.lookup("fig8", "cfgA").map(|r| r.blob.as_str()),
            Some("new")
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_discarded_and_file_repaired() {
        let dir = scratch_dir("torn");
        let path = dir.join(JOURNAL_FILE);
        let mut j = Journal::default();
        j.append(&path, "fig8", "cfgA", "blob1", JournalFault::None)
            .expect("append");
        j.append(&path, "fig9", "cfgA", "blob2", JournalFault::TornWrite)
            .expect("append torn");
        let r = Journal::recover(&path).expect("recover");
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.torn, 1);
        assert_eq!(r.records[0].key, "fig8");
        // The file was repaired: a second recovery is clean.
        let r2 = Journal::recover(&path).expect("recover again");
        assert_eq!(r2.records.len(), 1);
        assert_eq!(r2.torn, 0);
        assert_eq!(r2.corrupt, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_hash_invalidates_suffix() {
        let dir = scratch_dir("stale");
        let path = dir.join(JOURNAL_FILE);
        let mut j = Journal::default();
        j.append(&path, "fig8", "cfgA", "blob1", JournalFault::None)
            .expect("append");
        j.append(&path, "fig9", "cfgA", "blob2", JournalFault::StaleHash)
            .expect("append stale");
        j.append(&path, "fig10", "cfgA", "blob3", JournalFault::None)
            .expect("append");
        let r = Journal::recover(&path).expect("recover");
        // The corrupt record AND everything after it are discarded:
        // replay order must have no holes.
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.corrupt, 1);
        assert_eq!(r.records[0].key, "fig8");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_missing_is_empty_and_reset_is_idempotent() {
        let dir = scratch_dir("missing");
        let path = dir.join(JOURNAL_FILE);
        let r = Journal::recover(&path).expect("recover missing");
        assert!(r.records.is_empty());
        Journal::reset(&path).expect("reset missing");
        let mut j = Journal::default();
        j.append(&path, "k", "c", "b", JournalFault::None)
            .expect("append");
        Journal::reset(&path).expect("reset");
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_keys_escape_cleanly() {
        let dir = scratch_dir("escape");
        let path = dir.join(JOURNAL_FILE);
        let mut j = Journal::default();
        j.append(&path, "k\"ey\n", "c\\fg", "blob", JournalFault::None)
            .expect("append");
        let r = Journal::recover(&path).expect("recover");
        assert_eq!(r.records[0].key, "k\"ey\n");
        assert_eq!(r.records[0].cfg, "c\\fg");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_round_trips_rows_and_csv_exactly() {
        use crate::flow::StageTimes;
        use crate::runner::RunLogRow;
        let rows = vec![
            RunLogRow {
                experiment: "fig11".into(),
                label: "FM12BM12, BP 0.50".into(),
                index: 0,
                worker: 3,
                wall_ms: 12.625,
                stages: Some(StageTimes {
                    synth_ms: 1.5,
                    pnr_ms: 8.0,
                    merge_ms: 0.25,
                    signoff_ms: 1.125,
                    rcx_ms: 0.75,
                    sta_ms: 1.0,
                }),
                ladder_ms: Some(4.5),
                attempts: 2,
                disposition: "timeout(pnr)".into(),
            },
            RunLogRow {
                experiment: "fig11".into(),
                label: "(total)".into(),
                index: 1,
                worker: 0,
                wall_ms: 13.0,
                stages: None,
                ladder_ms: None,
                attempts: 0,
                disposition: "ok".into(),
            },
        ];
        let csv = "a,b\n1,2\n";
        let body = payload_json("fig11", csv, &rows, "");
        let replayed = parse_payload("fig11", &body).expect("payload parses");
        assert_eq!(replayed.csv, csv);
        assert_eq!(replayed.rows.len(), 2);
        assert_eq!(replayed.rows[0].label, rows[0].label);
        assert_eq!(replayed.rows[0].wall_ms, rows[0].wall_ms);
        assert_eq!(
            replayed.rows[0].stages.map(|s| s.pnr_ms),
            rows[0].stages.map(|s| s.pnr_ms)
        );
        assert_eq!(replayed.rows[0].ladder_ms, Some(4.5));
        assert_eq!(replayed.rows[1].ladder_ms, None);
        assert_eq!(replayed.rows[0].disposition, "timeout(pnr)");
        assert_eq!(replayed.rows[1].stages, None);
        assert!(replayed.traces.is_empty());
        // A payload for a different experiment or schema must be rejected.
        assert!(parse_payload("fig12", &body).is_none());
        assert!(parse_payload("fig11", &body.replacen("\"v\":1", "\"v\":2", 1)).is_none());
    }
}
