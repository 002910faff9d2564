//! Crash-safe artifact writes and the run's config signature.
//!
//! Every tracked artifact is written atomically ([`atomic_write`]: sibling
//! tmp file + `rename`), so a mid-write kill can never leave a half-written
//! tracked file — at worst an orphan `*.tmp`. A sweep killed at an
//! arbitrary point is recovered by rerunning the same command: finished
//! points replay from the stage cache (DESIGN §12, §14.4).

use crate::recover::DEFAULT_MAX_ATTEMPTS;
use crate::run::RunEnv;
use ffet_obs::{fnv1a64, hash_hex};
use std::fs;
use std::path::{Path, PathBuf};

/// Hash of the knobs of `run` that can change experiment *outputs*:
/// design, attempt budget, fault plan and deadline. Widths and the cache
/// root are excluded — the §7 determinism contract and the cache's
/// byte-identity make outputs independent of them, so ledger entries
/// compare across both. A knob at its default renders as an empty field.
/// The performance ledger matches baselines on it (DESIGN §13).
#[must_use]
pub fn config_signature(run: &RunEnv) -> String {
    let max_attempts = if run.max_attempts == DEFAULT_MAX_ATTEMPTS {
        String::new()
    } else {
        run.max_attempts.to_string()
    };
    let deadline = run
        .deadline_ms
        .map_or_else(String::new, |ms| (ms as f64 / 1000.0).to_string());
    // The `ckpt-v1|` prefix is frozen: the checked-in
    // `results/ledger/baseline.jsonl` keys on the hash of this exact string.
    let sig = format!(
        "ckpt-v1|design={:?}|max_attempts={max_attempts}|faults={}|deadline={deadline}",
        run.design,
        run.faults.spec(),
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
    fn config_signature_matches_the_checked_in_ledger_baseline() {
        use crate::experiments::DesignKind;
        // The `cfg` of the counter `fig9` entry in results/ledger/baseline.jsonl.
        let run = RunEnv::new(DesignKind::CounterSmall);
        assert_eq!(config_signature(&run), "044586a4e3d175ae");
        // Widths and the cache root never enter it; a knob spelled at its
        // default is the same config as an unset one.
        let same = RunEnv {
            stage_cache: Some(PathBuf::from("elsewhere")),
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            ..run.clone().with_jobs(4)
        };
        assert_eq!(config_signature(&same), config_signature(&run));
        let outputs_differ = [
            RunEnv::new(DesignKind::Rv32),
            RunEnv {
                max_attempts: 5,
                ..run.clone()
            },
            RunEnv {
                deadline_ms: Some(1500),
                ..run.clone()
            },
            RunEnv {
                faults: crate::FaultPlan::parse("route-open@1").expect("valid spec"),
                ..run.clone()
            },
        ];
        for other in &outputs_differ {
            assert_ne!(config_signature(other), config_signature(&run), "{other:?}");
        }
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
}
