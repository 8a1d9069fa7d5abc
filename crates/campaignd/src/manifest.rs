//! Checkpointed campaign progress: the atomically-updated
//! `manifest.json` plus the crash-recovery scan that reconciles it with
//! the shard files actually on disk.
//!
//! Two write rules make a campaign killable at any instant:
//!
//! 1. Every durable file (shard artifact, manifest, merged artifact) is
//!    written to a `*.tmp` sibling and `rename`d into place — readers
//!    never observe a half-written file.
//! 2. A shard's artifact is renamed into place *before* the manifest
//!    records it done. A kill between the two leaves a finished shard
//!    the manifest doesn't know about; [`reconcile`] re-adopts it from
//!    the directory scan on the next invocation. The opposite order
//!    could record a shard that never hit the disk — unrecoverable.

use crate::error::CampaignError;
use flexstep_core::json::{self, JsonObject, JsonValue};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Manifest format version written to and required from
/// `manifest.json`.
pub const MANIFEST_VERSION: u64 = 1;

/// The set of finished shard ids, checkpointed after every shard.
/// Everything else (`in-flight`, `pending`) is derived: pending is the
/// spec's shard list minus `done`, and in-flight work is by design
/// *lost* on a kill — a shard is either durably finished or it never
/// happened.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    done: BTreeSet<usize>,
}

impl Manifest {
    /// An empty manifest (fresh campaign).
    pub fn new() -> Self {
        Self::default()
    }

    /// The finished shard ids, ascending.
    pub fn done(&self) -> &BTreeSet<usize> {
        &self.done
    }

    /// Whether shard `id` is durably finished.
    pub fn is_done(&self, id: usize) -> bool {
        self.done.contains(&id)
    }

    /// Records shard `id` as finished.
    pub fn mark_done(&mut self, id: usize) {
        self.done.insert(id);
    }

    /// Renders the `manifest.json` document. `done` serialises in
    /// ascending order, so equal progress states render byte-identical
    /// regardless of completion order.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("version", MANIFEST_VERSION).field_raw(
            "done",
            &json::numbers_u64(self.done.iter().map(|&id| id as u64)),
        );
        o.finish()
    }

    /// Parses a `manifest.json` document.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Spec`] on malformed JSON or a version
    /// mismatch.
    pub fn parse(input: &str) -> Result<Manifest, CampaignError> {
        let bad = |msg: String| CampaignError::Spec(msg);
        let doc = JsonValue::parse(input)
            .map_err(|e| bad(format!("manifest.json is not valid JSON: {e}")))?;
        let version = doc
            .get("version")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| bad("manifest.json: missing numeric \"version\"".into()))?;
        if version != MANIFEST_VERSION {
            return Err(bad(format!(
                "manifest.json: version {version} not supported \
                 (this build reads {MANIFEST_VERSION})"
            )));
        }
        let mut manifest = Manifest::new();
        for v in doc
            .get("done")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| bad("manifest.json: missing array \"done\"".into()))?
        {
            let id = v
                .as_u64()
                .ok_or_else(|| bad("manifest.json: non-numeric shard id".into()))?;
            manifest.mark_done(id as usize);
        }
        Ok(manifest)
    }
}

/// `dir/manifest.json`.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

/// `dir/shards/` — one `shard-NNNN.jsonl` per finished shard.
pub fn shards_dir(dir: &Path) -> PathBuf {
    dir.join("shards")
}

/// `dir/shards/shard-NNNN.jsonl`.
pub fn shard_path(dir: &Path, id: usize) -> PathBuf {
    shards_dir(dir).join(format!("shard-{id:04}.jsonl"))
}

/// Writes `contents` to `path` atomically: a `*.tmp` sibling is written
/// and fsync'd shape-wise via close, then renamed over `path`. A kill
/// at any point leaves either the old file, no file, or the new file —
/// never a torn one.
///
/// # Errors
///
/// Returns [`CampaignError::Io`] naming the failing path.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), CampaignError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents).map_err(|e| CampaignError::io(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| CampaignError::io(path, e))
}

/// Persists the manifest atomically.
///
/// # Errors
///
/// Returns [`CampaignError::Io`] on write failure.
pub fn store(dir: &Path, manifest: &Manifest) -> Result<(), CampaignError> {
    write_atomic(&manifest_path(dir), &(manifest.to_json() + "\n"))
}

/// Loads the manifest, or an empty one when none exists yet.
///
/// # Errors
///
/// Returns [`CampaignError::Io`] on read failure (other than absence)
/// or [`CampaignError::Spec`] on a malformed document.
pub fn load_or_default(dir: &Path) -> Result<Manifest, CampaignError> {
    let path = manifest_path(dir);
    match std::fs::read_to_string(&path) {
        Ok(text) => Manifest::parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Manifest::new()),
        Err(e) => Err(CampaignError::io(&path, e)),
    }
}

/// Crash recovery: loads the manifest, adopts any complete shard file
/// the manifest missed (killed between rename and checkpoint), sweeps
/// `*.tmp` debris, and re-persists the reconciled manifest.
///
/// # Errors
///
/// Returns [`CampaignError::Io`] on directory or file I/O failure, or
/// [`CampaignError::Spec`] on a malformed manifest or one that records
/// a shard id past the spec's `total_shards`.
pub fn reconcile(dir: &Path, total_shards: usize) -> Result<Manifest, CampaignError> {
    let mut manifest = load_or_default(dir)?;
    if let Some(id) = manifest.done.range(total_shards..).next() {
        return Err(CampaignError::Spec(format!(
            "manifest.json records shard {id}, but the spec has only {total_shards} shards"
        )));
    }
    let shards = shards_dir(dir);
    std::fs::create_dir_all(&shards).map_err(|e| CampaignError::io(&shards, e))?;
    let entries = std::fs::read_dir(&shards).map_err(|e| CampaignError::io(&shards, e))?;
    let mut adopted = false;
    for entry in entries {
        let entry = entry.map_err(|e| CampaignError::io(&shards, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".tmp") {
            // A torn write from a killed worker; the shard re-runs.
            std::fs::remove_file(entry.path()).map_err(|e| CampaignError::io(&entry.path(), e))?;
            continue;
        }
        if let Some(id) = name
            .strip_prefix("shard-")
            .and_then(|r| r.strip_suffix(".jsonl"))
            .and_then(|digits| digits.parse::<usize>().ok())
        {
            if id < total_shards && !manifest.is_done(id) {
                manifest.mark_done(id);
                adopted = true;
            }
        }
    }
    if adopted {
        store(dir, &manifest)?;
    }
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flexstep_manifest_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifest_round_trips_and_renders_order_independently() {
        let mut a = Manifest::new();
        for id in [5, 1, 3] {
            a.mark_done(id);
        }
        let mut b = Manifest::new();
        for id in [3, 5, 1] {
            b.mark_done(id);
        }
        assert_eq!(a.to_json(), b.to_json(), "completion order must not leak");
        assert_eq!(Manifest::parse(&a.to_json()).unwrap(), a);
    }

    #[test]
    fn reconcile_adopts_orphan_shards_and_sweeps_tmp_files() {
        let dir = tmp_dir("reconcile");
        let mut manifest = Manifest::new();
        manifest.mark_done(0);
        store(&dir, &manifest).unwrap();
        std::fs::create_dir_all(shards_dir(&dir)).unwrap();
        // Shard 2 finished but the checkpoint was lost to a kill.
        std::fs::write(shard_path(&dir, 2), "{\"id\": 2}\n").unwrap();
        // Shard 3 was torn mid-write.
        let torn = shards_dir(&dir).join("shard-0003.jsonl.tmp");
        std::fs::write(&torn, "{\"id\"").unwrap();
        // A shard beyond the spec's range is ignored, not adopted.
        std::fs::write(shard_path(&dir, 9), "{\"id\": 9}\n").unwrap();

        let reconciled = reconcile(&dir, 4).unwrap();
        assert!(reconciled.is_done(0) && reconciled.is_done(2));
        assert!(!reconciled.is_done(3) && !reconciled.is_done(9));
        assert!(!torn.exists(), "tmp debris must be swept");
        // The adoption was persisted.
        assert_eq!(load_or_default(&dir).unwrap(), reconciled);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_defaults_to_empty_and_rejects_garbage() {
        let dir = tmp_dir("load");
        assert_eq!(load_or_default(&dir).unwrap(), Manifest::new());
        std::fs::write(manifest_path(&dir), "not json").unwrap();
        assert!(load_or_default(&dir).is_err());
        std::fs::write(manifest_path(&dir), "{\"version\": 9, \"done\": []}").unwrap();
        assert!(load_or_default(&dir).is_err(), "future versions rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
