//! The resumable campaign engine.
//!
//! A campaign directory is the unit of state:
//!
//! ```text
//! <dir>/spec.json          the versioned job spec (written by submit)
//! <dir>/manifest.json      checkpointed progress ({version, done})
//! <dir>/shards/shard-NNNN.jsonl   one JSON line per finished shard
//! <dir>/merged.jsonl       the merge output (all shards, id order)
//! ```
//!
//! [`run`] expands the spec into its deterministic shard list, skips
//! everything the manifest already records, and drains the rest through
//! [`par_map`]: each worker claims the next pending shard, in id order,
//! from one shared counter. Every finished shard is durably renamed
//! into place and checkpointed before its worker claims another, so a
//! `SIGKILL` at any instant loses at most the shards in flight; a
//! subsequent [`run`] (resume is the same code path) redoes only those.
//! `--max-shards N` runs the first `N` pending shards. After a failure
//! no worker claims a new shard, and [`run`] returns the failure of the
//! lowest-id shard that failed.
//!
//! Shard outcomes are pure functions of `(spec, shard id)` — the same
//! RNG streams as [`campaign_row`](flexstep_bench::campaign::campaign_row)
//! chunks — so the [`merge`] artifact is byte-identical no matter how
//! many times the campaign was killed, how many workers ran it, or in
//! what order shards finished.

use crate::error::CampaignError;
use crate::manifest;
use crate::spec::{JobSpec, Shard};
use flexstep_bench::campaign::{probe_horizon, run_shard, ShardOutcome};
use flexstep_bench::par_map;
use flexstep_core::json::{self, JsonObject};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// `dir/spec.json`.
pub fn spec_path(dir: &Path) -> PathBuf {
    dir.join("spec.json")
}

/// `dir/merged.jsonl` — the default [`merge`] destination.
pub fn merged_path(dir: &Path) -> PathBuf {
    dir.join("merged.jsonl")
}

/// Creates a campaign directory and persists the spec. Idempotent when
/// the directory already holds *the same* spec (resubmitting is a
/// no-op); refuses to overwrite a different campaign.
///
/// # Errors
///
/// Returns [`CampaignError::Spec`] for an invalid spec or a directory
/// already owned by a different campaign, or [`CampaignError::Io`] on
/// filesystem failure.
pub fn submit(dir: &Path, spec: &JobSpec) -> Result<(), CampaignError> {
    spec.validate()?;
    std::fs::create_dir_all(dir).map_err(|e| CampaignError::io(dir, e))?;
    let path = spec_path(dir);
    match std::fs::read_to_string(&path) {
        Ok(existing) => {
            if JobSpec::parse(&existing)? != *spec {
                return Err(CampaignError::Spec(format!(
                    "{} already holds a different campaign; pick a fresh --dir",
                    dir.display()
                )));
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            manifest::write_atomic(&path, &(spec.to_json() + "\n"))?;
        }
        Err(e) => return Err(CampaignError::io(&path, e)),
    }
    let shards = manifest::shards_dir(dir);
    std::fs::create_dir_all(&shards).map_err(|e| CampaignError::io(&shards, e))?;
    Ok(())
}

/// Loads the campaign's spec from `dir`.
///
/// # Errors
///
/// Returns [`CampaignError::Io`] when `spec.json` is unreadable (a
/// directory that was never submitted) or [`CampaignError::Spec`] when
/// it is malformed.
pub fn load_spec(dir: &Path) -> Result<JobSpec, CampaignError> {
    let path = spec_path(dir);
    let text = std::fs::read_to_string(&path).map_err(|e| CampaignError::io(&path, e))?;
    JobSpec::parse(&text)
}

/// What one [`run`] invocation accomplished.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Shards executed by this invocation.
    pub ran: usize,
    /// Shards the manifest already recorded (skipped).
    pub skipped: usize,
    /// Shards still pending when the invocation returned (non-zero
    /// only under `--max-shards`).
    pub remaining: usize,
    /// Engine steps this invocation simulated (excludes skipped shards
    /// and the horizon probes).
    pub engine_steps: u64,
    /// Wall-clock seconds spent draining shards (excludes probes).
    pub wall_s: f64,
}

/// Campaign progress, as `status` reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Status {
    /// Campaign name from the spec.
    pub name: String,
    /// Total shards the spec expands into.
    pub total: usize,
    /// Durably finished shards.
    pub done: usize,
}

impl Status {
    /// Shards not yet finished.
    pub fn pending(&self) -> usize {
        self.total - self.done
    }
}

/// Reads campaign progress (after crash-recovery reconciliation).
///
/// # Errors
///
/// As [`load_spec`], plus I/O failures scanning the shard directory.
pub fn status(dir: &Path) -> Result<Status, CampaignError> {
    let spec = load_spec(dir)?;
    let manifest = manifest::reconcile(dir, spec.total_shards())?;
    Ok(Status {
        name: spec.name.clone(),
        total: spec.total_shards(),
        done: manifest.done().len(),
    })
}

/// Renders one shard outcome as its single JSONL line. Field order and
/// formatting are fixed — the merged artifact's byte-identity depends
/// on it.
fn shard_line(shard: Shard, outcome: &ShardOutcome) -> String {
    let pairs = json::array(outcome.pairs.iter().map(|p| {
        let mut o = JsonObject::new();
        o.field_u64("main", p.main_core as u64)
            .field_u64("checker", p.checker_core as u64)
            .field_u64("injected_at", p.injected_at)
            .field_u64("detected_at", p.detected_at);
        o.finish()
    }));
    let mut o = JsonObject::new();
    o.field_u64("id", shard.id as u64)
        .field_u64("cores", shard.cores as u64)
        .field_u64("index", shard.index as u64)
        .field_bool("completed", outcome.completed)
        .field_u64("engine_steps", outcome.engine_steps)
        .field_u64("armed", outcome.armed_channels.len() as u64)
        .field_u64("landed", outcome.landed as u64)
        .field_u64("expired", outcome.expired as u64)
        .field_u64("detected", outcome.pairs.len() as u64)
        .field_u64("detections", outcome.detections as u64)
        .field_u64("recovered", outcome.recovered as u64)
        .field_u64("unrecovered", outcome.unrecovered as u64)
        .field_raw(
            "recovery_cycles",
            &json::numbers_u64(outcome.recovery_cycles.iter().copied()),
        )
        .field_raw("pairs", &pairs);
    o.finish()
}

/// Structural invariants every shard artifact must satisfy; violated
/// ones poison the campaign rather than the merged dataset.
fn check_outcome(shard: Shard, outcome: &ShardOutcome) -> Result<(), CampaignError> {
    let fail = |msg: String| {
        Err(CampaignError::Invariant(format!(
            "shard {} (cores {}, index {}): {msg}",
            shard.id, shard.cores, shard.index
        )))
    };
    if !outcome.completed {
        return fail("mains did not run to completion".into());
    }
    let detected = outcome.pairs.len();
    let armed = outcome.armed_channels.len();
    if !(detected <= outcome.landed && outcome.landed <= armed) {
        return fail(format!(
            "detected ({detected}) <= landed ({}) <= armed ({armed}) does not hold",
            outcome.landed
        ));
    }
    if outcome.landed + outcome.expired != armed {
        return fail(format!(
            "landed ({}) + expired ({}) != armed ({armed})",
            outcome.landed, outcome.expired
        ));
    }
    Ok(())
}

/// Runs (or resumes — same code path) the campaign in `dir` on at most
/// `workers` [`par_map`] workers. With `max_shards`, only the first
/// `max_shards` pending shards run, in id order (the interrupt/resume
/// tests' hard stop).
///
/// # Errors
///
/// Returns the failure (shard run, outcome invariant or checkpoint
/// I/O) of the lowest-id shard that failed; after a failure no worker
/// claims a new shard. Already-checkpointed shards stay durable, so a
/// failed run resumes like a killed one.
///
/// # Panics
///
/// Panics if a shard panics (a bug, not an input failure).
pub fn run(
    dir: &Path,
    workers: usize,
    max_shards: Option<usize>,
) -> Result<RunSummary, CampaignError> {
    let spec = load_spec(dir)?;
    let total = spec.total_shards();
    let manifest = manifest::reconcile(dir, total)?;
    let skipped = manifest.done().len();
    let mut pending: Vec<Shard> = spec
        .shards()
        .into_iter()
        .filter(|s| !manifest.is_done(s.id))
        .collect();
    pending.truncate(max_shards.unwrap_or(usize::MAX));

    // Arming horizons are per-configuration and deterministic; probing
    // them once up front (not per shard) keeps the workers saturated
    // with real campaign work.
    let mut horizons: BTreeMap<usize, u64> = BTreeMap::new();
    for shard in &pending {
        if let std::collections::btree_map::Entry::Vacant(slot) = horizons.entry(shard.cores) {
            slot.insert(probe_horizon(&spec.config_for(shard.cores))?);
        }
    }

    let checkpoint = Mutex::new(manifest);
    let run_one = |shard: Shard| -> Result<u64, CampaignError> {
        let outcome = run_shard(
            &spec.config_for(shard.cores),
            horizons[&shard.cores],
            shard.index,
        )?;
        check_outcome(shard, &outcome)?;
        manifest::write_atomic(
            &manifest::shard_path(dir, shard.id),
            &(shard_line(shard, &outcome) + "\n"),
        )?;
        // Checkpoint strictly after the shard file is durable (see
        // crate::manifest's write rules).
        let mut m = checkpoint.lock().expect("manifest lock");
        m.mark_done(shard.id);
        manifest::store(dir, &m)?;
        Ok(outcome.engine_steps)
    };
    // Set by the first failing shard so that no worker claims another.
    // Relaxed: the flag publishes no data; errors come back in order
    // through `par_map`'s results.
    let failed = AtomicBool::new(false);
    let start = Instant::now();
    let results = par_map(&pending, workers, |&shard| {
        if failed.load(Ordering::Relaxed) {
            return None;
        }
        let result = run_one(shard);
        failed.fetch_or(result.is_err(), Ordering::Relaxed);
        Some(result)
    });
    let mut summary = RunSummary {
        ran: 0,
        skipped,
        remaining: total - skipped,
        engine_steps: 0,
        wall_s: start.elapsed().as_secs_f64(),
    };
    // In id order, so the first error is the lowest-id one.
    for steps in results.into_iter().flatten() {
        summary.engine_steps += steps?;
        summary.ran += 1;
        summary.remaining -= 1;
    }
    Ok(summary)
}

/// Concatenates every shard artifact in id order into `out`
/// (atomically). The result is byte-identical for a given spec no
/// matter how the campaign was scheduled, killed, or resumed.
///
/// # Errors
///
/// Returns [`CampaignError::Incomplete`] while shards are missing, or
/// the underlying I/O error.
pub fn merge(dir: &Path, out: &Path) -> Result<usize, CampaignError> {
    let spec = load_spec(dir)?;
    let total = spec.total_shards();
    let manifest = manifest::reconcile(dir, total)?;
    if manifest.done().len() < total {
        return Err(CampaignError::Incomplete {
            done: manifest.done().len(),
            total,
        });
    }
    let mut merged = String::new();
    for id in 0..total {
        let path = manifest::shard_path(dir, id);
        let line = std::fs::read_to_string(&path).map_err(|e| CampaignError::io(&path, e))?;
        merged.push_str(&line);
    }
    manifest::write_atomic(out, &merged)?;
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flexstep_campaignd_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> JobSpec {
        JobSpec {
            name: "tiny".into(),
            core_counts: vec![4],
            cores_per_checker: 4,
            iters_per_main: 200,
            shots_per_shard: 2,
            shards_per_config: 3,
            seed: 7,
            recovery: flexstep_bench::RecoveryPolicy::Detect,
            mode: flexstep_bench::ReliabilityMode::SegmentCheck,
        }
    }

    #[test]
    fn submit_is_idempotent_but_guards_foreign_directories() {
        let dir = campaign_dir("submit");
        submit(&dir, &tiny_spec()).unwrap();
        submit(&dir, &tiny_spec()).unwrap();
        assert_eq!(load_spec(&dir).unwrap(), tiny_spec());
        let other = JobSpec {
            seed: 8,
            ..tiny_spec()
        };
        assert!(matches!(submit(&dir, &other), Err(CampaignError::Spec(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_refuses_an_incomplete_campaign() {
        let dir = campaign_dir("incomplete");
        submit(&dir, &tiny_spec()).unwrap();
        let summary = run(&dir, 2, Some(1)).unwrap();
        assert_eq!(summary.ran, 1);
        assert_eq!(summary.remaining, 2);
        match merge(&dir, &merged_path(&dir)) {
            Err(CampaignError::Incomplete { done: 1, total: 3 }) => {}
            other => panic!("expected Incomplete, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn max_shards_runs_the_first_pending_shards_in_id_order() {
        let spec = JobSpec {
            shards_per_config: 6,
            ..tiny_spec()
        };
        for workers in 1..=3 {
            let dir = campaign_dir(&format!("first_n_{workers}"));
            submit(&dir, &spec).unwrap();
            let summary = run(&dir, workers, Some(3)).unwrap();
            assert_eq!((summary.ran, summary.remaining), (3, 3));
            let manifest = manifest::load_or_default(&dir).unwrap();
            let done: Vec<usize> = manifest.done().iter().copied().collect();
            assert_eq!(done, [0, 1, 2], "{workers} workers");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_failing_checkpoint_stops_the_run_and_resumes_to_the_reference() {
        let reference_dir = campaign_dir("ckpt_reference");
        submit(&reference_dir, &tiny_spec()).unwrap();
        run(&reference_dir, 2, None).unwrap();
        merge(&reference_dir, &merged_path(&reference_dir)).unwrap();
        let reference = std::fs::read_to_string(merged_path(&reference_dir)).unwrap();
        let _ = std::fs::remove_dir_all(&reference_dir);

        let dir = campaign_dir("ckpt_fail");
        submit(&dir, &tiny_spec()).unwrap();
        // A directory squatting on the manifest's tmp name makes every
        // checkpoint fail after its shard file is written.
        let squatter = dir.join("manifest.json.tmp");
        std::fs::create_dir(&squatter).unwrap();
        let workers = 2;
        match run(&dir, workers, None) {
            Err(CampaignError::Io { path, .. }) => {
                assert!(path.ends_with("manifest.json.tmp"), "{path}");
            }
            other => panic!("expected the checkpoint's Io error, got {other:?}"),
        }
        let written = std::fs::read_dir(manifest::shards_dir(&dir))
            .unwrap()
            .count();
        assert!(
            (1..=workers).contains(&written),
            "{written} shard files for {workers} workers"
        );

        std::fs::remove_dir(&squatter).unwrap();
        let resumed = run(&dir, workers, None).unwrap();
        assert_eq!((resumed.skipped, resumed.remaining), (written, 0));
        merge(&dir, &merged_path(&dir)).unwrap();
        assert_eq!(
            std::fs::read_to_string(merged_path(&dir)).unwrap(),
            reference
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn done_ids_past_the_spec_are_a_typed_error_everywhere() {
        let dir = campaign_dir("past_range");
        submit(&dir, &tiny_spec()).unwrap();
        std::fs::write(
            manifest::manifest_path(&dir),
            "{\"version\": 1, \"done\": [0, 1, 7, 9]}\n",
        )
        .unwrap();
        let names_shard_7 =
            |e: CampaignError| matches!(&e, CampaignError::Spec(msg) if msg.contains("shard 7"));
        assert!(names_shard_7(status(&dir).unwrap_err()));
        assert!(names_shard_7(run(&dir, 2, None).unwrap_err()));
        assert!(names_shard_7(merge(&dir, &merged_path(&dir)).unwrap_err()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_then_status_then_merge_round_trip() {
        let dir = campaign_dir("roundtrip");
        submit(&dir, &tiny_spec()).unwrap();
        let summary = run(&dir, 2, None).unwrap();
        assert_eq!(summary.ran, 3);
        assert_eq!(summary.remaining, 0);
        assert!(summary.engine_steps > 0);
        let st = status(&dir).unwrap();
        assert_eq!((st.total, st.done, st.pending()), (3, 3, 0));
        // Re-running is a no-op.
        let again = run(&dir, 2, None).unwrap();
        assert_eq!((again.ran, again.skipped), (0, 3));

        let out = merged_path(&dir);
        assert_eq!(merge(&dir, &out).unwrap(), 3);
        let merged = std::fs::read_to_string(&out).unwrap();
        assert_eq!(merged.lines().count(), 3);
        for (i, line) in merged.lines().enumerate() {
            let doc = json::JsonValue::parse(line).expect("each line parses");
            assert_eq!(
                doc.get("id").and_then(json::JsonValue::as_u64),
                Some(i as u64)
            );
            let armed = doc.get("armed").and_then(json::JsonValue::as_u64).unwrap();
            let landed = doc.get("landed").and_then(json::JsonValue::as_u64).unwrap();
            let detected = doc
                .get("detected")
                .and_then(json::JsonValue::as_u64)
                .unwrap();
            let expired = doc
                .get("expired")
                .and_then(json::JsonValue::as_u64)
                .unwrap();
            assert!(detected <= landed && landed <= armed);
            assert_eq!(landed + expired, armed);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
