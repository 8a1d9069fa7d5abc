//! The resumable work-stealing campaign engine.
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
//! a pool of work-stealing workers: each worker owns a deque seeded
//! round-robin, pops its own front, and steals from the *back* of other
//! workers' deques when empty — the classic split that keeps owners and
//! thieves off the same end. Every finished shard is durably renamed
//! into place and checkpointed before the worker takes more work, so a
//! `SIGKILL` at any instant loses at most the shards in flight; a
//! subsequent [`run`] (resume is the same code path) redoes only those.
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
use flexstep_core::json::{self, JsonObject};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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

/// Runs (or resumes — same code path) the campaign in `dir` with
/// `workers` work-stealing workers, executing at most `max_shards`
/// shards when given (the interrupt/resume tests' hard-stop knob).
///
/// # Errors
///
/// Returns the first shard or checkpoint failure; already-checkpointed
/// shards stay durable, so a failed run resumes like a killed one.
///
/// # Panics
///
/// Panics if a worker thread itself panics (a bug, not an input
/// failure).
pub fn run(
    dir: &Path,
    workers: usize,
    max_shards: Option<usize>,
) -> Result<RunSummary, CampaignError> {
    let spec = load_spec(dir)?;
    let total = spec.total_shards();
    let manifest = manifest::reconcile(dir, total)?;
    let skipped = manifest.done().len();
    let pending: Vec<Shard> = spec
        .shards()
        .into_iter()
        .filter(|s| !manifest.is_done(s.id))
        .collect();

    // Arming horizons are per-configuration and deterministic; probing
    // them once up front (not per shard) keeps the workers saturated
    // with real campaign work.
    let mut horizons: BTreeMap<usize, u64> = BTreeMap::new();
    for shard in &pending {
        if let std::collections::btree_map::Entry::Vacant(slot) = horizons.entry(shard.cores) {
            slot.insert(probe_horizon(&spec.config_for(shard.cores))?);
        }
    }

    let workers = workers.max(1);
    // Round-robin seeding spreads each configuration's shards across
    // all deques, so even a single-configuration campaign parallelises
    // from the first instant.
    let queues: Vec<Mutex<VecDeque<Shard>>> = (0..workers)
        .map(|w| {
            Mutex::new(
                pending
                    .iter()
                    .skip(w)
                    .step_by(workers)
                    .copied()
                    .collect::<VecDeque<_>>(),
            )
        })
        .collect();
    let budget = AtomicUsize::new(max_shards.unwrap_or(usize::MAX));
    let steps = AtomicU64::new(0);
    let ran = AtomicUsize::new(0);
    let failed: Mutex<Option<CampaignError>> = Mutex::new(None);
    let checkpoint = Mutex::new(manifest);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for me in 0..workers {
            let (spec, horizons, queues) = (&spec, &horizons, &queues);
            let (budget, steps, ran) = (&budget, &steps, &ran);
            let (failed, checkpoint) = (&failed, &checkpoint);
            scope.spawn(move || loop {
                if failed.lock().expect("error slot lock").is_some() {
                    return;
                }
                if budget
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
                    .is_err()
                {
                    return;
                }
                // Own work from the front; steal from the back of the
                // most loaded victim.
                let mut shard = queues[me].lock().expect("deque lock").pop_front();
                if shard.is_none() {
                    for offset in 1..workers {
                        let victim = (me + offset) % workers;
                        shard = queues[victim].lock().expect("deque lock").pop_back();
                        if shard.is_some() {
                            break;
                        }
                    }
                }
                let Some(shard) = shard else { return };
                let cfg = spec.config_for(shard.cores);
                let horizon = horizons[&shard.cores];
                let result = run_shard(&cfg, horizon, shard.index)
                    .map_err(CampaignError::from)
                    .and_then(|outcome| {
                        check_outcome(shard, &outcome)?;
                        manifest::write_atomic(
                            &manifest::shard_path(dir, shard.id),
                            &(shard_line(shard, &outcome) + "\n"),
                        )?;
                        // Checkpoint strictly after the shard file is
                        // durable (see crate::manifest's write rules).
                        let mut m = checkpoint.lock().expect("manifest lock");
                        m.mark_done(shard.id);
                        manifest::store(dir, &m)?;
                        Ok(outcome.engine_steps)
                    });
                match result {
                    Ok(shard_steps) => {
                        steps.fetch_add(shard_steps, Ordering::Relaxed);
                        ran.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        failed.lock().expect("error slot lock").get_or_insert(e);
                        return;
                    }
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();

    if let Some(e) = failed.into_inner().expect("error slot lock") {
        return Err(e);
    }
    let done = checkpoint.into_inner().expect("manifest lock").done().len();
    Ok(RunSummary {
        ran: ran.into_inner(),
        skipped,
        remaining: total - done,
        engine_steps: steps.into_inner(),
        wall_s,
    })
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
