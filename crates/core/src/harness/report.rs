//! The run report: what a [`VerifiedRun`] hands back — per-main
//! outcomes, typed warnings, per-slot reliability accounting — and its
//! JSON form.

use super::VerifiedRun;
use crate::detect::DetectionEvent;
use crate::fault::Injection;
use crate::share::ArbiterStats;
use flexstep_sim::ReliabilityMode;

/// Per-main-core outcome of a verified run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MainReport {
    /// The main core index.
    pub core: usize,
    /// Whether this main reached its final `ecall`.
    pub completed: bool,
    /// Cycle at which this main finished (0 if it did not).
    pub finish_cycle: u64,
    /// Instructions retired by this main (re-executions included).
    pub retired: u64,
    /// Rollback recoveries performed on this main
    /// ([`RecoveryPolicy::Rollback`](crate::RecoveryPolicy::Rollback)
    /// only; 0 under `Detect`).
    pub recoveries: u64,
    /// Detections this main could not recover from (retry budget
    /// exhausted or no rollback anchor available).
    pub unrecovered: u64,
    /// Cycles of discarded forward progress across all rollbacks
    /// (segment-open to rollback, per recovery).
    pub wasted_cycles: u64,
    /// Per-recovery detection → verified-again latency, in cycles, in
    /// completion order.
    pub recovery_latency_cycles: Vec<u64>,
}

/// A typed, non-fatal condition raised during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunWarning {
    /// A main core lost every checker (permanent failures) and degraded
    /// to unchecked execution from `from_cycle` on.
    UncheckedExecution {
        /// The degraded main core.
        main: usize,
        /// Cycle from which execution is unverified.
        from_cycle: u64,
    },
    /// A main exhausted
    /// [`RecoveryPolicy::Rollback`](crate::RecoveryPolicy::Rollback)'s
    /// `max_retries` consecutive rollbacks (or had no anchor to roll back to); the
    /// detection at `at_cycle` was recorded detect-only.
    RetriesExhausted {
        /// The unrecovered main core.
        main: usize,
        /// Segment whose detection went unrecovered.
        seq: u64,
        /// Cycle of the unrecovered detection.
        at_cycle: u64,
    },
    /// An armed fault shot expired while its target main was running
    /// unchecked *by policy* ([`ReliabilityMode::Unchecked`], or inside
    /// a pairing-released window): the corruption window closed with no
    /// checker to observe it. Policy-unchecked windows must never
    /// swallow shots silently.
    ShotInUncheckedWindow {
        /// The policy-unchecked main core.
        main: usize,
        /// Cycle of the expiry.
        at_cycle: u64,
    },
}

/// Per-main-slot reliability-policy accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeStats {
    /// The main core index.
    pub core: usize,
    /// The slot's configured reliability mode.
    pub mode: ReliabilityMode,
    /// Cycles this slot executed with a live checker channel.
    pub checked_cycles: u64,
    /// Cycles this slot executed unchecked (mode, released window, or
    /// checker-loss degradation).
    pub unchecked_cycles: u64,
    /// Cycles this main stalled extracting checkpoints (SCP on open
    /// plus IC/ECP on close) — the per-mode checkpoint overhead.
    pub checkpoint_stall_cycles: u64,
    /// Pairing-policy checker acquires applied on this slot.
    pub acquires: u64,
    /// Pairing-policy checker releases applied on this slot.
    pub releases: u64,
    /// Matched detections attributed to this slot
    /// ([`RunReport::matched_detections`]).
    pub detections: u64,
    /// Sum of this slot's matched detection latencies, in cycles.
    pub detection_latency_total: u64,
}

impl ModeStats {
    /// Checked fraction of this slot's executed cycles (1.0 for a
    /// checked slot that never ran, 0.0 for an unchecked one).
    pub fn coverage(&self) -> f64 {
        let total = self.checked_cycles + self.unchecked_cycles;
        if total == 0 {
            return if self.mode.is_checked() { 1.0 } else { 0.0 };
        }
        self.checked_cycles as f64 / total as f64
    }
}

/// Outcome of a verified run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Whether every main core reached its final `ecall` within the step
    /// budget.
    pub completed: bool,
    /// Cycle at which the last main core finished (excludes checker
    /// drain).
    pub main_finish_cycle: u64,
    /// Cycle at which the last checker drained.
    pub drain_cycle: u64,
    /// Instructions retired across all main cores.
    pub retired: u64,
    /// Segments verified across all checkers.
    pub segments_checked: u64,
    /// Segments that failed verification.
    pub segments_failed: u64,
    /// Detection events raised during the run.
    pub detections: Vec<DetectionEvent>,
    /// Backpressure stalls suffered by main cores.
    pub backpressure_stalls: u64,
    /// Engine steps executed over the run's lifetime (throughput
    /// accounting for the perf harness), weighted by block size: a main
    /// block or checker replay block counts one step per instruction, so
    /// this exceeds the number of [`VerifiedRun::step_once`] dispatches
    /// that [`VerifiedRun::run_to_completion`]'s bound counts.
    pub engine_steps: u64,
    /// Per-main outcomes, in channel order.
    pub per_main: Vec<MainReport>,
    /// Arbitration statistics, one entry per shared checker (empty for
    /// dedicated topologies).
    pub arbiters: Vec<ArbiterStats>,
    /// Fault-plan injections that landed during the run.
    pub injections: Vec<Injection>,
    /// Shots the fault plan scheduled (armed). Always
    /// `injections.len() <= shots_armed`.
    pub shots_armed: u64,
    /// Armed shots that expired without landing: their target stream
    /// drained for good, or the run completed before their arming cycle.
    /// They never appear in [`RunReport::injections`].
    pub shots_expired: u64,
    /// Checker cores permanently failed by
    /// [`FaultPlan::kill_checker_at`](crate::FaultPlan::kill_checker_at)
    /// shots that fired.
    pub checkers_lost: u64,
    /// Re-pair latency of each orphaned main that was re-granted a
    /// surviving checker, in cycles from the kill to the new grant.
    pub repair_latency_cycles: Vec<u64>,
    /// Non-fatal degradation conditions raised during the run.
    pub warnings: Vec<RunWarning>,
    /// Per-slot reliability-policy accounting, in channel order.
    pub mode_stats: Vec<ModeStats>,
}

/// One (injection, detection) pair produced by the one-to-one
/// attribution of [`RunReport::matched_detections`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchedDetection {
    /// The main core whose stream was corrupted and caught.
    pub main_core: usize,
    /// The checker core that raised the detection — in shared-checker
    /// topologies this identifies the pool member, so per-pool latency
    /// splits are computable.
    pub checker_core: usize,
    /// Cycle at which the injection landed.
    pub injected_at: u64,
    /// Cycle at which the checker flagged the mismatch.
    pub detected_at: u64,
}

impl MatchedDetection {
    /// Error-detection latency of this pair, in cycles.
    pub fn latency_cycles(&self) -> u64 {
        self.detected_at - self.injected_at
    }
}

impl RunReport {
    /// Pairs injections and detections one-to-one: each detection is
    /// attributed to the *earliest unconsumed* preceding injection on
    /// the same main core, and each injection is consumed by at most
    /// one detection.
    ///
    /// This is the campaign attribution rule (DESIGN.md §10). The naive
    /// latest-preceding rule double-counts in dense campaigns — two
    /// detections after one injection yield two "matches", so
    /// `detected` can exceed `injected` and latencies collapse toward
    /// the newest shot. Consumption makes `matched_detections().len()
    /// <= injections.len()` hold by construction.
    ///
    /// Runs in `O(n log n + m log m)` over `n` injections and `m`
    /// detections. Pairs are returned in detection-time order.
    pub fn matched_detections(&self) -> Vec<MatchedDetection> {
        use std::collections::HashMap;
        // Per-main injection cycles in time order, with a cursor at the
        // earliest unconsumed shot.
        let mut pending: HashMap<usize, (Vec<u64>, usize)> = HashMap::new();
        for i in &self.injections {
            pending.entry(i.main_core).or_default().0.push(i.at_cycle);
        }
        for (cycles, _) in pending.values_mut() {
            cycles.sort_unstable();
        }
        let mut order: Vec<&DetectionEvent> = self.detections.iter().collect();
        order.sort_by_key(|d| d.detected_at);
        let mut out = Vec::new();
        for d in order {
            let Some((cycles, cursor)) = pending.get_mut(&d.main_core) else {
                continue;
            };
            if *cursor < cycles.len() && cycles[*cursor] <= d.detected_at {
                out.push(MatchedDetection {
                    main_core: d.main_core,
                    checker_core: d.checker_core,
                    injected_at: cycles[*cursor],
                    detected_at: d.detected_at,
                });
                *cursor += 1;
            }
        }
        out
    }

    /// Renders the report as a JSON object (hand-rolled; see
    /// [`json`](crate::json)).
    pub fn to_json(&self) -> String {
        use crate::json::{array, numbers_u64, JsonObject};
        let mains = array(self.per_main.iter().map(|m| {
            let mut o = JsonObject::new();
            o.field_u64("core", m.core as u64)
                .field_bool("completed", m.completed)
                .field_u64("finish_cycle", m.finish_cycle)
                .field_u64("retired", m.retired)
                .field_u64("recoveries", m.recoveries)
                .field_u64("unrecovered", m.unrecovered)
                .field_u64("wasted_cycles", m.wasted_cycles)
                .field_raw(
                    "recovery_latency_cycles",
                    &numbers_u64(m.recovery_latency_cycles.iter().copied()),
                );
            o.finish()
        }));
        let warnings = array(self.warnings.iter().map(|w| {
            let mut o = JsonObject::new();
            match w {
                RunWarning::UncheckedExecution { main, from_cycle } => {
                    o.field_str("kind", "unchecked_execution")
                        .field_u64("main", *main as u64)
                        .field_u64("from_cycle", *from_cycle);
                }
                RunWarning::RetriesExhausted {
                    main,
                    seq,
                    at_cycle,
                } => {
                    o.field_str("kind", "retries_exhausted")
                        .field_u64("main", *main as u64)
                        .field_u64("seq", *seq)
                        .field_u64("at_cycle", *at_cycle);
                }
                RunWarning::ShotInUncheckedWindow { main, at_cycle } => {
                    o.field_str("kind", "shot_in_unchecked_window")
                        .field_u64("main", *main as u64)
                        .field_u64("at_cycle", *at_cycle);
                }
            }
            o.finish()
        }));
        let arbiters = array(self.arbiters.iter().map(|a| {
            let mut o = JsonObject::new();
            o.field_u64("immediate_grants", a.immediate_grants)
                .field_u64("conflicts", a.conflicts)
                .field_u64("switches", a.switches);
            o.finish()
        }));
        let detections = array(self.detections.iter().map(|d| {
            let mut o = JsonObject::new();
            o.field_u64("main_core", d.main_core as u64)
                .field_u64("checker_core", d.checker_core as u64)
                .field_u64("segment_seq", d.segment_seq)
                .field_u64("tag", d.tag)
                .field_str("kind", &d.kind.to_string())
                .field_u64("detected_at", d.detected_at);
            o.finish()
        }));
        let injections = array(self.injections.iter().map(|i| {
            let mut o = JsonObject::new();
            o.field_u64("main_core", i.main_core as u64)
                .field_str("target", &i.target.to_string())
                .field_array("bits", i.bits.iter().map(u32::to_string))
                .field_u64("at_cycle", i.at_cycle);
            o.finish()
        }));
        let modes = array(self.mode_stats.iter().map(|m| {
            let mut o = JsonObject::new();
            o.field_u64("core", m.core as u64)
                .field_str("mode", m.mode.label())
                .field_u64("checked_cycles", m.checked_cycles)
                .field_u64("unchecked_cycles", m.unchecked_cycles)
                .field_u64("checkpoint_stall_cycles", m.checkpoint_stall_cycles)
                .field_u64("acquires", m.acquires)
                .field_u64("releases", m.releases)
                .field_u64("detections", m.detections)
                .field_u64("detection_latency_total", m.detection_latency_total);
            o.finish()
        }));
        let mut o = JsonObject::new();
        o.field_bool("completed", self.completed)
            .field_u64("main_finish_cycle", self.main_finish_cycle)
            .field_u64("drain_cycle", self.drain_cycle)
            .field_u64("retired", self.retired)
            .field_u64("segments_checked", self.segments_checked)
            .field_u64("segments_failed", self.segments_failed)
            .field_u64("backpressure_stalls", self.backpressure_stalls)
            .field_u64("engine_steps", self.engine_steps)
            .field_u64("shots_armed", self.shots_armed)
            .field_u64("shots_expired", self.shots_expired)
            .field_u64("checkers_lost", self.checkers_lost)
            .field_raw(
                "repair_latency_cycles",
                &crate::json::numbers_u64(self.repair_latency_cycles.iter().copied()),
            )
            .field_raw("warnings", &warnings)
            .field_raw("per_main", &mains)
            .field_raw("arbiters", &arbiters)
            .field_raw("detections", &detections)
            .field_raw("injections", &injections)
            .field_raw("mode_stats", &modes);
        o.finish()
    }
}

impl VerifiedRun {
    /// Produces the report for the current state.
    ///
    /// Draining: detection events are moved out of the fabric, so a
    /// second call reports them empty.
    pub fn report(&mut self) -> RunReport {
        // A caller may stop stepping the instant the run completes (an
        // exactly-sized step budget, manual stepping): finalize shot
        // expiry here too, so the armed/landed/expired accounts balance
        // regardless of whether step_once observed completion.
        if self.complete() {
            self.expire_remaining_shots();
        }
        let (mut checked, mut failed) = (0, 0);
        for &c in &self.checkers {
            checked += self.fs.fabric.unit(c).checker.segments_checked;
            failed += self.fs.fabric.unit(c).checker.segments_failed;
        }
        let per_main: Vec<MainReport> = self
            .mains
            .iter()
            .enumerate()
            .map(|(slot, &core)| {
                let mut m = MainReport {
                    core,
                    completed: self.done[slot],
                    finish_cycle: self.finish_cycle[slot],
                    retired: self.fs.soc.core(core).instret,
                    recoveries: 0,
                    unrecovered: 0,
                    wasted_cycles: 0,
                    recovery_latency_cycles: Vec::new(),
                };
                if let Some(rec) = &self.recovery {
                    rec.report_into(slot, &mut m);
                }
                m
            })
            .collect();
        let mut report = RunReport {
            completed: self.main_done(),
            main_finish_cycle: per_main.iter().map(|m| m.finish_cycle).max().unwrap_or(0),
            drain_cycle: self.fs.soc.now(),
            retired: per_main.iter().map(|m| m.retired).sum(),
            segments_checked: checked,
            segments_failed: failed,
            detections: self.fs.fabric.take_detections(),
            backpressure_stalls: self.fs.fabric.stats.backpressure_stalls,
            engine_steps: self.steps,
            per_main,
            arbiters: self.arbiters.iter().map(|a| a.stats).collect(),
            injections: self.injections.clone(),
            shots_armed: self.faults.armed(),
            shots_expired: self.faults.expired(),
            checkers_lost: self.checkers_lost,
            repair_latency_cycles: self.repair_latencies.clone(),
            warnings: self.warnings.clone(),
            mode_stats: Vec::new(),
        };
        report.mode_stats = self.mode_stats(&report);
        report
    }
}
