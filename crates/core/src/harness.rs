//! The verified-execution run harness.
//!
//! [`VerifiedRun`] drives any [`Scenario`](crate::Scenario)-built platform — from the
//! paper's dual-core (Fig. 4) and triple-core (Fig. 6) single-workload
//! configurations up to many-core SoCs with arbitrated shared checkers
//! (Fig. 8-style) — through its guest programs without a full OS: it
//! interleaves ready cores, executes the scenario's fault plan, feeds
//! observers, and produces a [`RunReport`]. Construct runs with
//! [`Scenario`](crate::Scenario).

use crate::checker::{CheckPhase, CheckerState};
use crate::detect::{DetectionEvent, SegmentResult};
use crate::engine::{EngineStep, FlexSoc};
use crate::fabric::{Fabric, FabricConfig};
use crate::scenario::{
    Binding, FaultDriver, FaultPlan, Injection, RecoveryPolicy, ResolvedTopology, ScenarioError,
};
use crate::share::{ArbiterStats, CheckerArbiter};
use crate::sink::{Observer, RecordingObserver, RunEvent};
use crate::trace::TraceObserver;
use flexstep_isa::asm::Program;
use flexstep_mem::cache::CacheGeometryError;
use flexstep_sim::{
    ArchSnapshot, Clock, PairingAction, PairingEvent, PairingSchedule, PrivMode, ReliabilityMode,
    Soc, SocConfig, StepKind, TrapCause,
};
use std::collections::VecDeque;

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
    /// ([`RecoveryPolicy::Rollback`] only; 0 under `Detect`).
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
    /// A main exhausted [`RecoveryPolicy::Rollback`]'s `max_retries`
    /// consecutive rollbacks (or had no anchor to roll back to); the
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

    /// Mean matched detection latency, in cycles.
    pub fn mean_detection_latency(&self) -> Option<f64> {
        (self.detections > 0).then(|| self.detection_latency_total as f64 / self.detections as f64)
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
    /// [`FaultPlan::kill_checker_at`] shots that fired.
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

/// A verified-execution driver over any scenario topology.
///
/// Build one with [`Scenario`](crate::Scenario):
///
/// ```
/// use flexstep_core::{FabricConfig, Scenario, Topology};
/// use flexstep_isa::{asm::Assembler, XReg};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut asm = Assembler::new("tiny");
/// asm.li(XReg::A0, 3);
/// asm.label("l")?;
/// asm.addi(XReg::A0, XReg::A0, -1);
/// asm.bnez(XReg::A0, "l");
/// asm.ecall();
/// let program = asm.finish()?;
///
/// let mut run = Scenario::new(&program)
///     .cores(2)
///     .topology(Topology::PairedLockstep)
///     .fabric(FabricConfig::paper())
///     .build()?;
/// let report = run.run_to_completion(1_000_000);
/// assert!(report.completed);
/// assert_eq!(report.segments_failed, 0);
/// # Ok(())
/// # }
/// ```
pub struct VerifiedRun {
    /// The platform under test (crate-internal; use the accessor
    /// methods).
    pub(crate) fs: FlexSoc,
    /// Main cores in channel order.
    mains: Vec<usize>,
    /// Checker cores, ascending.
    checkers: Vec<usize>,
    /// Arbiters for shared checkers (empty for dedicated topologies).
    arbiters: Vec<CheckerArbiter>,
    /// Per main slot: index into `arbiters` when the main competes for a
    /// shared checker.
    arbiter_of: Vec<Option<usize>>,
    /// Main slot of each core id (dense reverse map).
    slot_of: Vec<Option<usize>>,
    done: Vec<bool>,
    done_count: usize,
    finish_cycle: Vec<u64>,
    steps: u64,
    observers: Vec<Box<dyn Observer + Send>>,
    faults: FaultDriver,
    injections: Vec<Injection>,
    /// Chrome-trace export configured via [`Scenario::trace_to`]:
    /// the destination path and the owned recording observer.
    trace: Option<(std::path::PathBuf, TraceObserver)>,
    /// Owned event recording enabled via [`Scenario::record_events`].
    recorded: Option<RecordingObserver>,
    /// Rollback bookkeeping, one slot per main; `None` under
    /// [`RecoveryPolicy::Detect`] so the detect path stays untouched.
    recovery: Option<RecoveryState>,
    /// Per checker index: permanently failed by a kill shot.
    dead_checkers: Vec<bool>,
    checkers_lost: u64,
    /// Per main slot: cycle of the kill that orphaned it, until the
    /// re-pair grant lands (samples `repair_latencies`).
    repair_pending: Vec<Option<u64>>,
    repair_latencies: Vec<u64>,
    warnings: Vec<RunWarning>,
    /// Per-slot reliability modes, in channel order.
    modes: Vec<ReliabilityMode>,
    /// Dynamic pairing runtime (`None` without a schedule).
    pairing: Option<PairingRuntime>,
    /// Per-slot checked/unchecked cycle accumulators.
    coverage: Vec<Coverage>,
    /// Single-steps mains and replay alike: the reference blocks are
    /// tested against.
    #[cfg(test)]
    single_step: bool,
}

/// Runtime state of a [`PairingSchedule`] being executed against the
/// arbiters: the sorted event list plus per-slot pending actions.
#[derive(Debug)]
struct PairingRuntime {
    /// Schedule events, sorted by cycle.
    events: Vec<PairingEvent>,
    /// Cursor into `events` (everything before it is already pending or
    /// applied).
    next: usize,
    /// Per slot: a due action not yet applied. Releases defer to the
    /// next segment boundary; a later due event overrides an earlier
    /// one still pending.
    pending: Vec<Option<PairingAction>>,
    /// Per slot: currently policy-released (running unchecked until the
    /// next acquire).
    released: Vec<bool>,
    /// Per slot: `(acquires, releases)` applied so far.
    counts: Vec<(u64, u64)>,
}

/// Checked/unchecked cycle accumulator for one main slot. Interval
/// arithmetic over transitions: `since` marks the start of the current
/// interval, `live` which bucket it lands in. Freezing at the main's
/// finish keeps checker-drain cycles out of both buckets.
#[derive(Debug, Clone, Copy)]
struct Coverage {
    checked: u64,
    unchecked: u64,
    since: u64,
    live: bool,
    frozen: bool,
}

impl Coverage {
    /// Closes the current interval at `now` and starts the next with
    /// the given liveness. No-op once frozen.
    fn transition(&mut self, now: u64, live: bool) {
        if self.frozen {
            return;
        }
        let d = now.saturating_sub(self.since);
        if self.live {
            self.checked += d;
        } else {
            self.unchecked += d;
        }
        self.since = now;
        self.live = live;
    }

    /// The `(checked, unchecked)` totals with the open interval settled
    /// at `now`.
    fn settled(mut self, now: u64) -> (u64, u64) {
        let live = self.live;
        self.transition(now, live);
        (self.checked, self.unchecked)
    }
}

/// Rollback bookkeeping for every main (only allocated under
/// [`RecoveryPolicy::Rollback`]).
#[derive(Debug)]
struct RecoveryState {
    max_retries: u32,
    slots: Vec<RecoverySlot>,
}

/// One rollback anchor: everything needed to restart a main at a
/// checking-segment boundary. Captured when the segment opens — the SCP
/// snapshot *is* the boundary state, and the journal mark brackets the
/// stores the re-execution must undo.
#[derive(Debug)]
struct Anchor {
    seq: u64,
    snapshot: ArchSnapshot,
    journal_mark: u64,
    open_cycle: u64,
}

#[derive(Debug, Default)]
struct RecoverySlot {
    /// Anchors of segments without a verdict yet, oldest first.
    anchors: VecDeque<Anchor>,
    /// Per consumer index: highest segment seq with a verdict (clean or
    /// failed). Anchors retire once *every* consumer has resolved them.
    resolved: Vec<Option<u64>>,
    /// Detection cycle of the in-flight recovery, until a segment
    /// verifies clean again.
    pending_since: Option<u64>,
    /// Consecutive rollbacks without an intervening clean verdict.
    consecutive: u32,
    /// Memo block: the re-executed stream must be replayed for real
    /// until it verifies clean (DESIGN.md §14).
    blocked: bool,
    recoveries: u64,
    unrecovered: u64,
    wasted_cycles: u64,
    latencies: Vec<u64>,
}

impl RecoverySlot {
    /// Retires every anchor all consumers have resolved and returns the
    /// journal mark memory can be truncated to (`u64::MAX` = everything;
    /// the caller clamps to the live mark).
    fn retire_resolved(&mut self) -> Option<u64> {
        // An anchor can only retire once every consumer has issued a
        // verdict for its segment.
        let mut min = u64::MAX;
        for r in &self.resolved {
            min = min.min((*r)?);
        }
        let mut truncate_to = None;
        while let Some(front) = self.anchors.front() {
            if front.seq > min {
                break;
            }
            self.anchors.pop_front();
            truncate_to = Some(match self.anchors.front() {
                Some(next) => next.journal_mark,
                None => u64::MAX,
            });
        }
        truncate_to
    }
}

impl std::fmt::Debug for VerifiedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifiedRun")
            .field("mains", &self.mains)
            .field("checkers", &self.checkers)
            .field("arbiters", &self.arbiters.len())
            .field("done", &self.done)
            .field("steps", &self.steps)
            .field("observers", &self.observers.len())
            .finish_non_exhaustive()
    }
}

// The tentpole guarantee of the event-sink design: a built run (with
// its observers, trace recorder, and event buffer) can migrate across
// worker threads. Regressing any field to a shared handle breaks this
// assertion at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<VerifiedRun>();
};

/// Wait-poll granularity for a [`ReliabilityMode::FullLockstep`] main
/// holding at a checkpoint: the main re-checks its verdict every this
/// many cycles while a complete segment sits unverified in its FIFO.
/// Small enough that detection follows the checker's verdict almost
/// immediately; large enough not to dominate the ready queue.
const LOCKSTEP_WAIT_QUANTUM: u64 = 8;

impl VerifiedRun {
    /// Builds the platform from a validated scenario (called by
    /// [`Scenario::build`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_scenario(
        cores: usize,
        resolved: ResolvedTopology,
        programs: Vec<Program>,
        fabric: FabricConfig,
        fault_plan: FaultPlan,
        recovery_policy: RecoveryPolicy,
        observers: Vec<Box<dyn Observer + Send>>,
        trace: Option<(std::path::PathBuf, TraceObserver)>,
        record_events: bool,
        models: Vec<flexstep_sim::CoreModelKind>,
        modes: Vec<ReliabilityMode>,
        pairing: Option<PairingSchedule>,
    ) -> Result<Self, ScenarioError> {
        let ResolvedTopology {
            mains,
            checkers,
            binding,
        } = resolved;
        let mut fs = FlexSoc::new(SocConfig::paper(cores), fabric)?;
        fs.op_g_configure(&mains, &checkers)?;
        // Heterogeneous mains: swap in each slot's timing model before
        // anything runs. Checkers keep the in-order default — replay
        // correctness (and the verdict memo's recorded profiles) assume
        // the minimal checker microarchitecture.
        for (slot, kind) in models.iter().enumerate() {
            fs.soc.set_core_model(mains[slot], *kind);
        }
        // Mode dispatch, part 1: checkpoint granularity. FullLockstep
        // runs at segment limit 1 (a checkpoint per retired user
        // instruction), CheckpointOnly at a coarse multiple of the base;
        // SegmentCheck keeps the configured limit untouched.
        let base_limit = fs.fabric.config().segment_limit;
        for (slot, mode) in modes.iter().enumerate() {
            if let Some(limit) = mode.segment_limit(base_limit) {
                fs.fabric.unit_mut(mains[slot]).tracker.set_limit(limit);
            }
        }

        // Shared checkers get one arbiter each; mains request in channel
        // order (first request per checker is granted immediately, the
        // rest queue — the §III-C conflict path).
        let mut arbiters: Vec<CheckerArbiter> = Vec::new();
        let mut arbiter_of: Vec<Option<usize>> = vec![None; mains.len()];
        for (slot, bind) in binding.iter().enumerate() {
            let main = mains[slot];
            // Mode dispatch, part 2: an Unchecked slot never associates a
            // channel at all — it runs as a plain core, its would-be
            // dedicated checker idles and parks, and a shared pool never
            // sees it in the queue.
            if !modes[slot].is_checked() {
                continue;
            }
            match bind {
                Binding::Dedicated(cs) => {
                    fs.op_m_associate(main, cs)?;
                    fs.op_m_check(main, true)?;
                }
                Binding::Shared(ch) => {
                    let idx = match arbiters.iter().position(|a| a.checker() == *ch) {
                        Some(i) => i,
                        None => {
                            arbiters.push(CheckerArbiter::new(*ch));
                            arbiters.len() - 1
                        }
                    };
                    arbiters[idx].request(&mut fs.fabric, main)?;
                    fs.fabric.set_check(main, true)?;
                    arbiter_of[slot] = Some(idx);
                }
            }
        }
        for &c in &checkers {
            fs.op_c_check_state(c, true)?;
            fs.soc.core_mut(c).unpark();
        }
        for (slot, program) in programs.iter().enumerate() {
            let main = mains[slot];
            fs.soc.load_program(program);
            fs.soc.core_mut(main).state.pc = program.entry;
            fs.soc.core_mut(main).state.prv = PrivMode::User;
            fs.soc.core_mut(main).unpark();
        }
        let mut slot_of = vec![None; cores];
        for (slot, &m) in mains.iter().enumerate() {
            slot_of[m] = Some(slot);
        }
        let n = mains.len();
        // Rollback recovery journals every main's stores (undo log for
        // re-execution); under Detect no journal exists and the memory
        // write path is untouched.
        let recovery = match recovery_policy {
            RecoveryPolicy::Detect => None,
            RecoveryPolicy::Rollback { max_retries } => {
                let slots = binding
                    .iter()
                    .map(|b| RecoverySlot {
                        resolved: match b {
                            Binding::Dedicated(cs) => vec![None; cs.len()],
                            Binding::Shared(_) => vec![None; 1],
                        },
                        ..RecoverySlot::default()
                    })
                    .collect();
                for &m in &mains {
                    fs.soc.mem.enable_journal(m);
                }
                Some(RecoveryState { max_retries, slots })
            }
        };
        let num_checkers = checkers.len();
        let coverage = modes
            .iter()
            .map(|m| Coverage {
                checked: 0,
                unchecked: 0,
                since: 0,
                live: m.is_checked(),
                frozen: false,
            })
            .collect();
        let pairing = pairing.map(|schedule| PairingRuntime {
            events: schedule.events().to_vec(),
            next: 0,
            pending: vec![None; n],
            released: vec![false; n],
            counts: vec![(0, 0); n],
        });
        let mut run = VerifiedRun {
            fs,
            mains,
            checkers,
            arbiters,
            arbiter_of,
            slot_of,
            done: vec![false; n],
            done_count: 0,
            finish_cycle: vec![0; n],
            steps: 0,
            observers,
            faults: FaultDriver::new(fault_plan),
            injections: Vec::new(),
            trace,
            recorded: record_events.then(RecordingObserver::new),
            recovery,
            dead_checkers: vec![false; num_checkers],
            checkers_lost: 0,
            repair_pending: vec![None; n],
            repair_latencies: Vec::new(),
            warnings: Vec::new(),
            modes,
            pairing,
            coverage,
            #[cfg(test)]
            single_step: false,
        };
        run.sync_fault_memo_blocks();
        // The build-time grants above happen before the first step;
        // surface them so traces show checker occupancy from cycle 0.
        let grants: Vec<(usize, usize)> = run
            .arbiters
            .iter()
            .filter_map(|a| a.granted().map(|g| (a.checker(), g)))
            .collect();
        for (checker, granted) in grants {
            run.emit(RunEvent::CheckerGranted {
                checker,
                main: granted,
                cycle: 0,
            });
        }
        Ok(run)
    }

    /// Sends one event to every attached observer: live observers
    /// first, then the trace, then the recording. Every event goes
    /// through here, so the three views never disagree.
    fn emit(&mut self, ev: RunEvent) {
        for o in &mut self.observers {
            o.event(&ev);
        }
        if let Some((_, t)) = &mut self.trace {
            t.event(&ev);
        }
        if let Some(r) = &mut self.recorded {
            r.event(&ev);
        }
    }

    /// Whether any sink is attached (observer dispatch is skipped
    /// entirely on unobserved runs — the hot campaign path).
    fn observing(&self) -> bool {
        !self.observers.is_empty() || self.trace.is_some() || self.recorded.is_some()
    }

    // ----- accessors --------------------------------------------------------

    /// The current cycle.
    pub fn now(&self) -> u64 {
        self.fs.soc.now()
    }

    /// The platform clock.
    pub fn clock(&self) -> Clock {
        self.fs.soc.clock()
    }

    /// The underlying simulator (cores, memory).
    pub fn soc(&self) -> &Soc {
        &self.fs.soc
    }

    /// Mutable simulator access (test/tooling escape hatch).
    pub fn soc_mut(&mut self) -> &mut Soc {
        &mut self.fs.soc
    }

    /// The FlexStep fabric state (FIFOs, stats, detections).
    pub fn fabric(&self) -> &Fabric {
        &self.fs.fabric
    }

    /// Mutable fabric access (custom fault injection, reconfiguration
    /// experiments).
    ///
    /// Between [`VerifiedRun::step_once`] calls a main or a checker may
    /// have run a block of up to [`BLOCK_INSTS`](flexstep_sim::BLOCK_INSTS)
    /// instructions past [`VerifiedRun::now`], so an injection made here
    /// meets the stream as those blocks left it (DESIGN.md §18). For
    /// cycle-precise injection use a [`FaultPlan`]: its shots bound every
    /// block.
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fs.fabric
    }

    /// The whole platform — simulator plus fabric plus the Tab. I
    /// operations (reconfiguration experiments).
    pub fn platform_mut(&mut self) -> &mut FlexSoc {
        &mut self.fs
    }

    /// Checker-role state of a core.
    pub fn checker_state(&self, core: usize) -> &CheckerState {
        self.fs.checker_state(core)
    }

    /// The main cores, in channel order.
    pub fn mains(&self) -> &[usize] {
        &self.mains
    }

    /// The checker cores, ascending.
    pub fn checkers(&self) -> &[usize] {
        &self.checkers
    }

    /// Arbitration state per shared checker (empty for dedicated
    /// topologies).
    pub fn arbiter_stats(&self) -> Vec<ArbiterStats> {
        self.arbiters.iter().map(|a| a.stats).collect()
    }

    /// The main currently granted a shared checker, if that checker is
    /// connected.
    pub fn granted_main(&self, checker: usize) -> Option<usize> {
        self.arbiters
            .iter()
            .find(|a| a.checker() == checker)
            .and_then(CheckerArbiter::granted)
    }

    /// The Chrome-trace recorder configured via [`Scenario::trace_to`](crate::Scenario::trace_to)
    /// (`None` when tracing is off). Borrow it to read the trace
    /// mid-run.
    pub fn trace(&self) -> Option<&TraceObserver> {
        self.trace.as_ref().map(|(_, t)| t)
    }

    /// Writes the Chrome trace configured via [`Scenario::trace_to`](crate::Scenario::trace_to) to
    /// its path and returns that path (`Ok(None)` when tracing is off).
    /// Call after the run; the file loads in `chrome://tracing` or
    /// Perfetto.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_trace(&self) -> std::io::Result<Option<std::path::PathBuf>> {
        match &self.trace {
            Some((path, t)) => {
                t.write_to(path)?;
                Ok(Some(path.clone()))
            }
            None => Ok(None),
        }
    }

    /// The events recorded via
    /// [`Scenario::record_events`](crate::Scenario::record_events)
    /// (`None` when recording is off).
    pub fn recording(&self) -> Option<&RecordingObserver> {
        self.recorded.as_ref()
    }

    /// Whether every main core has reached its final `ecall`.
    pub fn main_done(&self) -> bool {
        self.done_count == self.mains.len()
    }

    /// Whether every stream has drained and every checker returned to
    /// the wait-for-SCP state.
    pub fn drained(&self) -> bool {
        self.mains
            .iter()
            .all(|&m| self.fs.fabric.unit(m).fifo.is_fully_drained())
            && self
                .checkers
                .iter()
                .all(|&c| self.fs.fabric.unit(c).checker.phase == CheckPhase::WaitScp)
    }

    // ----- stepping ---------------------------------------------------------

    fn complete(&self) -> bool {
        self.main_done() && self.drained() && self.arbiters.iter().all(CheckerArbiter::is_idle)
    }

    /// Expires every still-pending shot (the run is complete; nothing
    /// is left to corrupt) and notifies observers. Idempotent.
    fn expire_remaining_shots(&mut self) {
        let now = self.fs.soc.now();
        for channel in self.faults.expire_remaining() {
            let main = self.mains[channel];
            self.note_unchecked_expiry(channel, now);
            self.emit(RunEvent::ShotExpired { main, cycle: now });
        }
        self.sync_fault_memo_blocks();
    }

    /// Re-derives the per-main `memo_blocked` flags from the fault
    /// driver: any channel with a shot still armed or in flight must be
    /// replayed for real (DESIGN.md §13 — a cached verdict would mask
    /// the injection window). Called whenever the pending set changes.
    fn sync_fault_memo_blocks(&mut self) {
        for &m in &self.mains {
            self.fs.fabric.unit_mut(m).memo_blocked = false;
        }
        let blocked: Vec<usize> = self.faults.pending_channels().collect();
        for channel in blocked {
            let main = self.mains[channel];
            self.fs.fabric.unit_mut(main).memo_blocked = true;
        }
        // A rolled-back stream is likewise blocked until it verifies
        // clean again: its re-execution must be replayed for real, never
        // served a stale cached verdict (DESIGN.md §14).
        if let Some(rec) = &self.recovery {
            for (slot, s) in rec.slots.iter().enumerate() {
                if s.blocked {
                    let main = self.mains[slot];
                    self.fs.fabric.unit_mut(main).memo_blocked = true;
                }
            }
        }
    }

    /// Whether a checker *core* has been killed by a fault shot.
    fn checker_is_dead(&self, core: usize) -> bool {
        self.checkers
            .iter()
            .position(|&c| c == core)
            .is_some_and(|i| self.dead_checkers[i])
    }

    /// Samples the kill → re-grant repair latency when an orphaned main
    /// gets its replacement checker.
    fn sample_repair_latency(&mut self, main: usize, now: u64) {
        if let Some(slot) = self.slot_of[main] {
            if let Some(killed_at) = self.repair_pending[slot].take() {
                self.repair_latencies.push(now.saturating_sub(killed_at));
            }
        }
    }

    // ----- dynamic pairing --------------------------------------------------

    /// Applies due pairing-schedule transitions. Releases wait for the
    /// slot's segment boundary — disabling checking mid-segment would
    /// abandon the open segment and strand its checker waiting for an
    /// ECP that never arrives — while acquires apply immediately. A
    /// later due event for the same slot overrides one still pending.
    fn drive_pairing(&mut self) {
        let now = self.fs.soc.now();
        {
            let p = self.pairing.as_mut().expect("pairing runtime");
            while p.next < p.events.len() && p.events[p.next].at_cycle <= now {
                let ev = p.events[p.next];
                p.pending[ev.slot] = Some(ev.action);
                p.next += 1;
            }
        }
        for slot in 0..self.mains.len() {
            let pending = self.pairing.as_ref().expect("pairing runtime").pending[slot];
            match pending {
                Some(PairingAction::Release) => self.try_release(slot, now),
                Some(PairingAction::Acquire) => self.try_acquire(slot, now),
                None => {}
            }
        }
    }

    /// Applies one pending release if the slot sits at a segment
    /// boundary; otherwise leaves it pending for the next step.
    fn try_release(&mut self, slot: usize, now: u64) {
        let main = self.mains[slot];
        let already = self.pairing.as_ref().expect("pairing runtime").released[slot];
        if already || self.done[slot] || !self.fs.fabric.unit(main).checking_enabled {
            // Nothing to release: finished slots released in their done
            // handling, degraded slots have no channel left. Drop it.
            self.pairing.as_mut().expect("pairing runtime").pending[slot] = None;
            return;
        }
        if self.fs.fabric.unit(main).tracker.is_open() {
            return; // not at a boundary yet; retry next step
        }
        self.fs.fabric.set_check(main, false).expect("main core");
        if let Some(arb) = self.arbiter_of[slot] {
            // Hand the shared checker back: the arbiter completes the
            // hand-over once the buffered stream drains (buffered
            // segments are still verified — release stops *production*,
            // not verification of data already logged).
            self.arbiters[arb].release(main);
        }
        {
            let p = self.pairing.as_mut().expect("pairing runtime");
            p.pending[slot] = None;
            p.released[slot] = true;
            p.counts[slot].1 += 1;
        }
        self.coverage[slot].transition(now, false);
        self.emit(RunEvent::CheckerReleased { main, cycle: now });
    }

    /// Applies one pending acquire: re-enables checking and, for shared
    /// slots, re-enters arbitration — retracting a release the arbiter
    /// has not consumed yet, or adopting back in after a hand-over.
    fn try_acquire(&mut self, slot: usize, now: u64) {
        let main = self.mains[slot];
        let released = self.pairing.as_ref().expect("pairing runtime").released[slot];
        self.pairing.as_mut().expect("pairing runtime").pending[slot] = None;
        if !released || self.done[slot] {
            return;
        }
        if let Some(arb) = self.arbiter_of[slot] {
            self.arbiters[arb].retract_release(main);
            if !self.arbiters[arb].is_serving(main) {
                let immediate = self.arbiters[arb]
                    .adopt(&mut self.fs.fabric, main)
                    .expect("released main is pending");
                if immediate {
                    let checker = self.arbiters[arb].checker();
                    self.fs.soc.core_mut(checker).unpark();
                    self.emit(RunEvent::CheckerGranted {
                        checker,
                        main,
                        cycle: now,
                    });
                }
            }
        }
        self.fs
            .fabric
            .set_check(main, true)
            .expect("released slot keeps its association");
        {
            let p = self.pairing.as_mut().expect("pairing runtime");
            p.released[slot] = false;
            p.counts[slot].0 += 1;
        }
        self.coverage[slot].transition(now, true);
        self.emit(RunEvent::CheckerAcquired { main, cycle: now });
    }

    /// Raises the typed warning when a shot expires while its target
    /// main runs unchecked *by policy* (mode or released window): such
    /// shots must never vanish silently.
    fn note_unchecked_expiry(&mut self, channel: usize, now: u64) {
        let policy_unchecked = !self.modes[channel].is_checked()
            || self.pairing.as_ref().is_some_and(|p| p.released[channel]);
        if policy_unchecked {
            self.warnings.push(RunWarning::ShotInUncheckedWindow {
                main: self.mains[channel],
                at_cycle: now,
            });
        }
    }

    /// Reverses the done-handling of a main that must resume producing
    /// (rollback recovery re-executes its tail).
    fn unfinish_if_done(&mut self, slot: usize) {
        if !self.done[slot] {
            return;
        }
        let main = self.mains[slot];
        self.done[slot] = false;
        self.done_count -= 1;
        self.finish_cycle[slot] = 0;
        self.fs.soc.core_mut(main).unpark();
        if self.arbiter_of[slot].is_some() {
            // Finishing disabled checking; the re-execution needs it back.
            self.fs.fabric.set_check(main, true).expect("main core");
        }
        // Resume coverage accounting where the re-execution resumes; the
        // finish → rollback gap counts in neither bucket.
        let now = self.fs.soc.now();
        let live = self.fs.fabric.unit(main).checking_enabled;
        let c = &mut self.coverage[slot];
        c.frozen = false;
        c.since = now;
        c.live = live;
    }

    /// Rolls `main` back to `anchor`: restores the register file from the
    /// SCP snapshot, undoes its journaled stores, flushes the in-flight
    /// DBC stream and replay state, and re-arms the core at the segment
    /// boundary. The architectural restore is charged as an SCP apply.
    fn apply_rollback(&mut self, slot: usize, anchor: &Anchor) {
        let main = self.mains[slot];
        {
            let core = self.fs.soc.core_mut(main);
            core.state.restore(&anchor.snapshot);
            // Checkpoints carry no privilege: checking segments are
            // user-mode only, so the boundary was user mode.
            core.state.prv = PrivMode::User;
            core.reset_replay_uarch();
            core.clear_reservation();
        }
        self.fs.soc.mem.rollback_journal(main, anchor.journal_mark);
        self.fs.soc.mem.truncate_journal(main, anchor.journal_mark);
        {
            let unit = self.fs.fabric.unit_mut(main);
            // Drops buffered packets and banked fingerprints; the retried
            // stream re-fingerprints from scratch, so a stale memo entry
            // can never match it.
            unit.fifo.reset();
            if unit.tracker.is_open() {
                unit.tracker.abandon();
            }
        }
        let checkers: Vec<usize> = self.fs.fabric.checkers_of(main).to_vec();
        for c in checkers {
            self.fs.fabric.reset_checker_replay(c);
        }
        let cost = self.fs.fabric.config().scp_apply_cycles;
        self.fs.soc.stall_core(main, cost);
        self.unfinish_if_done(slot);
        // A rollback overrides a policy release: the re-execution must
        // be re-verified, so checking comes back on (shared slots
        // re-enter arbitration in the caller's retract/adopt path).
        let was_released = self.pairing.as_ref().is_some_and(|p| p.released[slot]);
        if was_released {
            let now = self.fs.soc.now();
            let _ = self.fs.fabric.set_check(main, true);
            let p = self.pairing.as_mut().expect("pairing runtime");
            p.released[slot] = false;
            p.pending[slot] = None;
            self.coverage[slot].transition(now, true);
        }
    }

    /// Kill-path re-verification: rolls a main back to its *oldest*
    /// unresolved segment boundary so a replacement checker re-verifies
    /// everything the dead one left unverdicted. No-op under
    /// [`RecoveryPolicy::Detect`] (the unverified tail is dropped — a
    /// documented coverage loss) or when every segment already resolved.
    fn rollback_oldest_unresolved(&mut self, slot: usize, now: u64) {
        let anchor = {
            let Some(rec) = self.recovery.as_mut() else {
                return;
            };
            let s = &mut rec.slots[slot];
            let Some(anchor) = s.anchors.pop_front() else {
                return;
            };
            // Later anchors are inside the re-executed region; the retry
            // regenerates them under fresh seqs.
            s.anchors.clear();
            s.wasted_cycles += now.saturating_sub(anchor.open_cycle);
            anchor
        };
        self.apply_rollback(slot, &anchor);
    }

    /// Degrades a main to unchecked execution (its last checker died):
    /// checking off, stream flushed, typed warning raised. The run keeps
    /// completing instead of deadlocking on a channel nobody will drain.
    fn degrade_unchecked(&mut self, slot: usize, now: u64) {
        let main = self.mains[slot];
        let _ = self.fs.fabric.set_check(main, false);
        self.fs.fabric.unit_mut(main).fifo.reset();
        self.arbiter_of[slot] = None;
        self.repair_pending[slot] = None;
        if let Some(rec) = &mut self.recovery {
            let s = &mut rec.slots[slot];
            if s.pending_since.take().is_some() {
                // An in-flight recovery can never verify clean again.
                s.unrecovered += 1;
            }
            s.anchors.clear();
            s.blocked = false;
            let live = self.fs.soc.mem.journal_mark(main);
            self.fs.soc.mem.truncate_journal(main, live);
        }
        self.warnings.push(RunWarning::UncheckedExecution {
            main,
            from_cycle: now,
        });
        self.coverage[slot].transition(now, false);
        if let Some(p) = &mut self.pairing {
            // No channel survives, so future pairing transitions on this
            // slot are void; the degradation warning above supersedes
            // the released-window accounting.
            p.released[slot] = false;
            p.pending[slot] = None;
        }
    }

    /// Handles a fired [`FaultPlan::kill_checker_at`] shot: halts the
    /// checker core, tears down its channel, and re-pairs the orphaned
    /// mains onto surviving pool members (or degrades them to unchecked
    /// execution when none survive).
    fn kill_checker(&mut self, idx: usize) {
        if self.dead_checkers[idx] {
            return;
        }
        self.dead_checkers[idx] = true;
        self.checkers_lost += 1;
        let checker = self.checkers[idx];
        let now = self.fs.soc.now();
        self.fs.soc.core_mut(checker).halt();
        self.emit(RunEvent::CheckerKilled {
            checker,
            cycle: now,
        });
        if let Some(ai) = self.arbiters.iter().position(|a| a.checker() == checker) {
            // Shared pool member: every main it was serving (granted or
            // queued) re-pairs round-robin onto the survivors.
            let orphans = self.arbiters[ai].take_orphans();
            self.fs.fabric.kill_checker(checker);
            let survivors: Vec<usize> = (0..self.arbiters.len())
                .filter(|&i| i != ai && !self.checker_is_dead(self.arbiters[i].checker()))
                .collect();
            for (k, &orphan) in orphans.iter().enumerate() {
                let slot = self.slot_of[orphan].expect("orphan is a main");
                self.rollback_oldest_unresolved(slot, now);
                if survivors.is_empty() {
                    self.degrade_unchecked(slot, now);
                    continue;
                }
                let target = survivors[k % survivors.len()];
                self.arbiter_of[slot] = Some(target);
                self.repair_pending[slot] = Some(now);
                let immediate = self.arbiters[target]
                    .adopt(&mut self.fs.fabric, orphan)
                    .expect("orphan is pending");
                if self.done[slot] {
                    // Still done after the rollback pass: nothing to
                    // re-execute, only buffered data to drain.
                    self.arbiters[target].release(orphan);
                }
                if immediate {
                    self.sample_repair_latency(orphan, now);
                    let new_checker = self.arbiters[target].checker();
                    self.fs.soc.core_mut(new_checker).unpark();
                    self.emit(RunEvent::CheckerGranted {
                        checker: new_checker,
                        main: orphan,
                        cycle: now,
                    });
                }
            }
            // Slots that finished their hand-over (a pairing release or
            // a finish) before the kill are no orphans, yet still name
            // the dead arbiter: a later acquire or rollback would adopt
            // them back onto the dead checker and wait forever.
            let stale: Vec<usize> = (0..self.mains.len())
                .filter(|&slot| self.arbiter_of[slot] == Some(ai))
                .collect();
            for (k, slot) in stale.into_iter().enumerate() {
                if !survivors.is_empty() {
                    let target = survivors[(orphans.len() + k) % survivors.len()];
                    self.arbiter_of[slot] = Some(target);
                } else if self.done[slot] {
                    self.arbiter_of[slot] = None;
                } else {
                    self.degrade_unchecked(slot, now);
                }
            }
        } else if let Some((main, survivors)) = self.fs.fabric.kill_checker(checker) {
            // Dedicated channel: surviving consumers are re-indexed by
            // the fabric and restart at the next SCP.
            let slot = self.slot_of[main].expect("channel main");
            self.rollback_oldest_unresolved(slot, now);
            if let Some(rec) = &mut self.recovery {
                // Consumer indices changed; verdict bookkeeping restarts.
                rec.slots[slot].resolved = vec![None; survivors.max(1)];
            }
            if survivors == 0 {
                self.degrade_unchecked(slot, now);
            }
        }
        self.sync_fault_memo_blocks();
    }

    /// Rollback-recovery reaction to one engine step: anchors new
    /// segments, retires verdicted ones, and rolls the faulted main back
    /// on a detection. Only called under [`RecoveryPolicy::Rollback`].
    fn handle_recovery_step(&mut self, core: usize, step: &EngineStep) {
        match step {
            EngineStep::SegmentOpened => {
                let Some(slot) = self.slot_of[core] else {
                    return;
                };
                let Some(seq) = self.fs.fabric.unit(core).tracker.open_seq() else {
                    return;
                };
                let snapshot = self.fs.soc.core(core).state.snapshot();
                let journal_mark = self.fs.soc.mem.journal_mark(core);
                let open_cycle = self.fs.soc.now();
                let rec = self.recovery.as_mut().expect("rollback policy");
                rec.slots[slot].anchors.push_back(Anchor {
                    seq,
                    snapshot,
                    journal_mark,
                    open_cycle,
                });
            }
            EngineStep::CheckerSegmentDone(result) => {
                let Some((main, consumer)) = self.fs.fabric.channel_of(core) else {
                    return;
                };
                let Some(slot) = self.slot_of[main] else {
                    return;
                };
                let now = self.fs.soc.now();
                let live_mark = self.fs.soc.mem.journal_mark(main);
                let (truncate, completed) = {
                    let rec = self.recovery.as_mut().expect("rollback policy");
                    let s = &mut rec.slots[slot];
                    if consumer < s.resolved.len() {
                        s.resolved[consumer] =
                            Some(s.resolved[consumer].map_or(result.seq, |v| v.max(result.seq)));
                    }
                    let truncate = s.retire_resolved();
                    // A clean verdict ends the recovery window: the
                    // retried stream verified, the retry budget resets,
                    // and the memo block lifts.
                    s.consecutive = 0;
                    let completed = s.pending_since.take().map(|t| now.saturating_sub(t));
                    if let Some(latency) = completed {
                        s.latencies.push(latency);
                        s.blocked = false;
                    }
                    (truncate, completed)
                };
                if let Some(mark) = truncate {
                    self.fs.soc.mem.truncate_journal(main, mark.min(live_mark));
                }
                if let Some(latency) = completed {
                    self.emit(RunEvent::RecoveryComplete {
                        main,
                        cycle: now,
                        latency,
                    });
                    self.sync_fault_memo_blocks();
                }
            }
            EngineStep::CheckerDetected(event) => {
                self.handle_detection_recovery(
                    event.main_core,
                    event.checker_core,
                    event.segment_seq,
                );
            }
            _ => {}
        }
    }

    /// Rollback-or-exhaust decision for one detection (DESIGN.md §14).
    fn handle_detection_recovery(&mut self, main: usize, checker: usize, seq: u64) {
        let now = self.fs.soc.now();
        let Some(slot) = self.slot_of[main] else {
            return;
        };
        let consumer = self.fs.fabric.channel_of(checker).map(|(_, i)| i);
        let live_mark = self.fs.soc.mem.journal_mark(main);
        enum Decision {
            Roll(Box<Anchor>),
            Exhausted(Option<u64>),
        }
        let decision = {
            let rec = self.recovery.as_mut().expect("rollback policy");
            let max_retries = rec.max_retries;
            let s = &mut rec.slots[slot];
            let pos = s.anchors.iter().position(|a| a.seq == seq);
            match pos {
                Some(i) if s.consecutive < max_retries => {
                    let anchor = s.anchors.remove(i).expect("position is in range");
                    // Anchors after (and before) the rollback point
                    // describe segments whose in-flight data the flush
                    // destroys; the retry regenerates them under fresh
                    // seqs, so they can never resolve — drop them.
                    s.anchors.clear();
                    s.recoveries += 1;
                    s.consecutive += 1;
                    s.blocked = true;
                    if s.pending_since.is_none() {
                        // Consecutive retries keep the first detection as
                        // the latency epoch: detect → verified-again.
                        s.pending_since = Some(now);
                    }
                    s.wasted_cycles += now.saturating_sub(anchor.open_cycle);
                    Decision::Roll(Box::new(anchor))
                }
                _ => {
                    // Retry budget exhausted (or the anchor is gone):
                    // record detect-only, like RecoveryPolicy::Detect.
                    s.unrecovered += 1;
                    if let Some(i) = consumer {
                        if i < s.resolved.len() {
                            s.resolved[i] = Some(s.resolved[i].map_or(seq, |v| v.max(seq)));
                        }
                    }
                    let truncate = s.retire_resolved();
                    s.pending_since = None;
                    s.consecutive = 0;
                    s.blocked = false;
                    Decision::Exhausted(truncate)
                }
            }
        };
        match decision {
            Decision::Roll(anchor) => {
                self.apply_rollback(slot, &anchor);
                if let Some(arb) = self.arbiter_of[slot] {
                    self.arbiters[arb].retract_release(main);
                    if !self.arbiters[arb].is_serving(main) {
                        // The grant was revoked before the detection
                        // landed; re-enter arbitration for the retry.
                        let _ = self.arbiters[arb].adopt(&mut self.fs.fabric, main);
                    }
                }
                self.emit(RunEvent::RecoveryStart {
                    main,
                    seq,
                    cycle: now,
                });
            }
            Decision::Exhausted(truncate) => {
                if let Some(mark) = truncate {
                    self.fs.soc.mem.truncate_journal(main, mark.min(live_mark));
                }
                self.warnings.push(RunWarning::RetriesExhausted {
                    main,
                    seq,
                    at_cycle: now,
                });
            }
        }
        self.sync_fault_memo_blocks();
    }

    /// Whether `core` is a [`ReliabilityMode::FullLockstep`] main that
    /// must hold at its checkpoint: a complete segment sits unverified
    /// in its FIFO and a live checker still owes the verdict. Released,
    /// degraded or finished slots never wait — there is nobody left to
    /// wait for.
    fn lockstep_must_wait(&self, core: usize) -> bool {
        let Some(slot) = self.slot_of[core] else {
            return false;
        };
        if self.done[slot]
            || self.modes[slot] != ReliabilityMode::FullLockstep
            || !self.fs.fabric.checking_live(core)
        {
            return false;
        }
        let fifo = &self.fs.fabric.unit(core).fifo;
        (0..fifo.consumers()).any(|c| fifo.complete_segments_ahead(c) >= 1)
    }

    /// How far a block dispatched on `core` may run: no instruction of it
    /// is dispatched at or after this cycle (DESIGN.md §18). For mains
    /// and checkers alike that is the cycle of the next unfired fault
    /// shot or pairing event, the only hooks `step_once` fires by time;
    /// its other hooks react to state a block never changes. Under
    /// rollback a checker's verdict can also roll a main back: a main's
    /// block stops at the ready cycle of every checker that could give
    /// one (`rollback_horizon`), and a channel with sibling consumers
    /// replays single-stepped, since either sibling's detection rolls the
    /// stream back under the other.
    fn horizon(&self, core: usize) -> u64 {
        #[cfg(test)]
        if self.single_step {
            return 0;
        }
        let pairing = self
            .pairing
            .as_ref()
            .and_then(|p| p.events.get(p.next))
            .map_or(u64::MAX, |e| e.at_cycle);
        let timed = self.faults.next_cycle().min(pairing);
        if self.recovery.is_none() {
            return timed;
        }
        if let Some(slot) = self.slot_of[core] {
            return timed.min(self.rollback_horizon(slot));
        }
        match self.fs.fabric.channel_of(core) {
            Some((main, _)) if self.fs.fabric.unit(main).fifo.consumers() > 1 => 0,
            _ => timed,
        }
    }

    /// The earliest ready cycle of a running checker that could roll the
    /// main of `slot` back: one on its channel that is mid-segment or has
    /// a complete segment ahead, or its pool's checker while the main has
    /// a complete segment buffered for a grant. Those are the only
    /// dispatches that can; a main block never completes a segment.
    fn rollback_horizon(&self, slot: usize) -> u64 {
        let main = self.mains[slot];
        let fabric = &self.fs.fabric;
        let fifo = &fabric.unit(main).fifo;
        let pool = self.arbiter_of[slot].map(|a| self.arbiters[a].checker());
        fabric
            .checkers_of(main)
            .iter()
            .copied()
            .chain(pool)
            .filter(|&c| self.fs.soc.core(c).is_running())
            .filter(|&c| match fabric.channel_of(c) {
                Some((m, consumer)) if m == main => {
                    fabric.unit(c).checker.phase != CheckPhase::WaitScp
                        || fifo.complete_segments_ahead(consumer) > 0
                }
                _ => (0..fifo.consumers()).any(|i| fifo.complete_segments_ahead(i) > 0),
            })
            .map(|c| self.fs.soc.core(c).ready_at)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Executes one scheduling quantum: polls arbiters, fires due fault
    /// shots, then steps the earliest-ready core. Returns `false` once
    /// the run is fully complete.
    pub fn step_once(&mut self) -> bool {
        if self.complete() {
            // Every stream has drained for good: shots still pending can
            // never land — count them as armed-but-expired.
            self.expire_remaining_shots();
            return false;
        }
        let mut grants: Vec<(usize, usize)> = Vec::new();
        for a in &mut self.arbiters {
            if let Some(granted) = a.poll(&mut self.fs.fabric) {
                grants.push((a.checker(), granted));
            }
        }
        for (checker, granted) in grants {
            // A hand-over reconnects the checker; wake it in case it
            // parked while its queue was empty.
            self.fs.soc.core_mut(checker).unpark();
            let now = self.fs.soc.now();
            self.sample_repair_latency(granted, now);
            self.emit(RunEvent::CheckerGranted {
                checker,
                main: granted,
                cycle: now,
            });
        }
        if self.pairing.is_some() {
            self.drive_pairing();
        }
        if self.faults.pending() {
            let now = self.fs.soc.now();
            let done = &self.done;
            let (fired, expired, kills) =
                self.faults
                    .fire_due(&mut self.fs.fabric, &self.mains, |slot| done[slot], now);
            let pending_set_changed = !fired.is_empty() || !expired.is_empty() || !kills.is_empty();
            for injection in fired {
                if self.observing() {
                    self.emit(RunEvent::FaultInjected(injection.clone()));
                }
                self.injections.push(injection);
            }
            for channel in expired {
                let main = self.mains[channel];
                self.note_unchecked_expiry(channel, now);
                self.emit(RunEvent::ShotExpired { main, cycle: now });
            }
            for checker_idx in kills {
                self.kill_checker(checker_idx);
            }
            if pending_set_changed {
                self.sync_fault_memo_blocks();
            }
        }
        let core = match self.fs.soc.next_ready() {
            Some(c) => c,
            None => return false,
        };
        if self.lockstep_must_wait(core) {
            // FullLockstep semantics: the main may not run past an
            // unverified checkpoint. Hold it at the segment boundary in
            // small deterministic quanta until the checker's verdict
            // lands, instead of letting the DMA spill path accumulate an
            // unbounded unverified backlog.
            self.fs.soc.touch_clock(core);
            self.fs.soc.stall_core(core, LOCKSTEP_WAIT_QUANTUM);
            return true;
        }
        // Pin the clock to the dispatched (earliest-ready) core before
        // stepping: every `now()` read inside the step then depends only
        // on per-core timelines, not on how many instructions previous
        // steps batched — the keystone of memo-on/off report identity.
        self.fs.soc.touch_clock(core);
        // Segment open/close observation needs the tracker state from
        // before the step; skip the probe entirely when nobody watches.
        let seg_before = if !self.observing() {
            None
        } else {
            self.slot_of[core].map(|_| self.fs.fabric.unit(core).tracker.open_seq())
        };
        let horizon = self.horizon(core);
        self.fs.main_horizon = horizon;
        self.fs.replay_horizon = horizon;
        let step = self.fs.step(core);
        // A main block or a replay block retires many
        // instructions in one engine step: weight it so `engine_steps`
        // stays an instruction-granular progress measure, comparable
        // across batching modes.
        self.steps += match &step {
            EngineStep::MainBlock { retired } => *retired,
            EngineStep::CheckerBlock { replayed } => *replayed,
            _ => 1,
        };
        if matches!(step, EngineStep::Idle)
            && self.slot_of[core].is_none()
            && self.fs.fabric.channel_of(core).is_none()
        {
            // A busy checker whose arbitration queue has drained: no
            // channel and nothing to replay. `step_checker` returns
            // `Idle` without stalling, so at a fixed cycle it would
            // monopolise the ready queue and starve every other core —
            // park it (a later grant unparks it in the poll loop above).
            self.fs.soc.core_mut(core).park();
            let now = self.fs.soc.now();
            self.emit(RunEvent::CheckerParked {
                checker: core,
                cycle: now,
            });
        }
        if let Some(slot) = self.slot_of[core] {
            if !self.done[slot] {
                if let EngineStep::Core(StepKind::Trap {
                    cause: TrapCause::EcallFromU,
                    ..
                }) = &step
                {
                    let now = self.fs.soc.now();
                    self.done[slot] = true;
                    self.done_count += 1;
                    self.finish_cycle[slot] = now;
                    // Freeze coverage at the finish: drain cycles belong to
                    // neither bucket.
                    let live = self.coverage[slot].live;
                    self.coverage[slot].transition(now, live);
                    self.coverage[slot].frozen = true;
                    self.fs.soc.core_mut(core).park();
                    if let Some(arb) = self.arbiter_of[slot] {
                        // The job is done: stop producing and let the
                        // arbiter hand the checker over once the stream
                        // drains.
                        self.fs.fabric.set_check(core, false).expect("main core");
                        self.arbiters[arb].release(core);
                    }
                    self.emit(RunEvent::MainFinished {
                        main: core,
                        cycle: now,
                    });
                } else if let EngineStep::Core(StepKind::Trap { cause, tval, pc }) = &step {
                    panic!("main core {core} faulted: {cause:?} tval={tval:#x} pc={pc:#x}");
                }
            }
        }
        if self.observing() {
            self.notify_observers(core, seg_before, &step);
        }
        if self.recovery.is_some() {
            self.handle_recovery_step(core, &step);
        }
        true
    }

    /// Emits the sink events for one engine step.
    fn notify_observers(
        &mut self,
        core: usize,
        seg_before: Option<Option<u64>>,
        step: &EngineStep,
    ) {
        let cycle = self.fs.soc.now();
        if let Some(before) = seg_before {
            let after = self.fs.fabric.unit(core).tracker.open_seq();
            match (before, after) {
                (None, Some(seq)) => {
                    self.emit(RunEvent::SegmentOpen {
                        main: core,
                        seq,
                        cycle,
                    });
                }
                (Some(seq), None) => {
                    self.emit(RunEvent::SegmentClose {
                        main: core,
                        seq,
                        cycle,
                    });
                }
                (Some(closed), Some(opened)) if closed != opened => {
                    self.emit(RunEvent::SegmentClose {
                        main: core,
                        seq: closed,
                        cycle,
                    });
                    self.emit(RunEvent::SegmentOpen {
                        main: core,
                        seq: opened,
                        cycle,
                    });
                }
                _ => {}
            }
        }
        match step {
            EngineStep::CheckerApplied { seq } => {
                // The SCP apply begins the checker-occupancy window; the
                // connected channel names the main being verified.
                if let Some((main, _)) = self.fs.fabric.channel_of(core) {
                    self.emit(RunEvent::CheckStart {
                        checker: core,
                        main,
                        seq: *seq,
                        cycle,
                    });
                }
            }
            EngineStep::CheckerSegmentDone(result) => {
                self.emit(RunEvent::CheckPass {
                    checker: core,
                    result: result.clone(),
                });
            }
            EngineStep::CheckerDetected(event) => {
                let result = SegmentResult {
                    seq: event.segment_seq,
                    tag: event.tag,
                    mismatch: Some(event.kind.clone()),
                    at: event.detected_at,
                };
                self.emit(RunEvent::CheckFail {
                    checker: core,
                    result,
                });
                self.emit(RunEvent::Detection(event.clone()));
            }
            _ => {}
        }
    }

    /// Runs until the cycle counter passes `cycle` or the run completes.
    /// Returns `true` while the run is still live.
    ///
    /// The last dispatch may leave a main block or a checker replay block
    /// ahead of `cycle`; a fault meant to land at an exact cycle
    /// belongs in a [`FaultPlan`], not in [`VerifiedRun::fabric_mut`]
    /// between calls.
    pub fn run_until_cycle(&mut self, cycle: u64) -> bool {
        while self.fs.soc.now() < cycle {
            if !self.step_once() {
                return false;
            }
        }
        true
    }

    /// Runs to completion (programs ended + checkers drained), bounded
    /// by `max_steps` calls of [`VerifiedRun::step_once`]. Each call is
    /// one dispatch, which may retire a whole main block or checker
    /// replay block, so the bound is not [`RunReport::engine_steps`]:
    /// that counts every instruction of a block.
    pub fn run_to_completion(&mut self, max_steps: u64) -> RunReport {
        let mut steps = 0;
        while steps < max_steps && self.step_once() {
            steps += 1;
        }
        self.report()
    }

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
                let rec = self.recovery.as_ref().map(|r| &r.slots[slot]);
                MainReport {
                    core,
                    completed: self.done[slot],
                    finish_cycle: self.finish_cycle[slot],
                    retired: self.fs.soc.core(core).instret,
                    recoveries: rec.map_or(0, |s| s.recoveries),
                    unrecovered: rec.map_or(0, |s| s.unrecovered),
                    wasted_cycles: rec.map_or(0, |s| s.wasted_cycles),
                    recovery_latency_cycles: rec.map_or_else(Vec::new, |s| s.latencies.clone()),
                }
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
        report.mode_stats = self.collect_mode_stats(&report);
        report
    }

    /// Builds the per-slot reliability accounting: coverage intervals
    /// settled at the current cycle, checkpoint stalls from the fabric,
    /// and matched-detection latencies attributed per slot.
    fn collect_mode_stats(&self, report: &RunReport) -> Vec<ModeStats> {
        let now = self.fs.soc.now();
        let matched = report.matched_detections();
        self.mains
            .iter()
            .enumerate()
            .map(|(slot, &core)| {
                let (checked_cycles, unchecked_cycles) = self.coverage[slot].settled(now);
                let (acquires, releases) = self.pairing.as_ref().map_or((0, 0), |p| p.counts[slot]);
                let mut detections = 0;
                let mut detection_latency_total = 0;
                for m in matched.iter().filter(|m| m.main_core == core) {
                    detections += 1;
                    detection_latency_total += m.latency_cycles();
                }
                ModeStats {
                    core,
                    mode: self.modes[slot],
                    checked_cycles,
                    unchecked_cycles,
                    checkpoint_stall_cycles: self.fs.fabric.unit(core).cp_stall_cycles,
                    acquires,
                    releases,
                    detections,
                    detection_latency_total,
                }
            })
            .collect()
    }
}

/// Runs `program` unverified on a plain SoC and returns the finish cycle —
/// the baseline for slowdown measurements.
///
/// # Errors
///
/// Propagates configuration errors.
///
/// # Panics
///
/// Panics if the program does not finish within `max_instructions`.
pub fn baseline_cycles(
    program: &Program,
    max_instructions: u64,
) -> Result<u64, CacheGeometryError> {
    let mut soc = flexstep_sim::Soc::new(SocConfig::paper(1))?;
    soc.run_to_ecall(program, max_instructions);
    Ok(soc.now())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultTarget;
    use crate::scenario::{Scenario, Topology};
    use flexstep_isa::asm::Assembler;
    use flexstep_isa::XReg;

    fn store_loop(n: i64) -> Program {
        store_loop_in_window(n, 0)
    }

    /// `store_loop` in a private text/data window per main slot, so
    /// multi-main scenarios don't overwrite each other's text or race on
    /// one data address (interleaving-dependent loads would make final
    /// state depend on global timing).
    fn store_loop_in_window(n: i64, slot: u64) -> Program {
        let text = 0x1000_0000 + slot * 0x10_0000;
        let data = 0x2000_0000 + slot * 0x10_0000;
        let mut asm = Assembler::with_bases(format!("store_loop{slot}"), text, data);
        asm.li(XReg::A0, 0);
        asm.li(XReg::A1, n);
        asm.li(XReg::A2, data as i64);
        asm.li(XReg::A4, 0);
        asm.label("loop").unwrap();
        asm.add(XReg::A0, XReg::A0, XReg::A1);
        asm.sd(XReg::A2, XReg::A0, 0);
        asm.ld(XReg::A3, XReg::A2, 0);
        // Keep loaded data architecturally live so data faults propagate.
        asm.add(XReg::A4, XReg::A4, XReg::A3);
        asm.addi(XReg::A1, XReg::A1, -1);
        asm.bnez(XReg::A1, "loop");
        asm.ecall();
        asm.finish().unwrap()
    }

    /// The kernel of the replay-block goldens (`tests/replay_blocks.rs`):
    /// loads, stores, an atomic, a multiply, a conditional call and two
    /// branches per iteration, in a private text/data window per slot.
    fn amo_call_loop(slot: u64, iters: i64) -> Program {
        use flexstep_isa::inst::{AmoOp, AmoWidth, Inst, IntImmOp, IntOp};
        let text = 0x1000_0000 + slot * 0x10_0000;
        let data = 0x2000_0000 + slot * 0x10_0000;
        let mut asm = Assembler::with_bases(format!("blk{slot}"), text, data);
        let imm = |op, rd, rs1, imm| Inst::OpImm { op, rd, rs1, imm };
        asm.la(XReg::A2, "buf");
        asm.data_label("buf").unwrap();
        asm.data_zeros(128);
        asm.li(XReg::A0, iters);
        asm.li(XReg::A4, 0);
        asm.label("loop").unwrap();
        asm.push(imm(IntImmOp::Andi, XReg::T0, XReg::A0, 7));
        asm.push(imm(IntImmOp::Slli, XReg::T0, XReg::T0, 3));
        asm.add(XReg::T1, XReg::A2, XReg::T0);
        asm.sd(XReg::T1, XReg::A0, 16);
        asm.ld(XReg::A3, XReg::T1, 16);
        asm.add(XReg::A4, XReg::A4, XReg::A3);
        asm.mul(XReg::A5, XReg::A4, XReg::A0);
        asm.push(Inst::Amo {
            op: AmoOp::Add,
            width: AmoWidth::D,
            rd: XReg::A6,
            rs1: XReg::A2,
            rs2: XReg::A5,
        });
        asm.push(imm(IntImmOp::Andi, XReg::T2, XReg::A0, 3));
        asm.bnez(XReg::T2, "skip");
        asm.call("helper");
        asm.label("skip").unwrap();
        asm.addi(XReg::A0, XReg::A0, -1);
        asm.bnez(XReg::A0, "loop");
        asm.ecall();
        asm.label("helper").unwrap();
        asm.push(Inst::Op {
            op: IntOp::Xor,
            rd: XReg::A4,
            rs1: XReg::A4,
            rs2: XReg::A0,
        });
        asm.sd(XReg::A2, XReg::A4, 8);
        asm.ret();
        asm.finish().unwrap()
    }

    /// The scenario of the `blocks_triple_rollback` golden
    /// (`tests/replay_blocks.rs`): one main checked by two checkers,
    /// 400-instruction segments, two random shots, rollback.
    fn triple_rollback_golden(seed: u64) -> Scenario {
        let first = 2_000 + 1_700 * seed;
        Scenario::new(&amo_call_loop(0, 700 + 50 * seed as i64))
            .cores(3)
            .topology(Topology::Custom(vec![(0, vec![1, 2])]))
            .fabric(FabricConfig {
                segment_limit: 400,
                ..FabricConfig::paper()
            })
            .fault_plan(
                FaultPlan::none()
                    .with_seed(seed)
                    .then_random_at(first)
                    .then_random_at(first + 9_000),
            )
            .recovery(RecoveryPolicy::Rollback { max_retries: 3 })
    }

    #[test]
    fn triple_rollback_golden_is_the_single_stepped_run() {
        // `tests/replay_blocks.rs` holds blocks to this golden; the
        // reference that steps every instruction must give it too.
        let runs: Vec<String> = (1..=3)
            .map(|seed| {
                let mut run = triple_rollback_golden(seed).build().unwrap();
                run.single_step = true;
                let report = run.run_to_completion(u64::MAX);
                assert!(report.completed, "seed {seed}");
                report.to_json()
            })
            .collect();
        let golden =
            include_str!("../../../tests/fixtures/goldens/blocks_triple_rollback.report.json");
        assert!(
            format!("[\n{}\n]\n", runs.join(",\n")) == golden,
            "single-stepped reports differ from blocks_triple_rollback.report.json"
        );
    }

    fn dual(p: &Program, fabric: FabricConfig) -> VerifiedRun {
        Scenario::new(p).cores(2).fabric(fabric).build().unwrap()
    }

    /// A workload the verdict memo can actually serve: a stateless
    /// inner loop (every live register re-derived from immediates each
    /// iteration) sized so one outer iteration spans exactly two
    /// checking segments. The outer trip count lives in memory and is
    /// touched only in a 4-instruction epilogue, so one segment per
    /// iteration repeats bit-for-bit (hits from the second iteration
    /// on) while the other always misses. See DESIGN.md §13.
    fn memoizable_loop(outer: i64) -> Program {
        let mut asm = Assembler::new("memoizable_loop");
        asm.li(XReg::A2, 0x2000_0000);
        asm.li(XReg::T0, outer);
        asm.sd(XReg::A2, XReg::T0, 8);
        // Keep the prologue >= 4 instructions so the second segment
        // boundary of each outer iteration lands on or before the
        // counter load below (boundaries sit at 5000*k - prologue_len
        // instructions into the 10_000-instruction outer body).
        for _ in 0..4 {
            asm.nop();
        }
        asm.label("outer").unwrap();
        asm.li(XReg::T6, 0); // kill the loaded trip count: snapshots repeat
        asm.li(XReg::T0, 1998);
        asm.label("inner").unwrap();
        asm.li(XReg::A0, 77);
        asm.add(XReg::A1, XReg::A0, XReg::A0);
        asm.sd(XReg::A2, XReg::A1, 0);
        asm.addi(XReg::T0, XReg::T0, -1);
        asm.bnez(XReg::T0, "inner");
        // Pad the outer body to exactly 2 x segment_limit (5000)
        // instructions: 2 + 5*1998 + 4 nops + 4 = 10_000.
        for _ in 0..4 {
            asm.nop();
        }
        asm.ld(XReg::T6, XReg::A2, 8);
        asm.addi(XReg::T6, XReg::T6, -1);
        asm.sd(XReg::A2, XReg::T6, 8);
        asm.bnez(XReg::T6, "outer");
        asm.ecall();
        asm.finish().unwrap()
    }

    #[test]
    fn memo_serves_repeating_segments_and_reports_stay_bit_identical() {
        let p = memoizable_loop(8);
        let mut on = Scenario::new(&p).cores(2).build().unwrap();
        let r_on = on.run_to_completion(100_000_000);
        assert!(r_on.completed);
        assert_eq!(r_on.segments_failed, 0);
        let stats = &on.fabric().stats;
        assert!(
            stats.memo_hits >= 5,
            "repeating segments must be served from the memo: {} hits / {} misses",
            stats.memo_hits,
            stats.memo_misses
        );
        assert!(stats.memo_misses > 0, "first sighting is always a miss");

        let mut off = Scenario::new(&p).cores(2).memo(false).build().unwrap();
        let r_off = off.run_to_completion(100_000_000);
        assert_eq!(off.fabric().stats.memo_hits, 0);
        assert_eq!(
            r_on.to_json(),
            r_off.to_json(),
            "memo hits must replay the exact timing profile"
        );
    }

    #[test]
    fn blocks_match_single_stepping_bit_for_bit() {
        let fabric = FabricConfig {
            segment_limit: 600,
            ..FabricConfig::paper()
        };
        let shots = |seed: u64| {
            FaultPlan::none()
                .with_seed(seed)
                .then_random_at(2_500 + 700 * seed)
                .then_random_at(9_000 + 700 * seed)
        };
        let rollback = RecoveryPolicy::Rollback { max_retries: 3 };
        // Twelve mains in private windows 1 MiB apart, so every line of
        // theirs falls in one 8-way L2 set and warm-up evicts dirty
        // lines: the order mains reach the L2 shows in their timing.
        let twelve_mains = move |shots: Option<u64>| {
            let mut sc = Scenario::new(&store_loop_in_window(300, 0))
                .cores(16)
                .topology(Topology::SharedChecker { checkers: 4 })
                .fabric(fabric);
            for slot in 1..12 {
                sc = sc.program(&store_loop_in_window(300, slot));
            }
            if let Some(seed) = shots {
                let mut plan = FaultPlan::none().with_seed(seed);
                for channel in 0..12 {
                    plan = plan
                        .then_random_at(1_000 + 150 * channel as u64 + 50 * seed)
                        .on_channel(channel);
                }
                sc = sc.fault_plan(plan);
            }
            sc
        };
        type Shape = Box<dyn Fn(u64) -> Scenario>;
        let shapes: Vec<(&str, Shape)> = vec![
            (
                "memoized loop",
                Box::new(|seed| Scenario::new(&memoizable_loop(1 + seed as i64)).cores(2)),
            ),
            (
                "paired rollback",
                Box::new(move |seed| {
                    dual_scenario(fabric, 2_000 + 100 * seed as i64)
                        .fault_plan(shots(seed))
                        .recovery(rollback)
                }),
            ),
            (
                "triple detect",
                Box::new(move |seed| {
                    dual_scenario(fabric, 1_500)
                        .cores(3)
                        .topology(Topology::Custom(vec![(0, vec![1, 2])]))
                        .fault_plan(shots(seed))
                }),
            ),
            (
                "triple rollback",
                Box::new(move |seed| {
                    dual_scenario(fabric, 1_500)
                        .cores(3)
                        .topology(Topology::Custom(vec![(0, vec![1, 2])]))
                        .fault_plan(shots(seed))
                        .recovery(rollback)
                }),
            ),
            (
                "ooo branch outcomes",
                Box::new(move |seed| {
                    dual_scenario(fabric, 1_500)
                        .main_core_model(flexstep_sim::CoreModelKind::ooo())
                        .fault_plan(
                            FaultPlan::bit_flip_at(3_000 * seed, FaultTarget::BranchOutcome)
                                .with_seed(seed),
                        )
                }),
            ),
            (
                "ooo rollback",
                Box::new(move |seed| {
                    dual_scenario(fabric, 1_500)
                        .main_core_model(flexstep_sim::CoreModelKind::ooo())
                        .fault_plan(shots(seed))
                        .recovery(rollback)
                }),
            ),
            (
                "shared pool, pairing window",
                Box::new(move |seed| {
                    let mut sc = Scenario::new(&store_loop_in_window(900, 0))
                        .cores(4)
                        .topology(Topology::SharedChecker { checkers: 1 })
                        .fabric(fabric)
                        .pairing_schedule(PairingSchedule::new().window(
                            1,
                            1_500 * seed,
                            1_500 * seed + 2_000,
                        ))
                        .fault_plan(
                            FaultPlan::none()
                                .with_seed(seed)
                                .then_random_at(6_000)
                                .on_channel(2),
                        );
                    for slot in 1..3 {
                        sc = sc.program(&store_loop_in_window(700, slot));
                    }
                    sc
                }),
            ),
            (
                "triple rollback, atomics and calls",
                Box::new(triple_rollback_golden),
            ),
            ("twelve mains", Box::new(move |_| twelve_mains(None))),
            (
                "twelve mains, a shot each",
                Box::new(move |seed| twelve_mains(Some(seed))),
            ),
            (
                "twelve mains, a shot each, rollback",
                Box::new(move |seed| twelve_mains(Some(seed)).recovery(rollback)),
            ),
            (
                "pool hand-over under rollback",
                Box::new(move |seed| {
                    // With free checkpoints the pool checker, handed over
                    // to the queued main, replays that main's first
                    // segment and detects the early flip within one of
                    // the main's blocks: only the pool bound stops it.
                    Scenario::new(&store_loop_in_window(120, 0))
                        .program(&amo_call_loop(1, 400))
                        .cores(3)
                        .topology(Topology::SharedChecker { checkers: 1 })
                        .fabric(FabricConfig {
                            segment_limit: 400,
                            scp_apply_cycles: 0,
                            ecp_compare_cycles: 0,
                            checker_wait_cycles: 1,
                            ..FabricConfig::paper()
                        })
                        .fault_plan(
                            FaultPlan::bit_flip_at(20 + 60 * seed, FaultTarget::EntryData)
                                .on_channel(1)
                                .with_seed(seed),
                        )
                        .recovery(rollback)
                }),
            ),
        ];
        for (name, build) in &shapes {
            for seed in 1..=3 {
                let run = |single_step: bool| {
                    let mut run = build(seed).build().unwrap();
                    run.single_step = single_step;
                    let mut dispatches = 0u64;
                    while run.step_once() {
                        dispatches += 1;
                    }
                    let stats = run.fabric().stats;
                    (run.report().to_json(), stats, dispatches)
                };
                let (blocks, block_stats, block_dispatches) = run(false);
                let (steps, step_stats, step_dispatches) = run(true);
                assert_eq!(blocks, steps, "{name} seed {seed}: report");
                assert_eq!(block_stats, step_stats, "{name} seed {seed}: fabric stats");
                assert!(
                    block_dispatches < step_dispatches,
                    "{name} seed {seed}: blocks must replace dispatches \
                     ({block_dispatches} vs {step_dispatches})"
                );
            }
        }
    }

    /// A paired `store_loop` scenario on `fabric`.
    fn dual_scenario(fabric: FabricConfig, n: i64) -> Scenario {
        Scenario::new(&store_loop(n)).cores(2).fabric(fabric)
    }

    #[test]
    fn memo_capacity_zero_via_builder_disables_lookups() {
        let p = memoizable_loop(4);
        let mut run = Scenario::new(&p).cores(2).memo_capacity(0).build().unwrap();
        let r = run.run_to_completion(100_000_000);
        assert!(r.completed);
        assert_eq!(run.fabric().stats.memo_hits, 0);
        assert_eq!(run.fabric().stats.memo_misses, 0);
    }

    #[test]
    fn armed_fault_channel_is_never_served_from_the_memo() {
        // The shot never fires (armed far past the run), but while it
        // is pending its channel must take the full-replay path: a
        // cached verdict would mask the injection window.
        let p = memoizable_loop(8);
        let mut run = Scenario::new(&p)
            .cores(2)
            .fault_plan(FaultPlan::bit_flip_at(u64::MAX / 2, FaultTarget::EntryData))
            .build()
            .unwrap();
        let r = run.run_to_completion(100_000_000);
        assert!(r.completed);
        assert_eq!(r.shots_expired, 1);
        let stats = &run.fabric().stats;
        assert_eq!(
            stats.memo_hits, 0,
            "a channel with an armed shot must never hit the memo"
        );
        assert_eq!(stats.memo_misses, 0, "blocked applies are not misses");
    }

    #[test]
    fn dual_core_clean_run_verifies() {
        let p = store_loop(2000);
        let mut run = dual(&p, FabricConfig::paper());
        let r = run.run_to_completion(10_000_000);
        assert!(r.completed);
        assert!(r.segments_checked >= 2, "10k instructions => >=2 segments");
        assert_eq!(r.segments_failed, 0);
        assert!(r.detections.is_empty());
        assert!(r.drain_cycle >= r.main_finish_cycle);
        assert_eq!(r.per_main.len(), 1);
        assert!(r.arbiters.is_empty());
    }

    #[test]
    fn triple_core_clean_run_verifies_twice() {
        let p = store_loop(500);
        let mut dual_run = dual(&p, FabricConfig::paper());
        let rd = dual_run.run_to_completion(10_000_000);
        let mut triple = Scenario::new(&p)
            .cores(3)
            .topology(Topology::Custom(vec![(0, vec![1, 2])]))
            .build()
            .unwrap();
        let rt = triple.run_to_completion(10_000_000);
        assert!(rt.completed);
        assert_eq!(rt.segments_failed, 0);
        assert_eq!(
            rt.segments_checked,
            2 * rd.segments_checked,
            "each segment is verified by both checkers"
        );
    }

    #[test]
    fn slowdown_is_small_but_nonzero() {
        let p = store_loop(3000);
        let base = baseline_cycles(&p, 10_000_000).unwrap();
        let mut run = dual(&p, FabricConfig::paper());
        let r = run.run_to_completion(50_000_000);
        assert!(r.completed);
        let slowdown = r.main_finish_cycle as f64 / base as f64;
        assert!(
            slowdown >= 1.0,
            "verification cannot speed things up: {slowdown}"
        );
        assert!(slowdown < 1.25, "slowdown should be modest: {slowdown}");
    }

    #[test]
    fn fault_plan_faults_are_detected_with_high_coverage() {
        let p = store_loop(5000);
        let mut injected = 0;
        let mut detected = 0;
        for seed in 0..12u64 {
            let mut run = Scenario::new(&p)
                .cores(2)
                .fault_plan(FaultPlan::random_with_seed(20_000, seed))
                .build()
                .unwrap();
            let r = run.run_to_completion(50_000_000);
            if r.injections.is_empty() {
                continue;
            }
            injected += 1;
            if !r.detections.is_empty() || r.segments_failed > 0 {
                detected += 1;
            }
        }
        assert!(
            injected >= 10,
            "campaign must inject in most runs: {injected}"
        );
        // A small number of flips can be architecturally masked (dead
        // registers overwritten before the ECP); coverage must still be
        // high, mirroring the paper's >99.9% claim at scale.
        assert!(
            detected * 10 >= injected * 9,
            "detected {detected} of {injected} injected faults"
        );
    }

    #[test]
    fn rollback_recovers_detected_fault_and_converges() {
        let p = store_loop(4000);
        // Golden: fault-free Detect run of the same program.
        let mut golden = dual(&p, FabricConfig::paper());
        let rg = golden.run_to_completion(50_000_000);
        assert!(rg.completed);
        let golden_state = golden.soc().core(0).state.snapshot();
        let golden_word = golden.soc().mem.phys().read_u64(0x2000_0000);

        let mut run = Scenario::new(&p)
            .cores(2)
            .fault_plan(FaultPlan::bit_flip_at(20_000, FaultTarget::EntryData).with_seed(3))
            .recovery(RecoveryPolicy::Rollback { max_retries: 3 })
            .build()
            .unwrap();
        let r = run.run_to_completion(50_000_000);
        assert!(r.completed);
        assert!(
            !r.detections.is_empty(),
            "the injected flip must still be detected under Rollback"
        );
        let m = &r.per_main[0];
        assert!(m.recoveries >= 1, "detection must trigger a rollback");
        assert_eq!(m.unrecovered, 0, "one transient flip recovers in one retry");
        assert_eq!(
            m.recovery_latency_cycles.len(),
            1,
            "one detect -> verified-again window"
        );
        assert!(m.recovery_latency_cycles[0] > 0);
        assert!(m.wasted_cycles > 0, "rollback discards forward progress");
        assert!(r.warnings.is_empty());
        assert!(
            m.retired > rg.per_main[0].retired,
            "re-execution retires the segment tail twice"
        );
        // Convergence: the recovered run ends in the golden architectural
        // state (the fault lived only in the in-flight checking stream).
        assert_eq!(run.soc().core(0).state.snapshot(), golden_state);
        assert_eq!(run.soc().mem.phys().read_u64(0x2000_0000), golden_word);
    }

    #[test]
    fn rollback_reports_stay_bit_identical_memo_on_and_off() {
        // Satellite pin: the retried stream must never be served a stale
        // memo verdict — a hit there would warp the recovery timeline and
        // split these reports.
        let p = memoizable_loop(8);
        let plan = || FaultPlan::bit_flip_at(20_000, FaultTarget::EntryData).with_seed(3);
        let policy = RecoveryPolicy::Rollback { max_retries: 3 };
        let mut on = Scenario::new(&p)
            .cores(2)
            .fault_plan(plan())
            .recovery(policy)
            .build()
            .unwrap();
        let r_on = on.run_to_completion(100_000_000);
        assert!(r_on.completed);
        let mut off = Scenario::new(&p)
            .cores(2)
            .fault_plan(plan())
            .recovery(policy)
            .memo(false)
            .build()
            .unwrap();
        let r_off = off.run_to_completion(100_000_000);
        assert_eq!(
            r_on.to_json(),
            r_off.to_json(),
            "memo hits must not perturb rollback recovery"
        );
        if !r_on.injections.is_empty() {
            assert!(r_on.per_main[0].recoveries >= 1);
        }
    }

    #[test]
    fn killing_a_pool_checker_repairs_its_mains_onto_the_survivor() {
        let ps: Vec<Program> = (0..4).map(|i| store_loop_in_window(2500, i)).collect();
        // 4 mains, 2 shared checkers: cores 4 and 5 each arbitrate two
        // mains. Killing checker 0 (core 4) orphans mains 0 and 2.
        let build = |kill: bool| {
            let mut s = Scenario::new(&ps[0])
                .program(&ps[1])
                .program(&ps[2])
                .program(&ps[3])
                .cores(6)
                .topology(Topology::SharedChecker { checkers: 2 })
                .recovery(RecoveryPolicy::Rollback { max_retries: 3 });
            if kill {
                // Early enough that both of checker 0's mains (granted +
                // queued) are still live orphans.
                s = s.fault_plan(FaultPlan::kill_checker_at(5_000).on_checker(0));
            }
            s.build().unwrap()
        };
        let mut golden = build(false);
        let rg = golden.run_to_completion(200_000_000);
        assert!(rg.completed);

        let mut run = build(true);
        let r = run.run_to_completion(200_000_000);
        assert!(r.completed, "orphaned mains must re-pair and finish");
        assert_eq!(r.checkers_lost, 1);
        assert!(
            r.warnings.is_empty(),
            "a survivor exists; nothing degrades: {:?}",
            r.warnings
        );
        assert_eq!(
            r.repair_latency_cycles.len(),
            2,
            "both orphans re-pair onto the surviving checker"
        );
        assert_eq!(r.segments_failed, 0);
        for m in &r.per_main {
            assert!(m.completed);
        }
        for main in 0..4 {
            assert_eq!(
                run.soc().core(main).state.snapshot(),
                golden.soc().core(main).state.snapshot(),
                "main {main} must end in the golden state"
            );
        }
    }

    #[test]
    fn killing_the_last_checker_degrades_to_unchecked_execution() {
        let p = store_loop(3000);
        let mut golden = dual(&p, FabricConfig::paper());
        let rg = golden.run_to_completion(50_000_000);
        let golden_state = golden.soc().core(0).state.snapshot();
        assert!(rg.completed);

        // Default Detect policy: degradation must not require Rollback.
        let mut run = Scenario::new(&p)
            .cores(2)
            .fault_plan(FaultPlan::kill_checker_at(20_000).on_checker(0))
            .build()
            .unwrap();
        let r = run.run_to_completion(50_000_000);
        assert!(r.completed, "an unchecked main still finishes");
        assert_eq!(r.checkers_lost, 1);
        assert!(
            r.warnings
                .iter()
                .any(|w| matches!(w, RunWarning::UncheckedExecution { main: 0, .. })),
            "losing every checker must raise the typed warning: {:?}",
            r.warnings
        );
        assert!(r.detections.is_empty());
        assert_eq!(run.soc().core(0).state.snapshot(), golden_state);
        assert!(
            r.segments_checked < rg.segments_checked,
            "the tail of the run goes unverified"
        );
    }

    #[test]
    fn detect_policy_reports_new_fields_as_zero() {
        let p = store_loop(1500);
        let mut run = dual(&p, FabricConfig::paper());
        let r = run.run_to_completion(50_000_000);
        assert!(r.completed);
        assert_eq!(r.checkers_lost, 0);
        assert!(r.repair_latency_cycles.is_empty());
        assert!(r.warnings.is_empty());
        let m = &r.per_main[0];
        assert_eq!(m.recoveries, 0);
        assert_eq!(m.unrecovered, 0);
        assert_eq!(m.wasted_cycles, 0);
        assert!(m.recovery_latency_cycles.is_empty());
        let json = r.to_json();
        for key in [
            "\"recoveries\": 0",
            "\"checkers_lost\": 0",
            "\"repair_latency_cycles\": []",
            "\"warnings\": []",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn check_fail_fires_before_the_matching_detection() {
        // `RunEvent::CheckFail` promises that the matching detection
        // follows immediately. Pin the emission order — every Detection
        // must be immediately preceded by the CheckFail for the same
        // checker and segment.
        let p = store_loop(4000);
        let mut run = Scenario::new(&p)
            .cores(2)
            .fault_plan(FaultPlan::bit_flip_at(20_000, FaultTarget::EntryData).with_seed(3))
            .record_events()
            .build()
            .unwrap();
        let r = run.run_to_completion(50_000_000);
        assert!(!r.detections.is_empty(), "the flip must be caught");
        let events = run.recording().expect("recording enabled").events();
        let mut detections_seen = 0;
        for (i, e) in events.iter().enumerate() {
            if let RunEvent::Detection(d) = e {
                detections_seen += 1;
                assert!(i > 0, "a detection can never be the first event");
                assert!(
                    matches!(
                        &events[i - 1],
                        RunEvent::CheckFail { checker, result }
                            if *checker == d.checker_core && result.seq == d.segment_seq
                    ),
                    "CheckFail must immediately precede Detection \
                     for the same segment; got {:?} before {:?}",
                    events[i - 1],
                    e
                );
            }
        }
        assert!(detections_seen >= 1);
    }

    #[test]
    fn check_start_opens_every_verdict_window() {
        // Every pass/fail verdict must have been preceded by a
        // CheckStart for the same checker and segment — the pairing the
        // trace exporter turns into checker-occupancy spans.
        let p = store_loop(2000);
        let mut run = Scenario::new(&p).cores(2).record_events().build().unwrap();
        let r = run.run_to_completion(10_000_000);
        assert!(r.completed);
        let events = run.recording().expect("recording enabled").events();
        let mut open: Option<(usize, u64)> = None;
        let mut verdicts = 0;
        for e in events {
            match e {
                RunEvent::CheckStart { checker, seq, .. } => {
                    assert_eq!(open, None, "a checker cannot start two replays at once");
                    open = Some((*checker, *seq));
                }
                RunEvent::CheckPass { checker, result }
                | RunEvent::CheckFail { checker, result } => {
                    assert_eq!(
                        open.take(),
                        Some((*checker, result.seq)),
                        "verdict without a matching CheckStart"
                    );
                    verdicts += 1;
                }
                _ => {}
            }
        }
        assert_eq!(open, None, "a completed run leaves no replay window open");
        assert_eq!(verdicts, r.segments_checked);
    }

    #[test]
    fn expired_shots_notify_observers() {
        // Both expiry paths — after completion and mid-run — reach every
        // sink: the recording and the trace alike.
        let p = store_loop(300);
        let after_completion = Scenario::new(&p)
            .cores(2)
            .fault_plan(FaultPlan::random_with_seed(u64::MAX / 2, 1));
        for scenario in [after_completion, shot_on_drained_stream()] {
            let mut run = scenario
                .record_events()
                .trace_to(std::env::temp_dir().join("flexstep_expiry_unwritten.json"))
                .build()
                .unwrap();
            let r = run.run_to_completion(50_000_000);
            assert_eq!(r.shots_expired, 1);
            let recorded = run
                .recording()
                .expect("recording enabled")
                .events()
                .iter()
                .filter(|e| matches!(e, RunEvent::ShotExpired { main: 0, .. }))
                .count();
            assert_eq!(recorded, 1, "one recorded expiry for the one shot");
            let traced = run
                .trace()
                .expect("trace enabled")
                .to_chrome_json()
                .matches("\"name\": \"shot expired\"")
                .count();
            assert_eq!(traced, 1, "one traced expiry for the one shot");
        }
    }

    #[test]
    fn shared_checker_grants_are_observable() {
        use flexstep_isa::asm::Assembler;
        let job = |slot: u64, iters: i64| {
            let mut asm = Assembler::with_bases(
                format!("job{slot}"),
                0x1000_0000 + slot * 0x10_0000,
                0x2000_0000 + slot * 0x10_0000,
            );
            asm.li(XReg::A0, iters);
            asm.li(XReg::A1, (0x2000_0000 + slot * 0x10_0000) as i64);
            asm.label("l").unwrap();
            asm.sd(XReg::A1, XReg::A0, 0);
            asm.addi(XReg::A0, XReg::A0, -1);
            asm.bnez(XReg::A0, "l");
            asm.ecall();
            asm.finish().unwrap()
        };
        let mut run = Scenario::new(&job(0, 1500))
            .program(&job(1, 1500))
            .cores(3)
            .topology(Topology::SharedChecker { checkers: 1 })
            .record_events()
            .build()
            .unwrap();
        let r = run.run_to_completion(50_000_000);
        assert!(r.completed);
        assert_eq!(r.arbiters[0].switches, 1, "one hand-over");
        let grants: Vec<(usize, usize, u64)> = run
            .recording()
            .expect("recording enabled")
            .events()
            .iter()
            .filter_map(|e| match *e {
                RunEvent::CheckerGranted {
                    checker,
                    main,
                    cycle,
                } => Some((checker, main, cycle)),
                _ => None,
            })
            .collect();
        // Initial grant to main 0 at cycle 0, then the hand-over to
        // main 1 once main 0 released and drained.
        assert_eq!(grants.len(), 2, "{grants:?}");
        assert_eq!(grants[0], (2, 0, 0));
        assert_eq!(grants[1].0, 2);
        assert_eq!(grants[1].1, 1);
        assert!(grants[1].2 > 0);
    }

    #[test]
    fn runs_cross_threads() {
        // `VerifiedRun: Send` is statically asserted above; exercise it
        // for real — build on this thread, run to completion on another.
        let p = store_loop(800);
        let run = Scenario::new(&p).cores(2).record_events().build().unwrap();
        let baseline = dual(&p, FabricConfig::paper()).run_to_completion(10_000_000);
        let (report, run) = std::thread::spawn(move || {
            let mut run = run;
            let r = run.run_to_completion(10_000_000);
            (r, run)
        })
        .join()
        .unwrap();
        assert_eq!(report, baseline, "cross-thread run is bit-identical");
        let recording = run.recording().expect("recording enabled");
        assert!(
            !recording.events().is_empty(),
            "the recording came back with the run"
        );
    }

    #[test]
    fn observers_see_the_whole_protocol_without_perturbing_it() {
        let p = store_loop(2000);
        let mut plain = dual(&p, FabricConfig::paper());
        let rp = plain.run_to_completion(10_000_000);

        let mut run = Scenario::new(&p)
            .cores(2)
            .observer(RecordingObserver::new())
            .build()
            .unwrap();
        let r = run.run_to_completion(10_000_000);
        assert_eq!(rp, r, "observers must not perturb the run");
    }

    #[test]
    fn targeted_fault_plan_lands_and_reports() {
        let p = store_loop(4000);
        let mut run = Scenario::new(&p)
            .cores(2)
            .fault_plan(FaultPlan::bit_flip_at(20_000, FaultTarget::EntryData).with_seed(3))
            .build()
            .unwrap();
        let r = run.run_to_completion(50_000_000);
        assert_eq!(r.injections.len(), 1);
        let inj = &r.injections[0];
        assert_eq!(inj.target, FaultTarget::EntryData);
        assert!(inj.at_cycle >= 20_000);
        assert!(
            !r.detections.is_empty() || r.segments_failed > 0,
            "a data flip in a store-heavy loop must be caught"
        );
    }

    #[test]
    fn matched_detections_consume_injections_one_to_one() {
        use crate::detect::MismatchKind;
        use crate::fault::FaultTarget;
        let det = |main: usize, checker: usize, at: u64| DetectionEvent {
            main_core: main,
            checker_core: checker,
            segment_seq: 0,
            tag: 0,
            kind: MismatchKind::LogUnderrun,
            detected_at: at,
        };
        let inj = |main: usize, at: u64| crate::Injection {
            main_core: main,
            target: FaultTarget::EntryData,
            bits: vec![1],
            at_cycle: at,
        };
        let mut report = RunReport {
            completed: true,
            main_finish_cycle: 0,
            drain_cycle: 0,
            retired: 0,
            segments_checked: 0,
            segments_failed: 0,
            // Two detections follow the single injection on main 0; the
            // latest-preceding rule would match both.
            detections: vec![det(0, 2, 5_000), det(0, 2, 9_000), det(1, 3, 800)],
            backpressure_stalls: 0,
            engine_steps: 0,
            per_main: vec![],
            arbiters: vec![],
            injections: vec![inj(0, 1_000), inj(1, 2_000)],
            shots_armed: 2,
            shots_expired: 0,
            checkers_lost: 0,
            repair_latency_cycles: vec![],
            warnings: vec![],
            mode_stats: vec![],
        };
        let pairs = report.matched_detections();
        assert_eq!(
            pairs,
            vec![MatchedDetection {
                main_core: 0,
                checker_core: 2,
                injected_at: 1_000,
                detected_at: 5_000,
            }],
            "one injection is consumed by at most one detection; the \
             detection on main 1 precedes its injection and stays unmatched"
        );
        assert!(pairs.len() <= report.injections.len());

        // Dense same-main campaign: FIFO consumption attributes each
        // detection to the earliest live shot, not the newest.
        report.injections = vec![inj(0, 1_000), inj(0, 4_900)];
        report.detections = vec![det(0, 2, 5_000), det(0, 2, 6_000)];
        let pairs = report.matched_detections();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].injected_at, 1_000);
        assert_eq!(pairs[0].latency_cycles(), 4_000);
        assert_eq!(pairs[1].injected_at, 4_900);
        assert_eq!(pairs[1].latency_cycles(), 1_100);
    }

    #[test]
    fn shot_armed_after_completion_expires_and_is_counted() {
        let p = store_loop(300);
        let mut run = Scenario::new(&p)
            .cores(2)
            .fault_plan(FaultPlan::random_with_seed(u64::MAX / 2, 1))
            .build()
            .unwrap();
        let r = run.run_to_completion(50_000_000);
        assert!(r.completed);
        assert!(
            r.injections.is_empty(),
            "an expired shot must never appear in injections: {:?}",
            r.injections
        );
        assert_eq!(r.shots_armed, 1);
        assert_eq!(r.shots_expired, 1);
        assert_eq!(r.segments_failed, 0);
    }

    #[test]
    fn expiry_is_finalized_even_when_the_step_budget_ends_the_run() {
        // With a budget of exactly the steps the run needs, the loop in
        // run_to_completion exits on the bound without a final
        // step_once that would observe completion — report() must still
        // balance the shot accounts.
        let p = store_loop(300);
        let build = || {
            Scenario::new(&p)
                .cores(2)
                .fault_plan(FaultPlan::random_with_seed(u64::MAX / 2, 1))
                .build()
                .unwrap()
        };
        let steps = build().run_to_completion(u64::MAX).engine_steps;
        let mut run = build();
        let r = run.run_to_completion(steps);
        assert!(r.completed);
        assert!(r.injections.is_empty());
        assert_eq!(r.shots_armed, 1);
        assert_eq!(r.shots_expired, 1, "report() must finalize expiry");
    }

    /// Main 0 (slot 0) is short: it finishes and its stream drains
    /// while main 1 (slot 1) is still running. A shot armed on channel 0
    /// after that drain must expire through the live `fire_due` path —
    /// the run is NOT complete when it arms.
    fn shot_on_drained_stream() -> Scenario {
        let job = |name: &str, text: u64, data: u64, iters: i64| {
            let mut asm = Assembler::with_bases(name, text, data);
            asm.li(XReg::A0, iters);
            asm.li(XReg::A2, data as i64);
            asm.label("l").unwrap();
            asm.sd(XReg::A2, XReg::A0, 0);
            asm.addi(XReg::A0, XReg::A0, -1);
            asm.bnez(XReg::A0, "l");
            asm.ecall();
            asm.finish().unwrap()
        };
        Scenario::new(&job("short", 0x1000_0000, 0x2000_0000, 100))
            .program(&job("long", 0x1100_0000, 0x2100_0000, 8_000))
            .cores(4)
            .topology(Topology::PairedLockstep)
            .fault_plan(FaultPlan::none().then_random_at(10_000).on_channel(0))
    }

    #[test]
    fn shot_on_drained_stream_expires_mid_run() {
        let mut run = shot_on_drained_stream().build().unwrap();
        // The shot arms at 10k cycles: main 0 (~100 iterations) drains
        // long before, main 1 (~8k iterations) is still producing.
        let r = run.run_to_completion(50_000_000);
        assert!(r.completed);
        assert!(
            r.per_main[0].finish_cycle < 10_000,
            "short main must finish before the shot arms: {}",
            r.per_main[0].finish_cycle
        );
        assert!(
            r.per_main[1].finish_cycle > 10_000,
            "long main must outlive the shot: {}",
            r.per_main[1].finish_cycle
        );
        assert!(r.injections.is_empty());
        assert_eq!(r.shots_armed, 1);
        assert_eq!(r.shots_expired, 1);
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let p = store_loop(300);
        let mut run = dual(&p, FabricConfig::paper());
        let r = run.run_to_completion(10_000_000);
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"segments_checked\": "));
        assert!(json.contains("\"per_main\": ["));
    }
}
