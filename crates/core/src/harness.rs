//! The verified-execution run harness.
//!
//! [`VerifiedRun`] drives any [`Scenario`](crate::Scenario)-built platform — from the
//! paper's dual-core (Fig. 4) and triple-core (Fig. 6) single-workload
//! configurations up to many-core SoCs with arbitrated shared checkers
//! (Fig. 8-style) — through its guest programs without a full OS: it
//! interleaves ready cores, executes the scenario's fault plan, feeds
//! observers, and produces a [`RunReport`]. Construct runs with
//! [`Scenario`](crate::Scenario).
//!
//! This module holds the run, its build and the dispatch loop
//! ([`VerifiedRun::step_once`]). Three children own the rest, each with
//! its state private behind one method per transition: `report` (the
//! [`RunReport`] and its JSON), `recovery` (rollback and checker loss)
//! and `policy` (coverage accounting, dynamic pairing, the lockstep wait
//! gate and per-slot [`ModeStats`]).

mod policy;
mod recovery;
mod report;

pub use report::{MainReport, MatchedDetection, ModeStats, RunReport, RunWarning};

use crate::checker::{CheckPhase, CheckerState};
use crate::detect::SegmentResult;
use crate::engine::{EngineStep, FlexSoc};
use crate::fabric::{Fabric, FabricConfig};
use crate::fault::Injection;
use crate::scenario::{
    Binding, FaultDriver, FaultPlan, RecoveryPolicy, ResolvedTopology, ScenarioError,
};
use crate::share::{ArbiterStats, CheckerArbiter};
use crate::sink::{Observer, RecordingObserver, RunEvent};
use crate::trace::TraceObserver;
use flexstep_isa::asm::Program;
use flexstep_mem::cache::CacheGeometryError;
use flexstep_sim::{
    Clock, PairingSchedule, PrivMode, ReliabilityMode, Soc, SocConfig, StepKind, TrapCause,
};
use policy::{Coverage, PairingRuntime, LOCKSTEP_WAIT_QUANTUM};
use recovery::RecoveryState;

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
        // correctness (and the verdict memo's recorded charges) assume
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
                for &m in &mains {
                    fs.soc.mem.enable_journal(m);
                }
                Some(RecoveryState::new(max_retries, &binding))
            }
        };
        let num_checkers = checkers.len();
        let coverage = modes
            .iter()
            .map(|m| Coverage::new(m.is_checked()))
            .collect();
        let pairing = pairing.map(|schedule| PairingRuntime::new(&schedule, n));
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
        for (checker, main) in grants {
            run.granted(checker, main, 0);
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

    /// An arbiter connected `checker` to `main`: wakes the checker (it
    /// may have parked while its queue was empty), closes a pending
    /// kill → re-grant repair window, and reports the grant. Every
    /// grant — at build, on a hand-over, on an acquire or rollback and
    /// on a re-pair — goes through here.
    fn granted(&mut self, checker: usize, main: usize, now: u64) {
        self.fs.soc.core_mut(checker).unpark();
        if let Some(killed_at) = self.slot_of[main].and_then(|s| self.repair_pending[s].take()) {
            self.repair_latencies.push(now.saturating_sub(killed_at));
        }
        self.emit(RunEvent::CheckerGranted {
            checker,
            main,
            cycle: now,
        });
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
            .all(|&m| self.fs.fabric.unit(m).fifo.is_empty())
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
            self.shot_expired(channel, now);
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
            for slot in rec.blocked_slots() {
                let main = self.mains[slot];
                self.fs.fabric.unit_mut(main).memo_blocked = true;
            }
        }
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
    /// stream back under the other. A checker serves a memo hit only when
    /// the hit's whole segment ends before the horizon.
    fn horizon(&self, core: usize) -> u64 {
        #[cfg(test)]
        if self.single_step {
            return 0;
        }
        let pairing = self
            .pairing
            .as_ref()
            .map_or(u64::MAX, PairingRuntime::next_cycle);
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
        for (checker, main) in grants {
            let now = self.fs.soc.now();
            self.granted(checker, main, now);
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
                self.shot_expired(channel, now);
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
                    self.coverage[slot].freeze(now);
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
    use crate::detect::DetectionEvent;
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
            "memo hits must charge the exact replay timing"
        );
    }

    #[test]
    fn kill_shots_inside_a_memo_hit_leave_reports_unchanged() {
        // Each kill cycle lands inside a segment the second checker of a
        // 1:2 channel would serve from the memo: the hit must replay
        // for real up to the kill, as memo-off replay blocks do.
        let p = memoizable_loop(8);
        for kill_at in [21_078, 22_091, 23_104, 24_117, 25_130] {
            let run = |memo: bool| {
                let mut run = Scenario::new(&p)
                    .cores(3)
                    .topology(Topology::Custom(vec![(0, vec![1, 2])]))
                    .fault_plan(FaultPlan::kill_checker_at(kill_at).on_checker(1))
                    .memo(memo)
                    .build()
                    .unwrap();
                let report = run.run_to_completion(100_000_000);
                assert!(report.completed);
                report
            };
            assert_eq!(run(true), run(false), "kill at cycle {kill_at}");
        }
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
        let mut run = Scenario::new(&p).cores(2).memo(false).build().unwrap();
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
