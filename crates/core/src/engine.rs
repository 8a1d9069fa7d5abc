//! The FlexStep execution engine: couples the [`Fabric`] to the simulated
//! [`Soc`].
//!
//! - **Main cores** step normally; the engine captures SCPs at segment
//!   open, logs every user-mode memory access into the core's FIFO,
//!   closes segments on the count limit or privilege switch, and stalls
//!   the core (backpressure) when the FIFO cannot accept the worst-case
//!   burst of the next instruction.
//! - **Checker cores** run the replay loop of Al. 2: wait for an SCP,
//!   apply it, replay with the log-backed port, and compare the ECP.
//!
//! The checker only advances when its stream is non-empty: each buffered
//! packet is evidence of how far the main core got, so the checker can
//! never run past an asynchronous segment boundary (e.g. a preemption on
//! the main core) it has not yet been told about. On an empty stream the
//! checker stalls — this conservative rule is what makes asynchronous,
//! preemptive checking safe.

use crate::checker::{CheckPhase, CheckerState, ReplayPort};
use crate::detect::{DetectionEvent, MismatchKind, SegmentResult};
use crate::fabric::{CoreAttr, CoreUnit, Fabric, FabricConfig, FlexError};
use crate::memo::Recording;
use crate::packet::{hash_snapshot, log_entries, Packet, HASH_SEED};
use crate::rcpm::SegmentClose;
use flexstep_isa::inst::{FlexOp, InstClass};
use flexstep_isa::XReg;
use flexstep_mem::cache::CacheGeometryError;
use flexstep_sim::{
    DataPort, PrivMode, ReplayControl, Retired, Soc, SocConfig, StepKind, StepResult, BLOCK_INSTS,
};

/// Outcome of one engine step on a core.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineStep {
    /// The core stepped; the underlying result (traps, `ecall`s, timer
    /// interrupts and custom instructions are the OS's to handle).
    Core(StepKind),
    /// A main core retired a block of up to [`BLOCK_INSTS`] user-mode
    /// instructions, branches and jumps included, in one dispatch
    /// ([`Soc::run_main_block`]), logging every access and forwarded
    /// branch outcome exactly as the equivalent sequence of
    /// [`EngineStep::Core`] retirements would. Blocks never open or
    /// close a segment and never cross a segment boundary.
    MainBlock {
        /// Instructions retired in the block (≥ 1).
        retired: u64,
    },
    /// A main core opened a segment: SCP extracted and pushed, the
    /// extraction stall charged. The first instruction of the segment
    /// executes on the next step — charged from the same post-stall
    /// ready time it always was, but as its own dispatch, so the global
    /// clock never leaps past other cores' ready times mid-step (which
    /// would make replay timing depend on dispatch interleaving).
    SegmentOpened,
    /// A main core stalled on FIFO backpressure.
    Backpressured,
    /// A checker stalled on an empty stream.
    CheckerWaiting,
    /// A checker replayed a block of instructions in one dispatch, or
    /// charged a whole memo-hit segment at once — the timing and final
    /// state are those of the equivalent run of
    /// [`EngineStep::CheckerProgress`] steps.
    CheckerBlock {
        /// Instructions replayed or charged (≥ 1).
        replayed: u64,
    },
    /// A checker applied an SCP and entered replay.
    CheckerApplied {
        /// The applied segment's sequence number.
        seq: u64,
    },
    /// A checker replayed one instruction (or consumed a control packet).
    CheckerProgress,
    /// A checker finished a segment cleanly.
    CheckerSegmentDone(SegmentResult),
    /// A checker detected an error.
    CheckerDetected(DetectionEvent),
    /// A checker was interrupted (timer) — the OS may preempt it.
    CheckerInterrupted(StepKind),
    /// The core is idle/parked.
    Idle,
}

/// The FlexStep platform: simulator plus fabric.
///
/// See the crate-level documentation for a full worked example.
#[derive(Debug)]
pub struct FlexSoc {
    /// The underlying SoC.
    pub soc: Soc,
    /// The FlexStep hardware state.
    pub fabric: Fabric,
    /// No instruction of a main block is dispatched at or after this
    /// cycle. The harness sets it before every step (see
    /// `VerifiedRun::horizon`); the default `u64::MAX` leaves main
    /// blocks unbounded for every other caller.
    pub(crate) main_horizon: u64,
    /// No instruction of a checker replay block is dispatched at or
    /// after this cycle, and a memo hit is served only when its segment
    /// ends before it. The harness sets it before every step; the
    /// default 0 keeps replay single-stepped, serving no hit, for every
    /// other caller.
    pub(crate) replay_horizon: u64,
}

impl FlexSoc {
    /// Builds a FlexStep platform.
    ///
    /// # Errors
    ///
    /// Returns [`CacheGeometryError`] for invalid memory geometry.
    pub fn new(soc: SocConfig, fabric: FabricConfig) -> Result<Self, CacheGeometryError> {
        Ok(FlexSoc {
            fabric: Fabric::new(soc.num_cores, fabric),
            soc: Soc::new(soc)?,
            main_horizon: u64::MAX,
            replay_horizon: 0,
        })
    }

    // ----- Tab. I custom-ISA operations ------------------------------------

    /// `G.IDs.contain`.
    ///
    /// # Errors
    ///
    /// See [`Fabric::ids_contain`].
    pub fn op_g_ids_contain(&self, core: usize) -> Result<CoreAttr, FlexError> {
        self.fabric.ids_contain(core)
    }

    /// `G.Configure`.
    ///
    /// # Errors
    ///
    /// See [`Fabric::configure`].
    pub fn op_g_configure(&mut self, mains: &[usize], checkers: &[usize]) -> Result<(), FlexError> {
        self.fabric.configure(mains, checkers)
    }

    /// `M.associate`.
    ///
    /// # Errors
    ///
    /// See [`Fabric::associate`].
    pub fn op_m_associate(&mut self, main: usize, checkers: &[usize]) -> Result<(), FlexError> {
        self.fabric.associate(main, checkers)
    }

    /// `M.check`.
    ///
    /// # Errors
    ///
    /// See [`Fabric::set_check`].
    pub fn op_m_check(&mut self, main: usize, enable: bool) -> Result<(), FlexError> {
        self.fabric.set_check(main, enable)
    }

    /// `C.check_state`.
    ///
    /// # Errors
    ///
    /// See [`Fabric::set_check_state`].
    pub fn op_c_check_state(&mut self, checker: usize, busy: bool) -> Result<(), FlexError> {
        self.fabric.set_check_state(checker, busy)
    }

    /// `C.record`: snapshots the checker core's current context into its
    /// ASS (Al. 2 line 4).
    ///
    /// # Errors
    ///
    /// Requires a checker core.
    pub fn op_c_record(&mut self, checker: usize) -> Result<(), FlexError> {
        if self.fabric.ids_contain(checker)? != CoreAttr::Checker {
            return Err(FlexError::NotChecker { core: checker });
        }
        let snap = self.soc.core(checker).state.snapshot();
        self.fabric.unit_mut(checker).checker.ass.record(snap);
        Ok(())
    }

    /// `C.result`: takes the oldest pending segment verdict.
    ///
    /// # Errors
    ///
    /// Requires a checker core.
    pub fn op_c_result(&mut self, checker: usize) -> Result<Option<SegmentResult>, FlexError> {
        if self.fabric.ids_contain(checker)? != CoreAttr::Checker {
            return Err(FlexError::NotChecker { core: checker });
        }
        Ok(self.fabric.unit_mut(checker).checker.take_result())
    }

    /// Executes a guest-issued FlexStep custom instruction (surfaced by
    /// the simulator as [`StepKind::Flex`]) and completes it on the core.
    ///
    /// # Errors
    ///
    /// Propagates the underlying operation's [`FlexError`]; on error the
    /// instruction completes with `rd = u64::MAX` (hardware error code)
    /// and the error is also returned for OS visibility.
    pub fn exec_flex(
        &mut self,
        core: usize,
        op: FlexOp,
        rd: XReg,
        rs1_value: u64,
        rs2_value: u64,
    ) -> Result<(), FlexError> {
        let result: Result<u64, FlexError> = match op {
            FlexOp::GIdsContain => self
                .fabric
                .ids_contain(rs1_value as usize)
                .map(CoreAttr::to_bits),
            FlexOp::GConfigure => {
                let mains = bits_to_cores(rs1_value);
                let checkers = bits_to_cores(rs2_value);
                self.fabric.configure(&mains, &checkers).map(|()| 0)
            }
            FlexOp::MAssociate => {
                let checkers = bits_to_cores(rs1_value);
                self.fabric.associate(core, &checkers).map(|()| 0)
            }
            FlexOp::MCheck => self.fabric.set_check(core, rs1_value != 0).map(|()| 0),
            FlexOp::CCheckState => self
                .fabric
                .set_check_state(core, rs1_value != 0)
                .map(|()| 0),
            FlexOp::CRecord => self.op_c_record(core).map(|()| 0),
            FlexOp::CApply => {
                // Applies the staged SCP to the register file.
                match self.fabric.unit_mut(core).checker.ass.take_scp() {
                    Some(cp) => {
                        self.soc.core_mut(core).state.restore(&cp.snapshot);
                        Ok(0)
                    }
                    None => Ok(u64::MAX),
                }
            }
            FlexOp::CJal => Ok(0), // pc redirect is part of the apply path here
            FlexOp::CResult => self
                .op_c_result(core)
                .map(|r| r.map_or(u64::MAX, |res| u64::from(res.is_ok()))),
        };
        match result {
            Ok(v) => {
                self.soc.complete_flex(core, rd, v);
                Ok(())
            }
            Err(e) => {
                self.soc.complete_flex(core, rd, u64::MAX);
                Err(e)
            }
        }
    }

    // ----- engine stepping --------------------------------------------------

    /// Steps a core according to its current attribute and state.
    pub fn step(&mut self, core: usize) -> EngineStep {
        match self.fabric.unit(core).attr {
            CoreAttr::Checker if self.fabric.unit(core).checker.busy => self.step_checker(core),
            CoreAttr::Main => self.step_main(core),
            _ => EngineStep::Core(self.soc.step_core(core).kind),
        }
    }

    /// Steps a main core, performing checkpoint extraction, logging and
    /// backpressure. A user-mode main runs a block where it can, checked
    /// (logging through the block's sink) or not.
    pub fn step_main(&mut self, core: usize) -> EngineStep {
        let live = self.fabric.checking_live(core);
        let soc_core = self.soc.core(core);
        let user = soc_core.state.prv == PrivMode::User && soc_core.is_running();

        let retired = if !user {
            0
        } else if live {
            // One fabric borrow for the whole pre-step check: config
            // scalars are copied out so the borrow can end before the
            // stat/stall mutations.
            let cfg = self.fabric.config();
            let retry_cycles = cfg.backpressure_retry_cycles;
            let scp_cycles = cfg.scp_extract_cycles;
            let unit = self.fabric.unit(core);
            // Worst-case needs for this step: two log entries, plus a
            // close burst (IC + ECP) if a segment is or will be open,
            // plus an SCP if we must open one.
            let opening = !unit.tracker.is_open();
            let need_cps = 1 + usize::from(opening);
            let need_bytes = 32 + 8; // two entries + instruction count
            if !unit.fifo.can_accept(need_bytes, need_cps) {
                self.fabric.stats.backpressure_stalls += 1;
                self.soc.stall_core(core, retry_cycles);
                return EngineStep::Backpressured;
            }
            if opening {
                let snap = self.soc.core(core).state.snapshot();
                let unit = self.fabric.unit_mut(core);
                let consumers = unit.fifo.consumers() as u64;
                let scp = unit.tracker.open_segment(snap);
                unit.fifo.push_scp(scp).expect("space reserved above");
                unit.cp_stall_cycles += scp_cycles * consumers;
                // The ASS forwards the checkpoint once per associated
                // checker (§III-A): wider verification modes serialise
                // more beats through the channel — the source of
                // Fig. 6's dual→triple slowdown increase.
                self.soc.stall_core(core, scp_cycles * consumers);
                // Stop here: executing the first instruction in the
                // same dispatch would drag the global clock past the
                // post-stall ready time while other cores may still
                // be runnable earlier. Keeping dispatches warp-free
                // means a checker's replay charges are a pure
                // function of its own stream — the property the
                // verdict memo's recorded charges rely on.
                return EngineStep::SegmentOpened;
            }
            self.logged_block(core)
        } else {
            self.soc
                .run_main_block(core, BLOCK_INSTS, self.main_horizon, |_| {})
        };
        if retired > 0 {
            return EngineStep::MainBlock { retired };
        }

        let result: StepResult = self.soc.step_core(core);
        match &result.kind {
            StepKind::Retired(retired) if live && retired.prv == PrivMode::User => {
                self.after_user_retire(core, retired);
            }
            StepKind::Trap { .. } | StepKind::Interrupted { .. }
                // Leaving user mode: premature segment extermination
                // (Fig. 3.1). The ECP is the state at the boundary.
                if live && self.fabric.unit(core).tracker.is_open() => {
                    self.close_segment(core, SegmentClose::PrivilegeSwitch);
                }
            _ => {}
        }
        EngineStep::Core(result.kind)
    }

    /// Runs a logged main block on `core`, whose segment is open, and
    /// returns the instructions it retired (0 for none). The budget
    /// stops one instruction short of the segment limit, so the close
    /// (IC + ECP burst) always happens on the per-step path, and the
    /// byte reserve covers two log entries (or one branch outcome) per
    /// retire, so every in-block push has the space the per-step gate
    /// would have demanded. Runs only with DMA spill on, the regime every
    /// block is exact in: pushes never fail or stall the producer, so
    /// FIFO occupancy cannot feed back into the main's timing. Checker
    /// replay blocks and verdict-memo lookups need the same regime.
    fn logged_block(&mut self, core: usize) -> u64 {
        if !self.fabric.config().dma_spill {
            return 0;
        }
        let unit = self.fabric.unit(core);
        let remaining = unit.tracker.limit().saturating_sub(unit.tracker.count());
        let budget = BLOCK_INSTS.min(remaining.saturating_sub(1));
        if budget < 2 || !unit.fifo.can_accept(budget as usize * 32 + 8, 1) {
            return 0;
        }
        let forwards_branches = self.soc.core(core).model_kind().forwards_branch_outcomes();
        // Split borrows: the sink writes the *fabric* unit's FIFO and
        // tracker while the block runs on the *soc* — disjoint fields.
        let unit = self.fabric.unit_mut(core);
        self.soc
            .run_main_block(core, budget, self.main_horizon, |retired| {
                let at_limit = log_retire(unit, retired, forwards_branches);
                debug_assert!(!at_limit, "block budget keeps the segment open");
            })
    }

    /// Closes the open segment on `core`, pushing the `InstCount` + ECP
    /// pair as one burst and charging the extraction stall.
    fn close_segment(&mut self, core: usize, why: SegmentClose) {
        let ecp_cycles = self.fabric.config().ecp_extract_cycles;
        let snap = self.soc.core(core).state.snapshot();
        let unit = self.fabric.unit_mut(core);
        let consumers = unit.fifo.consumers() as u64;
        let (count, ecp) = unit.tracker.close_segment(snap, why);
        unit.fifo
            .push_count_ecp(count, ecp)
            .expect("space and cp slot reserved");
        unit.cp_stall_cycles += ecp_cycles * consumers;
        self.soc.stall_core(core, ecp_cycles * consumers);
    }

    fn after_user_retire(&mut self, core: usize, retired: &Retired) {
        let forwards_branches = self.soc.core(core).model_kind().forwards_branch_outcomes();
        let unit = self.fabric.unit_mut(core);
        if !unit.tracker.is_open() {
            // Checking was enabled mid-flight (first user instruction
            // after M.check); the segment opens on the next step.
            return;
        }
        if log_retire(unit, retired, forwards_branches) {
            self.close_segment(core, SegmentClose::CountLimit);
        }
    }

    /// Steps a busy checker core through the Al. 2 loop.
    ///
    /// The stream head is always classified in place: this runs once per
    /// replayed instruction, so the hot path copies out at most a few
    /// words (checkpoint snapshots are restored/compared straight from
    /// the buffered packet).
    pub fn step_checker(&mut self, core: usize) -> EngineStep {
        let Some((main, consumer)) = self.fabric.channel_of(core) else {
            return EngineStep::Idle;
        };
        if !self.soc.core(core).is_running() {
            return EngineStep::Idle;
        }
        let phase = self.fabric.unit(core).checker.phase;
        if let CheckPhase::Replaying {
            seq, tag, count, ..
        } = phase
        {
            if let Some(step) = self.playback_step(core, main, consumer, seq, tag, count) {
                return step;
            }
        }
        let cfg = self.fabric.config();
        let dma_spill = cfg.dma_spill;
        let wait_cycles = cfg.checker_wait_cycles;
        let scp_apply_cycles = cfg.scp_apply_cycles;
        let ecp_compare_cycles = cfg.ecp_compare_cycles;

        match phase {
            CheckPhase::WaitScp => {
                // Segment-granular consumption (spill mode): only start
                // replaying once the whole segment (through its ECP) is
                // buffered, so the replay itself never stalls mid-segment
                // and the count boundary is always known in-stream.
                //
                // Without DMA spill the SRAM alone may be smaller than a
                // segment, and waiting for a complete segment would
                // deadlock against the producer's backpressure — the
                // checker must consume *streaming*, entry by entry, as on
                // the paper's SRAM-only datapath (mid-replay gaps simply
                // stall the checker for a beat).
                if dma_spill
                    && self
                        .fabric
                        .unit(main)
                        .fifo
                        .complete_segments_ahead(consumer)
                        == 0
                {
                    self.fabric.stats.checker_wait_stalls += 1;
                    self.soc.stall_core(core, wait_cycles);
                    return EngineStep::CheckerWaiting;
                }
                // Classify the head in place; on an SCP, restore the
                // checker's register file directly from the buffered
                // snapshot (C.apply + C.jal) without copying the packet.
                enum ScpHead {
                    Empty,
                    Applied {
                        seq: u64,
                        tag: u64,
                        start_hash: u64,
                        stream_hash: Option<u64>,
                    },
                    Stale,
                }
                let head = match self.fabric.unit(main).fifo.peek(consumer) {
                    None => ScpHead::Empty,
                    Some(Packet::Scp(cp)) => {
                        let state = &mut self.soc.core_mut(core).state;
                        state.restore(&cp.snapshot);
                        state.prv = PrivMode::User;
                        ScpHead::Applied {
                            seq: cp.seq,
                            tag: cp.tag,
                            start_hash: hash_snapshot(HASH_SEED, &cp.snapshot),
                            // The DBC's banked fingerprint for the segment
                            // this SCP opens: `Some` only when the segment
                            // is fully buffered and untainted by injection.
                            stream_hash: self.fabric.unit(main).fifo.next_segment_hash(consumer),
                        }
                    }
                    Some(_) => ScpHead::Stale,
                };
                match head {
                    ScpHead::Empty => {
                        self.fabric.stats.checker_wait_stalls += 1;
                        self.soc.stall_core(core, wait_cycles);
                        EngineStep::CheckerWaiting
                    }
                    ScpHead::Applied {
                        seq,
                        tag,
                        start_hash,
                        stream_hash,
                    } => {
                        // Every SCP apply is a replay context switch:
                        // flush the checker's µarch timing state so
                        // segment replay timing is a pure function of
                        // (checkpoint, stream, code bytes). Runs memo-on
                        // and memo-off alike — that purity is what makes
                        // the verdict memo sound, and keeping it
                        // unconditional keeps reports bit-identical.
                        self.soc.core_mut(core).reset_replay_uarch();
                        self.fabric.unit_mut(main).fifo.advance(consumer);
                        self.soc.core_mut(core).clear_reservation();
                        self.soc.stall_core(core, scp_apply_cycles);
                        self.fabric.unit_mut(core).checker.phase = CheckPhase::Replaying {
                            seq,
                            tag,
                            count: 0,
                            ic: None,
                        };
                        // Verdict memo: a segment is memoizable only in
                        // the block regime, when its full stream
                        // fingerprint is banked, no fault shot is armed
                        // on this channel, and no checker timer could
                        // preempt mid-replay.
                        let memoizable = dma_spill
                            && self.fabric.unit(core).checker.memo.is_enabled()
                            && !self.fabric.unit(main).memo_blocked
                            && self.soc.core(core).timer_cmp.is_none();
                        if let (true, Some(stream_hash)) = (memoizable, stream_hash) {
                            let epoch = self.soc.code_epoch();
                            let checker = &mut self.fabric.unit_mut(core).checker;
                            match checker.memo.lookup(start_hash, stream_hash, epoch) {
                                Some(charge) => {
                                    checker.playback = Some(charge);
                                    self.fabric.stats.memo_hits += 1;
                                }
                                None => {
                                    checker.recording =
                                        Some(Recording::new(start_hash, stream_hash, epoch));
                                    self.fabric.stats.memo_misses += 1;
                                }
                            }
                        }
                        EngineStep::CheckerApplied { seq }
                    }
                    ScpHead::Stale => {
                        // Stale packet from an aborted segment: discard.
                        self.fabric.unit_mut(main).fifo.advance(consumer);
                        self.fabric.unit_mut(core).checker.skipped_packets += 1;
                        EngineStep::CheckerProgress
                    }
                }
            }
            CheckPhase::Replaying {
                seq,
                tag,
                count,
                ic,
            } => {
                enum ReplayHead {
                    Empty,
                    Count(u64),
                    Checkpoint,
                    Entry,
                }
                let head = match self.fabric.unit(main).fifo.peek(consumer) {
                    None => ReplayHead::Empty,
                    Some(Packet::InstCount(v)) => ReplayHead::Count(*v),
                    Some(Packet::Scp(_) | Packet::Ecp(_)) => ReplayHead::Checkpoint,
                    // A forwarded branch outcome is consumed by the replay
                    // port mid-instruction, exactly like a log entry.
                    Some(Packet::Mem(_) | Packet::Branch(_)) => ReplayHead::Entry,
                };
                match head {
                    ReplayHead::Empty => {
                        self.fabric.stats.checker_wait_stalls += 1;
                        self.soc.stall_core(core, wait_cycles);
                        EngineStep::CheckerWaiting
                    }
                    ReplayHead::Count(v) if count == v => {
                        self.fabric.unit_mut(main).fifo.advance(consumer);
                        self.fabric.unit_mut(core).checker.phase =
                            CheckPhase::WaitEcp { seq, tag, count };
                        EngineStep::CheckerProgress
                    }
                    ReplayHead::Count(v) if count > v => self.abort_segment(
                        core,
                        main,
                        consumer,
                        seq,
                        tag,
                        MismatchKind::CountOverrun {
                            expected: v,
                            actual: count,
                        },
                    ),
                    ReplayHead::Checkpoint if ic.is_none() => {
                        // A checkpoint where entries or the count should
                        // be: the stream is inconsistent.
                        self.abort_segment(
                            core,
                            main,
                            consumer,
                            seq,
                            tag,
                            MismatchKind::LogUnderrun,
                        )
                    }
                    ReplayHead::Count(v) => {
                        // Record the count when first observed, then
                        // replay.
                        self.fabric.unit_mut(core).checker.phase = CheckPhase::Replaying {
                            seq,
                            tag,
                            count,
                            ic: Some(v),
                        };
                        self.replay(core, main, consumer, seq, tag, dma_spill)
                    }
                    ReplayHead::Checkpoint | ReplayHead::Entry => {
                        self.replay(core, main, consumer, seq, tag, dma_spill)
                    }
                }
            }
            CheckPhase::WaitEcp { seq, tag, count } => {
                // Compare the buffered ECP snapshot against the replayed
                // state in place; only the diff list leaves the borrow.
                enum EcpHead {
                    Empty,
                    Compared(Vec<flexstep_sim::hart::SnapshotDiff>),
                    Unexpected,
                }
                let head = match self.fabric.unit(main).fifo.peek(consumer) {
                    None => EcpHead::Empty,
                    Some(Packet::Ecp(cp)) => {
                        let mine = self.soc.core(core).state.snapshot();
                        EcpHead::Compared(cp.snapshot.diff(&mine))
                    }
                    Some(_) => EcpHead::Unexpected,
                };
                match head {
                    EcpHead::Empty => {
                        self.fabric.stats.checker_wait_stalls += 1;
                        self.soc.stall_core(core, wait_cycles);
                        EngineStep::CheckerWaiting
                    }
                    EcpHead::Compared(diffs) => {
                        self.fabric.unit_mut(main).fifo.advance(consumer);
                        self.soc.stall_core(core, ecp_compare_cycles);
                        let at = self.soc.now();
                        let _ = count;
                        if diffs.is_empty() {
                            let result = SegmentResult {
                                seq,
                                tag,
                                mismatch: None,
                                at,
                            };
                            self.fabric.stats.segments_ok += 1;
                            // Harvest the recording: a clean verdict for a
                            // fingerprinted stream is exactly what the memo
                            // caches — unless the code bytes changed under
                            // the replay, which would stale the charge.
                            let epoch = self.soc.code_epoch();
                            let checker = &mut self.fabric.unit_mut(core).checker;
                            if let Some(rec) = checker.recording.take() {
                                if rec.code_epoch == epoch {
                                    checker.memo.insert(rec);
                                }
                            }
                            self.fabric
                                .unit_mut(core)
                                .checker
                                .finish_segment(result.clone());
                            EngineStep::CheckerSegmentDone(result)
                        } else {
                            self.fabric.unit_mut(core).checker.recording = None;
                            let kind = MismatchKind::Ecp { diffs };
                            self.fabric.stats.segments_failed += 1;
                            let event = DetectionEvent {
                                main_core: main,
                                checker_core: core,
                                segment_seq: seq,
                                tag,
                                kind: kind.clone(),
                                detected_at: at,
                            };
                            self.fabric.detections.push(event.clone());
                            self.fabric
                                .unit_mut(core)
                                .checker
                                .finish_segment(SegmentResult {
                                    seq,
                                    tag,
                                    mismatch: Some(kind),
                                    at,
                                });
                            EngineStep::CheckerDetected(event)
                        }
                    }
                    EcpHead::Unexpected => self.abort_segment(
                        core,
                        main,
                        consumer,
                        seq,
                        tag,
                        MismatchKind::LogUnderrun,
                    ),
                }
            }
        }
    }

    /// Serves the checker's memo hit, if it has one, in the dispatch
    /// shape of a real replay.
    ///
    /// The first dispatch charges the whole segment — its instruction
    /// count and cycles in one [`Soc::charge_replay_retires`], its log
    /// entries in one cursor move — when the segment ends before the
    /// replay horizon, which bounds it like any replay block. Otherwise
    /// the hit is dropped and `None` sends the dispatch on to real
    /// replay. The next dispatch consumes the `InstCount` packet and
    /// restores the replayed end state from the buffered ECP snapshot —
    /// the memoized verdict was clean, so a real replay would end in
    /// exactly that state — and the regular `WaitEcp` compare then emits
    /// the verdict with its usual stall and events.
    fn playback_step(
        &mut self,
        core: usize,
        main: usize,
        consumer: usize,
        seq: u64,
        tag: u64,
        count: u64,
    ) -> Option<EngineStep> {
        let hit = self.fabric.unit(core).checker.playback?;
        if count < hit.inst_count {
            let at = self.soc.now().max(self.soc.core(core).ready_at);
            if at + hit.cycles >= self.replay_horizon {
                self.fabric.unit_mut(core).checker.playback = None;
                return None;
            }
            self.soc
                .charge_replay_retires(core, hit.inst_count, hit.cycles);
            self.fabric
                .unit_mut(main)
                .fifo
                .advance_in_segment(consumer, hit.entries as usize);
            if let CheckPhase::Replaying { count, .. } =
                &mut self.fabric.unit_mut(core).checker.phase
            {
                *count = hit.inst_count;
            }
            return Some(EngineStep::CheckerBlock {
                replayed: hit.inst_count,
            });
        }
        // Charged, or the segment retired nothing. The fingerprint match
        // guarantees the stream is byte-identical to the recorded one, so
        // the head must be the memoized segment's InstCount followed by
        // its ECP — anything else is a memo bug or a 128-bit fingerprint
        // collision: fail loudly rather than verify the wrong segment.
        self.fabric.unit_mut(core).checker.playback = None;
        let inst_count = hit.inst_count;
        match self.fabric.unit(main).fifo.peek(consumer) {
            Some(Packet::InstCount(v)) if *v == inst_count => {}
            other => panic!(
                "verdict-memo playback desynced: expected InstCount({inst_count}), found {other:?}"
            ),
        }
        self.fabric.unit_mut(main).fifo.advance(consumer);
        match self.fabric.unit(main).fifo.peek(consumer) {
            Some(Packet::Ecp(cp)) => self.soc.core_mut(core).state.restore(&cp.snapshot),
            other => panic!("verdict-memo playback desynced: expected ECP, found {other:?}"),
        }
        self.fabric.unit_mut(core).checker.phase = CheckPhase::WaitEcp {
            seq,
            tag,
            count: inst_count,
        };
        Some(EngineStep::CheckerProgress)
    }

    /// Replays from the stream head: as a block when the regime allows
    /// and the harness's horizon lies ahead, else one instruction.
    fn replay(
        &mut self,
        core: usize,
        main: usize,
        consumer: usize,
        seq: u64,
        tag: u64,
        dma_spill: bool,
    ) -> EngineStep {
        if dma_spill && self.replay_horizon > self.soc.now() {
            let replayed = self.replay_block(core, main, consumer);
            if replayed > 0 {
                return EngineStep::CheckerBlock { replayed };
            }
        }
        self.replay_one(core, main, consumer, seq, tag)
    }

    /// Replays a block of the segment in one dispatch
    /// ([`Soc::run_replay_block`]) and commits the entries it read with a
    /// single cursor move. Returns the instructions replayed; 0 leaves
    /// the head instruction to [`FlexSoc::replay_one`].
    ///
    /// A block is exact because the segment is fully buffered before
    /// replay starts (replay is a pure function of SCP, log and code),
    /// dispatches are warp-free, and in the spill regime consuming early
    /// changes nothing the producer observes. It stops before anything
    /// the single-step path reacts to: see DESIGN.md §18.
    fn replay_block(&mut self, core: usize, main: usize, consumer: usize) -> u64 {
        let CheckPhase::Replaying { count, ic, .. } = self.fabric.unit(core).checker.phase else {
            unreachable!("replay runs in the Replaying phase");
        };
        let recording = self.fabric.unit_mut(core).checker.recording.take();
        let horizon = self.replay_horizon;
        // Split borrows: the block reads the *main* core's FIFO (fabric
        // field) while it runs on the checker core (soc field).
        let mut block = ReplayBlock {
            port: ReplayPort::new(&self.fabric.unit(main).fifo, consumer),
            committed: 0,
            budget: BLOCK_INSTS,
            count,
            ic,
            recording,
        };
        let replayed = self.soc.run_replay_block(core, &mut block, horizon);
        let ReplayBlock {
            committed,
            count,
            ic,
            recording,
            ..
        } = block;
        self.fabric
            .unit_mut(main)
            .fifo
            .advance_in_segment(consumer, committed);
        let st = &mut self.fabric.unit_mut(core).checker;
        st.recording = recording;
        if let CheckPhase::Replaying {
            count: c, ic: i, ..
        } = &mut st.phase
        {
            *c = count;
            *i = ic;
        }
        replayed
    }

    fn replay_one(
        &mut self,
        core: usize,
        main: usize,
        consumer: usize,
        seq: u64,
        tag: u64,
    ) -> EngineStep {
        // Split borrows: the replay port reads the *main* core's FIFO
        // (fabric field), the step borrows the checker core and memory
        // (soc field) — disjoint fields of `self`.
        let (step, entries, mismatch) = {
            let mut port = ReplayPort::new(&self.fabric.unit(main).fifo, consumer);
            let step = self.soc.step_core_with_port(core, &mut port);
            (step, port.consumed(), port.mismatch)
        };
        // Entries read before a failure count as consumed too.
        self.fabric
            .unit_mut(main)
            .fifo
            .advance_in_segment(consumer, entries);
        match step.kind {
            StepKind::Retired(ref retired) => {
                let st = &mut self.fabric.unit_mut(core).checker;
                // System instructions (CSR reads of time-dependent
                // counters) make results depend on more than the
                // fingerprinted inputs: drop the recording.
                if retired.inst.class() == InstClass::System {
                    st.recording = None;
                } else if let Some(rec) = &mut st.recording {
                    rec.push_step(step.cycles, entries as u64);
                }
                if let CheckPhase::Replaying { count, .. } = &mut st.phase {
                    *count += 1;
                }
                EngineStep::CheckerProgress
            }
            StepKind::Stopped(_) => {
                let kind = mismatch.unwrap_or(MismatchKind::LogUnderrun);
                self.abort_segment(core, main, consumer, seq, tag, kind)
            }
            StepKind::Trap { cause, tval, pc } => self.abort_segment(
                core,
                main,
                consumer,
                seq,
                tag,
                MismatchKind::CheckerFault {
                    what: format!("{cause:?} at pc {pc:#x} (tval {tval:#x})"),
                },
            ),
            StepKind::Interrupted { .. } => {
                // Preemption mid-replay: the charge would be incomplete.
                self.fabric.unit_mut(core).checker.recording = None;
                EngineStep::CheckerInterrupted(step.kind)
            }
            StepKind::Idle => EngineStep::Idle,
            other => self.abort_segment(
                core,
                main,
                consumer,
                seq,
                tag,
                MismatchKind::CheckerFault {
                    what: format!("unexpected replay stop: {other:?}"),
                },
            ),
        }
    }

    /// Reports a detection and resynchronises the checker to the next SCP.
    fn abort_segment(
        &mut self,
        core: usize,
        main: usize,
        consumer: usize,
        seq: u64,
        tag: u64,
        kind: MismatchKind,
    ) -> EngineStep {
        // An aborted segment can never become a cached clean verdict.
        let st = &mut self.fabric.unit_mut(core).checker;
        st.recording = None;
        st.playback = None;
        // Segment-granular resynchronisation: in spill mode the aborted
        // segment is fully buffered (through its ECP), so the remainder
        // is skipped in one cursor move instead of one stale-packet
        // discard per engine step. Without spill the ECP may not have
        // been produced yet; the per-packet discard path in `WaitScp`
        // handles the tail as it arrives.
        if self.fabric.config().dma_spill {
            if let Some(skipped) = self.fabric.unit_mut(main).fifo.skip_segment(consumer) {
                self.fabric.unit_mut(core).checker.skipped_packets += skipped as u64;
            }
        }
        let at = self.soc.now();
        let event = DetectionEvent {
            main_core: main,
            checker_core: core,
            segment_seq: seq,
            tag,
            kind: kind.clone(),
            detected_at: at,
        };
        self.fabric.stats.segments_failed += 1;
        self.fabric.detections.push(event.clone());
        self.fabric
            .unit_mut(core)
            .checker
            .finish_segment(SegmentResult {
                seq,
                tag,
                mismatch: Some(kind),
                at,
            });
        EngineStep::CheckerDetected(event)
    }

    /// Access to the checker state of a core (tests, OS).
    pub fn checker_state(&self, core: usize) -> &CheckerState {
        &self.fabric.unit(core).checker
    }
}

/// A checker replay block in flight: the [`ReplayPort`] reading ahead of
/// the consumer cursor, plus the bookkeeping [`FlexSoc::step_checker`]
/// does between single replay steps.
struct ReplayBlock<'a> {
    port: ReplayPort<'a>,
    /// Entries read by retired instructions — all the block commits.
    /// Later reads belong to an instruction that did not retire.
    committed: usize,
    /// Instructions the block may still retire.
    budget: u64,
    /// Instructions replayed in the segment so far.
    count: u64,
    /// The segment's instruction count, once seen at the read position.
    ic: Option<u64>,
    /// The checker's memo recording, moved out for the block.
    recording: Option<Recording>,
}

impl ReplayControl for ReplayBlock<'_> {
    fn port(&mut self) -> &mut dyn DataPort {
        &mut self.port
    }

    /// The single-step head classification, at the read position: log
    /// entries and branch outcomes go on, and so does the segment's
    /// `InstCount` while instructions remain. A reached or overrun count,
    /// a checkpoint or an empty stream is the single-step path's to
    /// handle.
    fn admit(&mut self) -> bool {
        if self.budget == 0 {
            return false;
        }
        match self.port.head() {
            Some(Packet::Mem(_) | Packet::Branch(_)) => true,
            Some(&Packet::InstCount(v)) if self.count < v => {
                self.ic = Some(v);
                true
            }
            _ => false,
        }
    }

    fn retired(&mut self, cycles: u64) {
        let entries = (self.port.consumed() - self.committed) as u64;
        self.committed = self.port.consumed();
        self.budget -= 1;
        self.count += 1;
        if let Some(rec) = &mut self.recording {
            rec.push_step(cycles, entries);
        }
    }
}

/// Logs one retired user-mode instruction of a main into its `unit`:
/// the access's log entries and, for an OoO main, the branch outcome.
/// Returns whether the segment reached its instruction limit.
fn log_retire(unit: &mut CoreUnit, retired: &Retired, forwards_branches: bool) -> bool {
    if let Some(access) = &retired.mem {
        let (first, second) = log_entries(access);
        match second {
            // Multi-µop instructions push both entries as one burst.
            Some(second) => unit
                .fifo
                .push_burst(&[Packet::Mem(first), Packet::Mem(second)])
                .expect("space reserved"),
            None => unit.fifo.push(Packet::Mem(first)).expect("space reserved"),
        }
    }
    // OoO mains forward each retired branch's resolved target so in-order
    // checkers can skip prediction and catch control-flow divergence at
    // the branch itself (MEEK-style outcome forwarding). Branches carry
    // no memory access, so the 8-byte packet fits well inside the
    // two-entry reserve.
    if forwards_branches && retired.branch.is_some() {
        unit.fifo
            .push(Packet::Branch(retired.next_pc))
            .expect("space reserved");
    }
    unit.tracker.on_user_retire()
}

fn bits_to_cores(mask: u64) -> Vec<usize> {
    (0..64).filter(|i| mask & (1 << i) != 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_to_cores_decodes_masks() {
        assert_eq!(bits_to_cores(0b0000), Vec::<usize>::new());
        assert_eq!(bits_to_cores(0b0101), vec![0, 2]);
        assert_eq!(bits_to_cores(1 << 63), vec![63]);
    }
}
