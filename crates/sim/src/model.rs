//! Pluggable core timing models (the `CoreModel` trait layer).
//!
//! The architectural execute stage is a pure function
//! ([`crate::exec::execute`], re-exposed here behind the
//! [`InstructionExecutor`] trait); what differs between core
//! microarchitectures is *when* a retired instruction's effects land.
//! [`CoreTimingModel`] captures exactly that seam: the SoC engine
//! fetches, decodes and executes, then hands the retirement to the
//! model, which owns every piece of speculative/hazard state (branch
//! predictor, interlocks, scoreboard, reorder window) and answers with
//! the cycles to charge.
//!
//! Two models ship behind the [`CoreModel`] enum (enum dispatch keeps
//! the step loop monomorphic — no vtable in the hot path):
//!
//! - [`InOrderModel`] — the Rocket-like single-issue pipeline the
//!   simulator always had. Its arithmetic is kept literally identical
//!   to the pre-trait code: the equivalence suite pins reports and
//!   traces byte-for-byte against pre-refactor goldens.
//! - [`OooModel`] — a MEEK-class wide superscalar: `width`-wide
//!   fetch/issue/retire, a register scoreboard for dataflow issue, and
//!   a `rob`-entry reorder window bounding in-flight work. Retire
//!   deltas can be zero, so IPC above 1 flows through the engine's
//!   existing `ready_at = now + cycles` contract unchanged.

use crate::bpred::{BpredConfig, BranchPredictor};
use crate::exec::{execute, BranchOutcome, Exec, Stop};
use crate::hart::{ArchState, CsrCounters};
use crate::port::DataPort;
use crate::timing::ExecCosts;
use flexstep_isa::inst::Inst;
use flexstep_isa::XReg;
use flexstep_soc::CoreModelKind;
use std::collections::VecDeque;

/// The architectural execute stage as a trait (the nexus-zkvm
/// `InstructionExecutor` idiom): one implementation, shared by every
/// timing model and by checker replay — main and checker run the *same*
/// executor over different data ports, which is what makes replay
/// verification meaningful.
pub trait InstructionExecutor {
    /// Executes one instruction against `state` through `port`.
    ///
    /// # Errors
    ///
    /// Returns [`Stop`] when the instruction traps, parks, is a
    /// platform (FlexStep) instruction, or the port aborts it; `state`
    /// is unmodified in every stop case.
    fn execute(
        &self,
        state: &mut ArchState,
        inst: &Inst,
        counters: &CsrCounters,
        costs: &ExecCosts,
        port: &mut dyn DataPort,
        resv: &mut Option<u64>,
    ) -> Result<Exec, Stop>;
}

/// The scalar RV64 executor every core model shares.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarExecutor;

impl InstructionExecutor for ScalarExecutor {
    #[inline]
    fn execute(
        &self,
        state: &mut ArchState,
        inst: &Inst,
        counters: &CsrCounters,
        costs: &ExecCosts,
        port: &mut dyn DataPort,
        resv: &mut Option<u64>,
    ) -> Result<Exec, Stop> {
        execute(state, inst, counters, costs, port, resv)
    }
}

/// Everything a timing model sees about one retiring instruction.
#[derive(Debug, Clone, Copy)]
pub struct RetireInfo<'a> {
    /// The instruction's pc.
    pub pc: u64,
    /// The decoded instruction (source/destination register queries).
    pub inst: &'a Inst,
    /// Front-end fetch penalty beyond the pipelined L1 hit.
    pub fetch_cycles: u64,
    /// Data-port and long-latency functional-unit cycles
    /// ([`Exec::extra_cycles`]).
    pub extra_cycles: u64,
    /// Whether the instruction's memory access reads (load/LR) — the
    /// load-use interlock source.
    pub mem_is_load: bool,
    /// Control-flow resolution, if any.
    pub branch: Option<BranchOutcome>,
    /// The control-flow outcome arrived pre-resolved through the DBC
    /// stream (checker replaying an out-of-order main): charge no
    /// prediction penalty and leave the predictor untouched.
    pub branch_hinted: bool,
}

/// The timing half of a core model: owns all speculative and hazard
/// state, charges cycles per retirement.
pub trait CoreTimingModel {
    /// The descriptor this model was built from.
    fn kind(&self) -> CoreModelKind;

    /// Cycles to charge for one retired instruction. `now` is the
    /// core's local timeline at dispatch; in-order models ignore it,
    /// window models use it to re-anchor their absolute bookkeeping
    /// after externally imposed stalls.
    fn retire(&mut self, r: &RetireInfo<'_>, costs: &ExecCosts, now: u64) -> u64;

    /// Resets all speculative timing state (predictor tables, hazard
    /// latches, scoreboard, reorder window) as part of a replay context
    /// switch — replay timing must be a pure function of (checkpoint,
    /// log stream, code bytes).
    fn reset_replay_uarch(&mut self);
}

/// The Rocket-like single-issue in-order pipeline (Tab. II).
#[derive(Debug)]
pub struct InOrderModel {
    /// Branch predictor (timing only).
    pub bpred: BranchPredictor,
    /// Destination of the previously retired load (load-use interlock).
    last_load_rd: Option<XReg>,
}

impl InOrderModel {
    /// Creates the model with reset predictor tables.
    pub fn new(bpred: BpredConfig) -> Self {
        InOrderModel {
            bpred: BranchPredictor::new(bpred),
            last_load_rd: None,
        }
    }
}

impl CoreTimingModel for InOrderModel {
    fn kind(&self) -> CoreModelKind {
        CoreModelKind::InOrder
    }

    #[inline]
    fn retire(&mut self, r: &RetireInfo<'_>, costs: &ExecCosts, _now: u64) -> u64 {
        // Timing: base cycle + fetch + functional units + hazards.
        let mut cycles = 1 + r.fetch_cycles + r.extra_cycles;

        // Load-use interlock against the previous instruction.
        if let Some(load_rd) = self.last_load_rd {
            let (r1, r2) = r.inst.reads_xregs();
            if r1 == Some(load_rd) || r2 == Some(load_rd) {
                cycles += costs.load_use;
            }
        }
        self.last_load_rd = if r.mem_is_load {
            r.inst.writes_xreg()
        } else {
            None
        };

        // Branch-predictor timing.
        if let Some(b) = r.branch {
            if !r.branch_hinted {
                let seq_pc = r.pc.wrapping_add(4);
                match b {
                    BranchOutcome::Cond { taken, target } => {
                        cycles += self.bpred.resolve_branch(r.pc, taken, target);
                    }
                    BranchOutcome::Jal { target, link } => {
                        cycles += self.bpred.resolve_jal(r.pc, target);
                        if link {
                            self.bpred.push_return(seq_pc);
                        }
                    }
                    BranchOutcome::Jalr {
                        target,
                        link,
                        is_return,
                    } => {
                        cycles += self.bpred.resolve_jalr(r.pc, target, is_return);
                        if link {
                            self.bpred.push_return(seq_pc);
                        }
                    }
                }
            }
        }
        cycles
    }

    fn reset_replay_uarch(&mut self) {
        self.bpred.reset_tables();
        self.last_load_rd = None;
    }
}

/// A MEEK-class wide out-of-order superscalar timing model.
///
/// Architectural execution stays serial (the shared
/// [`ScalarExecutor`]); this model reconstructs *when* each
/// instruction would retire on a `width`-wide machine with a
/// `rob`-entry window:
///
/// - the front end dispatches up to `width` instructions per cycle,
///   delayed by fetch penalties and mispredict redirects;
/// - issue waits on a register scoreboard (absolute completion time per
///   architectural register);
/// - a full reorder window stalls dispatch until the oldest in-flight
///   instruction completes;
/// - retirement is in order, up to `width` per cycle, so the cycles
///   charged per retirement can be zero — IPC above 1 emerges through
///   the engine's unchanged `ready_at` contract.
#[derive(Debug)]
pub struct OooModel {
    width: u64,
    rob_size: usize,
    /// Branch predictor driving mispredict redirects.
    pub bpred: BranchPredictor,
    /// Absolute completion time of the last producer of each x-register.
    reg_ready: [u64; 32],
    /// Completion times of in-flight instructions, oldest first.
    rob: VecDeque<u64>,
    /// Current front-end dispatch cycle.
    slot_time: u64,
    /// Instructions dispatched in `slot_time`'s cycle.
    slot_used: u64,
    /// Absolute time of the previous retirement (in-order commit).
    last_retire: u64,
    /// Instructions retired in `last_retire`'s cycle.
    retire_used: u64,
}

impl OooModel {
    /// Creates the model; `width`/`rob` are clamped to at least 1.
    pub fn new(bpred: BpredConfig, width: u8, rob: u16) -> Self {
        OooModel {
            width: u64::from(width.max(1)),
            rob_size: usize::from(rob.max(1)),
            bpred: BranchPredictor::new(bpred),
            reg_ready: [0; 32],
            rob: VecDeque::new(),
            slot_time: 0,
            slot_used: 0,
            last_retire: 0,
            retire_used: 0,
        }
    }
}

impl CoreTimingModel for OooModel {
    fn kind(&self) -> CoreModelKind {
        CoreModelKind::OooSuperscalar {
            width: self.width as u8,
            rob: self.rob_size as u16,
        }
    }

    fn retire(&mut self, r: &RetireInfo<'_>, _costs: &ExecCosts, now: u64) -> u64 {
        // In steady state the engine hands back `now == last_retire`
        // (it charges exactly our returned delta). `now` ahead of that
        // means an externally imposed stall — kernel time, a segment
        // open, a context switch — which redirects the machine:
        // re-anchor the front end and the commit point. Otherwise the
        // front end deliberately runs *ahead* of retirement; only a
        // full reorder window or a mispredict redirect stalls it.
        if now > self.last_retire {
            self.slot_time = self.slot_time.max(now);
            self.slot_used = 0;
            self.last_retire = now;
            self.retire_used = 0;
        }
        if self.slot_used >= self.width {
            self.slot_time += 1;
            self.slot_used = 0;
        }
        // Fetch penalty delays this instruction's dispatch.
        let mut dispatch = self.slot_time + r.fetch_cycles;
        // Dataflow issue: wait for source operands.
        let (s1, s2) = r.inst.reads_xregs();
        for src in [s1, s2].into_iter().flatten() {
            dispatch = dispatch.max(self.reg_ready[src.index() as usize]);
        }
        // A full reorder window stalls dispatch until the oldest
        // in-flight instruction completes.
        while self.rob.len() >= self.rob_size {
            let oldest = self.rob.pop_front().expect("rob non-empty");
            dispatch = dispatch.max(oldest);
        }
        let complete = dispatch + 1 + r.extra_cycles;
        self.rob.push_back(complete);
        if let Some(rd) = r.inst.writes_xreg() {
            if rd != XReg::ZERO {
                self.reg_ready[rd.index() as usize] = complete;
            }
        }
        self.slot_used += 1;

        // Branches resolve at completion; a mispredict squashes the
        // window's younger work and redirects the front end.
        if let Some(b) = r.branch {
            if !r.branch_hinted {
                let seq_pc = r.pc.wrapping_add(4);
                let penalty = match b {
                    BranchOutcome::Cond { taken, target } => {
                        self.bpred.resolve_branch(r.pc, taken, target)
                    }
                    BranchOutcome::Jal { target, link } => {
                        let p = self.bpred.resolve_jal(r.pc, target);
                        if link {
                            self.bpred.push_return(seq_pc);
                        }
                        p
                    }
                    BranchOutcome::Jalr {
                        target,
                        link,
                        is_return,
                    } => {
                        let p = self.bpred.resolve_jalr(r.pc, target, is_return);
                        if link {
                            self.bpred.push_return(seq_pc);
                        }
                        p
                    }
                };
                if penalty > 0 {
                    self.slot_time = complete + penalty;
                    self.slot_used = 0;
                }
            }
        }

        // In-order retirement, `width` per cycle.
        let t = complete.max(self.last_retire);
        if t > self.last_retire {
            self.retire_used = 1;
            self.last_retire = t;
        } else if self.retire_used >= self.width {
            self.retire_used = 1;
            self.last_retire = t + 1;
        } else {
            self.retire_used += 1;
        }
        self.last_retire.saturating_sub(now)
    }

    fn reset_replay_uarch(&mut self) {
        self.bpred.reset_tables();
        self.reg_ready = [0; 32];
        self.rob.clear();
        self.slot_time = 0;
        self.slot_used = 0;
        self.last_retire = 0;
        self.retire_used = 0;
    }
}

/// Enum dispatch over the shipped timing models: the step loop stays
/// monomorphic (no `Box<dyn>` indirection on the hot path).
#[derive(Debug)]
pub enum CoreModel {
    /// Single-issue in-order pipeline.
    InOrder(InOrderModel),
    /// Wide out-of-order superscalar (boxed: the window bookkeeping is
    /// ~3× the in-order model's footprint, and `Core` embeds this enum).
    Ooo(Box<OooModel>),
}

impl CoreModel {
    /// Instantiates the model a descriptor names.
    pub fn from_kind(kind: CoreModelKind, bpred: BpredConfig) -> Self {
        match kind {
            CoreModelKind::InOrder => CoreModel::InOrder(InOrderModel::new(bpred)),
            CoreModelKind::OooSuperscalar { width, rob } => {
                CoreModel::Ooo(Box::new(OooModel::new(bpred, width, rob)))
            }
        }
    }

    /// The descriptor this model was built from.
    #[inline]
    pub fn kind(&self) -> CoreModelKind {
        match self {
            CoreModel::InOrder(m) => m.kind(),
            CoreModel::Ooo(m) => m.kind(),
        }
    }

    /// See [`CoreTimingModel::retire`].
    #[inline]
    pub fn retire(&mut self, r: &RetireInfo<'_>, costs: &ExecCosts, now: u64) -> u64 {
        match self {
            CoreModel::InOrder(m) => m.retire(r, costs, now),
            CoreModel::Ooo(m) => m.retire(r, costs, now),
        }
    }

    /// See [`CoreTimingModel::reset_replay_uarch`].
    pub fn reset_replay_uarch(&mut self) {
        match self {
            CoreModel::InOrder(m) => m.reset_replay_uarch(),
            CoreModel::Ooo(m) => m.reset_replay_uarch(),
        }
    }

    /// The model's branch predictor (shared across kinds).
    pub fn bpred(&self) -> &BranchPredictor {
        match self {
            CoreModel::InOrder(m) => &m.bpred,
            CoreModel::Ooo(m) => &m.bpred,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexstep_isa::inst::{Inst, IntOp};

    fn alu_inst() -> Inst {
        // add a0, a0, a1 — reads a0/a1, writes a0.
        Inst::Op {
            op: IntOp::Add,
            rd: XReg::A0,
            rs1: XReg::A0,
            rs2: XReg::A1,
        }
    }

    fn indep_inst() -> Inst {
        // add a2, a3, a4 — no dependence on a0/a1.
        Inst::Op {
            op: IntOp::Add,
            rd: XReg::A2,
            rs1: XReg::A3,
            rs2: XReg::A4,
        }
    }

    fn retire_of(inst: &Inst) -> RetireInfo<'_> {
        RetireInfo {
            pc: 0x1000,
            inst,
            fetch_cycles: 0,
            extra_cycles: 0,
            mem_is_load: false,
            branch: None,
            branch_hinted: false,
        }
    }

    #[test]
    fn inorder_charges_one_cycle_per_alu_inst() {
        let mut m = InOrderModel::new(BpredConfig::paper());
        let costs = ExecCosts::paper();
        let inst = alu_inst();
        for now in 0..10u64 {
            assert_eq!(m.retire(&retire_of(&inst), &costs, now), 1);
        }
    }

    #[test]
    fn ooo_retires_independent_work_wider_than_one() {
        let mut m = OooModel::new(BpredConfig::paper(), 4, 32);
        let costs = ExecCosts::paper();
        let inst = indep_inst();
        // Four independent single-cycle instructions retire in the same
        // cycle: the first charges the pipeline's cycle, the rest are
        // free — IPC 4.
        let mut now = 0;
        let mut total = 0;
        for _ in 0..8 {
            let d = m.retire(&retire_of(&inst), &costs, now);
            now += d;
            total += d;
        }
        assert!(
            total <= 3,
            "8 independent insts on a 4-wide machine need <= 2 cycles, charged {total}"
        );
    }

    #[test]
    fn ooo_dependent_chain_serialises() {
        let mut m = OooModel::new(BpredConfig::paper(), 4, 32);
        let costs = ExecCosts::paper();
        let inst = alu_inst(); // a0 <- a0 + a1: loop-carried on a0
        let mut now = 0;
        let mut total = 0;
        for _ in 0..8 {
            let d = m.retire(&retire_of(&inst), &costs, now);
            now += d;
            total += d;
        }
        assert!(
            total >= 7,
            "a dependent chain cannot beat 1 IPC, charged {total}"
        );
    }

    #[test]
    fn ooo_rob_bounds_inflight_window() {
        // Width 4 but a 1-entry ROB degrades to serial dispatch.
        let mut m = OooModel::new(BpredConfig::paper(), 4, 1);
        let costs = ExecCosts::paper();
        let inst = indep_inst();
        let mut now = 0;
        let mut total = 0;
        for _ in 0..8 {
            let d = m.retire(&retire_of(&inst), &costs, now);
            now += d;
            total += d;
        }
        assert!(total >= 7, "rob=1 must serialise, charged {total}");
    }

    #[test]
    fn hinted_branches_charge_no_prediction_penalty() {
        let costs = ExecCosts::paper();
        let inst = alu_inst();
        let branch = Some(BranchOutcome::Cond {
            taken: true,
            target: 0x2000,
        });
        for hinted in [false, true] {
            let mut m = InOrderModel::new(BpredConfig::paper());
            let r = RetireInfo {
                branch,
                branch_hinted: hinted,
                ..retire_of(&inst)
            };
            let cycles = m.retire(&r, &costs, 0);
            if hinted {
                assert_eq!(cycles, 1, "hinted branch must not charge a penalty");
            } else {
                assert!(cycles > 1, "cold predictor must mispredict a taken branch");
            }
        }
    }

    #[test]
    fn reset_replay_uarch_restores_initial_timing() {
        let costs = ExecCosts::paper();
        let inst = alu_inst();
        let branch = Some(BranchOutcome::Cond {
            taken: true,
            target: 0x2000,
        });
        let r = RetireInfo {
            branch,
            ..retire_of(&inst)
        };
        let mut m = CoreModel::from_kind(CoreModelKind::ooo(), BpredConfig::paper());
        let first = m.retire(&r, &costs, 0);
        m.reset_replay_uarch();
        let again = m.retire(&r, &costs, 0);
        assert_eq!(first, again, "reset must restore cold-start timing");
    }
}
