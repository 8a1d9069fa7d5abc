//! A single simulated core (hart + timing model + bookkeeping).

use crate::bpred::BpredConfig;
use crate::hart::ArchState;
use crate::model::CoreModel;
use flexstep_soc::CoreModelKind;

/// Run state of a core within the SoC engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Executing instructions.
    Running,
    /// Parked: waiting for an interrupt or kernel action (`wfi`, idle).
    Parked,
    /// Permanently stopped (end of simulation).
    Halted,
}

/// One simulated core.
///
/// The architectural state is public — the host kernel manipulates it
/// directly during context switches, exactly as the FlexStep OS add-ons
/// manipulate the real register file through the trap path. The timing
/// microarchitecture lives behind [`CoreModel`]: the slot's descriptor
/// picks in-order or out-of-order timing while the architectural ISA
/// semantics stay shared.
#[derive(Debug)]
pub struct Core {
    /// Core index (also `mhartid`).
    pub id: usize,
    /// Architectural state.
    pub state: ArchState,
    /// Timing model (predictor, hazards, issue window — timing only).
    pub model: CoreModel,
    /// LR/SC reservation address.
    pub(crate) resv: Option<u64>,
    /// Cycle at which the core can execute its next instruction.
    pub ready_at: u64,
    /// Scheduling state.
    pub run_state: RunState,
    /// Total retired instructions.
    pub instret: u64,
    /// Retired instructions in user mode (the CPC instruction counter's
    /// clock source).
    pub user_instret: u64,
    /// Cycles this core spent actually retiring instructions (the IPC
    /// denominator; excludes parked/idle time).
    pub busy_cycles: u64,
    /// Timer compare value (cycle); `None` disables the timer.
    pub timer_cmp: Option<u64>,
    /// Pending machine-timer interrupt latch.
    pub(crate) timer_pending: bool,
    /// I-cache line of the previous fetch (L0 fetch fast path): a repeat
    /// fetch of the same line is a guaranteed L1 hit and cannot change
    /// any replacement decision, so the tag-array walk is skipped.
    /// Invalidated when any core stores to the line.
    pub(crate) last_fetch_line: u64,
    /// Index of the SoC's decoded text image this core last fetched
    /// from: the first one fetch looks in.
    pub(crate) image: usize,
}

impl Core {
    /// Creates a reset core with the in-order timing model.
    pub fn new(id: usize, bpred: BpredConfig) -> Self {
        Core::with_model(id, bpred, CoreModelKind::InOrder)
    }

    /// Creates a reset core running the timing model `kind` names.
    pub fn with_model(id: usize, bpred: BpredConfig, kind: CoreModelKind) -> Self {
        Core {
            id,
            state: ArchState::new(id as u64),
            model: CoreModel::from_kind(kind, bpred),
            resv: None,
            ready_at: 0,
            run_state: RunState::Parked,
            instret: 0,
            user_instret: 0,
            busy_cycles: 0,
            timer_cmp: None,
            timer_pending: false,
            last_fetch_line: u64::MAX,
            image: 0,
        }
    }

    /// The descriptor of this core's timing model.
    pub fn model_kind(&self) -> CoreModelKind {
        self.model.kind()
    }

    /// Retired-instructions-per-busy-cycle (`NaN`-free: 0 before the
    /// first retirement).
    pub fn ipc(&self) -> f64 {
        if self.busy_cycles == 0 {
            0.0
        } else {
            self.instret as f64 / self.busy_cycles as f64
        }
    }

    /// Clears the LR/SC reservation (kernel does this on traps and
    /// context switches).
    pub fn clear_reservation(&mut self) {
        self.resv = None;
    }

    /// Resets the microarchitectural timing state — branch-predictor
    /// tables, the load-use hazard latch and the L0 fetch line — as
    /// part of a replay context switch. The FlexStep engine calls this
    /// when a checker applies a segment start checkpoint, making each
    /// segment's replay timing a pure function of (checkpoint, log
    /// stream, code bytes) regardless of what the checker ran before;
    /// that purity is what lets identical segments be memoized.
    pub fn reset_replay_uarch(&mut self) {
        self.model.reset_replay_uarch();
        self.last_fetch_line = u64::MAX;
    }

    /// Arms the core timer to fire at `cycle`.
    pub fn set_timer(&mut self, cycle: u64) {
        self.timer_cmp = Some(cycle);
        self.timer_pending = false;
    }

    /// Disarms the timer and clears any pending interrupt.
    pub fn clear_timer(&mut self) {
        self.timer_cmp = None;
        self.timer_pending = false;
    }

    /// Whether a timer interrupt is latched and deliverable.
    pub fn timer_interrupt_deliverable(&self) -> bool {
        self.timer_pending && self.state.interrupts_enabled()
    }

    /// Starts executing (kernel dispatch).
    pub fn unpark(&mut self) {
        if self.run_state != RunState::Halted {
            self.run_state = RunState::Running;
        }
    }

    /// Parks the core (idle / `wfi`).
    pub fn park(&mut self) {
        if self.run_state != RunState::Halted {
            self.run_state = RunState::Parked;
        }
    }

    /// Permanently halts the core.
    pub fn halt(&mut self) {
        self.run_state = RunState::Halted;
    }

    /// Whether the engine may step this core.
    pub fn is_running(&self) -> bool {
        self.run_state == RunState::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_core_is_parked() {
        let c = Core::new(3, BpredConfig::paper());
        assert_eq!(c.run_state, RunState::Parked);
        assert_eq!(c.state.csrs.mhartid, 3);
        assert!(!c.is_running());
    }

    #[test]
    fn halt_is_sticky() {
        let mut c = Core::new(0, BpredConfig::paper());
        c.halt();
        c.unpark();
        assert_eq!(c.run_state, RunState::Halted);
        c.park();
        assert_eq!(c.run_state, RunState::Halted);
    }

    #[test]
    fn timer_latch_requires_enable() {
        let mut c = Core::new(0, BpredConfig::paper());
        c.set_timer(100);
        c.timer_pending = true;
        // Machine mode with MIE clear: not deliverable.
        assert!(!c.timer_interrupt_deliverable());
        c.state.prv = crate::hart::PrivMode::User;
        assert!(c.timer_interrupt_deliverable());
    }
}
