//! The multi-core SoC engine.
//!
//! [`Soc`] owns the cores and the shared memory system and steps cores one
//! instruction at a time under an event-driven interleave: the driver (the
//! OS layer in `flexstep-kernel`, or the FlexStep fabric in
//! `flexstep-core`) repeatedly asks for the earliest-ready running core and
//! steps it, choosing the data port — normal memory, or a checker-replay
//! port. Traps, custom FlexStep instructions, `wfi` and timer interrupts
//! are surfaced as [`StepKind`] values for the driver to handle, mirroring
//! how the paper's OS layer owns scheduling policy while the hardware owns
//! mechanism.

use crate::bpred::BpredConfig;
use crate::core::{Core, RunState};
use crate::exec::{execute, BranchOutcome, MemAccess, Stop};
use crate::hart::{CsrCounters, PrivMode, TrapCause};
use crate::model::{CoreModel, RetireInfo};
use crate::port::{DataPort, PortStop, ReplayControl, SocDataPort};
use crate::ready::ReadyQueue;
pub use crate::ready::SchedMode;
use crate::timing::{Clock, ExecCosts};
use flexstep_isa::asm::Program;
use flexstep_isa::decode::decode;
use flexstep_isa::inst::{FlexOp, Inst, InstClass};
use flexstep_isa::XReg;
use flexstep_mem::cache::CacheGeometryError;
use flexstep_mem::{MemoryConfig, MemorySystem};
use flexstep_soc::CoreModelKind;

/// SoC configuration.
#[derive(Debug, Clone, Copy)]
pub struct SocConfig {
    /// Number of cores.
    pub num_cores: usize,
    /// Memory hierarchy configuration.
    pub mem: MemoryConfig,
    /// Core clock.
    pub clock: Clock,
    /// Functional-unit costs.
    pub costs: ExecCosts,
    /// Branch-predictor configuration.
    pub bpred: BpredConfig,
}

impl SocConfig {
    /// The evaluated configuration of Tab. II with `num_cores` Rockets.
    pub fn paper(num_cores: usize) -> Self {
        SocConfig {
            num_cores,
            mem: MemoryConfig::paper(),
            clock: Clock::paper(),
            costs: ExecCosts::paper(),
            bpred: BpredConfig::paper(),
        }
    }
}

/// A retired instruction, as observed at the commit stage — the record the
/// FlexStep MAL and CPC consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Program counter of the instruction.
    pub pc: u64,
    /// The instruction.
    pub inst: Inst,
    /// Next program counter after retirement.
    pub next_pc: u64,
    /// Privilege mode the instruction executed in.
    pub prv: PrivMode,
    /// Data-memory access performed, if any.
    pub mem: Option<MemAccess>,
    /// Control-flow resolution, if any (drives branch-outcome
    /// forwarding for out-of-order mains).
    pub branch: Option<BranchOutcome>,
    /// Total cycles charged (fetch + execute + hazards).
    pub cycles: u64,
}

/// Outcome of stepping a core once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepKind {
    /// An instruction retired normally.
    Retired(Retired),
    /// A synchronous trap: state unchanged, `pc` at the faulting
    /// instruction. The driver (kernel) handles it.
    Trap {
        /// Trap cause.
        cause: TrapCause,
        /// Trap value (`mtval` semantics).
        tval: u64,
        /// Faulting pc.
        pc: u64,
    },
    /// A latched timer interrupt is deliverable; nothing was executed.
    Interrupted {
        /// Interrupt cause.
        cause: TrapCause,
    },
    /// A FlexStep custom instruction reached execute; the platform
    /// supplies semantics via `flexstep-core` and must advance `pc`.
    Flex {
        /// The operation.
        op: FlexOp,
        /// Destination register.
        rd: XReg,
        /// Value of `rs1`.
        rs1_value: u64,
        /// Value of `rs2`.
        rs2_value: u64,
        /// The instruction's pc.
        pc: u64,
    },
    /// The core executed `wfi` and parked itself.
    Wfi,
    /// The data port aborted the instruction (checker detection path).
    Stopped(PortStop),
    /// The core was not in a runnable state.
    Idle,
}

/// Result of [`Soc::step_core`]: what happened and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepResult {
    /// What happened.
    pub kind: StepKind,
    /// Cycles consumed by this step.
    pub cycles: u64,
    /// Simulation time after the step.
    pub now: u64,
}

/// Slots in the decoded-instruction cache (power of two). Decoding is a
/// pure function of the fetched word, so memoising it is invisible to
/// both architectural results and timing.
const DECODE_SLOTS: usize = 4096;

/// Slots in the direct-mapped superblock cache (power of two), keyed by
/// start pc. A superblock is a straight-line run of decoded µops (no
/// control flow, atomics or system instructions) that
/// [`Soc::run_to_ecall`] executes without re-entering the step loop
/// between them; per-instruction timing is identical to stepping.
const BLOCK_SLOTS: usize = 512;

/// Longest straight-line run cached per superblock.
const BLOCK_MAX: usize = 32;

/// A cached straight-line run of decoded instructions starting at `pc`,
/// valid while the code-write epoch is unchanged.
struct Superblock {
    pc: u64,
    epoch: u64,
    insts: Vec<Inst>,
}

/// The simulated SoC.
pub struct Soc {
    cores: Vec<Core>,
    /// The shared memory system.
    pub mem: MemorySystem,
    clock: Clock,
    costs: ExecCosts,
    /// Predictor configuration, kept for [`Soc::set_core_model`].
    bpred_cfg: BpredConfig,
    now: u64,
    ready: ReadyQueue,
    sched_mode: SchedMode,
    /// Direct-mapped memo of `decode`, keyed by instruction word.
    decode_cache: Box<[Option<(u32, Inst)>]>,
    /// Mask selecting the I-cache line address of a pc (L0 fetch path).
    fetch_line_mask: u64,
    /// Whether the per-core 16-word line buffer applies (64-byte lines).
    line_buf_ok: bool,
    /// Bumped whenever executable text may have changed: on
    /// [`Soc::load_program`] and on any store into a loaded text range.
    /// Consumers caching decoded state (superblocks, the FlexStep
    /// segment-verdict memo) key their entries on this epoch.
    code_epoch: u64,
    /// `(base, end)` of every loaded program text image, line-aligned
    /// outward, for the store-into-code epoch check.
    text_ranges: Vec<(u64, u64)>,
    /// Whether [`Soc::run_to_ecall`] may dispatch superblocks.
    superblocks: bool,
    /// Direct-mapped superblock cache, keyed by start pc.
    block_cache: Box<[Option<Superblock>]>,
}

impl std::fmt::Debug for Soc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Soc")
            .field("num_cores", &self.cores.len())
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl Soc {
    /// Builds an SoC.
    ///
    /// # Errors
    ///
    /// Returns [`CacheGeometryError`] if the memory configuration is
    /// invalid.
    pub fn new(config: SocConfig) -> Result<Self, CacheGeometryError> {
        let mem = MemorySystem::new(config.num_cores, config.mem)?;
        let cores: Vec<Core> = (0..config.num_cores)
            .map(|i| Core::new(i, config.bpred))
            .collect();
        Ok(Soc {
            ready: ReadyQueue::new(cores.len()),
            cores,
            mem,
            clock: config.clock,
            costs: config.costs,
            bpred_cfg: config.bpred,
            now: 0,
            sched_mode: SchedMode::default_for(config.num_cores),
            decode_cache: vec![None; DECODE_SLOTS].into_boxed_slice(),
            fetch_line_mask: !(config.mem.l1i.line_bytes as u64 - 1),
            line_buf_ok: config.mem.l1i.line_bytes == 64,
            code_epoch: 0,
            text_ranges: Vec::new(),
            superblocks: true,
            block_cache: (0..BLOCK_SLOTS).map(|_| None).collect(),
        })
    }

    /// Selects the ready-core scheduling algorithm (see [`SchedMode`]).
    /// Both modes pick identical cores; `LinearScan` exists for A/B
    /// benchmarking and determinism cross-checks.
    pub fn set_sched_mode(&mut self, mode: SchedMode) {
        self.sched_mode = mode;
    }

    /// The active scheduling algorithm.
    pub fn sched_mode(&self) -> SchedMode {
        self.sched_mode
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Current simulation time in cycles.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The core clock (cycle ↔ µs conversions).
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Immutable core access.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn core(&self, id: usize) -> &Core {
        &self.cores[id]
    }

    /// Mutable core access.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn core_mut(&mut self, id: usize) -> &mut Core {
        // The caller may change `ready_at` or the run state through this
        // borrow; conservatively refresh the core's ready-queue entry.
        self.ready.mark_dirty(id);
        &mut self.cores[id]
    }

    /// Iterates over all cores.
    pub fn cores(&self) -> impl Iterator<Item = &Core> {
        self.cores.iter()
    }

    /// Swaps core `id`'s timing model for the one `kind` names. The
    /// architectural state is untouched; all microarchitectural timing
    /// state (predictor tables, hazards, issue window) starts cold.
    /// Call before dispatching work to the slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_core_model(&mut self, id: usize, kind: CoreModelKind) {
        self.cores[id].model = CoreModel::from_kind(kind, self.bpred_cfg);
        self.ready.mark_dirty(id);
    }

    /// Loads a program image into physical memory (no cache effects; call
    /// [`MemorySystem::flush_all`] when reloading over a live system).
    pub fn load_program(&mut self, program: &Program) {
        self.mem
            .phys_mut()
            .load_words(program.text_base, &program.text);
        self.mem.phys_mut().load(program.data_base, &program.data);
        // The image may overwrite text the L0 fetch buffers still hold.
        for core in &mut self.cores {
            core.last_fetch_line = u64::MAX;
        }
        // Record the text image (line-aligned outward) for the
        // store-into-code epoch check, and invalidate cached decode runs.
        let base = program.text_base & self.fetch_line_mask;
        let end = program.text_base + 4 * program.text.len() as u64;
        if let Some(r) = self.text_ranges.iter_mut().find(|r| r.0 == base) {
            r.1 = r.1.max(end);
        } else {
            self.text_ranges.push((base, end));
        }
        self.code_epoch += 1;
    }

    /// The code-write epoch: bumped on [`Soc::load_program`] and on any
    /// store into a loaded text range. Anything caching decoded
    /// instruction state (superblocks, the FlexStep segment-verdict
    /// memo) must key on this value. Direct writes through
    /// `mem.phys_mut()` bypass the epoch; callers patching code that way
    /// must reload via `load_program`.
    pub fn code_epoch(&self) -> u64 {
        self.code_epoch
    }

    /// Whether the I-cache line at `line` overlaps a loaded text image.
    #[inline]
    fn line_in_text(&self, line: u64) -> bool {
        let line_end = line | !self.fetch_line_mask;
        self.text_ranges
            .iter()
            .any(|&(base, end)| line_end >= base && line < end)
    }

    /// Enables or disables superblock dispatch in [`Soc::run_to_ecall`]
    /// (on by default). Timing and architectural results are identical
    /// either way; the toggle exists for A/B benchmarking and the
    /// equivalence tests.
    pub fn set_superblocks(&mut self, on: bool) {
        self.superblocks = on;
    }

    /// Charges one replayed-retire worth of bookkeeping to `core`
    /// without executing anything: advances the clock to the core's
    /// ready time, counts one (user-mode) retirement and schedules the
    /// core `cycles` later — exactly the timing bookkeeping
    /// [`Soc::step_core_with_port`] performs for a retired instruction.
    /// Used by the FlexStep engine to play back a memoized checker
    /// segment step-for-step.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn charge_replay_retire(&mut self, id: usize, cycles: u64) {
        self.charge_replay_retires(id, 1, cycles);
    }

    /// Batch form of [`Soc::charge_replay_retire`]: charges `count`
    /// retires totalling `total_cycles` in one call. The core's local
    /// timeline advances exactly as `count` individual charges would
    /// advance it; the global clock is only pulled up to the core's
    /// *current* ready time (what the first individual charge would do),
    /// never to the end of the batch — dispatch order is earliest-ready,
    /// so dragging `now` through the whole batch would warp other cores'
    /// timelines forward past their own ready times.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn charge_replay_retires(&mut self, id: usize, count: u64, total_cycles: u64) {
        self.ready.mark_dirty(id);
        self.now = self.now.max(self.cores[id].ready_at);
        let core = &mut self.cores[id];
        core.instret += count;
        core.user_instret += count;
        core.busy_cycles += total_cycles;
        core.ready_at = self.now + total_cycles;
    }

    /// The earliest-ready running core (ties to the lowest id), or `None`
    /// if no core is running — the O(num_cores) reference scan. Driver
    /// loops should prefer [`Soc::next_ready`].
    pub fn next_ready_core(&self) -> Option<usize> {
        self.cores
            .iter()
            .filter(|c| c.is_running())
            .min_by_key(|c| (c.ready_at, c.id))
            .map(|c| c.id)
    }

    /// The earliest-ready running core under the configured
    /// [`SchedMode`]. The event queue answers in O(log n) amortised and
    /// picks exactly the core the linear scan would.
    #[inline]
    pub fn next_ready(&mut self) -> Option<usize> {
        match self.sched_mode {
            SchedMode::EventQueue => self.ready.peek_min(&self.cores),
            SchedMode::LinearScan => self.next_ready_core(),
            SchedMode::Adaptive => {
                if self.cores.len() > SchedMode::SCAN_CROSSOVER {
                    self.ready.peek_min(&self.cores)
                } else {
                    self.next_ready_core()
                }
            }
        }
    }

    /// The earliest armed timer among parked cores, used by drivers to
    /// skip idle time.
    pub fn next_timer_event(&self) -> Option<u64> {
        self.cores
            .iter()
            .filter(|c| c.run_state == RunState::Parked)
            .filter_map(|c| c.timer_cmp)
            .min()
    }

    /// Advances idle time to `cycle` (monotonic; never moves backwards).
    pub fn advance_to(&mut self, cycle: u64) {
        self.now = self.now.max(cycle);
    }

    /// Advances the global clock to `id`'s ready time (never backwards).
    ///
    /// Drivers that dispatch strictly earliest-ready-first call this at
    /// dispatch so `now()` reads are a pure function of the dispatched
    /// core's timeline — independent of how many instructions earlier
    /// engine steps batched. For such drivers the advance is exactly
    /// what the core's next timed step would do anyway.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn touch_clock(&mut self, id: usize) {
        self.now = self.now.max(self.cores[id].ready_at);
    }

    /// Adds a stall to a core (models host-kernel execution time on that
    /// core, e.g. trap handling and context-switch cost).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn stall_core(&mut self, id: usize, cycles: u64) {
        let base = self.now.max(self.cores[id].ready_at);
        self.cores[id].ready_at = base + cycles;
        self.ready.mark_dirty(id);
    }

    /// Memoised instruction decode: a direct-mapped, word-keyed cache in
    /// front of the pure `decode` function. Misses (including words that
    /// do not decode) fall through to the real decoder.
    #[inline]
    fn decode_cached(&mut self, word: u32) -> Option<Inst> {
        let idx = (word ^ word.rotate_right(16)) as usize & (DECODE_SLOTS - 1);
        if let Some((w, inst)) = self.decode_cache[idx] {
            if w == word {
                return Some(inst);
            }
        }
        match decode(word) {
            Ok(inst) => {
                self.decode_cache[idx] = Some((word, inst));
                Some(inst)
            }
            Err(_) => None,
        }
    }

    /// Steps `core` one instruction through the normal memory port.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn step_core(&mut self, id: usize) -> StepResult {
        self.step_impl(id, None)
    }

    /// Steps `core` one instruction with a caller-supplied data port
    /// (checker replay). Replay fetch bypasses the modelled I-cache: it
    /// reads through the core's L0 line buffer and the decode memo and
    /// charges no fetch cycles beyond the pipelined hit, so replay timing
    /// depends only on (start checkpoint, log stream, code bytes)
    /// (DESIGN.md §13).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn step_core_with_port(&mut self, id: usize, port: &mut dyn DataPort) -> StepResult {
        self.step_impl(id, Some(port))
    }

    fn step_impl(&mut self, id: usize, custom: Option<&mut dyn DataPort>) -> StepResult {
        if !self.cores[id].is_running() {
            return StepResult {
                kind: StepKind::Idle,
                cycles: 0,
                now: self.now,
            };
        }
        // Advance the global clock to this core's ready time. The step
        // may move `ready_at` or park the core; refresh its queue entry.
        self.ready.mark_dirty(id);
        self.now = self.now.max(self.cores[id].ready_at);
        let now = self.now;

        // Latch and (maybe) deliver a timer interrupt before fetching.
        {
            let core = &mut self.cores[id];
            if let Some(cmp) = core.timer_cmp {
                if now >= cmp {
                    core.timer_pending = true;
                }
            }
            if core.timer_interrupt_deliverable() {
                return StepResult {
                    kind: StepKind::Interrupted {
                        cause: TrapCause::MachineTimer,
                    },
                    cycles: 0,
                    now,
                };
            }
        }

        // Fetch: a pipelined front end hides the L1 hit; only the
        // penalty beyond the hit stalls the core.
        let pc = self.cores[id].state.pc;
        let (word, fetch_cycles) = self.fetch(id, pc, custom.is_some());
        let Some(inst) = self.decode_cached(word) else {
            return StepResult {
                kind: StepKind::Trap {
                    cause: TrapCause::IllegalInstruction,
                    tval: u64::from(word),
                    pc,
                },
                cycles: fetch_cycles,
                now,
            };
        };
        self.execute_retire(id, pc, inst, fetch_cycles, now, custom)
    }

    /// Executes the fetched `inst` of core `id` through the selected data
    /// port and retires it at `now`: the body shared by
    /// [`Soc::step_core`], [`Soc::step_core_with_port`] and
    /// [`Soc::run_replay_block`].
    fn execute_retire(
        &mut self,
        id: usize,
        pc: u64,
        inst: Inst,
        fetch_cycles: u64,
        now: u64,
        custom: Option<&mut dyn DataPort>,
    ) -> StepResult {
        let prv = self.cores[id].state.prv;
        let counters = CsrCounters {
            cycle: now,
            time: now,
            instret: self.cores[id].instret,
        };
        let (outcome, custom) = match custom {
            None => {
                let mem = &mut self.mem;
                let core = &mut self.cores[id];
                let mut port = SocDataPort::new(mem, id);
                (
                    execute(
                        &mut core.state,
                        &inst,
                        &counters,
                        &self.costs,
                        &mut port,
                        &mut core.resv,
                    ),
                    None,
                )
            }
            Some(port) => {
                let core = &mut self.cores[id];
                let outcome = execute(
                    &mut core.state,
                    &inst,
                    &counters,
                    &self.costs,
                    &mut *port,
                    &mut core.resv,
                );
                (outcome, Some(port))
            }
        };

        let core = &mut self.cores[id];
        match outcome {
            Ok(exec) => {
                // Forwarded control flow: a checker replaying an
                // out-of-order main consumes the branch outcome the main
                // packed into the DBC stream instead of re-predicting it.
                // A forwarded outcome disagreeing with this retirement is
                // a detection — the port aborts the instruction exactly
                // like a data-log mismatch.
                let branch_hinted = match (custom, exec.branch) {
                    (Some(port), Some(_)) => match port.branch_outcome(exec.next_pc) {
                        Ok(hinted) => hinted,
                        Err(stop) => {
                            return StepResult {
                                kind: StepKind::Stopped(stop),
                                cycles: fetch_cycles,
                                now,
                            };
                        }
                    },
                    _ => false,
                };

                // Self-modifying code: a store into a line some L0 fetch
                // buffer holds invalidates it on *every* core (cross-core
                // code patching included), so the affected cores refetch
                // through the modelled I-cache — and live memory — on
                // their next step.
                let stored_line = exec.mem.as_ref().and_then(|m| {
                    (!matches!(
                        m.kind,
                        crate::exec::MemAccessKind::Load | crate::exec::MemAccessKind::Lr
                    ))
                    .then_some(m.addr & self.fetch_line_mask)
                });
                let mem_is_load = exec.mem.as_ref().is_some_and(|m| {
                    matches!(
                        m.kind,
                        crate::exec::MemAccessKind::Load | crate::exec::MemAccessKind::Lr
                    )
                });

                // Timing: the slot's core model owns every hazard and
                // speculation decision.
                let cycles = core.model.retire(
                    &RetireInfo {
                        pc,
                        inst: &inst,
                        fetch_cycles,
                        extra_cycles: exec.extra_cycles,
                        mem_is_load,
                        branch: exec.branch,
                        branch_hinted,
                    },
                    &self.costs,
                    now,
                );

                core.instret += 1;
                if prv == PrivMode::User {
                    core.user_instret += 1;
                }
                core.busy_cycles += cycles;
                core.ready_at = now + cycles;

                if let Some(line) = stored_line {
                    for c in &mut self.cores {
                        if c.last_fetch_line == line {
                            c.last_fetch_line = u64::MAX;
                        }
                    }
                    // A store into loaded text is (potential) code
                    // patching: invalidate every cached decode run.
                    if self.line_in_text(line) {
                        self.code_epoch += 1;
                    }
                }

                StepResult {
                    kind: StepKind::Retired(Retired {
                        pc,
                        inst,
                        next_pc: exec.next_pc,
                        prv,
                        mem: exec.mem,
                        branch: exec.branch,
                        cycles,
                    }),
                    cycles,
                    now,
                }
            }
            Err(Stop::Trap { cause, tval }) => StepResult {
                kind: StepKind::Trap { cause, tval, pc },
                cycles: fetch_cycles,
                now,
            },
            Err(Stop::Flex {
                op,
                rd,
                rs1_value,
                rs2_value,
            }) => StepResult {
                kind: StepKind::Flex {
                    op,
                    rd,
                    rs1_value,
                    rs2_value,
                    pc,
                },
                cycles: fetch_cycles,
                now,
            },
            Err(Stop::Wfi) => {
                core.park();
                core.state.pc = pc.wrapping_add(4);
                StepResult {
                    kind: StepKind::Wfi,
                    cycles: 1 + fetch_cycles,
                    now,
                }
            }
            Err(Stop::Port(stop)) => StepResult {
                kind: StepKind::Stopped(stop),
                cycles: fetch_cycles,
                now,
            },
        }
    }

    /// Replays consecutive instructions of core `id` through `control`'s
    /// data port in one dispatch, on the core's local timeline — the
    /// block form of [`Soc::step_core_with_port`], sharing its fetch,
    /// execute and retire body. Each instruction's timing and
    /// architectural effect are those of its own single step; the global
    /// clock is pulled up once, at dispatch, like
    /// [`Soc::run_superblock_logged`].
    ///
    /// The block ends before an instruction that
    /// - `control` does not [admit](ReplayControl::admit);
    /// - would be dispatched at or after `horizon`;
    /// - does not decode, or is a system, FlexStep or atomic instruction;
    /// - fails: a trap, a port abort or a disagreeing forwarded branch
    ///   outcome. The attempt is undone, so the single-step path meets
    ///   the same failure at the instruction's own dispatch cycle.
    ///
    /// Returns the number retired: 0 when the core is not running, has a
    /// timer armed or pending, or its first instruction cannot run in a
    /// block — the caller then steps that instruction.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn run_replay_block<C: ReplayControl>(
        &mut self,
        id: usize,
        control: &mut C,
        horizon: u64,
    ) -> u64 {
        {
            let core = &self.cores[id];
            if !core.is_running() || core.timer_cmp.is_some() || core.timer_pending {
                return 0;
            }
        }
        self.ready.mark_dirty(id);
        self.now = self.now.max(self.cores[id].ready_at);
        let mut at = self.now;
        let mut retired = 0;
        while at < horizon && control.admit() {
            let pc = self.cores[id].state.pc;
            let (word, fetch_cycles) = self.fetch(id, pc, true);
            let Some(inst) = self.decode_cached(word) else {
                break;
            };
            if matches!(
                inst.class(),
                InstClass::System | InstClass::Flex | InstClass::Atomic
            ) {
                break;
            }
            // A forwarded outcome is checked after `execute` has moved
            // the pc and written any link register: keep the register so
            // a failed check can be undone.
            let link = match inst {
                Inst::Jal { rd, .. } | Inst::Jalr { rd, .. } => {
                    Some((rd, self.cores[id].state.x(rd)))
                }
                _ => None,
            };
            let step = self.execute_retire(id, pc, inst, fetch_cycles, at, Some(control.port()));
            if !matches!(step.kind, StepKind::Retired(_)) {
                let state = &mut self.cores[id].state;
                state.pc = pc;
                if let Some((rd, value)) = link {
                    state.set_x(rd, value);
                }
                break;
            }
            control.retired(step.cycles);
            retired += 1;
            at = self.cores[id].ready_at;
        }
        retired
    }

    /// Fetches the instruction word at `pc` for core `id`: the word and
    /// the fetch cycles charged beyond the pipelined L1 hit.
    ///
    /// L0 fast path: a fetch from the line fetched immediately before is
    /// a guaranteed L1 hit (nothing can evict it in between — the I-cache
    /// is only mutated by this core's own fetches and is not snooped),
    /// and skipping its LRU refresh cannot change any replacement
    /// decision because no other line in the set was touched since.
    /// Timing and replacement stay bit-exact.
    ///
    /// Replay fetches never touch the modelled I-cache: the checker
    /// re-runs code its main core executed moments ago, so its I-side is
    /// treated as always-hit (0 cycles beyond the pipelined hit). This
    /// makes per-segment replay timing a pure function of (start
    /// checkpoint, log stream, code bytes) — the property the
    /// segment-verdict memo needs — and is why a checker's L1I stays cold
    /// (DESIGN.md §13).
    #[inline]
    fn fetch(&mut self, id: usize, pc: u64, replay: bool) -> (u32, u64) {
        let line = pc & self.fetch_line_mask;
        if self.cores[id].last_fetch_line == line {
            let w = if self.line_buf_ok {
                self.cores[id].line_buf[(pc as usize >> 2) & 15]
            } else {
                self.mem.phys().read_u32(pc)
            };
            (w, 0)
        } else if replay {
            self.refill_line_buf(id, line);
            if self.line_buf_ok {
                (self.cores[id].line_buf[(pc as usize >> 2) & 15], 0)
            } else {
                (self.mem.phys().read_u32(pc), 0)
            }
        } else {
            let (word, fetch_total) = self.mem.fetch(id, pc);
            self.refill_line_buf(id, line);
            (word, fetch_total.saturating_sub(self.mem.latency().l1_hit))
        }
    }

    /// Makes `line` core `id`'s last fetched line, copying its words into
    /// the L0 line buffer when the buffer covers a whole line.
    #[inline]
    fn refill_line_buf(&mut self, id: usize, line: u64) {
        self.cores[id].last_fetch_line = line;
        if self.line_buf_ok {
            let phys = self.mem.phys();
            let core = &mut self.cores[id];
            for (i, slot) in core.line_buf.iter_mut().enumerate() {
                *slot = phys.read_u32(line + 4 * i as u64);
            }
        }
    }

    /// Completes a [`StepKind::Flex`] instruction on behalf of the
    /// platform: writes `rd` and advances `pc` past the instruction,
    /// charging one cycle.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn complete_flex(&mut self, id: usize, rd: XReg, value: u64) {
        let core = &mut self.cores[id];
        core.state.set_x(rd, value);
        core.state.pc = core.state.pc.wrapping_add(4);
        core.instret += 1;
        core.busy_cycles += 1;
        core.ready_at = self.now.max(core.ready_at) + 1;
        self.ready.mark_dirty(id);
    }

    /// Whether `inst` may be folded into a superblock: straight-line,
    /// non-atomic, non-system work whose timing has no control-flow
    /// component and whose semantics read no live counters.
    fn block_eligible(inst: &Inst) -> bool {
        matches!(
            inst.class(),
            InstClass::Alu | InstClass::MulDiv | InstClass::Load | InstClass::Store | InstClass::Fp
        )
    }

    /// Builds the superblock starting at `pc` into its slot. Metadata
    /// only: words are read straight from physical memory with no timing
    /// or cache effects — execution charges fetches per instruction,
    /// exactly like stepping.
    fn build_block(&mut self, pc: u64) -> usize {
        let slot = ((pc >> 2) as usize) & (BLOCK_SLOTS - 1);
        let mut insts = Vec::new();
        let mut at = pc;
        while insts.len() < BLOCK_MAX {
            let word = self.mem.phys().read_u32(at);
            match self.decode_cached(word) {
                Some(inst) if Self::block_eligible(&inst) => insts.push(inst),
                _ => break,
            }
            at += 4;
        }
        self.block_cache[slot] = Some(Superblock {
            pc,
            epoch: self.code_epoch,
            insts,
        });
        slot
    }

    /// Executes the superblock at `id`'s pc, if any, retiring at most
    /// `budget` instructions without re-entering the step loop between
    /// them. Returns the retire count (0 when the next instruction is
    /// not block-eligible). Per-instruction timing — fetch path, hazard
    /// interlock, functional-unit costs — is identical to
    /// [`Soc::step_core`]; a trap mid-block commits nothing and leaves
    /// the faulting instruction for the step loop to classify. Single
    /// driver only (used by [`Soc::run_to_ecall`]): it does not
    /// interleave with other cores.
    fn run_superblock(&mut self, id: usize, budget: u64) -> u64 {
        self.run_superblock_logged(id, budget, |_| {})
    }

    /// `Soc::run_superblock` with a per-retire observation sink: after
    /// each committed instruction `sink` receives the retiring memory
    /// access (if any), letting a platform log the block's accesses
    /// exactly as it would log individual [`StepKind::Retired`] steps.
    /// Returns 0 (and runs nothing) when superblock dispatch is
    /// disabled, the core is parked, or a timer is armed — callers fall
    /// back to single-stepping.
    pub fn run_superblock_logged<F>(&mut self, id: usize, budget: u64, mut sink: F) -> u64
    where
        F: FnMut(Option<&MemAccess>),
    {
        if !self.superblocks {
            return 0;
        }
        {
            let core = &self.cores[id];
            if !core.is_running() || core.timer_cmp.is_some() || core.timer_pending {
                return 0;
            }
        }
        let pc0 = self.cores[id].state.pc;
        let slot = ((pc0 >> 2) as usize) & (BLOCK_SLOTS - 1);
        let slot = match &self.block_cache[slot] {
            Some(b) if b.pc == pc0 && b.epoch == self.code_epoch => slot,
            _ => self.build_block(pc0),
        };
        let block = self.block_cache[slot].take().expect("slot just filled");
        self.ready.mark_dirty(id);
        let prv = self.cores[id].state.prv;
        let epoch0 = self.code_epoch;
        let mut retired = 0u64;
        // The block advances this core's *local* timeline; the global
        // clock is pulled up once, at dispatch (exactly what the first
        // single step would do). Dispatch order is earliest-ready, so
        // dragging `self.now` through the whole block would warp
        // earlier-ready cores' timelines forward past their own ready
        // times and make engine-step interleaving observable.
        self.now = self.now.max(self.cores[id].ready_at);
        let mut local_now = self.now;
        for inst in &block.insts {
            if retired >= budget {
                break;
            }
            // Clock advance, fetch, execute, timing: the step_impl
            // sequence minus dispatch (no timer is armed — guarded
            // above — so the latch step_impl performs is a no-op here).
            local_now = local_now.max(self.cores[id].ready_at);
            let now = local_now;
            let pc = self.cores[id].state.pc;
            let line = pc & self.fetch_line_mask;
            let fetch_cycles = if self.cores[id].last_fetch_line == line {
                0
            } else {
                let (_, fetch_total) = self.mem.fetch(id, pc);
                self.refill_line_buf(id, line);
                fetch_total.saturating_sub(self.mem.latency().l1_hit)
            };
            let counters = CsrCounters {
                cycle: now,
                time: now,
                instret: self.cores[id].instret,
            };
            let outcome = {
                let mem = &mut self.mem;
                let core = &mut self.cores[id];
                let mut port = SocDataPort::new(mem, id);
                execute(
                    &mut core.state,
                    inst,
                    &counters,
                    &self.costs,
                    &mut port,
                    &mut core.resv,
                )
            };
            let exec = match outcome {
                Ok(e) => e,
                // State is unmodified on a stop; the step loop
                // re-executes and classifies the instruction.
                Err(_) => break,
            };
            debug_assert!(exec.branch.is_none(), "control flow is never in-block");
            let core = &mut self.cores[id];
            let stored_line = exec.mem.as_ref().and_then(|m| {
                (!matches!(
                    m.kind,
                    crate::exec::MemAccessKind::Load | crate::exec::MemAccessKind::Lr
                ))
                .then_some(m.addr & self.fetch_line_mask)
            });
            let mem_is_load = exec.mem.as_ref().is_some_and(|m| {
                matches!(
                    m.kind,
                    crate::exec::MemAccessKind::Load | crate::exec::MemAccessKind::Lr
                )
            });
            let cycles = core.model.retire(
                &RetireInfo {
                    pc,
                    inst,
                    fetch_cycles,
                    extra_cycles: exec.extra_cycles,
                    mem_is_load,
                    branch: None,
                    branch_hinted: false,
                },
                &self.costs,
                now,
            );
            core.instret += 1;
            if prv == PrivMode::User {
                core.user_instret += 1;
            }
            core.busy_cycles += cycles;
            core.ready_at = now + cycles;
            retired += 1;
            sink(exec.mem.as_ref());
            if let Some(line) = stored_line {
                for c in &mut self.cores {
                    if c.last_fetch_line == line {
                        c.last_fetch_line = u64::MAX;
                    }
                }
                if self.line_in_text(line) {
                    self.code_epoch += 1;
                }
            }
            // A store into text stales this block's decoded run.
            if self.code_epoch != epoch0 {
                break;
            }
        }
        self.block_cache[slot] = Some(block);
        retired
    }

    /// Runs a single program on core 0 until it traps with an `ecall`,
    /// up to `max_instructions`. A convenience harness for tests and
    /// single-core experiments; returns the retire count. Straight-line
    /// runs dispatch as superblocks (see [`Soc::set_superblocks`]);
    /// timing is identical to pure stepping.
    ///
    /// # Panics
    ///
    /// Panics if the program faults with anything other than an `ecall`.
    pub fn run_to_ecall(&mut self, program: &Program, max_instructions: u64) -> u64 {
        self.load_program(program);
        let core = self.core_mut(0);
        core.state.pc = program.entry;
        core.state.prv = PrivMode::User;
        core.unpark();
        let mut retired = 0;
        while retired < max_instructions {
            if self.superblocks {
                retired += self.run_superblock(0, max_instructions - retired);
                if retired >= max_instructions {
                    break;
                }
            }
            match self.step_core(0).kind {
                StepKind::Retired(_) => retired += 1,
                StepKind::Trap {
                    cause: TrapCause::EcallFromU,
                    ..
                } => {
                    self.core_mut(0).park();
                    return retired;
                }
                other => panic!("unexpected stop while running {}: {other:?}", program.name),
            }
        }
        retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexstep_isa::asm::Assembler;
    use flexstep_isa::inst::IntOp;

    fn sum_program(n: i64) -> Program {
        let mut asm = Assembler::new("sum");
        asm.li(XReg::A0, 0);
        asm.li(XReg::A1, n);
        asm.label("loop").unwrap();
        asm.add(XReg::A0, XReg::A0, XReg::A1);
        asm.addi(XReg::A1, XReg::A1, -1);
        asm.bnez(XReg::A1, "loop");
        asm.ecall();
        asm.finish().unwrap()
    }

    #[test]
    fn runs_loop_to_completion() {
        let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
        let p = sum_program(10);
        let retired = soc.run_to_ecall(&p, 1_000_000);
        assert_eq!(soc.core(0).state.x(XReg::A0), 55);
        // 2 li + 10 iterations of 3 instructions.
        assert_eq!(retired, 2 + 30);
        assert!(soc.now() > retired, "timing must include stalls");
    }

    #[test]
    fn user_instret_counts_only_user_mode() {
        let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
        let p = sum_program(3);
        soc.run_to_ecall(&p, 1000);
        assert_eq!(soc.core(0).instret, soc.core(0).user_instret);
    }

    #[test]
    fn illegal_instruction_reports_trap() {
        let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
        soc.mem.phys_mut().write_u32(0x1000, 0xFFFF_FFFF);
        let core = soc.core_mut(0);
        core.state.pc = 0x1000;
        core.unpark();
        let r = soc.step_core(0);
        assert!(matches!(
            r.kind,
            StepKind::Trap {
                cause: TrapCause::IllegalInstruction,
                ..
            }
        ));
    }

    #[test]
    fn idle_core_does_not_step() {
        let mut soc = Soc::new(SocConfig::paper(2)).unwrap();
        assert_eq!(soc.step_core(1).kind, StepKind::Idle);
    }

    #[test]
    fn timer_interrupt_preempts_before_execute() {
        let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
        let p = sum_program(100_000);
        soc.load_program(&p);
        let core = soc.core_mut(0);
        core.state.pc = p.entry;
        core.state.prv = PrivMode::User;
        core.unpark();
        core.set_timer(500);
        let mut interrupted = false;
        for _ in 0..10_000 {
            match soc.step_core(0).kind {
                StepKind::Interrupted {
                    cause: TrapCause::MachineTimer,
                } => {
                    interrupted = true;
                    break;
                }
                StepKind::Retired(_) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(interrupted, "timer must fire");
        assert!(soc.now() >= 500);
    }

    #[test]
    fn next_ready_core_orders_by_time() {
        let mut soc = Soc::new(SocConfig::paper(2)).unwrap();
        soc.core_mut(0).unpark();
        soc.core_mut(1).unpark();
        soc.core_mut(0).ready_at = 100;
        soc.core_mut(1).ready_at = 50;
        assert_eq!(soc.next_ready_core(), Some(1));
        soc.core_mut(1).park();
        assert_eq!(soc.next_ready_core(), Some(0));
        soc.core_mut(0).park();
        assert_eq!(soc.next_ready_core(), None);
    }

    #[test]
    fn event_queue_matches_linear_scan() {
        let mut soc = Soc::new(SocConfig::paper(3)).unwrap();
        assert_eq!(soc.next_ready(), None);
        soc.core_mut(0).unpark();
        soc.core_mut(1).unpark();
        soc.core_mut(2).unpark();
        soc.core_mut(0).ready_at = 30;
        soc.core_mut(1).ready_at = 10;
        soc.core_mut(2).ready_at = 10;
        for _ in 0..4 {
            assert_eq!(soc.next_ready(), soc.next_ready_core());
            let id = soc.next_ready().unwrap();
            soc.stall_core(id, 25);
        }
        soc.core_mut(1).park();
        assert_eq!(soc.next_ready(), soc.next_ready_core());
        soc.set_sched_mode(SchedMode::LinearScan);
        assert_eq!(soc.next_ready(), soc.next_ready_core());
    }

    #[test]
    fn stall_core_adds_kernel_time() {
        let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
        soc.stall_core(0, 300);
        assert_eq!(soc.core(0).ready_at, 300);
    }

    #[test]
    fn complete_flex_advances_pc_and_writes_rd() {
        let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
        soc.core_mut(0).state.pc = 0x1000;
        soc.complete_flex(0, XReg::A0, 7);
        assert_eq!(soc.core(0).state.pc, 0x1004);
        assert_eq!(soc.core(0).state.x(XReg::A0), 7);
    }

    #[test]
    fn load_use_hazard_costs_extra_cycle() {
        // ld a0, 0(sp); add a1, a0, a0  -> interlock
        let mut asm = Assembler::new("hazard");
        asm.li(XReg::SP, 0x2000);
        asm.ld(XReg::A0, XReg::SP, 0);
        asm.push(Inst::Op {
            op: IntOp::Add,
            rd: XReg::A1,
            rs1: XReg::A0,
            rs2: XReg::A0,
        });
        asm.ecall();
        let p = asm.finish().unwrap();

        // Same shape, but the add does not consume the loaded value.
        let mut asm = Assembler::new("no_hazard");
        asm.li(XReg::SP, 0x2000);
        asm.ld(XReg::A0, XReg::SP, 0);
        asm.push(Inst::Op {
            op: IntOp::Add,
            rd: XReg::A1,
            rs1: XReg::T1,
            rs2: XReg::T1,
        });
        asm.ecall();
        let p2 = asm.finish().unwrap();

        let mut s1 = Soc::new(SocConfig::paper(1)).unwrap();
        s1.run_to_ecall(&p, 100);
        let mut s2 = Soc::new(SocConfig::paper(1)).unwrap();
        s2.run_to_ecall(&p2, 100);
        let d = s1.now() as i64 - s2.now() as i64;
        assert_eq!(d, 1, "dependent use directly after a load stalls one cycle");
    }

    #[test]
    fn superblocks_match_stepping_exactly() {
        // Straight-line ALU/load/store runs interleaved with branches; a
        // load-use interlock sits inside the block. Superblock dispatch
        // must be cycle- and state-exact against pure stepping.
        let mut asm = Assembler::new("blocks");
        asm.li(XReg::SP, 0x2000);
        asm.li(XReg::A1, 500);
        asm.label("loop").unwrap();
        for i in 0..6 {
            asm.addi(XReg::A0, XReg::A0, i);
        }
        asm.sd(XReg::SP, XReg::A0, 0);
        asm.ld(XReg::A2, XReg::SP, 0);
        asm.push(Inst::Op {
            op: IntOp::Add,
            rd: XReg::A3,
            rs1: XReg::A2,
            rs2: XReg::A2,
        });
        asm.addi(XReg::A1, XReg::A1, -1);
        asm.bnez(XReg::A1, "loop");
        asm.ecall();
        let p = asm.finish().unwrap();
        let run = |blocks: bool| {
            let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
            soc.set_superblocks(blocks);
            let retired = soc.run_to_ecall(&p, 1_000_000);
            (
                retired,
                soc.now(),
                soc.core(0).instret,
                soc.core(0).state.snapshot(),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn code_epoch_bumps_on_store_into_text_not_data() {
        let mut asm = Assembler::new("data_store");
        asm.li(XReg::A0, 0x2000);
        asm.sd(XReg::A0, XReg::A1, 0);
        asm.ecall();
        let p = asm.finish().unwrap();
        let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
        soc.run_to_ecall(&p, 100);
        assert_eq!(
            soc.code_epoch(),
            1,
            "only the program load bumps the epoch; data stores do not"
        );

        let mut asm = Assembler::new("text_store");
        asm.li(XReg::A0, 0x3000);
        asm.sd(XReg::A0, XReg::A1, 0);
        asm.ecall();
        let p2 = asm.finish().unwrap();
        // Aim the store into the loaded text image instead.
        let mut asm = Assembler::new("text_store2");
        asm.li(XReg::A0, p2.text_base as i64);
        asm.sd(XReg::A0, XReg::A1, 0);
        asm.ecall();
        let p3 = asm.finish().unwrap();
        let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
        soc.run_to_ecall(&p3, 100);
        assert_eq!(
            soc.code_epoch(),
            2,
            "a store into text is code patching and bumps the epoch"
        );
    }

    /// Replay control over a stub port: loads read 7, stores are
    /// accepted, and every forwarded branch outcome disagrees when
    /// `diverge` is set. Admits up to `budget` instructions.
    #[derive(Default)]
    struct StubReplay {
        budget: usize,
        diverge: bool,
        accesses: u64,
        retired: Vec<u64>,
    }

    impl DataPort for StubReplay {
        fn read(&mut self, _: u64, _: u8) -> Result<(u64, u64), PortStop> {
            self.accesses += 1;
            Ok((7, 0))
        }
        fn write(&mut self, _: u64, _: u64, _: u8) -> Result<u64, PortStop> {
            self.accesses += 1;
            Ok(0)
        }
        fn store_conditional(
            &mut self,
            _: u64,
            _: u64,
            _: u8,
            _: bool,
        ) -> Result<(bool, u64), PortStop> {
            Ok((true, 0))
        }
        fn amo(
            &mut self,
            _: u64,
            _: flexstep_isa::inst::AmoWidth,
            _: flexstep_isa::inst::AmoOp,
            _: u64,
        ) -> Result<(u64, u64), PortStop> {
            Ok((0, 0))
        }
        fn branch_outcome(&mut self, _: u64) -> Result<bool, PortStop> {
            if self.diverge {
                Err(PortStop::new("diverged"))
            } else {
                Ok(false)
            }
        }
    }

    impl ReplayControl for StubReplay {
        fn port(&mut self) -> &mut dyn DataPort {
            self
        }
        fn admit(&mut self) -> bool {
            self.retired.len() < self.budget
        }
        fn retired(&mut self, cycles: u64) {
            self.retired.push(cycles);
        }
    }

    /// Loads, stores, branches and calls: a replayable user loop.
    fn replay_program() -> Program {
        let mut asm = Assembler::new("replay");
        asm.li(XReg::SP, 0x2000);
        asm.li(XReg::A1, 50);
        asm.label("loop").unwrap();
        asm.ld(XReg::A0, XReg::SP, 0);
        asm.add(XReg::A2, XReg::A2, XReg::A0);
        asm.sd(XReg::SP, XReg::A2, 8);
        asm.call("f");
        asm.addi(XReg::A1, XReg::A1, -1);
        asm.bnez(XReg::A1, "loop");
        asm.ecall();
        asm.label("f").unwrap();
        asm.addi(XReg::A3, XReg::A3, 1);
        asm.ret();
        asm.finish().unwrap()
    }

    /// Instructions before `replay_program`'s loop.
    fn prologue_len(p: &Program) -> u64 {
        (p.symbol("loop").unwrap() - p.entry) / 4
    }

    fn replay_soc(p: &Program) -> Soc {
        let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
        soc.load_program(p);
        let core = soc.core_mut(0);
        core.state.pc = p.entry;
        core.state.prv = PrivMode::User;
        core.unpark();
        soc
    }

    #[test]
    fn replay_block_retires_each_instruction_like_its_single_step() {
        let p = replay_program();
        let mut stepped = replay_soc(&p);
        let mut port = StubReplay::default();
        let mut cycles = Vec::new();
        for _ in 0..120 {
            let r = stepped.step_core_with_port(0, &mut port);
            assert!(matches!(r.kind, StepKind::Retired(_)), "{r:?}");
            cycles.push(r.cycles);
        }
        let mut blocked = replay_soc(&p);
        let mut control = StubReplay {
            budget: 120,
            ..StubReplay::default()
        };
        assert_eq!(blocked.run_replay_block(0, &mut control, u64::MAX), 120);
        assert_eq!(control.retired, cycles, "per-instruction charges");
        assert_eq!(control.accesses, port.accesses);
        let (a, b) = (stepped.core(0), blocked.core(0));
        assert_eq!((a.ready_at, a.instret), (b.ready_at, b.instret));
        assert_eq!(a.state.snapshot(), b.state.snapshot());
        assert_eq!(blocked.now(), 0, "the global clock stays at dispatch");
    }

    #[test]
    fn replay_block_stops_at_the_horizon_and_before_system_instructions() {
        let p = replay_program();
        let mut soc = replay_soc(&p);
        let mut control = StubReplay {
            budget: usize::MAX,
            ..StubReplay::default()
        };
        let horizon = 40;
        let n = soc.run_replay_block(0, &mut control, horizon) as usize;
        let last_dispatch: u64 = control.retired[..n - 1].iter().sum();
        assert!(
            last_dispatch < horizon,
            "every instruction dispatched before it"
        );
        assert!(
            soc.core(0).ready_at >= horizon,
            "the next one would reach it"
        );
        assert_eq!(
            soc.run_replay_block(0, &mut control, 0),
            0,
            "horizon 0 replays nothing"
        );

        // Without a horizon the block runs the whole loop (8 instructions
        // an iteration, the call included) and stops before the `ecall`.
        let mut soc = replay_soc(&p);
        let n = soc.run_replay_block(0, &mut control, u64::MAX);
        assert_eq!(n, prologue_len(&p) + 50 * 8);
        assert!(matches!(
            soc.step_core_with_port(0, &mut control).kind,
            StepKind::Trap {
                cause: TrapCause::EcallFromU,
                ..
            }
        ));
    }

    #[test]
    fn replay_block_leaves_counter_reads_and_atomics_to_single_steps() {
        use flexstep_isa::inst::{AmoOp, AmoWidth, CsrOp};
        let mut asm = Assembler::new("gates");
        asm.addi(XReg::A1, XReg::A1, 8);
        asm.push(Inst::Csr {
            op: CsrOp::Rs,
            rd: XReg::A0,
            src: 0,
            csr: flexstep_isa::csr::CYCLE,
        });
        asm.addi(XReg::A2, XReg::A2, 1);
        asm.push(Inst::Amo {
            op: AmoOp::Add,
            width: AmoWidth::D,
            rd: XReg::A3,
            rs1: XReg::A1,
            rs2: XReg::A2,
        });
        asm.addi(XReg::A2, XReg::A2, 1);
        asm.ecall();
        let p = asm.finish().unwrap();
        let mut soc = replay_soc(&p);
        let mut control = StubReplay {
            budget: usize::MAX,
            ..StubReplay::default()
        };
        // Each block runs one `addi` and stops before the next system
        // or atomic instruction, which the single-step path retires.
        for _ in 0..2 {
            assert_eq!(soc.run_replay_block(0, &mut control, u64::MAX), 1);
            let step = soc.step_core_with_port(0, &mut control);
            assert!(matches!(step.kind, StepKind::Retired(_)), "{step:?}");
        }
        assert_eq!(soc.run_replay_block(0, &mut control, u64::MAX), 1);
        assert_eq!(soc.core(0).instret, 5);
    }

    #[test]
    fn a_rejected_branch_outcome_is_undone() {
        let p = replay_program();
        let mut soc = replay_soc(&p);
        let mut control = StubReplay {
            budget: usize::MAX,
            diverge: true,
            ..StubReplay::default()
        };
        // The prologue and the loop head up to the call retire; the
        // call's forwarded outcome disagrees, so it is undone and left
        // for a single step.
        let before_call = prologue_len(&p) + 3;
        assert_eq!(soc.run_replay_block(0, &mut control, u64::MAX), before_call);
        assert_eq!(soc.core(0).state.pc, p.entry + 4 * before_call);
        assert_eq!(soc.core(0).state.x(XReg::RA), 0, "link register restored");
        assert_eq!(soc.core(0).instret, before_call);
        let step = soc.step_core_with_port(0, &mut control);
        assert!(matches!(step.kind, StepKind::Stopped(_)), "{step:?}");
    }

    #[test]
    fn charge_replay_retire_matches_step_bookkeeping() {
        let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
        soc.core_mut(0).unpark();
        soc.core_mut(0).ready_at = 40;
        soc.charge_replay_retire(0, 3);
        assert_eq!(soc.now(), 40);
        assert_eq!(soc.core(0).ready_at, 43);
        assert_eq!(soc.core(0).instret, 1);
        assert_eq!(soc.core(0).user_instret, 1);
    }

    #[test]
    fn pipelined_l1_hits_reach_cpi_near_one() {
        // A hot ALU loop: after warm-up, fetch hits are hidden by the
        // pipeline, so per-instruction cost approaches 1 cycle plus the
        // (correctly predicted) loop branch.
        let mut asm = Assembler::new("alu_loop");
        asm.li(XReg::A1, 2000);
        asm.label("loop").unwrap();
        for _ in 0..14 {
            asm.addi(XReg::A0, XReg::A0, 1);
        }
        asm.addi(XReg::A1, XReg::A1, -1);
        asm.bnez(XReg::A1, "loop");
        asm.ecall();
        let p = asm.finish().unwrap();
        let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
        let retired = soc.run_to_ecall(&p, 100_000);
        let cpi = soc.now() as f64 / retired as f64;
        assert!(cpi < 1.1, "hot-loop CPI should be near 1, got {cpi}");
    }
}
