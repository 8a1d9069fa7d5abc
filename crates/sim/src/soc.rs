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
use crate::core::Core;
use crate::exec::{execute, BranchOutcome, MemAccess, MemAccessKind, Stop};
use crate::hart::{CsrCounters, PrivMode, TrapCause};
use crate::model::{CoreModel, RetireInfo};
use crate::port::{DataPort, PortStop, ReplayControl, SocDataPort};
use crate::timing::{Clock, ExecCosts};
use flexstep_isa::asm::Program;
use flexstep_isa::decode::decode;
use flexstep_isa::inst::{FlexOp, Inst, InstClass};
use flexstep_isa::XReg;
use flexstep_mem::cache::CacheGeometryError;
use flexstep_mem::{AccessKind, MemoryConfig, MemorySystem};
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

/// Most instructions one dispatch executes as a block: a main block
/// ([`Soc::run_main_block`]) or a checker replay block
/// ([`Soc::run_replay_block`]). The cap only bounds one dispatch's host
/// time, so dispatches stay comparable in cost; longer runs simply take
/// several blocks.
pub const BLOCK_INSTS: u64 = 32;

/// A loaded program's text, decoded once: `insts[i]` is the instruction
/// at `base + 4 * i`, `None` where the word does not decode.
struct TextImage {
    base: u64,
    insts: Vec<Option<Inst>>,
}

impl TextImage {
    /// The decoded instruction at `pc`, or `None` when `pc` is not one of
    /// the image's words.
    #[inline]
    fn get(&self, pc: u64) -> Option<Option<Inst>> {
        let offset = pc.wrapping_sub(self.base);
        let index = offset.is_multiple_of(4).then_some(offset / 4)?;
        self.insts.get(index as usize).copied()
    }

    fn end(&self) -> u64 {
        self.base + 4 * self.insts.len() as u64
    }
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
    /// Mask selecting the I-cache line address of a pc (L0 fetch path).
    fetch_line_mask: u64,
    /// Bumped whenever executable text may have changed: on
    /// [`Soc::load_program`] and on any store into an I-cache line of a
    /// loaded text image. Consumers caching per-segment verdicts (the
    /// FlexStep segment-verdict memo) key their entries on this epoch.
    /// Writes through `mem.phys_mut()` bypass it.
    code_epoch: u64,
    /// Every loaded program's text, decoded at [`Soc::load_program`] and
    /// decoded again where a store lands in it. Fetch reads instructions
    /// from here; text outside every image is read and decoded per fetch.
    images: Vec<TextImage>,
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
            cores,
            mem,
            clock: config.clock,
            costs: config.costs,
            bpred_cfg: config.bpred,
            now: 0,
            fetch_line_mask: !(config.mem.l1i.line_bytes as u64 - 1),
            code_epoch: 0,
            images: Vec::new(),
        })
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
    }

    /// Loads a program image into physical memory (no cache effects; call
    /// [`MemorySystem::flush_all`] when reloading over a live system) and
    /// decodes its text once, for every later fetch.
    pub fn load_program(&mut self, program: &Program) {
        let (base, len) = (program.text_base, program.text.len());
        self.mem.phys_mut().load_words(base, &program.text);
        self.mem.phys_mut().load(program.data_base, &program.data);
        // A reload at the same base keeps a longer image's tail, which
        // memory still holds.
        match self.images.iter_mut().find(|image| image.base == base) {
            Some(image) => image.insts.resize(len.max(image.insts.len()), None),
            None => self.images.push(TextImage {
                base,
                insts: vec![None; len],
            }),
        }
        // Either segment may overlap text loaded earlier.
        self.decode_again(base, program.text_end());
        self.decode_again(program.data_base, program.data_end());
        for core in &mut self.cores {
            core.last_fetch_line = u64::MAX;
        }
        self.code_epoch += 1;
    }

    /// The code-write epoch: bumped on [`Soc::load_program`] and on any
    /// store into an I-cache line of a loaded text image. Anything
    /// caching state derived from the code (the FlexStep segment-verdict
    /// memo) must key on this value. Direct writes through
    /// `mem.phys_mut()` bypass both the epoch and the decoded text image:
    /// fetch keeps executing the words decoded at load, so callers
    /// patching code that way must reload via `load_program`.
    pub fn code_epoch(&self) -> u64 {
        self.code_epoch
    }

    /// Decodes again, from memory, every image word overlapping
    /// `[start, end)`.
    fn decode_again(&mut self, start: u64, end: u64) {
        let phys = self.mem.phys();
        for image in &mut self.images {
            let first = start.max(image.base);
            let mut at = first - (first - image.base) % 4;
            while at < end.min(image.end()) {
                image.insts[((at - image.base) / 4) as usize] = decode(phys.read_u32(at)).ok();
                at += 4;
            }
        }
    }

    /// Bookkeeping after an access retires: a store (plain, SC or AMO,
    /// live or replayed) makes every core fetching from its line refetch
    /// through the modelled I-cache — cross-core code patching included —
    /// and a store into a line of loaded text is code patching: it bumps
    /// the code epoch and decodes the stored words again.
    fn after_access(&mut self, access: Option<&MemAccess>) {
        let Some(store) = access.filter(|m| !is_load(m)) else {
            return;
        };
        let line = store.addr & self.fetch_line_mask;
        for c in &mut self.cores {
            if c.last_fetch_line == line {
                c.last_fetch_line = u64::MAX;
            }
        }
        let line_end = line | !self.fetch_line_mask;
        if self
            .images
            .iter()
            .any(|image| line_end >= image.base && line < image.end())
        {
            self.code_epoch += 1;
            self.decode_again(store.addr, store.addr.saturating_add(u64::from(store.size)));
        }
    }

    /// Charges `count` replayed retires totalling `total_cycles` to
    /// `core` without executing anything: counts `count` (user-mode)
    /// retirements and schedules the core `total_cycles` later — the
    /// timing bookkeeping [`Soc::step_core_with_port`] performs for
    /// retired instructions. Used by the FlexStep engine to charge a
    /// memoized checker segment in one dispatch. The core's local
    /// timeline advances exactly as `count` single charges would advance
    /// it; the global clock is only pulled up to the core's *current*
    /// ready time (what the first single charge would do), never to the
    /// end of the segment — dispatch order is earliest-ready, so dragging
    /// `now` through the whole segment would warp other cores' timelines
    /// forward past their own ready times.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn charge_replay_retires(&mut self, id: usize, count: u64, total_cycles: u64) {
        self.now = self.now.max(self.cores[id].ready_at);
        let core = &mut self.cores[id];
        core.instret += count;
        core.user_instret += count;
        core.busy_cycles += total_cycles;
        core.ready_at = self.now + total_cycles;
    }

    /// The earliest-ready running core (ties to the lowest id), or `None`
    /// if no core is running: one scan over the cores per dispatch.
    #[inline]
    pub fn next_ready(&self) -> Option<usize> {
        // `min_by_key` keeps the first of equal keys and the cores are
        // stored in id order, so ties go to the lowest id. A
        // `(ready_at, id)` key picks the same core at half the speed.
        self.cores
            .iter()
            .filter(|c| c.is_running())
            .min_by_key(|c| c.ready_at)
            .map(|c| c.id)
    }

    /// Alias of [`Soc::next_ready`] under its older name, which
    /// `perfbench`'s tracer still calls.
    pub fn next_ready_core(&self) -> Option<usize> {
        self.next_ready()
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
    /// reads the decoded text image and charges no fetch cycles beyond
    /// the pipelined hit, so replay timing depends only on (start
    /// checkpoint, log stream, code bytes) (DESIGN.md §13).
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
        let fetch_cycles = self.fetch_cycles(id, pc, custom.is_some());
        let Some(inst) = self.inst_at(id, pc) else {
            return StepResult {
                kind: StepKind::Trap {
                    cause: TrapCause::IllegalInstruction,
                    tval: u64::from(self.mem.phys().read_u32(pc)),
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
        let replay = custom.is_some();
        let mut soc_port;
        let port: &mut dyn DataPort = match custom {
            Some(port) => port,
            None => {
                soc_port = SocDataPort::new(&mut self.mem, id);
                &mut soc_port
            }
        };
        let core = &mut self.cores[id];
        let outcome = execute(
            &mut core.state,
            &inst,
            &counters,
            &self.costs,
            port,
            &mut core.resv,
        );
        match outcome {
            Ok(exec) => {
                // Forwarded control flow: a checker replaying an
                // out-of-order main consumes the branch outcome the main
                // packed into the DBC stream instead of re-predicting it.
                // A forwarded outcome disagreeing with this retirement is
                // a detection — the port aborts the instruction exactly
                // like a data-log mismatch.
                let branch_hinted = match exec.branch {
                    Some(_) if replay => match port.branch_outcome(exec.next_pc) {
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

                // Timing: the slot's core model owns every hazard and
                // speculation decision.
                let cycles = core.model.retire(
                    &RetireInfo {
                        pc,
                        inst: &inst,
                        fetch_cycles,
                        extra_cycles: exec.extra_cycles,
                        mem_is_load: exec.mem.as_ref().is_some_and(is_load),
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
                self.after_access(exec.mem.as_ref());

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
    /// [`Soc::run_main_block`].
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
        let core = &self.cores[id];
        if !core.is_running() || core.timer_cmp.is_some() || core.timer_pending {
            return 0;
        }
        self.now = self.now.max(self.cores[id].ready_at);
        let mut at = self.now;
        let mut retired = 0;
        while at < horizon && control.admit() {
            let pc = self.cores[id].state.pc;
            let fetch_cycles = self.fetch_cycles(id, pc, true);
            let Some(inst) = self.inst_at(id, pc) else {
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

    /// Charges core `id`'s fetch of `pc`: the cycles beyond the pipelined
    /// L1 hit.
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
    fn fetch_cycles(&mut self, id: usize, pc: u64, replay: bool) -> u64 {
        let line = pc & self.fetch_line_mask;
        if self.cores[id].last_fetch_line == line {
            return 0;
        }
        self.cores[id].last_fetch_line = line;
        if replay {
            return 0;
        }
        let (_, fetch_total) = self.mem.fetch(id, pc);
        fetch_total.saturating_sub(self.mem.latency().l1_hit)
    }

    /// The instruction at `pc` (`None` if its word does not decode): from
    /// the text image core `id` last fetched from, else from any loaded
    /// image, else read from memory and decoded.
    #[inline]
    fn inst_at(&mut self, id: usize, pc: u64) -> Option<Inst> {
        let hint = self.cores[id].image;
        if let Some(inst) = self.images.get(hint).and_then(|image| image.get(pc)) {
            return inst;
        }
        for (i, image) in self.images.iter().enumerate() {
            if let Some(inst) = image.get(pc) {
                self.cores[id].image = i;
                return inst;
            }
        }
        decode(self.mem.phys().read_u32(pc)).ok()
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
    }

    /// Runs consecutive instructions of core `id` through the normal
    /// memory port in one dispatch, on the core's local timeline, and
    /// returns the number retired — the block form of [`Soc::step_core`].
    /// Each instruction's fetch path, execution, hazard interlock,
    /// functional-unit costs and branch-predictor charge are those of its
    /// own single step; the global clock is pulled up once, at dispatch,
    /// like [`Soc::run_replay_block`]. After each retirement `sink` hears
    /// of it, so a platform can log the block's accesses and branch
    /// outcomes exactly as it would log individual
    /// [`StepKind::Retired`] steps.
    ///
    /// The block crosses branches and jumps. It ends after `budget` or
    /// [`BLOCK_INSTS`] instructions and after a store into text, and
    /// before an instruction that
    /// - would be dispatched at or after `horizon`;
    /// - does not decode, or is a system, FlexStep or atomic instruction;
    /// - traps;
    /// - is not the block's first, and would fetch or access data outside
    ///   the core's own L1 or act on another core's copy
    ///   ([`MemorySystem::stays_in_l1`]).
    ///
    /// The first instruction runs at the dispatch cycle, where a single
    /// step would. The rest run ahead of other cores' steps at earlier
    /// cycles, so they touch only state no other core reads — given that
    /// no core touches a line another core holds, or writes text another
    /// core fetches, within the block's window (DESIGN.md §18).
    ///
    /// Returns 0 (and runs nothing) when the core is not running, has a
    /// timer armed or pending, or its first instruction cannot run in a
    /// block — the caller then steps that instruction.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn run_main_block<F>(&mut self, id: usize, budget: u64, horizon: u64, mut sink: F) -> u64
    where
        F: FnMut(&Retired),
    {
        let core = &self.cores[id];
        if !core.is_running() || core.timer_cmp.is_some() || core.timer_pending {
            return 0;
        }
        self.now = self.now.max(core.ready_at);
        let prv = self.cores[id].state.prv;
        let epoch0 = self.code_epoch;
        let mut at = self.now;
        let mut retired = 0;
        while retired < budget.min(BLOCK_INSTS) && at < horizon {
            // The instruction's admission is settled before its fetch is
            // charged, so the step loop charges a refused one.
            let pc = self.cores[id].state.pc;
            let Some(inst) = self.inst_at(id, pc) else {
                break;
            };
            if matches!(
                inst.class(),
                InstClass::System | InstClass::Flex | InstClass::Atomic
            ) {
                break;
            }
            let l1_only = retired > 0;
            if l1_only
                && self.cores[id].last_fetch_line != pc & self.fetch_line_mask
                && !self.mem.stays_in_l1(id, pc, AccessKind::Fetch)
            {
                break;
            }
            let fetch_cycles = self.fetch_cycles(id, pc, false);
            let counters = CsrCounters {
                cycle: at,
                time: at,
                instret: self.cores[id].instret,
            };
            let core = &mut self.cores[id];
            let mut port = SocDataPort::with_l1_only(&mut self.mem, id, l1_only);
            // A stop leaves the state untouched. The fetch it charged
            // stays charged: the single step finds the line fetched and
            // does not charge it again.
            let Ok(exec) = execute(
                &mut core.state,
                &inst,
                &counters,
                &self.costs,
                &mut port,
                &mut core.resv,
            ) else {
                break;
            };
            let cycles = core.model.retire(
                &RetireInfo {
                    pc,
                    inst: &inst,
                    fetch_cycles,
                    extra_cycles: exec.extra_cycles,
                    mem_is_load: exec.mem.as_ref().is_some_and(is_load),
                    branch: exec.branch,
                    branch_hinted: false,
                },
                &self.costs,
                at,
            );
            core.instret += 1;
            if prv == PrivMode::User {
                core.user_instret += 1;
            }
            core.busy_cycles += cycles;
            core.ready_at = at + cycles;
            at = core.ready_at;
            retired += 1;
            sink(&Retired {
                pc,
                inst,
                next_pc: exec.next_pc,
                prv,
                mem: exec.mem,
                branch: exec.branch,
                cycles,
            });
            self.after_access(exec.mem.as_ref());
            // A store into text (code patching) ends the block.
            if self.code_epoch != epoch0 {
                break;
            }
        }
        retired
    }

    /// Runs a single program on core 0 until it traps with an `ecall`,
    /// up to `max_instructions`. A convenience harness for tests and
    /// single-core experiments; returns the retire count. Runs dispatch
    /// as main blocks; timing is identical to pure stepping.
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
            retired += self.run_main_block(0, max_instructions - retired, u64::MAX, |_| {});
            if retired >= max_instructions {
                break;
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

/// Whether `access` only reads memory.
fn is_load(access: &MemAccess) -> bool {
    matches!(access.kind, MemAccessKind::Load | MemAccessKind::Lr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hart::ArchSnapshot;
    use flexstep_isa::asm::{Assembler, DEFAULT_TEXT_BASE};
    use flexstep_isa::encode::encode;
    use flexstep_isa::inst::{IntImmOp, IntOp, StoreOp};

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
        // Words written outside every loaded image are read and decoded
        // per fetch: an undecodable one traps, a legal one retires.
        let addi = addi_word(XReg::A0, XReg::ZERO, 5);
        for word in [0xFFFF_FFFF, addi] {
            let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
            soc.mem.phys_mut().write_u32(0x1000, word);
            let core = soc.core_mut(0);
            core.state.pc = 0x1000;
            core.unpark();
            match soc.step_core(0).kind {
                StepKind::Retired(_) => assert_eq!(soc.core(0).state.x(XReg::A0), 5),
                StepKind::Trap { cause, tval, .. } => {
                    assert_eq!((cause, tval), (TrapCause::IllegalInstruction, 0xFFFF_FFFF))
                }
                other => panic!("unexpected {other:?}"),
            }
        }
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
        // The earliest `ready_at` among running cores, ties to the lowest
        // id, at the sizes the paired, shared and many-core runs use.
        for n in [2, 16, 64] {
            let mut soc = Soc::new(SocConfig::paper(n)).unwrap();
            assert_eq!(soc.next_ready(), None, "{n} cores, none running");
            for id in 0..n {
                let core = soc.core_mut(id);
                core.unpark();
                core.ready_at = 100;
            }
            // Equal stalls from equal times dispatch in id order.
            for expected in (0..n).chain(0..n) {
                let id = soc.next_ready().unwrap();
                assert_eq!(id, expected, "{n} cores");
                soc.stall_core(id, 10);
            }
            let last = n - 1;
            soc.core_mut(last).ready_at = 50;
            assert_eq!(soc.next_ready(), Some(last), "{n} cores");
            soc.core_mut(last).park();
            assert_eq!(soc.next_ready(), Some(0), "{n} cores");
            soc.core_mut(last).unpark();
            soc.core_mut(0).ready_at = 50;
            assert_eq!(soc.next_ready(), Some(0), "{n} cores");
            soc.core_mut(0).halt();
            soc.core_mut(0).unpark();
            assert_eq!(soc.next_ready(), Some(last), "{n} cores");
            for id in 0..n {
                soc.core_mut(id).park();
            }
            assert_eq!(soc.next_ready(), None, "{n} cores");
            soc.core_mut(1).unpark();
            assert_eq!(soc.next_ready_core(), Some(1), "{n} cores");
        }
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

    /// Runs `p` on a one-core SoC through `run_to_ecall` (main blocks)
    /// and through a plain `step_core` loop, returning each run's retire
    /// count, `now()`, `instret` and final state.
    fn blocks_and_steps(p: &Program) -> [(u64, u64, u64, ArchSnapshot); 2] {
        let finish = |soc: Soc, retired| {
            let core = soc.core(0);
            (retired, soc.now(), core.instret, core.state.snapshot())
        };
        let mut blocked = Soc::new(SocConfig::paper(1)).unwrap();
        let retired = blocked.run_to_ecall(p, 1_000_000);
        let blocked = finish(blocked, retired);

        // `run_to_ecall` panics on any stop but the final `ecall`.
        let mut stepped = replay_soc(p);
        let mut retired = 0;
        while let StepKind::Retired(_) = stepped.step_core(0).kind {
            retired += 1;
        }
        [blocked, finish(stepped, retired)]
    }

    #[test]
    fn superblocks_match_stepping_exactly() {
        // ALU, load and store runs across a `jal` call, its `jalr`
        // return, a data-dependent branch and the loop branch, so the
        // predictor trains inside blocks; a load-use interlock sits
        // inside one. Block dispatch must be cycle- and state-exact
        // against pure stepping.
        let mut asm = Assembler::new("blocks");
        // A jump opening a cold line straight after a block: its fetch
        // belongs to the step that runs it.
        for _ in 0..16 {
            asm.nop();
        }
        asm.j("start").label("start").unwrap();
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
        asm.call("bump");
        // Taken every fourth pass: `a0` grows by 15 a pass.
        asm.push(Inst::OpImm {
            op: IntImmOp::Andi,
            rd: XReg::T0,
            rs1: XReg::A0,
            imm: 3,
        });
        asm.beqz(XReg::T0, "skip");
        asm.addi(XReg::A4, XReg::A4, 1);
        asm.label("skip").unwrap();
        asm.addi(XReg::A1, XReg::A1, -1);
        asm.bnez(XReg::A1, "loop");
        asm.ecall();
        asm.label("bump").unwrap();
        asm.addi(XReg::A5, XReg::A5, 1);
        asm.ret();
        let [blocked, stepped] = blocks_and_steps(&asm.finish().unwrap());
        assert_eq!(blocked, stepped);
        let x = |r: XReg| blocked.3.xregs[usize::from(r.index())];
        assert_eq!((x(XReg::A4), x(XReg::A5)), (375, 500));
    }

    /// Stores over `lines` lines 64 KiB apart from the data window of
    /// `slot` (1 MiB apart per slot), so every slot's lines share one
    /// shared-L2 set and one L1 set. Each store follows an ALU
    /// instruction, so it would sit inside a block.
    fn set_conflict_program(slot: u64, lines: i64) -> Program {
        let text = 0x1000_0000 + slot * 0x10_0000;
        let data = 0x2000_0000 + slot * 0x10_0000;
        let mut asm = Assembler::with_bases(format!("conflict{slot}"), text, data);
        asm.li(XReg::A1, 40);
        asm.li(XReg::T1, 0x1_0000);
        asm.label("outer").unwrap();
        asm.li(XReg::T0, data as i64);
        asm.li(XReg::T2, lines);
        asm.label("inner").unwrap();
        asm.add(XReg::A4, XReg::A4, XReg::A1);
        asm.sd(XReg::T0, XReg::A4, 0);
        asm.ld(XReg::A3, XReg::T0, 0);
        asm.add(XReg::A5, XReg::A5, XReg::A3);
        asm.add(XReg::T0, XReg::T0, XReg::T1);
        asm.addi(XReg::T2, XReg::T2, -1);
        asm.bnez(XReg::T2, "inner");
        asm.addi(XReg::A1, XReg::A1, -1);
        asm.bnez(XReg::A1, "outer");
        asm.ecall();
        asm.finish().unwrap()
    }

    #[test]
    fn blocks_on_two_cores_sharing_an_l2_set_match_stepping() {
        // Five lines per core plus each text line overfill the 8-way L2
        // set, so its evictions depend on the order the cores reach it.
        let programs = [set_conflict_program(0, 5), set_conflict_program(1, 5)];
        let run = |blocks: bool| {
            let mut soc = Soc::new(SocConfig::paper(2)).unwrap();
            for (id, p) in programs.iter().enumerate() {
                soc.load_program(p);
                let core = soc.core_mut(id);
                core.state.pc = p.entry;
                core.state.prv = PrivMode::User;
                core.unpark();
            }
            let (mut retired, mut dispatches) = ([0u64; 2], 0);
            while let Some(id) = soc.next_ready() {
                dispatches += 1;
                if blocks {
                    let n = soc.run_main_block(id, BLOCK_INSTS, u64::MAX, |_| {});
                    if n > 0 {
                        retired[id] += n;
                        continue;
                    }
                }
                match soc.step_core(id).kind {
                    StepKind::Retired(_) => retired[id] += 1,
                    StepKind::Trap {
                        cause: TrapCause::EcallFromU,
                        ..
                    } => soc.core_mut(id).park(),
                    other => panic!("unexpected {other:?}"),
                }
            }
            let cores: Vec<_> = (0..2)
                .map(|id| {
                    let core = soc.core(id);
                    (retired[id], core.ready_at, core.state.snapshot())
                })
                .collect();
            (cores, *soc.mem.l2_stats(), dispatches)
        };
        let (blocked, blocked_l2, blocked_dispatches) = run(true);
        let (stepped, stepped_l2, stepped_dispatches) = run(false);
        assert_eq!(blocked, stepped);
        assert_eq!(blocked_l2, stepped_l2);
        assert!(stepped_l2.evictions > 0, "the set overflows");
        assert!(
            blocked_dispatches < stepped_dispatches,
            "{blocked_dispatches} vs {stepped_dispatches}"
        );
    }

    /// The word of `addi rd, rs1, imm`.
    fn addi_word(rd: XReg, rs1: XReg, imm: i64) -> u32 {
        encode(&Inst::OpImm {
            op: IntImmOp::Addi,
            rd,
            rs1,
            imm,
        })
        .unwrap()
    }

    #[test]
    fn self_modifying_code_runs_the_patched_words() {
        // Three passes over `patched`: the first runs the old words (add
        // 1), then a `sw` rewrites the first word and one `sd` the next
        // two (add 16), and the later passes run the new ones.
        let mut asm = Assembler::new("patch");
        asm.li(XReg::A1, 3);
        asm.li(XReg::A4, 3);
        asm.la(XReg::T0, "patched");
        asm.li(XReg::T1, addi_word(XReg::A0, XReg::A0, 16).into());
        let pair = u64::from(addi_word(XReg::A2, XReg::A2, 16))
            | u64::from(addi_word(XReg::A3, XReg::A3, 16)) << 32;
        asm.li(XReg::T2, pair as i64);
        asm.label("loop").unwrap();
        asm.beq(XReg::A1, XReg::A4, "skip");
        asm.store(StoreOp::Sw, XReg::T0, XReg::T1, 0);
        asm.sd(XReg::T0, XReg::T2, 4);
        asm.label("skip").unwrap();
        // The `sd` needs its two words 8-byte aligned.
        if asm.here().is_multiple_of(8) {
            asm.nop();
        }
        asm.label("patched").unwrap();
        asm.addi(XReg::A0, XReg::A0, 1);
        asm.addi(XReg::A2, XReg::A2, 1);
        asm.addi(XReg::A3, XReg::A3, 1);
        asm.addi(XReg::A1, XReg::A1, -1);
        asm.bnez(XReg::A1, "loop");
        asm.ecall();
        let [blocked, stepped] = blocks_and_steps(&asm.finish().unwrap());
        assert_eq!(blocked, stepped);
        let x = |r: XReg| blocked.3.xregs[usize::from(r.index())];
        assert_eq!([x(XReg::A0), x(XReg::A2), x(XReg::A3)], [33; 3]);

        // Core 1 rewrites the first word of the loop core 0 is running.
        let mut asm = Assembler::new("looping");
        asm.li(XReg::A1, 100);
        asm.label("loop").unwrap();
        asm.addi(XReg::A2, XReg::ZERO, 1);
        asm.add(XReg::A3, XReg::A3, XReg::A2);
        asm.addi(XReg::A1, XReg::A1, -1);
        asm.bnez(XReg::A1, "loop");
        asm.ecall();
        let looping = asm.finish().unwrap();
        let mut asm = Assembler::with_bases("patcher", 0x1100_0000, 0x2100_0000);
        asm.li(XReg::T0, looping.symbol("loop").unwrap() as i64);
        asm.li(XReg::T1, addi_word(XReg::A2, XReg::ZERO, 2).into());
        asm.li(XReg::A1, 10);
        asm.label("delay").unwrap();
        asm.addi(XReg::A1, XReg::A1, -1);
        asm.bnez(XReg::A1, "delay");
        asm.store(StoreOp::Sw, XReg::T0, XReg::T1, 0);
        asm.ecall();
        let mut soc = Soc::new(SocConfig::paper(2)).unwrap();
        for (id, p) in [(0, &looping), (1, &asm.finish().unwrap())] {
            soc.load_program(p);
            let core = soc.core_mut(id);
            core.state.pc = p.entry;
            core.state.prv = PrivMode::User;
            core.unpark();
        }
        while let Some(id) = soc.next_ready() {
            if let StepKind::Trap { cause, .. } = soc.step_core(id).kind {
                assert_eq!(cause, TrapCause::EcallFromU);
                soc.core_mut(id).park();
            }
        }
        // Old passes add 1, new ones 2.
        let (a2, a3) = (soc.core(0).state.x(XReg::A2), soc.core(0).state.x(XReg::A3));
        assert_eq!(a2, 2, "the last pass ran the new word");
        assert!(a3 > 100 && a3 < 200, "old passes, then new ones: {a3}");
        assert_eq!(soc.code_epoch(), 3, "two loads and one store into text");
    }

    #[test]
    fn a_shorter_program_reloaded_over_a_longer_one_runs_its_own_words() {
        let long = sum_program(10);
        let mut asm = Assembler::new("short");
        asm.li(XReg::A0, 7);
        asm.ecall();
        let short = asm.finish().unwrap();
        assert!(short.text_base == long.text_base && short.len() < long.len());
        let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
        soc.run_to_ecall(&long, 1000);
        assert_eq!(soc.code_epoch(), 1);
        assert_eq!(soc.run_to_ecall(&short, 1000), 1);
        assert_eq!(soc.core(0).state.x(XReg::A0), 7);
        assert_eq!(soc.code_epoch(), 2, "one bump per load");
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

        // Aim the store into the loaded text image instead.
        let mut asm = Assembler::new("text_store");
        asm.li(XReg::A0, DEFAULT_TEXT_BASE as i64);
        asm.sd(XReg::A0, XReg::A1, 0);
        asm.ecall();
        let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
        soc.run_to_ecall(&asm.finish().unwrap(), 100);
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
                Err(PortStop)
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
        soc.charge_replay_retires(0, 1, 3);
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
