//! The kernel: boot, job release, partitioned-EDF dispatch with the
//! Al. 1 context switch, the Al. 2 checker thread, and metrics.
//!
//! The kernel runs at host level (it *is* the machine-mode software of the
//! platform): traps surface from the simulator, the kernel manipulates
//! core state directly and charges kernel-time stalls, exactly as the
//! paper's OS add-ons do through the trap path and the Tab. I custom ISA.

use crate::edf::EdfQueue;
use crate::task::{Job, JobState, TaskBody, TaskClass, TaskDef, TaskId, Tcb};
use crate::trace::{Trace, TraceEvent};
use flexstep_core::{CoreAttr, DetectionEvent, EngineStep, FabricConfig, FlexError, FlexSoc};
use flexstep_sim::{ArchState, PrivMode, SocConfig, StepKind, TrapCause};
use std::collections::BTreeMap;
use std::fmt;

/// Kernel configuration.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// Cycles charged for a context switch (Al. 1).
    pub context_switch_cycles: u64,
    /// Cycles charged for trap entry/exit (timer tick, `ecall`).
    pub trap_cycles: u64,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            context_switch_cycles: 300,
            trap_cycles: 120,
        }
    }
}

/// Kernel-level configuration errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// A task references a core outside the SoC.
    CoreOutOfRange {
        /// The offending core index.
        core: usize,
    },
    /// Duplicate task id.
    DuplicateTask {
        /// The duplicated id.
        id: TaskId,
    },
    /// A verified task lists no checker cores.
    NoCheckers {
        /// The offending task.
        id: TaskId,
    },
    /// The referenced task does not exist.
    UnknownTask {
        /// The missing id.
        id: TaskId,
    },
    /// Checking demand can only be set on verification tasks.
    NotVerified {
        /// The offending task.
        id: TaskId,
    },
    /// Verified tasks sharing a main core must use the same checker set
    /// (the association is a per-core channel).
    CheckerSetConflict {
        /// The main core with conflicting sets.
        core: usize,
    },
    /// A checker core is also used as a main core.
    RoleConflict {
        /// The conflicted core.
        core: usize,
    },
    /// Underlying fabric error during boot.
    Fabric(FlexError),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::CoreOutOfRange { core } => write!(f, "core {core} out of range"),
            KernelError::DuplicateTask { id } => write!(f, "duplicate task {id}"),
            KernelError::NoCheckers { id } => write!(f, "verified task {id} has no checkers"),
            KernelError::UnknownTask { id } => write!(f, "no such task {id}"),
            KernelError::NotVerified { id } => {
                write!(f, "task {id} is not a verification task")
            }
            KernelError::CheckerSetConflict { core } => {
                write!(f, "verified tasks on core {core} disagree on checker cores")
            }
            KernelError::RoleConflict { core } => {
                write!(f, "core {core} used as both main and checker")
            }
            KernelError::Fabric(e) => write!(f, "fabric: {e}"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<FlexError> for KernelError {
    fn from(e: FlexError) -> Self {
        KernelError::Fabric(e)
    }
}

/// Which jobs of a verification task actually need checking (§V: "the
/// system dynamically triggers additional error checking for one or more
/// jobs of specific verification tasks based on the nature of the
/// emergency").
///
/// A task's [`TaskClass`] states what it *may* require; the demand states
/// what the current emergency *does* require. The default for verified
/// tasks is [`CheckDemand::Always`] — the worst case §V analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckDemand {
    /// Every job is checked.
    Always,
    /// No job is checked (the emergency has passed).
    Never,
    /// Jobs `from..until` (0-based indices) are checked.
    Window {
        /// First checked job index.
        from: u64,
        /// One past the last checked job index.
        until: u64,
    },
}

impl CheckDemand {
    /// Whether job `k` requires checking under this demand.
    pub fn covers(&self, k: u64) -> bool {
        match *self {
            CheckDemand::Always => true,
            CheckDemand::Never => false,
            CheckDemand::Window { from, until } => (from..until).contains(&k),
        }
    }
}

/// Per-task summary at the end of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSummary {
    /// The task.
    pub id: TaskId,
    /// Name.
    pub name: String,
    /// Jobs released.
    pub released: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Deadline misses.
    pub misses: u64,
    /// Mean response time (cycles).
    pub mean_response: f64,
    /// Max response time (cycles).
    pub max_response: u64,
}

/// Run summary.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Final cycle.
    pub finished_at: u64,
    /// Per-task summaries, by id.
    pub tasks: Vec<TaskSummary>,
    /// Error detections reported by checkers.
    pub detections: Vec<DetectionEvent>,
}

impl RunSummary {
    /// Total deadline misses across tasks.
    pub fn total_misses(&self) -> u64 {
        self.tasks.iter().map(|t| t.misses).sum()
    }

    /// Summary of one task.
    pub fn task(&self, id: TaskId) -> Option<&TaskSummary> {
        self.tasks.iter().find(|t| t.id == id)
    }
}

/// The FlexStep kernel over a [`FlexSoc`].
pub struct System {
    /// The platform (kernel-internal; use the accessor methods).
    pub(crate) fs: FlexSoc,
    cfg: KernelConfig,
    tasks: BTreeMap<TaskId, Tcb>,
    /// Checker-thread task ids generated for verified tasks:
    /// `(verified task, checker core) -> checker task`.
    verif_threads: BTreeMap<(TaskId, usize), TaskId>,
    /// Reverse: checker task -> verified task.
    verif_of: BTreeMap<TaskId, TaskId>,
    /// Selective-checking demand per verified task (absent = `Always`).
    demands: BTreeMap<TaskId, CheckDemand>,
    queues: Vec<EdfQueue>,
    running: Vec<Option<TaskId>>,
    booted: bool,
    /// The scheduling trace.
    pub trace: Trace,
    detections: Vec<DetectionEvent>,
    next_auto_id: u32,
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("tasks", &self.tasks.len())
            .field("now", &self.fs.soc.now())
            .finish_non_exhaustive()
    }
}

impl System {
    /// Creates a kernel over a fresh platform.
    ///
    /// # Panics
    ///
    /// Panics if the SoC configuration is invalid.
    pub fn new(soc: SocConfig, fabric: FabricConfig, cfg: KernelConfig) -> Self {
        let fs = FlexSoc::new(soc, fabric).expect("valid SoC configuration");
        let n = fs.soc.num_cores();
        System {
            fs,
            cfg,
            tasks: BTreeMap::new(),
            verif_threads: BTreeMap::new(),
            verif_of: BTreeMap::new(),
            demands: BTreeMap::new(),
            queues: (0..n).map(|_| EdfQueue::new()).collect(),
            running: vec![None; n],
            booted: false,
            trace: Trace::new(),
            detections: Vec::new(),
            next_auto_id: 0x8000_0000,
        }
    }

    /// The current cycle.
    pub fn now(&self) -> u64 {
        self.fs.soc.now()
    }

    /// The underlying simulator (cores, memory).
    pub fn soc(&self) -> &flexstep_sim::Soc {
        &self.fs.soc
    }

    /// The FlexStep fabric state (FIFOs, stats).
    pub fn fabric(&self) -> &flexstep_core::Fabric {
        &self.fs.fabric
    }

    /// Mutable fabric access (fault-injection experiments).
    pub fn fabric_mut(&mut self) -> &mut flexstep_core::Fabric {
        &mut self.fs.fabric
    }

    /// Checker-role state of a core.
    pub fn checker_state(&self, core: usize) -> &flexstep_core::CheckerState {
        self.fs.checker_state(core)
    }

    /// Adds a task. Verified tasks automatically get one checker-thread
    /// task per checker core, released in lockstep with their jobs and
    /// sharing their deadlines (§V: duplicated computations use the
    /// original deadline).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] for invalid configurations.
    pub fn add_task(&mut self, def: TaskDef) -> Result<TaskId, KernelError> {
        let n = self.fs.soc.num_cores();
        if def.core >= n {
            return Err(KernelError::CoreOutOfRange { core: def.core });
        }
        for &c in &def.checkers {
            if c >= n {
                return Err(KernelError::CoreOutOfRange { core: c });
            }
        }
        if self.tasks.contains_key(&def.id) {
            return Err(KernelError::DuplicateTask { id: def.id });
        }
        if def.is_verified() && def.checkers.len() < def.class.redundancy() {
            // Double-check needs ≥1 checker, triple-check ≥2. More than
            // required is allowed — the DBC channel supports "one-to-two,
            // or more" modes, and a shared per-core channel may carry
            // higher redundancy than one of its tasks strictly needs.
            return Err(KernelError::NoCheckers { id: def.id });
        }
        let id = def.id;
        if def.is_verified() {
            for &checker_core in &def.checkers {
                let cid = TaskId(self.next_auto_id);
                self.next_auto_id += 1;
                let cdef = TaskDef {
                    id: cid,
                    name: format!("{}✓@{}", def.name, checker_core),
                    class: TaskClass::Normal,
                    body: TaskBody::CheckerThread {
                        main_core: def.core,
                    },
                    period: def.period,
                    phase: def.phase,
                    core: checker_core,
                    checkers: vec![],
                    max_jobs: def.max_jobs,
                };
                self.verif_threads.insert((id, checker_core), cid);
                self.verif_of.insert(cid, id);
                self.tasks.insert(cid, Tcb::new(cdef));
            }
        }
        self.tasks.insert(id, Tcb::new(def));
        Ok(id)
    }

    /// Boots the system: loads guest programs, configures core attributes
    /// and associations (`G.Configure`, `M.associate`), and arms timers.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] for inconsistent role assignments.
    pub fn boot(&mut self) -> Result<(), KernelError> {
        // Derive roles from the task set.
        let mut mains: Vec<usize> = Vec::new();
        let mut checkers: Vec<usize> = Vec::new();
        let mut assoc: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for tcb in self.tasks.values() {
            if tcb.def.is_verified() {
                if !mains.contains(&tcb.def.core) {
                    mains.push(tcb.def.core);
                }
                let entry = assoc.entry(tcb.def.core).or_default();
                if entry.is_empty() {
                    entry.clone_from(&tcb.def.checkers);
                } else if *entry != tcb.def.checkers {
                    return Err(KernelError::CheckerSetConflict { core: tcb.def.core });
                }
                for &c in &tcb.def.checkers {
                    if !checkers.contains(&c) {
                        checkers.push(c);
                    }
                }
            }
        }
        for &c in &checkers {
            if mains.contains(&c) {
                return Err(KernelError::RoleConflict { core: c });
            }
        }
        self.fs.op_g_configure(&mains, &checkers)?;
        for (&main, set) in &assoc {
            self.fs.op_m_associate(main, set)?;
        }
        // Load guest programs.
        let programs: Vec<_> = self
            .tasks
            .values()
            .filter_map(|t| match &t.def.body {
                TaskBody::Guest(p) => Some(p.clone()),
                TaskBody::CheckerThread { .. } => None,
            })
            .collect();
        for p in programs {
            self.fs.soc.load_program(&p);
        }
        self.booted = true;
        self.rearm_timers();
        Ok(())
    }

    /// The next event time: earliest pending release.
    fn next_release_time(&self) -> Option<u64> {
        self.tasks.values().filter_map(Tcb::next_release).min()
    }

    fn rearm_timers(&mut self) {
        // Each core's timer fires at the next release of a task
        // partitioned onto it (preemption point).
        for core in 0..self.fs.soc.num_cores() {
            let next: Option<u64> = self
                .tasks
                .values()
                .filter(|t| t.def.core == core)
                .filter_map(Tcb::next_release)
                .min();
            match next {
                Some(t) => self.fs.soc.core_mut(core).set_timer(t),
                None => self.fs.soc.core_mut(core).clear_timer(),
            }
        }
    }

    /// Releases all jobs due at or before `now`.
    fn release_due_jobs(&mut self, now: u64) {
        let due: Vec<TaskId> = self
            .tasks
            .iter()
            .filter(|(_, t)| t.next_release().is_some_and(|r| r <= now))
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            let tcb = self.tasks.get_mut(&id).expect("listed above");
            let k = tcb.next_release_idx;
            let release = tcb.def.release_of(k);
            let deadline = tcb.def.deadline_of(k);
            tcb.next_release_idx += 1;

            // Selective checking: a checker-thread job is released only
            // when the verified task's demand covers this job index; the
            // verified task's own release latches the same decision for
            // its dispatch (both release at the same instant, so one
            // demand value governs the pair).
            if let Some(&orig) = self.verif_of.get(&id) {
                if !self.demand_of(orig).covers(k) {
                    continue;
                }
            }

            // Overrun: the previous job is still live.
            let tcb = self.tasks.get_mut(&id).expect("exists");
            if let Some(old) = tcb.live_job.take() {
                if old.state != JobState::Done {
                    tcb.misses += 1;
                    let old_k = old.k;
                    self.trace
                        .push(now, TraceEvent::DeadlineMiss { task: id, k: old_k });
                    // Abandon the overrun job: remove it from queues and,
                    // if running, evict it.
                    self.queues[self.tasks[&id].def.core].remove(id, old.deadline);
                    let core = self.tasks[&id].def.core;
                    if self.running[core] == Some(id) {
                        self.running[core] = None;
                    }
                    let tcb = self.tasks.get_mut(&id).expect("exists");
                    tcb.context = None;
                }
            }

            let demanded = self.demand_of(id).covers(k);
            let tcb = self.tasks.get_mut(&id).expect("exists");
            tcb.live_job = Some(Job {
                task: id,
                k,
                release,
                deadline,
                state: JobState::Ready,
                finished_at: None,
            });
            tcb.check_demanded = demanded;
            tcb.context = None; // fresh job starts from the entry point
            let core = tcb.def.core;
            self.queues[core].insert(id, deadline);
            self.trace.push(
                now,
                TraceEvent::Release {
                    task: id,
                    k,
                    deadline,
                },
            );
        }
        if !self.queues.is_empty() {
            self.rearm_timers();
        }
    }

    /// Performs the Al. 1 context switch on `core` when EDF demands it.
    fn schedule_core(&mut self, core: usize) {
        let running_deadline =
            self.running[core].and_then(|id| self.tasks[&id].live_job.as_ref().map(|j| j.deadline));
        if !self.queues[core].would_preempt(running_deadline) {
            return;
        }
        let now = self.fs.soc.now();

        // Al. 1 lines 3–7: switch off the checking function by attribute.
        match self.fs.fabric.ids_contain(core).expect("core exists") {
            CoreAttr::Main => {
                let _ = self.fs.op_m_check(core, false);
            }
            CoreAttr::Checker => {
                let _ = self.fs.op_c_check_state(core, false);
            }
            CoreAttr::Compute => {}
        }

        // Al. 1 line 11: save the outgoing context.
        if let Some(cur) = self.running[core].take() {
            let state = self.fs.soc.core(core).state.clone();
            let tcb = self.tasks.get_mut(&cur).expect("running task exists");
            if tcb
                .live_job
                .as_ref()
                .is_some_and(|j| j.state != JobState::Done)
            {
                tcb.context = Some(state);
                if let Some(j) = &mut tcb.live_job {
                    j.state = JobState::Ready;
                }
                let deadline = tcb.live_job.as_ref().expect("live").deadline;
                self.queues[core].insert(cur, deadline);
                self.trace
                    .push(now, TraceEvent::Preempt { core, task: cur });
            }
        }

        // Al. 1 line 12: find next.
        let Some(entry) = self.queues[core].pop() else {
            self.fs.soc.core_mut(core).park();
            self.trace.push(now, TraceEvent::Idle { core });
            return;
        };
        let next = entry.task;
        let tcb = self.tasks.get_mut(&next).expect("queued task exists");
        if let Some(j) = &mut tcb.live_job {
            j.state = JobState::Running;
        }

        // Al. 1 lines 13–19: init on new release, else restore.
        let is_checker_thread = matches!(tcb.def.body, TaskBody::CheckerThread { .. });
        match (&tcb.context, &tcb.def.body) {
            (Some(saved), _) => {
                let state = saved.clone();
                self.fs.soc.core_mut(core).state = state;
            }
            (None, TaskBody::Guest(p)) => {
                let mut state = ArchState::new(core as u64);
                state.pc = p.entry;
                state.prv = PrivMode::User;
                state.set_x(
                    flexstep_isa::XReg::SP,
                    flexstep_isa::asm::DEFAULT_STACK_TOP - (next.0 as u64 % 256) * 0x1_0000,
                );
                self.fs.soc.core_mut(core).state = state;
            }
            (None, TaskBody::CheckerThread { .. }) => {
                // Al. 2 line 4: record the context into the ASS; the
                // replay machinery supplies register state per segment.
                let _ = self.fs.op_c_record(core);
            }
        }
        let tcb = self.tasks.get_mut(&next).expect("exists");
        tcb.context = None;

        // Al. 1 lines 22–28: re-enable checking by attribute. Selective
        // checking: only when the demand latched at release covers this
        // job.
        let check_this_job = tcb.def.is_verified() && tcb.check_demanded;
        let tag = u64::from(next.0);
        match self.fs.fabric.ids_contain(core).expect("core exists") {
            CoreAttr::Main if check_this_job => {
                self.fs.fabric.unit_mut(core).tracker.set_tag(tag);
                let _ = self.fs.op_m_check(core, true);
            }
            CoreAttr::Checker if is_checker_thread => {
                let _ = self.fs.op_c_check_state(core, true);
            }
            _ => {}
        }

        self.running[core] = Some(next);
        self.fs.soc.core_mut(core).clear_reservation();
        self.fs.soc.core_mut(core).unpark();
        self.fs.soc.stall_core(core, self.cfg.context_switch_cycles);
        self.trace
            .push(now, TraceEvent::Dispatch { core, task: next });
    }

    /// Marks the running job on `core` complete.
    fn complete_job(&mut self, core: usize) {
        let now = self.fs.soc.now();
        let Some(id) = self.running[core] else { return };
        let tcb = self.tasks.get_mut(&id).expect("running task exists");
        let Some(job) = &mut tcb.live_job else { return };
        job.state = JobState::Done;
        job.finished_at = Some(now);
        let met = job.met_deadline();
        let k = job.k;
        let response = now.saturating_sub(job.release);
        tcb.completed += 1;
        tcb.response_sum += response;
        tcb.response_max = tcb.response_max.max(response);
        if !met {
            tcb.misses += 1;
        }
        tcb.context = None;
        self.running[core] = None;
        self.trace.push(
            now,
            TraceEvent::Complete {
                core,
                task: id,
                k,
                met_deadline: met,
            },
        );
        self.fs.soc.core_mut(core).park();
        self.fs.soc.stall_core(core, self.cfg.trap_cycles);
    }

    /// Whether a checker-thread job has finished: its verified task's job
    /// is done and the stream is fully consumed.
    fn checker_job_finished(&self, checker_task: TaskId, core: usize) -> bool {
        let Some(&orig) = self.verif_of.get(&checker_task) else {
            return false;
        };
        let orig_tcb = &self.tasks[&orig];
        let orig_done = orig_tcb
            .live_job
            .as_ref()
            .map_or(orig_tcb.completed > 0, |j| j.state == JobState::Done);
        if !orig_done {
            return false;
        }
        let Some((main, consumer)) = self.fs.fabric.channel_of(core) else {
            return false;
        };
        self.fs.fabric.unit(main).fifo.backlog(consumer) == 0
            && matches!(
                self.fs.fabric.unit(core).checker.phase,
                flexstep_core::CheckPhase::WaitScp
            )
    }

    /// Runs the system until `horizon` cycles.
    ///
    /// # Panics
    ///
    /// Panics if a guest faults with an unexpected trap (a bug in the
    /// guest program or kernel configuration).
    pub fn run_until(&mut self, horizon: u64) -> RunSummary {
        assert!(self.booted, "call boot() first");
        loop {
            let now = self.fs.soc.now();
            if now >= horizon {
                break;
            }
            self.release_due_jobs(now);
            for core in 0..self.queues.len() {
                self.schedule_core(core);
            }

            let Some(core) = self.fs.soc.next_ready() else {
                // Everything parked: jump to the next release.
                match self.next_release_time() {
                    Some(t) if t < horizon => {
                        self.fs.soc.advance_to(t);
                        continue;
                    }
                    _ => break,
                }
            };
            let step = self.fs.step(core);
            self.handle_step(core, step);
        }
        self.finalize(horizon)
    }

    fn handle_step(&mut self, core: usize, step: EngineStep) {
        match step {
            EngineStep::Core(StepKind::Trap {
                cause: TrapCause::EcallFromU,
                ..
            }) => {
                // Guest job completion protocol: ecall ends the job.
                self.complete_job(core);
            }
            EngineStep::Core(StepKind::Interrupted { .. }) => {
                // Timer: kernel tick. Clear and recharge; releases and
                // scheduling happen at the loop top.
                self.fs.soc.core_mut(core).clear_timer();
                self.fs.soc.stall_core(core, self.cfg.trap_cycles);
                self.rearm_timers();
            }
            EngineStep::Core(StepKind::Flex {
                op,
                rd,
                rs1_value,
                rs2_value,
                ..
            }) => {
                let _ = self.fs.exec_flex(core, op, rd, rs1_value, rs2_value);
            }
            EngineStep::Core(StepKind::Trap { cause, tval, pc }) => {
                panic!("unhandled guest trap on core {core}: {cause:?} tval={tval:#x} pc={pc:#x}");
            }
            EngineStep::CheckerInterrupted(_) => {
                self.fs.soc.core_mut(core).clear_timer();
                self.fs.soc.stall_core(core, self.cfg.trap_cycles);
                self.rearm_timers();
            }
            EngineStep::CheckerDetected(event) => {
                self.trace.push(
                    self.fs.soc.now(),
                    TraceEvent::Detection {
                        checker_core: core,
                        tag: event.tag,
                    },
                );
                self.detections.push(event);
                self.maybe_finish_checker(core);
            }
            EngineStep::CheckerSegmentDone(_) => {
                self.maybe_finish_checker(core);
            }
            EngineStep::CheckerWaiting => {
                self.maybe_finish_checker(core);
                // Yield the core if other work is ready (asynchronous
                // checking lets normal tasks preempt idle-waiting).
                if self.running[core].is_some() && !self.queues[core].is_empty() {
                    // Force a re-dispatch by treating the checker as
                    // lower priority for this pass: requeue with its own
                    // deadline, then let EDF pick.
                    let id = self.running[core].expect("checked above");
                    let dl = self.tasks[&id].live_job.as_ref().map(|j| j.deadline);
                    if self.queues[core].would_preempt(dl) {
                        self.schedule_core(core);
                    }
                }
            }
            EngineStep::Core(StepKind::Retired(_))
            | EngineStep::Core(StepKind::Wfi)
            | EngineStep::Core(StepKind::Idle)
            | EngineStep::Core(StepKind::Stopped(_))
            | EngineStep::MainBlock { .. }
            | EngineStep::SegmentOpened
            | EngineStep::Backpressured
            | EngineStep::CheckerApplied { .. }
            | EngineStep::CheckerProgress
            | EngineStep::CheckerBlock { .. }
            | EngineStep::Idle => {}
        }
    }

    fn maybe_finish_checker(&mut self, core: usize) {
        if let Some(id) = self.running[core] {
            if self.verif_of.contains_key(&id) && self.checker_job_finished(id, core) {
                self.complete_job(core);
            }
        }
    }

    fn finalize(&mut self, horizon: u64) -> RunSummary {
        // Sweep unfinished jobs whose deadlines passed.
        for (id, tcb) in &mut self.tasks {
            if let Some(j) = &tcb.live_job {
                if j.state != JobState::Done && j.deadline <= horizon {
                    tcb.misses += 1;
                    self.trace
                        .push(horizon, TraceEvent::DeadlineMiss { task: *id, k: j.k });
                }
            }
        }
        let mut detections = std::mem::take(&mut self.detections);
        detections.extend(self.fs.fabric.take_detections());
        RunSummary {
            finished_at: self.fs.soc.now(),
            tasks: self
                .tasks
                .values()
                .map(|t| TaskSummary {
                    id: t.def.id,
                    name: t.def.name.clone(),
                    released: t.next_release_idx,
                    completed: t.completed,
                    misses: t.misses,
                    mean_response: t.mean_response(),
                    max_response: t.response_max,
                })
                .collect(),
            detections,
        }
    }

    fn demand_of(&self, task: TaskId) -> CheckDemand {
        self.demands
            .get(&task)
            .copied()
            .unwrap_or(CheckDemand::Always)
    }

    /// The selective-checking demand currently in force for `task`
    /// (defaults to [`CheckDemand::Always`] for verification tasks).
    pub fn check_demand(&self, task: TaskId) -> CheckDemand {
        self.demand_of(task)
    }

    /// Sets the selective-checking demand for a verification task.
    ///
    /// Takes effect from the task's *next* job release: already-released
    /// jobs keep the demand latched at their release, so the main job and
    /// its checker-thread job(s) always agree.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownTask`] for unknown ids;
    /// [`KernelError::NotVerified`] when the task is not a verification
    /// task (a `T^N` task has nothing to check).
    pub fn set_check_demand(
        &mut self,
        task: TaskId,
        demand: CheckDemand,
    ) -> Result<(), KernelError> {
        let tcb = self
            .tasks
            .get(&task)
            .ok_or(KernelError::UnknownTask { id: task })?;
        if !tcb.def.is_verified() {
            return Err(KernelError::NotVerified { id: task });
        }
        self.demands.insert(task, demand);
        Ok(())
    }

    /// Emergency trigger: demands checking for the next `jobs` releases
    /// of `task` (and no others), returning the covered job-index window
    /// — the §V scenario where "the system dynamically triggers
    /// additional error checking for one or more jobs".
    ///
    /// # Errors
    ///
    /// As [`System::set_check_demand`].
    pub fn trigger_check_window(
        &mut self,
        task: TaskId,
        jobs: u64,
    ) -> Result<(u64, u64), KernelError> {
        let tcb = self
            .tasks
            .get(&task)
            .ok_or(KernelError::UnknownTask { id: task })?;
        if !tcb.def.is_verified() {
            return Err(KernelError::NotVerified { id: task });
        }
        let from = tcb.next_release_idx;
        let until = from + jobs;
        self.demands
            .insert(task, CheckDemand::Window { from, until });
        Ok((from, until))
    }

    /// Immutable task access (tests, examples).
    pub fn task(&self, id: TaskId) -> Option<&Tcb> {
        self.tasks.get(&id)
    }

    /// The checker-thread task generated for `(verified task, checker
    /// core)`, if any.
    pub fn checker_thread_of(&self, task: TaskId, core: usize) -> Option<TaskId> {
        self.verif_threads.get(&(task, core)).copied()
    }
}
