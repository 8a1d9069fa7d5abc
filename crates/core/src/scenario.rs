//! The [`Scenario`] builder — the single front door for FlexStep
//! experiments.
//!
//! Every experiment in this repository is some arrangement of the same
//! ingredients: an N-core SoC, a main/checker topology, guest programs
//! on the main cores, an optional fault-injection schedule, and a way to
//! watch what happened. Historically each example and bench binary wired
//! those up by reaching through [`VerifiedRun`] internals; the builder
//! makes the whole space declarative:
//!
//! ```
//! use flexstep_core::{FabricConfig, FaultPlan, Scenario, Topology};
//! use flexstep_isa::{asm::Assembler, XReg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut asm = Assembler::new("tiny");
//! asm.li(XReg::A0, 50);
//! asm.li(XReg::A1, 0x2000_0000);
//! asm.label("l")?;
//! asm.sd(XReg::A1, XReg::A0, 0);
//! asm.addi(XReg::A0, XReg::A0, -1);
//! asm.bnez(XReg::A0, "l");
//! asm.ecall();
//! let program = asm.finish()?;
//!
//! // Dual-core verified execution (core 0 main, core 1 checker).
//! let mut run = Scenario::new(&program)
//!     .cores(2)
//!     .topology(Topology::PairedLockstep)
//!     .fabric(FabricConfig::paper())
//!     .build()?;
//! let report = run.run_to_completion(10_000_000);
//! assert!(report.completed);
//! assert_eq!(report.segments_failed, 0);
//! # Ok(())
//! # }
//! ```
//!
//! Topologies cover the paper's whole configuration space: per-main
//! dedicated checkers ([`Topology::PairedLockstep`], or
//! [`Topology::Custom`] for 1:2/1:3 fan-out), and §III-C arbitrated
//! checker sharing ([`Topology::SharedChecker`]) at any core count —
//! including the many-core (Fig. 8-style) 16–64 core sweeps.

use crate::fabric::{FabricConfig, FlexError};
use crate::fault::{inject_random_fault, inject_targeted_fault, FaultTarget};
use crate::harness::VerifiedRun;
use crate::sink::Observer;
use flexstep_isa::asm::Program;
use flexstep_mem::cache::CacheGeometryError;
use flexstep_sim::{CoreModelKind, PairingSchedule, ReliabilityMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

/// How main cores map to checker cores.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum Topology {
    /// Cores come in (main, checker) pairs: core `2i` is a main core
    /// verified by its dedicated checker `2i + 1` — the DCLS-like layout
    /// of Fig. 4 at two cores, scaled sideways at higher counts.
    #[default]
    PairedLockstep,
    /// The last `checkers` cores are checker cores shared by all
    /// preceding main cores through §III-C FIFO arbitration; main `i` is
    /// bound to checker `mains + (i % checkers)`. This is the
    /// consolidation topology of the paper's introduction and the
    /// many-core Fig. 8-style experiments.
    SharedChecker {
        /// Number of shared checker cores (≥ 1).
        checkers: usize,
    },
    /// An explicit map `(main core, its checker cores)`. A checker
    /// listed by exactly one main is dedicated (1:1, 1:2, … channels); a
    /// checker listed by several mains is shared through arbitration (in
    /// which case each of those mains must list only that checker).
    /// Cores not mentioned are plain compute cores.
    Custom(Vec<(usize, Vec<usize>)>),
}

// ---------------------------------------------------------------------------
// Recovery policy
// ---------------------------------------------------------------------------

/// What the run loop does when a checker detects an error.
///
/// Exhaustive on purpose: a new policy must not compile until every
/// encoder of it, such as `campaignd`'s `spec.json`, can express it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Record the detection and keep running — the fail-stop diagnosis
    /// mode of the original detection-only experiments (the default).
    #[default]
    Detect,
    /// Roll the faulted main back to the detected segment's own SCP
    /// boundary (its predecessor was verified, so the segment's start
    /// state is trusted), flush the in-flight DBC stream and replay
    /// uarch state, and re-execute the segment.
    ///
    /// `max_retries` bounds *consecutive* rollbacks of the same main
    /// without an intervening verified segment; once exhausted, further
    /// detections on that main are recorded detect-only and counted in
    /// [`MainReport::unrecovered`](crate::MainReport::unrecovered).
    Rollback {
        /// Consecutive re-executions allowed before giving up.
        max_retries: u32,
    },
}

// ---------------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------------

/// What one scheduled fault injection does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShotKind {
    /// Flip `bits` random bits in one in-flight packet of class
    /// `target`.
    Targeted { target: FaultTarget, bits: u32 },
    /// Flip one random bit in one random in-flight packet.
    Random,
    /// Permanently fail a checker core (fail-silent hard fault): the
    /// core halts and its channels are re-paired or degraded.
    KillChecker,
}

/// One scheduled injection of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaultShot {
    /// Earliest cycle at which the shot may fire.
    at_cycle: u64,
    /// Channel index: the *i*-th main core of the scenario — except for
    /// [`ShotKind::KillChecker`], where it is the *i*-th checker core.
    channel: usize,
    kind: ShotKind,
}

/// A declarative fault-injection schedule, executed by the run loop.
///
/// Replaces the manual `run_until_cycle` + `inject_random_fault` +
/// field-poking idiom: each shot arms at its cycle and fires as soon as
/// the target channel has matching data in flight (the paper's §VI-C
/// methodology injects into *forwarded* data, so an empty FIFO defers
/// the shot to the next step). Fired shots are reported in
/// [`RunReport::injections`](crate::RunReport::injections) and surfaced
/// to observers as [`RunEvent::FaultInjected`](crate::RunEvent::FaultInjected).
///
/// The combinators chain left to right: `then_*` appends a shot,
/// [`FaultPlan::on_channel`] / [`FaultPlan::bits`] retarget/widen the
/// *most recent* one, and [`FaultPlan::with_seed`] fixes the RNG for
/// the whole plan:
///
/// ```
/// use flexstep_core::{FaultPlan, FaultTarget};
/// let plan = FaultPlan::bit_flip_at(20_000, FaultTarget::EntryData)
///     .bits(2)                       // widen shot 0 to a 2-bit upset
///     .then_random_at(60_000)
///     .on_channel(1)                 // aim shot 1 at the second main
///     .then_bit_flip_at(90_000, FaultTarget::EntryAddr)
///     .with_seed(7);
/// assert_eq!(plan.len(), 3);
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    shots: Vec<FaultShot>,
    seed: u64,
}

impl FaultPlan {
    /// An empty plan (the default): no injections.
    pub fn none() -> Self {
        FaultPlan {
            shots: Vec::new(),
            seed: 0,
        }
    }

    /// One single-bit flip in an in-flight packet of class `target` on
    /// the first main core's stream, armed at `cycle`.
    pub fn bit_flip_at(cycle: u64, target: FaultTarget) -> Self {
        FaultPlan::none().then_bit_flip_at(cycle, target)
    }

    /// One random single-bit flip in a random in-flight packet on the
    /// first main core's stream, armed at `cycle`, with the plan's RNG
    /// seeded to `seed`.
    pub fn random_with_seed(cycle: u64, seed: u64) -> Self {
        FaultPlan::none().then_random_at(cycle).with_seed(seed)
    }

    /// Appends a targeted single-bit flip armed at `cycle`.
    pub fn then_bit_flip_at(mut self, cycle: u64, target: FaultTarget) -> Self {
        self.shots.push(FaultShot {
            at_cycle: cycle,
            channel: 0,
            kind: ShotKind::Targeted { target, bits: 1 },
        });
        self
    }

    /// Appends a random flip armed at `cycle`.
    pub fn then_random_at(mut self, cycle: u64) -> Self {
        self.shots.push(FaultShot {
            at_cycle: cycle,
            channel: 0,
            kind: ShotKind::Random,
        });
        self
    }

    /// One permanent checker failure at `cycle`, aimed at the first
    /// checker core. Retarget with [`FaultPlan::on_checker`]. Unlike
    /// transient flips, a kill fires unconditionally at its cycle (a
    /// hard fault needs no data in flight) and is *not* counted in
    /// [`RunReport::shots_armed`](crate::RunReport::shots_armed) — it
    /// shows up as
    /// [`RunReport::checkers_lost`](crate::RunReport::checkers_lost)
    /// instead.
    pub fn kill_checker_at(cycle: u64) -> Self {
        FaultPlan::none().then_kill_checker_at(cycle)
    }

    /// Appends a permanent checker failure armed at `cycle` (first
    /// checker core; retarget with [`FaultPlan::on_checker`]).
    pub fn then_kill_checker_at(mut self, cycle: u64) -> Self {
        self.shots.push(FaultShot {
            at_cycle: cycle,
            channel: 0,
            kind: ShotKind::KillChecker,
        });
        self
    }

    /// Retargets the most recent kill shot at the `idx`-th checker core
    /// of the scenario (default 0). Validated at `build()`.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no shots or the last shot is not a
    /// [`FaultPlan::kill_checker_at`] shot.
    pub fn on_checker(mut self, idx: usize) -> Self {
        let shot = self.shots.last_mut().expect("on_checker requires a shot");
        assert!(
            shot.kind == ShotKind::KillChecker,
            "on_checker retargets kill shots; use on_channel for injections"
        );
        shot.channel = idx;
        self
    }

    /// Retargets the most recent shot at the `channel`-th main core of
    /// the scenario (default 0). Validated at `build()`.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no shots.
    pub fn on_channel(mut self, channel: usize) -> Self {
        let shot = self.shots.last_mut().expect("on_channel requires a shot");
        assert!(
            shot.kind != ShotKind::KillChecker,
            "on_channel retargets injections; use on_checker for kill shots"
        );
        shot.channel = channel;
        self
    }

    /// Widens the most recent targeted shot to an `n`-bit burst upset.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no shots or the last shot is random.
    pub fn bits(mut self, n: u32) -> Self {
        match &mut self.shots.last_mut().expect("bits requires a shot").kind {
            ShotKind::Targeted { bits, .. } => *bits = n,
            ShotKind::Random => panic!("random shots are always single-bit"),
            ShotKind::KillChecker => panic!("kill shots have no payload bits"),
        }
        self
    }

    /// Seeds the plan's RNG (bit positions, packet choice).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of scheduled shots.
    pub fn len(&self) -> usize {
        self.shots.len()
    }

    /// Whether the plan schedules no injections.
    pub fn is_empty(&self) -> bool {
        self.shots.is_empty()
    }

    /// Highest main-channel index any injection shot targets.
    fn max_channel(&self) -> Option<usize> {
        self.shots
            .iter()
            .filter(|s| s.kind != ShotKind::KillChecker)
            .map(|s| s.channel)
            .max()
    }

    /// Highest checker index any kill shot targets.
    fn max_kill_checker(&self) -> Option<usize> {
        self.shots
            .iter()
            .filter(|s| s.kind == ShotKind::KillChecker)
            .map(|s| s.channel)
            .max()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// One fault injection that actually fired during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// The main core whose stream was corrupted.
    pub main_core: usize,
    /// The corrupted packet class.
    pub target: FaultTarget,
    /// Bit indices flipped.
    pub bits: Vec<u32>,
    /// Cycle at which the flip landed (may be later than the armed
    /// cycle if the stream was empty at arming time).
    pub at_cycle: u64,
}

/// Executes a compiled fault plan against the run's fabric.
#[derive(Debug)]
pub(crate) struct FaultDriver {
    shots: Vec<FaultShot>,
    /// Next shot to fire (shots fire strictly in order).
    next: usize,
    /// Shots that could no longer land (their target stream drained for
    /// good, or the run completed before their arming cycle).
    expired: u64,
    rng: StdRng,
}

impl FaultDriver {
    pub(crate) fn new(mut plan: FaultPlan) -> Self {
        plan.shots.sort_by_key(|s| s.at_cycle);
        FaultDriver {
            rng: StdRng::seed_from_u64(plan.seed),
            shots: plan.shots,
            next: 0,
            expired: 0,
        }
    }

    /// Whether any shot is still pending.
    #[inline]
    pub(crate) fn pending(&self) -> bool {
        self.next < self.shots.len()
    }

    /// Arming cycle of the next unfired shot (`u64::MAX` when none is
    /// left). Shots fire in order, so no shot fires before it.
    #[inline]
    pub(crate) fn next_cycle(&self) -> u64 {
        self.shots.get(self.next).map_or(u64::MAX, |s| s.at_cycle)
    }

    /// Channels (main slots) with injection shots still armed or in
    /// flight — the harness blocks the verdict memo on these streams
    /// until every shot has fired or expired. Kill shots target checker
    /// cores, not streams, so they never appear here.
    pub(crate) fn pending_channels(&self) -> impl Iterator<Item = usize> + '_ {
        self.shots[self.next..]
            .iter()
            .filter(|s| s.kind != ShotKind::KillChecker)
            .map(|s| s.channel)
    }

    /// Total injection shots scheduled by the plan (kill shots are
    /// accounted as `checkers_lost`, not armed injections).
    pub(crate) fn armed(&self) -> u64 {
        self.shots
            .iter()
            .filter(|s| s.kind != ShotKind::KillChecker)
            .count() as u64
    }

    /// Shots that expired without landing.
    pub(crate) fn expired(&self) -> u64 {
        self.expired
    }

    /// Expires every injection shot that has not fired yet — called when
    /// the run completes (all mains done, all streams drained): nothing
    /// is left to corrupt, so the remaining shots can never land.
    /// Returns the channel of each newly expired shot (for observer
    /// notification). Unfired kill shots are silently dropped: the run
    /// outlived the scheduled hard fault, so the checker simply never
    /// died.
    pub(crate) fn expire_remaining(&mut self) -> Vec<usize> {
        let channels = self.shots[self.next..]
            .iter()
            .filter(|s| s.kind != ShotKind::KillChecker)
            .map(|s| s.channel)
            .collect::<Vec<_>>();
        self.expired += channels.len() as u64;
        self.next = self.shots.len();
        channels
    }

    /// Fires every due shot whose channel has data in flight; returns
    /// the injections that landed this call, the channels of due shots
    /// that expired, and the checker indices of kill shots that fired.
    /// A due shot whose target stream can never carry data again
    /// (`expired` for its channel) is dropped so it cannot block later
    /// shots. Kill shots fire unconditionally at their cycle — a hard
    /// fault needs no data in flight.
    pub(crate) fn fire_due(
        &mut self,
        fabric: &mut crate::fabric::Fabric,
        mains: &[usize],
        expired: impl Fn(usize) -> bool,
        now: u64,
    ) -> (Vec<Injection>, Vec<usize>, Vec<usize>) {
        let mut fired = Vec::new();
        let mut expired_channels = Vec::new();
        let mut kills = Vec::new();
        while self.next < self.shots.len() {
            let shot = self.shots[self.next];
            if now < shot.at_cycle {
                break;
            }
            if shot.kind == ShotKind::KillChecker {
                kills.push(shot.channel);
                self.next += 1;
                continue;
            }
            let main = mains[shot.channel];
            if expired(shot.channel) && fabric.unit(main).fifo.is_fully_drained() {
                // The main finished and its stream drained before the
                // shot could land: nothing left to corrupt, ever.
                self.next += 1;
                self.expired += 1;
                expired_channels.push(shot.channel);
                continue;
            }
            let landed = match shot.kind {
                ShotKind::KillChecker => unreachable!("handled above"),
                ShotKind::Random => {
                    inject_random_fault(fabric, main, now, &mut self.rng).map(|r| Injection {
                        main_core: r.main_core,
                        target: r.target,
                        bits: vec![r.bit],
                        at_cycle: r.at_cycle,
                    })
                }
                ShotKind::Targeted { target, bits } => {
                    inject_targeted_fault(fabric, main, target, bits, now, &mut self.rng).map(|r| {
                        Injection {
                            main_core: r.main_core,
                            target: r.target,
                            bits: r.bits,
                            at_cycle: r.at_cycle,
                        }
                    })
                }
            };
            match landed {
                Some(injection) => {
                    fired.push(injection);
                    self.next += 1;
                }
                // Nothing in flight yet: retry on a later step.
                None => break,
            }
        }
        (fired, expired_channels, kills)
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Validation errors from [`Scenario::build`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The scenario has zero cores.
    NoCores,
    /// The topology yields no main cores.
    NoMains,
    /// [`Topology::PairedLockstep`] needs an even core count.
    UnpairedCores {
        /// The odd core count.
        cores: usize,
    },
    /// [`Topology::SharedChecker`] needs `1 ≤ checkers < cores`.
    BadCheckerCount {
        /// Requested checkers.
        checkers: usize,
        /// Total cores.
        cores: usize,
    },
    /// A topology references a core outside `0..cores`.
    CoreOutOfRange {
        /// The offending core.
        core: usize,
        /// Total cores.
        cores: usize,
    },
    /// A custom map lists a core as checking itself.
    SelfCheck {
        /// The offending core.
        core: usize,
    },
    /// A custom map lists the same main twice.
    DuplicateMain {
        /// The duplicated main.
        main: usize,
    },
    /// A custom map uses a core as both main and checker.
    RoleConflict {
        /// The conflicted core.
        core: usize,
    },
    /// A main in a custom map has an empty checker list.
    NoCheckersFor {
        /// The checker-less main.
        main: usize,
    },
    /// A shared checker's mains must bind to exactly that checker
    /// (arbitration hands over whole FIFOs, not sub-channels).
    SharedCheckerFanOut {
        /// The main with the extra checkers.
        main: usize,
        /// The shared checker.
        checker: usize,
    },
    /// Not enough programs for the topology's main cores.
    MissingProgram {
        /// Index of the first main slot without a program.
        main_slot: usize,
        /// Programs provided.
        programs: usize,
    },
    /// More programs than main cores.
    ExtraPrograms {
        /// Main slots available.
        mains: usize,
        /// Programs provided.
        programs: usize,
    },
    /// The fault plan targets a channel (main slot) that does not exist.
    FaultChannelOutOfRange {
        /// The offending channel.
        channel: usize,
        /// Main slots available.
        mains: usize,
    },
    /// The fault plan kills a checker index that does not exist.
    KillCheckerOutOfRange {
        /// The offending checker index.
        checker: usize,
        /// Checker cores available.
        checkers: usize,
    },
    /// A core-model override targets a main slot that does not exist.
    ModelSlotOutOfRange {
        /// The offending main slot.
        slot: usize,
        /// Main slots available.
        mains: usize,
    },
    /// A reliability-mode override targets a main slot that does not
    /// exist.
    ModeSlotOutOfRange {
        /// The offending main slot.
        slot: usize,
        /// Main slots available.
        mains: usize,
    },
    /// The pairing schedule references a main slot that does not exist.
    PairingSlotOutOfRange {
        /// The offending main slot.
        slot: usize,
        /// Main slots available.
        mains: usize,
    },
    /// The pairing schedule targets a slot running
    /// [`ReliabilityMode::Unchecked`], which has no checker channel to
    /// acquire or release.
    PairingUncheckedSlot {
        /// The offending main slot.
        slot: usize,
    },
    /// The underlying fabric rejected the configuration.
    Fabric(FlexError),
    /// The memory geometry is invalid.
    Cache(CacheGeometryError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::NoCores => write!(f, "scenario has zero cores"),
            ScenarioError::NoMains => write!(f, "topology yields no main cores"),
            ScenarioError::UnpairedCores { cores } => {
                write!(f, "paired-lockstep needs an even core count, got {cores}")
            }
            ScenarioError::BadCheckerCount { checkers, cores } => {
                write!(
                    f,
                    "shared-checker topology needs 1 <= checkers < cores, got {checkers} of {cores}"
                )
            }
            ScenarioError::CoreOutOfRange { core, cores } => {
                write!(f, "core {core} out of range (scenario has {cores} cores)")
            }
            ScenarioError::SelfCheck { core } => {
                write!(f, "core {core} cannot check itself")
            }
            ScenarioError::DuplicateMain { main } => {
                write!(f, "main {main} listed twice in the custom map")
            }
            ScenarioError::RoleConflict { core } => {
                write!(f, "core {core} used as both main and checker")
            }
            ScenarioError::NoCheckersFor { main } => {
                write!(f, "main {main} has an empty checker list")
            }
            ScenarioError::SharedCheckerFanOut { main, checker } => {
                write!(
                    f,
                    "main {main} shares checker {checker} but lists other checkers; \
                     a shared checker must be its main's only checker"
                )
            }
            ScenarioError::MissingProgram {
                main_slot,
                programs,
            } => {
                write!(
                    f,
                    "main slot {main_slot} has no program ({programs} provided); \
                     add one with Scenario::program"
                )
            }
            ScenarioError::ExtraPrograms { mains, programs } => {
                write!(f, "{programs} programs for {mains} main core(s)")
            }
            ScenarioError::FaultChannelOutOfRange { channel, mains } => {
                write!(
                    f,
                    "fault plan targets channel {channel}, scenario has {mains} main core(s)"
                )
            }
            ScenarioError::KillCheckerOutOfRange { checker, checkers } => {
                write!(
                    f,
                    "fault plan kills checker {checker}, scenario has {checkers} checker core(s)"
                )
            }
            ScenarioError::ModelSlotOutOfRange { slot, mains } => {
                write!(
                    f,
                    "core-model override targets main slot {slot}, scenario has {mains} main core(s)"
                )
            }
            ScenarioError::ModeSlotOutOfRange { slot, mains } => {
                write!(
                    f,
                    "reliability-mode override targets main slot {slot}, \
                     scenario has {mains} main core(s)"
                )
            }
            ScenarioError::PairingSlotOutOfRange { slot, mains } => {
                write!(
                    f,
                    "pairing schedule targets main slot {slot}, \
                     scenario has {mains} main core(s)"
                )
            }
            ScenarioError::PairingUncheckedSlot { slot } => {
                write!(
                    f,
                    "pairing schedule targets main slot {slot}, which runs \
                     unchecked and has no checker channel"
                )
            }
            ScenarioError::Fabric(e) => write!(f, "fabric: {e}"),
            ScenarioError::Cache(e) => write!(f, "memory geometry: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<FlexError> for ScenarioError {
    fn from(e: FlexError) -> Self {
        ScenarioError::Fabric(e)
    }
}

impl From<CacheGeometryError> for ScenarioError {
    fn from(e: CacheGeometryError) -> Self {
        ScenarioError::Cache(e)
    }
}

// ---------------------------------------------------------------------------
// The builder
// ---------------------------------------------------------------------------

/// Resolved topology, shared between `build` and `VerifiedRun`.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedTopology {
    /// Main cores, in channel order.
    pub mains: Vec<usize>,
    /// Checker cores, ascending.
    pub checkers: Vec<usize>,
    /// Per main (same order as `mains`): dedicated checkers, or the
    /// shared checker it competes for.
    pub binding: Vec<Binding>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Binding {
    /// Dedicated channel to these checkers (1:1, 1:2, …).
    Dedicated(Vec<usize>),
    /// Arbitrated access to this shared checker.
    Shared(usize),
}

/// A declarative description of one FlexStep experiment; `build()` turns
/// it into a ready-to-run [`VerifiedRun`].
///
/// See the [module documentation](self) for a worked example.
pub struct Scenario {
    programs: Vec<Program>,
    cores: Option<usize>,
    topology: Topology,
    fabric: FabricConfig,
    fault_plan: FaultPlan,
    recovery: RecoveryPolicy,
    observers: Vec<Box<dyn Observer + Send>>,
    /// Chrome-trace export: `(path, ring capacity)`; `None` capacity =
    /// unbounded.
    trace: Option<(std::path::PathBuf, Option<usize>)>,
    /// Record every event into a
    /// [`RecordingObserver`](crate::RecordingObserver) the run keeps.
    record_events: bool,
    /// Per-main-slot timing-model overrides (default: in-order scalar);
    /// `None` slot = every main.
    core_models: Vec<(Option<usize>, CoreModelKind)>,
    /// Per-main-slot reliability-mode overrides (default:
    /// [`ReliabilityMode::SegmentCheck`]); `None` slot = every main.
    reliability_modes: Vec<(Option<usize>, ReliabilityMode)>,
    /// Criticality-driven checker acquire/release timeline.
    pairing: Option<PairingSchedule>,
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("programs", &self.programs.len())
            .field("cores", &self.cores)
            .field("topology", &self.topology)
            .field("fabric", &self.fabric)
            .field("fault_plan", &self.fault_plan)
            .field("recovery", &self.recovery)
            .field("observers", &self.observers.len())
            .field("trace", &self.trace)
            .field("record_events", &self.record_events)
            .field("core_models", &self.core_models)
            .field("reliability_modes", &self.reliability_modes)
            .field("pairing", &self.pairing)
            .finish()
    }
}

impl Scenario {
    /// Starts a scenario running `program` on the first main core.
    pub fn new(program: &Program) -> Self {
        Scenario {
            programs: vec![program.clone()],
            cores: None,
            topology: Topology::default(),
            fabric: FabricConfig::paper(),
            fault_plan: FaultPlan::none(),
            recovery: RecoveryPolicy::Detect,
            observers: Vec::new(),
            trace: None,
            record_events: false,
            core_models: Vec::new(),
            reliability_modes: Vec::new(),
            pairing: None,
        }
    }

    /// Adds a program for the next main core (multi-main topologies).
    /// Programs bind to main cores in channel order; they must use
    /// disjoint text/data windows (build them with
    /// [`Assembler::with_bases`](flexstep_isa::asm::Assembler::with_bases)).
    pub fn program(mut self, program: &Program) -> Self {
        self.programs.push(program.clone());
        self
    }

    /// Sets the total core count. Defaults to the smallest count the
    /// topology and program list imply.
    pub fn cores(mut self, n: usize) -> Self {
        self.cores = Some(n);
        self
    }

    /// Sets the main/checker topology (default
    /// [`Topology::PairedLockstep`]).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the fabric configuration (default
    /// [`FabricConfig::paper`]).
    pub fn fabric(mut self, fabric: FabricConfig) -> Self {
        self.fabric = fabric;
        self
    }

    /// Overrides the timing model of one main core, addressed by its
    /// slot (channel) index. Heterogeneous SoCs mix models freely: an
    /// OoO superscalar main can be checked by in-order checkers, whose
    /// replay consumes the main's forwarded branch outcomes instead of
    /// predicting (see [`CoreModelKind::forwards_branch_outcomes`]).
    /// Checker cores always stay in-order — sizing a checker *tier*
    /// means assigning more mains per checker, not widening the
    /// checker (§IV of the paper keeps checkers minimal).
    pub fn core_model(mut self, slot: usize, kind: CoreModelKind) -> Self {
        self.core_models.push((Some(slot), kind));
        self
    }

    /// Applies `kind` to every main core — the common case for
    /// homogeneous Fig. 8-style sweeps over one model. Later
    /// [`Scenario::core_model`] calls still override individual slots.
    pub fn main_core_model(mut self, kind: CoreModelKind) -> Self {
        self.core_models.push((None, kind));
        self
    }

    /// Overrides the reliability mode of one main core, addressed by
    /// its slot (channel) index (default
    /// [`ReliabilityMode::SegmentCheck`], today's behavior). Modes fix
    /// the checkpoint granularity the slot runs at — see
    /// [`ReliabilityMode`] for the latency/overhead trade — and
    /// compose freely with topologies, core models, memoization and
    /// recovery.
    pub fn reliability_mode(mut self, slot: usize, mode: ReliabilityMode) -> Self {
        self.reliability_modes.push((Some(slot), mode));
        self
    }

    /// Applies `mode` to every main core — the common case for the
    /// `fig9_modes` sweep. Later [`Scenario::reliability_mode`] calls
    /// still override individual slots.
    pub fn main_reliability_mode(mut self, mode: ReliabilityMode) -> Self {
        self.reliability_modes.push((None, mode));
        self
    }

    /// Installs a criticality-driven [`PairingSchedule`]: main slots
    /// release their checkers and re-acquire them mid-run at the
    /// scheduled cycles (releases land on the next segment boundary).
    /// Shared checkers return to the arbiter pool while released;
    /// dedicated checkers simply drain and idle.
    pub fn pairing_schedule(mut self, schedule: PairingSchedule) -> Self {
        self.pairing = Some(schedule);
        self
    }

    /// Enables or disables segment-verdict memoization (default: on,
    /// via [`FabricConfig::paper`]). Memoization never changes results —
    /// a memo hit replays the cached per-step timing profile, so reports
    /// are bit-identical either way; `memo(false)` is the reference
    /// path the memo-equivalence suites compare memoized runs against.
    pub fn memo(mut self, enable: bool) -> Self {
        if enable {
            if self.fabric.memo_capacity == 0 {
                self.fabric.memo_capacity = crate::memo::DEFAULT_MEMO_CAPACITY;
            }
        } else {
            self.fabric.memo_capacity = 0;
        }
        self
    }

    /// Bounds the per-checker verdict cache to `entries` (0 disables,
    /// like `memo(false)`).
    pub fn memo_capacity(mut self, entries: usize) -> Self {
        self.fabric.memo_capacity = entries;
        self
    }

    /// Schedules fault injections (default: none).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets the detection response (default [`RecoveryPolicy::Detect`]).
    /// [`RecoveryPolicy::Rollback`] turns detections into rollback
    /// re-executions from the last verified segment boundary.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Attaches an observer; may be called repeatedly.
    ///
    /// Observers must be `Send` — the bound that keeps the built
    /// [`VerifiedRun`] `Send`, so runs can execute on worker threads.
    /// The run owns them; to inspect events after the run, use
    /// [`Scenario::record_events`].
    pub fn observer(mut self, observer: impl Observer + Send + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Records every event into a
    /// [`RecordingObserver`](crate::RecordingObserver) the run keeps;
    /// read it after the run with
    /// [`VerifiedRun::recording`](crate::VerifiedRun::recording).
    pub fn record_events(mut self) -> Self {
        self.record_events = true;
        self
    }

    /// Records the schedule as Chrome `trace_event` JSON (see
    /// [`trace`](crate::trace)) and remembers `path`;
    /// [`VerifiedRun::write_trace`](crate::VerifiedRun::write_trace)
    /// writes the file after the run. Unbounded — every event is kept;
    /// for long campaigns use [`Scenario::trace_to_bounded`].
    pub fn trace_to(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.trace = Some((path.into(), None));
        self
    }

    /// Like [`Scenario::trace_to`], but keeps only the newest
    /// `capacity` events (a ring), so arbitrarily long campaigns
    /// produce bounded files.
    /// [`DEFAULT_RING_CAPACITY`](crate::trace::DEFAULT_RING_CAPACITY)
    /// is the binaries' default.
    pub fn trace_to_bounded(
        mut self,
        path: impl Into<std::path::PathBuf>,
        capacity: usize,
    ) -> Self {
        self.trace = Some((path.into(), Some(capacity)));
        self
    }

    /// Default core count implied by the topology and program list.
    fn default_cores(&self) -> usize {
        match &self.topology {
            Topology::PairedLockstep => 2 * self.programs.len(),
            Topology::SharedChecker { checkers } => self.programs.len() + checkers,
            Topology::Custom(map) => map
                .iter()
                .flat_map(|(m, cs)| std::iter::once(*m).chain(cs.iter().copied()))
                .max()
                .map_or(0, |c| c + 1),
        }
    }

    /// Resolves the topology into explicit main/checker bindings.
    fn resolve(&self, cores: usize) -> Result<ResolvedTopology, ScenarioError> {
        match &self.topology {
            Topology::PairedLockstep => {
                if !cores.is_multiple_of(2) {
                    return Err(ScenarioError::UnpairedCores { cores });
                }
                let mains: Vec<usize> = (0..cores).step_by(2).collect();
                let checkers: Vec<usize> = (0..cores).skip(1).step_by(2).collect();
                let binding = mains
                    .iter()
                    .map(|&m| Binding::Dedicated(vec![m + 1]))
                    .collect();
                Ok(ResolvedTopology {
                    mains,
                    checkers,
                    binding,
                })
            }
            Topology::SharedChecker { checkers } => {
                let c = *checkers;
                if c == 0 || c >= cores {
                    return Err(ScenarioError::BadCheckerCount { checkers: c, cores });
                }
                let num_mains = cores - c;
                let mains: Vec<usize> = (0..num_mains).collect();
                let checker_ids: Vec<usize> = (num_mains..cores).collect();
                let binding = mains
                    .iter()
                    .map(|&m| Binding::Shared(num_mains + (m % c)))
                    .collect();
                Ok(ResolvedTopology {
                    mains,
                    checkers: checker_ids,
                    binding,
                })
            }
            Topology::Custom(map) => {
                let mut mains = Vec::new();
                let mut checkers: Vec<usize> = Vec::new();
                // How many mains list each checker.
                let mut users: Vec<Vec<usize>> = vec![Vec::new(); cores];
                for (main, cs) in map {
                    if *main >= cores {
                        return Err(ScenarioError::CoreOutOfRange { core: *main, cores });
                    }
                    if mains.contains(main) {
                        return Err(ScenarioError::DuplicateMain { main: *main });
                    }
                    if cs.is_empty() {
                        return Err(ScenarioError::NoCheckersFor { main: *main });
                    }
                    for &ch in cs {
                        if ch >= cores {
                            return Err(ScenarioError::CoreOutOfRange { core: ch, cores });
                        }
                        if ch == *main {
                            return Err(ScenarioError::SelfCheck { core: ch });
                        }
                        if !checkers.contains(&ch) {
                            checkers.push(ch);
                        }
                        users[ch].push(*main);
                    }
                    mains.push(*main);
                }
                for &m in &mains {
                    if checkers.contains(&m) {
                        return Err(ScenarioError::RoleConflict { core: m });
                    }
                }
                // Bindings: shared checkers must be exclusive on their
                // mains' side.
                let mut binding = Vec::with_capacity(mains.len());
                for (main, cs) in map {
                    let shared = cs.iter().find(|&&ch| users[ch].len() > 1);
                    match shared {
                        Some(&ch) if cs.len() > 1 => {
                            return Err(ScenarioError::SharedCheckerFanOut {
                                main: *main,
                                checker: ch,
                            });
                        }
                        Some(&ch) => binding.push(Binding::Shared(ch)),
                        None => binding.push(Binding::Dedicated(cs.clone())),
                    }
                }
                checkers.sort_unstable();
                Ok(ResolvedTopology {
                    mains,
                    checkers,
                    binding,
                })
            }
        }
    }

    /// Validates the scenario and builds the platform.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] describing the first violated
    /// constraint; never panics on bad configuration.
    pub fn build(mut self) -> Result<VerifiedRun, ScenarioError> {
        // A configured trace is an owned event sink the run dispatches
        // into directly, plus the path `write_trace` targets — no
        // shared handle, so the built run stays `Send`.
        let trace = self.trace.take().map(|(path, capacity)| {
            let observer = match capacity {
                Some(n) => crate::trace::TraceObserver::bounded(n),
                None => crate::trace::TraceObserver::new(),
            };
            (path, observer)
        });
        let cores = self.cores.unwrap_or_else(|| self.default_cores());
        if cores == 0 {
            return Err(ScenarioError::NoCores);
        }
        let resolved = self.resolve(cores)?;
        if resolved.mains.is_empty() {
            return Err(ScenarioError::NoMains);
        }
        if self.programs.len() < resolved.mains.len() {
            return Err(ScenarioError::MissingProgram {
                main_slot: self.programs.len(),
                programs: self.programs.len(),
            });
        }
        if self.programs.len() > resolved.mains.len() {
            return Err(ScenarioError::ExtraPrograms {
                mains: resolved.mains.len(),
                programs: self.programs.len(),
            });
        }
        if let Some(ch) = self.fault_plan.max_channel() {
            if ch >= resolved.mains.len() {
                return Err(ScenarioError::FaultChannelOutOfRange {
                    channel: ch,
                    mains: resolved.mains.len(),
                });
            }
        }
        if let Some(idx) = self.fault_plan.max_kill_checker() {
            if idx >= resolved.checkers.len() {
                return Err(ScenarioError::KillCheckerOutOfRange {
                    checker: idx,
                    checkers: resolved.checkers.len(),
                });
            }
        }
        // Flatten the model overrides into one kind per main slot;
        // later calls win, `main_core_model` (None) fans out to all.
        let mut models = vec![CoreModelKind::InOrder; resolved.mains.len()];
        for (slot, kind) in &self.core_models {
            match slot {
                Some(s) => {
                    if *s >= models.len() {
                        return Err(ScenarioError::ModelSlotOutOfRange {
                            slot: *s,
                            mains: models.len(),
                        });
                    }
                    models[*s] = *kind;
                }
                None => models.fill(*kind),
            }
        }
        // Same flattening for the reliability modes.
        let mut modes = vec![ReliabilityMode::SegmentCheck; resolved.mains.len()];
        for (slot, mode) in &self.reliability_modes {
            match slot {
                Some(s) => {
                    if *s >= modes.len() {
                        return Err(ScenarioError::ModeSlotOutOfRange {
                            slot: *s,
                            mains: modes.len(),
                        });
                    }
                    modes[*s] = *mode;
                }
                None => modes.fill(*mode),
            }
        }
        if let Some(pairing) = &self.pairing {
            if let Some(slot) = pairing.max_slot() {
                if slot >= resolved.mains.len() {
                    return Err(ScenarioError::PairingSlotOutOfRange {
                        slot,
                        mains: resolved.mains.len(),
                    });
                }
            }
            for event in pairing.events() {
                if !modes[event.slot].is_checked() {
                    return Err(ScenarioError::PairingUncheckedSlot { slot: event.slot });
                }
            }
        }
        VerifiedRun::from_scenario(
            cores,
            resolved,
            self.programs,
            self.fabric,
            self.fault_plan,
            self.recovery,
            self.observers,
            trace,
            self.record_events,
            models,
            modes,
            self.pairing,
        )
    }
}
