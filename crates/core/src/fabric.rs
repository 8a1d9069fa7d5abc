//! The FlexStep fabric: per-core error-detection units, the global
//! configuration register and the interconnect association map.
//!
//! This is pure hardware *state*; the coupling with the instruction-level
//! simulator (stepping, stalling, replay) lives in
//! [`engine`](crate::engine), and the Tab. I instruction semantics are
//! exposed there as `op_*` methods since several of them touch
//! architectural core state.

use crate::checker::CheckerState;
use crate::dbc::BufferFifo;
use crate::detect::DetectionEvent;
use crate::rcpm::{SegmentTracker, DEFAULT_SEGMENT_LIMIT};
use std::fmt;

/// Runtime attribute of a core (visible to the OS via `G.IDs.contain`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreAttr {
    /// Plain compute core: no FlexStep role.
    Compute,
    /// Main core: its user-mode execution is checked.
    Main,
    /// Checker core: replays and verifies segments.
    Checker,
}

impl CoreAttr {
    /// Encoding returned by `G.IDs.contain` in `rd`.
    pub fn to_bits(self) -> u64 {
        match self {
            CoreAttr::Compute => 0,
            CoreAttr::Main => 1,
            CoreAttr::Checker => 2,
        }
    }
}

impl fmt::Display for CoreAttr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreAttr::Compute => f.write_str("compute"),
            CoreAttr::Main => f.write_str("main"),
            CoreAttr::Checker => f.write_str("checker"),
        }
    }
}

/// FlexStep hardware configuration.
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// DBC SRAM capacity for log entries, bytes per core (Tab. III:
    /// 1 088 B).
    pub fifo_entry_bytes: usize,
    /// In-flight checkpoint slots (ASS double-buffering).
    pub checkpoint_slots: usize,
    /// Allow spilling to main memory over DMA (§III-C): pushes never
    /// fail, and the spill engine drains the SRAM in the background
    /// without stalling the producing core.
    pub dma_spill: bool,
    /// Checking-segment instruction limit (§III-A: 5 000).
    pub segment_limit: u64,
    /// Main-core stall for capturing and forwarding an SCP.
    pub scp_extract_cycles: u64,
    /// Main-core stall for capturing and forwarding an ECP.
    pub ecp_extract_cycles: u64,
    /// Checker-core stall for applying an SCP (`C.apply` + `C.jal`).
    pub scp_apply_cycles: u64,
    /// Checker-core stall for the ECP comparison.
    pub ecp_compare_cycles: u64,
    /// Stall applied when a backpressured main core retries.
    pub backpressure_retry_cycles: u64,
    /// Stall applied when a checker waits on an empty stream.
    pub checker_wait_cycles: u64,
    /// Segment-verdict memo capacity per checker (entries). `0` disables
    /// memoization entirely; any other value bounds the LRU verdict
    /// cache. Memoization never changes results — a hit charges the
    /// cached segment totals a real replay would have charged, producing
    /// bit-identical reports — so it defaults on.
    pub memo_capacity: usize,
}

impl FabricConfig {
    /// The evaluated configuration: Tab. III SRAM sizes, the §III-A
    /// segment limit, extraction costs sized to the ASS port width, and
    /// the §III-C main-memory DMA spill that lets a checker lag its main
    /// core by whole segments (asynchronous checking needs roughly one
    /// segment of buffering; the 1 088 B SRAM alone cannot hold it).
    pub fn paper() -> Self {
        FabricConfig {
            fifo_entry_bytes: 1088,
            checkpoint_slots: 4,
            dma_spill: true,
            segment_limit: DEFAULT_SEGMENT_LIMIT,
            scp_extract_cycles: 32,
            ecp_extract_cycles: 32,
            scp_apply_cycles: 66,
            ecp_compare_cycles: 8,
            backpressure_retry_cycles: 4,
            checker_wait_cycles: 4,
            memo_capacity: crate::memo::DEFAULT_MEMO_CAPACITY,
        }
    }

    /// SRAM-only configuration: no DMA spill, double-buffered
    /// checkpoints. Exercises the hard backpressure path — the main core
    /// stalls whenever the checker lags past the on-chip buffers.
    pub fn paper_strict() -> Self {
        FabricConfig {
            dma_spill: false,
            checkpoint_slots: 2,
            ..Self::paper()
        }
    }
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Errors from FlexStep configuration operations (Tab. I semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlexError {
    /// Core index out of range.
    CoreOutOfRange {
        /// The offending index.
        core: usize,
    },
    /// Operation requires a main core.
    NotMain {
        /// The offending core.
        core: usize,
    },
    /// Operation requires a checker core.
    NotChecker {
        /// The offending core.
        core: usize,
    },
    /// The checker is already associated with another main core.
    CheckerTaken {
        /// The checker.
        checker: usize,
        /// Its current main core.
        current_main: usize,
    },
    /// The association still has buffered, unverified data.
    StreamNotDrained {
        /// The main core whose FIFO is non-empty.
        main: usize,
    },
    /// Checking must be disabled before reconfiguration.
    CheckingEnabled {
        /// The main core with checking on.
        main: usize,
    },
    /// A checker involved in reconfiguration is still busy.
    CheckerBusy {
        /// The busy checker.
        checker: usize,
    },
    /// `M.associate` needs at least one checker.
    NoCheckers,
    /// A channel grant requires the main core to be in the pending
    /// (buffering, unconnected) state.
    NotPending {
        /// The offending main core.
        main: usize,
    },
    /// The checker has no channel to revoke.
    NoChannel {
        /// The unconnected checker.
        checker: usize,
    },
}

impl fmt::Display for FlexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FlexError::CoreOutOfRange { core } => write!(f, "core {core} out of range"),
            FlexError::NotMain { core } => write!(f, "core {core} is not a main core"),
            FlexError::NotChecker { core } => write!(f, "core {core} is not a checker core"),
            FlexError::CheckerTaken {
                checker,
                current_main,
            } => {
                write!(f, "checker {checker} already serves main {current_main}")
            }
            FlexError::StreamNotDrained { main } => {
                write!(f, "main {main}'s stream still has unverified data")
            }
            FlexError::CheckingEnabled { main } => {
                write!(f, "main {main} still has checking enabled")
            }
            FlexError::CheckerBusy { checker } => write!(f, "checker {checker} is busy"),
            FlexError::NoCheckers => write!(f, "at least one checker required"),
            FlexError::NotPending { main } => {
                write!(f, "main {main} is not pending a checker grant")
            }
            FlexError::NoChannel { checker } => {
                write!(f, "checker {checker} has no channel to revoke")
            }
        }
    }
}

impl std::error::Error for FlexError {}

/// Per-core FlexStep hardware: every core carries *all* units so any core
/// can take any attribute at runtime (§III: "incorporating the same
/// functional units into each core is essential to enable dynamic
/// switching").
#[derive(Debug)]
pub struct CoreUnit {
    /// Current attribute.
    pub attr: CoreAttr,
    /// Main-role: segment tracker (CPC).
    pub tracker: SegmentTracker,
    /// Main-role: outgoing data-buffer FIFO (DBC).
    pub fifo: BufferFifo,
    /// Main-role: `M.check` state.
    pub checking_enabled: bool,
    /// Checker-role state (ASS, phase, results).
    pub checker: CheckerState,
    /// Main-role: cycles this core has stalled extracting checkpoints
    /// (SCP on segment open, IC+ECP on close) — the per-mode checkpoint
    /// overhead the reliability-policy accounting reports.
    pub(crate) cp_stall_cycles: u64,
    /// Main-role: a fault shot is armed or in flight on this stream, so
    /// its checkers must not serve verdicts from the memo (the harness
    /// keeps this in sync with the fault driver).
    pub(crate) memo_blocked: bool,
}

impl CoreUnit {
    fn new(config: &FabricConfig) -> Self {
        let mut fifo = BufferFifo::new(config.fifo_entry_bytes, config.checkpoint_slots);
        fifo.set_spill(config.dma_spill);
        let mut checker = CheckerState::new();
        checker.memo = crate::memo::VerdictMemo::new(config.memo_capacity);
        CoreUnit {
            attr: CoreAttr::Compute,
            tracker: SegmentTracker::new(config.segment_limit),
            fifo,
            checking_enabled: false,
            checker,
            cp_stall_cycles: 0,
            memo_blocked: false,
        }
    }
}

/// Aggregate fabric statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Steps a main core spent stalled on FIFO backpressure.
    pub backpressure_stalls: u64,
    /// Steps a checker spent waiting on an empty stream.
    pub checker_wait_stalls: u64,
    /// Segments verified clean across all checkers.
    pub segments_ok: u64,
    /// Segments that failed verification.
    pub segments_failed: u64,
    /// Segment applies that found a verdict in the memo. A hit is
    /// served (replay skipped) only when its segment ends before the
    /// harness's replay horizon; one that would cross it replays for
    /// real, so single-stepped runs (horizon 0) serve none.
    pub memo_hits: u64,
    /// Memoizable segment applies that missed the verdict memo.
    pub memo_misses: u64,
}

/// The FlexStep fabric state shared by all cores.
#[derive(Debug)]
pub struct Fabric {
    config: FabricConfig,
    units: Vec<CoreUnit>,
    /// Per main core: its associated checkers in consumer-index order
    /// (`Some(vec![])` = pending association, buffering with no consumer
    /// granted yet; `None` = no association). Indexed by core id so the
    /// per-step `checking_live` test is O(1), not a map lookup.
    assoc: Vec<Option<Vec<usize>>>,
    /// Per checker core: `(main core, consumer index)` of its channel.
    reverse: Vec<Option<(usize, usize)>>,
    /// Detection events not yet drained by the OS.
    pub detections: Vec<DetectionEvent>,
    /// Aggregate statistics.
    pub stats: FabricStats,
}

impl Fabric {
    /// Builds the fabric for `num_cores` cores, all starting as compute.
    pub fn new(num_cores: usize, config: FabricConfig) -> Self {
        Fabric {
            units: (0..num_cores).map(|_| CoreUnit::new(&config)).collect(),
            config,
            assoc: vec![None; num_cores],
            reverse: vec![None; num_cores],
            detections: Vec::new(),
            stats: FabricStats::default(),
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.units.len()
    }

    /// Immutable unit access.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn unit(&self, core: usize) -> &CoreUnit {
        &self.units[core]
    }

    /// Mutable unit access.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn unit_mut(&mut self, core: usize) -> &mut CoreUnit {
        &mut self.units[core]
    }

    fn check_core(&self, core: usize) -> Result<(), FlexError> {
        if core < self.units.len() {
            Ok(())
        } else {
            Err(FlexError::CoreOutOfRange { core })
        }
    }

    /// `G.IDs.contain`: the attribute of a core.
    ///
    /// # Errors
    ///
    /// Returns [`FlexError::CoreOutOfRange`] for bad indices.
    pub fn ids_contain(&self, core: usize) -> Result<CoreAttr, FlexError> {
        self.check_core(core)?;
        Ok(self.units[core].attr)
    }

    /// `G.Configure`: writes main/checker IDs into the global
    /// configuration register. Unlisted cores become compute cores.
    ///
    /// # Errors
    ///
    /// Fails when a core changing role still has undrained streams, a
    /// busy checker state, or enabled checking.
    pub fn configure(&mut self, mains: &[usize], checkers: &[usize]) -> Result<(), FlexError> {
        for &c in mains.iter().chain(checkers) {
            self.check_core(c)?;
        }
        // Validate teardown preconditions for every core whose role changes.
        for core in 0..self.units.len() {
            let new_attr = if mains.contains(&core) {
                CoreAttr::Main
            } else if checkers.contains(&core) {
                CoreAttr::Checker
            } else {
                CoreAttr::Compute
            };
            let unit = &self.units[core];
            if unit.attr == new_attr {
                continue;
            }
            if unit.attr == CoreAttr::Main {
                if unit.checking_enabled {
                    return Err(FlexError::CheckingEnabled { main: core });
                }
                if !unit.fifo.is_empty() {
                    return Err(FlexError::StreamNotDrained { main: core });
                }
            }
            if unit.attr == CoreAttr::Checker && unit.checker.busy {
                return Err(FlexError::CheckerBusy { checker: core });
            }
        }
        // Apply: tear down associations involving role-changed cores.
        for core in 0..self.units.len() {
            let new_attr = if mains.contains(&core) {
                CoreAttr::Main
            } else if checkers.contains(&core) {
                CoreAttr::Checker
            } else {
                CoreAttr::Compute
            };
            if self.units[core].attr != new_attr {
                self.dissolve_associations_of(core);
                self.units[core].attr = new_attr;
            }
        }
        Ok(())
    }

    fn dissolve_associations_of(&mut self, core: usize) {
        if let Some(checkers) = self.assoc[core].take() {
            for ch in checkers {
                self.reverse[ch] = None;
            }
            self.units[core].fifo.reset();
        }
        if let Some((main, _)) = self.reverse[core].take() {
            if let Some(list) = self.assoc[main].as_mut() {
                list.retain(|&c| c != core);
                if list.is_empty() {
                    self.assoc[main] = None;
                }
            }
        }
    }

    /// `M.associate`: allocates one or more checker cores to `main`,
    /// configuring the interconnect channel (1:1 = DCLS-like,
    /// 1:2 = TCLS-like, or wider).
    ///
    /// # Errors
    ///
    /// Fails when roles don't match, a checker already serves another
    /// main, or the previous channel still holds data.
    pub fn associate(&mut self, main: usize, checkers: &[usize]) -> Result<(), FlexError> {
        self.check_core(main)?;
        if checkers.is_empty() {
            return Err(FlexError::NoCheckers);
        }
        if self.units[main].attr != CoreAttr::Main {
            return Err(FlexError::NotMain { core: main });
        }
        for &ch in checkers {
            self.check_core(ch)?;
            if self.units[ch].attr != CoreAttr::Checker {
                return Err(FlexError::NotChecker { core: ch });
            }
            if let Some((m, _)) = self.reverse[ch] {
                if m != main {
                    return Err(FlexError::CheckerTaken {
                        checker: ch,
                        current_main: m,
                    });
                }
            }
        }
        if !self.units[main].fifo.is_empty() {
            return Err(FlexError::StreamNotDrained { main });
        }
        // Replace the previous association.
        if let Some(old) = self.assoc[main].take() {
            for ch in old {
                self.reverse[ch] = None;
            }
        }
        self.units[main].fifo.set_consumers(checkers.len());
        for (idx, &ch) in checkers.iter().enumerate() {
            self.reverse[ch] = Some((main, idx));
        }
        self.assoc[main] = Some(checkers.to_vec());
        Ok(())
    }

    /// Puts a main core in the *pending* association state (§III-C
    /// conflict resolution): the core buffers checking-segment data into
    /// its own FIFO while *waiting* for a checker to be granted. The OS
    /// (or a [`CheckerArbiter`](crate::share::CheckerArbiter)) later
    /// connects the channel with [`Fabric::grant`].
    ///
    /// Checking counts as live in this state — the segment capture path
    /// runs, and the data waits in the FIFO for the future consumer.
    ///
    /// # Errors
    ///
    /// Fails when the core is not a main core or its previous stream has
    /// not drained.
    pub fn associate_pending(&mut self, main: usize) -> Result<(), FlexError> {
        self.check_core(main)?;
        if self.units[main].attr != CoreAttr::Main {
            return Err(FlexError::NotMain { core: main });
        }
        if !self.units[main].fifo.is_empty() {
            return Err(FlexError::StreamNotDrained { main });
        }
        if let Some(old) = self.assoc[main].take() {
            for ch in old {
                self.reverse[ch] = None;
            }
        }
        self.units[main].fifo.set_consumers(1);
        self.assoc[main] = Some(Vec::new());
        Ok(())
    }

    /// Connects a pending main core's FIFO to `checker` — the grant half
    /// of the §III-C arbitration. Unlike [`Fabric::associate`], the
    /// main's FIFO may already hold buffered segments; the checker starts
    /// consuming them from the front.
    ///
    /// # Errors
    ///
    /// Fails when the roles don't match, the checker already serves a
    /// different main, or `main` is not in the pending state.
    pub fn grant(&mut self, main: usize, checker: usize) -> Result<(), FlexError> {
        self.check_core(main)?;
        self.check_core(checker)?;
        if self.units[checker].attr != CoreAttr::Checker {
            return Err(FlexError::NotChecker { core: checker });
        }
        if let Some((m, _)) = self.reverse[checker] {
            return if m == main {
                Ok(())
            } else {
                Err(FlexError::CheckerTaken {
                    checker,
                    current_main: m,
                })
            };
        }
        match self.assoc[main].as_mut() {
            Some(list) if list.is_empty() => {
                list.push(checker);
                self.reverse[checker] = Some((main, 0));
                Ok(())
            }
            _ => Err(FlexError::NotPending { main }),
        }
    }

    /// Disconnects a checker from its current main core, returning the
    /// main to the pending state — the release half of the §III-C
    /// arbitration. The channel may only be torn down at a safe point:
    /// the stream fully drained and the checker between segments.
    ///
    /// Returns the main core the checker was serving.
    ///
    /// # Errors
    ///
    /// Fails when the checker has no channel, the stream still holds
    /// data, or the checker is mid-segment.
    pub fn revoke(&mut self, checker: usize) -> Result<usize, FlexError> {
        self.check_core(checker)?;
        let (main, _) = self.reverse[checker].ok_or(FlexError::NoChannel { checker })?;
        if !self.units[main].fifo.is_empty() {
            return Err(FlexError::StreamNotDrained { main });
        }
        if self.units[checker].checker.phase != crate::checker::CheckPhase::WaitScp {
            return Err(FlexError::CheckerBusy { checker });
        }
        self.reverse[checker] = None;
        if let Some(list) = self.assoc[main].as_mut() {
            list.retain(|&c| c != checker);
        }
        Ok(main)
    }

    /// Whether `main` has an association (granted *or* pending).
    #[inline]
    fn has_assoc(&self, main: usize) -> bool {
        self.assoc[main].is_some()
    }

    /// `M.check`: enables or disables checking on a main core.
    ///
    /// Disabling with an open segment abandons it (the OS does this only
    /// from kernel mode, where segments are already closed; the abandon
    /// path covers direct hardware use).
    ///
    /// # Errors
    ///
    /// Enabling requires the core to be a main core with an association.
    pub fn set_check(&mut self, main: usize, enable: bool) -> Result<(), FlexError> {
        self.check_core(main)?;
        if enable {
            if self.units[main].attr != CoreAttr::Main {
                return Err(FlexError::NotMain { core: main });
            }
            if !self.has_assoc(main) {
                return Err(FlexError::NoCheckers);
            }
            self.units[main].checking_enabled = true;
        } else {
            if self.units[main].tracker.is_open() {
                self.units[main].tracker.abandon();
            }
            self.units[main].checking_enabled = false;
        }
        Ok(())
    }

    /// `C.check_state`: switches a checker between busy and idle.
    ///
    /// # Errors
    ///
    /// Requires the core to be a checker.
    pub fn set_check_state(&mut self, checker: usize, busy: bool) -> Result<(), FlexError> {
        self.check_core(checker)?;
        if self.units[checker].attr != CoreAttr::Checker {
            return Err(FlexError::NotChecker { core: checker });
        }
        self.units[checker].checker.busy = busy;
        Ok(())
    }

    /// Resets a checker's replay state machine to wait-for-SCP, dropping
    /// any in-progress replay, staged context, and memo
    /// recording/playback (rollback recovery and checker teardown both
    /// need this). Verdict counters and the memo cache itself survive —
    /// cached verdicts for *other* streams stay valid.
    pub(crate) fn reset_checker_replay(&mut self, checker: usize) {
        let st = &mut self.units[checker].checker;
        st.phase = crate::checker::CheckPhase::WaitScp;
        st.recording = None;
        st.playback = None;
        st.ass.take_saved();
        st.ass.take_scp();
    }

    /// Permanently tears down a checker core's channel after a hard
    /// fault ([`FaultPlan::kill_checker_at`](crate::FaultPlan)): force
    /// de-association with none of [`Fabric::revoke`]'s safe-point
    /// preconditions — a dead checker can never reach one.
    ///
    /// If the checker was connected, its main's FIFO is flushed (the
    /// buffered stream indexed a consumer set that no longer exists) and
    /// the channel re-forms around the survivors: remaining dedicated
    /// checkers are re-indexed and restarted at the next SCP, while a
    /// main left with no consumer reverts to the pending state —
    /// buffering for a future [`Fabric::grant`] by a surviving arbiter,
    /// or for the harness to degrade to unchecked execution.
    ///
    /// Returns `(main, surviving consumer count)` when the checker had a
    /// channel.
    pub(crate) fn kill_checker(&mut self, checker: usize) -> Option<(usize, usize)> {
        self.reset_checker_replay(checker);
        self.units[checker].checker.busy = false;
        let (main, _) = self.reverse[checker].take()?;
        let mut survivors = Vec::new();
        if let Some(list) = self.assoc[main].as_mut() {
            list.retain(|&c| c != checker);
            survivors = list.clone();
        }
        self.units[main].fifo.reset();
        if self.units[main].tracker.is_open() {
            // The open segment's SCP went down with the flush; abandon it
            // so the stream re-forms at the next segment boundary with a
            // fresh SCP (anything the harness wants re-verified is rolled
            // back instead).
            self.units[main].tracker.abandon();
        }
        if survivors.is_empty() {
            // The pending convention: buffer for one future consumer.
            self.units[main].fifo.set_consumers(1);
        } else {
            self.units[main].fifo.set_consumers(survivors.len());
            for (idx, &ch) in survivors.iter().enumerate() {
                self.reverse[ch] = Some((main, idx));
                self.reset_checker_replay(ch);
            }
        }
        Some((main, survivors.len()))
    }

    /// The checkers associated with a main core (consumer-index order);
    /// empty for out-of-range ids.
    pub fn checkers_of(&self, main: usize) -> &[usize] {
        self.assoc
            .get(main)
            .and_then(|a| a.as_deref())
            .unwrap_or(&[])
    }

    /// The channel endpoint of a checker: `(main core, consumer index)`;
    /// `None` for unconnected or out-of-range ids.
    #[inline]
    pub fn channel_of(&self, checker: usize) -> Option<(usize, usize)> {
        self.reverse.get(checker).copied().flatten()
    }

    /// Whether checking is live on a main core (attribute, enable bit and
    /// association all in place).
    #[inline]
    pub fn checking_live(&self, main: usize) -> bool {
        let unit = &self.units[main];
        unit.attr == CoreAttr::Main && unit.checking_enabled && self.has_assoc(main)
    }

    /// Drains all pending detection events.
    pub fn take_detections(&mut self) -> Vec<DetectionEvent> {
        std::mem::take(&mut self.detections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(n: usize) -> Fabric {
        Fabric::new(n, FabricConfig::paper())
    }

    #[test]
    fn cores_start_as_compute() {
        let f = fabric(4);
        for c in 0..4 {
            assert_eq!(f.ids_contain(c).unwrap(), CoreAttr::Compute);
        }
        assert!(f.ids_contain(4).is_err());
    }

    #[test]
    fn configure_assigns_attributes() {
        let mut f = fabric(4);
        f.configure(&[0, 2], &[1, 3]).unwrap();
        assert_eq!(f.ids_contain(0).unwrap(), CoreAttr::Main);
        assert_eq!(f.ids_contain(1).unwrap(), CoreAttr::Checker);
        assert_eq!(f.ids_contain(2).unwrap(), CoreAttr::Main);
        assert_eq!(f.ids_contain(3).unwrap(), CoreAttr::Checker);
        // Reconfigure: core 2 becomes compute.
        f.configure(&[0], &[1]).unwrap();
        assert_eq!(f.ids_contain(2).unwrap(), CoreAttr::Compute);
    }

    #[test]
    fn associate_validates_roles() {
        let mut f = fabric(4);
        f.configure(&[0], &[1]).unwrap();
        assert_eq!(f.associate(1, &[0]), Err(FlexError::NotMain { core: 1 }));
        assert_eq!(f.associate(0, &[2]), Err(FlexError::NotChecker { core: 2 }));
        assert_eq!(f.associate(0, &[]), Err(FlexError::NoCheckers));
        f.associate(0, &[1]).unwrap();
        assert_eq!(f.checkers_of(0), &[1]);
        assert_eq!(f.channel_of(1), Some((0, 0)));
    }

    #[test]
    fn checker_exclusivity_enforced() {
        let mut f = fabric(4);
        f.configure(&[0, 2], &[1]).unwrap();
        f.associate(0, &[1]).unwrap();
        assert_eq!(
            f.associate(2, &[1]),
            Err(FlexError::CheckerTaken {
                checker: 1,
                current_main: 0
            })
        );
    }

    #[test]
    fn one_to_two_channel() {
        let mut f = fabric(4);
        f.configure(&[0], &[1, 2]).unwrap();
        f.associate(0, &[1, 2]).unwrap();
        assert_eq!(f.unit(0).fifo.consumers(), 2);
        assert_eq!(f.channel_of(1), Some((0, 0)));
        assert_eq!(f.channel_of(2), Some((0, 1)));
    }

    #[test]
    fn check_enable_requires_association() {
        let mut f = fabric(2);
        f.configure(&[0], &[1]).unwrap();
        assert_eq!(f.set_check(0, true), Err(FlexError::NoCheckers));
        f.associate(0, &[1]).unwrap();
        f.set_check(0, true).unwrap();
        assert!(f.checking_live(0));
        f.set_check(0, false).unwrap();
        assert!(!f.checking_live(0));
    }

    #[test]
    fn busy_checker_blocks_reconfiguration() {
        let mut f = fabric(2);
        f.configure(&[0], &[1]).unwrap();
        f.set_check_state(1, true).unwrap();
        assert_eq!(
            f.configure(&[1], &[0]),
            Err(FlexError::CheckerBusy { checker: 1 })
        );
        f.set_check_state(1, false).unwrap();
        f.configure(&[1], &[0]).unwrap();
        assert_eq!(f.ids_contain(1).unwrap(), CoreAttr::Main);
    }

    #[test]
    fn attr_bits_for_ids_contain() {
        assert_eq!(CoreAttr::Compute.to_bits(), 0);
        assert_eq!(CoreAttr::Main.to_bits(), 1);
        assert_eq!(CoreAttr::Checker.to_bits(), 2);
    }
}
