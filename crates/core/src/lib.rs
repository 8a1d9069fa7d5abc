//! # flexstep-core
//!
//! The FlexStep error-detection microarchitecture — the primary
//! contribution of *"FlexStep: Enabling Flexible Error Detection in
//! Multi/Many-core Real-time Systems"* (DAC 2025) — implemented over the
//! `flexstep-sim` multi-core simulator:
//!
//! - [`rcpm`]: Register Checkpoint Management (CPC instruction counter +
//!   privilege monitor, ASS snapshot storage) — checking segments open at
//!   user-mode execution and close at the 5 000-instruction limit or on a
//!   privilege switch (Fig. 3).
//! - [`packet`] / [`dbc`]: the Memory Access Log entry format (with
//!   multi-µop packaging of LR/SC/AMO) and the Data Buffering and
//!   Channelling FIFOs with configurable 1:1 / 1:2 interconnect channels
//!   and DMA spill.
//! - [`checker`]: the log-backed replay port — the same executor as the
//!   main core with memory access halted, loads served from the log and
//!   stores verified at commit.
//! - [`fabric`] / [`engine`]: dynamic core attributes (compute / main /
//!   checker), the Tab. I custom-ISA operations, asynchronous checker
//!   stepping and main-core backpressure.
//! - [`fault`]: bit-flip injection into forwarded data for the
//!   detection-latency experiments (Fig. 7).
//! - [`scenario`] / [`harness`]: the [`Scenario`] builder — the single
//!   front door for experiments (topology, fault plans, observers) —
//!   and the [`VerifiedRun`] driver it builds, from dual-core Fig. 4
//!   runs to many-core shared-checker SoCs. The harness keeps the
//!   dispatch loop; its children own the [`RunReport`], rollback and
//!   checker-loss recovery, and the reliability policy (coverage,
//!   dynamic pairing, the lockstep wait gate).
//! - [`sink`]: [`RunEvent`], the one vocabulary a run reports in, and
//!   the one-method [`Observer`] trait that receives it.
//! - [`trace`]: Chrome `trace_event` export of the schedule an observer
//!   sees (segment spans, checker occupancy, arbitration, detections) —
//!   load the file in `chrome://tracing`/Perfetto.
//!
//! ## Example: verified execution end to end
//!
//! ```
//! use flexstep_core::{FabricConfig, FlexSoc};
//! use flexstep_isa::{asm::Assembler, XReg};
//! use flexstep_sim::{PrivMode, SocConfig, StepKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small kernel that stores a running sum.
//! let mut asm = Assembler::new("sum_store");
//! asm.li(XReg::A0, 0);
//! asm.li(XReg::A1, 50);
//! asm.li(XReg::A2, 0x2000_0000);
//! asm.label("loop")?;
//! asm.add(XReg::A0, XReg::A0, XReg::A1);
//! asm.sd(XReg::A2, XReg::A0, 0);
//! asm.addi(XReg::A1, XReg::A1, -1);
//! asm.bnez(XReg::A1, "loop");
//! asm.ecall();
//! let program = asm.finish()?;
//!
//! // Core 0 is the main core, core 1 its checker (1:1 channel).
//! let mut fs = FlexSoc::new(SocConfig::paper(2), FabricConfig::paper())?;
//! fs.op_g_configure(&[0], &[1])?;
//! fs.op_m_associate(0, &[1])?;
//! fs.op_m_check(0, true)?;
//! fs.op_c_check_state(1, true)?;
//!
//! fs.soc.load_program(&program);
//! fs.soc.core_mut(0).state.pc = program.entry;
//! fs.soc.core_mut(0).state.prv = PrivMode::User;
//! fs.soc.core_mut(0).unpark();
//! fs.soc.core_mut(1).unpark();
//!
//! // Interleave both cores until the program ends and the checker drains.
//! let mut done = false;
//! for _ in 0..200_000 {
//!     if !done {
//!         if let flexstep_core::EngineStep::Core(StepKind::Trap { .. }) = fs.step(0) {
//!             done = true; // ecall: program finished
//!         }
//!     }
//!     fs.step(1);
//!     if done && fs.fabric.unit(0).fifo.is_fully_drained() {
//!         break;
//!     }
//! }
//! let checker = fs.checker_state(1);
//! assert!(checker.segments_checked > 0);
//! assert_eq!(checker.segments_failed, 0, "clean run must verify clean");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod checker;
pub mod dbc;
pub mod detect;
pub mod engine;
pub mod fabric;
pub mod fault;
pub mod harness;
pub mod json;
mod memo;
pub mod packet;
pub mod rcpm;
pub mod scenario;
pub mod share;
pub mod sink;
pub mod trace;

pub use checker::{CheckPhase, CheckerState, ReplayPort};
pub use dbc::{BufferFifo, FifoFull};
pub use detect::{DetectionEvent, MismatchKind, SegmentResult};
pub use engine::{EngineStep, FlexSoc};
pub use fabric::{CoreAttr, Fabric, FabricConfig, FabricStats, FlexError};
pub use fault::{inject_random_fault, inject_targeted_fault, FaultTarget, Injection, LatencyStats};
pub use flexstep_sim::{
    CoreModelKind, PairingAction, PairingEvent, PairingSchedule, ReliabilityMode, RELIABILITY_MODES,
};
pub use harness::{
    baseline_cycles, MainReport, MatchedDetection, ModeStats, RunReport, RunWarning, VerifiedRun,
};
pub use packet::{log_entries, Checkpoint, LogEntry, LogKind, Packet};
pub use rcpm::{Ass, SegmentClose, SegmentTracker, DEFAULT_SEGMENT_LIMIT};
pub use scenario::{FaultPlan, RecoveryPolicy, Scenario, ScenarioError, Topology};
pub use share::{ArbiterStats, CheckerArbiter};
pub use sink::{Observer, ObserverSummary, RecordingObserver, RunEvent};
pub use trace::{TraceObserver, DEFAULT_RING_CAPACITY};
