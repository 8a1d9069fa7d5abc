//! # flexstep-sim
//!
//! A Rocket-like in-order RV64 multi-core simulator: per-hart architectural
//! state with M/U privilege modes and precise traps, an instruction
//! executor shared between normal execution and FlexStep checker replay,
//! 5-stage-pipeline timing (branch predictor, load-use interlock,
//! functional-unit latencies) over the `flexstep-mem` hierarchy, and an
//! event-driven multi-core [`Soc`] engine.
//!
//! The FlexStep error-detection units attach on top of this crate
//! (`flexstep-core`); the OS layer drives it (`flexstep-kernel`).
//!
//! ## Example
//!
//! ```
//! use flexstep_isa::{asm::Assembler, XReg};
//! use flexstep_sim::{Soc, SocConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut asm = Assembler::new("triangular");
//! asm.li(XReg::A0, 0);
//! asm.li(XReg::A1, 100);
//! asm.label("loop")?;
//! asm.add(XReg::A0, XReg::A0, XReg::A1);
//! asm.addi(XReg::A1, XReg::A1, -1);
//! asm.bnez(XReg::A1, "loop");
//! asm.ecall();
//! let program = asm.finish()?;
//!
//! let mut soc = Soc::new(SocConfig::paper(1))?;
//! soc.run_to_ecall(&program, 10_000);
//! assert_eq!(soc.core(0).state.x(XReg::A0), 5050);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bpred;
pub mod core;
pub mod exec;
pub mod hart;
pub mod model;
pub mod port;
pub(crate) mod ready;
pub mod soc;
pub mod timing;

pub use crate::core::{Core, RunState};
pub use bpred::{BpredConfig, BranchPredictor};
pub use exec::{BranchOutcome, MemAccess, MemAccessKind};
pub use flexstep_soc::{
    CoreModelKind, PairingAction, PairingEvent, PairingSchedule, ReliabilityMode, RELIABILITY_MODES,
};
pub use hart::{ArchSnapshot, ArchState, CsrCounters, PrivMode, TrapCause};
pub use model::{
    CoreModel, CoreTimingModel, InOrderModel, InstructionExecutor, OooModel, RetireInfo,
    ScalarExecutor,
};
pub use port::{amo_apply, DataPort, PortStop, ReplayControl, SocDataPort};
pub use soc::{Retired, SchedMode, Soc, SocConfig, StepKind, StepResult, BLOCK_INSTS};
pub use timing::{Clock, ExecCosts};
