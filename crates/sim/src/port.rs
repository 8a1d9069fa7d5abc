//! Data-access ports.
//!
//! The executor performs all data-memory traffic through the [`DataPort`]
//! trait. A normal core binds a [`SocDataPort`] onto the shared
//! [`MemorySystem`]; a FlexStep checker core in replay mode substitutes a
//! log-backed port (`flexstep-core`), which is precisely how the paper's
//! checker "halts memory access and sequentially replays the checking
//! segments" (§II) — same executor, different port.

use flexstep_isa::inst::{AmoOp, AmoWidth};
use flexstep_mem::{AccessKind, MemorySystem};

/// Raised by a port to abort the current instruction.
///
/// The normal port raises it only for a main block, whose later
/// instructions must stay in their core's L1; replay ports raise it when
/// the replayed access diverges from the log (a detection event) or when
/// the log underruns. The typed detail lives in the port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortStop;

/// Where the executor sends data-memory accesses.
///
/// All methods return the access latency in cycles alongside their values.
///
/// # Errors
///
/// Implementations return [`PortStop`] to abort the instruction; the
/// normal memory port aborts only the L1-only accesses of a main block.
pub trait DataPort {
    /// Data read of `size` bytes; the value is the raw zero-extended
    /// memory content (the executor applies sign extension).
    fn read(&mut self, addr: u64, size: u8) -> Result<(u64, u64), PortStop>;

    /// Data write of the low `size` bytes of `value`.
    fn write(&mut self, addr: u64, value: u64, size: u8) -> Result<u64, PortStop>;

    /// Store-conditional; `resv_valid` reports whether the core's local
    /// reservation covers `addr`. Returns `(success, cycles)`.
    fn store_conditional(
        &mut self,
        addr: u64,
        value: u64,
        size: u8,
        resv_valid: bool,
    ) -> Result<(bool, u64), PortStop>;

    /// Atomic read-modify-write with operand `src`. Returns
    /// `(old_value, cycles)`; the stored value is `amo_apply(op, width,
    /// old, src)`.
    fn amo(
        &mut self,
        addr: u64,
        width: AmoWidth,
        op: AmoOp,
        src: u64,
    ) -> Result<(u64, u64), PortStop>;

    /// Offered the architectural outcome (`actual_next_pc`) of a
    /// just-retired control-flow instruction. Returns `Ok(true)` when the
    /// port supplied a matching forwarded outcome (the core then skips
    /// its own branch-prediction timing — MEEK-style outcome forwarding),
    /// `Ok(false)` when the port has no opinion (normal memory; replay of
    /// an in-order main's stream, which carries no outcome packets).
    ///
    /// # Errors
    ///
    /// Replay ports return [`PortStop`] when a forwarded outcome
    /// *disagrees* with the retirement — a divergence detection, handled
    /// like any data-log mismatch.
    fn branch_outcome(&mut self, actual_next_pc: u64) -> Result<bool, PortStop> {
        let _ = actual_next_pc;
        Ok(false)
    }
}

/// Controls a checker replay block ([`Soc::run_replay_block`]): owns the
/// replay [`DataPort`], decides before each instruction whether the
/// block may go on, and hears of each retirement. Accesses an
/// instruction made count only once it retires: the block ends before
/// an instruction that fails, leaving its accesses to be made again by
/// the single-step path.
///
/// [`Soc::run_replay_block`]: crate::Soc::run_replay_block
pub trait ReplayControl {
    /// The replay port the block's instructions access.
    fn port(&mut self) -> &mut dyn DataPort;

    /// Whether the next instruction may run in this block. Asked before
    /// every instruction, the first included.
    fn admit(&mut self) -> bool;

    /// The instruction just executed retired, charged `cycles`; the
    /// accesses it made through [`ReplayControl::port`] stand.
    fn retired(&mut self, cycles: u64);
}

/// Computes the stored value of an AMO.
pub fn amo_apply(op: AmoOp, width: AmoWidth, old: u64, src: u64) -> u64 {
    match width {
        AmoWidth::D => amo_apply64(op, old, src),
        AmoWidth::W => {
            let old32 = old as u32;
            let src32 = src as u32;
            amo_apply32(op, old32, src32) as u64
        }
    }
}

fn amo_apply64(op: AmoOp, old: u64, src: u64) -> u64 {
    match op {
        AmoOp::Swap => src,
        AmoOp::Add => old.wrapping_add(src),
        AmoOp::Xor => old ^ src,
        AmoOp::And => old & src,
        AmoOp::Or => old | src,
        AmoOp::Min => ((old as i64).min(src as i64)) as u64,
        AmoOp::Max => ((old as i64).max(src as i64)) as u64,
        AmoOp::Minu => old.min(src),
        AmoOp::Maxu => old.max(src),
    }
}

fn amo_apply32(op: AmoOp, old: u32, src: u32) -> u32 {
    match op {
        AmoOp::Swap => src,
        AmoOp::Add => old.wrapping_add(src),
        AmoOp::Xor => old ^ src,
        AmoOp::And => old & src,
        AmoOp::Or => old | src,
        AmoOp::Min => ((old as i32).min(src as i32)) as u32,
        AmoOp::Max => ((old as i32).max(src as i32)) as u32,
        AmoOp::Minu => old.min(src),
        AmoOp::Maxu => old.max(src),
    }
}

/// The normal data port: routes accesses to the shared [`MemorySystem`]
/// on behalf of one core.
///
/// Reported cycles are *stall penalties beyond the pipelined L1 hit*: an
/// in-order 5-stage pipeline hides the L1 hit latency, so a hit costs no
/// extra cycles here and a miss costs the time beyond the hit.
#[derive(Debug)]
pub struct SocDataPort<'a> {
    mem: &'a mut MemorySystem,
    core: usize,
    /// Abort, untouched, any access that would leave the core's own L1
    /// or act on another core's copy (a main block's later instructions).
    l1_only: bool,
}

impl<'a> SocDataPort<'a> {
    /// Binds the port to `core`'s path through the memory system.
    pub fn new(mem: &'a mut MemorySystem, core: usize) -> Self {
        SocDataPort {
            mem,
            core,
            l1_only: false,
        }
    }

    /// Like [`SocDataPort::new`], but with `l1_only` set an access that
    /// the core's own L1 cannot [serve without an
    /// upgrade](MemorySystem::l1_hit) aborts before touching anything.
    pub(crate) fn with_l1_only(mem: &'a mut MemorySystem, core: usize, l1_only: bool) -> Self {
        SocDataPort { mem, core, l1_only }
    }

    /// Times a `kind` access to `addr` and returns the stall beyond the
    /// pipelined L1 hit. Under `l1_only` the one-probe L1 call that every
    /// access starts with decides alone, and its refusal aborts.
    fn timed(&mut self, addr: u64, kind: AccessKind) -> Result<u64, PortStop> {
        let total = if self.l1_only {
            self.mem.l1_hit(self.core, addr, kind).ok_or(PortStop)?
        } else {
            self.mem.access(self.core, addr, kind)
        };
        Ok(self.penalty(total))
    }

    fn penalty(&self, total: u64) -> u64 {
        total.saturating_sub(self.mem.latency().l1_hit)
    }
}

impl DataPort for SocDataPort<'_> {
    fn read(&mut self, addr: u64, size: u8) -> Result<(u64, u64), PortStop> {
        let cycles = self.timed(addr, AccessKind::Read)?;
        Ok((self.mem.phys().read_sized(addr, size), cycles))
    }

    fn write(&mut self, addr: u64, value: u64, size: u8) -> Result<u64, PortStop> {
        let cycles = self.timed(addr, AccessKind::Write)?;
        self.mem.store(self.core, addr, value, size);
        Ok(cycles)
    }

    fn store_conditional(
        &mut self,
        addr: u64,
        value: u64,
        size: u8,
        resv_valid: bool,
    ) -> Result<(bool, u64), PortStop> {
        if resv_valid {
            Ok((true, self.write(addr, value, size)?))
        } else {
            // Failed SC still probes the cache; charge a read-shaped trip.
            Ok((false, self.read(addr, size)?.1))
        }
    }

    fn amo(
        &mut self,
        addr: u64,
        width: AmoWidth,
        op: AmoOp,
        src: u64,
    ) -> Result<(u64, u64), PortStop> {
        // Main blocks end before every atomic: `l1_only` is never set here.
        debug_assert!(!self.l1_only, "an atomic inside a main block");
        let (old, cycles) = self.mem.amo(self.core, addr, width.size(), |old| {
            amo_apply(op, width, old, src)
        });
        Ok((old, self.penalty(cycles)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexstep_mem::MemoryConfig;

    #[test]
    fn amo_apply_matrix() {
        use AmoOp::*;
        assert_eq!(amo_apply(Add, AmoWidth::D, 10, 5), 15);
        assert_eq!(amo_apply(Swap, AmoWidth::D, 10, 5), 5);
        assert_eq!(amo_apply(Xor, AmoWidth::D, 0b1100, 0b1010), 0b0110);
        assert_eq!(amo_apply(And, AmoWidth::D, 0b1100, 0b1010), 0b1000);
        assert_eq!(amo_apply(Or, AmoWidth::D, 0b1100, 0b1010), 0b1110);
        assert_eq!(
            amo_apply(Min, AmoWidth::D, (-5i64) as u64, 3),
            (-5i64) as u64
        );
        assert_eq!(amo_apply(Max, AmoWidth::D, (-5i64) as u64, 3), 3);
        assert_eq!(amo_apply(Minu, AmoWidth::D, (-5i64) as u64, 3), 3);
        assert_eq!(
            amo_apply(Maxu, AmoWidth::D, (-5i64) as u64, 3),
            (-5i64) as u64
        );
    }

    #[test]
    fn amo_apply_word_width_wraps() {
        assert_eq!(amo_apply(AmoOp::Add, AmoWidth::W, 0xFFFF_FFFF, 1), 0);
        assert_eq!(
            amo_apply(AmoOp::Min, AmoWidth::W, 0x8000_0000 /* i32::MIN */, 1),
            0x8000_0000
        );
    }

    #[test]
    fn soc_port_reads_and_writes() {
        let mut mem = MemorySystem::new(1, MemoryConfig::paper()).unwrap();
        let mut port = SocDataPort::new(&mut mem, 0);
        port.write(0x100, 0xAB, 1).unwrap();
        let (v, _) = port.read(0x100, 1).unwrap();
        assert_eq!(v, 0xAB);
    }

    #[test]
    fn sc_respects_reservation_flag() {
        let mut mem = MemorySystem::new(1, MemoryConfig::paper()).unwrap();
        let mut port = SocDataPort::new(&mut mem, 0);
        let (ok, _) = port.store_conditional(0x200, 7, 8, true).unwrap();
        assert!(ok);
        let (ok, _) = port.store_conditional(0x200, 9, 8, false).unwrap();
        assert!(!ok);
        assert_eq!(mem.phys().read_u64(0x200), 7);
    }

    #[test]
    fn amo_via_port_returns_old() {
        let mut mem = MemorySystem::new(1, MemoryConfig::paper()).unwrap();
        mem.phys_mut().write_u64(0x300, 100);
        let mut port = SocDataPort::new(&mut mem, 0);
        let (old, _) = port.amo(0x300, AmoWidth::D, AmoOp::Add, 11).unwrap();
        assert_eq!(old, 100);
        assert_eq!(mem.phys().read_u64(0x300), 111);
    }
}
