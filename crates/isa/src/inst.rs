//! The decoded instruction model.
//!
//! [`Inst`] covers the RV64IMA base that Rocket implements, a
//! double-precision floating-point subset (the evaluated Rocket
//! configuration has one FPU), the `Zicsr` system instructions, and the nine
//! FlexStep custom instructions of Tab. I of the paper.
//!
//! Instructions are grouped by format — e.g. all conditional branches share
//! the [`Inst::Branch`] variant parameterised by [`BranchOp`] — which keeps
//! the executor, encoder and decoder in one-to-one correspondence with the
//! RISC-V instruction formats (R/I/S/B/U/J/R4).

use crate::reg::{FReg, XReg};
use std::fmt;

/// Condition evaluated by a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// `beq`: branch if equal.
    Eq,
    /// `bne`: branch if not equal.
    Ne,
    /// `blt`: branch if signed less-than.
    Lt,
    /// `bge`: branch if signed greater-or-equal.
    Ge,
    /// `bltu`: branch if unsigned less-than.
    Ltu,
    /// `bgeu`: branch if unsigned greater-or-equal.
    Geu,
}

/// Width and sign-extension behaviour of an integer load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOp {
    /// `lb`: signed byte.
    Lb,
    /// `lh`: signed half-word.
    Lh,
    /// `lw`: signed word.
    Lw,
    /// `ld`: double word.
    Ld,
    /// `lbu`: unsigned byte.
    Lbu,
    /// `lhu`: unsigned half-word.
    Lhu,
    /// `lwu`: unsigned word.
    Lwu,
}

impl LoadOp {
    /// Access size in bytes.
    pub fn size(self) -> u8 {
        match self {
            LoadOp::Lb | LoadOp::Lbu => 1,
            LoadOp::Lh | LoadOp::Lhu => 2,
            LoadOp::Lw | LoadOp::Lwu => 4,
            LoadOp::Ld => 8,
        }
    }

    /// Whether the loaded value is sign-extended to 64 bits.
    pub fn is_signed(self) -> bool {
        matches!(self, LoadOp::Lb | LoadOp::Lh | LoadOp::Lw | LoadOp::Ld)
    }
}

/// Width of an integer store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// `sb`: byte.
    Sb,
    /// `sh`: half-word.
    Sh,
    /// `sw`: word.
    Sw,
    /// `sd`: double word.
    Sd,
}

impl StoreOp {
    /// Access size in bytes.
    pub fn size(self) -> u8 {
        match self {
            StoreOp::Sb => 1,
            StoreOp::Sh => 2,
            StoreOp::Sw => 4,
            StoreOp::Sd => 8,
        }
    }
}

/// Register-register integer operation (RV64I plus the M extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntOp {
    /// `add`.
    Add,
    /// `sub`.
    Sub,
    /// `sll`: shift left logical.
    Sll,
    /// `slt`: set if signed less-than.
    Slt,
    /// `sltu`: set if unsigned less-than.
    Sltu,
    /// `xor`.
    Xor,
    /// `srl`: shift right logical.
    Srl,
    /// `sra`: shift right arithmetic.
    Sra,
    /// `or`.
    Or,
    /// `and`.
    And,
    /// `mul` (M extension).
    Mul,
    /// `mulh`: upper 64 bits of signed×signed (M extension).
    Mulh,
    /// `mulhsu`: upper 64 bits of signed×unsigned (M extension).
    Mulhsu,
    /// `mulhu`: upper 64 bits of unsigned×unsigned (M extension).
    Mulhu,
    /// `div`: signed division (M extension).
    Div,
    /// `divu`: unsigned division (M extension).
    Divu,
    /// `rem`: signed remainder (M extension).
    Rem,
    /// `remu`: unsigned remainder (M extension).
    Remu,
}

impl IntOp {
    /// Whether this operation belongs to the M (multiply/divide) extension.
    pub fn is_muldiv(self) -> bool {
        matches!(
            self,
            IntOp::Mul
                | IntOp::Mulh
                | IntOp::Mulhsu
                | IntOp::Mulhu
                | IntOp::Div
                | IntOp::Divu
                | IntOp::Rem
                | IntOp::Remu
        )
    }
}

/// Register-immediate integer operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntImmOp {
    /// `addi`.
    Addi,
    /// `slti`.
    Slti,
    /// `sltiu`.
    Sltiu,
    /// `xori`.
    Xori,
    /// `ori`.
    Ori,
    /// `andi`.
    Andi,
    /// `slli` (6-bit shift amount on RV64).
    Slli,
    /// `srli`.
    Srli,
    /// `srai`.
    Srai,
}

/// 32-bit ("word") register-register operation, result sign-extended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntWOp {
    /// `addw`.
    Addw,
    /// `subw`.
    Subw,
    /// `sllw`.
    Sllw,
    /// `srlw`.
    Srlw,
    /// `sraw`.
    Sraw,
    /// `mulw` (M extension).
    Mulw,
    /// `divw` (M extension).
    Divw,
    /// `divuw` (M extension).
    Divuw,
    /// `remw` (M extension).
    Remw,
    /// `remuw` (M extension).
    Remuw,
}

/// 32-bit ("word") register-immediate operation, result sign-extended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntImmWOp {
    /// `addiw`.
    Addiw,
    /// `slliw` (5-bit shift amount).
    Slliw,
    /// `srliw`.
    Srliw,
    /// `sraiw`.
    Sraiw,
}

/// Atomic read-modify-write operation (A extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmoOp {
    /// `amoswap`.
    Swap,
    /// `amoadd`.
    Add,
    /// `amoxor`.
    Xor,
    /// `amoand`.
    And,
    /// `amoor`.
    Or,
    /// `amomin` (signed).
    Min,
    /// `amomax` (signed).
    Max,
    /// `amominu` (unsigned).
    Minu,
    /// `amomaxu` (unsigned).
    Maxu,
}

/// Operand width of an atomic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmoWidth {
    /// 32-bit, result sign-extended.
    W,
    /// 64-bit.
    D,
}

impl AmoWidth {
    /// Access size in bytes.
    pub fn size(self) -> u8 {
        match self {
            AmoWidth::W => 4,
            AmoWidth::D => 8,
        }
    }
}

/// CSR access operation (`Zicsr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrOp {
    /// `csrrw`: atomic read/write.
    Rw,
    /// `csrrs`: atomic read and set bits.
    Rs,
    /// `csrrc`: atomic read and clear bits.
    Rc,
    /// `csrrwi`: immediate read/write.
    Rwi,
    /// `csrrsi`: immediate read and set bits.
    Rsi,
    /// `csrrci`: immediate read and clear bits.
    Rci,
}

impl CsrOp {
    /// Whether the source operand is a 5-bit immediate rather than `rs1`.
    pub fn is_immediate(self) -> bool {
        matches!(self, CsrOp::Rwi | CsrOp::Rsi | CsrOp::Rci)
    }
}

/// Two-operand double-precision floating-point computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// `fadd.d`.
    Add,
    /// `fsub.d`.
    Sub,
    /// `fmul.d`.
    Mul,
    /// `fdiv.d`.
    Div,
    /// `fsgnj.d`: copy sign.
    SgnJ,
    /// `fsgnjn.d`: copy negated sign.
    SgnJN,
    /// `fsgnjx.d`: xor signs.
    SgnJX,
    /// `fmin.d`.
    Min,
    /// `fmax.d`.
    Max,
}

/// Double-precision comparison writing an integer register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpCmpOp {
    /// `feq.d`.
    Eq,
    /// `flt.d`.
    Lt,
    /// `fle.d`.
    Le,
}

/// Fused multiply-add family (R4-format).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FmaOp {
    /// `fmadd.d`: `rs1*rs2 + rs3`.
    Madd,
    /// `fmsub.d`: `rs1*rs2 - rs3`.
    Msub,
    /// `fnmsub.d`: `-(rs1*rs2) + rs3`.
    Nmsub,
    /// `fnmadd.d`: `-(rs1*rs2) - rs3`.
    Nmadd,
}

/// Conversion between integer and double-precision values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpCvtOp {
    /// `fcvt.l.d`: double → signed 64-bit integer.
    DToL,
    /// `fcvt.lu.d`: double → unsigned 64-bit integer.
    DToLu,
    /// `fcvt.d.l`: signed 64-bit integer → double.
    LToD,
    /// `fcvt.d.lu`: unsigned 64-bit integer → double.
    LuToD,
    /// `fcvt.w.d`: double → signed 32-bit integer (sign-extended).
    DToW,
    /// `fcvt.d.w`: signed 32-bit integer → double.
    WToD,
}

impl FpCvtOp {
    /// Whether the destination is an integer (x) register.
    pub fn writes_xreg(self) -> bool {
        matches!(self, FpCvtOp::DToL | FpCvtOp::DToLu | FpCvtOp::DToW)
    }
}

/// The FlexStep custom ISA of Tab. I, encoded in the *custom-0* opcode space.
///
/// These instructions form the control interface between the OS scheduler
/// and the error-detection hardware. Their architectural semantics live in
/// `flexstep-core`; at the ISA level they are ordinary R-type instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlexOp {
    /// `G.IDs.contain` — return the queried core's attribute
    /// (main / checker / compute).
    GIdsContain,
    /// `G.Configure` — write main/checker core IDs into the global
    /// configuration registers.
    GConfigure,
    /// `M.associate` — allocate one or more checker cores to this main core.
    MAssociate,
    /// `M.check` — enable or disable the checking function.
    MCheck,
    /// `C.check_state` — switch the checker state between busy and idle.
    CCheckState,
    /// `C.record` — record the current context into the ASS.
    CRecord,
    /// `C.apply` — apply the pending SCP from the data channel.
    CApply,
    /// `C.jal` — jump to the SCP's next-pc, starting replay.
    CJal,
    /// `C.result` — return the comparison result for the last segment.
    CResult,
}

impl FlexOp {
    /// All nine operations, in Tab. I order.
    pub const ALL: [FlexOp; 9] = [
        FlexOp::GIdsContain,
        FlexOp::GConfigure,
        FlexOp::MAssociate,
        FlexOp::MCheck,
        FlexOp::CCheckState,
        FlexOp::CRecord,
        FlexOp::CApply,
        FlexOp::CJal,
        FlexOp::CResult,
    ];

    /// The assembly mnemonic used by the paper (Tab. I).
    pub fn mnemonic(self) -> &'static str {
        match self {
            FlexOp::GIdsContain => "g.ids.contain",
            FlexOp::GConfigure => "g.configure",
            FlexOp::MAssociate => "m.associate",
            FlexOp::MCheck => "m.check",
            FlexOp::CCheckState => "c.check_state",
            FlexOp::CRecord => "c.record",
            FlexOp::CApply => "c.apply",
            FlexOp::CJal => "c.jal",
            FlexOp::CResult => "c.result",
        }
    }
}

/// A decoded instruction.
///
/// The variants are grouped by instruction format; see the module
/// documentation. All immediates are stored fully sign-extended, exactly as
/// the executor consumes them.
///
/// Field names follow the RISC-V assembly conventions throughout and are
/// deliberately left without per-field doc comments: `rd` is the
/// destination register, `rs1`/`rs2`/`rs3` the sources, `imm` an
/// immediate operand, `offset` a pc-relative or addressing displacement,
/// `op` the operation selector within the format, and `width` an access
/// width.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `lui rd, imm`: load upper immediate (`imm` is the final 32-bit
    /// sign-extended value, i.e. already shifted left by 12).
    Lui { rd: XReg, imm: i64 },
    /// `auipc rd, imm`: add upper immediate to pc.
    Auipc { rd: XReg, imm: i64 },
    /// `jal rd, offset`: jump and link.
    Jal { rd: XReg, offset: i64 },
    /// `jalr rd, offset(rs1)`: indirect jump and link.
    Jalr { rd: XReg, rs1: XReg, offset: i64 },
    /// Conditional branch.
    Branch {
        op: BranchOp,
        rs1: XReg,
        rs2: XReg,
        offset: i64,
    },
    /// Integer load.
    Load {
        op: LoadOp,
        rd: XReg,
        rs1: XReg,
        offset: i64,
    },
    /// Integer store.
    Store {
        op: StoreOp,
        rs1: XReg,
        rs2: XReg,
        offset: i64,
    },
    /// Register-immediate ALU operation.
    OpImm {
        op: IntImmOp,
        rd: XReg,
        rs1: XReg,
        imm: i64,
    },
    /// Register-register ALU operation.
    Op {
        op: IntOp,
        rd: XReg,
        rs1: XReg,
        rs2: XReg,
    },
    /// 32-bit register-immediate ALU operation.
    OpImmW {
        op: IntImmWOp,
        rd: XReg,
        rs1: XReg,
        imm: i64,
    },
    /// 32-bit register-register ALU operation.
    OpW {
        op: IntWOp,
        rd: XReg,
        rs1: XReg,
        rs2: XReg,
    },
    /// `lr.w`/`lr.d`: load-reserved.
    Lr {
        width: AmoWidth,
        rd: XReg,
        rs1: XReg,
    },
    /// `sc.w`/`sc.d`: store-conditional.
    Sc {
        width: AmoWidth,
        rd: XReg,
        rs1: XReg,
        rs2: XReg,
    },
    /// Atomic read-modify-write.
    Amo {
        op: AmoOp,
        width: AmoWidth,
        rd: XReg,
        rs1: XReg,
        rs2: XReg,
    },
    /// CSR access; `src` is `rs1` for register forms and the zero-extended
    /// 5-bit immediate for the `*i` forms.
    Csr {
        op: CsrOp,
        rd: XReg,
        src: u32,
        csr: u16,
    },
    /// `fld rd, offset(rs1)`: double-precision load.
    Fld { rd: FReg, rs1: XReg, offset: i64 },
    /// `fsd rs2, offset(rs1)`: double-precision store.
    Fsd { rs1: XReg, rs2: FReg, offset: i64 },
    /// Two-operand double-precision computation.
    Fp {
        op: FpOp,
        rd: FReg,
        rs1: FReg,
        rs2: FReg,
    },
    /// `fsqrt.d`.
    FpSqrt { rd: FReg, rs1: FReg },
    /// Fused multiply-add family.
    Fma {
        op: FmaOp,
        rd: FReg,
        rs1: FReg,
        rs2: FReg,
        rs3: FReg,
    },
    /// Double-precision comparison into an integer register.
    FpCmp {
        op: FpCmpOp,
        rd: XReg,
        rs1: FReg,
        rs2: FReg,
    },
    /// Integer/double conversions.
    FpCvt { op: FpCvtOp, rd: u32, rs1: u32 },
    /// `fmv.x.d rd, rs1`: move raw bits f→x.
    FmvXD { rd: XReg, rs1: FReg },
    /// `fmv.d.x rd, rs1`: move raw bits x→f.
    FmvDX { rd: FReg, rs1: XReg },
    /// `fence`: memory ordering (a timing no-op on this in-order core).
    Fence,
    /// `ecall`: environment call into the kernel.
    Ecall,
    /// `ebreak`: breakpoint trap.
    Ebreak,
    /// `mret`: return from machine-mode trap handler.
    Mret,
    /// `wfi`: wait for interrupt.
    Wfi,
    /// FlexStep custom instruction (Tab. I).
    Flex {
        op: FlexOp,
        rd: XReg,
        rs1: XReg,
        rs2: XReg,
    },
}

impl Inst {
    /// A canonical `nop` (`addi x0, x0, 0`).
    pub const NOP: Inst = Inst::OpImm {
        op: IntImmOp::Addi,
        rd: XReg::ZERO,
        rs1: XReg::ZERO,
        imm: 0,
    };

    /// Returns `true` for instructions that perform a data-memory access
    /// (the accesses the Memory Access Log captures).
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Inst::Load { .. }
                | Inst::Store { .. }
                | Inst::Lr { .. }
                | Inst::Sc { .. }
                | Inst::Amo { .. }
                | Inst::Fld { .. }
                | Inst::Fsd { .. }
        )
    }

    /// Returns `true` for atomic-class instructions (LR/SC/AMO), which the
    /// MAL packages into multiple log entries (§III-B).
    pub fn is_atomic(&self) -> bool {
        matches!(self, Inst::Lr { .. } | Inst::Sc { .. } | Inst::Amo { .. })
    }

    /// Returns `true` for floating-point instructions.
    pub fn is_fp(&self) -> bool {
        matches!(
            self,
            Inst::Fld { .. }
                | Inst::Fsd { .. }
                | Inst::Fp { .. }
                | Inst::FpSqrt { .. }
                | Inst::Fma { .. }
                | Inst::FpCmp { .. }
                | Inst::FpCvt { .. }
                | Inst::FmvXD { .. }
                | Inst::FmvDX { .. }
        )
    }

    /// Returns `true` for system-class instructions that may change
    /// privilege level (the CPC's privilege monitor watches these).
    pub fn is_system(&self) -> bool {
        matches!(
            self,
            Inst::Ecall | Inst::Ebreak | Inst::Mret | Inst::Wfi | Inst::Csr { .. }
        )
    }

    /// The integer destination register written by this instruction, if any.
    /// `x0` destinations are reported as `None` (the write has no effect).
    pub fn writes_xreg(&self) -> Option<XReg> {
        let rd = match *self {
            Inst::Lui { rd, .. }
            | Inst::Auipc { rd, .. }
            | Inst::Jal { rd, .. }
            | Inst::Jalr { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::OpImm { rd, .. }
            | Inst::Op { rd, .. }
            | Inst::OpImmW { rd, .. }
            | Inst::OpW { rd, .. }
            | Inst::Lr { rd, .. }
            | Inst::Sc { rd, .. }
            | Inst::Amo { rd, .. }
            | Inst::Csr { rd, .. }
            | Inst::FpCmp { rd, .. }
            | Inst::FmvXD { rd, .. }
            | Inst::Flex { rd, .. } => rd,
            Inst::FpCvt { op, rd, .. } if op.writes_xreg() => XReg::of(rd),
            _ => return None,
        };
        (!rd.is_zero()).then_some(rd)
    }

    /// The integer source registers read by this instruction (up to two).
    pub fn reads_xregs(&self) -> (Option<XReg>, Option<XReg>) {
        fn some(r: XReg) -> Option<XReg> {
            (!r.is_zero()).then_some(r)
        }
        match *self {
            Inst::Jalr { rs1, .. }
            | Inst::Load { rs1, .. }
            | Inst::OpImm { rs1, .. }
            | Inst::OpImmW { rs1, .. }
            | Inst::Lr { rs1, .. }
            | Inst::Fld { rs1, .. }
            | Inst::FmvDX { rs1, .. } => (some(rs1), None),
            Inst::Fsd { rs1, .. } => (some(rs1), None),
            Inst::Branch { rs1, rs2, .. }
            | Inst::Store { rs1, rs2, .. }
            | Inst::Op { rs1, rs2, .. }
            | Inst::OpW { rs1, rs2, .. }
            | Inst::Sc { rs1, rs2, .. }
            | Inst::Amo { rs1, rs2, .. }
            | Inst::Flex { rs1, rs2, .. } => (some(rs1), some(rs2)),
            Inst::Csr { op, src, .. } if !op.is_immediate() => (some(XReg::of(src)), None),
            Inst::FpCvt { op, rs1, .. } if !op.writes_xreg() => (some(XReg::of(rs1)), None),
            _ => (None, None),
        }
    }

    /// A coarse classification used by instruction-mix statistics.
    pub fn class(&self) -> InstClass {
        match self {
            Inst::Load { .. } | Inst::Fld { .. } | Inst::Lr { .. } => InstClass::Load,
            Inst::Store { .. } | Inst::Fsd { .. } | Inst::Sc { .. } => InstClass::Store,
            Inst::Amo { .. } => InstClass::Atomic,
            Inst::Branch { .. } => InstClass::Branch,
            Inst::Jal { .. } | Inst::Jalr { .. } => InstClass::Jump,
            Inst::Op { op, .. } if op.is_muldiv() => InstClass::MulDiv,
            Inst::OpW {
                op: IntWOp::Mulw | IntWOp::Divw | IntWOp::Divuw | IntWOp::Remw | IntWOp::Remuw,
                ..
            } => InstClass::MulDiv,
            i if i.is_fp() => InstClass::Fp,
            i if i.is_system() => InstClass::System,
            Inst::Flex { .. } => InstClass::Flex,
            _ => InstClass::Alu,
        }
    }
}

/// Coarse instruction classification for mix statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Simple integer ALU work.
    Alu,
    /// Integer multiply/divide.
    MulDiv,
    /// Memory read (including `fld` and `lr`).
    Load,
    /// Memory write (including `fsd` and `sc`).
    Store,
    /// Atomic read-modify-write.
    Atomic,
    /// Conditional branch.
    Branch,
    /// Unconditional jump.
    Jump,
    /// Floating-point computation.
    Fp,
    /// System / CSR instruction.
    System,
    /// FlexStep custom instruction.
    Flex,
}

impl InstClass {
    /// All classes, for iteration in statistics tables.
    pub const ALL: [InstClass; 10] = [
        InstClass::Alu,
        InstClass::MulDiv,
        InstClass::Load,
        InstClass::Store,
        InstClass::Atomic,
        InstClass::Branch,
        InstClass::Jump,
        InstClass::Fp,
        InstClass::System,
        InstClass::Flex,
    ];
}

impl fmt::Display for InstClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstClass::Alu => "alu",
            InstClass::MulDiv => "muldiv",
            InstClass::Load => "load",
            InstClass::Store => "store",
            InstClass::Atomic => "atomic",
            InstClass::Branch => "branch",
            InstClass::Jump => "jump",
            InstClass::Fp => "fp",
            InstClass::System => "system",
            InstClass::Flex => "flex",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_is_addi_x0() {
        assert_eq!(
            Inst::NOP,
            Inst::OpImm {
                op: IntImmOp::Addi,
                rd: XReg::ZERO,
                rs1: XReg::ZERO,
                imm: 0
            }
        );
        assert_eq!(Inst::NOP.writes_xreg(), None);
    }

    #[test]
    fn mem_classification() {
        let ld = Inst::Load {
            op: LoadOp::Ld,
            rd: XReg::A0,
            rs1: XReg::SP,
            offset: 8,
        };
        assert!(ld.is_mem());
        assert!(!ld.is_atomic());
        assert_eq!(ld.class(), InstClass::Load);

        let amo = Inst::Amo {
            op: AmoOp::Add,
            width: AmoWidth::D,
            rd: XReg::A0,
            rs1: XReg::A1,
            rs2: XReg::A2,
        };
        assert!(amo.is_mem());
        assert!(amo.is_atomic());
        assert_eq!(amo.class(), InstClass::Atomic);
    }

    #[test]
    fn writes_xreg_skips_x0() {
        let i = Inst::Op {
            op: IntOp::Add,
            rd: XReg::ZERO,
            rs1: XReg::A0,
            rs2: XReg::A1,
        };
        assert_eq!(i.writes_xreg(), None);
        let i = Inst::Op {
            op: IntOp::Add,
            rd: XReg::A0,
            rs1: XReg::A1,
            rs2: XReg::A2,
        };
        assert_eq!(i.writes_xreg(), Some(XReg::A0));
    }

    #[test]
    fn fcvt_destination_register_file() {
        let to_int = Inst::FpCvt {
            op: FpCvtOp::DToL,
            rd: 10,
            rs1: 3,
        };
        assert_eq!(to_int.writes_xreg(), Some(XReg::A0));
        let to_fp = Inst::FpCvt {
            op: FpCvtOp::LToD,
            rd: 3,
            rs1: 10,
        };
        assert_eq!(to_fp.writes_xreg(), None);
        assert_eq!(to_fp.reads_xregs().0, Some(XReg::A0));
    }

    #[test]
    fn load_op_sizes() {
        assert_eq!(LoadOp::Lb.size(), 1);
        assert_eq!(LoadOp::Lhu.size(), 2);
        assert_eq!(LoadOp::Lwu.size(), 4);
        assert_eq!(LoadOp::Ld.size(), 8);
        assert!(LoadOp::Lw.is_signed());
        assert!(!LoadOp::Lwu.is_signed());
    }

    #[test]
    fn flex_ops_have_paper_mnemonics() {
        assert_eq!(FlexOp::ALL.len(), 9);
        assert_eq!(FlexOp::GIdsContain.mnemonic(), "g.ids.contain");
        assert_eq!(FlexOp::CCheckState.mnemonic(), "c.check_state");
    }

    #[test]
    fn system_instructions_flagged() {
        assert!(Inst::Ecall.is_system());
        assert!(Inst::Mret.is_system());
        assert!(!Inst::NOP.is_system());
    }

    #[test]
    fn reads_xregs_for_store() {
        let st = Inst::Store {
            op: StoreOp::Sd,
            rs1: XReg::SP,
            rs2: XReg::A0,
            offset: 0,
        };
        assert_eq!(st.reads_xregs(), (Some(XReg::SP), Some(XReg::A0)));
    }

    #[test]
    fn class_covers_muldiv_words() {
        let i = Inst::OpW {
            op: IntWOp::Mulw,
            rd: XReg::A0,
            rs1: XReg::A1,
            rs2: XReg::A2,
        };
        assert_eq!(i.class(), InstClass::MulDiv);
        let i = Inst::OpW {
            op: IntWOp::Addw,
            rd: XReg::A0,
            rs1: XReg::A1,
            rs2: XReg::A2,
        };
        assert_eq!(i.class(), InstClass::Alu);
    }
}
