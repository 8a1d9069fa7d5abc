//! Instruction encoding to 32-bit RISC-V words.
//!
//! Every [`Inst`] has exactly one canonical encoding; [`decode`] is its
//! inverse (`decode(encode(i)) == Ok(i)` for every encodable `i`, verified
//! by property tests). Floating-point arithmetic instructions are emitted
//! with the dynamic rounding mode (`rm = 0b111`), matching what compilers
//! produce.
//!
//! [`decode`]: crate::decode::decode

use crate::inst::*;

use std::fmt;

/// Error produced when an instruction's operands do not fit its format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// An immediate exceeds the signed range of its field.
    ImmOutOfRange {
        /// The offending value.
        value: i64,
        /// The field width in bits (including sign).
        bits: u8,
    },
    /// A branch or jump offset is not 2-byte aligned.
    MisalignedOffset {
        /// The offending offset.
        value: i64,
    },
    /// A U-type immediate has non-zero low 12 bits.
    UnalignedUpperImm {
        /// The offending value.
        value: i64,
    },
    /// A shift amount exceeds the operand width.
    ShiftAmountTooLarge {
        /// The offending amount.
        value: i64,
        /// Maximum permitted amount.
        max: u8,
    },
    /// A register index in a raw-index field (e.g. `FpCvt`) is out of range.
    RegIndexOutOfRange {
        /// The offending index.
        index: u32,
    },
    /// A CSR immediate source exceeds 5 bits.
    CsrImmOutOfRange {
        /// The offending value.
        value: u32,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EncodeError::ImmOutOfRange { value, bits } => {
                write!(f, "immediate {value} does not fit in {bits} signed bits")
            }
            EncodeError::MisalignedOffset { value } => {
                write!(f, "control-flow offset {value} is not 2-byte aligned")
            }
            EncodeError::UnalignedUpperImm { value } => {
                write!(f, "upper immediate {value:#x} has non-zero low 12 bits")
            }
            EncodeError::ShiftAmountTooLarge { value, max } => {
                write!(f, "shift amount {value} exceeds maximum {max}")
            }
            EncodeError::RegIndexOutOfRange { index } => {
                write!(f, "register index {index} out of range 0..32")
            }
            EncodeError::CsrImmOutOfRange { value } => {
                write!(f, "csr immediate {value} does not fit in 5 bits")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

// Major opcodes (RISC-V unprivileged spec, table 24.1).
pub(crate) const OP_LOAD: u32 = 0x03;
pub(crate) const OP_LOAD_FP: u32 = 0x07;
pub(crate) const OP_CUSTOM0: u32 = 0x0B;
pub(crate) const OP_MISC_MEM: u32 = 0x0F;
pub(crate) const OP_IMM: u32 = 0x13;
pub(crate) const OP_AUIPC: u32 = 0x17;
pub(crate) const OP_IMM_32: u32 = 0x1B;
pub(crate) const OP_STORE: u32 = 0x23;
pub(crate) const OP_STORE_FP: u32 = 0x27;
pub(crate) const OP_AMO: u32 = 0x2F;
pub(crate) const OP_OP: u32 = 0x33;
pub(crate) const OP_LUI: u32 = 0x37;
pub(crate) const OP_OP_32: u32 = 0x3B;
pub(crate) const OP_FMADD: u32 = 0x43;
pub(crate) const OP_FMSUB: u32 = 0x47;
pub(crate) const OP_FNMSUB: u32 = 0x4B;
pub(crate) const OP_FNMADD: u32 = 0x4F;
pub(crate) const OP_OP_FP: u32 = 0x53;
pub(crate) const OP_BRANCH: u32 = 0x63;
pub(crate) const OP_JALR: u32 = 0x67;
pub(crate) const OP_JAL: u32 = 0x6F;
pub(crate) const OP_SYSTEM: u32 = 0x73;

/// Dynamic rounding mode, the canonical `rm` field for FP arithmetic.
pub(crate) const RM_DYN: u32 = 0b111;

fn check_simm(value: i64, bits: u8) -> Result<u32, EncodeError> {
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    if value < min || value > max {
        return Err(EncodeError::ImmOutOfRange { value, bits });
    }
    Ok((value as u32) & ((1u32 << bits) - 1))
}

fn enc_r(opcode: u32, funct3: u32, funct7: u32, rd: u32, rs1: u32, rs2: u32) -> u32 {
    (funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode
}

fn enc_i(opcode: u32, funct3: u32, rd: u32, rs1: u32, imm: i64) -> Result<u32, EncodeError> {
    let imm = check_simm(imm, 12)?;
    Ok((imm << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode)
}

fn enc_s(opcode: u32, funct3: u32, rs1: u32, rs2: u32, imm: i64) -> Result<u32, EncodeError> {
    let imm = check_simm(imm, 12)?;
    let hi = (imm >> 5) & 0x7F;
    let lo = imm & 0x1F;
    Ok((hi << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | (lo << 7) | opcode)
}

fn enc_b(opcode: u32, funct3: u32, rs1: u32, rs2: u32, offset: i64) -> Result<u32, EncodeError> {
    if offset % 2 != 0 {
        return Err(EncodeError::MisalignedOffset { value: offset });
    }
    let imm = check_simm(offset, 13)?;
    let b12 = (imm >> 12) & 1;
    let b11 = (imm >> 11) & 1;
    let b10_5 = (imm >> 5) & 0x3F;
    let b4_1 = (imm >> 1) & 0xF;
    Ok((b12 << 31)
        | (b10_5 << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | (b4_1 << 8)
        | (b11 << 7)
        | opcode)
}

fn enc_u(opcode: u32, rd: u32, imm: i64) -> Result<u32, EncodeError> {
    if imm & 0xFFF != 0 {
        return Err(EncodeError::UnalignedUpperImm { value: imm });
    }
    if !(-(1i64 << 31)..=(1i64 << 31) - 4096).contains(&imm) {
        return Err(EncodeError::ImmOutOfRange {
            value: imm,
            bits: 32,
        });
    }
    Ok(((imm as u32) & 0xFFFF_F000) | (rd << 7) | opcode)
}

fn enc_j(opcode: u32, rd: u32, offset: i64) -> Result<u32, EncodeError> {
    if offset % 2 != 0 {
        return Err(EncodeError::MisalignedOffset { value: offset });
    }
    let imm = check_simm(offset, 21)?;
    let b20 = (imm >> 20) & 1;
    let b19_12 = (imm >> 12) & 0xFF;
    let b11 = (imm >> 11) & 1;
    let b10_1 = (imm >> 1) & 0x3FF;
    Ok((b20 << 31) | (b10_1 << 21) | (b11 << 20) | (b19_12 << 12) | (rd << 7) | opcode)
}

fn enc_r4(opcode: u32, funct2: u32, rm: u32, rd: u32, rs1: u32, rs2: u32, rs3: u32) -> u32 {
    (rs3 << 27) | (funct2 << 25) | (rs2 << 20) | (rs1 << 15) | (rm << 12) | (rd << 7) | opcode
}

fn check_reg_index(index: u32) -> Result<u32, EncodeError> {
    if index < 32 {
        Ok(index)
    } else {
        Err(EncodeError::RegIndexOutOfRange { index })
    }
}

pub(crate) fn branch_funct3(op: BranchOp) -> u32 {
    match op {
        BranchOp::Eq => 0b000,
        BranchOp::Ne => 0b001,
        BranchOp::Lt => 0b100,
        BranchOp::Ge => 0b101,
        BranchOp::Ltu => 0b110,
        BranchOp::Geu => 0b111,
    }
}

pub(crate) fn load_funct3(op: LoadOp) -> u32 {
    match op {
        LoadOp::Lb => 0b000,
        LoadOp::Lh => 0b001,
        LoadOp::Lw => 0b010,
        LoadOp::Ld => 0b011,
        LoadOp::Lbu => 0b100,
        LoadOp::Lhu => 0b101,
        LoadOp::Lwu => 0b110,
    }
}

pub(crate) fn store_funct3(op: StoreOp) -> u32 {
    match op {
        StoreOp::Sb => 0b000,
        StoreOp::Sh => 0b001,
        StoreOp::Sw => 0b010,
        StoreOp::Sd => 0b011,
    }
}

pub(crate) fn int_op_functs(op: IntOp) -> (u32, u32) {
    // (funct3, funct7)
    match op {
        IntOp::Add => (0b000, 0b0000000),
        IntOp::Sub => (0b000, 0b0100000),
        IntOp::Sll => (0b001, 0b0000000),
        IntOp::Slt => (0b010, 0b0000000),
        IntOp::Sltu => (0b011, 0b0000000),
        IntOp::Xor => (0b100, 0b0000000),
        IntOp::Srl => (0b101, 0b0000000),
        IntOp::Sra => (0b101, 0b0100000),
        IntOp::Or => (0b110, 0b0000000),
        IntOp::And => (0b111, 0b0000000),
        IntOp::Mul => (0b000, 0b0000001),
        IntOp::Mulh => (0b001, 0b0000001),
        IntOp::Mulhsu => (0b010, 0b0000001),
        IntOp::Mulhu => (0b011, 0b0000001),
        IntOp::Div => (0b100, 0b0000001),
        IntOp::Divu => (0b101, 0b0000001),
        IntOp::Rem => (0b110, 0b0000001),
        IntOp::Remu => (0b111, 0b0000001),
    }
}

pub(crate) fn int_w_op_functs(op: IntWOp) -> (u32, u32) {
    match op {
        IntWOp::Addw => (0b000, 0b0000000),
        IntWOp::Subw => (0b000, 0b0100000),
        IntWOp::Sllw => (0b001, 0b0000000),
        IntWOp::Srlw => (0b101, 0b0000000),
        IntWOp::Sraw => (0b101, 0b0100000),
        IntWOp::Mulw => (0b000, 0b0000001),
        IntWOp::Divw => (0b100, 0b0000001),
        IntWOp::Divuw => (0b101, 0b0000001),
        IntWOp::Remw => (0b110, 0b0000001),
        IntWOp::Remuw => (0b111, 0b0000001),
    }
}

pub(crate) fn amo_funct5(op: AmoOp) -> u32 {
    match op {
        AmoOp::Add => 0b00000,
        AmoOp::Swap => 0b00001,
        AmoOp::Xor => 0b00100,
        AmoOp::Or => 0b01000,
        AmoOp::And => 0b01100,
        AmoOp::Min => 0b10000,
        AmoOp::Max => 0b10100,
        AmoOp::Minu => 0b11000,
        AmoOp::Maxu => 0b11100,
    }
}

pub(crate) const LR_FUNCT5: u32 = 0b00010;
pub(crate) const SC_FUNCT5: u32 = 0b00011;

pub(crate) fn csr_funct3(op: CsrOp) -> u32 {
    match op {
        CsrOp::Rw => 0b001,
        CsrOp::Rs => 0b010,
        CsrOp::Rc => 0b011,
        CsrOp::Rwi => 0b101,
        CsrOp::Rsi => 0b110,
        CsrOp::Rci => 0b111,
    }
}

pub(crate) fn fp_op_functs(op: FpOp) -> (u32, u32) {
    // (funct7, funct3) — funct3 is the rounding mode for arithmetic and a
    // selector for sign-injection / min-max.
    match op {
        FpOp::Add => (0b0000001, RM_DYN),
        FpOp::Sub => (0b0000101, RM_DYN),
        FpOp::Mul => (0b0001001, RM_DYN),
        FpOp::Div => (0b0001101, RM_DYN),
        FpOp::SgnJ => (0b0010001, 0b000),
        FpOp::SgnJN => (0b0010001, 0b001),
        FpOp::SgnJX => (0b0010001, 0b010),
        FpOp::Min => (0b0010101, 0b000),
        FpOp::Max => (0b0010101, 0b001),
    }
}

pub(crate) fn fma_opcode(op: FmaOp) -> u32 {
    match op {
        FmaOp::Madd => OP_FMADD,
        FmaOp::Msub => OP_FMSUB,
        FmaOp::Nmsub => OP_FNMSUB,
        FmaOp::Nmadd => OP_FNMADD,
    }
}

pub(crate) fn fp_cmp_funct3(op: FpCmpOp) -> u32 {
    match op {
        FpCmpOp::Le => 0b000,
        FpCmpOp::Lt => 0b001,
        FpCmpOp::Eq => 0b010,
    }
}

pub(crate) fn fp_cvt_functs(op: FpCvtOp) -> (u32, u32) {
    // (funct7, rs2 selector)
    match op {
        FpCvtOp::DToW => (0b1100001, 0b00000),
        FpCvtOp::DToL => (0b1100001, 0b00010),
        FpCvtOp::DToLu => (0b1100001, 0b00011),
        FpCvtOp::WToD => (0b1101001, 0b00000),
        FpCvtOp::LToD => (0b1101001, 0b00010),
        FpCvtOp::LuToD => (0b1101001, 0b00011),
    }
}

pub(crate) fn flex_funct7(op: FlexOp) -> u32 {
    match op {
        FlexOp::GIdsContain => 0,
        FlexOp::GConfigure => 1,
        FlexOp::MAssociate => 2,
        FlexOp::MCheck => 3,
        FlexOp::CCheckState => 4,
        FlexOp::CRecord => 5,
        FlexOp::CApply => 6,
        FlexOp::CJal => 7,
        FlexOp::CResult => 8,
    }
}

/// Encodes an instruction to its canonical 32-bit word.
///
/// # Errors
///
/// Returns an [`EncodeError`] when an immediate, offset, shift amount or raw
/// register index does not fit the instruction format.
///
/// ```
/// use flexstep_isa::{encode::encode, inst::Inst, reg::XReg};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let word = encode(&Inst::Jal { rd: XReg::RA, offset: 8 })?;
/// assert_eq!(word, 0x008000EF);
/// # Ok(())
/// # }
/// ```
pub fn encode(inst: &Inst) -> Result<u32, EncodeError> {
    let word = match *inst {
        Inst::Lui { rd, imm } => enc_u(OP_LUI, rd.into(), imm)?,
        Inst::Auipc { rd, imm } => enc_u(OP_AUIPC, rd.into(), imm)?,
        Inst::Jal { rd, offset } => enc_j(OP_JAL, rd.into(), offset)?,
        Inst::Jalr { rd, rs1, offset } => enc_i(OP_JALR, 0b000, rd.into(), rs1.into(), offset)?,
        Inst::Branch {
            op,
            rs1,
            rs2,
            offset,
        } => enc_b(OP_BRANCH, branch_funct3(op), rs1.into(), rs2.into(), offset)?,
        Inst::Load {
            op,
            rd,
            rs1,
            offset,
        } => enc_i(OP_LOAD, load_funct3(op), rd.into(), rs1.into(), offset)?,
        Inst::Store {
            op,
            rs1,
            rs2,
            offset,
        } => enc_s(OP_STORE, store_funct3(op), rs1.into(), rs2.into(), offset)?,
        Inst::OpImm { op, rd, rs1, imm } => match op {
            IntImmOp::Slli | IntImmOp::Srli | IntImmOp::Srai => {
                if !(0..64).contains(&imm) {
                    return Err(EncodeError::ShiftAmountTooLarge {
                        value: imm,
                        max: 63,
                    });
                }
                let funct3 = if op == IntImmOp::Slli { 0b001 } else { 0b101 };
                let hi = if op == IntImmOp::Srai {
                    0b010000u32 << 6
                } else {
                    0
                };
                let imm12 = hi | imm as u32;
                (imm12 << 20)
                    | (u32::from(rs1) << 15)
                    | (funct3 << 12)
                    | (u32::from(rd) << 7)
                    | OP_IMM
            }
            _ => {
                let funct3 = match op {
                    IntImmOp::Addi => 0b000,
                    IntImmOp::Slti => 0b010,
                    IntImmOp::Sltiu => 0b011,
                    IntImmOp::Xori => 0b100,
                    IntImmOp::Ori => 0b110,
                    IntImmOp::Andi => 0b111,
                    _ => unreachable!("shift handled above"),
                };
                enc_i(OP_IMM, funct3, rd.into(), rs1.into(), imm)?
            }
        },
        Inst::Op { op, rd, rs1, rs2 } => {
            let (f3, f7) = int_op_functs(op);
            enc_r(OP_OP, f3, f7, rd.into(), rs1.into(), rs2.into())
        }
        Inst::OpImmW { op, rd, rs1, imm } => match op {
            IntImmWOp::Addiw => enc_i(OP_IMM_32, 0b000, rd.into(), rs1.into(), imm)?,
            IntImmWOp::Slliw | IntImmWOp::Srliw | IntImmWOp::Sraiw => {
                if !(0..32).contains(&imm) {
                    return Err(EncodeError::ShiftAmountTooLarge {
                        value: imm,
                        max: 31,
                    });
                }
                let funct3 = if op == IntImmWOp::Slliw { 0b001 } else { 0b101 };
                let f7 = if op == IntImmWOp::Sraiw {
                    0b0100000u32
                } else {
                    0
                };
                enc_r(OP_IMM_32, funct3, f7, rd.into(), rs1.into(), imm as u32)
            }
        },
        Inst::OpW { op, rd, rs1, rs2 } => {
            let (f3, f7) = int_w_op_functs(op);
            enc_r(OP_OP_32, f3, f7, rd.into(), rs1.into(), rs2.into())
        }
        Inst::Lr { width, rd, rs1 } => {
            let f3 = if width == AmoWidth::W { 0b010 } else { 0b011 };
            enc_r(OP_AMO, f3, LR_FUNCT5 << 2, rd.into(), rs1.into(), 0)
        }
        Inst::Sc {
            width,
            rd,
            rs1,
            rs2,
        } => {
            let f3 = if width == AmoWidth::W { 0b010 } else { 0b011 };
            enc_r(
                OP_AMO,
                f3,
                SC_FUNCT5 << 2,
                rd.into(),
                rs1.into(),
                rs2.into(),
            )
        }
        Inst::Amo {
            op,
            width,
            rd,
            rs1,
            rs2,
        } => {
            let f3 = if width == AmoWidth::W { 0b010 } else { 0b011 };
            enc_r(
                OP_AMO,
                f3,
                amo_funct5(op) << 2,
                rd.into(),
                rs1.into(),
                rs2.into(),
            )
        }
        Inst::Csr { op, rd, src, csr } => {
            if src >= 32 {
                return Err(if op.is_immediate() {
                    EncodeError::CsrImmOutOfRange { value: src }
                } else {
                    EncodeError::RegIndexOutOfRange { index: src }
                });
            }
            (u32::from(csr) << 20)
                | (src << 15)
                | (csr_funct3(op) << 12)
                | (u32::from(rd) << 7)
                | OP_SYSTEM
        }
        Inst::Fld { rd, rs1, offset } => enc_i(OP_LOAD_FP, 0b011, rd.into(), rs1.into(), offset)?,
        Inst::Fsd { rs1, rs2, offset } => {
            enc_s(OP_STORE_FP, 0b011, rs1.into(), rs2.into(), offset)?
        }
        Inst::Fp { op, rd, rs1, rs2 } => {
            let (f7, f3) = fp_op_functs(op);
            enc_r(OP_OP_FP, f3, f7, rd.into(), rs1.into(), rs2.into())
        }
        Inst::FpSqrt { rd, rs1 } => enc_r(OP_OP_FP, RM_DYN, 0b0101101, rd.into(), rs1.into(), 0),
        Inst::Fma {
            op,
            rd,
            rs1,
            rs2,
            rs3,
        } => enc_r4(
            fma_opcode(op),
            0b01,
            RM_DYN,
            rd.into(),
            rs1.into(),
            rs2.into(),
            rs3.into(),
        ),
        Inst::FpCmp { op, rd, rs1, rs2 } => enc_r(
            OP_OP_FP,
            fp_cmp_funct3(op),
            0b1010001,
            rd.into(),
            rs1.into(),
            rs2.into(),
        ),
        Inst::FpCvt { op, rd, rs1 } => {
            let rd = check_reg_index(rd)?;
            let rs1 = check_reg_index(rs1)?;
            let (f7, rs2) = fp_cvt_functs(op);
            enc_r(OP_OP_FP, RM_DYN, f7, rd, rs1, rs2)
        }
        Inst::FmvXD { rd, rs1 } => enc_r(OP_OP_FP, 0b000, 0b1110001, rd.into(), rs1.into(), 0),
        Inst::FmvDX { rd, rs1 } => enc_r(OP_OP_FP, 0b000, 0b1111001, rd.into(), rs1.into(), 0),
        Inst::Fence => enc_i(OP_MISC_MEM, 0b000, 0, 0, 0)?,
        Inst::Ecall => enc_i(OP_SYSTEM, 0b000, 0, 0, 0)?,
        Inst::Ebreak => enc_i(OP_SYSTEM, 0b000, 0, 0, 1)?,
        Inst::Mret => enc_r(OP_SYSTEM, 0b000, 0b0011000, 0, 0, 0b00010),
        Inst::Wfi => enc_r(OP_SYSTEM, 0b000, 0b0001000, 0, 0, 0b00101),
        Inst::Flex { op, rd, rs1, rs2 } => enc_r(
            OP_CUSTOM0,
            0b000,
            flex_funct7(op),
            rd.into(),
            rs1.into(),
            rs2.into(),
        ),
    };
    Ok(word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{FReg, XReg};

    #[test]
    fn known_words_i_type() {
        // addi a0, a1, 42
        let i = Inst::OpImm {
            op: IntImmOp::Addi,
            rd: XReg::A0,
            rs1: XReg::A1,
            imm: 42,
        };
        assert_eq!(encode(&i).unwrap(), 0x02A5_8513);
    }

    #[test]
    fn known_words_u_j_types() {
        // lui a0, 0x12345
        let i = Inst::Lui {
            rd: XReg::A0,
            imm: 0x12345 << 12,
        };
        assert_eq!(encode(&i).unwrap(), 0x1234_5537);
        // jal ra, +8
        let i = Inst::Jal {
            rd: XReg::RA,
            offset: 8,
        };
        assert_eq!(encode(&i).unwrap(), 0x0080_00EF);
    }

    #[test]
    fn known_words_loads_stores() {
        // ld a0, 16(sp)
        let i = Inst::Load {
            op: LoadOp::Ld,
            rd: XReg::A0,
            rs1: XReg::SP,
            offset: 16,
        };
        assert_eq!(encode(&i).unwrap(), 0x0101_3503);
        // sd a0, 16(sp)
        let i = Inst::Store {
            op: StoreOp::Sd,
            rs1: XReg::SP,
            rs2: XReg::A0,
            offset: 16,
        };
        assert_eq!(encode(&i).unwrap(), 0x00A1_3823);
    }

    #[test]
    fn known_words_system() {
        assert_eq!(encode(&Inst::Ecall).unwrap(), 0x0000_0073);
        assert_eq!(encode(&Inst::Ebreak).unwrap(), 0x0010_0073);
        assert_eq!(encode(&Inst::Mret).unwrap(), 0x3020_0073);
        assert_eq!(encode(&Inst::Wfi).unwrap(), 0x1050_0073);
    }

    #[test]
    fn branch_offset_must_be_aligned() {
        let i = Inst::Branch {
            op: BranchOp::Eq,
            rs1: XReg::A0,
            rs2: XReg::A1,
            offset: 3,
        };
        assert_eq!(encode(&i), Err(EncodeError::MisalignedOffset { value: 3 }));
    }

    #[test]
    fn imm_range_enforced() {
        let i = Inst::OpImm {
            op: IntImmOp::Addi,
            rd: XReg::A0,
            rs1: XReg::A0,
            imm: 4096,
        };
        assert!(matches!(encode(&i), Err(EncodeError::ImmOutOfRange { .. })));
        let i = Inst::OpImm {
            op: IntImmOp::Addi,
            rd: XReg::A0,
            rs1: XReg::A0,
            imm: -2048,
        };
        assert!(encode(&i).is_ok());
    }

    #[test]
    fn shift_amount_range() {
        let i = Inst::OpImm {
            op: IntImmOp::Slli,
            rd: XReg::A0,
            rs1: XReg::A0,
            imm: 64,
        };
        assert!(matches!(
            encode(&i),
            Err(EncodeError::ShiftAmountTooLarge { .. })
        ));
        let i = Inst::OpImmW {
            op: IntImmWOp::Slliw,
            rd: XReg::A0,
            rs1: XReg::A0,
            imm: 32,
        };
        assert!(matches!(
            encode(&i),
            Err(EncodeError::ShiftAmountTooLarge { .. })
        ));
    }

    #[test]
    fn lui_rejects_low_bits() {
        let i = Inst::Lui {
            rd: XReg::A0,
            imm: 0x1001,
        };
        assert_eq!(
            encode(&i),
            Err(EncodeError::UnalignedUpperImm { value: 0x1001 })
        );
    }

    #[test]
    fn fp_cvt_validates_indices() {
        let i = Inst::FpCvt {
            op: FpCvtOp::DToL,
            rd: 32,
            rs1: 0,
        };
        assert_eq!(
            encode(&i),
            Err(EncodeError::RegIndexOutOfRange { index: 32 })
        );
    }

    #[test]
    fn csr_imm_range() {
        let i = Inst::Csr {
            op: CsrOp::Rwi,
            rd: XReg::A0,
            src: 32,
            csr: crate::csr::MEPC,
        };
        assert_eq!(encode(&i), Err(EncodeError::CsrImmOutOfRange { value: 32 }));
    }

    #[test]
    fn flex_ops_encode_in_custom0() {
        for op in FlexOp::ALL {
            let i = Inst::Flex {
                op,
                rd: XReg::A0,
                rs1: XReg::A1,
                rs2: XReg::A2,
            };
            let w = encode(&i).unwrap();
            assert_eq!(w & 0x7F, OP_CUSTOM0, "{op:?} not in custom-0");
        }
    }

    #[test]
    fn fsd_encodes_store_fp() {
        let i = Inst::Fsd {
            rs1: XReg::SP,
            rs2: FReg::of(1),
            offset: -8,
        };
        let w = encode(&i).unwrap();
        assert_eq!(w & 0x7F, OP_STORE_FP);
    }
}
