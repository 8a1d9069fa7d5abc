//! Parameterised guest-kernel templates.
//!
//! Each template is a genuine computation (not a random instruction
//! soup): prices, hashes, stencils, pointer chases. The named Parsec/SPEC
//! workloads instantiate these templates with parameters that match the
//! benchmark's published character (FP/branch/memory densities, working
//! set). All templates obey the nZDC register discipline — computation in
//! `x5..=x15` / `f0..=f15`, loop-only control flow — so the software
//! error-detection baseline can transform them (see
//! [`nzdc`](crate::nzdc)).

use flexstep_isa::asm::{materialize_const, Assembler, Program};
use flexstep_isa::inst::*;
use flexstep_isa::reg::{FReg, XReg};

/// Workload size. Detection-latency and slowdown experiments use
/// [`Scale::Small`] by default; tests use [`Scale::Test`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tens of thousands of instructions (unit tests).
    Test,
    /// Hundreds of thousands of instructions (CI experiments).
    Small,
    /// Millions of instructions (full experiment runs).
    Medium,
}

impl Scale {
    /// Multiplier applied to base iteration counts.
    pub fn factor(self) -> i64 {
        match self {
            Scale::Test => 1,
            Scale::Small => 8,
            Scale::Medium => 40,
        }
    }
}

// nZDC-compatible register palette.
const I0: XReg = XReg::T0; // x5
const I1: XReg = XReg::T1; // x6
const I2: XReg = XReg::T2; // x7
const ACC: XReg = XReg::S0; // x8
const PTR: XReg = XReg::S1; // x9
const A0: XReg = XReg::A0; // x10
const A1: XReg = XReg::A1; // x11
const A2: XReg = XReg::A2; // x12
const A3: XReg = XReg::A3; // x13
const CNT: XReg = XReg::A4; // x14
const BASE: XReg = XReg::A5; // x15

fn f(i: u32) -> FReg {
    FReg::of(i)
}

fn fp(asm: &mut Assembler, op: FpOp, rd: u32, rs1: u32, rs2: u32) {
    asm.push(Inst::Fp {
        op,
        rd: f(rd),
        rs1: f(rs1),
        rs2: f(rs2),
    });
}

fn fma(asm: &mut Assembler, rd: u32, rs1: u32, rs2: u32, rs3: u32) {
    asm.push(Inst::Fma {
        op: FmaOp::Madd,
        rd: f(rd),
        rs1: f(rs1),
        rs2: f(rs2),
        rs3: f(rs3),
    });
}

/// Black-Scholes-style closed-form pricing over an option table:
/// overwhelmingly floating point with long dependent chains, one
/// `fsqrt`/`fdiv` pair per option and very few branches — the
/// `blackscholes` profile.
pub fn fp_pricing_kernel(name: &str, options: i64, rounds: i64) -> Program {
    let mut asm = Assembler::new(name);
    asm.data_label("table").unwrap();
    for i in 0..options {
        // (spot, strike, rate, volatility, maturity, out)
        asm.data_f64s(&[
            90.0 + (i % 40) as f64,
            95.0 + (i % 17) as f64,
            0.02 + (i % 5) as f64 * 0.002,
            0.2 + (i % 7) as f64 * 0.02,
            0.5 + (i % 4) as f64 * 0.5,
            0.0,
        ]);
    }
    asm.li(CNT, rounds);
    asm.label("round").unwrap();
    asm.la(BASE, "table");
    asm.li(I0, options);
    asm.label("option").unwrap();
    // Load the option row.
    asm.fld(f(0), BASE, 0); // S
    asm.fld(f(1), BASE, 8); // K
    asm.fld(f(2), BASE, 16); // r
    asm.fld(f(3), BASE, 24); // v
    asm.fld(f(4), BASE, 32); // T
                             // d1 = (ln(S/K) + (r + v²/2)T) / (v√T), with ln approximated by a
                             // 3-term series around 1 (inputs are near the money).
    fp(&mut asm, FpOp::Div, 5, 0, 1); // x = S/K
    asm.li(I1, 1);
    asm.push(Inst::FpCvt {
        op: FpCvtOp::LToD,
        rd: 6,
        rs1: I1.index() as u32,
    }); // 1.0
    fp(&mut asm, FpOp::Sub, 7, 5, 6); // t = x-1
    fp(&mut asm, FpOp::Mul, 8, 7, 7); // t²
    fp(&mut asm, FpOp::Mul, 9, 8, 7); // t³
    asm.li(I1, 2);
    asm.push(Inst::FpCvt {
        op: FpCvtOp::LToD,
        rd: 10,
        rs1: I1.index() as u32,
    });
    fp(&mut asm, FpOp::Div, 8, 8, 10); // t²/2
    asm.li(I1, 3);
    asm.push(Inst::FpCvt {
        op: FpCvtOp::LToD,
        rd: 11,
        rs1: I1.index() as u32,
    });
    fp(&mut asm, FpOp::Div, 9, 9, 11); // t³/3
    fp(&mut asm, FpOp::Sub, 7, 7, 8);
    fp(&mut asm, FpOp::Add, 7, 7, 9); // ln(x) ≈ t - t²/2 + t³/3
    fp(&mut asm, FpOp::Mul, 8, 3, 3); // v²
    fp(&mut asm, FpOp::Div, 8, 8, 10); // v²/2
    fp(&mut asm, FpOp::Add, 8, 8, 2); // r + v²/2
    fma(&mut asm, 7, 8, 4, 7); // + (r+v²/2)T
    asm.push(Inst::FpSqrt {
        rd: f(9),
        rs1: f(4),
    }); // √T
    fp(&mut asm, FpOp::Mul, 9, 9, 3); // v√T
    fp(&mut asm, FpOp::Div, 12, 7, 9); // d1
                                       // N(d1) via the logistic approximation 1/(1+e^-1.702d), with e^y
                                       // approximated by a 4-term series.
    fp(&mut asm, FpOp::Mul, 13, 12, 12); // d²
    fp(&mut asm, FpOp::Div, 13, 13, 10); // d²/2
    fp(&mut asm, FpOp::Add, 13, 13, 6); // 1 + d²/2
    fp(&mut asm, FpOp::Add, 13, 13, 12); // + d (≈ e^d)
    fp(&mut asm, FpOp::Div, 14, 6, 13); // e^-d ≈ 1/e^d
    fp(&mut asm, FpOp::Add, 14, 14, 6); // 1 + e^-d
    fp(&mut asm, FpOp::Div, 14, 6, 14); // N(d1)
                                        // price ≈ S·N(d1) − K·N(d1 − v√T) (second term approximated with the
                                        // same N evaluated at d1, scaled).
    fp(&mut asm, FpOp::Mul, 15, 0, 14);
    fp(&mut asm, FpOp::Mul, 13, 1, 14);
    fp(&mut asm, FpOp::Sub, 15, 15, 13);
    asm.fsd(BASE, f(15), 40);
    asm.addi(BASE, BASE, 48);
    asm.addi(I0, I0, -1);
    asm.bnez(I0, "option");
    asm.addi(CNT, CNT, -1);
    asm.bnez(CNT, "round");
    asm.ecall();
    asm.finish().expect("kernel assembles")
}

/// Rolling-hash deduplication: byte loads, multiply-accumulate hashing,
/// chunk-boundary branches, hash-table stores, and an atomic chunk
/// refcount (real dedup pipelines bump shared refcounts) — the `dedup` /
/// `xalancbmk` memory-and-branch profile, exercising the multi-µop AMO
/// path of the Memory Access Log (§III-B).
pub fn hash_chunk_kernel(name: &str, bytes: i64, rounds: i64, table_slots: i64) -> Program {
    let mut asm = Assembler::new(name);
    asm.data_label("input").unwrap();
    for i in 0..bytes {
        asm.data_bytes(&[(i.wrapping_mul(131).wrapping_add(i >> 3) % 251) as u8]);
    }
    asm.data_align(8);
    asm.data_label("refcount").unwrap();
    asm.data_zeros(8);
    asm.data_label("table").unwrap();
    asm.data_zeros((table_slots * 8) as usize);
    asm.li(CNT, rounds);
    asm.label("round").unwrap();
    asm.la(PTR, "input");
    asm.la(BASE, "table");
    asm.li(I0, bytes);
    asm.li(ACC, 0);
    asm.label("byte").unwrap();
    asm.load(LoadOp::Lbu, A0, PTR, 0);
    // h = h*31 + b
    asm.li(A1, 31);
    asm.push(Inst::Op {
        op: IntOp::Mul,
        rd: ACC,
        rs1: ACC,
        rs2: A1,
    });
    asm.add(ACC, ACC, A0);
    // Chunk boundary when low 6 bits of the hash vanish.
    asm.push(Inst::OpImm {
        op: IntImmOp::Andi,
        rd: A2,
        rs1: ACC,
        imm: 0x3F,
    });
    asm.bnez(A2, "no_boundary");
    // Store the chunk hash into its table slot.
    asm.li(A3, (table_slots - 1) * 8);
    asm.push(Inst::OpImm {
        op: IntImmOp::Slli,
        rd: A2,
        rs1: ACC,
        imm: 3,
    });
    asm.push(Inst::Op {
        op: IntOp::And,
        rd: A2,
        rs1: A2,
        rs2: A3,
    });
    asm.add(A2, A2, BASE);
    asm.sd(A2, ACC, 0);
    // Atomically bump the shared chunk refcount.
    asm.la(A2, "refcount");
    asm.li(A1, 1);
    asm.push(Inst::Amo {
        op: AmoOp::Add,
        width: AmoWidth::D,
        rd: A0,
        rs1: A2,
        rs2: A1,
    });
    asm.li(ACC, 0);
    asm.label("no_boundary").unwrap();
    asm.addi(PTR, PTR, 1);
    asm.addi(I0, I0, -1);
    asm.bnez(I0, "byte");
    asm.addi(CNT, CNT, -1);
    asm.bnez(CNT, "round");
    asm.ecall();
    asm.finish().expect("kernel assembles")
}

/// Pointer chasing over a precomputed permutation ring with a payload
/// accumulation and a data-dependent branch — the `mcf` / `gcc` /
/// `omnetpp` profile (latency-bound loads, unpredictable branches).
pub fn pointer_chase_kernel(name: &str, nodes: i64, hops: i64) -> Program {
    let mut asm = Assembler::new(name);
    asm.data_label("nodes").unwrap();
    // node: [next_index, payload] — a maximal-stride permutation ring.
    let stride = (nodes / 2) | 1;
    for i in 0..nodes {
        let next = (i + stride) % nodes;
        asm.data_u64s(&[next as u64 * 16, (i * 2654435761) as u64 & 0xFFFF]);
    }
    asm.li(CNT, hops);
    asm.la(BASE, "nodes");
    asm.li(PTR, 0);
    asm.li(ACC, 0);
    asm.label("hop").unwrap();
    asm.add(A0, BASE, PTR);
    asm.ld(PTR, A0, 0); // next offset
    asm.ld(A1, A0, 8); // payload
                       // Data-dependent branch: accumulate only odd payloads.
    asm.push(Inst::OpImm {
        op: IntImmOp::Andi,
        rd: A2,
        rs1: A1,
        imm: 1,
    });
    asm.beqz(A2, "skip");
    asm.add(ACC, ACC, A1);
    asm.label("skip").unwrap();
    asm.addi(CNT, CNT, -1);
    asm.bnez(CNT, "hop");
    asm.ecall();
    asm.finish().expect("kernel assembles")
}

/// Five-point stencil sweep over a 2-D grid of doubles — the
/// `fluidanimate` / `streamcluster` profile (FP with strided memory).
pub fn stencil_kernel(name: &str, width: i64, height: i64, sweeps: i64) -> Program {
    let mut asm = Assembler::new(name);
    asm.data_label("grid").unwrap();
    for i in 0..width * height {
        asm.data_f64s(&[(i % 19) as f64 * 0.25]);
    }
    asm.li(CNT, sweeps);
    asm.label("sweep").unwrap();
    asm.la(BASE, "grid");
    asm.addi(BASE, BASE, 8 * width); // second row
    asm.li(I0, (height - 2) * (width - 2));
    asm.li(I1, width - 2); // column countdown
    asm.addi(PTR, BASE, 8); // first interior cell
    asm.label("cell").unwrap();
    asm.fld(f(0), PTR, 0);
    asm.fld(f(1), PTR, -8);
    asm.fld(f(2), PTR, 8);
    let row = 8 * width;
    asm.fld(f(3), PTR, -row);
    asm.fld(f(4), PTR, row);
    fp(&mut asm, FpOp::Add, 1, 1, 2);
    fp(&mut asm, FpOp::Add, 3, 3, 4);
    fp(&mut asm, FpOp::Add, 1, 1, 3);
    // new = 0.5*old + 0.125*neighbours
    asm.li(A0, 2);
    asm.push(Inst::FpCvt {
        op: FpCvtOp::LToD,
        rd: 5,
        rs1: A0.index() as u32,
    });
    fp(&mut asm, FpOp::Div, 0, 0, 5);
    asm.li(A0, 8);
    asm.push(Inst::FpCvt {
        op: FpCvtOp::LToD,
        rd: 6,
        rs1: A0.index() as u32,
    });
    fp(&mut asm, FpOp::Div, 1, 1, 6);
    fp(&mut asm, FpOp::Add, 0, 0, 1);
    asm.fsd(PTR, f(0), 0);
    asm.addi(PTR, PTR, 8);
    asm.addi(I1, I1, -1);
    asm.bnez(I1, "no_wrap");
    asm.addi(PTR, PTR, 16); // skip the border pair
    asm.li(I1, width - 2);
    asm.label("no_wrap").unwrap();
    asm.addi(I0, I0, -1);
    asm.bnez(I0, "cell");
    asm.addi(CNT, CNT, -1);
    asm.bnez(CNT, "sweep");
    asm.ecall();
    asm.finish().expect("kernel assembles")
}

/// Monte-Carlo accumulation with an in-guest LCG — the `swaptions` /
/// `bodytrack` profile (int/FP mix, multiply-heavy).
pub fn monte_carlo_kernel(name: &str, paths: i64, steps: i64) -> Program {
    let mut asm = Assembler::new(name);
    asm.data_label("out").unwrap();
    asm.data_zeros(16);
    asm.li(CNT, paths);
    asm.li(ACC, 0x243F_6A88);
    asm.la(BASE, "out");
    asm.label("path").unwrap();
    asm.li(I0, steps);
    asm.li(A0, 0);
    asm.push(Inst::FpCvt {
        op: FpCvtOp::LToD,
        rd: 0,
        rs1: A0.index() as u32,
    }); // sum = 0
    asm.label("step").unwrap();
    // LCG: x = x * 6364136223846793005 + 1442695040888963407
    asm.li(A1, 0x5851_F42D_4C95_7F2Du64 as i64);
    asm.push(Inst::Op {
        op: IntOp::Mul,
        rd: ACC,
        rs1: ACC,
        rs2: A1,
    });
    asm.li(A2, 0x1405_7B7E_F767_814Fu64 as i64);
    asm.add(ACC, ACC, A2);
    // Normalise the top bits to [0,1) and accumulate exp-like weight.
    asm.push(Inst::OpImm {
        op: IntImmOp::Srli,
        rd: A3,
        rs1: ACC,
        imm: 40,
    });
    asm.push(Inst::FpCvt {
        op: FpCvtOp::LToD,
        rd: 1,
        rs1: A3.index() as u32,
    });
    asm.li(A0, 1 << 24);
    asm.push(Inst::FpCvt {
        op: FpCvtOp::LToD,
        rd: 2,
        rs1: A0.index() as u32,
    });
    fp(&mut asm, FpOp::Div, 1, 1, 2); // u in [0,1)
    fma(&mut asm, 0, 1, 1, 0); // sum += u²
    asm.addi(I0, I0, -1);
    asm.bnez(I0, "step");
    asm.fld(f(3), BASE, 0);
    fp(&mut asm, FpOp::Add, 3, 3, 0);
    asm.fsd(BASE, f(3), 0);
    asm.addi(CNT, CNT, -1);
    asm.bnez(CNT, "path");
    asm.ecall();
    asm.finish().expect("kernel assembles")
}

/// Sum-of-absolute-differences over byte blocks with running-min
/// selection — the `x264` / `h264ref` profile (byte loads, branchy).
pub fn sad_kernel(name: &str, blocks: i64, block_bytes: i64, rounds: i64) -> Program {
    let mut asm = Assembler::new(name);
    asm.data_label("frame").unwrap();
    for i in 0..blocks * block_bytes {
        asm.data_bytes(&[((i * 73 + (i >> 5)) % 253) as u8]);
    }
    asm.data_label("refblk").unwrap();
    for i in 0..block_bytes {
        asm.data_bytes(&[((i * 31) % 251) as u8]);
    }
    asm.li(CNT, rounds);
    asm.label("round").unwrap();
    asm.la(BASE, "frame");
    asm.li(I0, blocks);
    asm.li(A3, i64::MAX); // best SAD
    asm.label("block").unwrap();
    asm.la(PTR, "refblk");
    asm.li(I1, block_bytes);
    asm.li(ACC, 0);
    asm.label("byte").unwrap();
    asm.load(LoadOp::Lbu, A0, BASE, 0);
    asm.load(LoadOp::Lbu, A1, PTR, 0);
    asm.sub(A0, A0, A1);
    // |x| without a branch: (x ^ (x>>63)) - (x>>63)
    asm.push(Inst::OpImm {
        op: IntImmOp::Srai,
        rd: A2,
        rs1: A0,
        imm: 63,
    });
    asm.push(Inst::Op {
        op: IntOp::Xor,
        rd: A0,
        rs1: A0,
        rs2: A2,
    });
    asm.sub(A0, A0, A2);
    asm.add(ACC, ACC, A0);
    asm.addi(BASE, BASE, 1);
    asm.addi(PTR, PTR, 1);
    asm.addi(I1, I1, -1);
    asm.bnez(I1, "byte");
    // Running-min branch (data dependent).
    asm.bge(ACC, A3, "not_better");
    asm.mv(A3, ACC);
    asm.label("not_better").unwrap();
    asm.addi(I0, I0, -1);
    asm.bnez(I0, "block");
    asm.addi(CNT, CNT, -1);
    asm.bnez(CNT, "round");
    asm.ecall();
    asm.finish().expect("kernel assembles")
}

/// Streaming XOR/rotate pass over a word array — the `libquantum`
/// profile (sequential bandwidth, minimal branching).
pub fn stream_kernel(name: &str, words: i64, rounds: i64) -> Program {
    let mut asm = Assembler::new(name);
    asm.data_label("state").unwrap();
    for i in 0..words {
        asm.data_u64s(&[(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)]);
    }
    asm.li(CNT, rounds);
    asm.label("round").unwrap();
    asm.la(PTR, "state");
    asm.li(I0, words);
    asm.label("word").unwrap();
    asm.ld(A0, PTR, 0);
    asm.push(Inst::OpImm {
        op: IntImmOp::Xori,
        rd: A0,
        rs1: A0,
        imm: 0x2D5,
    });
    asm.push(Inst::OpImm {
        op: IntImmOp::Slli,
        rd: A1,
        rs1: A0,
        imm: 13,
    });
    asm.push(Inst::OpImm {
        op: IntImmOp::Srli,
        rd: A2,
        rs1: A0,
        imm: 51,
    });
    asm.push(Inst::Op {
        op: IntOp::Or,
        rd: A0,
        rs1: A1,
        rs2: A2,
    });
    asm.sd(PTR, A0, 0);
    asm.addi(PTR, PTR, 8);
    asm.addi(I0, I0, -1);
    asm.bnez(I0, "word");
    asm.addi(CNT, CNT, -1);
    asm.bnez(CNT, "round");
    asm.ecall();
    asm.finish().expect("kernel assembles")
}

/// Integer dynamic-programming band (Viterbi-style three-way max) — the
/// `hmmer` profile (int ALU + regular loads/stores, predictable
/// branches).
pub fn dp_band_kernel(name: &str, cols: i64, rows: i64) -> Program {
    let mut asm = Assembler::new(name);
    asm.data_label("prev").unwrap();
    for i in 0..cols {
        asm.data_u64s(&[(i % 37) as u64 * 3]);
    }
    asm.data_label("curr").unwrap();
    asm.data_zeros((cols * 8) as usize);
    asm.li(CNT, rows);
    asm.label("row").unwrap();
    asm.la(PTR, "prev");
    asm.la(BASE, "curr");
    asm.li(I0, cols - 2);
    asm.label("col").unwrap();
    asm.ld(A0, PTR, 0); // prev[j-1]
    asm.ld(A1, PTR, 8); // prev[j]
    asm.ld(A2, PTR, 16); // prev[j+1]
                         // max3 with slt-based selection (branch-free like optimised hmmer).
    asm.push(Inst::Op {
        op: IntOp::Slt,
        rd: A3,
        rs1: A0,
        rs2: A1,
    });
    asm.beqz(A3, "keep_a");
    asm.mv(A0, A1);
    asm.label("keep_a").unwrap();
    asm.push(Inst::Op {
        op: IntOp::Slt,
        rd: A3,
        rs1: A0,
        rs2: A2,
    });
    asm.beqz(A3, "keep_b");
    asm.mv(A0, A2);
    asm.label("keep_b").unwrap();
    asm.addi(A0, A0, 7); // transition score
    asm.sd(BASE, A0, 8);
    asm.addi(PTR, PTR, 8);
    asm.addi(BASE, BASE, 8);
    asm.addi(I0, I0, -1);
    asm.bnez(I0, "col");
    asm.addi(CNT, CNT, -1);
    asm.bnez(CNT, "row");
    asm.ecall();
    asm.finish().expect("kernel assembles")
}

/// Bit-board scanning with shifts, masks and dense branches — the
/// `sjeng` / `gobmk` / `bzip2` profile (branch-heavy integer work).
pub fn bitboard_kernel(name: &str, positions: i64, rounds: i64) -> Program {
    let mut asm = Assembler::new(name);
    asm.data_label("boards").unwrap();
    for i in 0..positions {
        asm.data_u64s(&[(i as u64).wrapping_mul(0xA24B_AED4_963E_E407) | 1]);
    }
    asm.li(CNT, rounds);
    asm.label("round").unwrap();
    asm.la(PTR, "boards");
    asm.li(I0, positions);
    asm.li(ACC, 0);
    asm.label("pos").unwrap();
    asm.ld(A0, PTR, 0);
    asm.li(I1, 16); // scan 16 squares
    asm.label("square").unwrap();
    asm.push(Inst::OpImm {
        op: IntImmOp::Andi,
        rd: A1,
        rs1: A0,
        imm: 1,
    });
    asm.beqz(A1, "empty");
    asm.push(Inst::OpImm {
        op: IntImmOp::Andi,
        rd: A2,
        rs1: A0,
        imm: 6,
    });
    asm.beqz(A2, "lone");
    asm.addi(ACC, ACC, 3);
    asm.j("next_sq");
    asm.label("lone").unwrap();
    asm.addi(ACC, ACC, 1);
    asm.j("next_sq");
    asm.label("empty").unwrap();
    asm.addi(ACC, ACC, 0);
    asm.label("next_sq").unwrap();
    asm.push(Inst::OpImm {
        op: IntImmOp::Srli,
        rd: A0,
        rs1: A0,
        imm: 2,
    });
    asm.addi(I1, I1, -1);
    asm.bnez(I1, "square");
    asm.addi(PTR, PTR, 8);
    asm.addi(I0, I0, -1);
    asm.bnez(I0, "pos");
    asm.addi(CNT, CNT, -1);
    asm.bnez(CNT, "round");
    asm.ecall();
    asm.finish().expect("kernel assembles")
}

/// Binary-heap sift-down passes over an implicit array — the `omnetpp` /
/// `astar` priority-queue profile (indexed loads/stores, unpredictable
/// branches).
pub fn heap_kernel(name: &str, heap_slots: i64, operations: i64) -> Program {
    let mut asm = Assembler::new(name);
    asm.data_label("heap").unwrap();
    for i in 0..heap_slots {
        asm.data_u64s(&[((i * 2654435761) % 100_000) as u64]);
    }
    asm.li(CNT, operations);
    asm.li(ACC, 1); // rotating start index
    asm.label("op").unwrap();
    asm.la(BASE, "heap");
    asm.mv(A0, ACC); // i
    asm.label("sift").unwrap();
    asm.push(Inst::OpImm {
        op: IntImmOp::Slli,
        rd: A1,
        rs1: A0,
        imm: 1,
    }); // 2i
    asm.li(A3, heap_slots - 1);
    asm.bge(A1, A3, "done_sift");
    // load heap[i], heap[2i]
    asm.push(Inst::OpImm {
        op: IntImmOp::Slli,
        rd: A2,
        rs1: A0,
        imm: 3,
    });
    asm.add(A2, A2, BASE);
    asm.ld(I1, A2, 0);
    asm.push(Inst::OpImm {
        op: IntImmOp::Slli,
        rd: A3,
        rs1: A1,
        imm: 3,
    });
    asm.add(A3, A3, BASE);
    asm.ld(I2, A3, 0);
    asm.bge(I2, I1, "done_sift"); // child >= parent: heap ok
                                  // swap
    asm.sd(A2, I2, 0);
    asm.sd(A3, I1, 0);
    asm.mv(A0, A1);
    asm.j("sift");
    asm.label("done_sift").unwrap();
    asm.addi(ACC, ACC, 7);
    asm.li(A3, heap_slots / 2);
    asm.blt(ACC, A3, "no_wrap");
    asm.li(ACC, 1);
    asm.label("no_wrap").unwrap();
    asm.addi(CNT, CNT, -1);
    asm.bnez(CNT, "op");
    asm.ecall();
    asm.finish().expect("kernel assembles")
}

/// Feature-distance search mixing integer hashing with FP dot products —
/// the `ferret` profile.
pub fn feature_search_kernel(name: &str, vectors: i64, dims: i64, rounds: i64) -> Program {
    let mut asm = Assembler::new(name);
    asm.data_label("db").unwrap();
    for i in 0..vectors * dims {
        asm.data_f64s(&[((i % 23) as f64 - 11.0) * 0.125]);
    }
    asm.data_label("query").unwrap();
    for i in 0..dims {
        asm.data_f64s(&[((i % 7) as f64 - 3.0) * 0.25]);
    }
    asm.data_label("scanned").unwrap();
    asm.data_zeros(8);
    asm.li(CNT, rounds);
    asm.label("round").unwrap();
    asm.la(BASE, "db");
    asm.li(I0, vectors);
    asm.label("vector").unwrap();
    asm.la(PTR, "query");
    asm.li(I1, dims);
    asm.li(A0, 0);
    asm.push(Inst::FpCvt {
        op: FpCvtOp::LToD,
        rd: 0,
        rs1: A0.index() as u32,
    }); // dist = 0
    asm.label("dim").unwrap();
    asm.fld(f(1), BASE, 0);
    asm.fld(f(2), PTR, 0);
    fp(&mut asm, FpOp::Sub, 3, 1, 2);
    fma(&mut asm, 0, 3, 3, 0);
    asm.addi(BASE, BASE, 8);
    asm.addi(PTR, PTR, 8);
    asm.addi(I1, I1, -1);
    asm.bnez(I1, "dim");
    // Atomically bump the shared progress counter, as the parallel
    // similarity searches do per candidate (LR/SC + AMO keep the §III-B
    // multi-µop log path in the stream).
    asm.la(A2, "scanned");
    asm.li(A1, 1);
    asm.push(Inst::Amo {
        op: AmoOp::Add,
        width: AmoWidth::D,
        rd: A0,
        rs1: A2,
        rs2: A1,
    });
    asm.addi(I0, I0, -1);
    asm.bnez(I0, "vector");
    asm.addi(CNT, CNT, -1);
    asm.bnez(CNT, "round");
    asm.ecall();
    asm.finish().expect("kernel assembles")
}

/// A segment-aligned stateless control loop — the best case for the
/// segment-verdict memo (DESIGN.md §13) — placed in slot `slot`'s
/// text/data window, so several instances can run side by side on
/// multi-main topologies (programs bound to a scenario must use
/// disjoint address windows).
///
/// The loop body re-derives every live register from immediates each
/// iteration, so the architectural state at checking-segment starts
/// repeats bit-for-bit across repetitions. The repetition count lives
/// in memory and is touched only by a four-instruction epilogue, so of
/// the `segments_per_rep` segments spanned by one repetition, all but
/// one hash identically every time: steady-state memo hit rate is
/// `(segments_per_rep - 1) / segments_per_rep`.
///
/// `segment_insts` must match the fabric's `segment_limit` (paper:
/// 5 000) — the loop body is padded to exactly
/// `segment_insts * segments_per_rep` instructions so segment
/// boundaries land at the same PCs in every repetition.
pub fn control_loop_kernel_at(
    name: &str,
    segment_insts: i64,
    segments_per_rep: i64,
    reps: i64,
    slot: u64,
) -> Program {
    let mut asm = Assembler::with_bases(
        name,
        0x1000_0000 + slot * 0x10_0000,
        0x2000_0000 + slot * 0x10_0000,
    );
    assert!(segment_insts >= 64, "segment too short to align against");
    assert!(
        segments_per_rep >= 2,
        "need at least one counter-free segment"
    );
    assert!(reps >= 1);
    let body = segment_insts * segments_per_rep;
    // Inner iterations are 5 instructions; the rest of the body is
    // 1 (kill counter) + li_len (inner trip count) + pads + 4 (epilogue).
    let inner = (body - 1 - 3 - 4) / 5;
    let li_len = materialize_const(I0, inner).len() as i64;
    let pads = body - 1 - li_len - 5 * inner - 4;
    assert!((0..10).contains(&pads), "pad computation off: {pads}");

    asm.data_label("cell").unwrap();
    asm.data_u64s(&[0, 0]); // [scratch store target, rep counter]
    asm.la(PTR, "cell");
    asm.li(CNT, reps);
    asm.sd(PTR, CNT, 8);
    // Keep the prologue at least 4 instructions: segment boundaries sit
    // at `segment_insts*k - prologue_len` into the body, and the
    // varying epilogue (last 4 instructions) must stay in one segment.
    while asm.text_len() < 4 {
        asm.nop();
    }
    assert!((asm.text_len() as i64) < segment_insts);

    let top = asm.text_len();
    asm.label("rep").unwrap();
    asm.li(CNT, 0); // kill the loaded rep counter: snapshots repeat
    asm.li(I0, inner);
    asm.label("inner").unwrap();
    asm.li(A0, 77);
    asm.add(A1, A0, A0);
    asm.sd(PTR, A1, 0);
    asm.addi(I0, I0, -1);
    asm.bnez(I0, "inner");
    for _ in 0..pads {
        asm.nop();
    }
    asm.ld(CNT, PTR, 8);
    asm.addi(CNT, CNT, -1);
    asm.sd(PTR, CNT, 8);
    asm.bnez(CNT, "rep");
    // The body retires `body` instructions per repetition; statically
    // the 5-instruction inner loop appears once.
    assert_eq!(
        (asm.text_len() - top) as i64,
        body - 5 * (inner - 1),
        "static body size must match the padded layout"
    );
    asm.ecall();
    asm.finish().expect("kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexstep_sim::{Soc, SocConfig};

    fn runs_to_completion(p: &Program) -> u64 {
        let mut soc = Soc::new(SocConfig::paper(1)).expect("config");
        soc.run_to_ecall(p, 20_000_000)
    }

    #[test]
    fn all_templates_assemble_and_terminate() {
        let programs = [
            fp_pricing_kernel("bs", 16, 4),
            hash_chunk_kernel("hc", 512, 2, 64),
            pointer_chase_kernel("pc", 128, 2_000),
            stencil_kernel("st", 16, 10, 2),
            monte_carlo_kernel("mc", 20, 50),
            sad_kernel("sad", 16, 32, 2),
            stream_kernel("sm", 256, 4),
            dp_band_kernel("dp", 64, 20),
            bitboard_kernel("bb", 64, 3),
            heap_kernel("hp", 128, 500),
            feature_search_kernel("fs", 16, 16, 2),
        ];
        for p in &programs {
            let retired = runs_to_completion(p);
            assert!(retired > 1_000, "{} too short: {retired}", p.name);
        }
    }

    #[test]
    fn control_loop_kernel_retires_segment_aligned_counts() {
        let p = control_loop_kernel_at("ctrl", 5_000, 2, 3, 0);
        let mut soc = Soc::new(SocConfig::paper(1)).expect("config");
        let retired = soc.run_to_ecall(&p, 10_000_000);
        // prologue + reps * (segment_insts * segments_per_rep) + ecall;
        // the prologue is < 64 instructions, so alignment shows up as a
        // small fixed remainder mod the body size.
        let body = 10_000u64;
        assert_eq!(retired / body, 3, "three repetitions");
        assert!(retired % body < 64, "prologue must stay short: {retired}");
    }

    #[test]
    fn scale_factors_increase_work() {
        assert!(Scale::Test.factor() < Scale::Small.factor());
        assert!(Scale::Small.factor() < Scale::Medium.factor());
    }

    #[test]
    fn pricing_kernel_writes_prices() {
        let p = fp_pricing_kernel("bs", 4, 1);
        let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
        soc.run_to_ecall(&p, 5_000_000);
        let table = p.symbol("table").unwrap();
        for i in 0..4 {
            let out = f64::from_bits(soc.mem.phys().read_u64(table + i * 48 + 40));
            assert!(out.is_finite(), "option {i} price must be finite: {out}");
            assert!(out != 0.0, "option {i} price must be written");
        }
    }

    #[test]
    fn pointer_chase_visits_ring() {
        let p = pointer_chase_kernel("pc", 64, 64);
        let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
        soc.run_to_ecall(&p, 5_000_000);
        // After nodes hops on a full-cycle permutation we are back at 0.
        assert_eq!(soc.core(0).state.x(PTR), 0, "full-cycle ring must close");
    }

    #[test]
    fn stream_kernel_mutates_every_word() {
        let p = stream_kernel("sm", 32, 1);
        let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
        // Snapshot initial data, run, compare.
        let base = p.symbol("state").unwrap();
        let before: Vec<u64> = (0..32)
            .map(|i| u64::from_le_bytes(p.data[(i * 8)..(i * 8 + 8)].try_into().unwrap()))
            .collect();
        soc.run_to_ecall(&p, 5_000_000);
        for (i, b) in before.iter().enumerate() {
            let after = soc.mem.phys().read_u64(base + (i as u64) * 8);
            assert_ne!(after, *b, "word {i} must be transformed");
        }
    }
}
