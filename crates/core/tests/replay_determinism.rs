//! Property tests of the FlexStep checking pipeline.
//!
//! The central invariant of §II: as long as checkpoints and memory
//! accesses are recorded and buffered, the checker can reproduce the
//! main core's execution *exactly* — so for any program, a fault-free
//! run must verify clean, and the verified run's architectural results
//! must equal an unverified run's.

use flexstep_core::harness::baseline_cycles;
use flexstep_core::{FabricConfig, FaultPlan, FaultTarget, RecoveryPolicy, Scenario, Topology};
use flexstep_isa::asm::{Assembler, Program};
use flexstep_isa::inst::*;
use flexstep_isa::reg::{FReg, XReg};
use flexstep_sim::{Soc, SocConfig};
use flexstep_workloads::builder::control_loop_kernel_at;
use proptest::prelude::*;

/// Registers the generator may freely clobber (a2 = data base, a1 = loop
/// counter are reserved).
const SCRATCH: [XReg; 8] = [
    XReg::A0,
    XReg::A3,
    XReg::A4,
    XReg::A5,
    XReg::A6,
    XReg::A7,
    XReg::T0,
    XReg::T1,
];

const FP: [u32; 6] = [0, 1, 2, 3, 4, 5];

#[derive(Debug, Clone)]
enum BodyOp {
    Alu {
        op: IntOp,
        rd: usize,
        rs1: usize,
        rs2: usize,
    },
    AluImm {
        op: IntImmOp,
        rd: usize,
        rs1: usize,
        imm: i64,
    },
    Load {
        rd: usize,
        offset: i64,
    },
    Store {
        rs: usize,
        offset: i64,
    },
    Amo {
        op: AmoOp,
        rd: usize,
        rs: usize,
        offset_slot: i64,
    },
    LrSc {
        rd: usize,
        rs: usize,
        offset_slot: i64,
    },
    Fld {
        fd: usize,
        offset: i64,
    },
    Fsd {
        fs: usize,
        offset: i64,
    },
    Fp {
        op: FpOp,
        fd: usize,
        fa: usize,
        fb: usize,
    },
    Fma {
        fd: usize,
        fa: usize,
        fb: usize,
        fc: usize,
    },
    FCvt {
        rd: usize,
        fa: usize,
    },
}

fn body_op() -> impl Strategy<Value = BodyOp> {
    let reg = 0usize..SCRATCH.len();
    let freg = 0usize..FP.len();
    let off = (0i64..64).prop_map(|v| v * 8);
    prop_oneof![
        (
            prop_oneof![
                Just(IntOp::Add),
                Just(IntOp::Sub),
                Just(IntOp::Xor),
                Just(IntOp::And),
                Just(IntOp::Or),
                Just(IntOp::Mul),
                Just(IntOp::Sltu),
            ],
            reg.clone(),
            reg.clone(),
            reg.clone()
        )
            .prop_map(|(op, rd, rs1, rs2)| BodyOp::Alu { op, rd, rs1, rs2 }),
        (
            prop_oneof![
                Just(IntImmOp::Addi),
                Just(IntImmOp::Xori),
                Just(IntImmOp::Andi)
            ],
            reg.clone(),
            reg.clone(),
            -512i64..512
        )
            .prop_map(|(op, rd, rs1, imm)| BodyOp::AluImm { op, rd, rs1, imm }),
        (reg.clone(), off.clone()).prop_map(|(rd, offset)| BodyOp::Load { rd, offset }),
        (reg.clone(), off.clone()).prop_map(|(rs, offset)| BodyOp::Store { rs, offset }),
        (
            prop_oneof![
                Just(AmoOp::Add),
                Just(AmoOp::Swap),
                Just(AmoOp::Xor),
                Just(AmoOp::Max)
            ],
            reg.clone(),
            reg.clone(),
            0i64..8
        )
            .prop_map(|(op, rd, rs, slot)| BodyOp::Amo {
                op,
                rd,
                rs,
                offset_slot: slot * 8
            }),
        (reg.clone(), reg.clone(), 0i64..8).prop_map(|(rd, rs, slot)| BodyOp::LrSc {
            rd,
            rs,
            offset_slot: slot * 8
        }),
        (freg.clone(), off.clone()).prop_map(|(fd, offset)| BodyOp::Fld { fd, offset }),
        (freg.clone(), off.clone()).prop_map(|(fs, offset)| BodyOp::Fsd { fs, offset }),
        (
            prop_oneof![
                Just(FpOp::Add),
                Just(FpOp::Sub),
                Just(FpOp::Mul),
                Just(FpOp::Min)
            ],
            freg.clone(),
            freg.clone(),
            freg.clone()
        )
            .prop_map(|(op, fd, fa, fb)| BodyOp::Fp { op, fd, fa, fb }),
        (freg.clone(), freg.clone(), freg.clone(), freg.clone())
            .prop_map(|(fd, fa, fb, fc)| BodyOp::Fma { fd, fa, fb, fc }),
        (reg, freg).prop_map(|(rd, fa)| BodyOp::FCvt { rd, fa }),
    ]
}

/// Builds a terminating program: an initialised data region, a loop of
/// `iters` iterations over the generated body, then `ecall`.
fn build_program(body: &[BodyOp], iters: i64) -> Program {
    build_program_at(body, iters, None)
}

/// Same, but placed in a per-slot text/data window so several instances
/// can run side by side on a multi-main topology.
fn build_program_at(body: &[BodyOp], iters: i64, slot: Option<u64>) -> Program {
    let mut asm = match slot {
        None => Assembler::new("prop_program"),
        Some(slot) => Assembler::with_bases(
            format!("prop_program{slot}"),
            0x1000_0000 + slot * 0x10_0000,
            0x2000_0000 + slot * 0x10_0000,
        ),
    };
    asm.data_label("region").unwrap();
    for i in 0..80u64 {
        asm.data_u64s(&[i.wrapping_mul(0x9E37_79B9_7F4A_7C15)]);
    }
    // a2 = data base, a1 = loop counter; seed scratch registers.
    asm.la(XReg::A2, "region");
    asm.li(XReg::A1, iters);
    for (i, &r) in SCRATCH.iter().enumerate() {
        asm.li(r, (i as i64 + 1) * 3);
    }
    for (i, &f) in FP.iter().enumerate() {
        asm.li(XReg::T2, i as i64 + 1);
        asm.push(Inst::FpCvt {
            op: FpCvtOp::LToD,
            rd: f,
            rs1: XReg::T2.index() as u32,
        });
    }
    asm.label("loop").unwrap();
    for op in body {
        match *op {
            BodyOp::Alu { op, rd, rs1, rs2 } => {
                asm.push(Inst::Op {
                    op,
                    rd: SCRATCH[rd],
                    rs1: SCRATCH[rs1],
                    rs2: SCRATCH[rs2],
                });
            }
            BodyOp::AluImm { op, rd, rs1, imm } => {
                asm.push(Inst::OpImm {
                    op,
                    rd: SCRATCH[rd],
                    rs1: SCRATCH[rs1],
                    imm,
                });
            }
            BodyOp::Load { rd, offset } => {
                asm.ld(SCRATCH[rd], XReg::A2, offset);
            }
            BodyOp::Store { rs, offset } => {
                asm.sd(XReg::A2, SCRATCH[rs], offset);
            }
            BodyOp::Amo {
                op,
                rd,
                rs,
                offset_slot,
            } => {
                // Compute the address in t2 = a2 + slot.
                asm.addi(XReg::T2, XReg::A2, offset_slot);
                asm.push(Inst::Amo {
                    op,
                    width: AmoWidth::D,
                    rd: SCRATCH[rd],
                    rs1: XReg::T2,
                    rs2: SCRATCH[rs],
                });
            }
            BodyOp::LrSc {
                rd,
                rs,
                offset_slot,
            } => {
                asm.addi(XReg::T2, XReg::A2, offset_slot);
                asm.push(Inst::Lr {
                    width: AmoWidth::D,
                    rd: SCRATCH[rd],
                    rs1: XReg::T2,
                });
                asm.push(Inst::Sc {
                    width: AmoWidth::D,
                    rd: SCRATCH[rd],
                    rs1: XReg::T2,
                    rs2: SCRATCH[rs],
                });
            }
            BodyOp::Fld { fd, offset } => {
                asm.fld(FReg::of(FP[fd]), XReg::A2, offset);
            }
            BodyOp::Fsd { fs, offset } => {
                asm.fsd(XReg::A2, FReg::of(FP[fs]), offset);
            }
            BodyOp::Fp { op, fd, fa, fb } => {
                asm.push(Inst::Fp {
                    op,
                    rd: FReg::of(FP[fd]),
                    rs1: FReg::of(FP[fa]),
                    rs2: FReg::of(FP[fb]),
                });
            }
            BodyOp::Fma { fd, fa, fb, fc } => {
                asm.push(Inst::Fma {
                    op: FmaOp::Madd,
                    rd: FReg::of(FP[fd]),
                    rs1: FReg::of(FP[fa]),
                    rs2: FReg::of(FP[fb]),
                    rs3: FReg::of(FP[fc]),
                });
            }
            BodyOp::FCvt { rd, fa } => {
                asm.push(Inst::FpCvt {
                    op: FpCvtOp::DToL,
                    rd: SCRATCH[rd].index() as u32,
                    rs1: FP[fa],
                });
            }
        }
    }
    asm.addi(XReg::A1, XReg::A1, -1);
    asm.bnez(XReg::A1, "loop");
    asm.ecall();
    asm.finish().expect("generated program must assemble")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any fault-free program verifies clean under dual-core checking,
    /// and checking does not change architectural results.
    #[test]
    fn clean_runs_always_verify(
        body in proptest::collection::vec(body_op(), 4..40),
        iters in 5i64..60,
    ) {
        let program = build_program(&body, iters);

        // Unverified baseline.
        let mut plain = Soc::new(SocConfig::paper(1)).expect("config");
        plain.run_to_ecall(&program, 5_000_000);
        let base_state = plain.core(0).state.snapshot();

        // Verified run with an intentionally small segment limit so even
        // short programs cross several segment boundaries.
        let fabric = FabricConfig { segment_limit: 150, ..FabricConfig::paper() };
        let mut run = Scenario::new(&program).cores(2).fabric(fabric).build().expect("setup");
        let report = run.run_to_completion(20_000_000);

        prop_assert!(report.completed, "verified run must finish");
        prop_assert_eq!(report.segments_failed, 0, "fault-free run must verify clean");
        prop_assert!(report.detections.is_empty());
        prop_assert!(report.segments_checked >= 1);

        // Verification must not perturb architectural results.
        let verified_state = run.soc().core(0).state.snapshot();
        prop_assert_eq!(verified_state.xregs, base_state.xregs);
        prop_assert_eq!(verified_state.fregs, base_state.fregs);

        // And memory contents must agree over the data region.
        let region = program.data_base;
        for slot in 0..80 {
            let addr = region + slot * 8;
            prop_assert_eq!(
                run.soc().mem.phys().read_u64(addr),
                plain.mem.phys().read_u64(addr),
                "memory diverged at {:#x}", addr
            );
        }
    }

    /// The backpressure path (tiny FIFO) preserves correctness: the run
    /// completes and still verifies clean, just more slowly.
    #[test]
    fn backpressure_preserves_correctness(
        body in proptest::collection::vec(body_op(), 8..24),
        iters in 20i64..50,
    ) {
        let program = build_program(&body, iters);
        let tight = FabricConfig {
            fifo_entry_bytes: 96, // a handful of entries
            segment_limit: 200,
            ..FabricConfig::paper_strict()
        };
        let mut run = Scenario::new(&program).cores(2).fabric(tight).build().expect("setup");
        let report = run.run_to_completion(50_000_000);
        prop_assert!(report.completed);
        prop_assert_eq!(report.segments_failed, 0);

        let base = baseline_cycles(&program, 5_000_000).expect("baseline");
        prop_assert!(report.main_finish_cycle >= base);
    }

    /// The segment-verdict memo must be architecturally and temporally
    /// invisible: for any program, topology, and fault plan, the memo-on
    /// and memo-off runs serialise to byte-identical reports. Hits charge
    /// the recorded cycle/consumption totals exactly; channels with an
    /// armed or in-flight fault shot bypass the memo and re-execute.
    #[test]
    fn memo_on_and_off_reports_are_byte_identical(
        body in proptest::collection::vec(body_op(), 4..24),
        iters in 30i64..120,
        shape in 0usize..3,
        faulted in any::<bool>(),
        tiny_cache in any::<bool>(),
    ) {
        // A small segment limit makes even short programs cross many
        // segment boundaries; loop-heavy bodies then produce real hits.
        let fabric = FabricConfig {
            segment_limit: 150,
            memo_capacity: if tiny_cache { 4 } else { 64 },
            ..FabricConfig::paper()
        };
        let p0 = build_program_at(&body, iters, Some(0));
        let p1 = build_program_at(&body, iters, Some(1));

        let mut jsons = Vec::new();
        let mut hits = 0u64;
        for memo in [false, true] {
            let mut scenario = match shape {
                // 1 main : 1 checker, the Fig. 4 DCLS-like pair.
                0 => Scenario::new(&p0).cores(2),
                // Two pairs side by side.
                1 => Scenario::new(&p0).program(&p1).cores(4),
                // Two mains arbitrating over one shared checker (§III-C).
                _ => Scenario::new(&p0)
                    .program(&p1)
                    .cores(3)
                    .topology(Topology::SharedChecker { checkers: 1 }),
            };
            scenario = scenario.fabric(fabric).memo(memo);
            if faulted {
                scenario = scenario.fault_plan(
                    FaultPlan::bit_flip_at(10_000, FaultTarget::EntryData).with_seed(7),
                );
            }
            let mut run = scenario.build().expect("setup");
            let report = run.run_to_completion(50_000_000);
            prop_assert!(report.completed, "memo={memo} run must finish");
            if memo {
                hits = run.fabric().stats.memo_hits;
            }
            jsons.push(report.to_json());
        }
        prop_assert_eq!(&jsons[0], &jsons[1], "memo on/off reports diverged (hits={})", hits);
    }

    /// Same identity on a workload engineered to produce real memo hits
    /// (`control_loop_kernel` repeats architectural state across
    /// segment-aligned repetitions): the hit path — one charge of the
    /// cached segment totals instead of re-execution — must be
    /// byte-for-byte indistinguishable from a full replay, across
    /// dedicated and shared-checker topologies, cache-eviction pressure,
    /// armed fault shots (which bypass the memo on the targeted channel)
    /// and checker kills (which the replay horizon keeps out of a hit).
    #[test]
    fn memo_hits_are_invisible_across_topologies(
        segments_per_rep in 2i64..5,
        reps in 2i64..5,
        shape in 0usize..3,
        faulted in any::<bool>(),
        tiny_cache in any::<bool>(),
        killed in any::<bool>(),
        kill_at in 1_000u64..8_000,
    ) {
        let fabric = FabricConfig {
            segment_limit: 150,
            memo_capacity: if tiny_cache { 4 } else { 64 },
            ..FabricConfig::paper()
        };
        let p0 = control_loop_kernel_at("ctrl0", 150, segments_per_rep, reps, 0);
        let p1 = control_loop_kernel_at("ctrl1", 150, segments_per_rep, reps, 1);

        let mut jsons = Vec::new();
        let mut hits = 0u64;
        for memo in [false, true] {
            let scenario = match shape {
                0 => Scenario::new(&p0).cores(2),
                1 => Scenario::new(&p0).program(&p1).cores(4),
                _ => Scenario::new(&p0)
                    .program(&p1)
                    .cores(3)
                    .topology(Topology::SharedChecker { checkers: 1 }),
            };
            let mut plan = FaultPlan::none().with_seed(11);
            if faulted {
                plan = plan.then_bit_flip_at(2_000, FaultTarget::EntryData);
            }
            if killed {
                plan = plan.then_kill_checker_at(kill_at);
            }
            let mut run = scenario.fabric(fabric).memo(memo).fault_plan(plan).build().expect("setup");
            let report = run.run_to_completion(50_000_000);
            prop_assert!(report.completed, "memo={memo} run must finish");
            if memo {
                hits = run.fabric().stats.memo_hits;
            }
            jsons.push(report.to_json());
        }
        if !faulted && !killed {
            prop_assert!(hits > 0, "aligned workload must produce memo hits");
        }
        prop_assert_eq!(&jsons[0], &jsons[1], "memo on/off reports diverged (hits={})", hits);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// §VI robustness: under `RecoveryPolicy::Rollback`, a faulted run
    /// must *converge* — faults only ever corrupt the in-flight DBC
    /// stream, so restoring the last verified segment checkpoint and
    /// re-executing yields a final architectural state byte-identical to
    /// a fault-free golden run, across random programs, topologies and
    /// fault plans. The attribution chain stays ordered
    /// (`detected <= landed <= armed`) and recoveries consume
    /// detections (`recovered <= detected`).
    #[test]
    fn rollback_runs_converge_to_the_golden_state(
        body in proptest::collection::vec(body_op(), 4..24),
        iters in 60i64..160,
        shape in 0usize..3,
        first_shot in 500u64..6_000,
        second_shot in 0u64..4_000,
        target in prop_oneof![
            Just(FaultTarget::EntryAddr),
            Just(FaultTarget::EntryData),
            Just(FaultTarget::Checkpoint),
            Just(FaultTarget::InstCount),
        ],
        seed in 0u64..1_000,
        max_retries in 1u32..4,
    ) {
        // The vendored proptest implements `Strategy` for tuples up to
        // arity 8 — derive the ninth dimension from the seed.
        let two_shots = seed % 2 == 0;
        let fabric = FabricConfig { segment_limit: 150, ..FabricConfig::paper() };
        let p0 = build_program_at(&body, iters, Some(0));
        let p1 = build_program_at(&body, iters, Some(1));
        let build = |faults: Option<FaultPlan>, recovery: RecoveryPolicy| {
            let mut scenario = match shape {
                0 => Scenario::new(&p0).cores(2),
                1 => Scenario::new(&p0).program(&p1).cores(4),
                _ => Scenario::new(&p0)
                    .program(&p1)
                    .cores(3)
                    .topology(Topology::SharedChecker { checkers: 1 }),
            };
            scenario = scenario.fabric(fabric).recovery(recovery);
            if let Some(plan) = faults {
                scenario = scenario.fault_plan(plan);
            }
            scenario.build().expect("setup")
        };
        let mains = if shape == 0 { 1 } else { 2 };

        // Fault-free golden run (policy irrelevant without detections).
        let mut golden = build(None, RecoveryPolicy::Detect);
        prop_assert!(golden.run_to_completion(50_000_000).completed);

        let mut plan = FaultPlan::bit_flip_at(first_shot, target).with_seed(seed);
        if two_shots {
            plan = plan.then_bit_flip_at(first_shot + 1_000 + second_shot, target);
        }
        let mut run = build(Some(plan), RecoveryPolicy::Rollback { max_retries });
        let report = run.run_to_completion(50_000_000);
        prop_assert!(report.completed, "rollback run must finish");

        // Attribution ordering and recovery accounting.
        let detected = report.detections.len();
        let landed = report.injections.len();
        prop_assert!(
            detected <= landed && landed <= report.shots_armed as usize,
            "detected {} <= landed {} <= armed {}",
            detected, landed, report.shots_armed
        );
        let recovered: usize = report
            .per_main
            .iter()
            .map(|m| m.recovery_latency_cycles.len())
            .sum();
        prop_assert!(recovered <= detected, "recovered {recovered} <= detected {detected}");
        for m in &report.per_main {
            prop_assert_eq!(
                m.unrecovered, 0,
                "transient shots always re-execute clean within one retry"
            );
            prop_assert_eq!(m.recovery_latency_cycles.len() as u64, m.recoveries);
        }

        // Convergence: every main ends byte-identical to the golden run,
        // registers and data region alike.
        for main in 0..mains {
            let slot = main * 2; // mains sit on even cores in all three shapes
            prop_assert_eq!(
                run.soc().core(slot).state.snapshot(),
                golden.soc().core(slot).state.snapshot(),
                "main {} diverged from the golden run", main
            );
            let region = if main == 0 { p0.data_base } else { p1.data_base };
            for word in 0..80 {
                let addr = region + word * 8;
                prop_assert_eq!(
                    run.soc().mem.phys().read_u64(addr),
                    golden.soc().mem.phys().read_u64(addr),
                    "memory diverged at {:#x}", addr
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The memo's invisibility guarantee survives the reliability-mode
    /// layer (ISSUE 10): under every [`ReliabilityMode`], and under
    /// mid-run checker release/re-acquire, memo-on and memo-off runs
    /// serialise to byte-identical reports — mode accounting included.
    /// Mode dispatch changes segment granularity (lockstep pins the
    /// limit to 1) and pairing swaps channels on and off mid-stream;
    /// neither may let a cached verdict replay where state diverged.
    #[test]
    fn memo_is_invisible_under_every_mode_and_repairing(
        body in proptest::collection::vec(body_op(), 4..20),
        iters in 30i64..100,
        mode_idx in 0usize..4,
        shape in 0usize..3,
        windowed in any::<bool>(),
        release in 1_000u64..4_000,
        window_len in 1_000u64..6_000,
        faulted in any::<bool>(),
    ) {
        use flexstep_core::{PairingSchedule, RELIABILITY_MODES};

        let mode = RELIABILITY_MODES[mode_idx];
        let fabric = FabricConfig { segment_limit: 150, ..FabricConfig::paper() };
        let p0 = build_program_at(&body, iters, Some(0));
        let p1 = build_program_at(&body, iters, Some(1));

        let mut jsons = Vec::new();
        for memo in [false, true] {
            let mut scenario = match shape {
                0 => Scenario::new(&p0).cores(2),
                1 => Scenario::new(&p0).program(&p1).cores(4),
                _ => Scenario::new(&p0)
                    .program(&p1)
                    .cores(3)
                    .topology(Topology::SharedChecker { checkers: 1 }),
            };
            scenario = scenario
                .fabric(fabric)
                .memo(memo)
                .main_reliability_mode(mode);
            // Pairing events are rejected on unchecked slots by design.
            if windowed && mode.is_checked() {
                scenario = scenario.pairing_schedule(
                    PairingSchedule::new().window(0, release, release + window_len),
                );
            }
            if faulted {
                scenario = scenario.fault_plan(
                    FaultPlan::bit_flip_at(2_000, FaultTarget::EntryData).with_seed(13),
                );
            }
            let mut run = scenario.build().expect("setup");
            let report = run.run_to_completion(100_000_000);
            prop_assert!(report.completed, "memo={memo} {mode} run must finish");
            jsons.push(report.to_json());
        }
        prop_assert_eq!(&jsons[0], &jsons[1], "memo on/off diverged under {}", mode);
    }
}
