//! Goldens for segment-granular checker replay.
//!
//! In the DMA-spill regime a checker replays a fully buffered segment as
//! a run of instructions in one dispatch (`FlexSoc::step_checker`). That
//! is a host-side optimisation only: every report here must stay
//! byte-identical to the one-instruction-per-dispatch replay that
//! produced the checked-in goldens. The scenarios are chosen so that a
//! block ends at every exit it has — a failing port read or forwarded
//! branch outcome, an atomic instruction, the segment's `InstCount`, a
//! fault shot or pairing event on the horizon — and so that the
//! single-step fallbacks (multi-consumer rollback, the no-spill fabric)
//! run too. All use 400-instruction segments so every run crosses many
//! segment boundaries.
//!
//! Regenerate deliberately with
//! `BLESS_MODEL_GOLDENS=1 cargo test --test replay_blocks` and justify
//! the diff in review.

use flexstep::core::{
    CoreModelKind, FabricConfig, FaultPlan, FaultTarget, PairingSchedule, RecoveryPolicy, Scenario,
    Topology,
};
use flexstep::isa::asm::{Assembler, Program};
use flexstep::isa::inst::{AmoOp, AmoWidth, Inst, IntImmOp, IntOp};
use flexstep::isa::XReg;
use std::path::PathBuf;

/// Seeds per scenario shape.
const SEEDS: [u64; 3] = [1, 2, 3];

/// Compares `actual` against the checked-in golden, or rewrites it under
/// `BLESS_MODEL_GOLDENS=1`.
fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/goldens")
        .join(name);
    if std::env::var_os("BLESS_MODEL_GOLDENS").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); bless to create", path.display()));
    assert_eq!(
        actual, expected,
        "{name} diverged from the single-step replay golden \
         (BLESS_MODEL_GOLDENS=1 to regenerate deliberately)"
    );
}

/// A loop with loads, stores, an atomic, a multiply, a conditional call
/// and two branches per iteration, in a private text/data window per
/// slot.
fn kernel(slot: u64, iters: i64) -> Program {
    let text = 0x1000_0000 + slot * 0x10_0000;
    let data = 0x2000_0000 + slot * 0x10_0000;
    let mut asm = Assembler::with_bases(format!("blk{slot}"), text, data);
    let imm = |op, rd, rs1, imm| Inst::OpImm { op, rd, rs1, imm };
    asm.la(XReg::A2, "buf");
    asm.data_label("buf").unwrap();
    asm.data_zeros(128);
    asm.li(XReg::A0, iters);
    asm.li(XReg::A4, 0);
    asm.label("loop").unwrap();
    asm.push(imm(IntImmOp::Andi, XReg::T0, XReg::A0, 7));
    asm.push(imm(IntImmOp::Slli, XReg::T0, XReg::T0, 3));
    asm.add(XReg::T1, XReg::A2, XReg::T0);
    asm.sd(XReg::T1, XReg::A0, 16);
    asm.ld(XReg::A3, XReg::T1, 16);
    asm.add(XReg::A4, XReg::A4, XReg::A3);
    asm.mul(XReg::A5, XReg::A4, XReg::A0);
    asm.push(Inst::Amo {
        op: AmoOp::Add,
        width: AmoWidth::D,
        rd: XReg::A6,
        rs1: XReg::A2,
        rs2: XReg::A5,
    });
    asm.push(imm(IntImmOp::Andi, XReg::T2, XReg::A0, 3));
    asm.bnez(XReg::T2, "skip");
    asm.call("helper");
    asm.label("skip").unwrap();
    asm.addi(XReg::A0, XReg::A0, -1);
    asm.bnez(XReg::A0, "loop");
    asm.ecall();
    asm.label("helper").unwrap();
    asm.push(Inst::Op {
        op: IntOp::Xor,
        rd: XReg::A4,
        rs1: XReg::A4,
        rs2: XReg::A0,
    });
    asm.sd(XReg::A2, XReg::A4, 8);
    asm.ret();
    asm.finish().unwrap()
}

fn fabric() -> FabricConfig {
    FabricConfig {
        segment_limit: 400,
        ..FabricConfig::paper()
    }
}

/// Two random shots a few segments apart, placed by `seed`.
fn two_random_shots(seed: u64) -> FaultPlan {
    let first = 2_000 + 1_700 * seed;
    FaultPlan::none()
        .with_seed(seed)
        .then_random_at(first)
        .then_random_at(first + 9_000)
}

/// Runs every seed of one shape to completion and joins the reports
/// into one JSON array.
fn reports(build: impl Fn(u64) -> Scenario) -> String {
    let runs: Vec<String> = SEEDS
        .iter()
        .map(|&seed| {
            let mut run = build(seed).build().expect("valid scenario");
            let report = run.run_to_completion(u64::MAX);
            assert!(report.completed, "seed {seed} must complete");
            report.to_json()
        })
        .collect();
    format!("[\n{}\n]\n", runs.join(",\n"))
}

fn triple(seed: u64) -> Scenario {
    Scenario::new(&kernel(0, 700 + 50 * seed as i64))
        .cores(3)
        .topology(Topology::Custom(vec![(0, vec![1, 2])]))
        .fabric(fabric())
        .fault_plan(two_random_shots(seed))
}

#[test]
fn triple_channel_rollback_matches_golden() {
    let json = reports(|seed| triple(seed).recovery(RecoveryPolicy::Rollback { max_retries: 3 }));
    assert_golden("blocks_triple_rollback.report.json", &json);
}

#[test]
fn triple_channel_detect_matches_golden() {
    assert_golden("blocks_triple_detect.report.json", &reports(triple));
}

#[test]
fn paired_rollback_matches_golden() {
    let json = reports(|seed| {
        Scenario::new(&kernel(0, 800 + 50 * seed as i64))
            .cores(2)
            .fabric(fabric())
            .fault_plan(two_random_shots(seed))
            .recovery(RecoveryPolicy::Rollback { max_retries: 3 })
    });
    assert_golden("blocks_paired_rollback.report.json", &json);
}

#[test]
fn ooo_branch_outcome_shots_match_golden() {
    let json = reports(|seed| {
        let first = 3_000 + 1_300 * seed;
        Scenario::new(&kernel(0, 800))
            .cores(2)
            .fabric(fabric())
            .main_core_model(CoreModelKind::ooo())
            .fault_plan(
                FaultPlan::bit_flip_at(first, FaultTarget::BranchOutcome)
                    .then_bit_flip_at(first + 8_000, FaultTarget::BranchOutcome)
                    .with_seed(seed),
            )
    });
    assert_golden("blocks_ooo_branch.report.json", &json);
}

/// Four mains on a two-checker pool.
fn shared(seed: u64) -> Scenario {
    let mut sc = Scenario::new(&kernel(0, 400 + 30 * seed as i64))
        .cores(6)
        .topology(Topology::SharedChecker { checkers: 2 })
        .fabric(fabric());
    for slot in 1..4 {
        sc = sc.program(&kernel(slot, 300 + 40 * slot as i64));
    }
    sc
}

#[test]
fn shared_pool_pairing_window_and_late_shot_match_golden() {
    let json = reports(|seed| {
        let release = 2_000 + 500 * seed;
        shared(seed)
            .pairing_schedule(PairingSchedule::new().window(1, release, release + 3_000))
            .fault_plan(
                FaultPlan::none()
                    .with_seed(seed)
                    .then_random_at(7_000 + 500 * seed)
                    .on_channel(0),
            )
    });
    assert_golden("blocks_shared_pairing.report.json", &json);
}

#[test]
fn shared_pool_kill_under_rollback_matches_golden() {
    let json = reports(|seed| {
        shared(seed)
            .fault_plan(
                FaultPlan::none()
                    .with_seed(seed)
                    .then_random_at(3_000 + 500 * seed)
                    .on_channel(1)
                    .then_kill_checker_at(8_000 + 1_000 * seed)
                    .on_checker(1),
            )
            .recovery(RecoveryPolicy::Rollback { max_retries: 3 })
    });
    assert_golden("blocks_shared_kill_rollback.report.json", &json);
}

#[test]
fn no_spill_fabric_matches_golden() {
    let json = reports(|seed| {
        Scenario::new(&kernel(0, 600 + 50 * seed as i64))
            .cores(2)
            .fabric(FabricConfig {
                segment_limit: 400,
                ..FabricConfig::paper_strict()
            })
            .fault_plan(FaultPlan::random_with_seed(4_000 + 1_000 * seed, seed))
    });
    assert_golden("blocks_strict.report.json", &json);
}
