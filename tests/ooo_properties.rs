//! Out-of-order main properties (ISSUE 9 satellite).
//!
//! The OoO superscalar main changes *timing only*: the architectural
//! stream (checkpoints, log entries, instruction counts) is the same
//! serial program order, plus per-branch forwarded outcomes. These
//! tests pin the safety invariants that must survive the model swap:
//!
//! - an OoO main checked by an in-order checker verifies clean,
//! - the fault-injection bookkeeping obeys `detected <= landed <= armed`,
//! - memo on/off stays byte-identical (the PR 6 warp-free clock
//!   invariant) even when the stream carries `Branch` packets,
//! - the checker replays at IPC >= the main's (it skips prediction by
//!   consuming forwarded outcomes, so it can keep up with a wide main).

use flexstep::core::{CoreModelKind, FabricConfig, FaultPlan, Scenario, ScenarioError};
use flexstep::isa::asm::{Assembler, Program};
use flexstep::isa::XReg;
use proptest::prelude::*;

/// A branchy store/load checksum kernel with a slab of independent ALU
/// work per iteration — enough instruction-level parallelism for a wide
/// main to run ahead of 1 IPC, and enough data-dependent control flow
/// and memory traffic to exercise outcome forwarding and the log.
fn ilp_job(slot: u64, iters: i64) -> Program {
    let text = 0x1000_0000 + slot * 0x10_0000;
    let data = 0x2000_0000 + slot * 0x10_0000;
    let mut asm = Assembler::with_bases(format!("ooo{slot}"), text, data);
    asm.la(XReg::A2, "buf");
    asm.data_label("buf").unwrap();
    asm.data_zeros(64);
    asm.li(XReg::A0, iters);
    asm.li(XReg::A4, 0);
    asm.li(XReg::A5, 1);
    asm.li(XReg::A6, 2);
    asm.li(XReg::A7, 3);
    asm.label("l").unwrap();
    asm.sd(XReg::A2, XReg::A0, 0);
    asm.ld(XReg::A3, XReg::A2, 0);
    // Independent ALU slab: no cross-dependencies, so a 4-wide window
    // can retire these alongside the load shadow.
    asm.add(XReg::A5, XReg::A5, XReg::A5);
    asm.add(XReg::A6, XReg::A6, XReg::A6);
    asm.add(XReg::A7, XReg::A7, XReg::A7);
    asm.add(XReg::A4, XReg::A4, XReg::A3);
    asm.addi(XReg::A0, XReg::A0, -1);
    asm.bnez(XReg::A0, "l");
    asm.ecall();
    asm.finish().unwrap()
}

#[test]
fn ooo_main_with_inorder_checker_verifies_clean() {
    let mut run = Scenario::new(&ilp_job(0, 500))
        .cores(2)
        .fabric(FabricConfig::paper())
        .main_core_model(CoreModelKind::ooo())
        .build()
        .unwrap();
    let report = run.run_to_completion(u64::MAX);
    assert!(report.completed);
    assert_eq!(report.segments_failed, 0, "{:?}", report.detections);
    assert!(report.detections.is_empty());
    assert!(report.segments_checked > 0);
}

#[test]
fn ooo_main_outruns_inorder_main() {
    let program = ilp_job(0, 500);
    let ipc_of = |kind: CoreModelKind| {
        let mut run = Scenario::new(&program)
            .cores(2)
            .fabric(FabricConfig::paper())
            .main_core_model(kind)
            .build()
            .unwrap();
        let report = run.run_to_completion(u64::MAX);
        assert!(report.completed);
        assert_eq!(report.segments_failed, 0);
        run.soc().core(0).ipc()
    };
    let inorder = ipc_of(CoreModelKind::InOrder);
    let ooo = ipc_of(CoreModelKind::ooo());
    assert!(
        ooo > inorder,
        "OoO main must beat the in-order pipeline on ILP-rich code: \
         ooo {ooo:.3} vs in-order {inorder:.3}"
    );
}

/// A cache-hostile kernel: strided loads walking a buffer much larger
/// than the L1, with a data-dependent branch per element. The main —
/// in-order or OoO — stalls on misses and mispredicts; the checker
/// replays the same instructions against the *log* (no memory latency)
/// with forwarded outcomes (no prediction), so its replay IPC stays
/// near 1 while the main's sustained IPC drops below it.
fn membound_job(slot: u64, iters: i64) -> Program {
    let text = 0x1000_0000 + slot * 0x10_0000;
    let data = 0x2000_0000 + slot * 0x10_0000;
    let mut asm = Assembler::with_bases(format!("mem{slot}"), text, data);
    asm.la(XReg::A2, "buf");
    asm.data_label("buf").unwrap();
    asm.data_zeros(64 * 1024);
    asm.li(XReg::A0, iters);
    asm.li(XReg::A4, 0);
    asm.li(XReg::A5, 0);
    asm.label("l").unwrap();
    // Stride one cache line per iteration, wrapping at 64 KiB.
    asm.ld(XReg::A3, XReg::A2, 0);
    asm.addi(XReg::A2, XReg::A2, 64);
    asm.add(XReg::A4, XReg::A4, XReg::A3);
    // Data-dependent branch on the loaded value.
    asm.bnez(XReg::A3, "s");
    asm.addi(XReg::A4, XReg::A4, 1);
    asm.label("s").unwrap();
    asm.addi(XReg::A0, XReg::A0, -1);
    asm.bnez(XReg::A0, "l");
    asm.ecall();
    asm.finish().unwrap()
}

#[test]
fn checker_ipc_keeps_up_with_ooo_main() {
    let mut run = Scenario::new(&membound_job(0, 600))
        .cores(2)
        .fabric(FabricConfig::paper())
        .main_core_model(CoreModelKind::ooo())
        .build()
        .unwrap();
    let report = run.run_to_completion(u64::MAX);
    assert!(report.completed);
    assert_eq!(report.segments_failed, 0);
    let main_ipc = run.soc().core(0).ipc();
    let checker_ipc = run.soc().core(1).ipc();
    // Log-backed replay skips the main's cache misses, and forwarded
    // branch outcomes skip prediction; on memory-bound code the checker
    // must not fall behind the main it checks, or lag would grow
    // without bound (§IV sizing).
    assert!(
        checker_ipc >= main_ipc,
        "checker {checker_ipc:.3} IPC vs main {main_ipc:.3} IPC"
    );
}

#[test]
fn heterogeneous_slots_mix_models() {
    let mut run = Scenario::new(&ilp_job(0, 300))
        .program(&ilp_job(1, 300))
        .cores(4)
        .fabric(FabricConfig::paper())
        .core_model(0, CoreModelKind::ooo())
        .build()
        .unwrap();
    let report = run.run_to_completion(u64::MAX);
    assert!(report.completed);
    assert_eq!(report.segments_failed, 0);
    assert_eq!(run.soc().core(0).model_kind(), CoreModelKind::ooo());
    assert_eq!(run.soc().core(2).model_kind(), CoreModelKind::InOrder);
}

#[test]
fn model_slot_out_of_range_is_rejected() {
    let err = Scenario::new(&ilp_job(0, 10))
        .cores(2)
        .core_model(3, CoreModelKind::ooo())
        .build()
        .unwrap_err();
    assert!(matches!(
        err,
        ScenarioError::ModelSlotOutOfRange { slot: 3, mains: 1 }
    ));
}

#[test]
fn injected_faults_on_ooo_stream_are_detected() {
    let mut plan = FaultPlan::none().with_seed(0xD0C5);
    for k in 0..4u64 {
        plan = plan.then_random_at(2_000 + 3_000 * k);
    }
    let mut run = Scenario::new(&ilp_job(0, 800))
        .cores(2)
        .fabric(FabricConfig::paper())
        .main_core_model(CoreModelKind::ooo())
        .fault_plan(plan)
        .build()
        .unwrap();
    let report = run.run_to_completion(u64::MAX);
    assert!(report.completed);
    let detected = report.detections.len() as u64;
    let landed = report.injections.len() as u64;
    assert!(landed > 0, "faults must land on a live OoO stream");
    assert!(detected <= landed && landed <= report.shots_armed);
    assert!(detected > 0, "a corrupted OoO stream must be caught");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any OoO shape x fault schedule keeps the detection ledger
    /// consistent: `detected <= landed <= armed`.
    #[test]
    fn detection_ledger_is_monotone(
        width in 2u8..=6,
        rob_log in 2u32..=6,
        iters in 100i64..600,
        seed in 0u64..u64::MAX,
        shots in 0usize..4,
    ) {
        let mut plan = FaultPlan::none().with_seed(seed);
        for k in 0..shots {
            plan = plan.then_random_at(1_500 + 2_500 * k as u64);
        }
        let kind = CoreModelKind::OooSuperscalar {
            width,
            rob: 1 << rob_log,
        };
        let mut run = Scenario::new(&ilp_job(0, iters))
            .cores(2)
            .fabric(FabricConfig::paper())
            .main_core_model(kind)
            .fault_plan(plan)
            .build()
            .unwrap();
        let report = run.run_to_completion(u64::MAX);
        prop_assert!(report.completed);
        let detected = report.detections.len() as u64;
        let landed = report.injections.len() as u64;
        prop_assert!(detected <= landed);
        prop_assert!(landed <= report.shots_armed);
    }

    /// The warp-free clock invariant holds for Branch-packet streams:
    /// a served memo hit on an OoO-main segment is byte-identical to
    /// full replay.
    #[test]
    fn memo_on_off_identical_for_ooo_mains(
        width in 2u8..=6,
        iters in 100i64..500,
    ) {
        let kind = CoreModelKind::OooSuperscalar { width, rob: 32 };
        let program = ilp_job(0, iters);
        let mut reports = [false, true].iter().map(|&memo| {
            let mut run = Scenario::new(&program)
                .cores(2)
                .fabric(FabricConfig::paper())
                .main_core_model(kind)
                .memo(memo)
                .build()
                .unwrap();
            let report = run.run_to_completion(u64::MAX);
            prop_assert!(report.completed);
            prop_assert_eq!(report.segments_failed, 0);
            Ok(report.to_json())
        });
        let off = reports.next().unwrap()?;
        let on = reports.next().unwrap()?;
        prop_assert_eq!(off, on, "memo on/off diverged for an OoO main");
    }
}
