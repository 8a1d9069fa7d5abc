//! Dynamic-configuration integration tests: §II's headline — "any
//! processor core can be configured as either a main core or a checker
//! core" — exercised end to end through the Tab. I operations, plus the
//! teardown preconditions that make runtime reconfiguration safe.

use flexstep_core::{CoreAttr, EngineStep, FabricConfig, FlexError, FlexSoc, Scenario, Topology};
use flexstep_isa::asm::{Assembler, Program};
use flexstep_isa::XReg;
use flexstep_sim::{PrivMode, SocConfig, StepKind, TrapCause};

fn store_loop(name: &str, n: i64, slot: u64) -> Program {
    let mut asm = Assembler::with_bases(
        name,
        0x1000_0000 + slot * 0x10_0000,
        0x2000_0000 + slot * 0x10_0000,
    );
    asm.li(XReg::A0, 0);
    asm.li(XReg::A1, n);
    asm.la(XReg::A2, "buf");
    asm.data_label("buf").unwrap();
    asm.data_zeros(64);
    asm.label("loop").unwrap();
    asm.add(XReg::A0, XReg::A0, XReg::A1);
    asm.sd(XReg::A2, XReg::A0, 0);
    asm.ld(XReg::A3, XReg::A2, 0);
    asm.add(XReg::A4, XReg::A4, XReg::A3);
    asm.addi(XReg::A1, XReg::A1, -1);
    asm.bnez(XReg::A1, "loop");
    asm.ecall();
    asm.finish().unwrap()
}

/// Drives `main` (running `program`) plus `checker` until the program's
/// final `ecall` and a drained stream; returns (segments_checked,
/// segments_failed) on the checker.
fn run_verified(fs: &mut FlexSoc, main: usize, checker: usize, program: &Program) -> (u64, u64) {
    fs.soc.load_program(program);
    fs.soc.core_mut(main).state.pc = program.entry;
    fs.soc.core_mut(main).state.prv = PrivMode::User;
    fs.soc.core_mut(main).unpark();
    fs.soc.core_mut(checker).unpark();
    let before = (
        fs.checker_state(checker).segments_checked,
        fs.checker_state(checker).segments_failed,
    );
    let mut done = false;
    for _ in 0..30_000_000u64 {
        if !done {
            if let EngineStep::Core(StepKind::Trap {
                cause: TrapCause::EcallFromU,
                ..
            }) = fs.step(main)
            {
                done = true;
                fs.soc.core_mut(main).park();
            }
        }
        fs.step(checker);
        if done && fs.fabric.unit(main).fifo.is_empty() {
            break;
        }
    }
    assert!(done, "program must finish");
    (
        fs.checker_state(checker).segments_checked - before.0,
        fs.checker_state(checker).segments_failed - before.1,
    )
}

#[test]
fn roles_swap_between_runs() {
    // Phase 1: core 0 main, core 1 checker.
    let mut fs = FlexSoc::new(SocConfig::paper(2), FabricConfig::paper()).unwrap();
    fs.op_g_configure(&[0], &[1]).unwrap();
    fs.op_m_associate(0, &[1]).unwrap();
    fs.op_m_check(0, true).unwrap();
    fs.op_c_check_state(1, true).unwrap();
    let p1 = store_loop("first", 3_000, 0);
    let (checked, failed) = run_verified(&mut fs, 0, 1, &p1);
    assert!(checked > 0, "phase 1 verified segments");
    assert_eq!(failed, 0);

    // Swap: tear down cleanly, then core 1 main, core 0 checker.
    fs.op_m_check(0, false).unwrap();
    fs.op_c_check_state(1, false).unwrap();
    fs.op_g_configure(&[1], &[0]).unwrap();
    assert_eq!(fs.op_g_ids_contain(0).unwrap(), CoreAttr::Checker);
    assert_eq!(fs.op_g_ids_contain(1).unwrap(), CoreAttr::Main);
    fs.op_m_associate(1, &[0]).unwrap();
    fs.op_m_check(1, true).unwrap();
    fs.op_c_check_state(0, true).unwrap();

    let p2 = store_loop("second", 2_000, 1);
    let (checked, failed) = run_verified(&mut fs, 1, 0, &p2);
    assert!(
        checked > 0,
        "phase 2 verified segments on the swapped roles"
    );
    assert_eq!(failed, 0);
}

#[test]
fn quad_mode_verifies_three_times() {
    // 1:3 — beyond the paper's 1:1 / 1:2 figures, supported by the same
    // multi-consumer FIFO ("one-to-two, or more modes").
    let p = store_loop("quad", 1_500, 0);
    let mut dual = Scenario::new(&p).cores(2).build().unwrap();
    let rd = dual.run_to_completion(50_000_000);
    let mut quad = Scenario::new(&p)
        .cores(4)
        .topology(Topology::Custom(vec![(0, vec![1, 2, 3])]))
        .build()
        .unwrap();
    let rq = quad.run_to_completion(50_000_000);
    assert!(rd.completed && rq.completed);
    assert_eq!(rq.segments_failed, 0);
    assert_eq!(
        rq.segments_checked,
        3 * rd.segments_checked,
        "every segment verified by all three checkers"
    );
    // Wider fan-out may cost more backpressure but must stay bounded.
    assert!(
        rq.main_finish_cycle < rd.main_finish_cycle * 2,
        "quad mode must not collapse throughput: {} vs {}",
        rq.main_finish_cycle,
        rd.main_finish_cycle
    );
}

#[test]
fn reconfiguration_rejected_while_checking_live() {
    let p = store_loop("live", 50_000, 0);
    let mut run = Scenario::new(&p).cores(2).build().unwrap();
    assert!(run.run_until_cycle(20_000), "run must still be live");
    // Checking is enabled on main core 0: role change must be refused.
    let err = run.platform_mut().op_g_configure(&[1], &[0]).unwrap_err();
    assert_eq!(err, FlexError::CheckingEnabled { main: 0 });

    // Disabling checking exposes the next precondition: the undrained
    // stream (data is still buffered for the checker).
    run.platform_mut().op_m_check(0, false).unwrap();
    if !run.fabric().unit(0).fifo.is_empty() {
        let err = run.platform_mut().op_g_configure(&[1], &[0]).unwrap_err();
        assert!(
            matches!(
                err,
                FlexError::StreamNotDrained { main: 0 } | FlexError::CheckerBusy { checker: 1 }
            ),
            "undrained reconfiguration must be refused: {err:?}"
        );
    }
}

#[test]
fn associate_validates_roles_and_ownership() {
    let mut fs = FlexSoc::new(SocConfig::paper(4), FabricConfig::paper()).unwrap();
    fs.op_g_configure(&[0, 2], &[1]).unwrap();
    // Checker list cannot be empty.
    assert_eq!(
        fs.op_m_associate(0, &[]).unwrap_err(),
        FlexError::NoCheckers
    );
    // A compute core is not a checker.
    assert_eq!(
        fs.op_m_associate(0, &[3]).unwrap_err(),
        FlexError::NotChecker { core: 3 }
    );
    // A main core cannot serve as a checker.
    assert_eq!(
        fs.op_m_associate(0, &[2]).unwrap_err(),
        FlexError::NotChecker { core: 2 }
    );
    // First association wins; a second main cannot steal the checker.
    fs.op_m_associate(0, &[1]).unwrap();
    assert_eq!(
        fs.op_m_associate(2, &[1]).unwrap_err(),
        FlexError::CheckerTaken {
            checker: 1,
            current_main: 0
        }
    );
    // Checker-only ops on the wrong attribute.
    assert_eq!(
        fs.op_c_record(0).unwrap_err(),
        FlexError::NotChecker { core: 0 }
    );
    assert_eq!(
        fs.op_c_result(0).unwrap_err(),
        FlexError::NotChecker { core: 0 }
    );
}

#[test]
#[allow(clippy::needless_range_loop)] // `core` is a core id, not just an index
fn compute_cores_run_unchecked_alongside_verification() {
    // 4 cores: 0 verified by 1; cores 2 and 3 are plain compute running
    // their own programs with zero FlexStep involvement.
    let mut fs = FlexSoc::new(SocConfig::paper(4), FabricConfig::paper()).unwrap();
    fs.op_g_configure(&[0], &[1]).unwrap();
    fs.op_m_associate(0, &[1]).unwrap();
    fs.op_m_check(0, true).unwrap();
    fs.op_c_check_state(1, true).unwrap();

    let pv = store_loop("verified", 2_000, 0);
    let pc2 = store_loop("compute2", 1_000, 1);
    let pc3 = store_loop("compute3", 1_200, 2);
    fs.soc.load_program(&pv);
    fs.soc.load_program(&pc2);
    fs.soc.load_program(&pc3);
    for (core, p) in [(0usize, &pv), (2, &pc2), (3, &pc3)] {
        fs.soc.core_mut(core).state.pc = p.entry;
        fs.soc.core_mut(core).state.prv = PrivMode::User;
        fs.soc.core_mut(core).unpark();
    }
    fs.soc.core_mut(1).unpark();

    let mut finished = [false; 4];
    finished[1] = true; // the checker has no program of its own
    for _ in 0..20_000_000u64 {
        for core in 0..4 {
            if finished[core] && core != 1 {
                continue;
            }
            if let EngineStep::Core(StepKind::Trap {
                cause: TrapCause::EcallFromU,
                ..
            }) = fs.step(core)
            {
                finished[core] = true;
                fs.soc.core_mut(core).park();
            }
        }
        if finished.iter().all(|&f| f) && fs.fabric.unit(0).fifo.is_empty() {
            break;
        }
    }
    assert!(
        finished.iter().all(|&f| f),
        "all programs finish: {finished:?}"
    );
    assert_eq!(fs.checker_state(1).segments_failed, 0);
    assert!(fs.checker_state(1).segments_checked > 0);
    // Compute cores never produced checking traffic.
    assert_eq!(fs.fabric.unit(2).fifo.total_pushed(), 0);
    assert_eq!(fs.fabric.unit(3).fifo.total_pushed(), 0);
}
