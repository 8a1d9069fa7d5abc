//! Simulator-level integration tests: cycle determinism (the foundation
//! of replay-based checking — two executions of the same program must
//! agree bit-for-bit and cycle-for-cycle), timer-interrupt delivery, and
//! multi-core independence.

use flexstep_isa::asm::{Assembler, Program};
use flexstep_isa::XReg;
use flexstep_sim::{PrivMode, Soc, SocConfig, StepKind, TrapCause};

fn mixed_workload(name: &str, iters: i64, slot: u64) -> Program {
    let mut asm = Assembler::with_bases(
        name,
        0x1000_0000 + slot * 0x10_0000,
        0x2000_0000 + slot * 0x10_0000,
    );
    asm.data_label("buf").unwrap();
    asm.data_u64s(&(0..32u64).map(|i| i * 7 + 1).collect::<Vec<_>>());
    asm.la(XReg::A2, "buf");
    asm.li(XReg::A0, iters);
    asm.li(XReg::A4, 0);
    asm.label("l").unwrap();
    asm.ld(XReg::A3, XReg::A2, 0);
    asm.add(XReg::A4, XReg::A4, XReg::A3);
    asm.sd(XReg::A2, XReg::A4, 8);
    asm.push(flexstep_isa::inst::Inst::Op {
        op: flexstep_isa::inst::IntOp::Mul,
        rd: XReg::A5,
        rs1: XReg::A4,
        rs2: XReg::A3,
    });
    asm.addi(XReg::A0, XReg::A0, -1);
    asm.bnez(XReg::A0, "l");
    asm.ecall();
    asm.finish().unwrap()
}

#[test]
fn identical_runs_are_cycle_deterministic() {
    let program = mixed_workload("det", 5_000, 0);
    let run = || {
        let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
        soc.run_to_ecall(&program, 10_000_000);
        let snap = soc.core(0).state.snapshot();
        (soc.now(), soc.core(0).instret, snap)
    };
    let (t1, i1, s1) = run();
    let (t2, i2, s2) = run();
    assert_eq!(t1, t2, "cycle counts must be identical");
    assert_eq!(i1, i2, "retired counts must be identical");
    assert!(
        s1.diff(&s2).is_empty(),
        "final architectural state must be identical"
    );
}

#[test]
fn timer_interrupt_fires_at_or_after_deadline() {
    let program = mixed_workload("tick", 50_000, 0);
    let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
    soc.load_program(&program);
    soc.core_mut(0).state.pc = program.entry;
    soc.core_mut(0).state.prv = PrivMode::User;
    soc.core_mut(0).unpark();
    let deadline = 20_000;
    soc.core_mut(0).set_timer(deadline);

    let mut interrupted_at = None;
    for _ in 0..1_000_000 {
        match soc.step_core(0).kind {
            StepKind::Interrupted { .. } => {
                interrupted_at = Some(soc.now());
                break;
            }
            StepKind::Trap {
                cause: TrapCause::EcallFromU,
                ..
            } => {
                panic!("program finished before the timer fired");
            }
            _ => {}
        }
    }
    let at = interrupted_at.expect("timer must fire");
    assert!(
        at >= deadline,
        "interrupt cannot fire early: {at} < {deadline}"
    );
    assert!(
        at < deadline + 1_000,
        "interrupt latency must be bounded: fired at {at} for deadline {deadline}"
    );

    // After clearing, the program runs to completion uninterrupted.
    soc.core_mut(0).clear_timer();
    let mut finished = false;
    for _ in 0..10_000_000 {
        if let StepKind::Trap {
            cause: TrapCause::EcallFromU,
            ..
        } = soc.step_core(0).kind
        {
            finished = true;
            break;
        }
    }
    assert!(finished, "program must complete after the tick");
}

#[test]
fn cores_execute_independently() {
    // Two cores running different programs must produce exactly the
    // results they produce alone (the caches share an L2, so *timing*
    // may differ slightly, but architectural results may not).
    let pa = mixed_workload("a", 3_000, 0);
    let pb = mixed_workload("b", 4_000, 1);

    let solo = |p: &Program| {
        let mut soc = Soc::new(SocConfig::paper(1)).unwrap();
        soc.run_to_ecall(p, 10_000_000);
        soc.core(0).state.snapshot()
    };
    let sa = solo(&pa);
    let sb = solo(&pb);

    let mut soc = Soc::new(SocConfig::paper(2)).unwrap();
    soc.load_program(&pa);
    soc.load_program(&pb);
    for (core, p) in [(0usize, &pa), (1, &pb)] {
        soc.core_mut(core).state.pc = p.entry;
        soc.core_mut(core).state.prv = PrivMode::User;
        soc.core_mut(core).unpark();
    }
    let mut done = [false; 2];
    for _ in 0..40_000_000u64 {
        let Some(core) = soc.next_ready() else {
            break;
        };
        if let StepKind::Trap {
            cause: TrapCause::EcallFromU,
            ..
        } = soc.step_core(core).kind
        {
            done[core] = true;
            soc.core_mut(core).park();
        }
        if done.iter().all(|&d| d) {
            break;
        }
    }
    assert!(
        done.iter().all(|&d| d),
        "both programs must finish: {done:?}"
    );
    // Register results match the solo runs (pc differs by text base).
    let ma = soc.core(0).state.snapshot();
    let mb = soc.core(1).state.snapshot();
    assert_eq!(ma.xregs[13], sa.xregs[13], "core 0's a3 diverged"); // a3 = x13
    assert_eq!(ma.xregs[14], sa.xregs[14], "core 0's a4 diverged");
    assert_eq!(mb.xregs[14], sb.xregs[14], "core 1's a4 diverged");
}

#[test]
fn run_to_ecall_reports_cycles_monotonically_with_work() {
    let short = mixed_workload("short", 500, 0);
    let long = mixed_workload("long", 5_000, 1);
    let mut s1 = Soc::new(SocConfig::paper(1)).unwrap();
    s1.run_to_ecall(&short, 10_000_000);
    let mut s2 = Soc::new(SocConfig::paper(1)).unwrap();
    s2.run_to_ecall(&long, 10_000_000);
    assert!(
        s2.now() > 5 * s1.now(),
        "10× the iterations must cost clearly more cycles: {} vs {}",
        s1.now(),
        s2.now()
    );
}
