//! Kernel integration tests: preemptive partitioned EDF with FlexStep
//! verification — including a Fig. 1(c)-shaped scenario where
//! asynchronous, preemptible checking lets every deadline be met.

use flexstep_core::FabricConfig;
use flexstep_isa::asm::{Assembler, Program};
use flexstep_isa::XReg;
use flexstep_kernel::task::{TaskBody, TaskClass, TaskDef, TaskId};
use flexstep_kernel::{KernelConfig, System, TraceEvent};
use flexstep_sim::SocConfig;
use std::sync::Arc;

/// A busy-loop program of roughly `iters * 3` user instructions, placed
/// at a caller-chosen text base so multiple tasks can coexist in memory.
fn spin_program(name: &str, iters: i64, slot: u64) -> Arc<Program> {
    let text = 0x1000_0000 + slot * 0x10_0000;
    let data = 0x2000_0000 + slot * 0x10_0000;
    let mut asm = Assembler::with_bases(name, text, data);
    asm.li(XReg::A0, iters);
    asm.la(XReg::A2, "buf");
    asm.data_label("buf").unwrap();
    asm.data_zeros(64);
    asm.label("l").unwrap();
    asm.sd(XReg::A2, XReg::A0, 0);
    asm.addi(XReg::A0, XReg::A0, -1);
    asm.bnez(XReg::A0, "l");
    asm.ecall();
    Arc::new(asm.finish().unwrap())
}

#[allow(clippy::too_many_arguments)] // mirrors TaskDef field-for-field
fn guest(
    id: u32,
    name: &str,
    program: Arc<Program>,
    class: TaskClass,
    period: u64,
    phase: u64,
    core: usize,
    checkers: Vec<usize>,
    max_jobs: u64,
) -> TaskDef {
    TaskDef {
        id: TaskId(id),
        name: name.into(),
        class,
        body: TaskBody::Guest(program),
        period,
        phase,
        core,
        checkers,
        max_jobs: Some(max_jobs),
    }
}

#[test]
fn two_normal_tasks_share_a_core_by_edf() {
    let mut sys = System::new(
        SocConfig::paper(1),
        FabricConfig::paper(),
        KernelConfig::default(),
    );
    // Short-period task must preempt the long-period one.
    let short = spin_program("short", 2_000, 0);
    let long = spin_program("long", 40_000, 1);
    sys.add_task(guest(
        1,
        "short",
        short,
        TaskClass::Normal,
        100_000,
        0,
        0,
        vec![],
        5,
    ))
    .unwrap();
    sys.add_task(guest(
        2,
        "long",
        long,
        TaskClass::Normal,
        600_000,
        0,
        0,
        vec![],
        1,
    ))
    .unwrap();
    sys.boot().unwrap();
    let summary = sys.run_until(1_000_000);
    assert_eq!(summary.task(TaskId(1)).unwrap().completed, 5);
    assert_eq!(summary.task(TaskId(2)).unwrap().completed, 1);
    assert_eq!(summary.total_misses(), 0);
    // The long task must have been preempted at least once.
    let preempts = sys
        .trace
        .events()
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                TraceEvent::Preempt {
                    task: TaskId(2),
                    ..
                }
            )
        })
        .count();
    assert!(
        preempts >= 1,
        "EDF must preempt the long job, got {preempts} preemptions"
    );
}

#[test]
fn verified_task_verifies_all_segments() {
    let mut sys = System::new(
        SocConfig::paper(2),
        FabricConfig::paper(),
        KernelConfig::default(),
    );
    let p = spin_program("v", 30_000, 0);
    sys.add_task(guest(
        1,
        "v",
        p,
        TaskClass::Verified2,
        2_000_000,
        0,
        0,
        vec![1],
        2,
    ))
    .unwrap();
    sys.boot().unwrap();
    let summary = sys.run_until(4_500_000);
    let t = summary.task(TaskId(1)).unwrap();
    assert_eq!(t.completed, 2);
    assert_eq!(summary.total_misses(), 0);
    assert!(summary.detections.is_empty(), "clean run must not detect");
    // The checker verified segments.
    let checker = sys.checker_state(1);
    assert!(checker.segments_checked > 0);
    assert_eq!(checker.segments_failed, 0);
    // The checker-thread jobs completed too.
    let ct = sys.checker_thread_of(TaskId(1), 1).unwrap();
    assert_eq!(summary.task(ct).unwrap().completed, 2);
}

#[test]
fn triple_check_uses_two_checkers() {
    let mut sys = System::new(
        SocConfig::paper(3),
        FabricConfig::paper(),
        KernelConfig::default(),
    );
    let p = spin_program("v3", 20_000, 0);
    sys.add_task(guest(
        1,
        "v3",
        p,
        TaskClass::Verified3,
        3_000_000,
        0,
        0,
        vec![1, 2],
        1,
    ))
    .unwrap();
    sys.boot().unwrap();
    let summary = sys.run_until(3_000_000);
    assert_eq!(summary.task(TaskId(1)).unwrap().completed, 1);
    assert_eq!(summary.total_misses(), 0);
    let c1 = sys.checker_state(1).segments_checked;
    let c2 = sys.checker_state(2).segments_checked;
    assert!(
        c1 > 0 && c1 == c2,
        "both checkers verify the same stream: {c1} vs {c2}"
    );
}

#[test]
fn fig1c_emergency_scenario_meets_deadlines() {
    // The Fig. 1(c) shape: τ1 and τ3 are non-verification tasks, τ2's
    // job requires checking. With FlexStep, τ1 runs on core 0, τ2's
    // verification runs asynchronously on core 1 and can be preempted by
    // τ3 — everyone meets their deadlines.
    let clock_ms = 1_600_000u64; // 1 ms at 1.6 GHz
    let mut sys = System::new(
        SocConfig::paper(2),
        FabricConfig::paper(),
        KernelConfig::default(),
    );
    let t1 = spin_program("t1", 150_000, 0); // ~"WCET 15"
    let t2 = spin_program("t2", 150_000, 1); // ~"WCET 15", verified
    let t3 = spin_program("t3", 50_000, 2); // ~"WCET 5"
    sys.add_task(guest(
        1,
        "t1",
        t1,
        TaskClass::Normal,
        2 * clock_ms,
        0,
        0,
        vec![],
        3,
    ))
    .unwrap();
    sys.add_task(guest(
        2,
        "t2",
        t2,
        TaskClass::Verified2,
        5 * clock_ms,
        0,
        0,
        vec![1],
        1,
    ))
    .unwrap();
    sys.add_task(guest(
        3,
        "t3",
        t3,
        TaskClass::Normal,
        2 * clock_ms,
        0,
        1,
        vec![],
        3,
    ))
    .unwrap();
    sys.boot().unwrap();
    let summary = sys.run_until(7 * clock_ms);
    assert_eq!(
        summary.total_misses(),
        0,
        "FlexStep schedule must meet all deadlines"
    );
    assert_eq!(summary.task(TaskId(1)).unwrap().completed, 3);
    assert_eq!(summary.task(TaskId(2)).unwrap().completed, 1);
    assert_eq!(summary.task(TaskId(3)).unwrap().completed, 3);
    assert_eq!(sys.checker_state(1).segments_failed, 0);
    assert!(sys.checker_state(1).segments_checked > 0, "τ2 was verified");
}

#[test]
fn add_task_validates_configuration() {
    let mut sys = System::new(
        SocConfig::paper(2),
        FabricConfig::paper(),
        KernelConfig::default(),
    );
    let p = spin_program("x", 100, 0);
    // Core out of range.
    assert!(sys
        .add_task(guest(
            1,
            "x",
            p.clone(),
            TaskClass::Normal,
            1000,
            0,
            7,
            vec![],
            1
        ))
        .is_err());
    // Verified without checkers.
    assert!(sys
        .add_task(guest(
            2,
            "x",
            p.clone(),
            TaskClass::Verified2,
            1000,
            0,
            0,
            vec![],
            1
        ))
        .is_err());
    // Triple-check with only one checker.
    assert!(sys
        .add_task(guest(
            3,
            "x",
            p.clone(),
            TaskClass::Verified3,
            1000,
            0,
            0,
            vec![1],
            1
        ))
        .is_err());
    // Valid, then duplicate id.
    sys.add_task(guest(
        4,
        "x",
        p.clone(),
        TaskClass::Normal,
        1000,
        0,
        0,
        vec![],
        1,
    ))
    .unwrap();
    assert!(sys
        .add_task(guest(4, "x", p, TaskClass::Normal, 1000, 0, 0, vec![], 1))
        .is_err());
}

#[test]
fn overloaded_core_misses_deadlines() {
    let mut sys = System::new(
        SocConfig::paper(1),
        FabricConfig::paper(),
        KernelConfig::default(),
    );
    // A job that takes far longer than its period.
    let p = spin_program("hog", 400_000, 0);
    sys.add_task(guest(
        1,
        "hog",
        p,
        TaskClass::Normal,
        200_000,
        0,
        0,
        vec![],
        3,
    ))
    .unwrap();
    sys.boot().unwrap();
    let summary = sys.run_until(3_000_000);
    assert!(
        summary.task(TaskId(1)).unwrap().misses > 0,
        "overload must miss deadlines"
    );
}
