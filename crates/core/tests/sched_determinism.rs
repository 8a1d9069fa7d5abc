//! The event-queue scheduler must be *bit-for-bit* interchangeable with
//! the seed's linear scan: both pick the same core at every step (same
//! `(ready_at, id)` order, same tie-breaks), so verified runs produce
//! identical reports — cycle counts included — under either engine.
//!
//! This is the safety net for the O(log n) ready queue: any divergence in
//! pick order would change interleaving, segment boundaries and cycle
//! accounting, and show up here immediately.

use flexstep_core::{FabricConfig, RunReport, Scenario, Topology};
use flexstep_isa::asm::{Assembler, Program};
use flexstep_isa::XReg;
use flexstep_sim::SchedMode;

/// The store-loop workload of the harness tests: loads, stores and ALU
/// ops in a tight loop — every packet class flows through the DBC.
fn store_loop(n: i64) -> Program {
    let mut asm = Assembler::new("store_loop");
    asm.li(XReg::A0, 0);
    asm.li(XReg::A1, n);
    asm.li(XReg::A2, 0x2000_0000);
    asm.li(XReg::A4, 0);
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

fn run_with(
    program: &Program,
    fabric: FabricConfig,
    checkers: usize,
    mode: SchedMode,
) -> RunReport {
    let mut run = Scenario::new(program)
        .cores(1 + checkers)
        .topology(Topology::Custom(vec![(0, (1..=checkers).collect())]))
        .fabric(fabric)
        .build()
        .expect("setup");
    run.platform_mut().soc.set_sched_mode(mode);
    let report = run.run_to_completion(100_000_000);
    assert!(report.completed, "run must finish under {mode:?}");
    report
}

fn assert_identical(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.completed, b.completed, "{what}: completed");
    assert_eq!(
        a.main_finish_cycle, b.main_finish_cycle,
        "{what}: main_finish_cycle"
    );
    assert_eq!(a.drain_cycle, b.drain_cycle, "{what}: drain_cycle");
    assert_eq!(a.retired, b.retired, "{what}: retired");
    assert_eq!(
        a.segments_checked, b.segments_checked,
        "{what}: segments_checked"
    );
    assert_eq!(
        a.segments_failed, b.segments_failed,
        "{what}: segments_failed"
    );
    assert_eq!(
        a.backpressure_stalls, b.backpressure_stalls,
        "{what}: backpressure_stalls"
    );
    assert_eq!(a.engine_steps, b.engine_steps, "{what}: engine_steps");
}

#[test]
fn heap_scheduler_matches_linear_scan_dual_core() {
    let p = store_loop(2000);
    let ev = run_with(&p, FabricConfig::paper(), 1, SchedMode::EventQueue);
    let scan = run_with(&p, FabricConfig::paper(), 1, SchedMode::LinearScan);
    assert!(ev.segments_checked >= 2, "workload spans segments");
    assert_identical(&ev, &scan, "dual-core paper config");
}

#[test]
fn heap_scheduler_matches_linear_scan_triple_core() {
    let p = store_loop(800);
    let ev = run_with(&p, FabricConfig::paper(), 2, SchedMode::EventQueue);
    let scan = run_with(&p, FabricConfig::paper(), 2, SchedMode::LinearScan);
    assert_identical(&ev, &scan, "triple-core paper config");
}

#[test]
fn heap_scheduler_matches_linear_scan_under_backpressure() {
    // A strict (no-spill) configuration with a deliberately tiny SRAM
    // exercises the backpressure path, where the main core's stall/retry
    // cadence is scheduler sensitive — the reports must still agree
    // exactly.
    let fabric = FabricConfig {
        fifo_entry_bytes: 160,
        ..FabricConfig::paper_strict()
    };
    let p = store_loop(1200);
    let ev = run_with(&p, fabric, 1, SchedMode::EventQueue);
    let scan = run_with(&p, fabric, 1, SchedMode::LinearScan);
    assert!(
        ev.backpressure_stalls > 0,
        "strict config must exercise backpressure"
    );
    assert_identical(&ev, &scan, "dual-core strict config");
}
