//! Core-model equivalence suite (ISSUE 9 acceptance tests).
//!
//! The `CoreModel` trait layer must be invisible for the in-order
//! pipeline: every scenario here pins `RunReport::to_json()` — and, for
//! the paired scenario, the Chrome trace JSON — byte-identical to the
//! goldens generated at the pre-refactor commit (before the
//! `InOrderModel` extraction). Regenerate deliberately with
//! `BLESS_MODEL_GOLDENS=1 cargo test --test model_equivalence` and
//! justify the diff in review; an unexplained diff is a timing or
//! accounting regression, not a formatting nit.
//!
//! Covered scenarios: paired lockstep, shared-checker pool with faults,
//! rollback recovery, and the memo on/off pair (which also re-pins the
//! PR 6 warp-free clock invariant — memo on/off must not merely both
//! complete, but produce the same bytes).

use flexstep::core::{
    FabricConfig, FaultPlan, RecoveryPolicy, ReliabilityMode, Scenario, Topology, VerifiedRun,
};
use flexstep::isa::asm::{Assembler, Program};
use flexstep::isa::XReg;

mod common;
use common::assert_golden;

/// A branchy store/load checksum kernel in a private window per slot —
/// enough control flow and memory traffic to exercise the predictor,
/// the load-use interlock and the DBC log datapath.
fn checksum_job(slot: u64, iters: i64) -> Program {
    let text = 0x1000_0000 + slot * 0x10_0000;
    let data = 0x2000_0000 + slot * 0x10_0000;
    let mut asm = Assembler::with_bases(format!("eq{slot}"), text, data);
    asm.la(XReg::A2, "buf");
    asm.data_label("buf").unwrap();
    asm.data_zeros(64);
    asm.li(XReg::A0, iters);
    asm.li(XReg::A4, 0);
    asm.label("l").unwrap();
    asm.sd(XReg::A2, XReg::A0, 0);
    asm.ld(XReg::A3, XReg::A2, 0);
    asm.add(XReg::A4, XReg::A4, XReg::A3);
    asm.addi(XReg::A0, XReg::A0, -1);
    asm.bnez(XReg::A0, "l");
    asm.ecall();
    asm.finish().unwrap()
}

fn run_report(mut run: VerifiedRun) -> String {
    let report = run.run_to_completion(u64::MAX);
    assert!(report.completed, "equivalence run must complete");
    report.to_json()
}

#[test]
fn paired_lockstep_report_matches_golden() {
    let run = Scenario::new(&checksum_job(0, 700))
        .cores(2)
        .fabric(FabricConfig::paper())
        .build()
        .unwrap();
    assert_golden("goldens/paired.report.json", &run_report(run));
}

#[test]
fn paired_trace_matches_golden() {
    let tmp = std::env::temp_dir().join("flexstep_model_equivalence_unwritten.json");
    let mut run = Scenario::new(&checksum_job(0, 300))
        .cores(2)
        .fabric(FabricConfig::paper())
        .trace_to(tmp)
        .build()
        .unwrap();
    let report = run.run_to_completion(u64::MAX);
    assert!(report.completed);
    let trace = run.trace().expect("trace configured").to_chrome_json();
    assert_golden("goldens/paired.trace.json", &trace);
}

#[test]
fn shared_checker_faulty_report_matches_golden() {
    let programs: Vec<Program> = (0..6).map(|i| checksum_job(i, 500)).collect();
    let mut plan = FaultPlan::none().with_seed(0x9e37);
    for k in 0..3usize {
        plan = plan.then_random_at(3_000 + 4_000 * k as u64).on_channel(k);
    }
    let mut scenario = Scenario::new(&programs[0])
        .cores(8)
        .topology(Topology::SharedChecker { checkers: 2 })
        .fabric(FabricConfig::paper())
        .fault_plan(plan);
    for p in &programs[1..] {
        scenario = scenario.program(p);
    }
    assert_golden(
        "goldens/shared_faulty.report.json",
        &run_report(scenario.build().unwrap()),
    );
}

#[test]
fn rollback_recovery_report_matches_golden() {
    let run = Scenario::new(&checksum_job(0, 900))
        .cores(2)
        .fabric(FabricConfig::paper())
        .fault_plan(FaultPlan::none().with_seed(7).then_random_at(5_000))
        .recovery(RecoveryPolicy::Rollback { max_retries: 3 })
        .build()
        .unwrap();
    assert_golden("goldens/recovery.report.json", &run_report(run));
}

// ---------------------------------------------------------------------------
// Reliability-mode equivalence (ISSUE 10): `SegmentCheck` is the
// pre-mode behavior, so *explicitly* requesting it — via the all-mains
// or the per-slot builder — must reproduce the same goldens byte for
// byte, reports and traces alike. A diff here means the mode layer
// perturbed the default path.
// ---------------------------------------------------------------------------

#[test]
fn explicit_segment_check_report_matches_paired_golden() {
    let run = Scenario::new(&checksum_job(0, 700))
        .cores(2)
        .fabric(FabricConfig::paper())
        .main_reliability_mode(ReliabilityMode::SegmentCheck)
        .build()
        .unwrap();
    assert_golden("goldens/paired.report.json", &run_report(run));
}

#[test]
fn explicit_segment_check_trace_matches_paired_golden() {
    let tmp = std::env::temp_dir().join("flexstep_mode_equivalence_unwritten.json");
    let mut run = Scenario::new(&checksum_job(0, 300))
        .cores(2)
        .fabric(FabricConfig::paper())
        .main_reliability_mode(ReliabilityMode::SegmentCheck)
        .trace_to(tmp)
        .build()
        .unwrap();
    let report = run.run_to_completion(u64::MAX);
    assert!(report.completed);
    let trace = run.trace().expect("trace configured").to_chrome_json();
    assert_golden("goldens/paired.trace.json", &trace);
}

#[test]
fn per_slot_segment_check_report_matches_shared_faulty_golden() {
    let programs: Vec<Program> = (0..6).map(|i| checksum_job(i, 500)).collect();
    let mut plan = FaultPlan::none().with_seed(0x9e37);
    for k in 0..3usize {
        plan = plan.then_random_at(3_000 + 4_000 * k as u64).on_channel(k);
    }
    let mut scenario = Scenario::new(&programs[0])
        .cores(8)
        .topology(Topology::SharedChecker { checkers: 2 })
        .fabric(FabricConfig::paper())
        .fault_plan(plan);
    for p in &programs[1..] {
        scenario = scenario.program(p);
    }
    for slot in 0..6 {
        scenario = scenario.reliability_mode(slot, ReliabilityMode::SegmentCheck);
    }
    assert_golden(
        "goldens/shared_faulty.report.json",
        &run_report(scenario.build().unwrap()),
    );
}

#[test]
fn explicit_segment_check_report_matches_recovery_golden() {
    let run = Scenario::new(&checksum_job(0, 900))
        .cores(2)
        .fabric(FabricConfig::paper())
        .fault_plan(FaultPlan::none().with_seed(7).then_random_at(5_000))
        .recovery(RecoveryPolicy::Rollback { max_retries: 3 })
        .main_reliability_mode(ReliabilityMode::SegmentCheck)
        .build()
        .unwrap();
    assert_golden("goldens/recovery.report.json", &run_report(run));
}

#[test]
fn explicit_segment_check_matches_memo_goldens() {
    let program = checksum_job(0, 600);
    for (memo, golden) in [
        (false, "goldens/memo_off.report.json"),
        (true, "goldens/memo_on.report.json"),
    ] {
        let run = Scenario::new(&program)
            .cores(2)
            .fabric(FabricConfig::paper())
            .memo(memo)
            .main_reliability_mode(ReliabilityMode::SegmentCheck)
            .build()
            .unwrap();
        assert_golden(golden, &run_report(run));
    }
}

#[test]
fn memo_on_and_off_match_goldens_and_each_other() {
    let program = checksum_job(0, 600);
    let reports: Vec<String> = [false, true]
        .iter()
        .map(|&memo| {
            let run = Scenario::new(&program)
                .cores(2)
                .fabric(FabricConfig::paper())
                .memo(memo)
                .build()
                .unwrap();
            run_report(run)
        })
        .collect();
    // The warp-free clock invariant: memoized playback must be
    // byte-identical to full replay, not just "also complete".
    assert_eq!(reports[0], reports[1], "memo on/off must not diverge");
    assert_golden("goldens/memo_off.report.json", &reports[0]);
    assert_golden("goldens/memo_on.report.json", &reports[1]);
}
