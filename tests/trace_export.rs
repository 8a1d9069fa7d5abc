//! Trace-exporter validation (ISSUE 5 acceptance tests).
//!
//! - **Golden file**: a deterministic 2-core run with one targeted
//!   fault must serialise to byte-identical Chrome `trace_event` JSON
//!   across runs *and* against the checked-in fixture
//!   (`tests/fixtures/trace_dual_core.trace.json`). Any intentional
//!   change to the trace format must update the fixture (regenerate
//!   with `BLESS_MODEL_GOLDENS=1 cargo test --test trace_export`).
//! - **Span well-formedness**: across a family of scenarios (clean,
//!   faulty, shared-checker, truncated), every opened span is closed
//!   (only `ph: "X"` complete events are emitted, with `dur >= 0`) and
//!   spans on one `tid` lane never overlap — the invariant that makes
//!   the `chrome://tracing` rendering truthful.

use flexstep::core::{
    FabricConfig, FaultPlan, FaultTarget, RecoveryPolicy, Scenario, Topology, VerifiedRun,
};
use flexstep::isa::asm::{Assembler, Program};
use flexstep::isa::XReg;

mod common;
use common::assert_golden;

/// `trace_to` requires a destination path, but these tests read the
/// recorder back via [`VerifiedRun::trace`] and never call
/// `write_trace` — the path is never created.
fn unwritten() -> std::path::PathBuf {
    std::env::temp_dir().join("flexstep_trace_export_unwritten.json")
}

fn trace_json(run: &VerifiedRun) -> String {
    run.trace().expect("trace_to configured").to_chrome_json()
}

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

/// A private-window job for multi-main scenarios.
fn job(slot: u64, iters: i64) -> Program {
    let text = 0x1000_0000 + slot * 0x10_0000;
    let data = 0x2000_0000 + slot * 0x10_0000;
    let mut asm = Assembler::with_bases(format!("job{slot}"), text, data);
    asm.li(XReg::A0, iters);
    asm.li(XReg::A1, data as i64);
    asm.label("l").unwrap();
    asm.sd(XReg::A1, XReg::A0, 0);
    asm.addi(XReg::A0, XReg::A0, -1);
    asm.bnez(XReg::A0, "l");
    asm.ecall();
    asm.finish().unwrap()
}

/// The fixture scenario: 2 cores, one targeted data flip, run to
/// completion. Fully deterministic.
fn dual_core_trace_json() -> String {
    let mut run = Scenario::new(&store_loop(4000))
        .cores(2)
        .fabric(FabricConfig::paper())
        .fault_plan(FaultPlan::bit_flip_at(20_000, FaultTarget::EntryData).with_seed(3))
        .trace_to(unwritten())
        .build()
        .expect("valid scenario");
    let report = run.run_to_completion(50_000_000);
    assert!(report.completed);
    assert_eq!(report.injections.len(), 1, "the flip must land");
    trace_json(&run)
}

#[test]
fn dual_core_trace_is_byte_stable_and_matches_the_golden_file() {
    let first = dual_core_trace_json();
    let second = dual_core_trace_json();
    assert_eq!(first, second, "trace serialisation must be deterministic");
    assert_golden("trace_dual_core.trace.json", &first);
}

// ---------------------------------------------------------------------------
// Span well-formedness over a scenario family
// ---------------------------------------------------------------------------

/// Extracts the numeric value following `"key": ` on one event line.
fn field_f64(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Parses the one-event-per-line trace document into `ph: "X"` spans
/// `(tid, ts, dur)`, and counts instants.
fn parse_spans(json: &str) -> (Vec<(u64, f64, f64)>, usize) {
    let mut spans = Vec::new();
    let mut instants = 0;
    for line in json.lines() {
        if line.contains("\"ph\": \"X\"") {
            let tid = field_f64(line, "tid").expect("span has tid") as u64;
            let ts = field_f64(line, "ts").expect("span has ts");
            let dur = field_f64(line, "dur").expect("span has dur");
            spans.push((tid, ts, dur));
        } else if line.contains("\"ph\": \"i\"") {
            instants += 1;
        }
    }
    (spans, instants)
}

fn assert_wellformed(json: &str, what: &str) {
    let (spans, _instants) = parse_spans(json);
    assert!(!spans.is_empty(), "{what}: a run must produce spans");
    // Every span closed with a non-negative duration.
    for &(tid, ts, dur) in &spans {
        assert!(ts >= 0.0 && dur >= 0.0, "{what}: bad span on tid {tid}");
    }
    // Spans on one lane never overlap.
    let mut by_tid: std::collections::BTreeMap<u64, Vec<(f64, f64)>> = Default::default();
    for &(tid, ts, dur) in &spans {
        by_tid.entry(tid).or_default().push((ts, ts + dur));
    }
    for (tid, lane) in &mut by_tid {
        lane.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for w in lane.windows(2) {
            assert!(
                w[1].0 >= w[0].1 - 1e-9,
                "{what}: overlapping spans on tid {tid}: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn spans_are_closed_and_lanes_never_overlap_across_scenarios() {
    // Clean dual-core.
    {
        let mut run = Scenario::new(&store_loop(800))
            .cores(2)
            .trace_to(unwritten())
            .build()
            .unwrap();
        assert!(run.run_to_completion(10_000_000).completed);
        assert_wellformed(&trace_json(&run), "clean dual-core");
    }
    // Shared-checker SoC with random fault plans over several seeds.
    for seed in 0..4u64 {
        let plan = FaultPlan::none()
            .then_random_at(3_000)
            .on_channel(0)
            .then_random_at(9_000)
            .on_channel(2)
            .with_seed(seed);
        let mut run = Scenario::new(&job(0, 700))
            .program(&job(1, 500))
            .program(&job(2, 600))
            .cores(4)
            .topology(Topology::SharedChecker { checkers: 1 })
            .fault_plan(plan)
            .trace_to(unwritten())
            .build()
            .unwrap();
        assert!(run.run_to_completion(50_000_000).completed);
        assert_wellformed(&trace_json(&run), &format!("shared-checker seed {seed}"));
    }
    // Truncated run: stop mid-flight; open spans must still be closed
    // in the serialisation (flagged truncated).
    {
        let mut run = Scenario::new(&store_loop(5_000))
            .cores(2)
            .trace_to(unwritten())
            .build()
            .unwrap();
        assert!(run.run_until_cycle(8_000), "must still be live");
        let json = trace_json(&run);
        assert!(
            json.contains("\"truncated\": true"),
            "a mid-segment stop leaves an open span to truncate"
        );
        assert_wellformed(&json, "truncated dual-core");
    }
    // Rollback recovery: the detect -> verified-again window renders as
    // a "recovery" span, and a killed checker as an instant, without
    // breaking lane discipline.
    {
        let plan = FaultPlan::bit_flip_at(4_000, FaultTarget::EntryData)
            .with_seed(5)
            .then_kill_checker_at(9_000)
            .on_checker(1);
        let mut run = Scenario::new(&job(0, 4_000))
            .program(&job(1, 4_000))
            .cores(4)
            .topology(Topology::SharedChecker { checkers: 2 })
            .fault_plan(plan)
            .recovery(RecoveryPolicy::Rollback { max_retries: 3 })
            .trace_to(unwritten())
            .build()
            .unwrap();
        let report = run.run_to_completion(100_000_000);
        assert!(report.completed);
        let json = trace_json(&run);
        if !report.detections.is_empty() {
            assert!(
                json.contains("\"cat\": \"recovery\""),
                "a recovered detection must render a recovery span"
            );
        }
        assert_eq!(report.checkers_lost, 1);
        assert!(
            json.contains("\"killed\""),
            "the kill shot must render an instant"
        );
        assert_wellformed(&json, "rollback recovery");
    }
}

#[test]
fn bounded_trace_caps_the_event_count() {
    let mut run = Scenario::new(&store_loop(4_000))
        .cores(2)
        .trace_to_bounded(unwritten(), 8)
        .build()
        .unwrap();
    assert!(run.run_to_completion(50_000_000).completed);
    let t = run.trace().expect("trace_to configured");
    assert_eq!(t.len(), 8, "ring keeps exactly the capacity");
    assert!(t.dropped() > 0, "a long run must evict");
    assert_wellformed(&t.to_chrome_json(), "bounded dual-core");
}

#[test]
fn scenario_trace_to_writes_the_file_end_to_end() {
    let dir = std::env::temp_dir().join("flexstep_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dual.trace.json");
    let mut run = Scenario::new(&store_loop(600))
        .cores(2)
        .trace_to(&path)
        .build()
        .unwrap();
    assert!(run.run_to_completion(10_000_000).completed);
    let written = run.write_trace().unwrap().expect("tracing configured");
    assert_eq!(written, path);
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.starts_with("{\"traceEvents\": ["));
    assert_wellformed(&json, "trace_to end-to-end");
    std::fs::remove_file(&path).ok();
}
