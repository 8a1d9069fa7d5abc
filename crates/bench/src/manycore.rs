//! Many-core (Fig. 8-style) shared-checker experiments.
//!
//! The paper's Fig. 8 scales the FlexStep SoC model to 32 cores; the
//! ROADMAP asks for experiments that actually *simulate* 16–64 core
//! SoCs. This module runs them through the [`Scenario`] front door: `n`
//! cores split into main cores and a pool of §III-C arbitrated shared
//! checkers, every main running its own workload in a private address
//! window, with a declarative fault plan spraying bit flips across the
//! streams. Each row reports detection latency and the wall-clock
//! scheduler throughput.

use crate::{FabricConfig, FaultPlan, Scenario, Topology};
use flexstep_core::json::JsonObject;
use flexstep_core::{RunReport, ScenarioError};
use flexstep_isa::asm::{Assembler, Program};
use flexstep_isa::XReg;
use flexstep_sim::{Clock, CoreModelKind};
use flexstep_soc::{CheckerTier, CHECKER_TIERS};
use std::time::Instant;

/// One many-core experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct ManyCoreConfig {
    /// Total cores in the SoC.
    pub cores: usize,
    /// Cores per shared checker (4 → a 16-core SoC gets 4 checkers
    /// serving 12 mains).
    pub cores_per_checker: usize,
    /// Loop iterations per main-core workload.
    pub iters_per_main: i64,
    /// Random bit flips sprayed across the streams.
    pub injections: usize,
    /// RNG seed for the fault plan.
    pub seed: u64,
}

impl ManyCoreConfig {
    /// The default sweep configuration at `cores` cores.
    pub fn at(cores: usize) -> Self {
        ManyCoreConfig {
            cores,
            cores_per_checker: 4,
            iters_per_main: 2_000,
            injections: 4,
            seed: 0xF168 ^ cores as u64,
        }
    }

    /// Reduced workload for CI keep-alive runs.
    pub fn quick(cores: usize) -> Self {
        ManyCoreConfig {
            iters_per_main: 600,
            injections: 2,
            ..Self::at(cores)
        }
    }
}

/// One row of the many-core sweep.
#[derive(Debug, Clone)]
pub struct ManyCoreRow {
    /// Total cores simulated.
    pub cores: usize,
    /// Main cores.
    pub mains: usize,
    /// Shared checker cores.
    pub checkers: usize,
    /// Whether every main finished.
    pub completed: bool,
    /// Engine steps executed.
    pub engine_steps: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Engine steps per wall-clock second (scheduler scaling).
    pub steps_per_sec: f64,
    /// Segments verified across the checker pool.
    pub segments_checked: u64,
    /// Shots the fault plan scheduled.
    pub armed: usize,
    /// Faults that landed.
    pub injected: usize,
    /// Armed shots that expired without landing.
    pub expired: usize,
    /// Detections attributed one-to-one to a landed fault (never more
    /// than `injected`).
    pub detected: usize,
    /// Mean detection latency over matched (injection, detection)
    /// pairs, µs.
    pub mean_detection_latency_us: Option<f64>,
    /// Arbitration conflicts across the checker pool.
    pub arbiter_conflicts: u64,
    /// Channel hand-overs across the checker pool.
    pub arbiter_switches: u64,
    /// Main-core backpressure stalls.
    pub backpressure_stalls: u64,
    /// Cycle at which the last stream drained.
    pub drain_cycle: u64,
}

impl ManyCoreRow {
    /// Renders the row as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("cores", self.cores as u64)
            .field_u64("mains", self.mains as u64)
            .field_u64("checkers", self.checkers as u64)
            .field_bool("completed", self.completed)
            .field_u64("engine_steps", self.engine_steps)
            .field_f64("wall_s", self.wall_s)
            .field_f64("steps_per_sec", self.steps_per_sec)
            .field_u64("segments_checked", self.segments_checked)
            .field_u64("armed", self.armed as u64)
            .field_u64("injected", self.injected as u64)
            .field_u64("expired", self.expired as u64)
            .field_u64("detected", self.detected as u64);
        match self.mean_detection_latency_us {
            Some(v) => o.field_f64("mean_detection_latency_us", v),
            None => o.field_raw("mean_detection_latency_us", "null"),
        };
        o.field_u64("arbiter_conflicts", self.arbiter_conflicts)
            .field_u64("arbiter_switches", self.arbiter_switches)
            .field_u64("backpressure_stalls", self.backpressure_stalls)
            .field_u64("drain_cycle", self.drain_cycle);
        o.finish()
    }
}

/// A store/load checksum loop in a private text/data window per main
/// core, so any number of mains coexist in the shared physical memory.
pub fn many_core_job(slot: u64, iters: i64) -> Program {
    let text = 0x1000_0000 + slot * 0x10_0000;
    let data = 0x2000_0000 + slot * 0x10_0000;
    let mut asm = Assembler::with_bases(format!("job{slot}"), text, data);
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

/// Latency of each one-to-one (injection, detection) pair, in cycles.
///
/// Delegates to [`RunReport::matched_detections`]: each detection is
/// attributed to the *earliest unconsumed* preceding injection on the
/// same main core, and each injection is consumed by at most one
/// detection — so `detection_latencies(r).len() <= r.injections.len()`
/// always holds. (The previous latest-preceding rule double-counted in
/// dense campaigns and collapsed latencies toward the newest shot.)
pub fn detection_latencies(report: &RunReport) -> Vec<u64> {
    report
        .matched_detections()
        .iter()
        .map(|m| m.latency_cycles())
        .collect()
}

/// Splits `cores` into `(mains, checkers)` for a shared-checker SoC at
/// the given consolidation ratio.
///
/// # Errors
///
/// Returns [`ScenarioError::BadCheckerCount`] when the ratio leaves no
/// main core (`cores_per_checker <= 1`, or zero cores), mirroring the
/// validation [`Scenario::build`] performs.
pub fn checker_split(
    cores: usize,
    cores_per_checker: usize,
) -> Result<(usize, usize), ScenarioError> {
    let checkers = match cores_per_checker {
        0 => cores,
        r => (cores / r).max(1),
    };
    if checkers >= cores {
        return Err(ScenarioError::BadCheckerCount { checkers, cores });
    }
    Ok((cores - checkers, checkers))
}

/// Runs one many-core shared-checker experiment, with an optional
/// Chrome-trace export: when `trace` is given, the run records a
/// size-bounded schedule trace ([`flexstep_core::trace`], ring of
/// [`DEFAULT_RING_CAPACITY`](flexstep_core::DEFAULT_RING_CAPACITY)
/// events) and writes it there — load it in `chrome://tracing` or
/// Perfetto.
///
/// # Errors
///
/// Returns a [`ScenarioError`] when the configuration is invalid (e.g.
/// `cores_per_checker: 1` leaves no main core) instead of panicking
/// mid-run.
///
/// # Panics
///
/// Panics if the trace file cannot be written.
pub fn many_core_row(
    cfg: &ManyCoreConfig,
    trace: Option<&std::path::Path>,
) -> Result<ManyCoreRow, ScenarioError> {
    let (mains, checkers) = checker_split(cfg.cores, cfg.cores_per_checker)?;
    let programs: Vec<Program> = (0..mains)
        .map(|i| many_core_job(i as u64, cfg.iters_per_main))
        .collect();

    // Spray the injections across channels, staggered in time so the
    // streams carry data when each shot arms; later channels wait
    // longest for their shared checker and buffer the longest.
    let mut plan = FaultPlan::none().with_seed(cfg.seed);
    for k in 0..cfg.injections {
        let cycle = 4_000 + 5_000 * k as u64;
        plan = plan
            .then_random_at(cycle)
            .on_channel(mains - 1 - (k % mains));
    }

    let mut scenario = Scenario::new(&programs[0])
        .cores(cfg.cores)
        .topology(Topology::SharedChecker { checkers })
        .fabric(FabricConfig::paper())
        .fault_plan(plan);
    if let Some(path) = trace {
        scenario = scenario.trace_to_bounded(path, flexstep_core::DEFAULT_RING_CAPACITY);
    }
    for p in &programs[1..] {
        scenario = scenario.program(p);
    }
    let mut run = scenario.build()?;

    let start = Instant::now();
    let report = run.run_to_completion(u64::MAX);
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    run.write_trace().expect("write schedule trace");

    let clock = Clock::paper();
    let latencies = detection_latencies(&report);
    let mean_us = if latencies.is_empty() {
        None
    } else {
        Some(
            latencies
                .iter()
                .map(|&c| clock.cycles_to_us(c))
                .sum::<f64>()
                / latencies.len() as f64,
        )
    };
    Ok(ManyCoreRow {
        cores: cfg.cores,
        mains,
        checkers,
        completed: report.completed,
        engine_steps: report.engine_steps,
        wall_s,
        steps_per_sec: report.engine_steps as f64 / wall_s,
        segments_checked: report.segments_checked,
        armed: report.shots_armed as usize,
        injected: report.injections.len(),
        expired: report.shots_expired as usize,
        detected: latencies.len(),
        mean_detection_latency_us: mean_us,
        arbiter_conflicts: report.arbiters.iter().map(|a| a.conflicts).sum(),
        arbiter_switches: report.arbiters.iter().map(|a| a.switches).sum(),
        backpressure_stalls: report.backpressure_stalls,
        drain_cycle: report.drain_cycle,
    })
}

/// Runs the Fig. 8-style sweep over the given core counts, with an
/// optional Chrome-trace export for the *first* sweep row (one schedule
/// timeline is what the visualisation needs; tracing all rows would
/// multiply the artifact size for no insight).
///
/// # Panics
///
/// Panics if a sweep configuration fails to validate (the built-in
/// [`ManyCoreConfig::at`]/[`ManyCoreConfig::quick`] configurations
/// always do), or if the trace file cannot be written.
pub fn fig8_sweep(
    cores: &[usize],
    quick: bool,
    trace: Option<&std::path::Path>,
) -> Vec<ManyCoreRow> {
    cores
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let cfg = if quick {
                ManyCoreConfig::quick(n)
            } else {
                ManyCoreConfig::at(n)
            };
            let trace = if i == 0 { trace } else { None };
            many_core_row(&cfg, trace).expect("sweep configurations are valid")
        })
        .collect()
}

// ----- heterogeneous core-model sweep (fig8 --ooo) ----------------------

/// One row of the heterogeneous sweep: a (core count, checker tier,
/// main model) cell with the IPC balance the §IV sizing argument rests
/// on — the shared in-order checkers' replay IPC must not fall below
/// the mains' sustained IPC, or verification lag grows without bound.
#[derive(Debug, Clone)]
pub struct HeteroRow {
    /// Total cores simulated.
    pub cores: usize,
    /// Main cores.
    pub mains: usize,
    /// Shared checker cores.
    pub checkers: usize,
    /// Checker-tier name (e.g. `"1:4"`).
    pub tier: &'static str,
    /// Main-core timing model.
    pub model: CoreModelKind,
    /// Whether every main finished.
    pub completed: bool,
    /// Mean sustained IPC across the main cores.
    pub main_ipc: f64,
    /// Mean replay IPC across the checker pool.
    pub checker_ipc: f64,
    /// Segments verified across the checker pool.
    pub segments_checked: u64,
    /// Shots the fault plan scheduled.
    pub armed: usize,
    /// Faults that landed.
    pub injected: usize,
    /// Detections matched one-to-one to landed faults.
    pub detected: usize,
    /// Cycle at which the last stream drained.
    pub drain_cycle: u64,
}

impl HeteroRow {
    /// Campaign coverage: detections over landed faults, percent (100
    /// when nothing landed — an empty campaign misses nothing).
    pub fn coverage_pct(&self) -> f64 {
        if self.injected == 0 {
            100.0
        } else {
            100.0 * self.detected as f64 / self.injected as f64
        }
    }

    /// Renders the row as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("cores", self.cores as u64)
            .field_u64("mains", self.mains as u64)
            .field_u64("checkers", self.checkers as u64)
            .field_str("tier", self.tier)
            .field_str("model", self.model.label())
            .field_bool("completed", self.completed)
            .field_f64("main_ipc", self.main_ipc)
            .field_f64("checker_ipc", self.checker_ipc)
            .field_u64("segments_checked", self.segments_checked)
            .field_u64("armed", self.armed as u64)
            .field_u64("injected", self.injected as u64)
            .field_u64("detected", self.detected as u64)
            .field_f64("coverage_pct", self.coverage_pct())
            .field_u64("drain_cycle", self.drain_cycle);
        o.finish()
    }
}

/// The heterogeneous-sweep workload: strided loads walking a buffer
/// much larger than the L1 plus a data-dependent branch per element.
/// Mains — in-order or OoO — pay the miss latency; checkers replay the
/// same instructions against the log (no memory latency) with
/// forwarded outcomes, which is what lets one scalar checker keep up
/// with several wide mains. An L1-resident ALU loop would invert the
/// balance and say nothing about the paper's sizing claim.
pub fn hetero_job(slot: u64, iters: i64) -> Program {
    let text = 0x1000_0000 + slot * 0x10_0000;
    let data = 0x2000_0000 + slot * 0x10_0000;
    let mut asm = Assembler::with_bases(format!("het{slot}"), text, data);
    asm.la(XReg::A2, "buf");
    asm.data_label("buf").unwrap();
    asm.data_zeros(64 * 1024);
    asm.li(XReg::A0, iters);
    asm.li(XReg::A4, 0);
    asm.label("l").unwrap();
    // One cache line per iteration; 64 KiB of buffer bounds the walk.
    asm.ld(XReg::A3, XReg::A2, 0);
    asm.sd(XReg::A2, XReg::A4, 8);
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

/// Runs one heterogeneous cell: `cores` total, checkers sized by
/// `tier`, every main running `model`.
///
/// # Errors
///
/// Returns a [`ScenarioError`] when the tier leaves no main core at
/// this count.
pub fn hetero_row(
    cores: usize,
    tier: CheckerTier,
    model: CoreModelKind,
    quick: bool,
) -> Result<HeteroRow, ScenarioError> {
    let (mains, checkers) = checker_split(cores, tier.cores_per_checker)?;
    let iters: i64 = if quick { 300 } else { 800 };
    let shots = if quick { 2 } else { 4 };
    let programs: Vec<Program> = (0..mains).map(|i| hetero_job(i as u64, iters)).collect();
    let mut plan =
        FaultPlan::none().with_seed(0x0880 ^ cores as u64 ^ ((tier.cores_per_checker as u64) << 8));
    for k in 0..shots {
        plan = plan
            .then_random_at(3_000 + 4_000 * k as u64)
            .on_channel(k % mains);
    }
    let mut scenario = Scenario::new(&programs[0])
        .cores(cores)
        .topology(Topology::SharedChecker { checkers })
        .fabric(FabricConfig::paper())
        .main_core_model(model)
        .fault_plan(plan);
    for p in &programs[1..] {
        scenario = scenario.program(p);
    }
    let mut run = scenario.build()?;
    let report = run.run_to_completion(u64::MAX);
    // SharedChecker topology binds mains to 0..mains and checkers to
    // the tail ids, so the IPC means read straight off the SoC.
    let mean_ipc = |ids: std::ops::Range<usize>| {
        let n = ids.len().max(1) as f64;
        ids.map(|i| run.soc().core(i).ipc()).sum::<f64>() / n
    };
    Ok(HeteroRow {
        cores,
        mains,
        checkers,
        tier: tier.name,
        model,
        completed: report.completed,
        main_ipc: mean_ipc(0..mains),
        checker_ipc: mean_ipc(mains..cores),
        segments_checked: report.segments_checked,
        armed: report.shots_armed as usize,
        injected: report.injections.len(),
        detected: detection_latencies(&report).len(),
        drain_cycle: report.drain_cycle,
    })
}

/// The full heterogeneous sweep: every checker tier × {in-order, OoO}
/// mains at each core count. Rows come out grouped by count, then
/// tier, then model, so in-order and OoO cells of the same SoC sit
/// adjacent for comparison.
///
/// # Panics
///
/// Panics if a sweep configuration fails to validate (the built-in
/// tiers at 16+ cores always do).
pub fn hetero_sweep(cores: &[usize], quick: bool) -> Vec<HeteroRow> {
    let mut rows = Vec::new();
    for &n in cores {
        for tier in CHECKER_TIERS {
            for model in [CoreModelKind::InOrder, CoreModelKind::ooo()] {
                rows.push(hetero_row(n, *tier, model, quick).expect("sweep tiers are valid"));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_core_shared_pool_completes_and_detects() {
        let cfg = ManyCoreConfig {
            cores: 8,
            cores_per_checker: 4,
            iters_per_main: 400,
            injections: 2,
            seed: 11,
        };
        let row = many_core_row(&cfg, None).expect("valid configuration");
        assert_eq!(row.mains, 6);
        assert_eq!(row.checkers, 2);
        assert!(row.completed, "{row:?}");
        assert!(row.segments_checked >= row.mains as u64);
        assert!(
            row.arbiter_switches >= 1,
            "shared checkers must hand over: {row:?}"
        );
        assert!(row.injected >= 1, "shots must land: {row:?}");
        assert!(
            row.detected <= row.injected && row.injected <= row.armed,
            "detected <= landed <= armed must hold: {row:?}"
        );
        assert_eq!(row.armed, row.injected + row.expired);
        assert!(row.steps_per_sec > 0.0);
        let json = row.to_json();
        assert!(json.contains("\"cores\": 8"));
        assert!(json.contains("\"armed\": "));
    }

    #[test]
    fn hetero_ooo_cell_keeps_checker_ipc_ahead_at_full_coverage() {
        let tier = CHECKER_TIERS[0];
        let row = hetero_row(8, tier, CoreModelKind::ooo(), true).expect("valid cell");
        assert!(row.completed, "{row:?}");
        assert_eq!(row.model, CoreModelKind::ooo());
        assert!(row.injected >= 1, "shots must land: {row:?}");
        assert!(
            row.coverage_pct() >= 99.0,
            "OoO-main campaign coverage: {row:?}"
        );
        assert!(
            row.checker_ipc >= row.main_ipc,
            "checker replay must keep up with OoO mains: {row:?}"
        );
        let json = row.to_json();
        assert!(json.contains("\"model\": \"ooo\""));
        assert!(json.contains("\"tier\": \"1:4\""));
    }

    #[test]
    fn bad_cores_per_checker_is_a_typed_error_not_a_panic() {
        // cores_per_checker: 1 makes every core a checker — previously
        // an assert! panic mid-run, now a ScenarioError before building.
        let cfg = ManyCoreConfig {
            cores_per_checker: 1,
            ..ManyCoreConfig::quick(8)
        };
        assert_eq!(
            many_core_row(&cfg, None).unwrap_err(),
            ScenarioError::BadCheckerCount {
                checkers: 8,
                cores: 8
            }
        );
        let zero = ManyCoreConfig {
            cores_per_checker: 0,
            ..ManyCoreConfig::quick(8)
        };
        assert!(matches!(
            many_core_row(&zero, None).unwrap_err(),
            ScenarioError::BadCheckerCount { .. }
        ));
        assert_eq!(checker_split(16, 4), Ok((12, 4)));
        assert_eq!(checker_split(8, 100), Ok((7, 1)));
    }

    fn test_report(
        detections: Vec<flexstep_core::DetectionEvent>,
        injections: Vec<flexstep_core::Injection>,
    ) -> RunReport {
        RunReport {
            completed: true,
            main_finish_cycle: 0,
            drain_cycle: 0,
            retired: 0,
            segments_checked: 0,
            segments_failed: 0,
            detections,
            backpressure_stalls: 0,
            engine_steps: 0,
            per_main: vec![],
            arbiters: vec![],
            shots_armed: injections.len() as u64,
            shots_expired: 0,
            checkers_lost: 0,
            repair_latency_cycles: vec![],
            warnings: vec![],
            mode_stats: vec![],
            injections,
        }
    }

    fn det(main: usize, checker: usize, at: u64) -> flexstep_core::DetectionEvent {
        flexstep_core::DetectionEvent {
            main_core: main,
            checker_core: checker,
            segment_seq: 0,
            tag: 0,
            kind: flexstep_core::MismatchKind::LogUnderrun,
            detected_at: at,
        }
    }

    fn inj(main: usize, at: u64) -> flexstep_core::Injection {
        flexstep_core::Injection {
            main_core: main,
            target: flexstep_core::FaultTarget::EntryData,
            bits: vec![3],
            at_cycle: at,
        }
    }

    #[test]
    fn latency_matching_pairs_same_main() {
        let mut report = test_report(vec![det(1, 6, 5_000)], vec![inj(1, 1_000), inj(2, 4_900)]);
        assert_eq!(detection_latencies(&report), vec![4_000]);
        report.detections[0].main_core = 3;
        assert!(
            detection_latencies(&report).is_empty(),
            "no injection on main 3"
        );
    }

    #[test]
    fn double_detection_cannot_double_count_one_injection() {
        // Regression: two detections follow one injection on the same
        // main. The latest-preceding rule matched both (detected >
        // injected); one-to-one consumption matches exactly one.
        let report = test_report(
            vec![det(1, 6, 5_000), det(1, 6, 7_500)],
            vec![inj(1, 1_000)],
        );
        let latencies = detection_latencies(&report);
        assert_eq!(latencies, vec![4_000]);
        assert!(
            latencies.len() <= report.injections.len(),
            "detected must never exceed injected"
        );
    }

    #[test]
    fn dense_same_main_shots_match_fifo_not_latest() {
        // Two shots, two detections: the old rule matched BOTH
        // detections to the newest shot (latencies 100 and 1_100);
        // FIFO consumption attributes one pair each.
        let report = test_report(
            vec![det(0, 4, 5_000), det(0, 4, 6_000)],
            vec![inj(0, 1_000), inj(0, 4_900)],
        );
        assert_eq!(detection_latencies(&report), vec![4_000, 1_100]);
    }
}
