//! Reliability-mode properties (ISSUE 10 satellite).
//!
//! The mode layer must keep the fault-attribution chain ordered no
//! matter how slots mix modes, how checkers come and go mid-run, or
//! where shots land:
//!
//! - `detected <= landed <= armed`, and every armed shot either lands
//!   or expires, under random mode assignments × acquire/release
//!   schedules × fault plans;
//! - a shot that expires while its slot is `Unchecked` or released
//!   raises the typed `ShotInUncheckedWindow` warning — never expires
//!   silently;
//! - on identical seeds, mean detection latency is monotone in
//!   strictness: `FullLockstep` <= `SegmentCheck` <= `CheckpointOnly`;
//! - every report accounts each slot's executed cycles as checked or
//!   unchecked, and the two add up to the slot's finish cycle.

use flexstep::core::{
    FabricConfig, FaultPlan, FaultTarget, PairingSchedule, RecoveryPolicy, ReliabilityMode,
    RunReport, RunWarning, Scenario, Topology, RELIABILITY_MODES,
};
use flexstep::isa::asm::{Assembler, Program};
use flexstep::isa::XReg;
use proptest::prelude::*;

/// A branchy store/load checksum kernel in a private window per slot.
/// Run against a 150-instruction segment limit, a few hundred
/// iterations cross dozens of segment boundaries — enough for deferred
/// releases to land and for the modes to differ.
fn checksum_job(slot: u64, iters: i64) -> Program {
    let text = 0x1000_0000 + slot * 0x10_0000;
    let data = 0x2000_0000 + slot * 0x10_0000;
    let mut asm = Assembler::with_bases(format!("mp{slot}"), text, data);
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

fn small_segments() -> FabricConfig {
    FabricConfig {
        segment_limit: 150,
        ..FabricConfig::paper()
    }
}

fn unchecked_warnings(warnings: &[RunWarning]) -> usize {
    warnings
        .iter()
        .filter(|w| matches!(w, RunWarning::ShotInUncheckedWindow { .. }))
        .count()
}

/// Each slot's checked and unchecked cycles add up to its finish cycle
/// on a completed run. Under rollback the gap between a finish and the
/// rollback that resumes the main counts in neither bucket, so the sum
/// may only fall short.
fn coverage_adds_up(report: &RunReport, rollback: bool) -> Result<(), TestCaseError> {
    prop_assert_eq!(report.mode_stats.len(), report.per_main.len());
    for (stat, main) in report.mode_stats.iter().zip(&report.per_main) {
        let covered = stat.checked_cycles + stat.unchecked_cycles;
        if rollback {
            prop_assert!(
                covered <= main.finish_cycle,
                "core {}: {covered} covered cycles past finish {}",
                main.core,
                main.finish_cycle
            );
        } else {
            prop_assert_eq!(covered, main.finish_cycle, "core {} coverage", main.core);
        }
    }
    Ok(())
}

fn mode_strategy() -> impl Strategy<Value = ReliabilityMode> {
    (0..RELIABILITY_MODES.len()).prop_map(|i| RELIABILITY_MODES[i])
}

/// A pool slot whose pairing release finished its hand-over before the
/// pool's only checker died is no orphan of the dead arbiter. The kill
/// must still degrade it: otherwise its re-acquire adopts it back onto
/// the dead checker, and a `FullLockstep` main waits at its checkpoint
/// forever. Both mains run on unchecked, each with a warning.
#[test]
fn reacquire_after_the_pool_checker_dies_completes() {
    for rollback in [false, true] {
        let recovery = if rollback {
            RecoveryPolicy::Rollback { max_retries: 3 }
        } else {
            RecoveryPolicy::Detect
        };
        for mode in [ReliabilityMode::FullLockstep, ReliabilityMode::SegmentCheck] {
            let mut run = Scenario::new(&checksum_job(0, 600))
                .program(&checksum_job(1, 600))
                .cores(3)
                .topology(Topology::SharedChecker { checkers: 1 })
                .fabric(small_segments())
                .reliability_mode(0, mode)
                .pairing_schedule(
                    PairingSchedule::new()
                        .window(0, 2_487, 3_845)
                        .window(1, 2_487, 3_845),
                )
                .recovery(recovery)
                .fault_plan(FaultPlan::kill_checker_at(2_546))
                .build()
                .expect("setup");
            let report = run.run_to_completion(100_000_000);
            assert!(report.completed, "{mode}, {recovery:?}: run must finish");
            let mut warned: Vec<usize> = report
                .warnings
                .iter()
                .filter_map(|w| match w {
                    RunWarning::UncheckedExecution { main, .. } => Some(*main),
                    _ => None,
                })
                .collect();
            warned.sort_unstable();
            assert_eq!(warned, [0, 1], "{mode}, {recovery:?}: both mains warned");
            coverage_adds_up(&report, rollback).expect("coverage");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random per-slot modes × random release/re-acquire windows ×
    /// random fault plans, with or without a checker kill, under either
    /// recovery policy: the run completes and the attribution chain
    /// stays ordered. Warnings only ever annotate expired shots.
    #[test]
    fn attribution_orders_under_random_modes_and_schedules(
        modes in proptest::collection::vec(mode_strategy(), 2),
        shared in any::<bool>(),
        window_on in proptest::collection::vec(any::<bool>(), 2),
        release_at in 2_000u64..8_000,
        window_len in 1_000u64..8_000,
        shots in proptest::collection::vec((1_000u64..20_000, 0usize..2, any::<bool>()), 1..4),
        seed in 0u64..1_000,
        // One tuple: the vendored `proptest!` takes at most 8 inputs.
        (kill, kill_at, rollback) in (any::<bool>(), 1_000u64..8_000, any::<bool>()),
    ) {
        let p0 = checksum_job(0, 600);
        let p1 = checksum_job(1, 600);
        let mut scenario = if shared {
            Scenario::new(&p0)
                .program(&p1)
                .cores(3)
                .topology(Topology::SharedChecker { checkers: 1 })
        } else {
            Scenario::new(&p0).program(&p1).cores(4)
        };
        scenario = scenario.fabric(small_segments());
        for (slot, mode) in modes.iter().enumerate() {
            scenario = scenario.reliability_mode(slot, *mode);
        }
        // Windows only on checked slots: scheduling a pairing event on
        // an Unchecked slot is a build-time error by design.
        let mut schedule = PairingSchedule::new();
        let mut scheduled = false;
        for slot in 0..2 {
            if window_on[slot] && modes[slot].is_checked() {
                schedule = schedule.window(slot, release_at, release_at + window_len);
                scheduled = true;
            }
        }
        if scheduled {
            scenario = scenario.pairing_schedule(schedule);
        }
        let mut plan = FaultPlan::none().with_seed(seed);
        for &(at, channel, targeted) in &shots {
            plan = if targeted {
                plan.then_bit_flip_at(at, FaultTarget::EntryData).on_channel(channel)
            } else {
                plan.then_random_at(at).on_channel(channel)
            };
        }
        if kill {
            plan = plan.then_kill_checker_at(kill_at);
        }
        let recovery = if rollback {
            RecoveryPolicy::Rollback { max_retries: 3 }
        } else {
            RecoveryPolicy::Detect
        };
        let mut run = scenario.fault_plan(plan).recovery(recovery).build().expect("setup");
        let report = run.run_to_completion(100_000_000);

        prop_assert!(report.completed, "mode run must finish");
        let armed = report.shots_armed as usize;
        let landed = report.injections.len();
        let expired = report.shots_expired as usize;
        let detected = report.matched_detections().len();
        prop_assert_eq!(armed, shots.len());
        prop_assert_eq!(landed + expired, armed, "every armed shot lands or expires");
        prop_assert!(detected <= landed, "attribution: {detected} detected of {landed} landed");
        prop_assert!(
            unchecked_warnings(&report.warnings) <= expired,
            "warnings annotate expired shots only"
        );
        // Every report accounts every main slot, in its own mode.
        for (slot, stat) in report.mode_stats.iter().enumerate() {
            prop_assert_eq!(stat.mode, modes[slot]);
        }
        coverage_adds_up(&report, rollback)?;
    }

    /// Coverage adds up under checker loss and rollback too: once the
    /// only shared checker dies, both slots degrade and run unchecked,
    /// and a rollback resumes a main's account where it re-executes.
    #[test]
    fn coverage_adds_up_under_checker_loss_and_rollback(
        kill_at in 1_000u64..8_000,
        shot_at in 1_000u64..8_000,
        rollback in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let recovery = if rollback {
            RecoveryPolicy::Rollback { max_retries: 3 }
        } else {
            RecoveryPolicy::Detect
        };
        let plan = FaultPlan::none()
            .with_seed(seed)
            .then_random_at(shot_at)
            .then_kill_checker_at(kill_at);
        let mut run = Scenario::new(&checksum_job(0, 600))
            .program(&checksum_job(1, 600))
            .cores(3)
            .topology(Topology::SharedChecker { checkers: 1 })
            .fabric(small_segments())
            .recovery(recovery)
            .fault_plan(plan)
            .build()
            .expect("setup");
        let report = run.run_to_completion(100_000_000);
        prop_assert!(report.completed);
        coverage_adds_up(&report, rollback)?;
    }

    /// Every shot aimed at an `Unchecked` slot expires with the typed
    /// warning — never silently, and never as a detection.
    #[test]
    fn unchecked_shots_always_expire_with_warnings(
        shots in proptest::collection::vec((500u64..30_000, any::<bool>()), 1..5),
        seed in 0u64..1_000,
        iters in 200i64..800,
    ) {
        let mut plan = FaultPlan::none().with_seed(seed);
        for &(at, targeted) in &shots {
            plan = if targeted {
                plan.then_bit_flip_at(at, FaultTarget::EntryData)
            } else {
                plan.then_random_at(at)
            };
        }
        let mut run = Scenario::new(&checksum_job(0, iters))
            .cores(2)
            .fabric(small_segments())
            .main_reliability_mode(ReliabilityMode::Unchecked)
            .fault_plan(plan)
            .build()
            .expect("setup");
        let report = run.run_to_completion(100_000_000);
        prop_assert!(report.completed);
        prop_assert_eq!(report.injections.len(), 0, "nothing flows on an unchecked stream");
        prop_assert!(report.detections.is_empty());
        prop_assert_eq!(report.shots_expired, report.shots_armed);
        prop_assert_eq!(
            unchecked_warnings(&report.warnings) as u64,
            report.shots_armed,
            "every unchecked expiry must warn"
        );
    }

    /// A shot that expires while its slot sits released (the checker
    /// was handed back and never re-acquired) warns just like a shot on
    /// an `Unchecked` slot.
    #[test]
    fn released_window_expiries_warn(
        release_at in 400u64..1_200,
        iters in 300i64..900,
        seed in 0u64..1_000,
    ) {
        // The shot can never fire before the run drains (beyond any
        // horizon), so it must expire — while slot 0 sits released.
        let plan = FaultPlan::none()
            .with_seed(seed)
            .then_bit_flip_at(u64::MAX / 2, FaultTarget::EntryData);
        let mut run = Scenario::new(&checksum_job(0, iters))
            .cores(2)
            .fabric(small_segments())
            .pairing_schedule(PairingSchedule::new().release_at(release_at, 0))
            .fault_plan(plan)
            .build()
            .expect("setup");
        let report = run.run_to_completion(100_000_000);
        prop_assert!(report.completed);
        prop_assert_eq!(report.shots_expired, 1);
        prop_assert_eq!(report.mode_stats[0].releases, 1);
        prop_assert_eq!(
            unchecked_warnings(&report.warnings),
            1,
            "a released-window expiry must warn, not pass silently"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On identical seeds and shot cycles, mean detection latency
    /// orders by strictness: a lockstep main held at every checkpoint
    /// beats segment-granular verdicts, which beat coarse
    /// checkpoint-only segments. The comparison is over a small
    /// campaign, not a single shot — which in-flight FIFO entry a shot
    /// corrupts is drawn by the fault driver, so individual latencies
    /// can cross even though the distributions order cleanly.
    #[test]
    fn detection_latency_is_monotone_in_strictness(
        ats in proptest::collection::vec(1_000u64..5_000, 6),
        seed in 0u64..1_000,
    ) {
        // ~6 000 user instructions: every shot cycle below lands well
        // inside even the fastest (CheckpointOnly) run's horizon.
        let program = checksum_job(0, 1_200);
        let mut means = Vec::new();
        for mode in [
            ReliabilityMode::FullLockstep,
            ReliabilityMode::SegmentCheck,
            ReliabilityMode::CheckpointOnly,
        ] {
            let mut total = 0u64;
            for &at in &ats {
                let plan = FaultPlan::none()
                    .with_seed(seed)
                    .then_bit_flip_at(at, FaultTarget::EntryData);
                let mut run = Scenario::new(&program)
                    .cores(2)
                    .fabric(small_segments())
                    .main_reliability_mode(mode)
                    .fault_plan(plan)
                    .build()
                    .expect("setup");
                let report = run.run_to_completion(100_000_000);
                prop_assert!(report.completed, "{mode} run must finish");
                let matched = report.matched_detections();
                prop_assert_eq!(matched.len(), 1, "{} must detect the landed shot", mode);
                total += matched[0].latency_cycles();
            }
            means.push(total as f64 / ats.len() as f64);
        }
        prop_assert!(
            means[0] <= means[1] && means[1] <= means[2],
            "mean latency must order lockstep <= segment_check <= checkpoint_only, got {:?}",
            means
        );
    }
}
