//! Fig. 9: the reliability-mode sweep — mode × slowdown × checkpoint
//! overhead × detection latency over a paired-lockstep SoC, plus a
//! dynamic-pairing probe exercising the mid-run acquire/release
//! protocol on the shared-checker topology.
//!
//! Each [`ReliabilityMode`] row runs the same workloads twice: once
//! fault-free (the per-mode accounting of
//! [`RunReport::mode_stats`](flexstep_core::RunReport::mode_stats) —
//! coverage cycles, checkpoint stalls, slowdown against the
//! `Unchecked` baseline), then under a seeded fault campaign (the
//! detection-latency and coverage columns). The table pins the central
//! FlexStep trade: stricter modes detect faster but stall the main
//! core on more checkpoints.
//!
//! Hard invariants the `fig9_modes` artifact enforces:
//!
//! - checked modes cover ≥ 99 % of landed shots;
//! - `FullLockstep` runs have zero unchecked cycles;
//! - mean detection latency orders `FullLockstep` ≤ `SegmentCheck` ≤
//!   `CheckpointOnly`;
//! - every `Unchecked` shot expires with a typed warning, never
//!   silently.

use crate::manycore::{checker_split, many_core_job};
use crate::{
    derive_stream, FabricConfig, FaultPlan, LatencyStats, PairingSchedule, ReliabilityMode,
    Scenario, Topology, RELIABILITY_MODES,
};
use flexstep_core::json::{array, numbers, JsonObject};
use flexstep_core::{FaultTarget, RunReport, RunWarning, ScenarioError};
use flexstep_isa::asm::Program;
use flexstep_sim::Clock;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One mode-sweep configuration.
///
/// Mode rows run the *paired* topology (`cores / 2` mains, each with a
/// dedicated checker): lockstep is a 1:1 discipline — a shared checker
/// replaying three mains' single-instruction segments falls a whole
/// run behind, which measures the arbiter, not the mode. The
/// dynamic-pairing probe keeps the shared-checker topology, where the
/// arbiter interplay *is* the subject.
#[derive(Debug, Clone, Copy)]
pub struct ModeSweepConfig {
    /// Total cores in the SoC.
    pub cores: usize,
    /// Cores per shared checker (pairing probe only).
    pub cores_per_checker: usize,
    /// Loop iterations per main-core workload.
    pub iters_per_main: i64,
    /// Independent fault runs per mode.
    pub runs: usize,
    /// Shots armed per fault run. Capped at the main count per run by
    /// the deck draw — at most one shot per main per run, so one
    /// segment never has to absorb two shots (a segment's single
    /// failure verdict can consume only one).
    pub shots_per_run: usize,
    /// Sweep seed; mode `m`, run `k` draws from
    /// `derive_stream(seed, "mode-{m}-run-{k}")`.
    pub seed: u64,
}

impl ModeSweepConfig {
    /// The full sweep: an 8-core SoC (4 paired mains), 240 shots per
    /// mode. Jobs span several base segments (~20 000 user
    /// instructions against the 5 000-instruction limit), so the modes
    /// genuinely differ in checkpoint granularity.
    pub fn full() -> Self {
        ModeSweepConfig {
            cores: 8,
            cores_per_checker: 4,
            iters_per_main: 4_000,
            runs: 60,
            shots_per_run: 4,
            seed: 0xF169,
        }
    }

    /// Reduced sweep for CI (60 shots per mode, ~12 500-instruction
    /// jobs — still multiple base segments).
    pub fn quick() -> Self {
        ModeSweepConfig {
            iters_per_main: 2_500,
            runs: 15,
            ..Self::full()
        }
    }

    /// Shots each mode arms.
    pub fn armed(&self) -> usize {
        self.runs * self.shots_per_run.min(self.cores / 2)
    }
}

/// One row of the Fig. 9 table: one reliability mode, accounted and
/// fault-injected.
#[derive(Debug, Clone)]
pub struct ModeRow {
    /// The mode this row ran under.
    pub mode: ReliabilityMode,
    /// Whether every run (fault-free and campaign) completed.
    pub completed: bool,
    /// Fault-free finish cycle of the slowest main.
    pub finish_cycle: u64,
    /// `finish_cycle` relative to the `Unchecked` row (≥ 1.0; the
    /// checkpoint-overhead column).
    pub slowdown: f64,
    /// Cycles spent under an associated checker, summed over slots
    /// (fault-free run).
    pub checked_cycles: u64,
    /// Cycles spent unchecked, summed over slots (fault-free run).
    pub unchecked_cycles: u64,
    /// Main-core stall cycles charged to checkpoint emission
    /// (fault-free run).
    pub cp_stall_cycles: u64,
    /// Segments verified in the fault-free run.
    pub segments_checked: u64,
    /// Shots armed across the campaign.
    pub armed: usize,
    /// Shots that landed in a stream.
    pub landed: usize,
    /// Armed shots that expired without landing.
    pub expired: usize,
    /// Detections attributed one-to-one to landed shots.
    pub detected: usize,
    /// `ShotInUncheckedWindow` warnings across the campaign (every
    /// expired `Unchecked` shot must raise one).
    pub unchecked_warnings: usize,
    /// Detection-latency distribution over matched pairs, µs.
    pub stats: Option<LatencyStats>,
    /// Raw matched-pair latencies, µs.
    pub latencies_us: Vec<f64>,
}

impl ModeRow {
    /// Detection coverage over landed shots (1.0 when nothing landed
    /// in a checked mode's stream, 0.0 for `Unchecked`).
    pub fn coverage_landed(&self) -> f64 {
        if self.landed == 0 {
            if self.mode.is_checked() {
                1.0
            } else {
                0.0
            }
        } else {
            self.detected as f64 / self.landed as f64
        }
    }

    /// Fraction of executed cycles under checking (fault-free run).
    pub fn checked_fraction(&self) -> f64 {
        let total = self.checked_cycles + self.unchecked_cycles;
        if total == 0 {
            0.0
        } else {
            self.checked_cycles as f64 / total as f64
        }
    }

    /// Renders the row as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("mode", self.mode.label())
            .field_bool("completed", self.completed)
            .field_u64("finish_cycle", self.finish_cycle)
            .field_f64("slowdown", self.slowdown)
            .field_u64("checked_cycles", self.checked_cycles)
            .field_u64("unchecked_cycles", self.unchecked_cycles)
            .field_u64("cp_stall_cycles", self.cp_stall_cycles)
            .field_u64("segments_checked", self.segments_checked)
            .field_f64("checked_fraction", self.checked_fraction())
            .field_u64("armed", self.armed as u64)
            .field_u64("landed", self.landed as u64)
            .field_u64("expired", self.expired as u64)
            .field_u64("detected", self.detected as u64)
            .field_u64("unchecked_warnings", self.unchecked_warnings as u64)
            .field_f64("coverage_landed", self.coverage_landed());
        match &self.stats {
            Some(s) => {
                o.field_f64("mean_us", s.mean_us)
                    .field_f64("p99_us", s.p99_us)
                    .field_f64("max_us", s.max_us);
            }
            None => {
                o.field_raw("mean_us", "null")
                    .field_raw("p99_us", "null")
                    .field_raw("max_us", "null");
            }
        }
        o.field_raw("latencies_us", &numbers(self.latencies_us.iter().copied()));
        o.finish()
    }
}

/// Outcome of the dynamic-pairing probe: one run with a release-only
/// schedule on slot 0 and a mid-run release/re-acquire window on every
/// other slot, plus a shot run aimed into the released windows.
#[derive(Debug, Clone)]
pub struct PairingProbe {
    /// Whether both probe runs completed.
    pub completed: bool,
    /// Checker releases executed (segment-boundary deferred).
    pub releases: u64,
    /// Checker re-acquires executed.
    pub acquires: u64,
    /// Cycles under checking, summed over slots.
    pub checked_cycles: u64,
    /// Cycles released, summed over slots.
    pub unchecked_cycles: u64,
    /// Shots that expired inside the released window, raising a typed
    /// warning.
    pub window_warnings: usize,
    /// Segments verified despite the windows.
    pub segments_checked: u64,
}

impl PairingProbe {
    /// Renders the probe as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_bool("completed", self.completed)
            .field_u64("releases", self.releases)
            .field_u64("acquires", self.acquires)
            .field_u64("checked_cycles", self.checked_cycles)
            .field_u64("unchecked_cycles", self.unchecked_cycles)
            .field_u64("window_warnings", self.window_warnings as u64)
            .field_u64("segments_checked", self.segments_checked);
        o.finish()
    }
}

fn sweep_programs(cfg: &ModeSweepConfig, mains: usize) -> Vec<Program> {
    (0..mains)
        .map(|i| many_core_job(i as u64, cfg.iters_per_main))
        .collect()
}

fn mode_scenario(cfg: &ModeSweepConfig, programs: &[Program], mode: ReliabilityMode) -> Scenario {
    let mut scenario = Scenario::new(&programs[0])
        .cores(cfg.cores)
        .topology(Topology::PairedLockstep)
        .fabric(FabricConfig::paper())
        .main_reliability_mode(mode);
    for p in &programs[1..] {
        scenario = scenario.program(p);
    }
    scenario
}

fn unchecked_warning_count(report: &RunReport) -> usize {
    report
        .warnings
        .iter()
        .filter(|w| matches!(w, RunWarning::ShotInUncheckedWindow { .. }))
        .count()
}

/// Runs the Fig. 9 sweep: one [`ModeRow`] per [`RELIABILITY_MODES`]
/// entry, in decreasing strictness.
///
/// # Errors
///
/// Returns a [`ScenarioError`] when the configuration is invalid.
pub fn mode_sweep(cfg: &ModeSweepConfig) -> Result<Vec<ModeRow>, ScenarioError> {
    let mains = (cfg.cores / 2).max(1);
    let shots_per_run = cfg.shots_per_run.min(mains);
    let programs = sweep_programs(cfg, mains);
    let clock = Clock::paper();

    let mut rows = Vec::with_capacity(RELIABILITY_MODES.len());
    for &mode in RELIABILITY_MODES {
        // Fault-free accounted run: overhead and coverage cycles.
        let mut probe = mode_scenario(cfg, &programs, mode).build()?;
        let free = probe.run_to_completion(u64::MAX);
        let mut completed = free.completed;
        let checked_cycles: u64 = free.mode_stats.iter().map(|m| m.checked_cycles).sum();
        let unchecked_cycles: u64 = free.mode_stats.iter().map(|m| m.unchecked_cycles).sum();
        let cp_stall_cycles: u64 = free
            .mode_stats
            .iter()
            .map(|m| m.checkpoint_stall_cycles)
            .sum();
        let horizon = free.main_finish_cycle.max(1_000);

        // Seeded fault campaign: latency and coverage columns.
        let mut landed = 0usize;
        let mut expired = 0usize;
        let mut unchecked_warnings = 0usize;
        let mut cycles: Vec<u64> = Vec::new();
        for run in 0..cfg.runs {
            let run_seed = derive_stream(cfg.seed, &format!("mode-{}-run-{run}", mode.label()));
            let mut rng = StdRng::seed_from_u64(run_seed);
            let mut plan = FaultPlan::none().with_seed(rng.gen());
            let mut deck: Vec<usize> = Vec::new();
            for _ in 0..shots_per_run {
                if deck.is_empty() {
                    deck = (0..mains).collect();
                    deck.shuffle(&mut rng);
                }
                let at = rng.gen_range(horizon / 20..horizon);
                let channel = deck.pop().expect("deck refilled above");
                // EntryData flips corrupt forwarded values the checker
                // always compares — a landed shot is detectable by
                // construction, which is what lets the artifact demand
                // ≥99 % coverage in checked modes (random targets
                // include benign flips, e.g. in unread address bits).
                plan = plan
                    .then_bit_flip_at(at, FaultTarget::EntryData)
                    .on_channel(channel);
            }
            let mut sim = mode_scenario(cfg, &programs, mode)
                .fault_plan(plan)
                .build()?;
            let report = sim.run_to_completion(u64::MAX);
            completed &= report.completed;
            landed += report.injections.len();
            expired += report.shots_expired as usize;
            unchecked_warnings += unchecked_warning_count(&report);
            cycles.extend(
                report
                    .matched_detections()
                    .iter()
                    .map(|p| p.latency_cycles()),
            );
        }

        let latencies_us: Vec<f64> = cycles.iter().map(|&c| clock.cycles_to_us(c)).collect();
        rows.push(ModeRow {
            mode,
            completed,
            finish_cycle: free.main_finish_cycle,
            slowdown: 1.0, // filled against the Unchecked baseline below
            checked_cycles,
            unchecked_cycles,
            cp_stall_cycles,
            segments_checked: free.segments_checked,
            armed: cfg.armed(),
            landed,
            expired,
            detected: cycles.len(),
            unchecked_warnings,
            stats: LatencyStats::from_cycles(&cycles, clock),
            latencies_us,
        });
    }

    let baseline = rows
        .iter()
        .find(|r| r.mode == ReliabilityMode::Unchecked)
        .map_or(1, |r| r.finish_cycle.max(1));
    for row in &mut rows {
        row.slowdown = row.finish_cycle as f64 / baseline as f64;
    }
    Ok(rows)
}

/// Runs the dynamic-pairing probe on the shared-checker topology (the
/// arbiter interplay is the point): slot 0 releases its checker a
/// quarter of the way into the span and never re-acquires; every other
/// slot gets a `[span/4, span/2)` released window. A second run then
/// aims one shot per re-acquiring slot at the middle of the window
/// (those land on still-buffered packets — release stops production,
/// not verification of data already logged — and are detected) and one
/// shot at slot 0 far beyond the horizon: slot 0 stops producing at its
/// release and never resumes, so that shot has nothing left to corrupt
/// and must expire at drain with the typed
/// [`RunWarning::ShotInUncheckedWindow`] warning rather than silently.
///
/// # Errors
///
/// Returns a [`ScenarioError`] when the configuration is invalid.
pub fn pairing_probe(cfg: &ModeSweepConfig) -> Result<PairingProbe, ScenarioError> {
    let (mains, checkers) = checker_split(cfg.cores, cfg.cores_per_checker)?;
    let programs = sweep_programs(cfg, mains);

    let shared = |programs: &[Program]| {
        let mut scenario = Scenario::new(&programs[0])
            .cores(cfg.cores)
            .topology(Topology::SharedChecker { checkers })
            .fabric(FabricConfig::paper());
        for p in &programs[1..] {
            scenario = scenario.program(p);
        }
        scenario
    };

    // Span probe (plain SegmentCheck) to place the windows.
    let span = shared(&programs)
        .build()?
        .run_to_completion(u64::MAX)
        .main_finish_cycle
        .max(1_000);
    let (release, reacquire) = (span / 4, span / 2);
    let mut schedule = PairingSchedule::new().release_at(release, 0);
    for slot in 1..mains {
        schedule = schedule.window(slot, release, reacquire);
    }

    let free = shared(&programs)
        .pairing_schedule(schedule.clone())
        .build()?
        .run_to_completion(u64::MAX);
    let releases: u64 = free.mode_stats.iter().map(|m| m.releases).sum();
    let acquires: u64 = free.mode_stats.iter().map(|m| m.acquires).sum();

    // Second run: one shot per re-acquiring slot in mid-window, plus a
    // beyond-horizon shot at the never-re-acquiring slot 0. The shared
    // checker drains released buffers deep into the run, so any earlier
    // cycle risks landing on leftover packets; a never-due shot instead
    // expires at drain, while slot 0 still sits released. It goes last:
    // shots fire in plan order and an unlandable shot holds back those
    // behind it.
    let mut plan = FaultPlan::none().with_seed(derive_stream(cfg.seed, "pairing-shots"));
    let mid = release + (reacquire - release) / 2;
    for slot in 1..mains {
        plan = plan
            .then_bit_flip_at(mid, FaultTarget::EntryData)
            .on_channel(slot);
    }
    plan = plan
        .then_bit_flip_at(span.saturating_mul(1_000), FaultTarget::EntryData)
        .on_channel(0);
    let shot = shared(&programs)
        .pairing_schedule(schedule)
        .fault_plan(plan)
        .build()?
        .run_to_completion(u64::MAX);

    Ok(PairingProbe {
        completed: free.completed && shot.completed,
        releases,
        acquires,
        checked_cycles: free.mode_stats.iter().map(|m| m.checked_cycles).sum(),
        unchecked_cycles: free.mode_stats.iter().map(|m| m.unchecked_cycles).sum(),
        window_warnings: unchecked_warning_count(&shot),
        segments_checked: free.segments_checked,
    })
}

/// Renders the full Fig. 9 artifact (meta + rows + pairing probe).
pub fn fig9_json(cfg: &ModeSweepConfig, rows: &[ModeRow], pairing: &PairingProbe) -> String {
    let mut o = JsonObject::new();
    {
        let mut meta = JsonObject::new();
        meta.field_str("tool", "fig9_modes")
            .field_u64("cores", cfg.cores as u64)
            .field_u64("cores_per_checker", cfg.cores_per_checker as u64)
            .field_i64("iters_per_main", cfg.iters_per_main)
            .field_u64("runs", cfg.runs as u64)
            .field_u64("shots_per_run", cfg.shots_per_run as u64)
            .field_u64("seed", cfg.seed);
        o.field_raw("meta", &meta.finish());
    }
    o.field_raw("rows", &array(rows.iter().map(ModeRow::to_json)))
        .field_raw("pairing", &pairing.to_json());
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ModeSweepConfig {
        // Multi-segment jobs (~12 500 instructions against the 5 000
        // base limit): segment boundaries must exist for releases and
        // for the modes to differ at all.
        ModeSweepConfig {
            cores: 8,
            cores_per_checker: 4,
            iters_per_main: 2_500,
            runs: 2,
            shots_per_run: 6,
            seed: 41,
        }
    }

    #[test]
    fn sweep_rows_satisfy_the_fig9_invariants() {
        let cfg = tiny();
        let rows = mode_sweep(&cfg).expect("valid configuration");
        assert_eq!(rows.len(), RELIABILITY_MODES.len());
        let by_mode = |m: ReliabilityMode| rows.iter().find(|r| r.mode == m).unwrap();
        for row in &rows {
            assert!(row.completed, "{} must complete", row.mode);
            assert_eq!(row.armed, cfg.armed());
            assert_eq!(row.landed + row.expired, row.armed);
            assert!(row.detected <= row.landed);
            if row.mode.is_checked() {
                assert!(
                    row.coverage_landed() >= 0.99,
                    "{}: coverage {}",
                    row.mode,
                    row.coverage_landed()
                );
            }
        }
        let lockstep = by_mode(ReliabilityMode::FullLockstep);
        assert_eq!(lockstep.unchecked_cycles, 0);
        assert!(lockstep.slowdown > by_mode(ReliabilityMode::SegmentCheck).slowdown);
        let unchecked = by_mode(ReliabilityMode::Unchecked);
        assert_eq!(unchecked.detected, 0);
        assert_eq!(unchecked.expired, unchecked.armed);
        assert_eq!(unchecked.unchecked_warnings, unchecked.armed);
        assert!((unchecked.slowdown - 1.0).abs() < 1e-9);
        // Latency ordering: stricter modes detect sooner.
        let mean = |r: &ModeRow| r.stats.as_ref().expect("detections").mean_us;
        assert!(mean(lockstep) <= mean(by_mode(ReliabilityMode::SegmentCheck)));
        assert!(
            mean(by_mode(ReliabilityMode::SegmentCheck))
                <= mean(by_mode(ReliabilityMode::CheckpointOnly))
        );
    }

    #[test]
    fn pairing_probe_releases_and_reacquires() {
        let cfg = tiny();
        let probe = pairing_probe(&cfg).expect("valid configuration");
        assert!(probe.completed);
        assert!(probe.releases >= 1, "{probe:?}");
        assert!(probe.acquires >= 1, "{probe:?}");
        assert!(probe.unchecked_cycles > 0);
        assert!(probe.checked_cycles > 0);
        assert!(probe.window_warnings >= 1, "{probe:?}");
        assert!(probe.segments_checked > 0);
        let json = probe.to_json();
        assert!(json.contains("\"releases\": "));
    }
}
