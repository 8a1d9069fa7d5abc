//! Many-core fault-injection campaign (Fig. 7 × Fig. 8, DESIGN.md §10).
//!
//! The paper's Fig. 7 measures the error-detection latency distribution
//! under thousands of injections; Fig. 8 scales the SoC to many cores.
//! This module combines both: it fires a large [`FaultPlan`] campaign
//! across a 16/32/64-core shared-checker SoC and reports the latency
//! distribution **per main core and per checker pool**, plus coverage
//! as both `detected / landed` and `detected / armed`.
//!
//! The campaign is chunked: `runs` independent simulations each execute
//! `shots_per_run` shots (so arming cycles stay dense without a single
//! run's FIFO-ordered fault driver serialising thousands of shots), and
//! the chunks run concurrently through [`par_map`]. Every chunk derives
//! its own RNG stream as
//! [`derive_stream(seed, "chunk-{k}")`](crate::derive_stream), so the
//! campaign is deterministic for a given seed regardless of thread
//! interleaving.
//!
//! Attribution uses
//! [`RunReport::matched_detections`](flexstep_core::RunReport::matched_detections):
//! each detection
//! consumes the earliest unconsumed preceding injection on the same
//! main, so `detected <= landed <= armed` holds in every row by
//! construction — the invariant the `fig7_manycore` artifact pins.
//!
//! # Example: a one-chunk 8-core campaign
//!
//! ```
//! use flexstep_bench::campaign::{campaign_row, CampaignConfig};
//!
//! let cfg = CampaignConfig {
//!     cores: 8,
//!     cores_per_checker: 4,
//!     iters_per_main: 400,
//!     runs: 1,
//!     shots_per_run: 4,
//!     seed: 7,
//!     recovery: flexstep_bench::RecoveryPolicy::Detect,
//!     mode: flexstep_bench::ReliabilityMode::SegmentCheck,
//! };
//! let row = campaign_row(&cfg).expect("valid configuration");
//! assert!(row.completed);
//! assert_eq!(row.armed, cfg.armed());
//! assert!(row.detected <= row.landed && row.landed <= row.armed);
//! assert_eq!(row.per_pool.len(), row.checkers);
//! println!("{}", row.to_json());
//! ```

use crate::manycore::{checker_split, many_core_job};
use crate::{
    derive_stream, host_workers, par_map, FabricConfig, FaultPlan, LatencyStats, RecoveryPolicy,
    ReliabilityMode, Scenario, Topology,
};
use flexstep_core::json::{array, numbers, numbers_u64, JsonObject};
use flexstep_core::{MatchedDetection, ScenarioError};
use flexstep_isa::asm::Program;
use flexstep_sim::Clock;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Histogram bucket width, µs (the Fig. 7 x-axis granularity).
pub const HISTOGRAM_BUCKET_US: f64 = 8.0;
/// Histogram bucket count (0–120 µs, last bucket open-ended).
pub const HISTOGRAM_BUCKETS: usize = 15;

/// Buckets a latency series into the Fig. 7 histogram (8 µs bins to
/// 120 µs; the last bin absorbs the tail).
pub fn latency_buckets(latencies_us: &[f64]) -> [u64; HISTOGRAM_BUCKETS] {
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    for &l in latencies_us {
        let b = ((l / HISTOGRAM_BUCKET_US) as usize).min(HISTOGRAM_BUCKETS - 1);
        buckets[b] += 1;
    }
    buckets
}

/// One many-core campaign configuration.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Total cores in the SoC.
    pub cores: usize,
    /// Cores per shared checker (4 → a 64-core SoC gets 16 checkers
    /// serving 48 mains).
    pub cores_per_checker: usize,
    /// Loop iterations per main-core workload.
    pub iters_per_main: i64,
    /// Independent simulation chunks (parallelised over threads).
    pub runs: usize,
    /// Shots armed per chunk.
    pub shots_per_run: usize,
    /// Campaign seed; chunk `k` runs on
    /// [`derive_stream(seed, "chunk-{k}")`](crate::derive_stream).
    pub seed: u64,
    /// What each chunk does on a detection: record it
    /// ([`RecoveryPolicy::Detect`], the Fig. 7 baseline) or roll the
    /// faulted main back and re-execute
    /// ([`RecoveryPolicy::Rollback`]).
    pub recovery: RecoveryPolicy,
    /// Reliability mode applied to every main slot.
    /// [`ReliabilityMode::SegmentCheck`] (the default) reproduces the
    /// pre-mode campaigns byte for byte; other modes trade detection
    /// latency against checkpoint overhead (`fig9_modes`).
    pub mode: ReliabilityMode,
}

impl CampaignConfig {
    /// The full campaign at `cores` cores (~1 200 armed shots). Chunks
    /// arm one shot per main core — more per chunk piles shots onto the
    /// same few-segment streams, where a segment's single failure
    /// verdict can consume only one of them (see `run_chunk`) — and
    /// the run count scales inversely so every core count fires a
    /// comparable campaign.
    pub fn at(cores: usize) -> Self {
        let checkers = (cores / 4).max(1);
        let mains = cores.saturating_sub(checkers).max(1);
        CampaignConfig {
            cores,
            cores_per_checker: 4,
            iters_per_main: 1_200,
            runs: 1_200usize.div_ceil(mains),
            shots_per_run: mains,
            seed: 0xF167 ^ cores as u64,
            recovery: RecoveryPolicy::Detect,
            mode: ReliabilityMode::SegmentCheck,
        }
    }

    /// The same campaign under a recovery policy (rollback campaigns
    /// report recovery-latency distributions alongside detection
    /// latency).
    #[must_use]
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// The same campaign with every main slot in the given reliability
    /// mode (the `fig9_modes` sweep axis).
    #[must_use]
    pub fn with_mode(mut self, mode: ReliabilityMode) -> Self {
        self.mode = mode;
        self
    }

    /// Reduced campaign for CI keep-alive runs (240 armed shots — still
    /// past the 200-shot artifact floor).
    pub fn quick(cores: usize) -> Self {
        let full = Self::at(cores);
        let shots_per_run = full.shots_per_run.min(30);
        CampaignConfig {
            iters_per_main: 600,
            runs: 240usize.div_ceil(shots_per_run),
            shots_per_run,
            ..full
        }
    }

    /// Total shots the campaign arms.
    pub fn armed(&self) -> usize {
        self.runs * self.shots_per_run
    }
}

/// Latency distribution and coverage of one checker pool (or one main).
#[derive(Debug, Clone)]
pub struct GroupStats {
    /// Core id of the group (checker core for pools, main core for
    /// mains).
    pub core: usize,
    /// Shots armed at streams this group serves.
    pub armed: usize,
    /// Shots that landed in those streams.
    pub landed: usize,
    /// Detections attributed one-to-one to a landed shot.
    pub detected: usize,
    /// Latency distribution over matched pairs, µs.
    pub stats: Option<LatencyStats>,
    /// Fig. 7 histogram of the matched-pair latencies.
    pub histogram: [u64; HISTOGRAM_BUCKETS],
}

impl GroupStats {
    fn from_latencies(
        core: usize,
        armed: usize,
        landed: usize,
        latencies_us: &[f64],
        latencies_cycles: &[u64],
        clock: Clock,
    ) -> Self {
        GroupStats {
            core,
            armed,
            landed,
            detected: latencies_us.len(),
            stats: LatencyStats::from_cycles(latencies_cycles, clock),
            histogram: latency_buckets(latencies_us),
        }
    }

    /// Renders the group as a JSON object.
    pub fn to_json(&self, key: &str) -> String {
        let mut o = JsonObject::new();
        o.field_u64(key, self.core as u64)
            .field_u64("armed", self.armed as u64)
            .field_u64("landed", self.landed as u64)
            .field_u64("detected", self.detected as u64);
        stats_fields(&mut o, &self.stats);
        o.field_raw(
            "histogram_8us",
            &numbers_u64(self.histogram.iter().copied()),
        );
        o.finish()
    }
}

fn stats_fields(o: &mut JsonObject, stats: &Option<LatencyStats>) {
    match stats {
        Some(s) => {
            o.field_f64("mean_us", s.mean_us)
                .field_f64("p50_us", s.p50_us)
                .field_f64("p99_us", s.p99_us)
                .field_f64("max_us", s.max_us);
        }
        None => {
            o.field_raw("mean_us", "null")
                .field_raw("p50_us", "null")
                .field_raw("p99_us", "null")
                .field_raw("max_us", "null");
        }
    }
}

/// One row of the many-core campaign (one core count).
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// Total cores simulated.
    pub cores: usize,
    /// Main cores.
    pub mains: usize,
    /// Shared checker cores (= pools).
    pub checkers: usize,
    /// Simulation chunks executed.
    pub runs: usize,
    /// Whether every chunk ran every main to completion.
    pub completed: bool,
    /// Shots armed across all chunks.
    pub armed: usize,
    /// Shots that landed in a stream.
    pub landed: usize,
    /// Armed shots that expired without landing.
    pub expired: usize,
    /// Detections attributed one-to-one to a landed shot.
    pub detected: usize,
    /// Whole-campaign latency distribution, µs.
    pub stats: Option<LatencyStats>,
    /// Raw matched-pair latencies, µs (for external plotting).
    pub latencies_us: Vec<f64>,
    /// Fig. 7 histogram over all matched pairs.
    pub histogram: [u64; HISTOGRAM_BUCKETS],
    /// Per-checker-pool distributions, pool order.
    pub per_pool: Vec<GroupStats>,
    /// Per-main distributions, channel order.
    pub per_main: Vec<GroupStats>,
    /// Raw detection events across all chunks (`recovered <=
    /// detections_raw`; a recovery window can span several detections).
    pub detections_raw: usize,
    /// Completed rollback recoveries (0 under [`RecoveryPolicy::Detect`]).
    pub recovered: usize,
    /// Detections that went unrecovered (retry budget exhausted).
    pub unrecovered: usize,
    /// Recovery-latency distribution (detect -> verified-again), µs.
    pub recovery_stats: Option<LatencyStats>,
    /// Raw recovery latencies, µs (for external plotting).
    pub recovery_latencies_us: Vec<f64>,
    /// Engine steps across all chunks.
    pub engine_steps: u64,
    /// Wall-clock seconds for the whole row.
    pub wall_s: f64,
}

impl CampaignRow {
    /// Detection coverage over shots that landed.
    pub fn coverage_landed(&self) -> f64 {
        if self.landed == 0 {
            0.0
        } else {
            self.detected as f64 / self.landed as f64
        }
    }

    /// Detection coverage over every armed shot (expired shots count
    /// against it — the conservative campaign-level number).
    pub fn coverage_armed(&self) -> f64 {
        if self.armed == 0 {
            0.0
        } else {
            self.detected as f64 / self.armed as f64
        }
    }

    /// Fraction of detected faults that recovered (rollback campaigns;
    /// 1.0 when nothing needed recovering).
    pub fn recovery_rate(&self) -> f64 {
        let total = self.recovered + self.unrecovered;
        if total == 0 {
            1.0
        } else {
            self.recovered as f64 / total as f64
        }
    }

    /// Renders the row as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("cores", self.cores as u64)
            .field_u64("mains", self.mains as u64)
            .field_u64("checkers", self.checkers as u64)
            .field_u64("runs", self.runs as u64)
            .field_bool("completed", self.completed)
            .field_u64("armed", self.armed as u64)
            .field_u64("landed", self.landed as u64)
            .field_u64("expired", self.expired as u64)
            .field_u64("detected", self.detected as u64)
            .field_f64("coverage_landed", self.coverage_landed())
            .field_f64("coverage_armed", self.coverage_armed());
        stats_fields(&mut o, &self.stats);
        o.field_raw("latencies_us", &numbers(self.latencies_us.iter().copied()))
            .field_raw(
                "histogram_8us",
                &numbers_u64(self.histogram.iter().copied()),
            )
            .field_raw(
                "per_pool",
                &array(self.per_pool.iter().map(|p| p.to_json("checker_core"))),
            )
            .field_raw(
                "per_main",
                &array(self.per_main.iter().map(|m| m.to_json("main_core"))),
            )
            .field_u64("detections_raw", self.detections_raw as u64)
            .field_u64("recovered", self.recovered as u64)
            .field_u64("unrecovered", self.unrecovered as u64)
            .field_f64("recovery_rate", self.recovery_rate());
        {
            let mut r = JsonObject::new();
            stats_fields(&mut r, &self.recovery_stats);
            o.field_raw("recovery_latency", &r.finish());
        }
        o.field_raw(
            "recovery_latencies_us",
            &numbers(self.recovery_latencies_us.iter().copied()),
        )
        .field_u64("engine_steps", self.engine_steps)
        .field_f64("wall_s", self.wall_s);
        o.finish()
    }
}

/// Outcome of one campaign chunk — shard `k` of a `campaignd`
/// campaign is exactly chunk `k` (see [`run_shard`]), streamed by the
/// engine into per-shard JSONL artifacts. With `armed =
/// armed_channels.len()`, `detected <= landed <= armed` and
/// `landed + expired == armed` hold by construction.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Whether every main ran to completion.
    pub completed: bool,
    /// Engine steps the shard executed.
    pub engine_steps: u64,
    /// Shots that landed in a stream.
    pub landed: usize,
    /// Armed shots that expired without landing.
    pub expired: usize,
    /// Channel (main slot) each armed shot targeted; one entry per
    /// armed shot (`cfg.shots_per_run`).
    pub armed_channels: Vec<usize>,
    /// Main slot of each landed injection.
    pub landed_mains: Vec<usize>,
    /// One-to-one (injection, detection) pairs; `pairs.len()` is the
    /// shard's detected count.
    pub pairs: Vec<MatchedDetection>,
    /// Raw detection events (a recovery window can span several).
    pub detections: usize,
    /// Completed rollback recoveries (detect -> verified-again windows).
    pub recovered: usize,
    /// Detections left unrecovered (retry budget exhausted / no anchor).
    pub unrecovered: usize,
    /// Per-recovery detect -> verified-again latency, cycles.
    pub recovery_cycles: Vec<u64>,
}

/// Builds and runs one chunk: `shots_per_run` random shots at random
/// instants within the fault-free span, spread over channels drawn from
/// a shuffled deck (sampling without replacement until the deck
/// empties). Uniform channel draws would pile several shots onto one
/// main — and a short job is a *single* checking segment, whose one
/// failure verdict can only consume one injection — silently deflating
/// coverage with same-segment collisions instead of real misses.
fn run_chunk(
    cfg: &CampaignConfig,
    programs: &[Program],
    checkers: usize,
    horizon: u64,
    chunk: usize,
    trace: Option<&std::path::Path>,
) -> Result<ShardOutcome, ScenarioError> {
    let chunk_seed = derive_stream(cfg.seed, &format!("chunk-{chunk}"));
    let mut rng = StdRng::seed_from_u64(chunk_seed);
    let mains = programs.len();
    let mut armed_channels = Vec::with_capacity(cfg.shots_per_run);
    let mut plan = FaultPlan::none().with_seed(rng.gen());
    let mut deck: Vec<usize> = Vec::new();
    for _ in 0..cfg.shots_per_run {
        if deck.is_empty() {
            deck = (0..mains).collect();
            deck.shuffle(&mut rng);
        }
        let at = rng.gen_range(horizon / 20..horizon);
        let channel = deck.pop().expect("deck refilled above");
        plan = plan.then_random_at(at).on_channel(channel);
        armed_channels.push(channel);
    }

    let mut scenario = Scenario::new(&programs[0])
        .cores(cfg.cores)
        .topology(Topology::SharedChecker { checkers })
        .fabric(FabricConfig::paper())
        .fault_plan(plan)
        .recovery(cfg.recovery)
        .main_reliability_mode(cfg.mode);
    if let Some(path) = trace {
        scenario = scenario.trace_to_bounded(path, flexstep_core::DEFAULT_RING_CAPACITY);
    }
    for p in &programs[1..] {
        scenario = scenario.program(p);
    }
    let mut run = scenario.build()?;
    let report = run.run_to_completion(u64::MAX);
    run.write_trace().expect("write schedule trace");
    let mut recovery_cycles = Vec::new();
    let mut unrecovered = 0usize;
    for m in &report.per_main {
        recovery_cycles.extend_from_slice(&m.recovery_latency_cycles);
        unrecovered += m.unrecovered as usize;
    }
    Ok(ShardOutcome {
        completed: report.completed,
        engine_steps: report.engine_steps,
        landed: report.injections.len(),
        expired: report.shots_expired as usize,
        armed_channels,
        landed_mains: report.injections.iter().map(|i| i.main_core).collect(),
        pairs: report.matched_detections(),
        detections: report.detections.len(),
        recovered: recovery_cycles.len(),
        unrecovered,
        recovery_cycles,
    })
}

/// Builds the per-main workload programs for one configuration.
fn campaign_programs(cfg: &CampaignConfig, mains: usize) -> Vec<Program> {
    (0..mains)
        .map(|i| many_core_job(i as u64, cfg.iters_per_main))
        .collect()
}

/// Fault-free probe: measures the live span once so chunk RNGs draw
/// arming cycles over it (the Fig. 7 methodology; shots drawn past the
/// drain simply expire and land in the armed-only denominator).
fn fault_free_horizon(
    cfg: &CampaignConfig,
    programs: &[Program],
    checkers: usize,
) -> Result<u64, ScenarioError> {
    // The probe runs under the campaign's mode: the live span depends
    // on it (FullLockstep mains run far longer than Unchecked ones).
    let mut probe_scenario = Scenario::new(&programs[0])
        .cores(cfg.cores)
        .topology(Topology::SharedChecker { checkers })
        .fabric(FabricConfig::paper())
        .main_reliability_mode(cfg.mode);
    for p in &programs[1..] {
        probe_scenario = probe_scenario.program(p);
    }
    let mut probe = probe_scenario.build()?;
    let span = probe.run_to_completion(u64::MAX);
    Ok(span.main_finish_cycle.max(1_000))
}

/// The fault-free arming horizon for one configuration — the cycle
/// span chunk/shard RNGs draw injection instants over. Deterministic
/// for a given configuration, so a resumed `campaignd` campaign
/// recomputes exactly the horizon the interrupted run used.
///
/// # Errors
///
/// Returns a [`ScenarioError`] when the configuration is invalid.
pub fn probe_horizon(cfg: &CampaignConfig) -> Result<u64, ScenarioError> {
    let (mains, checkers) = checker_split(cfg.cores, cfg.cores_per_checker)?;
    let programs = campaign_programs(cfg, mains);
    fault_free_horizon(cfg, &programs, checkers)
}

/// Runs one shard of a campaign: shard `k` is exactly campaign chunk
/// `k` — same `derive_stream(seed, "chunk-k")` RNG stream, same
/// shuffled-deck channel assignment — so a sharded campaign aggregates
/// to the same totals as [`campaign_row`] over the same configuration.
/// `horizon` must come from [`probe_horizon`] for the same
/// configuration.
///
/// # Errors
///
/// Returns a [`ScenarioError`] when the configuration is invalid.
pub fn run_shard(
    cfg: &CampaignConfig,
    horizon: u64,
    shard: usize,
) -> Result<ShardOutcome, ScenarioError> {
    let (mains, checkers) = checker_split(cfg.cores, cfg.cores_per_checker)?;
    let programs = campaign_programs(cfg, mains);
    run_chunk(cfg, &programs, checkers, horizon, shard, None)
}

/// Runs the campaign at one configuration: `runs` chunks through
/// [`par_map`], aggregated into per-pool and per-main distributions.
///
/// # Errors
///
/// Returns a [`ScenarioError`] when the configuration is invalid (e.g.
/// a `cores_per_checker` that leaves no main core).
pub fn campaign_row(cfg: &CampaignConfig) -> Result<CampaignRow, ScenarioError> {
    campaign_row_traced(cfg, None)
}

/// [`campaign_row`] with an optional Chrome-trace export: when `trace`
/// is given, chunk 0 of the campaign records a size-bounded schedule
/// trace ([`flexstep_core::trace`]) and writes it there. One chunk is
/// one full SoC run — exactly the timeline `chrome://tracing` can
/// render; tracing every chunk would just overwrite the same file
/// `runs` times.
///
/// # Errors
///
/// As [`campaign_row`].
///
/// # Panics
///
/// Panics if the trace file cannot be written.
pub fn campaign_row_traced(
    cfg: &CampaignConfig,
    trace: Option<&std::path::Path>,
) -> Result<CampaignRow, ScenarioError> {
    let (mains, checkers) = checker_split(cfg.cores, cfg.cores_per_checker)?;
    let programs = campaign_programs(cfg, mains);
    let start = Instant::now();
    let horizon = fault_free_horizon(cfg, &programs, checkers)?;

    // One chunk per executor item: a 100-chunk campaign holds at most
    // one simulated SoC per worker in memory. Results keep chunk order
    // (and every chunk derives its own RNG stream), so the aggregate is
    // independent of the worker count and interleaving.
    let chunks: Vec<usize> = (0..cfg.runs).collect();
    let outcomes = par_map(&chunks, host_workers(), |&chunk| {
        let trace = if chunk == 0 { trace } else { None };
        run_chunk(cfg, &programs, checkers, horizon, chunk, trace)
    });

    let clock = Clock::paper();
    let mut completed = true;
    // Chunk steps only: the fault-free horizon probe is setup, not
    // campaign work.
    let mut engine_steps = 0u64;
    let (mut landed, mut expired) = (0usize, 0usize);
    let mut armed_per_pool = vec![0usize; checkers];
    let mut landed_per_pool = vec![0usize; checkers];
    let mut armed_per_main = vec![0usize; mains];
    let mut landed_per_main = vec![0usize; mains];
    let mut cycles_all: Vec<u64> = Vec::new();
    let mut cycles_per_pool: Vec<Vec<u64>> = vec![Vec::new(); checkers];
    let mut cycles_per_main: Vec<Vec<u64>> = vec![Vec::new(); mains];
    let mut armed = 0usize;
    let mut detections_raw = 0usize;
    let (mut recovered, mut unrecovered) = (0usize, 0usize);
    let mut recovery_cycles_all: Vec<u64> = Vec::new();
    for outcome in outcomes {
        let o = outcome?;
        completed &= o.completed;
        engine_steps += o.engine_steps;
        detections_raw += o.detections;
        recovered += o.recovered;
        unrecovered += o.unrecovered;
        recovery_cycles_all.extend_from_slice(&o.recovery_cycles);
        armed += o.armed_channels.len();
        landed += o.landed;
        expired += o.expired;
        for &ch in &o.armed_channels {
            armed_per_main[ch] += 1;
            armed_per_pool[ch % checkers] += 1;
        }
        for &m in &o.landed_mains {
            landed_per_main[m] += 1;
            landed_per_pool[m % checkers] += 1;
        }
        for pair in &o.pairs {
            let lat = pair.latency_cycles();
            cycles_all.push(lat);
            cycles_per_main[pair.main_core].push(lat);
            // SharedChecker puts the pool at the top of the core range:
            // checker_core = mains + pool index.
            cycles_per_pool[pair.checker_core - mains].push(lat);
        }
    }

    let us =
        |cycles: &[u64]| -> Vec<f64> { cycles.iter().map(|&c| clock.cycles_to_us(c)).collect() };
    let latencies_us = us(&cycles_all);
    let per_pool = (0..checkers)
        .map(|p| {
            GroupStats::from_latencies(
                mains + p,
                armed_per_pool[p],
                landed_per_pool[p],
                &us(&cycles_per_pool[p]),
                &cycles_per_pool[p],
                clock,
            )
        })
        .collect();
    let per_main = (0..mains)
        .map(|m| {
            GroupStats::from_latencies(
                m,
                armed_per_main[m],
                landed_per_main[m],
                &us(&cycles_per_main[m]),
                &cycles_per_main[m],
                clock,
            )
        })
        .collect();
    Ok(CampaignRow {
        cores: cfg.cores,
        mains,
        checkers,
        runs: cfg.runs,
        completed,
        armed,
        landed,
        expired,
        detected: cycles_all.len(),
        stats: LatencyStats::from_cycles(&cycles_all, clock),
        histogram: latency_buckets(&latencies_us),
        latencies_us,
        per_pool,
        per_main,
        detections_raw,
        recovered,
        unrecovered,
        recovery_stats: LatencyStats::from_cycles(&recovery_cycles_all, clock),
        recovery_latencies_us: us(&recovery_cycles_all),
        engine_steps,
        wall_s: start.elapsed().as_secs_f64().max(1e-9),
    })
}

/// Runs the Fig. 7-style many-core campaign over the given core counts
/// under `recovery`, exporting the first row's chunk 0 as a Chrome trace
/// when `trace` is given (see [`campaign_row_traced`]). Under
/// [`RecoveryPolicy::Rollback`] the rows additionally report recovery
/// counts and the detect → verified-again latency distribution.
///
/// # Errors
///
/// Propagates the first invalid configuration.
pub fn fig7_manycore_sweep(
    core_counts: &[usize],
    quick: bool,
    trace: Option<&std::path::Path>,
    recovery: RecoveryPolicy,
) -> Result<Vec<CampaignRow>, ScenarioError> {
    core_counts
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let cfg = if quick {
                CampaignConfig::quick(n)
            } else {
                CampaignConfig::at(n)
            }
            .with_recovery(recovery);
            campaign_row_traced(&cfg, if i == 0 { trace } else { None })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the acceptance bar: a ≥64-core campaign with ≥200 armed
    /// shots where `detected <= landed <= armed` holds in every row,
    /// pool and main, and the per-pool splits partition the totals.
    #[test]
    fn quick_64_core_campaign_meets_the_fig7_bar() {
        let cfg = CampaignConfig::quick(64);
        assert!(
            cfg.armed() >= 200,
            "quick must stay past the 200-shot floor"
        );
        let row = campaign_row(&cfg).expect("valid configuration");
        assert!(row.completed, "every chunk must finish");
        assert_eq!(row.cores, 64);
        assert_eq!(row.mains, 48);
        assert_eq!(row.checkers, 16);
        assert_eq!(row.armed, cfg.armed());
        assert!(
            row.detected <= row.landed && row.landed <= row.armed,
            "detected <= landed <= armed must hold: {row:?}"
        );
        assert_eq!(row.landed + row.expired, row.armed);
        assert!(
            row.detected * 10 >= row.landed * 7,
            "most landed shots must be caught: {}/{}",
            row.detected,
            row.landed
        );
        assert!(row.coverage_armed() <= row.coverage_landed());

        // Pools partition the campaign totals.
        assert_eq!(row.per_pool.len(), 16);
        assert_eq!(row.per_main.len(), 48);
        assert_eq!(
            row.per_pool.iter().map(|p| p.armed).sum::<usize>(),
            row.armed
        );
        assert_eq!(
            row.per_pool.iter().map(|p| p.landed).sum::<usize>(),
            row.landed
        );
        assert_eq!(
            row.per_pool.iter().map(|p| p.detected).sum::<usize>(),
            row.detected
        );
        assert_eq!(
            row.per_main.iter().map(|m| m.detected).sum::<usize>(),
            row.detected
        );
        for p in &row.per_pool {
            assert!(
                p.detected <= p.landed && p.landed <= p.armed,
                "pool invariant: {p:?}"
            );
            assert_eq!(
                p.histogram.iter().sum::<u64>(),
                p.detected as u64,
                "pool histogram counts every matched pair"
            );
        }
        assert_eq!(row.histogram.iter().sum::<u64>(), row.detected as u64);
        let stats = row.stats.expect("a 240-shot campaign detects something");
        assert!(stats.mean_us > 0.0 && stats.max_us >= stats.p99_us);

        let json = row.to_json();
        assert!(json.contains("\"per_pool\": ["));
        assert!(json.contains("\"coverage_landed\": "));
        assert!(json.contains("\"histogram_8us\": ["));
    }

    /// Pins the PR 7 acceptance bar: a 64-core quick campaign run
    /// under `Rollback` recovers at least 99% of detected faults
    /// within the retry budget and reports a recovery-latency
    /// distribution in the JSON artifact.
    #[test]
    fn quick_64_core_rollback_campaign_recovers_detected_faults() {
        let cfg =
            CampaignConfig::quick(64).with_recovery(RecoveryPolicy::Rollback { max_retries: 3 });
        let row = campaign_row(&cfg).expect("valid configuration");
        assert!(row.completed, "every chunk must finish");
        assert!(
            row.detected <= row.landed && row.landed <= row.armed,
            "detected <= landed <= armed must hold: {row:?}"
        );
        assert!(
            row.recovered <= row.detections_raw,
            "recoveries consume detections: {}/{}",
            row.recovered,
            row.detections_raw
        );
        assert!(
            row.recovered > 0,
            "a 240-shot rollback campaign must recover something"
        );
        assert!(
            row.recovery_rate() >= 0.99,
            "at least 99% of detected faults must recover: rate {} ({} recovered, {} unrecovered)",
            row.recovery_rate(),
            row.recovered,
            row.unrecovered
        );
        let stats = row
            .recovery_stats
            .as_ref()
            .expect("recoveries produce a latency distribution");
        assert!(stats.mean_us > 0.0 && stats.max_us >= stats.p99_us);
        assert_eq!(row.recovery_latencies_us.len(), row.recovered);

        let json = row.to_json();
        assert!(json.contains("\"recovery_rate\": "));
        assert!(json.contains("\"recovery_latency\": {"));
        assert!(json.contains("\"recovery_latencies_us\": ["));
    }

    /// `Detect` campaigns keep the new fields pinned at zero so PR 6
    /// artifacts diff clean.
    #[test]
    fn detect_campaign_reports_zero_recovery_fields() {
        let cfg = CampaignConfig {
            cores: 8,
            cores_per_checker: 4,
            iters_per_main: 300,
            runs: 2,
            shots_per_run: 4,
            seed: 11,
            recovery: RecoveryPolicy::Detect,
            mode: ReliabilityMode::SegmentCheck,
        };
        let row = campaign_row(&cfg).unwrap();
        assert_eq!(row.recovered, 0);
        assert_eq!(row.unrecovered, 0);
        assert!(row.recovery_stats.is_none());
        assert!(row.recovery_latencies_us.is_empty());
        assert_eq!(row.recovery_rate(), 1.0);
    }

    #[test]
    fn campaign_rejects_checker_only_splits() {
        let cfg = CampaignConfig {
            cores_per_checker: 1,
            ..CampaignConfig::quick(16)
        };
        assert!(matches!(
            campaign_row(&cfg),
            Err(flexstep_core::ScenarioError::BadCheckerCount { .. })
        ));
    }

    #[test]
    fn campaign_is_deterministic_across_thread_interleavings() {
        // Two identical small campaigns must aggregate identically —
        // per-chunk RNG streams are derived, not shared.
        let cfg = CampaignConfig {
            cores: 8,
            cores_per_checker: 4,
            iters_per_main: 300,
            runs: 3,
            shots_per_run: 6,
            seed: 77,
            recovery: RecoveryPolicy::Detect,
            mode: ReliabilityMode::SegmentCheck,
        };
        let a = campaign_row(&cfg).unwrap();
        let b = campaign_row(&cfg).unwrap();
        assert_eq!(a.armed, b.armed);
        assert_eq!(a.landed, b.landed);
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.histogram, b.histogram);
        assert_eq!(
            a.per_pool.iter().map(|p| p.detected).collect::<Vec<_>>(),
            b.per_pool.iter().map(|p| p.detected).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sharded_campaign_aggregates_to_the_row_totals() {
        // Shard k IS campaign chunk k: running the shards one by one
        // through the public API must reproduce the row totals, and
        // every shard must satisfy the artifact invariants on its own.
        let cfg = CampaignConfig {
            cores: 8,
            cores_per_checker: 4,
            iters_per_main: 300,
            runs: 3,
            shots_per_run: 6,
            seed: 77,
            recovery: RecoveryPolicy::Detect,
            mode: ReliabilityMode::SegmentCheck,
        };
        let row = campaign_row(&cfg).unwrap();
        let horizon = probe_horizon(&cfg).unwrap();
        let shards: Vec<ShardOutcome> = (0..cfg.runs)
            .map(|k| run_shard(&cfg, horizon, k).unwrap())
            .collect();
        assert_eq!(
            shards.iter().map(|s| s.armed_channels.len()).sum::<usize>(),
            row.armed
        );
        assert_eq!(shards.iter().map(|s| s.landed).sum::<usize>(), row.landed);
        assert_eq!(shards.iter().map(|s| s.expired).sum::<usize>(), row.expired);
        assert_eq!(
            shards.iter().map(|s| s.pairs.len()).sum::<usize>(),
            row.detected
        );
        for s in &shards {
            assert!(s.completed);
            let armed = s.armed_channels.len();
            assert!(s.pairs.len() <= s.landed && s.landed <= armed);
            assert_eq!(s.landed + s.expired, armed);
        }
    }

    #[test]
    fn latency_buckets_bins_and_saturates() {
        let buckets = latency_buckets(&[0.0, 7.9, 8.0, 16.1, 500.0]);
        assert_eq!(buckets[0], 2);
        assert_eq!(buckets[1], 1);
        assert_eq!(buckets[2], 1);
        assert_eq!(buckets[HISTOGRAM_BUCKETS - 1], 1, "tail bucket absorbs");
        assert_eq!(buckets.iter().sum::<u64>(), 5);
    }
}
