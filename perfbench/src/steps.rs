//! The driver for operations that step a `VerifiedRun`: the two step
//! workloads (`paired_suite`, `shared_modes`) and the `fault_campaign`
//! replicas. A round runs every operation once, untraced through
//! `run_to_completion` or traced through the sampling step loop.

use crate::stats::{quartiles, Digest};
use crate::trace::{StepProfile, Tracer};
use crate::{baseline, calib, check_run, digest_report, Baseline, Outcome, MAX_INSTRUCTIONS};
use flexstep_bench::geomean;
use flexstep_core::{RunReport, ScenarioError, VerifiedRun};
use flexstep_isa::asm::Program;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One operation: a scenario to build and run, and the unverified
/// reference of each of its mains.
pub struct Op<'a> {
    /// Builds the scenario (`Scenario::build`).
    pub build: Box<dyn Fn() -> Result<VerifiedRun, ScenarioError> + 'a>,
    /// Reference per main, in channel order.
    pub refs: Vec<&'a Baseline>,
    /// Whether the scenario arms fault shots.
    pub faulted: bool,
}

/// Host time and retired instructions of a round's passing operations.
#[derive(Debug, Clone, Default)]
pub struct RoundTime {
    /// Seconds in `Scenario::build` and the run, summed over passing ops.
    pub wall_s: f64,
    /// The same at the reference host speed.
    pub scaled_s: f64,
    /// Main instructions those ops retired.
    pub retired: u64,
    /// Passing ops.
    pub ops: u64,
    /// Per op: seconds at the reference host speed and instructions
    /// retired, or `None` when the op failed its check.
    pub per_op: Vec<Option<(f64, u64)>>,
}

/// Verified finish over reference finish, per main of `report`.
fn slowdowns(report: &RunReport, refs: &[&Baseline], into: &mut Vec<f64>) {
    for (m, r) in report.per_main.iter().zip(refs) {
        into.push(m.finish_cycle as f64 / r.cycles as f64);
    }
}

/// Runs `f`, turning a panic into a failed check.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("operation panicked".into()))
}

/// One untraced round: records `host_ns_per_main_inst`, `ops_per_s` and
/// `sim_slowdown` samples and returns the round's digest and times.
pub fn untraced_round(out: &mut Outcome, ops: &[Op]) -> Result<(u64, RoundTime), String> {
    let mut digest = Digest::default();
    let mut time = RoundTime::default();
    let mut ratios = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let result = guarded(|| {
            let (ran, secs, factor) = calib::timed(|| {
                let mut run = (op.build)()?;
                let report = run.run_to_completion(MAX_INSTRUCTIONS);
                Ok::<_, ScenarioError>((run, report))
            });
            let (run, report) = ran.map_err(|e| e.to_string())?;
            check_run(&run, &report, &op.refs, op.faulted)?;
            Ok((report, secs, factor))
        });
        digest.push(i as u64);
        match result {
            Ok((report, secs, factor)) => {
                out.check(Ok(()));
                digest_report(&mut digest, &report);
                slowdowns(&report, &op.refs, &mut ratios);
                time.wall_s += secs;
                time.scaled_s += secs * factor;
                time.retired += report.retired;
                time.ops += 1;
                time.per_op.push(Some((secs * factor, report.retired)));
            }
            Err(e) => {
                out.check(Err(format!("op {i}: {e}")));
                time.per_op.push(None);
            }
        }
    }
    if time.ops > 0 {
        let factor = time.scaled_s / time.wall_s;
        out.sample_time(
            "host_ns_per_main_inst",
            time.wall_s * 1e9 / time.retired as f64,
            factor,
        );
        out.sample_rate("ops_per_s", time.ops as f64 / time.wall_s, factor);
        out.sample("sim_slowdown", geomean(ratios));
    }
    Ok((digest.value(), time))
}

/// The untraced run of a step workload: rounds, each after a timed
/// `setup`, until `seconds` pass.
/// Each op's time is the first quartile, over the rounds, of its time at
/// the reference host speed (see [`calib`]); `host_ns_per_main_inst` is
/// their sum over the instructions one round retires, and `ops_per_s`
/// the op count over that sum. Per-round figures stay as the samples.
///
/// A quartile rather than the median: on a shared host, other tenants
/// only ever slow an op down, in bursts, and the share of each run they
/// take varies. The median tracks that share. Over six 30 s runs of
/// `paired_suite` on a busy 2-CPU host, summed per-op medians moved by
/// 12 % (interquartile range over median), summed first quartiles by 4 %.
pub fn untraced_run<T>(
    out: &mut Outcome,
    ops: &[Op],
    seconds: f64,
    setup: &mut impl FnMut(&mut Outcome) -> Result<T, String>,
) -> Result<(), String> {
    let mut secs: Vec<Vec<f64>> = vec![Vec::new(); ops.len()];
    let mut retired = vec![0u64; ops.len()];
    crate::repeat_rounds(out, seconds, ops.len(), setup, |out| {
        let (digest, time) = untraced_round(out, ops)?;
        for (i, r) in time.per_op.into_iter().enumerate() {
            if let Some((s, n)) = r {
                secs[i].push(s);
                retired[i] = n;
            }
        }
        Ok(digest)
    })?;
    if secs.iter().all(|s| !s.is_empty()) {
        let wall: f64 = secs.iter().map(|s| quartiles(s).0).sum();
        let retired: u64 = retired.iter().sum();
        out.values
            .insert("host_ns_per_main_inst", wall * 1e9 / retired as f64);
        out.values.insert("ops_per_s", ops.len() as f64 / wall);
    }
    Ok(())
}

/// Counters read from the runs of a traced round.
#[derive(Debug, Clone, Default)]
struct Tally {
    retired: u64,
    finish_cycles: u64,
    pushed: u64,
    peak_bytes: u64,
    spilled: u64,
    backpressure: u64,
    checker_wait: u64,
    memo_hits: u64,
    memo_misses: u64,
    switches: u64,
    conflicts: u64,
    grants: u64,
    armed: u64,
    landed: u64,
    expired: u64,
    detected: u64,
}

impl Tally {
    fn add(&mut self, run: &VerifiedRun, report: &RunReport) {
        self.retired += report.retired;
        for m in &report.per_main {
            self.finish_cycles += m.finish_cycle;
        }
        for &m in run.mains() {
            let fifo = &run.fabric().unit(m).fifo;
            self.pushed += fifo.total_pushed();
            self.peak_bytes = self.peak_bytes.max(fifo.peak_used_bytes() as u64);
            self.spilled += fifo.spilled_packets();
        }
        let stats = &run.fabric().stats;
        self.backpressure += stats.backpressure_stalls;
        self.checker_wait += stats.checker_wait_stalls;
        self.memo_hits += stats.memo_hits;
        self.memo_misses += stats.memo_misses;
        for a in &report.arbiters {
            self.switches += a.switches;
            self.conflicts += a.conflicts;
            self.grants += a.switches + a.immediate_grants;
        }
        self.armed += report.shots_armed;
        self.landed += report.injections.len() as u64;
        self.expired += report.shots_expired;
        self.detected += report.matched_detections().len() as u64;
    }
}

/// One traced round. Each op is a span holding `scenario.build`, the
/// step loop (`bench.step_loop`, whose sampled dispatches are attributed
/// to the `harness.*_dispatch` layers) and `harness.report`; the output
/// check runs outside the op span. Records the per-layer metrics of the
/// harness, DBC, memo, arbiters and fault driver; returns the digest,
/// the summed op wall time (the window closure is checked on) and the
/// layer self times inside it.
fn traced_round(
    out: &mut Outcome,
    tracer: &mut Tracer,
    ops: &[Op],
    seed: u64,
    timer_ns: f64,
) -> Result<(u64, Window), String> {
    let mut digest = Digest::default();
    let mut profile = StepProfile::new(timer_ns);
    let mut tally = Tally::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let round = tracer.open("bench.round", None, 0);
    let mut op_wall = 0.0;
    for (i, op) in ops.iter().enumerate() {
        let id = tracer.new_op();
        let span = tracer.open("bench.op", Some(round), id);
        let result = guarded(|| {
            let (run, _) = tracer.span("scenario.build", Some(span), id, || (op.build)());
            let mut run = run.map_err(|e| e.to_string())?;
            let loop_span = tracer.open("bench.step_loop", Some(span), id);
            let done = profile.drive(&mut run, MAX_INSTRUCTIONS, tracer, loop_span, &mut rng);
            tracer.close(loop_span);
            let (report, _) = tracer.span("harness.report", Some(span), id, || run.report());
            Ok((run, report, done))
        });
        op_wall += tracer.close(span);
        let checked = tracer.span("bench.check", Some(round), id, || {
            let (run, report, done) = result?;
            if !done {
                return Err("step budget ran out".to_string());
            }
            check_run(&run, &report, &op.refs, op.faulted)?;
            Ok((run, report))
        });
        digest.push(i as u64);
        match checked.0 {
            Ok((run, report)) => {
                out.check(Ok(()));
                digest_report(&mut digest, &report);
                tally.add(&run, &report);
            }
            Err(e) => {
                out.check(Err(format!("op {i}: {e}")));
            }
        }
    }
    tracer.close(round);
    let layers = tracer.self_times(round);
    let main_s = layers.get("harness.main_dispatch").copied().unwrap_or(0.0);
    let checker_s = layers
        .get("harness.checker_dispatch")
        .copied()
        .unwrap_or(0.0);

    let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let retired = tally.retired.max(1);
    let [mains, checkers, _] = profile.sampled;
    out.sample("harness.main_dispatch_ns", profile.mean_ns(0));
    out.sample("harness.checker_dispatch_ns", profile.mean_ns(1));
    out.sample(
        "harness.checker_time_share",
        checker_s / (main_s + checker_s).max(f64::MIN_POSITIVE),
    );
    out.sample(
        "harness.main_stall_share",
        share(profile.main_stalls, mains),
    );
    out.sample(
        "harness.dispatches_per_main_inst",
        profile.dispatches as f64 / retired as f64,
    );
    out.sample(
        "harness.checker_wait_share",
        share(profile.checker_waits, checkers),
    );
    out.sample("harness.peek_error_bound", tally.grants as f64);
    out.sample(
        "sim.main_ipc",
        tally.retired as f64 / tally.finish_cycles.max(1) as f64,
    );
    out.sample(
        "dbc.packets_per_main_inst",
        tally.pushed as f64 / retired as f64,
    );
    out.sample("dbc.peak_bytes", tally.peak_bytes as f64);
    out.sample("dbc.spilled_packets", tally.spilled as f64);
    out.sample("dbc.backpressure_stalls", tally.backpressure as f64);
    out.sample("dbc.checker_wait_stalls", tally.checker_wait as f64);
    out.sample("memo.hits", tally.memo_hits as f64);
    out.sample("memo.misses", tally.memo_misses as f64);
    out.sample(
        "memo.hit_rate",
        share(tally.memo_hits, tally.memo_hits + tally.memo_misses),
    );
    out.sample("share.arbiter_switches", tally.switches as f64);
    out.sample("share.arbiter_conflicts", tally.conflicts as f64);
    out.sample("fault.armed", tally.armed as f64);
    out.sample("fault.landed", tally.landed as f64);
    out.sample("fault.expired", tally.expired as f64);
    out.sample("fault.detected", tally.detected as f64);
    out.sample("fault.coverage", share(tally.detected, tally.landed));
    Ok((
        digest.value(),
        Window {
            wall_s: op_wall,
            layers,
        },
    ))
}

/// A traced window: its wall time and the layer self times inside it.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Wall seconds of the traced operations.
    pub wall_s: f64,
    /// Self time per layer, seconds.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Window {
    /// Records `trace.closure_share`: the layers' self times over the
    /// window's wall (the benchmark's own `bench.*` spans excluded), and
    /// the unattributed remainder.
    pub fn sample_closure(&self, out: &mut Outcome) {
        let attributed: f64 = self
            .layers
            .iter()
            .filter(|(name, _)| !name.starts_with("bench."))
            .map(|(_, s)| s)
            .sum();
        let closure = attributed / self.wall_s;
        out.sample("trace.closure_share", closure);
        out.sample("trace.unattributed_share", 1.0 - closure);
    }
}

/// One untraced round (the base of `harness.trace_overhead` and
/// `sim.checking_tax`), the unverified reference runs of `programs`
/// (`Soc::run_to_ecall`, for `sim.unverified_ns_per_inst`), then one
/// traced round of the same ops, whose digest must match. Returns the
/// digest and the traced window.
pub fn traced_pair(
    out: &mut Outcome,
    tracer: &mut Tracer,
    ops: &[Op],
    seed: u64,
    programs: &[Program],
) -> Result<(u64, Window), String> {
    let timer_ns = crate::trace::timer_cost_ns();
    let (digest, untraced) = untraced_round(out, ops)?;
    let t = Instant::now();
    let mut instret = 0;
    for p in programs {
        instret += baseline(p)?.instret;
    }
    let unverified_ns = t.elapsed().as_secs_f64() * 1e9 / instret.max(1) as f64;
    let (traced_digest, window) = traced_round(out, tracer, ops, seed, timer_ns)?;
    if traced_digest != digest {
        out.check(Err(format!(
            "traced digest {traced_digest:016x} differs from untraced {digest:016x}"
        )));
    }
    out.sample("harness.trace_overhead", window.wall_s / untraced.wall_s);
    out.sample("sim.unverified_ns_per_inst", unverified_ns);
    out.sample(
        "sim.checking_tax",
        untraced.wall_s * 1e9 / untraced.retired.max(1) as f64 / unverified_ns,
    );
    Ok((digest, window))
}

/// The traced run of a step workload: traced pairs, each after a timed
/// `setup`, until `seconds` pass; then the closure check.
pub fn traced_run<T>(
    out: &mut Outcome,
    tracer: &mut Tracer,
    ops: &[Op],
    cfg: &crate::Config,
    programs: &[Program],
    setup: &mut impl FnMut(&mut Outcome) -> Result<T, String>,
) -> Result<(), String> {
    crate::repeat_rounds(out, cfg.seconds, 1, setup, |out| {
        let (digest, window) = traced_pair(out, tracer, ops, cfg.seed, programs)?;
        window.sample_closure(out);
        Ok(digest)
    })?;
    crate::check_closure(out);
    Ok(())
}
