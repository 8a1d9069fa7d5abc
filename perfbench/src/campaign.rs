//! `fault_campaign`: Fig. 7's path through `campaignd`. A round submits
//! a 16-core job (`cores_per_checker` 4, one shot per main per shard,
//! Detect, `SegmentCheck`, seeded by the workload seed), runs it on one
//! worker per host core, merges it, and checks every merged line. One
//! shard is one operation.
//!
//! Armed shots block the memo, so every segment replays; this is the
//! only workload that exercises the fault driver, detection, and
//! campaignd's per-shard I/O and work stealing. Shards run inside
//! `campaign::run_shard`, out of reach of the step loop, so the traced
//! run also steps a few replica scenarios of the same shape (same
//! programs, topology and shot density) to attribute harness, DBC, memo
//! and arbiter time on the fault path.

use crate::stats::{median, quartiles, Digest};
use crate::steps::{traced_pair, Op};
use crate::trace::Tracer;
use crate::{
    baseline, calib, check_run, repeat_rounds, time_setup, Baseline, Config, Outcome, Samples,
};
use flexstep_bench::campaign::{probe_horizon, run_shard};
use flexstep_bench::manycore::many_core_job;
use flexstep_bench::{derive_stream, geomean, RecoveryPolicy, ReliabilityMode};
use flexstep_campaignd::engine::{merge, merged_path, run as run_campaign, submit};
use flexstep_campaignd::spec::JobSpec;
use flexstep_core::json::JsonValue;
use flexstep_core::{FaultPlan, LatencyStats, Scenario, Topology};
use flexstep_isa::asm::Program;
use flexstep_sim::Clock;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Instant;

const CORES: usize = 16;
const CORES_PER_CHECKER: usize = 4;
const CHECKERS: usize = CORES / CORES_PER_CHECKER;
const MAINS: usize = CORES - CHECKERS;
/// Set-ups timed before each untraced round, for `setup_s`.
const SETUP_REPS: usize = 4;
/// Shards timed directly through `run_shard` for `campaign.shard_s`.
const DIRECT_SHARDS: usize = 5;

/// Job size: loop iterations per main, shards per round, and replica
/// scenarios stepped by the traced run.
struct Size {
    iters: i64,
    shards: usize,
    replicas: usize,
}

fn job(seed: u64, size: &Size) -> JobSpec {
    JobSpec {
        name: "perfbench".into(),
        core_counts: vec![CORES],
        cores_per_checker: CORES_PER_CHECKER,
        iters_per_main: size.iters,
        shots_per_shard: MAINS,
        shards_per_config: size.shards,
        seed,
        recovery: RecoveryPolicy::Detect,
        mode: ReliabilityMode::SegmentCheck,
    }
}

fn scenario(programs: &[Program]) -> Scenario {
    let mut s = Scenario::new(&programs[0])
        .cores(CORES)
        .topology(Topology::SharedChecker { checkers: CHECKERS });
    for p in &programs[1..] {
        s = s.program(p);
    }
    s
}

/// What the merged lines of one round hold.
#[derive(Debug, Default)]
struct Merged {
    digest: u64,
    ok: u64,
    armed: u64,
    landed: u64,
    expired: u64,
    detected: u64,
    latencies: Vec<u64>,
}

/// Reads a campaign's merged artifact and checks every shard line:
/// ids in order, `completed`, `detected <= landed <= armed`,
/// `landed + expired == armed`, one shot per main, and one
/// injection/detection pair per detection, none detected before its
/// injection. Each failing or missing line is a failed operation.
fn check_merged(out: &mut Outcome, path: &Path, shards: usize) -> Merged {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut m = Merged::default();
    let mut digest = Digest::default();
    let mut lines = text.lines();
    for id in 0..shards {
        let line = lines.next().unwrap_or("");
        let result = (|| {
            let doc = JsonValue::parse(line).map_err(|e| format!("unparsable line: {e:?}"))?;
            let num = |k: &str| {
                doc.get(k)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("missing {k}"))
            };
            let (armed, landed, expired, detected) = (
                num("armed")?,
                num("landed")?,
                num("expired")?,
                num("detected")?,
            );
            if num("id")? != id as u64 {
                return Err("out of order".to_string());
            }
            if doc.get("completed").and_then(JsonValue::as_bool) != Some(true) {
                return Err("mains did not complete".into());
            }
            if !(detected <= landed && landed <= armed) || landed + expired != armed {
                return Err(format!(
                    "accounts do not balance: detected {detected}, landed {landed}, \
                     expired {expired}, armed {armed}"
                ));
            }
            if armed != MAINS as u64 {
                return Err(format!("armed {armed} shots, expected {MAINS}"));
            }
            let pairs = doc
                .get("pairs")
                .and_then(JsonValue::as_array)
                .ok_or("missing pairs")?;
            if pairs.len() as u64 != detected {
                return Err("pair count differs from detected".into());
            }
            let mut cycles = Vec::with_capacity(pairs.len());
            for p in pairs {
                let at = |k: &str| p.get(k).and_then(JsonValue::as_u64).ok_or("bad pair");
                let (inj, det) = (at("injected_at")?, at("detected_at")?);
                if det < inj {
                    return Err("detected before injected".into());
                }
                cycles.push((at("main")?, at("checker")?, inj, det));
            }
            Ok((armed, landed, expired, num("detections")?, cycles))
        })();
        digest.push(id as u64);
        match result {
            Ok((armed, landed, expired, detections, cycles)) => {
                out.check(Ok(()));
                m.ok += 1;
                m.armed += armed;
                m.landed += landed;
                m.expired += expired;
                m.detected += cycles.len() as u64;
                for w in [armed, landed, expired, detections] {
                    digest.push(w);
                }
                for (main, checker, inj, det) in cycles {
                    for w in [main, checker, inj, det] {
                        digest.push(w);
                    }
                    m.latencies.push(det - inj);
                }
            }
            Err(e) => {
                out.check(Err(format!("shard {id}: {e}")));
            }
        }
    }
    m.digest = digest.value();
    m
}

/// Timings of one campaign round.
struct RoundTimes {
    /// Wall seconds of run + merge.
    wall: f64,
    /// Scale of those seconds to the reference host speed.
    factor: f64,
    /// Wall seconds of merge.
    merge: f64,
}

/// One campaign round in `dir`: submit, run on `workers`, merge, check.
fn round(
    out: &mut Outcome,
    tracer: &mut Tracer,
    spec: &JobSpec,
    dir: &Path,
    workers: usize,
) -> Result<(Merged, RoundTimes), String> {
    let _ = std::fs::remove_dir_all(dir);
    let before = calib::sample();
    let id = tracer.new_op();
    let top = tracer.open("bench.round", None, 0);
    let op = tracer.open("bench.op", Some(top), id);
    let (submitted, _) = tracer.span("campaignd.submit", Some(op), id, || submit(dir, spec));
    submitted.map_err(|e| format!("submit: {e}"))?;
    let (ran, run_s) = tracer.span("campaignd.run", Some(op), id, || {
        run_campaign(dir, workers, None)
    });
    let (merged, merge_s) = tracer.span("campaignd.merge", Some(op), id, || {
        merge(dir, &merged_path(dir))
    });
    tracer.close(op);
    let factor = 2.0 * calib::REFERENCE_S / (before + calib::sample());
    let (m, _) = tracer.span("bench.check", Some(top), id, || {
        if let Err(e) = ran.and(merged) {
            // The engine stops at the first failing shard: every shard
            // of the round counts as failed.
            for id in 0..spec.shards_per_config {
                out.check(Err(format!("shard {id}: campaign failed: {e}")));
            }
            return Merged::default();
        }
        check_merged(out, &merged_path(dir), spec.shards_per_config)
    });
    tracer.close(top);
    let _ = std::fs::remove_dir_all(dir);
    Ok((
        m,
        RoundTimes {
            wall: run_s + merge_s,
            factor,
            merge: merge_s,
        },
    ))
}

/// A fault plan of the shards' shape: one random shot per main at a
/// random instant in `[horizon / 20, horizon)`.
fn replica_plan(seed: u64, k: usize, horizon: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(derive_stream(seed, &format!("fault_replica-{k}")));
    let mut channels: Vec<usize> = (0..MAINS).collect();
    channels.shuffle(&mut rng);
    let mut plan = FaultPlan::none().with_seed(rng.gen());
    for ch in channels {
        plan = plan
            .then_random_at(rng.gen_range(horizon / 20..horizon))
            .on_channel(ch);
    }
    plan
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when the campaign cannot be configured or its
/// directory cannot be written.
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Result<Outcome, String> {
    let size = if cfg.toy {
        Size {
            iters: 300,
            shards: 4,
            replicas: 1,
        }
    } else {
        Size {
            iters: 1_200,
            shards: 100,
            replicas: 4,
        }
    };
    let spec = job(cfg.seed, &size);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let base: PathBuf =
        cfg.out_dir
            .join(format!("campaign-{}-seed{}", std::process::id(), cfg.seed));
    let mut out = Outcome::default();

    // Set-up: assemble the mains' programs, build the SoC, submit the
    // job and probe its arming horizon. It runs once here and again
    // before every round.
    let mut n = 0;
    let mut setup = |out: &mut Outcome| {
        let t = Instant::now();
        let programs: Vec<Program> = (0..MAINS as u64)
            .map(|i| many_core_job(i, size.iters))
            .collect();
        out.sample("workloads.program_ms", t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(scenario(&programs).build().map_err(|e| e.to_string())?);
        out.sample("scenario.build_ms", t.elapsed().as_secs_f64() * 1e3);
        n += 1;
        submit(&base.join(format!("setup-{n}")), &spec).map_err(|e| format!("submit: {e}"))?;
        let t = Instant::now();
        let horizon = probe_horizon(&spec.config_for(CORES)).map_err(|e| e.to_string())?;
        out.sample("campaign.probe_s", t.elapsed().as_secs_f64());
        Ok((programs, horizon))
    };
    let (programs, horizon) = time_setup(&mut out, &mut setup)?;

    // Fault-free reference run of the job's SoC: the shard's main
    // instruction count and the simulated checking slowdown.
    let refs: Vec<Baseline> = programs.iter().map(baseline).collect::<Result<_, _>>()?;
    let ref_list: Vec<&Baseline> = refs.iter().collect();
    let mut free = scenario(&programs).build().map_err(|e| e.to_string())?;
    let report = free.run_to_completion(crate::MAX_INSTRUCTIONS);
    check_run(&free, &report, &ref_list, false).map_err(|e| format!("fault-free run: {e}"))?;
    let shard_retired = report.retired;
    let slowdown = geomean(
        report
            .per_main
            .iter()
            .zip(&refs)
            .map(|(m, r)| m.finish_cycle as f64 / r.cycles as f64),
    );

    let dir = base.join("round");
    if !cfg.trace {
        // As for the step workloads, the reported round time is the
        // first quartile over rounds of its time at the reference host
        // speed (see `steps::untraced_run`).
        let mut walls = Vec::new();
        repeat_rounds(&mut out, cfg.seconds, SETUP_REPS, &mut setup, |out| {
            let (m, times) = round(out, tracer, &spec, &dir, workers)?;
            let wall = times.wall;
            if m.ok == spec.shards_per_config as u64 {
                walls.push(wall * times.factor);
                out.sample_rate("ops_per_s", m.ok as f64 / wall, times.factor);
                out.sample_time(
                    "host_ns_per_main_inst",
                    wall * 1e9 / (m.ok * shard_retired) as f64,
                    times.factor,
                );
                out.sample("sim_slowdown", slowdown);
            }
            Ok(m.digest)
        })?;
        if !walls.is_empty() {
            let wall = quartiles(&walls).0;
            let shards = spec.shards_per_config as f64;
            out.values.insert(
                "host_ns_per_main_inst",
                wall * 1e9 / (shards * shard_retired as f64),
            );
            out.values.insert("ops_per_s", shards / wall);
        }
        let _ = std::fs::remove_dir_all(&base);
        return Ok(out);
    }

    // Traced: each round steps the replicas (harness, DBC, memo and
    // arbiters on the fault path), then runs the campaign on every
    // worker, on two and on one, then times shards directly. Closure is
    // checked on the replica window alone: a campaign round is one
    // `campaignd.run` span whose whole duration would count as
    // attributed. How that span splits into shard compute and the
    // engine's own work is `campaignd.overhead_share`.
    let ops: Vec<Op> = (0..size.replicas)
        .map(|k| {
            let programs = &programs;
            Op {
                build: Box::new(move || {
                    scenario(programs)
                        .fault_plan(replica_plan(cfg.seed, k, horizon))
                        .build()
                }),
                refs: ref_list.clone(),
                faulted: true,
            }
        })
        .collect();
    let cfg16 = spec.config_for(CORES);
    let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut campaign = Samples::new();
    repeat_rounds(&mut out, cfg.seconds, 1, &mut setup, |out| {
        let (_, window) = traced_pair(out, tracer, &ops, cfg.seed, &programs)?;
        window.sample_closure(out);
        let (m, times) = round(out, tracer, &spec, &dir, workers)?;
        // Rate on exactly `w` workers, checked against the main round.
        let mut rate_on = |out: &mut Outcome, w: usize| {
            if w == workers {
                return Ok(m.ok as f64 / times.wall);
            }
            let (other, other_times) = round(out, tracer, &spec, &dir, w)?;
            if other.digest != m.digest {
                out.check(Err(format!("{w}-worker campaign merged different results")));
            }
            Ok::<_, String>(other.ok as f64 / other_times.wall)
        };
        let scaling = rate_on(out, 2)? / rate_on(out, 1)?;
        let mut shard_s = Vec::new();
        for k in 0..DIRECT_SHARDS.min(size.shards) {
            let t = Instant::now();
            let o = run_shard(&cfg16, horizon, k).map_err(|e| e.to_string())?;
            shard_s.push(t.elapsed().as_secs_f64());
            std::hint::black_box(o);
        }
        let shard_s = median(&shard_s);
        let clock = Clock::paper();
        let (p50, p99) = LatencyStats::from_cycles(&m.latencies, clock)
            .map_or((0.0, 0.0), |s| (s.p50_us, s.p99_us));
        let beyond = m
            .latencies
            .iter()
            .filter(|&&c| clock.cycles_to_us(c) > p99)
            .count();
        for (name, v) in [
            ("fault.armed", m.armed as f64),
            ("fault.landed", m.landed as f64),
            ("fault.expired", m.expired as f64),
            ("fault.detected", m.detected as f64),
            ("fault.coverage", share(m.detected, m.landed)),
            ("fault.detect_latency_us_p50", p50),
            ("fault.detect_latency_us_p99", p99),
            ("fault.detections_beyond_p99", beyond as f64),
            ("campaign.shard_s", shard_s),
            ("campaignd.merge_s", times.merge),
            ("campaignd.scaling_2w", scaling),
            (
                "campaignd.overhead_share",
                1.0 - shard_s * m.ok as f64 / (workers as f64 * times.wall),
            ),
        ] {
            campaign.entry(name).or_default().push(v);
        }
        Ok(m.digest)
    })?;
    let _ = std::fs::remove_dir_all(&base);
    crate::check_closure(&mut out);
    // The fault counters are the campaign's merged lines, replacing the
    // replicas' (which stay in the spans file).
    out.metrics.extend(campaign);
    Ok(out)
}
