//! The FlexStep benchmark: three workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from a separate traced run.
//!
//! Every layer is timed from outside, around calls into its public
//! functions; nothing in the measured crates is instrumented. See
//! `README.md` in this directory for the workloads, the metrics and the
//! end-to-end metric each per-layer metric is meant to move.

pub mod calib;
pub mod campaign;
pub mod paired;
pub mod probes;
pub mod shared;
pub mod stats;
pub mod steps;
pub mod trace;

use flexstep_core::json::JsonObject;
use flexstep_core::{CoreModelKind, RunReport, VerifiedRun};
use flexstep_isa::asm::Program;
use flexstep_sim::{ArchSnapshot, Soc, SocConfig};
use stats::{quartiles, Digest};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`): name and unit, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_ns_per_main_inst", "ns"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_slowdown", "x"),
];

/// Per-layer metrics (`--trace 1`): name and unit, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("harness.main_dispatch_ns", "ns"),
    ("harness.checker_dispatch_ns", "ns"),
    ("harness.checker_time_share", "fraction"),
    ("harness.main_stall_share", "fraction"),
    ("harness.dispatches_per_main_inst", "ratio"),
    ("harness.checker_wait_share", "fraction"),
    ("harness.trace_overhead", "x"),
    ("harness.peek_error_bound", "count"),
    ("sim.unverified_ns_per_inst", "ns"),
    ("sim.checking_tax", "x"),
    ("sim.next_ready_ns_2c", "ns"),
    ("sim.next_ready_ns_16c", "ns"),
    ("sim.main_ipc", "ipc"),
    ("dbc.ns_per_packet", "ns"),
    ("dbc.packets_per_main_inst", "ratio"),
    ("dbc.peak_bytes", "bytes"),
    ("dbc.spilled_packets", "count"),
    ("dbc.backpressure_stalls", "count"),
    ("dbc.checker_wait_stalls", "count"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("memo.hit_rate", "fraction"),
    ("share.arbiter_switches", "count"),
    ("share.arbiter_conflicts", "count"),
    ("fault.armed", "count"),
    ("fault.landed", "count"),
    ("fault.expired", "count"),
    ("fault.detected", "count"),
    ("fault.coverage", "fraction"),
    ("fault.detect_latency_us_p50", "sim_us"),
    ("fault.detect_latency_us_p99", "sim_us"),
    ("fault.detections_beyond_p99", "count"),
    ("workloads.program_ms", "ms"),
    ("scenario.build_ms", "ms"),
    ("campaign.shard_s", "s"),
    ("campaign.probe_s", "s"),
    ("campaignd.overhead_share", "fraction"),
    ("campaignd.scaling_2w", "x"),
    ("campaignd.merge_s", "s"),
    ("trace.closure_share", "fraction"),
    ("trace.unattributed_share", "fraction"),
];

/// Allowed distance of `trace.closure_share` from 1.
pub const CLOSURE_TOLERANCE: f64 = 0.10;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 4's path: every suite program, paired dual-core verified run.
    PairedSuite,
    /// 16 cores, 4 shared checkers, mixed modes, OoO mains, pairing.
    SharedModes,
    /// Fig. 7's path through `campaignd`: submit, run, merge.
    FaultCampaign,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paired_suite" => Some(Workload::PairedSuite),
            "shared_modes" => Some(Workload::SharedModes),
            "fault_campaign" => Some(Workload::FaultCampaign),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PairedSuite => "paired_suite",
            Workload::SharedModes => "shared_modes",
            Workload::FaultCampaign => "fault_campaign",
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (untraced runs repeat rounds until they pass).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced.
    pub trace: bool,
    /// Toy-sized inputs (the benchmark's own tests).
    pub toy: bool,
    /// Where results, spans and campaign directories go.
    pub out_dir: PathBuf,
}

/// Metric samples by name; a metric's value is its samples' median.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

/// A printed metric.
#[derive(Debug, Clone)]
pub struct MetricRow {
    /// Declared name.
    pub name: &'static str,
    /// Declared unit.
    pub unit: &'static str,
    /// Reported value.
    pub value: f64,
    /// The samples it was computed from.
    pub samples: Vec<f64>,
}

/// What a workload reports back.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed (left out of timings).
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Metric samples.
    pub metrics: Samples,
    /// A metric's reported value where it is not its samples' median
    /// (the host-time metrics, see `steps::untraced_run`).
    pub values: BTreeMap<&'static str, f64>,
    /// Host figures before scaling to the reference speed, and the
    /// scale factors (`host_speed`), for the provenance record.
    pub unscaled: Samples,
    /// Digest of the simulated statistics of one round.
    pub digest: u64,
    /// Rounds measured.
    pub rounds: usize,
}

impl Outcome {
    /// Records one sample.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.metrics.entry(name).or_default().push(value);
    }

    /// Records a host time (or a time per instruction) measured at
    /// scale `factor` (see [`calib`]): the scaled value as the sample,
    /// the measured one in the provenance record.
    pub fn sample_time(&mut self, name: &'static str, measured: f64, factor: f64) {
        self.sample(name, measured * factor);
        self.unscaled.entry(name).or_default().push(measured);
        self.unscaled.entry("host_speed").or_default().push(factor);
    }

    /// Records a host rate measured at scale `factor`.
    pub fn sample_rate(&mut self, name: &'static str, per_s: f64, factor: f64) {
        self.sample(name, per_s / factor);
        self.unscaled.entry(name).or_default().push(per_s);
    }

    /// Records an operation's check result.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(e);
        }
    }

    /// Every operation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// An unverified single-core run of one program: the reference every
/// verified main is checked against.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Cycle the program finished at.
    pub cycles: u64,
    /// Instructions retired.
    pub instret: u64,
    /// Final architectural state.
    pub snapshot: ArchSnapshot,
}

/// Runs `program` unverified on a one-core in-order SoC.
pub fn baseline(program: &Program) -> Result<Baseline, String> {
    baseline_on(program, CoreModelKind::InOrder)
}

/// Runs `program` unverified on a one-core SoC of timing model `kind`.
pub fn baseline_on(program: &Program, kind: CoreModelKind) -> Result<Baseline, String> {
    let mut soc = Soc::new(SocConfig::paper(1)).map_err(|e| e.to_string())?;
    soc.set_core_model(0, kind);
    soc.run_to_ecall(program, MAX_INSTRUCTIONS);
    Ok(Baseline {
        cycles: soc.now(),
        instret: soc.core(0).instret,
        snapshot: soc.core(0).state.snapshot(),
    })
}

/// Budget for any single run; every workload finishes far below it.
pub const MAX_INSTRUCTIONS: u64 = 2_000_000_000;

/// Checks a verified run against the unverified references of its
/// mains: it completed, each main retired the same instructions and
/// ended in the same architectural state as its reference (injected
/// faults corrupt the checking stream, never the main), and either
/// nothing was detected (`faulted` false) or the shot accounts balance:
/// `detected <= landed <= armed` and `landed + expired == armed`.
pub fn check_run(
    run: &VerifiedRun,
    report: &RunReport,
    refs: &[&Baseline],
    faulted: bool,
) -> Result<(), String> {
    if !report.completed {
        return Err("run did not complete".into());
    }
    if faulted {
        let detected = report.matched_detections().len() as u64;
        let landed = report.injections.len() as u64;
        let armed = report.shots_armed;
        if !(detected <= landed && landed <= armed) || landed + report.shots_expired != armed {
            return Err(format!(
                "shot accounts do not balance: detected {detected}, landed {landed}, \
                 expired {}, armed {armed}",
                report.shots_expired
            ));
        }
    } else if report.segments_failed != 0 || !report.detections.is_empty() {
        return Err(format!(
            "fault-free run failed {} segments with {} detections",
            report.segments_failed,
            report.detections.len()
        ));
    }
    if report.per_main.len() != refs.len() {
        return Err("main count differs from the program count".into());
    }
    for ((m, r), &core) in report.per_main.iter().zip(refs).zip(run.mains()) {
        if !m.completed || m.retired != r.instret {
            return Err(format!(
                "main {core} retired {} (completed {}), reference {}",
                m.retired, m.completed, r.instret
            ));
        }
        if run.soc().core(core).state.snapshot() != r.snapshot {
            return Err(format!("main {core} ended in a different state"));
        }
    }
    Ok(())
}

/// Folds a run's simulated statistics into `d`.
pub fn digest_report(d: &mut Digest, report: &RunReport) {
    d.push(report.main_finish_cycle);
    d.push(report.drain_cycle);
    d.push(report.retired);
    d.push(report.segments_checked);
    d.push(report.segments_failed);
    d.push(report.detections.len() as u64);
    for m in &report.per_main {
        d.push(m.finish_cycle);
    }
}

/// Runs the workload's set-up once, timed, and records a `setup_s`
/// sample at the reference host speed (see [`calib`]). The set-up may
/// record samples of its own parts. Returns its value.
pub fn time_setup<T>(
    out: &mut Outcome,
    setup: &mut impl FnMut(&mut Outcome) -> Result<T, String>,
) -> Result<T, String> {
    let (value, secs, factor) = calib::timed(|| setup(out));
    let value = value?;
    out.sample_time("setup_s", secs, factor);
    Ok(value)
}

/// Runs rounds until `seconds` have passed (at least one), checking
/// that every round reproduces the first round's simulated digest.
///
/// Each round first repeats the workload's set-up `setup_reps` times,
/// each timed, so `setup_s` gets as many samples as the ops and its
/// sample count grows with the run length, as theirs does. `setup_s`
/// reports the first quartile of its samples, for the reason
/// `steps::untraced_run` gives.
pub fn repeat_rounds<T>(
    out: &mut Outcome,
    seconds: f64,
    setup_reps: usize,
    setup: &mut impl FnMut(&mut Outcome) -> Result<T, String>,
    mut round: impl FnMut(&mut Outcome) -> Result<u64, String>,
) -> Result<(), String> {
    let start = Instant::now();
    loop {
        for _ in 0..setup_reps {
            time_setup(out, setup)?;
        }
        let digest = round(out)?;
        if out.rounds == 0 {
            out.digest = digest;
        } else if digest != out.digest {
            out.check(Err(format!(
                "round {} simulated digest {digest:016x} differs from {:016x}",
                out.rounds, out.digest
            )));
        }
        out.rounds += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out.values
        .insert("setup_s", quartiles(&out.metrics["setup_s"]).0);
    Ok(())
}

/// Fails the traced run when the median `trace.closure_share` over its
/// rounds lies outside 1 ± [`CLOSURE_TOLERANCE`].
pub fn check_closure(out: &mut Outcome) {
    let closure = out
        .metrics
        .get("trace.closure_share")
        .map_or(0.0, |s| stats::median(s));
    if (closure - 1.0).abs() > CLOSURE_TOLERANCE {
        out.check(Err(format!(
            "layer self times cover {closure:.3} of the traced wall, \
             outside 1 ± {CLOSURE_TOLERANCE}"
        )));
    }
}

/// Runs the configured workload.
///
/// # Errors
///
/// Returns a message when the benchmark itself cannot run (bad
/// configuration, I/O). Output check failures are counted, not errors.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let mut tracer = trace::Tracer::new(cfg.trace);
    let mut out = match cfg.workload {
        Workload::PairedSuite => paired::run(cfg, &mut tracer)?,
        Workload::SharedModes => shared::run(cfg, &mut tracer)?,
        Workload::FaultCampaign => campaign::run(cfg, &mut tracer)?,
    };
    if cfg.trace {
        probes::run(&mut out)?;
        let path = cfg.out_dir.join(format!(
            "spans-{}-seed{}.json",
            cfg.workload.name(),
            cfg.seed
        ));
        std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    } else if let Some(rss) = stats::peak_rss_mib() {
        // The calibration table is the benchmark's, not the program's.
        out.sample("peak_rss_mib", rss - calib::TABLE_MIB);
    }
    Ok(out)
}

/// The metrics a run prints: every declared metric of its kind, in
/// declared order. A per-layer metric the workload does not exercise
/// reads 0.
///
/// # Errors
///
/// Names an end-to-end metric the workload failed to produce.
pub fn declared_metrics(cfg: &Config, out: &Outcome) -> Result<Vec<MetricRow>, String> {
    let declared = if cfg.trace { PER_LAYER } else { END_TO_END };
    declared
        .iter()
        .map(|&(name, unit)| {
            let samples = match out.metrics.get(name) {
                Some(v) if !v.is_empty() => v.clone(),
                _ if cfg.trace => vec![0.0],
                _ => return Err(format!("workload produced no {name}")),
            };
            let value = out
                .values
                .get(name)
                .copied()
                .unwrap_or_else(|| stats::median(&samples));
            if !value.is_finite() || !samples.iter().all(|x| x.is_finite()) {
                return Err(format!("metric {name} is not a finite number"));
            }
            Ok(MetricRow {
                name,
                unit,
                value,
                samples,
            })
        })
        .collect()
}

/// The commit being measured: `PERFBENCH_COMMIT` if set, else
/// `.git/HEAD` resolved in the working directory, else "unknown".
pub fn commit() -> String {
    if let Ok(c) = std::env::var("PERFBENCH_COMMIT") {
        return c;
    }
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// The provenance record: inputs, host, and each metric's median,
/// quartiles and sample count.
pub fn provenance(cfg: &Config, out: &Outcome, metrics: &[MetricRow]) -> String {
    let mut per = JsonObject::new();
    for m in metrics {
        let (q1, med, q3) = quartiles(&m.samples);
        let mut o = JsonObject::new();
        o.field_str("unit", m.unit)
            .field_f64("value", m.value)
            .field_f64("median", med)
            .field_f64("q1", q1)
            .field_f64("q3", q3)
            .field_u64("samples", m.samples.len() as u64);
        per.field_raw(m.name, &o.finish());
    }
    let mut unscaled = JsonObject::new();
    for (name, samples) in &out.unscaled {
        let (q1, med, q3) = quartiles(samples);
        let mut o = JsonObject::new();
        o.field_f64("median", med)
            .field_f64("q1", q1)
            .field_f64("q3", q3)
            .field_u64("samples", samples.len() as u64);
        unscaled.field_raw(name, &o.finish());
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut o = JsonObject::new();
    o.field_str("commit", &commit())
        .field_u64("host_cores", cores as u64)
        .field_str("workload", cfg.workload.name())
        .field_u64("seed", cfg.seed)
        .field_f64("seconds", cfg.seconds)
        .field_bool("trace", cfg.trace)
        .field_bool("toy", cfg.toy)
        .field_u64("rounds", out.rounds as u64)
        .field_u64("attempted", out.attempted)
        .field_u64("failed", out.failed)
        .field_str("sim_digest", &format!("{:016x}", out.digest))
        .field_str(
            "sim_model",
            "unvalidated against hardware: simulated figures carry no error bound",
        )
        .field_raw("metrics", &per.finish())
        .field_raw("unscaled", &unscaled.finish());
    o.finish()
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as its value with its unit. Values print
/// with every digit Rust's shortest round-trip form gives.
pub fn result_line(out: &Outcome, metrics: &[MetricRow]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        body.join(", ")
    )
}
