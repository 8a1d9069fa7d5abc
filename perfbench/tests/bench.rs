//! The benchmark's own tests, on toy-sized inputs: every workload
//! completes with no failed operation, prints exactly the metrics
//! `BENCHMARK.json` declares, closes its layer accounting, and repeats
//! its simulated digest at a given seed.

use flexstep_core::json::JsonValue;
use perfbench::{
    check_closure, declared_metrics, run, Config, Outcome, Workload, CLOSURE_TOLERANCE,
};
use std::path::PathBuf;

const WORKLOADS: [Workload; 3] = [
    Workload::PairedSuite,
    Workload::SharedModes,
    Workload::FaultCampaign,
];

fn toy(workload: Workload, seed: u64, trace: bool) -> (Config, Outcome) {
    toy_for(workload, seed, trace, 0.0)
}

fn toy_for(workload: Workload, seed: u64, trace: bool, seconds: f64) -> (Config, Outcome) {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{}-{seed}-{trace}", workload.name()));
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        toy: true,
        out_dir,
    };
    let out = run(&cfg).expect("benchmark runs");
    assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.failures);
    assert!(out.attempted > 0 && out.correct());
    (cfg, out)
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics_with_no_failures() {
    for w in WORKLOADS {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let (cfg, out) = toy(w, 7, trace);
            let printed: Vec<(String, String)> = declared_metrics(&cfg, &out)
                .expect("every metric present")
                .into_iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(printed, declared(section), "{} trace {trace}", w.name());
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for w in WORKLOADS {
        let (cfg, out) = toy(w, 3, false);
        for m in declared_metrics(&cfg, &out).unwrap() {
            assert!(
                m.value > 0.0 && m.samples.iter().all(|&v| v > 0.0),
                "{} {}: {} {:?}",
                w.name(),
                m.name,
                m.value,
                m.samples
            );
        }
    }
}

#[test]
fn traced_runs_close_within_tolerance() {
    // Toy ops take milliseconds: take the median over a second of
    // traced rounds, as a full run does over its run length.
    for w in WORKLOADS {
        let (_, out) = toy_for(w, 5, true, 1.0);
        let closure = perfbench::stats::median(&out.metrics["trace.closure_share"]);
        assert!(
            (closure - 1.0).abs() <= CLOSURE_TOLERANCE,
            "{} closure {closure}",
            w.name()
        );
    }
}

#[test]
fn a_closure_outside_tolerance_fails_the_run() {
    for (closure, failed) in [
        (1.0 + CLOSURE_TOLERANCE / 2.0, 0),
        (1.0 + 2.0 * CLOSURE_TOLERANCE, 1),
        (1.0 - 2.0 * CLOSURE_TOLERANCE, 1),
    ] {
        let mut out = Outcome::default();
        out.sample("trace.closure_share", closure);
        check_closure(&mut out);
        assert_eq!(out.failed, failed, "closure {closure}");
    }
}

#[test]
fn one_seed_repeats_its_simulated_digest_and_counts() {
    for w in WORKLOADS {
        let (_, a) = toy(w, 11, false);
        let (_, b) = toy(w, 11, false);
        assert_eq!(a.digest, b.digest, "{}", w.name());
        let (_, t) = toy(w, 11, true);
        assert_eq!(a.digest, t.digest, "{} traced", w.name());
        let (_, u) = toy(w, 11, true);
        for (name, unit) in declared("per_layer") {
            if unit == "count" {
                assert_eq!(
                    t.metrics.get(name.as_str()),
                    u.metrics.get(name.as_str()),
                    "{name}"
                );
            }
        }
    }
}

#[test]
fn seeds_change_the_inputs() {
    let (_, a) = toy(Workload::SharedModes, 1, false);
    let (_, b) = toy(Workload::SharedModes, 2, false);
    assert_ne!(a.digest, b.digest);
}
