//! Fig. 7: probability distribution of error-detection latency per
//! Parsec workload under random fault injection into forwarded data.
//!
//! Usage: `fig7 [--injections N] [--seed S] [--scale test|small|medium]`

use flexstep_bench::{fig7, latency_histogram};
use flexstep_workloads::{parsec, Scale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let injections: usize = arg_value(&args, "--injections")
        .and_then(|v| v.parse().ok())
        .unwrap_or(60);
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);
    let scale = match arg_value(&args, "--scale").as_deref() {
        Some("small") => Scale::Small,
        Some("medium") => Scale::Medium,
        _ => Scale::Test,
    };

    println!("Fig. 7 — error-detection latency (µs), {injections} injections/workload");
    println!(
        "{:<16} {:>5} {:>5} {:>8} {:>8} {:>8} {:>8}  histogram 0..120µs",
        "workload", "inj", "det", "mean", "p50", "p99", "max"
    );
    for row in fig7(&parsec(), scale, injections, seed) {
        match &row.stats {
            Some(s) => println!(
                "{:<16} {:>5} {:>5} {:>8.1} {:>8.1} {:>8.1} {:>8.1}  |{}|",
                row.name,
                row.injected,
                row.detected,
                s.mean_us,
                s.p50_us,
                s.p99_us,
                s.max_us,
                latency_histogram(&row.latencies_us),
            ),
            None => println!(
                "{:<16} {:>5} {:>5}  (no detections)",
                row.name, row.injected, 0
            ),
        }
    }
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}
