//! Fig. 7 × Fig. 8: the many-core fault-injection campaign — thousands
//! of `FaultPlan` shots across 16/32/64-core shared-checker SoCs, with
//! per-main and per-checker-pool detection-latency distributions and
//! coverage (detected/landed and detected/armed), emitted as a JSON
//! artifact.
//!
//! Usage: `fig7_manycore [--quick] [--recovery] [--cores N] [--out PATH] [--trace PATH]`
//!
//! - `--quick`: one 64-core campaign with 240 armed shots (CI).
//! - `--recovery`: run under `RecoveryPolicy::Rollback { max_retries: 3 }`
//!   — rows additionally report recovered/unrecovered counts and the
//!   detect → verified-again latency distribution.
//! - `--cores N`: override the core counts with a single count.
//! - `--out PATH`: JSON artifact path (default `FIG7_MANYCORE.json`).
//! - `--trace PATH`: additionally record the first row's chunk-0
//!   schedule as size-bounded Chrome `trace_event` JSON (open in
//!   `chrome://tracing` or Perfetto).

use flexstep_bench::campaign::{fig7_manycore_sweep, CampaignRow};
use flexstep_bench::{arg_value, latency_histogram, run_bin, write_artifact, BenchError};
use flexstep_bench::{LatencyStats, RecoveryPolicy};
use flexstep_core::json::{array, JsonObject};
use std::process::ExitCode;

fn main() -> ExitCode {
    run_bin(run)
}

fn run() -> Result<(), BenchError> {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let recover = args.iter().any(|a| a == "--recovery");
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "FIG7_MANYCORE.json".into());
    let trace_path = arg_value(&args, "--trace");
    let cores: Vec<usize> = match arg_value(&args, "--cores") {
        Some(v) => {
            let n = v
                .parse()
                .map_err(|_| BenchError::Config(format!("--cores expects a number, got {v:?}")))?;
            vec![n]
        }
        // Quick keeps the 64-core row: the artifact's floor is a
        // >=64-core campaign with >=200 armed shots.
        None if quick => vec![64],
        None => vec![16, 32, 64],
    };
    let policy = if recover {
        RecoveryPolicy::Rollback { max_retries: 3 }
    } else {
        RecoveryPolicy::Detect
    };

    println!("Fig. 7 (many-core) — error-detection latency under a shared-checker campaign");
    println!(
        "{:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8}  histogram 0..120µs",
        "cores", "mains", "pools", "armed", "landed", "det", "expired", "cov/land", "cov/armed",
        "mean µs", "p99 µs", "max µs"
    );
    let trace = trace_path.as_ref().map(std::path::Path::new);
    let rows = fig7_manycore_sweep(&cores, quick, trace, policy)?;
    let mut rows_json = Vec::new();
    for row in &rows {
        if !row.completed {
            return Err(BenchError::Invariant(format!(
                "campaign chunks did not finish at {} cores",
                row.cores
            )));
        }
        if !(row.detected <= row.landed && row.landed <= row.armed) {
            return Err(BenchError::Invariant(format!(
                "attribution must hold detected <= landed <= armed, got {}/{}/{} at {} cores",
                row.detected, row.landed, row.armed, row.cores
            )));
        }
        print_row(row, recover);
        rows_json.push(row.to_json());
    }

    let mut out = JsonObject::new();
    {
        let mut meta = JsonObject::new();
        meta.field_str("tool", "fig7_manycore")
            .field_bool("quick", quick)
            .field_bool("recovery", recover);
        if recover {
            meta.field_u64("max_retries", 3);
        }
        out.field_raw("meta", &meta.finish());
    }
    out.field_raw("rows", &array(&rows_json));
    let json = out.finish();
    write_artifact(&out_path, &json)?;
    println!();
    println!("wrote {out_path}");
    if let Some(path) = &trace_path {
        println!("wrote schedule trace {path} (open in chrome://tracing or Perfetto)");
    }
    Ok(())
}

fn fmt_stats(stats: &Option<LatencyStats>) -> (String, String, String) {
    stats.map_or(("n/a".into(), "n/a".into(), "n/a".into()), |s| {
        (
            format!("{:.1}", s.mean_us),
            format!("{:.1}", s.p99_us),
            format!("{:.1}", s.max_us),
        )
    })
}

fn print_row(row: &CampaignRow, recover: bool) {
    let (mean, p99, max) = fmt_stats(&row.stats);
    println!(
        "{:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7.1}% {:>7.1}% {:>8} {:>8} {:>8}  |{}|",
        row.cores,
        row.mains,
        row.checkers,
        row.armed,
        row.landed,
        row.detected,
        row.expired,
        100.0 * row.coverage_landed(),
        100.0 * row.coverage_armed(),
        mean,
        p99,
        max,
        latency_histogram(&row.latencies_us),
    );
    if recover {
        let (mean, p99, max) = fmt_stats(&row.recovery_stats);
        println!(
            "       recovery: {:>4} recovered {:>4} unrecovered  rate {:>6.1}%  \
             latency mean {mean} µs p99 {p99} µs max {max} µs",
            row.recovered,
            row.unrecovered,
            100.0 * row.recovery_rate(),
        );
    }
    for pool in &row.per_pool {
        let mean = pool
            .stats
            .map_or("n/a".into(), |s| format!("{:.1}", s.mean_us));
        println!(
            "       pool @core {:>3}: {:>4} armed {:>4} landed {:>4} detected  mean {:>7} µs",
            pool.core, pool.armed, pool.landed, pool.detected, mean
        );
    }
}
