//! `campaignd` — the resumable campaign driver.
//!
//! ```text
//! campaignd submit --dir DIR [--quick] [--name S] [--cores 8,16]
//!                  [--shards N] [--shots N] [--iters N] [--seed N]
//!                  [--rollback N]          write DIR/spec.json
//! campaignd run    --dir DIR [--workers N] [--max-shards N]
//!                                          drain shards (resumable)
//! campaignd resume --dir DIR [--workers N] [--max-shards N]
//!                                          alias of run
//! campaignd status --dir DIR               progress: total/done/pending
//! campaignd merge  --dir DIR [--out PATH]  shards -> merged.jsonl
//! ```
//!
//! `run` drains the pending shards on `--workers` threads (default: the
//! host's available parallelism), each claiming the next pending shard
//! in id order; `--max-shards N` runs only the first `N` pending shards.
//! It is killable at any instant — including `SIGKILL` — and a
//! subsequent `run`/`resume` redoes only the shards that were in
//! flight; the `merge` artifact comes out byte-identical either way.

use flexstep_bench::{arg_value, host_workers, run_bin, BenchError};
use flexstep_campaignd::{engine, JobSpec, RecoveryPolicy};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: campaignd <submit|run|resume|status|merge> [--dir DIR] ...";

fn main() -> ExitCode {
    run_bin(run)
}

fn run() -> Result<(), BenchError> {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("submit") => submit(&args),
        Some("run" | "resume") => drain(&args),
        Some("status") => status(&args),
        Some("merge") => merge(&args),
        _ => Err(BenchError::Config(USAGE.into())),
    }
}

fn dir_arg(args: &[String]) -> Result<PathBuf, BenchError> {
    arg_value(args, "--dir")
        .map(PathBuf::from)
        .ok_or_else(|| BenchError::Config(format!("--dir is required; {USAGE}")))
}

fn num_arg<T: std::str::FromStr>(args: &[String], key: &str) -> Result<Option<T>, BenchError> {
    arg_value(args, key)
        .map(|v| {
            v.parse()
                .map_err(|_| BenchError::Config(format!("{key} expects a number, got {v:?}")))
        })
        .transpose()
}

fn submit(args: &[String]) -> Result<(), BenchError> {
    let dir = dir_arg(args)?;
    let mut spec = JobSpec::quick();
    if let Some(name) = arg_value(args, "--name") {
        spec.name = name;
    }
    if let Some(list) = arg_value(args, "--cores") {
        spec.core_counts = list
            .split(',')
            .map(|c| {
                c.trim().parse().map_err(|_| {
                    BenchError::Config(format!("--cores expects numbers like 8,16 — got {c:?}"))
                })
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(n) = num_arg(args, "--shards")? {
        spec.shards_per_config = n;
    }
    if let Some(n) = num_arg(args, "--shots")? {
        spec.shots_per_shard = n;
    }
    if let Some(n) = num_arg(args, "--iters")? {
        spec.iters_per_main = n;
    }
    if let Some(n) = num_arg(args, "--seed")? {
        spec.seed = n;
    }
    if let Some(n) = num_arg(args, "--rollback")? {
        spec.recovery = RecoveryPolicy::Rollback { max_retries: n };
    }
    engine::submit(&dir, &spec)?;
    println!(
        "submitted {:?}: {} shards ({} configs x {}) -> {}",
        spec.name,
        spec.total_shards(),
        spec.core_counts.len(),
        spec.shards_per_config,
        dir.display()
    );
    Ok(())
}

fn drain(args: &[String]) -> Result<(), BenchError> {
    let dir = dir_arg(args)?;
    let workers = num_arg(args, "--workers")?.unwrap_or_else(host_workers);
    let max_shards = num_arg(args, "--max-shards")?;
    let summary = engine::run(&dir, workers, max_shards)?;
    println!(
        "ran {} shards on {} workers ({} already done, {} remaining) — \
         {} engine steps in {:.2} s ({:.0} steps/s)",
        summary.ran,
        workers,
        summary.skipped,
        summary.remaining,
        summary.engine_steps,
        summary.wall_s,
        summary.engine_steps as f64 / summary.wall_s.max(1e-9),
    );
    Ok(())
}

fn status(args: &[String]) -> Result<(), BenchError> {
    let dir = dir_arg(args)?;
    let st = engine::status(&dir)?;
    println!(
        "campaign {:?}: {}/{} shards done, {} pending",
        st.name,
        st.done,
        st.total,
        st.pending()
    );
    Ok(())
}

fn merge(args: &[String]) -> Result<(), BenchError> {
    let dir = dir_arg(args)?;
    let out = arg_value(args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| engine::merged_path(&dir));
    let shards = engine::merge(&dir, &out)?;
    println!("merged {} shards -> {}", shards, out.display());
    Ok(())
}
