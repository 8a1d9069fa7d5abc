//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`.
//!
//! Prints a provenance line, then, as the last line of standard output,
//! the result object. Result and span files go to `.bench_out`. Exits
//! non-zero without a result when the benchmark cannot run.

use perfbench::{declared_metrics, provenance, result_line, run, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Config, String> {
    let value = |key: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let workload = value("--workload")?;
    let trace = value("--trace")?;
    Ok(Config {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match trace {
            "0" => false,
            "1" => true,
            _ => return Err(format!("--trace must be 0 or 1, got {trace:?}")),
        },
        toy: false,
        out_dir: PathBuf::from(".bench_out"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|cfg| {
        let out = run(&cfg)?;
        let metrics = declared_metrics(&cfg, &out)?;
        for f in &out.failures {
            eprintln!("check failed: {f}");
        }
        let record = provenance(&cfg, &out, &metrics);
        let path = cfg.out_dir.join(format!(
            "result-{}-seed{}-trace{}.json",
            cfg.workload.name(),
            cfg.seed,
            u8::from(cfg.trace)
        ));
        std::fs::write(&path, &record).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok((record, result_line(&out, &metrics)))
    });
    match result {
        Ok((record, line)) => {
            println!("{{\"provenance\": {record}}}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
