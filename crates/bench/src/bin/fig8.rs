//! Fig. 8: many-core scaling — the analytical 28 nm area/power model
//! (2–32 cores, calibrated to the paper's anchors) **plus** actual
//! many-core simulations: 16/32/64-core SoCs with §III-C shared-checker
//! pools built through the `Scenario` front door, reporting detection
//! latency and scheduler scaling, and emitting a JSON artifact.
//!
//! Usage: `fig8 [--quick] [--no-sim] [--ooo] [--out PATH] [--trace PATH]`
//!
//! - `--quick`: 16-core simulation only, reduced workloads (CI).
//! - `--no-sim`: analytical model tables only.
//! - `--ooo`: additionally run the heterogeneous core-model sweep —
//!   every checker tier × {in-order, OoO} mains on a memory-bound
//!   workload, reporting the checker-vs-main IPC balance and campaign
//!   coverage per cell (ISSUE 9).
//! - `--out PATH`: JSON artifact path (default `FIG8.json`).
//! - `--trace PATH`: additionally record the first simulated row's
//!   schedule as size-bounded Chrome `trace_event` JSON (open in
//!   `chrome://tracing` or Perfetto).

use flexstep_bench::manycore::{fig8_sweep, hetero_sweep};
use flexstep_bench::{arg_value, run_bin, write_artifact, BenchError};
use flexstep_core::json::{array, JsonObject};
use flexstep_soc::{flexstep_soc, vanilla_soc};
use std::process::ExitCode;

fn main() -> ExitCode {
    run_bin(run)
}

fn run() -> Result<(), BenchError> {
    let args: Vec<String> = std::env::args().collect();
    let flag = |k: &str| args.iter().any(|a| a == k);
    let quick = flag("--quick");
    let no_sim = flag("--no-sim");
    let ooo = flag("--ooo");
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "FIG8.json".into());
    let trace_path = arg_value(&args, "--trace");
    if no_sim && trace_path.is_some() {
        eprintln!("warning: --trace ignored with --no-sim (the trace records a simulated run)");
    }

    // --- analytical model (the paper's actual Fig. 8) -------------------
    println!("Fig. 8(a) — average power (W)");
    println!(
        "{:>8} {:>10} {:>10} {:>9}",
        "cores", "Vanilla", "FlexStep", "overhead"
    );
    let mut model_rows = Vec::new();
    for n in [2usize, 4, 8, 16, 32] {
        let v = vanilla_soc(n);
        let f = flexstep_soc(n);
        println!(
            "{:>8} {:>10.3} {:>10.3} {:>8.2}%",
            n,
            v.power_w(),
            f.power_w(),
            100.0 * (f.power_w() - v.power_w()) / v.power_w()
        );
        let mut o = JsonObject::new();
        o.field_u64("cores", n as u64)
            .field_f64("vanilla_power_w", v.power_w())
            .field_f64("flexstep_power_w", f.power_w())
            .field_f64("vanilla_area_mm2", v.area_mm2())
            .field_f64("flexstep_area_mm2", f.area_mm2());
        model_rows.push(o.finish());
    }
    println!();
    println!("Fig. 8(b) — area (mm²)");
    println!(
        "{:>8} {:>10} {:>10} {:>9}",
        "cores", "Vanilla", "FlexStep", "overhead"
    );
    for n in [2usize, 4, 8, 16, 32] {
        let v = vanilla_soc(n);
        let f = flexstep_soc(n);
        println!(
            "{:>8} {:>10.3} {:>10.3} {:>8.2}%",
            n,
            v.area_mm2(),
            f.area_mm2(),
            100.0 * (f.area_mm2() - v.area_mm2()) / v.area_mm2()
        );
    }

    // --- many-core shared-checker simulations ---------------------------
    let mut sim_rows_json = Vec::new();
    if !no_sim {
        let cores: &[usize] = if quick { &[16] } else { &[16, 32, 64] };
        println!();
        println!("Fig. 8(c) — simulated many-core SoCs with shared-checker pools");
        println!(
            "{:>6} {:>6} {:>6} {:>12} {:>12} {:>9} {:>5} {:>5} {:>12} {:>9}",
            "cores",
            "mains",
            "chk",
            "steps",
            "steps/s",
            "segments",
            "inj",
            "det",
            "latency µs",
            "switches"
        );
        let trace = trace_path.as_ref().map(std::path::Path::new);
        for row in fig8_sweep(cores, quick, trace) {
            if !row.completed {
                return Err(BenchError::Invariant(format!(
                    "many-core run did not finish within budget at {} cores",
                    row.cores
                )));
            }
            println!(
                "{:>6} {:>6} {:>6} {:>12} {:>12.3e} {:>9} {:>5} {:>5} {:>12} {:>9}",
                row.cores,
                row.mains,
                row.checkers,
                row.engine_steps,
                row.steps_per_sec,
                row.segments_checked,
                row.injected,
                row.detected,
                row.mean_detection_latency_us
                    .map_or("n/a".into(), |v| format!("{v:.2}")),
                row.arbiter_switches,
            );
            sim_rows_json.push(row.to_json());
        }
        if let Some(path) = &trace_path {
            println!();
            println!("wrote schedule trace {path} (open in chrome://tracing or Perfetto)");
        }
    }

    // --- heterogeneous core-model sweep (--ooo) --------------------------
    let mut ooo_rows_json = Vec::new();
    if ooo {
        let cores: &[usize] = if quick { &[16] } else { &[16, 32] };
        println!();
        println!("Fig. 8(d) — heterogeneous mains: checker tiers x core models");
        println!(
            "{:>6} {:>6} {:>6} {:>6} {:>8} {:>9} {:>11} {:>5} {:>5} {:>9}",
            "cores",
            "mains",
            "chk",
            "tier",
            "model",
            "main IPC",
            "checker IPC",
            "inj",
            "det",
            "coverage"
        );
        for row in hetero_sweep(cores, quick) {
            if !row.completed {
                return Err(BenchError::Invariant(format!(
                    "heterogeneous run did not finish at {} cores ({} mains, tier {})",
                    row.cores, row.model, row.tier
                )));
            }
            println!(
                "{:>6} {:>6} {:>6} {:>6} {:>8} {:>9.3} {:>11.3} {:>5} {:>5} {:>8.1}%",
                row.cores,
                row.mains,
                row.checkers,
                row.tier,
                row.model.label(),
                row.main_ipc,
                row.checker_ipc,
                row.injected,
                row.detected,
                row.coverage_pct(),
            );
            // The §IV sizing argument this sweep exists to demonstrate:
            // log-backed replay with forwarded outcomes keeps every
            // checker tier's IPC at or above its mains' — even OoO
            // mains — while the campaign stays covered.
            if row.checker_ipc < row.main_ipc {
                return Err(BenchError::Invariant(format!(
                    "checker IPC {:.3} fell below main IPC {:.3} at {} cores tier {} ({})",
                    row.checker_ipc, row.main_ipc, row.cores, row.tier, row.model
                )));
            }
            if row.coverage_pct() < 99.0 {
                return Err(BenchError::Invariant(format!(
                    "campaign coverage {:.1}% below 99% at {} cores tier {} ({})",
                    row.coverage_pct(),
                    row.cores,
                    row.tier,
                    row.model
                )));
            }
            ooo_rows_json.push(row.to_json());
        }
    }

    // --- JSON artifact ---------------------------------------------------
    let mut out = JsonObject::new();
    {
        let mut meta = JsonObject::new();
        meta.field_str("tool", "fig8")
            .field_bool("quick", quick)
            .field_bool("simulated", !no_sim)
            .field_bool("ooo", ooo);
        out.field_raw("meta", &meta.finish());
    }
    out.field_raw("model", &array(&model_rows));
    out.field_raw("simulation", &array(&sim_rows_json));
    if ooo {
        out.field_raw("ooo", &array(&ooo_rows_json));
    }
    let json = out.finish();
    write_artifact(&out_path, &json)?;
    println!();
    println!("wrote {out_path}");
    Ok(())
}
