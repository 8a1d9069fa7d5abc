//! Fig. 5: percentage of schedulable task sets under LockStep, HMR and
//! FlexStep across utilisations and system configurations (a)–(f).
//!
//! Usage: `fig5 [--sets N] [--seed S] [--plot a|b|c|d|e|f]`

use flexstep_bench::{host_workers, par_map};
use flexstep_sched::{paper_utilization_axis, sweep, Fig5Config};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sets: usize = arg_value(&args, "--sets")
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2025);
    let only = arg_value(&args, "--plot");
    let axis = paper_utilization_axis();

    for (label, cfg) in Fig5Config::paper_all() {
        if let Some(want) = &only {
            if want != &label.to_string() {
                continue;
            }
        }
        println!(
            "Fig. 5({label}): m={}, n={}, α={:.2}%, β={:.2}%   ({sets} sets/point)",
            cfg.m,
            cfg.n,
            cfg.alpha * 100.0,
            cfg.beta * 100.0
        );
        println!(
            "{:>6} {:>10} {:>8} {:>10}",
            "util", "LockStep", "HMR", "FlexStep"
        );
        // `sweep` seeds each point from its utilisation value, so
        // single-point sweeps equal one sweep over the whole axis.
        for p in par_map(&axis, host_workers(), |&u| sweep(&cfg, &[u], sets, seed)[0]) {
            println!(
                "{:>6.2} {:>9.1}% {:>7.1}% {:>9.1}%",
                p.utilization, p.lockstep, p.hmr, p.flexstep
            );
        }
        println!();
    }
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}
