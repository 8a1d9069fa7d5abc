//! Fig. 4: performance slowdown of LockStep, FlexStep and Nzdc on the
//! Parsec and SPECint suites.
//!
//! Usage: `fig4 [--suite parsec|spec|all] [--scale test|small|medium]`

use flexstep_bench::{fig4, geomean};
use flexstep_workloads::{parsec, spec, Scale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let suite = arg_value(&args, "--suite").unwrap_or_else(|| "all".into());
    let scale = parse_scale(&args);

    if suite == "parsec" || suite == "all" {
        print_suite("Fig. 4(a) — Parsec (v3.0)", &fig4(&parsec(), scale));
    }
    if suite == "spec" || suite == "all" {
        print_suite("Fig. 4(b) — Full SPECint CPU2006", &fig4(&spec(), scale));
    }
}

fn print_suite(title: &str, rows: &[flexstep_bench::Fig4Row]) {
    println!("{title}");
    println!(
        "{:<16} {:>9} {:>9} {:>9}",
        "workload", "LockStep", "FlexStep", "Nzdc"
    );
    for r in rows {
        let nzdc = r.nzdc.map_or("n/a".into(), |v| format!("{v:.3}"));
        println!(
            "{:<16} {:>9.3} {:>9.3} {:>9}",
            r.name, r.lockstep, r.flexstep, nzdc
        );
    }
    println!(
        "{:<16} {:>9.3} {:>9.3} {:>9.3}",
        "geomean",
        geomean(rows.iter().map(|r| r.lockstep)),
        geomean(rows.iter().map(|r| r.flexstep)),
        geomean(rows.iter().filter_map(|r| r.nzdc)),
    );
    println!();
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_scale(args: &[String]) -> Scale {
    match arg_value(args, "--scale").as_deref() {
        Some("small") => Scale::Small,
        Some("medium") => Scale::Medium,
        _ => Scale::Test,
    }
}
