//! Fig. 6: Parsec slowdown in dual-core vs triple-core verification mode.
//!
//! Usage: `fig6 [--scale test|small|medium]`

use flexstep_bench::{fig6, geomean};
use flexstep_workloads::{parsec, Scale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = match args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
    {
        Some(s) if s == "small" => Scale::Small,
        Some(s) if s == "medium" => Scale::Medium,
        _ => Scale::Test,
    };
    let rows = fig6(&parsec(), scale);
    println!("Fig. 6 — verification-mode slowdown (Parsec)");
    println!(
        "{:<16} {:>12} {:>12}",
        "workload", "dual-core", "triple-core"
    );
    for r in &rows {
        println!("{:<16} {:>12.4} {:>12.4}", r.name, r.dual, r.triple);
    }
    println!(
        "{:<16} {:>12.4} {:>12.4}",
        "geomean",
        geomean(rows.iter().map(|r| r.dual)),
        geomean(rows.iter().map(|r| r.triple)),
    );
}
