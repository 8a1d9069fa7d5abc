//! `paired_suite`: Fig. 4's path. Every Parsec and SPECint program at
//! `Scale::Small`, each in a paired dual-core verified run with default
//! settings (in-order, memo on, `SegmentCheck`, no faults).
//!
//! Execute, DBC logging and checker replay/compare do nearly all the
//! work; the memo records every segment but never hits, and two cores
//! keep the linear-scan scheduler. The whole suite runs every round, so
//! the figures do not depend on which programs a seed would sample; the
//! seed sets the order they run in.

use crate::steps::{traced_run, untraced_run, Op};
use crate::trace::Tracer;
use crate::{baseline, time_setup, Config, Outcome};
use flexstep_bench::derive_stream;
use flexstep_core::Scenario;
use flexstep_isa::asm::Program;
use flexstep_workloads::{parsec, spec, Scale};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// The workload's scenario for one program.
fn scenario(program: &Program) -> Scenario {
    Scenario::new(program).cores(2)
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when a reference run cannot be configured.
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut suite: Vec<_> = parsec().into_iter().chain(spec()).collect();
    suite.shuffle(&mut StdRng::seed_from_u64(derive_stream(
        cfg.seed,
        "paired_suite",
    )));
    let scale = if cfg.toy {
        suite.truncate(3);
        Scale::Test
    } else {
        Scale::Small
    };

    // Set-up: assemble every program and build its scenario. It runs
    // once here and again before every round.
    let mut setup = |out: &mut Outcome| {
        let t = Instant::now();
        let programs: Vec<Program> = suite.iter().map(|w| w.program(scale)).collect();
        out.sample("workloads.program_ms", t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        for p in &programs {
            black_box(scenario(p).build().map_err(|e| e.to_string())?);
        }
        out.sample("scenario.build_ms", t.elapsed().as_secs_f64() * 1e3);
        Ok(programs)
    };
    let mut out = Outcome::default();
    let programs = time_setup(&mut out, &mut setup)?;

    // Unverified references, outside every timed window.
    let refs = programs
        .iter()
        .map(baseline)
        .collect::<Result<Vec<_>, _>>()?;

    let ops: Vec<Op> = programs
        .iter()
        .zip(&refs)
        .map(|(p, r)| Op {
            build: Box::new(move || scenario(p).build()),
            refs: vec![r],
            faulted: false,
        })
        .collect();
    if cfg.trace {
        traced_run(&mut out, tracer, &ops, cfg, &programs, &mut setup)?;
    } else {
        untraced_run(&mut out, &ops, cfg.seconds, &mut setup)?;
    }
    Ok(out)
}
