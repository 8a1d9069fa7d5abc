//! `shared_modes`: 16 cores under `Topology::SharedChecker { checkers: 4 }`
//! (12 mains, 3 per checker), each main running a segment-aligned
//! control loop whose segments per repetition fit, three streams to a
//! checker, in the checker's 64-entry memo.
//!
//! Per-slot reliability modes mix `SegmentCheck`, `CheckpointOnly` and
//! `Unchecked`; a quarter of the mains are OoO; a pairing schedule opens
//! release/re-acquire windows on two checked slots. Memo playback,
//! arbiter hand-over, the event-queue scheduler (16 cores is past
//! `SCAN_CROSSOVER`) and mode/pairing policy do the work, while checker
//! replay does little: the opposite mix from `paired_suite`. The seed
//! permutes the slot assignment of modes and models and draws the window
//! cycles, for each of the round's scenario variants.

use crate::steps::{traced_run, untraced_run, Op};
use crate::trace::Tracer;
use crate::{baseline, baseline_on, time_setup, Baseline, Config, Outcome};
use flexstep_bench::derive_stream;
use flexstep_core::{
    CoreModelKind, FabricConfig, PairingSchedule, ReliabilityMode, Scenario, Topology,
};
use flexstep_isa::asm::Program;
use flexstep_workloads::builder::control_loop_kernel_at;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const CORES: usize = 16;
const CHECKERS: usize = 4;
const MAINS: usize = CORES - CHECKERS;

/// Inputs for one size: segments per repetition, repetitions, and
/// scenario variants per round.
struct Size {
    segments_per_rep: i64,
    reps: i64,
    variants: usize,
}

/// One seed-drawn scenario variant.
#[derive(Debug, Clone)]
struct Variant {
    modes: Vec<ReliabilityMode>,
    ooo: Vec<bool>,
    windows: Vec<(usize, u64, u64)>,
}

impl Variant {
    /// Draws variant `k` of `seed`; `span` is the unverified run length
    /// the pairing windows are placed in. Main `s` is served by checker
    /// `s % CHECKERS`. Every variant gives the checkers the same four
    /// mode triples and one OoO main on three of them, so the checkers'
    /// load (and with it the DBC spill behind `peak_rss_mib`) varies
    /// little from seed to seed. The seed decides which checker gets
    /// which triple, the slot order within it, which mains are OoO, and
    /// the pairing windows.
    fn draw(seed: u64, k: usize, span: u64) -> Self {
        use ReliabilityMode::{CheckpointOnly as Co, SegmentCheck as Sc, Unchecked as Un};
        let mut rng = StdRng::seed_from_u64(derive_stream(seed, &format!("shared_modes-{k}")));
        let mut triples = [[Sc, Sc, Un], [Sc, Sc, Co], [Sc, Co, Un], [Sc, Co, Un]];
        triples.shuffle(&mut rng);
        let mut modes = vec![Sc; MAINS];
        let mut ooo = vec![false; MAINS];
        let plain = rng.gen_range(0..CHECKERS);
        for (checker, triple) in triples.iter_mut().enumerate() {
            triple.shuffle(&mut rng);
            for (j, &mode) in triple.iter().enumerate() {
                modes[checker + j * CHECKERS] = mode;
            }
            if checker != plain {
                ooo[checker + rng.gen_range(0..3usize) * CHECKERS] = true;
            }
        }
        let mut checked: Vec<usize> = (0..MAINS).filter(|&s| modes[s].is_checked()).collect();
        checked.shuffle(&mut rng);
        let windows = checked
            .iter()
            .take(2)
            .map(|&slot| {
                let release = rng.gen_range(span / 8..span / 2);
                (slot, release, release + rng.gen_range(span / 8..span / 4))
            })
            .collect();
        Variant {
            modes,
            ooo,
            windows,
        }
    }

    fn scenario(&self, programs: &[Program]) -> Scenario {
        let mut s = Scenario::new(&programs[0])
            .cores(CORES)
            .topology(Topology::SharedChecker { checkers: CHECKERS });
        for p in &programs[1..] {
            s = s.program(p);
        }
        for slot in 0..MAINS {
            s = s.reliability_mode(slot, self.modes[slot]);
            if self.ooo[slot] {
                s = s.core_model(slot, CoreModelKind::ooo());
            }
        }
        let mut schedule = PairingSchedule::new();
        for &(slot, release, reacquire) in &self.windows {
            schedule = schedule.window(slot, release, reacquire);
        }
        s.pairing_schedule(schedule)
    }
}

fn programs(size: &Size) -> Vec<Program> {
    let segment = FabricConfig::paper().segment_limit as i64;
    (0..MAINS as u64)
        .map(|slot| {
            control_loop_kernel_at(
                &format!("control{slot}"),
                segment,
                size.segments_per_rep,
                size.reps,
                slot,
            )
        })
        .collect()
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when a scenario or reference cannot be configured.
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Result<Outcome, String> {
    let size = if cfg.toy {
        Size {
            segments_per_rep: 2,
            reps: 1,
            variants: 1,
        }
    } else {
        Size {
            segments_per_rep: 16,
            reps: 4,
            variants: 4,
        }
    };
    // Unverified references, outside every timed window, per slot on
    // each main model; the in-order length places the pairing windows.
    let refs: Vec<Baseline> = programs(&size)
        .iter()
        .map(baseline)
        .collect::<Result<_, _>>()?;
    let refs_ooo: Vec<Baseline> = programs(&size)
        .iter()
        .map(|p| baseline_on(p, CoreModelKind::ooo()))
        .collect::<Result<_, _>>()?;
    let span = refs[0].cycles;
    let variants: Vec<Variant> = (0..size.variants)
        .map(|k| Variant::draw(cfg.seed, k, span))
        .collect();

    // Set-up: assemble the 12 programs and build every variant. It runs
    // once here and again before every round.
    let mut setup = |out: &mut Outcome| {
        let t = Instant::now();
        let programs = programs(&size);
        out.sample("workloads.program_ms", t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        for v in &variants {
            black_box(v.scenario(&programs).build().map_err(|e| e.to_string())?);
        }
        out.sample("scenario.build_ms", t.elapsed().as_secs_f64() * 1e3);
        Ok(programs)
    };
    let mut out = Outcome::default();
    let programs = time_setup(&mut out, &mut setup)?;

    let ops: Vec<Op> = variants
        .iter()
        .map(|v| {
            let programs = &programs;
            Op {
                build: Box::new(move || v.scenario(programs).build()),
                refs: (0..MAINS)
                    .map(|s| if v.ooo[s] { &refs_ooo[s] } else { &refs[s] })
                    .collect(),
                faulted: false,
            }
        })
        .collect();
    if cfg.trace {
        traced_run(&mut out, tracer, &ops, cfg, &programs, &mut setup)?;
    } else {
        untraced_run(&mut out, &ops, cfg.seconds, &mut setup)?;
    }
    Ok(out)
}
