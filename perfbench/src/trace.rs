//! Tracing from outside the program: spans around calls into each
//! layer's public functions, and a step loop that attributes
//! `VerifiedRun::step_once` dispatches to the main or checker side.
//!
//! Spans are kept in memory and written out when the benchmark ends.
//! Per-step spans would be millions per run, so the step loop keeps
//! counters instead: every dispatch is counted, and a deterministic
//! one-in-[`SAMPLE_EVERY`] sample of dispatches is classified and timed.
//! A role's time is its sampled time scaled by the sampling rate.

use flexstep_core::{CheckPhase, VerifiedRun};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// One in this many dispatches, on average, is peeked and timed.
pub const SAMPLE_EVERY: u64 = 16;

/// A span: a call into one layer.
#[derive(Debug, Clone)]
struct Span {
    /// Layer call, named after the module (`scenario.build`, ...).
    name: &'static str,
    /// Start, ns since the tracer was created.
    start_ns: u64,
    /// End, ns since the tracer was created.
    end_ns: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Operation the span belongs to (0 for run-level spans).
    op: u64,
}

/// In-memory span recorder. When disabled, `open`/`close` only measure.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Time attributed to a layer without a span of its own (the step
    /// classes estimated from samples), keyed by layer, with the span it
    /// belongs to.
    estimated: Vec<(&'static str, usize, f64)>,
    /// Operations handed out so far.
    ops: u64,
}

impl Tracer {
    /// A tracer; `enabled` decides whether spans are kept.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            estimated: Vec::new(),
            ops: 0,
        }
    }

    /// A fresh operation id, shared by every span of that operation.
    pub fn new_op(&mut self) -> u64 {
        self.ops += 1;
        self.ops
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its handle.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in seconds.
    pub fn close(&mut self, handle: usize) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[handle];
        span.end_ns = end;
        let secs = (end - span.start_ns) as f64 * 1e-9;
        if !self.enabled && handle + 1 == self.spans.len() {
            // Untraced runs keep no history; only nesting needs the slot.
            self.spans.pop();
        }
        secs
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let h = self.open(name, parent, op);
        let out = f();
        (out, self.close(h))
    }

    /// Attributes `secs` of span `within` to `layer` (sampled estimate).
    pub fn estimate(&mut self, layer: &'static str, within: usize, secs: f64) {
        if self.enabled {
            self.estimated.push((layer, within, secs));
        }
    }

    /// Duration of a closed span, seconds.
    fn duration(&self, handle: usize) -> f64 {
        let s = &self.spans[handle];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Self time per span name under `root` (inclusive): each span's
    /// duration minus its children's, with sampled estimates counted as
    /// children of the span they were taken in and as layers of their
    /// own.
    pub fn self_times(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let inside = |mut i: usize| loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        };
        let mut child_time = vec![0.0; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_time[p] += self.duration(i);
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for &(layer, within, secs) in &self.estimated {
            if inside(within) {
                child_time[within] += secs;
                *out.entry(layer).or_default() += secs;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if inside(i) {
                *out.entry(s.name).or_default() += self.duration(i) - child_time[i];
            }
        }
        out
    }

    /// The spans and estimates as JSON.
    pub fn to_json(&self) -> String {
        use flexstep_core::json::{array, JsonObject};
        let spans = array(self.spans.iter().map(|s| {
            let mut o = JsonObject::new();
            o.field_str("name", s.name)
                .field_u64("start_ns", s.start_ns)
                .field_u64("end_ns", s.end_ns)
                .field_i64("parent", s.parent.map_or(-1, |p| p as i64))
                .field_u64("op", s.op);
            o.finish()
        }));
        let estimated = array(self.estimated.iter().map(|&(layer, within, secs)| {
            let mut o = JsonObject::new();
            o.field_str("layer", layer)
                .field_u64("within", within as u64)
                .field_f64("secs", secs);
            o.finish()
        }));
        let mut o = JsonObject::new();
        o.field_raw("spans", &spans)
            .field_raw("estimated", &estimated);
        o.finish()
    }
}

/// Which side a dispatch served, from the pre-dispatch peek.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Main,
    Checker,
    /// No ready core, or a core that is neither (the final dispatch that
    /// finds the run complete).
    Other,
}

/// Counters for the `core::harness` step loop, accumulated over every
/// traced operation. Dispatches are counted exactly; role, progress and
/// time are read on the sampled dispatches only, so the step loop pays
/// for the peek one time in [`SAMPLE_EVERY`]. Sampling is a seeded
/// sequence, so every count repeats exactly at a given seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepProfile {
    /// Every dispatch (`step_once` call).
    pub dispatches: u64,
    /// Sampled dispatches by role: main, checker, other.
    pub sampled: [u64; 3],
    /// Sampled main dispatches that retired nothing.
    pub main_stalls: u64,
    /// Sampled checker dispatches that found the checker waiting for an
    /// SCP and left it there without replaying anything.
    pub checker_waits: u64,
    /// Sampled dispatch time by role, ns (timer cost already removed).
    sampled_ns: [f64; 3],
    /// Cost of one timer read pair, ns, subtracted from each sample.
    timer_ns: f64,
}

impl StepProfile {
    /// A profile that removes `timer_ns` from every timed sample.
    pub fn new(timer_ns: f64) -> Self {
        StepProfile {
            timer_ns,
            ..StepProfile::default()
        }
    }

    /// Steps `run` to completion the way `run_to_completion` does,
    /// sampling dispatches. Attributes the step time to
    /// `harness.main_dispatch`, `harness.checker_dispatch` and
    /// `harness.other_dispatch` inside span `within`. Returns `false`
    /// when `max_steps` runs out first.
    pub fn drive(
        &mut self,
        run: &mut VerifiedRun,
        max_steps: u64,
        tracer: &mut Tracer,
        within: usize,
        rng: &mut StdRng,
    ) -> bool {
        let cores = run.soc().num_cores();
        let mut roles = vec![Role::Other; cores];
        for &m in run.mains() {
            roles[m] = Role::Main;
        }
        for &c in run.checkers() {
            roles[c] = Role::Checker;
        }
        let start = *self;
        let mut steps = 0u64;
        let mut countdown = rng.gen_range(0..SAMPLE_EVERY);
        let live = loop {
            if steps == max_steps {
                break true;
            }
            steps += 1;
            self.dispatches += 1;
            if countdown > 0 {
                countdown -= 1;
                if !run.step_once() {
                    break false;
                }
                continue;
            }
            // Gaps are uniform in 0..2*SAMPLE_EVERY-1, so the sample
            // cannot lock onto a periodic dispatch pattern.
            countdown = rng.gen_range(0..2 * SAMPLE_EVERY - 1);
            let peek = run.soc().next_ready_core();
            let role = peek.map_or(Role::Other, |c| roles[c]);
            let before = peek.map_or(0, |c| run.soc().core(c).instret);
            let waiting = role == Role::Checker
                && peek.is_some_and(|c| run.checker_state(c).phase == CheckPhase::WaitScp);
            let t0 = Instant::now();
            let live = run.step_once();
            let ns = t0.elapsed().as_nanos() as f64 - self.timer_ns;
            self.sampled_ns[role as usize] += ns.max(0.0);
            self.sampled[role as usize] += 1;
            if let Some(c) = peek {
                let progressed = run.soc().core(c).instret != before;
                match role {
                    Role::Main if !progressed => self.main_stalls += 1,
                    Role::Checker
                        if waiting
                            && !progressed
                            && run.checker_state(c).phase == CheckPhase::WaitScp =>
                    {
                        self.checker_waits += 1
                    }
                    _ => {}
                }
            }
            if !live {
                break false;
            }
        };
        let sampled: u64 = (0..3).map(|i| self.sampled[i] - start.sampled[i]).sum();
        let dispatches = self.dispatches - start.dispatches;
        for (i, layer) in [
            "harness.main_dispatch",
            "harness.checker_dispatch",
            "harness.other_dispatch",
        ]
        .into_iter()
        .enumerate()
        {
            // Sampled time scaled up by the share of dispatches sampled.
            let secs = (self.sampled_ns[i] - start.sampled_ns[i]) * 1e-9;
            if sampled > 0 {
                tracer.estimate(layer, within, secs * dispatches as f64 / sampled as f64);
            }
        }
        !live
    }

    /// Mean host time of one dispatch of `role` (0 main, 1 checker), ns.
    pub fn mean_ns(&self, role: usize) -> f64 {
        if self.sampled[role] == 0 {
            0.0
        } else {
            self.sampled_ns[role] / self.sampled[role] as f64
        }
    }
}

/// Cost of one `Instant::now()` + `elapsed()` pair, ns (median of
/// batches), so sampled durations can exclude the timer itself.
pub fn timer_cost_ns() -> f64 {
    let mut batches = Vec::new();
    for _ in 0..9 {
        let n = 2_000;
        let mut total = 0u128;
        for _ in 0..n {
            let t = Instant::now();
            total += std::hint::black_box(t.elapsed()).as_nanos();
        }
        batches.push(total as f64 / n as f64);
    }
    crate::stats::median(&batches)
}
