//! Chrome `trace_event` export of verified-run schedules.
//!
//! A many-core FlexStep run is a schedule: segments opening and closing
//! on main cores, checker cores replaying one granted stream at a time,
//! the §III-C arbiters handing channels over, faults landing and being
//! caught. [`TraceObserver`] records that schedule from the run's
//! [`RunEvent`]s and serialises it as Chrome `trace_event` JSON — load
//! the file in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)
//! and every core becomes a lane on a shared timeline:
//!
//! - **Segment spans** (`ph: "X"`, category `segment`) on each main
//!   core's lane, from [`RunEvent::SegmentOpen`] to
//!   [`RunEvent::SegmentClose`].
//! - **Checker-occupancy spans** (category `check`) on each checker
//!   core's lane, from [`RunEvent::CheckStart`] (the SCP apply that
//!   enters replay) to the verdict
//!   ([`RunEvent::CheckPass`]/[`RunEvent::CheckFail`]), named after the
//!   main core being verified — arbitration interleavings are directly
//!   visible as alternating span colours.
//! - **Recovery spans** (category `recovery`) on a dedicated
//!   `recovery m{N}` lane per main core, covering the detect →
//!   verified-again window of a rollback (consecutive retries extend
//!   one span). They get their own lane because the main keeps opening
//!   segments while it re-executes — the windows nest, and Chrome lanes
//!   only render non-overlapping spans truthfully.
//! - **Instant events** (`ph: "i"`) for arbiter grants and parks
//!   (category `arbiter`), landed faults and expired shots (category
//!   `fault`), detections (category `detect`), checker deaths
//!   (category `fault`, `killed`) and main-core completion
//!   (category `run`).
//!
//! Timestamps are simulated microseconds (`ts`/`dur`), converted from
//! cycles with the platform [`Clock`] (`Clock::paper()` = 1.6 GHz by
//! default); the raw cycle numbers ride along in each event's `args`.
//! All events share `pid` 1 (the SoC); `tid` is the core index
//! (recovery lanes sit at `RECOVERY_LANE_OFFSET + main`).
//!
//! # Attaching a trace
//!
//! [`Scenario::trace_to`](crate::Scenario::trace_to) attaches the
//! recorder by value: the run owns it (so the run stays `Send`), writes
//! the file via
//! [`VerifiedRun::write_trace`](crate::VerifiedRun::write_trace), and
//! exposes it for programmatic access via
//! [`VerifiedRun::trace`](crate::VerifiedRun::trace):
//!
//! ```
//! use flexstep_core::Scenario;
//! use flexstep_isa::{asm::Assembler, XReg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut asm = Assembler::new("tiny");
//! asm.li(XReg::A0, 200);
//! asm.li(XReg::A1, 0x2000_0000);
//! asm.label("l")?;
//! asm.sd(XReg::A1, XReg::A0, 0);
//! asm.addi(XReg::A0, XReg::A0, -1);
//! asm.bnez(XReg::A0, "l");
//! asm.ecall();
//! let program = asm.finish()?;
//!
//! let dir = std::env::temp_dir().join("flexstep_trace_doc");
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("tiny.json");
//! let mut run = Scenario::new(&program)
//!     .cores(2)
//!     .trace_to(&path)
//!     .build()?;
//! assert!(run.run_to_completion(10_000_000).completed);
//!
//! let json = run.trace().expect("tracing is on").to_chrome_json();
//! assert!(json.starts_with("{\"traceEvents\": ["));
//! assert!(json.contains("\"ph\": \"X\""), "segments become spans");
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```
//!
//! # Bounded mode
//!
//! A 3600-shot campaign emits millions of events; [`TraceObserver::
//! bounded`](TraceObserver::bounded) keeps a ring of the last N
//! completed events (dropping the oldest first and counting them in
//! [`TraceObserver::dropped`]), so the file size is capped no matter
//! how long the run is. The experiment binaries (`fig8 --trace`,
//! `fig7_manycore --trace`) use [`DEFAULT_RING_CAPACITY`].

use crate::json::{number, JsonObject};
use crate::sink::{Observer, RunEvent};
use flexstep_sim::Clock;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::path::Path;

/// Ring capacity the experiment binaries use for `--trace`: large
/// enough for a full 16-core example schedule, small enough that a
/// 3600-shot campaign's artifact stays in the tens of megabytes.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// `tid` offset of the per-main recovery lanes: far above any plausible
/// core index, so recovery spans never collide with a core's own lane.
pub const RECOVERY_LANE_OFFSET: usize = 4096;

/// An [`Observer`] that records the run as Chrome `trace_event` JSON.
///
/// See the [module documentation](self) for the event model and a
/// worked example.
#[derive(Debug)]
pub struct TraceObserver {
    /// Completed events, already rendered as JSON objects (one string
    /// per event). Bounded by `capacity` as a ring of the newest.
    events: VecDeque<String>,
    capacity: Option<usize>,
    dropped: u64,
    /// Open segment per main core: `(seq, open_cycle)`.
    open_segments: BTreeMap<usize, (u64, u64)>,
    /// Open check per checker core: `(main, seq, start_cycle)`.
    open_checks: BTreeMap<usize, (usize, u64, u64)>,
    /// In-flight rollback recovery per main core: `(seq, detect_cycle)`.
    open_recoveries: BTreeMap<usize, (u64, u64)>,
    /// Mains that recovered at least once (for recovery-lane metadata).
    recovery_lanes: BTreeSet<usize>,
    /// Cores seen as mains / checkers (for thread-name metadata).
    mains: BTreeSet<usize>,
    checkers: BTreeSet<usize>,
    /// Latest cycle any callback reported (closes truncated spans).
    last_cycle: u64,
    spans: u64,
    instants: u64,
}

impl Default for TraceObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceObserver {
    /// An unbounded recorder at the paper clock
    /// ([`Clock::paper`], 1.6 GHz).
    pub fn new() -> Self {
        TraceObserver {
            events: VecDeque::new(),
            capacity: None,
            dropped: 0,
            open_segments: BTreeMap::new(),
            open_checks: BTreeMap::new(),
            open_recoveries: BTreeMap::new(),
            recovery_lanes: BTreeSet::new(),
            mains: BTreeSet::new(),
            checkers: BTreeSet::new(),
            last_cycle: 0,
            spans: 0,
            instants: 0,
        }
    }

    /// A size-bounded recorder keeping only the newest `capacity`
    /// completed events (a ring; the oldest are dropped and counted in
    /// [`TraceObserver::dropped`]).
    pub fn bounded(capacity: usize) -> Self {
        TraceObserver {
            capacity: Some(capacity.max(1)),
            ..Self::new()
        }
    }

    /// Completed events currently held (spans + instants, after ring
    /// eviction).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the bounded ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans recorded over the observer's lifetime (ring eviction does
    /// not decrement).
    pub fn spans_recorded(&self) -> u64 {
        self.spans
    }

    /// Instant events recorded over the observer's lifetime.
    pub fn instants_recorded(&self) -> u64 {
        self.instants
    }

    fn us(&self, cycle: u64) -> String {
        number(Clock::paper().cycles_to_us(cycle))
    }

    fn push(&mut self, event: String) {
        if let Some(cap) = self.capacity {
            if self.events.len() == cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        self.events.push_back(event);
    }

    /// Renders one complete (`ph: "X"`) span event.
    fn span(&mut self, tid: usize, name: &str, cat: &str, start: u64, end: u64, args: String) {
        let mut o = JsonObject::new();
        o.field_str("name", name)
            .field_str("cat", cat)
            .field_str("ph", "X")
            .field_u64("pid", 1)
            .field_u64("tid", tid as u64)
            .field_raw("ts", &self.us(start))
            .field_raw("dur", &self.us(end.saturating_sub(start)))
            .field_raw("args", &args);
        self.spans += 1;
        self.push(o.finish());
    }

    /// Renders one thread-scoped instant (`ph: "i"`) event.
    fn instant(&mut self, tid: usize, name: &str, cat: &str, cycle: u64, args: String) {
        let mut o = JsonObject::new();
        o.field_str("name", name)
            .field_str("cat", cat)
            .field_str("ph", "i")
            .field_str("s", "t")
            .field_u64("pid", 1)
            .field_u64("tid", tid as u64)
            .field_raw("ts", &self.us(cycle))
            .field_raw("args", &args);
        self.instants += 1;
        self.push(o.finish());
    }

    /// An instant whose only argument is its cycle.
    fn mark(&mut self, tid: usize, name: &str, cat: &str, cycle: u64) {
        let mut a = JsonObject::new();
        a.field_u64("cycle", cycle);
        self.instant(tid, name, cat, cycle, a.finish());
    }

    /// Renders a segment span; `truncated` marks one that serialisation
    /// closed at the last observed cycle.
    fn segment_span(&mut self, main: usize, seq: u64, start: u64, end: u64, truncated: bool) {
        let mut a = JsonObject::new();
        a.field_u64("seq", seq)
            .field_u64("open_cycle", start)
            .field_u64("close_cycle", end);
        if truncated {
            a.field_bool("truncated", true);
        }
        let name = format!("seg {seq}");
        self.span(main, &name, "segment", start, end, a.finish());
    }

    /// Renders the occupancy span of an open check `(main, seq, start)`;
    /// the `"truncated"` verdict marks one that serialisation closed.
    fn check_span(&mut self, checker: usize, open: (usize, u64, u64), end: u64, verdict: &str) {
        let (main, seq, start) = open;
        let mut a = JsonObject::new();
        a.field_u64("main", main as u64)
            .field_u64("seq", seq)
            .field_str("verdict", verdict)
            .field_u64("start_cycle", start)
            .field_u64("end_cycle", end);
        if verdict == "truncated" {
            a.field_bool("truncated", true);
        }
        let name = format!("check m{main} seg {seq}");
        self.span(checker, &name, "check", start, end, a.finish());
    }

    /// Renders a recovery span on `main`'s recovery lane; `latency` is
    /// `None` for one that serialisation closed.
    fn recovery_span(&mut self, main: usize, seq: u64, start: u64, end: u64, latency: Option<u64>) {
        let mut a = JsonObject::new();
        a.field_u64("seq", seq)
            .field_u64("detect_cycle", start)
            .field_u64("end_cycle", end);
        match latency {
            Some(l) => a.field_u64("latency_cycles", l),
            None => a.field_bool("truncated", true),
        };
        let name = format!("recover seg {seq}");
        let tid = RECOVERY_LANE_OFFSET + main;
        self.span(tid, &name, "recovery", start, end, a.finish());
    }

    fn close_check(&mut self, checker: usize, end: u64, verdict: &str) {
        if let Some(open) = self.open_checks.remove(&checker) {
            self.check_span(checker, open, end, verdict);
        }
    }

    /// Serialises the recorded schedule as a Chrome `trace_event` JSON
    /// document (the object form, one event per line). Open spans — a
    /// run stopped mid-segment — are closed at the last observed cycle
    /// and flagged `"truncated": true` so every emitted span is
    /// well-formed.
    pub fn to_chrome_json(&self) -> String {
        // Metadata: one process for the SoC, one named lane per core.
        let mut metadata: Vec<String> = Vec::new();
        let meta = |name: &str, tid: usize, args: String| {
            let mut o = JsonObject::new();
            o.field_str("name", name)
                .field_str("ph", "M")
                .field_u64("pid", 1)
                .field_u64("tid", tid as u64)
                .field_raw("args", &args);
            o.finish()
        };
        {
            let mut a = JsonObject::new();
            a.field_str("name", "FlexStep SoC");
            metadata.push(meta("process_name", 0, a.finish()));
        }
        let mut lanes: BTreeMap<usize, String> = BTreeMap::new();
        for &m in &self.mains {
            lanes.insert(m, format!("main {m}"));
        }
        for &c in &self.checkers {
            lanes.entry(c).or_insert_with(|| format!("checker {c}"));
        }
        for &m in &self.recovery_lanes {
            lanes.insert(RECOVERY_LANE_OFFSET + m, format!("recovery m{m}"));
        }
        for (&tid, name) in &lanes {
            let mut a = JsonObject::new();
            a.field_str("name", name);
            metadata.push(meta("thread_name", tid, a.finish()));
            let mut s = JsonObject::new();
            s.field_u64("sort_index", tid as u64);
            metadata.push(meta("thread_sort_index", tid, s.finish()));
        }

        // Close anything still open (truncated runs) at the last
        // observed cycle, without mutating the recorder.
        let mut tail = TraceObserver::new();
        let end = self.last_cycle;
        for (&main, &(seq, start)) in &self.open_segments {
            tail.segment_span(main, seq, start, end, true);
        }
        for (&checker, &open) in &self.open_checks {
            tail.check_span(checker, open, end, "truncated");
        }
        for (&main, &(seq, start)) in &self.open_recoveries {
            tail.recovery_span(main, seq, start, end, None);
        }
        // Stream everything into one buffer — no cloned intermediate
        // of the (potentially DEFAULT_RING_CAPACITY-sized) event list.
        let body: usize = metadata
            .iter()
            .chain(self.events.iter())
            .chain(tail.events.iter())
            .map(|e| e.len() + 2)
            .sum();
        let mut out = String::with_capacity(body + 128);
        out.push_str("{\"traceEvents\": [\n");
        for (i, event) in metadata
            .iter()
            .chain(self.events.iter())
            .chain(tail.events.iter())
            .enumerate()
        {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(event);
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\", \"meta\": ");
        let mut m = JsonObject::new();
        // Include the truncation-closing spans so the counters agree
        // with the document's own event list.
        m.field_raw("clock_hz", &number(Clock::paper().hz))
            .field_u64("spans", self.spans + tail.spans)
            .field_u64("instants", self.instants)
            .field_u64("dropped", self.dropped);
        out.push_str(&m.finish());
        out.push('}');
        out
    }

    /// Writes [`TraceObserver::to_chrome_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

impl Observer for TraceObserver {
    fn event(&mut self, ev: &RunEvent) {
        self.last_cycle = self.last_cycle.max(ev.cycle());
        // Each arm renders its event and names the lanes it touches: a
        // main's, a checker's, or both (a grant connects the two).
        let (main, checker) = match ev {
            RunEvent::SegmentOpen { main, seq, cycle } => {
                self.open_segments.insert(*main, (*seq, *cycle));
                (Some(*main), None)
            }
            RunEvent::SegmentClose { main, seq, cycle } => {
                let start = match self.open_segments.remove(main) {
                    Some((open_seq, start)) if open_seq == *seq => start,
                    // Close without a matching open (observer attached
                    // mid-run): degrade to a zero-length span at the close.
                    _ => *cycle,
                };
                self.segment_span(*main, *seq, start, *cycle, false);
                (Some(*main), None)
            }
            RunEvent::CheckStart {
                checker,
                main,
                seq,
                cycle,
            } => {
                // A dangling open check (should not happen: replay always
                // ends in a verdict) is closed defensively to keep lanes
                // overlap-free.
                self.close_check(*checker, *cycle, "superseded");
                self.open_checks.insert(*checker, (*main, *seq, *cycle));
                (None, Some(*checker))
            }
            RunEvent::CheckPass { checker, result } => {
                self.close_check(*checker, result.at, "pass");
                (None, Some(*checker))
            }
            RunEvent::CheckFail { checker, result } => {
                self.close_check(*checker, result.at, "fail");
                (None, Some(*checker))
            }
            RunEvent::Detection(d) => {
                let mut a = JsonObject::new();
                a.field_u64("main", d.main_core as u64)
                    .field_u64("seq", d.segment_seq)
                    .field_str("kind", &d.kind.to_string())
                    .field_u64("cycle", d.detected_at);
                self.instant(
                    d.checker_core,
                    &format!("detect m{} seg {}", d.main_core, d.segment_seq),
                    "detect",
                    d.detected_at,
                    a.finish(),
                );
                (None, Some(d.checker_core))
            }
            RunEvent::FaultInjected(i) => {
                let mut a = JsonObject::new();
                a.field_str("target", &i.target.to_string())
                    .field_array("bits", i.bits.iter().map(u32::to_string))
                    .field_u64("cycle", i.at_cycle);
                self.instant(
                    i.main_core,
                    &format!("fault {}", i.target),
                    "fault",
                    i.at_cycle,
                    a.finish(),
                );
                (Some(i.main_core), None)
            }
            RunEvent::ShotExpired { main, cycle } => {
                self.mark(*main, "shot expired", "fault", *cycle);
                (Some(*main), None)
            }
            RunEvent::CheckerGranted {
                checker,
                main,
                cycle,
            } => {
                let mut a = JsonObject::new();
                a.field_u64("main", *main as u64).field_u64("cycle", *cycle);
                self.instant(
                    *checker,
                    &format!("grant m{main}"),
                    "arbiter",
                    *cycle,
                    a.finish(),
                );
                (Some(*main), Some(*checker))
            }
            RunEvent::CheckerParked { checker, cycle } => {
                self.mark(*checker, "park", "arbiter", *cycle);
                (None, Some(*checker))
            }
            RunEvent::MainFinished { main, cycle } => {
                self.mark(*main, "finished", "run", *cycle);
                (Some(*main), None)
            }
            RunEvent::RecoveryStart { main, seq, cycle } => {
                self.recovery_lanes.insert(*main);
                // Consecutive retries extend the original span: the
                // recovery window is detect -> verified-again, not
                // per-rollback.
                self.open_recoveries.entry(*main).or_insert((*seq, *cycle));
                (Some(*main), None)
            }
            RunEvent::RecoveryComplete {
                main,
                cycle,
                latency,
            } => {
                let (seq, start) = self
                    .open_recoveries
                    .remove(main)
                    .unwrap_or((0, cycle.saturating_sub(*latency)));
                self.recovery_lanes.insert(*main);
                self.recovery_span(*main, seq, start, *cycle, Some(*latency));
                (Some(*main), None)
            }
            RunEvent::CheckerKilled { checker, cycle } => {
                self.mark(*checker, "killed", "fault", *cycle);
                (None, Some(*checker))
            }
            RunEvent::CheckerReleased { main, cycle } => {
                self.mark(*main, "release checker", "pairing", *cycle);
                (Some(*main), None)
            }
            RunEvent::CheckerAcquired { main, cycle } => {
                self.mark(*main, "acquire checker", "pairing", *cycle);
                (Some(*main), None)
            }
        };
        self.mains.extend(main);
        self.checkers.extend(checker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{MismatchKind, SegmentResult};

    fn feed(t: &mut TraceObserver, events: &[RunEvent]) {
        for e in events {
            t.event(e);
        }
    }

    fn open(main: usize, seq: u64, cycle: u64) -> RunEvent {
        RunEvent::SegmentOpen { main, seq, cycle }
    }

    fn close(main: usize, seq: u64, cycle: u64) -> RunEvent {
        RunEvent::SegmentClose { main, seq, cycle }
    }

    #[test]
    fn spans_pair_opens_with_closes() {
        let mut t = TraceObserver::new();
        feed(&mut t, &[open(0, 1, 100), close(0, 1, 1_700)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.spans_recorded(), 1);
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\": \"seg 1\""));
        // 100 cycles @1.6GHz = 0.0625 µs; dur 1600 cycles = 1 µs.
        assert!(json.contains("\"ts\": 0.0625"));
        assert!(json.contains("\"dur\": 1.0"));
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn recovery_spans_pair_and_checker_kills_are_instants() {
        let mut t = TraceObserver::new();
        feed(
            &mut t,
            &[
                RunEvent::RecoveryStart {
                    main: 0,
                    seq: 7,
                    cycle: 1_000,
                },
                // A consecutive retry extends the original window rather
                // than opening a second span.
                RunEvent::RecoveryStart {
                    main: 0,
                    seq: 9,
                    cycle: 1_500,
                },
                RunEvent::RecoveryComplete {
                    main: 0,
                    cycle: 3_000,
                    latency: 2_000,
                },
                RunEvent::CheckerKilled {
                    checker: 1,
                    cycle: 4_000,
                },
            ],
        );
        assert_eq!(t.spans_recorded(), 1);
        assert_eq!(t.instants_recorded(), 1);
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\": \"recover seg 7\""));
        assert!(json.contains("\"latency_cycles\": 2000"));
        assert!(json.contains("\"recovery\""));
        assert!(json.contains("\"name\": \"killed\""));
    }

    #[test]
    fn truncated_recovery_spans_close_at_last_cycle() {
        let mut t = TraceObserver::new();
        feed(
            &mut t,
            &[
                RunEvent::RecoveryStart {
                    main: 2,
                    seq: 4,
                    cycle: 500,
                },
                RunEvent::CheckerKilled {
                    checker: 3,
                    cycle: 900,
                },
            ],
        );
        let json = t.to_chrome_json();
        assert!(json.contains("\"recover seg 4\""));
        assert!(json.contains("\"truncated\": true"));
    }

    #[test]
    fn check_spans_attribute_the_main_and_verdict() {
        let mut t = TraceObserver::new();
        feed(
            &mut t,
            &[
                RunEvent::CheckStart {
                    checker: 3,
                    main: 0,
                    seq: 7,
                    cycle: 200,
                },
                RunEvent::CheckFail {
                    checker: 3,
                    result: SegmentResult {
                        seq: 7,
                        tag: 0,
                        mismatch: Some(MismatchKind::LogUnderrun),
                        at: 360,
                    },
                },
            ],
        );
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\": \"check m0 seg 7\""));
        assert!(json.contains("\"verdict\": \"fail\""));
        assert!(json.contains("\"checker 3\""));
    }

    #[test]
    fn bounded_ring_drops_oldest_and_counts() {
        let mut t = TraceObserver::bounded(2);
        for seq in 0..5u64 {
            feed(
                &mut t,
                &[open(0, seq, seq * 10), close(0, seq, seq * 10 + 5)],
            );
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.spans_recorded(), 5);
        let json = t.to_chrome_json();
        assert!(!json.contains("\"seg 0\""), "oldest evicted");
        assert!(json.contains("\"seg 4\""));
        assert!(json.contains("\"dropped\": 3"));
    }

    #[test]
    fn truncated_open_spans_are_closed_at_last_cycle() {
        let mut t = TraceObserver::new();
        feed(
            &mut t,
            &[
                open(0, 3, 1_000),
                RunEvent::CheckStart {
                    checker: 1,
                    main: 0,
                    seq: 3,
                    cycle: 1_200,
                },
                RunEvent::MainFinished {
                    main: 0,
                    cycle: 2_000,
                },
            ],
        );
        let json = t.to_chrome_json();
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert_eq!(json.matches("\"truncated\": true").count(), 2);
        // Serialisation must not consume the recorder.
        assert_eq!(t.to_chrome_json(), json);
    }
}
