//! Run events and the observers that receive them.
//!
//! [`RunEvent`] is the one definition of what a run reports as it goes:
//! segments opening and closing, checkers entering replay and issuing
//! verdicts, detections, faults, arbitration, recovery and pairing
//! transitions. Each event is an owned, `Send` value, and an
//! [`Observer`] receives it through a single method.
//!
//! The harness emits every event through one choke point to its live
//! observers (attached with [`Scenario::observer`]), its
//! [`TraceObserver`](crate::TraceObserver) and the optional
//! [`RecordingObserver`] that [`Scenario::record_events`] enables. All
//! of them are owned by the run, so `VerifiedRun: Send` holds
//! (statically asserted in `harness.rs`) and runs move freely across
//! worker threads.
//!
//! ```
//! use flexstep_core::{RunEvent, Scenario};
//! # use flexstep_isa::{asm::Assembler, XReg};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let mut asm = Assembler::new("tiny");
//! # asm.li(XReg::A0, 50);
//! # asm.li(XReg::A1, 0x2000_0000);
//! # asm.label("l")?;
//! # asm.sd(XReg::A1, XReg::A0, 0);
//! # asm.addi(XReg::A0, XReg::A0, -1);
//! # asm.bnez(XReg::A0, "l");
//! # asm.ecall();
//! # let program = asm.finish()?;
//! let mut run = Scenario::new(&program)
//!     .cores(2)
//!     .record_events()
//!     .build()?;
//! assert!(run.run_to_completion(10_000_000).completed);
//!
//! let recording = run.recording().expect("recording is on");
//! assert!(recording.summary().segments_opened > 0);
//! assert!(matches!(
//!     recording.events().last(),
//!     Some(RunEvent::CheckPass { .. })
//! ));
//! # Ok(())
//! # }
//! ```
//!
//! [`Scenario::observer`]: crate::Scenario::observer
//! [`Scenario::record_events`]: crate::Scenario::record_events

use crate::detect::{DetectionEvent, SegmentResult};
use crate::scenario::Injection;

/// One thing that happened during a run, as an owned, `Send` value.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RunEvent {
    /// A main core opened a checking segment.
    SegmentOpen {
        /// Main core that opened the segment.
        main: usize,
        /// Segment sequence number.
        seq: u64,
        /// Cycle of the open.
        cycle: u64,
    },
    /// A main core closed a checking segment (count limit or privilege
    /// switch).
    SegmentClose {
        /// Main core that closed the segment.
        main: usize,
        /// Segment sequence number.
        seq: u64,
        /// Cycle of the close.
        cycle: u64,
    },
    /// A checker applied a segment's SCP and entered replay: the start
    /// of the checker-occupancy window that ends with the verdict
    /// ([`RunEvent::CheckPass`] or [`RunEvent::CheckFail`]). In
    /// shared-checker topologies `main` attributes the busy span to the
    /// granted main.
    CheckStart {
        /// Checker entering replay.
        checker: usize,
        /// Main core whose stream is being verified.
        main: usize,
        /// Segment sequence number.
        seq: u64,
        /// Cycle of the SCP apply.
        cycle: u64,
    },
    /// A checker verified a segment clean.
    CheckPass {
        /// Checker that issued the verdict.
        checker: usize,
        /// The clean verdict.
        result: SegmentResult,
    },
    /// A checker failed a segment; the matching
    /// [`RunEvent::Detection`] follows immediately.
    CheckFail {
        /// Checker that issued the verdict.
        checker: usize,
        /// The failing verdict (mismatch included).
        result: SegmentResult,
    },
    /// An error was detected.
    Detection(DetectionEvent),
    /// A scheduled fault landed in a stream.
    FaultInjected(Injection),
    /// An armed shot expired without landing: its main's stream drained
    /// for good, or the run completed before the arming cycle. Expired
    /// shots are counted in
    /// [`RunReport::shots_expired`](crate::RunReport::shots_expired)
    /// and never appear in
    /// [`RunReport::injections`](crate::RunReport::injections).
    ShotExpired {
        /// Main whose armed shot expired.
        main: usize,
        /// Cycle of the expiry.
        cycle: u64,
    },
    /// A §III-C arbiter connected `main`'s stream to a shared checker
    /// (the initial grants fire at cycle 0, hand-overs when they
    /// happen).
    CheckerGranted {
        /// The granted shared checker.
        checker: usize,
        /// Main connected to it.
        main: usize,
        /// Cycle of the grant.
        cycle: u64,
    },
    /// A shared checker with a drained arbitration queue was parked (a
    /// later grant unparks it).
    CheckerParked {
        /// The parked checker.
        checker: usize,
        /// Cycle of the park.
        cycle: u64,
    },
    /// A main core finished its program.
    MainFinished {
        /// The finished main core.
        main: usize,
        /// Cycle of the final `ecall`.
        cycle: u64,
    },
    /// Rollback recovery started: `main` was rolled back to segment
    /// `seq`'s SCP boundary for re-execution
    /// ([`RecoveryPolicy::Rollback`](crate::RecoveryPolicy::Rollback)
    /// only).
    RecoveryStart {
        /// Main rolled back for re-execution.
        main: usize,
        /// Segment of the rollback anchor.
        seq: u64,
        /// Cycle of the rollback.
        cycle: u64,
    },
    /// Rollback recovery completed: `main` re-executed and a segment
    /// verified clean again, `latency` cycles after the detection.
    RecoveryComplete {
        /// Main that verified clean again.
        main: usize,
        /// Cycle of the clean verdict.
        cycle: u64,
        /// Detect → verified-again latency, cycles.
        latency: u64,
    },
    /// A checker core suffered a scheduled permanent failure
    /// ([`FaultPlan::kill_checker_at`](crate::FaultPlan::kill_checker_at));
    /// its channels re-pair onto surviving checkers (a
    /// [`RunEvent::CheckerGranted`] follows) or degrade to unchecked
    /// execution.
    CheckerKilled {
        /// The permanently failed checker.
        checker: usize,
        /// Cycle of the kill.
        cycle: u64,
    },
    /// A main released its checker by pairing policy
    /// ([`Scenario::pairing_schedule`](crate::Scenario::pairing_schedule));
    /// the release lands on a segment boundary, and execution runs
    /// unchecked until re-acquire.
    CheckerReleased {
        /// Main that released its checker.
        main: usize,
        /// Cycle the release took effect.
        cycle: u64,
    },
    /// A main re-acquired checking by pairing policy. Shared slots
    /// re-enter arbitration; the connection itself arrives as a
    /// [`RunEvent::CheckerGranted`].
    CheckerAcquired {
        /// Main that re-acquired checking.
        main: usize,
        /// Cycle of the acquire.
        cycle: u64,
    },
}

impl RunEvent {
    /// The cycle the event happened at.
    pub fn cycle(&self) -> u64 {
        match self {
            RunEvent::CheckPass { result, .. } | RunEvent::CheckFail { result, .. } => result.at,
            RunEvent::Detection(d) => d.detected_at,
            RunEvent::FaultInjected(i) => i.at_cycle,
            RunEvent::SegmentOpen { cycle, .. }
            | RunEvent::SegmentClose { cycle, .. }
            | RunEvent::CheckStart { cycle, .. }
            | RunEvent::ShotExpired { cycle, .. }
            | RunEvent::CheckerGranted { cycle, .. }
            | RunEvent::CheckerParked { cycle, .. }
            | RunEvent::MainFinished { cycle, .. }
            | RunEvent::RecoveryStart { cycle, .. }
            | RunEvent::RecoveryComplete { cycle, .. }
            | RunEvent::CheckerKilled { cycle, .. }
            | RunEvent::CheckerReleased { cycle, .. }
            | RunEvent::CheckerAcquired { cycle, .. } => *cycle,
        }
    }
}

/// Receives a run's events in emission order.
///
/// Observers are notification-only: they cannot perturb the run, so a
/// run with observers is bit-identical to one without.
pub trait Observer {
    /// Called once per event.
    fn event(&mut self, ev: &RunEvent);
}

/// Aggregate counters over an observed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObserverSummary {
    /// Segments opened across all mains.
    pub segments_opened: u64,
    /// Segments closed across all mains.
    pub segments_closed: u64,
    /// Segments verified clean.
    pub checks_passed: u64,
    /// Segments that failed verification.
    pub checks_failed: u64,
    /// Detection events.
    pub detections: u64,
    /// Faults that landed.
    pub faults_injected: u64,
    /// Cycle of the first detection, if any (with
    /// [`ObserverSummary::first_fault_cycle`], the headline detection
    /// latency).
    pub first_detection_cycle: Option<u64>,
    /// Cycle of the first landed fault, if any.
    pub first_fault_cycle: Option<u64>,
    /// Rollback recoveries completed (detection → verified again).
    pub recoveries: u64,
    /// Checker cores permanently failed.
    pub checkers_lost: u64,
    /// Pairing-policy checker releases.
    pub checker_releases: u64,
    /// Pairing-policy checker re-acquires.
    pub checker_acquires: u64,
}

impl ObserverSummary {
    /// Detection latency in cycles from the first landed fault to the
    /// first detection, if both happened.
    pub fn detection_latency_cycles(&self) -> Option<u64> {
        match (self.first_fault_cycle, self.first_detection_cycle) {
            (Some(f), Some(d)) => Some(d.saturating_sub(f)),
            _ => None,
        }
    }

    /// Renders the summary as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = crate::json::JsonObject::new();
        o.field_u64("segments_opened", self.segments_opened)
            .field_u64("segments_closed", self.segments_closed)
            .field_u64("checks_passed", self.checks_passed)
            .field_u64("checks_failed", self.checks_failed)
            .field_u64("detections", self.detections)
            .field_u64("faults_injected", self.faults_injected)
            .field_u64("recoveries", self.recoveries)
            .field_u64("checkers_lost", self.checkers_lost)
            .field_u64("checker_releases", self.checker_releases)
            .field_u64("checker_acquires", self.checker_acquires);
        match self.detection_latency_cycles() {
            Some(l) => o.field_u64("detection_latency_cycles", l),
            None => o.field_raw("detection_latency_cycles", "null"),
        };
        o.finish()
    }
}

/// An [`Observer`] that keeps every event, in order, and folds them
/// into an [`ObserverSummary`] on request.
#[derive(Debug, Default, PartialEq)]
pub struct RecordingObserver {
    events: Vec<RunEvent>,
}

impl RecordingObserver {
    /// An empty recording.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[RunEvent] {
        &self.events
    }

    /// The aggregate counters over the recorded events.
    pub fn summary(&self) -> ObserverSummary {
        let mut s = ObserverSummary::default();
        for ev in &self.events {
            match ev {
                RunEvent::SegmentOpen { .. } => s.segments_opened += 1,
                RunEvent::SegmentClose { .. } => s.segments_closed += 1,
                RunEvent::CheckPass { .. } => s.checks_passed += 1,
                RunEvent::CheckFail { .. } => s.checks_failed += 1,
                RunEvent::Detection(d) => {
                    s.detections += 1;
                    s.first_detection_cycle.get_or_insert(d.detected_at);
                }
                RunEvent::FaultInjected(i) => {
                    s.faults_injected += 1;
                    s.first_fault_cycle.get_or_insert(i.at_cycle);
                }
                RunEvent::RecoveryComplete { .. } => s.recoveries += 1,
                RunEvent::CheckerKilled { .. } => s.checkers_lost += 1,
                RunEvent::CheckerReleased { .. } => s.checker_releases += 1,
                RunEvent::CheckerAcquired { .. } => s.checker_acquires += 1,
                _ => {}
            }
        }
        s
    }
}

impl Observer for RecordingObserver {
    fn event(&mut self, ev: &RunEvent) {
        self.events.push(ev.clone());
    }
}

// Events and recordings cross threads with the runs that emit them.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<RunEvent>();
    assert_send::<RecordingObserver>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(checker: usize, seq: u64, at: u64) -> RunEvent {
        RunEvent::CheckPass {
            checker,
            result: SegmentResult {
                seq,
                tag: 0,
                mismatch: None,
                at,
            },
        }
    }

    #[test]
    fn replay_reproduces_the_callback_sequence() {
        let events = [
            RunEvent::SegmentOpen {
                main: 0,
                seq: 1,
                cycle: 10,
            },
            RunEvent::CheckStart {
                checker: 1,
                main: 0,
                seq: 1,
                cycle: 20,
            },
            pass(1, 1, 30),
            RunEvent::CheckerReleased { main: 0, cycle: 40 },
            RunEvent::CheckerAcquired { main: 0, cycle: 50 },
        ];
        let mut rec = RecordingObserver::new();
        for e in &events {
            rec.event(e);
        }
        assert_eq!(rec.events(), &events);
        // Replaying a recording into another observer is the same as
        // having attached that observer live.
        let mut replayed = RecordingObserver::new();
        for e in rec.events() {
            replayed.event(e);
        }
        assert_eq!(replayed, rec);
        let s = rec.summary();
        assert_eq!((s.segments_opened, s.checks_passed), (1, 1));
        assert_eq!((s.checker_releases, s.checker_acquires), (1, 1));
        let json = s.to_json();
        assert!(json.contains("\"checker_releases\": 1"), "{json}");
        assert!(json.contains("\"checker_acquires\": 1"), "{json}");
        assert_eq!(
            events.iter().map(RunEvent::cycle).collect::<Vec<_>>(),
            [10, 20, 30, 40, 50]
        );
    }

    #[test]
    fn extend_merges_in_order() {
        // Recordings from several runs merge by replaying them, in
        // order, into one recorder.
        let mut a = RecordingObserver::new();
        a.event(&RunEvent::MainFinished { main: 0, cycle: 5 });
        let mut b = RecordingObserver::new();
        b.event(&RunEvent::MainFinished { main: 1, cycle: 9 });
        let mut merged = RecordingObserver::new();
        for e in a.events().iter().chain(b.events()) {
            merged.event(e);
        }
        assert_eq!(merged.events().len(), 2);
        assert!(matches!(
            merged.events()[1],
            RunEvent::MainFinished { main: 1, cycle: 9 }
        ));
    }

    #[test]
    fn buffers_cross_threads() {
        let mut rec = RecordingObserver::new();
        rec.event(&RunEvent::CheckerParked {
            checker: 2,
            cycle: 77,
        });
        let handle = std::thread::spawn(move || rec.events().len());
        assert_eq!(handle.join().unwrap(), 1);
    }
}
