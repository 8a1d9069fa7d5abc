//! Reliability policy: per-slot checked/unchecked accounting
//! ([`Coverage`]), the dynamic pairing runtime with its release/acquire
//! transitions, the [`ReliabilityMode::FullLockstep`] wait gate, the
//! warning for shots that expire in policy-unchecked windows, and the
//! per-slot [`ModeStats`].

use super::{ModeStats, RunReport, RunWarning, VerifiedRun};
use crate::sink::RunEvent;
use flexstep_sim::{PairingAction, PairingEvent, PairingSchedule, ReliabilityMode};

/// Runtime state of a [`PairingSchedule`] being executed against the
/// arbiters: the sorted event list plus per-slot pending actions.
#[derive(Debug)]
pub(super) struct PairingRuntime {
    /// Schedule events, sorted by cycle.
    events: Vec<PairingEvent>,
    /// Cursor into `events` (everything before it is already pending or
    /// applied).
    next: usize,
    /// Per slot: a due action not yet applied. Releases defer to the
    /// next segment boundary; a later due event overrides an earlier
    /// one still pending.
    pending: Vec<Option<PairingAction>>,
    /// Per slot: currently policy-released (running unchecked until the
    /// next acquire).
    released: Vec<bool>,
    /// Per slot: `(acquires, releases)` applied so far.
    counts: Vec<(u64, u64)>,
}

impl PairingRuntime {
    /// The runtime for `schedule` over `slots` main slots, nothing due
    /// yet.
    pub(super) fn new(schedule: &PairingSchedule, slots: usize) -> Self {
        PairingRuntime {
            events: schedule.events().to_vec(),
            next: 0,
            pending: vec![None; slots],
            released: vec![false; slots],
            counts: vec![(0, 0); slots],
        }
    }

    /// Cycle of the next schedule event not yet due (`u64::MAX` when
    /// none is left).
    pub(super) fn next_cycle(&self) -> u64 {
        self.events.get(self.next).map_or(u64::MAX, |e| e.at_cycle)
    }

    /// Ends `slot`'s released window, if it has one, dropping the
    /// action pending on it: recovery overrides the policy (a rollback
    /// turns checking back on, a degradation leaves no channel). Returns
    /// whether the slot was released. A slot that is not released keeps
    /// its pending action — a release still due lands at the segment
    /// boundary the rollback restores.
    pub(super) fn cancel(&mut self, slot: usize) -> bool {
        let released = std::mem::take(&mut self.released[slot]);
        if released {
            self.pending[slot] = None;
        }
        released
    }
}

/// Checked/unchecked cycle accumulator for one main slot. Interval
/// arithmetic over transitions: `since` marks the start of the current
/// interval, `live` which bucket it lands in. Freezing at the main's
/// finish keeps checker-drain cycles out of both buckets.
#[derive(Debug, Clone, Copy)]
pub(super) struct Coverage {
    checked: u64,
    unchecked: u64,
    since: u64,
    live: bool,
    frozen: bool,
}

impl Coverage {
    /// An accumulator whose first interval opens at cycle 0 in the
    /// bucket `live` names.
    pub(super) fn new(live: bool) -> Self {
        Coverage {
            checked: 0,
            unchecked: 0,
            since: 0,
            live,
            frozen: false,
        }
    }

    /// Closes the current interval at `now` and starts the next with
    /// the given liveness. No-op once frozen.
    pub(super) fn transition(&mut self, now: u64, live: bool) {
        if self.frozen {
            return;
        }
        let d = now.saturating_sub(self.since);
        if self.live {
            self.checked += d;
        } else {
            self.unchecked += d;
        }
        self.since = now;
        self.live = live;
    }

    /// Settles the open interval at `now` and stops counting: the
    /// main finished, so its checker-drain cycles belong to neither
    /// bucket.
    pub(super) fn freeze(&mut self, now: u64) {
        let live = self.live;
        self.transition(now, live);
        self.frozen = true;
    }

    /// Restarts counting at `now` in the bucket `live` names (a rollback
    /// un-finished the main); the cycles since [`Coverage::freeze`]
    /// count in neither bucket.
    pub(super) fn resume(&mut self, now: u64, live: bool) {
        self.frozen = false;
        self.since = now;
        self.live = live;
    }

    /// The `(checked, unchecked)` totals with the open interval settled
    /// at `now`.
    fn settled(mut self, now: u64) -> (u64, u64) {
        let live = self.live;
        self.transition(now, live);
        (self.checked, self.unchecked)
    }
}

/// Wait-poll granularity for a [`ReliabilityMode::FullLockstep`] main
/// holding at a checkpoint: the main re-checks its verdict every this
/// many cycles while a complete segment sits unverified in its FIFO.
/// Small enough that detection follows the checker's verdict almost
/// immediately; large enough not to dominate the ready queue.
pub(super) const LOCKSTEP_WAIT_QUANTUM: u64 = 8;

impl VerifiedRun {
    // ----- dynamic pairing --------------------------------------------------

    /// Applies due pairing-schedule transitions. Releases wait for the
    /// slot's segment boundary — disabling checking mid-segment would
    /// abandon the open segment and strand its checker waiting for an
    /// ECP that never arrives — while acquires apply immediately. A
    /// later due event for the same slot overrides one still pending.
    /// The runtime is out of the run while the transitions apply.
    pub(super) fn drive_pairing(&mut self) {
        let Some(mut p) = self.pairing.take() else {
            return;
        };
        let now = self.fs.soc.now();
        while p.next < p.events.len() && p.events[p.next].at_cycle <= now {
            let ev = p.events[p.next];
            p.pending[ev.slot] = Some(ev.action);
            p.next += 1;
        }
        for slot in 0..self.mains.len() {
            match p.pending[slot] {
                Some(PairingAction::Release) => self.try_release(&mut p, slot, now),
                Some(PairingAction::Acquire) => self.try_acquire(&mut p, slot, now),
                None => {}
            }
        }
        self.pairing = Some(p);
    }

    /// Applies one pending release if the slot sits at a segment
    /// boundary; otherwise leaves it pending for the next step.
    fn try_release(&mut self, p: &mut PairingRuntime, slot: usize, now: u64) {
        let main = self.mains[slot];
        if p.released[slot] || self.done[slot] || !self.fs.fabric.unit(main).checking_enabled {
            // Nothing to release: finished slots released in their done
            // handling, degraded slots have no channel left. Drop it.
            p.pending[slot] = None;
            return;
        }
        if self.fs.fabric.unit(main).tracker.is_open() {
            return; // not at a boundary yet; retry next step
        }
        self.fs.fabric.set_check(main, false).expect("main core");
        if let Some(arb) = self.arbiter_of[slot] {
            // Hand the shared checker back: the arbiter completes the
            // hand-over once the buffered stream drains (buffered
            // segments are still verified — release stops *production*,
            // not verification of data already logged).
            self.arbiters[arb].release(main);
        }
        p.pending[slot] = None;
        p.released[slot] = true;
        p.counts[slot].1 += 1;
        self.coverage[slot].transition(now, false);
        self.emit(RunEvent::CheckerReleased { main, cycle: now });
    }

    /// Applies one pending acquire: re-enables checking and, for shared
    /// slots, re-enters arbitration.
    fn try_acquire(&mut self, p: &mut PairingRuntime, slot: usize, now: u64) {
        p.pending[slot] = None;
        if !p.released[slot] || self.done[slot] {
            return;
        }
        let main = self.mains[slot];
        self.rejoin_arbiter(slot, now);
        self.fs
            .fabric
            .set_check(main, true)
            .expect("released slot keeps its association");
        p.released[slot] = false;
        p.counts[slot].0 += 1;
        self.coverage[slot].transition(now, true);
        self.emit(RunEvent::CheckerAcquired { main, cycle: now });
    }

    /// Re-enters arbitration for a shared slot whose main produces again
    /// (an acquire, or a rollback's re-execution): retracts a release
    /// its arbiter has not consumed yet, or adopts the main back in
    /// after a hand-over.
    pub(super) fn rejoin_arbiter(&mut self, slot: usize, now: u64) {
        let Some(arb) = self.arbiter_of[slot] else {
            return;
        };
        let main = self.mains[slot];
        self.arbiters[arb].retract_release(main);
        if !self.arbiters[arb].is_serving(main) {
            let immediate = self.arbiters[arb]
                .adopt(&mut self.fs.fabric, main)
                .expect("a main outside its arbiter is pending");
            if immediate {
                let checker = self.arbiters[arb].checker();
                self.granted(checker, main, now);
            }
        }
    }

    /// Reports a shot on `channel` that expired without landing, with
    /// the typed warning when its main ran unchecked *by policy* (mode
    /// or released window): such shots must never vanish silently.
    pub(super) fn shot_expired(&mut self, channel: usize, now: u64) {
        let main = self.mains[channel];
        let policy_unchecked = !self.modes[channel].is_checked()
            || self.pairing.as_ref().is_some_and(|p| p.released[channel]);
        if policy_unchecked {
            self.warnings.push(RunWarning::ShotInUncheckedWindow {
                main,
                at_cycle: now,
            });
        }
        self.emit(RunEvent::ShotExpired { main, cycle: now });
    }

    /// Whether `core` is a [`ReliabilityMode::FullLockstep`] main that
    /// must hold at its checkpoint: a complete segment sits unverified
    /// in its FIFO and a live checker still owes the verdict. Released,
    /// degraded or finished slots never wait — there is nobody left to
    /// wait for.
    pub(super) fn lockstep_must_wait(&self, core: usize) -> bool {
        let Some(slot) = self.slot_of[core] else {
            return false;
        };
        if self.done[slot]
            || self.modes[slot] != ReliabilityMode::FullLockstep
            || !self.fs.fabric.checking_live(core)
        {
            return false;
        }
        let fifo = &self.fs.fabric.unit(core).fifo;
        (0..fifo.consumers()).any(|c| fifo.complete_segments_ahead(c) >= 1)
    }

    /// Builds the per-slot reliability accounting: coverage intervals
    /// settled at the current cycle, checkpoint stalls from the fabric,
    /// and matched-detection latencies attributed per slot.
    pub(super) fn mode_stats(&self, report: &RunReport) -> Vec<ModeStats> {
        let now = self.fs.soc.now();
        let matched = report.matched_detections();
        self.mains
            .iter()
            .enumerate()
            .map(|(slot, &core)| {
                let (checked_cycles, unchecked_cycles) = self.coverage[slot].settled(now);
                let (acquires, releases) = self.pairing.as_ref().map_or((0, 0), |p| p.counts[slot]);
                let mut detections = 0;
                let mut detection_latency_total = 0;
                for m in matched.iter().filter(|m| m.main_core == core) {
                    detections += 1;
                    detection_latency_total += m.latency_cycles();
                }
                ModeStats {
                    core,
                    mode: self.modes[slot],
                    checked_cycles,
                    unchecked_cycles,
                    checkpoint_stall_cycles: self.fs.fabric.unit(core).cp_stall_cycles,
                    acquires,
                    releases,
                    detections,
                    detection_latency_total,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_buckets_the_span_up_to_freeze_and_restarts_at_resume() {
        let mut c = Coverage::new(true);
        c.transition(100, false); // checked 0..100
        c.transition(250, true); // unchecked 100..250
        c.freeze(400); // checked 250..400
        assert_eq!(c.settled(400), (250, 150));
        // After the freeze no cycle counts, whatever the transitions say.
        c.transition(500, false);
        assert_eq!(c.settled(900), (250, 150));
        // Resuming opens a fresh interval at its own cycle: 400..1000
        // stays in neither bucket.
        c.resume(1000, false);
        assert_eq!(c.settled(1300), (250, 450));
        c.transition(1500, true);
        c.freeze(1600);
        assert_eq!(c.settled(5000), (350, 650));
    }

    #[test]
    fn pairing_cancel_ends_only_a_released_window() {
        let schedule = PairingSchedule::new().window(0, 100, 300);
        let mut p = PairingRuntime::new(&schedule, 2);
        assert_eq!(p.next_cycle(), 100);
        p.released[0] = true;
        p.pending[0] = Some(PairingAction::Acquire);
        p.pending[1] = Some(PairingAction::Release);
        // The released slot: window closed, its pending acquire dropped.
        assert!(p.cancel(0));
        assert!(!p.released[0]);
        assert_eq!(p.pending[0], None);
        assert!(!p.cancel(0), "a closed window cancels nothing");
        // A checked slot keeps its due release for the next boundary.
        assert!(!p.cancel(1));
        assert_eq!(p.pending[1], Some(PairingAction::Release));
        p.next = schedule.len();
        assert_eq!(p.next_cycle(), u64::MAX);
    }
}
