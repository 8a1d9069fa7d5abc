//! Recovery: rollback to segment checkpoints ([`RecoveryState`]) and
//! checker loss — killing a checker, re-pairing its orphaned mains onto
//! survivors, and degrading mains that lose every checker.

use super::{MainReport, RunWarning, VerifiedRun};
use crate::engine::EngineStep;
use crate::scenario::Binding;
use crate::sink::RunEvent;
use flexstep_sim::{ArchSnapshot, PrivMode};
use std::collections::VecDeque;

/// Rollback bookkeeping for every main (only allocated under
/// [`RecoveryPolicy::Rollback`](crate::RecoveryPolicy::Rollback)).
#[derive(Debug)]
pub(super) struct RecoveryState {
    max_retries: u32,
    slots: Vec<RecoverySlot>,
}

/// One rollback anchor: everything needed to restart a main at a
/// checking-segment boundary. Captured when the segment opens — the SCP
/// snapshot *is* the boundary state, and the journal mark brackets the
/// stores the re-execution must undo.
#[derive(Debug)]
struct Anchor {
    seq: u64,
    snapshot: ArchSnapshot,
    journal_mark: u64,
    open_cycle: u64,
}

#[derive(Debug, Default)]
struct RecoverySlot {
    /// Anchors of segments without a verdict yet, oldest first.
    anchors: VecDeque<Anchor>,
    /// Per consumer index: highest segment seq with a verdict (clean or
    /// failed). Anchors retire once *every* consumer has resolved them.
    resolved: Vec<Option<u64>>,
    /// Detection cycle of the in-flight recovery, until a segment
    /// verifies clean again.
    pending_since: Option<u64>,
    /// Consecutive rollbacks without an intervening clean verdict.
    consecutive: u32,
    /// Memo block: the re-executed stream must be replayed for real
    /// until it verifies clean (DESIGN.md §14).
    blocked: bool,
    recoveries: u64,
    unrecovered: u64,
    wasted_cycles: u64,
    latencies: Vec<u64>,
}

impl RecoveryState {
    /// Empty bookkeeping for one slot per binding, with one verdict
    /// cursor per consumer of the slot's channel.
    pub(super) fn new(max_retries: u32, binding: &[Binding]) -> Self {
        let slots = binding
            .iter()
            .map(|b| RecoverySlot {
                resolved: match b {
                    Binding::Dedicated(cs) => vec![None; cs.len()],
                    Binding::Shared(_) => vec![None; 1],
                },
                ..RecoverySlot::default()
            })
            .collect();
        RecoveryState { max_retries, slots }
    }

    /// Slots whose re-executed stream must not be served from the
    /// verdict memo until it verifies clean (DESIGN.md §14).
    pub(super) fn blocked_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.slots.len()).filter(|&slot| self.slots[slot].blocked)
    }

    /// Copies `slot`'s recovery outcome into its report entry.
    pub(super) fn report_into(&self, slot: usize, m: &mut MainReport) {
        let s = &self.slots[slot];
        m.recoveries = s.recoveries;
        m.unrecovered = s.unrecovered;
        m.wasted_cycles = s.wasted_cycles;
        m.recovery_latency_cycles = s.latencies.clone();
    }
}

impl RecoverySlot {
    /// Records a verdict (clean or failed) on segment `seq` from the
    /// channel's `consumer` — `None` when the checker is no longer on
    /// the channel — then retires every anchor all consumers have
    /// resolved. Returns the journal mark memory can be truncated to
    /// (`u64::MAX` = everything; the caller clamps to the live mark).
    fn resolve(&mut self, consumer: Option<usize>, seq: u64) -> Option<u64> {
        if let Some(r) = consumer.and_then(|i| self.resolved.get_mut(i)) {
            *r = Some(r.map_or(seq, |v| v.max(seq)));
        }
        // An anchor can only retire once every consumer has issued a
        // verdict for its segment.
        let mut min = u64::MAX;
        for r in &self.resolved {
            min = min.min((*r)?);
        }
        let mut truncate_to = None;
        while let Some(front) = self.anchors.front() {
            if front.seq > min {
                break;
            }
            self.anchors.pop_front();
            truncate_to = Some(match self.anchors.front() {
                Some(next) => next.journal_mark,
                None => u64::MAX,
            });
        }
        truncate_to
    }
}

impl VerifiedRun {
    /// Whether a checker *core* has been killed by a fault shot.
    fn checker_is_dead(&self, core: usize) -> bool {
        self.checkers
            .iter()
            .position(|&c| c == core)
            .is_some_and(|i| self.dead_checkers[i])
    }

    /// Drops `main`'s store journal up to `mark`, clamped to the live
    /// mark: stores before it can no longer be rolled back.
    fn truncate_journal(&mut self, main: usize, mark: Option<u64>) {
        if let Some(mark) = mark {
            let live = self.fs.soc.mem.journal_mark(main);
            self.fs.soc.mem.truncate_journal(main, mark.min(live));
        }
    }

    /// Reverses the done-handling of a main that must resume producing
    /// (rollback recovery re-executes its tail).
    fn unfinish_if_done(&mut self, slot: usize) {
        if !self.done[slot] {
            return;
        }
        let main = self.mains[slot];
        self.done[slot] = false;
        self.done_count -= 1;
        self.finish_cycle[slot] = 0;
        self.fs.soc.core_mut(main).unpark();
        if self.arbiter_of[slot].is_some() {
            // Finishing disabled checking; the re-execution needs it back.
            self.fs.fabric.set_check(main, true).expect("main core");
        }
        // Resume coverage accounting where the re-execution resumes; the
        // finish → rollback gap counts in neither bucket.
        let now = self.fs.soc.now();
        let live = self.fs.fabric.unit(main).checking_enabled;
        self.coverage[slot].resume(now, live);
    }

    /// Rolls `main` back to `anchor`: restores the register file from the
    /// SCP snapshot, undoes its journaled stores, flushes the in-flight
    /// DBC stream and replay state, and re-arms the core at the segment
    /// boundary. The architectural restore is charged as an SCP apply.
    fn apply_rollback(&mut self, slot: usize, anchor: &Anchor) {
        let main = self.mains[slot];
        {
            let core = self.fs.soc.core_mut(main);
            core.state.restore(&anchor.snapshot);
            // Checkpoints carry no privilege: checking segments are
            // user-mode only, so the boundary was user mode.
            core.state.prv = PrivMode::User;
            core.reset_replay_uarch();
            core.clear_reservation();
        }
        self.fs.soc.mem.rollback_journal(main, anchor.journal_mark);
        self.fs.soc.mem.truncate_journal(main, anchor.journal_mark);
        {
            let unit = self.fs.fabric.unit_mut(main);
            // Drops buffered packets and banked fingerprints; the retried
            // stream re-fingerprints from scratch, so a stale memo entry
            // can never match it.
            unit.fifo.reset();
            if unit.tracker.is_open() {
                unit.tracker.abandon();
            }
        }
        let checkers: Vec<usize> = self.fs.fabric.checkers_of(main).to_vec();
        for c in checkers {
            self.fs.fabric.reset_checker_replay(c);
        }
        let cost = self.fs.fabric.config().scp_apply_cycles;
        self.fs.soc.stall_core(main, cost);
        self.unfinish_if_done(slot);
        // A rollback overrides a policy release: the re-execution must
        // be re-verified, so checking comes back on (shared slots
        // rejoin their arbiter in the caller, `rejoin_arbiter`).
        if self.pairing.as_mut().is_some_and(|p| p.cancel(slot)) {
            let now = self.fs.soc.now();
            let _ = self.fs.fabric.set_check(main, true);
            self.coverage[slot].transition(now, true);
        }
    }

    /// Kill-path re-verification: rolls a main back to its *oldest*
    /// unresolved segment boundary so a replacement checker re-verifies
    /// everything the dead one left unverdicted. No-op under
    /// [`RecoveryPolicy::Detect`](crate::RecoveryPolicy::Detect) (the
    /// unverified tail is dropped — a documented coverage loss) or when
    /// every segment already resolved.
    fn rollback_oldest_unresolved(&mut self, slot: usize, now: u64) {
        let anchor = {
            let Some(rec) = self.recovery.as_mut() else {
                return;
            };
            let s = &mut rec.slots[slot];
            let Some(anchor) = s.anchors.pop_front() else {
                return;
            };
            // Later anchors are inside the re-executed region; the retry
            // regenerates them under fresh seqs.
            s.anchors.clear();
            s.wasted_cycles += now.saturating_sub(anchor.open_cycle);
            anchor
        };
        self.apply_rollback(slot, &anchor);
    }

    /// Degrades a main to unchecked execution (its last checker died):
    /// checking off, stream flushed, typed warning raised. The run keeps
    /// completing instead of deadlocking on a channel nobody will drain.
    fn degrade_unchecked(&mut self, slot: usize, now: u64) {
        let main = self.mains[slot];
        let _ = self.fs.fabric.set_check(main, false);
        self.fs.fabric.unit_mut(main).fifo.reset();
        self.arbiter_of[slot] = None;
        self.repair_pending[slot] = None;
        if let Some(rec) = &mut self.recovery {
            let s = &mut rec.slots[slot];
            if s.pending_since.take().is_some() {
                // An in-flight recovery can never verify clean again.
                s.unrecovered += 1;
            }
            s.anchors.clear();
            s.blocked = false;
            self.truncate_journal(main, Some(u64::MAX));
        }
        self.warnings.push(RunWarning::UncheckedExecution {
            main,
            from_cycle: now,
        });
        self.coverage[slot].transition(now, false);
        if let Some(p) = &mut self.pairing {
            // No channel survives, so future pairing transitions on this
            // slot are void; the degradation warning above supersedes
            // the released-window accounting.
            p.cancel(slot);
        }
    }

    /// Handles a fired
    /// [`FaultPlan::kill_checker_at`](crate::FaultPlan::kill_checker_at)
    /// shot: halts the checker core, tears down its channel, and
    /// re-pairs the orphaned mains onto surviving pool members (or
    /// degrades them to unchecked execution when none survive).
    pub(super) fn kill_checker(&mut self, idx: usize) {
        if self.dead_checkers[idx] {
            return;
        }
        self.dead_checkers[idx] = true;
        self.checkers_lost += 1;
        let checker = self.checkers[idx];
        let now = self.fs.soc.now();
        self.fs.soc.core_mut(checker).halt();
        self.emit(RunEvent::CheckerKilled {
            checker,
            cycle: now,
        });
        if let Some(ai) = self.arbiters.iter().position(|a| a.checker() == checker) {
            // Shared pool member: every main it was serving (granted or
            // queued) re-pairs round-robin onto the survivors.
            let orphans = self.arbiters[ai].take_orphans();
            self.fs.fabric.kill_checker(checker);
            let survivors: Vec<usize> = (0..self.arbiters.len())
                .filter(|&i| i != ai && !self.checker_is_dead(self.arbiters[i].checker()))
                .collect();
            for (k, &orphan) in orphans.iter().enumerate() {
                let slot = self.slot_of[orphan].expect("orphan is a main");
                self.rollback_oldest_unresolved(slot, now);
                if survivors.is_empty() {
                    self.degrade_unchecked(slot, now);
                    continue;
                }
                let target = survivors[k % survivors.len()];
                self.arbiter_of[slot] = Some(target);
                self.repair_pending[slot] = Some(now);
                let immediate = self.arbiters[target]
                    .adopt(&mut self.fs.fabric, orphan)
                    .expect("orphan is pending");
                if self.done[slot] {
                    // Still done after the rollback pass: nothing to
                    // re-execute, only buffered data to drain.
                    self.arbiters[target].release(orphan);
                }
                if immediate {
                    let new_checker = self.arbiters[target].checker();
                    self.granted(new_checker, orphan, now);
                }
            }
            // Slots that finished their hand-over (a pairing release or
            // a finish) before the kill are no orphans, yet still name
            // the dead arbiter: a later acquire or rollback would adopt
            // them back onto the dead checker and wait forever.
            let stale: Vec<usize> = (0..self.mains.len())
                .filter(|&slot| self.arbiter_of[slot] == Some(ai))
                .collect();
            for (k, slot) in stale.into_iter().enumerate() {
                if !survivors.is_empty() {
                    let target = survivors[(orphans.len() + k) % survivors.len()];
                    self.arbiter_of[slot] = Some(target);
                } else if self.done[slot] {
                    self.arbiter_of[slot] = None;
                } else {
                    self.degrade_unchecked(slot, now);
                }
            }
        } else if let Some((main, survivors)) = self.fs.fabric.kill_checker(checker) {
            // Dedicated channel: surviving consumers are re-indexed by
            // the fabric and restart at the next SCP.
            let slot = self.slot_of[main].expect("channel main");
            self.rollback_oldest_unresolved(slot, now);
            if let Some(rec) = &mut self.recovery {
                // Consumer indices changed; verdict bookkeeping restarts.
                rec.slots[slot].resolved = vec![None; survivors.max(1)];
            }
            if survivors == 0 {
                self.degrade_unchecked(slot, now);
            }
        }
        self.sync_fault_memo_blocks();
    }

    /// Rollback-recovery reaction to one engine step: anchors new
    /// segments, retires verdicted ones, and rolls the faulted main back
    /// on a detection. Only called under
    /// [`RecoveryPolicy::Rollback`](crate::RecoveryPolicy::Rollback).
    pub(super) fn handle_recovery_step(&mut self, core: usize, step: &EngineStep) {
        match step {
            EngineStep::SegmentOpened => {
                let Some(slot) = self.slot_of[core] else {
                    return;
                };
                let Some(seq) = self.fs.fabric.unit(core).tracker.open_seq() else {
                    return;
                };
                let snapshot = self.fs.soc.core(core).state.snapshot();
                let journal_mark = self.fs.soc.mem.journal_mark(core);
                let open_cycle = self.fs.soc.now();
                let rec = self.recovery.as_mut().expect("rollback policy");
                rec.slots[slot].anchors.push_back(Anchor {
                    seq,
                    snapshot,
                    journal_mark,
                    open_cycle,
                });
            }
            EngineStep::CheckerSegmentDone(result) => {
                let Some((main, consumer)) = self.fs.fabric.channel_of(core) else {
                    return;
                };
                let Some(slot) = self.slot_of[main] else {
                    return;
                };
                let now = self.fs.soc.now();
                let (truncate, completed) = {
                    let rec = self.recovery.as_mut().expect("rollback policy");
                    let s = &mut rec.slots[slot];
                    let truncate = s.resolve(Some(consumer), result.seq);
                    // A clean verdict ends the recovery window: the
                    // retried stream verified, the retry budget resets,
                    // and the memo block lifts.
                    s.consecutive = 0;
                    let completed = s.pending_since.take().map(|t| now.saturating_sub(t));
                    if let Some(latency) = completed {
                        s.latencies.push(latency);
                        s.blocked = false;
                    }
                    (truncate, completed)
                };
                self.truncate_journal(main, truncate);
                if let Some(latency) = completed {
                    self.emit(RunEvent::RecoveryComplete {
                        main,
                        cycle: now,
                        latency,
                    });
                    self.sync_fault_memo_blocks();
                }
            }
            EngineStep::CheckerDetected(event) => {
                self.handle_detection_recovery(
                    event.main_core,
                    event.checker_core,
                    event.segment_seq,
                );
            }
            _ => {}
        }
    }

    /// Rollback-or-exhaust decision for one detection (DESIGN.md §14).
    fn handle_detection_recovery(&mut self, main: usize, checker: usize, seq: u64) {
        let now = self.fs.soc.now();
        let Some(slot) = self.slot_of[main] else {
            return;
        };
        let consumer = self.fs.fabric.channel_of(checker).map(|(_, i)| i);
        enum Decision {
            Roll(Box<Anchor>),
            Exhausted(Option<u64>),
        }
        let decision = {
            let rec = self.recovery.as_mut().expect("rollback policy");
            let max_retries = rec.max_retries;
            let s = &mut rec.slots[slot];
            let pos = s.anchors.iter().position(|a| a.seq == seq);
            match pos {
                Some(i) if s.consecutive < max_retries => {
                    let anchor = s.anchors.remove(i).expect("position is in range");
                    // Anchors after (and before) the rollback point
                    // describe segments whose in-flight data the flush
                    // destroys; the retry regenerates them under fresh
                    // seqs, so they can never resolve — drop them.
                    s.anchors.clear();
                    s.recoveries += 1;
                    s.consecutive += 1;
                    s.blocked = true;
                    if s.pending_since.is_none() {
                        // Consecutive retries keep the first detection as
                        // the latency epoch: detect → verified-again.
                        s.pending_since = Some(now);
                    }
                    s.wasted_cycles += now.saturating_sub(anchor.open_cycle);
                    Decision::Roll(Box::new(anchor))
                }
                _ => {
                    // Retry budget exhausted (or the anchor is gone):
                    // record detect-only, like RecoveryPolicy::Detect.
                    s.unrecovered += 1;
                    let truncate = s.resolve(consumer, seq);
                    s.pending_since = None;
                    s.consecutive = 0;
                    s.blocked = false;
                    Decision::Exhausted(truncate)
                }
            }
        };
        match decision {
            Decision::Roll(anchor) => {
                self.apply_rollback(slot, &anchor);
                // The grant may have been revoked before the detection
                // landed; the retry needs the checker back.
                self.rejoin_arbiter(slot, now);
                self.emit(RunEvent::RecoveryStart {
                    main,
                    seq,
                    cycle: now,
                });
            }
            Decision::Exhausted(truncate) => {
                self.truncate_journal(main, truncate);
                self.warnings.push(RunWarning::RetriesExhausted {
                    main,
                    seq,
                    at_cycle: now,
                });
            }
        }
        self.sync_fault_memo_blocks();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexstep_sim::ArchState;

    fn anchor(seq: u64, journal_mark: u64) -> Anchor {
        Anchor {
            seq,
            snapshot: ArchState::new(0).snapshot(),
            journal_mark,
            open_cycle: 0,
        }
    }

    #[test]
    fn anchors_on_a_two_consumer_channel_retire_once_both_resolved_them() {
        let rec = RecoveryState::new(3, &[Binding::Dedicated(vec![1, 2])]);
        let mut s = rec.slots.into_iter().next().expect("one slot");
        assert_eq!(s.resolved.len(), 2, "one verdict cursor per consumer");
        s.anchors.extend([anchor(0, 10), anchor(1, 20)]);
        assert_eq!(s.resolve(Some(0), 0), None, "consumer 1 owes seq 0");
        assert_eq!(s.anchors.len(), 2);
        // The second verdict retires seq 0: truncate up to seq 1's mark.
        assert_eq!(s.resolve(Some(1), 0), Some(20));
        assert_eq!(s.anchors.len(), 1);
        // Other order on seq 1; with no anchor left everything goes.
        assert_eq!(s.resolve(Some(1), 1), None);
        assert_eq!(s.resolve(Some(0), 1), Some(u64::MAX));
        assert!(s.anchors.is_empty());
        // A verdict from a checker off the channel records nothing.
        s.anchors.push_back(anchor(2, 30));
        assert_eq!(s.resolve(None, 2), None);
        assert_eq!(s.resolve(Some(2), 2), None);
        assert_eq!(s.resolved, vec![Some(1), Some(1)]);
        assert_eq!(s.anchors.len(), 1);
    }
}
