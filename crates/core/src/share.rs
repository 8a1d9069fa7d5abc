//! Checker sharing and conflict resolution (§III-C).
//!
//! The paper: *"The main core's FIFO is used to resolve conflicts when
//! two main cores compete for access to a checker core. In such cases,
//! only one main core's FIFO is permitted to send data to the checker
//! core, while the other temporarily buffers its data in its own FIFO
//! until the checker core is released."*
//!
//! [`CheckerArbiter`] implements exactly that policy over the fabric's
//! pending/grant/revoke primitives: main cores `request` the checker and
//! are granted in FIFO order; a waiting main keeps producing into its own
//! buffer (with DMA spill if configured); when the granted main is
//! `release`d and its stream has drained, the arbiter switches the
//! channel to the next waiter at a segment boundary.
//!
//! N:1 consolidation platforms — the scenario the paper's introduction
//! motivates — are built through [`Scenario`](crate::Scenario) with
//! [`Topology::SharedChecker`](crate::Topology::SharedChecker); the
//! harness instantiates one arbiter per shared checker and surfaces
//! [`ArbiterStats`] in the run report.

use crate::checker::CheckPhase;
use crate::fabric::{Fabric, FlexError};
use std::collections::{BTreeSet, VecDeque};

/// Arbitration statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Requests granted immediately (checker was free).
    pub immediate_grants: u64,
    /// Requests that found the checker occupied and had to queue.
    pub conflicts: u64,
    /// Channel hand-overs performed.
    pub switches: u64,
}

/// FIFO arbiter for one checker core shared by several main cores.
///
/// The arbiter never tears a channel down mid-segment: a switch happens
/// only once the granted main has been [`release`](Self::release)d, its
/// FIFO has fully drained, and the checker sits between segments
/// ([`CheckPhase::WaitScp`]). Waiting mains buffer into their own FIFOs
/// the whole time, so no checking data is ever lost to arbitration.
#[derive(Debug)]
pub struct CheckerArbiter {
    checker: usize,
    granted: Option<usize>,
    queue: VecDeque<usize>,
    released: BTreeSet<usize>,
    /// Aggregate statistics.
    pub stats: ArbiterStats,
}

impl CheckerArbiter {
    /// Creates an arbiter for `checker`.
    pub fn new(checker: usize) -> Self {
        CheckerArbiter {
            checker,
            granted: None,
            queue: VecDeque::new(),
            released: BTreeSet::new(),
            stats: ArbiterStats::default(),
        }
    }

    /// The checker core this arbiter manages.
    pub fn checker(&self) -> usize {
        self.checker
    }

    /// The main core currently connected, if any.
    pub fn granted(&self) -> Option<usize> {
        self.granted
    }

    /// Number of mains waiting for the checker.
    pub fn waiting(&self) -> usize {
        self.queue.len()
    }

    /// Whether no main is connected or waiting.
    pub fn is_idle(&self) -> bool {
        self.granted.is_none() && self.queue.is_empty()
    }

    /// A main core requests the checker. If the checker is free the
    /// channel is connected immediately; otherwise the main is queued and
    /// buffers into its own FIFO (the §III-C conflict path). Returns
    /// whether the grant was immediate.
    ///
    /// # Errors
    ///
    /// Fails if the core is not a main core or its previous stream has
    /// not drained.
    pub fn request(&mut self, fabric: &mut Fabric, main: usize) -> Result<bool, FlexError> {
        fabric.associate_pending(main)?;
        if self.granted.is_none() && self.queue.is_empty() {
            fabric.grant(main, self.checker)?;
            self.granted = Some(main);
            self.stats.immediate_grants += 1;
            Ok(true)
        } else {
            self.queue.push_back(main);
            self.stats.conflicts += 1;
            Ok(false)
        }
    }

    /// Marks a main core as done producing (its task finished or checking
    /// was disabled); the channel is handed over once its buffered data
    /// has been verified.
    pub fn release(&mut self, main: usize) {
        self.released.insert(main);
    }

    /// Reverses a [`release`](Self::release): the main resumed producing
    /// (rollback recovery un-finished it), so the channel must not be
    /// handed over on drain.
    pub fn retract_release(&mut self, main: usize) {
        self.released.remove(&main);
    }

    /// Whether `main` is currently granted or queued on this arbiter.
    pub fn is_serving(&self, main: usize) -> bool {
        self.granted == Some(main) || self.queue.contains(&main)
    }

    /// Tears the arbiter down after its checker suffered a permanent
    /// failure: returns every main it was serving (the granted one first,
    /// then the queue in FIFO order) so the caller can re-pair them onto
    /// surviving arbiters. The arbiter is left idle and never grants
    /// again.
    pub fn take_orphans(&mut self) -> Vec<usize> {
        let mut orphans = Vec::with_capacity(1 + self.queue.len());
        if let Some(g) = self.granted.take() {
            orphans.push(g);
        }
        orphans.extend(self.queue.drain(..));
        self.released.clear();
        orphans
    }

    /// Adopts a main orphaned by another arbiter's checker failure. The
    /// main is already in the pending state (its channel was dissolved
    /// when the dead checker was torn down), possibly with buffered data
    /// — so unlike [`request`](Self::request) no fresh association is
    /// made and a non-empty FIFO is fine: the grant connects the
    /// surviving checker to the front of the buffered stream. Returns
    /// whether the grant was immediate.
    ///
    /// # Errors
    ///
    /// Fails if the immediate grant is rejected by the fabric.
    pub fn adopt(&mut self, fabric: &mut Fabric, main: usize) -> Result<bool, FlexError> {
        if self.granted.is_none() && self.queue.is_empty() {
            fabric.grant(main, self.checker)?;
            self.granted = Some(main);
            self.stats.immediate_grants += 1;
            Ok(true)
        } else {
            self.queue.push_back(main);
            self.stats.conflicts += 1;
            Ok(false)
        }
    }

    /// Advances the arbitration state machine: performs a channel
    /// hand-over when the granted main is released, drained, and the
    /// checker is between segments. Call once per scheduling quantum.
    /// Returns the newly granted main on a switch.
    pub fn poll(&mut self, fabric: &mut Fabric) -> Option<usize> {
        if let Some(g) = self.granted {
            if !self.released.contains(&g) || !fabric.unit(g).fifo.is_empty() {
                return None;
            }
            if fabric.unit(self.checker).checker.phase != CheckPhase::WaitScp {
                return None;
            }
            if fabric.revoke(self.checker).is_err() {
                return None;
            }
            self.released.remove(&g);
            self.granted = None;
        }
        let next = self.queue.pop_front()?;
        match fabric.grant(next, self.checker) {
            Ok(()) => {
                self.granted = Some(next);
                self.stats.switches += 1;
                Some(next)
            }
            Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;
    use crate::harness::VerifiedRun;
    use crate::scenario::{Scenario, Topology};
    use flexstep_isa::asm::{Assembler, Program};
    use flexstep_isa::XReg;

    /// A store-heavy loop in a private text/data window.
    fn job(slot: u64, iters: i64) -> Program {
        let text = 0x1000_0000 + slot * 0x10_0000;
        let data = 0x2000_0000 + slot * 0x10_0000;
        let mut asm = Assembler::with_bases(format!("job{slot}"), text, data);
        asm.li(XReg::A0, iters);
        asm.li(XReg::A1, data as i64);
        asm.li(XReg::A3, 0);
        asm.label("loop").unwrap();
        asm.sd(XReg::A1, XReg::A0, 0);
        asm.ld(XReg::A2, XReg::A1, 0);
        asm.add(XReg::A3, XReg::A3, XReg::A2);
        asm.addi(XReg::A0, XReg::A0, -1);
        asm.bnez(XReg::A0, "loop");
        asm.ecall();
        asm.finish().unwrap()
    }

    /// N mains, one shared checker (core N), built through the front door.
    fn shared_run(programs: &[Program]) -> VerifiedRun {
        let mut sc = Scenario::new(&programs[0]);
        for p in &programs[1..] {
            sc = sc.program(p);
        }
        sc.cores(programs.len() + 1)
            .topology(Topology::SharedChecker { checkers: 1 })
            .fabric(FabricConfig::paper())
            .build()
            .unwrap()
    }

    #[test]
    fn two_mains_share_one_checker() {
        let programs = vec![job(0, 3000), job(1, 3000)];
        let mut run = shared_run(&programs);
        let r = run.run_to_completion(50_000_000);
        assert!(r.per_main.iter().all(|m| m.completed), "{r:?}");
        assert_eq!(r.segments_failed, 0);
        assert!(r.detections.is_empty());
        assert_eq!(r.arbiters[0].immediate_grants, 1);
        assert_eq!(r.arbiters[0].conflicts, 1, "second main must queue");
        assert_eq!(r.arbiters[0].switches, 1, "one hand-over");
        // Every segment of both mains verified.
        assert!(r.segments_checked >= 2);
    }

    #[test]
    fn three_mains_verified_in_request_order() {
        let programs = vec![job(0, 1200), job(1, 900), job(2, 600)];
        let mut run = shared_run(&programs);
        let r = run.run_to_completion(80_000_000);
        assert!(r.per_main.iter().all(|m| m.completed));
        assert_eq!(r.segments_failed, 0);
        assert_eq!(r.arbiters[0].conflicts, 2);
        assert_eq!(r.arbiters[0].switches, 2);
    }

    #[test]
    fn shared_checking_verifies_as_much_as_dedicated() {
        // The same program verified (a) with a dedicated checker and
        // (b) through a shared checker: the shared pool covers both
        // mains' segments.
        let p = job(0, 2500);
        let mut dedicated = Scenario::new(&p).cores(2).build().unwrap();
        let rd = dedicated.run_to_completion(50_000_000);

        let programs = vec![job(0, 2500), job(1, 400)];
        let mut shared = shared_run(&programs);
        let rs = shared.run_to_completion(80_000_000);
        assert!(
            rs.segments_checked > rd.segments_checked,
            "shared run covers both mains: {} vs {}",
            rs.segments_checked,
            rd.segments_checked
        );
        assert_eq!(rs.segments_failed, 0);
    }

    #[test]
    fn waiting_main_buffers_without_loss() {
        // The second main finishes long before it is granted; all its
        // segments must still be verified from its own buffer.
        let programs = vec![job(0, 6000), job(1, 300)];
        let mut run = shared_run(&programs);
        let r = run.run_to_completion(100_000_000);
        assert!(r.per_main[1].completed);
        assert!(r.per_main[1].finish_cycle < r.per_main[0].finish_cycle);
        assert_eq!(r.segments_failed, 0);
        assert_eq!(r.arbiters[0].switches, 1);
    }

    #[test]
    fn fault_in_waiting_buffer_detected_after_handover() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let programs = vec![job(0, 4000), job(1, 2000)];
        let mut run = shared_run(&programs);
        let checker = run.checkers()[0];
        // Let main 1 buffer some segments while waiting, then corrupt its
        // buffered (not-yet-granted) stream.
        let mut injected = false;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..400_000 {
            if !run.step_once() {
                break;
            }
            if !injected
                && run.granted_main(checker) == Some(0)
                && run.fabric().unit(1).fifo.len() > 4
            {
                let now = run.soc().now();
                if crate::fault::inject_random_fault(run.fabric_mut(), 1, now, &mut rng).is_some() {
                    injected = true;
                }
            }
        }
        assert!(injected, "fault must land in the waiting main's buffer");
        let r = run.report();
        assert!(
            r.segments_failed > 0 || !r.detections.is_empty(),
            "corruption in the waiting buffer must be detected after hand-over: {r:?}"
        );
        assert!(r.detections.iter().all(|d| d.main_core == 1));
    }

    #[test]
    fn arbiter_request_rejects_non_main() {
        let mut fabric = Fabric::new(3, FabricConfig::paper());
        fabric.configure(&[0], &[2]).unwrap();
        let mut arb = CheckerArbiter::new(2);
        assert!(matches!(
            arb.request(&mut fabric, 1),
            Err(FlexError::NotMain { core: 1 })
        ));
        assert!(arb.request(&mut fabric, 0).unwrap());
        assert_eq!(arb.granted(), Some(0));
    }

    #[test]
    fn poll_without_release_does_nothing() {
        let mut fabric = Fabric::new(4, FabricConfig::paper());
        fabric.configure(&[0, 1], &[3]).unwrap();
        let mut arb = CheckerArbiter::new(3);
        arb.request(&mut fabric, 0).unwrap();
        assert!(!arb.request(&mut fabric, 1).unwrap());
        assert_eq!(arb.poll(&mut fabric), None, "granted main not released");
        arb.release(0);
        assert_eq!(
            arb.poll(&mut fabric),
            Some(1),
            "drained + released => switch"
        );
        assert_eq!(arb.granted(), Some(1));
        assert!(fabric.checkers_of(1).contains(&3));
        assert!(fabric.checkers_of(0).is_empty(), "main 0 back to pending");
    }
}
