//! Branch prediction timing model.
//!
//! Mirrors the evaluated Rocket front end (Tab. II): a 512-entry
//! bimodal BHT of 2-bit counters, a 28-entry BTB and a 6-entry return
//! address stack. Prediction accuracy only affects timing — mispredictions
//! charge a pipeline-flush penalty — never architectural results.

/// Branch predictor configuration (defaults per Tab. II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpredConfig {
    /// Number of 2-bit BHT counters.
    pub bht_entries: usize,
    /// Number of BTB entries.
    pub btb_entries: usize,
    /// Return-address-stack depth.
    pub ras_depth: usize,
    /// Pipeline flush penalty on misprediction (front-end depth).
    pub mispredict_penalty: u64,
}

impl BpredConfig {
    /// The evaluated configuration: 512-entry BHT, 28-entry BTB, 6-entry
    /// RAS, 3-cycle redirect on the 5-stage pipeline.
    pub fn paper() -> Self {
        BpredConfig {
            bht_entries: 512,
            btb_entries: 28,
            ras_depth: 6,
            mispredict_penalty: 3,
        }
    }
}

impl Default for BpredConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Prediction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BpredStats {
    /// Conditional branches observed.
    pub branches: u64,
    /// Conditional branches mispredicted (direction or target).
    pub branch_mispredicts: u64,
    /// Indirect jumps observed.
    pub indirect_jumps: u64,
    /// Indirect jumps mispredicted.
    pub indirect_mispredicts: u64,
}

#[derive(Debug, Clone, Copy)]
struct BtbEntry {
    pc: u64,
    target: u64,
    lru: u64,
    valid: bool,
}

/// The branch predictor state of one core.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    config: BpredConfig,
    bht: Vec<u8>,
    btb: Vec<BtbEntry>,
    ras: Vec<u64>,
    stats: BpredStats,
    tick: u64,
}

impl BranchPredictor {
    /// Builds a predictor.
    pub fn new(config: BpredConfig) -> Self {
        BranchPredictor {
            config,
            bht: vec![1; config.bht_entries.max(1)], // weakly not-taken
            btb: vec![
                BtbEntry {
                    pc: 0,
                    target: 0,
                    lru: 0,
                    valid: false
                };
                config.btb_entries.max(1)
            ],
            ras: Vec::with_capacity(config.ras_depth),
            stats: BpredStats::default(),
            tick: 0,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &BpredStats {
        &self.stats
    }

    /// Clears the prediction tables (BHT to weakly-not-taken, BTB and
    /// RAS empty) without touching the accumulated statistics — the
    /// front-end flush a checker performs when it applies a segment
    /// start checkpoint, so per-segment replay timing does not depend on
    /// predictor state left over from earlier segments.
    pub fn reset_tables(&mut self) {
        self.bht.fill(1);
        for e in &mut self.btb {
            e.valid = false;
        }
        self.ras.clear();
        self.tick = 0;
    }

    fn bht_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.bht.len() - 1)
    }

    fn btb_lookup(&self, pc: u64) -> Option<u64> {
        self.btb
            .iter()
            .find(|e| e.valid && e.pc == pc)
            .map(|e| e.target)
    }

    fn btb_insert(&mut self, pc: u64, target: u64) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.btb.iter_mut().find(|e| e.valid && e.pc == pc) {
            e.target = target;
            e.lru = tick;
            return;
        }
        let victim = self
            .btb
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru } else { 0 })
            .expect("btb is non-empty");
        *victim = BtbEntry {
            pc,
            target,
            lru: tick,
            valid: true,
        };
    }

    /// Resolves a conditional branch: predicts, updates state, and returns
    /// the misprediction penalty (0 on a correct prediction).
    pub fn resolve_branch(&mut self, pc: u64, taken: bool, target: u64) -> u64 {
        self.stats.branches += 1;
        let idx = self.bht_index(pc);
        let counter = self.bht[idx];
        let predicted_taken = counter >= 2;
        // Direction correct but target unknown to the BTB still redirects.
        let predicted_target = self.btb_lookup(pc);
        let correct = if taken {
            predicted_taken && predicted_target == Some(target)
        } else {
            !predicted_taken
        };

        // Update the 2-bit counter and BTB.
        self.bht[idx] = if taken {
            (counter + 1).min(3)
        } else {
            counter.saturating_sub(1)
        };
        if taken {
            self.btb_insert(pc, target);
        }

        if correct {
            0
        } else {
            self.stats.branch_mispredicts += 1;
            self.config.mispredict_penalty
        }
    }

    /// Resolves a direct jump (`jal`): target is computable in decode, so
    /// only the first encounter redirects (BTB fill).
    pub fn resolve_jal(&mut self, pc: u64, target: u64) -> u64 {
        if self.btb_lookup(pc) == Some(target) {
            0
        } else {
            self.btb_insert(pc, target);
            1 // decode-stage redirect, cheaper than a full flush
        }
    }

    /// Pushes a return address (on `jal`/`jalr` that links).
    pub fn push_return(&mut self, return_addr: u64) {
        if self.ras.len() == self.config.ras_depth {
            self.ras.remove(0);
        }
        self.ras.push(return_addr);
    }

    /// Resolves an indirect jump (`jalr`). `is_return` marks the
    /// conventional `ret` shape (`jalr x0, 0(ra)`), predicted via the RAS.
    pub fn resolve_jalr(&mut self, pc: u64, target: u64, is_return: bool) -> u64 {
        self.stats.indirect_jumps += 1;
        let predicted = if is_return {
            self.ras.pop()
        } else {
            self.btb_lookup(pc)
        };
        if !is_return {
            self.btb_insert(pc, target);
        }
        if predicted == Some(target) {
            0
        } else {
            self.stats.indirect_mispredicts += 1;
            self.config.mispredict_penalty
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bp() -> BranchPredictor {
        BranchPredictor::new(BpredConfig::paper())
    }

    #[test]
    fn repeated_taken_branch_learns() {
        let mut p = bp();
        let mut penalties = Vec::new();
        for _ in 0..5 {
            penalties.push(p.resolve_branch(0x1000, true, 0x2000));
        }
        // First encounters mispredict; once the counter saturates and the
        // BTB holds the target, predictions are free.
        assert!(penalties[0] > 0);
        assert_eq!(penalties[4], 0);
    }

    #[test]
    fn not_taken_branch_is_default_predicted() {
        let mut p = bp();
        assert_eq!(p.resolve_branch(0x1000, false, 0x2000), 0);
    }

    #[test]
    fn alternating_branch_keeps_mispredicting() {
        let mut p = bp();
        let mut mispredicts = 0;
        for i in 0..20 {
            if p.resolve_branch(0x1000, i % 2 == 0, 0x2000) > 0 {
                mispredicts += 1;
            }
        }
        assert!(
            mispredicts >= 8,
            "alternating pattern defeats bimodal: {mispredicts}"
        );
    }

    #[test]
    fn jal_redirects_once() {
        let mut p = bp();
        assert_eq!(p.resolve_jal(0x1000, 0x3000), 1);
        assert_eq!(p.resolve_jal(0x1000, 0x3000), 0);
    }

    #[test]
    fn ras_predicts_matched_call_return() {
        let mut p = bp();
        p.push_return(0x1004);
        assert_eq!(p.resolve_jalr(0x2000, 0x1004, true), 0);
        // Empty RAS now: next return mispredicts.
        assert!(p.resolve_jalr(0x2000, 0x1004, true) > 0);
    }

    #[test]
    fn ras_depth_bounded() {
        let mut p = BranchPredictor::new(BpredConfig {
            ras_depth: 2,
            ..BpredConfig::paper()
        });
        p.push_return(0x10);
        p.push_return(0x20);
        p.push_return(0x30); // evicts 0x10
        assert_eq!(p.resolve_jalr(0, 0x30, true), 0);
        assert_eq!(p.resolve_jalr(0, 0x20, true), 0);
        assert!(p.resolve_jalr(0, 0x10, true) > 0);
    }

    #[test]
    fn btb_capacity_evicts_lru() {
        let cfg = BpredConfig {
            btb_entries: 2,
            ..BpredConfig::paper()
        };
        let mut p = BranchPredictor::new(cfg);
        p.resolve_jal(0x100, 0x1000);
        p.resolve_jal(0x200, 0x2000);
        p.resolve_jal(0x300, 0x3000); // evicts 0x100
        assert_eq!(p.resolve_jal(0x200, 0x2000), 0);
        assert_eq!(
            p.resolve_jal(0x100, 0x1000),
            1,
            "evicted entry redirects again"
        );
    }

    #[test]
    fn indirect_jump_uses_btb() {
        let mut p = bp();
        assert!(p.resolve_jalr(0x500, 0x9000, false) > 0);
        assert_eq!(p.resolve_jalr(0x500, 0x9000, false), 0);
        // Target change mispredicts again.
        assert!(p.resolve_jalr(0x500, 0xA000, false) > 0);
        assert_eq!(p.stats().indirect_jumps, 3);
        assert_eq!(p.stats().indirect_mispredicts, 2);
    }
}
