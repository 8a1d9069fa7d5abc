//! Segment-verdict memoization.
//!
//! A checker that has already replayed a segment bit-identical to one it
//! is about to start — same architectural start state, same forwarded
//! packet stream, same code bytes — will reach the same verdict through
//! the same timing. The [`VerdictMemo`] caches that outcome, keyed by
//! two 64-bit fingerprints computed incrementally by the DBC (see
//! `dbc.rs`): the hash of the start checkpoint's architectural snapshot
//! and the running hash of every packet in the segment's stream. Each
//! entry is the segment's [`SegmentCharge`]: what its clean replay
//! retired, cycled and consumed. On a hit the engine skips re-execution
//! and charges those totals in one dispatch, so externally observable
//! state — engine-step count, stall accounting, observer events, the
//! `RunReport` — is bit-identical to a real replay.
//!
//! Faulted streams can never be served from the cache: mutating any
//! in-flight packet poisons the affected fingerprints (`dbc.rs`), the
//! harness additionally blocks lookups on channels with armed fault
//! shots, and the injectors drop any in-progress recording — three
//! independent layers (see DESIGN.md §13).

/// Default verdict-cache capacity (entries per checker).
pub(crate) const DEFAULT_MEMO_CAPACITY: usize = 64;

/// What a clean replay of one segment charged: the instructions it
/// retired, the cycles they took and the log entries they consumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SegmentCharge {
    pub(crate) inst_count: u64,
    pub(crate) cycles: u64,
    pub(crate) entries: u64,
}

/// One cached segment verdict: the fingerprint pair it answers for, the
/// code epoch it was recorded under, and the segment's charge.
#[derive(Debug, Clone)]
struct MemoEntry {
    start_hash: u64,
    stream_hash: u64,
    code_epoch: u64,
    charge: SegmentCharge,
    last_used: u64,
}

/// A bounded LRU cache of clean segment verdicts, one per checker.
///
/// Only *clean* verdicts are cached: a mismatching segment is a
/// detection event the experiment exists to observe, and its stream was
/// poisoned by the injector anyway. Lookup requires all three of
/// (start-state hash, stream hash, code epoch) to match.
#[derive(Debug, Default)]
pub(crate) struct VerdictMemo {
    entries: Vec<MemoEntry>,
    capacity: usize,
    tick: u64,
}

impl VerdictMemo {
    pub(crate) fn new(capacity: usize) -> Self {
        VerdictMemo {
            entries: Vec::with_capacity(capacity.min(DEFAULT_MEMO_CAPACITY)),
            capacity,
            tick: 0,
        }
    }

    /// Whether lookups can ever hit (capacity zero disables the memo).
    pub(crate) fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Looks up a verdict for the fingerprint pair, refreshing its LRU
    /// stamp on a hit.
    pub(crate) fn lookup(
        &mut self,
        start_hash: u64,
        stream_hash: u64,
        code_epoch: u64,
    ) -> Option<SegmentCharge> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.entries.iter_mut().find(|e| {
            e.start_hash == start_hash && e.stream_hash == stream_hash && e.code_epoch == code_epoch
        })?;
        e.last_used = tick;
        Some(e.charge)
    }

    /// Inserts a finished recording, evicting the least-recently-used
    /// entry when full. A duplicate key overwrites in place.
    pub(crate) fn insert(&mut self, rec: Recording) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let entry = MemoEntry {
            start_hash: rec.start_hash,
            stream_hash: rec.stream_hash,
            code_epoch: rec.code_epoch,
            charge: rec.charge,
            last_used: self.tick,
        };
        if let Some(e) = self.entries.iter_mut().find(|e| {
            e.start_hash == entry.start_hash
                && e.stream_hash == entry.stream_hash
                && e.code_epoch == entry.code_epoch
        }) {
            *e = entry;
            return;
        }
        if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("memo is non-empty when at capacity");
            self.entries.swap_remove(lru);
        }
        self.entries.push(entry);
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// An in-progress recording of one segment's replay charge. Created at
/// SCP apply when the segment is memoizable; dropped on any
/// non-memoizable step (CSR/system instruction, trap, interrupt,
/// detection, fault injection, code-epoch change); harvested into the
/// memo on a clean verdict.
#[derive(Debug)]
pub(crate) struct Recording {
    pub(crate) start_hash: u64,
    pub(crate) stream_hash: u64,
    pub(crate) code_epoch: u64,
    charge: SegmentCharge,
}

impl Recording {
    pub(crate) fn new(start_hash: u64, stream_hash: u64, code_epoch: u64) -> Self {
        Recording {
            start_hash,
            stream_hash,
            code_epoch,
            charge: SegmentCharge::default(),
        }
    }

    /// Adds one retired step that took `cycles` and consumed `entries`
    /// log entries.
    pub(crate) fn push_step(&mut self, cycles: u64, entries: u64) {
        self.charge.inst_count += 1;
        self.charge.cycles += cycles;
        self.charge.entries += entries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start: u64, stream: u64, epoch: u64, steps: &[(u64, u64)]) -> Recording {
        let mut r = Recording::new(start, stream, epoch);
        for &(c, e) in steps {
            r.push_step(c, e);
        }
        r
    }

    #[test]
    fn roundtrip_profile_through_lookup() {
        let mut m = VerdictMemo::new(4);
        m.insert(rec(1, 2, 0, &[(3, 0), (7, 1), (1, 2)]));
        let charge = m.lookup(1, 2, 0).expect("hit");
        assert_eq!(
            charge,
            SegmentCharge {
                inst_count: 3,
                cycles: 11,
                entries: 3
            }
        );
    }

    #[test]
    fn lookup_requires_all_three_keys() {
        let mut m = VerdictMemo::new(4);
        m.insert(rec(1, 2, 5, &[(1, 0)]));
        assert!(m.lookup(9, 2, 5).is_none(), "start hash must match");
        assert!(m.lookup(1, 9, 5).is_none(), "stream hash must match");
        assert!(m.lookup(1, 2, 9).is_none(), "code epoch must match");
        assert!(m.lookup(1, 2, 5).is_some());
    }

    #[test]
    fn capacity_bounds_via_lru_eviction() {
        let mut m = VerdictMemo::new(2);
        m.insert(rec(1, 1, 0, &[(1, 0)]));
        m.insert(rec(2, 2, 0, &[(1, 0)]));
        assert!(m.lookup(1, 1, 0).is_some()); // refresh entry 1
        m.insert(rec(3, 3, 0, &[(1, 0)])); // evicts entry 2 (LRU)
        assert_eq!(m.len(), 2);
        assert!(m.lookup(2, 2, 0).is_none(), "LRU entry evicted");
        assert!(m.lookup(1, 1, 0).is_some());
        assert!(m.lookup(3, 3, 0).is_some());
    }

    #[test]
    fn duplicate_key_overwrites_in_place() {
        let mut m = VerdictMemo::new(2);
        m.insert(rec(1, 1, 0, &[(1, 0)]));
        m.insert(rec(1, 1, 0, &[(2, 1), (3, 0)]));
        assert_eq!(m.len(), 1);
        let charge = m.lookup(1, 1, 0).unwrap();
        assert_eq!(charge.inst_count, 2, "overwritten entry wins");
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let mut m = VerdictMemo::new(0);
        assert!(!m.is_enabled());
        m.insert(rec(1, 1, 0, &[(1, 0)]));
        assert!(m.lookup(1, 1, 0).is_none());
    }
}
