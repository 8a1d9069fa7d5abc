//! Event-driven ready-core scheduling.
//!
//! The SoC driver loop repeatedly asks "which running core is ready
//! earliest?". A linear scan answers in O(num_cores) per step; at
//! many-core scale that scan dominates the step loop. [`ReadyQueue`] keeps
//! the answer in a binary heap keyed by `(ready_at, id)` — the exact
//! tie-break order of the linear scan, so both schedulers pick identical
//! cores and replay stays bit-for-bit deterministic.
//!
//! Cores are mutated from many places (the engine after a retire, the
//! kernel on context switches, tests poking `ready_at` directly), so the
//! queue uses *lazy invalidation*: every mutation path marks the core
//! dirty; a query re-enqueues dirty cores whose key actually changed and
//! discards heap entries that no longer match the core's live
//! `(ready_at, running)` state. Most mutations (register writes through
//! `core_mut`, reservation clears) leave `ready_at` untouched and cost
//! nothing beyond the dirty flag; a step costs one push and roughly one
//! stale pop — O(log n) amortised instead of O(n).

use crate::core::Core;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which algorithm [`Soc::next_ready`](crate::Soc::next_ready) uses.
///
/// Both engines pick identical cores; [`Soc::new`](crate::Soc::new)
/// selects the faster one for its core count via
/// [`SchedMode::default_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Binary-heap event queue: O(log n) per step.
    EventQueue,
    /// The naive O(n) `min_by_key` scan — the reference implementation
    /// the determinism tests compare the event queue against, and the
    /// faster engine at small core counts.
    LinearScan,
}

impl SchedMode {
    /// Core count above which the event queue beats the linear scan.
    ///
    /// Measured by the scheduler scaling table in `BENCH_pr9.json`
    /// (`scheduler/next_ready_scaling`): at 8 cores the `min_by_key`
    /// scan still wins clearly (21.9 vs 34.2 ns/step); by 16 the heap
    /// is ahead (38.2 vs 41.4) and the scan's O(n) then widens linearly
    /// (2.6× slower at 64 cores). Interpolating the two measured lines
    /// between those points — the scan degrades ~2.4 ns/step per core,
    /// the heap ~0.5 — puts the crossing at ~14.3 cores. The previous
    /// threshold of 8 picked the slower heap across the whole 9–14-core
    /// band (e.g. ~35 vs ~28 ns/step at 12 cores on the interpolated
    /// lines). The benchmark's `sim.next_ready_ns_2c` and
    /// `sim.next_ready_ns_16c` metrics time one SoC on each side of the
    /// crossover.
    pub const SCAN_CROSSOVER: usize = 14;

    /// The faster scheduler for an SoC of `num_cores` per the measured
    /// crossover: the linear scan at or below
    /// [`SchedMode::SCAN_CROSSOVER`] cores, the event queue above it.
    pub fn default_for(num_cores: usize) -> Self {
        if num_cores > Self::SCAN_CROSSOVER {
            SchedMode::EventQueue
        } else {
            SchedMode::LinearScan
        }
    }
}

/// Lazily-invalidated min-heap over `(ready_at, core id)`.
///
/// An entry `(t, id)` is live iff `cores[id]` is running with
/// `ready_at == t`; everything else is discarded when it surfaces. The
/// `queued` cache suppresses duplicate pushes while a core's key is
/// unchanged, keeping the heap near `num_cores` entries.
#[derive(Debug, Default)]
pub(crate) struct ReadyQueue {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// The `ready_at` key this core currently has in the heap, if any.
    queued: Vec<Option<u64>>,
    /// Cores mutated since the last refresh.
    dirty: Vec<bool>,
    /// Insertion-ordered list of dirty cores (no duplicates).
    dirty_list: Vec<usize>,
}

impl ReadyQueue {
    pub(crate) fn new(num_cores: usize) -> Self {
        ReadyQueue {
            heap: BinaryHeap::with_capacity(num_cores + 4),
            queued: vec![None; num_cores],
            dirty: vec![true; num_cores],
            dirty_list: (0..num_cores).collect(),
        }
    }

    /// Records that `id`'s `ready_at` or run state may have changed.
    #[inline]
    pub(crate) fn mark_dirty(&mut self, id: usize) {
        if !self.dirty[id] {
            self.dirty[id] = true;
            self.dirty_list.push(id);
        }
    }

    /// Re-enqueues dirty cores, then returns the earliest-ready running
    /// core (ties to the lowest id) without consuming its entry.
    pub(crate) fn peek_min(&mut self, cores: &[Core]) -> Option<usize> {
        for id in self.dirty_list.drain(..) {
            self.dirty[id] = false;
            let core = &cores[id];
            if core.is_running() && self.queued[id] != Some(core.ready_at) {
                self.heap.push(Reverse((core.ready_at, id)));
                self.queued[id] = Some(core.ready_at);
            }
        }
        while let Some(&Reverse((t, id))) = self.heap.peek() {
            let core = &cores[id];
            if core.is_running() && core.ready_at == t {
                return Some(id);
            }
            self.heap.pop();
            if self.queued[id] == Some(t) {
                self.queued[id] = None;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bpred::BpredConfig;

    fn cores(n: usize) -> Vec<Core> {
        (0..n).map(|i| Core::new(i, BpredConfig::paper())).collect()
    }

    #[test]
    fn empty_when_all_parked() {
        let cores = cores(3);
        let mut q = ReadyQueue::new(3);
        assert_eq!(q.peek_min(&cores), None);
    }

    #[test]
    fn orders_by_ready_at_then_id() {
        let mut cores = cores(3);
        let mut q = ReadyQueue::new(3);
        for c in &mut cores {
            c.unpark();
        }
        cores[0].ready_at = 100;
        cores[1].ready_at = 50;
        cores[2].ready_at = 50;
        assert_eq!(q.peek_min(&cores), Some(1), "ties go to the lowest id");
        cores[1].ready_at = 60;
        q.mark_dirty(1);
        assert_eq!(q.peek_min(&cores), Some(2));
    }

    #[test]
    fn parking_removes_a_core() {
        let mut cores = cores(2);
        let mut q = ReadyQueue::new(2);
        cores[0].unpark();
        cores[1].unpark();
        cores[0].ready_at = 10;
        cores[1].ready_at = 1;
        assert_eq!(q.peek_min(&cores), Some(1));
        cores[1].park();
        q.mark_dirty(1);
        assert_eq!(q.peek_min(&cores), Some(0));
        cores[0].park();
        q.mark_dirty(0);
        assert_eq!(q.peek_min(&cores), None);
    }

    #[test]
    fn park_unpark_round_trip_re_enqueues() {
        let mut cores = cores(2);
        let mut q = ReadyQueue::new(2);
        cores[0].unpark();
        cores[0].ready_at = 5;
        assert_eq!(q.peek_min(&cores), Some(0));
        cores[0].park();
        q.mark_dirty(0);
        assert_eq!(q.peek_min(&cores), None);
        cores[0].unpark();
        q.mark_dirty(0);
        assert_eq!(q.peek_min(&cores), Some(0), "re-enqueued after un-park");
    }

    #[test]
    fn stale_entries_are_discarded_not_returned() {
        let mut cores = cores(2);
        let mut q = ReadyQueue::new(2);
        cores[0].unpark();
        cores[0].ready_at = 5;
        assert_eq!(q.peek_min(&cores), Some(0));
        // Mutate repeatedly without querying in between.
        for t in [3, 9, 1, 7] {
            cores[0].ready_at = t;
            q.mark_dirty(0);
        }
        assert_eq!(q.peek_min(&cores), Some(0));
        cores[1].unpark();
        cores[1].ready_at = 2;
        q.mark_dirty(1);
        assert_eq!(q.peek_min(&cores), Some(1), "7 > 2 after the churn");
    }

    #[test]
    fn default_for_picks_the_measured_faster_mode() {
        // Pinned against the `scheduler/next_ready_scaling` table in
        // BENCH_pr9.json: the linear scan measures faster through 8
        // cores (21.9 vs 34.2 ns/step) and the interpolated lines cross
        // at ~14.3; the event queue measures faster from 16 up (38.2 vs
        // 41.4, widening to 46.0 vs 121.7 at 64). `default_for` must
        // never pick the slower engine at a measured point.
        assert_eq!(SchedMode::default_for(2), SchedMode::LinearScan);
        assert_eq!(SchedMode::default_for(8), SchedMode::LinearScan);
        assert_eq!(SchedMode::default_for(16), SchedMode::EventQueue);
        assert_eq!(SchedMode::default_for(64), SchedMode::EventQueue);
        // The 9–14-core band sits below the interpolated ~14.3-core
        // crossing: the scan must keep winning right up to it.
        assert_eq!(SchedMode::default_for(12), SchedMode::LinearScan);
        assert_eq!(SchedMode::default_for(14), SchedMode::LinearScan);
        assert_eq!(SchedMode::default_for(15), SchedMode::EventQueue);
    }

    #[test]
    fn matches_linear_scan_under_random_churn() {
        // Deterministic pseudo-random churn; compare against min_by_key
        // after every mutation batch.
        let n = 7;
        let mut cores = cores(n);
        let mut q = ReadyQueue::new(n);
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..2000 {
            let id = (next() % n as u64) as usize;
            match next() % 4 {
                0 => cores[id].park(),
                1 => cores[id].unpark(),
                _ => {
                    cores[id].unpark();
                    cores[id].ready_at = next() % 1000;
                }
            }
            q.mark_dirty(id);
            let want = cores
                .iter()
                .filter(|c| c.is_running())
                .min_by_key(|c| (c.ready_at, c.id))
                .map(|c| c.id);
            assert_eq!(q.peek_min(&cores), want);
        }
    }
}
