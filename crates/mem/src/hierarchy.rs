//! The full memory system: per-core L1 caches, shared L2, MSI coherence and
//! latency accounting.
//!
//! Functional data always lives in [`PhysMem`]; the caches answer *how
//! long* each access takes (Tab. II latencies) and keep MSI state so that
//! cross-core sharing costs snoop traffic, as on the FPGA platform.
//!
//! The simulation engine is single-threaded and interleaves cores
//! cycle-by-cycle, so memory is sequentially consistent by construction;
//! coherence here is purely a timing/state model.
//!
//! An access that hits the core's own L1 and needs no upgrade — a
//! resident line for a fetch or read, a Modified line for a write — costs
//! one set probe ([`MemorySystem::l1_hit`]). Only the rest snoop the other
//! cores' L1Ds: under MSI, a core holding a line rules out a remote
//! Modified copy, and a core holding it Modified rules out any remote
//! copy, so the skipped sweep could not act.

use crate::cache::{Cache, CacheConfig, CacheGeometryError, CacheStats, LineState};
use crate::phys::PhysMem;

/// Kind of memory access, for routing and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (L1 I-cache path).
    Fetch,
    /// Data read (L1 D-cache path).
    Read,
    /// Data write (L1 D-cache path, write-allocate).
    Write,
}

/// Access latencies in core clock cycles.
///
/// Defaults follow Tab. II: 2-cycle L1s, 40-cycle L2, plus a DRAM latency
/// and a per-snoop penalty for cross-core coherence traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// L1 hit latency (cycles).
    pub l1_hit: u64,
    /// Additional latency of an L2 hit (cycles).
    pub l2_hit: u64,
    /// Additional latency of a DRAM access (cycles).
    pub dram: u64,
    /// Penalty applied when a snoop invalidates/downgrades a remote line.
    pub snoop: u64,
}

impl LatencyConfig {
    /// The latencies of the evaluated configuration (Tab. II).
    pub fn paper() -> Self {
        LatencyConfig {
            l1_hit: 2,
            l2_hit: 40,
            dram: 100,
            snoop: 12,
        }
    }
}

impl Default for LatencyConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Memory-system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Geometry of each core's L1 instruction cache.
    pub l1i: CacheConfig,
    /// Geometry of each core's L1 data cache.
    pub l1d: CacheConfig,
    /// Geometry of the shared L2.
    pub l2: CacheConfig,
    /// Latency model.
    pub latency: LatencyConfig,
}

impl MemoryConfig {
    /// The evaluated configuration (Tab. II).
    pub fn paper() -> Self {
        MemoryConfig {
            l1i: CacheConfig::paper_l1(),
            l1d: CacheConfig::paper_l1(),
            l2: CacheConfig::paper_l2(),
            latency: LatencyConfig::paper(),
        }
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[derive(Debug)]
struct CoreCaches {
    l1i: Cache,
    l1d: Cache,
}

/// One overwritten word in a core's undo journal: enough to restore the
/// bytes a store (or AMO) clobbered.
#[derive(Debug, Clone, Copy)]
struct UndoEntry {
    addr: u64,
    size: u8,
    old: u64,
}

/// A snoop that acted: `requester`'s access invalidated or downgraded
/// `snooped`'s L1D copy of the line at `line`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snoop {
    /// The core whose access snooped.
    pub requester: usize,
    /// The core whose copy was invalidated or downgraded.
    pub snooped: usize,
    /// The line's base address.
    pub line: u64,
}

/// Per-core undo journal for rollback recovery.
///
/// Marks handed out by [`MemorySystem::journal_mark`] are *absolute*
/// sequence numbers (`base + entries.len()`), so they stay valid across
/// front-truncation when verified segment boundaries retire old entries.
#[derive(Debug, Default)]
struct UndoJournal {
    base: u64,
    entries: Vec<UndoEntry>,
}

/// The shared memory system of the simulated SoC.
///
/// ```
/// use flexstep_mem::hierarchy::{MemoryConfig, MemorySystem};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mem = MemorySystem::new(2, MemoryConfig::paper())?;
/// let t0 = mem.write(0, 0x8000, 42, 8);
/// let (value, t1) = mem.read(1, 0x8000, 8);
/// assert_eq!(value, 42);
/// assert!(t0 > 0 && t1 > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    cores: Vec<CoreCaches>,
    l2: Cache,
    mem: PhysMem,
    latency: LatencyConfig,
    snoops: u64,
    first_snoop: Option<Snoop>,
    journals: Vec<Option<UndoJournal>>,
}

impl MemorySystem {
    /// Builds a memory system for `num_cores` cores.
    ///
    /// # Errors
    ///
    /// Returns [`CacheGeometryError`] if any cache geometry is invalid.
    pub fn new(num_cores: usize, config: MemoryConfig) -> Result<Self, CacheGeometryError> {
        let mut cores = Vec::with_capacity(num_cores);
        for _ in 0..num_cores {
            cores.push(CoreCaches {
                l1i: Cache::new(config.l1i)?,
                l1d: Cache::new(config.l1d)?,
            });
        }
        let journals = (0..num_cores).map(|_| None).collect();
        Ok(MemorySystem {
            cores,
            l2: Cache::new(config.l2)?,
            mem: PhysMem::new(),
            latency: config.latency,
            snoops: 0,
            first_snoop: None,
            journals,
        })
    }

    /// Starts recording an undo journal for `core`'s stores.
    ///
    /// Cores without a journal (the default) pay nothing on the write
    /// path. Only main cores under a rollback recovery policy enable
    /// this.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn enable_journal(&mut self, core: usize) {
        if self.journals[core].is_none() {
            self.journals[core] = Some(UndoJournal::default());
        }
    }

    /// Current journal position of `core`, for later
    /// [`rollback_journal`](Self::rollback_journal) /
    /// [`truncate_journal`](Self::truncate_journal). Returns 0 when no
    /// journal is enabled.
    pub fn journal_mark(&self, core: usize) -> u64 {
        match &self.journals[core] {
            Some(j) => j.base + j.entries.len() as u64,
            None => 0,
        }
    }

    /// Undoes every store `core` performed since `mark`, newest first,
    /// restoring the overwritten bytes in the functional backing store.
    ///
    /// Restoration writes go straight to [`PhysMem`]: the caches carry
    /// timing state only, so no invalidation is needed for correctness.
    pub fn rollback_journal(&mut self, core: usize, mark: u64) {
        let Some(j) = &mut self.journals[core] else {
            return;
        };
        let keep = mark.saturating_sub(j.base) as usize;
        while j.entries.len() > keep {
            let e = j.entries.pop().expect("len > keep implies non-empty");
            self.mem.write_sized(e.addr, e.old, e.size);
        }
    }

    /// Retires journal entries older than `mark` (a verified segment
    /// boundary): they can never be rolled back to again. Marks handed
    /// out earlier stay valid.
    pub fn truncate_journal(&mut self, core: usize, mark: u64) {
        let Some(j) = &mut self.journals[core] else {
            return;
        };
        let drop = (mark.saturating_sub(j.base) as usize).min(j.entries.len());
        if drop > 0 {
            j.entries.drain(..drop);
            j.base += drop as u64;
        }
    }

    fn journal_store(&mut self, core: usize, addr: u64, size: u8) {
        if self.journals[core].is_some() {
            let old = self.mem.read_sized(addr, size);
            if let Some(j) = &mut self.journals[core] {
                j.entries.push(UndoEntry { addr, size, old });
            }
        }
    }

    /// Number of cores served.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Direct access to the functional backing store (program loading,
    /// debugging, checkpoint inspection). No timing is accounted.
    pub fn phys(&self) -> &PhysMem {
        &self.mem
    }

    /// Mutable access to the functional backing store.
    pub fn phys_mut(&mut self) -> &mut PhysMem {
        &mut self.mem
    }

    /// Total snoop operations performed (coherence traffic metric).
    pub fn snoop_count(&self) -> u64 {
        self.snoops
    }

    /// The first snoop that acted, if any did.
    pub fn first_snoop(&self) -> Option<Snoop> {
        self.first_snoop
    }

    /// The latency model in force.
    pub fn latency(&self) -> &LatencyConfig {
        &self.latency
    }

    /// L1 D-cache statistics of a core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn l1d_stats(&self, core: usize) -> &CacheStats {
        self.cores[core].l1d.stats()
    }

    /// L1 I-cache statistics of a core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn l1i_stats(&self, core: usize) -> &CacheStats {
        self.cores[core].l1i.stats()
    }

    /// Shared L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Invalidate every cache (e.g. after loading a fresh program image).
    pub fn flush_all(&mut self) {
        for c in &mut self.cores {
            c.l1i.flush_all();
            c.l1d.flush_all();
        }
        self.l2.flush_all();
    }

    /// Serves a `kind` access by `core` to `addr` from the core's own L1
    /// with one set probe, if it needs no upgrade: the line is resident
    /// for a fetch or read, Modified for a write. Returns the hit's
    /// cycles, having touched LRU order and statistics exactly as
    /// [`access`](Self::access) would; returns `None`, touching nothing,
    /// for any other access. Such a hit acts on no other core's copy (see
    /// the module docs), which is why main blocks may run it early.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[inline]
    pub fn l1_hit(&mut self, core: usize, addr: u64, kind: AccessKind) -> Option<u64> {
        let caches = &mut self.cores[core];
        let hit = match kind {
            AccessKind::Fetch => caches.l1i.hit(addr, false),
            AccessKind::Read => caches.l1d.hit(addr, false),
            AccessKind::Write => caches.l1d.hit(addr, true),
        };
        hit.then_some(self.latency.l1_hit)
    }

    /// Times a `kind` access by `core` to `addr`: [`l1_hit`](Self::l1_hit)
    /// when it serves the access, else a snoop of the other cores' L1Ds
    /// (data accesses) and a walk through L1 → L2 → DRAM. Returns the
    /// cycles. Functional data is untouched: pair it with
    /// [`phys`](Self::phys) or [`store`](Self::store).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, addr: u64, kind: AccessKind) -> u64 {
        if let Some(cycles) = self.l1_hit(core, addr, kind) {
            return cycles;
        }
        let write = kind == AccessKind::Write;
        let mut cycles = self.latency.l1_hit;
        if kind != AccessKind::Fetch {
            cycles += self.coherence_actions(core, addr, write);
        }

        let l1 = match kind {
            AccessKind::Fetch => &mut self.cores[core].l1i,
            _ => &mut self.cores[core].l1d,
        };
        let l1_out = l1.access(addr, write);
        if l1_out.hit {
            return cycles;
        }

        // L1 miss: consult the shared L2.
        let l2_out = self.l2.access(addr, write);
        cycles += self.latency.l2_hit;
        if !l2_out.hit {
            cycles += self.latency.dram;
        }
        // Dirty evictions drain to the next level; modelled as one extra
        // L2 (for L1 victims) or DRAM (for L2 victims) trip.
        if l1_out.writeback.is_some() {
            cycles += self.latency.l2_hit;
        }
        if l2_out.writeback.is_some() {
            cycles += self.latency.dram;
        }
        cycles
    }

    /// MSI snooping: writes invalidate remote copies, reads downgrade
    /// remote Modified lines. Returns the added latency.
    fn coherence_actions(&mut self, core: usize, addr: u64, write: bool) -> u64 {
        let mut cycles = 0;
        for (i, other) in self.cores.iter_mut().enumerate() {
            let acted = i != core
                && if write {
                    other.l1d.invalidate(addr) != LineState::Invalid
                } else {
                    other.l1d.downgrade(addr)
                };
            if acted {
                self.snoops += 1;
                cycles += self.latency.snoop;
                let line_mask = !(other.l1d.config().line_bytes as u64 - 1);
                self.first_snoop.get_or_insert(Snoop {
                    requester: core,
                    snooped: i,
                    line: addr & line_mask,
                });
            }
        }
        cycles
    }

    /// Reads `size` bytes (1/2/4/8), zero-extended. Returns
    /// `(value, cycles)`.
    pub fn read(&mut self, core: usize, addr: u64, size: u8) -> (u64, u64) {
        let cycles = self.access(core, addr, AccessKind::Read);
        (self.mem.read_sized(addr, size), cycles)
    }

    /// Writes the low `size` bytes of `value`. Returns cycles.
    pub fn write(&mut self, core: usize, addr: u64, value: u64, size: u8) -> u64 {
        let cycles = self.access(core, addr, AccessKind::Write);
        self.store(core, addr, value, size);
        cycles
    }

    /// The functional half of [`write`](Self::write): journals and writes
    /// the low `size` bytes of `value` for `core`, charging no time.
    /// Pair it with [`access`](Self::access) or [`l1_hit`](Self::l1_hit).
    pub fn store(&mut self, core: usize, addr: u64, value: u64, size: u8) {
        self.journal_store(core, addr, size);
        self.mem.write_sized(addr, value, size);
    }

    /// Atomic read-modify-write: reads the old value, stores the value
    /// produced by `f`. Returns `(old_value, cycles)`.
    ///
    /// The engine interleaves cores at instruction granularity, so the
    /// read-modify-write is indivisible by construction.
    pub fn amo(
        &mut self,
        core: usize,
        addr: u64,
        size: u8,
        f: impl FnOnce(u64) -> u64,
    ) -> (u64, u64) {
        let cycles = self.access(core, addr, AccessKind::Write);
        let old = self.mem.read_sized(addr, size);
        self.store(core, addr, f(old), size);
        (old, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(cores: usize) -> MemorySystem {
        MemorySystem::new(cores, MemoryConfig::paper()).unwrap()
    }

    #[test]
    fn cold_miss_costs_dram_warm_hit_costs_l1() {
        let mut m = sys(1);
        let lat = LatencyConfig::paper();
        let t_cold = m.write(0, 0x1000, 7, 8);
        assert_eq!(t_cold, lat.l1_hit + lat.l2_hit + lat.dram);
        let (v, t_warm) = m.read(0, 0x1000, 8);
        assert_eq!(v, 7);
        assert_eq!(t_warm, lat.l1_hit);
    }

    #[test]
    fn l2_hit_between_cores() {
        let mut m = sys(2);
        let lat = LatencyConfig::paper();
        m.read(0, 0x2000, 8); // fills L1(0) and L2
        let (_, t) = m.read(1, 0x2000, 8); // L1(1) miss, L2 hit
        assert_eq!(t, lat.l1_hit + lat.l2_hit);
    }

    #[test]
    fn write_invalidates_remote_copy() {
        let mut m = sys(2);
        m.read(0, 0x3000, 8);
        m.read(1, 0x3000, 8);
        let before = m.snoop_count();
        m.write(0, 0x3008, 1, 8);
        assert_eq!(m.snoop_count(), before + 1);
        let first = Snoop {
            requester: 0,
            snooped: 1,
            line: 0x3000,
        };
        assert_eq!(m.first_snoop(), Some(first));
        // Core 1 must now miss.
        let lat = LatencyConfig::paper();
        let (v, t) = m.read(1, 0x3008, 8);
        assert_eq!(v, 1);
        assert!(
            t > lat.l1_hit,
            "remote read after invalidation must miss L1"
        );
    }

    #[test]
    fn read_downgrades_remote_modified() {
        let mut m = sys(2);
        m.write(0, 0x4000, 9, 8);
        let before = m.snoop_count();
        let (v, _) = m.read(1, 0x4000, 8);
        assert_eq!(v, 9);
        assert_eq!(m.snoop_count(), before + 1);
        let first = Snoop {
            requester: 1,
            snooped: 0,
            line: 0x4000,
        };
        assert_eq!(m.first_snoop(), Some(first));
        m.write(0, 0x4000, 1, 8);
        assert_eq!(m.first_snoop(), Some(first), "the first stays");
    }

    #[test]
    fn fetch_uses_icache_not_dcache() {
        let mut m = sys(1);
        let lat = LatencyConfig::paper();
        let cold = m.access(0, 0x5000, AccessKind::Fetch);
        assert_eq!(cold, lat.l1_hit + lat.l2_hit + lat.dram);
        assert_eq!(m.l1i_stats(0).accesses(), 1);
        assert_eq!(m.l1d_stats(0).accesses(), 0);
    }

    #[test]
    fn amo_is_read_modify_write() {
        let mut m = sys(1);
        m.write(0, 0x6000, 10, 8);
        let (old, _) = m.amo(0, 0x6000, 8, |v| v + 5);
        assert_eq!(old, 10);
        assert_eq!(m.phys().read_u64(0x6000), 15);
    }

    #[test]
    fn functional_state_ignores_timing_model() {
        let mut m = sys(2);
        // Interleave many writes from both cores; the final value must be
        // exactly the last write regardless of cache states.
        for i in 0..100u64 {
            m.write((i % 2) as usize, 0x7000, i, 8);
        }
        assert_eq!(m.phys().read_u64(0x7000), 99);
    }

    #[test]
    fn flush_all_forces_refill() {
        let mut m = sys(1);
        m.read(0, 0x8000, 8);
        m.flush_all();
        let lat = LatencyConfig::paper();
        let (_, t) = m.read(0, 0x8000, 8);
        assert_eq!(t, lat.l1_hit + lat.l2_hit + lat.dram);
    }

    #[test]
    fn l1_hit_serves_only_hits_needing_no_upgrade() {
        use AccessKind::{Fetch, Read, Write};
        let mut m = sys(2);
        let lat = LatencyConfig::paper();
        let (line, other) = (0xc000, 0xd040);
        m.access(0, line, Fetch);
        m.read(0, line, 8);
        m.write(0, other, 1, 8);
        let stats = |m: &MemorySystem| {
            (0..2)
                .map(|c| (*m.l1i_stats(c), *m.l1d_stats(c)))
                .collect::<Vec<_>>()
        };
        // Refused, touching nothing: a line core 1 does not hold, a
        // fetch of a line only the L1D holds, a write to a Shared line.
        let before = (stats(&m), *m.l2_stats(), m.snoop_count());
        for (core, addr, kind) in [(1, line, Read), (0, other, Fetch), (0, line, Write)] {
            assert_eq!(
                m.l1_hit(core, addr, kind),
                None,
                "{core} {addr:#x} {kind:?}"
            );
        }
        assert_eq!((stats(&m), *m.l2_stats(), m.snoop_count()), before);
        // Served: each counts one L1 hit, as the full path would.
        for (addr, kind) in [(line, Fetch), (line, Read), (other, Read), (other, Write)] {
            assert_eq!(
                m.l1_hit(0, addr, kind),
                Some(lat.l1_hit),
                "{addr:#x} {kind:?}"
            );
        }
        assert_eq!(m.l1i_stats(0).hits, before.0[0].0.hits + 1);
        assert_eq!(m.l1d_stats(0).hits, before.0[0].1.hits + 3);
        // And refreshes LRU order as the full path would, where a refusal
        // does not: four more lines in `line`'s 4-way L1D set evict the
        // oldest of them, not the line the hit refreshed.
        let set_stride = 16 * 1024 / 4;
        for way in 1..=3 {
            m.read(0, line + way * set_stride, 8);
        }
        assert!(m.l1_hit(0, line, Read).is_some());
        assert_eq!(m.l1_hit(0, line + set_stride, Write), None);
        m.read(0, line + 4 * set_stride, 8);
        assert!(m.l1_hit(0, line, Read).is_some(), "refreshed");
        assert_eq!(m.l1_hit(0, line + set_stride, Read), None, "LRU victim");
    }

    #[test]
    fn journal_rollback_restores_overwritten_bytes() {
        let mut m = sys(2);
        m.write(0, 0x9000, 0x1111, 8);
        m.write(0, 0x9008, 0x2222, 8);
        m.enable_journal(0);
        let mark = m.journal_mark(0);
        m.write(0, 0x9000, 0xdead, 8);
        m.amo(0, 0x9008, 8, |v| v + 1);
        m.write(0, 0x9010, 0xbeef, 4);
        // Core 1 has no journal; its writes are never rolled back.
        m.write(1, 0x9100, 7, 8);
        m.rollback_journal(0, mark);
        assert_eq!(m.phys().read_u64(0x9000), 0x1111);
        assert_eq!(m.phys().read_u64(0x9008), 0x2222);
        assert_eq!(m.phys().read_u64(0x9010) & 0xffff_ffff, 0);
        assert_eq!(m.phys().read_u64(0x9100), 7);
    }

    #[test]
    fn journal_marks_survive_truncation() {
        let mut m = sys(1);
        m.enable_journal(0);
        m.write(0, 0xa000, 1, 8);
        let mark = m.journal_mark(0);
        m.write(0, 0xa000, 2, 8);
        m.write(0, 0xa000, 3, 8);
        // Retire everything older than `mark`; the mark itself stays
        // valid as an absolute sequence number.
        m.truncate_journal(0, mark);
        m.rollback_journal(0, mark);
        assert_eq!(m.phys().read_u64(0xa000), 1);
        // Rolling back before the truncation point is a no-op: those
        // entries are gone.
        m.rollback_journal(0, 0);
        assert_eq!(m.phys().read_u64(0xa000), 1);
    }

    #[test]
    fn journal_overlapping_writes_undo_in_reverse_order() {
        let mut m = sys(1);
        m.write(0, 0xb000, 0xaaaa_bbbb_cccc_dddd, 8);
        m.enable_journal(0);
        let mark = m.journal_mark(0);
        m.write(0, 0xb000, 0x11, 1);
        m.write(0, 0xb000, 0x2222, 2);
        m.write(0, 0xb002, 0x33, 1);
        m.rollback_journal(0, mark);
        assert_eq!(m.phys().read_u64(0xb000), 0xaaaa_bbbb_cccc_dddd);
    }
}
