//! Set-associative cache timing model.
//!
//! Models the tag arrays of the evaluated Rocket memory hierarchy (Tab. II
//! of the paper): blocking L1 instruction/data caches and a shared L2. Data
//! is *not* stored here — functional state lives in
//! [`PhysMem`](crate::phys::PhysMem); the cache tracks tags, coherence
//! state, LRU order and statistics, and answers "hit or miss" so the
//! hierarchy can account latency.

use std::fmt;

/// Coherence/validity state of a cache line (MSI protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Line not present.
    Invalid,
    /// Present, clean, potentially shared with other caches.
    Shared,
    /// Present, dirty, exclusively owned.
    Modified,
}

/// Geometry and identity of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// The 16 KiB 4-way L1 configuration of Tab. II.
    pub fn paper_l1() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
        }
    }

    /// The 512 KiB 8-way L2 configuration of Tab. II.
    pub fn paper_l2() -> Self {
        CacheConfig {
            size_bytes: 512 * 1024,
            ways: 8,
            line_bytes: 64,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// Validates the geometry (power-of-two sets and line size, non-zero
    /// dimensions).
    ///
    /// # Errors
    ///
    /// Returns a [`CacheGeometryError`] describing the violated constraint.
    pub fn validate(&self) -> Result<(), CacheGeometryError> {
        if self.size_bytes == 0 || self.ways == 0 || self.line_bytes == 0 {
            return Err(CacheGeometryError::Zero);
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(CacheGeometryError::LineNotPowerOfTwo {
                line_bytes: self.line_bytes,
            });
        }
        if !self.size_bytes.is_multiple_of(self.ways * self.line_bytes) {
            return Err(CacheGeometryError::NotDivisible);
        }
        if !self.sets().is_power_of_two() {
            return Err(CacheGeometryError::SetsNotPowerOfTwo { sets: self.sets() });
        }
        Ok(())
    }
}

/// Invalid cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheGeometryError {
    /// A dimension is zero.
    Zero,
    /// Line size must be a power of two.
    LineNotPowerOfTwo {
        /// Offending line size.
        line_bytes: usize,
    },
    /// Capacity is not a whole number of sets.
    NotDivisible,
    /// The set count must be a power of two for address slicing.
    SetsNotPowerOfTwo {
        /// Computed set count.
        sets: usize,
    },
}

impl fmt::Display for CacheGeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheGeometryError::Zero => write!(f, "cache dimensions must be non-zero"),
            CacheGeometryError::LineNotPowerOfTwo { line_bytes } => {
                write!(f, "line size {line_bytes} is not a power of two")
            }
            CacheGeometryError::NotDivisible => {
                write!(f, "capacity is not divisible into whole sets")
            }
            CacheGeometryError::SetsNotPowerOfTwo { sets } => {
                write!(f, "set count {sets} is not a power of two")
            }
        }
    }
}

impl std::error::Error for CacheGeometryError {}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
    /// Dirty lines written back (on eviction or invalidation).
    pub writebacks: u64,
    /// Lines invalidated by coherence actions.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    state: LineState,
    /// Higher = more recently used.
    lru: u64,
}

const INVALID_LINE: Line = Line {
    tag: 0,
    state: LineState::Invalid,
    lru: 0,
};

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// A dirty victim line's base address, if one was written back.
    pub writeback: Option<u64>,
}

/// A set-associative tag-array cache with LRU replacement.
///
/// ```
/// use flexstep_mem::cache::{Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig::paper_l1()).expect("valid geometry");
/// assert!(!l1.access(0x1000, false).hit); // cold miss
/// assert!(l1.access(0x1000, false).hit);  // now resident
/// assert!(l1.access(0x1008, false).hit);  // same 64-byte line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
    /// Count of non-Invalid lines; lets coherence probes of untouched
    /// caches (e.g. a checker core's never-used L1D) exit in O(1).
    resident: usize,
    /// log2 of the line size: an address's line number is `addr >>
    /// line_shift`.
    line_shift: u32,
    /// `sets - 1`: the set index is the line number's low bits.
    set_mask: u64,
    /// `line_shift + log2(sets)`: the tag is `addr >> tag_shift`.
    tag_shift: u32,
}

impl Cache {
    /// Builds a cache with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CacheGeometryError`] for invalid geometry.
    pub fn new(config: CacheConfig) -> Result<Self, CacheGeometryError> {
        config.validate()?;
        let sets = config.sets();
        let line_shift = config.line_bytes.trailing_zeros();
        Ok(Cache {
            config,
            lines: vec![INVALID_LINE; sets * config.ways],
            stats: CacheStats::default(),
            tick: 0,
            resident: 0,
            line_shift,
            set_mask: sets as u64 - 1,
            tag_shift: line_shift + sets.trailing_zeros(),
        })
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    // Geometry is validated to powers of two, so addresses split by
    // shifts and a mask.
    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    fn tag(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }

    fn line_base(&self, set: usize, tag: u64) -> u64 {
        tag << self.tag_shift | (set as u64) << self.line_shift
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let start = set * self.config.ways;
        start..start + self.config.ways
    }

    /// The index in `lines` of the resident line holding `addr`, if any.
    fn way(&self, addr: u64) -> Option<usize> {
        if self.resident == 0 {
            return None;
        }
        let tag = self.tag(addr);
        self.set_range(self.set_index(addr)).find(|&i| {
            let line = &self.lines[i];
            line.state != LineState::Invalid && line.tag == tag
        })
    }

    /// Counts a hit on the line at `way`: refreshes its LRU age.
    fn touch(&mut self, way: usize) {
        self.tick += 1;
        self.lines[way].lru = self.tick;
        self.stats.hits += 1;
    }

    /// Performs an access; `write` marks the line Modified on hit or fill.
    ///
    /// Misses allocate (write-allocate policy) and may evict an LRU victim;
    /// a dirty victim's address is reported for write-back accounting.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        if let Some(way) = self.way(addr) {
            self.touch(way);
            if write {
                self.lines[way].state = LineState::Modified;
            }
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }

        // Miss: pick a victim (an invalid way if any, else LRU).
        self.tick += 1;
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let range = self.set_range(set);
        self.stats.misses += 1;
        let victim = range
            .clone()
            .find(|&i| self.lines[i].state == LineState::Invalid)
            .unwrap_or_else(|| {
                range
                    .min_by_key(|&i| self.lines[i].lru)
                    .expect("non-zero ways")
            });

        let mut writeback = None;
        let old = self.lines[victim];
        if old.state != LineState::Invalid {
            self.stats.evictions += 1;
            if old.state == LineState::Modified {
                self.stats.writebacks += 1;
                writeback = Some(self.line_base(set, old.tag));
            }
        } else {
            self.resident += 1;
        }
        self.lines[victim] = Line {
            tag,
            state: if write {
                LineState::Modified
            } else {
                LineState::Shared
            },
            lru: self.tick,
        };
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Serves an access that hits a line needing no state change — a
    /// resident line for a read, a Modified line for a write — with one
    /// set probe, touching LRU order and statistics exactly as
    /// [`access`](Self::access) would. Returns `false`, touching nothing,
    /// for any other access.
    pub(crate) fn hit(&mut self, addr: u64, write: bool) -> bool {
        match self.way(addr) {
            Some(way) if !write || self.lines[way].state == LineState::Modified => {
                self.touch(way);
                true
            }
            _ => false,
        }
    }

    /// Looks up the state of the line containing `addr` without touching
    /// LRU or statistics.
    pub fn probe(&self, addr: u64) -> LineState {
        self.way(addr)
            .map_or(LineState::Invalid, |way| self.lines[way].state)
    }

    /// Invalidates the line containing `addr` (snoop action). Returns the
    /// previous state; a Modified line counts a write-back.
    pub fn invalidate(&mut self, addr: u64) -> LineState {
        let Some(way) = self.way(addr) else {
            return LineState::Invalid;
        };
        let old = self.lines[way].state;
        if old == LineState::Modified {
            self.stats.writebacks += 1;
        }
        self.stats.invalidations += 1;
        self.lines[way].state = LineState::Invalid;
        self.resident -= 1;
        old
    }

    /// Downgrades the line containing `addr` from Modified to Shared
    /// (snoop read). Returns `true` if a write-back was needed.
    pub fn downgrade(&mut self, addr: u64) -> bool {
        match self.way(addr) {
            Some(way) if self.lines[way].state == LineState::Modified => {
                self.lines[way].state = LineState::Shared;
                self.stats.writebacks += 1;
                true
            }
            _ => false,
        }
    }

    /// Number of resident (non-invalid) lines.
    pub fn resident_lines(&self) -> usize {
        self.resident
    }

    /// Invalidates everything (e.g. at task-image reload).
    pub fn flush_all(&mut self) {
        for line in &mut self.lines {
            *line = INVALID_LINE;
        }
        self.resident = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
        .unwrap()
    }

    #[test]
    fn paper_geometries_are_valid() {
        assert_eq!(CacheConfig::paper_l1().sets(), 64);
        assert_eq!(CacheConfig::paper_l2().sets(), 1024);
        assert!(CacheConfig::paper_l1().validate().is_ok());
        assert!(CacheConfig::paper_l2().validate().is_ok());
    }

    #[test]
    fn invalid_geometry_rejected() {
        let bad = CacheConfig {
            size_bytes: 500,
            ways: 2,
            line_bytes: 64,
        };
        assert!(bad.validate().is_err());
        let bad = CacheConfig {
            size_bytes: 0,
            ways: 2,
            line_bytes: 64,
        };
        assert_eq!(bad.validate(), Err(CacheGeometryError::Zero));
        let bad = CacheConfig {
            size_bytes: 384,
            ways: 2,
            line_bytes: 64,
        };
        assert!(matches!(
            bad.validate(),
            Err(CacheGeometryError::SetsNotPowerOfTwo { sets: 3 })
        ));
    }

    #[test]
    fn hit_after_fill_same_line() {
        let mut c = tiny();
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x13F, false).hit); // same line
        assert!(!c.access(0x140, false).hit); // next line
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three addresses mapping to set 0 (stride = sets*line = 256B).
        c.access(0x000, false);
        c.access(0x100, false);
        c.access(0x000, false); // refresh 0x000
        let out = c.access(0x200, false); // evicts 0x100
        assert!(!out.hit);
        assert_eq!(c.probe(0x100), LineState::Invalid);
        assert_eq!(c.probe(0x000), LineState::Shared);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x100, false);
        let out = c.access(0x200, false); // evicts dirty 0x000
        assert_eq!(out.writeback, Some(0x000));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_modified() {
        let mut c = tiny();
        c.access(0x40, false);
        assert_eq!(c.probe(0x40), LineState::Shared);
        c.access(0x40, true);
        assert_eq!(c.probe(0x40), LineState::Modified);
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut c = tiny();
        c.access(0x40, true);
        assert!(c.downgrade(0x40));
        assert_eq!(c.probe(0x40), LineState::Shared);
        assert_eq!(c.invalidate(0x40), LineState::Shared);
        assert_eq!(c.probe(0x40), LineState::Invalid);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = tiny();
        c.access(0x0, false);
        c.access(0x0, false);
        c.access(0x40, false);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
        assert!((c.stats().miss_ratio() - 2.0 / 3.0).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn flush_all_empties_cache() {
        let mut c = tiny();
        c.access(0x0, true);
        c.access(0x40, false);
        assert_eq!(c.resident_lines(), 2);
        c.flush_all();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn line_base_reconstruction() {
        let c = tiny();
        let addr = 0x1234_5680u64;
        let set = c.set_index(addr);
        let tag = c.tag(addr);
        assert_eq!(c.line_base(set, tag), addr & !63);
    }
}
