//! Property tests of the memory hierarchy: functional correctness against
//! a flat byte-granular shadow memory under random multi-core access
//! sequences (including size aliasing), timing and statistics against a
//! reference that snoops on every data access, and latency-model sanity.

use flexstep_mem::cache::{Cache, CacheConfig, LineState};
use flexstep_mem::hierarchy::{AccessKind, LatencyConfig, MemoryConfig, MemorySystem};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
enum Access {
    Read {
        core: usize,
        slot: u64,
        size: u8,
    },
    Write {
        core: usize,
        slot: u64,
        size: u8,
        value: u64,
    },
}

fn access() -> impl Strategy<Value = Access> {
    let size = prop_oneof![Just(1u8), Just(2), Just(4), Just(8)];
    let slot = 0u64..64; // 64 line-aligned slots over several cache sets
    prop_oneof![
        (0usize..3, slot.clone(), size.clone()).prop_map(|(core, slot, size)| Access::Read {
            core,
            slot,
            size
        }),
        (0usize..3, slot, size, any::<u64>()).prop_map(|(core, slot, size, value)| Access::Write {
            core,
            slot,
            size,
            value
        }),
    ]
}

fn addr_of(slot: u64) -> u64 {
    0x4000 + slot * 64
}

/// Byte-granular shadow: exact under size aliasing (an 8-byte write
/// followed by a 2-byte read must see the low bytes).
#[derive(Default)]
struct Shadow(HashMap<u64, u8>);

impl Shadow {
    fn write(&mut self, addr: u64, value: u64, size: u8) {
        for i in 0..u64::from(size) {
            self.0.insert(addr + i, (value >> (8 * i)) as u8);
        }
    }
    fn read(&self, addr: u64, size: u8) -> u64 {
        (0..u64::from(size)).fold(0u64, |acc, i| {
            acc | u64::from(self.0.get(&(addr + i)).copied().unwrap_or(0)) << (8 * i)
        })
    }
}

/// The memory system as a plain composition of [`Cache`]s: every data
/// access first sweeps the other cores' L1Ds, hit or miss, then walks
/// L1 → L2 → DRAM. [`MemorySystem`] must time and count exactly alike
/// while it skips the sweep on L1 hits that need no upgrade.
struct Reference {
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    l2: Cache,
    latency: LatencyConfig,
    snoops: u64,
}

impl Reference {
    fn new(cores: usize, config: MemoryConfig) -> Self {
        let caches = |c| {
            (0..cores)
                .map(|_| Cache::new(c).expect("geometry"))
                .collect()
        };
        Reference {
            l1i: caches(config.l1i),
            l1d: caches(config.l1d),
            l2: Cache::new(config.l2).expect("geometry"),
            latency: config.latency,
            snoops: 0,
        }
    }

    fn access(&mut self, core: usize, addr: u64, kind: AccessKind) -> u64 {
        let write = kind == AccessKind::Write;
        let lat = self.latency;
        let mut cycles = lat.l1_hit;
        if kind != AccessKind::Fetch {
            for (i, other) in self.l1d.iter_mut().enumerate() {
                if i == core {
                    continue;
                }
                let state = other.probe(addr);
                if write && state != LineState::Invalid {
                    other.invalidate(addr);
                } else if !write && state == LineState::Modified {
                    other.downgrade(addr);
                } else {
                    continue;
                }
                self.snoops += 1;
                cycles += lat.snoop;
            }
        }
        let l1 = match kind {
            AccessKind::Fetch => &mut self.l1i[core],
            _ => &mut self.l1d[core],
        };
        let l1_out = l1.access(addr, write);
        if l1_out.hit {
            return cycles;
        }
        let l2_out = self.l2.access(addr, write);
        cycles += lat.l2_hit;
        if !l2_out.hit {
            cycles += lat.dram;
        }
        if l1_out.writeback.is_some() {
            cycles += lat.l2_hit;
        }
        if l2_out.writeback.is_some() {
            cycles += lat.dram;
        }
        cycles
    }

    /// Whether one L1D holds `addr`'s line Modified while another holds
    /// it at all: the MSI invariant that makes skipping the sweep exact.
    fn msi_violated(&self, addr: u64) -> bool {
        let states: Vec<LineState> = self.l1d.iter().map(|c| c.probe(addr)).collect();
        let holders = states.iter().filter(|&&s| s != LineState::Invalid).count();
        states.contains(&LineState::Modified) && holders > 1
    }
}

/// 512 B 2-way L1s (4 sets) and a 4 KiB 4-way L2 (16 sets), so that 96
/// lines evict, invalidate and downgrade all the time.
fn tiny_config() -> MemoryConfig {
    let l1 = CacheConfig {
        size_bytes: 512,
        ways: 2,
        line_bytes: 64,
    };
    MemoryConfig {
        l1i: l1,
        l1d: l1,
        l2: CacheConfig {
            size_bytes: 4096,
            ways: 4,
            line_bytes: 64,
        },
        latency: LatencyConfig::paper(),
    }
}

const TIMED_LINES: u64 = 96;

/// A word of line `line`, at an offset that varies with the line.
fn timed_addr(line: u64) -> u64 {
    0x10_0000 + line * 64 + (line % 8) * 8
}

fn timed_access() -> impl Strategy<Value = (usize, u64, AccessKind)> {
    let kind = prop_oneof![
        Just(AccessKind::Fetch),
        Just(AccessKind::Read),
        Just(AccessKind::Write)
    ];
    (0usize..8, 0..TIMED_LINES, kind)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Cycles, every cache's statistics and the snoop count equal the
    /// reference's after every access, on 1–8 cores; and no line is
    /// ever Modified in one L1D while another L1D holds it.
    #[test]
    fn timing_matches_a_reference_that_always_snoops(
        cores in 1usize..=8,
        ops in proptest::collection::vec(timed_access(), 1..300),
    ) {
        let mut mem = MemorySystem::new(cores, tiny_config()).expect("geometry");
        let mut reference = Reference::new(cores, tiny_config());
        for (step, (core, line, kind)) in ops.into_iter().enumerate() {
            let (core, addr) = (core % cores, timed_addr(line));
            let cycles = match kind {
                AccessKind::Fetch => mem.access(core, addr, kind),
                AccessKind::Read => mem.read(core, addr, 8).1,
                AccessKind::Write => mem.write(core, addr, line, 8),
            };
            let at = format!("step {step}: core {core} {kind:?} {addr:#x}");
            prop_assert_eq!(cycles, reference.access(core, addr, kind), "{}", at);
            for c in 0..cores {
                prop_assert_eq!(mem.l1i_stats(c), reference.l1i[c].stats(), "{} L1I {}", at, c);
                prop_assert_eq!(mem.l1d_stats(c), reference.l1d[c].stats(), "{} L1D {}", at, c);
            }
            prop_assert_eq!(mem.l2_stats(), reference.l2.stats(), "{}", at);
            prop_assert_eq!(mem.snoop_count(), reference.snoops, "{}", at);
            // Only the accessed line can gain a holder or a Modified copy;
            // evictions elsewhere only drop copies.
            prop_assert!(!reference.msi_violated(addr), "{}", at);
        }
        for line in 0..TIMED_LINES {
            prop_assert!(!reference.msi_violated(timed_addr(line)), "line {}", line);
        }
    }

    /// Reads always return the bytes of the most recent writes to the
    /// same locations, across cores and access sizes, whatever the cache
    /// states (MSI is a pure timing model; data must stay coherent by
    /// construction).
    #[test]
    fn coherent_with_flat_shadow(ops in proptest::collection::vec(access(), 1..200)) {
        let mut mem = MemorySystem::new(3, MemoryConfig::paper()).expect("geometry");
        let mut shadow = Shadow::default();
        for op in ops {
            match op {
                Access::Write { core, slot, size, value } => {
                    let addr = addr_of(slot);
                    let lat = mem.write(core, addr, value, size);
                    prop_assert!(lat >= 2, "a write cannot beat the L1 hit latency");
                    shadow.write(addr, value, size);
                }
                Access::Read { core, slot, size } => {
                    let addr = addr_of(slot);
                    let (value, lat) = mem.read(core, addr, size);
                    prop_assert!(lat >= 2);
                    prop_assert_eq!(value, shadow.read(addr, size),
                        "stale read at {:#x} size {}", addr, size);
                }
            }
        }
    }

    /// Same-core re-reads hit: the second access to an address is never
    /// slower than the first, and lands at the L1 hit latency.
    #[test]
    fn rereads_do_not_get_slower(slot in 0u64..32, size in prop_oneof![Just(4u8), Just(8u8)]) {
        let mut mem = MemorySystem::new(1, MemoryConfig::paper()).expect("geometry");
        let addr = addr_of(slot);
        let (_, first) = mem.read(0, addr, size);
        let (_, second) = mem.read(0, addr, size);
        prop_assert!(second <= first, "re-read slower: {} then {}", first, second);
        prop_assert_eq!(second, 2, "second read must be an L1 hit");
    }

    /// Cross-core write-after-write ping-pong costs snoop traffic but
    /// never corrupts data.
    #[test]
    fn cross_core_ping_pong_is_coherent(value_a in any::<u64>(), value_b in any::<u64>()) {
        let mut mem = MemorySystem::new(2, MemoryConfig::paper()).expect("geometry");
        let addr = 0x9000;
        mem.write(0, addr, value_a, 8);
        let (seen_by_1, _) = mem.read(1, addr, 8);
        prop_assert_eq!(seen_by_1, value_a);
        mem.write(1, addr, value_b, 8);
        let (seen_by_0, _) = mem.read(0, addr, 8);
        prop_assert_eq!(seen_by_0, value_b);
    }
}
