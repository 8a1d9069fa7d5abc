//! Packets flowing through the Data Buffering and Channelling units.
//!
//! For each checking segment the main core emits, in order: an **SCP**
//! (start register checkpoint), the **memory-access log entries**, the
//! **instruction count** and the **ECP** (end register checkpoint) —
//! exactly the stream of Fig. 3 of the paper. LR/SC/AMO instructions are
//! packaged as *two* entries to keep the entry width fixed (§III-B).

use flexstep_sim::{ArchSnapshot, MemAccess, MemAccessKind};
use std::fmt;

/// A register checkpoint in flight (SCP or ECP payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// The captured architectural state; `pc` is the address of the next
    /// instruction of the segment (SCP) or the first unexecuted
    /// instruction (ECP).
    pub snapshot: ArchSnapshot,
    /// Monotonic segment sequence number on this main core.
    pub seq: u64,
    /// Stream tag attributed by the OS (task identifier); lets one checker
    /// verify segments of different tasks arriving on the same channel.
    pub tag: u64,
}

/// One memory-access log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// Entry kind.
    pub kind: LogKind,
    /// Effective address (zero for the supplementary µop entries).
    pub addr: u64,
    /// Access size in bytes.
    pub size: u8,
    /// Payload: load data, store data, AMO old value, or SC result.
    pub data: u64,
}

/// Kind of a memory-access log entry.
///
/// LR, SC and AMO produce a *pair* of entries (`§III-B`: "instructions
/// with multiple memory micro-operations ... are packaged into multiple
/// entries").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogKind {
    /// Load: `data` is the loaded value (input to replay).
    Load,
    /// Store: `data` is the stored value (verified by the checker).
    Store,
    /// Load-reserved: `data` is the loaded value.
    Lr,
    /// First SC µop: address and attempted store data.
    ScAddrData,
    /// Second SC µop: `data` is 0 (failed) or 1 (succeeded).
    ScResult,
    /// First AMO µop: address and the value stored by the AMO.
    AmoAddrData,
    /// Second AMO µop: `data` is the old (loaded) value.
    AmoLoad,
}

impl fmt::Display for LogKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LogKind::Load => "load",
            LogKind::Store => "store",
            LogKind::Lr => "lr",
            LogKind::ScAddrData => "sc.addr",
            LogKind::ScResult => "sc.result",
            LogKind::AmoAddrData => "amo.addr",
            LogKind::AmoLoad => "amo.load",
        };
        f.write_str(s)
    }
}

/// Builds the log entries for a retired memory access.
///
/// Regular loads/stores produce one entry; LR produces one; SC and AMO
/// produce two.
pub fn log_entries(access: &MemAccess) -> (LogEntry, Option<LogEntry>) {
    match access.kind {
        MemAccessKind::Load => (
            LogEntry {
                kind: LogKind::Load,
                addr: access.addr,
                size: access.size,
                data: access.data,
            },
            None,
        ),
        MemAccessKind::Store => (
            LogEntry {
                kind: LogKind::Store,
                addr: access.addr,
                size: access.size,
                data: access.data,
            },
            None,
        ),
        MemAccessKind::Lr => (
            LogEntry {
                kind: LogKind::Lr,
                addr: access.addr,
                size: access.size,
                data: access.data,
            },
            None,
        ),
        MemAccessKind::Sc { success } => (
            LogEntry {
                kind: LogKind::ScAddrData,
                addr: access.addr,
                size: access.size,
                data: access.data,
            },
            Some(LogEntry {
                kind: LogKind::ScResult,
                addr: 0,
                size: access.size,
                data: u64::from(success),
            }),
        ),
        MemAccessKind::Amo { loaded } => (
            LogEntry {
                kind: LogKind::AmoAddrData,
                addr: access.addr,
                size: access.size,
                data: access.data,
            },
            Some(LogEntry {
                kind: LogKind::AmoLoad,
                addr: 0,
                size: access.size,
                data: loaded,
            }),
        ),
    }
}

/// A packet in a Data Buffer FIFO.
///
/// The FIFO stores packets as they are: log entries, branch outcomes and
/// counts inline, checkpoints in the `Box` each SCP/ECP carries. An
/// [`ArchSnapshot`] is >0.5 KiB, so boxing it keeps the enum a few words
/// — a small FIFO element, and moving a packet (`pop`, `drain_segment`,
/// burst pushes) never copies a checkpoint-sized value.
#[derive(Debug, Clone, PartialEq)]
pub enum Packet {
    /// Start register checkpoint: opens a segment.
    Scp(Box<Checkpoint>),
    /// A memory-access log entry.
    Mem(LogEntry),
    /// A forwarded branch outcome — the architectural `next_pc` of one
    /// retired control-flow instruction. Only out-of-order mains emit
    /// these (MEEK-style outcome forwarding); the checker consumes them
    /// in retirement order instead of re-predicting control flow.
    Branch(u64),
    /// The segment's user-mode instruction count.
    InstCount(u64),
    /// End register checkpoint: closes a segment.
    Ecp(Box<Checkpoint>),
}

impl Packet {
    /// Builds an SCP packet, boxing the checkpoint payload.
    pub fn scp(cp: Checkpoint) -> Self {
        Packet::Scp(Box::new(cp))
    }

    /// Builds an ECP packet, boxing the checkpoint payload.
    pub fn ecp(cp: Checkpoint) -> Self {
        Packet::Ecp(Box::new(cp))
    }

    /// Occupancy of this packet in the FIFO, in bytes. Checkpoints carry
    /// the full snapshot plus the pc/seq header; entries carry
    /// address + data words, except the supplementary µop entries, which
    /// carry data only.
    pub fn bytes(&self) -> usize {
        match self {
            Packet::Scp(_) | Packet::Ecp(_) => ArchSnapshot::BYTES + 8,
            Packet::Mem(e) if matches!(e.kind, LogKind::ScResult | LogKind::AmoLoad) => 8,
            Packet::Mem(_) => 16,
            Packet::Branch(_) | Packet::InstCount(_) => 8,
        }
    }

    /// Whether this packet is a checkpoint (SCP or ECP).
    pub fn is_checkpoint(&self) -> bool {
        matches!(self, Packet::Scp(_) | Packet::Ecp(_))
    }
}

/// One mixing round of the segment fingerprint hash (the splitmix64
/// finaliser over an accumulator): folds the 64-bit word `v` into `h`.
/// Order-sensitive and full-avalanche, so any single-bit change anywhere
/// in a packet stream flips about half the final fingerprint bits.
#[inline]
pub(crate) fn hash_mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seed of the segment fingerprint hash (the FNV-1a offset basis, an
/// arbitrary non-zero constant).
pub(crate) const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds an [`ArchSnapshot`]'s architectural payload — pc, both register
/// files and `fcsr`, 66 words in the checkpoint layout — into `h`.
///
/// Deliberately *not* a [`Checkpoint`] hash: the wrapping `seq` and `tag`
/// are bookkeeping that differ on every segment, and a fingerprint that
/// included them could never match a recurring segment.
pub(crate) fn hash_snapshot(mut h: u64, s: &ArchSnapshot) -> u64 {
    h = hash_mix(h, s.pc);
    for w in s.xregs {
        h = hash_mix(h, w);
    }
    for w in s.fregs {
        h = hash_mix(h, w);
    }
    hash_mix(h, s.fcsr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexstep_sim::ArchState;

    fn snap() -> ArchSnapshot {
        ArchState::new(0).snapshot()
    }

    #[test]
    fn simple_accesses_make_one_entry() {
        let a = MemAccess {
            kind: MemAccessKind::Load,
            addr: 0x100,
            size: 8,
            data: 7,
        };
        let (e, extra) = log_entries(&a);
        assert_eq!(e.kind, LogKind::Load);
        assert_eq!(e.data, 7);
        assert!(extra.is_none());
        let a = MemAccess {
            kind: MemAccessKind::Store,
            addr: 0x100,
            size: 4,
            data: 9,
        };
        let (e, extra) = log_entries(&a);
        assert_eq!(e.kind, LogKind::Store);
        assert!(extra.is_none());
    }

    #[test]
    fn sc_packs_two_entries() {
        let a = MemAccess {
            kind: MemAccessKind::Sc { success: true },
            addr: 0x80,
            size: 8,
            data: 5,
        };
        let (e, extra) = log_entries(&a);
        assert_eq!(e.kind, LogKind::ScAddrData);
        assert_eq!(e.data, 5);
        let extra = extra.unwrap();
        assert_eq!(extra.kind, LogKind::ScResult);
        assert_eq!(extra.data, 1);
    }

    #[test]
    fn amo_packs_two_entries() {
        let a = MemAccess {
            kind: MemAccessKind::Amo { loaded: 10 },
            addr: 0x80,
            size: 8,
            data: 13,
        };
        let (e, extra) = log_entries(&a);
        assert_eq!(e.kind, LogKind::AmoAddrData);
        assert_eq!(e.data, 13, "first µop carries stored value");
        let extra = extra.unwrap();
        assert_eq!(extra.kind, LogKind::AmoLoad);
        assert_eq!(extra.data, 10, "second µop carries loaded value");
    }

    #[test]
    fn packet_sizes_reflect_multi_uop_packaging() {
        let full = Packet::Mem(LogEntry {
            kind: LogKind::Load,
            addr: 0,
            size: 8,
            data: 0,
        });
        let half = Packet::Mem(LogEntry {
            kind: LogKind::ScResult,
            addr: 0,
            size: 8,
            data: 1,
        });
        assert_eq!(full.bytes(), 16);
        assert_eq!(half.bytes(), 8, "supplementary µop entries are half-width");
        let cp = Packet::scp(Checkpoint {
            snapshot: snap(),
            seq: 0,
            tag: 0,
        });
        assert_eq!(cp.bytes(), ArchSnapshot::BYTES + 8);
        assert!(cp.is_checkpoint());
        assert_eq!(Packet::InstCount(5).bytes(), 8);
    }

    #[test]
    fn snapshot_hash_ignores_seq_and_tag_but_sees_state() {
        let s1 = ArchState::new(1).snapshot();
        let mut s2 = s1;
        let h = hash_snapshot(HASH_SEED, &s1);
        assert_eq!(h, hash_snapshot(HASH_SEED, &s2), "pure function");
        s2.xregs[5] ^= 1;
        assert_ne!(h, hash_snapshot(HASH_SEED, &s2), "single bit flips hash");
    }

    #[test]
    fn packet_enum_is_small_at_the_api_boundary() {
        // The checkpoint payload is boxed precisely so API-boundary
        // moves (pop, drain_segment, burst slices) never copy an
        // ArchSnapshot-sized value. The FIFO queues `Packet`s, so this
        // also bounds its element size.
        assert!(
            std::mem::size_of::<Packet>() <= 32,
            "Packet must stay a few words: {} bytes",
            std::mem::size_of::<Packet>()
        );
        assert!(std::mem::size_of::<Packet>() < ArchSnapshot::BYTES);
    }
}
