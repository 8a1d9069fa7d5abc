//! Fault injection into forwarded data (§VI-C methodology).
//!
//! Faults are injected into the data *forwarded* from the main core —
//! memory-access log entries and checkpoint snapshots sitting in the DBC
//! FIFOs — "simulating the hardware faults without disrupting the main
//! core's normal execution". The checker must then detect the divergence;
//! the cycle distance from injection to the detection event is the
//! error-detection latency of Fig. 7.

use crate::fabric::Fabric;
use crate::packet::{LogKind, Packet};
use rand::Rng;
use std::fmt;

/// Where an injected fault landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// A log entry's address word.
    EntryAddr,
    /// A log entry's data word.
    EntryData,
    /// A checkpoint snapshot bit (SCP or ECP payload).
    Checkpoint,
    /// The instruction-count packet.
    InstCount,
    /// A forwarded branch-outcome packet (out-of-order mains only).
    BranchOutcome,
}

impl fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultTarget::EntryAddr => "entry.addr",
            FaultTarget::EntryData => "entry.data",
            FaultTarget::Checkpoint => "checkpoint",
            FaultTarget::InstCount => "inst-count",
            FaultTarget::BranchOutcome => "branch-outcome",
        };
        f.write_str(s)
    }
}

/// One fault injection that landed: the record both injectors return
/// and a run reports in [`RunReport::injections`](crate::RunReport::injections).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// The main core whose stream was corrupted.
    pub main_core: usize,
    /// The corrupted packet class.
    pub target: FaultTarget,
    /// Bit indices flipped (distinct) within the target word or
    /// snapshot.
    pub bits: Vec<u32>,
    /// Cycle at which the flips were applied (in a run, possibly later
    /// than the shot's arming cycle if the stream was empty then).
    pub at_cycle: u64,
}

/// Flips one random bit in one random in-flight packet of `main`'s FIFO.
///
/// Returns `None` when the FIFO holds no packets (the caller should retry
/// at a later cycle — the paper's campaign draws injection times at
/// random over the run).
pub fn inject_random_fault<R: Rng>(
    fabric: &mut Fabric,
    main: usize,
    now: u64,
    rng: &mut R,
) -> Option<Injection> {
    let unit = fabric.unit_mut(main);
    let len = unit.fifo.len();
    if len == 0 {
        return None;
    }
    let idx = rng.gen_range(0..len);
    let packet = unit.fifo.packet_mut(idx).expect("index in range");
    let (target, bit) = match packet {
        Packet::Mem(e) => {
            if rng.gen_bool(0.5) && !matches!(e.kind, LogKind::ScResult) {
                let bit = rng.gen_range(0..32u32); // plausible physical address bits
                e.addr ^= 1 << bit;
                (FaultTarget::EntryAddr, bit)
            } else {
                let bit = rng.gen_range(0..(u32::from(e.size) * 8));
                e.data ^= 1 << bit;
                (FaultTarget::EntryData, bit)
            }
        }
        Packet::Scp(cp) | Packet::Ecp(cp) => {
            let bit = rng.gen_range(0..(66 * 64) as u32);
            cp.snapshot.flip_bit(bit as usize);
            (FaultTarget::Checkpoint, bit)
        }
        Packet::InstCount(v) => {
            let bit = rng.gen_range(0..8u32); // low bits keep counts plausible
            *v ^= 1 << bit;
            (FaultTarget::InstCount, bit)
        }
        Packet::Branch(pc) => {
            // Instruction-aligned flips keep the corrupted target a
            // plausible pc (bits 0/1 would be trivially malformed).
            let bit = rng.gen_range(2..32u32);
            *pc ^= 1 << bit;
            (FaultTarget::BranchOutcome, bit)
        }
    };
    drop_recordings(fabric, main);
    Some(Injection {
        main_core: main,
        target,
        bits: vec![bit],
        at_cycle: now,
    })
}

/// Drops any in-progress verdict-memo recording on `main`'s checkers.
///
/// Mutating an in-flight packet already poisons the DBC's banked
/// fingerprints, but a checker that captured its segment's fingerprint
/// *before* the flip could still finish recording against the pristine
/// hashes and cache a charge for a stream that no longer exists — this
/// is the injectors' half of the fault-bypass contract (DESIGN.md §13).
fn drop_recordings(fabric: &mut Fabric, main: usize) {
    let checkers: Vec<usize> = fabric.checkers_of(main).to_vec();
    for checker in checkers {
        fabric.unit_mut(checker).checker.recording = None;
    }
}

/// Flips `bits` distinct random bits in one in-flight packet of the
/// requested class in `main`'s FIFO — the fault-coverage sweep's
/// deterministic-target counterpart to [`inject_random_fault`].
///
/// Multi-bit flips model burst upsets; all flips land in the same word
/// (entry address, entry data, checkpoint payload or count), which is the
/// worst case for silent masking since flips may cancel.
///
/// Returns `None` when no packet of the requested class is currently
/// buffered (the caller should step the platform and retry).
pub fn inject_targeted_fault<R: Rng>(
    fabric: &mut Fabric,
    main: usize,
    target: FaultTarget,
    bits: u32,
    now: u64,
    rng: &mut R,
) -> Option<Injection> {
    let unit = fabric.unit_mut(main);
    let len = unit.fifo.len();
    // Collect candidate packet indices of the requested class.
    let mut candidates = Vec::new();
    for idx in 0..len {
        let p = unit.fifo.packet_at(idx).expect("index in range");
        let matches = match (target, p) {
            (FaultTarget::EntryAddr, Packet::Mem(e)) => {
                // Supplementary µop entries carry no address.
                !matches!(e.kind, LogKind::ScResult | LogKind::AmoLoad)
            }
            (FaultTarget::EntryData, Packet::Mem(_)) => true,
            (FaultTarget::Checkpoint, Packet::Scp(_) | Packet::Ecp(_)) => true,
            (FaultTarget::InstCount, Packet::InstCount(_)) => true,
            (FaultTarget::BranchOutcome, Packet::Branch(_)) => true,
            _ => false,
        };
        if matches {
            candidates.push(idx);
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let idx = candidates[rng.gen_range(0..candidates.len())];
    let width = match (target, unit.fifo.packet_at(idx).expect("in range")) {
        (FaultTarget::EntryAddr, _) => 32,
        (FaultTarget::EntryData, Packet::Mem(e)) => u32::from(e.size) * 8,
        (FaultTarget::Checkpoint, _) => (66 * 64) as u32,
        (FaultTarget::InstCount, _) => 13, // log2(5000) ≈ 12.3: plausible counts
        (FaultTarget::BranchOutcome, _) => 32,
        _ => unreachable!("candidate class checked above"),
    };
    let bits = bits.min(width);
    let mut flipped: Vec<u32> = Vec::with_capacity(bits as usize);
    while (flipped.len() as u32) < bits {
        let b = rng.gen_range(0..width);
        if !flipped.contains(&b) {
            flipped.push(b);
        }
    }
    let packet = unit.fifo.packet_mut(idx).expect("candidate in range");
    for &b in &flipped {
        match (target, &mut *packet) {
            (FaultTarget::EntryAddr, Packet::Mem(e)) => e.addr ^= 1 << b,
            (FaultTarget::EntryData, Packet::Mem(e)) => e.data ^= 1 << b,
            (FaultTarget::Checkpoint, Packet::Scp(cp) | Packet::Ecp(cp)) => {
                cp.snapshot.flip_bit(b as usize);
            }
            (FaultTarget::InstCount, Packet::InstCount(v)) => *v ^= 1 << b,
            (FaultTarget::BranchOutcome, Packet::Branch(pc)) => *pc ^= 1 << b,
            _ => unreachable!("candidate class checked above"),
        }
    }
    drop_recordings(fabric, main);
    Some(Injection {
        main_core: main,
        target,
        bits: flipped,
        at_cycle: now,
    })
}

/// Summary statistics over a set of latency samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub n: usize,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Maximum latency, µs.
    pub max_us: f64,
}

impl LatencyStats {
    /// Computes statistics from cycle latencies at a given clock.
    ///
    /// Returns `None` for an empty sample set.
    pub fn from_cycles(latencies: &[u64], clock: flexstep_sim::Clock) -> Option<Self> {
        if latencies.is_empty() {
            return None;
        }
        let mut us: Vec<f64> = latencies.iter().map(|&c| clock.cycles_to_us(c)).collect();
        us.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
        let n = us.len();
        let mean = us.iter().sum::<f64>() / n as f64;
        let pick = |q: f64| us[((n - 1) as f64 * q).round() as usize];
        Some(LatencyStats {
            n,
            mean_us: mean,
            p50_us: pick(0.50),
            p99_us: pick(0.99),
            max_us: us[n - 1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;
    use crate::packet::LogEntry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fabric_with_entries(n: usize) -> Fabric {
        let mut f = Fabric::new(2, FabricConfig::paper());
        f.configure(&[0], &[1]).unwrap();
        f.associate(0, &[1]).unwrap();
        for i in 0..n {
            f.unit_mut(0)
                .fifo
                .push(Packet::Mem(LogEntry {
                    kind: LogKind::Load,
                    addr: 0x1000 + i as u64 * 8,
                    size: 8,
                    data: i as u64,
                }))
                .unwrap();
        }
        f
    }

    #[test]
    fn injection_requires_in_flight_data() {
        let mut f = fabric_with_entries(0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(inject_random_fault(&mut f, 0, 100, &mut rng), None);
    }

    #[test]
    fn injection_mutates_exactly_one_packet() {
        let mut f = fabric_with_entries(8);
        let before: Vec<Packet> = (0..8)
            .map(|i| f.unit_mut(0).fifo.packet_at(i).unwrap().clone())
            .collect();
        let mut rng = StdRng::seed_from_u64(7);
        let rec = inject_random_fault(&mut f, 0, 55, &mut rng).unwrap();
        assert_eq!(rec.at_cycle, 55);
        let after: Vec<Packet> = (0..8)
            .map(|i| f.unit_mut(0).fifo.packet_at(i).unwrap().clone())
            .collect();
        let changed = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        assert_eq!(changed, 1, "exactly one packet must change");
    }

    #[test]
    fn targeted_injection_hits_requested_class() {
        use crate::packet::Checkpoint;
        use flexstep_sim::ArchState;
        let mut f = fabric_with_entries(4);
        f.unit_mut(0)
            .fifo
            .push(Packet::scp(Checkpoint {
                snapshot: ArchState::new(0).snapshot(),
                seq: 0,
                tag: 0,
            }))
            .unwrap();
        f.unit_mut(0).fifo.push(Packet::InstCount(100)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for target in [
            FaultTarget::EntryAddr,
            FaultTarget::EntryData,
            FaultTarget::Checkpoint,
            FaultTarget::InstCount,
        ] {
            let rec = inject_targeted_fault(&mut f, 0, target, 1, 42, &mut rng)
                .unwrap_or_else(|| panic!("{target} must be injectable"));
            assert_eq!(rec.target, target);
            assert_eq!(rec.bits.len(), 1);
            assert_eq!(rec.at_cycle, 42);
        }
    }

    #[test]
    fn targeted_injection_multi_bit_flips_are_distinct() {
        let mut f = fabric_with_entries(2);
        let mut rng = StdRng::seed_from_u64(9);
        let rec = inject_targeted_fault(&mut f, 0, FaultTarget::EntryData, 8, 0, &mut rng).unwrap();
        assert_eq!(rec.bits.len(), 8);
        let mut sorted = rec.bits.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "flipped bits must be distinct");
    }

    #[test]
    fn targeted_injection_none_when_class_absent() {
        // Only Mem entries buffered: no checkpoint to corrupt.
        let mut f = fabric_with_entries(3);
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(
            inject_targeted_fault(&mut f, 0, FaultTarget::Checkpoint, 1, 0, &mut rng),
            None
        );
        assert_eq!(
            inject_targeted_fault(&mut f, 0, FaultTarget::InstCount, 1, 0, &mut rng),
            None
        );
    }

    #[test]
    fn targeted_injection_even_flips_cancel_on_same_word() {
        // Flipping the same packet twice with the SAME bit set would
        // cancel; the injector draws distinct bits per call, so two
        // injections into a 1-entry FIFO must leave the packet corrupted
        // relative to pristine unless the two draws coincide exactly.
        let mut f = fabric_with_entries(1);
        let pristine = f.unit_mut(0).fifo.packet_at(0).unwrap().clone();
        let mut rng = StdRng::seed_from_u64(5);
        let a = inject_targeted_fault(&mut f, 0, FaultTarget::EntryData, 2, 0, &mut rng).unwrap();
        let now = f.unit_mut(0).fifo.packet_at(0).unwrap().clone();
        assert_ne!(pristine, now, "two distinct flips cannot cancel: {a:?}");
    }

    #[test]
    fn latency_stats_percentiles() {
        let clock = flexstep_sim::Clock::paper();
        // 1600 cycles = 1 µs at 1.6 GHz.
        let lat: Vec<u64> = (1..=100).map(|i| i * 1600).collect();
        let s = LatencyStats::from_cycles(&lat, clock).unwrap();
        assert_eq!(s.n, 100);
        assert!((s.max_us - 100.0).abs() < 1e-9);
        assert!((s.p50_us - 50.5).abs() <= 0.6);
        assert!((s.p99_us - 99.0).abs() <= 1.0);
        assert!(LatencyStats::from_cycles(&[], clock).is_none());
    }
}
