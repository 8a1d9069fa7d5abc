//! Checker-core replay machinery.
//!
//! A checker core re-executes checking segments with the *same executor*
//! as the main core, but its data-memory port is a [`ReplayPort`] backed
//! by the Memory Access Log stream instead of the cache hierarchy: loads
//! return the logged data, and stores/SC/AMO are verified against the log
//! at commit, raising a detection the moment they diverge (§III-B).

use crate::dbc::BufferFifo;
use crate::detect::{MismatchKind, SegmentResult};
use crate::memo::{Recording, SegmentCharge, VerdictMemo};
use crate::packet::{LogEntry, LogKind, Packet};
use crate::rcpm::Ass;
use flexstep_isa::inst::{AmoOp, AmoWidth};
use flexstep_sim::port::{amo_apply, DataPort, PortStop};
use std::collections::VecDeque;

/// Where a busy checker is within the Al. 2 loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckPhase {
    /// Waiting for (or about to apply) the next SCP.
    WaitScp,
    /// Replaying a segment.
    Replaying {
        /// Segment sequence number.
        seq: u64,
        /// Stream tag (task id).
        tag: u64,
        /// User instructions replayed so far.
        count: u64,
        /// The main core's instruction count, once its packet has been
        /// observed at the head of the stream.
        ic: Option<u64>,
    },
    /// Count matched; waiting for the ECP to compare.
    WaitEcp {
        /// Segment sequence number.
        seq: u64,
        /// Stream tag (task id).
        tag: u64,
    },
}

/// Per-core checker state (the checker-role half of a FlexStep core).
#[derive(Debug)]
pub struct CheckerState {
    /// `C.check_state`: busy (checking) or idle.
    pub busy: bool,
    /// The ASS unit (saved context + staged SCP).
    pub ass: Ass,
    /// Current position in the checking loop.
    pub phase: CheckPhase,
    /// Completed segment verdicts, oldest first (`C.result` consumes
    /// from the front).
    pub results: VecDeque<SegmentResult>,
    /// Segments fully verified (clean or not).
    pub segments_checked: u64,
    /// Segments that failed verification.
    pub segments_failed: u64,
    /// Stale packets discarded while waiting for an SCP (post-abort
    /// resynchronisation).
    pub skipped_packets: u64,
    /// Segment-verdict memo (see `memo.rs`); capacity set by
    /// `FabricConfig::memo_capacity` when the fabric builds the unit.
    pub(crate) memo: VerdictMemo,
    /// The memo hit being served in place of real replay: the cached
    /// charge of the segment under replay.
    pub(crate) playback: Option<SegmentCharge>,
    /// In-progress charge recording for a memoizable segment.
    pub(crate) recording: Option<Recording>,
}

impl Default for CheckerState {
    fn default() -> Self {
        CheckerState {
            busy: false,
            ass: Ass::new(),
            phase: CheckPhase::WaitScp,
            results: VecDeque::new(),
            segments_checked: 0,
            segments_failed: 0,
            skipped_packets: 0,
            memo: VerdictMemo::default(),
            playback: None,
            recording: None,
        }
    }
}

impl CheckerState {
    /// Creates an idle checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed segment verdict.
    pub fn finish_segment(&mut self, result: SegmentResult) {
        self.segments_checked += 1;
        if !result.is_ok() {
            self.segments_failed += 1;
        }
        self.results.push_back(result);
        self.phase = CheckPhase::WaitScp;
    }

    /// `C.result`: takes the oldest pending verdict.
    pub fn take_result(&mut self) -> Option<SegmentResult> {
        self.results.pop_front()
    }
}

/// The log-backed data port used while replaying a segment.
///
/// The port reads the stream in place, at an offset past `consumer`'s
/// cursor, and never moves the cursor itself: the engine commits the
/// [`ReplayPort::consumed`] entries once per dispatch, whether it
/// replayed one instruction or a block of them.
///
/// On divergence it records the typed [`MismatchKind`] and aborts the
/// instruction with a [`PortStop`]; the engine converts that into a
/// detection event. Its accesses cost no cycles beyond the pipelined hit.
#[derive(Debug)]
pub struct ReplayPort<'a> {
    fifo: &'a BufferFifo,
    consumer: usize,
    /// Packets read past the consumer's cursor.
    read: usize,
    /// Set when the port aborted the access.
    pub mismatch: Option<MismatchKind>,
}

impl<'a> ReplayPort<'a> {
    /// Binds a replay port to `consumer`'s cursor on a main core's FIFO.
    pub fn new(fifo: &'a BufferFifo, consumer: usize) -> Self {
        ReplayPort {
            fifo,
            consumer,
            read: 0,
            mismatch: None,
        }
    }

    /// Packets read so far past the consumer's cursor: log entries and
    /// forwarded branch outcomes, never a checkpoint or `InstCount`.
    pub fn consumed(&self) -> usize {
        self.read
    }

    /// The next packet the port would read.
    pub(crate) fn head(&self) -> Option<&'a Packet> {
        let fifo: &'a BufferFifo = self.fifo;
        fifo.peek_ahead(self.consumer, self.read)
    }

    /// Takes the next log entry, expecting one of `want`; records a
    /// mismatch otherwise.
    ///
    /// Only the `LogEntry` is copied out; the packet stays in the FIFO,
    /// read in place — this runs once per replayed memory access.
    fn take_entry(&mut self, want: &[LogKind], actual: &str) -> Result<LogEntry, PortStop> {
        match self.head() {
            Some(Packet::Mem(e)) if want.contains(&e.kind) => {
                self.read += 1;
                Ok(*e)
            }
            Some(Packet::Mem(e)) => Err(self.stop(MismatchKind::LogKind {
                expected: e.kind.to_string(),
                actual: actual.to_string(),
            })),
            _ => Err(self.stop(MismatchKind::LogUnderrun)),
        }
    }

    /// Records `kind` and aborts the access.
    fn stop(&mut self, kind: MismatchKind) -> PortStop {
        self.mismatch = Some(kind);
        PortStop
    }

    fn check_addr_size(&mut self, entry: &LogEntry, addr: u64, size: u8) -> Result<(), PortStop> {
        if entry.addr != addr {
            return Err(self.stop(MismatchKind::LogAddr {
                expected: entry.addr,
                actual: addr,
            }));
        }
        if entry.size != size {
            return Err(self.stop(MismatchKind::LogKind {
                expected: format!("size {}", entry.size),
                actual: format!("size {size}"),
            }));
        }
        Ok(())
    }
}

impl DataPort for ReplayPort<'_> {
    fn read(&mut self, addr: u64, size: u8) -> Result<(u64, u64), PortStop> {
        let e = self.take_entry(&[LogKind::Load, LogKind::Lr], "load")?;
        self.check_addr_size(&e, addr, size)?;
        Ok((e.data, 0))
    }

    fn write(&mut self, addr: u64, value: u64, size: u8) -> Result<u64, PortStop> {
        let e = self.take_entry(&[LogKind::Store], "store")?;
        self.check_addr_size(&e, addr, size)?;
        if e.data != value {
            return Err(self.stop(MismatchKind::LogData {
                expected: e.data,
                actual: value,
            }));
        }
        Ok(0)
    }

    fn store_conditional(
        &mut self,
        addr: u64,
        value: u64,
        size: u8,
        _resv_valid: bool,
    ) -> Result<(bool, u64), PortStop> {
        let e = self.take_entry(&[LogKind::ScAddrData], "sc")?;
        self.check_addr_size(&e, addr, size)?;
        if e.data != value {
            return Err(self.stop(MismatchKind::LogData {
                expected: e.data,
                actual: value,
            }));
        }
        let r = self.take_entry(&[LogKind::ScResult], "sc.result")?;
        Ok((r.data != 0, 0))
    }

    fn amo(
        &mut self,
        addr: u64,
        width: AmoWidth,
        op: AmoOp,
        src: u64,
    ) -> Result<(u64, u64), PortStop> {
        let first = self.take_entry(&[LogKind::AmoAddrData], "amo")?;
        self.check_addr_size(&first, addr, width.size())?;
        let second = self.take_entry(&[LogKind::AmoLoad], "amo.load")?;
        let old = second.data;
        let size = width.size();
        let mask = if size == 8 {
            u64::MAX
        } else {
            (1u64 << (size * 8)) - 1
        };
        let stored = amo_apply(op, width, old, src) & mask;
        if stored != first.data {
            return Err(self.stop(MismatchKind::LogData {
                expected: first.data,
                actual: stored,
            }));
        }
        Ok((old, 0))
    }

    fn branch_outcome(&mut self, actual_next_pc: u64) -> Result<bool, PortStop> {
        // Only out-of-order mains pack Branch packets into their stream;
        // replaying an in-order main leaves this a no-hint no-op, so the
        // in-order datapath is bit-for-bit unchanged.
        match self.head() {
            Some(&Packet::Branch(expected)) => {
                self.read += 1;
                if expected == actual_next_pc {
                    Ok(true)
                } else {
                    Err(self.stop(MismatchKind::BranchOutcome {
                        expected,
                        actual: actual_next_pc,
                    }))
                }
            }
            _ => Ok(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fifo_with(entries: &[LogEntry]) -> BufferFifo {
        let mut f = BufferFifo::new(4096, 4);
        for &e in entries {
            f.push(Packet::Mem(e)).unwrap();
        }
        f
    }

    #[test]
    fn load_replays_logged_data() {
        let f = fifo_with(&[LogEntry {
            kind: LogKind::Load,
            addr: 0x100,
            size: 8,
            data: 77,
        }]);
        let mut p = ReplayPort::new(&f, 0);
        let (v, _) = p.read(0x100, 8).unwrap();
        assert_eq!(v, 77);
        assert!(p.mismatch.is_none());
    }

    #[test]
    fn port_reads_ahead_of_the_cursor() {
        let load = |data| LogEntry {
            kind: LogKind::Load,
            addr: 0x100,
            size: 8,
            data,
        };
        let f = fifo_with(&[load(1), load(2)]);
        let mut p = ReplayPort::new(&f, 0);
        assert_eq!(p.read(0x100, 8).unwrap().0, 1);
        assert_eq!(p.read(0x100, 8).unwrap().0, 2);
        assert_eq!(p.consumed(), 2);
        assert!(p.read(0x100, 8).is_err(), "nothing buffered past the reads");
        assert_eq!(p.mismatch, Some(MismatchKind::LogUnderrun));
        assert_eq!(p.consumed(), 2, "a failed read consumes nothing");
        assert_eq!(f.backlog(0), 2, "the port never moves the cursor");
    }

    #[test]
    fn load_address_mismatch_detected() {
        let f = fifo_with(&[LogEntry {
            kind: LogKind::Load,
            addr: 0x100,
            size: 8,
            data: 77,
        }]);
        let mut p = ReplayPort::new(&f, 0);
        assert!(p.read(0x108, 8).is_err());
        assert_eq!(
            p.mismatch,
            Some(MismatchKind::LogAddr {
                expected: 0x100,
                actual: 0x108
            })
        );
    }

    #[test]
    fn store_data_mismatch_detected() {
        let f = fifo_with(&[LogEntry {
            kind: LogKind::Store,
            addr: 0x40,
            size: 8,
            data: 5,
        }]);
        let mut p = ReplayPort::new(&f, 0);
        assert!(p.write(0x40, 6, 8).is_err());
        assert_eq!(
            p.mismatch,
            Some(MismatchKind::LogData {
                expected: 5,
                actual: 6
            })
        );
    }

    #[test]
    fn kind_mismatch_detected() {
        let f = fifo_with(&[LogEntry {
            kind: LogKind::Store,
            addr: 0x40,
            size: 8,
            data: 5,
        }]);
        let mut p = ReplayPort::new(&f, 0);
        assert!(p.read(0x40, 8).is_err());
        assert!(matches!(p.mismatch, Some(MismatchKind::LogKind { .. })));
    }

    #[test]
    fn underrun_detected_on_empty_stream() {
        let f = BufferFifo::new(4096, 4);
        let mut p = ReplayPort::new(&f, 0);
        assert!(p.read(0x40, 8).is_err());
        assert_eq!(p.mismatch, Some(MismatchKind::LogUnderrun));
    }

    #[test]
    fn sc_replays_logged_result() {
        let f = fifo_with(&[
            LogEntry {
                kind: LogKind::ScAddrData,
                addr: 0x80,
                size: 8,
                data: 9,
            },
            LogEntry {
                kind: LogKind::ScResult,
                addr: 0,
                size: 8,
                data: 0,
            },
        ]);
        let mut p = ReplayPort::new(&f, 0);
        let (ok, _) = p.store_conditional(0x80, 9, 8, true).unwrap();
        assert!(!ok, "replay must reproduce the main core's SC failure");
    }

    #[test]
    fn amo_verifies_stored_value() {
        // Main stored old=10 + src=5 = 15.
        let f = fifo_with(&[
            LogEntry {
                kind: LogKind::AmoAddrData,
                addr: 0x80,
                size: 8,
                data: 15,
            },
            LogEntry {
                kind: LogKind::AmoLoad,
                addr: 0,
                size: 8,
                data: 10,
            },
        ]);
        let mut p = ReplayPort::new(&f, 0);
        let (old, _) = p.amo(0x80, AmoWidth::D, AmoOp::Add, 5).unwrap();
        assert_eq!(old, 10);

        // Corrupted stored value: checker recomputes 15, log says 16.
        let f = fifo_with(&[
            LogEntry {
                kind: LogKind::AmoAddrData,
                addr: 0x80,
                size: 8,
                data: 16,
            },
            LogEntry {
                kind: LogKind::AmoLoad,
                addr: 0,
                size: 8,
                data: 10,
            },
        ]);
        let mut p = ReplayPort::new(&f, 0);
        assert!(p.amo(0x80, AmoWidth::D, AmoOp::Add, 5).is_err());
        assert_eq!(
            p.mismatch,
            Some(MismatchKind::LogData {
                expected: 16,
                actual: 15
            })
        );
    }

    #[test]
    fn checker_state_result_queue() {
        let mut c = CheckerState::new();
        c.finish_segment(SegmentResult {
            seq: 0,
            tag: 1,
            mismatch: None,
            at: 5,
        });
        c.finish_segment(SegmentResult {
            seq: 1,
            tag: 1,
            mismatch: Some(MismatchKind::LogUnderrun),
            at: 9,
        });
        assert_eq!(c.segments_checked, 2);
        assert_eq!(c.segments_failed, 1);
        assert_eq!(c.take_result().unwrap().seq, 0);
        assert_eq!(c.take_result().unwrap().seq, 1);
        assert!(c.take_result().is_none());
    }
}
