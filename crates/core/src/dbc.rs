//! Data Buffering and Channelling units (Fig. 2.c).
//!
//! Each core owns a [`BufferFifo`] — the SRAM FIFO that buffers a main
//! core's outgoing checking-segment data. The System Interconnect
//! (a MUX/DEMUX network controlled by the global configuration register)
//! routes a main core's FIFO to one or more checker cores: the FIFO
//! therefore supports *multiple consumers with independent cursors*, and a
//! packet's storage is only reclaimed once every consumer has passed it.
//! This is what makes triple-core mode (1 : 2) slightly slower than
//! dual-core mode in Fig. 6 — the slower checker gates reclamation and
//! back-pressures the main core sooner.
//!
//! The FIFO queues [`Packet`]s as they are, checkpoints in the `Box` each
//! SCP/ECP packet carries; readers borrow `&Packet` in place, and only
//! the fault injectors get `&mut Packet`.

use crate::packet::{hash_mix, hash_snapshot, Checkpoint, Packet, HASH_SEED};
use std::collections::VecDeque;
use std::fmt;

/// Domain separators mixed into the segment fingerprint ahead of each
/// packet's payload, so streams that differ only in packet framing (e.g.
/// an `InstCount(3)` vs a Mem entry whose fields happen to collide) hash
/// differently.
const HASH_TAG_SCP: u64 = 0x53;
const HASH_TAG_MEM: u64 = 0x4d;
const HASH_TAG_BRANCH: u64 = 0x42;
const HASH_TAG_COUNT: u64 = 0x49;
const HASH_TAG_ECP: u64 = 0x45;

/// Error returned when a push would exceed the FIFO capacity.
///
/// Entry-class packets need `needed` bytes of DBC SRAM; checkpoint
/// packets need `needed_slots` ASS slots — the rejected push reports the
/// class it actually failed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoFull {
    /// Entry bytes the rejected push needed (0 for pure checkpoints).
    pub needed: usize,
    /// Entry bytes currently free.
    pub free: usize,
    /// Checkpoint slots the rejected push needed (0 for pure entries).
    pub needed_slots: usize,
    /// Checkpoint slots currently free.
    pub free_slots: usize,
}

impl fmt::Display for FifoFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fifo full: need {} bytes + {} slots, {} bytes + {} slots free",
            self.needed, self.needed_slots, self.free, self.free_slots
        )
    }
}

impl std::error::Error for FifoFull {}

/// An SRAM data-buffer FIFO with independent consumer cursors.
///
/// Capacity is accounted per packet class, mirroring the paper's storage
/// split: log entries and instruction counts occupy the DBC SRAM
/// (`entry_capacity` bytes, 1 088 B in Tab. III), while SCP/ECP
/// checkpoints stage through the ASS and are limited by *slots*
/// (`checkpoint_slots`, double-buffered per §III-A). Optionally, overflow
/// spills to main memory via DMA (§III-C), making pushes unbounded but
/// tracked for cost accounting.
#[derive(Debug, Clone)]
pub struct BufferFifo {
    entry_capacity: usize,
    checkpoint_slots: usize,
    spill: bool,
    /// Packets not yet consumed by *all* consumers, oldest first.
    queue: VecDeque<Packet>,
    /// Absolute sequence number of `queue[0]`.
    head_seq: u64,
    /// Running fingerprint of the currently-open segment (everything
    /// pushed since the last ECP), folded in at push time.
    seg_hash: u64,
    /// Set when an in-flight packet of the open segment was mutated
    /// (fault injection): the open fingerprint no longer describes the
    /// buffered bytes and finalises to `None`.
    seg_hash_poisoned: bool,
    /// Finalised fingerprints of complete buffered segments, oldest
    /// first; `None` marks a segment whose buffered packets were mutated
    /// after hashing. Front entry describes ECP number `seg_hash_head`.
    seg_hashes: VecDeque<Option<u64>>,
    /// Absolute ECP number of `seg_hashes[0]`.
    seg_hash_head: u64,
    /// Absolute position of each consumer (next packet to read).
    cursors: Vec<u64>,
    /// Number of cursors currently equal to `head_seq`. Storage reclaim
    /// only needs a cursor scan when this count drops to zero — i.e.
    /// when the *minimum* cursor actually moves.
    at_min: usize,
    /// Entry-class bytes held by `queue`.
    used: usize,
    /// Checkpoint packets held by `queue`.
    checkpoints: usize,
    /// High-water mark of entry bytes, for experiments.
    peak_used: usize,
    /// Packets pushed beyond SRAM capacity (DMA spill traffic).
    spilled: u64,
    /// Total packets ever pushed.
    pushed: u64,
    /// ECP packets ever pushed (complete-segment tracking).
    ecps_pushed: u64,
    /// ECP packets consumed, per consumer.
    ecps_consumed: Vec<u64>,
}

impl BufferFifo {
    /// Creates a FIFO with the given entry-byte capacity, checkpoint
    /// slots, and one consumer.
    pub fn new(entry_capacity: usize, checkpoint_slots: usize) -> Self {
        BufferFifo {
            entry_capacity,
            checkpoint_slots,
            spill: false,
            queue: VecDeque::new(),
            head_seq: 0,
            seg_hash: HASH_SEED,
            seg_hash_poisoned: false,
            seg_hashes: VecDeque::new(),
            seg_hash_head: 0,
            cursors: vec![0],
            at_min: 1,
            used: 0,
            checkpoints: 0,
            peak_used: 0,
            spilled: 0,
            pushed: 0,
            ecps_pushed: 0,
            ecps_consumed: vec![0],
        }
    }

    /// Enables or disables DMA spill to main memory: when enabled, pushes
    /// never fail, and packets beyond SRAM capacity are counted in
    /// [`BufferFifo::spilled_packets`] as DMA spill traffic.
    pub fn set_spill(&mut self, spill: bool) {
        self.spill = spill;
    }

    /// Packets pushed while the SRAM was full (went through DMA spill).
    pub fn spilled_packets(&self) -> u64 {
        self.spilled
    }

    /// Reconfigures the number of consumers (1 for DCLS-like, 2 for
    /// TCLS-like channels). Resets cursors; only valid on an empty FIFO.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is not empty — the interconnect may only be
    /// reconfigured between segments.
    pub fn set_consumers(&mut self, n: usize) {
        assert!(self.queue.is_empty(), "cannot re-channel a non-empty FIFO");
        assert!(n >= 1, "at least one consumer required");
        self.cursors = vec![self.head_seq; n];
        self.at_min = n;
        self.ecps_consumed = vec![self.ecps_pushed; n];
        debug_assert!(
            self.seg_hashes.is_empty(),
            "empty FIFO cannot hold banked fingerprints"
        );
        self.seg_hash_head = self.ecps_pushed;
    }

    /// Number of consumers.
    pub fn consumers(&self) -> usize {
        self.cursors.len()
    }

    /// Entry-class bytes currently buffered (not yet consumed by all
    /// consumers).
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Checkpoints currently in flight.
    pub fn checkpoints_in_flight(&self) -> usize {
        self.checkpoints
    }

    /// Highest entry-byte usage observed.
    pub fn peak_used_bytes(&self) -> usize {
        self.peak_used
    }

    /// Total packets pushed over the FIFO's lifetime.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Whether `entry_bytes` more entry bytes and `cps` more checkpoints
    /// would fit right now (always `true` with spill enabled).
    #[inline]
    pub fn can_accept(&self, entry_bytes: usize, cps: usize) -> bool {
        self.spill
            || (self.used + entry_bytes <= self.entry_capacity
                && self.checkpoints + cps <= self.checkpoint_slots)
    }

    /// Storage cost of a packet: `(entry bytes, checkpoint slots)`.
    #[inline]
    fn cost(packet: &Packet) -> (usize, usize) {
        if packet.is_checkpoint() {
            (0, 1)
        } else {
            (packet.bytes(), 0)
        }
    }

    fn full_error(&self, needed: usize, needed_slots: usize) -> FifoFull {
        FifoFull {
            needed,
            free: self.entry_capacity.saturating_sub(self.used),
            needed_slots,
            free_slots: self.checkpoint_slots.saturating_sub(self.checkpoints),
        }
    }

    /// Accounting, fingerprint fold and enqueue for a packet whose
    /// capacity was already checked (or that spills).
    ///
    /// Each packet folds a domain tag and then its payload into the open
    /// segment's fingerprint — a checkpoint its architectural state, not
    /// `seq` or `tag`. An ECP *finalises* the fingerprint: the running
    /// hash (now covering SCP payload, every entry, the count and the ECP
    /// payload) is banked in [`BufferFifo::seg_hashes`] — or `None` if an
    /// in-flight mutation poisoned it — and reset for the next segment.
    #[inline]
    fn push_unchecked(&mut self, packet: Packet, entry_bytes: usize, cps: usize) {
        if self.used + entry_bytes > self.entry_capacity
            || self.checkpoints + cps > self.checkpoint_slots
        {
            self.spilled += 1;
        }
        self.used += entry_bytes;
        self.checkpoints += cps;
        self.peak_used = self.peak_used.max(self.used);
        self.pushed += 1;
        let h = self.seg_hash;
        self.seg_hash = match &packet {
            Packet::Scp(cp) => hash_snapshot(hash_mix(h, HASH_TAG_SCP), &cp.snapshot),
            Packet::Mem(e) => {
                let h = hash_mix(h, HASH_TAG_MEM);
                let h = hash_mix(h, ((e.kind as u64) << 8) | u64::from(e.size));
                hash_mix(hash_mix(h, e.addr), e.data)
            }
            Packet::Branch(pc) => hash_mix(hash_mix(h, HASH_TAG_BRANCH), *pc),
            Packet::InstCount(v) => hash_mix(hash_mix(h, HASH_TAG_COUNT), *v),
            Packet::Ecp(cp) => hash_snapshot(hash_mix(h, HASH_TAG_ECP), &cp.snapshot),
        };
        if matches!(packet, Packet::Ecp(_)) {
            let finalised = (!self.seg_hash_poisoned).then_some(self.seg_hash);
            self.seg_hashes.push_back(finalised);
            self.seg_hash = HASH_SEED;
            self.seg_hash_poisoned = false;
            self.ecps_pushed += 1;
        }
        self.queue.push_back(packet);
    }

    /// Pushes a packet.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFull`] when the packet does not fit; the producer
    /// (main core) must stall — this is the backpressure path. With spill
    /// enabled, never fails.
    pub fn push(&mut self, packet: Packet) -> Result<(), FifoFull> {
        let (entry_bytes, cps) = Self::cost(&packet);
        if !self.can_accept(entry_bytes, cps) {
            return Err(self.full_error(entry_bytes, cps));
        }
        self.push_unchecked(packet, entry_bytes, cps);
        Ok(())
    }

    /// Pushes a burst of packets under a *single* capacity check: either
    /// the whole burst fits (or spills) and is enqueued in order, or
    /// nothing is enqueued. This is the producer half of the
    /// segment-granular datapath — the engine pushes a retire's log
    /// entries as one burst. Packets are cloned in.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFull`] with the burst's aggregate byte/slot need
    /// when it does not fit; with spill enabled, never fails.
    pub fn push_burst(&mut self, packets: &[Packet]) -> Result<(), FifoFull> {
        let mut total_bytes = 0;
        let mut total_cps = 0;
        for p in packets {
            let (b, c) = Self::cost(p);
            total_bytes += b;
            total_cps += c;
        }
        if !self.can_accept(total_bytes, total_cps) {
            return Err(self.full_error(total_bytes, total_cps));
        }
        self.queue.reserve(packets.len());
        for p in packets {
            let (b, c) = Self::cost(p);
            self.push_unchecked(p.clone(), b, c);
        }
        Ok(())
    }

    /// Pushes a segment-opening SCP, boxing the checkpoint — the
    /// engine's segment-open path.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFull`] when no checkpoint slot is free; with spill
    /// enabled, never fails.
    pub fn push_scp(&mut self, cp: Checkpoint) -> Result<(), FifoFull> {
        if !self.can_accept(0, 1) {
            return Err(self.full_error(0, 1));
        }
        self.push_unchecked(Packet::scp(cp), 0, 1);
        Ok(())
    }

    /// Pushes a segment-closing `InstCount` + ECP pair under a single
    /// capacity check (all-or-nothing, like [`BufferFifo::push_burst`]),
    /// boxing the checkpoint — the engine's segment-close path.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFull`] with the pair's aggregate need when it does
    /// not fit; with spill enabled, never fails.
    pub fn push_count_ecp(&mut self, count: u64, cp: Checkpoint) -> Result<(), FifoFull> {
        if !self.can_accept(8, 1) {
            return Err(self.full_error(8, 1));
        }
        self.push_unchecked(Packet::InstCount(count), 8, 0);
        self.push_unchecked(Packet::ecp(cp), 0, 1);
        Ok(())
    }

    /// Peeks the next packet for `consumer` without consuming it.
    ///
    /// # Panics
    ///
    /// Panics if `consumer` is out of range.
    #[inline]
    pub fn peek(&self, consumer: usize) -> Option<&Packet> {
        self.peek_ahead(consumer, 0)
    }

    /// Peeks the packet `offset` positions past `consumer`'s cursor
    /// without consuming anything — replay reads ahead of the cursor and
    /// commits what it read with [`BufferFifo::advance_in_segment`].
    ///
    /// # Panics
    ///
    /// Panics if `consumer` is out of range.
    #[inline]
    pub(crate) fn peek_ahead(&self, consumer: usize, offset: usize) -> Option<&Packet> {
        let idx = (self.cursors[consumer] - self.head_seq) as usize + offset;
        self.queue.get(idx)
    }

    /// Consumes the next packet for `consumer` *without returning it* —
    /// the companion of [`BufferFifo::peek`]: the replay path reads the
    /// packet in place and then advances, never cloning it out.
    ///
    /// Returns `false` if the consumer has no packet ahead.
    ///
    /// # Panics
    ///
    /// Panics if `consumer` is out of range.
    #[inline]
    pub fn advance(&mut self, consumer: usize) -> bool {
        let pos = self.cursors[consumer];
        let idx = (pos - self.head_seq) as usize;
        let is_ecp = match self.queue.get(idx) {
            Some(p) => matches!(p, Packet::Ecp(_)),
            None => return false,
        };
        self.cursors[consumer] = pos + 1;
        if is_ecp {
            self.ecps_consumed[consumer] += 1;
        }
        self.note_min_leave(pos);
        true
    }

    /// Consumes the next packet for `consumer`. Storage is reclaimed once
    /// the slowest consumer passes the packet.
    ///
    /// # Panics
    ///
    /// Panics if `consumer` is out of range.
    #[inline]
    pub fn pop(&mut self, consumer: usize) -> Option<Packet> {
        if self.cursors.len() == 1 && self.cursors[0] == self.head_seq {
            // Single consumer at the head: the packet is reclaimed the
            // moment it is consumed — pop the queue directly.
            let packet = self.queue.pop_front()?;
            self.cursors[0] += 1;
            self.head_seq += 1;
            let (entry_bytes, cps) = Self::cost(&packet);
            self.used -= entry_bytes;
            self.checkpoints -= cps;
            if matches!(packet, Packet::Ecp(_)) {
                self.ecps_consumed[0] += 1;
                self.gc_seg_hashes();
            }
            return Some(packet);
        }
        let packet = self.peek(consumer)?.clone();
        self.advance(consumer);
        Some(packet)
    }

    /// Bookkeeping after `consumer` moved off position `pos`: reclaims
    /// storage only when the minimum cursor actually moved.
    #[inline]
    fn note_min_leave(&mut self, pos: u64) {
        if pos == self.head_seq {
            self.at_min -= 1;
            if self.at_min == 0 {
                self.reclaim();
            }
        }
    }

    /// Length (in packets, ECPs included) of the next *complete* segment
    /// ahead of `consumer`, or `None` when no complete segment is
    /// buffered.
    fn segment_len_ahead(&self, consumer: usize) -> Option<usize> {
        if self.complete_segments_ahead(consumer) == 0 {
            return None;
        }
        let idx = (self.cursors[consumer] - self.head_seq) as usize;
        let len = self
            .queue
            .iter()
            .skip(idx)
            .position(|p| matches!(p, Packet::Ecp(_)))
            .expect("a complete segment must end in an ECP")
            + 1;
        Some(len)
    }

    /// Consumes `consumer`'s next `n` packets, none of them an ECP, in
    /// one cursor move with a single reclaim pass — the commit of a
    /// replay's read-ahead and of a served memo hit. The end state is
    /// that of `n` calls of [`BufferFifo::advance`].
    ///
    /// # Panics
    ///
    /// Panics if `consumer` is out of range; debug builds also panic if
    /// fewer than `n` packets are ahead or one of them is an ECP.
    pub(crate) fn advance_in_segment(&mut self, consumer: usize, n: usize) {
        if n == 0 {
            return;
        }
        debug_assert!(n <= self.backlog(consumer), "advance past the stream");
        debug_assert!(
            (0..n).all(|i| !matches!(self.peek_ahead(consumer, i), Some(Packet::Ecp(_)))),
            "an in-segment advance never crosses an ECP"
        );
        self.advance_n(consumer, n, 0);
    }

    /// Advances `consumer` by `n ≥ 1` packets of which `ecps` are ECPs,
    /// with a single reclaim pass.
    fn advance_n(&mut self, consumer: usize, n: usize, ecps: u64) {
        let pos = self.cursors[consumer];
        self.cursors[consumer] = pos + n as u64;
        self.ecps_consumed[consumer] += ecps;
        self.note_min_leave(pos);
    }

    /// Hands `consumer` its next complete segment (through the ECP) in
    /// one call: packets are appended to `out` in stream order, the
    /// cursor advances past the segment, and storage is reclaimed once —
    /// the consumer half of the segment-granular datapath. Returns the
    /// number of packets transferred, or `None` when no complete segment
    /// is buffered.
    ///
    /// End state (cursor, ECP accounting, reclaim) is byte-for-byte
    /// identical to popping the same packets one at a time.
    ///
    /// # Panics
    ///
    /// Panics if `consumer` is out of range.
    pub fn drain_segment_into(&mut self, consumer: usize, out: &mut Vec<Packet>) -> Option<usize> {
        let len = self.segment_len_ahead(consumer)?;
        let idx = (self.cursors[consumer] - self.head_seq) as usize;
        out.extend(self.queue.iter().skip(idx).take(len).cloned());
        self.advance_n(consumer, len, 1);
        Some(len)
    }

    /// [`BufferFifo::drain_segment_into`], allocating the output vector.
    ///
    /// # Panics
    ///
    /// Panics if `consumer` is out of range.
    pub fn drain_segment(&mut self, consumer: usize) -> Option<Vec<Packet>> {
        let mut out = Vec::new();
        self.drain_segment_into(consumer, &mut out)?;
        Some(out)
    }

    /// Skips `consumer` past its next complete segment without copying
    /// any packet out — segment-granular resynchronisation after an
    /// aborted replay. Returns the number of packets skipped, or `None`
    /// when no complete segment is buffered.
    ///
    /// # Panics
    ///
    /// Panics if `consumer` is out of range.
    pub fn skip_segment(&mut self, consumer: usize) -> Option<usize> {
        let len = self.segment_len_ahead(consumer)?;
        self.advance_n(consumer, len, 1);
        Some(len)
    }

    /// Number of *complete* segments (terminated by an ECP) ahead of
    /// `consumer`. The checker starts replaying a segment only when it is
    /// fully buffered (the IC bounds the replay and no mid-segment stall
    /// can occur) — the Paramedic-style consumption model the paper's
    /// asynchronous checking builds on.
    ///
    /// # Panics
    ///
    /// Panics if `consumer` is out of range.
    #[inline]
    pub fn complete_segments_ahead(&self, consumer: usize) -> u64 {
        self.ecps_pushed - self.ecps_consumed[consumer]
    }

    /// Fingerprint of the next *complete* segment ahead of `consumer`:
    /// the running hash folded over the segment's SCP payload, every log
    /// entry, the instruction count and the ECP payload at push time
    /// (checkpoint `seq`/`tag` excluded — they differ on every segment).
    ///
    /// `None` when the segment ahead is still open (its ECP has not been
    /// pushed) or when its fingerprint was poisoned by an in-flight
    /// mutation (`BufferFifo::packet_mut`) — both cases mean the
    /// verdict memo must fall back to full replay.
    ///
    /// # Panics
    ///
    /// Panics if `consumer` is out of range.
    #[inline]
    pub fn next_segment_hash(&self, consumer: usize) -> Option<u64> {
        let idx = self.ecps_consumed[consumer].checked_sub(self.seg_hash_head)?;
        self.seg_hashes.get(idx as usize).copied().flatten()
    }

    /// Number of packets still ahead of `consumer`.
    ///
    /// # Panics
    ///
    /// Panics if `consumer` is out of range.
    #[inline]
    pub fn backlog(&self, consumer: usize) -> usize {
        let pos = self.cursors[consumer];
        self.queue.len() - (pos - self.head_seq) as usize
    }

    /// Reclaims storage up to the minimum cursor. Only called when the
    /// minimum provably moved ([`BufferFifo::note_min_leave`]), so the
    /// cursor scan is amortised over the min's progress instead of
    /// running on every pop.
    fn reclaim(&mut self) {
        let min_pos = *self.cursors.iter().min().expect("at least one consumer");
        while self.head_seq < min_pos {
            let packet = self.queue.pop_front().expect("cursor past queue head");
            let (entry_bytes, cps) = Self::cost(&packet);
            self.used -= entry_bytes;
            self.checkpoints -= cps;
            self.head_seq += 1;
        }
        self.at_min = self.cursors.iter().filter(|&&c| c == min_pos).count();
        self.gc_seg_hashes();
    }

    /// Drops banked segment fingerprints every consumer has moved past —
    /// they can no longer be looked up, exactly like packet storage
    /// behind the minimum cursor.
    fn gc_seg_hashes(&mut self) {
        let min_ecp = *self.ecps_consumed.iter().min().expect("consumer");
        while self.seg_hash_head < min_ecp {
            self.seg_hashes.pop_front();
            self.seg_hash_head += 1;
        }
    }

    /// Drops all buffered packets and realigns cursors (used when the OS
    /// tears down an association).
    pub fn reset(&mut self) {
        let dropped = self.queue.len() as u64;
        self.queue.clear();
        self.seg_hashes.clear();
        self.seg_hash_head = self.ecps_pushed;
        self.seg_hash = HASH_SEED;
        self.seg_hash_poisoned = false;
        self.used = 0;
        self.checkpoints = 0;
        let max = *self.cursors.iter().max().unwrap_or(&0);
        let base = max.max(self.head_seq).max(self.head_seq + dropped);
        self.head_seq = base;
        for c in &mut self.cursors {
            *c = base;
        }
        self.at_min = self.cursors.len();
        for e in &mut self.ecps_consumed {
            *e = self.ecps_pushed;
        }
    }

    /// A buffered packet by queue index (fault-injection candidate
    /// scans).
    pub(crate) fn packet_at(&self, idx: usize) -> Option<&Packet> {
        self.queue.get(idx)
    }

    /// Mutable access to a buffered packet by queue index (fault
    /// injection into in-flight data).
    ///
    /// Handing out the packet *poisons every buffered segment
    /// fingerprint* (banked and open): a mutated stream no longer matches
    /// the hash computed at push time, and a poisoned fingerprint can
    /// never be looked up in — or inserted into — the verdict memo, so a
    /// faulted stream is structurally incapable of being served from
    /// cache.
    pub(crate) fn packet_mut(&mut self, idx: usize) -> Option<&mut Packet> {
        if idx >= self.queue.len() {
            return None;
        }
        for banked in &mut self.seg_hashes {
            *banked = None;
        }
        // The open segment's running hash is only tainted when the
        // mutated packet sits past the last buffered ECP, i.e. belongs to
        // the segment still being produced.
        if !self
            .queue
            .iter()
            .skip(idx)
            .any(|p| matches!(p, Packet::Ecp(_)))
        {
            self.seg_hash_poisoned = true;
        }
        self.queue.get_mut(idx)
    }

    /// Number of packets currently buffered.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no packets are buffered.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{LogEntry, LogKind};
    use flexstep_sim::ArchState;

    fn entry(data: u64) -> Packet {
        Packet::Mem(LogEntry {
            kind: LogKind::Load,
            addr: 0x100,
            size: 8,
            data,
        })
    }

    #[test]
    fn fifo_orders_packets() {
        let mut f = BufferFifo::new(1024, 4);
        f.push(entry(1)).unwrap();
        f.push(entry(2)).unwrap();
        assert_eq!(f.pop(0), Some(entry(1)));
        assert_eq!(f.pop(0), Some(entry(2)));
        assert_eq!(f.pop(0), None);
    }

    #[test]
    fn capacity_enforced_and_reported() {
        let mut f = BufferFifo::new(40, 2); // fits two 16-byte entries
        f.push(entry(1)).unwrap();
        f.push(entry(2)).unwrap();
        let err = f.push(entry(3)).unwrap_err();
        assert_eq!(
            err,
            FifoFull {
                needed: 16,
                free: 8,
                needed_slots: 0,
                free_slots: 2,
            }
        );
        f.pop(0);
        assert!(f.push(entry(3)).is_ok());
    }

    #[test]
    fn rejected_checkpoint_reports_slot_need() {
        let cp = |n: u64| {
            Packet::scp(Checkpoint {
                snapshot: ArchState::new(n).snapshot(),
                seq: n,
                tag: 0,
            })
        };
        let mut f = BufferFifo::new(1024, 1);
        f.push(cp(0)).unwrap();
        let err = f.push(cp(1)).unwrap_err();
        assert_eq!(
            err,
            FifoFull {
                needed: 0,
                free: 1024,
                needed_slots: 1,
                free_slots: 0,
            },
            "a checkpoint reject is a slot shortage, not a byte shortage"
        );
    }

    #[test]
    fn push_burst_is_all_or_nothing() {
        let mut f = BufferFifo::new(40, 2); // fits two 16-byte entries
        f.push(entry(0)).unwrap();
        let err = f.push_burst(&[entry(1), entry(2)]).unwrap_err();
        assert_eq!(err.needed, 32, "burst reports aggregate need");
        assert_eq!(f.len(), 1, "failed burst enqueues nothing");
        f.push_burst(&[entry(1)]).unwrap();
        assert_eq!(f.pop(0), Some(entry(0)));
        assert_eq!(f.pop(0), Some(entry(1)));
    }

    #[test]
    fn borrowed_burst_matches_owned_pushes() {
        // Owned packets pushed one by one and the same packets pushed as
        // one borrowed burst come out alike, checkpoint boxes included.
        let cp = Packet::ecp(Checkpoint {
            snapshot: ArchState::new(3).snapshot(),
            seq: 0,
            tag: 0,
        });
        let mut borrowed = BufferFifo::new(64, 2);
        borrowed
            .push_burst(&[Packet::InstCount(2), cp.clone()])
            .unwrap();
        let mut owned = BufferFifo::new(64, 2);
        owned.push(Packet::InstCount(2)).unwrap();
        owned.push(cp.clone()).unwrap();
        assert_eq!(borrowed.next_segment_hash(0), owned.next_segment_hash(0));
        for c in [&mut borrowed, &mut owned] {
            assert_eq!(c.pop(0), Some(Packet::InstCount(2)));
            assert_eq!(c.pop(0), Some(cp.clone()));
        }
        // A burst that does not fit is refused whole.
        let mut tight = BufferFifo::new(24, 2);
        let err = tight.push_burst(&[entry(1), entry(2)]).unwrap_err();
        assert_eq!(err.needed, 32, "burst reports aggregate need");
        assert_eq!(tight.len(), 0, "failed burst enqueues nothing");
    }

    #[test]
    fn refused_count_ecp_enqueues_nothing() {
        let cp = |n: u64| Checkpoint {
            snapshot: ArchState::new(n).snapshot(),
            seq: n,
            tag: 0,
        };
        let mut f = BufferFifo::new(64, 1);
        f.push_scp(cp(0)).unwrap();
        f.push(entry(1)).unwrap();
        let err = f.push_count_ecp(1, cp(0)).unwrap_err();
        assert_eq!(
            err,
            FifoFull {
                needed: 8,
                free: 48,
                needed_slots: 1,
                free_slots: 0,
            },
            "the pair reports its aggregate need"
        );
        assert_eq!(f.len(), 2, "neither the count nor the ECP went in");
        assert_eq!(f.used_bytes(), 16);
        assert_eq!(f.checkpoints_in_flight(), 1);
        assert_eq!(f.total_pushed(), 2);
        assert_eq!(f.complete_segments_ahead(0), 0);
        assert_eq!(f.next_segment_hash(0), None);
    }

    #[test]
    fn advance_consumes_without_copying_out() {
        let mut f = BufferFifo::new(64, 2);
        f.push(entry(1)).unwrap();
        f.push(entry(2)).unwrap();
        assert!(f.advance(0));
        assert_eq!(f.peek(0), Some(&entry(2)));
        assert_eq!(f.used_bytes(), 16, "advanced packet was reclaimed");
        assert!(f.advance(0));
        assert!(!f.advance(0), "nothing left");
        assert!(f.is_empty());
    }

    #[test]
    fn bulk_advance_matches_single_advances() {
        // Two consumers, the slower one crossing the reclaim point
        // mid-batch: one cursor move must leave the FIFO exactly as the
        // equivalent run of single advances does.
        let mut single = BufferFifo::new(4096, 4);
        single.set_consumers(2);
        for d in 0..6 {
            single.push(entry(d)).unwrap();
        }
        single.advance(0);
        let mut bulk = single.clone();
        for _ in 0..4 {
            single.advance(1);
        }
        bulk.advance_in_segment(1, 4);
        for f in [&single, &bulk] {
            assert_eq!(f.peek_ahead(1, 0), Some(&entry(4)));
        }
        assert_eq!(single.len(), bulk.len(), "same storage reclaimed");
        assert_eq!(single.used_bytes(), bulk.used_bytes());
        assert_eq!(single.at_min, bulk.at_min);
        assert_eq!(single.cursors, bulk.cursors);
        // Reads ahead of the cursor consume nothing.
        assert_eq!(bulk.peek_ahead(0, 1), Some(&entry(2)));
        assert_eq!(bulk.backlog(0), 5);
        bulk.advance_in_segment(0, 0);
        assert_eq!(bulk.backlog(0), 5, "an empty commit is a no-op");
    }

    #[test]
    fn drain_segment_hands_whole_segment() {
        let snap = ArchState::new(0).snapshot();
        let scp = Packet::scp(Checkpoint {
            snapshot: snap,
            seq: 0,
            tag: 0,
        });
        let ecp = Packet::ecp(Checkpoint {
            snapshot: snap,
            seq: 0,
            tag: 0,
        });
        let mut f = BufferFifo::new(4096, 4);
        f.push_burst(&[scp.clone(), entry(1), entry(2), Packet::InstCount(2)])
            .unwrap();
        assert_eq!(f.drain_segment(0), None, "segment still open");
        f.push(ecp.clone()).unwrap();
        // The ECP completes it — now the whole segment comes out at once.
        let seg = {
            let mut f2 = f.clone();
            f2.push(entry(9)).unwrap(); // next segment's first packet
            f2.drain_segment(0).unwrap()
        };
        assert_eq!(seg.len(), 5);
        assert_eq!(seg[0], scp);
        assert_eq!(seg[4], ecp);
        // skip_segment reaches the same cursor/reclaim state.
        let mut f3 = f.clone();
        f3.push(entry(9)).unwrap();
        assert_eq!(f3.skip_segment(0), Some(5));
        assert_eq!(f3.peek(0), Some(&entry(9)));
        assert_eq!(f3.len(), 1, "segment storage reclaimed in one pass");
        assert_eq!(f3.complete_segments_ahead(0), 0);
    }

    #[test]
    fn two_consumers_share_storage() {
        let mut f = BufferFifo::new(64, 2);
        f.set_consumers(2);
        f.push(entry(1)).unwrap();
        f.push(entry(2)).unwrap();
        // Consumer 0 reads both; storage is NOT reclaimed yet.
        assert_eq!(f.pop(0), Some(entry(1)));
        assert_eq!(f.pop(0), Some(entry(2)));
        assert_eq!(f.used_bytes(), 32, "slow consumer still holds the data");
        assert!(!f.can_accept(64, 0));
        // Consumer 1 catches up; storage frees.
        assert_eq!(f.pop(1), Some(entry(1)));
        assert_eq!(f.used_bytes(), 16);
        assert_eq!(f.pop(1), Some(entry(2)));
        assert_eq!(f.used_bytes(), 0);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut f = BufferFifo::new(64, 2);
        f.push(entry(9)).unwrap();
        assert_eq!(f.peek(0), Some(&entry(9)));
        assert_eq!(f.peek(0), Some(&entry(9)));
        assert_eq!(f.backlog(0), 1);
        f.pop(0);
        assert!(f.peek(0).is_none());
        assert_eq!(f.backlog(0), 0);
    }

    #[test]
    fn peak_usage_tracked() {
        let mut f = BufferFifo::new(64, 2);
        f.push(entry(1)).unwrap();
        f.push(entry(2)).unwrap();
        f.pop(0);
        f.pop(0);
        assert_eq!(f.used_bytes(), 0);
        assert_eq!(f.peak_used_bytes(), 32);
        assert_eq!(f.total_pushed(), 2);
    }

    #[test]
    fn reset_realigns_all_cursors() {
        let mut f = BufferFifo::new(128, 2);
        f.set_consumers(2);
        f.push(entry(1)).unwrap();
        f.push(entry(2)).unwrap();
        f.pop(0);
        f.reset();
        assert!(f.is_empty());
        assert_eq!(f.used_bytes(), 0);
        f.push(entry(3)).unwrap();
        assert_eq!(f.pop(0), Some(entry(3)));
        assert_eq!(f.pop(1), Some(entry(3)));
    }

    #[test]
    #[should_panic(expected = "cannot re-channel")]
    fn rechannel_requires_empty() {
        let mut f = BufferFifo::new(64, 2);
        f.push(entry(1)).unwrap();
        f.set_consumers(2);
    }

    /// Pushes one complete segment `[SCP, entry(d1), entry(d2), IC, ECP]`
    /// built from `hart`'s reset state, with checkpoint bookkeeping
    /// `seq`/`tag`.
    fn push_segment(f: &mut BufferFifo, hart: u64, d: [u64; 2], seq: u64, tag: u64) {
        let snap = ArchState::new(hart).snapshot();
        f.push(Packet::scp(Checkpoint {
            snapshot: snap,
            seq,
            tag,
        }))
        .unwrap();
        f.push(entry(d[0])).unwrap();
        f.push(entry(d[1])).unwrap();
        f.push_burst(&[
            Packet::InstCount(2),
            Packet::ecp(Checkpoint {
                snapshot: snap,
                seq,
                tag,
            }),
        ])
        .unwrap();
    }

    #[test]
    fn identical_streams_fingerprint_identically_despite_seq_and_tag() {
        let mut f = BufferFifo::new(4096, 8);
        f.set_spill(true);
        // Same architectural content, different seq/tag bookkeeping.
        push_segment(&mut f, 1, [10, 20], 0, 7);
        push_segment(&mut f, 1, [10, 20], 1, 8);
        // Different content.
        push_segment(&mut f, 1, [10, 21], 2, 7);
        let h0 = f.next_segment_hash(0).expect("complete segment");
        f.skip_segment(0).unwrap();
        let h1 = f.next_segment_hash(0).expect("complete segment");
        f.skip_segment(0).unwrap();
        let h2 = f.next_segment_hash(0).expect("complete segment");
        assert_eq!(h0, h1, "seq/tag must not perturb the fingerprint");
        assert_ne!(h0, h2, "a one-bit data change must perturb it");
    }

    #[test]
    fn open_segment_has_no_fingerprint_yet() {
        let snap = ArchState::new(0).snapshot();
        let mut f = BufferFifo::new(4096, 8);
        f.push(Packet::scp(Checkpoint {
            snapshot: snap,
            seq: 0,
            tag: 0,
        }))
        .unwrap();
        f.push(entry(1)).unwrap();
        assert_eq!(f.next_segment_hash(0), None, "no ECP pushed yet");
        f.push_burst(&[
            Packet::InstCount(1),
            Packet::ecp(Checkpoint {
                snapshot: snap,
                seq: 0,
                tag: 0,
            }),
        ])
        .unwrap();
        assert!(f.next_segment_hash(0).is_some());
    }

    #[test]
    fn direct_push_apis_match_the_packet_path_bit_for_bit() {
        let snap = ArchState::new(3).snapshot();
        let scp = Checkpoint {
            snapshot: snap,
            seq: 5,
            tag: 1,
        };
        let ecp = Checkpoint {
            snapshot: snap,
            seq: 5,
            tag: 1,
        };
        let mut boxed = BufferFifo::new(4096, 8);
        boxed.push(Packet::scp(scp)).unwrap();
        boxed.push(entry(9)).unwrap();
        boxed
            .push_burst(&[Packet::InstCount(1), Packet::ecp(ecp)])
            .unwrap();
        let mut direct = BufferFifo::new(4096, 8);
        direct.push_scp(scp).unwrap();
        direct.push(entry(9)).unwrap();
        direct.push_count_ecp(1, ecp).unwrap();
        assert_eq!(direct.next_segment_hash(0), boxed.next_segment_hash(0));
        assert_eq!(direct.len(), boxed.len());
        assert_eq!(direct.used_bytes(), boxed.used_bytes());
        for _ in 0..5 {
            assert_eq!(direct.pop(0), boxed.pop(0));
        }
    }

    #[test]
    fn in_flight_mutation_poisons_every_buffered_fingerprint() {
        let mut f = BufferFifo::new(4096, 8);
        f.set_spill(true);
        push_segment(&mut f, 1, [10, 20], 0, 0);
        push_segment(&mut f, 1, [30, 40], 1, 0);
        assert!(f.next_segment_hash(0).is_some());
        // Mutate one in-flight entry (what fault injection does).
        if let Some(Packet::Mem(e)) = f.packet_mut(1) {
            e.data ^= 1 << 4;
        } else {
            panic!("expected a mem entry at index 1");
        }
        assert_eq!(f.next_segment_hash(0), None, "banked fingerprints die");
        f.skip_segment(0).unwrap();
        assert_eq!(f.next_segment_hash(0), None, "all segments are suspect");
        // The poison does not outlive the buffered data: fresh segments
        // pushed after the mutation fingerprint normally again.
        f.skip_segment(0).unwrap();
        push_segment(&mut f, 1, [50, 60], 2, 0);
        assert!(f.next_segment_hash(0).is_some());
    }

    #[test]
    fn open_segment_mutation_poisons_its_eventual_fingerprint() {
        let snap = ArchState::new(0).snapshot();
        let mut f = BufferFifo::new(4096, 8);
        f.push(Packet::scp(Checkpoint {
            snapshot: snap,
            seq: 0,
            tag: 0,
        }))
        .unwrap();
        f.push(entry(1)).unwrap();
        // Mutate while the segment is still open...
        if let Some(Packet::Mem(e)) = f.packet_mut(1) {
            e.data = 99;
        }
        // ...then close it: the finalised fingerprint must be poisoned.
        f.push_burst(&[
            Packet::InstCount(1),
            Packet::ecp(Checkpoint {
                snapshot: snap,
                seq: 0,
                tag: 0,
            }),
        ])
        .unwrap();
        assert_eq!(f.next_segment_hash(0), None);
    }

    fn storage(f: &BufferFifo) -> (usize, usize, usize) {
        (f.used_bytes(), f.checkpoints_in_flight(), f.len())
    }

    #[test]
    fn slab_handles_die_across_skip_and_drain_resync() {
        // Two consumers, so the storage is reclaimed only once both pass
        // a segment: skip on one and drain on the other must each leave
        // the other's view intact, and the last one frees its entry bytes
        // and checkpoint slots.
        let mut f = BufferFifo::new(4096, 8);
        f.set_spill(true);
        f.set_consumers(2);
        push_segment(&mut f, 1, [10, 20], 0, 0);
        push_segment(&mut f, 2, [30, 40], 1, 0);
        assert_eq!(storage(&f), (2 * 40, 4, 10));
        assert_eq!(f.skip_segment(0), Some(5));
        assert_eq!(storage(&f), (2 * 40, 4, 10), "consumer 1 still holds it");
        assert_eq!(f.drain_segment(1).map(|s| s.len()), Some(5));
        assert_eq!(storage(&f), (40, 2, 5), "both passed segment 0");
        assert_eq!(f.drain_segment(0).map(|s| s.len()), Some(5));
        assert_eq!(f.skip_segment(1), Some(5));
        assert_eq!(storage(&f), (0, 0, 0), "both passed segment 1");
    }

    #[test]
    fn reset_frees_all_slab_storage() {
        // Reset returns whatever is still buffered, open segment included.
        let mut f = BufferFifo::new(4096, 8);
        f.set_spill(true);
        f.set_consumers(2);
        push_segment(&mut f, 3, [50, 60], 2, 0);
        f.push_scp(Checkpoint {
            snapshot: ArchState::new(4).snapshot(),
            seq: 3,
            tag: 0,
        })
        .unwrap();
        f.push(entry(70)).unwrap();
        assert_eq!(storage(&f), (56, 3, 7));
        f.reset();
        assert_eq!(storage(&f), (0, 0, 0));
        assert_eq!(f.complete_segments_ahead(0), 0);
        assert_eq!(f.next_segment_hash(0), None);
        // The FIFO stays usable: a fresh segment fingerprints again.
        push_segment(&mut f, 1, [10, 20], 4, 0);
        assert!(f.next_segment_hash(1).is_some());
    }
}
