//! Property tests of the Data-Buffer FIFO (DESIGN.md §7: "FIFO
//! conservation").
//!
//! The DBC FIFO is the hinge of asynchronous checking: every packet the
//! main core produces must reach every consumer exactly once, in order,
//! and storage accounting must stay exact under any interleaving of
//! pushes and per-consumer pops. These properties drive randomly
//! generated operation sequences against a reference model.

use flexstep_core::{BufferFifo, Checkpoint, LogEntry, LogKind, Packet};
use flexstep_sim::ArchState;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Operations the property drives.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push the next packet (payload derived from a running counter).
    Push(PacketShape),
    /// Pop for consumer `c` (modulo the consumer count).
    Pop(usize),
}

/// Operations for the burst-API equivalence property.
#[derive(Debug, Clone)]
enum BurstOp {
    /// Push a burst of packets in one `push_burst` call.
    PushBurst(Vec<PacketShape>),
    /// Push one whole segment the engine's way — `push_scp`, one
    /// `push_burst` of these log entries, `push_count_ecp` — against
    /// the same packets pushed one by one.
    PushSegment(Vec<PacketShape>),
    /// Pop one packet for consumer `c`.
    Pop(usize),
    /// Drain one complete segment for consumer `c`.
    DrainSegment(usize),
    /// Skip one complete segment for consumer `c`.
    SkipSegment(usize),
}

#[derive(Debug, Clone, Copy)]
enum PacketShape {
    Load,
    Store,
    ScPair,
    Scp,
    Ecp,
    Count,
}

fn packet_of(shape: PacketShape, n: u64) -> Packet {
    let snap = ArchState::new(n).snapshot();
    match shape {
        PacketShape::Load => Packet::Mem(LogEntry {
            kind: LogKind::Load,
            addr: 0x1000 + n * 8,
            size: 8,
            data: n,
        }),
        PacketShape::Store => Packet::Mem(LogEntry {
            kind: LogKind::Store,
            addr: 0x2000 + n * 8,
            size: 8,
            data: n,
        }),
        PacketShape::ScPair => Packet::Mem(LogEntry {
            kind: LogKind::ScResult,
            addr: 0,
            size: 8,
            data: n & 1,
        }),
        PacketShape::Scp => Packet::scp(Checkpoint {
            snapshot: snap,
            seq: n,
            tag: 7,
        }),
        PacketShape::Ecp => Packet::ecp(Checkpoint {
            snapshot: snap,
            seq: n,
            tag: 7,
        }),
        PacketShape::Count => Packet::InstCount(n),
    }
}

fn shape_strategy() -> impl Strategy<Value = PacketShape> {
    prop_oneof![
        Just(PacketShape::Load),
        Just(PacketShape::Store),
        Just(PacketShape::ScPair),
        Just(PacketShape::Scp),
        Just(PacketShape::Ecp),
        Just(PacketShape::Count),
    ]
}

fn entry_shape_strategy() -> impl Strategy<Value = PacketShape> {
    prop_oneof![
        Just(PacketShape::Load),
        Just(PacketShape::Store),
        Just(PacketShape::ScPair),
    ]
}

fn burst_op_strategy() -> impl Strategy<Value = BurstOp> {
    prop_oneof![
        3 => proptest::collection::vec(shape_strategy(), 1..6).prop_map(BurstOp::PushBurst),
        1 => proptest::collection::vec(entry_shape_strategy(), 0..5)
            .prop_map(BurstOp::PushSegment),
        2 => (0usize..3).prop_map(BurstOp::Pop),
        1 => (0usize..3).prop_map(BurstOp::DrainSegment),
        1 => (0usize..3).prop_map(BurstOp::SkipSegment),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => prop_oneof![
            Just(PacketShape::Load),
            Just(PacketShape::Store),
            Just(PacketShape::ScPair),
            Just(PacketShape::Scp),
            Just(PacketShape::Ecp),
            Just(PacketShape::Count),
        ]
        .prop_map(Op::Push),
        2 => (0usize..3).prop_map(Op::Pop),
    ]
}

/// A reference model: unbounded per-consumer queues.
struct Reference {
    streams: Vec<VecDeque<Packet>>,
}

impl Reference {
    fn new(consumers: usize) -> Self {
        Reference {
            streams: (0..consumers).map(|_| VecDeque::new()).collect(),
        }
    }
    fn push(&mut self, p: &Packet) {
        for s in &mut self.streams {
            s.push_back(p.clone());
        }
    }
    fn pop(&mut self, c: usize) -> Option<Packet> {
        self.streams[c].pop_front()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// With spill enabled the FIFO delivers exactly the pushed sequence
    /// to every consumer, independent of interleaving.
    #[test]
    fn delivery_matches_reference(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        consumers in 1usize..3,
    ) {
        let mut fifo = BufferFifo::new(256, 2);
        fifo.set_spill(true);
        fifo.set_consumers(consumers);
        let mut reference = Reference::new(consumers);
        let mut n = 0u64;
        for op in ops {
            match op {
                Op::Push(shape) => {
                    let p = packet_of(shape, n);
                    n += 1;
                    reference.push(&p);
                    fifo.push(p).expect("spill-enabled push cannot fail");
                }
                Op::Pop(c) => {
                    let c = c % consumers;
                    prop_assert_eq!(fifo.pop(c), reference.pop(c), "consumer {} diverged", c);
                }
            }
        }
        // Drain everything and compare the tails.
        for c in 0..consumers {
            loop {
                let (got, want) = (fifo.pop(c), reference.pop(c));
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }
        prop_assert!(fifo.is_empty());
        prop_assert_eq!(fifo.used_bytes(), 0);
        prop_assert_eq!(fifo.checkpoints_in_flight(), 0);
    }

    /// Storage accounting is exact: used bytes always equal the byte sum
    /// of packets some consumer has not yet passed, and capacity is never
    /// exceeded without spill.
    #[test]
    fn accounting_is_exact_without_spill(
        ops in proptest::collection::vec(op_strategy(), 1..150),
        consumers in 1usize..3,
    ) {
        let mut fifo = BufferFifo::new(160, 3);
        fifo.set_consumers(consumers);
        let mut n = 0u64;
        // Shadow: packets currently held with per-consumer positions.
        let mut reference = Reference::new(consumers);
        let mut held: VecDeque<Packet> = VecDeque::new();
        for op in ops {
            match op {
                Op::Push(shape) => {
                    let p = packet_of(shape, n);
                    let (bytes, cps) =
                        if p.is_checkpoint() { (0, 1) } else { (p.bytes(), 0) };
                    let fits = fifo.can_accept(bytes, cps);
                    match fifo.push(p.clone()) {
                        Ok(()) => {
                            prop_assert!(fits, "push succeeded though can_accept was false");
                            n += 1;
                            reference.push(&p);
                            held.push_back(p);
                        }
                        Err(e) => {
                            prop_assert!(!fits, "push failed though can_accept was true");
                            // The error reports the rejected packet's need
                            // in its own storage class: bytes for entries,
                            // slots for checkpoints.
                            if p.is_checkpoint() {
                                prop_assert_eq!(e.needed, 0);
                                prop_assert_eq!(e.needed_slots, 1);
                            } else {
                                prop_assert_eq!(e.needed, p.bytes());
                                prop_assert_eq!(e.needed_slots, 0);
                            }
                        }
                    }
                }
                Op::Pop(c) => {
                    let c = c % consumers;
                    let got = fifo.pop(c);
                    prop_assert_eq!(got, reference.pop(c));
                    // Reclaim in the shadow: the FIFO holds packets the
                    // *slowest* consumer has not passed, i.e. the longest
                    // remaining stream.
                    let max_remaining =
                        reference.streams.iter().map(VecDeque::len).max().unwrap_or(0);
                    while held.len() > max_remaining {
                        held.pop_front();
                    }
                }
            }
            let want_bytes: usize =
                held.iter().filter(|p| !p.is_checkpoint()).map(Packet::bytes).sum();
            let want_cps = held.iter().filter(|p| p.is_checkpoint()).count();
            prop_assert_eq!(fifo.used_bytes(), want_bytes, "byte accounting diverged");
            prop_assert_eq!(fifo.checkpoints_in_flight(), want_cps);
            prop_assert!(fifo.used_bytes() <= 160, "capacity violated");
            prop_assert!(fifo.peak_used_bytes() >= fifo.used_bytes());
        }
    }

    /// `complete_segments_ahead` counts exactly the unconsumed ECPs.
    #[test]
    fn segment_counting_matches_ecp_flow(
        ops in proptest::collection::vec(op_strategy(), 1..100),
    ) {
        let mut fifo = BufferFifo::new(512, 8);
        fifo.set_spill(true);
        let mut pushed_ecps = 0u64;
        let mut consumed_ecps = 0u64;
        let mut n = 0u64;
        for op in ops {
            match op {
                Op::Push(shape) => {
                    let p = packet_of(shape, n);
                    n += 1;
                    if matches!(p, Packet::Ecp(_)) {
                        pushed_ecps += 1;
                    }
                    fifo.push(p).expect("spill enabled");
                }
                Op::Pop(_) => {
                    if let Some(Packet::Ecp(_)) = fifo.pop(0) {
                        consumed_ecps += 1;
                    }
                }
            }
            prop_assert_eq!(
                fifo.complete_segments_ahead(0),
                pushed_ecps - consumed_ecps
            );
        }
    }

    /// The burst APIs, and the engine's checkpoint pushes, are
    /// byte-for-byte equivalent to per-packet `push`/`pop`: the same
    /// consumer-visible packet sequence, the same cursors (observed
    /// through `backlog`), the same reclaim accounting
    /// (`used_bytes`/`checkpoints_in_flight`) and the same segment
    /// fingerprints, under random interleavings with 1–2 consumers.
    #[test]
    fn burst_apis_match_per_packet_ops(
        ops in proptest::collection::vec(burst_op_strategy(), 1..80),
        consumers in 1usize..3,
    ) {
        let mut batched = BufferFifo::new(256, 4);
        batched.set_spill(true);
        batched.set_consumers(consumers);
        let mut single = batched.clone();
        let mut n = 0u64;
        for op in ops {
            match op {
                BurstOp::PushBurst(shapes) => {
                    let burst: Vec<Packet> = shapes
                        .iter()
                        .map(|&s| {
                            let p = packet_of(s, n);
                            n += 1;
                            p
                        })
                        .collect();
                    batched.push_burst(&burst).expect("spill enabled");
                    for p in &burst {
                        single.push(p.clone()).expect("spill enabled");
                    }
                }
                BurstOp::PushSegment(shapes) => {
                    let cp = |n: u64| Checkpoint {
                        snapshot: ArchState::new(n).snapshot(),
                        seq: n,
                        tag: 7,
                    };
                    let (scp, ecp) = (cp(n), cp(n + 1));
                    let entries: Vec<Packet> =
                        shapes.iter().zip(n + 2..).map(|(&s, k)| packet_of(s, k)).collect();
                    let count = n + 2 + shapes.len() as u64;
                    n = count + 1;
                    batched.push_scp(scp).expect("spill enabled");
                    batched.push_burst(&entries).expect("spill enabled");
                    batched.push_count_ecp(count, ecp).expect("spill enabled");
                    single.push(Packet::scp(scp)).expect("spill enabled");
                    for p in entries {
                        single.push(p).expect("spill enabled");
                    }
                    single.push(Packet::InstCount(count)).expect("spill enabled");
                    single.push(Packet::ecp(ecp)).expect("spill enabled");
                }
                BurstOp::Pop(c) => {
                    let c = c % consumers;
                    prop_assert_eq!(batched.pop(c), single.pop(c));
                }
                BurstOp::DrainSegment(c) => {
                    let c = c % consumers;
                    let drained = batched.drain_segment(c);
                    // Reference: pop one at a time through the next ECP.
                    let expect = if single.complete_segments_ahead(c) == 0 {
                        None
                    } else {
                        let mut v = Vec::new();
                        loop {
                            let p = single.pop(c).expect("segment is buffered");
                            let is_ecp = matches!(p, Packet::Ecp(_));
                            v.push(p);
                            if is_ecp {
                                break;
                            }
                        }
                        Some(v)
                    };
                    prop_assert_eq!(drained, expect);
                }
                BurstOp::SkipSegment(c) => {
                    let c = c % consumers;
                    let skipped = batched.skip_segment(c);
                    let expect = if single.complete_segments_ahead(c) == 0 {
                        None
                    } else {
                        let mut count = 0usize;
                        loop {
                            let p = single.pop(c).expect("segment is buffered");
                            count += 1;
                            if matches!(p, Packet::Ecp(_)) {
                                break;
                            }
                        }
                        Some(count)
                    };
                    prop_assert_eq!(skipped, expect);
                }
            }
            // The two FIFOs must be indistinguishable after every op.
            prop_assert_eq!(batched.used_bytes(), single.used_bytes());
            prop_assert_eq!(
                batched.checkpoints_in_flight(),
                single.checkpoints_in_flight()
            );
            prop_assert_eq!(batched.len(), single.len());
            prop_assert_eq!(batched.total_pushed(), single.total_pushed());
            prop_assert_eq!(batched.spilled_packets(), single.spilled_packets());
            prop_assert_eq!(batched.is_empty(), single.is_empty());
            for c in 0..consumers {
                prop_assert_eq!(batched.backlog(c), single.backlog(c), "cursor {} diverged", c);
                prop_assert_eq!(
                    batched.complete_segments_ahead(c),
                    single.complete_segments_ahead(c)
                );
                prop_assert_eq!(
                    batched.next_segment_hash(c),
                    single.next_segment_hash(c),
                    "fingerprint {} diverged",
                    c
                );
            }
        }
    }

    /// `reset` always restores an empty, reusable FIFO regardless of the
    /// state it interrupts.
    #[test]
    fn reset_from_any_state_is_clean(
        ops in proptest::collection::vec(op_strategy(), 0..60),
        consumers in 1usize..3,
    ) {
        let mut fifo = BufferFifo::new(128, 2);
        fifo.set_spill(true);
        fifo.set_consumers(consumers);
        let mut n = 0u64;
        for op in ops {
            match op {
                Op::Push(shape) => {
                    fifo.push(packet_of(shape, n)).expect("spill enabled");
                    n += 1;
                }
                Op::Pop(c) => {
                    let _ = fifo.pop(c % consumers);
                }
            }
        }
        fifo.reset();
        prop_assert!(fifo.is_empty());
        prop_assert_eq!(fifo.used_bytes(), 0);
        prop_assert_eq!(fifo.checkpoints_in_flight(), 0);
        prop_assert_eq!(fifo.complete_segments_ahead(0), 0);
        // The FIFO stays usable with aligned cursors.
        let p = packet_of(PacketShape::Load, 9999);
        fifo.push(p.clone()).expect("post-reset push");
        for c in 0..consumers {
            prop_assert_eq!(fifo.pop(c), Some(p.clone()), "consumer {} misaligned after reset", c);
        }
    }
}
