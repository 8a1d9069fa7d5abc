//! Layer probes that need no workload input: the DBC's segment datapath
//! and the ready-core scheduler, each timed in a tight loop over its
//! public functions. They run in every traced run.

use crate::stats::median;
use crate::Outcome;
use flexstep_core::{BufferFifo, Checkpoint, FabricConfig, LogEntry, LogKind, Packet};
use flexstep_sim::{ArchState, Soc, SocConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Median of `reps` timings of `f`, seconds.
fn time_median(reps: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f()?;
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&secs))
}

/// Segment-shaped DBC traffic: SCP, bursts of log entries, then the
/// count + ECP pair, drained one segment at a time by the consumer.
/// Returns ns per packet.
fn dbc_ns_per_packet() -> Result<f64, String> {
    const SEGMENTS: usize = 2_000;
    const BURSTS: usize = 8;
    const BURST: usize = 16;
    let fabric = FabricConfig::paper();
    let cp = |seq: u64| Checkpoint {
        snapshot: ArchState::new(0).snapshot(),
        seq,
        tag: 0,
    };
    let burst: Vec<Packet> = (0..BURST as u64)
        .map(|i| {
            Packet::Mem(LogEntry {
                kind: if i % 3 == 0 {
                    LogKind::Store
                } else {
                    LogKind::Load
                },
                addr: 0x2000_0000 + 8 * i,
                size: 8,
                data: i,
            })
        })
        .collect();
    let full = |_| "DBC probe FIFO refused a packet".to_string();
    let mut drained = Vec::new();
    let packets = SEGMENTS * (BURSTS * BURST + 3);
    let secs = time_median(7, || {
        let mut fifo = BufferFifo::new(fabric.fifo_entry_bytes, fabric.checkpoint_slots);
        fifo.set_spill(true);
        for seq in 0..SEGMENTS as u64 {
            fifo.push_scp(cp(seq)).map_err(full)?;
            for _ in 0..BURSTS {
                fifo.push_burst(&burst).map_err(full)?;
            }
            fifo.push_count_ecp((BURSTS * BURST) as u64, cp(seq))
                .map_err(full)?;
            drained.clear();
            if fifo.drain_segment_into(0, &mut drained) != Some(BURSTS * BURST + 3) {
                return Err("DBC probe drained a short segment".into());
            }
            black_box(&drained);
        }
        Ok(())
    })?;
    Ok(secs * 1e9 / packets as f64)
}

/// `next_ready` + `stall_core` on an `n`-core SoC under its default
/// scheduler, ns per dispatch.
fn next_ready_ns(n: usize) -> Result<f64, String> {
    const DISPATCHES: usize = 200_000;
    let secs = time_median(5, || {
        let mut soc = Soc::new(SocConfig::paper(n)).map_err(|e| e.to_string())?;
        for i in 0..n {
            soc.core_mut(i).unpark();
        }
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for _ in 0..DISPATCHES {
            let id = soc.next_ready().ok_or("no core ready")?;
            soc.stall_core(id, rng.gen_range(1..65));
        }
        black_box(soc.now());
        Ok(())
    })?;
    Ok(secs * 1e9 / DISPATCHES as f64)
}

/// Records the probe metrics.
pub fn run(out: &mut Outcome) -> Result<(), String> {
    out.sample("dbc.ns_per_packet", dbc_ns_per_packet()?);
    out.sample("sim.next_ready_ns_2c", next_ready_ns(2)?);
    out.sample("sim.next_ready_ns_16c", next_ready_ns(16)?);
    Ok(())
}
