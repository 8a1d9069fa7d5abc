//! Host-speed calibration. On a shared host the simulator's speed drifts
//! by tens of percent from one minute to the next as other tenants come
//! and go, so host times are reported at a reference speed: each timed
//! interval is scaled by [`REFERENCE_S`] over the time this fixed,
//! benchmark-owned loop takes right before and right after it. The
//! unscaled figures stay in the provenance record.
//!
//! The loop makes random read-modify-writes over an 8 MiB table. Of the
//! loops tried (16 KiB and 256 KiB tables, and dependent pointer chases
//! over 16 and 64 MiB), its time tracked the simulator's drift most
//! closely on a contended 2-CPU host; scaling by it halved the
//! coefficient of variation of windowed op times.
//!
//! No code outside this file runs in the loop, but the code measured just
//! before it leaves the caches and TLB in its own state: over 15 rounds of
//! `paired_suite` ops, a loop run straight after an op took 2.4 times as
//! long as one run before it. A change to the simulator's footprint would
//! then move the scale. So a sample runs the loop twice, each time after
//! a pass that touches every cache line of the table, and times only the
//! second run, which starts from the state the first left. In that
//! experiment the coefficient of variation of an op's time over the
//! rounds was 0.28 unscaled, 0.14 scaled by single cold samples, and
//! 0.11 scaled by these settled ones.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Time one calibration sample takes at the reference host speed. It
/// fixes only the scale of the reported times.
pub const REFERENCE_S: f64 = 0.6e-3;

/// Table slots (8 MiB of `u64`).
const SLOTS: usize = 1 << 20;
/// Resident size of the table, MiB, which `peak_rss_mib` leaves out.
pub const TABLE_MIB: f64 = (SLOTS * 8) as f64 / (1024.0 * 1024.0);
/// Accesses per loop.
const ITERS: u64 = 100_000;

/// The table, filled on first use and kept resident.
static TABLE: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// One pass over every cache line of `table`, then the loop; returns
/// the loop's seconds.
fn run_loop(table: &mut [u64]) -> f64 {
    let warm = table
        .iter()
        .step_by(8)
        .fold(0u64, |acc, &v| acc.wrapping_add(v));
    black_box(warm);
    let t = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1du64);
    let mut acc = 0u64;
    for i in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (SLOTS - 1);
        if table[slot] & 1 == 0 {
            acc = acc.wrapping_add(table[slot] >> 3);
        } else {
            acc ^= table[slot].rotate_left(5);
        }
        table[slot] = table[slot].wrapping_add(i);
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Seconds one calibration sample takes on this host now, whatever the
/// code before it left in the caches.
pub fn sample() -> f64 {
    let mut table = TABLE.lock().expect("no calibration sample panicked");
    if table.is_empty() {
        *table = (0..SLOTS as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
    }
    run_loop(&mut table);
    run_loop(&mut table)
}

/// Times `f`, returning its result, its seconds, and the factor that
/// scales those seconds to the reference host speed.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = sample();
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    let after = sample();
    (out, secs, 2.0 * REFERENCE_S / (before + after))
}
