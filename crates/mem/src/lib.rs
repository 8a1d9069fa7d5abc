//! # flexstep-mem
//!
//! Memory-hierarchy substrate for the FlexStep reproduction: sparse
//! physical memory, set-associative cache timing models with MSI coherence
//! state, and a [`MemorySystem`] combining per-core L1s with a shared L2 at
//! the latencies of Tab. II of the paper.
//!
//! Functional data lives in [`PhysMem`]; caches model *timing and
//! coherence*, which is what the FlexStep experiments measure (slowdown,
//! backpressure, detection latency).
//!
//! ## Example
//!
//! ```
//! use flexstep_mem::{AccessKind, MemoryConfig, MemorySystem};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mem = MemorySystem::new(4, MemoryConfig::paper())?;
//! mem.phys_mut().load_words(0x1000, &[0x0000_0013]); // nop
//! let cold = mem.access(0, 0x1000, AccessKind::Fetch);
//! let warm = mem.access(0, 0x1000, AccessKind::Fetch);
//! assert_eq!(mem.phys().read_u32(0x1000), 0x13);
//! assert!(cold > warm && warm == 2); // L1 latency per Tab. II
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod hierarchy;
pub mod phys;

pub use cache::{Cache, CacheConfig, CacheStats, LineState};
pub use hierarchy::{AccessKind, LatencyConfig, MemoryConfig, MemorySystem, Snoop};
pub use phys::PhysMem;
