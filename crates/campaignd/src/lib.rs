//! # flexstep-campaignd
//!
//! Resumable fault-injection campaign engine for the FlexStep
//! reproduction — the subsystem that turns the single-process
//! Fig. 7/Fig. 8 campaigns into long-running, interruptible jobs.
//!
//! A campaign is described once by a versioned [`JobSpec`] (a grid of
//! SoC sizes × shards × seeds × recovery policy), expanded into a
//! deterministic [`Shard`] list, and drained by [`engine::run`] on the
//! shared campaign executor [`flexstep_bench::par_map`]: each worker
//! claims the next pending shard, in id order, from one shared counter.
//! `--max-shards N` runs the first `N` pending shards, and a failed run
//! returns the error of its lowest-id failed shard. Progress is
//! checkpointed after every shard (atomic `manifest.json` + one
//! `shard-NNNN.jsonl` artifact per shard), so the process can be killed
//! — including `SIGKILL` — at any instant and resumed to the *same*
//! merged artifact, byte for byte:
//! shard outcomes are pure functions of `(spec, shard id)`, riding the
//! `Send`-able [`flexstep_core::harness::VerifiedRun`] and the same
//! `derive_stream` chunk seeding as
//! [`campaign_row`](flexstep_bench::campaign::campaign_row).
//!
//! The `campaignd` binary fronts the library:
//!
//! ```text
//! campaignd submit --dir d --quick      write spec.json
//! campaignd run    --dir d --workers 8  drain shards (resumable)
//! campaignd resume --dir d              alias of run
//! campaignd status --dir d              progress (total/done/pending)
//! campaignd merge  --dir d              shards -> merged.jsonl
//! ```
//!
//! ## Example
//!
//! ```
//! use flexstep_campaignd::{engine, JobSpec, RecoveryPolicy};
//!
//! let dir = std::env::temp_dir().join("flexstep_campaignd_doc");
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! // A 2-shard campaign on a 4-core SoC.
//! let spec = JobSpec {
//!     name: "doc".into(),
//!     core_counts: vec![4],
//!     cores_per_checker: 4,
//!     iters_per_main: 200,
//!     shots_per_shard: 2,
//!     shards_per_config: 2,
//!     seed: 42,
//!     recovery: RecoveryPolicy::Detect,
//!     mode: flexstep_bench::ReliabilityMode::SegmentCheck,
//! };
//! engine::submit(&dir, &spec)?;
//!
//! // Run one shard, "crash", then resume: same merged bytes as an
//! // uninterrupted run.
//! engine::run(&dir, 2, Some(1))?;
//! let resumed = engine::run(&dir, 2, None)?;
//! assert_eq!(resumed.remaining, 0);
//! let shards = engine::merge(&dir, &engine::merged_path(&dir))?;
//! assert_eq!(shards, 2);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), flexstep_campaignd::CampaignError>(())
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod manifest;
pub mod spec;

pub use engine::{merge, run, status, submit, RunSummary, Status};
pub use error::CampaignError;
pub use flexstep_bench::RecoveryPolicy;
pub use manifest::Manifest;
pub use spec::{JobSpec, Shard, SPEC_VERSION};
