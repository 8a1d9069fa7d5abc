//! # flexstep-sched
//!
//! The scheduling theory of §V of the FlexStep paper: the sporadic task
//! model with reliability classes, virtual-deadline assignment for
//! asynchronous verification, the Al. 3 partitioning algorithm with its
//! density-based admission test, the LockStep and HMR baselines of §VI-B,
//! a UUniFast task-set generator, a discrete-event EDF simulator that
//! cross-validates the analysis, and the Fig. 5 experiment driver.
//!
//! ## Example
//!
//! ```
//! use flexstep_sched::model::{ReliabilityClass, SpTask, TaskSet};
//! use flexstep_sched::partition::{FlexStepPartitioner, Partitioner};
//!
//! let tasks = TaskSet::new(vec![
//!     SpTask { id: 0, wcet: 2.0, period: 10.0, class: ReliabilityClass::DoubleCheck },
//!     SpTask { id: 1, wcet: 3.0, period: 10.0, class: ReliabilityClass::Normal },
//! ]);
//! let partition = FlexStepPartitioner.partition(&tasks, 2).expect("schedulable");
//! assert!(partition.max_density() <= 1.0);
//! ```

#![warn(missing_docs)]

pub mod des;
pub mod experiment;
pub mod model;
pub mod motivating;
pub mod pairing;
pub mod partition;
pub mod uunifast;

pub use des::{simulate_partition, total_misses, CoreSimResult};
pub use experiment::{paper_utilization_axis, sweep, Fig5Config, SweepPoint};
pub use model::{densities, virtual_deadline, ReliabilityClass, SpTask, TaskSet, VdPolicy};
pub use pairing::{criticality_plan, mode_for_class, CriticalityPlan};
pub use partition::{
    Assignment, FlexStepPartitioner, HmrPartitioner, LockStepPartitioner, Partition, Partitioner,
    Piece, VdFlexStepPartitioner,
};
pub use uunifast::{generate, uunifast, GenParams, UtilNorm};
