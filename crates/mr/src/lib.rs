//! # gumbo-mr
//!
//! A deterministic MapReduce substrate: the execution environment the paper
//! assumes (Hadoop MR, §3.2) rebuilt as an in-memory engine on a worker
//! pool plus a cluster simulator, together with the paper's I/O **cost
//! model** (§3.3).
//!
//! ## What "executing" means here
//!
//! Jobs *really run*: the mapper is applied to every input fact, key-value
//! pairs are hash-partitioned to reducers, grouped, and reduced — so query
//! results are real and can be checked against a reference evaluator. At
//! the same time every stage is *metered*: per-input-partition map output
//! bytes `Mᵢ`, metadata `M̂ᵢ`, mapper counts `mᵢ`, shuffle volume `M`,
//! output size `K`. Those measurements feed
//!
//! * the cost model (`cost`), yielding the paper's **total time** (aggregate
//!   cost over all tasks, the pay-as-you-go metric), and
//! * the cluster simulator (`cluster`), yielding **net time** (wall-clock:
//!   the makespan of scheduling task waves onto `nodes × slots`).
//!
//! ## The runtime
//!
//! Execution is abstracted behind the [`Executor`] trait ([`executor`]).
//! Its one implementation, [`ParallelExecutor`], fans map tasks, the
//! partitioned shuffle and reduce tasks out over a fixed worker pool; with
//! one worker (the default [`ExecutorKind`]) every task runs on the
//! calling thread. Answer relations and [`JobStats`] are byte-identical
//! at every thread count (the shared pipeline in [`executor`] makes this
//! structural), so the §5 experiments are reproducible whatever the
//! pool size.
//!
//! A configurable *scale factor* maps laptop-sized relations onto the
//! paper's 100M-tuple regime: all byte quantities are multiplied by it
//! before entering the cost model, so merge-pass counts and reducer
//! allocations match the paper's operating point.
//!
//! ## Bounded-memory, columnar shuffle
//!
//! Map output travels as columnar [`PairBatch`]es (contiguous `i64` cells
//! plus per-batch string dictionaries) into the budget-charged
//! [`BatchPartition`] buffers of [`batch_shuffle`]: with
//! [`EngineConfig::mem_budget`] set ([`shuffle`]), per-reducer buffers
//! spill sorted runs of columnar frames to job-scoped disk directories
//! instead of growing past the limit, and the reduce phase streams a
//! merge of the runs plus the in-memory tail. Answers and metered statistics are
//! byte-identical with spilling on or off; [`JobStats`] additionally
//! reports `spilled_bytes` / `spill_files` / `spill_merge_passes`.
//!
//! Both cost models are provided: the paper's per-partition model
//! ([`cost::CostModelKind::Gumbo`], Eq. 2) and the aggregate model of Wang &
//! Chan / MRShare it refines ([`cost::CostModelKind::Wang`], Eq. 3).
//!
//! ## The estimation layer
//!
//! [`estimate`] packages plan-time cost estimates as [`JobEstimate`]s
//! attached to [`Job`]s, so the same numbers the planner optimizes drive
//! the DAG scheduler's placement (shortest-job-first / critical-path),
//! per-job thread sizing, and the predicted DAG net-time metric
//! ([`ProgramStats::predicted_net_time`]).

pub mod batch_shuffle;
pub mod cluster;
pub mod cost;
pub mod dag;
pub mod estimate;
pub mod executor;
pub mod hash;
pub mod job;
pub mod message;
pub mod metrics;
pub mod parallel;
pub mod profile;
pub mod program;
pub mod shuffle;

pub use batch_shuffle::{BatchGroups, BatchPartition, PairBatch, TupleStore};
pub use cluster::Cluster;
pub use cost::{job_cost, CostConstants, CostModelKind};
pub use dag::{DagNode, JobDag};
pub use estimate::{
    critical_path_lengths, list_schedule_makespan, list_schedule_makespan_by, JobEstimate,
};
pub use executor::{
    commit_job, plan_job, ComputedJob, EngineConfig, Executor, ExecutorKind, MapPlan,
};
pub use job::{Job, JobConfig, Mapper, Reducer, ReducerPolicy};
pub use message::{Message, Payload};
pub use metrics::{JobStats, ProgramStats};
pub use parallel::ParallelExecutor;
pub use profile::{InputPartition, JobProfile};
pub use program::MrProgram;
pub use shuffle::{MemBudget, MemoryBudget, ShuffleSpill, SpillStats};

#[cfg(test)]
mod proptests;
