//! # gumbo-sched
//!
//! A dependency-driven DAG job scheduler for the gumbo MapReduce
//! substrate — the execution layer the paper's §3.2 "MR program = DAG of
//! jobs" definition calls for.
//!
//! The round-barrier path ([`gumbo_mr::Executor::execute`]) runs a
//! program level by level: every job of round *r* must finish before any
//! job of round *r + 1* starts, so one slow `MSJ` stalls unrelated work.
//! This crate replaces the barrier with data-dependency tracking:
//!
//! * [`gumbo_mr::JobDag`] — jobs plus edges inferred from input/output
//!   relation names (`MrProgram::into_dag()`);
//! * [`DagScheduler`] — runs one program's DAG, each job the moment its
//!   inputs are materialized, on a bounded worker pool
//!   ([`SchedulerConfig::max_concurrent_jobs`]) that claims ready jobs
//!   in FIFO order ([`PlacementPolicy::Fifo`]); the DFS is shared between
//!   workers — inputs are planned and outputs committed against the same
//!   internally synchronized `&dyn Dfs`, and the map/shuffle/reduce
//!   compute holds no lock at all. The estimation layer's per-job
//!   annotations ([`gumbo_mr::estimate`]) size per-job worker pools
//!   under [`SchedulerConfig::core_budget`], and the scheduler reports a
//!   predicted DAG net time
//!   ([`gumbo_mr::ProgramStats::predicted_net_time`]);
//! * [`admission`] — the resident-service layer on top: a bounded
//!   [`AdmissionQueue`] with **estimate-weighted fair-share** admission
//!   ([`FairShareLedger`]): each tenant carries a weight and a running
//!   account of admitted estimated cost, and the pending entry whose
//!   tenant has the least weight-normalized cost is admitted next — so
//!   under contention a weight-4 tenant receives ~4× the admitted
//!   estimated cost of a weight-1 tenant, deterministically.
//!
//! Execution is *observationally identical* to the round barrier: answer
//! relations are byte-identical and per-job [`gumbo_mr::JobStats`] (and
//! the reconstructed per-round wall-clock accounting) match exactly —
//! only the real wall-clock improves. The workspace-level
//! `tests/dag_scheduler_equivalence.rs` enforces this over every datagen
//! preset.

pub mod admission;
pub mod equivalence;
pub mod scheduler;

pub use admission::{
    AdmissionConfig, AdmissionQueue, FairShareLedger, QueuedEntry, SubmitError, TenantAccount,
};
pub use equivalence::{assert_identical_dfs, assert_identical_stats};
pub use scheduler::{DagScheduler, PlacementPolicy, SchedulerConfig};

#[cfg(test)]
mod proptests;
