//! The DAG scheduler: dependency-driven execution on a bounded worker
//! pool over a shared [`Dfs`].

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::thread;

use gumbo_common::{GumboError, Result};
use gumbo_mr::estimate::list_schedule_finish_times;
use gumbo_mr::metrics::RoundStats;
use gumbo_mr::{
    commit_job, plan_job, Executor, ExecutorKind, JobDag, JobEstimate, JobStats, MrProgram,
    ProgramStats,
};
use gumbo_storage::Dfs;

/// How the scheduler orders its ready queue. FIFO is the only order:
/// ready jobs are claimed in the order they became ready. Placement can
/// only choose among jobs whose dependencies are satisfied, so no order
/// changes an answer or a non-timing statistic, and the predicted DAG
/// net time is list-scheduled in this same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// First in, first out.
    #[default]
    Fifo,
}

/// Scheduler sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// How many jobs may run concurrently (the worker-pool size).
    /// `0` = auto: the machine's available parallelism.
    pub max_concurrent_jobs: usize,
    /// Worker threads *inside* each job (`0` = keep the executor's own
    /// sizing).
    ///
    /// The scheduler runs jobs on whatever executor it is handed; this
    /// knob takes effect where the executor is *built* — resolve it with
    /// [`SchedulerConfig::executor_kind`] (as `GumboEngine::runtime` does)
    /// before building.
    pub threads_per_job: usize,
    /// Shuffle memory budget for scheduled execution. Like
    /// `threads_per_job`, this takes effect where the executor is built —
    /// resolve it with [`SchedulerConfig::engine_config`]. Because the
    /// scheduler hands *one* executor to all its workers, the budget is
    /// shared by (and collectively bounds) every concurrently running
    /// job. Unlimited by default, deferring to the engine configuration.
    pub mem_budget: gumbo_mr::MemBudget,
    /// How ready jobs are ordered: always [`PlacementPolicy::Fifo`].
    pub placement: PlacementPolicy,
    /// Total cores the scheduler may spread over concurrently running
    /// jobs. `0` (the default) disables cost-driven sizing and keeps the
    /// executor's own per-job pool. When set, each job's worker pool is
    /// its estimate's suggested parallelism clamped to an equal share of
    /// this budget (`core_budget / worker-pool size`, at least 1) — so a
    /// full pool of jobs collectively stays within the core budget.
    pub core_budget: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_concurrent_jobs: 4,
            threads_per_job: 1,
            mem_budget: gumbo_mr::MemBudget::UNLIMITED,
            placement: PlacementPolicy::Fifo,
            core_budget: 0,
        }
    }
}

impl SchedulerConfig {
    /// Apply this scheduler's memory budget (when limited) to a base
    /// engine configuration, for building the executor scheduled jobs
    /// run on.
    pub fn engine_config(&self, base: gumbo_mr::EngineConfig) -> gumbo_mr::EngineConfig {
        if self.mem_budget.is_limited() {
            gumbo_mr::EngineConfig {
                mem_budget: self.mem_budget,
                ..base
            }
        } else {
            base
        }
    }

    /// The worker-pool size this configuration resolves to.
    pub fn effective_workers(&self) -> usize {
        if self.max_concurrent_jobs > 0 {
            return self.max_concurrent_jobs;
        }
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// The executor kind jobs should run on under this scheduler: the
    /// runtime resized to [`SchedulerConfig::threads_per_job`] threads
    /// (when set), otherwise `base` unchanged.
    pub fn executor_kind(&self, base: ExecutorKind) -> ExecutorKind {
        match self.threads_per_job {
            0 => base,
            threads => ExecutorKind::Parallel { threads },
        }
    }

    /// Per-job worker-pool size under the total-core budget: the job's
    /// estimated widest phase ([`JobEstimate::suggested_parallelism`]),
    /// clamped to an equal share of [`SchedulerConfig::core_budget`]
    /// across the worker pool. Returns `0` ("keep the executor's own
    /// sizing") when cost-driven sizing is disabled.
    pub fn threads_for(&self, estimate: Option<&JobEstimate>) -> usize {
        if self.core_budget == 0 {
            return 0;
        }
        let share = (self.core_budget / self.effective_workers().max(1)).max(1);
        match estimate {
            Some(e) => e.suggested_parallelism.clamp(1, share),
            None => share,
        }
    }
}

/// Shared scheduling state, guarded by one mutex + condvar.
struct SchedState {
    /// Unmet-dependency counts, indexed by DAG node.
    indegree: Vec<usize>,
    /// Ready nodes, in the order they became ready.
    ready: VecDeque<usize>,
    /// Collected statistics, indexed by DAG node.
    results: Vec<Option<JobStats>>,
    /// Jobs not yet completed.
    remaining: usize,
    /// First failure; stops admission of further jobs.
    error: Option<GumboError>,
    /// First job panic. Stops admission like `error`, and is re-raised
    /// once every worker has stopped, so a panicking job can never leave
    /// its peers waiting for a completion that will not come.
    panic: Option<Box<dyn Any + Send>>,
}

/// The dependency-driven scheduler.
///
/// Jobs run the moment their inputs are materialized, on a pool of at
/// most [`SchedulerConfig::max_concurrent_jobs`] workers. The DFS is
/// shared directly between workers: every [`Dfs`] method takes `&self`
/// and synchronizes internally (byte metering is atomic), so planning,
/// the lock-free compute phases, and commits all run against the same
/// `&dyn Dfs` with no scheduler-level lock. Per-job statistics are
/// identical to round-barrier execution because the metering pipeline is
/// untouched — the scheduler only decides *when* each job runs — and
/// backend-invariant: a durable [`gumbo_storage::FileDfs`] meters the
/// same logical bytes as the in-memory [`gumbo_storage::SimDfs`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DagScheduler {
    /// Sizing knobs.
    pub config: SchedulerConfig,
}

impl DagScheduler {
    /// Create a scheduler.
    pub fn new(config: SchedulerConfig) -> DagScheduler {
        DagScheduler { config }
    }

    /// Lower a program and execute it as a DAG.
    pub fn execute_program(
        &self,
        executor: &dyn Executor,
        dfs: &dyn Dfs,
        program: MrProgram,
    ) -> Result<ProgramStats> {
        self.run(executor, dfs, &program.into_dag())
    }

    /// Execute one DAG to completion, returning statistics identical to
    /// what the round-barrier path would produce for the source program.
    /// Ready jobs are claimed in the order they became ready.
    pub fn run(
        &self,
        executor: &dyn Executor,
        dfs: &dyn Dfs,
        dag: &JobDag,
    ) -> Result<ProgramStats> {
        let total = dag.len();
        gumbo_obs::event("sched:submit", |f| {
            f.u64("jobs", total as u64);
        });
        let indegree: Vec<usize> = dag.nodes().iter().map(|n| n.deps().len()).collect();
        for (node, deps) in dag.nodes().iter().zip(&indegree) {
            gumbo_obs::event("sched:admit", |f| {
                f.str("job", &node.job.name);
                f.u64("deps", *deps as u64);
            });
        }
        let ready: VecDeque<usize> = (0..total).filter(|&i| indegree[i] == 0).collect();
        for &i in &ready {
            gumbo_obs::event("sched:ready", |f| {
                f.str("job", &dag.node(i).job.name);
            });
        }

        let state = Mutex::new(SchedState {
            indegree,
            ready,
            results: (0..total).map(|_| None).collect(),
            remaining: total,
            error: None,
            panic: None,
        });
        let work_available = Condvar::new();

        let workers = self.config.effective_workers().max(1).min(total.max(1));
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    loop {
                        let idx = {
                            let mut st = state.lock().expect("unpoisoned scheduler state");
                            loop {
                                if st.error.is_some() || st.panic.is_some() || st.remaining == 0 {
                                    return;
                                }
                                if let Some(idx) = st.ready.pop_front() {
                                    break idx;
                                }
                                st = work_available.wait(st).expect("unpoisoned scheduler state");
                            }
                        };

                        let node = dag.node(idx);
                        // plan → compute → commit, all against the shared
                        // `&dyn Dfs` (internally synchronized). The job's
                        // stats carry its original round, keeping per-job
                        // accounting identical to the barrier path. The
                        // per-job worker count comes from the job's
                        // estimate under the core budget (0 = the
                        // executor's own sizing); thread counts can never
                        // change answers or metered statistics.
                        let threads = self.config.threads_for(node.estimate());
                        gumbo_obs::event("sched:claim", |f| {
                            f.str("job", &node.job.name);
                        });
                        gumbo_obs::event("sched:threads_assigned", |f| {
                            f.str("job", &node.job.name);
                            f.u64("threads", threads as u64);
                        });
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            // The whole claimed execution runs under one
                            // "job" span on this worker's lane, so the
                            // plan/phase/commit spans nest beneath the
                            // claim that scheduled them.
                            let _span = gumbo_obs::span_with("job", |f| {
                                f.str("job", &node.job.name);
                                f.u64("round", node.round as u64);
                                if let Some(e) = node.estimate() {
                                    f.f64("estimated_cost", e.total_cost);
                                }
                            });
                            let plan = plan_job(executor.config(), dfs, &node.job)?;
                            let computed = executor.run_phases_with(&node.job, plan, threads)?;
                            commit_job(executor.config(), dfs, &node.job, node.round, computed)
                        }));

                        let mut st = state.lock().expect("unpoisoned scheduler state");
                        match outcome {
                            Ok(Ok(stats)) => {
                                gumbo_obs::event("sched:complete", |f| {
                                    f.str("job", &node.job.name);
                                    f.f64("observed_cost", stats.total_cost);
                                });
                                st.results[idx] = Some(stats);
                                st.remaining -= 1;
                                for &dep in node.dependents() {
                                    st.indegree[dep] -= 1;
                                    if st.indegree[dep] == 0 {
                                        st.ready.push_back(dep);
                                        gumbo_obs::event("sched:ready", |f| {
                                            f.str("job", &dag.node(dep).job.name);
                                        });
                                    }
                                }
                            }
                            Ok(Err(e)) => {
                                st.error.get_or_insert(e);
                            }
                            Err(panic) => {
                                st.panic.get_or_insert(panic);
                            }
                        }
                        drop(st);
                        work_available.notify_all();
                    }
                });
            }
        });

        let state = state.into_inner().expect("unpoisoned scheduler state");
        if let Some(panic) = state.panic {
            resume_unwind(panic);
        }
        if let Some(e) = state.error {
            return Err(e);
        }

        // Assemble the statistics: jobs in flat (round) order, and
        // per-round wall-clock accounting reconstructed exactly like the
        // round-barrier executor computes it.
        let cluster = executor.config().cluster;
        let overhead = executor.config().constants.job_overhead;
        let jobs: Vec<JobStats> = state
            .results
            .into_iter()
            .map(|js| js.expect("all jobs completed"))
            .collect();

        // Predicted DAG net time: list-schedule the jobs over the DAG's
        // edges and the pool of job slots — exactly the constraints the
        // real scheduler enforced — pricing each job as the per-round
        // model prices a single-job round (overhead + pooled map/reduce
        // makespans). On a chain with one slot the prediction coincides
        // with per-round net time; with slack in the DAG and slots > 1 it
        // is what barrier-free overlap should achieve.
        let durations: Vec<f64> = jobs
            .iter()
            .map(|js| RoundStats::pooled(std::iter::once(js), cluster, overhead).net_time())
            .collect();
        let deps: Vec<&[usize]> = dag.nodes().iter().map(|n| n.deps()).collect();
        let finish_times =
            list_schedule_finish_times(&durations, &deps, self.config.effective_workers());

        let mut stats = ProgramStats::default();
        for round in 0..dag.num_rounds() {
            stats.round_stats.push(RoundStats::pooled(
                jobs.iter().filter(|js| js.round == round),
                cluster,
                overhead,
            ));
        }
        stats.predicted_net_time = Some(finish_times.into_iter().fold(0.0, f64::max));
        stats.jobs = jobs;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo_common::{Fact, Relation, RelationName, Tuple};
    use gumbo_mr::{EngineConfig, Job, JobConfig, Mapper, Message, ParallelExecutor, Reducer};
    use gumbo_storage::SimDfs;

    /// Copies every input tuple to the job's single output relation.
    struct Copy;
    impl Mapper for Copy {
        fn map(&self, fact: &Fact, _: u64, emit: &mut dyn FnMut(Tuple, Message)) {
            emit(fact.tuple.clone(), Message::Assert { cond: 0 });
        }
    }
    struct CopyTo(RelationName);
    impl Reducer for CopyTo {
        fn reduce(&self, key: &Tuple, _: &[Message], emit: &mut dyn FnMut(&RelationName, Tuple)) {
            emit(&self.0, key.clone());
        }
    }

    fn copy_job(name: &str, input: &str, output: &str) -> Job {
        Job {
            name: name.into(),
            inputs: vec![input.into()],
            outputs: vec![(output.into(), 2)],
            mapper: Box::new(Copy),
            reducer: Box::new(CopyTo(output.into())),
            config: JobConfig::default(),
            estimate: None,
        }
    }

    fn dfs_with(names: &[&str]) -> SimDfs {
        let dfs = SimDfs::new();
        for (i, name) in names.iter().enumerate() {
            let base = 10 * i as i64;
            dfs.store(
                Relation::from_tuples(*name, 2, (0..50).map(|j| Tuple::from_ints(&[base + j, j])))
                    .unwrap(),
            );
        }
        dfs
    }

    fn executor() -> ParallelExecutor {
        ParallelExecutor::with_threads(EngineConfig::unscaled(), 1)
    }

    /// R → X → Z and R → Y → Z: the diamond must end with Z built from
    /// both X and Y, for every pool size.
    fn diamond() -> MrProgram {
        let mut p = MrProgram::new();
        p.push_round(vec![copy_job("x", "R", "X"), copy_job("y", "R", "Y")]);
        p.push_round(vec![copy_job("zx", "X", "ZX"), copy_job("zy", "Y", "ZY")]);
        p
    }

    #[test]
    fn diamond_matches_round_barrier_exactly() {
        let exec = executor();
        let barrier_dfs = dfs_with(&["R"]);
        let barrier = exec.execute(&barrier_dfs, &diamond()).unwrap();

        for workers in [1usize, 2, 8] {
            let sched = DagScheduler::new(SchedulerConfig {
                max_concurrent_jobs: workers,
                ..SchedulerConfig::default()
            });
            let dfs = dfs_with(&["R"]);
            let stats = sched.execute_program(&exec, &dfs, diamond()).unwrap();

            let label = format!("diamond x{workers}");
            crate::equivalence::assert_identical_dfs(&label, &barrier_dfs, &dfs);
            crate::equivalence::assert_identical_stats(&label, &barrier, &stats);
        }
    }

    #[test]
    fn errors_propagate_and_dfs_survives() {
        struct Bad;
        impl Reducer for Bad {
            fn reduce(&self, _: &Tuple, _: &[Message], emit: &mut dyn FnMut(&RelationName, Tuple)) {
                emit(&"Undeclared".into(), Tuple::from_ints(&[1]));
            }
        }
        let mut p = MrProgram::new();
        p.push_job(copy_job("ok", "R", "X"));
        p.push_job(Job {
            name: "bad".into(),
            inputs: vec!["X".into()],
            outputs: vec![],
            mapper: Box::new(Copy),
            reducer: Box::new(Bad),
            config: JobConfig::default(),
            estimate: None,
        });
        let dfs = dfs_with(&["R"]);
        let err = DagScheduler::default()
            .execute_program(&executor(), &dfs, p)
            .unwrap_err();
        assert!(err.to_string().contains("Undeclared"), "{err}");
        // The DFS is shared in place, so even though the run failed the
        // completed job's output is visible.
        assert!(dfs.exists(&"X".into()));
    }

    #[test]
    fn shared_budget_spills_under_concurrency_and_matches_barrier() {
        use gumbo_mr::MemBudget;

        // Wide fan-out: many independent jobs racing on a 512 B budget
        // that is far smaller than any single job's ~1.2 KB shuffle
        // footprint — every job spills no matter how the pool interleaves
        // them, and concurrent jobs stay collectively under the budget.
        let names: Vec<String> = (0..6).map(|i| format!("R{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let program = || {
            let mut p = MrProgram::new();
            p.push_round(
                (0..6)
                    .map(|i| copy_job(&format!("c{i}"), &format!("R{i}"), &format!("Out{i}")))
                    .collect(),
            );
            p
        };

        let unlimited = executor();
        let dfs_barrier = dfs_with(&name_refs);
        let barrier = unlimited.execute(&dfs_barrier, &program()).unwrap();
        assert_eq!(barrier.spilled_bytes(), 0, "unlimited run never spills");
        let budgeted = ParallelExecutor::with_threads(
            gumbo_mr::EngineConfig {
                mem_budget: MemBudget::bytes(512),
                ..gumbo_mr::EngineConfig::unscaled()
            },
            1,
        );
        let sched = DagScheduler::new(SchedulerConfig {
            max_concurrent_jobs: 4,
            ..SchedulerConfig::default()
        });
        let dfs = dfs_with(&name_refs);
        let stats = sched.execute_program(&budgeted, &dfs, program()).unwrap();

        // Same answers, same non-spill statistics — and the budget held.
        crate::equivalence::assert_identical_dfs("budgeted dag", &dfs_barrier, &dfs);
        crate::equivalence::assert_identical_stats("budgeted dag", &barrier, &stats);
        assert!(
            stats.spilled_bytes() > 0,
            "a 512 B budget must force spilling"
        );
        assert!(budgeted.budget().peak() <= 512);
    }

    #[test]
    fn empty_program_yields_empty_stats() {
        let dfs = dfs_with(&["R"]);
        let stats = DagScheduler::default()
            .execute_program(&executor(), &dfs, MrProgram::new())
            .unwrap();
        assert_eq!(stats.num_jobs(), 0);
        assert_eq!(stats.num_rounds(), 0);
    }

    /// The acceptance identity of the predicted DAG net-time model: on a
    /// chain DAG with a single job slot, the list-scheduled prediction
    /// *equals* the paper's per-round net time (each round holds exactly
    /// one job, and one slot forbids any overlap).
    #[test]
    fn predicted_net_time_equals_round_net_time_on_a_chain_with_one_slot() {
        let mut p = MrProgram::new();
        p.push_job(copy_job("a", "R", "X1"));
        p.push_job(copy_job("b", "X1", "X2"));
        p.push_job(copy_job("c", "X2", "X3"));
        let sched = DagScheduler::new(SchedulerConfig {
            max_concurrent_jobs: 1,
            ..SchedulerConfig::default()
        });
        let dfs = dfs_with(&["R"]);
        let stats = sched.execute_program(&executor(), &dfs, p).unwrap();
        let predicted = stats.predicted_net_time.expect("scheduled runs predict");
        assert!(
            (predicted - stats.net_time()).abs() < 1e-9,
            "predicted {predicted} vs per-round net {}",
            stats.net_time()
        );
        assert!(predicted > 0.0);
    }

    /// With slots to spare and an independent round, the prediction drops
    /// below the serial sum but never below the longest job.
    #[test]
    fn predicted_net_time_reflects_overlap() {
        let wide = || {
            let mut p = MrProgram::new();
            p.push_round(vec![copy_job("x", "R", "X"), copy_job("y", "R", "Y")]);
            p
        };
        let run = |slots| {
            let dfs = dfs_with(&["R"]);
            DagScheduler::new(SchedulerConfig {
                max_concurrent_jobs: slots,
                ..SchedulerConfig::default()
            })
            .execute_program(&executor(), &dfs, wide())
            .unwrap()
        };
        let serial = run(1);
        let overlapped = run(2);
        let p1 = serial.predicted_net_time.unwrap();
        let p2 = overlapped.predicted_net_time.unwrap();
        assert!(p2 < p1, "2 slots {p2} should predict under 1 slot {p1}");
        // Identical jobs either way, so p1 is exactly the serial sum.
        let per_job: f64 = p1 / 2.0;
        assert!((p2 - per_job).abs() < 1e-9, "two equal jobs overlap fully");
    }

    #[test]
    fn core_budget_sizes_per_job_threads_from_estimates() {
        use gumbo_mr::{CostConstants, CostModelKind, InputPartition, JobEstimate, JobProfile};
        let config = SchedulerConfig {
            max_concurrent_jobs: 4,
            core_budget: 16,
            ..SchedulerConfig::default()
        };
        // Share = 16 / 4 = 4 cores per concurrent job.
        let wide = JobEstimate::from_profile(
            CostModelKind::Gumbo,
            &CostConstants::default(),
            &JobProfile {
                partitions: vec![InputPartition {
                    label: "R".into(),
                    input: gumbo_common::ByteSize::mb(1000),
                    map_output: gumbo_common::ByteSize::mb(1000),
                    records_out: 0,
                    mappers: 32,
                }],
                reducers: 8,
                output: gumbo_common::ByteSize::mb(10),
            },
        );
        assert_eq!(wide.suggested_parallelism, 32);
        assert_eq!(config.threads_for(Some(&wide)), 4, "clamped to the share");
        let narrow = JobEstimate {
            suggested_parallelism: 2,
            ..wide.clone()
        };
        assert_eq!(
            config.threads_for(Some(&narrow)),
            2,
            "narrow jobs stay narrow"
        );
        assert_eq!(
            config.threads_for(None),
            4,
            "unannotated jobs get the share"
        );
        let disabled = SchedulerConfig::default();
        assert_eq!(disabled.threads_for(Some(&wide)), 0, "0 = executor sizing");
    }

    #[test]
    fn config_resolves_workers_and_executor_kind() {
        let auto = SchedulerConfig {
            max_concurrent_jobs: 0,
            threads_per_job: 0,
            ..SchedulerConfig::default()
        };
        assert!(auto.effective_workers() >= 1);
        assert_eq!(
            SchedulerConfig::default().executor_kind(ExecutorKind::Parallel { threads: 4 }),
            ExecutorKind::Parallel { threads: 1 }
        );
        assert_eq!(
            SchedulerConfig {
                threads_per_job: 3,
                ..SchedulerConfig::default()
            }
            .executor_kind(ExecutorKind::Parallel { threads: 0 }),
            ExecutorKind::Parallel { threads: 3 }
        );
        assert_eq!(
            SchedulerConfig {
                threads_per_job: 0,
                ..SchedulerConfig::default()
            }
            .executor_kind(ExecutorKind::Parallel { threads: 7 }),
            ExecutorKind::Parallel { threads: 7 }
        );
    }
}
