//! The runtime: map, shuffle and reduce on a fixed worker pool.
//!
//! The paper evaluates *parallel* query plans on Hadoop; this runtime runs
//! a job's tasks on a small pool of scoped threads (no work-stealing
//! dependency) while every stage is metered for the cost model. With one
//! worker every task runs on the calling thread, in task order.
//!
//! 1. **map** — the job's map tasks (the splits [`crate::plan_job`]
//!    cuts) are pulled off a shared counter by the workers; each lands
//!    its output in one columnar [`crate::PairBatch`];
//! 2. **shuffle** — workers hash each task's rows once into per-reducer
//!    row-index lists (via [`crate::hash::partition_view`]); no row is
//!    copied yet;
//! 3. **reduce** — fused with the per-reducer drain: each reducer copies
//!    its rows out of the task batches in task order through a
//!    budget-charged spilling buffer ([`crate::batch_shuffle`]) —
//!    flushing sorted runs to disk whenever the shared memory budget
//!    demands it — then streams a merge of its spill runs plus the
//!    in-memory tail straight into the reduce function; outputs are
//!    collected in partition order on the caller's thread.
//!
//! Determinism: map results are re-assembled **in task order**, each
//! reducer's row stream is grouped with keys in sorted order and values
//! in global emission order (the spill merge reconstructs exactly the
//! in-memory grouping — see [`crate::batch_shuffle`]), per-partition
//! reduce outputs are sorted-set relations merged in partition order — so
//! answer relations and [`crate::JobStats`] are byte-identical whatever
//! the thread count, OS scheduling, or memory budget.
//! `tests/executor_equivalence.rs` (a golden table of every preset's
//! metered statistics) and the 1/4/16-thread smoke test at the workspace
//! root enforce this.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use gumbo_common::{Relation, RelationName, Result};

use crate::batch_shuffle::BatchPartition;
use crate::executor::{
    build_job_filters, run_map_task_batch, run_reduce_stream, BatchMapResult, ComputedJob,
    EngineConfig, Executor, MapPlan,
};
use crate::hash::partition_view;
use crate::job::Job;
use crate::shuffle::{MemoryBudget, ShuffleSpill, SpillStats};

/// The MapReduce runtime: a fixed pool of worker threads.
#[derive(Debug, Clone)]
pub struct ParallelExecutor {
    /// Engine configuration. The memory-budget tracker is bound at
    /// construction: mutating `config.mem_budget` on an existing executor
    /// has no effect — build a new one with
    /// [`ParallelExecutor::with_threads`].
    pub config: EngineConfig,
    /// Requested worker count; `0` = auto-size from the machine and the
    /// configured cluster.
    pub threads: usize,
    /// Shared shuffle memory tracker (clones share it, so a cloned
    /// executor draws from the same budget).
    budget: Arc<MemoryBudget>,
}

impl ParallelExecutor {
    /// An auto-sized pool: min(available parallelism, cluster map slots).
    pub fn new(config: EngineConfig) -> Self {
        ParallelExecutor::with_threads(config, 0)
    }

    /// A fixed-size pool of `threads` workers (`0` = auto).
    pub fn with_threads(config: EngineConfig, threads: usize) -> Self {
        ParallelExecutor {
            config,
            threads,
            budget: Arc::new(MemoryBudget::new(config.mem_budget)),
        }
    }

    /// The worker count this executor will actually use.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        let hw = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        hw.min(self.config.cluster.map_slots()).max(1)
    }
}

/// Run `n` independent tasks on up to `threads` scoped worker threads,
/// returning results **in task order**. Tasks are claimed from a shared
/// atomic counter, so long tasks don't stall short ones behind a static
/// partition. Worker panics propagate to the caller.
fn parallel_for<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("unpoisoned result slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("unpoisoned result slot")
                .expect("task completed")
        })
        .collect()
}

impl Executor for ParallelExecutor {
    fn config(&self) -> &EngineConfig {
        &self.config
    }

    fn name(&self) -> &'static str {
        "parallel"
    }

    fn budget(&self) -> &MemoryBudget {
        &self.budget
    }

    fn run_phases(&self, job: &Job, plan: MapPlan) -> Result<ComputedJob> {
        self.run_phases_with(job, plan, 0)
    }

    fn run_phases_with(&self, job: &Job, mut plan: MapPlan, threads: usize) -> Result<ComputedJob> {
        // 0 = this executor's own sizing; the DAG scheduler passes a
        // per-job count derived from the job's cost estimate under its
        // total-core budget.
        let workers = if threads > 0 {
            threads
        } else {
            self.effective_threads()
        };

        // ---- filter build (optional): serial, before map fan-out --------
        let filters = build_job_filters(&self.config, job, &plan)?;
        // ---- map phase: tasks fan out over the pool ---------------------
        // Planning (and its DFS read metering) happened on the caller's
        // thread; tasks fetch their facts from snapshot scans, so workers
        // never touch the DFS. The sealed filters are immutable and probed
        // from every worker.
        let map_span = gumbo_obs::span_with("map", |f| {
            f.str("job", &job.name);
            f.u64("tasks", plan.tasks.len() as u64);
            f.u64("workers", workers as u64);
        });
        let results: Vec<BatchMapResult> = parallel_for(plan.tasks.len(), workers, |i| {
            plan.task_facts(&plan.tasks[i])
                .map(|facts| run_map_task_batch(job, &facts, filters.as_ref()))
        })
        .into_iter()
        .collect::<Result<_>>()?;
        let counts: Vec<(u64, u64)> = results
            .iter()
            .map(|r| (r.output_bytes, r.records_out))
            .collect();
        plan.apply_counts(self.config.scale.max(1), &counts);
        drop(map_span);

        // ---- shuffle: route every task's rows to their reducers ---------
        let reducers = plan.resolve_reducers(job);
        let shuffle_span = gumbo_obs::span_with("shuffle:flush", |f| {
            f.str("job", &job.name);
            f.u64("reducers", reducers as u64);
        });
        // Workers hash each task's rows exactly once (a zero-copy key
        // view) into per-reducer row-index lists, ascending. No row moves
        // yet: the task batches stay where the map phase left them.
        let routes: Vec<Vec<Vec<u32>>> = parallel_for(results.len(), workers, |t| {
            let batch = &results[t].batch;
            let mut rows: Vec<Vec<u32>> = vec![Vec::new(); reducers];
            for row in 0..batch.len() {
                rows[partition_view(batch.key_view(row), reducers)].push(row as u32);
            }
            rows
        });
        drop(shuffle_span);

        // ---- reduce, fused with the per-reducer drain -------------------
        // Each reducer copies its rows out of the task batches in task
        // order (ascending row indices within a task), so values within a
        // key group end up in global emission order, through a
        // budget-charged spilling buffer; then it streams the merged
        // groups straight into the reduce function. Reducer workers run
        // concurrently and all charge the executor's shared memory budget.
        let reduce_span = gumbo_obs::span_with("reduce", |f| {
            f.str("job", &job.name);
            f.u64("reducers", reducers as u64);
        });
        let spill = ShuffleSpill::new(&job.name);
        let budget = &*self.budget;
        type ReducedPartition = Result<(BTreeMap<RelationName, Relation>, u64, SpillStats)>;
        let reduced: Vec<ReducedPartition> = parallel_for(reducers, workers, |p| {
            let mut part = BatchPartition::new(p, budget, &spill, reducers);
            for (result, rows) in results.iter().zip(&routes) {
                if !rows[p].is_empty() {
                    part.push_rows(&result.batch, &rows[p])?;
                }
            }
            let bytes = part.total_bytes();
            let (groups, stats) = part.into_groups()?;
            Ok((run_reduce_stream(job, groups)?, bytes, stats))
        });
        // Surface the first error in partition order, whatever order the
        // workers finished in.
        let mut partition_outputs = Vec::with_capacity(reduced.len());
        let mut reducer_bytes: Vec<u64> = Vec::with_capacity(reducers);
        let mut spill_stats = SpillStats::default();
        for outcome in reduced {
            let (outputs, bytes, stats) = outcome?;
            partition_outputs.push(outputs);
            reducer_bytes.push(bytes);
            spill_stats.absorb(stats);
        }
        drop(reduce_span);

        Ok(ComputedJob {
            partitions: plan.partitions,
            reducers,
            reducer_bytes,
            partition_outputs,
            spill: spill_stats,
            filter: filters.map(|f| f.stats()).unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobConfig, Mapper, Reducer, ReducerPolicy};
    use crate::message::{Message, Payload};
    use crate::program::MrProgram;
    use gumbo_common::{ByteSize, Fact, Relation, RelationName, Tuple};
    use gumbo_storage::SimDfs;

    /// One worker: the whole pipeline on the calling thread.
    fn one_worker(config: EngineConfig) -> ParallelExecutor {
        ParallelExecutor::with_threads(config, 1)
    }

    struct KeyByFirst;
    impl Mapper for KeyByFirst {
        fn map(&self, fact: &Fact, _i: u64, emit: &mut dyn FnMut(Tuple, Message)) {
            let key = Tuple::new(vec![fact.tuple.get(0).unwrap().clone()]);
            if fact.relation.as_str() == "R" {
                let rest = Tuple::new(vec![fact.tuple.get(1).unwrap().clone()]);
                emit(
                    key,
                    Message::Req {
                        cond: 0,
                        payload: Payload::Tuple(rest),
                    },
                );
            } else {
                emit(key, Message::Assert { cond: 0 });
            }
        }
    }

    struct EmitMatched;
    impl Reducer for EmitMatched {
        fn reduce(
            &self,
            key: &Tuple,
            values: &[Message],
            emit: &mut dyn FnMut(&RelationName, Tuple),
        ) {
            if values.iter().any(|m| matches!(m, Message::Assert { .. })) {
                for m in values {
                    if let Message::Req {
                        payload: Payload::Tuple(t),
                        ..
                    } = m
                    {
                        let mut vals: Vec<_> = key.values().to_vec();
                        vals.extend(t.values().iter().cloned());
                        emit(&"Z".into(), Tuple::new(vals));
                    }
                }
            }
        }
    }

    fn job() -> Job {
        Job {
            name: "MSJ(Z)".into(),
            inputs: vec!["R".into(), "S".into()],
            outputs: vec![("Z".into(), 2)],
            mapper: Box::new(KeyByFirst),
            reducer: Box::new(EmitMatched),
            config: JobConfig {
                reducer_policy: ReducerPolicy::Fixed(13),
                ..JobConfig::default()
            },
            estimate: None,
            filter: None,
        }
    }

    fn dfs(n: i64) -> SimDfs {
        let dfs = SimDfs::new();
        dfs.store(
            Relation::from_tuples("R", 2, (0..n).map(|i| Tuple::from_ints(&[i % 97, i]))).unwrap(),
        );
        dfs.store(
            Relation::from_tuples("S", 1, (0..n / 2).map(|i| Tuple::from_ints(&[i % 97]))).unwrap(),
        );
        dfs
    }

    /// A miniature single-semi-join job (§4.1's repartition join): guard
    /// R(x, z) requests on key z; conditional S(z, y) asserts on key z.
    struct SemiJoinMapper;
    impl Mapper for SemiJoinMapper {
        fn map(&self, fact: &Fact, _index: u64, emit: &mut dyn FnMut(Tuple, Message)) {
            let key = Tuple::new(vec![fact
                .tuple
                .get(if fact.relation.as_str() == "R" { 1 } else { 0 })
                .unwrap()
                .clone()]);
            if fact.relation.as_str() == "R" {
                let out = Tuple::new(vec![fact.tuple.get(0).unwrap().clone()]);
                emit(
                    key,
                    Message::Req {
                        cond: 0,
                        payload: Payload::Tuple(out),
                    },
                );
            } else {
                emit(key, Message::Assert { cond: 0 });
            }
        }
    }

    struct SemiJoinReducer;
    impl Reducer for SemiJoinReducer {
        fn reduce(
            &self,
            _key: &Tuple,
            values: &[Message],
            emit: &mut dyn FnMut(&RelationName, Tuple),
        ) {
            let asserted = values
                .iter()
                .any(|m| matches!(m, Message::Assert { cond: 0 }));
            if asserted {
                for m in values {
                    if let Message::Req {
                        cond: 0,
                        payload: Payload::Tuple(t),
                    } = m
                    {
                        emit(&"Z".into(), t.clone());
                    }
                }
            }
        }
    }

    fn semi_join_job() -> Job {
        Job {
            name: "MSJ(Z)".into(),
            inputs: vec!["R".into(), "S".into()],
            outputs: vec![("Z".into(), 1)],
            mapper: Box::new(SemiJoinMapper),
            reducer: Box::new(SemiJoinReducer),
            config: JobConfig::default(),
            estimate: None,
            filter: None,
        }
    }

    fn example3_dfs() -> SimDfs {
        // Example 3: I = {R(1,2), R(4,5), S(2,3)}.
        let dfs = SimDfs::new();
        dfs.store(
            Relation::from_tuples(
                "R",
                2,
                vec![Tuple::from_ints(&[1, 2]), Tuple::from_ints(&[4, 5])],
            )
            .unwrap(),
        );
        dfs.store(Relation::from_tuples("S", 2, vec![Tuple::from_ints(&[2, 3])]).unwrap());
        dfs
    }

    #[test]
    fn thread_count_never_changes_answers_or_stats() {
        let config = EngineConfig {
            scale: 100_000,
            ..EngineConfig::default()
        };
        let d_one = dfs(500);
        let one = one_worker(config).execute_job(&d_one, &job(), 0).unwrap();
        for threads in [3usize, 8] {
            let d_par = dfs(500);
            let par = ParallelExecutor::with_threads(config, threads);
            let par_stats = par.execute_job(&d_par, &job(), 0).unwrap();
            assert_eq!(
                d_one.peek(&"Z".into()).unwrap(),
                d_par.peek(&"Z".into()).unwrap(),
                "answers differ at {threads} threads"
            );
            assert_eq!(one.output_tuples, par_stats.output_tuples);
            assert_eq!(one.profile, par_stats.profile);
            assert_eq!(one.map_task_durations, par_stats.map_task_durations);
            assert_eq!(one.reduce_task_durations, par_stats.reduce_task_durations);
            assert!((one.total_cost - par_stats.total_cost).abs() < 1e-12);
        }
    }

    #[test]
    fn auto_sizing_is_positive_and_bounded() {
        let exec = ParallelExecutor::new(EngineConfig::default());
        let t = exec.effective_threads();
        assert!(t >= 1);
        assert!(t <= EngineConfig::default().cluster.map_slots());
        assert_eq!(
            ParallelExecutor::with_threads(EngineConfig::default(), 5).effective_threads(),
            5
        );
    }

    #[test]
    fn parallel_for_preserves_task_order() {
        for threads in [1usize, 2, 7] {
            let out = parallel_for(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_inputs_and_zero_tasks_work() {
        let d = SimDfs::new();
        d.store(Relation::new("R", 2));
        d.store(Relation::new("S", 1));
        let par = ParallelExecutor::with_threads(EngineConfig::unscaled(), 4);
        let stats = par.execute_job(&d, &job(), 0).unwrap();
        assert_eq!(stats.output_tuples, 0);
        assert!(d.exists(&"Z".into()));
    }

    #[test]
    fn reduce_errors_surface_deterministically() {
        struct BadReducer;
        impl Reducer for BadReducer {
            fn reduce(&self, _: &Tuple, _: &[Message], emit: &mut dyn FnMut(&RelationName, Tuple)) {
                emit(&"Undeclared".into(), Tuple::from_ints(&[1]));
            }
        }
        let bad = || Job {
            name: "bad".into(),
            inputs: vec!["R".into()],
            outputs: vec![],
            mapper: Box::new(KeyByFirst),
            reducer: Box::new(BadReducer),
            config: JobConfig::default(),
            estimate: None,
            filter: None,
        };
        let d = dfs(50);
        let par = ParallelExecutor::with_threads(EngineConfig::unscaled(), 4);
        let err = par.execute_job(&d, &bad(), 0).unwrap_err();
        let d2 = dfs(50);
        let one_err = one_worker(EngineConfig::unscaled())
            .execute_job(&d2, &bad(), 0)
            .unwrap_err();
        assert_eq!(err.to_string(), one_err.to_string());
        assert!(err.to_string().contains("undeclared output"), "{err}");
    }

    #[test]
    fn example3_semijoin_executes_correctly() {
        let dfs = example3_dfs();
        let engine = one_worker(EngineConfig::unscaled());
        let mut program = MrProgram::new();
        program.push_job(semi_join_job());
        let stats = engine.execute(&dfs, &program).unwrap();
        let z = dfs.peek(&"Z".into()).unwrap();
        assert_eq!(z.len(), 1);
        assert!(z.contains(&Tuple::from_ints(&[1])));
        assert_eq!(stats.jobs[0].output_tuples, 1);
        assert!(stats.net_time() > 0.0);
        assert!(stats.total_time() >= stats.net_time() || stats.num_jobs() == 1);
    }

    #[test]
    fn per_input_partitions_are_metered_separately() {
        let dfs = example3_dfs();
        let engine = one_worker(EngineConfig::unscaled());
        let stats = engine.execute_job(&dfs, &semi_join_job(), 0).unwrap();
        assert_eq!(stats.profile.partitions.len(), 2);
        assert_eq!(stats.profile.partitions[0].label, "R");
        // R has 2 tuples of 20 B; S has 1.
        assert_eq!(stats.profile.partitions[0].input, ByteSize::bytes(40));
        assert_eq!(stats.profile.partitions[1].input, ByteSize::bytes(20));
    }

    #[test]
    fn scale_multiplies_metrics_but_not_results() {
        let dfs1 = example3_dfs();
        let dfs2 = example3_dfs();
        let e1 = one_worker(EngineConfig {
            scale: 1,
            ..EngineConfig::default()
        });
        let e2 = one_worker(EngineConfig {
            scale: 1_000_000,
            ..EngineConfig::default()
        });
        let s1 = e1.execute_job(&dfs1, &semi_join_job(), 0).unwrap();
        let s2 = e2.execute_job(&dfs2, &semi_join_job(), 0).unwrap();
        // Same logical result.
        assert_eq!(
            dfs1.peek(&"Z".into()).unwrap(),
            dfs2.peek(&"Z".into()).unwrap()
        );
        // Scaled metrics.
        assert_eq!(s2.input_bytes(), s1.input_bytes().scaled(1_000_000));
        assert!(s2.total_cost > s1.total_cost);
    }

    #[test]
    fn undeclared_output_is_an_error() {
        struct BadReducer;
        impl Reducer for BadReducer {
            fn reduce(&self, _: &Tuple, _: &[Message], emit: &mut dyn FnMut(&RelationName, Tuple)) {
                emit(&"Nope".into(), Tuple::from_ints(&[1]));
            }
        }
        let dfs = example3_dfs();
        let job = Job {
            name: "bad".into(),
            inputs: vec!["R".into()],
            outputs: vec![],
            mapper: Box::new(SemiJoinMapper),
            reducer: Box::new(BadReducer),
            config: JobConfig::default(),
            estimate: None,
            filter: None,
        };
        let engine = one_worker(EngineConfig::unscaled());
        assert!(engine.execute_job(&dfs, &job, 0).is_err());
    }

    #[test]
    fn declared_outputs_exist_even_when_empty() {
        let dfs = SimDfs::new();
        dfs.store(Relation::new("R", 2));
        dfs.store(Relation::new("S", 2));
        let engine = one_worker(EngineConfig::unscaled());
        engine.execute_job(&dfs, &semi_join_job(), 0).unwrap();
        assert!(dfs.exists(&"Z".into()));
        assert_eq!(dfs.peek(&"Z".into()).unwrap().len(), 0);
    }

    #[test]
    fn packing_reduces_shuffle_bytes() {
        // Many R tuples sharing one join key: packed key bytes counted once.
        let mut rel = Relation::new("R", 2);
        for i in 0..100 {
            rel.insert(Tuple::from_ints(&[i, 7])).unwrap();
        }
        let dfs_packed = SimDfs::new();
        dfs_packed.store(rel.clone());
        dfs_packed.store(Relation::from_tuples("S", 2, vec![Tuple::from_ints(&[7, 0])]).unwrap());
        let dfs_plain = SimDfs::new();
        dfs_plain.store(rel);
        dfs_plain.store(Relation::from_tuples("S", 2, vec![Tuple::from_ints(&[7, 0])]).unwrap());

        let engine = one_worker(EngineConfig::unscaled());
        let mut packed_job = semi_join_job();
        packed_job.config.packing = true;
        let mut plain_job = semi_join_job();
        plain_job.config.packing = false;

        let packed = engine.execute_job(&dfs_packed, &packed_job, 0).unwrap();
        let plain = engine.execute_job(&dfs_plain, &plain_job, 0).unwrap();
        assert!(packed.communication_bytes() < plain.communication_bytes());
        // Results identical.
        assert_eq!(
            dfs_packed.peek(&"Z".into()).unwrap(),
            dfs_plain.peek(&"Z".into()).unwrap()
        );
    }

    #[test]
    fn fixed_reducer_policy_is_respected() {
        let dfs = example3_dfs();
        let mut job = semi_join_job();
        job.config.reducer_policy = ReducerPolicy::Fixed(7);
        let engine = one_worker(EngineConfig::unscaled());
        let stats = engine.execute_job(&dfs, &job, 0).unwrap();
        assert_eq!(stats.profile.reducers, 7);
        assert_eq!(stats.reduce_task_durations.len(), 7);
    }

    #[test]
    fn missing_input_errors() {
        let dfs = SimDfs::new();
        let engine = one_worker(EngineConfig::unscaled());
        assert!(engine.execute_job(&dfs, &semi_join_job(), 0).is_err());
    }

    #[test]
    fn round_concurrency_lowers_net_time() {
        // Two identical independent jobs: one round of two jobs must have a
        // lower net time than two rounds of one (same total time).
        let make_dfs = || {
            let dfs = example3_dfs();
            dfs.store(
                Relation::from_tuples(
                    "R2",
                    2,
                    vec![Tuple::from_ints(&[1, 2]), Tuple::from_ints(&[4, 5])],
                )
                .unwrap(),
            );
            dfs.store(Relation::from_tuples("S2", 2, vec![Tuple::from_ints(&[2, 3])]).unwrap());
            dfs
        };
        let job2 = || Job {
            name: "MSJ(Z2)".into(),
            inputs: vec!["R2".into(), "S2".into()],
            outputs: vec![("Z2".into(), 1)],
            mapper: Box::new(SemiJoinMapper2),
            reducer: Box::new(SemiJoinReducer2),
            config: JobConfig::default(),
            estimate: None,
            filter: None,
        };

        struct SemiJoinMapper2;
        impl Mapper for SemiJoinMapper2 {
            fn map(&self, fact: &Fact, _i: u64, emit: &mut dyn FnMut(Tuple, Message)) {
                let pos = if fact.relation.as_str() == "R2" { 1 } else { 0 };
                let key = Tuple::new(vec![fact.tuple.get(pos).unwrap().clone()]);
                if fact.relation.as_str() == "R2" {
                    let out = Tuple::new(vec![fact.tuple.get(0).unwrap().clone()]);
                    emit(
                        key,
                        Message::Req {
                            cond: 0,
                            payload: Payload::Tuple(out),
                        },
                    );
                } else {
                    emit(key, Message::Assert { cond: 0 });
                }
            }
        }
        struct SemiJoinReducer2;
        impl Reducer for SemiJoinReducer2 {
            fn reduce(
                &self,
                _k: &Tuple,
                values: &[Message],
                emit: &mut dyn FnMut(&RelationName, Tuple),
            ) {
                if values.iter().any(|m| matches!(m, Message::Assert { .. })) {
                    for m in values {
                        if let Message::Req {
                            payload: Payload::Tuple(t),
                            ..
                        } = m
                        {
                            emit(&"Z2".into(), t.clone());
                        }
                    }
                }
            }
        }

        let engine = one_worker(EngineConfig::default());
        let mut parallel = MrProgram::new();
        parallel.push_round(vec![semi_join_job(), job2()]);
        let mut sequential = MrProgram::new();
        sequential.push_job(semi_join_job());
        sequential.push_job(job2());

        let d1 = make_dfs();
        let p_stats = engine.execute(&d1, &parallel).unwrap();
        let d2 = make_dfs();
        let s_stats = engine.execute(&d2, &sequential).unwrap();

        assert!(p_stats.net_time() < s_stats.net_time());
        assert!((p_stats.total_time() - s_stats.total_time()).abs() < 1e-9);
    }
}
