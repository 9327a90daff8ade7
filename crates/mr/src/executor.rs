//! The [`Executor`] trait: the job/program execution contract.
//!
//! The paper's algorithms are defined against an abstract MapReduce
//! substrate; this module pins down that substrate as a trait so the
//! query layers (`gumbo-core`, `gumbo-baselines`, `gumbo-bench`) never
//! depend on *how* a job runs. The one runtime is
//! [`crate::parallel::ParallelExecutor`]: map tasks, the partitioned
//! shuffle and reduce tasks run on a worker pool of any size, while every
//! stage is metered and priced by the paper's cost model (§3.3) and
//! scheduled onto the simulated cluster (§5.1). Wrappers (timing probes,
//! test doubles) implement the trait to stand in for it.
//!
//! The split planning, per-task map execution, packing byte-accounting,
//! reduce semantics and cost metering live here, shared by every thread
//! count — which is what makes the "byte-identical answers, identical
//! stats at any thread count" guarantee structural (see
//! `tests/executor_equivalence.rs` at the workspace root, which pins the
//! metered statistics of every preset to a golden table).

use std::collections::BTreeMap;

use gumbo_common::{ByteSize, Fact, GumboError, Relation, RelationName, Result};
use gumbo_storage::{Dfs, RelationScan};

use crate::batch_shuffle::{BatchGroups, PairBatch};
use crate::cluster::Cluster;
use crate::cost::{job_cost, CostConstants, CostModelKind};
use crate::job::Job;
use crate::message::Message;
use crate::metrics::{JobStats, ProgramStats, RoundStats};
use crate::profile::{InputPartition, JobProfile};
use crate::program::MrProgram;
use crate::shuffle::{MemBudget, MemoryBudget, SpillStats};

/// Engine configuration, shared by every executor.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Byte scale factor: measured byte/record counts are multiplied by this
    /// before entering the cost model, mapping laptop-sized relations onto
    /// the paper's 100M-tuple regime (e.g. 100k real tuples × scale 1000).
    pub scale: u64,
    /// The simulated cluster.
    pub cluster: Cluster,
    /// Cost-model constants (Table 5).
    pub constants: CostConstants,
    /// Cost model used for *measured* accounting. Execution always behaves
    /// the same; this only affects how observed jobs are priced. The
    /// planner may use a different model (that mismatch is the §5.2
    /// cost-model experiment).
    pub model: CostModelKind,
    /// Shuffle memory budget. When limited, each executor's jobs charge a
    /// shared [`MemoryBudget`] as map output lands in the per-reducer
    /// buffers, spilling sorted runs to disk (see [`crate::shuffle`])
    /// instead of exceeding it. Answers are byte-identical either way.
    pub mem_budget: MemBudget,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            scale: 1000,
            cluster: Cluster::default(),
            constants: CostConstants::default(),
            model: CostModelKind::Gumbo,
            mem_budget: MemBudget::UNLIMITED,
        }
    }
}

impl EngineConfig {
    /// An unscaled configuration (bytes enter the cost model as measured).
    pub fn unscaled() -> Self {
        EngineConfig {
            scale: 1,
            ..EngineConfig::default()
        }
    }

    /// Builder-style: set the shuffle memory budget.
    pub fn with_mem_budget(mut self, budget: MemBudget) -> Self {
        self.mem_budget = budget;
        self
    }
}

/// A MapReduce runtime: executes jobs and programs against a DFS while
/// collecting the paper's metrics.
///
/// Implementations must be *observationally identical*: the same program
/// over the same DFS yields the same answer relations and the same
/// [`JobStats`], whatever the runtime's internal scheduling. The shared
/// pipeline in this module provides that by construction; the runtime
/// only decides **where** each map/shuffle/reduce task runs.
///
/// Job execution is split into three phases so that concurrent schedulers
/// (the DAG scheduler in `gumbo-sched`) can interleave jobs on a shared
/// DFS: [`plan_job`] reads the inputs (shared access suffices — planning
/// owns its fact snapshots), [`Executor::run_phases`] does the
/// map/shuffle/reduce compute without touching the DFS at all, and
/// [`commit_job`] stores the outputs (exclusive access). The provided
/// [`Executor::execute_job`] chains the three, which is exactly the old
/// monolithic behavior.
///
/// Executors are `Send + Sync`: the scheduler shares one executor across
/// its worker threads.
pub trait Executor: Send + Sync {
    /// The configuration this executor runs under.
    fn config(&self) -> &EngineConfig;

    /// A short human-readable runtime name (for logs and reports).
    fn name(&self) -> &'static str;

    /// The shuffle memory tracker every job of this executor charges.
    /// One tracker per executor instance: jobs scheduled concurrently on
    /// the same executor (the DAG scheduler's mode of operation) share —
    /// and are collectively bounded by — a single budget.
    fn budget(&self) -> &MemoryBudget;

    /// Run the map, shuffle and reduce phases of a planned job. This is
    /// the pure compute part — no DFS access.
    fn run_phases(&self, job: &Job, plan: MapPlan) -> Result<ComputedJob>;

    /// [`Executor::run_phases`] with an explicit per-job worker count
    /// (`0` = keep this executor's own sizing). The DAG scheduler uses
    /// this to size each job's pool from its cost estimate under a
    /// total-core budget; runtimes without internal parallelism ignore
    /// the hint. Observational identity is preserved
    /// for any thread count, so per-job sizing can never change answers
    /// or metered statistics.
    fn run_phases_with(&self, job: &Job, plan: MapPlan, threads: usize) -> Result<ComputedJob> {
        let _ = threads;
        self.run_phases(job, plan)
    }

    /// Execute a single job: map → shuffle → reduce, with full metering.
    fn execute_job(&self, dfs: &dyn Dfs, job: &Job, round: usize) -> Result<JobStats> {
        let _span = gumbo_obs::span_with("job", |f| {
            f.str("job", &job.name);
            f.u64("round", round as u64);
        });
        let plan = plan_job(self.config(), dfs, job)?;
        let computed = self.run_phases(job, plan)?;
        commit_job(self.config(), dfs, job, round, computed)
    }

    /// Execute a program round by round against the DFS, returning the
    /// paper's four metrics plus per-job detail.
    fn execute(&self, dfs: &dyn Dfs, program: &MrProgram) -> Result<ProgramStats> {
        let mut stats = ProgramStats::default();
        for (round_idx, round) in program.rounds().iter().enumerate() {
            let mut round_jobs = Vec::with_capacity(round.len());
            for job in round {
                round_jobs.push(self.execute_job(dfs, job, round_idx)?);
            }
            stats.round_stats.push(RoundStats::pooled(
                round_jobs.iter(),
                self.config().cluster,
                self.config().constants.job_overhead,
            ));
            stats.jobs.extend(round_jobs);
        }
        Ok(stats)
    }
}

/// Which runtime to execute on — a small `Copy` token the upper layers
/// (engine options, CLI flags, bench configs) carry around and resolve
/// into a boxed [`Executor`] on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// The worker-pool runtime with this many worker threads
    /// (`0` = auto: min(available parallelism, cluster map slots)).
    Parallel {
        /// Worker thread count; `0` sizes the pool automatically.
        threads: usize,
    },
}

impl Default for ExecutorKind {
    /// One worker: every task runs on the calling thread, in task order.
    fn default() -> Self {
        ExecutorKind::Parallel { threads: 1 }
    }
}

impl ExecutorKind {
    /// Build the runtime for a configuration.
    pub fn build(self, config: EngineConfig) -> Box<dyn Executor> {
        let ExecutorKind::Parallel { threads } = self;
        Box::new(crate::parallel::ParallelExecutor::with_threads(
            config, threads,
        ))
    }

    /// Parse a CLI spelling: `parallel`, `parallel:N` for an explicit
    /// thread count, or `sim` / `simulated` as a spelling of `parallel:1`.
    pub fn parse(s: &str) -> Option<ExecutorKind> {
        match s {
            "sim" | "simulated" => Some(ExecutorKind::Parallel { threads: 1 }),
            "parallel" => Some(ExecutorKind::Parallel { threads: 0 }),
            _ => {
                let threads = s.strip_prefix("parallel:")?.parse().ok()?;
                Some(ExecutorKind::Parallel { threads })
            }
        }
    }

    /// The CLI spelling of this kind.
    pub fn label(&self) -> String {
        match self {
            ExecutorKind::Parallel { threads: 0 } => "parallel".to_string(),
            ExecutorKind::Parallel { threads } => format!("parallel:{threads}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared execution pipeline
// ---------------------------------------------------------------------------

/// One map task: a split of one input partition, with the facts it covers
/// (fact indices are positions in the relation's canonical order — the
/// tuple ids of the guard-reference optimization, §5.1 (2)).
pub(crate) struct MapTaskSpec {
    /// Index into `MapPlan::partitions` / `MapPlan::input_facts`.
    pub input_idx: usize,
    /// This split's range within the input's fact list.
    pub split: std::ops::Range<usize>,
}

/// The planned map phase of one job: per-input partitions (with mapper
/// counts fixed by the split-size rule) plus the concrete task list.
///
/// Inputs are held as *scans*, not materialized relations: a task's
/// facts are fetched from its input's [`RelationScan`] only when the
/// task runs (`MapPlan::task_facts`), so the whole relation is never
/// resident at once — on the file backend a task touches only the
/// segment frames covering its split. The scans are snapshots with no
/// borrow of the DFS instance, which is what lets a concurrent
/// scheduler run [`Executor::run_phases`] without holding any storage
/// lock. All read metering already happened at [`plan_job`] time.
pub struct MapPlan {
    /// Per-input metering skeletons; `map_output`/`records_out` are filled
    /// in by [`MapPlan::apply_counts`].
    pub(crate) partitions: Vec<InputPartition>,
    /// One open scan per input relation, in `job.inputs` order.
    pub(crate) input_scans: Vec<RelationScan>,
    /// All map tasks of the job, grouped by input and ordered by split.
    pub(crate) tasks: Vec<MapTaskSpec>,
}

impl MapPlan {
    /// Fetch the facts a task covers from its input's scan. Tuple ids are
    /// positions in the relation's canonical order (the guard-reference
    /// ids of §5.1 (2)) — the split's offset pins them regardless of
    /// which frames back the fetch.
    pub(crate) fn task_facts(&self, task: &MapTaskSpec) -> Result<Vec<(u64, Fact)>> {
        let scan = &self.input_scans[task.input_idx];
        let tuples = scan.fetch(task.split.clone())?;
        Ok(tuples
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                (
                    (task.split.start + i) as u64,
                    Fact::new(scan.name().clone(), t),
                )
            })
            .collect())
    }

    /// Resolve the job's reduce-task count from the measured input and
    /// intermediate sizes (call after [`MapPlan::apply_counts`]).
    pub(crate) fn resolve_reducers(&self, job: &Job) -> usize {
        let total_input = self.partitions.iter().map(|p| p.input).sum();
        let total_map_output = self.partitions.iter().map(|p| p.map_output).sum();
        job.config
            .reducer_policy
            .reducers(total_input, total_map_output)
    }
}

/// Plan the map phase: open a metered scan over every input, derive
/// mapper counts from the *scaled* sizes (the paper's regime), and cut
/// each relation into per-task splits.
///
/// Shared DFS access suffices: scans are metered through atomic counters
/// and the returned plan holds snapshot scans, not materialized
/// relations — facts stream in per task during the map phase.
pub fn plan_job(config: &EngineConfig, dfs: &dyn Dfs, job: &Job) -> Result<MapPlan> {
    let mut span = gumbo_obs::span_with("plan", |f| f.str("job", &job.name));
    let scale = config.scale.max(1);
    let mut partitions = Vec::with_capacity(job.inputs.len());
    let mut input_scans = Vec::with_capacity(job.inputs.len());
    let mut tasks = Vec::new();
    for (input_idx, input_name) in job.inputs.iter().enumerate() {
        let scan = dfs.scan(input_name)?;
        let real_input = scan.bytes();
        let scaled_input = real_input.scaled(scale);
        let n_facts = scan.len();
        // Mapper (split) count from the *scaled* size, clamped so every
        // task has at least one real fact.
        let mut mappers = job.config.mappers_for(scaled_input);
        if n_facts > 0 {
            mappers = mappers.min(n_facts);
        }
        let chunk = if n_facts == 0 {
            1
        } else {
            n_facts.div_ceil(mappers)
        };

        let chunk = chunk.max(1);
        for start in (0..n_facts).step_by(chunk) {
            tasks.push(MapTaskSpec {
                input_idx,
                split: start..(start + chunk).min(n_facts),
            });
        }
        input_scans.push(scan);

        partitions.push(InputPartition {
            label: input_name.to_string(),
            input: scaled_input,
            map_output: ByteSize::ZERO,
            records_out: 0,
            mappers,
        });
    }
    span.record(|f| {
        f.u64("inputs", partitions.len() as u64);
        f.u64("map_tasks", tasks.len() as u64);
    });
    Ok(MapPlan {
        partitions,
        input_scans,
        tasks,
    })
}

/// What one map task produced: its emitted pairs in emission order, held
/// as one columnar [`PairBatch`].
pub(crate) struct BatchMapResult {
    /// Emitted pairs in emission order, columnar.
    pub batch: PairBatch,
    /// Charged map-output bytes (packing-aware), unscaled.
    pub output_bytes: u64,
    /// Charged map-output records (packing-aware).
    pub records_out: u64,
}

/// Run one map task: apply the mapper to every fact of the split, landing
/// its output directly in a [`PairBatch`], and account bytes/records,
/// charging key bytes once per distinct key within the task when packing
/// is enabled (§5.1 (1)) — an index sort plus one linear scan.
pub(crate) fn run_map_task_batch(job: &Job, facts: &[(u64, Fact)]) -> BatchMapResult {
    let mut span = gumbo_obs::span_with("map:task", |f| {
        f.str("job", &job.name);
        f.u64("facts", facts.len() as u64);
    });
    let mut batch = PairBatch::new();
    for (index, fact) in facts {
        job.mapper
            .map(fact, *index, &mut |k, v| batch.push_pair(&k, &v));
    }
    let (output_bytes, records_out) = if job.config.packing {
        let order = batch.sort_indices();
        let mut bytes = 0u64;
        let mut records = 0u64;
        let mut at = 0;
        while at < order.len() {
            let first = order[at] as usize;
            let key = batch.key_view(first);
            // Key bytes counted once per distinct key within the task;
            // message bytes always.
            bytes += key.estimated_bytes();
            records += 1;
            while at < order.len() {
                let row = order[at] as usize;
                if batch.key_view(row) != key {
                    break;
                }
                bytes += batch.row_bytes(row) - key.estimated_bytes();
                at += 1;
            }
        }
        (bytes, records)
    } else {
        (batch.estimated_bytes(), batch.len() as u64)
    };
    span.record(|f| f.u64("records_out", records_out));
    BatchMapResult {
        batch,
        output_bytes,
        records_out,
    }
}

impl MapPlan {
    /// Fold per-task `(output_bytes, records_out)` counts (in task order)
    /// into the per-input partition metering, applying the byte scale
    /// once per partition.
    pub(crate) fn apply_counts(&mut self, scale: u64, counts: &[(u64, u64)]) {
        debug_assert_eq!(counts.len(), self.tasks.len());
        let mut raw_bytes = vec![0u64; self.partitions.len()];
        let mut raw_records = vec![0u64; self.partitions.len()];
        for (task, &(bytes, records)) in self.tasks.iter().zip(counts) {
            raw_bytes[task.input_idx] += bytes;
            raw_records[task.input_idx] += records;
        }
        for (i, p) in self.partitions.iter_mut().enumerate() {
            p.map_output = ByteSize::bytes(raw_bytes[i]).scaled(scale);
            p.records_out = raw_records[i] * scale;
        }
    }
}

/// Reduce one shuffle partition by streaming its key groups (keys in
/// canonical order, values in emission order — the order the bounded and
/// unlimited shuffles both guarantee) and collect the reducer's output
/// into fresh per-partition relations, rejecting emissions to undeclared
/// outputs exactly like the original engine did. One scratch value vector
/// is reused across groups.
pub(crate) fn run_reduce_stream(
    job: &Job,
    mut groups: BatchGroups<'_>,
) -> Result<BTreeMap<RelationName, Relation>> {
    let mut span = gumbo_obs::span_with("reduce:task", |f| f.str("job", &job.name));
    let mut outputs: BTreeMap<RelationName, Relation> = job
        .outputs
        .iter()
        .map(|(name, arity)| (name.clone(), Relation::new(name.clone(), *arity)))
        .collect();
    let mut values: Vec<Message> = Vec::new();
    while let Some(key) = groups.next_group_into(&mut values)? {
        let mut err: Option<GumboError> = None;
        job.reducer.reduce(&key, &values, &mut |rel_name, tuple| {
            if err.is_some() {
                return;
            }
            match outputs.get_mut(rel_name) {
                Some(rel) => {
                    if let Err(e) = rel.insert(tuple) {
                        err = Some(e);
                    }
                }
                None => {
                    err = Some(GumboError::Plan(format!(
                        "job {} emitted to undeclared output {rel_name}",
                        job.name
                    )));
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
    }
    span.record(|f| {
        f.u64(
            "output_tuples",
            outputs.values().map(|r| r.len() as u64).sum(),
        );
    });
    Ok(outputs)
}

/// The outcome of a job's map/shuffle/reduce phases, not yet committed to
/// the DFS: per-input metering, reducer accounting, and the per-partition
/// output relations awaiting the merge in [`commit_job`].
pub struct ComputedJob {
    pub(crate) partitions: Vec<InputPartition>,
    pub(crate) reducers: usize,
    pub(crate) reducer_bytes: Vec<u64>,
    pub(crate) partition_outputs: Vec<BTreeMap<RelationName, Relation>>,
    pub(crate) spill: SpillStats,
}

/// Merge per-partition reduce outputs (in partition order), store every
/// declared output to the DFS, and assemble the job's metered statistics.
/// This is the only phase that mutates the DFS.
pub fn commit_job(
    config: &EngineConfig,
    dfs: &dyn Dfs,
    job: &Job,
    round: usize,
    computed: ComputedJob,
) -> Result<JobStats> {
    let mut span = gumbo_obs::span_with("commit", |f| f.str("job", &job.name));
    let ComputedJob {
        partitions,
        reducers,
        reducer_bytes,
        partition_outputs,
        spill,
    } = computed;
    let scale = config.scale.max(1);
    let consts = &config.constants;

    let mut outputs: BTreeMap<RelationName, Relation> = job
        .outputs
        .iter()
        .map(|(name, arity)| (name.clone(), Relation::new(name.clone(), *arity)))
        .collect();
    for partial in partition_outputs {
        for (name, rel) in partial {
            let target = outputs.get_mut(&name).expect("declared output");
            for tuple in rel.iter() {
                target.insert(tuple.clone())?;
            }
        }
    }

    let mut output_tuples = 0u64;
    let mut output_bytes = ByteSize::ZERO;
    for rel in outputs.into_values() {
        output_tuples += rel.len() as u64;
        output_bytes += ByteSize::bytes(rel.estimated_bytes()).scaled(scale);
        dfs.store(rel)?;
    }

    let profile = JobProfile {
        partitions,
        reducers,
        output: output_bytes,
    };
    let map_cost: f64 = match config.model {
        CostModelKind::Gumbo => profile.partitions.iter().map(|p| consts.cost_map(p)).sum(),
        CostModelKind::Wang => {
            job_cost(CostModelKind::Wang, consts, &profile)
                - consts.job_overhead
                - consts.cost_red(profile.total_map_output(), reducers, output_bytes)
        }
    };
    let reduce_cost = consts.cost_red(profile.total_map_output(), reducers, output_bytes);
    let total_cost = consts.job_overhead + map_cost + reduce_cost;

    let mut map_task_durations = Vec::new();
    for p in &profile.partitions {
        let per_task = consts.cost_map(p) / p.mappers.max(1) as f64;
        map_task_durations.extend(std::iter::repeat_n(per_task, p.mappers));
    }
    // Distribute the (cost-model) reduce cost over tasks proportionally to
    // their actual byte loads — uniform when there is no data (or no
    // skew). Totals stay faithful to the paper's cost_red; only the
    // wall-clock distribution reflects skew.
    let shuffled: u64 = reducer_bytes.iter().sum();
    let reduce_task_durations: Vec<f64> = if shuffled == 0 {
        vec![reduce_cost / reducers.max(1) as f64; reducers]
    } else {
        reducer_bytes
            .iter()
            .map(|&b| reduce_cost * b as f64 / shuffled as f64)
            .collect()
    };

    static JOBS_COMMITTED: gumbo_obs::Counter = gumbo_obs::Counter::new("executor.jobs_committed");
    JOBS_COMMITTED.incr();

    let estimated_cost = job.estimate.as_ref().map(|e| e.total_cost);
    // The calibration ledger: every estimated job's span ends with the
    // estimated/observed cost pair and their ratio.
    span.record(|f| {
        // The job name again on the End event, so ledger consumers can
        // match commits without pairing Begin/End records first.
        f.str("job", &job.name);
        f.u64("output_tuples", output_tuples);
        f.f64("observed_cost", total_cost);
        if let Some(est) = estimated_cost {
            f.f64("estimated_cost", est);
            if est > 0.0 {
                f.f64("estimate_error", total_cost / est);
            }
        }
        if spill.spilled_bytes > 0 {
            f.u64("spilled_bytes", spill.spilled_bytes);
        }
    });

    Ok(JobStats {
        name: job.name.clone(),
        round,
        profile,
        map_cost,
        reduce_cost,
        total_cost,
        map_task_durations,
        reduce_task_durations,
        output_tuples,
        spilled_bytes: spill.spilled_bytes,
        spilled_disk_bytes: spill.spilled_disk_bytes,
        spill_files: spill.spill_files,
        spill_merge_passes: spill.merge_passes,
        estimated_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_kind_parses_cli_spellings() {
        // `sim` survives as a spelling of the one-worker runtime.
        assert_eq!(
            ExecutorKind::parse("sim"),
            Some(ExecutorKind::Parallel { threads: 1 })
        );
        assert_eq!(
            ExecutorKind::parse("simulated"),
            Some(ExecutorKind::Parallel { threads: 1 })
        );
        assert_eq!(
            ExecutorKind::default(),
            ExecutorKind::Parallel { threads: 1 }
        );
        assert_eq!(
            ExecutorKind::parse("parallel"),
            Some(ExecutorKind::Parallel { threads: 0 })
        );
        assert_eq!(
            ExecutorKind::parse("parallel:8"),
            Some(ExecutorKind::Parallel { threads: 8 })
        );
        assert_eq!(ExecutorKind::parse("hadoop"), None);
        assert_eq!(ExecutorKind::parse("parallel:x"), None);
    }

    #[test]
    fn executor_kind_labels_round_trip() {
        for kind in [
            ExecutorKind::default(),
            ExecutorKind::Parallel { threads: 0 },
            ExecutorKind::Parallel { threads: 4 },
        ] {
            assert_eq!(ExecutorKind::parse(&kind.label()), Some(kind));
        }
    }

    #[test]
    fn built_executors_report_config_and_name() {
        let config = EngineConfig::unscaled();
        let one = ExecutorKind::default().build(config);
        assert_eq!(one.name(), "parallel");
        assert_eq!(one.config().scale, 1);
        let par = ExecutorKind::Parallel { threads: 2 }.build(config);
        assert_eq!(par.name(), "parallel");
        assert_eq!(par.config().scale, 1);
    }
}
