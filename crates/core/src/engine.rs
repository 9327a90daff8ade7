//! The Gumbo engine: plan and execute SGF queries end to end.
//!
//! Evaluation follows the paper's two-tier strategy (§4.6): first choose a
//! multiway topological sort of the BSGF dependency graph (`Greedy-SGF`,
//! sequential, level-parallel, or brute-force optimal), then plan each
//! group as a set of BSGF queries (`Greedy-BSGF`, singletons = PAR, a
//! single MSJ job, or brute-force optimal), optionally fusing a group into
//! a 1-ROUND job when its structure permits (§5.1 (4)). Groups execute in
//! order; each group is planned against *live* statistics, since earlier
//! groups' outputs are materialized by the time later groups are planned.

use gumbo_common::{GumboError, Relation, Result};
use gumbo_mr::{
    CostModelKind, EngineConfig, Executor, ExecutorKind, JobConfig, MrProgram, ProgramStats,
};
use gumbo_sched::{DagScheduler, SchedulerConfig};
use gumbo_sgf::{BsgfQuery, DependencyGraph, MultiwayTopoSort, SgfQuery};
use gumbo_storage::Dfs;

use crate::estimate::Estimator;
use crate::plan::{BsgfSetPlan, OneRoundKind, PayloadMode};
use crate::planner::greedy_bsgf::Block;
use crate::planner::{greedy_partition, greedy_sgf_sort, optimal_partition, optimal_sgf_sort};
use crate::semijoin::QueryContext;

/// How each group's semi-joins are partitioned into MSJ jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Grouping {
    /// `Greedy-BSGF` (§4.4) — the paper's GREEDY strategy.
    #[default]
    Greedy,
    /// Every semi-join in its own job — the paper's PAR strategy.
    Singletons,
    /// All semi-joins in one MSJ job.
    SingleJob,
    /// Brute-force optimal partition (small queries only).
    BruteForce,
}

/// How the SGF dependency graph is ordered into groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortStrategy {
    /// `Greedy-SGF` (§4.6).
    #[default]
    GreedySgf,
    /// One BSGF per group in definition order — SEQUNIT (§5.3).
    Sequential,
    /// Level-by-level (dependency depth) — PARUNIT (§5.3).
    Levels,
    /// Brute-force optimal sort (small queries only).
    Optimal,
    /// Dynamic `Greedy-SGF`: re-run the greedy sort after every group
    /// executes, planning each next group against live statistics (the
    /// "naive dynamic evaluation strategy" the paper sketches at the end
    /// of §4.6).
    DynamicGreedy,
}

/// Everything configurable about evaluation.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Per-group partitioning strategy.
    pub grouping: Grouping,
    /// Dependency-graph ordering strategy.
    pub sort: SortStrategy,
    /// Payload mode (guard references by default, §5.1 (2)).
    pub mode: PayloadMode,
    /// Fuse a group into a 1-ROUND job when its structure permits.
    pub enable_one_round: bool,
    /// Per-job configuration (packing, reducer policy, split size).
    pub job_config: JobConfig,
    /// Cost model the *planner* uses (the engine always meters with its
    /// own model; §5.2 compares planners under Gumbo vs Wang models).
    pub planner_model: CostModelKind,
    /// Sample size for conformance-rate estimation.
    pub sample_size: usize,
    /// Sampling seed.
    pub seed: u64,
    /// When set, planned programs execute on the dependency-driven DAG
    /// scheduler (jobs start the moment their inputs are materialized,
    /// bounded by `max_concurrent_jobs`) instead of the round barrier.
    /// Answer relations and per-job statistics are identical either way;
    /// only real wall-clock changes.
    pub scheduler: Option<SchedulerConfig>,
    /// Shuffle memory budget (`--mem-budget` on the CLI). When limited,
    /// it overrides [`gumbo_mr::EngineConfig::mem_budget`] for the
    /// runtime this engine builds: map output is charged against one
    /// shared tracker and per-reducer buffers spill sorted runs to disk
    /// rather than exceed it. Answer relations and all non-spill
    /// statistics are identical to unlimited execution. A limited
    /// [`SchedulerConfig::mem_budget`] takes precedence on the scheduled
    /// path.
    pub mem_budget: gumbo_mr::MemBudget,
    /// Block-cache budget, in bytes, for durable DFS backends
    /// (`--dfs-cache` on the CLI). The engine itself never constructs a
    /// DFS — whoever does (the CLI, the bench harness, a test) reads this
    /// knob when building a [`gumbo_storage::FileDfs`]. `None` keeps
    /// [`gumbo_storage::DEFAULT_CACHE_BYTES`]. Cache sizing can change
    /// wall clock and cache counters only, never answers or byte meters.
    pub dfs_cache: Option<u64>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            grouping: Grouping::Greedy,
            sort: SortStrategy::GreedySgf,
            mode: PayloadMode::Reference,
            enable_one_round: true,
            job_config: JobConfig::default(),
            planner_model: CostModelKind::Gumbo,
            sample_size: 64,
            seed: 0x6d5b_0000,
            scheduler: None,
            mem_budget: gumbo_mr::MemBudget::UNLIMITED,
            dfs_cache: None,
        }
    }
}

impl EvalOptions {
    /// Builder-style: set the shuffle memory budget.
    pub fn with_mem_budget(mut self, budget: gumbo_mr::MemBudget) -> Self {
        self.mem_budget = budget;
        self
    }

    /// Builder-style: route execution through the DAG scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Builder-style: set the durable-DFS block-cache budget in bytes.
    pub fn with_dfs_cache(mut self, bytes: u64) -> Self {
        self.dfs_cache = Some(bytes);
        self
    }
}

/// The Gumbo query engine.
///
/// Planning is independent of the runtime; execution is routed through
/// the [`Executor`] trait onto [`gumbo_mr::ParallelExecutor`] with one
/// worker by default, or any pool size — see
/// [`GumboEngine::with_executor`].
#[derive(Debug, Clone, Copy)]
pub struct GumboEngine {
    /// The MapReduce substrate configuration (scale, cluster, cost model).
    pub config: EngineConfig,
    /// Which runtime executes the planned programs.
    pub executor: ExecutorKind,
    /// Evaluation options.
    pub options: EvalOptions,
}

impl GumboEngine {
    /// Create an engine on the default runtime (one worker).
    pub fn new(config: EngineConfig, options: EvalOptions) -> Self {
        GumboEngine::with_executor(config, ExecutorKind::default(), options)
    }

    /// Create an engine on an explicit runtime.
    pub fn with_executor(
        config: EngineConfig,
        executor: ExecutorKind,
        options: EvalOptions,
    ) -> Self {
        GumboEngine {
            config,
            executor,
            options,
        }
    }

    /// Engine with default configuration and options.
    pub fn with_defaults() -> Self {
        GumboEngine::new(EngineConfig::default(), EvalOptions::default())
    }

    /// The runtime this engine executes on. Under a scheduler, the
    /// parallel runtime is resized to the configured threads-per-job (the
    /// scheduler supplies inter-job parallelism, so per-job pools shrink).
    ///
    /// The shuffle memory budget resolves outermost-wins: a limited
    /// [`SchedulerConfig::mem_budget`] beats a limited
    /// [`EvalOptions::mem_budget`] beats the engine configuration's.
    pub fn runtime(&self) -> Box<dyn Executor> {
        let mut config = self.config;
        if self.options.mem_budget.is_limited() {
            config.mem_budget = self.options.mem_budget;
        }
        let kind = match self.options.scheduler {
            Some(sched) => {
                config = sched.engine_config(config);
                sched.executor_kind(self.executor)
            }
            None => self.executor,
        };
        kind.build(config)
    }

    /// Execute one planned program on the configured path: the
    /// dependency-driven DAG scheduler when [`EvalOptions::scheduler`] is
    /// set, the round barrier otherwise.
    fn execute_program(
        &self,
        runtime: &dyn Executor,
        dfs: &dyn Dfs,
        program: MrProgram,
    ) -> Result<ProgramStats> {
        let span = gumbo_obs::span_with("execute", |f| {
            f.u64("jobs", program.num_jobs() as u64);
            f.bool("dag", self.options.scheduler.is_some());
        });
        let result = match self.options.scheduler {
            Some(config) => DagScheduler::new(config).execute_program(runtime, dfs, program),
            None => runtime.execute(dfs, &program),
        };
        drop(span);
        result
    }

    fn estimator<'a>(&self, dfs: &'a dyn Dfs) -> Estimator<'a> {
        Estimator::new(
            dfs,
            self.config.scale,
            self.config.constants,
            self.options.planner_model,
            self.options.sample_size,
            self.options.seed,
        )
    }

    /// Choose the multiway topological sort for an SGF query.
    pub fn sort_for(&self, dfs: &dyn Dfs, query: &SgfQuery) -> Result<MultiwayTopoSort> {
        let graph = DependencyGraph::new(query);
        Ok(match self.options.sort {
            SortStrategy::Sequential => graph.sequential_sort(),
            SortStrategy::Levels => graph.level_sort(),
            SortStrategy::GreedySgf | SortStrategy::DynamicGreedy => greedy_sgf_sort(query),
            SortStrategy::Optimal => {
                let (sort, _) = optimal_sgf_sort(query, &mut |s| self.sort_cost(dfs, query, s))?;
                sort
            }
        })
    }

    /// Estimated cost of evaluating `query` under a given sort (Eq. 10),
    /// registering output upper bounds between groups.
    pub fn sort_cost(
        &self,
        dfs: &dyn Dfs,
        query: &SgfQuery,
        sort: &MultiwayTopoSort,
    ) -> Result<f64> {
        let mut est = self.estimator(dfs);
        let mut total = 0.0;
        for group in sort {
            let queries: Vec<BsgfQuery> =
                group.iter().map(|&i| query.queries()[i].clone()).collect();
            let ctx = QueryContext::new(queries)?;
            let plan = self.plan_group(&est, &ctx)?;
            total += est.plan_cost(&ctx, &plan)?;
            for &i in group {
                let q = &query.queries()[i];
                let bound = est.output_upper_bound(q)?;
                est.catalog_mut().insert(q.output().clone(), bound);
            }
        }
        Ok(total)
    }

    /// Plan one group of BSGF queries.
    pub fn plan_group(&self, est: &Estimator<'_>, ctx: &QueryContext) -> Result<BsgfSetPlan> {
        let cfg = self.options.job_config;
        if self.options.enable_one_round {
            if ctx.all_same_key_fusible() {
                return Ok(BsgfSetPlan::one_round(OneRoundKind::SameKey, cfg));
            }
            let all_disjunctive = !ctx.queries().is_empty()
                && (0..ctx.queries().len()).all(|q| ctx.disjunctive_fusible(q));
            if all_disjunctive {
                return Ok(BsgfSetPlan::one_round(OneRoundKind::Disjunctive, cfg));
            }
        }
        let n = ctx.semijoins().len();
        let mode = self.options.mode;
        let groups: Vec<Vec<usize>> = match self.options.grouping {
            Grouping::Singletons => (0..n).map(|i| vec![i]).collect(),
            Grouping::SingleJob => {
                if n == 0 {
                    vec![]
                } else {
                    vec![(0..n).collect()]
                }
            }
            Grouping::Greedy | Grouping::BruteForce => {
                let mut failure: Option<GumboError> = None;
                let mut cost_fn = |b: &Block| {
                    let ids: Vec<usize> = b.iter().copied().collect();
                    match est.msj_cost(ctx, &ids, mode, &cfg) {
                        Ok(c) => c,
                        Err(e) => {
                            failure.get_or_insert(e);
                            f64::MAX
                        }
                    }
                };
                let (blocks, _) = match self.options.grouping {
                    Grouping::Greedy => greedy_partition(n, &mut cost_fn),
                    Grouping::BruteForce => optimal_partition(n, &mut cost_fn),
                    _ => unreachable!(),
                };
                if let Some(e) = failure {
                    return Err(e);
                }
                blocks
                    .into_iter()
                    .map(|b| b.into_iter().collect())
                    .collect()
            }
        };
        Ok(BsgfSetPlan::two_round(groups, mode, cfg))
    }

    /// Start a builder-style evaluation request — the one entrypoint
    /// behind the former `evaluate*` sprawl. Configure with
    /// [`EvalRequest::on`] / [`EvalRequest::with_sort`] /
    /// [`EvalRequest::dynamic`], then finish with one of the `run*`
    /// methods against any [`Dfs`] backend.
    ///
    /// ```ignore
    /// let stats = engine.eval().run(&dfs, &query)?;                  // was evaluate
    /// let stats = engine.eval().on(&*rt).run(&dfs, &query)?;         // was evaluate_on
    /// let stats = engine.eval().with_sort(&sort).run(&dfs, &query)?; // was evaluate_with_sort
    /// ```
    pub fn eval(&self) -> EvalRequest<'_> {
        EvalRequest {
            engine: self,
            runtime: None,
            sort: None,
            dynamic: false,
        }
    }

    /// Evaluate a full SGF query: sort, then plan and execute each group.
    ///
    /// All outputs (final and intermediate `Z`s, plus `X` temporaries) are
    /// left in the DFS; returns the execution statistics. Shorthand for
    /// `self.eval().run(dfs, query)`.
    pub fn evaluate(&self, dfs: &dyn Dfs, query: &SgfQuery) -> Result<ProgramStats> {
        self.eval().run(dfs, query)
    }

    /// Dynamic `Greedy-SGF` (§4.6, closing remark): after each group is
    /// executed, re-run the greedy sort on the *remaining* subqueries —
    /// whose already-computed inputs are now materialized base relations —
    /// and execute the new first group.
    fn evaluate_dynamic_on(
        &self,
        runtime: &dyn Executor,
        dfs: &dyn Dfs,
        query: &SgfQuery,
    ) -> Result<ProgramStats> {
        let mut stats = ProgramStats::default();
        let mut remaining: Vec<BsgfQuery> = query.queries().to_vec();
        while !remaining.is_empty() {
            let rest = SgfQuery::new(remaining.clone())?;
            let sort = greedy_sgf_sort(&rest);
            let first: Vec<usize> = sort.into_iter().next().expect("non-empty query");
            let queries: Vec<BsgfQuery> =
                first.iter().map(|&i| rest.queries()[i].clone()).collect();
            let ctx = QueryContext::new(queries)?;
            let program = {
                let est = self.estimator(dfs);
                let plan = self.plan_group(&est, &ctx)?;
                // Annotate each job with the estimation layer's numbers,
                // so the scheduler places/sizes from the same estimates
                // the planner just optimized.
                plan.build_annotated_program(&ctx, &est)?
            };
            stats.extend(self.execute_program(runtime, dfs, program)?);
            let mut keep = Vec::with_capacity(remaining.len() - first.len());
            for (i, q) in remaining.into_iter().enumerate() {
                if !first.contains(&i) {
                    keep.push(q);
                }
            }
            remaining = keep;
        }
        Ok(stats)
    }

    /// Evaluate under an explicit (validated) multiway topological sort.
    fn evaluate_with_sort_on(
        &self,
        runtime: &dyn Executor,
        dfs: &dyn Dfs,
        query: &SgfQuery,
        sort: &MultiwayTopoSort,
    ) -> Result<ProgramStats> {
        DependencyGraph::new(query).validate_sort(sort)?;
        let mut stats = ProgramStats::default();
        for group in sort {
            let queries: Vec<BsgfQuery> =
                group.iter().map(|&i| query.queries()[i].clone()).collect();
            let ctx = QueryContext::new(queries)?;
            // Plan against live statistics: earlier groups are
            // materialized. The chosen plan's jobs are annotated with
            // their estimates (the shared estimation layer) before
            // execution, so the scheduled path can place by cost.
            let program = {
                let est = self.estimator(dfs);
                let plan = self.plan_group(&est, &ctx)?;
                plan.build_annotated_program(&ctx, &est)?
            };
            stats.extend(self.execute_program(runtime, dfs, program)?);
        }
        Ok(stats)
    }
}

/// One evaluation, assembled builder-style from [`GumboEngine::eval`].
///
/// The request borrows the engine (options, config, executor kind), an
/// optional caller-supplied runtime, and an optional explicit sort; the
/// DFS backend is handed to the terminal `run*` call, so one request can
/// be reused across backends. Handing a runtime in with
/// [`EvalRequest::on`] keeps it inspectable afterwards — e.g. reading
/// [`Executor::budget`] for peak tracked shuffle memory — and lets
/// several evaluations share one memory budget.
#[derive(Clone, Copy)]
pub struct EvalRequest<'a> {
    engine: &'a GumboEngine,
    runtime: Option<&'a dyn Executor>,
    sort: Option<&'a MultiwayTopoSort>,
    dynamic: bool,
}

impl<'a> EvalRequest<'a> {
    /// Run on a caller-supplied runtime instead of building one from the
    /// engine's configuration.
    pub fn on(mut self, runtime: &'a dyn Executor) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// Pin an explicit multiway topological sort (validated at run time)
    /// instead of deriving one from [`EvalOptions::sort`].
    pub fn with_sort(mut self, sort: &'a MultiwayTopoSort) -> Self {
        self.sort = Some(sort);
        self
    }

    /// Force dynamic `Greedy-SGF` re-sorting between groups, regardless
    /// of [`EvalOptions::sort`].
    pub fn dynamic(mut self) -> Self {
        self.dynamic = true;
        self
    }

    /// Evaluate a full SGF query against `dfs`. All outputs (final and
    /// intermediate `Z`s, plus `X` temporaries) are left in the DFS.
    pub fn run(&self, dfs: &dyn Dfs, query: &SgfQuery) -> Result<ProgramStats> {
        match self.runtime {
            Some(rt) => self.run_on(rt, dfs, query),
            None => self.run_on(&*self.engine.runtime(), dfs, query),
        }
    }

    /// Evaluate several SGF queries together over the union of their BSGF
    /// subqueries (§4.7), exploiting cross-query overlap.
    pub fn run_many(&self, dfs: &dyn Dfs, queries: &[SgfQuery]) -> Result<ProgramStats> {
        let combined = SgfQuery::union(queries)?;
        self.run(dfs, &combined)
    }

    /// Evaluate a single BSGF query.
    pub fn run_bsgf(&self, dfs: &dyn Dfs, query: &BsgfQuery) -> Result<ProgramStats> {
        self.run(dfs, &SgfQuery::single(query.clone()))
    }

    /// Evaluate and return the final output relation alongside statistics.
    pub fn run_with_output(
        &self,
        dfs: &dyn Dfs,
        query: &SgfQuery,
    ) -> Result<(ProgramStats, Relation)> {
        let stats = self.run(dfs, query)?;
        let out = dfs.peek(query.output())?;
        Ok((stats, out.as_ref().clone()))
    }

    fn run_on(
        &self,
        runtime: &dyn Executor,
        dfs: &dyn Dfs,
        query: &SgfQuery,
    ) -> Result<ProgramStats> {
        if let Some(sort) = self.sort {
            return self.engine.evaluate_with_sort_on(runtime, dfs, query, sort);
        }
        if self.dynamic || self.engine.options.sort == SortStrategy::DynamicGreedy {
            return self.engine.evaluate_dynamic_on(runtime, dfs, query);
        }
        let sort = self.engine.sort_for(dfs, query)?;
        self.engine
            .evaluate_with_sort_on(runtime, dfs, query, &sort)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo_common::{Database, Relation, Tuple};
    use gumbo_sgf::{parse_program, parse_query, NaiveEvaluator};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_db(seed: u64) -> Database {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new();
        for (name, arity, n) in [
            ("R", 2usize, 60i64),
            ("G", 2, 50),
            ("S", 1, 20),
            ("T", 1, 20),
            ("U", 2, 30),
        ] {
            let mut rel = Relation::new(name, arity);
            for _ in 0..n {
                let t: Vec<i64> = (0..arity).map(|_| rng.gen_range(0..25)).collect();
                rel.insert(Tuple::from_ints(&t)).unwrap();
            }
            db.add_relation(rel);
        }
        db
    }

    fn engines() -> Vec<(&'static str, GumboEngine)> {
        let base = EngineConfig::unscaled();
        let mk = |grouping, sort, mode, one_round| {
            GumboEngine::new(
                base,
                EvalOptions {
                    grouping,
                    sort,
                    mode,
                    enable_one_round: one_round,
                    ..EvalOptions::default()
                },
            )
        };
        let parallel = GumboEngine::with_executor(
            base,
            ExecutorKind::Parallel { threads: 4 },
            EvalOptions::default(),
        );
        let scheduled = GumboEngine::new(
            base,
            EvalOptions {
                scheduler: Some(SchedulerConfig::default()),
                ..EvalOptions::default()
            },
        );
        vec![
            (
                "greedy",
                mk(
                    Grouping::Greedy,
                    SortStrategy::GreedySgf,
                    PayloadMode::Reference,
                    false,
                ),
            ),
            (
                "greedy+1r",
                mk(
                    Grouping::Greedy,
                    SortStrategy::GreedySgf,
                    PayloadMode::Reference,
                    true,
                ),
            ),
            (
                "par-levels",
                mk(
                    Grouping::Singletons,
                    SortStrategy::Levels,
                    PayloadMode::Full,
                    false,
                ),
            ),
            (
                "seq-unit",
                mk(
                    Grouping::Singletons,
                    SortStrategy::Sequential,
                    PayloadMode::Reference,
                    false,
                ),
            ),
            (
                "single-job",
                mk(
                    Grouping::SingleJob,
                    SortStrategy::GreedySgf,
                    PayloadMode::Full,
                    false,
                ),
            ),
            (
                "bruteforce",
                mk(
                    Grouping::BruteForce,
                    SortStrategy::Optimal,
                    PayloadMode::Reference,
                    false,
                ),
            ),
            ("greedy+parallel-runtime", parallel),
            ("greedy+dag-scheduler", scheduled),
        ]
    }

    #[test]
    fn all_strategies_match_naive_on_nested_query() {
        let query = parse_program(
            "Z1 := SELECT (x, y) FROM R(x, y) WHERE S(x) AND NOT T(y);\n\
             Z2 := SELECT (x, y) FROM G(x, y) WHERE T(x);\n\
             Z3 := SELECT (x, y) FROM Z1(x, y) WHERE Z2(x, q) OR U(x, y);",
        )
        .unwrap();
        for seed in [1u64, 7, 42] {
            let db = random_db(seed);
            let expected = NaiveEvaluator::new().evaluate_sgf(&query, &db).unwrap();
            for (name, engine) in engines() {
                let dfs = gumbo_storage::SimDfs::from_database(&db);
                let (_, got) = engine.eval().run_with_output(&dfs, &query).unwrap();
                assert_eq!(got, expected, "strategy {name}, seed {seed}");
            }
        }
    }

    #[test]
    fn one_round_engages_for_same_key_queries() {
        let q = parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND T(x);").unwrap();
        let db = random_db(3);
        let engine = GumboEngine::new(EngineConfig::unscaled(), EvalOptions::default());
        let dfs = gumbo_storage::SimDfs::from_database(&db);
        let stats = engine.eval().run_bsgf(&dfs, &q).unwrap();
        // Fused: exactly one job, one round.
        assert_eq!(stats.num_jobs(), 1);
        assert_eq!(stats.num_rounds(), 1);
        let expected = NaiveEvaluator::new().evaluate_bsgf(&q, &db).unwrap();
        assert_eq!(dfs.peek(&"Z".into()).unwrap().as_ref(), &expected);
    }

    #[test]
    fn greedy_groups_shared_guard_semijoins() {
        // A1 shape: one guard, four conditionals -> greedy should produce
        // fewer MSJ jobs than PAR (sharing the guard scan + job overhead).
        let q = parse_query(
            "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) \
             WHERE S(x) AND T(y) AND U(z) AND V(w);",
        )
        .unwrap();
        let mut db = Database::new();
        let mut r = Relation::new("R", 4);
        for i in 0..200i64 {
            r.insert(Tuple::from_ints(&[i, i + 1, i + 2, i + 3]))
                .unwrap();
        }
        db.add_relation(r);
        for name in ["S", "T", "U", "V"] {
            let mut rel = Relation::new(name, 1);
            for i in 0..100i64 {
                rel.insert(Tuple::from_ints(&[i * 2])).unwrap();
            }
            db.add_relation(rel);
        }
        let dfs = gumbo_storage::SimDfs::from_database(&db);
        let engine = GumboEngine::new(
            EngineConfig::default(), // paper-scale factor engages overheads
            EvalOptions {
                enable_one_round: false,
                ..EvalOptions::default()
            },
        );
        let est = engine.estimator(&dfs);
        let ctx = QueryContext::new(vec![q]).unwrap();
        let plan = engine.plan_group(&est, &ctx).unwrap();
        assert!(
            plan.groups.len() < 4,
            "greedy should merge some semi-joins, got {:?}",
            plan.groups
        );

        // And execution still matches naive.
        let program = plan.build_program(&ctx).unwrap();
        engine.runtime().execute(&dfs, &program).unwrap();
        let expected = NaiveEvaluator::new()
            .evaluate_bsgf(&ctx.queries()[0], &db)
            .unwrap();
        assert_eq!(dfs.peek(&"Z".into()).unwrap().as_ref(), &expected);
    }

    #[test]
    fn invalid_sort_is_rejected() {
        let query = parse_program(
            "Z1 := SELECT x FROM R(x, y) WHERE S(x);\n\
             Z2 := SELECT x FROM Z1(x) WHERE T(x);",
        )
        .unwrap();
        let db = random_db(5);
        let dfs = gumbo_storage::SimDfs::from_database(&db);
        let engine = GumboEngine::new(EngineConfig::unscaled(), EvalOptions::default());
        // Z2 before Z1: invalid.
        let bad = vec![vec![1], vec![0]];
        assert!(engine.eval().with_sort(&bad).run(&dfs, &query).is_err());
    }

    #[test]
    fn sort_cost_is_finite_and_positive() {
        let query = parse_program(
            "Z1 := SELECT x FROM R(x, y) WHERE S(x);\n\
             Z2 := SELECT x FROM Z1(x) WHERE T(x);",
        )
        .unwrap();
        let db = random_db(5);
        let dfs = gumbo_storage::SimDfs::from_database(&db);
        let engine = GumboEngine::new(EngineConfig::default(), EvalOptions::default());
        let graph = DependencyGraph::new(&query);
        let c = engine
            .sort_cost(&dfs, &query, &graph.sequential_sort())
            .unwrap();
        assert!(c.is_finite() && c > 0.0);
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use gumbo_common::{Database, Fact, Relation, Tuple};
    use gumbo_sgf::{parse_program, NaiveEvaluator};
    use gumbo_storage::SimDfs;

    fn db() -> Database {
        let mut db = Database::new();
        for (rel, t) in [
            ("R", vec![1i64, 2]),
            ("R", vec![3, 4]),
            ("G", vec![1, 5]),
            ("G", vec![6, 7]),
        ] {
            db.insert_fact(Fact::new(rel, Tuple::from_ints(&t)))
                .unwrap();
        }
        for v in [1i64, 3, 6] {
            db.insert_fact(Fact::new("S", Tuple::from_ints(&[v])))
                .unwrap();
        }
        db.insert_fact(Fact::new("T", Tuple::from_ints(&[1])))
            .unwrap();
        db.add_relation(Relation::new("U", 1));
        db
    }

    #[test]
    fn evaluate_many_unions_queries() {
        // §4.7: two separate SGF queries evaluated together; the shared
        // relation S lets Greedy-SGF group their first levels.
        let q1 = parse_program(
            "Z1 := SELECT x FROM R(x, y) WHERE S(x);\n\
             Z2 := SELECT x FROM Z1(x) WHERE T(x);",
        )
        .unwrap();
        let q2 = parse_program("Y1 := SELECT x FROM G(x, y) WHERE S(x);").unwrap();
        let database = db();

        let naive = NaiveEvaluator::new();
        let e1 = naive.evaluate_sgf_all(&q1, &database).unwrap();
        let e2 = naive.evaluate_sgf_all(&q2, &database).unwrap();

        let engine = GumboEngine::new(EngineConfig::unscaled(), EvalOptions::default());
        let dfs = SimDfs::from_database(&database);
        let stats = engine
            .eval()
            .run_many(&dfs, &[q1.clone(), q2.clone()])
            .unwrap();
        assert_eq!(
            dfs.peek(&"Z2".into()).unwrap().as_ref(),
            e1.relation(&"Z2".into()).unwrap()
        );
        assert_eq!(
            dfs.peek(&"Y1".into()).unwrap().as_ref(),
            e2.relation(&"Y1".into()).unwrap()
        );

        // Grouped evaluation needs fewer rounds than the 3 the two queries
        // would take back to back (Z1 and Y1 share S and are grouped).
        assert!(stats.num_rounds() <= 3, "rounds = {}", stats.num_rounds());
    }

    #[test]
    fn evaluate_many_rejects_name_clashes() {
        let q1 = parse_program("Z1 := SELECT x FROM R(x, y) WHERE S(x);").unwrap();
        let engine = GumboEngine::new(EngineConfig::unscaled(), EvalOptions::default());
        let dfs = SimDfs::from_database(&db());
        assert!(engine.eval().run_many(&dfs, &[q1.clone(), q1]).is_err());
    }

    #[test]
    fn dynamic_greedy_matches_naive() {
        let query = parse_program(
            "Z1 := SELECT x FROM R(x, y) WHERE S(x);\n\
             Z2 := SELECT x FROM G(x, y) WHERE S(x);\n\
             Z3 := SELECT x FROM Z1(x) WHERE Z2(x) OR NOT U(x);",
        )
        .unwrap();
        let database = db();
        let expected = NaiveEvaluator::new()
            .evaluate_sgf(&query, &database)
            .unwrap();
        let engine = GumboEngine::new(
            EngineConfig::unscaled(),
            EvalOptions {
                sort: SortStrategy::DynamicGreedy,
                ..EvalOptions::default()
            },
        );
        let dfs = SimDfs::from_database(&database);
        let (_, got) = engine.eval().run_with_output(&dfs, &query).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn dynamic_greedy_groups_overlapping_sources() {
        // Z1 and Z2 share S -> the first dynamic group contains both.
        let query = parse_program(
            "Z1 := SELECT x FROM R(x, y) WHERE S(x);\n\
             Z2 := SELECT x FROM G(x, y) WHERE S(x);\n\
             Z3 := SELECT x FROM Z1(x) WHERE Z2(x);",
        )
        .unwrap();
        let engine = GumboEngine::new(
            EngineConfig::unscaled(),
            EvalOptions {
                sort: SortStrategy::DynamicGreedy,
                ..EvalOptions::default()
            },
        );
        let dfs = SimDfs::from_database(&db());
        let stats = engine.eval().dynamic().run(&dfs, &query).unwrap();
        // Two dynamic iterations: {Z1, Z2} then {Z3}. Each fuses to one
        // 1-ROUND job here.
        assert_eq!(stats.num_rounds(), 2);
    }
}
