//! Query plans for sets of BSGF queries (the *basic MR programs* of §4.4/§4.5).
//!
//! A [`BsgfSetPlan`] is a partition `S₁ ∪ … ∪ S_p` of the query set's
//! semi-joins into MSJ jobs, followed by one `EVAL` job — or a fused
//! 1-ROUND job when applicable. [`BsgfSetPlan::build_program`] lowers the
//! plan to an executable [`MrProgram`].

use std::fmt;

use gumbo_common::Result;
use gumbo_mr::{JobConfig, MrProgram};

use crate::estimate::Estimator;
use crate::eval::build_eval_job;
use crate::msj::build_msj_job;
use crate::oneround::{build_disjunctive_job, build_same_key_job};
use crate::semijoin::QueryContext;

/// How requests identify their guard tuple (§5.1 (2)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PayloadMode {
    /// Carry the full guard identity tuple.
    Full,
    /// Carry a `(guard, id)` reference; EVAL re-reads the guard relation.
    /// This is Gumbo's default: it "significantly reduces the number of
    /// bytes that are shuffled".
    #[default]
    Reference,
}

/// The fused single-job plan kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OneRoundKind {
    /// All conditional atoms of each query share one join key.
    SameKey,
    /// Every condition is an OR of (possibly negated) atoms.
    Disjunctive,
}

/// A plan for one set of BSGF queries.
#[derive(Debug, Clone)]
pub struct BsgfSetPlan {
    /// Partition of semi-join ids into MSJ jobs (ignored for 1-ROUND plans).
    pub groups: Vec<Vec<usize>>,
    /// Payload mode for MSJ/EVAL.
    pub mode: PayloadMode,
    /// If set, the whole set is evaluated by a single fused job.
    pub one_round: Option<OneRoundKind>,
    /// Per-job configuration.
    pub job_config: JobConfig,
}

impl BsgfSetPlan {
    /// The 2-round plan with one MSJ job per partition class.
    pub fn two_round(groups: Vec<Vec<usize>>, mode: PayloadMode, job_config: JobConfig) -> Self {
        BsgfSetPlan {
            groups,
            mode,
            one_round: None,
            job_config,
        }
    }

    /// The ungrouped plan: every semi-join in its own MSJ job (the paper's
    /// PAR strategy).
    pub fn singletons(ctx: &QueryContext, mode: PayloadMode, job_config: JobConfig) -> Self {
        let groups = (0..ctx.semijoins().len()).map(|i| vec![i]).collect();
        BsgfSetPlan::two_round(groups, mode, job_config)
    }

    /// The fully grouped plan: all semi-joins in one MSJ job.
    pub fn single_group(ctx: &QueryContext, mode: PayloadMode, job_config: JobConfig) -> Self {
        let all: Vec<usize> = (0..ctx.semijoins().len()).collect();
        let groups = if all.is_empty() { vec![] } else { vec![all] };
        BsgfSetPlan::two_round(groups, mode, job_config)
    }

    /// A fused 1-ROUND plan.
    pub fn one_round(kind: OneRoundKind, job_config: JobConfig) -> Self {
        BsgfSetPlan {
            groups: Vec::new(),
            mode: PayloadMode::Full,
            one_round: Some(kind),
            job_config,
        }
    }

    /// Number of MapReduce jobs the plan will run.
    pub fn num_jobs(&self) -> usize {
        match self.one_round {
            Some(_) => 1,
            None => self.groups.len() + 1,
        }
    }

    /// Lower the plan to an executable MapReduce program.
    ///
    /// 2-round plans produce: round 1 = all MSJ jobs (concurrent),
    /// round 2 = the EVAL job. 1-ROUND plans produce a single job.
    pub fn build_program(&self, ctx: &QueryContext) -> Result<MrProgram> {
        self.build(ctx, None)
    }

    /// [`BsgfSetPlan::build_program`] with estimation-layer annotations:
    /// every job carries the [`gumbo_mr::JobEstimate`] the given
    /// estimator prices it at (the same profiles the planner optimized),
    /// so `MrProgram::into_dag()` yields a cost-annotated DAG the
    /// scheduler can place by. Annotation is best-effort: a job whose
    /// estimate cannot be computed (missing catalog statistics) is left
    /// unannotated rather than failing the run.
    pub fn build_annotated_program(
        &self,
        ctx: &QueryContext,
        est: &Estimator<'_>,
    ) -> Result<MrProgram> {
        self.build(ctx, Some(est))
    }

    fn build(&self, ctx: &QueryContext, est: Option<&Estimator<'_>>) -> Result<MrProgram> {
        let mut program = MrProgram::new();
        match self.one_round {
            Some(kind) => {
                let mut job = match kind {
                    OneRoundKind::SameKey => build_same_key_job(ctx, self.job_config)?,
                    OneRoundKind::Disjunctive => build_disjunctive_job(ctx, self.job_config)?,
                };
                job.estimate =
                    est.and_then(|e| e.one_round_estimate(ctx, kind, &self.job_config).ok());
                program.push_job(job);
            }
            None => {
                let mut covered = vec![false; ctx.semijoins().len()];
                let mut msj_jobs = Vec::with_capacity(self.groups.len());
                for group in &self.groups {
                    for &i in group {
                        if covered[i] {
                            return Err(gumbo_common::GumboError::Plan(format!(
                                "semi-join {i} appears in two groups"
                            )));
                        }
                        covered[i] = true;
                    }
                    if !group.is_empty() {
                        let mut job = build_msj_job(ctx, group, self.mode, self.job_config);
                        job.estimate = est.and_then(|e| {
                            e.msj_estimate(ctx, group, self.mode, &self.job_config).ok()
                        });
                        msj_jobs.push(job);
                    }
                }
                if let Some(missing) = covered.iter().position(|&c| !c) {
                    return Err(gumbo_common::GumboError::Plan(format!(
                        "semi-join {missing} not covered by any group"
                    )));
                }
                program.push_round(msj_jobs);
                let mut eval = build_eval_job(ctx, self.mode, self.job_config);
                eval.estimate =
                    est.and_then(|e| e.eval_estimate(ctx, self.mode, &self.job_config).ok());
                program.push_job(eval);
            }
        }
        Ok(program)
    }
}

impl fmt::Display for BsgfSetPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.one_round {
            Some(kind) => write!(f, "1-ROUND plan ({kind:?})"),
            None => {
                write!(f, "2-round plan: ")?;
                for (i, g) in self.groups.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "MSJ{g:?}")?;
                }
                write!(f, " ; EVAL")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo_common::{Database, Fact, Relation, Tuple};
    use gumbo_mr::{EngineConfig, Executor, ParallelExecutor};
    use gumbo_sgf::{parse_query, NaiveEvaluator};
    use gumbo_storage::SimDfs;

    fn example4_ctx() -> QueryContext {
        // Query (8) from Example 4.
        let q =
            parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE S(x, z) AND (T(y) OR NOT U(x));")
                .unwrap();
        QueryContext::new(vec![q]).unwrap()
    }

    fn example4_db() -> Database {
        let mut db = Database::new();
        for (name, arity) in [("R", 2), ("S", 2), ("T", 1), ("U", 1)] {
            db.add_relation(Relation::new(name, arity));
        }
        for (rel, t) in [
            ("R", vec![1i64, 10]),
            ("R", vec![2, 20]),
            ("R", vec![3, 30]),
            ("S", vec![1, 0]),
            ("S", vec![2, 0]),
            ("T", vec![10]),
            ("U", vec![2]),
        ] {
            db.insert_fact(Fact::new(rel, Tuple::from_ints(&t)))
                .unwrap();
        }
        db
    }

    /// All three alternative plans of Figure 2 must produce identical results.
    #[test]
    fn figure2_alternatives_agree() {
        let ctx = example4_ctx();
        let db = example4_db();
        let expected = NaiveEvaluator::new()
            .evaluate_bsgf(&ctx.queries()[0], &db)
            .unwrap();
        let plans = [
            vec![vec![0], vec![1], vec![2]], // (a): separate jobs
            vec![vec![0, 2], vec![1]],       // (b): X1 with X3
            vec![vec![0, 1, 2]],             // (c): all in one
        ];
        for (i, groups) in plans.into_iter().enumerate() {
            for mode in [PayloadMode::Full, PayloadMode::Reference] {
                let plan = BsgfSetPlan::two_round(groups.clone(), mode, JobConfig::default());
                let program = plan.build_program(&ctx).unwrap();
                let dfs = SimDfs::from_database(&db);
                ParallelExecutor::with_threads(EngineConfig::unscaled(), 1)
                    .execute(&dfs, &program)
                    .unwrap();
                let got = dfs.peek(&"Z".into()).unwrap();
                assert_eq!(got.as_ref(), &expected, "plan {i} mode {mode:?}");
            }
        }
    }

    #[test]
    fn plan_job_counts() {
        let ctx = example4_ctx();
        let par = BsgfSetPlan::singletons(&ctx, PayloadMode::Reference, JobConfig::default());
        assert_eq!(par.num_jobs(), 4); // 3 MSJ + 1 EVAL
        assert_eq!(par.build_program(&ctx).unwrap().num_rounds(), 2);
        let single = BsgfSetPlan::single_group(&ctx, PayloadMode::Reference, JobConfig::default());
        assert_eq!(single.num_jobs(), 2);
        let fused = BsgfSetPlan::one_round(OneRoundKind::SameKey, JobConfig::default());
        assert_eq!(fused.num_jobs(), 1);
    }

    #[test]
    fn incomplete_partition_rejected() {
        let ctx = example4_ctx();
        let plan = BsgfSetPlan::two_round(
            vec![vec![0], vec![1]],
            PayloadMode::Full,
            JobConfig::default(),
        );
        assert!(plan.build_program(&ctx).is_err());
    }

    #[test]
    fn overlapping_partition_rejected() {
        let ctx = example4_ctx();
        let plan = BsgfSetPlan::two_round(
            vec![vec![0, 1], vec![1, 2]],
            PayloadMode::Full,
            JobConfig::default(),
        );
        assert!(plan.build_program(&ctx).is_err());
    }

    #[test]
    fn query_without_condition_is_pure_eval() {
        let q = parse_query("Z := SELECT x FROM R(x, y);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let plan = BsgfSetPlan::single_group(&ctx, PayloadMode::Full, JobConfig::default());
        assert_eq!(plan.num_jobs(), 1); // zero MSJ groups + EVAL
        let program = plan.build_program(&ctx).unwrap();
        assert_eq!(program.num_rounds(), 1);

        let mut db = Database::new();
        db.insert_fact(Fact::new("R", Tuple::from_ints(&[1, 2])))
            .unwrap();
        let dfs = SimDfs::from_database(&db);
        ParallelExecutor::with_threads(EngineConfig::unscaled(), 1)
            .execute(&dfs, &program)
            .unwrap();
        assert_eq!(dfs.peek(&"Z".into()).unwrap().len(), 1);
    }
}
