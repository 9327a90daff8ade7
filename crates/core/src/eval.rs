//! The `EVAL` job: Boolean combinations of semi-join results (§4.3).
//!
//! `EVAL(Y₁, ϕ₁, …, Yₙ, ϕₙ)` evaluates several queries' Boolean formulas in
//! one job. For each query the mapper tags every guard tuple identity with
//! the relations `Xᵢ` it belongs to plus a guard-presence tag (the paper's
//! `X₀`); the reducer replays `X₀ ∧ ϕ` over the tag set and outputs the
//! `w̄`-projection of surviving guard tuples.
//!
//! In **reference** mode (§5.1 (2)) identities are `(guard, id)` pairs, so
//! the guard relation is re-read to recover output tuples — the trade
//! the paper calls out explicitly ("the guard relation needs to be re-read
//! in the EVAL job").

use gumbo_common::{RelationName, Tuple, Value};
use gumbo_mr::{Job, JobConfig, Mapper, Message, Reducer};
use gumbo_sgf::{Atom, BoolExpr, Var};

use crate::plan::PayloadMode;
use crate::semijoin::QueryContext;

/// Per-query mapper/reducer state.
#[derive(Debug, Clone)]
struct EvalQuery {
    output: RelationName,
    guard_rel: RelationName,
    guard: Atom,
    identity_vars: Vec<Var>,
    output_vars: Vec<Var>,
    /// Positions of `output_vars` inside `identity_vars` (full mode).
    out_positions: Vec<usize>,
    /// `ϕ_C` over global semi-join ids (`Const(true)` if no WHERE clause).
    formula: BoolExpr,
}

struct EvalMapper {
    mode: PayloadMode,
    queries: Vec<EvalQuery>,
    /// `(x relation, tag)` per semi-join; tags start at `queries.len()`.
    xs: Vec<(RelationName, u32)>,
}

impl Mapper for EvalMapper {
    fn map(&self, fact: &gumbo_common::Fact, index: u64, emit: &mut dyn FnMut(Tuple, Message)) {
        // X-relation side: tag the identity.
        for (x_name, tag) in &self.xs {
            if &fact.relation == x_name {
                emit(fact.tuple.clone(), Message::Tag { rel: *tag });
                return; // X names are disjoint from guard relations.
            }
        }
        // Guard side: one tag (full mode) or guard-tuple message (ref mode)
        // per query guarded by this relation.
        for (j, q) in self.queries.iter().enumerate() {
            if fact.relation == q.guard_rel && q.guard.conforms_fact(fact) {
                match self.mode {
                    PayloadMode::Full => {
                        let key = q.guard.project(&fact.tuple, &q.identity_vars);
                        emit(key, Message::Tag { rel: j as u32 });
                    }
                    PayloadMode::Reference => {
                        let key = Tuple::new(vec![Value::Int(j as i64), Value::Int(index as i64)]);
                        emit(
                            key,
                            Message::GuardTuple {
                                guard: j as u32,
                                tuple: fact.tuple.clone(),
                            },
                        );
                    }
                }
            }
        }
    }
}

struct EvalReducer {
    mode: PayloadMode,
    queries: Vec<EvalQuery>,
    num_queries: u32,
}

impl EvalReducer {
    fn formula_holds(&self, q: &EvalQuery, tags: &[u32]) -> bool {
        q.formula
            .evaluate(&|sj| tags.contains(&(self.num_queries + sj as u32)))
    }
}

impl Reducer for EvalReducer {
    fn reduce(&self, key: &Tuple, values: &[Message], emit: &mut dyn FnMut(&RelationName, Tuple)) {
        let tags: Vec<u32> = values
            .iter()
            .filter_map(|m| match m {
                Message::Tag { rel } => Some(*rel),
                _ => None,
            })
            .collect();
        match self.mode {
            PayloadMode::Full => {
                for (j, q) in self.queries.iter().enumerate() {
                    // The paper's X₀ ∧ ϕ: the guard tag must be present.
                    if key.arity() == q.identity_vars.len()
                        && tags.contains(&(j as u32))
                        && self.formula_holds(q, &tags)
                    {
                        emit(&q.output, key.project(&q.out_positions));
                    }
                }
            }
            PayloadMode::Reference => {
                for m in values {
                    if let Message::GuardTuple { guard, tuple } = m {
                        let q = &self.queries[*guard as usize];
                        if self.formula_holds(q, &tags) {
                            emit(&q.output, q.guard.project(tuple, &q.output_vars));
                        }
                    }
                }
            }
        }
    }
}

/// Build the `EVAL` job for all queries of a [`QueryContext`].
pub fn build_eval_job(ctx: &QueryContext, mode: PayloadMode, config: JobConfig) -> Job {
    let num_queries = ctx.queries().len() as u32;
    let queries: Vec<EvalQuery> = ctx
        .queries()
        .iter()
        .enumerate()
        .map(|(j, q)| {
            let identity = crate::semijoin::identity_vars(q.guard());
            let out_positions = q
                .output_vars()
                .iter()
                .map(|v| {
                    identity
                        .iter()
                        .position(|iv| iv == v)
                        .expect("guarded output var")
                })
                .collect();
            EvalQuery {
                output: q.output().clone(),
                guard_rel: q.guard().relation().clone(),
                guard: q.guard().clone(),
                identity_vars: identity,
                output_vars: q.output_vars().to_vec(),
                out_positions,
                formula: ctx.formula(j).cloned().unwrap_or(BoolExpr::Const(true)),
            }
        })
        .collect();

    let xs: Vec<(RelationName, u32)> = ctx
        .semijoins()
        .iter()
        .map(|sj| (sj.x_name.clone(), num_queries + sj.id as u32))
        .collect();

    // Inputs: all X relations, then the (deduplicated) guard relations —
    // the guard re-read of optimization (2) / the X₀ read of Eq. 7.
    let mut inputs: Vec<RelationName> = xs.iter().map(|(n, _)| n.clone()).collect();
    for q in &queries {
        if !inputs.contains(&q.guard_rel) {
            inputs.push(q.guard_rel.clone());
        }
    }

    let outputs: Vec<(RelationName, usize)> = queries
        .iter()
        .map(|q| (q.output.clone(), q.output_vars.len()))
        .collect();

    let out_list: Vec<String> = queries.iter().map(|q| q.output.to_string()).collect();
    Job {
        name: format!("EVAL({})", out_list.join(",")),
        inputs,
        outputs,
        mapper: Box::new(EvalMapper {
            mode,
            queries: queries.clone(),
            xs,
        }),
        reducer: Box::new(EvalReducer {
            mode,
            queries,
            num_queries,
        }),
        config,
        estimate: None,
    }
}

// EvalQuery is cloned into both mapper and reducer.
impl Clone for EvalMapper {
    fn clone(&self) -> Self {
        EvalMapper {
            mode: self.mode,
            queries: self.queries.clone(),
            xs: self.xs.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msj::build_msj_job;
    use gumbo_common::{Database, Fact, Relation, Result};
    use gumbo_mr::{EngineConfig, ExecutorKind, MrProgram};
    use gumbo_sgf::{parse_query, NaiveEvaluator};
    use gumbo_storage::SimDfs;

    /// Execute the canonical 2-round plan (one MSJ with all semi-joins,
    /// then EVAL) on one and two workers and compare against the naive
    /// evaluator.
    fn check_two_round(query_text: &str, facts: &[(&str, &[i64])], arities: &[(&str, usize)]) {
        let kinds = [
            ExecutorKind::Parallel { threads: 1 },
            ExecutorKind::Parallel { threads: 2 },
        ];
        for (mode, kind) in [PayloadMode::Full, PayloadMode::Reference]
            .into_iter()
            .flat_map(|m| kinds.into_iter().map(move |k| (m, k)))
        {
            let q = parse_query(query_text).unwrap();
            let ctx = QueryContext::new(vec![q.clone()]).unwrap();
            let mut db = Database::new();
            for (name, arity) in arities {
                db.add_relation(Relation::new(*name, *arity));
            }
            for (rel, t) in facts {
                db.insert_fact(Fact::new(*rel, Tuple::from_ints(t)))
                    .unwrap();
            }
            let expected = NaiveEvaluator::new().evaluate_bsgf(&q, &db).unwrap();

            let dfs = SimDfs::from_database(&db);
            let mut program = MrProgram::new();
            let all: Vec<usize> = (0..ctx.semijoins().len()).collect();
            if !all.is_empty() {
                program.push_job(build_msj_job(&ctx, &all, mode, JobConfig::default()));
            }
            program.push_job(build_eval_job(&ctx, mode, JobConfig::default()));
            kind.build(EngineConfig::unscaled())
                .execute(&dfs, &program)
                .unwrap();

            let got = dfs.peek(&q.output().clone()).unwrap();
            assert_eq!(
                got.as_ref(),
                &expected.renamed(q.output().clone()),
                "mode {mode:?}, executor {}",
                kind.label()
            );
        }
    }

    #[test]
    fn intro_query_full_plan() {
        check_two_round(
            "Z := SELECT (x, y) FROM R(x, y) WHERE (S(x, y) OR S(y, x)) AND T(x, z);",
            &[
                ("R", &[1, 2]),
                ("R", &[3, 4]),
                ("R", &[5, 6]),
                ("S", &[2, 1]),
                ("S", &[5, 6]),
                ("T", &[1, 9]),
            ],
            &[("R", 2), ("S", 2), ("T", 2)],
        );
    }

    #[test]
    fn negation_with_projection_is_sound() {
        // The case where projecting before the Boolean combination would be
        // wrong: two guard tuples share x = 1 but differ on S-membership.
        check_two_round(
            "Z := SELECT x FROM R(x, y) WHERE NOT S(y);",
            &[("R", &[1, 2]), ("R", &[1, 3]), ("S", &[2])],
            &[("R", 2), ("S", 1)],
        );
    }

    #[test]
    fn pure_negation_query() {
        check_two_round(
            "Z := SELECT x FROM R(x) WHERE NOT S(x);",
            &[("R", &[1]), ("R", &[2]), ("S", &[2])],
            &[("R", 1), ("S", 1)],
        );
    }

    #[test]
    fn no_where_clause_projects_guard() {
        check_two_round(
            "Z := SELECT y FROM R(x, y);",
            &[("R", &[1, 7]), ("R", &[2, 7]), ("R", &[3, 8])],
            &[("R", 2)],
        );
    }

    #[test]
    fn xor_query_z5() {
        check_two_round(
            "Z := SELECT (x, y) FROM R(x, y, 4) \
             WHERE (S(1, x) AND NOT S(y, 10)) OR (NOT S(1, x) AND S(y, 10));",
            &[
                ("R", &[1, 2, 4]),
                ("R", &[3, 4, 4]),
                ("R", &[5, 6, 7]), // wrong constant, filtered by guard
                ("S", &[1, 1]),    // S(1,x) for x=1
                ("S", &[4, 10]),   // S(y,10) for y=4
                ("S", &[1, 3]),    // S(1,x) for x=3 -> R(3,4,4) has both -> excluded
            ],
            &[("R", 3), ("S", 2)],
        );
    }

    #[test]
    fn multi_query_eval_in_one_job() {
        // Two queries with different guards, evaluated by one EVAL job.
        let q1 = parse_query("Z1 := SELECT (x, y) FROM R(x, y) WHERE S(x);").unwrap();
        let q2 = parse_query("Z2 := SELECT (x, y) FROM G(x, y) WHERE NOT S(x);").unwrap();
        let ctx = QueryContext::new(vec![q1.clone(), q2.clone()]).unwrap();

        let mut db = Database::new();
        for (rel, t) in [
            ("R", [1i64, 2]),
            ("R", [3, 4]),
            ("G", [1, 2]),
            ("G", [5, 6]),
        ] {
            db.insert_fact(Fact::new(rel, Tuple::from_ints(&t)))
                .unwrap();
        }
        db.insert_fact(Fact::new("S", Tuple::from_ints(&[1])))
            .unwrap();
        let naive = NaiveEvaluator::new();
        let e1 = naive.evaluate_bsgf(&q1, &db).unwrap();
        let e2 = naive.evaluate_bsgf(&q2, &db).unwrap();

        for mode in [PayloadMode::Full, PayloadMode::Reference] {
            let dfs = SimDfs::from_database(&db);
            let mut program = MrProgram::new();
            program.push_job(build_msj_job(&ctx, &[0, 1], mode, JobConfig::default()));
            program.push_job(build_eval_job(&ctx, mode, JobConfig::default()));
            ExecutorKind::default()
                .build(EngineConfig::unscaled())
                .execute(&dfs, &program)
                .unwrap();
            assert_eq!(
                dfs.peek(&"Z1".into()).unwrap().as_ref(),
                &e1,
                "mode {mode:?}"
            );
            assert_eq!(
                dfs.peek(&"Z2".into()).unwrap().as_ref(),
                &e2,
                "mode {mode:?}"
            );
        }
    }

    #[test]
    fn same_guard_two_queries_share_one_read() -> Result<()> {
        let q1 = parse_query("Z1 := SELECT x FROM R(x, y) WHERE S(x);").unwrap();
        let q2 = parse_query("Z2 := SELECT y FROM R(x, y) WHERE T(y);").unwrap();
        let ctx = QueryContext::new(vec![q1, q2]).unwrap();
        let job = build_eval_job(&ctx, PayloadMode::Full, JobConfig::default());
        // Inputs: Z1#X0, Z2#X0, R (once).
        let names: Vec<String> = job.inputs.iter().map(|r| r.to_string()).collect();
        assert_eq!(names, vec!["Z1#X0", "Z2#X0", "R"]);
        Ok(())
    }
}
