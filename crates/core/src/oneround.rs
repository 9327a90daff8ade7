//! 1-ROUND plans: MSJ + EVAL fused into a single job (§5.1, optimization 4).
//!
//! Two triggers:
//!
//! * **same key**: all conditional atoms of a query share one join key, so
//!   every semi-join verdict for a guard tuple lands in the same reduce
//!   group — the Boolean formula can be evaluated there and then;
//! * **disjunctive**: the condition is an OR of (possibly negated) atoms, so
//!   the output is a union of per-literal contributions, each decidable in
//!   its own reduce group (set semantics deduplicate).
//!
//! In both cases the fused reducer writes the final output relation
//! directly — no second round, no `Xᵢ` intermediates.

use gumbo_common::{GumboError, RelationName, Result, Tuple};
use gumbo_mr::{Job, JobConfig, Mapper, Message, Payload, Reducer};
use gumbo_sgf::{Atom, BoolExpr, Condition, Var};

use crate::semijoin::{cond_groups, QueryContext};

// ------------------------------------------------------------ same key --

#[derive(Debug, Clone)]
struct FusedQuery {
    output: RelationName,
    guard: Atom,
    join_key: Vec<Var>,
    output_vars: Vec<Var>,
    /// `ϕ_C` over *local* indices into `assert_group_of`.
    formula: BoolExpr,
    /// Per semi-join of this query: its assert-group index.
    assert_group_of: Vec<u32>,
}

struct SameKeyMapper {
    queries: Vec<FusedQuery>,
    asserts: Vec<(Atom, Vec<Var>)>,
}

impl Mapper for SameKeyMapper {
    fn map(&self, fact: &gumbo_common::Fact, _index: u64, emit: &mut dyn FnMut(Tuple, Message)) {
        for (j, q) in self.queries.iter().enumerate() {
            if q.guard.conforms_fact(fact) {
                // One request per guard tuple (not per semi-join): all the
                // query's verdicts live at this single key.
                let key = q.guard.project(&fact.tuple, &q.join_key);
                let out = q.guard.project(&fact.tuple, &q.output_vars);
                emit(
                    key,
                    Message::Req {
                        cond: j as u32,
                        payload: Payload::Tuple(out),
                    },
                );
            }
        }
        for (g, (atom, key_vars)) in self.asserts.iter().enumerate() {
            if atom.conforms_fact(fact) {
                emit(
                    atom.project(&fact.tuple, key_vars),
                    Message::Assert { cond: g as u32 },
                );
            }
        }
    }
}

struct SameKeyReducer {
    queries: Vec<FusedQuery>,
}

impl Reducer for SameKeyReducer {
    fn reduce(&self, _key: &Tuple, values: &[Message], emit: &mut dyn FnMut(&RelationName, Tuple)) {
        let present: Vec<u32> = values
            .iter()
            .filter_map(|m| match m {
                Message::Assert { cond } => Some(*cond),
                _ => None,
            })
            .collect();
        for m in values {
            if let Message::Req {
                cond,
                payload: Payload::Tuple(out),
            } = m
            {
                let q = &self.queries[*cond as usize];
                let holds = q
                    .formula
                    .evaluate(&|sj| present.contains(&q.assert_group_of[sj]));
                if holds {
                    emit(&q.output, out.clone());
                }
            }
        }
    }
}

/// Build the fused same-key 1-ROUND job for a whole query set. Fails if
/// some query is not same-key fusible.
pub fn build_same_key_job(ctx: &QueryContext, config: JobConfig) -> Result<Job> {
    let sjs: Vec<&crate::semijoin::SemiJoin> = ctx.semijoins().iter().collect();
    let (asserts, assignment) = cond_groups(&sjs);
    let mut queries = Vec::with_capacity(ctx.queries().len());
    for (j, q) in ctx.queries().iter().enumerate() {
        if !ctx.same_key_fusible(j) {
            return Err(GumboError::Plan(format!(
                "query {} is not same-key 1-ROUND fusible",
                q.output()
            )));
        }
        let ids = ctx.semijoins_of(j);
        let assert_group_of: Vec<u32> = ids.iter().map(|&i| assignment[&i] as u32).collect();
        // Re-localize the global formula onto positions within `ids`.
        let formula = localize(ctx.formula(j).expect("fusible implies condition"), ids);
        queries.push(FusedQuery {
            output: q.output().clone(),
            guard: q.guard().clone(),
            join_key: ctx.semijoin(ids[0]).join_key.clone(),
            output_vars: q.output_vars().to_vec(),
            formula,
            assert_group_of,
        });
    }
    Ok(build_job(
        "1ROUND",
        ctx,
        queries,
        asserts,
        config,
        |qs, asserts| {
            (
                Box::new(SameKeyMapper {
                    queries: qs.clone(),
                    asserts,
                }),
                Box::new(SameKeyReducer { queries: qs }),
            )
        },
    ))
}

// --------------------------------------------------------- disjunctive --

#[derive(Debug, Clone)]
struct Literal {
    /// Key projection for the literal's semi-join.
    join_key: Vec<Var>,
    /// Assert group the literal tests.
    assert_group: u32,
    /// `true` for `κ`, `false` for `NOT κ`.
    positive: bool,
    /// Owning query.
    query: u32,
}

struct DisjunctiveMapper {
    queries: Vec<FusedQuery>,
    literals: Vec<Literal>,
    asserts: Vec<(Atom, Vec<Var>)>,
}

impl Mapper for DisjunctiveMapper {
    fn map(&self, fact: &gumbo_common::Fact, _index: u64, emit: &mut dyn FnMut(Tuple, Message)) {
        for (l, lit) in self.literals.iter().enumerate() {
            let q = &self.queries[lit.query as usize];
            if q.guard.conforms_fact(fact) {
                let key = q.guard.project(&fact.tuple, &lit.join_key);
                let out = q.guard.project(&fact.tuple, &q.output_vars);
                emit(
                    key,
                    Message::Req {
                        cond: l as u32,
                        payload: Payload::Tuple(out),
                    },
                );
            }
        }
        for (g, (atom, key_vars)) in self.asserts.iter().enumerate() {
            if atom.conforms_fact(fact) {
                emit(
                    atom.project(&fact.tuple, key_vars),
                    Message::Assert { cond: g as u32 },
                );
            }
        }
    }
}

struct DisjunctiveReducer {
    queries: Vec<FusedQuery>,
    literals: Vec<Literal>,
}

impl Reducer for DisjunctiveReducer {
    fn reduce(&self, _key: &Tuple, values: &[Message], emit: &mut dyn FnMut(&RelationName, Tuple)) {
        let present: Vec<u32> = values
            .iter()
            .filter_map(|m| match m {
                Message::Assert { cond } => Some(*cond),
                _ => None,
            })
            .collect();
        for m in values {
            if let Message::Req {
                cond,
                payload: Payload::Tuple(out),
            } = m
            {
                let lit = &self.literals[*cond as usize];
                let hit = present.contains(&lit.assert_group);
                if hit == lit.positive {
                    emit(&self.queries[lit.query as usize].output, out.clone());
                }
            }
        }
    }
}

/// Build the fused disjunctive 1-ROUND job for a whole query set. Fails if
/// some query's condition is not an OR of literals.
pub fn build_disjunctive_job(ctx: &QueryContext, config: JobConfig) -> Result<Job> {
    let sjs: Vec<&crate::semijoin::SemiJoin> = ctx.semijoins().iter().collect();
    let (asserts, assignment) = cond_groups(&sjs);
    let mut queries = Vec::new();
    let mut literals = Vec::new();
    for (j, q) in ctx.queries().iter().enumerate() {
        if !ctx.disjunctive_fusible(j) {
            return Err(GumboError::Plan(format!(
                "query {} is not disjunctive 1-ROUND fusible",
                q.output()
            )));
        }
        let cond = q.condition().expect("fusible implies condition");
        let atoms = q.conditional_atoms();
        let ids = ctx.semijoins_of(j);
        collect_literals(cond, true, &mut |atom, positive| {
            let local = atoms
                .iter()
                .position(|a| *a == atom)
                .expect("atom of condition");
            let sj = ctx.semijoin(ids[local]);
            literals.push(Literal {
                join_key: sj.join_key.clone(),
                assert_group: assignment[&sj.id] as u32,
                positive,
                query: j as u32,
            });
        });
        queries.push(FusedQuery {
            output: q.output().clone(),
            guard: q.guard().clone(),
            join_key: Vec::new(), // unused in disjunctive mode
            output_vars: q.output_vars().to_vec(),
            formula: BoolExpr::Const(true), // unused in disjunctive mode
            assert_group_of: Vec::new(),
        });
    }
    Ok(build_job(
        "1ROUND-OR",
        ctx,
        queries.clone(),
        asserts.clone(),
        config,
        move |qs, asserts| {
            (
                Box::new(DisjunctiveMapper {
                    queries: qs.clone(),
                    literals: literals.clone(),
                    asserts,
                }),
                Box::new(DisjunctiveReducer {
                    queries: qs,
                    literals: literals.clone(),
                }),
            )
        },
    ))
}

fn collect_literals(c: &Condition, positive: bool, f: &mut impl FnMut(&Atom, bool)) {
    match c {
        Condition::Atom(a) => f(a, positive),
        Condition::Not(inner) => collect_literals(inner, !positive, f),
        Condition::Or(l, r) => {
            collect_literals(l, positive, f);
            collect_literals(r, positive, f);
        }
        Condition::And(..) => unreachable!("checked by disjunctive_fusible"),
    }
}

// ---------------------------------------------------------------- glue --

type MapRed = (Box<dyn Mapper>, Box<dyn Reducer>);

fn build_job(
    tag: &str,
    ctx: &QueryContext,
    queries: Vec<FusedQuery>,
    asserts: Vec<(Atom, Vec<Var>)>,
    config: JobConfig,
    make: impl FnOnce(Vec<FusedQuery>, Vec<(Atom, Vec<Var>)>) -> MapRed,
) -> Job {
    let mut inputs: Vec<RelationName> = Vec::new();
    for q in &queries {
        if !inputs.contains(q.guard.relation()) {
            inputs.push(q.guard.relation().clone());
        }
    }
    for (atom, _) in &asserts {
        if !inputs.contains(atom.relation()) {
            inputs.push(atom.relation().clone());
        }
    }
    let outputs: Vec<(RelationName, usize)> = queries
        .iter()
        .map(|q| (q.output.clone(), q.output_vars.len()))
        .collect();
    let out_list: Vec<String> = ctx
        .queries()
        .iter()
        .map(|q| q.output().to_string())
        .collect();
    let (mapper, reducer) = make(queries, asserts);
    Job {
        name: format!("{tag}({})", out_list.join(",")),
        inputs,
        outputs,
        mapper,
        reducer,
        config,
        estimate: None,
    }
}

/// Rewrite a formula over global semi-join ids into local positions within
/// `ids` (the query's own semi-joins).
fn localize(e: &BoolExpr, ids: &[usize]) -> BoolExpr {
    match e {
        BoolExpr::Var(g) => BoolExpr::Var(ids.iter().position(|i| i == g).expect("own semi-join")),
        BoolExpr::Const(b) => BoolExpr::Const(*b),
        BoolExpr::Not(x) => BoolExpr::Not(Box::new(localize(x, ids))),
        BoolExpr::And(l, r) => {
            BoolExpr::And(Box::new(localize(l, ids)), Box::new(localize(r, ids)))
        }
        BoolExpr::Or(l, r) => BoolExpr::Or(Box::new(localize(l, ids)), Box::new(localize(r, ids))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo_common::{Database, Fact, Relation};
    use gumbo_mr::{EngineConfig, ExecutorKind, MrProgram};
    use gumbo_sgf::{parse_query, NaiveEvaluator};
    use gumbo_storage::SimDfs;

    fn db(facts: &[(&str, &[i64])], arities: &[(&str, usize)]) -> Database {
        let mut db = Database::new();
        for (name, arity) in arities {
            db.add_relation(Relation::new(*name, *arity));
        }
        for (rel, t) in facts {
            db.insert_fact(Fact::new(*rel, Tuple::from_ints(t)))
                .unwrap();
        }
        db
    }

    fn run_fused(job: Job, database: &Database) -> SimDfs {
        let dfs = SimDfs::from_database(database);
        let mut program = MrProgram::new();
        program.push_job(job);
        // Fused 1-ROUND jobs run on the multi-threaded runtime here, so
        // every naive-evaluator comparison below also covers it.
        ExecutorKind::Parallel { threads: 2 }
            .build(EngineConfig::unscaled())
            .execute(&dfs, &program)
            .unwrap();
        dfs
    }

    #[test]
    fn same_key_fusion_matches_naive() {
        // A3 shape with mixed AND/OR/NOT, all on key x.
        let q = parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND (T(x) OR NOT U(x));")
            .unwrap();
        let d = db(
            &[
                ("R", &[1, 10]),
                ("R", &[2, 20]),
                ("R", &[3, 30]),
                ("S", &[1]),
                ("S", &[2]),
                ("T", &[1]),
                ("U", &[2]),
            ],
            &[("R", 2), ("S", 1), ("T", 1), ("U", 1)],
        );
        let expected = NaiveEvaluator::new().evaluate_bsgf(&q, &d).unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let job = build_same_key_job(&ctx, JobConfig::default()).unwrap();
        let dfs = run_fused(job, &d);
        assert_eq!(dfs.peek(&"Z".into()).unwrap().as_ref(), &expected);
    }

    #[test]
    fn same_key_rejects_mixed_keys() {
        let q = parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND T(y);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        assert!(build_same_key_job(&ctx, JobConfig::default()).is_err());
    }

    #[test]
    fn b2_uniqueness_query_fused() {
        // B2: tuples connected to exactly one of S,T via x (reduced form).
        let q = parse_query(
            "Z := SELECT (x, y) FROM R(x, y) WHERE \
             (S(x) AND NOT T(x)) OR (NOT S(x) AND T(x));",
        )
        .unwrap();
        let d = db(
            &[
                ("R", &[1, 0]), // only S -> in
                ("R", &[2, 0]), // only T -> in
                ("R", &[3, 0]), // both -> out
                ("R", &[4, 0]), // neither -> out
                ("S", &[1]),
                ("S", &[3]),
                ("T", &[2]),
                ("T", &[3]),
            ],
            &[("R", 2), ("S", 1), ("T", 1)],
        );
        let expected = NaiveEvaluator::new().evaluate_bsgf(&q, &d).unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let job = build_same_key_job(&ctx, JobConfig::default()).unwrap();
        let dfs = run_fused(job, &d);
        assert_eq!(dfs.peek(&"Z".into()).unwrap().as_ref(), &expected);
        assert_eq!(expected.len(), 2);
    }

    #[test]
    fn disjunctive_fusion_matches_naive() {
        // C4 shape: OR over different keys, with a negated literal.
        let q =
            parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) OR NOT T(y) OR U(x);").unwrap();
        let d = db(
            &[
                ("R", &[1, 10]), // S(1) -> in
                ("R", &[2, 20]), // T(20) present, no S/U -> out
                ("R", &[3, 30]), // no T(30) -> in via NOT T
                ("S", &[1]),
                ("T", &[10]),
                ("T", &[20]),
            ],
            &[("R", 2), ("S", 1), ("T", 1), ("U", 1)],
        );
        let expected = NaiveEvaluator::new().evaluate_bsgf(&q, &d).unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let job = build_disjunctive_job(&ctx, JobConfig::default()).unwrap();
        let dfs = run_fused(job, &d);
        assert_eq!(dfs.peek(&"Z".into()).unwrap().as_ref(), &expected);
        // R(1,10): T(10) holds so NOT T fails, but S fires -> included once.
        assert!(expected.contains(&Tuple::from_ints(&[1, 10])));
    }

    #[test]
    fn disjunctive_rejects_conjunctions() {
        let q = parse_query("Z := SELECT x FROM R(x) WHERE S(x) AND T(x);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        assert!(build_disjunctive_job(&ctx, JobConfig::default()).is_err());
    }

    #[test]
    fn multi_query_same_key_fusion() {
        // Two A3-like queries fused into one job, sharing S's assert stream.
        let q1 = parse_query("Z1 := SELECT (x, y) FROM R(x, y) WHERE S(x) AND T(x);").unwrap();
        let q2 = parse_query("Z2 := SELECT (x, y) FROM G(x, y) WHERE S(x);").unwrap();
        let d = db(
            &[
                ("R", &[1, 0]),
                ("R", &[2, 0]),
                ("G", &[1, 5]),
                ("G", &[9, 5]),
                ("S", &[1]),
                ("S", &[2]),
                ("T", &[1]),
            ],
            &[("R", 2), ("G", 2), ("S", 1), ("T", 1)],
        );
        let naive = NaiveEvaluator::new();
        let e1 = naive.evaluate_bsgf(&q1, &d).unwrap();
        let e2 = naive.evaluate_bsgf(&q2, &d).unwrap();
        let ctx = QueryContext::new(vec![q1, q2]).unwrap();
        let job = build_same_key_job(&ctx, JobConfig::default()).unwrap();
        // Assert sharing: S(x)@[x] appears once in the assert table.
        let dfs = run_fused(job, &d);
        assert_eq!(dfs.peek(&"Z1".into()).unwrap().as_ref(), &e1);
        assert_eq!(dfs.peek(&"Z2".into()).unwrap().as_ref(), &e2);
    }
}
