//! The `MSJ(S)` job: Algorithm 1 of the paper.
//!
//! One MapReduce job evaluating a *set* of semi-joins:
//!
//! * the mapper emits, for every fact conforming to some guard `αᵢ`, a
//!   request `⟨π_{αᵢ;z̄ᵢ}(f) : [Req (κᵢ, i); Out …]⟩`, and for every fact
//!   conforming to some conditional `κᵢ` an assert
//!   `⟨π_{κᵢ;z̄ᵢ}(f) : [Assert κᵢ]⟩`;
//! * the reducer outputs a request's payload into `Xᵢ` iff the group also
//!   contains an assert for `κᵢ`.
//!
//! Two Gumbo refinements are wired in:
//! * **assert sharing**: semi-joins whose `(κ, z̄)` coincide (e.g. the two
//!   queries of A5) share a single assert stream (`cond_groups`);
//! * **payload mode**: requests carry either the full guard identity tuple
//!   or a `(guard, id)` reference (§5.1 (2)).

use gumbo_common::{RelationName, Tuple, Value};
use gumbo_mr::{Job, JobConfig, Mapper, Message, Payload, Reducer};
use gumbo_sgf::{Atom, Var};

use crate::plan::PayloadMode;
use crate::semijoin::{cond_groups, QueryContext, SemiJoin};

/// Per-semi-join mapper state.
#[derive(Debug, Clone)]
struct SjSpec {
    guard: Atom,
    join_key: Vec<Var>,
    identity_vars: Vec<Var>,
    guard_idx: u32,
}

/// The MSJ map function.
///
/// With `salts > 1` the mapper applies the skew adaptation the paper
/// sketches in §6: request keys are extended with a deterministic salt in
/// `0..salts` (spreading a heavy join key over `salts` reduce groups) and
/// every assert is replicated to all salts.
struct MsjMapper {
    mode: PayloadMode,
    sjs: Vec<SjSpec>,
    asserts: Vec<(Atom, Vec<Var>)>,
    salts: u32,
}

impl MsjMapper {
    fn salted(&self, key: Tuple, salt: u32) -> Tuple {
        if self.salts <= 1 {
            return key;
        }
        let mut values: Vec<gumbo_common::Value> = key.values().to_vec();
        values.push(gumbo_common::Value::Int(i64::from(salt)));
        Tuple::new(values)
    }
}

impl Mapper for MsjMapper {
    fn map(&self, fact: &gumbo_common::Fact, index: u64, emit: &mut dyn FnMut(Tuple, Message)) {
        // Guard side: one request per semi-join this fact guards.
        for (local, sj) in self.sjs.iter().enumerate() {
            if sj.guard.conforms_fact(fact) {
                let key = sj.guard.project(&fact.tuple, &sj.join_key);
                let payload = match self.mode {
                    PayloadMode::Full => {
                        Payload::Tuple(sj.guard.project(&fact.tuple, &sj.identity_vars))
                    }
                    PayloadMode::Reference => Payload::Ref {
                        guard: sj.guard_idx,
                        id: index,
                    },
                };
                // Salt from the tuple identity so the same guard tuple is
                // routed consistently.
                let salt = (index % u64::from(self.salts.max(1))) as u32;
                emit(
                    self.salted(key, salt),
                    Message::Req {
                        cond: local as u32,
                        payload,
                    },
                );
            }
        }
        // Conditional side: one assert per *assert group* (shared streams),
        // replicated to every salt so each salted request group sees it.
        for (group_idx, (atom, key_vars)) in self.asserts.iter().enumerate() {
            if atom.conforms_fact(fact) {
                let key = atom.project(&fact.tuple, key_vars);
                for salt in 0..self.salts.max(1) {
                    emit(
                        self.salted(key.clone(), salt),
                        Message::Assert {
                            cond: group_idx as u32,
                        },
                    );
                }
            }
        }
    }
}

/// The MSJ reduce function.
struct MsjReducer {
    /// local semi-join index → (output `Xᵢ`, assert group index).
    routes: Vec<(RelationName, u32)>,
}

impl Reducer for MsjReducer {
    fn reduce(&self, _key: &Tuple, values: &[Message], emit: &mut dyn FnMut(&RelationName, Tuple)) {
        // Collect which assert groups are present in this group.
        let mut present = [false; 64];
        let mut present_overflow: Vec<u32> = Vec::new();
        for v in values {
            if let Message::Assert { cond } = v {
                if (*cond as usize) < 64 {
                    present[*cond as usize] = true;
                } else if !present_overflow.contains(cond) {
                    present_overflow.push(*cond);
                }
            }
        }
        let is_present = |c: u32| {
            if (c as usize) < 64 {
                present[c as usize]
            } else {
                present_overflow.contains(&c)
            }
        };
        for v in values {
            if let Message::Req { cond, payload } = v {
                let (x_name, assert_group) = &self.routes[*cond as usize];
                if is_present(*assert_group) {
                    emit(x_name, payload_tuple(payload));
                }
            }
        }
    }
}

/// Materialize a payload as the tuple stored in `Xᵢ`.
pub(crate) fn payload_tuple(payload: &Payload) -> Tuple {
    match payload {
        Payload::Tuple(t) => t.clone(),
        Payload::Ref { guard, id } => {
            Tuple::new(vec![Value::Int(i64::from(*guard)), Value::Int(*id as i64)])
        }
    }
}

/// Arity of the `Xᵢ` relation for a semi-join under a payload mode.
pub(crate) fn x_arity(sj: &SemiJoin, mode: PayloadMode) -> usize {
    match mode {
        PayloadMode::Full => sj.identity_vars.len(),
        PayloadMode::Reference => 2,
    }
}

/// Build the `MSJ` job for a group of semi-joins (ids into `ctx`).
pub fn build_msj_job(
    ctx: &QueryContext,
    group: &[usize],
    mode: PayloadMode,
    config: JobConfig,
) -> Job {
    build_msj_job_salted(ctx, group, mode, config, 1)
}

/// Build an `MSJ` job with heavy-hitter key salting (§6): request keys are
/// spread over `salts` sub-keys and asserts replicated accordingly, at the
/// price of `salts×` assert volume. `salts = 1` disables the adaptation.
pub fn build_msj_job_salted(
    ctx: &QueryContext,
    group: &[usize],
    mode: PayloadMode,
    config: JobConfig,
    salts: u32,
) -> Job {
    let sjs: Vec<&SemiJoin> = group.iter().map(|&i| ctx.semijoin(i)).collect();
    let (assert_groups, assignment) = cond_groups(&sjs);

    let specs: Vec<SjSpec> = sjs
        .iter()
        .map(|sj| SjSpec {
            guard: sj.guard.clone(),
            join_key: sj.join_key.clone(),
            identity_vars: sj.identity_vars.clone(),
            guard_idx: sj.query_idx as u32,
        })
        .collect();
    let routes: Vec<(RelationName, u32)> = sjs
        .iter()
        .map(|sj| (sj.x_name.clone(), assignment[&sj.id] as u32))
        .collect();

    // Inputs: every distinct relation read by the job, guards first. Each
    // relation is read exactly once even when it guards several semi-joins
    // and/or appears as a conditional — the point of grouping.
    let mut inputs: Vec<RelationName> = Vec::new();
    for sj in &sjs {
        if !inputs.contains(sj.guard.relation()) {
            inputs.push(sj.guard.relation().clone());
        }
    }
    for (atom, _) in &assert_groups {
        if !inputs.contains(atom.relation()) {
            inputs.push(atom.relation().clone());
        }
    }

    let outputs: Vec<(RelationName, usize)> = sjs
        .iter()
        .map(|sj| (sj.x_name.clone(), x_arity(sj, mode)))
        .collect();

    let x_list: Vec<String> = sjs.iter().map(|sj| sj.x_name.to_string()).collect();
    Job {
        name: format!("MSJ({})", x_list.join(",")),
        inputs,
        outputs,
        mapper: Box::new(MsjMapper {
            mode,
            sjs: specs,
            asserts: assert_groups,
            salts,
        }),
        reducer: Box::new(MsjReducer { routes }),
        config,
        estimate: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo_common::{Fact, Relation};
    use gumbo_mr::{EngineConfig, ExecutorKind, MrProgram};
    use gumbo_sgf::parse_query;
    use gumbo_storage::SimDfs;

    fn dfs_with(facts: &[(&str, &[i64])], arities: &[(&str, usize)]) -> SimDfs {
        let mut db = gumbo_common::Database::new();
        for (name, arity) in arities {
            db.add_relation(Relation::new(*name, *arity));
        }
        for (rel, t) in facts {
            db.insert_fact(Fact::new(*rel, Tuple::from_ints(t)))
                .unwrap();
        }
        SimDfs::from_database(&db)
    }

    fn run_msj(ctx: &QueryContext, group: &[usize], mode: PayloadMode, dfs: &SimDfs) {
        let job = build_msj_job(ctx, group, mode, JobConfig::default());
        let executor = ExecutorKind::default().build(EngineConfig::unscaled());
        let mut program = MrProgram::new();
        program.push_job(job);
        executor.execute(dfs, &program).unwrap();
    }

    #[test]
    fn msj_computes_multiple_semijoins_in_one_job() {
        // Q from §1: X1 = R ⋉ S(x,y), X2 = R ⋉ S(y,x), X3 = R ⋉ T(x,z).
        let q =
            parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE (S(x, y) OR S(y, x)) AND T(x, z);")
                .unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let dfs = dfs_with(
            &[
                ("R", &[1, 2]),
                ("R", &[3, 4]),
                ("S", &[1, 2]), // matches X1 for R(1,2)
                ("S", &[4, 3]), // matches X2 for R(3,4)
                ("T", &[1, 7]), // matches X3 for R(1,2)
            ],
            &[("R", 2), ("S", 2), ("T", 2)],
        );
        run_msj(&ctx, &[0, 1, 2], PayloadMode::Full, &dfs);
        let x1 = dfs.peek(&"Z#X0".into()).unwrap();
        let x2 = dfs.peek(&"Z#X1".into()).unwrap();
        let x3 = dfs.peek(&"Z#X2".into()).unwrap();
        assert!(x1.contains(&Tuple::from_ints(&[1, 2])));
        assert_eq!(x1.len(), 1);
        assert!(x2.contains(&Tuple::from_ints(&[3, 4])));
        assert_eq!(x2.len(), 1);
        assert!(x3.contains(&Tuple::from_ints(&[1, 2])));
        assert_eq!(x3.len(), 1);
    }

    #[test]
    fn msj_matches_naive_semijoin_semantics() {
        let q = parse_query("Z := SELECT x FROM R(x, z) WHERE S(z, y);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        // Example 3 data.
        let dfs = dfs_with(
            &[("R", &[1, 2]), ("R", &[4, 5]), ("S", &[2, 3])],
            &[("R", 2), ("S", 2)],
        );
        run_msj(&ctx, &[0], PayloadMode::Full, &dfs);
        let x = dfs.peek(&"Z#X0".into()).unwrap();
        // Identity tuples of matching guards: (1, 2).
        assert_eq!(x.len(), 1);
        assert!(x.contains(&Tuple::from_ints(&[1, 2])));
    }

    #[test]
    fn reference_mode_stores_guard_ids() {
        let q = parse_query("Z := SELECT x FROM R(x, z) WHERE S(z, y);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let dfs = dfs_with(
            &[("R", &[1, 2]), ("R", &[4, 5]), ("S", &[2, 3])],
            &[("R", 2), ("S", 2)],
        );
        run_msj(&ctx, &[0], PayloadMode::Reference, &dfs);
        let x = dfs.peek(&"Z#X0".into()).unwrap();
        // R(1,2) is index 0 in R's canonical order; guard_idx = 0.
        assert_eq!(x.len(), 1);
        assert!(x.contains(&Tuple::from_ints(&[0, 0])));
        assert_eq!(x.arity(), 2);
    }

    #[test]
    fn shared_guard_relation_read_once() {
        // A1-style: four semi-joins over the same guard; R, S, T in inputs once.
        let q =
            parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND S(y) AND T(x);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let job = build_msj_job(&ctx, &[0, 1, 2], PayloadMode::Full, JobConfig::default());
        let names: Vec<String> = job.inputs.iter().map(|r| r.to_string()).collect();
        assert_eq!(names, vec!["R", "S", "T"]);
    }

    #[test]
    fn partial_groups_compute_only_their_semijoins() {
        let q = parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND T(y);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let dfs = dfs_with(
            &[("R", &[1, 2]), ("S", &[1]), ("T", &[2])],
            &[("R", 2), ("S", 1), ("T", 1)],
        );
        run_msj(&ctx, &[1], PayloadMode::Full, &dfs);
        assert!(dfs.exists(&"Z#X1".into()));
        assert!(!dfs.exists(&"Z#X0".into()));
    }

    #[test]
    fn empty_conditional_relation_yields_empty_x() {
        let q = parse_query("Z := SELECT x FROM R(x) WHERE S(x);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let dfs = dfs_with(&[("R", &[1])], &[("R", 1), ("S", 1)]);
        run_msj(&ctx, &[0], PayloadMode::Full, &dfs);
        assert_eq!(dfs.peek(&"Z#X0".into()).unwrap().len(), 0);
    }

    #[test]
    fn asserts_do_not_leak_across_distinct_conditionals() {
        // S(x) and T(x) share the join key x, but an S-assert must not
        // satisfy a T-request with the same key value.
        let q = parse_query("Z := SELECT x FROM R(x) WHERE S(x) AND T(x);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let dfs = dfs_with(&[("R", &[5]), ("S", &[5])], &[("R", 1), ("S", 1), ("T", 1)]);
        run_msj(&ctx, &[0, 1], PayloadMode::Full, &dfs);
        assert_eq!(dfs.peek(&"Z#X0".into()).unwrap().len(), 1);
        assert_eq!(dfs.peek(&"Z#X1".into()).unwrap().len(), 0);
    }

    #[test]
    fn constants_in_conditionals_filter_asserts() {
        // κ = S(x, 9): only S facts with second field 9 assert.
        let q = parse_query("Z := SELECT x FROM R(x) WHERE S(x, 9);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let dfs = dfs_with(
            &[("R", &[1]), ("R", &[2]), ("S", &[1, 9]), ("S", &[2, 8])],
            &[("R", 1), ("S", 2)],
        );
        run_msj(&ctx, &[0], PayloadMode::Full, &dfs);
        let x = dfs.peek(&"Z#X0".into()).unwrap();
        assert_eq!(x.len(), 1);
        assert!(x.contains(&Tuple::from_ints(&[1])));
    }
}
