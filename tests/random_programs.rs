//! Differential test against the oracle: random nested SGF programs on
//! random databases, evaluated by every execution path and planning
//! strategy, must equal the naive reference evaluator on every output.
//!
//! The programs are well formed by construction: 2–4 BSGF queries whose
//! guards and conditions draw on base relations and on the outputs of
//! earlier queries, with AND/OR/NOT conditions, guard variables shared
//! between conditional atoms, fresh local variables (one atom each, as
//! guardedness requires), repeated variables and int, wide-int and
//! string constants.
//! The databases are small, mix int and string values, and leave some
//! relations empty.
//!
//! Matrix per program: {round barrier, DAG 1 slot, DAG 3 slots on
//! `parallel:2`} × {unlimited, 4 KiB shuffle budget} × {greedy with
//! 1-ROUND fusion, greedy without it, PAR singletons with `Levels`}.

use gumbo::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Base relations and their arities: guards draw on the first two,
/// conditions on all of them.
const BASE: [(&str, usize); 5] = [("R", 3), ("G", 2), ("S", 1), ("T", 2), ("U", 1)];

/// The small value domain: ints, one wide int and strings, so joins
/// hit often and every value kind crosses the shuffle.
fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..7) {
        0 => Value::str("a"),
        1 => Value::str("b"),
        2 => Value::Int(1 << 60),
        i => Value::Int(i - 3),
    }
}

fn random_database(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    for (name, arity) in BASE {
        let mut rel = Relation::new(name, arity);
        // About one relation in six is empty; wide relations get more
        // tuples, so the 4 KiB budget spills on the larger inputs.
        let tuples = if rng.gen_bool(0.17) {
            0
        } else {
            rng.gen_range(1..8 * arity * arity)
        };
        for _ in 0..tuples {
            let values = (0..arity).map(|_| random_value(rng)).collect();
            rel.insert(Tuple::new(values)).unwrap();
        }
        db.add_relation(rel);
    }
    db
}

fn random_constant(rng: &mut StdRng) -> Term {
    match random_value(rng) {
        Value::Int(i) => Term::int(i),
        Value::Str(s) => Term::str(&*s),
    }
}

/// Builds one program, tracking every relation an atom may mention.
struct ProgramGen {
    rng: StdRng,
    /// `(name, arity)` of every relation defined so far.
    relations: Vec<(String, usize)>,
    /// Local variables handed out so far in the current query.
    locals: usize,
}

impl ProgramGen {
    /// The guard atom: a base guard relation or an earlier output, with
    /// fresh variables, an occasional repeated variable and an
    /// occasional constant (at least one variable).
    fn guard(&mut self) -> (Atom, Vec<Var>) {
        let outputs = self.relations.len() - BASE.len();
        let pick = self.rng.gen_range(0..2 + outputs);
        let (name, arity) = if pick < 2 {
            self.relations[pick].clone()
        } else {
            self.relations[BASE.len() + pick - 2].clone()
        };
        let mut vars: Vec<Var> = Vec::new();
        let mut terms = Vec::with_capacity(arity);
        for i in 0..arity {
            let term = match self.rng.gen_range(0..10) {
                0 if i > 0 => random_constant(&mut self.rng),
                1 if !vars.is_empty() => Term::Var(vars[self.rng.gen_range(0..vars.len())].clone()),
                _ => {
                    let v = Var::new(format!("g{i}"));
                    vars.push(v.clone());
                    Term::Var(v)
                }
            };
            terms.push(term);
        }
        (Atom::new(name, terms), vars)
    }

    /// A conditional atom over any relation defined so far: guard
    /// variables (shared with other atoms), constants, and fresh local
    /// variables that no other atom sees.
    fn atom(&mut self, guard_vars: &[Var]) -> Atom {
        let (name, arity) = self.relations[self.rng.gen_range(0..self.relations.len())].clone();
        let terms = (0..arity)
            .map(|_| match self.rng.gen_range(0..8) {
                0 => random_constant(&mut self.rng),
                1 | 2 => {
                    self.locals += 1;
                    Term::var(format!("l{}", self.locals))
                }
                _ => Term::Var(guard_vars[self.rng.gen_range(0..guard_vars.len())].clone()),
            })
            .collect();
        Atom::new(name, terms)
    }

    fn condition(&mut self, guard_vars: &[Var], depth: usize) -> Condition {
        let choice = if depth == 0 {
            0
        } else {
            self.rng.gen_range(0..5)
        };
        match choice {
            0 | 1 => Condition::Atom(self.atom(guard_vars)),
            2 => Condition::Not(Box::new(self.condition(guard_vars, depth - 1))),
            3 => Condition::And(
                Box::new(self.condition(guard_vars, depth - 1)),
                Box::new(self.condition(guard_vars, depth - 1)),
            ),
            _ => Condition::Or(
                Box::new(self.condition(guard_vars, depth - 1)),
                Box::new(self.condition(guard_vars, depth - 1)),
            ),
        }
    }

    fn query(&mut self, output: &str) -> BsgfQuery {
        self.locals = 0;
        let (guard, vars) = self.guard();
        // A non-empty selection of the guard variables, in guard order.
        let mut selected: Vec<Var> = vars
            .iter()
            .filter(|_| self.rng.gen_bool(0.6))
            .cloned()
            .collect();
        if selected.is_empty() {
            selected.push(vars[0].clone());
        }
        let condition = if self.rng.gen_bool(0.1) {
            None
        } else {
            Some(self.condition(&vars, 2))
        };
        let query = BsgfQuery::new(output, selected, guard, condition)
            .expect("well formed by construction");
        self.relations
            .push((output.to_string(), query.output_arity()));
        query
    }
}

fn random_program(seed: u64) -> SgfQuery {
    let mut gen = ProgramGen {
        rng: StdRng::seed_from_u64(seed),
        relations: BASE.iter().map(|&(n, a)| (n.to_string(), a)).collect(),
        locals: 0,
    };
    let n = gen.rng.gen_range(2..5);
    let queries = (0..n).map(|i| gen.query(&format!("Z{i}"))).collect();
    SgfQuery::new(queries).expect("outputs defined before use")
}

/// The planning strategies under test.
fn strategies() -> [(&'static str, EvalOptions); 3] {
    let base = EvalOptions::default();
    [
        ("greedy+1round", base),
        (
            "greedy",
            EvalOptions {
                enable_one_round: false,
                ..base
            },
        ),
        (
            "par",
            EvalOptions {
                grouping: Grouping::Singletons,
                sort: SortStrategy::Levels,
                enable_one_round: false,
                ..base
            },
        ),
    ]
}

/// The execution paths under test: `(label, executor, scheduler slots)`,
/// `None` slots meaning the round barrier.
const RUNTIMES: [(&str, ExecutorKind, Option<usize>); 3] = [
    ("rounds", ExecutorKind::Parallel { threads: 1 }, None),
    ("dag x1", ExecutorKind::Parallel { threads: 1 }, Some(1)),
    (
        "dag x3 parallel:2",
        ExecutorKind::Parallel { threads: 2 },
        Some(3),
    ),
];

/// Shuffle budgets in bytes, `None` meaning unlimited.
const BUDGETS: [Option<u64>; 2] = [None, Some(4096)];

fn engine(
    options: EvalOptions,
    executor: ExecutorKind,
    slots: Option<usize>,
    budget: Option<u64>,
) -> GumboEngine {
    let mem_budget = budget
        .map(gumbo::mr::MemBudget::bytes)
        .unwrap_or(gumbo::mr::MemBudget::UNLIMITED);
    let scheduler = slots.map(|max_concurrent_jobs| SchedulerConfig {
        max_concurrent_jobs,
        threads_per_job: 0,
        mem_budget,
        ..SchedulerConfig::default()
    });
    GumboEngine::with_executor(
        EngineConfig::unscaled(),
        executor,
        EvalOptions {
            scheduler,
            mem_budget,
            ..options
        },
    )
}

#[test]
fn random_nested_programs_match_the_naive_evaluator() {
    let mut spilled_runs = 0;
    for seed in 0..80u64 {
        let program = random_program(seed);
        let db = random_database(&mut StdRng::seed_from_u64(seed ^ 0x5eed));
        let expected = NaiveEvaluator::new()
            .evaluate_sgf_all(&program, &db)
            .unwrap();
        for (strategy, options) in strategies() {
            for (runtime, executor, slots) in RUNTIMES {
                for budget in BUDGETS {
                    let label = format!(
                        "seed {seed}, {strategy}, {runtime}, budget {budget:?}:\n{program}"
                    );
                    let dfs = SimDfs::from_database(&db);
                    let stats = engine(options, executor, slots, budget)
                        .evaluate(&dfs, &program)
                        .unwrap_or_else(|e| panic!("{label}\n{e}"));
                    if stats.spilled_bytes() > 0 {
                        spilled_runs += 1;
                    }
                    for q in program.queries() {
                        assert_eq!(
                            dfs.peek(q.output()).unwrap().as_ref(),
                            expected.relation(q.output()).unwrap(),
                            "output {} differs; {label}",
                            q.output()
                        );
                    }
                }
            }
        }
    }
    assert!(
        spilled_runs > 0,
        "no run spilled: the budget dimension tested nothing"
    );
}
