//! Concurrency smoke test: the parallel runtime's output must not depend
//! on its worker count or on OS scheduling.
//!
//! The same program runs with 1, 4 and 16 worker threads (and repeatedly
//! at the highest contention level); any nondeterminism in the shuffle
//! ordering or the reduce merge would show up as diverging relations or
//! statistics.

use gumbo::datagen::queries;
use gumbo::mr::{Job, JobConfig, Mapper, Message, Payload, Reducer};
use gumbo::prelude::*;

fn run_with(threads: usize, workload: &gumbo::datagen::Workload) -> (Vec<String>, ProgramStats) {
    let db = workload.spec.database(11);
    let engine = GumboEngine::with_executor(
        EngineConfig {
            scale: 5_000,
            ..EngineConfig::default()
        },
        ExecutorKind::Parallel { threads },
        EvalOptions::default(),
    );
    let dfs = SimDfs::from_database(&db);
    let stats = engine.evaluate(&dfs, &workload.query).unwrap();
    // Render every stored relation to a canonical string so runs can be
    // compared wholesale.
    let rendered = dfs
        .file_names()
        .iter()
        .map(|name| {
            let rel = dfs.peek(name).unwrap();
            let tuples: Vec<String> = rel.iter().map(|t| format!("{t:?}")).collect();
            format!("{name}:{}", tuples.join(","))
        })
        .collect();
    (rendered, stats)
}

#[test]
fn thread_count_does_not_change_results() {
    // An 8-conditional fan-out keeps many map and reduce tasks in flight.
    let workload = queries::a3_family(8).with_tuples(500);
    let (baseline, base_stats) = run_with(1, &workload);
    for threads in [4usize, 16] {
        let (rendered, stats) = run_with(threads, &workload);
        assert_eq!(baseline, rendered, "outputs diverged at {threads} threads");
        assert_eq!(base_stats.num_jobs(), stats.num_jobs());
        assert!((base_stats.net_time() - stats.net_time()).abs() < 1e-9);
        assert!((base_stats.total_time() - stats.total_time()).abs() < 1e-9);
    }
}

#[test]
fn repeated_high_contention_runs_are_stable() {
    // Rerun the 16-thread configuration several times: scheduling noise
    // across runs must never leak into results.
    let workload = queries::b1().with_tuples(300);
    let (first, _) = run_with(16, &workload);
    for _ in 0..3 {
        let (again, _) = run_with(16, &workload);
        assert_eq!(first, again);
    }
}

/// A mapper that funnels everything onto very few keys — maximum shuffle
/// contention, many values per group.
struct HotKeyMapper;
impl Mapper for HotKeyMapper {
    fn map(&self, fact: &gumbo::common::Fact, i: u64, emit: &mut dyn FnMut(Tuple, Message)) {
        let key = Tuple::from_ints(&[(i % 3) as i64]);
        emit(
            key,
            Message::Req {
                cond: 0,
                payload: Payload::Tuple(fact.tuple.clone()),
            },
        );
    }
}

/// A reducer whose output depends on the *order* of its input values —
/// the adversarial case for shuffle determinism.
struct OrderSensitiveReducer;
impl Reducer for OrderSensitiveReducer {
    fn reduce(
        &self,
        key: &Tuple,
        values: &[Message],
        emit: &mut dyn FnMut(&gumbo::common::RelationName, Tuple),
    ) {
        // Emit the first value only: if value order within a group were
        // nondeterministic, different threads counts would emit different
        // tuples.
        if let Some(Message::Req {
            payload: Payload::Tuple(t),
            ..
        }) = values.first()
        {
            let mut vals: Vec<_> = key.values().to_vec();
            vals.extend(t.values().iter().cloned());
            emit(&"First".into(), Tuple::new(vals));
        }
    }
}

#[test]
fn value_order_within_groups_is_deterministic_across_thread_counts() {
    let job = || Job {
        name: "hotkey".into(),
        inputs: vec!["R".into()],
        outputs: vec![("First".into(), 3)],
        mapper: Box::new(HotKeyMapper),
        reducer: Box::new(OrderSensitiveReducer),
        config: JobConfig::default(),
        estimate: None,
    };
    let mk_dfs = || {
        let mut db = Database::new();
        for i in 0..2_000i64 {
            db.insert_fact(Fact::new("R", Tuple::from_ints(&[i, i * 7 % 1000])))
                .unwrap();
        }
        SimDfs::from_database(&db)
    };
    let mut first: Option<Relation> = None;
    for threads in [1usize, 4, 16] {
        let dfs = mk_dfs();
        ExecutorKind::Parallel { threads }
            .build(EngineConfig {
                scale: 100_000,
                ..EngineConfig::default()
            })
            .execute_job(&dfs, &job(), 0)
            .unwrap();
        let got = dfs.peek(&"First".into()).unwrap().as_ref().clone();
        match &first {
            None => first = Some(got),
            Some(expected) => {
                assert_eq!(
                    expected, &got,
                    "group value order diverged at {threads} threads"
                )
            }
        }
    }
}
