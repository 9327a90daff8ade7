//! Tracing smoke tests: the observability plane must tell the truth.
//!
//! Three properties are pinned down across the whole execution matrix
//! (every datagen preset × one and two workers × both scheduling
//! paths):
//!
//! * **balance** — on every worker lane, span Begin/End events bracket
//!   like parentheses with matching names, and nothing is left open;
//! * **reconciliation** — the byte fields on `spill:run` spans sum to
//!   exactly each job's `JobStats::spilled_bytes`, and every estimated
//!   job's `commit` span carries the same estimated/observed cost pair
//!   as the stats it committed (the calibration ledger);
//! * **crash-consistency** — a panic inside an instrumented phase still
//!   closes every span (marked `aborted`) and the Chrome exporter
//!   still produces a well-formed JSON document.
//!
//! The tracer is process-global, so every test here serializes on one
//! mutex and uninstalls before asserting.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use gumbo::common::RelationName;
use gumbo::datagen::queries;
use gumbo::obs::json::Json;
use gumbo::obs::{Event, EventKind, FieldValue, RingSink};
use gumbo::prelude::*;

/// Tracer state is process-global; tests that install sinks take this
/// lock so their event streams cannot interleave.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn presets() -> Vec<gumbo::datagen::Workload> {
    let mut all = vec![
        queries::a1(),
        queries::a2(),
        queries::a3(),
        queries::a4(),
        queries::a5(),
        queries::b1(),
        queries::b2(),
    ];
    all.extend(queries::figure6());
    all
}

fn field_str<'a>(event: &'a Event, key: &str) -> Option<&'a str> {
    event.fields.iter().find(|f| f.key == key).and_then(|f| {
        if let FieldValue::Str(s) = &f.value {
            Some(s.as_str())
        } else {
            None
        }
    })
}

fn field_u64(event: &Event, key: &str) -> Option<u64> {
    event.fields.iter().find(|f| f.key == key).and_then(|f| {
        if let FieldValue::U64(n) = f.value {
            Some(n)
        } else {
            None
        }
    })
}

fn field_f64(event: &Event, key: &str) -> Option<f64> {
    event.fields.iter().find(|f| f.key == key).and_then(|f| {
        if let FieldValue::F64(x) = f.value {
            Some(x)
        } else {
            None
        }
    })
}

/// Per-lane bracket check: every End closes the most recent Begin of
/// the same name on its lane, and all lanes end empty.
fn assert_balanced(label: &str, events: &[Event]) {
    let mut stacks: HashMap<u64, Vec<&'static str>> = HashMap::new();
    for event in events {
        let stack = stacks.entry(event.lane).or_default();
        match event.kind {
            EventKind::Begin => stack.push(event.name),
            EventKind::End => {
                let open = stack.pop().unwrap_or_else(|| {
                    panic!(
                        "{label}: End {:?} with no open span on lane {}",
                        event.name, event.lane
                    )
                });
                assert_eq!(
                    open, event.name,
                    "{label}: End {:?} closes open span {open:?} on lane {}",
                    event.name, event.lane
                );
            }
            EventKind::Instant => {}
        }
    }
    for (lane, stack) in &stacks {
        assert!(
            stack.is_empty(),
            "{label}: unclosed spans {stack:?} on lane {lane}"
        );
    }
}

fn traced_run(
    workload: &gumbo::datagen::Workload,
    executor: ExecutorKind,
    scheduler: Option<SchedulerConfig>,
    budget: gumbo::mr::MemBudget,
) -> (Vec<Event>, ProgramStats) {
    let db = workload.spec.clone().with_tuples(120).database(11);
    let engine = GumboEngine::with_executor(
        EngineConfig {
            scale: 5_000,
            ..EngineConfig::default()
        },
        executor,
        EvalOptions {
            scheduler,
            mem_budget: budget,
            ..EvalOptions::default()
        },
    );
    let dfs = SimDfs::from_database(&db);
    let ring = Arc::new(RingSink::new(1 << 20));
    gumbo::obs::install(ring.clone());
    let result = engine.evaluate(&dfs, &workload.query);
    gumbo::obs::uninstall();
    let stats = result.unwrap_or_else(|e| panic!("{}: {e}", workload.name));
    assert_eq!(ring.dropped(), 0, "{}: ring sink overflowed", workload.name);
    (ring.events(), stats)
}

/// Every preset × worker count × scheduler leaves a balanced trace with
/// one `job` span and one full phase set per executed job.
#[test]
fn spans_balance_across_the_execution_matrix() {
    let _serial = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    for workload in presets() {
        for executor in [
            ExecutorKind::Parallel { threads: 1 },
            ExecutorKind::Parallel { threads: 2 },
        ] {
            for scheduler in [
                None,
                Some(SchedulerConfig {
                    max_concurrent_jobs: 3,
                    ..SchedulerConfig::default()
                }),
            ] {
                let scheduled = scheduler.is_some();
                let label = format!(
                    "{} ({}, {})",
                    workload.name,
                    executor.label(),
                    if scheduled { "dag" } else { "rounds" },
                );
                let (events, stats) = traced_run(
                    &workload,
                    executor,
                    scheduler,
                    gumbo::mr::MemBudget::UNLIMITED,
                );
                assert_balanced(&label, &events);
                let begins = |name: &str| {
                    events
                        .iter()
                        .filter(|e| e.kind == EventKind::Begin && e.name == name)
                        .count()
                };
                let jobs = stats.num_jobs();
                for phase in ["job", "plan", "map", "shuffle:flush", "reduce", "commit"] {
                    assert_eq!(
                        begins(phase),
                        jobs,
                        "{label}: expected one {phase:?} span per job"
                    );
                }
                let claims = events
                    .iter()
                    .filter(|e| e.kind == EventKind::Instant && e.name == "sched:claim")
                    .count();
                if scheduled {
                    assert_eq!(claims, jobs, "{label}: one claim per scheduled job");
                    // Nesting: each job span opens on the lane that
                    // just emitted its claim, so the most recent
                    // claim on that lane names the same job.
                    for begin in events
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.kind == EventKind::Begin && e.name == "job")
                    {
                        let (idx, job_span) = begin;
                        let claim = events[..idx]
                            .iter()
                            .rev()
                            .find(|e| e.lane == job_span.lane && e.name == "sched:claim")
                            .unwrap_or_else(|| {
                                panic!("{label}: job span without a prior claim on its lane")
                            });
                        assert_eq!(
                            field_str(claim, "job"),
                            field_str(job_span, "job"),
                            "{label}: job span nests under a different job's claim"
                        );
                    }
                } else {
                    assert_eq!(
                        claims, 0,
                        "{label}: no scheduler events on the barrier path"
                    );
                }
            }
        }
    }
}

/// Under a spill-forcing budget, the `spill:run` spans' byte fields sum
/// to exactly each job's `spilled_bytes`, and the `commit` ledger
/// matches the stats' estimated/observed costs — on one and two workers.
#[test]
fn spill_spans_and_commit_ledger_reconcile_with_job_stats() {
    let _serial = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let workload = queries::a3();
    for executor in [
        ExecutorKind::Parallel { threads: 1 },
        ExecutorKind::Parallel { threads: 2 },
    ] {
        let (events, stats) = traced_run(
            &workload,
            executor,
            Some(SchedulerConfig::default()),
            gumbo::mr::MemBudget::bytes(4096),
        );
        assert!(
            stats.spilled_bytes() > 0,
            "{executor:?}: the 4 KiB budget must force spilling"
        );

        // Per-job reconciliation: spill:run Begin events carry the exact
        // increment each flush applied to the job's spilled_bytes.
        let mut traced_bytes: HashMap<&str, u64> = HashMap::new();
        for event in events
            .iter()
            .filter(|e| e.kind == EventKind::Begin && e.name == "spill:run")
        {
            let job = field_str(event, "job").expect("spill:run spans carry the job label");
            let bytes = field_u64(event, "bytes").expect("spill:run spans carry a byte count");
            *traced_bytes.entry(job).or_default() += bytes;
        }
        for job in &stats.jobs {
            assert_eq!(
                traced_bytes.get(job.name.as_str()).copied().unwrap_or(0),
                job.spilled_bytes,
                "{executor:?}: spill:run bytes disagree with stats for job {}",
                job.name
            );
        }

        // The calibration ledger: every estimated job's commit span ends
        // with the same estimated/observed pair as its JobStats.
        for job in &stats.jobs {
            let commit = events
                .iter()
                .find(|e| {
                    e.kind == EventKind::End
                        && e.name == "commit"
                        && field_str(e, "job") == Some(job.name.as_str())
                })
                .unwrap_or_else(|| panic!("{executor:?}: no commit span for job {}", job.name));
            assert_eq!(
                field_f64(commit, "observed_cost"),
                Some(job.total_cost),
                "{executor:?}: observed cost mismatch for {}",
                job.name
            );
            assert_eq!(
                field_f64(commit, "estimated_cost"),
                job.estimated_cost,
                "{executor:?}: estimated cost mismatch for {}",
                job.name
            );
            if let Some(expected) = job.estimate_error() {
                let traced = field_f64(commit, "estimate_error")
                    .unwrap_or_else(|| panic!("{executor:?}: {} has no ledger ratio", job.name));
                assert!(
                    (traced - expected).abs() < 1e-12,
                    "{executor:?}: estimate_error {traced} vs {expected} for {}",
                    job.name
                );
            }
        }
        assert!(
            stats.jobs.iter().any(|j| j.estimated_cost.is_some()),
            "{executor:?}: planner-built jobs must carry estimates"
        );
    }
}

/// A reducer that panics mid-phase: spans still close (marked aborted)
/// and the Chrome trace file remains one well-formed JSON array.
#[test]
fn panicking_reducer_leaves_closed_spans_and_valid_chrome_json() {
    let _serial = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());

    struct KeyEcho;
    impl gumbo::mr::Mapper for KeyEcho {
        fn map(&self, fact: &Fact, _index: u64, emit: &mut dyn FnMut(Tuple, gumbo::mr::Message)) {
            emit(fact.tuple.clone(), gumbo::mr::Message::Assert { cond: 0 });
        }
    }
    struct Bomb;
    impl gumbo::mr::Reducer for Bomb {
        fn reduce(
            &self,
            _key: &Tuple,
            _values: &[gumbo::mr::Message],
            _emit: &mut dyn FnMut(&RelationName, Tuple),
        ) {
            panic!("reducer bomb");
        }
    }

    let mut db = Database::new();
    for i in 0..16i64 {
        db.insert_fact(Fact::new("R", Tuple::from_ints(&[i])))
            .unwrap();
    }
    let mut program = MrProgram::new();
    program.push_round(vec![gumbo::mr::Job {
        name: "bomb".into(),
        inputs: vec!["R".into()],
        outputs: vec![("Out".into(), 1)],
        mapper: Box::new(KeyEcho),
        reducer: Box::new(Bomb),
        config: JobConfig::default(),
        estimate: None,
    }]);

    let path = std::env::temp_dir().join(format!(
        "gumbo-trace-smoke-{}-panic.json",
        std::process::id()
    ));
    let chrome = gumbo::obs::ChromeTraceSink::create(&path).unwrap();
    gumbo::obs::install(Arc::new(chrome));
    let executor = ExecutorKind::default().build(EngineConfig::default());
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let dfs = SimDfs::from_database(&db);
        executor.execute(&dfs, &program)
    }));
    gumbo::obs::uninstall();
    assert!(outcome.is_err(), "the bomb must actually go off");

    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let root = Json::parse(&text).expect("a crashed run still writes valid JSON");
    let trace = root.as_arr().expect("a Chrome trace is one array");

    // Per-tid bracket check over the exported file, and every span the
    // unwind closed is flagged aborted.
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut aborted = 0;
    for event in trace {
        let ph = event.get("ph").and_then(Json::as_str).unwrap();
        let name = event.get("name").and_then(Json::as_str).unwrap();
        let tid = event.get("tid").and_then(Json::as_u64).unwrap();
        let stack = stacks.entry(tid).or_default();
        match ph {
            "B" => stack.push(name.to_string()),
            "E" => {
                assert_eq!(stack.pop().as_deref(), Some(name), "misnested {name}");
                if event.get("args").and_then(|a| a.get("aborted")).is_some() {
                    aborted += 1;
                }
            }
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans {stack:?} on tid {tid}");
    }
    assert!(
        trace
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("reduce:task")),
        "the panicking phase must have opened its span"
    );
    assert!(
        aborted >= 2,
        "the unwind crossed at least the reduce:task and job spans, saw {aborted} aborted"
    );
}
