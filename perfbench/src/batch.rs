//! The batch workloads: one SGF program evaluated again and again.
//!
//! * `flat-mem` — B1 on `SimDfs`, round barrier, parallel runtime with 2
//!   threads, unlimited shuffle memory.
//! * `nested-durable` — C3 on a fresh `FileDfs` per iteration (base
//!   relations ingested, then the query), a block cache and a shuffle
//!   budget far smaller than the data, DAG scheduler with 2 concurrent
//!   jobs × 1 thread.
//!
//! Each iteration times `query_s` (evaluation plus reading every output
//! back) and, on `nested-durable`, `ingest_s`. Every answer is compared
//! with the naive evaluator's, and the modeled statistics must repeat
//! exactly from iteration to iteration.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gumbo_common::{Database, Relation, RelationName, Result};
use gumbo_core::{EvalOptions, GumboEngine};
use gumbo_datagen::Workload;
use gumbo_mr::{EngineConfig, Executor, ExecutorKind, MemBudget, ProgramStats};
use gumbo_sched::{PlacementPolicy, SchedulerConfig};
use gumbo_sgf::{parse_program, NaiveEvaluator, SgfQuery};
use gumbo_storage::{CacheStats, Dfs, FileDfs, SimDfs};

use crate::probe::{traced_eval, Attribution, Layer, Op, Recorder, TimedDfs, TimedExecutor};
use crate::stats::{median, median_index, mib, peak_rss_mb, relative_range, reset_peak_rss};
use crate::{Args, Report};

/// Where a batch workload keeps its relations.
#[derive(Debug, Clone, Copy)]
pub enum Backend {
    /// One in-memory DFS loaded at set-up and reused.
    Sim,
    /// A fresh durable DFS per iteration with this block-cache budget.
    File { cache_bytes: u64 },
}

/// One batch workload.
pub struct BatchSpec {
    pub workload: Workload,
    pub engine: GumboEngine,
    pub backend: Backend,
    /// Set-ups per run (the median is `setup_s`): more where one is short.
    pub setup_reps: usize,
}

/// Guard tuples of `flat-mem`.
pub const FLAT_MEM_TUPLES: usize = 100_000;
/// Guard tuples of `nested-durable`.
pub const NESTED_DURABLE_TUPLES: usize = 25_000;
/// Block cache and shuffle budget of `nested-durable`.
pub const NESTED_DURABLE_BUDGET: u64 = 256 << 10;

/// B1 in memory on the parallel runtime (2 threads), round barrier.
pub fn flat_mem(tuples: usize) -> BatchSpec {
    BatchSpec {
        workload: gumbo_datagen::queries::b1().with_tuples(tuples),
        engine: GumboEngine::with_executor(
            EngineConfig::default(),
            ExecutorKind::Parallel { threads: 2 },
            EvalOptions::default(),
        ),
        backend: Backend::Sim,
        setup_reps: 5,
    }
}

/// C3 on a durable DFS whose cache and shuffle budget are far smaller
/// than the data, scheduled as a DAG with 2 concurrent 1-thread jobs.
pub fn nested_durable(tuples: usize, budget: u64) -> BatchSpec {
    let mem = MemBudget::bytes(budget);
    BatchSpec {
        workload: gumbo_datagen::queries::c3().with_tuples(tuples),
        engine: GumboEngine::with_executor(
            EngineConfig::default(),
            ExecutorKind::Parallel { threads: 1 },
            EvalOptions {
                mem_budget: mem,
                dfs_cache: Some(budget),
                ..EvalOptions::default()
            }
            .with_scheduler(SchedulerConfig {
                max_concurrent_jobs: 2,
                threads_per_job: 1,
                mem_budget: mem,
                placement: PlacementPolicy::Fifo,
                core_budget: 0,
            }),
        ),
        backend: Backend::File {
            cache_bytes: budget,
        },
        setup_reps: 15,
    }
}

/// The modeled (paper) statistics of one evaluation. Exact: they are a
/// pure function of data and plan, so they must repeat bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Modeled {
    pub net_s: f64,
    pub total_s: f64,
    pub comm_bytes: u64,
    pub input_bytes: u64,
    pub jobs: usize,
    pub estimate_error: Option<f64>,
}

impl Modeled {
    pub fn of(stats: &ProgramStats) -> Modeled {
        Modeled {
            net_s: stats.net_time(),
            total_s: stats.total_time(),
            comm_bytes: stats.communication_bytes().as_bytes(),
            input_bytes: stats.input_bytes().as_bytes(),
            jobs: stats.num_jobs(),
            estimate_error: stats.mean_estimate_error(),
        }
    }
}

/// Inputs and expected answers, built once per set-up.
pub struct Prepared {
    pub db: Database,
    /// The expected contents of every output relation, in query order.
    pub oracle: Vec<Relation>,
    pub datagen_s: f64,
    pub oracle_s: f64,
}

/// Generate the database and evaluate the oracle.
pub fn prepare(workload: &Workload, seed: u64) -> Result<Prepared> {
    let t0 = Instant::now();
    let db = workload.spec.database(seed);
    let datagen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let oracle = oracle_outputs(&workload.query, &db)?;
    let oracle_s = t1.elapsed().as_secs_f64();
    Ok(Prepared {
        db,
        oracle,
        datagen_s,
        oracle_s,
    })
}

/// Every output relation of `query` over `db`, per the naive evaluator.
pub fn oracle_outputs(query: &SgfQuery, db: &Database) -> Result<Vec<Relation>> {
    let all = NaiveEvaluator::new().evaluate_sgf_all(query, db)?;
    Ok(query
        .output_names()
        .iter()
        .map(|name| all.relation(name).expect("evaluated output").clone())
        .collect())
}

/// Read every output of `query` back through `dfs` (metered reads).
pub fn read_outputs(dfs: &dyn Dfs, query: &SgfQuery) -> Result<Vec<Arc<Relation>>> {
    query.output_names().iter().map(|n| dfs.read(n)).collect()
}

/// Whether the read-back outputs equal the oracle's, relation by relation.
pub fn matches_oracle(got: &[Arc<Relation>], oracle: &[Relation]) -> bool {
    got.len() == oracle.len() && got.iter().zip(oracle).all(|(g, o)| g.as_ref() == o)
}

/// Per-layer readings of one traced iteration.
struct Traced {
    rec: Arc<Recorder>,
    query_window: Attribution,
}

/// Everything measured in one iteration.
struct Sample {
    ingest_s: f64,
    query_s: f64,
    /// Resident-set high-water mark over the query, when measurable.
    peak_rss_mb: Option<f64>,
    modeled: Modeled,
    peak_shuffle: u64,
    spilled: u64,
    spill_files: u64,
    merge_passes: u64,
    read_bytes: u64,
    written_bytes: u64,
    cache: CacheStats,
    traced: Option<Traced>,
}

/// A fresh DFS for one iteration of a file-backed workload.
struct Scratch {
    dir: PathBuf,
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn cache_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        ..after
    }
}

/// Run one iteration: (ingest,) evaluate, read back, check.
fn iterate(
    spec: &BatchSpec,
    prep: &Prepared,
    sim: &Option<Arc<dyn Dfs>>,
    work: &Path,
    index: usize,
    traced: bool,
) -> Result<(Sample, bool)> {
    let query = &spec.workload.query;
    let rec = Arc::new(Recorder::default());
    let (_scratch, base): (Option<Scratch>, Arc<dyn Dfs>) = match spec.backend {
        Backend::Sim => (None, Arc::clone(sim.as_ref().expect("loaded at set-up"))),
        Backend::File { cache_bytes } => {
            let dir = work.join(format!("iter-{index}"));
            let dfs = FileDfs::create(&dir, cache_bytes)?;
            (Some(Scratch { dir }), Arc::new(dfs))
        }
    };
    let dfs: Arc<dyn Dfs> = if traced {
        Arc::new(TimedDfs::new(Arc::clone(&base), Arc::clone(&rec)))
    } else {
        Arc::clone(&base)
    };

    let mut ingest_s = 0.0;
    if let Backend::File { .. } = spec.backend {
        let relations: Vec<Relation> = prep.db.relations().cloned().collect();
        let t = Instant::now();
        for relation in relations {
            dfs.store(relation)?;
        }
        ingest_s = t.elapsed().as_secs_f64();
    }

    let runtime: Box<dyn Executor> = if traced {
        Box::new(TimedExecutor::new(spec.engine.runtime(), Arc::clone(&rec)))
    } else {
        spec.engine.runtime()
    };
    let rss_reset = reset_peak_rss();
    let (read0, written0, cache0) = (dfs.bytes_read(), dfs.bytes_written(), dfs.cache_stats());
    let q0 = rec.now();
    let t = Instant::now();
    let stats = if traced {
        traced_eval(&spec.engine, &*runtime, &*dfs, query, &rec)?
    } else {
        spec.engine.eval().on(&*runtime).run(&*dfs, query)?
    };
    let outputs = read_outputs(&*dfs, query)?;
    let query_s = t.elapsed().as_secs_f64();
    let q1 = rec.now();
    let peak_rss_mb = rss_reset.then(peak_rss_mb);
    let ok = matches_oracle(&outputs, &prep.oracle);

    let sample = Sample {
        ingest_s,
        query_s,
        peak_rss_mb,
        modeled: Modeled::of(&stats),
        peak_shuffle: runtime.budget().peak(),
        spilled: stats.spilled_bytes(),
        spill_files: stats.spill_files(),
        merge_passes: stats.spill_merge_passes(),
        read_bytes: dfs.bytes_read().as_bytes() - read0.as_bytes(),
        written_bytes: dfs.bytes_written().as_bytes() - written0.as_bytes(),
        cache: cache_delta(dfs.cache_stats(), cache0),
        traced: traced.then(|| Traced {
            query_window: rec.attribute(q0, q1),
            rec: Arc::clone(&rec),
        }),
    };
    drop(outputs);
    drop(dfs);
    if let Backend::Sim = spec.backend {
        // Drop outputs and temporaries so every iteration starts from
        // the base relations alone.
        let keep: Vec<RelationName> = prep.db.relation_names().cloned().collect();
        for name in base.file_names() {
            if !keep.contains(&name) {
                base.delete(&name)?;
            }
        }
    }
    Ok((sample, ok))
}

/// Run a batch workload for `args.seconds`.
pub fn run(spec: &BatchSpec, args: &Args, work: &Path) -> Result<Report> {
    let mut report = Report::default();

    // Set-up: datagen + oracle + initial load, several times.
    let mut setup_s = Vec::new();
    let mut datagen_s = Vec::new();
    let mut oracle_s = Vec::new();
    let mut load_s = Vec::new();
    let mut prepared: Option<Prepared> = None;
    let mut sim: Option<Arc<dyn Dfs>> = None;
    for _ in 0..spec.setup_reps {
        drop(sim.take());
        let t = Instant::now();
        let prep = prepare(&spec.workload, args.seed)?;
        let tl = Instant::now();
        if let Backend::Sim = spec.backend {
            sim = Some(Arc::new(SimDfs::from_database(&prep.db)));
        }
        load_s.push(tl.elapsed().as_secs_f64());
        setup_s.push(t.elapsed().as_secs_f64());
        datagen_s.push(prep.datagen_s);
        oracle_s.push(prep.oracle_s);
        if let Some(previous) = &prepared {
            if previous.oracle != prep.oracle {
                report.fail("set-up is not deterministic: two oracles for one seed differ");
            }
        }
        prepared = Some(prep);
    }
    let prep = prepared.expect("at least one set-up");

    // Measure.
    let mut deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut samples: Vec<Sample> = Vec::new();
    let mut reference: Option<Modeled> = None;
    let mut index = 0;
    loop {
        let have_both = !args.trace || samples.iter().any(|s| s.traced.is_some());
        if index > 1 && have_both && Instant::now() >= deadline {
            break;
        }
        // Iteration 0 warms caches and lazy set-up; it is checked like
        // every other but not timed.
        let traced = args.trace && index % 2 == 0 && index > 0;
        let (sample, ok) = iterate(spec, &prep, &sim, work, index, traced)?;
        report.attempted += 1;
        if !ok {
            report.failed += 1;
            report.fail(&format!(
                "iteration {index}: an output differs from the oracle"
            ));
        }
        if index == 0 {
            deadline = Instant::now() + Duration::from_secs(args.seconds);
        }
        match &reference {
            None => reference = Some(sample.modeled.clone()),
            Some(r) if *r != sample.modeled => report.fail(&format!(
                "iteration {index}: modeled statistics changed ({r:?} vs {:?})",
                sample.modeled
            )),
            Some(_) => {}
        }
        if index > 0 {
            samples.push(sample);
        }
        index += 1;
    }
    let modeled = reference.expect("at least one iteration");

    let plain: Vec<&Sample> = samples.iter().filter(|s| s.traced.is_none()).collect();
    let col = |set: &[&Sample], f: &dyn Fn(&Sample) -> f64| -> Vec<f64> {
        set.iter().map(|s| f(s)).collect()
    };
    let query_s = median(&col(&plain, &|s| s.query_s));
    let ingest_s = match spec.backend {
        Backend::Sim => median(&load_s),
        Backend::File { .. } => median(&col(&plain, &|s| s.ingest_s)),
    };
    report.extra("ingest_s", ingest_s, "s");

    report.e2e("setup_s", median(&setup_s));
    report.e2e("query_s", query_s);
    let rss: Vec<f64> = plain.iter().filter_map(|s| s.peak_rss_mb).collect();
    if rss.len() < plain.len() {
        report.fail("the resident-set high-water mark could not be reset");
    }
    // Allocator fragmentation and the overlap of concurrent jobs only
    // ever raise a query's mark; the lowest mark is the repeatable part.
    report.e2e("peak_rss_mb", rss.iter().copied().fold(f64::MAX, f64::min));
    report.e2e("net_model_s", modeled.net_s);
    report.e2e("total_model_s", modeled.total_s);
    report.e2e("comm_model_gb", modeled.comm_bytes as f64 / 1e9);
    let per_iteration: Vec<String> = samples
        .iter()
        .map(|s| {
            let t = if s.traced.is_some() { "t" } else { "" };
            format!("{:.3}{t}/{:.0}", s.query_s, s.peak_rss_mb.unwrap_or(0.0))
        })
        .collect();
    report.note(&format!(
        "iterations={} after a warm-up (untraced {}), setup reps={}, per iteration query_s/peak_rss_mb (t = traced): {}",
        samples.len(),
        plain.len(),
        spec.setup_reps,
        per_iteration.join(" ")
    ));

    if args.trace {
        let all: Vec<&Sample> = samples.iter().collect();
        let traced: Vec<&Sample> = samples.iter().filter(|s| s.traced.is_some()).collect();
        fn tr(s: &Sample) -> &Traced {
            s.traced.as_ref().expect("traced sample")
        }
        let busy = |op: Op| median(&col(&traced, &|s| tr(s).rec.busy_s(op)));
        let calls = |op: Op| median(&col(&traced, &|s| tr(s).rec.calls(op) as f64));
        let traced_query = col(&traced, &|s| s.query_s);
        let parse_text = spec.workload.query.to_string();

        report.layer("datagen.gen_s", median(&datagen_s));
        report.layer("sgf.oracle_s", median(&oracle_s));
        report.layer("sgf.parse_ms", parse_ms(&parse_text));
        report.layer("core.plan_s", busy(Op::Plan));
        report.layer("core.jobs", modeled.jobs as f64);
        report.layer("core.estimate_error", modeled.estimate_error.unwrap_or(0.0));
        let compute = busy(Op::Compute);
        report.layer("mr.compute_s", compute);
        report.layer("mr.compute_calls", calls(Op::Compute));
        report.layer(
            "mr.peak_shuffle_mb",
            median(&col(&all, &|s| mib(s.peak_shuffle))),
        );
        let spilled = col(&all, &|s| mib(s.spilled));
        let files = col(&all, &|s| s.spill_files as f64);
        report.layer("mr.spilled_mb", median(&spilled));
        report.layer("mr.spilled_mb_range", relative_range(&spilled));
        report.layer("mr.spill_files", median(&files));
        report.layer("mr.spill_files_range", relative_range(&files));
        report.layer(
            "mr.merge_passes",
            median(&col(&all, &|s| s.merge_passes as f64)),
        );
        report.layer("storage.ingest_s", ingest_s);
        report.layer("storage.store_s", busy(Op::Store));
        report.layer("storage.store_calls", calls(Op::Store));
        report.layer(
            "storage.written_mb",
            median(&col(&all, &|s| mib(s.written_bytes))),
        );
        report.layer("storage.fetch_s", busy(Op::Fetch));
        report.layer("storage.fetch_calls", calls(Op::Fetch));
        report.layer(
            "storage.read_mb",
            median(&col(&all, &|s| mib(s.read_bytes))),
        );
        let hits = col(&all, &|s| s.cache.hits as f64);
        let misses = col(&all, &|s| s.cache.misses as f64);
        let lookups: f64 = hits.iter().sum::<f64>() + misses.iter().sum::<f64>();
        report.layer(
            "storage.cache_hit_rate",
            if lookups > 0.0 {
                hits.iter().sum::<f64>() / lookups
            } else {
                0.0
            },
        );
        report.layer("storage.cache_misses", median(&misses));
        report.layer(
            "storage.cache_evictions",
            median(&col(&all, &|s| s.cache.evictions as f64)),
        );
        let sched = busy(Op::Execute);
        report.layer("sched.wall_s", sched);
        report.layer(
            "sched.overlap",
            if sched > 0.0 { compute / sched } else { 0.0 },
        );
        report.layer("obs.trace_overhead", median(&traced_query) / query_s - 1.0);
        // The layer split of the median traced query: its parts and the
        // untraced remainder add up to that query's wall time exactly.
        let pick = tr(traced[median_index(&traced_query)]).query_window;
        report.layer("traced.query_s", pick.window_s);
        for (i, layer) in Layer::ALL.iter().enumerate() {
            report.layer(&format!("split.{}_s", layer.name()), pick.layer_s[i]);
        }
        report.layer("untraced_s", pick.untraced_s);
    }
    Ok(report)
}

/// Median time to parse `text`, in milliseconds.
pub fn parse_ms(text: &str) -> f64 {
    let times: Vec<f64> = (0..51)
        .map(|_| {
            let t = Instant::now();
            let parsed = parse_program(text);
            let elapsed = t.elapsed().as_secs_f64() * 1e3;
            assert!(parsed.is_ok(), "workload program must parse");
            elapsed
        })
        .collect();
    median(&times)
}
