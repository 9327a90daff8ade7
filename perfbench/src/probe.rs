//! Benchmark-owned layer timers.
//!
//! The program is not instrumented for this benchmark: every per-layer
//! number comes from wrappers around the public API it already has.
//!
//! * [`TimedDfs`] delegates every [`Dfs`] call (and every fetch of a scan
//!   it opens) to the real backend and records the interval.
//! * [`TimedExecutor`] delegates to the real runtime and records each
//!   `run_phases(_with)` call — the map/shuffle/reduce compute.
//! * [`traced_eval`] replays the steps `GumboEngine::eval().run()` chains
//!   (sort, then per group: estimator, group plan, annotated program,
//!   execution) with a timer around each.
//!
//! All three are transparent: answers and modeled statistics equal the
//! plain `engine.eval().run()` path (see the tests at the bottom).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gumbo_common::{ByteSize, Relation, RelationName, Result, Tuple};
use gumbo_core::{Estimator, GumboEngine, QueryContext, SortStrategy};
use gumbo_mr::{ComputedJob, EngineConfig, Executor, Job, MapPlan, MemoryBudget, ProgramStats};
use gumbo_sched::DagScheduler;
use gumbo_sgf::{BsgfQuery, DependencyGraph, SgfQuery};
use gumbo_storage::{CacheStats, Dfs, RelationScan, TupleSource};

/// What a timed interval was doing. Each operation belongs to one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `Dfs::store` / `delete` / `flush` (storage writes).
    Store,
    /// `Dfs::read` / `peek` / scan fetches (storage reads).
    Fetch,
    /// `Executor::run_phases(_with)` (mr compute).
    Compute,
    /// Sort, estimator, group plan, program build (core planning).
    Plan,
    /// One planned program on the scheduler or round barrier (sched).
    Execute,
}

impl Op {
    fn index(self) -> usize {
        self as usize
    }

    /// Attribution priority when intervals overlap in wall time: the
    /// most specific layer wins (storage inside compute inside a
    /// scheduled program).
    fn layer(self) -> Layer {
        match self {
            Op::Store | Op::Fetch => Layer::Storage,
            Op::Compute => Layer::Mr,
            Op::Plan => Layer::Core,
            Op::Execute => Layer::Sched,
        }
    }
}

/// The layers wall time is attributed to, highest priority first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Storage,
    Mr,
    Core,
    Sched,
}

impl Layer {
    pub const ALL: [Layer; 4] = [Layer::Storage, Layer::Mr, Layer::Core, Layer::Sched];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Storage => "storage",
            Layer::Mr => "mr",
            Layer::Core => "core",
            Layer::Sched => "sched",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Interval {
    op: Op,
    start_ns: u64,
    end_ns: u64,
}

/// Collects timed intervals from any thread, relative to its creation.
#[derive(Debug)]
pub struct Recorder {
    base: Instant,
    intervals: Mutex<Vec<Interval>>,
    busy_ns: [AtomicU64; 5],
    calls: [AtomicU64; 5],
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            base: Instant::now(),
            intervals: Mutex::new(Vec::new()),
            busy_ns: Default::default(),
            calls: Default::default(),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Run `f`, recording its interval under `op`.
    pub fn time<T>(&self, op: Op, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.busy_ns[op.index()].fetch_add(end_ns - start_ns, Ordering::Relaxed);
        self.calls[op.index()].fetch_add(1, Ordering::Relaxed);
        self.intervals
            .lock()
            .expect("unpoisoned recorder")
            .push(Interval {
                op,
                start_ns,
                end_ns,
            });
        out
    }

    /// Summed duration of every `op` interval, in seconds (intervals on
    /// different threads add up, so this can exceed wall time).
    pub fn busy_s(&self, op: Op) -> f64 {
        self.busy_ns[op.index()].load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Number of `op` intervals.
    pub fn calls(&self, op: Op) -> u64 {
        self.calls[op.index()].load(Ordering::Relaxed)
    }

    /// Split the wall-clock window `[from_ns, to_ns)` over the layers:
    /// each instant goes to the highest-priority layer with an interval
    /// open at that instant (on any thread), or to the untraced
    /// remainder when none is. The parts sum to the window exactly.
    pub fn attribute(&self, from_ns: u64, to_ns: u64) -> Attribution {
        let intervals = self.intervals.lock().expect("unpoisoned recorder");
        let mut edges: Vec<(u64, Layer, i32)> = Vec::with_capacity(intervals.len() * 2);
        for iv in intervals.iter() {
            let (s, e) = (iv.start_ns.max(from_ns), iv.end_ns.min(to_ns));
            if s < e {
                edges.push((s, iv.op.layer(), 1));
                edges.push((e, iv.op.layer(), -1));
            }
        }
        edges.sort_by_key(|&(t, _, _)| t);
        let mut open = [0i32; 4];
        let mut layer_ns = [0u64; 4];
        let mut covered_ns = 0u64;
        let mut cursor = from_ns;
        for (t, layer, delta) in edges {
            if t > cursor {
                if let Some(top) = Layer::ALL.iter().position(|l| open[*l as usize] > 0) {
                    layer_ns[top] += t - cursor;
                    covered_ns += t - cursor;
                }
                cursor = t;
            }
            open[layer as usize] += delta;
        }
        Attribution {
            window_s: (to_ns - from_ns) as f64 / 1e9,
            layer_s: layer_ns.map(|ns| ns as f64 / 1e9),
            untraced_s: (to_ns - from_ns - covered_ns) as f64 / 1e9,
        }
    }
}

/// A wall-clock window split over the layers plus an untraced remainder.
#[derive(Debug, Clone, Copy)]
pub struct Attribution {
    pub window_s: f64,
    /// Indexed like [`Layer::ALL`].
    pub layer_s: [f64; 4],
    pub untraced_s: f64,
}

/// A [`Dfs`] that times every call into the wrapped backend.
#[derive(Debug)]
pub struct TimedDfs {
    inner: Arc<dyn Dfs>,
    rec: Arc<Recorder>,
}

impl TimedDfs {
    pub fn new(inner: Arc<dyn Dfs>, rec: Arc<Recorder>) -> TimedDfs {
        TimedDfs { inner, rec }
    }
}

struct TimedSource {
    scan: RelationScan,
    rec: Arc<Recorder>,
}

impl TupleSource for TimedSource {
    fn fetch(&self, range: Range<usize>) -> Result<Vec<Tuple>> {
        self.rec.time(Op::Fetch, || self.scan.fetch(range))
    }
}

impl Dfs for TimedDfs {
    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn store(&self, relation: Relation) -> Result<ByteSize> {
        self.rec.time(Op::Store, || self.inner.store(relation))
    }

    fn read(&self, name: &RelationName) -> Result<Arc<Relation>> {
        self.rec.time(Op::Fetch, || self.inner.read(name))
    }

    fn peek(&self, name: &RelationName) -> Result<Arc<Relation>> {
        self.rec.time(Op::Fetch, || self.inner.peek(name))
    }

    fn scan(&self, name: &RelationName) -> Result<RelationScan> {
        let scan = self.rec.time(Op::Fetch, || self.inner.scan(name))?;
        Ok(RelationScan::new(
            scan.name().clone(),
            scan.arity(),
            scan.len(),
            scan.bytes(),
            Arc::new(TimedSource {
                scan,
                rec: Arc::clone(&self.rec),
            }),
        ))
    }

    fn file_bytes(&self, name: &RelationName) -> Result<ByteSize> {
        self.inner.file_bytes(name)
    }

    fn exists(&self, name: &RelationName) -> bool {
        self.inner.exists(name)
    }

    fn delete(&self, name: &RelationName) -> Result<bool> {
        self.rec.time(Op::Store, || self.inner.delete(name))
    }

    fn file_names(&self) -> Vec<RelationName> {
        self.inner.file_names()
    }

    fn bytes_read(&self) -> ByteSize {
        self.inner.bytes_read()
    }

    fn bytes_written(&self) -> ByteSize {
        self.inner.bytes_written()
    }

    fn reset_counters(&self) {
        self.inner.reset_counters()
    }

    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn flush(&self) -> Result<()> {
        self.rec.time(Op::Store, || self.inner.flush())
    }
}

/// An [`Executor`] that times the wrapped runtime's compute phases. The
/// provided `execute_job`/`execute` methods are not overridden by either
/// runtime, so inheriting them here runs the same code.
pub struct TimedExecutor {
    inner: Box<dyn Executor>,
    rec: Arc<Recorder>,
}

impl TimedExecutor {
    pub fn new(inner: Box<dyn Executor>, rec: Arc<Recorder>) -> TimedExecutor {
        TimedExecutor { inner, rec }
    }
}

impl Executor for TimedExecutor {
    fn config(&self) -> &EngineConfig {
        self.inner.config()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn budget(&self) -> &MemoryBudget {
        self.inner.budget()
    }

    fn run_phases(&self, job: &Job, plan: MapPlan) -> Result<ComputedJob> {
        self.rec
            .time(Op::Compute, || self.inner.run_phases(job, plan))
    }

    fn run_phases_with(&self, job: &Job, plan: MapPlan, threads: usize) -> Result<ComputedJob> {
        self.rec.time(Op::Compute, || {
            self.inner.run_phases_with(job, plan, threads)
        })
    }
}

/// `engine.eval().on(runtime).run(dfs, query)` with each step timed:
/// the same calls in the same order as the engine's static-sort path.
pub fn traced_eval(
    engine: &GumboEngine,
    runtime: &dyn Executor,
    dfs: &dyn Dfs,
    query: &SgfQuery,
    rec: &Recorder,
) -> Result<ProgramStats> {
    assert!(
        engine.options.sort != SortStrategy::DynamicGreedy,
        "the traced replay covers the static-sort path only"
    );
    let sort = rec.time(Op::Plan, || -> Result<_> {
        let sort = engine.sort_for(dfs, query)?;
        DependencyGraph::new(query).validate_sort(&sort)?;
        Ok(sort)
    })?;
    let mut stats = ProgramStats::default();
    for group in &sort {
        let program = rec.time(Op::Plan, || -> Result<_> {
            let queries: Vec<BsgfQuery> =
                group.iter().map(|&i| query.queries()[i].clone()).collect();
            let ctx = QueryContext::new(queries)?;
            let est = Estimator::new(
                dfs,
                engine.config.scale,
                engine.config.constants,
                engine.options.planner_model,
                engine.options.sample_size,
                engine.options.seed,
            );
            let plan = engine.plan_group(&est, &ctx)?;
            plan.build_annotated_program(&ctx, &est)
        })?;
        let executed = rec.time(Op::Execute, || match engine.options.scheduler {
            Some(config) => DagScheduler::new(config).execute_program(runtime, dfs, program),
            None => runtime.execute(dfs, &program),
        })?;
        stats.extend(executed);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{flat_mem, nested_durable, Backend, BatchSpec};
    use gumbo_sched::{assert_identical_dfs, assert_identical_stats};
    use gumbo_storage::{FileDfs, SimDfs};

    /// A fresh DFS holding `spec`'s base relations, ingested the way the
    /// benchmark does it.
    fn fresh(spec: &BatchSpec, db: &gumbo_common::Database, dir: &std::path::Path) -> Arc<dyn Dfs> {
        match spec.backend {
            Backend::Sim => Arc::new(SimDfs::from_database(db)),
            Backend::File { cache_bytes } => {
                let dfs = FileDfs::create(dir, cache_bytes).unwrap();
                for rel in db.relations() {
                    dfs.store(rel.clone()).unwrap();
                }
                Arc::new(dfs)
            }
        }
    }

    fn scratch(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The wrapped run (timed DFS + timed runtime + traced replay of the
    /// eval steps) leaves byte-identical relations and identical modeled
    /// statistics to the plain `engine.eval().run()`.
    fn assert_transparent(label: &str, spec: &BatchSpec) {
        let db = spec.workload.spec.database(7);
        let query = &spec.workload.query;
        let root = scratch(label);

        let plain_dfs = fresh(spec, &db, &root.join("plain"));
        let plain = spec.engine.eval().run(&*plain_dfs, query).unwrap();

        let rec = Arc::new(Recorder::default());
        let inner = fresh(spec, &db, &root.join("timed"));
        let timed_dfs = TimedDfs::new(Arc::clone(&inner), Arc::clone(&rec));
        let runtime = TimedExecutor::new(spec.engine.runtime(), Arc::clone(&rec));
        let timed = traced_eval(&spec.engine, &runtime, &timed_dfs, query, &rec).unwrap();

        assert_identical_dfs(label, &*plain_dfs, &timed_dfs);
        assert_identical_stats(label, &plain, &timed);
        assert_eq!(plain.net_time(), timed.net_time(), "{label}: net time");
        assert_eq!(
            plain.total_time(),
            timed.total_time(),
            "{label}: total time"
        );
        assert_eq!(
            plain.mean_estimate_error(),
            timed.mean_estimate_error(),
            "{label}: estimate error"
        );
        for op in [Op::Plan, Op::Execute, Op::Compute, Op::Fetch, Op::Store] {
            assert!(rec.calls(op) > 0, "{label}: no {op:?} interval recorded");
        }
        drop((plain_dfs, inner, timed_dfs));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn wrappers_are_transparent_on_flat_mem() {
        assert_transparent("flat-mem", &flat_mem(3_000));
    }

    #[test]
    fn wrappers_are_transparent_on_nested_durable() {
        // Small enough budgets that the cache evicts and the shuffle
        // spills, as on the full-size workload.
        assert_transparent("nested-durable", &nested_durable(3_000, 16 << 10));
    }

    #[test]
    fn timed_dfs_is_transparent_on_the_service_mix() {
        let engine = crate::service::engine();
        let db = gumbo_datagen::queries::c3()
            .spec
            .with_tuples(500)
            .database(3);
        let root = scratch("service");
        let plain = FileDfs::from_database(root.join("plain"), 1 << 20, &db).unwrap();
        let inner: Arc<dyn Dfs> =
            Arc::new(FileDfs::from_database(root.join("timed"), 1 << 20, &db).unwrap());
        let timed = TimedDfs::new(Arc::clone(&inner), Arc::new(Recorder::default()));
        for w in crate::service::mix() {
            let a = engine.eval().run(&plain, &w.query).unwrap();
            let b = engine.eval().run(&timed, &w.query).unwrap();
            assert_identical_stats(&w.name, &a, &b);
            assert_identical_dfs(&w.name, &plain, &timed);
        }
        drop((plain, inner, timed));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn attribution_splits_the_window_exactly() {
        let rec = Recorder::default();
        let push = |op, start_ns, end_ns| {
            rec.intervals.lock().unwrap().push(Interval {
                op,
                start_ns,
                end_ns,
            })
        };
        // sched [0,100) holds compute [10,60) holding a fetch [20,30),
        // and a plan [70,80); [100,120) is untraced.
        push(Op::Execute, 0, 100);
        push(Op::Compute, 10, 60);
        push(Op::Fetch, 20, 30);
        push(Op::Plan, 70, 80);
        let a = rec.attribute(0, 120);
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(a.layer_s.map(ns), [10, 40, 10, 40]);
        assert_eq!(ns(a.untraced_s), 20);
        assert_eq!(ns(a.window_s), 120);
    }
}
