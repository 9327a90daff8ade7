//! Experiment implementations: one function per table/figure of §5.
//!
//! Each function prints the same rows/series the paper reports (absolute
//! values plus, where the paper does, values relative to the baseline) and
//! returns its rows for programmatic use.

use std::collections::BTreeSet;

use gumbo_baselines::greedy_engine;
use gumbo_common::Result;
use gumbo_core::{Estimator, PayloadMode, QueryContext};
use gumbo_datagen::queries;
use gumbo_datagen::Workload;
use gumbo_mr::{CostModelKind, JobConfig};
use gumbo_sgf::DependencyGraph;
use gumbo_storage::SimDfs;

use crate::runner::{applicable, run_strategy, RunConfig, RunResult, Strategy};

/// The BSGF strategy lineup of Figure 3/4.
pub const BSGF_STRATEGIES: [Strategy; 7] = [
    Strategy::Seq,
    Strategy::Par,
    Strategy::Greedy,
    Strategy::Hpar,
    Strategy::Hpars,
    Strategy::Ppar,
    Strategy::OneRound,
];

/// The SGF strategy lineup of Figure 5.
pub const SGF_STRATEGIES: [Strategy; 3] =
    [Strategy::SeqUnit, Strategy::ParUnit, Strategy::GreedySgf];

fn print_header(title: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
}

fn print_rows(rows: &[RunResult]) {
    println!(
        "{:<10} {:<10} {:>10} {:>12} {:>10} {:>10} {:>7} {:>6}",
        "workload", "strategy", "net(s)", "total(s)", "input(GB)", "comm(GB)", "rounds", "jobs"
    );
    for r in rows {
        println!(
            "{:<10} {:<10} {:>10.0} {:>12.0} {:>10.1} {:>10.1} {:>7} {:>6}",
            r.workload, r.strategy, r.net, r.total, r.input_gb, r.comm_gb, r.rounds, r.jobs
        );
    }
}

fn print_relative(rows: &[RunResult], baseline: &str) {
    println!();
    println!("relative to {baseline} (100%):");
    println!(
        "{:<10} {:<10} {:>8} {:>8} {:>8} {:>8}",
        "workload", "strategy", "net", "total", "input", "comm"
    );
    let mut base: std::collections::BTreeMap<&str, &RunResult> = Default::default();
    for r in rows {
        if r.strategy == baseline {
            base.insert(r.workload.as_str(), r);
        }
    }
    for r in rows {
        if let Some(b) = base.get(r.workload.as_str()) {
            println!(
                "{:<10} {:<10} {:>7.0}% {:>7.0}% {:>7.0}% {:>7.0}%",
                r.workload,
                r.strategy,
                100.0 * r.net / b.net,
                100.0 * r.total / b.total,
                100.0 * r.input_gb / b.input_gb,
                100.0 * r.comm_gb / b.comm_gb,
            );
        }
    }
}

fn run_lineup(
    workloads: &[Workload],
    strategies: &[Strategy],
    cfg: &RunConfig,
) -> Result<Vec<RunResult>> {
    let mut rows = Vec::new();
    for w in workloads {
        for &s in strategies {
            if applicable(s, w) {
                rows.push(run_strategy(s, w, cfg)?);
            }
        }
    }
    Ok(rows)
}

/// Figure 3: BSGF queries A1–A5 under all strategies.
pub fn fig3(cfg: &RunConfig) -> Result<Vec<RunResult>> {
    print_header("Figure 3 — BSGF queries A1-A5 (abs + relative to SEQ)");
    let workloads = vec![
        queries::a1(),
        queries::a2(),
        queries::a3(),
        queries::a4(),
        queries::a5(),
    ];
    let rows = run_lineup(&workloads, &BSGF_STRATEGIES, cfg)?;
    print_rows(&rows);
    print_relative(&rows, "SEQ");
    Ok(rows)
}

/// Figure 4: large BSGF queries B1 and B2.
pub fn fig4(cfg: &RunConfig) -> Result<Vec<RunResult>> {
    print_header("Figure 4 — large BSGF queries B1, B2 (abs + relative to SEQ)");
    let workloads = vec![queries::b1(), queries::b2()];
    let rows = run_lineup(&workloads, &BSGF_STRATEGIES, cfg)?;
    print_rows(&rows);
    print_relative(&rows, "SEQ");
    Ok(rows)
}

/// §5.2 "Cost Model": GREEDY under cost_gumbo vs cost_wang on the 48-atom
/// filter query, plus random job-pair ranking accuracy.
pub fn costmodel(cfg: &RunConfig) -> Result<()> {
    print_header("§5.2 Cost Model — cost_gumbo vs cost_wang");
    let w = queries::cost_model_query();
    // The adversarial shape: the guard amplifies its map output 48× while
    // the (large) conditional relations are filtered to nothing by the
    // constant — so cost_wang's global averaging sees many mappers with
    // almost no output and misjudges the guard's map-side merge depth.
    let spec = w
        .spec
        .clone()
        .with_tuples(cfg.tuples)
        .with_cond_tuples(cfg.tuples * 8)
        .with_selectivity(cfg.selectivity);
    let db = spec.database(cfg.seed);

    let mut results = Vec::new();
    for (label, model) in [
        ("cost_gumbo", CostModelKind::Gumbo),
        ("cost_wang", CostModelKind::Wang),
    ] {
        let dfs = SimDfs::from_database(&db);
        let mut engine = greedy_engine(gumbo_mr::EngineConfig {
            scale: cfg.scale,
            cluster: gumbo_mr::Cluster::with_nodes(cfg.nodes),
            ..gumbo_mr::EngineConfig::default()
        });
        engine.executor = cfg.executor;
        engine.options.planner_model = model;
        let stats = engine.evaluate(&dfs, &w.query)?;
        println!(
            "GREEDY planned with {label:<11}: net {:>8.0}s  total {:>10.0}s  jobs {}",
            stats.net_time(),
            stats.total_time(),
            stats.num_jobs()
        );
        for j in &stats.jobs {
            println!(
                "    {:<40} cost {:>8.0} (map {:>8.0} / red {:>6.0})  in {:>7.1} GB  shuffle {:>7.1} GB",
                truncate_name(&j.name),
                j.total_cost,
                j.map_cost,
                j.reduce_cost,
                j.input_bytes().as_bytes() as f64 / 1e9,
                j.communication_bytes().as_bytes() as f64 / 1e9,
            );
        }
        results.push((stats.net_time(), stats.total_time()));
    }
    let (net_g, tot_g) = results[0];
    let (net_w, tot_w) = results[1];
    println!(
        "cost_gumbo reduction vs cost_wang: total {:.0}%, net {:.0}%",
        100.0 * (1.0 - tot_g / tot_w),
        100.0 * (1.0 - net_g / net_w)
    );

    // Random job-pair ranking: estimate MSJ groups under both models and
    // compare orderings against measured execution cost. The pool mixes
    // proportional-ratio jobs (A1/A3/B1 groups) with skewed-ratio jobs
    // (cost-model-query groups, where the guard amplifies and the
    // conditionals filter) — the regime where cost_wang misprices.
    let pool_workloads = [
        queries::a1().with_tuples(cfg.tuples),
        queries::a3().with_tuples(cfg.tuples),
        queries::b1().with_tuples(cfg.tuples),
        queries::cost_model_query().with_tuples(cfg.tuples),
    ];
    let mut jobs: Vec<(f64, f64, f64)> = Vec::new(); // (gumbo est, wang est, measured)
    for (wi, pw) in pool_workloads.iter().enumerate() {
        let pdb = pw.spec.database(cfg.seed);
        let ctx = QueryContext::new(pw.query.queries().to_vec())?;
        let n = ctx.semijoins().len();
        let executor = cfg.executor.build(gumbo_mr::EngineConfig {
            scale: cfg.scale,
            ..gumbo_mr::EngineConfig::default()
        });
        // Deterministic pseudo-random subsets of the semi-join set; for the
        // skewed cost-model query, graded prefix sizes so its jobs' costs
        // interleave with the proportional jobs'.
        for k in 0..6usize {
            let group: Vec<usize> = if pw.name == "COST" {
                (0..n.min(4 + k * 9)).collect()
            } else {
                (0..n).filter(|i| (i * 7 + k * 3 + wi) % 3 != 0).collect()
            };
            let group = if group.is_empty() { vec![0] } else { group };
            let dfs = SimDfs::from_database(&pdb);
            let est_g = Estimator::new(
                &dfs,
                cfg.scale,
                gumbo_mr::CostConstants::default(),
                CostModelKind::Gumbo,
                64,
                cfg.seed,
            );
            let cg = est_g.msj_cost(&ctx, &group, PayloadMode::Reference, &JobConfig::default())?;
            let est_w = Estimator::new(
                &dfs,
                cfg.scale,
                gumbo_mr::CostConstants::default(),
                CostModelKind::Wang,
                64,
                cfg.seed,
            );
            let cw = est_w.msj_cost(&ctx, &group, PayloadMode::Reference, &JobConfig::default())?;
            let job = gumbo_core::msj::build_msj_job(
                &ctx,
                &group,
                PayloadMode::Reference,
                JobConfig::default(),
            );
            let measured = executor.execute_job(&dfs, &job, 0)?.total_cost;
            jobs.push((cg, cw, measured));
        }
    }
    let mut correct_g = 0;
    let mut correct_w = 0;
    let mut pairs = 0;
    for i in 0..jobs.len() {
        for j in (i + 1)..jobs.len() {
            let (gi, wi_, mi) = jobs[i];
            let (gj, wj, mj) = jobs[j];
            if (mi - mj).abs() < 1e-9 {
                continue;
            }
            pairs += 1;
            if (gi > gj) == (mi > mj) {
                correct_g += 1;
            }
            if (wi_ > wj) == (mi > mj) {
                correct_w += 1;
            }
        }
    }
    println!(
        "job-pair ranking accuracy over {pairs} pairs: cost_gumbo {:.2}%, cost_wang {:.2}%",
        100.0 * correct_g as f64 / pairs as f64,
        100.0 * correct_w as f64 / pairs as f64
    );
    Ok(())
}

/// Figure 5: SGF queries C1–C4, relative to SEQUNIT.
pub fn fig5(cfg: &RunConfig) -> Result<Vec<RunResult>> {
    print_header("Figure 5 — SGF queries C1-C4 (relative to SEQUNIT)");
    let workloads = queries::figure6();
    let rows = run_lineup(&workloads, &SGF_STRATEGIES, cfg)?;
    print_rows(&rows);
    print_relative(&rows, "SEQUNIT");
    Ok(rows)
}

const SWEEP_STRATEGIES: [Strategy; 4] = [
    Strategy::Seq,
    Strategy::Par,
    Strategy::Greedy,
    Strategy::OneRound,
];

/// Figure 7a: growing data size on a fixed 10-node cluster (A3).
pub fn fig7a(cfg: &RunConfig) -> Result<Vec<RunResult>> {
    print_header("Figure 7a — varying data size (10 nodes, A3)");
    let mut rows = Vec::new();
    for mult in [2u64, 4, 8, 16] {
        // scale × tuples = 200M/400M/800M/1600M equivalents.
        let c = RunConfig {
            scale: cfg.scale * mult / 2,
            ..cfg.clone()
        };
        for s in SWEEP_STRATEGIES {
            let mut r = run_strategy(s, &queries::a3(), &c)?;
            r.workload = format!("{}M", c.equivalent_tuples() / 1_000_000);
            rows.push(r);
        }
    }
    print_rows(&rows);
    Ok(rows)
}

/// Figure 7b: growing cluster size at fixed data size (A3).
pub fn fig7b(cfg: &RunConfig) -> Result<Vec<RunResult>> {
    print_header("Figure 7b — varying cluster size (800M-equivalent tuples, A3)");
    let mut rows = Vec::new();
    for nodes in [5usize, 10, 20] {
        let c = RunConfig {
            nodes,
            scale: cfg.scale * 4,
            ..cfg.clone()
        };
        for s in SWEEP_STRATEGIES {
            let mut r = run_strategy(s, &queries::a3(), &c)?;
            r.workload = format!("{nodes}n");
            rows.push(r);
        }
    }
    print_rows(&rows);
    Ok(rows)
}

/// Figure 7c: co-scaling data and cluster size (A3).
pub fn fig7c(cfg: &RunConfig) -> Result<Vec<RunResult>> {
    print_header("Figure 7c — co-scaling data and cluster size (A3)");
    let mut rows = Vec::new();
    for (mult, nodes) in [(1u64, 5usize), (2, 10), (4, 20)] {
        let c = RunConfig {
            nodes,
            scale: cfg.scale * mult,
            ..cfg.clone()
        };
        for s in SWEEP_STRATEGIES {
            let mut r = run_strategy(s, &queries::a3(), &c)?;
            r.workload = format!("{}M/{}n", c.equivalent_tuples() / 1_000_000, nodes);
            rows.push(r);
        }
    }
    print_rows(&rows);
    Ok(rows)
}

/// Figure 8: varying the number of conditional atoms (A3 family).
pub fn fig8(cfg: &RunConfig) -> Result<Vec<RunResult>> {
    print_header("Figure 8 — varying the number of conditional atoms (A3 family)");
    let mut rows = Vec::new();
    for k in [2usize, 4, 8, 12, 16] {
        let w = queries::a3_family(k);
        for s in SWEEP_STRATEGIES {
            rows.push(run_strategy(s, &w, cfg)?);
        }
    }
    print_rows(&rows);
    Ok(rows)
}

/// Table 3: net/total increase when selectivity goes from 0.1 to 0.9.
pub fn table3(cfg: &RunConfig) -> Result<()> {
    print_header("Table 3 — selectivity 0.1 -> 0.9 increase (A1-A3)");
    let workloads = [queries::a1(), queries::a2(), queries::a3()];
    let strategies = [Strategy::Seq, Strategy::Par, Strategy::Greedy];
    println!(
        "{:<10} {:<10} {:>12} {:>12}",
        "strategy", "query", "net incr", "total incr"
    );
    for s in strategies {
        for w in &workloads {
            let lo = run_strategy(
                s,
                w,
                &RunConfig {
                    selectivity: 0.1,
                    ..cfg.clone()
                },
            )?;
            let hi = run_strategy(
                s,
                w,
                &RunConfig {
                    selectivity: 0.9,
                    ..cfg.clone()
                },
            )?;
            println!(
                "{:<10} {:<10} {:>11.0}% {:>11.0}%",
                s.label(),
                w.name,
                100.0 * (hi.net - lo.net) / lo.net,
                100.0 * (hi.total - lo.total) / lo.total,
            );
        }
    }
    Ok(())
}

/// Optimality checks: greedy vs brute-force planners (backing Theorems 1/2
/// and the paper's claim that Greedy-SGF matched the optimal sorts on
/// C1–C4).
pub fn optimality(cfg: &RunConfig) -> Result<()> {
    print_header("Optimality — greedy vs brute-force planners");
    // (a) Greedy-SGF vs optimal multiway topological sort on C1-C4.
    for w in queries::figure6() {
        let db = w
            .spec
            .clone()
            .with_tuples(cfg.tuples.min(2000))
            .database(cfg.seed);
        let dfs = SimDfs::from_database(&db);
        let mut engine = greedy_engine(gumbo_mr::EngineConfig {
            scale: cfg.scale,
            ..gumbo_mr::EngineConfig::default()
        });
        engine.executor = cfg.executor;
        let greedy_sort = gumbo_core::planner::greedy_sgf_sort(&w.query);
        let greedy_cost = engine.sort_cost(&dfs, &w.query, &greedy_sort)?;
        let (opt_sort, opt_cost) = gumbo_core::planner::optimal_sgf_sort(&w.query, &mut |s| {
            engine.sort_cost(&dfs, &w.query, s)
        })?;
        println!(
            "{}: greedy sort cost {:.0}, optimal {:.0} (ratio {:.3}); groups {} vs {}",
            w.name,
            greedy_cost,
            opt_cost,
            greedy_cost / opt_cost,
            greedy_sort.len(),
            opt_sort.len()
        );
    }
    // (b) Greedy-BSGF vs optimal partition on A1/A3/B2 semi-join sets.
    for w in [queries::a1(), queries::a3(), queries::b2()] {
        let db = w
            .spec
            .clone()
            .with_tuples(cfg.tuples.min(2000))
            .database(cfg.seed);
        let dfs = SimDfs::from_database(&db);
        let ctx = QueryContext::new(w.query.queries().to_vec())?;
        let est = Estimator::new(
            &dfs,
            cfg.scale,
            gumbo_mr::CostConstants::default(),
            CostModelKind::Gumbo,
            64,
            cfg.seed,
        );
        let n = ctx.semijoins().len();
        let cfg_job = JobConfig::default();
        let mut cost_fn = |b: &BTreeSet<usize>| {
            let ids: Vec<usize> = b.iter().copied().collect();
            est.msj_cost(&ctx, &ids, PayloadMode::Reference, &cfg_job)
                .unwrap_or(f64::MAX)
        };
        let (_, greedy_cost) = gumbo_core::planner::greedy_partition(n, &mut cost_fn);
        let (_, opt_cost) = gumbo_core::planner::optimal_partition(n, &mut cost_fn);
        println!(
            "{}: greedy partition cost {:.0}, optimal {:.0} (ratio {:.3})",
            w.name,
            greedy_cost,
            opt_cost,
            greedy_cost / opt_cost
        );
    }
    Ok(())
}

/// Sanity: dependency structures of the C-queries match the paper.
pub fn structures() -> Result<()> {
    print_header("Dependency structures (Fig. 6)");
    for w in queries::figure6() {
        let g = DependencyGraph::new(&w.query);
        println!(
            "{}: {} subqueries, levels {:?}",
            w.name,
            g.len(),
            g.level_sort()
        );
    }
    Ok(())
}

/// Evaluations per `speedup` row; the row reports their median wall.
pub const SPEEDUP_RUNS: usize = 5;

/// Executor speedup: real wall-clock of the worker pool against one
/// worker, sweeping the worker count. Run with `--tuples 100000` for the
/// reference 100k-tuple workload. Each row is the median of
/// [`SPEEDUP_RUNS`] evaluations.
///
/// This is the one experiment about *our* wall-clock rather than the
/// paper's simulated metrics: answers and metered stats are identical
/// at every thread count by construction (see
/// `tests/executor_equivalence.rs`), so the only thing that changes is
/// how fast the hardware delivers them.
pub fn speedup(cfg: &RunConfig) -> Result<()> {
    use crate::report::{write_bench_json, Json};
    use gumbo_core::{EvalOptions, Grouping, GumboEngine, SortStrategy};
    use gumbo_mr::{ExecutorKind, ReducerPolicy};
    use std::time::Instant;

    print_header("Executor speedup — wall-clock, worker pool vs one worker");
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let tuples = cfg.tuples;
    println!(
        "available hardware parallelism: {hw} core(s); {tuples} guard tuples; \
         median of {SPEEDUP_RUNS} runs per row"
    );

    // Paper-scale byte accounting; fixed reducers keep every worker count
    // on plenty of independent reduce tasks.
    let w = queries::a3_family(8).with_tuples(tuples);
    let db = w.spec.database(cfg.seed);
    let engine_cfg = gumbo_mr::EngineConfig {
        scale: cfg.scale,
        cluster: gumbo_mr::Cluster::with_nodes(cfg.nodes),
        ..gumbo_mr::EngineConfig::default()
    };
    let options = EvalOptions {
        grouping: Grouping::Singletons,
        sort: SortStrategy::Levels,
        enable_one_round: false,
        job_config: gumbo_mr::JobConfig {
            reducer_policy: ReducerPolicy::Fixed(64),
            ..gumbo_mr::JobConfig::default()
        },
        ..EvalOptions::default()
    };
    let time_with = |kind: ExecutorKind| -> Result<(f64, u64)> {
        let engine = GumboEngine::with_executor(engine_cfg, kind, options);
        let mut walls = Vec::with_capacity(SPEEDUP_RUNS);
        let mut out = 0;
        for _ in 0..SPEEDUP_RUNS {
            let dfs = SimDfs::from_database(&db);
            let start = Instant::now();
            let stats = engine.evaluate(&dfs, &w.query)?;
            walls.push(start.elapsed().as_secs_f64());
            out = stats.jobs.iter().map(|j| j.output_tuples).sum();
        }
        walls.sort_by(f64::total_cmp);
        Ok((walls[SPEEDUP_RUNS / 2], out))
    };

    let mut rows: Vec<Json> = Vec::new();
    let mut record = |label: &str, secs: f64, speedup: f64, out: u64| {
        println!("{label:<26} {secs:>10.3} {speedup:>11.2}x {out:>10}");
        rows.push(Json::obj([
            ("runtime", Json::Str(label.into())),
            ("wall_s", Json::Num(secs)),
            ("speedup", Json::Num(speedup)),
            ("output_tuples", Json::Int(out)),
        ]));
    };

    let (base_secs, base_out) = time_with(ExecutorKind::Parallel { threads: 1 })?;
    println!(
        "{:<26} {:>10} {:>12} {:>10}",
        "runtime", "wall (s)", "speedup", "out tuples"
    );
    record("parallel:1 (sequential)", base_secs, 1.0, base_out);

    let mut sweep: Vec<usize> = vec![2, 4, 8, 16];
    sweep.retain(|&t| t <= 2 * hw.max(1));
    sweep.push(0); // auto
    for threads in sweep {
        let (secs, out) = time_with(ExecutorKind::Parallel { threads })?;
        assert_eq!(base_out, out, "thread counts must agree on results");
        let label = if threads == 0 {
            format!(
                "parallel (auto = {})",
                gumbo_mr::ParallelExecutor::new(engine_cfg).effective_threads()
            )
        } else {
            format!("parallel:{threads}")
        };
        record(&label, secs, base_secs / secs, out);
    }

    let report = Json::obj([
        ("experiment", Json::Str("speedup".into())),
        ("tuples", Json::Int(tuples as u64)),
        ("scale", Json::Int(cfg.scale)),
        ("nodes", Json::Int(cfg.nodes as u64)),
        ("hardware_threads", Json::Int(hw as u64)),
        ("runs_per_row", Json::Int(SPEEDUP_RUNS as u64)),
        ("rows", Json::Arr(rows)),
    ]);
    write_bench_json("speedup", &report).map_err(|e| {
        gumbo_common::GumboError::Storage(format!("writing BENCH_speedup.json: {e}"))
    })?;
    Ok(())
}

/// Bounded-memory shuffle: budget sweep at a fixed input size.
///
/// One workload (the 8-conditional A3 family), one database, one plan —
/// evaluated under a sweep of shuffle memory budgets from unlimited down
/// to a small fraction of the shuffle footprint. Every budgeted run must
/// leave a byte-identical DFS (and identical non-spill statistics are
/// implied by the shared metering pipeline); what changes is *where* the
/// shuffle lives: the spilled bytes, run files, merge passes, peak
/// tracked memory and wall-clock are recorded per budget and written to
/// `BENCH_spill.json`, so successive PRs can watch the cost of spilling.
pub fn spill(cfg: &RunConfig) -> Result<()> {
    use crate::report::{write_bench_json, Json};
    use gumbo_core::{EvalOptions, Grouping, GumboEngine, SortStrategy};
    use gumbo_mr::{MemBudget, ReducerPolicy};
    use std::time::Instant;

    print_header("Bounded-memory shuffle — budget sweep at fixed input size");
    let tuples = cfg.tuples;
    println!("{tuples} guard tuples; executor {}", cfg.executor.label());

    let w = queries::a3_family(8).with_tuples(tuples);
    let db = w.spec.database(cfg.seed);
    let engine_cfg = gumbo_mr::EngineConfig {
        scale: cfg.scale,
        cluster: gumbo_mr::Cluster::with_nodes(cfg.nodes),
        ..gumbo_mr::EngineConfig::default()
    };
    // Fixed reducers give the sweep a stable partition count, so the
    // per-partition budget share varies only with the budget itself.
    let options = EvalOptions {
        grouping: Grouping::Singletons,
        sort: SortStrategy::Levels,
        enable_one_round: false,
        job_config: gumbo_mr::JobConfig {
            reducer_policy: ReducerPolicy::Fixed(16),
            ..gumbo_mr::JobConfig::default()
        },
        ..EvalOptions::default()
    };

    let budgets = [
        ("unlimited", MemBudget::UNLIMITED),
        ("8m", MemBudget::bytes(8 << 20)),
        ("1m", MemBudget::bytes(1 << 20)),
        ("256k", MemBudget::bytes(256 << 10)),
        ("64k", MemBudget::bytes(64 << 10)),
        // The same smallest budget with RLE-compressed runs: identical
        // answers and raw spill volume, smaller files on disk.
        ("64k+rle", MemBudget::bytes(64 << 10).compressed(true)),
    ];

    println!(
        "{:<12} {:>10} {:>14} {:>13} {:>11} {:>13} {:>14}",
        "budget", "wall (s)", "spilled (B)", "disk (B)", "runs", "merge passes", "peak (B)"
    );
    let mut reference: Option<SimDfs> = None;
    let mut plain_64k: Option<(u64, u64)> = None; // (raw, disk) uncompressed
    let mut rows: Vec<Json> = Vec::new();
    for (label, budget) in budgets {
        let engine = GumboEngine::with_executor(
            engine_cfg,
            cfg.executor,
            EvalOptions {
                mem_budget: budget,
                ..options
            },
        );
        let runtime = engine.runtime();
        let dfs = SimDfs::from_database(&db);
        let start = Instant::now();
        let stats = engine.eval().on(&*runtime).run(&dfs, &w.query)?;
        let wall = start.elapsed().as_secs_f64();

        let peak = runtime.budget().peak();
        if let Some(limit) = budget.limit() {
            assert!(
                peak <= limit,
                "budget {label}: tracked peak {peak} exceeded the limit"
            );
        }
        match &reference {
            None => reference = Some(dfs),
            Some(expected) => {
                gumbo_sched::assert_identical_dfs(&format!("spill budget {label}"), expected, &dfs)
            }
        }

        println!(
            "{label:<12} {wall:>10.3} {:>14} {:>13} {:>11} {:>13} {peak:>14}",
            stats.spilled_bytes(),
            stats.spilled_disk_bytes(),
            stats.spill_files(),
            stats.spill_merge_passes(),
        );
        rows.push(Json::obj([
            ("budget", Json::Str(label.into())),
            ("budget_bytes", Json::Int(budget.limit().unwrap_or(0))),
            (
                "compress",
                Json::Str(if budget.compress() { "rle" } else { "off" }.into()),
            ),
            ("wall_s", Json::Num(wall)),
            ("spilled_bytes", Json::Int(stats.spilled_bytes())),
            ("spilled_disk_bytes", Json::Int(stats.spilled_disk_bytes())),
            ("spill_files", Json::Int(stats.spill_files())),
            ("merge_passes", Json::Int(stats.spill_merge_passes())),
            ("peak_tracked_bytes", Json::Int(peak)),
            (
                "output_tuples",
                Json::Int(stats.jobs.iter().map(|j| j.output_tuples).sum()),
            ),
        ]));
        if budget.limit() == Some(64 << 10) {
            let spilled: u64 = stats.spilled_bytes();
            assert!(
                spilled > 0,
                "the 64 KiB budget must force spilling on this workload"
            );
            if budget.compress() {
                let (raw, disk) = plain_64k.expect("uncompressed 64k ran first");
                assert_eq!(
                    stats.spilled_bytes(),
                    raw,
                    "compression must not change the raw spill volume"
                );
                assert!(
                    stats.spilled_disk_bytes() < disk,
                    "RLE runs ({} B) should beat raw runs ({disk} B) on disk",
                    stats.spilled_disk_bytes()
                );
            } else {
                plain_64k = Some((stats.spilled_bytes(), stats.spilled_disk_bytes()));
            }
        }
    }

    let report = Json::obj([
        ("experiment", Json::Str("spill".into())),
        ("tuples", Json::Int(tuples as u64)),
        ("scale", Json::Int(cfg.scale)),
        ("nodes", Json::Int(cfg.nodes as u64)),
        ("executor", Json::Str(cfg.executor.label())),
        ("rows", Json::Arr(rows)),
    ]);
    write_bench_json("spill", &report)
        .map_err(|e| gumbo_common::GumboError::Storage(format!("writing BENCH_spill.json: {e}")))?;
    Ok(())
}

/// Durable DFS backends: the same workload evaluated on the in-memory
/// `SimDfs` and the file-segment `FileDfs`, the latter twice — cold
/// (block cache starts empty) and warm (cache populated by the cold
/// run). Asserts cross-backend equivalence (identical relations and
/// byte meters) and writes wall times plus block-cache counters to
/// `BENCH_dfs.json`.
pub fn dfs(cfg: &RunConfig) -> Result<()> {
    use crate::report::{write_bench_json, Json};
    use gumbo_storage::{Dfs as _, FileDfs, DEFAULT_CACHE_BYTES};
    use std::time::Instant;

    print_header("Durable DFS — sim vs file backend, cold and warm block cache");
    let w = queries::a3().with_tuples(cfg.tuples);
    let db = w.spec.database(cfg.seed);
    let engine_cfg = gumbo_mr::EngineConfig {
        scale: cfg.scale,
        cluster: gumbo_mr::Cluster::with_nodes(cfg.nodes),
        ..gumbo_mr::EngineConfig::default()
    };
    let mut engine = greedy_engine(engine_cfg);
    engine.executor = cfg.executor;

    let dfs_sim = SimDfs::from_database(&db);
    let start = Instant::now();
    let stats_sim = engine.evaluate(&dfs_sim, &w.query)?;
    let wall_sim = start.elapsed().as_secs_f64();

    let root = std::env::temp_dir().join(format!("gumbo-bench-dfs-{}", std::process::id()));
    if root.exists() {
        std::fs::remove_dir_all(&root)
            .map_err(|e| gumbo_common::GumboError::Storage(format!("clearing {root:?}: {e}")))?;
    }
    let dfs_file = FileDfs::from_database(&root, DEFAULT_CACHE_BYTES, &db)?;
    let start = Instant::now();
    let stats_cold = engine.evaluate(&dfs_file, &w.query)?;
    let wall_cold = start.elapsed().as_secs_f64();
    let cache_cold = dfs_file.cache_stats();

    // Byte meters are logical and backend-invariant: the file backend
    // must report the exact relations and I/O counters sim does.
    gumbo_sched::assert_identical_dfs("dfs sim vs file", &dfs_sim, &dfs_file);
    gumbo_sched::assert_identical_stats("dfs sim vs file", &stats_sim, &stats_cold);

    let start = Instant::now();
    let stats_warm = engine.evaluate(&dfs_file, &w.query)?;
    let wall_warm = start.elapsed().as_secs_f64();
    gumbo_sched::assert_identical_stats("dfs file warm", &stats_cold, &stats_warm);
    let cache_total = dfs_file.cache_stats();
    let warm_hits = cache_total.hits - cache_cold.hits;
    let warm_misses = cache_total.misses - cache_cold.misses;
    assert!(
        warm_hits > 0,
        "the warm pass must serve some blocks from cache"
    );

    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>11}",
        "backend", "wall (s)", "cache hits", "misses", "evictions"
    );
    println!(
        "{:<10} {wall_sim:>10.3} {:>12} {:>12} {:>11}",
        "sim", "-", "-", "-"
    );
    println!(
        "{:<10} {wall_cold:>10.3} {:>12} {:>12} {:>11}",
        "file-cold", cache_cold.hits, cache_cold.misses, cache_cold.evictions
    );
    println!(
        "{:<10} {wall_warm:>10.3} {:>12} {:>12} {:>11}",
        "file-warm",
        warm_hits,
        warm_misses,
        cache_total.evictions - cache_cold.evictions
    );

    let row = |backend: &str, wall: f64, hits: u64, misses: u64, evictions: u64| {
        Json::obj([
            ("backend", Json::Str(backend.into())),
            ("wall_s", Json::Num(wall)),
            ("cache_hits", Json::Int(hits)),
            ("cache_misses", Json::Int(misses)),
            ("cache_evictions", Json::Int(evictions)),
        ])
    };
    let report = Json::obj([
        ("experiment", Json::Str("dfs".into())),
        ("tuples", Json::Int(cfg.tuples as u64)),
        ("scale", Json::Int(cfg.scale)),
        ("nodes", Json::Int(cfg.nodes as u64)),
        ("executor", Json::Str(cfg.executor.label())),
        ("cache_bytes", Json::Int(DEFAULT_CACHE_BYTES)),
        (
            "output_tuples",
            Json::Int(stats_sim.jobs.iter().map(|j| j.output_tuples).sum()),
        ),
        (
            "rows",
            Json::Arr(vec![
                row("sim", wall_sim, 0, 0, 0),
                row(
                    "file_cold",
                    wall_cold,
                    cache_cold.hits,
                    cache_cold.misses,
                    cache_cold.evictions,
                ),
                row(
                    "file_warm",
                    wall_warm,
                    warm_hits,
                    warm_misses,
                    cache_total.evictions - cache_cold.evictions,
                ),
            ]),
        ),
    ]);
    write_bench_json("dfs", &report)
        .map_err(|e| gumbo_common::GumboError::Storage(format!("writing BENCH_dfs.json: {e}")))?;
    std::fs::remove_dir_all(&root).ok();
    Ok(())
}

/// DAG scheduler vs round barrier: real wall-clock on multi-tenant
/// workloads of independent SGF queries.
///
/// Every client submits an A3-shaped query over its own renamed copy of
/// the relations, so the workload is embarrassingly schedulable — yet the
/// round-barrier path runs the clients' jobs strictly one after another,
/// while the DAG scheduler overlaps up to `max_concurrent_jobs` of them.
/// Both paths produce byte-identical DFS contents and identical per-job
/// statistics (asserted on every run); only the wall clock differs. Two
/// sweeps are reported and written to `BENCH_dagsched.json`: pool size at
/// a fixed client count, and client count at a fixed pool.
pub fn dagsched(cfg: &RunConfig) -> Result<()> {
    use crate::report::{write_bench_json, Json};
    use gumbo_core::{EvalOptions, Grouping, GumboEngine};
    use gumbo_datagen::DataSpec;
    use gumbo_sched::{DagScheduler, SchedulerConfig, Submission};
    use gumbo_sgf::SgfQuery;
    use std::time::Instant;

    print_header("DAG scheduler — wall-clock, dependency-driven vs round barrier");
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "available hardware parallelism: {hw} core(s); {} guard tuples per client",
        cfg.tuples
    );

    let engine_cfg = gumbo_mr::EngineConfig {
        scale: cfg.scale,
        cluster: gumbo_mr::Cluster::with_nodes(cfg.nodes),
        ..gumbo_mr::EngineConfig::default()
    };
    // MSJ → EVAL structure (no 1-ROUND fusion): each client's program has
    // a real intra-client dependency on top of the cross-client overlap.
    let engine = GumboEngine::new(
        engine_cfg,
        EvalOptions {
            grouping: Grouping::Greedy,
            enable_one_round: false,
            ..EvalOptions::default()
        },
    );

    // One independent query per client over per-client relation names.
    let client_query = |i: usize| -> SgfQuery {
        gumbo_sgf::parse_program(&format!(
            "Out{i} := SELECT (x, y, z, w) FROM R{i}(x, y, z, w) \
             WHERE S{i}(x) AND T{i}(x) AND U{i}(x) AND V{i}(x);"
        ))
        .expect("client query parses")
    };
    let client_database = |i: usize| -> gumbo_common::Database {
        let guard = format!("R{i}");
        let conds = [
            format!("S{i}"),
            format!("T{i}"),
            format!("U{i}"),
            format!("V{i}"),
        ];
        let cond_refs: Vec<(&str, usize)> = conds.iter().map(|c| (c.as_str(), 1)).collect();
        DataSpec::new(&[(guard.as_str(), 4)], &cond_refs)
            .with_tuples(cfg.tuples)
            .with_selectivity(cfg.selectivity)
            .database(cfg.seed + i as u64)
    };
    let build_programs = |queries: &[SgfQuery], dfs: &SimDfs| -> Result<Vec<gumbo_mr::MrProgram>> {
        queries
            .iter()
            .map(|q| {
                let ctx = QueryContext::new(q.queries().to_vec())?;
                let est = Estimator::new(
                    dfs,
                    cfg.scale,
                    gumbo_mr::CostConstants::default(),
                    CostModelKind::Gumbo,
                    64,
                    cfg.seed,
                );
                engine.plan_group(&est, &ctx)?.build_program(&ctx)
            })
            .collect()
    };

    // One measured comparison: `clients` independent queries, round
    // barrier vs DAG pool of `max_jobs`. Returns (rounds s, dag s, jobs).
    let run_pair = |clients: usize, max_jobs: usize| -> Result<(f64, f64, usize)> {
        let queries: Vec<SgfQuery> = (0..clients).map(client_query).collect();
        let mut combined = gumbo_common::Database::new();
        for i in 0..clients {
            for rel in client_database(i).relations() {
                combined.add_relation(rel.clone());
            }
        }
        // Round-barrier path: client programs run back to back, each with
        // a barrier after every round.
        let executor = cfg.executor.build(engine_cfg);
        let dfs_rounds = SimDfs::from_database(&combined);
        let programs = build_programs(&queries, &dfs_rounds)?;
        let start = Instant::now();
        let mut rounds_stats = Vec::with_capacity(clients);
        for program in &programs {
            rounds_stats.push(executor.execute(&dfs_rounds, program)?);
        }
        let rounds_wall = start.elapsed().as_secs_f64();

        // DAG path: all clients admitted at once, jobs start the moment
        // their inputs are materialized. The per-job executor is resized
        // through the scheduler config (parallelism comes from running
        // jobs concurrently, not from per-job worker pools).
        let scheduler = DagScheduler::new(SchedulerConfig {
            max_concurrent_jobs: max_jobs,
            ..SchedulerConfig::default()
        });
        let dag_executor = scheduler
            .config
            .executor_kind(cfg.executor)
            .build(engine_cfg);
        let dfs_dag = SimDfs::from_database(&combined);
        let programs = build_programs(&queries, &dfs_dag)?;
        let submissions: Vec<Submission> = programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| Submission::new(format!("client{i}"), p))
            .collect();
        let start = Instant::now();
        let reports = scheduler.execute_many(&*dag_executor, &dfs_dag, &submissions)?;
        let dag_wall = start.elapsed().as_secs_f64();

        // Equivalence: byte-identical DFS contents, identical per-job and
        // per-round statistics — the scheduler may only move wall clock.
        gumbo_sched::assert_identical_dfs("dagsched", &dfs_rounds, &dfs_dag);
        let mut jobs = 0;
        for (barrier, report) in rounds_stats.iter().zip(&reports) {
            gumbo_sched::assert_identical_stats(&report.tenant, barrier, &report.stats);
            jobs += report.stats.num_jobs();
        }
        Ok((rounds_wall, dag_wall, jobs))
    };

    println!(
        "{:<22} {:>8} {:>9} {:>6} {:>11} {:>11} {:>9}",
        "sweep", "clients", "max-jobs", "jobs", "rounds(s)", "dag(s)", "speedup"
    );
    let mut rows: Vec<Json> = Vec::new();
    let mut measure = |sweep: &str, clients: usize, max_jobs: usize| -> Result<()> {
        let (rounds_wall, dag_wall, jobs) = run_pair(clients, max_jobs)?;
        let speedup = rounds_wall / dag_wall.max(1e-12);
        println!(
            "{sweep:<22} {clients:>8} {max_jobs:>9} {jobs:>6} {rounds_wall:>11.3} {dag_wall:>11.3} {speedup:>8.2}x"
        );
        rows.push(Json::obj([
            ("sweep", Json::Str(sweep.into())),
            ("clients", Json::Int(clients as u64)),
            ("max_jobs", Json::Int(max_jobs as u64)),
            ("jobs", Json::Int(jobs as u64)),
            ("rounds_wall_s", Json::Num(rounds_wall)),
            ("dag_wall_s", Json::Num(dag_wall)),
            ("speedup", Json::Num(speedup)),
        ]));
        Ok(())
    };
    for max_jobs in [1usize, 2, 4, 8] {
        measure("pool @ 8 clients", 8, max_jobs)?;
    }
    for clients in [2usize, 4, 16] {
        measure("clients @ 4-job pool", clients, 4)?;
    }

    let report = Json::obj([
        ("experiment", Json::Str("dagsched".into())),
        ("tuples_per_client", Json::Int(cfg.tuples as u64)),
        ("scale", Json::Int(cfg.scale)),
        ("nodes", Json::Int(cfg.nodes as u64)),
        ("executor", Json::Str(cfg.executor.label())),
        ("hardware_threads", Json::Int(hw as u64)),
        ("rows", Json::Arr(rows)),
    ]);
    write_bench_json("dagsched", &report).map_err(|e| {
        gumbo_common::GumboError::Storage(format!("writing BENCH_dagsched.json: {e}"))
    })?;
    Ok(())
}

/// Placement policies × pool sizes over the datagen presets.
///
/// For every preset (A1–A5, B1/B2, C1–C4) the same database is evaluated
/// once on the round-barrier path (the reference) and then under the DAG
/// scheduler for each placement policy (`fifo`, `sjf`, `cp`) at each
/// pool size. Every scheduled run is asserted byte-identical to the
/// reference — placement may only move the wall clock. The recorded rows
/// (real wall, per-round net time, and the estimation layer's predicted
/// DAG net time) go to `BENCH_placement.json`.
pub fn placement(cfg: &RunConfig) -> Result<()> {
    use crate::report::{write_bench_json, Json};
    use gumbo_core::{EvalOptions, GumboEngine};
    use gumbo_sched::{PlacementPolicy, SchedulerConfig};
    use std::time::Instant;

    print_header("Placement policies — fifo vs sjf vs cp × pool sizes, all presets");
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "{} guard tuples; executor {}; {hw} hardware thread(s)",
        cfg.tuples,
        cfg.executor.label()
    );

    let mut presets = vec![
        queries::a1(),
        queries::a2(),
        queries::a3(),
        queries::a4(),
        queries::a5(),
        queries::b1(),
        queries::b2(),
    ];
    presets.extend(queries::figure6());

    let engine_cfg = gumbo_mr::EngineConfig {
        scale: cfg.scale,
        cluster: gumbo_mr::Cluster::with_nodes(cfg.nodes),
        ..gumbo_mr::EngineConfig::default()
    };
    let pools = [1usize, 2, 4];

    println!(
        "{:<8} {:<6} {:>5} {:>10} {:>12} {:>14} {:>6}",
        "preset", "policy", "pool", "wall (s)", "net (s)", "predicted (s)", "jobs"
    );
    let mut rows: Vec<Json> = Vec::new();
    for w in &presets {
        let db = w.spec.clone().with_tuples(cfg.tuples).database(cfg.seed);

        // Round-barrier reference: the answers every policy must match.
        let reference =
            GumboEngine::with_executor(engine_cfg, cfg.executor, EvalOptions::default());
        let dfs_ref = SimDfs::from_database(&db);
        let stats_ref = reference.evaluate(&dfs_ref, &w.query)?;

        for policy in PlacementPolicy::ALL {
            for pool in pools {
                let engine = GumboEngine::with_executor(
                    engine_cfg,
                    cfg.executor,
                    EvalOptions {
                        scheduler: Some(SchedulerConfig {
                            max_concurrent_jobs: pool,
                            threads_per_job: 0,
                            placement: policy,
                            ..SchedulerConfig::default()
                        }),
                        ..EvalOptions::default()
                    },
                );
                let dfs = SimDfs::from_database(&db);
                let start = Instant::now();
                let stats = engine.evaluate(&dfs, &w.query)?;
                let wall = start.elapsed().as_secs_f64();

                let label = format!("{} {} x{pool}", w.name, policy.label());
                gumbo_sched::assert_identical_dfs(&label, &dfs_ref, &dfs);
                gumbo_sched::assert_identical_stats(&label, &stats_ref, &stats);
                let predicted = stats
                    .predicted_net_time
                    .expect("scheduled runs report a predicted DAG net time");

                println!(
                    "{:<8} {:<6} {:>5} {wall:>10.3} {:>12.1} {predicted:>14.1} {:>6}",
                    w.name,
                    policy.label(),
                    pool,
                    stats.net_time(),
                    stats.num_jobs(),
                );
                rows.push(Json::obj([
                    ("preset", Json::Str(w.name.clone())),
                    ("policy", Json::Str(policy.label().into())),
                    ("pool", Json::Int(pool as u64)),
                    ("wall_s", Json::Num(wall)),
                    ("net_s", Json::Num(stats.net_time())),
                    ("predicted_net_s", Json::Num(predicted)),
                    ("jobs", Json::Int(stats.num_jobs() as u64)),
                    ("rounds", Json::Int(stats.num_rounds() as u64)),
                ]));
            }
        }
    }

    let report = Json::obj([
        ("experiment", Json::Str("placement".into())),
        ("tuples", Json::Int(cfg.tuples as u64)),
        ("scale", Json::Int(cfg.scale)),
        ("nodes", Json::Int(cfg.nodes as u64)),
        ("executor", Json::Str(cfg.executor.label())),
        ("hardware_threads", Json::Int(hw as u64)),
        ("rows", Json::Arr(rows)),
    ]);
    write_bench_json("placement", &report).map_err(|e| {
        gumbo_common::GumboError::Storage(format!("writing BENCH_placement.json: {e}"))
    })?;
    Ok(())
}

/// Run everything.
pub fn all(cfg: &RunConfig) -> Result<()> {
    fig3(cfg)?;
    fig4(cfg)?;
    costmodel(cfg)?;
    fig5(cfg)?;
    fig7a(cfg)?;
    fig7b(cfg)?;
    fig7c(cfg)?;
    fig8(cfg)?;
    table3(cfg)?;
    ablation(cfg)?;
    optimality(cfg)?;
    structures()?;
    Ok(())
}

/// Shorten long job names for tabular output.
fn truncate_name(name: &str) -> String {
    if name.len() <= 40 {
        name.to_string()
    } else {
        format!("{}…", &name[..39])
    }
}

/// Ablation study: Gumbo's individual optimizations (§5.1) toggled one at
/// a time on the A1 workload under the GREEDY strategy.
pub fn ablation(cfg: &RunConfig) -> Result<()> {
    use gumbo_core::{EvalOptions, Grouping, GumboEngine, SortStrategy};
    use gumbo_mr::ReducerPolicy;
    use gumbo_sgf::NaiveEvaluator;

    print_header("Ablation — Gumbo optimizations toggled individually (GREEDY)");
    for w in [queries::a1(), queries::a3()] {
        println!("--- workload {} ---", w.name);
        let spec = w
            .spec
            .clone()
            .with_tuples(cfg.tuples)
            .with_selectivity(cfg.selectivity);
        let db = spec.database(cfg.seed);
        let expected = NaiveEvaluator::new().evaluate_sgf_all(&w.query, &db)?;

        let base_job = JobConfig::default();
        let variants: Vec<(&str, EvalOptions)> = vec![
            (
                "all optimizations",
                EvalOptions {
                    grouping: Grouping::Greedy,
                    sort: SortStrategy::Levels,
                    enable_one_round: false,
                    ..EvalOptions::default()
                },
            ),
            (
                "no packing",
                EvalOptions {
                    grouping: Grouping::Greedy,
                    sort: SortStrategy::Levels,
                    enable_one_round: false,
                    job_config: JobConfig {
                        packing: false,
                        ..base_job
                    },
                    ..EvalOptions::default()
                },
            ),
            (
                "no guard references",
                EvalOptions {
                    grouping: Grouping::Greedy,
                    sort: SortStrategy::Levels,
                    enable_one_round: false,
                    mode: PayloadMode::Full,
                    ..EvalOptions::default()
                },
            ),
            (
                "input-based reducers",
                EvalOptions {
                    grouping: Grouping::Greedy,
                    sort: SortStrategy::Levels,
                    enable_one_round: false,
                    job_config: JobConfig {
                        reducer_policy: ReducerPolicy::pig_default(),
                        ..base_job
                    },
                    ..EvalOptions::default()
                },
            ),
            (
                "no grouping (PAR)",
                EvalOptions {
                    grouping: Grouping::Singletons,
                    sort: SortStrategy::Levels,
                    enable_one_round: false,
                    ..EvalOptions::default()
                },
            ),
        ];

        println!(
            "{:<22} {:>10} {:>12} {:>10} {:>10} {:>9}",
            "variant", "net(s)", "total(s)", "input(GB)", "comm(GB)", "reducers"
        );
        for (label, options) in variants {
            let dfs = SimDfs::from_database(&db);
            let engine = GumboEngine::with_executor(
                gumbo_mr::EngineConfig {
                    scale: cfg.scale,
                    cluster: gumbo_mr::Cluster::with_nodes(cfg.nodes),
                    ..gumbo_mr::EngineConfig::default()
                },
                cfg.executor,
                options,
            );
            let stats = engine.evaluate(&dfs, &w.query)?;
            for q in w.query.queries() {
                assert_eq!(
                    dfs.peek(q.output())?.as_ref(),
                    expected.relation(q.output()).expect("naive computed"),
                    "ablation variant {label} broke correctness"
                );
            }
            let reducers: usize = stats.jobs.iter().map(|j| j.profile.reducers).sum();
            println!(
                "{:<22} {:>10.0} {:>12.0} {:>10.1} {:>10.1} {:>9}",
                label,
                stats.net_time(),
                stats.total_time(),
                stats.input_bytes().as_bytes() as f64 / 1e9,
                stats.communication_bytes().as_bytes() as f64 / 1e9,
                reducers
            );
        }
    }
    Ok(())
}
