//! Equivalence across the execution matrix, pinned to a golden table.
//!
//! The runtime runs the same pipeline at every worker count, under the
//! round barrier and the DAG scheduler, with or without a spilling
//! memory budget. None of that may change an answer or a metered
//! statistic. For every `datagen` query preset (the paper's full suite:
//! A1–A5, the large B1/B2 queries and the nested C1–C4 programs of
//! Figure 6) at a fixed size, seed and scale, [`GOLDEN`] records what the
//! paper's cost model sees: each job's profile (input, map-output and
//! output bytes, records, mappers, reducers), its modeled task
//! durations, and the program's net time, total time, input bytes and
//! communication bytes. The values were recorded with the
//! single-threaded simulator and the owned-pair shuffle the engine used
//! to carry; every runtime × shuffle × scheduler × budget combination of
//! that code agreed on them exactly. A deliberate change to the cost
//! model, the planner or the data generator moves them: re-record the
//! table from the one-worker round-barrier run and say why.
//!
//! Every run of the matrix
//!
//! `{1, 2, 8 workers} × {round barrier, DAG scheduler} × {unlimited,
//! 4 KiB budget}`
//!
//! must reproduce the table exactly and leave a DFS byte-identical to the
//! one-worker round-barrier run, whose answers are checked against the
//! naive SGF evaluator. Budgeted runs must really spill and keep the
//! tracked peak within the budget.

use gumbo::datagen::queries;
use gumbo::prelude::*;

const TUPLES: usize = 300;
const SEED: u64 = 7;
const SCALE: u64 = 20_000;
const BUDGET: u64 = 4096;
const THREADS: [usize; 3] = [1, 2, 8];

fn engine(threads: usize, dag: bool, budget: Option<u64>) -> GumboEngine {
    let mem_budget = match budget {
        Some(bytes) => gumbo::mr::MemBudget::bytes(bytes),
        None => gumbo::mr::MemBudget::UNLIMITED,
    };
    let mut options = EvalOptions {
        mem_budget,
        ..EvalOptions::default()
    };
    if dag {
        options.scheduler = Some(SchedulerConfig {
            max_concurrent_jobs: 3,
            threads_per_job: threads,
            mem_budget,
            ..SchedulerConfig::default()
        });
    }
    GumboEngine::with_executor(
        EngineConfig {
            scale: SCALE,
            ..EngineConfig::default()
        },
        ExecutorKind::Parallel { threads },
        options,
    )
}

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

/// One program's metered statistics.
struct Golden {
    preset: &'static str,
    net_time: f64,
    total_time: f64,
    input_bytes: u64,
    communication_bytes: u64,
    jobs: &'static [GoldenJob],
}

/// One job's metered statistics, in execution order.
struct GoldenJob {
    name: &'static str,
    round: usize,
    output_tuples: u64,
    reducers: usize,
    /// Scaled output bytes.
    output: u64,
    /// Per input: (label, input bytes, map-output bytes, map-output
    /// records, mappers), all scaled.
    partitions: &'static [(&'static str, u64, u64, u64, usize)],
    map_tasks: &'static [f64],
    reduce_tasks: &'static [f64],
}

fn assert_golden(label: &str, golden: &Golden, stats: &ProgramStats) {
    assert_eq!(stats.jobs.len(), golden.jobs.len(), "{label}: job count");
    for (job, want) in stats.jobs.iter().zip(golden.jobs) {
        let label = format!("{label}: job {}", want.name);
        assert_eq!(job.name, want.name, "{label}: job order");
        assert_eq!(job.round, want.round, "{label}: round");
        assert_eq!(job.output_tuples, want.output_tuples, "{label}: records");
        assert_eq!(job.profile.reducers, want.reducers, "{label}: reducers");
        assert_eq!(
            job.profile.output.as_bytes(),
            want.output,
            "{label}: output"
        );
        let partitions: Vec<_> = job
            .profile
            .partitions
            .iter()
            .map(|p| {
                (
                    p.label.as_str(),
                    p.input.as_bytes(),
                    p.map_output.as_bytes(),
                    p.records_out,
                    p.mappers,
                )
            })
            .collect();
        assert_eq!(partitions, want.partitions, "{label}: partitions");
        assert_eq!(job.map_task_durations, want.map_tasks, "{label}: map tasks");
        assert_eq!(
            job.reduce_task_durations, want.reduce_tasks,
            "{label}: reduce tasks"
        );
    }
    assert_eq!(stats.net_time(), golden.net_time, "{label}: net time");
    assert_eq!(stats.total_time(), golden.total_time, "{label}: total time");
    assert_eq!(
        stats.input_bytes().as_bytes(),
        golden.input_bytes,
        "{label}: input cost"
    );
    assert_eq!(
        stats.communication_bytes().as_bytes(),
        golden.communication_bytes,
        "{label}: communication cost"
    );
}

/// Evaluate every preset on one worker under the round barrier, check it
/// against the naive evaluator and the golden table, then run `budget`
/// on every worker count under the given scheduling path and require
/// the golden statistics and a byte-identical DFS.
fn check_matrix(dag: bool, budget: Option<u64>) {
    let workloads = presets();
    assert_eq!(workloads.len(), GOLDEN.len(), "one golden entry per preset");
    for (workload, golden) in workloads.iter().zip(GOLDEN) {
        assert_eq!(workload.name, golden.preset, "golden table order");
        let db = workload.spec.clone().with_tuples(TUPLES).database(SEED);

        let dfs_ref = SimDfs::from_database(&db);
        let stats_ref = engine(1, false, None)
            .evaluate(&dfs_ref, &workload.query)
            .unwrap_or_else(|e| panic!("{} (reference): {e}", workload.name));
        assert_golden(
            &format!("{} (reference)", workload.name),
            golden,
            &stats_ref,
        );
        let expected = NaiveEvaluator::new()
            .evaluate_sgf_all(&workload.query, &db)
            .unwrap();
        for q in workload.query.queries() {
            assert_eq!(
                dfs_ref.peek(q.output()).unwrap().as_ref(),
                expected
                    .relation(q.output())
                    .expect("naive computed all outputs"),
                "{}: answer {}",
                workload.name,
                q.output()
            );
        }

        for threads in THREADS {
            let subject = engine(threads, dag, budget);
            let runtime = subject.runtime();
            let dfs = SimDfs::from_database(&db);
            let label = format!(
                "{} ({threads} workers, {}, budget {budget:?})",
                workload.name,
                if dag { "dag" } else { "rounds" },
            );
            let stats = subject
                .eval()
                .on(&*runtime)
                .run(&dfs, &workload.query)
                .unwrap_or_else(|e| panic!("{label}: {e}"));

            assert_golden(&label, golden, &stats);
            gumbo::sched::assert_identical_dfs(&label, &dfs_ref, &dfs);
            gumbo::sched::assert_identical_stats(&label, &stats_ref, &stats);
            match budget {
                Some(limit) => {
                    assert!(
                        stats.spilled_bytes() > 0,
                        "{label}: a {limit}-byte budget must force spilling"
                    );
                    assert!(
                        runtime.budget().peak() <= limit,
                        "{label}: tracked peak {} exceeded the budget",
                        runtime.budget().peak()
                    );
                }
                None => assert_eq!(stats.spilled_bytes(), 0, "{label}: unlimited spilled"),
            }
        }
    }
}

#[test]
fn golden_statistics_hold_under_the_round_barrier() {
    check_matrix(false, None);
}

#[test]
fn golden_statistics_hold_under_the_dag_scheduler() {
    check_matrix(true, None);
}

#[test]
fn tiny_budget_spilling_is_observationally_identical_on_every_preset() {
    // A 4 KiB budget is far below every preset's shuffle footprint: every
    // job spills, many with multiple runs, on both scheduling paths.
    check_matrix(false, Some(BUDGET));
    check_matrix(true, Some(BUDGET));
}

#[test]
fn parallel_runtime_matches_naive_reference_on_a3() {
    // Independent ground truth on an auto-sized pool: the runtime agrees
    // with the direct semantics, not just with the golden table.
    let workload = queries::a3().with_tuples(400);
    let db = workload.spec.database(3);
    let expected = NaiveEvaluator::new()
        .evaluate_sgf_all(&workload.query, &db)
        .unwrap();

    let dfs = SimDfs::from_database(&db);
    engine(0, false, None)
        .evaluate(&dfs, &workload.query)
        .unwrap();
    for q in workload.query.queries() {
        assert_eq!(
            dfs.peek(q.output()).unwrap().as_ref(),
            expected
                .relation(q.output())
                .expect("naive computed all outputs"),
        );
    }
}

/// The metered statistics of every preset at `TUPLES` guard tuples, seed
/// `SEED` and scale `SCALE`, one entry per preset in `presets()` order.
#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden { preset: "A1", net_time: 114.86941274937345, total_time: 375.9896, input_bytes: 960000000, communication_bytes: 1454800000, jobs: &[
        GoldenJob { name: "MSJ(Out#X0,Out#X1,Out#X2,Out#X3)", round: 0, output_tuples: 600, reducers: 4, output: 240000000,
            partitions: &[("R", 240000000, 446800000, 11080000, 2), ("S", 60000000, 84000000, 6000000, 1), ("T", 60000000, 84000000, 6000000, 1), ("U", 60000000, 84000000, 6000000, 1), ("V", 60000000, 84000000, 6000000, 1)],
            map_tasks: &[36.989000000000004, 36.989000000000004, 16.14, 16.14, 16.14, 16.14],
            reduce_tasks: &[18.28188656140351, 18.169352964912285, 18.484447035087722, 18.371913438596494] },
        GoldenJob { name: "EVAL(Out)", round: 1, output_tuples: 18, reducers: 3, output: 14400000,
            partitions: &[("Out#X0", 60000000, 72000000, 3000000, 1), ("Out#X1", 60000000, 72000000, 3000000, 1), ("Out#X2", 60000000, 72000000, 3000000, 1), ("Out#X3", 60000000, 72000000, 3000000, 1), ("R", 240000000, 384000000, 6000000, 2)],
            map_tasks: &[15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 34.32, 34.32],
            reduce_tasks: &[5.004422857142857, 4.943611428571429, 5.075965714285714] },
    ] },
    Golden { preset: "A2", net_time: 120.08007245112782, total_time: 330.42960000000005, input_bytes: 780000000, communication_bytes: 1274800000, jobs: &[
        GoldenJob { name: "MSJ(Out#X0,Out#X1,Out#X2,Out#X3)", round: 0, output_tuples: 600, reducers: 3, output: 240000000,
            partitions: &[("R", 240000000, 446800000, 11080000, 2), ("S", 60000000, 156000000, 6000000, 1)],
            map_tasks: &[36.989000000000004, 36.989000000000004, 22.26],
            reduce_tasks: &[23.773266736842107, 22.861280350877195, 23.613052912280704] },
        GoldenJob { name: "EVAL(Out)", round: 1, output_tuples: 17, reducers: 3, output: 13600000,
            partitions: &[("Out#X0", 60000000, 72000000, 3000000, 1), ("Out#X1", 60000000, 72000000, 3000000, 1), ("Out#X2", 60000000, 72000000, 3000000, 1), ("Out#X3", 60000000, 72000000, 3000000, 1), ("R", 240000000, 384000000, 6000000, 2)],
            map_tasks: &[15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 34.32, 34.32],
            reduce_tasks: &[4.948392380952382, 4.877801904761905, 4.997805714285715] },
    ] },
    Golden { preset: "A3", net_time: 55.54387272727273, total_time: 178.72000000000003, input_bytes: 480000000, communication_bytes: 660000000, jobs: &[
        GoldenJob { name: "1ROUND(Out)", round: 0, output_tuples: 147, reducers: 3, output: 117600000,
            partitions: &[("R", 240000000, 324000000, 6000000, 2), ("S", 60000000, 84000000, 6000000, 1), ("T", 60000000, 84000000, 6000000, 1), ("U", 60000000, 84000000, 6000000, 1), ("V", 60000000, 84000000, 6000000, 1)],
            map_tasks: &[31.770000000000003, 31.770000000000003, 16.14, 16.14, 16.14, 16.14],
            reduce_tasks: &[13.773872727272726, 13.131338181818181, 13.71478909090909] },
    ] },
    Golden { preset: "A4", net_time: 229.96967907017546, total_time: 752.4608, input_bytes: 1920000000, communication_bytes: 2910400000, jobs: &[
        GoldenJob { name: "MSJ(Out1#X0,Out1#X1,Out1#X2,Out1#X3)", round: 0, output_tuples: 600, reducers: 4, output: 240000000,
            partitions: &[("R", 240000000, 446800000, 11080000, 2), ("S", 60000000, 84000000, 6000000, 1), ("T", 60000000, 84000000, 6000000, 1), ("U", 60000000, 84000000, 6000000, 1), ("V", 60000000, 84000000, 6000000, 1)],
            map_tasks: &[36.989000000000004, 36.989000000000004, 16.14, 16.14, 16.14, 16.14],
            reduce_tasks: &[18.28188656140351, 18.169352964912285, 18.484447035087722, 18.371913438596494] },
        GoldenJob { name: "EVAL(Out1)", round: 1, output_tuples: 18, reducers: 3, output: 14400000,
            partitions: &[("Out1#X0", 60000000, 72000000, 3000000, 1), ("Out1#X1", 60000000, 72000000, 3000000, 1), ("Out1#X2", 60000000, 72000000, 3000000, 1), ("Out1#X3", 60000000, 72000000, 3000000, 1), ("R", 240000000, 384000000, 6000000, 2)],
            map_tasks: &[15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 34.32, 34.32],
            reduce_tasks: &[5.004422857142857, 4.943611428571429, 5.075965714285714] },
        GoldenJob { name: "MSJ(Out2#X0,Out2#X1,Out2#X2,Out2#X3)", round: 2, output_tuples: 600, reducers: 4, output: 240000000,
            partitions: &[("G", 240000000, 447600000, 11160000, 2), ("W", 60000000, 84000000, 6000000, 1), ("X", 60000000, 84000000, 6000000, 1), ("Y", 60000000, 84000000, 6000000, 1), ("Z", 60000000, 84000000, 6000000, 1)],
            map_tasks: &[37.023, 37.023, 16.14, 16.14, 16.14, 16.14],
            reduce_tasks: &[18.285278210526315, 18.19523463157895, 18.465365368421054, 18.375321789473688] },
        GoldenJob { name: "EVAL(Out2)", round: 3, output_tuples: 20, reducers: 3, output: 16000000,
            partitions: &[("Out2#X0", 60000000, 72000000, 3000000, 1), ("Out2#X1", 60000000, 72000000, 3000000, 1), ("Out2#X2", 60000000, 72000000, 3000000, 1), ("Out2#X3", 60000000, 72000000, 3000000, 1), ("G", 240000000, 384000000, 6000000, 2)],
            map_tasks: &[15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 34.32, 34.32],
            reduce_tasks: &[5.291900952380953, 5.031161904761905, 5.100937142857143] },
    ] },
    Golden { preset: "A5", net_time: 125.35855847004609, total_time: 661.9887999999999, input_bytes: 1680000000, communication_bytes: 2574400000, jobs: &[
        GoldenJob { name: "MSJ(Out1#X0,Out1#X1,Out1#X2,Out1#X3,Out2#X0,Out2#X1,Out2#X2,Out2#X3)", round: 0, output_tuples: 1200, reducers: 5, output: 480000000,
            partitions: &[("R", 240000000, 446800000, 11080000, 2), ("G", 240000000, 447600000, 11160000, 2), ("S", 60000000, 84000000, 6000000, 1), ("T", 60000000, 84000000, 6000000, 1), ("U", 60000000, 84000000, 6000000, 1), ("V", 60000000, 84000000, 6000000, 1)],
            map_tasks: &[36.989000000000004, 36.989000000000004, 37.023, 37.023, 16.14, 16.14, 16.14, 16.14],
            reduce_tasks: &[28.137902967741937, 28.414433247311827, 28.812182279569893, 26.925715440860213, 28.626566064516126] },
        GoldenJob { name: "EVAL(Out1,Out2)", round: 1, output_tuples: 37, reducers: 6, output: 29600000,
            partitions: &[("Out1#X0", 60000000, 72000000, 3000000, 1), ("Out1#X1", 60000000, 72000000, 3000000, 1), ("Out1#X2", 60000000, 72000000, 3000000, 1), ("Out1#X3", 60000000, 72000000, 3000000, 1), ("Out2#X0", 60000000, 72000000, 3000000, 1), ("Out2#X1", 60000000, 72000000, 3000000, 1), ("Out2#X2", 60000000, 72000000, 3000000, 1), ("Out2#X3", 60000000, 72000000, 3000000, 1), ("R", 240000000, 384000000, 6000000, 2), ("G", 240000000, 384000000, 6000000, 2)],
            map_tasks: &[15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 34.32, 34.32, 34.32, 34.32],
            reduce_tasks: &[5.077342857142858, 5.034131428571429, 4.886492380952382, 5.048535238095239, 4.998121904761906, 5.203376190476192] },
    ] },
    Golden { preset: "B1", net_time: 164.12237872452448, total_time: 1017.4464217858911, input_bytes: 2100000000, communication_bytes: 3885600000, jobs: &[
        GoldenJob { name: "MSJ(Out#X0,Out#X1,Out#X2,Out#X4,Out#X5,Out#X6)", round: 0, output_tuples: 900, reducers: 4, output: 360000000,
            partitions: &[("R", 240000000, 594800000, 9080000, 2), ("S", 60000000, 108000000, 6000000, 1), ("T", 60000000, 108000000, 6000000, 1), ("U", 60000000, 108000000, 6000000, 1)],
            map_tasks: &[43.278999999999996, 43.278999999999996, 18.18, 18.18, 18.18],
            reduce_tasks: &[26.318427812865497, 26.188719532163745, 26.621080467836258, 26.491372187134502] },
        GoldenJob { name: "MSJ(Out#X3,Out#X7,Out#X8,Out#X9,Out#X10,Out#X11,Out#X12,Out#X13,Out#X14,Out#X15)", round: 0, output_tuples: 1500, reducers: 6, output: 600000000,
            partitions: &[("R", 240000000, 950800000, 11080000, 2), ("V", 60000000, 156000000, 6000000, 1), ("S", 60000000, 108000000, 6000000, 1), ("T", 60000000, 108000000, 6000000, 1), ("U", 60000000, 108000000, 6000000, 1)],
            map_tasks: &[74.86661089294552, 74.86661089294552, 22.26, 18.18, 18.18, 18.18],
            reduce_tasks: &[29.738994498245614, 28.17314040701754, 29.420930385964912, 29.641128617543856, 28.3015893754386, 29.047816715789473] },
        GoldenJob { name: "EVAL(Out)", round: 1, output_tuples: 16, reducers: 6, output: 12800000,
            partitions: &[("Out#X0", 60000000, 72000000, 3000000, 1), ("Out#X1", 60000000, 72000000, 3000000, 1), ("Out#X2", 60000000, 72000000, 3000000, 1), ("Out#X3", 60000000, 72000000, 3000000, 1), ("Out#X4", 60000000, 72000000, 3000000, 1), ("Out#X5", 60000000, 72000000, 3000000, 1), ("Out#X6", 60000000, 72000000, 3000000, 1), ("Out#X7", 60000000, 72000000, 3000000, 1), ("Out#X8", 60000000, 72000000, 3000000, 1), ("Out#X9", 60000000, 72000000, 3000000, 1), ("Out#X10", 60000000, 72000000, 3000000, 1), ("Out#X11", 60000000, 72000000, 3000000, 1), ("Out#X12", 60000000, 72000000, 3000000, 1), ("Out#X13", 60000000, 72000000, 3000000, 1), ("Out#X14", 60000000, 72000000, 3000000, 1), ("Out#X15", 60000000, 72000000, 3000000, 1), ("R", 240000000, 384000000, 6000000, 2)],
            map_tasks: &[15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 34.32, 34.32],
            reduce_tasks: &[5.0563199999999995, 4.757093333333334, 4.796786666666667, 4.6746533333333335, 4.830373333333333, 5.196773333333334] },
    ] },
    Golden { preset: "B2", net_time: 45.71023636363637, total_time: 149.72000000000003, input_bytes: 480000000, communication_bytes: 660000000, jobs: &[
        GoldenJob { name: "1ROUND(Out)", round: 0, output_tuples: 2, reducers: 3, output: 1600000,
            partitions: &[("R", 240000000, 324000000, 6000000, 2), ("S", 60000000, 84000000, 6000000, 1), ("T", 60000000, 84000000, 6000000, 1), ("U", 60000000, 84000000, 6000000, 1), ("V", 60000000, 84000000, 6000000, 1)],
            map_tasks: &[31.770000000000003, 31.770000000000003, 16.14, 16.14, 16.14, 16.14],
            reduce_tasks: &[3.940236363636364, 3.756429090909091, 3.9233345454545456] },
    ] },
    Golden { preset: "C1", net_time: 402.14505754697973, total_time: 941.7796092170429, input_bytes: 2307200000, communication_bytes: 3640320000, jobs: &[
        GoldenJob { name: "MSJ(Z1#X0,Z1#X1)", round: 0, output_tuples: 300, reducers: 2, output: 120000000,
            partitions: &[("R", 240000000, 258800000, 9080000, 2), ("S", 60000000, 108000000, 6000000, 1)],
            map_tasks: &[28.999000000000002, 28.999000000000002, 18.18],
            reduce_tasks: &[18.16229985964912, 18.073300140350877] },
        GoldenJob { name: "EVAL(Z1)", round: 1, output_tuples: 73, reducers: 3, output: 14600000,
            partitions: &[("Z1#X0", 60000000, 72000000, 3000000, 1), ("Z1#X1", 60000000, 72000000, 3000000, 1), ("R", 240000000, 384000000, 6000000, 2)],
            map_tasks: &[15.120000000000001, 15.120000000000001, 34.32, 34.32],
            reduce_tasks: &[4.250753333333334, 4.1397975757575765, 4.235449090909092] },
        GoldenJob { name: "MSJ(Z2#X0,Z2#X1,Z3#X0,Z3#X1)", round: 2, output_tuples: 446, reducers: 3, output: 178400000,
            partitions: &[("G", 240000000, 447600000, 11160000, 2), ("T", 60000000, 108000000, 6000000, 1), ("Z1", 14600000, 26280000, 1460000, 1)],
            map_tasks: &[37.023, 37.023, 18.18, 4.4238],
            reduce_tasks: &[18.434289597390688, 17.806668408928754, 18.251001993680564] },
        GoldenJob { name: "EVAL(Z2,Z3)", round: 3, output_tuples: 201, reducers: 4, output: 40200000,
            partitions: &[("Z2#X0", 60000000, 72000000, 3000000, 1), ("Z2#X1", 60000000, 72000000, 3000000, 1), ("Z3#X0", 29200000, 35040000, 1460000, 1), ("Z3#X1", 29200000, 35040000, 1460000, 1), ("G", 240000000, 768000000, 12000000, 2)],
            map_tasks: &[15.120000000000001, 15.120000000000001, 7.3584, 7.3584, 63.93348460852141, 63.93348460852141],
            reduce_tasks: &[6.575227800586511, 6.705948035190616, 6.692876011730205, 6.771308152492669] },
        GoldenJob { name: "MSJ(Z4#X0,Z4#X1)", round: 4, output_tuples: 300, reducers: 2, output: 120000000,
            partitions: &[("H", 240000000, 261200000, 9320000, 2), ("U", 60000000, 108000000, 6000000, 1)],
            map_tasks: &[29.101, 29.101, 18.18],
            reduce_tasks: &[18.182749964912283, 18.09365003508772] },
        GoldenJob { name: "EVAL(Z4)", round: 5, output_tuples: 71, reducers: 3, output: 14200000,
            partitions: &[("Z4#X0", 60000000, 72000000, 3000000, 1), ("Z4#X1", 60000000, 72000000, 3000000, 1), ("H", 240000000, 384000000, 6000000, 2)],
            map_tasks: &[15.120000000000001, 15.120000000000001, 34.32, 34.32],
            reduce_tasks: &[4.22847393939394, 4.141171515151515, 4.156354545454545] },
        GoldenJob { name: "1ROUND-OR(Z5)", round: 6, output_tuples: 119, reducers: 2, output: 23800000,
            partitions: &[("H", 240000000, 258800000, 9080000, 2), ("Z4", 14200000, 25560000, 1420000, 1)],
            map_tasks: &[28.999000000000002, 28.999000000000002, 4.3026],
            reduce_tasks: &[5.419698091286308, 5.364421908713694] },
    ] },
    Golden { preset: "C2", net_time: 494.088553724092, total_time: 1173.1364184340855, input_bytes: 2677000000, communication_bytes: 4719240000, jobs: &[
        GoldenJob { name: "MSJ(Z1#X0,Z1#X1)", round: 0, output_tuples: 300, reducers: 2, output: 120000000,
            partitions: &[("R", 240000000, 258800000, 9080000, 2), ("S", 60000000, 108000000, 6000000, 1)],
            map_tasks: &[28.999000000000002, 28.999000000000002, 18.18],
            reduce_tasks: &[18.16229985964912, 18.073300140350877] },
        GoldenJob { name: "EVAL(Z1)", round: 1, output_tuples: 73, reducers: 3, output: 14600000,
            partitions: &[("Z1#X0", 60000000, 72000000, 3000000, 1), ("Z1#X1", 60000000, 72000000, 3000000, 1), ("R", 240000000, 384000000, 6000000, 2)],
            map_tasks: &[15.120000000000001, 15.120000000000001, 34.32, 34.32],
            reduce_tasks: &[4.250753333333334, 4.1397975757575765, 4.235449090909092] },
        GoldenJob { name: "MSJ(Z2#X0,Z2#X1,Z4#X0,Z4#X1)", round: 2, output_tuples: 446, reducers: 3, output: 178400000,
            partitions: &[("G", 240000000, 426000000, 9000000, 2), ("T", 60000000, 108000000, 6000000, 1), ("Z1", 14600000, 26280000, 1460000, 1)],
            map_tasks: &[36.105000000000004, 36.105000000000004, 18.18, 4.4238],
            reduce_tasks: &[18.310068131688922, 17.686676236876973, 18.128015631434106] },
        GoldenJob { name: "EVAL(Z2,Z4)", round: 3, output_tuples: 89, reducers: 4, output: 27400000,
            partitions: &[("Z2#X0", 60000000, 72000000, 3000000, 1), ("Z2#X1", 60000000, 72000000, 3000000, 1), ("Z4#X0", 29200000, 35040000, 1460000, 1), ("Z4#X1", 29200000, 35040000, 1460000, 1), ("G", 240000000, 768000000, 12000000, 2)],
            map_tasks: &[15.120000000000001, 15.120000000000001, 7.3584, 7.3584, 63.93348460852141, 63.93348460852141],
            reduce_tasks: &[5.892093998044967, 5.892093998044967, 5.903601994134897, 5.857570009775172] },
        GoldenJob { name: "MSJ(Z3#X0,Z3#X1,Z5#X0,Z5#X1)", round: 4, output_tuples: 446, reducers: 3, output: 178400000,
            partitions: &[("H", 240000000, 429200000, 9320000, 2), ("U", 60000000, 108000000, 6000000, 1), ("Z2", 14600000, 26280000, 1460000, 1)],
            map_tasks: &[36.241, 36.241, 18.18, 4.4238],
            reduce_tasks: &[18.52175136479462, 17.549828812557333, 18.10757982264805] },
        GoldenJob { name: "EVAL(Z3,Z5)", round: 5, output_tuples: 96, reducers: 4, output: 34200000,
            partitions: &[("Z3#X0", 60000000, 72000000, 3000000, 1), ("Z3#X1", 60000000, 72000000, 3000000, 1), ("Z5#X0", 29200000, 35040000, 1460000, 1), ("Z5#X1", 29200000, 35040000, 1460000, 1), ("H", 240000000, 768000000, 12000000, 2)],
            map_tasks: &[15.120000000000001, 15.120000000000001, 7.3584, 7.3584, 63.93348460852141, 63.93348460852141],
            reduce_tasks: &[6.366864985337244, 6.354526099706745, 6.268153900293256, 6.255815014662757] },
        GoldenJob { name: "MSJ(Z6#X0,Z6#X1)", round: 6, output_tuples: 142, reducers: 2, output: 56800000,
            partitions: &[("R", 240000000, 258800000, 9080000, 2), ("Z3", 14200000, 25560000, 1420000, 1)],
            map_tasks: &[28.999000000000002, 28.999000000000002, 4.3026],
            reduce_tasks: &[9.56584161093483, 9.46827838906517] },
        GoldenJob { name: "EVAL(Z6)", round: 7, output_tuples: 23, reducers: 2, output: 18400000,
            partitions: &[("Z6#X0", 28400000, 34080000, 1420000, 1), ("Z6#X1", 28400000, 34080000, 1420000, 1), ("R", 240000000, 384000000, 6000000, 2)],
            map_tasks: &[7.1568000000000005, 7.1568000000000005, 34.32, 34.32],
            reduce_tasks: &[6.156403227176221, 6.130316772823779] },
    ] },
    Golden { preset: "C3", net_time: 381.31924658661495, total_time: 1661.819849217043, input_bytes: 4334400000, communication_bytes: 6489440000, jobs: &[
        GoldenJob { name: "MSJ(Z11#X0,Z11#X1,Z12#X0,Z13#X0)", round: 0, output_tuples: 600, reducers: 3, output: 240000000,
            partitions: &[("R", 240000000, 342800000, 9080000, 2), ("I", 240000000, 144000000, 6000000, 2), ("S", 60000000, 108000000, 6000000, 1), ("T", 60000000, 84000000, 6000000, 1)],
            map_tasks: &[32.569, 32.569, 24.12, 24.12, 18.18, 16.14],
            reduce_tasks: &[24.29581584541063, 23.272834125603868, 23.97095002898551] },
        GoldenJob { name: "EVAL(Z11,Z12,Z13)", round: 1, output_tuples: 374, reducers: 6, output: 74800000,
            partitions: &[("Z11#X0", 60000000, 72000000, 3000000, 1), ("Z11#X1", 60000000, 72000000, 3000000, 1), ("Z12#X0", 60000000, 72000000, 3000000, 1), ("Z13#X0", 60000000, 72000000, 3000000, 1), ("R", 240000000, 768000000, 12000000, 2), ("I", 240000000, 384000000, 6000000, 2)],
            map_tasks: &[15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 63.93348460852141, 63.93348460852141, 34.32, 34.32],
            reduce_tasks: &[7.42696, 7.167879999999999, 7.03834, 7.1726777777777775, 7.08152, 7.292622222222223] },
        GoldenJob { name: "MSJ(Z21#X0,Z21#X1,Z22#X0,Z22#X1,Z22#X2,Z23#X0,Z23#X1,Z23#X2,Z23#X3)", round: 2, output_tuples: 1274, reducers: 6, output: 509600000,
            partitions: &[("G", 240000000, 258000000, 9000000, 2), ("H", 240000000, 345200000, 9320000, 2), ("R", 240000000, 446800000, 11080000, 2), ("Z11", 14800000, 20720000, 1480000, 1), ("U", 60000000, 108000000, 6000000, 1), ("V", 60000000, 108000000, 6000000, 1), ("Z12", 30000000, 42000000, 3000000, 1), ("T", 60000000, 84000000, 6000000, 1), ("Z13", 30000000, 42000000, 3000000, 1)],
            map_tasks: &[28.965000000000003, 28.965000000000003, 32.671, 32.671, 36.989000000000004, 36.989000000000004, 3.9812000000000003, 18.18, 18.18, 8.07, 16.14, 8.07],
            reduce_tasks: &[25.721567886110993, 24.611957629069817, 25.825176072762428, 26.242951018937564, 24.70553921701305, 25.02304817610616] },
        GoldenJob { name: "EVAL(Z21,Z22,Z23)", round: 3, output_tuples: 202, reducers: 7, output: 40400000,
            partitions: &[("Z21#X0", 29600000, 35520000, 1480000, 1), ("Z21#X1", 60000000, 72000000, 3000000, 1), ("Z22#X0", 60000000, 72000000, 3000000, 1), ("Z22#X1", 60000000, 72000000, 3000000, 1), ("Z22#X2", 60000000, 72000000, 3000000, 1), ("Z23#X0", 60000000, 72000000, 3000000, 1), ("Z23#X1", 60000000, 72000000, 3000000, 1), ("Z23#X2", 60000000, 72000000, 3000000, 1), ("Z23#X3", 60000000, 72000000, 3000000, 1), ("G", 240000000, 384000000, 6000000, 2), ("H", 240000000, 384000000, 6000000, 2), ("R", 240000000, 384000000, 6000000, 2)],
            map_tasks: &[7.459200000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 15.120000000000001, 34.32, 34.32, 34.32, 34.32, 34.32, 34.32],
            reduce_tasks: &[5.705431769188896, 5.519977964071857, 5.832703988386863, 6.007248746144076, 5.985430651424425, 5.45088733079296, 5.578159549990928] },
        GoldenJob { name: "MSJ(Z31#X0,Z31#X1,Z31#X2)", round: 4, output_tuples: 450, reducers: 3, output: 180000000,
            partitions: &[("I", 240000000, 342400000, 9040000, 2), ("Z22", 30000000, 42000000, 3000000, 1), ("T", 60000000, 84000000, 6000000, 1), ("V", 60000000, 84000000, 6000000, 1)],
            map_tasks: &[32.552, 32.552, 8.07, 16.14, 16.14],
            reduce_tasks: &[18.567426367601247, 17.601608423676012, 18.22176520872274] },
        GoldenJob { name: "EVAL(Z31)", round: 5, output_tuples: 39, reducers: 3, output: 7800000,
            partitions: &[("Z31#X0", 60000000, 72000000, 3000000, 1), ("Z31#X1", 60000000, 72000000, 3000000, 1), ("Z31#X2", 60000000, 72000000, 3000000, 1), ("I", 240000000, 384000000, 6000000, 2)],
            map_tasks: &[15.120000000000001, 15.120000000000001, 15.120000000000001, 34.32, 34.32],
            reduce_tasks: &[4.09536, 3.98196, 4.07268] },
    ] },
    Golden { preset: "C4", net_time: 172.96742198756198, total_time: 609.6038111569876, input_bytes: 1139400000, communication_bytes: 2685960000, jobs: &[
        GoldenJob { name: "1ROUND-OR(Z11,Z12,Z14,Z13)", round: 0, output_tuples: 897, reducers: 5, output: 179400000,
            partitions: &[("R", 240000000, 441200000, 10520000, 2), ("G", 240000000, 440400000, 10440000, 2), ("S", 60000000, 108000000, 6000000, 1), ("T", 60000000, 84000000, 6000000, 1), ("U", 60000000, 108000000, 6000000, 1), ("V", 60000000, 84000000, 6000000, 1)],
            map_tasks: &[36.751000000000005, 36.751000000000005, 36.717, 36.717, 18.18, 16.14, 18.18, 16.14],
            reduce_tasks: &[13.321130724637682, 13.337160966183577, 13.595247855072465, 12.628624289855074, 13.483036164251208] },
        GoldenJob { name: "1ROUND-OR(Z21)", round: 1, output_tuples: 297, reducers: 6, output: 237600000,
            partitions: &[("H", 240000000, 1169200000, 11320000, 2), ("Z11", 45200000, 63280000, 4520000, 1), ("Z12", 45000000, 63000000, 4500000, 1), ("Z13", 44800000, 62720000, 4480000, 1), ("Z14", 44400000, 62160000, 4440000, 1)],
            map_tasks: &[87.9289455784938, 87.9289455784938, 12.158800000000001, 12.105, 12.0512, 11.9436],
            reduce_tasks: &[13.901673474495203, 13.653275020553789, 14.165191834328706, 14.69222855399571, 13.592795396985446, 13.540955719641149] },
    ] },
];
