//! Property tests for cost-driven placement.
//!
//! Two properties the ISSUE-4 refactor rests on:
//!
//! 1. **Annotations are policy-invariant.** A job's estimate is attached
//!    at plan time and is a function of the job alone, so lowering a
//!    program with `into_dag()` and executing it under *any* placement
//!    policy leaves the same estimate on the same node — and, since
//!    placement only reorders ready jobs, the DFS contents and every
//!    non-timing statistic are identical across policies.
//! 2. **Critical path bounds makespans.** The critical-path priority of
//!    `cp` placement is a true lower bound on any list schedule of the
//!    DAG — including the shortest-job-first ordering — for every slot
//!    count; with one slot the schedule degenerates to the total work.

#![cfg(test)]

use proptest::prelude::*;

use gumbo_common::{ByteSize, Fact, Relation, RelationName, Result as GumboResult, Tuple};
use gumbo_mr::{
    list_schedule_makespan_by, CostConstants, CostModelKind, EngineConfig, InputPartition, Job,
    JobConfig, JobEstimate, JobProfile, Mapper, Message, MrProgram, ParallelExecutor, Reducer,
};
use gumbo_storage::SimDfs;

use crate::placement::PlacementPolicy;
use crate::scheduler::{DagScheduler, SchedulerConfig};

/// Copies every input tuple to the job's single output relation — cheap,
/// deterministic, and write-conflicting when outputs collide.
struct Copy;
impl Mapper for Copy {
    fn map(&self, fact: &Fact, _: u64, emit: &mut dyn FnMut(Tuple, Message)) {
        emit(fact.tuple.clone(), Message::Assert { cond: 0 });
    }
}
struct CopyTo(RelationName);
impl Reducer for CopyTo {
    fn reduce(&self, key: &Tuple, _: &[Message], emit: &mut dyn FnMut(&RelationName, Tuple)) {
        emit(&self.0, key.clone());
    }
}

/// A synthetic estimate whose total cost is `cost` (decomposed like the
/// engine's accounting so the invariants stay honest).
fn estimate(cost: f64) -> JobEstimate {
    JobEstimate::from_profile(
        CostModelKind::Gumbo,
        &CostConstants {
            job_overhead: cost,
            ..CostConstants::appendix_a()
        },
        &JobProfile {
            partitions: vec![InputPartition {
                label: "synthetic".into(),
                input: ByteSize::ZERO,
                map_output: ByteSize::ZERO,
                records_out: 0,
                mappers: 1,
            }],
            reducers: 1,
            output: ByteSize::ZERO,
        },
    )
}

fn copy_job(name: &str, input: &str, output: &str, cost: f64) -> Job {
    Job {
        name: name.into(),
        inputs: vec![input.into()],
        outputs: vec![(output.into(), 2)],
        mapper: Box::new(Copy),
        reducer: Box::new(CopyTo(output.into())),
        config: JobConfig::default(),
        estimate: None,
    }
    .with_estimate(estimate(cost))
}

fn base_dfs() -> SimDfs {
    let dfs = SimDfs::new();
    for i in 0..4i64 {
        dfs.store(
            Relation::from_tuples(
                format!("R{i}"),
                2,
                (0..8).map(|j| Tuple::from_ints(&[10 * i + j, j])),
            )
            .unwrap(),
        );
    }
    dfs
}

/// Build a random-but-valid program: each job reads either a base
/// relation or an earlier job's output, and writes its own output (with
/// occasional overwrites to exercise conflict edges).
fn random_program(spec: &[(u8, u8, u8)]) -> MrProgram {
    let mut program = MrProgram::new();
    // Track materialized outputs so every input is guaranteed to exist:
    // either a base relation or a relation some earlier job wrote.
    let mut written: Vec<String> = Vec::new();
    for (idx, &(src, overwrite, cost)) in spec.iter().enumerate() {
        let input = if written.is_empty() || src % 4 < 2 {
            format!("R{}", src % 4)
        } else {
            written[src as usize % written.len()].clone()
        };
        let output = if overwrite % 5 == 0 && !written.is_empty() {
            // Occasionally overwrite an earlier output: exercises the
            // write→write / read→write conflict edges.
            written[overwrite as usize % written.len()].clone()
        } else {
            format!("Out{idx}")
        };
        if !written.contains(&output) {
            written.push(output.clone());
        }
        program.push_job(copy_job(
            &format!("j{idx}"),
            &input,
            &output,
            1.0 + cost as f64,
        ));
    }
    program
}

fn run_policy(
    spec: &[(u8, u8, u8)],
    policy: PlacementPolicy,
) -> GumboResult<(SimDfs, gumbo_mr::ProgramStats)> {
    let executor = ParallelExecutor::with_threads(EngineConfig::unscaled(), 1);
    let scheduler = DagScheduler::new(SchedulerConfig {
        max_concurrent_jobs: 2,
        placement: policy,
        ..SchedulerConfig::default()
    });
    let dfs = base_dfs();
    let stats = scheduler.execute_program(&executor, &dfs, random_program(spec))?;
    Ok((dfs, stats))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `into_dag()` annotations are policy-invariant: the same estimate
    /// sits on the same node regardless of how the ready queue will be
    /// ordered, and critical-path priorities derive from them alone.
    #[test]
    fn dag_annotations_are_policy_invariant(
        spec in proptest::collection::vec((0u8..8, 0u8..8, 0u8..20), 1..8),
    ) {
        let dag = random_program(&spec).into_dag();
        let expected: Vec<f64> = spec.iter().map(|&(_, _, c)| {
            estimate(1.0 + c as f64).total_cost
        }).collect();
        for (node, want) in dag.nodes().iter().zip(&expected) {
            let got = node.estimate().expect("planner attached an estimate");
            prop_assert!((got.total_cost - want).abs() < 1e-12);
            prop_assert!((node.estimated_cost() - want).abs() < 1e-12);
        }
        // Critical paths are a pure function of the annotated DAG:
        // recomputing yields the same numbers (nothing scheduling-order
        // dependent leaks in) and each ≥ the node's own cost.
        let cp = dag.critical_paths();
        prop_assert_eq!(&cp, &dag.critical_paths());
        for (node, len) in dag.nodes().iter().zip(&cp) {
            prop_assert!(*len >= node.estimated_cost() - 1e-12);
        }
    }

    /// Executing the same random program under fifo / sjf / cp placement
    /// leaves byte-identical DFS contents and identical statistics —
    /// placement moves wall clock only.
    #[test]
    fn policies_are_observationally_identical(
        spec in proptest::collection::vec((0u8..8, 0u8..8, 0u8..20), 1..6),
    ) {
        let (dfs_fifo, stats_fifo) = run_policy(&spec, PlacementPolicy::Fifo).unwrap();
        for policy in [PlacementPolicy::Sjf, PlacementPolicy::CriticalPath] {
            let (dfs, stats) = run_policy(&spec, policy).unwrap();
            crate::equivalence::assert_identical_dfs(policy.label(), &dfs_fifo, &dfs);
            crate::equivalence::assert_identical_stats(policy.label(), &stats_fifo, &stats);
            // The predicted DAG net time is policy-independent by
            // definition (deterministic list scheduling).
            let (a, b) = (
                stats_fifo.predicted_net_time.expect("scheduled run predicts"),
                stats.predicted_net_time.expect("scheduled run predicts"),
            );
            prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    /// The critical-path length is a lower bound on the makespan of any
    /// list schedule of the DAG — in particular the shortest-job-first
    /// order — for every slot count; one slot degenerates to total work
    /// and unlimited slots achieve the critical path exactly.
    #[test]
    fn critical_path_bounds_sjf_makespan(
        spec in proptest::collection::vec((0u8..8, 0u8..8, 0u8..20), 1..8),
        slots in 1usize..5,
    ) {
        let dag = random_program(&spec).into_dag();
        let durations: Vec<f64> = dag.nodes().iter().map(|n| n.estimated_cost()).collect();
        let deps: Vec<&[usize]> = dag.nodes().iter().map(|n| n.deps()).collect();
        let total: f64 = durations.iter().sum();
        let cp_len = dag
            .critical_paths()
            .into_iter()
            .fold(0.0f64, f64::max);

        let sjf = list_schedule_makespan_by(&durations, &deps, slots, |i| durations[i]);
        prop_assert!(cp_len <= sjf + 1e-9, "cp {cp_len} > sjf makespan {sjf}");
        prop_assert!(total / slots as f64 <= sjf + 1e-9);
        prop_assert!(sjf <= total + 1e-9);

        let serial = list_schedule_makespan_by(&durations, &deps, 1, |i| durations[i]);
        prop_assert!((serial - total).abs() < 1e-9);
        let unlimited =
            list_schedule_makespan_by(&durations, &deps, durations.len(), |i| durations[i]);
        prop_assert!((unlimited - cp_len).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Estimate-weighted fair-share admission (ISSUE 10)
// ---------------------------------------------------------------------------

/// The fairness fixture: three tenants with 1:2:4 weights.
const TENANTS: [&str; 3] = ["bronze", "silver", "gold"];
const WEIGHTS: [f64; 3] = [1.0, 2.0, 4.0];

/// Queue a random saturated backlog (every submission enqueued before any
/// admission) and drain it, returning the admission order as
/// `(tenant index, seq, charged cost)` triples.
fn drain_backlog(mix: &[(usize, u8)]) -> Vec<(usize, u64, f64)> {
    let queue: crate::AdmissionQueue<usize> = crate::AdmissionQueue::new(crate::AdmissionConfig {
        capacity: mix.len().max(1),
        default_weight: 1.0,
    });
    for (i, &(t, cost)) in mix.iter().enumerate() {
        queue
            .submit(TENANTS[t], Some(WEIGHTS[t]), cost as f64, i)
            .expect("open queue accepts");
    }
    queue.close();
    let mut order = Vec::new();
    while let Some(entry) = queue.admit() {
        let t = TENANTS
            .iter()
            .position(|n| *n == entry.tenant)
            .expect("known tenant");
        order.push((t, entry.seq, entry.estimated_cost));
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under a saturated backlog, weighted fair-share admission: (a) no
    /// tenant starves — every tenant's first admission lands within the
    /// first `TENANTS.len()` decisions; (b) the greedy invariant holds
    /// exactly — the admitted tenant's weight-normalized account is
    /// minimal among tenants that still have pending work; (c) admitted
    /// estimated-cost *shares* converge to the weight ratios within the
    /// provable tolerance `wₜ·max_cost / total_admitted_cost`.
    #[test]
    fn weighted_admission_is_starvation_free_and_converges(
        mix in proptest::collection::vec((0usize..3, 1u8..=3), 60..140),
    ) {
        // Guarantee every tenant real representation in the backlog
        // (random mixes could otherwise leave a tenant nearly absent,
        // which tests nothing about contention).
        let mut mix = mix;
        for t in 0..3 {
            for k in 0..12u8 {
                mix.push((t, 1 + k % 3));
            }
        }
        let order = drain_backlog(&mix);
        prop_assert_eq!(order.len(), mix.len());

        // (a) No starvation from a cold start: every tenant has pending
        // work, so each must be admitted before any tenant is admitted
        // twice (an admitted tenant's normalized account immediately
        // exceeds an untouched tenant's zero).
        let first_three: Vec<usize> = order.iter().take(3).map(|&(t, _, _)| t).collect();
        for (t, tenant) in TENANTS.iter().enumerate() {
            prop_assert!(
                first_three.contains(&t),
                "tenant {} starved past the first round: {:?}", tenant, first_three
            );
        }

        let max_cost = mix.iter().map(|&(_, c)| c as f64).fold(1.0, f64::max);
        let mut pending = [0usize; 3];
        for &(t, _) in &mix {
            pending[t] += 1;
        }
        let mut admitted_cost = [0.0f64; 3];
        let mut converged: Option<([f64; 3], f64)> = None;
        for &(t, _, cost) in &order {
            // (b) The exact greedy invariant: the pick's normalized
            // account is ≤ every tenant's that still has pending work.
            let norm = admitted_cost[t] / WEIGHTS[t];
            for u in 0..3 {
                if pending[u] > 0 {
                    prop_assert!(
                        norm <= admitted_cost[u] / WEIGHTS[u] + 1e-9,
                        "{} admitted at {norm} over {}'s {}",
                        TENANTS[t], TENANTS[u], admitted_cost[u] / WEIGHTS[u]
                    );
                }
            }
            admitted_cost[t] += cost;
            pending[t] -= 1;
            if pending.contains(&0) && converged.is_none() {
                // The last instant all three tenants were contending.
                converged = Some((admitted_cost, max_cost));
            }
        }

        // (c) Share convergence at the end of full three-way contention.
        // From the invariant, normalized accounts differ by at most one
        // max-cost charge, which algebraically bounds each tenant's
        // admitted-cost share within wₜ·max_cost/total of its weight
        // share — e.g. gold (weight 4) holds 4/7 of the admitted
        // estimated cost, ±4·max_cost/total.
        let (shares, max_cost) = converged.expect("some tenant drains first");
        let total: f64 = shares.iter().sum();
        let weight_sum: f64 = WEIGHTS.iter().sum();
        for t in 0..3 {
            let share = shares[t] / total;
            let expected = WEIGHTS[t] / weight_sum;
            let tolerance = WEIGHTS[t] * max_cost / total;
            prop_assert!(
                (share - expected).abs() <= tolerance + 1e-9,
                "{}: share {share:.4} vs weight share {expected:.4} (tolerance {tolerance:.4})",
                TENANTS[t]
            );
        }
    }

    /// Admission order is a pure function of the submission sequence:
    /// replaying the same backlog through a fresh queue admits the same
    /// seq numbers in the same order.
    #[test]
    fn admission_order_is_deterministic(
        mix in proptest::collection::vec((0usize..3, 1u8..=3), 1..80),
    ) {
        prop_assert_eq!(drain_backlog(&mix), drain_backlog(&mix));
    }
}
