//! Property-based tests for the cost model, the cluster scheduler, the
//! program → DAG lowering, and the spill merge.

#![cfg(test)]

use std::collections::BTreeMap;

use proptest::prelude::*;

use gumbo_common::{ByteSize, Tuple};

use crate::batch_shuffle::{BatchPartition, PairBatch};
use crate::cluster::lpt_makespan;
use crate::cost::{job_cost, CostConstants, CostModelKind};
use crate::dag::jobs_conflict;
use crate::job::test_support::noop_job;
use crate::job::Job;
use crate::message::{Message, Payload};
use crate::profile::{InputPartition, JobProfile};
use crate::program::MrProgram;
use crate::shuffle::{MemBudget, MemoryBudget, ShuffleSpill};

/// A no-op job touching relations `Rk` for the given name codes.
fn rel_job(inputs: &[u8], outputs: &[u8]) -> Job {
    noop_job(
        format!("job({inputs:?}->{outputs:?})"),
        inputs.iter().map(|k| format!("R{k}")),
        outputs.iter().map(|k| format!("R{k}")),
    )
}

fn part(n_mb: u64, m_mb: u64, records: u64, mappers: usize) -> InputPartition {
    InputPartition {
        label: "p".into(),
        input: ByteSize::mb(n_mb),
        map_output: ByteSize::mb(m_mb),
        records_out: records,
        mappers: mappers.max(1),
    }
}

proptest! {
    /// Costs are non-negative, finite, and at least the job overhead.
    #[test]
    fn cost_is_sane(
        n in 0u64..100_000, m in 0u64..100_000, r in 1usize..500,
        k in 0u64..100_000, mappers in 1usize..500,
    ) {
        let c = CostConstants::default();
        let profile = JobProfile {
            partitions: vec![part(n, m, m * 1000, mappers)],
            reducers: r,
            output: ByteSize::mb(k),
        };
        for kind in [CostModelKind::Gumbo, CostModelKind::Wang] {
            let cost = job_cost(kind, &c, &profile);
            prop_assert!(cost.is_finite());
            prop_assert!(cost >= c.job_overhead - 1e-9);
        }
    }

    /// Cost is monotone in input size, map output, and reduce output.
    #[test]
    fn cost_monotone(
        n in 0u64..50_000, m in 0u64..50_000, k in 0u64..50_000,
        dn in 0u64..10_000, dm in 0u64..10_000, dk in 0u64..10_000,
    ) {
        let c = CostConstants::default();
        let base = JobProfile {
            partitions: vec![part(n, m, 0, 8)],
            reducers: 16,
            output: ByteSize::mb(k),
        };
        let bigger = JobProfile {
            partitions: vec![part(n + dn, m + dm, 0, 8)],
            reducers: 16,
            output: ByteSize::mb(k + dk),
        };
        prop_assert!(
            job_cost(CostModelKind::Gumbo, &c, &bigger)
                >= job_cost(CostModelKind::Gumbo, &c, &base) - 1e-9
        );
    }

    /// More mappers never increase the map cost (per-task shares shrink).
    #[test]
    fn more_mappers_never_hurt(m in 1u64..100_000, mappers in 1usize..100) {
        let c = CostConstants::default();
        let fewer = part(m, m, 0, mappers);
        let more = part(m, m, 0, mappers * 2);
        prop_assert!(c.cost_map(&more) <= c.cost_map(&fewer) + 1e-9);
    }

    /// With a single input partition the two models coincide exactly.
    #[test]
    fn models_coincide_on_single_partition(
        n in 0u64..50_000, m in 0u64..50_000, records in 0u64..10_000_000,
        mappers in 1usize..100, r in 1usize..100, k in 0u64..10_000,
    ) {
        let c = CostConstants::default();
        let profile = JobProfile {
            partitions: vec![part(n, m, records, mappers)],
            reducers: r,
            output: ByteSize::mb(k),
        };
        let g = job_cost(CostModelKind::Gumbo, &c, &profile);
        let w = job_cost(CostModelKind::Wang, &c, &profile);
        prop_assert!((g - w).abs() < 1e-6, "gumbo {} vs wang {}", g, w);
    }

    /// LPT makespan bounds: max task ≤ makespan ≤ total work, and
    /// makespan ≥ total/slots (work conservation).
    #[test]
    fn lpt_bounds(
        durations in proptest::collection::vec(0.0f64..100.0, 1..40),
        slots in 1usize..20,
    ) {
        let ms = lpt_makespan(&durations, slots);
        let total: f64 = durations.iter().sum();
        let max = durations.iter().cloned().fold(0.0, f64::max);
        prop_assert!(ms >= max - 1e-9);
        prop_assert!(ms <= total + 1e-9);
        prop_assert!(ms >= total / slots as f64 - 1e-9);
        // LPT is a 4/3-approximation of the optimum, which is itself
        // >= max(total/slots, max): check the guarantee.
        let lower = (total / slots as f64).max(max);
        prop_assert!(ms <= 4.0 / 3.0 * lower + max + 1e-9);
    }

    /// Makespan is monotone: adding a task never shrinks it.
    #[test]
    fn lpt_monotone_in_tasks(
        durations in proptest::collection::vec(0.0f64..100.0, 1..30),
        extra in 0.0f64..100.0,
        slots in 1usize..10,
    ) {
        let before = lpt_makespan(&durations, slots);
        let mut more = durations.clone();
        more.push(extra);
        prop_assert!(lpt_makespan(&more, slots) >= before - 1e-9);
    }

    /// Merge-of-runs preserves the grouping order reducers observe: for
    /// any pair sequence and any budget (however many spill runs and
    /// intermediate merge passes it forces), the grouped stream equals
    /// the unlimited in-memory `BTreeMap` grouping — keys in sorted
    /// order, values in global emission order.
    #[test]
    fn spill_merge_preserves_reducer_grouping_order(
        keys in proptest::collection::vec(0i64..12, 0usize..120),
        budget in 0u64..400,
    ) {
        // Tag every pair with its emission index so order is observable.
        let pairs: Vec<(Tuple, Message)> = keys
            .iter()
            .enumerate()
            .map(|(seq, &k)| {
                (
                    Tuple::from_ints(&[k]),
                    Message::Req {
                        cond: seq as u32,
                        payload: Payload::Ref { guard: 0, id: seq as u64 },
                    },
                )
            })
            .collect();

        let mut expected: BTreeMap<Tuple, Vec<Message>> = BTreeMap::new();
        for (k, v) in &pairs {
            expected.entry(k.clone()).or_default().push(v.clone());
        }

        // Pair-at-a-time appends: one budget settlement per pair.
        let tracker = MemoryBudget::new(MemBudget::bytes(budget));
        let spill = ShuffleSpill::new("proptest");
        let mut part = BatchPartition::new(0, &tracker, &spill, 1);
        for (k, v) in &pairs {
            part.push_pair(k, v).unwrap();
        }
        let (mut stream, stats) = part.into_groups().unwrap();
        let mut got: Vec<(Tuple, Vec<Message>)> = Vec::new();
        while let Some(group) = stream.next_group().unwrap() {
            got.push(group);
        }
        drop(stream);

        let expected: Vec<(Tuple, Vec<Message>)> = expected.into_iter().collect();
        prop_assert_eq!(got, expected, "budget {} (stats {:?})", budget, stats);
        if let Some(limit) = tracker.limit() {
            prop_assert!(tracker.peak() <= limit);
        }
        prop_assert_eq!(tracker.used(), 0, "all charges released");
    }

    /// Routed-row appends reproduce the in-memory `BTreeMap` grouping
    /// exactly: for any pair sequence (mixed message shapes, string keys
    /// and payloads included) and any budget — however many columnar
    /// spill frames and intermediate merge passes it forces — the batch
    /// partition's grouped stream equals the model's, and its total byte
    /// accounting is the owned pairs' `estimated_bytes`.
    #[test]
    fn columnar_spill_merge_matches_btreemap_grouping(
        keys in proptest::collection::vec(0i64..12, 0usize..120),
        budget in 0u64..400,
    ) {
        // Vary message shape with the emission index so frames carry
        // every kind, including dictionary-encoded payload tuples.
        let pairs: Vec<(Tuple, Message)> = keys
            .iter()
            .enumerate()
            .map(|(seq, &k)| {
                let key = if k % 3 == 0 {
                    Tuple::new(vec![gumbo_common::Value::str(format!("k{k}"))])
                } else {
                    Tuple::from_ints(&[k])
                };
                let msg = match seq % 4 {
                    0 => Message::Assert { cond: seq as u32 },
                    1 => Message::Req {
                        cond: seq as u32,
                        payload: Payload::Ref { guard: 0, id: seq as u64 },
                    },
                    2 => Message::Req {
                        cond: seq as u32,
                        payload: Payload::Tuple(Tuple::new(vec![
                            gumbo_common::Value::Int(seq as i64),
                            gumbo_common::Value::str("p"),
                        ])),
                    },
                    _ => Message::GuardTuple {
                        guard: seq as u32,
                        tuple: Tuple::from_ints(&[seq as i64]),
                    },
                };
                (key, msg)
            })
            .collect();

        // The model: an in-memory grouping in emission order.
        let mut model: BTreeMap<Tuple, Vec<Message>> = BTreeMap::new();
        for (k, v) in &pairs {
            model.entry(k.clone()).or_default().push(v.clone());
        }
        let expected: Vec<(Tuple, Vec<Message>)> = model.into_iter().collect();
        let pair_bytes: u64 = pairs
            .iter()
            .map(|(k, v)| k.estimated_bytes() + v.estimated_bytes())
            .sum();

        // One batch through a budget-charged partition.
        let tracker = MemoryBudget::new(MemBudget::bytes(budget));
        let spill = ShuffleSpill::new("proptest-columnar");
        let mut part = BatchPartition::new(0, &tracker, &spill, 1);
        let mut batch = PairBatch::new();
        for (k, v) in &pairs {
            batch.push_pair(k, v);
        }
        let rows: Vec<u32> = (0..batch.len() as u32).collect();
        part.push_rows(&batch, &rows).unwrap();
        prop_assert_eq!(part.total_bytes(), pair_bytes, "total byte accounting");
        let (mut stream, stats) = part.into_groups().unwrap();
        let mut got: Vec<(Tuple, Vec<Message>)> = Vec::new();
        while let Some(group) = stream.next_group().unwrap() {
            got.push(group);
        }
        drop(stream);

        prop_assert_eq!(got, expected, "budget {} (stats {:?})", budget, stats);
        if let Some(limit) = tracker.limit() {
            prop_assert!(tracker.peak() <= limit);
        }
        prop_assert_eq!(tracker.used(), 0, "all charges released");
    }

    /// `into_dag()` over random programs preserves round semantics as
    /// dependencies: every edge points forward in round order, the flat
    /// (round-order) indexing is itself a valid topological order,
    /// `topo_order()` respects every edge, and any pair of jobs that
    /// conflict on a relation is explicitly ordered by an edge.
    #[test]
    fn into_dag_topo_order_consistent_with_rounds(
        spec in proptest::collection::vec(
            proptest::collection::vec(
                (
                    proptest::collection::vec(0u8..6, 0usize..4),
                    proptest::collection::vec(0u8..6, 0usize..3),
                ),
                1..4,
            ),
            1..5,
        ),
    ) {
        let mut program = MrProgram::new();
        for round in &spec {
            program.push_round(
                round.iter().map(|(ins, outs)| rel_job(ins, outs)).collect(),
            );
        }
        let expected_jobs = program.num_jobs();
        let expected_rounds = program.num_rounds();

        let dag = program.into_dag();
        prop_assert_eq!(dag.len(), expected_jobs);
        prop_assert_eq!(dag.num_rounds(), expected_rounds);

        // Edges point forward both in flat order (so the round-order
        // flattening is a topological order) and in round order.
        for (u, v) in dag.edges() {
            prop_assert!(u < v);
            prop_assert!(dag.node(u).round <= dag.node(v).round);
        }

        // topo_order() is a permutation respecting every edge.
        let order = dag.topo_order();
        prop_assert_eq!(order.len(), dag.len());
        let mut position = vec![usize::MAX; dag.len()];
        for (at, &node) in order.iter().enumerate() {
            prop_assert_eq!(position[node], usize::MAX, "node emitted twice");
            position[node] = at;
        }
        for (u, v) in dag.edges() {
            prop_assert!(position[u] < position[v]);
        }

        // Soundness: every conflicting pair is ordered by a direct edge,
        // so no topological order can reorder a read past a write.
        for u in 0..dag.len() {
            for v in (u + 1)..dag.len() {
                if jobs_conflict(&dag.node(u).job, &dag.node(v).job) {
                    prop_assert!(
                        dag.node(v).deps().contains(&u),
                        "conflicting pair ({}, {}) lacks an edge", u, v
                    );
                }
            }
        }
    }
}
