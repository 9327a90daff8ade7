//! Observational-equivalence checks: one definition of "identical" for
//! the scheduler's core guarantee.
//!
//! The DAG scheduler promises byte-identical DFS contents and identical
//! statistics versus round-barrier execution. Every harness that asserts
//! that promise (the `dagsched` benchmark, the scheduler unit tests, the
//! workspace-level equivalence suite) calls these two functions, so the
//! field list can never drift between checkers: a new stats field gets
//! compared everywhere or nowhere.
//!
//! The functions panic with a labeled message on the first divergence —
//! they are verification tools, not control flow.

use gumbo_mr::ProgramStats;
use gumbo_storage::Dfs;

/// Assert two DFS instances are byte-identical: same file set, same
/// relation contents and sizes, same metered I/O counters. The two sides
/// may be *different backends* (a [`gumbo_storage::SimDfs`] versus a
/// [`gumbo_storage::FileDfs`], say): the check is over the [`Dfs`]
/// contract, which is exactly what makes the scheduler's guarantee
/// backend-invariant.
///
/// # Panics
///
/// On the first divergence, naming `label` and the offending relation.
pub fn assert_identical_dfs(label: &str, expected: &dyn Dfs, actual: &dyn Dfs) {
    let names = expected.file_names();
    assert_eq!(names, actual.file_names(), "{label}: file sets differ");
    for name in &names {
        let (a, b) = (expected.peek(name).unwrap(), actual.peek(name).unwrap());
        assert_eq!(a, b, "{label}: relation {name} differs");
        assert_eq!(
            a.estimated_bytes(),
            b.estimated_bytes(),
            "{label}: relation {name} byte size differs"
        );
    }
    assert_eq!(
        expected.bytes_read(),
        actual.bytes_read(),
        "{label}: DFS read counters"
    );
    assert_eq!(
        expected.bytes_written(),
        actual.bytes_written(),
        "{label}: DFS write counters"
    );
}

/// Assert two program executions produced identical statistics: same
/// jobs in the same rounds with identical profiles, task durations and
/// record counts, and exact agreement on the paper's four metrics.
///
/// # Panics
///
/// On the first divergence, naming `label` and the offending job.
pub fn assert_identical_stats(label: &str, expected: &ProgramStats, actual: &ProgramStats) {
    assert_eq!(expected.num_jobs(), actual.num_jobs(), "{label}: job count");
    assert_eq!(
        expected.num_rounds(),
        actual.num_rounds(),
        "{label}: round count"
    );
    for (a, b) in expected.jobs.iter().zip(&actual.jobs) {
        assert_eq!(a.name, b.name, "{label}: job order");
        assert_eq!(a.round, b.round, "{label}: job {} round", a.name);
        assert_eq!(
            a.output_tuples, b.output_tuples,
            "{label}: job {} record counts",
            a.name
        );
        assert_eq!(a.profile, b.profile, "{label}: job {} profile", a.name);
        assert_eq!(
            a.map_task_durations, b.map_task_durations,
            "{label}: job {} map tasks",
            a.name
        );
        assert_eq!(
            a.reduce_task_durations, b.reduce_task_durations,
            "{label}: job {} reduce tasks",
            a.name
        );
        // Plan-time estimates are a pure function of the plan, so the
        // calibration ledger's estimated side must agree exactly.
        assert_eq!(
            a.estimated_cost, b.estimated_cost,
            "{label}: job {} estimated cost",
            a.name
        );
    }
    assert!(
        (expected.net_time() - actual.net_time()).abs() < 1e-9,
        "{label}: net time {} vs {}",
        expected.net_time(),
        actual.net_time()
    );
    assert!(
        (expected.total_time() - actual.total_time()).abs() < 1e-9,
        "{label}: total time {} vs {}",
        expected.total_time(),
        actual.total_time()
    );
    assert_eq!(
        expected.input_bytes(),
        actual.input_bytes(),
        "{label}: input cost"
    );
    assert_eq!(
        expected.communication_bytes(),
        actual.communication_bytes(),
        "{label}: communication cost"
    );
}
