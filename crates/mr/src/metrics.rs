//! Execution statistics: the paper's four performance metrics (§5.1).
//!
//! 1. **total time** — aggregate time spent by all mappers and reducers;
//! 2. **net time** — elapsed time from query submission to final result;
//! 3. **input cost** — bytes read from the DFS over the entire plan;
//! 4. **communication cost** — bytes transferred from mappers to reducers.

use std::fmt;

use gumbo_common::ByteSize;

use crate::cluster::{lpt_makespan, Cluster};
use crate::profile::JobProfile;

/// Statistics for one executed job.
#[derive(Debug, Clone)]
pub struct JobStats {
    /// Job name.
    pub name: String,
    /// Round index (0-based) within the program.
    pub round: usize,
    /// The measured profile (scaled bytes).
    pub profile: JobProfile,
    /// Per-partition map cost + reduce cost under the engine's cost model.
    pub map_cost: f64,
    /// Reduce-phase cost.
    pub reduce_cost: f64,
    /// Full job cost (`cost_h + map + reduce`) — this job's total time.
    pub total_cost: f64,
    /// Simulated durations of each map task.
    pub map_task_durations: Vec<f64>,
    /// Simulated durations of each reduce task.
    pub reduce_task_durations: Vec<f64>,
    /// Number of result tuples written (across all outputs).
    pub output_tuples: u64,
    /// Estimated bytes of shuffle data spilled to disk under the memory
    /// budget (0 when the shuffle fit in memory).
    ///
    /// The spill counters are *real-machine* observations, not paper
    /// metrics: when concurrent jobs share one budget they may vary run
    /// to run, so equivalence harnesses compare every field above but
    /// none of these.
    pub spilled_bytes: u64,
    /// On-disk bytes of the *initial* spill-run flushes: actual run-file
    /// bytes (length-prefixed encoded frames, RLE-block compressed when
    /// the budget's `--spill-compress` flag is set). The companion
    /// figure to `spilled_bytes`, which uses the budget's
    /// *estimated-bytes* accounting for the same flushed data — so
    /// compare the disk figures of a compressed and an uncompressed run
    /// to measure the compression win (the `spill` bench's `64k` vs
    /// `64k+rle` rows). Intermediate merge-pass outputs rewrite already
    /// counted data; like `spilled_bytes` this counter excludes them
    /// (`spill_files` includes them).
    pub spilled_disk_bytes: u64,
    /// Spill run files written (initial flushes + merge outputs).
    pub spill_files: u64,
    /// Intermediate merge passes needed before the final streaming merge.
    pub spill_merge_passes: u64,
    /// Planner-estimated total cost (`JobEstimate::total_cost`), when the
    /// job carried an estimate. The observed side is `total_cost`; the
    /// pair is the raw input of the feedback-calibration roadmap item.
    /// Deterministic — a pure function of the plan — so equivalence
    /// harnesses compare it like any other modeled field.
    pub estimated_cost: Option<f64>,
}

impl JobStats {
    /// Bytes read from the DFS by this job.
    pub fn input_bytes(&self) -> ByteSize {
        self.profile.total_input()
    }

    /// Bytes shuffled map → reduce by this job.
    pub fn communication_bytes(&self) -> ByteSize {
        self.profile.total_map_output()
    }

    /// Bytes written to the DFS by this job.
    pub fn output_bytes(&self) -> ByteSize {
        self.profile.output
    }

    /// Observed-over-estimated cost ratio: 1.0 = perfectly calibrated,
    /// above 1 = the planner was optimistic. `None` when the job carried
    /// no estimate or the estimate was non-positive.
    pub fn estimate_error(&self) -> Option<f64> {
        match self.estimated_cost {
            Some(est) if est > 0.0 => Some(self.total_cost / est),
            _ => None,
        }
    }
}

/// Per-round wall-clock accounting.
#[derive(Debug, Clone, Copy)]
pub struct RoundStats {
    /// Makespan of the round's pooled map tasks.
    pub map_makespan: f64,
    /// Makespan of the round's pooled reduce tasks.
    pub reduce_makespan: f64,
    /// Job-start overhead charged to the round's wall clock.
    pub overhead: f64,
}

impl RoundStats {
    /// Wall-clock accounting of one round: the jobs' map and reduce
    /// tasks pooled onto the cluster's slots, plus the job-start
    /// overhead. The single definition of the paper's per-round net-time
    /// model — used by both the round-barrier executor and the DAG
    /// scheduler's equivalence reconstruction.
    pub fn pooled<'a>(
        jobs: impl Iterator<Item = &'a JobStats> + Clone,
        cluster: Cluster,
        overhead: f64,
    ) -> RoundStats {
        let map_tasks: Vec<f64> = jobs
            .clone()
            .flat_map(|j| j.map_task_durations.iter().copied())
            .collect();
        let reduce_tasks: Vec<f64> = jobs
            .flat_map(|j| j.reduce_task_durations.iter().copied())
            .collect();
        RoundStats {
            map_makespan: lpt_makespan(&map_tasks, cluster.map_slots()),
            reduce_makespan: lpt_makespan(&reduce_tasks, cluster.reduce_slots()),
            overhead,
        }
    }

    /// Wall-clock duration of the round.
    pub fn net_time(&self) -> f64 {
        self.overhead + self.map_makespan + self.reduce_makespan
    }
}

/// Statistics for a full program execution.
#[derive(Debug, Clone, Default)]
pub struct ProgramStats {
    /// Per-job statistics, in execution order.
    pub jobs: Vec<JobStats>,
    /// Per-round wall-clock statistics.
    pub round_stats: Vec<RoundStats>,
    /// Predicted **DAG net time** (seconds): the completion time of the
    /// program's last job in a list-scheduling simulation over
    /// `max_concurrent_jobs` slots, with each job's duration
    /// reconstructed exactly as the per-round model prices a single-job
    /// round (`cost_h` + pooled map makespan + pooled reduce makespan).
    /// In multi-tenant runs the simulation is *global* — cross-submission
    /// conflict edges and slot contention included — so each
    /// submission's prediction is comparable to its wall clock. Set by
    /// the DAG scheduler; `None` on the round-barrier path, whose
    /// net-time model is the per-round sum. When the DAG is a chain and
    /// only one job slot exists, the two models coincide.
    pub predicted_net_time: Option<f64>,
}

impl ProgramStats {
    /// **Net time**: sum of round wall-clock durations.
    pub fn net_time(&self) -> f64 {
        self.round_stats.iter().map(RoundStats::net_time).sum()
    }

    /// **Total time**: aggregate cost over all jobs (the pay-as-you-go
    /// metric the paper's planners minimize).
    pub fn total_time(&self) -> f64 {
        self.jobs.iter().map(|j| j.total_cost).sum()
    }

    /// **Input cost**: bytes read from the DFS over the whole plan.
    pub fn input_bytes(&self) -> ByteSize {
        self.jobs.iter().map(JobStats::input_bytes).sum()
    }

    /// **Communication cost**: bytes shuffled map → reduce over the plan.
    pub fn communication_bytes(&self) -> ByteSize {
        self.jobs.iter().map(JobStats::communication_bytes).sum()
    }

    /// Number of rounds executed.
    pub fn num_rounds(&self) -> usize {
        self.round_stats.len()
    }

    /// Number of jobs executed.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Total shuffle bytes spilled to disk across all jobs.
    pub fn spilled_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.spilled_bytes).sum()
    }

    /// Total on-disk bytes of flushed spill runs across all jobs (the
    /// post-compression companion of [`ProgramStats::spilled_bytes`]).
    pub fn spilled_disk_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.spilled_disk_bytes).sum()
    }

    /// Total spill run files written across all jobs.
    pub fn spill_files(&self) -> u64 {
        self.jobs.iter().map(|j| j.spill_files).sum()
    }

    /// Total intermediate spill merge passes across all jobs.
    pub fn spill_merge_passes(&self) -> u64 {
        self.jobs.iter().map(|j| j.spill_merge_passes).sum()
    }

    /// Mean observed/estimated cost ratio over the jobs that carried an
    /// estimate; `None` when no job did.
    pub fn mean_estimate_error(&self) -> Option<f64> {
        let errors: Vec<f64> = self
            .jobs
            .iter()
            .filter_map(JobStats::estimate_error)
            .collect();
        if errors.is_empty() {
            None
        } else {
            Some(errors.iter().sum::<f64>() / errors.len() as f64)
        }
    }

    /// Merge another program's stats after this one (sequential composition,
    /// used when an SGF plan runs group after group).
    pub fn extend(&mut self, mut other: ProgramStats) {
        let round_offset = self.round_stats.len();
        for j in &mut other.jobs {
            j.round += round_offset;
        }
        self.jobs.extend(other.jobs);
        self.round_stats.extend(other.round_stats);
        // Sequential composition: predicted wall clocks add (a later
        // program cannot start before the earlier one finishes).
        self.predicted_net_time = match (self.predicted_net_time, other.predicted_net_time) {
            (Some(a), Some(b)) => Some(a + b),
            (one, None) => one,
            (None, other) => other,
        };
    }
}

impl fmt::Display for ProgramStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "net {:.1}s | total {:.1}s | input {} | comm {} | {} jobs / {} rounds",
            self.net_time(),
            self.total_time(),
            self.input_bytes(),
            self.communication_bytes(),
            self.num_jobs(),
            self.num_rounds(),
        )?;
        if let Some(predicted) = self.predicted_net_time {
            writeln!(
                f,
                "  predicted dag net time: {predicted:.1}s (list-scheduled job DAG)"
            )?;
        }
        for j in &self.jobs {
            write!(
                f,
                "  [round {}] {}: cost {:.1}s (map {:.1} + reduce {:.1}), in {}, shuffle {}, out {}",
                j.round + 1,
                j.name,
                j.total_cost,
                j.map_cost,
                j.reduce_cost,
                j.input_bytes(),
                j.communication_bytes(),
                j.output_bytes(),
            )?;
            if j.spill_files > 0 {
                write!(
                    f,
                    ", spilled {} B ({} B on disk) in {} runs ({} merge passes)",
                    j.spilled_bytes, j.spilled_disk_bytes, j.spill_files, j.spill_merge_passes,
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::InputPartition;

    fn stats(cost: f64) -> JobStats {
        JobStats {
            name: "j".into(),
            round: 0,
            profile: JobProfile {
                partitions: vec![InputPartition {
                    label: "R".into(),
                    input: ByteSize::mb(10),
                    map_output: ByteSize::mb(20),
                    records_out: 5,
                    mappers: 1,
                }],
                reducers: 2,
                output: ByteSize::mb(3),
            },
            map_cost: cost / 2.0,
            reduce_cost: cost / 2.0,
            total_cost: cost,
            map_task_durations: vec![1.0],
            reduce_task_durations: vec![0.5, 0.5],
            output_tuples: 1,
            spilled_bytes: 0,
            spilled_disk_bytes: 0,
            spill_files: 0,
            spill_merge_passes: 0,
            estimated_cost: None,
        }
    }

    #[test]
    fn totals_aggregate_jobs() {
        let mut p = ProgramStats::default();
        p.jobs.push(stats(10.0));
        p.jobs.push(stats(5.0));
        p.round_stats.push(RoundStats {
            map_makespan: 2.0,
            reduce_makespan: 1.0,
            overhead: 10.0,
        });
        assert!((p.total_time() - 15.0).abs() < 1e-12);
        assert!((p.net_time() - 13.0).abs() < 1e-12);
        assert_eq!(p.input_bytes(), ByteSize::mb(20));
        assert_eq!(p.communication_bytes(), ByteSize::mb(40));
    }

    #[test]
    fn extend_offsets_rounds() {
        let mut a = ProgramStats::default();
        a.jobs.push(stats(1.0));
        a.round_stats.push(RoundStats {
            map_makespan: 1.0,
            reduce_makespan: 0.0,
            overhead: 0.0,
        });
        let mut b = ProgramStats::default();
        b.jobs.push(stats(2.0));
        b.round_stats.push(RoundStats {
            map_makespan: 1.0,
            reduce_makespan: 0.0,
            overhead: 0.0,
        });
        a.extend(b);
        assert_eq!(a.jobs[1].round, 1);
        assert_eq!(a.num_rounds(), 2);
        assert!((a.total_time() - 3.0).abs() < 1e-12);
    }
}
