//! Job definitions: mapper/reducer traits and per-job configuration.

use std::fmt;

use gumbo_common::{ByteSize, Fact, RelationName, Tuple};

use crate::estimate::JobEstimate;
use crate::message::Message;

/// A map function `µ`.
///
/// Called once per input fact, in the deterministic order of the job's
/// input relations. `index` is the fact's position within its relation's
/// canonical (sorted) order — the tuple id used by the guard-reference
/// optimization (§5.1 (2)).
pub trait Mapper: Send + Sync {
    /// Process one fact, emitting key-value pairs.
    fn map(&self, fact: &Fact, index: u64, emit: &mut dyn FnMut(Tuple, Message));
}

/// A reduce function `ρ`.
///
/// Called once per key group with all values for that key.
pub trait Reducer: Send + Sync {
    /// Process one group, emitting `(output relation, tuple)` pairs.
    fn reduce(&self, key: &Tuple, values: &[Message], emit: &mut dyn FnMut(&RelationName, Tuple));
}

/// How a job chooses its reducer count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReducerPolicy {
    /// Gumbo's policy (§5.1 (3)): reducers sized by **intermediate** data,
    /// one reducer per `mb_per_reducer` MB of (estimated) map output.
    /// The paper allocates 256 MB per reducer.
    ByIntermediate {
        /// MB of intermediate data per reducer.
        mb_per_reducer: u64,
    },
    /// Pig's default policy (§5.2): reducers sized by map **input**,
    /// one reducer per `mb_per_reducer` MB of input (Pig uses 1 GB).
    ByInput {
        /// MB of map input per reducer.
        mb_per_reducer: u64,
    },
    /// A fixed reducer count.
    Fixed(usize),
}

impl ReducerPolicy {
    /// Gumbo's default: 256 MB of intermediate data per reducer.
    pub fn gumbo_default() -> Self {
        ReducerPolicy::ByIntermediate {
            mb_per_reducer: 256,
        }
    }

    /// Pig's default: 1 GB of input per reducer.
    pub fn pig_default() -> Self {
        ReducerPolicy::ByInput {
            mb_per_reducer: 1000,
        }
    }

    /// Resolve the reducer count from (scaled) input and intermediate sizes.
    pub fn reducers(&self, total_input: ByteSize, total_map_output: ByteSize) -> usize {
        match *self {
            ReducerPolicy::ByIntermediate { mb_per_reducer } => {
                div_ceil_mb(total_map_output, mb_per_reducer)
            }
            ReducerPolicy::ByInput { mb_per_reducer } => div_ceil_mb(total_input, mb_per_reducer),
            ReducerPolicy::Fixed(r) => r.max(1),
        }
    }
}

fn div_ceil_mb(bytes: ByteSize, mb_per_reducer: u64) -> usize {
    let per = (mb_per_reducer.max(1)) * gumbo_common::MB;
    (bytes.as_bytes().div_ceil(per)).max(1) as usize
}

/// Per-job knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobConfig {
    /// Message packing (§5.1 (1)): key bytes are charged once per distinct
    /// key per map task instead of once per message.
    pub packing: bool,
    /// Reducer allocation policy.
    pub reducer_policy: ReducerPolicy,
    /// DFS split size in MB (Hadoop default 128 MB) — determines `mᵢ`.
    pub split_mb: u64,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            packing: true,
            reducer_policy: ReducerPolicy::gumbo_default(),
            split_mb: 128,
        }
    }
}

impl JobConfig {
    /// Configuration modelling the Pig/Hive baselines: no packing, Pig's
    /// input-based reducer allocation.
    pub fn baseline() -> Self {
        JobConfig {
            packing: false,
            reducer_policy: ReducerPolicy::pig_default(),
            split_mb: 128,
        }
    }

    /// Number of map tasks for an input of the given (scaled) size.
    pub fn mappers_for(&self, input: ByteSize) -> usize {
        let split = (self.split_mb.max(1)) * gumbo_common::MB;
        (input.as_bytes().div_ceil(split)).max(1) as usize
    }
}

/// One MapReduce job: `(µ, ρ)` plus input/output wiring and configuration.
pub struct Job {
    /// Display name (e.g. `MSJ(X1,X2)` or `EVAL(R, φ)`).
    pub name: String,
    /// Input relation files, read in order.
    pub inputs: Vec<RelationName>,
    /// Declared outputs with arities; created (possibly empty) on completion.
    pub outputs: Vec<(RelationName, usize)>,
    /// The map function.
    pub mapper: Box<dyn Mapper>,
    /// The reduce function.
    pub reducer: Box<dyn Reducer>,
    /// Job configuration.
    pub config: JobConfig,
    /// Plan-time cost estimate from the shared estimation layer
    /// ([`crate::estimate`]). Attached by the planner (`None` for jobs
    /// built outside it); carried through `MrProgram::into_dag()` so the
    /// scheduler can place, size and predict from the same numbers the
    /// planner optimized.
    pub estimate: Option<JobEstimate>,
}

impl Job {
    /// Attach (or replace) this job's plan-time estimate.
    pub fn with_estimate(mut self, estimate: JobEstimate) -> Job {
        self.estimate = Some(estimate);
        self
    }
    /// Names of the relations this job reads, in read order.
    ///
    /// Together with [`Job::output_names`] this is the job's complete DFS
    /// footprint — the dependency information the DAG lowering
    /// (`MrProgram::into_dag`) infers scheduling edges from.
    pub fn input_names(&self) -> impl Iterator<Item = &RelationName> + '_ {
        self.inputs.iter()
    }

    /// Names of the relations this job writes (declared outputs).
    pub fn output_names(&self) -> impl Iterator<Item = &RelationName> + '_ {
        self.outputs.iter().map(|(name, _)| name)
    }
}

impl fmt::Debug for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Job")
            .field("name", &self.name)
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .field("config", &self.config)
            .field("estimate", &self.estimate)
            .finish_non_exhaustive()
    }
}

/// Test-only fixtures shared by this crate's unit and property tests: a
/// mapper/reducer pair that emits nothing, and a job builder that only
/// cares about relation wiring (which is all the program/DAG layers look
/// at).
#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::message::Message;

    /// Emits nothing, on either side of the shuffle.
    pub(crate) struct Noop;

    impl Mapper for Noop {
        fn map(&self, _: &Fact, _: u64, _: &mut dyn FnMut(Tuple, Message)) {}
    }

    impl Reducer for Noop {
        fn reduce(&self, _: &Tuple, _: &[Message], _: &mut dyn FnMut(&RelationName, Tuple)) {}
    }

    /// A no-op job reading `inputs` and declaring unary `outputs`.
    pub(crate) fn noop_job<I, O>(name: impl Into<String>, inputs: I, outputs: O) -> Job
    where
        I: IntoIterator,
        I::Item: Into<RelationName>,
        O: IntoIterator,
        O::Item: Into<RelationName>,
    {
        Job {
            name: name.into(),
            inputs: inputs.into_iter().map(Into::into).collect(),
            outputs: outputs.into_iter().map(|n| (n.into(), 1)).collect(),
            mapper: Box::new(Noop),
            reducer: Box::new(Noop),
            config: JobConfig::default(),
            estimate: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gumbo_policy_sizes_by_intermediate() {
        let p = ReducerPolicy::gumbo_default();
        // 1000 MB intermediate / 256 MB = 4 reducers; input is ignored.
        assert_eq!(p.reducers(ByteSize::mb(1_000_000), ByteSize::mb(1000)), 4);
        assert_eq!(p.reducers(ByteSize::ZERO, ByteSize::mb(1)), 1);
    }

    #[test]
    fn pig_policy_sizes_by_input() {
        let p = ReducerPolicy::pig_default();
        // 5 GB input / 1 GB = 5 reducers; intermediate is ignored.
        assert_eq!(p.reducers(ByteSize::mb(5000), ByteSize::mb(1_000_000)), 5);
    }

    #[test]
    fn fixed_policy_clamps_to_one() {
        assert_eq!(
            ReducerPolicy::Fixed(0).reducers(ByteSize::ZERO, ByteSize::ZERO),
            1
        );
        assert_eq!(
            ReducerPolicy::Fixed(7).reducers(ByteSize::ZERO, ByteSize::ZERO),
            7
        );
    }

    #[test]
    fn at_least_one_reducer_for_empty_data() {
        assert_eq!(
            ReducerPolicy::gumbo_default().reducers(ByteSize::ZERO, ByteSize::ZERO),
            1
        );
    }

    #[test]
    fn mapper_count_from_splits() {
        let cfg = JobConfig::default();
        assert_eq!(cfg.mappers_for(ByteSize::mb(4000)), 32); // 4 GB / 128 MB
        assert_eq!(cfg.mappers_for(ByteSize::mb(1)), 1);
        assert_eq!(cfg.mappers_for(ByteSize::ZERO), 1);
        assert_eq!(cfg.mappers_for(ByteSize::mb(129)), 2);
    }
}
