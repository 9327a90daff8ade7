//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload flat-mem|nested-durable|service-open \
//!           --seed N --seconds S --trace 0|1 [--work-dir DIR]
//! ```
//!
//! Untraced runs (`--trace 0`) measure the end-to-end metrics; traced
//! runs (`--trace 1`) add benchmark-owned timers around the calls into
//! each layer and report the per-layer metrics. Every metric is printed
//! as `metric NAME = VALUE UNIT`; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! The exit code is 0 only when every check passed.

mod batch;
mod probe;
mod service;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use stats::{metric, result_json, Metric};

/// The end-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("query_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("net_model_s", "s"),
    ("total_model_s", "s"),
    ("comm_model_gb", "GB"),
];

/// The per-layer metrics, reported by every workload's traced run
/// (0 where the workload does not exercise the layer).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("datagen.gen_s", "s"),
    ("sgf.oracle_s", "s"),
    ("sgf.parse_ms", "ms"),
    ("core.plan_s", "s"),
    ("core.jobs", "count"),
    ("core.estimate_error", "ratio"),
    ("mr.compute_s", "s"),
    ("mr.compute_calls", "count"),
    ("mr.peak_shuffle_mb", "MiB"),
    ("mr.spilled_mb", "MiB"),
    ("mr.spilled_mb_range", "ratio"),
    ("mr.spill_files", "count"),
    ("mr.spill_files_range", "ratio"),
    ("mr.merge_passes", "count"),
    ("storage.ingest_s", "s"),
    ("storage.store_s", "s"),
    ("storage.store_calls", "count"),
    ("storage.written_mb", "MiB"),
    ("storage.fetch_s", "s"),
    ("storage.fetch_calls", "count"),
    ("storage.read_mb", "MiB"),
    ("storage.cache_hit_rate", "ratio"),
    ("storage.cache_misses", "count"),
    ("storage.cache_evictions", "count"),
    ("sched.wall_s", "s"),
    ("sched.overlap", "ratio"),
    ("sched.queue_wait_p50_ms", "ms"),
    ("sched.queue_wait_p95_ms", "ms"),
    ("service.eval_ms", "ms"),
    ("service.transport_ms", "ms"),
    ("service.generator_late_ms", "ms"),
    ("service.latency_p95_ms", "ms"),
    ("obs.trace_overhead", "ratio"),
    ("traced.query_s", "s"),
    ("split.storage_s", "s"),
    ("split.mr_s", "s"),
    ("split.core_s", "s"),
    ("split.sched_s", "s"),
    ("split.service_s", "s"),
    ("untraced_s", "s"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut work_dir = PathBuf::from(".bench_work");
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
        work_dir,
    })
}

/// What a workload measured and found.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Problems that make the run's result wrong or invalid.
    pub problems: Vec<String>,
    pub e2e: BTreeMap<String, f64>,
    pub layers: BTreeMap<String, f64>,
    /// Printed for people; not part of the result line.
    pub extra: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn fail(&mut self, problem: &str) {
        self.problems.push(problem.to_string());
    }

    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.insert(name.to_string(), value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push(metric(name, value, unit));
    }

    pub fn note(&mut self, note: &str) {
        self.notes.push(note.to_string());
    }
}

fn ordered(table: &[(&str, &'static str)], values: &BTreeMap<String, f64>) -> Vec<Metric> {
    table
        .iter()
        .map(|(name, unit)| metric(name, values.get(*name).copied().unwrap_or(0.0), unit))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = args
        .work_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(work.join("spill")) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        return ExitCode::from(2);
    }
    // Shuffle spill runs go under the work directory, not the system
    // temp dir. Set before any thread starts.
    std::env::set_var("GUMBO_SPILL_DIR", work.join("spill"));

    let result = match args.workload.as_str() {
        "flat-mem" => batch::run(&batch::flat_mem(batch::FLAT_MEM_TUPLES), &args, &work),
        "nested-durable" => batch::run(
            &batch::nested_durable(batch::NESTED_DURABLE_TUPLES, batch::NESTED_DURABLE_BUDGET),
            &args,
            &work,
        ),
        "service-open" => service::run(&args),
        other => {
            let _ = std::fs::remove_dir_all(&work);
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let metrics = if args.trace {
        ordered(&PER_LAYER, &report.layers)
    } else {
        ordered(&END_TO_END, &report.e2e)
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &report.notes {
        println!("note {note}");
    }
    for m in metrics.iter().chain(if args.trace {
        &[][..]
    } else {
        &report.extra[..]
    }) {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "operations attempted={} failed={}",
        report.attempted, report.failed
    );
    for p in &report.problems {
        println!("problem {p}");
        eprintln!("perfbench: {p}");
    }
    let correct = report.problems.is_empty();
    println!(
        "{}",
        result_json(correct, report.attempted.max(1), report.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo_obs::json::Json;

    fn declared(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        let Some(Json::Arr(items)) = json.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn names(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        assert_eq!(declared("end_to_end"), names(&END_TO_END));
        assert_eq!(declared("per_layer"), names(&PER_LAYER));
        let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, ["flat-mem", "nested-durable", "service-open"]);
    }

    fn args(workload: &str, seed: u64, trace: bool) -> Args {
        Args {
            workload: workload.into(),
            seed,
            seconds: 1,
            trace,
            work_dir: PathBuf::new(),
        }
    }

    fn work_dir(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perfbench-run-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every workload passes its checks on more than one seed, traced and
    /// untraced, and reports every metric it is responsible for.
    #[test]
    fn small_batch_runs_pass_on_two_seeds() {
        let specs = [
            ("flat-mem", batch::flat_mem(2_000)),
            ("nested-durable", batch::nested_durable(2_000, 16 << 10)),
        ];
        for (name, spec) in &specs {
            for seed in [1, 2] {
                for trace in [false, true] {
                    let dir = work_dir(name);
                    let report = batch::run(spec, &args(name, seed, trace), &dir).unwrap();
                    let _ = std::fs::remove_dir_all(&dir);
                    assert!(report.problems.is_empty(), "{name}: {:?}", report.problems);
                    assert_eq!(report.failed, 0);
                    let (table, values) = if trace {
                        (&PER_LAYER[..], &report.layers)
                    } else {
                        (&END_TO_END[..], &report.e2e)
                    };
                    for (metric, _) in table {
                        if !metric.starts_with("service.")
                            && !metric.starts_with("split.service")
                            && !metric.starts_with("sched.queue_wait")
                        {
                            assert!(values.contains_key(*metric), "{name}: no {metric}");
                        }
                    }
                }
            }
        }
    }

    /// The probe makes its two requests every time, and fails one exactly
    /// when tenant t2 got rows of tenant t1's output.
    #[test]
    fn isolation_probe_fails_exactly_when_it_leaks() {
        let db = gumbo_datagen::queries::c3()
            .with_tuples(500)
            .spec
            .database(3);
        let mix = service::mix_queries(&service::mix(), &db).unwrap();
        let probe = service::isolation_probe(&db, &mix).unwrap();
        assert_eq!(probe.attempted, 2);
        assert_eq!(probe.failed, u64::from(probe.leaked_rows.is_some()));
        if let Some(rows) = probe.leaked_rows {
            let own: usize = mix[0].oracle.iter().map(|r| r.len()).sum();
            assert_eq!(rows, own, "t2 got exactly t1's answer");
        }
    }

    #[test]
    fn short_service_run_answers_and_reports() {
        let report = service::run(&args("service-open", 2, true)).unwrap();
        assert!(report.problems.is_empty(), "{:?}", report.problems);
        assert!(report.attempted >= 10);
        assert!(report.failed < report.attempted);
        for metric in ["query_s", "net_model_s", "peak_rss_mb"] {
            assert!(report.e2e[metric] > 0.0, "{metric}");
        }
        for metric in ["service.eval_ms", "storage.fetch_s", "untraced_s"] {
            assert!(report.layers[metric] > 0.0, "{metric}");
        }
    }
}
